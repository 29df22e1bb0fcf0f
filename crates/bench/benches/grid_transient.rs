//! Grid-backend fidelity cost and the cross-scenario operator cache.
//!
//! Two questions, answered on one machine and recorded to `BENCH_pr5.json`
//! (alongside, never overwriting, the frozen `BENCH_pr2/3/4.json` history):
//!
//! 1. **What does full fidelity cost at grid granularity?** One transient
//!    session integration (implicit Euler over the banded factorisation)
//!    versus one steady-state upper-bound solve (one banded direct solve)
//!    on the Alpha-21364 floorplan at 24×24 cells.
//! 2. **What does the operator cache buy a corpus?** Batch throughput with
//!    the grid-transient backend over a single-shape corpus (maximal
//!    reuse), operator cache on versus off, plus the backend-construction
//!    pass measured on its own — construction is exactly what the cache
//!    deduplicates, so its on/off ratio isolates the effect from job cost.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use thermsched_bench::{baseline_recording_enabled, median};
use thermsched_service::{BackendKind, Corpus, ScenarioSpec, ServiceConfig, ServiceRunner};
use thermsched_soc::library;
use thermsched_thermal::{
    GridResolution, GridThermalSimulator, PackageConfig, PowerMap, ThermalSimulator,
};

/// The grid-transient corpus: every scenario shares one 4×4 shape, so the
/// operator cache collapses all backend builds onto one factorisation.
fn corpus() -> Corpus {
    ScenarioSpec {
        seed: 55,
        scenarios: 8,
        grid_shapes: vec![(4, 4)],
        stc_limits: vec![40.0],
        ..ScenarioSpec::default()
    }
    .build()
    .expect("bench spec is valid")
}

fn config(operator_cache: bool) -> ServiceConfig {
    ServiceConfig {
        workers: 4,
        store_shards: 8,
        backend: BackendKind::GridTransient { cells_per_core: 4 },
        operator_cache,
        batch_same_shape: true,
        ..ServiceConfig::default()
    }
}

fn fidelity_fixture() -> (GridThermalSimulator, PowerMap) {
    let sut = library::alpha21364_sut();
    let sim = GridThermalSimulator::new(
        sut.floorplan(),
        &PackageConfig::default(),
        GridResolution::new(24, 24).unwrap(),
    )
    .expect("library floorplan fits a 24x24 grid");
    let mut power = PowerMap::zeros(sim.block_count());
    power.set(6, 18.0).unwrap();
    power.set(11, 12.0).unwrap();
    (sim, power)
}

/// Jobs per second of one cold batch run.
fn batch_jobs_per_second(corpus: &Corpus, operator_cache: bool) -> f64 {
    let report = ServiceRunner::new(config(operator_cache))
        .expect("bench config is valid")
        .run(corpus)
        .expect("batch runs");
    assert_eq!(
        report.stats().completed,
        report.stats().job_count,
        "the bench corpus must complete everywhere"
    );
    report.stats().jobs_per_second
}

/// Wall-clock seconds of the backend-construction pass alone: build one
/// backend per scenario, through a fresh operator cache or privately.
fn backend_build_seconds(corpus: &Corpus, operator_cache: bool) -> f64 {
    use std::sync::Arc;
    use thermsched::OperatorCacheHandle;
    use thermsched_thermal::ThermalBackend;
    let started = Instant::now();
    let cache = OperatorCacheHandle::new();
    let mut built: Vec<Arc<dyn ThermalBackend>> = Vec::with_capacity(corpus.scenarios().len());
    for scenario in corpus.scenarios() {
        let build = || -> Result<Arc<dyn ThermalBackend>, thermsched_thermal::ThermalError> {
            Ok(Arc::new(GridThermalSimulator::new(
                scenario.sut.floorplan(),
                &PackageConfig::default(),
                GridResolution::new(scenario.grid.0 * 4, scenario.grid.1 * 4).unwrap(),
            )?))
        };
        let backend = if operator_cache {
            let key = BackendKind::GridTransient { cells_per_core: 4 }.key(scenario);
            cache.get_or_try_build(key, build).unwrap()
        } else {
            build().unwrap()
        };
        built.push(backend);
    }
    assert_eq!(built.len(), corpus.scenarios().len());
    started.elapsed().as_secs_f64()
}

/// The benchmark ids whose selection allows (re)recording `BENCH_pr5.json`.
const RECORDED_IDS: [&str; 2] = ["grid_fidelity/transient", "grid_operator_cache/on"];

fn bench_grid(c: &mut Criterion) {
    let record = baseline_recording_enabled(&RECORDED_IDS);
    let (sim, power) = fidelity_fixture();

    let mut group = c.benchmark_group("grid_fidelity");
    group.sample_size(10);
    group.bench_function("transient", |b| {
        b.iter(|| sim.transient(&power, 1.0).expect("session integrates"))
    });
    group.bench_function("steady", |b| {
        b.iter(|| sim.steady_state(&power).expect("steady state solves"))
    });
    group.finish();

    let corpus = corpus();
    let mut group = c.benchmark_group("grid_operator_cache");
    group.sample_size(10);
    group.bench_function("on", |b| b.iter(|| batch_jobs_per_second(&corpus, true)));
    group.bench_function("off", |b| b.iter(|| batch_jobs_per_second(&corpus, false)));
    group.finish();

    if record {
        // Fidelity cost: medians over repeated single solves.
        const SOLVE_SAMPLES: usize = 20;
        let time = |f: &mut dyn FnMut()| -> f64 {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64()
        };
        let mut transient_s = Vec::with_capacity(SOLVE_SAMPLES);
        let mut steady_s = Vec::with_capacity(SOLVE_SAMPLES);
        for _ in 0..SOLVE_SAMPLES {
            transient_s.push(time(&mut || {
                sim.transient(&power, 1.0).expect("session integrates");
            }));
            steady_s.push(time(&mut || {
                sim.steady_state(&power).expect("steady state solves");
            }));
        }
        let transient_ms = median(transient_s) * 1e3;
        let steady_ms = median(steady_s) * 1e3;
        println!(
            "grid_fidelity: transient {transient_ms:.3} ms vs steady {steady_ms:.3} ms \
             ({:.1}x for full fidelity)",
            transient_ms / steady_ms
        );

        // Operator cache: interleaved on/off pairs, best-of for throughput
        // (one-sided noise), medians for the construction pass.
        const PAIRS: usize = 8;
        let mut throughput: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
        let mut build: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
        for pair in 0..PAIRS {
            let order: [bool; 2] = if pair % 2 == 0 {
                [true, false]
            } else {
                [false, true]
            };
            for on in order {
                let side = usize::from(!on);
                throughput[side].push(batch_jobs_per_second(&corpus, on));
                build[side].push(backend_build_seconds(&corpus, on));
            }
        }
        let best = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let jobs_on = best(&throughput[0]);
        let jobs_off = best(&throughput[1]);
        let build_on_ms = median(build[0].clone()) * 1e3;
        let build_off_ms = median(build[1].clone()) * 1e3;
        println!(
            "grid_operator_cache: {jobs_on:.2} jobs/s on vs {jobs_off:.2} jobs/s off \
             ({:.3}x); backend build pass {build_on_ms:.2} ms on vs {build_off_ms:.2} ms off \
             ({:.1}x)",
            jobs_on / jobs_off,
            build_off_ms / build_on_ms
        );
        write_baseline(
            &corpus,
            transient_ms,
            steady_ms,
            jobs_on,
            jobs_off,
            build_on_ms,
            build_off_ms,
        );
    }
}

/// Records the measured numbers as `BENCH_pr5.json` at the workspace root.
/// Hand-rolled JSON: the workspace has no registry access, hence no serde.
fn write_baseline(
    corpus: &Corpus,
    transient_ms: f64,
    steady_ms: f64,
    jobs_on: f64,
    jobs_off: f64,
    build_on_ms: f64,
    build_off_ms: f64,
) {
    let json = format!(
        "{{\n  \"pr\": 5,\n  \"bench\": \"grid_transient\",\n  \"description\": \"Grid-backend fidelity cost and the cross-scenario operator cache. grid_fidelity: median wall-clock of one full-fidelity transient session integration (1 s at 1 ms steps, banded-Cholesky implicit Euler, Alpha-21364 at 24x24 cells) vs one steady-state upper-bound solve (one banded direct solve) — the ratio is the price of replacing the modification-1 bound with the real transient. operator_cache: batch throughput of a single-shape grid-transient corpus with the operator cache on vs off (best over 8 interleaved cold batches each; throughput noise is one-sided), plus the backend-construction pass alone (median), which is exactly the work the cache deduplicates.\",\n  \"grid_fidelity\": {{\n    \"resolution\": \"24x24\",\n    \"session_seconds\": 1.0,\n    \"time_step_seconds\": 0.001,\n    \"transient_ms\": {transient_ms:.4},\n    \"steady_state_ms\": {steady_ms:.4},\n    \"transient_over_steady\": {:.3}\n  }},\n  \"operator_cache\": {{\n    \"backend\": \"grid-transient(4)\",\n    \"scenarios\": {},\n    \"jobs\": {},\n    \"workers\": 4,\n    \"jobs_per_second_cache_on\": {jobs_on:.3},\n    \"jobs_per_second_cache_off\": {jobs_off:.3},\n    \"throughput_ratio_on_over_off\": {:.4},\n    \"backend_build_pass_ms_cache_on\": {build_on_ms:.4},\n    \"backend_build_pass_ms_cache_off\": {build_off_ms:.4},\n    \"build_ratio_off_over_on\": {:.2}\n  }}\n}}\n",
        transient_ms / steady_ms,
        corpus.scenarios().len(),
        corpus.jobs().len(),
        jobs_on / jobs_off,
        build_off_ms / build_on_ms,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr5.json");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("warning: could not write {path}: {e}");
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_grid
}
criterion_main!(benches);
