//! Batch-service throughput: jobs per second and cache hit rate versus
//! worker count, an 8-shard session store versus a single-lock (1-shard)
//! one.
//!
//! The workload is one fixed seeded corpus (16 scenarios × 4 STCL points =
//! 64 jobs) rebuilt identically for every configuration — the service's
//! determinism contract guarantees every configuration schedules the exact
//! same work, so the only thing that varies is the execution machinery
//! being measured. The recorded numbers land in `BENCH_pr4.json` at the
//! workspace root, alongside (never overwriting) the frozen
//! `BENCH_pr2.json` / `BENCH_pr3.json` history.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use thermsched_bench::{baseline_recording_enabled, median};
use thermsched_service::{Corpus, ScenarioSpec, ServiceConfig, ServiceRunner};

/// Worker counts the recording sweep measures.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The fixed corpus every configuration runs: 16 systems of 20–30 cores,
/// four operating points each. Jobs are heavy enough that store overhead is
/// amortised the way a production batch would amortise it, and the four
/// points per scenario give the shared stores real cross-job reuse.
fn corpus() -> Corpus {
    ScenarioSpec {
        seed: 42,
        scenarios: 16,
        grid_shapes: vec![(5, 4), (5, 5), (6, 5)],
        stc_limits: vec![25.0, 40.0, 55.0, 70.0],
        ..ScenarioSpec::default()
    }
    .build()
    .expect("bench spec is valid")
}

fn runner(workers: usize, store_shards: usize) -> ServiceRunner {
    ServiceRunner::new(ServiceConfig {
        workers,
        store_shards,
        ..ServiceConfig::default()
    })
    .expect("bench config is valid")
}

/// One measured sample of a configuration: (jobs per second, cache hit rate,
/// contended locks). Each sample is a full batch over a cold store.
fn sample(corpus: &Corpus, workers: usize, store_shards: usize) -> (f64, f64, u64) {
    let report = runner(workers, store_shards)
        .run(corpus)
        .expect("batch runs");
    assert_eq!(
        report.stats().completed,
        report.stats().job_count,
        "the bench corpus must complete everywhere"
    );
    (
        report.stats().jobs_per_second,
        report.stats().store.hit_rate(),
        report.stats().store.contended_locks,
    )
}

/// The benchmark ids whose selection allows (re)recording `BENCH_pr4.json`.
const RECORDED_IDS: [&str; 2] = ["throughput/mutex", "throughput/sharded8"];

fn bench_throughput(c: &mut Criterion) {
    let record = baseline_recording_enabled(&RECORDED_IDS);
    let corpus = corpus();
    // The recorded keys keep their historical names: "mutex" is the
    // single-lock series.
    let stores: [(&str, usize); 2] = [("mutex", 1), ("sharded8", 8)];

    let mut group = c.benchmark_group("throughput");
    group.sample_size(10);
    for (store_name, store) in stores {
        for workers in [1, 8] {
            group.bench_with_input(
                BenchmarkId::new(store_name, format!("{workers}w")),
                &(),
                |b, ()| b.iter(|| sample(&corpus, workers, store)),
            );
        }
    }
    group.finish();

    if record {
        // Mutex and sharded batches are interleaved sample by sample with
        // alternating order inside each pair, so slow frequency drift and
        // order effects hit both stores equally. The recorded
        // jobs-per-second is the best over samples: throughput noise is
        // one-sided (preemption, duplicate misses and frequency dips only
        // ever slow a batch down), so best-of-N is the lowest-variance
        // estimator of a configuration's capability — medians at this batch
        // size are dominated by scheduler jitter.
        let mut per_store: Vec<Vec<String>> = vec![Vec::new(), Vec::new()];
        let mut ratio_at_8 = f64::NAN;
        for workers in WORKER_COUNTS {
            const PAIRS: usize = 40;
            let mut measured: [Vec<(f64, f64, u64)>; 2] = [Vec::new(), Vec::new()];
            for pair in 0..PAIRS {
                let order: [usize; 2] = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
                for side in order {
                    measured[side].push(sample(&corpus, workers, stores[side].1));
                }
            }
            let best = |side: usize| -> f64 {
                measured[side]
                    .iter()
                    .map(|s| s.0)
                    .fold(f64::NEG_INFINITY, f64::max)
            };
            let ratio = best(1) / best(0);
            if workers == 8 {
                ratio_at_8 = ratio;
            }
            for (side, (store_name, _)) in stores.iter().enumerate() {
                let jobs_per_second = best(side);
                let hit_rate = median(measured[side].iter().map(|s| s.1).collect::<Vec<_>>());
                let contended = measured[side].iter().map(|s| s.2).max().unwrap_or(0);
                println!(
                    "throughput/{store_name}/{workers}w: {jobs_per_second:.0} jobs/s, \
                     {:.1}% cache hit rate, max {contended} contended locks",
                    hit_rate * 100.0
                );
                per_store[side].push(format!(
                    "        \"{workers}\": {{\n          \"jobs_per_second\": {jobs_per_second:.1},\n          \"cache_hit_rate\": {hit_rate:.4},\n          \"max_contended_locks\": {contended}\n        }}"
                ));
            }
            println!("throughput: sharded8 vs mutex at {workers} workers = {ratio:.3}x");
        }
        let store_entries: Vec<String> = stores
            .iter()
            .enumerate()
            .map(|(side, (store_name, _))| {
                format!(
                    "    \"{store_name}\": {{\n      \"workers\": {{\n{}\n      }}\n    }}",
                    per_store[side].join(",\n")
                )
            })
            .collect();
        write_baseline(&store_entries, ratio_at_8, &corpus);
    }
}

/// Records the measured numbers as `BENCH_pr4.json` at the workspace root.
/// Hand-rolled JSON: the workspace has no registry access, hence no serde.
fn write_baseline(store_entries: &[String], ratio_at_8: f64, corpus: &Corpus) {
    let json = format!(
        "{{\n  \"pr\": 4,\n  \"bench\": \"throughput\",\n  \"description\": \"Batch-service throughput on one fixed seeded corpus: jobs/sec, shared-store cache hit rate and peak lock contention vs worker count, for the single-lock (1-shard) store, recorded under the mutex key, and the 8-way sharded store. jobs_per_second is the best over 40 interleaved cold batches per configuration (throughput noise is one-sided, so best-of-N estimates capability); cache_hit_rate is the median over the same samples and max_contended_locks the maximum. sharded_vs_mutex_jobs_per_second_at_8_workers is the headline ratio of those bests (>= 1 means sharding does not cost throughput even when the machine cannot run the workers in parallel).\",\n  \"corpus\": {{\n    \"seed\": 42,\n    \"scenarios\": {},\n    \"jobs\": {},\n    \"total_cores\": {}\n  }},\n  \"stores\": {{\n{}\n  }},\n  \"sharded_vs_mutex_jobs_per_second_at_8_workers\": {ratio_at_8:.3}\n}}\n",
        corpus.scenarios().len(),
        corpus.jobs().len(),
        corpus.total_cores(),
        store_entries.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr4.json");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("warning: could not write {path}: {e}");
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_throughput
}
criterion_main!(benches);
