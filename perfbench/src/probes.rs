//! Direct probes of single layers, run outside the timed batches: the
//! thermal backend on the workload's own scenarios, the wire codec on its
//! corpus and results, and the process boundary. Each probe call records a
//! `bench.*` span into the run's tracer and is timed with a wall clock.

use std::path::Path;
use std::time::Instant;

use thermsched::{OnlineContext, TestSession};
use thermsched_obs::Tracer;
use thermsched_service::{BackendKind, Corpus, JobResult, Scenario, ServiceRunner, TraceFamily};
use thermsched_thermal::{
    GridResolution, GridThermalSimulator, PackageConfig, PowerMap, RcThermalSimulator,
    ThermalBackend, TransientConfig,
};
use thermsched_wire::Wire;

use crate::stats::median;
use crate::workload::{sharded, Workload, SHARDED_SCENARIOS};

/// Scenarios the thermal probes use: the first four, which cover every
/// grid shape the generator cycles through.
const PROBE_SCENARIOS: usize = 4;
/// Minimum wall seconds of each repeated probe measurement.
const PROBE_SECONDS: f64 = 0.2;
/// Minimum repetitions of each repeated probe measurement.
const PROBE_REPS: usize = 3;
/// Paired repetitions of the in-process ratio probe.
const RATIO_REPS: usize = 3;
/// Warm start (°C) of the trace probe on workloads whose jobs carry none.
const PROBE_WARM_START: f64 = 55.0;

/// One named probe figure.
pub type Figure = (&'static str, f64);

/// Median wall seconds per call of `work`, repeated at least
/// [`PROBE_REPS`] times and for at least [`PROBE_SECONDS`], each call inside
/// a `name` span.
fn repeat<T>(
    tracer: &Tracer,
    name: &'static str,
    mut work: impl FnMut() -> Result<T, String>,
) -> Result<f64, String> {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < PROBE_REPS || started.elapsed().as_secs_f64() < PROBE_SECONDS {
        let _span = tracer.span(name);
        let call = Instant::now();
        std::hint::black_box(work()?);
        samples.push(call.elapsed().as_secs_f64());
    }
    Ok(median(&samples).expect("at least one sample"))
}

/// The backend the workload's service configuration builds for
/// `scenario`, constructed through the thermal crate's public API.
fn backend(workload: Workload, scenario: &Scenario) -> Result<Box<dyn ThermalBackend>, String> {
    let floorplan = scenario.sut.floorplan();
    let built: Box<dyn ThermalBackend> = match workload.service().backend {
        BackendKind::GridTransient { cells_per_core } => {
            let resolution = GridResolution::new(
                scenario.grid.0 * cells_per_core,
                scenario.grid.1 * cells_per_core,
            )
            .map_err(|e| e.to_string())?;
            Box::new(
                GridThermalSimulator::with_config(
                    floorplan,
                    &PackageConfig::default(),
                    resolution,
                    TransientConfig::default(),
                )
                .map_err(|e| e.to_string())?,
            )
        }
        _ => Box::new(RcThermalSimulator::from_floorplan(floorplan).map_err(|e| e.to_string())?),
    };
    Ok(built)
}

/// The phase-1 characterisation lanes of a scenario: one single-core
/// session per core, as `(power, duration)`.
fn lanes(scenario: &Scenario) -> Result<Vec<(PowerMap, f64)>, String> {
    (0..scenario.sut.core_count())
        .map(|core| {
            let session = TestSession::new([core], &scenario.sut);
            let power = session
                .power_map(&scenario.sut)
                .map_err(|e| e.to_string())?;
            Ok((power, session.duration()))
        })
        .collect()
}

/// The online context of the scenario's first job, or — on workloads
/// without online jobs — a ramp trace from a uniform warm start.
fn online_context(corpus: &Corpus, scenario: usize, seed: u64) -> Result<OnlineContext, String> {
    let job = corpus.jobs().iter().find(|job| job.scenario == scenario);
    if let Some(context) = job
        .map(|job| job.online_context())
        .transpose()
        .map_err(|e| e.to_string())?
        .flatten()
    {
        return Ok(context);
    }
    let cores = corpus.scenarios()[scenario].sut.core_count();
    OnlineContext::new()
        .with_trace(TraceFamily::Ramp.profile(seed))
        .with_warm_start(vec![PROBE_WARM_START; cores])
        .map_err(|e| e.to_string())
}

/// `thermal.*`: backend construction plus its first session (where a lazy
/// factorisation lands), warm single sessions, the same sessions through
/// the batched multi-RHS call, and traced sessions from a warm state.
pub fn thermal(
    workload: Workload,
    corpus: &Corpus,
    seed: u64,
    tracer: &Tracer,
) -> Result<Vec<Figure>, String> {
    let scenarios = &corpus.scenarios()[..PROBE_SCENARIOS.min(corpus.scenarios().len())];
    let lanes: Vec<Vec<(PowerMap, f64)>> = scenarios.iter().map(lanes).collect::<Result<_, _>>()?;
    let sessions = lanes.iter().map(Vec::len).sum::<usize>() as f64;

    let build_s = repeat(tracer, "bench.thermal.build", || {
        for (scenario, lanes) in scenarios.iter().zip(&lanes) {
            let backend = backend(workload, scenario)?;
            let (power, duration) = &lanes[0];
            backend
                .simulate_session(power, *duration)
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    })? / scenarios.len() as f64;

    let backends: Vec<Box<dyn ThermalBackend>> = scenarios
        .iter()
        .map(|scenario| backend(workload, scenario))
        .collect::<Result<_, _>>()?;
    let session_s = repeat(tracer, "bench.thermal.session", || {
        for (backend, lanes) in backends.iter().zip(&lanes) {
            for (power, duration) in lanes {
                backend
                    .simulate_session(power, *duration)
                    .map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    })? / sessions;

    let batch_s = repeat(tracer, "bench.thermal.batch_session", || {
        for (backend, lanes) in backends.iter().zip(&lanes) {
            // The generator gives every core one test time, so a
            // scenario's lanes share one duration.
            let powers: Vec<PowerMap> = lanes.iter().map(|(power, _)| power.clone()).collect();
            backend
                .simulate_sessions(&powers, lanes[0].1)
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    })? / sessions;

    let traces = (0..scenarios.len())
        .map(|scenario| {
            let context = online_context(corpus, scenario, seed)?;
            lanes[scenario]
                .iter()
                .map(|(power, duration)| {
                    let trace = context
                        .session_trace(power, *duration)
                        .map_err(|e| e.to_string())?;
                    Ok((trace, context.warm_start_temperatures()))
                })
                .collect::<Result<Vec<_>, String>>()
        })
        .collect::<Result<Vec<_>, String>>()?;
    let trace_s = repeat(tracer, "bench.thermal.trace_session", || {
        for (backend, traces) in backends.iter().zip(&traces) {
            for (trace, initial) in traces {
                backend
                    .simulate_trace(trace, initial.as_ref())
                    .map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    })? / sessions;

    Ok(vec![
        ("thermal.build_ms", build_s * 1e3),
        ("thermal.session_us", session_s * 1e6),
        ("thermal.batch_session_us", batch_s * 1e6),
        ("thermal.trace_session_us", trace_s * 1e6),
    ])
}

/// `wire.*`: the corpus a sharded run ships to every worker in its HELLO
/// frame, and the per-job results workers send back.
pub fn wire(
    corpus: &Corpus,
    results: &[JobResult],
    tracer: &Tracer,
) -> Result<Vec<Figure>, String> {
    let bytes = corpus.to_binary().map_err(|e| e.to_string())?;
    let encode_s = repeat(tracer, "bench.wire.corpus_encode", || {
        corpus.to_binary().map_err(|e| e.to_string())
    })?;
    let decode_s = repeat(tracer, "bench.wire.corpus_decode", || {
        Corpus::from_binary(&bytes).map_err(|e| e.to_string())
    })?;
    let results_s = repeat(tracer, "bench.wire.results_encode", || {
        results
            .iter()
            .map(|result| result.to_binary().map(|b| b.len()))
            .sum::<Result<usize, _>>()
            .map_err(|e| e.to_string())
    })?;
    Ok(vec![
        ("wire.corpus_kb", bytes.len() as f64 / 1024.0),
        ("wire.corpus_encode_ms", encode_s * 1e3),
        ("wire.corpus_decode_ms", decode_s * 1e3),
        ("wire.results_encode_ms", results_s * 1e3),
    ])
}

/// `proc.*`: a sharded run of a one-job corpus, and sharded over in-process
/// batch time on the workload's corpus (its first [`SHARDED_SCENARIOS`]
/// scenarios at most) at the same thread budget.
pub fn process(
    workload: Workload,
    seed: u64,
    worker: &Path,
    tracer: &Tracer,
) -> Result<Vec<Figure>, String> {
    let spec = workload.specs(seed).swap_remove(0);
    let coordinator = sharded(worker, workload.service())?;
    let mut one_job = spec.clone();
    one_job.scenarios = 1;
    one_job.stc_limits.truncate(1);
    let one_job = one_job.build().map_err(|e| e.to_string())?;
    let roundtrip_s = repeat(tracer, "bench.proc.roundtrip", || {
        coordinator.run(&one_job).map_err(|e| e.to_string())
    })?;

    let mut prefix = spec;
    prefix.scenarios = prefix.scenarios.min(SHARDED_SCENARIOS);
    let prefix = prefix.build().map_err(|e| e.to_string())?;
    let runner = ServiceRunner::new(workload.service()).map_err(|e| e.to_string())?;
    let (mut sharded_s, mut inprocess_s) = (Vec::new(), Vec::new());
    for _ in 0..RATIO_REPS {
        let started = Instant::now();
        {
            let _span = tracer.span("bench.proc.sharded_batch");
            coordinator.run(&prefix).map_err(|e| e.to_string())?;
        }
        sharded_s.push(started.elapsed().as_secs_f64());
        let started = Instant::now();
        {
            let _span = tracer.span("bench.proc.inprocess_batch");
            runner.run(&prefix).map_err(|e| e.to_string())?;
        }
        inprocess_s.push(started.elapsed().as_secs_f64());
    }
    let ratio = median(&sharded_s).expect("reps > 0") / median(&inprocess_s).expect("reps > 0");
    Ok(vec![
        ("proc.roundtrip_ms", roundtrip_s * 1e3),
        ("proc.inprocess_ratio", ratio),
    ])
}
