//! The four workloads: their corpora, their executors, and one timed batch
//! through each executor, timed from outside the program.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use thermsched_obs::{MetricsRegistry, Tracer};
use thermsched_service::{
    BackendKind, Corpus, Frontend, FrontendConfig, JobResult, MultiprocConfig,
    MultiprocCoordinator, ScenarioSpec, ServiceConfig, ServiceRunner, ServiceStats, Submission,
    TraceFamily,
};

/// Thread budget of every workload: worker threads in process, worker
/// processes when sharded, closed-loop clients when streaming.
pub const THREADS: usize = 2;

/// Scenarios of the `rc_batch` corpus (two jobs each).
const RC_BATCH_SCENARIOS: usize = 4096;
/// Scenarios of each `grid_batch` corpus.
const GRID_BATCH_SCENARIOS: usize = 16;
/// Corpora of a `grid_batch` run. Sixteen scenarios are too few to stand
/// for the generator: the mean schedule length moves by about 10 % from
/// seed to seed. A run therefore cycles through several corpora, each a
/// batch of its own, so that a run covers six times as many scenarios at
/// the same batch size.
const GRID_CORPORA: u64 = 6;
/// Scenarios of the `online_stream` corpus.
const ONLINE_SCENARIOS: usize = 512;
/// Scenarios of the `rc_sharded` corpus, and the largest corpus prefix the
/// in-process ratio probe runs.
pub const SHARDED_SCENARIOS: usize = 1024;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The default generator on the RC backend through `ServiceRunner`.
    RcBatch,
    /// The default generator on the banded grid backend through
    /// `ServiceRunner`.
    GridBatch,
    /// Online jobs (power traces, warm starts) through `Frontend`, fed by
    /// closed-loop clients.
    OnlineStream,
    /// A smaller RC corpus through `MultiprocCoordinator`.
    RcSharded,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::RcBatch,
        Workload::GridBatch,
        Workload::OnlineStream,
        Workload::RcSharded,
    ];

    /// Parses a workload from its [`Self::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RcBatch => "rc_batch",
            Workload::GridBatch => "grid_batch",
            Workload::OnlineStream => "online_stream",
            Workload::RcSharded => "rc_sharded",
        }
    }

    /// The specifications of the corpora a run cycles through, one batch
    /// each, all derived from `seed`.
    pub fn specs(self, seed: u64) -> Vec<ScenarioSpec> {
        let spec = |seed, scenarios| ScenarioSpec {
            seed,
            scenarios,
            ..ScenarioSpec::default()
        };
        match self {
            Workload::RcBatch => vec![spec(seed, RC_BATCH_SCENARIOS)],
            Workload::GridBatch => (0..GRID_CORPORA)
                .map(|k| {
                    spec(
                        seed.wrapping_mul(GRID_CORPORA).wrapping_add(k),
                        GRID_BATCH_SCENARIOS,
                    )
                })
                .collect(),
            Workload::OnlineStream => vec![ScenarioSpec {
                trace_families: vec![
                    TraceFamily::Ramp,
                    TraceFamily::Periodic,
                    TraceFamily::IdleGap,
                ],
                warm_start_range: Some((48.0, 62.0)),
                ..spec(seed, ONLINE_SCENARIOS)
            }],
            Workload::RcSharded => vec![spec(seed, SHARDED_SCENARIOS)],
        }
    }

    /// The service configuration every job of the workload runs under.
    pub fn service(self) -> ServiceConfig {
        let base = ServiceConfig {
            workers: THREADS,
            ..ServiceConfig::default()
        };
        match self {
            Workload::GridBatch => ServiceConfig {
                backend: BackendKind::GridTransient { cells_per_core: 4 },
                ..base
            },
            Workload::RcBatch | Workload::OnlineStream | Workload::RcSharded => base,
        }
    }
}

/// The executor a workload drives its corpus through.
pub enum Executor {
    /// In-process batches.
    Runner(ServiceRunner),
    /// A fresh `Frontend` per batch: its per-scenario stores outlive
    /// submissions, so a job is never submitted twice to one front-end.
    Stream(FrontendConfig),
    /// Worker processes.
    Sharded(MultiprocCoordinator),
}

impl Executor {
    /// Constructs the workload's executor; `worker` is the `thermsched`
    /// binary the sharded workload spawns.
    pub fn new(workload: Workload, worker: &Path) -> Result<Executor, String> {
        let service = workload.service();
        Ok(match workload {
            Workload::RcBatch | Workload::GridBatch => {
                Executor::Runner(ServiceRunner::new(service).map_err(|e| e.to_string())?)
            }
            Workload::OnlineStream => Executor::Stream(FrontendConfig {
                service,
                ..FrontendConfig::default()
            }),
            Workload::RcSharded => Executor::Sharded(sharded(worker, service)?),
        })
    }

    /// Everything that must exist before a batch's clock starts: for the
    /// stream, a started front-end (backends built, stores prewarmed).
    pub fn prepare(&self, corpus: &Corpus, tracer: &Tracer) -> Result<Prepared, String> {
        Ok(match self {
            Executor::Stream(config) => Prepared::Stream(
                Frontend::start_traced(*config, corpus.clone(), tracer, &MetricsRegistry::new())
                    .map_err(|e| e.to_string())?,
            ),
            Executor::Runner(_) | Executor::Sharded(_) => Prepared::Batch,
        })
    }

    /// Runs one batch of `corpus` and times it from outside: the whole
    /// `run` call for the batch executors, first submit to last result for
    /// the stream. `tracer` records the program's spans when enabled.
    pub fn run(
        &self,
        prepared: Prepared,
        corpus: &Corpus,
        tracer: &Tracer,
    ) -> Result<Batch, String> {
        let registry = MetricsRegistry::new();
        let (wall_s, report) = match (self, prepared) {
            (Executor::Runner(runner), _) if tracer.is_enabled() => {
                timed(|| runner.run_traced(corpus, tracer, &registry))?
            }
            (Executor::Runner(runner), _) => timed(|| runner.run(corpus))?,
            (Executor::Sharded(coordinator), _) if tracer.is_enabled() => {
                timed(|| coordinator.run_traced(corpus, tracer, &registry))?
            }
            (Executor::Sharded(coordinator), _) => timed(|| coordinator.run(corpus))?,
            (Executor::Stream(_), Prepared::Stream(frontend)) => return stream(frontend, corpus),
            (Executor::Stream(_), Prepared::Batch) => {
                return Err("a stream batch needs a started front-end".to_owned())
            }
        };
        let (jobs, stats) = (report.jobs().to_vec(), report.stats().clone());
        // Every result of a batch arrives when `run` returns.
        Ok(Batch {
            wall_s,
            job_ids: (0..jobs.len() as u64).collect(),
            latency_s: vec![wall_s; jobs.len()],
            jobs,
            stats,
        })
    }
}

/// Wall seconds of one call, with its result.
fn timed<T>(run: impl FnOnce() -> thermsched_service::Result<T>) -> Result<(f64, T), String> {
    let started = Instant::now();
    let value = run().map_err(|e| e.to_string())?;
    Ok((started.elapsed().as_secs_f64(), value))
}

/// A sharding coordinator over [`THREADS`] processes of `worker`, one
/// worker thread each: the processes are the parallelism, and
/// `ServiceConfig::default()` would give every process
/// `available_parallelism` threads.
pub fn sharded(worker: &Path, service: ServiceConfig) -> Result<MultiprocCoordinator, String> {
    MultiprocCoordinator::new(MultiprocConfig {
        processes: THREADS,
        program: PathBuf::from(worker),
        args: vec!["worker".to_owned()],
        service: ServiceConfig {
            workers: 1,
            ..service
        },
    })
    .map_err(|e| e.to_string())
}

/// What [`Executor::prepare`] built.
pub enum Prepared {
    /// Nothing: the batch executors build everything inside `run`.
    Batch,
    /// A started front-end, used for exactly one batch.
    Stream(Frontend),
}

impl Prepared {
    /// Releases what was prepared without running it.
    pub fn discard(self) {
        if let Prepared::Stream(frontend) = self {
            frontend.drain(Duration::from_secs(60));
        }
    }
}

/// One timed batch.
pub struct Batch {
    /// Wall seconds, timed by the benchmark.
    pub wall_s: f64,
    /// The result of every corpus job, in corpus order.
    pub jobs: Vec<JobResult>,
    /// The id each corpus job's spans carry (the executor's job index).
    pub job_ids: Vec<u64>,
    /// Client-side seconds from submission to result, per corpus job.
    pub latency_s: Vec<f64>,
    /// The executor's statistics; only its counts are read, never its
    /// clocks.
    pub stats: ServiceStats,
}

/// Streams every corpus job once through `frontend` from [`THREADS`]
/// closed-loop clients, each submitting one job and waiting for its result
/// before the next.
fn stream(frontend: Frontend, corpus: &Corpus) -> Result<Batch, String> {
    let jobs = corpus.jobs();
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<(JobResult, Instant, Instant)>>> =
        Mutex::new(vec![None; jobs.len()]);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(index) else { break };
                let submitted = Instant::now();
                let result = frontend.submit(Submission::from_job(job)).wait();
                let resolved = Instant::now();
                slots.lock().expect("a client panicked")[index] =
                    Some((result, submitted, resolved));
            });
        }
    });
    let report = frontend.drain(Duration::from_secs(60));
    let slots: Vec<(JobResult, Instant, Instant)> = slots
        .into_inner()
        .expect("a client panicked")
        .into_iter()
        .map(|slot| slot.expect("every job was streamed"))
        .collect();
    let first = slots.iter().map(|s| s.1).min();
    let last = slots.iter().map(|s| s.2).max();
    let wall_s = match (first, last) {
        (Some(first), Some(last)) => (last - first).as_secs_f64(),
        _ => return Err("empty corpus".to_owned()),
    };
    Ok(Batch {
        wall_s,
        job_ids: slots.iter().map(|s| s.0.index as u64).collect(),
        latency_s: slots.iter().map(|s| (s.2 - s.1).as_secs_f64()).collect(),
        jobs: slots.into_iter().map(|s| s.0).collect(),
        stats: report.stats,
    })
}
