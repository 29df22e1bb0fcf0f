//! The execution core behind every executor.
//!
//! [`crate::ServiceRunner`], [`crate::Frontend`] and the multi-process
//! worker ([`crate::worker_serve`]) differ only in how they *dispatch*
//! jobs: an atomic index over the corpus, a priority queue with admission
//! and drain, or frames read from a pipe. Everything else is the
//! [`Executor`] in this module:
//!
//! * **setup** ([`Executor::build`], [`Executor::add`]): per scenario, a
//!   slot holding its definition, its backend (collapsed through the
//!   operator cache) and its session store, built under a `backend.build`
//!   span and prewarmed under a `prewarm` span. The in-process executors
//!   add every scenario up front; a worker process adds each scenario when
//!   its definition first arrives;
//! * **one job** ([`Worker::run`]): fault injection, retries and deadline
//!   checkpoints around one scheduling run, then the clock-dependent
//!   latency and the outcome, fault, retry and cache counters, tallied
//!   into one [`Tally`];
//! * **aggregation** ([`Executor::finish`]): the store counters summed
//!   over scenarios, one [`ServiceStats`] and, through
//!   [`ServiceStats::metrics`], its metrics snapshot.
//!
//! The multi-process coordinator merges its workers' RESULT and FIN
//! frames into the same [`Tally`], so a sharded report is aggregated by
//! the code that aggregates an in-process one.

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::ops::ControlFlow;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use thermsched::{
    Engine, InterruptReason, NestedParallelismGuard, OperatorCacheHandle, OperatorCacheStats,
    ScheduleCheckpoint, ScheduleError, ScheduleOutcome, ScheduleProgress, SessionCacheHandle,
    StoreStats, TestSession,
};
use thermsched_obs::{MetricsRegistry, MetricsSnapshot, Tracer};
use thermsched_thermal::{PowerMap, SessionThermalResult, ThermalBackend};

use crate::report::LatencyStats;
use crate::{
    ClockKind, FaultKind, JobOutcome, JobResult, JobSpec, Result, Scenario, ServiceConfig,
    ServiceError, ServiceStats,
};

/// Latency histogram bucket bounds (seconds) — fixed so snapshots from
/// different executors and processes always merge bucket-for-bucket.
const LATENCY_BUCKETS: &[f64] = &[1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0];

/// One scenario's share of an executor: its definition, the thermal
/// backend its jobs validate against and the session store they share.
pub(crate) struct Slot<'c> {
    pub(crate) scenario: Cow<'c, Scenario>,
    backend: Arc<dyn ThermalBackend>,
    cache: SessionCacheHandle,
}

/// Slots, stores and counters of one run, shared by every dispatch
/// thread of it. See the [module docs](self).
pub(crate) struct Executor<'c> {
    config: ServiceConfig,
    /// Keyed by global scenario index: dense from 0 in process, the
    /// scenarios dealt to it in a worker process.
    slots: BTreeMap<usize, Slot<'c>>,
    operator_cache: OperatorCacheHandle,
    prewarmed_sessions: usize,
    /// Run-level tracer ([`Tracer::disabled`] when the caller is not
    /// tracing); every job derives its job-scoped handle from it.
    tracer: Tracer,
    tally: Mutex<Tally>,
}

impl<'c> Executor<'c> {
    /// An executor with no scenarios yet; see [`Self::add`].
    pub(crate) fn new(config: ServiceConfig, tracer: &Tracer) -> Self {
        Executor {
            config,
            slots: BTreeMap::new(),
            operator_cache: OperatorCacheHandle::new(),
            prewarmed_sessions: 0,
            tracer: tracer.clone(),
            tally: Mutex::default(),
        }
    }

    /// An executor over `scenarios`, indexed from 0, with every slot
    /// built and prewarmed before any job runs.
    ///
    /// # Errors
    ///
    /// As [`Self::add`].
    pub(crate) fn build(
        config: ServiceConfig,
        scenarios: impl IntoIterator<Item = Cow<'c, Scenario>>,
        tracer: &Tracer,
    ) -> Result<Self> {
        let mut executor = Executor::new(config, tracer);
        executor.add(scenarios.into_iter().enumerate())?;
        Ok(executor)
    }

    /// Adds scenarios under their global indices: builds each one's
    /// backend and session store, then prewarms the added stores.
    ///
    /// Backends are built once per scenario and borrowed by every worker:
    /// construction cost (a factorisation each) is not worth paying per
    /// worker. With the operator cache on, same-shape scenarios collapse
    /// onto one shared instance; the build loop is sequential, so the
    /// hit/miss counters are a deterministic function of the scenarios
    /// added and their order. Each index is added once.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Schedule`] if a scenario's backend cannot be built.
    pub(crate) fn add(
        &mut self,
        scenarios: impl IntoIterator<Item = (usize, Cow<'c, Scenario>)>,
    ) -> Result<()> {
        let config = self.config;
        let scenarios: Vec<_> = scenarios.into_iter().collect();
        let mut added = Vec::with_capacity(scenarios.len());
        {
            let mut span = self.tracer.span("backend.build");
            span.attr("scenarios", scenarios.len());
            span.attr("backend", config.backend.label());
            for (index, scenario) in scenarios {
                let backend = if config.operator_cache {
                    self.operator_cache
                        .get_or_try_build(config.backend.key(&scenario), || {
                            config.backend.build(&scenario)
                        })?
                } else {
                    config.backend.build(&scenario)?
                };
                let cache = SessionCacheHandle::sharded(config.store_shards);
                self.slots.insert(
                    index,
                    Slot {
                        scenario,
                        backend,
                        cache,
                    },
                );
                added.push(index);
            }
        }
        // Same-shape batching: advance all queued phase-1 characterisation
        // sessions of one operator key as a single multi-RHS pass and
        // publish them to the scenarios' stores before any job runs.
        // Bit-identical to the per-job path, so only throughput changes.
        if config.batch_same_shape {
            let mut span = self.tracer.span("prewarm");
            let prewarmed = prewarm_same_shape(&config, &self.slots, &added);
            span.attr("sessions", prewarmed);
            self.prewarmed_sessions += prewarmed;
        }
        Ok(())
    }

    /// The slot of the scenario with global index `scenario`.
    pub(crate) fn slot(&self, scenario: usize) -> Option<&Slot<'c>> {
        self.slots.get(&scenario)
    }

    /// How many scenarios the executor holds.
    pub(crate) fn scenario_count(&self) -> usize {
        self.slots.len()
    }

    /// A job runner for the calling thread. It keeps one [`Engine`] per
    /// scenario it touches (the engine prebuilds the guidance model, and
    /// rebuilding it per job would dominate small runs), and it runs the
    /// scheduler's inner phase-1 fan-outs sequentially: the dispatch
    /// threads (or processes) are the parallelism, and W workers × P
    /// phase-1 threads would oversubscribe the machine.
    pub(crate) fn worker(&self) -> Worker<'_, 'c> {
        Worker {
            executor: self,
            engines: HashMap::new(),
            _sequential: NestedParallelismGuard::enter(),
        }
    }

    /// Counts the outcome of a job that never ran (shed or rejected).
    pub(crate) fn tally_unrun(&self, outcome: &JobOutcome) {
        self.lock_tally().record(outcome, None);
    }

    /// The statistics of everything tallied so far, reported for `workers`
    /// over `wall_seconds`, and their metrics snapshot: what the in-process
    /// executors absorb into their registry and what a worker process
    /// ships in its FIN frame.
    pub(crate) fn finish(
        &self,
        workers: usize,
        wall_seconds: f64,
    ) -> (ServiceStats, MetricsSnapshot) {
        let mut tally = self.lock_tally().clone();
        for slot in self.slots.values() {
            tally.setup.merge(&SetupStats {
                store: slot.cache.stats(),
                ..SetupStats::default()
            });
        }
        tally.setup.merge(&SetupStats {
            operator_cache: self.operator_cache.stats(),
            prewarmed_sessions: self.prewarmed_sessions,
            ..SetupStats::default()
        });
        let stats = tally.stats(&self.config, workers, self.slots.len(), wall_seconds);
        let metrics = tally.metrics(&stats);
        (stats, metrics)
    }

    fn lock_tally(&self) -> MutexGuard<'_, Tally> {
        self.tally.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One job handed to the core by a dispatch front.
pub(crate) struct Dispatch<'j> {
    /// Global job index: the result's index and the fault plan's hash
    /// space (corpus order for batches, submission order for the
    /// front-end), never a worker-local receive order.
    pub(crate) index: usize,
    pub(crate) job: &'j JobSpec,
    /// Per-job effort budget overriding [`ServiceConfig::deadline_effort`].
    pub(crate) deadline_effort: Option<f64>,
    /// Drain cancellation flag: when set, the next scheduling checkpoint
    /// interrupts the run ([`InterruptReason::Cancelled`]).
    pub(crate) cancel: Option<&'j AtomicBool>,
    /// When the job started waiting for dispatch; the observed
    /// `queue_seconds` span attribute is measured from here.
    pub(crate) queued_at: Instant,
    /// Whether wall-clock latency counts from `queued_at` (the front-end's
    /// submission-to-resolution latency) instead of from dispatch (the
    /// batch executors' execution latency).
    pub(crate) latency_includes_queue: bool,
}

impl<'j> Dispatch<'j> {
    /// A batch job: configured deadline, no cancellation, execution
    /// latency.
    pub(crate) fn batch(index: usize, job: &'j JobSpec, queued_at: Instant) -> Self {
        Dispatch {
            index,
            job,
            deadline_effort: None,
            cancel: None,
            queued_at,
            latency_includes_queue: false,
        }
    }
}

/// The timing- and order-dependent accounting of one executed job: what
/// enters [`ServiceStats`] but never the deterministic [`JobResult`], and
/// what a worker's RESULT frame carries next to the result.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct JobAccounting {
    /// Simulations avoided because another job had already published the
    /// result to the scenario's store.
    pub(crate) warm_cache_hits: usize,
    pub(crate) cached_validations: usize,
    pub(crate) injected_faults: usize,
    /// Attempts beyond the first.
    pub(crate) retried_attempts: usize,
    /// Wall seconds, or virtual seconds under [`ClockKind::Virtual`].
    pub(crate) latency_seconds: f64,
}

/// The counters of a run's setup side: one set per in-process executor,
/// one per worker FIN frame.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SetupStats {
    pub(crate) store: StoreStats,
    pub(crate) operator_cache: OperatorCacheStats,
    pub(crate) prewarmed_sessions: usize,
}

impl SetupStats {
    /// Adds `other` — the one place store and operator-cache counters are
    /// summed, over scenarios in process and over workers across processes.
    pub(crate) fn merge(&mut self, other: &SetupStats) {
        self.store.lookups += other.store.lookups;
        self.store.hits += other.store.hits;
        self.store.insertions += other.store.insertions;
        self.store.contended_locks += other.store.contended_locks;
        self.operator_cache.hits += other.operator_cache.hits;
        self.operator_cache.misses += other.operator_cache.misses;
        self.prewarmed_sessions += other.prewarmed_sessions;
    }
}

/// Everything a run counts. In process, every dispatch thread records into
/// its executor's tally; across processes, the coordinator records each
/// worker's RESULT and FIN frames into one.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tally {
    completed: usize,
    failed: usize,
    panicked: usize,
    deadline_exceeded: usize,
    shed: usize,
    rejected: usize,
    warm_cache_hits: usize,
    cached_validations: usize,
    injected_faults: usize,
    retried_attempts: usize,
    latencies: Vec<f64>,
    pub(crate) setup: SetupStats,
    pub(crate) worker_crashes: usize,
}

impl Tally {
    /// Counts one resolved job; `accounting` is `None` for jobs that never
    /// ran (shed or rejected), which have no latency.
    pub(crate) fn record(&mut self, outcome: &JobOutcome, accounting: Option<&JobAccounting>) {
        *match outcome {
            JobOutcome::Completed(_) => &mut self.completed,
            JobOutcome::Failed { .. } => &mut self.failed,
            JobOutcome::Panicked { .. } => &mut self.panicked,
            JobOutcome::DeadlineExceeded { .. } => &mut self.deadline_exceeded,
            JobOutcome::Shed(_) => &mut self.shed,
            JobOutcome::Rejected(_) => &mut self.rejected,
        } += 1;
        if let Some(job) = accounting {
            self.warm_cache_hits += job.warm_cache_hits;
            self.cached_validations += job.cached_validations;
            self.injected_faults += job.injected_faults;
            self.retried_attempts += job.retried_attempts;
            self.latencies.push(job.latency_seconds);
        }
    }

    /// The run statistics: `workers` dispatch threads (or processes) over
    /// `scenario_count` scenarios for `wall_seconds`. The one place a
    /// [`ServiceStats`] is assembled.
    pub(crate) fn stats(
        &self,
        config: &ServiceConfig,
        workers: usize,
        scenario_count: usize,
        wall_seconds: f64,
    ) -> ServiceStats {
        let executed = self.completed + self.failed + self.panicked + self.deadline_exceeded;
        ServiceStats {
            workers,
            shard_count: config.store_shards,
            backend_name: config.backend.label(),
            operator_cache_enabled: config.operator_cache,
            operator_cache: self.setup.operator_cache,
            scenario_count,
            job_count: executed + self.shed + self.rejected,
            completed: self.completed,
            failed: self.failed,
            panicked: self.panicked,
            deadline_exceeded: self.deadline_exceeded,
            shed: self.shed,
            rejected: self.rejected,
            retried_attempts: self.retried_attempts,
            injected_faults: self.injected_faults,
            worker_crashes: self.worker_crashes,
            latency: LatencyStats::from_samples(&self.latencies),
            wall_seconds,
            jobs_per_second: executed as f64 / wall_seconds.max(1e-9),
            cached_validations: self.cached_validations,
            warm_cache_hits: self.warm_cache_hits,
            prewarmed_sessions: self.setup.prewarmed_sessions,
            store: self.setup.store,
        }
    }

    /// `stats` as a metrics snapshot: the counters and gauges of
    /// [`ServiceStats::metrics`] plus the `job.latency_seconds` histogram
    /// over this tally's latencies.
    fn metrics(&self, stats: &ServiceStats) -> MetricsSnapshot {
        let registry = MetricsRegistry::new();
        let histogram = registry.histogram("job.latency_seconds", LATENCY_BUCKETS);
        for &latency in &self.latencies {
            histogram.observe(latency);
        }
        MetricsSnapshot {
            histograms: registry.snapshot().histograms,
            ..stats.metrics()
        }
    }
}

/// One dispatch thread's handle on an [`Executor`]; see
/// [`Executor::worker`].
pub(crate) struct Worker<'e, 'c> {
    executor: &'e Executor<'c>,
    engines: HashMap<usize, Engine<'e>>,
    _sequential: NestedParallelismGuard,
}

impl<'e, 'c> Worker<'e, 'c> {
    /// Runs one job to its result and tallies it into the executor.
    pub(crate) fn run(&mut self, dispatch: Dispatch<'_>) -> (JobResult, JobAccounting) {
        let executor = self.executor;
        let clock = executor.config.clock;
        let dispatched = Instant::now();
        // Queue wait depends on the interleaving, so it only ever enters an
        // observed span attribute.
        let queue_seconds = match clock {
            ClockKind::Wall => dispatched.duration_since(dispatch.queued_at).as_secs_f64(),
            ClockKind::Virtual => 0.0,
        };
        let slot = executor
            .slot(dispatch.job.scenario)
            .expect("dispatch fronts only run jobs of scenarios the executor holds");
        let (outcome, mut accounting) = self.execute(&dispatch, slot, queue_seconds);
        if clock == ClockKind::Wall {
            let latency_from = if dispatch.latency_includes_queue {
                dispatch.queued_at
            } else {
                dispatched
            };
            accounting.latency_seconds = latency_from.elapsed().as_secs_f64();
        }
        let result = JobResult::new(dispatch.index, dispatch.job, &slot.scenario.name, outcome);
        executor
            .lock_tally()
            .record(&result.outcome, Some(&accounting));
        (result, accounting)
    }

    /// Executes one job with fault injection, deadline checkpoints and
    /// retries.
    ///
    /// Per attempt, the fault plan is consulted first: an injected panic
    /// goes through the real `catch_unwind` path, an injected error becomes
    /// a retryable [`JobOutcome::Failed`], and an injected delay advances
    /// the clock before the attempt runs. Store poisoning happens once,
    /// before the first attempt. Retries are granted only to outcomes that
    /// are retryable under [`ServiceError::is_retryable`] — injected faults
    /// — because real scheduler errors, panics and deadline interrupts are
    /// deterministic functions of the corpus and would only reproduce. The
    /// attempt count is stamped into the final outcome. The accounting's
    /// latency is the virtual time accrued by injected delays and retry
    /// backoffs (0.0 under the wall clock, which sleeps instead).
    fn execute(
        &mut self,
        dispatch: &Dispatch<'_>,
        slot: &'e Slot<'c>,
        queue_seconds: f64,
    ) -> (JobOutcome, JobAccounting) {
        let executor = self.executor;
        let config = &executor.config;
        let job_index = dispatch.index as u64;
        let scenario = &slot.scenario;
        let deadline_effort = dispatch.deadline_effort.or(config.deadline_effort);
        // Every per-job span lives under this job-scoped handle, created
        // here and nowhere above: every executor funnels through this
        // function, which is what makes the structural span slice identical
        // across all of them.
        let tracer = executor.tracer.for_job(job_index);
        let mut job_span = tracer.span("job");
        job_span.attr("index", job_index);
        job_span.attr("scenario", scenario.name.as_str());
        job_span.attr("label", dispatch.job.label.as_str());
        job_span.attr_observed("queue_seconds", queue_seconds);
        let mut injected_faults = 0;
        let mut virtual_seconds = 0.0;
        if let Some(shard) = config.faults.poison_target(job_index) {
            injected_faults += 1;
            slot.cache.poison_shard(shard);
        }
        let mut attempt = 0u32;
        let (outcome, accounting) = loop {
            attempt += 1;
            let fault = config.faults.fault_for(job_index, attempt);
            let mut attempt_span = tracer.span("attempt");
            attempt_span.attr("number", attempt);
            if let Some(kind) = fault {
                // Faults are seeded by (plan seed, job, attempt), so which
                // fault fires on which attempt is structural.
                attempt_span.attr("fault", kind.to_string());
            }
            let (outcome, accounting) = match fault {
                Some(FaultKind::Panic) => {
                    injected_faults += 1;
                    let message = ServiceError::Injected {
                        kind: FaultKind::Panic,
                        job: job_index,
                        attempt,
                    }
                    .to_string();
                    isolate(move || -> thermsched::Result<ScheduleOutcome> { panic!("{message}") })
                }
                Some(FaultKind::Error) => {
                    injected_faults += 1;
                    let error = ServiceError::Injected {
                        kind: FaultKind::Error,
                        job: job_index,
                        attempt,
                    };
                    (
                        JobOutcome::Failed {
                            error: error.to_string(),
                            retryable: error.is_retryable(),
                            attempts: attempt,
                        },
                        JobAccounting::default(),
                    )
                }
                Some(FaultKind::Delay) => {
                    injected_faults += 1;
                    advance_clock(
                        config.clock,
                        config.faults.delay_seconds,
                        &mut virtual_seconds,
                    );
                    self.attempt(dispatch, slot, deadline_effort, &tracer)
                }
                Some(FaultKind::PoisonStore) | None => {
                    self.attempt(dispatch, slot, deadline_effort, &tracer)
                }
            };
            // Injected panics are the one retryable panic shape: we know
            // this attempt's panic was ours. Real panics stay terminal.
            let retryable = match &outcome {
                JobOutcome::Failed { retryable, .. } => *retryable,
                JobOutcome::Panicked { .. } => matches!(fault, Some(FaultKind::Panic)),
                _ => false,
            };
            drop(attempt_span);
            if retryable && attempt < config.retry.max_attempts {
                advance_clock(
                    config.clock,
                    config.retry.backoff_seconds(job_index, attempt + 1),
                    &mut virtual_seconds,
                );
                continue;
            }
            break (outcome, accounting);
        };
        job_span.attr("attempts", attempt);
        job_span.attr("outcome", outcome_kind(&outcome));
        (
            stamp_attempts(outcome, attempt),
            JobAccounting {
                injected_faults,
                retried_attempts: attempt as usize - 1,
                latency_seconds: virtual_seconds,
                ..accounting
            },
        )
    }

    /// Runs one attempt: reuses (or builds) this worker's engine for the
    /// job's scenario and schedules under panic isolation, with a
    /// checkpoint installed when the job has a deadline or a cancellation
    /// flag.
    fn attempt(
        &mut self,
        dispatch: &Dispatch<'_>,
        slot: &'e Slot<'c>,
        deadline_effort: Option<f64>,
        tracer: &Tracer,
    ) -> (JobOutcome, JobAccounting) {
        let job = dispatch.job;
        let engine = match self.engines.entry(job.scenario) {
            Entry::Occupied(entry) => entry.into_mut(),
            Entry::Vacant(entry) => {
                let built = Engine::builder()
                    .sut(&slot.scenario.sut)
                    .dyn_backend(slot.backend.as_ref())
                    .cache(slot.cache.clone())
                    .build();
                match built {
                    Ok(engine) => entry.insert(engine),
                    Err(error) => return (failed(error.to_string()), JobAccounting::default()),
                }
            }
        };
        // Engines are reused across jobs; point this one at the current
        // job's scope so its schedule/phase spans land under the open
        // attempt span.
        engine.set_tracer(tracer.clone());
        // Online state (trace / warm start) is part of the job's identity,
        // so a malformed context is a deterministic, non-retryable failure.
        let online = match job.online_context() {
            Ok(online) => online,
            Err(error) => return (failed(error.to_string()), JobAccounting::default()),
        };
        if deadline_effort.is_some() || dispatch.cancel.is_some() {
            let checkpoint = JobCheckpoint {
                budget: deadline_effort,
                cancel: dispatch.cancel,
            };
            match &online {
                Some(online) => isolate(|| {
                    engine.schedule_online_with_checkpoint(job.config, online, &checkpoint)
                }),
                None => isolate(|| engine.schedule_with_checkpoint(job.config, &checkpoint)),
            }
        } else {
            match &online {
                Some(online) => isolate(|| engine.schedule_online_with(job.config, online)),
                None => isolate(|| engine.schedule_with(job.config)),
            }
        }
    }
}

/// A non-retryable single-attempt failure.
fn failed(error: String) -> JobOutcome {
    JobOutcome::Failed {
        error,
        retryable: false,
        attempts: 1,
    }
}

/// Groups the phase-1 characterisation lanes of the `added` slots — one
/// (scenario, core) single-core session each — by operator key and
/// session duration, advances each group through the shared backend's
/// multi-RHS batch, and publishes the results to the scenarios' session
/// stores. Returns the number of prewarmed lanes.
///
/// The grouping and iteration order are deterministic (sorted by key,
/// then `added` order within a group), the per-lane results are
/// bit-identical to what the scheduler's own phase 1 would compute, and
/// a group that fails to simulate is simply skipped — its jobs compute
/// phase 1 themselves and surface the error through the normal per-job
/// path.
///
/// Prewarmed lanes are constant-power, from-ambient characterisations
/// published under the plain cache keys. Online jobs (traces / warm
/// starts) look up sentinel keys ([`thermsched::SessionCache::online_key`])
/// instead, so they recompute their own phase 1 and never alias these
/// entries.
fn prewarm_same_shape(
    config: &ServiceConfig,
    slots: &BTreeMap<usize, Slot<'_>>,
    added: &[usize],
) -> usize {
    if !config.backend.batches_sessions() {
        return 0;
    }
    // Lanes grouped by (operator key, duration bits): scenarios sharing
    // a key share one bit-identical backend, and only equal-duration
    // sessions can share a multi-RHS advance (the step count is a
    // function of the duration).
    type PrewarmGroups = BTreeMap<(String, u64), Vec<(usize, usize, f64)>>;
    let mut groups = PrewarmGroups::new();
    for &index in added {
        let scenario = &slots[&index].scenario;
        let key = config.backend.key(scenario).to_string();
        for core in 0..scenario.sut.core_count() {
            let session = TestSession::new([core], &scenario.sut);
            let duration = session.duration();
            groups
                .entry((key.clone(), duration.to_bits()))
                .or_default()
                .push((index, core, duration));
        }
    }
    let mut prewarmed = 0;
    for lanes in groups.into_values() {
        let duration = lanes[0].2;
        let powers: std::result::Result<Vec<PowerMap>, _> = lanes
            .iter()
            .map(|&(scenario, core, _)| {
                let sut = &slots[&scenario].scenario.sut;
                TestSession::new([core], sut).power_map(sut)
            })
            .collect();
        let Ok(powers) = powers else { continue };
        // All scenarios of a key group share one bit-identical backend
        // (the operator cache collapses them when enabled; private
        // builds are deterministic replicas when not), so the group's
        // first backend serves every lane.
        let backend = slots[&lanes[0].0].backend.as_ref();
        let Ok(results) = backend.simulate_sessions(&powers, duration) else {
            continue;
        };
        let mut per_scenario: BTreeMap<usize, Vec<(Vec<usize>, SessionThermalResult)>> =
            BTreeMap::new();
        for (&(scenario, core, _), result) in lanes.iter().zip(results) {
            per_scenario
                .entry(scenario)
                .or_default()
                .push((vec![core], result));
        }
        prewarmed += lanes.len();
        for (scenario, batch) in per_scenario {
            slots[&scenario].cache.store_batch(batch);
        }
    }
    prewarmed
}

/// Checkpoint installed into the scheduler for jobs with a deadline or a
/// drain-cancellation flag. The budget is compared against *simulated*
/// effort, so deadline interrupts are deterministic; cancellation is the one
/// deliberately non-deterministic interrupt (it answers to a drain deadline,
/// and is reported as such).
struct JobCheckpoint<'c> {
    budget: Option<f64>,
    cancel: Option<&'c AtomicBool>,
}

impl ScheduleCheckpoint for JobCheckpoint<'_> {
    fn check(&self, progress: &ScheduleProgress) -> ControlFlow<InterruptReason> {
        if let Some(cancel) = self.cancel {
            if cancel.load(Ordering::Relaxed) {
                return ControlFlow::Break(InterruptReason::Cancelled);
            }
        }
        if let Some(budget) = self.budget {
            if progress.spent_effort() > budget {
                return ControlFlow::Break(InterruptReason::DeadlineExceeded { budget });
            }
        }
        ControlFlow::Continue(())
    }
}

/// Stable label of an outcome variant for span attributes (shed/rejected
/// outcomes never reach an attempt — they never ran).
fn outcome_kind(outcome: &JobOutcome) -> &'static str {
    match outcome {
        JobOutcome::Completed(_) => "completed",
        JobOutcome::Failed { .. } => "failed",
        JobOutcome::Panicked { .. } => "panicked",
        JobOutcome::DeadlineExceeded { .. } => "deadline_exceeded",
        JobOutcome::Shed(_) => "shed",
        JobOutcome::Rejected(_) => "rejected",
    }
}

/// Advances the configured clock by `seconds`: sleeps under the wall clock,
/// accrues deterministic virtual time otherwise.
fn advance_clock(clock: ClockKind, seconds: f64, virtual_seconds: &mut f64) {
    match clock {
        ClockKind::Wall => {
            if seconds > 0.0 {
                std::thread::sleep(std::time::Duration::from_secs_f64(seconds));
            }
        }
        ClockKind::Virtual => *virtual_seconds += seconds,
    }
}

/// Stamps the attempt count into a final outcome (shed/rejected outcomes
/// never pass through here — they never ran).
fn stamp_attempts(outcome: JobOutcome, attempts: u32) -> JobOutcome {
    match outcome {
        JobOutcome::Completed(mut metrics) => {
            metrics.attempts = attempts;
            JobOutcome::Completed(metrics)
        }
        JobOutcome::Failed {
            error, retryable, ..
        } => JobOutcome::Failed {
            error,
            retryable,
            attempts,
        },
        JobOutcome::Panicked { message, .. } => JobOutcome::Panicked { message, attempts },
        JobOutcome::DeadlineExceeded {
            spent_effort,
            budget,
            ..
        } => JobOutcome::DeadlineExceeded {
            spent_effort,
            budget,
            attempts,
        },
        other => other,
    }
}

/// Runs a scheduling closure with panic isolation, mapping the ways it can
/// end onto [`JobOutcome`] and splitting off the order-dependent cache
/// accounting (a job served from a store warmed by whichever job ran first
/// reports hits the first one does not, so these counts never enter the
/// deterministic per-job results). Checkpoint interrupts become
/// [`JobOutcome::DeadlineExceeded`]; a drain cancellation is reported as a
/// zero budget.
fn isolate(
    run: impl FnOnce() -> thermsched::Result<ScheduleOutcome>,
) -> (JobOutcome, JobAccounting) {
    match std::panic::catch_unwind(AssertUnwindSafe(run)) {
        Ok(Ok(outcome)) => (
            JobOutcome::Completed((&outcome).into()),
            JobAccounting {
                warm_cache_hits: outcome.warm_cache_hits,
                cached_validations: outcome.cached_validations,
                ..JobAccounting::default()
            },
        ),
        Ok(Err(ScheduleError::Interrupted {
            reason,
            spent_effort,
        })) => {
            let budget = match reason {
                InterruptReason::DeadlineExceeded { budget } => budget,
                InterruptReason::Cancelled => 0.0,
            };
            (
                JobOutcome::DeadlineExceeded {
                    spent_effort,
                    budget,
                    attempts: 1,
                },
                JobAccounting::default(),
            )
        }
        Ok(Err(error)) => (failed(error.to_string()), JobAccounting::default()),
        Err(payload) => (
            JobOutcome::Panicked {
                message: panic_message(payload.as_ref()),
                attempts: 1,
            },
            JobAccounting::default(),
        ),
    }
}

/// Renders a caught panic payload.
///
/// `panic!("...")` payloads carry `&str` or `String` and are rendered
/// verbatim. `std::panic::panic_any` payloads are probed further: boxed
/// error objects (`Box<dyn Error + Send (+ Sync)>`) render through their
/// `Display`, and a table of well-known primitive payload types renders the
/// value with its type name. Anything else keeps the historical
/// `"non-string panic payload"` text, now with the payload's `TypeId`
/// appended so distinct opaque payloads stay distinguishable in reports.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        return (*s).to_owned();
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return s.clone();
    }
    if let Some(e) = payload.downcast_ref::<Box<dyn std::error::Error + Send + Sync>>() {
        return format!("error payload: {e}");
    }
    if let Some(e) = payload.downcast_ref::<Box<dyn std::error::Error + Send>>() {
        return format!("error payload: {e}");
    }
    macro_rules! probe {
        ($($ty:ty),* $(,)?) => {
            $(
                if let Some(value) = payload.downcast_ref::<$ty>() {
                    return format!(
                        "non-string panic payload: {} = {value:?}",
                        stringify!($ty)
                    );
                }
            )*
        };
    }
    probe!(i8, i16, i32, i64, i128, isize, u8, u16, u32, u64, u128, usize, f32, f64, bool, char);
    format!("non-string panic payload (type id {:?})", payload.type_id())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolate_catches_panics_and_maps_errors() {
        let (outcome, accounting) = isolate(|| panic!("boom"));
        assert_eq!(
            outcome,
            JobOutcome::Panicked {
                message: "boom".to_owned(),
                attempts: 1,
            }
        );
        assert_eq!(accounting.warm_cache_hits, 0);

        let label = "label".to_owned();
        let (outcome, _) = isolate(move || panic!("formatted {label}"));
        assert_eq!(
            outcome,
            JobOutcome::Panicked {
                message: "formatted label".to_owned(),
                attempts: 1,
            }
        );

        let (outcome, _) = isolate(|| {
            Err(thermsched::ScheduleError::MissingComponent {
                component: "backend",
            })
        });
        assert!(matches!(
            outcome,
            JobOutcome::Failed {
                retryable: false,
                ..
            }
        ));

        // A checkpoint interrupt maps onto the deadline outcome, with a
        // cancellation reported as a zero budget.
        let (outcome, _) = isolate(|| {
            Err(thermsched::ScheduleError::Interrupted {
                reason: InterruptReason::DeadlineExceeded { budget: 4.0 },
                spent_effort: 5.5,
            })
        });
        assert_eq!(
            outcome,
            JobOutcome::DeadlineExceeded {
                spent_effort: 5.5,
                budget: 4.0,
                attempts: 1,
            }
        );
        let (outcome, _) = isolate(|| {
            Err(thermsched::ScheduleError::Interrupted {
                reason: InterruptReason::Cancelled,
                spent_effort: 2.0,
            })
        });
        assert!(matches!(
            outcome,
            JobOutcome::DeadlineExceeded { budget, .. } if budget == 0.0
        ));
    }

    #[test]
    fn panic_message_renders_error_and_typed_payloads() {
        // The two string shapes `panic!` produces.
        assert_eq!(panic_message(&"literal"), "literal");
        assert_eq!(panic_message(&"owned".to_owned()), "owned");

        // `panic_any` with boxed error objects renders their Display,
        // whether or not the box is Sync.
        let sync_err: Box<dyn std::error::Error + Send + Sync> = Box::new(ServiceError::Injected {
            kind: FaultKind::Panic,
            job: 3,
            attempt: 1,
        });
        assert_eq!(
            panic_message(&sync_err),
            "error payload: injected panic fault on job 3 attempt 1"
        );
        let send_err: Box<dyn std::error::Error + Send> =
            Box::new(thermsched::ScheduleError::MissingComponent {
                component: "backend",
            });
        assert!(panic_message(&send_err).starts_with("error payload:"));

        // Well-known primitive payloads are named and rendered; the old
        // code collapsed all of these to "non-string panic payload".
        assert_eq!(panic_message(&42i32), "non-string panic payload: i32 = 42");
        assert_eq!(
            panic_message(&7usize),
            "non-string panic payload: usize = 7"
        );
        assert_eq!(
            panic_message(&1.5f64),
            "non-string panic payload: f64 = 1.5"
        );
        assert_eq!(
            panic_message(&true),
            "non-string panic payload: bool = true"
        );

        // Opaque payloads keep the historical prefix but gain the TypeId.
        struct Opaque;
        let message = panic_message(&Opaque);
        assert!(message.starts_with("non-string panic payload (type id"));

        // End to end: a panic_any payload travels through isolate.
        let (outcome, _) = isolate(|| std::panic::panic_any(42i32));
        assert_eq!(
            outcome,
            JobOutcome::Panicked {
                message: "non-string panic payload: i32 = 42".to_owned(),
                attempts: 1,
            }
        );
    }
}
