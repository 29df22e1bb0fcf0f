//! Multi-process sharding: a coordinator that spawns `thermsched worker`
//! child processes and streams framed scenario groups to them over
//! stdin/stdout pipes. Each worker is the third dispatch front over the
//! shared execution core ([`crate::executor`]): it runs the jobs its pipe
//! delivers, and the coordinator merges the workers' RESULT and FIN frames
//! into the same tally an in-process run aggregates.
//!
//! The per-job results of a batch are a pure function of the corpus (see
//! [`crate::report`] for the determinism boundary), so sharding jobs over
//! *processes* instead of threads changes nothing about them: the merged
//! report's job list is byte-identical at any process count and identical
//! to an in-process [`crate::ServiceRunner`] run. What the coordinator adds
//! is fault isolation at the process boundary — a worker that panics hard,
//! aborts, closes its pipe mid-job or sends a frame the coordinator cannot
//! accept is declared dead, counted in
//! [`crate::ServiceStats::worker_crashes`], and its unresolved jobs are
//! reassigned to a surviving worker.
//!
//! # Sharding
//!
//! The unit of sharding is the *scenario group*: every job of one
//! scenario. The jobs of a scenario share its session store, so a group
//! kept on one worker keeps the store hits of an in-process run. The
//! coordinator deals whole groups up front, longest-processing-time-first
//! over a `cores × jobs` cost estimate, and each worker receives its groups
//! in scenario order. Every scenario's jobs therefore run in corpus order on
//! one single-threaded worker, and the merged store counters equal those
//! of a 1-worker in-process run. Reassignment after a crash stays
//! group-granular: the dead worker's unresolved jobs move to the
//! least-loaded survivor, grouped by scenario.
//!
//! # Protocol
//!
//! All frames use the [`thermsched_wire::frame`] framing (magic, version,
//! kind byte, length-prefixed payload); payloads are binary-encoded
//! [`JsonValue`]s. The conversation is strictly coordinator-driven:
//!
//! | kind | direction | payload |
//! |---|---|---|
//! | `HELLO` (1) | → worker | `{protocol, worker, config, trace?}` |
//! | `GROUP` (2) | → worker | `{scenario, definition?, jobs: [{index, job}]}` (global indices) |
//! | `RESULT` (3) | ← worker | `{index, result, accounting...}`, one per job |
//! | `SHUTDOWN` (4) | → worker | `{}` |
//! | `FIN` (5) | ← worker | worker-local stats (store, caches, prewarm), plus `metrics`/`spans`/`dropped_spans` when tracing |
//!
//! A scenario's `definition` travels once per worker, with the first group
//! of that scenario the worker receives. The worker builds the scenario's
//! backend and session store, and prewarms the store, when the definition
//! arrives; a group or job naming a scenario the worker was never sent,
//! or a second definition of one, is a protocol violation. The coordinator
//! spawns every worker before it encodes anything: per-worker writer
//! threads encode the frames, so encoding overlaps process start and the
//! workers' decoding.
//!
//! `PROTOCOL_VERSION` 2 introduced `GROUP`; version 1 shipped the whole
//! corpus in `HELLO` and one `JOB` frame per job. Version 3 replaced the
//! `HELLO` config's tagged `store` object with an integer `store_shards`.
//! The `trace` flag and the FIN trace fields are optional (absent means
//! "not tracing").
//!
//! The job index crosses the boundary because fault injection and retry
//! jitter are keyed by the *global* corpus index — a worker that hashed its
//! local receive order instead would break the byte-identity contract.

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufReader, BufWriter, Read, Write};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Instant;

use thermsched::{OperatorCacheStats, StoreStats};
use thermsched_obs::{
    MetricsRegistry, MetricsSnapshot, ObsClock, SpanRecord, Tracer, TracerConfig,
};
use thermsched_wire::frame::{read_frame, write_frame, Frame};
use thermsched_wire::{decode_value, encode_value, obj, JsonValue, Wire, WireError};

use crate::executor::{Dispatch, Executor, JobAccounting, SetupStats, Tally};
use crate::{
    ClockKind, Corpus, JobResult, JobSpec, Result, Scenario, ServiceConfig, ServiceError,
    ServiceReport, ServiceStats,
};

/// Version of the coordinator↔worker protocol, checked in `HELLO`.
pub const PROTOCOL_VERSION: u64 = 3;

/// Frame kinds of the coordinator↔worker protocol.
const FRAME_HELLO: u8 = 1;
const FRAME_GROUP: u8 = 2;
const FRAME_RESULT: u8 = 3;
const FRAME_SHUTDOWN: u8 = 4;
const FRAME_FIN: u8 = 5;

fn multiproc_error(message: impl Into<String>) -> ServiceError {
    ServiceError::Multiproc {
        message: message.into(),
    }
}

/// Configuration of a [`MultiprocCoordinator`].
#[derive(Debug, Clone)]
pub struct MultiprocConfig {
    /// Worker processes to spawn (at most one per scenario). Whole
    /// scenario groups are dealt to them, longest-processing-time-first;
    /// see the [module docs](self#sharding).
    pub processes: usize,
    /// Program to spawn as the worker (typically the `thermsched` binary).
    pub program: std::path::PathBuf,
    /// Arguments passed to the program before it enters worker mode
    /// (typically `["worker"]`; tests append `--exit-after N`).
    pub args: Vec<String>,
    /// The service configuration every worker runs jobs under. The
    /// `workers` field is ignored inside a worker process (each child
    /// executes its jobs sequentially — the processes are the parallelism).
    pub service: ServiceConfig,
}

/// Spawns worker processes and shards a corpus over them.
///
/// See the [module docs](self) for the protocol and the determinism
/// contract.
#[derive(Debug, Clone)]
pub struct MultiprocCoordinator {
    config: MultiprocConfig,
}

/// What one worker's reader and writer threads forward to the coordinator
/// loop.
enum Event {
    /// A job result, with its timing-side accounting.
    Result {
        worker: usize,
        index: usize,
        result: JobResult,
        accounting: JobAccounting,
    },
    /// The worker's final stats after `SHUTDOWN`.
    Fin { worker: usize, fin: Fin },
    /// The worker's pipe closed (or produced garbage) — it is dead.
    Dead { worker: usize },
    /// A writer thread could not encode a frame of the corpus.
    Unencodable(WireError),
}

/// The payload of a worker's `FIN` frame.
struct Fin {
    setup: SetupStats,
    /// Worker-local metrics snapshot (empty from untraced workers).
    metrics: MetricsSnapshot,
    /// Worker-local span records (empty from untraced workers).
    spans: Vec<SpanRecord>,
    /// Spans the worker's bounded sink dropped.
    dropped_spans: u64,
}

impl Fin {
    /// Merges this worker's stats into the run's tally and its trace data
    /// into the coordinator's tracer and registry.
    fn absorb(self, tally: &mut Tally, tracer: &Tracer, registry: &MetricsRegistry) {
        tally.setup.merge(&self.setup);
        registry.absorb(&self.metrics);
        tracer.absorb(self.spans);
        tracer.add_dropped(self.dropped_spans);
    }
}

/// Jobs of one scenario, by global index in corpus order: the unit the
/// coordinator deals and reassigns.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Group {
    scenario: usize,
    jobs: Vec<usize>,
}

/// What the coordinator hands a worker's writer thread.
enum WriterMsg {
    /// A group, with the scenario's definition when `define` is set.
    Group {
        group: Group,
        define: bool,
    },
    Shutdown,
}

/// Deals the corpus's scenario groups over at most `processes` workers,
/// longest-processing-time-first on a `cores × jobs` cost estimate: the
/// costliest remaining group goes to the least-loaded worker (equal costs
/// in scenario order, equal loads to the lower worker index). Each
/// worker's groups come back in scenario order; a corpus without jobs
/// deals to no worker at all.
fn deal(corpus: &Corpus, processes: usize) -> Vec<Vec<Group>> {
    let mut by_scenario: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (index, job) in corpus.jobs().iter().enumerate() {
        by_scenario.entry(job.scenario).or_default().push(index);
    }
    let mut groups: Vec<(usize, Group)> = by_scenario
        .into_iter()
        .map(|(scenario, jobs)| {
            let cost = corpus.scenarios()[scenario].sut.core_count() * jobs.len();
            (cost, Group { scenario, jobs })
        })
        .collect();
    groups.sort_by_key(|&(cost, _)| Reverse(cost));
    let mut shards: Vec<(usize, Vec<Group>)> = vec![(0, Vec::new()); processes.min(groups.len())];
    for (cost, group) in groups {
        let (load, shard) = shards
            .iter_mut()
            .min_by_key(|(load, _)| *load)
            .expect("there is a shard whenever there is a group");
        *load += cost;
        shard.push(group);
    }
    shards
        .into_iter()
        .map(|(_, mut shard)| {
            shard.sort_by_key(|group| group.scenario);
            shard
        })
        .collect()
}

/// The coordinator's record of which worker holds what.
struct Fleet<'a> {
    corpus: &'a Corpus,
    writers: &'a mut [Option<mpsc::Sender<WriterMsg>>],
    /// Unresolved job indices per worker.
    assigned: Vec<BTreeSet<usize>>,
    /// Scenarios whose definition each worker has been sent.
    shipped: Vec<BTreeSet<usize>>,
    dead: Vec<bool>,
}

impl<'a> Fleet<'a> {
    fn new(corpus: &'a Corpus, writers: &'a mut [Option<mpsc::Sender<WriterMsg>>]) -> Self {
        let workers = writers.len();
        Fleet {
            corpus,
            writers,
            assigned: vec![BTreeSet::new(); workers],
            shipped: vec![BTreeSet::new(); workers],
            dead: vec![false; workers],
        }
    }

    /// Hands `group` to `worker`, with the scenario's definition unless
    /// the worker already has it.
    fn send(&mut self, worker: usize, group: Group) {
        let define = self.shipped[worker].insert(group.scenario);
        self.assigned[worker].extend(&group.jobs);
        if let Some(tx) = &self.writers[worker] {
            let _ = tx.send(WriterMsg::Group { group, define });
        }
    }

    /// Declares `worker` dead and hands its unresolved jobs, regrouped by
    /// scenario, to the least-loaded survivor. Returns whether the worker
    /// was still alive (a crash to count).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Multiproc`] if jobs are unresolved and no worker
    /// survives.
    fn bury(&mut self, worker: usize) -> Result<bool> {
        if self.dead[worker] {
            return Ok(false);
        }
        self.dead[worker] = true;
        self.writers[worker] = None;
        let orphans = std::mem::take(&mut self.assigned[worker]);
        if orphans.is_empty() {
            return Ok(true);
        }
        let workers = self.writers.len();
        let survivor = (0..workers)
            .filter(|&w| !self.dead[w])
            .min_by_key(|&w| self.assigned[w].len())
            .ok_or_else(|| {
                multiproc_error(format!(
                    "all {workers} workers died with {} jobs unresolved",
                    orphans.len()
                ))
            })?;
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for index in orphans {
            let scenario = self.corpus.jobs()[index].scenario;
            groups.entry(scenario).or_default().push(index);
        }
        for (scenario, jobs) in groups {
            self.send(survivor, Group { scenario, jobs });
        }
        Ok(true)
    }
}

impl MultiprocCoordinator {
    /// Creates a coordinator.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidSpec`] for zero processes or an invalid
    /// service configuration.
    pub fn new(config: MultiprocConfig) -> Result<Self> {
        if config.processes == 0 {
            return Err(ServiceError::InvalidSpec {
                field: "processes",
                problem: "must be at least 1",
            });
        }
        config.service.validate()?;
        Ok(MultiprocCoordinator { config })
    }

    /// Runs every job of the corpus across the worker processes and merges
    /// the report.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Multiproc`] if a worker cannot be spawned or every
    /// worker dies with jobs still unresolved; [`ServiceError::Wire`] if
    /// the corpus cannot be encoded.
    pub fn run(&self, corpus: &Corpus) -> Result<ServiceReport> {
        self.run_traced(corpus, &Tracer::disabled(), &MetricsRegistry::new())
    }

    /// [`Self::run`] with observability attached: workers are told to trace
    /// (the `trace` HELLO flag), their FIN frames carry back a metrics
    /// snapshot plus their span records, and the coordinator absorbs both
    /// into `tracer`/`registry` — yielding one cross-process trace whose
    /// per-job structural slice is identical to an in-process run's.
    ///
    /// # Errors
    ///
    /// As [`Self::run`].
    pub fn run_traced(
        &self,
        corpus: &Corpus,
        tracer: &Tracer,
        registry: &MetricsRegistry,
    ) -> Result<ServiceReport> {
        let started = Instant::now();
        let shards = deal(corpus, self.config.processes);
        if shards.is_empty() {
            let stats = self.stats(corpus, &Tally::default(), started);
            return Ok(ServiceReport::new(Vec::new(), stats));
        }

        // Spawn first: the writer threads encode every frame, so encoding
        // overlaps process start and the workers' decoding.
        let mut children: Vec<Child> = Vec::with_capacity(shards.len());
        let mut pipes = Vec::with_capacity(shards.len());
        for worker in 0..shards.len() {
            let mut child = Command::new(&self.config.program)
                .args(&self.config.args)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| multiproc_error(format!("spawning worker {worker}: {e}")))?;
            let stdin = child.stdin.take().expect("stdin was piped");
            let stdout = child.stdout.take().expect("stdout was piped");
            pipes.push((stdin, stdout));
            children.push(child);
        }

        let (config, trace) = (&self.config.service, tracer.is_enabled());
        let (event_tx, event_rx) = mpsc::channel::<Event>();
        let outcome = std::thread::scope(|scope| {
            let mut writers = Vec::with_capacity(pipes.len());
            for (worker, (stdin, stdout)) in pipes.into_iter().enumerate() {
                let (tx, rx) = mpsc::channel::<WriterMsg>();
                let events = event_tx.clone();
                scope.spawn(move || {
                    worker_writer(worker, stdin, &rx, config, trace, corpus, &events);
                });
                writers.push(Some(tx));
                let events = event_tx.clone();
                scope.spawn(move || worker_reader(worker, stdout, &events));
            }
            drop(event_tx);
            let result = self.coordinate(
                corpus,
                shards,
                &mut writers,
                &event_rx,
                started,
                tracer,
                registry,
            );
            // Readers block on the children's stdout, so make sure every
            // child is gone before the scope joins them: after an error
            // every worker may still be running, and so may one condemned
            // for a bad frame. Workers that sent FIN have already exited.
            for child in &mut children {
                let _ = child.kill();
            }
            drop(writers);
            result
        });
        for mut child in children {
            let _ = child.wait();
        }
        outcome
    }

    /// The coordinator event loop: deal the groups, collect results,
    /// reassign the jobs of dead workers, then shut the survivors down and
    /// merge their stats.
    ///
    /// A worker is dead when its pipe closes, when it sends a malformed
    /// frame, a `FIN` before `SHUTDOWN`, or a result for a job it does not
    /// hold (out of range, another worker's, or already resolved).
    ///
    /// Worker FIN frames carry each worker's metrics snapshot and span
    /// records when tracing; the coordinator folds those straight into
    /// `tracer`/`registry` (it deliberately does *not* absorb its own
    /// [`ServiceStats`] view — the workers already reported those counts).
    #[allow(clippy::too_many_arguments)]
    fn coordinate(
        &self,
        corpus: &Corpus,
        shards: Vec<Vec<Group>>,
        writers: &mut [Option<mpsc::Sender<WriterMsg>>],
        events: &mpsc::Receiver<Event>,
        started: Instant,
        tracer: &Tracer,
        registry: &MetricsRegistry,
    ) -> Result<ServiceReport> {
        let jobs = corpus.jobs();
        let mut fleet = Fleet::new(corpus, writers);
        for (worker, shard) in shards.into_iter().enumerate() {
            for group in shard {
                fleet.send(worker, group);
            }
        }

        let mut results: Vec<Option<JobResult>> = vec![None; jobs.len()];
        let mut resolved = 0usize;
        let mut tally = Tally::default();
        while resolved < jobs.len() {
            let event = events
                .recv()
                .map_err(|_| multiproc_error("every worker pipe closed with jobs unresolved"))?;
            let worker = match event {
                Event::Result {
                    worker,
                    index,
                    result,
                    accounting,
                } => {
                    if fleet.assigned[worker].remove(&index) {
                        resolved += 1;
                        tally.record(&result.outcome, Some(&accounting));
                        results[index] = Some(result);
                        continue;
                    }
                    worker
                }
                Event::Fin { worker, .. } | Event::Dead { worker } => worker,
                Event::Unencodable(error) => return Err(error.into()),
            };
            if fleet.bury(worker)? {
                tally.worker_crashes += 1;
            }
        }

        // Every job is resolved; ask the survivors for their FIN stats.
        let workers = fleet.dead.len();
        let mut finished = vec![false; workers];
        let mut awaiting = 0usize;
        for worker in 0..workers {
            if let Some(tx) = &fleet.writers[worker] {
                let _ = tx.send(WriterMsg::Shutdown);
                awaiting += 1;
            }
        }
        while awaiting > 0 {
            let Ok(event) = events.recv() else { break };
            let (worker, fin) = match event {
                Event::Fin { worker, fin } => (worker, Some(fin)),
                // Every job is resolved, so any result is a stray.
                Event::Result { worker, .. } | Event::Dead { worker } => (worker, None),
                Event::Unencodable(_) => continue,
            };
            if fleet.dead[worker] || finished[worker] {
                continue;
            }
            awaiting -= 1;
            match fin {
                Some(fin) => {
                    finished[worker] = true;
                    fin.absorb(&mut tally, tracer, registry);
                }
                // Died between its last result and FIN: no orphans to
                // reassign, but it is a crash all the same.
                None => {
                    fleet.bury(worker)?;
                    tally.worker_crashes += 1;
                }
            }
        }

        let jobs_done = results
            .into_iter()
            .map(|slot| slot.expect("loop exits only once every job is resolved"))
            .collect();
        Ok(ServiceReport::new(
            jobs_done,
            self.stats(corpus, &tally, started),
        ))
    }

    /// The merged run statistics: one entry per worker process.
    fn stats(&self, corpus: &Corpus, tally: &Tally, started: Instant) -> ServiceStats {
        tally.stats(
            &self.config.service,
            self.config.processes,
            corpus.scenarios().len(),
            started.elapsed().as_secs_f64(),
        )
    }
}

/// Encodes the `HELLO` frame payload greeting `worker`.
fn encode_hello(
    worker: usize,
    config: &ServiceConfig,
    trace: bool,
) -> std::result::Result<Vec<u8>, WireError> {
    encode_value(
        &obj()
            .field("protocol", PROTOCOL_VERSION)
            .field("worker", worker)
            .field("config", config.to_wire())
            .field("trace", trace)
            .build(),
    )
}

/// Encodes a `GROUP` frame payload: the group's jobs, preceded by the
/// scenario's definition when `define` is set.
fn encode_group(
    corpus: &Corpus,
    group: &Group,
    define: bool,
) -> std::result::Result<Vec<u8>, WireError> {
    let mut frame = obj().field("scenario", group.scenario);
    if define {
        frame = frame.field("definition", corpus.scenarios()[group.scenario].to_wire());
    }
    let jobs: Vec<JsonValue> = group
        .jobs
        .iter()
        .map(|&index| {
            obj()
                .field("index", index)
                .field("job", corpus.jobs()[index].to_wire())
                .build()
        })
        .collect();
    encode_value(&frame.field("jobs", jobs).build())
}

/// Writer thread of one worker: `HELLO`, then groups as the coordinator
/// assigns them, then `SHUTDOWN`, each encoded here. Write errors end the
/// thread quietly — the worker's reader will observe the death and the
/// coordinator reassigns; an encoding error ends the run.
fn worker_writer(
    worker: usize,
    stdin: impl Write,
    msgs: &mpsc::Receiver<WriterMsg>,
    config: &ServiceConfig,
    trace: bool,
    corpus: &Corpus,
    events: &mpsc::Sender<Event>,
) {
    let mut stdin = BufWriter::new(stdin);
    let hello = match encode_hello(worker, config, trace) {
        Ok(hello) => hello,
        Err(error) => {
            let _ = events.send(Event::Unencodable(error));
            return;
        }
    };
    if write_frame(&mut stdin, FRAME_HELLO, &hello).is_err() {
        return;
    }
    while let Ok(msg) = msgs.recv() {
        let (kind, payload) = match msg {
            WriterMsg::Group { group, define } => match encode_group(corpus, &group, define) {
                Ok(payload) => (FRAME_GROUP, payload),
                Err(error) => {
                    let _ = events.send(Event::Unencodable(error));
                    return;
                }
            },
            WriterMsg::Shutdown => (FRAME_SHUTDOWN, Vec::new()),
        };
        if write_frame(&mut stdin, kind, &payload).is_err() || kind == FRAME_SHUTDOWN {
            return;
        }
    }
}

/// Reader thread of one worker: decodes `RESULT`/`FIN` frames into events.
/// EOF, a frame error or a malformed payload all mean the worker is dead.
fn worker_reader(worker: usize, stdout: impl Read, events: &mpsc::Sender<Event>) {
    let mut stdout = BufReader::new(stdout);
    loop {
        match read_frame(&mut stdout) {
            Ok(Some(frame)) => match decode_event(worker, &frame) {
                Some(event) => {
                    let is_fin = matches!(event, Event::Fin { .. });
                    if events.send(event).is_err() || is_fin {
                        return;
                    }
                }
                None => {
                    let _ = events.send(Event::Dead { worker });
                    return;
                }
            },
            Ok(None) | Err(_) => {
                let _ = events.send(Event::Dead { worker });
                return;
            }
        }
    }
}

/// Decodes one worker frame into an [`Event`], or `None` if it is
/// malformed (which the caller treats as a dead worker).
fn decode_event(worker: usize, frame: &Frame) -> Option<Event> {
    let payload = decode_value(&frame.payload).ok()?;
    match frame.kind {
        FRAME_RESULT => Some(Event::Result {
            worker,
            index: payload.field_usize("result_frame", "index").ok()?,
            result: JobResult::from_wire(payload.field("result_frame", "result").ok()?).ok()?,
            accounting: JobAccounting {
                warm_cache_hits: payload
                    .field_usize("result_frame", "warm_cache_hits")
                    .ok()?,
                cached_validations: payload
                    .field_usize("result_frame", "cached_validations")
                    .ok()?,
                injected_faults: payload
                    .field_usize("result_frame", "injected_faults")
                    .ok()?,
                retried_attempts: payload
                    .field_usize("result_frame", "retried_attempts")
                    .ok()?,
                latency_seconds: payload.field_f64("result_frame", "latency_seconds").ok()?,
            },
        }),
        FRAME_FIN => Some(Event::Fin {
            worker,
            fin: Fin {
                setup: SetupStats {
                    store: StoreStats::from_wire(payload.field("fin_frame", "store").ok()?).ok()?,
                    operator_cache: OperatorCacheStats::from_wire(
                        payload.field("fin_frame", "operator_cache").ok()?,
                    )
                    .ok()?,
                    prewarmed_sessions: payload
                        .field_usize("fin_frame", "prewarmed_sessions")
                        .ok()?,
                },
                // The trace fields are optional (absent from untraced or
                // older workers), so decode failures degrade to "no trace
                // data" instead of killing the worker.
                metrics: payload
                    .field("fin_frame", "metrics")
                    .ok()
                    .and_then(|v| MetricsSnapshot::from_wire(v).ok())
                    .unwrap_or_default(),
                spans: payload
                    .field_array("fin_frame", "spans")
                    .map(|items| {
                        items
                            .iter()
                            .filter_map(|item| SpanRecord::from_wire(item).ok())
                            .collect()
                    })
                    .unwrap_or_default(),
                dropped_spans: payload.field_u64("fin_frame", "dropped_spans").unwrap_or(0),
            },
        }),
        _ => None,
    }
}

/// Crash-test hook for [`worker_serve`]: after resolving `after_jobs`
/// jobs the worker silently returns — closing its pipes mid-batch exactly
/// like a crashed process would — instead of running its next job. With `only_worker` set, the plan only arms on the process the
/// coordinator greeted with that worker index, so a fleet sharing one
/// command line can lose exactly one member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Jobs to resolve before dying.
    pub after_jobs: usize,
    /// Restrict the plan to one worker index (`None` arms every process).
    pub only_worker: Option<usize>,
}

/// Serves one worker process: speaks the [module](self) protocol over
/// `input`/`output` until `SHUTDOWN` (clean exit) or EOF (coordinator
/// gone).
///
/// `crash` is the deliberate-failure hook used by the robustness tests;
/// see [`CrashPlan`].
///
/// # Errors
///
/// [`ServiceError::Wire`] on a malformed frame from the coordinator,
/// [`ServiceError::Multiproc`] on a protocol violation (bad version, a
/// frame before `HELLO`, a group or job naming a scenario this worker was
/// never sent, a second definition of a scenario), and construction errors
/// from building a scenario's backend.
pub fn worker_serve(input: impl Read, output: impl Write, crash: Option<CrashPlan>) -> Result<()> {
    let mut input = BufReader::new(input);
    let mut output = BufWriter::new(output);

    let Some(hello) = read_frame(&mut input).map_err(ServiceError::Wire)? else {
        return Ok(()); // Coordinator vanished before HELLO; nothing to do.
    };
    if hello.kind != FRAME_HELLO {
        return Err(multiproc_error(format!(
            "expected HELLO as the first frame, got kind {}",
            hello.kind
        )));
    }
    let hello = decode_value(&hello.payload)?;
    let protocol = hello.field_u64("hello_frame", "protocol")?;
    if protocol != PROTOCOL_VERSION {
        return Err(multiproc_error(format!(
            "protocol version {protocol} (this worker speaks {PROTOCOL_VERSION})"
        )));
    }
    let me = hello.field_usize("hello_frame", "worker")?;
    let crash = crash.filter(|plan| plan.only_worker.is_none() || plan.only_worker == Some(me));
    let config = ServiceConfig::from_wire(hello.field("hello_frame", "config")?)?;
    // The trace flag is optional in HELLO (older coordinators omit it);
    // absent means "not tracing" and the worker pays zero observability
    // cost. The worker's span clock follows the service clock so Virtual
    // runs produce deterministic structural traces across process counts.
    let trace = hello.field_bool("hello_frame", "trace").unwrap_or(false);
    let tracer = if trace {
        Tracer::new(TracerConfig {
            clock: if config.clock == ClockKind::Virtual {
                ObsClock::Virtual
            } else {
                ObsClock::Wall
            },
            ..TracerConfig::default()
        })
    } else {
        Tracer::disabled()
    };

    // Same core as the in-process executors, started empty: a scenario's
    // slot is built when its definition arrives. Jobs run sequentially on
    // this thread — the processes are the parallelism.
    let mut executor = Executor::new(config, &tracer);
    let started = Instant::now();
    let mut resolved = 0usize;
    loop {
        let Some(frame) = read_frame(&mut input).map_err(ServiceError::Wire)? else {
            return Ok(()); // Coordinator closed the pipe; exit quietly.
        };
        match frame.kind {
            FRAME_GROUP => {
                let payload = decode_value(&frame.payload)?;
                let scenario = payload.field_usize("group_frame", "scenario")?;
                if let Some(definition) = payload.get("definition") {
                    if executor.slot(scenario).is_some() {
                        return Err(multiproc_error(format!(
                            "scenario {scenario} was defined twice"
                        )));
                    }
                    let definition = Scenario::from_wire(definition)?;
                    executor.add([(scenario, Cow::Owned(definition))])?;
                } else if executor.slot(scenario).is_none() {
                    return Err(multiproc_error(format!(
                        "group of scenario {scenario}, which this worker was never sent"
                    )));
                }
                let mut jobs = Vec::new();
                for job in payload.field_array("group_frame", "jobs")? {
                    let index = job.field_usize("job_frame", "index")?;
                    let job = JobSpec::from_wire(job.field("job_frame", "job")?)?;
                    if job.scenario != scenario {
                        return Err(multiproc_error(format!(
                            "job {index} in the group of scenario {scenario} references \
                             scenario {}",
                            job.scenario
                        )));
                    }
                    jobs.push((index, job));
                }
                let mut worker = executor.worker();
                for (index, job) in &jobs {
                    if crash.is_some_and(|plan| resolved >= plan.after_jobs) {
                        // Crash-test hook: swallow the job and die with it
                        // unacknowledged, like a worker that crashed mid-job.
                        return Ok(());
                    }
                    let (result, accounting) =
                        worker.run(Dispatch::batch(*index, job, Instant::now()));
                    let reply = encode_value(
                        &obj()
                            .field("index", *index)
                            .field("result", result.to_wire())
                            .field("warm_cache_hits", accounting.warm_cache_hits)
                            .field("cached_validations", accounting.cached_validations)
                            .field("injected_faults", accounting.injected_faults)
                            .field("retried_attempts", accounting.retried_attempts)
                            .field("latency_seconds", accounting.latency_seconds)
                            .build(),
                    )?;
                    write_frame(&mut output, FRAME_RESULT, &reply).map_err(ServiceError::Wire)?;
                    resolved += 1;
                }
            }
            FRAME_SHUTDOWN => {
                let (stats, metrics) = executor.finish(1, started.elapsed().as_secs_f64());
                let mut fin = obj()
                    .field("store", stats.store.to_wire())
                    .field("operator_cache", stats.operator_cache.to_wire())
                    .field("prewarmed_sessions", stats.prewarmed_sessions);
                if trace {
                    // The snapshot carries the in-process metric names
                    // (`ServiceStats::metrics` plus the latency histogram);
                    // the spans feed the merged cross-process trace.
                    let spans: Vec<JsonValue> = tracer.drain().iter().map(Wire::to_wire).collect();
                    fin = fin
                        .field("metrics", metrics.to_wire())
                        .field("spans", JsonValue::Array(spans))
                        .field("dropped_spans", tracer.dropped_spans());
                }
                let fin = encode_value(&fin.build())?;
                write_frame(&mut output, FRAME_FIN, &fin).map_err(ServiceError::Wire)?;
                return Ok(());
            }
            other => {
                return Err(multiproc_error(format!(
                    "unexpected frame kind {other} after HELLO"
                )));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JobOutcome, ScenarioSpec};

    /// In-memory worker loopback: runs `worker_serve` against buffered
    /// pipes, returning the frames it produced. The process-boundary tests
    /// (spawning the real binary) live in the workspace root's integration
    /// suite; these cover the protocol state machine.
    fn serve(frames: &[(u8, Vec<u8>)], crash: Option<CrashPlan>) -> (Result<()>, Vec<Frame>) {
        let mut input = Vec::new();
        for (kind, payload) in frames {
            write_frame(&mut input, *kind, payload).unwrap();
        }
        let mut output = Vec::new();
        let result = worker_serve(input.as_slice(), &mut output, crash);
        let mut replies = Vec::new();
        let mut cursor = output.as_slice();
        while let Ok(Some(frame)) = read_frame(&mut cursor) {
            replies.push(frame);
        }
        (result, replies)
    }

    /// A HELLO without the optional `trace` field.
    fn hello_payload() -> Vec<u8> {
        encode_value(
            &obj()
                .field("protocol", PROTOCOL_VERSION)
                .field("worker", 0usize)
                .field("config", ServiceConfig::default().to_wire())
                .build(),
        )
        .unwrap()
    }

    /// A GROUP frame of `corpus`'s jobs `indices`, all of `scenario`.
    fn group_frame(corpus: &Corpus, scenario: usize, indices: &[usize], define: bool) -> Vec<u8> {
        let group = Group {
            scenario,
            jobs: indices.to_vec(),
        };
        encode_group(corpus, &group, define).unwrap()
    }

    /// The GROUP frames that ship `indices` to one worker: one group per
    /// scenario, in index order, each defining its scenario.
    fn group_frames(corpus: &Corpus, indices: &[usize]) -> Vec<(u8, Vec<u8>)> {
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &index in indices {
            let scenario = corpus.jobs()[index].scenario;
            groups.entry(scenario).or_default().push(index);
        }
        groups
            .iter()
            .map(|(&scenario, jobs)| (FRAME_GROUP, group_frame(corpus, scenario, jobs, true)))
            .collect()
    }

    /// One scenario, two jobs (the default TL × STCL grid).
    fn tiny_corpus() -> Corpus {
        ScenarioSpec {
            scenarios: 1,
            seed: 3,
            ..ScenarioSpec::default()
        }
        .build()
        .unwrap()
    }

    #[test]
    fn worker_answers_jobs_and_fin_in_protocol_order() {
        let corpus = tiny_corpus();
        let (result, replies) = serve(
            &[
                (FRAME_HELLO, hello_payload()),
                (FRAME_GROUP, group_frame(&corpus, 0, &[0], true)),
                (FRAME_SHUTDOWN, Vec::new()),
            ],
            None,
        );
        result.unwrap();
        assert_eq!(replies.len(), 2);
        assert_eq!(replies[0].kind, FRAME_RESULT);
        assert_eq!(replies[1].kind, FRAME_FIN);
        let payload = decode_value(&replies[0].payload).unwrap();
        assert_eq!(payload.field_usize("f", "index").unwrap(), 0);
        let job_result = JobResult::from_wire(payload.field("f", "result").unwrap()).unwrap();
        assert!(matches!(job_result.outcome, JobOutcome::Completed(_)));
    }

    #[test]
    fn worker_rejects_protocol_violations_with_typed_errors() {
        // A frame before HELLO.
        let (result, _) = serve(&[(FRAME_GROUP, Vec::new())], None);
        assert!(matches!(result, Err(ServiceError::Multiproc { .. })));
        // A bad protocol version.
        let bad_version = encode_value(
            &obj()
                .field("protocol", 99u64)
                .field("config", ServiceConfig::default().to_wire())
                .build(),
        )
        .unwrap();
        let (result, _) = serve(&[(FRAME_HELLO, bad_version)], None);
        assert!(matches!(result, Err(ServiceError::Multiproc { .. })));
        // A garbage payload is a wire error, not a panic.
        let (result, _) = serve(&[(FRAME_HELLO, vec![0xff, 0xff])], None);
        assert!(matches!(result, Err(ServiceError::Wire(_))));
        // EOF before HELLO is a clean no-op exit.
        let (result, replies) = serve(&[], None);
        result.unwrap();
        assert!(replies.is_empty());
    }

    /// A group or job naming a scenario the worker was never sent, and a
    /// second definition of one, are typed protocol errors: the worker
    /// must not index past its slots or silently replace a scenario.
    #[test]
    fn worker_rejects_unknown_and_redefined_scenarios_with_typed_errors() {
        let corpus = ScenarioSpec {
            scenarios: 2,
            seed: 3,
            ..ScenarioSpec::default()
        }
        .build()
        .unwrap();
        let scenario_of = |index: usize| corpus.jobs()[index].scenario;
        let (first, other) = (0, corpus.jobs().len() - 1);
        assert_ne!(scenario_of(first), scenario_of(other));
        let hello = (FRAME_HELLO, hello_payload());

        // A group whose scenario was never defined.
        let (result, replies) = serve(
            &[
                hello.clone(),
                (
                    FRAME_GROUP,
                    group_frame(&corpus, scenario_of(other), &[other], false),
                ),
            ],
            None,
        );
        assert!(
            matches!(result, Err(ServiceError::Multiproc { .. })),
            "expected a multiproc error, got {result:?}"
        );
        assert!(replies.is_empty());

        // A job, inside a defined group, that names an unsent scenario.
        let stray = group_frame(&corpus, scenario_of(first), &[other], true);
        let (result, replies) = serve(&[hello.clone(), (FRAME_GROUP, stray)], None);
        assert!(
            matches!(result, Err(ServiceError::Multiproc { .. })),
            "expected a multiproc error, got {result:?}"
        );
        assert!(replies.is_empty());

        // A second definition of a scenario: the first group is answered,
        // the redefinition is refused.
        let (result, replies) = serve(
            &[
                hello,
                (FRAME_GROUP, group_frame(&corpus, 0, &[first], true)),
                (FRAME_GROUP, group_frame(&corpus, 0, &[first + 1], true)),
            ],
            None,
        );
        assert!(
            matches!(result, Err(ServiceError::Multiproc { .. })),
            "expected a multiproc error, got {result:?}"
        );
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].kind, FRAME_RESULT);
    }

    #[test]
    fn deeply_nested_hello_is_a_wire_error_not_a_stack_overflow() {
        // A HELLO payload of 200 000 nested one-element binary arrays:
        // unbounded recursion would overflow the worker's stack and abort
        // the process; the bounded decoder reports a typed error instead.
        let mut payload = Vec::new();
        for _ in 0..200_000 {
            payload.push(0x07); // array tag
            payload.extend_from_slice(&1u32.to_le_bytes());
        }
        payload.push(0x00); // null
        let (result, replies) = serve(&[(FRAME_HELLO, payload)], None);
        assert!(
            matches!(result, Err(ServiceError::Wire(_))),
            "expected a wire error, got {result:?}"
        );
        assert!(replies.is_empty());
    }

    #[test]
    fn crash_plan_swallows_the_next_job() {
        let corpus = tiny_corpus();
        // Two groups of the one scenario: the first defines it.
        let frames = [
            (FRAME_HELLO, hello_payload()),
            (FRAME_GROUP, group_frame(&corpus, 0, &[0], true)),
            (FRAME_GROUP, group_frame(&corpus, 0, &[1], false)),
            (FRAME_SHUTDOWN, Vec::new()),
        ];
        let (result, replies) = serve(
            &frames,
            Some(CrashPlan {
                after_jobs: 1,
                only_worker: None,
            }),
        );
        result.unwrap();
        // One result, then the worker died mid-job: no second result, no FIN.
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].kind, FRAME_RESULT);

        // The same plan scoped to a different worker index never arms: this
        // worker was greeted as index 0, so it serves both jobs and FINs.
        let (result, replies) = serve(
            &frames,
            Some(CrashPlan {
                after_jobs: 1,
                only_worker: Some(1),
            }),
        );
        result.unwrap();
        assert_eq!(replies.len(), 3);
        assert_eq!(replies[2].kind, FRAME_FIN);
    }

    /// Runs the given job indices through one traced loopback worker and
    /// returns the decoded FIN event.
    fn serve_traced(corpus: &Corpus, config: &ServiceConfig, indices: &[usize]) -> Event {
        let mut frames = vec![(FRAME_HELLO, encode_hello(0, config, true).unwrap())];
        frames.extend(group_frames(corpus, indices));
        frames.push((FRAME_SHUTDOWN, Vec::new()));
        let (result, replies) = serve(&frames, None);
        result.unwrap();
        let fin = replies.last().expect("worker sent frames");
        assert_eq!(fin.kind, FRAME_FIN);
        decode_event(0, fin).expect("FIN decodes")
    }

    /// A HELLO without the optional `trace` field must produce a FIN that
    /// decodes with empty trace fields.
    #[test]
    fn untraced_fin_decodes_with_empty_trace_fields() {
        let corpus = tiny_corpus();
        let (result, replies) = serve(
            &[
                (FRAME_HELLO, hello_payload()),
                (FRAME_GROUP, group_frame(&corpus, 0, &[0], true)),
                (FRAME_SHUTDOWN, Vec::new()),
            ],
            None,
        );
        result.unwrap();
        let Some(Event::Fin {
            fin:
                Fin {
                    metrics,
                    spans,
                    dropped_spans,
                    ..
                },
            ..
        }) = decode_event(0, &replies[1])
        else {
            panic!("expected a FIN event");
        };
        assert!(metrics.is_empty());
        assert!(spans.is_empty());
        assert_eq!(dropped_spans, 0);
    }

    /// Satellite: one traced worker running the whole corpus reports FIN
    /// metrics equal to the in-process runner's `ServiceStats::metrics`
    /// view on the same corpus — the per-worker counters really are the
    /// same counts, just shipped over the pipe.
    #[test]
    fn traced_fin_metrics_match_in_process_totals() {
        let corpus = tiny_corpus();
        let config = ServiceConfig {
            workers: 1,
            clock: ClockKind::Virtual,
            ..ServiceConfig::default()
        };
        let indices: Vec<usize> = (0..corpus.jobs().len()).collect();
        let Event::Fin {
            fin:
                Fin {
                    setup:
                        SetupStats {
                            store,
                            operator_cache,
                            ..
                        },
                    metrics,
                    spans,
                    dropped_spans,
                },
            ..
        } = serve_traced(&corpus, &config, &indices)
        else {
            panic!("expected a FIN event");
        };

        let report = crate::ServiceRunner::new(config)
            .unwrap()
            .run(&corpus)
            .unwrap();
        let local = report.stats().metrics();
        for name in [
            "service.jobs",
            "service.completed",
            "service.warm_cache_hits",
            "service.cached_validations",
            "service.prewarmed_sessions",
            "store.lookups",
            "store.hits",
            "store.insertions",
            "operator_cache.hits",
            "operator_cache.misses",
        ] {
            assert_eq!(
                metrics.counter(name),
                local.counter(name),
                "counter {name} diverged between FIN and in-process"
            );
        }
        // The FIN's structured stats agree with its own metrics view.
        assert_eq!(metrics.counter("store.lookups"), Some(store.lookups));
        assert_eq!(
            metrics.counter("operator_cache.misses"),
            Some(operator_cache.misses)
        );
        // Spans came along: one "job" root per corpus job, nothing dropped.
        assert_eq!(
            spans.iter().filter(|s| s.name == "job").count(),
            corpus.jobs().len()
        );
        assert_eq!(dropped_spans, 0);
    }

    /// Satellite: two workers splitting the corpus along scenario lines
    /// produce FIN store counters that *sum* to the in-process totals, and
    /// absorbing both snapshots into one registry performs that sum.
    #[test]
    fn two_worker_fin_counters_sum_to_in_process_totals() {
        let corpus = ScenarioSpec {
            scenarios: 2,
            seed: 3,
            ..ScenarioSpec::default()
        }
        .build()
        .unwrap();
        // Split by scenario, as the coordinator deals, so each scenario's
        // store lives wholly in one worker — cross-worker splits of one
        // scenario lose the store hits the other worker's published
        // sessions would have provided.
        let config = ServiceConfig {
            workers: 1,
            batch_same_shape: false,
            clock: ClockKind::Virtual,
            ..ServiceConfig::default()
        };
        let by_scenario = |scenario: usize| -> Vec<usize> {
            corpus
                .jobs()
                .iter()
                .enumerate()
                .filter(|(_, job)| job.scenario == scenario)
                .map(|(index, _)| index)
                .collect()
        };
        let fins = [
            serve_traced(&corpus, &config, &by_scenario(0)),
            serve_traced(&corpus, &config, &by_scenario(1)),
        ];

        let registry = MetricsRegistry::new();
        let mut store_sum = StoreStats::default();
        let mut retried_sum = 0u64;
        for fin in &fins {
            let Event::Fin {
                fin: Fin { setup, metrics, .. },
                ..
            } = fin
            else {
                panic!("expected FIN events");
            };
            let store = &setup.store;
            registry.absorb(metrics);
            store_sum.lookups += store.lookups;
            store_sum.hits += store.hits;
            store_sum.insertions += store.insertions;
            store_sum.contended_locks += store.contended_locks;
            retried_sum += metrics.counter("service.retried_attempts").unwrap_or(0);
        }

        let report = crate::ServiceRunner::new(config)
            .unwrap()
            .run(&corpus)
            .unwrap();
        let stats = report.stats();
        assert_eq!(store_sum.lookups, stats.store.lookups);
        assert_eq!(store_sum.hits, stats.store.hits);
        assert_eq!(store_sum.insertions, stats.store.insertions);
        assert_eq!(retried_sum, stats.retried_attempts as u64);

        let merged = registry.snapshot();
        assert_eq!(
            merged.counter("service.jobs"),
            Some(corpus.jobs().len() as u64)
        );
        assert_eq!(merged.counter("store.lookups"), Some(stats.store.lookups));
        assert_eq!(
            merged.counter("service.completed"),
            Some(stats.completed as u64)
        );
    }

    #[test]
    fn coordinator_validates_its_configuration() {
        let config = MultiprocConfig {
            processes: 0,
            program: "worker".into(),
            args: Vec::new(),
            service: ServiceConfig::default(),
        };
        assert!(matches!(
            MultiprocCoordinator::new(config),
            Err(ServiceError::InvalidSpec {
                field: "processes",
                ..
            })
        ));
    }

    #[test]
    fn empty_corpus_short_circuits_without_spawning() {
        let coordinator = MultiprocCoordinator::new(MultiprocConfig {
            processes: 4,
            // Would fail to spawn if it were attempted.
            program: "/nonexistent/thermsched-worker".into(),
            args: Vec::new(),
            service: ServiceConfig::default(),
        })
        .unwrap();
        let empty = Corpus::from_parts(Vec::new(), Vec::new()).unwrap();
        let report = coordinator.run(&empty).unwrap();
        assert!(report.jobs().is_empty());
        assert_eq!(report.stats().job_count, 0);
        assert_eq!(report.stats().worker_crashes, 0);
    }

    #[test]
    fn spawn_failure_is_a_typed_error() {
        let coordinator = MultiprocCoordinator::new(MultiprocConfig {
            processes: 1,
            program: "/nonexistent/thermsched-worker".into(),
            args: Vec::new(),
            service: ServiceConfig::default(),
        })
        .unwrap();
        let corpus = tiny_corpus();
        assert!(matches!(
            coordinator.run(&corpus),
            Err(ServiceError::Multiproc { .. })
        ));
    }

    /// Every scenario's jobs land on one worker, in corpus order; the
    /// costliest groups are spread first, so the loads stay within one
    /// group's cost of each other.
    #[test]
    fn deal_keeps_scenario_groups_whole_and_balances_their_cost() {
        let corpus = ScenarioSpec {
            scenarios: 9,
            seed: 11,
            ..ScenarioSpec::default()
        }
        .build()
        .unwrap();
        let cost =
            |group: &Group| corpus.scenarios()[group.scenario].sut.core_count() * group.jobs.len();
        for processes in [1usize, 2, 4, 16] {
            let shards = deal(&corpus, processes);
            assert_eq!(shards.len(), processes.min(9));
            let mut seen: Vec<usize> = Vec::new();
            for shard in &shards {
                assert!(shard.windows(2).all(|w| w[0].scenario < w[1].scenario));
                for group in shard {
                    assert!(group
                        .jobs
                        .iter()
                        .all(|&index| corpus.jobs()[index].scenario == group.scenario));
                    assert!(group.jobs.windows(2).all(|w| w[0] < w[1]));
                    seen.extend(&group.jobs);
                }
            }
            seen.sort_unstable();
            assert_eq!(seen, (0..corpus.jobs().len()).collect::<Vec<_>>());
            let loads: Vec<usize> = shards
                .iter()
                .map(|shard| shard.iter().map(cost).sum())
                .collect();
            let largest = shards.iter().flatten().map(cost).max().unwrap();
            let (min, max) = (loads.iter().min().unwrap(), loads.iter().max().unwrap());
            assert!(max - min <= largest, "loads {loads:?} at {processes}");
        }
        let empty = Corpus::from_parts(Vec::new(), Vec::new()).unwrap();
        assert!(deal(&empty, 4).is_empty());
    }

    /// A RESULT frame for a job index the worker does not hold — out of
    /// range, or another worker's — condemns that worker instead of
    /// panicking the coordinator: it counts as a crash and its jobs,
    /// with their scenario definitions, move to the survivor.
    #[test]
    fn a_result_for_a_job_the_worker_does_not_hold_condemns_the_worker() {
        let corpus = ScenarioSpec {
            scenarios: 2,
            seed: 3,
            ..ScenarioSpec::default()
        }
        .build()
        .unwrap();
        let config = ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        };
        let expected = crate::ServiceRunner::new(config)
            .unwrap()
            .run(&corpus)
            .unwrap();
        let coordinator = MultiprocCoordinator::new(MultiprocConfig {
            processes: 2,
            program: "/nonexistent/thermsched-worker".into(),
            args: Vec::new(),
            service: config,
        })
        .unwrap();
        let shards = deal(&corpus, 2);
        let held: Vec<Vec<usize>> = shards
            .iter()
            .map(|shard| shard.iter().flat_map(|g| g.jobs.clone()).collect())
            .collect();
        let result_frame = |index: usize, job: usize| Frame {
            kind: FRAME_RESULT,
            payload: encode_value(
                &obj()
                    .field("index", index)
                    .field("result", expected.jobs()[job].to_wire())
                    .field("warm_cache_hits", 0usize)
                    .field("cached_validations", 0usize)
                    .field("injected_faults", 0usize)
                    .field("retried_attempts", 0usize)
                    .field("latency_seconds", 0.0)
                    .build(),
            )
            .unwrap(),
        };
        let fin = || Event::Fin {
            worker: 0,
            fin: Fin {
                setup: SetupStats::default(),
                metrics: MetricsSnapshot::default(),
                spans: Vec::new(),
                dropped_spans: 0,
            },
        };

        for bad_index in [corpus.jobs().len() + 7, held[0][0]] {
            let (event_tx, event_rx) = mpsc::channel();
            // Worker 1 claims a job it does not hold, then keeps talking.
            for frame in [result_frame(bad_index, 0), result_frame(held[1][0], 0)] {
                event_tx.send(decode_event(1, &frame).unwrap()).unwrap();
            }
            // Worker 0 answers every job: its own, then worker 1's.
            for &index in held[0].iter().chain(&held[1]) {
                let event = decode_event(0, &result_frame(index, index)).unwrap();
                event_tx.send(event).unwrap();
            }
            event_tx.send(fin()).unwrap();

            let (tx0, rx0) = mpsc::channel();
            let (tx1, _rx1) = mpsc::channel();
            let mut writers = vec![Some(tx0), Some(tx1)];
            let report = coordinator
                .coordinate(
                    &corpus,
                    shards.clone(),
                    &mut writers,
                    &event_rx,
                    Instant::now(),
                    &Tracer::disabled(),
                    &MetricsRegistry::new(),
                )
                .unwrap();
            assert_eq!(report.stats().worker_crashes, 1);
            assert_eq!(report.jobs(), expected.jobs());

            // Worker 0 got its own groups, then worker 1's with their
            // definitions, then SHUTDOWN.
            let mut sent = Vec::new();
            while let Ok(msg) = rx0.try_recv() {
                sent.push(match msg {
                    WriterMsg::Group { group, define } => Some((group, define)),
                    WriterMsg::Shutdown => None,
                });
            }
            let reassigned: Vec<_> = shards[1].iter().map(|g| Some((g.clone(), true))).collect();
            assert_eq!(sent.len(), shards[0].len() + reassigned.len() + 1);
            assert_eq!(sent[shards[0].len()..sent.len() - 1], reassigned[..]);
            assert!(sent.last().unwrap().is_none());
        }
    }
}
