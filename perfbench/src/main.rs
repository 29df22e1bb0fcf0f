//! The repository benchmark: one workload per invocation, driven through
//! the public `thermsched_service` API and timed from outside it.
//!
//! ```text
//! perfbench --workload <rc_batch|grid_batch|online_stream|rc_sharded>
//!           [--seed N] [--seconds S] [--trace 0|1] --worker <thermsched binary>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of untraced batches; `--trace 1`
//! alternates untraced and traced batches and prints the per-layer metrics.
//! Either way the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod gate;
mod metrics;
mod probes;
mod spans;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use thermsched_obs::{Tracer, TracerConfig};
use thermsched_service::Corpus;

use crate::gate::{Reference, Verdict};
use crate::metrics::{Outcome, END_TO_END, PER_LAYER};
use crate::spans::SpanSummary;
use crate::stats::{median, percentile};
use crate::workload::{Batch, Executor, Prepared, Workload};

/// The documented default seed (the generator's own default).
const DEFAULT_SEED: u64 = 2005;
/// Set-ups per run: at least this many, and for at least
/// [`SETUP_SECONDS`], at most [`MAX_SETUPS`].
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 200;
const SETUP_SECONDS: f64 = 1.5;
/// Upper bound on the spans one job records (job, attempt, engine,
/// scheduler phases, store probes and publishes), used to size the sink.
const SPANS_PER_JOB: usize = 16;
/// Sink shards of the traced batches.
const TRACE_SHARDS: usize = 8;

const USAGE: &str = "usage: perfbench --workload <rc_batch|grid_batch|online_stream|rc_sharded> \
[--seed N] [--seconds S] [--trace 0|1] --worker <path to the thermsched binary>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    worker: PathBuf,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut worker) = (None, None);
        let mut parsed = Args {
            workload: Workload::RcBatch,
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            worker: PathBuf::new(),
        };
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: `{value}`");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    parsed.seconds = value.parse().map_err(|_| bad())?;
                    if !(parsed.seconds > 0.0 && parsed.seconds.is_finite()) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--worker" => worker = Some(PathBuf::from(&value)),
                _ => return Err(format!("unknown option {flag}")),
            }
        }
        parsed.workload = workload.ok_or("--workload is required")?;
        parsed.worker = worker.ok_or("--worker is required")?;
        Ok(parsed)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            print!("{}", outcome.render_text(args.workload.name(), args.seed));
            println!("{}", outcome.render_json());
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {}: {message}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

/// What set-up produced: the corpora, the executor and what the first
/// batch runs on, with the timings of every repetition.
struct Setup {
    corpora: Vec<Corpus>,
    executor: Executor,
    prepared: Prepared,
    setup_s: Vec<f64>,
    corpus_build_s: Vec<f64>,
}

/// Generates the corpora and constructs the executor, several times; the
/// last repetition's products are kept.
fn set_up(args: &Args) -> Result<Setup, String> {
    let specs = args.workload.specs(args.seed);
    let started = Instant::now();
    let (mut setup_s, mut corpus_build_s) = (Vec::new(), Vec::new());
    loop {
        let clock = Instant::now();
        let corpora = specs
            .iter()
            .map(|spec| spec.build().map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        corpus_build_s.push(clock.elapsed().as_secs_f64());
        let executor = Executor::new(args.workload, &args.worker)?;
        let prepared = executor.prepare(&corpora[0], &Tracer::disabled())?;
        setup_s.push(clock.elapsed().as_secs_f64());
        let enough =
            setup_s.len() >= MIN_SETUPS && started.elapsed().as_secs_f64() >= SETUP_SECONDS;
        if enough || setup_s.len() >= MAX_SETUPS {
            return Ok(Setup {
                corpora,
                executor,
                prepared,
                setup_s,
                corpus_build_s,
            });
        }
        prepared.discard();
    }
}

/// A tracer whose sink holds every span a batch of `corpus` can record.
fn sized_tracer(corpus: &Corpus) -> Tracer {
    Tracer::new(TracerConfig {
        shards: TRACE_SHARDS,
        capacity_per_shard: corpus.jobs().len() * SPANS_PER_JOB / TRACE_SHARDS + 1024,
        ..TracerConfig::default()
    })
}

/// The figures kept from one untraced batch.
struct Timed {
    wall_s: f64,
    jobs: usize,
    latency_s: Vec<f64>,
    schedule_length_s: Vec<f64>,
}

impl Timed {
    fn of(batch: &Batch) -> Timed {
        let metrics = batch.jobs.iter().filter_map(|job| job.outcome.metrics());
        Timed {
            wall_s: batch.wall_s,
            jobs: batch.jobs.len(),
            latency_s: batch.latency_s.clone(),
            schedule_length_s: metrics.map(|m| m.schedule_length).collect(),
        }
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let Setup {
        corpora,
        executor,
        prepared,
        setup_s,
        corpus_build_s,
    } = set_up(args)?;
    let references = corpora
        .iter()
        .map(|corpus| Reference::run(args.workload, corpus))
        .collect::<Result<Vec<_>, _>>()?;

    let mut verdict = Verdict::default();
    let mut problems = Vec::new();
    let mut untraced: Vec<Timed> = Vec::new();
    let mut traced_wall_s = Vec::new();
    let mut layers: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut last_trace = SpanSummary::default();
    let mut prepared = Some(prepared);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    // A pass runs every corpus once. Runs end on a pass boundary, so every
    // corpus weighs the same; with tracing on, passes alternate untraced
    // and traced, so both see the same machine conditions.
    let mut passes = 0;
    let last_jobs = loop {
        let traced = args.trace && passes % 2 == 1;
        let mut last_jobs = Vec::new();
        for (corpus, reference) in corpora.iter().zip(&references) {
            let tracer = if traced {
                sized_tracer(corpus)
            } else {
                Tracer::disabled()
            };
            let ready = match prepared.take() {
                Some(ready) => ready,
                None => executor.prepare(corpus, &tracer)?,
            };
            let batch = {
                let _span = tracer.span("bench.batch");
                executor.run(ready, corpus, &tracer)?
            };
            verdict.absorb(reference.check(&batch.jobs));
            if batch.stats.worker_crashes > 0 {
                problems.push(format!("{} worker crashes", batch.stats.worker_crashes));
            }
            if traced {
                let dropped = tracer.dropped_spans();
                if dropped > 0 {
                    problems.push(format!("a traced batch dropped {dropped} spans"));
                }
                let summary = SpanSummary::from_spans(&tracer.drain());
                let prewarm = summary.get("prewarm");
                let prewarm_s = prewarm.total_s / prewarm.count.max(1) as f64;
                // The front-end prewarms when it starts, before the clock.
                if !matches!(executor, Executor::Stream(_)) && batch.wall_s < prewarm_s {
                    problems.push(format!(
                        "a timed batch ({:.6} s) is shorter than its prewarm span ({prewarm_s:.6} s)",
                        batch.wall_s
                    ));
                }
                layers.push(metrics::layers(&batch, &summary, dropped));
                traced_wall_s.push(batch.wall_s);
                last_trace = summary;
            } else {
                untraced.push(Timed::of(&batch));
            }
            last_jobs = batch.jobs;
        }
        passes += 1;
        if passes > usize::from(args.trace) && Instant::now() >= deadline {
            break last_jobs;
        }
    };

    let walls: Vec<f64> = untraced.iter().map(|t| t.wall_s).collect();
    let untraced_wall_s = median(&walls).expect("at least one untraced batch");
    let mut outcome = Outcome::new(verdict, problems);
    outcome.note(format!(
        "{} untraced batches over {} corpora, wall s min {:.6} median {untraced_wall_s:.6} max {:.6}",
        walls.len(),
        corpora.len(),
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        walls.iter().copied().fold(0.0, f64::max),
    ));
    if args.trace {
        let tracer = Tracer::new(TracerConfig::default());
        let mut figures = metrics::median_by_name(&layers);
        figures.push((
            "soc.corpus_build_ms",
            median(&corpus_build_s).expect("one setup") * 1e3,
        ));
        figures.push((
            "obs.trace_overhead_ratio",
            median(&traced_wall_s).expect("one traced batch") / untraced_wall_s,
        ));
        let last_corpus = corpora.last().expect("at least one corpus");
        figures.extend(probes::thermal(
            args.workload,
            &corpora[0],
            args.seed,
            &tracer,
        )?);
        figures.extend(probes::wire(last_corpus, &last_jobs, &tracer)?);
        figures.extend(probes::process(
            args.workload,
            args.seed,
            &args.worker,
            &tracer,
        )?);
        outcome.set(PER_LAYER, figures);
        outcome.note("spans of the last traced batch, then of the probes:".to_owned());
        let probe_trace = SpanSummary::from_spans(&tracer.drain());
        for summary in [&last_trace, &probe_trace] {
            for (name, totals) in summary.by_self_time() {
                outcome.note(format!(
                    "  {name:<32} {:>8} spans {:>14.3} ms total {:>14.3} ms self",
                    totals.count,
                    totals.total_s * 1e3,
                    totals.self_s * 1e3
                ));
            }
        }
    } else {
        // A batch executor resolves every job of a batch when its `run`
        // returns, so a batch is one latency sample; a few dozen of them are
        // too few for a 99th percentile with ten samples beyond it, and both
        // percentiles report the median batch time.
        let latency_s: Vec<f64> = match executor {
            Executor::Stream(_) => untraced
                .iter()
                .flat_map(|t| t.latency_s.iter().copied())
                .collect(),
            Executor::Runner(_) | Executor::Sharded(_) => vec![untraced_wall_s],
        };
        let lengths: Vec<f64> = untraced
            .iter()
            .flat_map(|t| t.schedule_length_s.iter().copied())
            .collect();
        let attempted: usize = untraced.iter().map(|t| t.jobs).sum();
        let completed = lengths.len();
        outcome.note(format!(
            "job_error_rate {} ratio (jobs not completed / jobs attempted, {attempted} attempted)",
            (attempted - completed) as f64 / attempted.max(1) as f64
        ));
        outcome.set(
            END_TO_END,
            vec![
                ("jobs_per_s", completed as f64 / walls.iter().sum::<f64>()),
                (
                    "job_latency_p50_ms",
                    percentile(&latency_s, 0.50).unwrap_or(0.0) * 1e3,
                ),
                (
                    "job_latency_p99_ms",
                    percentile(&latency_s, 0.99).unwrap_or(0.0) * 1e3,
                ),
                ("setup_s", median(&setup_s).expect("one setup")),
                ("peak_rss_mb", metrics::peak_rss_mb()?),
                (
                    "job_success_rate",
                    completed as f64 / attempted.max(1) as f64,
                ),
                (
                    "test_length_s",
                    lengths.iter().sum::<f64>() / lengths.len().max(1) as f64,
                ),
            ],
        );
    }
    Ok(outcome)
}
