//! Streaming front-end latency under admission pressure.
//!
//! One question, answered on one machine and recorded to `BENCH_pr7.json`
//! (alongside, never overwriting, the frozen `BENCH_pr2..6.json` history):
//! what do the robustness layers cost and do under load? A fixed burst of
//! mixed-priority submissions is streamed through a two-worker [`Frontend`]
//! with a seeded fault plan (30% retryable injected errors, three attempts
//! per job) at several ingress-queue capacities, and the drain report's
//! p50/p99 queueing latency plus the shed/reject/retry counters are
//! recorded per capacity. Small queues trade latency for displacement —
//! the burst outruns the workers, so low-priority work is shed — while
//! large queues admit everything and pay for it in sojourn time.
//!
//! Submission order is deterministic (so the fault plan's injections are
//! too); the latency percentiles and the queue-occupancy counters are the
//! machine-dependent part, which is exactly what the baseline captures.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use thermsched_bench::baseline_recording_enabled;
use thermsched_service::{
    Corpus, DrainReport, FaultPlan, Frontend, FrontendConfig, Priority, RetryPolicy, ScenarioSpec,
    ServiceConfig, Submission,
};

/// Submissions per streamed burst.
const BURST: usize = 24;
/// Worker threads of the front-end.
const WORKERS: usize = 2;
/// Queue capacities of the recorded curve.
const CAPACITIES: [usize; 3] = [2, 8, 32];

fn corpus() -> Corpus {
    ScenarioSpec {
        seed: 2005,
        scenarios: 2,
        stc_limits: vec![40.0],
        ..ScenarioSpec::default()
    }
    .build()
    .expect("bench spec is valid")
}

fn config(queue_capacity: usize) -> FrontendConfig {
    FrontendConfig {
        service: ServiceConfig {
            workers: WORKERS,
            store_shards: 8,
            faults: FaultPlan {
                seed: 7,
                error_rate: 0.3,
                ..FaultPlan::none()
            },
            retry: RetryPolicy::retries(3),
            ..ServiceConfig::default()
        },
        queue_capacity,
        shed_on_full: true,
    }
}

/// Streams one burst through a fresh front-end and drains it: high/normal/
/// low priorities cycle through the burst, so under pressure the low class
/// is displaced first.
fn stream_once(queue_capacity: usize) -> DrainReport {
    let corpus = corpus();
    let frontend =
        Frontend::start(config(queue_capacity), corpus.clone()).expect("frontend starts");
    let jobs = corpus.jobs();
    let handles: Vec<_> = (0..BURST)
        .map(|i| {
            let submission = Submission::from_job(&jobs[i % jobs.len()]);
            let submission = match i % 3 {
                0 => submission.with_priority(Priority::High),
                1 => submission,
                _ => submission.with_priority(Priority::Low),
            };
            frontend.submit(submission)
        })
        .collect();
    for handle in &handles {
        handle.wait();
    }
    frontend.drain(Duration::from_secs(60))
}

/// The benchmark ids whose selection allows (re)recording `BENCH_pr7.json`.
const RECORDED_IDS: [&str; 1] = ["frontend_latency/stream-8"];

fn bench_frontend(c: &mut Criterion) {
    let record = baseline_recording_enabled(&RECORDED_IDS);

    let mut group = c.benchmark_group("frontend_latency");
    group.sample_size(10);
    group.bench_function("stream-8", |b| b.iter(|| stream_once(8)));
    group.bench_function("stream-32", |b| b.iter(|| stream_once(32)));
    group.finish();

    if record {
        let mut rows = Vec::new();
        for capacity in CAPACITIES {
            let report = stream_once(capacity);
            let s = &report.stats;
            println!(
                "frontend_latency capacity {capacity}: p50 {:.3} ms, p99 {:.3} ms, \
                 completed {}, shed {}, rejected {}, retried attempts {}",
                s.latency.p50_seconds * 1e3,
                s.latency.p99_seconds * 1e3,
                s.completed,
                s.shed,
                s.rejected,
                s.retried_attempts
            );
            rows.push((capacity, report));
        }
        write_baseline(&rows);
    }
}

/// Records the measured numbers as `BENCH_pr7.json` at the workspace root.
/// Hand-rolled JSON: the workspace has no registry access, hence no serde.
fn write_baseline(rows: &[(usize, DrainReport)]) {
    let mut points = String::new();
    for (i, (capacity, report)) in rows.iter().enumerate() {
        if i > 0 {
            points.push_str(",\n");
        }
        let s = &report.stats;
        points.push_str(&format!(
            "    {{\n      \"queue_capacity\": {capacity},\n      \
             \"p50_ms\": {:.4},\n      \"p99_ms\": {:.4},\n      \
             \"max_ms\": {:.4},\n      \"completed\": {},\n      \
             \"shed\": {},\n      \"rejected\": {},\n      \
             \"retried_attempts\": {},\n      \"injected_faults\": {}\n    }}",
            s.latency.p50_seconds * 1e3,
            s.latency.p99_seconds * 1e3,
            s.latency.max_seconds * 1e3,
            s.completed,
            s.shed,
            s.rejected,
            s.retried_attempts,
            s.injected_faults,
        ));
    }
    let json = format!(
        "{{\n  \"pr\": 7,\n  \"bench\": \"frontend_latency\",\n  \"description\": \"Streaming front-end latency and robustness counters under admission pressure: a fixed burst of {BURST} mixed-priority submissions streamed through a {WORKERS}-worker Frontend with a seeded fault plan (30% retryable injected errors, up to 3 attempts per job), at several ingress-queue capacities. Per capacity the drain report's p50/p99/max queueing latency and the shed/reject/retry/injection counters are recorded. Small queues displace low-priority work (shed_on_full) and keep latency low; large queues admit the whole burst and pay in sojourn time. Submission order and therefore fault injection are deterministic; the latencies and occupancy counters are the machine-dependent signal.\",\n  \"metadata\": {{\n    \"caveat\": \"single-CPU container timings; absolute milliseconds are machine-specific, the shape of the latency-vs-capacity curve is the signal\",\n    \"burst\": {BURST},\n    \"workers\": {WORKERS},\n    \"error_rate\": 0.3,\n    \"max_attempts\": 3\n  }},\n  \"queue_depths\": [\n{points}\n  ]\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr7.json");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("warning: could not write {path}: {e}");
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_frontend
}
criterion_main!(benches);
