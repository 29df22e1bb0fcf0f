//! Robustness contract of the service layer under deterministic fault
//! injection:
//!
//! * with a fixed [`FaultPlan`] seed and retries enabled, per-job
//!   [`JobResult`]s are byte-identical at 1, 4 and 8 workers and across
//!   repeated runs — faults, retries and deadlines live inside the
//!   determinism boundary;
//! * poisoning session-store shards mid-batch (while the PR-6 same-shape
//!   prewarmer is publishing through them) never changes a job result:
//!   the batch completes and matches a fault-free reference bit for bit;
//! * effort-budget deadlines produce deterministic `DeadlineExceeded`
//!   outcomes, not timing-dependent ones;
//! * the streaming front-end never loses a submission: every handle
//!   resolves to exactly one outcome, and the outcome counters add up.

use std::time::Duration;

use thermsched_service::{
    BackendKind, ClockKind, FaultPlan, Frontend, FrontendConfig, JobOutcome, JobResult,
    MultiprocConfig, MultiprocCoordinator, Priority, Rejected, RetryPolicy, ScenarioSpec,
    ServiceConfig, ServiceReport, ServiceRunner, ServiceStats, Submission,
};
use thermsched_wire::{JsonValue, Wire};

fn run(spec: &ScenarioSpec, config: ServiceConfig) -> ServiceReport {
    let corpus = spec.build().expect("spec is valid");
    ServiceRunner::new(config)
        .expect("config is valid")
        .run(&corpus)
        .expect("batch runs")
}

#[test]
fn faulted_batches_are_byte_identical_across_worker_counts_and_runs() {
    let spec = ScenarioSpec {
        seed: 99,
        scenarios: 4,
        stc_limits: vec![40.0, 80.0],
        ..ScenarioSpec::default()
    };
    let config = |workers: usize| ServiceConfig {
        workers,
        store_shards: 8,
        faults: FaultPlan {
            seed: 2026,
            panic_rate: 0.1,
            error_rate: 0.25,
            delay_rate: 0.2,
            delay_seconds: 0.001,
            poison_rate: 0.1,
        },
        retry: RetryPolicy::retries(3),
        clock: ClockKind::Virtual,
        ..ServiceConfig::default()
    };

    let reference = run(&spec, config(1));
    let stats = reference.stats();
    assert!(
        stats.injected_faults > 0,
        "the plan must actually fire:\n{}",
        reference.render_jobs()
    );
    assert!(stats.retried_attempts > 0, "retries must engage");
    assert!(stats.completed > 0, "retries must rescue some jobs");
    assert!(
        reference
            .jobs()
            .iter()
            .any(|job| job.outcome.attempts() > 1),
        "attempt accounting must show up in per-job results"
    );

    for workers in [1, 4, 8] {
        let report = run(&spec, config(workers));
        assert_eq!(
            report.jobs(),
            reference.jobs(),
            "{workers} workers changed a faulted job result"
        );
        assert_eq!(report.render_jobs(), reference.render_jobs());
        // Fault, retry and latency accounting is per-job deterministic, so
        // the aggregates cannot depend on the worker count either.
        assert_eq!(report.stats().injected_faults, stats.injected_faults);
        assert_eq!(report.stats().retried_attempts, stats.retried_attempts);
        assert_eq!(report.stats().latency, stats.latency);
    }
}

#[test]
fn poisoned_shards_mid_batch_do_not_change_results_under_the_prewarmer() {
    // Satellite of PR 7 over the PR-6 batcher: every job poisons one shard
    // of its scenario's sharded session store before phase 1, while the
    // same-shape prewarmer has already published multi-RHS results through
    // the same store. The batch must complete and match a fault-free
    // reference byte for byte at every worker count.
    let spec = ScenarioSpec {
        seed: 777,
        scenarios: 3,
        grid_shapes: vec![(3, 3)],
        stc_limits: vec![40.0, 80.0],
        ..ScenarioSpec::default()
    };
    let config = |workers: usize, poison: bool| ServiceConfig {
        workers,
        store_shards: 8,
        backend: BackendKind::GridTransient { cells_per_core: 3 },
        batch_same_shape: true,
        faults: FaultPlan {
            seed: 5,
            poison_rate: if poison { 1.0 } else { 0.0 },
            ..FaultPlan::none()
        },
        clock: ClockKind::Virtual,
        ..ServiceConfig::default()
    };

    let clean = run(&spec, config(1, false));
    assert_eq!(clean.stats().completed, clean.stats().job_count);
    assert!(
        clean.stats().prewarmed_sessions > 0,
        "the same-shape batcher must be engaged for this test to mean anything"
    );

    for workers in [1, 4, 8] {
        let poisoned = run(&spec, config(workers, true));
        assert_eq!(
            poisoned.stats().injected_faults,
            poisoned.stats().job_count,
            "every job must have poisoned a shard"
        );
        assert_eq!(
            poisoned.stats().completed,
            poisoned.stats().job_count,
            "poisoned shards must be survived, not fatal:\n{}",
            poisoned.render_jobs()
        );
        assert_eq!(
            poisoned.jobs(),
            clean.jobs(),
            "{workers} workers: shard poisoning changed a job result"
        );
        assert_eq!(
            poisoned.stats().prewarmed_sessions,
            clean.stats().prewarmed_sessions
        );
    }
}

#[test]
fn deadline_budgets_yield_deterministic_deadline_outcomes() {
    let spec = ScenarioSpec {
        seed: 42,
        scenarios: 2,
        stc_limits: vec![40.0],
        ..ScenarioSpec::default()
    };
    let config = |workers: usize| ServiceConfig {
        workers,
        deadline_effort: Some(1.0),
        clock: ClockKind::Virtual,
        ..ServiceConfig::default()
    };
    let reference = run(&spec, config(1));
    assert_eq!(
        reference.stats().deadline_exceeded,
        reference.stats().job_count,
        "a 1-second effort budget must interrupt every default-corpus job:\n{}",
        reference.render_jobs()
    );
    for job in reference.jobs() {
        match &job.outcome {
            JobOutcome::DeadlineExceeded {
                spent_effort,
                budget,
                attempts,
            } => {
                assert_eq!(*budget, 1.0);
                assert_eq!(*attempts, 1);
                assert!(*spent_effort > 1.0, "{}: {spent_effort}", job.label);
            }
            other => panic!("{}: unexpected outcome {other:?}", job.label),
        }
    }
    let parallel = run(&spec, config(4));
    assert_eq!(parallel.jobs(), reference.jobs());
}

#[test]
fn frontend_drain_never_loses_a_submission() {
    let corpus = ScenarioSpec {
        seed: 11,
        scenarios: 2,
        stc_limits: vec![40.0],
        ..ScenarioSpec::default()
    }
    .build()
    .expect("spec is valid");
    let frontend = Frontend::start(
        FrontendConfig {
            service: ServiceConfig {
                workers: 2,
                faults: FaultPlan {
                    seed: 7,
                    error_rate: 0.4,
                    ..FaultPlan::none()
                },
                retry: RetryPolicy::retries(3),
                clock: ClockKind::Virtual,
                ..ServiceConfig::default()
            },
            queue_capacity: 64,
            shed_on_full: false,
        },
        corpus.clone(),
    )
    .expect("frontend starts");

    let mut handles = Vec::new();
    for job in corpus.jobs() {
        handles.push(frontend.submit(Submission::from_job(job)));
    }
    // A per-submission deadline so tight the job must exceed it.
    handles.push(
        frontend.submit(
            Submission::from_job(&corpus.jobs()[0])
                .with_deadline_effort(0.5)
                .with_priority(Priority::High),
        ),
    );
    // Inadmissible submissions resolve immediately but still count.
    handles.push(frontend.submit(Submission::new(
        99,
        "unknown-scenario",
        corpus.jobs()[0].config,
    )));
    let submitted = handles.len();

    let report = frontend.drain(Duration::from_secs(120));
    let stats = &report.stats;
    assert_eq!(stats.job_count, submitted, "every submission is accounted");
    assert_eq!(
        stats.completed
            + stats.failed
            + stats.panicked
            + stats.deadline_exceeded
            + stats.shed
            + stats.rejected,
        submitted,
        "outcome counters must partition the submissions"
    );

    let mut saw_deadline = false;
    let mut saw_rejected = false;
    for handle in &handles {
        let result = handle
            .try_result()
            .expect("drain must resolve every handle");
        match result.outcome {
            JobOutcome::DeadlineExceeded { budget: 0.5, .. } => saw_deadline = true,
            JobOutcome::Rejected(Rejected::UnknownScenario { scenario: 99, .. }) => {
                saw_rejected = true
            }
            _ => {}
        }
    }
    assert!(saw_deadline, "the 0.5 s effort budget must be exceeded");
    assert!(saw_rejected, "the unknown scenario must resolve rejected");
    assert!(stats.completed > 0, "the stream must complete real work");
    assert_eq!(
        stats.latency.samples,
        stats.completed + stats.failed + stats.panicked + stats.deadline_exceeded
    );
}

/// The cross-executor contract: one faulted corpus (injected panics,
/// errors, delays and store poisoning, with retries and an effort-budget
/// deadline) under the virtual clock resolves to byte-identical per-job
/// results and equal outcome, fault, retry and latency accounting whether
/// it runs through the batch runner (1 and 4 workers), the streaming
/// front-end (every corpus job submitted in order) or the multi-process
/// coordinator (2 worker processes).
#[test]
fn every_executor_resolves_a_faulted_corpus_identically() {
    let corpus = ScenarioSpec {
        seed: 2024,
        scenarios: 4,
        stc_limits: vec![40.0, 80.0],
        ..ScenarioSpec::default()
    }
    .build()
    .expect("spec is valid");
    let service = |workers: usize| ServiceConfig {
        workers,
        faults: FaultPlan {
            seed: 32,
            panic_rate: 0.15,
            error_rate: 0.4,
            delay_rate: 0.2,
            delay_seconds: 0.002,
            poison_rate: 0.1,
        },
        retry: RetryPolicy::retries(2),
        clock: ClockKind::Virtual,
        // Tight enough to interrupt the largest scenario's jobs, loose
        // enough to let the others complete.
        deadline_effort: Some(17.0),
        ..ServiceConfig::default()
    };
    let jobs_bytes = |jobs: &[JobResult]| {
        JsonValue::Array(jobs.iter().map(Wire::to_wire).collect())
            .render_compact()
            .expect("job results render")
    };
    let runner = |workers: usize| {
        let report = ServiceRunner::new(service(workers))
            .expect("config is valid")
            .run(&corpus)
            .expect("batch runs");
        (report.jobs().to_vec(), report.stats().clone())
    };

    let (reference, stats) = runner(1);
    assert_eq!(reference.len(), corpus.jobs().len());
    assert!(stats.injected_faults > 0, "the plan must fire");
    assert!(stats.retried_attempts > 0, "retries must engage");
    // Every executed outcome kind occurs, so each counter is compared on
    // a non-zero value.
    assert!(
        stats.completed > 0
            && stats.failed > 0
            && stats.panicked > 0
            && stats.deadline_exceeded > 0,
        "the plan must produce every outcome kind: {stats:?}"
    );
    assert!(stats.latency.samples > 0 && stats.latency.max_seconds > 0.0);

    let frontend = Frontend::start(
        FrontendConfig {
            service: service(2),
            queue_capacity: corpus.jobs().len(),
            shed_on_full: false,
        },
        corpus.clone(),
    )
    .expect("frontend starts");
    let handles: Vec<_> = corpus
        .jobs()
        .iter()
        .map(|job| frontend.submit(Submission::from_job(job)))
        .collect();
    let streamed: Vec<JobResult> = handles.iter().map(|handle| handle.wait()).collect();
    let streamed_stats = frontend.drain(Duration::from_secs(120)).stats;

    let sharded = MultiprocCoordinator::new(MultiprocConfig {
        processes: 2,
        program: env!("CARGO_BIN_EXE_thermsched").into(),
        args: vec!["worker".to_owned()],
        service: service(1),
    })
    .expect("config is valid")
    .run(&corpus)
    .expect("sharded run succeeds");

    let candidates = [
        ("runner, 4 workers", runner(4)),
        ("frontend", (streamed, streamed_stats)),
        (
            "multiproc, 2 processes",
            (sharded.jobs().to_vec(), sharded.stats().clone()),
        ),
    ];
    for (executor, (jobs, other)) in &candidates {
        assert_eq!(
            jobs_bytes(jobs),
            jobs_bytes(&reference),
            "{executor}: per-job results diverged"
        );
        let counts = |s: &ServiceStats| {
            (
                s.completed,
                s.failed,
                s.panicked,
                s.deadline_exceeded,
                s.injected_faults,
                s.retried_attempts,
            )
        };
        assert_eq!(
            counts(other),
            counts(&stats),
            "{executor}: counters diverged"
        );
        assert_eq!(other.latency, stats.latency, "{executor}: latency diverged");
    }
}
