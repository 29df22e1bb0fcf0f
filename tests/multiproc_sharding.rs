//! Cross-process determinism and robustness for the sharding coordinator.
//!
//! These tests spawn the real `thermsched` binary (located through
//! `CARGO_BIN_EXE_thermsched`) as worker processes, proving the property
//! the in-crate protocol tests cannot: the per-job results that come back
//! over the pipes are byte-identical to an in-process run, at every
//! process count, and even when a worker is deliberately killed mid-run.

use std::path::PathBuf;

use thermsched_service::{
    BackendKind, Corpus, JobResult, MultiprocConfig, MultiprocCoordinator, ScenarioSpec,
    ServiceConfig, ServiceReport, ServiceRunner,
};
use thermsched_wire::{JsonValue, Wire};

fn worker_binary() -> PathBuf {
    env!("CARGO_BIN_EXE_thermsched").into()
}

fn corpus() -> Corpus {
    ScenarioSpec {
        scenarios: 2,
        seed: 97,
        ..ScenarioSpec::default()
    }
    .build()
    .expect("test corpus builds")
}

fn run_inprocess(corpus: &Corpus) -> ServiceReport {
    ServiceRunner::new(ServiceConfig::default())
        .expect("valid config")
        .run(corpus)
        .expect("in-process run succeeds")
}

fn run_multiproc(corpus: &Corpus, processes: usize, worker_args: &[&str]) -> ServiceReport {
    run_multiproc_with(corpus, processes, worker_args, ServiceConfig::default())
}

fn run_multiproc_with(
    corpus: &Corpus,
    processes: usize,
    worker_args: &[&str],
    service: ServiceConfig,
) -> ServiceReport {
    MultiprocCoordinator::new(MultiprocConfig {
        processes,
        program: worker_binary(),
        args: worker_args.iter().map(|s| (*s).to_owned()).collect(),
        service,
    })
    .expect("valid config")
    .run(corpus)
    .expect("multiproc run succeeds")
}

/// Canonical byte-level rendering of the deterministic slice of a report:
/// the per-job results, in corpus order, as one JSON array.
fn jobs_bytes(jobs: &[JobResult]) -> String {
    JsonValue::Array(jobs.iter().map(Wire::to_wire).collect())
        .render_compact()
        .expect("job results render")
}

#[test]
fn per_job_results_are_byte_identical_across_process_counts() {
    let corpus = corpus();
    let baseline = run_inprocess(&corpus);
    let expected = jobs_bytes(baseline.jobs());

    for processes in [1usize, 2, 4] {
        let report = run_multiproc(&corpus, processes, &["worker"]);
        // Structural equality first (better failure messages), then the
        // byte-level guarantee the golden files and CLI lean on.
        assert_eq!(
            report.jobs(),
            baseline.jobs(),
            "jobs diverged at {processes} processes"
        );
        assert_eq!(
            jobs_bytes(report.jobs()),
            expected,
            "wire bytes diverged at {processes} processes"
        );
        let stats = report.stats();
        assert_eq!(stats.job_count, corpus.jobs().len());
        assert_eq!(stats.completed, baseline.stats().completed);
        assert_eq!(stats.worker_crashes, 0);
    }
}

#[test]
fn a_worker_killed_mid_run_is_detected_and_its_jobs_reassigned() {
    let corpus = corpus();
    let baseline = run_inprocess(&corpus);

    // Two scenarios over 2 workers: worker 1 is dealt one scenario's
    // group of two jobs. The crash plan arms only on worker 1 and fires
    // after it has resolved one job, so it answers the group's first job
    // and silently dies on the second. The coordinator must notice the
    // dead pipe, count the crash, and finish that job on worker 0 — with
    // results still byte-identical.
    let report = run_multiproc(
        &corpus,
        2,
        &["worker", "--exit-after", "1", "--exit-worker", "1"],
    );

    assert_eq!(report.stats().worker_crashes, 1);
    assert_eq!(report.stats().completed, baseline.stats().completed);
    assert_eq!(report.jobs(), baseline.jobs());
    assert_eq!(jobs_bytes(report.jobs()), jobs_bytes(baseline.jobs()));
}

#[test]
fn a_dead_workers_unstarted_groups_move_with_their_scenarios() {
    // Six scenarios over 2 workers: each worker is dealt several whole
    // scenario groups, and no scenario is sent to both. Worker 1 dies
    // after its first job, still holding the rest of that group and every
    // later group — scenarios worker 0 never received. The survivor must
    // get their definitions along with the jobs, and the results must not
    // change.
    let corpus = ScenarioSpec {
        scenarios: 6,
        seed: 97,
        ..ScenarioSpec::default()
    }
    .build()
    .expect("test corpus builds");
    let baseline = run_inprocess(&corpus);

    let report = run_multiproc(
        &corpus,
        2,
        &["worker", "--exit-after", "1", "--exit-worker", "1"],
    );

    assert_eq!(report.stats().worker_crashes, 1);
    assert_eq!(report.stats().completed, corpus.jobs().len());
    assert_eq!(report.jobs(), baseline.jobs());
    assert_eq!(jobs_bytes(report.jobs()), jobs_bytes(baseline.jobs()));
}

#[test]
fn sharded_store_counters_equal_a_one_worker_in_process_run() {
    // The grid backend batches same-shape sessions, so prewarm really
    // publishes sessions; every scenario's jobs then run in corpus order
    // on one worker, exactly as on a single in-process worker.
    let corpus = ScenarioSpec {
        scenarios: 3,
        seed: 97,
        ..ScenarioSpec::default()
    }
    .build()
    .expect("test corpus builds");
    let service = ServiceConfig {
        workers: 1,
        backend: BackendKind::GridTransient { cells_per_core: 2 },
        batch_same_shape: true,
        ..ServiceConfig::default()
    };
    let baseline = ServiceRunner::new(service)
        .expect("valid config")
        .run(&corpus)
        .expect("in-process run succeeds");
    let expected = baseline.stats();
    assert!(expected.prewarmed_sessions > 0);
    assert!(expected.store.hits > 0);

    for processes in [1usize, 2, 4] {
        let report = run_multiproc_with(&corpus, processes, &["worker"], service);
        let stats = report.stats();
        assert_eq!(stats.store.lookups, expected.store.lookups, "{processes}");
        assert_eq!(stats.store.hits, expected.store.hits, "{processes}");
        assert_eq!(
            stats.store.insertions, expected.store.insertions,
            "{processes}"
        );
        assert_eq!(
            stats.prewarmed_sessions, expected.prewarmed_sessions,
            "{processes}"
        );
        assert_eq!(report.jobs(), baseline.jobs());
    }
}

#[test]
fn every_worker_dying_is_a_typed_error_not_a_hang() {
    let corpus = corpus();
    // Every process shares the unrestricted plan, so after each worker
    // resolves one job the whole fleet is gone and reassignment cannot
    // save the run. The coordinator must fail with the multiproc error
    // rather than deadlock waiting on closed pipes.
    let result = MultiprocCoordinator::new(MultiprocConfig {
        processes: 2,
        program: worker_binary(),
        args: vec![
            "worker".to_owned(),
            "--exit-after".to_owned(),
            "1".to_owned(),
        ],
        service: ServiceConfig::default(),
    })
    .expect("valid config")
    .run(&corpus);
    assert!(matches!(
        result,
        Err(thermsched_service::ServiceError::Multiproc { .. })
    ));
}
