//! The correctness gate. A one-worker in-process run of the corpus is the
//! reference; every timed batch must reproduce each corpus job's
//! `JobOutcome` wire bytes exactly (per-job results do not depend on the
//! worker or process count), every job must complete, and every completed
//! job must stay at or below the temperature limit it enforced.

use thermsched_service::{Corpus, JobOutcome, JobResult, ServiceConfig, ServiceRunner};
use thermsched_wire::Wire;

use crate::workload::Workload;

/// The reference outcome bytes of every corpus job, in corpus order.
pub struct Reference {
    outcomes: Vec<Vec<u8>>,
}

impl Reference {
    /// Runs `corpus` through a one-worker `ServiceRunner` under the
    /// workload's service configuration.
    pub fn run(workload: Workload, corpus: &Corpus) -> Result<Reference, String> {
        let runner = ServiceRunner::new(ServiceConfig {
            workers: 1,
            ..workload.service()
        })
        .map_err(|e| e.to_string())?;
        let report = runner.run(corpus).map_err(|e| e.to_string())?;
        Ok(Reference::from_results(report.jobs()))
    }

    /// The reference made of `jobs` (corpus order).
    pub fn from_results(jobs: &[JobResult]) -> Reference {
        Reference {
            outcomes: jobs.iter().map(|job| encode(&job.outcome)).collect(),
        }
    }

    /// Checks one batch's results, given in corpus order.
    pub fn check(&self, jobs: &[JobResult]) -> Verdict {
        let mut verdict = Verdict {
            jobs: jobs.len().max(self.outcomes.len()),
            ..Verdict::default()
        };
        for index in 0..verdict.jobs {
            let (job, reference) = (jobs.get(index), self.outcomes.get(index));
            let matches = job.is_some_and(|job| Some(&encode(&job.outcome)) == reference);
            let metrics = job.and_then(|job| job.outcome.metrics());
            let cool = metrics.is_some_and(|m| m.max_temperature <= m.effective_temperature_limit);
            verdict.completed += usize::from(metrics.is_some());
            verdict.mismatched += usize::from(!matches);
            verdict.over_limit += usize::from(metrics.is_some() && !cool);
            verdict.failed += usize::from(!(matches && cool));
        }
        verdict
    }
}

/// The outcome's wire bytes; an outcome that cannot be encoded gets bytes
/// no real encoding produces, so it never matches.
fn encode(outcome: &JobOutcome) -> Vec<u8> {
    outcome.to_binary().unwrap_or_default()
}

/// What the gate found over one or more batches.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Jobs checked.
    pub jobs: usize,
    /// Jobs that completed.
    pub completed: usize,
    /// Jobs whose outcome bytes differ from the reference (or that are
    /// missing on either side).
    pub mismatched: usize,
    /// Completed jobs hotter than their enforced limit.
    pub over_limit: usize,
    /// Jobs that failed any check, or did not complete.
    pub failed: usize,
}

impl Verdict {
    /// Adds another batch's verdict.
    pub fn absorb(&mut self, other: Verdict) {
        self.jobs += other.jobs;
        self.completed += other.completed;
        self.mismatched += other.mismatched;
        self.over_limit += other.over_limit;
        self.failed += other.failed;
    }

    /// Whether every job completed and passed every check.
    pub fn passed(&self) -> bool {
        self.jobs > 0 && self.failed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermsched_service::ScenarioSpec;

    fn corpus() -> Corpus {
        ScenarioSpec {
            scenarios: 3,
            seed: 11,
            ..ScenarioSpec::default()
        }
        .build()
        .expect("corpus builds")
    }

    fn batch(corpus: &Corpus) -> Vec<JobResult> {
        ServiceRunner::new(Workload::RcBatch.service())
            .expect("valid config")
            .run(corpus)
            .expect("batch runs")
            .jobs()
            .to_vec()
    }

    fn completed(job: &mut JobResult) -> &mut thermsched_service::JobMetrics {
        match &mut job.outcome {
            JobOutcome::Completed(metrics) => metrics,
            other => panic!("job did not complete: {other:?}"),
        }
    }

    #[test]
    fn an_untouched_batch_passes() {
        let corpus = corpus();
        let reference = Reference::run(Workload::RcBatch, &corpus).expect("reference runs");
        let verdict = reference.check(&batch(&corpus));
        assert_eq!(verdict.jobs, 6);
        assert!(verdict.passed(), "{verdict:?}");
    }

    #[test]
    fn a_tampered_outcome_is_rejected() {
        let corpus = corpus();
        let reference = Reference::run(Workload::RcBatch, &corpus).expect("reference runs");
        let mut jobs = batch(&corpus);
        let metrics = completed(&mut jobs[2]);
        metrics.schedule_length = f64::from_bits(metrics.schedule_length.to_bits() + 1);
        let verdict = reference.check(&jobs);
        assert_eq!((verdict.mismatched, verdict.failed), (1, 1));
        assert!(!verdict.passed());
    }

    #[test]
    fn a_missing_or_failed_job_is_rejected() {
        let corpus = corpus();
        let reference = Reference::run(Workload::RcBatch, &corpus).expect("reference runs");
        let mut jobs = batch(&corpus);
        jobs.pop();
        assert_eq!(reference.check(&jobs).failed, 1);
        jobs[0].outcome = JobOutcome::Panicked {
            message: "boom".to_owned(),
            attempts: 1,
        };
        let verdict = reference.check(&jobs);
        assert_eq!((verdict.completed, verdict.failed), (4, 2));
        assert!(!verdict.passed());
    }

    #[test]
    fn a_job_over_its_limit_is_rejected_even_when_it_matches() {
        let corpus = corpus();
        let mut jobs = batch(&corpus);
        let metrics = completed(&mut jobs[1]);
        metrics.max_temperature = metrics.effective_temperature_limit + 0.5;
        let reference = Reference::from_results(&jobs);
        let verdict = reference.check(&jobs);
        assert_eq!(
            (verdict.mismatched, verdict.over_limit, verdict.failed),
            (0, 1, 1)
        );
        assert!(!verdict.passed());
    }
}
