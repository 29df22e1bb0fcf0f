//! Per-layer attribution of a drained trace: total and self time per span
//! name, and the duration of each job's root span.
//!
//! A span's self time is its duration minus the part of its interval that
//! its child spans cover. Children are found through the `(job, parent)`
//! links of [`SpanRecord`]; run-level spans (no job) have no children, so
//! their self time is their duration.

use std::collections::{BTreeMap, HashMap};

use thermsched_obs::SpanRecord;

/// Aggregates of every span sharing one name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed wall durations in seconds.
    pub total_s: f64,
    /// Summed self times in seconds.
    pub self_s: f64,
}

/// What one traced batch's spans say per layer.
#[derive(Debug, Default)]
pub struct SpanSummary {
    by_name: BTreeMap<String, NameTotals>,
    job_s: HashMap<u64, f64>,
}

impl SpanSummary {
    /// Summarises `spans` (one batch's drained trace).
    pub fn from_spans(spans: &[SpanRecord]) -> Self {
        let mut children: HashMap<(u64, u64), Vec<&SpanRecord>> = HashMap::new();
        for span in spans {
            if let (Some(job), Some(parent)) = (span.job, span.parent) {
                children.entry((job, parent)).or_default().push(span);
            }
        }
        let mut summary = SpanSummary::default();
        for span in spans {
            let covered = span
                .job
                .and_then(|job| children.get(&(job, span.seq)))
                .map_or(0.0, |kids| covered_seconds(span, kids));
            let totals = summary.by_name.entry(span.name.clone()).or_default();
            totals.count += 1;
            totals.total_s += span.duration_seconds;
            totals.self_s += (span.duration_seconds - covered).max(0.0);
            if let (Some(job), "job") = (span.job, span.name.as_str()) {
                summary.job_s.insert(job, span.duration_seconds);
            }
        }
        summary
    }

    /// Totals of the spans named `name` (all zero when there are none).
    pub fn get(&self, name: &str) -> NameTotals {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Every span name with its totals, largest self time first.
    pub fn by_self_time(&self) -> Vec<(&str, NameTotals)> {
        let mut names: Vec<(&str, NameTotals)> = self
            .by_name
            .iter()
            .map(|(name, t)| (name.as_str(), *t))
            .collect();
        names.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
        names
    }

    /// Duration in seconds of the `job` span of job `job`.
    pub fn job_seconds(&self, job: u64) -> Option<f64> {
        self.job_s.get(&job).copied()
    }
}

/// Length of the union of the children's intervals, clipped to the
/// parent's interval.
fn covered_seconds(parent: &SpanRecord, children: &[&SpanRecord]) -> f64 {
    let start = parent.start_seconds;
    let end = start + parent.duration_seconds;
    let mut intervals: Vec<(f64, f64)> = children
        .iter()
        .map(|c| {
            (
                c.start_seconds.max(start),
                (c.start_seconds + c.duration_seconds).min(end),
            )
        })
        .collect();
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = f64::NEG_INFINITY;
    for (from, to) in intervals {
        let from = from.max(reach);
        if to > from {
            covered += to - from;
            reach = to;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &str,
        job: Option<u64>,
        seq: u64,
        parent: Option<u64>,
        at: f64,
        len: f64,
    ) -> SpanRecord {
        SpanRecord {
            name: name.to_owned(),
            job,
            seq,
            parent,
            start_seconds: at,
            duration_seconds: len,
            attrs: Vec::new(),
        }
    }

    fn assert_close(actual: f64, expected: f64) {
        assert!((actual - expected).abs() < 1e-12, "{actual} != {expected}");
    }

    /// job 7: job [0, 10] > attempt [1, 9] > engine [2, 8] > phase1 [2, 4]
    /// (> probe [2, 2.5]) and phase2 [4, 7.5]; plus a run-level prewarm.
    fn tree() -> Vec<SpanRecord> {
        let j = Some(7);
        vec![
            span("job", j, 0, None, 0.0, 10.0),
            span("attempt", j, 1, Some(0), 1.0, 8.0),
            span("engine.schedule", j, 2, Some(1), 2.0, 6.0),
            span("scheduler.phase1", j, 3, Some(2), 2.0, 2.0),
            span("store.probe", j, 4, Some(3), 2.0, 0.5),
            span("scheduler.phase2", j, 5, Some(2), 4.0, 3.5),
            span("prewarm", None, 0, None, 0.0, 3.0),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let summary = SpanSummary::from_spans(&tree());
        assert_close(summary.get("job").self_s, 2.0);
        assert_close(summary.get("attempt").self_s, 2.0);
        assert_close(summary.get("engine.schedule").self_s, 0.5);
        assert_close(summary.get("scheduler.phase1").self_s, 1.5);
        assert_close(summary.get("scheduler.phase2").self_s, 3.5);
        assert_close(summary.get("store.probe").self_s, 0.5);
        assert_close(summary.get("prewarm").self_s, 3.0);
        assert_close(summary.get("engine.schedule").total_s, 6.0);
        assert_eq!(summary.get("missing"), NameTotals::default());
        assert_eq!(summary.job_seconds(7), Some(10.0));
        assert_eq!(summary.job_seconds(8), None);
    }

    #[test]
    fn self_times_sum_to_the_root_duration() {
        let spans = tree();
        let summary = SpanSummary::from_spans(&spans);
        let job_self: f64 = spans
            .iter()
            .filter(|s| s.job.is_some())
            .map(|s| s.name.as_str())
            .map(|name| summary.get(name).self_s)
            .sum();
        assert_close(job_self, 10.0);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("parent", Some(1), 0, None, 0.0, 4.0),
            span("a", Some(1), 1, Some(0), 0.5, 2.0),
            span("b", Some(1), 2, Some(0), 1.5, 1.0),
            span("c", Some(1), 3, Some(0), 3.5, 2.0),
            // Same seq numbers in another job must not be mistaken for
            // children of job 1's parent.
            span("other", Some(2), 1, Some(0), 0.0, 4.0),
        ];
        let summary = SpanSummary::from_spans(&spans);
        // Covered: [0.5, 2.5] and [3.5, 4.0] = 2.5 of 4.
        assert_close(summary.get("parent").self_s, 1.5);
    }
}
