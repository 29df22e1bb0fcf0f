//! The metric catalogue, the per-layer figures of a traced batch, and the
//! rendering of a run's outcome.

use std::fmt::Write as _;

use crate::gate::Verdict;
use crate::spans::SpanSummary;
use crate::stats::{median, percentile};
use crate::workload::Batch;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn metric(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// What a user of the service sees; printed with `--trace 0`.
pub const END_TO_END: &[Metric] = &[
    metric("jobs_per_s", "1/s", "higher"),
    metric("job_latency_p50_ms", "ms", "lower"),
    metric("job_latency_p99_ms", "ms", "lower"),
    metric("setup_s", "s", "lower"),
    metric("peak_rss_mb", "MB", "lower"),
    metric("job_success_rate", "ratio", "higher"),
    metric("test_length_s", "sim_s", "lower"),
];

/// Single layers; printed with `--trace 1`.
pub const PER_LAYER: &[Metric] = &[
    metric("soc.corpus_build_ms", "ms", "lower"),
    metric("scheduler.phase1_self_us", "us", "lower"),
    metric("scheduler.phase2_self_us", "us", "lower"),
    metric("engine.schedule_self_us", "us", "lower"),
    metric("store.probe_us", "us", "lower"),
    metric("store.publish_us", "us", "lower"),
    metric("store.lookups_per_job", "count", "lower"),
    metric("store.contended_locks", "count", "lower"),
    metric("store.hit_rate", "ratio", "higher"),
    metric("scheduler.effort_s", "sim_s", "lower"),
    metric("scheduler.discard_ratio", "ratio", "lower"),
    metric("operator_cache.hit_rate", "ratio", "higher"),
    metric("thermal.build_ms", "ms", "lower"),
    metric("thermal.session_us", "us", "lower"),
    metric("thermal.batch_session_us", "us", "lower"),
    metric("thermal.trace_session_us", "us", "lower"),
    metric("service.backend_build_ms", "ms", "lower"),
    metric("service.prewarm_ms", "ms", "lower"),
    metric("service.attempt_self_us", "us", "lower"),
    metric("service.queue_us_p50", "us", "lower"),
    metric("service.prewarmed_sessions", "count", "higher"),
    metric("service.worker_crashes", "count", "lower"),
    metric("wire.corpus_kb", "KiB", "lower"),
    metric("wire.corpus_encode_ms", "ms", "lower"),
    metric("wire.corpus_decode_ms", "ms", "lower"),
    metric("wire.results_encode_ms", "ms", "lower"),
    metric("proc.roundtrip_ms", "ms", "lower"),
    metric("proc.inprocess_ratio", "ratio", "lower"),
    metric("obs.trace_overhead_ratio", "ratio", "lower"),
    metric("obs.dropped_spans", "count", "lower"),
];

/// The per-layer figures of one traced batch: span self and total times
/// per job, the executor's counts, and the deterministic work counts of
/// the results.
pub fn layers(batch: &Batch, spans: &SpanSummary, dropped_spans: u64) -> Vec<(&'static str, f64)> {
    let jobs = batch.jobs.len().max(1) as f64;
    let self_us = |name| spans.get(name).self_s / jobs * 1e6;
    let total_us = |name| spans.get(name).total_s / jobs * 1e6;
    let completed: Vec<_> = batch
        .jobs
        .iter()
        .filter_map(|j| j.outcome.metrics())
        .collect();
    let effort: f64 = completed.iter().map(|m| m.simulation_effort).sum();
    let sessions: usize = completed.iter().map(|m| m.session_count).sum();
    let discarded: usize = completed.iter().map(|m| m.discarded_sessions).sum();
    // Client latency minus the job's own span: time spent queued, and for
    // a batch, waiting for the rest of the batch.
    let queue_us: Vec<f64> = batch
        .job_ids
        .iter()
        .zip(&batch.latency_s)
        .filter_map(|(&id, latency)| spans.job_seconds(id).map(|job| (latency - job) * 1e6))
        .collect();
    let stats = &batch.stats;
    vec![
        ("scheduler.phase1_self_us", self_us("scheduler.phase1")),
        ("scheduler.phase2_self_us", self_us("scheduler.phase2")),
        ("engine.schedule_self_us", self_us("engine.schedule")),
        ("service.attempt_self_us", self_us("attempt")),
        ("store.probe_us", total_us("store.probe")),
        ("store.publish_us", total_us("store.publish")),
        ("store.lookups_per_job", stats.store.lookups as f64 / jobs),
        ("store.contended_locks", stats.store.contended_locks as f64),
        ("store.hit_rate", stats.store.hit_rate()),
        ("scheduler.effort_s", effort / completed.len().max(1) as f64),
        (
            "scheduler.discard_ratio",
            discarded as f64 / (sessions + discarded).max(1) as f64,
        ),
        ("operator_cache.hit_rate", stats.operator_cache.hit_rate()),
        (
            "service.backend_build_ms",
            spans.get("backend.build").total_s * 1e3,
        ),
        ("service.prewarm_ms", spans.get("prewarm").total_s * 1e3),
        (
            "service.queue_us_p50",
            percentile(&queue_us, 0.5).unwrap_or(0.0),
        ),
        (
            "service.prewarmed_sessions",
            stats.prewarmed_sessions as f64,
        ),
        ("service.worker_crashes", stats.worker_crashes as f64),
        ("obs.dropped_spans", dropped_spans as f64),
    ]
}

/// The per-name median over several batches' figures.
pub fn median_by_name(batches: &[Vec<(&'static str, f64)>]) -> Vec<(&'static str, f64)> {
    let Some(first) = batches.first() else {
        return Vec::new();
    };
    first
        .iter()
        .map(|&(name, _)| {
            let values: Vec<f64> = batches
                .iter()
                .flat_map(|figures| figures.iter().filter(|f| f.0 == name).map(|f| f.1))
                .collect();
            (name, median(&values).expect("the name came from a batch"))
        })
        .collect()
}

/// Peak resident set (VmHWM) of this process in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// A finished run: the gate's verdict, any other failed check, notes, and
/// the reported metrics.
pub struct Outcome {
    verdict: Verdict,
    problems: Vec<String>,
    notes: Vec<String>,
    metrics: Vec<(&'static Metric, f64)>,
}

impl Outcome {
    pub fn new(verdict: Verdict, problems: Vec<String>) -> Outcome {
        Outcome {
            verdict,
            problems,
            notes: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Adds an informational line to the text report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Reports every metric of `catalogue` from `figures`. A metric that is
    /// missing or not finite, or a figure outside the catalogue, fails the
    /// run.
    pub fn set(&mut self, catalogue: &'static [Metric], figures: Vec<(&'static str, f64)>) {
        for metric in catalogue {
            match figures.iter().find(|f| f.0 == metric.name) {
                Some(&(_, value)) if value.is_finite() => self.metrics.push((metric, value)),
                _ => self
                    .problems
                    .push(format!("metric {} is missing or not finite", metric.name)),
            }
        }
        for (name, _) in figures {
            if !catalogue.iter().any(|m| m.name == name) {
                self.problems
                    .push(format!("figure {name} is not in the catalogue"));
            }
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.verdict.passed() && self.problems.is_empty()
    }

    /// The human-readable report.
    pub fn render_text(&self, workload: &str, seed: u64) -> String {
        let mut text = format!("perfbench {workload} (seed {seed})\n");
        for (metric, value) in &self.metrics {
            let _ = writeln!(
                text,
                "  {:<28} {:>16.6} {:<6} ({} is better)",
                metric.name, value, metric.unit, metric.better
            );
        }
        for note in &self.notes {
            let _ = writeln!(text, "  {note}");
        }
        let v = &self.verdict;
        let _ = writeln!(
            text,
            "correctness: {} ({} jobs checked against the one-worker reference: {} completed, \
             {} mismatched, {} over their limit)",
            if self.correct() { "PASS" } else { "FAIL" },
            v.jobs,
            v.completed,
            v.mismatched,
            v.over_limit
        );
        for problem in &self.problems {
            let _ = writeln!(text, "  problem: {problem}");
        }
        text
    }

    /// The one-line JSON result.
    pub fn render_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(metric, value)| {
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    metric.name, metric.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.verdict.jobs,
            self.verdict.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermsched_wire::JsonValue;

    /// The catalogue and `BENCHMARK.json` name the same metrics with the
    /// same units.
    #[test]
    fn catalogue_matches_the_benchmark_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let manifest = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String, String)> = manifest
                .get(key)
                .expect("section present")
                .as_array()
                .expect("section is a list")
                .iter()
                .map(|m| {
                    let field = |f| {
                        m.get(f)
                            .and_then(|v| v.as_str().ok())
                            .unwrap_or("")
                            .to_owned()
                    };
                    (field("name"), field("unit"), field("better"))
                })
                .collect();
            let ours: Vec<(String, String, String)> = catalogue
                .iter()
                .map(|m| (m.name.to_owned(), m.unit.to_owned(), m.better.to_owned()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn json_line_has_the_four_result_keys() {
        let mut outcome = Outcome::new(
            Verdict {
                jobs: 4,
                completed: 4,
                ..Verdict::default()
            },
            Vec::new(),
        );
        let figures = END_TO_END.iter().map(|m| (m.name, 1.5)).collect();
        outcome.set(END_TO_END, figures);
        let json = JsonValue::parse(&outcome.render_json()).expect("valid JSON");
        let keys: Vec<&str> = json
            .entries()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            json.get("correct").and_then(|v| v.as_bool().ok()),
            Some(true)
        );
        let setup = json
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(setup.get("unit").and_then(|u| u.as_str().ok()), Some("s"));
    }

    #[test]
    fn a_missing_metric_fails_the_run() {
        let mut outcome = Outcome::new(
            Verdict {
                jobs: 1,
                completed: 1,
                ..Verdict::default()
            },
            Vec::new(),
        );
        outcome.set(END_TO_END, vec![("jobs_per_s", 3.0), ("bogus", 1.0)]);
        assert!(!outcome.correct());
    }
}
