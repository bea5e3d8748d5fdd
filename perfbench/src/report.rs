//! The result of one benchmark run: checked operations, metrics and the
//! per-metric sample summaries.

use crate::stats::Summary;
use mapreduce_support::json::{JsonValue, ToJson};
use std::collections::BTreeMap;

/// End-to-end metrics, printed with `--trace 0`: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("jobs_per_s", "1/s"),
    ("sim_mean_flowtime", "slots"),
    ("sim_weighted_flowtime", "slots"),
    ("warm_request_p50_ms", "ms"),
    ("warm_request_p99_ms", "ms"),
    ("cold_cells_per_s", "1/s"),
];

/// Per-layer metrics, printed with `--trace 1`: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("workload.source_ns_per_job", "ns"),
    ("workload.generate_ns_per_job", "ns"),
    ("core.schedule_ns_per_instant", "ns"),
    ("core.hook_ns_per_event", "ns"),
    ("core.instants", "count"),
    ("core.productive_instant_ratio", "ratio"),
    ("core.copies_requested_per_instant", "count"),
    ("core.ranked_prefix_max", "count"),
    ("baselines.schedule_ns_per_instant", "ns"),
    ("baselines.instants", "count"),
    ("baselines.productive_instant_ratio", "ratio"),
    ("sim.self_ns_per_copy", "ns"),
    ("sim.copies_launched", "count"),
    ("sim.cancelled_copy_ratio", "ratio"),
    ("sim.fault_killed_ratio", "ratio"),
    ("sim.wasted_work_share", "ratio"),
    ("sim.peak_resident_jobs", "count"),
    ("sim.peak_copy_slots", "count"),
    ("sim.rss_bytes_per_job", "B"),
    ("metrics.summary_ns_per_job", "ns"),
    ("experiments.fingerprint_ns_per_cell", "ns"),
    ("experiments.run_cells_ns_per_cell", "ns"),
    ("server.decode_ns_per_request", "ns"),
    ("server.submit_warm_ns", "ns"),
    ("server.submit_cold_ns", "ns"),
    ("server.encode_ns_per_request", "ns"),
    ("server.cache_lookup_ns_per_hit", "ns"),
    ("server.cache_store_ns_per_cell", "ns"),
    ("server.cache_bytes_per_cell", "B"),
    ("server.reload_ns_per_byte", "ns"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.response_bytes", "B"),
    ("server.metrics_request_ns", "ns"),
    ("support.json_parse_ns_per_byte", "ns"),
    ("trace.overhead_ratio", "ratio"),
];

/// Checked operations and measured values of one run.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: BTreeMap<String, f64>,
    samples: BTreeMap<String, Summary>,
    /// Workload facts printed with the run metadata (sizes, counts).
    pub info: BTreeMap<String, JsonValue>,
}

impl Report {
    /// Counts one operation whose output check is `ok`; a failure is kept
    /// with its description (the first few are printed).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Sets a metric's value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Sets a timing metric's value and keeps the summary of the samples
    /// it was derived from.
    pub fn set_sampled(&mut self, name: &str, value: f64, samples: Summary) {
        self.set(name, value);
        self.add_samples(name, samples);
    }

    /// Keeps the summary of samples that back no metric of their own.
    pub fn add_samples(&mut self, name: &str, samples: Summary) {
        self.samples.insert(name.to_string(), samples);
    }

    /// Records a workload fact.
    pub fn info(&mut self, key: &str, value: impl ToJson) {
        self.info.insert(key.to_string(), value.to_json());
    }

    /// Descriptions of the first failed checks.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// `ok_ratio`: operations that passed their checks ÷ attempted.
    pub fn ok_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }

    /// The per-metric sample summaries, as one JSON object.
    pub fn samples_json(&self) -> JsonValue {
        JsonValue::Object(
            self.samples
                .iter()
                .map(|(name, s)| {
                    (
                        name.clone(),
                        JsonValue::object([
                            ("n", s.n.to_json()),
                            ("q1", s.q1.to_json()),
                            ("median", s.median.to_json()),
                            ("q3", s.q3.to_json()),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The final result line over the metric list `wanted`. A wanted
    /// metric the workload did not set, or one that is not finite, makes
    /// the run incorrect.
    pub fn result_json(&self, wanted: &[(&str, &str)]) -> JsonValue {
        let mut metrics = BTreeMap::new();
        let mut complete = true;
        for &(name, unit) in wanted {
            let value = self.metrics.get(name).copied().filter(|v| v.is_finite());
            complete &= value.is_some();
            metrics.insert(
                name.to_string(),
                JsonValue::object([
                    ("value", value.unwrap_or(0.0).to_json()),
                    ("unit", JsonValue::String(unit.to_string())),
                ]),
            );
        }
        JsonValue::object([
            (
                "correct",
                (complete && self.attempted > 0 && self.failed == 0).to_json(),
            ),
            ("attempted", self.attempted.max(1).to_json()),
            ("failed", self.failed.to_json()),
            ("metrics", JsonValue::Object(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_checks_count_and_missing_metrics_are_incorrect() {
        let mut report = Report::default();
        report.check(true, || unreachable!());
        report.check(false, || "reply was not ok".to_string());
        assert_eq!((report.attempted, report.failed), (2, 1));
        assert_eq!(report.ok_ratio(), 0.5);
        assert_eq!(report.failures(), ["reply was not ok".to_string()]);

        let mut clean = Report::default();
        clean.check(true, || unreachable!());
        clean.set("setup_s", 0.5);
        let line = clean.result_json(&[("setup_s", "s")]);
        assert_eq!(line.get("correct").and_then(JsonValue::as_bool), Some(true));
        let line = clean.result_json(&[("setup_s", "s"), ("ok_ratio", "ratio")]);
        assert_eq!(
            line.get("correct").and_then(JsonValue::as_bool),
            Some(false)
        );
    }
}
