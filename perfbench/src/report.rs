//! What one run prints: context lines, every metric with its unit and
//! sample count, and the closing JSON line.

use std::fmt::Write as _;

/// End-to-end metrics, printed in the JSON line of an untraced run. Every
/// workload reports every one of them (see README.md for what each means
/// on each workload); the list must match `BENCHMARK.json`.
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "memory_mine_ms",
    "engine_mine_ms",
    "sql_mine_ms",
    "ops_per_s",
    "peak_rss_mb",
];

/// Per-layer metrics, printed in the JSON line of a traced run, in
/// `BENCHMARK.json` order.
pub const PER_LAYER: [&str; 58] = [
    "datagen.gen_ms",
    "memory.count_items_ms",
    "memory.extend_ms",
    "memory.items_sort_ms",
    "memory.count_ms",
    "memory.filter_ms",
    "memory.tid_sort_ms",
    "memory.k1_ms",
    "memory.k2_ms",
    "memory.k3plus_ms",
    "engine.k1_ms",
    "engine.k2_ms",
    "engine.k3plus_ms",
    "sql.k1_ms",
    "sql.k2_ms",
    "sql.k3plus_ms",
    "rules.gen_ms",
    "rules.count",
    "setm.r_prime_tuples",
    "setm.c_k_total",
    "setm.survival",
    "setm.iterations",
    "engine.page_accesses",
    "engine.seq_reads",
    "engine.seq_writes",
    "engine.rand_reads",
    "engine.pool_steals",
    "engine.cache_hit_ratio",
    "sql.statements",
    "sql.parse_ms",
    "sql.load_ms",
    "serve.hit_accept_ms",
    "serve.hit_outcome_wait_ms",
    "serve.hit_serialized_ms",
    "serve.hit_outside_job_ms",
    "serve.miss_accept_ms",
    "serve.miss_outcome_wait_ms",
    "serve.miss_job_ms",
    "serve.miss_outside_job_ms",
    "serve.delta_accept_ms",
    "serve.delta_outcome_wait_ms",
    "serve.delta_job_ms",
    "serve.delta_outside_job_ms",
    "serve.queue_wait_p50_ms",
    "serve.queue_wait_p90_ms",
    "serve.cache_hit_ratio",
    "serve.served_cache",
    "serve.served_full",
    "serve.served_delta",
    "serve.bytes_out_per_req",
    "serve.serialize_ms",
    "client.decode_ms",
    "incremental.apply_delta_ms",
    "incremental.bootstrap_ms",
    "registry.append_ms",
    "trace.phase_sum_residue_pct",
    "trace.request_sum_residue_ms",
    "trace.spans",
];

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarises (1 for a single count).
    pub samples: usize,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Timed operations attempted and how many failed, were refused or
    /// returned a wrong output.
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check, printed before the result.
    pub problems: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Context printed above the metrics (configuration, notes).
    pub lines: Vec<String>,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.per_layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Record a failed check: it counts as one failed operation.
    pub fn problem(&mut self, text: impl Into<String>) {
        self.failed += 1;
        self.problems.push(text.into());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The full output: context, metrics, problems, then the JSON line
    /// whose metrics are the end-to-end ones (untraced) or the per-layer
    /// ones (traced).
    pub fn render(&self, traced: bool) -> String {
        let mut out = String::new();
        for line in &self.lines {
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(
            out,
            "failed_frac = {} ratio (n={}; {} failed)",
            failed_frac(self.failed, self.attempted),
            self.attempted,
            self.failed
        );
        for (title, metrics) in [
            ("end-to-end", &self.end_to_end),
            ("per-layer", &self.per_layer),
        ] {
            if metrics.is_empty() {
                continue;
            }
            let _ = writeln!(
                out,
                "-- {title}{}",
                if traced { " (traced run)" } else { "" }
            );
            for m in metrics {
                let _ = writeln!(out, "{} = {} {} (n={})", m.name, m.value, m.unit, m.samples);
            }
        }
        for p in &self.problems {
            let _ = writeln!(out, "CHECK FAILED: {p}");
        }
        let (names, metrics) = self.json_list(traced);
        let mut json = String::new();
        for (i, name) in names.iter().enumerate() {
            let m = metrics.iter().find(|m| m.name == *name);
            let (value, unit) = m.map_or((f64::NAN, ""), |m| (m.value, m.unit));
            let _ = write!(
                json,
                "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " },
                json_number(value)
            );
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        out
    }

    /// The names the JSON line lists, and the measured metrics to fill
    /// them from.
    fn json_list(&self, traced: bool) -> (&'static [&'static str], &[Metric]) {
        if traced {
            (&PER_LAYER, &self.per_layer)
        } else {
            (&END_TO_END, &self.end_to_end)
        }
    }

    /// Names in the JSON list that this report did not measure.
    pub fn missing(&self, traced: bool) -> Vec<&'static str> {
        let (names, metrics) = self.json_list(traced);
        names
            .iter()
            .copied()
            .filter(|n| !metrics.iter().any(|m| m.name == *n))
            .collect()
    }
}

/// Failed, refused and wrong outputs over attempted operations.
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    crate::stats::ratio(failed as f64, attempted as f64)
}

/// A JSON number with every digit Rust keeps; non-finite values (a
/// percentile over failed requests) become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Samples;

    #[test]
    fn failed_requests_count_in_failed_frac_and_the_percentiles() {
        let mut latencies = Samples::default();
        let mut report = Report::default();
        for i in 0..100 {
            report.attempted += 1;
            if i % 10 == 0 {
                latencies.push_failed();
                report.failed += 1;
            } else {
                latencies.push(1.0);
            }
        }
        assert_eq!(failed_frac(report.failed, report.attempted), 0.1);
        assert_eq!(latencies.p90(), Some(1.0));
        assert_eq!(latencies.percentile(0.91), Some(f64::INFINITY));
        assert!(!report.correct());
        assert_eq!(failed_frac(0, 0), 0.0);
    }

    #[test]
    fn json_line_lists_exactly_the_declared_metrics() {
        let mut report = Report {
            attempted: 3,
            ..Report::default()
        };
        for name in END_TO_END {
            report.e2e(name, 1.5, "ms", 3);
        }
        report.layer("not.listed", 1.0, "ms", 1);
        assert!(report.missing(false).is_empty());
        assert_eq!(report.missing(true).len(), PER_LAYER.len());
        let out = report.render(false);
        let last = out.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert_eq!(last.matches("\"value\"").count(), END_TO_END.len());
        assert!(!last.contains("not.listed"));
    }

    /// The metric lists here and in `BENCHMARK.json` must not drift apart.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let json = setm_serve::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            json.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(|n| n.as_str())
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END.to_vec());
        assert_eq!(names("per_layer"), PER_LAYER.to_vec());
    }
}
