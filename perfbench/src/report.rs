//! Metric catalog, the pass/fail tally and the result line.
//!
//! The catalog is the single list of metric names and units; a test checks
//! it against `BENCHMARK.json`, so the file and the program cannot drift.

use std::collections::BTreeMap;

/// End-to-end metrics: every workload prints all of them in an untraced
/// run, each measured on that workload's own operation (see the README).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("cpu_ms_per_op", "ms"),
];

/// Measured and printed in the table of an untraced run, but not declared
/// in `BENCHMARK.json` and not in the result line. Each exists on one
/// workload only, and every declared metric must be printed by every
/// workload; the service latencies also spread from run to run by more
/// than any bound the benchmark may set (see the README).
pub const UNGRADED: &[(&str, &str, &str)] = &[
    ("sketch_suite", "sketch_gflops.p50", "GFLOP/s"),
    ("sketch_suite", "sketch_gflops.p10", "GFLOP/s"),
    ("sap_suite", "sap_solve_s.p50", "s"),
    ("sap_suite", "sap_solve_s.p90", "s"),
    ("svc_mixed", "svc_sketch_ms.p50", "ms"),
    ("svc_mixed", "svc_sketch_ms.p99", "ms"),
    ("svc_mixed", "svc_solve_ms.p50", "ms"),
    ("svc_mixed", "svc_solve_ms.p90", "ms"),
    ("svc_mixed", "svc_max_rps", "1/s"),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("rngkit.uniform_gsamples_s", "Gsample/s"),
    ("rngkit.sign_gsamples_s", "Gsample/s"),
    ("sketchcore.alg3_gflops", "GFLOP/s"),
    ("sketchcore.alg3_signs_gflops", "GFLOP/s"),
    ("sketchcore.alg4_gflops", "GFLOP/s"),
    ("sketchcore.samples", "count"),
    ("sketchcore.flops", "count"),
    ("sketchcore.bytes_a", "B"),
    ("sketchcore.bytes_out", "B"),
    ("sketchcore.model_ratio", "ratio"),
    ("sketchcore.roofline_frac", "ratio"),
    ("sketchcore.stream_gbs", "GB/s"),
    ("sketchcore.stream_array_mb", "MB"),
    ("sketchcore.checked_overhead", "ratio"),
    ("sketchcore.vs_materialized", "ratio"),
    ("sketchcore.multi_vs_seq", "ratio"),
    ("parkit.par_cols_speedup", "ratio"),
    ("sparsekit.blocked_csr_build_ms", "ms"),
    ("sparsekit.validate_ms", "ms"),
    ("densekit.qr_ms", "ms"),
    ("densekit.svd_ms", "ms"),
    ("lstsq.sap.sketch_ms", "ms"),
    ("lstsq.sap.factor_ms", "ms"),
    ("lstsq.sap.solve_ms", "ms"),
    ("lstsq.lsqr_iters", "count"),
    ("lstsq.lsqr_iter_us", "us"),
    ("lstsq.sap.retries", "count"),
    ("lstsq.sap.fallback_svd", "count"),
    ("lstsq.sap.attempts_per_solve", "ratio"),
    ("sketchd.rtt_sketch_ms.p50", "ms"),
    ("sketchd.rtt_sketch_ms.p99", "ms"),
    ("sketchd.rtt_solve_ms.p50", "ms"),
    ("sketchd.rtt_load_ms.p50", "ms"),
    ("sketchd.queue_wait_ms.p50", "ms"),
    ("sketchd.queue_wait_ms.p99", "ms"),
    ("sketchd.batch_size.p50", "count"),
    ("sketchd.batch_size.p99", "count"),
    ("sketchd.batched_ratio", "ratio"),
    ("sketchd.rejected_overload", "count"),
    ("sketchd.deadline_missed", "count"),
    ("sketchd.registry_bytes", "B"),
    ("sketchd.proto.decode_ns", "ns"),
    ("sketchd.proto.encode_ns", "ns"),
    ("gen.late_ms.p99", "ms"),
    ("host.steal_ratio", "ratio"),
    ("host.cpu_per_wall", "ratio"),
    ("host.l2_mb", "MB"),
    ("host.l3_mb", "MB"),
    ("trace.overhead", "ratio"),
    ("fail_ratio", "ratio"),
    ("bench.self_s", "s"),
    ("datagen.self_s", "s"),
    ("sparsekit.self_s", "s"),
    ("sketchcore.self_s", "s"),
    ("baselines.self_s", "s"),
    ("lstsq.self_s", "s"),
    ("sketchd.self_s", "s"),
];

pub const WORKLOADS: &[&str] = &["sketch_suite", "sap_suite", "svc_mixed"];

/// Names every untraced run must print.
pub fn untraced_names() -> Vec<&'static str> {
    END_TO_END.iter().map(|m| m.0).collect()
}

/// Names printed in a workload's untraced table: the graded ones, then the
/// ungraded ones.
pub fn table_names(workload: &str) -> Vec<&'static str> {
    let mut names = untraced_names();
    names.extend(UNGRADED.iter().filter(|m| m.0 == workload).map(|m| m.1));
    names
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .copied()
        .chain(UNGRADED.iter().map(|m| (m.1, m.2)))
        .chain(PER_LAYER.iter().copied())
        .find(|m| m.0 == name)
        .map(|m| m.1)
}

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    reasons: Vec<String>,
}

impl Tally {
    /// Count one operation; `Err` carries why it failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(why);
            }
        }
    }

    pub fn reasons(&self) -> &[String] {
        &self.reasons
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One metric value with the number of samples behind it (1 for a count
/// or a single measurement).
#[derive(Clone, Copy, Debug)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
}

/// Collected metric values, keyed by catalog name.
#[derive(Debug, Default)]
pub struct Metrics {
    map: BTreeMap<&'static str, Value>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(unit_of(name).is_some(), "{name} is not in the catalog");
        self.map.insert(name, Value { value, samples });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.map.get(name).map(|v| v.value)
    }

    /// One line per metric: name, value, unit and sample count.
    pub fn print_table(&self, names: &[&'static str]) {
        for n in names {
            match self.map.get(n) {
                Some(v) => println!(
                    "  {n:<34} {:>14.6} {:<10} (n={})",
                    v.value,
                    unit_of(n).unwrap_or("?"),
                    v.samples
                ),
                None => println!("  {n:<34} {:>14} (missing)", "-"),
            }
        }
    }

    /// The final JSON line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, restricted to `names`. A missing name is an error.
    pub fn result_line(&self, names: &[&'static str], tally: &Tally) -> Result<String, String> {
        let mut parts = Vec::with_capacity(names.len());
        for n in names {
            let v = self
                .map
                .get(n)
                .ok_or_else(|| format!("metric {n} was not measured"))?;
            if !v.value.is_finite() {
                return Err(format!("metric {n} is not finite: {}", v.value));
            }
            parts.push(format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                fmt_num(v.value),
                unit_of(n).unwrap_or("?")
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.failed == 0,
            tally.attempted.max(1),
            tally.failed,
            parts.join(", ")
        ))
    }
}

/// Full-precision JSON number (Rust's shortest round-trip form).
fn fmt_num(x: f64) -> String {
    let s = format!("{x:?}");
    if s.contains('e') || s.contains('E') {
        format!("{x:e}")
    } else {
        s
    }
}

#[cfg(test)]
fn valid_name(n: &str) -> bool {
    !n.is_empty()
        && n.len() <= 64
        && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_names() -> Vec<&'static str> {
        END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect()
    }

    #[test]
    fn metric_names_match_the_allowed_pattern_and_are_unique() {
        let mut names = all_names();
        names.extend(UNGRADED.iter().map(|m| m.1));
        for n in &names {
            assert!(valid_name(n), "bad metric name {n:?}");
        }
        let mut uniq = names.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), names.len(), "duplicate metric name");
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading"));
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
        }
        let declared = json.matches("\"unit\":").count();
        assert_eq!(
            declared,
            all_names().len(),
            "BENCHMARK.json declares extra metrics"
        );
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.5, 5);
        let mut t = Tally::default();
        t.record(Ok(()));
        t.record(Err("checksum mismatch".into()));
        let line = m.result_line(&["setup_s"], &t).unwrap();
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(m.result_line(&["ok_ratio"], &t).is_err());
    }
}
