//! Tiny-size runs of every workload, untraced and traced: each must exit 0
//! and print, as its last line, a passing result holding every metric its
//! mode names.

use std::process::Command;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Metric names declared in one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<String> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &BENCHMARK_JSON[start..];
    let end = body.find(']').expect("section closes");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|s| s.split('"').next())
        .map(String::from)
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--size",
            "tiny",
        ])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn check(workload: &str, trace: &str, names: &[String]) -> String {
    let stdout = run(workload, trace);
    let last = stdout.lines().last().expect("result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
    for n in names {
        assert!(
            last.contains(&format!("\"{n}\": {{\"value\": ")),
            "{workload} trace={trace}: {n} missing from {last}"
        );
    }
    stdout
}

/// Figures a workload prints in its untraced table but does not grade.
fn ungraded(workload: &str) -> &'static [&'static str] {
    match workload {
        "sketch_suite" => &["sketch_gflops.p50", "sketch_gflops.p10"],
        "sap_suite" => &["sap_solve_s.p50", "sap_solve_s.p90"],
        _ => &[
            "svc_sketch_ms.p50",
            "svc_sketch_ms.p99",
            "svc_solve_ms.p50",
            "svc_solve_ms.p90",
            "svc_max_rps",
        ],
    }
}

/// Untraced: every declared end-to-end metric in the result line, and the
/// workload's ungraded figures in the table only. Traced: every per-layer
/// metric.
fn check_workload(workload: &str) {
    let e2e = declared("end_to_end");
    let table = check(workload, "0", &e2e);
    let last = table.lines().last().expect("result line");
    for n in ungraded(workload) {
        assert!(table.contains(&format!("  {n} ")), "{n} not printed");
        assert!(!e2e.iter().any(|d| d == n), "{n} declared");
        assert!(!last.contains(&format!("\"{n}\"")), "{n} graded");
    }
    check(workload, "1", &declared("per_layer"));
}

#[test]
fn sketch_suite_prints_every_metric() {
    check_workload("sketch_suite");
}

#[test]
fn sap_suite_prints_every_metric() {
    check_workload("sap_suite");
}

#[test]
fn svc_mixed_prints_every_metric() {
    check_workload("svc_mixed");
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run perfbench");
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
