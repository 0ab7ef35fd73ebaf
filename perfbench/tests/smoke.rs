//! Every workload in smoke mode (the 10k tier, four minutes of stream),
//! untraced and traced: each finishes in seconds with its checks passing
//! and prints every metric `BENCHMARK.json` declares for its mode.

use std::path::Path;
use std::process::{Command, Output};

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("running perfbench")
}

/// The metric names of one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("reading BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

fn smoke(workload: &str, traced: bool) {
    let trace = if traced { "1" } else { "0" };
    let out = perfbench(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--smoke",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true, "), "{last}");
    assert!(last.contains("\"failed\": 0, "), "{last}");
    let section = if traced { "per_layer" } else { "end_to_end" };
    for name in declared(section) {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{workload}: {name} missing from {last}"
        );
    }
    if traced {
        assert!(stdout.contains("reconcile: layers cover"), "{stdout}");
        assert!(stdout.contains("tracing overhead:"), "{stdout}");
    }
}

#[test]
fn backfill_smoke() {
    smoke("backfill", false);
}

#[test]
fn archive_smoke() {
    smoke("archive", false);
}

#[test]
fn query_smoke() {
    smoke("query", false);
}

#[test]
fn backfill_traced_smoke() {
    smoke("backfill", true);
}

#[test]
fn archive_traced_smoke() {
    smoke("archive", true);
}

#[test]
fn query_traced_smoke() {
    smoke("query", true);
}

#[test]
fn bad_arguments_exit_without_a_result() {
    let base = ["--workload", "query", "--seed", "1", "--seconds", "1"];
    for extra in [
        &["--trace", "0", "--workload", "nope"][..],
        &[][..],
        &["--trace", "2"][..],
        &["--trace", "0", "--x", "1"][..],
    ] {
        let args: Vec<&str> = base.iter().chain(extra).copied().collect();
        let out = perfbench(&args);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
