//! Smoke mode: every workload's code path at n = 64, in seconds, must
//! pass its own correctness checks and print exactly the metrics
//! `BENCHMARK.json` names.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The `"name"` values inside the JSON array that follows `"key":`.
fn names_in(section: &str) -> Vec<String> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let open = rest.find('"').expect("name value") + 1;
            let len = rest[open..].find('"').expect("name closes");
            rest[open..open + len].to_string()
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

fn check(result: &str, expected: &[String]) {
    assert!(
        result.starts_with("{\"correct\": true, ") && result.contains("\"failed\": 0, "),
        "{result}"
    );
    for name in expected {
        assert!(
            result.contains(&format!("\"{name}\": {{\"value\": ")),
            "missing {name} in {result}"
        );
    }
    assert_eq!(
        result.matches("\"value\"").count(),
        expected.len(),
        "{result}"
    );
}

#[test]
fn every_workload_emits_every_metric() {
    let workloads = names_in("workloads");
    assert_eq!(workloads, ["ingest_p16", "mesh_p16384", "spmv_v3_p16"]);
    let end_to_end = names_in("end_to_end");
    let per_layer = names_in("per_layer");
    for w in &workloads {
        check(&run(w, 0), &end_to_end);
        check(&run(w, 1), &per_layer);
    }
}

#[test]
fn unknown_workloads_are_refused() {
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
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
