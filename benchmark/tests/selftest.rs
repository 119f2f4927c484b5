//! Runs every workload at a tiny size, untraced and traced, and checks
//! that the result line names every metric `BENCHMARK.json` declares with
//! a finite value, and that every correctness check passes.

use std::process::Command;

/// The `name`s listed in one array section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect()
}

/// The value of metric `name` in a result line.
fn value(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("metric {name} missing from {line}"))
        + key.len();
    let rest = &line[at..];
    rest[..rest.find(',').expect("value ends")]
        .parse()
        .unwrap_or_else(|e| panic!("metric {name}: {e}"))
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_bayesperf-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    let workloads = declared("workloads");
    assert_eq!(workloads, ["stream_kmeans", "suite_batch", "fleet_scrape"]);
    for workload in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let line = run(workload, trace);
            assert!(
                line.starts_with("{\"correct\": true, "),
                "{workload}: {line}"
            );
            for name in declared(section) {
                let v = value(&line, &name);
                assert!(v.is_finite(), "{workload} {name} = {v}");
                if section == "end_to_end" {
                    assert!(v > 0.0, "{workload} {name} must never be 0");
                }
            }
        }
    }
}

#[test]
fn bad_arguments_exit_with_usage_and_no_result() {
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "fleet_scrape",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "fleet_scrape",
            "--seed",
            "1",
            "--seconds",
            "1",
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_bayesperf-benchmark"))
            .args(&args)
            .output()
            .expect("benchmark runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
