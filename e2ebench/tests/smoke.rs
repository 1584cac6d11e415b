//! Smoke run of every workload at the tiny size, untraced and traced:
//! the run must pass its own checks and report exactly the metrics
//! `BENCHMARK.json` names for its mode.

use std::process::Command;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const WORKLOADS: [&str; 3] = ["resnet8-cdsgd-link", "mlp-bitsgd-tcp", "mlp-ssgd-ring"];

/// The `"name"` values of the objects in `BENCHMARK.json`'s `section`
/// array.
fn names(section: &str) -> Vec<String> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("array ends")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_cdsgd-e2ebench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", trace, "--tiny"])
        .output()
        .expect("run the benchmark");
    assert!(out.status.success(), "{workload} --trace {trace}: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

fn check(trace: &str, section: &str) {
    let expected = names(section);
    for w in WORKLOADS {
        let result = run(w, trace);
        assert!(
            result.starts_with("{\"correct\": true, \"attempted\": "),
            "{w} --trace {trace}: {result}"
        );
        let reported = result.matches("{\"value\": ").count();
        assert_eq!(reported, expected.len(), "{w} --trace {trace}: {result}");
        for name in &expected {
            assert!(
                result.contains(&format!("\"{name}\": {{\"value\": ")),
                "{w} --trace {trace} lacks {name}"
            );
        }
    }
}

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    check("0", "end_to_end");
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    check("1", "per_layer");
}

#[test]
fn bad_arguments_exit_with_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_cdsgd-e2ebench"))
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
        .expect("run the benchmark");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
