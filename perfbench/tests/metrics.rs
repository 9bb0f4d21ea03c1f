//! Runs every workload at a small size, traced and untraced, and checks
//! that the result line is correct and names every metric listed in
//! `BENCHMARK.json` with its unit, and that the readable report prints
//! each of them too.

use std::path::Path;
use std::process::Command;

/// The default seed and a held-out one that nothing was tuned on.
const SEEDS: [&str; 2] = ["7", "1013"];
const WORKLOADS: [&str; 3] = ["alg12-ba", "alg3-reliable", "repair-lossy"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn catalogue(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let compact: String = text.chars().filter(|c| !c.is_whitespace()).collect();
    let start = compact
        .find(&format!("\"{section}\":["))
        .unwrap_or_else(|| panic!("section {section} missing"));
    let body = &compact[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |obj: &str, key: &str| -> String {
        let tag = format!("\"{key}\":\"");
        let at = obj.find(&tag).expect("field present") + tag.len();
        obj[at..]
            .split('"')
            .next()
            .expect("string value")
            .to_owned()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

/// Runs the benchmark binary and returns its standard output.
fn run(workload: &str, seed: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", seed, "--seconds", "0"])
        .args(["--trace", trace, "--scale", "0.02"])
        .output()
        .expect("perfbench runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The value of `"name": {"value": V, "unit": "unit"}` in the result line.
fn value(line: &str, name: &str, unit: &str) -> f64 {
    let compact: String = line.chars().filter(|c| !c.is_whitespace()).collect();
    let tag = format!("\"{name}\":{{\"value\":");
    let at = compact
        .find(&tag)
        .unwrap_or_else(|| panic!("{name} missing from {line}"))
        + tag.len();
    let (num, rest) = compact[at..].split_once(',').expect("value ends");
    assert!(
        rest.starts_with(&format!("\"unit\":\"{unit}\"}}")),
        "{name} lacks unit {unit}"
    );
    num.parse().expect("numeric value")
}

fn check(workload: &str, seed: &str, trace: &str, section: &str) {
    let stdout = run(workload, seed, trace);
    let last = stdout.lines().last().expect("output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{workload} seed {seed}: {last}"
    );
    assert!(last.contains("\"failed\": 0,"), "{last}");
    assert!(stdout.contains("failed_share     0 share"), "{stdout}");
    let metrics = catalogue(section);
    assert_eq!(
        last.matches("\"unit\":").count(),
        metrics.len(),
        "result line has exactly the {section} metrics"
    );
    for (name, unit) in &metrics {
        let v = value(last, name, unit);
        assert!(v.is_finite(), "{name} = {v}");
        let printed = stdout
            .lines()
            .any(|l| l.starts_with(&format!("{name} ")) && l.contains(&format!(" {unit}")));
        assert!(printed, "{name} not reported with {unit}");
    }
    if trace == "1" {
        assert!(stdout.contains("span\top\tid\tparent\tname"), "span table");
    }
}

#[test]
fn end_to_end_metrics_are_printed_with_units() {
    for w in WORKLOADS {
        for seed in SEEDS {
            check(w, seed, "0", "end_to_end");
        }
    }
}

#[test]
fn per_layer_metrics_are_printed_with_units() {
    for w in WORKLOADS {
        check(w, SEEDS[0], "1", "per_layer");
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "gossip"])
        .output()
        .expect("perfbench runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
