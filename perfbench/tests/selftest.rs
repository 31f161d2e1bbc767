//! Self-test of the benchmark on a truncated 14-day scenario: every
//! metric BENCHMARK.json names comes out with its unit, every workload
//! passes its correctness gate, and a one-bit corruption of a reference
//! value fails it.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serde_json::Value;
use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["eth-year-batch", "eth-year-follow", "eth-adhoc-query"];

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    serde_json::from_str(&text).expect("parse BENCHMARK.json")
}

fn run(workload: &str, trace: &str, extra: &[&str]) -> Output {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("selftest-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).expect("create the self-test directory");
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--days", "14"])
        .args(extra)
        .current_dir(&dir)
        .output()
        .expect("run perfbench")
}

fn result(out: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is JSON")
}

/// `(name, unit)` of every metric listed under `section`.
fn named(spec: &Value, section: &str) -> Vec<(String, String)> {
    spec.get(section)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn check_metrics(out: &Output, wanted: &[(String, String)], what: &str) {
    let r = result(out);
    assert_eq!(
        r.get("correct").and_then(Value::as_bool),
        Some(true),
        "{what}: correct"
    );
    assert_eq!(
        r.get("failed").and_then(Value::as_u64),
        Some(0),
        "{what}: failed"
    );
    assert!(
        r.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1,
        "{what}: attempted"
    );
    let metrics = r
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object");
    assert_eq!(
        metrics.len(),
        wanted.len(),
        "{what}: exactly the named metrics"
    );
    for (name, unit) in wanted {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{what}: {name} missing"));
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{what}: {name} unit"
        );
        let v = m.get("value").and_then(Value::as_f64);
        assert!(v.is_some_and(f64::is_finite), "{what}: {name} is a number");
    }
    assert!(out.status.success(), "{what}: exit status");
}

#[test]
fn every_named_metric_is_emitted_with_its_unit() {
    let spec = spec();
    let end_to_end = named(&spec, "end_to_end");
    let per_layer = named(&spec, "per_layer");
    let names: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    assert_eq!(names, WORKLOADS);
    for w in WORKLOADS {
        check_metrics(&run(w, "0", &[]), &end_to_end, &format!("{w} end-to-end"));
        check_metrics(&run(w, "1", &[]), &per_layer, &format!("{w} traced"));
    }
}

#[test]
fn a_corrupted_reference_trips_the_gate() {
    for w in WORKLOADS {
        let out = run(w, "0", &["--corrupt-reference"]);
        let r = result(&out);
        assert_eq!(
            r.get("correct").and_then(Value::as_bool),
            Some(false),
            "{w}: correct"
        );
        assert!(
            r.get("failed").and_then(Value::as_u64).unwrap_or(0) >= 1,
            "{w}: failed"
        );
        assert!(!out.status.success(), "{w}: a failed gate exits non-zero");
    }
}
