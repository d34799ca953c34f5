//! The benchmark's contract: `BENCHMARK.json` stays inside its limits
//! and says what the code says, and every workload, run in a tiny quick
//! mode, prints exactly the declared metrics with no failed op.

use demonbench::spec;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_path_buf()
}

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json over 64 KiB");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_object()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect()
}

fn entries<'a>(file: &'a Value, key: &str) -> &'a Vec<Value> {
    file.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{key} is an array"))
}

fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} is a string in {entry}"))
}

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    (1..=64).contains(&name.len())
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_is_within_the_contract() {
    let file = benchmark_json();
    assert_eq!(
        keys(&file),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let (workloads, end_to_end, per_layer) = (
        entries(&file, "workloads"),
        entries(&file, "end_to_end"),
        entries(&file, "per_layer"),
    );
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    assert!((1..=32).contains(&entries(&file, "command").len()));
    let run_seconds = file
        .get("run_seconds")
        .and_then(Value::as_u64)
        .expect("run_seconds");
    assert!((1..=60).contains(&run_seconds));
    // 4 + 22 × workloads runs and two builds must end within 3420 s.
    let runs = 4 + 22 * workloads.len() as u64;
    assert!(
        runs * (run_seconds + 10) < 3420,
        "{runs} runs do not fit the driver's budget"
    );

    let mut names = std::collections::BTreeSet::new();
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = text(w, "why");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why of {w} is not one short line"
        );
        assert!(valid_name(text(w, "name")) && names.insert(text(w, "name")));
    }
    for m in end_to_end {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound of {m}");
    }
    for m in per_layer {
        assert_eq!(keys(m), ["name", "unit", "better"]);
    }
    for m in end_to_end.iter().chain(per_layer) {
        assert!(
            valid_name(text(m, "name")) && names.insert(text(m, "name")),
            "name of {m}"
        );
        assert!(valid_unit(text(m, "unit")), "unit of {m}");
        assert!(["lower", "higher"].contains(&text(m, "better")));
    }
    let setup = end_to_end
        .iter()
        .find(|m| text(m, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
    for path in entries(&file, "paths") {
        let path = path.as_str().expect("a path");
        assert!(repo_root().join(path).is_dir(), "{path} is a directory");
    }
}

#[test]
fn benchmark_json_says_what_the_code_says() {
    assert_eq!(
        benchmark_json().to_string(),
        spec::benchmark_json().to_string(),
        "regenerate with `demonbench spec > BENCHMARK.json`"
    );
}

/// Runs one workload in quick mode and returns its result object.
fn quick_run(workload: &str, trace: bool) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_demonbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "11",
            "--seconds",
            "1",
            "--quick",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("demonbench starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    serde_json::from_str(stdout.lines().last().expect("a last line")).expect("a result object")
}

fn check_result(result: &Value, declared: &[(&str, &str)]) {
    assert_eq!(keys(result), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_u64)
            .expect("attempted")
            >= 1
    );
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    let metrics = result.get("metrics").expect("metrics");
    let declared_names: Vec<&str> = declared.iter().map(|&(name, _)| name).collect();
    assert_eq!(keys(metrics), declared_names);
    for &(name, unit) in declared {
        let m = metrics.get(name).expect("declared metric");
        assert_eq!(keys(m), ["value", "unit"]);
        assert_eq!(text(m, "unit"), unit);
        assert!(m
            .get("value")
            .and_then(Value::as_f64)
            .expect("value")
            .is_finite());
    }
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    let end_to_end: Vec<(&str, &str)> = spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    for w in &spec::WORKLOADS {
        let result = quick_run(w.name, false);
        check_result(&result, &end_to_end);
        for &(name, _) in &end_to_end {
            let value = result
                .get("metrics")
                .and_then(|metrics| metrics.get(name))
                .and_then(|metric| metric.get("value"))
                .and_then(Value::as_f64);
            assert!(
                value.is_some_and(|v| v > 0.0),
                "{name} of {} is {value:?}",
                w.name
            );
        }
        check_result(&quick_run(w.name, true), &spec::PER_LAYER);
        let trace = repo_root().join(format!("benchmark/out/trace-{}.jsonl", w.name));
        let spans = std::fs::read_to_string(&trace).expect("a span file");
        assert!(
            spans.lines().count() > 10,
            "{} holds too few spans",
            trace.display()
        );
        for line in spans.lines().take(5) {
            let span: Value = serde_json::from_str(line).expect("a span");
            assert_eq!(
                keys(&span),
                ["id", "name", "start_ns", "end_ns", "parent", "op_id"]
            );
        }
    }
}
