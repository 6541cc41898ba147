//! Runs the `perf` binary as `BENCHMARK.json`'s command does and checks the
//! contract `BENCHMARK.json` states: the result line, the metric names,
//! correctness, the span file, and the comparison verdicts.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use omg_perfbench::json::Json;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a directory of the repository")
        .to_path_buf()
}

fn benchmark() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn listed(key: &str) -> Vec<(String, String)> {
    benchmark()
        .get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn perf(args: &[&str], target: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(args)
        .current_dir(repo_root())
        .env("CARGO_TARGET_DIR", target)
        .output()
        .expect("perf runs")
}

/// Runs one workload for a second and returns its parsed result line.
fn run(workload: &str, trace: bool, target: &Path) -> Json {
    let trace = if trace { "1" } else { "0" };
    let out = perf(
        &[
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
        ],
        target,
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("{workload}: {e}: {last}"))
}

/// Checks the result object's shape and correctness and returns its
/// metric values by name.
fn check_result(
    workload: &str,
    result: &Json,
    expected: &[(String, String)],
) -> BTreeMap<String, f64> {
    let keys: Vec<&str> = result
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{workload}"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .expect("attempted")
            >= 1.0
    );
    let metrics = result
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics");
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect();
    assert_eq!(
        got, expected,
        "{workload}: metrics differ from BENCHMARK.json"
    );
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {name:?}"
            );
            let value = m.get("value").and_then(Json::as_f64).expect("value");
            assert!(value.is_finite(), "{workload} {name} = {value}");
            (name.clone(), value)
        })
        .collect()
}

#[test]
fn every_workload_prints_every_end_to_end_metric_and_verifies() {
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("e2e");
    let workloads: Vec<String> = benchmark()
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, omg_perfbench::WORKLOADS);
    let e2e = listed("end_to_end");
    for workload in &workloads {
        let values = check_result(workload, &run(workload, false, &target), &e2e);
        for (name, value) in values {
            assert!(value > 0.0, "{workload} {name} = {value} must be positive");
        }
    }
}

/// Every span with a parent lies inside it, and every layer span has one.
fn check_spans(path: &Path) {
    let text = std::fs::read_to_string(path).expect("span file");
    let spans = Json::parse(&text).expect("span file parses");
    let spans = spans.as_array().expect("an array");
    assert!(!spans.is_empty());
    let field = |s: &Json, k: &str| s.get(k).and_then(Json::as_f64).expect("numeric field");
    for span in spans {
        let name = span.get("name").and_then(Json::as_str).expect("name");
        match span.get("parent").and_then(Json::as_f64) {
            Some(p) => {
                let parent = &spans[p as usize];
                assert!(
                    field(parent, "start_ns") <= field(span, "start_ns"),
                    "{name} starts early"
                );
                assert!(
                    field(span, "end_ns") <= field(parent, "end_ns"),
                    "{name} ends late"
                );
                assert!(field(span, "start_ns") <= field(span, "end_ns"));
            }
            None => assert!(["pass", "tick"].contains(&name), "root span {name}"),
        }
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric_and_nested_spans() {
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("traced");
    let per_layer = listed("per_layer");
    for workload in ["stream-tracked", "service"] {
        let values = check_result(workload, &run(workload, true, &target), &per_layer);
        assert!(values["prepare_ns"] > 0.0 && values["total_ns"] > 0.0);
        check_spans(&target.join("perf").join(format!("trace-{workload}-7.json")));
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("args");
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--seed", "1"],
        &["--workload", "crowded", "--seed", "x"],
        &[
            "--workload",
            "crowded",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        &["--workload", "crowded", "--seed", "1", "--trace", "0"],
        &["--setup", "nope", "1"],
        &["--setup", "crowded"],
    ] {
        let out = perf(args, &target);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn compare_gives_the_expected_verdicts() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("compare");
    let out = perf(
        &[
            "--compare",
            fixtures.join("parent").to_str().expect("utf-8 path"),
            fixtures.join("change").to_str().expect("utf-8 path"),
        ],
        &target,
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let verdict = |workload: &str, metric: &str| -> String {
        let row = stdout
            .lines()
            .find(|l| {
                let mut cols = l.split_whitespace();
                cols.next() == Some(workload) && cols.next() == Some(metric)
            })
            .unwrap_or_else(|| panic!("no row for {workload} {metric} in\n{stdout}"));
        row.split_whitespace().last().expect("verdict").to_string()
    };
    let light = "stream-light";
    assert_eq!(verdict(light, "failed_share"), "within-bound");
    assert_eq!(verdict(light, "windows_per_s"), "gain");
    assert_eq!(verdict(light, "latency_p50_ms"), "within-bound");
    assert_eq!(verdict(light, "latency_p90_ms"), "regression");
    assert_eq!(verdict(light, "peak_rss_mb"), "within-bound");
    assert_eq!(verdict(light, "setup_s"), "unresolved");
    // Faster in every pair, but refusing offers the parent served: no gain.
    let service = "service";
    assert_eq!(verdict(service, "failed_share"), "regression");
    assert_eq!(verdict(service, "windows_per_s"), "regression");
    assert_eq!(verdict(service, "latency_p50_ms"), "within-bound");
}
