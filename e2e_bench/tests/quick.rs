//! Drives the built `e2e` binary in its smoke configuration and holds what
//! it prints against the root `BENCHMARK.json`: workload and metric names
//! cannot drift from the file later issues cite.

use e2e_bench::metrics;
use e2e_bench::report::{RunSet, WorkloadResult};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;
use telemetry::json::{self, Value};

fn e2e() -> Command {
    Command::new(env!("CARGO_BIN_EXE_e2e"))
}

fn manifest() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        text,
        metrics::manifest_json(),
        "BENCHMARK.json differs from the metric dictionary: regenerate it with `e2e manifest`"
    );
    json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn names(manifest: &Value, key: &str) -> BTreeSet<String> {
    manifest
        .get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("{key} is an array"))
        .iter()
        .map(|entry| {
            let name = entry.get("name").and_then(Value::as_str);
            name.unwrap_or_else(|| panic!("a {key} entry has no name"))
                .to_string()
        })
        .collect()
}

#[test]
fn driver_form_prints_exactly_the_declared_metrics() {
    let manifest = manifest();
    let workloads = names(&manifest, "workloads");
    let gated = metrics::WORKLOADS.iter().filter(|w| metrics::is_gated(w));
    assert_eq!(workloads, gated.map(|w| w.to_string()).collect());
    for workload in &workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = e2e()
                .args(["--workload", workload, "--seed", "77", "--seconds", "1"])
                .args(["--trace", trace, "--quick"])
                .output()
                .expect("run e2e");
            assert!(
                out.status.success(),
                "{workload} --trace {trace}: {}",
                out.status
            );
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().expect("a result line");
            let top = json::parse(line).expect("the last line is JSON");
            let Value::Obj(keys) = &top else {
                panic!("an object")
            };
            assert_eq!(
                keys.keys().map(String::as_str).collect::<Vec<_>>(),
                ["attempted", "correct", "failed", "metrics"]
            );
            let result = WorkloadResult::from_stdout(&stdout).expect("result parses");
            assert!(result.correct && result.attempted >= 1 && result.failed == 0);
            let printed: BTreeSet<String> = result.metrics.keys().cloned().collect();
            assert_eq!(printed, names(&manifest, key), "{workload} --trace {trace}");
            if trace == "0" {
                for (name, sample) in &result.metrics {
                    assert!(sample.value > 0.0, "{workload}: {name} must never be 0");
                }
            }
        }
    }
}

#[test]
fn quick_run_is_green_on_every_workload_and_saves_a_set() {
    let out_path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("quick-set.json");
    let started = std::time::Instant::now();
    let status = e2e()
        .args(["run", "--quick", "--trace", "--out"])
        .arg(&out_path)
        .status()
        .expect("run e2e");
    assert!(status.success(), "e2e run --quick: {status}");
    assert!(started.elapsed().as_secs() < 60, "the smoke run is short");

    let set = RunSet::parse(&std::fs::read_to_string(&out_path).expect("set written"))
        .expect("set parses");
    assert_eq!(set.runs.len(), 1);
    let run = &set.runs[0];
    assert_eq!(run.keys().map(String::as_str).collect::<Vec<_>>(), {
        let mut sorted = metrics::WORKLOADS.to_vec();
        sorted.sort_unstable();
        sorted
    });
    for (workload, result) in run {
        assert!(result.correct, "{workload}");
        // Every gated metric of the workload is there, under its own name.
        for def in metrics::gated_on(workload) {
            assert!(
                result.metrics.contains_key(def.name),
                "{workload}: {}",
                def.name
            );
        }
        for name in result.metrics.keys() {
            assert!(
                metrics::find(name).is_some(),
                "{workload}: undeclared metric {name}"
            );
        }
    }
    // The four workloads a span tree can be recorded for attribute their wall.
    for workload in ["posthoc", "insitu_render", "store_rw", "sweep"] {
        let coverage = run[workload].metrics["trace.coverage"].value;
        assert!(coverage >= 0.9, "{workload}: trace.coverage {coverage}");
    }
    // A set compares clean against itself.
    let status = e2e()
        .arg("compare")
        .args([&out_path, &out_path])
        .status()
        .expect("run e2e compare");
    assert!(status.success());
}

#[test]
fn corrupted_expectation_fails_with_a_failed_count() {
    for workload in metrics::WORKLOADS {
        let out = e2e()
            .args(["--workload", workload, "--quick", "--corrupt"])
            .output()
            .expect("run e2e");
        assert_eq!(out.status.code(), Some(1), "{workload} must exit 1");
        let result = WorkloadResult::from_stdout(&String::from_utf8_lossy(&out.stdout))
            .expect("result parses");
        assert!(!result.correct && result.failed > 0, "{workload}");
    }
}
