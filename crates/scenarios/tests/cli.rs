//! The `sweep` binary's command line: a sweep of no seeds is a usage error
//! that writes nothing, and a real sweep reports its worker count.

use std::path::PathBuf;
use std::process::Command;

fn out_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sweep_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn zero_seeds_is_a_usage_error_and_writes_nothing() {
    let out = out_dir("zero");
    let run = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(["--smoke", "--seeds", "0", "--out"])
        .arg(&out)
        .output()
        .expect("run sweep");
    assert_eq!(run.status.code(), Some(2), "{run:?}");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("--seeds"), "stderr: {stderr}");
    assert!(!out.exists(), "a rejected sweep must not create {out:?}");
}

#[test]
fn a_sweep_reports_its_workers_and_writes_three_artifacts() {
    let out = out_dir("one");
    let run = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(["--smoke", "--seeds", "1", "--out"])
        .arg(&out)
        .output()
        .expect("run sweep");
    assert!(run.status.success(), "{run:?}");
    let stderr = String::from_utf8_lossy(&run.stderr);
    let swept = stderr
        .lines()
        .find(|l| l.starts_with("swept 120 runs in "))
        .unwrap_or_else(|| panic!("no `swept` line in {stderr}"));
    let workers: usize = swept
        .rsplit_once(" on ")
        .and_then(|(_, w)| w.split_whitespace().next())
        .and_then(|w| w.parse().ok())
        .unwrap_or_else(|| panic!("no worker count in `{swept}`"));
    assert!(workers >= 1);
    for name in ["sweep.json", "sweep.csv", "summary.txt"] {
        assert!(out.join(name).is_file(), "{name} not written");
    }
    let _ = std::fs::remove_dir_all(&out);
}
