//! Command line.
//!
//! * `e2e --workload W --seed S --seconds N --trace 0|1` — the driver's form:
//!   one workload in this process, one line of JSON last on standard output.
//! * `e2e run [--workload W] [--seed S] [--seconds N] [--repeat R] [--trace]
//!   [--quick] [--out F]` — every workload (or one), each in a child process
//!   of its own so peak memory and pool or calibration caches do not leak
//!   from one workload into the next; prints every metric by name and unit.
//! * `e2e compare A.json B.json` — hold set B against set A.
//! * `e2e manifest` — print `BENCHMARK.json` as the metric dictionary has it.

use crate::host::{self, Scratch};
use crate::metrics::WORKLOADS;
use crate::report::{self, RunSet, WorkloadResult};
use crate::workloads::{self, Params, DEFAULT_SECONDS, DEFAULT_SEED};
use crate::{compare, trace};
use std::process::{Command, Stdio};

const USAGE: &str = "usage:
  e2e --workload W [--seed S] [--seconds N] [--trace 0|1]
  e2e run [--workload W] [--seed S] [--seconds N] [--repeat R] [--trace] [--quick] [--out F]
  e2e compare A.json B.json
  e2e manifest
workloads: cosched posthoc insitu_render service store_rw sweep";

/// Parsed flags.
#[derive(Debug, Clone, PartialEq)]
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    corrupt: bool,
    detail: bool,
    repeat: usize,
    out: Option<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        corrupt: false,
        detail: false,
        repeat: 1,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => f.workload = Some(value("a workload name")?),
            "--seed" => {
                f.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                f.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--repeat" => {
                f.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--out" => f.out = Some(value("a path")?),
            // `--trace 0|1` from the driver; a bare `--trace` from a person.
            "--trace" => {
                f.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => f.quick = true,
            "--corrupt" => f.corrupt = true,
            "--detail" => f.detail = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(f.seconds.is_finite() && f.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(f)
}

/// Run one workload in this process and print its result line.
fn run_here(f: &Flags) -> Result<bool, String> {
    let name = f.workload.as_deref().ok_or("--workload is required")?;
    let params = Params {
        seed: f.seed,
        seconds: f.seconds,
        trace: f.trace,
        quick: f.quick,
        corrupt: f.corrupt,
    };
    let scratch = Scratch::new(name).map_err(|e| format!("scratch directory: {e}"))?;
    let outcome = workloads::run(name, &params, &scratch)
        .ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?;
    drop(scratch);
    if f.trace {
        let dir = host::out_dir().map_err(|e| e.to_string())?.join("e2e-out");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{name}.json"));
        std::fs::write(&path, trace::chrome_trace_json(name, &outcome.spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("trace: {}", path.display());
    }
    let result = report::finish(&outcome, f.trace, f.detail);
    println!("{}", result.to_json(f.detail));
    Ok(result.correct)
}

/// Run one workload in a child process and read its result back.
fn run_child(f: &Flags, workload: &str, trace: bool) -> Result<WorkloadResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--detail"])
        .args(["--seed", &f.seed.to_string()])
        .args(["--seconds", &f.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if f.quick {
        cmd.arg("--quick");
    }
    if f.corrupt {
        cmd.arg("--corrupt");
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    WorkloadResult::from_stdout(&String::from_utf8_lossy(&output.stdout))
        .map_err(|e| format!("{workload}: exit {} and no result ({e})", output.status))
}

/// `e2e run`.
fn run_all(f: &Flags) -> Result<bool, String> {
    let names: Vec<&str> = match &f.workload {
        Some(w) if WORKLOADS.contains(&w.as_str()) => vec![w.as_str()],
        Some(w) => return Err(format!("unknown workload {w:?}\n{USAGE}")),
        None => WORKLOADS.to_vec(),
    };
    let mut set = RunSet::new(f.seed, f.seconds);
    println!(
        "host: nproc {} · workers {} · ranks {} · clients {} · scratch on {}",
        set.nproc,
        host::WORKERS,
        host::NRANKS,
        host::CLIENTS,
        set.scratch_fs
    );
    let mut correct = true;
    for repeat in 0..f.repeat.max(1) {
        let mut run = report::Run::new();
        for name in &names {
            // End-to-end metrics always come from the untraced run.
            let mut result = run_child(f, name, false)?;
            if f.trace {
                result.absorb(run_child(f, name, true)?);
            }
            if f.repeat > 1 {
                println!("run {} of {}", repeat + 1, f.repeat);
            }
            print!("{}", report::table(name, &result));
            correct &= result.correct;
            run.insert(name.to_string(), result);
        }
        set.runs.push(run);
    }
    if let Some(path) = &f.out {
        std::fs::write(path, set.to_json()).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    let failed: u64 = set
        .runs
        .iter()
        .flat_map(|r| r.values())
        .map(|r| r.failed)
        .sum();
    if !correct {
        eprintln!("e2e: {failed} failed operation(s)");
    }
    Ok(correct)
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err(format!("compare takes two files\n{USAGE}"));
    };
    let load = |path: &String| -> Result<RunSet, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        RunSet::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, pass) = compare::compare(&load(a)?, &load(b)?);
    print!("{table}");
    Ok(pass)
}

/// Entry point: the process exit code for `args` (without the program name).
pub fn main(args: &[String]) -> i32 {
    let outcome = match args.first().map(String::as_str) {
        None | Some("-h" | "--help") => Err(USAGE.to_string()),
        Some("run") => parse_flags(&args[1..]).and_then(|f| run_all(&f)),
        Some("compare") => compare_files(&args[1..]),
        Some("manifest") => {
            print!("{}", crate::metrics::manifest_json());
            Ok(true)
        }
        Some(_) => parse_flags(args).and_then(|f| run_here(&f)),
    };
    match outcome {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(message) => {
            eprintln!("e2e: {message}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Result<Flags, String> {
        parse_flags(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_form_parses() {
        let f = flags(&[
            "--workload",
            "sweep",
            "--seed",
            "77",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(f.workload.as_deref(), Some("sweep"));
        assert_eq!((f.seed, f.seconds, f.trace), (77, 10.0, true));
        assert!(
            !flags(&["--workload", "sweep", "--trace", "0"])
                .unwrap()
                .trace
        );
    }

    #[test]
    fn bare_trace_flag_and_defaults() {
        let f = flags(&["--trace", "--quick"]).unwrap();
        assert!(f.trace && f.quick);
        assert_eq!(
            (f.seed, f.seconds, f.repeat),
            (DEFAULT_SEED, DEFAULT_SECONDS, 1)
        );
        assert!(flags(&["--seconds", "0"]).is_err());
        assert!(flags(&["--bogus"]).is_err());
        assert!(flags(&["--seed"]).is_err());
    }
}
