//! CI gate for the committed kernel-bench trajectory.
//!
//! ```text
//! bench_check <trajectory.json> [--baseline <baseline.json>]
//! ```
//!
//! Validates that the JSON parses, carries the `bench-kernels-v1` schema,
//! and covers every rewritten kernel (`cic`, `fof`, `mbp`, `fft3d_64`,
//! `rfft3d_64`, `pm_step_64`, `pm_kick_64`, `fof_grid_64`,
//! `render_deposit_64`, `find_patch_64`, `render_frame_64`,
//! `massfn_sample_2k`) with
//! finite positive timings, and that every kernel with a floor in [`FLOORS`]
//! clears it. With
//! `--baseline`, also fails if any kernel's speedup regressed by more than
//! 25% relative to the baseline's speedup — a machine-independent ratio, so
//! a quick-mode CI run can be gated against the committed full-mode
//! `BENCH_kernels.json`.

use std::collections::BTreeMap;
use std::process::ExitCode;
use telemetry::json::{self, Value};

/// Kernels the trajectory must cover.
const REQUIRED: [&str; 12] = [
    "cic",
    "fof",
    "mbp",
    "fft3d_64",
    "rfft3d_64",
    "pm_step_64",
    "pm_kick_64",
    "fof_grid_64",
    "render_deposit_64",
    "find_patch_64",
    "render_frame_64",
    "massfn_sample_2k",
];

/// Speedups a trajectory must show whatever its baseline says: the fused
/// gather reads the mesh once where three interpolations read it three times
/// and redo the cell arithmetic, which no host makes less than twice as fast;
/// the cell engine links a 174k-row patch in link-wide cells from a counting
/// sort and an occupancy bitmap where the k-d tree partitions it recursively
/// first (2.5× when recorded; 1.5× with the old `8n`-cell table, which this
/// floor fails); on the 64³ box it visits only occupied cells where the
/// dense reference walks every cell of a 256³ mesh (13.8× when recorded,
/// 7.9× with the old table); a
/// half-budget render frame that reuses its level-of-detail order skips a
/// 262k-key sort that costs more than its gather and exact deposit together
/// (2.3× when recorded); a real field's
/// half spectrum is half the data and half the lines of its complex
/// promotion (≈ 2× when recorded); a halo draw that finds its bin from a
/// guide bucket skips most of a 12-level binary search and both of its
/// logarithms (≈ 2.9× when prototyped).
const FLOORS: [(&str, f64); 6] = [
    ("pm_kick_64", 2.0),
    ("rfft3d_64", 1.5),
    ("fof_grid_64", 10.0),
    ("find_patch_64", 2.0),
    ("render_frame_64", 1.4),
    ("massfn_sample_2k", 2.0),
];

/// Maximum tolerated relative speedup regression vs the baseline.
const MAX_REGRESSION: f64 = 0.25;

struct Kernel {
    before_ms: f64,
    after_ms: f64,
    speedup: f64,
}

fn load(path: &str) -> Result<BTreeMap<String, Kernel>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let root = json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    match root.get("schema").and_then(Value::as_str) {
        Some("bench-kernels-v1") => {}
        other => return Err(format!("{path}: unexpected schema {other:?}")),
    }
    let kernels = root
        .get("kernels")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{path}: missing `kernels` array"))?;
    let mut out = BTreeMap::new();
    for k in kernels {
        let name = k
            .get("kernel")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: kernel entry without a name"))?;
        let field = |f: &str| -> Result<f64, String> {
            k.get(f)
                .and_then(Value::as_f64)
                .filter(|v| v.is_finite() && *v > 0.0)
                .ok_or_else(|| format!("{path}: kernel `{name}` has invalid `{f}`"))
        };
        out.insert(
            name.to_string(),
            Kernel {
                before_ms: field("before_ms")?,
                after_ms: field("after_ms")?,
                speedup: field("speedup")?,
            },
        );
    }
    for required in REQUIRED {
        if !out.contains_key(required) {
            return Err(format!(
                "{path}: kernel `{required}` missing from trajectory"
            ));
        }
    }
    // The pool ladder must be present and non-empty: it is the committed
    // measurement justifying `dpp::SMALL_N_THRESHOLD`.
    let ladder = root
        .get("pool_small_n")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{path}: missing `pool_small_n` ladder"))?;
    if ladder.is_empty() {
        return Err(format!("{path}: empty `pool_small_n` ladder"));
    }
    Ok(out)
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (path, baseline) = match args.as_slice() {
        [p] => (p.clone(), None),
        [p, flag, b] if flag == "--baseline" => (p.clone(), Some(b.clone())),
        _ => {
            return Err("usage: bench_check <trajectory.json> [--baseline <baseline.json>]".into())
        }
    };
    let fresh = load(&path)?;
    for (name, k) in &fresh {
        let consistent = (k.before_ms / k.after_ms / k.speedup - 1.0).abs() < 0.05;
        if !consistent {
            return Err(format!(
                "{path}: kernel `{name}` speedup {:.3} inconsistent with \
                 before/after = {:.3}",
                k.speedup,
                k.before_ms / k.after_ms
            ));
        }
        println!(
            "{name}: before={:.3}ms after={:.3}ms speedup={:.2}x",
            k.before_ms, k.after_ms, k.speedup
        );
    }
    for (name, floor) in FLOORS {
        let speedup = fresh[name].speedup;
        if speedup < floor {
            return Err(format!(
                "{path}: kernel `{name}` speedup {speedup:.2}x is below its floor {floor:.1}x"
            ));
        }
    }
    if let Some(bpath) = baseline {
        let base = load(&bpath)?;
        for (name, b) in &base {
            let Some(f) = fresh.get(name) else {
                return Err(format!("kernel `{name}` in baseline but not in {path}"));
            };
            let ratio = f.speedup / b.speedup;
            if ratio < 1.0 - MAX_REGRESSION {
                return Err(format!(
                    "kernel `{name}` regressed: speedup {:.2}x vs baseline {:.2}x \
                     ({:.0}% of baseline, limit {:.0}%)",
                    f.speedup,
                    b.speedup,
                    ratio * 100.0,
                    (1.0 - MAX_REGRESSION) * 100.0
                ));
            }
            println!(
                "{name}: speedup {:.2}x vs baseline {:.2}x — ok",
                f.speedup, b.speedup
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => {
            println!("bench_check: trajectory ok");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("bench_check: {msg}");
            ExitCode::FAILURE
        }
    }
}
