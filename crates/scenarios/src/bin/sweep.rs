//! `sweep` — run a scenario sweep and write its artifacts.
//!
//! ```text
//! sweep [--smoke|--full] [--seeds N] [--base-seed S] [--out DIR]
//! ```
//!
//! Writes `sweep.json`, `sweep.csv`, and `summary.txt` under `--out`
//! (default `target/sweep`) and prints the summary table. The runs go to a
//! pool of one worker per available CPU. Everything is deterministic per
//! base seed: running twice, or on any number of CPUs, produces
//! byte-identical artifacts, which is exactly what the CI sweep job
//! asserts. `--seeds` must be at least 1.

use dpp::Backend;
use scenarios::{export, run_sweep_on, Grammar, SweepConfig};
use std::path::PathBuf;

struct Args {
    full: bool,
    seeds: usize,
    base_seed: u64,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        full: false,
        seeds: 25,
        base_seed: 1,
        out: PathBuf::from("target/sweep"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--smoke" => args.full = false,
            "--full" => args.full = true,
            "--seeds" => {
                args.seeds = value("--seeds")?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?;
                if args.seeds == 0 {
                    return Err("--seeds: a sweep needs at least one seed".into());
                }
            }
            "--base-seed" => {
                args.base_seed = value("--base-seed")?
                    .parse()
                    .map_err(|e| format!("--base-seed: {e}"))?
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--help" | "-h" => {
                println!("usage: sweep [--smoke|--full] [--seeds N] [--base-seed S] [--out DIR]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sweep: {e}");
            std::process::exit(2);
        }
    };
    let grammar = if args.full {
        Grammar::full()
    } else {
        Grammar::smoke()
    };
    let config = SweepConfig {
        base_seed: args.base_seed,
        n_seeds: args.seeds,
        grammar,
    };
    let n_scenarios = config.grammar.expand().len();
    eprintln!(
        "sweeping {n_scenarios} scenarios × {} seeds = {} runs (base seed {})",
        config.n_seeds,
        n_scenarios * config.n_seeds,
        config.base_seed
    );
    let started = std::time::Instant::now();
    let backend = dpp::Threaded::with_available_parallelism();
    let result = run_sweep_on(&backend, &config);
    let workers = backend.concurrency();
    eprintln!(
        "swept {} runs in {:.2}s on {workers} worker{}",
        result.total_runs(),
        started.elapsed().as_secs_f64(),
        if workers == 1 { "" } else { "s" }
    );

    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("sweep: cannot create {}: {e}", args.out.display());
        std::process::exit(1);
    }
    let artifacts = [
        ("sweep.json", export::to_json(&result)),
        ("sweep.csv", export::to_csv(&result)),
        ("summary.txt", export::summary_table(&result)),
    ];
    for (name, contents) in artifacts {
        let path = args.out.join(name);
        if let Err(e) = std::fs::write(&path, contents) {
            eprintln!("sweep: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("wrote {}", path.display());
    }
    print!("{}", export::summary_table(&result));
}
