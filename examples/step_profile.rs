//! Where a PM step's time goes, read off the product's own `nbody` and `fft`
//! spans: installs a wall-clock [`telemetry::Recorder`], runs eight 64³
//! leapfrog steps and prints, per span name, how often it ran and its median
//! and total duration. The first step's opening kick has nothing carried, so
//! an `N`-step run shows `N + 1` deposits, solves and gathers (the closing
//! kick rides the gather), `N` `kick_drift` passes (the opening kick, the
//! drift and the column refill) and one `deposit_columns`; each solve is one
//! `fft.r2c` and three `fft.c2r`.
//!
//! ```text
//! cargo run --release --example step_profile      # or: just step-profile
//! ```

use dpp::{Backend, Threaded};
use nbody::{SimConfig, Simulation};
use std::collections::BTreeMap;
use std::sync::Arc;

const STEPS: usize = 8;

fn main() {
    let backend = Threaded::with_available_parallelism();
    let cfg = SimConfig {
        np: 64,
        ng: 64,
        nsteps: 64,
        seed: 20,
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(&backend, cfg);

    let recorder = Arc::new(telemetry::Recorder::new(telemetry::Clock::Wall));
    let guard = telemetry::install(recorder);
    for _ in 0..STEPS {
        sim.step(&backend);
    }
    let trace = guard.finish();

    let mut by_name: BTreeMap<(&str, &str), Vec<u64>> = BTreeMap::new();
    for span in trace.spans() {
        if matches!(span.layer, "nbody" | "fft") {
            by_name
                .entry((span.layer, span.name))
                .or_default()
                .push(span.dur);
        }
    }
    println!(
        "{STEPS} steps of 64^3 particles on a 64^3 mesh, {} workers",
        backend.concurrency()
    );
    println!(
        "{:<22} {:>5} {:>10} {:>10}",
        "span", "n", "median ms", "total ms"
    );
    // The `fft` spans run inside `nbody.pm_solve`: only `nbody` adds up.
    let mut per_step = 0.0;
    for ((layer, name), durs) in &mut by_name {
        durs.sort_unstable();
        let total = durs.iter().sum::<u64>() as f64 / 1e3;
        let median = durs[durs.len() / 2] as f64 / 1e3;
        if *layer == "nbody" {
            per_step += total / STEPS as f64;
        }
        let span = format!("{layer}.{name}");
        println!("{span:<22} {:>5} {median:>10.2} {total:>10.1}", durs.len());
    }
    println!("nbody spans per step: {per_step:.1} ms");
    for ((layer, name), n) in trace.counters() {
        if layer == "nbody" {
            println!("count {layer}.{name} = {n}");
        }
    }
}
