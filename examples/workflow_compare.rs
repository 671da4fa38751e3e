//! The paper's §4.2 comparison, twice:
//!
//! 1. **Measured** — actually execute the in-situ, off-line, and combined
//!    workflows (real files, real redistribution, real listener) on a
//!    downscaled run and report local wall seconds per phase.
//! 2. **Projected** — the Titan-frame model regenerating Tables 3 and 4 at
//!    the paper's 1024³/32-node scale.
//!
//! ```text
//! cargo run --release --example workflow_compare
//! cargo run --release --example workflow_compare -- --trace out.json
//! ```
//!
//! With `--trace <file>` the run exports a Chrome trace-event JSON
//! (Perfetto-loadable) and, for that run only, drops 2% of `comm.send`
//! packets so the `faults` layer is in it; the telemetry summary table
//! prints either way.

use dpp::Threaded;
use hacc_core::experiments::{format_table3, table3_4};
use hacc_core::{format_table4, Strategy, TestBed, TitanFrame};
use scenarios::Scenario;

fn main() {
    let trace_out = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--trace")
            .and_then(|i| args.get(i + 1).cloned())
    };
    let guard = telemetry::install(std::sync::Arc::new(telemetry::Recorder::new(
        telemetry::Clock::Wall,
    )));
    // Only an exported trace runs under a fault plan, so that it shows the
    // `faults` layer beside the other six; dropped packets are retransmitted
    // transparently (the fault is only recorded), so no result changes.
    let _faults = trace_out.is_some().then(|| {
        faults::install(
            faults::FaultPlan::new(1)
                .with_site(faults::SiteSpec::transient("comm.send", 0.02))
                .build(),
        )
    });
    let backend = Threaded::with_available_parallelism();

    // ---------------- measured (real execution) ----------------
    // The setup is named by the scenario grammar: the medium load regime is
    // the historical workflow_compare configuration (32³ particles, 30
    // steps, 8 ranks). Swap the ID to resize the whole experiment.
    let scenario: Scenario = "titan/medium/halos/co-scheduled/none/titan-policy"
        .parse()
        .expect("valid scenario id");
    let mut cfg = scenario.load.runner_config(77);
    cfg.workdir = std::env::temp_dir().join("hacc_workflow_compare");
    println!("== measured: real execution of every workflow strategy ==");
    println!("scenario: {scenario}");
    let bed = TestBed::create(cfg, &backend);
    println!(
        "simulation: {:.2} s ({} particles)",
        bed.sim_seconds,
        bed.particles.len()
    );

    let runs = Strategy::ALL.map(|strategy| bed.run(strategy, &backend));

    println!(
        "{:<32} {:>8} {:>8} {:>12} {:>10} {:>8} {:>8}",
        "strategy", "read", "write", "redistribute", "analysis", "halos", "overlap"
    );
    for run in &runs {
        println!(
            "{:<32} {:>8.3} {:>8.3} {:>12.3} {:>10.3} {:>8} {:>8}",
            run.strategy,
            run.phases.read,
            run.phases.write,
            run.phases.redistribute,
            run.phases.analysis,
            run.centers.len(),
            run.overlapped_jobs
        );
    }
    // Measured dispatch overhead per strategy: the pool counters the cost
    // model's analysis phase is calibrated against.
    println!(
        "{:<32} {:>12} {:>16}",
        "strategy", "dispatches", "dispatch secs"
    );
    for run in &runs {
        println!(
            "{:<32} {:>12} {:>16.4}",
            run.strategy, run.pool_dispatches, run.dispatch_overhead_seconds
        );
    }
    // Every strategy must agree on the science output.
    let in_situ = &runs[0];
    for run in &runs[1..] {
        hacc_core::runner::assert_same_centers(&in_situ.centers, &run.centers);
    }
    println!("all strategies produced identical Level 3 center sets ✓");

    // Per-rank imbalance of the in-situ analysis (the paper's core story).
    let max_c = in_situ
        .rank_timings
        .iter()
        .map(|t| t.center_seconds)
        .fold(0.0f64, f64::max);
    let min_c = in_situ
        .rank_timings
        .iter()
        .map(|t| t.center_seconds)
        .fold(f64::INFINITY, f64::min);
    println!(
        "center-finding imbalance across {} ranks: slowest {:.3} s / fastest {:.3} s = {:.1}x",
        in_situ.rank_timings.len(),
        max_c,
        min_c,
        max_c / min_c.max(1e-9)
    );

    // ---------------- projected (Titan frame) ----------------
    println!("\n== projected: Tables 3 & 4 at the paper's 1024^3 / 32-node scale ==");
    let frame = TitanFrame::default();
    let costs = table3_4(&frame, 7);
    print!("{}", format_table3(&costs));
    println!();
    print!("{}", format_table4(&costs));

    // Co-scheduling's wall-clock benefit over a full campaign (§4.2): same
    // core-hours, earlier results.
    let spec = hacc_core::RunSpec::small_run(7);
    let after = frame.campaign_mean_result_time(&spec, 10, false);
    let overlapped = frame.campaign_mean_result_time(&spec, 10, true);
    println!(
        "\n10-snapshot campaign, mean time until a snapshot's analysis is ready:\n\
         \x20 analyze after the run: {:.0} s   co-scheduled: {:.0} s ({:.0}% sooner, same core-hours)",
        after,
        overlapped,
        (1.0 - overlapped / after) * 100.0
    );

    // ---------------- telemetry ----------------
    let trace = guard.finish();
    println!("\n== telemetry ==");
    print!("{}", trace.summary_table());
    if let Some(path) = trace_out {
        std::fs::write(&path, trace.chrome_json()).expect("write trace");
        println!("wrote trace {path} (load in Perfetto / chrome://tracing)");
    }
}
