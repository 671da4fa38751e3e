//! Co-scheduling end to end (paper §3.2), two ways:
//!
//! 1. **Live** — a real listener thread watches a directory while the
//!    simulation runs; each emitted Level 2 file triggers a real analysis
//!    job, overlapping the simulation.
//! 2. **Facility model** — the same job stream through the `simhpc` batch
//!    simulator under Titan's queue policy (two-small-jobs cap, capability
//!    priority) vs an analysis cluster's policy, showing why the paper
//!    needed a queue exemption on Titan but not on Rhea.
//!
//! ```text
//! cargo run --release --example coscheduling_demo
//! ```

use dpp::Threaded;
use hacc_core::{RunnerConfig, TestBed};
use nbody::SimConfig;
use simhpc::{machine, BatchSimulator, JobRequest, QueuePolicy};

fn main() {
    let guard = telemetry::install(std::sync::Arc::new(telemetry::Recorder::new(
        telemetry::Clock::Wall,
    )));

    // ---------------- live listener ----------------
    let backend = Threaded::with_available_parallelism();
    let cfg = RunnerConfig {
        sim: SimConfig {
            np: 32,
            ng: 32,
            nsteps: 30,
            seed: 99,
            ..SimConfig::default()
        },
        nranks: 8,
        post_ranks: 2,
        threshold: 200,
        min_size: 40,
        workdir: std::env::temp_dir().join("hacc_cosched_demo"),
        ..Default::default()
    };
    println!("== live co-scheduling: simulation + listener + analysis jobs ==");
    let bed = TestBed::create(cfg, &backend);
    let run = bed.run_combined_coscheduled(&backend, 5);
    println!(
        "simulation wall time {:.2} s; {} analysis jobs started before the simulation ended",
        run.phases.sim, run.overlapped_jobs
    );
    println!("final merged catalog: {} halo centers\n", run.centers.len());

    // ---------------- facility queue model ----------------
    println!("== facility model: the same job stream under two queue policies ==");
    // A 10-snapshot run: the simulation holds 32 nodes for 10,000 s and
    // emits a Level 2 file every 250 s; each file needs a 4-node, 1500 s
    // analysis job — so jobs arrive faster than any one finishes ("pile-up
    // in the analysis stack", §3.2).
    let mk_jobs = || -> Vec<JobRequest> {
        let mut jobs = vec![JobRequest::new("simulation", 32, 10_000.0, 0.0)];
        for i in 0..10 {
            jobs.push(JobRequest::new(
                format!("analysis{i:02}"),
                4,
                1500.0,
                250.0 * (i as f64 + 1.0),
            ));
        }
        jobs
    };

    for (label, machine, mut policy) in [
        (
            "Titan (small-job cap = 2)",
            machine::titan(),
            QueuePolicy::titan(),
        ),
        (
            "analysis cluster (Rhea-like)",
            machine::rhea(),
            QueuePolicy::analysis_cluster(),
        ),
    ] {
        policy.base_wait = 0.0; // isolate the structural queue effects
        let mut m = machine;
        m.total_nodes = m.total_nodes.min(512);
        let mut sim = BatchSimulator::new(m, policy);
        for j in mk_jobs() {
            sim.submit(j);
        }
        let recs = sim.run_to_completion();
        let sim_end = recs
            .iter()
            .find(|r| r.name == "simulation")
            .unwrap()
            .end_time;
        let overlapped = recs
            .iter()
            .filter(|r| r.name.starts_with("analysis") && r.start_time < sim_end)
            .count();
        let last_end = recs.iter().map(|r| r.end_time).fold(0.0, f64::max);
        let mean_wait: f64 = recs
            .iter()
            .filter(|r| r.name.starts_with("analysis"))
            .map(|r| r.queue_wait())
            .sum::<f64>()
            / 10.0;
        println!(
            "{label:<32} {overlapped}/10 jobs overlapped the run; mean analysis queue wait {mean_wait:>7.0} s; campaign done at {last_end:>7.0} s"
        );
    }
    println!("\n(the Titan cap serializes the co-scheduled jobs in pairs — the paper's \"queue exemption\" problem;");
    println!(" the analysis cluster runs them as data arrives, which is the workflow the paper advocates)");

    println!("\n== telemetry ==");
    print!("{}", guard.finish().summary_table());
}
