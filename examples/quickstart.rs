//! Quickstart: run a small HACC-style simulation with CosmoTools attached,
//! exactly as the paper's Figure 1 "in-situ" panel: the analysis runs in the
//! same process, on the already-distributed particles, at the steps the
//! input deck requests.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cosmotools::{
    Config, HaloFinderTask, InSituAnalysisManager, PowerSpectrumTask, Product, SoMassTask,
};
use dpp::Threaded;
use nbody::{SimConfig, Simulation};

fn main() {
    let backend = Threaded::with_available_parallelism();

    // The simulation "input deck" side: a 32³ run to z = 0.
    let cfg = SimConfig {
        np: 32,
        ng: 32,
        nsteps: 30,
        seed: 20150715,
        ..SimConfig::default()
    };
    let box_size = cfg.cosmology.box_size;

    // The CosmoTools configuration file.
    let deck = Config::parse(
        "[powerspectrum]\n\
         enabled = true\n\
         every = 10\n\
         bins = 16\n\
         [halofinder]\n\
         enabled = true\n\
         linking_length = 0.2\n\
         min_size = 40\n\
         center_threshold = 100000\n\
         at_final_step = true\n\
         [somass]\n\
         enabled = true\n\
         delta = 200\n",
    )
    .expect("valid deck");

    let mut manager = InSituAnalysisManager::new();
    manager.register(Box::new(PowerSpectrumTask::new()));
    manager.register(Box::new(HaloFinderTask::new()));
    manager.register(Box::new(SoMassTask::new()));
    manager.configure(&deck).expect("configure");

    println!(
        "running {}^3 particles in a ({} Mpc/h)^3 box, {} steps, backend `{}`...",
        cfg.np,
        box_size,
        cfg.nsteps,
        dpp::Backend::name(&backend)
    );
    let t0 = std::time::Instant::now();
    let mut sim = Simulation::new(&backend, cfg);
    sim.run_with_hook(&backend, |step, sim| {
        let ran = manager.execute_at(
            step,
            sim.total_steps(),
            sim.redshift(),
            sim.particles(),
            box_size,
            &backend,
        );
        if ran > 0 {
            println!(
                "  step {step:>3} (z = {:>6.3}): {ran} analysis task(s) ran",
                sim.redshift()
            );
        }
    });
    println!(
        "simulation + in-situ analysis: {:.2} s",
        t0.elapsed().as_secs_f64()
    );

    // Walk the products like the storage system would.
    for p in manager.products() {
        match p {
            Product::PowerSpectrum { step, bins } => {
                let peak = bins
                    .iter()
                    .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                    .unwrap();
                println!(
                    "power spectrum @ step {step}: {} bins, peak P(k) at k = {:.3} h/Mpc",
                    bins.len(),
                    peak.0
                );
            }
            Product::Halos { step, catalog } => {
                let centered = catalog
                    .halos
                    .iter()
                    .filter(|h| h.mbp_center.is_some())
                    .count();
                let largest = catalog.halos.iter().map(|h| h.count()).max().unwrap_or(0);
                println!(
                    "halos @ step {step}: {} halos (largest {largest} particles), {centered} centered in situ",
                    catalog.len()
                );
            }
            Product::SoMasses { step, masses } => {
                println!("SO masses @ step {step}: {} halos measured", masses.len());
            }
            Product::Image { step, frame } => {
                println!(
                    "frame @ step {step}: {}x{} {}-axis projection ({} of {} particles)",
                    frame.width,
                    frame.height,
                    frame.axis.label(),
                    frame.selected,
                    frame.total
                );
            }
        }
    }

    // Timing records — the paper's "negligible overhead" claim is observable.
    println!("\nper-task timings:");
    for r in manager.records() {
        println!(
            "  {:<16} step {:>3}: {:>8.3} s",
            r.algorithm, r.step, r.seconds
        );
    }
}
