//! The paper's in-situ visualization workload (a stand-in for Figure 2):
//! a [`cosmotools::DensityRenderTask`] registered with the
//! [`cosmotools::InSituAnalysisManager`] renders one column-density
//! projection frame per simulation step — LOD particle selection, SoA CIC
//! deposit, axis projection, log-stretch tone map — exactly the algorithm
//! the co-scheduled runner streams and the conformance battery certifies.
//!
//! The final frame lands as an HCIM container (digest printed), and the
//! whole stream is priced through [`hacc_core::RenderProfile`] on the
//! Titan interconnect, the render-phase cost line Tables 3/4 never show.
//!
//! ```text
//! cargo run --release --example density_render
//! ```

use cosmotools::{Config, DensityRenderTask, InSituAnalysisManager, Product};
use dpp::Threaded;
use hacc_core::{RenderProfile, TitanFrame};
use nbody::{SimConfig, Simulation};

fn main() {
    let backend = Threaded::with_available_parallelism();
    let cfg = SimConfig {
        np: 64,
        ng: 64,
        nsteps: 40,
        seed: 314159,
        ..SimConfig::default()
    };
    let box_size = cfg.cosmology.box_size;
    let nsteps = cfg.nsteps;

    // Configure the render task from a CosmoTools deck, the same section the
    // workflow runner reads.
    let deck = "\
[density-render]
enabled = true
ng = 64
axis = z
every = 1
";
    let config = Config::parse(deck).expect("deck parses");
    let mut manager = InSituAnalysisManager::new();
    manager.register(Box::new(DensityRenderTask::new()));
    manager.configure(&config).expect("configure render task");

    println!(
        "evolving {}^3 particles to z = 0, rendering every step...",
        cfg.np
    );
    let mut sim = Simulation::new(&backend, cfg);
    let started = std::time::Instant::now();
    sim.run_with_hook(&backend, |step, s| {
        manager.execute_at(
            step,
            nsteps,
            s.redshift(),
            s.particles(),
            box_size,
            &backend,
        );
    });
    let wall = started.elapsed().as_secs_f64();

    let products = manager.take_products();
    let frames: Vec<_> = products
        .iter()
        .filter_map(|p| match p {
            Product::Image { frame, .. } => Some(frame),
            _ => None,
        })
        .collect();
    assert_eq!(frames.len(), nsteps, "one frame per step");
    let last = frames.last().expect("at least one frame");

    // The final frame as an HCIM container — the exact bytes the runner
    // streams to the post-processing job.
    let path = std::env::temp_dir().join("hacc_density.hcim");
    let digest = cosmotools::write_image_file(&path, last).expect("write image");
    println!(
        "wrote {} ({}x{} HCIM, digest {digest})",
        path.display(),
        last.width,
        last.height
    );

    // ASCII rendering of the tone-mapped pixels (coarse).
    let ng = last.width as usize;
    let ramp: Vec<char> = " .:-=+*#%@".chars().collect();
    println!(
        "\ncolumn density at z = {:.2} (log stretch):",
        sim.redshift()
    );
    for a in (0..ng).step_by(2) {
        let mut line = String::new();
        for b in 0..ng {
            let v = last.pixels[a * ng + b] as usize * (ramp.len() - 1) / 255;
            line.push(ramp[v.min(ramp.len() - 1)]);
        }
        println!("{line}");
    }

    // The render-phase cost line: the frame stream priced as point-to-point
    // fetches over the Titan interconnect (bandwidth-bound, per the paper's
    // co-scheduling cost model).
    let measured: f64 = manager
        .records()
        .iter()
        .filter(|r| r.algorithm == "density-render")
        .map(|r| r.seconds)
        .sum();
    let profile = RenderProfile::every_step(ng, frames.len() as u64);
    let net = &TitanFrame::default().titan.net;
    println!(
        "\nrender phase: {} frames, {:.1} KiB streamed, {:.2} ms modeled stream time on Titan's interconnect, {:.0} ms measured render wall time",
        frames.len(),
        profile.total_bytes() as f64 / 1024.0,
        profile.stream_seconds(net) * 1e3,
        measured * 1e3
    );
    // What the in-situ visualization papers report: each algorithm's cost as
    // a fraction of the simulation it rides on (the loop's wall time less
    // everything the manager ran).
    let mut insitu = std::collections::BTreeMap::<&str, f64>::new();
    for r in manager.records() {
        *insitu.entry(r.algorithm.as_str()).or_default() += r.seconds;
    }
    let simulation = wall - insitu.values().sum::<f64>();
    for (algorithm, seconds) in &insitu {
        println!(
            "in-situ / simulation: {algorithm} {:.2} ({seconds:.2} s over {simulation:.2} s of stepping)",
            seconds / simulation
        );
    }
    println!(
        "density rms grew to {:.1} (clustered filaments and knots = the halos the workflow analyzes)",
        sim.density_rms(&backend)
    );
}
