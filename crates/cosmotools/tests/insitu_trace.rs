//! The in-situ path under a recorder: every algorithm execution is a span,
//! the two kernels behind it are spans with their `n`, and the FOF's memory
//! is a counted O(n) — an index (bitmap, rank directory, cell starts and
//! sort scratch) within the `4·(8n + 1)` bytes of a table of `8n` cells —
//! on the benchmark's shape (64³ particles, 64³ render mesh, `box/link` =
//! 320) and on ten particles with `box/link` = 10⁶.
//!
//! An unlimited render frame deposits every particle in storage order and
//! computes no level-of-detail order: an 8-step run shows `gather`,
//! `project` and `tone_map` per frame and no `lod_order`. A budgeted task
//! sorts its order once per run: one sorted frame and seven reused ones.
//!
//! One test, because the recorder is process-global.

use cosmotools::{Config, DensityRenderTask, HaloFinderTask, InSituAnalysisManager};
use dpp::Threaded;
use nbody::{Particle, SimConfig, Simulation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use telemetry::{Clock, Recorder, Trace};

/// Seeded uniform particles in a box of side `box_size`.
fn uniform(n: usize, box_size: f32) -> Vec<Particle> {
    let mut rng = StdRng::seed_from_u64(18);
    (0..n as u64)
        .map(|tag| {
            let pos = [(); 3].map(|()| rng.gen_range(0.0..box_size));
            Particle::at_rest(pos, 1.0, tag)
        })
        .collect()
}

/// One step of the benchmark's manager (a frame, then the halo finder).
fn insitu_step(particles: &[Particle], box_size: f64, backend: &Threaded) -> Trace {
    let deck = "[density-render]\nenabled = true\nng = 64\n[halofinder]\nenabled = true\n";
    let mut manager = InSituAnalysisManager::new();
    manager.register(Box::new(DensityRenderTask::new()));
    manager.register(Box::new(HaloFinderTask::new()));
    manager.configure(&Config::parse(deck).unwrap()).unwrap();
    let recorder = telemetry::install(Arc::new(Recorder::new(Clock::Logical)));
    assert_eq!(
        manager.execute_at(8, 8, 0.0, particles, box_size, backend),
        2
    );
    recorder.finish()
}

/// An 8-step run with a density frame every step, under `byte_budget`.
fn render_run(backend: &Threaded, byte_budget: u64) -> Trace {
    let cfg = SimConfig {
        np: 16,
        ng: 16,
        nsteps: 8,
        seed: 27,
        ..SimConfig::default()
    };
    let box_size = cfg.cosmology.box_size;
    let mut sim = Simulation::new(backend, cfg);
    let mut manager = InSituAnalysisManager::new();
    manager.register(Box::new(DensityRenderTask::new()));
    let deck = format!("[density-render]\nenabled = true\nng = 16\nbyte_budget = {byte_budget}\n");
    manager.configure(&Config::parse(&deck).unwrap()).unwrap();
    let recorder = telemetry::install(Arc::new(Recorder::new(Clock::Logical)));
    sim.run_with_hook(backend, |step, s| {
        manager.execute_at(step, 8, s.redshift(), s.particles(), box_size, backend);
    });
    recorder.finish()
}

/// The arguments of every `render.<name>` span, in order.
fn render_spans(trace: &Trace, name: &str) -> Vec<u64> {
    trace
        .spans()
        .iter()
        .filter(|s| s.layer == "render" && s.name == name)
        .map(|s| s.arg)
        .collect()
}

fn counter(trace: &Trace, layer: &'static str, name: &'static str) -> u64 {
    *trace
        .counters()
        .get(&(layer, name))
        .unwrap_or_else(|| panic!("no `{layer}.{name}` count"))
}

#[test]
fn insitu_kernels_are_traced_and_their_cells_are_bounded_by_n() {
    let backend = Threaded::new(2);
    let (n, box_size) = (64 * 64 * 64, 256.0);
    let particles = uniform(n, box_size as f32);
    let trace = insitu_step(&particles, box_size, &backend);

    let spans: Vec<(&str, &str, u64)> = trace
        .spans()
        .iter()
        .map(|s| (s.layer, s.name, s.arg))
        .collect();
    for want in [
        ("insitu", "density-render", 8),
        ("insitu", "halofinder", 8),
        ("nbody", "cic_deposit_exact", n as u64),
        ("halo", "fof_grid", n as u64),
    ] {
        assert!(spans.contains(&want), "no span {want:?}");
    }
    assert!(counter(&trace, "halo", "fof_cells") > 0);
    assert!(counter(&trace, "halo", "fof_index_bytes") <= 4 * (8 * n as u64 + 1));
    // A logical-clock export is a function of the work alone.
    let again = insitu_step(&particles, box_size, &backend);
    assert_eq!(trace.chrome_json(), again.chrome_json());

    // Unlimited frames: every particle, in storage order, and no order.
    let trace = render_run(&backend, 0);
    assert_eq!(counter(&trace, "render", "frames"), 8);
    let (n, ng) = (16 * 16 * 16, 16);
    for (name, arg) in [("gather", n), ("project", ng), ("tone_map", ng * ng)] {
        assert_eq!(
            render_spans(&trace, name),
            [arg; 8],
            "`render.{name}` spans"
        );
    }
    assert_eq!(render_spans(&trace, "lod_order"), []);
    let counters = trace.counters();
    assert!(!counters.contains_key(&("render", "lod_sorted")));
    assert!(!counters.contains_key(&("render", "lod_reused")));
    assert_eq!(trace.chrome_json(), render_run(&backend, 0).chrome_json());

    // Half-budget frames: the order is sorted on the first frame and reused
    // on the other seven.
    let budget = n / 2 * cosmotools::PARTICLE_RENDER_BYTES;
    let trace = render_run(&backend, budget);
    assert_eq!(counter(&trace, "render", "lod_sorted"), 1);
    assert_eq!(counter(&trace, "render", "lod_reused"), 7);
    assert_eq!(render_spans(&trace, "lod_order"), [n; 8]);
    assert_eq!(render_spans(&trace, "gather"), [n / 2; 8]);

    // Ten particles, a mesh of 10⁶ cells a side by the linking length.
    let ten = uniform(10, 1.0);
    let positions: Vec<[f64; 3]> = ten.iter().map(|p| p.pos_f64()).collect();
    let recorder = telemetry::install(Arc::new(Recorder::new(Clock::Logical)));
    halo::fof_grid(&positions, 1e-6, 1.0);
    let trace = recorder.finish();
    assert!(counter(&trace, "halo", "fof_index_bytes") <= 4 * 81);
}
