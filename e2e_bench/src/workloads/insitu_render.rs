//! `insitu_render` — a simulation with CosmoTools in the loop: a density
//! frame every step, halo finder and power spectrum every fourth. The only
//! workload where `cosmotools::render` and `cosmotools::algorithms` carry
//! about half the wall time: a render or power-spectrum gain shows here and
//! nowhere else, an `nbody` gain shows here and on `cosched`.

use super::{record_trace, timed_loop, timed_setup, Outcome, Params};
use crate::host::{self, Scratch};
use crate::probes;
use crate::trace::{Tracer, ROOT_LAYER};
use cache::Digest;
use cosmotools::{
    Config, DensityRenderTask, HaloFinderTask, InSituAnalysisManager, PowerSpectrumTask, Product,
};
use dpp::Backend;
use nbody::{Particle, SimConfig, Simulation};
use std::time::Instant;

/// Steps between halo-finder / power-spectrum executions.
const ANALYSIS_EVERY: usize = 4;

/// Initial conditions, generated once from the seed; every iteration evolves
/// a copy.
struct Fixture {
    cfg: SimConfig,
    render_ng: usize,
    initial: Vec<Particle>,
    a0: f64,
}

/// What an iteration produced, reduced to what is compared across runs.
#[derive(Debug, PartialEq)]
struct Products {
    frame_digests: Vec<Digest>,
    halo_counts: Vec<usize>,
}

/// One iteration's measurements.
struct Iteration {
    wall: f64,
    /// Seconds per algorithm: render, halo finder, power spectrum.
    insitu_s: [f64; 3],
    frames: usize,
    frame_bytes: usize,
    roundtrips: bool,
    products: Products,
    final_particles: Vec<Particle>,
}

fn manager(fx: &Fixture) -> InSituAnalysisManager {
    let nsteps = fx.cfg.nsteps;
    let at_steps: Vec<String> = (1..=nsteps)
        .filter(|s| s % ANALYSIS_EVERY == 0)
        .map(|s| s.to_string())
        .collect();
    let deck = format!(
        "[density-render]\nenabled = true\nng = {}\naxis = z\nevery = 1\n\
         [halofinder]\nenabled = true\nat_steps = {}\nat_final_step = true\n\
         [powerspectrum]\nenabled = true\nevery = {ANALYSIS_EVERY}\n",
        fx.render_ng,
        at_steps.join(", "),
    );
    let config = Config::parse(&deck).expect("deck parses");
    let mut manager = InSituAnalysisManager::new();
    manager.register(Box::new(DensityRenderTask::new()));
    manager.register(Box::new(HaloFinderTask::new()));
    manager.register(Box::new(PowerSpectrumTask::new()));
    manager.configure(&config).expect("configure tasks");
    manager
}

/// Evolve a copy of the initial conditions with the manager in the loop.
/// With a tracer, the loop is re-composed from `Simulation::step` and
/// `execute_at` under spans; without, it is the product's `run_with_hook`.
fn iterate(fx: &Fixture, backend: &dyn Backend, tracer: Option<&Tracer>) -> Iteration {
    let mut manager = manager(fx);
    let mut sim = Simulation::from_state(fx.cfg.clone(), fx.initial.clone(), fx.a0, 0);
    let (nsteps, box_size) = (fx.cfg.nsteps, fx.cfg.cosmology.box_size);
    let t = Instant::now();
    match tracer {
        None => sim.run_with_hook(backend, |step, s| {
            manager.execute_at(step, nsteps, s.redshift(), s.particles(), box_size, backend);
        }),
        Some(tr) => {
            let root = tr.begin(None, ROOT_LAYER, "iteration", 0);
            while !sim.finished() {
                tr.scope(root, "nbody", "Simulation::step", |_| sim.step(backend));
                tr.scope(root, "cosmotools.insitu", "execute_at", |_| {
                    manager.execute_at(
                        sim.step_index(),
                        nsteps,
                        sim.redshift(),
                        sim.particles(),
                        box_size,
                        backend,
                    )
                });
            }
            tr.end(root);
        }
    }
    let wall = t.elapsed().as_secs_f64();

    let mut insitu_s = [0.0; 3];
    for r in manager.records() {
        let slot = match r.algorithm.as_str() {
            "density-render" => 0,
            "halofinder" => 1,
            _ => 2,
        };
        insitu_s[slot] += r.seconds;
    }
    let mut products = Products {
        frame_digests: Vec::new(),
        halo_counts: Vec::new(),
    };
    let (mut frame_bytes, mut roundtrips) = (0, true);
    for product in manager.products() {
        match product {
            Product::Image { frame, .. } => {
                let bytes = cosmotools::write_image(frame);
                frame_bytes += bytes.len();
                roundtrips &= cosmotools::read_image(&bytes).is_ok_and(|back| back == *frame);
                products.frame_digests.push(cosmotools::image_digest(frame));
            }
            Product::Halos { catalog, .. } => products.halo_counts.push(catalog.len()),
            _ => {}
        }
    }
    Iteration {
        wall,
        insitu_s,
        frames: products.frame_digests.len(),
        frame_bytes,
        roundtrips,
        products,
        final_particles: sim.particles().to_vec(),
    }
}

/// Run the workload.
pub fn run(p: &Params, _scratch: &Scratch) -> Outcome {
    let mut out = Outcome::default();
    let backend = host::backend();
    let fx = timed_setup(p, &mut out, 5, || {
        let (np, render_ng) = if p.quick { (16, 32) } else { (64, 64) };
        let cfg = SimConfig {
            np,
            ng: np,
            nsteps: 8,
            seed: p.seed,
            ..SimConfig::default()
        };
        let sim = Simulation::new(&backend, cfg.clone());
        Fixture {
            cfg,
            render_ng,
            initial: sim.particles().to_vec(),
            a0: sim.scale_factor(),
        }
    });
    let nsteps = fx.cfg.nsteps;

    // The warm-up sets the expectation every later iteration must repeat.
    let warmup = iterate(&fx, &backend, None);
    let mut expected = warmup.products;
    if p.corrupt {
        expected.halo_counts.iter_mut().for_each(|c| *c += 1);
    }
    // One operation per step: its frame exists, survives the container
    // round trip and repeats; the halo counts ride on the last step.
    let check = |out: &mut Outcome, it: &Iteration| {
        for step in 0..nsteps {
            let frame_ok = it.frames == nsteps
                && it.roundtrips
                && it.products.frame_digests.get(step) == expected.frame_digests.get(step);
            let halos_ok = step + 1 < nsteps || it.products.halo_counts == expected.halo_counts;
            out.op(frame_ok && halos_ok);
        }
    };

    let mut pool_deltas = Vec::new();
    let mut iterations = Vec::new();
    // Only the last run's particles are kept (for the render probes), so
    // peak memory does not grow with the number of iterations.
    let mut final_particles = Vec::new();
    timed_loop(p, 1.0, 2, || {
        let mut it =
            probes::with_pool_delta(&backend, &mut pool_deltas, || iterate(&fx, &backend, None));
        final_particles = std::mem::take(&mut it.final_particles);
        check(&mut out, &it);
        out.iteration(it.wall);
        iterations.push(it);
    });
    let overhead: Vec<f64> = iterations
        .iter()
        .map(|it| {
            let insitu: f64 = it.insitu_s.iter().sum();
            insitu / (it.wall - insitu)
        })
        .collect();
    out.set_samples("insitu_overhead_frac", &overhead);

    if p.trace {
        let column = |f: fn(&Iteration) -> f64| iterations.iter().map(f).collect::<Vec<f64>>();
        out.set_samples("insitu.render_s", &column(|it| it.insitu_s[0]));
        out.set_samples("insitu.halofinder_s", &column(|it| it.insitu_s[1]));
        out.set_samples("insitu.powerspectrum_s", &column(|it| it.insitu_s[2]));
        out.set_samples("render.frames", &column(|it| it.frames as f64));
        out.set_samples("render.bytes", &column(|it| it.frame_bytes as f64));
        probes::pool_report(&mut out, &pool_deltas);
        probes::render(&mut out, &backend, &fx.cfg, fx.render_ng, &final_particles);

        let tracer = Tracer::new();
        let traced = iterate(&fx, &backend, Some(&tracer));
        check(&mut out, &traced);
        record_trace(&mut out, &tracer, iterations[0].wall);
    }
    out
}
