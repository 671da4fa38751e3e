//! Integrator conformance: the per-particle acceleration the KDK stepper
//! carries across the step boundary must be invisible.
//!
//! [`nbody::Simulation`] solves once per step: the closing kick's gathered
//! acceleration serves the next step's opening kick, valid while positions
//! and `a` are unchanged. Here each rule is held end to end, stated once
//! over every backend, bit-for-bit:
//!
//! * **equivalence** — stepping normally vs. with the carry discarded before
//!   every step (so every kick solves and gathers), after every step.
//! * **counted work** — an `N`-step run performs exactly `N + 1` solves and
//!   `N + 1` gathers, the discarding run `2N`, read off the product's
//!   `nbody.pm_solves` / `nbody.gathers` counters (counts, not seconds).
//! * **invalidation** — continue a run mid-way vs. `from_state` of the same
//!   state (what a checkpoint restore builds), with and without one particle
//!   moved through `particles_mut()` first: a stale array is impossible and
//!   a restart re-gathers to the same bits.
//! * **one trajectory** — every backend is the same sequence of bits: no
//!   backend or worker count moves one (every deposit is the exact integer
//!   sum).

use dpp::{Backend, Serial, StaticThreaded, Threaded};
use nbody::{Cosmology, Particle, SimConfig, Simulation};
use parking_lot::Mutex;
use std::sync::Arc;

/// Steps per run: enough for several carried fields and a mid-run split.
const STEPS: usize = 6;

fn cfg() -> SimConfig {
    SimConfig {
        cosmology: Cosmology {
            box_size: 32.0,
            sigma_cell: 2.5,
            ..Cosmology::default()
        },
        np: 16,
        ng: 16,
        z_init: 30.0,
        z_final: 0.0,
        nsteps: STEPS,
        seed: 0x0CA2_21ED,
    }
}

/// One step with the carried acceleration discarded first, so both of its
/// kicks solve and gather: the stepper as it was before anything was carried.
/// The reference the equivalence check and the `pm_step_64` bench compare to.
pub fn step_resolving(sim: &mut Simulation, backend: &dyn Backend) {
    let _ = sim.particles_mut();
    sim.step(backend);
}

/// A particle's tag with its position and momentum as bit patterns.
type Bits = (u64, [u32; 6]);

/// Tags with positions and momenta as bit patterns, in storage order.
fn bits(particles: &[Particle]) -> Vec<Bits> {
    particles
        .iter()
        .map(|p| {
            let [x, y, z] = p.pos.map(f32::to_bits);
            let [u, v, w] = p.vel.map(f32::to_bits);
            (p.tag, [x, y, z, u, v, w])
        })
        .collect()
}

fn backends() -> Vec<(&'static str, Box<dyn Backend>)> {
    vec![
        ("serial", Box::new(Serial)),
        ("threaded-2", Box::new(Threaded::new(2))),
        ("static-3", Box::new(StaticThreaded::new(3))),
    ]
}

/// Serializes recorder installs: `telemetry::install` panics on a second one.
pub(crate) static RECORDER: Mutex<()> = Mutex::new(());

/// A backend's run: name, `[step]` particle bits, and the
/// `[nbody.pm_solves, nbody.gathers]` it counted.
type Run = (&'static str, Vec<Vec<Bits>>, [u64; 2]);

/// Run on every backend to the end under a recorder, `resolving` discarding
/// the carried acceleration before every step. Each backend steps under its
/// own telemetry dim, which also keeps concurrent tests' solves out of its
/// counts.
fn run_every_backend(resolving: bool) -> Vec<Run> {
    const DIM: u64 = 0x01C0_FFEE;
    let _serial = RECORDER.lock();
    let recorder = Arc::new(telemetry::Recorder::new(telemetry::Clock::Logical));
    let guard = telemetry::install(recorder);
    let mut runs = Vec::new();
    for (name, b) in backends() {
        let b = b.as_ref();
        let _dim = telemetry::with_dim(DIM + runs.len() as u64);
        let (mut sim, mut seen) = (Simulation::new(b, cfg()), Vec::new());
        while !sim.finished() {
            if resolving {
                step_resolving(&mut sim, b);
            } else {
                sim.step(b);
            }
            seen.push(bits(sim.particles()));
        }
        runs.push((name, seen));
    }
    let counters = guard.finish().counters_by_dim();
    let count = |name, dim| counters.get(&("nbody", name, dim)).copied().unwrap_or(0);
    let counted = |dim| ["pm_solves", "gathers"].map(|name| count(name, dim));
    let runs = runs.into_iter().zip(DIM..);
    runs.map(|((name, seen), dim)| (name, seen, counted(dim)))
        .collect()
}

fn check_invalidation() {
    for (name, b) in backends() {
        let b = b.as_ref();
        for mutate in [false, true] {
            let mut running = Simulation::new(b, cfg());
            for _ in 0..STEPS / 2 {
                running.step(b);
            }
            if mutate {
                // Half a cell in x, kept inside the box.
                let p = &mut running.particles_mut()[17];
                p.pos[0] = (p.pos[0] + 1.0) % 32.0;
            }
            let mut restarted = Simulation::from_state(
                cfg(),
                running.particles().to_vec(),
                running.scale_factor(),
                running.step_index(),
            );
            running.run(b);
            restarted.run(b);
            assert_eq!(
                bits(running.particles()),
                bits(restarted.particles()),
                "{name}, mutate={mutate}: continuation differs from a restart of the same state"
            );
        }
    }
}

/// Run every check of this module; panics on the first violation.
pub fn assert_integrator_conformance() {
    let n = STEPS as u64;
    let (carried, resolving) = (run_every_backend(false), run_every_backend(true));
    let trajectory = &carried[0].1;
    for ((name, seen, counts), (_, reference, recounts)) in carried.iter().zip(&resolving) {
        assert!(
            seen == trajectory,
            "{name}: the particles leave {}'s trajectory",
            carried[0].0
        );
        assert!(seen == reference, "{name}: the carried array moved a bit");
        assert_eq!(*counts, [n + 1; 2], "{name}: N + 1");
        assert_eq!(*recounts, [2 * n; 2], "{name}: 2N when discarding");
    }
    check_invalidation();
}

#[cfg(test)]
mod tests {
    #[test]
    fn carried_field_is_invisible_and_counted() {
        super::assert_integrator_conformance();
    }
}
