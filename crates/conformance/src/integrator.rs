//! Integrator conformance: the per-particle acceleration the KDK steppers
//! carry across the step boundary must be invisible.
//!
//! [`nbody::Simulation`] and [`nbody::DistSim`] solve the PM force and read
//! the force mesh once per step: the closing kick's gathered acceleration
//! serves the next step's opening kick, valid while positions and `a` are
//! unchanged. The checks, all bit-for-bit:
//!
//! * **equivalence** — stepping normally (through `run_with_hook`, compared on
//!   what the hook sees) vs. through [`step_resolving`] (carry discarded
//!   before every step, so every kick solves and gathers), after every step,
//!   on `Serial`, `Threaded::new(2)` and `StaticThreaded::new(3)`; the same
//!   for `DistSim` on 1, 2 and 4 ranks, where the drift re-homes particles
//!   between ranks (asserted: some rank's particle count changes), so an
//!   array that outlived a drift would be the wrong particles' — and the
//!   wrong length.
//! * **invalidation** — continue a run mid-way vs. `from_state` of the same
//!   state (what a checkpoint restore builds), with and without one particle
//!   moved through `particles_mut()` first: a stale array is impossible and
//!   a restart re-gathers to the same bits.
//! * **counted work** — an `N`-step run performs exactly `N + 1` solves and
//!   `N + 1` gathers, the resolving stepper `2N` of each, read off the
//!   `nbody.pm_solves` and `nbody.gathers` counters (counts, not seconds), on
//!   all three backends and on 1, 2 and 4 ranks.

use comm::World;
use dpp::{Backend, Serial, StaticThreaded, Threaded};
use nbody::{Cosmology, DistSim, Particle, SimConfig, Simulation};
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
/// The reference the equivalence checks and the `pm_step_64` bench compare
/// against.
pub fn step_resolving(sim: &mut Simulation, backend: &dyn Backend) {
    let _ = sim.particles_mut();
    sim.step(backend);
}

/// Positions and momenta as bit patterns, in storage order.
fn bits(particles: &[Particle]) -> Vec<[u32; 6]> {
    particles
        .iter()
        .map(|p| {
            let [x, y, z] = p.pos.map(f32::to_bits);
            let [u, v, w] = p.vel.map(f32::to_bits);
            [x, y, z, u, v, w]
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

fn check_equivalence() {
    for (name, b) in backends() {
        let b = b.as_ref();
        let mut seen = Vec::new();
        Simulation::new(b, cfg()).run_with_hook(b, |_, sim| seen.push(bits(sim.particles())));
        let mut resolving = Simulation::new(b, cfg());
        for (step, carried) in seen.iter().enumerate() {
            step_resolving(&mut resolving, b);
            assert_eq!(
                carried,
                &bits(resolving.particles()),
                "{name}: carried acceleration changed step {}",
                step + 1
            );
        }
        assert!(seen.len() == STEPS && resolving.finished());
    }
    for nranks in [1usize, 2, 4] {
        let per_rank = World::new(nranks).run(|c| {
            let mut seen = Vec::new();
            DistSim::new(c, cfg()).run_with_hook(|_, sim| seen.push(bits(sim.particles())));
            let mut resolving = DistSim::new(c, cfg());
            let mut reference = Vec::new();
            while !resolving.finished() {
                // `step_resolving`, collectively: every rank discards.
                resolving.discard_carried_force();
                resolving.step();
                reference.push(bits(resolving.particles()));
            }
            (seen, reference)
        });
        let mut rehomed = false;
        for (rank, (seen, reference)) in per_rank.into_iter().enumerate() {
            assert!(
                seen == reference,
                "{nranks} ranks: carried acceleration changed rank {rank}'s particles"
            );
            rehomed |= seen.windows(2).any(|w| w[0].len() != w[1].len());
        }
        assert!(
            rehomed || nranks == 1,
            "{nranks} ranks: no drift moved a particle between ranks"
        );
    }
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

/// Serializes recorder installs: `telemetry::install` panics on a second one.
pub(crate) static RECORDER: Mutex<()> = Mutex::new(());

/// The `nbody.pm_solves` and `nbody.gathers` counts of `work`, which must tag
/// its stepping threads with `telemetry::with_dim(dim)` so concurrent tests'
/// solves stay out.
fn solves_and_gathers(dim: u64, work: impl FnOnce()) -> [u64; 2] {
    let _serial = RECORDER.lock();
    let recorder = Arc::new(telemetry::Recorder::new(telemetry::Clock::Logical));
    let guard = telemetry::install(recorder);
    work();
    let counters = guard.finish().counters_by_dim();
    ["pm_solves", "gathers"].map(|name| counters.get(&("nbody", name, dim)).copied().unwrap_or(0))
}

fn check_counted_work() {
    let n = STEPS as u64;
    const DIM: u64 = 0x01C0_FFEE;
    for (name, b) in backends() {
        let b = b.as_ref();
        let carried = solves_and_gathers(DIM, || {
            let _dim = telemetry::with_dim(DIM);
            Simulation::new(b, cfg()).run(b);
        });
        assert_eq!(
            carried,
            [n + 1; 2],
            "{name}: an N-step run solves and gathers N + 1 times"
        );
        let resolving = solves_and_gathers(DIM, || {
            let _dim = telemetry::with_dim(DIM);
            let mut sim = Simulation::new(b, cfg());
            while !sim.finished() {
                step_resolving(&mut sim, b);
            }
        });
        assert_eq!(
            resolving,
            [2 * n; 2],
            "{name}: the resolving stepper solves and gathers at every kick"
        );
    }
    for nranks in [1u64, 2, 4] {
        let dist = solves_and_gathers(DIM, || {
            World::new(nranks as usize).run(|c| {
                let _dim = telemetry::with_dim(DIM);
                DistSim::new(c, cfg()).run();
            });
        });
        assert_eq!(
            dist,
            [nranks * (n + 1); 2],
            "{nranks} ranks × (N + 1) solves and gathers"
        );
    }
}

/// Run every check of this module; panics on the first violation.
pub fn assert_integrator_conformance() {
    check_equivalence();
    check_invalidation();
    check_counted_work();
}

#[cfg(test)]
mod tests {
    // `DistSim` reaches the fault-instrumented comm sites. No unit test of
    // this crate installs a process-global injector (the explorers' tests
    // pass theirs by value), so nothing can fire here; the root suite, whose
    // tests do install one, takes its `GLOBAL_INJECTOR_LOCK` around this.
    #[test]
    fn carried_field_is_invisible_and_counted() {
        super::assert_integrator_conformance();
    }
}
