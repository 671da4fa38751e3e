//! The kick–drift–kick leapfrog over the scale factor and the carried-force
//! state machine, written once: [`crate::Simulation`] and [`crate::DistSim`]
//! are this stepper over two [`ForceProvider`]s (the whole mesh in shared
//! memory; x-slabs across ranks). DESIGN.md, "Integrator: one solve, one
//! gather", has the argument; the rule is:
//!
//! A step is half-kick at `a0`, drift, half-kick at `a1`. The closing kick
//! asks the provider once for the acceleration at every particle, and that
//! array is *carried* to the next step's opening kick (same positions, same
//! `a` ⇒ same numbers), so an `N`-step run asks `N + 1` times
//! (`nbody.pm_solves`, `nbody.gathers`), not `2N`. The array is valid exactly
//! while positions and `a` are what it was gathered for: the drift and every
//! mutable view of the particles discard it, [`Stepper::from_state`] starts
//! without one, and it is freed with the provider's workspace once the run is
//! finished. A kick that finds none asks again, which yields the same bits: a
//! provider is deterministic per backend and `g[i]` a pure function of the
//! grids and particle `i`'s position.

use crate::cosmology::Cosmology;
use crate::ic::{zeldovich_particles, IcConfig};
use crate::particle::Particle;
use crate::pm::wrap_periodic;
use crate::sim::SimConfig;
use dpp::{par_for_each_mut, Backend, DEFAULT_GRAIN};

/// What differs between the drivers: how the PM force at every particle is
/// computed, and who owns a particle after it moved.
pub(crate) trait ForceProvider {
    /// `out[i]` = acceleration at `particles[i]` from `∇²φ = prefactor·δ`:
    /// deposit, solve, one gather, every grid dropped before returning.
    fn accelerations(
        &mut self,
        backend: &dyn Backend,
        cfg: &SimConfig,
        particles: &[Particle],
        prefactor: f64,
        out: &mut Vec<[f64; 3]>,
    );

    /// After a drift: hand every particle to the provider that owns it now.
    fn rehome(&mut self, _cfg: &SimConfig, _particles: &mut Vec<Particle>) {}

    /// The run is finished: free whatever is kept between solves.
    fn release(&mut self) {}
}

/// Leapfrog state, the carried acceleration and the provider it came from.
pub(crate) struct Stepper<F> {
    pub(crate) force: F,
    /// Read by the drivers' accessors; `a` and `step` are written by `step`.
    pub(crate) cfg: SimConfig,
    pub(crate) a: f64,
    pub(crate) step: usize,
    particles: Vec<Particle>,
    /// Acceleration at every particle, from the provider's last answer.
    accel: Vec<[f64; 3]>,
    /// `accel` was gathered for the current particles and `a`.
    carried: bool,
}

impl<F: ForceProvider> Stepper<F> {
    /// Validate `cfg` and start from the whole box's initial conditions.
    pub(crate) fn new(backend: &dyn Backend, cfg: SimConfig, force: F) -> Self {
        assert!(cfg.np.is_power_of_two() && cfg.ng.is_power_of_two());
        assert!(cfg.z_init > cfg.z_final, "must evolve forward in time");
        assert!(cfg.nsteps > 0);
        let ic = IcConfig {
            np: cfg.np,
            seed: cfg.seed,
            z_init: cfg.z_init,
        };
        let particles = zeldovich_particles(backend, &cfg.cosmology, &ic, cfg.ng);
        let a = Cosmology::a_of_z(cfg.z_init);
        Self::from_state(cfg, particles, a, 0, force)
    }

    /// Resume from given state, with nothing carried.
    pub(crate) fn from_state(
        cfg: SimConfig,
        particles: Vec<Particle>,
        a: f64,
        step: usize,
        force: F,
    ) -> Self {
        Stepper {
            force,
            cfg,
            particles,
            a,
            step,
            accel: Vec::new(),
            carried: false,
        }
    }

    /// True once `cfg.nsteps` steps are taken.
    pub(crate) fn finished(&self) -> bool {
        self.step >= self.cfg.nsteps
    }

    pub(crate) fn particles(&self) -> &[Particle] {
        &self.particles
    }

    /// Mutable particles; discards the carried acceleration, so the next
    /// kick asks the provider again.
    pub(crate) fn particles_mut(&mut self) -> &mut Vec<Particle> {
        self.carried = false;
        &mut self.particles
    }

    /// The scale-factor increment per step.
    pub(crate) fn da(&self) -> f64 {
        let a0 = Cosmology::a_of_z(self.cfg.z_init);
        let a1 = Cosmology::a_of_z(self.cfg.z_final);
        (a1 - a0) / self.cfg.nsteps as f64
    }

    /// Advance one KDK leapfrog step. No-op when finished.
    pub(crate) fn step(&mut self, backend: &dyn Backend) {
        if self.finished() {
            return;
        }
        let da = self.da();
        let (a0, a_half, a1) = (self.a, self.a + da / 2.0, self.a + da);
        let l = self.cfg.cosmology.box_size;
        let grid_to_mpc = l / self.cfg.ng as f64;

        // Half kick at a0, on the carried acceleration when there is one.
        self.kick(backend, a0, da / 2.0);

        // Drift with momenta at a_half: dx/da = f(a) p / a² (grid units).
        let drift = Cosmology::leapfrog_f(a_half) / (a_half * a_half) * da * grid_to_mpc;
        {
            let _span = telemetry::span!("nbody", "drift", self.step);
            self.carried = false;
            par_for_each_mut(backend, &mut self.particles, DEFAULT_GRAIN, |_, p| {
                for d in 0..3 {
                    let x = wrap_periodic(p.pos[d] as f64 + drift * p.vel[d] as f64, l);
                    // rem_euclid may return exactly `l` after f32 rounding.
                    p.pos[d] = if x >= l { 0.0 } else { x as f32 };
                }
            });
            self.force.rehome(&self.cfg, &mut self.particles);
        }

        // Half kick at a1: re-solved, gathered once, kept for the next step.
        self.kick(backend, a1, da / 2.0);

        self.a = a1;
        self.step += 1;
        if self.finished() {
            self.accel = Vec::new();
            self.carried = false;
            self.force.release();
        }
    }

    /// Momentum update: `p += g·f(a)·da` with `g` the acceleration at each
    /// particle from the PM solve at `a` — the carried one if it is still
    /// current, the provider's fresh answer otherwise.
    fn kick(&mut self, backend: &dyn Backend, a: f64, da: f64) {
        if !self.carried {
            // EdS: ∇²φ = (3/2a) δ (Ω_m = 1 dynamics; see cosmology.rs).
            let (force, cfg, particles) = (&mut self.force, &self.cfg, &self.particles[..]);
            force.accelerations(backend, cfg, particles, 1.5 / a, &mut self.accel);
            telemetry::count!("nbody", "pm_solves", 1);
            self.carried = true;
        }
        let _span = telemetry::span!("nbody", "kick", self.step);
        let kick = Cosmology::leapfrog_f(a) * da;
        let accel = &self.accel[..];
        par_for_each_mut(backend, &mut self.particles, DEFAULT_GRAIN, |i, p| {
            for d in 0..3 {
                p.vel[d] += (kick * accel[i][d]) as f32;
            }
        });
    }
}

/// The accessors both drivers offer, for the `impl` of a `Driver(Stepper<_>)`.
macro_rules! driver_accessors {
    () => {
        /// Configuration in use.
        pub fn config(&self) -> &$crate::SimConfig {
            &self.0.cfg
        }

        /// Current scale factor.
        pub fn scale_factor(&self) -> f64 {
            self.0.a
        }

        /// Current redshift.
        pub fn redshift(&self) -> f64 {
            $crate::Cosmology::z_of_a(self.0.a)
        }

        /// Steps taken so far.
        pub fn step_index(&self) -> usize {
            self.0.step
        }

        /// True once the configured final redshift is reached.
        pub fn finished(&self) -> bool {
            self.0.finished()
        }

        /// Particle view: Level 1 data, "already distributed in memory".
        pub fn particles(&self) -> &[$crate::Particle] {
            self.0.particles()
        }
    };
}
pub(crate) use driver_accessors;

#[cfg(test)]
mod tests {
    use super::*;
    use dpp::Serial;

    /// What the fake provider saw, in order.
    #[derive(Debug, PartialEq)]
    enum Event {
        /// `accelerations`: particle count, Poisson prefactor, particle 0's x.
        Asked(usize, f64, f32),
        /// `rehome`: the count it left behind, particle 0's x.
        Rehomed(usize, f32),
    }

    /// A constant field; re-homing gives one particle away, so an array that
    /// outlived a drift would have the wrong length.
    #[derive(Default)]
    struct Fake {
        events: Vec<Event>,
        released: usize,
    }

    impl ForceProvider for Fake {
        fn accelerations(
            &mut self,
            _: &dyn Backend,
            _: &SimConfig,
            particles: &[Particle],
            prefactor: f64,
            out: &mut Vec<[f64; 3]>,
        ) {
            let asked = Event::Asked(particles.len(), prefactor, particles[0].pos[0]);
            self.events.push(asked);
            out.clear();
            out.resize(particles.len(), [1.0, 0.0, 0.0]);
        }

        fn rehome(&mut self, _: &SimConfig, particles: &mut Vec<Particle>) {
            particles.pop();
            let rehomed = Event::Rehomed(particles.len(), particles[0].pos[0]);
            self.events.push(rehomed);
        }

        fn release(&mut self) {
            self.released += 1;
        }
    }

    const N: usize = 4;

    fn stepper() -> Stepper<Fake> {
        let cfg = SimConfig {
            cosmology: Cosmology {
                box_size: 8.0,
                ..Cosmology::default()
            },
            np: 2,
            ng: 8,
            z_init: 3.0,
            z_final: 0.0,
            nsteps: N,
            seed: 0,
        };
        let particles = (0..8)
            .map(|i| Particle::at_rest([i as f32 + 0.5, 1.0, 1.0], 1.0, i))
            .collect();
        Stepper::from_state(cfg, particles, Cosmology::a_of_z(3.0), 0, Fake::default())
    }

    /// Run to the end, discarding before every step if asked to, and check
    /// what every provider call saw. Returns the number of `Asked` events.
    fn run_and_check(discard: bool) -> usize {
        let mut s = stepper();
        let (a0, da) = (s.a, s.da());
        while !s.finished() {
            if discard {
                s.particles_mut();
            }
            s.step(&Serial);
        }
        // Nothing is carried past the end, and a further step asks nothing.
        assert!(!s.carried && s.accel.capacity() == 0 && s.force.released == 1);
        let seen = s.force.events.len();
        s.step(&Serial);
        assert_eq!((s.force.events.len(), s.force.released), (seen, 1));

        // Per step: [the opening kick asks, if nothing is carried,] the drift,
        // one re-home, then the closing kick asks — for the re-homed set, at
        // the drifted positions and at the step's closing `a`.
        let mut events = s.force.events.iter();
        let (mut a, mut n, mut asks) = (a0, 8, 0);
        let mut x_asked = f32::NAN;
        for step in 0..N {
            if discard || step == 0 {
                let Some(&Event::Asked(n_seen, prefactor, x)) = events.next() else {
                    panic!("step {step}: the opening kick did not ask");
                };
                assert_eq!((n_seen, prefactor), (n, 1.5 / a), "step {step}, opening");
                (x_asked, asks) = (x, asks + 1);
            }
            let Some(&Event::Rehomed(n_left, x_drifted)) = events.next() else {
                panic!("step {step}: no re-home between the kicks");
            };
            assert_eq!(n_left, n - 1);
            assert_ne!(x_drifted, x_asked, "step {step}: re-homed before the drift");
            (a, n) = (a + da, n_left);
            let closing = Event::Asked(n, 1.5 / a, x_drifted);
            assert_eq!(events.next(), Some(&closing), "step {step}, closing");
            (x_asked, asks) = (x_drifted, asks + 1);
        }
        assert_eq!(events.next(), None);
        asks
    }

    #[test]
    fn n_steps_ask_the_provider_n_plus_one_times() {
        assert_eq!(run_and_check(false), N + 1);
    }

    #[test]
    fn a_discard_before_every_step_makes_it_2n() {
        assert_eq!(run_and_check(true), 2 * N);
    }
}
