//! The HACC-equivalent simulation driver: kick–drift–kick leapfrog over the
//! scale factor on the whole PM mesh in shared memory. DESIGN.md,
//! "Integrator: one solve, one gather", has the argument; the rule is:
//!
//! A step is half-kick at `a0`, drift, half-kick at `a1`. The closing kick
//! solves for the acceleration at every particle once, and that array is
//! *carried* to the next step's opening kick (same positions, same `a` ⇒ same
//! numbers), so an `N`-step run solves `N + 1` times (`nbody.pm_solves`,
//! `nbody.gathers`), not `2N`. The array is valid exactly while positions and
//! `a` are what it was gathered for: the drift and every mutable view of the
//! particles discard it, [`Simulation::from_state`] starts without one, and it
//! is freed with the solver's workspace once the run is finished. A kick that
//! finds none solves again, which yields the same bits: the solve is
//! deterministic per backend and `g[i]` a pure function of the grids and
//! particle `i`'s position.
//!
//! A step makes two passes over the particles besides the solve: the opening
//! kick, the drift and the refill of the deposit's columns are one
//! (`nbody.kick_drift`), and the closing kick rides the gather. Every
//! particle's arithmetic is the three separate passes', in the same order.
//!
//! Hooks let the in-situ analysis layer (`cosmotools`) run at the end of any
//! step, exactly as HACC calls CosmoTools from its main loop. A hook sees
//! `&Simulation` — particles, `a`, the index of the step just closed — so it
//! cannot invalidate the carried acceleration; it must not assume one exists.

use crate::cosmology::Cosmology;
use crate::ic::{zeldovich_particles, IcConfig};
use crate::particle::Particle;
use crate::pm::{cic_deposit_exact, gather_accel, wrap_periodic, ForceGrids, PoissonSolver};
use crate::soa::DepositColumns;
use dpp::Backend;

/// Full simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Cosmology and box.
    pub cosmology: Cosmology,
    /// Particles per dimension (power of two).
    pub np: usize,
    /// PM mesh cells per dimension (power of two, usually `== np`).
    pub ng: usize,
    /// Starting redshift.
    pub z_init: f64,
    /// Final redshift.
    pub z_final: f64,
    /// Number of leapfrog steps between `z_init` and `z_final`.
    pub nsteps: usize,
    /// Random seed for the initial conditions.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cosmology: Cosmology::default(),
            np: 64,
            ng: 64,
            z_init: 30.0,
            z_final: 0.0,
            nsteps: 60,
            seed: 1_234_567,
        }
    }
}

/// A running N-body simulation: leapfrog state, the carried acceleration and
/// the solver it came from.
pub struct Simulation {
    cfg: SimConfig,
    a: f64,
    step: usize,
    particles: Vec<Particle>,
    /// Acceleration at every particle, from the last solve.
    accel: Vec<[f64; 3]>,
    /// `accel` was gathered for the current particles and `a`.
    carried: bool,
    /// The FFT plan and the deposit's input columns, kept between solves — no
    /// grid — and dropped once the run is finished.
    mesh: Option<(PoissonSolver, DepositColumns)>,
}

impl Simulation {
    /// Generate initial conditions and stand up the simulation.
    pub fn new(backend: &dyn Backend, cfg: SimConfig) -> Self {
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
        Self::from_state(cfg, particles, a, 0)
    }

    /// Reconstruct a simulation mid-run from its state (particles, scale
    /// factor, step index), without a carried force: the invalidation family
    /// of `conformance::integrator` continues from it.
    pub fn from_state(cfg: SimConfig, particles: Vec<Particle>, a: f64, step: usize) -> Self {
        assert_eq!(particles.len(), cfg.np.pow(3), "state/config mismatch");
        Simulation {
            cfg,
            a,
            step,
            particles,
            accel: Vec::new(),
            carried: false,
            mesh: None,
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Current scale factor.
    pub fn scale_factor(&self) -> f64 {
        self.a
    }

    /// Current redshift.
    pub fn redshift(&self) -> f64 {
        Cosmology::z_of_a(self.a)
    }

    /// Steps taken so far.
    pub fn step_index(&self) -> usize {
        self.step
    }

    /// True once the configured final redshift is reached.
    pub fn finished(&self) -> bool {
        self.step >= self.cfg.nsteps
    }

    /// Particle view: Level 1 data, "already distributed in memory".
    pub fn particles(&self) -> &[Particle] {
        &self.particles
    }

    /// Total steps configured.
    pub fn total_steps(&self) -> usize {
        self.cfg.nsteps
    }

    /// Mutable particle view (used by tests and failure injection). Discards
    /// the carried acceleration: the next kick re-solves and re-gathers.
    pub fn particles_mut(&mut self) -> &mut [Particle] {
        self.carried = false;
        &mut self.particles
    }

    /// The particles, moved out of a simulation that is done with them.
    pub fn into_particles(self) -> Vec<Particle> {
        self.particles
    }

    /// The scale-factor increment per step.
    fn da(&self) -> f64 {
        let a0 = Cosmology::a_of_z(self.cfg.z_init);
        let a1 = Cosmology::a_of_z(self.cfg.z_final);
        (a1 - a0) / self.cfg.nsteps as f64
    }

    /// Advance one KDK leapfrog step. No-op when finished.
    pub fn step(&mut self, backend: &dyn Backend) {
        if self.finished() {
            return;
        }
        let da = self.da();
        let (a0, a_half, a1) = (self.a, self.a + da / 2.0, self.a + da);
        let (ng, l) = (self.cfg.ng, self.cfg.cosmology.box_size);
        let grid_to_mpc = l / ng as f64;
        let (solver, cols) = self
            .mesh
            .get_or_insert_with(|| (PoissonSolver::new(ng), DepositColumns::default()));

        // The opening kick's acceleration: the carried one, or a fresh solve.
        if !self.carried {
            {
                let _span = telemetry::span!("nbody", "deposit_columns");
                cols.refill(backend, &self.particles);
            }
            solve(backend, solver, cols, l, a0, &mut self.accel, None);
        }

        // Half kick at a0, then drift with momenta at a_half: dx/da =
        // f(a) p / a² (grid units); the drifted positions are the next
        // deposit's columns.
        let kick = Cosmology::leapfrog_f(a0) * (da / 2.0);
        let drift = Cosmology::leapfrog_f(a_half) / (a_half * a_half) * da * grid_to_mpc;
        {
            let _span = telemetry::span!("nbody", "kick_drift", self.step);
            self.carried = false;
            let accel = &self.accel[..];
            cols.update(backend, &mut self.particles, |i, p| {
                for d in 0..3 {
                    p.vel[d] += (kick * accel[i][d]) as f32;
                }
                for d in 0..3 {
                    let x = wrap_periodic(p.pos[d] as f64 + drift * p.vel[d] as f64, l);
                    // rem_euclid may return exactly `l` after f32 rounding.
                    p.pos[d] = if x >= l { 0.0 } else { x as f32 };
                }
            });
        }

        // Half kick at a1: re-solved, gathered once — each particle kicked as
        // its acceleration is gathered — and kept for the next step.
        let kick = Cosmology::leapfrog_f(a1) * (da / 2.0);
        let kicked = Some((&mut self.particles[..], kick));
        solve(backend, solver, cols, l, a1, &mut self.accel, kicked);
        self.carried = true;

        self.a = a1;
        self.step += 1;
        if self.finished() {
            self.accel = Vec::new();
            self.carried = false;
            self.mesh = None;
        }
    }

    /// Run all remaining steps, invoking `hook(step_index, &sim)` after each
    /// (the CosmoTools call site in HACC's main loop).
    pub fn run_with_hook<F>(&mut self, backend: &dyn Backend, mut hook: F)
    where
        F: FnMut(usize, &Simulation),
    {
        while !self.finished() {
            self.step(backend);
            hook(self.step_index(), self);
        }
    }

    /// Run all remaining steps without analysis.
    pub fn run(&mut self, backend: &dyn Backend) {
        self.run_with_hook(backend, |_, _| {});
    }

    /// Clustering diagnostic: RMS of the CIC overdensity field (the
    /// stepper's deposit, so the same bits on every backend).
    pub fn density_rms(&self, backend: &dyn Backend) -> f64 {
        let (ng, l) = (self.cfg.ng, self.cfg.cosmology.box_size);
        let cols = DepositColumns::from_aos(backend, self.particles());
        let delta = cic_deposit_exact(backend, cols.positions(), cols.mass(), ng, l);
        let n = delta.len() as f64;
        (delta.as_slice().iter().map(|v| v * v).sum::<f64>() / n).sqrt()
    }
}

/// `accel[i]` = acceleration at particle `i` from `∇²φ = (3/2a)·δ` (EdS:
/// Ω_m = 1 dynamics, see cosmology.rs): the exact deposit of `cols` onto the
/// whole `ng³` mesh, the k-space solve into three half spectra and one
/// gather from them, which are then dropped, so the step hook's analysis can
/// reuse the memory; `kick` gives each particle its half kick as it is
/// gathered.
fn solve(
    backend: &dyn Backend,
    solver: &PoissonSolver,
    cols: &DepositColumns,
    box_size: f64,
    a: f64,
    accel: &mut Vec<[f64; 3]>,
    kick: Option<(&mut [Particle], f64)>,
) {
    let grids = solver.solve(backend, cols.positions(), cols.mass(), box_size, 1.5 / a);
    telemetry::count!("nbody", "pm_solves", 1);
    let force = ForceGrids {
        ng: grids[0].dims()[0],
        comps: grids.each_ref().map(|g| g.as_reals()),
    };
    gather_accel(backend, force, cols.positions(), box_size, accel, kick);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pm::cic_deposit_soa;
    use crate::soa::ParticleSoA;
    use dpp::{Serial, Threaded};

    fn tiny_cfg() -> SimConfig {
        SimConfig {
            cosmology: Cosmology {
                box_size: 32.0,
                sigma_cell: 2.0,
                ..Cosmology::default()
            },
            np: 16,
            ng: 16,
            z_init: 50.0,
            z_final: 0.0,
            nsteps: 12,
            seed: 99,
        }
    }

    #[test]
    fn simulation_runs_to_completion() {
        let t = Threaded::new(4);
        let mut sim = Simulation::new(&t, tiny_cfg());
        assert_eq!(sim.step_index(), 0);
        assert!((sim.redshift() - 50.0).abs() < 1e-9);
        sim.run(&t);
        assert!(sim.finished());
        assert!(
            sim.redshift().abs() < 1e-9,
            "ends at z=0, got {}",
            sim.redshift()
        );
        assert_eq!(sim.step_index(), 12);
    }

    #[test]
    fn particles_stay_in_the_box() {
        let t = Threaded::new(4);
        let mut sim = Simulation::new(&t, tiny_cfg());
        sim.run(&t);
        let l = sim.config().cosmology.box_size;
        for p in sim.particles() {
            for d in 0..3 {
                assert!(p.pos[d] >= 0.0 && (p.pos[d] as f64) < l, "pos {:?}", p.pos);
            }
        }
    }

    #[test]
    fn gravity_amplifies_clustering() {
        let t = Threaded::new(4);
        let mut sim = Simulation::new(&t, tiny_cfg());
        let rms0 = sim.density_rms(&t);
        sim.run(&t);
        let rms1 = sim.density_rms(&t);
        assert!(
            rms1 > 3.0 * rms0,
            "structure must grow: initial rms {rms0}, final {rms1}"
        );
    }

    #[test]
    fn density_rms_is_the_rms_of_the_column_deposit() {
        // The stepper's deposit and the kernel the benchmark ledger times
        // (`cic_deposit_soa`) must be one and the same, bit for bit, and
        // neither may depend on the backend.
        let mut sim = Simulation::new(&Serial, tiny_cfg());
        sim.step(&Serial);
        let soa = ParticleSoA::from_aos(sim.particles());
        let delta = cic_deposit_soa(&Serial, &soa, 16, 32.0);
        let n = delta.len() as f64;
        let rms = (delta.as_slice().iter().map(|v| v * v).sum::<f64>() / n).sqrt();
        for backend in [
            &Serial as &dyn Backend,
            &Threaded::new(2),
            &Threaded::new(3),
        ] {
            assert_eq!(sim.density_rms(backend).to_bits(), rms.to_bits());
        }
    }

    #[test]
    fn hook_fires_after_every_step() {
        let t = Threaded::new(2);
        let mut sim = Simulation::new(&t, tiny_cfg());
        let mut seen = Vec::new();
        sim.run_with_hook(&t, |s, sim| {
            seen.push((s, sim.redshift()));
        });
        assert_eq!(seen.len(), 12);
        assert_eq!(seen.last().unwrap().0, 12);
        // Redshift decreases monotonically.
        assert!(seen.windows(2).all(|w| w[1].1 < w[0].1));
    }

    #[test]
    fn a_finished_run_keeps_no_force_state() {
        let t = Threaded::new(2);
        let mut sim = Simulation::new(&t, tiny_cfg());
        sim.step(&t);
        assert!(sim.carried && sim.accel.len() == 16 * 16 * 16 && sim.mesh.is_some());
        sim.particles_mut();
        assert!(!sim.carried, "a mutable view discards the carried field");
        sim.run(&t);
        assert!(!sim.carried && sim.accel.capacity() == 0 && sim.mesh.is_none());
    }

    #[test]
    fn step_after_finish_is_noop() {
        let t = Threaded::new(2);
        let mut sim = Simulation::new(&t, tiny_cfg());
        sim.run(&t);
        let before: Vec<_> = sim.particles().to_vec();
        sim.step(&t);
        assert_eq!(sim.step_index(), 12);
        assert_eq!(sim.particles()[0], before[0]);
    }

    #[test]
    fn deterministic_given_seed() {
        let t = Threaded::new(4);
        let mut a = Simulation::new(&t, tiny_cfg());
        let mut b = Simulation::new(&t, tiny_cfg());
        a.run(&t);
        b.run(&t);
        for (x, y) in a.particles().iter().zip(b.particles()) {
            assert_eq!(x.pos, y.pos);
            assert_eq!(x.vel, y.vel);
        }
    }

    #[test]
    fn mass_is_conserved() {
        let t = Threaded::new(4);
        let mut sim = Simulation::new(&t, tiny_cfg());
        let m0: f64 = sim.particles().iter().map(|p| p.mass as f64).sum();
        sim.run(&t);
        let m1: f64 = sim.particles().iter().map(|p| p.mass as f64).sum();
        assert_eq!(m0, m1);
        assert_eq!(sim.particles().len(), 16 * 16 * 16);
    }
}
