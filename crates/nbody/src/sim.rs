//! The HACC-equivalent simulation driver in shared memory: the shared
//! kick–drift–kick stepper (the `stepper` module docs have the sequence and
//! the carried-acceleration rule) over the whole PM mesh.
//!
//! Hooks let the in-situ analysis layer (`cosmotools`) run at the end of any
//! step, exactly as HACC calls CosmoTools from its main loop. A hook sees
//! `&Simulation` — particles, `a`, the index of the step just closed — so it
//! cannot invalidate the carried acceleration; it must not assume one exists.

use crate::cosmology::Cosmology;
use crate::particle::Particle;
use crate::pm::{cic_deposit_exact, gather_accel, PoissonSolver};
use crate::soa::DepositColumns;
use crate::stepper::{driver_accessors, ForceProvider, Stepper};
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

/// A running N-body simulation.
pub struct Simulation(Stepper<WholeMesh>);

/// The shared-memory force provider: deposit onto the whole `ng³` mesh,
/// k-space solve, gather at `x_origin = 0`, all on the caller's backend. Keeps
/// the FFT plan and the deposit's input columns between solves — no grid.
#[derive(Default)]
struct WholeMesh(Option<(PoissonSolver, DepositColumns)>);

impl ForceProvider for WholeMesh {
    fn accelerations(
        &mut self,
        backend: &dyn Backend,
        cfg: &SimConfig,
        particles: &[Particle],
        prefactor: f64,
        out: &mut Vec<[f64; 3]>,
    ) {
        let (ng, l) = (cfg.ng, cfg.cosmology.box_size);
        let (solver, cols) = self
            .0
            .get_or_insert_with(|| (PoissonSolver::new(ng), DepositColumns::default()));
        {
            let _span = telemetry::span!("nbody", "deposit_columns");
            cols.refill(backend, particles);
        }
        let delta = {
            let _span = telemetry::span!("nbody", "deposit");
            cic_deposit_exact(backend, cols.positions(), cols.mass(), ng, l)
        };
        let grids = solver.solve(backend, &delta, prefactor);
        gather_accel(backend, &grids, 0, particles, l, out);
    }

    fn release(&mut self) {
        self.0 = None;
    }
}

impl Simulation {
    /// Generate initial conditions and stand up the simulation.
    pub fn new(backend: &dyn Backend, cfg: SimConfig) -> Self {
        Simulation(Stepper::new(backend, cfg, WholeMesh::default()))
    }

    /// Reconstruct a simulation mid-run from its state (particles, scale
    /// factor, step index), without a carried force: the invalidation family
    /// of `conformance::integrator` continues from it.
    pub fn from_state(cfg: SimConfig, particles: Vec<Particle>, a: f64, step: usize) -> Self {
        assert_eq!(particles.len(), cfg.np.pow(3), "state/config mismatch");
        let mesh = WholeMesh::default();
        Simulation(Stepper::from_state(cfg, particles, a, step, mesh))
    }

    driver_accessors!();

    /// Total steps configured.
    pub fn total_steps(&self) -> usize {
        self.0.cfg.nsteps
    }

    /// Mutable particle view (used by tests and failure injection). Discards
    /// the carried acceleration: the next kick re-solves and re-gathers.
    pub fn particles_mut(&mut self) -> &mut [Particle] {
        self.0.particles_mut()
    }

    /// The particles, moved out of a simulation that is done with them.
    pub fn into_particles(mut self) -> Vec<Particle> {
        std::mem::take(self.0.particles_mut())
    }

    /// The scale-factor increment per step.
    pub fn da(&self) -> f64 {
        self.0.da()
    }

    /// Advance one KDK leapfrog step. No-op when finished.
    pub fn step(&mut self, backend: &dyn Backend) {
        self.0.step(backend);
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
        let (ng, l) = (self.0.cfg.ng, self.0.cfg.cosmology.box_size);
        let cols = DepositColumns::from_aos(backend, self.particles());
        let delta = cic_deposit_exact(backend, cols.positions(), cols.mass(), ng, l);
        let n = delta.len() as f64;
        (delta.as_slice().iter().map(|v| v * v).sum::<f64>() / n).sqrt()
    }
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
