//! The HACC-equivalent simulation driver: kick–drift–kick leapfrog over the
//! scale factor with PM gravity.
//!
//! # One solve, one gather
//!
//! A step is half-kick at `a0`, drift, half-kick at `a1`. Between the closing
//! kick of one step and the opening kick of the next neither the positions
//! nor `a` change, so the two kicks need the same acceleration at every
//! particle. The closing kick deposits, solves, reads the force mesh **once**
//! ([`crate::pm::gather_accel`]: one `[f64; 3]` per particle) and drops the
//! grids; that per-particle array is *carried* across the step boundary, and
//! the opening kick of the next step is a streaming `vel += (k·g[i]) as f32`
//! that touches no mesh. An `N`-step run therefore performs `N + 1` deposits,
//! solves and gathers (`nbody.pm_solves`, `nbody.gathers`), not `2N`, and
//! holds no grid between steps.
//!
//! The carried array is valid exactly while positions and `a` are what it was
//! gathered for: the drift and [`Simulation::particles_mut`] discard it,
//! [`Simulation::from_state`] (and so a checkpoint restore) starts without
//! one, it is never written to a checkpoint, and it is freed with the rest of
//! the PM workspace once the run is [`Simulation::finished`]. A kick that
//! finds none deposits, solves and gathers again — all three deterministic
//! per backend, and the gather is a pure function of the grids and one
//! particle's position — so that yields the bits the carried array would have
//! held (`g[i]` is computed once and multiplied by each kick's own factor,
//! exactly as when each kick interpolated for itself), and a restarted or
//! perturbed run cannot tell the difference.
//!
//! Hooks are provided so the in-situ analysis layer (`cosmotools`) can run at
//! the end of any step, exactly as HACC calls CosmoTools from its main loop.
//! A hook sees `&Simulation`: particles, `a` and the step index of the step
//! just closed. It cannot invalidate the carried array and must not assume
//! one exists.

use crate::cosmology::Cosmology;
use crate::ic::{zeldovich_particles, IcConfig};
use crate::particle::Particle;
use crate::pm::{cic_deposit_cols, gather_accel, wrap_periodic, PoissonSolver};
use crate::soa::DepositColumns;
use dpp::{par_for_each_mut, Backend, DEFAULT_GRAIN};
use fft::Grid3;

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
pub struct Simulation {
    cfg: SimConfig,
    particles: Vec<Particle>,
    a: f64,
    step: usize,
    /// PM workspace: built by the first solve, freed once finished.
    pm: Option<PmWorkspace>,
    /// `pm`'s per-particle acceleration was gathered for the current
    /// positions and `a`.
    carried: bool,
}

/// What the stepper keeps between force solves: no grid.
struct PmWorkspace {
    /// FFT plan and `k` table.
    solver: PoissonSolver,
    /// The deposit's input, refilled from the particles before every solve.
    cols: DepositColumns,
    /// Acceleration at every particle, gathered from the last solve.
    accel: Vec<[f64; 3]>,
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

    /// Reconstruct a simulation from checkpointed state (see
    /// [`crate::checkpoint`]).
    pub fn from_state(cfg: SimConfig, particles: Vec<Particle>, a: f64, step: usize) -> Self {
        assert_eq!(particles.len(), cfg.np.pow(3), "state/config mismatch");
        Simulation {
            cfg,
            particles,
            a,
            step,
            pm: None,
            carried: false,
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

    /// Total steps configured.
    pub fn total_steps(&self) -> usize {
        self.cfg.nsteps
    }

    /// True once the configured final redshift is reached.
    pub fn finished(&self) -> bool {
        self.step >= self.cfg.nsteps
    }

    /// Particle view (Level 1 data, "already distributed in memory").
    pub fn particles(&self) -> &[Particle] {
        &self.particles
    }

    /// Mutable particle view (used by tests and failure injection). Discards
    /// the carried acceleration: the next kick re-solves and re-gathers.
    pub fn particles_mut(&mut self) -> &mut [Particle] {
        self.carried = false;
        &mut self.particles
    }

    /// The scale-factor increment per step.
    pub fn da(&self) -> f64 {
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
        let a0 = self.a;
        let a_half = a0 + da / 2.0;
        let a1 = a0 + da;
        let ng = self.cfg.ng;
        let l = self.cfg.cosmology.box_size;
        let grid_to_mpc = l / ng as f64;

        // Half kick at a0, on the acceleration the previous step's closing
        // kick gathered when there is one.
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
        }

        // Half kick at a1 with re-solved forces, gathered once and kept for
        // the next step.
        self.kick(backend, a1, da / 2.0);

        self.a = a1;
        self.step += 1;
        if self.finished() {
            self.pm = None;
            self.carried = false;
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
            hook(self.step, self);
        }
    }

    /// Run all remaining steps without analysis.
    pub fn run(&mut self, backend: &dyn Backend) {
        self.run_with_hook(backend, |_, _| {});
    }

    /// Momentum update: `p += g·f(a)·da` with `g` the acceleration at each
    /// particle from the PM solve at `a` — the carried one if it is still
    /// current, freshly solved and gathered otherwise.
    fn kick(&mut self, backend: &dyn Backend, a: f64, da: f64) {
        let (ng, l) = (self.cfg.ng, self.cfg.cosmology.box_size);
        let pm = self.pm.get_or_insert_with(|| PmWorkspace {
            solver: PoissonSolver::new(ng),
            cols: DepositColumns::default(),
            accel: Vec::new(),
        });
        if !self.carried {
            let delta = deposit(backend, &mut pm.cols, &self.particles, ng, l);
            // EdS: ∇²φ = (3/2a) δ (Ω_m = 1 dynamics; see cosmology.rs).
            let grids = pm.solver.solve(backend, &delta, 1.5 / a);
            telemetry::count!("nbody", "pm_solves", 1);
            gather_accel(backend, &grids, 0, &self.particles, l, &mut pm.accel);
            self.carried = true;
        }
        let _span = telemetry::span!("nbody", "kick", self.step);
        let kick = Cosmology::leapfrog_f(a) * da;
        let accel = &pm.accel[..];
        par_for_each_mut(backend, &mut self.particles, DEFAULT_GRAIN, |i, p| {
            for d in 0..3 {
                p.vel[d] += (kick * accel[i][d]) as f32;
            }
        });
    }

    /// Clustering diagnostic: RMS of the CIC overdensity field.
    pub fn density_rms(&self, backend: &dyn Backend) -> f64 {
        let (ng, l) = (self.cfg.ng, self.cfg.cosmology.box_size);
        let delta = deposit(
            backend,
            &mut DepositColumns::default(),
            &self.particles,
            ng,
            l,
        );
        let n = delta.len() as f64;
        (delta.as_slice().iter().map(|v| v * v).sum::<f64>() / n).sqrt()
    }
}

/// CIC overdensity of `particles` on the `ng³` PM mesh, through `cols`.
fn deposit(
    backend: &dyn Backend,
    cols: &mut DepositColumns,
    particles: &[Particle],
    ng: usize,
    box_size: f64,
) -> Grid3<f64> {
    {
        let _span = telemetry::span!("nbody", "deposit_columns");
        cols.refill(backend, particles);
    }
    let _span = telemetry::span!("nbody", "deposit");
    cic_deposit_cols(backend, cols.positions(), cols.mass(), ng, box_size)
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
        // (`cic_deposit_soa`) must be one and the same, bit for bit.
        let mut sim = Simulation::new(&Serial, tiny_cfg());
        sim.step(&Serial);
        let soa = ParticleSoA::from_aos(sim.particles());
        for backend in [&Serial as &dyn Backend, &Threaded::new(2)] {
            let delta = cic_deposit_soa(backend, &soa, 16, 32.0);
            let n = delta.len() as f64;
            let rms = (delta.as_slice().iter().map(|v| v * v).sum::<f64>() / n).sqrt();
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
