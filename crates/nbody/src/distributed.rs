//! Rank-distributed particle-mesh stepping — the HACC main loop as it
//! actually runs across MPI ranks: x-slab domain decomposition, ghost-plane
//! exchanges around the CIC deposit/interpolation, a slab-decomposed
//! distributed FFT for the Poisson solve, and particle re-homing after every
//! drift.
//!
//! The shared-memory [`crate::sim::Simulation`] and this driver integrate
//! the same equations; they agree to floating-point noise over short
//! horizons and statistically over long ones (the N-body system is chaotic,
//! so different summation orders diverge eventually).
//!
//! Like `Simulation`, the stepper solves and gathers the force once per
//! step: the closing kick reads its acceleration slabs once
//! ([`crate::pm::gather_accel`], the shared-memory stepper's kernel with this
//! rank's first plane as the x origin) and drops them, and the per-particle
//! array is carried to the next step's opening kick (same validity rule — see
//! the `sim` module docs), which here also saves two ghost-plane exchanges and
//! a slab-FFT all-to-all per step. The drift re-homes particles, so the array
//! it discards could not be indexed afterwards anyway: a rank's particle set
//! after a drift is not the one the array was gathered for.

use crate::cosmology::Cosmology;
use crate::ic::{zeldovich_particles, IcConfig};
use crate::particle::Particle;
use crate::pm::{gather_accel, wrap_periodic};
use crate::sim::SimConfig;
use comm::Communicator;
use fft::{Complex, Grid3, SlabFft};

/// Tag base for the ring plane exchanges (below the collective tag space).
const PLANE_TAG_BASE: u64 = 1 << 40;

/// A distributed simulation: one instance per rank, inside `World::run`.
pub struct DistSim<'a> {
    comm: &'a Communicator,
    cfg: SimConfig,
    slab_fft: SlabFft,
    /// Rank-local particles (x within this rank's slab).
    particles: Vec<Particle>,
    a: f64,
    step: usize,
    plane_seq: u64,
    /// Acceleration at every local particle, gathered from the last solve.
    accel: Vec<[f64; 3]>,
    /// `accel` was gathered for the current local particles and `a`.
    carried: bool,
}

impl<'a> DistSim<'a> {
    /// Stand up the distributed run. Every rank realizes the (deterministic)
    /// initial conditions and keeps its slab's particles — IC generation is
    /// not what this driver distributes.
    ///
    /// Requires `cfg.ng % comm.size() == 0`.
    pub fn new(comm: &'a Communicator, cfg: SimConfig) -> Self {
        assert!(cfg.ng.is_power_of_two() && cfg.np.is_power_of_two());
        assert_eq!(
            cfg.ng % comm.size(),
            0,
            "mesh {} not divisible by {} ranks",
            cfg.ng,
            comm.size()
        );
        let slab_fft = SlabFft::new(cfg.ng, comm.size()).expect("validated above");
        let ic = IcConfig {
            np: cfg.np,
            seed: cfg.seed,
            z_init: cfg.z_init,
        };
        let all = zeldovich_particles(&dpp::Serial, &cfg.cosmology, &ic, cfg.ng);
        let l = cfg.cosmology.box_size;
        let r = comm.rank();
        let nr = comm.size();
        let particles: Vec<Particle> = all
            .into_iter()
            .filter(|p| Self::owner_of_x(p.pos[0] as f64, l, nr) == r)
            .collect();
        let a = Cosmology::a_of_z(cfg.z_init);
        DistSim {
            comm,
            cfg,
            slab_fft,
            particles,
            a,
            step: 0,
            plane_seq: 0,
            accel: Vec::new(),
            carried: false,
        }
    }

    /// The rank owning box coordinate `x`.
    fn owner_of_x(x: f64, box_size: f64, nranks: usize) -> usize {
        let w = box_size / nranks as f64;
        ((x.rem_euclid(box_size) / w) as usize).min(nranks - 1)
    }

    /// Local slab thickness in mesh cells.
    fn slab(&self) -> usize {
        self.cfg.ng / self.comm.size()
    }

    /// This rank's first global x-cell.
    fn x0(&self) -> usize {
        self.comm.rank() * self.slab()
    }

    /// Rank-local particles.
    pub fn particles(&self) -> &[Particle] {
        &self.particles
    }

    /// Drop the carried acceleration, so the next kick re-solves and
    /// re-gathers (to the same bits). **Collective**: a solve exchanges ghost
    /// planes and FFT slabs, so a rank that discards alone enters those
    /// exchanges without its peers and the run deadlocks — call it on every
    /// rank or on none.
    pub fn discard_carried_force(&mut self) {
        self.carried = false;
    }

    /// Current scale factor.
    pub fn scale_factor(&self) -> f64 {
        self.a
    }

    /// Current redshift.
    pub fn redshift(&self) -> f64 {
        Cosmology::z_of_a(self.a)
    }

    /// Steps taken.
    pub fn step_index(&self) -> usize {
        self.step
    }

    /// True after the configured number of steps.
    pub fn finished(&self) -> bool {
        self.step >= self.cfg.nsteps
    }

    /// Configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    fn next_plane_tag(&mut self) -> u64 {
        let t = PLANE_TAG_BASE + self.plane_seq;
        self.plane_seq += 1;
        t
    }

    /// CIC deposit into the local slab plus an upper ghost plane, then a
    /// ring exchange folds the ghost into the next rank's first plane.
    /// Returns the local overdensity slab `[slab, ng, ng]`.
    fn deposit(&mut self) -> Grid3<f64> {
        let _span = telemetry::span!("nbody", "deposit");
        let tag = self.next_plane_tag();
        slab_deposit_with_tag(
            self.comm,
            &self.particles,
            self.cfg.ng,
            self.cfg.cosmology.box_size,
            tag,
        )
    }

    /// Distributed Poisson solve: returns the three acceleration slabs, each
    /// with an extra ghost plane appended (dims `[slab+1, ng, ng]`) so CIC
    /// interpolation can reach across the upper boundary.
    fn accelerations(&mut self, delta: &Grid3<f64>, prefactor: f64) -> [Grid3<f64>; 3] {
        let _span = telemetry::span!("nbody", "pm_solve");
        let ng = self.cfg.ng;
        let s = self.slab();
        let two_pi = 2.0 * std::f64::consts::PI;
        let a_complex = Grid3::from_vec(
            [s, ng, ng],
            delta
                .as_slice()
                .iter()
                .map(|&v| Complex::from_real(v))
                .collect(),
        );
        let spectrum = self
            .slab_fft
            .forward(self.comm, a_complex)
            .expect("planned dims");

        let mut out = Vec::with_capacity(3);
        for axis in 0..3 {
            let mut gk = spectrum.clone();
            for yl in 0..s {
                for x in 0..ng {
                    for z in 0..ng {
                        let (fx, fy, fz) = self.slab_fft.freqs_b(self.comm.rank(), yl, x, z);
                        let kx = two_pi * fx as f64 / ng as f64;
                        let ky = two_pi * fy as f64 / ng as f64;
                        let kz = two_pi * fz as f64 / ng as f64;
                        let k2 = kx * kx + ky * ky + kz * kz;
                        let v = gk.get_mut(yl, x, z);
                        if k2 == 0.0 {
                            *v = Complex::ZERO;
                            continue;
                        }
                        let kd = [kx, ky, kz][axis];
                        let d = *v;
                        // g_k = i·k_d·prefactor·δ_k / k².
                        *v = Complex::new(-d.im, d.re).scale(kd * prefactor / k2);
                    }
                }
            }
            let real_slab = self.slab_fft.inverse(self.comm, gk).expect("planned dims");
            // Append the ghost plane from the next rank (its plane 0).
            let mut field: Vec<f64> = real_slab.as_slice().iter().map(|c| c.re).collect();
            let my_plane0: Vec<f64> = field[..ng * ng].to_vec();
            let tag = self.next_plane_tag();
            let nr = self.comm.size();
            if nr == 1 {
                field.extend_from_slice(&my_plane0);
            } else {
                let next = (self.comm.rank() + 1) % nr;
                let prev = (self.comm.rank() + nr - 1) % nr;
                self.comm.send(prev, tag, my_plane0);
                let upper: Vec<f64> = self.comm.recv(next, tag);
                field.extend_from_slice(&upper);
            }
            out.push(Grid3::from_vec([s + 1, ng, ng], field));
        }
        let mut it = out.into_iter();
        [it.next().unwrap(), it.next().unwrap(), it.next().unwrap()]
    }

    /// Momentum half/full kick at scale factor `a` over `da`, on the carried
    /// acceleration if there is one (collective either way: every rank
    /// carries or none does).
    fn kick(&mut self, a: f64, da: f64) {
        if !self.carried {
            let prefactor = 1.5 / a; // EdS ∇²φ = (3/2a)δ, see cosmology.rs
            let delta = self.deposit();
            telemetry::count!("nbody", "pm_solves", 1);
            let slabs = self.accelerations(&delta, prefactor);
            let l = self.cfg.cosmology.box_size;
            let x0 = self.x0();
            gather_accel(
                &dpp::Serial,
                &slabs,
                x0,
                &self.particles,
                l,
                &mut self.accel,
            );
            self.carried = true;
        }
        let _span = telemetry::span!("nbody", "kick", self.step);
        let f = Cosmology::leapfrog_f(a) * da;
        for (p, g) in self.particles.iter_mut().zip(&self.accel) {
            for d in 0..3 {
                p.vel[d] += (f * g[d]) as f32;
            }
        }
    }

    /// Drift positions and re-home particles that crossed slab boundaries.
    fn drift(&mut self, a_half: f64, da: f64) {
        let _span = telemetry::span!("nbody", "drift", self.step);
        self.carried = false;
        let l = self.cfg.cosmology.box_size;
        let ng = self.cfg.ng;
        let grid_to_mpc = l / ng as f64;
        let f = Cosmology::leapfrog_f(a_half) / (a_half * a_half) * da * grid_to_mpc;
        for p in &mut self.particles {
            for d in 0..3 {
                let x = wrap_periodic(p.pos[d] as f64 + f * p.vel[d] as f64, l);
                p.pos[d] = if x >= l { 0.0 } else { x as f32 };
            }
        }
        // Re-home by x-slab ownership.
        let nr = self.comm.size();
        let mut sends: Vec<Vec<Particle>> = (0..nr).map(|_| Vec::new()).collect();
        for p in self.particles.drain(..) {
            sends[Self::owner_of_x(p.pos[0] as f64, l, nr)].push(p);
        }
        self.particles = self.comm.alltoallv(sends).into_iter().flatten().collect();
    }

    /// One KDK leapfrog step (collective call: all ranks step together).
    pub fn step(&mut self) {
        if self.finished() {
            return;
        }
        let a0 = Cosmology::a_of_z(self.cfg.z_init);
        let a1 = Cosmology::a_of_z(self.cfg.z_final);
        let da = (a1 - a0) / self.cfg.nsteps as f64;
        let a = self.a;
        let a_half = a + da / 2.0;
        let a_next = a + da;
        self.kick(a, da / 2.0);
        self.drift(a_half, da);
        self.kick(a_next, da / 2.0);
        self.a = a_next;
        self.step += 1;
        if self.finished() {
            self.accel = Vec::new();
            self.carried = false;
        }
    }

    /// Run all remaining steps.
    pub fn run(&mut self) {
        while !self.finished() {
            self.step();
        }
    }

    /// Run all remaining steps, invoking `hook(step_index, &sim)` after each
    /// — the CosmoTools call site of the distributed main loop. The hook runs
    /// on every rank (collective), seeing its rank-local particles.
    pub fn run_with_hook<F>(&mut self, mut hook: F)
    where
        F: FnMut(usize, &DistSim<'_>),
    {
        while !self.finished() {
            self.step();
            hook(self.step, self);
        }
    }

    /// Global particle count (collective).
    pub fn total_particles(&self) -> u64 {
        self.comm.allreduce_sum_u64(self.particles.len() as u64)
    }

    /// Global RMS overdensity (collective; diagnostic).
    pub fn density_rms(&mut self) -> f64 {
        let delta = self.deposit();
        let local: f64 = delta.as_slice().iter().map(|v| v * v).sum();
        let total = self.comm.allreduce_sum_f64(local);
        let ncell = (self.cfg.ng as f64).powi(3);
        (total / ncell).sqrt()
    }

    /// Gather every rank's particles on every rank (test/diagnostic helper).
    pub fn allgather_particles(&self) -> Vec<Particle> {
        self.comm
            .allgather(self.particles.clone())
            .into_iter()
            .flatten()
            .collect()
    }
}

/// Distributed CIC deposit over an x-slab decomposition: every rank deposits
/// its local particles (whose x must lie in its slab) and one ghost plane is
/// ring-exchanged. Returns the local overdensity slab `[ng/R, ng, ng]`.
///
/// This is the shared kernel behind [`DistSim`]'s gravity source and the
/// distributed in-situ power spectrum.
pub fn slab_deposit(
    comm: &Communicator,
    locals: &[Particle],
    ng: usize,
    box_size: f64,
) -> Grid3<f64> {
    slab_deposit_with_tag(comm, locals, ng, box_size, PLANE_TAG_BASE + (1 << 20))
}

fn slab_deposit_with_tag(
    comm: &Communicator,
    locals: &[Particle],
    ng: usize,
    box_size: f64,
    tag: u64,
) -> Grid3<f64> {
    let nr = comm.size();
    assert_eq!(ng % nr, 0, "mesh {ng} not divisible by {nr} ranks");
    let s = ng / nr;
    let x0 = comm.rank() * s;
    // Local buffer with one ghost plane at the top.
    let mut buf = vec![0.0f64; (s + 1) * ng * ng];
    let idx = |xl: usize, y: usize, z: usize| (xl * ng + y) * ng + z;
    for p in locals {
        let u = [
            crate::pm::to_grid_units(p.pos[0], box_size, ng),
            crate::pm::to_grid_units(p.pos[1], box_size, ng),
            crate::pm::to_grid_units(p.pos[2], box_size, ng),
        ];
        let i = [u[0] as usize % ng, u[1] as usize % ng, u[2] as usize % ng];
        debug_assert!(i[0] >= x0 && i[0] < x0 + s, "particle not in slab");
        let d = [u[0] - i[0] as f64, u[1] - i[1] as f64, u[2] - i[2] as f64];
        let m = p.mass as f64;
        for (dx, wx) in [(0usize, 1.0 - d[0]), (1, d[0])] {
            for (dy, wy) in [(0usize, 1.0 - d[1]), (1, d[1])] {
                for (dz, wz) in [(0usize, 1.0 - d[2]), (1, d[2])] {
                    let xl = i[0] - x0 + dx; // may hit the ghost plane s
                    let y = (i[1] + dy) % ng;
                    let z = (i[2] + dz) % ng;
                    buf[idx(xl, y, z)] += m * wx * wy * wz;
                }
            }
        }
    }
    // Ring exchange: my ghost plane (global x = x0+s) belongs to the next
    // rank's plane 0.
    let next = (comm.rank() + 1) % nr;
    let prev = (comm.rank() + nr - 1) % nr;
    let ghost: Vec<f64> = buf[idx(s, 0, 0)..].to_vec();
    if nr == 1 {
        for (k, v) in ghost.iter().enumerate() {
            buf[k] += v; // periodic wrap onto my own first plane
        }
    } else {
        comm.send(next, tag, ghost);
        let incoming: Vec<f64> = comm.recv(prev, tag);
        for (k, v) in incoming.iter().enumerate() {
            buf[k] += v;
        }
    }
    buf.truncate(s * ng * ng);
    // Overdensity: global mean mass per cell.
    let local_mass: f64 = locals.iter().map(|p| p.mass as f64).sum();
    let total_mass = comm.allreduce_sum_f64(local_mass);
    let mean = total_mass / (ng * ng * ng) as f64;
    for v in &mut buf {
        *v = *v / mean - 1.0;
    }
    Grid3::from_vec([s, ng, ng], buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulation;
    use comm::World;
    use nbody_test_config as tiny;

    mod nbody_test_config {
        use crate::cosmology::Cosmology;
        use crate::sim::SimConfig;

        pub fn cfg(nsteps: usize) -> SimConfig {
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
                nsteps,
                seed: 777,
            }
        }
    }

    #[test]
    fn particle_count_is_conserved_across_ranks() {
        for nranks in [1usize, 2, 4] {
            let world = World::new(nranks);
            let totals = world.run(|c| {
                let mut sim = DistSim::new(c, tiny::cfg(6));
                sim.run();
                // Every local particle sits in this rank's slab.
                let l = sim.config().cosmology.box_size;
                for p in sim.particles() {
                    assert_eq!(DistSim::owner_of_x(p.pos[0] as f64, l, c.size()), c.rank());
                }
                sim.total_particles()
            });
            for t in totals {
                assert_eq!(t, 16 * 16 * 16, "nranks={nranks}");
            }
        }
    }

    #[test]
    fn short_horizon_matches_shared_memory_sim() {
        // Few steps: the distributed and shared-memory integrators must
        // agree to tight tolerance (before chaos amplifies FP noise).
        let cfg = tiny::cfg(3);
        let mut reference = Simulation::new(&dpp::Serial, cfg.clone());
        reference.run(&dpp::Serial);
        let mut expect: Vec<Particle> = reference.particles().to_vec();
        expect.sort_by_key(|p| p.tag);

        for nranks in [1usize, 2, 4] {
            let world = World::new(nranks);
            let gathered = world.run(|c| {
                let mut sim = DistSim::new(c, cfg.clone());
                sim.run();
                sim.allgather_particles()
            });
            let mut got = gathered[0].clone();
            got.sort_by_key(|p| p.tag);
            assert_eq!(got.len(), expect.len());
            let l = cfg.cosmology.box_size;
            let mut worst = 0.0f64;
            for (g, e) in got.iter().zip(&expect) {
                assert_eq!(g.tag, e.tag);
                let d2 = crate::particle::periodic_dist2(g.pos_f64(), e.pos_f64(), l);
                worst = worst.max(d2.sqrt());
            }
            assert!(
                worst < 1e-3,
                "nranks={nranks}: max position deviation {worst}"
            );
        }
    }

    #[test]
    fn long_run_matches_statistically() {
        let cfg = tiny::cfg(12);
        let mut reference = Simulation::new(&dpp::Serial, cfg.clone());
        reference.run(&dpp::Serial);
        let ref_rms = reference.density_rms(&dpp::Serial);

        let world = World::new(4);
        let rms = world.run(|c| {
            let mut sim = DistSim::new(c, cfg.clone());
            sim.run();
            sim.density_rms()
        });
        for r in rms {
            assert!(
                (r / ref_rms - 1.0).abs() < 0.1,
                "distributed rms {r} vs shared {ref_rms}"
            );
        }
    }

    #[test]
    fn hook_fires_each_step_on_every_rank() {
        let world = World::new(2);
        let counts = world.run(|c| {
            let mut sim = DistSim::new(c, tiny::cfg(5));
            let mut steps_seen = Vec::new();
            sim.run_with_hook(|s, sim| {
                steps_seen.push((s, sim.redshift()));
                // The hook may run collective analysis: do a tiny one.
                let _ = sim.particles().len();
            });
            steps_seen
        });
        for seen in counts {
            assert_eq!(seen.len(), 5);
            assert_eq!(seen.last().unwrap().0, 5);
            assert!(seen.windows(2).all(|w| w[1].1 < w[0].1));
        }
    }

    #[test]
    fn deposit_overdensity_sums_to_zero() {
        let world = World::new(2);
        world.run(|c| {
            let mut sim = DistSim::new(c, tiny::cfg(2));
            let delta = sim.deposit();
            let local: f64 = delta.as_slice().iter().sum();
            let total = c.allreduce_sum_f64(local);
            assert!(total.abs() < 1e-6, "Σδ = {total}");
        });
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_mesh_rejected() {
        let world = World::new(3);
        world.run(|c| {
            let _ = DistSim::new(c, tiny::cfg(2)); // ng=16 % 3 != 0
        });
    }
}
