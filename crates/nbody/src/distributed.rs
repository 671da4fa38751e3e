//! Rank-distributed particle-mesh stepping — the HACC main loop as it
//! actually runs across MPI ranks: the shared kick–drift–kick stepper (see
//! the `stepper` module docs) over an x-slab force provider — ghost-plane
//! exchanges around the CIC deposit and the gather, a slab-decomposed
//! distributed FFT for the Poisson solve, particle re-homing after every
//! drift. It integrates the same equations as the whole-mesh provider; the
//! two agree to floating-point noise over short horizons and statistically
//! over long ones (the system is chaotic: summation orders diverge).

use crate::particle::Particle;
use crate::pm::{gather_accel, gradient_spectra, grid_wavenumbers};
use crate::sim::SimConfig;
use crate::stepper::{driver_accessors, ForceProvider, Stepper};
use comm::Communicator;
use dpp::{Backend, Serial};
use fft::{Grid3, SlabFft};

/// Tag base for the ring plane exchanges (below the collective tag space).
const PLANE_TAG_BASE: u64 = 1 << 40;

/// A distributed simulation: one instance per rank, inside `World::run`.
/// Rank-local particles have x within this rank's slab.
pub struct DistSim<'a>(Stepper<Slabs<'a>>);

/// The x-slab force provider of one rank. Every call is a collective and
/// runs on `dpp::Serial`, whatever backend the stepper passes.
struct Slabs<'a> {
    comm: &'a Communicator,
    slab_fft: SlabFft,
    /// The grid angular frequency of every bin, as `PoissonSolver` keeps.
    k: Vec<f64>,
    plane_seq: u64,
}

/// The rank owning box coordinate `x`.
fn owner_of_x(x: f64, box_size: f64, nranks: usize) -> usize {
    let w = box_size / nranks as f64;
    ((x.rem_euclid(box_size) / w) as usize).min(nranks - 1)
}

impl<'a> DistSim<'a> {
    /// Stand up the distributed run (requires `cfg.ng % comm.size() == 0`).
    /// Every rank realizes the (deterministic) initial conditions and keeps
    /// its slab's particles — IC generation is not what this distributes.
    pub fn new(comm: &'a Communicator, cfg: SimConfig) -> Self {
        let (r, nr, ng, l) = (comm.rank(), comm.size(), cfg.ng, cfg.cosmology.box_size);
        assert!(ng % nr == 0, "mesh {ng} not divisible by {nr} ranks");
        let slabs = Slabs {
            comm,
            slab_fft: SlabFft::new(ng, nr).expect("a power-of-two mesh"),
            k: grid_wavenumbers(ng),
            plane_seq: 0,
        };
        let mut stepper = Stepper::new(&Serial, cfg, slabs);
        let all = stepper.particles_mut();
        all.retain(|p| owner_of_x(p.pos[0] as f64, l, nr) == r);
        DistSim(stepper)
    }

    driver_accessors!();

    /// Drop the carried acceleration, so the next kick re-solves and
    /// re-gathers (to the same bits). **Collective**: a solve exchanges ghost
    /// planes and FFT slabs, and a rank that enters those without its peers
    /// deadlocks the run — call it on every rank or on none.
    pub fn discard_carried_force(&mut self) {
        self.0.particles_mut();
    }

    /// One KDK leapfrog step (collective call: all ranks step together).
    pub fn step(&mut self) {
        self.0.step(&Serial);
    }

    /// Run all remaining steps.
    pub fn run(&mut self) {
        self.run_with_hook(|_, _| {});
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
            hook(self.step_index(), self);
        }
    }

    /// Global particle count (collective).
    pub fn total_particles(&self) -> u64 {
        let comm = self.0.force.comm;
        comm.allreduce_sum_u64(self.particles().len() as u64)
    }

    /// Global RMS overdensity (collective; diagnostic).
    pub fn density_rms(&mut self) -> f64 {
        let (comm, cfg) = (self.0.force.comm, self.config());
        let delta = slab_deposit(comm, self.particles(), cfg.ng, cfg.cosmology.box_size);
        let local: f64 = delta.as_slice().iter().map(|v| v * v).sum();
        let ncell = (cfg.ng as f64).powi(3);
        (comm.allreduce_sum_f64(local) / ncell).sqrt()
    }
}

impl Slabs<'_> {
    fn next_plane_tag(&mut self) -> u64 {
        let t = PLANE_TAG_BASE + self.plane_seq;
        self.plane_seq += 1;
        t
    }

    /// Distributed Poisson solve: returns the three acceleration slabs, each
    /// with an extra ghost plane appended (dims `[slab+1, ng, ng]`) so CIC
    /// interpolation can reach across the upper boundary.
    ///
    /// The whole-mesh solve on slabs: one slab real-to-complex transform,
    /// `gradient_spectra` over this rank's y-slab of the half spectrum (its
    /// first global `y` as the offset, the Nyquist rule included), three
    /// slab complex-to-real transforms.
    fn accel_slabs(&mut self, delta: &Grid3<f64>, prefactor: f64) -> [Grid3<f64>; 3] {
        let _span = telemetry::span!("nbody", "pm_solve");
        let [s, ng, _] = delta.dims();
        let spectrum = self
            .slab_fft
            .forward(self.comm, delta)
            .expect("planned dims");
        let y0 = self.comm.rank() * s;
        gradient_spectra(&Serial, &self.k, y0, prefactor, spectrum).map(|gk| {
            let real_slab = self.slab_fft.inverse(self.comm, gk).expect("planned dims");
            // Append the ghost plane from the next rank (its plane 0).
            let mut field = real_slab.into_vec();
            let my_plane0 = field[..ng * ng].to_vec();
            let tag = self.next_plane_tag();
            field.extend_from_slice(&ring_shift(self.comm, tag, my_plane0, false));
            Grid3::from_vec([s + 1, ng, ng], field)
        })
    }
}

impl ForceProvider for Slabs<'_> {
    /// CIC deposit into the local slab plus an upper ghost plane folded into
    /// the next rank's first plane, the slab solve, then the gather with this
    /// rank's first global x-cell as the origin.
    fn accelerations(
        &mut self,
        _: &dyn Backend,
        cfg: &SimConfig,
        particles: &[Particle],
        prefactor: f64,
        out: &mut Vec<[f64; 3]>,
    ) {
        let (ng, l) = (cfg.ng, cfg.cosmology.box_size);
        let delta = {
            let _span = telemetry::span!("nbody", "deposit");
            let tag = self.next_plane_tag();
            slab_deposit_with_tag(self.comm, particles, ng, l, tag)
        };
        let slabs = self.accel_slabs(&delta, prefactor);
        let x0 = self.comm.rank() * (ng / self.comm.size());
        gather_accel(&Serial, &slabs, x0, particles, l, out);
    }

    /// Re-home by x-slab ownership.
    fn rehome(&mut self, cfg: &SimConfig, particles: &mut Vec<Particle>) {
        let (l, nr) = (cfg.cosmology.box_size, self.comm.size());
        let mut sends: Vec<Vec<Particle>> = (0..nr).map(|_| Vec::new()).collect();
        for p in particles.drain(..) {
            sends[owner_of_x(p.pos[0] as f64, l, nr)].push(p);
        }
        *particles = self.comm.alltoallv(sends).into_iter().flatten().collect();
    }
}

/// Pass `plane` one rank along the ring — `up` to the next rank, else to the
/// previous — and return the one arriving from the other side; a lone rank
/// gets its own back without touching the wire.
fn ring_shift(comm: &Communicator, tag: u64, plane: Vec<f64>, up: bool) -> Vec<f64> {
    let (r, nr) = (comm.rank(), comm.size());
    if nr == 1 {
        return plane;
    }
    let (next, prev) = ((r + 1) % nr, (r + nr - 1) % nr);
    let (to, from) = if up { (next, prev) } else { (prev, next) };
    comm.send_vec(to, tag, plane);
    comm.recv(from, tag)
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
    // rank's plane 0 (the periodic wrap onto my own, when alone).
    let ghost: Vec<f64> = buf[idx(s, 0, 0)..].to_vec();
    for (k, v) in ring_shift(comm, tag, ghost, true).iter().enumerate() {
        buf[k] += v;
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
                    assert_eq!(owner_of_x(p.pos[0] as f64, l, c.size()), c.rank());
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
                c.allgather(sim.particles().to_vec())
            });
            let mut got: Vec<Particle> = gathered[0].iter().flatten().copied().collect();
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
            let sim = DistSim::new(c, tiny::cfg(2));
            let delta = slab_deposit(c, sim.particles(), 16, 32.0);
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
