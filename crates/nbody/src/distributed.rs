//! Rank-distributed particle-mesh stepping — the HACC main loop as it
//! actually runs across MPI ranks: the shared kick–drift–kick stepper (see
//! the `stepper` module docs) over an x-slab force provider — ghost-plane
//! exchanges around the CIC deposit and the gather, a slab-decomposed
//! distributed FFT for the Poisson solve, particle re-homing after every
//! drift. Its deposit is the whole mesh's exact integer sum over the rank's
//! x-slab, its transform the whole mesh's real transform over slabs, its
//! gather the whole mesh's on the ghost-extended slab: on any rank count it
//! computes what the whole-mesh provider computes, and the particles, merged
//! in tag order, are [`crate::Simulation`]'s bit for bit at every step.

use crate::particle::Particle;
use crate::pm::{deposit_window, gather_accel, gradient_spectra, grid_wavenumbers};
use crate::sim::SimConfig;
use crate::soa::DepositColumns;
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
fn ring_shift<T: Send + 'static>(comm: &Communicator, tag: u64, plane: Vec<T>, up: bool) -> Vec<T> {
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
/// its local particles, whose x-cells must lie in its slab (the deposit
/// panics otherwise), and one ghost plane is ring-exchanged. Returns the
/// local overdensity slab `[ng/R, ng, ng]`: the whole mesh's
/// [`crate::pm::cic_deposit_exact`] planes `r·ng/R..`, bit for bit, on any
/// rank count.
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

/// The exact deposit over this rank's x-planes and the ghost plane above
/// them, at the exponent of the global particle count and largest `|m|`, so
/// every rank quantizes each term as the whole mesh does; the ghost plane
/// folds into the next rank's first plane as integers, and the mean is the
/// integer total of all ranks.
fn slab_deposit_with_tag(
    comm: &Communicator,
    locals: &[Particle],
    ng: usize,
    box_size: f64,
    tag: u64,
) -> Grid3<f64> {
    let nr = comm.size();
    assert_eq!(ng % nr, 0, "mesh {ng} not divisible by {nr} ranks");
    let (s, x0) = (ng / nr, comm.rank() * (ng / nr));
    let cols = DepositColumns::from_aos(&Serial, locals);
    let (pos, mass) = (cols.positions(), cols.mass());
    // The global particle count and largest `|m|`.
    let all = |local| comm.allreduce(local, |a: (u64, u32), b| (a.0 + b.0, a.1.max(b.1)));
    let mut grid = deposit_window(&Serial, pos, mass, ng, box_size, x0..x0 + s, all);
    grid.fold_ghost(|ghost| ring_shift(comm, tag, ghost, true));
    let total = comm.allreduce(grid.sums.iter().sum::<i64>(), |a, b| a + b);
    grid.into_overdensity(total, [s, ng, ng])
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

    /// Position and momentum bits with the tag, per particle.
    fn bits(particles: &[Particle]) -> Vec<(u64, [u32; 6])> {
        let bits = |p: &Particle| {
            let [x, y, z] = p.pos.map(f32::to_bits);
            let [u, v, w] = p.vel.map(f32::to_bits);
            (p.tag, [x, y, z, u, v, w])
        };
        particles.iter().map(bits).collect()
    }

    /// `DistSim` on 1, 2 and 4 ranks, every rank's particles merged in tag
    /// order after every step, against `Simulation`'s at that step.
    fn assert_dist_is_shared_memory(cfg: SimConfig) {
        let mut expect = Vec::new();
        let mut reference = Simulation::new(&dpp::Serial, cfg.clone());
        reference.run_with_hook(&dpp::Serial, |_, sim| {
            let mut step = bits(sim.particles());
            step.sort_unstable_by_key(|&(tag, _)| tag);
            expect.push(step);
        });
        for nranks in [1usize, 2, 4] {
            let gathered = World::new(nranks).run(|c| {
                let mut seen = Vec::new();
                DistSim::new(c, cfg.clone()).run_with_hook(|_, sim| {
                    seen.push(c.allgather(bits(sim.particles())));
                });
                seen
            });
            for (step, (ranks, want)) in gathered[0].iter().zip(&expect).enumerate() {
                let mut got: Vec<_> = ranks.iter().flatten().copied().collect();
                got.sort_unstable_by_key(|&(tag, _)| tag);
                let differ = got.iter().zip(want).filter(|(g, w)| g != w).count();
                assert!(
                    got.len() == want.len() && differ == 0,
                    "nranks={nranks} step {}: {differ} of {} particles differ",
                    step + 1,
                    want.len()
                );
            }
            assert_eq!(gathered[0].len(), expect.len(), "nranks={nranks}");
        }
    }

    #[test]
    fn short_horizon_is_the_shared_memory_sim_bit_for_bit() {
        assert_dist_is_shared_memory(tiny::cfg(3));
    }

    #[test]
    fn long_run_is_the_shared_memory_sim_bit_for_bit() {
        // Chaos amplifies any summation-order noise over twelve steps; there
        // is none to amplify.
        assert_dist_is_shared_memory(tiny::cfg(12));
    }

    #[test]
    fn slabs_are_the_whole_mesh_deposit_for_empty_massless_and_nan_sets() {
        // An `f64` mass total and a division by the mean with no `mean > 0`
        // guard made the first and third all NaN, and the last NaN in every
        // cell rather than in the NaN particle's eight.
        let at = |x: f32, m: f32, tag| Particle::at_rest([x, 9.5, 31.9], m, tag);
        let some = |m: [f32; 3]| vec![at(0.3, m[0], 0), at(15.9, m[1], 1), at(31.99, m[2], 2)];
        let cases = [
            ("empty", Vec::new()),
            ("one rank's slab", vec![at(1.0, 1.0, 0), at(3.5, 2.0, 1)]),
            ("massless", some([0.0, -0.0, 0.0])),
            ("nan mass", some([1.0, f32::NAN, 2.0])),
        ];
        let (ng, l) = (16, 32.0);
        for (name, parts) in cases {
            let soa = crate::ParticleSoA::from_aos(&parts);
            let want =
                crate::pm::cic_deposit_exact(&dpp::Serial, soa.positions(), soa.mass(), ng, l);
            let want: Vec<u64> = want.as_slice().iter().map(|v| v.to_bits()).collect();
            for nranks in [1usize, 2, 4] {
                let slabs = World::new(nranks).run(|c| {
                    let mine: Vec<Particle> = parts
                        .iter()
                        .filter(|p| owner_of_x(p.pos[0] as f64, l, nranks) == c.rank())
                        .copied()
                        .collect();
                    slab_deposit(c, &mine, ng, l).into_vec()
                });
                let got: Vec<u64> = slabs.concat().iter().map(|v| v.to_bits()).collect();
                assert!(got == want, "{name} on {nranks} ranks");
            }
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
