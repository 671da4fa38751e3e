//! Cross-crate integration of the fully rank-parallel path: distributed
//! PM simulation (slab FFT, ghost planes, re-homing) feeding directly into
//! the rank-parallel analysis (overload-region FOF + centers) and the
//! distributed power spectrum — no gather anywhere.

use comm::{CartDecomp, World};
use cosmotools::distributed_power_spectrum;
use halo::{fof_and_centers_timed, FofConfig};
use nbody::{DistSim, Particle, SimConfig, Simulation};

fn cfg() -> SimConfig {
    SimConfig {
        np: 16,
        ng: 16,
        nsteps: 20,
        seed: 20150715,
        ..SimConfig::default()
    }
}

#[test]
fn distributed_sim_feeds_distributed_analysis() {
    let nranks = 4;
    let box_size = cfg().cosmology.box_size;
    let link = 0.28 * box_size / 16.0;
    let world = World::new(nranks);
    let results = world.run(|comm| {
        let mut sim = DistSim::new(comm, cfg());
        sim.run();
        assert!(sim.finished());

        // In-situ power spectrum straight off the slab-local particles
        // (DistSim homes particles by x-slab, which is exactly the layout
        // distributed_power_spectrum expects).
        let spec = distributed_power_spectrum(comm, sim.particles(), 16, box_size, 8);
        assert!(!spec.is_empty());

        // Halo analysis needs the near-cubic decomposition: redistribute.
        let decomp = CartDecomp::new(comm.size(), box_size);
        let locals = comm::redistribute(comm, &decomp, sim.particles().to_vec());
        let fof = FofConfig {
            link_length: link,
            min_size: 12,
            overload_width: (10.0 * link).min(0.45 * decomp.min_block_width()),
        };
        let (catalog, _) =
            fof_and_centers_timed(comm, &decomp, &locals, &fof, &dpp::Serial, 1e-3, usize::MAX);
        (spec, catalog.len(), catalog.total_particles())
    });

    // Every rank computed the identical global spectrum.
    for r in 1..nranks {
        assert_eq!(results[0].0.len(), results[r].0.len());
        for (a, b) in results[0].0.iter().zip(&results[r].0) {
            assert_eq!(a.modes, b.modes);
            assert!((a.power - b.power).abs() < 1e-9 * a.power.abs().max(1e-12));
        }
    }
    // Halos exist and are spread across ranks without duplication (count
    // equals a single-rank rerun).
    let total_halos: usize = results.iter().map(|r| r.1).sum();
    assert!(total_halos > 0, "the run must form halos");

    let single = World::new(1).run(|comm| {
        let mut sim = DistSim::new(comm, cfg());
        sim.run();
        let decomp = CartDecomp::new(1, box_size);
        let locals = comm::redistribute(comm, &decomp, sim.particles().to_vec());
        let fof = FofConfig {
            link_length: link,
            min_size: 12,
            overload_width: (10.0 * link).min(0.45 * decomp.min_block_width()),
        };
        let (catalog, _) =
            fof_and_centers_timed(comm, &decomp, &locals, &fof, &dpp::Serial, 1e-3, usize::MAX);
        catalog.len()
    });
    assert_eq!(
        total_halos, single[0],
        "rank count must not change the catalog"
    );
}

#[test]
fn distributed_and_shared_memory_sims_agree_bit_for_bit() {
    // Twenty steps of a chaotic system amplify any summation-order noise;
    // the slab deposit is the whole mesh's exact sum, so there is none.
    let bits = |particles: &[Particle]| -> Vec<(u64, [u32; 6])> {
        let mut all: Vec<_> = particles
            .iter()
            .map(|p| {
                let [x, y, z] = p.pos.map(f32::to_bits);
                let [u, v, w] = p.vel.map(f32::to_bits);
                (p.tag, [x, y, z, u, v, w])
            })
            .collect();
        all.sort_unstable_by_key(|&(tag, _)| tag);
        all
    };
    let mut shared = Simulation::new(&dpp::Serial, cfg());
    shared.run(&dpp::Serial);
    let want = bits(shared.particles());

    for nranks in [1usize, 2, 4] {
        let gathered = World::new(nranks).run(|comm| {
            let mut sim = DistSim::new(comm, cfg());
            sim.run();
            comm.allgather(sim.particles().to_vec())
        });
        let merged: Vec<Particle> = gathered[0].iter().flatten().copied().collect();
        let got = bits(&merged);
        let differ = got.iter().zip(&want).filter(|(g, w)| g != w).count();
        assert!(
            got.len() == want.len() && differ == 0,
            "{nranks} ranks: {differ} of {} particles differ from the shared-memory run",
            want.len()
        );
    }
}
