//! Cross-crate integration: a real simulation analyzed through the
//! rank-parallel path (overload regions + per-rank FOF + ownership) must
//! agree with the single-domain periodic reference, and with itself on every
//! rank count.

use comm::{CartDecomp, World};
use dpp::Threaded;
use halo::{fof_and_centers_timed, fof_grid, members_by_group, parallel_fof, FofConfig};
use nbody::{Particle, SimConfig, Simulation};
use std::collections::BTreeMap;

#[test]
fn parallel_analysis_of_real_simulation_matches_single_domain() {
    let backend = Threaded::new(4);
    let cfg = SimConfig {
        np: 32,
        ng: 32,
        nsteps: 30,
        seed: 31415,
        ..SimConfig::default()
    };
    let box_size = cfg.cosmology.box_size;
    let mut sim = Simulation::new(&backend, cfg);
    sim.run(&backend);
    let particles = sim.particles().to_vec();

    let link = 0.2 * box_size / 24.0;
    let min_size = 30;

    // Reference: single-domain periodic FOF.
    let positions: Vec<[f64; 3]> = particles.iter().map(|p| p.pos_f64()).collect();
    let labels = fof_grid(&positions, link, box_size);
    let groups = members_by_group(&labels);
    let mut ref_sizes: Vec<usize> = groups
        .iter()
        .map(|g| g.len())
        .filter(|&s| s >= min_size)
        .collect();
    ref_sizes.sort_unstable();
    assert!(!ref_sizes.is_empty(), "the run must form halos");

    // The paper's overload guarantee requires the shell to be at least as
    // wide as the maximum feasible halo extent; measure it from the
    // reference catalog (FOF chains can stretch far beyond a virial radius).
    let mut max_extent: f64 = 0.0;
    for g in &groups {
        if g.len() < min_size {
            continue;
        }
        let anchor = positions[g[0] as usize];
        for d in 0..3 {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for &i in g {
                let mut x = positions[i as usize][d];
                if x - anchor[d] > box_size / 2.0 {
                    x -= box_size;
                } else if x - anchor[d] < -box_size / 2.0 {
                    x += box_size;
                }
                lo = lo.min(x);
                hi = hi.max(x);
            }
            max_extent = max_extent.max(hi - lo);
        }
    }
    let width = (max_extent + 2.0 * link).max(10.0 * link);

    for nranks in [2usize, 4, 8] {
        let decomp = CartDecomp::new(nranks, box_size);
        assert!(
            width <= decomp.min_block_width(),
            "halo extent {max_extent:.1} exceeds what {nranks} ranks can overload"
        );
        let fof = FofConfig {
            link_length: link,
            min_size,
            overload_width: width,
        };
        let world = World::new(nranks);
        let catalogs = world.run(|c| {
            let locals: Vec<_> = particles
                .iter()
                .filter(|p| decomp.owner_of(p.pos_f64()) == c.rank())
                .copied()
                .collect();
            parallel_fof(c, &decomp, &locals, &fof)
        });
        let mut sizes: Vec<usize> = catalogs
            .iter()
            .flat_map(|cat| cat.halos.iter().map(|h| h.count()))
            .collect();
        sizes.sort_unstable();
        assert_eq!(
            sizes, ref_sizes,
            "nranks={nranks}: distributed catalog must match the reference"
        );
        // No duplicates across ranks.
        let mut ids: Vec<u64> = catalogs
            .iter()
            .flat_map(|cat| cat.halos.iter().map(|h| h.id))
            .collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }
}

/// A small clustered box: 16³ particles after eight steps, and its side.
fn clustered_box() -> (Vec<Particle>, f64) {
    let backend = Threaded::new(4);
    let cfg = SimConfig {
        np: 16,
        ng: 16,
        nsteps: 8,
        seed: 2718,
        ..SimConfig::default()
    };
    let box_size = cfg.cosmology.box_size;
    let mut sim = Simulation::new(&backend, cfg);
    sim.run(&backend);
    (sim.into_particles(), box_size)
}

/// Rank `c`'s share of a *wrong* distribution: round-robin by tag.
fn round_robin(particles: &[Particle], c: &comm::Communicator) -> Vec<Particle> {
    let mine = particles
        .iter()
        .filter(|p| p.tag as usize % c.size() == c.rank());
    mine.copied().collect()
}

#[test]
fn redistribution_preserves_the_particle_set() {
    let (particles, box_size) = clustered_box();
    let nranks = 8;
    let decomp = CartDecomp::new(nranks, box_size);
    let world = World::new(nranks);
    // Start from a round-robin distribution, redistribute, and verify
    // ownership + conservation.
    let tag_counts = world.run(|c| {
        let owned = comm::redistribute(c, &decomp, round_robin(&particles, c));
        for p in &owned {
            assert_eq!(decomp.owner_of(p.pos_f64()), c.rank());
        }
        owned.iter().map(|p| p.tag).collect::<Vec<_>>()
    });
    let mut all_tags: Vec<u64> = tag_counts.into_iter().flatten().collect();
    all_tags.sort_unstable();
    let mut expect: Vec<u64> = particles.iter().map(|p| p.tag).collect();
    expect.sort_unstable();
    assert_eq!(all_tags, expect, "every particle lands exactly once");
}

/// A halo as a catalog must reproduce it: member tags (sorted), count and
/// the bits of its most-bound-particle center, by id.
type Catalog = BTreeMap<u64, (Vec<u64>, usize, [u64; 3])>;

/// The rank count moves no halo: from a round-robin start, redistributed,
/// `fof_and_centers_timed` on 2, 4 and 8 ranks finds the 1-rank catalog —
/// the same ids, member tag sets, counts and center bits — and no halo is
/// reported by two ranks.
#[test]
fn every_rank_count_finds_the_one_rank_catalog() {
    let (particles, box_size) = clustered_box();
    let link = 0.28 * box_size / 16.0;
    let catalog_on = |nranks: usize| -> Catalog {
        let decomp = CartDecomp::new(nranks, box_size);
        let fof = FofConfig {
            link_length: link,
            min_size: 12,
            overload_width: (10.0 * link).min(0.45 * decomp.min_block_width()),
        };
        let catalogs = World::new(nranks).run(|c| {
            let locals = comm::redistribute(c, &decomp, round_robin(&particles, c));
            let (catalog, _) =
                fof_and_centers_timed(c, &decomp, &locals, &fof, &dpp::Serial, 1e-3, usize::MAX);
            catalog
        });
        let mut halos = Catalog::new();
        for h in catalogs.iter().flat_map(|catalog| &catalog.halos) {
            let mut tags: Vec<u64> = h.particles.iter().map(|p| p.tag).collect();
            tags.sort_unstable();
            let center = h.mbp_center.expect("every halo is centered");
            let seen = halos.insert(h.id, (tags, h.count(), center.map(f64::to_bits)));
            assert!(seen.is_none(), "{nranks} ranks: halo {} on two ranks", h.id);
        }
        halos
    };
    let one_rank = catalog_on(1);
    assert!(one_rank.len() > 1, "the run must form halos");
    for nranks in [2usize, 4, 8] {
        let catalog = catalog_on(nranks);
        let ids = |c: &Catalog| c.keys().copied().collect::<Vec<_>>();
        assert_eq!(ids(&catalog), ids(&one_rank), "{nranks} ranks: halo ids");
        for (id, halo) in &catalog {
            assert!(halo == &one_rank[id], "{nranks} ranks: halo {id} differs");
        }
    }
}
