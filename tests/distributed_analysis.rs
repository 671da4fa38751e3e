//! Cross-crate integration: a real simulation analyzed through the
//! rank-parallel path (overload regions + per-rank FOF + ownership) must
//! agree with the single-domain periodic reference, and with itself on every
//! rank count.

use comm::{CartDecomp, World};
use cosmotools::SnapshotMeta;
use dpp::Threaded;
use halo::{fof_and_centers_timed, fof_grid, members_by_group, parallel_fof, FofConfig};
use nbody::{Particle, SimConfig, Simulation};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// A 32³ box after 30 steps (seed 31415), run once per test binary.
struct RealBox {
    particles: Vec<Particle>,
    box_size: f64,
    redshift: f64,
    nsteps: usize,
}

fn real_box() -> &'static RealBox {
    static BOX: OnceLock<RealBox> = OnceLock::new();
    BOX.get_or_init(|| {
        let backend = Threaded::new(4);
        let cfg = SimConfig {
            np: 32,
            ng: 32,
            nsteps: 30,
            seed: 31415,
            ..SimConfig::default()
        };
        let (box_size, nsteps) = (cfg.cosmology.box_size, cfg.nsteps);
        let mut sim = Simulation::new(&backend, cfg);
        sim.run(&backend);
        RealBox {
            redshift: sim.redshift(),
            particles: sim.into_particles(),
            box_size,
            nsteps,
        }
    })
}

/// The real box's linking length, minimum halo size and overload width.
fn real_box_fof() -> FofConfig {
    let RealBox {
        particles,
        box_size,
        ..
    } = real_box();
    let box_size = *box_size;
    let link = 0.2 * box_size / 24.0;
    let min_size = 30;
    let positions: Vec<[f64; 3]> = particles.iter().map(|p| p.pos_f64()).collect();
    let groups = members_by_group(&fof_grid(&positions, link, box_size));
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
    FofConfig {
        link_length: link,
        min_size,
        overload_width: (max_extent + 2.0 * link).max(10.0 * link),
    }
}

/// Rank `rank`'s particles of the real box, in storage (tag) order.
fn owned_by(decomp: &CartDecomp, rank: usize) -> Vec<Particle> {
    let mine = real_box().particles.iter();
    let mine = mine.filter(|p| decomp.owner_of(p.pos_f64()) == rank);
    mine.copied().collect()
}

#[test]
fn parallel_analysis_of_real_simulation_matches_single_domain() {
    let RealBox {
        particles,
        box_size,
        ..
    } = real_box();
    let box_size = *box_size;
    let fof = real_box_fof();
    let (link, min_size, width) = (fof.link_length, fof.min_size, fof.overload_width);

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

    for nranks in [2usize, 4, 8] {
        let decomp = CartDecomp::new(nranks, box_size);
        assert!(
            width <= decomp.min_block_width(),
            "overload width {width:.1} exceeds what {nranks} ranks can overload"
        );
        let world = World::new(nranks);
        let catalogs = world.run(|c| parallel_fof(c, &decomp, &owned_by(&decomp, c.rank()), &fof));
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

/// At 2 ranks (a `2×1×1` grid, so y and z wrap inside the cell engine)
/// each rank's identification links its locals and the ghosts the overload
/// exchange delivers, each particle once — no periodic self-image rows.
#[test]
fn find_work_is_locals_plus_delivered_ghosts() {
    let fof = real_box_fof();
    let decomp = CartDecomp::new(2, real_box().box_size);
    assert_eq!(decomp.dims(), [2, 1, 1]);
    let per_rank = World::new(2).run(|c| {
        let locals = owned_by(&decomp, c.rank());
        let ghosts = comm::exchange_overload(c, &decomp, fof.overload_width, &locals);
        let (_, timing) = fof_and_centers_timed(c, &decomp, &locals, &fof, &dpp::Serial, 1e-3, 0);
        (locals.len() + ghosts.len(), timing.find_work)
    });
    for (rank, (rows, work)) in per_rank.into_iter().enumerate() {
        assert_eq!(work, rows as u64, "rank {rank}: rows linked");
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

fn digest(words: impl IntoIterator<Item = u64>) -> cache::Digest {
    let mut h = cache::Hasher::new();
    for w in words {
        h.update(&w.to_le_bytes());
    }
    h.finish()
}

/// Every bit the rank-parallel find hands on, pinned on the real box at 1,
/// 2, 4 and 8 ranks: per rank, a digest of `fof_and_centers_timed`'s
/// catalog in catalog order (ids, member tags and position bits, MBP
/// center bits) and one of the encoded Level-2 container of its halos above
/// 200; per rank count, the halos whose members are unwrapped across the
/// seam of an axis with one block (positions below 0 or past the box side
/// there), which must exist at 1, 2 and 4 ranks so the unwrap is pinned.
#[test]
fn golden_halo_bits_32() {
    let real = real_box();
    let fof = real_box_fof();
    let meta = SnapshotMeta {
        step: real.nsteps as u64,
        redshift: real.redshift,
        box_size: real.box_size,
    };
    let mut lines = format!(
        "# 32^3 seed 31415 after {} steps: link {:?}, min_size {}, overload {:?}\n",
        real.nsteps, fof.link_length, fof.min_size, fof.overload_width
    );
    let mut unexercised = Vec::new();
    for nranks in [1usize, 2, 4, 8] {
        let decomp = CartDecomp::new(nranks, real.box_size);
        let single: Vec<usize> = (0..3).filter(|&d| decomp.dims()[d] == 1).collect();
        let catalogs = World::new(nranks).run(|c| {
            let locals = owned_by(&decomp, c.rank());
            let (catalog, _) =
                fof_and_centers_timed(c, &decomp, &locals, &fof, &dpp::Serial, 1e-3, usize::MAX);
            catalog
        });
        let mut straddling = 0;
        for (rank, catalog) in catalogs.into_iter().enumerate() {
            let mut words = Vec::new();
            for h in &catalog.halos {
                words.extend([h.id, h.count() as u64]);
                for p in &h.particles {
                    words.push(p.tag);
                    words.extend(p.pos.map(|x| u64::from(x.to_bits())));
                }
                let center = h.mbp_center.expect("every halo is centered");
                words.extend(center.map(f64::to_bits));
                let outside = |p: &Particle| {
                    single
                        .iter()
                        .any(|&d| !(0.0..real.box_size).contains(&(p.pos[d] as f64)))
                };
                straddling += usize::from(h.particles.iter().any(outside));
            }
            let halos = catalog.len();
            let (_, large) = catalog.split_by_size(200);
            let level2 = cosmotools::write_level2_container(&large, meta.clone());
            let level2 = cache::digest_bytes(&cosmotools::write_container(&level2));
            lines += &format!(
                "nranks {nranks} rank {rank} halos {halos} catalog {} level2 {level2}\n",
                digest(words)
            );
        }
        lines += &format!("nranks {nranks} seam_straddling_halos {straddling}\n");
        if !single.is_empty() {
            unexercised.extend((straddling == 0).then_some(nranks));
        }
    }
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/halo_bits_32.txt");
    if let Err(msg) = conformance::golden::compare_or_bless(&path, &lines) {
        panic!("{msg}");
    }
    assert!(
        unexercised.is_empty(),
        "no halo crosses a single-block seam at {unexercised:?} ranks"
    );
}
