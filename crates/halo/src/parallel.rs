//! Rank-parallel FOF halo finding over a Cartesian decomposition with
//! overload regions (paper §3.3.1).
//!
//! Each rank runs the serial finder on its local particles plus the
//! replicated overload shell (its *extended patch*). With the overload width
//! at least the largest halo extent, every halo is found *in its entirety*
//! by each rank that owns at least one of its particles; the halo is then
//! *assigned* to exactly one rank by a deterministic rule (the rank owning
//! the halo's minimum-tag particle), so the union over ranks is an exact,
//! duplicate-free catalog.
//!
//! The patch is linked by the open-boundary cell engine ([`fof_patch`]),
//! whose pair test is the k-d tree's: the label vector is the one
//! [`crate::fof_kdtree_cols`] returns on the same rows (the
//! `parallel_fof_labels_equal_the_kdtree_on_every_rank` test).

use crate::catalog::{Halo, HaloCatalog};
use crate::fof::{fof_patch, groups_of_at_least};
use comm::{exchange_overload, CartDecomp, Communicator};
use nbody::particle::Particle;

/// Parameters for the distributed FOF run.
#[derive(Debug, Clone)]
pub struct FofConfig {
    /// FOF linking length (same units as positions).
    pub link_length: f64,
    /// Discard halos with fewer members (the paper uses 40).
    pub min_size: usize,
    /// Overload shell width; must be ≥ the largest halo extent and ≤ the
    /// smallest block width.
    pub overload_width: f64,
}

/// Run distributed FOF. `locals` must be the particles owned by this rank
/// (their positions inside the rank's block). Returns the halos assigned to
/// this rank.
pub fn parallel_fof(
    comm: &Communicator,
    decomp: &CartDecomp,
    locals: &[Particle],
    cfg: &FofConfig,
) -> HaloCatalog {
    parallel_fof_counted(comm, decomp, locals, cfg).0
}

/// The linking coordinates of this rank's extended patch, row for row as
/// [`parallel_fof`] links them: the locals, the ghosts [`exchange_overload`]
/// brings (unwrapped next to the block), then the periodic self-images on
/// single-block axes. Collective: every rank of `comm` must call it.
pub fn extended_patch(
    comm: &Communicator,
    decomp: &CartDecomp,
    locals: &[Particle],
    width: f64,
) -> Vec<[f64; 3]> {
    let ghosts = exchange_overload(comm, decomp, width, locals);
    Patch::build(decomp, comm.rank(), locals, ghosts, width).positions
}

/// A rank's extended patch: one row per copy of a particle, in the order
/// locals, ghosts, then self-images axis by axis.
struct Patch<'a> {
    locals: &'a [Particle],
    ghosts: Vec<Particle>,
    /// Linking coordinates in `f64`, the unwrapping and image shifts applied
    /// exactly (±L in `f64` is lossless), so the distributed partition is the
    /// single-domain periodic one.
    positions: Vec<[f64; 3]>,
    /// Row → the record it copies, an index into `locals ++ ghosts`.
    source: Vec<u32>,
}

impl<'a> Patch<'a> {
    /// Lay the patch out in one pass into rows reserved up front: a row with
    /// `k` single-block axes on which it sits within `width` of the seam
    /// yields `2^k` rows, itself and its images.
    fn build(
        decomp: &CartDecomp,
        rank: usize,
        locals: &'a [Particle],
        ghosts: Vec<Particle>,
        width: f64,
    ) -> Self {
        let l = decomp.box_size();
        let (lo, hi) = decomp.local_bounds(rank);
        let block_center: [f64; 3] = std::array::from_fn(|d| (lo[d] + hi[d]) / 2.0);
        // Ghost positions unwrapped to be contiguous with this rank's block
        // (a ghost from a periodic neighbor may sit across the box seam).
        let unwrap = |mut q: [f64; 3]| {
            for d in 0..3 {
                if q[d] - block_center[d] > l / 2.0 {
                    q[d] -= l;
                } else if q[d] - block_center[d] < -l / 2.0 {
                    q[d] += l;
                }
            }
            q
        };
        // Axes with a single block have no neighbor to exchange with, but
        // the box is still periodic there: a row within one overload width
        // of the seam gets a self-image shifted by ±L. Images sit at rows
        // ≥ `locals.len()`, so ownership treats them as ghosts.
        let single: Vec<usize> = (0..3).filter(|&d| decomp.dims()[d] == 1).collect();
        let image_shift = |x: f64, d: usize| {
            if x - lo[d] < width {
                Some(l)
            } else if hi[d] - x <= width {
                Some(-l)
            } else {
                None
            }
        };
        let base = locals
            .iter()
            .map(|p| p.pos_f64())
            .chain(ghosts.iter().map(|g| unwrap(g.pos_f64())));
        let rows: usize = base
            .clone()
            .map(|q| {
                1 << single
                    .iter()
                    .filter(|&&d| image_shift(q[d], d).is_some())
                    .count()
            })
            .sum();
        let mut positions = Vec::with_capacity(rows);
        let mut source = Vec::with_capacity(rows);
        positions.extend(base);
        source.extend(0..positions.len() as u32);
        for &d in &single {
            for i in 0..positions.len() {
                if let Some(shift) = image_shift(positions[i][d], d) {
                    let mut q = positions[i];
                    q[d] += shift;
                    positions.push(q);
                    source.push(source[i]);
                }
            }
        }
        debug_assert_eq!(positions.len(), rows);
        Patch {
            locals,
            ghosts,
            positions,
            source,
        }
    }

    fn len(&self) -> usize {
        self.positions.len()
    }

    fn is_local(&self, row: usize) -> bool {
        row < self.locals.len()
    }

    /// The particle row `row` copies.
    fn source(&self, row: usize) -> &Particle {
        let s = self.source[row] as usize;
        self.locals
            .get(s)
            .unwrap_or_else(|| &self.ghosts[s - self.locals.len()])
    }

    /// Row `row` as a catalog record: a local as it is, any other copy with
    /// its unwrapped or shifted position rounded to `f32` (center finding
    /// tolerates the rounding; on the axes no shift touched, `f32 → f64 →
    /// f32` is the identity).
    fn record(&self, row: usize) -> Particle {
        let mut p = *self.source(row);
        if !self.is_local(row) {
            p.pos = self.positions[row].map(|x| x as f32);
        }
        p
    }
}

/// [`parallel_fof`] plus the size of the extended patch it linked (locals,
/// ghosts and periodic self-images): the rank's identification work.
fn parallel_fof_counted(
    comm: &Communicator,
    decomp: &CartDecomp,
    locals: &[Particle],
    cfg: &FofConfig,
) -> (HaloCatalog, usize) {
    assert!(cfg.link_length > 0.0);
    assert!(
        cfg.overload_width >= cfg.link_length,
        "overload width must cover at least one linking length"
    );
    let rank = comm.rank();
    let _span = telemetry::span!("halo", "parallel_fof", rank);
    let ghosts = {
        let _span = telemetry::span!("halo", "exchange", rank);
        exchange_overload(comm, decomp, cfg.overload_width, locals)
    };
    let patch = {
        let _span = telemetry::span!("halo", "patch", rank);
        Patch::build(decomp, rank, locals, ghosts, cfg.overload_width)
    };
    telemetry::count!("halo", "patch_particles", patch.len());

    // Serial FOF on the extended patch (open boundaries: the shell covers
    // the seams).
    let labels = {
        let _span = telemetry::span!("halo", "link", rank);
        fof_patch(&patch.positions, cfg.link_length)
    };

    let _span = telemetry::span!("halo", "catalog", rank);
    let mut catalog = HaloCatalog::new();
    for members in groups_of_at_least(&labels, cfg.min_size) {
        // Ownership: the halo's minimum tag must be present as one of this
        // rank's *local* particles (not a ghost or periodic image). Exactly
        // one rank satisfies this, so the union over ranks is duplicate-free.
        let tag = |&i: &u32| patch.source(i as usize).tag;
        let min_tag = members.iter().map(tag).min().expect("non-empty group");
        let owned = members
            .iter()
            .any(|i| patch.is_local(*i as usize) && tag(i) == min_tag);
        if owned {
            // Deduplicate by tag: a halo may contain both a particle and its
            // periodic image when images were added above.
            let mut parts: Vec<Particle> =
                members.iter().map(|&i| patch.record(i as usize)).collect();
            parts.sort_by_key(|p| p.tag);
            parts.dedup_by_key(|p| p.tag);
            if parts.len() >= cfg.min_size {
                catalog.halos.push(Halo::from_particles(parts));
            }
        }
    }
    (catalog, patch.len())
}

/// Per-rank timing of distributed halo analysis, the quantity behind the
/// paper's Table 2 ("Max/Min Find" and "Max/Min Center"), with the counted
/// work behind each clock: seconds vary with the host's load, the counts
/// repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RankTiming {
    /// Seconds in halo identification (FOF).
    pub find_seconds: f64,
    /// Seconds in MBP center finding.
    pub center_seconds: f64,
    /// Rows linked by the identification: the extended patch's locals,
    /// ghosts and periodic self-images.
    pub find_work: u64,
    /// Pair evaluations of the brute-force centers: Σ nᵢ² over the halos
    /// centred on this rank.
    pub center_work: u64,
}

/// Run FOF + brute-force MBP centers on this rank, timing each phase.
/// `center_threshold` limits center finding to halos with at most that many
/// particles (`usize::MAX` = all), which is exactly the paper's in-situ /
/// off-line split.
pub fn fof_and_centers_timed(
    comm: &Communicator,
    decomp: &CartDecomp,
    locals: &[Particle],
    cfg: &FofConfig,
    backend: &dyn dpp::Backend,
    softening: f64,
    center_threshold: usize,
) -> (HaloCatalog, RankTiming) {
    let t0 = std::time::Instant::now();
    let (mut catalog, linked) = parallel_fof_counted(comm, decomp, locals, cfg);
    let find_seconds = t0.elapsed().as_secs_f64();

    let t1 = std::time::Instant::now();
    let _span = telemetry::span!("halo", "centers", comm.rank());
    let mut center_work = 0u64;
    for halo in &mut catalog.halos {
        if halo.count() <= center_threshold {
            center_work += (halo.count() as u64).pow(2);
            let r = crate::mbp::mbp_brute(backend, &halo.particles, softening);
            halo.mbp_center = Some(halo.particles[r.index].pos_f64());
        }
    }
    let center_seconds = t1.elapsed().as_secs_f64();
    (
        catalog,
        RankTiming {
            find_seconds,
            center_seconds,
            find_work: linked as u64,
            center_work,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fof::{canonical_partition, fof_grid};
    use comm::World;

    /// Deterministic blob helper.
    fn blob(center: [f64; 3], n: usize, spread: f64, tag0: u64, box_size: f64) -> Vec<Particle> {
        (0..n)
            .map(|i| {
                let t = tag0 as f64 * 3.33 + i as f64;
                let pos = [
                    (center[0] + ((t * 0.618).fract() - 0.5) * spread).rem_euclid(box_size),
                    (center[1] + ((t * 0.414).fract() - 0.5) * spread).rem_euclid(box_size),
                    (center[2] + ((t * 0.732).fract() - 0.5) * spread).rem_euclid(box_size),
                ];
                Particle::at_rest(
                    [pos[0] as f32, pos[1] as f32, pos[2] as f32],
                    1.0,
                    tag0 + i as u64,
                )
            })
            .collect()
    }

    /// A synthetic box with blobs, one straddling a block boundary and one
    /// straddling the periodic seam.
    fn test_universe(box_size: f64) -> Vec<Particle> {
        let mut all = Vec::new();
        all.extend(blob([10.0, 10.0, 10.0], 80, 1.0, 0, box_size)); // interior of rank block
        all.extend(blob([16.0, 10.0, 10.0], 60, 1.0, 1000, box_size)); // straddles x=16 boundary (2 ranks @ 32)
        all.extend(blob([0.2, 20.0, 20.0], 50, 1.0, 2000, box_size)); // straddles periodic seam x=0
        all.extend(blob([25.0, 25.0, 25.0], 40, 1.0, 3000, box_size)); // another interior
        all
    }

    fn distribute(all: &[Particle], decomp: &CartDecomp, rank: usize) -> Vec<Particle> {
        all.iter()
            .filter(|p| decomp.owner_of(p.pos_f64()) == rank)
            .copied()
            .collect()
    }

    #[test]
    fn parallel_fof_matches_single_domain_periodic_fof() {
        let box_size = 32.0;
        let all = test_universe(box_size);
        let link = 0.45;
        // Reference: single-domain periodic FOF.
        let positions: Vec<[f64; 3]> = all.iter().map(|p| p.pos_f64()).collect();
        let ref_labels = fof_grid(&positions, link, box_size);
        let ref_groups: Vec<usize> = canonical_partition(&ref_labels)
            .into_iter()
            .map(|g| g.len())
            .filter(|&s| s >= 20)
            .collect();

        for nranks in [1usize, 2, 4, 8] {
            let decomp = CartDecomp::new(nranks, box_size);
            let world = World::new(nranks);
            let cfg = FofConfig {
                link_length: link,
                min_size: 20,
                overload_width: 4.0,
            };
            let catalogs = world.run(|c| {
                let locals = distribute(&all, &decomp, c.rank());
                parallel_fof(c, &decomp, &locals, &cfg)
            });
            let mut sizes: Vec<usize> = catalogs
                .iter()
                .flat_map(|cat| cat.halos.iter().map(|h| h.count()))
                .collect();
            let mut expect = ref_groups.clone();
            sizes.sort_unstable();
            expect.sort_unstable();
            assert_eq!(sizes, expect, "nranks={nranks}");
            // Each halo id appears exactly once across ranks.
            let mut ids: Vec<u64> = catalogs
                .iter()
                .flat_map(|cat| cat.halos.iter().map(|h| h.id))
                .collect();
            let total = ids.len();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(
                ids.len(),
                total,
                "duplicate halo assignment, nranks={nranks}"
            );
        }
    }

    #[test]
    fn parallel_fof_labels_equal_the_kdtree_on_every_rank() {
        let box_size = 32.0;
        let all = test_universe(box_size);
        let link = 0.45;
        for nranks in [1usize, 2, 4, 8] {
            let decomp = CartDecomp::new(nranks, box_size);
            let patches = World::new(nranks)
                .run(|c| extended_patch(c, &decomp, &distribute(&all, &decomp, c.rank()), 4.0));
            for (rank, patch) in patches.iter().enumerate() {
                assert_eq!(
                    fof_patch(patch, link),
                    crate::fof_kdtree_cols(&crate::Coords::from_rows(patch), link),
                    "nranks={nranks} rank={rank}"
                );
            }
        }
    }

    #[test]
    fn catalog_does_not_depend_on_the_order_of_locals() {
        let box_size = 32.0;
        let all = test_universe(box_size);
        let cfg = FofConfig {
            link_length: 0.45,
            min_size: 20,
            overload_width: 4.0,
        };
        // Per halo, its id and every member's tag and position bits.
        type Members = Vec<(u64, [u32; 3])>;
        let halos = |catalogs: Vec<HaloCatalog>| {
            let mut halos: Vec<(u64, Members)> = catalogs
                .iter()
                .flat_map(|c| &c.halos)
                .map(|h| {
                    let parts = h.particles.iter().map(|p| (p.tag, p.pos.map(f32::to_bits)));
                    (h.id, parts.collect())
                })
                .collect();
            halos.sort();
            halos
        };
        for nranks in [1usize, 2, 4] {
            let decomp = CartDecomp::new(nranks, box_size);
            let world = World::new(nranks);
            let run = |permute: fn(&mut Vec<Particle>)| {
                halos(world.run(|c| {
                    let mut locals = distribute(&all, &decomp, c.rank());
                    permute(&mut locals);
                    parallel_fof(c, &decomp, &locals, &cfg)
                }))
            };
            let base = run(|_| {});
            assert!(!base.is_empty());
            assert_eq!(run(|l| l.reverse()), base, "nranks={nranks} reversed");
            assert_eq!(
                run(|l| {
                    let third = l.len() / 3;
                    l.rotate_left(third)
                }),
                base,
                "nranks={nranks} rotated"
            );
        }
    }

    #[test]
    fn boundary_halo_particles_are_complete() {
        // The halo straddling a block boundary must come out whole, with
        // unwrapped contiguous positions.
        let box_size = 32.0;
        let all = test_universe(box_size);
        let decomp = CartDecomp::new(2, box_size);
        let world = World::new(2);
        let cfg = FofConfig {
            link_length: 0.45,
            min_size: 20,
            overload_width: 4.0,
        };
        let catalogs = world.run(|c| {
            let locals = distribute(&all, &decomp, c.rank());
            parallel_fof(c, &decomp, &locals, &cfg)
        });
        // Find the seam halo (tags 2000..2050).
        let seam: Vec<&Halo> = catalogs
            .iter()
            .flat_map(|c| c.halos.iter())
            .filter(|h| (2000..2050).contains(&h.id))
            .collect();
        assert_eq!(seam.len(), 1, "seam halo found exactly once");
        assert_eq!(seam[0].count(), 50, "seam halo complete");
        // Contiguity: max pairwise x-extent under 3 (unwrapped), not ~32.
        let xs: Vec<f64> = seam[0].particles.iter().map(|p| p.pos[0] as f64).collect();
        let extent = xs.iter().cloned().fold(f64::MIN, f64::max)
            - xs.iter().cloned().fold(f64::MAX, f64::min);
        assert!(extent < 3.0, "unwrapped extent {extent}");
    }

    #[test]
    fn min_size_filter_applies() {
        let box_size = 32.0;
        let all = test_universe(box_size);
        let decomp = CartDecomp::new(4, box_size);
        let world = World::new(4);
        let cfg = FofConfig {
            link_length: 0.45,
            min_size: 55, // only the 80- and 60-particle blobs survive
            overload_width: 4.0,
        };
        let catalogs = world.run(|c| {
            let locals = distribute(&all, &decomp, c.rank());
            parallel_fof(c, &decomp, &locals, &cfg)
        });
        let total: usize = catalogs.iter().map(|c| c.len()).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn timed_run_reports_phases_and_centers() {
        let box_size = 32.0;
        let all = test_universe(box_size);
        let decomp = CartDecomp::new(2, box_size);
        let world = World::new(2);
        let cfg = FofConfig {
            link_length: 0.45,
            min_size: 20,
            overload_width: 4.0,
        };
        let results = world.run(|c| {
            let locals = distribute(&all, &decomp, c.rank());
            fof_and_centers_timed(c, &decomp, &locals, &cfg, &dpp::Serial, 1e-3, usize::MAX)
        });
        let nhalos: usize = results.iter().map(|(cat, _)| cat.len()).sum();
        assert_eq!(nhalos, 4);
        for (cat, timing) in &results {
            assert!(timing.find_seconds >= 0.0 && timing.center_seconds >= 0.0);
            for h in &cat.halos {
                assert!(h.mbp_center.is_some(), "centers computed for all halos");
            }
        }
    }

    #[test]
    fn center_threshold_skips_large_halos() {
        let box_size = 32.0;
        let all = test_universe(box_size);
        let decomp = CartDecomp::new(1, box_size);
        let world = World::new(1);
        let cfg = FofConfig {
            link_length: 0.45,
            min_size: 20,
            overload_width: 4.0,
        };
        let results = world.run(|c| {
            let locals = distribute(&all, &decomp, c.rank());
            fof_and_centers_timed(c, &decomp, &locals, &cfg, &dpp::Serial, 1e-3, 60)
        });
        let cat = &results[0].0;
        for h in &cat.halos {
            if h.count() <= 60 {
                assert!(h.mbp_center.is_some());
            } else {
                assert!(h.mbp_center.is_none(), "large halo must be deferred");
            }
        }
    }
}
