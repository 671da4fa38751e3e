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
//! The patch holds each particle once: the locals, then the ghosts
//! [`exchange_overload`] brings, unwrapped next to the block. It is linked by
//! the cell engine ([`fof_cells`]) open across the decomposition's cuts and
//! periodic along the axes with a single block
//! ([`CartDecomp::single_block_periods`]), where the box wraps onto the rank
//! itself; there the pair test is [`crate::fof_grid`]'s nearest image
//! (`conformance::layout`, `fof-axes`). An owned halo's members are then
//! moved, on those axes, to the image nearest its minimum-tag particle.

use crate::catalog::{Halo, HaloCatalog};
use crate::fof::{fof_cells, groups_of_at_least};
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
/// [`parallel_fof`] links them (with [`CartDecomp::single_block_periods`]):
/// the locals, then the ghosts [`exchange_overload`] brings, unwrapped next
/// to the block. Collective: every rank of `comm` must call it.
pub fn extended_patch(
    comm: &Communicator,
    decomp: &CartDecomp,
    locals: &[Particle],
    width: f64,
) -> Vec<[f64; 3]> {
    let ghosts = exchange_overload(comm, decomp, width, locals);
    Patch::build(decomp, comm.rank(), locals, ghosts).positions
}

/// A rank's extended patch: one row per particle, the locals then the
/// ghosts.
struct Patch<'a> {
    locals: &'a [Particle],
    ghosts: Vec<Particle>,
    /// Linking coordinates in `f64`, the ghosts unwrapped exactly (±L in
    /// `f64` is lossless), so the distributed partition is the single-domain
    /// periodic one.
    positions: Vec<[f64; 3]>,
}

impl<'a> Patch<'a> {
    fn build(
        decomp: &CartDecomp,
        rank: usize,
        locals: &'a [Particle],
        ghosts: Vec<Particle>,
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
        let mut positions = Vec::with_capacity(locals.len() + ghosts.len());
        positions.extend(locals.iter().map(|p| p.pos_f64()));
        positions.extend(ghosts.iter().map(|g| unwrap(g.pos_f64())));
        Patch {
            locals,
            ghosts,
            positions,
        }
    }

    fn len(&self) -> usize {
        self.positions.len()
    }

    /// The particle of row `row`.
    fn particle(&self, row: usize) -> &Particle {
        self.locals
            .get(row)
            .unwrap_or_else(|| &self.ghosts[row - self.locals.len()])
    }

    /// Row `row` as a member of the halo whose minimum-tag particle is row
    /// `anchor`: on each periodic axis, the image nearest the anchor's
    /// (`(x ± L) as f32`, the one rounding a copy shifted by ±L in `f64`
    /// takes); a ghost elsewhere at its unwrapped position rounded to `f32`
    /// (on the axes no unwrap touched, `f32 → f64 → f32` is the identity).
    fn member(&self, row: usize, anchor: usize, periods: [Option<f64>; 3]) -> Particle {
        let mut p = *self.particle(row);
        let q = self.positions[row];
        let a = self.positions[anchor];
        let is_ghost = row >= self.locals.len();
        for d in 0..3 {
            let x = match periods[d] {
                Some(l) if q[d] - a[d] > l / 2.0 => q[d] - l,
                Some(l) if q[d] - a[d] < -l / 2.0 => q[d] + l,
                _ if is_ghost => q[d],
                _ => continue,
            };
            p.pos[d] = x as f32;
        }
        p
    }
}

/// [`parallel_fof`] plus the size of the extended patch it linked (locals
/// and ghosts): the rank's identification work.
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
        Patch::build(decomp, rank, locals, ghosts)
    };
    telemetry::count!("halo", "patch_particles", patch.len());

    // Serial FOF on the extended patch: open where the shell covers the
    // seams, periodic along the axes with a single block.
    let periods = decomp.single_block_periods();
    let labels = {
        let _span = telemetry::span!("halo", "link", rank);
        fof_cells(&patch.positions, cfg.link_length, periods)
    };

    let _span = telemetry::span!("halo", "catalog", rank);
    let mut catalog = HaloCatalog::new();
    for members in groups_of_at_least(&labels, cfg.min_size) {
        // Ownership: the halo's minimum tag must be one of this rank's
        // *local* particles (not a ghost). Exactly one rank satisfies this,
        // so the union over ranks is duplicate-free.
        let anchor = members
            .iter()
            .map(|&i| i as usize)
            .min_by_key(|&i| patch.particle(i).tag)
            .expect("non-empty group");
        if anchor < locals.len() {
            let mut parts: Vec<Particle> = members
                .iter()
                .map(|&i| patch.member(i as usize, anchor, periods))
                .collect();
            parts.sort_by_key(|p| p.tag);
            catalog.halos.push(Halo::from_particles(parts));
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
    /// Rows linked by the identification: the extended patch's locals and
    /// the ghosts the overload exchange delivered, each particle once (the
    /// axes with a single block wrap inside the cell engine, not as rows).
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
    fn seam_halo_members_take_the_single_domain_bits() {
        // The x = 0.2 blob straddles a seam that one rank wraps in its cell
        // engine and two or four ranks cover with the overload shell; the
        // z = 0.2 blob one that 1, 2 and 4 ranks wrap and 8 cover. Either
        // way every member must come out at the image nearest its halo's
        // minimum-tag member, with the bits of the single-domain catalog.
        let box_size = 32.0;
        let link = 0.45;
        let mut all = test_universe(box_size);
        all.extend(blob([10.0, 25.0, 0.2], 50, 1.0, 4000, box_size));
        let positions: Vec<[f64; 3]> = all.iter().map(|p| p.pos_f64()).collect();
        let labels = fof_grid(&positions, link, box_size);
        type Members = Vec<(u64, [u32; 3])>;
        // The single-domain periodic halo of the blob tagged `tags`, each
        // member at whichever of `x − L`, `x`, `x + L` lies nearest the
        // minimum-tag member, rounded to `f32`.
        let reference = |tags: &std::ops::Range<u64>| -> Members {
            let rows: Vec<usize> = (0..all.len())
                .filter(|&i| tags.contains(&all[i].tag))
                .collect();
            let label = labels[rows[0]];
            assert_eq!(
                labels.iter().filter(|&&l| l == label).count(),
                rows.len(),
                "blob {tags:?} is one halo of its own"
            );
            let anchor = positions[*rows.iter().min_by_key(|&&i| all[i].tag).unwrap()];
            let mut moved = 0;
            let mut members: Members = rows
                .iter()
                .map(|&i| {
                    let bits = std::array::from_fn(|d| {
                        let x = positions[i][d];
                        let near = [x - box_size, x, x + box_size]
                            .into_iter()
                            .min_by(|u, v| (u - anchor[d]).abs().total_cmp(&(v - anchor[d]).abs()))
                            .unwrap();
                        moved += usize::from(near != x);
                        (near as f32).to_bits()
                    });
                    (all[i].tag, bits)
                })
                .collect();
            assert!(moved > 0, "blob {tags:?} straddles its seam");
            members.sort();
            members
        };
        let seams = [2000..2050, 4000..4050];
        let expect: Vec<Members> = seams.iter().map(reference).collect();
        let cfg = FofConfig {
            link_length: link,
            min_size: 20,
            overload_width: 4.0,
        };
        for nranks in [1usize, 2, 4, 8] {
            let decomp = CartDecomp::new(nranks, box_size);
            let catalogs = World::new(nranks).run(|c| {
                let locals = distribute(&all, &decomp, c.rank());
                parallel_fof(c, &decomp, &locals, &cfg)
            });
            for (tags, expect) in seams.iter().zip(&expect) {
                let found: Vec<Members> = catalogs
                    .iter()
                    .flat_map(|c| &c.halos)
                    .filter(|h| tags.contains(&h.id))
                    .map(|h| {
                        let parts = h.particles.iter().map(|p| (p.tag, p.pos.map(f32::to_bits)));
                        parts.collect()
                    })
                    .collect();
                assert_eq!(
                    found,
                    std::slice::from_ref(expect),
                    "nranks={nranks} blob {tags:?}"
                );
            }
        }
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
