//! Property tests for the message-passing layer and the domain
//! decomposition.

use comm::{exchange_overload, redistribute, CartDecomp, HasPosition, World};
use proptest::prelude::*;

/// The definition `overload_targets` enumerates: all 26 neighbour offsets in
/// ascending `(dx, dy, dz)` order, a neighbour holding the point iff it is
/// within `width` of the shared face on every axis the offset steps along,
/// each rank kept where it is first seen, the owner never.
fn overload_targets_def(d: &CartDecomp, pos: [f64; 3], width: f64) -> Vec<usize> {
    let p = d.wrap(pos);
    let owner = d.owner_of(p);
    let oc = d.coords_of(owner);
    let (lo, hi) = d.local_bounds(owner);
    let mut out = Vec::new();
    for dx in -1isize..=1 {
        for dy in -1isize..=1 {
            for dz in -1isize..=1 {
                let off = [dx, dy, dz];
                if off == [0; 3] {
                    continue;
                }
                let inside = (0..3).all(|a| match off[a] {
                    1 => p[a] >= hi[a] - width,
                    -1 => p[a] < lo[a] + width,
                    _ => true,
                });
                let r = d.rank_of(std::array::from_fn(|a| oc[a] as isize + off[a]));
                if inside && r != owner && !out.contains(&r) {
                    out.push(r);
                }
            }
        }
    }
    out
}

/// A coordinate on axis `a` of `d` picked by `kind`: anywhere, on a block
/// face, exactly `width` inside a face (either face) or just short of it, or
/// on the box side itself (which wraps to 0).
fn special_coord(d: &CartDecomp, a: usize, width: f64, kind: u8, frac: f64) -> f64 {
    let l = d.box_size();
    let w = l / d.dims()[a] as f64;
    let block = (frac * d.dims()[a] as f64)
        .floor()
        .min(d.dims()[a] as f64 - 1.0);
    let (lo, hi) = (block * w, (block + 1.0) * w);
    match kind {
        0 => frac * l,
        1 => lo,
        2 => hi - width,
        3 => lo + width,
        4 => l,
        _ => (hi - width).next_down(),
    }
}

/// A point and its index, so a ghost says which point it copies.
#[derive(Debug, Clone, Copy)]
struct Indexed([f64; 3], usize);

impl HasPosition for Indexed {
    fn position(&self) -> [f64; 3] {
        self.0
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn alltoallv_conserves_every_message(nranks in 1usize..6, seed in any::<u64>()) {
        let world = World::new(nranks);
        let received = world.run(|c| {
            // Rank r sends to d the values tagged (r, d, k).
            let sends: Vec<Vec<(usize, usize, u64)>> = (0..nranks)
                .map(|d| {
                    let count = ((seed >> (c.rank() * 3 + d)) % 5) as usize;
                    (0..count).map(|k| (c.rank(), d, k as u64)).collect()
                })
                .collect();
            c.alltoallv(sends)
        });
        // Every message arrived exactly where addressed.
        for (dst, bufs) in received.iter().enumerate() {
            for (src, buf) in bufs.iter().enumerate() {
                for &(s, d, _) in buf {
                    prop_assert_eq!(s, src);
                    prop_assert_eq!(d, dst);
                }
                let expect = ((seed >> (src * 3 + dst)) % 5) as usize;
                prop_assert_eq!(buf.len(), expect);
            }
        }
    }

    #[test]
    fn redistribute_conserves_and_homes_particles(
        nranks in 1usize..9,
        positions in proptest::collection::vec(
            (0.0f64..64.0, 0.0f64..64.0, 0.0f64..64.0).prop_map(|(x, y, z)| [x, y, z]),
            0..150
        )
    ) {
        let decomp = CartDecomp::new(nranks, 64.0);
        let world = World::new(nranks);
        let per_rank = world.run(|c| {
            // Round-robin initial ownership regardless of position.
            let mine: Vec<[f64; 3]> = positions
                .iter()
                .enumerate()
                .filter(|(i, _)| i % nranks == c.rank())
                .map(|(_, p)| *p)
                .collect();
            let homed = redistribute(c, &decomp, mine);
            for p in &homed {
                assert_eq!(decomp.owner_of(*p), c.rank());
            }
            homed.len()
        });
        prop_assert_eq!(per_rank.iter().sum::<usize>(), positions.len());
    }

    #[test]
    fn overload_exchange_replicates_exactly_the_shell(
        nranks in 1usize..9,
        positions in proptest::collection::vec(
            (0.0f64..32.0, 0.0f64..32.0, 0.0f64..32.0).prop_map(|(x, y, z)| [x, y, z]),
            0..120
        )
    ) {
        let decomp = CartDecomp::new(nranks, 32.0);
        let width = (2.0f64).min(decomp.min_block_width());
        let world = World::new(nranks);
        let ghost_counts = world.run(|c| {
            let mine: Vec<[f64; 3]> = positions
                .iter()
                .filter(|p| decomp.owner_of(**p) == c.rank())
                .copied()
                .collect();
            exchange_overload(c, &decomp, width, &mine).len()
        });
        // Total ghosts across ranks = total replication count predicted by
        // geometry.
        let expect: usize = positions
            .iter()
            .map(|p| decomp.overload_targets(*p, width).len())
            .sum();
        prop_assert_eq!(ghost_counts.iter().sum::<usize>(), expect);
    }

    #[test]
    fn overload_targets_equal_the_26_offset_definition(
        dims in (1usize..5, 1usize..5, 1usize..5),
        width_pick in (0u8..4, 0.0f64..1.0),
        coords in proptest::collection::vec(
            ((0u8..6, 0.0f64..1.0), (0u8..6, 0.0f64..1.0), (0u8..6, 0.0f64..1.0)),
            1..40
        )
    ) {
        let d = CartDecomp::with_dims([dims.0, dims.1, dims.2], 24.0);
        // The widest shell allowed, no shell at all, or anything between.
        let width = d.min_block_width() * match width_pick.0 {
            0 => 1.0,
            1 => 0.0,
            _ => width_pick.1,
        };
        for ((kx, fx), (ky, fy), (kz, fz)) in coords {
            let pos = [
                special_coord(&d, 0, width, kx, fx),
                special_coord(&d, 1, width, ky, fy),
                special_coord(&d, 2, width, kz, fz),
            ];
            prop_assert_eq!(
                d.overload_targets(pos, width).to_vec(),
                overload_targets_def(&d, pos, width),
                "pos {:?} width {}", pos, width
            );
        }
    }

    /// `exchange_overload` sends every point (owned by where `owner_of` puts
    /// it) to the ranks of the 26-offset definition, points exactly at
    /// `lo + width` (not within the low face's shell: `<`) and at
    /// `hi − width` (within the high one's: `>=`) and one ulp short of them
    /// included, in boxes whose block faces are inexact (`1/3` of 1 or of
    /// 0.7): each rank receives, source by source in rank order, the points
    /// it is a target of, in the source's order.
    #[test]
    fn exchange_overload_targets_equal_the_26_offset_definition(
        dims in (1usize..4, 1usize..4, 1usize..4),
        box_size in prop_oneof![Just(24.0f64), Just(1.0), Just(0.7)],
        width_pick in (0u8..4, 0.0f64..1.0),
        coords in proptest::collection::vec(
            ((0u8..6, 0.0f64..1.0), (0u8..6, 0.0f64..1.0), (0u8..6, 0.0f64..1.0)),
            1..60
        )
    ) {
        let d = CartDecomp::with_dims([dims.0, dims.1, dims.2], box_size);
        let width = d.min_block_width() * match width_pick.0 {
            0 => 1.0,
            1 => 0.0,
            _ => width_pick.1,
        };
        let points: Vec<Indexed> = coords
            .into_iter()
            .enumerate()
            .map(|(i, ((kx, fx), (ky, fy), (kz, fz)))| {
                let pos = [
                    special_coord(&d, 0, width, kx, fx),
                    special_coord(&d, 1, width, ky, fy),
                    special_coord(&d, 2, width, kz, fz),
                ];
                Indexed(pos, i)
            })
            .collect();
        let nranks = d.nranks();
        let received = World::new(nranks).run(|c| {
            let mine: Vec<Indexed> = points
                .iter()
                .filter(|p| d.owner_of(p.0) == c.rank())
                .copied()
                .collect();
            let ghosts = exchange_overload(c, &d, width, &mine);
            ghosts.iter().map(|g| g.1).collect::<Vec<_>>()
        });
        for (rank, got) in received.iter().enumerate() {
            let mut expect = Vec::new();
            for src in (0..nranks).filter(|&s| s != rank) {
                for p in points.iter().filter(|p| d.owner_of(p.0) == src) {
                    if overload_targets_def(&d, p.0, width).contains(&rank) {
                        expect.push(p.1);
                    }
                }
            }
            prop_assert_eq!(got, &expect, "rank {} width {}", rank, width);
        }
    }

    #[test]
    fn owner_partition_covers_box(nranks in 1usize..20, px in 0.0f64..100.0, py in 0.0f64..100.0, pz in 0.0f64..100.0) {
        let decomp = CartDecomp::new(nranks, 100.0);
        let owner = decomp.owner_of([px, py, pz]);
        prop_assert!(owner < decomp.nranks());
        // The owner's bounds really contain the point.
        let (lo, hi) = decomp.local_bounds(owner);
        for d in 0..3 {
            let x = [px, py, pz][d];
            prop_assert!(x >= lo[d] - 1e-9 && x < hi[d] + 1e-9);
        }
    }
}
