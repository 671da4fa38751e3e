//! Friends-of-friends halo finding (paper §3.3.1).
//!
//! Three interchangeable engines:
//!
//! * [`fof_kdtree_cols`] — the paper's approach: a balanced k-d tree
//!   traversed recursively, using bounding boxes to merge or exclude whole
//!   subtrees at once (non-periodic; the parallel driver handles periodicity
//!   through overload regions).
//! * [`fof_grid`] — a linked-cell engine with full periodic wrap, used for
//!   single-domain catalogs and as an independent cross-check.
//! * [`fof_brute`] — O(n²) oracle for tests. All three number groups by
//!   first appearance in input order, so equal partitions are equal label
//!   vectors.

use crate::columns::Coords;
use crate::kdtree::{KdTree, LEAF_SIZE};
use crate::unionfind::UnionFind;

#[inline]
fn dist2(a: [f64; 3], b: [f64; 3]) -> f64 {
    (a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)
}

/// O(n²) reference FOF (non-periodic). Returns group labels.
pub fn fof_brute(positions: &[[f64; 3]], link: f64) -> Vec<u32> {
    let n = positions.len();
    let mut uf = UnionFind::new(n);
    let b2 = link * link;
    for i in 0..n {
        for j in (i + 1)..n {
            if dist2(positions[i], positions[j]) <= b2 {
                uf.union(i, j);
            }
        }
    }
    uf.labels().0
}

/// k-d tree FOF (non-periodic) over packed coordinates: dual-tree traversal
/// with bounding-box pruning and whole-subtree linking. Returns group labels
/// (dense, numbered by first appearance in input order — the same numbering
/// as [`fof_brute`], so the two agree label for label).
///
/// Leaves are gathered once into contiguous stack lanes (bounded by
/// [`LEAF_SIZE`]) so the O(k²) pair loops run over packed `f64` arrays the
/// compiler can vectorize, instead of chasing the tree's index indirection
/// per pair.
pub fn fof_kdtree_cols(coords: &Coords, link: f64) -> Vec<u32> {
    let n = coords.len();
    let mut uf = UnionFind::new(n);
    if n > 0 {
        let tree = KdTree::build_cols(coords, None);
        process_cols(&tree, coords, tree.root(), link, &mut uf);
    }
    uf.labels().0
}

/// A leaf's coordinates gathered into contiguous lanes.
struct LeafLanes {
    x: [f64; LEAF_SIZE],
    y: [f64; LEAF_SIZE],
    z: [f64; LEAF_SIZE],
    len: usize,
}

impl LeafLanes {
    fn gather(coords: &Coords, idx: &[u32]) -> Self {
        debug_assert!(idx.len() <= LEAF_SIZE);
        let (xs, ys, zs) = (coords.xs(), coords.ys(), coords.zs());
        let mut lanes = LeafLanes {
            x: [0.0; LEAF_SIZE],
            y: [0.0; LEAF_SIZE],
            z: [0.0; LEAF_SIZE],
            len: idx.len(),
        };
        for (k, &i) in idx.iter().enumerate() {
            let i = i as usize;
            lanes.x[k] = xs[i];
            lanes.y[k] = ys[i];
            lanes.z[k] = zs[i];
        }
        lanes
    }

    #[inline]
    fn dist2(&self, a: usize, other: &LeafLanes, b: usize) -> f64 {
        (self.x[a] - other.x[b]).powi(2)
            + (self.y[a] - other.y[b]).powi(2)
            + (self.z[a] - other.z[b]).powi(2)
    }
}

/// Recursive per-node processing: resolve children, then link across them.
fn process_cols(tree: &KdTree, coords: &Coords, id: usize, link: f64, uf: &mut UnionFind) {
    let node = tree.node(id);
    match node.children {
        None => {
            let idx = tree.indices(node);
            let lanes = LeafLanes::gather(coords, idx);
            let b2 = link * link;
            for a in 0..lanes.len {
                for b in (a + 1)..lanes.len {
                    if lanes.dist2(a, &lanes, b) <= b2 {
                        uf.union(idx[a] as usize, idx[b] as usize);
                    }
                }
            }
        }
        Some((l, r)) => {
            process_cols(tree, coords, l, link, uf);
            process_cols(tree, coords, r, link, uf);
            connect_cols(tree, coords, l, r, link, uf);
        }
    }
}

/// Link pairs spanning two disjoint subtrees, pruning on box distance.
fn connect_cols(tree: &KdTree, coords: &Coords, a: usize, b: usize, link: f64, uf: &mut UnionFind) {
    let na = tree.node(a);
    let nb = tree.node(b);
    if na.bbox.min_dist2_box(&nb.bbox) > link * link {
        return; // exclusion: no pair can be within the linking length
    }
    match (na.children, nb.children) {
        (None, None) => {
            let b2 = link * link;
            let ia = tree.indices(na);
            let ib = tree.indices(nb);
            let la = LeafLanes::gather(coords, ia);
            let lb = LeafLanes::gather(coords, ib);
            for i in 0..la.len {
                for j in 0..lb.len {
                    if la.dist2(i, &lb, j) <= b2 {
                        uf.union(ia[i] as usize, ib[j] as usize);
                    }
                }
            }
        }
        (Some((l, r)), _) if na.end - na.start >= nb.end - nb.start => {
            connect_cols(tree, coords, l, b, link, uf);
            connect_cols(tree, coords, r, b, link, uf);
        }
        (_, Some((l, r))) => {
            connect_cols(tree, coords, a, l, link, uf);
            connect_cols(tree, coords, a, r, link, uf);
        }
        (Some((l, r)), None) => {
            connect_cols(tree, coords, l, b, link, uf);
            connect_cols(tree, coords, r, b, link, uf);
        }
    }
}

/// Linked-cell FOF with periodic boundary conditions in a box of side
/// `box_size`. Returns group labels.
pub fn fof_grid(positions: &[[f64; 3]], link: f64, box_size: f64) -> Vec<u32> {
    assert!(link > 0.0 && box_size > 0.0);
    assert!(
        link <= box_size / 2.0,
        "linking length {link} too large for box {box_size}"
    );
    let n = positions.len();
    let mut uf = UnionFind::new(n);
    if n == 0 {
        return Vec::new();
    }
    // Cells at least one linking length wide.
    let ncell = ((box_size / link).floor() as usize).clamp(1, 256);
    let cell_w = box_size / ncell as f64;
    let cell_of = |p: [f64; 3]| -> [usize; 3] {
        let mut c = [0usize; 3];
        for d in 0..3 {
            let mut v = (p[d].rem_euclid(box_size) / cell_w) as usize;
            if v >= ncell {
                v = ncell - 1;
            }
            c[d] = v;
        }
        c
    };
    // Bucket particles.
    let mut heads: Vec<Vec<u32>> = vec![Vec::new(); ncell * ncell * ncell];
    for (i, &p) in positions.iter().enumerate() {
        let c = cell_of(p);
        heads[(c[0] * ncell + c[1]) * ncell + c[2]].push(i as u32);
    }
    let b2 = link * link;
    let pd2 = |a: [f64; 3], b: [f64; 3]| -> f64 {
        let mut s = 0.0;
        for d in 0..3 {
            let mut v = (a[d] - b[d]).abs();
            if v > box_size / 2.0 {
                v = box_size - v;
            }
            s += v * v;
        }
        s
    };
    // For each cell, scan itself + 26 neighbors (half to avoid double work).
    for cx in 0..ncell {
        for cy in 0..ncell {
            for cz in 0..ncell {
                let me = (cx * ncell + cy) * ncell + cz;
                let mine = &heads[me];
                // Within-cell pairs.
                for (a, &i) in mine.iter().enumerate() {
                    for &j in &mine[a + 1..] {
                        if pd2(positions[i as usize], positions[j as usize]) <= b2 {
                            uf.union(i as usize, j as usize);
                        }
                    }
                }
                // Cross-cell pairs (each unordered neighbor pair once).
                for dx in -1i64..=1 {
                    for dy in -1i64..=1 {
                        for dz in -1i64..=1 {
                            if (dx, dy, dz) <= (0, 0, 0) {
                                continue; // lexicographic half-shell
                            }
                            let ox = (cx as i64 + dx).rem_euclid(ncell as i64) as usize;
                            let oy = (cy as i64 + dy).rem_euclid(ncell as i64) as usize;
                            let oz = (cz as i64 + dz).rem_euclid(ncell as i64) as usize;
                            let other = (ox * ncell + oy) * ncell + oz;
                            if other == me {
                                continue; // wrapped back (ncell small)
                            }
                            for &i in mine {
                                for &j in &heads[other] {
                                    if pd2(positions[i as usize], positions[j as usize]) <= b2 {
                                        uf.union(i as usize, j as usize);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    uf.labels().0
}

/// Group labels → per-group member lists (groups in label order).
pub fn members_by_group(labels: &[u32]) -> Vec<Vec<u32>> {
    let ngroups = labels.iter().map(|&l| l as usize + 1).max().unwrap_or(0);
    let mut out = vec![Vec::new(); ngroups];
    for (i, &l) in labels.iter().enumerate() {
        out[l as usize].push(i as u32);
    }
    out
}

/// Normalize a labeling so two labelings can be compared for identical
/// partitions regardless of label numbering.
pub fn canonical_partition(labels: &[u32]) -> Vec<Vec<u32>> {
    let mut groups = members_by_group(labels);
    groups.sort_by_key(|g| g.first().copied().unwrap_or(u32::MAX));
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fof_kdtree(positions: &[[f64; 3]], link: f64) -> Vec<u32> {
        fof_kdtree_cols(&Coords::from_rows(positions), link)
    }

    fn blob(center: [f64; 3], n: usize, spread: f64, seed: u64) -> Vec<[f64; 3]> {
        (0..n)
            .map(|i| {
                let t = (seed as f64) * 17.17 + i as f64;
                [
                    center[0] + ((t * 0.618).fract() - 0.5) * spread,
                    center[1] + ((t * 0.414).fract() - 0.5) * spread,
                    center[2] + ((t * 0.732).fract() - 0.5) * spread,
                ]
            })
            .collect()
    }

    #[test]
    fn two_separated_blobs_are_two_groups() {
        let mut pos = blob([10.0, 10.0, 10.0], 50, 1.0, 1);
        pos.extend(blob([30.0, 30.0, 30.0], 30, 1.0, 2));
        let labels = fof_kdtree(&pos, 1.0);
        let groups = members_by_group(&labels);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].len(), 50);
        assert_eq!(groups[1].len(), 30);
    }

    #[test]
    fn chain_links_into_one_group() {
        // Particles spaced 0.9 apart in a line with link 1.0 → one group.
        let pos: Vec<[f64; 3]> = (0..100).map(|i| [i as f64 * 0.9, 0.0, 0.0]).collect();
        let labels = fof_kdtree(&pos, 1.0);
        assert!(labels.iter().all(|&l| l == 0));
        // With link 0.8 every particle is isolated.
        let labels = fof_kdtree(&pos, 0.8);
        let groups = members_by_group(&labels);
        assert_eq!(groups.len(), 100);
    }

    #[test]
    fn kdtree_matches_brute_force() {
        let mut pos = blob([5.0, 5.0, 5.0], 120, 3.0, 3);
        pos.extend(blob([8.0, 5.0, 5.0], 80, 2.5, 4));
        pos.extend(blob([20.0, 20.0, 20.0], 60, 4.0, 5));
        // Label for label, not just the same partition: both engines number
        // groups by first appearance in input order.
        for link in [0.3, 0.7, 1.5] {
            assert_eq!(fof_kdtree(&pos, link), fof_brute(&pos, link), "link={link}");
        }
    }

    #[test]
    fn grid_matches_brute_force_in_interior() {
        // Keep everything far from the boundary so periodic wrap is inert.
        let mut pos = blob([40.0, 40.0, 40.0], 150, 5.0, 6);
        pos.extend(blob([60.0, 60.0, 60.0], 100, 5.0, 7));
        for link in [0.5, 1.0, 2.0] {
            let a = canonical_partition(&fof_grid(&pos, link, 100.0));
            let b = canonical_partition(&fof_brute(&pos, link));
            assert_eq!(a, b, "link={link}");
        }
    }

    #[test]
    fn grid_links_across_periodic_boundary() {
        let pos = vec![
            [0.2, 5.0, 5.0],
            [9.9, 5.0, 5.0], // 0.3 away across the wrap
            [5.0, 5.0, 5.0],
        ];
        let labels = fof_grid(&pos, 0.5, 10.0);
        assert_eq!(labels[0], labels[1], "periodic pair must link");
        assert_ne!(labels[0], labels[2]);
    }

    #[test]
    fn kdtree_does_not_link_across_boundary() {
        // The non-periodic engine must NOT wrap.
        let pos = vec![[0.2, 5.0, 5.0], [9.9, 5.0, 5.0]];
        let labels = fof_kdtree(&pos, 0.5);
        assert_ne!(labels[0], labels[1]);
    }

    #[test]
    fn label_invariance_under_permutation() {
        let pos = {
            let mut p = blob([5.0, 5.0, 5.0], 100, 2.0, 8);
            p.extend(blob([15.0, 15.0, 15.0], 50, 2.0, 9));
            p
        };
        let base = canonical_partition(&fof_kdtree(&pos, 0.8));
        // Reverse the input order; partitions (as index sets mapped back)
        // must be identical.
        let rev: Vec<[f64; 3]> = pos.iter().rev().copied().collect();
        let labels_rev = fof_kdtree(&rev, 0.8);
        let n = pos.len();
        // Map reversed labels back to original indices.
        let mut mapped = vec![0u32; n];
        for (ri, &l) in labels_rev.iter().enumerate() {
            mapped[n - 1 - ri] = l;
        }
        let remapped = canonical_partition(&mapped);
        assert_eq!(base, remapped);
    }

    #[test]
    fn empty_and_single_inputs() {
        assert!(fof_kdtree(&[], 1.0).is_empty());
        assert_eq!(fof_kdtree(&[[0.0; 3]], 1.0), vec![0]);
        assert!(fof_grid(&[], 1.0, 10.0).is_empty());
    }

    #[test]
    fn large_cloud_kdtree_consistency_with_grid() {
        // A denser random cloud in the box interior.
        let mut pos = Vec::new();
        for c in 0..12 {
            pos.extend(blob(
                [
                    20.0 + (c % 3) as f64 * 15.0,
                    20.0 + ((c / 3) % 2) as f64 * 20.0,
                    25.0 + (c / 6) as f64 * 12.0,
                ],
                100,
                6.0,
                c as u64 + 10,
            ));
        }
        let a = canonical_partition(&fof_kdtree(&pos, 1.1));
        let b = canonical_partition(&fof_grid(&pos, 1.1, 100.0));
        assert_eq!(a, b);
    }
}
