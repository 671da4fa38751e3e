//! Friends-of-friends halo finding (paper §3.3.1).
//!
//! Three interchangeable engines:
//!
//! * [`fof_kdtree_cols`] — the paper's approach: a balanced k-d tree
//!   traversed recursively, using bounding boxes to merge or exclude whole
//!   subtrees at once (non-periodic; the ablation baseline).
//! * A linked-cell engine with two boundary modes: [`fof_grid`] wraps a
//!   periodic box (single-domain catalogs, the in-situ halo finder) and
//!   [`fof_patch`] meshes the points' bounding box with no wrap (a rank's
//!   overload-extended patch in [`crate::parallel_fof`]). Its cells are a
//!   counting sort of the particles, at most `8n` of them, so time and
//!   memory follow `n`, not `box / link`.
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

/// Cells per side of [`fof_grid`]'s mesh for `n ≥ 1` particles: as many as
/// keep a cell at least one linking length wide, capped at `⌊cbrt(8n)⌋` so
/// the cell table never outgrows the particle set (`ncell³ ≤ 8n`). Measured
/// on a 64³ box eight steps in (`box/link` = 320): a side of `cbrt(n)` costs
/// 70 ms, `2·cbrt(n)` 45 ms, the uncapped 320 220 ms.
fn grid_cells_per_side(n: usize, link: f64, box_size: f64) -> usize {
    let cap = (1usize..).take_while(|c| c.pow(3) <= 8 * n).count();
    ((box_size / link).floor() as usize).clamp(1, cap)
}

/// `c + d` on a periodic axis of `ncell` cells, for `d ∈ {-1, 0, 1}`.
#[inline]
fn wrap_cell(c: usize, d: i8, ncell: usize) -> usize {
    match d {
        -1 if c == 0 => ncell - 1,
        -1 => c - 1,
        1 if c + 1 == ncell => 0,
        1 => c + 1,
        _ => c,
    }
}

/// The `(dx, dy)` of the four neighbouring rows (cells sharing `x` and `y`)
/// that come after a cell's own row: with the next cell of the own row, the
/// lexicographically positive half of the 26 neighbour offsets, so every
/// unordered pair of adjacent cells is visited from one side.
const FORWARD_ROWS: [[i8; 2]; 4] = [[0, 1], [1, -1], [1, 0], [1, 1]];

/// How the linked-cell engine treats the edges of its mesh.
#[derive(Debug, Clone, Copy)]
enum Boundary {
    /// A periodic cube of this side: cells wrap, and the pair test measures
    /// the nearest image.
    Periodic(f64),
    /// The points' own bounding box: rows and cells past an edge do not
    /// exist, and the pair test is the k-d tree's `dx² + dy² + dz²`.
    Open,
}

/// The cell mesh: origin, cell width and cell count per axis.
struct Mesh {
    lo: [f64; 3],
    width: [f64; 3],
    dims: [usize; 3],
}

impl Mesh {
    /// [`fof_grid`]'s mesh: `grid_cells_per_side` cells a side from 0.
    fn periodic(n: usize, link: f64, box_size: f64) -> Mesh {
        let ncell = grid_cells_per_side(n, link, box_size);
        Mesh {
            lo: [0.0; 3],
            width: [box_size / ncell as f64; 3],
            dims: [ncell; 3],
        }
    }

    /// [`fof_patch`]'s mesh over the bounding box of the finite coordinates:
    /// per axis, cells a relative 10⁻⁶ wider than `link` — the margin keeps
    /// rounding in the key from putting a linked pair two cells apart — and
    /// wider still, evenly over the axes that have more than one, until the
    /// table holds at most `8n` cells. An axis with no extent (or only
    /// non-finite coordinates) has one cell, as does every axis once the
    /// extent overflows.
    fn open(positions: &[[f64; 3]], link: f64) -> Mesh {
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        for p in positions {
            for d in 0..3 {
                if p[d].is_finite() {
                    lo[d] = lo[d].min(p[d]);
                    hi[d] = hi[d].max(p[d]);
                }
            }
        }
        let lo = lo.map(|v| if v.is_finite() { v } else { 0.0 });
        let extent: [f64; 3] = std::array::from_fn(|d| (hi[d] - lo[d]).max(0.0));
        let cap = 8 * positions.len();
        // `as usize` saturates: ∞ → `usize::MAX`, NaN → 0.
        let dims_for = |h: f64| extent.map(|e| ((e / h) as usize).clamp(1, cap));
        let total = |dims: [usize; 3]| dims.iter().fold(1usize, |a, &c| a.saturating_mul(c));
        let mut h = link * (1.0 + 1e-6);
        if total(dims_for(h)) > cap {
            // The width whose cells over the multi-cell axes number `cap`.
            let multi: Vec<f64> = dims_for(h)
                .iter()
                .zip(extent)
                .filter(|(&c, _)| c > 1)
                .map(|(_, e)| e)
                .collect();
            let log_volume: f64 = multi.iter().map(|e| e.ln()).sum();
            h = h.max(((log_volume - (cap as f64).ln()) / multi.len() as f64).exp());
            while total(dims_for(h)) > cap {
                h *= 1.0 + 1e-6; // a floor rounded up
            }
        }
        let dims = dims_for(h);
        Mesh {
            lo,
            width: std::array::from_fn(|d| extent[d] / dims[d] as f64),
            dims,
        }
    }
}

/// Linked-cell FOF with periodic boundary conditions in a box of side
/// `box_size`. Returns group labels.
///
/// The cells are a counting sort, not a table of lists: one key per
/// particle, one prefix sum, then particle indices and their positions laid
/// out in cell order, so a cell is a contiguous range and memory is O(n)
/// whatever `box_size / link` is (`grid_cells_per_side`). Any mesh whose
/// cells are at least `link` wide offers every pair within `link` to the
/// same periodic distance test, the test alone decides the partition, and
/// [`UnionFind::labels`] numbers a partition by first appearance whatever
/// order its unions came in — so the labels do not depend on the mesh
/// (`conformance::layout`, `fof-grid`).
pub fn fof_grid(positions: &[[f64; 3]], link: f64, box_size: f64) -> Vec<u32> {
    assert!(link > 0.0 && box_size > 0.0);
    assert!(
        link <= box_size / 2.0,
        "linking length {link} too large for box {box_size}"
    );
    let _span = telemetry::span!("halo", "fof_grid", positions.len());
    link_cells(positions, link, Boundary::Periodic(box_size))
}

/// Linked-cell FOF with open boundaries: [`fof_grid`]'s engine on a mesh
/// over the points' bounding box, nothing wrapped, at most `8n` cells
/// whatever the coordinates (non-finite ones included — they link to
/// nothing). The pair test is [`fof_kdtree_cols`]' own
/// `dx² + dy² + dz² ≤ link²`, so the two engines see the same partition and,
/// both numbering it by first appearance, return the same label vector
/// (`conformance::layout`, `fof-patch`).
pub fn fof_patch(positions: &[[f64; 3]], link: f64) -> Vec<u32> {
    assert!(link > 0.0, "linking length {link} must be positive");
    let _span = telemetry::span!("halo", "fof_patch", positions.len());
    link_cells(positions, link, Boundary::Open)
}

/// The linked-cell body behind [`fof_grid`] and [`fof_patch`].
fn link_cells(positions: &[[f64; 3]], link: f64, boundary: Boundary) -> Vec<u32> {
    let n = positions.len();
    if n == 0 {
        return Vec::new();
    }
    let mut uf = UnionFind::new(n);
    let Mesh { lo, width, dims } = match boundary {
        Boundary::Periodic(box_size) => Mesh::periodic(n, link, box_size),
        Boundary::Open => Mesh::open(positions, link),
    };
    let [nx, ny, nz] = dims;
    let ncells = nx * ny * nz;
    telemetry::count!("halo", "fof_cells", ncells);
    let key_of = |p: [f64; 3]| -> usize {
        let mut key = 0;
        for d in 0..3 {
            let x = match boundary {
                Boundary::Periodic(box_size) => p[d].rem_euclid(box_size),
                Boundary::Open => p[d] - lo[d],
            };
            key = key * dims[d] + ((x / width[d]) as usize).min(dims[d] - 1);
        }
        key
    };
    // Counting sort by cell. Counts go in two slots up, so that after the
    // prefix sum `start[k + 1]` is cell `k`'s write cursor and, once every
    // particle is placed, its end: cell `k` is `start[k]..start[k + 1]`.
    // Particles are linked under their sorted slots (neighbours in space are
    // neighbours in the forest), and `slot[i]` maps them back for labeling.
    let mut slot: Vec<u32> = positions.iter().map(|&p| key_of(p) as u32).collect();
    let mut start = vec![0u32; ncells + 2];
    for &k in &slot {
        start[k as usize + 2] += 1;
    }
    for k in 2..start.len() {
        start[k] += start[k - 1];
    }
    let mut sorted = vec![[0.0f64; 3]; n];
    for (i, key) in slot.iter_mut().enumerate() {
        let cursor = &mut start[*key as usize + 1];
        sorted[*cursor as usize] = positions[i];
        *key = *cursor;
        *cursor += 1;
    }
    let cell = |k: usize| start[k] as usize..start[k + 1] as usize;

    let b2 = link * link;
    let pd2 = |a: [f64; 3], b: [f64; 3]| -> f64 {
        let mut s = 0.0;
        for d in 0..3 {
            let mut v = a[d] - b[d];
            if let Boundary::Periodic(box_size) = boundary {
                v = v.abs();
                if v > box_size / 2.0 {
                    v = box_size - v;
                }
            }
            s += v * v;
        }
        s
    };
    let mut link_pairs = |a: std::ops::Range<usize>, b: std::ops::Range<usize>| {
        for i in a {
            for j in b.clone() {
                if pd2(sorted[i], sorted[j]) <= b2 {
                    uf.union(i, j);
                }
            }
        }
    };
    let periodic = matches!(boundary, Boundary::Periodic(_));
    // `c + d` on an axis of `nc` cells: wrapped, or `None` past an edge.
    let step = |c: usize, d: i8, nc: usize| -> Option<usize> {
        if periodic {
            Some(wrap_cell(c, d, nc))
        } else {
            (c as isize + d as isize)
                .try_into()
                .ok()
                .filter(|&c| c < nc)
        }
    };
    // The cells `z − 1, z, z + 1` of a row are adjacent in cell order, so
    // their particles are one run — clipped at the ends of an open row; two
    // where a periodic row wraps, the whole row when it has no more than
    // three cells.
    let z_runs = |cz: usize| -> [std::ops::Range<usize>; 2] {
        if !periodic {
            [cz.saturating_sub(1)..(cz + 2).min(nz), 0..0]
        } else if nz <= 3 {
            [0..nz, 0..0]
        } else if cz == 0 {
            [0..2, nz - 1..nz]
        } else if cz + 1 == nz {
            [cz - 1..nz, 0..1]
        } else {
            [cz - 1..cz + 2, 0..0]
        }
    };
    // Each occupied cell against itself, the next cell of its row and the
    // three-cell runs of the four rows after it (those that exist).
    for cx in 0..nx {
        for cy in 0..ny {
            let row = (cx * ny + cy) * nz;
            if start[row] == start[row + nz] {
                continue;
            }
            let rows = FORWARD_ROWS
                .map(|[dx, dy]| Some((step(cx, dx, nx)? * ny + step(cy, dy, ny)?) * nz));
            for cz in 0..nz {
                let mine = cell(row + cz);
                if mine.is_empty() {
                    continue;
                }
                for i in mine.clone() {
                    link_pairs(i..i + 1, i + 1..mine.end);
                }
                if let Some(next) = step(cz, 1, nz).filter(|&next| next != cz) {
                    link_pairs(mine.clone(), cell(row + next));
                }
                for other in rows.into_iter().flatten() {
                    if other == row {
                        continue; // wrapped back (few cells)
                    }
                    for run in z_runs(cz) {
                        let theirs =
                            start[other + run.start] as usize..start[other + run.end] as usize;
                        link_pairs(mine.clone(), theirs);
                    }
                }
            }
        }
    }
    uf.labels_of(slot.iter().map(|&s| s as usize)).0
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

/// Member lists of the groups with at least `min_size` members, in label
/// order: [`members_by_group`] without a list per field particle (an evolved
/// box is mostly singletons).
pub fn groups_of_at_least(labels: &[u32], min_size: usize) -> Vec<Vec<u32>> {
    let ngroups = labels.iter().map(|&l| l as usize + 1).max().unwrap_or(0);
    let mut sizes = vec![0usize; ngroups];
    for &l in labels {
        sizes[l as usize] += 1;
    }
    // Label → index into `out`, for the groups kept.
    let mut slot = vec![usize::MAX; ngroups];
    let mut out = Vec::new();
    for (l, &size) in sizes.iter().enumerate() {
        if size >= min_size {
            slot[l] = out.len();
            out.push(Vec::with_capacity(size));
        }
    }
    for (i, &l) in labels.iter().enumerate() {
        if let Some(members) = out.get_mut(slot[l as usize]) {
            members.push(i as u32);
        }
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
