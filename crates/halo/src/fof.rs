//! Friends-of-friends halo finding (paper §3.3.1).
//!
//! Three interchangeable engines:
//!
//! * [`fof_kdtree_cols`] — the paper's approach: a balanced k-d tree
//!   traversed recursively, using bounding boxes to merge or exclude whole
//!   subtrees at once (non-periodic; the ablation baseline).
//! * A linked-cell engine, [`fof_cells`], whose axes are each periodic or
//!   open: [`fof_grid`] wraps all three (single-domain catalogs, the in-situ
//!   halo finder), [`fof_patch`] meshes the points' bounding box with no
//!   wrap, and a rank's overload-extended patch in [`crate::parallel_fof`]
//!   is open across the decomposition and periodic along the axes it does
//!   not cut. Its cells are a
//!   linking length wide where the caps allow (128 along z, `n/2` rows);
//!   only the occupied cells are indexed — a bit each in one `u128` per
//!   z-row, a rank per row, a start per cell — and the points are
//!   counting-sorted by their cell's rank, so time and memory follow `n`,
//!   not `box / link`, and the index stays within the `4·(8n + 1)` bytes of
//!   a table of `8n` cells (`halo.fof_index_bytes`).
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

/// Cells per z-row of the mesh at most: a row's occupancy is one `u128`.
const ROW_CELLS: usize = 128;

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

/// Cells per axis over a box of `extent` for `n ≥ 2` points. Each cell is a
/// relative 10⁻⁶ wider than `link` — the margin keeps rounding in the key
/// from putting a linked pair two cells apart — except where a cap widens
/// it: z has at most [`ROW_CELLS`] cells, and the mesh at most `⌊n/2⌋`
/// rows (`(x, y)` columns), past which the cells widen evenly over the
/// multi-cell axes of x and y. The row cap keeps the index (20 bytes a row,
/// 8 a point and 4 an occupied cell) within the `4·(8n + 1)` bytes of a
/// table of `8n` cells, and keys below 2³². An axis
/// with no extent has one cell, as does every capped axis once the extent
/// overflows.
fn cells_per_axis(extent: [f64; 3], link: f64, n: usize) -> [usize; 3] {
    let max_rows = (n / 2).clamp(1, 1 << 25);
    // `as usize` saturates: ∞ → `usize::MAX`, NaN → 0.
    let cells = |e: f64, h: f64, cap: usize| ((e / h) as usize).clamp(1, cap);
    let h = link * (1.0 + 1e-6);
    let nz = cells(extent[2], h, ROW_CELLS);
    let xy = |h: f64| [0, 1].map(|d| cells(extent[d], h, max_rows));
    let rows = |h: f64| xy(h)[0] * xy(h)[1];
    let mut wide = h;
    if rows(h) > max_rows {
        // The width whose cells over the multi-cell axes number `max_rows`.
        let multi: Vec<f64> = xy(h)
            .iter()
            .zip(extent)
            .filter(|(&c, _)| c > 1)
            .map(|(_, e)| e)
            .collect();
        let log_area: f64 = multi.iter().map(|e| e.ln()).sum();
        wide = h.max(((log_area - (max_rows as f64).ln()) / multi.len() as f64).exp());
        while rows(wide) > max_rows {
            wide *= 1.0 + 1e-6; // a floor rounded up
        }
    }
    let [nx, ny] = xy(wide);
    [nx, ny, nz]
}

/// Linked-cell FOF with periodic boundary conditions in a box of side
/// `box_size`. Returns group labels.
///
/// The engine behind this, [`fof_patch`] and [`fof_cells`] meshes the
/// points in cells at least one linking length wide (`cells_per_axis`) and
/// keeps only the occupied cells — a bit each in one `u128` per z-row and
/// the count of occupied cells before each row — then counting-sorts the
/// points by their cell's rank into one run per cell, so memory is O(n)
/// whatever `box_size / link` is. Any mesh whose cells are at least `link`
/// wide offers every pair within `link` to the same periodic distance test,
/// the test alone decides the partition, and [`UnionFind::labels`] numbers a
/// partition by first appearance whatever order its unions came in — so
/// the labels do not depend on the mesh (`conformance::layout`,
/// `fof-grid`).
pub fn fof_grid(positions: &[[f64; 3]], link: f64, box_size: f64) -> Vec<u32> {
    assert!(link > 0.0 && box_size > 0.0);
    assert!(
        link <= box_size / 2.0,
        "linking length {link} too large for box {box_size}"
    );
    let _span = telemetry::span!("halo", "fof_grid", positions.len());
    let b2 = link * link;
    link_cells(positions, link, [Some(box_size); 3], |a, b| {
        let mut s = 0.0;
        for d in 0..3 {
            let mut v = (a[d] - b[d]).abs();
            if v > box_size / 2.0 {
                v = box_size - v;
            }
            s += v * v;
        }
        s <= b2
    })
}

/// Linked-cell FOF with open boundaries: [`fof_cells`] with no axis
/// periodic, on a mesh over the points' bounding box, its index within the
/// `4·(8n + 1)` bytes of a table of `8n` cells whatever the coordinates
/// (non-finite ones included — they link to nothing). With no half side to
/// exceed, the pair test is [`fof_kdtree_cols`]' own `dx² + dy² + dz² ≤
/// link²` (`|Δ|·|Δ| = Δ·Δ`), so the two engines see the same partition and,
/// both numbering it by first appearance, return the same label vector
/// (`conformance::layout`, `fof-patch`).
pub fn fof_patch(positions: &[[f64; 3]], link: f64) -> Vec<u32> {
    let _span = telemetry::span!("halo", "fof_patch", positions.len());
    fof_cells(positions, link, [None; 3])
}

/// Linked-cell FOF with each axis periodic (`Some(side)`: cells wrap over
/// `[0, side)`, and the pair test measures the nearest image,
/// `min(|Δ|, side − |Δ|)`, as [`fof_grid`] does) or open (`None`: the
/// points' extent, nothing wrapped, the pair test `Δ²` as
/// [`fof_kdtree_cols`] does). [`fof_grid`] is the all-periodic case,
/// [`fof_patch`] the all-open one, and a rank's patch in
/// [`crate::parallel_fof`] is open across its neighbours and periodic along
/// the axes the decomposition does not cut.
/// Returns group labels, numbered by first appearance
/// (`conformance::layout`, `fof-axes`).
///
/// [`fof_grid`] hands the engine its own pair test, this one's restricted to
/// the all-periodic case operand for operand: the in-situ finder's mesh then
/// runs an instance with no per-axis lookup in the inner loop (the general
/// test cost it ≈ 5–10 % at 64³).
pub fn fof_cells(positions: &[[f64; 3]], link: f64, periods: [Option<f64>; 3]) -> Vec<u32> {
    assert!(link > 0.0, "linking length {link} must be positive");
    for side in periods.into_iter().flatten() {
        assert!(
            link <= side / 2.0,
            "linking length {link} too large for box {side}"
        );
    }
    let b2 = link * link;
    // On an open axis no `|Δ|` exceeds the half side, and `|Δ|² = Δ²`.
    let half = periods.map(|p| p.map_or(f64::INFINITY, |side| side / 2.0));
    let side = periods.map(|p| p.unwrap_or(0.0));
    link_cells(positions, link, periods, |a, b| {
        let mut s = 0.0;
        for d in 0..3 {
            let mut v = (a[d] - b[d]).abs();
            if v > half[d] {
                v = side[d] - v;
            }
            s += v * v;
        }
        s <= b2
    })
}

/// The linked-cell body behind [`fof_cells`]: every pair in the same or
/// adjacent cells — wrapped along the periodic axes, clipped at the edges
/// of the open ones — that `linked` accepts is united.
fn link_cells(
    positions: &[[f64; 3]],
    link: f64,
    periods: [Option<f64>; 3],
    linked: impl Fn([f64; 3], [f64; 3]) -> bool,
) -> Vec<u32> {
    let n = positions.len();
    if n < 2 {
        return vec![0; n];
    }
    // Open axes mesh the finite points' extent.
    let mut lo = [f64::INFINITY; 3];
    let mut hi = [f64::NEG_INFINITY; 3];
    if periods.contains(&None) {
        for p in positions {
            for d in 0..3 {
                if p[d].is_finite() {
                    lo[d] = lo[d].min(p[d]);
                    hi[d] = hi[d].max(p[d]);
                }
            }
        }
    }
    let lo: [f64; 3] = std::array::from_fn(|d| {
        if periods[d].is_none() && lo[d].is_finite() {
            lo[d]
        } else {
            0.0
        }
    });
    let extent: [f64; 3] =
        std::array::from_fn(|d| periods[d].unwrap_or_else(|| (hi[d] - lo[d]).max(0.0)));
    let dims = cells_per_axis(extent, link, n);
    let [nx, ny, nz] = dims;
    telemetry::count!("halo", "fof_cells", dims.iter().product::<usize>());
    let per_width: [f64; 3] = std::array::from_fn(|d| dims[d] as f64 / extent[d]);
    // Key `(x · ny + y) << 7 | z`: a row's cells are consecutive keys. On
    // a periodic axis `lo` is 0 (`p − 0.0` is `p`, `−0.0` included) and
    // `rem_euclid` the identity inside the box; an open axis never wraps.
    let wraps = periods.map(|p| p.is_some());
    let side = periods.map(|p| p.unwrap_or(f64::INFINITY));
    let key_of = |p: [f64; 3]| -> u32 {
        let mut c = [0; 3];
        for d in 0..3 {
            let mut x = p[d] - lo[d];
            if !(0.0..side[d]).contains(&x) && wraps[d] {
                x = x.rem_euclid(side[d]);
            }
            c[d] = ((x * per_width[d]) as usize).min(dims[d] - 1);
        }
        ((c[0] * ny + c[1]) << 7 | c[2]) as u32
    };

    // Index the occupied cells — bits of their row's `occupied` word,
    // `rank[r]` of them before row `r` — then counting-sort the rows by
    // their cell's rank (`cell[i]`, which first holds row `i`'s key), which
    // orders them by `(key, row)`: occupied cell `k` holds the rows
    // `order[start[k]..start[k + 1]]`. The pair tests read the positions
    // through `order`: a copy gathered in cell order would cost 24 bytes a
    // row and buys no speed on a rank's patch.
    let mut cell: Vec<u32> = positions.iter().map(|&p| key_of(p)).collect();
    let mut occupied = vec![0u128; nx * ny];
    for &key in &cell {
        occupied[key as usize >> 7] |= 1 << (key & 127);
    }
    let mut rank = Vec::with_capacity(occupied.len());
    let mut cells = 0;
    for bits in &occupied {
        rank.push(cells);
        cells += bits.count_ones();
    }
    // Counts go in two slots up, so that after the prefix sum
    // `start[k + 1]` is cell `k`'s write cursor and, once every row is
    // placed, its end.
    let mut start = vec![0u32; cells as usize + 2];
    for key in &mut cell {
        let row = *key as usize >> 7;
        *key = rank[row] + (occupied[row] & ((1 << (*key & 127)) - 1)).count_ones();
        start[*key as usize + 2] += 1;
    }
    for k in 2..start.len() {
        start[k] += start[k - 1];
    }
    let mut order = vec![0u32; n];
    for (i, &k) in cell.iter().enumerate() {
        let cursor = &mut start[k as usize + 1];
        order[*cursor as usize] = i as u32;
        *cursor += 1;
    }
    telemetry::count!(
        "halo",
        "fof_index_bytes",
        4 * (cell.len() + order.len() + rank.len() + start.len()) + 16 * occupied.len()
    );
    drop(cell);

    // Each occupied cell against itself, the next cell of its row and the
    // three-cell z-runs of the four `FORWARD_ROWS` — wrapped on the
    // periodic axes, clipped at the edges of the open ones. The runs are
    // found a row at a time: one mask of a row's cells with an occupied
    // neighbour in each forward row, and a rank lookup only for the cells it
    // holds.
    let wrap_z = wraps[2];
    let mut uf = UnionFind::new(n);
    // `count` occupied cells from rank `k` on are one run of `order`.
    let run = |k: usize, count: usize| start[k] as usize..start[k + count] as usize;
    let mut link_pairs = |a: std::ops::Range<usize>, b: std::ops::Range<usize>| {
        let theirs = &order[b.clone()];
        for i in a {
            let oi = order[i] as usize;
            let p = positions[oi];
            for &oj in theirs {
                if linked(p, positions[oj as usize]) {
                    uf.union(oi, oj as usize);
                }
            }
        }
    };
    for k in 0..start.len() - 2 {
        let mine = run(k, 1);
        for i in mine.clone() {
            link_pairs(i..i + 1, i + 1..mine.end);
        }
    }
    // `c + d` on an axis of `nc` cells: wrapped, or `None` past an edge.
    let step = |c: usize, d: i8, nc: usize, wraps: bool| -> Option<usize> {
        if wraps {
            Some(wrap_cell(c, d, nc))
        } else {
            (c as isize + d as isize)
                .try_into()
                .ok()
                .filter(|&c| c < nc)
        }
    };
    let last: u128 = 1 << (nz - 1);
    // The cells of a row within one cell in z of an occupied one.
    let near = |bits: u128| -> u128 {
        let mut near = bits | bits << 1 | bits >> 1;
        if wrap_z && bits & 1 != 0 {
            near |= last;
        }
        if wrap_z && bits & last != 0 {
            near |= 1;
        }
        near
    };
    for cx in 0..nx {
        for cy in 0..ny {
            let row = cx * ny + cy;
            let bits = occupied[row];
            if bits == 0 {
                continue;
            }
            // Cells followed by an occupied cell in z; on a periodic row
            // of more than two, the last one wraps to the first.
            let wrap = wrap_z && nz > 2 && bits & 1 != 0 && bits & last != 0;
            let mut any = bits & bits >> 1 | if wrap { last } else { 0 };
            let mut partners = [Partner::default(); 4];
            let mut np = 0;
            for [dx, dy] in FORWARD_ROWS {
                let (Some(ox), Some(oy)) = (step(cx, dx, nx, wraps[0]), step(cy, dy, ny, wraps[1]))
                else {
                    continue;
                };
                let other = ox * ny + oy;
                let hits = bits & near(occupied[other]);
                if other != row && hits != 0 {
                    partners[np] = Partner {
                        bits: occupied[other],
                        first: rank[other] as usize,
                        hits,
                    };
                    np += 1;
                    any |= hits;
                }
            }
            let k0 = rank[row] as usize;
            while any != 0 {
                let cz = any.trailing_zeros() as usize;
                any &= any - 1;
                let bit = 1u128 << cz;
                let k = k0 + (bits & (bit - 1)).count_ones() as usize;
                let mine = run(k, 1);
                if bits & bit << 1 != 0 {
                    link_pairs(mine.clone(), run(k + 1, 1));
                }
                if wrap && cz == nz - 1 {
                    link_pairs(mine.clone(), run(k0, 1));
                }
                for p in &partners[..np] {
                    if p.hits & bit == 0 {
                        continue;
                    }
                    // Cells `cz − 1 ..= cz + 1` (the last past the row's
                    // end is never occupied), then the wrapped third.
                    let lo = cz.saturating_sub(1);
                    let window = p.bits >> lo & if cz == 0 { 0b11 } else { 0b111 };
                    if window != 0 {
                        let at = p.first + (p.bits & ((1 << lo) - 1)).count_ones() as usize;
                        link_pairs(mine.clone(), run(at, window.count_ones() as usize));
                    }
                    if wrap_z && cz == 0 && p.bits & last != 0 {
                        let end = p.first + p.bits.count_ones() as usize;
                        link_pairs(mine.clone(), run(end - 1, 1));
                    }
                    if wrap_z && cz == nz - 1 && p.bits & 1 != 0 {
                        link_pairs(mine.clone(), run(p.first, 1));
                    }
                }
            }
        }
    }
    drop((occupied, rank, start, order));
    uf.labels().0
}

/// A forward row of [`link_cells`]' current row.
#[derive(Clone, Copy, Default)]
struct Partner {
    /// Its occupancy.
    bits: u128,
    /// The rank of its first occupied cell.
    first: usize,
    /// The current row's cells with an occupied neighbour in it.
    hits: u128,
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
