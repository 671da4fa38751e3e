//! 3-D Cartesian domain decomposition with periodic overload regions.
//!
//! HACC distributes particles across ranks by spatial sub-volumes and
//! replicates a shell of "overload" particles from each face/edge/corner
//! neighbor so that every FOF halo is found *in its entirety* by at least one
//! rank (paper §3.3.1). [`exchange_overload`] reproduces that replication and
//! [`redistribute`] the post-read-in particle distribution step of the
//! off-line workflows.

use crate::world::Communicator;

/// Types that expose a spatial position inside the periodic box.
pub trait HasPosition {
    /// Position in `[0, box_size)³`.
    fn position(&self) -> [f64; 3];
}

impl HasPosition for [f64; 3] {
    fn position(&self) -> [f64; 3] {
        *self
    }
}

/// A 3-D block decomposition of a periodic box over `nranks` ranks.
#[derive(Debug, Clone, PartialEq)]
pub struct CartDecomp {
    dims: [usize; 3],
    box_size: f64,
}

/// Factor `n` into three factors as close to cubic as possible.
fn balanced_dims(n: usize) -> [usize; 3] {
    let mut best = [n, 1, 1];
    let mut best_score = usize::MAX;
    let mut a = 1;
    while a * a * a <= n {
        if n.is_multiple_of(a) {
            let m = n / a;
            let mut b = a;
            while b * b <= m {
                if m.is_multiple_of(b) {
                    let c = m / b;
                    // a <= b <= c; imbalance score = c - a.
                    let score = c - a;
                    if score < best_score {
                        best_score = score;
                        best = [c, b, a]; // largest dim first: x varies slowest
                    }
                }
                b += 1;
            }
        }
        a += 1;
    }
    best
}

impl CartDecomp {
    /// Decompose a periodic box of side `box_size` over `nranks` ranks with
    /// near-cubic blocks.
    pub fn new(nranks: usize, box_size: f64) -> Self {
        assert!(nranks > 0, "decomposition needs at least one rank");
        assert!(box_size > 0.0, "box size must be positive");
        CartDecomp {
            dims: balanced_dims(nranks),
            box_size,
        }
    }

    /// Decompose with explicit grid dimensions.
    pub fn with_dims(dims: [usize; 3], box_size: f64) -> Self {
        assert!(dims.iter().all(|&d| d > 0), "all dims must be positive");
        assert!(box_size > 0.0);
        CartDecomp { dims, box_size }
    }

    /// Rank-grid dimensions `[dx, dy, dz]`.
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Total number of ranks.
    pub fn nranks(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// Periodic box side length.
    pub fn box_size(&self) -> f64 {
        self.box_size
    }

    /// Rank-grid coordinates of `rank` (x slowest).
    pub fn coords_of(&self, rank: usize) -> [usize; 3] {
        assert!(rank < self.nranks());
        let [_, dy, dz] = self.dims;
        [rank / (dy * dz), (rank / dz) % dy, rank % dz]
    }

    /// Rank id of grid coordinates (taken modulo the grid, so callers can pass
    /// neighbor offsets directly).
    pub fn rank_of(&self, coords: [isize; 3]) -> usize {
        let [dx, dy, dz] = self.dims;
        let wrap = |c: isize, d: usize| -> usize { c.rem_euclid(d as isize) as usize };
        let (x, y, z) = (
            wrap(coords[0], dx),
            wrap(coords[1], dy),
            wrap(coords[2], dz),
        );
        (x * dy + y) * dz + z
    }

    /// `[lo, hi)` bounds of `rank`'s block per axis.
    pub fn local_bounds(&self, rank: usize) -> ([f64; 3], [f64; 3]) {
        self.block_bounds(self.coords_of(rank))
    }

    /// `[lo, hi)` bounds of the block at grid coordinates `c`.
    fn block_bounds(&self, c: [usize; 3]) -> ([f64; 3], [f64; 3]) {
        let mut lo = [0.0; 3];
        let mut hi = [0.0; 3];
        for d in 0..3 {
            let w = self.box_size / self.dims[d] as f64;
            lo[d] = c[d] as f64 * w;
            hi[d] = (c[d] + 1) as f64 * w;
        }
        (lo, hi)
    }

    /// Wrap a position into `[0, box_size)` per axis.
    pub fn wrap(&self, mut pos: [f64; 3]) -> [f64; 3] {
        for p in &mut pos {
            // Inside the box (`−0.0` included) `rem_euclid` is the identity:
            // skip its `fmod`, the bulk of a per-particle owner lookup.
            if (0.0..self.box_size).contains(p) {
                continue;
            }
            *p = p.rem_euclid(self.box_size);
            // rem_euclid of a tiny negative can return box_size exactly.
            if *p >= self.box_size {
                *p = 0.0;
            }
        }
        pos
    }

    /// The rank whose block contains `pos` (after periodic wrapping).
    pub fn owner_of(&self, pos: [f64; 3]) -> usize {
        self.rank_at(self.block_of(self.wrap(pos)))
    }

    /// Grid coordinates of the block holding a wrapped position (NaN lands
    /// in block 0).
    fn block_of(&self, p: [f64; 3]) -> [usize; 3] {
        std::array::from_fn(|d| {
            let w = self.box_size / self.dims[d] as f64;
            ((p[d] / w) as usize).min(self.dims[d] - 1)
        })
    }

    /// [`rank_of`](Self::rank_of) for coordinates already on the grid: no
    /// wrapping, so no integer division.
    fn rank_at(&self, c: [usize; 3]) -> usize {
        (c[0] * self.dims[1] + c[1]) * self.dims[2] + c[2]
    }

    /// Per axis, the box side where the decomposition leaves a single block
    /// (the box wraps there onto the block itself, so no neighbour's shell
    /// covers the seam) and `None` where it cuts the box.
    pub fn single_block_periods(&self) -> [Option<f64>; 3] {
        self.dims.map(|n| (n == 1).then_some(self.box_size))
    }

    /// Minimum block width over all axes (upper bound for overload width).
    pub fn min_block_width(&self) -> f64 {
        (0..3)
            .map(|d| self.box_size / self.dims[d] as f64)
            .fold(f64::INFINITY, f64::min)
    }

    /// The set of ranks (excluding the owner) whose overload region of width
    /// `width` contains `pos`, in ascending neighbour offset `(dx, dy, dz)`
    /// order, each rank where its first offset puts it.
    ///
    /// A neighbour at offset `off` holds the point iff, on every axis where
    /// `off` is nonzero, the point is within `width` of the shared face — so
    /// each axis admits the steps `0`, `−1` near its low face and `+1` near
    /// its high one, and only offsets built from admitted steps are visited:
    /// an interior point costs one offset, not 26.
    pub fn overload_targets(&self, pos: [f64; 3], width: f64) -> OverloadTargets {
        self.check_overload_width(width);
        let p = self.wrap(pos);
        let oc = self.block_of(p);
        let (lo, hi) = self.block_bounds(oc);
        self.targets_past(oc, Faces::new(lo, hi, width).of(p))
    }

    /// An overload shell wider than a block would reach past its neighbours.
    fn check_overload_width(&self, width: f64) {
        assert!(
            width <= self.min_block_width(),
            "overload width {width} exceeds smallest block width {}",
            self.min_block_width()
        );
    }

    /// The ranks past the faces of block `oc` that `faces` names (bit `2d`:
    /// within the width of the low face of axis `d`, bit `2d + 1`: of the
    /// high one), as [`overload_targets`](Self::overload_targets) lists them.
    fn targets_past(&self, oc: [usize; 3], faces: usize) -> OverloadTargets {
        let owner = self.rank_at(oc);
        // The admitted steps on axis `d`, ascending (0 is always one).
        let steps = |d: usize| {
            let first = if faces >> (2 * d) & 1 != 0 { -1 } else { 0 };
            let last = if faces >> (2 * d + 1) & 1 != 0 { 1 } else { 0 };
            first..=last
        };
        // `c + step` on a periodic axis of `n` blocks.
        let neighbour = |c: usize, step: i8, n: usize| match step {
            -1 if c == 0 => n - 1,
            -1 => c - 1,
            1 if c + 1 == n => 0,
            1 => c + 1,
            _ => c,
        };
        let mut out = OverloadTargets {
            ranks: [0; 26],
            len: 0,
        };
        for dx in steps(0) {
            for dy in steps(1) {
                for dz in steps(2) {
                    if (dx, dy, dz) == (0, 0, 0) {
                        continue;
                    }
                    let r = self.rank_at([
                        neighbour(oc[0], dx, self.dims[0]),
                        neighbour(oc[1], dy, self.dims[1]),
                        neighbour(oc[2], dz, self.dims[2]),
                    ]);
                    if r != owner && !out.contains(&r) {
                        out.ranks[out.len] = r;
                        out.len += 1;
                    }
                }
            }
        }
        out
    }
}

/// A block's overload thresholds: a point is within `width` of the low face
/// of axis `d` when below `lo[d] + width` and of the high one from
/// `hi[d] − width` on.
struct Faces {
    below: [f64; 3],
    from: [f64; 3],
}

impl Faces {
    fn new(lo: [f64; 3], hi: [f64; 3], width: f64) -> Self {
        Faces {
            below: std::array::from_fn(|d| lo[d] + width),
            from: std::array::from_fn(|d| hi[d] - width),
        }
    }

    /// The faces `p` lies within the width of, as the bits
    /// [`CartDecomp::targets_past`] reads.
    #[inline]
    fn of(&self, p: [f64; 3]) -> usize {
        let mut faces = 0;
        for d in 0..3 {
            faces |= usize::from(p[d] < self.below[d]) << (2 * d);
            faces |= usize::from(p[d] >= self.from[d]) << (2 * d + 1);
        }
        faces
    }
}

/// The ranks [`CartDecomp::overload_targets`] names, held inline (a point has
/// at most 26 neighbours), so asking costs no allocation. Derefs to the
/// slice of ranks.
#[derive(Debug, Clone, Copy)]
pub struct OverloadTargets {
    ranks: [usize; 26],
    len: usize,
}

impl std::ops::Deref for OverloadTargets {
    type Target = [usize];
    fn deref(&self) -> &[usize] {
        &self.ranks[..self.len]
    }
}

/// Replicate boundary particles to neighboring ranks.
///
/// `locals` are the particles owned by this rank. Returns the ghost particles
/// received from neighbors (this rank's copy of other ranks' boundary shells).
/// The caller typically analyzes `locals ++ ghosts`.
///
/// A local sits in this rank's block, so its targets depend only on which of
/// the block's six faces it lies within `width` of: the block's thresholds
/// and the targets of all 64 face sets are computed once per call, and a
/// local costs six comparisons and a table lookup. A particle outside
/// [`CartDecomp::local_bounds`] (NaN included) takes
/// [`CartDecomp::overload_targets`], the per-point definition.
pub fn exchange_overload<P>(
    comm: &Communicator,
    decomp: &CartDecomp,
    width: f64,
    locals: &[P],
) -> Vec<P>
where
    P: HasPosition + Clone + Send + 'static,
{
    let _span = telemetry::span!("comm", "exchange_overload", comm.rank());
    let me = comm.rank();
    decomp.check_overload_width(width);
    let (lo, hi) = decomp.local_bounds(me);
    let faces = Faces::new(lo, hi, width);
    let oc = decomp.coords_of(me);
    let table: Vec<OverloadTargets> = (0..64).map(|f| decomp.targets_past(oc, f)).collect();
    let mut sends: Vec<Vec<P>> = (0..comm.size()).map(|_| Vec::new()).collect();
    for p in locals {
        let q = p.position();
        let elsewhere;
        let targets = if (0..3).all(|d| lo[d] <= q[d] && q[d] < hi[d]) {
            &table[faces.of(q)]
        } else {
            elsewhere = decomp.overload_targets(q, width);
            &elsewhere
        };
        for &r in targets.iter() {
            sends[r].push(p.clone());
        }
    }
    let recvd = comm.alltoallv(sends);
    recvd
        .into_iter()
        .enumerate()
        .filter(|(src, _)| *src != me)
        .flat_map(|(_, v)| v)
        .collect()
}

/// Send every particle to the rank that owns its position; returns this
/// rank's new set. Total particle count is conserved across the world.
pub fn redistribute<P>(comm: &Communicator, decomp: &CartDecomp, parts: Vec<P>) -> Vec<P>
where
    P: HasPosition + Send + 'static,
{
    let _span = telemetry::span!("comm", "redistribute", comm.rank());
    let mut sends: Vec<Vec<P>> = (0..comm.size()).map(|_| Vec::new()).collect();
    for p in parts {
        let owner = decomp.owner_of(p.position());
        sends[owner].push(p);
    }
    comm.alltoallv(sends).into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    #[test]
    fn balanced_dims_examples() {
        assert_eq!(balanced_dims(1), [1, 1, 1]);
        assert_eq!(balanced_dims(8), [2, 2, 2]);
        assert_eq!(balanced_dims(27), [3, 3, 3]);
        assert_eq!(balanced_dims(32), [4, 4, 2]);
        assert_eq!(balanced_dims(12), [3, 2, 2]);
        assert_eq!(balanced_dims(7), [7, 1, 1]);
    }

    #[test]
    fn rank_coord_roundtrip() {
        let d = CartDecomp::new(24, 100.0);
        for r in 0..24 {
            let c = d.coords_of(r);
            assert_eq!(d.rank_of([c[0] as isize, c[1] as isize, c[2] as isize]), r);
        }
    }

    #[test]
    fn owner_respects_bounds() {
        let d = CartDecomp::new(8, 64.0);
        for r in 0..8 {
            let (lo, hi) = d.local_bounds(r);
            let center = [
                (lo[0] + hi[0]) / 2.0,
                (lo[1] + hi[1]) / 2.0,
                (lo[2] + hi[2]) / 2.0,
            ];
            assert_eq!(d.owner_of(center), r);
        }
    }

    #[test]
    fn wrap_handles_negatives_and_overflow() {
        let d = CartDecomp::new(1, 10.0);
        let w = d.wrap([-0.5, 10.5, 9.999]);
        assert!((w[0] - 9.5).abs() < 1e-12);
        assert!((w[1] - 0.5).abs() < 1e-12);
        assert!((w[2] - 9.999).abs() < 1e-12);
        // Exactly box_size wraps to 0.
        assert_eq!(d.wrap([10.0, 0.0, 0.0])[0], 0.0);
    }

    #[test]
    fn overload_targets_face_particle() {
        // 2x1x1 grid on [0,10): rank boundary at x=5.
        let d = CartDecomp::with_dims([2, 1, 1], 10.0);
        // Particle just left of x=5 belongs to rank 0 and must be replicated
        // to rank 1 (via the +x face) — and also via the periodic -x face.
        let t = d.overload_targets([4.9, 2.0, 2.0], 0.5);
        assert_eq!(*t, [1]);
        // Particle in the middle of a block is replicated nowhere.
        assert!(d.overload_targets([2.5, 2.0, 2.0], 0.5).is_empty());
    }

    #[test]
    fn overload_corner_particle_reaches_diagonal_neighbor() {
        let d = CartDecomp::with_dims([2, 2, 1], 10.0);
        // Corner at (5,5): particle at (4.9, 4.9) should reach x+, y+ and the
        // diagonal (x+,y+) neighbors.
        let t = d.overload_targets([4.9, 4.9, 2.0], 0.5);
        let owner = d.owner_of([4.9, 4.9, 2.0]);
        assert_eq!(owner, 0);
        assert_eq!(t.len(), 3, "face, face, corner: {t:?}");
    }

    #[test]
    #[should_panic(expected = "exceeds smallest block width")]
    fn oversized_overload_width_rejected() {
        let d = CartDecomp::with_dims([4, 1, 1], 10.0);
        d.overload_targets([1.0, 1.0, 1.0], 3.0);
    }

    #[test]
    fn redistribute_sends_everything_home() {
        let world = World::new(8);
        let d = CartDecomp::new(8, 32.0);
        let out = world.run(|c| {
            // Every rank starts with particles spread over the whole box.
            let parts: Vec<[f64; 3]> = (0..100)
                .map(|i| {
                    let t = (c.rank() * 100 + i) as f64;
                    [(t * 7.3) % 32.0, (t * 3.1) % 32.0, (t * 1.7) % 32.0]
                })
                .collect();
            let mine = redistribute(c, &d, parts);
            // Everything I hold must be mine.
            for p in &mine {
                assert_eq!(d.owner_of(*p), c.rank());
            }
            mine.len()
        });
        assert_eq!(out.iter().sum::<usize>(), 800);
    }

    #[test]
    fn exchange_overload_replicates_boundary_shell() {
        let world = World::new(2);
        let d = CartDecomp::with_dims([2, 1, 1], 10.0);
        let width = 1.0;
        let out = world.run(|c| {
            // Rank 0 owns x in [0,5): place one interior and one boundary particle.
            let locals: Vec<[f64; 3]> = if c.rank() == 0 {
                vec![[2.5, 5.0, 5.0], [4.8, 5.0, 5.0], [0.5, 5.0, 5.0]]
            } else {
                vec![[7.5, 5.0, 5.0]]
            };
            let ghosts = exchange_overload(c, &d, width, &locals);
            (locals.len(), ghosts.len())
        });
        // Rank 1 receives rank 0's particles at x=4.8 (face) and x=0.5
        // (periodic face at x=0 wraps to rank 1's upper edge x=10).
        assert_eq!(out[1].1, 2);
        // Rank 0 receives nothing from rank 1 (7.5 is >1.0 from both faces).
        assert_eq!(out[0].1, 0);
    }
}
