//! Layout differential: every kernel written for the SoA / packed-column
//! layout must agree **bit-for-bit** with a from-first-principles reference,
//! on every backend, over the adversarial corpus from [`crate::inputs`].
//!
//! The product crates carry one body per kernel, so the references live
//! here. They share no code with what they check — a disagreement means the
//! kernel changed semantics, not that both sides drifted together:
//!
//! * `cic-soa` — [`nbody::pm::cic_deposit_soa`] (the stepper's deposit: the
//!   exact sum over a [`ParticleSoA`]) vs `cic_deposit_exact_ref`, on
//!   `Serial` and every roster backend, on the stored and a shuffled input,
//!   over [`inputs::particle_cases`] including NaN/±inf positions and
//!   [`cic_wrap_case`].
//! * `fof-cols` — [`halo::fof_kdtree_cols`] (packed leaf lanes) vs
//!   [`halo::fof_brute`] labels (both number groups by first appearance, so
//!   the O(n²) engine is a label-for-label oracle), plus the column tree's
//!   radius and k-nearest queries vs the linear scan `dist2_scan_ref`,
//!   over [`inputs::coord_cases`].
//! * `mbp-cols` — [`halo::potential_at`] / [`halo::mbp_brute_cols`]
//!   (blocked lane sweep, fixed summation order; `dpp::ops::map` then
//!   `dpp::ops::argmin_by`) vs [`potential_scalar_ref`] (scalar per-pair
//!   loop) and a sequential first-minimum scan, every backend, over the
//!   small [`inputs::particle_cases`] (dispatched inline) and
//!   `mbp_halo_cases` (dispatched through the pool, argmin tied).
//! * `fft3d-tiled` — [`fft::Fft3d`] (every pass 16 lines at a time through
//!   the lane-batched kernel) vs [`fft3d_line_ref`] (one gathered line at a
//!   time), forward and inverse, including a shape whose every batch is
//!   partial; and [`fft::RealFft3d`] on the `rfft3d` shapes vs
//!   `rfft3d_line_ref` (rows through `r2c_row_ref` / `c2r_row_ref`, the
//!   untangle in `Complex` operations over [`fft::Fft1d`]; the half
//!   spectrum's lines one at a time, at 64³ a stride of 33), forward,
//!   inverse and the in-place inverse the stepper runs (rows left `nz + 2`
//!   reals apart), every backend.
//! * `rfft3d` — [`fft::RealFft3d`]: the real-to-complex forward vs
//!   [`fft::Fft3d::forward`] of the grid promoted to complex, on the stored
//!   half, and the complex-to-real inverse vs `Re` of [`fft::Fft3d::inverse`]
//!   of the full spectrum a random Hermitian half extends to, both
//!   [`Cmp::Approx`] on shapes from `[2,2,2]` to the production `[64,64,64]`;
//!   on the smallest shapes both also vs a direct O(N²) 3-D DFT sum
//!   (`dft3_direct`); and each bit-equal across every backend.
//! * `poisson-kspace` — [`nbody::pm::poisson_accel`] (a real-to-complex
//!   transform, one parallel pass over the half spectrum writing all three
//!   `g_k` with each Nyquist plane zeroed, three complex-to-real transforms)
//!   bit-equal across every backend to itself on `Serial`, and
//!   [`Cmp::Approx`] to `poisson_three_sweep_ref` (full complex spectra, one
//!   serial sweep and one fresh grid per axis, `Re` of each inverse) on a
//!   seeded `δ`.
//! * `fof-grid` — [`halo::fof_grid`] (link-wide cells, an occupancy bitmap
//!   per z-row, points counting-sorted by cell) vs [`fof_grid_dense_ref`]
//!   (one list per cell of a mesh up to 256 a side) label for label, and vs
//!   `fof_periodic_images_ref` ([`halo::fof_brute`] over the 27 periodic
//!   images) on the small inputs, over `fof_grid_cases`: links across each
//!   face of the box, particles on cell edges, chains exactly one link
//!   apart, meshes of 1, 2 and 3 cells a side, meshes the z and row caps
//!   widen, occupied cells at the bitmap's word boundaries, the z-row wrap,
//!   duplicates and a pile-up, a mesh of 10⁶ cells a side by the link.
//! * `fof-patch` — [`halo::fof_patch`] (the same cell engine, open
//!   boundaries over the bounding box) vs [`halo::fof_brute`] label for label
//!   at three linking lengths, over [`inputs::coord_cases`] and
//!   `fof_patch_cases`: coordinates unwrapped below zero and past the box,
//!   flat and zero-extent patches, pairs exactly one link apart across cell
//!   faces, the bitmap's word boundaries, meshes of 1, 2 and 3 cells a side,
//!   a pile-up, NaN, ±∞ and `f64::MAX` coordinates, a real two-rank patch —
//!   and on each, an index within the `4·(8n + 1)` bytes of a table of `8n`
//!   cells (`halo.fof_index_bytes`).
//! * `fof-axes` — [`halo::fof_cells`] (the same cell engine, each axis
//!   periodic or open) vs `fof_periodic_images_ref` (the brute force over
//!   the images along the periodic axes only) label for label, on each
//!   periodic-axis set a decomposition leaves (none, z, y + z, all three):
//!   over the `fof-grid` corpus in its box, the `fof-patch` corpus in a box
//!   of 8 (wrapped into it along the periodic axes, as a rank's patch is),
//!   dyadic chains across the seam of each axis, and every rank's real
//!   extended patch at 1, 2, 4 and 8 ranks with the periods
//!   [`comm::CartDecomp::single_block_periods`] gives it.
//! * `cic-exact` — [`nbody::pm::cic_deposit_exact`] (an integer grid per
//!   worker) vs `cic_deposit_exact_ref` (its definition, summed in `i128` in
//!   reversed order), on `Serial`, `Threaded` ×2 and ×3 and `StaticThreaded`
//!   ×3, on the stored and a shuffled input, over `cic_exact_cases`.
//! * `cic-gather` — [`nbody::pm::gather_accel`], the stepper's gather
//!   (position columns in blocks of 64, a vector range check with a scalar
//!   fallback, cell and weights once per particle, three components per
//!   corner) vs three [`nbody::pm::cic_interpolate`] calls per particle, per
//!   component, on `Serial` and every roster backend, over
//!   `cic_gather_positions` (on and beyond every face of the box,
//!   non-finite, denormal, and whole blocks inside it) and
//!   `cic_gather_fields` (finite, and salted with NaN / ±∞ cells) on meshes
//!   of 1, 2, 4 and 16 cells a side in the stepper's half-spectrum layout
//!   (NaN in the padding), without a kick and with the closing kick against
//!   `vel + (k·g) as f32`.
//! * `massfn-sample` — [`halo::MassFunction::bin_of`] (a guide-table bucket,
//!   then a binary search inside it) vs `massfn_bin_ref` (the
//!   `binary_search_by` over the whole CDF it replaced), at every CDF entry
//!   and one ulp either side, every guide-bucket edge, `0`, the largest
//!   `f64` below 1 and 10⁵ uniform draws; and `sample_many` /
//!   `sample_many_above` draw for draw vs [`massfn_sample_ref`] and
//!   `massfn_sample_above_ref`, on the Q Continuum calibration, a steep-head
//!   function and a flat-top one whose last CDF entries are all exactly 1.
//!
//! Everything else is [`Cmp::BitEq`]: the kernels fix their summation order
//! to the reference order by construction (see DESIGN.md §12). The real
//! transforms are the exception by design — half the work is a different
//! rounding — so `rfft3d` and `poisson-kspace` hold them to their complex
//! references within [`Cmp::Approx`], and to their own bits across
//! backends. The one place bits are not all defined
//! is a NaN made from two NaNs of different payloads (a NaN cell met by a NaN
//! weight, or by the `∞·0` of an infinite one): which payload survives
//! depends on the operand order the compiler picked for that `mulsd` /
//! `addsd`, in the reference as much as in the kernel, so over the salted
//! `cic-gather` fields a NaN must meet a NaN ([`Cmp::NumEq`]) and every other
//! value its bits.

use crate::differential::{roster, Cmp, DiffReport};
use crate::inputs;
use comm::{CartDecomp, World};
use dpp::{Backend, SendPtr, Serial, StaticThreaded, Threaded};
use fft::{freq_index, Complex, Fft1d, Fft3d, Grid3, RealFft3d};
use halo::massfn::GUIDE_BUCKETS;
use halo::unionfind::UnionFind;
use halo::{
    fof_brute, fof_cells, fof_grid, fof_kdtree_cols, fof_patch, mbp_brute_cols, potential_at,
    Coords, KdTree, MassFunction,
};
use nbody::pm::{
    cic_deposit_exact, cic_deposit_soa, cic_interpolate, gather_accel, poisson_accel, ForceGrids,
};
use nbody::{Particle, ParticleSoA};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The rewritten-kernel families the layout differential must cover; each
/// must contribute more than zero checks to a passing run.
pub const REQUIRED_KERNELS: [&str; 12] = [
    "cic-soa",
    "cic-exact",
    "cic-gather",
    "fof-cols",
    "fof-grid",
    "fof-patch",
    "fof-axes",
    "mbp-cols",
    "fft3d-tiled",
    "rfft3d",
    "poisson-kspace",
    "massfn-sample",
];

/// A position in box units as a grid coordinate of an `ng`-cell axis,
/// wrapped by `rem_euclid` into `[0, ng]` (`ng` itself when a negative
/// coordinate is too small to move it).
fn to_grid_units(pos: f32, box_size: f64, ng: usize) -> f64 {
    (pos as f64 / box_size * ng as f64).rem_euclid(ng as f64)
}

/// [`to_grid_units`] with `ng` at the origin: the exact deposit's coordinate.
fn origin_grid_units(pos: f32, box_size: f64, ng: usize) -> f64 {
    match to_grid_units(pos, box_size, ng) {
        u if u == ng as f64 => 0.0,
        u => u,
    }
}

/// One particle's eight CIC corner contributions, added to `local` (`ng³`
/// cells): `rem_euclid` wrap, `% ng` per corner, `m·wx·wy·wz` left to right.
fn deposit_scalar(local: &mut [f64], p: &Particle, ng: usize, box_size: f64) {
    let u = [
        to_grid_units(p.pos[0], box_size, ng),
        to_grid_units(p.pos[1], box_size, ng),
        to_grid_units(p.pos[2], box_size, ng),
    ];
    let i = [u[0] as usize % ng, u[1] as usize % ng, u[2] as usize % ng];
    let d = [u[0] - i[0] as f64, u[1] - i[1] as f64, u[2] - i[2] as f64];
    let m = p.mass as f64;
    for (dx, wx) in [(0usize, 1.0 - d[0]), (1, d[0])] {
        for (dy, wy) in [(0usize, 1.0 - d[1]), (1, d[1])] {
            for (dz, wz) in [(0usize, 1.0 - d[2]), (1, d[2])] {
                let x = (i[0] + dx) % ng;
                let y = (i[1] + dy) % ng;
                let z = (i[2] + dz) % ng;
                local[(x * ng + y) * ng + z] += m * wx * wy * wz;
            }
        }
    }
}

/// Mass per cell → overdensity `δ = ρ/ρ̄ − 1` (left as it is when the total
/// mass is not positive): the tail of both deposit references.
fn overdensity_ref(mut rho: Vec<f64>, total: f64, ng: usize) -> Grid3<f64> {
    let mean = total / rho.len() as f64;
    if mean > 0.0 {
        for v in &mut rho {
            *v = *v / mean - 1.0;
        }
    }
    Grid3::from_vec([ng, ng, ng], rho)
}

/// Scalar CIC deposit: one particle at a time, `rem_euclid` wrap and `% ng`
/// per corner, an `f64` sum chunked by `backend.concurrency()` with the
/// partials merged in chunk order, returning the overdensity `δ = ρ/ρ̄ − 1`.
/// What the deposit was before its sum became exact, kept as the `before`
/// side of the bench's `cic` and `render_deposit_64` rows: its low bits
/// follow the worker count, so no family holds a kernel to it.
pub fn cic_deposit_scalar_ref(
    backend: &dyn Backend,
    particles: &[Particle],
    ng: usize,
    box_size: f64,
) -> Grid3<f64> {
    let ncell = ng * ng * ng;
    let partials: Mutex<Vec<(usize, Vec<f64>)>> = Mutex::new(Vec::new());
    let grain = (particles.len() / backend.concurrency().max(1)).max(4096);
    backend.dispatch(particles.len(), grain, &|r| {
        let start = r.start;
        let mut local = vec![0.0f64; ncell];
        for p in &particles[r] {
            deposit_scalar(&mut local, p, ng, box_size);
        }
        partials.lock().push((start, local));
    });
    let mut partials = partials.into_inner();
    partials.sort_by_key(|(s, _)| *s);
    let mut rho = vec![0.0f64; ncell];
    for (_, local) in partials {
        for (gv, lv) in rho.iter_mut().zip(&local) {
            *gv += lv;
        }
    }
    let total: f64 = particles.iter().map(|p| p.mass as f64).sum();
    overdensity_ref(rho, total, ng)
}

/// The definition [`nbody::pm::cic_deposit_exact`] is held to: every corner
/// term of the scalar loop (`deposit_scalar`'s wrap, visit order and
/// `m·wx·wy·wz`, except that a coordinate wrapping to exactly `ng` is the
/// origin), scaled by `2^e` — `2^p ≤ 8·n·max|m| < 2^(p+1)` over the finite
/// masses, `e = 60 − p`, or `0` when there is none — and truncated; the
/// finite ones summed per cell in `i128`, particles in reversed order; a
/// cell with a NaN term, or with both infinities, NaN, one with one infinity
/// that infinity; then `ρ = q·2^−e` and the overdensity of the integer total.
fn cic_deposit_exact_ref(particles: &[Particle], ng: usize, box_size: f64) -> Grid3<f64> {
    let masses = particles.iter().map(|p| p.mass.abs() as f64);
    let max = masses.filter(|m| m.is_finite()).fold(0.0, f64::max);
    let p = ((8.0 * particles.len() as f64 * max).to_bits() >> 52) as i32 - 1023;
    let e = if max > 0.0 { 60 - p } else { 0 };
    let ncell = ng * ng * ng;
    // Class bits: 1 a NaN term, 2 a +∞ one, 4 a −∞ one.
    let (mut sums, mut class) = (vec![0i128; ncell], vec![0u8; ncell]);
    for p in particles.iter().rev() {
        let u = p.pos.map(|x| origin_grid_units(x, box_size, ng));
        let i = u.map(|u| u as usize % ng);
        let d = [0, 1, 2].map(|a| u[a] - i[a] as f64);
        for (dx, wx) in [(0usize, 1.0 - d[0]), (1, d[0])] {
            for (dy, wy) in [(0usize, 1.0 - d[1]), (1, d[1])] {
                for (dz, wz) in [(0usize, 1.0 - d[2]), (1, d[2])] {
                    let cell = (((i[0] + dx) % ng) * ng + (i[1] + dy) % ng) * ng + (i[2] + dz) % ng;
                    match p.mass as f64 * wx * wy * wz {
                        t if t.is_nan() => class[cell] |= 1,
                        t if t.is_infinite() => class[cell] |= if t > 0.0 { 2 } else { 4 },
                        t => sums[cell] += (t * 2f64.powi(e)) as i128,
                    }
                }
            }
        }
    }
    let quantum = 2f64.powi(-e);
    let total = sums.iter().sum::<i128>() as f64 * quantum;
    let rho = (0..ncell).map(|c| match class[c] {
        0 => sums[c] as f64 * quantum,
        2 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        _ => f64::NAN,
    });
    overdensity_ref(rho.collect(), total, ng)
}

/// Dense-cell periodic FOF reference: [`halo::fof_grid`] as it was before its
/// cells became a counting sort — one `Vec<u32>` per cell of a mesh clamped
/// to 256 a side whatever `n` is (403 MB of empty headers once
/// `box_size / link ≥ 256`), every cell visited, three `rem_euclid` per
/// neighbour. Body unmodified.
pub fn fof_grid_dense_ref(positions: &[[f64; 3]], link: f64, box_size: f64) -> Vec<u32> {
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

/// Periodic FOF by brute force: [`halo::fof_brute`] over the images of
/// every particle shifted by `−side`, 0 and `side` along each periodic axis
/// (`Some(side)`; none along an open one — 27 images when all three wrap),
/// two particles sharing a group when any of their images do. O((3ᵏn)²) for
/// `k` periodic axes, for small inputs; labels numbered by first appearance
/// like every other engine's.
fn fof_periodic_images_ref(positions: &[[f64; 3]], link: f64, periods: Periods) -> Vec<u32> {
    let n = positions.len();
    let shifts = periods.map(|p| match p {
        Some(side) => vec![-side, 0.0, side],
        None => vec![0.0],
    });
    let mut images = Vec::with_capacity(n * shifts.iter().map(Vec::len).product::<usize>());
    for &sx in &shifts[0] {
        for &sy in &shifts[1] {
            for &sz in &shifts[2] {
                images.extend(positions.iter().map(|p| [p[0] + sx, p[1] + sy, p[2] + sz]));
            }
        }
    }
    let image_labels = fof_brute(&images, link);
    // The first image seen in each brute group stands for it.
    let mut first = vec![usize::MAX; images.len()];
    let mut uf = UnionFind::new(n);
    for (k, &l) in image_labels.iter().enumerate() {
        if first[l as usize] == usize::MAX {
            first[l as usize] = k % n;
        }
        uf.union(first[l as usize], k % n);
    }
    uf.labels().0
}

/// Per axis, the side of the box where it wraps, as [`halo::fof_cells`]
/// takes it.
type Periods = [Option<f64>; 3];

/// The axes a decomposition leaves in one block, as the periodic-axis sets
/// [`CartDecomp::single_block_periods`] produces: none (`2×2×2` and up), z (`a×b×1`),
/// y and z (`n×1×1`) and all three (one rank).
const PERIODIC_AXIS_SETS: [[bool; 3]; 4] = [
    [false, false, false],
    [false, false, true],
    [false, true, true],
    [true, true, true],
];

/// Image rows the `fof-axes` brute reference is handed at most: a case is
/// cut to its first `FOF_AXES_IMAGE_ROWS / 3ᵏ` points on `k` periodic axes.
const FOF_AXES_IMAGE_ROWS: usize = 1458;

/// `fof-axes` seam chains: on a box of 8, for each axis, chains of points
/// exactly one (dyadic) link apart that cross the seam at 8 → 0 (from 7 on,
/// wrapped), and the same half a link over; each is one group where the
/// axis wraps and two where it does not.
fn seam_chains() -> Vec<[f64; 3]> {
    let mut chains = Vec::new();
    for axis in 0..3 {
        for shift in [0.0, 0.125] {
            chains.extend((0..9).map(|k| {
                let mut p = [2.0 + shift, 3.5, 5.0 - shift];
                p[axis] = (7.0 + shift + 0.25 * k as f64).rem_euclid(8.0);
                p
            }));
        }
    }
    chains
}

/// `fof-axes` rank patches: rank by rank, the extended patch
/// [`halo::extended_patch`] builds for a decomposition over 1, 2, 4 and 8
/// ranks of a box of 8 (blobs on the seams of every axis and a loose
/// background, overload width 2), with the periods it is linked with
/// ([`CartDecomp::single_block_periods`]).
fn rank_patch_cases() -> Vec<(String, Vec<[f64; 3]>, Periods)> {
    let mut rng = StdRng::seed_from_u64(0x5EED_A8E5);
    let mut points: Vec<[f64; 3]> = Vec::new();
    for center in [
        [0.1, 4.0, 4.0],
        [4.0, 7.9, 4.0],
        [4.0, 4.0, 0.05],
        [7.95, 0.1, 7.9],
    ] {
        points.extend(
            (0..16).map(|_| center.map(|c: f64| (c + rng.gen_range(-0.4..0.4)).rem_euclid(8.0))),
        );
    }
    points.extend((0..36).map(|_| [(); 3].map(|()| rng.gen_range(0.0..8.0))));
    let particles: Vec<Particle> = points
        .iter()
        .enumerate()
        .map(|(i, p)| Particle::at_rest(p.map(|x| x as f32), 1.0, i as u64))
        .collect();
    let mut cases = Vec::new();
    for nranks in [1usize, 2, 4, 8] {
        let decomp = CartDecomp::new(nranks, 8.0);
        let patches = World::new(nranks).run(|c| {
            let mine: Vec<Particle> = particles
                .iter()
                .filter(|p| decomp.owner_of(p.pos_f64()) == c.rank())
                .copied()
                .collect();
            halo::extended_patch(c, &decomp, &mine, 2.0)
        });
        for (rank, patch) in patches.into_iter().enumerate() {
            let periods = decomp.single_block_periods();
            cases.push((format!("nranks={nranks}/rank={rank}"), patch, periods));
        }
    }
    cases
}

/// One `fof-grid` input: positions, linking length, box side.
struct FofGridCase {
    /// Stable case name.
    pub name: String,
    /// Particle positions.
    pub positions: Vec<[f64; 3]>,
    /// Linking length.
    pub link: f64,
    /// Periodic box side.
    pub box_size: f64,
    /// Small enough for `fof_periodic_images_ref` and
    /// [`fof_grid_dense_ref`] both (the 10⁶-cells-a-side case costs the
    /// dense reference 403 MB and is held to the image oracle alone).
    pub dense: bool,
}

/// The `fof-grid` corpus. The engine's mesh has `⌊box/link⌋` cells a side
/// (less a 10⁻⁶ margin) up to 128 along z and `⌊n/2⌋` rows, and the dense
/// one `⌊box/link⌋` up to 256, so the cases pick `n` and `link` to put the
/// engine on 1, 2 and 3 cells a side, on meshes either cap widens, on rows
/// whose occupied cells straddle the `u128`'s words, and on the wraps of
/// every axis, the z-row's between its last and first cell included.
fn fof_grid_cases() -> Vec<FofGridCase> {
    let case = |name: &str, positions: Vec<[f64; 3]>, link: f64, box_size: f64| FofGridCase {
        name: name.to_string(),
        positions,
        link,
        box_size,
        dense: true,
    };
    let below = |x: f64| f64::from_bits(x.to_bits() - 1);
    let mut cases = vec![
        case("empty", vec![], 1.0, 10.0),
        case("single", vec![[3.0, 4.0, 5.0]], 1.0, 10.0),
        case("coincident", vec![[2.0, 3.0, 4.0]; 60], 0.25, 8.0),
    ];
    // A pair linked only through each face of the box, and a bystander.
    for axis in 0..3 {
        let at = |x: f64| {
            let mut p = [5.0; 3];
            p[axis] = x;
            p
        };
        cases.push(case(
            &format!("wrap_axis{axis}"),
            vec![
                at(0.2),
                at(9.9),
                at(5.0),
                at(below(10.0)),
                at(10.0),
                at(-0.05),
            ],
            0.5,
            10.0,
        ));
        // On cell edges of the unit mesh, distances of exactly one link.
        cases.push(case(
            &format!("cell_edges_axis{axis}"),
            [0.0, 1.0, 3.0, 4.5, 9.0, below(10.0), 6.0, 7.0]
                .into_iter()
                .map(at)
                .collect(),
            1.0,
            10.0,
        ));
    }
    // Two and three cells a side, by `link` (dense mesh) and by `n` (new).
    let mut rng = StdRng::seed_from_u64(0x5EED_F0F6);
    let mut cloud = |n: usize, box_size: f64| -> Vec<[f64; 3]> {
        (0..n)
            .map(|_| {
                [
                    rng.gen_range(0.0..box_size),
                    rng.gen_range(0.0..box_size),
                    rng.gen_range(0.0..box_size),
                ]
            })
            .collect()
    };
    for n in [2usize, 3, 4, 40] {
        cases.push(case(
            &format!("half_box_link/n={n}"),
            cloud(n, 6.0),
            3.0,
            6.0,
        ));
        cases.push(case(
            &format!("third_box_link/n={n}"),
            cloud(n, 6.0),
            1.9,
            6.0,
        ));
        cases.push(case(&format!("fine_link/n={n}"), cloud(n, 6.0), 0.4, 6.0));
        cases.push(case(
            &format!("two_cell_link/n={n}"),
            cloud(n, 6.0),
            2.4,
            6.0,
        ));
    }
    // Chains exactly one (dyadic) link apart along each axis, across the
    // faces of z's 31 cells and of the widened rows at every phase, and
    // across the wrap (7.75 ↔ 0); and the same chains half a link over.
    let mut chains = Vec::new();
    for axis in 0..3 {
        for shift in [0.0, 0.125] {
            chains.extend((0..32).map(|k| {
                let mut p = [1.0 + 4.0 * shift, 3.0, 5.5];
                p[axis] = shift + 0.25 * k as f64;
                p
            }));
        }
    }
    cases.push(case("link_chains", chains, 0.25, 8.0));
    // z capped from 159 cells to 128 of 0.3125: pairs 0.2 apart across the
    // faces below cells 1, 63, 64 (the `u128`'s word boundary), 65 and 127,
    // in one row and across the x wrap into the previous row, and across
    // the z wrap between cells 127 and 0.
    let mut words = Vec::new();
    for c in [1.0f64, 63.0, 64.0, 65.0, 127.0, 128.0] {
        let face = c * 0.3125;
        for (x, dz) in [(0.05, -0.1), (0.05, 0.1), (39.95, -0.05), (39.95, 0.12)] {
            words.push([x, 20.0, (face + dz).rem_euclid(40.0)]);
        }
    }
    cases.push(case("word_bounds", words, 0.25, 40.0));
    // Eleven link-wide cells a side (`⌊n/2⌋` rows do not bind): points
    // within a quarter link of each face of the box, on each axis.
    let mut slabs = Vec::new();
    for axis in 0..3 {
        slabs.extend(cloud(84, 6.0).into_iter().map(|mut p| {
            p[axis] = if p[axis] < 3.0 {
                p[axis] / 12.0
            } else {
                6.0 - (6.0 - p[axis]) / 12.0
            };
            p
        }));
    }
    cases.push(case("wrap_slabs", slabs, 0.5, 6.0));
    // Duplicates and a dense pile-up in one cell, with loners around them.
    let mut pile = vec![[4.0, 4.0, 4.0]; 20];
    pile.extend(cloud(200, 0.02).into_iter().map(|p| p.map(|x| 2.0 + x)));
    pile.extend(cloud(20, 8.0));
    cases.push(case("pile_up", pile, 0.25, 8.0));
    // Seven cells a side (rows that wrap, not whole-row runs) and a pair
    // linked only through each face.
    let mut faces = Vec::new();
    for (z, rows) in [(1.7, 4), (3.0, 4), (2.35, 2)] {
        for a in 0..4 {
            // Forty loners, to bring `⌊cbrt(8n)⌋` to seven.
            faces.extend((0..rows).map(|b| [0.3 + 1.5 * a as f64, 0.45 + 1.5 * b as f64, z]));
        }
    }
    for axis in 0..3 {
        for x in [0.1, 5.9] {
            let mut p = [1.3, 2.6, 4.1];
            p[axis] = x;
            faces.push(p);
        }
    }
    // … and through the z face between neighbouring rows, from either end.
    faces.extend([[0.8, 2.6, 0.1], [0.9, 2.6, 5.95]]);
    faces.extend([[0.8, 4.0, 5.95], [0.9, 4.0, 0.1]]);
    cases.push(case("faces_fine_mesh", faces, 0.4, 6.0));
    // 10⁶ cells a side for ten particles: two pairs within a link, one of
    // them across a face.
    let mut tiny = cloud(6, 1.0);
    tiny.extend([
        [0.5, 0.5, 0.5],
        [0.5 + 4e-7, 0.5, 0.5],
        [2e-7, 0.25, 0.75],
        [1.0 - 3e-7, 0.25, 0.75],
    ]);
    cases.push(FofGridCase {
        dense: false,
        ..case("tiny_link", tiny, 1e-6, 1.0)
    });
    cases
}

/// The `fof-patch` corpus beyond [`inputs::coord_cases`]: what a rank's
/// extended patch can hand the open-boundary engine. Coordinates unwrapped
/// below zero and past the box; a flat patch and a line (zero extent on one
/// and on two axes); a cloud inside one cell; chains of pairs one link apart
/// along each axis for every link the family runs; NaN, ±∞, `±f64::MAX`
/// (whose extent overflows) and denormals among finite points; twenty
/// points spread over 10⁵ links a side, where the row cap widens the mesh;
/// chains exactly one link apart across cell faces at every phase; pairs
/// across the faces of a z-row capped at 128 cells, at the `u128`'s word
/// boundary among them; clouds on meshes of 1, 2 and 3 cells a side (at
/// link 0.7); duplicates and a dense pile-up in one cell; and rank 0's real
/// patch of a two-rank decomposition.
fn fof_patch_cases() -> Vec<inputs::Case<[f64; 3]>> {
    let mut rng = StdRng::seed_from_u64(0x5EED_FA7C);
    let mut cloud = |n: usize, lo: f64, hi: f64| -> Vec<[f64; 3]> {
        (0..n)
            .map(|_| [(); 3].map(|()| rng.gen_range(lo..hi)))
            .collect()
    };
    let unwrapped = cloud(600, -3.0, 11.0);
    let flat = cloud(400, 0.0, 8.0)
        .into_iter()
        .map(|[x, y, _]| [x, y, 2.5])
        .collect();
    let line = cloud(300, -2.0, 9.0)
        .into_iter()
        .map(|[x, ..]| [x, -1.0, 7.0])
        .collect();
    let one_cell = cloud(300, 3.0, 3.1);
    let mut exact = Vec::new();
    for link in [0.25, 0.7, 4.0] {
        for axis in 0..3 {
            exact.extend((0..4).map(|k| {
                let mut p = [-1.5, 0.5, 9.0];
                p[axis] += k as f64 * link;
                p
            }));
        }
    }
    let mut nonfinite = cloud(200, 0.0, 8.0);
    let specials = [
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
        -f64::MAX,
        f64::from_bits(1),
        -0.0,
    ];
    for (k, v) in specials.into_iter().enumerate() {
        for axis in 0..3 {
            nonfinite[7 * k + 2 * axis][axis] = v;
        }
        nonfinite.push([v; 3]);
        nonfinite.push([v; 3]);
    }
    let mut sparse = cloud(16, 0.0, 25_000.0);
    sparse.extend([
        [5.0, 5.0, 5.0],
        [5.2, 5.0, 5.0],
        [1e5, 1e5, 1e5],
        [1e5, 1e5, 1e5 - 0.1],
    ]);
    let decomp = CartDecomp::new(2, 8.0);
    let particles: Vec<Particle> = cloud(1200, 0.0, 8.0)
        .into_iter()
        .enumerate()
        .map(|(i, p)| Particle::at_rest(p.map(|x| x as f32), 1.0, i as u64))
        .collect();
    let patch = World::new(2)
        .run(|c| {
            let mine: Vec<Particle> = particles
                .iter()
                .filter(|p| decomp.owner_of(p.pos_f64()) == c.rank())
                .copied()
                .collect();
            halo::extended_patch(c, &decomp, &mine, 2.0)
        })
        .swap_remove(0);
    let mut chains = Vec::new();
    for axis in 0..3 {
        for shift in [0.0, 0.125] {
            chains.extend((0..40).map(|k| {
                let mut p = [2.0 + 4.0 * shift, -1.0, 5.0];
                p[axis] += shift + 0.25 * k as f64;
                p
            }));
        }
    }
    // At link 0.25, z spans 40 (159 cells capped to 128 of 0.3125) and x
    // 0.6 (two rows): pairs 0.2 apart across the faces below cells 1, 63,
    // 64, 65 and 127, in one row and into the next.
    let mut words = vec![[0.0; 3], [0.6, 0.0, 40.0]];
    for c in [1.0, 63.0, 64.0, 65.0, 127.0] {
        let face = c * 0.3125;
        for (x, dz) in [(0.25, -0.1), (0.25, 0.1), (0.35, -0.05), (0.35, 0.12)] {
            words.push([x, 0.0, face + dz]);
        }
    }
    let cube = |side: f64, rng: &mut StdRng| -> Vec<[f64; 3]> {
        (0..60)
            .map(|_| [(); 3].map(|()| rng.gen_range(0.0..side)))
            .collect()
    };
    let mut pile = vec![[1.5, 2.5, 3.5]; 30];
    pile.extend(cloud(300, 0.0, 0.01));
    pile.extend(cloud(20, -2.0, 2.0));
    let case = |name, data| inputs::Case { name, data };
    vec![
        case("link_chains", chains),
        case("word_bounds", words),
        case("one_cell_a_side", cube(1.0, &mut rng)),
        case("two_cells_a_side", cube(1.5, &mut rng)),
        case("three_cells_a_side", cube(2.2, &mut rng)),
        case("pile_up", pile),
        case("unwrapped", unwrapped),
        case("flat", flat),
        case("line", line),
        case("one_cell", one_cell),
        case("exact_links", exact),
        case("nonfinite", nonfinite),
        case("sparse_capped", sparse),
        case("two_rank_patch", patch),
    ]
}

/// Coordinates whose scaled, wrapped value is exactly `ng` (negative
/// denormals) or that sit on the box side, on each axis in turn, salted
/// through two 64-particle deposit blocks and a tail. No stepper produces
/// them; a Level-1 file can carry them into any deposit.
pub fn cic_wrap_case(box_size: f32) -> inputs::Case<Particle> {
    let m = f32::MIN_POSITIVE;
    let specials = [-f32::from_bits(1), -m / 2.0, -m, box_size];
    let data = (0..150)
        .map(|i| {
            let mut pos = [0.3, 0.55, 0.8].map(|f| f * box_size + i as f32 * 0.01);
            if i % 5 == 0 {
                pos[i / 5 % 3] = specials[i / 15 % 4];
            }
            Particle::at_rest(pos, 1.0 + (i % 3) as f32 * 0.5, i as u64)
        })
        .collect();
    let name = "wrap_to_ng";
    inputs::Case { name, data }
}

/// The `cic-exact` corpus: [`inputs::particle_cases`] plus zero and negative
/// masses (total positive, and negative), infinite and `f32::MAX` masses,
/// one-cell pile-ups (sums past the 2⁵³ quanta an `f64` holds exactly), a
/// length several pooled dispatches long, and the wrap to `ng`.
fn cic_exact_cases() -> Vec<inputs::Case<Particle>> {
    let mut rng = StdRng::seed_from_u64(0x5EED_C1CD);
    let mut cloud = |name: &'static str, n: usize, lo: f32, hi: f32, masses: [f32; 4]| {
        let data = (0..n)
            .map(|i| {
                let pos = [(); 3].map(|()| rng.gen_range(lo..hi));
                Particle::at_rest(pos, masses[i % 4], i as u64)
            })
            .collect();
        inputs::Case { name, data }
    };
    let (inf, max) = (f32::INFINITY, f32::MAX);
    let mut cases = inputs::particle_cases();
    cases.push(cloud(
        "signed_masses",
        1500,
        0.0,
        32.0,
        [-1.5, 0.0, -0.0, 4.0],
    ));
    cases.push(cloud(
        "negative_total",
        700,
        0.0,
        32.0,
        [-2.0, 0.0, 0.5, -0.0],
    ));
    cases.push(cloud(
        "infinite_masses",
        600,
        0.0,
        32.0,
        [1.0, inf, 2.5, -inf],
    ));
    cases.push(cloud("max_masses", 3000, 0.0, 32.0, [max, 1.0, -max, max]));
    cases.push(cloud("one_cell", 2000, 4.1, 5.9, [1.0, 2.0, 0.5, 1.5]));
    cases.push(cloud("one_cell_max", 2000, 4.1, 5.9, [max; 4]));
    cases.push(cloud("pooled", 3 * 4096 + 5, 0.0, 32.0, [1.0; 4]));
    cases.push(cic_wrap_case(32.0));
    cases
}

/// The `cic-gather` positions for a box of side `box_size`: every coordinate
/// a gather can be handed and a wrap can get wrong — the box side itself
/// (as `f32`, which for a side `f32` cannot hold lies just outside the `f64`
/// box), the largest `f32` below it, both zeros, negative values down to the
/// denormals (whose scaled coordinate `rem_euclid` sends to exactly `ng`),
/// several box lengths outside on either side, NaN of either sign, ±∞ and
/// `f32::MAX` — on each axis in turn against ordinary coordinates on the
/// others, then on all three at once; followed by a seeded cloud from two box
/// lengths below the box to three above, long enough for a pooled dispatch;
/// and a seeded cloud inside the box.
fn cic_gather_positions(box_size: f64) -> Vec<Particle> {
    let l = box_size as f32;
    let below = |x: f32| f32::from_bits(x.to_bits() - 1);
    let specials = [
        l,
        below(l),
        0.0,
        -0.0,
        f32::from_bits(1),
        -f32::from_bits(1),
        f32::MIN_POSITIVE / 2.0,
        -f32::MIN_POSITIVE,
        -1e-12,
        -1.5,
        -l,
        2.0 * l + 0.25,
        -7.0 * l - 0.75,
        1e6 * l,
        f32::MAX,
        f32::MIN,
        f32::NAN,
        -f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
    ];
    let mut positions = Vec::new();
    for (k, &v) in specials.iter().enumerate() {
        for axis in 0..3 {
            let mut pos = [0.3 * l, 0.55 * l, 0.8 * l];
            pos[axis] = v;
            positions.push(pos);
        }
        // Two specials at once — but a non-finite one only with itself: two
        // different NaNs in one product leave the surviving payload to the
        // compiler's operand order (see the module docs).
        let next = specials[(k + 1) % specials.len()];
        let partner = if v.is_finite() && next.is_finite() {
            next
        } else {
            v
        };
        positions.push([v, partner, v]);
    }
    let mut rng = StdRng::seed_from_u64(0x5EED_6A78);
    let mut coord = || rng.gen_range(-2.0 * l..3.0 * l);
    positions.extend((0..inputs::BOUNDARY_LENGTHS[3]).map(|_| [coord(), coord(), coord()]));
    // Inside the box, where whole blocks take the gather's vector path; one
    // particle on the far face sends its block to the scalar fallback.
    let mut inside = || rng.gen_range(0.0..l);
    let start = positions.len();
    positions.extend((0..inputs::BOUNDARY_LENGTHS[2]).map(|_| [inside(), inside(), inside()]));
    positions[start + 300][1] = l;
    let particle = |(i, pos)| Particle::at_rest(pos, 1.0, i as u64);
    positions.into_iter().enumerate().map(particle).collect()
}

/// The `cic-gather` fields on an `ng³` mesh: three seeded components, and
/// the same three salted — a NaN, a `−∞`, a `+∞`, a `−0.0` and a denormal, in
/// different cells of different components (a one-cell mesh keeps the last
/// written in each).
fn cic_gather_fields(ng: usize) -> [(&'static str, [Grid3<f64>; 3]); 2] {
    let ncell = ng * ng * ng;
    let mut rng = StdRng::seed_from_u64(0x5EED_F1E7 + ng as u64);
    let finite: [Grid3<f64>; 3] = std::array::from_fn(|_| {
        Grid3::from_vec(
            [ng, ng, ng],
            (0..ncell).map(|_| rng.gen_range(-2.0..2.0)).collect(),
        )
    });
    let mut salted = finite.clone();
    let salts = [
        f64::NAN,
        f64::NEG_INFINITY,
        f64::INFINITY,
        -0.0,
        f64::from_bits(3),
    ];
    for (k, salt) in salts.into_iter().enumerate() {
        for (axis, grid) in salted.iter_mut().enumerate() {
            grid.as_mut_slice()[(7 * k + 3 * axis + k * axis) % ncell] = salt;
        }
    }
    [("finite", finite), ("salted", salted)]
}

/// The pooled `mbp-cols` inputs: seeded halos of 2 049 and 3 073 particles —
/// just past [`dpp::SMALL_N_THRESHOLD`], three and four
/// [`dpp::DEFAULT_GRAIN`] chunks, so `map` and `argmin_by` go through the
/// workers — each a uniform cloud around two coincident heavy particles at
/// adjacent indices. Adjacent coincident particles of equal mass have
/// bit-equal potentials (the two sums differ only in where the literal `0.0`
/// of the self term sits) far below everyone else's, so the argmin is a tie:
/// across a chunk boundary (1023 | 1024) in the first case, inside the third
/// chunk (2500 | 2501) in the second.
fn mbp_halo_cases() -> Vec<inputs::Case<Particle>> {
    let mut rng = StdRng::seed_from_u64(0x5EED_0B19);
    let mut halo = |name: &'static str, n: usize, pair: usize| {
        let mut data: Vec<Particle> = (0..n)
            .map(|i| {
                let pos = [
                    rng.gen_range(14.0f32..18.0),
                    rng.gen_range(14.0f32..18.0),
                    rng.gen_range(14.0f32..18.0),
                ];
                Particle::at_rest(pos, rng.gen_range(0.5f32..2.0), i as u64)
            })
            .collect();
        for i in [pair, pair + 1] {
            data[i] = Particle::at_rest([16.0; 3], 64.0, i as u64);
        }
        inputs::Case { name, data }
    };
    vec![
        halo("halo_3_chunks_tie_across_chunks", 2049, 1023),
        halo("halo_4_chunks_tie_in_chunk", 3073, 2500),
    ]
}

/// Scalar potential reference: `φ(i) = Σ_{j≠i} −m_j / (d_ij + ε)` summed in
/// ascending `j`, one pair at a time over the AoS slice.
pub fn potential_scalar_ref(particles: &[Particle], i: usize, softening: f64) -> f64 {
    let pi = particles[i].pos_f64();
    let mut acc = 0.0;
    for (j, p) in particles.iter().enumerate() {
        if j == i {
            continue;
        }
        let q = p.pos_f64();
        let d = ((q[0] - pi[0]).powi(2) + (q[1] - pi[1]).powi(2) + (q[2] - pi[2]).powi(2)).sqrt();
        acc -= p.mass as f64 / (d + softening);
    }
    acc
}

/// Linear-scan neighbour reference: the squared distance from `q` to every
/// row, by index, in the tree queries' own distance expression.
fn dist2_scan_ref(rows: &[[f64; 3]], q: [f64; 3]) -> Vec<f64> {
    rows.iter()
        .map(|p| (p[0] - q[0]).powi(2) + (p[1] - q[1]).powi(2) + (p[2] - q[2]).powi(2))
        .collect()
}

/// Per-line 3-D FFT reference: the separable transform as `fft::Fft3d` ran
/// it before its passes were tiled — every line along the active axis, one
/// per dispatched chunk, gathered cell by cell into a scratch line,
/// transformed by the axis' [`Fft1d`] plan and scattered back. Inverse
/// includes the `1/n` scale per line, as the plan applies it.
pub fn fft3d_line_ref(backend: &dyn Backend, grid: &mut Grid3<Complex>, inverse: bool) {
    for axis in 0..3 {
        axis_line_ref(backend, grid, axis, inverse);
    }
}

/// One pass of [`fft3d_line_ref`]: every line along `axis`, gathered one at
/// a time into a scratch line, transformed by the axis' [`Fft1d`] plan and
/// scattered back.
fn axis_line_ref(backend: &dyn Backend, grid: &mut Grid3<Complex>, axis: usize, inverse: bool) {
    let [nx, ny, nz] = grid.dims();
    let n_axis = grid.dims()[axis];
    let plan = Fft1d::new(n_axis).expect("power-of-two dims");
    let nlines = (nx * ny * nz) / n_axis;

    // For a line identified by the two fixed coordinates, compute the flat
    // index of its first element and the stride between elements.
    let (stride, line_start): (usize, Box<dyn Fn(usize) -> usize + Sync>) = match axis {
        0 => (
            ny * nz,
            Box::new(move |l| l), // l = y*nz + z in 0..ny*nz
        ),
        1 => (
            nz,
            Box::new(move |l| {
                let (x, z) = (l / nz, l % nz);
                x * ny * nz + z
            }),
        ),
        2 => (1, Box::new(move |l| l * nz)),
        _ => unreachable!(),
    };

    let ptr = SendPtr(grid.as_mut_slice().as_mut_ptr());
    backend.dispatch(nlines, 1, &|lines| {
        let mut scratch = vec![Complex::ZERO; n_axis];
        for l in lines {
            let base = line_start(l);
            // Gather the (possibly strided) line.
            for (k, s) in scratch.iter_mut().enumerate() {
                // SAFETY: each line's index set {base + k*stride} is
                // disjoint across lines of the same axis and in bounds.
                *s = unsafe { *ptr.at(base + k * stride) };
            }
            if inverse {
                plan.inverse(&mut scratch).expect("planned length");
            } else {
                plan.forward(&mut scratch).expect("planned length");
            }
            for (k, s) in scratch.iter().enumerate() {
                // SAFETY: as above.
                unsafe { ptr.write(base + k * stride, *s) };
            }
        }
    });
}

/// The untangle's twiddle `W^k = e^{−2πik/n}` of an `n`-point real row.
fn row_twiddle(k: usize, n: usize) -> Complex {
    Complex::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64)
}

/// One real row of `n` values to its `n/2 + 1` spectral bins, in `Complex`
/// operations over the one-line [`Fft1d::forward`]: the `n/2`-point
/// transform of `x[2j] + i·x[2j+1]`, then the pairwise untangle (for `0 < k
/// < n/4`, bins `k` and `n/2 − k` from `Z[k]` and `conj Z[n/2 − k]`, the
/// self-paired bin `n/4` conjugated). [`fft::RealFft3d`]'s z rows are held to
/// it; the two share no code besides the one-line transform.
fn r2c_row_ref(x: &[f64]) -> Vec<Complex> {
    let (n, m) = (x.len(), x.len() / 2);
    let mut row: Vec<Complex> = x
        .chunks_exact(2)
        .map(|p| Complex::new(p[0], p[1]))
        .collect();
    row.push(Complex::ZERO);
    Fft1d::new(m)
        .expect("power-of-two row")
        .forward(&mut row[..m])
        .expect("planned length");
    let z0 = row[0];
    row[0] = Complex::from_real(z0.re + z0.im);
    row[m] = Complex::from_real(z0.re - z0.im);
    for k in 1..n / 4 {
        let (a, b) = (row[k], row[m - k].conj());
        let even = (a + b).scale(0.5);
        let d = a - b;
        let odd = Complex::new(d.im, -d.re).scale(0.5);
        let t = row_twiddle(k, n) * odd;
        row[k] = even + t;
        row[m - k] = (even - t).conj();
    }
    if m >= 2 {
        row[m / 2] = row[m / 2].conj();
    }
    row
}

/// The inverse of [`r2c_row_ref`]: `n/2 + 1` bins to `n` reals, the untangle
/// run backwards into `x[2j] + i·x[2j+1]`, then the one-line
/// [`Fft1d::inverse`].
fn c2r_row_ref(bins: &[Complex]) -> Vec<f64> {
    let mut row = bins.to_vec();
    let m = row.len() - 1;
    let (x0, xm) = (row[0].re, row[m].re);
    row[0] = Complex::new(0.5 * (x0 + xm), 0.5 * (x0 - xm));
    for k in 1..m / 2 {
        let (a, b) = (row[k], row[m - k].conj());
        let even = (a + b).scale(0.5);
        let odd = ((a - b) * row_twiddle(k, 2 * m).conj()).scale(0.5);
        // Z[k] = E + i·O and Z[m−k] = conj E + i·conj O.
        row[k] = even + Complex::new(-odd.im, odd.re);
        row[m - k] = even.conj() + Complex::new(odd.im, odd.re);
    }
    if m >= 2 {
        row[m / 2] = row[m / 2].conj();
    }
    Fft1d::new(m)
        .expect("power-of-two row")
        .inverse(&mut row[..m])
        .expect("planned length");
    row[..m].iter().flat_map(|z| [z.re, z.im]).collect()
}

/// [`fft::RealFft3d`] one row and one gathered line at a time: each real
/// row of `real` through [`r2c_row_ref`], then the y and x lines of the half
/// spectrum through [`axis_line_ref`] — whose `nz/2 + 1` columns are a
/// stride no batch of lines divides. With `spectrum`, the inverse of it
/// instead: x and y lines, then each row back through [`c2r_row_ref`].
fn rfft3d_line_ref(real: &Grid3<f64>, spectrum: Option<Grid3<Complex>>) -> Grid3<Complex> {
    let [nx, ny, nz] = real.dims();
    let h = nz / 2 + 1;
    let Some(mut spec) = spectrum else {
        let rows = real.as_slice().chunks_exact(nz).flat_map(r2c_row_ref);
        let mut spec = Grid3::from_vec([nx, ny, h], rows.collect());
        axis_line_ref(&Serial, &mut spec, 1, false);
        axis_line_ref(&Serial, &mut spec, 0, false);
        return spec;
    };
    axis_line_ref(&Serial, &mut spec, 0, true);
    axis_line_ref(&Serial, &mut spec, 1, true);
    let back = spec.as_slice().chunks_exact(h).flat_map(c2r_row_ref);
    Grid3::from_vec([nx, ny, nz], back.map(Complex::from_real).collect())
}

/// Three-sweep Poisson reference: `nbody::pm::poisson_accel` as it was
/// before the k-space pass was fused and before its spectra were halved —
/// one complex forward transform of `δ` promoted to complex, then per axis a
/// serial sweep over all of k-space into a fresh full spectral grid
/// (`freq_index` and the division recomputed per cell and per axis), an
/// inverse transform and its real part, all through [`fft3d_line_ref`].
/// Taking `Re` is what drops each component's Nyquist plane (see
/// `nbody::pm`'s `gradient_spectra`).
fn poisson_three_sweep_ref(
    backend: &dyn Backend,
    delta: &Grid3<f64>,
    prefactor: f64,
) -> [Grid3<f64>; 3] {
    let dims = delta.dims();
    let ng = dims[0];
    assert!(dims[1] == ng && dims[2] == ng, "mesh must be cubic");

    // Forward transform of δ.
    let mut dk = Grid3::from_vec(
        dims,
        delta
            .as_slice()
            .iter()
            .map(|&r| Complex::from_real(r))
            .collect(),
    );
    fft3d_line_ref(backend, &mut dk, false);

    let two_pi = 2.0 * std::f64::consts::PI;
    [0, 1, 2].map(|axis| {
        let mut gk = Grid3::filled(dims, Complex::ZERO);
        for x in 0..ng {
            let kx = two_pi * freq_index(x, ng) as f64 / ng as f64;
            for y in 0..ng {
                let ky = two_pi * freq_index(y, ng) as f64 / ng as f64;
                for z in 0..ng {
                    let kz = two_pi * freq_index(z, ng) as f64 / ng as f64;
                    let k2 = kx * kx + ky * ky + kz * kz;
                    if k2 == 0.0 {
                        continue;
                    }
                    let kd = [kx, ky, kz][axis];
                    // φ_k = −prefactor δ_k / k²; g_k = −i k_d φ_k
                    //     = i k_d prefactor δ_k / k².
                    let phi_factor = prefactor / k2;
                    let d = *dk.get(x, y, z);
                    *gk.get_mut(x, y, z) = Complex::new(-d.im, d.re).scale(kd * phi_factor);
                }
            }
        }
        fft3d_line_ref(backend, &mut gk, true);
        Grid3::from_vec(dims, gk.as_slice().iter().map(|z| z.re).collect())
    })
}

/// Flatten a complex grid to `re, im, re, im, …` for the bit-equality checks.
fn re_im(grid: &Grid3<Complex>) -> Vec<f64> {
    grid.as_slice().iter().flat_map(|z| [z.re, z.im]).collect()
}

/// `(−x mod nx, −y mod ny)`: the in-plane mirror of a half-spectrum bin.
fn mirror(x: usize, y: usize, nx: usize, ny: usize) -> (usize, usize) {
    ((nx - x) % nx, (ny - y) % ny)
}

/// A random half spectrum of a real `dims` grid (`dims[2]` even): seeded
/// values everywhere, then the `kz = 0` and `kz = nz/2` planes — their own
/// mirrors under `k → −k` — made Hermitian within the plane.
pub(crate) fn hermitian_half(dims: [usize; 3], rng: &mut StdRng) -> Grid3<Complex> {
    let [nx, ny, nz] = dims;
    let mut half = Grid3::from_vec(
        [nx, ny, nz / 2 + 1],
        (0..nx * ny * (nz / 2 + 1))
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect(),
    );
    for z in [0, nz / 2] {
        for x in 0..nx {
            for y in 0..ny {
                let (mx, my) = mirror(x, y, nx, ny);
                let v = (*half.get(x, y, z) + half.get(mx, my, z).conj()).scale(0.5);
                *half.get_mut(x, y, z) = v;
                *half.get_mut(mx, my, z) = v.conj();
            }
        }
    }
    half
}

/// The full `dims` spectrum a half extends to by `X(−k) = conj X(k)`.
pub(crate) fn hermitian_extend(half: &Grid3<Complex>, dims: [usize; 3]) -> Grid3<Complex> {
    let [nx, ny, nz] = dims;
    let mut full = Grid3::filled(dims, Complex::ZERO);
    for x in 0..nx {
        for y in 0..ny {
            for z in 0..nz {
                *full.get_mut(x, y, z) = if z <= nz / 2 {
                    *half.get(x, y, z)
                } else {
                    let (mx, my) = mirror(x, y, nx, ny);
                    half.get(mx, my, nz - z).conj()
                };
            }
        }
    }
    full
}

/// The 3-D DFT by its definition, one O(N) sum per output bin: forward
/// `Σ_j g_j e^{−2πi k·j/n}`, or inverse `(1/N) Σ_j g_j e^{+2πi k·j/n}`. Output
/// bins `kz < out_nz` only, so a forward can stop at the stored half.
pub(crate) fn dft3_direct(grid: &Grid3<Complex>, inverse: bool, out_nz: usize) -> Grid3<Complex> {
    let [nx, ny, nz] = grid.dims();
    let sign = if inverse { 1.0 } else { -1.0 };
    let tau = 2.0 * std::f64::consts::PI;
    let mut out = Grid3::filled([nx, ny, out_nz], Complex::ZERO);
    for kx in 0..nx {
        for ky in 0..ny {
            for kz in 0..out_nz {
                let mut acc = Complex::ZERO;
                for x in 0..nx {
                    for y in 0..ny {
                        for z in 0..nz {
                            let phase = ((kx * x) % nx) as f64 / nx as f64
                                + ((ky * y) % ny) as f64 / ny as f64
                                + ((kz * z) % nz) as f64 / nz as f64;
                            acc += *grid.get(x, y, z) * Complex::cis(sign * tau * phase);
                        }
                    }
                }
                let norm = if inverse {
                    1.0 / grid.len() as f64
                } else {
                    1.0
                };
                *out.get_mut(kx, ky, kz) = acc.scale(norm);
            }
        }
    }
    out
}

/// The CDF bin of a uniform `u`: `binary_search_by` over the whole CDF,
/// an exact hit as found, otherwise the insertion point clamped to the last
/// bin.
fn massfn_bin_ref(cdf: &[f64], u: f64) -> usize {
    match cdf.binary_search_by(|c| c.partial_cmp(&u).unwrap()) {
        Ok(i) => i,
        Err(i) => i.min(cdf.len() - 1),
    }
}

/// `n` halo masses drawn as [`MassFunction::sample_many`] drew them with a
/// binary search per draw: a uniform, its bin, a second uniform placing the
/// mass log-uniformly within the bin.
pub fn massfn_sample_ref(mf: &MassFunction, rng: &mut StdRng, n: usize) -> Vec<u64> {
    let (grid, cdf) = (mf.grid(), mf.cdf());
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(0.0..1.0);
            let i = massfn_bin_ref(cdf, u);
            let (m0, m1) = (grid[i], grid[i + 1]);
            let f: f64 = rng.gen_range(0.0..1.0);
            let m = (m0.ln() + f * (m1.ln() - m0.ln())).exp();
            m.round().max(mf.m_min) as u64
        })
        .collect()
}

/// `n` tail masses above `m_lo` drawn as [`MassFunction::sample_many_above`]
/// drew them: per draw, the tail fraction, a uniform above its complement,
/// a binary search, and the bin clipped from below to `[m_lo, m_lo·1.0001]`.
fn massfn_sample_above_ref(mf: &MassFunction, rng: &mut StdRng, n: usize, m_lo: f64) -> Vec<u64> {
    let (grid, cdf) = (mf.grid(), mf.cdf());
    (0..n)
        .map(|_| {
            let cdf_lo = 1.0 - mf.fraction_above(m_lo);
            let u: f64 = rng.gen_range(cdf_lo..1.0);
            let i = massfn_bin_ref(cdf, u);
            let m0 = grid[i].max(m_lo);
            let m1 = grid[i + 1].max(m_lo * 1.0001);
            let f: f64 = rng.gen_range(0.0..1.0);
            let m = (m0.ln() + f * (m1.ln() - m0.ln())).exp();
            m.round().max(m_lo.ceil()) as u64
        })
        .collect()
}

/// Run the layout differential and collect every mismatch.
fn run_layout_differential() -> DiffReport {
    let mut rep = DiffReport::default();
    let backends = roster();
    rep.backends = backends.iter().map(|(n, _)| n.clone()).collect();

    let (ng, box_size) = (16usize, 32.0f64);

    // --- cic-soa ---------------------------------------------------------
    // The stepper's deposit against the exact deposit's definition: the
    // same bits on every backend and in any particle order.
    rep.op("cic-soa");
    let with_serial: Vec<(&str, &dyn Backend)> = std::iter::once(("serial", &Serial as _))
        .chain(backends.iter().map(|(n, b)| (n.as_str(), b.as_ref())))
        .collect();
    let wrap_case = cic_wrap_case(box_size as f32);
    for case in inputs::particle_cases().into_iter().chain([wrap_case]) {
        let reference = cic_deposit_exact_ref(&case.data, ng, box_size);
        let shuffled = inputs::shuffled(&case.data, 0x5EED_50A0);
        for (order, data) in [("stored", &case.data), ("shuffled", &shuffled)] {
            let soa = ParticleSoA::from_aos(data);
            for &(name, b) in &with_serial {
                let got = cic_deposit_soa(b, &soa, ng, box_size);
                rep.check_f64_slice(
                    Cmp::BitEq,
                    "cic-soa",
                    &format!("{}/{order}", case.name),
                    name,
                    reference.as_slice(),
                    got.as_slice(),
                );
            }
        }
    }

    // --- cic-exact -------------------------------------------------------
    // The definition is a plain loop, so it runs once; the kernel must
    // reproduce its bits on every backend, in the stored order and after a
    // seeded shuffle.
    rep.op("cic-exact");
    let exact_backends: [(&str, Box<dyn Backend>); 4] = [
        ("serial", Box::new(Serial)),
        ("threaded-2", Box::new(Threaded::new(2))),
        ("threaded-3", Box::new(Threaded::new(3))),
        ("static-3", Box::new(StaticThreaded::new(3))),
    ];
    for case in cic_exact_cases() {
        let shuffled = inputs::shuffled(&case.data, 0x5EED_E8AC);
        let orders = [("stored", &case.data), ("shuffled", &shuffled)]
            .map(|(name, data)| (name, ParticleSoA::from_aos(data)));
        for ng in [1, 16] {
            let reference = cic_deposit_exact_ref(&case.data, ng, box_size);
            for (name, b) in &exact_backends {
                for (order, soa) in &orders {
                    let got =
                        cic_deposit_exact(b.as_ref(), soa.positions(), soa.mass(), ng, box_size);
                    rep.check_f64_slice(
                        Cmp::BitEq,
                        "cic-exact",
                        &format!("{}/ng={ng}/{order}", case.name),
                        name,
                        reference.as_slice(),
                        got.as_slice(),
                    );
                }
            }
        }
    }

    // --- cic-gather ------------------------------------------------------
    // The reference is a plain loop, so `Serial` is one more backend here.
    rep.op("cic-gather");
    // 25.6 is a side `f32` cannot hold.
    for (gather_ng, side) in [(1usize, 32.0f64), (2, 25.6), (4, 32.0), (16, 25.6)] {
        let particles = cic_gather_positions(side);
        for (kind, fields) in cic_gather_fields(gather_ng) {
            // Two NaNs of different payloads only meet over the salted fields.
            let cmp = if kind == "salted" {
                Cmp::NumEq
            } else {
                Cmp::BitEq
            };
            let reference: [Vec<f64>; 3] = std::array::from_fn(|axis| {
                let at = |p: &Particle| cic_interpolate(&fields[axis], p.pos, side);
                particles.iter().map(at).collect()
            });
            let cols = ParticleSoA::from_aos(&particles);
            // In the stepper's half-spectrum layout, the padding NaN, so a
            // read of it shows.
            let row = 2 * (gather_ng / 2 + 1);
            let padded = fields.each_ref().map(|f| {
                let mut v = vec![f64::NAN; gather_ng * gather_ng * row];
                for (dst, src) in v
                    .chunks_exact_mut(row)
                    .zip(f.as_slice().chunks_exact(gather_ng))
                {
                    dst[..gather_ng].copy_from_slice(src);
                }
                v
            });
            let force = ForceGrids {
                ng: gather_ng,
                comps: padded.each_ref().map(|f| f.as_slice()),
            };
            // Without a kick (the stepper's opening solve) and with the
            // closing kick riding the gather: `vel += (k·g) as f32` from the
            // reference `g`, every particle starting from its own velocity.
            let k = 0.375;
            let mut start = particles.clone();
            for (i, p) in start.iter_mut().enumerate() {
                p.vel = [0.25 * (i % 7) as f32, -1.5, 2.0 + i as f32];
            }
            let g = &reference;
            let kicked_ref: Vec<f64> = start
                .iter()
                .enumerate()
                .flat_map(|(i, p)| (0..3).map(move |d| (p.vel[d] + (k * g[d][i]) as f32) as f64))
                .collect();
            for &(name, b) in &with_serial {
                for kicked in [false, true] {
                    let (mut got, mut moved) = (Vec::new(), start.clone());
                    let kick = kicked.then_some((&mut moved[..], k));
                    gather_accel(b, force, cols.positions(), side, &mut got, kick);
                    let mode = if kicked { "kick" } else { "no-kick" };
                    for (axis, expect) in reference.iter().enumerate() {
                        let component: Vec<f64> = got.iter().map(|g| g[axis]).collect();
                        rep.check_f64_slice(
                            cmp,
                            "cic-gather",
                            &format!("ng={gather_ng}/{kind}/{mode}/g{axis}"),
                            name,
                            expect,
                            &component,
                        );
                    }
                    if kicked {
                        let vel: Vec<f64> =
                            moved.iter().flat_map(|p| p.vel.map(|v| v as f64)).collect();
                        rep.check_f64_slice(
                            cmp,
                            "cic-gather",
                            &format!("ng={gather_ng}/{kind}/kick/vel"),
                            name,
                            &kicked_ref,
                            &vel,
                        );
                    }
                }
            }
        }
    }

    // --- fof-cols --------------------------------------------------------
    rep.op("fof-cols");
    for case in inputs::coord_cases() {
        let cols = Coords::from_rows(&case.data);
        for link in [0.25f64, 0.7] {
            rep.check_eq(
                "fof-cols",
                &format!("labels/{}/link={link}", case.name),
                "cols-engine",
                &fof_brute(&case.data, link),
                &fof_kdtree_cols(&cols, link),
            );
        }
        // Tree queries against the linear scan. Which of several points at
        // exactly the k-th distance is returned depends on traversal order,
        // so k-nearest is compared on the distances, each checked against
        // the scan's distance for the index it came with.
        let tree = KdTree::build_cols(&cols, None);
        if !case.data.is_empty() {
            let queries = [
                case.data[0],
                case.data[case.data.len() / 2],
                [4.0, 4.0, 4.0],
            ];
            for (qi, q) in queries.iter().enumerate() {
                let d2 = dist2_scan_ref(&case.data, *q);
                let within_ref: Vec<u32> = (0..d2.len() as u32)
                    .filter(|&i| d2[i as usize] <= 0.9 * 0.9)
                    .collect();
                let mut within_got = tree.within_radius_cols(&cols, *q, 0.9);
                within_got.sort_unstable();
                rep.check_eq(
                    "fof-cols",
                    &format!("within_radius/{}/q{qi}", case.name),
                    "cols-engine",
                    &within_ref,
                    &within_got,
                );
                let mut nearest = d2.clone();
                nearest.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let knn_ref: Vec<(u64, u64)> = nearest
                    .iter()
                    .take(8)
                    .map(|d| (d.to_bits(), d.to_bits()))
                    .collect();
                let knn_got: Vec<(u64, u64)> = tree
                    .k_nearest_cols(&cols, *q, 8)
                    .into_iter()
                    .map(|(i, d)| (d.to_bits(), d2[i as usize].to_bits()))
                    .collect();
                rep.check_eq(
                    "fof-cols",
                    &format!("k_nearest/{}/q{qi}", case.name),
                    "cols-engine",
                    &knn_ref,
                    &knn_got,
                );
            }
        }
    }

    // --- fof-grid --------------------------------------------------------
    rep.op("fof-grid");
    for case in fof_grid_cases() {
        let got = fof_grid(&case.positions, case.link, case.box_size);
        rep.check_eq(
            "fof-grid",
            &format!("images/{}", case.name),
            "csr-engine",
            &fof_periodic_images_ref(&case.positions, case.link, [Some(case.box_size); 3]),
            &got,
        );
        if case.dense {
            rep.check_eq(
                "fof-grid",
                &format!("dense/{}", case.name),
                "csr-engine",
                &fof_grid_dense_ref(&case.positions, case.link, case.box_size),
                &got,
            );
        }
    }
    // The column corpus in a box of 8: positions on and just outside the
    // faces, blobs, a grain-straddling cloud. Too large for the image oracle.
    for case in inputs::coord_cases() {
        for link in [0.25f64, 0.7, 4.0] {
            rep.check_eq(
                "fof-grid",
                &format!("dense/{}/link={link}", case.name),
                "csr-engine",
                &fof_grid_dense_ref(&case.data, link, 8.0),
                &fof_grid(&case.data, link, 8.0),
            );
        }
    }

    // --- fof-patch -------------------------------------------------------
    // Each run counts its cells under a dim of its own, so a concurrent
    // test's FOF stays out of the bound.
    rep.op("fof-patch");
    {
        const DIM: u64 = 0x0F0F_A7C4_0000;
        let _serial = crate::integrator::RECORDER.lock();
        let recorder = telemetry::install(std::sync::Arc::new(telemetry::Recorder::new(
            telemetry::Clock::Logical,
        )));
        let mut runs = Vec::new();
        for case in inputs::coord_cases().into_iter().chain(fof_patch_cases()) {
            for link in [0.25f64, 0.7, 4.0] {
                let dim = DIM + runs.len() as u64;
                let got = {
                    let _dim = telemetry::with_dim(dim);
                    fof_patch(&case.data, link)
                };
                rep.check_eq(
                    "fof-patch",
                    &format!("labels/{}/link={link}", case.name),
                    "csr-engine",
                    &fof_brute(&case.data, link),
                    &got,
                );
                runs.push((case.name, link, case.data.len() as u64, dim));
            }
        }
        let counters = recorder.finish().counters_by_dim();
        for (name, link, n, dim) in runs {
            let got = counters
                .get(&("halo", "fof_index_bytes", dim))
                .copied()
                .unwrap_or(0);
            rep.check_eq(
                "fof-patch",
                &format!("index_bytes/{name}/link={link}"),
                "csr-engine",
                &got.min(4 * (8 * n + 1)),
                &got,
            );
        }
    }

    // --- fof-axes --------------------------------------------------------
    // The cell engine with each periodic-axis set a decomposition leaves
    // (none, z, y + z, all three) against the brute images along exactly
    // those axes: the `fof-grid` corpus in its own box, the `fof-patch`
    // corpus in a box of 8 (wrapped into it along the periodic axes, as a
    // rank's patch is) and the seam chains, each cut to the reference's
    // budget; then every rank's real patch with its own periods.
    rep.op("fof-axes");
    let grid_cases = fof_grid_cases()
        .into_iter()
        .map(|c| (c.name, c.positions, vec![c.link], c.box_size));
    let patch_cases = inputs::coord_cases()
        .into_iter()
        .chain(fof_patch_cases())
        .map(|c| (c.name.to_string(), c.data, vec![0.25, 0.7, 4.0], 8.0));
    let chains = ("seam_chains".to_string(), seam_chains(), vec![0.25], 8.0);
    for (name, positions, links, side) in grid_cases.chain(patch_cases).chain([chains]) {
        for wraps in PERIODIC_AXIS_SETS {
            let periods = wraps.map(|w| w.then_some(side));
            let k = wraps.iter().filter(|&&w| w).count() as u32;
            let keep = (FOF_AXES_IMAGE_ROWS / 3usize.pow(k)).min(positions.len());
            let points: Vec<[f64; 3]> = positions[..keep]
                .iter()
                .map(|p| {
                    std::array::from_fn(|d| match periods[d] {
                        Some(side) if p[d].is_finite() => p[d].rem_euclid(side),
                        _ => p[d],
                    })
                })
                .collect();
            for &link in &links {
                rep.check_eq(
                    "fof-axes",
                    &format!("{name}/wraps={wraps:?}/link={link}"),
                    "csr-engine",
                    &fof_periodic_images_ref(&points, link, periods),
                    &fof_cells(&points, link, periods),
                );
            }
        }
    }
    for (name, patch, periods) in rank_patch_cases() {
        rep.check_eq(
            "fof-axes",
            &format!("rank_patch/{name}"),
            "csr-engine",
            &fof_periodic_images_ref(&patch, 0.45, periods),
            &fof_cells(&patch, 0.45, periods),
        );
    }

    // --- mbp-cols --------------------------------------------------------
    rep.op("mbp-cols");
    let softening = 1e-3;
    // O(n²): of the adversarial corpus the grain cases are plenty; they and
    // everything smaller are dispatched inline, the halos through the pool.
    let mbp_cases = inputs::particle_cases()
        .into_iter()
        .filter(|c| !c.data.is_empty() && c.data.len() <= 1025)
        .chain(mbp_halo_cases());
    for case in mbp_cases {
        let coords = Coords::from_particles(&case.data);
        let masses: Vec<f64> = case.data.iter().map(|p| p.mass as f64).collect();
        // Per-particle potentials: blocked column sweep vs scalar loop.
        let stride = (case.data.len() / 64).max(1);
        for i in (0..case.data.len()).step_by(stride) {
            let scalar = potential_scalar_ref(&case.data, i, softening);
            let blocked = potential_at(&coords, &masses, i, softening);
            rep.check_f64_scalar(
                Cmp::BitEq,
                "mbp-cols",
                &format!("potential/{}/i={i}", case.name),
                "cols-engine",
                scalar,
                blocked,
            );
        }
        // The argmin against a sequential scan under the documented order
        // (NaN last, the first of equal minima) …
        let reference = mbp_brute_cols(&Serial, &coords, &masses, softening);
        let mut first_min = (0, potential_at(&coords, &masses, 0, softening));
        for i in 1..case.data.len() {
            let p = potential_at(&coords, &masses, i, softening);
            if (first_min.1.is_nan() && !p.is_nan()) || p < first_min.1 {
                first_min = (i, p);
            }
        }
        rep.check_eq(
            "mbp-cols",
            &format!("first-min/{}", case.name),
            "serial",
            &(first_min.0, first_min.1.to_bits()),
            &(reference.index, reference.potential.to_bits()),
        );
        // … and on every backend (indices and potential bits).
        for (name, b) in &backends {
            let got = mbp_brute_cols(b.as_ref(), &coords, &masses, softening);
            rep.check_eq(
                "mbp-cols",
                &format!("argmin/{}", case.name),
                name,
                &(reference.index, reference.potential.to_bits()),
                &(got.index, got.potential.to_bits()),
            );
        }
    }

    // --- fft3d-tiled -----------------------------------------------------
    // Shapes: every axis shorter than, equal to and longer than a tile of
    // strided lines, non-cubic included; 64³ is the production mesh.
    rep.op("fft3d-tiled");
    // The references are the previous passes, not the `Serial` backend, so
    // `Serial` is one more backend under test here too.
    let mut rng = StdRng::seed_from_u64(0x000F_F73D);
    for dims in [[8usize, 4, 16], [16, 16, 16], [64, 64, 64], [4, 4, 2]] {
        let plan = Fft3d::new(dims).expect("power-of-two dims");
        let input: Vec<Complex> = (0..dims.iter().product::<usize>())
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        for inverse in [false, true] {
            let dir = if inverse { "inverse" } else { "forward" };
            let mut reference = Grid3::from_vec(dims, input.clone());
            fft3d_line_ref(&Serial, &mut reference, inverse);
            let reference = re_im(&reference);
            for &(name, b) in &with_serial {
                let mut got = Grid3::from_vec(dims, input.clone());
                if inverse {
                    plan.inverse(b, &mut got).expect("planned dims");
                } else {
                    plan.forward(b, &mut got).expect("planned dims");
                }
                rep.check_f64_slice(
                    Cmp::BitEq,
                    "fft3d-tiled",
                    &format!("{dir}/{dims:?}"),
                    name,
                    &reference,
                    &re_im(&got),
                );
            }
        }
    }

    // The real transform against rows and lines one at a time, over the
    // rfft3d shapes; at 64³ the half spectrum's stride of 33 lines is
    // batches of 16, 16 and 1.
    for dims in [
        [2usize, 2, 2],
        [4, 2, 8],
        [8, 4, 16],
        [16, 16, 16],
        [64, 64, 64],
    ] {
        let n = dims.iter().product::<usize>();
        let real = Grid3::from_vec(dims, (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect());
        let plan = RealFft3d::new(dims).expect("power-of-two dims");
        let forward = rfft3d_line_ref(&real, None);
        let inverse = rfft3d_line_ref(&real, Some(forward.clone()));
        let inverse: Vec<f64> = inverse.as_slice().iter().map(|z| z.re).collect();
        for &(name, b) in &with_serial {
            let got = plan.forward(b, &real).expect("planned dims");
            let case = format!("half-spectrum/r2c/{dims:?}");
            rep.check_f64_slice(
                Cmp::BitEq,
                "fft3d-tiled",
                &case,
                name,
                &re_im(&forward),
                &re_im(&got),
            );
            let got = plan.inverse(b, forward.clone()).expect("planned dims");
            let case = format!("half-spectrum/c2r/{dims:?}");
            rep.check_f64_slice(
                Cmp::BitEq,
                "fft3d-tiled",
                &case,
                name,
                &inverse,
                got.as_slice(),
            );
            let mut kept = forward.clone();
            plan.inverse_in_place(b, &mut kept).expect("planned dims");
            let rows = kept.as_reals().chunks_exact(2 * (dims[2] / 2 + 1));
            let got: Vec<f64> = rows.flat_map(|row| &row[..dims[2]]).copied().collect();
            let case = format!("half-spectrum/c2r-in-place/{dims:?}");
            rep.check_f64_slice(Cmp::BitEq, "fft3d-tiled", &case, name, &inverse, &got);
        }
    }

    // --- rfft3d ----------------------------------------------------------
    // Shapes: the smallest plan (one complex point per packed row), a z
    // axis of two points, non-cubic, every strided axis shorter and longer
    // than a tile, and the production mesh. The direct sums are O(N²), so
    // only the two smallest shapes get them.
    rep.op("rfft3d");
    for dims in [
        [2usize, 2, 2],
        [4, 2, 8],
        [8, 4, 16],
        [16, 16, 16],
        [64, 64, 64],
    ] {
        let n = dims.iter().product::<usize>();
        let plan = RealFft3d::new(dims).expect("power-of-two dims");
        let complex = Fft3d::new(dims).expect("power-of-two dims");
        let real = Grid3::from_vec(dims, (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect());
        let half = hermitian_half(dims, &mut rng);
        let forward = plan.forward(&Serial, &real).expect("planned dims");
        let inverse = plan.inverse(&Serial, half.clone()).expect("planned dims");

        // The complex transform of the promoted grid, cut to the stored half,
        // and `Re` of the complex inverse of the extended spectrum.
        let promoted = real.as_slice().iter().map(|&v| Complex::from_real(v));
        let promoted = Grid3::from_vec(dims, promoted.collect());
        let extended = hermitian_extend(&half, dims);
        let (mut full, mut back) = (promoted.clone(), extended.clone());
        complex.forward(&Serial, &mut full).expect("planned dims");
        complex.inverse(&Serial, &mut back).expect("planned dims");
        let cut = |g: &Grid3<Complex>| {
            let rows = g.as_slice().chunks_exact(g.dims()[2]);
            re_im(&Grid3::from_vec(
                plan.spectrum_dims(),
                rows.flat_map(|row| &row[..=dims[2] / 2]).copied().collect(),
            ))
        };
        let re = |g: &Grid3<Complex>| g.as_slice().iter().map(|z| z.re).collect::<Vec<_>>();
        let mut references = vec![("complex", cut(&full), re(&back))];
        if n <= 64 {
            let direct_forward = dft3_direct(&promoted, false, dims[2] / 2 + 1);
            let direct_inverse = dft3_direct(&extended, true, dims[2]);
            references.push(("direct", re_im(&direct_forward), re(&direct_inverse)));
        }
        for (oracle, r2c, c2r) in references {
            rep.check_f64_slice(
                Cmp::Approx,
                "rfft3d",
                &format!("r2c-vs-{oracle}/{dims:?}"),
                "serial",
                &r2c,
                &re_im(&forward),
            );
            rep.check_f64_slice(
                Cmp::Approx,
                "rfft3d",
                &format!("c2r-vs-{oracle}/{dims:?}"),
                "serial",
                &c2r,
                inverse.as_slice(),
            );
        }
        for &(name, b) in &with_serial {
            let got = plan.forward(b, &real).expect("planned dims");
            rep.check_f64_slice(
                Cmp::BitEq,
                "rfft3d",
                &format!("r2c-backends/{dims:?}"),
                name,
                &re_im(&forward),
                &re_im(&got),
            );
            let got = plan.inverse(b, half.clone()).expect("planned dims");
            rep.check_f64_slice(
                Cmp::BitEq,
                "rfft3d",
                &format!("c2r-backends/{dims:?}"),
                name,
                inverse.as_slice(),
                got.as_slice(),
            );
        }
    }

    // --- poisson-kspace --------------------------------------------------
    rep.op("poisson-kspace");
    for ng in [8usize, 32] {
        let delta = Grid3::from_vec(
            [ng, ng, ng],
            (0..ng * ng * ng)
                .map(|_| rng.gen_range(-1.0..3.0))
                .collect(),
        );
        let prefactor = 1.5 / 0.37;
        let serial = poisson_accel(&Serial, &delta, prefactor);
        let reference = poisson_three_sweep_ref(&Serial, &delta, prefactor);
        for axis in 0..3 {
            rep.check_f64_slice(
                Cmp::Approx,
                "poisson-kspace",
                &format!("ng={ng}/g{axis}/vs-complex"),
                "serial",
                reference[axis].as_slice(),
                serial[axis].as_slice(),
            );
        }
        for &(name, b) in &with_serial {
            let got = poisson_accel(b, &delta, prefactor);
            for axis in 0..3 {
                rep.check_f64_slice(
                    Cmp::BitEq,
                    "poisson-kspace",
                    &format!("ng={ng}/g{axis}"),
                    name,
                    serial[axis].as_slice(),
                    got[axis].as_slice(),
                );
            }
        }
    }

    // --- massfn-sample ---------------------------------------------------
    // One family on one thread: the sampler has no backend.
    rep.op("massfn-sample");
    let flat_top = MassFunction::new(1.9, 1e6, 40.0, 1e9);
    assert!(
        flat_top.cdf().iter().filter(|&&c| c == 1.0).count() > 1,
        "massfn-sample: the flat-top case lost its run of exact 1.0 entries"
    );
    let mass_functions = [
        ("q-continuum", MassFunction::q_continuum()),
        ("steep-head", MassFunction::new(3.0, 1e5, 40.0, 1e8)),
        ("flat-top", flat_top),
    ];
    let mut rng = StdRng::seed_from_u64(0x3A55_F00D);
    for (name, mf) in &mass_functions {
        let cdf = mf.cdf();
        let probe_sets = [
            (
                "cdf-entries",
                cdf.iter()
                    .flat_map(|&c| [c.next_down(), c, c.next_up()])
                    .filter(|&u| u <= 1.0)
                    .collect::<Vec<f64>>(),
            ),
            (
                "bucket-edges",
                (0..=GUIDE_BUCKETS)
                    .map(|b| b as f64 / GUIDE_BUCKETS as f64)
                    .collect(),
            ),
            ("ends", vec![0.0, 1.0f64.next_down()]),
            (
                "uniform",
                (0..100_000).map(|_| rng.gen_range(0.0..1.0)).collect(),
            ),
        ];
        for (set, probes) in probe_sets {
            let first_miss = probes
                .iter()
                .map(|&u| (u, massfn_bin_ref(cdf, u), mf.bin_of(u)))
                .find(|(_, want, got)| want != got);
            rep.check_eq(
                "massfn-sample",
                &format!("{name}/bin_of/{set}"),
                "serial",
                &None,
                &first_miss,
            );
        }
        // Draw for draw, and the generators left in the same state.
        let seed = rng.next_u64();
        let (mut want_rng, mut got_rng) =
            (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        let want = massfn_sample_ref(mf, &mut want_rng, 100_000);
        let got = mf.sample_many(&mut got_rng, 100_000);
        rep.check_eq(
            "massfn-sample",
            &format!("{name}/sample_many"),
            "serial",
            &want,
            &got,
        );
        // The split, inside the first bin, and just below the first exact 1.
        let top = cdf.iter().position(|&c| c == 1.0).unwrap_or(cdf.len() - 1);
        for m_lo in [300_000.0, 40.5, mf.grid()[top] * 0.999] {
            let want = massfn_sample_above_ref(mf, &mut want_rng, 100_000, m_lo);
            let got = mf.sample_many_above(&mut got_rng, 100_000, m_lo);
            let case = format!("{name}/sample_many_above/{m_lo}");
            rep.check_eq("massfn-sample", &case, "serial", &want, &got);
        }
        rep.check_eq(
            "massfn-sample",
            &format!("{name}/stream"),
            "serial",
            &want_rng.next_u64(),
            &got_rng.next_u64(),
        );
    }

    rep
}

/// Convenience wrapper asserting a clean, fully covering layout run with
/// more than zero checks per rewritten kernel.
pub fn assert_layout_conformance() -> DiffReport {
    let rep = run_layout_differential();
    rep.assert_clean_and_covering(&REQUIRED_KERNELS);
    for kernel in REQUIRED_KERNELS {
        let n = rep.checks_by_op.get(kernel).copied().unwrap_or(0);
        assert!(n > 0, "layout differential ran zero checks for `{kernel}`");
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(n: usize) -> Vec<Particle> {
        (0..n)
            .map(|i| {
                let t = 41.1 + i as f64;
                let c = |f: f64| (((t * f).fract() - 0.5) * 4.0) as f32;
                Particle::at_rest([c(0.618), c(0.414), c(0.732)], 1.0, i as u64)
            })
            .collect()
    }

    fn assert_potentials_match(parts: &[Particle], probes: impl Iterator<Item = usize>) {
        let coords = Coords::from_particles(parts);
        let masses: Vec<f64> = parts.iter().map(|p| p.mass as f64).collect();
        for i in probes {
            let a = potential_scalar_ref(parts, i, 1e-3);
            let b = potential_at(&coords, &masses, i, 1e-3);
            assert_eq!(a.to_bits(), b.to_bits(), "n={} i={i}", parts.len());
        }
    }

    #[test]
    fn deposit_of_a_coordinate_wrapping_to_ng_puts_it_at_the_origin() {
        // Regression: `−f32::from_bits(1)` scales and wraps to exactly `ng`,
        // which indexed one plane past the mesh ("len is 512 but the index is
        // 512"). It is the origin, offset 0. One particle takes the deposit's
        // scalar tail, 64 its block.
        let wrapping = Particle::at_rest([-f32::from_bits(1), 1.0, 1.0], 1.0, 0);
        for n in [1usize, 64] {
            let parts = vec![wrapping; n];
            let soa = ParticleSoA::from_aos(&parts);
            let want = cic_deposit_exact_ref(&parts, 8, 8.0);
            let got = cic_deposit_soa(&Serial, &soa, 8, 8.0);
            let bits =
                |g: &Grid3<f64>| g.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&want), bits(&got), "n={n}");
        }
    }

    #[test]
    fn blocked_potential_matches_scalar_across_lane_boundaries() {
        // Lengths straddle the kernel's strip width so full strips, partial
        // tails, and a self term in either are all hit.
        for n in [1usize, 7, 8, 9, 15, 16, 17, 63, 64, 65, 300] {
            assert_potentials_match(&blob(n), [0, n / 2, n - 1].into_iter());
        }
    }

    #[test]
    fn blocked_potential_handles_nan_positions_in_full_strips() {
        // The corpus' `specials` case is shorter than one strip; this puts
        // non-finite positions inside the blocked path too.
        let mut parts = blob(40);
        parts[3].pos[0] = f32::NAN;
        parts[17].pos[1] = -f32::NAN;
        parts[25].pos[2] = f32::INFINITY;
        parts[31].pos[0] = -0.0;
        assert_potentials_match(&parts, 0..40);
    }

    #[test]
    fn groups_of_at_least_is_members_by_group_filtered() {
        for case in fof_grid_cases() {
            let labels = fof_grid(&case.positions, case.link, case.box_size);
            for min_size in [0usize, 1, 2, 20] {
                let expect: Vec<Vec<u32>> = halo::members_by_group(&labels)
                    .into_iter()
                    .filter(|g| g.len() >= min_size)
                    .collect();
                assert_eq!(
                    halo::groups_of_at_least(&labels, min_size),
                    expect,
                    "{} min_size={min_size}",
                    case.name
                );
            }
        }
    }

    #[test]
    fn mbp_halo_cases_tie_at_the_minimum() {
        for case in mbp_halo_cases() {
            let pair = case.data.iter().position(|p| p.mass == 64.0).unwrap();
            let coords = Coords::from_particles(&case.data);
            let masses: Vec<f64> = case.data.iter().map(|p| p.mass as f64).collect();
            let pots: Vec<f64> = (0..case.data.len())
                .map(|i| potential_at(&coords, &masses, i, 1e-3))
                .collect();
            assert_eq!(
                pots[pair].to_bits(),
                pots[pair + 1].to_bits(),
                "{}",
                case.name
            );
            assert!(
                pots.iter().all(|p| pots[pair] <= *p),
                "{}: the tied pair must be the most bound",
                case.name
            );
        }
    }

    #[test]
    fn required_kernels_all_have_checks() {
        let rep = assert_layout_conformance();
        assert!(rep.checks > 100, "layout corpus collapsed: {}", rep.checks);
    }
}
