//! Particle-mesh gravity: CIC deposit, k-space Poisson solve, CIC force
//! gather. All mesh quantities live in *grid units* (cell = 1).
//!
//! There is one CIC deposit body: `deposit_chunk` hands each particle's eight
//! corner terms to an integer grid, so the deposit does not depend on the
//! particle order or the worker count. [`cic_deposit_exact`] is it over the
//! whole mesh (every analysis; [`cic_deposit_soa`] is the same call behind a
//! [`ParticleSoA`]). `δ` is real, so the solve is one real-to-complex
//! transform to the `ng·ng·(ng/2 + 1)` half spectrum, one parallel pass over
//! it producing all three `g_k` (each zeroed on its Nyquist plane — see
//! `gradient_spectra`), and three complex-to-real transforms
//! ([`fft::RealFft3d`]), each in place — `δ` itself is written into the
//! third spectrum; [`poisson_accel`] is the one-shot form, which closes the
//! force grids' rows up. The force mesh is then read once, where it lies:
//! [`gather_accel`] computes a particle's cell and weights once, in blocks
//! with the deposit's vector phase, and accumulates all three components —
//! what the stepper keeps is the gathered per-particle acceleration.
//! [`cic_interpolate`] is the one-component scalar reference the gather is
//! held bit-equal to.

use crate::particle::Particle;
use crate::soa::{ParticleSoA, PosColumns};
use dpp::{Backend, SendPtr, DEFAULT_GRAIN};
use fft::{freq_index, Complex, Grid3, RealFft3d};
use parking_lot::Mutex;

/// Convert a position in box units (Mpc/h) to grid units for mesh size `ng`.
#[inline]
fn to_grid_units(pos: f32, box_size: f64, ng: usize) -> f64 {
    let u = pos as f64 / box_size * ng as f64;
    // Wrap defensively: positions should already be in [0, box_size).
    u.rem_euclid(ng as f64)
}

/// Bit-identical form of `u.rem_euclid(period)` ([`to_grid_units`]' wrap for
/// an already-scaled grid coordinate, the drift's for a position):
/// `fmod(u, period) == u` exactly whenever `0 ≤ u < period` (including −0.0
/// and denormals), and NaN fails the range test into the slow path, so both
/// branches return the same bits as an unconditional `rem_euclid` for every
/// possible input. The deposit, the gather and the drift use this to keep the
/// `fmod` libcall off their hot paths.
#[inline]
pub(crate) fn wrap_periodic(u: f64, period: f64) -> f64 {
    if (0.0..period).contains(&u) {
        u
    } else {
        u.rem_euclid(period)
    }
}

/// Particles per block in the two-phase SoA deposit and the gather. Sized so
/// the per-block scratch (ten 64-lane arrays, 4.3 KiB) stays within a
/// fraction of L1.
const CIC_BLOCK: usize = 64;

/// The one CIC chunk body: hand each of particles `[r.start, r.end)` to
/// `sink` as its eight corner cells and terms (see `corners`). A coordinate
/// that wraps to exactly `ng` (a negative one too small to move `ng`) is the
/// box origin, offset 0, so every weight lies in `[0, 1]`.
///
/// Particles go in blocks of `CIC_BLOCK`. Phase one sweeps the columns in
/// three vectorizable passes: (a) `pos / box · ng`, (b) a block-level range
/// check that only falls back to the scalar `rem_euclid` wrap when some lane
/// is out of `[0, ng)` (bit-identical either way — see `wrap_periodic`), and
/// (c) truncation to cell indices through `i32` (packed on plain SSE2 where
/// a 64-bit cast is not; NaN → 0) plus fractional offsets. Phase two
/// scatters the eight corners per particle.
///
/// The mass comes in scaled by the grid's `2^e`, so each corner term is
/// `(((m·2^e)·wx)·wy)·wz`: `((m·wx)·wy)·wz` times `2^e` bit for bit wherever
/// both products stay normal — a power of two commutes with every rounding —
/// and below `1` in magnitude, so truncated to the same `0`, where either
/// meets a subnormal (an unscaled term under `2^−1022` is under
/// `2^(−1022 + e)` scaled, and `e ≤ 206`).
fn deposit_chunk(
    pos: PosColumns<'_>,
    masses: &[f32],
    r: std::ops::Range<usize>,
    ng: usize,
    box_size: f64,
    sink: &mut ExactGrid,
) {
    let (px, py, pz) = (pos.x, pos.y, pos.z);
    let ngf = ng as f64;
    let scale = sink.scale;
    // Per-block scratch lanes (stack-resident).
    let mut ux = [0.0f64; CIC_BLOCK];
    let mut uy = [0.0f64; CIC_BLOCK];
    let mut uz = [0.0f64; CIC_BLOCK];
    let mut ix = [0i32; CIC_BLOCK];
    let mut iy = [0i32; CIC_BLOCK];
    let mut iz = [0i32; CIC_BLOCK];
    let mut fx = [0.0f64; CIC_BLOCK];
    let mut fy = [0.0f64; CIC_BLOCK];
    let mut fz = [0.0f64; CIC_BLOCK];
    let mut mm = [0.0f64; CIC_BLOCK];
    let mut base = r.start;
    while base + CIC_BLOCK <= r.end {
        let pxw: &[f32; CIC_BLOCK] = px[base..base + CIC_BLOCK].try_into().unwrap();
        let pyw: &[f32; CIC_BLOCK] = py[base..base + CIC_BLOCK].try_into().unwrap();
        let pzw: &[f32; CIC_BLOCK] = pz[base..base + CIC_BLOCK].try_into().unwrap();
        let mw: &[f32; CIC_BLOCK] = masses[base..base + CIC_BLOCK].try_into().unwrap();
        // Phase 1a: scale to grid units (convert/divide/multiply lanes).
        for k in 0..CIC_BLOCK {
            ux[k] = pxw[k] as f64 / box_size * ngf;
            uy[k] = pyw[k] as f64 / box_size * ngf;
            uz[k] = pzw[k] as f64 / box_size * ngf;
            mm[k] = mw[k] as f64 * scale;
        }
        // Phase 1b: the periodic wrap. In-range lanes pass through
        // unchanged (exactly what `rem_euclid` would return), so the
        // whole block is checked with vector compares and the `fmod`
        // fix-up only runs for out-of-box or non-finite positions.
        let in_range = in_box(&ux, &uy, &uz, ngf);
        if !in_range {
            for k in 0..CIC_BLOCK {
                ux[k] = wrap_grid(ux[k], ngf, true);
                uy[k] = wrap_grid(uy[k], ngf, true);
                uz[k] = wrap_grid(uz[k], ngf, true);
            }
        }
        // Phase 1c: every lane is now in `[0, ng)` or NaN (cell 0).
        cells_of(&ux, &mut ix, &mut fx, in_range);
        cells_of(&uy, &mut iy, &mut fy, in_range);
        cells_of(&uz, &mut iz, &mut fz, in_range);
        // Phase 2: scatter eight corners per particle.
        for k in 0..CIC_BLOCK {
            let cell = |i: i32, f: f64| (i as usize, f);
            let axes = [cell(ix[k], fx[k]), cell(iy[k], fy[k]), cell(iz[k], fz[k])];
            let (cells, terms, finite) = corners(axes, mm[k], ng);
            sink.add(cells, terms, finite);
        }
        base += CIC_BLOCK;
    }
    // Tail (< CIC_BLOCK particles): same math per particle, scalar.
    for j in base..r.end {
        let axes = [px[j], py[j], pz[j]].map(|p| grid_cell(p, box_size, ng, true));
        let (cells, terms, finite) = corners(axes, masses[j] as f64 * scale, ng);
        sink.add(cells, terms, finite);
    }
}

/// Every lane of a block's scaled coordinates is in `[0, ngf)` (a NaN is
/// not): one vectorizable pass of compares.
#[inline(always)]
fn in_box(ux: &[f64; CIC_BLOCK], uy: &[f64; CIC_BLOCK], uz: &[f64; CIC_BLOCK], ngf: f64) -> bool {
    let mut in_range = true;
    for k in 0..CIC_BLOCK {
        in_range &= (ux[k] >= 0.0)
            & (ux[k] < ngf)
            & (uy[k] >= 0.0)
            & (uy[k] < ngf)
            & (uz[k] >= 0.0)
            & (uz[k] < ngf);
    }
    in_range
}

/// A block's cells and offsets along one axis from its wrapped coordinates
/// (each in `[0, ng)`, or NaN): `cell = u as i32` (NaN → 0) and `off = u −
/// cell`. When `in_range` says every lane is in `[0, ng)` the truncation is
/// the unchecked one, the same value as a packed conversion; otherwise the
/// saturating cast.
#[inline(always)]
fn cells_of(
    u: &[f64; CIC_BLOCK],
    cell: &mut [i32; CIC_BLOCK],
    off: &mut [f64; CIC_BLOCK],
    in_range: bool,
) {
    if in_range {
        for k in 0..CIC_BLOCK {
            // SAFETY: `0 ≤ u < ng ≤ i32::MAX`, so `u` truncates into range.
            cell[k] = unsafe { u[k].to_int_unchecked::<i32>() };
        }
    } else {
        for k in 0..CIC_BLOCK {
            cell[k] = u[k] as i32;
        }
    }
    for k in 0..CIC_BLOCK {
        off[k] = u[k] - cell[k] as f64;
    }
}

/// A particle's eight corner cells and terms, in `(dx, dy, dz)` order with
/// `((m·wx)·wy)·wz` association, from its base cell and offset per axis, and
/// whether its mass and offsets, so every term, are finite. The `+1`
/// neighbour wraps to 0 at `ng` in y and z; in x it never wraps — the grid's
/// ghost plane takes it.
#[inline(always)]
fn corners(axes: [(usize, f64); 3], m: f64, ng: usize) -> ([usize; 8], [f64; 8], bool) {
    let next = |i: usize| if i + 1 == ng { 0 } else { i + 1 };
    let [(x, dx), (y, dy), (z, dz)] = axes;
    let (x, y, z) = ([x, x + 1], [y, next(y)], [z, next(z)]);
    let (wx, wy, wz) = ([1.0 - dx, dx], [1.0 - dy, dy], [1.0 - dz, dz]);
    let (mut cells, mut terms) = ([0; 8], [0.0; 8]);
    for k in 0..8 {
        let (a, b, c) = (k >> 2, k >> 1 & 1, k & 1);
        cells[k] = (x[a] * ng + y[b]) * ng + z[c];
        terms[k] = m * wx[a] * wy[b] * wz[c];
    }
    // A finite `m` (an `f32` times `2^e`, under `2^62`) plus offsets in
    // `[0, 1]` cannot overflow, and any NaN or infinity among them leaves
    // the sum non-finite.
    let finite = (m + wx[1] + wy[1] + wz[1]).is_finite();
    (cells, terms, finite)
}

/// `wrap_periodic(u, ngf)`, and `ngf` itself to `0` when `ng_is_origin`.
#[inline(always)]
fn wrap_grid(u: f64, ngf: f64, ng_is_origin: bool) -> f64 {
    let u = wrap_periodic(u, ngf);
    if ng_is_origin && u == ngf {
        0.0
    } else {
        u
    }
}

/// The bits of the largest finite `|m|` (`|m|`'s bits order as its value),
/// `0` when there is none.
fn max_abs_mass_bits(masses: &[f32]) -> u32 {
    let abs_bits = masses.iter().map(|m| m.to_bits() & 0x7fff_ffff);
    abs_bits.filter(|&b| b < 0x7f80_0000).max().unwrap_or(0)
}

/// The quantum exponent of an exact deposit of `n` particles whose largest
/// finite `|m|` has the bits `max_bits`: `e` with `8·n·M·2^e < 2^62`, or `0`
/// when there is no such mass. A function of the mass multiset only.
fn exact_scale_exponent(n: u64, max_bits: u32) -> i32 {
    if max_bits == 0 {
        return 0;
    }
    // `8·n·M` is normal and at most one rounding below its true value, so
    // with `2^p ≤ bound < 2^(p+1)` the true value is `< 2^(p+1)·(1 + 2⁻⁵³)`
    // and `e = 60 − p` leaves it under `2^62`.
    let bound = 8.0 * n as f64 * f64::from(f32::from_bits(max_bits));
    let p = ((bound.to_bits() >> 52) & 0x7ff) as i32 - 1023;
    60 - p
}

/// A non-finite corner term's class bits: the classes of a cell combine by
/// `|`, which no order can change.
const NAN_CLASS: u8 = 1;
const POS_INF: u8 = 2;
const NEG_INF: u8 = 4;

/// An exact deposit's integer grid: the mesh's `ng` x-planes, then a ghost
/// plane that takes the `+1` x-corners of the last one until `fold_ghost`
/// adds it into the first, so the x-neighbour never wraps and costs no
/// division. A finite term, scaled by `scale = 2^e`, is truncated toward zero
/// and summed per cell; a non-finite one is its cell's class.
struct ExactGrid {
    sums: Vec<i64>,
    nonfinite: Vec<(usize, u8)>,
    e: i32,
    scale: f64,
    ng: usize,
}

impl ExactGrid {
    /// The zero grid of an `ng³` mesh at exponent `e`.
    fn new(ng: usize, e: i32) -> Self {
        ExactGrid {
            sums: vec![0; (ng + 1) * ng * ng],
            nonfinite: Vec::new(),
            e,
            scale: 2f64.powi(e),
            ng,
        }
    }

    /// Add the scaled `terms[k]` to cell `cells[k]`, `k` in order; `finite`
    /// says every term is.
    #[inline(always)]
    fn add(&mut self, cells: [usize; 8], terms: [f64; 8], finite: bool) {
        // SAFETY (both casts): a finite term has `|t| ≤ M·2^e < 2^62`, in
        // range, as `e` was taken from the largest `|m|` `M` of the set.
        if finite {
            for (c, t) in cells.into_iter().zip(terms) {
                self.sums[c] += unsafe { t.to_int_unchecked::<i64>() };
            }
            return;
        }
        for (c, t) in cells.into_iter().zip(terms) {
            if t.is_finite() {
                self.sums[c] += unsafe { t.to_int_unchecked::<i64>() };
            } else if t.is_nan() {
                self.nonfinite.push((c, NAN_CLASS));
            } else {
                let class = if t > 0.0 { POS_INF } else { NEG_INF };
                self.nonfinite.push((c, class));
            }
        }
    }

    /// Add the ghost plane into the first plane — its sums as integers, its
    /// non-finite entries moved to their cells there — and drop it.
    fn fold_ghost(&mut self) {
        let own_cells = self.ng * self.ng * self.ng;
        let (own, ghost) = self.sums.split_at_mut(own_cells);
        for (q, g) in own.iter_mut().zip(ghost) {
            *q += *g;
        }
        self.sums.truncate(own_cells);
        for (c, _) in &mut self.nonfinite {
            if *c >= own_cells {
                *c -= own_cells;
            }
        }
    }

    /// The overdensity `δ = ρ/ρ̄ − 1` of the folded cells (`ρ` when the mean
    /// is not positive) into the `ng³` cells `delta`, in one pass: `ρ =
    /// q·2^−e`, or its class's value — NaN if any term is NaN or both
    /// infinities meet, else the infinity — and `ρ̄` the integer total over
    /// the `ng³` cells.
    fn overdensity_into(mut self, delta: &mut [f64]) {
        assert_eq!(delta.len(), self.sums.len(), "the deposit mesh must be ng³");
        let total: i64 = self.sums.iter().sum();
        let quantum = 2f64.powi(-self.e);
        let mean = total as f64 * quantum / self.sums.len() as f64;
        let delta_of = |rho: f64| if mean > 0.0 { rho / mean - 1.0 } else { rho };
        for (d, &q) in delta.iter_mut().zip(&self.sums) {
            *d = delta_of(q as f64 * quantum);
        }
        self.nonfinite.sort_unstable();
        for run in self.nonfinite.chunk_by(|a, b| a.0 == b.0) {
            delta[run[0].0] = delta_of(match run.iter().fold(0, |acc, &(_, class)| acc | class) {
                POS_INF => f64::INFINITY,
                NEG_INF => f64::NEG_INFINITY,
                _ => f64::NAN,
            });
        }
    }
}

/// The folded integer grid of an exact deposit: a dense [`ExactGrid`] per
/// worker chunk, summed as integers into one, its ghost plane folded.
fn exact_sums(
    backend: &dyn Backend,
    pos: PosColumns<'_>,
    masses: &[f32],
    ng: usize,
    box_size: f64,
) -> ExactGrid {
    let _span = telemetry::span!("nbody", "cic_deposit_exact", masses.len());
    let n = masses.len();
    assert!(ng <= i32::MAX as usize, "mesh size must fit i32 indices");
    let lengths = [pos.x.len(), pos.y.len(), pos.z.len()];
    assert!(lengths == [n; 3], "deposit columns differ in length");
    let e = exact_scale_exponent(n as u64, max_abs_mass_bits(masses));
    let grids: Mutex<Vec<ExactGrid>> = Mutex::new(Vec::new());
    let grain = (n / backend.concurrency().max(1)).max(4096);
    backend.dispatch(n, grain, &|r| {
        let mut grid = ExactGrid::new(ng, e);
        deposit_chunk(pos, masses, r, ng, box_size, &mut grid);
        grids.lock().push(grid);
    });
    let mut grids = grids.into_inner();
    let mut sum = grids.pop().unwrap_or_else(|| ExactGrid::new(ng, e));
    for grid in grids {
        for (s, q) in sum.sums.iter_mut().zip(&grid.sums) {
            *s += q;
        }
        sum.nonfinite.extend(grid.nonfinite);
    }
    sum.fold_ghost();
    sum
}

/// Cloud-in-cell deposit of particle mass onto an `ng³` mesh, returning the
/// *overdensity* field `δ = ρ/ρ̄ − 1` (`ρ` when the mean is not positive).
/// The grid is a function of the particle multiset alone — the same bits in
/// any particle order, chunking, backend or worker count.
///
/// Every finite corner term `m·wx·wy·wz` is scaled by `2^e`,
/// `8·n·max|m|·2^e < 2^62`, and truncated to an `i64`, in a dense integer
/// grid per worker chunk; the grids and the mean come from integer sums, so
/// they cannot overflow and do not depend on order. A NaN or infinite term
/// marks its cell instead. The quantum costs at most `n·2⁻⁵⁴` relative on a
/// cell at the mean density of equal masses (DESIGN.md §15). The stepper's
/// solve writes the same `δ` into a half spectrum's storage.
pub fn cic_deposit_exact(
    backend: &dyn Backend,
    pos: PosColumns<'_>,
    masses: &[f32],
    ng: usize,
    box_size: f64,
) -> Grid3<f64> {
    let sums = exact_sums(backend, pos, masses, ng, box_size);
    let mut delta = Grid3::filled([ng; 3], 0.0);
    sums.overdensity_into(delta.as_mut_slice());
    delta
}

/// [`cic_deposit_exact`] over a [`ParticleSoA`]'s position and mass columns.
pub fn cic_deposit_soa(
    backend: &dyn Backend,
    particles: &ParticleSoA,
    ng: usize,
    box_size: f64,
) -> Grid3<f64> {
    cic_deposit_exact(
        backend,
        particles.positions(),
        particles.mass(),
        ng,
        box_size,
    )
}

/// The k-space Poisson solver for one cubic `ng³` mesh: the real-to-complex
/// FFT plan and the angular-frequency table, kept across solves; every grid
/// of a solve is its own.
pub(crate) struct PoissonSolver {
    plan: RealFft3d,
    /// `2π·freq_index(i, ng)/ng` for every bin `i` (the mesh is cubic, so
    /// one table serves all three axes).
    k: Vec<f64>,
}

impl PoissonSolver {
    /// Solver for an `ng³` mesh (`ng` a power of two, at least 2).
    pub(crate) fn new(ng: usize) -> Self {
        PoissonSolver {
            plan: RealFft3d::new([ng, ng, ng]).expect("mesh dims must be powers of two ≥ 2"),
            k: grid_wavenumbers(ng),
        }
    }

    /// Three half spectra for [`PoissonSolver::gradient`] to write.
    fn spectra(&self) -> [Grid3<Complex>; 3] {
        std::array::from_fn(|_| Grid3::filled(self.plan.spectrum_dims(), Complex::ZERO))
    }

    /// Deposit `pos` / `masses` exactly ([`cic_deposit_exact`]'s bits) and
    /// solve `∇²φ = prefactor·δ`: the three real force grids
    /// ([`poisson_accel`]'s bits), each left in its half spectrum as
    /// [`ForceGrids`] reads it. The spectra are allocated once the deposit's
    /// integer grids are summed and `δ` is written into the third, so a
    /// solve's peak is the `δ` and three spectra it would otherwise hold.
    pub(crate) fn solve(
        &self,
        backend: &dyn Backend,
        pos: PosColumns<'_>,
        masses: &[f32],
        box_size: f64,
        prefactor: f64,
    ) -> [Grid3<Complex>; 3] {
        let ng = self.k.len();
        let mut spectra = {
            let _span = telemetry::span!("nbody", "deposit");
            let sums = exact_sums(backend, pos, masses, ng, box_size);
            let mut spectra = self.spectra();
            sums.overdensity_into(&mut spectra[2].as_reals_mut()[..ng * ng * ng]);
            spectra
        };
        let _span = telemetry::span!("nbody", "pm_solve");
        self.gradient(backend, prefactor, &mut spectra);
        for g in &mut spectra {
            self.plan
                .inverse_in_place(backend, g)
                .expect("planned dims");
        }
        spectra
    }

    /// The half spectra of `g = −∇φ` for `∇²φ = prefactor·δ` (grid units)
    /// into `spectra`, `δ`'s `ng³` reals coming in `spectra[2]`'s storage
    /// ([`Grid3::as_reals`]): one real-to-complex transform of `δ` into
    /// `spectra[0]`, then one pass over the half spectrum overwriting all
    /// three (`gradient_spectra`, Nyquist rule included).
    fn gradient(&self, backend: &dyn Backend, prefactor: f64, spectra: &mut [Grid3<Complex>; 3]) {
        let cells = self.k.len().pow(3);
        let [delta_k, _, delta] = &mut *spectra;
        let delta = &delta.as_reals()[..cells];
        self.plan
            .forward_into(backend, delta, delta_k)
            .expect("planned dims");
        gradient_spectra(backend, &self.k, prefactor, spectra);
    }
}

/// `2π·freq_index(i, ng)/ng` for every bin `i` of an `ng`-point axis: the
/// grid angular frequencies `gradient_spectra` reads.
fn grid_wavenumbers(ng: usize) -> Vec<f64> {
    let two_pi = 2.0 * std::f64::consts::PI;
    (0..ng)
        .map(|i| two_pi * freq_index(i, ng) as f64 / ng as f64)
        .collect()
}

/// The half spectra of the three components of `g = −∇φ`, `∇²φ =
/// prefactor·δ`, from the half spectrum `δ_k` of a real field on a cubic mesh
/// whose angular frequencies per bin are `k`: `g_d = i·k_d·(prefactor /
/// k²)·δ_k`, zero at `k = 0`. `δ_k` comes in `spec[0]` and is overwritten by
/// `g_x`; every cell of `spec[1]` and `spec[2]` is overwritten too. Each is
/// `[ng, ng, ng/2 + 1]`, x-major.
///
/// Dispatched over the `ng²` rows `(x, y)` — 4 096 at 64³, which clears
/// dpp's small-n inline threshold where `ng` planes would not; per cell it
/// reads `δ_k` once, forms `prefactor / k²` once and writes all three
/// components — the expression, operand for operand, of solving one axis at a
/// time.
///
/// **The Nyquist rule.** `g_d` is zeroed on the plane where `k_d` is the
/// Nyquist frequency (bin `ng/2`). That bin is its own mirror, so the odd
/// factor `i·k_d` leaves `g_d` anti-Hermitian there: its inverse is purely
/// imaginary, and `Re` of the complex inverse — what the full-spectrum solve
/// kept — drops it. A complex-to-real inverse reads only the stored half and
/// would take the plane for half of a Hermitian pair instead (DESIGN.md
/// §"Real fields, half spectra"). The initial conditions' displacement `ψ` is
/// the same pass with `k` in h/Mpc.
pub(crate) fn gradient_spectra(
    backend: &dyn Backend,
    k: &[f64],
    prefactor: f64,
    spec: &mut [Grid3<Complex>; 3],
) {
    let ng = k.len();
    let (nyquist, h) = (ng / 2, ng / 2 + 1);
    for dims in spec.each_ref().map(|g| g.dims()) {
        assert!(
            dims == [ng, ng, h],
            "half spectrum {dims:?} does not fit the {ng}-bin k table"
        );
    }
    let grids = spec
        .each_mut()
        .map(|g| SendPtr(g.as_mut_slice().as_mut_ptr()));
    let rows = ng * ng;
    let grain = (rows / (4 * backend.concurrency().max(1))).max(1);
    backend.dispatch(rows, grain, &|chunk| {
        for row in chunk {
            // SAFETY: row `(x, y)` is the flat range `[row·h, (row+1)·h)` of
            // each grid, in bounds and touched by this chunk only.
            let [gx, gy, gz] =
                [&grids[0], &grids[1], &grids[2]].map(|g| unsafe { g.slice_mut(row * h, h) });
            let (x, y) = (row / ng, row % ng);
            let (kx, ky) = (k[x], k[y]);
            for z in 0..h {
                let kz = k[z];
                let k2 = kx * kx + ky * ky + kz * kz;
                if k2 == 0.0 {
                    (gx[z], gy[z], gz[z]) = (Complex::ZERO, Complex::ZERO, Complex::ZERO);
                    continue;
                }
                // φ_k = −prefactor δ_k / k²; g_k = −i k_d φ_k
                //     = i k_d prefactor δ_k / k².
                let phi_factor = prefactor / k2;
                let d = gx[z];
                let i_d = Complex::new(-d.im, d.re);
                gx[z] = i_d.scale(kx * phi_factor);
                gy[z] = i_d.scale(ky * phi_factor);
                gz[z] = i_d.scale(kz * phi_factor);
            }
            if x == nyquist {
                gx.fill(Complex::ZERO);
            }
            if y == nyquist {
                gy.fill(Complex::ZERO);
            }
            gz[nyquist] = Complex::ZERO;
        }
    });
}

/// Solve `∇²φ = (3 Ω/2a) δ` on the periodic mesh and return the acceleration
/// components `g = −∇φ` as three real grids (grid units).
///
/// `prefactor` is `(3 Ω/2a)`; the Poisson kernel uses the continuum `k²` in
/// grid angular frequencies. The one-shot form of the stepper's solve: the
/// same passes, in three new spectra (`δ` copied into the third) whose
/// storage it returns as the three grids, rows closed up.
pub fn poisson_accel(backend: &dyn Backend, delta: &Grid3<f64>, prefactor: f64) -> [Grid3<f64>; 3] {
    let dims = delta.dims();
    assert!(
        dims[1] == dims[0] && dims[2] == dims[0],
        "mesh must be cubic"
    );
    let _span = telemetry::span!("nbody", "pm_solve");
    let solver = PoissonSolver::new(dims[0]);
    let mut spectra = solver.spectra();
    spectra[2].as_reals_mut()[..delta.len()].copy_from_slice(delta.as_slice());
    solver.gradient(backend, prefactor, &mut spectra);
    spectra.map(|s| solver.plan.inverse(backend, s).expect("planned dims"))
}

/// Trilinear (CIC) interpolation of a mesh field at a position given in box
/// units: one component, one `rem_euclid` per axis, `% ng` per corner. The
/// scalar reference for the gather; no stepper calls it.
#[inline]
pub fn cic_interpolate(field: &Grid3<f64>, pos: [f32; 3], box_size: f64) -> f64 {
    let ng = field.dims()[0];
    let u = [
        to_grid_units(pos[0], box_size, ng),
        to_grid_units(pos[1], box_size, ng),
        to_grid_units(pos[2], box_size, ng),
    ];
    let i = [u[0] as usize % ng, u[1] as usize % ng, u[2] as usize % ng];
    let d = [u[0] - i[0] as f64, u[1] - i[1] as f64, u[2] - i[2] as f64];
    let mut acc = 0.0;
    for (dx, wx) in [(0usize, 1.0 - d[0]), (1, d[0])] {
        for (dy, wy) in [(0usize, 1.0 - d[1]), (1, d[1])] {
            for (dz, wz) in [(0usize, 1.0 - d[2]), (1, d[2])] {
                let x = (i[0] + dx) % ng;
                let y = (i[1] + dy) % ng;
                let z = (i[2] + dz) % ng;
                acc += field.get(x, y, z) * wx * wy * wz;
            }
        }
    }
    acc
}

/// One axis of a particle's CIC stencil, from a position in box units: the
/// base cell and the offset into it. The cell is the deposit's own expression
/// — `wrap_periodic(pos / box · ng)`, truncated — and, without
/// `ng_is_origin`, equals [`cic_interpolate`]'s `rem_euclid` then `% ng` for
/// every input: the wrapped coordinate lies in `[0, ng]` or is NaN (→ cell 0),
/// and `ng` itself (a negative coordinate too small to move `ng`) reduces to
/// cell 0 with offset `ng`, as `% ng` leaves it; with `ng_is_origin`, to
/// offset 0.
#[inline(always)]
fn grid_cell(pos: f32, box_size: f64, ng: usize, ng_is_origin: bool) -> (usize, f64) {
    let ngf = ng as f64;
    let u = wrap_grid(pos as f64 / box_size * ngf, ngf, ng_is_origin);
    let cell = u as usize;
    let cell = if cell == ng { 0 } else { cell };
    (cell, u - cell as f64)
}

/// All three acceleration components of one particle from its base cell and
/// offset per axis, in one pass over its eight corners: every component
/// accumulates `((f·wx)·wy)·wz` per corner in `(dx, dy, dz)` order —
/// operand for operand what three [`cic_interpolate`] calls compute, so each
/// component is bit-equal to its call (`conformance::layout`, `cic-gather`).
/// A `+1` neighbour past the last plane wraps to plane 0, as `% ng` does.
#[inline(always)]
fn gather_corners(force: &ForceGrids<'_>, axes: [(usize, f64); 3]) -> [f64; 3] {
    let (ng, stride) = (force.ng, force.row());
    let next = |i: usize| if i + 1 == ng { 0 } else { i + 1 };
    let [(x0, dx), (y0, dy), (z0, dz)] = axes;
    let (xs, ys, zs) = ([x0, next(x0)], [y0, next(y0)], [z0, next(z0)]);
    let (wx, wy, wz) = ([1.0 - dx, dx], [1.0 - dy, dy], [1.0 - dz, dz]);
    let [fx, fy, fz] = force.comps;
    // x and y side by side, so each product is one packed operation.
    let (mut gxy, mut gz) = ([0.0f64; 2], 0.0f64);
    for a in 0..2 {
        for b in 0..2 {
            let row = (xs[a] * ng + ys[b]) * stride;
            for c in 0..2 {
                let cell = row + zs[c];
                let fxy = [fx[cell], fy[cell]];
                for d in 0..2 {
                    gxy[d] += fxy[d] * wx[a] * wy[b] * wz[c];
                }
                gz += fz[cell] * wx[a] * wy[b] * wz[c];
            }
        }
    }
    [gxy[0], gxy[1], gz]
}

/// The gather of particles `r` into `out` (`out[k]` is particle `r.start +
/// k`'s), in blocks of `CIC_BLOCK` with the deposit's phase one: the
/// positions scaled to grid units, one vector range check over the block
/// with the scalar `grid_cell` as the fallback when a lane is outside
/// `[0, ng)` or NaN, truncation through `i32`; then the eight corners per
/// particle (`gather_corners`). In range, `u as i32` is `grid_cell`'s cell
/// and `u − cell` its offset, so both paths give `grid_cell`'s stencil.
fn gather_chunk(
    force: &ForceGrids<'_>,
    pos: PosColumns<'_>,
    r: std::ops::Range<usize>,
    box_size: f64,
    out: &mut [[f64; 3]],
) {
    let (px, py, pz) = (pos.x, pos.y, pos.z);
    let ng = force.ng;
    let ngf = ng as f64;
    let mut ux = [0.0f64; CIC_BLOCK];
    let mut uy = [0.0f64; CIC_BLOCK];
    let mut uz = [0.0f64; CIC_BLOCK];
    let mut ix = [0i32; CIC_BLOCK];
    let mut iy = [0i32; CIC_BLOCK];
    let mut iz = [0i32; CIC_BLOCK];
    let mut fx = [0.0f64; CIC_BLOCK];
    let mut fy = [0.0f64; CIC_BLOCK];
    let mut fz = [0.0f64; CIC_BLOCK];
    let mut base = r.start;
    while base + CIC_BLOCK <= r.end {
        let pxw: &[f32; CIC_BLOCK] = px[base..base + CIC_BLOCK].try_into().unwrap();
        let pyw: &[f32; CIC_BLOCK] = py[base..base + CIC_BLOCK].try_into().unwrap();
        let pzw: &[f32; CIC_BLOCK] = pz[base..base + CIC_BLOCK].try_into().unwrap();
        for k in 0..CIC_BLOCK {
            ux[k] = pxw[k] as f64 / box_size * ngf;
            uy[k] = pyw[k] as f64 / box_size * ngf;
            uz[k] = pzw[k] as f64 / box_size * ngf;
        }
        if in_box(&ux, &uy, &uz, ngf) {
            cells_of(&ux, &mut ix, &mut fx, true);
            cells_of(&uy, &mut iy, &mut fy, true);
            cells_of(&uz, &mut iz, &mut fz, true);
        } else {
            for k in 0..CIC_BLOCK {
                let cell = |p: f32| {
                    let (i, f) = grid_cell(p, box_size, ng, false);
                    (i as i32, f)
                };
                ((ix[k], fx[k]), (iy[k], fy[k]), (iz[k], fz[k])) =
                    (cell(pxw[k]), cell(pyw[k]), cell(pzw[k]));
            }
        }
        let block = &mut out[base - r.start..base - r.start + CIC_BLOCK];
        for (k, g) in block.iter_mut().enumerate() {
            let axes = [(ix[k], fx[k]), (iy[k], fy[k]), (iz[k], fz[k])];
            *g = gather_corners(force, axes.map(|(i, f)| (i as usize, f)));
        }
        base += CIC_BLOCK;
    }
    for j in base..r.end {
        let axes = [px[j], py[j], pz[j]].map(|p| grid_cell(p, box_size, ng, false));
        out[j - r.start] = gather_corners(force, axes);
    }
}

/// Three real force grids on an `ng³` mesh, x-major, as
/// [`fft::RealFft3d::inverse_in_place`] leaves them in their half spectra:
/// each z row holds `ng/2 + 1` complex values, so rows start `2·(ng/2 + 1)`
/// reals apart (`ng + 2` for even `ng`) and the last one or two reals of a
/// row are padding. Component `d` at
/// `(x, y, z)` is `comps[d][(x·ng + y)·row + z]`.
#[derive(Debug, Clone, Copy)]
pub struct ForceGrids<'a> {
    /// Cells per side.
    pub ng: usize,
    /// `g_x`, `g_y`, `g_z`.
    pub comps: [&'a [f64]; 3],
}

impl ForceGrids<'_> {
    /// Reals from one z row's start to the next's: a half-spectrum row.
    fn row(&self) -> usize {
        2 * (self.ng / 2 + 1)
    }
}

/// The gather for every particle, dispatched over the particle range:
/// `accel[i]` (resized to the particle count) is particle `i`'s acceleration
/// from the force grids at its position in the columns `pos`. The one read
/// of the force mesh a solve gets; counted as `nbody.gathers`.
///
/// With `kick = Some((particles, k))` each particle's momentum takes its
/// half kick as soon as its acceleration is known, `vel += (k·g) as f32` —
/// the stepper's closing kick riding the gather; `accel` is stored either
/// way, for the next opening kick.
pub fn gather_accel(
    backend: &dyn Backend,
    force: ForceGrids<'_>,
    pos: PosColumns<'_>,
    box_size: f64,
    accel: &mut Vec<[f64; 3]>,
    kick: Option<(&mut [Particle], f64)>,
) {
    let n = pos.x.len();
    assert!(
        pos.y.len() == n && pos.z.len() == n,
        "gather columns differ in length"
    );
    let (ng, row) = (force.ng, force.row());
    assert!(0 < ng && ng <= i32::MAX as usize, "bad force grid shape");
    for f in force.comps {
        assert!(f.len() >= (ng * ng - 1) * row + ng, "a force grid is short");
    }
    let _span = telemetry::span!("nbody", "gather", n);
    telemetry::count!("nbody", "gathers", 1);
    accel.resize(n, [0.0; 3]);
    let out = SendPtr(accel.as_mut_ptr());
    let kick = kick.map(|(particles, k)| {
        assert_eq!(particles.len(), n, "kicked particles and columns differ");
        (SendPtr(particles.as_mut_ptr()), k)
    });
    backend.dispatch(n, DEFAULT_GRAIN, &|r| {
        // SAFETY (both): `r` lies within `0..n`, the length of `accel` and
        // of the kicked particles, and is handed to this chunk only.
        let g = unsafe { out.slice_mut(r.start, r.len()) };
        gather_chunk(&force, pos, r.clone(), box_size, g);
        if let Some((particles, k)) = &kick {
            let particles = unsafe { particles.slice_mut(r.start, r.len()) };
            for (p, g) in particles.iter_mut().zip(g.iter()) {
                for d in 0..3 {
                    p.vel[d] += (k * g[d]) as f32;
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::particle::Particle;
    use dpp::{Serial, Threaded};

    fn one_particle_at(pos: [f32; 3]) -> Vec<Particle> {
        vec![Particle::at_rest(pos, 1.0, 0)]
    }

    fn cic_deposit(b: &dyn Backend, parts: &[Particle], ng: usize, box_size: f64) -> Grid3<f64> {
        cic_deposit_soa(b, &ParticleSoA::from_aos(parts), ng, box_size)
    }

    #[test]
    fn deposit_conserves_mass() {
        let t = Threaded::new(4);
        let box_size = 16.0;
        let parts: Vec<Particle> = (0..1000)
            .map(|i| {
                let f = i as f32 * 0.618;
                Particle::at_rest(
                    [(f * 3.1) % 16.0, (f * 7.7) % 16.0, (f * 1.3) % 16.0],
                    1.0,
                    i,
                )
            })
            .collect();
        let delta = cic_deposit(&t, &parts, 8, box_size);
        // δ sums to zero when mass is conserved (Σρ = N·mass, mean removed).
        let sum: f64 = delta.as_slice().iter().sum();
        assert!(sum.abs() < 1e-9, "Σδ = {sum}");
    }

    #[test]
    fn deposit_particle_at_cell_center_hits_one_cell() {
        // Grid unit = 2.0 box units; particle at cell (1,1,1) corner exactly.
        let delta = cic_deposit(&Serial, &one_particle_at([2.0, 2.0, 2.0]), 4, 8.0);
        // All mass lands in cell (1,1,1): δ there is max.
        let mut max_idx = (0, 0, 0);
        let mut max = f64::MIN;
        for x in 0..4 {
            for y in 0..4 {
                for z in 0..4 {
                    if *delta.get(x, y, z) > max {
                        max = *delta.get(x, y, z);
                        max_idx = (x, y, z);
                    }
                }
            }
        }
        assert_eq!(max_idx, (1, 1, 1));
    }

    #[test]
    fn deposit_splits_mass_between_cells() {
        // Particle halfway between cells 0 and 1 in x.
        let delta = cic_deposit(&Serial, &one_particle_at([1.0, 0.0, 0.0]), 4, 8.0);
        // grid unit = pos/2 → u = (0.5, 0, 0): half mass each to x=0 and x=1.
        let v0 = *delta.get(0, 0, 0);
        let v1 = *delta.get(1, 0, 0);
        assert!((v0 - v1).abs() < 1e-12, "{v0} vs {v1}");
    }

    #[test]
    fn backends_agree_on_deposit() {
        let t = Threaded::new(4);
        let parts: Vec<Particle> = (0..5000)
            .map(|i| {
                let f = i as f32;
                Particle::at_rest(
                    [(f * 0.37) % 32.0, (f * 0.71) % 32.0, (f * 0.13) % 32.0],
                    1.0,
                    i,
                )
            })
            .collect();
        let a = cic_deposit(&Serial, &parts, 16, 32.0);
        let b = cic_deposit(&t, &parts, 16, 32.0);
        assert_eq!(bits(&a), bits(&b));
    }

    fn exact(b: &dyn Backend, parts: &[Particle], ng: usize, box_size: f64) -> Grid3<f64> {
        let soa = ParticleSoA::from_aos(parts);
        cic_deposit_exact(b, soa.positions(), soa.mass(), ng, box_size)
    }

    fn bits(g: &Grid3<f64>) -> Vec<u64> {
        g.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn mixed_masses(n: u64) -> Vec<Particle> {
        (0..n)
            .map(|i| {
                let f = i as f32;
                Particle::at_rest(
                    [(f * 0.619) % 32.0, (f * 0.283) % 32.0, (f * 0.997) % 32.0],
                    0.5 + (i % 11) as f32 * 0.125,
                    i,
                )
            })
            .collect()
    }

    #[test]
    fn exact_deposit_is_the_f64_deposit_to_its_quantum() {
        let parts = mixed_masses(1000);
        let ng = 16;
        // The same corner terms summed in `f64`, particle by particle (an
        // x-neighbour past the last plane wraps to the first).
        let mut rho = vec![0.0f64; ng * ng * ng];
        for p in &parts {
            let axes = p.pos.map(|x| grid_cell(x, 32.0, ng, true));
            let (cells, terms, _) = corners(axes, p.mass as f64, ng);
            for (c, t) in cells.into_iter().zip(terms) {
                rho[c % (ng * ng * ng)] += t;
            }
        }
        let mean = parts.iter().map(|p| p.mass as f64).sum::<f64>() / rho.len() as f64;
        let b = exact(&Serial, &parts, ng, 32.0);
        for (x, y) in rho.iter().zip(b.as_slice()) {
            let x = x / mean - 1.0;
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
    }

    #[test]
    fn exact_deposit_is_byte_identical_across_backends_and_orders() {
        use dpp::StaticThreaded;
        // 3 · 4096 + 5 particles: one chunk per worker on every pool.
        let parts = mixed_masses(3 * 4096 + 5);
        let reference = bits(&exact(&Serial, &parts, 16, 32.0));
        let mut reversed = parts.clone();
        reversed.reverse();
        for backend in [
            &Threaded::new(4) as &dyn Backend,
            &Threaded::new(3),
            &StaticThreaded::new(3),
        ] {
            for (order, data) in [("stored", &parts), ("reversed", &reversed)] {
                let got = bits(&exact(backend, data, 16, 32.0));
                assert!(reference == got, "{order} differs on {}", backend.name());
            }
        }
    }

    #[test]
    fn exact_deposit_empty_input_is_zero_grid() {
        let g = exact(&Serial, &[], 4, 8.0);
        assert!(g.as_slice().iter().all(|v| v.to_bits() == 0));
    }

    #[test]
    fn exact_deposit_puts_a_coordinate_wrapping_to_ng_at_the_origin() {
        // `−denormal / 8 · 4` wraps to exactly 4 = ng: offset 0, one cell.
        let g = exact(
            &Serial,
            &one_particle_at([-f32::from_bits(1), 0.0, 0.0]),
            4,
            8.0,
        );
        let full = g.as_slice().iter().filter(|&&v| v != -1.0).count();
        assert_eq!((full, *g.get(0, 0, 0)), (1, 63.0));
    }

    #[test]
    fn exact_deposit_classes_nonfinite_terms_in_any_order() {
        // Grid units are box units: x = 0 takes +∞ alone, x = 4 both
        // infinities; their zero-weight `+1` corners take `∞·0`, NaN.
        let at = |x: f32, m: f32| Particle::at_rest([x, 0.0, 0.0], m, 0);
        let parts = vec![
            at(0.0, f32::INFINITY),
            at(4.0, f32::INFINITY),
            at(4.0, f32::NEG_INFINITY),
            at(6.0, 1.0),
        ];
        let mut reversed = parts.clone();
        reversed.reverse();
        let g = exact(&Serial, &parts, 8, 8.0);
        assert_eq!(bits(&g), bits(&exact(&Serial, &reversed, 8, 8.0)));
        assert_eq!(*g.get(0, 0, 0), f64::INFINITY);
        assert!(g.get(1, 0, 0).is_nan() && g.get(4, 0, 0).is_nan());
        // Only the finite mass counts toward the mean: 1 over 512 cells.
        assert_eq!(*g.get(6, 0, 0), 511.0);
    }

    #[test]
    fn point_mass_accel_points_toward_mass() {
        // A single overdense point at the center: acceleration at a probe
        // point to its +x side must point in −x (toward the mass).
        let ng = 16;
        let mut delta = Grid3::filled([ng, ng, ng], 0.0);
        *delta.get_mut(8, 8, 8) = 100.0;
        let g = poisson_accel(&Serial, &delta, 1.5);
        let box_size = ng as f64;
        let probe = [11.0f32, 8.0, 8.0];
        let gx = cic_interpolate(&g[0], probe, box_size);
        let gy = cic_interpolate(&g[1], probe, box_size);
        assert!(gx < 0.0, "gx = {gx} should point toward the mass");
        assert!(gy.abs() < gx.abs() * 0.2, "gy = {gy} should be ~0 on axis");
        // Mirror probe on the other side.
        let gx2 = cic_interpolate(&g[0], [5.0, 8.0, 8.0], box_size);
        assert!(gx2 > 0.0);
    }

    #[test]
    fn accel_falls_off_with_distance() {
        let ng = 32;
        let mut delta = Grid3::filled([ng, ng, ng], 0.0);
        *delta.get_mut(16, 16, 16) = 1000.0;
        let g = poisson_accel(&Serial, &delta, 1.0);
        let l = ng as f64;
        let near = cic_interpolate(&g[0], [19.0, 16.0, 16.0], l).abs();
        let far = cic_interpolate(&g[0], [26.0, 16.0, 16.0], l).abs();
        assert!(near > far, "near {near} vs far {far}");
    }

    #[test]
    fn uniform_density_gives_zero_force() {
        let delta = Grid3::filled([8, 8, 8], 0.0);
        let g = poisson_accel(&Serial, &delta, 1.5);
        for axis in &g {
            for v in axis.as_slice() {
                assert!(v.abs() < 1e-12);
            }
        }
    }

    #[test]
    fn gather_is_three_interpolations_bit_for_bit() {
        let ng = 8;
        let mut delta = Grid3::filled([ng, ng, ng], 0.0);
        *delta.get_mut(3, 5, 7) = 40.0;
        *delta.get_mut(0, 0, 1) = -9.0;
        let g = poisson_accel(&Serial, &delta, 1.5);
        let l = 20.0;
        // Interior, every face, beyond the box on both sides, a negative
        // denormal (wraps to exactly `ng`), NaN, −∞.
        let parts: Vec<Particle> = [
            [3.3f32, 12.9, 19.1],
            [0.0, 20.0, -0.0],
            [19.999_998, -0.5, 47.3],
            [-f32::from_bits(1), 1.0, 2.0],
            [f32::NAN, 4.0, 5.0],
            [6.0, f32::NEG_INFINITY, 7.0],
        ]
        .into_iter()
        .map(|pos| Particle::at_rest(pos, 1.0, 0))
        .collect();
        let (mut got, cols) = (Vec::new(), ParticleSoA::from_aos(&parts));
        // The grids in the half-spectrum layout, padding NaN.
        let row = 2 * (ng / 2 + 1);
        let padded = g.each_ref().map(|f| {
            let mut v = vec![f64::NAN; ng * ng * row];
            for (dst, src) in v.chunks_exact_mut(row).zip(f.as_slice().chunks_exact(ng)) {
                dst[..ng].copy_from_slice(src);
            }
            v
        });
        let comps = padded.each_ref().map(|f| f.as_slice());
        let force = ForceGrids { ng, comps };
        gather_accel(
            &Threaded::new(2),
            force,
            cols.positions(),
            l,
            &mut got,
            None,
        );
        for (p, got) in parts.iter().zip(&got) {
            for d in 0..3 {
                let expect = cic_interpolate(&g[d], p.pos, l);
                assert_eq!(got[d].to_bits(), expect.to_bits(), "{:?} axis {d}", p.pos);
            }
        }
    }

    #[test]
    fn interpolation_at_grid_point_returns_grid_value() {
        let mut f = Grid3::filled([4, 4, 4], 0.0);
        *f.get_mut(2, 1, 3) = 7.0;
        // box_size = 4 → grid units == box units.
        let v = cic_interpolate(&f, [2.0, 1.0, 3.0], 4.0);
        assert!((v - 7.0).abs() < 1e-12);
    }
}
