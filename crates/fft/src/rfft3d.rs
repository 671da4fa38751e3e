//! Real-to-complex 3-D transform: a real `[nx, ny, nz]` grid to the half
//! spectrum `[nx, ny, nz/2 + 1]` and back, for fields that are real on one
//! side and Hermitian on the other (the PM solve, the initial conditions,
//! the power spectrum).
//!
//! # Layout
//!
//! A real field's spectrum obeys `X(−k) = conj(X(k))`, so the bins with
//! `kz > nz/2` repeat the others and only `kz = 0..=nz/2` are stored: bin
//! `(x, y, kz)` of the full spectrum is cell `(x, y, kz)` of the half one,
//! and `(x, y, nz − kz)` is `conj` of cell `(−x mod nx, −y mod ny, kz)`.
//!
//! # Passes
//!
//! * **z (contiguous), the untangle.** A real row `x` of `n = nz` values is
//!   packed into `m = n/2` complex points `z[j] = x[2j] + i·x[2j+1]` and run
//!   through the half-length [`Fft1d`]. With `Z = DFT_m(z)` and `W = e^{−2πi/n}`,
//!   the row's spectrum is `X[k] = E[k] + W^k·O[k]` for `k = 0..=m`, where
//!   `E[k] = (Z[k] + conj Z[m−k]) / 2` and `O[k] = −i·(Z[k] − conj Z[m−k]) / 2`
//!   are the spectra of the even and odd samples (`Z[m] ≡ Z[0]`). Since
//!   `X[m−k] = conj(E[k] − W^k·O[k])`, bins `k` and `m − k` are untangled
//!   together in place, from the twiddles `W^k` for `0 < k < m/2`; `X[0]`
//!   and `X[m]` are real (`Re Z[0] ± Im Z[0]`) and `X[m/2] = conj Z[m/2]`.
//!   The inverse runs the same algebra backwards (`Z[k] = E[k] + i·O[k]`,
//!   `O[k] = (X[k] − conj X[m−k])·conj(W^k) / 2`), then the half-length
//!   inverse (its `1/m` is the row's whole `1/n`), whose output
//!   `z[j] = x[2j] + i·x[2j+1]` already is the real row: the inverse runs in
//!   place and leaves the real grid in the spectrum's own storage with its
//!   rows closed up (`Complex` is `#[repr(C)]`), allocating nothing.
//!   Rows go `LANES` (16) at a time through the half plan's lane-batched
//!   kernel: packed straight into its bit-reversed rows, transformed, and
//!   untangled row by row.
//! * **x and y (strided).** Complex transforms of the half spectrum's
//!   `nz/2 + 1` columns: exactly [`crate::Fft3d`]'s strided pass
//!   (`fft3d::transform_axis`), on a grid with shorter rows — at 64³ a
//!   stride of 33 lines, so each block is batches of 16, 16 and 1.
//!
//! # Storage
//!
//! [`RealFft3d::forward`] allocates its spectrum and [`RealFft3d::inverse`]
//! returns the spectrum's storage as the real grid, closing its rows up
//! (each `n` reals moved down from a stride of `n + 2`, in row order, on one
//! thread). A caller that transforms repeatedly keeps its spectra instead:
//! [`RealFft3d::forward_into`] writes a kept spectrum from reals anywhere —
//! another spectrum's storage will do ([`Grid3::as_reals`]) — and
//! [`RealFft3d::inverse_in_place`] leaves the real grid in the spectrum's
//! storage with its rows `n + 2` reals apart, for a reader that strides
//! over the padding instead of closing the rows up. The same passes, the
//! same bits.

use crate::complex::Complex;
use crate::fft1d::{Fft1d, FftError, LaneLines, LANES};
use crate::fft3d::transform_axis;
use crate::grid::Grid3;
use dpp::{Backend, SendPtr};

/// A plan for real-to-complex 3-D transforms of a fixed power-of-two shape.
#[derive(Debug, Clone)]
pub struct RealFft3d {
    dims: [usize; 3],
    /// The x and y plans, for the strided passes over the half spectrum.
    plans: [Fft1d; 2],
    /// The `nz/2`-point plan the packed z rows run through.
    half: Fft1d,
    /// `W^k = e^{−2πik/nz}` for `k < nz/4`: the pairwise untangle's twiddles.
    twiddles: Vec<Complex>,
}

impl RealFft3d {
    /// Plan transforms of real grids of shape `dims`: each axis a power of
    /// two, and `nz ≥ 2`.
    pub fn new(dims: [usize; 3]) -> Result<Self, FftError> {
        let n = dims[2];
        Fft1d::new(n)?;
        if n < 2 {
            return Err(FftError::RealAxisTooShort(n));
        }
        let twiddles = (0..n / 4)
            .map(|k| Complex::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .collect();
        let half = Fft1d::new(n / 2)?;
        Ok(RealFft3d {
            dims,
            plans: [Fft1d::new(dims[0])?, Fft1d::new(dims[1])?],
            half,
            twiddles,
        })
    }

    /// Shape of the half spectrum: `[nx, ny, nz/2 + 1]`.
    pub fn spectrum_dims(&self) -> [usize; 3] {
        let [nx, ny, nz] = self.dims;
        [nx, ny, nz / 2 + 1]
    }

    /// Forward transform of a real grid (no normalization): the stored half
    /// of its spectrum, in a new grid.
    pub fn forward(
        &self,
        backend: &dyn Backend,
        real: &Grid3<f64>,
    ) -> Result<Grid3<Complex>, FftError> {
        if real.dims() != self.dims {
            return Err(FftError::ShapeMismatch {
                expected: self.dims,
                got: real.dims(),
            });
        }
        let mut spec = Grid3::filled(self.spectrum_dims(), Complex::ZERO);
        self.forward_into(backend, real.as_slice(), &mut spec)?;
        Ok(spec)
    }

    /// [`RealFft3d::forward`] of the `nx·ny·nz` reals `real` (x-major) into a
    /// caller's half spectrum, every cell of which it overwrites.
    pub fn forward_into(
        &self,
        backend: &dyn Backend,
        real: &[f64],
        spec: &mut Grid3<Complex>,
    ) -> Result<(), FftError> {
        let len = self.dims.iter().product::<usize>();
        if real.len() != len {
            return Err(FftError::LengthMismatch {
                expected: len,
                got: real.len(),
            });
        }
        self.check_spectrum(spec)?;
        let _span = telemetry::span!("fft", "r2c", len);
        self.rows_forward(backend, real, spec);
        for axis in [1, 0] {
            transform_axis(backend, &self.plans[axis], spec, axis, false);
        }
        Ok(())
    }

    /// Inverse transform of a half spectrum with `1/(nx·ny·nz)`
    /// normalization, consuming it: `Re` of the complex inverse of the
    /// Hermitian spectrum it extends to (see the module docs), in the
    /// spectrum's own storage.
    pub fn inverse(
        &self,
        backend: &dyn Backend,
        mut spec: Grid3<Complex>,
    ) -> Result<Grid3<f64>, FftError> {
        self.inverse_in_place(backend, &mut spec)?;
        // Close the rows up, in order (a row's new place overlaps only rows
        // already moved), and keep the storage.
        let ([a, b, h], n) = (spec.dims(), self.dims[2]);
        let mut real = reals(spec.into_vec());
        for r in 1..a * b {
            real.copy_within(r * 2 * h..r * 2 * h + n, r * n);
        }
        real.truncate(a * b * n);
        Ok(Grid3::from_vec(self.dims, real))
    }

    /// [`RealFft3d::inverse`] without giving the storage up or closing the
    /// rows up: the real grid is left in `spec`'s storage
    /// ([`Grid3::as_reals`]) with its rows `2·(nz/2 + 1)` reals apart —
    /// value `(x, y, z)` at real `(x·ny + y)·2·(nz/2 + 1) + z` — and the
    /// spectrum is gone. The same passes, the same bits.
    pub fn inverse_in_place(
        &self,
        backend: &dyn Backend,
        spec: &mut Grid3<Complex>,
    ) -> Result<(), FftError> {
        self.check_spectrum(spec)?;
        let _span = telemetry::span!("fft", "c2r", self.dims.iter().product::<usize>());
        for axis in [0, 1] {
            transform_axis(backend, &self.plans[axis], spec, axis, true);
        }
        self.rows_inverse(backend, spec);
        Ok(())
    }

    fn check_spectrum(&self, spec: &Grid3<Complex>) -> Result<(), FftError> {
        if spec.dims() != self.spectrum_dims() {
            return Err(FftError::ShapeMismatch {
                expected: self.spectrum_dims(),
                got: spec.dims(),
            });
        }
        Ok(())
    }

    /// The z pass of the forward transform: every contiguous row of `n = nz`
    /// reals of an `[a, b, n]` grid to its `n/2 + 1` spectral bins in `spec`
    /// (the packed half-length transform and the untangle of the module
    /// docs), `LANES` rows per batch.
    fn rows_forward(&self, backend: &dyn Backend, src: &[f64], spec: &mut Grid3<Complex>) {
        let [a, b, n] = self.dims;
        let (m, h) = (n / 2, n / 2 + 1);
        let dst = SendPtr(spec.as_mut_slice().as_mut_ptr());
        dispatch_rows(backend, a * b, &|rows| {
            // SAFETY: rows `[rows.start, rows.end)` of the half spectrum are
            // the flat range `[rows.start·h, rows.end·h)`, in bounds and
            // disjoint from every other chunk's.
            let out = unsafe { dst.slice_mut(rows.start * h, rows.len() * h) };
            let input = &src[rows.start * n..rows.end * n];
            let mut lanes = self.half.lane_lines();
            for (x, batch) in input.chunks(LANES * n).zip(out.chunks_mut(LANES * h)) {
                // Row `j`'s packed point `k` is `x[2k] + i·x[2k+1]`.
                let at = |k: usize, j: usize| Complex::new(x[j * n + 2 * k], x[j * n + 2 * k + 1]);
                self.half.load_lanes(&mut lanes, x.len() / n, at);
                self.half.run_lanes(&mut lanes, false);
                let last = self.untangle_forward(&mut lanes);
                for (j, row) in batch.chunks_exact_mut(h).enumerate() {
                    for (k, z) in row[..m].iter_mut().enumerate() {
                        *z = lanes.get(k, j);
                    }
                    row[m] = Complex::from_real(last[j]);
                }
            }
        });
    }

    /// The z pass of the inverse: every row of an `[a, b, n/2 + 1]` spectrum
    /// back to its `n` reals, in place, `LANES` rows per batch:
    /// `x[2k] + i·x[2k+1]` in the row's cell `k`.
    fn rows_inverse(&self, backend: &dyn Backend, spec: &mut Grid3<Complex>) {
        let [a, b, h] = spec.dims();
        let m = h - 1;
        let ptr = SendPtr(spec.as_mut_slice().as_mut_ptr());
        dispatch_rows(backend, a * b, &|rows| {
            // SAFETY: as in `rows_forward`.
            let block = unsafe { ptr.slice_mut(rows.start * h, rows.len() * h) };
            let mut lanes = self.half.lane_lines();
            for batch in block.chunks_mut(LANES * h) {
                self.untangle_inverse(batch, &mut lanes);
                self.half.run_lanes(&mut lanes, true);
                for (j, row) in batch.chunks_exact_mut(h).enumerate() {
                    for (k, z) in row[..m].iter_mut().enumerate() {
                        *z = lanes.get(k, j);
                    }
                }
            }
        });
    }

    /// The untangle of the module docs on every lane of a batch at once, in
    /// place: rows `0..m` (`m = n/2`) hold each packed row's half-length
    /// transform, and leave holding its bins `0..m`; bin `m`, real, is
    /// returned per lane. Each lane runs the `Complex` operations of one row,
    /// component by component: `X[0], X[m] = Re Z[0] ± Im Z[0]`; for `0 < k <
    /// m/2`, with `a = Z[k]`, `b = conj Z[m−k]`, `E = (a + b)·½`,
    /// `O = (Im(a − b), −Re(a − b))·½` and `t = W^k·O`, `X[k] = E + t` and
    /// `X[m−k] = conj(E − t)`; `X[m/2] = conj Z[m/2]`.
    fn untangle_forward(&self, lanes: &mut LaneLines) -> [f64; LANES] {
        let (re, im) = (&mut lanes.re, &mut lanes.im);
        let m = re.len();
        let mut last = [0.0; LANES];
        for j in 0..LANES {
            let (z_re, z_im) = (re[0][j], im[0][j]);
            (re[0][j], im[0][j]) = (z_re + z_im, 0.0);
            last[j] = z_re - z_im;
        }
        for (k, &w) in self.twiddles.iter().enumerate().skip(1) {
            let (lo, hi) = (k, m - k);
            for j in 0..LANES {
                let (ar, ai) = (re[lo][j], im[lo][j]);
                let (br, bi) = (re[hi][j], -im[hi][j]);
                let (er, ei) = ((ar + br) * 0.5, (ai + bi) * 0.5);
                let (dr, di) = (ar - br, ai - bi);
                let (or, oi) = (di * 0.5, -dr * 0.5);
                let (tr, ti) = (w.re * or - w.im * oi, w.re * oi + w.im * or);
                (re[lo][j], im[lo][j]) = (er + tr, ei + ti);
                (re[hi][j], im[hi][j]) = (er - tr, -(ei - ti));
            }
        }
        if m >= 2 {
            for v in im[m / 2].iter_mut() {
                *v = -*v;
            }
        }
        last
    }

    /// The inverse of [`Self::untangle_forward`], from a batch of spectrum
    /// rows (`n/2 + 1` bins each) straight into `lanes`' bit-reversed rows
    /// for the half-length inverse: `Z[0] = ((X[0] + X[m])·½, (X[0] − X[m])·½)`
    /// from the real parts; for `0 < k < m/2`, with `a = X[k]`,
    /// `b = conj X[m−k]`, `E = (a + b)·½` and `O = ((a − b)·conj W^k)·½`,
    /// `Z[k] = E + i·O` and `Z[m−k] = conj E + i·conj O`; `Z[m/2] =
    /// conj X[m/2]` — one row's `Complex` operations, lane by lane. Lanes
    /// past the batch's rows are zero.
    fn untangle_inverse(&self, batch: &[Complex], lanes: &mut LaneLines) {
        let h = self.dims[2] / 2 + 1;
        let (m, rows) = (h - 1, batch.len() / h);
        let half = &self.half;
        let (re, im) = (&mut lanes.re, &mut lanes.im);
        // Bin `k` of every row of the batch, zero past the last.
        let bins = |k: usize, conj: bool| {
            let (mut b_re, mut b_im) = ([0.0; LANES], [0.0; LANES]);
            for j in 0..rows {
                let z = batch[j * h + k];
                let z = if conj { z.conj() } else { z };
                (b_re[j], b_im[j]) = (z.re, z.im);
            }
            (b_re, b_im)
        };
        let ((x0, _), (xm, _)) = (bins(0, false), bins(m, false));
        let r0 = half.bit_reversed(0);
        for j in 0..LANES {
            (re[r0][j], im[r0][j]) = (0.5 * (x0[j] + xm[j]), 0.5 * (x0[j] - xm[j]));
        }
        for (k, &w) in self.twiddles.iter().enumerate().skip(1) {
            let ((ar, ai), (br, bi)) = (bins(k, false), bins(m - k, true));
            let (lo, hi) = (half.bit_reversed(k), half.bit_reversed(m - k));
            let wc = w.conj();
            for j in 0..LANES {
                let (er, ei) = ((ar[j] + br[j]) * 0.5, (ai[j] + bi[j]) * 0.5);
                let (dr, di) = (ar[j] - br[j], ai[j] - bi[j]);
                let (pr, pi) = (dr * wc.re - di * wc.im, dr * wc.im + di * wc.re);
                let (or, oi) = (pr * 0.5, pi * 0.5);
                (re[lo][j], im[lo][j]) = (er + -oi, ei + or);
                (re[hi][j], im[hi][j]) = (er + oi, -ei + or);
            }
        }
        if m >= 2 {
            let (mid_re, mid_im) = bins(m / 2, true);
            let r = half.bit_reversed(m / 2);
            (re[r], im[r]) = (mid_re, mid_im);
        }
    }
}

/// Run `body` over `rows` rows, a few chunks per worker.
fn dispatch_rows(
    backend: &dyn Backend,
    rows: usize,
    body: &(dyn Fn(std::ops::Range<usize>) + Sync),
) {
    let grain = (rows / (4 * backend.concurrency().max(1))).max(1);
    backend.dispatch(rows, grain, body);
}

/// A complex vector's storage as the reals it holds, `re` then `im` per
/// value.
fn reals(v: Vec<Complex>) -> Vec<f64> {
    let mut v = std::mem::ManuallyDrop::new(v);
    let (ptr, len, cap) = (v.as_mut_ptr(), v.len(), v.capacity());
    // SAFETY: `Complex` is `#[repr(C)]` of two `f64`s — the same alignment,
    // and `n` of them are exactly `2n` `f64`s — so the allocation is a valid
    // `Vec<f64>` of length `2·len` and capacity `2·cap`, which it now owns.
    unsafe { Vec::from_raw_parts(ptr.cast::<f64>(), 2 * len, 2 * cap) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fft3d;
    use dpp::{Serial, Threaded};

    fn real_grid(dims: [usize; 3], seed: f64) -> Grid3<f64> {
        let n = dims.iter().product::<usize>();
        let data = (0..n)
            .map(|i| ((i as f64 + seed) * 0.618).sin() * 3.0 + (i as f64 * 0.07).cos())
            .collect();
        Grid3::from_vec(dims, data)
    }

    fn complex_forward(real: &Grid3<f64>) -> Grid3<Complex> {
        let data = real.as_slice().iter().map(|&v| Complex::from_real(v));
        let mut g = Grid3::from_vec(real.dims(), data.collect());
        Fft3d::new(real.dims())
            .unwrap()
            .forward(&Serial, &mut g)
            .unwrap();
        g
    }

    #[test]
    fn half_spectrum_is_the_complex_spectrum_cut() {
        for dims in [[2, 2, 2], [4, 2, 8], [8, 4, 16], [2, 8, 4], [16, 16, 32]] {
            let real = real_grid(dims, 1.0);
            let full = complex_forward(&real);
            let plan = RealFft3d::new(dims).unwrap();
            let half = plan.forward(&Threaded::new(3), &real).unwrap();
            assert_eq!(half.dims(), [dims[0], dims[1], dims[2] / 2 + 1]);
            let scale = full.as_slice().iter().map(|z| z.abs()).fold(1.0, f64::max);
            for x in 0..dims[0] {
                for y in 0..dims[1] {
                    for z in 0..=dims[2] / 2 {
                        let (a, b) = (*half.get(x, y, z), *full.get(x, y, z));
                        assert!(
                            (a - b).abs() < 1e-12 * scale,
                            "{dims:?} ({x},{y},{z}): {a:?} vs {b:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn inverse_recovers_the_real_grid() {
        for dims in [[2, 2, 2], [8, 4, 16], [16, 16, 16], [4, 32, 2]] {
            let real = real_grid(dims, 7.0);
            let plan = RealFft3d::new(dims).unwrap();
            let t = Threaded::new(2);
            let back = plan.inverse(&t, plan.forward(&t, &real).unwrap()).unwrap();
            for (a, b) in back.as_slice().iter().zip(real.as_slice()) {
                assert!((a - b).abs() < 1e-12, "{dims:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn inverse_of_any_half_is_re_of_the_extended_inverse() {
        // Not Hermitian anywhere, the `kz = 0` and `kz = nz/2` planes
        // included: the inverse still returns `Re` of the complex inverse of
        // the spectrum the stored half extends to.
        let dims = [4, 8, 8];
        let [nx, ny, nz] = dims;
        let plan = RealFft3d::new(dims).unwrap();
        let n = plan.spectrum_dims().iter().product::<usize>();
        let half = (0..n).map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.91).cos()));
        let half = Grid3::from_vec(plan.spectrum_dims(), half.collect());
        let mut full = Grid3::filled(dims, Complex::ZERO);
        for x in 0..nx {
            for y in 0..ny {
                for z in 0..nz {
                    *full.get_mut(x, y, z) = if z <= nz / 2 {
                        *half.get(x, y, z)
                    } else {
                        half.get((nx - x) % nx, (ny - y) % ny, nz - z).conj()
                    };
                }
            }
        }
        Fft3d::new(dims)
            .unwrap()
            .inverse(&Serial, &mut full)
            .unwrap();
        let got = plan.inverse(&Serial, half).unwrap();
        for (a, b) in got.as_slice().iter().zip(full.as_slice()) {
            assert!((a - b.re).abs() < 1e-14, "{a} vs {}", b.re);
        }
    }

    #[test]
    fn backends_agree_bit_for_bit() {
        let dims = [16, 8, 32];
        let real = real_grid(dims, 3.0);
        let plan = RealFft3d::new(dims).unwrap();
        let bits = |g: &[Complex]| {
            g.iter()
                .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
                .collect::<Vec<_>>()
        };
        let a = plan.forward(&Serial, &real).unwrap();
        let b = plan.forward(&Threaded::new(4), &real).unwrap();
        assert_eq!(bits(a.as_slice()), bits(b.as_slice()));
        let ra = plan.inverse(&Serial, a).unwrap();
        let rb = plan.inverse(&Threaded::new(4), b).unwrap();
        let fbits = |g: &Grid3<f64>| g.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(fbits(&ra), fbits(&rb));
    }

    #[test]
    fn kept_storage_entries_are_the_allocating_ones_bit_for_bit() {
        // Forward from another grid's storage, inverse left with padded rows.
        let dims = [8, 4, 16];
        let real = real_grid(dims, 5.0);
        let plan = RealFft3d::new(dims).unwrap();
        let t = Threaded::new(3);
        let spec = plan.forward(&t, &real).unwrap();
        let want = plan.inverse(&t, spec.clone()).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut host = Grid3::filled(plan.spectrum_dims(), Complex::new(f64::NAN, 1.0));
        host.as_reals_mut()[..real.len()].copy_from_slice(real.as_slice());
        let mut kept = Grid3::filled(plan.spectrum_dims(), Complex::ZERO);
        plan.forward_into(&Serial, &host.as_reals()[..real.len()], &mut kept)
            .unwrap();
        assert_eq!(bits(kept.as_reals()), bits(spec.as_reals()));
        plan.inverse_in_place(&t, &mut kept).unwrap();
        let rows = kept.as_reals().chunks_exact(2 * (dims[2] / 2 + 1));
        let padded: Vec<f64> = rows.flat_map(|row| &row[..dims[2]]).copied().collect();
        assert_eq!(bits(&padded), bits(want.as_slice()));
        let err = plan
            .forward_into(&t, &real.as_slice()[1..], &mut kept)
            .unwrap_err();
        assert_eq!(
            err,
            FftError::LengthMismatch {
                expected: real.len(),
                got: real.len() - 1
            }
        );
    }

    #[test]
    fn bad_plans_and_grids_name_the_fault() {
        assert_eq!(
            RealFft3d::new([8, 8, 1]).unwrap_err(),
            FftError::RealAxisTooShort(1)
        );
        assert_eq!(
            RealFft3d::new([8, 8, 0]).unwrap_err(),
            FftError::NonPowerOfTwo(0)
        );
        assert_eq!(
            RealFft3d::new([6, 8, 8]).unwrap_err(),
            FftError::NonPowerOfTwo(6)
        );
        let plan = RealFft3d::new([8, 4, 16]).unwrap();
        let err = plan
            .forward(&Serial, &Grid3::filled([16, 4, 8], 0.0))
            .unwrap_err();
        assert_eq!(
            err,
            FftError::ShapeMismatch {
                expected: [8, 4, 16],
                got: [16, 4, 8]
            }
        );
        let err = plan
            .inverse(&Serial, Grid3::filled([8, 4, 16], Complex::ZERO))
            .unwrap_err();
        assert_eq!(
            err,
            FftError::ShapeMismatch {
                expected: [8, 4, 9],
                got: [8, 4, 16]
            }
        );
    }
}
