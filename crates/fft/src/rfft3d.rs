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
//!   place and returns the spectrum's own storage with its rows closed up
//!   (`Complex` is `#[repr(C)]`), allocating nothing.
//! * **x and y (strided).** Complex transforms of the half spectrum's
//!   `nz/2 + 1` columns: exactly [`crate::Fft3d`]'s tiled strided pass
//!   (`fft3d::transform_axis`), on a grid with shorter rows.
//!
//! The forward runs z, then y, then x; the inverse x, then y, then z. Every
//! row and line is transformed alone, so the result is the same bits on
//! every backend (`conformance::layout`, `rfft3d`).
//!
//! # What the inverse reads
//!
//! The inverse reads only the stored half and the real parts of the
//! `kz = 0` and `kz = nz/2` bins of each row: it returns `Re` of the complex
//! inverse of the spectrum the half extends to by `X(−k) = conj X(k)`. For a
//! half cut from a Hermitian spectrum that is the spectrum's own inverse.
//! A spectrum that is not Hermitian is not represented: in particular a
//! k-space multiplier odd in `k_d` (a gradient, `i·k_d`) breaks the symmetry
//! on the plane where `k_d` is the Nyquist frequency, whose bin is its own
//! mirror — callers zero that plane, as taking `Re` of the full complex
//! inverse did implicitly (DESIGN.md §"Real fields, half spectra").

use crate::complex::Complex;
use crate::fft1d::{Fft1d, FftError};
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
    /// of its spectrum.
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
        let _span = telemetry::span!("fft", "r2c", real.len());
        let mut spec = self.rows_forward(backend, real);
        for axis in [1, 0] {
            transform_axis(backend, &self.plans[axis], &mut spec, axis, false);
        }
        Ok(spec)
    }

    /// Inverse transform of a half spectrum with `1/(nx·ny·nz)`
    /// normalization, consuming it: `Re` of the complex inverse of the
    /// Hermitian spectrum it extends to (see the module docs).
    pub fn inverse(
        &self,
        backend: &dyn Backend,
        mut spec: Grid3<Complex>,
    ) -> Result<Grid3<f64>, FftError> {
        if spec.dims() != self.spectrum_dims() {
            return Err(FftError::ShapeMismatch {
                expected: self.spectrum_dims(),
                got: spec.dims(),
            });
        }
        let _span = telemetry::span!("fft", "c2r", self.dims.iter().product::<usize>());
        for axis in [0, 1] {
            transform_axis(backend, &self.plans[axis], &mut spec, axis, true);
        }
        Ok(self.rows_inverse(backend, spec))
    }

    /// The z pass of the forward transform: every contiguous row of `n = nz`
    /// reals of an `[a, b, n]` grid to its `n/2 + 1` spectral bins (the packed
    /// half-length transform and the untangle of the module docs).
    fn rows_forward(&self, backend: &dyn Backend, real: &Grid3<f64>) -> Grid3<Complex> {
        let [a, b, n] = real.dims();
        let h = n / 2 + 1;
        let mut spec = Grid3::filled([a, b, h], Complex::ZERO);
        let src = real.as_slice();
        let dst = SendPtr(spec.as_mut_slice().as_mut_ptr());
        dispatch_rows(backend, a * b, &|rows| {
            // SAFETY: rows `[rows.start, rows.end)` of the half spectrum are
            // the flat range `[rows.start·h, rows.end·h)`, in bounds and
            // disjoint from every other chunk's.
            let out = unsafe { dst.slice_mut(rows.start * h, rows.len() * h) };
            let input = &src[rows.start * n..rows.end * n];
            for (x, row) in input.chunks_exact(n).zip(out.chunks_exact_mut(h)) {
                self.r2c_row(x, row);
            }
        });
        spec
    }

    /// The z pass of the inverse: every row of an `[a, b, n/2 + 1]` spectrum
    /// back to its `n` reals, in place — the `[a, b, n]` real grid in the
    /// spectrum's own storage.
    fn rows_inverse(&self, backend: &dyn Backend, mut spec: Grid3<Complex>) -> Grid3<f64> {
        let [a, b, h] = spec.dims();
        let n = self.dims[2];
        let ptr = SendPtr(spec.as_mut_slice().as_mut_ptr());
        dispatch_rows(backend, a * b, &|rows| {
            // SAFETY: as in `forward`.
            let block = unsafe { ptr.slice_mut(rows.start * h, rows.len() * h) };
            for row in block.chunks_exact_mut(h) {
                self.c2r_row(row);
            }
        });
        // Row `r`'s values are now the `2h = n + 2` reals from `r·2h`, its
        // first `n` the output: close the rows up, in order (a row's new
        // place overlaps only rows already moved), and keep the storage.
        let mut real = reals(spec.into_vec());
        for r in 1..a * b {
            real.copy_within(r * 2 * h..r * 2 * h + n, r * n);
        }
        real.truncate(a * b * n);
        Grid3::from_vec([a, b, n], real)
    }

    /// One real row of `n` values to its `n/2 + 1` spectral bins.
    fn r2c_row(&self, x: &[f64], row: &mut [Complex]) {
        let m = x.len() / 2;
        for (z, pair) in row.iter_mut().zip(x.chunks_exact(2)) {
            *z = Complex::new(pair[0], pair[1]);
        }
        self.half.run(&mut row[..m], false);
        let z0 = row[0];
        row[0] = Complex::from_real(z0.re + z0.im);
        row[m] = Complex::from_real(z0.re - z0.im);
        for (k, &w) in self.twiddles.iter().enumerate().skip(1) {
            let (a, b) = (row[k], row[m - k].conj());
            let even = (a + b).scale(0.5);
            let d = a - b;
            let odd = Complex::new(d.im, -d.re).scale(0.5);
            let t = w * odd;
            row[k] = even + t;
            row[m - k] = (even - t).conj();
        }
        if m >= 2 {
            row[m / 2] = row[m / 2].conj();
        }
    }

    /// One row of `n/2 + 1` spectral bins to its `n` real values, in place:
    /// they are left in the first `n/2` cells, `x[2j] + i·x[2j+1]` in cell
    /// `j`. The inverse of [`Self::r2c_row`].
    fn c2r_row(&self, row: &mut [Complex]) {
        let m = row.len() - 1;
        let (x0, xm) = (row[0].re, row[m].re);
        row[0] = Complex::new(0.5 * (x0 + xm), 0.5 * (x0 - xm));
        for (k, &w) in self.twiddles.iter().enumerate().skip(1) {
            let (a, b) = (row[k], row[m - k].conj());
            let even = (a + b).scale(0.5);
            let odd = ((a - b) * w.conj()).scale(0.5);
            // Z[k] = E + i·O and Z[m−k] = conj E + i·conj O.
            row[k] = even + Complex::new(-odd.im, odd.re);
            row[m - k] = even.conj() + Complex::new(odd.im, odd.re);
        }
        if m >= 2 {
            row[m / 2] = row[m / 2].conj();
        }
        self.half.run(&mut row[..m], true);
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
