//! Separable 3-D FFT over [`Grid3<Complex>`], parallelized over blocks of
//! lines on a `dpp` backend (every 1-D line along the active axis is
//! independent).
//!
//! # Pass layout
//!
//! A transform is three passes, x then y then z, each running the axis'
//! [`Fft1d`] plan over every line along it, `LANES` (16) lines at a time
//! through the plan's lane-batched kernel (`Fft1d::run_lanes`):
//!
//! * **x and y (strided)** — a line's cells are `ny·nz` (resp. `nz`) apart,
//!   but neighbouring *lines* are adjacent in memory. A batch takes the next
//!   `LANES` lines — each point mostly one contiguous run of cells, not one
//!   cell per cache line — straight into the kernel's bit-reversed rows,
//!   and writes each point back. A batch runs on across the end of a block
//!   of `stride` lines, so a stride that is not a multiple of `LANES` (the
//!   half spectrum's `nz/2 + 1`) costs no short batches: at 64³ the
//!   stride-33 blocks split into runs of 16, 16 and 1 cells that batches
//!   share.
//! * **z (contiguous)** — a line is `nz` adjacent cells; a batch takes
//!   `LANES` consecutive lines, point `k` of each into row `rev(k)`.
//!
//! Every pass is dispatched over *lines* (4 096 of them at 64³) in chunks of
//! many lines, so it clears `dpp`'s small-`n` inline threshold and runs on
//! the pool; a chunk keeps one lane scratch for all its batches. The pass is
//! one function, `transform_axis`, which [`crate::RealFft3d`] also runs for
//! the x and y axes of its half spectra.
//!
//! Every line goes through the same stages, twiddles and expressions as the
//! one-line routine `Fft1d::run` (bit reversal, butterflies stage by stage,
//! the `1/n` scale on the inverse), and lines never interact within a pass,
//! so the result is bit-identical to transforming one gathered line at a
//! time — whatever the batch, chunking or backend. `conformance::layout`
//! holds it to exactly that reference (`fft3d_line_ref`).

use crate::complex::Complex;
use crate::fft1d::{Fft1d, FftError, LANES};
use crate::grid::Grid3;
use dpp::{Backend, SendPtr};

/// A plan for 3-D transforms of a fixed power-of-two shape.
#[derive(Debug, Clone)]
pub struct Fft3d {
    dims: [usize; 3],
    plans: [Fft1d; 3],
}

impl Fft3d {
    /// Plan transforms for grids of shape `dims` (each a power of two).
    pub fn new(dims: [usize; 3]) -> Result<Self, FftError> {
        Ok(Fft3d {
            dims,
            plans: [
                Fft1d::new(dims[0])?,
                Fft1d::new(dims[1])?,
                Fft1d::new(dims[2])?,
            ],
        })
    }

    /// Planned shape.
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// In-place forward transform (no normalization).
    pub fn forward(
        &self,
        backend: &dyn Backend,
        grid: &mut Grid3<Complex>,
    ) -> Result<(), FftError> {
        self.transform(backend, grid, false)
    }

    /// In-place inverse transform with `1/(nx·ny·nz)` normalization.
    pub fn inverse(
        &self,
        backend: &dyn Backend,
        grid: &mut Grid3<Complex>,
    ) -> Result<(), FftError> {
        self.transform(backend, grid, true)
    }

    fn transform(
        &self,
        backend: &dyn Backend,
        grid: &mut Grid3<Complex>,
        inverse: bool,
    ) -> Result<(), FftError> {
        if grid.dims() != self.dims {
            return Err(FftError::ShapeMismatch {
                expected: self.dims,
                got: grid.dims(),
            });
        }
        let _span = telemetry::span!("fft", if inverse { "inverse" } else { "forward" });
        for (axis, plan) in self.plans.iter().enumerate() {
            transform_axis(backend, plan, grid, axis, inverse);
        }
        Ok(())
    }
}

/// Transform all lines along `axis` of `grid` with `plan` (whose length is
/// `grid.dims()[axis]`); lines are independent, so blocks of them are
/// dispatched in parallel. See the module docs for the layout of each pass.
/// [`Fft3d`] runs it on all three axes; [`crate::RealFft3d`] runs it on the
/// x and y axes of a half spectrum, whose rows are `nz/2 + 1` cells long.
pub(crate) fn transform_axis(
    backend: &dyn Backend,
    plan: &Fft1d,
    grid: &mut Grid3<Complex>,
    axis: usize,
    inverse: bool,
) {
    let [nx, ny, nz] = grid.dims();
    let n = plan.len();
    assert_eq!(n, grid.dims()[axis], "plan length must match the axis");
    let ptr = SendPtr(grid.as_mut_slice().as_mut_ptr());
    // Dispatch over lines, a few chunks per worker: enough to balance, few
    // enough that a chunk's lane scratch is allocated a handful of times per
    // pass. Line `l` starts at flat index `(l / stride)·n·stride + l % stride`
    // and its cells are `stride` apart, so lines `l..l + r` within one block
    // of `stride` lines are `r` adjacent cells, `n` times.
    let stride = [ny * nz, nz, 1][axis];
    let nlines = nx * ny * nz / n;
    let grain = (nlines / (4 * backend.concurrency().max(1))).max(1);
    backend.dispatch(nlines, grain, &|lines| {
        let mut lanes = plan.lane_lines();
        let mut starts = [0usize; LANES];
        for first in lines.clone().step_by(LANES) {
            // A batch is the next `LANES` lines, across a block's end too.
            let run = LANES.min(lines.end - first);
            for (j, start) in starts[..run].iter_mut().enumerate() {
                let l = first + j;
                *start = (l / stride) * n * stride + l % stride;
            }
            // SAFETY (both): the batch's lines own the index set
            // `{starts[j] + k·stride : k < n, j < run}`, in bounds and
            // disjoint from every other line's.
            plan.load_lanes(&mut lanes, run, |k, j| unsafe {
                *ptr.at(starts[j] + k * stride)
            });
            plan.run_lanes(&mut lanes, inverse);
            for k in 0..n {
                for (j, &start) in starts[..run].iter().enumerate() {
                    unsafe { ptr.write(start + k * stride, lanes.get(k, j)) };
                }
            }
        }
    });
}

/// Forward-transform a real-valued grid (promoted to complex): the full
/// spectrum, twice the work of [`crate::RealFft3d`]. No product path and no
/// oracle calls it — only the benchmark harness's FFT probe, until that
/// probe moves to [`crate::RealFft3d`].
pub fn forward_real(backend: &dyn Backend, real: &Grid3<f64>) -> Result<Grid3<Complex>, FftError> {
    let plan = Fft3d::new(real.dims())?;
    let data: Vec<Complex> = real
        .as_slice()
        .iter()
        .map(|&r| Complex::from_real(r))
        .collect();
    let mut grid = Grid3::from_vec(real.dims(), data);
    plan.forward(backend, &mut grid)?;
    Ok(grid)
}

/// Inverse-transform to a real grid, discarding the (numerically tiny)
/// imaginary residue. Returns the real grid and the max |Im| seen, which
/// callers may assert on. Like [`forward_real`], called only by the
/// benchmark harness's FFT probe.
pub fn inverse_to_real(
    backend: &dyn Backend,
    grid: &mut Grid3<Complex>,
) -> Result<(Grid3<f64>, f64), FftError> {
    let plan = Fft3d::new(grid.dims())?;
    plan.inverse(backend, grid)?;
    let mut max_im: f64 = 0.0;
    let data: Vec<f64> = grid
        .as_slice()
        .iter()
        .map(|z| {
            max_im = max_im.max(z.im.abs());
            z.re
        })
        .collect();
    Ok((Grid3::from_vec(grid.dims(), data), max_im))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpp::{Serial, Threaded};

    fn wave_grid(dims: [usize; 3], k: [usize; 3]) -> Grid3<Complex> {
        let mut g = Grid3::filled(dims, Complex::ZERO);
        for x in 0..dims[0] {
            for y in 0..dims[1] {
                for z in 0..dims[2] {
                    let phase = 2.0 * std::f64::consts::PI * (k[0] * x) as f64 / dims[0] as f64
                        + 2.0 * std::f64::consts::PI * (k[1] * y) as f64 / dims[1] as f64
                        + 2.0 * std::f64::consts::PI * (k[2] * z) as f64 / dims[2] as f64;
                    *g.get_mut(x, y, z) = Complex::cis(phase);
                }
            }
        }
        g
    }

    #[test]
    fn plane_wave_lands_in_single_bin() {
        let dims = [8, 4, 16];
        let k = [3, 1, 5];
        let plan = Fft3d::new(dims).unwrap();
        let mut g = wave_grid(dims, k);
        plan.forward(&Serial, &mut g).unwrap();
        let total = (dims[0] * dims[1] * dims[2]) as f64;
        for x in 0..dims[0] {
            for y in 0..dims[1] {
                for z in 0..dims[2] {
                    let v = *g.get(x, y, z);
                    if (x, y, z) == (k[0], k[1], k[2]) {
                        assert!((v.re - total).abs() < 1e-8, "peak: {v:?}");
                        assert!(v.im.abs() < 1e-8);
                    } else {
                        assert!(v.abs() < 1e-8, "leakage at ({x},{y},{z}): {v:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn roundtrip_threaded_matches_input() {
        let t = Threaded::new(4);
        let dims = [16, 16, 16];
        let plan = Fft3d::new(dims).unwrap();
        let orig: Vec<Complex> = (0..dims.iter().product::<usize>())
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let mut g = Grid3::from_vec(dims, orig.clone());
        plan.forward(&t, &mut g).unwrap();
        plan.inverse(&t, &mut g).unwrap();
        for (a, b) in g.as_slice().iter().zip(&orig) {
            assert!((a.re - b.re).abs() < 1e-10 && (a.im - b.im).abs() < 1e-10);
        }
    }

    #[test]
    fn backends_agree() {
        let t = Threaded::new(4);
        let dims = [8, 8, 8];
        let plan = Fft3d::new(dims).unwrap();
        let orig: Vec<Complex> = (0..512)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.5).cos()))
            .collect();
        let mut a = Grid3::from_vec(dims, orig.clone());
        let mut b = Grid3::from_vec(dims, orig);
        plan.forward(&Serial, &mut a).unwrap();
        plan.forward(&t, &mut b).unwrap();
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x.re - y.re).abs() < 1e-12 && (x.im - y.im).abs() < 1e-12);
        }
    }

    #[test]
    fn real_helpers_roundtrip() {
        let t = Threaded::new(2);
        let dims = [8, 4, 8];
        let real_data: Vec<f64> = (0..dims.iter().product::<usize>())
            .map(|i| (i as f64 * 0.13).sin())
            .collect();
        let real = Grid3::from_vec(dims, real_data.clone());
        let mut spec = forward_real(&t, &real).unwrap();
        let (back, max_im) = inverse_to_real(&t, &mut spec).unwrap();
        assert!(max_im < 1e-10);
        for (a, b) in back.as_slice().iter().zip(&real_data) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn real_input_spectrum_is_hermitian() {
        let dims = [8, 8, 8];
        let real_data: Vec<f64> = (0..512)
            .map(|i| ((i * 37) % 101) as f64 / 50.0 - 1.0)
            .collect();
        let real = Grid3::from_vec(dims, real_data);
        let spec = forward_real(&Serial, &real).unwrap();
        // X(-k) = conj(X(k))
        for x in 0..8 {
            for y in 0..8 {
                for z in 0..8 {
                    let a = *spec.get(x, y, z);
                    let b = *spec.get((8 - x) % 8, (8 - y) % 8, (8 - z) % 8);
                    assert!((a.re - b.re).abs() < 1e-9);
                    assert!((a.im + b.im).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let plan = Fft3d::new([8, 8, 8]).unwrap();
        let mut g = Grid3::filled([4, 4, 4], Complex::ZERO);
        assert!(plan.forward(&Serial, &mut g).is_err());
    }

    #[test]
    fn transposed_grid_of_equal_length_is_a_shape_fault() {
        // Same cell count, other shape: the error names both shapes.
        let plan = Fft3d::new([8, 4, 16]).unwrap();
        let mut g = Grid3::filled([16, 4, 8], Complex::ZERO);
        let err = plan.inverse(&Serial, &mut g).unwrap_err();
        assert_eq!(
            err,
            FftError::ShapeMismatch {
                expected: [8, 4, 16],
                got: [16, 4, 8]
            }
        );
        assert_eq!(
            err.to_string(),
            "grid shape [16, 4, 8] does not match plan shape [8, 4, 16]"
        );
    }

    #[test]
    fn non_pow2_plan_rejected() {
        assert!(Fft3d::new([6, 8, 8]).is_err());
    }
}
