//! Distributed real-to-complex 3-D FFT over a 1-D slab decomposition (the
//! layout HACC-style particle-mesh solvers use across MPI ranks), built from
//! the passes [`crate::RealFft3d`] runs on the whole mesh.
//!
//! Layout A ("real space"): rank `r` of `R` holds the real x-slab
//! `x ∈ [r·s, (r+1)·s)`, `s = ng/R`, stored as a `Grid3<f64>` of dims
//! `[s, ng, ng]` indexed `(x_local, y, z)`.
//!
//! Layout B ("spectral"): after the forward transform rank `r` holds the
//! y-slab `y ∈ [r·s, (r+1)·s)` of the half spectrum, stored x-major as a
//! `Grid3<Complex>` of dims `[ng, s, ng/2 + 1]` indexed `(x, y_local, kz)` —
//! the whole-mesh half spectrum's layout with `y` cut to the slab, so
//! k-space passes over it are the whole-mesh ones given the slab's first
//! global `y`.
//!
//! Forward: the z rows through `RealFft3d`'s packed row kernel and untangle,
//! the y lines (`fft3d::transform_axis`), the global transpose (one
//! `alltoallv` of `ng/2 + 1`-column blocks), the x lines. The inverse runs
//! the same passes backwards: x, transpose, y, z rows. Every row and line is
//! the whole-mesh transform's, in its order, so the gathered slabs equal
//! [`crate::RealFft3d`] bit for bit (`conformance::layout`, `slab-fft`).
//! A rank's passes run on `dpp::Serial`: the ranks are the parallelism.

use crate::complex::Complex;
use crate::fft1d::{Fft1d, FftError};
use crate::fft3d::transform_axis;
use crate::grid::Grid3;
use crate::rfft3d::RealRows;
use comm::Communicator;
use dpp::Serial;

/// A distributed real-to-complex transform plan for an `ng³` grid over
/// `nranks` slabs.
#[derive(Debug, Clone)]
pub struct SlabFft {
    ng: usize,
    nranks: usize,
    /// The `ng`-point plan of the y and x lines.
    line: Fft1d,
    /// The packed z-row kernel.
    rows: RealRows,
}

impl SlabFft {
    /// Plan for an `ng³` grid distributed over `nranks` ranks. `ng` must be
    /// a power of two, at least 2, divisible by `nranks`.
    pub fn new(ng: usize, nranks: usize) -> Result<Self, FftError> {
        if nranks == 0 || !ng.is_multiple_of(nranks) {
            return Err(FftError::SlabsDoNotDivide { ng, nranks });
        }
        Ok(SlabFft {
            ng,
            nranks,
            line: Fft1d::new(ng)?,
            rows: RealRows::new(ng)?,
        })
    }

    /// Slab thickness (`ng / nranks`).
    pub fn slab(&self) -> usize {
        self.ng / self.nranks
    }

    /// Layout A: the real x-slab `[s, ng, ng]`.
    fn real_dims(&self) -> [usize; 3] {
        [self.slab(), self.ng, self.ng]
    }

    /// Layout B: the half-spectrum y-slab `[ng, s, ng/2 + 1]`.
    fn spectrum_dims(&self) -> [usize; 3] {
        [self.ng, self.slab(), self.ng / 2 + 1]
    }

    fn check(
        &self,
        comm: &Communicator,
        expected: [usize; 3],
        got: [usize; 3],
    ) -> Result<(), FftError> {
        if comm.size() != self.nranks {
            return Err(FftError::RankCountMismatch {
                expected: self.nranks,
                got: comm.size(),
            });
        }
        if got != expected {
            return Err(FftError::ShapeMismatch { expected, got });
        }
        Ok(())
    }

    /// Global transpose A→B of the row-transformed slab: from `[s, ng, h]`
    /// indexed `(x_local, y, kz)` to `[ng, s, h]` indexed `(x, y_local, kz)`.
    /// Each `(x_local, y-block)` run of `s·h` cells goes whole to the
    /// block's rank, and a y-slab of the x-major layout B is the received
    /// blocks laid end to end in source-rank order.
    fn transpose_a_to_b(&self, comm: &Communicator, a: &Grid3<Complex>) -> Grid3<Complex> {
        let [_, s, h] = self.spectrum_dims();
        let runs = a.as_slice().chunks_exact(s * h);
        let sends = (0..self.nranks)
            .map(|dst| {
                runs.clone()
                    .skip(dst)
                    .step_by(self.nranks)
                    .flatten()
                    .copied()
                    .collect()
            })
            .collect();
        Grid3::from_vec(self.spectrum_dims(), comm.alltoallv(sends).concat())
    }

    /// Global transpose B→A (the exact inverse of [`Self::transpose_a_to_b`]).
    fn transpose_b_to_a(&self, comm: &Communicator, b: Grid3<Complex>) -> Grid3<Complex> {
        let [_, s, h] = self.spectrum_dims();
        let blocks = b.as_slice().chunks_exact(s * s * h);
        let recvd = comm.alltoallv(blocks.map(<[Complex]>::to_vec).collect());
        let mut a = Vec::with_capacity(b.len());
        for x in 0..s {
            for block in &recvd {
                a.extend_from_slice(&block[x * s * h..(x + 1) * s * h]);
            }
        }
        Grid3::from_vec([s, self.ng, h], a)
    }

    /// Forward distributed transform (**collective**): the layout-A real
    /// slab in, its layout-B half-spectrum slab out (no normalization).
    pub fn forward(
        &self,
        comm: &Communicator,
        real: &Grid3<f64>,
    ) -> Result<Grid3<Complex>, FftError> {
        self.check(comm, self.real_dims(), real.dims())?;
        let mut a = self.rows.forward(&Serial, real);
        transform_axis(&Serial, &self.line, &mut a, 1, false);
        let mut b = self.transpose_a_to_b(comm, &a);
        transform_axis(&Serial, &self.line, &mut b, 0, false);
        Ok(b)
    }

    /// Inverse distributed transform (**collective**): a layout-B
    /// half-spectrum slab in, the layout-A real slab out (`1/ng³`
    /// normalization applied) — `Re` of the complex inverse of the Hermitian
    /// spectrum the halves extend to, as [`crate::RealFft3d::inverse`].
    pub fn inverse(
        &self,
        comm: &Communicator,
        mut b: Grid3<Complex>,
    ) -> Result<Grid3<f64>, FftError> {
        self.check(comm, self.spectrum_dims(), b.dims())?;
        transform_axis(&Serial, &self.line, &mut b, 0, true);
        let mut a = self.transpose_b_to_a(comm, b);
        transform_axis(&Serial, &self.line, &mut a, 1, true);
        Ok(self.rows.inverse(&Serial, a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comm::World;

    /// Deterministic full real test grid.
    fn full_grid(ng: usize) -> Grid3<f64> {
        let data = (0..ng * ng * ng).map(|i| (i as f64 * 0.37).sin() + (i as f64 * 0.13).cos());
        Grid3::from_vec([ng, ng, ng], data.collect())
    }

    /// Rank `r`'s layout-A slab of a full grid.
    fn slab_of(full: &Grid3<f64>, r: usize, nranks: usize) -> Grid3<f64> {
        let [ng, _, _] = full.dims();
        let s = ng / nranks;
        let cells = s * ng * ng;
        Grid3::from_vec(
            [s, ng, ng],
            full.as_slice()[r * cells..(r + 1) * cells].to_vec(),
        )
    }

    #[test]
    fn roundtrip_recovers_slabs() {
        let ng = 16;
        let full = full_grid(ng);
        for nranks in [1usize, 2, 4, 8] {
            let plan = SlabFft::new(ng, nranks).unwrap();
            let back = World::new(nranks).run(|c| {
                let b = plan.forward(c, &slab_of(&full, c.rank(), nranks)).unwrap();
                plan.inverse(c, b).unwrap()
            });
            for (r, g) in back.iter().enumerate() {
                let expect = slab_of(&full, r, nranks);
                for (x, y) in g.as_slice().iter().zip(expect.as_slice()) {
                    assert!(
                        (x - y).abs() < 1e-12,
                        "nranks={nranks} rank={r}: {x} vs {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn transpose_roundtrip_is_identity() {
        let (ng, nranks) = (8, 4);
        let plan = SlabFft::new(ng, nranks).unwrap();
        let dims = [ng / nranks, ng, ng / 2 + 1];
        let slab = |r: usize| {
            let n = dims.iter().product::<usize>();
            let data = (0..n).map(|i| Complex::new(r as f64, i as f64));
            Grid3::from_vec(dims, data.collect())
        };
        let back = World::new(nranks).run(|c| {
            let b = plan.transpose_a_to_b(c, &slab(c.rank()));
            assert_eq!(b.dims(), [ng, ng / nranks, ng / 2 + 1]);
            plan.transpose_b_to_a(c, b)
        });
        for (r, g) in back.iter().enumerate() {
            assert_eq!(g, &slab(r), "rank {r}");
        }
    }

    #[test]
    fn errors_name_the_fault() {
        // A power-of-two side that does not split into the slabs asked for
        // is a rank-count fault, not a length fault.
        for nranks in [3, 0] {
            let err = SlabFft::new(8, nranks).unwrap_err();
            assert_eq!(err, FftError::SlabsDoNotDivide { ng: 8, nranks });
            assert!(!err.to_string().contains("power of two"), "{err}");
        }
        assert_eq!(
            SlabFft::new(12, 3).unwrap_err(),
            FftError::NonPowerOfTwo(12)
        );
        // A slab of the wrong thickness. The bits against `RealFft3d`, a
        // layout-A shape handed to `inverse`, `ng = 1` and a wrong world size
        // are `conformance::layout`'s `slab-fft` family.
        let plan = SlabFft::new(8, 2).unwrap();
        let errs = World::new(2).run(|c| plan.forward(c, &Grid3::filled([2, 8, 8], 0.0)));
        for err in errs {
            assert_eq!(
                err.unwrap_err(),
                FftError::ShapeMismatch {
                    expected: [4, 8, 8],
                    got: [2, 8, 8]
                }
            );
        }
    }
}
