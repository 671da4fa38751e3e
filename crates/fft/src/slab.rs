//! Distributed 3-D FFT over a 1-D slab decomposition (the layout HACC-style
//! particle-mesh solvers use across MPI ranks).
//!
//! Layout A ("real space"): rank `r` of `R` holds the x-slab
//! `x ∈ [r·ng/R, (r+1)·ng/R)`, stored as a `Grid3` of dims
//! `[ng/R, ng, ng]` indexed `(x_local, y, z)`.
//!
//! Layout B ("spectral"): after the forward transform rank `r` holds the
//! y-slab `y ∈ [r·ng/R, (r+1)·ng/R)` of the spectrum, stored as dims
//! `[ng/R, ng, ng]` indexed `(y_local, x, z)` — all `x` and `z` present, so
//! k-space multipliers can be applied locally.
//!
//! Pipeline: 2-D FFT over (y,z) per local x-plane → global transpose
//! (alltoallv) → 1-D FFT over x per (y,z) line. The inverse runs the same
//! stages backwards.

use crate::complex::Complex;
use crate::fft1d::{Fft1d, FftError};
use crate::grid::Grid3;
use comm::Communicator;

/// A distributed transform plan for an `ng³` grid over `nranks` slabs.
#[derive(Debug, Clone)]
pub struct SlabFft {
    ng: usize,
    nranks: usize,
    plan: Fft1d,
}

impl SlabFft {
    /// Plan for an `ng³` grid distributed over `nranks` ranks. `ng` must be
    /// a power of two divisible by `nranks`.
    pub fn new(ng: usize, nranks: usize) -> Result<Self, FftError> {
        if nranks == 0 || !ng.is_multiple_of(nranks) {
            return Err(FftError::SlabsDoNotDivide { ng, nranks });
        }
        Ok(SlabFft {
            ng,
            nranks,
            plan: Fft1d::new(ng)?,
        })
    }

    /// Mesh size per dimension.
    pub fn ng(&self) -> usize {
        self.ng
    }

    /// Slab thickness (`ng / nranks`).
    pub fn slab(&self) -> usize {
        self.ng / self.nranks
    }

    /// Expected local grid dims (same for both layouts).
    fn local_dims(&self) -> [usize; 3] {
        [self.slab(), self.ng, self.ng]
    }

    fn check(&self, comm: &Communicator, g: &Grid3<Complex>) -> Result<(), FftError> {
        if comm.size() != self.nranks {
            return Err(FftError::RankCountMismatch {
                expected: self.nranks,
                got: comm.size(),
            });
        }
        if g.dims() != self.local_dims() {
            return Err(FftError::ShapeMismatch {
                expected: self.local_dims(),
                got: g.dims(),
            });
        }
        Ok(())
    }

    /// 2-D transform over (y,z) of every local x-plane, in place.
    fn fft_yz(&self, g: &mut Grid3<Complex>, inverse: bool) {
        let [sx, ny, nz] = g.dims();
        let mut line = vec![Complex::ZERO; self.ng];
        for x in 0..sx {
            // z lines (contiguous).
            for y in 0..ny {
                let base = g.index(x, y, 0);
                let s = &mut g.as_mut_slice()[base..base + nz];
                if inverse {
                    self.plan.inverse(s).expect("planned length");
                } else {
                    self.plan.forward(s).expect("planned length");
                }
            }
            // y lines (strided by nz).
            for z in 0..nz {
                for (y, l) in line.iter_mut().enumerate() {
                    *l = *g.get(x, y, z);
                }
                if inverse {
                    self.plan.inverse(&mut line).expect("planned length");
                } else {
                    self.plan.forward(&mut line).expect("planned length");
                }
                for (y, l) in line.iter().enumerate() {
                    *g.get_mut(x, y, z) = *l;
                }
            }
        }
    }

    /// 1-D transform over x of every (y_local, z) line of a layout-B grid.
    fn fft_x(&self, g: &mut Grid3<Complex>, inverse: bool) {
        let [sy, nx, nz] = g.dims();
        let mut line = vec![Complex::ZERO; nx];
        for y in 0..sy {
            for z in 0..nz {
                for (x, l) in line.iter_mut().enumerate() {
                    *l = *g.get(y, x, z);
                }
                if inverse {
                    self.plan.inverse(&mut line).expect("planned length");
                } else {
                    self.plan.forward(&mut line).expect("planned length");
                }
                for (x, l) in line.iter().enumerate() {
                    *g.get_mut(y, x, z) = *l;
                }
            }
        }
    }

    /// Global transpose A→B: from x-slabs indexed `(x_local, y, z)` to
    /// y-slabs indexed `(y_local, x, z)`.
    fn transpose_a_to_b(&self, comm: &Communicator, a: &Grid3<Complex>) -> Grid3<Complex> {
        let s = self.slab();
        let ng = self.ng;
        // Pack: to rank `dst` goes the block y ∈ dst-slab, all local x, all z,
        // ordered (x_local, y_in_block, z).
        let sends: Vec<Vec<Complex>> = (0..self.nranks)
            .map(|dst| {
                let mut buf = Vec::with_capacity(s * s * ng);
                for x in 0..s {
                    for y in dst * s..(dst + 1) * s {
                        for z in 0..ng {
                            buf.push(*a.get(x, y, z));
                        }
                    }
                }
                buf
            })
            .collect();
        let recvd = comm.alltoallv(sends);
        // Unpack: from rank `src` comes x_global ∈ src-slab for my y-slab.
        let mut b = Grid3::filled([s, ng, ng], Complex::ZERO);
        for (src, buf) in recvd.iter().enumerate() {
            let mut it = buf.iter();
            for xl in 0..s {
                let xg = src * s + xl;
                for yl in 0..s {
                    for z in 0..ng {
                        *b.get_mut(yl, xg, z) = *it.next().expect("block size");
                    }
                }
            }
        }
        b
    }

    /// Global transpose B→A (exact inverse of [`Self::transpose_a_to_b`]).
    fn transpose_b_to_a(&self, comm: &Communicator, b: &Grid3<Complex>) -> Grid3<Complex> {
        let s = self.slab();
        let ng = self.ng;
        // To rank `dst` goes the block x ∈ dst-slab, my y-slab, all z,
        // ordered (x_in_block, y_local, z).
        let sends: Vec<Vec<Complex>> = (0..self.nranks)
            .map(|dst| {
                let mut buf = Vec::with_capacity(s * s * ng);
                for xl in 0..s {
                    let xg = dst * s + xl;
                    for yl in 0..s {
                        for z in 0..ng {
                            buf.push(*b.get(yl, xg, z));
                        }
                    }
                }
                buf
            })
            .collect();
        let recvd = comm.alltoallv(sends);
        let mut a = Grid3::filled([s, ng, ng], Complex::ZERO);
        for (src, buf) in recvd.iter().enumerate() {
            let mut it = buf.iter();
            for xl in 0..s {
                for yl in 0..s {
                    let yg = src * s + yl;
                    for z in 0..ng {
                        *a.get_mut(xl, yg, z) = *it.next().expect("block size");
                    }
                }
            }
        }
        a
    }

    /// Forward distributed transform: layout-A real-space slab in, layout-B
    /// spectrum out (no normalization).
    pub fn forward(
        &self,
        comm: &Communicator,
        mut a: Grid3<Complex>,
    ) -> Result<Grid3<Complex>, FftError> {
        self.check(comm, &a)?;
        self.fft_yz(&mut a, false);
        let mut b = self.transpose_a_to_b(comm, &a);
        self.fft_x(&mut b, false);
        Ok(b)
    }

    /// Inverse distributed transform: layout-B spectrum in, layout-A real
    /// slab out (`1/ng³` normalization applied).
    pub fn inverse(
        &self,
        comm: &Communicator,
        mut b: Grid3<Complex>,
    ) -> Result<Grid3<Complex>, FftError> {
        self.check(comm, &b)?;
        self.fft_x(&mut b, true);
        let mut a = self.transpose_b_to_a(comm, &b);
        self.fft_yz(&mut a, true);
        Ok(a)
    }

    /// Global (kx, ky, kz) integer frequencies of layout-B element
    /// `(y_local, x, z)` on `rank`.
    pub fn freqs_b(&self, rank: usize, y_local: usize, x: usize, z: usize) -> (i64, i64, i64) {
        let yg = rank * self.slab() + y_local;
        (
            crate::grid::freq_index(x, self.ng),
            crate::grid::freq_index(yg, self.ng),
            crate::grid::freq_index(z, self.ng),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft3d::Fft3d;
    use comm::World;
    use dpp::Serial;

    /// Deterministic full test grid.
    fn full_grid(ng: usize) -> Grid3<Complex> {
        let data: Vec<Complex> = (0..ng * ng * ng)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.13).cos()))
            .collect();
        Grid3::from_vec([ng, ng, ng], data)
    }

    /// Extract rank `r`'s layout-A slab from a full grid.
    fn slab_of(full: &Grid3<Complex>, r: usize, nranks: usize) -> Grid3<Complex> {
        let ng = full.dims()[0];
        let s = ng / nranks;
        let mut g = Grid3::filled([s, ng, ng], Complex::ZERO);
        for xl in 0..s {
            for y in 0..ng {
                for z in 0..ng {
                    *g.get_mut(xl, y, z) = *full.get(r * s + xl, y, z);
                }
            }
        }
        g
    }

    #[test]
    fn forward_matches_serial_fft() {
        let ng = 16;
        for nranks in [1usize, 2, 4] {
            let full = full_grid(ng);
            // Serial reference.
            let mut reference = full.clone();
            Fft3d::new([ng, ng, ng])
                .unwrap()
                .forward(&Serial, &mut reference)
                .unwrap();

            let plan = SlabFft::new(ng, nranks).unwrap();
            let world = World::new(nranks);
            let spectra = world.run(|c| {
                let a = slab_of(&full, c.rank(), nranks);
                plan.forward(c, a).unwrap()
            });
            // Compare each rank's y-slab against the reference.
            let s = ng / nranks;
            for (r, b) in spectra.iter().enumerate() {
                for yl in 0..s {
                    for x in 0..ng {
                        for z in 0..ng {
                            let got = *b.get(yl, x, z);
                            let want = *reference.get(x, r * s + yl, z);
                            assert!(
                                (got.re - want.re).abs() < 1e-9 && (got.im - want.im).abs() < 1e-9,
                                "nranks={nranks} rank={r} ({yl},{x},{z}): {got:?} vs {want:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn roundtrip_recovers_slabs() {
        let ng = 16;
        for nranks in [1usize, 2, 4, 8] {
            let full = full_grid(ng);
            let plan = SlabFft::new(ng, nranks).unwrap();
            let world = World::new(nranks);
            let back = world.run(|c| {
                let a = slab_of(&full, c.rank(), nranks);
                let b = plan.forward(c, a).unwrap();
                plan.inverse(c, b).unwrap()
            });
            for (r, g) in back.iter().enumerate() {
                let expect = slab_of(&full, r, nranks);
                for (x, y) in g.as_slice().iter().zip(expect.as_slice()) {
                    assert!(
                        (x.re - y.re).abs() < 1e-10 && (x.im - y.im).abs() < 1e-10,
                        "nranks={nranks} rank={r}"
                    );
                }
            }
        }
    }

    #[test]
    fn transpose_roundtrip_is_identity() {
        let ng = 8;
        let nranks = 4;
        let full = full_grid(ng);
        let plan = SlabFft::new(ng, nranks).unwrap();
        let world = World::new(nranks);
        let back = world.run(|c| {
            let a = slab_of(&full, c.rank(), nranks);
            let b = plan.transpose_a_to_b(c, &a);
            plan.transpose_b_to_a(c, &b)
        });
        for (r, g) in back.iter().enumerate() {
            assert_eq!(g, &slab_of(&full, r, nranks), "rank {r}");
        }
    }

    #[test]
    fn freqs_match_layout() {
        let plan = SlabFft::new(8, 2).unwrap();
        // Rank 1, y_local 2 → global y = 6 → freq -2 (n=8).
        let (kx, ky, kz) = plan.freqs_b(1, 2, 3, 7);
        assert_eq!(kx, 3);
        assert_eq!(ky, -2);
        assert_eq!(kz, -1);
    }

    #[test]
    fn bad_configs_rejected() {
        assert!(SlabFft::new(8, 3).is_err(), "8 not divisible by 3");
        assert!(SlabFft::new(8, 0).is_err());
        let plan = SlabFft::new(8, 2).unwrap();
        let world = World::new(2);
        let errs = world.run(|c| {
            let wrong = Grid3::filled([2, 8, 8], Complex::ZERO); // slab should be 4
            plan.forward(c, wrong).is_err()
        });
        assert!(errs.iter().all(|&e| e));
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
        let plan = SlabFft::new(8, 2).unwrap();
        let errs = World::new(4).run(|c| plan.forward(c, Grid3::filled([4, 8, 8], Complex::ZERO)));
        for err in errs {
            assert_eq!(
                err.unwrap_err(),
                FftError::RankCountMismatch {
                    expected: 2,
                    got: 4
                }
            );
        }
        let errs = World::new(2).run(|c| plan.inverse(c, Grid3::filled([2, 8, 8], Complex::ZERO)));
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
