//! Dense 3-D grids stored in row-major (x slowest, z fastest) order.

use crate::complex::Complex;

/// A dense `nx × ny × nz` grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid3<T> {
    dims: [usize; 3],
    data: Vec<T>,
}

impl<T: Clone> Grid3<T> {
    /// A grid filled with `value`.
    pub fn filled(dims: [usize; 3], value: T) -> Self {
        let n = dims[0] * dims[1] * dims[2];
        Grid3 {
            dims,
            data: vec![value; n],
        }
    }
}

impl<T> Grid3<T> {
    /// Build from existing data; panics if the length does not match.
    pub fn from_vec(dims: [usize; 3], data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            dims[0] * dims[1] * dims[2],
            "grid data length does not match dims {dims:?}"
        );
        Grid3 { dims, data }
    }

    /// Grid dimensions `[nx, ny, nz]`.
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Total number of cells.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the grid has zero cells.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat index of `(x, y, z)`.
    #[inline]
    fn index(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.dims[0] && y < self.dims[1] && z < self.dims[2]);
        (x * self.dims[1] + y) * self.dims[2] + z
    }

    /// Inverse of [`Grid3::index`].
    #[cfg(test)]
    fn coords(&self, flat: usize) -> (usize, usize, usize) {
        let nz = self.dims[2];
        let ny = self.dims[1];
        (flat / (ny * nz), (flat / nz) % ny, flat % nz)
    }

    /// Shared element access.
    #[inline]
    pub fn get(&self, x: usize, y: usize, z: usize) -> &T {
        &self.data[self.index(x, y, z)]
    }

    /// Mutable element access.
    #[inline]
    pub fn get_mut(&mut self, x: usize, y: usize, z: usize) -> &mut T {
        let i = self.index(x, y, z);
        &mut self.data[i]
    }

    /// Flat view of the storage.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Flat mutable view of the storage.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// The storage, flat.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }
}

impl Grid3<Complex> {
    /// The storage as the reals it holds, `re` then `im` per cell: `2·len`
    /// values (`Complex` is `#[repr(C)]`).
    pub fn as_reals(&self) -> &[f64] {
        // SAFETY: `Complex` is two `f64`s with no padding and the same
        // alignment, so `len` of them are `2·len` initialized `f64`s.
        unsafe { std::slice::from_raw_parts(self.data.as_ptr().cast(), 2 * self.data.len()) }
    }

    /// [`Grid3::as_reals`], mutably: a real grid of up to `2·len` values can
    /// live in a spectrum's storage.
    pub fn as_reals_mut(&mut self) -> &mut [f64] {
        // SAFETY: as in `as_reals`; every bit pattern is a valid `f64`.
        unsafe {
            std::slice::from_raw_parts_mut(self.data.as_mut_ptr().cast(), 2 * self.data.len())
        }
    }
}

/// Signed frequency index for FFT output bin `i` of an `n`-point transform:
/// `0, 1, …, n/2, -(n/2-1), …, -1`.
#[inline]
pub fn freq_index(i: usize, n: usize) -> i64 {
    let i = i as i64;
    let n = n as i64;
    if i <= n / 2 {
        i
    } else {
        i - n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        let g = Grid3::filled([3, 4, 5], 0u8);
        for x in 0..3 {
            for y in 0..4 {
                for z in 0..5 {
                    let f = g.index(x, y, z);
                    assert_eq!(g.coords(f), (x, y, z));
                }
            }
        }
    }

    #[test]
    fn z_is_fastest_axis() {
        let g = Grid3::filled([2, 2, 4], 0u8);
        assert_eq!(g.index(0, 0, 1) - g.index(0, 0, 0), 1);
        assert_eq!(g.index(0, 1, 0) - g.index(0, 0, 0), 4);
        assert_eq!(g.index(1, 0, 0) - g.index(0, 0, 0), 8);
    }

    #[test]
    fn get_set() {
        let mut g = Grid3::filled([2, 2, 2], 0i32);
        *g.get_mut(1, 0, 1) = 42;
        assert_eq!(*g.get(1, 0, 1), 42);
        assert_eq!(g.as_slice().iter().filter(|&&v| v == 42).count(), 1);
    }

    #[test]
    #[should_panic(expected = "does not match dims")]
    fn from_vec_checks_length() {
        Grid3::from_vec([2, 2, 2], vec![0u8; 7]);
    }

    #[test]
    fn freq_index_convention() {
        // n = 8: bins 0..8 map to 0,1,2,3,4,-3,-2,-1
        let got: Vec<i64> = (0..8).map(|i| freq_index(i, 8)).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4, -3, -2, -1]);
        // odd n = 5: 0,1,2,-2,-1
        let got: Vec<i64> = (0..5).map(|i| freq_index(i, 5)).collect();
        assert_eq!(got, vec![0, 1, 2, -2, -1]);
    }
}
