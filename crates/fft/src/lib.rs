//! # fft — Fourier transforms for the particle-mesh solver and power spectra
//!
//! Power-of-two FFTs: cached-plan 1-D radix-2 transforms ([`Fft1d`]),
//! separable complex 3-D transforms ([`Fft3d`]) parallelized over blocks of
//! lines on a [`dpp::Backend`] (contiguous axis in place, strided axes
//! tiled), and the real-to-complex 3-D transform ([`RealFft3d`]) that takes a
//! real grid to the `nz/2 + 1`-column half of its Hermitian spectrum and back
//! — half the data and half the work of promoting it to complex.
//!
//! Every product caller is real and runs [`RealFft3d`] on the whole mesh: the
//! particle-mesh Poisson solve and the initial conditions (`nbody`) and the
//! in-situ power spectrum (`cosmotools`).
//!
//! [`Fft3d`] is for complex data; it and the complex-output real-grid helpers
//! ([`forward_real`], [`inverse_to_real`]) have no product caller. A dense
//! [`Grid3`] container rounds it out.
//!
//! ```
//! use fft::{Complex, Fft1d};
//!
//! let plan = Fft1d::new(8).unwrap();
//! let mut x = vec![Complex::ZERO; 8];
//! x[0] = Complex::new(1.0, 0.0);
//! plan.forward(&mut x).unwrap();
//! assert!((x[5].re - 1.0).abs() < 1e-12); // impulse → flat spectrum
//! ```

#![warn(missing_docs)]
// 3-vector component loops read better indexed; the lint fires on them.
#![allow(clippy::needless_range_loop)]

pub mod complex;
pub mod fft1d;
pub mod fft3d;
pub mod grid;
pub mod rfft3d;

pub use complex::Complex;
pub use fft1d::{Fft1d, FftError};
pub use fft3d::{forward_real, inverse_to_real, Fft3d};
pub use grid::{freq_index, Grid3};
pub use rfft3d::RealFft3d;
