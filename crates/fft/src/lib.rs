//! # fft — Fourier transforms for the particle-mesh solver and power spectra
//!
//! Power-of-two complex FFTs: cached-plan 1-D radix-2 transforms ([`Fft1d`])
//! and separable 3-D transforms ([`Fft3d`]) parallelized over blocks of lines
//! on a [`dpp::Backend`] (contiguous axis in place, strided axes tiled). A dense [`Grid3`] container and real-grid helpers round
//! out what the HACC-equivalent solver (`nbody`) and the in-situ power
//! spectrum (`cosmotools`) need.
//!
//! ```
//! use fft::{Complex, Fft1d};
//!
//! let plan = Fft1d::new(8).unwrap();
//! let mut x = vec![Complex::ZERO; 8];
//! x[0] = Complex::ONE;
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
pub mod slab;

pub use complex::Complex;
pub use fft1d::{naive_dft, Fft1d, FftError};
pub use fft3d::{forward_real, inverse_to_real, Fft3d};
pub use grid::{freq_index, Grid3};
pub use slab::SlabFft;
