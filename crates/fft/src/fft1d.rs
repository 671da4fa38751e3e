//! Iterative radix-2 Cooley–Tukey FFT with cached twiddle factors (both
//! directions: the inverse table is the forward one conjugated, built once
//! with the plan, so the butterfly loop reads a table and never negates).

use crate::complex::Complex;

/// Errors from transform planning/execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FftError {
    /// The transform length is not a power of two (or is zero).
    NonPowerOfTwo(usize),
    /// A real-to-complex plan's contiguous axis is shorter than two points.
    RealAxisTooShort(usize),
    /// Input length does not match the plan length.
    LengthMismatch {
        /// Plan length.
        expected: usize,
        /// Supplied buffer length.
        got: usize,
    },
    /// A grid's shape does not match the plan's.
    ShapeMismatch {
        /// Planned shape.
        expected: [usize; 3],
        /// Supplied grid shape.
        got: [usize; 3],
    },
}

impl std::fmt::Display for FftError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FftError::NonPowerOfTwo(n) => {
                write!(f, "FFT length {n} is not a positive power of two")
            }
            FftError::RealAxisTooShort(n) => {
                write!(f, "a real FFT needs at least 2 points along z, got {n}")
            }
            FftError::LengthMismatch { expected, got } => {
                write!(
                    f,
                    "FFT buffer length {got} does not match plan length {expected}"
                )
            }
            FftError::ShapeMismatch { expected, got } => {
                write!(
                    f,
                    "grid shape {got:?} does not match plan shape {expected:?}"
                )
            }
        }
    }
}

impl std::error::Error for FftError {}

/// A cached transform plan for a fixed power-of-two length.
#[derive(Debug, Clone)]
pub struct Fft1d {
    n: usize,
    /// Twiddles `e^{-2πik/n}` for `k < n/2` (forward direction).
    twiddles: Vec<Complex>,
    /// The same twiddles conjugated (inverse direction).
    twiddles_inv: Vec<Complex>,
    /// Bit-reversal permutation.
    rev: Vec<u32>,
}

impl Fft1d {
    /// Plan a transform of length `n` (must be a positive power of two).
    pub fn new(n: usize) -> Result<Self, FftError> {
        if n == 0 || !n.is_power_of_two() {
            return Err(FftError::NonPowerOfTwo(n));
        }
        let twiddles: Vec<Complex> = (0..n / 2)
            .map(|k| Complex::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .collect();
        let twiddles_inv = twiddles.iter().map(|w| w.conj()).collect();
        let bits = n.trailing_zeros();
        let rev = (0..n as u32)
            .map(|i| {
                if bits == 0 {
                    0
                } else {
                    i.reverse_bits() >> (32 - bits)
                }
            })
            .collect();
        Ok(Fft1d {
            n,
            twiddles,
            twiddles_inv,
            rev,
        })
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false: a plan has at least one point (`new` rejects length 0).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// In-place forward DFT: `X[k] = Σ x[j] e^{-2πijk/n}` (no normalization).
    pub fn forward(&self, data: &mut [Complex]) -> Result<(), FftError> {
        self.check(data)?;
        self.run(data, false);
        Ok(())
    }

    /// In-place inverse DFT with `1/n` normalization.
    pub fn inverse(&self, data: &mut [Complex]) -> Result<(), FftError> {
        self.check(data)?;
        self.run(data, true);
        Ok(())
    }

    /// One line of a 3-D pass: [`Fft1d::forward`] or [`Fft1d::inverse`]
    /// (normalization included) on a line the caller cut to the plan length.
    pub(crate) fn run(&self, data: &mut [Complex], inverse: bool) {
        debug_assert_eq!(data.len(), self.n);
        self.transform(data, inverse);
        if inverse {
            let s = 1.0 / self.n as f64;
            for z in data.iter_mut() {
                *z = z.scale(s);
            }
        }
    }

    fn check(&self, data: &[Complex]) -> Result<(), FftError> {
        if data.len() != self.n {
            return Err(FftError::LengthMismatch {
                expected: self.n,
                got: data.len(),
            });
        }
        Ok(())
    }

    fn transform(&self, data: &mut [Complex], inverse: bool) {
        let n = self.n;
        if n == 1 {
            return;
        }
        // Bit-reversal reorder.
        for i in 0..n {
            let j = self.rev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        // Butterflies.
        let twiddles = if inverse {
            &self.twiddles_inv
        } else {
            &self.twiddles
        };
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let step = n / len;
            let mut base = 0;
            while base < n {
                for k in 0..half {
                    let w = twiddles[k * step];
                    let a = data[base + k];
                    let b = data[base + k + half] * w;
                    data[base + k] = a + b;
                    data[base + k + half] = a - b;
                }
                base += len;
            }
            len <<= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference naive DFT (O(n²)): the oracle the transforms are held to.
    fn naive_dft(data: &[Complex], inverse: bool) -> Vec<Complex> {
        let n = data.len();
        let sign = if inverse { 2.0 } else { -2.0 };
        let mut out = vec![Complex::ZERO; n];
        for (k, o) in out.iter_mut().enumerate() {
            let mut acc = Complex::ZERO;
            for (j, x) in data.iter().enumerate() {
                acc += *x * Complex::cis(sign * std::f64::consts::PI * (j * k) as f64 / n as f64);
            }
            *o = if inverse {
                acc.scale(1.0 / n as f64)
            } else {
                acc
            };
        }
        out
    }

    fn close(a: Complex, b: Complex, tol: f64) -> bool {
        (a.re - b.re).abs() < tol && (a.im - b.im).abs() < tol
    }

    #[test]
    fn rejects_bad_lengths() {
        assert_eq!(Fft1d::new(0).unwrap_err(), FftError::NonPowerOfTwo(0));
        assert_eq!(Fft1d::new(12).unwrap_err(), FftError::NonPowerOfTwo(12));
        assert!(Fft1d::new(1).is_ok());
        assert!(Fft1d::new(1024).is_ok());
    }

    #[test]
    fn length_mismatch_detected() {
        let plan = Fft1d::new(8).unwrap();
        let mut buf = vec![Complex::ZERO; 4];
        assert!(matches!(
            plan.forward(&mut buf),
            Err(FftError::LengthMismatch {
                expected: 8,
                got: 4
            })
        ));
    }

    #[test]
    fn impulse_gives_flat_spectrum() {
        let plan = Fft1d::new(16).unwrap();
        let mut x = vec![Complex::ZERO; 16];
        x[0] = Complex::ONE;
        plan.forward(&mut x).unwrap();
        for z in &x {
            assert!(close(*z, Complex::ONE, 1e-12));
        }
    }

    #[test]
    fn constant_gives_dc_only() {
        let plan = Fft1d::new(8).unwrap();
        let mut x = vec![Complex::ONE; 8];
        plan.forward(&mut x).unwrap();
        assert!(close(x[0], Complex::from_real(8.0), 1e-12));
        for z in &x[1..] {
            assert!(close(*z, Complex::ZERO, 1e-12));
        }
    }

    #[test]
    fn matches_naive_dft() {
        for n in [1usize, 2, 4, 8, 32, 128] {
            let plan = Fft1d::new(n).unwrap();
            let input: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
                .collect();
            let mut x = input.clone();
            plan.forward(&mut x).unwrap();
            let expect = naive_dft(&input, false);
            for (a, b) in x.iter().zip(&expect) {
                assert!(close(*a, *b, 1e-9), "n={n}: {a:?} vs {b:?}");
            }
        }
    }

    proptest! {
        #[test]
        fn matches_naive_dft_random(
            v in proptest::collection::vec(
                (-100.0f64..100.0, -100.0f64..100.0).prop_map(|(re, im)| Complex::new(re, im)),
                32,
            )
        ) {
            let plan = Fft1d::new(32).unwrap();
            let expect = naive_dft(&v, false);
            let mut x = v;
            plan.forward(&mut x).unwrap();
            for (a, b) in x.iter().zip(&expect) {
                prop_assert!((a.re - b.re).abs() < 1e-7);
                prop_assert!((a.im - b.im).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn roundtrip_recovers_input() {
        let plan = Fft1d::new(256).unwrap();
        let input: Vec<Complex> = (0..256)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 / 3.0).cos()))
            .collect();
        let mut x = input.clone();
        plan.forward(&mut x).unwrap();
        plan.inverse(&mut x).unwrap();
        for (a, b) in x.iter().zip(&input) {
            assert!(close(*a, *b, 1e-10));
        }
    }

    #[test]
    fn parseval_energy_conserved() {
        let n = 128;
        let plan = Fft1d::new(n).unwrap();
        let input: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.1).tan().clamp(-2.0, 2.0), 0.3))
            .collect();
        let time_energy: f64 = input.iter().map(|z| z.norm_sqr()).sum();
        let mut x = input;
        plan.forward(&mut x).unwrap();
        let freq_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy);
    }

    #[test]
    fn single_tone_lands_in_right_bin() {
        let n = 64;
        let plan = Fft1d::new(n).unwrap();
        let freq = 5;
        let mut x: Vec<Complex> = (0..n)
            .map(|i| Complex::cis(2.0 * std::f64::consts::PI * (freq * i) as f64 / n as f64))
            .collect();
        plan.forward(&mut x).unwrap();
        for (k, z) in x.iter().enumerate() {
            if k == freq {
                assert!((z.re - n as f64).abs() < 1e-9);
            } else {
                assert!(z.abs() < 1e-9, "leakage at bin {k}: {z:?}");
            }
        }
    }
}
