//! Iterative radix-2 Cooley–Tukey FFT with cached twiddle factors (both
//! directions: the inverse table is the forward one conjugated, built once
//! with the plan, so the butterfly loop reads a table and never negates).
//!
//! One line at a time ([`Fft1d::forward`], [`Fft1d::inverse`]) or `LANES`
//! (16) lines at once, lane-interleaved (`LaneLines`): the batch runs every line
//! through the same stages, twiddles and expressions in the same order, so
//! each of its lines is the one-line transform bit for bit; the vector
//! registers then carry lines instead of one line's scattered points. The
//! 3-D passes use the batch; the one-line routine is the reference it is
//! held to (`conformance::layout`, `fft3d-tiled`).

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

/// Lines a lane-batched transform carries at once: 16 `f64`s, two full
/// cache lines per point, is a whole contiguous run of a strided pass's
/// neighbouring lines.
pub(crate) const LANES: usize = 16;

/// Up to [`LANES`] lines of one plan's length, lane-interleaved: point `k`
/// of line `j` is `(re[k][j], im[k][j])` once loaded, in bit-reversed row
/// order until [`Fft1d::run_lanes`] has run. A chunk of a 3-D pass keeps one
/// and reuses it for every batch of lines it transforms.
pub(crate) struct LaneLines {
    pub(crate) re: Vec<[f64; LANES]>,
    pub(crate) im: Vec<[f64; LANES]>,
}

impl LaneLines {
    /// Point `k` of line `j` (after the transform, in natural order).
    #[inline(always)]
    pub(crate) fn get(&self, k: usize, j: usize) -> Complex {
        Complex::new(self.re[k][j], self.im[k][j])
    }
}

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

    /// Scratch for [`Fft1d::run_lanes`]: [`LANES`] lines of this length.
    pub(crate) fn lane_lines(&self) -> LaneLines {
        LaneLines {
            re: vec![[0.0; LANES]; self.n],
            im: vec![[0.0; LANES]; self.n],
        }
    }

    /// The row a batch loads point `k` into: `k` bit-reversed.
    #[inline(always)]
    pub(crate) fn bit_reversed(&self, k: usize) -> usize {
        self.rev[k] as usize
    }

    /// Load `lines ≤ LANES` lines, point `k` of line `j` being `at(k, j)`,
    /// straight into bit-reversed rows — row `rev(k)` takes point `k`, where
    /// [`Fft1d::run`]'s swaps would put it. Lanes past `lines` are zeroed, so
    /// a short batch computes on zeros.
    #[inline(always)]
    pub(crate) fn load_lanes(
        &self,
        lanes: &mut LaneLines,
        lines: usize,
        at: impl Fn(usize, usize) -> Complex,
    ) {
        debug_assert!(lines <= LANES);
        for (k, &r) in self.rev.iter().enumerate() {
            let (re, im) = (&mut lanes.re[r as usize], &mut lanes.im[r as usize]);
            for j in 0..lines {
                let z = at(k, j);
                (re[j], im[j]) = (z.re, z.im);
            }
            re[lines..].fill(0.0);
            im[lines..].fill(0.0);
        }
    }

    /// [`Fft1d::run`] on every line of a loaded batch at once: the same
    /// stages, the same twiddle `tw[k·step]`, the same products
    /// `(b.re·w.re − b.im·w.im, b.re·w.im + b.im·w.re)`, sums and `1/n`
    /// scale, lane by lane — so each line's bits are its one-line
    /// transform's. No operation is fused or reassociated.
    pub(crate) fn run_lanes(&self, lanes: &mut LaneLines, inverse: bool) {
        let n = self.n;
        let twiddles = if inverse {
            &self.twiddles_inv
        } else {
            &self.twiddles
        };
        let (re, im) = (&mut lanes.re[..], &mut lanes.im[..]);
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let step = n / len;
            for base in (0..n).step_by(len) {
                let (a_re, b_re) = re[base..base + len].split_at_mut(half);
                let (a_im, b_im) = im[base..base + len].split_at_mut(half);
                for k in 0..half {
                    let w = twiddles[k * step];
                    let (ar, ai) = (&mut a_re[k], &mut a_im[k]);
                    let (br, bi) = (&mut b_re[k], &mut b_im[k]);
                    for j in 0..LANES {
                        let tr = br[j] * w.re - bi[j] * w.im;
                        let ti = br[j] * w.im + bi[j] * w.re;
                        (br[j], bi[j]) = (ar[j] - tr, ai[j] - ti);
                        (ar[j], ai[j]) = (ar[j] + tr, ai[j] + ti);
                    }
                }
            }
            len <<= 1;
        }
        if inverse {
            let s = 1.0 / n as f64;
            for row in re.iter_mut().chain(im.iter_mut()) {
                for v in row {
                    *v *= s;
                }
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
