//! FFT invariants under random inputs.

use fft::{Complex, Fft1d, Fft3d, Grid3, RealFft3d};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

fn complex_vec(len: usize) -> impl Strategy<Value = Vec<Complex>> {
    proptest::collection::vec(
        (-100.0f64..100.0, -100.0f64..100.0).prop_map(|(re, im)| Complex::new(re, im)),
        len,
    )
}

/// A power-of-two shape, each axis 2–32.
fn real_shape() -> impl Strategy<Value = [usize; 3]> {
    (1u32..6, 1u32..6, 1u32..6).prop_map(|(a, b, c)| [1 << a, 1 << b, 1 << c])
}

/// A seeded real grid of shape `dims`, values in `[−10, 10)`.
fn real_grid(dims: [usize; 3], seed: u64) -> Grid3<f64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = dims.iter().product::<usize>();
    Grid3::from_vec(dims, (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect())
}

/// `max |v|` over a spectrum, at least 1: the scale its rounding error is
/// measured against.
fn scale_of(g: &Grid3<Complex>) -> f64 {
    g.as_slice().iter().map(|z| z.abs()).fold(1.0, f64::max)
}

proptest! {
    #[test]
    fn roundtrip_is_identity(exp in 0u32..10, seed in 0u64..1000) {
        let n = 1usize << exp;
        let data: Vec<Complex> = (0..n)
            .map(|i| {
                let t = (seed as f64 + i as f64) * 0.618;
                Complex::new(t.sin() * 10.0, (t * 1.7).cos() * 10.0)
            })
            .collect();
        let plan = Fft1d::new(n).unwrap();
        let mut x = data.clone();
        plan.forward(&mut x).unwrap();
        plan.inverse(&mut x).unwrap();
        for (a, b) in x.iter().zip(&data) {
            prop_assert!((a.re - b.re).abs() < 1e-8);
            prop_assert!((a.im - b.im).abs() < 1e-8);
        }
    }

    #[test]
    fn linearity(v in complex_vec(64), w in complex_vec(64), alpha in -5.0f64..5.0) {
        let plan = Fft1d::new(64).unwrap();
        let mut sum: Vec<Complex> = v
            .iter()
            .zip(&w)
            .map(|(a, b)| *a + b.scale(alpha))
            .collect();
        plan.forward(&mut sum).unwrap();
        let mut fv = v;
        let mut fw = w;
        plan.forward(&mut fv).unwrap();
        plan.forward(&mut fw).unwrap();
        for i in 0..64 {
            let expect = fv[i] + fw[i].scale(alpha);
            prop_assert!((sum[i].re - expect.re).abs() < 1e-6);
            prop_assert!((sum[i].im - expect.im).abs() < 1e-6);
        }
    }

    #[test]
    fn parseval(v in complex_vec(128)) {
        let plan = Fft1d::new(128).unwrap();
        let time: f64 = v.iter().map(|z| z.norm_sqr()).sum();
        let mut x = v;
        plan.forward(&mut x).unwrap();
        let freq: f64 = x.iter().map(|z| z.norm_sqr()).sum::<f64>() / 128.0;
        prop_assert!((time - freq).abs() <= 1e-9 * time.max(1.0));
    }

    #[test]
    fn grid3_roundtrip(seed in 0u64..500) {
        let dims = [8, 8, 8];
        let data: Vec<Complex> = (0..512)
            .map(|i| {
                let t = seed as f64 * 0.1 + i as f64;
                Complex::new((t * 0.3).sin(), (t * 0.7).cos())
            })
            .collect();
        let plan = Fft3d::new(dims).unwrap();
        let mut g = Grid3::from_vec(dims, data.clone());
        plan.forward(&dpp::Serial, &mut g).unwrap();
        plan.inverse(&dpp::Serial, &mut g).unwrap();
        for (a, b) in g.as_slice().iter().zip(&data) {
            prop_assert!((a.re - b.re).abs() < 1e-9);
            prop_assert!((a.im - b.im).abs() < 1e-9);
        }
    }

    #[test]
    fn r2c_is_the_complex_forward_on_the_stored_half(dims in real_shape(), seed in 0u64..1 << 40) {
        let real = real_grid(dims, seed);
        let half = RealFft3d::new(dims).unwrap().forward(&dpp::Serial, &real).unwrap();
        let promoted = real.as_slice().iter().map(|&v| Complex::from_real(v));
        let mut full = Grid3::from_vec(dims, promoted.collect());
        Fft3d::new(dims).unwrap().forward(&dpp::Serial, &mut full).unwrap();
        let tol = 1e-13 * scale_of(&full);
        for x in 0..dims[0] {
            for y in 0..dims[1] {
                for z in 0..=dims[2] / 2 {
                    let d = *half.get(x, y, z) - *full.get(x, y, z);
                    prop_assert!(d.abs() <= tol, "{dims:?} ({x},{y},{z}): off by {}", d.abs());
                }
            }
        }
    }

    #[test]
    fn c2r_inverts_r2c(dims in real_shape(), seed in 0u64..1 << 40) {
        let real = real_grid(dims, seed);
        let plan = RealFft3d::new(dims).unwrap();
        let t = dpp::Threaded::new(2);
        let back = plan.inverse(&t, plan.forward(&t, &real).unwrap()).unwrap();
        for (a, b) in back.as_slice().iter().zip(real.as_slice()) {
            prop_assert!((a - b).abs() < 1e-12, "{dims:?}: {a} vs {b}");
        }
    }

    #[test]
    fn self_mirrored_planes_are_hermitian(dims in real_shape(), seed in 0u64..1 << 40) {
        // `kz = 0` and `kz = nz/2` are their own mirrors under `k → −k`, so
        // within each, `X(−kx, −ky) = conj X(kx, ky)`.
        let [nx, ny, nz] = dims;
        let half = RealFft3d::new(dims).unwrap().forward(&dpp::Serial, &real_grid(dims, seed)).unwrap();
        let tol = 1e-13 * scale_of(&half);
        for z in [0, nz / 2] {
            for x in 0..nx {
                for y in 0..ny {
                    let a = *half.get(x, y, z);
                    let b = *half.get((nx - x) % nx, (ny - y) % ny, z);
                    prop_assert!((a - b.conj()).abs() <= tol, "{dims:?} ({x},{y},{z}): {a:?} vs {b:?}");
                }
            }
        }
    }
}
