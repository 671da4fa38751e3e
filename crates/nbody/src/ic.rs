//! Zel'dovich initial conditions from a Gaussian random field.
//!
//! Pipeline: white noise on the mesh → FFT → multiply by √P(k) → normalize
//! the real-space RMS to `sigma_cell` (linear, z = 0) → displacement field
//! `ψ_k = i k/k² δ_k` → displace a uniform lattice by `D(a_i) ψ` and assign
//! Zel'dovich momenta.
//!
//! Every field is real, so the spectra are halves ([`fft::RealFft3d`]): one
//! real-to-complex transform of the noise and four complex-to-real ones
//! (`δ`, `ψ_x`, `ψ_y`, `ψ_z`). `ψ` is the PM solver's k-space pass
//! (`pm::gradient_spectra`), Nyquist rule included.

use crate::cosmology::Cosmology;
use crate::particle::Particle;
use crate::pm::gradient_spectra;
use dpp::{par_for_each_mut, Backend};
use fft::{freq_index, Complex, Grid3, RealFft3d};
use rand::{Rng, SeedableRng};

/// Initial conditions generator configuration.
#[derive(Debug, Clone)]
pub struct IcConfig {
    /// Particles (and mesh cells) per dimension.
    pub np: usize,
    /// RNG seed for the noise field.
    pub seed: u64,
    /// Starting redshift.
    pub z_init: f64,
}

impl Default for IcConfig {
    fn default() -> Self {
        IcConfig {
            np: 64,
            seed: 1_234_567,
            z_init: 50.0,
        }
    }
}

/// Gaussian white-noise mesh, N(0,1) per cell (Box–Muller over a seeded PRNG,
/// fully deterministic given the seed).
fn white_noise(np: usize, seed: u64) -> Grid3<f64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = np * np * np;
    let mut data = Vec::with_capacity(n);
    while data.len() < n {
        // Box–Muller: two uniforms → two normals.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let th = 2.0 * std::f64::consts::PI * u2;
        data.push(r * th.cos());
        if data.len() < n {
            data.push(r * th.sin());
        }
    }
    Grid3::from_vec([np, np, np], data)
}

/// The realized linear density field (z = 0 normalization) and the three
/// unit-growth displacement components, all on the particle lattice mesh.
pub struct LinearField {
    /// Linear overdensity at z = 0 normalization.
    pub delta: Grid3<f64>,
    /// Zel'dovich displacement per axis (Mpc/h at D = 1).
    pub psi: [Grid3<f64>; 3],
}

/// Realize the linear field for `cosmo` on an `np³` mesh.
pub fn realize_linear_field(
    backend: &dyn Backend,
    cosmo: &Cosmology,
    cfg: &IcConfig,
) -> LinearField {
    let np = cfg.np;
    assert!(
        np.is_power_of_two(),
        "particle lattice must be a power of two"
    );
    let _span = telemetry::span!("nbody", "ic", np * np * np);
    let plan = RealFft3d::new([np, np, np]).expect("power-of-two mesh");

    // Noise → the half spectrum.
    let mut nk = plan
        .forward(backend, &white_noise(np, cfg.seed))
        .expect("fft");

    // Shape by √P(k); k in physical h/Mpc. Dispatched over whole rows of the
    // half spectrum, `np/2 + 1` cells each.
    let kfund = 2.0 * std::f64::consts::PI / cosmo.box_size;
    let k: Vec<f64> = (0..np).map(|i| kfund * freq_index(i, np) as f64).collect();
    let h = np / 2 + 1;
    let grain = h * (np * np / (4 * backend.concurrency().max(1))).max(1);
    par_for_each_mut(backend, nk.as_mut_slice(), grain, |i, v| {
        let (row, z) = (i / h, i % h);
        let (kx, ky, kz) = (k[row / np], k[row % np], k[z]);
        let amp = cosmo
            .power_unnormalized((kx * kx + ky * ky + kz * kz).sqrt())
            .sqrt();
        *v = v.scale(amp);
    });
    nk.as_mut_slice()[0] = Complex::ZERO; // zero mean

    // Normalize real-space RMS to sigma_cell.
    let mut delta = plan.inverse(backend, nk.clone()).expect("ifft");
    let n = delta.len() as f64;
    let rms = (delta.as_slice().iter().map(|v| v * v).sum::<f64>() / n).sqrt();
    let scale = if rms > 0.0 {
        cosmo.sigma_cell / rms
    } else {
        1.0
    };
    for v in delta.as_mut_slice() {
        *v *= scale;
    }

    // Displacement ψ_k = i k (scale·δ_k) / k²: the Poisson pass with the
    // normalization as its prefactor, Nyquist rule included.
    let dims = nk.dims();
    let mut spectra = [
        nk,
        Grid3::filled(dims, Complex::ZERO),
        Grid3::filled(dims, Complex::ZERO),
    ];
    gradient_spectra(backend, &k, scale, &mut spectra);
    let psi = spectra.map(|pk| plan.inverse(backend, pk).expect("ifft"));
    LinearField { delta, psi }
}

/// Generate Zel'dovich-displaced particles on a uniform lattice.
///
/// Momenta are in *grid units* of the `ng` mesh that the PM solver will use
/// (`p = a²ẋ` with EdS growth).
pub fn zeldovich_particles(
    backend: &dyn Backend,
    cosmo: &Cosmology,
    cfg: &IcConfig,
    ng: usize,
) -> Vec<Particle> {
    let field = realize_linear_field(backend, cosmo, cfg);
    let np = cfg.np;
    let a_i = Cosmology::a_of_z(cfg.z_init);
    let d_i = Cosmology::growth(a_i);
    let l = cosmo.box_size;
    let cell = l / np as f64;
    let grid_per_mpc = ng as f64 / l;
    // p = a² ẋ = a² Ḋ ψ; EdS: Ḋ = a^{-1/2} ⇒ p = a^{3/2} ψ (box units) →
    // convert to grid units of the PM mesh.
    let mom_factor = a_i.powf(1.5) * grid_per_mpc;
    let mass = (ng as f64 / np as f64).powi(3) as f32;

    let mut parts = Vec::with_capacity(np * np * np);
    for ix in 0..np {
        for iy in 0..np {
            for iz in 0..np {
                let tag = ((ix * np + iy) * np + iz) as u64;
                let q = [
                    (ix as f64 + 0.5) * cell,
                    (iy as f64 + 0.5) * cell,
                    (iz as f64 + 0.5) * cell,
                ];
                let psi = [
                    *field.psi[0].get(ix, iy, iz),
                    *field.psi[1].get(ix, iy, iz),
                    *field.psi[2].get(ix, iy, iz),
                ];
                let mut pos = [0.0f32; 3];
                let mut vel = [0.0f32; 3];
                for d in 0..3 {
                    let x = (q[d] + d_i * psi[d]).rem_euclid(l);
                    pos[d] = x as f32;
                    vel[d] = (mom_factor * psi[d]) as f32;
                }
                parts.push(Particle {
                    pos,
                    vel,
                    mass,
                    tag,
                });
            }
        }
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpp::Serial;

    fn small_cfg() -> (Cosmology, IcConfig) {
        let cosmo = Cosmology {
            box_size: 32.0,
            ..Cosmology::default()
        };
        let cfg = IcConfig {
            np: 16,
            seed: 42,
            z_init: 50.0,
        };
        (cosmo, cfg)
    }

    #[test]
    fn white_noise_has_unit_variance() {
        let g = white_noise(16, 7);
        let n = g.len() as f64;
        let mean: f64 = g.as_slice().iter().sum::<f64>() / n;
        let var: f64 = g
            .as_slice()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / n;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 1.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn white_noise_is_deterministic_per_seed() {
        assert_eq!(white_noise(8, 3).as_slice(), white_noise(8, 3).as_slice());
        assert_ne!(white_noise(8, 3).as_slice(), white_noise(8, 4).as_slice());
    }

    #[test]
    fn linear_field_rms_matches_sigma_cell() {
        let (cosmo, cfg) = small_cfg();
        let f = realize_linear_field(&Serial, &cosmo, &cfg);
        let n = f.delta.len() as f64;
        let rms = (f.delta.as_slice().iter().map(|v| v * v).sum::<f64>() / n).sqrt();
        assert!(
            (rms - cosmo.sigma_cell).abs() < 1e-6 * cosmo.sigma_cell,
            "rms {rms} vs target {}",
            cosmo.sigma_cell
        );
    }

    #[test]
    fn linear_field_has_zero_mean() {
        let (cosmo, cfg) = small_cfg();
        let f = realize_linear_field(&Serial, &cosmo, &cfg);
        let mean: f64 = f.delta.as_slice().iter().sum::<f64>() / f.delta.len() as f64;
        assert!(mean.abs() < 1e-10, "mean {mean}");
    }

    #[test]
    fn particles_fill_the_box() {
        let (cosmo, cfg) = small_cfg();
        let parts = zeldovich_particles(&Serial, &cosmo, &cfg, 16);
        assert_eq!(parts.len(), 16 * 16 * 16);
        for p in &parts {
            for d in 0..3 {
                assert!(p.pos[d] >= 0.0 && (p.pos[d] as f64) < cosmo.box_size);
            }
        }
        // Tags are unique.
        let mut tags: Vec<u64> = parts.iter().map(|p| p.tag).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), parts.len());
    }

    #[test]
    fn displacements_are_small_at_high_z() {
        let (cosmo, cfg) = small_cfg();
        let parts = zeldovich_particles(&Serial, &cosmo, &cfg, 16);
        let cell = cosmo.box_size / cfg.np as f64;
        // At z=50 the typical displacement off the lattice should be well
        // under a lattice cell.
        let mut max_disp: f64 = 0.0;
        for (i, p) in parts.iter().enumerate() {
            let iz = i % cfg.np;
            let iy = (i / cfg.np) % cfg.np;
            let ix = i / (cfg.np * cfg.np);
            let q = [
                (ix as f64 + 0.5) * cell,
                (iy as f64 + 0.5) * cell,
                (iz as f64 + 0.5) * cell,
            ];
            let d2 = crate::particle::periodic_dist2(p.pos_f64(), q, cosmo.box_size);
            max_disp = max_disp.max(d2.sqrt());
        }
        assert!(
            max_disp < cell,
            "max displacement {max_disp} vs cell {cell}"
        );
    }

    #[test]
    fn velocities_track_displacements() {
        // Zel'dovich: velocity ∝ displacement, same direction.
        let (cosmo, cfg) = small_cfg();
        let field = realize_linear_field(&Serial, &cosmo, &cfg);
        let parts = zeldovich_particles(&Serial, &cosmo, &cfg, 16);
        let p0 = &parts[0];
        let psi0 = *field.psi[0].get(0, 0, 0);
        assert_eq!(p0.vel[0].signum(), psi0.signum() as f32);
    }
}
