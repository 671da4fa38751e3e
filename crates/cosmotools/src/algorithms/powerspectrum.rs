//! In-situ density-fluctuation power spectrum (paper §1): CIC density
//! estimation on a uniform grid followed by large FFTs — the canonical
//! *well load-balanced* in-situ task.

use crate::config::{Config, ConfigError};
use crate::insitu::{AnalysisContext, InSituAlgorithm, Product};
use dpp::Backend;
use fft::{freq_index, Complex, Grid3, RealFft3d};
use nbody::particle::Particle;
use nbody::pm::cic_deposit_exact;
use nbody::DepositColumns;

/// One spectrum bin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBin {
    /// Bin-average wavenumber (h/Mpc).
    pub k: f64,
    /// Power (arbitrary but consistent normalization: `V·|δ_k|²/N_cells²`).
    pub power: f64,
    /// Modes in the bin.
    pub modes: u64,
}

/// Telemetry layer of the spectrum's three phase spans: `deposit`,
/// `transform` and `binning`.
const LAYER: &str = "cosmotools.powerspectrum";

/// Measure the matter power spectrum of a particle set. Each phase is a
/// `cosmotools.powerspectrum` span whose argument is the mesh size `ng`.
pub fn compute_power_spectrum(
    backend: &dyn Backend,
    particles: &[Particle],
    ng: usize,
    box_size: f64,
    nbins: usize,
) -> Vec<PowerBin> {
    assert!(ng.is_power_of_two(), "mesh must be a power of two");
    assert!(nbins > 0);
    let delta = {
        let _span = telemetry::span!(LAYER, "deposit", ng);
        // Convert once to the four columns the deposit kernel sweeps.
        let cols = DepositColumns::from_aos(backend, particles);
        cic_deposit_exact(backend, cols.positions(), cols.mass(), ng, box_size)
    };
    power_spectrum_of_field(backend, &delta, box_size, nbins)
}

/// Measure the power spectrum of an existing overdensity field: one
/// real-to-complex transform, then [`bin_half_spectrum`] over the whole half
/// spectrum.
fn power_spectrum_of_field(
    backend: &dyn Backend,
    delta: &Grid3<f64>,
    box_size: f64,
    nbins: usize,
) -> Vec<PowerBin> {
    let dims = delta.dims();
    let ng = dims[0];
    let dk = {
        let _span = telemetry::span!(LAYER, "transform", ng);
        let plan = RealFft3d::new(dims).expect("power-of-two mesh");
        plan.forward(backend, delta).expect("fft")
    };
    let _span = telemetry::span!(LAYER, "binning", ng);
    bin_half_spectrum(&dk, box_size, nbins)
}

/// The non-empty log-spaced bins from `k_fund` to `k_nyquist` of a half
/// spectrum `δ_k` (`[ng, ng, ng/2 + 1]`, x-major), each the `w`-weighted
/// mean `k` and `P = V·|δ_k|²/N_cells²` of its modes.
///
/// Every bin with `0 < kz < ng/2` stands for itself and its mirror `−k`,
/// which has the same `|k|` and `|δ_k|²`, so it carries weight `w = 2`, and
/// the `kz = 0` and `kz = ng/2` planes (their own mirrors) weight 1: the
/// counts are the full grid's.
fn bin_half_spectrum(dk: &Grid3<Complex>, box_size: f64, nbins: usize) -> Vec<PowerBin> {
    let [ng, _, h] = dk.dims();
    let kfund = 2.0 * std::f64::consts::PI / box_size;
    let knyq = kfund * (ng as f64) / 2.0;
    let ncells = (ng * ng * ng) as f64;
    let volume = box_size.powi(3);
    // Log-spaced bins from k_fund to k_nyquist.
    let lmin = kfund.ln();
    let lmax = knyq.ln();
    let mut k_sum = vec![0.0f64; nbins];
    let mut p_sum = vec![0.0f64; nbins];
    let mut count = vec![0.0f64; nbins];
    for x in 0..ng {
        for y in 0..ng {
            for z in 0..h {
                if (x, y, z) == (0, 0, 0) {
                    continue;
                }
                let kx = kfund * freq_index(x, ng) as f64;
                let ky = kfund * freq_index(y, ng) as f64;
                let kz = kfund * freq_index(z, ng) as f64;
                let k = (kx * kx + ky * ky + kz * kz).sqrt();
                if k > knyq {
                    continue;
                }
                let b = (((k.ln() - lmin) / (lmax - lmin) * nbins as f64) as usize).min(nbins - 1);
                let amp2 = dk.get(x, y, z).norm_sqr() / (ncells * ncells);
                let weight = if z == 0 || 2 * z == ng { 1.0 } else { 2.0 };
                k_sum[b] += weight * k;
                p_sum[b] += weight * amp2 * volume;
                count[b] += weight;
            }
        }
    }
    (0..nbins)
        .filter(|&b| count[b] > 0.0)
        .map(|b| PowerBin {
            k: k_sum[b] / count[b],
            power: p_sum[b] / count[b],
            modes: count[b] as u64,
        })
        .collect()
}

/// The in-situ power-spectrum task: cheap, well balanced, runs every few
/// steps throughout the run.
pub struct PowerSpectrumTask {
    enabled: bool,
    every: usize,
    bins: usize,
    ng: usize,
}

impl Default for PowerSpectrumTask {
    fn default() -> Self {
        PowerSpectrumTask {
            enabled: true,
            every: 10,
            bins: 32,
            ng: 0, // 0 = infer from particle count
        }
    }
}

impl PowerSpectrumTask {
    /// New task with defaults (configure via `set_parameters`).
    pub fn new() -> Self {
        Self::default()
    }
}

impl InSituAlgorithm for PowerSpectrumTask {
    fn name(&self) -> &str {
        "powerspectrum"
    }

    fn set_parameters(&mut self, config: &Config) -> Result<(), ConfigError> {
        if !config.has_section(self.name()) {
            return Ok(());
        }
        self.enabled = config.get_bool(self.name(), "enabled").unwrap_or(true);
        if let Ok(e) = config.get_usize(self.name(), "every") {
            self.every = e.max(1);
        }
        if let Ok(b) = config.get_usize(self.name(), "bins") {
            self.bins = b.max(1);
        }
        if let Ok(ng) = config.get_usize(self.name(), "mesh") {
            self.ng = ng;
        }
        Ok(())
    }

    fn should_execute(&self, step: usize, total_steps: usize, _z: f64) -> bool {
        self.enabled && (step.is_multiple_of(self.every) || step == total_steps)
    }

    fn execute(&mut self, ctx: &AnalysisContext<'_>) -> Vec<Product> {
        let ng = if self.ng > 0 {
            self.ng
        } else {
            // Mesh matched to the particle lattice.
            (ctx.particles.len() as f64).cbrt().round() as usize
        };
        let ng = ng.max(8).next_power_of_two();
        let spec = compute_power_spectrum(ctx.backend, ctx.particles, ng, ctx.box_size, self.bins);
        vec![Product::PowerSpectrum {
            step: ctx.step,
            bins: spec.iter().map(|b| (b.k, b.power)).collect(),
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpp::Serial;

    #[test]
    fn uniform_lattice_has_negligible_power() {
        // Particles exactly on the mesh: δ = 0 everywhere → zero power.
        let mut parts = Vec::new();
        let n = 8;
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    parts.push(Particle::at_rest(
                        [x as f32, y as f32, z as f32],
                        1.0,
                        (x * 64 + y * 8 + z) as u64,
                    ));
                }
            }
        }
        let spec = compute_power_spectrum(&Serial, &parts, 8, 8.0, 8);
        for b in &spec {
            assert!(b.power.abs() < 1e-20, "bin {b:?}");
        }
    }

    #[test]
    fn plane_wave_peaks_at_its_wavenumber() {
        // Density modulation at mode m=2 along x.
        let ng = 16;
        let l = 32.0f64;
        let mut delta = Grid3::filled([ng, ng, ng], 0.0);
        for x in 0..ng {
            let v = (2.0 * std::f64::consts::PI * 2.0 * x as f64 / ng as f64).cos();
            for y in 0..ng {
                for z in 0..ng {
                    *delta.get_mut(x, y, z) = v;
                }
            }
        }
        let spec = power_spectrum_of_field(&Serial, &delta, l, 16);
        let k_expect = 2.0 * std::f64::consts::PI / l * 2.0;
        let peak = spec
            .iter()
            .max_by(|a, b| a.power.partial_cmp(&b.power).unwrap())
            .unwrap();
        assert!(
            (peak.k / k_expect - 1.0).abs() < 0.3,
            "peak at k={}, expected ~{k_expect}",
            peak.k
        );
    }

    #[test]
    fn modes_are_the_full_grid_count() {
        // Oracle: every bin of the full `ng³` grid counted once, no transform.
        for (ng, nbins) in [(16usize, 10), (64, 24)] {
            let box_size = 1.5 * ng as f64;
            let delta = (0..ng * ng * ng).map(|i| ((i * 7919) % 101) as f64 / 50.0 - 1.0);
            let delta = Grid3::from_vec([ng, ng, ng], delta.collect());
            let kfund = 2.0 * std::f64::consts::PI / box_size;
            let knyq = kfund * (ng as f64) / 2.0;
            let (lmin, lmax) = (kfund.ln(), knyq.ln());
            let mut count = vec![0u64; nbins];
            for x in 0..ng {
                for y in 0..ng {
                    for z in 0..ng {
                        let f = [x, y, z].map(|i| kfund * freq_index(i, ng) as f64);
                        let k = (f[0] * f[0] + f[1] * f[1] + f[2] * f[2]).sqrt();
                        if (x, y, z) == (0, 0, 0) || k > knyq {
                            continue;
                        }
                        let b = ((k.ln() - lmin) / (lmax - lmin) * nbins as f64) as usize;
                        count[b.min(nbins - 1)] += 1;
                    }
                }
            }
            let expect: Vec<u64> = count.into_iter().filter(|&c| c > 0).collect();
            let spec = power_spectrum_of_field(&Serial, &delta, box_size, nbins);
            let got: Vec<u64> = spec.iter().map(|b| b.modes).collect();
            assert_eq!(got, expect, "ng={ng}");
        }
    }

    #[test]
    fn zeldovich_ics_follow_input_spectrum_shape() {
        use nbody::{realize_linear_field, Cosmology, IcConfig};
        let cosmo = Cosmology {
            box_size: 64.0,
            ..Cosmology::default()
        };
        let cfg = IcConfig {
            np: 32,
            seed: 11,
            z_init: 50.0,
        };
        let field = realize_linear_field(&Serial, &cosmo, &cfg);
        let spec = power_spectrum_of_field(&Serial, &field.delta, cosmo.box_size, 12);
        // Compare measured P(k) with the theory shape: the *ratio* should be
        // roughly k-independent (one overall normalization).
        let ratios: Vec<f64> = spec
            .iter()
            .filter(|b| b.modes > 20)
            .map(|b| b.power / cosmo.power_unnormalized(b.k))
            .collect();
        assert!(ratios.len() >= 5);
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        for r in &ratios {
            assert!(
                (r / mean - 1.0).abs() < 0.6,
                "ratio {r} deviates from mean {mean}: realization scatter should be the only source"
            );
        }
    }

    #[test]
    fn task_respects_schedule_and_final_step() {
        let task = PowerSpectrumTask::default();
        assert!(task.should_execute(10, 60, 1.0));
        assert!(!task.should_execute(11, 60, 1.0));
        assert!(task.should_execute(60, 60, 0.0));
        assert!(
            task.should_execute(57, 57, 0.0),
            "always runs at the final step"
        );
    }

    #[test]
    fn task_emits_product() {
        let mut task = PowerSpectrumTask::default();
        let cfg = Config::parse("[powerspectrum]\nbins = 8\nmesh = 16\n").unwrap();
        task.set_parameters(&cfg).unwrap();
        let parts: Vec<Particle> = (0..512)
            .map(|i| {
                let t = i as f32;
                Particle::at_rest(
                    [(t * 0.37) % 32.0, (t * 0.73) % 32.0, (t * 0.13) % 32.0],
                    1.0,
                    i as u64,
                )
            })
            .collect();
        let ctx = AnalysisContext {
            step: 10,
            total_steps: 60,
            redshift: 1.0,
            particles: &parts,
            box_size: 32.0,
            backend: &Serial,
            catalog: None,
        };
        let prods = task.execute(&ctx);
        assert_eq!(prods.len(), 1);
        match &prods[0] {
            Product::PowerSpectrum { step, bins } => {
                assert_eq!(*step, 10);
                assert!(!bins.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn disabled_task_never_runs() {
        let mut task = PowerSpectrumTask::default();
        let cfg = Config::parse("[powerspectrum]\nenabled = false\n").unwrap();
        task.set_parameters(&cfg).unwrap();
        assert!(!task.should_execute(10, 60, 1.0));
        assert!(!task.should_execute(60, 60, 0.0));
    }
}
