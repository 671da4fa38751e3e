//! In-situ FOF halo finding + split MBP center finding.
//!
//! This is the task at the heart of the paper's workflow comparison: halo
//! *identification* is well balanced and always runs in situ; MBP *center
//! finding* is O(n²) per halo, so only halos at or below `center_threshold`
//! particles (300,000 in the paper) are centered in situ — the rest are left
//! for the off-line / co-scheduled stage.

use crate::config::{Config, ConfigError};
use crate::insitu::{AnalysisContext, InSituAlgorithm, Product};
use halo::{fof_grid, groups_of_at_least, mbp_brute, unwrap_positions, Halo, HaloCatalog};
use nbody::particle::Particle;

/// The in-situ halo analysis task.
pub struct HaloFinderTask {
    enabled: bool,
    /// Linking length in units of the mean interparticle spacing (HACC uses
    /// b = 0.168–0.2).
    pub linking_length: f64,
    /// Discard halos below this size (the paper uses 40).
    pub min_size: usize,
    /// Compute centers in situ only for halos of at most this many particles.
    pub center_threshold: usize,
    /// Run at these explicit steps (empty = final step only).
    pub at_steps: Vec<usize>,
    /// Always run at the final step.
    pub at_final_step: bool,
    /// Softening for the potential (box units).
    pub softening: f64,
}

impl Default for HaloFinderTask {
    fn default() -> Self {
        HaloFinderTask {
            enabled: true,
            linking_length: 0.2,
            min_size: 40,
            center_threshold: 300_000,
            at_steps: Vec::new(),
            at_final_step: true,
            softening: 1e-3,
        }
    }
}

impl HaloFinderTask {
    /// New task with paper-default parameters.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Whole-box FOF + selective centers, reusable outside the in-situ framework
/// (the stand-alone driver calls this too). `link_frac` is in mean
/// interparticle spacings.
pub fn find_halos_with_centers(
    backend: &dyn dpp::Backend,
    particles: &[Particle],
    box_size: f64,
    link_frac: f64,
    min_size: usize,
    center_threshold: usize,
    softening: f64,
) -> HaloCatalog {
    let n = particles.len();
    let mut catalog = HaloCatalog::new();
    if n == 0 {
        return catalog;
    }
    let np = (n as f64).cbrt();
    let link = link_frac * box_size / np;
    let positions: Vec<[f64; 3]> = particles.iter().map(|p| p.pos_f64()).collect();
    let labels = fof_grid(&positions, link, box_size);
    for members in groups_of_at_least(&labels, min_size) {
        let parts: Vec<Particle> = members.iter().map(|&i| particles[i as usize]).collect();
        let parts = unwrap_positions(&parts, box_size);
        let mut halo = Halo::from_particles(parts);
        if halo.count() <= center_threshold {
            let r = mbp_brute(backend, &halo.particles, softening);
            halo.mbp_center = Some(halo.particles[r.index].pos_f64());
        }
        catalog.halos.push(halo);
    }
    catalog.sort_by_id();
    catalog
}

impl InSituAlgorithm for HaloFinderTask {
    fn name(&self) -> &str {
        "halofinder"
    }

    fn set_parameters(&mut self, config: &Config) -> Result<(), ConfigError> {
        if !config.has_section(self.name()) {
            return Ok(());
        }
        self.enabled = config.get_bool(self.name(), "enabled").unwrap_or(true);
        if let Ok(b) = config.get_f64(self.name(), "linking_length") {
            self.linking_length = b;
        }
        if let Ok(m) = config.get_usize(self.name(), "min_size") {
            self.min_size = m;
        }
        if let Ok(t) = config.get_usize(self.name(), "center_threshold") {
            self.center_threshold = t;
        }
        if let Ok(steps) = config.get_steps(self.name(), "at_steps") {
            self.at_steps = steps;
        }
        if let Ok(f) = config.get_bool(self.name(), "at_final_step") {
            self.at_final_step = f;
        }
        Ok(())
    }

    fn should_execute(&self, step: usize, total_steps: usize, _z: f64) -> bool {
        self.enabled
            && (self.at_steps.contains(&step) || (self.at_final_step && step == total_steps))
    }

    fn execute(&mut self, ctx: &AnalysisContext<'_>) -> Vec<Product> {
        let catalog = find_halos_with_centers(
            ctx.backend,
            ctx.particles,
            ctx.box_size,
            self.linking_length,
            self.min_size,
            self.center_threshold,
            self.softening,
        );
        vec![Product::Halos {
            step: ctx.step,
            catalog,
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpp::Serial;

    /// Hash-based uniform blob (avoids Kronecker-sequence filament artifacts).
    fn blob(center: [f64; 3], n: usize, spread: f64, tag0: u64) -> Vec<Particle> {
        let hash = |mut x: u64| {
            x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31);
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|i| {
                let s = (tag0 + i as u64).wrapping_mul(3) + 17;
                Particle::at_rest(
                    [
                        (center[0] + (hash(s) - 0.5) * spread) as f32,
                        (center[1] + (hash(s.wrapping_mul(7)) - 0.5) * spread) as f32,
                        (center[2] + (hash(s.wrapping_mul(13)) - 0.5) * spread) as f32,
                    ],
                    1.0,
                    tag0 + i as u64,
                )
            })
            .collect()
    }

    #[test]
    fn finds_two_blobs_and_centers_small_one() {
        // 4096-particle "box": mean spacing = 32/16 = 2; link 0.2 → 0.4.
        let mut parts = blob([8.0, 8.0, 8.0], 3000, 1.5, 0);
        parts.extend(blob([24.0, 24.0, 24.0], 1000, 1.5, 10_000));
        // Pad count so cbrt is meaningful: n=4096 → np=16.
        parts.extend(blob([16.0, 4.0, 28.0], 96, 1.0, 50_000));
        let cat = find_halos_with_centers(&Serial, &parts, 32.0, 0.2, 40, 2000, 1e-3);
        assert_eq!(cat.len(), 3);
        for h in &cat.halos {
            if h.count() <= 2000 {
                assert!(h.mbp_center.is_some(), "small halo centered in situ");
            } else {
                assert!(h.mbp_center.is_none(), "large halo deferred");
            }
        }
    }

    #[test]
    fn schedule_explicit_steps() {
        let mut task = HaloFinderTask::default();
        let cfg =
            Config::parse("[halofinder]\nat_steps = 60,64,73\nat_final_step = true\n").unwrap();
        task.set_parameters(&cfg).unwrap();
        assert!(task.should_execute(60, 100, 1.68));
        assert!(task.should_execute(73, 100, 0.959));
        assert!(!task.should_execute(61, 100, 1.6));
        assert!(task.should_execute(100, 100, 0.0));
    }

    #[test]
    fn task_emits_halo_product() {
        let mut task = HaloFinderTask {
            center_threshold: 10_000,
            ..Default::default()
        };
        let cfg = Config::parse("[halofinder]\nmin_size = 30\n").unwrap();
        task.set_parameters(&cfg).unwrap();
        assert_eq!(task.min_size, 30);
        let parts = blob([8.0, 8.0, 8.0], 512, 1.0, 0);
        let ctx = AnalysisContext {
            step: 60,
            total_steps: 60,
            redshift: 0.0,
            particles: &parts,
            box_size: 32.0,
            backend: &Serial,
            catalog: None,
        };
        let prods = task.execute(&ctx);
        match &prods[0] {
            Product::Halos { catalog, .. } => {
                assert_eq!(catalog.len(), 1);
                assert_eq!(catalog.halos[0].count(), 512);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_particles_empty_catalog() {
        let cat = find_halos_with_centers(&Serial, &[], 32.0, 0.2, 40, 100, 1e-3);
        assert!(cat.is_empty());
    }
}
