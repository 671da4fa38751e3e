//! In-situ SO masses — a halo-*dependent* task, which runs after the halo
//! finder within a step (paper §4.1: the halo analysis steps are
//! sequential).

use crate::config::{Config, ConfigError};
use crate::insitu::{AnalysisContext, InSituAlgorithm, Product};
use halo::so_mass;

/// Spherical-overdensity mass task: "although the overdensity mass estimator
/// is very fast, it relies on information obtained by the center finder"
/// (§4.1) — it only measures halos whose MBP center exists.
pub struct SoMassTask {
    enabled: bool,
    /// Overdensity threshold (Δ = 200 is standard).
    pub delta: f64,
    /// Mean mass density of the box (set from the run; if zero it is derived
    /// from the particle set at execution time).
    pub mean_density: f64,
}

impl Default for SoMassTask {
    fn default() -> Self {
        SoMassTask {
            enabled: true,
            delta: 200.0,
            mean_density: 0.0,
        }
    }
}

impl SoMassTask {
    /// New task with Δ = 200.
    pub fn new() -> Self {
        Self::default()
    }
}

impl InSituAlgorithm for SoMassTask {
    fn name(&self) -> &str {
        "somass"
    }

    fn set_parameters(&mut self, config: &Config) -> Result<(), ConfigError> {
        if !config.has_section(self.name()) {
            return Ok(());
        }
        self.enabled = config.get_bool(self.name(), "enabled").unwrap_or(true);
        if let Ok(d) = config.get_f64(self.name(), "delta") {
            self.delta = d;
        }
        Ok(())
    }

    fn should_execute(&self, step: usize, total_steps: usize, _z: f64) -> bool {
        self.enabled && step == total_steps
    }

    fn execute(&mut self, ctx: &AnalysisContext<'_>) -> Vec<Product> {
        let Some(catalog) = ctx.catalog else {
            return Vec::new();
        };
        let mean_density = if self.mean_density > 0.0 {
            self.mean_density
        } else {
            let mass: f64 = ctx.particles.iter().map(|p| p.mass as f64).sum();
            mass / ctx.box_size.powi(3)
        };
        let masses: Vec<(u64, f64)> = catalog
            .halos
            .iter()
            .filter_map(|h| {
                let center = h.mbp_center?;
                so_mass(&h.particles, center, self.delta, mean_density).map(|r| (h.id, r.mass))
            })
            .collect();
        vec![Product::SoMasses {
            step: ctx.step,
            masses,
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpp::Serial;
    use halo::{Halo, HaloCatalog};
    use nbody::particle::Particle;

    fn dense_halo(n: usize, tag0: u64) -> Halo {
        let parts: Vec<Particle> = (0..n)
            .map(|i| {
                let t = i as f64;
                Particle::at_rest(
                    [
                        (10.0 + ((t * 0.618).fract() - 0.5) * 0.8) as f32,
                        (10.0 + ((t * 0.414).fract() - 0.5) * 0.8) as f32,
                        (10.0 + ((t * 0.732).fract() - 0.5) * 0.8) as f32,
                    ],
                    1.0,
                    tag0 + i as u64,
                )
            })
            .collect();
        Halo::from_particles(parts)
    }

    fn ctx_with<'a>(catalog: &'a HaloCatalog, particles: &'a [Particle]) -> AnalysisContext<'a> {
        AnalysisContext {
            step: 60,
            total_steps: 60,
            redshift: 0.0,
            particles,
            box_size: 32.0,
            backend: &Serial,
            catalog: Some(catalog),
        }
    }

    #[test]
    fn so_task_only_measures_centered_halos() {
        let mut cat = HaloCatalog::new();
        let mut centered = dense_halo(500, 0);
        centered.mbp_center = Some(centered.center_of_mass);
        cat.halos.push(centered);
        cat.halos.push(dense_halo(400, 5000)); // no center
        let all_parts: Vec<Particle> = cat
            .halos
            .iter()
            .flat_map(|h| h.particles.iter().copied())
            .collect();
        let mut task = SoMassTask::default();
        let prods = task.execute(&ctx_with(&cat, &all_parts));
        match &prods[0] {
            Product::SoMasses { masses, .. } => {
                assert_eq!(masses.len(), 1, "only the centered halo is measured");
                assert!(masses[0].1 > 100.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn schedules_fire_only_at_final_step() {
        let so = SoMassTask::default();
        assert!(!so.should_execute(59, 60, 0.01));
        assert!(so.should_execute(60, 60, 0.0));
    }

    #[test]
    fn config_applies() {
        let mut so = SoMassTask::default();
        let cfg = Config::parse("[somass]\ndelta = 500\n").unwrap();
        so.set_parameters(&cfg).unwrap();
        assert_eq!(so.delta, 500.0);
    }
}
