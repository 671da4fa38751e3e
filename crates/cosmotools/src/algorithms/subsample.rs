//! Particle subsampling — the other Level 2 product Table 1 lists
//! ("subsamples of particles"): a deterministic 1-in-N thinning of the raw
//! particles, cheap enough to run at every output step and small enough to
//! keep for post-hoc exploration.

use crate::config::{Config, ConfigError};
use crate::insitu::{AnalysisContext, InSituAlgorithm, Product};
use halo::{Halo, HaloCatalog};

/// The subsample task. Emits a `Product::Halos` with a single pseudo-halo
/// holding the subsampled particles (reusing the Level 2 container path).
pub struct SubsampleTask {
    enabled: bool,
    /// Keep one particle in `fraction_inverse` (tag-hashed, deterministic).
    pub fraction_inverse: u64,
    /// Run every this many steps.
    pub every: usize,
}

impl Default for SubsampleTask {
    fn default() -> Self {
        SubsampleTask {
            enabled: false,
            fraction_inverse: 100,
            every: 10,
        }
    }
}

impl SubsampleTask {
    /// New task (disabled unless configured).
    pub fn new() -> Self {
        Self::default()
    }

    /// Deterministic membership test: particle kept iff its hashed tag falls
    /// in the 1/fraction_inverse slice. Stable across steps, so the *same*
    /// particles are tracked through time (a requirement for trajectory
    /// analyses).
    fn keeps(&self, tag: u64) -> bool {
        let h = tag
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(23)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h.is_multiple_of(self.fraction_inverse)
    }
}

impl InSituAlgorithm for SubsampleTask {
    fn name(&self) -> &str {
        "subsample"
    }

    fn set_parameters(&mut self, config: &Config) -> Result<(), ConfigError> {
        if !config.has_section(self.name()) {
            return Ok(());
        }
        self.enabled = config.get_bool(self.name(), "enabled").unwrap_or(false);
        if let Ok(f) = config.get_usize(self.name(), "fraction_inverse") {
            self.fraction_inverse = f.max(1) as u64;
        }
        if let Ok(e) = config.get_usize(self.name(), "every") {
            self.every = e.max(1);
        }
        Ok(())
    }

    fn should_execute(&self, step: usize, total_steps: usize, _z: f64) -> bool {
        self.enabled && (step.is_multiple_of(self.every) || step == total_steps)
    }

    fn execute(&mut self, ctx: &AnalysisContext<'_>) -> Vec<Product> {
        let kept: Vec<_> = ctx
            .particles
            .iter()
            .filter(|p| self.keeps(p.tag))
            .copied()
            .collect();
        if kept.is_empty() {
            return Vec::new();
        }
        let mut catalog = HaloCatalog::new();
        catalog.halos.push(Halo::from_particles(kept));
        vec![Product::Halos {
            step: ctx.step,
            catalog,
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody::particle::Particle;

    fn particles(n: u64) -> Vec<Particle> {
        (0..n)
            .map(|t| Particle::at_rest([t as f32 % 10.0, 0.0, 0.0], 1.0, t))
            .collect()
    }

    #[test]
    fn keeps_roughly_one_in_n() {
        let task = SubsampleTask {
            enabled: true,
            fraction_inverse: 50,
            every: 1,
        };
        let kept = (0..100_000u64).filter(|&t| task.keeps(t)).count();
        assert!(
            (1500..2500).contains(&kept),
            "expected ~2000 of 100k, got {kept}"
        );
    }

    #[test]
    fn membership_is_stable_across_calls() {
        let task = SubsampleTask {
            fraction_inverse: 10,
            ..Default::default()
        };
        for t in 0..1000u64 {
            assert_eq!(task.keeps(t), task.keeps(t), "tag {t}");
        }
    }

    #[test]
    fn executes_and_emits_subsample() {
        let mut task = SubsampleTask {
            enabled: true,
            fraction_inverse: 10,
            every: 5,
        };
        let parts = particles(10_000);
        let ctx = AnalysisContext {
            step: 5,
            total_steps: 60,
            redshift: 2.0,
            particles: &parts,
            box_size: 10.0,
            backend: &dpp::Serial,
            catalog: None,
        };
        let prods = task.execute(&ctx);
        assert_eq!(prods.len(), 1);
        match &prods[0] {
            Product::Halos { catalog, .. } => {
                let n = catalog.total_particles();
                assert!((700..1300).contains(&n), "{n}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn config_and_schedule() {
        let mut task = SubsampleTask::default();
        let cfg = Config::parse("[subsample]\nenabled = true\nfraction_inverse = 20\nevery = 4\n")
            .unwrap();
        task.set_parameters(&cfg).unwrap();
        assert!(task.should_execute(4, 60, 3.0));
        assert!(!task.should_execute(5, 60, 3.0));
        assert!(task.should_execute(60, 60, 0.0));
        assert_eq!(task.fraction_inverse, 20);
    }

    #[test]
    fn disabled_by_default() {
        let task = SubsampleTask::default();
        assert!(!task.should_execute(10, 60, 1.0));
    }
}
