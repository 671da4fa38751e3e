//! Bridge from the grammar's load regimes to the *measured* test bed: a
//! [`LoadRegime`] also names a downscaled real-execution configuration, so
//! examples and experiments derive their [`RunnerConfig`] from the same
//! grammar that drives the projected sweeps.

use crate::grammar::LoadRegime;
use hacc_core::RunnerConfig;
use nbody::SimConfig;

impl LoadRegime {
    /// The downscaled real-execution configuration this regime names.
    ///
    /// `Medium` is the historical `workflow_compare` setup (32³ particles,
    /// 30 steps, 8 analysis ranks); `Light` halves the grid for smoke runs
    /// and `Heavy` doubles it and the rank fan-out. Every `np` is a power of
    /// two (the FFT mesh requires it) that the rank count divides. The
    /// workdir is left at the [`RunnerConfig::default`] scratch location —
    /// override it per example.
    pub fn runner_config(self, seed: u64) -> RunnerConfig {
        let (np, nsteps, nranks, post_ranks, threshold) = match self {
            LoadRegime::Light => (16, 20, 4, 2, 150),
            LoadRegime::Medium => (32, 30, 8, 2, 200),
            LoadRegime::Heavy => (64, 40, 16, 4, 300),
        };
        RunnerConfig {
            sim: SimConfig {
                np,
                ng: np,
                nsteps,
                seed,
                ..SimConfig::default()
            },
            nranks,
            post_ranks,
            threshold,
            min_size: 40,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medium_reproduces_the_workflow_compare_setup() {
        let cfg = LoadRegime::Medium.runner_config(77);
        assert_eq!(cfg.sim.np, 32);
        assert_eq!(cfg.sim.ng, 32);
        assert_eq!(cfg.sim.nsteps, 30);
        assert_eq!(cfg.sim.seed, 77);
        assert_eq!(cfg.nranks, 8);
        assert_eq!(cfg.post_ranks, 2);
        assert_eq!(cfg.threshold, 200);
        assert_eq!(cfg.min_size, 40);
    }

    #[test]
    fn regimes_scale_the_measured_setup() {
        let light = LoadRegime::Light.runner_config(1);
        let heavy = LoadRegime::Heavy.runner_config(1);
        assert!(light.sim.np < heavy.sim.np);
        assert!(light.nranks < heavy.nranks);
        // Rank counts must divide cleanly into the particle grid's slabs,
        // and the mesh must be one `Simulation::new` accepts.
        for cfg in [&light, &heavy] {
            assert_eq!(cfg.sim.np % cfg.nranks, 0);
            assert!(cfg.sim.np.is_power_of_two() && cfg.sim.ng.is_power_of_two());
        }
        let sim = nbody::Simulation::new(&dpp::Serial, light.sim.clone());
        assert_eq!(sim.particles().len(), light.sim.np.pow(3));
    }
}
