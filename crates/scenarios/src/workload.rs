//! Load-regime synthesis: turn a [`LoadRegime`] into a concrete campaign
//! (halo population + snapshot count) and a seeded background job mix that
//! keeps the facility's queue realistically contended.

use crate::grammar::LoadRegime;
use hacc_core::model::RunSpec;
use halo::massfn::{qcontinuum, MassFunction};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simhpc::{JobRequest, QosClass};

/// Mean particles per halo in the Q Continuum population (total particles
/// over total halos) — used to scale `n_particles` with the sampled
/// population size.
const PARTICLES_PER_HALO: u64 = 3_277;

/// The downscaled run's largest halo; rarer objects cannot form in the
/// smaller boxes these campaigns model (paper §4.2).
const LARGEST_HALO: u64 = 2_548_321;

/// A synthesized campaign for one load regime.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The projected run (halo population, node counts, sim seconds).
    pub spec: RunSpec,
    /// Snapshots analysed over the campaign.
    pub n_snapshots: usize,
    /// Competing background jobs sharing the queue.
    pub background_jobs: usize,
    /// Background node-seconds as a fraction of machine × horizon.
    pub load_factor: f64,
}

impl LoadRegime {
    /// (halos, snapshots, background jobs, load factor, sim seconds).
    fn params(self) -> (usize, usize, usize, f64, f64) {
        match self {
            LoadRegime::Light => (2_000, 4, 12, 0.6, 300.0),
            LoadRegime::Medium => (8_000, 8, 24, 0.9, 774.0),
            LoadRegime::Heavy => (20_000, 12, 40, 1.2, 1_500.0),
        }
    }
}

/// Build the campaign for `regime`, sampling the halo population from the
/// Q Continuum mass function under `seed`. Deterministic per (regime, seed).
pub fn synthesize(regime: LoadRegime, seed: u64) -> Workload {
    let (n_halos, n_snapshots, background_jobs, load_factor, sim_seconds) = regime.params();
    let mf = MassFunction::q_continuum();
    let mut rng = StdRng::seed_from_u64(seed);
    let halo_sizes: Vec<u64> = mf
        .sample_many(&mut rng, n_halos)
        .into_iter()
        .map(|m| m.min(LARGEST_HALO))
        .collect();
    let spec = RunSpec {
        n_particles: n_halos as u64 * PARTICLES_PER_HALO,
        sim_nodes: 32,
        post_nodes: 4,
        halo_sizes,
        threshold: qcontinuum::SPLIT_THRESHOLD,
        sim_seconds,
    };
    Workload {
        spec,
        n_snapshots,
        background_jobs,
        load_factor,
    }
}

/// Generate the competing background mix for a machine of `total_nodes`
/// over a campaign `horizon` (seconds): job shapes are drawn from `rng`,
/// then runtimes are scaled so total background node-seconds hit
/// `load_factor × total_nodes × horizon`. QoS mix follows the TTCC artifact
/// convention (20% Gold / 50% Silver / 30% Bronze); groups 1–4 are user
/// projects (group 0 is reserved for the science campaign).
pub fn background_jobs(
    w: &Workload,
    total_nodes: usize,
    horizon: f64,
    rng: &mut StdRng,
) -> Vec<JobRequest> {
    let n = w.background_jobs;
    if n == 0 {
        return Vec::new();
    }
    let max_nodes = (total_nodes / 8).max(1);
    let mut shapes: Vec<(f64, usize, f64)> = Vec::with_capacity(n);
    for _ in 0..n {
        let submit = rng.gen_range(0.0..horizon * 0.8);
        // Log-uniform-ish node counts: most jobs small, a few wide.
        let frac: f64 = rng.gen_range(0.0..1.0);
        let nodes = ((max_nodes as f64).powf(frac).round() as usize).clamp(1, max_nodes);
        let runtime = rng.gen_range(100.0..2_000.0);
        shapes.push((submit, nodes, runtime));
    }
    let drawn: f64 = shapes.iter().map(|&(_, n, r)| n as f64 * r).sum();
    let target = w.load_factor * total_nodes as f64 * horizon;
    let scale = (target / drawn.max(1.0)).clamp(0.01, 100.0);
    shapes
        .iter()
        .enumerate()
        .map(|(i, &(submit, nodes, runtime))| {
            let qos = match i % 10 {
                0 | 1 => QosClass::Gold,
                2..=6 => QosClass::Silver,
                _ => QosClass::Bronze,
            };
            JobRequest::new(
                format!("bg{i}"),
                nodes,
                (runtime * scale).clamp(30.0, 4.0 * horizon),
                submit,
            )
            .with_qos(qos)
            .with_group(1 + (i as u64 % 4))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesis_is_deterministic_per_seed() {
        let a = synthesize(LoadRegime::Medium, 42);
        let b = synthesize(LoadRegime::Medium, 42);
        assert_eq!(a.spec.halo_sizes, b.spec.halo_sizes);
        let c = synthesize(LoadRegime::Medium, 43);
        assert_ne!(a.spec.halo_sizes, c.spec.halo_sizes);
    }

    #[test]
    fn regimes_scale_monotonically() {
        let light = synthesize(LoadRegime::Light, 1);
        let medium = synthesize(LoadRegime::Medium, 1);
        let heavy = synthesize(LoadRegime::Heavy, 1);
        assert!(light.spec.halo_sizes.len() < medium.spec.halo_sizes.len());
        assert!(medium.spec.halo_sizes.len() < heavy.spec.halo_sizes.len());
        assert!(light.n_snapshots < heavy.n_snapshots);
        assert!(light.load_factor < heavy.load_factor);
    }

    #[test]
    fn background_mix_hits_the_load_target() {
        let w = synthesize(LoadRegime::Medium, 7);
        let mut rng = StdRng::seed_from_u64(7);
        let total_nodes = 2_048;
        let horizon = 10_000.0;
        let jobs = background_jobs(&w, total_nodes, horizon, &mut rng);
        assert_eq!(jobs.len(), w.background_jobs);
        let node_seconds: f64 = jobs.iter().map(|j| j.nodes as f64 * j.runtime).sum();
        let target = w.load_factor * total_nodes as f64 * horizon;
        assert!(
            (node_seconds / target - 1.0).abs() < 0.25,
            "node-seconds {node_seconds} vs target {target}"
        );
        assert!(jobs.iter().all(|j| j.nodes <= total_nodes / 8));
        assert!(jobs.iter().any(|j| j.qos == QosClass::Gold));
        assert!(jobs.iter().all(|j| (1..=4).contains(&j.group)));
    }
}
