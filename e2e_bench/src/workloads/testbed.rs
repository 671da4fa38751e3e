//! The fixture `cosched` and `posthoc` share: one finished simulation
//! (`TestBed::create`) and the in-situ-only reference catalog every other
//! strategy must reproduce.

use super::Params;
use crate::host;
use cosmotools::CenterRecord;
use hacc_core::{RunnerConfig, TestBed, WorkflowRun};
use nbody::SimConfig;
use std::path::PathBuf;

/// The finished simulation plus what strategy outputs are checked against.
pub struct Bed {
    /// The product's testbed.
    pub bed: TestBed,
    /// In-situ-only centers: the reference Level-3 catalog.
    pub reference: Vec<CenterRecord>,
}

/// Runner configuration of both runner workloads: 64³ particles on a 64³
/// mesh for 16 steps (16³, 8 steps in a quick run).
pub fn config(p: &Params, workdir: PathBuf) -> RunnerConfig {
    let (np, nsteps) = if p.quick { (16, 8) } else { (64, 16) };
    RunnerConfig {
        sim: SimConfig {
            np,
            ng: np,
            nsteps,
            seed: p.seed,
            ..SimConfig::default()
        },
        nranks: host::NRANKS,
        post_ranks: host::POST_RANKS,
        workdir,
        ..Default::default()
    }
}

/// Build the fixture: run the simulation, then the in-situ-only strategy for
/// the reference catalog. With `p.corrupt` the reference is falsified (one
/// halo's count is off by one), so every later comparison must fail.
pub fn build(p: &Params, workdir: PathBuf, backend: &dyn dpp::Backend) -> Bed {
    let bed = TestBed::create(config(p, workdir), backend);
    let mut reference = bed.run_in_situ_only(backend).centers;
    if p.corrupt {
        match reference.first_mut() {
            Some(r) => r.count += 1,
            None => reference.push(CenterRecord {
                halo_id: u64::MAX,
                center: [0.0; 3],
                count: 1,
                potential: f64::NAN,
            }),
        }
    }
    Bed { bed, reference }
}

/// The repo's own oracle (`runner::assert_same_centers`: same halo ids and
/// counts, centers within 1e-6), applied without taking the harness down.
pub fn same_centers(reference: &[CenterRecord], got: &[CenterRecord]) -> bool {
    std::panic::catch_unwind(|| hacc_core::runner::assert_same_centers(reference, got)).is_ok()
}

/// Checks one strategy's catalogs across iterations: each must match the
/// reference under the oracle and be byte-identical to the first one seen.
#[derive(Default)]
pub struct CatalogCheck {
    first: Option<Vec<u8>>,
}

impl CatalogCheck {
    /// Is this run's catalog right?
    pub fn check(&mut self, reference: &[CenterRecord], run: &WorkflowRun) -> bool {
        let bytes = cosmotools::encode_centers(&run.centers);
        let stable = *self.first.get_or_insert_with(|| bytes.clone()) == bytes;
        stable && same_centers(reference, &run.centers)
    }
}
