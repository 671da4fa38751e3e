//! # hacc-workflows
//!
//! A reproduction of *"Large-Scale Compute-Intensive Analysis via a Combined
//! In-Situ and Co-Scheduling Workflow Approach"* (SC '15): an analysis
//! framework for a HACC-style cosmological N-body code that combines in-situ
//! analysis with co-scheduled off-line jobs for the compute-intensive,
//! poorly load-balanced tasks.
//!
//! This crate is the facade over the workspace:
//!
//! | crate | role |
//! |---|---|
//! | [`dpp`] | portable dispatch layer: `Backend` adapters over a persistent pool, plus `map` / `argmin_by` (PISTON/VTK-m equivalent) |
//! | [`comm`] | in-process MPI: ranks, collectives, domain decomposition |
//! | [`fft`] | power-of-two FFTs and 3-D grids |
//! | [`nbody`] | particle-mesh cosmology code (HACC equivalent) |
//! | [`halo`] | FOF halos, MBP centers, SO masses, subhalos, mass functions |
//! | [`cosmotools`] | the in-situ framework, input decks, data levels, binary I/O |
//! | [`simhpc`] | Titan/Rhea/Moonlight platform & batch-queue models |
//! | [`faults`] | deterministic, seed-driven fault injection for the chaos harness |
//! | [`hacc_core`] | the workflow engine: strategies, listener, autosplit, cost model, experiments |
//!
//! ## Quickstart
//!
//! ```
//! use dpp::Threaded;
//! use nbody::{SimConfig, Simulation};
//! use cosmotools::{Config, InSituAnalysisManager, HaloFinderTask, PowerSpectrumTask};
//!
//! let backend = Threaded::new(4);
//! let mut cfg = SimConfig::default();
//! cfg.np = 16; cfg.ng = 16; cfg.nsteps = 4;
//!
//! // Wire up CosmoTools exactly as HACC does: a manager called from the
//! // simulation's main loop, configured from an input deck.
//! let mut manager = InSituAnalysisManager::new();
//! manager.register(Box::new(PowerSpectrumTask::new()));
//! manager.register(Box::new(HaloFinderTask::new()));
//! let deck = Config::parse(
//!     "[powerspectrum]\nevery = 10\n[halofinder]\nmin_size = 40\nat_final_step = true\n",
//! )
//! .unwrap();
//! manager.configure(&deck).unwrap();
//!
//! let mut sim = Simulation::new(&backend, cfg.clone());
//! let box_size = cfg.cosmology.box_size;
//! sim.run_with_hook(&backend, |step, sim| {
//!     manager.execute_at(step, sim.total_steps(), sim.redshift(),
//!                        sim.particles(), box_size, &backend);
//! });
//! assert!(!manager.products().is_empty());
//! ```

pub use comm;
pub use cosmotools;
pub use dpp;
pub use faults;
pub use fft;
pub use hacc_core;
pub use halo;
pub use nbody;
pub use simhpc;
