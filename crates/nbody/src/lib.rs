//! # nbody — the HACC-equivalent particle-mesh cosmology code
//!
//! A compact reproduction of the simulation substrate the paper's workflows
//! wrap: Zel'dovich initial conditions realized from a BBKS-shaped Gaussian
//! random field, cloud-in-cell density deposit, an FFT Poisson solve, and
//! kick–drift–kick leapfrog integration over the scale factor, producing the
//! strongly clustered z = 0 particle distributions (with steep halo mass
//! functions) that drive the paper's load-imbalance story.
//!
//! ```
//! use dpp::Threaded;
//! use nbody::{SimConfig, Simulation};
//!
//! let backend = Threaded::new(4);
//! let mut cfg = SimConfig::default();
//! cfg.np = 16; cfg.ng = 16; cfg.nsteps = 4; // toy size for the doctest
//! let mut sim = Simulation::new(&backend, cfg);
//! sim.run(&backend);
//! assert!(sim.finished());
//! ```

#![warn(missing_docs)]
// 3-vector component loops read better indexed; the lint fires on them.
#![allow(clippy::needless_range_loop)]

pub mod cosmology;
pub mod ic;
pub mod particle;
pub mod pm;
pub mod sim;
pub mod soa;

pub use cosmology::Cosmology;
pub use ic::{realize_linear_field, zeldovich_particles, IcConfig, LinearField};
pub use particle::{min_image, periodic_dist2, Particle, PARTICLE_BYTES};
pub use pm::{
    cic_deposit_exact, cic_deposit_soa, cic_interpolate, gather_accel, poisson_accel, ForceGrids,
};
pub use sim::{SimConfig, Simulation};
pub use soa::{DepositColumns, ParticleSoA, PosColumns};
