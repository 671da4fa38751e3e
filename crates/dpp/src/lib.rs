//! # dpp — the portable dispatch layer
//!
//! This crate is the reproduction's equivalent of the PISTON / VTK-m layer
//! used by the paper: a kernel is written **once** against [`Backend`] and
//! executes unchanged on every adapter. The original targeted CUDA, OpenMP
//! and TBB through Thrust; here the adapters are [`Serial`] (reference),
//! [`Threaded`] (multi-core, dynamic self-scheduling), and
//! [`StaticThreaded`] (multi-core, one static block per worker — the
//! load-imbalance ablation). Both threaded adapters run on [`ThreadPool`]:
//! persistent workers created once and parked between dispatches, with
//! per-pool [`pool::PoolStats`] instrumentation; see the [`pool`] module
//! docs.
//!
//! What the kernels call is small. The particle-mesh solver, the 3-D FFT and
//! the deposits go to [`Backend::dispatch`] (or [`par_for_each_mut`])
//! directly, with [`SendPtr`] handing disjoint ranges to the chunks;
//! [`par_init`] builds a `Vec` in parallel; and the brute-force
//! most-bound-particle finder is written in the two primitives of [`ops`]:
//! [`ops::map()`](ops::map()) and [`ops::argmin_by`]. Nothing else lives
//! here: a primitive lands together with the kernel that calls it.
//!
//! ```
//! use dpp::{ops, Serial, Threaded};
//!
//! let xs: Vec<f64> = (0..5000).map(|i| ((i as f64) * 0.37).sin()).collect();
//! let threaded = Threaded::new(4);
//! // One implementation, two backends, identical results:
//! let squares = ops::map(&threaded, &xs, |x| x * x);
//! assert_eq!(squares, ops::map(&Serial, &xs, |x| x * x));
//! assert_eq!(
//!     ops::argmin_by(&threaded, &xs, |x| *x),
//!     ops::argmin_by(&Serial, &xs, |x| *x),
//! );
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod ops;
pub mod pool;

pub use backend::{
    par_for_each_mut, par_init, Backend, SendPtr, Serial, StaticThreaded, Threaded, DEFAULT_GRAIN,
};
pub use pool::{PoolStats, ThreadPool, SMALL_N_THRESHOLD};
