//! # comm — in-process MPI-equivalent message passing
//!
//! The paper's workflows run across MPI ranks on Titan. This crate provides
//! the same programming model inside one process: a [`World`] spawns one OS
//! thread per rank, each holding a [`Communicator`] with tagged
//! point-to-point sends/receives and one collective, the personalized
//! all-to-all ([`Communicator::alltoallv`]).
//!
//! [`CartDecomp`] adds the HACC-style 3-D Cartesian domain decomposition with
//! periodic *overload regions* ([`exchange_overload`]) and the particle
//! [`redistribute`] step used by the off-line workflows: the rank-parallel
//! analysis is what runs across ranks here; the simulation runs in shared
//! memory.
//!
//! ```
//! use comm::World;
//!
//! let world = World::new(4);
//! let got = world.run(|c| c.alltoallv((0..4).map(|d| vec![c.rank() * 4 + d]).collect()));
//! // Rank `r` receives `s·4 + r` from every rank `s`.
//! assert_eq!(got[1], vec![vec![1], vec![5], vec![9], vec![13]]);
//! ```

#![warn(missing_docs)]
// 3-vector component loops read better indexed; the lint fires on them.
#![allow(clippy::needless_range_loop)]

mod collectives;
pub mod decomp;
pub mod world;

pub use decomp::{exchange_overload, redistribute, CartDecomp, HasPosition, OverloadTargets};
pub use world::{CommError, Communicator, World};
