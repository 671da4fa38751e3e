//! # comm — in-process MPI-equivalent message passing
//!
//! The paper's workflows run across MPI ranks on Titan. This crate provides
//! the same programming model inside one process: a [`World`] spawns one OS
//! thread per rank, each holding a [`Communicator`] with tagged
//! point-to-point sends/receives and the usual collectives (barrier,
//! broadcast, gather, allgather, reduce, allreduce, alltoallv).
//!
//! [`CartDecomp`] adds the HACC-style 3-D Cartesian domain decomposition with
//! periodic *overload regions* ([`exchange_overload`]) and the particle
//! [`redistribute`] step used by the off-line workflows.
//!
//! ```
//! use comm::World;
//!
//! let world = World::new(4);
//! let sums = world.run(|c| c.allreduce_sum_u64(c.rank() as u64));
//! assert!(sums.iter().all(|&s| s == 0 + 1 + 2 + 3));
//! ```

#![warn(missing_docs)]
// 3-vector component loops read better indexed; the lint fires on them.
#![allow(clippy::needless_range_loop)]

mod collectives;
pub mod decomp;
pub mod world;

pub use decomp::{exchange_overload, redistribute, CartDecomp, HasPosition, OverloadTargets};
pub use world::{CommError, Communicator, World};
