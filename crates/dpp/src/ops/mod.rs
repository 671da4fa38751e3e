//! The two data-parallel primitives a kernel calls.
//!
//! The brute-force most-bound-particle center finder (`halo::mbp`) is
//! [`map()`] (one potential per particle) followed by [`argmin_by`] (the
//! deepest one). Both take a `&dyn Backend` and return the same result on
//! every backend, bit for bit. A primitive is added here together with the
//! kernel that calls it (DESIGN.md, "What `dpp` is not"): CI checks that
//! every name re-exported below is referenced from a product crate.

pub mod map;
pub mod minmax;

pub use map::map;
pub use minmax::argmin_by;
