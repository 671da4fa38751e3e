//! # halo — halo analysis algorithms
//!
//! The analysis tasks the paper's workflows orchestrate, written once against
//! the `dpp` data-parallel layer:
//!
//! * **FOF halo identification** (§3.3.1) — balanced k-d tree with
//!   bounding-box pruning ([`fof::fof_kdtree_cols`]), a linked-cell engine
//!   at the linking length (an occupancy bitmap per z-row, points
//!   counting-sorted by cell) whose axes are each periodic or open
//!   ([`fof::fof_cells`]; [`fof::fof_grid`] all periodic, [`fof::fof_patch`]
//!   all open), and the rank-parallel driver with overload regions
//!   ([`parallel::parallel_fof`]).
//! * **MBP center finding** (§3.3.2) — the data-parallel O(n²) kernel
//!   ([`mbp::mbp_brute`]) and the serial A* baseline ([`mbp::mbp_astar`]).
//! * **Spherical overdensity masses** ([`so::so_mass`]).
//! * **Subhalo finding** ([`subhalo::find_subhalos`]) — k-NN SPH densities,
//!   density-ordered candidate growth, iterative unbinding.
//! * **Mass-function modeling** ([`massfn::MassFunction`]) — the calibrated
//!   population sampler behind the Q-Continuum-scale projections.

#![warn(missing_docs)]
// 3-vector component loops read better indexed; the lint fires on them.
#![allow(clippy::needless_range_loop)]

pub mod catalog;
pub mod columns;
pub mod fof;
pub mod kdtree;
pub mod massfn;
pub mod mbp;
pub mod parallel;
pub mod so;
pub mod subhalo;
pub mod tracking;
pub mod unionfind;

pub use catalog::{unwrap_positions, Halo, HaloCatalog};
pub use columns::Coords;
pub use fof::{
    fof_brute, fof_cells, fof_grid, fof_kdtree_cols, fof_patch, groups_of_at_least,
    members_by_group,
};
pub use kdtree::{Aabb, KdTree};
pub use massfn::{fit_power_law, FittedMassFunction, MassFunction};
pub use mbp::{
    center_time_titan_gpu, mbp_astar, mbp_brute, mbp_brute_cols, potential_at, MbpResult,
};
pub use parallel::{extended_patch, fof_and_centers_timed, parallel_fof, FofConfig, RankTiming};
pub use so::{so_mass, SoResult};
pub use subhalo::{find_subhalos, Subhalo, SubhaloParams};
pub use tracking::{track_halos, HaloLink, TrackingResult};
