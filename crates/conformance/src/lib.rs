//! # conformance — the workflow stack's correctness tooling
//!
//! The paper's argument is an *equivalence claim*: in-situ, off-line,
//! co-scheduled, and in-transit strategies must produce the same halo
//! catalogs and spectra, just at different costs (§4, Tables 3–4). This
//! crate turns the repo's implicit invariants into first-class, checkable
//! conformance machinery, consumed by `tests/conformance.rs`:
//!
//! * [`strategies`] — proptest [`proptest::Strategy`] implementations that
//!   generate the full IEEE-754 bestiary (NaN with either sign bit, ±inf,
//!   ±0, denormals) so property tests stop silently avoiding non-finite
//!   floats.
//! * [`inputs`] — a deterministic adversarial corpus for the differential
//!   executors: empty/single inputs, duplicate keys, grain-boundary lengths,
//!   NaN/±inf mixtures.
//! * [`differential`] — runs both `dpp` primitives (`map`, `argmin_by`) over
//!   the corpus on Serial, Threaded (fresh, single-worker, and pool-shared),
//!   and StaticThreaded backends and checks **byte agreement** under the
//!   documented total-order semantics, reporting every disagreement; the
//!   report and roster are shared by the kernel batteries below.
//! * [`layout`] — the SoA/column kernel differential: every packed-layout
//!   kernel (CIC deposits, fused force gather, FOF engines, MBP, tiled FFT,
//!   fused Poisson pass) against a scalar or brute-force reference, bit-for-bit, on every
//!   backend; the scalar CIC and potential references live there, not in
//!   the product crates.
//! * [`integrator`] — the KDK stepper's carried per-particle acceleration,
//!   over both force providers: stepping with and without it, continuing vs.
//!   restarting from the same (possibly mutated) state, all bit-for-bit on
//!   every backend and rank count, and exactly `N + 1` PM solves and gathers
//!   per rank for `N` steps, counted.
//! * [`oracles`] — metamorphic physics oracles: FOF catalog invariance
//!   under particle permutation, periodic translation, and 1/2/4/8-rank
//!   domain splits; MBP brute ≡ A*; FFT Parseval and impulse identities;
//!   SO-mass monotonicity.
//! * [`golden`] — compact committed snapshots with a `BLESS=1`
//!   regeneration path (`just bless`) and line-level drift diffs on
//!   failure.
//! * [`explorer`] — the exhaustive crash-schedule explorer: a record-only
//!   instrumented pass enumerates every fault site the co-scheduled
//!   workflow actually reaches (via [`faults::FaultInjector::sites_reached`]),
//!   then a driver re-runs the workflow crashing at *each* `(site, hit)`
//!   in turn, checking exactly-once job execution and byte-identical
//!   recovered catalogs for every schedule.
//! * [`multi`] — the same crash-schedule sweep over the **multi-campaign
//!   service**: K concurrent campaigns on shared shards/pool/cache, with
//!   per-campaign exactly-once, byte-identical recovered catalogs, and
//!   zero cross-campaign bleed asserted for every schedule.
//! * [`render`] — the in-situ visualization battery: byte-identical frames
//!   across every backend, permutation / mass-conservation / LOD /
//!   axis-relabel metamorphic oracles, and a crash-schedule sweep over the
//!   co-scheduled `render.emit` site proving warm re-runs recompute no
//!   frames.
//! * [`store`] — the distributed artifact store's own sweep: whole-file
//!   vs streamed baselines against the solo oracle, crash schedules over
//!   the `cache.replicate` / `cache.fetch.remote` sites, and a node-death
//!   sweep proving that killing any single replica-holding node leaves a
//!   warm re-run with zero recomputes and byte-identical catalogs.

#![warn(missing_docs)]

pub mod differential;
pub mod explorer;
pub mod golden;
pub mod inputs;
pub mod integrator;
pub mod layout;
pub mod multi;
pub mod oracles;
pub mod render;
pub mod store;
pub mod strategies;

pub use differential::{assert_dpp_conformance, DiffReport, Disagreement};
pub use explorer::{explore, ExplorationReport, ExplorerConfig, ScheduleOutcome};
pub use golden::{compare_or_bless, GoldenOutcome};
pub use integrator::assert_integrator_conformance;
pub use layout::{assert_layout_conformance, REQUIRED_KERNELS};
pub use multi::{explore_multi, MultiConfig, MultiReport, MultiScheduleOutcome};
pub use render::{
    assert_render_conformance, catalog_digest_lines, explore_render, frame_catalog,
    render_reference_catalog, RenderExplorationReport, RenderExplorerConfig, RenderScheduleOutcome,
    REQUIRED_RENDER_ORACLES,
};
pub use store::{explore_store, KillNodeOutcome, StoreConfig, StoreReport, StoreScheduleOutcome};
