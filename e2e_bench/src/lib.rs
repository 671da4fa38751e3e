//! Workflow-level benchmark of the combined in-situ / co-scheduling
//! reproduction: six workloads, a per-layer ledger and a traced run. Layers
//! are measured from outside — by timing calls into their public functions
//! and by reading the reports they already return. See `README.md` here and
//! `BENCHMARK.json` at the repository root.

#![warn(missing_docs)]

pub mod cli;
pub mod compare;
pub mod host;
pub mod metrics;
pub mod probes;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
