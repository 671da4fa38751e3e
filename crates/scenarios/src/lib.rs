//! # scenarios — the scenario grammar and statistical sweep harness
//!
//! The paper's evaluation rests on a handful of hand-picked configurations;
//! this crate replaces them with an enumerable space swept at statistical
//! scale on the virtual clock:
//!
//! * a composable **grammar** over `machine × load × workload × strategy ×
//!   fault plan × scheduler`, with canonical round-trippable scenario IDs
//!   and duplicate-free, order-stable expansion ([`grammar`]);
//! * a **run executor** that drives each scenario through the Titan-frame
//!   cost model and the `simhpc` batch simulator ([`run`]);
//! * a **multi-seed sweep runner** with a deterministic seed ladder and
//!   mean ± 95% CI aggregation, its runs fanned over the `dpp` pool with
//!   output independent of the worker count ([`sweep`], [`stats`]);
//! * byte-reproducible **JSON / CSV / summary-table exports** ([`export`]).
//!
//! ```
//! use scenarios::{AxisSet, Grammar, MachineKind, LoadRegime, SweepConfig};
//!
//! let grammar = Grammar::new().with_block(
//!     AxisSet::full()
//!         .machines([MachineKind::Titan])
//!         .loads([LoadRegime::Light]),
//! );
//! let scenarios = grammar.expand();
//! assert!(scenarios.iter().all(|s| s.id().starts_with("titan/light/")));
//! let cfg = SweepConfig { base_seed: 1, n_seeds: 2, grammar };
//! # let _ = cfg;
//! ```

#![warn(missing_docs)]

pub mod export;
pub mod grammar;
pub mod measured;
pub mod run;
pub mod stats;
pub mod sweep;
pub mod workload;

pub use grammar::{
    AxisSet, FaultPlanKind, Grammar, LoadRegime, MachineKind, Pattern, Scenario,
    ScenarioParseError, SchedulerKind, Strategy, WorkloadKind,
};
pub use run::{execute, RunMetrics, METRIC_NAMES};
pub use stats::{summarize, Summary};
pub use sweep::{run_sweep, run_sweep_on, scenario_seed, ScenarioResult, SweepConfig, SweepResult};
pub use workload::{synthesize, Workload};
