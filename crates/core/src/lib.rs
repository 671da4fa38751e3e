//! # hacc-core — the combined in-situ / co-scheduling workflow engine
//!
//! The paper's primary contribution, reproduced as a library:
//!
//! * [`cost`] — per-phase wall-time and core-hour accounting in the paper's
//!   Table 3/4 conventions.
//! * [`listener`] — the Bellerophon-derived co-scheduling listener that
//!   watches for simulation output and submits analysis jobs while the main
//!   application runs.
//! * [`autosplit`] — the automated in-situ/off-line split threshold and the
//!   co-scheduled job sizing heuristic of §4.1.
//! * [`model`] — the Titan-frame projection: workload descriptors →
//!   projected seconds/core-hours on Titan/Rhea/Moonlight via the `simhpc`
//!   facility models and two calibrated kernel constants.
//! * [`runner`] — *real* end-to-end execution of the in-situ, off-line, and
//!   combined (simple & co-scheduled) workflows on an actual downscaled
//!   simulation, with files on disk and a live listener.
//! * [`service`] — the long-lived multi-campaign service: many concurrent
//!   campaigns over one shared `dpp` pool and one `simhpc` batch queue,
//!   with a sharded, work-stealing listener and admission backpressure.
//! * [`stream`] — the streaming in-transit edge: a pub/sub [`StreamHub`]
//!   over which the emitter announces Level-2 chunks it has published into
//!   the distributed artifact store, so analysis ranks ingest chunks as
//!   they are produced instead of waiting for whole files.
//! * [`experiments`] — one driver per table/figure of the evaluation
//!   (Table 1–4, Figures 3–4, the §4.1 Q Continuum projection, the §4.2
//!   subhalo imbalance).

#![warn(missing_docs)]
// 3-vector component loops read better indexed; the lint fires on them.
#![allow(clippy::needless_range_loop)]

pub mod autosplit;
pub mod cost;
pub mod experiments;
pub mod journal;
pub mod listener;
pub mod model;
pub mod report;
pub mod runner;
pub mod service;
pub mod stream;

pub use autosplit::{choose_split, plan_coschedule, CoSchedulePlan, SplitDecision};
pub use cost::{format_table4, JobCost, PhaseSeconds, WorkflowCost};
pub use journal::Journal;
pub use listener::{Listener, ListenerConfig, ListenerReport, SubmitError};
pub use model::{qcontinuum_projection, QContinuumSummary, RenderProfile, RunSpec, TitanFrame};
pub use report::full_report;
pub use runner::{
    RunnerConfig, Strategy, TestBed, Transport, WorkflowRun, RENDER_FAULT_SITE, RUNNER_FAULT_SITE,
};
pub use service::{
    CampaignId, CampaignReport, CampaignSpec, CampaignStatus, ServiceConfig, ServiceError,
    ServiceReport, WorkflowService,
};
pub use stream::{ChunkRef, StreamHub};
