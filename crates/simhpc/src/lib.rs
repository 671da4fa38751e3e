//! # simhpc — a discrete-event model of the paper's HPC facilities
//!
//! The paper's evaluation depends on platform properties that are simulated
//! here: machine presets for **Titan** (CPU/GPU, 30 core-hours charged per
//! node-hour), **Rhea** (the GPU-less analysis cluster) and **Moonlight**
//! (LANL's GPU cluster, ~0.55× Titan kernel speed); a parallel-file-system
//! and interconnect model calibrated to the paper's published I/O and
//! redistribution timings; and a batch-queue simulator reproducing Titan's
//! small-job cap and capability-class priorities.
//!
//! ```
//! use simhpc::{BatchSimulator, JobRequest, QueuePolicy, machine};
//!
//! let mut sim = BatchSimulator::new(machine::titan(), QueuePolicy::ideal());
//! sim.submit(JobRequest::new("analysis", 32, 722.0, 0.0));
//! let recs = sim.run_to_completion();
//! // 32 nodes × 722 s × 30 core-hours/node-hour ≈ 193 core-hours (paper).
//! assert!((recs[0].core_hours - 192.5).abs() < 1.0);
//! ```

#![warn(missing_docs)]

pub mod job;
pub mod machine;
pub mod metrics;
pub mod scheduler;

pub use job::{JobId, JobOutcome, JobRecord, JobRequest, JobState, QosClass};
pub use machine::{
    moonlight, rhea, titan, titan_with_burst_buffer, BurstBufferSpec, FileSystemSpec,
    InterconnectSpec, MachineSpec,
};
pub use metrics::QueueMetrics;
pub use scheduler::{BatchSimulator, QueueDiscipline, QueuePolicy, SCHEDULER_FAULT_SITE};
