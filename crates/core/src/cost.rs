//! Cost accounting in the paper's terms (Tables 3 and 4): per-phase wall
//! seconds and core-hours for the simulation job and the post-processing job.

use simhpc::MachineSpec;

/// Wall-clock seconds per phase of one job (Table 4 columns).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseSeconds {
    /// Queue wait before the job starts.
    pub queuing: f64,
    /// Simulation proper (zero for post-processing jobs).
    pub sim: f64,
    /// Reading input data.
    pub read: f64,
    /// Redistributing particles after read-in.
    pub redistribute: f64,
    /// Analysis compute.
    pub analysis: f64,
    /// Writing output data.
    pub write: f64,
    /// Graceful-degradation work: off-line fallback analysis performed
    /// because an in-situ step failed (zero on a fault-free run).
    pub fallback: f64,
}

impl PhaseSeconds {
    /// Total wall seconds excluding queue wait (the paper quotes
    /// "total + queuing").
    pub fn total(&self) -> f64 {
        self.sim + self.read + self.redistribute + self.analysis + self.write + self.fallback
    }
}

/// One job's cost: phases, node count, and the machine it ran on.
#[derive(Debug, Clone, PartialEq)]
pub struct JobCost {
    /// Job label ("simulation", "post-processing").
    pub label: String,
    /// Machine name.
    pub machine: String,
    /// Nodes held.
    pub nodes: usize,
    /// Charge factor (core-hours per node-hour).
    pub charge_factor: f64,
    /// Phase durations.
    pub phases: PhaseSeconds,
}

impl JobCost {
    /// Build against a machine spec.
    pub fn new(label: &str, machine: &MachineSpec, nodes: usize, phases: PhaseSeconds) -> Self {
        JobCost {
            label: label.to_string(),
            machine: machine.name.clone(),
            nodes,
            charge_factor: machine.charge_factor,
            phases,
        }
    }

    /// Core-hours for one phase duration.
    fn phase_core_hours(&self, seconds: f64) -> f64 {
        self.nodes as f64 * (seconds / 3600.0) * self.charge_factor
    }

    /// Core-hours for the whole job (excluding queue wait, which holds no
    /// nodes).
    fn total_core_hours(&self) -> f64 {
        self.phase_core_hours(self.phases.total())
    }
}

/// A complete workflow cost: the simulation job plus zero or more
/// post-processing jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowCost {
    /// Strategy name (Table 3 row label).
    pub strategy: String,
    /// The simulation job.
    pub simulation: JobCost,
    /// Post-processing jobs (off-line / co-scheduled analysis).
    pub post: Vec<JobCost>,
    /// Node-seconds of analysis that the artifact cache answered from
    /// existing objects instead of recomputing (zero for a cold run or a
    /// purely modeled projection). Not subtracted from the phase columns —
    /// those record what the run *would* have cost — but reported alongside
    /// so Table 4 shows what incremental re-execution saved.
    pub saved_node_seconds: f64,
}

impl WorkflowCost {
    /// The paper's Table 3 "core hours" number: analysis + write cost of the
    /// simulation job, plus the full cost of post-processing (the simulation
    /// phase itself is common to all strategies and excluded).
    ///
    /// Fallback work is analysis by another name — off-line recomputation of
    /// a failed in-situ step — so it counts here too; leaving it out made a
    /// degraded run look *cheaper* than a clean one.
    pub fn analysis_core_hours(&self) -> f64 {
        let sim_part = self.simulation.phase_core_hours(
            self.simulation.phases.analysis
                + self.simulation.phases.write
                + self.simulation.phases.fallback,
        );
        let post: f64 = self.post.iter().map(|j| j.total_core_hours()).sum();
        sim_part + post
    }

    /// Core-hours the artifact cache saved (`saved_node_seconds` converted
    /// at the simulation job's charge factor).
    pub fn saved_core_hours(&self) -> f64 {
        self.saved_node_seconds / 3600.0 * self.simulation.charge_factor
    }
}

/// Render a Table 4-style breakdown.
pub fn format_table4(costs: &[WorkflowCost]) -> String {
    let mut out = String::new();
    use std::fmt::Write;
    for wc in costs {
        writeln!(out, "=== {} ===", wc.strategy).unwrap();
        writeln!(
            out,
            "{:<18} {:>9} {:>9} {:>9} {:>12} {:>9} {:>9} {:>9} {:>9} | {:>10}",
            "job",
            "queuing",
            "sim",
            "read",
            "redistribute",
            "analysis",
            "write",
            "fallback",
            "total",
            "core-hrs"
        )
        .unwrap();
        for job in std::iter::once(&wc.simulation).chain(wc.post.iter()) {
            let p = &job.phases;
            writeln!(
                out,
                "{:<18} {:>9.1} {:>9.1} {:>9.1} {:>12.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} | {:>10.1}",
                format!("{} ({}x{})", job.label, job.nodes, job.machine),
                p.queuing,
                p.sim,
                p.read,
                p.redistribute,
                p.analysis,
                p.write,
                p.fallback,
                p.total(),
                job.total_core_hours()
            )
            .unwrap();
        }
        writeln!(
            out,
            "analysis core-hours (Table 3 convention): {:.1}",
            wc.analysis_core_hours()
        )
        .unwrap();
        if wc.saved_node_seconds > 0.0 {
            writeln!(
                out,
                "saved by artifact cache: {:.1} node-seconds ({:.2} core-hours)",
                wc.saved_node_seconds,
                wc.saved_core_hours()
            )
            .unwrap();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simhpc::machine::titan;

    fn phases(sim: f64, analysis: f64, write: f64) -> PhaseSeconds {
        PhaseSeconds {
            queuing: 0.0,
            sim,
            read: 0.0,
            redistribute: 0.0,
            analysis,
            write,
            fallback: 0.0,
        }
    }

    #[test]
    fn in_situ_table3_anchor() {
        // Paper: in-situ analysis = 722 s on 32 Titan nodes → 193 core-hours.
        let t = titan();
        let job = JobCost::new("simulation", &t, 32, phases(772.0, 722.0, 0.3));
        let wc = WorkflowCost {
            strategy: "in-situ".into(),
            simulation: job,
            post: vec![],
            saved_node_seconds: 0.0,
        };
        let ch = wc.analysis_core_hours();
        assert!((ch - 193.0).abs() < 2.0, "{ch}");
    }

    #[test]
    fn fallback_seconds_count_as_analysis_core_hours() {
        // Regression: a degraded run (in-situ step failed, off-line fallback
        // recomputed it) must cost *more* than the clean run, not the same.
        let t = titan();
        let clean = WorkflowCost {
            strategy: "in-situ".into(),
            simulation: JobCost::new("simulation", &t, 32, phases(772.0, 722.0, 0.3)),
            post: vec![],
            saved_node_seconds: 0.0,
        };
        let mut degraded = clean.clone();
        degraded.simulation.phases.fallback = 100.0;
        let extra = degraded.analysis_core_hours() - clean.analysis_core_hours();
        let expected = degraded.simulation.phase_core_hours(100.0);
        assert!(
            (extra - expected).abs() < 1e-9,
            "fallback must be charged: extra={extra} expected={expected}"
        );
        // And it shows up in the job's total column identically.
        let total = degraded.simulation.total_core_hours() - clean.simulation.total_core_hours();
        assert!((total - expected).abs() < 1e-9, "total={total}");
    }

    #[test]
    fn saved_core_hours_line_renders_only_when_nonzero() {
        let t = titan();
        let mut wc = WorkflowCost {
            strategy: "warm".into(),
            simulation: JobCost::new("simulation", &t, 32, phases(1.0, 2.0, 3.0)),
            post: vec![],
            saved_node_seconds: 0.0,
        };
        assert!(!format_table4(std::slice::from_ref(&wc)).contains("saved by artifact cache"));
        wc.saved_node_seconds = 7200.0;
        let s = format_table4(&[wc.clone()]);
        assert!(s.contains("saved by artifact cache"), "{s}");
        assert!((wc.saved_core_hours() - 2.0 * t.charge_factor).abs() < 1e-9);
    }

    #[test]
    fn offline_post_job_charges_for_all_phases() {
        let t = titan();
        let post = JobCost::new(
            "post-processing",
            &t,
            32,
            PhaseSeconds {
                queuing: 1e5,
                sim: 0.0,
                read: 5.0,
                redistribute: 435.0,
                analysis: 892.0,
                write: 0.3,
                fallback: 0.0,
            },
        );
        // Table 4: 1332 s on 32 nodes → 355 core-hours.
        assert!((post.phases.total() - 1332.3).abs() < 1.0);
        assert!((post.total_core_hours() - 355.0).abs() < 2.0);
        // Queue wait holds no nodes.
        let with_queue = WorkflowCost {
            strategy: "off-line".into(),
            simulation: JobCost::new("simulation", &t, 32, phases(779.0, 0.0, 5.0)),
            post: vec![post],
            saved_node_seconds: 0.0,
        };
        // Analysis convention: sim-side write (5 s) + post job.
        let ch = with_queue.analysis_core_hours();
        assert!((354.0..358.0).contains(&ch), "{ch}");
    }

    #[test]
    fn combined_beats_in_situ_by_about_30_percent() {
        // Table 4 combined: in-situ part 361 s analysis + 3 s write on 32
        // nodes; post 1153 s on 4 nodes.
        let t = titan();
        let wc = WorkflowCost {
            strategy: "combined".into(),
            simulation: JobCost::new("simulation", &t, 32, phases(774.0, 361.0, 3.0)),
            post: vec![JobCost::new(
                "post-processing",
                &t,
                4,
                PhaseSeconds {
                    queuing: 0.0,
                    sim: 0.0,
                    read: 3.0,
                    redistribute: 75.0,
                    analysis: 1075.0,
                    write: 0.2,
                    fallback: 0.0,
                },
            )],
            saved_node_seconds: 0.0,
        };
        let combined = wc.analysis_core_hours();
        assert!((combined - 135.0).abs() < 5.0, "{combined}");
        // ~30% below the 193 core-hour in-situ cost.
        assert!(combined < 193.0 * 0.75);
    }

    #[test]
    fn format_includes_all_jobs() {
        let t = titan();
        let wc = WorkflowCost {
            strategy: "x".into(),
            simulation: JobCost::new("simulation", &t, 32, phases(1.0, 2.0, 3.0)),
            post: vec![JobCost::new(
                "post-processing",
                &t,
                4,
                phases(0.0, 5.0, 0.0),
            )],
            saved_node_seconds: 12.5 * 3600.0,
        };
        let s = format_table4(&[wc]);
        assert!(s.contains("simulation (32xtitan)"));
        assert!(s.contains("post-processing (4xtitan)"));
        assert!(s.contains("analysis core-hours"));
    }
}
