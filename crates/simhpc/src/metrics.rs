//! Per-policy queue metrics.
//!
//! The scheduler zoo makes "which discipline is better" a real question, and
//! makespan alone cannot answer it: EASY and conservative backfilling often
//! produce identical makespans while distributing *waiting* very differently.
//! [`QueueMetrics`] aggregates what the simulator already knows — wait times
//! (as a mergeable log₂ [`telemetry::Histogram`] plus exact sums), node-hold
//! time, and terminal-state counts — so sweeps can compare disciplines on
//! utilization and tail wait, not just completion time.

use telemetry::Histogram;

/// Aggregated queue behaviour of one [`BatchSimulator`](crate::BatchSimulator).
///
/// Snapshot semantics: counters accumulate monotonically over the simulator's
/// lifetime (across multiple `run_to_completion` calls). All node-hold time is
/// counted in `busy_node_seconds`, whether or not the hold produced output;
/// the subset burnt by failed attempts is also mirrored in
/// `wasted_node_seconds`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueMetrics {
    /// Jobs that reached [`JobState::Completed`](crate::JobState::Completed).
    pub completed: u64,
    /// Jobs dropped after exhausting their fault-retry budget.
    pub exhausted: u64,
    /// Fault-killed attempts that were requeued or exhausted.
    pub failed_attempts: u64,
    /// Queue-wait seconds of completed jobs, log₂-bucketed (each observation
    /// is rounded to whole seconds). Mergeable across simulators.
    pub wait_histogram: Histogram,
    /// Exact sum of completed jobs' queue waits, in seconds.
    pub total_wait_seconds: f64,
    /// Largest single queue wait observed, in seconds.
    pub max_wait_seconds: f64,
    /// Node-seconds held by any attempt (successful or failed).
    pub busy_node_seconds: f64,
    /// Node-seconds held by attempts that produced no output.
    pub wasted_node_seconds: f64,
    /// Latest event time seen (completion or failure).
    pub makespan_seconds: f64,
    /// Machine size, for utilization.
    pub total_nodes: usize,
}

impl QueueMetrics {
    /// An empty accumulator for a machine of `total_nodes`.
    pub fn new(total_nodes: usize) -> Self {
        QueueMetrics {
            completed: 0,
            exhausted: 0,
            failed_attempts: 0,
            wait_histogram: Histogram::new(),
            total_wait_seconds: 0.0,
            max_wait_seconds: 0.0,
            busy_node_seconds: 0.0,
            wasted_node_seconds: 0.0,
            makespan_seconds: 0.0,
            total_nodes,
        }
    }

    /// Mean queue wait of completed jobs (0 when none completed).
    pub fn mean_wait_seconds(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.total_wait_seconds / self.completed as f64
        }
    }

    /// Upper bound of the histogram bucket holding the `q`-quantile wait.
    pub fn wait_quantile_bound(&self, q: f64) -> u64 {
        self.wait_histogram.quantile_bound(q)
    }

    /// Fraction of the machine's node-time kept busy over the makespan
    /// (0 when nothing has finished yet).
    pub fn utilization(&self) -> f64 {
        let capacity = self.total_nodes as f64 * self.makespan_seconds;
        if capacity <= 0.0 {
            0.0
        } else {
            (self.busy_node_seconds / capacity).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_metrics_are_all_zero() {
        let m = QueueMetrics::new(64);
        assert_eq!(m.mean_wait_seconds(), 0.0);
        assert_eq!(m.utilization(), 0.0);
        assert_eq!(m.wait_quantile_bound(0.95), 0);
        assert_eq!(m.total_nodes, 64);
    }

    #[test]
    fn utilization_is_clamped_to_one() {
        let mut m = QueueMetrics::new(10);
        m.makespan_seconds = 100.0;
        m.busy_node_seconds = 2_000.0; // more than capacity (rounding etc.)
        assert_eq!(m.utilization(), 1.0);
    }
}
