//! Batch jobs and their accounting records.

/// Identifier assigned at submission, unique within one simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// Quality-of-service class of a job — the priority tier the
/// [`QueueDiscipline::PriorityQos`](crate::QueueDiscipline) discipline
/// orders by. The ordering derives `Bronze < Silver < Gold`.
///
/// Disciplines that do not use priorities ignore the class entirely, so a
/// request keeps behaving identically under FCFS/backfill policies
/// whatever its class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum QosClass {
    /// Lowest tier: scavenger/background work.
    Bronze,
    /// Default tier for unremarkable jobs.
    #[default]
    Silver,
    /// Highest tier: deadline-critical work.
    Gold,
}

impl QosClass {
    /// Numeric priority (higher runs first under priority disciplines).
    pub fn priority(self) -> u8 {
        match self {
            QosClass::Bronze => 0,
            QosClass::Silver => 1,
            QosClass::Gold => 2,
        }
    }
}

/// A job submitted to the batch system.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Human-readable name (shows up in records).
    pub name: String,
    /// Requested node count.
    pub nodes: usize,
    /// Actual runtime once started, in seconds.
    pub runtime: f64,
    /// Simulation time at which the job enters the queue.
    pub submit_time: f64,
    /// Quality-of-service class (only the priority disciplines look at it).
    pub qos: QosClass,
    /// Fair-share accounting group (user/project id; only the fair-share
    /// discipline looks at it).
    pub group: u64,
}

impl JobRequest {
    /// Convenience constructor: a [`QosClass::Silver`] job in group 0.
    pub fn new(name: impl Into<String>, nodes: usize, runtime: f64, submit_time: f64) -> Self {
        JobRequest {
            name: name.into(),
            nodes,
            runtime,
            submit_time,
            qos: QosClass::default(),
            group: 0,
        }
    }

    /// Set the QoS class (builder style).
    pub fn with_qos(mut self, qos: QosClass) -> Self {
        self.qos = qos;
        self
    }

    /// Set the fair-share group (builder style).
    pub fn with_group(mut self, group: u64) -> Self {
        self.group = group;
        self
    }
}

/// Completed-job record.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// The id assigned at submission.
    pub id: JobId,
    /// Job name.
    pub name: String,
    /// Node count held for the duration.
    pub nodes: usize,
    /// Queue entry time.
    pub submit_time: f64,
    /// Dispatch time.
    pub start_time: f64,
    /// Completion time.
    pub end_time: f64,
    /// Core-hours charged under the machine's policy (successful run only;
    /// failed attempts are accounted in [`JobOutcome::wasted_seconds`]).
    pub core_hours: f64,
    /// 1-based attempt number that completed (1 = succeeded first try;
    /// higher values mean fault-injected failures forced requeues).
    pub attempts: u32,
}

impl JobRecord {
    /// Seconds spent waiting in the queue.
    pub fn queue_wait(&self) -> f64 {
        self.start_time - self.submit_time
    }

    /// Seconds spent running.
    pub fn runtime(&self) -> f64 {
        self.end_time - self.start_time
    }
}

/// Terminal state of a job under fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// The job finished (possibly after requeues) and has a [`JobRecord`].
    Completed,
    /// Every allowed attempt failed; the job was dropped from the queue.
    Exhausted,
}

/// Per-job fault-and-retry accounting, one entry per submitted job.
///
/// Without an injector every outcome is `Completed` with `attempts == 1` and
/// no wasted time.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The id assigned at submission.
    pub id: JobId,
    /// Job name.
    pub name: String,
    /// Attempts consumed (1-based; includes the final one).
    pub attempts: u32,
    /// How the job ended.
    pub state: JobState,
    /// Node-seconds × 1 of runtime burnt by failed attempts (node-hold time
    /// that produced no output).
    pub wasted_seconds: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_derives_waits() {
        let r = JobRecord {
            id: JobId(1),
            name: "x".into(),
            nodes: 4,
            submit_time: 10.0,
            start_time: 25.0,
            end_time: 100.0,
            core_hours: 0.0,
            attempts: 1,
        };
        assert_eq!(r.queue_wait(), 15.0);
        assert_eq!(r.runtime(), 75.0);
    }
}
