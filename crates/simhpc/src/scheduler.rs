//! Discrete-event batch scheduler.
//!
//! Models the queueing behaviour the paper had to work around: Titan's policy
//! favours large jobs and caps how many small jobs may run simultaneously
//! (§3.2: "The queue policy only allows two jobs that use less than 125 nodes
//! to run simultaneously"), while analysis clusters like Rhea keep capacity
//! free so small jobs start quickly.

use crate::job::{JobId, JobOutcome, JobRecord, JobRequest, JobState};
use crate::machine::MachineSpec;
use crate::metrics::QueueMetrics;
use faults::{BackoffPolicy, FaultInjector, FaultKind};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Fault site consulted once per job-completion event when an injector is
/// attached via [`BatchSimulator::inject_faults`].
pub const SCHEDULER_FAULT_SITE: &str = "scheduler.job";

/// Queue ordering discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueDiscipline {
    /// First come, first served — greedy: jobs behind a blocked head may
    /// start if they fit (unlimited backfill, no reservation protection).
    Fcfs,
    /// Larger jobs first (Titan-style "capability" priority), FCFS within a
    /// size; greedy like [`QueueDiscipline::Fcfs`].
    LargestFirst,
    /// Strict FCFS: nothing behind a blocked head-of-queue job may start.
    FcfsStrict,
    /// EASY backfill: the head of the queue gets a reservation at the
    /// earliest time enough nodes free up; younger jobs may jump ahead only
    /// if they both fit now *and* finish before that reservation — the
    /// discipline real schedulers use, and what the paper's "schedulers
    /// available at the time were generally inadequate" remark (Ref. \[31\])
    /// is about.
    FcfsBackfill,
    /// Conservative backfill: *every* blocked job gets a reservation in an
    /// availability profile, in FCFS order. A candidate starts early only if
    /// it fits in a hole without delaying any reservation ahead of it. More
    /// predictable than EASY (each job's start time can only improve), and
    /// sometimes more permissive: a candidate overlapping the head's window
    /// may still start if the profile shows the nodes are genuinely spare.
    ConservativeBackfill,
    /// Priority scheduling over [`QosClass`](crate::job::QosClass): Gold
    /// before Silver before Bronze, FCFS within a class, with an EASY-style
    /// reservation protecting the highest-priority blocked job.
    PriorityQos,
    /// Fair-share: jobs are ordered by their group's accumulated node-seconds
    /// (lightest user first; FCFS within a group's position), with an
    /// EASY-style head reservation. Usage is charged for every node-hold —
    /// completed and failed attempts alike.
    FairShare,
}

/// Facility queue policy.
#[derive(Debug, Clone, PartialEq)]
pub struct QueuePolicy {
    /// Queue ordering.
    pub discipline: QueueDiscipline,
    /// Jobs below this node count are "small".
    pub small_job_threshold: usize,
    /// Max number of small jobs running at once (`None` = unlimited).
    pub max_running_small_jobs: Option<usize>,
    /// Synthetic baseline queue wait (seconds) applied per job in addition to
    /// resource waiting: `base_wait × (nodes / total_nodes)^wait_exponent`.
    /// Models the multi-day waits for full-machine allocations without
    /// simulating the whole facility workload.
    pub base_wait: f64,
    /// Exponent of the size-dependent synthetic wait.
    pub wait_exponent: f64,
}

impl QueuePolicy {
    /// Titan-like: favour big jobs, at most two sub-125-node jobs running,
    /// long waits for large allocations.
    pub fn titan() -> Self {
        QueuePolicy {
            discipline: QueueDiscipline::LargestFirst,
            small_job_threshold: 125,
            max_running_small_jobs: Some(2),
            base_wait: 4.0 * 24.0 * 3600.0, // full-machine request ≈ 4 days
            wait_exponent: 0.7,
        }
    }

    /// Analysis-cluster-like: FCFS, no small-job cap, negligible waits.
    pub fn analysis_cluster() -> Self {
        QueuePolicy {
            discipline: QueueDiscipline::Fcfs,
            small_job_threshold: 0,
            max_running_small_jobs: None,
            base_wait: 120.0,
            wait_exponent: 0.3,
        }
    }

    /// No synthetic waits at all (unit tests, pure-throughput studies).
    pub fn ideal() -> Self {
        QueuePolicy {
            discipline: QueueDiscipline::Fcfs,
            small_job_threshold: 0,
            max_running_small_jobs: None,
            base_wait: 0.0,
            wait_exponent: 1.0,
        }
    }

    /// EASY backfilling with no small-job cap or synthetic waits — the
    /// resource-driven baseline the scheduler zoo compares against.
    pub fn easy() -> Self {
        QueuePolicy {
            discipline: QueueDiscipline::FcfsBackfill,
            ..Self::ideal()
        }
    }

    /// Conservative backfilling (per-job reservations), no synthetic waits.
    pub fn conservative() -> Self {
        QueuePolicy {
            discipline: QueueDiscipline::ConservativeBackfill,
            ..Self::ideal()
        }
    }

    /// Priority/QoS classes with an EASY-style head reservation.
    pub fn priority_qos() -> Self {
        QueuePolicy {
            discipline: QueueDiscipline::PriorityQos,
            ..Self::ideal()
        }
    }

    /// Fair-share over per-group accumulated usage.
    pub fn fair_share() -> Self {
        QueuePolicy {
            discipline: QueueDiscipline::FairShare,
            ..Self::ideal()
        }
    }

    /// The synthetic baseline wait for a job of `nodes` on a machine of
    /// `total` nodes.
    pub fn synthetic_wait(&self, nodes: usize, total: usize) -> f64 {
        if self.base_wait == 0.0 {
            return 0.0;
        }
        let frac = (nodes as f64 / total as f64).clamp(0.0, 1.0);
        self.base_wait * frac.powf(self.wait_exponent)
    }
}

#[derive(Debug, Clone)]
struct QueuedJob {
    id: JobId,
    req: JobRequest,
    /// Earliest time the job may start (submit + synthetic wait, or the
    /// requeue backoff after a fault-injected failure).
    eligible_time: f64,
    /// Failed attempts so far.
    failures: u32,
    /// Runtime burnt by those failed attempts.
    wasted: f64,
}

#[derive(Debug, Clone)]
struct RunningJob {
    id: JobId,
    req: JobRequest,
    start: f64,
    end: f64,
    /// 1-based attempt number currently executing.
    attempt: u32,
    /// Runtime burnt by earlier failed attempts.
    wasted: f64,
}

/// Event-driven simulator of one machine's batch queue.
#[derive(Debug, Clone)]
pub struct BatchSimulator {
    machine: MachineSpec,
    policy: QueuePolicy,
    next_id: u64,
    clock: f64,
    free_nodes: usize,
    queue: Vec<QueuedJob>,
    running: Vec<RunningJob>,
    finished: Vec<JobRecord>,
    outcomes: Vec<JobOutcome>,
    faults: Option<Arc<FaultInjector>>,
    backoff: BackoffPolicy,
    /// Accumulated node-seconds per fair-share group (charged for every
    /// node-hold: completed and failed attempts).
    usage: BTreeMap<u64, f64>,
    metrics: QueueMetrics,
}

impl BatchSimulator {
    /// New simulator at time zero with all nodes free.
    pub fn new(machine: MachineSpec, policy: QueuePolicy) -> Self {
        let free_nodes = machine.total_nodes;
        let metrics = QueueMetrics::new(free_nodes);
        BatchSimulator {
            machine,
            policy,
            next_id: 0,
            clock: 0.0,
            free_nodes,
            queue: Vec::new(),
            running: Vec::new(),
            finished: Vec::new(),
            outcomes: Vec::new(),
            faults: None,
            backoff: BackoffPolicy::default(),
            usage: BTreeMap::new(),
            metrics,
        }
    }

    /// Attach a fault injector: every job-completion event consults the
    /// [`SCHEDULER_FAULT_SITE`] site. `Transient`/`Crash` faults kill the
    /// job at its would-be end time and requeue it after a capped
    /// exponential backoff (until `backoff.max_attempts` is exhausted, at
    /// which point the job is dropped and reported in
    /// [`BatchSimulator::job_outcomes`]); `Stall` faults extend the run by
    /// the stall duration.
    pub fn inject_faults(&mut self, injector: Arc<FaultInjector>, backoff: BackoffPolicy) {
        assert!(backoff.max_attempts >= 1, "at least one attempt required");
        self.faults = Some(injector);
        self.backoff = backoff;
    }

    /// Per-job fault-and-retry accounting, in terminal-event order. Covers
    /// every job that completed or exhausted its attempts so far.
    pub fn job_outcomes(&self) -> &[JobOutcome] {
        &self.outcomes
    }

    /// Aggregated queue metrics so far (waits, utilization inputs, terminal
    /// counts). Monotone over the simulator's lifetime.
    pub fn queue_metrics(&self) -> &QueueMetrics {
        &self.metrics
    }

    /// Node-seconds charged to each fair-share group so far (every discipline
    /// accounts usage; only [`QueueDiscipline::FairShare`] orders by it).
    pub fn group_usage(&self) -> &BTreeMap<u64, f64> {
        &self.usage
    }

    /// Charge a node-hold to its group and the busy-time accumulators.
    fn charge_hold(&mut self, group: u64, nodes: usize, seconds: f64, productive: bool) {
        let node_seconds = nodes as f64 * seconds.max(0.0);
        *self.usage.entry(group).or_insert(0.0) += node_seconds;
        self.metrics.busy_node_seconds += node_seconds;
        if !productive {
            self.metrics.wasted_node_seconds += node_seconds;
        }
        self.metrics.makespan_seconds = self.metrics.makespan_seconds.max(self.clock);
    }

    /// Current simulation time.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Enqueue a job. `submit_time` may be in the simulated future; it must
    /// not precede the current clock.
    pub fn submit(&mut self, req: JobRequest) -> JobId {
        assert!(
            req.nodes > 0 && req.nodes <= self.machine.total_nodes,
            "job `{}` requests {} nodes on a {}-node machine",
            req.name,
            req.nodes,
            self.machine.total_nodes
        );
        assert!(
            req.submit_time >= self.clock - 1e-9,
            "job `{}` submitted in the past ({} < {})",
            req.name,
            req.submit_time,
            self.clock
        );
        assert!(req.runtime >= 0.0);
        let id = JobId(self.next_id);
        self.next_id += 1;
        let wait = self
            .policy
            .synthetic_wait(req.nodes, self.machine.total_nodes);
        self.queue.push(QueuedJob {
            id,
            eligible_time: req.submit_time + wait,
            req,
            failures: 0,
            wasted: 0.0,
        });
        id
    }

    /// Jobs currently holding or awaiting resources (queued + running).
    #[cfg(test)]
    fn pending(&self) -> usize {
        self.queue.len() + self.running.len()
    }

    fn running_small_jobs(&self) -> usize {
        self.running
            .iter()
            .filter(|r| r.req.nodes < self.policy.small_job_threshold)
            .count()
    }

    /// Earliest time `needed` nodes will be free, given the running set
    /// (small-job caps are ignored for reservation purposes — real EASY
    /// implementations reserve on node counts too).
    fn reservation_time(&self, needed: usize) -> f64 {
        let mut ends: Vec<(f64, usize)> =
            self.running.iter().map(|r| (r.end, r.req.nodes)).collect();
        ends.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut free = self.free_nodes;
        for (end, nodes) in ends {
            if free >= needed {
                break;
            }
            free += nodes;
            if free >= needed {
                return end;
            }
        }
        self.clock
    }

    /// Start every eligible queued job the discipline allows.
    fn try_start_jobs(&mut self) {
        // Order candidates by the queue discipline.
        let discipline = self.policy.discipline;
        let usage = &self.usage;
        let fcfs = |a: &QueuedJob, b: &QueuedJob| {
            a.req
                .submit_time
                .total_cmp(&b.req.submit_time)
                .then(a.id.cmp(&b.id))
        };
        self.queue.sort_by(|a, b| match discipline {
            QueueDiscipline::Fcfs
            | QueueDiscipline::FcfsStrict
            | QueueDiscipline::FcfsBackfill
            | QueueDiscipline::ConservativeBackfill => fcfs(a, b),
            QueueDiscipline::LargestFirst => b.req.nodes.cmp(&a.req.nodes).then(fcfs(a, b)),
            QueueDiscipline::PriorityQos => b
                .req
                .qos
                .priority()
                .cmp(&a.req.qos.priority())
                .then(fcfs(a, b)),
            QueueDiscipline::FairShare => {
                let ua = usage.get(&a.req.group).copied().unwrap_or(0.0);
                let ub = usage.get(&b.req.group).copied().unwrap_or(0.0);
                ua.total_cmp(&ub).then(fcfs(a, b))
            }
        });
        if discipline == QueueDiscipline::ConservativeBackfill {
            self.try_start_conservative();
            return;
        }
        loop {
            let mut started_any = false;
            // Reservation held by the first blocked eligible job (strict /
            // backfill disciplines only).
            let mut reservation: Option<f64> = None;
            let mut i = 0;
            while i < self.queue.len() {
                let q = &self.queue[i];
                if q.eligible_time > self.clock {
                    i += 1;
                    continue; // not yet in the queue for scheduling purposes
                }
                let is_small = q.req.nodes < self.policy.small_job_threshold;
                let small_cap_ok = !is_small
                    || self
                        .policy
                        .max_running_small_jobs
                        .map(|cap| self.running_small_jobs() < cap)
                        .unwrap_or(true);
                let fits = q.req.nodes <= self.free_nodes && small_cap_ok;
                let honors_reservation = match (self.policy.discipline, reservation) {
                    (_, None) => true,
                    (
                        QueueDiscipline::FcfsBackfill
                        | QueueDiscipline::PriorityQos
                        | QueueDiscipline::FairShare,
                        Some(t),
                    ) => self.clock + q.req.runtime <= t,
                    (QueueDiscipline::FcfsStrict, Some(_)) => false,
                    // Greedy disciplines never hold reservations.
                    _ => true,
                };
                if fits && honors_reservation {
                    let q = self.queue.remove(i);
                    self.free_nodes -= q.req.nodes;
                    self.running.push(RunningJob {
                        id: q.id,
                        start: self.clock,
                        end: self.clock + q.req.runtime,
                        attempt: q.failures + 1,
                        wasted: q.wasted,
                        req: q.req,
                    });
                    started_any = true;
                    continue; // same index now holds the next candidate
                }
                if !fits
                    && reservation.is_none()
                    && matches!(
                        self.policy.discipline,
                        QueueDiscipline::FcfsStrict
                            | QueueDiscipline::FcfsBackfill
                            | QueueDiscipline::PriorityQos
                            | QueueDiscipline::FairShare
                    )
                {
                    reservation = Some(self.reservation_time(q.req.nodes));
                }
                i += 1;
            }
            if !started_any {
                break;
            }
        }
    }

    /// Conservative backfilling: walk the FCFS-sorted queue once, giving
    /// every blocked job a reservation in an availability profile. A job
    /// starts now only if holding its nodes for its whole runtime delays no
    /// reservation granted earlier in this pass.
    ///
    /// The profile is a list of `(time, node_delta)` events relative to the
    /// *current* free-node count: running jobs release nodes (`+`) at their
    /// end; reservations hold (`-`) and release (`+`) theirs. Reservations
    /// are recomputed from scratch at every scheduling event, so an early
    /// completion can only move starts earlier — the conservative guarantee.
    fn try_start_conservative(&mut self) {
        let mut events: Vec<(f64, i64)> = self
            .running
            .iter()
            .map(|r| (r.end, r.req.nodes as i64))
            .collect();
        let mut i = 0;
        while i < self.queue.len() {
            if self.queue[i].eligible_time > self.clock {
                i += 1;
                continue;
            }
            let nodes = self.queue[i].req.nodes;
            let runtime = self.queue[i].req.runtime;
            let is_small = nodes < self.policy.small_job_threshold;
            let small_cap_ok = !is_small
                || self
                    .policy
                    .max_running_small_jobs
                    .map(|cap| self.running_small_jobs() < cap)
                    .unwrap_or(true);
            let start = earliest_start(
                &events,
                self.free_nodes as i64,
                self.clock,
                nodes as i64,
                runtime,
            );
            if start <= self.clock + 1e-9 && small_cap_ok {
                let q = self.queue.remove(i);
                self.free_nodes -= q.req.nodes;
                events.push((self.clock + q.req.runtime, q.req.nodes as i64));
                self.running.push(RunningJob {
                    id: q.id,
                    start: self.clock,
                    end: self.clock + q.req.runtime,
                    attempt: q.failures + 1,
                    wasted: q.wasted,
                    req: q.req,
                });
                // Same index now holds the next candidate.
            } else {
                // Blocked (on nodes or the small-job cap): reserve its window
                // so no later candidate may delay it. Cap-blocked jobs are
                // held from `now` — the cap clearing is not in the profile.
                let t = start.max(self.clock);
                events.push((t, -(nodes as i64)));
                events.push((t + runtime, nodes as i64));
                i += 1;
            }
        }
    }

    /// Advance until all submitted jobs have finished; returns records sorted
    /// by completion time.
    pub fn run_to_completion(&mut self) -> Vec<JobRecord> {
        let _span = telemetry::span!("simhpc", "run_to_completion", self.queue.len());
        loop {
            self.try_start_jobs();
            if self.running.is_empty() {
                if self.queue.is_empty() {
                    break;
                }
                // Nothing running: jump to the earliest future eligibility.
                let next = self
                    .queue
                    .iter()
                    .map(|q| q.eligible_time)
                    .filter(|&t| t > self.clock)
                    .fold(f64::INFINITY, f64::min);
                assert!(
                    next.is_finite(),
                    "scheduler stuck: {} queued job(s) are eligible but can never start \
                     (e.g. small-job cap of zero)",
                    self.queue.len()
                );
                self.clock = next;
                continue;
            }
            // Advance to the next event: a completion, or a queued job
            // becoming eligible (it may start on freed capacity rules).
            let next_end = self
                .running
                .iter()
                .map(|r| r.end)
                .fold(f64::INFINITY, f64::min);
            let next_elig = self
                .queue
                .iter()
                .map(|q| q.eligible_time)
                .filter(|&t| t > self.clock)
                .fold(f64::INFINITY, f64::min);
            self.clock = next_end.min(next_elig);
            // Retire completed jobs — each completion event is a fault site.
            let mut j = 0;
            while j < self.running.len() {
                if self.running[j].end > self.clock + 1e-9 {
                    j += 1;
                    continue;
                }
                // Unslept poll: this clock is virtual, a stall is added to
                // the job's end time instead. No injector, no poll — the
                // simulator never falls back to the global one.
                let fault = self.faults.as_deref().and_then(|inj| {
                    faults::poll_recorded(Some(inj), SCHEDULER_FAULT_SITE, SCHEDULER_FAULT_SITE)
                });
                match fault {
                    Some(FaultKind::Stall(d)) if !d.is_zero() => {
                        // The job hangs: it holds its nodes for `d` longer,
                        // then hits another completion event (and another
                        // fault check).
                        self.running[j].end += d.as_secs_f64();
                        j += 1;
                    }
                    Some(FaultKind::Transient) | Some(FaultKind::Crash) => {
                        // The attempt dies at its would-be end time. Free the
                        // nodes; requeue under capped exponential backoff or
                        // report the job exhausted.
                        let r = self.running.swap_remove(j);
                        self.free_nodes += r.req.nodes;
                        self.metrics.failed_attempts += 1;
                        self.charge_hold(r.req.group, r.req.nodes, self.clock - r.start, false);
                        let wasted = r.wasted + r.req.runtime;
                        if r.attempt >= self.backoff.max_attempts {
                            telemetry::count!("simhpc", "jobs_exhausted", 1);
                            self.metrics.exhausted += 1;
                            self.outcomes.push(JobOutcome {
                                id: r.id,
                                name: r.req.name,
                                attempts: r.attempt,
                                state: JobState::Exhausted,
                                wasted_seconds: wasted,
                            });
                        } else {
                            let delay = self.backoff.delay_seconds(r.attempt - 1);
                            self.queue.push(QueuedJob {
                                id: r.id,
                                eligible_time: self.clock + delay,
                                req: r.req,
                                failures: r.attempt,
                                wasted,
                            });
                        }
                    }
                    _ => {
                        let r = self.running.swap_remove(j);
                        self.free_nodes += r.req.nodes;
                        let core_hours = self.machine.charge_core_hours(r.req.nodes, r.req.runtime);
                        telemetry::instant!("simhpc", "job_retired", r.id.0);
                        telemetry::count!("simhpc", "jobs_completed", 1);
                        telemetry::observe!(
                            "simhpc",
                            "queue_wait_seconds",
                            (r.start - r.req.submit_time).max(0.0)
                        );
                        self.metrics.completed += 1;
                        self.charge_hold(r.req.group, r.req.nodes, r.end - r.start, true);
                        let wait = (r.start - r.req.submit_time).max(0.0);
                        self.metrics.wait_histogram.record(wait.round() as u64);
                        self.metrics.total_wait_seconds += wait;
                        self.metrics.max_wait_seconds = self.metrics.max_wait_seconds.max(wait);
                        self.outcomes.push(JobOutcome {
                            id: r.id,
                            name: r.req.name.clone(),
                            attempts: r.attempt,
                            state: JobState::Completed,
                            wasted_seconds: r.wasted,
                        });
                        self.finished.push(JobRecord {
                            id: r.id,
                            name: r.req.name,
                            nodes: r.req.nodes,
                            submit_time: r.req.submit_time,
                            start_time: r.start,
                            end_time: r.end,
                            core_hours,
                            attempts: r.attempt,
                        });
                    }
                }
                debug_assert!(
                    self.free_nodes <= self.machine.total_nodes,
                    "node accounting overflow"
                );
            }
        }
        let mut out = std::mem::take(&mut self.finished);
        out.sort_by(|a, b| {
            a.end_time
                .partial_cmp(&b.end_time)
                .unwrap()
                .then(a.id.cmp(&b.id))
        });
        out
    }
}

/// Earliest time ≥ `clock` at which `nodes` nodes stay free for `runtime`
/// seconds, given an availability profile of `(time, node_delta)` events
/// applied on top of `free_now`. Candidate starts are `clock` and every
/// event time; the interval after the last event is a fully-released
/// machine, so a feasible start always exists for a validly-sized job.
fn earliest_start(
    events: &[(f64, i64)],
    free_now: i64,
    clock: f64,
    nodes: i64,
    runtime: f64,
) -> f64 {
    let feasible = |t0: f64| -> bool {
        let mut free: i64 = free_now
            + events
                .iter()
                .filter(|e| e.0 <= t0 + 1e-9)
                .map(|e| e.1)
                .sum::<i64>();
        if free < nodes {
            return false;
        }
        let mut inside: Vec<(f64, i64)> = events
            .iter()
            .filter(|e| e.0 > t0 + 1e-9 && e.0 < t0 + runtime - 1e-9)
            .copied()
            .collect();
        inside.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (_, delta) in inside {
            free += delta;
            if free < nodes {
                return false;
            }
        }
        true
    };
    if feasible(clock) {
        return clock;
    }
    let mut times: Vec<f64> = events.iter().map(|e| e.0).filter(|&t| t > clock).collect();
    times.sort_by(f64::total_cmp);
    times.dedup();
    for &t in &times {
        if feasible(t) {
            return t;
        }
    }
    unreachable!("availability profile nets out to a free machine after its last event")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{rhea, titan, MachineSpec};

    fn tiny_machine(nodes: usize) -> MachineSpec {
        let mut m = titan();
        m.total_nodes = nodes;
        m
    }

    #[test]
    fn single_job_runs_immediately_under_ideal_policy() {
        let mut sim = BatchSimulator::new(tiny_machine(8), QueuePolicy::ideal());
        sim.submit(JobRequest::new("a", 4, 100.0, 0.0));
        let recs = sim.run_to_completion();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].start_time, 0.0);
        assert_eq!(recs[0].end_time, 100.0);
        // Titan charging: 4 nodes × (100/3600) h × 30.
        assert!((recs[0].core_hours - 4.0 * 100.0 / 3600.0 * 30.0).abs() < 1e-9);
    }

    #[test]
    fn jobs_queue_when_machine_is_full() {
        let mut sim = BatchSimulator::new(tiny_machine(8), QueuePolicy::ideal());
        sim.submit(JobRequest::new("big", 8, 50.0, 0.0));
        sim.submit(JobRequest::new("next", 8, 10.0, 0.0));
        let recs = sim.run_to_completion();
        let big = recs.iter().find(|r| r.name == "big").unwrap();
        let next = recs.iter().find(|r| r.name == "next").unwrap();
        assert_eq!(big.start_time, 0.0);
        assert_eq!(next.start_time, 50.0);
        assert_eq!(next.queue_wait(), 50.0);
    }

    #[test]
    fn pending_counts_running_jobs_too() {
        // Nothing is "running" until run_to_completion, so exercise the
        // queue side plus the post-drain zero; the running side is covered
        // by admission being re-checked against queue + running.
        let mut sim = BatchSimulator::new(tiny_machine(8), QueuePolicy::ideal());
        for i in 0..3 {
            sim.submit(JobRequest::new(format!("j{i}"), 2, 10.0, 0.0));
        }
        assert_eq!(sim.pending(), 3);
        sim.run_to_completion();
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn parallel_jobs_share_free_nodes() {
        let mut sim = BatchSimulator::new(tiny_machine(8), QueuePolicy::ideal());
        sim.submit(JobRequest::new("a", 4, 100.0, 0.0));
        sim.submit(JobRequest::new("b", 4, 100.0, 0.0));
        let recs = sim.run_to_completion();
        assert!(recs.iter().all(|r| r.start_time == 0.0));
    }

    #[test]
    fn future_submissions_wait_for_their_time() {
        let mut sim = BatchSimulator::new(tiny_machine(8), QueuePolicy::ideal());
        sim.submit(JobRequest::new("later", 1, 5.0, 1000.0));
        let recs = sim.run_to_completion();
        assert_eq!(recs[0].start_time, 1000.0);
    }

    #[test]
    fn titan_small_job_cap_limits_concurrency() {
        let mut m = titan();
        m.total_nodes = 1000;
        let mut policy = QueuePolicy::titan();
        policy.base_wait = 0.0; // isolate the cap behaviour
        let mut sim = BatchSimulator::new(m, policy);
        for i in 0..4 {
            sim.submit(JobRequest::new(format!("small{i}"), 4, 100.0, 0.0));
        }
        let recs = sim.run_to_completion();
        // Only two run at once: finish times 100, 100, 200, 200.
        let mut ends: Vec<f64> = recs.iter().map(|r| r.end_time).collect();
        ends.sort_by(f64::total_cmp);
        assert_eq!(ends, vec![100.0, 100.0, 200.0, 200.0]);
    }

    #[test]
    fn largest_first_discipline_prefers_big_jobs() {
        let mut m = titan();
        m.total_nodes = 100;
        let mut policy = QueuePolicy::titan();
        policy.base_wait = 0.0;
        policy.max_running_small_jobs = None;
        let mut sim = BatchSimulator::new(m, policy);
        // Occupy the machine, then queue a small and a big job.
        sim.submit(JobRequest::new("occupier", 100, 10.0, 0.0));
        sim.submit(JobRequest::new("small", 10, 10.0, 1.0));
        sim.submit(JobRequest::new("big", 100, 10.0, 2.0));
        let recs = sim.run_to_completion();
        let small = recs.iter().find(|r| r.name == "small").unwrap();
        let big = recs.iter().find(|r| r.name == "big").unwrap();
        // Big job starts at t=10 despite arriving later; small runs after.
        assert_eq!(big.start_time, 10.0);
        assert!(small.start_time >= big.end_time);
    }

    #[test]
    fn synthetic_wait_grows_with_job_size() {
        let p = QueuePolicy::titan();
        let full = p.synthetic_wait(18_688, 18_688);
        let small = p.synthetic_wait(32, 18_688);
        assert!(full > 3.0 * 24.0 * 3600.0);
        assert!(small < full / 10.0);
        assert_eq!(QueuePolicy::ideal().synthetic_wait(100, 100), 0.0);
    }

    #[test]
    fn rhea_analysis_jobs_start_promptly() {
        let mut sim = BatchSimulator::new(rhea(), QueuePolicy::analysis_cluster());
        for i in 0..10 {
            sim.submit(JobRequest::new(
                format!("analysis{i}"),
                4,
                500.0,
                i as f64 * 10.0,
            ));
        }
        let recs = sim.run_to_completion();
        // Plenty of nodes: every job starts as soon as eligible.
        for r in &recs {
            assert!(r.queue_wait() < 130.0, "wait {}", r.queue_wait());
        }
    }

    #[test]
    #[should_panic(expected = "requests")]
    fn oversized_job_rejected() {
        let mut sim = BatchSimulator::new(tiny_machine(8), QueuePolicy::ideal());
        sim.submit(JobRequest::new("too-big", 9, 1.0, 0.0));
    }

    #[test]
    fn co_scheduled_small_jobs_overlap_the_big_one() {
        // The co-scheduling scenario: a long simulation plus analysis jobs
        // submitted as output appears; they run simultaneously.
        let mut m = titan();
        m.total_nodes = 64;
        let mut policy = QueuePolicy::titan();
        policy.base_wait = 0.0;
        let mut sim = BatchSimulator::new(m, policy);
        sim.submit(JobRequest::new("sim", 32, 1000.0, 0.0));
        for i in 0..3 {
            sim.submit(JobRequest::new(
                format!("analysis{i}"),
                4,
                100.0,
                200.0 * (i as f64 + 1.0),
            ));
        }
        let recs = sim.run_to_completion();
        let sim_rec = recs.iter().find(|r| r.name == "sim").unwrap();
        for i in 0..3 {
            let a = recs
                .iter()
                .find(|r| r.name == format!("analysis{i}"))
                .unwrap();
            assert!(
                a.start_time < sim_rec.end_time,
                "analysis{i} must overlap the simulation"
            );
        }
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::machine::titan;
    use faults::{FaultPlan, SiteSpec};
    use std::time::Duration;

    fn machine(nodes: usize) -> crate::machine::MachineSpec {
        let mut m = titan();
        m.total_nodes = nodes;
        m
    }

    fn backoff(max_attempts: u32) -> BackoffPolicy {
        BackoffPolicy {
            base_seconds: 10.0,
            factor: 2.0,
            max_delay_seconds: 60.0,
            max_attempts,
        }
    }

    #[test]
    fn without_injector_outcomes_are_single_attempt_completions() {
        let mut sim = BatchSimulator::new(machine(8), QueuePolicy::ideal());
        sim.submit(JobRequest::new("a", 4, 100.0, 0.0));
        let recs = sim.run_to_completion();
        assert_eq!(recs[0].attempts, 1);
        assert_eq!(sim.job_outcomes().len(), 1);
        assert_eq!(sim.job_outcomes()[0].state, JobState::Completed);
        assert_eq!(sim.job_outcomes()[0].wasted_seconds, 0.0);
    }

    #[test]
    fn transient_fault_requeues_with_backoff() {
        let inj = FaultPlan::new(1)
            .with_site(SiteSpec::transient(SCHEDULER_FAULT_SITE, 1.0).with_max_faults(1))
            .build();
        let mut sim = BatchSimulator::new(machine(8), QueuePolicy::ideal());
        sim.inject_faults(std::sync::Arc::clone(&inj), backoff(5));
        sim.submit(JobRequest::new("a", 4, 100.0, 0.0));
        let recs = sim.run_to_completion();
        assert_eq!(recs.len(), 1);
        // Failed at t=100, requeued after the 10 s base backoff, reran for
        // its full runtime.
        assert_eq!(recs[0].attempts, 2);
        assert_eq!(recs[0].start_time, 110.0);
        assert_eq!(recs[0].end_time, 210.0);
        let out = &sim.job_outcomes()[0];
        assert_eq!(out.state, JobState::Completed);
        assert_eq!(out.attempts, 2);
        assert_eq!(out.wasted_seconds, 100.0);
        assert_eq!(inj.fault_count(), 1);
    }

    #[test]
    fn exhausted_jobs_are_reported_not_lost() {
        let inj = FaultPlan::new(2)
            .with_site(SiteSpec::transient(SCHEDULER_FAULT_SITE, 1.0))
            .build();
        let mut sim = BatchSimulator::new(machine(8), QueuePolicy::ideal());
        sim.inject_faults(inj, backoff(3));
        sim.submit(JobRequest::new("doomed", 4, 50.0, 0.0));
        sim.submit(JobRequest::new("also-doomed", 2, 20.0, 0.0));
        let recs = sim.run_to_completion();
        assert!(recs.is_empty(), "every attempt fails");
        assert_eq!(sim.job_outcomes().len(), 2);
        for out in sim.job_outcomes() {
            assert_eq!(out.state, JobState::Exhausted);
            assert_eq!(out.attempts, 3);
        }
        let doomed = sim
            .job_outcomes()
            .iter()
            .find(|o| o.name == "doomed")
            .unwrap();
        assert_eq!(doomed.wasted_seconds, 150.0, "3 × 50 s burnt");
    }

    #[test]
    fn backoff_delays_are_capped_exponential() {
        // Fail twice, then succeed: starts at 0, 50+10, 110+20.
        let inj = FaultPlan::new(3)
            .with_site(SiteSpec::transient(SCHEDULER_FAULT_SITE, 1.0).with_max_faults(2))
            .build();
        let mut sim = BatchSimulator::new(machine(8), QueuePolicy::ideal());
        sim.inject_faults(inj, backoff(5));
        sim.submit(JobRequest::new("a", 4, 50.0, 0.0));
        let recs = sim.run_to_completion();
        assert_eq!(recs[0].attempts, 3);
        assert_eq!(
            recs[0].start_time, 130.0,
            "0→50 fail, +10 → 60→110 fail, +20"
        );
    }

    #[test]
    fn stall_fault_extends_the_run() {
        let inj = FaultPlan::new(4)
            .with_site(
                SiteSpec::stall(SCHEDULER_FAULT_SITE, 1.0, Duration::from_secs(30))
                    .with_max_faults(1),
            )
            .build();
        let mut sim = BatchSimulator::new(machine(8), QueuePolicy::ideal());
        sim.inject_faults(inj, backoff(5));
        sim.submit(JobRequest::new("a", 4, 100.0, 0.0));
        let recs = sim.run_to_completion();
        assert_eq!(recs[0].end_time, 130.0);
        assert_eq!(recs[0].attempts, 1, "a stall is not a failed attempt");
    }

    #[test]
    fn faulty_run_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let inj = FaultPlan::new(seed)
                .with_site(SiteSpec::transient(SCHEDULER_FAULT_SITE, 0.4))
                .build();
            let mut sim = BatchSimulator::new(machine(16), QueuePolicy::ideal());
            sim.inject_faults(std::sync::Arc::clone(&inj), backoff(4));
            for i in 0..12 {
                sim.submit(JobRequest::new(format!("j{i}"), 1 + i % 5, 30.0, i as f64));
            }
            let recs = sim.run_to_completion();
            (recs, sim.job_outcomes().to_vec(), inj.trace())
        };
        assert_eq!(run(77), run(77));
        let (a, ..) = run(77);
        let (b, ..) = run(78);
        assert_ne!(a, b, "different seeds must explore different schedules");
    }
}

#[cfg(test)]
mod backfill_tests {
    use super::*;
    use crate::machine::titan;

    fn machine(nodes: usize) -> crate::machine::MachineSpec {
        let mut m = titan();
        m.total_nodes = nodes;
        m
    }

    fn policy(discipline: QueueDiscipline) -> QueuePolicy {
        QueuePolicy {
            discipline,
            small_job_threshold: 0,
            max_running_small_jobs: None,
            base_wait: 0.0,
            wait_exponent: 1.0,
        }
    }

    /// Workload: an 8-node occupier (100 s), then a blocked 8-node head,
    /// then a 2-node shorty.
    fn submit_workload(sim: &mut BatchSimulator, shorty_runtime: f64) {
        sim.submit(JobRequest::new("occupier", 8, 100.0, 0.0));
        sim.submit(JobRequest::new("head", 8, 50.0, 1.0));
        sim.submit(JobRequest::new("shorty", 2, shorty_runtime, 2.0));
    }

    fn start_of(recs: &[JobRecord], name: &str) -> f64 {
        recs.iter().find(|r| r.name == name).unwrap().start_time
    }

    #[test]
    fn strict_fcfs_blocks_everything_behind_the_head() {
        let mut sim = BatchSimulator::new(machine(10), policy(QueueDiscipline::FcfsStrict));
        submit_workload(&mut sim, 10.0);
        let recs = sim.run_to_completion();
        // Shorty fits (2 ≤ 10-8) but must wait for the head anyway.
        assert_eq!(start_of(&recs, "head"), 100.0);
        assert!(
            start_of(&recs, "shorty") >= 100.0,
            "strict FCFS: no jumping"
        );
    }

    #[test]
    fn easy_backfill_lets_short_jobs_jump_without_delaying_the_head() {
        let mut sim = BatchSimulator::new(machine(10), policy(QueueDiscipline::FcfsBackfill));
        submit_workload(&mut sim, 10.0);
        let recs = sim.run_to_completion();
        // Shorty (10 s) finishes well before the head's reservation (t=100):
        // it backfills immediately.
        assert_eq!(start_of(&recs, "shorty"), 2.0);
        // And the head still starts exactly at its reservation.
        assert_eq!(start_of(&recs, "head"), 100.0);
    }

    #[test]
    fn easy_backfill_refuses_jobs_that_would_delay_the_head() {
        let mut sim = BatchSimulator::new(machine(10), policy(QueueDiscipline::FcfsBackfill));
        // Shorty runs 500 s — past the head's reservation at t=100.
        submit_workload(&mut sim, 500.0);
        let recs = sim.run_to_completion();
        assert_eq!(start_of(&recs, "head"), 100.0, "head must not be delayed");
        assert!(
            start_of(&recs, "shorty") >= 100.0,
            "a long backfill candidate must wait"
        );
    }

    #[test]
    fn greedy_fcfs_jumps_regardless() {
        let mut sim = BatchSimulator::new(machine(10), policy(QueueDiscipline::Fcfs));
        submit_workload(&mut sim, 500.0);
        let recs = sim.run_to_completion();
        // Greedy: shorty starts immediately even though it outlives the
        // head's would-be reservation (and thereby delays the head).
        assert_eq!(start_of(&recs, "shorty"), 2.0);
    }

    #[test]
    fn reservation_time_accumulates_freed_nodes() {
        let mut sim = BatchSimulator::new(machine(10), policy(QueueDiscipline::FcfsBackfill));
        sim.submit(JobRequest::new("a", 4, 10.0, 0.0));
        sim.submit(JobRequest::new("b", 4, 20.0, 0.0));
        sim.submit(JobRequest::new("wide", 10, 5.0, 1.0));
        let recs = sim.run_to_completion();
        // `wide` needs every node: reservation at t=20 when both a and b end.
        assert_eq!(start_of(&recs, "wide"), 20.0);
    }
}

#[cfg(test)]
mod zoo_tests {
    use super::*;
    use crate::job::QosClass;
    use crate::machine::titan;
    use faults::{FaultPlan, SiteSpec};

    fn machine(nodes: usize) -> crate::machine::MachineSpec {
        let mut m = titan();
        m.total_nodes = nodes;
        m
    }

    fn start_of(recs: &[JobRecord], name: &str) -> f64 {
        recs.iter().find(|r| r.name == name).unwrap().start_time
    }

    // ---------------------------------------------------- conservative

    #[test]
    fn conservative_matches_easy_on_the_simple_backfill_workload() {
        // Single blocked job: EASY and conservative coincide.
        for policy in [QueuePolicy::easy(), QueuePolicy::conservative()] {
            let mut sim = BatchSimulator::new(machine(10), policy);
            sim.submit(JobRequest::new("occupier", 8, 100.0, 0.0));
            sim.submit(JobRequest::new("head", 8, 50.0, 1.0));
            sim.submit(JobRequest::new("shorty", 2, 10.0, 2.0));
            let recs = sim.run_to_completion();
            assert_eq!(start_of(&recs, "shorty"), 2.0);
            assert_eq!(start_of(&recs, "head"), 100.0);
        }
    }

    #[test]
    fn conservative_profile_admits_jobs_easy_refuses() {
        // 10 nodes: a 6-node occupier until t=100, a 6-node head reserved at
        // t=100, and a 4-node candidate running 200 s. EASY refuses the
        // candidate (it outlives the head's reservation); the conservative
        // profile sees that the head reuses the *occupier's* nodes, so the
        // candidate's 4 nodes are spare the whole time.
        let submit = |sim: &mut BatchSimulator| {
            sim.submit(JobRequest::new("occupier", 6, 100.0, 0.0));
            sim.submit(JobRequest::new("head", 6, 100.0, 1.0));
            sim.submit(JobRequest::new("candidate", 4, 200.0, 2.0));
        };
        let mut easy = BatchSimulator::new(machine(10), QueuePolicy::easy());
        submit(&mut easy);
        let recs = easy.run_to_completion();
        assert_eq!(start_of(&recs, "head"), 100.0);
        assert!(start_of(&recs, "candidate") >= 100.0, "EASY must refuse");

        let mut cons = BatchSimulator::new(machine(10), QueuePolicy::conservative());
        submit(&mut cons);
        let recs = cons.run_to_completion();
        assert_eq!(start_of(&recs, "candidate"), 2.0, "profile shows a hole");
        assert_eq!(start_of(&recs, "head"), 100.0, "head still undelayed");
    }

    #[test]
    fn conservative_backfill_never_delays_an_earlier_job() {
        // A later shorty that would outlive the head's window must wait.
        let mut sim = BatchSimulator::new(machine(10), QueuePolicy::conservative());
        sim.submit(JobRequest::new("occupier", 8, 100.0, 0.0));
        sim.submit(JobRequest::new("head", 10, 50.0, 1.0));
        sim.submit(JobRequest::new("shorty", 2, 500.0, 2.0));
        let recs = sim.run_to_completion();
        assert_eq!(start_of(&recs, "head"), 100.0);
        assert!(
            start_of(&recs, "shorty") >= 150.0,
            "after the head's window"
        );
    }

    #[test]
    fn conservative_honors_the_small_job_cap() {
        let mut policy = QueuePolicy::conservative();
        policy.small_job_threshold = 125;
        policy.max_running_small_jobs = Some(2);
        let mut sim = BatchSimulator::new(machine(1000), policy);
        for i in 0..4 {
            sim.submit(JobRequest::new(format!("small{i}"), 4, 100.0, 0.0));
        }
        let recs = sim.run_to_completion();
        let mut ends: Vec<f64> = recs.iter().map(|r| r.end_time).collect();
        ends.sort_by(f64::total_cmp);
        assert_eq!(ends, vec![100.0, 100.0, 200.0, 200.0]);
    }

    // ----------------------------------------------------- priority/qos

    #[test]
    fn gold_jobs_preempt_queue_order() {
        let mut sim = BatchSimulator::new(machine(8), QueuePolicy::priority_qos());
        sim.submit(JobRequest::new("occupier", 8, 100.0, 0.0));
        sim.submit(JobRequest::new("bronze", 8, 10.0, 1.0).with_qos(QosClass::Bronze));
        sim.submit(JobRequest::new("silver", 8, 10.0, 2.0).with_qos(QosClass::Silver));
        sim.submit(JobRequest::new("gold", 8, 10.0, 3.0).with_qos(QosClass::Gold));
        let recs = sim.run_to_completion();
        assert_eq!(start_of(&recs, "gold"), 100.0);
        assert_eq!(start_of(&recs, "silver"), 110.0);
        assert_eq!(start_of(&recs, "bronze"), 120.0);
    }

    #[test]
    fn priority_reservation_protects_the_gold_head() {
        // Gold head blocked; a bronze shorty that would outlive its
        // reservation must not jump in front.
        let mut sim = BatchSimulator::new(machine(10), QueuePolicy::priority_qos());
        sim.submit(JobRequest::new("occupier", 8, 100.0, 0.0));
        sim.submit(JobRequest::new("gold", 10, 50.0, 1.0).with_qos(QosClass::Gold));
        sim.submit(JobRequest::new("bronze", 2, 500.0, 2.0).with_qos(QosClass::Bronze));
        let recs = sim.run_to_completion();
        assert_eq!(start_of(&recs, "gold"), 100.0, "gold must not be delayed");
        assert!(start_of(&recs, "bronze") >= 100.0);
        // A bronze shorty that fits under the reservation may still backfill.
        let mut sim = BatchSimulator::new(machine(10), QueuePolicy::priority_qos());
        sim.submit(JobRequest::new("occupier", 8, 100.0, 0.0));
        sim.submit(JobRequest::new("gold", 10, 50.0, 1.0).with_qos(QosClass::Gold));
        sim.submit(JobRequest::new("bronze", 2, 10.0, 2.0).with_qos(QosClass::Bronze));
        let recs = sim.run_to_completion();
        assert_eq!(start_of(&recs, "bronze"), 2.0);
    }

    // ------------------------------------------------------- fair-share

    #[test]
    fn fair_share_favors_the_lightest_group() {
        let mut sim = BatchSimulator::new(machine(8), QueuePolicy::fair_share());
        // Group 1 burns usage first.
        sim.submit(JobRequest::new("g1-history", 8, 1000.0, 0.0).with_group(1));
        sim.run_to_completion();
        assert!(sim.group_usage()[&1] > 0.0);
        // Same instant, same shape: the unused group goes first despite a
        // later submit time.
        let now = sim.now();
        sim.submit(JobRequest::new("g1-next", 8, 10.0, now).with_group(1));
        sim.submit(JobRequest::new("g2-first", 8, 10.0, now).with_group(2));
        let recs = sim.run_to_completion();
        assert_eq!(start_of(&recs, "g2-first"), now);
        assert_eq!(start_of(&recs, "g1-next"), now + 10.0);
    }

    #[test]
    fn fair_share_charges_failed_attempts() {
        let inj = FaultPlan::new(9)
            .with_site(SiteSpec::transient(SCHEDULER_FAULT_SITE, 1.0).with_max_faults(1))
            .build();
        let mut sim = BatchSimulator::new(machine(8), QueuePolicy::fair_share());
        sim.inject_faults(inj, BackoffPolicy::default());
        sim.submit(JobRequest::new("flaky", 4, 100.0, 0.0).with_group(7));
        sim.run_to_completion();
        // One failed attempt + one success: 2 × 4 × 100 node-seconds.
        assert!((sim.group_usage()[&7] - 800.0).abs() < 1e-6);
    }

    // ---------------------------------------------------------- metrics

    #[test]
    fn queue_metrics_track_waits_and_utilization() {
        let mut sim = BatchSimulator::new(machine(8), QueuePolicy::ideal());
        sim.submit(JobRequest::new("a", 8, 50.0, 0.0));
        sim.submit(JobRequest::new("b", 8, 10.0, 0.0));
        sim.run_to_completion();
        let m = sim.queue_metrics();
        assert_eq!(m.completed, 2);
        assert_eq!(m.failed_attempts, 0);
        assert_eq!(m.total_wait_seconds, 50.0, "b waited for a");
        assert_eq!(m.max_wait_seconds, 50.0);
        assert_eq!(m.mean_wait_seconds(), 25.0);
        assert_eq!(m.wait_histogram.count(), 2);
        assert_eq!(m.makespan_seconds, 60.0);
        // 8 nodes busy the whole 60 s.
        assert!((m.busy_node_seconds - 480.0).abs() < 1e-9);
        assert!((m.utilization() - 1.0).abs() < 1e-9);
        assert_eq!(m.wasted_node_seconds, 0.0);
    }

    #[test]
    fn queue_metrics_count_failures() {
        let inj = FaultPlan::new(2)
            .with_site(SiteSpec::transient(SCHEDULER_FAULT_SITE, 1.0))
            .build();
        let mut sim = BatchSimulator::new(machine(8), QueuePolicy::ideal());
        sim.inject_faults(
            inj,
            BackoffPolicy {
                base_seconds: 10.0,
                factor: 2.0,
                max_delay_seconds: 60.0,
                max_attempts: 3,
            },
        );
        sim.submit(JobRequest::new("doomed", 4, 50.0, 0.0));
        sim.run_to_completion();
        let m = sim.queue_metrics();
        assert_eq!(m.completed, 0);
        assert_eq!(m.exhausted, 1);
        assert_eq!(m.failed_attempts, 3);
        assert!((m.wasted_node_seconds - 3.0 * 4.0 * 50.0).abs() < 1e-9);
        assert_eq!(m.busy_node_seconds, m.wasted_node_seconds);
    }

    #[test]
    fn all_disciplines_complete_a_mixed_workload() {
        // Every zoo member must drain the same workload with full accounting.
        for discipline in [
            QueueDiscipline::Fcfs,
            QueueDiscipline::LargestFirst,
            QueueDiscipline::FcfsStrict,
            QueueDiscipline::FcfsBackfill,
            QueueDiscipline::ConservativeBackfill,
            QueueDiscipline::PriorityQos,
            QueueDiscipline::FairShare,
        ] {
            let mut policy = QueuePolicy::ideal();
            policy.discipline = discipline;
            let mut sim = BatchSimulator::new(machine(16), policy);
            for i in 0..20u64 {
                let qos = match i % 3 {
                    0 => QosClass::Bronze,
                    1 => QosClass::Silver,
                    _ => QosClass::Gold,
                };
                sim.submit(
                    JobRequest::new(
                        format!("j{i}"),
                        1 + (i as usize * 5) % 16,
                        10.0 + i as f64,
                        i as f64,
                    )
                    .with_qos(qos)
                    .with_group(i % 4),
                );
            }
            let recs = sim.run_to_completion();
            assert_eq!(recs.len(), 20, "{discipline:?} lost jobs");
            assert_eq!(sim.queue_metrics().completed, 20);
            let usage: f64 = sim.group_usage().values().sum();
            assert!(
                (usage - sim.queue_metrics().busy_node_seconds).abs() < 1e-6,
                "{discipline:?}: group usage must equal busy node-seconds"
            );
        }
    }
}
