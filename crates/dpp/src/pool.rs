//! A persistent work-distributing thread pool.
//!
//! The pool executes *parallel-for* style dispatches: a half-open index range
//! `0..n` is cut into chunks of at least `grain` elements, and worker threads
//! pull chunk indices from a shared atomic counter (dynamic self-scheduling,
//! which tolerates the load imbalance that this project studies).
//!
//! Worker threads are created **once**, when the pool is built, and parked on
//! a condition variable between dispatches. A dispatch publishes an
//! epoch-stamped job (a lifetime-erased pointer to the caller's closure plus
//! the chunk counters), wakes the workers, and the calling thread itself
//! joins in claiming chunks. The call returns only after every chunk has
//! completed — a completion barrier that makes the lifetime erasure sound:
//! the borrowed closure is never invoked after `dispatch` returns, even when
//! a chunk panics (the panic is captured, the barrier still completes, and
//! the payload is re-raised on the calling thread).
//!
//! Compared to the previous spawn-per-dispatch executor (built on
//! `crossbeam::thread::scope`), this removes an OS thread create/join cycle
//! from every kernel invocation — overhead that the paper's per-step in-situ
//! cost model is directly sensitive to. Per-pool [`PoolStats`] counters
//! (dispatches, chunk claims by workers vs. the caller, worker wake-ups,
//! cumulative dispatch wall time) expose the dispatch layer's behavior to the
//! instrumentation and the benches: each dispatch also feeds the `dpp`
//! telemetry counters (`dispatches`, `dispatch_nanos`) while a recorder is
//! installed, and the workflow runner folds the per-run dispatch totals into its
//! measured cost accounting (`WorkflowRun::dispatch_overhead_seconds`), so
//! the cost model's analysis phase sees real dispatch overhead.
//!
//! Cloning a [`ThreadPool`] is cheap and **shares** the same worker threads;
//! the workers shut down when the last clone is dropped. Dispatches from a
//! chunk body onto the same pool (reentrancy) are executed serially inline on
//! the calling thread rather than deadlocking; dispatches from distinct
//! threads onto one pool are serialized by a submission lock.

use std::any::Any;
use std::cell::RefCell;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// The closure type a dispatch executes over chunks.
type JobFn = dyn Fn(Range<usize>) + Sync;

/// One in-flight parallel-for, shared between the caller and the workers.
struct Job {
    /// Lifetime-erased pointer to the caller's closure. Only dereferenced
    /// for chunk indices `< chunks`, all of which complete before `dispatch`
    /// returns, so the borrow is always live when used.
    f: *const JobFn,
    n: usize,
    grain: usize,
    chunks: usize,
    /// Next chunk index to claim.
    next: AtomicUsize,
    /// Chunks fully executed (including ones whose closure panicked).
    completed: AtomicUsize,
    /// Set by the first panicking chunk.
    panicked: AtomicBool,
    /// Payload of the first panic, re-raised by the caller.
    panic_payload: Mutex<Option<Box<dyn Any + Send>>>,
    /// Handle-local counters of the dispatching handle, when it is a
    /// [`ThreadPool::scoped`] view; chunk work is attributed here *in
    /// addition to* the pool-shared cells.
    scope: Option<Arc<StatCells>>,
}

// SAFETY: `f` points at a `Sync` closure; the raw pointer is only shared for
// the duration of the dispatch (enforced by the completion barrier).
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

/// Pool state guarded by the mutex: the published job and lifecycle flags.
struct State {
    /// Incremented per published job so a worker never re-runs one it has
    /// already seen.
    epoch: u64,
    job: Option<Arc<Job>>,
    shutdown: bool,
}

/// Below this `n`, a dispatch that would otherwise go to the workers runs
/// inline on the caller instead: waking the pool costs ~2.5 µs (see the
/// `dispatch_overhead` bench), which at the ~1–2 ns/element of a typical map
/// kernel is only amortized once a dispatch carries a few thousand elements.
/// Measured on the small-n ladder in `BENCH_kernels.json` ("pool_small_n"):
/// pooled dispatch at n = 1024–2048 is 2–6× slower than the inline loop,
/// and the two cross over shortly above 2048.
pub const SMALL_N_THRESHOLD: usize = 2048;

/// Monotonic counters describing pool activity (see [`ThreadPool::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Total `dispatch` calls, including serial fast-path ones.
    pub dispatches: u64,
    /// Dispatches executed inline on the caller (1 worker, 1 chunk, a
    /// reentrant dispatch from within a chunk body, or a small-`n`
    /// dispatch under [`SMALL_N_THRESHOLD`]).
    pub serial_dispatches: u64,
    /// The subset of `serial_dispatches` that ran inline *because* `n` was
    /// at or under [`SMALL_N_THRESHOLD`] (they would have gone to the
    /// workers otherwise). These never wake the pool.
    pub small_n_dispatches: u64,
    /// Chunks claimed and executed by parked worker threads.
    pub chunks_by_workers: u64,
    /// Chunks claimed and executed by the dispatching thread itself.
    pub chunks_by_caller: u64,
    /// Worker park→wake transitions (one per worker per job it noticed).
    pub worker_wakeups: u64,
    /// Cumulative wall time spent inside `dispatch`, in nanoseconds.
    pub total_dispatch_nanos: u64,
}

impl PoolStats {
    /// Total chunks executed across all dispatches.
    #[cfg(test)]
    pub(crate) fn chunks_executed(&self) -> u64 {
        self.chunks_by_workers + self.chunks_by_caller
    }

    /// Counter deltas accumulated since an `earlier` snapshot of the same
    /// pool (saturating, so snapshots passed in the wrong order yield zeros
    /// rather than wrapping).
    pub fn delta_since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            dispatches: self.dispatches.saturating_sub(earlier.dispatches),
            serial_dispatches: self
                .serial_dispatches
                .saturating_sub(earlier.serial_dispatches),
            small_n_dispatches: self
                .small_n_dispatches
                .saturating_sub(earlier.small_n_dispatches),
            chunks_by_workers: self
                .chunks_by_workers
                .saturating_sub(earlier.chunks_by_workers),
            chunks_by_caller: self
                .chunks_by_caller
                .saturating_sub(earlier.chunks_by_caller),
            worker_wakeups: self.worker_wakeups.saturating_sub(earlier.worker_wakeups),
            total_dispatch_nanos: self
                .total_dispatch_nanos
                .saturating_sub(earlier.total_dispatch_nanos),
        }
    }
}

#[derive(Default)]
struct StatCells {
    dispatches: AtomicU64,
    serial_dispatches: AtomicU64,
    small_n_dispatches: AtomicU64,
    chunks_by_workers: AtomicU64,
    chunks_by_caller: AtomicU64,
    worker_wakeups: AtomicU64,
    total_dispatch_nanos: AtomicU64,
}

impl StatCells {
    fn snapshot(&self) -> PoolStats {
        PoolStats {
            dispatches: self.dispatches.load(Ordering::Relaxed),
            serial_dispatches: self.serial_dispatches.load(Ordering::Relaxed),
            small_n_dispatches: self.small_n_dispatches.load(Ordering::Relaxed),
            chunks_by_workers: self.chunks_by_workers.load(Ordering::Relaxed),
            chunks_by_caller: self.chunks_by_caller.load(Ordering::Relaxed),
            worker_wakeups: self.worker_wakeups.load(Ordering::Relaxed),
            total_dispatch_nanos: self.total_dispatch_nanos.load(Ordering::Relaxed),
        }
    }
}

/// State shared between the pool handle and its worker threads.
struct Shared {
    /// Unique pool id, used for the thread-local reentrancy check.
    id: u64,
    state: Mutex<State>,
    /// Workers park here waiting for a new epoch (or shutdown).
    work_cv: Condvar,
    /// The dispatching thread parks here waiting for chunk completion.
    done_cv: Condvar,
    stats: StatCells,
}

thread_local! {
    /// Ids of pools whose dispatch/worker loop is active on this thread;
    /// a dispatch on a pool already in this list runs serially inline.
    static ACTIVE_POOLS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// RAII marker that the current thread is executing chunks for pool `id`.
struct PoolContext {
    id: u64,
}

impl PoolContext {
    fn enter(id: u64) -> PoolContext {
        ACTIVE_POOLS.with(|p| p.borrow_mut().push(id));
        PoolContext { id }
    }

    fn is_active(id: u64) -> bool {
        ACTIVE_POOLS.with(|p| p.borrow().contains(&id))
    }
}

impl Drop for PoolContext {
    fn drop(&mut self) {
        ACTIVE_POOLS.with(|p| {
            let mut p = p.borrow_mut();
            if let Some(i) = p.iter().rposition(|&x| x == self.id) {
                p.remove(i);
            }
        });
    }
}

/// Claim and execute chunks of `job` until the claim counter is exhausted.
/// Panics in the closure are captured into the job, never unwound here.
fn run_job(job: &Job, shared: &Shared, is_worker: bool) {
    let mut executed = 0u64;
    loop {
        let c = job.next.fetch_add(1, Ordering::Relaxed);
        if c >= job.chunks {
            break;
        }
        let lo = c * job.grain;
        let hi = (lo + job.grain).min(job.n);
        // SAFETY: `c < chunks`, and every chunk completes before `dispatch`
        // returns, so the closure behind `f` is still borrowed and live.
        let f = unsafe { &*job.f };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(lo..hi))) {
            if !job.panicked.swap(true, Ordering::SeqCst) {
                *job.panic_payload.lock().unwrap_or_else(|p| p.into_inner()) = Some(payload);
            }
        }
        executed += 1;
        let done = job.completed.fetch_add(1, Ordering::AcqRel) + 1;
        if done == job.chunks {
            // Take the state lock so the notify cannot race ahead of the
            // dispatcher entering its wait.
            let _guard = shared.state.lock().unwrap_or_else(|p| p.into_inner());
            shared.done_cv.notify_all();
        }
    }
    let cell = if is_worker {
        &shared.stats.chunks_by_workers
    } else {
        &shared.stats.chunks_by_caller
    };
    cell.fetch_add(executed, Ordering::Relaxed);
    if let Some(scope) = &job.scope {
        let cell = if is_worker {
            &scope.chunks_by_workers
        } else {
            &scope.chunks_by_caller
        };
        cell.fetch_add(executed, Ordering::Relaxed);
    }
}

fn worker_loop(shared: Arc<Shared>) {
    let _ctx = PoolContext::enter(shared.id);
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if st.shutdown {
                    return;
                }
                if let (true, Some(job)) = (st.epoch != seen_epoch, st.job.as_ref()) {
                    seen_epoch = st.epoch;
                    break Arc::clone(job);
                }
                st = shared.work_cv.wait(st).unwrap_or_else(|p| p.into_inner());
            }
        };
        shared.stats.worker_wakeups.fetch_add(1, Ordering::Relaxed);
        if let Some(scope) = &job.scope {
            scope.worker_wakeups.fetch_add(1, Ordering::Relaxed);
        }
        run_job(&job, &shared, true);
    }
}

/// Owns the worker threads; dropped when the last pool handle goes away.
struct PoolInner {
    shared: Arc<Shared>,
    /// Logical concurrency: persistent workers + the dispatching thread.
    workers: usize,
    /// Serializes dispatches submitted from different threads.
    submit: Mutex<()>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Drop for PoolInner {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        let handles = std::mem::take(self.handles.get_mut().unwrap_or_else(|p| p.into_inner()));
        for h in handles {
            let _ = h.join();
        }
    }
}

static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

/// Dynamic-scheduling parallel-for executor with persistent workers.
///
/// Clones share the same worker threads; see the module docs.
#[derive(Clone)]
pub struct ThreadPool {
    inner: Arc<PoolInner>,
    /// Handle-local counters, present on [`ThreadPool::scoped`] views.
    /// Clones of a scoped handle share the same scope cells.
    scope: Option<Arc<StatCells>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("workers", &self.inner.workers)
            .field("id", &self.inner.shared.id)
            .field("scoped", &self.scope.is_some())
            .finish()
    }
}

impl ThreadPool {
    /// Create a pool with `workers` of logical concurrency: `workers - 1`
    /// persistent OS threads are spawned now, and the thread calling
    /// [`dispatch`](Self::dispatch) acts as the final worker.
    ///
    /// `workers == 0` is clamped to 1 (no threads are spawned; dispatches
    /// run serially on the caller).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            stats: StatCells::default(),
        });
        let handles = (1..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dpp-worker-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("failed to spawn dpp worker thread")
            })
            .collect();
        ThreadPool {
            inner: Arc::new(PoolInner {
                shared,
                workers,
                submit: Mutex::new(()),
                handles: Mutex::new(handles),
            }),
            scope: None,
        }
    }

    /// Create a pool sized to the machine's available hardware parallelism.
    pub fn with_available_parallelism() -> Self {
        let n = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        ThreadPool::new(n)
    }

    /// Logical concurrency of the pool (persistent workers + caller).
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Snapshot of the pool's activity counters.
    ///
    /// These cells are shared by **every** handle cloned from this pool, so
    /// two concurrent users each see the other's dispatches in a delta. Use
    /// [`scoped`](Self::scoped) handles when per-user attribution matters.
    pub fn stats(&self) -> PoolStats {
        self.inner.shared.stats.snapshot()
    }

    /// A handle sharing this pool's worker threads but carrying its own
    /// private activity counters: work dispatched *through the returned
    /// handle* (and only that work) is additionally attributed to
    /// [`scope_stats`](Self::scope_stats). The pool-shared [`stats`](Self::stats)
    /// still see everything, so the global counters stay the sum over scopes.
    ///
    /// This is what lets several concurrent campaigns share one pool without
    /// mis-attributing each other's dispatch deltas.
    pub fn scoped(&self) -> ThreadPool {
        ThreadPool {
            inner: Arc::clone(&self.inner),
            scope: Some(Arc::new(StatCells::default())),
        }
    }

    /// Snapshot of this handle's private counters, or `None` for an
    /// unscoped handle.
    pub fn scope_stats(&self) -> Option<PoolStats> {
        self.scope.as_ref().map(|s| s.snapshot())
    }

    /// Run `f` over every chunk of `0..n`, where each chunk holds at least
    /// `grain` indices (the final chunk may be shorter). Chunks are handed to
    /// the persistent workers dynamically; the calling thread participates.
    /// Returns once every chunk has completed. If any chunk panics, the
    /// first panic is re-raised on the caller *after* all chunks finish.
    pub fn dispatch(&self, n: usize, grain: usize, f: &(dyn Fn(Range<usize>) + Sync)) {
        if n == 0 {
            return;
        }
        let _span = telemetry::span!("dpp", "dispatch", n);
        let grain = grain.max(1);
        let chunks = n.div_ceil(grain);
        let shared = &self.inner.shared;
        let t0 = Instant::now();

        if self.inner.workers <= 1 || chunks <= 1 || PoolContext::is_active(shared.id) {
            // Serial fast path: single worker, single chunk, or a reentrant
            // dispatch from inside a chunk body of this same pool (running
            // inline avoids self-deadlock on the submission lock).
            for c in 0..chunks {
                let lo = c * grain;
                let hi = (lo + grain).min(n);
                f(lo..hi);
            }
            let nanos = t0.elapsed().as_nanos() as u64;
            for stats in std::iter::once(&shared.stats).chain(self.scope.as_deref()) {
                stats.dispatches.fetch_add(1, Ordering::Relaxed);
                stats.serial_dispatches.fetch_add(1, Ordering::Relaxed);
                stats
                    .chunks_by_caller
                    .fetch_add(chunks as u64, Ordering::Relaxed);
                stats
                    .total_dispatch_nanos
                    .fetch_add(nanos, Ordering::Relaxed);
            }
            telemetry::count!("dpp", "dispatches", 1);
            telemetry::count!("dpp", "dispatch_nanos", nanos);
            return;
        }

        if n <= SMALL_N_THRESHOLD {
            // Small-n fast path: the work is too small to amortize waking
            // the workers, so run the same chunk decomposition inline on the
            // caller without touching the pool. Panic semantics match the
            // parallel path exactly — every chunk runs, the first panic is
            // captured and re-raised with the worker prefix — so results
            // and failure modes are indistinguishable from a pooled run.
            let mut payload: Option<Box<dyn Any + Send>> = None;
            for c in 0..chunks {
                let lo = c * grain;
                let hi = (lo + grain).min(n);
                if let Err(p) = catch_unwind(AssertUnwindSafe(|| f(lo..hi))) {
                    if payload.is_none() {
                        payload = Some(p);
                    }
                }
            }
            let nanos = t0.elapsed().as_nanos() as u64;
            for stats in std::iter::once(&shared.stats).chain(self.scope.as_deref()) {
                stats.dispatches.fetch_add(1, Ordering::Relaxed);
                stats.serial_dispatches.fetch_add(1, Ordering::Relaxed);
                stats.small_n_dispatches.fetch_add(1, Ordering::Relaxed);
                stats
                    .chunks_by_caller
                    .fetch_add(chunks as u64, Ordering::Relaxed);
                stats
                    .total_dispatch_nanos
                    .fetch_add(nanos, Ordering::Relaxed);
            }
            telemetry::count!("dpp", "dispatches", 1);
            telemetry::count!("dpp", "dispatch_nanos", nanos);
            if payload.is_some() {
                resume_chunk_panic(payload);
            }
            return;
        }

        // One dispatch in flight at a time; callers on other threads queue.
        let _submit = self.inner.submit.lock().unwrap_or_else(|p| p.into_inner());

        // SAFETY (lifetime erasure): the borrow of `f` outlives this call,
        // and the completion barrier below guarantees no chunk — hence no
        // use of this pointer for a valid index — survives past the return.
        let f_erased: *const JobFn =
            unsafe { std::mem::transmute::<&(dyn Fn(Range<usize>) + Sync), *const JobFn>(f) };
        let job = Arc::new(Job {
            f: f_erased,
            n,
            grain,
            chunks,
            next: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            panic_payload: Mutex::new(None),
            scope: self.scope.clone(),
        });

        {
            let mut st = shared.state.lock().unwrap_or_else(|p| p.into_inner());
            debug_assert!(st.job.is_none(), "a job is already in flight");
            st.epoch = st.epoch.wrapping_add(1);
            st.job = Some(Arc::clone(&job));
        }
        shared.work_cv.notify_all();

        // The caller claims chunks too (inside the reentrancy context, so a
        // nested dispatch on this pool from the closure runs inline).
        {
            let _ctx = PoolContext::enter(shared.id);
            run_job(&job, shared, false);
        }

        // Completion barrier: wait for the workers to drain the stragglers.
        {
            let mut st = shared.state.lock().unwrap_or_else(|p| p.into_inner());
            while job.completed.load(Ordering::Acquire) < chunks {
                st = shared.done_cv.wait(st).unwrap_or_else(|p| p.into_inner());
            }
            st.job = None;
        }

        let nanos = t0.elapsed().as_nanos() as u64;
        for stats in std::iter::once(&shared.stats).chain(self.scope.as_deref()) {
            stats.dispatches.fetch_add(1, Ordering::Relaxed);
            stats
                .total_dispatch_nanos
                .fetch_add(nanos, Ordering::Relaxed);
        }
        telemetry::count!("dpp", "dispatches", 1);
        telemetry::count!("dpp", "dispatch_nanos", nanos);

        if job.panicked.load(Ordering::Acquire) {
            let payload = job
                .panic_payload
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .take();
            resume_chunk_panic(payload);
        }
    }
}

/// Re-raise a captured chunk panic on the dispatching thread, prefixing the
/// message so existing callers (and tests) can identify pool panics.
fn resume_chunk_panic(payload: Option<Box<dyn Any + Send>>) -> ! {
    let msg = match payload.as_deref() {
        Some(p) => {
            if let Some(s) = p.downcast_ref::<&'static str>() {
                (*s).to_string()
            } else if let Some(s) = p.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            }
        }
        None => "unknown panic".to_string(),
    };
    panic!("dpp worker thread panicked: {msg}");
}

impl Default for ThreadPool {
    fn default() -> Self {
        ThreadPool::with_available_parallelism()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn dispatch_covers_every_index_exactly_once() {
        let pool = ThreadPool::new(4);
        let n = 10_007; // deliberately not a multiple of the grain
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        pool.dispatch(n, 64, &|r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn dispatch_empty_range_is_noop() {
        let pool = ThreadPool::new(4);
        let called = AtomicUsize::new(0);
        pool.dispatch(0, 16, &|_| {
            called.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(called.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn zero_grain_is_clamped() {
        let pool = ThreadPool::new(2);
        let sum = AtomicU64::new(0);
        pool.dispatch(5, 0, &|r| {
            sum.fetch_add(r.len() as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn zero_workers_clamped_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.workers(), 1);
        let sum = AtomicU64::new(0);
        pool.dispatch(100, 10, &|r| {
            sum.fetch_add(r.len() as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 100);
    }

    #[test]
    #[should_panic(expected = "worker thread panicked")]
    fn dispatch_propagates_panics() {
        let pool = ThreadPool::new(2);
        pool.dispatch(100, 1, &|r| {
            if r.start == 57 {
                panic!("boom");
            }
        });
    }

    #[test]
    #[should_panic(expected = "worker thread panicked")]
    fn parallel_dispatch_propagates_panics() {
        // Above the small-n threshold, so the panic crosses the pool.
        let pool = ThreadPool::new(2);
        pool.dispatch(10_000, 16, &|r| {
            if r.start == 5_696 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn pool_survives_a_panicked_dispatch() {
        let pool = ThreadPool::new(4);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.dispatch(64, 1, &|r| {
                if r.start == 13 {
                    panic!("transient");
                }
            });
        }));
        assert!(caught.is_err());
        // The workers must still be alive and correct afterwards (n above
        // the small-n threshold so the pool really runs).
        let sum = AtomicU64::new(0);
        pool.dispatch(10_000, 16, &|r| {
            sum.fetch_add(r.len() as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 10_000);
    }

    #[test]
    fn repeated_dispatches_reuse_the_same_workers() {
        let pool = ThreadPool::new(4);
        let sum = AtomicU64::new(0);
        for _ in 0..500 {
            pool.dispatch(4096, 256, &|r| {
                sum.fetch_add(r.len() as u64, Ordering::Relaxed);
            });
        }
        assert_eq!(sum.load(Ordering::Relaxed), 500 * 4096);
        let stats = pool.stats();
        assert_eq!(stats.dispatches, 500);
        assert_eq!(stats.chunks_executed(), 500 * 16);
        assert_eq!(stats.small_n_dispatches, 0, "4096 is above the threshold");
    }

    #[test]
    fn nested_dispatch_on_same_pool_runs_inline() {
        let pool = ThreadPool::new(4);
        let outer_n = 4096; // above the threshold: chunks run on workers
        let inner_n = 32;
        let count = AtomicU64::new(0);
        let p2 = pool.clone();
        pool.dispatch(outer_n, 256, &|r| {
            for _ in r {
                p2.dispatch(inner_n, 8, &|ir| {
                    count.fetch_add(ir.len() as u64, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(
            count.load(Ordering::Relaxed),
            (outer_n * inner_n) as u64,
            "every nested dispatch must fully execute"
        );
    }

    #[test]
    fn small_n_dispatch_skips_the_pool() {
        let pool = ThreadPool::new(4);
        let before = pool.stats();
        let seen: parking_lot::Mutex<Vec<Range<usize>>> = parking_lot::Mutex::new(Vec::new());
        pool.dispatch(SMALL_N_THRESHOLD, 64, &|r| seen.lock().push(r));
        let d = pool.stats().delta_since(&before);
        assert_eq!(d.dispatches, 1);
        assert_eq!(d.small_n_dispatches, 1);
        assert_eq!(d.serial_dispatches, 1);
        assert_eq!(d.worker_wakeups, 0, "the pool must not be woken");
        assert_eq!(d.chunks_by_workers, 0, "no chunk may run on a worker");
        assert_eq!(d.chunks_by_caller, (SMALL_N_THRESHOLD / 64) as u64);
        // The chunk decomposition is exactly the pooled grid, in order.
        let got = seen.into_inner();
        let expect: Vec<Range<usize>> = (0..SMALL_N_THRESHOLD)
            .step_by(64)
            .map(|lo| lo..(lo + 64).min(SMALL_N_THRESHOLD))
            .collect();
        assert_eq!(got, expect);

        // One element past the threshold the parallel path is taken again
        // (no serial or small-n counter moves; chunk attribution may land on
        // the caller or the workers depending on who claims first).
        let before = pool.stats();
        pool.dispatch(SMALL_N_THRESHOLD + 1, 64, &|_| {});
        let d = pool.stats().delta_since(&before);
        assert_eq!(d.dispatches, 1);
        assert_eq!(d.small_n_dispatches, 0);
        assert_eq!(d.serial_dispatches, 0);
    }

    #[test]
    fn small_n_threshold_is_exposed() {
        const { assert!(SMALL_N_THRESHOLD >= 1024, "threshold covers tiny kernels") };
    }

    #[test]
    fn concurrent_dispatches_from_clones_serialize_safely() {
        let pool = ThreadPool::new(4);
        let total = Arc::new(AtomicU64::new(0));
        let mut joins = Vec::new();
        for _ in 0..4 {
            let pool = pool.clone();
            let total = Arc::clone(&total);
            joins.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    pool.dispatch(512, 32, &|r| {
                        total.fetch_add(r.len() as u64, Ordering::Relaxed);
                    });
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 4 * 50 * 512);
    }

    #[test]
    fn stats_reflect_activity() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.stats(), PoolStats::default());
        pool.dispatch(4096, 32, &|_| {}); // above threshold → parallel path
        pool.dispatch(1024, 8, &|_| {}); // under threshold → small-n inline
        pool.dispatch(1, 8, &|_| {}); // single chunk → serial fast path
        let s = pool.stats();
        assert_eq!(s.dispatches, 3);
        assert_eq!(s.serial_dispatches, 2);
        assert_eq!(s.small_n_dispatches, 1);
        assert_eq!(s.chunks_executed(), 128 + 128 + 1);
        assert!(s.total_dispatch_nanos > 0);
    }

    #[test]
    fn workers_park_between_dispatches() {
        let pool = ThreadPool::new(4);
        pool.dispatch(4096, 8, &|_| {
            std::thread::sleep(std::time::Duration::from_micros(5));
        });
        let wakeups_after_one = pool.stats().worker_wakeups;
        assert!(
            wakeups_after_one <= 3,
            "3 persistent workers can wake at most once each per job, got {wakeups_after_one}"
        );
    }

    #[test]
    fn drop_shuts_down_workers() {
        let pool = ThreadPool::new(8);
        pool.dispatch(100, 1, &|_| {});
        drop(pool); // must not hang or leak threads
    }

    #[test]
    fn scoped_handles_attribute_only_their_own_dispatches() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.scope_stats(), None, "the base handle is unscoped");

        let a = pool.scoped();
        let b = pool.scoped();
        assert_eq!(a.scope_stats(), Some(PoolStats::default()));

        a.dispatch(4096, 32, &|_| {}); // 128 chunks, parallel path
        a.dispatch(1, 8, &|_| {}); // serial fast path
        b.dispatch(512, 8, &|_| {}); // 64 chunks, small-n inline

        let sa = a.scope_stats().unwrap();
        let sb = b.scope_stats().unwrap();
        assert_eq!(sa.dispatches, 2, "scope A sees only its own dispatches");
        assert_eq!(sa.serial_dispatches, 1);
        assert_eq!(sa.small_n_dispatches, 0);
        assert_eq!(sa.chunks_executed(), 128 + 1);
        assert_eq!(sb.dispatches, 1, "scope B is not polluted by scope A");
        assert_eq!(sb.small_n_dispatches, 1);
        assert_eq!(sb.chunks_executed(), 64);

        // The pool-shared counters remain the sum over every handle.
        let total = pool.stats();
        assert_eq!(total.dispatches, 3);
        assert_eq!(total.small_n_dispatches, 1);
        assert_eq!(total.chunks_executed(), 128 + 1 + 64);
    }

    #[test]
    fn concurrent_scoped_handles_stay_isolated() {
        let pool = ThreadPool::new(4);
        let mut joins = Vec::new();
        for k in 0..3u64 {
            let handle = pool.scoped();
            joins.push(std::thread::spawn(move || {
                let rounds = 10 * (k + 1);
                for _ in 0..rounds {
                    handle.dispatch(256, 16, &|_| {});
                }
                (handle, rounds)
            }));
        }
        let mut total_dispatches = 0;
        for j in joins {
            let (handle, rounds) = j.join().unwrap();
            let s = handle.scope_stats().unwrap();
            assert_eq!(
                s.dispatches, rounds,
                "each scope counts exactly its own dispatches under contention"
            );
            assert_eq!(s.chunks_executed(), rounds * 16);
            total_dispatches += rounds;
        }
        assert_eq!(pool.stats().dispatches, total_dispatches);
    }

    #[test]
    fn clones_share_one_set_of_workers() {
        let pool = ThreadPool::new(4);
        let clone = pool.clone();
        clone.dispatch(100, 10, &|_| {});
        // Stats are shared, proving the clone reached the same pool.
        assert_eq!(pool.stats().dispatches, 1);
    }
}
