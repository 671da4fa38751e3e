//! Execution backends.
//!
//! Mirroring PISTON/VTK-m's device adapters, a kernel is written once against
//! the [`Backend`] trait and runs unchanged on every backend. Three adapters
//! are provided:
//!
//! * [`Serial`] — single-threaded reference execution (always available, used
//!   as the correctness oracle in tests),
//! * [`Threaded`] — multi-core execution through [`ThreadPool`], chunks
//!   claimed dynamically, and
//! * [`StaticThreaded`] — the same pool with one contiguous block per worker
//!   (the load-imbalance ablation).
//!
//! The original system also targeted CUDA GPUs through Thrust; on the machines
//! modeled by the `simhpc` crate, GPU execution is represented by a speed
//! factor applied by the platform model rather than by a third adapter.

use crate::pool::{PoolStats, ThreadPool};
use std::ops::Range;

/// Default minimum number of elements handed to a worker in one chunk.
pub const DEFAULT_GRAIN: usize = 1024;

/// An execution backend for data-parallel primitives.
///
/// The trait is object safe, so algorithm code can hold a `&dyn Backend`
/// chosen at run time (e.g. from an input deck).
pub trait Backend: Sync {
    /// Execute `f` over chunks of `0..n` (each chunk at least `grain` long,
    /// except possibly the last). Chunks may run concurrently; the call
    /// returns only after all chunks finish.
    fn dispatch(&self, n: usize, grain: usize, f: &(dyn Fn(Range<usize>) + Sync));

    /// Maximum number of chunks that may execute concurrently.
    fn concurrency(&self) -> usize;

    /// Human-readable adapter name (for logs and reports).
    fn name(&self) -> &'static str;

    /// Snapshot of the backing pool's monotonic counters, when the backend
    /// has one. Callers subtract two snapshots ([`PoolStats::delta_since`])
    /// to attribute dispatch counts and overhead to a region of work; the
    /// `Serial` reference backend has no pool and returns `None`.
    fn pool_stats(&self) -> Option<PoolStats> {
        None
    }
}

/// Single-threaded reference backend.
#[derive(Debug, Default, Clone, Copy)]
pub struct Serial;

impl Backend for Serial {
    fn dispatch(&self, n: usize, grain: usize, f: &(dyn Fn(Range<usize>) + Sync)) {
        if n == 0 {
            return;
        }
        let _span = telemetry::span!("dpp", "dispatch", n);
        let grain = grain.max(1);
        let mut lo = 0;
        while lo < n {
            let hi = (lo + grain).min(n);
            f(lo..hi);
            lo = hi;
        }
    }

    fn concurrency(&self) -> usize {
        1
    }

    fn name(&self) -> &'static str {
        "serial"
    }
}

/// Multi-core backend driven by a [`ThreadPool`].
#[derive(Debug, Default, Clone)]
pub struct Threaded {
    pool: ThreadPool,
}

impl Threaded {
    /// Backend with a dedicated pool of `workers` persistent threads.
    pub fn new(workers: usize) -> Self {
        Threaded {
            pool: ThreadPool::new(workers),
        }
    }

    /// Backend sized to available hardware parallelism.
    pub fn with_available_parallelism() -> Self {
        Threaded {
            pool: ThreadPool::with_available_parallelism(),
        }
    }

    /// Backend sharing an existing pool's worker threads (pools are
    /// reference-counted; clones of one pool share one set of workers).
    pub fn from_pool(pool: ThreadPool) -> Self {
        Threaded { pool }
    }

    /// A backend sharing this one's worker threads whose
    /// [`pool_stats`](Backend::pool_stats) report only work dispatched
    /// through the returned handle (see [`ThreadPool::scoped`]). Give each
    /// concurrent campaign its own scoped backend and `delta_since` on its
    /// snapshots attributes dispatches per campaign instead of smearing one
    /// shared pool's totals across everybody.
    pub fn scoped(&self) -> Threaded {
        Threaded {
            pool: self.pool.scoped(),
        }
    }
}

impl Backend for Threaded {
    fn dispatch(&self, n: usize, grain: usize, f: &(dyn Fn(Range<usize>) + Sync)) {
        self.pool.dispatch(n, grain, f);
    }

    fn concurrency(&self) -> usize {
        self.pool.workers()
    }

    fn name(&self) -> &'static str {
        "threaded"
    }

    fn pool_stats(&self) -> Option<PoolStats> {
        // A scoped backend reports its private counters so callers'
        // delta-based attribution is isolated from the pool's other users.
        self.pool.scope_stats().or_else(|| Some(self.pool.stats()))
    }
}

/// Multi-core backend with *static* scheduling: `0..n` is pre-partitioned
/// into exactly one contiguous block per worker, with no work stealing.
///
/// This is the ablation counterpart to [`Threaded`]'s dynamic
/// self-scheduling: on uniform work they perform alike; on the skewed
/// per-item costs this project studies (O(n²) halo centers), the worker that
/// drew the heavy block gates the whole dispatch — the same load-imbalance
/// mechanism that motivates the paper's off-load workflow.
#[derive(Debug, Clone)]
pub struct StaticThreaded {
    pool: ThreadPool,
}

impl StaticThreaded {
    /// Backend using `workers` threads, one contiguous block each.
    pub fn new(workers: usize) -> Self {
        StaticThreaded {
            pool: ThreadPool::new(workers),
        }
    }

    /// Backend sharing an existing pool's worker threads.
    #[cfg(test)]
    fn from_pool(pool: ThreadPool) -> Self {
        StaticThreaded { pool }
    }
}

impl Backend for StaticThreaded {
    fn dispatch(&self, n: usize, _grain: usize, f: &(dyn Fn(Range<usize>) + Sync)) {
        if n == 0 {
            return;
        }
        let w = self.pool.workers().min(n);
        let block = n.div_ceil(w);
        // One chunk per worker: the pool's dynamic queue degenerates to a
        // static partition because #chunks == #threads.
        self.pool.dispatch(n, block, f);
    }

    fn concurrency(&self) -> usize {
        self.pool.workers()
    }

    fn name(&self) -> &'static str {
        "static-threaded"
    }

    fn pool_stats(&self) -> Option<PoolStats> {
        Some(self.pool.stats())
    }
}

/// A raw pointer wrapper that asserts cross-thread shareability.
///
/// Safety: used only by primitives that hand *disjoint* index ranges to each
/// worker, so no two threads ever touch the same element.
pub struct SendPtr<T>(pub *mut T);

unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// # Safety
    /// Caller must guarantee `idx` is in bounds of the allocation and that no
    /// other thread accesses the same index concurrently.
    #[inline]
    pub unsafe fn write(&self, idx: usize, value: T) {
        self.0.add(idx).write(value);
    }

    /// Raw pointer to element `idx`.
    ///
    /// # Safety
    /// `idx` must be in bounds; the caller upholds aliasing discipline.
    #[inline]
    pub unsafe fn at(&self, idx: usize) -> *mut T {
        self.0.add(idx)
    }

    /// Mutable reference to element `idx`.
    ///
    /// # Safety
    /// `idx` must be in bounds and not concurrently accessed elsewhere.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    pub unsafe fn get_mut(&self, idx: usize) -> &mut T {
        &mut *self.0.add(idx)
    }

    /// Disjoint mutable sub-slice `[start, start+len)`.
    ///
    /// # Safety
    /// The range must be in bounds and disjoint from every range handed to
    /// other threads (the wrapper exists precisely to hand out aliased-by-
    /// construction-disjoint views, hence the `mut_from_ref` exemption).
    #[allow(clippy::mut_from_ref)]
    #[inline]
    pub unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [T] {
        std::slice::from_raw_parts_mut(self.0.add(start), len)
    }
}

/// Build a `Vec<T>` of length `n` where element `i` is produced by `init(i)`,
/// with elements initialized in parallel chunks.
///
/// If `init` panics, every element that was already initialized is dropped
/// before the panic is re-raised, so no `T` leaks.
pub fn par_init<T, F>(backend: &dyn Backend, n: usize, grain: usize, init: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<T> = Vec::with_capacity(n);
    let ptr = SendPtr(out.as_mut_ptr());
    // Each chunk records its initialized prefix through an unwind-safe guard,
    // so a panicking `init` (in this chunk or any other) leaves an exact
    // account of which elements hold live values.
    let written: parking_lot::Mutex<Vec<(usize, usize)>> = parking_lot::Mutex::new(Vec::new());
    struct ChunkGuard<'a> {
        lo: usize,
        count: usize,
        written: &'a parking_lot::Mutex<Vec<(usize, usize)>>,
    }
    impl Drop for ChunkGuard<'_> {
        fn drop(&mut self) {
            if self.count > 0 {
                self.written.lock().push((self.lo, self.count));
            }
        }
    }
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        backend.dispatch(n, grain, &|r: Range<usize>| {
            let mut guard = ChunkGuard {
                lo: r.start,
                count: 0,
                written: &written,
            };
            for i in r {
                // SAFETY: ranges from dispatch are disjoint and within 0..n,
                // and the buffer has capacity n.
                unsafe { ptr.write(i, init(i)) };
                guard.count += 1;
            }
        });
    }));
    if let Err(payload) = result {
        // `dispatch` completes every chunk before re-raising, so the record
        // is final: drop each initialized element, then propagate.
        for (lo, count) in written.into_inner() {
            for i in lo..lo + count {
                // SAFETY: `[lo, lo+count)` was fully initialized by exactly
                // one chunk and is dropped exactly once here.
                unsafe { std::ptr::drop_in_place(ptr.at(i)) };
            }
        }
        std::panic::resume_unwind(payload);
    }
    // SAFETY: no chunk panicked, so every index in 0..n was written exactly
    // once above.
    unsafe { out.set_len(n) };
    out
}

/// Apply `f(i, &mut data[i])` to every element, in parallel chunks.
pub fn par_for_each_mut<T, F>(backend: &dyn Backend, data: &mut [T], grain: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = data.len();
    let ptr = SendPtr(data.as_mut_ptr());
    backend.dispatch(n, grain, &|r: Range<usize>| {
        for i in r {
            // SAFETY: disjoint in-bounds ranges; exclusive &mut borrow held.
            let elem = unsafe { ptr.get_mut(i) };
            f(i, elem);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_threaded_report_metadata() {
        assert_eq!(Serial.name(), "serial");
        assert_eq!(Serial.concurrency(), 1);
        let t = Threaded::new(3);
        assert_eq!(t.name(), "threaded");
        assert_eq!(t.concurrency(), 3);
    }

    #[test]
    fn par_init_matches_serial_init() {
        let t = Threaded::new(4);
        let a = par_init(&Serial, 1000, 16, |i| i * i);
        let b = par_init(&t, 1000, 16, |i| i * i);
        assert_eq!(a, b);
        assert_eq!(a[37], 37 * 37);
    }

    #[test]
    fn par_init_empty() {
        let v: Vec<u8> = par_init(&Serial, 0, 8, |_| 1);
        assert!(v.is_empty());
    }

    #[test]
    fn par_for_each_mut_updates_all() {
        let t = Threaded::new(4);
        let mut v = vec![1u64; 5000];
        par_for_each_mut(&t, &mut v, 64, |i, x| *x += i as u64);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, 1 + i as u64);
        }
    }

    #[test]
    fn backends_can_share_one_pool() {
        let pool = crate::pool::ThreadPool::new(4);
        let dynamic = Threaded::from_pool(pool.clone());
        let static_ = StaticThreaded::from_pool(pool.clone());
        dynamic.dispatch(1000, 10, &|_| {});
        static_.dispatch(1000, 10, &|_| {});
        assert_eq!(pool.stats().dispatches, 2, "both dispatches hit one pool");
    }

    #[test]
    fn scoped_backends_isolate_pool_stat_deltas() {
        let shared = Threaded::new(4);
        let campaign_a = shared.scoped();
        let campaign_b = shared.scoped();

        let a0 = campaign_a.pool_stats().unwrap();
        let b0 = campaign_b.pool_stats().unwrap();
        campaign_a.dispatch(4096, 32, &|_| {}); // 128 chunks
        campaign_b.dispatch(1024, 32, &|_| {}); // 32 chunks

        let da = campaign_a.pool_stats().unwrap().delta_since(&a0);
        let db = campaign_b.pool_stats().unwrap().delta_since(&b0);
        assert_eq!(da.dispatches, 1, "campaign A must not see B's dispatch");
        assert_eq!(da.chunks_executed(), 128);
        assert_eq!(db.dispatches, 1, "campaign B must not see A's dispatch");
        assert_eq!(db.chunks_executed(), 32);

        // The unscoped base backend still reports the shared totals.
        assert_eq!(shared.pool_stats().unwrap().dispatches, 2);
    }

    #[test]
    fn par_init_panic_drops_initialized_elements() {
        use std::sync::atomic::{AtomicIsize, Ordering};
        static LIVE: AtomicIsize = AtomicIsize::new(0);
        struct Counted;
        impl Counted {
            fn new() -> Self {
                LIVE.fetch_add(1, Ordering::SeqCst);
                Counted
            }
        }
        impl Drop for Counted {
            fn drop(&mut self) {
                LIVE.fetch_sub(1, Ordering::SeqCst);
            }
        }
        for backend in [&Serial as &dyn Backend, &Threaded::new(4)] {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                par_init(backend, 1000, 8, |i| {
                    if i == 500 {
                        panic!("init failed");
                    }
                    Counted::new()
                })
            }));
            assert!(result.is_err());
            assert_eq!(
                LIVE.load(Ordering::SeqCst),
                0,
                "every initialized element must be dropped on {}",
                backend.name()
            );
        }
    }

    #[test]
    fn drop_safety_with_nontrivial_type() {
        // Strings exercise drop correctness of the unsafe init path.
        let t = Threaded::new(4);
        let v = par_init(&t, 257, 8, |i| format!("s{i}"));
        assert_eq!(v.len(), 257);
        assert_eq!(v[200], "s200");
    }
}

#[cfg(test)]
mod static_backend_tests {
    use super::*;

    #[test]
    fn static_backend_computes_the_same_results() {
        let st = StaticThreaded::new(4);
        let dyn_ = Threaded::new(4);
        let a = par_init(&st, 10_000, 64, |i| i * 3);
        let b = par_init(&dyn_, 10_000, 64, |i| i * 3);
        assert_eq!(a, b);
        assert_eq!(st.name(), "static-threaded");
        assert_eq!(st.concurrency(), 4);
    }

    #[test]
    fn static_backend_uses_one_block_per_worker() {
        use parking_lot::Mutex;
        let st = StaticThreaded::new(4);
        let chunks: Mutex<Vec<std::ops::Range<usize>>> = Mutex::new(Vec::new());
        st.dispatch(1000, 1, &|r| chunks.lock().push(r));
        let mut got = chunks.into_inner();
        got.sort_by_key(|r| r.start);
        assert_eq!(got.len(), 4, "exactly one contiguous block per worker");
        assert_eq!(got[0], 0..250);
        assert_eq!(got[3], 750..1000);
    }
}
