//! Unified telemetry for the workflow crates: structured **spans** (nested,
//! with parent ids), **counters**, and **histograms** (fixed log-bucket,
//! mergeable), recorded into per-thread lock-free ring buffers and drained
//! into a trace that exports two ways — Chrome trace-event JSON (loadable
//! in Perfetto / `chrome://tracing`) and a human-readable per-phase summary
//! table.
//!
//! # Arming (the `faults` rule)
//!
//! There is one build. An event is recorded iff a [`Recorder`] is
//! [`install`]ed: with none installed, every [`span!`]/[`count!`]/
//! [`observe!`]/[`instant!`] site is one inlined relaxed atomic load and a
//! branch (the same disarmed check `faults::poll` makes, measured at ~1 ns),
//! and the recording body stays out of line. Instrumented sites are per
//! dispatch, per message, per job or per file — never per particle.
//!
//! # Determinism
//!
//! A recorder created with [`Clock::Logical`] strips wall time entirely: its
//! Chrome export contains only completed spans, canonically sorted by
//! `(layer, name, arg)` with rewritten timestamps, so two runs that perform
//! the same logical work — e.g. chaos-harness replays with the same
//! `CHAOS_SEED` — produce **byte-identical** trace files. Counters and
//! histograms are excluded from the logical export because poll-driven hit
//! counts (the listener's scan loop) are wall-clock dependent.
//!
//! ```
//! let recorder = std::sync::Arc::new(telemetry::Recorder::new(telemetry::Clock::Wall));
//! let guard = telemetry::install(recorder);
//! {
//!     let _span = telemetry::enter_span("demo", "work", 7);
//!     telemetry::add_count("demo", "items", 3);
//! }
//! let trace = guard.finish();
//! assert_eq!(trace.counters()[&("demo", "items")], 3);
//! println!("{}", trace.summary_table());
//! ```

#![warn(missing_docs)]

pub mod json;

use parking_lot::Mutex;
use std::cell::{RefCell, UnsafeCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;

// ------------------------------------------------------------------ events

/// Time source for a [`Recorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Microseconds since the recorder was created. Spans carry real
    /// durations; the Chrome export is a genuine timeline.
    Wall,
    /// No time at all: every timestamp records as zero and the Chrome export
    /// is canonically ordered, making same-work runs byte-identical.
    Logical,
}

/// What one recorded event represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened. `parent` is the id of the enclosing span on the same
    /// thread (0 when the span is a root).
    SpanBegin {
        /// Unique span id (process-wide, never 0).
        id: u64,
        /// Enclosing span's id, or 0.
        parent: u64,
        /// Caller-supplied numeric argument (step number, element count…).
        arg: u64,
    },
    /// A span closed.
    SpanEnd {
        /// Id of the span being closed.
        id: u64,
    },
    /// A counter increment.
    Count {
        /// Amount added to the counter.
        delta: u64,
    },
    /// A histogram observation.
    Observe {
        /// Observed value.
        value: u64,
    },
}

/// One telemetry event: where it came from, when, and what it was.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Instrumented layer (`"dpp"`, `"simhpc"`, `"listener"`, `"runner"`,
    /// `"comm"`, `"faults"`).
    pub layer: &'static str,
    /// Event name within the layer.
    pub name: &'static str,
    /// Timestamp per the recorder's [`Clock`] (µs for wall, 0 for logical).
    pub ts: u64,
    /// Ring-buffer lane (≈ thread) that recorded the event.
    pub lane: u64,
    /// Caller-scoped dimension active when the event was recorded (see
    /// [`with_dim`]); `0` means unscoped. The workflow service tags every
    /// event with the campaign id this way, so one trace can be sliced
    /// per campaign without widening the `&'static str` name space.
    pub dim: u64,
    /// Payload.
    pub kind: EventKind,
}

// ------------------------------------------------------------- ring buffer

/// Events buffered per lane before the producer spills to the shared sink.
const LANE_CAP: usize = 1024;

/// A single-producer ring buffer owned by one thread at a time. The producer
/// pushes lock-free; draining (by the producer on overflow, or by the
/// recorder at finish) is serialized by the per-lane `drain` mutex, so the
/// consumer side stays single even when two parties could drain.
struct Lane {
    id: u64,
    head: AtomicUsize,
    tail: AtomicUsize,
    drain: Mutex<()>,
    slots: Box<[UnsafeCell<MaybeUninit<Event>>]>,
}

// The slots are only written by the unique producer and only read by the
// unique drainer (enforced by ownership + the drain mutex).
unsafe impl Send for Lane {}
unsafe impl Sync for Lane {}

impl Lane {
    fn new(id: u64) -> Self {
        Lane {
            id,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            drain: Mutex::new(()),
            slots: (0..LANE_CAP)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
        }
    }

    /// Producer-side push; spills the whole ring into `sink` when full, so
    /// no event is ever dropped.
    fn push(&self, ev: Event, sink: &Mutex<Vec<Event>>) {
        loop {
            let head = self.head.load(Ordering::Relaxed);
            let tail = self.tail.load(Ordering::Acquire);
            if head.wrapping_sub(tail) < LANE_CAP {
                unsafe { (*self.slots[head % LANE_CAP].get()).write(ev) };
                self.head.store(head.wrapping_add(1), Ordering::Release);
                return;
            }
            self.drain_into(sink);
        }
    }

    /// Move every buffered event into `sink`, preserving order.
    fn drain_into(&self, sink: &Mutex<Vec<Event>>) {
        let _serial = self.drain.lock();
        let head = self.head.load(Ordering::Acquire);
        let mut tail = self.tail.load(Ordering::Relaxed);
        if tail == head {
            return;
        }
        let mut out = sink.lock();
        while tail != head {
            out.push(unsafe { (*self.slots[tail % LANE_CAP].get()).assume_init_read() });
            tail = tail.wrapping_add(1);
        }
        drop(out);
        self.tail.store(tail, Ordering::Release);
    }
}

// --------------------------------------------------------------- recorder

/// Collects events from every instrumented thread. Create one, wrap it in an
/// [`Arc`], [`install`] it, run the workload, then [`RecorderGuard::finish`]
/// to obtain the [`Trace`].
pub struct Recorder {
    clock: Clock,
    epoch: Instant,
    next_lane: AtomicU64,
    next_span: AtomicU64,
    lanes: Mutex<Vec<Arc<Lane>>>,
    free: Mutex<Vec<Arc<Lane>>>,
    sink: Mutex<Vec<Event>>,
}

impl Recorder {
    /// New empty recorder using the given clock.
    pub fn new(clock: Clock) -> Self {
        Recorder {
            clock,
            epoch: Instant::now(),
            next_lane: AtomicU64::new(0),
            next_span: AtomicU64::new(0),
            lanes: Mutex::new(Vec::new()),
            free: Mutex::new(Vec::new()),
            sink: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        match self.clock {
            Clock::Wall => self.epoch.elapsed().as_micros() as u64,
            Clock::Logical => 0,
        }
    }

    /// Hand a lane to a new recording thread, recycling retired lanes (the
    /// workflow spawns many short-lived rank/job threads).
    fn acquire_lane(&self) -> Arc<Lane> {
        if let Some(lane) = self.free.lock().pop() {
            return lane;
        }
        let lane = Arc::new(Lane::new(self.next_lane.fetch_add(1, Ordering::Relaxed)));
        self.lanes.lock().push(Arc::clone(&lane));
        lane
    }

    /// Return a lane at thread exit: flush it, then make it reusable.
    fn retire_lane(&self, lane: &Arc<Lane>) {
        lane.drain_into(&self.sink);
        self.free.lock().push(Arc::clone(lane));
    }

    /// Drain every lane and return everything recorded so far. Threads still
    /// actively recording may add events afterwards; call this only once the
    /// instrumented workload has joined.
    fn drain_trace(&self) -> Trace {
        for lane in self.lanes.lock().iter() {
            lane.drain_into(&self.sink);
        }
        Trace {
            clock: self.clock,
            events: std::mem::take(&mut *self.sink.lock()),
        }
    }
}

// ------------------------------------------------------------ global state

/// Fast-path switch: true while a recorder is installed.
static ARMED: AtomicBool = AtomicBool::new(false);
/// Bumped on every install/uninstall so thread-local lane caches detect
/// recorder turnover.
static GENERATION: AtomicU64 = AtomicU64::new(0);
/// The installed recorder, if any.
static GLOBAL: Mutex<Option<Arc<Recorder>>> = Mutex::new(None);

/// Uninstalls the recorder when dropped (mirrors `faults::InstallGuard`).
#[must_use = "dropping the guard immediately uninstalls the recorder"]
pub struct RecorderGuard {
    recorder: Arc<Recorder>,
}

impl RecorderGuard {
    /// Uninstall the recorder and return its collected [`Trace`].
    pub fn finish(self) -> Trace {
        let recorder = Arc::clone(&self.recorder);
        drop(self);
        recorder.drain_trace()
    }
}

impl Drop for RecorderGuard {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::Release);
        *GLOBAL.lock() = None;
        GENERATION.fetch_add(1, Ordering::Release);
    }
}

/// Install `recorder` as the process-global recorder. Panics if one is
/// already installed — tests that install must serialize (see
/// `tests/chaos.rs` for the pattern).
pub fn install(recorder: Arc<Recorder>) -> RecorderGuard {
    let mut slot = GLOBAL.lock();
    assert!(
        slot.is_none(),
        "a telemetry recorder is already installed; drop the previous guard first"
    );
    *slot = Some(Arc::clone(&recorder));
    GENERATION.fetch_add(1, Ordering::Release);
    ARMED.store(true, Ordering::Release);
    drop(slot);
    RecorderGuard { recorder }
}

/// True while a recorder is installed.
pub fn is_armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

// -------------------------------------------------------- event dimension

thread_local! {
    /// The dimension stamped onto every event this thread records (0 = none).
    static CURRENT_DIM: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The dimension currently stamped onto this thread's events (0 = none).
fn current_dim() -> u64 {
    CURRENT_DIM.with(|d| d.get())
}

/// RAII guard restoring the previous event dimension on drop.
pub struct DimGuard {
    prev: u64,
}

impl Drop for DimGuard {
    fn drop(&mut self) {
        CURRENT_DIM.with(|d| d.set(self.prev));
    }
}

/// Stamp every event recorded by this thread with `dim` until the returned
/// guard drops (guards nest; the previous dimension is restored).
///
/// Layer and name stay `&'static str`, so a long-lived service multiplexing
/// many campaigns cannot mint per-campaign names; instead it wraps each
/// campaign's work in `with_dim(campaign_id)` and slices the finished trace
/// with [`Trace::counters_by_dim`]. Dimension `0` is reserved for unscoped
/// events.
pub fn with_dim(dim: u64) -> DimGuard {
    let prev = CURRENT_DIM.with(|d| d.replace(dim));
    DimGuard { prev }
}

// ------------------------------------------------------- thread-local lane

struct ThreadCtx {
    generation: u64,
    recorder: Weak<Recorder>,
    lane: Arc<Lane>,
    span_stack: Vec<u64>,
}

/// Thread-local slot whose drop (at thread exit) flushes and recycles the
/// lane.
struct ThreadSlot(Option<ThreadCtx>);

impl Drop for ThreadSlot {
    fn drop(&mut self) {
        if let Some(ctx) = self.0.take() {
            if let Some(rec) = ctx.recorder.upgrade() {
                rec.retire_lane(&ctx.lane);
            }
        }
    }
}

thread_local! {
    static TL: RefCell<ThreadSlot> = const { RefCell::new(ThreadSlot(None)) };
}

/// Run `f` with the current recorder and this thread's lane context,
/// (re)acquiring a lane if the installed recorder changed since last use.
/// Returns `None` when no recorder is installed.
fn with_ctx<R>(f: impl FnOnce(&Arc<Recorder>, &mut ThreadCtx) -> R) -> Option<R> {
    TL.with(|slot| {
        let mut slot = slot.borrow_mut();
        let generation = GENERATION.load(Ordering::Acquire);
        let stale = match &slot.0 {
            Some(ctx) => ctx.generation != generation,
            None => true,
        };
        if stale {
            if let Some(old) = slot.0.take() {
                if let Some(rec) = old.recorder.upgrade() {
                    rec.retire_lane(&old.lane);
                }
            }
            let rec = GLOBAL.lock().clone()?;
            let lane = rec.acquire_lane();
            slot.0 = Some(ThreadCtx {
                generation,
                recorder: Arc::downgrade(&rec),
                lane,
                span_stack: Vec::new(),
            });
        }
        let ctx = slot.0.as_mut().expect("ctx just ensured");
        let rec = ctx.recorder.upgrade()?;
        Some(f(&rec, ctx))
    })
}

// ------------------------------------------------------------ explicit API

/// RAII handle for an open span; records the end event on drop. Must be
/// dropped on the thread that created it.
pub struct SpanHandle(Option<ActiveSpan>);

struct ActiveSpan {
    id: u64,
    generation: u64,
    layer: &'static str,
    name: &'static str,
}

impl Drop for SpanHandle {
    #[inline]
    fn drop(&mut self) {
        if let Some(active) = self.0.take() {
            close_span(active);
        }
    }
}

/// Push one event stamped with this thread's lane and dimension.
fn push(
    rec: &Recorder,
    ctx: &ThreadCtx,
    layer: &'static str,
    name: &'static str,
    ts: u64,
    kind: EventKind,
) {
    ctx.lane.push(
        Event {
            layer,
            name,
            ts,
            lane: ctx.lane.id,
            dim: current_dim(),
            kind,
        },
        &rec.sink,
    );
}

#[inline(never)]
fn close_span(active: ActiveSpan) {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    with_ctx(|rec, ctx| {
        if ctx.generation != active.generation {
            return;
        }
        if let Some(pos) = ctx.span_stack.iter().rposition(|&s| s == active.id) {
            ctx.span_stack.truncate(pos);
        }
        let kind = EventKind::SpanEnd { id: active.id };
        push(rec, ctx, active.layer, active.name, rec.now(), kind);
    });
}

#[inline(never)]
fn open_span(layer: &'static str, name: &'static str, arg: u64) -> SpanHandle {
    SpanHandle(with_ctx(|rec, ctx| {
        let id = rec.next_span.fetch_add(1, Ordering::Relaxed) + 1;
        let parent = ctx.span_stack.last().copied().unwrap_or(0);
        ctx.span_stack.push(id);
        let kind = EventKind::SpanBegin { id, parent, arg };
        push(rec, ctx, layer, name, rec.now(), kind);
        ActiveSpan {
            id,
            generation: ctx.generation,
            layer,
            name,
        }
    }))
}

#[inline(never)]
fn record(layer: &'static str, name: &'static str, kind: EventKind) {
    with_ctx(|rec, ctx| push(rec, ctx, layer, name, rec.now(), kind));
}

#[inline(never)]
fn record_instant(layer: &'static str, name: &'static str, arg: u64) {
    with_ctx(|rec, ctx| {
        let id = rec.next_span.fetch_add(1, Ordering::Relaxed) + 1;
        let parent = ctx.span_stack.last().copied().unwrap_or(0);
        let ts = rec.now();
        let begin = EventKind::SpanBegin { id, parent, arg };
        push(rec, ctx, layer, name, ts, begin);
        push(rec, ctx, layer, name, ts, EventKind::SpanEnd { id });
    });
}

/// Open a span. Nests under the thread's innermost open span. Returns a
/// recording handle, or a no-op handle when no recorder is installed.
#[inline]
pub fn enter_span(layer: &'static str, name: &'static str, arg: u64) -> SpanHandle {
    if !ARMED.load(Ordering::Relaxed) {
        return SpanHandle(None);
    }
    open_span(layer, name, arg)
}

/// Add `delta` to the counter `(layer, name)`.
#[inline]
pub fn add_count(layer: &'static str, name: &'static str, delta: u64) {
    if ARMED.load(Ordering::Relaxed) {
        record(layer, name, EventKind::Count { delta });
    }
}

/// Record `value` into the histogram `(layer, name)`.
#[inline]
pub fn observe(layer: &'static str, name: &'static str, value: u64) {
    if ARMED.load(Ordering::Relaxed) {
        record(layer, name, EventKind::Observe { value });
    }
}

/// Record a zero-duration span (an instantaneous occurrence — e.g. a fault
/// firing — tagged with the active span as its parent).
#[inline]
pub fn instant(layer: &'static str, name: &'static str, arg: u64) {
    if ARMED.load(Ordering::Relaxed) {
        record_instant(layer, name, arg);
    }
}

// ----------------------------------------------------------------- macros

/// Open a span: `span!("layer", "name")` or `span!("layer", "name", arg)`.
/// Bind the result (`let _span = span!(…)`) — the span closes when the
/// handle drops.
#[macro_export]
macro_rules! span {
    ($layer:expr, $name:expr) => {
        $crate::enter_span($layer, $name, 0)
    };
    ($layer:expr, $name:expr, $arg:expr) => {
        $crate::enter_span($layer, $name, $arg as u64)
    };
}

/// Add to a counter: `count!("layer", "name", delta)`.
#[macro_export]
macro_rules! count {
    ($layer:expr, $name:expr, $delta:expr) => {
        $crate::add_count($layer, $name, $delta as u64)
    };
}

/// Record a histogram observation: `observe!("layer", "name", value)`.
#[macro_export]
macro_rules! observe {
    ($layer:expr, $name:expr, $value:expr) => {
        $crate::observe($layer, $name, $value as u64)
    };
}

/// Record an instantaneous event: `instant!("layer", "name", arg)`.
#[macro_export]
macro_rules! instant {
    ($layer:expr, $name:expr, $arg:expr) => {
        $crate::instant($layer, $name, $arg as u64)
    };
}

// -------------------------------------------------------------- histogram

/// Number of log₂ buckets; covers the full `u64` range.
const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed log₂-bucketed histogram. Bucket 0 holds the value 0; bucket `b`
/// (b ≥ 1) holds values in `[2^(b-1), 2^b - 1]`. Merging is element-wise
/// addition, so it is associative and commutative and preserves counts
/// exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Bucket index for `value`. The top bucket (63) absorbs everything
    /// from `2^62` up.
    fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Inclusive upper bound of bucket `b`.
    fn bucket_bound(b: usize) -> u64 {
        if b == 0 {
            0
        } else if b >= 63 {
            u64::MAX
        } else {
            (1u64 << b) - 1
        }
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Merge another histogram into this one (element-wise; associative and
    /// commutative, exact count preservation).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observed values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean observed value (0 when empty).
    fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile (0 ≤ q ≤ 1).
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return Self::bucket_bound(b);
            }
        }
        u64::MAX
    }
}

// ------------------------------------------------------------------ trace

/// A completed span reconstructed from begin/end events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    /// Instrumented layer.
    pub layer: &'static str,
    /// Span name.
    pub name: &'static str,
    /// Caller-supplied argument.
    pub arg: u64,
    /// Span id (unique, never 0).
    pub id: u64,
    /// Parent span id, or 0 for roots.
    pub parent: u64,
    /// Lane (≈ thread) the span ran on.
    pub lane: u64,
    /// Start timestamp (µs for wall clock, 0 for logical).
    pub ts: u64,
    /// Duration (µs for wall clock, 0 for logical).
    pub dur: u64,
}

/// Everything a recorder collected, with its two exporters.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Clock mode the recorder ran with.
    pub clock: Clock,
    /// Raw events in drain order.
    pub events: Vec<Event>,
}

impl Trace {
    /// Completed spans (unmatched opens are dropped), sorted by start time
    /// then id.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut open: BTreeMap<u64, SpanRecord> = BTreeMap::new();
        let mut done = Vec::new();
        for ev in &self.events {
            match ev.kind {
                EventKind::SpanBegin { id, parent, arg } => {
                    open.insert(
                        id,
                        SpanRecord {
                            layer: ev.layer,
                            name: ev.name,
                            arg,
                            id,
                            parent,
                            lane: ev.lane,
                            ts: ev.ts,
                            dur: 0,
                        },
                    );
                }
                EventKind::SpanEnd { id } => {
                    if let Some(mut rec) = open.remove(&id) {
                        rec.dur = ev.ts.saturating_sub(rec.ts);
                        done.push(rec);
                    }
                }
                _ => {}
            }
        }
        done.sort_by_key(|s| (s.ts, s.id));
        done
    }

    /// Counter totals keyed by `(layer, name)`.
    pub fn counters(&self) -> BTreeMap<(&'static str, &'static str), u64> {
        let mut out = BTreeMap::new();
        for ev in &self.events {
            if let EventKind::Count { delta } = ev.kind {
                *out.entry((ev.layer, ev.name)).or_insert(0u64) += delta;
            }
        }
        out
    }

    /// Counter totals keyed by `(layer, name, dim)` — the per-campaign view
    /// of [`counters`](Self::counters). Events recorded outside any
    /// [`with_dim`] scope land under dim `0`; summing a counter across all
    /// dims reproduces the undimensioned total exactly.
    pub fn counters_by_dim(&self) -> BTreeMap<(&'static str, &'static str, u64), u64> {
        let mut out = BTreeMap::new();
        for ev in &self.events {
            if let EventKind::Count { delta } = ev.kind {
                *out.entry((ev.layer, ev.name, ev.dim)).or_insert(0u64) += delta;
            }
        }
        out
    }

    /// Histograms keyed by `(layer, name)`.
    fn histograms(&self) -> BTreeMap<(&'static str, &'static str), Histogram> {
        let mut out: BTreeMap<_, Histogram> = BTreeMap::new();
        for ev in &self.events {
            if let EventKind::Observe { value } = ev.kind {
                out.entry((ev.layer, ev.name)).or_default().record(value);
            }
        }
        out
    }

    /// The distinct layers that contributed at least one event.
    pub fn layers(&self) -> Vec<&'static str> {
        let set: std::collections::BTreeSet<_> = self.events.iter().map(|e| e.layer).collect();
        set.into_iter().collect()
    }

    /// Chrome trace-event JSON (open in Perfetto or `chrome://tracing`).
    ///
    /// Wall clock: every completed span becomes an `"X"` (complete) event
    /// with its real timestamp, duration, and lane as `tid`; span ids and
    /// parent ids ride in `args`.
    ///
    /// Logical clock: only completed spans are exported, canonically sorted
    /// by `(layer, name, arg)` with `ts` rewritten to the sort index and
    /// `dur` fixed at 1 — two runs doing the same logical work produce
    /// byte-identical output (see the crate docs).
    pub fn chrome_json(&self) -> String {
        let mut spans = self.spans();
        let mut out = String::from("{\"traceEvents\":[\n");
        match self.clock {
            Clock::Wall => {
                for (i, s) in spans.iter().enumerate() {
                    let _ = write!(
                        out,
                        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"arg\":{},\"id\":{},\"parent\":{}}}}}",
                        json::escape(s.name),
                        json::escape(s.layer),
                        s.lane,
                        s.ts,
                        s.dur,
                        s.arg,
                        s.id,
                        s.parent
                    );
                    out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
                }
            }
            Clock::Logical => {
                spans.sort_by_key(|s| (s.layer, s.name, s.arg));
                for (i, s) in spans.iter().enumerate() {
                    let _ = write!(
                        out,
                        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":{},\"dur\":1,\"args\":{{\"arg\":{}}}}}",
                        json::escape(s.name),
                        json::escape(s.layer),
                        i,
                        s.arg
                    );
                    out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
                }
            }
        }
        out.push_str("]}\n");
        out
    }

    /// Human-readable per-phase summary: span totals per `(layer, name)`,
    /// then counters, then histograms.
    pub fn summary_table(&self) -> String {
        let spans = self.spans();
        let counters = self.counters();
        let histograms = self.histograms();
        if spans.is_empty() && counters.is_empty() && histograms.is_empty() {
            return "telemetry summary: no events recorded\n".to_string();
        }
        let mut out = String::from("telemetry summary\n");
        if !spans.is_empty() {
            let mut agg: BTreeMap<(&str, &str), (u64, u64, u64)> = BTreeMap::new();
            for s in &spans {
                let e = agg.entry((s.layer, s.name)).or_insert((0, 0, 0));
                e.0 += 1;
                e.1 += s.dur;
                e.2 = e.2.max(s.dur);
            }
            let _ = writeln!(
                out,
                "  {:<14} {:<24} {:>8} {:>12} {:>10} {:>10}",
                "layer", "span", "count", "total µs", "mean µs", "max µs"
            );
            for ((layer, name), (count, total, max)) in agg {
                let _ = writeln!(
                    out,
                    "  {:<14} {:<24} {:>8} {:>12} {:>10.1} {:>10}",
                    layer,
                    name,
                    count,
                    total,
                    total as f64 / count as f64,
                    max
                );
            }
        }
        if !counters.is_empty() {
            let _ = writeln!(out, "  {:<14} {:<24} {:>8}", "layer", "counter", "total");
            for ((layer, name), total) in counters {
                let _ = writeln!(out, "  {:<14} {:<24} {:>8}", layer, name, total);
            }
        }
        if !histograms.is_empty() {
            let _ = writeln!(
                out,
                "  {:<14} {:<24} {:>8} {:>12} {:>10} {:>10}",
                "layer", "histogram", "count", "mean", "p50 ≤", "p95 ≤"
            );
            for ((layer, name), h) in histograms {
                let _ = writeln!(
                    out,
                    "  {:<14} {:<24} {:>8} {:>12.1} {:>10} {:>10}",
                    layer,
                    name,
                    h.count(),
                    h.mean(),
                    h.quantile_bound(0.5),
                    h.quantile_bound(0.95)
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Tests that install the process-global recorder must not overlap.
    static INSTALL_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn histogram_buckets_and_bounds() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 1000, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1_001_006);
        assert!(h.quantile_bound(0.5) <= 3);
        assert!(h.quantile_bound(1.0) >= 1_000_000);
    }

    #[test]
    fn explicit_api_records_spans_counters_histograms() {
        let _serial = INSTALL_LOCK.lock();
        let guard = install(Arc::new(Recorder::new(Clock::Wall)));
        {
            let _outer = enter_span("test", "outer", 1);
            {
                let _inner = enter_span("test", "inner", 2);
                add_count("test", "widgets", 5);
                observe("test", "latency", 40);
            }
            instant("test", "blip", 9);
        }
        let trace = guard.finish();
        let spans = trace.spans();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let blip = spans.iter().find(|s| s.name == "blip").unwrap();
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id, "inner must nest under outer");
        assert_eq!(blip.parent, outer.id, "instants tag the active span");
        assert_eq!(trace.counters()[&("test", "widgets")], 5);
        assert_eq!(trace.histograms()[&("test", "latency")].count(), 1);
        assert_eq!(trace.layers(), vec!["test"]);
    }

    #[test]
    fn dim_scopes_slice_counters_per_campaign() {
        let _serial = INSTALL_LOCK.lock();
        let guard = install(Arc::new(Recorder::new(Clock::Wall)));
        assert_eq!(current_dim(), 0);
        add_count("service", "files", 1); // unscoped → dim 0
        {
            let _c1 = with_dim(1);
            assert_eq!(current_dim(), 1);
            add_count("service", "files", 10);
            {
                // Nested scopes shadow and then restore the outer dim.
                let _c2 = with_dim(2);
                add_count("service", "files", 100);
            }
            assert_eq!(current_dim(), 1);
            add_count("service", "files", 10);
        }
        assert_eq!(current_dim(), 0, "guard drop restores the previous dim");

        // Dims are thread-local: a worker thread scopes independently.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _c3 = with_dim(3);
                add_count("service", "files", 1000);
            });
        });

        let trace = guard.finish();
        let by_dim = trace.counters_by_dim();
        assert_eq!(by_dim[&("service", "files", 0)], 1);
        assert_eq!(by_dim[&("service", "files", 1)], 20);
        assert_eq!(by_dim[&("service", "files", 2)], 100);
        assert_eq!(by_dim[&("service", "files", 3)], 1000);
        // The undimensioned view is exactly the sum over dims.
        assert_eq!(trace.counters()[&("service", "files")], 1121);
    }

    #[test]
    fn ring_overflow_loses_nothing_across_threads() {
        let _serial = INSTALL_LOCK.lock();
        let guard = install(Arc::new(Recorder::new(Clock::Wall)));
        const THREADS: usize = 4;
        const PER_THREAD: usize = 3 * LANE_CAP; // force producer-side spills
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for _ in 0..PER_THREAD {
                        add_count("test", "events", 1);
                    }
                });
            }
        });
        let trace = guard.finish();
        assert_eq!(
            trace.counters()[&("test", "events")],
            (THREADS * PER_THREAD) as u64,
            "every event must survive ring overflow"
        );
    }

    #[test]
    fn lanes_are_recycled_across_short_lived_threads() {
        let _serial = INSTALL_LOCK.lock();
        let recorder = Arc::new(Recorder::new(Clock::Wall));
        let guard = install(Arc::clone(&recorder));
        for _ in 0..32 {
            std::thread::spawn(|| add_count("test", "thread", 1))
                .join()
                .unwrap();
        }
        let lanes = recorder.lanes.lock().len();
        assert!(
            lanes < 8,
            "sequential short-lived threads must reuse lanes, got {lanes}"
        );
        let trace = guard.finish();
        assert_eq!(trace.counters()[&("test", "thread")], 32);
    }

    #[test]
    fn nothing_records_when_uninstalled() {
        let _serial = INSTALL_LOCK.lock();
        {
            let _span = enter_span("test", "ignored", 0);
            add_count("test", "ignored", 1);
        }
        let guard = install(Arc::new(Recorder::new(Clock::Wall)));
        let trace = guard.finish();
        assert!(trace.events.is_empty());
    }

    #[test]
    fn chrome_wall_export_round_trips_with_nesting() {
        let _serial = INSTALL_LOCK.lock();
        let guard = install(Arc::new(Recorder::new(Clock::Wall)));
        std::thread::scope(|scope| {
            for t in 0..3u64 {
                scope.spawn(move || {
                    let _outer = enter_span("test", "outer", t);
                    for i in 0..4u64 {
                        let _inner = enter_span("test", "inner", i);
                        std::hint::black_box(i);
                    }
                });
            }
        });
        let trace = guard.finish();
        let text = trace.chrome_json();
        let doc = json::parse(&text).expect("exported trace must be valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(json::Value::as_arr)
            .expect("traceEvents array");
        assert_eq!(events.len(), 15, "3 outer + 12 inner spans");
        // Index spans by id, then check the nesting invariants: a child
        // lies within its parent's [ts, ts+dur] on the same tid.
        let mut by_id = std::collections::BTreeMap::new();
        for ev in events {
            assert_eq!(ev.get("ph").and_then(json::Value::as_str), Some("X"));
            let id = ev.get("args").unwrap().get("id").unwrap().as_u64().unwrap();
            by_id.insert(id, ev);
        }
        let mut nested = 0;
        for ev in events {
            let args = ev.get("args").unwrap();
            let parent = args.get("parent").unwrap().as_u64().unwrap();
            if parent == 0 {
                continue;
            }
            nested += 1;
            let p = by_id[&parent];
            let (ts, dur) = (
                ev.get("ts").unwrap().as_u64().unwrap(),
                ev.get("dur").unwrap().as_u64().unwrap(),
            );
            let (pts, pdur) = (
                p.get("ts").unwrap().as_u64().unwrap(),
                p.get("dur").unwrap().as_u64().unwrap(),
            );
            assert_eq!(ev.get("tid"), p.get("tid"), "child on parent's thread");
            assert!(ts >= pts, "child starts after parent");
            assert!(ts + dur <= pts + pdur, "child ends before parent");
        }
        assert_eq!(nested, 12);
    }

    #[test]
    fn logical_clock_export_is_byte_identical() {
        let _serial = INSTALL_LOCK.lock();
        let run = || {
            let guard = install(Arc::new(Recorder::new(Clock::Logical)));
            // Interleave from threads so drain order differs run to run.
            std::thread::scope(|scope| {
                for t in 0..4u64 {
                    scope.spawn(move || {
                        for i in 0..20u64 {
                            let _s = enter_span("test", "step", i * 10 + t);
                        }
                    });
                }
            });
            guard.finish().chrome_json()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "logical-clock exports must be byte-identical");
        assert!(json::parse(&a).is_ok());
    }

    #[test]
    fn summary_table_renders_all_sections() {
        let _serial = INSTALL_LOCK.lock();
        let guard = install(Arc::new(Recorder::new(Clock::Wall)));
        {
            let _s = enter_span("runner", "in_situ_step", 4);
            add_count("comm", "bytes_sent", 1024);
            observe("simhpc", "queue_wait_seconds", 30);
        }
        let trace = guard.finish();
        let table = trace.summary_table();
        for needle in ["telemetry summary", "in_situ_step", "bytes_sent", "p95"] {
            assert!(table.contains(needle), "summary missing {needle}:\n{table}");
        }
        let empty = Trace {
            clock: Clock::Wall,
            events: vec![],
        };
        assert!(empty.summary_table().contains("no events"));
    }

    fn arb_histogram() -> impl Strategy<Value = Histogram> {
        proptest::collection::vec(0u64..1_000_000, 0..50).prop_map(|vals| {
            let mut h = Histogram::new();
            for v in vals {
                h.record(v);
            }
            h
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn histogram_merge_is_commutative(a in arb_histogram(), b in arb_histogram()) {
            let mut ab = a;
            ab.merge(&b);
            let mut ba = b;
            ba.merge(&a);
            prop_assert_eq!(ab, ba);
        }

        #[test]
        fn histogram_merge_is_associative(
            a in arb_histogram(), b in arb_histogram(), c in arb_histogram()
        ) {
            let mut left = a;
            left.merge(&b);
            left.merge(&c);
            let mut bc = b;
            bc.merge(&c);
            let mut right = a;
            right.merge(&bc);
            prop_assert_eq!(left, right);
        }

        #[test]
        fn histogram_merge_preserves_counts_exactly(
            a in arb_histogram(), b in arb_histogram()
        ) {
            let mut merged = a;
            merged.merge(&b);
            prop_assert_eq!(merged.count(), a.count() + b.count());
            let total: u64 = merged.buckets.iter().sum();
            prop_assert_eq!(total, merged.count());
        }
    }

    #[test]
    fn macros_record_iff_a_recorder_is_installed() {
        let _serial = INSTALL_LOCK.lock();
        let fire = || {
            let _s = span!("test", "macro_span", 1);
            count!("test", "macro_count", 2);
            observe!("test", "macro_observe", 3);
            instant!("test", "macro_instant", 4);
        };
        fire(); // nothing installed: nothing may reach the next recorder
        let guard = install(Arc::new(Recorder::new(Clock::Wall)));
        fire();
        let trace = guard.finish();
        assert_eq!(trace.spans().len(), 2);
        assert_eq!(trace.counters()[&("test", "macro_count")], 2);
        assert_eq!(trace.histograms()[&("test", "macro_observe")].count(), 1);
    }
}
