//! Harness-local span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around its calls into
//! each layer's public functions; spans inside the program are a later
//! change. Everything stays in memory until the run ends, when the spans
//! are written as Chrome trace-event JSON.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Handle of a recorded span (its index in recording order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub usize);

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What ran (a function or phase name).
    pub name: String,
    /// The layer (crate/module) the time belongs to.
    pub layer: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created (`start_ns` until ended).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Iteration the span belongs to; spans of one iteration share it.
    pub iteration: u32,
    /// Recording thread, numbered in order of first appearance.
    pub tid: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Layer of the root span a traced iteration runs under, and of any span
/// that only groups others (a phase of the harness's own loop). Self time
/// left on such spans belongs to no layer: it is the unattributed part.
pub const ROOT_LAYER: &str = "harness";

/// Thread-safe in-memory span recorder. Parents are passed explicitly so
/// rank threads can hang their spans under the span that started them.
pub struct Tracer {
    t0: Instant,
    state: Mutex<(Vec<Span>, Vec<std::thread::ThreadId>)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            state: Mutex::new((Vec::new(), Vec::new())),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent`.
    pub fn begin(
        &self,
        parent: Option<SpanId>,
        layer: &'static str,
        name: &str,
        iteration: u32,
    ) -> SpanId {
        let me = std::thread::current().id();
        let now = self.now_ns();
        let mut st = self.state.lock().expect("tracer poisoned");
        let tid = match st.1.iter().position(|t| *t == me) {
            Some(i) => i,
            None => {
                st.1.push(me);
                st.1.len() - 1
            }
        } as u32;
        st.0.push(Span {
            name: name.to_string(),
            layer,
            start_ns: now,
            end_ns: now,
            parent: parent.map(|p| p.0),
            iteration,
            tid,
        });
        SpanId(st.0.len() - 1)
    }

    /// Close a span.
    pub fn end(&self, id: SpanId) {
        let now = self.now_ns();
        self.state.lock().expect("tracer poisoned").0[id.0].end_ns = now;
    }

    /// Run `f` inside a span under `parent`; `f` receives the new span's id
    /// to parent its own children. The span inherits `parent`'s iteration.
    pub fn scope<R>(
        &self,
        parent: SpanId,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let iteration = self.state.lock().expect("tracer poisoned").0[parent.0].iteration;
        let id = self.begin(Some(parent), layer, name, iteration);
        let out = f(id);
        self.end(id);
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.state.lock().expect("tracer poisoned").0.clone()
    }
}

/// Self time of every span in nanoseconds: its duration minus the part of
/// its interval that its direct children cover. Children may overlap one
/// another (two ranks running side by side) — the covered part is the union
/// of their intervals, clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self seconds summed per layer.
pub fn layer_self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.layer).or_insert(0.0) += ns as f64 * 1e-9;
    }
    out
}

/// Where one traced iteration's wall time went.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// Wall seconds of the root span.
    pub wall_s: f64,
    /// Self seconds of the [`ROOT_LAYER`] spans: time under no layer's span.
    pub unattributed_s: f64,
}

impl Attribution {
    /// Attributed share of the wall time.
    pub fn coverage(&self) -> f64 {
        if self.wall_s > 0.0 {
            1.0 - self.unattributed_s / self.wall_s
        } else {
            0.0
        }
    }
}

/// Attribution of one traced iteration: `spans` is everything a tracer
/// recorded, its first span the iteration's root.
pub fn attribution(spans: &[Span]) -> Attribution {
    Attribution {
        wall_s: spans
            .first()
            .map_or(0.0, |root| root.dur_ns() as f64 * 1e-9),
        unattributed_s: layer_self_seconds(spans)
            .get(ROOT_LAYER)
            .copied()
            .unwrap_or(0.0),
    }
}

/// The spans as Chrome trace-event JSON (`chrome://tracing`, Perfetto).
pub fn chrome_trace_json(workload: &str, spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"iteration\":{},\"workload\":\"{}\"}}}}",
            telemetry::json::escape(&s.name),
            s.layer,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.tid,
            i,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.iteration,
            workload,
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: layer.to_string(),
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            iteration: 0,
            tid: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        let spans = vec![
            span(ROOT_LAYER, 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 90, Some(0)),
            span("c", 55, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 35, 5]);
        let a = attribution(&spans);
        assert!((a.coverage() - 0.6).abs() < 1e-12);
        assert!((a.unattributed_s - 40e-9).abs() < 1e-18);
        // A grouping span of the harness's own adds its self time to the
        // unattributed part, not to a layer.
        let mut grouped = spans.clone();
        grouped[2].layer = ROOT_LAYER;
        let a = attribution(&grouped);
        assert!((a.unattributed_s - 75e-9).abs() < 1e-18);
    }

    #[test]
    fn overlapping_children_cover_their_union_once() {
        // Two ranks side by side, one outliving the parent's interval.
        let spans = vec![
            span(ROOT_LAYER, 0, 100, None),
            span("rank", 10, 60, Some(0)),
            span("rank", 20, 80, Some(0)),
            span("rank", 70, 130, Some(0)),
            span("rank", 25, 30, Some(0)),
        ];
        // Union clipped to the parent: [10, 100) → 90 covered.
        assert_eq!(self_times_ns(&spans)[0], 10);
        let layers = layer_self_seconds(&spans);
        assert!((layers["rank"] - (50 + 60 + 60 + 5) as f64 * 1e-9).abs() < 1e-15);
    }

    #[test]
    fn scope_nests_and_inherits_the_iteration() {
        let t = Tracer::new();
        let root = t.begin(None, ROOT_LAYER, "iteration", 7);
        let inner = t.scope(root, "cache", "insert", |id| {
            t.scope(id, "cache", "digest", |leaf| leaf)
        });
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[inner.0].parent, Some(1));
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.iteration == 7));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }

    #[test]
    fn chrome_trace_parses_back() {
        let spans = vec![
            span(ROOT_LAYER, 0, 2_000, None),
            span("genio", 500, 1_500, Some(0)),
        ];
        let text = chrome_trace_json("posthoc", &spans);
        let v = telemetry::json::parse(&text).expect("valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("events");
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("cat").and_then(|c| c.as_str()), Some("genio"));
        assert_eq!(events[1].get("dur").and_then(|d| d.as_f64()), Some(1.0));
        let parent = events[1].get("args").and_then(|a| a.get("parent"));
        assert_eq!(parent.and_then(|p| p.as_u64()), Some(0));
    }
}
