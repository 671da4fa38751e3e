//! The six workloads and what they share: parameters, the result ledger, and
//! the set-up / warm-up / timed-loop skeleton.

pub mod cosched;
pub mod insitu_render;
pub mod posthoc;
pub mod service;
pub mod store_rw;
pub mod sweep;
mod testbed;

use crate::host::Scratch;
use crate::metrics;
use crate::stats;
use crate::trace::{Span, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20150715;
/// Timed seconds when `--seconds` is not given: what the driver passes.
pub const DEFAULT_SECONDS: f64 = metrics::RUN_SECONDS as f64;

/// What one workload run is asked to do.
#[derive(Debug, Clone)]
pub struct Params {
    /// Every input is a pure function of this.
    pub seed: u64,
    /// Wall seconds the timed iterations should fill.
    pub seconds: f64,
    /// Also probe the layers and run one traced iteration.
    pub trace: bool,
    /// Small fixtures and a single timed iteration (smoke run).
    pub quick: bool,
    /// Corrupt the expectation outputs are checked against, so every check
    /// must fail: proves the checks can fail.
    pub corrupt: bool,
}

impl Params {
    /// A single pass: one set-up, one timed iteration.
    pub fn single_pass(&self) -> bool {
        self.quick || self.trace
    }
}

/// A reported number with the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// The value (a median when `n > 1`).
    pub value: f64,
    /// Samples the value summarises.
    pub n: usize,
    /// First quartile of the samples.
    pub q1: f64,
    /// Third quartile of the samples.
    pub q3: f64,
}

impl Sample {
    /// A single measured value.
    pub fn one(value: f64) -> Sample {
        Sample {
            value,
            n: 1,
            q1: value,
            q3: value,
        }
    }

    /// Median and quartiles of `samples`.
    pub fn of(samples: &[f64]) -> Sample {
        let [q1, value, q3] = stats::quartiles(samples);
        Sample {
            value,
            n: samples.len(),
            q1,
            q3,
        }
    }

    /// Quartiles of `samples` around a `value` that is not their median.
    pub fn around(value: f64, samples: &[f64]) -> Sample {
        Sample {
            value,
            ..Sample::of(samples)
        }
    }
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
    /// Fixture build times.
    pub setup_s: Vec<f64>,
    /// Wall seconds of each timed iteration.
    pub iter_s: Vec<f64>,
    /// Native and per-layer metrics by name.
    pub metrics: BTreeMap<&'static str, Sample>,
    /// Spans of the traced iteration.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Record one checked operation.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Record a single-valued metric. Panics on a name the dictionary does
    /// not declare — names must not drift from `BENCHMARK.json`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.put(name, Sample::one(value));
    }

    /// Record a metric as the median of `samples`.
    pub fn set_samples(&mut self, name: &'static str, samples: &[f64]) {
        self.put(name, Sample::of(samples));
    }

    fn put(&mut self, name: &'static str, sample: Sample) {
        assert!(
            metrics::find(name).is_some(),
            "metric {name} is not in the dictionary"
        );
        self.metrics.insert(name, sample);
    }

    /// Record one timed iteration's wall seconds.
    pub fn iteration(&mut self, wall_s: f64) {
        self.iter_s.push(wall_s);
    }

    /// `time_to_solution_s`: the fastest tenth of the timed iterations
    /// (nearest-rank 10th percentile; the fastest one of fewer than eleven),
    /// with the quartiles of all of them.
    ///
    /// Every iteration does the same work, so what differs between them is
    /// the host: this VM's cores switch between two speeds 28% apart every
    /// few seconds to a minute, and its neighbours take a core or the disk
    /// away for longer. Disturbance only ever adds time. The median
    /// iteration jumps between the two speeds with the share of the run
    /// spent slow and the mean carries every disturbance in full; the
    /// fastest tenth is what the program takes when left alone (README,
    /// "What this host can resolve", has the three side by side).
    pub fn time_to_solution_s(&self) -> Sample {
        Sample::around(stats::percentile(&self.iter_s, 10.0), &self.iter_s)
    }
}

/// Build the fixture `reps` times (once in a single pass), timing each
/// build, so `setup_s` is a median; keeps the last fixture.
pub fn timed_setup<F>(
    p: &Params,
    out: &mut Outcome,
    reps: usize,
    mut build: impl FnMut() -> F,
) -> F {
    let mut fixture = None;
    for _ in 0..if p.single_pass() { 1 } else { reps } {
        drop(fixture.take());
        let t = Instant::now();
        fixture = Some(build());
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    fixture.expect("at least one set-up")
}

/// Run `iteration` until `budget_share` of `p.seconds` has passed — at
/// least `min_iters` times (once in a single pass).
pub fn timed_loop(p: &Params, budget_share: f64, min_iters: usize, mut iteration: impl FnMut()) {
    let (min_iters, budget) = if p.single_pass() {
        (1, 0.0)
    } else {
        (min_iters, p.seconds * budget_share)
    };
    let start = Instant::now();
    let mut done = 0;
    while done < min_iters || start.elapsed().as_secs_f64() < budget {
        iteration();
        done += 1;
    }
}

/// Time `f` `reps` times after one untimed call; the samples in `scale`
/// units per second (1e3 → ms).
pub fn probe<R>(reps: usize, scale: f64, mut f: impl FnMut() -> R) -> Vec<f64> {
    probe_with(reps, scale, || (), |()| f())
}

/// Like [`probe`], with an untimed `prep` building each call's input.
pub fn probe_with<I, R>(
    reps: usize,
    scale: f64,
    mut prep: impl FnMut() -> I,
    mut f: impl FnMut(I) -> R,
) -> Vec<f64> {
    std::hint::black_box(f(prep()));
    (0..reps)
        .map(|_| {
            let input = prep();
            let t = Instant::now();
            std::hint::black_box(f(input));
            t.elapsed().as_secs_f64() * scale
        })
        .collect()
}

/// Finish a traced iteration: fold the tracer's spans and their attribution
/// into `out`. `untraced_s` is the wall of the same iteration without spans.
pub fn record_trace(out: &mut Outcome, tracer: &Tracer, untraced_s: f64) {
    let spans = tracer.spans();
    let a = crate::trace::attribution(&spans);
    out.set("trace.coverage", a.coverage());
    out.set("trace.unattributed_s", a.unattributed_s);
    out.set("trace.overhead_frac", a.wall_s / untraced_s - 1.0);
    out.spans = spans;
}

/// Run workload `name`.
pub fn run(name: &str, p: &Params, scratch: &Scratch) -> Option<Outcome> {
    Some(match name {
        "cosched" => cosched::run(p, scratch),
        "posthoc" => posthoc::run(p, scratch),
        "insitu_render" => insitu_render::run(p, scratch),
        "service" => service::run(p, scratch),
        "store_rw" => store_rw::run(p, scratch),
        "sweep" => sweep::run(p),
        _ => return None,
    })
}

/// splitmix64: the harness's seeded generator for payloads and campaign
/// lists (a pure function of its state, no dependency on the product's rng).
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}
