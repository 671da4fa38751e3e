//! Differential executor: both `dpp` primitives, every backend, byte-level
//! agreement under the documented total-order semantics — and the report,
//! comparison modes and backend roster the kernel batteries ([`crate::layout`],
//! [`crate::render`]) share.
//!
//! The [`Serial`] backend is the reference. Each op family runs over the
//! adversarial `f64` corpus from [`crate::inputs`] on:
//!
//! * `threaded-4` — [`Threaded`] with 4 workers (dynamic self-scheduling),
//! * `threaded-1` — [`Threaded`] degenerate single-worker pool,
//! * `threaded-pool-shared-a/b` — two [`Threaded`] adapters sharing one
//!   [`ThreadPool`] (pool reuse must not perturb results),
//! * `static-3` — [`StaticThreaded`] (one static block per worker).
//!
//! ## Agreement classes
//!
//! `map` and `argmin_by` must agree **bit-for-bit** ([`Cmp::BitEq`]) on every
//! backend: `map` writes each element independently, and `argmin_by` orders
//! NaN last and breaks ties by index, so neither depends on how `0..n` was
//! chunked. The weaker classes exist for the kernel batteries:
//!
//! * a transform held to a reference that rounds differently by design
//!   agrees within tolerance ([`Cmp::Approx`]), with NaN treated as a single
//!   class;
//! * NaN *payloads* produced by arithmetic (`NaN + x`) are compared as a
//!   class ([`Cmp::NumEq`]) where association order is allowed to differ.

use crate::inputs;
use dpp::{ops, Backend, Serial, StaticThreaded, ThreadPool, Threaded};
use std::collections::{BTreeMap, BTreeSet};

/// How strictly two float results must agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// Identical bit patterns, NaN payloads included.
    BitEq,
    /// Identical bit patterns, except any NaN equals any NaN.
    NumEq,
    /// NaN ≡ NaN, otherwise equal or within 1e-9 relative error.
    Approx,
}

fn f64_agrees(mode: Cmp, a: f64, b: f64) -> bool {
    match mode {
        Cmp::BitEq => a.to_bits() == b.to_bits(),
        Cmp::NumEq => (a.is_nan() && b.is_nan()) || a.to_bits() == b.to_bits(),
        Cmp::Approx => {
            if a.is_nan() || b.is_nan() {
                a.is_nan() && b.is_nan()
            } else if a.is_infinite() || b.is_infinite() {
                // Same-signed infinity only: `inf - (-inf) <= tol * inf`
                // would otherwise be vacuously true.
                a == b
            } else if a == b {
                true
            } else {
                (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
            }
        }
    }
}

/// One backend-vs-reference mismatch.
#[derive(Debug, Clone)]
pub struct Disagreement {
    /// Op family (`map` or `minmax`).
    pub op: &'static str,
    /// Which op variant and corpus case.
    pub case: String,
    /// Backend that disagreed with `Serial`.
    pub backend: String,
    /// Human-readable description of the first mismatch.
    pub detail: String,
}

/// Outcome of a full differential run.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Op families that actually executed.
    pub ops_covered: BTreeSet<&'static str>,
    /// Backend names compared against the `Serial` reference.
    pub backends: Vec<String>,
    /// Total number of (op, case, backend) comparisons performed.
    pub checks: usize,
    /// Comparisons per op family — the layout differential's per-kernel
    /// coverage floor reads this.
    pub checks_by_op: BTreeMap<&'static str, usize>,
    /// Every observed mismatch.
    pub disagreements: Vec<Disagreement>,
}

/// The op families the tentpole requires the executor to cover.
const REQUIRED_OPS: [&str; 2] = ["map", "minmax"];

impl DiffReport {
    /// Render all disagreements for a failure message.
    pub fn render(&self) -> String {
        let mut out = format!(
            "differential executor: {} disagreement(s) across {} checks\n",
            self.disagreements.len(),
            self.checks
        );
        for d in &self.disagreements {
            out.push_str(&format!(
                "  [{}] case `{}` backend `{}`: {}\n",
                d.op, d.case, d.backend, d.detail
            ));
        }
        out
    }

    /// Panic unless every required op family ran and no backend disagreed.
    pub fn assert_clean_and_covering(&self, required: &[&str]) {
        for op in required {
            assert!(
                self.ops_covered.contains(op),
                "differential executor never exercised op family `{op}` \
                 (covered: {:?})",
                self.ops_covered
            );
        }
        assert!(self.disagreements.is_empty(), "{}", self.render());
    }

    pub(crate) fn op(&mut self, name: &'static str) {
        self.ops_covered.insert(name);
    }

    pub(crate) fn check_f64_slice(
        &mut self,
        mode: Cmp,
        op: &'static str,
        case: &str,
        backend: &str,
        expect: &[f64],
        got: &[f64],
    ) {
        self.checks += 1;
        *self.checks_by_op.entry(op).or_default() += 1;
        if expect.len() != got.len() {
            self.disagreements.push(Disagreement {
                op,
                case: case.to_string(),
                backend: backend.to_string(),
                detail: format!("length {} vs reference {}", got.len(), expect.len()),
            });
            return;
        }
        for (i, (e, g)) in expect.iter().zip(got).enumerate() {
            if !f64_agrees(mode, *e, *g) {
                self.disagreements.push(Disagreement {
                    op,
                    case: case.to_string(),
                    backend: backend.to_string(),
                    detail: format!(
                        "index {i}: reference {e:?} ({:#018x}) vs {g:?} ({:#018x}) [{mode:?}]",
                        e.to_bits(),
                        g.to_bits()
                    ),
                });
                return;
            }
        }
    }

    pub(crate) fn check_f64_scalar(
        &mut self,
        mode: Cmp,
        op: &'static str,
        case: &str,
        backend: &str,
        expect: f64,
        got: f64,
    ) {
        self.check_f64_slice(mode, op, case, backend, &[expect], &[got]);
    }

    pub(crate) fn check_eq<T: PartialEq + std::fmt::Debug>(
        &mut self,
        op: &'static str,
        case: &str,
        backend: &str,
        expect: &T,
        got: &T,
    ) {
        self.checks += 1;
        *self.checks_by_op.entry(op).or_default() += 1;
        if expect != got {
            let mut detail = format!("reference {expect:?} vs {got:?}");
            if detail.len() > 300 {
                detail.truncate(300);
                detail.push('…');
            }
            self.disagreements.push(Disagreement {
                op,
                case: case.to_string(),
                backend: backend.to_string(),
                detail,
            });
        }
    }
}

/// The backend roster compared against `Serial`.
pub(crate) fn roster() -> Vec<(String, Box<dyn Backend>)> {
    let shared = ThreadPool::new(3);
    vec![
        (
            "threaded-4".into(),
            Box::new(Threaded::new(4)) as Box<dyn Backend>,
        ),
        ("threaded-1".into(), Box::new(Threaded::new(1))),
        (
            "threaded-pool-shared-a".into(),
            Box::new(Threaded::from_pool(shared.clone())),
        ),
        (
            "threaded-pool-shared-b".into(),
            Box::new(Threaded::from_pool(shared)),
        ),
        ("static-3".into(), Box::new(StaticThreaded::new(3))),
    ]
}

/// Run the full differential suite and collect every mismatch (rather than
/// failing fast — one run reports all drift at once).
fn run_dpp_differential() -> DiffReport {
    let mut rep = DiffReport::default();
    let backends = roster();
    rep.backends = backends.iter().map(|(n, _)| n.clone()).collect();

    let fcases = inputs::f64_cases();

    // --- minmax ---------------------------------------------------------
    rep.op("minmax");
    for case in &fcases {
        let amin_ref = ops::argmin_by(&Serial, &case.data, |x| *x);
        for (name, b) in &backends {
            rep.check_eq(
                "minmax",
                &format!("argmin/{}", case.name),
                name,
                &amin_ref,
                &ops::argmin_by(b.as_ref(), &case.data, |x| *x),
            );
        }
    }

    // --- map -------------------------------------------------------------
    rep.op("map");
    for case in &fcases {
        let m_ref = ops::map(&Serial, &case.data, |x| x * 2.0 + 1.0);
        for (name, b) in &backends {
            rep.check_f64_slice(
                Cmp::BitEq,
                "map",
                &format!("map/{}", case.name),
                name,
                &m_ref,
                &ops::map(b.as_ref(), &case.data, |x| x * 2.0 + 1.0),
            );
        }
    }

    rep
}

/// Convenience wrapper asserting a clean, fully covering run.
pub fn assert_dpp_conformance() -> DiffReport {
    let rep = run_dpp_differential();
    rep.assert_clean_and_covering(&REQUIRED_OPS);
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreement_modes() {
        assert!(f64_agrees(Cmp::BitEq, f64::NAN, f64::NAN));
        assert!(!f64_agrees(Cmp::BitEq, f64::NAN, -f64::NAN));
        assert!(f64_agrees(Cmp::NumEq, f64::NAN, -f64::NAN));
        assert!(!f64_agrees(Cmp::NumEq, 1.0, 1.0 + 1e-15));
        assert!(f64_agrees(Cmp::Approx, 1.0, 1.0 + 1e-12));
        assert!(!f64_agrees(Cmp::Approx, 1.0, 1.1));
        assert!(f64_agrees(Cmp::Approx, f64::INFINITY, f64::INFINITY));
        assert!(!f64_agrees(Cmp::Approx, f64::INFINITY, f64::NEG_INFINITY));
        assert!(!f64_agrees(Cmp::BitEq, 0.0, -0.0));
    }

    #[test]
    fn report_renders_and_asserts_coverage() {
        let mut rep = DiffReport::default();
        rep.op("scan");
        rep.checks = 1;
        rep.assert_clean_and_covering(&["scan"]);
        rep.disagreements.push(Disagreement {
            op: "scan",
            case: "x".into(),
            backend: "threaded-4".into(),
            detail: "boom".into(),
        });
        let msg = rep.render();
        assert!(msg.contains("boom") && msg.contains("threaded-4"));
    }
}
