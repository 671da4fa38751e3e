//! # faults — deterministic, seed-driven fault injection
//!
//! The paper's co-scheduling pipeline only earns its keep on a real facility,
//! where jobs get killed, filesystems hiccup, and queues stall. This crate
//! provides the machinery the workflow crates use to *rehearse* those
//! failures deterministically:
//!
//! * [`FaultPlan`] — a seed plus per-site specifications ([`SiteSpec`]) of
//!   which faults fire where: a per-hit probability, an explicit hit
//!   schedule, or both, for [`FaultKind::Transient`], [`FaultKind::Crash`],
//!   and [`FaultKind::Stall`] faults.
//! * [`FaultInjector`] — the compiled plan. Every fault site draws from its
//!   own RNG stream derived from `(seed, site)`, so decisions at one site are
//!   independent of how threads interleave at another: **same seed ⇒ same
//!   fault trace** (canonically ordered by site and hit index).
//! * [`fault_point!`] — the hook components embed. It consults the globally
//!   [`install`]ed injector. There is one build: a fault fires iff an
//!   injector is installed, and with nothing installed the hook is one
//!   relaxed atomic load and a branch (`e2e_bench` measures it as
//!   `faults.poll_ns`, ~1 ns) — the same arming rule as `telemetry`.
//! * [`BackoffPolicy`] — capped exponential retry backoff shared by the
//!   batch-scheduler requeue and the listener's transient-error retries.
//! * **Site enumeration** — a record-only plan ([`FaultPlan::record_only`],
//!   or [`FaultPlan::with_recording`] on any plan) makes the injector note
//!   *every* site polled, matched by a spec or not, without injecting
//!   anything extra. [`FaultInjector::sites_reached`] then lists each
//!   concrete site with its hit count, so tools like the conformance
//!   crash-schedule explorer can discover the fault surface a workload
//!   actually exercises instead of grepping the source for `fault_point!`.
//!
//! Components that own their fault checks (the batch simulator, the
//! listener) take an `Arc<FaultInjector>` explicitly and bypass the global;
//! the global exists for call sites buried inside library internals (the
//! `comm` send/recv paths) where threading a handle through would distort the
//! MPI-like API.
//!
//! Site names are dotted paths grouped by component — `scheduler.job`,
//! `listener.{scan,submit,journal,compact}`, `comm.{send,recv}`,
//! `runner.insitu`, `service.c<id>.{emit,analysis}`, and the artifact
//! store's `cache.{read,verify,replicate,fetch.remote}` — so a `"cache.*"`
//! family pattern in one [`SiteSpec`] covers local reads, verification,
//! replica writes, and remote fetches alike. The full site table (per-kind
//! semantics at each site) lives in `DESIGN.md` §7.

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What kind of failure a fault point experiences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// A retryable failure: the operation fails once and succeeds when
    /// retried (an I/O error, a killed-and-requeued batch job, a dropped
    /// message that the transport retransmits).
    Transient,
    /// A fatal failure of the component: the listener process dies, a batch
    /// job is lost. Recovery happens at a coarser level (journal replay,
    /// workflow degradation), not by retrying the operation.
    Crash,
    /// The operation hangs for the given duration before completing. Sites
    /// with timeouts surface long stalls as errors instead of hanging.
    Stall(Duration),
}

/// Per-site fault specification inside a [`FaultPlan`].
///
/// `pattern` names one site exactly (`"listener.submit"`) or a whole family
/// by prefix when it ends in `*` (`"comm.*"`). The first matching spec in
/// plan order wins.
#[derive(Debug, Clone)]
pub struct SiteSpec {
    /// Site name or `prefix*` pattern.
    pub pattern: String,
    /// Per-hit fault probability in `[0, 1]` (drawn from the site's own RNG
    /// stream).
    pub probability: f64,
    /// The fault injected when this spec fires.
    pub kind: FaultKind,
    /// Fire unconditionally at these hit indices (0-based, per concrete
    /// site), in addition to probabilistic firings.
    pub at_hits: Vec<u64>,
    /// Stop injecting at a site after this many faults (`None` = unlimited).
    pub max_faults: Option<u64>,
}

impl SiteSpec {
    /// Transient faults with probability `p` at sites matching `pattern`.
    pub fn transient(pattern: impl Into<String>, p: f64) -> Self {
        SiteSpec {
            pattern: pattern.into(),
            probability: p,
            kind: FaultKind::Transient,
            at_hits: Vec::new(),
            max_faults: None,
        }
    }

    /// A crash scheduled at exactly hit `hit` of sites matching `pattern`.
    pub fn crash_at(pattern: impl Into<String>, hit: u64) -> Self {
        SiteSpec {
            pattern: pattern.into(),
            probability: 0.0,
            kind: FaultKind::Crash,
            at_hits: vec![hit],
            max_faults: Some(1),
        }
    }

    /// Stalls of `delay` with probability `p` at sites matching `pattern`.
    pub fn stall(pattern: impl Into<String>, p: f64, delay: Duration) -> Self {
        SiteSpec {
            pattern: pattern.into(),
            probability: p,
            kind: FaultKind::Stall(delay),
            at_hits: Vec::new(),
            max_faults: None,
        }
    }

    /// Cap the number of faults this spec may inject.
    pub fn with_max_faults(mut self, n: u64) -> Self {
        self.max_faults = Some(n);
        self
    }

    fn matches(&self, site: &str) -> bool {
        match self.pattern.strip_suffix('*') {
            Some(prefix) => site.starts_with(prefix),
            None => site == self.pattern,
        }
    }
}

/// The canonical site name for a per-campaign fault point inside the
/// workflow service: `service.c<campaign>.<op>` (e.g. `service.c3.emit`).
///
/// Keeping the campaign index *inside* the site name gives each campaign an
/// independent hit counter and RNG stream, so a crash schedule aimed at one
/// campaign's third analysis cannot drift when a neighbor campaign runs more
/// or fewer operations. Target a single campaign with the exact name, or
/// every campaign at once with the prefix pattern `service.c` + `*` —
/// site-name matching is string-based, so [`SiteSpec`] patterns compose with
/// these names unchanged.
pub fn campaign_site(campaign: u64, op: &str) -> String {
    format!("service.c{campaign}.{op}")
}

/// A seed plus the sites to perturb. Build with [`FaultPlan::new`] and
/// [`FaultPlan::with_site`], then compile into a [`FaultInjector`].
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Master seed; every per-site stream derives from it.
    pub seed: u64,
    /// Site specifications, first match wins.
    pub sites: Vec<SiteSpec>,
    /// Record hits even at sites no spec matches (see
    /// [`FaultPlan::with_recording`]).
    pub record_all: bool,
}

impl FaultPlan {
    /// An empty plan (no faults) under `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            sites: Vec::new(),
            record_all: false,
        }
    }

    /// A record-only plan: injects nothing, but every site polled is
    /// recorded so [`FaultInjector::sites_reached`] can enumerate the
    /// workload's fault surface after a clean instrumented run.
    pub fn record_only(seed: u64) -> Self {
        FaultPlan::new(seed).with_recording()
    }

    /// Also record hits at sites that no spec matches. Matched sites keep
    /// their exact RNG-stream semantics (recording draws nothing from a
    /// site's stream), so enabling this never changes which faults fire.
    pub fn with_recording(mut self) -> Self {
        self.record_all = true;
        self
    }

    /// Add a site specification.
    pub fn with_site(mut self, spec: SiteSpec) -> Self {
        self.sites.push(spec);
        self
    }

    /// Compile into a shareable injector.
    pub fn build(self) -> Arc<FaultInjector> {
        Arc::new(FaultInjector::new(self))
    }
}

/// One injected fault, as recorded in the trace.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultEvent {
    /// Concrete site name the fault fired at.
    pub site: String,
    /// 0-based hit index at that site.
    pub hit: u64,
    /// The injected fault.
    pub kind: FaultKind,
}

/// Per-concrete-site decision state.
#[derive(Debug)]
struct SiteState {
    hits: u64,
    faults: u64,
    rng: StdRng,
}

/// FNV-1a over the site name — stable across runs and platforms, used to
/// derive the per-site RNG stream from the master seed.
fn site_hash(site: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in site.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01B3);
    }
    h
}

/// The runtime fault decider: thread-safe, deterministic per site.
///
/// Decisions at a site depend only on `(plan.seed, site, hit index)`; the
/// order in which *different* sites are exercised never shifts another
/// site's stream, so multi-threaded runs stay reproducible.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    state: Mutex<BTreeMap<String, SiteState>>,
    trace: Mutex<Vec<FaultEvent>>,
}

impl FaultInjector {
    /// Compile a plan.
    fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            state: Mutex::new(BTreeMap::new()),
            trace: Mutex::new(Vec::new()),
        }
    }

    /// Record a hit at `site` and decide whether a fault fires there.
    ///
    /// This is the only mutating entry point; everything else reads the
    /// trace it builds.
    pub fn check(&self, site: &str) -> Option<FaultKind> {
        let spec = self.plan.sites.iter().find(|s| s.matches(site));
        if spec.is_none() && !self.plan.record_all {
            return None;
        }
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let st = state.entry(site.to_string()).or_insert_with(|| SiteState {
            hits: 0,
            faults: 0,
            rng: StdRng::seed_from_u64(self.plan.seed ^ site_hash(site)),
        });
        let hit = st.hits;
        st.hits += 1;
        // Record-only observation of an unmatched site: the hit is counted
        // but the site's RNG stream is left untouched, so a later plan that
        // adds a spec for it sees the same per-hit decisions either way.
        let spec = spec?;
        if spec.max_faults.is_some_and(|cap| st.faults >= cap) {
            // Keep the stream advancing so the cap does not shift later
            // decisions relative to an uncapped plan.
            let _ = st.rng.gen_f64();
            return None;
        }
        let scheduled = spec.at_hits.contains(&hit);
        let rolled = st.rng.gen_f64() < spec.probability;
        if !(scheduled || rolled) {
            return None;
        }
        st.faults += 1;
        let event = FaultEvent {
            site: site.to_string(),
            hit,
            kind: spec.kind,
        };
        drop(state);
        self.trace
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(event);
        Some(spec.kind)
    }

    /// The canonical fault trace: every injected fault, ordered by
    /// `(site, hit)` so concurrent runs under the same seed compare equal.
    pub fn trace(&self) -> Vec<FaultEvent> {
        let mut t = self.trace.lock().unwrap_or_else(|p| p.into_inner()).clone();
        t.sort();
        t
    }

    /// Total faults injected so far.
    pub fn fault_count(&self) -> usize {
        self.trace.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// Every concrete site polled so far with its hit count, sorted by
    /// site name.
    ///
    /// Under a plan built with [`FaultPlan::record_only`] (or
    /// [`FaultPlan::with_recording`]) this is the complete fault surface a
    /// workload reached — including sites no spec matched — which is what
    /// the conformance crash-schedule explorer enumerates before re-running
    /// the workload with a [`SiteSpec::crash_at`] for each `(site, hit)`
    /// pair. Without recording it lists only spec-matched sites.
    pub fn sites_reached(&self) -> Vec<(String, u64)> {
        self.state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(site, st)| (site.clone(), st.hits))
            .collect()
    }

    /// Hits and faults per concrete site, for rate assertions.
    pub fn site_stats(&self) -> BTreeMap<String, (u64, u64)> {
        self.state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(site, st)| (site.clone(), (st.hits, st.faults)))
            .collect()
    }
}

/// Capped exponential backoff: attempt `k` (0-based) waits
/// `min(base × factor^k, max_delay)` and gives up after `max_attempts`
/// tries in total.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffPolicy {
    /// Delay before the first retry, in seconds (simulated or wall).
    pub base_seconds: f64,
    /// Multiplier per subsequent retry.
    pub factor: f64,
    /// Ceiling on any single delay, in seconds.
    pub max_delay_seconds: f64,
    /// Total attempts allowed (first try included); at least 1.
    pub max_attempts: u32,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base_seconds: 0.01,
            factor: 2.0,
            max_delay_seconds: 1.0,
            max_attempts: 5,
        }
    }
}

impl BackoffPolicy {
    /// The delay after failed attempt `attempt` (0-based), in seconds.
    pub fn delay_seconds(&self, attempt: u32) -> f64 {
        (self.base_seconds * self.factor.powi(attempt as i32)).min(self.max_delay_seconds)
    }

    /// The delay after failed attempt `attempt` (0-based), as a [`Duration`].
    pub fn delay(&self, attempt: u32) -> Duration {
        Duration::from_secs_f64(self.delay_seconds(attempt).max(0.0))
    }
}

/// Fast-path flag: true while an injector is installed.
static ARMED: AtomicBool = AtomicBool::new(false);
/// The globally installed injector, if any.
static GLOBAL: Mutex<Option<Arc<FaultInjector>>> = Mutex::new(None);

/// Guard returned by [`install`]; uninstalls on drop.
#[must_use = "dropping the guard immediately uninstalls the injector"]
pub struct InstallGuard(());

impl Drop for InstallGuard {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::Release);
        *GLOBAL.lock().unwrap_or_else(|p| p.into_inner()) = None;
    }
}

/// Install `injector` as the process-global injector consulted by
/// [`fault_point!`]. Panics if another injector is already installed —
/// tests that arm the global must serialize on their own lock.
pub fn install(injector: Arc<FaultInjector>) -> InstallGuard {
    let mut slot = GLOBAL.lock().unwrap_or_else(|p| p.into_inner());
    assert!(
        slot.is_none(),
        "a global fault injector is already installed"
    );
    *slot = Some(injector);
    ARMED.store(true, Ordering::Release);
    InstallGuard(())
}

/// The decision behind [`fault_point!`]: one relaxed load when disarmed.
#[inline]
pub fn poll(site: &str) -> Option<FaultKind> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let inj = GLOBAL
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .as_ref()
        .map(Arc::clone)?;
    inj.check(site)
}

/// What is left of a fault for the polling site to branch on, once
/// [`poll_site`] has recorded it and slept a stall in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fired {
    /// The operation fails once; the site retries or skips it.
    Transient,
    /// The component dies; the site unwinds to its crash handling.
    Crash,
}

/// Poll `site` — on `injector` when the component carries one, otherwise on
/// the global one — and record a fired fault as the `faults` telemetry
/// instant named `label` (the site's static name; per-campaign sites share
/// one label) with arg 0 / 1 / 2 for transient / crash / stall. Returns the
/// raw kind, unslept: only a site that lives on a virtual clock (the batch
/// simulator) wants this form, everyone else calls [`poll_site`].
#[inline]
pub fn poll_recorded(
    injector: Option<&FaultInjector>,
    site: &str,
    label: &'static str,
) -> Option<FaultKind> {
    let kind = match injector {
        Some(inj) => inj.check(site),
        None => poll(site),
    }?;
    let arg = match kind {
        FaultKind::Transient => 0,
        FaultKind::Crash => 1,
        FaultKind::Stall(_) => 2,
    };
    telemetry::instant!("faults", label, arg);
    Some(kind)
}

/// The poll every wall-clock fault site makes: [`poll_recorded`], then a
/// `Stall` is slept here — at every site a stall means "delay, then
/// proceed" — so the caller only sees what it must branch on.
#[inline]
pub fn poll_site(
    injector: Option<&FaultInjector>,
    site: &str,
    label: &'static str,
) -> Option<Fired> {
    match poll_recorded(injector, site, label)? {
        FaultKind::Transient => Some(Fired::Transient),
        FaultKind::Crash => Some(Fired::Crash),
        FaultKind::Stall(d) => {
            std::thread::sleep(d);
            None
        }
    }
}

/// Mark a fault site. Evaluates to `Option<FaultKind>`: `None` on the happy
/// path, `Some(kind)` when the installed plan injects a fault here.
///
/// ```
/// # use faults::fault_point;
/// if let Some(fault) = fault_point!("demo.site") {
///     // simulate the failure `fault` describes
///     let _ = fault;
/// }
/// ```
#[macro_export]
macro_rules! fault_point {
    ($site:expr) => {
        $crate::poll($site)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_faults() {
        let inj = FaultPlan::new(7).build();
        for _ in 0..100 {
            assert_eq!(inj.check("anything"), None);
        }
        assert!(inj.trace().is_empty());
    }

    #[test]
    fn probability_one_always_faults_and_zero_never_does() {
        let inj = FaultPlan::new(1)
            .with_site(SiteSpec::transient("hot", 1.0))
            .with_site(SiteSpec::transient("cold", 0.0))
            .build();
        for _ in 0..50 {
            assert_eq!(inj.check("hot"), Some(FaultKind::Transient));
            assert_eq!(inj.check("cold"), None);
        }
        assert_eq!(inj.fault_count(), 50);
    }

    #[test]
    fn same_seed_same_trace_different_seed_differs() {
        let run = |seed| {
            let inj = FaultPlan::new(seed)
                .with_site(SiteSpec::transient("a.*", 0.3))
                .build();
            for _ in 0..200 {
                inj.check("a.x");
                inj.check("a.y");
            }
            inj.trace()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn campaign_sites_keep_independent_hit_counters() {
        assert_eq!(campaign_site(3, "emit"), "service.c3.emit");

        // A crash aimed at campaign 1's second emit must not be consumed by
        // campaign 0 hammering its own site, and must not fire for others.
        let inj = FaultPlan::new(11)
            .with_site(SiteSpec::crash_at(campaign_site(1, "emit"), 1))
            .build();
        for _ in 0..10 {
            assert_eq!(inj.check(&campaign_site(0, "emit")), None);
        }
        assert_eq!(inj.check(&campaign_site(1, "emit")), None, "hit 0 clean");
        assert_eq!(
            inj.check(&campaign_site(1, "emit")),
            Some(FaultKind::Crash),
            "hit 1 crashes regardless of neighbor traffic"
        );
        assert_eq!(inj.check(&campaign_site(2, "emit")), None);

        // A prefix pattern covers every campaign's instance of an op family.
        let all = FaultPlan::new(12)
            .with_site(SiteSpec::transient("service.c*", 1.0))
            .build();
        assert_eq!(
            all.check(&campaign_site(7, "analysis")),
            Some(FaultKind::Transient)
        );
    }

    #[test]
    fn per_site_streams_are_interleaving_independent() {
        // Exercising site B between hits of site A must not change A's
        // decisions.
        let decisions = |interleave: bool| {
            let inj = FaultPlan::new(9)
                .with_site(SiteSpec::transient("*", 0.5))
                .build();
            let mut a = Vec::new();
            for _ in 0..100 {
                a.push(inj.check("a").is_some());
                if interleave {
                    inj.check("b");
                }
            }
            a
        };
        assert_eq!(decisions(false), decisions(true));
    }

    #[test]
    fn scheduled_hits_fire_exactly_there() {
        let inj = FaultPlan::new(3)
            .with_site(SiteSpec::crash_at("s", 4))
            .build();
        for hit in 0..10u64 {
            let got = inj.check("s");
            assert_eq!(got.is_some(), hit == 4, "hit {hit}");
        }
        assert_eq!(
            inj.trace(),
            vec![FaultEvent {
                site: "s".into(),
                hit: 4,
                kind: FaultKind::Crash
            }]
        );
    }

    #[test]
    fn max_faults_caps_injection() {
        let inj = FaultPlan::new(5)
            .with_site(SiteSpec::transient("s", 1.0).with_max_faults(3))
            .build();
        let fired = (0..20).filter(|_| inj.check("s").is_some()).count();
        assert_eq!(fired, 3);
        let stats = inj.site_stats();
        assert_eq!(stats["s"], (20, 3));
    }

    #[test]
    fn record_only_enumerates_sites_without_faulting() {
        let inj = FaultPlan::record_only(2).build();
        for _ in 0..3 {
            assert_eq!(inj.check("listener.journal"), None);
        }
        assert_eq!(inj.check("cache.read"), None);
        assert!(inj.trace().is_empty(), "record-only injects nothing");
        assert_eq!(
            inj.sites_reached(),
            vec![
                ("cache.read".to_string(), 1),
                ("listener.journal".to_string(), 3)
            ]
        );
    }

    #[test]
    fn recording_does_not_shift_matched_site_streams() {
        // Interleaving polls of an unmatched, recorded site must not change
        // which faults fire at a matched site.
        let decisions = |record: bool| {
            let mut plan = FaultPlan::new(13).with_site(SiteSpec::transient("a", 0.5));
            if record {
                plan = plan.with_recording();
            }
            let inj = plan.build();
            let mut a = Vec::new();
            for _ in 0..100 {
                a.push(inj.check("a").is_some());
                inj.check("unmatched.site");
            }
            a
        };
        assert_eq!(decisions(false), decisions(true));
    }

    #[test]
    fn sites_reached_without_recording_lists_only_matched_sites() {
        let inj = FaultPlan::new(1)
            .with_site(SiteSpec::transient("a", 0.0))
            .build();
        inj.check("a");
        inj.check("b");
        assert_eq!(inj.sites_reached(), vec![("a".to_string(), 1)]);
    }

    #[test]
    fn prefix_patterns_match_families() {
        let spec = SiteSpec::transient("listener.*", 1.0);
        assert!(spec.matches("listener.submit"));
        assert!(spec.matches("listener.scan"));
        assert!(!spec.matches("scheduler.job"));
        let exact = SiteSpec::transient("comm.send", 1.0);
        assert!(exact.matches("comm.send"));
        assert!(!exact.matches("comm.send.extra"));
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let b = BackoffPolicy {
            base_seconds: 1.0,
            factor: 2.0,
            max_delay_seconds: 5.0,
            max_attempts: 4,
        };
        assert_eq!(b.delay_seconds(0), 1.0);
        assert_eq!(b.delay_seconds(1), 2.0);
        assert_eq!(b.delay_seconds(2), 4.0);
        assert_eq!(b.delay_seconds(3), 5.0, "capped");
        assert_eq!(b.delay(10), Duration::from_secs_f64(5.0));
    }

    #[test]
    fn poll_site_sleeps_stalls_and_returns_what_callers_branch_on() {
        let inj = FaultPlan::new(1)
            .with_site(SiteSpec::transient("t", 1.0))
            .with_site(SiteSpec::crash_at("c", 0))
            .with_site(SiteSpec::stall("s", 1.0, Duration::from_millis(20)))
            .build();
        assert_eq!(poll_site(Some(&inj), "t", "t"), Some(Fired::Transient));
        assert_eq!(poll_site(Some(&inj), "c", "c"), Some(Fired::Crash));
        let t0 = std::time::Instant::now();
        assert_eq!(poll_site(Some(&inj), "s", "s"), None, "a stall proceeds");
        assert!(t0.elapsed() >= Duration::from_millis(20), "after its delay");
        let unslept = poll_recorded(Some(&inj), "s", "s");
        assert_eq!(unslept, Some(FaultKind::Stall(Duration::from_millis(20))));
        assert_eq!(poll_site(Some(&inj), "quiet", "quiet"), None);
        assert_eq!(inj.fault_count(), 4);
    }

    #[test]
    fn global_install_arms_fault_points() {
        // Single test exercising the global slot (tests in this module run
        // in one binary; only this one installs).
        assert_eq!(fault_point!("g.x"), None, "disarmed by default");
        let inj = FaultPlan::new(11)
            .with_site(SiteSpec::transient("g.*", 1.0))
            .build();
        {
            let _guard = install(Arc::clone(&inj));
            assert_eq!(fault_point!("g.x"), Some(FaultKind::Transient));
            assert_eq!(fault_point!("other"), None);
        }
        assert_eq!(fault_point!("g.x"), None, "guard drop disarms");
        assert_eq!(inj.fault_count(), 1);
    }
}
