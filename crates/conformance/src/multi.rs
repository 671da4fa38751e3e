//! Multi-campaign crash-schedule exploration for the workflow **service**.
//!
//! [`crate::explorer`] sweeps crash schedules over one campaign and one
//! listener. The service multiplexes many campaigns over shared shards, a
//! shared pool, and a shared artifact cache — which opens a new failure
//! class the single-campaign explorer cannot see: one campaign's crash or
//! recovery bleeding into a *neighbor's* catalog, cache namespace, or
//! exactly-once accounting.
//!
//! The campaigns come from one table ([`MultiConfig::specs`]) that
//! alternates the two ingest sources — odd campaigns stage whole files into
//! a drop directory, even ones stream chunk announcements — so every phase
//! below is one exactly-once battery over both sources of the service's one
//! journaled consumer.
//!
//! The sweep has the same three phases:
//!
//! 1. **Reference** — a fault-free multi-campaign service run; each
//!    campaign's catalog must be byte-identical to
//!    [`hacc_core::service::reference_catalog`] for its spec (the solo
//!    oracle), and pairwise distinct (so later equality checks are not
//!    vacuous).
//! 2. **Record** — a record-only pass enumerates every fault site the
//!    multi-campaign service actually reaches, including the per-campaign
//!    `service.c<id>.emit` / `service.c<id>.analysis` sites, and pins the
//!    counted work of a fault-free run (`assert_counted_work`).
//! 3. **Schedules** — for every reached site, a crash is armed at its first
//!    hit; the service incarnation dies, a fresh one over the same root
//!    recovers from the shard journals and the cache, and the sweep asserts
//!    per-campaign: completion within the restart budget, byte-identical
//!    recovered catalogs, and exactly-once analysis summed across
//!    incarnations.
//!
//! Installs the process-global fault injector for the duration of each
//! phase; callers must serialize with other fault-injecting tests.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::explorer::crash_fired;
use faults::{FaultPlan, SiteSpec};
use hacc_core::service::{
    reference_catalog, CampaignReport, CampaignSpec, CampaignStatus, ServiceConfig, WorkflowService,
};

/// Configuration for [`explore_multi`].
#[derive(Debug, Clone)]
pub struct MultiConfig {
    /// Scratch directory; each schedule gets its own subtree.
    pub root: PathBuf,
    /// Seed for campaign workloads and fault-plan RNGs.
    pub seed: u64,
    /// Concurrent campaigns per service run.
    pub campaigns: usize,
    /// Level-2 drops per campaign.
    pub steps: usize,
    /// Restart budget per schedule before declaring it stuck.
    pub max_incarnations: u32,
}

impl MultiConfig {
    /// Defaults: 2 campaigns × 2 steps, 6 incarnations per schedule.
    pub fn new(root: impl Into<PathBuf>) -> MultiConfig {
        MultiConfig {
            root: root.into(),
            seed: 0x5C15,
            campaigns: 2,
            steps: 2,
            max_incarnations: 6,
        }
    }

    /// The campaign specs of one service run: distinct names and seeds,
    /// stable across incarnations (which keeps ids — and therefore fault
    /// sites — stable too). Odd campaigns are whole-file, even ones
    /// streamed, so the default pair exercises both ingest sources.
    pub fn specs(&self) -> Vec<CampaignSpec> {
        (1..=self.campaigns)
            .map(|k| CampaignSpec {
                stream: k % 2 == 0,
                ..CampaignSpec::new(
                    format!("mc{k}"),
                    self.seed.wrapping_mul(1000) + k as u64,
                    self.steps,
                )
            })
            .collect()
    }
}

/// What one multi-campaign crash schedule did.
#[derive(Debug, Clone)]
pub struct MultiScheduleOutcome {
    /// Fault site crashed by this schedule.
    pub site: String,
    /// Which occurrence (0-based hit index) was crashed.
    pub hit: u64,
    /// The armed crash actually fired.
    pub fired: bool,
    /// Incarnations used until every campaign completed (0 = never).
    pub incarnations: u32,
    /// Every campaign completed within the restart budget.
    pub completed: bool,
    /// Every campaign's recovered catalog is byte-identical to its solo
    /// reference — no drift, no cross-campaign bleed.
    pub catalogs_match: bool,
    /// Every campaign analyzed each of its drops exactly once, summed
    /// across all incarnations.
    pub exactly_once: bool,
}

/// Result of a full multi-campaign exploration.
#[derive(Debug, Clone)]
pub struct MultiReport {
    /// Every `(site, hits)` pair the record pass observed.
    pub sites_enumerated: Vec<(String, u64)>,
    /// One outcome per explored schedule.
    pub schedules: Vec<MultiScheduleOutcome>,
    /// Per-campaign solo reference catalogs, keyed by campaign name.
    pub references: BTreeMap<String, Vec<u8>>,
}

impl MultiReport {
    /// Sites covered by at least one explored schedule.
    pub fn sites_explored(&self) -> BTreeSet<&str> {
        self.schedules.iter().map(|s| s.site.as_str()).collect()
    }

    /// Assert the exploration was complete and every schedule recovered.
    ///
    /// Checks: the record pass reached both per-campaign sites for *every*
    /// campaign (a campaign whose sites never appear was silently idle);
    /// every reached site was crashed by a schedule; references are
    /// pairwise distinct; and every schedule completed with matching
    /// catalogs and exactly-once analysis per campaign.
    ///
    /// # Panics
    ///
    /// On the first violated invariant, with the offending schedule named.
    pub fn assert_exhaustive(&self, cfg: &MultiConfig) {
        let reached: BTreeSet<&str> = self
            .sites_enumerated
            .iter()
            .map(|(s, _)| s.as_str())
            .collect();
        for k in 1..=cfg.campaigns {
            for op in ["emit", "analysis"] {
                let site = faults::campaign_site(k as u64, op);
                assert!(
                    reached.contains(site.as_str()),
                    "per-campaign site `{site}` never reached; surface: {reached:?}"
                );
            }
        }
        assert_eq!(
            self.sites_explored(),
            reached,
            "explored sites differ from enumerated sites — coverage hole"
        );
        let distinct: BTreeSet<&[u8]> = self.references.values().map(|v| &v[..]).collect();
        assert_eq!(
            distinct.len(),
            self.references.len(),
            "campaign references are not pairwise distinct — bleed checks \
             would be vacuous"
        );
        for s in &self.schedules {
            let id = format!("multi schedule crash_at({}, {})", s.site, s.hit);
            assert!(s.fired, "{id}: armed crash never fired");
            assert!(
                s.completed,
                "{id}: a campaign did not complete within the restart budget"
            );
            assert!(
                s.catalogs_match,
                "{id}: a recovered campaign catalog drifted from its solo run"
            );
            assert!(
                s.exactly_once,
                "{id}: a drop was analyzed zero or multiple times"
            );
        }
    }
}

/// Service configuration of one incarnation: 2 shards, fast polls, a tiny
/// journal-compaction threshold so the `listener.compact` site is reached.
fn service_config(root: &std::path::Path) -> ServiceConfig {
    ServiceConfig {
        shards: 2,
        poll_interval: Duration::from_millis(3),
        journal_compact_bytes: Some(128),
        ..ServiceConfig::new(root)
    }
}

/// One service incarnation under `config`: submit every spec, wait (at most
/// 10 s) until all campaigns settle or the incarnation dies, shut down, and
/// return `(crashed, campaign reports)`. A service that dies while starting
/// or mid-submission reports what it holds; the caller restarts it. The
/// multi-campaign and store explorers differ only in the `config`.
pub(crate) fn run_service(
    config: ServiceConfig,
    specs: &[CampaignSpec],
) -> (bool, Vec<CampaignReport>) {
    let svc = match WorkflowService::start(config) {
        Ok(s) => s,
        Err(_) => return (true, Vec::new()),
    };
    let mut ids = Vec::new();
    for spec in specs {
        match svc.submit_campaign(spec.clone()) {
            Ok(id) => ids.push(id),
            Err(_) => break, // incarnation died mid-submission; restart
        }
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let settled = ids.iter().all(|id| {
            svc.status(*id)
                .map(|s| s != CampaignStatus::Running)
                .unwrap_or(true)
        });
        if settled || svc.crashed() || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let report = svc.shutdown();
    (report.crashed, report.campaigns.into_values().collect())
}

/// Drop file name for one step — must match the service's emitter naming.
fn step_file_name(step: usize) -> String {
    format!("l2_{step:04}.hcio")
}

/// `true` when every campaign analyzed each of its drops exactly once.
fn exactly_once(cfg: &MultiConfig, executions: &BTreeMap<(String, String), u64>) -> bool {
    cfg.specs().iter().all(|spec| {
        (0..spec.steps).all(|s| executions.get(&(spec.name.clone(), step_file_name(s))) == Some(&1))
    })
}

/// Run one crash schedule to completion (or the incarnation budget).
fn run_schedule(
    cfg: &MultiConfig,
    site: &str,
    hit: u64,
    references: &BTreeMap<String, Vec<u8>>,
) -> MultiScheduleOutcome {
    let root = cfg
        .root
        .join(format!("sched-{}-{hit}", site.replace('.', "_")));
    let injector = FaultPlan::new(cfg.seed)
        .with_site(SiteSpec::crash_at(site, hit))
        .with_recording()
        .build();
    let _guard = faults::install(Arc::clone(&injector));
    let specs = cfg.specs();
    let mut executions: BTreeMap<(String, String), u64> = BTreeMap::new();
    let mut catalogs: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    let mut incarnations = 0;
    while incarnations < cfg.max_incarnations && catalogs.len() < specs.len() {
        incarnations += 1;
        let (_crashed, reports) = run_service(service_config(&root), &specs);
        for rep in reports {
            for (file, n) in &rep.executions {
                *executions
                    .entry((rep.name.clone(), file.clone()))
                    .or_insert(0) += n;
            }
            if rep.status == CampaignStatus::Completed {
                if let Some(catalog) = rep.catalog {
                    catalogs.insert(rep.name, catalog);
                }
            }
        }
    }
    let completed = catalogs.len() == specs.len();
    let catalogs_match = specs
        .iter()
        .all(|s| catalogs.get(&s.name) == references.get(&s.name));
    MultiScheduleOutcome {
        site: site.to_string(),
        hit,
        fired: crash_fired(&injector, site),
        incarnations,
        completed,
        catalogs_match,
        exactly_once: exactly_once(cfg, &executions),
    }
}

/// Run only the fault-free multi-campaign reference pass and return the
/// per-campaign catalogs, asserting each equals its solo reference and that
/// every drop was analyzed exactly once. Installs the global injector
/// (unarmed) for the duration.
fn multi_reference(cfg: &MultiConfig) -> BTreeMap<String, Vec<u8>> {
    let injector = FaultPlan::new(cfg.seed).build();
    let _guard = faults::install(injector);
    let specs = cfg.specs();
    let (crashed, reports) = run_service(service_config(&cfg.root.join("reference")), &specs);
    assert!(!crashed, "fault-free multi-campaign reference run crashed");
    let mut catalogs = BTreeMap::new();
    for rep in reports {
        assert_eq!(
            rep.status,
            CampaignStatus::Completed,
            "reference campaign {} did not complete",
            rep.name
        );
        let spec = specs.iter().find(|s| s.name == rep.name).expect("known");
        let catalog = rep.catalog.expect("completed campaign has a catalog");
        assert_eq!(
            catalog,
            reference_catalog(spec),
            "reference campaign {} drifted from its solo catalog",
            rep.name
        );
        assert_eq!(
            rep.assembly_misses, 0,
            "reference campaign {} assembly missed the cache",
            rep.name
        );
        for s in 0..spec.steps {
            assert_eq!(
                rep.executions.get(&step_file_name(s)),
                Some(&1),
                "reference campaign {} step {s} not exactly-once: {:?}",
                rep.name,
                rep.executions
            );
        }
        catalogs.insert(rep.name, catalog);
    }
    catalogs
}

/// The counted-work pin of a fault-free run, read off the record pass: per
/// handled key the consumer polls `listener.submit` and `listener.journal`
/// once and the job polls `service.c<id>.analysis` once; the emitter polls
/// `service.c<id>.emit` once per published unit — a step for a whole-file
/// campaign, a chunk for a streamed one; and every drop is loaded (read or
/// assembled, then digested) exactly once. The site counts are the same
/// before and after the ingest paths were folded into one consumer.
fn assert_counted_work(
    specs: &[CampaignSpec],
    sites: &[(String, u64)],
    counters: &BTreeMap<(&'static str, &'static str, u64), u64>,
) {
    let polls = |site: &str| sites.iter().find(|(s, _)| s == site).map_or(0, |(_, n)| *n);
    let count = |name, id| counters.get(&("service", name, id)).copied().unwrap_or(0);
    let keys: u64 = specs.iter().map(|s| s.steps as u64).sum();
    assert_eq!(polls("listener.submit"), keys, "one submit poll per key");
    assert_eq!(polls("listener.journal"), keys, "one journal poll per key");
    for (spec, id) in specs.iter().zip(1u64..) {
        let steps = spec.steps as u64;
        let name = &spec.name;
        let analysis = polls(&faults::campaign_site(id, "analysis"));
        assert_eq!(analysis, steps, "{name}: one analysis poll per key");
        assert_eq!(count("analyses", id), steps, "{name}: one analysis per key");
        assert_eq!(count("drops_loaded", id), steps, "{name}: one load per key");
        let emits = polls(&faults::campaign_site(id, "emit"));
        if spec.stream {
            let chunks = count("chunks_published", id);
            assert!(chunks > steps, "{name}: steps must split into chunks");
            assert_eq!(emits, chunks, "{name}: one emit poll per chunk");
        } else {
            assert_eq!(emits, steps, "{name}: one emit poll per step");
        }
    }
}

/// Explore every crash schedule the multi-campaign service reaches. See the
/// module docs for the three phases. Panics if the reference or record pass
/// misbehaves; schedule failures are reported in the returned
/// [`MultiReport`] for [`MultiReport::assert_exhaustive`].
pub fn explore_multi(cfg: &MultiConfig) -> MultiReport {
    // Phase 1: fault-free per-campaign references.
    let references = multi_reference(cfg);

    // Phase 2: record-only pass enumerating the reached fault surface.
    let sites_enumerated = {
        let injector = FaultPlan::record_only(cfg.seed).build();
        let _guard = faults::install(Arc::clone(&injector));
        let _serial = crate::integrator::RECORDER.lock();
        let recorder = telemetry::install(Arc::new(telemetry::Recorder::new(
            telemetry::Clock::Logical,
        )));
        let specs = cfg.specs();
        let (crashed, reports) = run_service(service_config(&cfg.root.join("record")), &specs);
        let counters = recorder.finish().counters_by_dim();
        assert!(!crashed, "record-only pass crashed without any armed fault");
        for rep in &reports {
            assert_eq!(
                rep.catalog.as_ref(),
                references.get(&rep.name),
                "record-only pass drifted for campaign {} — service is not \
                 deterministic, schedule comparison would be noise",
                rep.name
            );
        }
        let sites = injector.sites_reached();
        assert_counted_work(&specs, &sites, &counters);
        sites
    };

    // Phase 3: one schedule per reached site, crashing its first hit.
    let mut schedules = Vec::new();
    for (site, _hits) in &sites_enumerated {
        schedules.push(run_schedule(cfg, site, 0, &references));
    }

    MultiReport {
        sites_enumerated,
        schedules,
        references,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_distinct_and_stable() {
        let cfg = MultiConfig::new("/tmp/unused");
        let a = cfg.specs();
        let b = cfg.specs();
        assert_eq!(a, b);
        let names: BTreeSet<&str> = a.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), a.len());
        let seeds: BTreeSet<u64> = a.iter().map(|s| s.seed).collect();
        assert_eq!(seeds.len(), a.len());
    }
}
