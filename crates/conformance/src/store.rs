//! Crash-schedule and node-death exploration for the **distributed
//! artifact store** and the streaming Level-2 in-transit path.
//!
//! [`crate::multi`] sweeps the service's listener/campaign fault surface.
//! The sharded store adds its own failure class: replica writes that die
//! mid-replication (`cache.replicate`), remote fetches that lose their
//! source node (`cache.fetch.remote`), and whole store nodes vanishing
//! between incarnations. None of those may ever change catalog bytes —
//! the store degrades to under-replication or deterministic recompute,
//! never to drift.
//!
//! The sweep has four phases:
//!
//! 1. **Baseline** — a whole-file campaign on a single-node store and a
//!    streamed campaign on the full sharded store must both land the solo
//!    [`hacc_core::service::reference_catalog`] byte-for-byte: streaming
//!    in-transit is a transport change, not a semantic one.
//! 2. **Record** — a record-only pass runs the streamed campaign cold,
//!    wipes one store node plus the shard journals, and re-runs warm. The
//!    enumerated surface must include both store sites: `cache.replicate`
//!    from the cold run's secondary writes, `cache.fetch.remote` from the
//!    warm run's fail-over reads.
//! 3. **Schedules** — each store site gets a crash armed at its first
//!    hit. A `cache.replicate` crash kills a node mid-cold-run; the warm
//!    pass must then recompute *nothing* (the surviving replicas cover).
//!    A `cache.fetch.remote` crash kills the fail-over source during the
//!    warm pass; recompute is then legal, byte drift is not.
//! 4. **Node-death sweep** — for *every* node `k`, a fault-free cold run,
//!    then `node<k>`'s directory and the journals are wiped, then a warm
//!    re-run must recompute nothing and assemble zero misses: with R ≥ 2
//!    replicas, no single node holds the only copy of anything.
//!
//! Installs the process-global fault injector for the duration of each
//! phase; callers must serialize with other fault-injecting tests.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use crate::explorer::crash_fired;
use crate::multi::run_service;
use cache::{SITE_FETCH_REMOTE, SITE_REPLICATE};
use faults::{FaultPlan, SiteSpec};
use hacc_core::service::{
    product_primary_node, reference_catalog, CampaignReport, CampaignSpec, CampaignStatus,
    ServiceConfig,
};

/// Configuration for [`explore_store`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Scratch directory; each phase and schedule gets its own subtree.
    pub root: PathBuf,
    /// Seed for the campaign workload and fault-plan RNGs.
    pub seed: u64,
    /// Level-2 drops in the campaign.
    pub steps: usize,
    /// Store nodes in the sharded configuration.
    pub nodes: usize,
    /// Replicas per artifact (must be ≥ 2 for the node-death sweep to be
    /// winnable).
    pub replicas: usize,
}

impl StoreConfig {
    /// Defaults: 3 drops over a 3-node / 2-replica store.
    pub fn new(root: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig {
            root: root.into(),
            seed: 0xD157,
            steps: 3,
            nodes: 3,
            replicas: 2,
        }
    }

    /// The streamed campaign spec, stable across every run of the sweep so
    /// namespaces — and therefore artifact keys — line up.
    pub fn spec(&self) -> CampaignSpec {
        CampaignSpec::streamed("store", self.seed.wrapping_mul(1000) + 7, self.steps)
    }

    /// The whole-file twin of [`StoreConfig::spec`]: same seed and steps,
    /// so its catalog must be byte-identical to the streamed one.
    fn wholefile_spec(&self) -> CampaignSpec {
        CampaignSpec::new("store-wf", self.seed.wrapping_mul(1000) + 7, self.steps)
    }

    /// The two store-owned fault sites this explorer is responsible for.
    fn store_sites() -> [&'static str; 2] {
        [SITE_REPLICATE, SITE_FETCH_REMOTE]
    }
}

/// What one store crash schedule did (a cold streamed run with the crash
/// armed, a journal wipe, and a warm re-run over the same store).
#[derive(Debug, Clone)]
pub struct StoreScheduleOutcome {
    /// Store fault site crashed by this schedule.
    pub site: String,
    /// Which occurrence (0-based hit index) was crashed.
    pub hit: u64,
    /// The armed crash actually fired.
    pub fired: bool,
    /// Both the cold and the warm run completed.
    pub completed: bool,
    /// Both catalogs are byte-identical to the solo reference.
    pub catalogs_match: bool,
    /// The cold run analyzed each drop exactly once.
    pub cold_exactly_once: bool,
    /// Analyses the warm pass redid plus its assembly misses — the
    /// degradation budget. Zero means the replicas covered everything.
    pub warm_degraded: u64,
}

/// What one node-death round did (fault-free cold run, wipe `node<k>` and
/// the journals, warm re-run).
#[derive(Debug, Clone)]
pub struct KillNodeOutcome {
    /// The store node whose directory was wiped.
    pub node: usize,
    /// Both runs completed.
    pub completed: bool,
    /// Both catalogs are byte-identical to the solo reference.
    pub catalogs_match: bool,
    /// Analyses the warm pass redid (must be 0 — replicas cover).
    pub warm_recomputes: u64,
    /// Warm catalog-assembly cache misses (must be 0 — every product is
    /// still reachable through a surviving replica).
    pub warm_assembly_misses: u64,
}

/// Result of a full store exploration.
#[derive(Debug, Clone)]
pub struct StoreReport {
    /// Every `(site, hits)` pair the record pass observed (full surface,
    /// not just the store sites).
    pub sites_enumerated: Vec<(String, u64)>,
    /// One outcome per explored store-site schedule.
    pub schedules: Vec<StoreScheduleOutcome>,
    /// One outcome per store node killed in the node-death sweep.
    pub kill_nodes: Vec<KillNodeOutcome>,
    /// The solo reference catalog both baselines matched.
    pub reference: Vec<u8>,
}

impl StoreReport {
    /// Store sites covered by at least one explored schedule.
    pub fn sites_explored(&self) -> BTreeSet<&str> {
        self.schedules.iter().map(|s| s.site.as_str()).collect()
    }

    /// Assert 100% coverage of the store fault surface and full recovery
    /// on every schedule and every node death.
    ///
    /// # Panics
    ///
    /// On the first violated invariant, with the offending schedule or
    /// node named.
    pub fn assert_exhaustive(&self, cfg: &StoreConfig) {
        let reached: BTreeSet<&str> = self
            .sites_enumerated
            .iter()
            .map(|(s, _)| s.as_str())
            .collect();
        for site in StoreConfig::store_sites() {
            assert!(
                reached.contains(site),
                "store site `{site}` never reached; surface: {reached:?}"
            );
        }
        assert_eq!(
            self.sites_explored(),
            StoreConfig::store_sites().into_iter().collect(),
            "explored store sites differ from the store surface — coverage hole"
        );
        for s in &self.schedules {
            let id = format!("store schedule crash_at({}, {})", s.site, s.hit);
            assert!(s.fired, "{id}: armed crash never fired");
            assert!(s.completed, "{id}: a run did not complete");
            assert!(
                s.catalogs_match,
                "{id}: a catalog drifted from the solo reference"
            );
            assert!(s.cold_exactly_once, "{id}: cold run was not exactly-once");
            if s.site == SITE_REPLICATE {
                assert_eq!(
                    s.warm_degraded, 0,
                    "{id}: a mid-replication node death must leave every \
                     artifact reachable — warm pass had to recompute"
                );
            }
        }
        assert_eq!(
            self.kill_nodes.len(),
            cfg.nodes,
            "node-death sweep must kill every node once"
        );
        for k in &self.kill_nodes {
            let id = format!("node-death round (node {})", k.node);
            assert!(k.completed, "{id}: a run did not complete");
            assert!(
                k.catalogs_match,
                "{id}: a catalog drifted from the solo reference"
            );
            assert_eq!(
                k.warm_recomputes, 0,
                "{id}: warm re-run recomputed an analysis — a single node \
                 held the only copy of a product"
            );
            assert_eq!(
                k.warm_assembly_misses, 0,
                "{id}: warm assembly missed the store — a single node held \
                 the only copy of a product"
            );
        }
    }
}

/// Service configuration of one run: one listener shard, fast polls, and
/// the store geometry under test.
fn service_config(root: &Path, nodes: usize, replicas: usize) -> ServiceConfig {
    ServiceConfig {
        shards: 1,
        poll_interval: Duration::from_millis(3),
        store_nodes: nodes,
        store_replicas: replicas,
        ..ServiceConfig::new(root)
    }
}

/// One service run over `root`: the campaign's report from
/// [`run_service`].
fn run_once(root: &Path, nodes: usize, replicas: usize, spec: &CampaignSpec) -> CampaignReport {
    let (_, reports) = run_service(
        service_config(root, nodes, replicas),
        std::slice::from_ref(spec),
    );
    reports
        .into_iter()
        .next()
        .expect("store explorer service started and took the campaign")
}

/// Remove the listener shard journals so the next run cannot lean on
/// recovery — the artifact store's gate has to answer for every drop.
fn wipe_journals(root: &Path) {
    let Ok(entries) = std::fs::read_dir(root) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("shard") && name.ends_with(".journal") {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// Erase one store node's entire shard directory — the on-disk equivalent
/// of that node never coming back.
fn wipe_node(root: &Path, node: usize) {
    let _ = std::fs::remove_dir_all(root.join("cache").join(format!("node{node}")));
}

fn exactly_once(rep: &CampaignReport, steps: usize) -> bool {
    (0..steps).all(|s| rep.executions.get(&format!("l2_{s:04}.hcio")) == Some(&1))
}

fn catalog_of(rep: &CampaignReport) -> Option<&[u8]> {
    (rep.status == CampaignStatus::Completed)
        .then_some(rep.catalog.as_deref())
        .flatten()
}

/// Run one store crash schedule: cold streamed run with the crash armed,
/// journal wipe (plus a node wipe for the fetch site, so the warm pass
/// actually reads remotely), warm re-run over the same store.
fn run_schedule(cfg: &StoreConfig, site: &str, hit: u64, reference: &[u8]) -> StoreScheduleOutcome {
    let root = cfg
        .root
        .join(format!("sched-{}-{hit}", site.replace('.', "_")));
    let injector = FaultPlan::new(cfg.seed)
        .with_site(SiteSpec::crash_at(site, hit))
        .with_recording()
        .build();
    let _guard = faults::install(Arc::clone(&injector));
    let spec = cfg.spec();
    let cold = run_once(&root, cfg.nodes, cfg.replicas, &spec);
    wipe_journals(&root);
    if site == SITE_FETCH_REMOTE {
        // The cold run never reads remotely (primaries always hit), so the
        // armed crash is still pending: empty the node that homes step 0's
        // product to force a fail-over read in the warm pass, where the
        // crash then fires.
        wipe_node(&root, product_primary_node(&spec, 0, cfg.nodes));
    }
    let warm = run_once(&root, cfg.nodes, cfg.replicas, &spec);
    let completed =
        cold.status == CampaignStatus::Completed && warm.status == CampaignStatus::Completed;
    let catalogs_match =
        catalog_of(&cold) == Some(reference) && catalog_of(&warm) == Some(reference);
    let warm_degraded = warm.executions.values().sum::<u64>() + warm.assembly_misses;
    StoreScheduleOutcome {
        site: site.to_string(),
        hit,
        fired: crash_fired(&injector, site),
        completed,
        catalogs_match,
        cold_exactly_once: exactly_once(&cold, cfg.steps),
        warm_degraded,
    }
}

/// Run one node-death round: fault-free cold run, wipe `node<k>` and the
/// journals, warm re-run that must recompute nothing.
fn run_kill_node(cfg: &StoreConfig, node: usize, reference: &[u8]) -> KillNodeOutcome {
    let root = cfg.root.join(format!("kill-node{node}"));
    let injector = FaultPlan::new(cfg.seed).build();
    let _guard = faults::install(injector);
    let spec = cfg.spec();
    let cold = run_once(&root, cfg.nodes, cfg.replicas, &spec);
    wipe_journals(&root);
    wipe_node(&root, node);
    let warm = run_once(&root, cfg.nodes, cfg.replicas, &spec);
    KillNodeOutcome {
        node,
        completed: cold.status == CampaignStatus::Completed
            && warm.status == CampaignStatus::Completed,
        catalogs_match: catalog_of(&cold) == Some(reference)
            && catalog_of(&warm) == Some(reference),
        warm_recomputes: warm.executions.values().sum(),
        warm_assembly_misses: warm.assembly_misses,
    }
}

/// Run only the baseline phase: the whole-file single-node catalog and the
/// streamed sharded catalog must both equal the solo reference, exactly
/// once, with zero assembly misses. Returns the reference catalog.
/// Installs the global injector (unarmed) for the duration.
fn store_baseline(cfg: &StoreConfig) -> Vec<u8> {
    let injector = FaultPlan::new(cfg.seed).build();
    let _guard = faults::install(injector);
    let reference = reference_catalog(&cfg.spec());

    let wf = run_once(&cfg.root.join("baseline-wf"), 1, 1, &cfg.wholefile_spec());
    assert_eq!(
        catalog_of(&wf),
        Some(&reference[..]),
        "whole-file single-node baseline drifted from the solo catalog"
    );
    assert!(
        exactly_once(&wf, cfg.steps),
        "whole-file baseline not exactly-once"
    );

    let streamed = run_once(
        &cfg.root.join("baseline-stream"),
        cfg.nodes,
        cfg.replicas,
        &cfg.spec(),
    );
    assert_eq!(
        catalog_of(&streamed),
        Some(&reference[..]),
        "streamed sharded baseline drifted from the whole-file catalog"
    );
    assert!(
        exactly_once(&streamed, cfg.steps),
        "streamed baseline not exactly-once"
    );
    assert_eq!(
        streamed.assembly_misses, 0,
        "streamed baseline assembly missed the store"
    );
    reference
}

/// Explore the distributed store's fault surface. See the module docs for
/// the four phases. Panics if the baseline or record pass misbehaves;
/// schedule and node-death failures are reported in the returned
/// [`StoreReport`] for [`StoreReport::assert_exhaustive`].
pub fn explore_store(cfg: &StoreConfig) -> StoreReport {
    assert!(
        cfg.replicas >= 2 && cfg.nodes > cfg.replicas.saturating_sub(1),
        "node-death sweep needs R >= 2 replicas over more than R-1 nodes"
    );

    // Phase 1: whole-file and streamed baselines against the solo oracle.
    let reference = store_baseline(cfg);

    // Phase 2: record-only pass enumerating the reached fault surface —
    // cold run (secondary writes hit `cache.replicate`), then wipe the
    // node homing step 0's product, warm run (its fail-over read hits
    // `cache.fetch.remote`).
    let sites_enumerated = {
        let injector = FaultPlan::record_only(cfg.seed).build();
        let _guard = faults::install(Arc::clone(&injector));
        let root = cfg.root.join("record");
        let spec = cfg.spec();
        let cold = run_once(&root, cfg.nodes, cfg.replicas, &spec);
        assert_eq!(
            catalog_of(&cold),
            Some(&reference[..]),
            "record-only cold pass drifted — store is not deterministic, \
             schedule comparison would be noise"
        );
        wipe_journals(&root);
        wipe_node(&root, product_primary_node(&spec, 0, cfg.nodes));
        let warm = run_once(&root, cfg.nodes, cfg.replicas, &spec);
        assert_eq!(
            catalog_of(&warm),
            Some(&reference[..]),
            "record-only warm pass drifted after losing node 0"
        );
        assert_eq!(
            warm.executions.values().sum::<u64>(),
            0,
            "record-only warm pass recomputed after losing node 0 — \
             replication failed to cover"
        );
        injector.sites_reached()
    };

    // Phase 3: one crash schedule per store site, at its first hit.
    let schedules = StoreConfig::store_sites()
        .into_iter()
        .map(|site| run_schedule(cfg, site, 0, &reference))
        .collect();

    // Phase 4: the node-death sweep over every store node.
    let kill_nodes = (0..cfg.nodes)
        .map(|node| run_kill_node(cfg, node, &reference))
        .collect();

    StoreReport {
        sites_enumerated,
        schedules,
        kill_nodes,
        reference,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_stable_twins() {
        let cfg = StoreConfig::new("/tmp/unused");
        assert_eq!(cfg.spec(), cfg.spec());
        let (s, w) = (cfg.spec(), cfg.wholefile_spec());
        assert!(s.stream && !w.stream);
        assert_eq!((s.seed, s.steps), (w.seed, w.steps));
        assert_ne!(s.name, w.name);
    }

    #[test]
    fn store_sites_match_the_cache_constants() {
        assert_eq!(
            StoreConfig::store_sites(),
            ["cache.replicate", "cache.fetch.remote"]
        );
    }
}
