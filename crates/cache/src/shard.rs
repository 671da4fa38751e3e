//! The sharded, replicated artifact store spanning simulated nodes.
//!
//! [`DistributedStore`] composes per-node [`ArtifactCache`] shards (one
//! directory per node under the store root) behind the rendezvous placement
//! of [`ShardRouter`]: every artifact lives on the R highest-scoring nodes
//! for its key, `placement[0]` being the *primary* (the home node, modelled
//! as local to the rank that produced the artifact). Reads prefer the
//! primary and fall over to replicas; any non-primary read is a *remote
//! fetch* that crosses the simulated interconnect and is charged through a
//! [`RemoteFetchModel`] (numbers drawn from `simhpc`'s machine specs by the
//! workflow glue — this crate stays model-agnostic).
//!
//! Failure semantics mirror the rest of the workbench — faults degrade,
//! never corrupt:
//!
//! * [`SITE_REPLICATE`] (`cache.replicate`), polled per secondary replica
//!   write. Transient ⇒ that replica is skipped (the artifact is
//!   under-replicated until [`heal`]); Crash ⇒ the *target node dies*
//!   mid-replication, exactly the "replica-holding node crashes" scenario
//!   the conformance explorer sweeps; Stall ⇒ the write is delayed.
//! * [`SITE_FETCH_REMOTE`] (`cache.fetch.remote`), polled per remote read
//!   attempt. Transient ⇒ that replica is unreachable this once, the read
//!   tries the next one; Crash ⇒ the remote node dies and the read routes
//!   around it; Stall ⇒ the fetch is delayed.
//!
//! With R ≥ 2, the death of any single replica-holding node leaves every
//! artifact reachable: reads route to surviving replicas, a warm re-run
//! recomputes nothing, and catalogs stay byte-identical to a
//! single-directory store (placement changes where bytes live, never what
//! they are).
//!
//! [`heal`]: DistributedStore::heal

use crate::digest::{CacheKey, Digest};
use crate::router::ShardRouter;
use crate::store::{ArtifactCache, CacheStats};
use faults::Fired;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Fault site polled once per secondary replica write.
pub const SITE_REPLICATE: &str = "cache.replicate";
/// Fault site polled once per remote (non-primary) fetch attempt.
pub const SITE_FETCH_REMOTE: &str = "cache.fetch.remote";

/// Cost model for a remote artifact fetch across the simulated
/// interconnect: `latency_s + bytes / bandwidth_bps` seconds. Construct it
/// from `simhpc`'s `InterconnectSpec` numbers (the workflow glue does); the
/// default is free (zero-cost fetches).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemoteFetchModel {
    /// Per-fetch link latency in seconds.
    pub latency_s: f64,
    /// Point-to-point link bandwidth in bytes/second.
    pub bandwidth_bps: f64,
}

impl RemoteFetchModel {
    /// A model with the given latency (seconds) and bandwidth (bytes/s).
    pub fn new(latency_s: f64, bandwidth_bps: f64) -> RemoteFetchModel {
        RemoteFetchModel {
            latency_s,
            bandwidth_bps,
        }
    }

    /// Zero-cost fetches (unit tests, single-node stores).
    fn free() -> RemoteFetchModel {
        RemoteFetchModel {
            latency_s: 0.0,
            bandwidth_bps: f64::INFINITY,
        }
    }

    /// Simulated seconds to move `bytes` across one link.
    fn fetch_seconds(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / self.bandwidth_bps
    }
}

/// Configuration for [`DistributedStore::open`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistributedConfig {
    /// Simulated nodes (one shard directory each).
    pub nodes: usize,
    /// Copies kept per artifact (clamped to `[1, nodes]`).
    pub replicas: usize,
    /// Per-shard LRU byte budget (`None`: unbounded).
    pub byte_budget_per_node: Option<u64>,
    /// Per-shard index log size that triggers amortised compaction.
    pub index_compact_bytes: Option<u64>,
    /// Remote-fetch cost model.
    pub fetch: RemoteFetchModel,
}

impl Default for DistributedConfig {
    fn default() -> Self {
        DistributedConfig {
            nodes: 4,
            replicas: 2,
            byte_budget_per_node: None,
            index_compact_bytes: Some(64 * 1024),
            fetch: RemoteFetchModel::free(),
        }
    }
}

/// Store-level counters (per-shard [`CacheStats`] are separate, see
/// [`DistributedStore::shard_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistStats {
    /// Reads satisfied by the primary (home) shard.
    pub local_hits: u64,
    /// Reads satisfied by a non-primary replica — each paid a simulated
    /// interconnect crossing.
    pub remote_hits: u64,
    /// Reads no live replica could satisfy.
    pub misses: u64,
    /// Artifacts inserted.
    pub inserts: u64,
    /// Successful secondary replica writes.
    pub replica_writes: u64,
    /// Secondary replica writes skipped (transient replication fault or
    /// shard I/O error) — healable under-replication.
    pub replica_skips: u64,
    /// Replica-set members skipped because their node was dead.
    pub dead_skips: u64,
    /// Nodes killed by injected crash faults (`kill_node` calls are not
    /// counted — those are the test harness's doing).
    pub fault_kills: u64,
    /// Replicas restored by [`DistributedStore::heal`].
    pub heals: u64,
    /// Bytes moved by remote fetches.
    pub remote_bytes: u64,
}

struct Shard {
    cache: ArtifactCache,
    alive: AtomicBool,
}

/// A replicated artifact store sharded across simulated nodes. Thread-safe;
/// share via `Arc`. See the module docs for placement and failure
/// semantics.
pub struct DistributedStore {
    root: PathBuf,
    router: ShardRouter,
    shards: Vec<Shard>,
    fetch: RemoteFetchModel,
    local_hits: AtomicU64,
    remote_hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    replica_writes: AtomicU64,
    replica_skips: AtomicU64,
    dead_skips: AtomicU64,
    fault_kills: AtomicU64,
    heals: AtomicU64,
    remote_bytes: AtomicU64,
    /// f64 bits of the accumulated simulated remote-fetch seconds.
    remote_seconds_bits: AtomicU64,
}

impl std::fmt::Debug for DistributedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistributedStore")
            .field("root", &self.root)
            .field("nodes", &self.router.nodes())
            .field("replicas", &self.router.replicas())
            .finish()
    }
}

impl DistributedStore {
    /// Open (or create) the store at `root`, with one shard directory
    /// `node<k>` per simulated node. Every node starts alive; shard indexes
    /// replay exactly like a single-directory [`ArtifactCache`].
    pub fn open(root: impl Into<PathBuf>, cfg: DistributedConfig) -> io::Result<DistributedStore> {
        let root = root.into();
        let router = ShardRouter::new(cfg.nodes, cfg.replicas);
        let mut shards = Vec::with_capacity(cfg.nodes);
        for k in 0..cfg.nodes {
            let mut cache =
                ArtifactCache::open(root.join(format!("node{k}")), cfg.byte_budget_per_node)?;
            if let Some(bytes) = cfg.index_compact_bytes {
                cache = cache.with_index_compact_bytes(bytes);
            }
            shards.push(Shard {
                cache,
                alive: AtomicBool::new(true),
            });
        }
        Ok(DistributedStore {
            root,
            router,
            shards,
            fetch: cfg.fetch,
            local_hits: AtomicU64::new(0),
            remote_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            replica_writes: AtomicU64::new(0),
            replica_skips: AtomicU64::new(0),
            dead_skips: AtomicU64::new(0),
            fault_kills: AtomicU64::new(0),
            heals: AtomicU64::new(0),
            remote_bytes: AtomicU64::new(0),
            remote_seconds_bits: AtomicU64::new(0),
        })
    }

    /// Number of simulated nodes.
    pub fn nodes(&self) -> usize {
        self.shards.len()
    }

    /// The placement router (for tests and tooling).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// True when node `k` is alive.
    fn alive(&self, k: usize) -> bool {
        self.shards[k].alive.load(Ordering::Relaxed)
    }

    /// Simulate the death of node `k`: its shard stops serving reads and
    /// receiving writes until [`revive_node`](Self::revive_node). The
    /// node's disk is untouched (a rebooted node comes back with its data).
    pub fn kill_node(&self, k: usize) {
        self.shards[k].alive.store(false, Ordering::Relaxed);
        telemetry::instant!("store", "node_killed", k as u64);
    }

    /// Bring node `k` back (its on-disk shard state intact).
    pub fn revive_node(&self, k: usize) {
        self.shards[k].alive.store(true, Ordering::Relaxed);
    }

    /// Per-shard cache counters for node `k`.
    pub fn shard_stats(&self, k: usize) -> CacheStats {
        self.shards[k].cache.stats()
    }

    /// Store-level counters.
    pub fn stats(&self) -> DistStats {
        DistStats {
            local_hits: self.local_hits.load(Ordering::Relaxed),
            remote_hits: self.remote_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            replica_writes: self.replica_writes.load(Ordering::Relaxed),
            replica_skips: self.replica_skips.load(Ordering::Relaxed),
            dead_skips: self.dead_skips.load(Ordering::Relaxed),
            fault_kills: self.fault_kills.load(Ordering::Relaxed),
            heals: self.heals.load(Ordering::Relaxed),
            remote_bytes: self.remote_bytes.load(Ordering::Relaxed),
        }
    }

    /// Total simulated seconds spent on remote fetches (per the
    /// [`RemoteFetchModel`]).
    pub fn remote_seconds(&self) -> f64 {
        f64::from_bits(self.remote_seconds_bits.load(Ordering::Relaxed))
    }

    fn add_remote_seconds(&self, s: f64) {
        let mut cur = self.remote_seconds_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + s).to_bits();
            match self.remote_seconds_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    fn fault_kill(&self, node: usize) {
        self.shards[node].alive.store(false, Ordering::Relaxed);
        self.fault_kills.fetch_add(1, Ordering::Relaxed);
        telemetry::instant!("store", "fault_killed_node", node as u64);
    }

    /// Store `payload` under `key` on its replica set. The first *live*
    /// placement node must accept the write (its error propagates — an
    /// artifact with zero copies is a hard failure); each further replica
    /// polls [`SITE_REPLICATE`] and degrades to under-replication on
    /// trouble. Returns the content digest.
    pub fn insert(&self, key: CacheKey, payload: &[u8]) -> io::Result<Digest> {
        let _span = telemetry::span!("store", "insert", payload.len());
        let placement = self.router.placement(key);
        let mut digest = None;
        for &node in &placement {
            if !self.alive(node) {
                self.dead_skips.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if digest.is_none() {
                // First live replica: the required write.
                digest = Some(self.shards[node].cache.insert(key, payload)?);
                continue;
            }
            // Secondary replica: degrade on trouble, never fail the insert.
            match faults::poll_site(None, SITE_REPLICATE, SITE_REPLICATE) {
                Some(Fired::Transient) => {
                    self.replica_skips.fetch_add(1, Ordering::Relaxed);
                    telemetry::count!("store", "replica_skips", 1);
                    continue;
                }
                Some(Fired::Crash) => {
                    // The target node dies mid-replication.
                    self.fault_kill(node);
                    continue;
                }
                None => {}
            }
            match self.shards[node].cache.insert(key, payload) {
                Ok(_) => {
                    self.replica_writes.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    self.replica_skips.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        match digest {
            Some(d) => {
                self.inserts.fetch_add(1, Ordering::Relaxed);
                Ok(d)
            }
            None => Err(io::Error::other(format!(
                "no live replica target among {placement:?}"
            ))),
        }
    }

    /// Fetch and verify the payload under `key`, preferring the primary
    /// and falling over to replicas. Non-primary attempts poll
    /// [`SITE_FETCH_REMOTE`] and charge the fetch model. `None` only when
    /// no live replica holds a verifiable copy — the caller recomputes,
    /// and the result is byte-identical to a store-less run.
    pub fn lookup(&self, key: CacheKey) -> Option<Vec<u8>> {
        let _span = telemetry::span!("store", "lookup");
        for (i, &node) in self.router.placement(key).iter().enumerate() {
            if !self.alive(node) {
                self.dead_skips.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if i > 0 {
                match faults::poll_site(None, SITE_FETCH_REMOTE, SITE_FETCH_REMOTE) {
                    Some(Fired::Transient) => {
                        // Link hiccup: this replica is unreachable for this
                        // fetch; try the next one.
                        telemetry::count!("store", "fetch_faults", 1);
                        continue;
                    }
                    Some(Fired::Crash) => {
                        // The remote node dies; route around it.
                        self.fault_kill(node);
                        continue;
                    }
                    None => {}
                }
            }
            if let Some(payload) = self.shards[node].cache.lookup(key) {
                if i > 0 {
                    let cost = self.fetch.fetch_seconds(payload.len() as u64);
                    self.add_remote_seconds(cost);
                    self.remote_bytes
                        .fetch_add(payload.len() as u64, Ordering::Relaxed);
                    self.remote_hits.fetch_add(1, Ordering::Relaxed);
                    telemetry::count!("store", "remote_hits", 1);
                    telemetry::observe!("store", "fetch_us", (cost * 1e6) as u64);
                } else {
                    self.local_hits.fetch_add(1, Ordering::Relaxed);
                    telemetry::count!("store", "local_hits", 1);
                }
                return Some(payload);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        telemetry::count!("store", "misses", 1);
        None
    }

    /// The resubmission gate: true when some live replica passes the
    /// metadata-level check of [`ArtifactCache::contains_verified`]. No
    /// payload crosses the interconnect (that is the point of the
    /// metadata-level gate), so no fetch cost and no
    /// [`SITE_FETCH_REMOTE`] poll.
    pub fn contains_verified(&self, key: CacheKey) -> bool {
        for &node in &self.router.placement(key) {
            if !self.alive(node) {
                self.dead_skips.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if self.shards[node].cache.contains_verified(key) {
                return true;
            }
        }
        false
    }

    /// Restore full replication: for every artifact on a live shard, copy
    /// it to live placement nodes that lack it. Heals transient replica
    /// skips and re-protects artifacts after a node death (once a
    /// replacement is alive). Returns replicas restored.
    pub fn heal(&self) -> io::Result<u64> {
        let mut restored = 0u64;
        for (k, shard) in self.shards.iter().enumerate() {
            if !shard.alive.load(Ordering::Relaxed) {
                continue;
            }
            for entry in shard.cache.live_entries() {
                let mut payload: Option<Vec<u8>> = None;
                for &target in &self.router.placement(entry.key) {
                    if target == k || !self.alive(target) {
                        continue;
                    }
                    if self.shards[target].cache.contains_verified(entry.key) {
                        continue;
                    }
                    if payload.is_none() {
                        payload = shard.cache.lookup(entry.key);
                        if payload.is_none() {
                            // Our copy turned out poisoned: nothing to heal
                            // from here.
                            break;
                        }
                    }
                    self.shards[target]
                        .cache
                        .insert(entry.key, payload.as_deref().expect("checked above"))?;
                    restored += 1;
                    self.heals.fetch_add(1, Ordering::Relaxed);
                    telemetry::count!("store", "heals", 1);
                }
            }
        }
        Ok(restored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::{digest_bytes, FingerprintBuilder};
    use std::sync::atomic::AtomicU32;

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "cache_shard_test_{}_{}_{}",
            std::process::id(),
            name,
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn key(tag: &str) -> CacheKey {
        let fp = FingerprintBuilder::new().push_u64(9).finish();
        CacheKey::compose("shard-test", digest_bytes(tag.as_bytes()), fp)
    }

    fn cfg(nodes: usize, replicas: usize) -> DistributedConfig {
        DistributedConfig {
            nodes,
            replicas,
            ..DistributedConfig::default()
        }
    }

    #[test]
    fn insert_places_r_replicas_where_the_router_says() {
        let s = DistributedStore::open(tmpdir("placement"), cfg(5, 3)).unwrap();
        let k = key("artifact");
        s.insert(k, b"bytes of the artifact").unwrap();
        let placement = s.router().placement(k);
        for node in 0..5 {
            let holds = s.shards[node]
                .cache
                .live_entries()
                .iter()
                .any(|e| e.key == k);
            assert_eq!(holds, placement.contains(&node), "node {node}");
        }
        assert_eq!(s.stats().replica_writes, 2);
    }

    #[test]
    fn primary_read_is_local_replica_read_is_remote_and_charged() {
        let mut c = cfg(4, 2);
        c.fetch = RemoteFetchModel::new(0.5, 1000.0);
        let s = DistributedStore::open(tmpdir("remote"), c).unwrap();
        let k = key("x");
        s.insert(k, b"0123456789").unwrap();
        assert_eq!(s.lookup(k).as_deref(), Some(&b"0123456789"[..]));
        assert_eq!(s.stats().local_hits, 1);
        assert_eq!(s.remote_seconds(), 0.0);

        s.kill_node(s.router().primary(k));
        assert_eq!(s.lookup(k).as_deref(), Some(&b"0123456789"[..]));
        let st = s.stats();
        assert_eq!((st.remote_hits, st.remote_bytes), (1, 10));
        let expect = 0.5 + 10.0 / 1000.0;
        assert!((s.remote_seconds() - expect).abs() < 1e-12);
    }

    #[test]
    fn any_single_node_death_leaves_every_artifact_reachable() {
        let dir = tmpdir("singledeath");
        let keys: Vec<CacheKey> = (0..40).map(|i| key(&format!("k{i}"))).collect();
        {
            let s = DistributedStore::open(&dir, cfg(4, 2)).unwrap();
            for (i, &k) in keys.iter().enumerate() {
                s.insert(k, format!("payload {i}").as_bytes()).unwrap();
            }
        }
        for dead in 0..4 {
            let s = DistributedStore::open(&dir, cfg(4, 2)).unwrap();
            s.kill_node(dead);
            for (i, &k) in keys.iter().enumerate() {
                assert_eq!(
                    s.lookup(k).as_deref(),
                    Some(format!("payload {i}").as_bytes()),
                    "key {i} unreachable with node {dead} dead"
                );
                assert!(s.contains_verified(k));
            }
            assert_eq!(s.stats().misses, 0);
        }
    }

    #[test]
    fn wiped_node_is_permanent_loss_but_replicas_cover_and_heal_restores() {
        let dir = tmpdir("wipe");
        let keys: Vec<CacheKey> = (0..30).map(|i| key(&format!("w{i}"))).collect();
        let s = DistributedStore::open(&dir, cfg(3, 2)).unwrap();
        for &k in &keys {
            s.insert(k, b"replicated payload").unwrap();
        }
        // Node 1's local scratch is gone for good.
        s.kill_node(1);
        std::fs::remove_dir_all(dir.join("node1")).unwrap();
        drop(s);
        // Reopen: node1's shard is empty. Everything is still reachable.
        let s = DistributedStore::open(&dir, cfg(3, 2)).unwrap();
        for &k in &keys {
            assert_eq!(s.lookup(k).as_deref(), Some(&b"replicated payload"[..]));
        }
        assert_eq!(s.stats().misses, 0);
        // Heal restores full R=2 replication onto the fresh node1.
        let restored = s.heal().unwrap();
        let on_node1 = keys
            .iter()
            .filter(|k| s.router().placement(**k).contains(&1))
            .count() as u64;
        assert_eq!(restored, on_node1);
        for &k in &keys {
            let live = s.router().placement(k);
            for &n in &live {
                assert!(s.shards[n].cache.live_entries().iter().any(|e| e.key == k));
            }
        }
        // A second heal is a no-op.
        assert_eq!(s.heal().unwrap(), 0);
    }

    #[test]
    fn all_replicas_dead_degrades_to_miss_and_insert_fails_hard() {
        let s = DistributedStore::open(tmpdir("alldead"), cfg(3, 2)).unwrap();
        let k = key("doomed");
        s.insert(k, b"bytes").unwrap();
        for &n in &s.router().placement(k) {
            s.kill_node(n);
        }
        assert_eq!(s.lookup(k), None);
        assert_eq!(s.stats().misses, 1);
        assert!(!s.contains_verified(k));
        assert!(s.insert(k, b"bytes").is_err(), "no live replica target");
    }

    #[test]
    fn primary_shard_miss_falls_over_to_replica_without_a_store_miss() {
        // The primary node is alive but lost its copy (poisoned object):
        // the read must route to the replica, not recompute.
        let s = DistributedStore::open(tmpdir("failover"), cfg(4, 2)).unwrap();
        let k = key("p");
        let d = s.insert(k, b"precious bytes").unwrap();
        let primary = s.router().primary(k);
        std::fs::remove_file(
            s.root
                .join(format!("node{primary}"))
                .join("objects")
                .join(d.to_string()),
        )
        .unwrap();
        assert_eq!(s.lookup(k).as_deref(), Some(&b"precious bytes"[..]));
        let st = s.stats();
        assert_eq!((st.remote_hits, st.misses), (1, 0));
    }

    #[test]
    fn single_node_store_degenerates_to_plain_cache() {
        let s = DistributedStore::open(tmpdir("solo"), cfg(1, 1)).unwrap();
        let k = key("solo");
        s.insert(k, b"alone").unwrap();
        assert_eq!(s.lookup(k).as_deref(), Some(&b"alone"[..]));
        let st = s.stats();
        assert_eq!(
            (st.local_hits, st.remote_hits, st.replica_writes),
            (1, 0, 0)
        );
        assert_eq!(s.remote_seconds(), 0.0);
    }
}
