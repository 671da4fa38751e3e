//! The long-lived workflow **service**: many concurrent campaigns over one
//! shared `dpp` pool and one `simhpc` batch scheduler.
//!
//! The single-campaign pieces ([`crate::runner`] + [`crate::listener`]) run
//! one simulation, one drop directory, one listener thread, then exit. A
//! facility-resident deployment looks different: one long-lived process
//! multiplexes *many* campaigns — each with its own drop directory, cache
//! namespace, and telemetry dimension — over shared infrastructure. This
//! module provides that service:
//!
//! * **Campaign registry** — [`WorkflowService::submit_campaign`] admits a
//!   [`CampaignSpec`] and returns a [`CampaignId`]; per-campaign state
//!   (its watch, executions, catalog, scoped pool counters) lives in a
//!   `CampaignId`-keyed registry.
//! * **Sharded listener** — the watch namespace is partitioned into N
//!   shards, each with its own crash-recovery [`Journal`] and its own
//!   scanning thread. Scan work is queued as due-tasks; a shard worker
//!   prefers its own shard's tasks but **steals** overdue work from other
//!   shards, so one slow campaign cannot starve the rest. A worker is only
//!   a scheduler: every visit is one `Watch::poll` of the campaign's
//!   watch — the same journaled consumer the single-directory listener
//!   runs ([`crate::listener`]: cache gate, retry, journal append,
//!   compaction), fed by the directory source for a whole-file campaign and
//!   by the announcement source ([`crate::stream`]) for a streamed one. The
//!   sharding changes who sweeps, never how a key gets handled.
//! * **Admission control** — every admitted campaign enqueues one batch
//!   job and holds one admission slot until it completes;
//!   when the slots (or the active-campaign bound) fill,
//!   [`ServiceError::Saturated`] is returned as explicit backpressure
//!   instead of panicking or silently dropping the campaign. Slot
//!   occupancy is tracked by the service itself — not derived from the
//!   simulator's job list, whose clock only advances when the cost model
//!   is drained at shutdown — so completing one campaign frees exactly its
//!   own slot and the bound keeps biting for the rest of the service's
//!   life. A completed campaign's job stays queued and is drained into
//!   [`ServiceReport::job_records`] at shutdown.
//! * **Namespace isolation** — every campaign's cache keys are scoped by a
//!   fingerprint of its spec ([`Fingerprint::scoped`]), so two campaigns
//!   can never alias each other's artifacts, while a re-submitted (or solo)
//!   run of the *same* spec shares them. Telemetry emitted while working on
//!   a campaign is stamped with its id ([`telemetry::with_dim`]), and fault
//!   sites are per-campaign ([`faults::campaign_site`]).
//! * **Crash model** — an injected `Crash` at any `service.c<id>.*` or
//!   `listener.*` site kills the whole service incarnation (the process
//!   dies, not one thread): the `died` flag stops every worker and emitter,
//!   [`WorkflowService::crashed`] reports it, and a *new* service over the
//!   same root recovers from the shard journals and the artifact cache —
//!   exactly-once analysis per campaign holds across restarts.

use crate::journal::Journal;
use crate::listener::{
    self, DirSource, ListenerConfig, ListenerReport, Source, SubmitError, Watch,
};
use crate::runner::centers_over_ranks;
use crate::stream::{drop_name, ChunkRef, Payload, StreamHub, StreamSource};
use cache::{
    CacheKey, Digest, DistributedConfig, DistributedStore, Fingerprint, FingerprintBuilder,
    RemoteFetchModel,
};
use cosmotools::{chunk_container, encode_centers, write_container, Container, SnapshotMeta};
use dpp::{Backend, PoolStats, Threaded};
use faults::{FaultInjector, Fired};
use nbody::Particle;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simhpc::{titan, BatchSimulator, JobRecord, JobRequest, MachineSpec, QueuePolicy};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Gravitational softening used by the campaign analysis jobs (part of the
/// product cache fingerprint).
const SOFTENING: f64 = 0.05;

/// Handle to one admitted campaign. Ids are assigned in submission order
/// starting at 1 and are never reused within a service instance, so a fresh
/// service over the same root assigns the same ids to the same submission
/// sequence — which keeps per-campaign fault sites stable across restarts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CampaignId(pub u64);

impl std::fmt::Display for CampaignId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Everything that defines one campaign: its workload and its batch-job
/// shape. The spec — not the numeric id — derives the campaign's cache
/// namespace, so a re-submitted campaign (same name/seed/steps) reuses its
/// own surviving artifacts while two different campaigns never collide.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Unique campaign name; doubles as the drop-directory name under the
    /// service root, so it must be stable across restarts.
    pub name: String,
    /// Seed for the campaign's deterministic Level-2 drops.
    pub seed: u64,
    /// Number of Level-2 drops the campaign emits (and must analyze).
    pub steps: usize,
    /// Node count of the campaign's batch allocation.
    pub nodes: usize,
    /// Requested runtime (seconds) of the campaign's batch allocation.
    pub job_runtime: f64,
    /// Streaming in-transit mode: the emitter publishes halo-particle
    /// chunks into the distributed store as they are produced (announced on
    /// the service's [`StreamHub`]) instead of staging whole `l2_*.hcio`
    /// files, and the analysis side ingests chunk sets instead of scanning
    /// the drop directory. Deliberately **not** part of the campaign's cache
    /// namespace: the chunk protocol is byte-lossless, so
    /// a streamed and a whole-file run of the same spec produce identical
    /// drop bytes, share their analysis artifacts, and assemble
    /// byte-identical catalogs.
    pub stream: bool,
}

impl CampaignSpec {
    /// A spec with default batch shape (4 nodes, 600 s), whole-file mode.
    pub fn new(name: impl Into<String>, seed: u64, steps: usize) -> CampaignSpec {
        CampaignSpec {
            name: name.into(),
            seed,
            steps,
            nodes: 4,
            job_runtime: 600.0,
            stream: false,
        }
    }

    /// Like [`CampaignSpec::new`], but in streaming in-transit mode.
    pub fn streamed(name: impl Into<String>, seed: u64, steps: usize) -> CampaignSpec {
        CampaignSpec {
            stream: true,
            ..CampaignSpec::new(name, seed, steps)
        }
    }

    /// The campaign's cache namespace: a fingerprint of the identity fields.
    fn namespace(&self) -> Fingerprint {
        let mut fp = FingerprintBuilder::new();
        fp.push_str("campaign")
            .push_str(&self.name)
            .push_u64(self.seed)
            .push_u64(self.steps as u64);
        fp.finish()
    }

    /// Fingerprint of the analysis parameters, scoped into this campaign's
    /// namespace. The unscoped half matches what a solo run of the same
    /// analysis would use; the scoping partitions the key space per spec.
    fn product_fingerprint(&self) -> Fingerprint {
        let mut fp = FingerprintBuilder::new();
        fp.push_str("mbp-centers").push_f64(SOFTENING);
        fp.finish().scoped(self.namespace())
    }

    /// Cache key of the analysis product for an input with this digest.
    fn product_key(&self, input: Digest) -> CacheKey {
        CacheKey::compose("centers", input, self.product_fingerprint())
    }

    /// Store key of one streamed Level-2 chunk. Content-addressed by the
    /// chunk bytes and scoped by `(step, index)` within the campaign
    /// namespace, so a restarted emitter re-inserting the same chunk dedups
    /// instead of duplicating.
    fn chunk_key(&self, step: u64, index: u32, chunk: &[u8]) -> CacheKey {
        let mut fp = FingerprintBuilder::new();
        fp.push_str("l2-chunk")
            .push_u64(step)
            .push_u64(index as u64);
        CacheKey::compose(
            "l2chunk",
            cache::digest_bytes(chunk),
            fp.finish().scoped(self.namespace()),
        )
    }
}

/// Why the service refused a request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// Admission control rejected the campaign: the batch queue (or the
    /// active-campaign bound) is full. Back off and resubmit — nothing was
    /// registered, nothing was dropped.
    Saturated {
        /// Work currently occupying the contended resource.
        pending: usize,
        /// The configured bound it ran into.
        limit: usize,
    },
    /// A campaign with this name is already registered; names double as
    /// drop-directory names and must be unique per service root.
    DuplicateName(String),
    /// No campaign with this id is registered.
    UnknownCampaign(CampaignId),
    /// The service is stopping or its incarnation died to an injected
    /// crash; no new campaigns are admitted.
    ShuttingDown,
    /// Filesystem setup for the campaign failed.
    Io(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Saturated { pending, limit } => write!(
                f,
                "service saturated: {pending} pending against a limit of {limit}"
            ),
            ServiceError::DuplicateName(n) => write!(f, "campaign name `{n}` already registered"),
            ServiceError::UnknownCampaign(id) => write!(f, "unknown campaign {id}"),
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::Io(e) => write!(f, "campaign setup failed: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Where a campaign is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignStatus {
    /// Emitting and/or analyzing drops.
    Running,
    /// Every drop analyzed; catalog assembled.
    Completed,
    /// The service incarnation died before this campaign completed.
    Failed,
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Root directory: per-campaign drop dirs, shard journals, and the
    /// shared artifact cache all live under it.
    pub root: PathBuf,
    /// Number of listener shards (scanning threads + journals). Clamped to
    /// at least 1.
    pub shards: usize,
    /// Worker threads of the shared `dpp` pool.
    pub pool_workers: usize,
    /// Bound on concurrently `Running` campaigns; admission beyond it
    /// returns [`ServiceError::Saturated`].
    pub max_active: usize,
    /// Bound on admission slots: each campaign holds one from submission
    /// until it completes (its batch job occupies the queue
    /// for exactly that window). Submissions beyond it return
    /// [`ServiceError::Saturated`].
    pub max_pending_jobs: usize,
    /// Scan cadence per campaign (and the emitters' inter-step pacing).
    pub poll_interval: Duration,
    /// Per-shard journal compaction threshold (see
    /// [`ListenerConfig::journal_compact_bytes`]).
    pub journal_compact_bytes: Option<u64>,
    /// Simulated nodes of the distributed artifact store under
    /// `<root>/cache`. Clamped to at least 1.
    pub store_nodes: usize,
    /// Replicas kept per artifact (clamped to `[1, store_nodes]`); with 2+
    /// the death of any single replica-holding node leaves every artifact
    /// reachable.
    pub store_replicas: usize,
    /// Fault injector consulted at the `service.*` / `listener.*` sites;
    /// `None` falls back to the globally installed injector.
    pub injector: Option<Arc<FaultInjector>>,
    /// Facility model backing the batch queue.
    pub machine: MachineSpec,
    /// Queue policy of the batch simulator.
    pub queue_policy: QueuePolicy,
}

impl ServiceConfig {
    /// Defaults: 2 shards, 4 pool workers, 64 active campaigns, 64 pending
    /// jobs, 4 ms polls, no compaction, a 2-node/2-replica store, Titan
    /// with an ideal queue.
    pub fn new(root: impl Into<PathBuf>) -> ServiceConfig {
        ServiceConfig {
            root: root.into(),
            shards: 2,
            pool_workers: 4,
            max_active: 64,
            max_pending_jobs: 64,
            poll_interval: Duration::from_millis(4),
            journal_compact_bytes: None,
            store_nodes: 2,
            store_replicas: 2,
            injector: None,
            machine: titan(),
            queue_policy: QueuePolicy::ideal(),
        }
    }
}

/// What one campaign did, snapshotted by `report` or at shutdown.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The campaign's id.
    pub id: CampaignId,
    /// The campaign's name.
    pub name: String,
    /// Lifecycle state at snapshot time ([`CampaignStatus::Failed`] when the
    /// incarnation died while the campaign was still running).
    pub status: CampaignStatus,
    /// Assembled catalog bytes; `Some` only once [`CampaignStatus::Completed`].
    pub catalog: Option<Vec<u8>>,
    /// Drop file name → completed analyses (exactly-once means every value
    /// is 1 *summed across incarnations*, not necessarily within one).
    pub executions: BTreeMap<String, u64>,
    /// Drops handled so far (journal-recovered included).
    pub handled: usize,
    /// The campaign's listener-side counters (submissions, retries,
    /// cache skips, compactions).
    pub listener: ListenerReport,
    /// Pool counters attributed to this campaign alone, via its scoped
    /// [`Threaded`] backend handle.
    pub pool: PoolStats,
    /// Catalog-assembly cache misses (0 = every product came from the
    /// artifacts the analysis jobs inserted).
    pub assembly_misses: u64,
}

/// What the whole service did, returned by [`WorkflowService::shutdown`].
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// The incarnation died to an injected crash.
    pub crashed: bool,
    /// One report per registered campaign, keyed by id.
    pub campaigns: BTreeMap<u64, CampaignReport>,
    /// Directory sweeps performed across all shards.
    pub scans: u64,
    /// Sweeps a shard worker stole from another shard's backlog.
    pub steals: u64,
    /// Batch-job records drained from the simulator.
    pub job_records: Vec<JobRecord>,
}

/// A unit of scan work: one campaign due for one sweep. `shard` is the
/// campaign's *owning* shard (which journal its appends go to); any worker
/// may execute the task.
struct ScanTask {
    campaign: u64,
    shard: usize,
    due: Instant,
}

/// Per-campaign state held in the registry.
struct CampaignState {
    id: u64,
    spec: CampaignSpec,
    /// The campaign's ingest over its drop directory (`<root>/<name>/drop`):
    /// the source (directory or announcements), the consumer configuration
    /// (`watch.cfg` also carries the injector the per-campaign sites poll),
    /// the handled set and the listener-side report.
    watch: Watch<Payload>,
    executions: Mutex<BTreeMap<String, u64>>,
    status: Mutex<CampaignStatus>,
    catalog: Mutex<Option<Vec<u8>>>,
    assembly_misses: AtomicU64,
    /// Scoped handle onto the shared pool: counters attribute to this
    /// campaign alone while work still runs on the shared workers.
    backend: Threaded,
    /// Set by shutdown; the emitter thread checks it.
    cancel: AtomicBool,
    emitter: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl CampaignState {
    /// Snapshot the campaign. Each lock is taken in its own statement so
    /// the guard drops before the next acquisition; the watch is read
    /// through its snapshot lock, which no sweep holds for longer than a
    /// few instructions, so a `report` never waits for one.
    fn report(&self, died: bool) -> CampaignReport {
        let status = match *self.status.lock() {
            CampaignStatus::Running if died => CampaignStatus::Failed,
            s => s,
        };
        let catalog = self.catalog.lock().clone();
        let executions = self.executions.lock().clone();
        let (handled, listener) = self.watch.snapshot();
        CampaignReport {
            id: CampaignId(self.id),
            name: self.spec.name.clone(),
            status,
            catalog,
            executions,
            handled,
            listener,
            pool: self.backend.pool_stats().unwrap_or_default(),
            assembly_misses: self.assembly_misses.load(Ordering::Relaxed),
        }
    }
}

/// Shared service state.
struct Inner {
    cfg: ServiceConfig,
    store: Arc<DistributedStore>,
    /// Pub/sub edge for streaming campaigns (topic = campaign id).
    hub: Arc<StreamHub>,
    sim: Mutex<BatchSimulator>,
    registry: Mutex<BTreeMap<u64, Arc<CampaignState>>>,
    queue: Mutex<Vec<ScanTask>>,
    journals: Vec<Journal>,
    /// Base (unscoped) handle onto the shared pool; campaigns derive scoped
    /// handles from it.
    base: Threaded,
    stop: AtomicBool,
    died: AtomicBool,
    /// Admission slots currently held: one per campaign from submission
    /// until completion. The authoritative occupancy behind
    /// [`ServiceConfig::max_pending_jobs`] — the simulator's own pending
    /// count cannot serve here because its clock stands still until the
    /// cost model is drained at shutdown. Incremented under the registry
    /// lock at submission; decremented under the owning campaign's status
    /// lock at release, so a reader that observes `Completed`
    /// through that lock also observes the freed slot.
    jobs_pending: AtomicU64,
    next_id: AtomicU64,
    steals: AtomicU64,
    scans: AtomicU64,
    drained: Mutex<Vec<JobRecord>>,
}

/// The multi-campaign workflow service. See the module docs for the model.
pub struct WorkflowService {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkflowService {
    /// Start the service: open the sharded, replicated artifact store under
    /// `<root>/cache` (remote-fetch costs drawn from the machine model's
    /// interconnect), create one journal per shard, and spawn the shard
    /// workers. No campaigns run until submitted.
    pub fn start(cfg: ServiceConfig) -> std::io::Result<WorkflowService> {
        std::fs::create_dir_all(&cfg.root)?;
        let store = Arc::new(DistributedStore::open(
            cfg.root.join("cache"),
            DistributedConfig {
                nodes: cfg.store_nodes.max(1),
                replicas: cfg.store_replicas,
                fetch: RemoteFetchModel::new(cfg.machine.net.latency, cfg.machine.net.per_node_bw),
                ..DistributedConfig::default()
            },
        )?);
        let shards = cfg.shards.max(1);
        let journals: Vec<Journal> = (0..shards)
            .map(|k| Journal::new(cfg.root.join(format!("shard{k}.journal"))))
            .collect();
        let base = Threaded::new(cfg.pool_workers.max(1));
        let sim = BatchSimulator::new(cfg.machine.clone(), cfg.queue_policy.clone());
        let inner = Arc::new(Inner {
            cfg,
            store,
            hub: Arc::default(),
            sim: Mutex::new(sim),
            registry: Mutex::new(BTreeMap::new()),
            queue: Mutex::new(Vec::new()),
            journals,
            base,
            stop: AtomicBool::new(false),
            died: AtomicBool::new(false),
            jobs_pending: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            steals: AtomicU64::new(0),
            scans: AtomicU64::new(0),
            drained: Mutex::new(Vec::new()),
        });
        let workers = (0..shards)
            .map(|k| {
                let i = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("service-shard{k}"))
                    .spawn(move || shard_worker(i, k))
                    .expect("spawn shard worker")
            })
            .collect();
        Ok(WorkflowService { inner, workers })
    }

    /// Admit a campaign: admission control first (active bound, then the
    /// batch-queue slots), then filesystem setup and journal recovery, and
    /// only then the batch-job enqueue, registration, and the emitter
    /// spawn — so no error path leaves a job queued without a registered
    /// campaign behind it. On [`ServiceError::Saturated`] nothing was
    /// registered — back off and resubmit.
    pub fn submit_campaign(&self, spec: CampaignSpec) -> Result<CampaignId, ServiceError> {
        let inner = &self.inner;
        if inner.stop.load(Ordering::SeqCst) || inner.died.load(Ordering::SeqCst) {
            return Err(ServiceError::ShuttingDown);
        }
        let mut registry = inner.registry.lock();
        if registry.values().any(|c| c.spec.name == spec.name) {
            return Err(ServiceError::DuplicateName(spec.name));
        }
        let active = registry
            .values()
            .filter(|c| *c.status.lock() == CampaignStatus::Running)
            .count();
        if active >= inner.cfg.max_active {
            telemetry::count!("service", "admission_rejections", 1);
            return Err(ServiceError::Saturated {
                pending: active,
                limit: inner.cfg.max_active,
            });
        }
        let held = inner.jobs_pending.load(Ordering::SeqCst) as usize;
        if held >= inner.cfg.max_pending_jobs {
            telemetry::count!("service", "admission_rejections", 1);
            return Err(ServiceError::Saturated {
                pending: held,
                limit: inner.cfg.max_pending_jobs,
            });
        }
        // Filesystem setup before the enqueue: failing here must not
        // consume a batch-queue slot.
        let dir = inner.cfg.root.join(&spec.name).join("drop");
        std::fs::create_dir_all(&dir).map_err(|e| ServiceError::Io(e.to_string()))?;
        {
            let mut sim = inner.sim.lock();
            let now = sim.now();
            sim.submit(JobRequest::new(
                spec.name.clone(),
                spec.nodes,
                spec.job_runtime,
                now,
            ));
        }
        inner.jobs_pending.fetch_add(1, Ordering::SeqCst);
        let id = inner.next_id.fetch_add(1, Ordering::SeqCst);

        // Crash recovery: collect this campaign's handled files from *every*
        // shard journal, not just the owning one — robust to a shard-count
        // change between incarnations.
        let mut recovered: BTreeSet<PathBuf> = BTreeSet::new();
        for j in &inner.journals {
            if let Ok(entries) = j.load() {
                recovered.extend(entries.into_iter().filter(|p| p.parent() == Some(&*dir)));
            }
        }
        telemetry::count!("service", "journal_recovered", recovered.len());

        let lcfg = ListenerConfig {
            poll_interval: inner.cfg.poll_interval,
            prefix: "l2_".into(),
            suffix: ".hcio".into(),
            injector: inner.cfg.injector.clone(),
            journal_compact_bytes: inner.cfg.journal_compact_bytes,
            ..ListenerConfig::default()
        };
        let source: Box<dyn Source<Item = Payload> + Send> = if spec.stream {
            Box::new(StreamSource::new(id, dir.clone(), &inner.hub, &inner.store))
        } else {
            // A drop that cannot be read right now waits for a later sweep.
            let load = |p: &Path| std::fs::read(p).ok().map(Payload::new);
            Box::new(DirSource::new(dir.clone(), &lcfg, load))
        };
        let shard = (id as usize) % inner.journals.len();
        let journal = Some(inner.journals[shard].clone());
        let watch = Watch::new(dir, lcfg, journal, source, recovered);
        let state = Arc::new(CampaignState {
            id,
            spec,
            watch,
            executions: Mutex::new(BTreeMap::new()),
            status: Mutex::new(CampaignStatus::Running),
            catalog: Mutex::new(None),
            assembly_misses: AtomicU64::new(0),
            backend: inner.base.scoped(),
            cancel: AtomicBool::new(false),
            emitter: Mutex::new(None),
        });
        registry.insert(id, Arc::clone(&state));
        drop(registry);

        let ei = Arc::clone(inner);
        let ec = Arc::clone(&state);
        let handle = std::thread::Builder::new()
            .name(format!("service-emit-c{id}"))
            .spawn(move || run_emitter(ei, ec))
            .expect("spawn campaign emitter");
        *state.emitter.lock() = Some(handle);

        inner.queue.lock().push(ScanTask {
            campaign: id,
            shard,
            due: Instant::now(),
        });
        telemetry::count!("service", "campaigns_admitted", 1);
        Ok(CampaignId(id))
    }

    /// Current status of a campaign. While the incarnation is dead, a
    /// still-running campaign reads as [`CampaignStatus::Failed`].
    pub fn status(&self, id: CampaignId) -> Result<CampaignStatus, ServiceError> {
        let registry = self.inner.registry.lock();
        let c = registry
            .get(&id.0)
            .ok_or(ServiceError::UnknownCampaign(id))?;
        let st = *c.status.lock();
        Ok(match st {
            CampaignStatus::Running if self.inner.died.load(Ordering::SeqCst) => {
                CampaignStatus::Failed
            }
            s => s,
        })
    }

    /// Block until the campaign leaves [`CampaignStatus::Running`] (or the
    /// incarnation dies) and return its final status.
    pub fn wait(&self, id: CampaignId) -> Result<CampaignStatus, ServiceError> {
        loop {
            let st = self.status(id)?;
            if st != CampaignStatus::Running {
                return Ok(st);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Block until every registered campaign has left
    /// [`CampaignStatus::Running`] (or the incarnation dies).
    pub fn wait_all(&self) {
        let ids: Vec<u64> = self.inner.registry.lock().keys().copied().collect();
        for id in ids {
            let _ = self.wait(CampaignId(id));
        }
    }

    /// Snapshot one campaign's report. The registry
    /// lock is released before the snapshot so a slow snapshot (it waits on
    /// the campaign's sweep-side locks) never stalls submissions or the
    /// shard workers.
    pub fn report(&self, id: CampaignId) -> Result<CampaignReport, ServiceError> {
        let c = self
            .inner
            .registry
            .lock()
            .get(&id.0)
            .cloned()
            .ok_or(ServiceError::UnknownCampaign(id))?;
        Ok(c.report(self.inner.died.load(Ordering::SeqCst)))
    }

    /// Did this incarnation die to an injected crash?
    pub fn crashed(&self) -> bool {
        self.inner.died.load(Ordering::SeqCst)
    }

    /// Stop the service: halt the shard workers and emitters, drain the
    /// batch simulator, and return a [`ServiceReport`] covering every still
    /// registered campaign. Campaigns still running at shutdown keep
    /// [`CampaignStatus::Running`] in the report (their state survives in
    /// the journals and cache for the next incarnation).
    pub fn shutdown(mut self) -> ServiceReport {
        self.inner.stop.store(true, Ordering::SeqCst);
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        let campaigns: Vec<Arc<CampaignState>> =
            self.inner.registry.lock().values().cloned().collect();
        for c in &campaigns {
            c.cancel.store(true, Ordering::SeqCst);
            if let Some(h) = c.emitter.lock().take() {
                let _ = h.join();
            }
        }
        let records = self.inner.sim.lock().run_to_completion();
        self.inner.drained.lock().extend(records);
        let died = self.inner.died.load(Ordering::SeqCst);
        ServiceReport {
            crashed: died,
            campaigns: campaigns.iter().map(|c| (c.id, c.report(died))).collect(),
            scans: self.inner.scans.load(Ordering::Relaxed),
            steals: self.inner.steals.load(Ordering::Relaxed),
            job_records: std::mem::take(&mut *self.inner.drained.lock()),
        }
    }
}

impl Drop for WorkflowService {
    fn drop(&mut self) {
        // A service dropped without `shutdown` must not leave threads
        // spinning on the queue forever.
        self.inner.stop.store(true, Ordering::SeqCst);
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        for c in self.inner.registry.lock().values() {
            c.cancel.store(true, Ordering::SeqCst);
            if let Some(h) = c.emitter.lock().take() {
                let _ = h.join();
            }
        }
    }
}

/// One shard worker: pops due scan tasks (its own shard first, then steals),
/// pays the campaign's watch one visit of the shared consumer
/// ([`Watch::poll`], journaling into the campaign's owning shard), and
/// either finalizes the campaign or re-queues the task.
fn shard_worker(inner: Arc<Inner>, me: usize) {
    loop {
        if inner.stop.load(Ordering::SeqCst) || inner.died.load(Ordering::SeqCst) {
            return;
        }
        let task = {
            let now = Instant::now();
            let mut q = inner.queue.lock();
            let pos = q
                .iter()
                .position(|t| t.due <= now && t.shard == me)
                .or_else(|| q.iter().position(|t| t.due <= now));
            pos.map(|i| q.swap_remove(i))
        };
        let Some(task) = task else {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        };
        if task.shard != me {
            inner.steals.fetch_add(1, Ordering::Relaxed);
            telemetry::count!("service", "steals", 1);
        }
        let Some(c) = inner.registry.lock().get(&task.campaign).cloned() else {
            continue;
        };
        if *c.status.lock() != CampaignStatus::Running {
            continue;
        }
        let _dim = telemetry::with_dim(c.id);
        inner.scans.fetch_add(1, Ordering::Relaxed);
        telemetry::count!("service", "scans", 1);

        // One visit of the shared consumer. The gate and the job both work
        // from the item the source loaded: one read, one hash per handling.
        let gate =
            |_: &Path, d: &Payload| inner.store.contains_verified(c.spec.product_key(d.digest));
        let mut job = |key: &Path, d: &Payload| analyze(&inner, &c, key, d);
        if c.watch.poll(&gate, &mut job).is_err() {
            inner.died.store(true, Ordering::SeqCst);
            return;
        }
        let done = c.watch.handled_total() >= c.spec.steps;
        if done {
            finalize(&inner, &c);
        } else {
            inner.queue.lock().push(ScanTask {
                campaign: c.id,
                shard: task.shard,
                due: Instant::now() + inner.cfg.poll_interval,
            });
        }
    }
}

/// The analysis job for one ready drop, whichever source produced it:
/// parse, per-block MBP centers through the campaign's scoped backend,
/// memoize under the campaign's namespaced key in the distributed store,
/// count the completed execution. Consults the per-campaign
/// `service.c<id>.analysis` fault site. The key's file name keys the
/// execution counter (the drop file name in both modes, so exactly-once
/// accounting is mode-independent).
fn analyze(
    inner: &Inner,
    c: &CampaignState,
    key: &Path,
    drop: &Payload,
) -> Result<(), SubmitError> {
    let exec_name = key.file_name().unwrap_or_default().to_string_lossy();
    if inner.died.load(Ordering::SeqCst) {
        return Err(SubmitError("service incarnation is down".into()));
    }
    let site = faults::campaign_site(c.id, "analysis");
    match c.watch.cfg.fault(&site, "service.analysis") {
        Some(Fired::Crash) => {
            inner.died.store(true, Ordering::SeqCst);
            return Err(SubmitError(format!("{site}: crashed by fault injection")));
        }
        Some(Fired::Transient) => {
            return Err(SubmitError(format!("{site}: transient analysis failure")));
        }
        None => {}
    }
    let container = cosmotools::read_container(&drop.bytes)
        .map_err(|e| SubmitError(format!("parse {exec_name}: {e:?}")))?;
    let payload = encode_centers(&centers_over_ranks(&container, SOFTENING, &c.backend));
    inner
        .store
        .insert(c.spec.product_key(drop.digest), &payload)
        .map_err(|e| SubmitError(format!("cache insert: {e}")))?;
    *c.executions
        .lock()
        .entry(exec_name.into_owned())
        .or_insert(0) += 1;
    telemetry::count!("service", "analyses", 1);
    Ok(())
}

/// Campaign completion: assemble the catalog from the cache (deterministic
/// recompute on any degraded entry), mark it completed, and release *its*
/// admission slot — only its own. Draining the whole simulator here would
/// retire every other still-running campaign's job with it, and
/// `max_pending_jobs` would stop bounding anything after the first
/// completion. The job's record is drained at shutdown instead.
fn finalize(inner: &Inner, c: &CampaignState) {
    let (catalog, misses) = assemble(inner, c);
    c.assembly_misses.store(misses, Ordering::Relaxed);
    *c.catalog.lock() = Some(catalog);
    // Slot release and the Running→Completed transition happen under the
    // status lock: a waiter that observes `Completed` (same lock) can rely
    // on the freed slot.
    {
        let mut st = c.status.lock();
        if *st == CampaignStatus::Running {
            inner.jobs_pending.fetch_sub(1, Ordering::SeqCst);
            *st = CampaignStatus::Completed;
        }
    }
    inner.hub.drop_topic(c.id);
    telemetry::count!("service", "campaigns_completed", 1);
}

/// Assemble the campaign catalog: per step, look up the analysis product by
/// the drop's content digest, recomputing deterministically on a miss. The
/// drop bytes are regenerated from the spec — not read back — so assembly
/// is exact even if the drop directory was already cleaned up.
fn assemble(inner: &Inner, c: &CampaignState) -> (Vec<u8>, u64) {
    let mut catalog = Vec::new();
    let mut misses = 0u64;
    for step in 0..c.spec.steps {
        let container = step_container(c.spec.seed, step);
        let bytes = write_container(&container);
        let key = c.spec.product_key(cache::digest_bytes(&bytes));
        let payload = match inner.store.lookup(key) {
            Some(p) => p,
            None => {
                misses += 1;
                let p = encode_centers(&centers_over_ranks(&container, SOFTENING, &c.backend));
                let _ = inner.store.insert(key, &p);
                p
            }
        };
        catalog.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        catalog.extend_from_slice(&payload);
    }
    (catalog, misses)
}

/// The campaign emitter: publishes the deterministic Level-2 drop of every
/// step, one *unit* at a time — the whole file, or each chunk of a streamed
/// campaign. The loop owns what both modes share: the stop / died / cancel
/// check before every attempt, the retry pacing, and what an injected crash
/// means (the incarnation dies). How a unit goes out, and where the
/// `service.c<id>.emit` poll sits in it, is up to [`publish_file`] or
/// [`publish_chunk`].
fn run_emitter(inner: Arc<Inner>, c: Arc<CampaignState>) {
    let _dim = telemetry::with_dim(c.id);
    for step in 0..c.spec.steps {
        let container = step_container(c.spec.seed, step);
        let units = if c.spec.stream {
            chunk_container(&container)
        } else {
            vec![write_container(&container)]
        };
        // A block-less container travels as one `total = 0` sentinel chunk.
        let empty = container.blocks.is_empty();
        let total = if empty { 0 } else { units.len() as u32 };
        for (index, unit) in units.iter().enumerate() {
            loop {
                if inner.stop.load(Ordering::SeqCst)
                    || inner.died.load(Ordering::SeqCst)
                    || c.cancel.load(Ordering::SeqCst)
                {
                    return;
                }
                let published = if c.spec.stream {
                    publish_chunk(&inner, &c, step as u64, index as u32, total, unit)
                } else {
                    publish_file(&c, step, unit)
                };
                match published {
                    Ok(true) => break,
                    Ok(false) => std::thread::sleep(Duration::from_millis(1)),
                    Err(listener::Died) => {
                        inner.died.store(true, Ordering::SeqCst);
                        return;
                    }
                }
            }
        }
        std::thread::sleep(inner.cfg.poll_interval);
    }
}

/// One poll of the campaign's `service.c<id>.emit` site.
fn emit_fault(c: &CampaignState) -> Option<Fired> {
    let site = faults::campaign_site(c.id, "emit");
    c.watch.cfg.fault(&site, "service.emit")
}

/// One attempt to publish a whole-file drop (`Ok(false)` asks for a retry):
/// stage it as `name.tmp`, poll the emit site in the window between staging
/// and publish (a crash there strands a `.tmp` the listeners must never
/// submit), rename into place. An already-published step is done — that is
/// how a restarted incarnation resumes.
fn publish_file(c: &CampaignState, step: usize, bytes: &[u8]) -> Result<bool, listener::Died> {
    let path = c.watch.dir.join(drop_name(step));
    if path.exists() {
        return Ok(true);
    }
    let tmp = c.watch.dir.join(format!("{}.tmp", drop_name(step)));
    if std::fs::write(&tmp, bytes).is_err() {
        return Ok(false);
    }
    match emit_fault(c) {
        Some(Fired::Crash) => Err(listener::Died),
        Some(Fired::Transient) => {
            let _ = std::fs::remove_file(&tmp);
            Ok(false)
        }
        None => Ok(std::fs::rename(&tmp, &path).is_ok()),
    }
}

/// One attempt to publish one chunk of a streamed step (`Ok(false)` asks for
/// a retry): poll the emit site, insert the chunk into the distributed
/// store, announce it on the campaign's hub topic. A crash mid-step leaves
/// the set incomplete — the torn state the analysis side must tolerate. A
/// restarted incarnation re-runs all steps: inserts dedup by content and
/// re-announced handled steps are filtered out, so resuming is idempotent.
fn publish_chunk(
    inner: &Inner,
    c: &CampaignState,
    step: u64,
    index: u32,
    total: u32,
    bytes: &[u8],
) -> Result<bool, listener::Died> {
    match emit_fault(c) {
        Some(Fired::Crash) => return Err(listener::Died),
        Some(Fired::Transient) => return Ok(false),
        None => {}
    }
    let key = c.spec.chunk_key(step, index, bytes);
    if inner.store.insert(key, bytes).is_err() {
        return Ok(false);
    }
    let len = bytes.len() as u64;
    let chunk = ChunkRef {
        step,
        index,
        total,
        key,
        len,
    };
    inner.hub.publish(c.id, chunk);
    telemetry::count!("service", "chunks_published", 1);
    Ok(true)
}

/// The deterministic Level-2 container for one campaign step: a few
/// particle blocks (one synthetic "halo" per block) with tags unique within
/// the campaign.
fn step_container(seed: u64, step: usize) -> Container {
    let mut rng = StdRng::seed_from_u64(seed ^ (step as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let nblocks = 2 + step % 2;
    let mut blocks = Vec::with_capacity(nblocks);
    let mut tag = (step as u64) * 10_000;
    for b in 0..nblocks {
        let n = 5 + (step * 5 + b * 3) % 7;
        let center = [
            rng.gen_range(4.0..60.0f32),
            rng.gen_range(4.0..60.0f32),
            rng.gen_range(4.0..60.0f32),
        ];
        let mut block = Vec::with_capacity(n);
        for _ in 0..n {
            let pos = [
                center[0] + rng.gen_range(-0.5..0.5f32),
                center[1] + rng.gen_range(-0.5..0.5f32),
                center[2] + rng.gen_range(-0.5..0.5f32),
            ];
            block.push(Particle::at_rest(pos, 1.0, tag));
            tag += 1;
        }
        blocks.push(block);
    }
    Container {
        meta: SnapshotMeta {
            step: step as u64,
            redshift: 0.5,
            box_size: 64.0,
        },
        blocks,
    }
}

/// The catalog a fault-free *solo* run of this spec produces: per step, the
/// serial analysis of the deterministic drop, length-framed exactly like
/// the service's assembly. Byte equality against this is the service's
/// isolation oracle.
pub fn reference_catalog(spec: &CampaignSpec) -> Vec<u8> {
    let mut catalog = Vec::new();
    for step in 0..spec.steps {
        let payload = encode_centers(&centers_over_ranks(
            &step_container(spec.seed, step),
            SOFTENING,
            &dpp::Serial,
        ));
        catalog.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        catalog.extend_from_slice(&payload);
    }
    catalog
}

/// The store node holding the *primary* copy of `spec`'s step-`step`
/// analysis product under a `nodes`-node store. Placement is a pure
/// function of the key, so tests and explorers can pick a node whose
/// death provably forces a remote (fail-over) fetch rather than wiping a
/// node at random and hoping something lived there.
pub fn product_primary_node(spec: &CampaignSpec, step: usize, nodes: usize) -> usize {
    let bytes = write_container(&step_container(spec.seed, step));
    let key = spec.product_key(cache::digest_bytes(&bytes));
    cache::ShardRouter::new(nodes, 1).primary(key)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("hacc_service_test")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn quick_cfg(root: PathBuf) -> ServiceConfig {
        ServiceConfig {
            poll_interval: Duration::from_millis(2),
            ..ServiceConfig::new(root)
        }
    }

    #[test]
    fn drops_are_deterministic_and_step_distinct() {
        let a = write_container(&step_container(7, 1));
        let b = write_container(&step_container(7, 1));
        assert_eq!(a, b);
        let c = write_container(&step_container(7, 0));
        assert_ne!(a, c);
        let d = write_container(&step_container(8, 1));
        assert_ne!(a, d);
    }

    #[test]
    fn threaded_analysis_matches_the_serial_reference() {
        let spec = CampaignSpec::new("det", 0xBEEF, 3);
        let threaded = Threaded::new(4);
        let mut catalog = Vec::new();
        for step in 0..spec.steps {
            let payload = encode_centers(&centers_over_ranks(
                &step_container(spec.seed, step),
                SOFTENING,
                &threaded,
            ));
            catalog.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            catalog.extend_from_slice(&payload);
        }
        assert_eq!(catalog, reference_catalog(&spec));
    }

    #[test]
    fn one_campaign_completes_with_the_solo_catalog() {
        let svc = WorkflowService::start(quick_cfg(scratch("single"))).unwrap();
        let spec = CampaignSpec::new("alpha", 11, 3);
        let id = svc.submit_campaign(spec.clone()).unwrap();
        assert_eq!(svc.wait(id).unwrap(), CampaignStatus::Completed);
        let rep = svc.report(id).unwrap();
        assert_eq!(rep.catalog.as_deref(), Some(&reference_catalog(&spec)[..]));
        assert_eq!(rep.assembly_misses, 0, "products must come from the cache");
        assert!(
            (0..spec.steps).all(|s| rep.executions.get(&drop_name(s)) == Some(&1)),
            "each drop analyzed exactly once: {:?}",
            rep.executions
        );
        let report = svc.shutdown();
        assert!(!report.crashed);
        assert_eq!(report.job_records.len(), 1);
    }

    #[test]
    fn concurrent_campaigns_are_isolated_and_match_solo_runs() {
        let svc = WorkflowService::start(quick_cfg(scratch("multi"))).unwrap();
        let specs: Vec<CampaignSpec> = (0..4)
            .map(|k| CampaignSpec::new(format!("camp{k}"), 100 + k as u64, 2 + k % 2))
            .collect();
        let ids: Vec<CampaignId> = specs
            .iter()
            .map(|s| svc.submit_campaign(s.clone()).unwrap())
            .collect();
        svc.wait_all();
        let report = svc.shutdown();
        assert!(!report.crashed);
        for (spec, id) in specs.iter().zip(&ids) {
            let rep = &report.campaigns[&id.0];
            assert_eq!(rep.status, CampaignStatus::Completed, "{}", spec.name);
            assert_eq!(
                rep.catalog.as_deref(),
                Some(&reference_catalog(spec)[..]),
                "campaign {} drifted from its solo catalog",
                spec.name
            );
            assert!(
                (0..spec.steps).all(|s| rep.executions.get(&drop_name(s)) == Some(&1)),
                "campaign {} executions: {:?}",
                spec.name,
                rep.executions
            );
        }
        // Distinct seeds produce distinct catalogs — equality above is not
        // vacuous.
        let c0 = report.campaigns[&ids[0].0].catalog.clone().unwrap();
        let c1 = report.campaigns[&ids[1].0].catalog.clone().unwrap();
        assert_ne!(c0, c1);
    }

    #[test]
    fn scoped_pool_counters_attribute_per_campaign() {
        let svc = WorkflowService::start(quick_cfg(scratch("scoped"))).unwrap();
        let a = svc
            .submit_campaign(CampaignSpec::new("heavy", 1, 4))
            .unwrap();
        let b = svc
            .submit_campaign(CampaignSpec::new("light", 2, 2))
            .unwrap();
        svc.wait_all();
        let report = svc.shutdown();
        let ra = &report.campaigns[&a.0];
        let rb = &report.campaigns[&b.0];
        assert!(ra.pool.dispatches > 0, "campaign a dispatched through pool");
        assert!(rb.pool.dispatches > 0, "campaign b dispatched through pool");
        // 4 steps of analysis dispatch at least as much as 2 steps.
        assert!(
            ra.pool.dispatches >= rb.pool.dispatches,
            "a={} b={}",
            ra.pool.dispatches,
            rb.pool.dispatches
        );
    }

    #[test]
    fn saturated_admission_is_backpressure_not_a_drop() {
        let mut cfg = quick_cfg(scratch("saturated"));
        cfg.max_pending_jobs = 2;
        let svc = WorkflowService::start(cfg).unwrap();
        let a = svc.submit_campaign(CampaignSpec::new("s0", 1, 2)).unwrap();
        let _b = svc.submit_campaign(CampaignSpec::new("s1", 2, 2)).unwrap();
        let err = svc
            .submit_campaign(CampaignSpec::new("s2", 3, 2))
            .unwrap_err();
        assert_eq!(
            err,
            ServiceError::Saturated {
                pending: 2,
                limit: 2
            }
        );
        // Completion drains the batch queue; the same spec then admits.
        assert_eq!(svc.wait(a).unwrap(), CampaignStatus::Completed);
        svc.submit_campaign(CampaignSpec::new("s2", 3, 2))
            .expect("admission slot freed by completion");
        svc.wait_all();
        let report = svc.shutdown();
        assert!(!report.crashed);
    }

    /// Review regression: `report()` (a documented while-running API) must
    /// never deadlock against a shard worker mid-sweep.
    /// The old code held the `scan` guard while taking `lreport` inside a
    /// struct-literal snapshot — the inverse of the sweep's order — so
    /// hammering snapshots while campaigns run would wedge the service.
    #[test]
    fn snapshots_while_sweeping_never_deadlock() {
        let svc = WorkflowService::start(quick_cfg(scratch("snap-hammer"))).unwrap();
        let spec = CampaignSpec::new("busy", 77, 25);
        let id = svc.submit_campaign(spec.clone()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let rep = svc.report(id).expect("campaign is registered");
            let _ = svc.status(id).unwrap();
            if rep.status == CampaignStatus::Completed {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "campaign never completed — snapshot/sweep deadlock?"
            );
        }
        let rep = svc.report(id).unwrap();
        assert_eq!(rep.status, CampaignStatus::Completed);
        assert_eq!(rep.catalog.as_deref(), Some(&reference_catalog(&spec)[..]));
        svc.shutdown();
    }

    /// Review regression: one campaign completing must release only its
    /// own slot. The old finalize drained the whole simulator, so after
    /// the first completion `max_pending_jobs` stopped bounding anything.
    #[test]
    fn backpressure_still_binds_after_a_completion() {
        let mut cfg = quick_cfg(scratch("post-completion-bound"));
        cfg.max_pending_jobs = 2;
        let svc = WorkflowService::start(cfg).unwrap();
        svc.submit_campaign(CampaignSpec::new("long", 1, 200))
            .unwrap();
        let short = svc
            .submit_campaign(CampaignSpec::new("short", 2, 2))
            .unwrap();
        assert_eq!(svc.wait(short).unwrap(), CampaignStatus::Completed);
        // One slot freed by the completion; `long` still holds the other.
        let filler = svc
            .submit_campaign(CampaignSpec::new("filler", 3, 2))
            .expect("the completed campaign's slot is free");
        match svc.submit_campaign(CampaignSpec::new("overflow", 4, 2)) {
            Err(ServiceError::Saturated {
                pending: 2,
                limit: 2,
            }) => {}
            other => panic!("backpressure must persist after a completion, got {other:?}"),
        }
        let _ = svc.wait(filler);
        let report = svc.shutdown();
        assert!(!report.crashed);
    }

    #[test]
    fn active_campaign_bound_rejects_with_saturated() {
        let mut cfg = quick_cfg(scratch("active-bound"));
        cfg.max_active = 1;
        let svc = WorkflowService::start(cfg).unwrap();
        // Long campaign so it is still running at the second submission.
        let _a = svc.submit_campaign(CampaignSpec::new("a", 1, 50)).unwrap();
        match svc.submit_campaign(CampaignSpec::new("b", 2, 2)) {
            Err(ServiceError::Saturated { limit: 1, .. }) => {}
            other => panic!("expected Saturated, got {other:?}"),
        }
        drop(svc);
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let svc = WorkflowService::start(quick_cfg(scratch("dup"))).unwrap();
        svc.submit_campaign(CampaignSpec::new("same", 1, 2))
            .unwrap();
        assert_eq!(
            svc.submit_campaign(CampaignSpec::new("same", 9, 3)),
            Err(ServiceError::DuplicateName("same".into()))
        );
        svc.wait_all();
        svc.shutdown();
    }

    #[test]
    fn campaign_fault_sites_only_touch_their_own_campaign() {
        let mut cfg = quick_cfg(scratch("faulty-neighbor"));
        // Campaign 1's analysis fails transiently on its first two attempts;
        // campaign 2 must not notice.
        cfg.injector = Some(
            faults::FaultPlan::new(3)
                .with_site(
                    faults::SiteSpec::transient(faults::campaign_site(1, "analysis"), 1.0)
                        .with_max_faults(2),
                )
                .build(),
        );
        let svc = WorkflowService::start(cfg).unwrap();
        let s1 = CampaignSpec::new("flaky", 21, 2);
        let s2 = CampaignSpec::new("steady", 22, 2);
        let a = svc.submit_campaign(s1.clone()).unwrap();
        let b = svc.submit_campaign(s2.clone()).unwrap();
        svc.wait_all();
        let report = svc.shutdown();
        assert!(!report.crashed);
        let ra = &report.campaigns[&a.0];
        let rb = &report.campaigns[&b.0];
        assert!(ra.listener.submit_retries > 0, "faults were retried");
        assert_eq!(rb.listener.submit_retries, 0, "neighbor saw no retries");
        assert_eq!(ra.catalog.as_deref(), Some(&reference_catalog(&s1)[..]));
        assert_eq!(rb.catalog.as_deref(), Some(&reference_catalog(&s2)[..]));
    }

    #[test]
    fn emit_crash_kills_the_incarnation_and_a_restart_recovers() {
        let root = scratch("crash-restart");
        let specs = [
            CampaignSpec::new("r0", 31, 2),
            CampaignSpec::new("r1", 32, 2),
        ];
        // Injector persists across incarnations so the crash fires exactly
        // once (first hit of campaign 1's emit site).
        let injector = faults::FaultPlan::new(7)
            .with_site(faults::SiteSpec::crash_at(
                faults::campaign_site(1, "emit"),
                0,
            ))
            .build();
        let mut executions: BTreeMap<(String, String), u64> = BTreeMap::new();
        let mut catalogs: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        let mut incarnations = 0;
        while incarnations < 5 && catalogs.len() < specs.len() {
            incarnations += 1;
            let mut cfg = quick_cfg(root.clone());
            // Note: scratch() wiped the root before the first incarnation
            // only; later incarnations reuse the journals and cache.
            cfg.root = root.clone();
            cfg.injector = Some(Arc::clone(&injector));
            let svc = WorkflowService::start(cfg).unwrap();
            let ids: Vec<_> = specs
                .iter()
                .filter_map(|s| svc.submit_campaign(s.clone()).ok())
                .collect();
            // Wait until everything settled or the incarnation died.
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                let settled = ids
                    .iter()
                    .all(|id| svc.status(*id).map(|s| s != CampaignStatus::Running) == Ok(true));
                if settled || svc.crashed() || Instant::now() > deadline {
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            let report = svc.shutdown();
            for rep in report.campaigns.values() {
                for (file, n) in &rep.executions {
                    *executions
                        .entry((rep.name.clone(), file.clone()))
                        .or_insert(0) += n;
                }
                if rep.status == CampaignStatus::Completed {
                    catalogs.insert(rep.name.clone(), rep.catalog.clone().unwrap());
                }
            }
        }
        assert!(
            incarnations >= 2,
            "the crash must have killed incarnation 1"
        );
        for spec in &specs {
            assert_eq!(
                catalogs.get(&spec.name).map(|c| &c[..]),
                Some(&reference_catalog(spec)[..]),
                "campaign {} recovered catalog drifted",
                spec.name
            );
            for s in 0..spec.steps {
                assert_eq!(
                    executions.get(&(spec.name.clone(), drop_name(s))),
                    Some(&1),
                    "campaign {} step {s} not exactly-once: {executions:?}",
                    spec.name
                );
            }
        }
        let fired = injector.site_stats();
        assert!(
            fired.get("service.c1.emit").is_some_and(|&(_, f)| f > 0),
            "armed crash never fired: {fired:?}"
        );
    }

    #[test]
    fn streaming_campaign_matches_the_solo_catalog() {
        let svc = WorkflowService::start(quick_cfg(scratch("stream"))).unwrap();
        let spec = CampaignSpec::streamed("streamy", 91, 4);
        let id = svc.submit_campaign(spec.clone()).unwrap();
        assert_eq!(svc.wait(id).unwrap(), CampaignStatus::Completed);
        let rep = svc.report(id).unwrap();
        assert_eq!(
            rep.catalog.as_deref(),
            Some(&reference_catalog(&spec)[..]),
            "streamed catalog must be byte-identical to the whole-file oracle"
        );
        assert_eq!(rep.assembly_misses, 0, "products must come from the store");
        assert!(
            (0..spec.steps).all(|s| rep.executions.get(&drop_name(s)) == Some(&1)),
            "each streamed step analyzed exactly once: {:?}",
            rep.executions
        );
        let report = svc.shutdown();
        assert!(!report.crashed);
    }

    #[test]
    fn streamed_and_wholefile_campaigns_share_artifacts() {
        // Whole-file run first; then a *streamed* run of the same
        // (name, seed, steps) over the same root. The chunk protocol is
        // byte-lossless and the stream flag is outside the namespace, so
        // every streamed step must hit the cache gate: zero analyses, all
        // steps cache-skipped, identical catalog.
        let root = scratch("stream-shared");
        let spec = CampaignSpec::new("xmodal", 55, 3);
        let svc = WorkflowService::start(quick_cfg(root.clone())).unwrap();
        let id = svc.submit_campaign(spec.clone()).unwrap();
        assert_eq!(svc.wait(id).unwrap(), CampaignStatus::Completed);
        let first = svc.report(id).unwrap();
        svc.shutdown();

        // Wipe the shard journals (but not the store): the streamed re-run
        // must be satisfied by the cache *gate*, not by journal recovery.
        for k in 0..2 {
            let _ = std::fs::remove_file(root.join(format!("shard{k}.journal")));
        }
        let svc = WorkflowService::start(quick_cfg(root)).unwrap();
        let streamed = CampaignSpec {
            stream: true,
            ..spec.clone()
        };
        let id = svc.submit_campaign(streamed).unwrap();
        assert_eq!(svc.wait(id).unwrap(), CampaignStatus::Completed);
        let second = svc.report(id).unwrap();
        svc.shutdown();

        assert_eq!(first.catalog, second.catalog, "cross-mode catalogs differ");
        assert!(
            second.executions.is_empty(),
            "warm streamed re-run must recompute nothing: {:?}",
            second.executions
        );
        assert_eq!(
            second.listener.cache_skipped.len(),
            spec.steps,
            "every streamed step must be satisfied by the surviving artifacts"
        );
    }

    /// Fails at the parent of this change: the whole-file neighbour's
    /// compaction judged *every* entry of the shared shard journal by
    /// `exists()`, which a streamed campaign's virtual keys never pass, so a
    /// restart found none of them and fell back to the cache gate.
    #[test]
    fn streamed_keys_survive_a_neighbours_compaction_on_a_shared_shard() {
        let root = scratch("mixed-compaction");
        let cfg = || ServiceConfig {
            shards: 1,
            journal_compact_bytes: Some(128),
            ..quick_cfg(root.clone())
        };
        // The whole-file campaign outlives the streamed one, so its
        // compactions keep running after the last virtual key is journaled.
        let specs = [
            CampaignSpec::new("files", 61, 8),
            CampaignSpec::streamed("chunks", 62, 4),
        ];
        let run = || {
            let svc = WorkflowService::start(cfg()).unwrap();
            let ids: Vec<_> = specs
                .iter()
                .map(|s| svc.submit_campaign(s.clone()).unwrap())
                .collect();
            svc.wait_all();
            let report = svc.shutdown();
            assert!(!report.crashed);
            ids.iter()
                .map(|id| report.campaigns[&id.0].clone())
                .collect::<Vec<_>>()
        };
        let first = run();
        assert!(
            first[0].listener.compactions > 0,
            "compaction must have run"
        );
        for (rep, spec) in first.iter().zip(&specs) {
            assert_eq!(rep.catalog.as_deref(), Some(&reference_catalog(spec)[..]));
        }
        let streamed = &run()[1];
        assert_eq!(streamed.status, CampaignStatus::Completed);
        assert_eq!(
            streamed.handled, specs[1].steps,
            "recovered from the journal"
        );
        assert!(streamed.listener.submitted.is_empty());
        assert!(
            streamed.listener.cache_skipped.is_empty(),
            "the journal, not the cache gate, must answer for every step: {:?}",
            streamed.listener.cache_skipped
        );
    }

    #[test]
    fn streaming_survives_the_death_of_one_replica_holding_node() {
        // 3-node store, 2 replicas. Run a streamed campaign to completion,
        // kill+wipe one store node, and re-run the same spec streamed in a
        // fresh service over the same root: every artifact must still be
        // reachable through the surviving replicas — zero recomputes and a
        // byte-identical catalog.
        let root = scratch("stream-kill");
        let spec = CampaignSpec::streamed("killable", 77, 3);
        let mut cfg = quick_cfg(root.clone());
        cfg.store_nodes = 3;
        cfg.store_replicas = 2;
        let svc = WorkflowService::start(cfg).unwrap();
        let id = svc.submit_campaign(spec.clone()).unwrap();
        assert_eq!(svc.wait(id).unwrap(), CampaignStatus::Completed);
        let cold = svc.report(id).unwrap();
        svc.shutdown();

        // Simulate losing node 1's disk entirely between incarnations.
        let node_dir = root.join("cache").join("node1");
        assert!(node_dir.is_dir(), "store must shard per node");
        std::fs::remove_dir_all(&node_dir).unwrap();

        let mut cfg = quick_cfg(root);
        cfg.store_nodes = 3;
        cfg.store_replicas = 2;
        let svc = WorkflowService::start(cfg).unwrap();
        let id = svc.submit_campaign(spec.clone()).unwrap();
        assert_eq!(svc.wait(id).unwrap(), CampaignStatus::Completed);
        let warm = svc.report(id).unwrap();
        svc.shutdown();

        assert_eq!(
            cold.catalog, warm.catalog,
            "catalog drifted after node loss"
        );
        assert_eq!(warm.catalog.as_deref(), Some(&reference_catalog(&spec)[..]));
        assert!(
            warm.executions.is_empty(),
            "replicas must cover the lost node — zero recomputes, got {:?}",
            warm.executions
        );
    }

    #[test]
    fn work_stealing_crosses_shard_boundaries() {
        let mut cfg = quick_cfg(scratch("steal"));
        cfg.shards = 2;
        let svc = WorkflowService::start(cfg).unwrap();
        // All campaigns land on shard 1 (ids 1,3,5 → 1%2, 3%2, 5%2) by
        // submitting odd ids only... ids are sequential, so instead submit
        // enough campaigns that both shards get work and steals can happen.
        for k in 0..6 {
            svc.submit_campaign(CampaignSpec::new(format!("w{k}"), 40 + k, 3))
                .unwrap();
        }
        svc.wait_all();
        let report = svc.shutdown();
        assert!(!report.crashed);
        assert!(report.scans > 0);
        for rep in report.campaigns.values() {
            assert_eq!(rep.status, CampaignStatus::Completed, "{}", rep.name);
        }
    }
}
