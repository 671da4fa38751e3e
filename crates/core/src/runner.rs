//! Real end-to-end execution of the workflows (paper §4.2) on an actual
//! (downscaled) simulation: the same algorithms, the same data movement,
//! real files on disk, a real listener — measured in local wall seconds.
//! The `model` module projects the same structure onto the paper's
//! platforms; this module proves the plumbing works and exhibits the same
//! qualitative trade-offs.
//!
//! Every [`Strategy`] is the same stages — find, split at a threshold, ship
//! Level 2, center, merge — under a different placement, so one executor,
//! [`TestBed::run`], walks the stages a strategy declares (DESIGN.md §9
//! "Workflow wiring" has the stage × strategy table).

use crate::cost::PhaseSeconds;
use crate::listener::{CacheGate, Listener, ListenerConfig};
use cache::{ArtifactCache, CacheKey, Digest, Fingerprint, FingerprintBuilder};
use comm::{redistribute, CartDecomp, World};
use cosmotools::{
    centers_from_catalog, centers_from_level2, merge_center_sets, write_level2_container,
    CenterRecord, Container, RenderParams, SnapshotMeta,
};
use dpp::Backend;
use faults::{BackoffPolicy, FaultInjector, Fired};
use halo::{fof_and_centers_timed, FofConfig, HaloCatalog, RankTiming};
use nbody::{Particle, SimConfig, Simulation};
use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The fault site consulted before each in-situ analysis step of the
/// co-scheduled workflow.
pub const RUNNER_FAULT_SITE: &str = "runner.insitu";

/// The fault site consulted before each in-situ visualization frame is
/// rendered and emitted by the co-scheduled workflow.
pub const RENDER_FAULT_SITE: &str = "render.emit";

/// Configuration of a real workflow comparison run.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Simulation setup (box, particle count, steps).
    pub sim: SimConfig,
    /// Virtual node (rank) count for the distributed analysis.
    pub nranks: usize,
    /// Post-processing rank count for the combined workflow.
    pub post_ranks: usize,
    /// FOF linking length in mean interparticle spacings.
    pub linking_length: f64,
    /// Minimum halo size kept.
    pub min_size: usize,
    /// In-situ / off-line split threshold (particles).
    pub threshold: usize,
    /// Potential softening.
    pub softening: f64,
    /// Scratch directory for the Level 1/2 files.
    pub workdir: PathBuf,
    /// Fault injector consulted at [`RUNNER_FAULT_SITE`]; `None` falls back
    /// to the globally installed injector (usually none — no faults).
    pub injector: Option<Arc<FaultInjector>>,
    /// Retry policy for transient in-situ analysis failures.
    pub insitu_retry: BackoffPolicy,
    /// Artifact cache for incremental re-execution: off-line analysis steps
    /// are memoized under `(operation, input digest, config fingerprint)`
    /// keys, so re-running a strategy over unchanged inputs reuses the
    /// existing Level 3 products instead of recomputing them. `None`
    /// disables memoization (every run computes from scratch).
    pub cache: Option<Arc<ArtifactCache>>,
    /// In-situ visualization: when set, the co-scheduled workflow renders a
    /// density projection frame at *every* simulation step (the render
    /// workload is bandwidth-bound, not compute-bound) into
    /// `workdir/coscheduled/render/`. `None` disables rendering entirely —
    /// zero behavior change for halo-only runs. `ng³` must fit in a `u32`
    /// (`ng` ≤ 1625; a deck's render sections are checked against it, this
    /// field is not).
    pub render: Option<RenderParams>,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            sim: SimConfig {
                np: 32,
                ng: 32,
                nsteps: 30,
                ..SimConfig::default()
            },
            nranks: 8,
            post_ranks: 2,
            linking_length: 0.2,
            min_size: 20,
            threshold: 200,
            softening: 1e-3,
            workdir: std::env::temp_dir().join(format!("hacc_runner_{}", std::process::id())),
            injector: None,
            insitu_retry: BackoffPolicy {
                base_seconds: 0.001,
                factor: 2.0,
                max_delay_seconds: 0.05,
                max_attempts: 5,
            },
            cache: None,
            render: None,
        }
    }
}

impl RunnerConfig {
    fn decomp(&self) -> CartDecomp {
        CartDecomp::new(self.nranks, self.sim.cosmology.box_size)
    }

    /// FOF configuration derived from the run.
    pub fn fof(&self) -> FofConfig {
        let l = self.sim.cosmology.box_size;
        let np = self.sim.np as f64;
        let link = self.linking_length * l / np;
        FofConfig {
            link_length: link,
            min_size: self.min_size,
            // As wide as feasible: FOF chains can stretch far beyond a
            // virial radius, and the overload shell must cover the largest
            // halo extent (paper §3.3.1).
            overload_width: (25.0 * link).min(0.45 * self.decomp().min_block_width()),
        }
    }

    /// Fingerprint of every parameter that shapes an analysis result. Two
    /// configs with the same *input bytes* but, say, a different linking
    /// length or threshold produce disjoint cache keys — changed parameters
    /// can never alias a stale artifact.
    fn fingerprint(&self) -> Fingerprint {
        let mut fp = FingerprintBuilder::new();
        fp.push_str("runner-analysis-v1")
            .push_u64(self.sim.np as u64)
            .push_u64(self.sim.ng as u64)
            .push_u64(self.sim.nsteps as u64)
            .push_u64(self.sim.seed)
            .push_f64(self.sim.z_init)
            .push_f64(self.sim.z_final)
            .push_f64(self.sim.cosmology.omega_m)
            .push_f64(self.sim.cosmology.h)
            .push_f64(self.sim.cosmology.ns)
            .push_f64(self.sim.cosmology.sigma_cell)
            .push_f64(self.sim.cosmology.box_size)
            .push_u64(self.nranks as u64)
            .push_u64(self.post_ranks as u64)
            .push_f64(self.linking_length)
            .push_u64(self.min_size as u64)
            .push_u64(self.threshold as u64)
            .push_f64(self.softening);
        // Render parameters shape the frame artifacts; fold them in only
        // when rendering is on so halo-only runs keep their historical keys.
        if let Some(rp) = &self.render {
            fp.push_str("render-v1")
                .push_u64(rp.ng as u64)
                .push_u64(rp.axis.code() as u64)
                .push_u64(rp.byte_budget)
                .push_u64(rp.lod_seed);
        }
        fp.finish()
    }

    /// Cache key for the analysis of one input artifact under this config.
    fn cache_key(&self, op: &str, input: Digest) -> CacheKey {
        CacheKey::compose(op, input, self.fingerprint())
    }

    /// Stage (c), the fault guard every in-situ stage enters through. One
    /// poll of `site` per attempt (the explicit injector when configured,
    /// otherwise the global one): a stall delays the stage, a transient
    /// failure retries under `insitu_retry` and is counted into `retries`, a
    /// crash or exhausted retries fail it — the caller owns the degradation.
    fn guard(&self, site: &'static str, retries: &mut u64) -> bool {
        let mut attempt: u32 = 0;
        loop {
            match faults::poll_site(self.injector.as_deref(), site, site) {
                None => return true,
                Some(Fired::Crash) => return false,
                Some(Fired::Transient) => {
                    attempt += 1;
                    *retries += 1;
                    telemetry::count!("runner", "insitu_retries", 1);
                    if attempt >= self.insitu_retry.max_attempts {
                        return false;
                    }
                    std::thread::sleep(self.insitu_retry.delay(attempt - 1));
                }
            }
        }
    }

    /// Stage (d), first half: bin particles onto their spatial owner ranks
    /// (the "already distributed in memory" state).
    fn distribute(&self, particles: &[Particle]) -> Vec<Vec<Particle>> {
        let decomp = self.decomp();
        let mut per_rank: Vec<Vec<Particle>> = vec![Vec::new(); self.nranks];
        for p in particles {
            per_rank[decomp.owner_of(p.pos_f64())].push(*p);
        }
        per_rank
    }

    /// Stage (d), second half: distributed FOF + centers up to `threshold`;
    /// per-rank catalogs and find/center timings.
    fn analyze(
        &self,
        per_rank: &[Vec<Particle>],
        threshold: usize,
        backend: &dyn Backend,
    ) -> (Vec<HaloCatalog>, Vec<RankTiming>) {
        let decomp = self.decomp();
        let fof = self.fof();
        let results = World::new(self.nranks).run(|c| {
            fof_and_centers_timed(
                c,
                &decomp,
                &per_rank[c.rank()],
                &fof,
                backend,
                self.softening,
                threshold,
            )
        });
        results.into_iter().unzip()
    }
}

/// One of the six workflow strategies (paper §4.2), as plain data: what is
/// shipped off the simulation, how it travels, and what triggers the
/// off-line stage. All of them yield the same Level 3 catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Everything in situ: nothing is shipped — no I/O, no redistribution.
    InSitu,
    /// Level 1 (the raw particles) to disk, read back, redistributed,
    /// everything analyzed off-line.
    Offline,
    /// Combined: in-situ find + small centers, Level 2 (the particles of the
    /// halos above [`RunnerConfig::threshold`]) shipped by the given
    /// transport, off-line centers for the large halos, merge.
    Combined(Transport),
    /// Combined, co-scheduled variation: the simulation re-runs with an
    /// in-situ hook that emits a Level 2 file every `emit_every` steps (and
    /// at the last); a listener submits a real analysis job (thread) per
    /// file while the simulation is still stepping.
    CombinedCoScheduled {
        /// Steps between Level 2 emits (at least 1).
        emit_every: usize,
    },
}

/// How the Level 2 container of a combined strategy reaches the centering
/// stage. All three carry the same serialized bytes, so the variations share
/// memoized center sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// The simple variation: through `level2.hcio`, read back only when the
    /// off-line job actually runs.
    File,
    /// The in-transit variation (§4.2's hypothetical third option): the
    /// Level 2 data never touches the file system — it is handed to the
    /// analysis stage through shared memory, paying only the redistribution.
    Memory,
    /// In-transit, **streamed**: as per-block HCCK chunks through the small
    /// replicated `stream_store/` instead of being handed over whole.
    Chunks,
}

impl Strategy {
    /// Every strategy, the co-scheduled one at `emit_every = 4`.
    pub const ALL: [Strategy; 6] = [
        Strategy::InSitu,
        Strategy::Offline,
        Strategy::Combined(Transport::File),
        Strategy::Combined(Transport::Memory),
        Strategy::Combined(Transport::Chunks),
        Strategy::CombinedCoScheduled { emit_every: 4 },
    ];

    /// The strategy's name: [`WorkflowRun::strategy`] and its telemetry span.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::InSitu => "in-situ",
            Strategy::Offline => "off-line",
            Strategy::Combined(Transport::File) => "combined (simple)",
            Strategy::Combined(Transport::Memory) => "combined (in-transit)",
            Strategy::Combined(Transport::Chunks) => "combined (in-transit, streamed)",
            Strategy::CombinedCoScheduled { .. } => "combined (co-scheduled)",
        }
    }
}

/// Memoize an analysis result: the wall seconds the original computation
/// took (so a hit can be credited as saved node-seconds in the cost report)
/// followed by the fixed-width center records.
fn memo_insert(cache: &ArtifactCache, key: CacheKey, seconds: f64, centers: &[CenterRecord]) {
    let mut memo = seconds.to_bits().to_le_bytes().to_vec();
    memo.extend_from_slice(&cosmotools::encode_centers(centers));
    memo_put(cache, key, &memo);
}

/// Memoization is an optimization: a failed insert (a full disk, a removed
/// cache directory) loses only the memo — the run goes on, and the next one
/// recomputes.
fn memo_put(cache: &ArtifactCache, key: CacheKey, bytes: &[u8]) {
    if cache.insert(key, bytes).is_err() {
        telemetry::count!("runner", "memo_insert_failures", 1);
    }
}

/// Look up and decode a memo written by [`memo_insert`]. A verified hit
/// with an undecodable payload is treated as a miss (the artifact belongs
/// to something else entirely; the caller recomputes — a bad memo must
/// never poison a catalog).
fn memo_lookup(cache: &ArtifactCache, key: CacheKey) -> Option<(f64, Vec<CenterRecord>)> {
    let bytes = cache.lookup(key)?;
    let secs_bytes: [u8; 8] = bytes.get(..8)?.try_into().ok()?;
    let seconds = f64::from_bits(u64::from_le_bytes(secs_bytes));
    Some((seconds, cosmotools::decode_centers(&bytes[8..])?))
}

/// Result of executing one workflow for real.
#[derive(Debug, Clone, Default)]
pub struct WorkflowRun {
    /// Strategy label.
    pub strategy: String,
    /// Measured phase wall seconds (local machine).
    pub phases: PhaseSeconds,
    /// The complete, merged center set (Level 3 output).
    pub centers: Vec<CenterRecord>,
    /// Per-rank find/center timings of the main analysis.
    pub rank_timings: Vec<RankTiming>,
    /// For co-scheduled runs: analysis jobs that started before the
    /// simulation finished.
    pub overlapped_jobs: usize,
    /// In-situ stages that failed and degraded gracefully: an analysis step
    /// that fell back to re-shipping the last good Level-2 output, or a
    /// visualization frame that was lost (zero on a fault-free run).
    pub degraded_steps: usize,
    /// Transient in-situ analysis failures absorbed by retries.
    pub insitu_retries: u64,
    /// Thread-pool dispatches issued while this strategy ran (zero for
    /// pool-less backends such as `dpp::Serial`).
    pub pool_dispatches: u64,
    /// Wall seconds spent inside pool dispatches while this strategy ran —
    /// the measured counterpart of the cost model's analysis phase, fed by
    /// the pool's `dispatches` / `dispatch_nanos` counters.
    pub dispatch_overhead_seconds: f64,
    /// Off-line analysis steps answered from the artifact cache.
    pub cache_hits: u64,
    /// Off-line analysis steps that had to compute (and, with a cache
    /// configured, were memoized for next time).
    pub cache_misses: u64,
    /// Wall seconds of analysis the cache hits replaced — what the original
    /// computation of each reused artifact cost when it first ran. Reported
    /// to the cost model as saved node-seconds.
    pub saved_analysis_seconds: f64,
    /// Wall seconds spent rendering and emitting visualization frames
    /// (zero unless [`RunnerConfig::render`] is set on a co-scheduled run).
    pub render_seconds: f64,
    /// Bytes of encoded image frames emitted (HCIM header + PGM payload).
    pub render_bytes: u64,
    /// Visualization frames emitted (computed + cache-replayed).
    pub frames_rendered: u64,
    /// Frames whose encoded bytes were replayed from the artifact cache
    /// instead of being re-rendered.
    pub render_cache_hits: u64,
}

/// Run `f` and add its wall seconds to `acc`.
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed().as_secs_f64();
    out
}

/// Read a Level 1/2 container file this run wrote itself.
fn read_own_file(path: &Path) -> Container {
    cosmotools::read_file(path)
        .expect("io")
        .expect("valid container")
}

/// The shared testbed: one finished simulation reused by every strategy.
pub struct TestBed {
    /// Configuration.
    pub cfg: RunnerConfig,
    /// Final-step particles (Level 1 in memory).
    pub particles: Vec<Particle>,
    /// Wall seconds the simulation itself took.
    pub sim_seconds: f64,
    /// Snapshot metadata.
    pub meta: SnapshotMeta,
}

impl TestBed {
    /// Run the simulation once.
    pub fn create(cfg: RunnerConfig, backend: &dyn Backend) -> TestBed {
        std::fs::create_dir_all(&cfg.workdir).expect("create workdir");
        let t0 = Instant::now();
        let mut sim = Simulation::new(backend, cfg.sim.clone());
        sim.run(backend);
        let sim_seconds = t0.elapsed().as_secs_f64();
        let meta = SnapshotMeta {
            step: sim.step_index() as u64,
            redshift: sim.redshift(),
            box_size: cfg.sim.cosmology.box_size,
        };
        TestBed {
            particles: sim.into_particles(),
            cfg,
            sim_seconds,
            meta,
        }
    }

    /// Rank-local particle sets (the "already distributed in memory" state).
    pub fn distributed(&self) -> Vec<Vec<Particle>> {
        self.cfg.distribute(&self.particles)
    }

    /// [`Strategy::InSitu`].
    pub fn run_in_situ_only(&self, backend: &dyn Backend) -> WorkflowRun {
        self.run(Strategy::InSitu, backend)
    }

    /// [`Strategy::Offline`].
    pub fn run_offline_only(&self, backend: &dyn Backend) -> WorkflowRun {
        self.run(Strategy::Offline, backend)
    }

    /// [`Strategy::Combined`] by [`Transport::File`].
    pub fn run_combined_simple(&self, backend: &dyn Backend) -> WorkflowRun {
        self.run(Strategy::Combined(Transport::File), backend)
    }

    /// [`Strategy::Combined`] by [`Transport::Memory`].
    pub fn run_combined_intransit(&self, backend: &dyn Backend) -> WorkflowRun {
        self.run(Strategy::Combined(Transport::Memory), backend)
    }

    /// [`Strategy::Combined`] by [`Transport::Chunks`].
    pub fn run_combined_intransit_streamed(&self, backend: &dyn Backend) -> WorkflowRun {
        self.run(Strategy::Combined(Transport::Chunks), backend)
    }

    /// [`Strategy::CombinedCoScheduled`].
    pub fn run_combined_coscheduled(
        &self,
        backend: &dyn Backend,
        emit_every: usize,
    ) -> WorkflowRun {
        self.run(Strategy::CombinedCoScheduled { emit_every }, backend)
    }

    /// The one executor, stage (a): open the strategy's span, walk the
    /// stages it declares — in line over the finished simulation, or from a
    /// re-run's step hook with the listener driving the off-line stage — and
    /// assemble the [`WorkflowRun`] with the pool-counter delta of this run.
    pub fn run(&self, strategy: Strategy, backend: &dyn Backend) -> WorkflowRun {
        let _span = telemetry::span!("runner", strategy.label());
        let pool0 = backend.pool_stats().unwrap_or_default();
        let mut run = WorkflowRun {
            strategy: strategy.label().into(),
            ..Default::default()
        };
        match strategy {
            Strategy::CombinedCoScheduled { emit_every } => {
                self.run_stepping(emit_every, backend, &mut run)
            }
            _ => {
                run.phases.sim = self.sim_seconds;
                self.run_inline(strategy, backend, &mut run);
            }
        }
        let pool = backend.pool_stats().unwrap_or_default().delta_since(&pool0);
        run.pool_dispatches = pool.dispatches;
        run.dispatch_overhead_seconds = pool.total_dispatch_nanos as f64 * 1e-9;
        run
    }

    /// Stage (b): answer an off-line stage from the artifact cache or
    /// compute it. A verified artifact for exactly this input and
    /// configuration replaces the stage and credits what it cost when it
    /// first ran; on a miss, `compute` runs (billing its own phases) and is
    /// memoized with the phase seconds it added — what a future hit skips.
    fn memoized(
        &self,
        op: &str,
        input: Digest,
        run: &mut WorkflowRun,
        compute: impl FnOnce(&mut WorkflowRun) -> Vec<CenterRecord>,
    ) -> Vec<CenterRecord> {
        let key = self.cfg.cache_key(op, input);
        let cache = self.cfg.cache.as_deref();
        if let Some((saved, centers)) = cache.and_then(|c| memo_lookup(c, key)) {
            run.cache_hits += 1;
            run.saved_analysis_seconds += saved;
            return centers;
        }
        let before = run.phases.total();
        let centers = compute(run);
        if let Some(c) = cache {
            run.cache_misses += 1;
            memo_insert(c, key, run.phases.total() - before, &centers);
        }
        centers
    }

    /// The post-hoc strategies: every stage runs once, in line, over the
    /// testbed's finished simulation.
    fn run_inline(&self, strategy: Strategy, backend: &dyn Backend, run: &mut WorkflowRun) {
        let cfg = &self.cfg;
        // In-situ stage: find everything and center the halos up to the
        // threshold — all of them when nothing is shipped, none when the raw
        // particles are.
        let mut catalogs = Vec::new();
        if strategy != Strategy::Offline {
            let combined = matches!(strategy, Strategy::Combined(_));
            let threshold = if combined { cfg.threshold } else { usize::MAX };
            let per_rank = self.distributed();
            (catalogs, run.rank_timings) = timed(&mut run.phases.analysis, || {
                cfg.analyze(&per_rank, threshold, backend)
            });
        }
        let in_situ_centers = collect_centers(&catalogs);
        let (op, file, transport) = match strategy {
            Strategy::Offline => ("offline_analysis", "level1.hcio", Transport::File),
            Strategy::Combined(transport) => ("l2_centers", "level2.hcio", transport),
            _ => {
                run.centers = in_situ_centers;
                return;
            }
        };

        // Ship stage: Level 1 is one block of particles per rank, Level 2
        // one block per large halo; the serialized bytes are the cache
        // identity of the off-line stage's input.
        let level1 = strategy == Strategy::Offline;
        let shipped = || {
            let meta = self.meta.clone();
            if level1 {
                let blocks = self.distributed();
                Container { meta, blocks }
            } else {
                write_level2_container(&large_halos(catalogs, cfg.threshold), meta)
            }
        };
        let path = cfg.workdir.join(file);
        let (digest, in_memory) = if transport == Transport::File {
            let digest = timed(&mut run.phases.write, || {
                cosmotools::write_file_digest(&path, &shipped()).expect("write shipped level")
            });
            (digest, None)
        } else {
            // Level 2 stays in memory ("Level 2 in external memory" in
            // Table 4): no write, no read — only the redistribution of halo
            // blocks onto the analysis ranks, here a hand-off of the
            // container itself or of its chunks.
            let container = timed(&mut run.phases.redistribute, || match transport {
                Transport::Chunks => self.stream_through_store(&shipped()),
                _ => shipped(),
            });
            (cosmotools::container_digest(&container), Some(container))
        };

        // Off-line stage: the post-processing job — or the memoized centers
        // for exactly these shipped bytes, which replace the whole job. A
        // file is read back only when the job actually runs.
        let off_line_centers = self.memoized(op, digest, run, |run| {
            let container =
                in_memory.unwrap_or_else(|| timed(&mut run.phases.read, || read_own_file(&path)));
            if level1 {
                self.analyze_level1(&container.blocks, backend, run)
            } else {
                // Center each Level 2 block in a small job.
                timed(&mut run.phases.analysis, || {
                    centers_over_ranks(&container, cfg.softening, backend)
                })
            }
        });
        run.centers = merge_center_sets(in_situ_centers, off_line_centers);
    }

    /// The off-line job over Level 1: redistribute, then analyze everything.
    fn analyze_level1(
        &self,
        blocks: &[Vec<Particle>],
        backend: &dyn Backend,
        run: &mut WorkflowRun,
    ) -> Vec<CenterRecord> {
        // The file's blocks land on ranks round-robin (as if freshly read by
        // a different job), then get redistributed to spatial owners.
        let decomp = self.cfg.decomp();
        let nranks = self.cfg.nranks;
        let per_rank = timed(&mut run.phases.redistribute, || {
            World::new(nranks).run(|c| {
                let mine: Vec<Particle> = blocks
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % nranks == c.rank())
                    .flat_map(|(_, b)| b.iter().copied())
                    .collect();
                redistribute(c, &decomp, mine)
            })
        });
        let (catalogs, timings) = timed(&mut run.phases.analysis, || {
            self.cfg.analyze(&per_rank, usize::MAX, backend)
        });
        run.rank_timings = timings;
        collect_centers(&catalogs)
    }

    /// [`Transport::Chunks`]: split the container into per-block chunks that
    /// travel through a small replicated [`cache::DistributedStore`] (3
    /// nodes, 2 replicas, under the workdir): the emitter side publishes each
    /// chunk as produced, the analysis side fetches the set back and
    /// reassembles the container byte-exactly. Because the chunk protocol is
    /// lossless, the reassembled digest equals the whole-container digest and
    /// the memoized center set is shared with the file and memory transports.
    fn stream_through_store(&self, container: &Container) -> Container {
        use cache::{DistributedConfig, DistributedStore};

        let store_dir = self.cfg.workdir.join("stream_store");
        let _ = std::fs::remove_dir_all(&store_dir);
        let store = DistributedStore::open(
            &store_dir,
            DistributedConfig {
                nodes: 3,
                replicas: 2,
                ..DistributedConfig::default()
            },
        )
        .expect("open stream store");
        let fp = self.cfg.fingerprint();
        let keys: Vec<CacheKey> = cosmotools::chunk_container(container)
            .iter()
            .map(|chunk| {
                let key = CacheKey::compose("l2chunk", cache::digest_bytes(chunk), fp);
                store.insert(key, chunk).expect("publish chunk");
                key
            })
            .collect();
        // A replica-holding node dies between publish and ingest; every
        // chunk must still be reachable through its surviving replica.
        store.kill_node(0);
        let fetched: Vec<Vec<u8>> = keys
            .iter()
            .map(|&k| store.lookup(k).expect("chunk lost with one dead node"))
            .collect();
        cosmotools::assemble_chunks(&fetched).expect("reassemble streamed Level 2")
    }

    /// In-situ visualization of one step, independent of the Level-2 emit
    /// cadence. A memoized frame's encoded bytes replay without touching the
    /// renderer (or its fault site), so warm re-runs recompute nothing.
    /// `lod` carries the level-of-detail order from one step to the next.
    fn render_step(
        &self,
        sim: &Simulation,
        backend: &dyn Backend,
        lod: &mut cosmotools::LodCache,
        run: &mut WorkflowRun,
    ) {
        let cfg = &self.cfg;
        let Some(rp) = &cfg.render else {
            return;
        };
        let step = sim.step_index();
        // Frames live in a subdirectory with their own suffix, invisible to
        // the `.hcio` listener sweep; `run_stepping` made it.
        let render_dir = cfg.workdir.join("coscheduled").join("render");
        let _render_span = telemetry::span!("render", "emit", step);
        let t_r = Instant::now();
        let frame_path = render_dir.join(format!("frame_step{step:04}.hcim"));
        let write = |bytes: &[u8]| {
            std::fs::write(&frame_path, bytes)
                .is_ok()
                .then_some(bytes.len())
        };
        let step_digest = cache::digest_bytes(&(step as u64).to_le_bytes());
        let key = cfg.cache_key("render_frame", step_digest);
        let emitted = if let Some(bytes) = cfg.cache.as_deref().and_then(|c| c.lookup(key)) {
            run.render_cache_hits += 1;
            telemetry::count!("render", "cache_hits", 1);
            write(&bytes)
        } else if cfg.guard(RENDER_FAULT_SITE, &mut run.insitu_retries) {
            let box_size = cfg.sim.cosmology.box_size;
            let frame = lod.render_frame(backend, sim.particles(), box_size, rp, step as u64);
            let bytes = cosmotools::write_image(&frame);
            let written = write(bytes.as_ref());
            if let Some(c) = &cfg.cache {
                memo_put(c, key, bytes.as_ref());
            }
            written
        } else {
            None
        };
        if let Some(len) = emitted {
            run.frames_rendered += 1;
            run.render_bytes += len as u64;
        } else {
            // An injected render fault or a failed frame write: this attempt
            // loses the step's frame; a re-run recovers it (every earlier
            // frame replays from the cache, and the injector's crash budget
            // is spent).
            run.degraded_steps += 1;
            telemetry::count!("runner", "render_failures", 1);
        }
        run.render_seconds += t_r.elapsed().as_secs_f64();
    }

    /// The co-scheduled strategy: the simulation re-runs with the in-situ
    /// stages in its step hook, and the listener drives the off-line stage
    /// per emitted file.
    fn run_stepping(&self, emit_every: usize, backend: &dyn Backend, run: &mut WorkflowRun) {
        assert!(
            emit_every > 0,
            "run_combined_coscheduled: emit_every must be at least 1 step"
        );
        let cfg = &self.cfg;
        let dir = cfg.workdir.join("coscheduled");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        if cfg.render.is_some() {
            // Failing here costs frames (each write degrades its step), not
            // the run.
            let _ = std::fs::create_dir_all(dir.join("render"));
        }

        // The analysis-job launcher the listener drives: each file becomes a
        // center-finding job (a thread) yielding `(file, centers, start)`.
        type Job = std::thread::JoinHandle<(PathBuf, Vec<CenterRecord>, f64)>;
        let jobs: Arc<Mutex<Vec<Job>>> = Arc::default();
        let launched = Arc::clone(&jobs);
        let softening = cfg.softening;
        let fingerprint = cfg.fingerprint();
        let l2_key = move |digest| CacheKey::compose("l2_centers", digest, fingerprint);
        // The listener consults the cache before submitting: a file whose
        // analysis artifact already exists and verifies is recorded as
        // handled without spawning a job (crash-restart and duplicate scans
        // never re-submit completed work). Each job that does run memoizes
        // its result, so the *next* co-scheduled run over identical Level 2
        // bytes skips it.
        let gate = cfg.cache.clone().map(|c| {
            CacheGate::new(move |p: &Path| {
                cosmotools::file_digest(p).is_ok_and(|digest| c.contains_verified(l2_key(digest)))
            })
        });
        let job_cache = cfg.cache.clone();
        let sim_start = Instant::now();
        let listener = Listener::spawn(
            dir.clone(),
            ListenerConfig {
                suffix: ".hcio".into(),
                cache_gate: gate,
                ..Default::default()
            },
            move |path| {
                let path = path.to_path_buf();
                let job_cache = job_cache.clone();
                launched.lock().push(std::thread::spawn(move || {
                    // Job start time in the shared epoch, before any work.
                    let started_at = sim_start.elapsed().as_secs_f64();
                    let bytes = std::fs::read(&path).expect("io");
                    let input_digest = cache::digest_bytes(&bytes);
                    let container = cosmotools::read_container(&bytes).expect("valid container");
                    let t_job = Instant::now();
                    let centers = centers_over_ranks(&container, softening, &dpp::Serial);
                    let job_seconds = t_job.elapsed().as_secs_f64();
                    if let Some(c) = &job_cache {
                        memo_insert(c, l2_key(input_digest), job_seconds, &centers);
                    }
                    (path, centers, started_at)
                }));
            },
        );

        // Re-run the simulation with the in-situ hook.
        let mut sim = Simulation::new(backend, cfg.sim.clone());
        let mut last_good: Option<PathBuf> = None;
        let mut small_centers: Vec<CenterRecord> = Vec::new();
        let mut emitted = 0usize;
        let mut lod = cosmotools::LodCache::default();
        sim.run_with_hook(backend, |step, sim| {
            // Rendering precedes the halo stage so an analysis fault can
            // never drop a frame.
            self.render_step(sim, backend, &mut lod, run);
            let last = step == sim.total_steps();
            if !(step % emit_every == 0 || last) {
                return;
            }
            let _step_span = telemetry::span!("runner", "in_situ_step", step);
            // A Level 2 file is emitted at every analysis step (possibly
            // empty — the listener and downstream jobs handle that), exactly
            // like the per-timestep outputs of the paper's co-scheduled runs.
            let path = dir.join(format!("l2_step{step:04}.hcio"));
            let meta = SnapshotMeta {
                step: step as u64,
                redshift: sim.redshift(),
                box_size: cfg.sim.cosmology.box_size,
            };
            emitted += 1;
            // Fault-aware in-situ stage: a transient failure retries under
            // the configured policy; a crash (or exhausted retries) degrades
            // gracefully — the last good Level-2 output is re-shipped for
            // off-line analysis instead, and the step is recorded as
            // degraded in the cost model's `fallback` phase.
            if !cfg.guard(RUNNER_FAULT_SITE, &mut run.insitu_retries) {
                run.degraded_steps += 1;
                telemetry::count!("runner", "degraded_steps", 1);
                timed(&mut run.phases.fallback, || {
                    if let Some(prev) = &last_good {
                        std::fs::copy(prev, &path).expect("fallback copy");
                    } else {
                        // Nothing good yet: an empty Level-2 container keeps
                        // the downstream pipeline shape intact.
                        let container = write_level2_container(&HaloCatalog::new(), meta);
                        cosmotools::write_file(&path, &container).expect("write fallback level 2");
                    }
                });
                return;
            }
            let large = timed(&mut run.phases.analysis, || {
                let per_rank = {
                    let _span = telemetry::span!("runner", "distribute", step);
                    cfg.distribute(sim.particles())
                };
                let (catalogs, _) = cfg.analyze(&per_rank, cfg.threshold, backend);
                if last {
                    small_centers = collect_centers(&catalogs);
                }
                large_halos(catalogs, cfg.threshold)
            });
            {
                let _span = telemetry::span!("runner", "level2_write", step);
                let container = write_level2_container(&large, meta);
                cosmotools::write_file(&path, &container).expect("write level 2");
            }
            last_good = Some(path);
        });
        // Simulation end in the same epoch as the job start times.
        run.phases.sim = sim_start.elapsed().as_secs_f64();

        // Main job done: stop the listener (final sweep) and join jobs.
        let report = listener.stop_report();
        let job_results: Vec<_> = std::mem::take(&mut *jobs.lock())
            .into_iter()
            .map(|job| job.join().expect("analysis job panicked"))
            .collect();
        assert_eq!(
            report.submitted.len() + report.cache_skipped.len(),
            emitted,
            "every emitted file gets a job or a verified cache hit"
        );
        run.overlapped_jobs = job_results
            .iter()
            .filter(|(_, _, started_at)| *started_at < run.phases.sim)
            .count();
        if cfg.cache.is_some() {
            run.cache_misses = report.submitted.len() as u64;
        }

        // Reconcile: the final step's large-halo centers + in-situ centers.
        let last_file = dir.join(format!("l2_step{:04}.hcio", cfg.sim.nsteps));
        let last_job = job_results.into_iter().find(|(p, _, _)| *p == last_file);
        let mut large_centers = last_job.map(|(_, c, _)| c).unwrap_or_default();
        // The gate-skipped files are answered by stage (b), which credits
        // what each reused artifact cost when it was first computed. If an
        // entry vanished between the gate and here (eviction, poisoning),
        // recompute it — degrade to work, never to a wrong catalog.
        for p in &report.cache_skipped {
            let digest = cosmotools::file_digest(p).expect("io");
            let centers = self.memoized("l2_centers", digest, run, |run| {
                timed(&mut run.phases.fallback, || {
                    centers_over_ranks(&read_own_file(p), softening, &dpp::Serial)
                })
            });
            if *p == last_file {
                large_centers = centers;
            }
        }
        run.centers = merge_center_sets(small_centers, large_centers);
    }
}

/// Merge per-rank catalogs into one center list.
fn collect_centers(catalogs: &[HaloCatalog]) -> Vec<CenterRecord> {
    let mut out = Vec::new();
    for cat in catalogs {
        out.extend(centers_from_catalog(cat));
    }
    out.sort_by_key(|r| r.halo_id);
    out
}

/// Stage (e): the halos above `threshold` of every rank's catalog, merged —
/// the content of a Level 2 container.
fn large_halos(catalogs: Vec<HaloCatalog>, threshold: usize) -> HaloCatalog {
    let mut large = HaloCatalog::new();
    for cat in catalogs {
        let (_, l) = cat.split_by_size(threshold);
        large.merge(l);
    }
    large
}

/// Center every block of a Level 2 container, sorted by halo id: the small
/// off-line / co-scheduled job, and the service's per-drop analysis.
/// Parallelism comes from `backend` inside the per-block most-bound-particle
/// search, whose argmin breaks ties by lowest index under a total order, so
/// the records are byte-identical on every backend.
pub fn centers_over_ranks(
    container: &Container,
    softening: f64,
    backend: &dyn Backend,
) -> Vec<CenterRecord> {
    let mut centers = centers_from_level2(backend, container, softening);
    centers.sort_by_key(|r| r.halo_id);
    centers
}

/// Every workflow must find the same halos with the same centers.
pub fn assert_same_centers(x: &[CenterRecord], y: &[CenterRecord]) {
    assert_eq!(x.len(), y.len(), "workflows disagree on halo count");
    for (a, b) in x.iter().zip(y) {
        assert_eq!(a.halo_id, b.halo_id, "halo sets differ");
        assert_eq!(a.count, b.count, "halo {} membership differs", a.halo_id);
        for d in 0..3 {
            assert!(
                (a.center[d] - b.center[d]).abs() < 1e-6,
                "halo {} center differs: {:?} vs {:?}",
                a.halo_id,
                a.center,
                b.center
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpp::Threaded;

    /// Run every strategy ([`Strategy::ALL`]) and verify they all produce the
    /// same Level 3 output.
    fn compare_all(cfg: RunnerConfig, backend: &dyn Backend) -> Vec<WorkflowRun> {
        let bed = TestBed::create(cfg, backend);
        let runs: Vec<WorkflowRun> = Strategy::ALL.iter().map(|&s| bed.run(s, backend)).collect();
        for run in &runs[1..] {
            assert_same_centers(&runs[0].centers, &run.centers);
        }
        runs
    }

    /// One measured Table 2 row: per-rank analysis extremes at a given epoch.
    #[derive(Debug, Clone, PartialEq)]
    struct MeasuredEpoch {
        /// Step index.
        pub step: usize,
        /// Redshift.
        pub redshift: f64,
        /// Slowest rank's FOF seconds.
        pub find_max: f64,
        /// Fastest rank's FOF seconds.
        pub find_min: f64,
        /// Slowest rank's center seconds.
        pub center_max: f64,
        /// Fastest rank's center seconds.
        pub center_min: f64,
        /// Most and fewest particles (local + ghost) any rank linked.
        pub find_work: (u64, u64),
        /// Most and fewest center pair evaluations (Σ nᵢ²) on any rank.
        pub center_work: (u64, u64),
        /// Halos found at this epoch.
        pub n_halos: usize,
        /// Largest halo (particles).
        pub largest: usize,
    }

    /// The measured analog of the paper's Table 2: run the simulation once and
    /// execute the full distributed halo analysis at each step in `at_steps`,
    /// recording per-rank find/center extremes. Shows identification staying
    /// balanced while center finding grows imbalanced as structure forms.
    fn measured_table2(
        cfg: &RunnerConfig,
        backend: &dyn Backend,
        at_steps: &[usize],
    ) -> Vec<MeasuredEpoch> {
        let mut rows = Vec::new();
        let mut sim = Simulation::new(backend, cfg.sim.clone());
        sim.run_with_hook(backend, |step, sim| {
            if !at_steps.contains(&step) {
                return;
            }
            // Ranks are the parallelism; per-rank serial.
            let per_rank = cfg.distribute(sim.particles());
            let (catalogs, timings) = cfg.analyze(&per_rank, usize::MAX, &dpp::Serial);
            let extremes = |seconds: fn(&RankTiming) -> f64| {
                let per_rank = timings.iter().map(seconds);
                let max = per_rank.clone().fold(0.0f64, f64::max);
                (max, per_rank.fold(f64::INFINITY, f64::min))
            };
            let (find_max, find_min) = extremes(|t| t.find_seconds);
            let (center_max, center_min) = extremes(|t| t.center_seconds);
            let work_extremes = |work: fn(&RankTiming) -> u64| {
                let per_rank = timings.iter().map(work);
                (
                    per_rank.clone().max().unwrap_or(0),
                    per_rank.min().unwrap_or(0),
                )
            };
            let n_halos: usize = catalogs.iter().map(|c| c.len()).sum();
            let largest = catalogs
                .iter()
                .flat_map(|c| c.halos.iter().map(|h| h.count()))
                .max()
                .unwrap_or(0);
            rows.push(MeasuredEpoch {
                step,
                redshift: sim.redshift(),
                find_max,
                find_min,
                center_max,
                center_min,
                find_work: work_extremes(|t| t.find_work),
                center_work: work_extremes(|t| t.center_work),
                n_halos,
                largest,
            });
        });
        rows
    }

    fn tiny_cfg(name: &str) -> RunnerConfig {
        RunnerConfig {
            sim: SimConfig {
                np: 16,
                ng: 16,
                nsteps: 30,
                seed: 4242,
                ..SimConfig::default()
            },
            nranks: 4,
            post_ranks: 2,
            linking_length: 0.28,
            threshold: 60,
            min_size: 12,
            workdir: std::env::temp_dir()
                .join(format!("hacc_runner_test_{name}_{}", std::process::id())),
            ..Default::default()
        }
    }

    #[test]
    fn all_strategies_agree_on_level3_output() {
        let backend = Threaded::new(4);
        // `compare_all` itself asserts every catalog equals the in-situ one.
        let runs = compare_all(tiny_cfg("agree"), &backend);
        let labels: Vec<&str> = runs.iter().map(|r| r.strategy.as_str()).collect();
        assert_eq!(
            labels,
            [
                "in-situ",
                "off-line",
                "combined (simple)",
                "combined (in-transit)",
                "combined (in-transit, streamed)",
                "combined (co-scheduled)"
            ]
        );
        assert_eq!(labels, Strategy::ALL.map(Strategy::label));
        // Some halos must actually exist for the comparison to mean anything.
        assert!(
            !runs[0].centers.is_empty(),
            "the toy run must form at least one halo"
        );
        // Off-line pays I/O + redistribution the in-situ run does not.
        assert_eq!(runs[0].phases.read, 0.0);
        assert!(runs[1].phases.read > 0.0);
        assert!(runs[1].phases.write > 0.0);
    }

    #[test]
    #[should_panic(expected = "emit_every must be at least 1")]
    fn coscheduled_rejects_a_zero_emit_cadence() {
        let bed = TestBed::create(tiny_cfg("emit0"), &dpp::Serial);
        bed.run_combined_coscheduled(&dpp::Serial, 0);
    }

    /// The executor's fault surface, pinned: one `render.emit` poll per
    /// rendered frame, one `runner.insitu` poll per analysis step (steps 4
    /// and 8), none for a cache-replayed frame — the `(site, hits)` list the
    /// crash-schedule explorer enumerates.
    #[test]
    fn coscheduled_polls_exactly_the_recorded_fault_sites() {
        let mut cfg = tiny_cfg("polls");
        cfg.sim.nsteps = 8;
        let cache_dir = cfg.workdir.join("artifact_cache");
        let _ = std::fs::remove_dir_all(&cache_dir);
        cfg.cache = Some(Arc::new(ArtifactCache::open(&cache_dir, None).unwrap()));
        cfg.render = Some(cosmotools::RenderParams {
            ng: 12,
            ..Default::default()
        });
        let mut bed = TestBed::create(cfg, &dpp::Serial);
        let polls = |bed: &mut TestBed| {
            let recorder = faults::FaultPlan::record_only(3).build();
            bed.cfg.injector = Some(Arc::clone(&recorder));
            let run = bed.run_combined_coscheduled(&dpp::Serial, 4);
            assert_eq!((run.degraded_steps, run.frames_rendered), (0, 8));
            recorder.sites_reached()
        };
        assert_eq!(
            polls(&mut bed),
            [
                (RENDER_FAULT_SITE.to_string(), 8),
                (RUNNER_FAULT_SITE.to_string(), 2)
            ]
        );
        assert_eq!(polls(&mut bed), [(RUNNER_FAULT_SITE.to_string(), 2)]);
    }

    /// The Level-1 bytes of a 16³ run, pinned by their digest as the parent
    /// of the slice-by-8 codec wrote them: the digest is the memo key's
    /// input identity, so a codec that moved one byte would orphan every
    /// off-line artifact already in a cache.
    #[test]
    fn level1_container_digest_is_pinned() {
        const PINNED: Digest = Digest(0x3379_dbc5_3d67_d0bc_170d_5c8c_5a1b_5557);
        let backend = Threaded::new(2);
        let bed = TestBed::create(tiny_cfg("pinned"), &backend);
        let level1 = Container {
            meta: bed.meta.clone(),
            blocks: bed.distributed(),
        };
        assert_eq!(cosmotools::container_digest(&level1), PINNED);
        let bytes = cosmotools::write_container(&level1);
        assert_eq!(cosmotools::read_container(&bytes).as_ref(), Ok(&level1));
    }

    /// Cold → warm over the four memoizable post-hoc strategies, each
    /// against its own cache: the warm run answers its one off-line stage
    /// from the memo and reproduces the catalog byte for byte.
    #[test]
    fn posthoc_strategies_replay_byte_identical_catalogs_warm() {
        let backend = Threaded::new(4);
        let mut bed = TestBed::create(tiny_cfg("coldwarm"), &backend);
        let memoizable = [
            Strategy::Offline,
            Strategy::Combined(Transport::File),
            Strategy::Combined(Transport::Memory),
            Strategy::Combined(Transport::Chunks),
        ];
        for (i, strategy) in memoizable.iter().enumerate() {
            let cache_dir = bed.cfg.workdir.join(format!("artifact_cache_{i}"));
            let _ = std::fs::remove_dir_all(&cache_dir);
            bed.cfg.cache = Some(Arc::new(ArtifactCache::open(&cache_dir, None).unwrap()));
            let cold = bed.run(*strategy, &backend);
            let warm = bed.run(*strategy, &backend);
            let label = strategy.label();
            assert_eq!((cold.cache_hits, cold.cache_misses), (0, 1), "{label}");
            assert_eq!((warm.cache_hits, warm.cache_misses), (1, 0), "{label}");
            assert!(warm.saved_analysis_seconds > 0.0, "{label}");
            assert_eq!(
                cosmotools::encode_centers(&cold.centers),
                cosmotools::encode_centers(&warm.centers),
                "{label}"
            );
        }
    }

    #[test]
    fn combined_produces_level2_file_only_for_large_halos() {
        let backend = Threaded::new(4);
        let cfg = tiny_cfg("level2");
        let workdir = cfg.workdir.clone();
        let bed = TestBed::create(cfg, &backend);
        let run = bed.run_combined_simple(&backend);
        let l2 = cosmotools::read_file(&workdir.join("level2.hcio"))
            .expect("io")
            .expect("valid");
        for block in &l2.blocks {
            assert!(
                block.len() > bed.cfg.threshold,
                "only large halos belong in Level 2"
            );
        }
        // Merged output covers every centered halo exactly once.
        let ids: Vec<u64> = run.centers.iter().map(|c| c.halo_id).collect();
        let mut dedup = ids.clone();
        dedup.dedup();
        assert_eq!(ids, dedup);
    }

    #[test]
    fn coscheduled_jobs_overlap_the_simulation() {
        let backend = Threaded::new(4);
        let mut cfg = tiny_cfg("cosched");
        // Long enough that a file can sit quiescent for the listener's polls
        // before the last step, even with the rest of the suite on the cores:
        // 30 steps of 16³ take tens of milliseconds.
        cfg.sim.nsteps = 120;
        let bed = TestBed::create(cfg, &backend);
        let run = bed.run_combined_coscheduled(&backend, 3);
        // Files were emitted during the run and analyzed by listener jobs;
        // at least one job must have started before the simulation ended
        // (the entire point of co-scheduling).
        assert!(
            run.overlapped_jobs >= 1,
            "no analysis job overlapped the simulation"
        );
        assert!(!run.centers.is_empty());
    }

    #[test]
    fn measured_table2_shows_growing_center_imbalance() {
        let backend = Threaded::new(4);
        let cfg = RunnerConfig {
            sim: SimConfig {
                np: 32,
                ng: 32,
                nsteps: 30,
                seed: 20150715,
                ..SimConfig::default()
            },
            nranks: 8,
            threshold: usize::MAX,
            min_size: 20,
            workdir: std::env::temp_dir()
                .join(format!("hacc_runner_test_t2_{}", std::process::id())),
            ..Default::default()
        };
        let rows = measured_table2(&cfg, &backend, &[20, 30]);
        assert_eq!(rows.len(), 2);
        // Redshift decreases across epochs; structure (largest halo) grows.
        assert!(rows[0].redshift > rows[1].redshift);
        assert!(rows[1].largest >= rows[0].largest);
        assert!(rows[1].n_halos > 0);
        // The z = 0 epoch: identification balanced, centers not (Table 2's
        // pattern — a toy box has few halos per rank, so the center spread
        // is extreme). Asserted on counted work: seconds on a loaded host say
        // more about the host than about the decomposition.
        let last = &rows[1];
        let ratio = |(max, min): (u64, u64)| max as f64 / min.max(1) as f64;
        let find_ratio = ratio(last.find_work);
        let center_ratio = ratio(last.center_work);
        assert!(find_ratio < 3.0, "find imbalance {find_ratio}");
        assert!(
            center_ratio > find_ratio,
            "center ratio {center_ratio} must exceed find ratio {find_ratio}"
        );
    }

    #[test]
    fn intransit_matches_simple_combined_without_files() {
        let backend = Threaded::new(4);
        let cfg = tiny_cfg("intransit");
        let bed = TestBed::create(cfg, &backend);
        let simple = bed.run_combined_simple(&backend);
        let transit = bed.run_combined_intransit(&backend);
        assert_same_centers(&simple.centers, &transit.centers);
        // No file I/O phases at all.
        assert_eq!(transit.phases.read, 0.0);
        assert_eq!(transit.phases.write, 0.0);
    }

    #[test]
    fn streamed_intransit_matches_simple_and_shares_the_memo() {
        let backend = Threaded::new(4);
        let mut cfg = tiny_cfg("intransit_stream");
        let cache_dir = cfg.workdir.join("artifact_cache");
        let _ = std::fs::remove_dir_all(&cache_dir);
        cfg.cache = Some(Arc::new(ArtifactCache::open(&cache_dir, None).unwrap()));
        let bed = TestBed::create(cfg, &backend);
        let simple = bed.run_combined_simple(&backend);
        assert_eq!((simple.cache_hits, simple.cache_misses), (0, 1));
        // The streamed variation reassembles byte-identical Level 2, so it
        // reuses the simple variation's memoized center set — despite the
        // chunks having crossed a replicated store with one node killed.
        let streamed = bed.run_combined_intransit_streamed(&backend);
        assert_same_centers(&simple.centers, &streamed.centers);
        assert_eq!(
            (streamed.cache_hits, streamed.cache_misses),
            (1, 0),
            "streamed in-transit must share the whole-container artifact"
        );
        // No Level-2 file I/O phases.
        assert_eq!(streamed.phases.read, 0.0);
        assert_eq!(streamed.phases.write, 0.0);
    }

    #[test]
    fn coscheduled_final_centers_match_simple_combined() {
        let backend = Threaded::new(4);
        let cfg = tiny_cfg("coschedmatch");
        let bed = TestBed::create(cfg, &backend);
        let simple = bed.run_combined_simple(&backend);
        let cosched = bed.run_combined_coscheduled(&backend, 4);
        assert_same_centers(&simple.centers, &cosched.centers);
    }

    #[test]
    fn pool_dispatch_totals_are_attributed_per_run() {
        let backend = Threaded::new(4);
        let bed = TestBed::create(tiny_cfg("pooldelta"), &backend);
        // The simulation in `create` already issued dispatches; the per-run
        // delta must count only the strategy's own.
        let run = bed.run_in_situ_only(&backend);
        assert!(run.pool_dispatches > 0, "analysis dispatches were counted");
        assert!(run.dispatch_overhead_seconds > 0.0);
        // A pool-less backend reports zero rather than another pool's totals.
        let serial = bed.run_in_situ_only(&dpp::Serial);
        assert_eq!(serial.pool_dispatches, 0);
        assert_eq!(serial.dispatch_overhead_seconds, 0.0);
    }

    #[test]
    fn warm_rerun_reuses_offline_artifacts_across_strategies() {
        let backend = Threaded::new(4);
        let mut cfg = tiny_cfg("cachewarm");
        let cache_dir = cfg.workdir.join("artifact_cache");
        let _ = std::fs::remove_dir_all(&cache_dir);
        cfg.cache = Some(Arc::new(ArtifactCache::open(&cache_dir, None).unwrap()));
        let bed = TestBed::create(cfg, &backend);

        // Off-line: the second run answers the whole post job from cache.
        let cold = bed.run_offline_only(&backend);
        assert_eq!((cold.cache_hits, cold.cache_misses), (0, 1));
        assert!(cold.phases.analysis > 0.0);
        let warm = bed.run_offline_only(&backend);
        assert_eq!((warm.cache_hits, warm.cache_misses), (1, 0));
        assert_eq!(warm.phases.analysis, 0.0, "no recompute on a warm run");
        assert_eq!(warm.phases.read, 0.0);
        assert!(warm.saved_analysis_seconds > 0.0);
        assert_same_centers(&cold.centers, &warm.centers);

        // Combined: the in-transit variation serializes identical Level 2
        // bytes, so it reuses the simple variation's artifact directly.
        let simple = bed.run_combined_simple(&backend);
        assert_eq!((simple.cache_hits, simple.cache_misses), (0, 1));
        let simple_warm = bed.run_combined_simple(&backend);
        assert_eq!((simple_warm.cache_hits, simple_warm.cache_misses), (1, 0));
        let transit = bed.run_combined_intransit(&backend);
        assert_eq!(
            (transit.cache_hits, transit.cache_misses),
            (1, 0),
            "in-transit must reuse the simple variation's Level 2 artifact"
        );
        assert_same_centers(&simple.centers, &transit.centers);

        // The survival is on disk, not in memory: a fresh handle over the
        // same directory still hits.
        let mut cfg2 = tiny_cfg("cachewarm");
        cfg2.cache = Some(Arc::new(ArtifactCache::open(&cache_dir, None).unwrap()));
        let bed2 = TestBed::create(cfg2, &backend);
        let reopened = bed2.run_offline_only(&backend);
        assert_eq!((reopened.cache_hits, reopened.cache_misses), (1, 0));
        assert_same_centers(&cold.centers, &reopened.centers);
    }

    #[test]
    fn coscheduled_warm_rerun_submits_no_jobs() {
        let backend = Threaded::new(4);
        let mut cfg = tiny_cfg("cachecosched");
        let cache_dir = cfg.workdir.join("artifact_cache");
        let _ = std::fs::remove_dir_all(&cache_dir);
        cfg.cache = Some(Arc::new(ArtifactCache::open(&cache_dir, None).unwrap()));
        let bed = TestBed::create(cfg, &backend);
        let cold = bed.run_combined_coscheduled(&backend, 4);
        assert_eq!(cold.cache_hits, 0, "cold run has nothing to reuse");
        assert!(cold.cache_misses > 0);
        // The re-run emits byte-identical Level 2 files (same seed, same
        // analysis), so the listener's cache gate skips every submission.
        let warm = bed.run_combined_coscheduled(&backend, 4);
        assert_eq!(warm.cache_misses, 0, "warm re-run must submit zero jobs");
        assert_eq!(warm.cache_hits, cold.cache_misses);
        assert!(warm.saved_analysis_seconds > 0.0);
        assert_same_centers(&cold.centers, &warm.centers);
    }

    #[test]
    fn transient_insitu_faults_are_absorbed_by_retries() {
        let backend = Threaded::new(4);
        let mut cfg = tiny_cfg("insitu_transient");
        // Every analysis step fails once, then the retry succeeds.
        cfg.injector = Some(
            faults::FaultPlan::new(11)
                .with_site(faults::SiteSpec::transient(RUNNER_FAULT_SITE, 1.0).with_max_faults(2))
                .build(),
        );
        let bed = TestBed::create(cfg, &backend);
        let baseline = bed.run_combined_simple(&backend);
        let run = bed.run_combined_coscheduled(&backend, 4);
        assert_eq!(run.insitu_retries, 2, "each injected fault costs one retry");
        assert_eq!(run.degraded_steps, 0, "retries absorbed every fault");
        assert_same_centers(&baseline.centers, &run.centers);
    }

    /// Read every frame file in a co-scheduled run's render directory as
    /// `(file name, encoded bytes)`, sorted by name.
    fn frame_catalog(workdir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
        let rdir = workdir.join("coscheduled").join("render");
        let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(&rdir)
            .expect("render dir exists")
            .map(|e| {
                let p = e.expect("dir entry").path();
                (
                    p.file_name().unwrap().to_string_lossy().into_owned(),
                    std::fs::read(&p).expect("read frame"),
                )
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn coscheduled_render_emits_every_step_and_replays_warm() {
        let backend = Threaded::new(4);
        let mut cfg = tiny_cfg("render_warm");
        let cache_dir = cfg.workdir.join("artifact_cache");
        let _ = std::fs::remove_dir_all(&cache_dir);
        cfg.cache = Some(Arc::new(ArtifactCache::open(&cache_dir, None).unwrap()));
        cfg.render = Some(cosmotools::RenderParams {
            ng: 12,
            ..Default::default()
        });
        let bed = TestBed::create(cfg, &backend);
        let cold = bed.run_combined_coscheduled(&backend, 4);
        assert_eq!(
            cold.frames_rendered, bed.cfg.sim.nsteps as u64,
            "one frame per simulation step"
        );
        assert_eq!(cold.render_cache_hits, 0, "cold run has nothing to replay");
        assert!(cold.render_bytes > 0);
        assert!(cold.render_seconds > 0.0);
        let cold_frames = frame_catalog(&bed.cfg.workdir);
        assert_eq!(cold_frames.len() as u64, cold.frames_rendered);
        // Every emitted frame decodes as a valid HCIM image.
        for (name, bytes) in &cold_frames {
            let frame = cosmotools::read_image(bytes).expect("valid frame");
            assert_eq!(frame.width as usize, 12, "frame {name}");
        }
        // Warm re-run: every frame replays from the artifact cache, and the
        // recovered catalog is byte-identical.
        let warm = bed.run_combined_coscheduled(&backend, 4);
        assert_eq!(warm.frames_rendered, cold.frames_rendered);
        assert_eq!(
            warm.render_cache_hits, warm.frames_rendered,
            "warm re-run must recompute no frames"
        );
        assert_eq!(frame_catalog(&bed.cfg.workdir), cold_frames);
        // The render knob leaves the halo pipeline untouched.
        let baseline = bed.run_combined_simple(&backend);
        assert_same_centers(&baseline.centers, &warm.centers);
    }

    #[test]
    fn render_disabled_runs_exactly_as_before() {
        let backend = Threaded::new(4);
        let cfg = tiny_cfg("render_off");
        let bed = TestBed::create(cfg, &backend);
        let run = bed.run_combined_coscheduled(&backend, 4);
        assert_eq!(run.frames_rendered, 0);
        assert_eq!(run.render_bytes, 0);
        assert_eq!(run.render_seconds, 0.0);
        assert!(!bed.cfg.workdir.join("coscheduled").join("render").exists());
    }

    #[test]
    fn render_fingerprints_are_disjoint_per_parameter_set() {
        let base = tiny_cfg("render_fp");
        let mut with_render = base.clone();
        with_render.render = Some(cosmotools::RenderParams::default());
        let mut other_axis = with_render.clone();
        other_axis.render = Some(cosmotools::RenderParams {
            axis: cosmotools::Axis::X,
            ..cosmotools::RenderParams::default()
        });
        assert_ne!(base.fingerprint(), with_render.fingerprint());
        assert_ne!(with_render.fingerprint(), other_axis.fingerprint());
    }

    #[test]
    fn crashed_render_step_loses_one_frame_and_rerun_recovers_it() {
        let backend = Threaded::new(4);
        let mut cfg = tiny_cfg("render_crash");
        let cache_dir = cfg.workdir.join("artifact_cache");
        let _ = std::fs::remove_dir_all(&cache_dir);
        cfg.cache = Some(Arc::new(ArtifactCache::open(&cache_dir, None).unwrap()));
        cfg.render = Some(cosmotools::RenderParams {
            ng: 12,
            ..Default::default()
        });
        cfg.injector = Some(
            faults::FaultPlan::new(9)
                .with_site(faults::SiteSpec::crash_at(RENDER_FAULT_SITE, 3))
                .build(),
        );
        let bed = TestBed::create(cfg, &backend);
        let crashed = bed.run_combined_coscheduled(&backend, 4);
        let total = bed.cfg.sim.nsteps as u64;
        assert_eq!(crashed.frames_rendered, total - 1, "one frame was lost");
        assert_eq!(crashed.degraded_steps, 1);
        // The crash budget is spent; the re-run replays every survivor from
        // the cache and computes only the one missing frame.
        let recovered = bed.run_combined_coscheduled(&backend, 4);
        assert_eq!(recovered.frames_rendered, total);
        assert_eq!(recovered.render_cache_hits, total - 1);
        assert_eq!(recovered.degraded_steps, 0);
        assert_eq!(frame_catalog(&bed.cfg.workdir).len() as u64, total);
    }

    #[test]
    fn unwritable_render_directory_degrades_the_step_instead_of_panicking() {
        let backend = Threaded::new(2);
        let mut cfg = tiny_cfg("render_unwritable");
        cfg.render = Some(cosmotools::RenderParams {
            ng: 12,
            ..Default::default()
        });
        let bed = TestBed::create(cfg, &backend);
        // A file where the render directory should be: every frame write
        // fails.
        let dir = bed.cfg.workdir.join("coscheduled");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("render"), b"not a directory").unwrap();
        let mut sim = Simulation::new(&backend, bed.cfg.sim.clone());
        sim.step(&backend);
        let mut run = WorkflowRun::default();
        bed.render_step(&sim, &backend, &mut Default::default(), &mut run);
        assert_eq!((run.degraded_steps, run.frames_rendered), (1, 0));
        assert!(run.render_seconds > 0.0, "the step was still accounted");
    }

    /// Memoization is an optimization: a cache whose directory turns into a
    /// plain file after opening fails every insert, and the post-hoc and the
    /// co-scheduled runs still complete with their catalogs (and frames),
    /// each analysis counted as a miss.
    #[test]
    fn failed_memo_insert_loses_only_the_memo() {
        let backend = Threaded::new(2);
        let mut cfg = tiny_cfg("memo_insert_fails");
        let cache_dir = cfg.workdir.join("artifact_cache");
        let _ = std::fs::remove_file(&cache_dir);
        let _ = std::fs::remove_dir_all(&cache_dir);
        cfg.cache = Some(Arc::new(ArtifactCache::open(&cache_dir, None).unwrap()));
        std::fs::remove_dir_all(&cache_dir).unwrap();
        std::fs::write(&cache_dir, b"not a directory").unwrap();
        cfg.render = Some(cosmotools::RenderParams {
            ng: 12,
            ..Default::default()
        });
        let bed = TestBed::create(cfg, &backend);
        let simple = bed.run(Strategy::Combined(Transport::File), &backend);
        assert_eq!((simple.cache_hits, simple.cache_misses), (0, 1));
        let cosched = bed.run(Strategy::CombinedCoScheduled { emit_every: 4 }, &backend);
        assert_eq!(cosched.cache_hits, 0);
        assert!(cosched.cache_misses > 0);
        assert_eq!(cosched.frames_rendered, bed.cfg.sim.nsteps as u64);
        assert_eq!(cosched.degraded_steps, 0);
        assert_same_centers(&simple.centers, &cosched.centers);
    }

    #[test]
    fn crashed_insitu_step_degrades_to_last_good_output() {
        let backend = Threaded::new(4);
        let mut cfg = tiny_cfg("insitu_crash");
        // The second analysis step's in-situ stage crashes outright.
        cfg.injector = Some(
            faults::FaultPlan::new(5)
                .with_site(faults::SiteSpec::crash_at(RUNNER_FAULT_SITE, 2))
                .build(),
        );
        let bed = TestBed::create(cfg, &backend);
        let run = bed.run_combined_coscheduled(&backend, 4);
        assert_eq!(run.degraded_steps, 1, "one step fell back");
        assert!(
            run.phases.fallback > 0.0,
            "degradation must be charged to the fallback phase"
        );
        // The workflow still completes with a full catalog: the final step
        // is unaffected, so Level 3 output matches the fault-free runs.
        let baseline = bed.run_combined_simple(&backend);
        assert_same_centers(&baseline.centers, &run.centers);
    }
}
