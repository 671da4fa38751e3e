//! Exhaustive crash-schedule exploration over a miniature co-scheduled
//! workflow.
//!
//! The explorer drives the same moving parts as the real workflow — an
//! emitter staging Level-2 drops, the directory [`Listener`] with journal and
//! cache gate, a two-rank [`World`] analysis job, and the [`ArtifactCache`] —
//! and then systematically crashes it at every fault site the workflow
//! actually reaches:
//!
//! 1. **Reference pass** — a fault-free run establishes the expected catalog
//!    bytes and proves the quiescence gate (zero submit retries, zero cache
//!    misses at assembly).
//! 2. **Record pass** — a [`FaultPlan::record_only`] injector re-runs the
//!    workflow and enumerates every `(site, hits)` pair reached via
//!    [`FaultInjector::sites_reached`]. Nothing is guessed: the schedule list
//!    is derived from execution, so a new `fault_point!` in any crate is
//!    picked up (or flagged) automatically.
//! 3. **Schedule sweep** — for each `(site, hit)` the workflow is re-run from
//!    scratch with [`SiteSpec::crash_at`] arming exactly that occurrence.
//!    Crashed incarnations restart (same directories, same injector — hit
//!    counters continue across incarnations) until the run completes. Each
//!    schedule must converge to a catalog byte-identical to the reference
//!    with every analysis executed exactly once.
//!
//! The workflow is deterministic by construction (seeded inputs, serial
//! per-block analysis) so byte-level catalog comparison is meaningful; only
//! `listener.scan` hit counts are timing-dependent, and those schedules are
//! capped rather than enumerated exhaustively.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::Write as _;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use cache::{ArtifactCache, CacheKey, Digest, FingerprintBuilder};
use comm::World;
use cosmotools::{
    encode_centers, file_digest, read_file, write_container, CenterRecord, Container, SnapshotMeta,
};
use dpp::Serial;
use faults::{FaultInjector, FaultKind, FaultPlan, SiteSpec};
use hacc_core::listener::CacheGate;
use hacc_core::runner::centers_over_ranks;
use hacc_core::{Listener, ListenerConfig, ListenerReport, SubmitError, RUNNER_FAULT_SITE};
use halo::mbp_brute;
use nbody::Particle;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Gravitational softening used by the analysis job (part of the cache
/// fingerprint).
const SOFTENING: f64 = 0.05;
/// Point-to-point tag for shipping partial center sets to rank 0.
const ANALYSIS_TAG: u64 = 7;
/// How long rank 0 waits for rank 1's centers before declaring the job dead.
/// A peer killed by a crash fault never sends; without the timeout the job
/// would hang forever (each rank holds senders for the whole world).
const RECV_TIMEOUT: Duration = Duration::from_millis(500);
/// Index of the workflow step written *slowly* (incrementally, under the
/// final name) to exercise the listener's quiescence gate.
const SLOW_STEP: usize = 1;

/// Every fault site the miniature workflow is expected to reach. The record
/// pass must enumerate at least these; [`ExplorationReport::assert_exhaustive`]
/// fails if any is missing (a silent hole in coverage) — and also fails if the
/// sweep skipped a site the record pass *did* reach (coverage must be 100% of
/// reality, not of this list).
pub const EXPECTED_SITES: [&str; 8] = [
    "cache.read",
    "cache.verify",
    "comm.recv",
    "comm.send",
    "listener.journal",
    "listener.scan",
    "listener.submit",
    "runner.insitu",
];

/// Configuration for [`explore`].
#[derive(Debug, Clone)]
pub struct ExplorerConfig {
    /// Scratch directory; each schedule gets its own subtree.
    pub root: PathBuf,
    /// Seed for workflow inputs and fault-plan RNGs.
    pub seed: u64,
    /// Number of Level-2 drops per run.
    pub steps: usize,
    /// `false`: crash each site at its first hit only. `true`: crash at
    /// every recorded hit (`listener.scan` capped by `scan_hit_cap`).
    pub exhaustive: bool,
    /// Restart budget per schedule before declaring it stuck.
    pub max_incarnations: u32,
    /// Cap on explored `listener.scan` hits: scan polls are wall-clock
    /// driven, so their recorded count is timing noise past the first few.
    pub scan_hit_cap: u64,
}

impl ExplorerConfig {
    /// Defaults: 3 steps, bounded sweep, 6 incarnations per schedule.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        ExplorerConfig {
            root: root.into(),
            seed: 0x5C15,
            steps: 3,
            exhaustive: false,
            max_incarnations: 6,
            scan_hit_cap: 3,
        }
    }
}

/// What one crash schedule did.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// Fault site crashed by this schedule.
    pub site: String,
    /// Which occurrence (0-based hit index) was crashed.
    pub hit: u64,
    /// The armed crash actually fired (it was not dead configuration).
    pub fired: bool,
    /// Incarnations used until the workflow completed (0 = never completed).
    pub incarnations: u32,
    /// Whether the run completed within the incarnation budget.
    pub completed: bool,
    /// Recovered catalog is byte-identical to the reference catalog.
    pub catalog_matches: bool,
    /// Every drop's analysis ran to completion exactly once across all
    /// incarnations (no lost work, no duplicate submission).
    pub exactly_once: bool,
    /// A crash between staging and publish left an orphan `.tmp` visible in
    /// the drop directory before the next incarnation cleaned up.
    pub saw_tmp_orphan: bool,
    /// A `.tmp` path showed up in `submitted`/`cache_skipped` (must never
    /// happen — the listener's `.tmp` exclusion exists for this).
    pub submitted_tmp: bool,
}

/// Result of a full exploration: the enumerated fault surface plus one
/// outcome per explored schedule.
#[derive(Debug, Clone)]
pub struct ExplorationReport {
    /// Every `(site, hits)` pair the record pass observed.
    pub sites_enumerated: Vec<(String, u64)>,
    /// One outcome per explored `(site, hit)` schedule.
    pub schedules: Vec<ScheduleOutcome>,
    /// Catalog bytes from the fault-free reference run.
    pub reference_catalog: Vec<u8>,
}

impl ExplorationReport {
    /// Sites covered by at least one explored schedule.
    pub fn sites_explored(&self) -> BTreeSet<&str> {
        self.schedules.iter().map(|s| s.site.as_str()).collect()
    }

    /// Assert the exploration was complete and every schedule recovered.
    ///
    /// Checks, in order: the record pass reached every [`EXPECTED_SITES`]
    /// entry; every *reached* site was crashed by at least one schedule
    /// (100% coverage of the enumerated surface); every schedule completed
    /// within its restart budget with a byte-identical catalog and
    /// exactly-once submission; armed crashes fired; `.tmp` files were never
    /// submitted; and at least one `runner.insitu` schedule observed the
    /// orphan `.tmp` it is designed to strand.
    ///
    /// # Panics
    ///
    /// On the first violated invariant, with the offending schedule named.
    pub fn assert_exhaustive(&self) {
        let reached: BTreeSet<&str> = self
            .sites_enumerated
            .iter()
            .map(|(s, _)| s.as_str())
            .collect();
        for site in EXPECTED_SITES {
            assert!(
                reached.contains(site),
                "fault site `{site}` was never reached by the workflow; \
                 enumerated surface: {reached:?}"
            );
        }
        let explored = self.sites_explored();
        assert_eq!(
            explored, reached,
            "explored sites differ from enumerated sites — coverage hole"
        );
        for s in &self.schedules {
            let id = format!("schedule crash_at({}, {})", s.site, s.hit);
            assert!(s.fired, "{id}: armed crash never fired");
            assert!(
                s.completed,
                "{id}: workflow did not complete within the restart budget"
            );
            assert!(
                s.catalog_matches,
                "{id}: recovered catalog drifted from reference"
            );
            assert!(
                s.exactly_once,
                "{id}: a drop was analyzed zero or multiple times"
            );
            assert!(!s.submitted_tmp, "{id}: a `.tmp` file was submitted");
        }
        assert!(
            self.schedules
                .iter()
                .any(|s| s.site == RUNNER_FAULT_SITE && s.saw_tmp_orphan),
            "no runner.insitu schedule stranded an orphan .tmp — the \
             exclude-suffix regression is not being exercised"
        );
    }
}

/// Per-schedule working directories.
struct WorkDirs {
    drop_dir: PathBuf,
    journal: PathBuf,
    cache_dir: PathBuf,
}

impl WorkDirs {
    fn create(base: &Path) -> WorkDirs {
        let drop_dir = base.join("drop");
        fs::create_dir_all(&drop_dir).expect("create drop dir");
        WorkDirs {
            drop_dir,
            journal: base.join("journal.log"),
            cache_dir: base.join("cache"),
        }
    }
}

/// Completed-analysis counter: file stem → number of successful submissions,
/// shared across every incarnation of one schedule.
type Executions = Arc<Mutex<BTreeMap<String, u64>>>;

/// How one incarnation of the workflow ended.
enum IncarnationEnd {
    /// Emitter and listener both finished; catalog assembled.
    Completed {
        catalog: Vec<u8>,
        /// Cache misses during assembly (0 means every product was served
        /// from the cache the jobs populated).
        assembly_misses: usize,
        report: ListenerReport,
    },
    /// The emitter died to a `runner.insitu` crash.
    EmitterCrashed { report: ListenerReport },
    /// The listener died to an injected crash (scan/submit/journal).
    ListenerCrashed { report: ListenerReport },
}

impl IncarnationEnd {
    fn report(&self) -> &ListenerReport {
        match self {
            IncarnationEnd::Completed { report, .. }
            | IncarnationEnd::EmitterCrashed { report }
            | IncarnationEnd::ListenerCrashed { report } => report,
        }
    }
}

/// Cache key for the center product of an input with the given content
/// digest. Operation name + analysis parameters are part of the key, exactly
/// as the real driver composes them.
fn product_key(input: Digest) -> CacheKey {
    let mut fp = FingerprintBuilder::new();
    fp.push_str("mbp-centers").push_f64(SOFTENING);
    CacheKey::compose("centers", input, fp.finish())
}

/// The deterministic Level-2 container for one workflow step: a few particle
/// blocks (one synthetic "halo" per block) with globally unique tags.
fn step_container(seed: u64, step: usize) -> Container {
    let mut rng = StdRng::seed_from_u64(seed ^ (step as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let nblocks = 3 + step % 2;
    let mut blocks = Vec::with_capacity(nblocks);
    let mut tag = (step as u64) * 10_000;
    for b in 0..nblocks {
        let n = 6 + (step * 7 + b * 3) % 9;
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

/// MBP center record for one particle block (serial brute force — identical
/// on every rank and in the recompute path, so products are byte-stable).
fn block_center(block: &[Particle]) -> CenterRecord {
    let r = mbp_brute(&Serial, block, SOFTENING);
    CenterRecord {
        halo_id: block.iter().map(|p| p.tag).min().unwrap_or(0),
        center: block[r.index].pos_f64(),
        count: block.len() as u64,
        potential: r.potential,
    }
}

/// Two-rank analysis: blocks split by index parity, rank 1 ships its centers
/// to rank 0, rank 0 merges and sorts. Crash faults at `comm.send` /
/// `comm.recv` surface as panics (caught by the caller) or recv timeouts.
fn two_rank_centers(c: &Container) -> Result<Vec<CenterRecord>, SubmitError> {
    let world = World::new(2);
    let blocks = &c.blocks;
    let mut results = world.run(|comm| -> Result<Vec<CenterRecord>, SubmitError> {
        let mine: Vec<CenterRecord> = blocks
            .iter()
            .enumerate()
            .filter(|(i, b)| i % 2 == comm.rank() && !b.is_empty())
            .map(|(_, b)| block_center(b))
            .collect();
        if comm.rank() == 1 {
            comm.send_vec(0, ANALYSIS_TAG, mine);
            Ok(Vec::new())
        } else {
            let theirs: Vec<CenterRecord> = comm
                .recv_timeout(1, ANALYSIS_TAG, RECV_TIMEOUT)
                .map_err(|e| SubmitError(format!("analysis recv failed: {e:?}")))?;
            let mut all = mine;
            all.extend(theirs);
            all.sort_by_key(|r| r.halo_id);
            Ok(all)
        }
    });
    results.swap_remove(0)
}

/// The listener's submission job: parse the drop, run the two-rank analysis,
/// cache the encoded product, and count the completed execution.
fn run_analysis_job(
    path: &Path,
    cache: &ArtifactCache,
    executions: &Executions,
) -> Result<(), SubmitError> {
    let container = read_file(path)
        .map_err(|e| SubmitError(format!("read {}: {e}", path.display())))?
        .map_err(|e| SubmitError(format!("parse {}: {e:?}", path.display())))?;
    let digest =
        file_digest(path).map_err(|e| SubmitError(format!("digest {}: {e}", path.display())))?;
    let centers = panic::catch_unwind(AssertUnwindSafe(|| two_rank_centers(&container)))
        .map_err(|_| SubmitError("analysis ranks crashed".into()))??;
    let payload = encode_centers(&centers);
    cache
        .insert(product_key(digest), &payload)
        .map_err(|e| SubmitError(format!("cache insert: {e}")))?;
    let stem = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    *executions.lock().entry(stem).or_insert(0) += 1;
    Ok(())
}

/// React to an emitter-side fault poll. Returns `true` when a crash fired
/// (the incarnation must abort).
fn emitter_crashed(injector: &FaultInjector) -> bool {
    match injector.check(RUNNER_FAULT_SITE) {
        Some(FaultKind::Crash) => true,
        Some(FaultKind::Stall(d)) => {
            std::thread::sleep(d);
            false
        }
        Some(FaultKind::Transient) | None => false,
    }
}

/// Stage the step's drops. Normal steps write `name.tmp` then rename (the
/// crash window between the two strands an orphan `.tmp`); the [`SLOW_STEP`]
/// writes incrementally under the final name to exercise the listener's
/// quiescence gate. Already-published steps are skipped, which is how a
/// restarted incarnation resumes. Returns `false` if a crash fault aborted
/// the emitter.
fn run_emitter(cfg: &ExplorerConfig, dirs: &WorkDirs, injector: &FaultInjector) -> bool {
    for step in 0..cfg.steps {
        let final_path = dirs.drop_dir.join(format!("l2_{step}"));
        if final_path.exists() {
            continue;
        }
        let bytes = write_container(&step_container(cfg.seed, step));
        if step == SLOW_STEP && cfg.steps > 1 {
            // Fault point first: a crash here leaves nothing on disk, so the
            // quiescence-gated slow write below is always complete or absent.
            if emitter_crashed(injector) {
                return false;
            }
            // Stream the file out over several listener polls. The chunk
            // cadence (2ms) stays well under the poll interval (10ms) so no
            // two consecutive polls ever see a stable non-final size — the
            // gate defers until the write completes. (A writer that *pauses*
            // longer than a poll interval mid-write genuinely looks
            // quiescent; that is the gate's documented limit, not a target.)
            // No fsync between chunks: fsync latency on a slow filesystem
            // can stall the writer past a poll interval, and a stalled
            // writer is indistinguishable from a finished one.
            let mut f = fs::File::create(&final_path).expect("create slow drop");
            let nchunks = 25;
            for chunk in bytes.chunks(bytes.len() / nchunks + 1) {
                f.write_all(chunk).expect("slow write chunk");
                std::thread::sleep(Duration::from_millis(2));
            }
        } else {
            let tmp = dirs.drop_dir.join(format!("l2_{step}.tmp"));
            fs::write(&tmp, &bytes[..]).expect("stage drop");
            // Crash window between staging and publish: an injected crash
            // strands the `.tmp`, which the listener must never submit.
            if emitter_crashed(injector) {
                return false;
            }
            fs::rename(&tmp, &final_path).expect("publish drop");
        }
    }
    true
}

/// Assemble the final catalog: for each drop, look up its product by content
/// digest (exercising `cache.read` / `cache.verify`), recomputing serially
/// on a miss. Returns the catalog bytes and the miss count.
fn assemble(cfg: &ExplorerConfig, dirs: &WorkDirs, cache: &ArtifactCache) -> (Vec<u8>, usize) {
    let mut catalog = Vec::new();
    let mut misses = 0;
    for step in 0..cfg.steps {
        let path = dirs.drop_dir.join(format!("l2_{step}"));
        let digest = file_digest(&path).expect("published drop readable");
        let key = product_key(digest);
        let payload = match cache.lookup(key) {
            Some(p) => p,
            None => {
                // A cache fault degraded the entry to a miss: recompute
                // deterministically (the serial analysis the two-rank job
                // must agree with byte-for-byte) and re-insert.
                misses += 1;
                let container = read_file(&path)
                    .expect("published drop readable")
                    .expect("published drop parses");
                let p = encode_centers(&centers_over_ranks(&container, SOFTENING, &Serial));
                let _ = cache.insert(key, &p);
                p
            }
        };
        catalog.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        catalog.extend_from_slice(&payload);
    }
    (catalog, misses)
}

/// Run one incarnation: spawn the listener, emit drops, stop the listener
/// (its final sweep handles everything emitted), then assemble if nothing
/// crashed.
fn run_incarnation(
    cfg: &ExplorerConfig,
    dirs: &WorkDirs,
    injector: Arc<FaultInjector>,
    executions: &Executions,
) -> IncarnationEnd {
    let cache = Arc::new(ArtifactCache::open(&dirs.cache_dir, None).expect("open artifact cache"));
    let gate_cache = Arc::clone(&cache);
    let lcfg = ListenerConfig {
        poll_interval: Duration::from_millis(10),
        prefix: "l2_".to_string(),
        journal: Some(dirs.journal.clone()),
        injector: Some(Arc::clone(&injector)),
        cache_gate: Some(CacheGate::new(move |p| match file_digest(p) {
            Ok(d) => gate_cache.contains_verified(product_key(d)),
            Err(_) => false,
        })),
        ..ListenerConfig::default()
    };
    let job_cache = Arc::clone(&cache);
    let exec = Arc::clone(executions);
    let listener = Listener::spawn_with(dirs.drop_dir.clone(), lcfg, move |path| {
        run_analysis_job(path, &job_cache, &exec)
    });
    let emitter_ok = run_emitter(cfg, dirs, &injector);
    let report = listener.stop_report();
    if !emitter_ok {
        return IncarnationEnd::EmitterCrashed { report };
    }
    if report.crashed {
        return IncarnationEnd::ListenerCrashed { report };
    }
    let (catalog, assembly_misses) = assemble(cfg, dirs, &cache);
    IncarnationEnd::Completed {
        catalog,
        assembly_misses,
        report,
    }
}

/// Does any `.tmp` file currently sit in the drop directory?
fn has_tmp_orphan(dirs: &WorkDirs) -> bool {
    fs::read_dir(&dirs.drop_dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .any(|e| e.path().extension().is_some_and(|x| x == "tmp"))
        })
        .unwrap_or(false)
}

/// Did a `.tmp` path leak into the handled lists?
fn report_touched_tmp(report: &ListenerReport) -> bool {
    report
        .submitted
        .iter()
        .chain(report.cache_skipped.iter())
        .any(|p| p.extension().is_some_and(|x| x == "tmp"))
}

/// `true` when every step's drop was analyzed exactly once.
fn exactly_once(cfg: &ExplorerConfig, executions: &Executions) -> bool {
    let exec = executions.lock();
    (0..cfg.steps).all(|s| exec.get(&format!("l2_{s}")).copied() == Some(1))
}

/// Whether the crash armed at `site` fired in this schedule (it was not
/// dead configuration).
pub(crate) fn crash_fired(injector: &FaultInjector, site: &str) -> bool {
    injector
        .site_stats()
        .get(site)
        .is_some_and(|&(_, faults)| faults > 0)
}

/// Run one crash schedule to completion (or the incarnation budget).
fn run_schedule(cfg: &ExplorerConfig, site: &str, hit: u64, reference: &[u8]) -> ScheduleOutcome {
    let base = cfg
        .root
        .join(format!("sched-{}-{hit}", site.replace('.', "_")));
    let dirs = WorkDirs::create(&base);
    let injector = FaultPlan::new(cfg.seed)
        .with_site(SiteSpec::crash_at(site, hit))
        .with_recording()
        .build();
    let _guard = faults::install(Arc::clone(&injector));
    let executions: Executions = Arc::new(Mutex::new(BTreeMap::new()));
    let mut incarnations = 0;
    let mut saw_tmp_orphan = false;
    let mut submitted_tmp = false;
    let mut catalog = None;
    while incarnations < cfg.max_incarnations {
        incarnations += 1;
        let end = run_incarnation(cfg, &dirs, Arc::clone(&injector), &executions);
        submitted_tmp |= report_touched_tmp(end.report());
        match end {
            IncarnationEnd::Completed { catalog: c, .. } => {
                catalog = Some(c);
                break;
            }
            IncarnationEnd::EmitterCrashed { .. } | IncarnationEnd::ListenerCrashed { .. } => {
                saw_tmp_orphan |= has_tmp_orphan(&dirs);
            }
        }
    }
    ScheduleOutcome {
        site: site.to_string(),
        hit,
        fired: crash_fired(&injector, site),
        incarnations,
        completed: catalog.is_some(),
        catalog_matches: catalog.as_deref() == Some(reference),
        exactly_once: exactly_once(cfg, &executions),
        saw_tmp_orphan,
        submitted_tmp,
    }
}

/// Run only the fault-free reference pass of the mini-workflow and return
/// its catalog bytes, asserting along the way that the quiescence gate held
/// (zero submit retries), every analysis product was served from the cache
/// at assembly, and each drop was analyzed exactly once. Golden tests use
/// this to pin the workflow's byte output without paying for a schedule
/// sweep. Installs the global injector (unarmed) for the duration — the
/// caller must serialize with other fault-injecting tests.
pub fn reference_catalog(cfg: &ExplorerConfig) -> Vec<u8> {
    let dirs = WorkDirs::create(&cfg.root.join("reference"));
    let injector = FaultPlan::new(cfg.seed).build();
    let _guard = faults::install(Arc::clone(&injector));
    let executions: Executions = Arc::new(Mutex::new(BTreeMap::new()));
    match run_incarnation(cfg, &dirs, injector, &executions) {
        IncarnationEnd::Completed {
            catalog,
            assembly_misses,
            report,
        } => {
            assert_eq!(
                report.submit_retries, 0,
                "reference run needed submit retries — quiescence gate leak?"
            );
            assert_eq!(
                assembly_misses, 0,
                "reference assembly missed the cache — a job keyed a product \
                 off non-final bytes (torn read past the quiescence gate?)"
            );
            assert!(
                exactly_once(cfg, &executions),
                "reference run did not analyze every drop exactly once"
            );
            catalog
        }
        _ => panic!("fault-free reference run crashed"),
    }
}

/// Explore every crash schedule the workflow reaches. See the module docs
/// for the three phases. Panics if the reference or record pass misbehaves
/// (those are preconditions, not findings); schedule failures are *reported*
/// in the returned [`ExplorationReport`] so the caller can assert with
/// context via [`ExplorationReport::assert_exhaustive`].
///
/// Installs the global fault injector for the duration of each phase: the
/// caller must serialize calls with any other fault-injecting test (the
/// `faults::install` guard panics on double-install, so a violation is loud).
pub fn explore(cfg: &ExplorerConfig) -> ExplorationReport {
    let _quiet = quiet_fault_panics();

    // Phase 1: fault-free reference run.
    let reference = reference_catalog(cfg);

    // Phase 2: record-only pass enumerating the reached fault surface.
    let sites_enumerated = {
        let dirs = WorkDirs::create(&cfg.root.join("record"));
        let injector = FaultPlan::record_only(cfg.seed).build();
        let _guard = faults::install(Arc::clone(&injector));
        let executions: Executions = Arc::new(Mutex::new(BTreeMap::new()));
        match run_incarnation(cfg, &dirs, Arc::clone(&injector), &executions) {
            IncarnationEnd::Completed { catalog, .. } => {
                assert_eq!(
                    catalog, reference,
                    "record-only pass produced a different catalog — workflow \
                     is not deterministic, schedule comparison would be noise"
                );
            }
            _ => panic!("record-only pass crashed without any armed fault"),
        }
        injector.sites_reached()
    };

    // Phase 3: one schedule per (site, hit).
    let mut schedules = Vec::new();
    for (site, hits) in &sites_enumerated {
        let explored_hits = if !cfg.exhaustive {
            1
        } else if site == "listener.scan" {
            (*hits).min(cfg.scan_hit_cap)
        } else {
            *hits
        };
        for hit in 0..explored_hits.min(*hits) {
            schedules.push(run_schedule(cfg, site, hit, &reference));
        }
    }

    ExplorationReport {
        sites_enumerated,
        schedules,
        reference_catalog: reference,
    }
}

/// RAII panic-hook filter: while held, panics whose payload is an injected
/// crash (or the `World` teardown noise it causes) are not printed. Every
/// other panic goes to the previous hook unchanged. Crash schedules panic
/// worker threads by design; without this the test log is a wall of
/// intentional backtraces hiding any real failure.
fn quiet_fault_panics() -> PanicQuiet {
    let prev: Arc<dyn Fn(&panic::PanicHookInfo<'_>) + Send + Sync> = Arc::from(panic::take_hook());
    let filter_prev = Arc::clone(&prev);
    panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| info.payload().downcast_ref::<String>().cloned())
            .unwrap_or_default();
        const QUIET: [&str; 3] = ["crashed by fault injection", "hung up", "world shut down"];
        if QUIET.iter().any(|q| msg.contains(q)) {
            return;
        }
        filter_prev(info);
    }));
    PanicQuiet { prev }
}

/// Guard returned by [`quiet_fault_panics`]; restores the previous panic
/// hook on drop.
struct PanicQuiet {
    prev: Arc<dyn Fn(&panic::PanicHookInfo<'_>) + Send + Sync>,
}

impl Drop for PanicQuiet {
    fn drop(&mut self) {
        let prev = Arc::clone(&self.prev);
        let _ = panic::take_hook();
        panic::set_hook(Box::new(move |info| prev(info)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("conformance-explorer")
            .join(format!("{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn workflow_inputs_are_deterministic() {
        let a = write_container(&step_container(9, 2));
        let b = write_container(&step_container(9, 2));
        assert_eq!(&a[..], &b[..]);
        // Steps differ from each other.
        let c = write_container(&step_container(9, 0));
        assert_ne!(&a[..], &c[..]);
    }

    #[test]
    fn two_rank_job_matches_serial_analysis() {
        let c = step_container(0x5C15, 0);
        let serial = centers_over_ranks(&c, SOFTENING, &Serial);
        let parallel = two_rank_centers(&c).expect("no faults armed");
        assert_eq!(encode_centers(&serial), encode_centers(&parallel));
        assert!(!serial.is_empty());
    }

    #[test]
    fn reference_run_is_reproducible() {
        // Two independent fault-free explorations of the same seed agree at
        // the byte level — the foundation of schedule comparison. Serialized
        // against other fault-injecting tests by the integration suite; here
        // we only use private helpers without installing a global injector.
        let cfg_a = ExplorerConfig::new(scratch("ref-a"));
        let cfg_b = ExplorerConfig::new(scratch("ref-b"));
        let run = |cfg: &ExplorerConfig| {
            let dirs = WorkDirs::create(&cfg.root);
            let injector = FaultPlan::new(cfg.seed).build();
            let executions: Executions = Arc::new(Mutex::new(BTreeMap::new()));
            match run_incarnation(cfg, &dirs, injector, &executions) {
                IncarnationEnd::Completed { catalog, .. } => catalog,
                _ => panic!("fault-free run crashed"),
            }
        };
        assert_eq!(run(&cfg_a), run(&cfg_b));
    }
}
