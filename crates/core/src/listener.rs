//! The co-scheduling "listener" (paper §3.2), derived from the Bellerophon
//! scheme: a background script that polls for new output files from the
//! running simulation and submits an analysis batch job for each one, then
//! resumes checking. A final sweep after the main job completes catches
//! outputs written at the very end of the run.
//!
//! This module holds the repository's **one journaled ingest path**: a
//! `Source` says which keys are ready and the consumer (`Watch::sweep`)
//! owns everything between "ready" and "durably handled", so the
//! exactly-once argument exists once (DESIGN.md §11):
//!
//! * **source contract** — a *stable key* per work item (the path that is
//!   journaled and reported), its *content* once ready, and the *liveness*
//!   of its own keys for journal compaction. There are two: the
//!   `DirSource` below and the service's announcement source
//!   ([`crate::stream`]).
//! * **consumer contract** — per ready key, in order: already handled? →
//!   cache gate → submit with retry → journal append → mark handled. A
//!   crash before the submit redoes the key after a restart; one between
//!   submit and append redoes it too, which the cache gate turns into a skip
//!   wherever the job memoizes its product; one after the append finds the
//!   key in the journal.
//!
//! Two drivers schedule that step: the [`Listener`] thread here (one watch,
//! plus the stop-time final-sweep loop) and the service's shard workers.
//!
//! Large outputs take many poll intervals to write (the paper's level-2
//! files are ~30 GB), so a file's *appearance* is not a safe submit signal.
//! The directory source guards against half-written input twice:
//!
//! * **quiescence gate** — a file is ready only once its size is unchanged
//!   across two consecutive polls; the final sweep applies the same gate
//!   (faster re-polls, bounded by [`ListenerConfig::stop_grace`]), so a file
//!   still being written at stop time is never submitted truncated;
//! * **temporary exclusion** — names ending in `.tmp` are skipped outright,
//!   which covers writers that stage through `foo.tmp` + rename.
//!
//! The listener itself fails too — submissions bounce, scans hit filesystem
//! hiccups, the process gets killed:
//!
//! * **retry with backoff** — a transient scan error skips one poll; a
//!   transient submit error is retried under [`ListenerConfig::retry`], and
//!   a key whose submissions all fail stays unhandled for a later poll;
//! * **crash-recovery journal** — with [`ListenerConfig::journal`] set,
//!   every handled key is appended to a [`crate::journal::Journal`] and
//!   preloaded on spawn, so a restarted listener never double-submits;
//! * **fault sites** — `listener.{scan,submit,journal,compact}` consult the
//!   [`ListenerConfig::injector`] (or the globally installed one), so the
//!   chaos harness can rehearse all of the above deterministically. A
//!   `Stall` delays the operation and then lets it proceed, at every site.

use crate::journal::Journal;
use faults::{BackoffPolicy, FaultInjector, Fired};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A failed submission attempt, reported by the `on_file` callback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitError(pub String);

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "submit failed: {}", self.0)
    }
}

impl std::error::Error for SubmitError {}

/// Names ending with this suffix are never reacted to, even when they match
/// `prefix`/`suffix` — covers writers that stage output through a temporary
/// name before an atomic rename.
const EXCLUDE_SUFFIX: &str = ".tmp";

/// Listener configuration.
#[derive(Debug, Clone)]
pub struct ListenerConfig {
    /// Poll period — "should be chosen to be much higher than the rate at
    /// which the main code generates new output files".
    pub poll_interval: Duration,
    /// Only react to files whose name starts with this prefix…
    pub prefix: String,
    /// …and ends with this suffix.
    pub suffix: String,
    /// Backoff policy for transient submit/journal failures.
    pub retry: BackoffPolicy,
    /// Persisted handled-file set: preloaded on spawn, appended after every
    /// successful submission, so a restarted listener never double-submits.
    pub journal: Option<PathBuf>,
    /// Fault injector consulted at the `listener.*` sites; `None` falls back
    /// to the globally installed injector (usually none — no faults).
    pub injector: Option<Arc<FaultInjector>>,
    /// How long [`Listener::stop_report`]'s final sweep keeps waiting for
    /// files that are still growing before giving up on them.
    pub stop_grace: Duration,
    /// Artifact-cache gate: consulted with each quiescent file *before*
    /// submission. When it returns `true` — a verified analysis product for
    /// this exact file already exists — the file is recorded as handled
    /// (journal included) without submitting a job, so a crash-restart or a
    /// duplicate scan never re-runs work whose output artifact survives.
    pub cache_gate: Option<CacheGate>,
    /// Size-triggered journal compaction: once the journal file exceeds this
    /// many bytes, it is rewritten (tmp + atomic rename) without the entries
    /// of the watched directory whose output file no longer exists on disk
    /// (entries under any other directory are not this listener's to judge
    /// and are kept). `None` disables compaction — acceptable for one-shot
    /// runs, but a resident service must set it or the journal grows without
    /// bound. Assumes outputs are write-once: a handled file that is deleted
    /// and later *recreated under the same name* would be resubmitted after
    /// compaction.
    pub journal_compact_bytes: Option<u64>,
}

/// A cache-consultation callback (`true` = artifact exists and verifies, so
/// skip the submission), wrapped so [`ListenerConfig`] stays `Debug`.
#[derive(Clone)]
pub struct CacheGate(pub Arc<dyn Fn(&Path) -> bool + Send + Sync>);

impl CacheGate {
    /// Wrap a closure.
    pub fn new<F: Fn(&Path) -> bool + Send + Sync + 'static>(f: F) -> CacheGate {
        CacheGate(Arc::new(f))
    }
}

impl std::fmt::Debug for CacheGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CacheGate(..)")
    }
}

impl Default for ListenerConfig {
    fn default() -> Self {
        ListenerConfig {
            poll_interval: Duration::from_millis(20),
            prefix: String::new(),
            suffix: String::new(),
            retry: BackoffPolicy {
                base_seconds: 0.005,
                factor: 2.0,
                max_delay_seconds: 0.1,
                max_attempts: 5,
            },
            journal: None,
            injector: None,
            stop_grace: Duration::from_secs(2),
            cache_gate: None,
            journal_compact_bytes: None,
        }
    }
}

impl ListenerConfig {
    /// Poll the fault site `site` (recorded under `label`) on the explicit
    /// injector when configured, otherwise the process-global one.
    pub(crate) fn fault(&self, site: &str, label: &'static str) -> Option<Fired> {
        faults::poll_site(self.injector.as_deref(), site, label)
    }
}

/// What one listener run did, returned by [`Listener::stop_report`].
#[derive(Debug, Clone, Default)]
pub struct ListenerReport {
    /// Every file submitted by this run, in submission order (excludes files
    /// recovered from the journal, which a previous run submitted).
    pub submitted: Vec<PathBuf>,
    /// The listener died to an injected `Crash` fault before `stop` (no
    /// final sweep ran).
    pub crashed: bool,
    /// Failed submission attempts that were retried.
    pub submit_retries: u64,
    /// Journal appends that exhausted their retries (the file was submitted
    /// but could not be recorded — a restart may resubmit it).
    pub journal_failures: u64,
    /// Files handled without a submission because the
    /// [`ListenerConfig::cache_gate`] found a verified artifact for them, in
    /// handling order.
    pub cache_skipped: Vec<PathBuf>,
    /// Journal compactions performed ([`ListenerConfig::journal_compact_bytes`]).
    pub compactions: u64,
}

/// The snapshot side of a [`Watch`]: the handled set — which keys need no
/// further work — and the running report.
///
/// Besides the plain set there is the *cover*: every key `<=` the cover is
/// handled without being resident. The directory source, whose keys arrive
/// in sorted order, advances it over the fully handled prefix of its
/// listing, which **evicts** that prefix — steady-state memory tracks the
/// unhandled tail, not every key ever handled. The journal is the durable
/// copy that lets the source take the cover back if its invariant breaks.
#[derive(Default)]
pub(crate) struct Progress {
    /// Handled keys above the cover.
    seen: BTreeSet<PathBuf>,
    cover: Option<PathBuf>,
    /// Keys handled so far, journal-recovered ones included — kept apart
    /// because eviction makes `seen.len()` an undercount.
    total: usize,
    report: ListenerReport,
}

impl Progress {
    pub(crate) fn is_handled(&self, key: &Path) -> bool {
        self.cover.as_deref().is_some_and(|c| key <= c) || self.seen.contains(key)
    }

    fn mark(&mut self, key: &Path) {
        self.seen.insert(key.to_path_buf());
        self.total += 1;
    }

    /// Raise the cover to `key` and evict what it now covers.
    fn cover_through(&mut self, key: &Path) {
        self.seen = self.seen.split_off(key);
        self.seen.remove(key);
        self.cover = Some(key.to_path_buf());
    }

    /// Drop the cover and make `journaled` (the durable copy of what it
    /// stood for) resident again.
    fn uncover(&mut self, journaled: impl IntoIterator<Item = PathBuf>) {
        self.seen.extend(journaled);
        self.cover = None;
    }
}

/// Where ready work comes from. A source owns what is specific to its
/// transport and nothing of the handling discipline; see the module docs for
/// the contract. Only the thread that holds the watch's source lock — the
/// one sweeping — ever calls these.
pub(crate) trait Source {
    /// What a ready key carries to the gate and the job.
    type Item;

    /// Poll the transport and return, in handling order, the keys that may
    /// be ready this sweep. Also the place to forget what was buffered for
    /// keys handled since, and — for a source that keeps a cover — to
    /// advance it over them, or to repair the handled set from `journal`
    /// when it no longer holds. `progress` is the watch's snapshot lock, so
    /// the transport is polled before taking it.
    fn candidates(&mut self, progress: &Mutex<Progress>, journal: Option<&Journal>)
        -> Vec<PathBuf>;

    /// The content of `key`, or `None` when it is not ready after all
    /// (still growing, not fetchable): the key waits for a later sweep.
    fn fetch(&mut self, key: &Path) -> Option<Self::Item>;

    /// Does `key` — one of this watch's own — still stand for something? A
    /// journal compaction drops the entries that do not. By default a key
    /// lives as long as its source does.
    fn is_live(&self, _key: &Path) -> bool {
        true
    }
}

/// One watched key space: a source, the consumer that takes its ready keys
/// to "durably handled", and the handled set and report that result.
///
/// Lock order: `source`, then `progress`. `source` is held for a whole
/// sweep, by the sweeping thread alone; `progress` only ever for a few
/// instructions — so a snapshot, which takes `progress` alone, never waits
/// for a sweep, an analysis job or a journal append.
pub(crate) struct Watch<I> {
    /// Every key of this watch is `dir/<name>`; that is what "own key"
    /// means when the journal is shared with other watches.
    pub(crate) dir: PathBuf,
    pub(crate) cfg: ListenerConfig,
    journal: Option<Journal>,
    source: Mutex<Box<dyn Source<Item = I> + Send>>,
    progress: Mutex<Progress>,
}

/// An injected `Crash` killed the consuming thread.
#[derive(Debug)]
pub(crate) struct Died;

/// `true`: a verified product for exactly this item exists, skip the job.
pub(crate) type Gate<'a, I> = &'a dyn Fn(&Path, &I) -> bool;
/// The job submitted for a ready item.
pub(crate) type Job<'a, I> = &'a mut dyn FnMut(&Path, &I) -> Result<(), SubmitError>;

impl<I> Watch<I> {
    /// A watch over `dir` fed by `source` and journaling into `journal`,
    /// with `recovered` (this watch's keys found in a journal) handled from
    /// the start.
    pub(crate) fn new(
        dir: PathBuf,
        cfg: ListenerConfig,
        journal: Option<Journal>,
        source: Box<dyn Source<Item = I> + Send>,
        recovered: BTreeSet<PathBuf>,
    ) -> Watch<I> {
        let progress = Progress {
            total: recovered.len(),
            seen: recovered,
            ..Progress::default()
        };
        Watch {
            dir,
            cfg,
            journal,
            source: Mutex::new(source),
            progress: Mutex::new(progress),
        }
    }

    /// Keys handled so far (recovered included).
    pub(crate) fn handled_total(&self) -> usize {
        self.progress.lock().total
    }

    /// [`Watch::handled_total`] and the report so far, under one lock.
    pub(crate) fn snapshot(&self) -> (usize, ListenerReport) {
        let p = self.progress.lock();
        (p.total, p.report.clone())
    }

    /// Run `op` until it succeeds, under the retry policy, polling the fault
    /// site before every attempt (a transient fault fails the attempt).
    /// Failed attempts are added to `failed`; `Ok(false)`: all of them were.
    fn retry(
        &self,
        site: &'static str,
        failed: &mut u64,
        op: &mut dyn FnMut() -> bool,
    ) -> Result<bool, Died> {
        for attempt in 0..self.cfg.retry.max_attempts {
            if attempt > 0 {
                std::thread::sleep(self.cfg.retry.delay(attempt - 1));
            }
            match self.cfg.fault(site, site) {
                Some(Fired::Crash) => return Err(Died),
                None if op() => return Ok(true),
                Some(Fired::Transient) | None => {}
            }
            *failed += 1;
        }
        Ok(false)
    }

    /// One scheduled visit: the `listener.scan` poll, then — unless the scan
    /// failed — one [`Watch::sweep`]. A transient scan failure (filesystem
    /// hiccup) skips the visit; the next one is the retry.
    pub(crate) fn poll(&self, gate: Gate<I>, job: Job<I>) -> Result<(), Died> {
        match self.cfg.fault("listener.scan", "listener.scan") {
            Some(Fired::Crash) => Err(Died),
            Some(Fired::Transient) => Ok(()),
            None => self.sweep(gate, job).map(drop),
        }
    }

    /// The consumer: take every ready key from "ready" to "durably handled"
    /// — cache gate, submission with retry, journal append, handled mark —
    /// then compact the journal if it outgrew its threshold. Returns how
    /// many of this sweep's candidates are still unhandled.
    ///
    /// A key the gate vouches for is recorded as handled — journal included,
    /// so a restart does not resubmit it either — without running `job`. A
    /// key whose submissions all failed stays unhandled for a later sweep.
    /// A journal append that exhausts its retries is counted and let go: the
    /// job ran but went unrecorded, so a restarted listener may resubmit.
    pub(crate) fn sweep(&self, gate: Gate<I>, job: Job<I>) -> Result<usize, Died> {
        let journal = self.journal.as_ref();
        let mut source = self.source.lock();
        let keys = source.candidates(&self.progress, journal);
        for key in &keys {
            if self.progress.lock().is_handled(key) {
                continue;
            }
            let Some(item) = source.fetch(key) else {
                continue;
            };
            let cached = gate(key, &item);
            let _span = (!cached).then(|| telemetry::span!("listener", "submit"));
            if cached {
                telemetry::count!("listener", "cache_skipped", 1);
            } else {
                let mut failed = 0;
                let submitted = self.retry("listener.submit", &mut failed, &mut || {
                    job(key, &item).is_ok()
                });
                self.progress.lock().report.submit_retries += failed;
                if !submitted? {
                    continue;
                }
            }
            let journaled = match journal {
                Some(j) => self.retry("listener.journal", &mut 0, &mut || j.append(key).is_ok())?,
                None => true,
            };
            let mut p = self.progress.lock();
            p.report.journal_failures += u64::from(!journaled);
            if cached {
                p.report.cache_skipped.push(key.clone());
            } else {
                telemetry::count!("listener", "submitted", 1);
                p.report.submitted.push(key.clone());
            }
            p.mark(key);
        }
        let unhandled = {
            let p = self.progress.lock();
            keys.iter().filter(|k| !p.is_handled(k)).count()
        };
        // Size-triggered journal compaction (tmp + rename, see
        // [`Journal::rewrite`]). Liveness is the source's call, and only for
        // this watch's own keys: on a journal shared with other watches
        // their entries are not ours to judge. The fault site is polled only
        // when a compaction is due, so its hits count real compactions.
        if let (Some(j), Some(threshold)) = (journal, self.cfg.journal_compact_bytes) {
            if j.compaction_due(threshold) {
                let live = |k: &Path| k.parent() != Some(&self.dir) || source.is_live(k);
                match self.cfg.fault("listener.compact", "listener.compact") {
                    Some(Fired::Crash) => {
                        // The worst window: survivors staged, rename not issued.
                        if let Ok(all) = j.load() {
                            let _ = j.stage(&all.into_iter().filter(|k| live(k)).collect());
                        }
                        return Err(Died);
                    }
                    // Pure maintenance: skip this round, the next sweep retries.
                    Some(Fired::Transient) => return Ok(unhandled),
                    None => {}
                }
                if let Ok(Some(_dropped)) = j.compact_if_larger(threshold, live) {
                    telemetry::count!("listener", "journal_compactions", 1);
                    self.progress.lock().report.compactions += 1;
                }
            }
        }
        Ok(unhandled)
    }
}

/// The directory source: the matching files of one directory, in sorted
/// name order, each ready once its size held still across two polls.
///
/// The cover is the heart of the O(new-files) steady state. Once a
/// *contiguous prefix* of the sorted listing is fully handled the cover
/// advances to the prefix's last name: every later sweep dismisses the whole
/// prefix with one binary search instead of probing each name, and the
/// consumer evicts the prefix from its handled set. The invariant — every
/// present matching file `<=` the cover is handled — breaks when a file
/// appears *below* the cover; that is detected by comparing a fingerprint of
/// the below-cover listing against the one recorded when the cover advanced
/// (a bare count would miss a deletion and an out-of-order arrival
/// cancelling each other out), and repaired from the journal.
pub(crate) struct DirSource<I> {
    dir: PathBuf,
    prefix: String,
    suffix: String,
    /// Turns a quiescent file into the item handed on (`None`: unreadable
    /// right now, try again next sweep).
    load: fn(&Path) -> Option<I>,
    /// Size at the previous poll for files still being written.
    sizes: HashMap<PathBuf, u64>,
    /// How many matching files were `<=` the cover when it last advanced…
    below: usize,
    /// …and the [`names_fingerprint`] of exactly those names.
    below_fp: u64,
}

impl<I> DirSource<I> {
    /// Watch `dir` for the names `cfg` selects.
    pub(crate) fn new(dir: PathBuf, cfg: &ListenerConfig, load: fn(&Path) -> Option<I>) -> Self {
        DirSource {
            dir,
            prefix: cfg.prefix.clone(),
            suffix: cfg.suffix.clone(),
            load,
            sizes: HashMap::new(),
            below: 0,
            below_fp: 0,
        }
    }

    /// Regular files of the directory whose name matches, sorted.
    fn matching_files(&self) -> Vec<PathBuf> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let wanted = |n: &str| {
            n.starts_with(&self.prefix) && n.ends_with(&self.suffix) && !n.ends_with(EXCLUDE_SUFFIX)
        };
        let mut out: Vec<PathBuf> = entries
            .flatten()
            .filter(|e| e.file_type().is_ok_and(|t| t.is_file()))
            .map(|e| e.path())
            .filter(|p| p.file_name().and_then(|n| n.to_str()).is_some_and(wanted))
            .collect();
        out.sort();
        out
    }
}

/// Order-sensitive fingerprint of a sorted name listing, used to detect any
/// change to the below-cover prefix — including a deletion and an
/// out-of-order arrival that leave the *count* unchanged. In-memory only
/// (recomputed per process), so per-process determinism is all that is
/// required. Hashing the prefix is O(below) per sweep, the same order as
/// the directory listing that produced it in the first place.
fn names_fingerprint(files: &[PathBuf]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for f in files {
        f.hash(&mut h);
    }
    h.finish()
}

impl<I> Source for DirSource<I> {
    type Item = I;

    /// List the directory, check that the cover still holds, extend it over
    /// the prefix earlier sweeps finished, and return the tail above it.
    fn candidates(
        &mut self,
        progress: &Mutex<Progress>,
        journal: Option<&Journal>,
    ) -> Vec<PathBuf> {
        let mut files = self.matching_files();
        let mut handled = progress.lock();
        self.sizes.retain(|f, _| !handled.is_handled(f));
        // No cover without a journal: evicting without a durable copy would
        // turn a rebuild into double submission.
        let Some(journal) = journal else {
            return files;
        };
        let below = handled.cover.as_deref();
        let below = below.map(|c| files.partition_point(|f| f.as_path() <= c));
        let mut start = 0;
        if let Some(below) = below {
            start = below;
            if below != self.below || names_fingerprint(&files[..below]) != self.below_fp {
                // A file appeared below the cover: fall back to per-file
                // probing against the journaled set.
                let Ok(entries) = journal.load() else {
                    // The durable copy is unreadable right now; keep
                    // trusting the cover — skipping is the safe side for
                    // exactly-once — and keep the stale baseline, so the
                    // next sweep re-detects the drift instead of seeing a
                    // clean match and skipping the newcomer forever.
                    return files.split_off(below);
                };
                telemetry::count!("listener", "cursor_rebuilds", 1);
                let dir = &self.dir;
                handled.uncover(entries.into_iter().filter(|p| p.parent() == Some(dir)));
                start = 0;
            }
        }
        let mut idx = start;
        while idx < files.len() && handled.is_handled(&files[idx]) {
            idx += 1;
        }
        if idx > 0 && (idx != self.below || handled.cover.is_none()) {
            handled.cover_through(&files[idx - 1]);
            self.below = idx;
            self.below_fp = names_fingerprint(&files[..idx]);
        }
        files.split_off(idx)
    }

    /// Quiescence gate: ready only once the size is unchanged across two
    /// consecutive polls, so in-progress writes are never picked up.
    fn fetch(&mut self, key: &Path) -> Option<I> {
        let size = std::fs::metadata(key).ok()?.len(); // Err: raced a rename/delete
        if self.sizes.get(key) != Some(&size) {
            self.sizes.insert(key.to_path_buf(), size);
            return None;
        }
        (self.load)(key)
    }

    fn is_live(&self, key: &Path) -> bool {
        key.exists()
    }
}

/// A running listener thread.
pub struct Listener {
    stop: Arc<AtomicBool>,
    /// Returns whether an injected crash killed the thread.
    handle: std::thread::JoinHandle<bool>,
    watch: Arc<Watch<()>>,
}

impl Listener {
    /// Start watching `dir`; `on_file` runs once per newly appeared matching
    /// file (the "generate batch script and submit" step). Infallible
    /// convenience wrapper over [`Listener::spawn_with`].
    pub fn spawn<F>(dir: PathBuf, cfg: ListenerConfig, mut on_file: F) -> Listener
    where
        F: FnMut(&Path) + Send + 'static,
    {
        Self::spawn_with(dir, cfg, move |p| {
            on_file(p);
            Ok(())
        })
    }

    /// Start watching `dir` with a fallible submitter: an `Err` from
    /// `on_file` is a transient submission failure, retried under
    /// [`ListenerConfig::retry`]; a file whose attempts all fail stays
    /// unhandled and is retried on a later poll.
    pub fn spawn_with<F>(dir: PathBuf, cfg: ListenerConfig, mut on_file: F) -> Listener
    where
        F: FnMut(&Path) -> Result<(), SubmitError> + Send + 'static,
    {
        let stop = Arc::new(AtomicBool::new(false));
        // Crash recovery: files a previous listener run already handled are
        // seen from the start and never resubmitted.
        let journal = cfg.journal.clone().map(Journal::new);
        let recovered = match &journal {
            Some(j) => j.load().expect("listener journal unreadable"),
            None => BTreeSet::new(),
        };
        telemetry::count!("listener", "journal_recovered", recovered.len());
        let source = Box::new(DirSource::new(dir.clone(), &cfg, |_| Some(())));
        let watch = Arc::new(Watch::new(dir, cfg, journal, source, recovered));
        let (stop2, watch2) = (Arc::clone(&stop), Arc::clone(&watch));
        let handle = std::thread::spawn(move || {
            let cfg = &watch2.cfg;
            // Files travel by path here: the callbacks read what they need.
            let gate = |key: &Path, _: &()| cfg.cache_gate.as_ref().is_some_and(|g| (g.0)(key));
            let mut job = |key: &Path, _: &()| on_file(key);
            while !stop2.load(Ordering::Acquire) {
                telemetry::count!("listener", "scans", 1);
                if watch2.poll(&gate, &mut job).is_err() {
                    // The listener process dies: no final sweep, no journal
                    // flush beyond what already committed.
                    return true;
                }
                // Interruptible sleep: check the stop flag every few ms so
                // stopping never blocks for a whole poll interval.
                let mut remaining = cfg.poll_interval;
                let slice = Duration::from_millis(5);
                while remaining > Duration::ZERO && !stop2.load(Ordering::Acquire) {
                    let nap = remaining.min(slice);
                    std::thread::sleep(nap);
                    remaining = remaining.saturating_sub(nap);
                }
            }
            // Final sweeps "to catch the last output data" — under the same
            // quiescence gate as regular polls (a file may still be
            // mid-write when stop is requested), re-polling quickly until
            // nothing unhandled remains or the grace period runs out.
            let deadline = Instant::now() + cfg.stop_grace;
            loop {
                match watch2.sweep(&gate, &mut job) {
                    Err(Died) => return true,
                    Ok(0) => return false,
                    Ok(_) if Instant::now() >= deadline => return false,
                    // Re-poll quickly, but not so quickly that a slow
                    // writer's size appears unchanged between passes.
                    Ok(_) => std::thread::sleep(cfg.poll_interval.min(Duration::from_millis(25))),
                }
            }
        });
        Listener {
            stop,
            handle,
            watch,
        }
    }

    /// Number of files handled so far (journal-recovered files included).
    pub fn handled(&self) -> usize {
        self.watch.handled_total()
    }

    /// Entries currently resident in the in-memory seen set. With a journal
    /// configured this is bounded by the *unhandled tail* of the directory —
    /// the cover evicts handled-and-journaled entries — not by the total
    /// number of files ever handled. The backlog regression tests read it.
    #[cfg(test)]
    fn seen_len(&self) -> usize {
        self.watch.progress.lock().seen.len()
    }

    /// Signal the end of the main application, wait for the final sweep and
    /// return the full [`ListenerReport`]: every file submitted (in
    /// submission order), cache skips, the crash flag and the
    /// retry/compaction accounting.
    pub fn stop_report(self) -> ListenerReport {
        self.stop.store(true, Ordering::Release);
        let crashed = self.handle.join().expect("listener thread panicked");
        let (_, report) = self.watch.snapshot();
        ListenerReport { crashed, ..report }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("listener_test_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn submits_one_job_per_file() {
        let dir = tmpdir("basic");
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&count);
        let listener = Listener::spawn(
            dir.clone(),
            ListenerConfig {
                prefix: "l2_".into(),
                suffix: ".hcio".into(),
                ..Default::default()
            },
            move |_| {
                c2.fetch_add(1, Ordering::SeqCst);
            },
        );
        for i in 0..3 {
            std::fs::write(dir.join(format!("l2_step{i}.hcio")), b"data").unwrap();
            std::thread::sleep(Duration::from_millis(50));
        }
        // Non-matching files are ignored.
        std::fs::write(dir.join("checkpoint.bin"), b"x").unwrap();
        std::fs::write(dir.join("l2_partial.tmp"), b"x").unwrap();
        let files = listener.stop_report().submitted;
        assert_eq!(files.len(), 3);
        assert_eq!(count.load(Ordering::SeqCst), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn final_sweep_catches_late_files() {
        let dir = tmpdir("late");
        // Very slow polling: the only chance to see the file is the final sweep.
        let listener = Listener::spawn(
            dir.clone(),
            ListenerConfig {
                poll_interval: Duration::from_secs(3600),
                suffix: ".hcio".into(),
                ..Default::default()
            },
            |_| {},
        );
        std::thread::sleep(Duration::from_millis(30));
        std::fs::write(dir.join("last_step.hcio"), b"data").unwrap();
        let files = listener.stop_report().submitted;
        assert_eq!(files.len(), 1, "final sweep must catch the last output");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn files_are_submitted_exactly_once() {
        let dir = tmpdir("once");
        std::fs::write(dir.join("a.hcio"), b"1").unwrap();
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&count);
        let listener = Listener::spawn(
            dir.clone(),
            ListenerConfig {
                poll_interval: Duration::from_millis(5),
                suffix: ".hcio".into(),
                ..Default::default()
            },
            move |_| {
                c2.fetch_add(1, Ordering::SeqCst);
            },
        );
        // Let it poll the same file many times.
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(listener.handled(), 1);
        let files = listener.stop_report().submitted;
        assert_eq!(files.len(), 1);
        assert_eq!(count.load(Ordering::SeqCst), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partially_written_file_submits_once_after_quiescence() {
        let dir = tmpdir("quiesce");
        let path = dir.join("big.hcio");
        // Record the file size observed at submission time.
        let sizes: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let s2 = Arc::clone(&sizes);
        let listener = Listener::spawn(
            dir.clone(),
            ListenerConfig {
                poll_interval: Duration::from_millis(60),
                suffix: ".hcio".into(),
                ..Default::default()
            },
            move |p| {
                s2.lock().push(std::fs::metadata(p).unwrap().len());
            },
        );
        // Simulate a slow writer: the file grows in small appends spanning
        // several poll intervals, so no two consecutive polls during the
        // write ever observe an unchanged size.
        use std::io::Write;
        let mut fh = std::fs::File::create(&path).unwrap();
        for _ in 0..40 {
            fh.write_all(&[0u8; 64]).unwrap();
            fh.flush().unwrap();
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(fh);
        let total = 40 * 64;
        assert_eq!(
            listener.handled(),
            0,
            "a still-growing file must not be submitted"
        );
        // Writer done: two quiet polls later the job fires, exactly once.
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(listener.handled(), 1, "quiescent file must be submitted");
        let files = listener.stop_report().submitted;
        assert_eq!(files.len(), 1, "exactly one (late) submission");
        assert_eq!(
            sizes.lock().as_slice(),
            &[total],
            "submission must see the complete file"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn excluded_temporaries_are_never_submitted() {
        let dir = tmpdir("tmpskip");
        std::fs::write(dir.join("a.out"), b"done").unwrap();
        std::fs::write(dir.join("b.tmp"), b"in progress").unwrap();
        let listener = Listener::spawn(
            dir.clone(),
            // Default config: match everything, exclude `.tmp`.
            ListenerConfig::default(),
            |_| {},
        );
        std::thread::sleep(Duration::from_millis(100));
        // Even the final sweep must not pick up the temporary.
        let files = listener.stop_report().submitted;
        assert_eq!(files.len(), 1);
        assert!(files[0].ends_with("a.out"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn renamed_temporary_is_submitted_under_its_final_name() {
        let dir = tmpdir("rename");
        let listener = Listener::spawn(
            dir.clone(),
            ListenerConfig {
                poll_interval: Duration::from_millis(10),
                suffix: ".hcio".into(),
                ..Default::default()
            },
            |_| {},
        );
        std::fs::write(dir.join("out.hcio.tmp"), b"staged").unwrap();
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(listener.handled(), 0);
        std::fs::rename(dir.join("out.hcio.tmp"), dir.join("out.hcio")).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(listener.handled(), 1);
        let files = listener.stop_report().submitted;
        assert_eq!(files.len(), 1);
        assert!(files[0].ends_with("out.hcio"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_directory_is_tolerated() {
        let dir = std::env::temp_dir().join("listener_test_never_exists_xyz");
        let listener = Listener::spawn(dir, ListenerConfig::default(), |_| {});
        std::thread::sleep(Duration::from_millis(30));
        assert!(listener.stop_report().submitted.is_empty());
    }

    #[test]
    fn stop_waits_for_in_flight_writer_to_quiesce() {
        // Satellite fix: the final sweep must honor the quiescence gate. A
        // file still being written when stop() is called used to be submitted
        // truncated; now stop re-polls until the size holds steady.
        let dir = tmpdir("stopgate");
        let path = dir.join("tail.hcio");
        let sizes: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let s2 = Arc::clone(&sizes);
        let listener = Listener::spawn(
            dir.clone(),
            ListenerConfig {
                poll_interval: Duration::from_secs(3600), // only the final sweep sees it
                suffix: ".hcio".into(),
                stop_grace: Duration::from_secs(5),
                ..Default::default()
            },
            move |p| {
                s2.lock().push(std::fs::metadata(p).unwrap().len());
            },
        );
        std::thread::sleep(Duration::from_millis(30));
        // Writer starts just before stop and keeps appending across the
        // final-sweep passes.
        use std::io::Write;
        let writer = std::thread::spawn(move || {
            let mut fh = std::fs::File::create(&path).unwrap();
            for _ in 0..20 {
                fh.write_all(&[7u8; 32]).unwrap();
                fh.flush().unwrap();
                std::thread::sleep(Duration::from_millis(8));
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        let files = listener.stop_report().submitted;
        writer.join().unwrap();
        assert_eq!(files.len(), 1, "the late file must still be caught");
        assert_eq!(
            sizes.lock().as_slice(),
            &[20 * 32],
            "final sweep must submit the complete file, not a truncation"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stop_gives_up_on_perpetually_growing_file_after_grace() {
        let dir = tmpdir("stopgrace");
        let path = dir.join("grow.hcio");
        let listener = Listener::spawn(
            dir.clone(),
            ListenerConfig {
                poll_interval: Duration::from_secs(3600),
                suffix: ".hcio".into(),
                stop_grace: Duration::from_millis(100),
                ..Default::default()
            },
            |_| {},
        );
        std::thread::sleep(Duration::from_millis(20));
        let stop_flag = Arc::new(AtomicBool::new(false));
        let sf = Arc::clone(&stop_flag);
        let writer = std::thread::spawn(move || {
            use std::io::Write;
            let mut fh = std::fs::File::create(&path).unwrap();
            while !sf.load(Ordering::Acquire) {
                fh.write_all(&[1u8; 16]).unwrap();
                fh.flush().unwrap();
                std::thread::sleep(Duration::from_millis(3));
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        let t0 = Instant::now();
        let files = listener.stop_report().submitted;
        let took = t0.elapsed();
        stop_flag.store(true, Ordering::Release);
        writer.join().unwrap();
        assert!(
            files.is_empty(),
            "a never-quiescent file must not be submitted"
        );
        assert!(
            took < Duration::from_secs(3),
            "stop must give up after grace"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transient_submit_faults_are_retried_exactly_once_semantics() {
        let dir = tmpdir("faultretry");
        std::fs::write(dir.join("a.hcio"), b"x").unwrap();
        let plan = faults::FaultPlan::new(42)
            .with_site(faults::SiteSpec::transient("listener.submit", 1.0).with_max_faults(2))
            .build();
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&count);
        let listener = Listener::spawn(
            dir.clone(),
            ListenerConfig {
                poll_interval: Duration::from_millis(5),
                suffix: ".hcio".into(),
                injector: Some(Arc::clone(&plan)),
                ..Default::default()
            },
            move |_| {
                c2.fetch_add(1, Ordering::SeqCst);
            },
        );
        std::thread::sleep(Duration::from_millis(150));
        let report = listener.stop_report();
        assert_eq!(report.submitted.len(), 1);
        assert_eq!(
            count.load(Ordering::SeqCst),
            1,
            "exactly-once despite retries"
        );
        assert_eq!(report.submit_retries, 2, "both injected faults retried");
        assert!(!report.crashed);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `Stall` means "delay, then proceed" at every site. This thread used
    /// to sleep a `listener.scan` stall and then *skip* the sweep, so under a
    /// stall at every scan nothing was handled before the final sweep.
    #[test]
    fn a_stalled_scan_is_delayed_not_skipped() {
        let dir = tmpdir("stallscan");
        std::fs::write(dir.join("a.hcio"), b"x").unwrap();
        let plan = faults::FaultPlan::new(5)
            .with_site(faults::SiteSpec::stall(
                "listener.scan",
                1.0,
                Duration::from_millis(1),
            ))
            .build();
        let listener = Listener::spawn(
            dir.clone(),
            ListenerConfig {
                poll_interval: Duration::from_millis(5),
                suffix: ".hcio".into(),
                injector: Some(plan),
                ..Default::default()
            },
            |_| {},
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        while listener.handled() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(listener.handled(), 1, "handled by a regular, stalled poll");
        listener.stop_report();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crashed_listener_restarts_from_journal_without_double_submit() {
        let dir = tmpdir("crashjournal");
        let journal_path = dir.join("listener.journal");
        std::fs::write(dir.join("a.hcio"), b"1").unwrap();
        std::fs::write(dir.join("b.hcio"), b"2").unwrap();
        let submissions: Arc<Mutex<Vec<PathBuf>>> = Arc::new(Mutex::new(Vec::new()));

        // Run 1: crash on the third scan — after a/b have been handled.
        let plan = faults::FaultPlan::new(7)
            .with_site(faults::SiteSpec::crash_at("listener.scan", 4))
            .build();
        let s2 = Arc::clone(&submissions);
        let listener = Listener::spawn(
            dir.clone(),
            ListenerConfig {
                poll_interval: Duration::from_millis(5),
                suffix: ".hcio".into(),
                journal: Some(journal_path.clone()),
                injector: Some(plan),
                ..Default::default()
            },
            move |p| {
                s2.lock().push(p.to_path_buf());
            },
        );
        // Wait for the crash to land.
        std::thread::sleep(Duration::from_millis(150));
        let report1 = listener.stop_report();
        assert!(report1.crashed, "the injected crash must kill the listener");
        assert_eq!(report1.submitted.len(), 2);

        // A new output appears while the listener is down.
        std::fs::write(dir.join("c.hcio"), b"3").unwrap();

        // Run 2: restart with the same journal, no faults.
        let s3 = Arc::clone(&submissions);
        let listener = Listener::spawn(
            dir.clone(),
            ListenerConfig {
                poll_interval: Duration::from_millis(5),
                suffix: ".hcio".into(),
                journal: Some(journal_path.clone()),
                ..Default::default()
            },
            move |p| {
                s3.lock().push(p.to_path_buf());
            },
        );
        std::thread::sleep(Duration::from_millis(100));
        let report2 = listener.stop_report();
        assert!(!report2.crashed);
        assert_eq!(report2.submitted.len(), 1, "only the new file is submitted");
        assert!(report2.submitted[0].ends_with("c.hcio"));
        // Across both runs every file was submitted exactly once.
        let subs = submissions.lock();
        assert_eq!(subs.len(), 3);
        let names: BTreeSet<_> = subs.iter().map(|p| p.file_name().unwrap()).collect();
        assert_eq!(names.len(), 3, "no double submissions across restart");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_gate_skips_submission_and_journals_the_skip() {
        let dir = tmpdir("cachegate");
        let journal_path = dir.join("listener.journal");
        std::fs::write(dir.join("hit.hcio"), b"already analyzed").unwrap();
        std::fs::write(dir.join("miss.hcio"), b"new data").unwrap();
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&count);
        let listener = Listener::spawn(
            dir.clone(),
            ListenerConfig {
                poll_interval: Duration::from_millis(5),
                suffix: ".hcio".into(),
                journal: Some(journal_path.clone()),
                cache_gate: Some(CacheGate::new(|p: &Path| {
                    p.file_name().unwrap().to_str().unwrap().starts_with("hit")
                })),
                ..Default::default()
            },
            move |_| {
                c2.fetch_add(1, Ordering::SeqCst);
            },
        );
        std::thread::sleep(Duration::from_millis(120));
        assert_eq!(listener.handled(), 2, "both files are handled");
        let report = listener.stop_report();
        assert_eq!(report.submitted.len(), 1);
        assert!(report.submitted[0].ends_with("miss.hcio"));
        assert_eq!(report.cache_skipped.len(), 1);
        assert!(report.cache_skipped[0].ends_with("hit.hcio"));
        assert_eq!(
            count.load(Ordering::SeqCst),
            1,
            "no job for the cached file"
        );

        // The skip was journaled: a restarted listener *without* the gate
        // still does not resubmit the cached file.
        let c3 = Arc::clone(&count);
        let listener = Listener::spawn(
            dir.clone(),
            ListenerConfig {
                poll_interval: Duration::from_millis(5),
                suffix: ".hcio".into(),
                journal: Some(journal_path),
                ..Default::default()
            },
            move |_| {
                c3.fetch_add(1, Ordering::SeqCst);
            },
        );
        std::thread::sleep(Duration::from_millis(80));
        let report2 = listener.stop_report();
        assert!(report2.submitted.is_empty(), "nothing left to submit");
        assert_eq!(count.load(Ordering::SeqCst), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_recovery_counts_as_handled() {
        let dir = tmpdir("recoverhandled");
        let journal_path = dir.join("listener.journal");
        let handled = dir.join("old.hcio");
        std::fs::write(&handled, b"old").unwrap();
        Journal::new(journal_path.clone()).append(&handled).unwrap();
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&count);
        let listener = Listener::spawn(
            dir.clone(),
            ListenerConfig {
                poll_interval: Duration::from_millis(5),
                suffix: ".hcio".into(),
                journal: Some(journal_path),
                ..Default::default()
            },
            move |_| {
                c2.fetch_add(1, Ordering::SeqCst);
            },
        );
        std::thread::sleep(Duration::from_millis(80));
        assert_eq!(listener.handled(), 1, "recovered file counts as handled");
        let report = listener.stop_report();
        assert!(
            report.submitted.is_empty(),
            "recovered file is not resubmitted"
        );
        assert_eq!(count.load(Ordering::SeqCst), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Satellite regression: a 10k-file backlog recovered from the journal
    /// must not be re-probed file-by-file on every poll. The cursor covers
    /// the handled prefix, the seen set is evicted down to the unhandled
    /// tail, and a genuinely new file is still handled exactly once — even
    /// one that sorts *below* the cursor (out-of-order arrival).
    #[test]
    fn ten_k_backlog_scans_stay_o_new_files() {
        let dir = tmpdir("backlog10k");
        let journal_path = dir.join("shard.journal");
        // Pre-populate the backlog and its journal directly (journaling 10k
        // entries through append() would fsync 10k times).
        let mut journal_text = String::from("hacc-listener-journal v1\n");
        for i in 0..10_000 {
            let p = dir.join(format!("m_{i:05}.hcio"));
            std::fs::write(&p, b"handled long ago").unwrap();
            journal_text.push_str(&p.to_string_lossy());
            journal_text.push('\n');
        }
        std::fs::write(&journal_path, journal_text).unwrap();

        let count = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&count);
        let listener = Listener::spawn(
            dir.clone(),
            ListenerConfig {
                poll_interval: Duration::from_millis(5),
                suffix: ".hcio".into(),
                journal: Some(journal_path.clone()),
                ..Default::default()
            },
            move |_| {
                c2.fetch_add(1, Ordering::SeqCst);
            },
        );
        // Sweeps over 10k files take a while in debug builds: wait on the
        // observable counters instead of fixed sleeps.
        let wait_for = |cond: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !cond() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
        };
        wait_for(&|| listener.handled() == 10_000 && listener.seen_len() < 16);
        assert_eq!(listener.handled(), 10_000);
        assert_eq!(
            count.load(Ordering::SeqCst),
            0,
            "backlog is never resubmitted"
        );
        assert!(
            listener.seen_len() < 16,
            "handled-and-journaled backlog must be evicted from the seen \
             set, got {} resident entries",
            listener.seen_len()
        );

        // A new file above the cursor: handled exactly once, then evicted.
        std::fs::write(dir.join("m_10000.hcio"), b"new").unwrap();
        wait_for(&|| listener.handled() == 10_001);
        assert_eq!(listener.handled(), 10_001);
        assert_eq!(count.load(Ordering::SeqCst), 1);

        // A file sorting below the cursor breaks the prefix invariant; the
        // guard detects the count drift, rebuilds from the journal, and the
        // newcomer is handled exactly once.
        std::fs::write(dir.join("a_straggler.hcio"), b"late").unwrap();
        wait_for(&|| listener.handled() == 10_002 && listener.seen_len() < 16);
        assert_eq!(listener.handled(), 10_002);
        assert_eq!(count.load(Ordering::SeqCst), 2);
        assert!(
            listener.seen_len() < 16,
            "seen set must shrink back after the rebuild, got {}",
            listener.seen_len()
        );

        let report = listener.stop_report();
        assert_eq!(report.submitted.len(), 2);
        assert!(!report.crashed);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Review regression: the cursor guard must key on the *identity* of
    /// the below-cursor listing, not its count. If an already-handled file
    /// below the cursor is deleted (e.g. swept to tape) and a new file
    /// arrives below the cursor in the same window, the counts cancel; a
    /// count-based guard would report the newcomer handled and silently
    /// never submit it.
    #[test]
    fn cursor_guard_detects_cancelling_delete_and_add() {
        let dir = tmpdir("cursorcancel");
        let journal_path = dir.join("j.journal");
        let j = Journal::new(journal_path);
        let cfg = ListenerConfig {
            suffix: ".hcio".into(),
            ..Default::default()
        };
        // Five handled, journaled files.
        for i in 0..5 {
            let p = dir.join(format!("m_{i:02}.hcio"));
            std::fs::write(&p, b"handled").unwrap();
            j.append(&p).unwrap();
        }
        let source = Box::new(DirSource::new(dir.clone(), &cfg, |_| Some(())));
        let recovered = j.load().unwrap();
        let watch = Watch::new(dir.clone(), cfg, Some(j), source, recovered);
        let count = std::cell::Cell::new(0usize);
        let mut on_file = |_: &Path, _: &()| {
            count.set(count.get() + 1);
            Ok(())
        };
        let mut sweep_once = || watch.sweep(&|_, _| false, &mut on_file).unwrap();
        // Sweep 1 establishes the cover over the handled prefix.
        sweep_once();
        assert!(
            watch.progress.lock().cover.is_some(),
            "cover must be active"
        );
        assert_eq!(watch.progress.lock().seen.len(), 0, "prefix fully evicted");

        // An external sweep deletes one handled file while a straggler
        // lands below the cover: the below-cover count is unchanged (5).
        std::fs::remove_file(dir.join("m_03.hcio")).unwrap();
        std::fs::write(dir.join("m_01a.hcio"), b"late").unwrap();

        // Sweep 2 detects the fingerprint drift, rebuilds from the journal,
        // and starts the newcomer's quiescence window; sweep 3 submits it.
        sweep_once();
        sweep_once();
        assert_eq!(
            count.get(),
            1,
            "the straggler must be submitted exactly once"
        );
        let (_, report) = watch.snapshot();
        assert_eq!(report.submitted.len(), 1);
        assert!(report.submitted[0].ends_with("m_01a.hcio"));

        // Steady state again: further sweeps submit nothing and the seen
        // set shrinks back under the re-advanced cover.
        assert_eq!(sweep_once(), 0);
        assert_eq!(count.get(), 1);
        assert_eq!(watch.handled_total(), 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_compaction_drops_swept_outputs_and_survives_restart() {
        let dir = tmpdir("compactlive");
        let journal_path = dir.join("listener.journal");
        let count = Arc::new(AtomicUsize::new(0));
        let spawn = |threshold: Option<u64>, c: Arc<AtomicUsize>| {
            Listener::spawn(
                dir.clone(),
                ListenerConfig {
                    poll_interval: Duration::from_millis(5),
                    suffix: ".hcio".into(),
                    journal: Some(journal_path.clone()),
                    journal_compact_bytes: threshold,
                    ..Default::default()
                },
                move |_| {
                    c.fetch_add(1, Ordering::SeqCst);
                },
            )
        };
        // Handle 20 files without compaction.
        for i in 0..20 {
            std::fs::write(dir.join(format!("l2_{i:02}.hcio")), b"data").unwrap();
        }
        let listener = spawn(None, Arc::clone(&count));
        std::thread::sleep(Duration::from_millis(120));
        assert!(!listener.stop_report().crashed);
        assert_eq!(count.load(Ordering::SeqCst), 20);
        let full_size = Journal::new(journal_path.clone()).size_bytes().unwrap();

        // Archive 15 outputs (a real service sweeps drops to tape), then
        // restart with a tight compaction threshold: the journal must shed
        // the dead entries while keeping every live one.
        for i in 0..15 {
            std::fs::remove_file(dir.join(format!("l2_{i:02}.hcio"))).unwrap();
        }
        let listener = spawn(Some(full_size / 2), Arc::clone(&count));
        std::thread::sleep(Duration::from_millis(120));
        let report = listener.stop_report();
        assert!(report.compactions >= 1, "size trigger must have fired");
        assert_eq!(count.load(Ordering::SeqCst), 20, "no resubmissions");
        let j = Journal::new(journal_path.clone());
        assert!(j.size_bytes().unwrap() < full_size);
        let live = j.load().unwrap();
        assert_eq!(live.len(), 5, "exactly the live entries survive");
        for i in 15..20 {
            assert!(live.contains(&dir.join(format!("l2_{i:02}.hcio"))));
        }

        // And a third incarnation over the compacted journal still treats
        // the survivors as handled.
        let listener = spawn(None, Arc::clone(&count));
        std::thread::sleep(Duration::from_millis(80));
        assert!(listener.stop_report().submitted.is_empty());
        assert_eq!(count.load(Ordering::SeqCst), 20);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_during_compaction_recovers_without_losing_entries() {
        let dir = tmpdir("compactcrash");
        let journal_path = dir.join("listener.journal");
        for i in 0..10 {
            std::fs::write(dir.join(format!("l2_{i}.hcio")), b"data").unwrap();
        }
        let count = Arc::new(AtomicUsize::new(0));

        // Incarnation 1: crash at the first compaction attempt — in the
        // worst window, after staging the survivors but before the rename.
        let plan = faults::FaultPlan::new(11)
            .with_site(faults::SiteSpec::crash_at("listener.compact", 0))
            .build();
        let c2 = Arc::clone(&count);
        let listener = Listener::spawn(
            dir.clone(),
            ListenerConfig {
                poll_interval: Duration::from_millis(5),
                suffix: ".hcio".into(),
                journal: Some(journal_path.clone()),
                journal_compact_bytes: Some(64),
                injector: Some(plan),
                ..Default::default()
            },
            move |_| {
                c2.fetch_add(1, Ordering::SeqCst);
            },
        );
        std::thread::sleep(Duration::from_millis(150));
        let report1 = listener.stop_report();
        assert!(
            report1.crashed,
            "the compaction crash must kill the listener"
        );
        let handled_before = count.load(Ordering::SeqCst);
        assert!(handled_before > 0);
        let j = Journal::new(journal_path.clone());
        assert!(
            crate::journal::staging_of(j.path()).exists(),
            "crash must strand the staged tmp, not a half-rewritten journal"
        );
        assert_eq!(
            j.load().unwrap().len(),
            handled_before,
            "the live journal must be byte-untouched by the aborted compaction"
        );

        // Incarnation 2 (no faults): nothing is resubmitted, the remaining
        // files are handled, and a clean compaction consumes the stale tmp.
        let c3 = Arc::clone(&count);
        let listener = Listener::spawn(
            dir.clone(),
            ListenerConfig {
                poll_interval: Duration::from_millis(5),
                suffix: ".hcio".into(),
                journal: Some(journal_path.clone()),
                journal_compact_bytes: Some(64),
                ..Default::default()
            },
            move |_| {
                c3.fetch_add(1, Ordering::SeqCst);
            },
        );
        std::thread::sleep(Duration::from_millis(150));
        let report2 = listener.stop_report();
        assert!(!report2.crashed);
        assert_eq!(
            count.load(Ordering::SeqCst),
            10,
            "every file analyzed exactly once across the crash"
        );
        assert_eq!(j.load().unwrap().len(), 10);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A streamed campaign's outputs all stay live, so once its journal is
    /// over the threshold no sweep can shrink it: the rewrites must follow
    /// the journal's doublings, not the sweeps. (One rewrite per sweep before
    /// the journal remembered its post-rewrite size: 123 here.)
    #[test]
    fn live_journal_over_the_threshold_compacts_logarithmically() {
        let dir = tmpdir("compactlog");
        let j = Journal::new(dir.join("j.journal"));
        let cfg = ListenerConfig {
            suffix: ".hcio".into(),
            journal_compact_bytes: Some(128),
            ..Default::default()
        };
        let source = Box::new(DirSource::new(dir.clone(), &cfg, |_| Some(())));
        let watch = Watch::new(dir.clone(), cfg, Some(j.clone()), source, BTreeSet::new());
        let mut on_file = |_: &Path, _: &()| Ok(());
        let n = 64;
        for i in 0..n {
            std::fs::write(dir.join(format!("m_{i:03}.hcio")), b"live").unwrap();
            // Two sweeps per file: the quiescence gate wants two equal polls.
            for _ in 0..2 {
                watch.sweep(&|_, _| false, &mut on_file).unwrap();
            }
        }
        let (handled, report) = watch.snapshot();
        assert_eq!(handled, n, "every file handled");
        assert_eq!(
            j.load().unwrap().len(),
            n,
            "and every entry still journaled"
        );
        // First rewrite when the journal first exceeds 128 bytes, then one
        // per doubling up to its final size.
        let doublings = (j.size_bytes().unwrap() / 128).ilog2() as u64;
        assert!(
            (1..=doublings + 1).contains(&report.compactions),
            "{} rewrites for {n} live appends ({doublings} doublings over the threshold)",
            report.compactions
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
