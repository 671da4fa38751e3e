//! The co-scheduling "listener" (paper §3.2), derived from the Bellerophon
//! scheme: a background script that polls for new output files from the
//! running simulation and submits an analysis batch job for each one, then
//! resumes checking. A final sweep after the main job completes catches
//! outputs written at the very end of the run.
//!
//! Large simulation outputs take many poll intervals to write (the paper's
//! level-2 files are ~30 GB), so a file's *appearance* is not a safe submit
//! signal — analyzing a half-written container would fail or, worse, silently
//! truncate. Two guards address this:
//!
//! * **quiescence gate** — a new file is submitted only once its size is
//!   unchanged across two consecutive polls; the final sweep at
//!   [`Listener::stop`] applies the same gate (with faster re-polls, bounded
//!   by [`ListenerConfig::stop_grace`]), so a file still being written at
//!   stop time is never submitted truncated;
//! * **temporary exclusion** — writers that stage through `foo.tmp` + rename
//!   are supported by skipping names ending in `.tmp` outright.
//!
//! On a real facility the listener itself fails: submissions bounce,
//! directory scans hit filesystem hiccups, and the listener process gets
//! killed. Three mechanisms make those survivable:
//!
//! * **retry with backoff** — a transient scan error skips one poll; a
//!   transient submit error is retried under the capped exponential
//!   [`ListenerConfig::retry`] policy, and a file whose submissions all fail
//!   stays unhandled so a later poll tries again;
//! * **crash-recovery journal** — with [`ListenerConfig::journal`] set,
//!   every handled file is appended to a [`crate::journal::Journal`] and
//!   preloaded on spawn, so a restarted listener never double-submits;
//! * **fault sites** — `listener.scan`, `listener.submit`, and
//!   `listener.journal` consult the [`ListenerConfig::injector`] (or the
//!   globally installed one), letting the chaos harness rehearse all of the
//!   above deterministically.

use crate::journal::Journal;
use faults::{BackoffPolicy, FaultInjector, FaultKind};
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
    /// How long [`Listener::stop`]'s final sweep keeps waiting for files
    /// that are still growing before giving up on them.
    pub stop_grace: Duration,
    /// Artifact-cache gate: consulted with each quiescent file *before*
    /// submission. When it returns `true` — a verified analysis product for
    /// this exact file already exists — the file is recorded as handled
    /// (journal included) without submitting a job, so a crash-restart or a
    /// duplicate scan never re-runs work whose output artifact survives.
    pub cache_gate: Option<CacheGate>,
    /// Size-triggered journal compaction: once the journal file exceeds this
    /// many bytes, it is rewritten (tmp + atomic rename) keeping only
    /// entries whose output file still exists on disk. `None` disables
    /// compaction — acceptable for one-shot runs, but a resident service
    /// must set it or the journal grows without bound. Assumes outputs are
    /// write-once: a handled file that is deleted and later *recreated
    /// under the same name* would be resubmitted after compaction.
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
    /// Decide a fault at `site`: the explicit injector when configured,
    /// otherwise the process-global one. Shared with the service's sharded
    /// listener, which reuses the `listener.*` sites.
    pub(crate) fn fault(&self, site: &str) -> Option<FaultKind> {
        match &self.injector {
            Some(inj) => inj.check(site),
            None => faults::poll(site),
        }
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

impl ListenerReport {
    /// Fold another report's accounting into this one. The service's shard
    /// workers sweep into a fresh per-sweep report and absorb it into the
    /// campaign's cumulative one afterwards, so no lock is held across a
    /// sweep (holding the report lock while the sweep takes the scan lock
    /// would invert the order a concurrent snapshot takes them in).
    pub fn absorb(&mut self, other: ListenerReport) {
        self.submitted.extend(other.submitted);
        self.crashed |= other.crashed;
        self.submit_retries += other.submit_retries;
        self.journal_failures += other.journal_failures;
        self.cache_skipped.extend(other.cache_skipped);
        self.compactions += other.compactions;
    }
}

/// A running listener thread.
pub struct Listener {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<ListenerReport>,
    state: Arc<Mutex<ScanState>>,
}

pub(crate) fn matching_files(dir: &Path, cfg: &ListenerConfig) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut out: Vec<PathBuf> = entries
        .flatten()
        .filter(|e| e.file_type().map(|t| t.is_file()).unwrap_or(false))
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .map(|n| {
                    n.starts_with(&cfg.prefix)
                        && n.ends_with(&cfg.suffix)
                        && !n.ends_with(EXCLUDE_SUFFIX)
                })
                .unwrap_or(false)
        })
        .collect();
    out.sort();
    out
}

/// Per-directory scan state, shared between the poll thread and the
/// [`Listener`] handle (and, in service mode, between shard workers): the
/// seen set, the quiescence size map, and the steady-state cursor.
///
/// The cursor is the heart of the O(new-files) steady state. Matching files
/// are handled in sorted name order, and once a *contiguous prefix* of the
/// sorted listing is fully handled the cursor advances to the prefix's last
/// name: every later sweep dismisses the whole prefix with one binary
/// search instead of probing each name against the seen set, and the
/// prefix's entries are **evicted** from the seen set, so steady-state
/// per-file work and memory track the unhandled tail — not every file ever
/// handled. Eviction is enabled only when a journal is configured: the
/// journal is the durable copy that rebuilds the seen set if the cursor's
/// invariant ever breaks (a file appearing *below* the cursor, detected by
/// comparing a fingerprint of the below-cursor name listing against the
/// one recorded when the cursor advanced — a bare count would miss a
/// deletion and an out-of-order arrival cancelling each other out).
pub(crate) struct ScanState {
    /// Handled files not (yet) covered by the cursor.
    seen: BTreeSet<PathBuf>,
    /// Size at the previous poll for files still being written.
    pending: HashMap<PathBuf, u64>,
    /// Greatest name of the fully-handled sorted prefix; every present
    /// matching file `<=` this path is handled.
    cursor: Option<PathBuf>,
    /// How many matching files were `<= cursor` when it last advanced.
    below: usize,
    /// [`names_fingerprint`] of those below-cursor names at that advance.
    below_fp: u64,
    /// Total files handled (journal-recovered included) — the counter
    /// behind [`Listener::handled`], kept separately because eviction makes
    /// `seen.len()` an undercount.
    handled_total: usize,
}

impl ScanState {
    pub(crate) fn new() -> Self {
        ScanState {
            seen: BTreeSet::new(),
            pending: HashMap::new(),
            cursor: None,
            below: 0,
            below_fp: 0,
            handled_total: 0,
        }
    }

    /// Preload journal-recovered entries; each counts as handled.
    pub(crate) fn recover(&mut self, entries: impl IntoIterator<Item = PathBuf>) {
        let before = self.seen.len();
        self.seen.extend(entries);
        self.handled_total += self.seen.len() - before;
    }

    /// Total files handled so far (recovered included).
    pub(crate) fn handled_total(&self) -> usize {
        self.handled_total
    }

    /// Entries currently resident in memory — bounded by the unhandled tail
    /// once the cursor is active, not by total files handled.
    pub(crate) fn seen_len(&self) -> usize {
        self.seen.len()
    }

    pub(crate) fn is_handled(&self, f: &Path) -> bool {
        self.cursor.as_deref().is_some_and(|c| f <= c) || self.seen.contains(f)
    }

    pub(crate) fn mark_handled(&mut self, f: &Path) {
        self.pending.remove(f);
        self.seen.insert(f.to_path_buf());
        self.handled_total += 1;
    }
}

/// Order-sensitive fingerprint of a sorted name listing, used to detect any
/// change to the below-cursor prefix — including a deletion and an
/// out-of-order arrival that leave the *count* unchanged. In-memory only
/// (recomputed per process), so per-process determinism is all that is
/// required. Hashing the prefix is O(below) per sweep, the same order as
/// the directory listing that produced `files` in the first place.
fn names_fingerprint(files: &[PathBuf]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for f in files {
        f.hash(&mut h);
    }
    h.finish()
}

/// One gated sweep over `dir`: quiescence check, cache gate, submission
/// with retry, journal append, cursor advance/eviction, and size-triggered
/// journal compaction. Returns `false` when an injected crash killed the
/// scanning thread mid-sweep.
///
/// Shared by the single-directory [`Listener`] and the service's sharded
/// listener. `state` must not be swept concurrently by another thread
/// (other threads may read its counters through the mutex).
pub(crate) fn sweep_dir<F>(
    dir: &Path,
    cfg: &ListenerConfig,
    state: &Mutex<ScanState>,
    journal: Option<&Journal>,
    on_file: &mut F,
    report: &mut ListenerReport,
) -> bool
where
    F: FnMut(&Path) -> Result<(), SubmitError>,
{
    let files = matching_files(dir, cfg);
    // Cursor guard: the invariant is "every present matching file `<=
    // cursor` is handled". If the below-cursor name listing drifted from
    // the one recorded when the cursor advanced — detected by fingerprint,
    // not count, so a deletion and an out-of-order arrival cannot cancel
    // each other out — a file appeared below the cursor: rebuild the seen
    // set from the journal and fall back to per-file probing for this sweep.
    let mut start = 0usize;
    // Set when drift was detected but the journal could not be read back:
    // the cursor baseline must not be re-recorded from the drifted listing,
    // or the next sweep would see a clean match and skip the newcomer
    // forever.
    let mut cursor_suspect = false;
    {
        let mut st = state.lock();
        if let Some(cursor) = st.cursor.clone() {
            let below = files.partition_point(|f| f.as_path() <= cursor.as_path());
            if below == st.below && names_fingerprint(&files[..below]) == st.below_fp {
                start = below;
            } else if let Some(j) = journal {
                match j.load() {
                    Ok(entries) => {
                        telemetry::count!("listener", "cursor_rebuilds", 1);
                        st.seen
                            .extend(entries.into_iter().filter(|p| p.parent() == Some(dir)));
                        st.cursor = None;
                        st.below = 0;
                        st.below_fp = 0;
                    }
                    Err(_) => {
                        // The durable copy is unreadable right now; keep
                        // trusting the cursor — skipping is the safe side
                        // for exactly-once (the newcomer waits for a sweep
                        // where the journal reads back).
                        start = below;
                        cursor_suspect = true;
                    }
                }
            }
        }
    }
    for f in &files[start..] {
        if state.lock().is_handled(f) {
            continue;
        }
        // Quiescence gate: submit only once the size is unchanged across
        // two consecutive polls, so in-progress writes are never picked up.
        let Ok(meta) = std::fs::metadata(f) else {
            continue; // raced with a writer's rename/delete
        };
        let size = meta.len();
        {
            let mut st = state.lock();
            if st.pending.get(f) != Some(&size) {
                // First sighting, or still growing: wait for a poll where
                // the size holds steady.
                st.pending.insert(f.clone(), size);
                continue;
            }
        }
        // Cache gate: a verified artifact for this exact file means the
        // submission would recompute something that already exists. Record
        // the file as handled — journal included, so a restart doesn't
        // resubmit it either — without running a job. Checked only after
        // quiescence: a half-written file's digest matches nothing anyway,
        // but there is no point hashing a moving target.
        if let Some(gate) = &cfg.cache_gate {
            if (gate.0)(f) {
                telemetry::count!("listener", "cache_skipped", 1);
                if let Some(j) = journal {
                    if !journal_append(f, cfg, report, j) {
                        return false; // crashed mid-append
                    }
                }
                report.cache_skipped.push(f.clone());
                state.lock().mark_handled(f);
                continue;
            }
        }
        if !submit_one(f, cfg, on_file, report, journal) {
            return false; // crashed mid-submit
        }
        if report.submitted.last().map(PathBuf::as_path) == Some(f.as_path()) {
            state.lock().mark_handled(f);
        }
    }
    // Advance the cursor over the (possibly longer) contiguous handled
    // prefix and evict what it now covers. Journal-gated: evicting without
    // a durable copy would turn a cursor rebuild into double submission.
    // Suspect-gated: while a detected drift awaits its journal rebuild, the
    // stale baseline is kept so the next sweep re-detects it.
    if journal.is_some() && !cursor_suspect {
        let mut st = state.lock();
        let mut idx =
            files.partition_point(|f| st.cursor.as_deref().is_some_and(|c| f.as_path() <= c));
        while idx < files.len() && st.is_handled(&files[idx]) {
            idx += 1;
        }
        if idx > 0 && (st.below != idx || st.cursor.is_none()) {
            let cursor = files[idx - 1].clone();
            let tail = st.seen.split_off(&cursor);
            st.seen = tail;
            st.seen.remove(&cursor);
            st.cursor = Some(cursor);
            st.below = idx;
            st.below_fp = names_fingerprint(&files[..idx]);
        }
    }
    // Size-triggered journal compaction, reusing the torn-append-healing
    // tmp+rename discipline (see [`Journal::rewrite`]): entries whose
    // output file vanished are dead weight a resident process would carry
    // forever. The `listener.compact` fault site lets the chaos harness
    // crash the worst window (survivors staged, rename not yet issued).
    if let (Some(j), Some(threshold)) = (journal, cfg.journal_compact_bytes) {
        // Consult the fault site only when a compaction is actually due, so
        // recorded hit counts track real compactions, not every sweep.
        if j.size_bytes().map(|s| s > threshold).unwrap_or(false) {
            match cfg.fault("listener.compact") {
                Some(FaultKind::Crash) => {
                    telemetry::instant!("faults", "listener.compact", 1);
                    if let Ok(live) = j.load() {
                        let kept = live.into_iter().filter(|p| p.exists()).collect();
                        let _ = j.stage(&kept);
                    }
                    return false; // died between staging and publish
                }
                Some(FaultKind::Stall(d)) => {
                    telemetry::instant!("faults", "listener.compact", 2);
                    std::thread::sleep(d);
                }
                Some(FaultKind::Transient) => {
                    // Compaction is pure maintenance: skip this round, the
                    // next sweep retries.
                    telemetry::instant!("faults", "listener.compact", 0);
                    return true;
                }
                None => {}
            }
            if let Ok(Some(_dropped)) = j.compact_if_larger(threshold, |p| p.exists()) {
                telemetry::count!("listener", "journal_compactions", 1);
                report.compactions += 1;
            }
        }
    }
    true
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
        let state = Arc::new(Mutex::new(ScanState::new()));
        // Crash recovery: files a previous listener run already handled are
        // seen from the start and never resubmitted.
        let journal = cfg.journal.clone().map(Journal::new);
        if let Some(j) = &journal {
            let recovered = j.load().expect("listener journal unreadable");
            telemetry::count!("listener", "journal_recovered", recovered.len());
            state.lock().recover(recovered);
        }
        let stop2 = Arc::clone(&stop);
        let state2 = Arc::clone(&state);
        let handle = std::thread::spawn(move || {
            let mut report = ListenerReport::default();
            loop {
                if stop2.load(Ordering::Acquire) {
                    // Final sweeps "to catch the last output data" — under
                    // the same quiescence gate as regular polls (a file may
                    // still be mid-write when stop is requested), re-polling
                    // quickly until nothing unhandled remains or the grace
                    // period runs out.
                    let deadline = Instant::now() + cfg.stop_grace;
                    loop {
                        if !sweep_dir(
                            &dir,
                            &cfg,
                            &state2,
                            journal.as_ref(),
                            &mut on_file,
                            &mut report,
                        ) {
                            report.crashed = true;
                            return report;
                        }
                        let all_handled = {
                            let st = state2.lock();
                            matching_files(&dir, &cfg).iter().all(|f| st.is_handled(f))
                        };
                        if all_handled || Instant::now() >= deadline {
                            break;
                        }
                        // Re-poll quickly, but not so quickly that a slow
                        // writer's size appears unchanged between passes.
                        std::thread::sleep(cfg.poll_interval.min(Duration::from_millis(25)));
                    }
                    break;
                }
                telemetry::count!("listener", "scans", 1);
                match cfg.fault("listener.scan") {
                    Some(FaultKind::Crash) => {
                        // The listener process dies: no final sweep, no
                        // journal flush beyond what already committed.
                        telemetry::instant!("faults", "listener.scan", 1);
                        report.crashed = true;
                        return report;
                    }
                    Some(FaultKind::Stall(d)) => {
                        telemetry::instant!("faults", "listener.scan", 2);
                        std::thread::sleep(d);
                    }
                    Some(FaultKind::Transient) => {
                        // Directory scan failed (filesystem hiccup); the
                        // next poll is the retry.
                        telemetry::instant!("faults", "listener.scan", 0);
                    }
                    None => {
                        if !sweep_dir(
                            &dir,
                            &cfg,
                            &state2,
                            journal.as_ref(),
                            &mut on_file,
                            &mut report,
                        ) {
                            report.crashed = true;
                            return report;
                        }
                    }
                }
                // Interruptible sleep: check the stop flag every few ms so
                // stop() never blocks for a whole poll interval.
                let mut remaining = cfg.poll_interval;
                let slice = Duration::from_millis(5);
                while remaining > Duration::ZERO && !stop2.load(Ordering::Acquire) {
                    let nap = remaining.min(slice);
                    std::thread::sleep(nap);
                    remaining = remaining.saturating_sub(nap);
                }
            }
            report
        });
        Listener {
            stop,
            handle,
            state,
        }
    }

    /// Number of files handled so far (journal-recovered files included).
    pub fn handled(&self) -> usize {
        self.state.lock().handled_total()
    }

    /// Entries currently resident in the in-memory seen set. With a journal
    /// configured this is bounded by the *unhandled tail* of the directory —
    /// the cursor evicts handled-and-journaled entries — not by the total
    /// number of files ever handled. Exposed for diagnostics and the
    /// backlog regression tests.
    pub fn seen_len(&self) -> usize {
        self.state.lock().seen_len()
    }

    /// Signal the end of the main application, wait for the final sweep and
    /// return the full [`ListenerReport`]: every file submitted (in
    /// submission order), cache skips, the crash flag and the
    /// retry/compaction accounting.
    pub fn stop_report(self) -> ListenerReport {
        self.stop.store(true, Ordering::Release);
        self.handle.join().expect("listener thread panicked")
    }
}

/// Submit one quiescent file with retry-with-backoff on transient failures.
///
/// Returns `false` only when an injected `Crash` fault killed the listener.
/// Success is visible to the caller as `report.submitted.last() == Some(f)`;
/// a file whose attempts are exhausted is simply not appended (a later poll
/// retries it from scratch).
pub(crate) fn submit_one<F>(
    f: &Path,
    cfg: &ListenerConfig,
    on_file: &mut F,
    report: &mut ListenerReport,
    journal: Option<&Journal>,
) -> bool
where
    F: FnMut(&Path) -> Result<(), SubmitError>,
{
    let _span = telemetry::span!("listener", "submit");
    for attempt in 0..cfg.retry.max_attempts {
        if attempt > 0 {
            std::thread::sleep(cfg.retry.delay(attempt - 1));
        }
        let outcome = match cfg.fault("listener.submit") {
            Some(FaultKind::Crash) => {
                telemetry::instant!("faults", "listener.submit", 1);
                return false;
            }
            Some(FaultKind::Transient) => {
                telemetry::instant!("faults", "listener.submit", 0);
                Err(SubmitError("injected transient fault".into()))
            }
            Some(FaultKind::Stall(d)) => {
                telemetry::instant!("faults", "listener.submit", 2);
                std::thread::sleep(d);
                on_file(f)
            }
            None => on_file(f),
        };
        match outcome {
            Ok(()) => {
                if let Some(j) = journal {
                    if !journal_append(f, cfg, report, j) {
                        return false; // crashed mid-append
                    }
                }
                telemetry::count!("listener", "submitted", 1);
                report.submitted.push(f.to_path_buf());
                return true;
            }
            Err(_) => report.submit_retries += 1,
        }
    }
    true // attempts exhausted; the file stays unhandled for a later poll
}

/// Append a handled file to the journal, retrying transient failures.
/// Returns `false` when an injected `Crash` fault fired.
pub(crate) fn journal_append(
    f: &Path,
    cfg: &ListenerConfig,
    report: &mut ListenerReport,
    j: &Journal,
) -> bool {
    for attempt in 0..cfg.retry.max_attempts {
        if attempt > 0 {
            std::thread::sleep(cfg.retry.delay(attempt - 1));
        }
        match cfg.fault("listener.journal") {
            Some(FaultKind::Crash) => {
                telemetry::instant!("faults", "listener.journal", 1);
                return false;
            }
            Some(FaultKind::Transient) => {
                telemetry::instant!("faults", "listener.journal", 0);
                continue;
            }
            Some(FaultKind::Stall(d)) => {
                telemetry::instant!("faults", "listener.journal", 2);
                std::thread::sleep(d);
            }
            None => {}
        }
        if j.append(f).is_ok() {
            return true;
        }
    }
    // The submission happened but could not be recorded; a restarted
    // listener may resubmit this file.
    report.journal_failures += 1;
    true
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
        let state = Mutex::new(ScanState::new());
        state.lock().recover(j.load().unwrap());
        let count = std::cell::Cell::new(0usize);
        let mut report = ListenerReport::default();
        let mut on_file = |_: &Path| {
            count.set(count.get() + 1);
            Ok(())
        };
        // Sweep 1 establishes the cursor over the handled prefix.
        assert!(sweep_dir(
            &dir,
            &cfg,
            &state,
            Some(&j),
            &mut on_file,
            &mut report
        ));
        assert!(state.lock().cursor.is_some(), "cursor must be active");
        assert_eq!(state.lock().seen_len(), 0, "prefix fully evicted");

        // An external sweep deletes one handled file while a straggler
        // lands below the cursor: the below-cursor count is unchanged (5).
        std::fs::remove_file(dir.join("m_03.hcio")).unwrap();
        std::fs::write(dir.join("m_01a.hcio"), b"late").unwrap();

        // Sweep 2 detects the fingerprint drift, rebuilds from the journal,
        // and starts the newcomer's quiescence window; sweep 3 submits it.
        assert!(sweep_dir(
            &dir,
            &cfg,
            &state,
            Some(&j),
            &mut on_file,
            &mut report
        ));
        assert!(sweep_dir(
            &dir,
            &cfg,
            &state,
            Some(&j),
            &mut on_file,
            &mut report
        ));
        assert_eq!(
            count.get(),
            1,
            "the straggler must be submitted exactly once"
        );
        assert_eq!(report.submitted.len(), 1);
        assert!(report.submitted[0].ends_with("m_01a.hcio"));

        // Steady state again: further sweeps submit nothing and the seen
        // set shrinks back under the re-advanced cursor.
        assert!(sweep_dir(
            &dir,
            &cfg,
            &state,
            Some(&j),
            &mut on_file,
            &mut report
        ));
        assert_eq!(count.get(), 1);
        assert_eq!(state.lock().handled_total(), 6);
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
            j.staging_path().exists(),
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
}
