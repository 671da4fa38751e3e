//! The content-addressed artifact store.
//!
//! Objects live at `dir/objects/<digest>` (written tmp+rename, deduplicated
//! by digest with refcounts so two keys mapping to identical payloads share
//! one file); the `dir/index` log maps cache keys to object digests and
//! survives crashes via torn-append healing (see [`crate::index`]).
//!
//! Every lookup **re-verifies** the payload digest before returning, so a
//! poisoned object file, a torn index record, or an injected fault can only
//! ever produce a miss — the caller recomputes, and the workflow's output is
//! byte-identical with the cache on or off. Fault sites `cache.read` and
//! `cache.verify` let the chaos harness rehearse exactly that degradation.

use crate::digest::{digest_bytes, CacheKey, Digest};
use crate::index::{Index, IndexEntry};
use faults::Fired;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Snapshot of the cache's lifetime counters (since [`ArtifactCache::open`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a verified payload.
    pub hits: u64,
    /// Lookups that found nothing usable (absent, fault-forced, or failed
    /// verification).
    pub misses: u64,
    /// Entries inserted (or re-put) by [`ArtifactCache::insert`].
    pub inserts: u64,
    /// Entries removed by the LRU byte-budget policy.
    pub evictions: u64,
    /// Lookups whose payload failed digest verification (a subset of
    /// `misses`); the offending entry is dropped.
    pub verify_failures: u64,
    /// Times the index log was rewritten by threshold-triggered or explicit
    /// compaction.
    pub compactions: u64,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    digest: Digest,
    len: u64,
    /// LRU recency: larger = more recently put or hit.
    seq: u64,
}

#[derive(Debug, Default)]
struct State {
    entries: BTreeMap<u128, Entry>,
    /// Object refcounts by digest: an object file is deleted only when no
    /// live entry references it.
    refs: BTreeMap<u128, u64>,
    /// Mirror of `entries` ordered by recency: `(seq, key)` pairs, least
    /// recent first. Keeps a burst of k evictions at O(k log n) instead of
    /// the old full-scan-per-victim O(k·n).
    recency: BTreeSet<(u64, u128)>,
    total_bytes: u64,
    next_seq: u64,
    /// Index log size right after the previous rewrite (0 before the
    /// first); the next one is due only once the log has doubled from here.
    compacted_bytes: u64,
}

impl State {
    /// Move `key` to the most-recent position under a fresh `seq`.
    fn touch(&mut self, key: CacheKey, seq: u64) {
        if let Some(e) = self.entries.get_mut(&key.0 .0) {
            self.recency.remove(&(e.seq, key.0 .0));
            e.seq = seq;
            self.recency.insert((seq, key.0 .0));
        }
    }
}

/// A content-addressed artifact cache rooted at one directory.
///
/// Thread-safe; share via `Arc`. All persistence is synchronous — an
/// [`insert`](ArtifactCache::insert) that returns `Ok` has the object file
/// renamed into place and the index record synced, in that order, so a crash
/// at any point leaves either a fully usable entry or a harmless miss.
#[derive(Debug)]
pub struct ArtifactCache {
    dir: PathBuf,
    byte_budget: Option<u64>,
    /// Rewrite the index log once it grows past this many bytes (checked
    /// after each insert, amortised so churny workloads pay O(1) per op).
    index_compact_bytes: Option<u64>,
    index: Index,
    state: Mutex<State>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    verify_failures: AtomicU64,
    compactions: AtomicU64,
    /// Test-only: stall injected into the out-of-lock object write, to
    /// prove large payload staging cannot block concurrent lookups.
    #[cfg(test)]
    write_stall_ms: AtomicU64,
}

impl ArtifactCache {
    /// Open (or create) the cache at `dir`, replaying the index. Entries
    /// whose records survived a previous run come back in recency order;
    /// their payloads are verified lazily, on first lookup.
    ///
    /// `byte_budget` caps the total live payload bytes; `None` disables
    /// eviction.
    pub fn open(dir: impl Into<PathBuf>, byte_budget: Option<u64>) -> io::Result<ArtifactCache> {
        let dir = dir.into();
        std::fs::create_dir_all(dir.join("objects"))?;
        let index = Index::new(dir.join("index"));
        let mut state = State::default();
        for entry in index.load()? {
            state.next_seq += 1;
            let seq = state.next_seq;
            if let Some(old) = state.entries.insert(
                entry.key.0 .0,
                Entry {
                    digest: entry.digest,
                    len: entry.len,
                    seq,
                },
            ) {
                state.total_bytes -= old.len;
                state.recency.remove(&(old.seq, entry.key.0 .0));
                Self::deref_locked(&mut state, old.digest);
            }
            state.recency.insert((seq, entry.key.0 .0));
            state.total_bytes += entry.len;
            *state.refs.entry(entry.digest.0).or_insert(0) += 1;
        }
        Ok(ArtifactCache {
            dir,
            byte_budget,
            index_compact_bytes: None,
            index,
            state: Mutex::new(state),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            verify_failures: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            #[cfg(test)]
            write_stall_ms: AtomicU64::new(0),
        })
    }

    /// Enable amortised ("background") index compaction: after an insert,
    /// if the append-only log exceeds `bytes`, it is rewritten down to the
    /// live entries. `del`s and superseded `put`s from eviction churn stop
    /// accumulating forever.
    pub fn with_index_compact_bytes(mut self, bytes: u64) -> ArtifactCache {
        self.index_compact_bytes = Some(bytes);
        self
    }

    /// The cache root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Lifetime counters since open.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            verify_failures: self.verify_failures.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.state.lock().entries.len()
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total live payload bytes.
    pub fn total_bytes(&self) -> u64 {
        self.state.lock().total_bytes
    }

    fn object_path(&self, digest: Digest) -> PathBuf {
        self.dir.join("objects").join(digest.to_string())
    }

    /// Store `payload` under `key`, returning its digest. The object file
    /// is written tmp+rename before the index record is appended, so a
    /// crash between the two leaves an orphaned (harmless) object, never a
    /// dangling index entry.
    ///
    /// Object-file I/O is staged **outside** the state lock: a concurrent
    /// lookup of another key never waits behind a large payload write. The
    /// lock is taken briefly twice — once to reserve the object's refcount
    /// (so eviction cannot delete the file mid-stage), once to commit the
    /// entry and append the (tiny) index record.
    pub fn insert(&self, key: CacheKey, payload: &[u8]) -> io::Result<Digest> {
        let _span = telemetry::span!("cache", "insert", payload.len());
        let digest = digest_bytes(payload);
        let len = payload.len() as u64;
        // Phase 1 — reserve. The pre-incremented refcount is the pin that
        // keeps a concurrent eviction of some other key sharing this digest
        // from unlinking the object file while we stage it.
        let seq = {
            let mut state = self.state.lock();
            state.next_seq += 1;
            let seq = state.next_seq;
            if let Some(existing) = state.entries.get(&key.0 .0).copied() {
                if existing.digest == digest {
                    // Idempotent re-insert: just refresh recency.
                    state.touch(key, seq);
                    self.inserts.fetch_add(1, Ordering::Relaxed);
                    return Ok(digest);
                }
            }
            *state.refs.entry(digest.0).or_insert(0) += 1;
            seq
        };
        // Phase 2 — stage the object with no lock held, whenever it is not on
        // disk yet: another inserter of this digest may still be writing, and
        // this one must not commit ahead of the file. Two stagers are safe —
        // content-addressed object, per-`seq` tmp name, atomic rename.
        let path = self.object_path(digest);
        if !path.exists() {
            #[cfg(test)]
            {
                let ms = self.write_stall_ms.load(Ordering::Relaxed);
                if ms > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                }
            }
            let tmp = self.dir.join("objects").join(format!("{digest}.tmp{seq}"));
            let staged = std::fs::write(&tmp, payload).and_then(|()| std::fs::rename(&tmp, &path));
            if let Err(e) = staged {
                let mut state = self.state.lock();
                Self::deref_locked(&mut state, digest);
                return Err(e);
            }
        }
        // Phase 3 — commit: index record then the in-memory entry. The
        // reservation from phase 1 becomes the entry's reference.
        let mut state = self.state.lock();
        let entry = IndexEntry { key, digest, len };
        if let Err(e) = self.index.append_put(&entry) {
            self.drop_object_ref(&mut state, digest);
            return Err(e);
        }
        if let Some(old) = state.entries.insert(key.0 .0, Entry { digest, len, seq }) {
            state.total_bytes -= old.len;
            state.recency.remove(&(old.seq, key.0 .0));
            self.drop_object_ref(&mut state, old.digest);
        }
        state.recency.insert((seq, key.0 .0));
        state.total_bytes += len;
        self.inserts.fetch_add(1, Ordering::Relaxed);
        self.evict_over_budget(&mut state, Some(key));
        self.maybe_compact(&mut state);
        Ok(digest)
    }

    /// Fetch and **verify** the payload stored under `key`. Returns `None`
    /// on a miss — absent entry, injected fault, unreadable object, or a
    /// digest mismatch (in which case the poisoned entry is dropped so it
    /// cannot fail again). A `Some` payload is guaranteed to hash to the
    /// digest recorded at insert time.
    pub fn lookup(&self, key: CacheKey) -> Option<Vec<u8>> {
        let _span = telemetry::span!("cache", "lookup");
        let mut state = self.state.lock();
        let entry = match state.entries.get(&key.0 .0) {
            Some(e) => *e,
            None => return self.miss(),
        };
        match faults::poll_site(None, "cache.read", "cache.read") {
            // A transient read error: this lookup misses, the entry
            // survives for the next one.
            Some(Fired::Transient) => return self.miss(),
            Some(Fired::Crash) => {
                // The object is gone for good (disk corruption, a purged
                // scratch filesystem): poison the entry.
                self.remove_entry(&mut state, key);
                return self.miss();
            }
            None => {}
        }
        let payload = match std::fs::read(self.object_path(entry.digest)) {
            Ok(b) => b,
            Err(_) => {
                self.remove_entry(&mut state, key);
                return self.miss();
            }
        };
        let verify_start = Instant::now();
        let forced_fail = faults::poll_site(None, "cache.verify", "cache.verify");
        let ok = forced_fail.is_none()
            && payload.len() as u64 == entry.len
            && digest_bytes(&payload) == entry.digest;
        telemetry::observe!(
            "cache",
            "verify_us",
            verify_start.elapsed().as_micros() as u64
        );
        if !ok {
            self.verify_failures.fetch_add(1, Ordering::Relaxed);
            telemetry::instant!("cache", "verify_fail", 0);
            self.remove_entry(&mut state, key);
            return self.miss();
        }
        state.next_seq += 1;
        let seq = state.next_seq;
        state.touch(key, seq);
        self.hits.fetch_add(1, Ordering::Relaxed);
        telemetry::count!("cache", "hits", 1);
        Some(payload)
    }

    /// True when `key` very likely resolves to a valid payload — the
    /// listener's resubmission gate.
    ///
    /// Fast path: a metadata-level check only (live index entry + object
    /// file `stat` whose length matches the recorded length). No payload is
    /// read or re-hashed, so once the store is sharded the gate costs a
    /// stat, not a remote fetch. Anything suspect — missing file, length
    /// mismatch — falls back to the full verifying [`lookup`], which drops
    /// poisoned entries exactly as before.
    ///
    /// Accounting: a fast-path pass counts one `hit` (and refreshes LRU
    /// recency), a fall-back counts whatever `lookup` counts — so
    /// hit+miss totals remain one-per-call, same as the old
    /// `lookup().is_some()` implementation.
    ///
    /// The guarantee is deliberately weaker than `lookup`: a corrupted
    /// object of *unchanged length* passes the gate. That is safe because
    /// every consumer that actually reads the payload goes through the
    /// verifying `lookup`, which degrades such corruption to a miss and a
    /// recompute — the catalog stays byte-identical either way.
    ///
    /// [`lookup`]: ArtifactCache::lookup
    pub fn contains_verified(&self, key: CacheKey) -> bool {
        let _span = telemetry::span!("cache", "contains");
        let entry = {
            let state = self.state.lock();
            match state.entries.get(&key.0 .0) {
                Some(e) => *e,
                None => {
                    drop(state);
                    self.miss();
                    return false;
                }
            }
        };
        match std::fs::metadata(self.object_path(entry.digest)) {
            Ok(m) if m.len() == entry.len => {
                let mut state = self.state.lock();
                state.next_seq += 1;
                let seq = state.next_seq;
                state.touch(key, seq);
                self.hits.fetch_add(1, Ordering::Relaxed);
                telemetry::count!("cache", "hits", 1);
                true
            }
            // Suspect (unreadable or wrong length): full verify, which
            // also drops the entry when it is genuinely poisoned.
            _ => self.lookup(key).is_some(),
        }
    }

    fn miss(&self) -> Option<Vec<u8>> {
        self.misses.fetch_add(1, Ordering::Relaxed);
        telemetry::count!("cache", "misses", 1);
        None
    }

    /// Drop `key` from the index and the in-memory map; deletes the object
    /// file when no other entry shares its digest. Index-append failures
    /// are swallowed: the in-memory drop already prevents a false hit this
    /// run, and on replay the self-verifying lookup catches the rest.
    fn remove_entry(&self, state: &mut State, key: CacheKey) {
        if let Some(old) = state.entries.remove(&key.0 .0) {
            state.total_bytes -= old.len;
            state.recency.remove(&(old.seq, key.0 .0));
            let _ = self.index.append_del(key);
            self.drop_object_ref(state, old.digest);
        }
    }

    fn deref_locked(state: &mut State, digest: Digest) -> bool {
        match state.refs.get_mut(&digest.0) {
            Some(n) if *n > 1 => {
                *n -= 1;
                false
            }
            Some(_) => {
                state.refs.remove(&digest.0);
                true
            }
            None => false,
        }
    }

    fn drop_object_ref(&self, state: &mut State, digest: Digest) {
        if Self::deref_locked(state, digest) {
            let _ = std::fs::remove_file(self.object_path(digest));
        }
    }

    /// Evict least-recently-used entries until the byte budget is met,
    /// sparing `protect` (the entry just inserted — an insert must be
    /// readable at least once). The `recency` set hands out victims oldest
    /// first, so an eviction storm of k victims is O(k log n) — the old
    /// implementation re-scanned every entry per victim, O(k·n).
    fn evict_over_budget(&self, state: &mut State, protect: Option<CacheKey>) {
        let Some(budget) = self.byte_budget else {
            return;
        };
        while state.total_bytes > budget {
            // At most one (protected) element is ever skipped, so this
            // `find` inspects one or two entries, never the whole map.
            let victim = state
                .recency
                .iter()
                .map(|&(_, k)| k)
                .find(|k| protect.map(|p| p.0 .0 != *k).unwrap_or(true));
            let Some(victim) = victim else { break };
            self.remove_entry(state, CacheKey(Digest(victim)));
            self.evictions.fetch_add(1, Ordering::Relaxed);
            telemetry::count!("cache", "evictions", 1);
        }
    }

    /// The live entries in recency order (least recent first) — lets a
    /// sharded wrapper enumerate a node's holdings for re-replication.
    pub fn live_entries(&self) -> Vec<IndexEntry> {
        Self::live_locked(&self.state.lock())
    }

    fn live_locked(state: &State) -> Vec<IndexEntry> {
        state
            .recency
            .iter()
            .map(|&(_, k)| {
                let e = &state.entries[&k];
                IndexEntry {
                    key: CacheKey(Digest(k)),
                    digest: e.digest,
                    len: e.len,
                }
            })
            .collect()
    }

    /// Current size of the index log in bytes.
    fn index_bytes(&self) -> u64 {
        self.index.size_bytes().unwrap_or(0)
    }

    /// Rewrite the index log down to the live entries (recency order
    /// preserved), reclaiming space taken by `del`s and superseded `put`s.
    /// Crash-safe: staged and renamed atomically.
    fn compact_locked(&self, state: &mut State) -> io::Result<()> {
        self.index.rewrite(&Self::live_locked(state))?;
        self.compactions.fetch_add(1, Ordering::Relaxed);
        telemetry::count!("cache", "compactions", 1);
        state.compacted_bytes = self.index.size_bytes()?;
        Ok(())
    }

    /// Threshold-triggered compaction after an insert, when
    /// [`compaction_due`](crate::compaction_due). Failures are swallowed (the
    /// append-only log is still valid, just long).
    fn maybe_compact(&self, state: &mut State) {
        if let Some(limit) = self.index_compact_bytes {
            if crate::compaction_due(self.index_bytes(), limit, state.compacted_bytes) {
                let _ = self.compact_locked(state);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::FingerprintBuilder;
    use std::sync::atomic::AtomicU32;

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "cache_store_test_{}_{}_{}",
            std::process::id(),
            name,
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn key(tag: &str) -> CacheKey {
        let fp = FingerprintBuilder::new().push_u64(1).finish();
        CacheKey::compose(tag, digest_bytes(tag.as_bytes()), fp)
    }

    #[test]
    fn insert_then_lookup_roundtrips_and_counts() {
        let c = ArtifactCache::open(tmpdir("roundtrip"), None).unwrap();
        let d = c.insert(key("a"), b"payload-a").unwrap();
        assert_eq!(d, digest_bytes(b"payload-a"));
        assert_eq!(c.lookup(key("a")).as_deref(), Some(&b"payload-a"[..]));
        assert_eq!(c.lookup(key("b")), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
        assert_eq!(c.total_bytes(), 9);
    }

    #[test]
    fn survives_reopen() {
        let dir = tmpdir("reopen");
        {
            let c = ArtifactCache::open(&dir, None).unwrap();
            c.insert(key("a"), b"alpha").unwrap();
            c.insert(key("b"), b"beta").unwrap();
        }
        let c = ArtifactCache::open(&dir, None).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup(key("a")).as_deref(), Some(&b"alpha"[..]));
        assert_eq!(c.lookup(key("b")).as_deref(), Some(&b"beta"[..]));
    }

    #[test]
    fn corrupted_object_degrades_to_miss_and_drops_entry() {
        let dir = tmpdir("corrupt");
        let c = ArtifactCache::open(&dir, None).unwrap();
        let digest = c.insert(key("a"), b"good bytes").unwrap();
        std::fs::write(dir.join("objects").join(digest.to_string()), b"bad bytess").unwrap();
        assert_eq!(c.lookup(key("a")), None, "corruption must not hit");
        assert_eq!(c.stats().verify_failures, 1);
        assert_eq!(c.len(), 0, "poisoned entry dropped");
        // And it stays gone across reopen (the del record persisted).
        drop(c);
        let c = ArtifactCache::open(&dir, None).unwrap();
        assert_eq!(c.lookup(key("a")), None);
    }

    #[test]
    fn missing_object_file_degrades_to_miss() {
        let dir = tmpdir("missing_obj");
        let c = ArtifactCache::open(&dir, None).unwrap();
        let digest = c.insert(key("a"), b"bytes").unwrap();
        std::fs::remove_file(dir.join("objects").join(digest.to_string())).unwrap();
        assert_eq!(c.lookup(key("a")), None);
        assert!(c.is_empty());
    }

    #[test]
    fn identical_payloads_share_one_object() {
        let dir = tmpdir("dedup");
        let c = ArtifactCache::open(&dir, None).unwrap();
        let d1 = c.insert(key("a"), b"same bytes").unwrap();
        let d2 = c.insert(key("b"), b"same bytes").unwrap();
        assert_eq!(d1, d2);
        let objects: Vec<_> = std::fs::read_dir(dir.join("objects")).unwrap().collect();
        assert_eq!(objects.len(), 1, "one shared object file");
        // Dropping one key keeps the shared object alive for the other.
        std::fs::write(dir.join("objects").join(d1.to_string()), b"same bytes").unwrap();
        let budget_victim = c.lookup(key("a")).unwrap();
        assert_eq!(budget_victim, b"same bytes");
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        let c = ArtifactCache::open(tmpdir("lru"), Some(10)).unwrap();
        c.insert(key("a"), b"aaaa").unwrap(); // 4 bytes
        c.insert(key("b"), b"bbbb").unwrap(); // 8 total
                                              // Touch a so b becomes the LRU victim.
        assert!(c.lookup(key("a")).is_some());
        c.insert(key("c"), b"cccc").unwrap(); // 12 > 10: evict b
        assert_eq!(c.stats().evictions, 1);
        assert!(c.lookup(key("b")).is_none(), "b was least recent");
        assert!(c.lookup(key("a")).is_some());
        assert!(c.lookup(key("c")).is_some());
        assert!(c.total_bytes() <= 10);
    }

    #[test]
    fn oversized_insert_is_protected_once() {
        let c = ArtifactCache::open(tmpdir("oversize"), Some(4)).unwrap();
        c.insert(key("big"), b"way more than four").unwrap();
        // The just-inserted entry is spared even though it exceeds the
        // budget on its own — read-your-write holds.
        assert!(c.lookup(key("big")).is_some());
    }

    #[test]
    fn reinsert_same_payload_is_idempotent() {
        let dir = tmpdir("idempotent");
        let c = ArtifactCache::open(&dir, None).unwrap();
        c.insert(key("a"), b"payload").unwrap();
        c.insert(key("a"), b"payload").unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.total_bytes(), 7);
    }

    #[test]
    fn overwrite_key_with_new_payload_wins() {
        let dir = tmpdir("overwrite");
        let c = ArtifactCache::open(&dir, None).unwrap();
        c.insert(key("a"), b"old").unwrap();
        c.insert(key("a"), b"newer").unwrap();
        assert_eq!(c.lookup(key("a")).as_deref(), Some(&b"newer"[..]));
        assert_eq!(c.total_bytes(), 5);
        drop(c);
        let c = ArtifactCache::open(dir, None).unwrap();
        assert_eq!(c.lookup(key("a")).as_deref(), Some(&b"newer"[..]));
    }

    #[test]
    fn large_insert_does_not_block_concurrent_lookup() {
        // Regression: `insert` used to hold the state mutex across the
        // object-file write, so a lookup of a *different* key stalled
        // behind a large payload. Now the write is staged outside the
        // lock: with a 1.5 s stall injected into the write path, a
        // concurrent lookup must still return in a fraction of that.
        let c = std::sync::Arc::new(ArtifactCache::open(tmpdir("nonblocking"), None).unwrap());
        c.insert(key("fast"), b"small payload").unwrap();
        c.write_stall_ms.store(1500, Ordering::Relaxed);
        let writer = {
            let c = std::sync::Arc::clone(&c);
            std::thread::spawn(move || c.insert(key("big"), b"pretend this is huge").unwrap())
        };
        // Give the writer time to take and release the reservation lock
        // and enter the stalled write.
        std::thread::sleep(std::time::Duration::from_millis(200));
        let t0 = Instant::now();
        assert_eq!(
            c.lookup(key("fast")).as_deref(),
            Some(&b"small payload"[..])
        );
        let elapsed = t0.elapsed();
        assert!(
            elapsed < std::time::Duration::from_millis(700),
            "lookup stalled {elapsed:?} behind a concurrent object write"
        );
        writer.join().unwrap();
        c.write_stall_ms.store(0, Ordering::Relaxed);
        assert_eq!(
            c.lookup(key("big")).as_deref(),
            Some(&b"pretend this is huge"[..])
        );
    }

    #[test]
    fn second_inserter_of_a_digest_never_publishes_a_missing_object() {
        // Regression (the `concurrent_insert_lookup_is_safe` flake): an
        // inserter that found the digest already reserved skipped staging and
        // committed while the first inserter was still between its reserve
        // and its rename — an index record for an object that did not exist
        // yet, which the next lookup "healed" into a miss.
        let c = std::sync::Arc::new(ArtifactCache::open(tmpdir("two-stagers"), None).unwrap());
        c.write_stall_ms.store(400, Ordering::Relaxed);
        let first = {
            let c = std::sync::Arc::clone(&c);
            std::thread::spawn(move || c.insert(key("first"), b"same-bytes").unwrap())
        };
        // The first inserter has reserved and sits in its stalled write.
        std::thread::sleep(std::time::Duration::from_millis(100));
        c.insert(key("second"), b"same-bytes").unwrap();
        assert_eq!(c.lookup(key("second")).as_deref(), Some(&b"same-bytes"[..]));
        first.join().unwrap();
        assert_eq!(c.lookup(key("first")).as_deref(), Some(&b"same-bytes"[..]));
        assert_eq!(c.lookup(key("second")).as_deref(), Some(&b"same-bytes"[..]));
    }

    #[test]
    fn eviction_storm_over_10k_entries_is_fast_and_correct() {
        // Regression: eviction re-scanned all entries per victim (O(n²)).
        // Fill 10k entries, then shrink the working set against a budget
        // that forces ~90% of them out in one storm. With the ordered
        // recency structure this is well under a second even on a loaded
        // CI box; the old quadratic scan took tens of seconds.
        let n: usize = 10_000;
        let payload = [7u8; 32];
        let budget = (payload.len() * n) as u64; // roomy: no eviction yet
        let c = ArtifactCache::open(tmpdir("storm"), Some(budget)).unwrap();
        for i in 0..n {
            c.insert(key(&format!("k{i}")), &payload).unwrap();
        }
        assert_eq!(c.len(), n);
        assert_eq!(c.stats().evictions, 0);
        // Touch the last 1000 so they are the most recent, then insert one
        // oversized payload that blows ~90% of the budget.
        for i in n - 1000..n {
            assert!(c.lookup(key(&format!("k{i}"))).is_some());
        }
        let big = vec![1u8; (budget as usize * 9) / 10];
        let t0 = Instant::now();
        c.insert(key("big"), &big).unwrap();
        let elapsed = t0.elapsed();
        let s = c.stats();
        assert!(s.evictions > 8_000, "storm evicted {}", s.evictions);
        assert!(c.total_bytes() <= budget);
        // The most-recently-touched survivors are evicted last: everything
        // still live besides `big` must come from the touched tail.
        assert!(c.lookup(key("big")).is_some());
        assert!(c.lookup(key("k0")).is_none(), "oldest entry must be gone");
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "eviction storm took {elapsed:?} — recency ordering regressed?"
        );
    }

    #[test]
    fn contains_verified_is_metadata_level_with_lookup_fallback() {
        let dir = tmpdir("contains");
        let c = ArtifactCache::open(&dir, None).unwrap();
        let d = c.insert(key("a"), b"ten bytes!").unwrap();
        // Fast path: counts exactly one hit per call, like lookup did.
        assert!(c.contains_verified(key("a")));
        assert_eq!(c.stats().hits, 1);
        // Same-length corruption passes the gate (documented weaker
        // guarantee — proof the payload was not re-hashed) ...
        std::fs::write(dir.join("objects").join(d.to_string()), b"ten bytez!").unwrap();
        assert!(c.contains_verified(key("a")));
        // ... but the verifying lookup still catches it and recovers.
        assert_eq!(c.lookup(key("a")), None);
        assert_eq!(c.stats().verify_failures, 1);
        // Length mismatch is suspect: falls back to full verify → miss,
        // entry dropped. Absent key is a plain miss.
        let d2 = c.insert(key("b"), b"other bytes").unwrap();
        std::fs::write(dir.join("objects").join(d2.to_string()), b"short").unwrap();
        let misses_before = c.stats().misses;
        assert!(!c.contains_verified(key("b")));
        assert!(!c.contains_verified(key("never-inserted")));
        assert_eq!(c.stats().misses, misses_before + 2, "one count per call");
        assert_eq!(c.len(), 0, "suspect entry dropped by the fallback");
    }

    #[test]
    fn contains_verified_refreshes_lru_recency() {
        let c = ArtifactCache::open(tmpdir("contains_lru"), Some(10)).unwrap();
        c.insert(key("a"), b"aaaa").unwrap();
        c.insert(key("b"), b"bbbb").unwrap();
        // Gate-check a: b becomes the LRU victim.
        assert!(c.contains_verified(key("a")));
        c.insert(key("c"), b"cccc").unwrap();
        assert!(c.lookup(key("a")).is_some());
        assert!(c.lookup(key("b")).is_none(), "b was least recent");
    }

    #[test]
    fn threshold_compaction_shrinks_index_and_survives_reopen() {
        let dir = tmpdir("compact");
        let c = ArtifactCache::open(&dir, Some(64))
            .unwrap()
            .with_index_compact_bytes(2_000);
        // Churn: overwrites and evictions bloat the append-only log until
        // the threshold trips.
        for round in 0..200u32 {
            for k in 0..8u32 {
                c.insert(key(&format!("k{k}")), format!("r{round}").as_bytes())
                    .unwrap();
            }
        }
        let s = c.stats();
        assert!(s.compactions > 0, "threshold never tripped");
        assert!(
            c.index_bytes() < 4_000,
            "index stayed bloated: {} bytes",
            c.index_bytes()
        );
        let live = c.live_entries();
        drop(c);
        let c = ArtifactCache::open(&dir, Some(64)).unwrap();
        assert_eq!(c.live_entries(), live, "compacted log replays identically");
        for e in live {
            assert!(c.lookup(e.key).is_some());
        }
    }

    #[test]
    fn live_set_over_the_limit_compacts_logarithmically() {
        // Regression: once the live entries alone exceeded the limit, every
        // insert rewrote the whole index (a rewrite cannot shrink the log
        // below its live size), so a resident service slowed linearly.
        let dir = tmpdir("compact_log");
        let c = ArtifactCache::open(&dir, None)
            .unwrap()
            .with_index_compact_bytes(2_000);
        for i in 0..200u32 {
            c.insert(key(&format!("distinct{i}")), format!("p{i}").as_bytes())
                .unwrap();
        }
        let compactions = c.stats().compactions;
        assert!(
            (1..=8).contains(&compactions),
            "200 inserts over a 2 000-byte limit took {compactions} rewrites"
        );
        let live = c.live_entries();
        assert_eq!(live.len(), 200);
        drop(c);
        let c = ArtifactCache::open(&dir, None).unwrap();
        assert_eq!(c.live_entries(), live, "reopen replays the same live set");
    }

    #[test]
    fn concurrent_insert_lookup_is_safe() {
        let c = std::sync::Arc::new(ArtifactCache::open(tmpdir("concurrent"), None).unwrap());
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let c = std::sync::Arc::clone(&c);
                scope.spawn(move || {
                    for i in 0..16u32 {
                        let k = key(&format!("k{}", (t * 16 + i) % 8));
                        let payload = format!("payload-{}", (t * 16 + i) % 8);
                        c.insert(k, payload.as_bytes()).unwrap();
                        assert_eq!(c.lookup(k).unwrap(), payload.as_bytes());
                    }
                });
            }
        });
        assert_eq!(c.len(), 8);
    }
}
