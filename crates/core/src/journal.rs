//! Crash-recovery journal for the co-scheduling listener.
//!
//! The listener's exactly-once guarantee has to survive the listener process
//! dying between polls: on a real facility the login-node script gets killed
//! and restarted, and a restarted listener must not resubmit analysis jobs
//! for files it already handled. The journal is the persisted handled-file
//! set: one header line, then one absolute path per line, appended after
//! each successful submission.
//!
//! The journal is a typed view over [`cache::LineLog`], which owns the
//! durability discipline (the cache index sits on the same log). Torn
//! writes are tolerated by construction: an entry is a single `write` of
//! `path + "\n"`, and [`Journal::load`] drops a trailing chunk with no
//! newline terminator; the next append seals such a fragment, which then
//! reads back as a bogus path no output file matches. A torn entry reverts to
//! "unhandled" — the restarted listener submits that file again, which is
//! the safe direction only when the fault model's crash points sit *between*
//! per-file handling units (see DESIGN.md "Fault model"); within this repo's
//! injected crashes the submit+append pair is never split, so replay yields
//! the same handled-file set with no duplicates.
//!
//! **One writer at a time.** Any worker may append to a shard journal while
//! another compacts it, and an append landing between a rewrite's read and
//! its rename would vanish with the old file. Every mutation therefore runs
//! under one lock, shared by the clones of a handle (readers need none:
//! appends are single writes, rewrites are atomic renames).

use cache::LineLog;
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// First line of every journal file; guards against feeding the listener an
/// unrelated file.
pub const JOURNAL_HEADER: &str = "hacc-listener-journal v1";

/// Append-only handled-file journal at a fixed path.
#[derive(Debug, Clone)]
pub struct Journal {
    log: LineLog,
    /// Held by every mutation, across every clone of this handle. Guards
    /// the journal's size right after its last rewrite through this handle
    /// (0 before the first, so a restarted process starts due): a
    /// size-triggered compaction is due again only at twice that.
    writer: Arc<Mutex<u64>>,
}

/// The staging path of the journal at `path`, which [`Journal::rewrite`]
/// publishes from: `<path>.tmp`.
pub(crate) fn staging_of(path: &Path) -> PathBuf {
    let mut staging = path.as_os_str().to_owned();
    staging.push(".tmp");
    PathBuf::from(staging)
}

impl Journal {
    /// A journal stored at `path` (created on first append).
    pub fn new(path: PathBuf) -> Self {
        let staging = staging_of(&path);
        Journal {
            log: LineLog::new(path, JOURNAL_HEADER, staging),
            writer: Arc::default(),
        }
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Read the handled-file set back. A missing file is an empty set; a
    /// file with the wrong header is an error; an incomplete (torn) final
    /// line is dropped.
    pub fn load(&self) -> io::Result<BTreeSet<PathBuf>> {
        Ok(self
            .log
            .lines()?
            .into_iter()
            .filter(|l| !l.is_empty())
            .map(PathBuf::from)
            .collect())
    }

    /// Record `entry` as handled. Creates the file (with header) on first
    /// use. The entry must not contain a newline — the journal is
    /// line-oriented.
    pub fn append(&self, entry: &Path) -> io::Result<()> {
        let _writer = self.writer.lock();
        self.log.append(&entry.to_string_lossy())
    }

    /// Current size of the backing file in bytes (0 when it does not exist).
    /// Compaction triggers compare against this.
    pub(crate) fn size_bytes(&self) -> io::Result<u64> {
        self.log.size_bytes()
    }

    /// Stage a full journal (header + `entries`) into `<path>.tmp` without
    /// committing it. Exposed separately from [`Journal::rewrite`] so
    /// crash-schedule tests can die in the window between staging and
    /// publish; production callers use `rewrite`.
    pub fn stage(&self, entries: &BTreeSet<PathBuf>) -> io::Result<()> {
        let _writer = self.writer.lock();
        self.stage_locked(entries)
    }

    fn stage_locked(&self, entries: &BTreeSet<PathBuf>) -> io::Result<()> {
        self.log.stage(entries.iter().map(|e| e.to_string_lossy()))
    }

    /// Publish a previously [`stage`]d journal over the live file via an
    /// atomic rename.
    ///
    /// [`stage`]: Journal::stage
    pub fn commit_staged(&self) -> io::Result<()> {
        self.commit_locked(&mut self.writer.lock())
    }

    fn commit_locked(&self, compacted_bytes: &mut u64) -> io::Result<()> {
        self.log.commit()?;
        *compacted_bytes = self.log.size_bytes()?;
        Ok(())
    }

    /// Atomically replace the journal with exactly `entries` (plus the
    /// header), using the same tmp+rename discipline the emitters use for
    /// drops: the new contents are staged at `<path>.tmp` and renamed over
    /// the live file only once fully written and synced.
    ///
    /// Crash safety: a crash before the rename leaves the original journal
    /// untouched (the stale `.tmp` is simply overwritten by the next
    /// rewrite); a crash after the rename leaves the complete new journal.
    /// There is no intermediate state, so recovery never sees a torn
    /// compaction. A rewrite also heals any torn trailing fragment as a side
    /// effect, because only fully committed entries are written back.
    pub fn rewrite(&self, entries: &BTreeSet<PathBuf>) -> io::Result<()> {
        let mut writer = self.writer.lock();
        self.stage_locked(entries)?;
        self.commit_locked(&mut writer)
    }

    /// Whether [`compact_if_larger`](Self::compact_if_larger) would rewrite
    /// now (an unreadable size is not due).
    pub fn compaction_due(&self, threshold_bytes: u64) -> bool {
        let compacted_bytes = self.writer.lock();
        self.due_locked(threshold_bytes, *compacted_bytes)
            .unwrap_or(false)
    }

    /// [`cache::compaction_due`] on this journal; a threshold of 0 forces the
    /// rewrite, so the size the last one left is not consulted.
    fn due_locked(&self, threshold_bytes: u64, compacted_bytes: u64) -> io::Result<bool> {
        let since = if threshold_bytes == 0 {
            0
        } else {
            compacted_bytes
        };
        Ok(cache::compaction_due(
            self.size_bytes()?,
            threshold_bytes,
            since,
        ))
    }

    /// Size-triggered compaction: when the journal has grown past
    /// `threshold_bytes` and has doubled since its last rewrite
    /// ([`cache::compaction_due`]), rewrite it keeping only the entries
    /// `retain` accepts. Long-lived services call this each sweep with a
    /// predicate like "the output file still exists" — handled files that
    /// have been swept away (or belong to a detached campaign) are dead
    /// weight a resident process would otherwise accumulate forever, while
    /// a journal of live entries alone is not rewritten sweep after sweep to
    /// drop nothing. A threshold of 0 forces the rewrite.
    ///
    /// Returns `Some(dropped_entry_count)` when a compaction ran, `None`
    /// when none was due.
    pub fn compact_if_larger(
        &self,
        threshold_bytes: u64,
        retain: impl Fn(&Path) -> bool,
    ) -> io::Result<Option<usize>> {
        let mut writer = self.writer.lock();
        if !self.due_locked(threshold_bytes, *writer)? {
            return Ok(None);
        }
        let before = self.load()?;
        let kept: BTreeSet<PathBuf> = before.iter().filter(|p| retain(p)).cloned().collect();
        let dropped = before.len() - kept.len();
        self.stage_locked(&kept)?;
        self.commit_locked(&mut writer)?;
        Ok(Some(dropped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmpfile(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("journal_test_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d.join(name)
    }

    #[test]
    fn missing_journal_is_an_empty_set() {
        let j = Journal::new(tmpfile("never_written.journal"));
        assert!(j.load().unwrap().is_empty());
    }

    #[test]
    fn append_then_load_roundtrips() {
        let j = Journal::new(tmpfile("roundtrip.journal"));
        let _ = std::fs::remove_file(j.path());
        j.append(Path::new("/out/l2_step0001.hcio")).unwrap();
        j.append(Path::new("/out/l2_step0002.hcio")).unwrap();
        let set = j.load().unwrap();
        assert_eq!(set.len(), 2);
        assert!(set.contains(Path::new("/out/l2_step0001.hcio")));
    }

    #[test]
    fn torn_final_entry_is_dropped() {
        let j = Journal::new(tmpfile("torn.journal"));
        let _ = std::fs::remove_file(j.path());
        j.append(Path::new("/out/a.hcio")).unwrap();
        // Simulate a crash mid-append: bytes with no trailing newline.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(j.path())
            .unwrap();
        f.write_all(b"/out/b.hc").unwrap();
        drop(f);
        let set = j.load().unwrap();
        assert_eq!(set.len(), 1, "torn entry must not count as handled");
        assert!(set.contains(Path::new("/out/a.hcio")));
        // The next append terminates the torn fragment before committing its
        // own line, so the new entry is never corrupted by concatenation.
        j.append(Path::new("/out/c.hcio")).unwrap();
        let set = j.load().unwrap();
        assert!(set.contains(Path::new("/out/c.hcio")));
        assert!(
            set.contains(Path::new("/out/b.hc")),
            "fragment sealed as-is"
        );
    }

    #[test]
    fn wrong_header_is_rejected() {
        let p = tmpfile("wrong_header.journal");
        std::fs::write(&p, "something else\n/out/a.hcio\n").unwrap();
        let err = Journal::new(p).load().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn newline_in_entry_is_rejected() {
        let j = Journal::new(tmpfile("newline.journal"));
        assert!(j.append(Path::new("a\nb")).is_err());
    }

    #[test]
    fn compaction_drops_dead_entries_and_keeps_live_ones() {
        let j = Journal::new(tmpfile("compact.journal"));
        let _ = std::fs::remove_file(j.path());
        for i in 0..50 {
            j.append(Path::new(&format!("/out/l2_{i:04}.hcio")))
                .unwrap();
        }
        let before = j.size_bytes().unwrap();
        // Below the threshold: nothing happens.
        assert_eq!(j.compact_if_larger(before, |_| true).unwrap(), None);
        assert_eq!(j.size_bytes().unwrap(), before);
        // Over the threshold: keep only every 10th entry.
        let dropped = j
            .compact_if_larger(64, |p| {
                p.to_string_lossy().trim_end_matches(".hcio").ends_with('0')
            })
            .unwrap()
            .expect("journal over threshold must compact");
        assert_eq!(dropped, 45);
        assert!(j.size_bytes().unwrap() < before);
        let set = j.load().unwrap();
        assert_eq!(set.len(), 5);
        assert!(set.contains(Path::new("/out/l2_0040.hcio")));
        assert!(!set.contains(Path::new("/out/l2_0041.hcio")));
        // Appends keep working against the compacted file.
        j.append(Path::new("/out/l2_9999.hcio")).unwrap();
        assert_eq!(j.load().unwrap().len(), 6);
    }

    #[test]
    fn compaction_heals_a_torn_tail() {
        let j = Journal::new(tmpfile("compact_torn.journal"));
        let _ = std::fs::remove_file(j.path());
        j.append(Path::new("/out/a.hcio")).unwrap();
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(j.path())
            .unwrap();
        f.write_all(b"/out/torn.hc").unwrap();
        drop(f);
        j.compact_if_larger(0, |_| true).unwrap().unwrap();
        let set = j.load().unwrap();
        assert_eq!(set.len(), 1, "torn fragment must not survive a rewrite");
        assert!(set.contains(Path::new("/out/a.hcio")));
    }

    #[test]
    fn crash_during_compaction_leaves_the_journal_intact() {
        let j = Journal::new(tmpfile("compact_crash.journal"));
        let _ = std::fs::remove_file(j.path());
        let _ = std::fs::remove_file(staging_of(j.path()));
        for i in 0..8 {
            j.append(Path::new(&format!("/out/l2_{i}.hcio"))).unwrap();
        }
        let full = j.load().unwrap();

        // Crash window: the compaction staged its survivors but died before
        // the rename. The live journal is byte-untouched, so recovery sees
        // the full pre-compaction handled set — entries are only ever lost
        // *atomically* with the publish.
        let survivors: BTreeSet<PathBuf> = full.iter().take(2).cloned().collect();
        j.stage(&survivors).unwrap();
        assert!(
            staging_of(j.path()).exists(),
            "stage must leave a .tmp behind"
        );
        assert_eq!(
            j.load().unwrap(),
            full,
            "a crash before the rename must not lose any handled entry"
        );

        // The restarted process simply compacts again; the stale .tmp is
        // overwritten, never read.
        std::fs::write(staging_of(j.path()), b"garbage from a dead incarnation").unwrap();
        let dropped = j.compact_if_larger(0, |p| survivors.contains(p)).unwrap();
        assert_eq!(dropped, Some(6));
        assert_eq!(j.load().unwrap(), survivors);
        assert!(
            !staging_of(j.path()).exists(),
            "publish must consume the staging file"
        );
    }

    #[test]
    fn crash_after_publish_yields_the_compacted_set() {
        let j = Journal::new(tmpfile("compact_post.journal"));
        let _ = std::fs::remove_file(j.path());
        for i in 0..4 {
            j.append(Path::new(&format!("/out/l2_{i}.hcio"))).unwrap();
        }
        let keep: BTreeSet<PathBuf> = [PathBuf::from("/out/l2_0.hcio")].into_iter().collect();
        // stage + commit with nothing in between models a crash immediately
        // after the rename: the new journal is already complete.
        j.stage(&keep).unwrap();
        j.commit_staged().unwrap();
        assert_eq!(j.load().unwrap(), keep);
    }

    /// Fails at the parent of this change: an append that lands between a
    /// compaction's `load` and its rename is renamed away.
    #[test]
    fn appends_racing_a_compactor_lose_nothing() {
        let j = Journal::new(tmpfile("race.journal"));
        let _ = std::fs::remove_file(j.path());
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    j.compact_if_larger(0, |_| true).unwrap();
                }
            });
            let appenders: Vec<_> = (0..4)
                .map(|t| {
                    let j = j.clone();
                    s.spawn(move || {
                        for i in 0..200 {
                            j.append(Path::new(&format!("/out/t{t}_{i:03}.hcio")))
                                .unwrap();
                        }
                    })
                })
                .collect();
            for a in appenders {
                a.join().unwrap();
            }
            stop.store(true, std::sync::atomic::Ordering::Release);
        });
        assert_eq!(j.load().unwrap().len(), 800, "an append was compacted away");
    }

    #[test]
    fn journal_bytes_of_the_previous_format_load_append_and_rewrite_unchanged() {
        // A journal exactly as the pre-`LineLog` code wrote it (torn tail
        // included): it must load, and appends and rewrites must keep
        // producing the same bytes under the same file names.
        let j = Journal::new(tmpfile("fixture.journal"));
        let fixture = "hacc-listener-journal v1\n/out/b.hcio\n/out/a.hcio\n/out/c.hc";
        std::fs::write(j.path(), fixture).unwrap();
        let set = j.load().unwrap();
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            [Path::new("/out/a.hcio"), Path::new("/out/b.hcio")]
        );
        j.append(Path::new("/out/d.hcio")).unwrap();
        assert_eq!(
            std::fs::read_to_string(j.path()).unwrap(),
            format!("{fixture}\n/out/d.hcio\n"),
            "append seals the torn tail, then one line"
        );
        assert!(staging_of(j.path()).ends_with("fixture.journal.tmp"));
        j.rewrite(&set).unwrap();
        assert_eq!(
            std::fs::read_to_string(j.path()).unwrap(),
            "hacc-listener-journal v1\n/out/a.hcio\n/out/b.hcio\n"
        );
        assert!(!staging_of(j.path()).exists());
    }
}
