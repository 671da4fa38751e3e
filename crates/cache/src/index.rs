//! The on-disk cache index: an append-only log of `put`/`del` records, a
//! typed view over the crate's durable [`LineLog`] (which owns the
//! torn-append healing and the staged, renamed rewrite).
//!
//! A torn append never commits and a sealed fragment reads back as an
//! unparseable line, which replay skips. Because a `put` only lands *after*
//! the object file is durably in place, a dropped or sealed index line
//! degrades to a cache miss and a recompute, never to a false hit.

use crate::digest::{CacheKey, Digest};
use crate::linelog::LineLog;
use std::io;
use std::path::PathBuf;

/// First line of every index file; guards against feeding the cache an
/// unrelated file.
const INDEX_HEADER: &str = "hacc-artifact-cache v1";

/// One live index entry after replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// Key the artifact is stored under.
    pub key: CacheKey,
    /// Content digest of the object payload (also its object-file name).
    pub digest: Digest,
    /// Payload length in bytes (for the eviction byte budget).
    pub len: u64,
}

/// Append-only `put`/`del` log at a fixed path.
#[derive(Debug, Clone)]
pub struct Index {
    log: LineLog,
}

impl Index {
    /// An index stored at `path` (created on first append).
    pub fn new(path: PathBuf) -> Self {
        let staging = path.with_extension("compact");
        Index {
            log: LineLog::new(path, INDEX_HEADER, staging),
        }
    }

    /// The backing file path.
    #[cfg(test)]
    fn path(&self) -> &std::path::Path {
        self.log.path()
    }

    /// Replay the log into the set of live entries, ordered oldest-put
    /// first (a re-`put` of a key moves it to the back — replay order
    /// doubles as the LRU recency order after a restart).
    ///
    /// A missing file is an empty index; a wrong header is an error; a torn
    /// (newline-less) tail and sealed unparseable fragments are skipped.
    pub fn load(&self) -> io::Result<Vec<IndexEntry>> {
        // Replay: later records win; seq remembers when each live entry was
        // last put so the final collect preserves recency order.
        let mut live: std::collections::BTreeMap<u128, (u64, IndexEntry)> =
            std::collections::BTreeMap::new();
        for (seq, line) in self.log.lines()?.iter().enumerate() {
            match Self::parse_line(line) {
                Some(Record::Put(entry)) => {
                    live.insert(entry.key.0 .0, (seq as u64, entry));
                }
                Some(Record::Del(key)) => {
                    live.remove(&key.0 .0);
                }
                // Sealed torn fragments and any other garbage: skip. The
                // object store is self-verifying, so dropping a record is
                // always safe (it becomes a miss).
                None => {}
            }
        }
        let mut entries: Vec<(u64, IndexEntry)> = live.into_values().collect();
        entries.sort_by_key(|(seq, _)| *seq);
        Ok(entries.into_iter().map(|(_, e)| e).collect())
    }

    fn parse_line(line: &str) -> Option<Record> {
        let mut parts = line.split_ascii_whitespace();
        match parts.next()? {
            "put" => {
                let key = CacheKey(Digest::parse(parts.next()?)?);
                let digest = Digest::parse(parts.next()?)?;
                let len: u64 = parts.next()?.parse().ok()?;
                if parts.next().is_some() {
                    return None;
                }
                Some(Record::Put(IndexEntry { key, digest, len }))
            }
            "del" => {
                let key = CacheKey(Digest::parse(parts.next()?)?);
                if parts.next().is_some() {
                    return None;
                }
                Some(Record::Del(key))
            }
            _ => None,
        }
    }

    /// Record that `entry` is live (object already durably written).
    pub fn append_put(&self, entry: &IndexEntry) -> io::Result<()> {
        self.log.append(&Self::put_line(entry))
    }

    /// Record that `key` is gone (evicted or poisoned).
    pub fn append_del(&self, key: CacheKey) -> io::Result<()> {
        self.log.append(&format!("del {key}"))
    }

    /// Current size of the log file in bytes (0 when it does not exist
    /// yet). Drives threshold-triggered compaction.
    pub fn size_bytes(&self) -> io::Result<u64> {
        self.log.size_bytes()
    }

    /// Atomically (staged, synced, renamed) replace the log with exactly
    /// `entries`, in the given order, which becomes the replay/recency
    /// order. Superseded `put`s and all `del`s vanish.
    pub fn rewrite(&self, entries: &[IndexEntry]) -> io::Result<()> {
        self.log.stage(entries.iter().map(Self::put_line))?;
        self.log.commit()
    }

    fn put_line(entry: &IndexEntry) -> String {
        format!("put {} {} {}", entry.key, entry.digest, entry.len)
    }
}

enum Record {
    Put(IndexEntry),
    Del(CacheKey),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::digest_bytes;
    use std::io::Write;

    fn tmpfile(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cache_index_test_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d.join(name)
    }

    fn entry(tag: &[u8]) -> IndexEntry {
        IndexEntry {
            key: CacheKey(digest_bytes(tag)),
            digest: digest_bytes(&[tag, b".payload"].concat()),
            len: tag.len() as u64,
        }
    }

    #[test]
    fn missing_index_is_empty() {
        let idx = Index::new(tmpfile("never_written.idx"));
        assert!(idx.load().unwrap().is_empty());
    }

    #[test]
    fn put_del_replay_keeps_recency_order() {
        let idx = Index::new(tmpfile("replay.idx"));
        let _ = std::fs::remove_file(idx.path());
        let (a, b, c) = (entry(b"a"), entry(b"b"), entry(b"c"));
        idx.append_put(&a).unwrap();
        idx.append_put(&b).unwrap();
        idx.append_put(&c).unwrap();
        // Re-put a (moves it to the back), delete b.
        idx.append_put(&a).unwrap();
        idx.append_del(b.key).unwrap();
        let live = idx.load().unwrap();
        assert_eq!(live, vec![c, a], "oldest-put first, re-put moved back");
    }

    #[test]
    fn torn_tail_is_dropped_and_sealed_fragment_is_skipped() {
        let idx = Index::new(tmpfile("torn.idx"));
        let _ = std::fs::remove_file(idx.path());
        let a = entry(b"a");
        idx.append_put(&a).unwrap();
        // Crash mid-append: half a record, no newline.
        let b = entry(b"b");
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(idx.path())
            .unwrap();
        let full = format!("put {} {} {}", b.key, b.digest, b.len);
        f.write_all(&full.as_bytes()[..full.len() / 2]).unwrap();
        drop(f);
        assert_eq!(idx.load().unwrap(), vec![a], "torn record never committed");
        // The next append seals the fragment; replay then skips it as
        // unparseable instead of corrupting the new record.
        let c = entry(b"c");
        idx.append_put(&c).unwrap();
        assert_eq!(idx.load().unwrap(), vec![a, c]);
    }

    #[test]
    fn rewrite_compacts_and_preserves_replay_order() {
        let idx = Index::new(tmpfile("rewrite.idx"));
        let _ = std::fs::remove_file(idx.path());
        let (a, b, c) = (entry(b"a"), entry(b"b"), entry(b"c"));
        // A churny history: re-puts and dels that compaction should erase.
        for _ in 0..8 {
            idx.append_put(&a).unwrap();
            idx.append_put(&b).unwrap();
            idx.append_del(b.key).unwrap();
        }
        idx.append_put(&c).unwrap();
        let before = idx.size_bytes().unwrap();
        let live = idx.load().unwrap();
        idx.rewrite(&live).unwrap();
        assert!(idx.size_bytes().unwrap() < before, "compaction shrinks");
        assert_eq!(idx.load().unwrap(), live, "replay order preserved");
        // The compacted log is still a valid append target.
        idx.append_put(&b).unwrap();
        assert_eq!(idx.load().unwrap(), [live.as_slice(), &[b]].concat());
    }

    #[test]
    fn size_bytes_of_missing_log_is_zero() {
        let idx = Index::new(tmpfile("size_missing.idx"));
        let _ = std::fs::remove_file(idx.path());
        assert_eq!(idx.size_bytes().unwrap(), 0);
        idx.append_put(&entry(b"a")).unwrap();
        assert!(idx.size_bytes().unwrap() > INDEX_HEADER.len() as u64);
    }

    #[test]
    fn wrong_header_is_rejected() {
        let p = tmpfile("wrong_header.idx");
        std::fs::write(&p, "something else\nput x y 1\n").unwrap();
        let err = Index::new(p).load().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn garbage_lines_are_skipped_not_fatal() {
        let p = tmpfile("garbage.idx");
        let idx = Index::new(p);
        let _ = std::fs::remove_file(idx.path());
        let a = entry(b"a");
        idx.append_put(&a).unwrap();
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(idx.path())
            .unwrap();
        f.write_all(b"put short-key\nnot-a-verb x y z\nput k d extra junk here\n")
            .unwrap();
        drop(f);
        assert_eq!(idx.load().unwrap(), vec![a]);
    }

    #[test]
    fn log_bytes_of_the_previous_format_load_append_and_rewrite_unchanged() {
        // A log exactly as the pre-`LineLog` code wrote it (torn tail
        // included): it must load, and appends and rewrites must keep
        // producing the same bytes under the same file names.
        let idx = Index::new(tmpfile("fixture.idx"));
        let (k1, k2, k3) = (
            "0".repeat(31) + "1",
            "0".repeat(31) + "2",
            "0".repeat(31) + "3",
        );
        let d = "f".repeat(32);
        let fixture =
            format!("hacc-artifact-cache v1\nput {k1} {d} 5\nput {k2} {d} 7\ndel {k1}\nput 00");
        std::fs::write(idx.path(), &fixture).unwrap();
        let e = |k: u128, len| IndexEntry {
            key: CacheKey(Digest(k)),
            digest: Digest(u128::MAX),
            len,
        };
        assert_eq!(idx.load().unwrap(), vec![e(2, 7)]);
        idx.append_put(&e(3, 9)).unwrap();
        assert_eq!(
            std::fs::read_to_string(idx.path()).unwrap(),
            format!("{fixture}\nput {k3} {d} 9\n"),
            "append seals the torn tail, then one line"
        );
        let staging = idx.path().with_file_name("fixture.compact");
        std::fs::write(&staging, "stale").unwrap();
        idx.rewrite(&idx.load().unwrap()).unwrap();
        assert_eq!(
            std::fs::read_to_string(idx.path()).unwrap(),
            format!("hacc-artifact-cache v1\nput {k2} {d} 7\nput {k3} {d} 9\n")
        );
        assert!(!staging.exists(), "rewrite stages at <stem>.compact");
    }
}
