//! The durable line log under both the cache [`Index`](crate::Index) and
//! `core::journal::Journal`: one header line, then one record per line. The
//! crash discipline lives here once — a record is a single `write` +
//! `sync_data`, so a crash mid-append leaves a newline-less tail that
//! [`LineLog::lines`] drops and the next append seals; a rewrite is staged,
//! synced and renamed, so a crash leaves the old log or the new one.

use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Whether a log of `size` bytes is due for a size-triggered rewrite: it is
/// over `limit`, and at least twice the size it had right after its previous
/// rewrite (`compacted`; 0 before the first). The second half is what keeps a
/// live set larger than the limit at O(log n) rewrites over n appends instead
/// of one per append.
pub fn compaction_due(size: u64, limit: u64, compacted: u64) -> bool {
    size > limit && size >= 2 * compacted
}

/// A header-guarded, append-only line log at a fixed path.
#[derive(Debug, Clone)]
pub struct LineLog {
    path: PathBuf,
    header: &'static str,
    staging: PathBuf,
}

fn reject_newline(line: &str) -> io::Result<()> {
    if line.contains('\n') {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "log records must not contain newlines",
        ));
    }
    Ok(())
}

impl LineLog {
    /// A log at `path` (created on first append) whose first line is
    /// `header` and whose rewrites are staged at `staging`.
    pub fn new(path: PathBuf, header: &'static str, staging: PathBuf) -> Self {
        LineLog {
            path,
            header,
            staging,
        }
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The committed records after the header, in file order, without their
    /// newlines. A missing or empty file has none; a wrong header is
    /// `InvalidData`; a torn (newline-less) final chunk never committed.
    pub fn lines(&self) -> io::Result<Vec<String>> {
        let bytes = match std::fs::read(&self.path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let text = String::from_utf8_lossy(&bytes);
        let mut lines = text.split_inclusive('\n');
        match lines.next() {
            None => return Ok(Vec::new()),
            Some(first) if first.trim_end_matches('\n') == self.header => {}
            Some(other) => {
                let found = other.trim_end();
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected header {:?}, found {found:?}", self.header),
                ));
            }
        }
        Ok(lines
            .filter_map(|l| l.strip_suffix('\n'))
            .map(str::to_owned)
            .collect())
    }

    /// Durably append one record: the header first on a new file, a sealing
    /// newline first after a torn fragment (so it cannot merge with this
    /// record), then the record in one write call — which is what keeps a
    /// torn append detectable as a missing trailing newline.
    pub fn append(&self, line: &str) -> io::Result<()> {
        reject_newline(line)?;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&self.path)?;
        if f.metadata()?.len() == 0 {
            f.write_all(format!("{}\n", self.header).as_bytes())?;
        } else {
            f.seek(SeekFrom::End(-1))?;
            let mut last = [0u8; 1];
            f.read_exact(&mut last)?;
            if last[0] != b'\n' {
                f.write_all(b"\n")?;
            }
        }
        f.write_all(format!("{line}\n").as_bytes())?;
        f.sync_data()
    }

    /// Write header + `lines` to the staging path and sync it, leaving the
    /// live log untouched. Separate from [`commit`](Self::commit) so
    /// crash-schedule tests can die between the two; a stale staging file
    /// from a dead incarnation is simply overwritten.
    pub fn stage<S: AsRef<str>>(&self, lines: impl IntoIterator<Item = S>) -> io::Result<()> {
        let mut buf = format!("{}\n", self.header);
        for line in lines {
            reject_newline(line.as_ref())?;
            buf.push_str(line.as_ref());
            buf.push('\n');
        }
        let mut f = std::fs::File::create(&self.staging)?;
        f.write_all(buf.as_bytes())?;
        f.sync_data()
    }

    /// Publish the staged rewrite over the live log via an atomic rename.
    pub fn commit(&self) -> io::Result<()> {
        std::fs::rename(&self.staging, &self.path)
    }

    /// Current size of the log in bytes (0 when it does not exist yet).
    pub fn size_bytes(&self) -> io::Result<u64> {
        match std::fs::metadata(&self.path) {
            Ok(m) => Ok(m.len()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(e),
        }
    }
}
