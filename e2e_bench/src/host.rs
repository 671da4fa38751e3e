//! Where the benchmark runs: scratch space, worker count and the host facts
//! a result is only comparable under.

use std::path::{Path, PathBuf};

/// Workers of every `dpp::Threaded` pool the harness builds, and of the
/// service's pool. Fixed — never `with_available_parallelism` — so the same
/// commit measures the same work on any host.
pub const WORKERS: usize = 2;
/// Ranks of the distributed analysis in the runner workloads.
pub const NRANKS: usize = 2;
/// Post-processing ranks in the runner workloads.
pub const POST_RANKS: usize = 1;
/// Closed-loop clients of the service workload.
pub const CLIENTS: usize = 2;

/// The fixed-size pool every workload computes on.
pub fn backend() -> dpp::Threaded {
    dpp::Threaded::new(WORKERS)
}

/// A unique scratch directory, removed when dropped.
///
/// It lives next to the running executable — inside the build directory, so
/// inside the checkout the benchmark was built in and covered by the same
/// `.gitignore` entry — because the benchmark may read and write nowhere
/// else. Every run gets its own directory, so concurrent runs never share
/// files.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Create `<exe dir>/e2e-scratch/<label>-<pid>-<nanos>`.
    pub fn new(label: &str) -> std::io::Result<Scratch> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir = out_dir()?
            .join("e2e-scratch")
            .join(format!("{label}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// A fresh, empty subdirectory `name` (any previous one is removed).
    pub fn fresh(&self, name: &str) -> PathBuf {
        let p = self.dir.join(name);
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).expect("create scratch subdirectory");
        p
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // The shared parent goes with its last user (fails while others run).
        if let Some(parent) = self.dir.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Directory of the running executable: scratch and trace files go under it.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    exe.parent()
        .map(Path::to_path_buf)
        .ok_or_else(|| std::io::Error::other("executable has no parent directory"))
}

/// Peak resident set of this process in MB (`VmHWM`); 0 where `/proc` is
/// not available.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Filesystem type holding `path`, from `/proc/mounts` (longest mount-point
/// prefix wins); `"unknown"` where that cannot be read.
pub fn filesystem_of(path: &Path) -> String {
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Hardware threads the host reports (1 when it cannot say).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
