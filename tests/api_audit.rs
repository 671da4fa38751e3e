//! Every public function has a caller.
//!
//! For each `pub fn` in a first-party crate's `src/` (the vendored stand-ins
//! `rand`, `proptest`, `criterion`, `parking_lot` and `bytes` are skipped),
//! some line in *another* `.rs` file under `src`, `crates`, `tests`,
//! `examples` or `e2e_bench/src` must name it as a whole word. `use` and
//! `pub use` statements (multi-line ones included) do not count: a name that
//! is only re-exported or imported has no caller. The match is by name, so a
//! hit is either dead or called only from its own file — delete it or make it
//! private. The allow-list below holds the two kinds of name that are
//! reached without being named elsewhere.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// `(defining file, function)` pairs reached without being named elsewhere.
/// An entry that has gained a caller, or no longer exists, fails the audit.
const ALLOWED: &[(&str, &str)] = &[
    // Reached through `$crate::add_count` in the `count!` macro expansion.
    ("crates/telemetry/src/lib.rs", "add_count"),
    // Crash-window hook: a test dies between `stage` and this publish.
    ("crates/core/src/journal.rs", "commit_staged"),
];

const VENDORED: &[&str] = &["rand", "proptest", "criterion", "parking_lot", "bytes"];
const CALLER_ROOTS: &[&str] = &["src", "crates", "tests", "examples", "e2e_bench/src"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Whether `line` opens a `use` statement (`use`, `pub use`, `pub(crate) use`).
fn opens_use(line: &str) -> bool {
    let mut rest = line.trim_start();
    if let Some(r) = rest.strip_prefix("pub") {
        rest = r.trim_start();
        if rest.starts_with('(') {
            rest = rest.split_once(')').map_or(rest, |(_, r)| r).trim_start();
        }
    }
    rest.starts_with("use ")
}

/// Every identifier each file names outside its `use` statements (this
/// file's allow-list is not a caller).
fn names_by_file(root: &Path) -> BTreeMap<PathBuf, BTreeSet<String>> {
    let mut files = Vec::new();
    for dir in CALLER_ROOTS {
        rust_files(&root.join(dir), &mut files);
    }
    files.retain(|f| *f != root.join(file!()));
    let mut names = BTreeMap::new();
    for file in files {
        let text = fs::read_to_string(&file).expect("read source file");
        let mut in_use = false;
        let mut idents = BTreeSet::new();
        for line in text.lines() {
            if in_use || opens_use(line) {
                in_use = !line.contains(';');
                continue;
            }
            idents.extend(
                line.split(|c: char| !is_ident(c))
                    .filter(|w| !w.is_empty())
                    .map(String::from),
            );
        }
        names.insert(file, idents);
    }
    names
}

/// `(file, name)` of every `pub fn` in a first-party crate's `src/`.
fn public_functions(root: &Path) -> Vec<(PathBuf, String)> {
    let mut dirs = vec![root.join("src")];
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| !VENDORED.iter().any(|v| p.ends_with(v)))
        .collect();
    crates.sort();
    dirs.extend(crates.into_iter().map(|c| c.join("src")));
    let mut files = Vec::new();
    for dir in &dirs {
        rust_files(dir, &mut files);
    }
    files.sort();
    let mut found = Vec::new();
    for file in files {
        let text = fs::read_to_string(&file).expect("read source file");
        for line in text.lines() {
            let Some(rest) = line.trim_start().strip_prefix("pub ") else {
                continue;
            };
            let rest = rest.trim_start();
            let rest = ["const ", "unsafe "]
                .iter()
                .find_map(|q| rest.strip_prefix(q))
                .unwrap_or(rest);
            if let Some(sig) = rest.strip_prefix("fn ") {
                let name: String = sig.chars().take_while(|&c| is_ident(c)).collect();
                found.push((file.clone(), name));
            }
        }
    }
    found.sort();
    found.dedup();
    found
}

#[test]
fn every_public_function_has_a_caller() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let names = names_by_file(root);
    let mut hits = Vec::new();
    for (file, name) in public_functions(root) {
        let called = names
            .iter()
            .any(|(other, idents)| *other != file && idents.contains(&name));
        if !called {
            let rel = file.strip_prefix(root).expect("under the repository root");
            hits.push((rel.to_string_lossy().replace('\\', "/"), name));
        }
    }
    let stale: Vec<_> = ALLOWED
        .iter()
        .filter(|(f, n)| !hits.iter().any(|(hf, hn)| hf == f && hn == n))
        .collect();
    assert!(
        stale.is_empty(),
        "allow-list entries that have a caller or no longer exist: {stale:?}"
    );
    hits.retain(|(f, n)| !ALLOWED.contains(&(f.as_str(), n.as_str())));
    let listed: Vec<String> = hits.iter().map(|(f, n)| format!("{f}: {n}")).collect();
    assert!(
        hits.is_empty(),
        "{} public functions have no caller outside their own file \
         (delete them, make them private, or allow-list them with a reason):\n  {}",
        hits.len(),
        listed.join("\n  ")
    );
}
