//! Golden-run fixtures: committed snapshots with a bless path and drift
//! diffs.
//!
//! A golden check compares freshly computed text against a committed
//! fixture file. On mismatch the failure message is a line-level diff of the
//! drift (not just "files differ"). Setting `BLESS=1` in the environment —
//! the `just bless` target — rewrites the fixture instead of failing, which
//! is the only sanctioned way to update goldens after an intentional
//! behaviour change.

use std::fs;
use std::path::Path;

/// What a golden comparison did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GoldenOutcome {
    /// Actual output matched the committed fixture.
    Match,
    /// `BLESS=1` was set: the fixture was (re)written from actual output.
    Blessed,
}

/// Is a bless run requested via the environment (`BLESS=1`)?
fn bless_requested() -> bool {
    std::env::var("BLESS").map(|v| v == "1").unwrap_or(false)
}

/// Maximum differing lines quoted in a drift report.
const MAX_DIFF_LINES: usize = 20;

/// Render a line-level drift diff between fixture and actual text.
fn drift_diff(name: &str, expected: &str, actual: &str) -> String {
    let exp: Vec<&str> = expected.lines().collect();
    let act: Vec<&str> = actual.lines().collect();
    let mut out = format!(
        "golden fixture `{name}` drifted ({} fixture lines, {} actual lines):\n",
        exp.len(),
        act.len()
    );
    let mut shown = 0;
    for i in 0..exp.len().max(act.len()) {
        let e = exp.get(i).copied();
        let a = act.get(i).copied();
        if e != a {
            match (e, a) {
                (Some(e), Some(a)) => {
                    out.push_str(&format!("  line {:>4}: - {e}\n", i + 1));
                    out.push_str(&format!("             + {a}\n"));
                }
                (Some(e), None) => {
                    out.push_str(&format!("  line {:>4}: - {e}  (missing)\n", i + 1))
                }
                (None, Some(a)) => out.push_str(&format!("  line {:>4}: + {a}  (extra)\n", i + 1)),
                (None, None) => unreachable!(),
            }
            shown += 1;
            if shown >= MAX_DIFF_LINES {
                out.push_str("  … (further drift elided)\n");
                break;
            }
        }
    }
    out.push_str("rerun with BLESS=1 (`just bless`) to accept the new output\n");
    out
}

/// Compare `actual` against the fixture at `path`, or rewrite the fixture
/// when `BLESS=1`.
///
/// Errors (as `Err(message)`) when the fixture is missing or drifted so the
/// caller can fail the test with a useful message.
pub fn compare_or_bless(path: &Path, actual: &str) -> Result<GoldenOutcome, String> {
    if bless_requested() {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)
                .map_err(|e| format!("bless: cannot create {}: {e}", parent.display()))?;
        }
        fs::write(path, actual)
            .map_err(|e| format!("bless: cannot write {}: {e}", path.display()))?;
        return Ok(GoldenOutcome::Blessed);
    }
    let expected = fs::read_to_string(path).map_err(|e| {
        format!(
            "golden fixture {} is unreadable ({e}); run `just bless` to create it",
            path.display()
        )
    })?;
    if expected == actual {
        Ok(GoldenOutcome::Match)
    } else {
        Err(drift_diff(&path.display().to_string(), &expected, actual))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matching_fixture_passes() {
        if bless_requested() {
            return; // behaviour under test is the non-bless path
        }
        let dir = std::env::temp_dir().join("conformance-golden-match");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("fix.txt");
        std::fs::write(&p, "a\nb\n").unwrap();
        assert_eq!(compare_or_bless(&p, "a\nb\n"), Ok(GoldenOutcome::Match));
    }

    #[test]
    fn drift_reports_lines() {
        if bless_requested() {
            return;
        }
        let dir = std::env::temp_dir().join("conformance-golden-drift");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("fix.txt");
        std::fs::write(&p, "a\nb\nc\n").unwrap();
        let err = compare_or_bless(&p, "a\nX\nc\nd\n").unwrap_err();
        assert!(err.contains("line    2"), "{err}");
        assert!(err.contains("- b"), "{err}");
        assert!(err.contains("+ X"), "{err}");
        assert!(err.contains("+ d"), "{err}");
        assert!(err.contains("BLESS=1"), "{err}");
    }

    #[test]
    fn missing_fixture_names_bless() {
        if bless_requested() {
            return;
        }
        let p = std::env::temp_dir().join("conformance-golden-missing/nope.txt");
        let _ = std::fs::remove_file(&p);
        let err = compare_or_bless(&p, "x").unwrap_err();
        assert!(err.contains("just bless"), "{err}");
    }
}
