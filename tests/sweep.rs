//! Sweep-harness conformance: the smoke sweep's seed-1 summary table and a
//! per-scenario digest of its full-precision runs and summaries are golden
//! fixtures (drift-diffed, `BLESS=1` to regenerate), two sweeps from the
//! same base seed serialize byte-identically, and the swept space spans
//! every workflow strategy and the whole scheduler comparison.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use conformance::golden;
use scenarios::{export, run_sweep, Grammar, SchedulerKind, Strategy, SweepConfig, SweepResult};

fn goldens_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens")
}

fn check_golden(name: &str, actual: &str) {
    if let Err(msg) = golden::compare_or_bless(&goldens_dir().join(name), actual) {
        panic!("{msg}");
    }
}

/// One `id digest` line per scenario: the digest covers the bits of every
/// run's metric vector and every summary, so a 1-ulp drift anywhere in the
/// sweep changes a line (the summary table prints one decimal).
fn scenario_digest_lines(result: &SweepResult) -> String {
    let mut out = String::new();
    for s in &result.scenarios {
        let mut h = cache::Hasher::new();
        for r in &s.runs {
            for v in r.values() {
                h.update(&v.to_bits().to_le_bytes());
            }
        }
        for sum in &s.summaries {
            h.update(&(sum.n as u64).to_le_bytes());
            for v in [sum.mean, sum.sd, sum.ci95] {
                h.update(&v.to_bits().to_le_bytes());
            }
        }
        out += &format!("{} {}\n", s.id, h.finish());
    }
    out
}

fn smoke_config() -> SweepConfig {
    SweepConfig {
        base_seed: 1,
        n_seeds: 25,
        grammar: Grammar::smoke(),
    }
}

/// The CI contract: ≥ 900 runs spanning all six strategies and the Titan
/// policy plus at least four zoo disciplines.
#[test]
fn smoke_sweep_covers_the_required_space() {
    let config = smoke_config();
    let scenarios = config.grammar.expand();
    assert!(scenarios.len() >= 36, "only {} scenarios", scenarios.len());
    assert!(
        scenarios.len() * config.n_seeds >= 900,
        "only {} runs",
        scenarios.len() * config.n_seeds
    );
    let strategies: BTreeSet<Strategy> = scenarios.iter().map(|s| s.strategy).collect();
    assert_eq!(strategies.len(), Strategy::ALL.len());
    let schedulers: BTreeSet<SchedulerKind> = scenarios.iter().map(|s| s.scheduler).collect();
    assert!(schedulers.contains(&SchedulerKind::TitanPolicy));
    assert!(schedulers.len() >= 5, "titan policy + ≥4 zoo disciplines");
}

/// Full smoke sweep: byte-identical artifacts across two same-base-seed
/// runs, and the seed-1 summary table and scenario digests match the
/// committed goldens.
#[test]
fn smoke_sweep_reproduces_and_matches_golden() {
    let config = smoke_config();
    let a = run_sweep(&config);
    let b = run_sweep(&config);

    assert_eq!(
        a.total_runs(),
        config.grammar.expand().len() * config.n_seeds
    );
    assert_eq!(export::to_json(&a), export::to_json(&b), "JSON drifted");
    assert_eq!(export::to_csv(&a), export::to_csv(&b), "CSV drifted");

    let table = export::summary_table(&a);
    assert_eq!(table, export::summary_table(&b), "summary drifted");
    check_golden("sweep_summary_seed1.txt", &table);
    check_golden("sweep_json_seed1.txt", &scenario_digest_lines(&a));
}

/// The headline comparison the sweep exists to make: under the light smoke
/// load, every zoo discipline beats the paper's Titan two-small-jobs policy
/// on mean time-to-science for the combined (simple) workflow — by a margin
/// far beyond both confidence intervals.
#[test]
fn zoo_disciplines_beat_the_titan_policy_in_the_sweep() {
    let result = run_sweep(&smoke_config());
    let science = |id: &str| {
        let s = result
            .scenarios
            .iter()
            .find(|s| s.id == id)
            .unwrap_or_else(|| panic!("{id} not swept"));
        let m = s.summary("mean_result_seconds").expect("metric");
        (m.mean, m.ci95)
    };
    let (titan, titan_ci) = science("titan/light/halos/simple/none/titan-policy");
    for zoo in ["easy", "conservative", "priority-qos", "fair-share"] {
        let (mean, ci) = science(&format!("titan/light/halos/simple/none/{zoo}"));
        assert!(
            mean + ci < titan - titan_ci,
            "{zoo}: {mean} ± {ci} not clearly below titan-policy {titan} ± {titan_ci}"
        );
    }
}
