//! Sweep-harness conformance: the smoke sweep's seed-1 summary table and a
//! per-scenario digest of its full-precision runs and summaries are golden
//! fixtures (drift-diffed, `BLESS=1` to regenerate), sweeps from the same
//! base seed serialize byte-identically at 1, 2 and 3 workers and under
//! static or dynamic chunking, an armed process-global fault injector
//! never reaches a sweep, and the swept space spans every workflow strategy
//! and the whole scheduler comparison.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use conformance::golden;
use dpp::{Backend, StaticThreaded, Threaded};
use faults::{FaultPlan, SiteSpec};
use scenarios::{
    export, run_sweep, run_sweep_on, Grammar, SchedulerKind, Strategy, SweepConfig, SweepResult,
};

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

/// The three exports, in the order the `sweep` binary writes them.
fn exports(result: &SweepResult) -> [String; 3] {
    [
        export::to_json(result),
        export::to_csv(result),
        export::summary_table(result),
    ]
}

/// Full smoke sweep: byte-identical artifacts on one, two and three dynamic
/// workers and three static blocks, and the seed-1 summary table and
/// scenario digests match the committed goldens. The two-worker sweep must
/// really go to the pool, so the inline path cannot pass for it.
#[test]
fn smoke_sweep_reproduces_and_matches_golden() {
    let config = smoke_config();
    let reference = run_sweep_on(&Threaded::new(1), &config);
    assert_eq!(
        reference.total_runs(),
        config.grammar.expand().len() * config.n_seeds
    );
    let expected = exports(&reference);

    let two = Threaded::new(2);
    let before = two.pool_stats().expect("a pool");
    let pooled = run_sweep_on(&two, &config);
    let d = two.pool_stats().expect("a pool").delta_since(&before);
    assert_eq!((d.dispatches, d.serial_dispatches), (1, 0), "{d:?}");

    for (name, result) in [
        ("threaded(2)", pooled),
        ("threaded(3)", run_sweep_on(&Threaded::new(3), &config)),
        (
            "static-threaded(3)",
            run_sweep_on(&StaticThreaded::new(3), &config),
        ),
    ] {
        let [json, csv, table] = exports(&result);
        assert_eq!(json, expected[0], "JSON drifted on {name}");
        assert_eq!(csv, expected[1], "CSV drifted on {name}");
        assert_eq!(table, expected[2], "summary drifted on {name}");
    }

    check_golden("sweep_summary_seed1.txt", &expected[2]);
    check_golden("sweep_json_seed1.txt", &scenario_digest_lines(&reference));
}

/// Each run carries its own scheduler injector, never the process-global
/// one: with a global injector armed to fail every site it polls, a pooled
/// sweep polls no site and serializes exactly as the unarmed sweep does.
#[test]
fn global_fault_injector_cannot_reach_a_sweep() {
    let config = smoke_config();
    let backend = Threaded::new(2);
    let unarmed = export::to_json(&run_sweep_on(&backend, &config));
    let injector = FaultPlan::record_only(1)
        .with_site(SiteSpec::transient("*", 1.0))
        .build();
    let armed = {
        let _armed = faults::install(injector.clone());
        export::to_json(&run_sweep_on(&backend, &config))
    };
    assert_eq!(injector.sites_reached(), Vec::<(String, u64)>::new());
    assert_eq!(armed, unarmed, "the global injector changed a run");
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
