//! The multi-seed statistical sweep runner.
//!
//! Modeled on the TTCC artifact's reproducibility harness: N seeds × every
//! scenario the grammar expands to, each run fully deterministic, aggregated
//! into per-scenario means with 95% confidence intervals. The seed ladder
//! derives every run seed from `(base seed, scenario ID, seed index)`, so
//! adding a scenario never perturbs any other scenario's runs, and two
//! sweeps from the same base seed are byte-identical.

use crate::grammar::{Grammar, Scenario};
use crate::run::{self, RunMetrics, METRIC_NAMES};
use crate::stats::{self, Summary};

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Root of the seed ladder.
    pub base_seed: u64,
    /// Runs per scenario.
    pub n_seeds: usize,
    /// The scenario space.
    pub grammar: Grammar,
}

/// One scenario's runs and per-metric summaries.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Canonical scenario ID.
    pub id: String,
    /// The scenario itself.
    pub scenario: Scenario,
    /// Per-run metric vectors, in seed-ladder order.
    pub runs: Vec<RunMetrics>,
    /// Per-metric summaries, ordered like [`METRIC_NAMES`].
    pub summaries: Vec<Summary>,
}

impl ScenarioResult {
    /// The summary for a named metric.
    pub fn summary(&self, metric: &str) -> Option<&Summary> {
        METRIC_NAMES
            .iter()
            .position(|&m| m == metric)
            .map(|i| &self.summaries[i])
    }
}

/// A completed sweep.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Root of the seed ladder.
    pub base_seed: u64,
    /// Runs per scenario.
    pub n_seeds: usize,
    /// Per-scenario results, sorted by canonical ID.
    pub scenarios: Vec<ScenarioResult>,
}

impl SweepResult {
    /// Total simulated runs.
    pub fn total_runs(&self) -> usize {
        self.scenarios.iter().map(|s| s.runs.len()).sum()
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The deterministic seed ladder: run `k` of the scenario with canonical ID
/// `id` under `base`. Stable under any change to the rest of the grammar.
pub fn scenario_seed(base: u64, id: &str, k: u64) -> u64 {
    let rung = splitmix64(base ^ fnv1a(id));
    splitmix64(rung.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Run the sweep on every core of the machine: [`run_sweep_on`] over a
/// [`dpp::Threaded`] pool sized to the available parallelism.
pub fn run_sweep(config: &SweepConfig) -> SweepResult {
    run_sweep_on(&dpp::Threaded::with_available_parallelism(), config)
}

/// Run the sweep on `backend`: every expanded scenario × every seed rung,
/// aggregated. The result does not depend on the backend or its worker
/// count.
///
/// The `S · n` runs are independent units: unit `u` is rung `u % n` of
/// scenario `u / n`, and each writes its metrics into its own slot
/// ([`dpp::par_init`]), so completion order never reaches the output.
/// A unit runs under a telemetry dim equal to its scenario's expansion
/// index, set on the thread that runs it (dims are thread-local), so
/// recorded counters can be sliced per scenario. A chunk is at most one
/// scenario's rungs, which lets the slower conservative-backfill scenarios
/// spread over the workers. A sweep of at most [`dpp::SMALL_N_THRESHOLD`]
/// runs executes inline on the caller, by the pool's small-`n` rule.
///
/// Then, on the calling thread and in the grammar's canonical expansion
/// order, each scenario opens one `scenarios.scenario` span (its argument is
/// the expansion index, under the same dim), adds its run count to
/// `scenarios.runs` and summarizes its runs in seed-ladder order.
pub fn run_sweep_on(backend: &dyn dpp::Backend, config: &SweepConfig) -> SweepResult {
    let scenarios = config.grammar.expand();
    let ids: Vec<String> = scenarios.iter().map(Scenario::id).collect();
    let n = config.n_seeds;
    let runs = dpp::par_init(backend, scenarios.len() * n, n.max(1), |u| {
        let idx = u / n;
        let _dim = telemetry::with_dim(idx as u64);
        let seed = scenario_seed(config.base_seed, &ids[idx], (u % n) as u64);
        run::execute(&scenarios[idx], seed)
    });

    let mut runs = runs.into_iter();
    let results = scenarios
        .into_iter()
        .zip(ids)
        .enumerate()
        .map(|(idx, (scenario, id))| {
            let _dim = telemetry::with_dim(idx as u64);
            let _span = telemetry::span!("scenarios", "scenario", idx);
            let runs: Vec<RunMetrics> = runs.by_ref().take(n).collect();
            telemetry::count!("scenarios", "runs", runs.len());
            let summaries = (0..METRIC_NAMES.len())
                .map(|m| {
                    let column: Vec<f64> = runs.iter().map(|r| r.values()[m]).collect();
                    stats::summarize(&column)
                })
                .collect();
            ScenarioResult {
                id,
                scenario,
                runs,
                summaries,
            }
        })
        .collect();
    SweepResult {
        base_seed: config.base_seed,
        n_seeds: config.n_seeds,
        scenarios: results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::{
        AxisSet, FaultPlanKind, LoadRegime, MachineKind, SchedulerKind, Strategy, WorkloadKind,
    };

    fn tiny_grammar() -> Grammar {
        Grammar::new().with_block(
            AxisSet::full()
                .machines([MachineKind::Titan])
                .loads([LoadRegime::Light])
                .workloads([WorkloadKind::Halos])
                .strategies([Strategy::InSitu, Strategy::CoScheduled])
                .faults([FaultPlanKind::None])
                .schedulers([SchedulerKind::Easy, SchedulerKind::FairShare]),
        )
    }

    #[test]
    fn seed_ladder_is_stable_and_collision_resistant() {
        let a = scenario_seed(1, "titan/light/halos/in-situ/none/easy", 0);
        assert_eq!(
            a,
            scenario_seed(1, "titan/light/halos/in-situ/none/easy", 0)
        );
        assert_ne!(
            a,
            scenario_seed(1, "titan/light/halos/in-situ/none/easy", 1)
        );
        assert_ne!(
            a,
            scenario_seed(1, "titan/light/halos/in-situ/none/fcfs", 0)
        );
        assert_ne!(
            a,
            scenario_seed(1, "titan/light/render/in-situ/none/easy", 0)
        );
        assert_ne!(
            a,
            scenario_seed(2, "titan/light/halos/in-situ/none/easy", 0)
        );
    }

    #[test]
    fn sweep_runs_every_scenario_n_times() {
        let cfg = SweepConfig {
            base_seed: 1,
            n_seeds: 3,
            grammar: tiny_grammar(),
        };
        let result = run_sweep(&cfg);
        assert_eq!(result.scenarios.len(), 4);
        assert_eq!(result.total_runs(), 12);
        for s in &result.scenarios {
            assert_eq!(s.runs.len(), 3);
            assert_eq!(s.summaries.len(), METRIC_NAMES.len());
            let makespan = s.summary("makespan_seconds").unwrap();
            assert_eq!(makespan.n, 3);
            assert!(makespan.mean > 0.0);
        }
        // Canonical order: sorted by ID.
        let ids: Vec<&str> = result.scenarios.iter().map(|s| s.id.as_str()).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn zero_seeds_runs_nothing_and_divides_by_nothing() {
        let cfg = SweepConfig {
            base_seed: 1,
            n_seeds: 0,
            grammar: tiny_grammar(),
        };
        let result = run_sweep_on(&dpp::Threaded::new(2), &cfg);
        assert_eq!(result.scenarios.len(), 4);
        assert_eq!(result.total_runs(), 0);
    }

    #[test]
    fn same_base_seed_reproduces_bitwise() {
        let cfg = SweepConfig {
            base_seed: 7,
            n_seeds: 2,
            grammar: tiny_grammar(),
        };
        let a = run_sweep(&cfg);
        let b = run_sweep(&cfg);
        for (x, y) in a.scenarios.iter().zip(&b.scenarios) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.runs, y.runs);
        }
    }
}
