//! Results: what a workload run prints, what a set of runs is saved as, and
//! how both parse back.

use crate::host;
use crate::metrics::{self, MetricDef};
use crate::workloads::{Outcome, Sample};
use std::collections::BTreeMap;
use telemetry::json::{self, Value};

/// One workload run, reduced to named metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Every checked operation was right.
    pub correct: bool,
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
    /// Metrics by name.
    pub metrics: BTreeMap<String, Sample>,
}

/// Reduce an outcome to the metrics its mode prints: the end-to-end vector
/// for an untraced run (plus the workload's native metrics when
/// `with_native`), every declared per-layer metric for a traced one (plus
/// whatever else it recorded: the `service`-only metrics on `service`).
pub fn finish(outcome: &Outcome, traced: bool, with_native: bool) -> WorkloadResult {
    let mut m: BTreeMap<String, Sample> = BTreeMap::new();
    let recorded = |def: &MetricDef| {
        let s = outcome.metrics.get(def.name).copied();
        (def.name.to_string(), s.unwrap_or(Sample::one(0.0)))
    };
    if traced {
        m.extend(metrics::declared_per_layer().map(recorded));
        let recorded_only = outcome.metrics.iter();
        m.extend(recorded_only.map(|(name, s)| (name.to_string(), *s)));
    } else {
        m.insert("setup_s".into(), Sample::of(&outcome.setup_s));
        m.insert("time_to_solution_s".into(), outcome.time_to_solution_s());
        m.insert("peak_rss_mb".into(), Sample::one(host::peak_rss_mb()));
        if with_native {
            let native = metrics::NATIVE
                .iter()
                .filter(|d| outcome.metrics.contains_key(d.name));
            m.extend(native.map(recorded));
        }
    }
    WorkloadResult {
        correct: outcome.failed == 0 && outcome.attempted > 0,
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics: m,
    }
}

/// A JSON number: the shortest text that reads back as the same `f64`
/// (non-finite values, which JSON cannot carry, become 0).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn unit_of(name: &str) -> &'static str {
    metrics::find(name).map_or("", |m| m.unit)
}

impl WorkloadResult {
    /// The result as one line of JSON. The contract form carries `value` and
    /// `unit` per metric; `detail` adds the sample count and quartiles.
    pub fn to_json(&self, detail: bool) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, s)| {
                let extra = if detail {
                    format!(",\"n\":{},\"q1\":{},\"q3\":{}", s.n, num(s.q1), num(s.q3))
                } else {
                    String::new()
                };
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{}\"{extra}}}",
                    num(s.value),
                    unit_of(name)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// Parse either form back.
    pub fn from_value(v: &Value) -> Result<WorkloadResult, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("missing key {k:?}"));
        let Value::Obj(metrics) = field("metrics")? else {
            return Err("metrics is not an object".into());
        };
        let metrics = metrics
            .iter()
            .map(|(name, m)| {
                let value = m
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("metric {name} has no value"))?;
                let part = |k: &str| m.get(k).and_then(Value::as_f64).unwrap_or(value);
                Ok((
                    name.clone(),
                    Sample {
                        value,
                        n: m.get("n").and_then(Value::as_u64).unwrap_or(1) as usize,
                        q1: part("q1"),
                        q3: part("q3"),
                    },
                ))
            })
            .collect::<Result<_, String>>()?;
        Ok(WorkloadResult {
            correct: matches!(field("correct")?, Value::Bool(true)),
            attempted: field("attempted")?.as_u64().ok_or("attempted")?,
            failed: field("failed")?.as_u64().ok_or("failed")?,
            metrics,
        })
    }

    /// Parse the last line of a workload run's standard output.
    pub fn from_stdout(stdout: &str) -> Result<WorkloadResult, String> {
        let line = stdout
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .ok_or("no output")?;
        WorkloadResult::from_value(&json::parse(line)?)
    }

    /// Merge another run of the same workload into this one (the traced
    /// run's per-layer metrics into the untraced run's result). A metric
    /// both runs report keeps this run's value: end-to-end metrics always
    /// come from the untraced run.
    pub fn absorb(&mut self, other: WorkloadResult) {
        self.correct &= other.correct;
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (name, sample) in other.metrics {
            self.metrics.entry(name).or_insert(sample);
        }
    }
}

/// One run of every requested workload.
pub type Run = BTreeMap<String, WorkloadResult>;

/// What `e2e run --out` saves and `e2e compare` reads: the host facts the
/// numbers are only comparable under, and one or more runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSet {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// Hardware threads of the host.
    pub nproc: usize,
    /// Pool workers, ranks and clients used (fixed by the harness).
    pub workers: usize,
    /// Filesystem type under the scratch directory.
    pub scratch_fs: String,
    /// The runs, in the order they were made.
    pub runs: Vec<Run>,
}

impl RunSet {
    /// An empty set for this host.
    pub fn new(seed: u64, seconds: f64) -> RunSet {
        let scratch_fs = host::out_dir().map_or("unknown".into(), |d| host::filesystem_of(&d));
        RunSet {
            seed,
            seconds,
            nproc: host::nproc(),
            workers: host::WORKERS,
            scratch_fs,
            runs: Vec::new(),
        }
    }

    /// Serialise.
    pub fn to_json(&self) -> String {
        let runs: Vec<String> = self
            .runs
            .iter()
            .map(|run| {
                let workloads: Vec<String> = run
                    .iter()
                    .map(|(w, r)| format!("    \"{w}\":{}", r.to_json(true)))
                    .collect();
                format!("  {{\n{}\n  }}", workloads.join(",\n"))
            })
            .collect();
        format!(
            "{{\"seed\":{},\"seconds\":{},\"nproc\":{},\"workers\":{},\"scratch_fs\":\"{}\",\"runs\":[\n{}\n]}}\n",
            self.seed,
            num(self.seconds),
            self.nproc,
            self.workers,
            json::escape(&self.scratch_fs),
            runs.join(",\n")
        )
    }

    /// Parse back.
    pub fn parse(text: &str) -> Result<RunSet, String> {
        let v = json::parse(text)?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("missing key {k:?}"));
        let runs = field("runs")?
            .as_arr()
            .ok_or("runs is not an array")?
            .iter()
            .map(|run| {
                let Value::Obj(workloads) = run else {
                    return Err("a run is not an object".to_string());
                };
                workloads
                    .iter()
                    .map(|(w, r)| Ok((w.clone(), WorkloadResult::from_value(r)?)))
                    .collect()
            })
            .collect::<Result<_, String>>()?;
        Ok(RunSet {
            seed: field("seed")?.as_u64().ok_or("seed")?,
            seconds: field("seconds")?.as_f64().ok_or("seconds")?,
            nproc: field("nproc")?.as_u64().ok_or("nproc")? as usize,
            workers: field("workers")?.as_u64().ok_or("workers")? as usize,
            scratch_fs: field("scratch_fs")?
                .as_str()
                .ok_or("scratch_fs")?
                .to_string(),
            runs,
        })
    }

    /// The sample `e2e compare` holds for `(workload, metric)`: across the
    /// set's runs when there are several, the single run's own otherwise.
    pub fn sample(&self, workload: &str, metric: &str) -> Option<(Sample, Vec<f64>)> {
        let per_run: Vec<Sample> = self
            .runs
            .iter()
            .filter_map(|run| run.get(workload)?.metrics.get(metric).copied())
            .collect();
        let values: Vec<f64> = per_run.iter().map(|s| s.value).collect();
        match per_run.as_slice() {
            [] => None,
            [one] => Some((*one, values)),
            _ => Some((Sample::of(&values), values)),
        }
    }

    /// Failed share of the operations `workload` attempted, over all runs.
    pub fn failed_share(&self, workload: &str) -> f64 {
        let (failed, attempted) = self
            .runs
            .iter()
            .filter_map(|run| run.get(workload))
            .fold((0, 0), |(f, a), r| (f + r.failed, a + r.attempted));
        failed as f64 / attempted.max(1) as f64
    }
}

/// The human-readable table of one workload's result.
pub fn table(workload: &str, r: &WorkloadResult) -> String {
    let mut out = format!(
        "{workload}: {} ({} operations attempted, {} failed)\n",
        if r.correct { "correct" } else { "INCORRECT" },
        r.attempted,
        r.failed
    );
    for (name, s) in &r.metrics {
        // A metric this workload does not measure reads 0; leave it out.
        let universal = metrics::END_TO_END.iter().any(|d| d.name == name);
        if s.value == 0.0 && !universal && !name.starts_with("trace.") {
            continue;
        }
        let spread = if s.n > 1 {
            format!("  [q1 {:.4}, q3 {:.4}, n {}]", s.q1, s.q3, s.n)
        } else {
            String::new()
        };
        out.push_str(&format!(
            "  {name:<34} {:>14.4} {:<6}{spread}\n",
            s.value,
            unit_of(name)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> WorkloadResult {
        let mut metrics = BTreeMap::new();
        metrics.insert(
            "time_to_solution_s".to_string(),
            Sample {
                value: 4.105_123_456_789,
                n: 3,
                q1: 4.008,
                q3: 4.154,
            },
        );
        metrics.insert("peak_rss_mb".to_string(), Sample::one(123.5));
        WorkloadResult {
            correct: true,
            attempted: 4,
            failed: 0,
            metrics,
        }
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys_and_all_digits() {
        let line = result().to_json(false);
        let v = json::parse(&line).expect("valid JSON");
        let Value::Obj(top) = &v else {
            panic!("object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let Value::Obj(m) = v.get("metrics").unwrap().get("time_to_solution_s").unwrap() else {
            panic!("object")
        };
        assert_eq!(
            m.keys().map(String::as_str).collect::<Vec<_>>(),
            ["unit", "value"]
        );
        assert_eq!(m["value"].as_f64(), Some(4.105_123_456_789));
        assert_eq!(m["unit"].as_str(), Some("s"));
    }

    #[test]
    fn detail_line_and_run_set_parse_back() {
        let r = result();
        assert_eq!(
            WorkloadResult::from_stdout(&format!("noise\n{}\n\n", r.to_json(true))),
            Ok(r.clone())
        );
        // The contract form drops the spread: n = 1, quartiles = value.
        let back = WorkloadResult::from_stdout(&r.to_json(false)).unwrap();
        assert_eq!(
            back.metrics["time_to_solution_s"],
            Sample::one(4.105_123_456_789)
        );

        let mut set = RunSet::new(77, 10.0);
        set.runs
            .push(BTreeMap::from([("cosched".to_string(), r.clone())]));
        set.runs.push(BTreeMap::from([("cosched".to_string(), r)]));
        assert_eq!(RunSet::parse(&set.to_json()), Ok(set.clone()));
        let (s, values) = set.sample("cosched", "peak_rss_mb").unwrap();
        assert_eq!((s.n, s.value, values.len()), (2, 123.5, 2));
        assert!(set.sample("cosched", "nope").is_none());
    }

    #[test]
    fn absorbing_the_traced_run_keeps_the_untraced_values() {
        let mut untraced = result();
        let mut traced = result();
        traced
            .metrics
            .insert("peak_rss_mb".into(), Sample::one(999.0));
        traced
            .metrics
            .insert("trace.coverage".into(), Sample::one(0.98));
        traced.failed = 1;
        traced.correct = false;
        untraced.absorb(traced);
        assert_eq!(untraced.metrics["peak_rss_mb"].value, 123.5);
        assert_eq!(untraced.metrics["trace.coverage"].value, 0.98);
        assert_eq!(
            (untraced.attempted, untraced.failed, untraced.correct),
            (8, 1, false)
        );
    }

    #[test]
    fn untraced_run_prints_the_end_to_end_vector() {
        let mut outcome = Outcome::default();
        outcome.op(true);
        outcome.setup_s = vec![0.5, 0.7, 0.6];
        // Twenty iterations, two of them undisturbed: the fastest tenth.
        for i in 0..20 {
            outcome.iteration(if i % 10 == 3 {
                1.0
            } else {
                1.3 + 0.01 * f64::from(i)
            });
        }
        let m = finish(&outcome, false, false).metrics;
        assert_eq!(m["setup_s"].value, 0.6, "a median");
        assert_eq!(m["time_to_solution_s"].value, 1.0, "the fastest tenth");
        // The quartiles are those of all the iterations.
        assert_eq!(m["time_to_solution_s"].n, 20);
        assert!(m["time_to_solution_s"].q1 > 1.3);
        let names: Vec<&str> = m.keys().map(String::as_str).collect();
        let mut declared: Vec<&str> = metrics::END_TO_END.iter().map(|d| d.name).collect();
        declared.sort_unstable();
        assert_eq!(names, declared);

        // Fewer than eleven iterations: the fastest one.
        let mut few = Outcome::default();
        for wall in [3.9, 3.6, 4.4, 3.7, 3.8] {
            few.iteration(wall);
        }
        assert_eq!(few.time_to_solution_s().value, 3.6);
    }

    #[test]
    fn non_finite_values_stay_valid_json() {
        let mut r = result();
        r.metrics.insert("setup_s".into(), Sample::one(f64::NAN));
        assert!(json::parse(&r.to_json(true)).is_ok());
    }
}
