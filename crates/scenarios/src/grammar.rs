//! The scenario grammar: an enumerable, composable language over the axes
//! the paper hand-picked — machine × load regime × analysis workload ×
//! workflow strategy × fault plan × scheduler policy.
//!
//! Every [`Scenario`] has a stable canonical ID: the six axis tokens joined
//! with `/`, e.g. `titan/light/halos/co-scheduled/none/easy`. IDs round-trip
//! through [`std::str::FromStr`], and [`Grammar::expand`] returns scenarios
//! deduplicated and sorted by ID, so the swept space is identical run to run
//! whatever order blocks and excludes were declared in.

use std::fmt;
use std::str::FromStr;

macro_rules! axis_enum {
    (
        $(#[$meta:meta])*
        $name:ident {
            $( $(#[$vmeta:meta])* $variant:ident => $token:literal, )+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum $name {
            $( $(#[$vmeta])* $variant, )+
        }

        impl $name {
            /// Every value of this axis, in declaration order.
            pub const ALL: &'static [$name] = &[ $( $name::$variant, )+ ];

            /// The canonical scenario-ID token.
            fn token(self) -> &'static str {
                match self {
                    $( $name::$variant => $token, )+
                }
            }

            /// Parse a canonical token back to the value.
            fn parse_token(s: &str) -> Option<$name> {
                match s {
                    $( $token => Some($name::$variant), )+
                    _ => None,
                }
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.token())
            }
        }
    };
}

axis_enum! {
    /// Which facility's batch queue and charging model hosts the campaign.
    MachineKind {
        /// OLCF Titan (18,688 nodes, 30 core-hours/node-hour).
        Titan => "titan",
        /// Titan with the hypothetical burst-buffer tier attached.
        TitanBb => "titan-bb",
        /// Rhea, the GPU-less analysis cluster.
        Rhea => "rhea",
        /// LANL Moonlight (GPU cluster at ~0.55× Titan kernel speed).
        Moonlight => "moonlight",
    }
}

axis_enum! {
    /// How much science and competing background work the campaign carries.
    LoadRegime {
        /// Small halo population, few snapshots, 0.6× background load.
        Light => "light",
        /// The paper-scale campaign, 0.9× background load.
        Medium => "medium",
        /// Oversubscribed: large population, 1.2× background load.
        Heavy => "heavy",
    }
}

axis_enum! {
    /// Which in-situ product family the campaign's analysis produces.
    WorkloadKind {
        /// Halo catalogs: FOF identification plus center finding — the
        /// paper's compute-bound analysis workload.
        Halos => "halos",
        /// Streaming visualization: one density-projection frame per
        /// simulation step — bandwidth-bound, priced on the interconnect.
        Render => "render",
    }
}

axis_enum! {
    /// The five Table 3/4 workflow strategies, plus the streaming
    /// in-transit variant backed by the distributed artifact store.
    Strategy {
        /// Everything analysed inside the simulation job.
        InSitu => "in-situ",
        /// Full Level 1 write-out, analysis re-reads it later.
        OffLine => "off-line",
        /// Combined in-situ/off-line, post jobs queued after the run.
        Simple => "simple",
        /// Combined, post jobs co-scheduled as snapshots appear.
        CoScheduled => "co-scheduled",
        /// Combined, Level 2 handed off through the burst-buffer tier as
        /// whole files.
        InTransit => "in-transit",
        /// Combined, Level 2 streamed chunk-by-chunk through the sharded
        /// artifact store as it is produced.
        InTransitStream => "in-transit-stream",
    }
}

axis_enum! {
    /// Seeded fault environment applied at the scheduler fault site.
    FaultPlanKind {
        /// No injected faults.
        None => "none",
        /// Occasional transient job failures with requeue-and-backoff.
        Transient => "transient",
        /// A bad day: frequent transient failures.
        Storm => "storm",
    }
}

axis_enum! {
    /// Queue discipline presets from the `simhpc` scheduler zoo.
    SchedulerKind {
        /// The paper's Titan policy: largest-first, two-small-jobs cap.
        TitanPolicy => "titan-policy",
        /// Greedy first-come-first-served.
        Fcfs => "fcfs",
        /// EASY backfilling (head-of-queue reservation).
        Easy => "easy",
        /// Conservative backfilling (per-job reservations).
        Conservative => "conservative",
        /// Priority/QoS classes (Gold > Silver > Bronze).
        PriorityQos => "priority-qos",
        /// Fair-share over per-group accumulated usage.
        FairShare => "fair-share",
    }
}

/// One point of the scenario space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Scenario {
    /// Hosting facility.
    pub machine: MachineKind,
    /// Campaign size and background pressure.
    pub load: LoadRegime,
    /// Analysis product family.
    pub workload: WorkloadKind,
    /// Workflow strategy.
    pub strategy: Strategy,
    /// Fault environment.
    pub faults: FaultPlanKind,
    /// Queue discipline.
    pub scheduler: SchedulerKind,
}

impl Scenario {
    /// Canonical ID: the six axis tokens joined with `/`.
    pub fn id(&self) -> String {
        format!(
            "{}/{}/{}/{}/{}/{}",
            self.machine, self.load, self.workload, self.strategy, self.faults, self.scheduler
        )
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id())
    }
}

/// Error from parsing a scenario ID or pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioParseError {
    /// What went wrong, with the offending input.
    pub message: String,
}

impl fmt::Display for ScenarioParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid scenario: {}", self.message)
    }
}

impl std::error::Error for ScenarioParseError {}

fn six_tokens(s: &str) -> Result<[&str; 6], ScenarioParseError> {
    let parts: Vec<&str> = s.split('/').collect();
    match <[&str; 6]>::try_from(parts) {
        Ok(p) => Ok(p),
        Err(p) => Err(ScenarioParseError {
            message: format!("`{s}` has {} `/`-separated tokens, expected 6", p.len()),
        }),
    }
}

fn bad_token(axis: &str, tok: &str) -> ScenarioParseError {
    ScenarioParseError {
        message: format!("unknown {axis} token `{tok}`"),
    }
}

impl FromStr for Scenario {
    type Err = ScenarioParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let [m, l, w, st, f, sc] = six_tokens(s)?;
        Ok(Scenario {
            machine: MachineKind::parse_token(m).ok_or_else(|| bad_token("machine", m))?,
            load: LoadRegime::parse_token(l).ok_or_else(|| bad_token("load", l))?,
            workload: WorkloadKind::parse_token(w).ok_or_else(|| bad_token("workload", w))?,
            strategy: Strategy::parse_token(st).ok_or_else(|| bad_token("strategy", st))?,
            faults: FaultPlanKind::parse_token(f).ok_or_else(|| bad_token("fault", f))?,
            scheduler: SchedulerKind::parse_token(sc).ok_or_else(|| bad_token("scheduler", sc))?,
        })
    }
}

/// A wildcard-able scenario matcher: each axis is either a fixed value or
/// `*`. Parse with the same `/`-separated syntax as IDs, e.g.
/// `titan/*/*/*/storm/*`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Pattern {
    /// `None` matches any machine.
    pub machine: Option<MachineKind>,
    /// `None` matches any load regime.
    pub load: Option<LoadRegime>,
    /// `None` matches any workload.
    pub workload: Option<WorkloadKind>,
    /// `None` matches any strategy.
    pub strategy: Option<Strategy>,
    /// `None` matches any fault plan.
    pub faults: Option<FaultPlanKind>,
    /// `None` matches any scheduler.
    pub scheduler: Option<SchedulerKind>,
}

impl Pattern {
    /// Does this pattern match the scenario?
    pub fn matches(&self, s: &Scenario) -> bool {
        self.machine.is_none_or(|m| m == s.machine)
            && self.load.is_none_or(|l| l == s.load)
            && self.workload.is_none_or(|w| w == s.workload)
            && self.strategy.is_none_or(|st| st == s.strategy)
            && self.faults.is_none_or(|f| f == s.faults)
            && self.scheduler.is_none_or(|sc| sc == s.scheduler)
    }
}

fn parse_axis<T>(
    axis: &str,
    tok: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, ScenarioParseError> {
    if tok == "*" {
        Ok(None)
    } else {
        parse(tok).map(Some).ok_or_else(|| bad_token(axis, tok))
    }
}

impl FromStr for Pattern {
    type Err = ScenarioParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let [m, l, w, st, f, sc] = six_tokens(s)?;
        Ok(Pattern {
            machine: parse_axis("machine", m, MachineKind::parse_token)?,
            load: parse_axis("load", l, LoadRegime::parse_token)?,
            workload: parse_axis("workload", w, WorkloadKind::parse_token)?,
            strategy: parse_axis("strategy", st, Strategy::parse_token)?,
            faults: parse_axis("fault", f, FaultPlanKind::parse_token)?,
            scheduler: parse_axis("scheduler", sc, SchedulerKind::parse_token)?,
        })
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn tok<T: Copy>(v: Option<T>, t: impl Fn(T) -> &'static str) -> &'static str {
            v.map(t).unwrap_or("*")
        }
        write!(
            f,
            "{}/{}/{}/{}/{}/{}",
            tok(self.machine, MachineKind::token),
            tok(self.load, LoadRegime::token),
            tok(self.workload, WorkloadKind::token),
            tok(self.strategy, Strategy::token),
            tok(self.faults, FaultPlanKind::token),
            tok(self.scheduler, SchedulerKind::token),
        )
    }
}

/// One composable block of the grammar: the cross product of the values
/// listed on each axis. An empty axis yields no scenarios (the block is
/// inert), which makes partial builders safe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AxisSet {
    /// Machines in this block.
    pub machines: Vec<MachineKind>,
    /// Load regimes in this block.
    pub loads: Vec<LoadRegime>,
    /// Workloads in this block.
    pub workloads: Vec<WorkloadKind>,
    /// Strategies in this block.
    pub strategies: Vec<Strategy>,
    /// Fault plans in this block.
    pub faults: Vec<FaultPlanKind>,
    /// Schedulers in this block.
    pub schedulers: Vec<SchedulerKind>,
}

impl AxisSet {
    /// Every value on every axis — the full scenario space.
    pub fn full() -> Self {
        AxisSet {
            machines: MachineKind::ALL.to_vec(),
            loads: LoadRegime::ALL.to_vec(),
            workloads: WorkloadKind::ALL.to_vec(),
            strategies: Strategy::ALL.to_vec(),
            faults: FaultPlanKind::ALL.to_vec(),
            schedulers: SchedulerKind::ALL.to_vec(),
        }
    }

    /// Restrict the workload axis (builder style).
    pub fn workloads(mut self, v: impl IntoIterator<Item = WorkloadKind>) -> Self {
        self.workloads = v.into_iter().collect();
        self
    }

    /// Restrict the machine axis (builder style).
    pub fn machines(mut self, v: impl IntoIterator<Item = MachineKind>) -> Self {
        self.machines = v.into_iter().collect();
        self
    }

    /// Restrict the load axis (builder style).
    pub fn loads(mut self, v: impl IntoIterator<Item = LoadRegime>) -> Self {
        self.loads = v.into_iter().collect();
        self
    }

    /// Restrict the strategy axis (builder style).
    pub fn strategies(mut self, v: impl IntoIterator<Item = Strategy>) -> Self {
        self.strategies = v.into_iter().collect();
        self
    }

    /// Restrict the fault axis (builder style).
    pub fn faults(mut self, v: impl IntoIterator<Item = FaultPlanKind>) -> Self {
        self.faults = v.into_iter().collect();
        self
    }

    /// Restrict the scheduler axis (builder style).
    pub fn schedulers(mut self, v: impl IntoIterator<Item = SchedulerKind>) -> Self {
        self.schedulers = v.into_iter().collect();
        self
    }

    fn scenarios(&self) -> impl Iterator<Item = Scenario> + '_ {
        self.machines.iter().flat_map(move |&machine| {
            self.loads.iter().flat_map(move |&load| {
                self.workloads.iter().flat_map(move |&workload| {
                    self.strategies.iter().flat_map(move |&strategy| {
                        self.faults.iter().flat_map(move |&faults| {
                            self.schedulers.iter().map(move |&scheduler| Scenario {
                                machine,
                                load,
                                workload,
                                strategy,
                                faults,
                                scheduler,
                            })
                        })
                    })
                })
            })
        })
    }
}

/// A union of [`AxisSet`] blocks minus a set of exclude [`Pattern`]s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Grammar {
    blocks: Vec<AxisSet>,
    excludes: Vec<Pattern>,
}

impl Grammar {
    /// An empty grammar (expands to nothing).
    pub fn new() -> Self {
        Grammar::default()
    }

    /// Add a block: the union grows by the block's cross product.
    pub fn with_block(mut self, block: AxisSet) -> Self {
        self.blocks.push(block);
        self
    }

    /// Exclude every scenario matching the pattern.
    pub fn without(mut self, pattern: Pattern) -> Self {
        self.excludes.push(pattern);
        self
    }

    /// Expand to the scenario list: union of all blocks, deduplicated,
    /// excludes applied, sorted by canonical ID. The result is a pure
    /// function of the declared sets — block order, overlap, and exclude
    /// order cannot change it.
    pub fn expand(&self) -> Vec<Scenario> {
        let mut by_id = std::collections::BTreeMap::new();
        for block in &self.blocks {
            for s in block.scenarios() {
                if self.excludes.iter().any(|p| p.matches(&s)) {
                    continue;
                }
                by_id.insert(s.id(), s);
            }
        }
        by_id.into_values().collect()
    }

    /// The CI smoke grammar: Titan, light load, both workloads, all six
    /// strategies, quiet and transient fault plans, the Titan policy plus
    /// the four zoo disciplines — 120 scenarios.
    pub fn smoke() -> Self {
        Grammar::new().with_block(
            AxisSet::full()
                .machines([MachineKind::Titan])
                .loads([LoadRegime::Light])
                .faults([FaultPlanKind::None, FaultPlanKind::Transient])
                .schedulers([
                    SchedulerKind::TitanPolicy,
                    SchedulerKind::Easy,
                    SchedulerKind::Conservative,
                    SchedulerKind::PriorityQos,
                    SchedulerKind::FairShare,
                ]),
        )
    }

    /// The full sweep grammar: Titan and Moonlight across every load,
    /// workload, strategy, fault plan, and scheduler, plus the burst-buffer
    /// machine on both in-transit strategies (whole-file and streamed),
    /// minus both in-transit variants on Moonlight (no burst-buffer story
    /// there) — 1296 scenarios.
    pub fn full() -> Self {
        Grammar::new()
            .with_block(AxisSet::full().machines([MachineKind::Titan, MachineKind::Moonlight]))
            .with_block(
                AxisSet::full()
                    .machines([MachineKind::TitanBb])
                    .strategies([Strategy::InTransit, Strategy::InTransitStream]),
            )
            .without(Pattern {
                machine: Some(MachineKind::Moonlight),
                strategy: Some(Strategy::InTransit),
                ..Pattern::default()
            })
            .without(Pattern {
                machine: Some(MachineKind::Moonlight),
                strategy: Some(Strategy::InTransitStream),
                ..Pattern::default()
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip() {
        for block in [AxisSet::full()] {
            for s in block.scenarios() {
                let id = s.id();
                let parsed: Scenario = id.parse().unwrap();
                assert_eq!(parsed, s, "{id}");
            }
        }
    }

    #[test]
    fn parse_rejects_malformed_ids() {
        assert!("titan/light".parse::<Scenario>().is_err());
        // Five-token IDs from before the workload axis no longer parse.
        assert!("titan/light/in-situ/none/easy".parse::<Scenario>().is_err());
        assert!("titan/light/halos/in-situ/none/warp"
            .parse::<Scenario>()
            .is_err());
        assert!("titan/light/teapots/in-situ/none/easy"
            .parse::<Scenario>()
            .is_err());
        assert!("xyzzy/light/halos/in-situ/none/easy"
            .parse::<Scenario>()
            .is_err());
    }

    #[test]
    fn expansion_dedups_overlapping_blocks() {
        let block = AxisSet::full()
            .machines([MachineKind::Titan])
            .loads([LoadRegime::Light])
            .workloads([WorkloadKind::Halos])
            .strategies([Strategy::InSitu])
            .faults([FaultPlanKind::None])
            .schedulers([SchedulerKind::Easy]);
        let g = Grammar::new()
            .with_block(block.clone())
            .with_block(block.clone());
        assert_eq!(g.expand().len(), 1);
    }

    #[test]
    fn excludes_remove_matching_scenarios() {
        let g = Grammar::smoke().without("*/*/*/*/transient/*".parse().unwrap());
        let scenarios = g.expand();
        assert_eq!(scenarios.len(), 60);
        assert!(scenarios.iter().all(|s| s.faults == FaultPlanKind::None));
    }

    #[test]
    fn smoke_grammar_spans_the_required_space() {
        let scenarios = Grammar::smoke().expand();
        assert_eq!(scenarios.len(), 120);
        let strategies: std::collections::BTreeSet<_> =
            scenarios.iter().map(|s| s.strategy).collect();
        assert_eq!(strategies.len(), Strategy::ALL.len());
        let workloads: std::collections::BTreeSet<_> =
            scenarios.iter().map(|s| s.workload).collect();
        assert_eq!(workloads.len(), WorkloadKind::ALL.len());
        let schedulers: std::collections::BTreeSet<_> =
            scenarios.iter().map(|s| s.scheduler).collect();
        assert_eq!(schedulers.len(), 5, "titan policy + four zoo disciplines");
    }

    #[test]
    fn full_grammar_excludes_moonlight_in_transit() {
        let scenarios = Grammar::full().expand();
        // 2 machines × full cross (1296) + titan-bb × both in-transit
        // variants (216) − moonlight × both in-transit variants (216).
        assert_eq!(scenarios.len(), 1296);
        for strat in [Strategy::InTransit, Strategy::InTransitStream] {
            assert!(!scenarios
                .iter()
                .any(|s| s.machine == MachineKind::Moonlight && s.strategy == strat));
            assert!(scenarios
                .iter()
                .any(|s| s.machine == MachineKind::TitanBb && s.strategy == strat));
        }
    }

    #[test]
    fn pattern_round_trips_with_wildcards() {
        let p: Pattern = "titan/*/*/co-scheduled/*/fair-share".parse().unwrap();
        assert_eq!(p.to_string(), "titan/*/*/co-scheduled/*/fair-share");
        assert!(p.matches(
            &"titan/light/halos/co-scheduled/none/fair-share"
                .parse()
                .unwrap()
        ));
        assert!(p.matches(
            &"titan/light/render/co-scheduled/none/fair-share"
                .parse()
                .unwrap()
        ));
        assert!(!p.matches(
            &"rhea/light/halos/co-scheduled/none/fair-share"
                .parse()
                .unwrap()
        ));
        let wp: Pattern = "*/*/render/*/*/*".parse().unwrap();
        assert!(wp.matches(&"titan/light/render/in-situ/none/easy".parse().unwrap()));
        assert!(!wp.matches(&"titan/light/halos/in-situ/none/easy".parse().unwrap()));
    }
}
