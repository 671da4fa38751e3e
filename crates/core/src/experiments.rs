//! Experiment drivers: one function per table/figure of the paper's
//! evaluation. Each returns structured data plus a formatted text rendering;
//! the `bench` crate and the examples call these.

use crate::model::{expected_center_seconds, qcontinuum_projection, RunSpec, TitanFrame};
use halo::massfn::{qcontinuum, MassFunction};
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------- Table 1

/// One row of Table 1: data sizes per level for a run size.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Run label (e.g. "1024³").
    pub label: String,
    /// Level 1 bytes (raw particles).
    pub level1: u64,
    /// Level 2 bytes (halo particles above the split).
    pub level2: u64,
    /// Level 3 bytes (halo centers).
    pub level3: u64,
}

/// Generate Table 1 from the calibrated mass function.
pub fn table1() -> Vec<Table1Row> {
    let mf = MassFunction::q_continuum();
    let frame = TitanFrame::default();
    let mut rows = Vec::new();
    for (label, n_particles, n_halos) in [
        ("1024^3", 1u64 << 30, qcontinuum::TOTAL_HALOS / 512),
        ("8192^3", 8192u64.pow(3), qcontinuum::TOTAL_HALOS),
    ] {
        // Level 2 particles: expected mass in halos above the threshold.
        // E[Σ m · 1(m>T)] = n_halos · ∫ m dP; reuse the center integral with
        // c=1 over m¹ by sampling the tabulated distribution.
        let threshold = qcontinuum::SPLIT_THRESHOLD as f64;
        let l2_particles = expected_particles_above(&mf, n_halos, threshold);
        let _ = &frame;
        rows.push(Table1Row {
            label: label.to_string(),
            level1: cosmotools::level1_bytes(n_particles),
            level2: cosmotools::level2_bytes(l2_particles),
            level3: cosmotools::level3_center_bytes(n_halos),
        });
    }
    rows
}

/// Expected total member particles in halos above `threshold`.
fn expected_particles_above(mf: &MassFunction, n_halos: u64, threshold: f64) -> u64 {
    let steps = 2048;
    let lmin = threshold.max(1.0).ln();
    let lmax = (qcontinuum::LARGEST_HALO as f64 * 4.0).ln();
    let mut acc = 0.0;
    let mut prev = mf.fraction_above(lmin.exp());
    for i in 1..=steps {
        let m1 = (lmin + (lmax - lmin) * i as f64 / steps as f64).exp();
        let f1 = mf.fraction_above(m1);
        let dp = (prev - f1).max(0.0);
        let mid = (lmin + (lmax - lmin) * (i as f64 - 0.5) / steps as f64).exp();
        acc += dp * mid;
        prev = f1;
    }
    (acc * n_halos as f64) as u64
}

/// Render Table 1.
pub fn format_table1(rows: &[Table1Row]) -> String {
    use std::fmt::Write;
    let mut out = String::from(
        "Table 1: data sizes per level (last step)\n\
         run        Level 1 (raw)   Level 2 (halo particles)   Level 3 (centers)\n",
    );
    let human = |b: u64| -> String {
        let b = b as f64;
        if b >= 1e12 {
            format!("{:.1} TB", b / 1e12)
        } else if b >= 1e9 {
            format!("{:.1} GB", b / 1e9)
        } else {
            format!("{:.1} MB", b / 1e6)
        }
    };
    for r in rows {
        writeln!(
            out,
            "{:<10} {:>13} {:>26} {:>19}",
            r.label,
            human(r.level1),
            human(r.level2),
            human(r.level3)
        )
        .unwrap();
    }
    out
}

// ---------------------------------------------------------------- Table 2

/// One row of Table 2: per-slice find/center extremes across nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Output slice number.
    pub slice: usize,
    /// Redshift.
    pub redshift: f64,
    /// Slowest node's FOF time (s).
    pub find_max: f64,
    /// Fastest node's FOF time (s).
    pub find_min: f64,
    /// Slowest node's center time (s).
    pub center_max: f64,
    /// Fastest node's center time (s).
    pub center_min: f64,
}

/// Paper's Table 2 values for comparison: (slice, z, find_max, find_min,
/// center_max, center_min).
const TABLE2_PAPER: [(usize, f64, f64, f64, f64, f64); 4] = [
    (60, 1.680, 433.0, 352.0, 449.0, 19.0),
    (64, 1.433, 483.0, 385.0, 668.0, 19.0),
    (73, 0.959, 663.0, 532.0, 1819.0, 19.0),
    (100, 0.0, 2143.0, 1859.0, 21250.0, 2.4),
];

/// Project Table 2 through the evolution model (see EXPERIMENTS.md):
/// the largest halo grows ∝ D(a)² (anchored at 25 M at z = 0), FOF time
/// grows with clustering ∝ D(a)^1.7 (anchored at z = 0), and center extremes
/// come from the O(n²) kernel over the evolving population.
pub fn table2(frame: &TitanFrame) -> Vec<Table2Row> {
    TABLE2_PAPER
        .iter()
        .map(|&(slice, z, _, _, _, _)| {
            let a = 1.0 / (1.0 + z);
            // Largest halo at this epoch.
            let n_max = (qcontinuum::LARGEST_HALO as f64 * a * a) as u64;
            let center_max = frame.center_seconds(n_max);
            // FOF: anchored per-particle cost at z = 0, clustering growth.
            let find_z0 = frame.find_seconds(8192u64.pow(3), qcontinuum::TITAN_NODES as usize)
                * (1859.0 / 342.0 / 5.0); // clustering excess of the 8192³ run
            let find_min = find_z0 * 5.0 * a.powf(1.7);
            let find_max = find_min * 1.2;
            // Fastest node's center work: the small-halo load of an
            // underdense node; clustering concentrates halos, widening the
            // node-to-node spread as a → 1.
            let mf = evolved_mass_function(a);
            let n_halos = (qcontinuum::TOTAL_HALOS as f64 * a.powf(0.5)) as u64;
            let small_mean = expected_center_seconds(
                frame,
                &mf,
                n_halos,
                mf.m_min,
                qcontinuum::SPLIT_THRESHOLD as f64,
            ) / qcontinuum::TITAN_NODES as f64;
            let center_min = small_mean * (1.0 - 0.95 * a).max(0.03);
            Table2Row {
                slice,
                redshift: z,
                find_max,
                find_min,
                center_max,
                center_min,
            }
        })
        .collect()
}

/// Mass function at scale factor `a`: the exponential cutoff tracks the
/// largest-halo growth (m_cut ∝ D², matching the Table 2 anchor points).
fn evolved_mass_function(a: f64) -> MassFunction {
    let base = MassFunction::q_continuum();
    MassFunction::new(
        base.alpha,
        base.m_cut * (a * a).max(1e-4),
        base.m_min,
        qcontinuum::LARGEST_HALO as f64 * 40.0,
    )
}

/// Render Table 2 with the paper's values alongside.
pub fn format_table2(rows: &[Table2Row]) -> String {
    use std::fmt::Write;
    let mut out = String::from(
        "Table 2: per-node analysis extremes (seconds) — model vs paper\n\
         slice     z   find_max  (paper)  find_min  (paper)  center_max  (paper)  center_min  (paper)\n",
    );
    for (r, p) in rows.iter().zip(TABLE2_PAPER.iter()) {
        writeln!(
            out,
            "{:>5} {:>5.3} {:>10.0} {:>8.0} {:>9.0} {:>8.0} {:>11.0} {:>8.0} {:>11.1} {:>8.1}",
            r.slice,
            r.redshift,
            r.find_max,
            p.2,
            r.find_min,
            p.3,
            r.center_max,
            p.4,
            r.center_min,
            p.5
        )
        .unwrap();
    }
    out
}

// ---------------------------------------------------------------- Figure 3

/// One mass bin of the Figure 3 histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Bin {
    /// Bin lower edge (particles).
    pub m_lo: f64,
    /// Bin upper edge (particles).
    pub m_hi: f64,
    /// Expected halo count in the bin (full population).
    pub count: f64,
    /// True when the bin is above the off-load threshold (blue in the paper).
    pub offloaded: bool,
}

/// Figure 3: halo counts vs mass with the 300,000-particle split.
pub fn fig3(nbins: usize) -> Vec<Fig3Bin> {
    let mf = MassFunction::q_continuum();
    let n_total = qcontinuum::TOTAL_HALOS;
    let m_min = mf.m_min;
    let m_max = qcontinuum::LARGEST_HALO as f64 * 2.0;
    let (lmin, lmax) = (m_min.ln(), m_max.ln());
    (0..nbins)
        .map(|b| {
            let m_lo = (lmin + (lmax - lmin) * b as f64 / nbins as f64).exp();
            let m_hi = (lmin + (lmax - lmin) * (b + 1) as f64 / nbins as f64).exp();
            let count =
                (mf.fraction_above(m_lo) - mf.fraction_above(m_hi)).max(0.0) * n_total as f64;
            Fig3Bin {
                m_lo,
                m_hi,
                count,
                offloaded: m_lo >= qcontinuum::SPLIT_THRESHOLD as f64,
            }
        })
        .collect()
}

/// Render Figure 3 as an ASCII log-log histogram.
pub fn format_fig3(bins: &[Fig3Bin]) -> String {
    use std::fmt::Write;
    let mut out =
        String::from("Figure 3: halo counts vs mass (log-log); '#' in-situ, 'O' off-loaded\n");
    let max_log = bins
        .iter()
        .map(|b| b.count.max(1.0).log10())
        .fold(0.0, f64::max);
    for b in bins {
        if b.count < 0.5 {
            continue;
        }
        let bar_len = (b.count.max(1.0).log10() / max_log * 60.0) as usize;
        let ch = if b.offloaded { 'O' } else { '#' };
        writeln!(
            out,
            "{:>12.0} {:>14.0} |{}",
            b.m_lo,
            b.count,
            ch.to_string().repeat(bar_len.max(1))
        )
        .unwrap();
    }
    let total: f64 = bins.iter().map(|b| b.count).sum();
    let offloaded: f64 = bins.iter().filter(|b| b.offloaded).map(|b| b.count).sum();
    writeln!(
        out,
        "total halos {:.0} (paper 167,686,789); off-loaded {:.0} (paper 84,719); in-situ share {:.3}%",
        total,
        offloaded,
        (1.0 - offloaded / total) * 100.0
    )
    .unwrap();
    out
}

// ---------------------------------------------------------------- Figure 4

/// Figure 4: histogram of projected per-node center-finding times for the
/// off-loaded halos on 16,384 Titan nodes (1000-second bins, log counts).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4 {
    /// Count of nodes per 1000 s bin (bin i covers `[1000·i, 1000·(i+1))`).
    pub node_counts: Vec<u64>,
    /// Number of off-loaded halos realized.
    pub n_offloaded: usize,
    /// Longest single-node projected time (s).
    pub max_node_seconds: f64,
}

/// Realize the off-loaded population and distribute it over the nodes.
pub fn fig4(frame: &TitanFrame, seed: u64) -> Fig4 {
    let mf = MassFunction::q_continuum();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n_off = qcontinuum::OFFLOADED_HALOS as usize;
    let tail = mf.sample_many_above(&mut rng, n_off, qcontinuum::SPLIT_THRESHOLD as f64);
    let nodes = qcontinuum::TITAN_NODES as usize;
    let per_node = frame.per_node_center_seconds(&tail, nodes, |_| true);
    let max_node_seconds = per_node.iter().cloned().fold(0.0, f64::max);
    let nbins = (max_node_seconds / 1000.0) as usize + 1;
    let mut node_counts = vec![0u64; nbins];
    for s in &per_node {
        node_counts[(s / 1000.0) as usize] += 1;
    }
    Fig4 {
        node_counts,
        n_offloaded: n_off,
        max_node_seconds,
    }
}

/// Render Figure 4 as an ASCII histogram with log-scaled bars.
pub fn format_fig4(f: &Fig4) -> String {
    use std::fmt::Write;
    let mut out = format!(
        "Figure 4: projected per-node center times for {} off-loaded halos on 16,384 nodes\n\
         bin (s)          nodes  (log bar)\n",
        f.n_offloaded
    );
    for (i, &c) in f.node_counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let bar = "#".repeat(((c as f64).log10() * 12.0) as usize + 1);
        writeln!(
            out,
            "{:>6}-{:<6} {:>8}  {}",
            i * 1000,
            (i + 1) * 1000,
            c,
            bar
        )
        .unwrap();
    }
    writeln!(
        out,
        "longest node: {:.0} s (paper's slowest block: 10.6 h on Moonlight ≈ {:.0} s Titan)",
        f.max_node_seconds,
        10.6 * 3600.0 * 0.55
    )
    .unwrap();
    out
}

// ------------------------------------------------------- Tables 3 & 4, §4.1

/// Tables 3/4: the projected workflow costs for the small run — all five
/// Table 3 rows (in-situ, off-line, combined simple/co-scheduled/in-transit).
pub fn table3_4(frame: &TitanFrame, seed: u64) -> Vec<crate::cost::WorkflowCost> {
    let spec = RunSpec::small_run(seed);
    frame.workflow_costs_all(&spec)
}

/// Render Table 3's summary line per workflow.
pub fn format_table3(costs: &[crate::cost::WorkflowCost]) -> String {
    use std::fmt::Write;
    let mut out = String::from(
        "Table 3: workflow comparison (analysis core-hours; paper: in-situ 193, off-line 356, combined 135)\n",
    );
    for wc in costs {
        writeln!(
            out,
            "{:<40} {:>10.1} core-hours",
            wc.strategy,
            wc.analysis_core_hours()
        )
        .unwrap();
    }
    out
}

/// §4.1 Q Continuum headline numbers.
pub fn qcontinuum_report(frame: &TitanFrame) -> String {
    let q = qcontinuum_projection(frame);
    format!(
        "Q Continuum analysis projection (paper §4.1)\n\
         halo identification:            {:.1} h on 16,384 nodes (paper ~1 h)\n\
         in-situ small-halo centers:     {:.0} s/node (paper: 'just over one minute')\n\
         largest-halo center time:       {:.1} h (paper: 5.9 h Titan-equivalent)\n\
         full in-situ analysis:          {:.2}M core-hours (paper 3.4M)\n\
         combined in-situ + off-load:    {:.2}M core-hours (paper 0.52M)\n\
         cost factor:                    {:.1}x (paper 6.5x)\n\
         off-loaded work on Moonlight:   {:.0} node-hours (paper 1770, incl. per-job overheads)\n",
        q.find_hours,
        q.small_center_seconds,
        q.largest_halo_hours,
        q.full_in_situ_core_hours / 1e6,
        q.combined_core_hours / 1e6,
        q.cost_factor,
        q.moonlight_node_hours
    )
}

// ------------------------------------------------- §4.1 Moonlight campaign

/// The off-load campaign as the paper actually ran it: Level 2 data
/// aggregated into 128 files, each analyzed by an independent single-node
/// Moonlight job.
#[derive(Debug, Clone, PartialEq)]
pub struct MoonlightCampaign {
    /// Number of file-level jobs (paper: 128).
    pub n_jobs: usize,
    /// Longest job in hours (paper: 37.8).
    pub longest_hours: f64,
    /// Shortest job in hours (paper: 6.0).
    pub shortest_hours: f64,
    /// Longest single halo ("block") in hours (paper: 10.6).
    pub longest_block_hours: f64,
    /// Total Moonlight node-hours (paper: ~1770).
    pub node_hours: f64,
}

/// Simulate the Moonlight campaign: sample the off-loaded population, spread
/// halos over 16,384 producing nodes, aggregate 128 nodes per file, and run
/// one single-node job per file through the batch simulator.
///
/// `per_job_overhead_hours` models the file-level fixed costs the paper's
/// jobs carried (staging a ~30 GB file to one node, unpacking, small-halo
/// passes): the shortest observed job was 6.0 h even for light files.
pub fn moonlight_campaign(
    frame: &TitanFrame,
    seed: u64,
    per_job_overhead_hours: f64,
) -> MoonlightCampaign {
    let mf = MassFunction::q_continuum();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let tail = mf.sample_many_above(
        &mut rng,
        qcontinuum::OFFLOADED_HALOS as usize,
        qcontinuum::SPLIT_THRESHOLD as f64,
    );
    // Producing node of each halo, then 128 nodes aggregate per file:
    // node / 128 = file index. Nodes hold spatial sub-volumes, and massive
    // halos trace large-scale structure, so the per-node off-loaded halo
    // density is far from uniform — model it as a lognormal field (the
    // standard approximation for cosmic density fluctuations). This is what
    // spreads the 128 jobs from near-pure-overhead (the paper's 6.0 h
    // shortest) to the 37.8 h longest; a uniform hash would give every file
    // an almost identical load.
    let n_files = 128usize;
    let nodes = qcontinuum::TITAN_NODES as usize;
    let sigma = 1.7; // per-node lognormal width; file-level spread ~ paper's
    let mut node_cdf = Vec::with_capacity(nodes);
    let mut acc = 0.0f64;
    for _ in 0..nodes {
        // Box-Muller standard normal.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        acc += (sigma * z).exp();
        node_cdf.push(acc);
    }
    let mut per_file_seconds = vec![per_job_overhead_hours * 3600.0; n_files];
    let mut longest_block: f64 = 0.0;
    let moonlight_slowdown = 1.0 / frame.moonlight.node_speed;
    for &n in tail.iter() {
        let u: f64 = rng.gen_range(0.0..acc);
        let node = node_cdf.partition_point(|&c| c < u).min(nodes - 1);
        let file = node / (nodes / n_files);
        let t = frame.center_seconds(n) * moonlight_slowdown;
        per_file_seconds[file] += t;
        longest_block = longest_block.max(t);
    }
    // One single-node job per file through the analysis cluster's queue.
    let mut sim =
        simhpc::BatchSimulator::new(frame.moonlight.clone(), simhpc::QueuePolicy::ideal());
    for (i, &secs) in per_file_seconds.iter().enumerate() {
        sim.submit(simhpc::JobRequest::new(format!("file{i:04}"), 1, secs, 0.0));
    }
    let recs = sim.run_to_completion();
    let node_hours: f64 = recs.iter().map(|r| r.runtime() / 3600.0).sum();
    MoonlightCampaign {
        n_jobs: n_files,
        longest_hours: per_file_seconds.iter().cloned().fold(0.0, f64::max) / 3600.0,
        shortest_hours: per_file_seconds
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
            / 3600.0,
        longest_block_hours: longest_block / 3600.0,
        node_hours,
    }
}

// ------------------------------------------------------- §4.2 subhalos

/// Projected in-situ subhalo imbalance (paper §4.2: 8172 s slowest vs 1457 s
/// fastest on 32 nodes, >5×). Subhalo cost is modeled ∝ n^1.5 (tree-based,
/// CPU-only), calibrated so the slowest node lands near the paper's value.
pub fn subhalo_imbalance(seed: u64) -> (f64, f64) {
    let spec = RunSpec::small_run(seed);
    // CPU algorithm cost model: c·n^1.5 for parents above 5000 particles,
    // calibrated so the paper's largest halo (2,548,321 particles) costs
    // ~8172 s: c = 8172 / 2.55e6^1.5 ≈ 2.0e-6.
    let c_sub = 2.0e-6;
    let mut per_node = vec![0.0f64; spec.sim_nodes];
    for (i, &n) in spec.halo_sizes.iter().enumerate() {
        if n < 5000 {
            continue;
        }
        let h = (i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(27)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        per_node[(h % spec.sim_nodes as u64) as usize] += c_sub * (n as f64).powf(1.5);
    }
    let max = per_node.iter().cloned().fold(0.0, f64::max);
    let min = per_node.iter().cloned().fold(f64::INFINITY, f64::min);
    (max, min)
}

// ---------------------------------------------------------- robustness

/// Fault/robustness accounting surfaced by the full report: a chaos run of
/// the batch scheduler (the paper's file-level job campaign under transient
/// node failures) plus a faulted co-scheduled workflow on the real testbed.
#[derive(Debug, Clone)]
pub struct RobustnessSummary {
    /// Jobs pushed through the faulted batch queue.
    pub jobs_submitted: usize,
    /// Jobs that eventually completed, retries included.
    pub jobs_completed: usize,
    /// Jobs dropped after exhausting every allowed attempt.
    pub jobs_exhausted: usize,
    /// Attempts consumed across all jobs (equals `jobs_submitted` on a
    /// fault-free run).
    pub total_attempts: u64,
    /// Node-seconds of held-but-unproductive machine time burnt by failed
    /// attempts, summed over every [`simhpc::JobOutcome`].
    pub wasted_node_seconds: f64,
    /// Co-scheduled analysis steps that fell back to re-shipping the last
    /// good Level-2 output.
    pub degraded_steps: usize,
    /// Transient in-situ failures absorbed by the retry policy.
    pub insitu_retries: u64,
}

/// Run both robustness experiments; deterministic in `seed`.
///
/// The batch half replays the Moonlight campaign's job shape against a
/// 30 %-transient-failure queue; the workflow half re-runs the co-scheduled
/// strategy on a tiny testbed with an in-situ fault plan aggressive enough
/// to exhaust one step's retries (graceful degradation) and be absorbed on
/// the next.
pub fn robustness_report(frame: &TitanFrame, seed: u64) -> RobustnessSummary {
    // (a) File-level jobs through a faulted batch queue.
    let mut sim =
        simhpc::BatchSimulator::new(frame.moonlight.clone(), simhpc::QueuePolicy::ideal());
    sim.inject_faults(
        faults::FaultPlan::new(seed)
            .with_site(faults::SiteSpec::transient(
                simhpc::SCHEDULER_FAULT_SITE,
                0.3,
            ))
            .build(),
        faults::BackoffPolicy::default(),
    );
    let n_jobs = 40usize;
    for i in 0..n_jobs {
        let secs = 3600.0 * (1.0 + (i % 7) as f64);
        sim.submit(simhpc::JobRequest::new(
            format!("file{i:02}"),
            1,
            secs,
            i as f64 * 60.0,
        ));
    }
    let _ = sim.run_to_completion();
    let outcomes = sim.job_outcomes();
    let jobs_completed = outcomes
        .iter()
        .filter(|o| o.state == simhpc::JobState::Completed)
        .count();
    let jobs_exhausted = outcomes
        .iter()
        .filter(|o| o.state == simhpc::JobState::Exhausted)
        .count();
    let total_attempts: u64 = outcomes.iter().map(|o| u64::from(o.attempts)).sum();
    let wasted_node_seconds: f64 = outcomes.iter().map(|o| o.wasted_seconds).sum();

    // (b) The co-scheduled workflow under in-situ faults: seven consecutive
    // transients exhaust the first analysis step's five attempts (one
    // degraded step) and are absorbed by retries on the next.
    let mut cfg = crate::runner::RunnerConfig {
        sim: nbody::SimConfig {
            np: 16,
            ng: 16,
            nsteps: 30,
            seed: 4242,
            ..nbody::SimConfig::default()
        },
        nranks: 4,
        post_ranks: 2,
        linking_length: 0.28,
        threshold: 60,
        min_size: 12,
        workdir: std::env::temp_dir()
            .join(format!("hacc_robustness_{seed}_{}", std::process::id())),
        ..Default::default()
    };
    cfg.injector = Some(
        faults::FaultPlan::new(seed)
            .with_site(
                faults::SiteSpec::transient(crate::runner::RUNNER_FAULT_SITE, 1.0)
                    .with_max_faults(7),
            )
            .build(),
    );
    let backend = dpp::Threaded::new(2);
    let bed = crate::runner::TestBed::create(cfg, &backend);
    let run = bed.run_combined_coscheduled(&backend, 4);

    RobustnessSummary {
        jobs_submitted: n_jobs,
        jobs_completed,
        jobs_exhausted,
        total_attempts,
        wasted_node_seconds,
        degraded_steps: run.degraded_steps,
        insitu_retries: run.insitu_retries,
    }
}

/// Text rendering of the robustness summary.
pub fn format_robustness(r: &RobustnessSummary) -> String {
    let mut s = String::new();
    s.push_str("batch queue under 30% transient job faults:\n");
    s.push_str(&format!(
        "  jobs submitted        {:>8}\n",
        r.jobs_submitted
    ));
    s.push_str(&format!(
        "  jobs completed        {:>8}\n",
        r.jobs_completed
    ));
    s.push_str(&format!(
        "  jobs exhausted        {:>8}\n",
        r.jobs_exhausted
    ));
    s.push_str(&format!(
        "  attempts consumed     {:>8}\n",
        r.total_attempts
    ));
    s.push_str(&format!(
        "  wasted node-seconds   {:>8.0}\n",
        r.wasted_node_seconds
    ));
    s.push_str("co-scheduled workflow under in-situ faults:\n");
    s.push_str(&format!(
        "  degraded steps        {:>8}\n",
        r.degraded_steps
    ));
    s.push_str(&format!(
        "  in-situ retries       {:>8}\n",
        r.insitu_retries
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_orders() {
        let rows = table1();
        assert_eq!(rows.len(), 2);
        // 1024³: ~40 GB Level 1, a few GB Level 2, tens of MB Level 3.
        let small = &rows[0];
        assert!(
            (35e9..45e9).contains(&(small.level1 as f64)),
            "{}",
            small.level1
        );
        assert!(
            (0.5e9..15e9).contains(&(small.level2 as f64)),
            "{}",
            small.level2
        );
        assert!(
            (5e6..50e6).contains(&(small.level3 as f64)),
            "{}",
            small.level3
        );
        // 8192³: ~20 TB Level 1, ~4 TB Level 2, ~10 GB Level 3.
        let big = &rows[1];
        assert!((18e12..22e12).contains(&(big.level1 as f64)));
        assert!(
            (0.5e12..8e12).contains(&(big.level2 as f64)),
            "{}",
            big.level2
        );
        assert!((4e9..16e9).contains(&(big.level3 as f64)));
        let s = format_table1(&rows);
        assert!(s.contains("1024^3") && s.contains("8192^3"));
    }

    #[test]
    fn table2_reproduces_the_imbalance_pattern() {
        let frame = TitanFrame::default();
        let rows = table2(&frame);
        assert_eq!(rows.len(), 4);
        for (r, p) in rows.iter().zip(TABLE2_PAPER.iter()) {
            // Find stays balanced (≤30%), center is wildly imbalanced.
            assert!(r.find_max / r.find_min < 1.3);
            assert!(
                r.center_max / r.center_min.max(0.1) > 5.0,
                "slice {}: center must be imbalanced",
                r.slice
            );
            // Model within a factor ~2.5 of the paper's center_max.
            let ratio = r.center_max / p.4;
            assert!(
                (0.4..2.5).contains(&ratio),
                "slice {}: center_max {} vs paper {}",
                r.slice,
                r.center_max,
                p.4
            );
            // Find within a factor 2 of the paper.
            let fr = r.find_min / p.3;
            assert!(
                (0.5..2.0).contains(&fr),
                "slice {}: find {} vs {}",
                r.slice,
                r.find_min,
                p.3
            );
        }
        // Imbalance grows toward z = 0.
        let early = rows[0].center_max / rows[0].center_min.max(0.1);
        let late = rows[3].center_max / rows[3].center_min.max(0.1);
        assert!(late > early, "imbalance must grow with structure formation");
        let s = format_table2(&rows);
        assert!(s.contains("slice"));
    }

    #[test]
    fn fig3_split_matches_paper_census() {
        let bins = fig3(40);
        let total: f64 = bins.iter().map(|b| b.count).sum();
        let off: f64 = bins.iter().filter(|b| b.offloaded).map(|b| b.count).sum();
        assert!(
            (total / qcontinuum::TOTAL_HALOS as f64 - 1.0).abs() < 0.02,
            "total {total}"
        );
        assert!(
            (0.3..3.0).contains(&(off / qcontinuum::OFFLOADED_HALOS as f64)),
            "off-loaded {off} (paper 84,719)"
        );
        // Counts decrease with mass (steep mass function).
        let first_nonzero = bins.iter().find(|b| b.count > 0.0).unwrap();
        let last_nonzero = bins.iter().rev().find(|b| b.count > 0.5).unwrap();
        assert!(first_nonzero.count / last_nonzero.count > 1e4);
        let s = format_fig3(&bins);
        assert!(s.contains("off-loaded"));
    }

    #[test]
    fn fig4_histogram_shape() {
        let frame = TitanFrame::default();
        let f = fig4(&frame, 3);
        assert_eq!(f.n_offloaded, 84_719);
        // Most nodes are in the low bins; a long tail exists.
        assert!(f.node_counts[0] + f.node_counts.get(1).copied().unwrap_or(0) > 10_000);
        assert!(
            f.max_node_seconds > 10_000.0,
            "the slowest node must be hours-scale: {}",
            f.max_node_seconds
        );
        // Total nodes accounted (only nodes holding work appear in per_node
        // histogram — all 16,384 appear since vec covers all).
        let total: u64 = f.node_counts.iter().sum();
        assert_eq!(total, 16_384);
        let s = format_fig4(&f);
        assert!(s.contains("16,384"));
    }

    #[test]
    fn robustness_summary_accounts_for_faults() {
        let frame = TitanFrame::default();
        let r = robustness_report(&frame, 7);
        // Every job terminates one way or the other.
        assert_eq!(r.jobs_completed + r.jobs_exhausted, r.jobs_submitted);
        // A 30% transient rate forces retries, which burn node time.
        assert!(r.total_attempts > r.jobs_submitted as u64);
        assert!(r.wasted_node_seconds > 0.0);
        // The in-situ fault plan exhausts exactly one step's retries.
        assert_eq!(r.degraded_steps, 1);
        assert_eq!(r.insitu_retries, 7);
        // Deterministic in the seed.
        let again = robustness_report(&frame, 7);
        assert_eq!(again.total_attempts, r.total_attempts);
        assert_eq!(again.wasted_node_seconds, r.wasted_node_seconds);
    }

    #[test]
    fn moonlight_campaign_matches_paper_shape() {
        let frame = TitanFrame::default();
        // Shortest observed job (6.0 h) was essentially pure per-file
        // overhead; use it as the overhead anchor.
        let c = moonlight_campaign(&frame, 20150715, 6.0);
        assert_eq!(c.n_jobs, 128);
        // Longest block: the ~25M halo took 10.6 h on Moonlight.
        assert!(
            (6.0..16.0).contains(&c.longest_block_hours),
            "longest block {:.1} h (paper 10.6)",
            c.longest_block_hours
        );
        // Longest job 37.8 h in the paper; shortest 6.0 h.
        assert!(
            c.longest_hours > 2.0 * c.shortest_hours,
            "jobs must be strongly imbalanced: {:.1} vs {:.1}",
            c.longest_hours,
            c.shortest_hours
        );
        assert!(c.shortest_hours >= 6.0);
        // Node-hours within ~2.5x of the paper's 1770 (our kernel-only tail
        // integral overshoots the paper's census slightly; EXPERIMENTS.md).
        assert!(
            (700.0..4500.0).contains(&c.node_hours),
            "{} node-hours (paper 1770)",
            c.node_hours
        );
    }

    #[test]
    fn subhalo_imbalance_exceeds_factor_three() {
        let (max, min) = subhalo_imbalance(11);
        assert!(max / min > 3.0, "paper reports >5x: got {max}/{min}");
        // Order of magnitude near the paper's 8172 s / 1457 s slowest node.
        assert!((1500.0..50_000.0).contains(&max), "{max}");
    }

    #[test]
    fn reports_render() {
        let frame = TitanFrame::default();
        let s = qcontinuum_report(&frame);
        assert!(s.contains("cost factor"));
        let costs = table3_4(&frame, 5);
        let s3 = format_table3(&costs);
        assert!(s3.contains("in-situ"));
        assert!(s3.contains("combined"));
    }
}
