//! Titan-frame projection model.
//!
//! Converts workload descriptors (particle counts, halo populations, data
//! volumes) into projected wall seconds and core-hours on the paper's
//! platforms, using the `simhpc` machine models plus two calibrated compute
//! constants:
//!
//! * `CENTER_COEFF` — seconds per particle² for the O(n²) MBP kernel on a
//!   Titan GPU node (anchored to the 25 M-particle halo: 10.6 h on
//!   Moonlight ≈ 5.8 h Titan-equivalent, paper §4.1);
//! * `FIND_SECONDS_PER_PARTICLE` — FOF identification seconds per local
//!   particle (anchored to the 1024³ run: ~361 s of in-situ analysis at
//!   33.5 M particles/node, of which the small-halo centers are ~20 s).
//!
//! Everything else (I/O, redistribution, charging, queueing) comes from the
//! `simhpc` facility models.

use crate::cost::{JobCost, PhaseSeconds, WorkflowCost};
use halo::massfn::{qcontinuum, MassFunction};
use halo::mbp::COEFF_TITAN_GPU;
use rand::SeedableRng;
use simhpc::{machine, MachineSpec};

/// FOF identification cost per local particle on Titan (seconds).
const FIND_SECONDS_PER_PARTICLE: f64 = 1.02e-5;

/// The projection model.
#[derive(Debug, Clone)]
pub struct TitanFrame {
    /// Main HPC system (Titan).
    pub titan: MachineSpec,
    /// The off-load analysis cluster (Moonlight).
    pub moonlight: MachineSpec,
    /// MBP center coefficient (s/particle²) on the Titan GPU path.
    pub center_coeff: f64,
    /// FOF cost (s/particle) on Titan.
    pub find_coeff: f64,
}

impl Default for TitanFrame {
    fn default() -> Self {
        TitanFrame {
            titan: machine::titan(),
            moonlight: machine::moonlight(),
            center_coeff: COEFF_TITAN_GPU,
            find_coeff: FIND_SECONDS_PER_PARTICLE,
        }
    }
}

/// A run to be projected (the paper's 1024³-on-32-nodes test by default).
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Total simulated particles.
    pub n_particles: u64,
    /// Nodes holding the simulation (and the in-situ analysis).
    pub sim_nodes: usize,
    /// Nodes of the post-processing job in the combined workflow.
    pub post_nodes: usize,
    /// Halo population (particle counts per halo).
    pub halo_sizes: Vec<u64>,
    /// The in-situ / off-line split threshold (particles).
    pub threshold: u64,
    /// Simulation wall seconds (common to all strategies; Table 4 anchor).
    pub sim_seconds: f64,
}

impl RunSpec {
    /// The paper's downscaled 1024³ test: population sampled from the
    /// Q Continuum mass function at 1/512 the volume, truncated at the run's
    /// actual largest halo (2,548,321 particles — a (162.5 Mpc)³ box cannot
    /// form the rarest extreme objects of the full 1300 Mpc volume; §4.2).
    pub fn small_run(seed: u64) -> RunSpec {
        let mf = MassFunction::q_continuum();
        let n_halos = (qcontinuum::TOTAL_HALOS / 512) as usize;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        const LARGEST_SMALL_RUN: u64 = 2_548_321;
        let halo_sizes = mf
            .sample_many(&mut rng, n_halos)
            .into_iter()
            .map(|m| m.min(LARGEST_SMALL_RUN))
            .collect();
        RunSpec {
            n_particles: 1u64 << 30, // 1024³
            sim_nodes: 32,
            post_nodes: 4,
            halo_sizes,
            threshold: qcontinuum::SPLIT_THRESHOLD,
            sim_seconds: 774.0,
        }
    }
}

/// Workload descriptor for the streaming in-situ visualization products:
/// one `ng × ng` density-projection frame per simulation step, shipped off
/// the simulation resource over the interconnect. The workload is
/// bandwidth-bound — the projection rides on a deposit mesh the simulation
/// maintains anyway, so its cost is the frame stream, priced per frame as a
/// point-to-point fetch on [`simhpc::InterconnectSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenderProfile {
    /// Image mesh: frames are `ng × ng` 8-bit pixels.
    pub ng: usize,
    /// Frames emitted over the campaign (one per simulation step).
    pub frames: u64,
}

impl RenderProfile {
    /// The runner's cadence: every step of an `nsteps` campaign renders one
    /// frame at the given image mesh.
    pub fn every_step(ng: usize, nsteps: u64) -> RenderProfile {
        RenderProfile { ng, frames: nsteps }
    }

    /// Encoded size of one frame: the HCIM container header plus the PGM
    /// payload (text header + `ng²` 8-bit pixels).
    fn bytes_per_frame(&self) -> u64 {
        let pgm_header = format!("P5\n{0} {0}\n255\n", self.ng).len() as u64;
        cosmotools::IMAGE_HEADER_BYTES + pgm_header + (self.ng * self.ng) as u64
    }

    /// Total bytes streamed over the campaign.
    pub fn total_bytes(&self) -> u64 {
        self.frames * self.bytes_per_frame()
    }

    /// Wall seconds to stream the frame sequence across `net`: each frame
    /// travels as one point-to-point fetch (latency + bytes / per-node
    /// bandwidth), exactly how the sharded store charges replica pulls.
    pub fn stream_seconds(&self, net: &simhpc::InterconnectSpec) -> f64 {
        self.frames as f64 * net.fetch_time(self.bytes_per_frame() as f64)
    }
}

impl TitanFrame {
    /// FOF identification seconds for `n` particles over `nodes` (balanced —
    /// the paper's Table 2 shows ≤25% find imbalance, negligible next to the
    /// center imbalance).
    pub fn find_seconds(&self, n_particles: u64, nodes: usize) -> f64 {
        self.find_coeff * n_particles as f64 / nodes as f64
    }

    /// Center-finding seconds for one halo of `n` particles on a Titan GPU
    /// node.
    pub fn center_seconds(&self, n: u64) -> f64 {
        self.center_coeff * (n as f64) * (n as f64)
    }

    /// Distribute halos over `nodes` deterministically (hashed) and return
    /// per-node total center seconds, restricted to halos passing `keep`.
    pub fn per_node_center_seconds<F: Fn(u64) -> bool>(
        &self,
        halo_sizes: &[u64],
        nodes: usize,
        keep: F,
    ) -> Vec<f64> {
        let mut per_node = vec![0.0f64; nodes];
        for (i, &n) in halo_sizes.iter().enumerate() {
            if keep(n) {
                per_node[node_of(i, nodes)] += self.center_seconds(n);
            }
        }
        per_node
    }

    /// The slowest node's center seconds over all halos and over the halos
    /// at or below `spec.threshold`: both per-node sums in one pass, each
    /// node's in halo order as [`TitanFrame::per_node_center_seconds`] sums.
    fn center_max_all_and_small(&self, spec: &RunSpec) -> (f64, f64) {
        let mut all = vec![0.0f64; spec.sim_nodes];
        let mut small = vec![0.0f64; spec.sim_nodes];
        for (i, &n) in spec.halo_sizes.iter().enumerate() {
            let node = node_of(i, spec.sim_nodes);
            let seconds = self.center_seconds(n);
            all[node] += seconds;
            if n <= spec.threshold {
                small[node] += seconds;
            }
        }
        let max = |v: Vec<f64>| v.into_iter().fold(0.0, f64::max);
        (max(all), max(small))
    }

    /// Level 2 particle count (members of halos above the threshold).
    fn level2_particles(&self, spec: &RunSpec) -> u64 {
        spec.halo_sizes
            .iter()
            .filter(|&&n| n > spec.threshold)
            .sum()
    }

    /// Project the three Table 3/4 workflows. Returns
    /// `[in-situ, off-line, combined-simple]`.
    fn workflow_costs(&self, spec: &RunSpec) -> [WorkflowCost; 3] {
        let t = &self.titan;
        let l1_bytes = cosmotools::level1_bytes(spec.n_particles) as f64;
        let l2_bytes = cosmotools::level2_bytes(self.level2_particles(spec)) as f64;
        let l3_bytes = cosmotools::level3_center_bytes(spec.halo_sizes.len() as u64) as f64;
        let find = self.find_seconds(spec.n_particles, spec.sim_nodes);
        let (center_all_max, center_small_max) = self.center_max_all_and_small(spec);

        // --- In-situ only ---
        let in_situ = WorkflowCost {
            strategy: "in-situ".into(),
            simulation: JobCost::new(
                "simulation",
                t,
                spec.sim_nodes,
                PhaseSeconds {
                    queuing: 0.0,
                    sim: spec.sim_seconds,
                    read: 0.0,
                    redistribute: 0.0,
                    analysis: find + center_all_max,
                    write: t.fs.io_time(l3_bytes, spec.sim_nodes),
                    fallback: 0.0,
                },
            ),
            post: vec![],
            saved_node_seconds: 0.0,
        };

        // --- Off-line only ---
        let queue_full = simhpc::QueuePolicy::titan().synthetic_wait(spec.sim_nodes, t.total_nodes);
        let off_line = WorkflowCost {
            strategy: "off-line".into(),
            simulation: JobCost::new(
                "simulation",
                t,
                spec.sim_nodes,
                PhaseSeconds {
                    queuing: 0.0,
                    sim: spec.sim_seconds,
                    read: 0.0,
                    redistribute: 0.0,
                    analysis: 0.0,
                    write: t.fs.io_time(l1_bytes, spec.sim_nodes),
                    fallback: 0.0,
                },
            ),
            post: vec![JobCost::new(
                "post-processing",
                t,
                spec.sim_nodes,
                PhaseSeconds {
                    queuing: queue_full,
                    sim: 0.0,
                    read: t.fs.io_time(l1_bytes, spec.sim_nodes),
                    redistribute: t.net.redistribute_time(l1_bytes, spec.sim_nodes),
                    analysis: find + center_all_max,
                    write: t.fs.io_time(l3_bytes, spec.sim_nodes),
                    fallback: 0.0,
                },
            )],
            saved_node_seconds: 0.0,
        };

        // --- Combined in-situ / off-line (simple variation) ---
        let offloaded: Vec<u64> = spec
            .halo_sizes
            .iter()
            .copied()
            .filter(|&n| n > spec.threshold)
            .collect();
        // Off-loaded halos are packed onto the post job's nodes (LPT).
        let post_center_max = if offloaded.is_empty() {
            0.0
        } else {
            let mut rank_secs = vec![0.0f64; spec.post_nodes];
            let mut order: Vec<f64> = offloaded.iter().map(|&n| self.center_seconds(n)).collect();
            order.sort_by(|a, b| b.partial_cmp(a).unwrap());
            for s in order {
                let r = rank_secs
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .map(|(r, _)| r)
                    .unwrap();
                rank_secs[r] += s;
            }
            rank_secs.into_iter().fold(0.0, f64::max)
        };
        let queue_partial =
            simhpc::QueuePolicy::titan().synthetic_wait(spec.post_nodes, t.total_nodes);
        let combined = WorkflowCost {
            strategy: "combined in-situ/off-line (simple)".into(),
            simulation: JobCost::new(
                "simulation",
                t,
                spec.sim_nodes,
                PhaseSeconds {
                    queuing: 0.0,
                    sim: spec.sim_seconds,
                    read: 0.0,
                    redistribute: 0.0,
                    analysis: find + center_small_max,
                    write: t.fs.io_time(l2_bytes + l3_bytes, spec.sim_nodes),
                    fallback: 0.0,
                },
            ),
            post: vec![JobCost::new(
                "post-processing",
                t,
                spec.post_nodes,
                PhaseSeconds {
                    queuing: queue_partial,
                    sim: 0.0,
                    read: t.fs.io_time(l2_bytes, spec.post_nodes),
                    redistribute: t.net.redistribute_time(l2_bytes, spec.post_nodes),
                    analysis: post_center_max,
                    write: t.fs.io_time(l3_bytes, spec.post_nodes),
                    fallback: 0.0,
                },
            )],
            saved_node_seconds: 0.0,
        };

        [in_situ, off_line, combined]
    }

    /// All five Table 3 rows: the three concrete strategies plus the
    /// co-scheduled and in-transit variations of the combined workflow.
    ///
    /// * **co-scheduled** — identical phase costs to the simple variation
    ///   (Table 3: "(same)" core-hours); the difference is queueing: each
    ///   snapshot's analysis job is submitted as its Level 2 file appears and
    ///   runs simultaneously with the simulation, so the post job's queue
    ///   wait shrinks to an analysis-cluster-style prompt start.
    /// * **in-transit** — the hypothetical shared-memory variation: no
    ///   Level 2 file I/O at all, only the Level 2 redistribution onto the
    ///   analysis resource.
    pub fn workflow_costs_all(&self, spec: &RunSpec) -> Vec<WorkflowCost> {
        let [in_situ, off_line, combined] = self.workflow_costs(spec);
        let t = &self.titan;

        let mut co_scheduled = combined.clone();
        co_scheduled.strategy = "combined in-situ/off-line (co-scheduled)".into();
        for post in &mut co_scheduled.post {
            // Submitted automatically as data appears; prompt start on a
            // cluster with capacity (Rhea-style policy).
            post.phases.queuing = simhpc::QueuePolicy::analysis_cluster()
                .synthetic_wait(spec.post_nodes, t.total_nodes);
        }

        let mut in_transit = combined.clone();
        in_transit.strategy = "combined in-situ/in-transit".into();
        // No Level 2 *file* I/O on either side; data crosses through the
        // burst-buffer tier (NVRAM-class) and still needs redistribution on
        // the analysis resource.
        let bb_machine = simhpc::machine::titan_with_burst_buffer();
        let bb = bb_machine.burst_buffer.as_ref().expect("preset has one");
        let l2_bytes = cosmotools::level2_bytes(self.level2_particles(spec)) as f64;
        let l3_bytes = cosmotools::level3_center_bytes(spec.halo_sizes.len() as u64) as f64;
        in_transit.simulation.phases.write = t.fs.io_time(l3_bytes, spec.sim_nodes)
            + bb.stage_time(l2_bytes, spec.sim_nodes).expect("fits NVRAM");
        for post in &mut in_transit.post {
            post.phases.queuing = 0.0;
            post.phases.read = bb
                .stage_time(l2_bytes, spec.post_nodes)
                .expect("fits NVRAM");
        }

        vec![in_situ, off_line, combined, co_scheduled, in_transit]
    }

    /// Mean time-to-result for a multi-snapshot campaign: the average time
    /// (from simulation start) at which each snapshot's analysis completes.
    /// Co-scheduling lets early snapshots finish while the simulation still
    /// runs — "the scientist may have to wait a shorter time for his/her
    /// results" (§4.2) — while the total core-hours stay the same.
    pub fn campaign_mean_result_time(
        &self,
        spec: &RunSpec,
        n_snapshots: usize,
        co_scheduled: bool,
    ) -> f64 {
        let [_, _, combined] = self.workflow_costs(spec);
        let post = &combined.post[0];
        let snap_interval = spec.sim_seconds;
        let sim_total = snap_interval * n_snapshots as f64
            + combined.simulation.phases.analysis * n_snapshots as f64;
        let mut m = self.titan.clone();
        m.total_nodes = m.total_nodes.min(2048);
        let mut policy = simhpc::QueuePolicy::titan();
        policy.base_wait = 0.0;
        policy.max_running_small_jobs = None;
        let mut sim = simhpc::BatchSimulator::new(m, policy);
        sim.submit(simhpc::JobRequest::new(
            "simulation",
            spec.sim_nodes,
            sim_total,
            0.0,
        ));
        let per_snap = sim_total / n_snapshots as f64;
        for i in 0..n_snapshots {
            let ready = if co_scheduled {
                per_snap * (i as f64 + 1.0)
            } else {
                sim_total // everything queued after the run completes
            };
            sim.submit(simhpc::JobRequest::new(
                format!("analysis{i}"),
                spec.post_nodes,
                post.phases.total(),
                ready,
            ));
        }
        let recs = sim.run_to_completion();
        let analysis: Vec<f64> = recs
            .iter()
            .filter(|r| r.name.starts_with("analysis"))
            .map(|r| r.end_time)
            .collect();
        analysis.iter().sum::<f64>() / analysis.len().max(1) as f64
    }
}

/// The node of `nodes` halo `i` is placed on. Spatial placement is
/// effectively random: hash the halo index.
fn node_of(i: usize, nodes: usize) -> usize {
    let h = (i as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(27)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (h % nodes as u64) as usize
}

/// §4.1 Q Continuum projection summary.
#[derive(Debug, Clone, PartialEq)]
pub struct QContinuumSummary {
    /// Find time on 16,384 Titan nodes (hours) — the paper's ~1 h.
    pub find_hours: f64,
    /// In-situ center time for the 99.9% small halos (seconds/node max).
    pub small_center_seconds: f64,
    /// Projected center time of the largest halo (Titan GPU hours) — the
    /// "slowest block" that would gate a full in-situ analysis (~5.9 h).
    pub largest_halo_hours: f64,
    /// Core-hours of the hypothetical full in-situ analysis.
    pub full_in_situ_core_hours: f64,
    /// Core-hours of the combined approach actually taken (~0.52 M).
    pub combined_core_hours: f64,
    /// Cost ratio full-in-situ / combined (~6.5×).
    pub cost_factor: f64,
    /// Off-loaded center work in Moonlight node-hours (paper: 1770,
    /// including per-job overheads we do not model; see EXPERIMENTS.md).
    pub moonlight_node_hours: f64,
}

/// Expected Σ center-seconds over halos in `(lo, hi]` for a population of
/// `n_total` halos under `mf`, via the tabulated distribution.
pub fn expected_center_seconds(
    frame: &TitanFrame,
    mf: &MassFunction,
    n_total: u64,
    lo: f64,
    hi: f64,
) -> f64 {
    // Integrate c·m² over the tabulated mass distribution by sampling the
    // analytic tail differences on a log grid.
    let steps = 2048;
    let lmin = mf.m_min.max(lo.max(1.0)).ln();
    let lmax = hi.ln();
    if lmax <= lmin {
        return 0.0;
    }
    let mut acc = 0.0;
    let mut prev_frac = mf.fraction_above(lmin.exp());
    for i in 1..=steps {
        let m1 = (lmin + (lmax - lmin) * i as f64 / steps as f64).exp();
        let frac1 = mf.fraction_above(m1);
        let dp = (prev_frac - frac1).max(0.0); // probability mass in the bin
        let m_mid = (lmin + (lmax - lmin) * (i as f64 - 0.5) / steps as f64).exp();
        acc += dp * frame.center_seconds(m_mid.round() as u64);
        prev_frac = frac1;
    }
    acc * n_total as f64
}

/// Project the Q Continuum §4.1 numbers from the calibrated mass function.
pub fn qcontinuum_projection(frame: &TitanFrame) -> QContinuumSummary {
    let mf = MassFunction::q_continuum();
    let nodes = qcontinuum::TITAN_NODES as usize;
    let n_total = qcontinuum::TOTAL_HALOS;
    let threshold = qcontinuum::SPLIT_THRESHOLD as f64;
    let largest = qcontinuum::LARGEST_HALO;

    // Find: the paper reports ~1 h on 16,384 nodes for the final step.
    let find_hours = 1.0;
    // Small halos (≤300k): expected total across the machine, per node.
    let small_total = expected_center_seconds(frame, &mf, n_total, mf.m_min, threshold);
    let small_center_seconds = small_total / nodes as f64;
    // The largest halo gates a full in-situ analysis.
    let largest_halo_hours = frame.center_seconds(largest) / 3600.0;
    let charge = frame.titan.charge_factor;
    let full_in_situ_core_hours = (largest_halo_hours + find_hours) * nodes as f64 * charge;

    // Combined: find + small centers on Titan, large halos on Moonlight.
    let titan_part = (find_hours + small_center_seconds / 3600.0) * nodes as f64 * charge;
    let tail_total = expected_center_seconds(frame, &mf, n_total, threshold, largest as f64 * 4.0);
    let moonlight_node_hours = tail_total / frame.moonlight.node_speed / 3600.0;
    // The paper charges the Moonlight work at ~30 core-hours/node-hour
    // Titan-equivalent (985 node-h → "~30,000 core hours").
    let offload_core_hours = (tail_total / 3600.0) * charge;
    let combined_core_hours = titan_part + offload_core_hours;

    QContinuumSummary {
        find_hours,
        small_center_seconds,
        largest_halo_hours,
        full_in_situ_core_hours,
        combined_core_hours,
        cost_factor: full_in_situ_core_hours / combined_core_hours,
        moonlight_node_hours,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_population_matches_paper_scale() {
        let spec = RunSpec::small_run(7);
        // 167,686,789 / 512 halos.
        assert_eq!(spec.halo_sizes.len(), 327_513);
        let largest = *spec.halo_sizes.iter().max().unwrap();
        // Paper: largest halo in the downscaled run = 2,548,321 particles.
        assert!(
            (800_000..8_000_000).contains(&largest),
            "largest sampled halo {largest}"
        );
        // Level 2 fraction: Table 1 suggests ~1/8 of particles for 1024³.
        let frame = TitanFrame::default();
        let l2 = frame.level2_particles(&spec);
        let frac = l2 as f64 / spec.n_particles as f64;
        assert!((0.01..0.35).contains(&frac), "Level 2 fraction {frac}");
    }

    #[test]
    fn find_is_balanced_center_is_not() {
        let frame = TitanFrame::default();
        let spec = RunSpec::small_run(7);
        let per_node = frame.per_node_center_seconds(&spec.halo_sizes, spec.sim_nodes, |_| true);
        let max = per_node.iter().cloned().fold(0.0, f64::max);
        let min = per_node.iter().cloned().fold(f64::INFINITY, f64::min);
        // Paper: factor ~15 imbalance between fastest and slowest node.
        assert!(max / min.max(1e-9) > 4.0, "center imbalance {max}/{min}");
    }

    #[test]
    fn in_situ_analysis_near_722s_anchor() {
        let frame = TitanFrame::default();
        let spec = RunSpec::small_run(7);
        let [in_situ, _, combined] = frame.workflow_costs(&spec);
        let a = in_situ.simulation.phases.analysis;
        assert!(
            (400.0..1100.0).contains(&a),
            "in-situ analysis {a} s (paper: 722 s)"
        );
        let c = combined.simulation.phases.analysis;
        assert!(
            (250.0..550.0).contains(&c),
            "combined in-situ analysis {c} s (paper: 361 s)"
        );
        assert!(c < a, "the split must cut the in-situ time");
    }

    #[test]
    fn table3_cost_ordering_holds() {
        let frame = TitanFrame::default();
        let spec = RunSpec::small_run(7);
        let [in_situ, off_line, combined] = frame.workflow_costs(&spec);
        let ci = in_situ.analysis_core_hours();
        let co = off_line.analysis_core_hours();
        let cc = combined.analysis_core_hours();
        // Paper Table 3: 193 / 356 / 135.
        assert!(
            cc < ci && ci < co,
            "combined {cc} < in-situ {ci} < off-line {co}"
        );
        assert!(co / ci > 1.4, "off-line should cost ≳1.5× in-situ");
        assert!(cc / ci < 0.85, "combined should save ≳15% vs in-situ");
    }

    #[test]
    fn offline_io_matches_table4_order() {
        let frame = TitanFrame::default();
        let spec = RunSpec::small_run(7);
        let [_, off_line, _] = frame.workflow_costs(&spec);
        let p = &off_line.post[0].phases;
        // Table 4: read 5 s, redistribute 435 s for Level 1 on 32 nodes.
        assert!((2.0..20.0).contains(&p.read), "read {}", p.read);
        assert!(
            (300.0..550.0).contains(&p.redistribute),
            "redistribute {}",
            p.redistribute
        );
    }

    #[test]
    fn combined_post_uses_few_nodes_and_level2() {
        let frame = TitanFrame::default();
        let spec = RunSpec::small_run(7);
        let [_, off_line, combined] = frame.workflow_costs(&spec);
        assert_eq!(combined.post[0].nodes, 4);
        // Level 2 I/O is far cheaper than Level 1.
        assert!(combined.post[0].phases.read < off_line.post[0].phases.read + 10.0);
        // Redistribution moves 5-8x less data, but on 8x fewer nodes; under
        // the per-node-bandwidth model the wall time is comparable (the
        // paper measured 75 s vs 435 s here — see EXPERIMENTS.md for the
        // discrepancy discussion). It must at least not be worse.
        assert!(combined.post[0].phases.redistribute <= off_line.post[0].phases.redistribute * 1.1);
        // Queue request is partial vs full.
        assert!(combined.post[0].phases.queuing < off_line.post[0].phases.queuing);
    }

    #[test]
    fn all_five_table3_rows_have_the_right_relationships() {
        let frame = TitanFrame::default();
        let spec = RunSpec::small_run(7);
        let all = frame.workflow_costs_all(&spec);
        assert_eq!(all.len(), 5);
        let simple = &all[2];
        let cosched = &all[3];
        let intransit = &all[4];
        // Co-scheduled: same core-hours as simple (Table 3 "(same)"), less
        // queue waiting.
        assert!((cosched.analysis_core_hours() - simple.analysis_core_hours()).abs() < 1e-6);
        assert!(cosched.post[0].phases.queuing < simple.post[0].phases.queuing);
        // In-transit: the Level 2 hand-off goes through NVRAM instead of the
        // file system — far cheaper than the disk read, and no queue wait.
        assert!(intransit.post[0].phases.read < simple.post[0].phases.read / 2.0);
        assert_eq!(intransit.post[0].phases.queuing, 0.0);
        assert!(intransit.simulation.phases.write < simple.simulation.phases.write);
        assert!(intransit.analysis_core_hours() <= simple.analysis_core_hours());
    }

    #[test]
    fn coscheduling_shortens_time_to_science() {
        let frame = TitanFrame::default();
        let spec = RunSpec::small_run(7);
        let after = frame.campaign_mean_result_time(&spec, 10, false);
        let overlapped = frame.campaign_mean_result_time(&spec, 10, true);
        assert!(
            overlapped < 0.8 * after,
            "co-scheduled results must arrive substantially sooner on average: \
             {overlapped} vs {after}"
        );
    }

    #[test]
    fn render_stream_is_bandwidth_priced_on_the_interconnect() {
        let frame = TitanFrame::default();
        let prof = RenderProfile::every_step(512, 500);
        // A 512×512 8-bit frame: PGM header + pixels + HCIM header.
        let per = prof.bytes_per_frame();
        assert_eq!(
            per,
            cosmotools::IMAGE_HEADER_BYTES + "P5\n512 512\n255\n".len() as u64 + 512 * 512
        );
        assert_eq!(prof.total_bytes(), 500 * per);
        // Priced per frame on the machine's interconnect: every frame pays
        // the link latency plus its wire time.
        let secs = prof.stream_seconds(&frame.titan.net);
        assert_eq!(secs, 500.0 * frame.titan.net.fetch_time(per as f64));
        assert!(secs > 0.0);
        // Monotone in both frame count and image mesh.
        assert!(RenderProfile::every_step(512, 1000).stream_seconds(&frame.titan.net) > secs);
        assert!(RenderProfile::every_step(1024, 500).stream_seconds(&frame.titan.net) > secs);
        // Zero frames stream for free.
        assert_eq!(
            RenderProfile::every_step(512, 0).stream_seconds(&frame.titan.net),
            0.0
        );
    }

    #[test]
    fn qcontinuum_headline_factor() {
        let frame = TitanFrame::default();
        let q = qcontinuum_projection(&frame);
        // Slowest block ≈ 5.8 h; paper says 5.9 h.
        assert!((5.0..6.5).contains(&q.largest_halo_hours), "{q:?}");
        // Full in-situ ≈ 3.4 M core-hours.
        assert!(
            (2.5e6..4.5e6).contains(&q.full_in_situ_core_hours),
            "{:.3e}",
            q.full_in_situ_core_hours
        );
        // Combined ≈ 0.52 M core-hours.
        assert!(
            (0.4e6..0.8e6).contains(&q.combined_core_hours),
            "{:.3e}",
            q.combined_core_hours
        );
        // Headline: a factor ≈ 6.5 (we accept 4–9).
        assert!(
            (4.0..9.0).contains(&q.cost_factor),
            "factor {}",
            q.cost_factor
        );
        // Small halos' centers take ~a minute per node (paper: "just over
        // one minute").
        assert!(q.small_center_seconds < 300.0, "{}", q.small_center_seconds);
    }
}
