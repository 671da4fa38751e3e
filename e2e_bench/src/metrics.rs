//! The metric dictionary: every name the harness may print, with its unit,
//! direction and — for end-to-end metrics — the regression bound. The root
//! `BENCHMARK.json` declares the same names; a test holds the two together.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the dictionary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name as printed and as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the reference median by which the metric may get worse
    /// before `e2e compare` (and the driver) call it a regression; `None`
    /// for per-layer metrics, which explain and do not gate.
    pub bound: Option<f64>,
    /// Workloads that measure it; empty means every workload.
    pub workloads: &'static [&'static str],
}

/// The workloads, in the order they run.
pub const WORKLOADS: [&str; 6] = [
    "cosched",
    "posthoc",
    "insitu_render",
    "service",
    "store_rw",
    "sweep",
];

/// Workloads the harness runs but `BENCHMARK.json` does not list, so the
/// benchmark driver never gates on them. `service` spends three quarters of
/// its wall waiting for `fdatasync` on whatever disk holds the checkout
/// (0.27 s a session on tmpfs, 0.55–1.2 s on the ext4 volume this was
/// written on, drifting by a factor of two over minutes): its times measure
/// the disk, not the program, and no run length steadies them. It is judged
/// with `e2e run --workload service --repeat N` and `e2e compare`, in
/// alternating pairs.
pub const UNGATED: [&str; 1] = ["service"];

/// Is `workload` one the driver runs?
pub fn is_gated(workload: &str) -> bool {
    !UNGATED.contains(&workload)
}

/// Why each workload exists, in one line (`BENCHMARK.json` `why`).
pub const WORKLOAD_WHY: [&str; 6] = [
    "the paper's headline path, run_combined_coscheduled: nbody, fft and dpp do most of the work, so a kernel or dispatch gain shows here and an I/O or store gain must not",
    "five post-hoc strategies over one finished simulation, cold then cache-warm: halo FOF/MBP, comm redistribute, genio file I/O and the runner's bookkeeping dominate",
    "simulation with a render every step and halo finder plus power spectrum every fourth: the only workload where cosmotools render and algorithms carry about half the wall",
    "WorkflowService under two closed-loop clients with tiny drops: service, listener, journal, stream, distributed store and simhpc admission do the work, kernels none",
    "DistributedStore driven directly as writer and reader side by side, so a gain for one that costs the other shows; shared metrics are taken over the lookups",
    "smoke grammar times 25 seeds plus exports: single-thread virtual-clock CPU work in scenarios, simhpc and core::model only, no I/O; nothing else should move it",
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        workloads: &[],
    }
}

const fn native(
    name: &'static str,
    unit: &'static str,
    better: Better,
    workload: &'static [&'static str],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(0.15),
        workloads: workload,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        workloads: &[],
    }
}

/// A per-layer metric only the `service` workload's reports carry.
const fn service_layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        workloads: &["service"],
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics every workload reports (`BENCHMARK.json`
/// `end_to_end`): the untraced run prints exactly these.
pub const END_TO_END: [MetricDef; 3] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("time_to_solution_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.2),
];

/// End-to-end metrics that exist on one workload only. The driver wants one
/// metric vector for all workloads, so these are declared with the
/// per-layer metrics (and read 0 on a workload that does not measure them);
/// `e2e compare` still holds each to its 15% bound on its own workload.
pub const NATIVE: [MetricDef; 8] = [
    native("warm_rerun_s", "s", Lower, &["posthoc"]),
    native("insitu_overhead_frac", "ratio", Lower, &["insitu_render"]),
    native("campaigns_per_s", "1/s", Higher, &["service"]),
    native("campaign_latency_ms", "ms", Lower, &["service"]),
    native("runs_per_s", "1/s", Higher, &["sweep"]),
    native("put_mb_s", "MB/s", Higher, &["store_rw"]),
    native("get_mb_s", "MB/s", Higher, &["store_rw"]),
    native("mixed_ops_per_s", "1/s", Higher, &["store_rw"]),
];

/// Per-layer metrics, named `<layer>.<what>`; the traced run prints these
/// (after [`NATIVE`]). A workload that does not drive a layer reports 0;
/// the ones only `service` can measure stay out of `BENCHMARK.json` with it
/// (see [`UNGATED`]).
pub const PER_LAYER: [MetricDef; 108] = [
    // dpp — report: PoolStats delta per iteration; probe: 4096-element map.
    layer("dpp.dispatches", "count", Lower),
    layer("dpp.small_n_dispatches", "count", Lower),
    layer("dpp.dispatch_busy_s", "s", Lower),
    layer("dpp.roundtrip_us", "us", Lower),
    // nbody — probes at the workload's particle count.
    layer("nbody.ic_s", "s", Lower),
    layer("nbody.step_ms", "ms", Lower),
    layer("nbody.cic_deposit_ms", "ms", Lower),
    layer("nbody.poisson_ms", "ms", Lower),
    // fft — probes on the density mesh.
    layer("fft.forward_ms", "ms", Lower),
    layer("fft.inverse_ms", "ms", Lower),
    // halo — probes on rank 0's particles; report: RankTiming.
    layer("halo.fof_ms", "ms", Lower),
    layer("halo.mbp_ms", "ms", Lower),
    layer("halo.find_max_s", "s", Lower),
    layer("halo.center_max_s", "s", Lower),
    layer("halo.center_imbalance", "ratio", Lower),
    layer("halo.halos", "count", Higher),
    layer("halo.largest_halo", "count", Higher),
    // comm — probes in a 2-rank World; bytes are computed, not measured.
    layer("comm.redistribute_ms", "ms", Lower),
    layer("comm.overload_ms", "ms", Lower),
    layer("comm.bytes_moved", "B", Lower),
    // cosmotools::genio — probes on the Level-1/Level-2 containers.
    layer("genio.write_mb_s", "MB/s", Higher),
    layer("genio.read_mb_s", "MB/s", Higher),
    layer("genio.chunk_ms", "ms", Lower),
    layer("genio.assemble_ms", "ms", Lower),
    layer("genio.level1_bytes", "B", Lower),
    layer("genio.level2_bytes", "B", Lower),
    // cosmotools::render — probes on the final-step particles.
    layer("render.frame_ms", "ms", Lower),
    layer("render.lod_select_ms", "ms", Lower),
    layer("render.encode_ms", "ms", Lower),
    layer("render.frames", "count", Higher),
    layer("render.bytes", "B", Lower),
    // cosmotools::insitu — report: InSituAnalysisManager::records.
    layer("insitu.render_s", "s", Lower),
    layer("insitu.halofinder_s", "s", Lower),
    layer("insitu.powerspectrum_s", "s", Lower),
    // core::runner — each run_* timed from outside; report: WorkflowRun.
    layer("runner.in_situ.wall_ms", "ms", Lower),
    layer("runner.offline.wall_ms", "ms", Lower),
    layer("runner.simple.wall_ms", "ms", Lower),
    layer("runner.intransit.wall_ms", "ms", Lower),
    layer("runner.intransit_stream.wall_ms", "ms", Lower),
    layer("runner.cosched.wall_s", "s", Lower),
    layer("runner.offline.read_s", "s", Lower),
    layer("runner.offline.write_s", "s", Lower),
    layer("runner.offline.redistribute_s", "s", Lower),
    layer("runner.offline.analysis_s", "s", Lower),
    layer("runner.cosched.analysis_s", "s", Lower),
    layer("runner.cosched.overlapped_jobs", "count", Higher),
    layer("runner.warm.cache_hits", "count", Higher),
    layer("runner.warm.cache_misses", "count", Lower),
    layer("runner.warm.saved_analysis_s", "s", Higher),
    layer("runner.overhead_ms", "ms", Lower),
    // core::listener — probes on a standalone listener; report: the
    // campaigns' ListenerReport.
    layer("listener.detect_latency_ms", "ms", Lower),
    layer("listener.drain_files_per_s", "1/s", Higher),
    service_layer("listener.retries", "count", Lower),
    service_layer("listener.cache_skipped", "count", Higher),
    // core::journal — probes.
    layer("journal.append_us", "us", Lower),
    layer("journal.load_ms", "ms", Lower),
    // core::service — report: ServiceReport / CampaignReport; client clock.
    service_layer("service.scans", "count", Lower),
    service_layer("service.steals", "count", Lower),
    service_layer("service.scans_per_drop", "ratio", Lower),
    service_layer("service.saturated_rejects", "count", Lower),
    service_layer("service.assembly_misses", "count", Lower),
    service_layer("service.campaign_latency_p95_ms", "ms", Lower),
    // core::stream — computed from the specs; probe: publish + drain_from.
    service_layer("stream.chunks", "count", Lower),
    layer("stream.publish_drain_us", "us", Lower),
    // cache — probes per payload size on the three store shapes; report:
    // DistStats / CacheStats.
    layer("cache.digest_mb_s", "MB/s", Higher),
    layer("cache.dist.put_us_4k", "us", Lower),
    layer("cache.dist.put_us_64k", "us", Lower),
    layer("cache.dist.put_us_1m", "us", Lower),
    layer("cache.dist.get_us_4k", "us", Lower),
    layer("cache.dist.get_us_64k", "us", Lower),
    layer("cache.dist.get_us_1m", "us", Lower),
    layer("cache.artifact.put_us_4k", "us", Lower),
    layer("cache.artifact.put_us_64k", "us", Lower),
    layer("cache.artifact.put_us_1m", "us", Lower),
    layer("cache.artifact.get_us_4k", "us", Lower),
    layer("cache.artifact.get_us_64k", "us", Lower),
    layer("cache.artifact.get_us_1m", "us", Lower),
    layer("cache.dist1.put_us_4k", "us", Lower),
    layer("cache.dist1.put_us_64k", "us", Lower),
    layer("cache.dist1.put_us_1m", "us", Lower),
    layer("cache.dist1.get_us_4k", "us", Lower),
    layer("cache.dist1.get_us_64k", "us", Lower),
    layer("cache.dist1.get_us_1m", "us", Lower),
    layer("cache.contains_verified_us", "us", Lower),
    layer("cache.dist.degraded_get_mb_s", "MB/s", Higher),
    layer("cache.heal_s", "s", Lower),
    layer("cache.local_hits", "count", Higher),
    layer("cache.remote_hits", "count", Lower),
    layer("cache.misses", "count", Lower),
    layer("cache.replica_writes", "count", Lower),
    layer("cache.dead_skips", "count", Lower),
    layer("cache.remote_bytes", "B", Lower),
    layer("cache.verify_failures", "count", Lower),
    layer("cache.evictions", "count", Lower),
    // simhpc — probe: 200 seeded jobs through each queue discipline.
    layer("simhpc.titan_policy.jobs_per_s", "1/s", Higher),
    layer("simhpc.easy.jobs_per_s", "1/s", Higher),
    layer("simhpc.conservative.jobs_per_s", "1/s", Higher),
    layer("simhpc.priority_qos.jobs_per_s", "1/s", Higher),
    layer("simhpc.fair_share.jobs_per_s", "1/s", Higher),
    // scenarios — probes.
    layer("scenarios.execute_us", "us", Lower),
    layer("scenarios.expand_ms", "ms", Lower),
    layer("scenarios.export_ms", "ms", Lower),
    // core::model — probes.
    layer("model.table3_4_us", "us", Lower),
    layer("model.calibration_s", "s", Lower),
    // faults — the floor under every fault site.
    layer("faults.poll_ns", "ns", Lower),
    // The traced iteration itself.
    layer("trace.coverage", "ratio", Higher),
    layer("trace.overhead_frac", "ratio", Lower),
    layer("trace.unattributed_s", "s", Lower),
];

/// Every metric of the dictionary: end-to-end, native, per-layer.
pub fn all() -> impl Iterator<Item = &'static MetricDef> {
    END_TO_END
        .iter()
        .chain(NATIVE.iter())
        .chain(PER_LAYER.iter())
}

/// The metrics `BENCHMARK.json` lists under `per_layer`, in order: every
/// native and per-layer metric a workload the driver runs can measure.
pub fn declared_per_layer() -> impl Iterator<Item = &'static MetricDef> {
    NATIVE
        .iter()
        .chain(PER_LAYER.iter())
        .filter(|m| m.workloads.is_empty() || m.workloads.iter().any(|w| is_gated(w)))
}

/// Look a metric up by name.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    all().find(|m| m.name == name)
}

/// The metrics `e2e compare` gates on `workload`: the universal ones and
/// the native ones that workload measures.
pub fn gated_on(workload: &str) -> impl Iterator<Item = &'static MetricDef> + '_ {
    END_TO_END.iter().chain(
        NATIVE
            .iter()
            .filter(move |m| m.workloads.contains(&workload)),
    )
}

/// Seconds one driver run measures (`BENCHMARK.json` `run_seconds`).
pub const RUN_SECONDS: u32 = 18;

/// The root `BENCHMARK.json`, generated from this dictionary so the file
/// and the harness cannot drift apart (a test compares the two).
pub fn manifest_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .zip(WORKLOAD_WHY)
        .filter(|(name, _)| is_gated(name))
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.word(),
                m.bound.expect("end-to-end metrics are bounded")
            )
        })
        .collect();
    let per_layer: Vec<String> = declared_per_layer()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.word()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"e2e_bench/Cargo.toml\", \"--bin\", \"e2e\", \"--\"],\n  \"paths\": [\"e2e_bench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let names: Vec<&str> = all().map(|m| m.name).collect();
        let unique: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(names.len(), unique.len(), "duplicate metric name");
        assert!(declared_per_layer().count() <= 128);
        for m in all() {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            if let Some(b) = m.bound {
                assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
            }
            for w in m.workloads {
                assert!(WORKLOADS.contains(w), "{}: unknown workload {w}", m.name);
            }
        }
    }

    #[test]
    fn ungated_workloads_and_their_metrics_stay_out_of_the_manifest() {
        let manifest = manifest_json();
        let listed = |name: &str| manifest.contains(&format!("\"name\": \"{name}\""));
        for w in WORKLOADS {
            assert_eq!(listed(w), is_gated(w), "{w}");
        }
        for m in NATIVE.iter().chain(PER_LAYER.iter()) {
            let ungated_only = !m.workloads.is_empty() && !m.workloads.iter().any(|w| is_gated(w));
            assert_eq!(listed(m.name), !ungated_only, "{}", m.name);
        }
        assert!(!listed("campaigns_per_s") && !listed("service.scans"));
        assert!(listed("listener.detect_latency_ms") && listed("warm_rerun_s"));
    }

    #[test]
    fn workload_reasons_fit_the_contract() {
        for why in WORKLOAD_WHY {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let setup = find("setup_s").expect("setup_s is declared");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(all()
            .filter_map(|m| m.bound)
            .all(|b| b <= setup.bound.unwrap()));
    }
}
