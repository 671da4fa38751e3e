//! The off-line strategy under a recorder: on every rank the redistribution,
//! the overload exchange, the four phases of the distributed find and the
//! centers are spans with the rank as their argument; the Level-1 round
//! trip is an `encode` and a `decode` span carrying the file's byte count;
//! and `halo.patch_particles` adds up to the find work the run reports.
//!
//! One test, because the recorder is process-global.

use dpp::Threaded;
use hacc_core::{RunnerConfig, TestBed, WorkflowRun};
use nbody::SimConfig;
use std::sync::Arc;
use telemetry::{Clock, Recorder, Trace};

const NRANKS: usize = 2;

fn offline(bed: &TestBed, backend: &Threaded) -> (Trace, WorkflowRun) {
    let recorder = telemetry::install(Arc::new(Recorder::new(Clock::Logical)));
    let run = bed.run_offline_only(backend);
    (recorder.finish(), run)
}

#[test]
fn offline_find_is_traced_per_rank_and_its_work_is_counted() {
    let backend = Threaded::new(2);
    let workdir = std::env::temp_dir().join(format!("hacc_posthoc_trace_{}", std::process::id()));
    let cfg = RunnerConfig {
        sim: SimConfig {
            np: 16,
            ng: 16,
            nsteps: 30,
            seed: 4242,
            ..SimConfig::default()
        },
        nranks: NRANKS,
        post_ranks: 1,
        linking_length: 0.28,
        min_size: 12,
        workdir: workdir.clone(),
        ..Default::default()
    };
    let bed = TestBed::create(cfg, &backend);
    let (trace, run) = offline(&bed, &backend);
    assert!(!run.centers.is_empty(), "the run must find halos");

    let spans: Vec<(&str, &str, u64)> = trace
        .spans()
        .iter()
        .map(|s| (s.layer, s.name, s.arg))
        .collect();
    for rank in 0..NRANKS as u64 {
        for (layer, name) in [
            ("comm", "redistribute"),
            ("comm", "exchange_overload"),
            ("halo", "parallel_fof"),
            ("halo", "exchange"),
            ("halo", "patch"),
            ("halo", "link"),
            ("halo", "catalog"),
            ("halo", "centers"),
        ] {
            let want = (layer, name, rank);
            assert_eq!(
                spans.iter().filter(|s| **s == want).count(),
                1,
                "span {want:?}"
            );
        }
    }
    let level1 = std::fs::metadata(workdir.join("level1.hcio"))
        .unwrap()
        .len();
    for name in ["encode", "decode"] {
        let want = ("cosmotools.genio", name, level1);
        assert!(spans.contains(&want), "no span {want:?}");
    }

    let find_work: u64 = run.rank_timings.iter().map(|t| t.find_work).sum();
    assert!(find_work > 0);
    assert_eq!(
        trace.counters().get(&("halo", "patch_particles")),
        Some(&find_work),
        "the counter is the work `RankTiming` reports"
    );

    // A logical-clock export is a function of the work alone.
    let (again, _) = offline(&bed, &backend);
    assert_eq!(trace.chrome_json(), again.chrome_json());
    let _ = std::fs::remove_dir_all(&workdir);
}
