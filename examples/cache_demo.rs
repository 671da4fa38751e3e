//! Incremental re-execution demo: the same workflows run twice against one
//! content-addressed artifact cache. The cold pass computes and stores every
//! artifact; the warm pass must answer all of them from the cache — zero
//! re-run analysis steps — and reproduce every Level 3 catalog byte for
//! byte. The assertions panic (nonzero exit) on any violation, so CI runs
//! this example as the incremental-re-execution check.
//!
//! ```text
//! cargo run --release --example cache_demo
//! ```

use cache::ArtifactCache;
use cosmotools::encode_centers;
use dpp::Threaded;
use hacc_core::{
    format_table4, JobCost, PhaseSeconds, RunnerConfig, Strategy, TestBed, WorkflowCost,
};
use nbody::SimConfig;
use std::sync::Arc;

fn main() {
    let backend = Threaded::with_available_parallelism();
    let workdir = std::env::temp_dir().join("hacc_cache_demo");
    let cache_dir = workdir.join("artifact_cache");
    // Start cold: the first pass must miss for every artifact.
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cache = Arc::new(ArtifactCache::open(&cache_dir, Some(256 << 20)).expect("open cache"));

    let cfg = RunnerConfig {
        sim: SimConfig {
            np: 32,
            ng: 32,
            nsteps: 30,
            seed: 77,
            ..SimConfig::default()
        },
        nranks: 8,
        post_ranks: 2,
        threshold: 200,
        min_size: 40,
        workdir,
        cache: Some(Arc::clone(&cache)),
        ..Default::default()
    };
    let bed = TestBed::create(cfg, &backend);
    println!(
        "simulation: {:.2} s ({} particles), artifact cache at {}",
        bed.sim_seconds,
        bed.particles.len(),
        cache.dir().display()
    );

    let run_all = |label: &str| {
        println!("\n-- {label} pass --");
        // Every strategy with an off-line stage to memoize (all but in-situ).
        let runs: Vec<_> = Strategy::ALL[1..]
            .iter()
            .map(|&strategy| bed.run(strategy, &backend))
            .collect();
        for r in &runs {
            println!(
                "{:<32} hits {:>3}  misses {:>3}  read {:>7.3} s  analysis {:>7.3} s  saved {:>7.3} s",
                r.strategy,
                r.cache_hits,
                r.cache_misses,
                r.phases.read,
                r.phases.analysis,
                r.saved_analysis_seconds
            );
        }
        runs
    };
    // The cold pass already shares artifacts *across* strategies (simple and
    // in-transit memoize the same Level 2 centers), so some hits show up
    // even here; the warm pass must then hit for everything.
    let cold = run_all("cold");
    let warm = run_all("warm");

    let mut saved_wall = 0.0;
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(
            encode_centers(&c.centers),
            encode_centers(&w.centers),
            "{}: the warm catalog must be byte-identical with the cold one",
            c.strategy
        );
        assert_eq!(
            w.cache_misses, 0,
            "{}: a warm re-run may not recompute any artifact",
            c.strategy
        );
        assert!(
            w.cache_hits > 0,
            "{}: a warm re-run must answer from the cache",
            c.strategy
        );
        saved_wall += w.saved_analysis_seconds;
    }
    let s = cache.stats();
    println!(
        "\ncache counters: {} hits / {} misses / {} inserts / {} verify failures / {} evictions; {} bytes in {} entries",
        s.hits,
        s.misses,
        s.inserts,
        s.verify_failures,
        s.evictions,
        cache.total_bytes(),
        cache.len()
    );
    println!("warm passes re-ran zero analysis steps and reproduced every catalog byte-for-byte ✓");

    // Credit the measured savings into a Table 4-style report: saved
    // analysis wall-seconds × the nodes an analysis job holds = saved
    // node-seconds, surfaced next to the phase columns.
    let cosched = warm.last().expect("the co-scheduled run");
    let cost = WorkflowCost {
        strategy: "co-scheduled (warm cache)".into(),
        simulation: JobCost {
            label: "simulation".into(),
            machine: "local".into(),
            nodes: bed.cfg.nranks,
            charge_factor: 1.0,
            phases: PhaseSeconds {
                sim: bed.sim_seconds,
                write: cosched.phases.write,
                ..Default::default()
            },
        },
        post: vec![JobCost {
            label: "post-processing".into(),
            machine: "local".into(),
            nodes: bed.cfg.post_ranks,
            charge_factor: 1.0,
            phases: PhaseSeconds {
                read: cosched.phases.read,
                redistribute: cosched.phases.redistribute,
                analysis: cosched.phases.analysis,
                ..Default::default()
            },
        }],
        saved_node_seconds: saved_wall * bed.cfg.post_ranks as f64,
    };
    println!();
    print!("{}", format_table4(std::slice::from_ref(&cost)));
    assert!(
        cost.saved_core_hours() > 0.0,
        "the warm passes must save measurable analysis time"
    );
}
