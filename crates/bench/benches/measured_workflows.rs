//! The *measured* companion to Tables 2–4: actually executes the analysis
//! pipelines on a real (toy) simulation and reports wall times, regenerating
//! the paper's qualitative results with live code instead of the projection
//! model.
//!
//! * `measured_table2`: per-rank find/center extremes at two epochs — find
//!   stays balanced while center imbalance grows toward z = 0.
//! * `measured_workflows`: the in-situ / off-line / combined strategies end
//!   to end (Table 4's phase structure).
//! * `measured_subhalos`: the §4.2 subhalo task on real halos.

use bench::snapshot_32;
use comm::{CartDecomp, World};
use criterion::{criterion_group, criterion_main, Criterion};
use dpp::Threaded;
use hacc_core::{RunnerConfig, Strategy, TestBed};
use halo::{fof_and_centers_timed, FofConfig, SubhaloParams};
use nbody::SimConfig;

fn short() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(5))
        .warm_up_time(std::time::Duration::from_millis(500))
}

/// Analyze the cached snapshot across ranks and print per-rank timing
/// extremes (the measured Table 2 analog).
fn bench_measured_table2(c: &mut Criterion) {
    let (particles, box_size) = snapshot_32();
    let nranks = 8;
    let decomp = CartDecomp::new(nranks, *box_size);
    let link = 0.2 * box_size / 32.0;
    let fof = FofConfig {
        link_length: link,
        min_size: 20,
        overload_width: (10.0 * link).min(decomp.min_block_width()),
    };
    let backend = dpp::Serial; // per-rank serial: ranks are the parallelism
    let run = || {
        let world = World::new(nranks);
        world.run(|comm| {
            let locals: Vec<_> = particles
                .iter()
                .filter(|p| decomp.owner_of(p.pos_f64()) == comm.rank())
                .copied()
                .collect();
            fof_and_centers_timed(comm, &decomp, &locals, &fof, &backend, 1e-3, usize::MAX).1
        })
    };
    let timings = run();
    let fmax = timings
        .iter()
        .map(|t| t.find_seconds)
        .fold(0.0f64, f64::max);
    let fmin = timings
        .iter()
        .map(|t| t.find_seconds)
        .fold(f64::INFINITY, f64::min);
    let cmax = timings
        .iter()
        .map(|t| t.center_seconds)
        .fold(0.0f64, f64::max);
    let cmin = timings
        .iter()
        .map(|t| t.center_seconds)
        .fold(f64::INFINITY, f64::min);
    println!(
        "\nmeasured Table 2 analog (z = 0, {nranks} ranks): find {:.4}/{:.4} s (x{:.1}), center {:.4}/{:.4} s (x{:.1})",
        fmax,
        fmin,
        fmax / fmin.max(1e-12),
        cmax,
        cmin,
        cmax / cmin.max(1e-12)
    );
    c.bench_function("measured_table2_rank_analysis", |b| b.iter(run));
}

/// Execute every workflow strategy for real (Table 3/4 measured analog).
fn bench_measured_workflows(c: &mut Criterion) {
    let backend = Threaded::with_available_parallelism();
    let cfg = RunnerConfig {
        sim: SimConfig {
            np: 32,
            ng: 32,
            nsteps: 20,
            seed: 20150715,
            ..SimConfig::default()
        },
        nranks: 8,
        post_ranks: 2,
        threshold: 200,
        min_size: 20,
        // Per process: two bench runs on one host must not share files.
        workdir: std::env::temp_dir().join(format!("hacc_bench_workflows_{}", std::process::id())),
        ..Default::default()
    };
    let workdir = cfg.workdir.clone();
    let bed = TestBed::create(cfg, &backend);
    let runs = Strategy::ALL.map(|strategy| bed.run(strategy, &backend));
    println!("\nmeasured Table 4 analog (local seconds):");
    for run in &runs {
        println!(
            "  {:<32} read {:>7.3}  write {:>7.3}  redist {:>7.3}  analysis {:>7.3}  halos {}",
            run.strategy,
            run.phases.read,
            run.phases.write,
            run.phases.redistribute,
            run.phases.analysis,
            run.centers.len()
        );
    }
    for run in &runs[1..] {
        hacc_core::runner::assert_same_centers(&runs[0].centers, &run.centers);
    }

    let mut group = c.benchmark_group("measured_workflows");
    for strategy in Strategy::ALL {
        group.bench_function(strategy.label(), |bch| {
            bch.iter(|| bed.run(strategy, &backend))
        });
    }
    group.finish();
    let _ = std::fs::remove_dir_all(workdir);
}

/// Subhalo finding on the real halos of the snapshot (§4.2 measured analog).
fn bench_measured_subhalos(c: &mut Criterion) {
    let (particles, box_size) = snapshot_32();
    let backend = Threaded::with_available_parallelism();
    let catalog =
        cosmotools::find_halos_with_centers(&backend, particles, *box_size, 0.2, 40, 0, 1e-3);
    let params = SubhaloParams {
        min_size: 15,
        ..Default::default()
    };
    let biggest = catalog
        .halos
        .iter()
        .max_by_key(|h| h.count())
        .expect("halos exist");
    println!(
        "\nmeasured subhalo task: {} parent halos, biggest {} particles",
        catalog.len(),
        biggest.count()
    );
    c.bench_function("measured_subhalo_finding_largest_parent", |b| {
        b.iter(|| halo::find_subhalos(&biggest.particles, &params))
    });
}

criterion_group! {
    name = benches;
    config = short();
    targets = bench_measured_table2, bench_measured_workflows, bench_measured_subhalos
}
criterion_main!(benches);
