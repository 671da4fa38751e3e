//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * **scheduling policy** (`dpp`): one `map` over skewed items, dynamic
//!   self-scheduling vs one static block per worker;
//! * **MBP engines**: the brute-force data-parallel kernel on the serial and
//!   the threaded backend — the PISTON/VTK-m portability claim — vs the
//!   serial A* baseline (the paper's reported ~8× pruning, and the ~50× GPU
//!   story entering as a platform factor);
//! * **FOF engines**: k-d tree vs linked-cell grid vs O(n²) brute force;
//! * **split threshold sweep**: how the in-situ/off-line split moves the
//!   projected cost (the paper chose 300,000 manually; §4.1 automates it).

use bench::blob;
use criterion::{criterion_group, criterion_main, Criterion};
use dpp::{ops, Serial, Threaded};
use hacc_core::{RunSpec, TitanFrame};

fn short() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(300))
}

/// Scheduling-policy ablation: dynamic self-scheduling vs static
/// partitioning on a *skewed* workload (per-item cost ∝ item², like per-halo
/// center finding). Static scheduling suffers exactly the load imbalance the
/// paper's workflow is built to escape.
fn bench_scheduling_policies(c: &mut Criterion) {
    use dpp::StaticThreaded;
    // Item i costs ~i² work: the last worker's block dominates under static
    // partitioning.
    let n = 2000usize;
    let work = |i: usize| -> f64 {
        let mut acc = 0.0f64;
        for k in 0..(i * i / 64 + 1) {
            acc += (k as f64).sqrt();
        }
        acc
    };
    let dynamic = Threaded::new(4);
    let static_ = StaticThreaded::new(4);
    let mut group = c.benchmark_group("ablation_scheduling_policy");
    group.bench_function("dynamic_selfscheduled", |b| {
        b.iter(|| ops::map(&dynamic, &(0..n).collect::<Vec<_>>(), |&i| work(i)))
    });
    group.bench_function("static_partitioned", |b| {
        b.iter(|| ops::map(&static_, &(0..n).collect::<Vec<_>>(), |&i| work(i)))
    });
    group.finish();
}

fn bench_mbp_engines(c: &mut Criterion) {
    let halo_particles = blob([0.0; 3], 3000, 2.0, 0);
    let threaded = Threaded::with_available_parallelism();
    let brute_serial = halo::mbp_brute(&Serial, &halo_particles, 1e-3);
    let astar = halo::mbp_astar(&halo_particles, 1e-3);
    assert_eq!(brute_serial.index, astar.index);
    println!(
        "\nMBP ablation (3000 particles): A* evaluated {}/{} potentials ({:.1}x pruning; paper reports ~8x on real halos)",
        astar.exact_evaluations,
        halo_particles.len(),
        halo_particles.len() as f64 / astar.exact_evaluations as f64
    );
    let mut group = c.benchmark_group("ablation_mbp_engines");
    group.bench_function("brute_serial", |b| {
        b.iter(|| halo::mbp_brute(&Serial, &halo_particles, 1e-3))
    });
    group.bench_function("brute_threaded", |b| {
        b.iter(|| halo::mbp_brute(&threaded, &halo_particles, 1e-3))
    });
    group.bench_function("astar_serial", |b| {
        b.iter(|| halo::mbp_astar(&halo_particles, 1e-3))
    });
    group.finish();
}

fn bench_fof_engines(c: &mut Criterion) {
    // A clustered scene: several blobs in a periodic box interior.
    let mut parts = Vec::new();
    for k in 0..8 {
        parts.extend(blob(
            [
                20.0 + (k % 2) as f64 * 30.0,
                20.0 + ((k / 2) % 2) as f64 * 30.0,
                20.0 + (k / 4) as f64 * 30.0,
            ],
            800,
            8.0,
            k as u64 * 10_000,
        ));
    }
    let positions: Vec<[f64; 3]> = parts.iter().map(|p| p.pos_f64()).collect();
    let cols = halo::Coords::from_rows(&positions);
    let link = 0.8;
    let mut group = c.benchmark_group("ablation_fof_engines");
    group.bench_function("kdtree", |b| b.iter(|| halo::fof_kdtree_cols(&cols, link)));
    group.bench_function("grid_periodic", |b| {
        b.iter(|| halo::fof_grid(&positions, link, 100.0))
    });
    group.bench_function("grid_periodic_dense_ref", |b| {
        b.iter(|| conformance::layout::fof_grid_dense_ref(&positions, link, 100.0))
    });
    group.bench_function("brute_n2", |b| b.iter(|| halo::fof_brute(&positions, link)));
    group.finish();
}

fn bench_threshold_sweep(c: &mut Criterion) {
    let frame = TitanFrame::default();
    println!("\nsplit-threshold sweep (projected analysis core-hours, 1024^3/32 nodes):");
    println!(
        "{:>12} {:>12} {:>14} {:>12}",
        "threshold", "in-situ", "combined", "saving"
    );
    let base = RunSpec::small_run(7);
    for threshold in [50_000u64, 100_000, 300_000, 1_000_000, u64::MAX] {
        let spec = RunSpec {
            threshold,
            halo_sizes: base.halo_sizes.clone(),
            ..base.clone()
        };
        let costs = frame.workflow_costs_all(&spec);
        let (in_situ, combined) = (&costs[0], &costs[2]);
        let ci = in_situ.analysis_core_hours();
        let cc = combined.analysis_core_hours();
        let label = if threshold == u64::MAX {
            "infinity".to_string()
        } else {
            threshold.to_string()
        };
        println!(
            "{label:>12} {ci:>12.1} {cc:>14.1} {:>11.1}%",
            (1.0 - cc / ci) * 100.0
        );
    }
    c.bench_function("ablation_threshold_sweep", |b| {
        b.iter(|| {
            let spec = RunSpec {
                threshold: 300_000,
                halo_sizes: base.halo_sizes.clone(),
                ..base.clone()
            };
            frame.workflow_costs_all(&spec)
        })
    });
}

criterion_group! {
    name = benches;
    config = short();
    targets = bench_scheduling_policies, bench_mbp_engines, bench_fof_engines,
              bench_threshold_sweep
}
criterion_main!(benches);
