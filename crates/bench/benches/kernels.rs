//! Kernel microbenchmarks for the substrates: FFT, CIC deposit, power
//! spectrum, k-d tree construction/queries, the message-passing layer, and
//! the batch-queue simulator — plus the **layout trajectory**: self-timed
//! measurements of every SoA/column kernel (`after`) against a denominator
//! that lives outside the product crates' hot path (`before`: the scalar
//! and dense-cell references in `conformance::layout`; for
//! the PM solve, the per-line FFT reference and the stepper that re-solves
//! at every kick; for a real field's transform, the complex transform of the
//! field promoted to complex; for the force gather, three `cic_interpolate`
//! calls per particle; for the distributed find, the k-d tree FOF; for a
//! half-budget render frame, one that sorts its level-of-detail order afresh;
//! for a halo
//! population, a binary search over the mass function's CDF per draw),
//! written to `BENCH_kernels.json` when `BENCH_KERNELS_JSON=<path>` is set
//! (`just bench-kernels`).
//! `BENCH_QUICK=1` trims repetitions and problem sizes for the CI
//! regression gate (`bench_check`).

use bench::{blob, snapshot_32};
use comm::{CartDecomp, World};
use conformance::integrator::step_resolving;
use conformance::layout::{
    cic_deposit_scalar_ref, fft3d_line_ref, fof_grid_dense_ref, massfn_sample_ref,
    potential_scalar_ref,
};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dpp::{ops, par_for_each_mut, Serial, Threaded, DEFAULT_GRAIN};
use fft::{Complex, Fft3d, Grid3, RealFft3d};
use hacc_core::RunnerConfig;
use halo::Coords;
use nbody::{DepositColumns, ParticleSoA, SimConfig, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simhpc::{machine, BatchSimulator, JobRequest, QueuePolicy};
use std::time::Instant;

fn short() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(300))
}

fn bench_fft(c: &mut Criterion) {
    let threaded = Threaded::with_available_parallelism();
    let dims = [64, 64, 64];
    let plan = Fft3d::new(dims).unwrap();
    let data: Vec<Complex> = (0..dims.iter().product::<usize>())
        .map(|i| Complex::new((i as f64 * 0.1).sin(), 0.0))
        .collect();
    c.bench_function("fft3d_64_roundtrip_threaded", |b| {
        b.iter(|| {
            let mut g = Grid3::from_vec(dims, data.clone());
            plan.forward(&threaded, &mut g).unwrap();
            plan.inverse(&threaded, &mut g).unwrap();
            g
        })
    });
}

fn bench_cic_and_power(c: &mut Criterion) {
    let threaded = Threaded::with_available_parallelism();
    let (particles, box_size) = snapshot_32();
    let soa = ParticleSoA::from_aos(particles);
    c.bench_function("cic_deposit_32k_particles", |b| {
        b.iter(|| nbody::cic_deposit_soa(&threaded, &soa, 32, *box_size))
    });
    c.bench_function("power_spectrum_32", |b| {
        b.iter(|| cosmotools::compute_power_spectrum(&threaded, particles, 32, *box_size, 16))
    });
}

fn bench_kdtree(c: &mut Criterion) {
    let parts = blob([0.0; 3], 20_000, 50.0, 0);
    let coords = Coords::from_particles(&parts);
    c.bench_function("kdtree_build_20k", |b| {
        b.iter(|| halo::KdTree::build_cols(&coords, None))
    });
    let tree = halo::KdTree::build_cols(&coords, None);
    c.bench_function("kdtree_knn_20k", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for i in (0..coords.len()).step_by(100) {
                acc += tree.k_nearest_cols(&coords, coords.get(i), 24).len();
            }
            acc
        })
    });
}

fn bench_comm(c: &mut Criterion) {
    c.bench_function("comm_alltoallv_8_ranks_64k", |b| {
        b.iter(|| {
            let world = World::new(8);
            world.run(|comm| {
                let sends: Vec<Vec<u64>> = (0..8).map(|d| vec![d as u64; 8192]).collect();
                comm.alltoallv(sends).len()
            })
        })
    });
}

fn bench_scheduler(c: &mut Criterion) {
    c.bench_function("batch_simulator_1000_jobs", |b| {
        b.iter(|| {
            let mut m = machine::titan();
            m.total_nodes = 1024;
            let mut policy = QueuePolicy::titan();
            policy.base_wait = 0.0;
            let mut sim = BatchSimulator::new(m, policy);
            for i in 0..1000 {
                sim.submit(JobRequest::new(
                    format!("j{i}"),
                    1 + (i * 37) % 200,
                    10.0 + (i % 17) as f64,
                    (i / 4) as f64,
                ));
            }
            sim.run_to_completion().len()
        })
    });
}

// ---------------------------------------------------------------------------
// Layout trajectory: scalar/generic denominator vs SoA/column kernel, self-timed
// ---------------------------------------------------------------------------

fn quick_mode() -> bool {
    std::env::var("BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Minimum wall time over `reps` calls, in milliseconds. The minimum (not
/// the mean) is the standard microbenchmark statistic for a deterministic
/// kernel: every source of noise only adds time.
fn time_ms<T, F: FnMut() -> T>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        black_box(f());
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

struct KernelRow {
    kernel: &'static str,
    n: usize,
    before_ms: f64,
    after_ms: f64,
}

fn trajectory_rows(quick: bool) -> Vec<KernelRow> {
    let reps = if quick { 2 } else { 5 };
    let mut rows = Vec::new();

    // CIC deposit at the paper's 128³ particle scale: the scalar
    // per-particle `f64` loop vs the blocked exact deposit (the stepper's,
    // whose integer sum costs a quantizing conversion per corner term the
    // `f64` loop does not pay). Each runs on its native
    // layout (timing the AoS→SoA conversion here would measure the
    // allocator, not the kernel). The mesh is 64³ so the local
    // grid stays cache-resident and the measurement tracks the rewritten
    // transform path; on a 128³ mesh both layouts converge on DRAM scatter
    // latency and the ratio measures the memory system instead.
    {
        let n = if quick { 1 << 18 } else { 128 * 128 * 128 };
        let parts = blob([64.0; 3], n, 120.0, 0);
        let soa = ParticleSoA::from_aos(&parts);
        let ng = 64;
        let before = time_ms(reps, || cic_deposit_scalar_ref(&Serial, &parts, ng, 128.0));
        let after = time_ms(reps, || nbody::cic_deposit_soa(&Serial, &soa, ng, 128.0));
        rows.push(KernelRow {
            kernel: "cic",
            n,
            before_ms: before,
            after_ms: after,
        });
    }

    // FOF over a clustered cloud: the dense-cell linked-cell reference (what
    // `fof_grid` was when this row was first recorded) vs the k-d tree
    // engine. The box (64) keeps every blob in the interior, so the grid's
    // periodic wrap is inert and both find the same groups. The reference
    // pays a fixed per-cell cost whatever `n` is, so quick mode keeps the
    // full `n` (tens of ms) for its ratio to be comparable with the
    // committed one.
    {
        let n = 60_000;
        let mut positions: Vec<[f64; 3]> = Vec::with_capacity(n);
        for (i, c) in [[10.0; 3], [30.0, 12.0, 40.0], [44.0, 44.0, 8.0]]
            .iter()
            .enumerate()
        {
            positions.extend(
                blob(*c, n / 3, 12.0, (i * n) as u64)
                    .iter()
                    .map(|p| p.pos_f64()),
            );
        }
        let cols = Coords::from_rows(&positions);
        let link = 0.4;
        let before = time_ms(reps, || fof_grid_dense_ref(&positions, link, 64.0));
        let after = time_ms(reps, || halo::fof_kdtree_cols(&cols, link));
        rows.push(KernelRow {
            kernel: "fof",
            n: positions.len(),
            before_ms: before,
            after_ms: after,
        });
    }

    // MBP potential sums: O(n²), so this runs at halo scale, not box scale.
    {
        let n = if quick { 4_096 } else { 16_384 };
        let parts = blob([0.0; 3], n, 3.0, 7);
        let coords = Coords::from_particles(&parts);
        let masses: Vec<f64> = parts.iter().map(|p| p.mass as f64).collect();
        let soft = 1e-3;
        let mreps = if quick { 1 } else { 3 };
        let before = time_ms(mreps, || {
            let idx: Vec<usize> = (0..parts.len()).collect();
            let pots = ops::map(&Serial, &idx, |&i| potential_scalar_ref(&parts, i, soft));
            ops::argmin_by(&Serial, &pots, |&p| p)
        });
        let after = time_ms(mreps, || {
            halo::mbp_brute_cols(&Serial, &coords, &masses, soft)
        });
        rows.push(KernelRow {
            kernel: "mbp",
            n,
            before_ms: before,
            after_ms: after,
        });
    }

    // The three PM rows run on a two-worker pool, not on `Serial`: half of
    // what the first two measure is dispatch shape (one line per chunk vs
    // blocks of lines; 2N solves vs N + 1), which a serial run cannot see,
    // and two workers is what the workflow benchmark uses. Quick mode keeps
    // the 64³ mesh — the names carry it, and the rows take well under a second.
    // The first two need two free cores: with one stolen, each side runs at its
    // serial time and the ratios read ≈ 1.2 and ≈ 1.4, which the gate takes
    // for a regression — re-run before believing it.
    let pool2 = Threaded::new(2);
    // Milliseconds per call and a shared pool: more repetitions than the
    // single-thread rows need for the minimum to settle.
    let pm_reps = 4 * reps;

    // 3-D FFT at the production mesh, forward + inverse: one gathered line
    // per dispatched chunk (the reference) vs every pass 16 lines at a time
    // through the lane-batched kernel.
    {
        let dims = [64, 64, 64];
        let plan = Fft3d::new(dims).unwrap();
        let mut grid = Grid3::from_vec(
            dims,
            (0..dims.iter().product::<usize>())
                .map(|i| Complex::new((i as f64 * 0.1).sin(), (i as f64 * 0.3).cos()))
                .collect(),
        );
        let before = time_ms(pm_reps, || {
            fft3d_line_ref(&pool2, &mut grid, false);
            fft3d_line_ref(&pool2, &mut grid, true);
        });
        let after = time_ms(pm_reps, || {
            plan.forward(&pool2, &mut grid).unwrap();
            plan.inverse(&pool2, &mut grid).unwrap();
        });
        rows.push(KernelRow {
            kernel: "fft3d_64",
            n: grid.len(),
            before_ms: before,
            after_ms: after,
        });
    }

    // A real 64³ field there and back, as the PM solve, the initial
    // conditions and the power spectrum take one: promoted to complex, the
    // complex forward + inverse and the real part (what they did) vs the
    // real-to-complex forward + complex-to-real inverse of the half spectrum.
    {
        let dims = [64, 64, 64];
        let real = Grid3::from_vec(
            dims,
            (0..dims.iter().product::<usize>())
                .map(|i| (i as f64 * 0.1).sin() + (i as f64 * 0.013).cos())
                .collect(),
        );
        let plan = Fft3d::new(dims).unwrap();
        let rplan = RealFft3d::new(dims).unwrap();
        let before = time_ms(pm_reps, || {
            let promoted = real.as_slice().iter().map(|&v| Complex::from_real(v));
            let mut g = Grid3::from_vec(dims, promoted.collect());
            plan.forward(&pool2, &mut g).unwrap();
            plan.inverse(&pool2, &mut g).unwrap();
            Grid3::from_vec(dims, g.as_slice().iter().map(|z| z.re).collect())
        });
        let after = time_ms(pm_reps, || {
            let spec = rplan.forward(&pool2, &real).unwrap();
            rplan.inverse(&pool2, spec).unwrap()
        });
        rows.push(KernelRow {
            kernel: "rfft3d_64",
            n: real.len(),
            before_ms: before,
            after_ms: after,
        });
    }

    // Two consecutive 64³ leapfrog steps: every kick re-solving and
    // re-gathering (the stepper before anything was carried) vs the closing
    // kick's per-particle acceleration reused by the next opening kick. Both
    // simulations are one step in, so `after` starts with a carried array,
    // as every step but a run's first does.
    {
        let cfg = SimConfig {
            np: 64,
            ng: 64,
            nsteps: 64,
            seed: 16,
            ..SimConfig::default()
        };
        let mut resolving = Simulation::new(&pool2, cfg.clone());
        let mut carried = Simulation::from_state(
            cfg,
            resolving.particles().to_vec(),
            resolving.scale_factor(),
            0,
        );
        step_resolving(&mut resolving, &pool2);
        carried.step(&pool2);
        let before = time_ms(pm_reps, || {
            step_resolving(&mut resolving, &pool2);
            step_resolving(&mut resolving, &pool2);
        });
        let after = time_ms(pm_reps, || {
            carried.step(&pool2);
            carried.step(&pool2);
        });
        // A finished simulation's `step` is a no-op: the timings above mean
        // something only if neither run ran out of steps.
        assert!(
            !resolving.finished() && !carried.finished(),
            "pm_step_64 ran past nsteps: raise it with the repetitions"
        );
        rows.push(KernelRow {
            kernel: "pm_step_64",
            n: carried.particles().len(),
            before_ms: before,
            after_ms: after,
        });

        // One read of the force mesh for every particle of that run, on the
        // field its own positions source: three `cic_interpolate` calls per
        // particle (the kick as it was; cell, weights and wraps redone per
        // component) vs the block gather the stepper runs, reading the
        // deposit's position columns and the half-spectrum rows and kicking
        // each particle as it goes. Same field, positions and dispatch.
        let particles = carried.particles();
        let box_size = carried.config().cosmology.box_size;
        let cols = DepositColumns::from_aos(&pool2, particles);
        let delta = nbody::cic_deposit_exact(&pool2, cols.positions(), cols.mass(), 64, box_size);
        let field = nbody::poisson_accel(&pool2, &delta, 1.5 / carried.scale_factor());
        let mut out = vec![[0.0f64; 3]; particles.len()];
        let before = time_ms(pm_reps, || {
            par_for_each_mut(&pool2, &mut out, DEFAULT_GRAIN, |i, g| {
                *g = [0, 1, 2]
                    .map(|d| nbody::cic_interpolate(&field[d], particles[i].pos, box_size));
            })
        });
        // Each row a half spectrum's `2·(64/2 + 1)` reals.
        let row = 66;
        let padded = field.each_ref().map(|f| {
            let mut v = vec![0.0; 64 * 64 * row];
            for (dst, src) in v.chunks_exact_mut(row).zip(f.as_slice().chunks_exact(64)) {
                dst[..64].copy_from_slice(src);
            }
            v
        });
        let comps = padded.each_ref().map(|f| f.as_slice());
        let force = nbody::ForceGrids { ng: 64, comps };
        let (pos, mut kept, mut kicked) = (cols.positions(), Vec::new(), particles.to_vec());
        let after = time_ms(pm_reps, || {
            let kick = Some((&mut kicked[..], 0.5));
            nbody::gather_accel(&pool2, force, pos, box_size, &mut kept, kick)
        });
        rows.push(KernelRow {
            kernel: "pm_kick_64",
            n: particles.len(),
            before_ms: before,
            after_ms: after,
        });
    }

    // The two kernels behind the in-situ path, on what the workflow
    // benchmark's `insitu_render` hands them: a 64³ box eight steps in.
    // Quick mode keeps the size (the names carry it).
    {
        let cfg = SimConfig {
            np: 64,
            ng: 64,
            nsteps: 8,
            seed: 18,
            ..SimConfig::default()
        };
        let box_size = cfg.cosmology.box_size;
        let mut sim = Simulation::new(&pool2, cfg);
        sim.run(&pool2);
        let n = sim.particles().len();

        // Periodic FOF at b = 0.2 (`box/link` = 320): one list per cell of
        // a 256³ mesh vs link-wide cells indexed by an occupancy bitmap.
        // Both return the same label vector.
        let positions: Vec<[f64; 3]> = sim.particles().iter().map(|p| p.pos_f64()).collect();
        let link = 0.2 * box_size / 64.0;
        assert_eq!(
            fof_grid_dense_ref(&positions, link, box_size),
            halo::fof_grid(&positions, link, box_size),
            "fof_grid_64: the engines disagree"
        );
        let before = time_ms(reps, || fof_grid_dense_ref(&positions, link, box_size));
        let after = time_ms(reps, || halo::fof_grid(&positions, link, box_size));
        rows.push(KernelRow {
            kernel: "fof_grid_64",
            n,
            before_ms: before,
            after_ms: after,
        });

        // A frame's deposit on the render mesh: the scalar per-particle
        // loop over the particles in LOD order (the order a frame deposited
        // in while its sum depended on it) vs the exact deposit in storage
        // order. Two-worker pool, as the PM rows and for their reason: both
        // run a chunk per worker.
        let selected = cosmotools::lod_select(sim.particles(), 1, 0);
        let cols = DepositColumns::from_aos(&pool2, sim.particles());
        let before = time_ms(pm_reps, || {
            cic_deposit_scalar_ref(&pool2, &selected, 64, box_size)
        });
        let after = time_ms(pm_reps, || {
            nbody::cic_deposit_exact(&pool2, cols.positions(), cols.mass(), 64, box_size)
        });
        rows.push(KernelRow {
            kernel: "render_deposit_64",
            n,
            before_ms: before,
            after_ms: after,
        });

        // A whole frame of half of those particles on the render mesh (an
        // unlimited frame computes no LOD order at all): a fresh
        // `render_frame` sorts its LOD order vs a density task that has
        // drawn this particle set before and reuses it. Same frame.
        use cosmotools::InSituAlgorithm;
        let params = cosmotools::RenderParams {
            byte_budget: (n / 2) as u64 * cosmotools::PARTICLE_RENDER_BYTES,
            ..cosmotools::RenderParams::default()
        };
        let mut task = cosmotools::DensityRenderTask::new();
        task.params = params;
        let ctx = cosmotools::AnalysisContext {
            step: 8,
            total_steps: 8,
            redshift: sim.redshift(),
            particles: sim.particles(),
            box_size,
            backend: &pool2,
            catalog: None,
        };
        let fresh = || cosmotools::render_frame(&pool2, sim.particles(), box_size, &params, 8);
        let warm_frame = |task: &mut cosmotools::DensityRenderTask| match task.execute(&ctx).pop() {
            Some(cosmotools::Product::Image { frame, .. }) => frame,
            other => panic!("render_frame_64: a density task returned {other:?}"),
        };
        warm_frame(&mut task);
        assert_eq!(
            warm_frame(&mut task),
            fresh(),
            "render_frame_64: the frames differ"
        );
        let before = time_ms(pm_reps, fresh);
        let after = time_ms(pm_reps, || warm_frame(&mut task));
        rows.push(KernelRow {
            kernel: "render_frame_64",
            n,
            before_ms: before,
            after_ms: after,
        });
    }

    // The distributed find's link step on what the workflow benchmark's
    // `posthoc` hands it: rank 0's extended patch (its locals and the ghosts
    // the overload exchange delivers, each particle once, ≈ 174k rows) of
    // its 64³ fixture on two ranks, linked as the product links it — by
    // `fof_cells`, periodic along y and z, the axes the two ranks do not
    // cut — against the k-d tree (the paper's engine, which has no wrap).
    // The gate before timing: the cell engine with every axis open returns
    // the k-d tree's label vector on these rows. Quick mode keeps the size.
    {
        let cfg = RunnerConfig {
            sim: SimConfig {
                np: 64,
                ng: 64,
                nsteps: 16,
                seed: 20150715,
                ..SimConfig::default()
            },
            nranks: 2,
            ..RunnerConfig::default()
        };
        let fof = cfg.fof();
        let mut sim = Simulation::new(&pool2, cfg.sim.clone());
        sim.run(&pool2);
        let decomp = CartDecomp::new(cfg.nranks, cfg.sim.cosmology.box_size);
        let mut per_rank = vec![Vec::new(); cfg.nranks];
        for p in sim.particles() {
            per_rank[decomp.owner_of(p.pos_f64())].push(*p);
        }
        let patch = World::new(cfg.nranks)
            .run(|c| halo::extended_patch(c, &decomp, &per_rank[c.rank()], fof.overload_width))
            .swap_remove(0);
        let cols = Coords::from_rows(&patch);
        let link = fof.link_length;
        assert_eq!(
            halo::fof_kdtree_cols(&cols, link),
            halo::fof_patch(&patch, link),
            "find_patch_64: the engines disagree"
        );
        let before = time_ms(reps, || halo::fof_kdtree_cols(&cols, link));
        let periods = decomp.single_block_periods();
        let after = time_ms(reps, || halo::fof_cells(&patch, link, periods));
        rows.push(KernelRow {
            kernel: "find_patch_64",
            n: patch.len(),
            before_ms: before,
            after_ms: after,
        });
    }

    // One Light-regime halo population from the Q Continuum calibration, as
    // the scenario sweep draws one per run: a binary search over the
    // 4 096-entry CDF per draw vs the guide-table sampler. Same seed, same
    // masses; a population costs tens of µs, hence the repetitions.
    {
        let mf = halo::MassFunction::q_continuum();
        let n = 2_000;
        let rng = || StdRng::seed_from_u64(7);
        assert_eq!(
            massfn_sample_ref(&mf, &mut rng(), n),
            mf.sample_many(&mut rng(), n),
            "massfn_sample_2k: the samplers disagree"
        );
        let sreps = 100 * reps;
        let before = time_ms(sreps, || massfn_sample_ref(&mf, &mut rng(), n));
        let after = time_ms(sreps, || mf.sample_many(&mut rng(), n));
        rows.push(KernelRow {
            kernel: "massfn_sample_2k",
            n,
            before_ms: before,
            after_ms: after,
        });
    }

    rows
}

/// Per-dispatch cost ladder around [`dpp::SMALL_N_THRESHOLD`]: a trivial
/// map at each n on Serial vs Threaded. Below the threshold the Threaded
/// dispatch runs inline (no pool), so its cost tracks Serial; above it the
/// pool round-trip appears. The committed JSON is the measurement that
/// justifies the threshold constant.
fn pool_ladder(quick: bool) -> Vec<(usize, f64, f64)> {
    let reps = if quick { 200 } else { 2000 };
    let threaded = Threaded::with_available_parallelism();
    let mut out = Vec::new();
    for n in [256usize, 512, 1024, 2048, 2304, 4096, 8192, 16_384] {
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let serial_us = {
            let t0 = Instant::now();
            for _ in 0..reps {
                black_box(ops::map(&Serial, &xs, |x| x + 1.0));
            }
            t0.elapsed().as_secs_f64() * 1e6 / reps as f64
        };
        let threaded_us = {
            let t0 = Instant::now();
            for _ in 0..reps {
                black_box(ops::map(&threaded, &xs, |x| x + 1.0));
            }
            t0.elapsed().as_secs_f64() * 1e6 / reps as f64
        };
        out.push((n, serial_us, threaded_us));
    }
    out
}

fn bench_layout_trajectory(_c: &mut Criterion) {
    let quick = quick_mode();
    let rows = trajectory_rows(quick);
    let ladder = pool_ladder(quick);
    let mode = if quick { "quick" } else { "full" };
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"bench-kernels-v1\",\n");
    json.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    json.push_str(&format!(
        "  \"small_n_threshold\": {},\n",
        dpp::SMALL_N_THRESHOLD
    ));
    json.push_str("  \"kernels\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let speedup = r.before_ms / r.after_ms;
        println!(
            "layout-trajectory/{}: n={} before={:.3}ms after={:.3}ms speedup={:.2}x",
            r.kernel, r.n, r.before_ms, r.after_ms, speedup
        );
        json.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"n\": {}, \"before_ms\": {:.4}, \"after_ms\": {:.4}, \"speedup\": {:.4}}}{}\n",
            r.kernel,
            r.n,
            r.before_ms,
            r.after_ms,
            speedup,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"pool_small_n\": [\n");
    for (i, (n, s, t)) in ladder.iter().enumerate() {
        println!("pool-small-n/{n}: serial={s:.2}us threaded={t:.2}us");
        json.push_str(&format!(
            "    {{\"n\": {n}, \"serial_us\": {s:.3}, \"threaded_us\": {t:.3}}}{}\n",
            if i + 1 < ladder.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    if let Ok(path) = std::env::var("BENCH_KERNELS_JSON") {
        std::fs::write(&path, &json).expect("write BENCH_KERNELS_JSON");
        println!("layout-trajectory: wrote {path}");
    }
}

criterion_group! {
    name = benches;
    config = short();
    targets = bench_fft, bench_cic_and_power, bench_kdtree, bench_comm, bench_scheduler,
        bench_layout_trajectory
}
criterion_main!(benches);
