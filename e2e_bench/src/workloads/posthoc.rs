//! `posthoc` — the five post-hoc strategies over one finished simulation.
//! The simulation is outside the timed region, so `halo` (FOF/MBP),
//! `comm::redistribute`, `genio` file I/O and the runner's own bookkeeping
//! dominate. A cold phase (no cache) uses nothing of `cache`; a warm phase
//! re-runs the four memoizable strategies against a filled `ArtifactCache`,
//! which the cold-with-cache pass before it used as a writer.

use super::testbed::{self, Bed, CatalogCheck};
use super::{record_trace, timed_loop, timed_setup, Outcome, Params};
use crate::host::{self, Scratch};
use crate::probes;
use crate::trace::{SpanId, Tracer, ROOT_LAYER};
use cache::ArtifactCache;
use comm::{CartDecomp, World};
use cosmotools::{CenterRecord, Container};
use dpp::Backend;
use hacc_core::{TestBed, WorkflowRun};
use nbody::Particle;
use std::sync::Arc;
use std::time::Instant;

type Strategy = fn(&TestBed, &dyn Backend) -> WorkflowRun;

/// `(wall metric, entry point, memoizable)`, in pass order.
const STRATEGIES: [(&str, Strategy, bool); 5] = [
    ("runner.in_situ.wall_ms", TestBed::run_in_situ_only, false),
    ("runner.offline.wall_ms", TestBed::run_offline_only, true),
    ("runner.simple.wall_ms", TestBed::run_combined_simple, true),
    (
        "runner.intransit.wall_ms",
        TestBed::run_combined_intransit,
        true,
    ),
    (
        "runner.intransit_stream.wall_ms",
        TestBed::run_combined_intransit_streamed,
        true,
    ),
];

/// Share of `--seconds` the cold passes get; the warm passes get the rest.
const COLD_SHARE: f64 = 0.75;

/// What one pass over the strategies measured.
struct Pass {
    wall: f64,
    runs: Vec<(f64, WorkflowRun)>,
}

/// One pass over the strategies (all five, or the memoizable four), each
/// timed and checked on its own.
fn run_pass(
    fx: &Bed,
    backend: &dyn Backend,
    checks: &mut [CatalogCheck; 5],
    memoizable_only: bool,
    out: &mut Outcome,
) -> Pass {
    let t_pass = Instant::now();
    let mut runs = Vec::new();
    for (i, (_, strategy, memoizable)) in STRATEGIES.iter().enumerate() {
        if memoizable_only && !memoizable {
            continue;
        }
        let t = Instant::now();
        let run = strategy(&fx.bed, backend);
        let wall = t.elapsed().as_secs_f64();
        out.op(checks[i].check(&fx.reference, &run));
        runs.push((wall, run));
    }
    Pass {
        wall: t_pass.elapsed().as_secs_f64(),
        runs,
    }
}

/// Run the workload.
pub fn run(p: &Params, scratch: &Scratch) -> Outcome {
    let mut out = Outcome::default();
    let backend = host::backend();
    let mut fx = timed_setup(p, &mut out, 2, || {
        testbed::build(p, scratch.fresh("posthoc"), &backend)
    });
    let mut checks: [CatalogCheck; 5] = Default::default();

    // Cold phase: every strategy computes from scratch.
    run_pass(&fx, &backend, &mut checks, false, &mut out);
    let mut cold = Vec::new();
    let mut pool_deltas = Vec::new();
    timed_loop(p, COLD_SHARE, 2, || {
        let pass = probes::with_pool_delta(&backend, &mut pool_deltas, || {
            run_pass(&fx, &backend, &mut checks, false, &mut out)
        });
        out.iteration(pass.wall);
        cold.push(pass);
    });

    // Warm phase: one pass fills the cache, the timed ones only read it.
    let cache = ArtifactCache::open(scratch.fresh("posthoc-cache"), None).expect("open cache");
    fx.bed.cfg.cache = Some(Arc::new(cache));
    run_pass(&fx, &backend, &mut checks, true, &mut out);
    let mut warm = Vec::new();
    timed_loop(p, 1.0 - COLD_SHARE, 2, || {
        let pass = run_pass(&fx, &backend, &mut checks, true, &mut out);
        // A warm pass that recomputes anything is a failed operation.
        let recomputes: u64 = pass.runs.iter().map(|(_, r)| r.cache_misses).sum();
        out.op(recomputes == 0);
        warm.push(pass);
    });
    let warm_walls: Vec<f64> = warm.iter().map(|p| p.wall).collect();
    out.set_samples("warm_rerun_s", &warm_walls);
    fx.bed.cfg.cache = None;

    if p.trace {
        report(&mut out, &cold, &warm);
        probes::pool_report(&mut out, &pool_deltas);
        probes::halo_comm_genio(&mut out, &backend, &fx.bed, scratch);
        let untraced = &cold[0].runs[1];
        traced_offline(&mut out, &fx.bed, &backend, untraced);
    }
    out
}

/// `runner.*` and the `halo.*` report metrics, from the `WorkflowRun`s.
fn report(out: &mut Outcome, cold: &[Pass], warm: &[Pass]) {
    for (i, (metric, _, _)) in STRATEGIES.iter().enumerate() {
        let walls: Vec<f64> = cold.iter().map(|p| p.runs[i].0 * 1e3).collect();
        out.set_samples(metric, &walls);
    }
    let offline =
        |f: fn(&WorkflowRun) -> f64| -> Vec<f64> { cold.iter().map(|p| f(&p.runs[1].1)).collect() };
    out.set_samples("runner.offline.read_s", &offline(|r| r.phases.read));
    out.set_samples("runner.offline.write_s", &offline(|r| r.phases.write));
    out.set_samples(
        "runner.offline.redistribute_s",
        &offline(|r| r.phases.redistribute),
    );
    out.set_samples("runner.offline.analysis_s", &offline(|r| r.phases.analysis));
    // What the runner spends outside its own phase clocks, summed over the
    // five strategies of a pass (the simulation phase is the fixture's).
    let overhead: Vec<f64> = cold
        .iter()
        .map(|p| {
            p.runs
                .iter()
                .map(|(wall, r)| (wall - (r.phases.total() - r.phases.sim)) * 1e3)
                .sum()
        })
        .collect();
    out.set_samples("runner.overhead_ms", &overhead);

    let per_pass = |f: fn(&WorkflowRun) -> f64| -> Vec<f64> {
        warm.iter()
            .map(|p| p.runs.iter().map(|(_, r)| f(r)).sum())
            .collect()
    };
    out.set_samples("runner.warm.cache_hits", &per_pass(|r| r.cache_hits as f64));
    out.set_samples(
        "runner.warm.cache_misses",
        &per_pass(|r| r.cache_misses as f64),
    );
    out.set_samples(
        "runner.warm.saved_analysis_s",
        &per_pass(|r| r.saved_analysis_seconds),
    );

    // Table 2's quantities, from the in-situ run of each cold pass.
    let center = |t: &halo::RankTiming| t.center_seconds;
    let over_ranks = |f: fn(&halo::RankTiming) -> f64, pick: fn(f64, f64) -> f64| -> Vec<f64> {
        cold.iter()
            .map(|p| {
                let ranks = p.runs[0].1.rank_timings.iter().map(f);
                ranks.reduce(pick).unwrap_or(0.0)
            })
            .collect()
    };
    out.set_samples("halo.find_max_s", &over_ranks(|t| t.find_seconds, f64::max));
    let center_max = over_ranks(center, f64::max);
    out.set_samples("halo.center_max_s", &center_max);
    let imbalance: Vec<f64> = center_max
        .iter()
        .zip(over_ranks(center, f64::min))
        .map(|(max, min)| max / min.max(1e-12))
        .collect();
    out.set_samples("halo.center_imbalance", &imbalance);
    let first = &cold[0].runs[0].1;
    out.set("halo.halos", first.centers.len() as f64);
    out.set(
        "halo.largest_halo",
        first.centers.iter().map(|c| c.count).max().unwrap_or(0) as f64,
    );
}

/// The off-line strategy re-composed from the layers' public calls, under
/// spans: `write_file` → `read_file` → `World::run(redistribute)` →
/// `World::run(fof_and_centers_timed)` → `centers_from_catalog` + merge. Its
/// catalog must equal the untraced `run_offline_only`'s, byte for byte.
fn traced_offline(
    out: &mut Outcome,
    bed: &TestBed,
    backend: &dyn Backend,
    untraced: &(f64, WorkflowRun),
) {
    let tracer = Tracer::new();
    let root = tracer.begin(None, ROOT_LAYER, "iteration", 0);
    let centers = offline_recomposed(&tracer, root, bed, backend);
    tracer.end(root);
    let same =
        cosmotools::encode_centers(&centers) == cosmotools::encode_centers(&untraced.1.centers);
    out.op(same);
    record_trace(out, &tracer, untraced.0);
}

fn offline_recomposed(
    tracer: &Tracer,
    root: SpanId,
    bed: &TestBed,
    backend: &dyn Backend,
) -> Vec<CenterRecord> {
    let cfg = &bed.cfg;
    let path = cfg.workdir.join("level1.hcio");
    let container = tracer.scope(root, "core.runner", "distributed", |_| Container {
        meta: bed.meta.clone(),
        blocks: bed.distributed(),
    });
    tracer.scope(root, "cosmotools.genio", "write_file_digest", |_| {
        cosmotools::write_file_digest(&path, &container).expect("write level 1")
    });
    drop(container);
    let blocks = tracer.scope(root, "cosmotools.genio", "read_file", |_| {
        cosmotools::read_file(&path)
            .expect("io")
            .expect("valid level 1 container")
            .blocks
    });

    let nranks = cfg.nranks;
    let decomp = CartDecomp::new(nranks, cfg.sim.cosmology.box_size);
    let per_rank: Vec<Vec<Particle>> = tracer.scope(root, "comm", "World::run", |world_span| {
        World::new(nranks).run(|c| {
            tracer.scope(world_span, "comm", "redistribute", |_| {
                // Round-robin initial placement, as a fresh job would read it.
                let mine: Vec<Particle> = blocks
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % nranks == c.rank())
                    .flat_map(|(_, b)| b.iter().copied())
                    .collect();
                comm::redistribute(c, &decomp, mine)
            })
        })
    });

    let fof = cfg.fof();
    let catalogs = tracer.scope(root, "comm", "World::run", |world_span| {
        World::new(nranks).run(|c| {
            tracer.scope(world_span, "halo", "fof_and_centers_timed", |_| {
                halo::fof_and_centers_timed(
                    c,
                    &decomp,
                    &per_rank[c.rank()],
                    &fof,
                    backend,
                    cfg.softening,
                    usize::MAX,
                )
                .0
            })
        })
    });

    tracer.scope(root, "cosmotools.driver", "centers_from_catalog", |_| {
        let mut centers: Vec<CenterRecord> = catalogs
            .iter()
            .flat_map(cosmotools::centers_from_catalog)
            .collect();
        centers.sort_by_key(|r| r.halo_id);
        centers
    })
}
