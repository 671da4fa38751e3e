//! Tracing integration tests on the one (default) build: an event is
//! recorded iff a recorder is installed, a fault fires iff an injector is.
//!
//! The co-scheduled workflow plus the batch facility model run under
//! injected faults with the telemetry recorder in logical-clock mode, and
//! the exported Chrome trace must
//!
//! 1. parse as trace-event JSON,
//! 2. contain spans from the seven workflow layers (`dpp`, `comm`, `simhpc`,
//!    `runner`, `listener`, `faults`, `cache`) and the two kernel layers the
//!    stepper records at phase granularity (`nbody`, `fft`), and
//! 3. be **byte-identical** across two runs with the same `CHAOS_SEED`
//!    (the logical clock erases wall-time, and the export orders spans
//!    canonically, so any nondeterminism in the instrumentation shows up
//!    as a diff here).
//!
//! The plan keeps faults to discrete-event sites (comm, runner, scheduler)
//! whose hit counts replay exactly — the poll-driven `listener.*` sites stay
//! fault-free. Two more tests pin that recording never changes a catalog
//! byte and that store faults leave their `faults` instants in the trace,
//! and one that every force solve is one real-to-complex and three
//! complex-to-real transforms (`fft.r2c` / `fft.c2r` under `nbody.pm_solve`),
//! the initial conditions one and four (under `nbody.ic`). A traced sweep
//! carries one `scenarios.scenario` span per scenario and counts every halo
//! it draws (`halo.massfn_draws`), and its logical export and per-scenario
//! counters are the same at every worker count. The subhalo finder, the SO
//! mass and both power spectra record their phase spans.

use cache::{
    digest_bytes, ArtifactCache, CacheKey, DistributedConfig, DistributedStore, FingerprintBuilder,
    SITE_FETCH_REMOTE,
};
use dpp::{Backend, StaticThreaded, Threaded};
use faults::{FaultPlan, SiteSpec};
use hacc_core::runner::{RunnerConfig, TestBed, RUNNER_FAULT_SITE};
use nbody::{Particle, SimConfig, Simulation};
use parking_lot::Mutex;
use scenarios::{
    run_sweep, run_sweep_on, scenario_seed, synthesize, AxisSet, FaultPlanKind, Grammar,
    LoadRegime, MachineKind, SchedulerKind, Strategy, SweepConfig,
};
use simhpc::{machine, BatchSimulator, JobRequest, QueuePolicy, SCHEDULER_FAULT_SITE};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Seed for every plan in this file; override with `CHAOS_SEED=<n>`.
fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// Tests that install process-global state (the fault injector and the
/// telemetry recorder) must not overlap.
static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

fn tiny_cfg(name: &str) -> RunnerConfig {
    RunnerConfig {
        sim: SimConfig {
            np: 16,
            ng: 16,
            nsteps: 30,
            seed: 4242,
            ..SimConfig::default()
        },
        nranks: 4,
        post_ranks: 2,
        linking_length: 0.28,
        threshold: 60,
        min_size: 12,
        workdir: std::env::temp_dir().join(format!("hacc_trace_{name}_{}", std::process::id())),
        ..Default::default()
    }
}

const LAYERS: [&str; 9] = [
    "cache", "comm", "dpp", "faults", "fft", "listener", "nbody", "runner", "simhpc",
];

/// One chaos round: the co-scheduled workflow under global comm/runner
/// faults, then the batch facility model under scheduler faults. Returns the
/// workflow's encoded Level 3 catalog.
fn chaos_round(bed: &TestBed, backend: &Threaded) -> Vec<u8> {
    // Global plan covering the discrete-event sites the workflow consults
    // internally (same shape as chaos.rs's determinism test).
    let injector = FaultPlan::new(chaos_seed())
        .with_site(SiteSpec::transient("comm.send", 0.10))
        .with_site(SiteSpec::transient("comm.recv", 0.10))
        .with_site(SiteSpec::transient(RUNNER_FAULT_SITE, 0.12))
        .build();
    let catalog = {
        let _faults = faults::install(Arc::clone(&injector));
        let run = bed.run_combined_coscheduled(backend, 4);
        assert!(!run.centers.is_empty(), "the workload must do real work");
        cosmotools::encode_centers(&run.centers)
    };

    // The batch-facility model with an explicit injector at the scheduler
    // site: covers the `simhpc` layer.
    let sched = FaultPlan::new(chaos_seed())
        .with_site(SiteSpec::transient(SCHEDULER_FAULT_SITE, 0.3))
        .build();
    let mut sim = BatchSimulator::new(machine::titan(), QueuePolicy::titan());
    sim.inject_faults(sched, faults::BackoffPolicy::default());
    for i in 0..40usize {
        sim.submit(JobRequest::new(
            format!("job{i}"),
            1 + (i * 7) % 64,
            30.0 + i as f64 * 3.0,
            i as f64 * 10.0,
        ));
    }
    let _ = sim.run_to_completion();
    catalog
}

/// One chaos round on a single logical-clock recorder. Returns the exported
/// Chrome JSON.
fn traced_round(bed: &TestBed, backend: &Threaded) -> String {
    let recorder = telemetry::install(Arc::new(telemetry::Recorder::new(
        telemetry::Clock::Logical,
    )));
    chaos_round(bed, backend);
    recorder.finish().chrome_json()
}

/// A cold artifact cache in a wiped directory: every traced round sees the
/// identical hit/miss sequence, so the cache spans replay byte-for-byte.
fn fresh_cache(dir: &std::path::Path) -> Arc<ArtifactCache> {
    let _ = std::fs::remove_dir_all(dir);
    Arc::new(ArtifactCache::open(dir, None).expect("open trace cache"))
}

#[test]
fn armed_chaos_run_exports_identical_seven_layer_traces() {
    let _serial = GLOBAL_LOCK.lock();
    let backend = Threaded::new(4);
    let mut bed = TestBed::create(tiny_cfg("sevenlayer"), &backend);
    let cache_dir = bed.cfg.workdir.join("trace_cache");

    bed.cfg.cache = Some(fresh_cache(&cache_dir));
    let a = traced_round(&bed, &backend);
    bed.cfg.cache = Some(fresh_cache(&cache_dir));
    let b = traced_round(&bed, &backend);

    let v = telemetry::json::parse(&a).expect("exported trace must parse");
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty(), "an armed run must record events");
    let cats: BTreeSet<&str> = events
        .iter()
        .filter_map(|e| e.get("cat").and_then(|c| c.as_str()))
        .collect();
    for layer in LAYERS {
        assert!(
            cats.contains(layer),
            "trace must carry `{layer}` spans, got {cats:?}"
        );
    }

    assert_eq!(
        a, b,
        "same CHAOS_SEED must export byte-identical logical traces"
    );
}

#[test]
fn recording_changes_no_catalog_byte_and_covers_every_layer() {
    let _serial = GLOBAL_LOCK.lock();
    let backend = Threaded::new(4);
    let mut bed = TestBed::create(tiny_cfg("onoff"), &backend);
    let cache_dir = bed.cfg.workdir.join("trace_cache");

    bed.cfg.cache = Some(fresh_cache(&cache_dir));
    let recorder = telemetry::install(Arc::new(telemetry::Recorder::new(telemetry::Clock::Wall)));
    let recorded = chaos_round(&bed, &backend);
    let trace = recorder.finish();

    bed.cfg.cache = Some(fresh_cache(&cache_dir));
    assert!(!telemetry::is_armed());
    let unrecorded = chaos_round(&bed, &backend);

    assert_eq!(
        recorded, unrecorded,
        "installing a recorder must not change the catalog"
    );
    let layers = trace.layers();
    for layer in LAYERS {
        assert!(
            layers.contains(&layer),
            "the default build must record `{layer}` events, got {layers:?}"
        );
    }
}

#[test]
fn every_force_solve_is_one_r2c_and_three_c2r() {
    let _serial = GLOBAL_LOCK.lock();
    let backend = Threaded::new(2);
    let cfg = tiny_cfg("fftspans").sim;
    let cells = (cfg.ng * cfg.ng * cfg.ng) as u64;
    let recorder = telemetry::install(Arc::new(telemetry::Recorder::new(
        telemetry::Clock::Logical,
    )));
    let mut sim = Simulation::new(&backend, cfg);
    for _ in 0..4 {
        sim.step(&backend);
    }
    let trace = recorder.finish();

    let spans = trace.spans();
    let by_id: BTreeMap<u64, _> = spans.iter().map(|s| (s.id, s)).collect();
    // (fft span, its parent) → how many.
    let mut under: BTreeMap<(&str, &str), u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.layer == "fft") {
        assert_eq!(s.arg, cells, "`fft.{}` must carry the cell count", s.name);
        let parent = by_id.get(&s.parent).map(|p| (p.layer, p.name));
        let parent = match parent {
            Some(("nbody", name)) => name,
            other => panic!("`fft.{}` outside an nbody phase: {other:?}", s.name),
        };
        *under.entry((s.name, parent)).or_default() += 1;
    }
    let solves = trace.counters()[&("nbody", "pm_solves")];
    assert_eq!(solves, 5, "four steps are five solves");
    let ics = spans
        .iter()
        .filter(|s| (s.layer, s.name) == ("nbody", "ic"));
    assert_eq!(ics.count(), 1);
    let expect = BTreeMap::from([
        (("c2r", "ic"), 4),
        (("c2r", "pm_solve"), 3 * solves),
        (("r2c", "ic"), 1),
        (("r2c", "pm_solve"), solves),
    ]);
    assert_eq!(under, expect);
}

#[test]
fn fired_store_faults_appear_as_instants() {
    let _serial = GLOBAL_LOCK.lock();
    let dir = std::env::temp_dir().join(format!("hacc_trace_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = DistributedConfig {
        nodes: 3,
        replicas: 2,
        ..DistributedConfig::default()
    };
    let store = DistributedStore::open(&dir, cfg).expect("open store");
    let key = CacheKey::compose(
        "trace-test",
        digest_bytes(b"artifact"),
        FingerprintBuilder::new().finish(),
    );
    store.insert(key, b"payload").expect("insert");

    let recorder = telemetry::install(Arc::new(telemetry::Recorder::new(
        telemetry::Clock::Logical,
    )));
    // The primary's read fails once, so the lookup falls over to the
    // replica: a remote fetch, which stalls and then succeeds.
    let injector = FaultPlan::new(chaos_seed())
        .with_site(SiteSpec::transient("cache.read", 1.0).with_max_faults(1))
        .with_site(SiteSpec::stall(
            SITE_FETCH_REMOTE,
            1.0,
            std::time::Duration::from_millis(1),
        ))
        .build();
    {
        let _faults = faults::install(injector);
        assert_eq!(store.lookup(key).as_deref(), Some(&b"payload"[..]));
    }
    let fired: BTreeSet<(&str, u64)> = recorder
        .finish()
        .spans()
        .iter()
        .filter(|s| s.layer == "faults")
        .map(|s| (s.name, s.arg))
        .collect();
    assert!(fired.contains(&("cache.read", 0)), "got {fired:?}");
    assert!(fired.contains(&(SITE_FETCH_REMOTE, 2)), "got {fired:?}");
}

#[test]
fn traced_sweep_spans_every_scenario_and_counts_every_draw() {
    let _serial = GLOBAL_LOCK.lock();
    let config = SweepConfig {
        base_seed: 3,
        n_seeds: 2,
        grammar: Grammar::new().with_block(
            AxisSet::full()
                .machines([MachineKind::Titan])
                .loads([LoadRegime::Light, LoadRegime::Medium])
                .strategies([Strategy::InSitu, Strategy::CoScheduled])
                .faults([FaultPlanKind::None])
                .schedulers([SchedulerKind::Easy]),
        ),
    };
    let recorder = telemetry::install(Arc::new(telemetry::Recorder::new(
        telemetry::Clock::Logical,
    )));
    let result = run_sweep(&config);
    let trace = recorder.finish();

    let mut scenario_spans: Vec<u64> = trace
        .spans()
        .iter()
        .filter(|s| (s.layer, s.name) == ("scenarios", "scenario"))
        .map(|s| s.arg)
        .collect();
    scenario_spans.sort_unstable();
    let indices: Vec<u64> = (0..result.scenarios.len() as u64).collect();
    assert_eq!(scenario_spans, indices, "one span per scenario");
    let counters = trace.counters();
    assert_eq!(counters[&("scenarios", "runs")], result.total_runs() as u64);
    let drawn: usize = result
        .scenarios
        .iter()
        .flat_map(|s| {
            (0..config.n_seeds as u64)
                .map(|k| synthesize(s.scenario.load, scenario_seed(config.base_seed, &s.id, k)))
        })
        .map(|w| w.spec.halo_sizes.len())
        .sum();
    assert_eq!(counters[&("halo", "massfn_draws")], drawn as u64);
}

/// The smoke sweep (base seed 1, 25 seeds) traced on a logical clock: the
/// Chrome export and the per-scenario `scenarios.*` / `halo.massfn_draws`
/// counters are the same on one, two and three workers and on three static
/// blocks. Every side dispatches once through a pool, so every side records
/// the same `dpp.dispatch` span.
#[test]
fn traced_sweep_is_identical_at_every_worker_count() {
    let _serial = GLOBAL_LOCK.lock();
    let config = SweepConfig {
        base_seed: 1,
        n_seeds: 25,
        grammar: Grammar::smoke(),
    };
    let traced = |backend: &dyn Backend| {
        let recorder = telemetry::install(Arc::new(telemetry::Recorder::new(
            telemetry::Clock::Logical,
        )));
        run_sweep_on(backend, &config);
        let trace = recorder.finish();
        let counters: BTreeMap<_, u64> = trace
            .counters_by_dim()
            .into_iter()
            .filter(|&((layer, name, _), _)| {
                layer == "scenarios" || (layer, name) == ("halo", "massfn_draws")
            })
            .collect();
        (trace.chrome_json(), counters)
    };
    let (json, counters) = traced(&Threaded::new(1));
    let scenarios = config.grammar.expand().len() as u64;
    for dim in 0..scenarios {
        assert_eq!(counters[&("scenarios", "runs", dim)], 25, "dim {dim}");
        assert!(counters[&("halo", "massfn_draws", dim)] > 0, "dim {dim}");
    }
    assert_eq!(counters.len() as u64, 2 * scenarios, "{counters:?}");
    for (name, backend) in [
        ("threaded(2)", &Threaded::new(2) as &dyn Backend),
        ("threaded(3)", &Threaded::new(3)),
        ("static-threaded(3)", &StaticThreaded::new(3)),
    ] {
        let (j, c) = traced(backend);
        assert!(j == json, "logical export drifted on {name}");
        assert_eq!(c, counters, "per-scenario counters drifted on {name}");
    }
}

/// Two clumps of `n` unit-mass particles, the second `gap` along x.
fn two_clumps(n: usize, gap: f32) -> Vec<Particle> {
    (0..2 * n)
        .map(|i| {
            let t = i as f32;
            let offset = if i < n { 0.0 } else { gap };
            let jitter = |f: f32| ((t * f).fract() - 0.5) * 0.6;
            Particle::at_rest(
                [
                    8.0 + offset + jitter(0.618),
                    8.0 + jitter(0.414),
                    8.0 + jitter(0.732),
                ],
                1.0,
                i as u64,
            )
        })
        .collect()
}

/// The analysis kernels without a span of their own until now: the subhalo
/// finder (tree, densities, walk, unbinding), the SO mass, and the power
/// spectrum (deposit, transform, binning) each record their phases, and a
/// second identical run exports the same logical trace.
#[test]
fn analysis_kernels_record_their_phase_spans() {
    let _serial = GLOBAL_LOCK.lock();
    let particles = two_clumps(150, 4.0);
    let (ng, box_size) = (16usize, 32.0);
    let run = || {
        let recorder = telemetry::install(Arc::new(telemetry::Recorder::new(
            telemetry::Clock::Logical,
        )));
        let subs = halo::find_subhalos(&particles, &halo::SubhaloParams::default());
        assert!(!subs.is_empty(), "the clumps must be found");
        assert!(halo::so_mass(&particles, [8.0; 3], 200.0, 1e-3).is_some());
        cosmotools::compute_power_spectrum(&Threaded::new(2), &particles, ng, box_size, 8);
        recorder.finish()
    };
    let trace = run();
    let spans = trace.spans();
    let by_id: BTreeMap<u64, _> = spans.iter().map(|s| (s.id, s)).collect();
    let n = particles.len() as u64;
    for phase in [
        "subhalo_tree",
        "subhalo_densities",
        "subhalo_walk",
        "subhalo_unbind",
    ] {
        let s = spans
            .iter()
            .find(|s| (s.layer, s.name) == ("halo", phase))
            .unwrap_or_else(|| panic!("no `halo.{phase}` span"));
        let parent = by_id[&s.parent];
        assert_eq!((parent.name, parent.arg), ("find_subhalos", n), "{phase}");
    }
    let have: BTreeSet<(&str, &str, u64)> =
        spans.iter().map(|s| (s.layer, s.name, s.arg)).collect();
    assert!(have.contains(&("halo", "so_mass", n)), "{have:?}");
    let layer = "cosmotools.powerspectrum";
    for phase in ["deposit", "transform", "binning"] {
        assert!(have.contains(&(layer, phase, ng as u64)), "{phase}");
    }
    assert_eq!(trace.chrome_json(), run().chrome_json());
}
