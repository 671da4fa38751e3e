//! Tier-1 conformance suite: differential backend agreement, metamorphic
//! physics oracles, exhaustive crash-schedule exploration, golden-run
//! fixtures, and focused listener regressions.
//!
//! Scope knobs:
//!
//! * `CONFORMANCE_SEED=<n>` — seed for the oracle universes and the
//!   explorer's workflow inputs (default 1, so CI can sweep).
//! * `CONFORMANCE_EXHAUSTIVE=1` — crash at *every* recorded `(site, hit)`
//!   pair instead of the first hit per site (the nightly job's setting).
//! * `BLESS=1` (`just bless`) — regenerate the golden fixtures under
//!   `tests/goldens/` instead of comparing against them.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use conformance::explorer::{ExplorerConfig, EXPECTED_SITES};
use conformance::{golden, oracles};
use hacc_core::experiments;
use hacc_core::{format_table4, Listener, ListenerConfig, TitanFrame};
use parking_lot::Mutex;

/// Tests that install a process-global fault injector, or that reach
/// fault-instrumented code (listener, cache, comm), must not overlap with
/// each other: an armed crash schedule in one test would fire inside
/// another.
static GLOBAL_INJECTOR_LOCK: Mutex<()> = Mutex::new(());

fn conf_seed() -> u64 {
    std::env::var("CONFORMANCE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

fn exhaustive_requested() -> bool {
    std::env::var("CONFORMANCE_EXHAUSTIVE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("conformance-suite")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn goldens_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens")
}

fn check_golden(name: &str, actual: &str) {
    match golden::compare_or_bless(&goldens_dir().join(name), actual) {
        Ok(_) => {}
        Err(msg) => panic!("{msg}"),
    }
}

// ---------------------------------------------------------------------------
// Differential backends
// ---------------------------------------------------------------------------

/// Both dpp primitives (`map`, `argmin_by`), every backend, every adversarial
/// corpus case: byte agreement with the Serial reference under the documented
/// total-order semantics. Non-finite inputs are in the corpus, so this is
/// where NaN-ordering or chunk-merge regressions surface first.
#[test]
fn dpp_differential_backends_agree() {
    let report = conformance::assert_dpp_conformance();
    // The corpus is not supposed to silently shrink: 16 `f64` cases × 5
    // backends × 2 op families.
    assert!(
        report.checks >= 160,
        "differential corpus collapsed to {} checks",
        report.checks
    );
    assert!(
        report.backends.len() >= 5,
        "expected threaded/pool-shared/static roster, got {:?}",
        report.backends
    );
}

/// Every SoA/column kernel (CIC deposits, FOF engines, MBP) and
/// both passes of the PM solve (tiled 3-D FFT, fused k-space sweep) against
/// its scalar / brute-force / per-line reference in `conformance::layout`,
/// bit-for-bit, on every backend, over the adversarial particle/coordinate
/// corpus — NaN of either sign, ±inf, signed zeros, denormals, and
/// grain-boundary lengths included.
#[test]
fn layout_rewrites_agree_with_row_references() {
    let report = conformance::assert_layout_conformance();
    for kernel in conformance::REQUIRED_KERNELS {
        let checks = report.checks_by_op.get(kernel).copied().unwrap_or(0);
        assert!(
            checks > 0,
            "layout differential ran zero checks for kernel `{kernel}`"
        );
    }
    // The battery's full count: 2 057 over the twelve families (452 of them
    // `mbp-cols`, 383 `fof-axes`, 336 `cic-gather`, 138 `fft3d-tiled`), so no
    // check can disappear unnoticed. A family that grows raises this floor
    // with it.
    assert!(
        report.checks >= 2057,
        "layout corpus collapsed to {} checks",
        report.checks
    );
    assert!(
        report.backends.len() >= 5,
        "expected the full backend roster, got {:?}",
        report.backends
    );
}

/// The KDK stepper solves the PM force and reads the force mesh once per step
/// by carrying the closing kick's gathered per-particle acceleration to the
/// next opening kick. That must be invisible: stepping with it discarded
/// before every step, and restarting from any (possibly mutated) mid-run
/// state, give the same bits after every step on every backend; and an
/// N-step run performs exactly N + 1 solves and N + 1 gathers.
#[test]
fn carried_force_field_is_invisible_and_counted() {
    conformance::assert_integrator_conformance();
}

/// The in-situ visualization battery: every backend renders byte-identical
/// frames over the adversarial corpus, and the permutation / projected-mass /
/// LOD-monotonicity / axis-relabel metamorphic oracles all hold.
#[test]
fn render_battery_backends_and_oracles_agree() {
    let report = conformance::assert_render_conformance();
    for oracle in conformance::REQUIRED_RENDER_ORACLES {
        let checks = report.checks_by_op.get(oracle).copied().unwrap_or(0);
        assert!(checks > 0, "render battery ran zero checks for `{oracle}`");
    }
    assert!(
        report.checks > 400,
        "render corpus collapsed to {} checks",
        report.checks
    );
    assert!(
        report.backends.len() >= 5,
        "expected the full backend roster, got {:?}",
        report.backends
    );
}

// ---------------------------------------------------------------------------
// Metamorphic physics oracles
// ---------------------------------------------------------------------------

/// FOF invariance (permutation / periodic translation / rank splits),
/// MBP brute ≡ A*, FFT Parseval + impulse identities, SO-mass monotonicity.
#[test]
fn physics_oracles_hold() {
    // Rank-split invariance runs a comm World (fault-instrumented sites).
    let _serial = GLOBAL_INJECTOR_LOCK.lock();
    let failures = oracles::run_all(conf_seed());
    assert!(
        failures.is_empty(),
        "{} oracle(s) failed:\n{}",
        failures.len(),
        failures.join("\n---\n")
    );
}

// ---------------------------------------------------------------------------
// Exhaustive crash-schedule exploration
// ---------------------------------------------------------------------------

/// Record-only pass enumerates every fault site the mini-workflow reaches;
/// the sweep then crashes each one and requires a byte-identical recovered
/// catalog with exactly-once analysis. Coverage is asserted against what was
/// *reached*, not a hand-maintained list — plus [`EXPECTED_SITES`] as a
/// floor so a site silently vanishing from the workflow also fails.
#[test]
fn crash_schedules_recover_exactly_once() {
    let _serial = GLOBAL_INJECTOR_LOCK.lock();
    let mut cfg = ExplorerConfig::new(scratch("explorer"));
    cfg.seed = conf_seed();
    cfg.exhaustive = exhaustive_requested();
    let report = conformance::explore(&cfg);
    report.assert_exhaustive();
    let expected_min = if cfg.exhaustive {
        // 7 deterministic sites × 3 hits each is the floor; scan adds more.
        EXPECTED_SITES.len() - 1 + 3
    } else {
        EXPECTED_SITES.len()
    };
    assert!(
        report.schedules.len() >= expected_min,
        "only {} schedules explored (expected at least {expected_min})",
        report.schedules.len()
    );
}

/// The render half of the crash story: a record pass enumerates every
/// `render.*` site the co-scheduled workflow reaches, then a sweep crashes
/// each `(site, hit)` — every schedule must lose exactly the crashed frame,
/// recover a byte-identical catalog on a warm re-run, and leave a steady
/// re-run with zero frames to recompute.
#[test]
fn render_crash_schedules_recover_every_frame() {
    let _serial = GLOBAL_INJECTOR_LOCK.lock();
    let mut cfg = conformance::RenderExplorerConfig::new(scratch("render-explorer"));
    cfg.seed = conf_seed();
    if exhaustive_requested() {
        cfg.nsteps = 12;
    }
    let report = conformance::explore_render(&cfg);
    report.assert_exhaustive();
    // One frame per step, one schedule per frame: 100% of reached hits.
    assert_eq!(report.reference.len(), cfg.nsteps);
    assert_eq!(report.schedules.len(), cfg.nsteps);
}

// ---------------------------------------------------------------------------
// Listener regressions under crash-like conditions
// ---------------------------------------------------------------------------

/// Regression: orphan `.tmp` files — both pre-existing (stranded by an
/// earlier crash between staging and publish) and appearing mid-run — are
/// never submitted, while properly published files are.
#[test]
fn listener_never_submits_orphan_tmp() {
    let _serial = GLOBAL_INJECTOR_LOCK.lock();
    let dir = scratch("tmp-exclusion");
    // Stranded by a "crashed emitter" before the listener ever starts.
    std::fs::write(dir.join("l2_0.tmp"), b"half-written junk").unwrap();
    let submissions: Arc<Mutex<Vec<PathBuf>>> = Arc::new(Mutex::new(Vec::new()));
    let s2 = Arc::clone(&submissions);
    let cfg = ListenerConfig {
        poll_interval: Duration::from_millis(5),
        prefix: "l2_".to_string(),
        ..ListenerConfig::default()
    };
    let listener = Listener::spawn_with(dir.clone(), cfg, move |p| {
        s2.lock().push(p.to_path_buf());
        Ok(())
    });
    // A properly published file and a second orphan appearing mid-run.
    std::fs::write(dir.join("l2_1"), b"published payload").unwrap();
    std::fs::write(dir.join("l2_2.tmp"), b"still being staged").unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while listener.handled() < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let report = listener.stop_report();
    let subs = submissions.lock();
    assert_eq!(subs.as_slice(), &[dir.join("l2_1")], "wrong submission set");
    assert_eq!(report.submitted, subs.as_slice());
    assert!(!report.crashed);
    // The orphans are ignored, not deleted: cleanup is the emitter's job.
    assert!(dir.join("l2_0.tmp").exists());
    assert!(dir.join("l2_2.tmp").exists());
}

/// Regression: the quiescence gate holds submission of a file that is
/// growing under its final name until its size is stable — the job must see
/// the complete bytes, in one submission, with zero retries.
#[test]
fn quiescence_gate_defers_slow_writers() {
    let _serial = GLOBAL_INJECTOR_LOCK.lock();
    let dir = scratch("quiescence");
    let seen: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(Vec::new()));
    let s2 = Arc::clone(&seen);
    let cfg = ListenerConfig {
        poll_interval: Duration::from_millis(10),
        prefix: "l2_".to_string(),
        ..ListenerConfig::default()
    };
    let listener = Listener::spawn_with(dir.clone(), cfg, move |p| {
        s2.lock()
            .push(std::fs::read(p).expect("read submitted file"));
        Ok(())
    });
    // Stream the file out under its final name across many poll intervals.
    // The 2ms chunk cadence stays well under the 10ms poll interval, so the
    // size never looks stable until the write is complete.
    let full: Vec<u8> = (0..4096u32).flat_map(|i| i.to_le_bytes()).collect();
    let path = dir.join("l2_slow");
    {
        use std::io::Write as _;
        // No fsync between chunks: a same-host reader sees page-cache writes
        // immediately, and fsync latency would stall the writer past a poll
        // interval, making a partial file look quiescent.
        let mut f = std::fs::File::create(&path).unwrap();
        for chunk in full.chunks(full.len() / 30 + 1) {
            f.write_all(chunk).unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while listener.handled() < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let report = listener.stop_report();
    let seen = seen.lock();
    assert_eq!(seen.len(), 1, "expected exactly one submission");
    assert_eq!(seen[0], full, "job saw torn bytes past the quiescence gate");
    assert_eq!(report.submit_retries, 0);
    assert_eq!(report.submitted, vec![path]);
}

// ---------------------------------------------------------------------------
// Golden-run fixtures
// ---------------------------------------------------------------------------

/// Table 1 (strong-scaling model) golden. `just bless` regenerates.
#[test]
fn golden_table1_strong_scaling() {
    check_golden(
        "table1.txt",
        &experiments::format_table1(&experiments::table1()),
    );
}

/// Table 3 (workflow wall-clock costs) golden, fixed seed 1.
#[test]
fn golden_table3_workflow_costs() {
    let costs = experiments::table3_4(&TitanFrame::default(), 1);
    check_golden("table3.txt", &experiments::format_table3(&costs));
}

/// Table 4 (cost-model breakdown) golden, same fixed-seed costs as Table 3.
#[test]
fn golden_table4_cost_breakdown() {
    let costs = experiments::table3_4(&TitanFrame::default(), 1);
    check_golden("table4.txt", &format_table4(&costs));
}

/// The rendered frame stream is a golden too: per-frame content digests of
/// the fault-free co-scheduled reference run at seed 1. Any change to the
/// deposit, projection, tone map, or HCIM container shows up as a
/// line-level digest diff (`just bless` re-blesses deliberate changes).
#[test]
fn golden_render_frame_digests() {
    let _serial = GLOBAL_INJECTOR_LOCK.lock();
    let mut cfg = conformance::RenderExplorerConfig::new(scratch("render-golden"));
    cfg.seed = 1;
    let catalog = conformance::render_reference_catalog(&cfg);
    check_golden(
        "render_frames_seed1.txt",
        &conformance::catalog_digest_lines(&catalog),
    );
}

/// The explorer's reference catalog is itself a golden: the mini-workflow's
/// byte output for seed 1 must not drift across refactors (hex-dumped so the
/// fixture is a reviewable text file).
#[test]
fn golden_explorer_reference_catalog() {
    let _serial = GLOBAL_INJECTOR_LOCK.lock();
    let mut cfg = ExplorerConfig::new(scratch("golden-catalog"));
    cfg.seed = 1;
    let catalog = conformance::explorer::reference_catalog(&cfg);
    let hex: String = catalog
        .chunks(32)
        .map(|row| row.iter().map(|b| format!("{b:02x}")).collect::<String>() + "\n")
        .collect();
    check_golden("explorer_catalog_seed1.hex", &hex);
}

/// The stepper's bits are a golden: one digest of positions, momenta and tags
/// (storage order) per (backend, step), 16³ × 6 steps at seed 1, `Simulation`
/// on three backends. A change that moves an operand in the kick, the drift
/// or the force solve shows up as the first differing step.
#[test]
fn golden_stepper_bits() {
    use dpp::{Backend, Serial, StaticThreaded, Threaded};
    use nbody::{Cosmology, Particle, SimConfig, Simulation};

    let cfg = SimConfig {
        cosmology: Cosmology {
            box_size: 32.0,
            sigma_cell: 2.5,
            ..Cosmology::default()
        },
        np: 16,
        ng: 16,
        z_init: 30.0,
        z_final: 0.0,
        nsteps: 6,
        seed: 1,
    };
    fn digest(particles: &[Particle]) -> cache::Digest {
        let mut h = cache::Hasher::new();
        for p in particles {
            for v in p.pos.iter().chain(&p.vel) {
                h.update(&v.to_bits().to_le_bytes());
            }
            h.update(&p.tag.to_le_bytes());
        }
        h.finish()
    }

    let mut lines = String::new();
    let backends: [(&str, Box<dyn Backend>); 3] = [
        ("serial", Box::new(Serial)),
        ("threaded-2", Box::new(Threaded::new(2))),
        ("static-3", Box::new(StaticThreaded::new(3))),
    ];
    for (name, b) in &backends {
        let b = b.as_ref();
        Simulation::new(b, cfg.clone()).run_with_hook(b, |step, sim| {
            let d = digest(sim.particles());
            lines += &format!("sim {name} rank 0 step {step} {d}\n");
        });
    }
    check_golden("stepper_bits_seed1.txt", &lines);
}

/// The production mesh's bits are a golden: digests of `RealFft3d`'s forward
/// transform of a seeded 64³ field and of the inverse of that spectrum, then
/// one digest of positions, momenta and tags per step of a four-step 64³
/// run on two workers. The stepper golden above is 16³, where no strided
/// FFT run is partial and the force mesh fits in cache; this one pins the
/// mesh size the workflows run.
#[test]
fn golden_pm_bits_64() {
    use dpp::Threaded;
    use fft::{Grid3, RealFft3d};
    use nbody::{Particle, SimConfig, Simulation};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn digest(words: impl Iterator<Item = u64>) -> cache::Digest {
        let mut h = cache::Hasher::new();
        for w in words {
            h.update(&w.to_le_bytes());
        }
        h.finish()
    }
    fn particle_words(p: &Particle) -> impl Iterator<Item = u64> + '_ {
        let fields = p.pos.iter().chain(&p.vel).map(|v| u64::from(v.to_bits()));
        fields.chain(std::iter::once(p.tag))
    }

    let backend = Threaded::new(2);
    let dims = [64usize; 3];
    let mut rng = StdRng::seed_from_u64(0x5EED_0064);
    let field = (0..dims.iter().product::<usize>()).map(|_| rng.gen_range(-1.0..3.0));
    let field = Grid3::from_vec(dims, field.collect());
    let plan = RealFft3d::new(dims).expect("power-of-two mesh");
    let spectrum = plan.forward(&backend, &field).expect("planned dims");
    let words = spectrum.as_slice().iter();
    let forward = digest(words.flat_map(|z| [z.re.to_bits(), z.im.to_bits()]));
    let back = plan.inverse(&backend, spectrum).expect("planned dims");
    let inverse = digest(back.as_slice().iter().map(|v| v.to_bits()));
    let mut lines = format!("rfft3d [64, 64, 64] forward {forward}\n");
    lines += &format!("rfft3d [64, 64, 64] inverse {inverse}\n");

    let cfg = SimConfig {
        np: 64,
        ng: 64,
        nsteps: 4,
        seed: 64,
        ..SimConfig::default()
    };
    Simulation::new(&backend, cfg).run_with_hook(&backend, |step, sim| {
        let d = digest(sim.particles().iter().flat_map(particle_words));
        lines += &format!("sim threaded-2 64^3 step {step} {d}\n");
    });
    check_golden("pm_bits_64.txt", &lines);
}
