//! The in-situ visualization battery: differential and metamorphic oracles
//! over the `render` algorithm family, plus a crash-schedule sweep over the
//! co-scheduled workflow's `render.emit` fault site.
//!
//! The render pipeline makes a determinism claim stronger than the halo
//! pipeline's: every backend must produce **byte-identical images** (the
//! deposit runs through [`cic_deposit_exact`], whose fixed-point sum no
//! order, chunking or worker count can move, so there is no reassociation
//! escape hatch, not even for the static scheduler). The battery checks that
//! claim and the geometry around it:
//!
//! * `render-backend` — differential: [`cosmotools::render_frame`] over the
//!   adversarial particle corpus on every roster backend, every axis, with
//!   and without a LOD budget, byte-compared against Serial.
//! * `render-permutation` — metamorphic: reordering the input particle set
//!   (reversed, rotated, a seeded shuffle) never changes a single pixel (the
//!   LOD total order selects the same particles, and the exact deposit does
//!   not see their order).
//! * `render-mass` — metamorphic: the projected map reproduces an inline
//!   re-projection of the 3-D deposit grid and the summed image mass equals
//!   the grid total — 0 ULP for every non-NaN value under the documented
//!   accumulation association (NaN bins compare as a class: an `fadd`'s
//!   surviving NaN sign/payload is unspecified across compilations);
//!   totals across the three axes agree to 1e-9.
//! * `render-lod` — metamorphic: shrinking the byte budget shrinks the
//!   selection monotonically, and every smaller selection is exactly a
//!   prefix of every larger one.
//! * `render-axis` — metamorphic: cyclically rotating particle coordinates
//!   relabels the projection axes — the image along X equals the rotated
//!   set's image along Z, and the Y/Z images equal transposed rotated
//!   images (approximate: the CIC weight product reassociates under
//!   rotation).
//! * `render-lod-reuse` — differential: a [`cosmotools::LodCache`] that has
//!   already drawn the case renders the changed set exactly as a fresh
//!   `render_frame` does — one tag changed, two particles swapped, one
//!   appended, the seed changed, a duplicate tag (reuse off), positions
//!   moved (reuse on) — over every axis, at budgets 0, half and one
//!   particle.
//!
//! [`explore_render`] is the fault-tolerance half: a fault-free co-scheduled
//! reference run pins the expected frame catalog, a record-only pass
//! enumerates every `render.*` fault site actually reached, and a sweep
//! crashes each `(site, hit)` in turn, requiring every schedule to lose
//! exactly the crashed frame, recover it on a warm re-run (replaying all
//! survivors from the artifact cache), and converge to a byte-identical
//! catalog — after which a third run recomputes nothing at all.
//!
//! [`cic_deposit_exact`]: nbody::pm::cic_deposit_exact

use std::path::{Path, PathBuf};
use std::sync::Arc;

use cache::ArtifactCache;
use cosmotools::{
    lod_select, project_density, render_frame, render_projection, Axis, LodCache, RenderParams,
    PARTICLE_RENDER_BYTES,
};
use dpp::Serial;
use faults::{FaultPlan, SiteSpec};
use hacc_core::{RunnerConfig, TestBed, RENDER_FAULT_SITE};
use nbody::pm::cic_deposit_exact;
use nbody::soa::ParticleSoA;
use nbody::Particle;

use crate::differential::{roster, Cmp, DiffReport};
use crate::inputs;

/// Every oracle family the render battery must exercise;
/// [`assert_render_conformance`] fails if any ran zero checks.
pub const REQUIRED_RENDER_ORACLES: [&str; 6] = [
    "render-backend",
    "render-permutation",
    "render-mass",
    "render-lod",
    "render-axis",
    "render-lod-reuse",
];

/// Image edge used throughout the battery (small: the oracles are about
/// bit patterns, not resolution).
const RENDER_NG: usize = 12;
/// Box size matching the corpus generator's position range.
const BOX_SIZE: f64 = 32.0;
/// LOD hash seed pinned for the whole battery.
const LOD_SEED: u64 = 7;

fn params(axis: Axis, byte_budget: u64) -> RenderParams {
    RenderParams {
        ng: RENDER_NG,
        axis,
        byte_budget,
        lod_seed: LOD_SEED,
    }
}

/// A particle's raw bit pattern: the comparison key for selections that may
/// contain NaN coordinates (`PartialEq` on `Particle` would reject
/// `NaN == NaN`, which is exactly the wrong semantics here).
fn particle_bits(p: &Particle) -> (u64, [u32; 3], [u32; 3], u32) {
    (
        p.tag,
        [p.pos[0].to_bits(), p.pos[1].to_bits(), p.pos[2].to_bits()],
        [p.vel[0].to_bits(), p.vel[1].to_bits(), p.vel[2].to_bits()],
        p.mass.to_bits(),
    )
}

fn bits_of(sel: &[Particle]) -> Vec<(u64, [u32; 3], [u32; 3], u32)> {
    sel.iter().map(particle_bits).collect()
}

/// Transpose an `ng × ng` row-major map.
fn transpose(map: &[f64], ng: usize) -> Vec<f64> {
    let mut out = vec![0.0f64; ng * ng];
    for a in 0..ng {
        for b in 0..ng {
            out[b * ng + a] = map[a * ng + b];
        }
    }
    out
}

/// Run every render oracle over the adversarial corpus and the full backend
/// roster. Returns the report; [`assert_render_conformance`] is the asserting
/// wrapper tests use.
fn run_render_differential() -> DiffReport {
    let mut rep = DiffReport::default();
    let backends = roster();
    rep.backends = backends.iter().map(|(n, _)| n.clone()).collect();
    let mut cases = inputs::particle_cases();
    cases.push(crate::layout::cic_wrap_case(BOX_SIZE as f32));

    // --- render-backend --------------------------------------------------
    // Byte-identical frames on every backend — including the static
    // scheduler, because the deterministic deposit fixes the reduction
    // association no matter how chunks are scheduled.
    rep.op("render-backend");
    for case in &cases {
        for axis in Axis::ALL {
            for budget in [0u64, 64 * PARTICLE_RENDER_BYTES] {
                let p = params(axis, budget);
                let want = render_frame(&Serial, &case.data, BOX_SIZE, &p, 5);
                for (name, backend) in &backends {
                    let got = render_frame(backend.as_ref(), &case.data, BOX_SIZE, &p, 5);
                    rep.check_eq(
                        "render-backend",
                        &format!("{}/{}/budget={budget}", case.name, axis.label()),
                        name,
                        &want,
                        &got,
                    );
                }
            }
        }
    }

    // --- render-permutation ----------------------------------------------
    // The LOD total order selects the same particles from any permutation,
    // and the exact deposit does not see their order, so any input
    // permutation yields the same frame — budgeted or not.
    rep.op("render-permutation");
    for case in cases.iter().filter(|c| c.data.len() >= 2) {
        let n = case.data.len() as u64;
        let mut rev = case.data.clone();
        rev.reverse();
        let mut rot = case.data.clone();
        rot.rotate_left(case.data.len() / 2);
        let shuf = inputs::shuffled(&case.data, 0x5EED_5A0F);
        for (pname, permuted) in [("reversed", &rev), ("rotated", &rot), ("shuffled", &shuf)] {
            for axis in Axis::ALL {
                for budget in [0, (n / 2).max(1) * PARTICLE_RENDER_BYTES] {
                    let p = params(axis, budget);
                    let want = render_frame(&Serial, &case.data, BOX_SIZE, &p, 5);
                    let got = render_frame(&Serial, permuted, BOX_SIZE, &p, 5);
                    rep.check_eq(
                        "render-permutation",
                        &format!("{}/{}/{pname}/budget={budget}", case.name, axis.label()),
                        "serial",
                        &want,
                        &got,
                    );
                }
            }
        }
    }

    // --- render-mass ------------------------------------------------------
    // Projected mass conservation against the 3-D deposit, at 0 ULP for
    // every non-NaN sum: the projection documents a fixed accumulation
    // association (cells along the axis in increasing index order, pixels in
    // row-major order), which this inline reference reproduces exactly.
    // NumEq, not BitEq: when NaN densities flow through the sum, which
    // operand's sign/payload survives an `fadd` is unspecified, so two
    // identical source loops compiled separately may disagree on the NaN's
    // bits (observed between debug and release) — any NaN ≡ any NaN, finite
    // values stay bit-exact.
    rep.op("render-mass");
    for case in &cases {
        let soa = ParticleSoA::from_aos(&case.data);
        let grid = cic_deposit_exact(&Serial, soa.positions(), soa.mass(), RENDER_NG, BOX_SIZE);
        let ng = RENDER_NG;
        let mut axis_totals = [0.0f64; 3];
        for (ai, axis) in Axis::ALL.into_iter().enumerate() {
            let projected = project_density(&grid, axis);
            let mut want_map = vec![0.0f64; ng * ng];
            let mut want_total = 0.0f64;
            for a in 0..ng {
                for b in 0..ng {
                    let mut s = 0.0f64;
                    for k in 0..ng {
                        let v = match axis {
                            Axis::X => *grid.get(k, a, b),
                            Axis::Y => *grid.get(a, k, b),
                            Axis::Z => *grid.get(a, b, k),
                        };
                        s += 1.0 + v;
                    }
                    want_map[a * ng + b] = s;
                    want_total += s;
                }
            }
            rep.check_f64_slice(
                Cmp::NumEq,
                "render-mass",
                &format!("{}/{}/map", case.name, axis.label()),
                "serial",
                &want_map,
                &projected,
            );
            let mut got_total = 0.0f64;
            for &px in &projected {
                got_total += px;
            }
            rep.check_f64_scalar(
                Cmp::NumEq,
                "render-mass",
                &format!("{}/{}/total", case.name, axis.label()),
                "serial",
                want_total,
                got_total,
            );
            axis_totals[ai] = got_total;
        }
        // The same mass regardless of which axis collapsed it (approximate:
        // the three sums associate differently).
        for ai in 1..3 {
            rep.check_f64_scalar(
                Cmp::Approx,
                "render-mass",
                &format!("{}/axis-total/{}", case.name, Axis::ALL[ai].label()),
                "serial",
                axis_totals[0],
                axis_totals[ai],
            );
        }
    }

    // --- render-lod -------------------------------------------------------
    // Monotone under a shrinking budget, and prefix-stable: the k-particle
    // selection is the first k of the unlimited ordering, always.
    rep.op("render-lod");
    for case in &cases {
        let n = case.data.len() as u64;
        let unlimited = lod_select(&case.data, LOD_SEED, 0);
        rep.check_eq(
            "render-lod",
            &format!("{}/unlimited-keeps-all", case.name),
            "serial",
            &case.data.len(),
            &unlimited.len(),
        );
        let full = bits_of(&unlimited);
        let mut prev_len = unlimited.len();
        let mut ladder = vec![n, n / 2, n / 4, 1, 0];
        ladder.sort_unstable_by(|a, b| b.cmp(a));
        ladder.dedup();
        for k in ladder {
            // `byte_budget == 0` means unlimited, so "room for zero
            // particles" is one byte short of one record.
            let budget = if k == 0 {
                PARTICLE_RENDER_BYTES - 1
            } else {
                k * PARTICLE_RENDER_BYTES
            };
            let sel = lod_select(&case.data, LOD_SEED, budget);
            let want_len = (k as usize).min(case.data.len());
            rep.check_eq(
                "render-lod",
                &format!("{}/k={k}/len", case.name),
                "serial",
                &want_len,
                &sel.len(),
            );
            rep.check_eq(
                "render-lod",
                &format!("{}/k={k}/monotone", case.name),
                "serial",
                &true,
                &(sel.len() <= prev_len),
            );
            rep.check_eq(
                "render-lod",
                &format!("{}/k={k}/prefix", case.name),
                "serial",
                &full[..sel.len().min(full.len())].to_vec(),
                &bits_of(&sel),
            );
            prev_len = sel.len();
        }
    }

    // --- render-axis ------------------------------------------------------
    // Cyclic coordinate rotation σ(pos) = (y, z, x) relabels the axes:
    //   original along X == rotated along Z          (same pixel layout)
    //   original along Y == transpose(rotated along X)
    //   original along Z == transpose(rotated along Y)
    // Approximate: the per-corner CIC weight product m·wx·wy·wz associates
    // differently once the coordinates swap lanes.
    rep.op("render-axis");
    for case in &cases {
        let rotated: Vec<Particle> = case
            .data
            .iter()
            .map(|p| {
                let mut q = *p;
                q.pos = [p.pos[1], p.pos[2], p.pos[0]];
                q
            })
            .collect();
        for (orig_axis, rot_axis, transposed) in [
            (Axis::X, Axis::Z, false),
            (Axis::Y, Axis::X, true),
            (Axis::Z, Axis::Y, true),
        ] {
            let (orig, _) = render_projection(&Serial, &case.data, BOX_SIZE, &params(orig_axis, 0));
            let (rot, _) = render_projection(&Serial, &rotated, BOX_SIZE, &params(rot_axis, 0));
            let want = if transposed {
                transpose(&orig, RENDER_NG)
            } else {
                orig
            };
            rep.check_f64_slice(
                Cmp::Approx,
                "render-axis",
                &format!("{}/{}~{}", case.name, orig_axis.label(), rot_axis.label()),
                "serial",
                &want,
                &rot,
            );
        }
    }

    // --- render-lod-reuse -------------------------------------------------
    // A renderer's cached LOD order is invisible: after one frame on the
    // case, a frame on the changed set equals a fresh `render_frame` (and
    // its projection a fresh `render_projection`, NaN bins as a class) for
    // every change that must force a re-sort and for the one that must not.
    // A cache that checks only the length and the seed was caught by the
    // `tag-changed`, `swapped` and `duplicate-tag` cases.
    rep.op("render-lod-reuse");
    type Change = fn(&mut Vec<Particle>, &mut u64);
    let changes: [(&str, Change); 7] = [
        ("unchanged", |_, _| {}),
        ("tag-changed", |d, _| {
            let mid = d.len() / 2;
            if let Some(p) = d.get_mut(mid) {
                p.tag = !p.tag;
            }
        }),
        ("swapped", |d, _| {
            let n = d.len();
            if n >= 2 {
                d.swap(0, n / 3 + 1);
            }
        }),
        ("appended", |d, _| {
            d.push(Particle::at_rest([1.5, 2.5, 3.5], 1.0, 0xABCD_0000_0000))
        }),
        ("seed-changed", |_, seed| *seed += 1),
        ("duplicate-tag", |d, _| {
            if d.len() >= 2 {
                d[1].tag = d[0].tag;
            }
        }),
        ("moved", |d, _| {
            for p in d.iter_mut() {
                p.pos = p.pos.map(|x| (x + 1.25) % BOX_SIZE as f32);
            }
        }),
    ];
    for case in &cases {
        let n = case.data.len() as u64;
        for axis in Axis::ALL {
            for budget in [0, (n / 2).max(1), 1].map(|k| k * PARTICLE_RENDER_BYTES) {
                for (name, change) in changes {
                    let label = format!("{}/{}/{name}/budget={budget}", case.name, axis.label());
                    let mut cache = LodCache::default();
                    cache.render_frame(&Serial, &case.data, BOX_SIZE, &params(axis, budget), 5);
                    let (mut data, mut seed) = (case.data.clone(), LOD_SEED);
                    change(&mut data, &mut seed);
                    let p = RenderParams {
                        lod_seed: seed,
                        ..params(axis, budget)
                    };
                    let (got, _) = cache.render_projection(&Serial, &data, BOX_SIZE, &p);
                    let (want, _) = render_projection(&Serial, &data, BOX_SIZE, &p);
                    let map = format!("{label}/map");
                    rep.check_f64_slice(
                        Cmp::NumEq,
                        "render-lod-reuse",
                        &map,
                        "serial",
                        &want,
                        &got,
                    );
                    let got = cache.render_frame(&Serial, &data, BOX_SIZE, &p, 6);
                    let want = render_frame(&Serial, &data, BOX_SIZE, &p, 6);
                    rep.check_eq("render-lod-reuse", &label, "serial", &want, &got);
                }
            }
        }
    }

    rep
}

/// Run the battery and assert zero disagreements with every oracle family
/// exercised at least once.
pub fn assert_render_conformance() -> DiffReport {
    let rep = run_render_differential();
    rep.assert_clean_and_covering(&REQUIRED_RENDER_ORACLES);
    for oracle in REQUIRED_RENDER_ORACLES {
        let n = rep.checks_by_op.get(oracle).copied().unwrap_or(0);
        assert!(n > 0, "render battery ran zero checks for `{oracle}`");
    }
    rep
}

// ---------------------------------------------------------------------------
// Crash-schedule sweep over the co-scheduled render path.
// ---------------------------------------------------------------------------

/// Configuration for [`explore_render`].
#[derive(Debug, Clone)]
pub struct RenderExplorerConfig {
    /// Scratch directory; the reference, record, and each schedule run get
    /// their own subtree (workdir + artifact cache).
    pub root: PathBuf,
    /// Seed for the simulation initial conditions and fault-plan RNGs.
    pub seed: u64,
    /// Simulation steps per run — one rendered frame each.
    pub nsteps: usize,
    /// Level-2 emit cadence of the co-scheduled runs.
    pub emit_every: usize,
}

impl RenderExplorerConfig {
    /// Defaults: 8 steps (8 frames, 8 crash schedules), emit every 4th.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        RenderExplorerConfig {
            root: root.into(),
            seed: 0x1ace,
            nsteps: 8,
            emit_every: 4,
        }
    }
}

/// What one `(site, hit)` crash schedule did.
#[derive(Debug, Clone)]
pub struct RenderScheduleOutcome {
    /// Fault site crashed by this schedule.
    pub site: String,
    /// Which occurrence (0-based hit index) was crashed.
    pub hit: u64,
    /// The armed crash actually fired.
    pub fired: bool,
    /// Frames the crashed (cold) run still produced.
    pub cold_frames: u64,
    /// Steps the cold run recorded as degraded.
    pub cold_degraded: usize,
    /// Frames the warm re-run had to recompute (rather than replay).
    pub warm_recomputed: u64,
    /// Frames a third, fully warm run recomputed — must be zero.
    pub steady_recomputed: u64,
    /// The recovered frame catalog is byte-identical to the reference.
    pub catalog_matches: bool,
}

/// Result of [`explore_render`].
#[derive(Debug)]
pub struct RenderExplorationReport {
    /// Every `render.*` `(site, hits)` pair the record pass reached.
    pub sites: Vec<(String, u64)>,
    /// The fault-free reference catalog (file name, encoded HCIM bytes).
    pub reference: Vec<(String, Vec<u8>)>,
    /// One outcome per explored `(site, hit)` schedule.
    pub schedules: Vec<RenderScheduleOutcome>,
}

impl RenderExplorationReport {
    /// Assert the sweep covered every reached `render.*` hit and that every
    /// schedule crashed, lost exactly one frame, recovered a byte-identical
    /// catalog warm, and left nothing to recompute on a steady re-run.
    pub fn assert_exhaustive(&self) {
        assert!(
            self.sites.iter().any(|(s, _)| s == RENDER_FAULT_SITE),
            "record pass never reached `{RENDER_FAULT_SITE}` (sites: {:?})",
            self.sites
        );
        let expected: u64 = self.sites.iter().map(|(_, h)| h).sum();
        assert_eq!(
            self.schedules.len() as u64,
            expected,
            "sweep explored {} schedules but the record pass enumerated {expected} hits",
            self.schedules.len()
        );
        assert!(!self.reference.is_empty(), "reference catalog is empty");
        for s in &self.schedules {
            assert!(s.fired, "{}@{}: armed crash never fired", s.site, s.hit);
            assert_eq!(
                s.cold_frames,
                self.reference.len() as u64 - 1,
                "{}@{}: crash must lose exactly one frame",
                s.site,
                s.hit
            );
            assert_eq!(
                s.cold_degraded, 1,
                "{}@{}: one degraded step",
                s.site, s.hit
            );
            assert_eq!(
                s.warm_recomputed, 1,
                "{}@{}: the warm re-run recomputes only the lost frame",
                s.site, s.hit
            );
            assert_eq!(
                s.steady_recomputed, 0,
                "{}@{}: a steady re-run must recompute no frames",
                s.site, s.hit
            );
            assert!(
                s.catalog_matches,
                "{}@{}: recovered catalog is not byte-identical",
                s.site, s.hit
            );
        }
    }
}

/// Read every frame file in a co-scheduled run's render directory as
/// `(file name, encoded bytes)`, sorted by name. Public so integration
/// tests can compare catalogs and digest them into golden fixtures.
pub fn frame_catalog(workdir: &Path) -> Vec<(String, Vec<u8>)> {
    let rdir = workdir.join("coscheduled").join("render");
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(&rdir)
        .expect("render dir exists")
        .map(|e| {
            let p = e.expect("dir entry").path();
            (
                p.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read(&p).expect("read frame"),
            )
        })
        .collect();
    out.sort();
    out
}

/// One line per frame — `name  content-digest` — the golden-fixture form of
/// a frame catalog.
pub fn catalog_digest_lines(catalog: &[(String, Vec<u8>)]) -> String {
    let mut out = String::new();
    for (name, bytes) in catalog {
        out.push_str(&format!("{name}  {}\n", cache::digest_bytes(bytes)));
    }
    out
}

fn render_runner_config(
    cfg: &RenderExplorerConfig,
    name: &str,
    injector: Option<Arc<faults::FaultInjector>>,
) -> RunnerConfig {
    let workdir = cfg.root.join(name);
    let _ = std::fs::remove_dir_all(&workdir);
    std::fs::create_dir_all(&workdir).expect("mkdir schedule workdir");
    let cache = ArtifactCache::open(workdir.join("artifact_cache"), None).expect("open cache");
    RunnerConfig {
        sim: nbody::sim::SimConfig {
            np: 16,
            ng: 16,
            nsteps: cfg.nsteps,
            seed: cfg.seed,
            ..nbody::sim::SimConfig::default()
        },
        nranks: 4,
        post_ranks: 2,
        linking_length: 0.28,
        threshold: 60,
        min_size: 12,
        workdir,
        injector,
        cache: Some(Arc::new(cache)),
        render: Some(RenderParams {
            ng: RENDER_NG,
            ..RenderParams::default()
        }),
        ..RunnerConfig::default()
    }
}

/// Fault-free co-scheduled reference run: returns its frame catalog (every
/// frame decode-checked).
pub fn render_reference_catalog(cfg: &RenderExplorerConfig) -> Vec<(String, Vec<u8>)> {
    let rcfg = render_runner_config(cfg, "reference", None);
    let bed = TestBed::create(rcfg, &Serial);
    let run = bed.run_combined_coscheduled(&Serial, cfg.emit_every);
    assert_eq!(
        run.frames_rendered, cfg.nsteps as u64,
        "reference run must render one frame per step"
    );
    let catalog = frame_catalog(&bed.cfg.workdir);
    for (name, bytes) in &catalog {
        let frame = cosmotools::read_image(bytes).expect("reference frame decodes");
        assert_eq!(frame.width as usize, RENDER_NG, "frame {name}");
    }
    catalog
}

fn run_render_schedule(
    cfg: &RenderExplorerConfig,
    site: &str,
    hit: u64,
    reference: &[(String, Vec<u8>)],
) -> RenderScheduleOutcome {
    let injector = FaultPlan::new(cfg.seed ^ hit)
        .with_site(SiteSpec::crash_at(site, hit))
        .with_recording()
        .build();
    let rcfg = render_runner_config(
        cfg,
        &format!("sched-{}-{hit}", site.replace('.', "_")),
        Some(Arc::clone(&injector)),
    );
    let bed = TestBed::create(rcfg, &Serial);
    // Cold: the armed crash drops one frame; the run degrades, not aborts.
    let cold = bed.run_combined_coscheduled(&Serial, cfg.emit_every);
    // Warm: survivors replay from the cache, only the lost frame renders.
    let warm = bed.run_combined_coscheduled(&Serial, cfg.emit_every);
    // Steady: everything replays.
    let steady = bed.run_combined_coscheduled(&Serial, cfg.emit_every);
    let fired = injector
        .site_stats()
        .get(site)
        .map(|&(_, fired)| fired > 0)
        .unwrap_or(false);
    RenderScheduleOutcome {
        site: site.to_string(),
        hit,
        fired,
        cold_frames: cold.frames_rendered,
        cold_degraded: cold.degraded_steps,
        warm_recomputed: warm.frames_rendered - warm.render_cache_hits,
        steady_recomputed: steady.frames_rendered - steady.render_cache_hits,
        catalog_matches: frame_catalog(&bed.cfg.workdir) == reference,
    }
}

/// The full sweep: reference pass, record pass, then one crash schedule per
/// reached `render.*` `(site, hit)`.
pub fn explore_render(cfg: &RenderExplorerConfig) -> RenderExplorationReport {
    let reference = render_reference_catalog(cfg);

    // Record pass: enumerate the render sites the workflow actually polls.
    // (A cold run consults `render.emit` once per frame; cached replays
    // never reach the fault site, which is itself part of the contract.)
    let recorder = FaultPlan::record_only(cfg.seed).build();
    let rcfg = render_runner_config(cfg, "record", Some(Arc::clone(&recorder)));
    let bed = TestBed::create(rcfg, &Serial);
    let run = bed.run_combined_coscheduled(&Serial, cfg.emit_every);
    assert_eq!(run.degraded_steps, 0, "record pass must be fault-free");
    let sites: Vec<(String, u64)> = recorder
        .sites_reached()
        .into_iter()
        .filter(|(s, _)| s.starts_with("render."))
        .collect();

    let mut schedules = Vec::new();
    for (site, hits) in &sites {
        for hit in 0..*hits {
            schedules.push(run_render_schedule(cfg, site, hit, &reference));
        }
    }
    RenderExplorationReport {
        sites,
        reference,
        schedules,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("conformance-render")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn battery_is_clean_over_the_full_corpus() {
        let rep = assert_render_conformance();
        assert!(rep.checks > 100, "suspiciously few checks: {}", rep.checks);
    }

    #[test]
    fn transpose_is_an_involution() {
        let ng = 3;
        let m: Vec<f64> = (0..9).map(|i| i as f64).collect();
        assert_eq!(transpose(&transpose(&m, ng), ng), m);
        assert_eq!(transpose(&m, ng)[ng + 2], m[2 * ng + 1]);
    }

    #[test]
    fn crash_sweep_recovers_every_schedule() {
        let mut cfg = RenderExplorerConfig::new(scratch("sweep"));
        cfg.nsteps = 4;
        cfg.emit_every = 2;
        let report = explore_render(&cfg);
        assert_eq!(report.sites, vec![(RENDER_FAULT_SITE.to_string(), 4)]);
        assert_eq!(report.reference.len(), 4);
        report.assert_exhaustive();
    }

    #[test]
    fn digest_lines_are_stable_and_name_sorted() {
        let catalog = vec![
            ("a.hcim".to_string(), vec![1u8, 2, 3]),
            ("b.hcim".to_string(), vec![4u8]),
        ];
        let lines = catalog_digest_lines(&catalog);
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.starts_with("a.hcim  "));
        assert_eq!(lines, catalog_digest_lines(&catalog));
    }
}
