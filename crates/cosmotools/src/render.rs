//! In-situ visualization: streaming density/halo projection rendering.
//!
//! ROADMAP item 4 — the bandwidth-bound, every-step workload the paper's
//! co-scheduled analysis never exercises. Following Woodring et al.'s
//! ParaView cosmology pipeline, each frame is a 2-D projection of the CIC
//! density field along a configurable axis, log-stretched to 8-bit grayscale,
//! with level-of-detail particle subsampling under an explicit per-step byte
//! budget.
//!
//! Every stage is bit-deterministic and backend-independent:
//!
//! * [`lod_select`] canonicalizes particle order (a total order over the
//!   particle *value*, independent of input order) before truncating to the
//!   budget, so selections are permutation-invariant and prefix-stable under
//!   shrinking budgets. A renderer that draws every step keeps a
//!   [`LodCache`], which sorts once and reuses the order while the seed and
//!   the tag column stay the same.
//! * The selection — all particles, in storage order, when the budget is
//!   unlimited; else the order's prefix, in index order — is gathered into
//!   the deposit's columns for [`nbody::cic_deposit_exact`], whose grid is a
//!   function of the particle multiset alone (any order, any backend).
//! * [`project_density`] and [`tone_map`] are sequential scalar loops with a
//!   documented accumulation order.
//!
//! The `conformance::render` battery holds all of this to byte-equality over
//! the adversarial particle corpus.

use crate::config::{Config, ConfigError};
use crate::insitu::{AnalysisContext, InSituAlgorithm, Product};
use dpp::Backend;
use fft::Grid3;
use nbody::particle::Particle;
use nbody::pm::cic_deposit_exact;
use nbody::soa::DepositColumns;

/// Bytes one particle costs against the render byte budget (the genio
/// serialized record size, so budgets are phrased in the same units as the
/// Level 1/2 containers).
pub const PARTICLE_RENDER_BYTES: u64 = 36;

/// Projection axis for a rendered frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// Project along x: the image is the (y, z) plane.
    X,
    /// Project along y: the image is the (x, z) plane.
    Y,
    /// Project along z: the image is the (x, y) plane.
    Z,
}

impl Axis {
    /// All axes, in canonical order.
    pub const ALL: [Axis; 3] = [Axis::X, Axis::Y, Axis::Z];

    /// Lower-case label (`"x"`, `"y"`, `"z"`).
    pub fn label(self) -> &'static str {
        match self {
            Axis::X => "x",
            Axis::Y => "y",
            Axis::Z => "z",
        }
    }

    /// Stable wire code (used by the HCIM container and cache keys).
    pub fn code(self) -> u8 {
        match self {
            Axis::X => 0,
            Axis::Y => 1,
            Axis::Z => 2,
        }
    }

    /// Inverse of [`Axis::code`].
    pub fn from_code(code: u8) -> Option<Axis> {
        match code {
            0 => Some(Axis::X),
            1 => Some(Axis::Y),
            2 => Some(Axis::Z),
            _ => None,
        }
    }
}

impl std::str::FromStr for Axis {
    type Err = String;

    fn from_str(s: &str) -> Result<Axis, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "x" => Ok(Axis::X),
            "y" => Ok(Axis::Y),
            "z" => Ok(Axis::Z),
            other => Err(format!("unknown projection axis `{other}`")),
        }
    }
}

impl std::fmt::Display for Axis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Parameters of one rendering configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenderParams {
    /// Mesh (and image) side length in cells/pixels.
    pub ng: usize,
    /// Projection axis.
    pub axis: Axis,
    /// Per-frame particle byte budget for level-of-detail subsampling;
    /// `0` means unlimited (every particle deposits).
    pub byte_budget: u64,
    /// Seed of the LOD priority hash (distinct seeds pick distinct — but
    /// individually stable — particle subsets).
    pub lod_seed: u64,
}

impl Default for RenderParams {
    fn default() -> Self {
        RenderParams {
            ng: 64,
            axis: Axis::Z,
            byte_budget: 0,
            lod_seed: 1,
        }
    }
}

/// LOD priority of a particle: a seed-mixed splitmix-style hash of its tag.
/// Lower priority renders first, so a budget keeps a stable pseudo-random
/// subset and shrinking the budget only ever *removes* particles (prefix
/// property).
pub fn lod_priority(seed: u64, tag: u64) -> u64 {
    tag.wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(23)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

/// Total-order sort key over the particle *value* (priority first, then every
/// field as raw bits). Because the key ignores input position, any
/// permutation of the same multiset sorts to the same sequence.
fn lod_key(seed: u64, p: &Particle) -> (u64, u64, u32, u32, u32, u32, u32, u32, u32) {
    (
        lod_priority(seed, p.tag),
        p.tag,
        p.pos[0].to_bits(),
        p.pos[1].to_bits(),
        p.pos[2].to_bits(),
        p.mass.to_bits(),
        p.vel[0].to_bits(),
        p.vel[1].to_bits(),
        p.vel[2].to_bits(),
    )
}

/// The indices of `particles` in ascending [`lod_key`] order, and whether
/// every priority was distinct.
///
/// The sort runs over packed `(priority, index)` keys. [`lod_priority`] is a
/// bijection of the tag: an add, two odd multiplies and a rotate. So equal
/// priorities mean equal tags. Only those runs fall back to the full key,
/// and the order is the one a sort of the particles by [`lod_key`] gives.
/// (Keys that tie on every field belong to bit-identical particles, so
/// their relative order changes no gathered bit.)
fn lod_order(particles: &[Particle], seed: u64) -> (Vec<u32>, bool) {
    assert!(
        u32::try_from(particles.len()).is_ok(),
        "LOD order indexes particles with u32"
    );
    let mut keys: Vec<u128> = particles
        .iter()
        .enumerate()
        .map(|(i, p)| (u128::from(lod_priority(seed, p.tag)) << 32) | i as u128)
        .collect();
    keys.sort_unstable();
    let mut order: Vec<u32> = keys.iter().map(|&k| k as u32).collect();
    let mut distinct = true;
    let mut start = 0;
    for run in keys.chunk_by(|a, b| a >> 32 == b >> 32) {
        if run.len() > 1 {
            distinct = false;
            order[start..start + run.len()]
                .sort_unstable_by_key(|&i| lod_key(seed, &particles[i as usize]));
        }
        start += run.len();
    }
    (order, distinct)
}

/// How many of `n` particles a frame under `byte_budget` keeps: `0` is
/// unlimited, otherwise one per [`PARTICLE_RENDER_BYTES`].
fn budget_len(n: usize, byte_budget: u64) -> usize {
    if byte_budget == 0 {
        return n;
    }
    usize::try_from(byte_budget / PARTICLE_RENDER_BYTES).map_or(n, |k| k.min(n))
}

/// Select the particles a frame may afford: canonical priority order,
/// truncated to `byte_budget / PARTICLE_RENDER_BYTES` particles
/// (`byte_budget == 0` keeps everything, still in canonical order).
///
/// Deterministic in `(seed, budget)` for a given particle multiset, and
/// prefix-stable: the selection at a smaller budget is exactly a prefix of
/// the selection at any larger one.
pub fn lod_select(particles: &[Particle], seed: u64, byte_budget: u64) -> Vec<Particle> {
    let (order, _) = lod_order(particles, seed);
    order[..budget_len(particles.len(), byte_budget)]
        .iter()
        .map(|&i| particles[i as usize])
        .collect()
}

/// The LOD order of the last particle set a renderer drew under a byte
/// budget, reused for the next budgeted frame while it is provably the same.
///
/// When all tags are distinct, the order depends only on the seed and on
/// the tag at each position. So the cached order is reused when:
/// - the seed is the same;
/// - the tag column is the same, position for position;
/// - the cached order had no two equal priorities.
///
/// Otherwise the order is sorted again. Positions, masses and velocities
/// may change freely between frames. `Simulation` never reorders its
/// particles, so a run sorts once and then compares one tag column per
/// frame. Budgets take a prefix of the order, as [`lod_select`] does. Only
/// the order and the tags are kept between frames, not the deposit columns.
#[derive(Debug, Clone, Default)]
pub struct LodCache {
    seed: u64,
    tags: Vec<u64>,
    order: Vec<u32>,
    distinct: bool,
}

impl LodCache {
    /// The LOD order of `particles` under `seed`: the cached one when the
    /// reuse rule holds, a fresh sort otherwise. Counts `render.lod_reused`
    /// or `render.lod_sorted`.
    fn order(&mut self, particles: &[Particle], seed: u64) -> &[u32] {
        let _span = telemetry::span!("render", "lod_order", particles.len());
        let reusable = self.distinct
            && self.seed == seed
            && self.tags.len() == particles.len()
            && self.tags.iter().zip(particles).all(|(&t, p)| t == p.tag);
        if reusable {
            telemetry::count!("render", "lod_reused", 1);
        } else {
            telemetry::count!("render", "lod_sorted", 1);
            (self.order, self.distinct) = lod_order(particles, seed);
            self.seed = seed;
            self.tags.clear();
            self.tags.extend(particles.iter().map(|p| p.tag));
        }
        &self.order
    }

    /// [`render_projection`], with the LOD order from this cache.
    pub fn render_projection(
        &mut self,
        backend: &dyn Backend,
        particles: &[Particle],
        box_size: f64,
        params: &RenderParams,
    ) -> (Vec<f64>, u64) {
        let mut cols = DepositColumns::default();
        let selected = if params.byte_budget == 0 {
            let _span = telemetry::span!("render", "gather", particles.len());
            cols.refill(backend, particles);
            particles.len()
        } else {
            let order = self.order(particles, params.lod_seed);
            let mut kept = order[..budget_len(order.len(), params.byte_budget)].to_vec();
            let _span = telemetry::span!("render", "gather", kept.len());
            kept.sort_unstable(); // the grid depends on which, not their order
            cols.refill_gather(backend, particles, &kept);
            kept.len()
        };
        let grid = cic_deposit_exact(backend, cols.positions(), cols.mass(), params.ng, box_size);
        let _span = telemetry::span!("render", "project", params.ng);
        (project_density(&grid, params.axis), selected as u64)
    }

    /// [`render_frame`], with the LOD order from this cache.
    pub fn render_frame(
        &mut self,
        backend: &dyn Backend,
        particles: &[Particle],
        box_size: f64,
        params: &RenderParams,
        step: u64,
    ) -> ImageFrame {
        let _span = telemetry::span!("render", "frame", step);
        let (projected, selected) = self.render_projection(backend, particles, box_size, params);
        let (pixels, nonfinite) = {
            let _span = telemetry::span!("render", "tone_map", projected.len());
            tone_map(&projected)
        };
        let frame = ImageFrame {
            step,
            axis: params.axis,
            width: params.ng as u32,
            height: params.ng as u32,
            pixels,
            nonfinite_pixels: nonfinite,
            selected,
            total: particles.len() as u64,
            byte_budget: params.byte_budget,
        };
        telemetry::count!("render", "frames", 1);
        telemetry::count!("render", "bytes", frame.pixels.len() as u64);
        telemetry::count!("render", "nonfinite_pixels", nonfinite);
        frame
    }
}

/// Project the overdensity grid to a 2-D density map by summing the cell
/// densities `1 + δ` along `axis`, in increasing cell-index order (the fixed
/// association the mass-conservation oracle reproduces exactly).
///
/// The output is row-major `ng × ng`: `out[a * ng + b]` where `(a, b)` is
/// `(y, z)` for [`Axis::X`], `(x, z)` for [`Axis::Y`], `(x, y)` for
/// [`Axis::Z`].
pub fn project_density(grid: &Grid3<f64>, axis: Axis) -> Vec<f64> {
    let ng = grid.dims()[0];
    let mut out = vec![0.0f64; ng * ng];
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
            out[a * ng + b] = s;
        }
    }
    out
}

/// Log-stretch tone mapping of a projected density map to 8-bit grayscale.
///
/// `pixel = round(255 · ln(1 + v) / ln(1 + max))` over the finite values
/// (`max` is the largest finite non-negative density; negative densities
/// clamp to 0 before the stretch). Non-finite bins render as 0 and are
/// counted — never a panic, never a NaN pixel. Monotone: a larger finite
/// density never produces a smaller pixel.
pub fn tone_map(projected: &[f64]) -> (Vec<u8>, u64) {
    let mut max = 0.0f64;
    for &v in projected {
        if v.is_finite() && v > max {
            max = v;
        }
    }
    let denom = (1.0 + max).ln();
    let mut nonfinite = 0u64;
    let pixels = projected
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                nonfinite += 1;
                return 0u8;
            }
            let v = v.max(0.0);
            let t = if denom > 0.0 {
                (1.0 + v).ln() / denom
            } else {
                0.0
            };
            (t * 255.0).round() as u8
        })
        .collect();
    (pixels, nonfinite)
}

/// One rendered frame: the 8-bit projection image plus its provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageFrame {
    /// Simulation step that produced the frame.
    pub step: u64,
    /// Projection axis.
    pub axis: Axis,
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// Row-major grayscale pixels (`width × height` bytes).
    pub pixels: Vec<u8>,
    /// Projected bins that were non-finite and rendered as 0.
    pub nonfinite_pixels: u64,
    /// Particles that survived LOD selection.
    pub selected: u64,
    /// Particles offered to LOD selection.
    pub total: u64,
    /// Byte budget the selection ran under (0 = unlimited).
    pub byte_budget: u64,
}

impl ImageFrame {
    /// Serialized PGM payload size in bytes: what [`encode_pgm`] would
    /// return, without encoding.
    #[cfg(test)]
    pub(crate) fn pgm_bytes(&self) -> u64 {
        let digits = |v: u32| u64::from(v.checked_ilog10().map_or(1, |d| d + 1));
        // "P5\n" width " " height "\n255\n", then the pixels.
        9 + digits(self.width) + digits(self.height) + self.pixels.len() as u64
    }
}

/// Encode a grayscale image as binary PGM (`P5`), the compact deterministic
/// payload of the HCIM container: a fixed ASCII header then the raw rows.
pub fn encode_pgm(width: u32, height: u32, pixels: &[u8]) -> Vec<u8> {
    assert_eq!(pixels.len(), width as usize * height as usize);
    let mut out = format!("P5\n{width} {height}\n255\n").into_bytes();
    out.extend_from_slice(pixels);
    out
}

/// Decode a binary PGM produced by [`encode_pgm`]. Returns
/// `(width, height, pixels)`, or `None` for anything that is not a
/// bit-exact round-trip of the encoder's format (wrong magic, maxval,
/// whitespace shape, or pixel count).
pub fn decode_pgm(data: &[u8]) -> Option<(u32, u32, Vec<u8>)> {
    let rest = data.strip_prefix(b"P5\n")?;
    let nl = rest.iter().position(|&b| b == b'\n')?;
    let dims = std::str::from_utf8(&rest[..nl]).ok()?;
    let (w, h) = dims.split_once(' ')?;
    let width: u32 = w.parse().ok()?;
    let height: u32 = h.parse().ok()?;
    // `u32::from_str` also takes `+2` and `02`, which the encoder never writes.
    if dims != format!("{width} {height}") {
        return None;
    }
    let rest = rest[nl + 1..].strip_prefix(b"255\n")?;
    if rest.len() != width as usize * height as usize {
        return None;
    }
    Some((width, height, rest.to_vec()))
}

/// Deposit + project one frame's density map. Returns the projected map and
/// how many particles survived LOD selection.
pub fn render_projection(
    backend: &dyn Backend,
    particles: &[Particle],
    box_size: f64,
    params: &RenderParams,
) -> (Vec<f64>, u64) {
    LodCache::default().render_projection(backend, particles, box_size, params)
}

/// Render one complete frame: LOD-select, deposit, project, tone-map.
/// Stamps `render` telemetry (a per-frame span with `lod_order`, `gather`,
/// `project` and `tone_map` inside it, plus `frames` / `bytes` /
/// `nonfinite_pixels` counters). A renderer that draws every step of a run
/// keeps a [`LodCache`] and calls [`LodCache::render_frame`] instead; the
/// frame is the same.
pub fn render_frame(
    backend: &dyn Backend,
    particles: &[Particle],
    box_size: f64,
    params: &RenderParams,
    step: u64,
) -> ImageFrame {
    LodCache::default().render_frame(backend, particles, box_size, params, step)
}

/// Largest render mesh side: the deposit indexes the `ng³` cells with `u32`,
/// and `1625³ ≤ u32::MAX < 1626³`. A deck asking for more is a config error.
const MAX_RENDER_NG: usize = 1625;

/// Parse the shared render keys of a config section into `params`/`every`.
fn configure_render(
    config: &Config,
    section: &str,
    params: &mut RenderParams,
    every: &mut usize,
) -> Result<bool, ConfigError> {
    if !config.has_section(section) {
        return Ok(false);
    }
    let enabled = config.get_bool(section, "enabled").unwrap_or(false);
    if let Ok(ng) = config.get_usize(section, "ng") {
        if ng > MAX_RENDER_NG {
            return Err(ConfigError::BadValue {
                section: section.to_string(),
                key: "ng".to_string(),
                value: ng.to_string(),
                wanted: "mesh side whose ng³ cells fit a u32 index (at most 1625)",
            });
        }
        params.ng = ng.max(1);
    }
    let axis_str = config.get_or(section, "axis", params.axis.label());
    params.axis = axis_str.parse().map_err(|_| ConfigError::BadValue {
        section: section.to_string(),
        key: "axis".to_string(),
        value: axis_str.to_string(),
        wanted: "projection axis (x|y|z)",
    })?;
    if let Ok(b) = config.get_usize(section, "byte_budget") {
        params.byte_budget = b as u64;
    }
    if let Ok(s) = config.get_usize(section, "lod_seed") {
        params.lod_seed = s as u64;
    }
    if let Ok(e) = config.get_usize(section, "every") {
        *every = e.max(1);
    }
    Ok(enabled)
}

/// The density-projection rendering task: one frame of the full particle
/// distribution per eligible step.
pub struct DensityRenderTask {
    enabled: bool,
    /// Rendering parameters.
    pub params: RenderParams,
    /// Run every this many steps (rendering is an every-step workload by
    /// default — the cost profile the paper's Tables 3/4 never price).
    pub every: usize,
    lod: LodCache,
}

impl Default for DensityRenderTask {
    fn default() -> Self {
        DensityRenderTask {
            enabled: false,
            params: RenderParams::default(),
            every: 1,
            lod: LodCache::default(),
        }
    }
}

impl DensityRenderTask {
    /// New task (disabled unless configured).
    pub fn new() -> Self {
        Self::default()
    }
}

impl InSituAlgorithm for DensityRenderTask {
    fn name(&self) -> &str {
        "density-render"
    }

    fn set_parameters(&mut self, config: &Config) -> Result<(), ConfigError> {
        self.enabled =
            configure_render(config, "density-render", &mut self.params, &mut self.every)?;
        Ok(())
    }

    fn should_execute(&self, step: usize, total_steps: usize, _z: f64) -> bool {
        self.enabled && (step.is_multiple_of(self.every) || step == total_steps)
    }

    fn execute(&mut self, ctx: &AnalysisContext<'_>) -> Vec<Product> {
        let frame = self.lod.render_frame(
            ctx.backend,
            ctx.particles,
            ctx.box_size,
            &self.params,
            ctx.step as u64,
        );
        vec![Product::Image {
            step: ctx.step,
            frame,
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpp::{Serial, StaticThreaded, Threaded};

    fn particles(n: u64, box_size: f32) -> Vec<Particle> {
        (0..n)
            .map(|t| {
                let f = t as f32;
                Particle::at_rest(
                    [
                        (f * 0.619) % box_size,
                        (f * 0.283) % box_size,
                        (f * 0.997) % box_size,
                    ],
                    1.0 + (t % 3) as f32 * 0.5,
                    t,
                )
            })
            .collect()
    }

    #[test]
    fn axis_round_trips() {
        for axis in Axis::ALL {
            assert_eq!(Axis::from_code(axis.code()), Some(axis));
            assert_eq!(axis.label().parse::<Axis>().unwrap(), axis);
        }
        assert_eq!(Axis::from_code(9), None);
        assert!("w".parse::<Axis>().is_err());
        assert_eq!(" Z ".parse::<Axis>().unwrap(), Axis::Z);
    }

    #[test]
    fn lod_select_is_prefix_stable() {
        let parts = particles(500, 16.0);
        let big = lod_select(&parts, 7, 400 * PARTICLE_RENDER_BYTES);
        let small = lod_select(&parts, 7, 100 * PARTICLE_RENDER_BYTES);
        assert_eq!(big.len(), 400);
        assert_eq!(small.len(), 100);
        for (a, b) in small.iter().zip(&big) {
            assert_eq!(a.tag, b.tag);
        }
    }

    #[test]
    fn lod_select_is_permutation_invariant() {
        let parts = particles(300, 16.0);
        let mut shuffled = parts.clone();
        shuffled.reverse();
        shuffled.swap(10, 200);
        let a = lod_select(&parts, 3, 50 * PARTICLE_RENDER_BYTES);
        let b = lod_select(&shuffled, 3, 50 * PARTICLE_RENDER_BYTES);
        assert_eq!(
            a.iter().map(|p| p.tag).collect::<Vec<_>>(),
            b.iter().map(|p| p.tag).collect::<Vec<_>>()
        );
    }

    #[test]
    fn zero_budget_selects_nothing_and_zero_means_unlimited_is_distinct() {
        let parts = particles(100, 16.0);
        // budget 0 = unlimited.
        assert_eq!(lod_select(&parts, 1, 0).len(), 100);
        // A budget below one record selects nothing.
        assert_eq!(lod_select(&parts, 1, PARTICLE_RENDER_BYTES - 1).len(), 0);
    }

    #[test]
    fn tone_map_handles_nonfinite_and_is_monotone() {
        let (px, bad) = tone_map(&[0.0, 1.0, f64::NAN, 10.0, f64::INFINITY, -3.0]);
        assert_eq!(bad, 2);
        assert_eq!(px[2], 0);
        assert_eq!(px[4], 0);
        assert_eq!(px[5], 0, "negative densities clamp to black");
        assert!(px[0] <= px[1] && px[1] <= px[3]);
        assert_eq!(px[3], 255, "max finite value maps to white");
    }

    #[test]
    fn tone_map_all_zero_is_black() {
        let (px, bad) = tone_map(&[0.0; 16]);
        assert_eq!(bad, 0);
        assert!(px.iter().all(|&p| p == 0));
    }

    #[test]
    fn pgm_round_trips() {
        let pixels: Vec<u8> = (0..12).map(|i| (i * 21) as u8).collect();
        let enc = encode_pgm(4, 3, &pixels);
        let (w, h, back) = decode_pgm(&enc).unwrap();
        assert_eq!((w, h), (4, 3));
        assert_eq!(back, pixels);
        assert!(decode_pgm(b"P6\n1 1\n255\nx").is_none());
        assert!(decode_pgm(&enc[..enc.len() - 1]).is_none());
    }

    #[test]
    fn pgm_decoder_rejects_headers_the_encoder_never_writes() {
        for dims in ["+2 2", "02 2", "2 02"] {
            let mut data = format!("P5\n{dims}\n255\n").into_bytes();
            data.extend_from_slice(&[0, 1, 2, 3]);
            assert!(decode_pgm(&data).is_none(), "accepted {dims:?}");
        }
    }

    #[test]
    fn pgm_bytes_is_the_encoded_length() {
        // Header widths change at 10, 100 and 1000.
        for (width, height) in [(1, 1), (9, 10), (10, 9), (99, 100), (100, 99), (1024, 3)] {
            let frame = ImageFrame {
                step: 0,
                axis: Axis::Z,
                width,
                height,
                pixels: vec![7; (width * height) as usize],
                nonfinite_pixels: 0,
                selected: 0,
                total: 0,
                byte_budget: 0,
            };
            let encoded = encode_pgm(width, height, &frame.pixels);
            assert_eq!(frame.pgm_bytes(), encoded.len() as u64, "{width}×{height}");
        }
    }

    #[test]
    fn frames_are_byte_identical_across_backends() {
        let parts = particles(4097, 32.0);
        let params = RenderParams {
            ng: 16,
            ..Default::default()
        };
        let reference = render_frame(&Serial, &parts, 32.0, &params, 5);
        for backend in [&Threaded::new(4) as &dyn Backend, &StaticThreaded::new(3)] {
            let got = render_frame(backend, &parts, 32.0, &params, 5);
            assert_eq!(reference, got, "frame differs on {}", backend.name());
        }
    }

    #[test]
    fn projected_mass_matches_grid_sum() {
        // Σ over the projection of (1+δ) along any axis touches every cell
        // exactly once, so per-axis projections sum to the same total.
        let parts = particles(1000, 32.0);
        let cols = DepositColumns::from_aos(&Serial, &parts);
        let (pos, mass) = (cols.positions(), cols.mass());
        let grid = cic_deposit_exact(&Serial, pos, mass, 8, 32.0);
        let totals: Vec<f64> = Axis::ALL
            .iter()
            .map(|&a| project_density(&grid, a).iter().sum())
            .collect();
        for t in &totals {
            assert!((t - totals[0]).abs() < 1e-9, "{totals:?}");
        }
    }

    #[test]
    fn density_task_config_schedule_and_products() {
        let mut task = DensityRenderTask::new();
        assert!(!task.should_execute(1, 10, 0.0), "disabled by default");
        let cfg = Config::parse(
            "[density-render]\nenabled = true\nng = 8\naxis = y\nbyte_budget = 3600\nlod_seed = 9\nevery = 2\n",
        )
        .unwrap();
        task.set_parameters(&cfg).unwrap();
        assert_eq!(task.params.ng, 8);
        assert_eq!(task.params.axis, Axis::Y);
        assert_eq!(task.params.byte_budget, 3600);
        assert_eq!(task.params.lod_seed, 9);
        assert!(task.should_execute(2, 10, 0.0));
        assert!(!task.should_execute(3, 10, 0.0));
        assert!(task.should_execute(10, 10, 0.0), "final step always runs");

        let parts = particles(500, 16.0);
        let ctx = AnalysisContext {
            step: 2,
            total_steps: 10,
            redshift: 1.0,
            particles: &parts,
            box_size: 16.0,
            backend: &Serial,
            catalog: None,
        };
        let prods = task.execute(&ctx);
        assert_eq!(prods.len(), 1);
        match &prods[0] {
            Product::Image { step, frame } => {
                assert_eq!(*step, 2);
                assert_eq!(frame.axis, Axis::Y);
                assert_eq!(frame.selected, 100, "3600 B / 36 B per particle");
                assert_eq!(frame.total, 500);
                assert_eq!(frame.pixels.len(), 64);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn render_mesh_must_fit_u32_cell_indices() {
        assert!(MAX_RENDER_NG.pow(3) <= u32::MAX as usize);
        assert!((MAX_RENDER_NG + 1).pow(3) > u32::MAX as usize);
        let deck = |ng: usize| {
            Config::parse(&format!("[density-render]\nenabled = true\nng = {ng}\n")).unwrap()
        };
        let mut task = DensityRenderTask::new();
        match task.set_parameters(&deck(1700)) {
            Err(ConfigError::BadValue { key, value, .. }) => {
                assert_eq!((key.as_str(), value.as_str()), ("ng", "1700"));
            }
            other => panic!("ng = 1700 configured: {other:?}"),
        }
        task.set_parameters(&deck(MAX_RENDER_NG))
            .unwrap_or_else(|e| panic!("ng = 1625 refused: {e}"));
    }

    #[test]
    fn lod_cache_sorts_once_per_tag_column_and_seed() {
        let mut parts = particles(600, 16.0);
        let params = RenderParams {
            ng: 8,
            byte_budget: 200 * PARTICLE_RENDER_BYTES,
            ..Default::default()
        };
        let mut cache = LodCache::default();
        let frame = |cache: &mut LodCache, parts: &[Particle]| {
            let got = cache.render_frame(&Serial, parts, 16.0, &params, 3);
            assert_eq!(got, render_frame(&Serial, parts, 16.0, &params, 3));
            cache.order.clone()
        };
        let first = frame(&mut cache, &parts);
        assert!(cache.distinct);
        // Moved positions, same tags: the same order, not re-sorted.
        parts
            .iter_mut()
            .for_each(|p| p.pos[0] = (p.pos[0] + 1.5) % 16.0);
        let ptr = cache.order.as_ptr();
        assert_eq!(frame(&mut cache, &parts), first);
        assert_eq!(cache.order.as_ptr(), ptr, "reused in place");
        // Two particles swapped: a different order.
        parts.swap(0, 599);
        assert_ne!(frame(&mut cache, &parts), first);
        // A duplicate tag: sorted, and never reused while it stays.
        parts[5].tag = parts[6].tag;
        frame(&mut cache, &parts);
        assert!(!cache.distinct);
    }

    #[test]
    fn bad_axis_in_config_is_an_error() {
        let mut task = DensityRenderTask::new();
        let cfg = Config::parse("[density-render]\nenabled = true\naxis = q\n").unwrap();
        assert!(task.set_parameters(&cfg).is_err());
    }
}
