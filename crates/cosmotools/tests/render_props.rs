//! Property tests for the render algorithm family: LOD selection is a
//! prefix-stable deterministic function of `(seed, budget)`, the tone map is
//! monotone and NaN-safe, and the PGM / HCIM containers round-trip
//! bit-exactly.

use cosmotools::{
    decode_pgm, encode_pgm, lod_priority, lod_select, read_image, tone_map, write_image, Axis,
    ImageFrame, PARTICLE_RENDER_BYTES,
};
use nbody::Particle;
use proptest::prelude::*;

/// A particle whose every float field is an arbitrary bit pattern — NaNs of
/// either sign and payload, ±inf, ±0, denormals — plus the full tag range.
fn arb_particle_bits() -> impl Strategy<Value = Particle> {
    (
        (any::<u32>(), any::<u32>(), any::<u32>()),
        (any::<u32>(), any::<u32>(), any::<u32>()),
        any::<u32>(),
        any::<u64>(),
    )
        .prop_map(|(p, v, m, tag)| Particle {
            pos: [
                f32::from_bits(p.0),
                f32::from_bits(p.1),
                f32::from_bits(p.2),
            ],
            vel: [
                f32::from_bits(v.0),
                f32::from_bits(v.1),
                f32::from_bits(v.2),
            ],
            mass: f32::from_bits(m),
            tag,
        })
}

/// Arbitrary f64 bit patterns: the projected-density bestiary.
fn arb_f64_bits(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(any::<u64>().prop_map(f64::from_bits), n)
}

fn bits(p: &Particle) -> (u64, [u32; 3], [u32; 3], u32) {
    (
        p.tag,
        [p.pos[0].to_bits(), p.pos[1].to_bits(), p.pos[2].to_bits()],
        [p.vel[0].to_bits(), p.vel[1].to_bits(), p.vel[2].to_bits()],
        p.mass.to_bits(),
    )
}

/// The test oracle for [`lod_select`]: copy the particles, sort them by the
/// whole record (LOD priority, tag, then every field's raw bits) and
/// truncate to the budget.
fn lod_select_full_key_sort(parts: &[Particle], seed: u64, budget: u64) -> Vec<Particle> {
    let mut out = parts.to_vec();
    out.sort_unstable_by_key(|p| {
        (
            lod_priority(seed, p.tag),
            p.tag,
            p.pos.map(f32::to_bits),
            p.mass.to_bits(),
            p.vel.map(f32::to_bits),
        )
    });
    if budget > 0 {
        out.truncate((budget / PARTICLE_RENDER_BYTES) as usize);
    }
    out
}

/// Particles with tags and positions drawn from small ranges, so that equal
/// tags (and so equal priorities) are common, and ties reach the mass and
/// velocity bits.
fn arb_particles_few_tags() -> impl Strategy<Value = Vec<Particle>> {
    proptest::collection::vec((arb_particle_bits(), 0u64..6, 0u8..2), 0..80).prop_map(|v| {
        v.into_iter()
            .map(|(p, tag, x)| Particle {
                pos: [f32::from(x); 3],
                tag,
                ..p
            })
            .collect()
    })
}

proptest! {
    // Default 64 cases; nightly deepens via `PROPTEST_CASES=512`.
    #![proptest_config(ProptestConfig::default())]

    /// The selection is a pure function of `(seed, budget)`: re-evaluating
    /// returns the identical particle list, bit for bit, and the size is
    /// exactly what the byte budget affords.
    #[test]
    fn lod_select_is_deterministic_in_seed_and_budget(
        parts in proptest::collection::vec(arb_particle_bits(), 0..80),
        seed in any::<u64>(),
        k in 0u64..100,
    ) {
        let budget = k * PARTICLE_RENDER_BYTES;
        let a = lod_select(&parts, seed, budget);
        let b = lod_select(&parts, seed, budget);
        prop_assert_eq!(
            a.iter().map(bits).collect::<Vec<_>>(),
            b.iter().map(bits).collect::<Vec<_>>()
        );
        let want = if budget == 0 {
            parts.len()
        } else {
            (k as usize).min(parts.len())
        };
        prop_assert_eq!(a.len(), want);
    }

    /// `lod_select` sorts packed `(priority, index)` keys and falls back to
    /// the whole record only inside runs of equal priority. Its selection
    /// is the full-key sort's, bit for bit, with distinct tags and with
    /// many duplicates.
    #[test]
    fn lod_select_equals_the_full_key_sort(
        distinct in proptest::collection::vec(arb_particle_bits(), 0..80),
        duplicated in arb_particles_few_tags(),
        seed in any::<u64>(),
        k in 0u64..100,
    ) {
        let budget = k * PARTICLE_RENDER_BYTES;
        for parts in [&distinct, &duplicated] {
            prop_assert_eq!(
                lod_select(parts, seed, budget).iter().map(bits).collect::<Vec<_>>(),
                lod_select_full_key_sort(parts, seed, budget).iter().map(bits).collect::<Vec<_>>()
            );
        }
    }

    /// Prefix stability: for any two budgets, the smaller selection is
    /// exactly the head of the larger one — shrinking a budget only ever
    /// truncates, never reshuffles.
    #[test]
    fn lod_select_is_prefix_stable(
        parts in proptest::collection::vec(arb_particle_bits(), 0..80),
        seed in any::<u64>(),
        k1 in 0u64..100,
        k2 in 0u64..100,
    ) {
        let (lo, hi) = (k1.min(k2), k1.max(k2));
        let small = lod_select(&parts, seed, lo.max(1) * PARTICLE_RENDER_BYTES);
        let large = lod_select(&parts, seed, hi.max(1) * PARTICLE_RENDER_BYTES);
        let unlimited = lod_select(&parts, seed, 0);
        prop_assert!(small.len() <= large.len());
        prop_assert_eq!(
            small.iter().map(bits).collect::<Vec<_>>(),
            large[..small.len()].iter().map(bits).collect::<Vec<_>>()
        );
        prop_assert_eq!(
            large.iter().map(bits).collect::<Vec<_>>(),
            unlimited[..large.len()].iter().map(bits).collect::<Vec<_>>()
        );
    }

    /// NaN safety: any f64 bit pattern in, never a panic out; non-finite
    /// bins render as pixel 0 and are counted exactly.
    #[test]
    fn tone_map_is_nan_safe(projected in arb_f64_bits(0..256)) {
        let (pixels, nonfinite) = tone_map(&projected);
        prop_assert_eq!(pixels.len(), projected.len());
        let want = projected.iter().filter(|v| !v.is_finite()).count() as u64;
        prop_assert_eq!(nonfinite, want);
        for (v, px) in projected.iter().zip(&pixels) {
            if !v.is_finite() {
                prop_assert_eq!(*px, 0u8, "non-finite bin must render black");
            }
        }
    }

    /// Monotone: within one map, a larger finite density never produces a
    /// smaller pixel.
    #[test]
    fn tone_map_is_monotone_on_finite_bins(projected in arb_f64_bits(2..256)) {
        let (pixels, _) = tone_map(&projected);
        let mut finite: Vec<(f64, u8)> = projected
            .iter()
            .zip(&pixels)
            .filter(|(v, _)| v.is_finite())
            .map(|(v, px)| (*v, *px))
            .collect();
        finite.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in finite.windows(2) {
            prop_assert!(
                w[0].1 <= w[1].1,
                "density {} → {} but larger {} → {}",
                w[0].0, w[0].1, w[1].0, w[1].1
            );
        }
    }

    /// PGM encode/decode round-trips bit-exactly for any pixel payload.
    #[test]
    fn pgm_round_trips_bit_exactly(
        width in 1u32..48,
        height in 1u32..48,
        raw in proptest::collection::vec(any::<u8>(), 2209..2210),
    ) {
        let pixels = raw[..(width * height) as usize].to_vec();
        let encoded = encode_pgm(width, height, &pixels);
        let (w, h, px) = decode_pgm(&encoded).expect("decodes");
        prop_assert_eq!(w, width);
        prop_assert_eq!(h, height);
        prop_assert_eq!(px, pixels.clone());
        // A second encode of the decoded pixels is byte-identical (the
        // header is canonical, so the container digest is stable).
        prop_assert_eq!(encode_pgm(width, height, &pixels), encoded);
    }

    /// The HCIM container round-trips the whole frame — pixels and
    /// provenance — bit-exactly. (A frame keeps at most the particles it was
    /// offered and counts at most one non-finite bin per pixel; the decoder
    /// rejects any other.)
    #[test]
    fn hcim_round_trips_bit_exactly(
        width in 1u32..32,
        raw in proptest::collection::vec(any::<u8>(), 961..962),
        step in any::<u64>(),
        axis_i in 0usize..3,
        nonfinite in any::<u64>(),
        count_a in any::<u64>(),
        count_b in any::<u64>(),
        byte_budget in any::<u64>(),
    ) {
        let pixels = raw[..(width * width) as usize].to_vec();
        let frame = ImageFrame {
            step,
            axis: Axis::ALL[axis_i],
            width,
            height: width,
            nonfinite_pixels: nonfinite % (pixels.len() as u64 + 1),
            pixels,
            selected: count_a.min(count_b),
            total: count_a.max(count_b),
            byte_budget,
        };
        let bytes = write_image(&frame);
        let back = read_image(&bytes).expect("decodes");
        prop_assert_eq!(back, frame.clone());
        // Re-encoding is byte-identical: digests are stable.
        prop_assert_eq!(write_image(&frame), bytes);
    }
}
