//! Property tests for the particle-mesh substrate.

use dpp::Serial;
use nbody::particle::{min_image, periodic_dist2, Particle};
use nbody::pm::{cic_deposit_soa, cic_interpolate};
use nbody::ParticleSoA;
use proptest::prelude::*;

/// A particle whose every float field is an arbitrary bit pattern — NaNs of
/// either sign and any payload, ±inf, ±0, denormals — plus the full tag
/// range. The SoA round trip must preserve all of it exactly.
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

fn arb_particles(n: std::ops::Range<usize>, box_size: f64) -> impl Strategy<Value = Vec<Particle>> {
    proptest::collection::vec(
        (
            0.0..box_size as f32,
            0.0..box_size as f32,
            0.0..box_size as f32,
            0.5f32..2.0,
        ),
        n,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (x, y, z, m))| Particle {
                pos: [x, y, z],
                vel: [0.0; 3],
                mass: m,
                tag: i as u64,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cic_deposit_conserves_mass(parts in arb_particles(0..300, 16.0)) {
        let delta = cic_deposit_soa(&Serial, &ParticleSoA::from_aos(&parts), 8, 16.0);
        // Overdensity sums to zero exactly when mass is conserved.
        let sum: f64 = delta.as_slice().iter().sum();
        prop_assert!(sum.abs() < 1e-6, "Σδ = {sum}");
    }

    #[test]
    fn cic_deposit_is_nonnegative_density(parts in arb_particles(1..200, 16.0)) {
        let delta = cic_deposit_soa(&Serial, &ParticleSoA::from_aos(&parts), 8, 16.0);
        // δ ≥ −1 always (density cannot be negative).
        for v in delta.as_slice() {
            prop_assert!(*v >= -1.0 - 1e-12);
        }
    }

    #[test]
    fn soa_round_trip_preserves_every_field_bit_for_bit(
        parts in proptest::collection::vec(arb_particle_bits(), 0..300)
    ) {
        let soa = ParticleSoA::from_aos(&parts);
        let back = soa.to_aos();
        prop_assert_eq!(parts.len(), back.len());
        for (a, b) in parts.iter().zip(&back) {
            for d in 0..3 {
                prop_assert_eq!(a.pos[d].to_bits(), b.pos[d].to_bits());
                prop_assert_eq!(a.vel[d].to_bits(), b.vel[d].to_bits());
            }
            prop_assert_eq!(a.mass.to_bits(), b.mass.to_bits());
            prop_assert_eq!(a.tag, b.tag);
        }
    }

    #[test]
    fn interpolation_of_uniform_field_is_constant(
        x in 0.0f32..16.0, y in 0.0f32..16.0, z in 0.0f32..16.0, c in -5.0f64..5.0
    ) {
        let field = fft::Grid3::filled([8, 8, 8], c);
        let v = cic_interpolate(&field, [x, y, z], 16.0);
        prop_assert!((v - c).abs() < 1e-9);
    }

    #[test]
    fn min_image_is_antisymmetric_and_bounded(
        ax in 0.0f64..10.0, ay in 0.0f64..10.0, az in 0.0f64..10.0,
        bx in 0.0f64..10.0, by in 0.0f64..10.0, bz in 0.0f64..10.0
    ) {
        let l = 10.0;
        let a = [ax, ay, az];
        let b = [bx, by, bz];
        let dab = min_image(a, b, l);
        let dba = min_image(b, a, l);
        for d in 0..3 {
            prop_assert!((dab[d] + dba[d]).abs() < 1e-9);
            prop_assert!(dab[d].abs() <= l / 2.0 + 1e-9);
        }
        // Periodic distance symmetric and within the half-diagonal bound.
        let d2 = periodic_dist2(a, b, l);
        prop_assert!((d2 - periodic_dist2(b, a, l)).abs() < 1e-9);
        prop_assert!(d2 <= 3.0 * (l / 2.0).powi(2) + 1e-9);
    }

    #[test]
    fn transfer_function_is_a_damping_factor(k in 1e-4f64..50.0) {
        let c = nbody::Cosmology::default();
        let t = c.transfer_bbks(k);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&t));
        prop_assert!(c.power_unnormalized(k) >= 0.0);
    }
}
