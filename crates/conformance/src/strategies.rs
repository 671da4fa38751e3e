//! Proptest strategies that do not avoid the ugly corners of IEEE 754.
//!
//! The stock property tests in this workspace draw floats from finite ranges
//! (`-1.0e9..1.0e9` and the like), which means NaN, ±inf, signed zeros, and
//! denormals are *never* exercised by generation — only by hand-written unit
//! tests. `adversarial_f64` closes that gap: mostly in-range finite values
//! with a deliberate sprinkle of [`special_values`], deterministic under the
//! proptest stand-in's seeded RNG.

use proptest::{collection, Strategy, TestRng};
use rand::Rng;

/// The IEEE-754 bestiary: every value class that ordinary finite-range
/// generators never produce.
///
/// Contents: quiet NaN with both sign bits, a payload-carrying NaN, ±inf,
/// ±0.0, the smallest positive denormal, a mid-range denormal, and the
/// largest/smallest finite magnitudes.
pub fn special_values() -> [f64; 12] {
    [
        f64::NAN,
        -f64::NAN,
        // NaN with a non-default payload: exposes code that canonicalizes
        // NaNs (or compares them bitwise) without meaning to.
        f64::from_bits(0x7FF8_0000_DEAD_BEEF),
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        f64::from_bits(1),       // smallest positive denormal
        f64::MIN_POSITIVE / 2.0, // mid-range denormal
        f64::MIN_POSITIVE,       // smallest normal
        f64::MAX,
        f64::MIN,
    ]
}

/// Strategy yielding mostly finite values from `lo..hi` with a fixed
/// fraction of [`special_values`] mixed in.
#[derive(Debug, Clone, Copy)]
pub struct AdversarialF64 {
    lo: f64,
    hi: f64,
    /// Specials per 1000 samples.
    special_per_mille: u32,
}

impl Strategy for AdversarialF64 {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        if rng.gen_range(0u32..1000) < self.special_per_mille {
            let s = special_values();
            s[rng.gen_range(0..s.len())]
        } else {
            rng.gen_range(self.lo..self.hi)
        }
    }
}

/// Mostly-finite floats in `lo..hi`, with ~12.5% special values
/// (NaN/±inf/±0/denormal/extreme) mixed in.
fn adversarial_f64(lo: f64, hi: f64) -> AdversarialF64 {
    assert!(lo < hi && lo.is_finite() && hi.is_finite());
    AdversarialF64 {
        lo,
        hi,
        special_per_mille: 125,
    }
}

/// `Vec<f64>` of length `0..max_len` drawn from `adversarial_f64`.
pub fn adversarial_vec(
    lo: f64,
    hi: f64,
    max_len: usize,
) -> collection::VecStrategy<AdversarialF64> {
    collection::vec(adversarial_f64(lo, hi), 0..max_len.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::new_rng;

    #[test]
    fn adversarial_mix_contains_all_classes() {
        let strat = adversarial_f64(-100.0, 100.0);
        let mut rng = new_rng(0xC0FFEE, 0);
        let samples: Vec<f64> = (0..4000).map(|_| strat.sample(&mut rng)).collect();
        assert!(samples.iter().any(|x| x.is_nan()));
        assert!(samples.iter().any(|x| x.is_infinite()));
        assert!(samples.iter().any(|x| x.is_finite() && x.abs() <= 100.0));
        assert!(samples
            .iter()
            .any(|x| *x != 0.0 && x.abs() < f64::MIN_POSITIVE));
        // The mix is mostly finite by construction.
        let finite = samples.iter().filter(|x| x.is_finite()).count();
        assert!(finite > samples.len() / 2);
    }

    #[test]
    fn sampling_is_deterministic() {
        let strat = adversarial_f64(0.0, 1.0);
        let a: Vec<u64> = {
            let mut rng = new_rng(42, 3);
            (0..64).map(|_| strat.sample(&mut rng).to_bits()).collect()
        };
        let b: Vec<u64> = {
            let mut rng = new_rng(42, 3);
            (0..64).map(|_| strat.sample(&mut rng).to_bits()).collect()
        };
        assert_eq!(a, b);
    }
}
