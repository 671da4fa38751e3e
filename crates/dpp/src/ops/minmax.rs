//! Parallel argmin by key.
//!
//! The primitive behind the most-bound-particle center finder: the particle
//! with the minimum potential is `argmin_by(potentials)`.

use crate::backend::{Backend, DEFAULT_GRAIN};
use parking_lot::Mutex;
use std::cmp::Ordering;

/// Total order over partially ordered keys: comparable keys keep their
/// order, and a key that is incomparable (an IEEE NaN — `k != k`) sorts
/// *after* every comparable key and ties with other NaNs.
///
/// The naive `k < *bk` comparison is nondeterministic under NaN: every
/// comparison against a NaN is false, so whichever element a chunk
/// happened to visit first got stuck as its local best, and Serial and
/// Threaded backends (different chunkings) returned different indices.
/// With NaN ordered last, any finite potential beats a NaN and ties fall
/// back to the smallest index, so all backends agree.
fn total_cmp_keys<K: PartialOrd>(a: &K, b: &K) -> Ordering {
    match a.partial_cmp(b) {
        Some(o) => o,
        // A key incomparable with itself is NaN-like; order it last.
        None => match (a.partial_cmp(a).is_none(), b.partial_cmp(b).is_none()) {
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            // Two NaNs (or an exotic incomparable pair): treat as a tie so
            // the index tiebreak decides deterministically.
            _ => Ordering::Equal,
        },
    }
}

/// Index of the minimum element under `key`. Ties resolve to the smallest
/// index (deterministic across backends), and NaN keys order last — a NaN
/// is returned only when every key is NaN. Returns `None` on empty input.
pub fn argmin_by<T, K, F>(backend: &dyn Backend, input: &[T], key: F) -> Option<usize>
where
    T: Sync,
    K: PartialOrd + Send,
    F: Fn(&T) -> K + Sync,
{
    let beats = |i: usize, k: &K, bi: usize, bk: &K| match total_cmp_keys(k, bk) {
        Ordering::Less => true,
        Ordering::Equal => i < bi,
        Ordering::Greater => false,
    };
    let best: Mutex<Option<(usize, K)>> = Mutex::new(None);
    backend.dispatch(input.len(), DEFAULT_GRAIN, &|r| {
        let mut local: Option<(usize, K)> = None;
        for i in r {
            let k = key(&input[i]);
            let better = match &local {
                None => true,
                Some((bi, bk)) => beats(i, &k, *bi, bk),
            };
            if better {
                local = Some((i, k));
            }
        }
        if let Some((i, k)) = local {
            let mut g = best.lock();
            let better = match &*g {
                None => true,
                Some((bi, bk)) => beats(i, &k, *bi, bk),
            };
            if better {
                *g = Some((i, k));
            }
        }
    });
    best.into_inner().map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Serial, Threaded};

    #[test]
    fn argmin_finds_global_minimum() {
        let t = Threaded::new(4);
        let v: Vec<f64> = (0..100_000)
            .map(|i| ((i as f64) * 0.37).sin() + (i as f64 - 61_234.0).abs() * 1e-6)
            .collect();
        let s = argmin_by(&Serial, &v, |x| *x).unwrap();
        let p = argmin_by(&t, &v, |x| *x).unwrap();
        assert_eq!(s, p);
        for x in &v {
            assert!(v[s] <= *x);
        }
    }

    #[test]
    fn ties_resolve_to_first_index() {
        let t = Threaded::new(4);
        let v = vec![5, 1, 3, 1, 1, 9];
        assert_eq!(argmin_by(&Serial, &v, |x| *x), Some(1));
        assert_eq!(argmin_by(&t, &v, |x| *x), Some(1));
    }

    #[test]
    fn empty_returns_none() {
        assert_eq!(argmin_by(&Serial, &[] as &[u8], |x| *x), None);
    }

    #[test]
    fn nan_keys_order_last_and_backends_agree() {
        // Regression: under `k < *bk`, a NaN seen first by a chunk could
        // never be displaced (all comparisons false), so Serial and
        // Threaded disagreed on inputs like a halo potential array with a
        // few NaNs from a degenerate force evaluation.
        let t = Threaded::new(4);
        let mut v: Vec<f64> = (0..50_000)
            .map(|i| ((i as f64) * 0.73).sin() * 100.0)
            .collect();
        // Sprinkle NaNs, including at position 0 (first element a Serial
        // scan sees) and at chunk-boundary-ish positions.
        for i in [0usize, 1, 1023, 1024, 25_000, 49_999] {
            v[i] = f64::NAN;
        }
        let s_min = argmin_by(&Serial, &v, |x| *x).unwrap();
        let p_min = argmin_by(&t, &v, |x| *x).unwrap();
        assert_eq!(s_min, p_min);
        assert!(!v[s_min].is_nan(), "a finite key must beat every NaN");
        for x in v.iter().filter(|x| !x.is_nan()) {
            assert!(v[s_min] <= *x);
        }
    }

    #[test]
    fn all_nan_input_still_returns_deterministic_first_index() {
        let t = Threaded::new(3);
        let v = vec![f64::NAN; 5000];
        assert_eq!(argmin_by(&Serial, &v, |x| *x), Some(0));
        assert_eq!(argmin_by(&t, &v, |x| *x), Some(0));
    }
}
