//! Property-based tests: both primitives must agree with a sequential oracle
//! and be backend-invariant, and a dispatch must cover `0..n` exactly once.

use dpp::{ops, Serial, Threaded};
use proptest::prelude::*;

fn threaded() -> Threaded {
    Threaded::new(4)
}

proptest! {
    #[test]
    fn map_matches_iterator(v in proptest::collection::vec(any::<i64>(), 0..3000)) {
        let expect: Vec<i64> = v.iter().map(|x| x.wrapping_mul(3).wrapping_add(1)).collect();
        prop_assert_eq!(&ops::map(&Serial, &v, |x| x.wrapping_mul(3).wrapping_add(1)), &expect);
        prop_assert_eq!(&ops::map(&threaded(), &v, |x| x.wrapping_mul(3).wrapping_add(1)), &expect);
    }

    #[test]
    fn argmin_matches_iterator(v in proptest::collection::vec(any::<i64>(), 0..3000)) {
        let expect = v
            .iter()
            .enumerate()
            .min_by(|(ia, a), (ib, b)| a.cmp(b).then(ia.cmp(ib)))
            .map(|(i, _)| i);
        prop_assert_eq!(ops::argmin_by(&Serial, &v, |x| *x), expect);
        prop_assert_eq!(ops::argmin_by(&threaded(), &v, |x| *x), expect);
    }
}

// Persistent-pool dispatch properties: exact coverage for arbitrary shapes,
// including degenerate grains and worker counts, with pool reuse across cases.
proptest! {
    #[test]
    fn dispatch_covers_exactly_once(
        n in 0usize..5000,
        grain in 0usize..300,
        workers in 0usize..9,
    ) {
        use std::sync::atomic::{AtomicU8, Ordering};
        let pool = dpp::ThreadPool::new(workers);
        let hits: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(0)).collect();
        pool.dispatch(n, grain, &|r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        for (i, h) in hits.iter().enumerate() {
            prop_assert_eq!(h.load(Ordering::Relaxed), 1, "index {} hit count", i);
        }
    }

    #[test]
    fn reused_pool_keeps_exact_coverage(
        shapes in proptest::collection::vec((1usize..2000, 1usize..200), 1..8),
    ) {
        use std::sync::atomic::{AtomicU64, Ordering};
        // One pool, many dispatches: the persistent workers must never lose
        // or duplicate a chunk across jobs.
        let pool = dpp::ThreadPool::new(4);
        for (n, grain) in shapes {
            let sum = AtomicU64::new(0);
            pool.dispatch(n, grain, &|r| {
                sum.fetch_add(r.len() as u64, Ordering::Relaxed);
            });
            prop_assert_eq!(sum.load(Ordering::Relaxed), n as u64);
        }
    }
}

// Adversarial float keys: inputs drawn from the conformance crate's IEEE-754
// strategy, so NaN (both signs and odd payloads), ±inf, ±0 and denormals reach
// `argmin_by` on every case instead of never. The oracle is a sequential scan
// under the documented order: NaN last, ties to the smallest index.
proptest! {
    #[test]
    fn argmin_orders_nan_last_on_adversarial_floats(
        v in conformance::strategies::adversarial_vec(-1e9, 1e9, 3000),
    ) {
        let mut expect: Option<usize> = None;
        for (i, x) in v.iter().enumerate() {
            let better = match expect {
                None => true,
                Some(b) => (v[b].is_nan() && !x.is_nan()) || *x < v[b],
            };
            if better {
                expect = Some(i);
            }
        }
        prop_assert_eq!(ops::argmin_by(&Serial, &v, |x| *x), expect);
        prop_assert_eq!(ops::argmin_by(&threaded(), &v, |x| *x), expect);
    }
}
