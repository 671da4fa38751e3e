//! Parallel histograms (per-chunk local bins merged at the end).

use crate::backend::{Backend, DEFAULT_GRAIN};
use parking_lot::Mutex;

/// Histogram of `values` into `nbins` equal-width bins over `[lo, hi)`.
///
/// Finite values outside the range are clamped into the first/last bin,
/// matching the convention used for the paper's Figure 4 (every node lands in
/// some bin). NaN values are *skipped*: a NaN has no bin, and the previous
/// behaviour — `NaN as usize` saturating to 0 — silently inflated the first
/// bin. Use [`histogram_counted`] to also get the number skipped.
/// Returns a vector of counts of length `nbins`.
pub fn histogram(
    backend: &dyn Backend,
    values: &[f64],
    lo: f64,
    hi: f64,
    nbins: usize,
) -> Vec<u64> {
    histogram_counted(backend, values, lo, hi, nbins).0
}

/// Values per block in the two-phase binning loop.
const HIST_BLOCK: usize = 64;

/// Replicated count arrays per chunk. Consecutive values often land in the
/// same bin (clustered data), which turns the count increment into a serial
/// load-add-store chain; striping increments across four independent arrays
/// breaks that dependency. Counts are integers, so the final merge is exact
/// — replication cannot change any bin total.
const HIST_REPLICAS: usize = 4;

/// Like [`histogram`], but also returns how many values were skipped because
/// they were NaN, so callers can surface data-quality problems instead of
/// losing them.
///
/// Each chunk runs a two-phase blocked loop: phase one maps a
/// `HIST_BLOCK`-wide strip of values straight to clamped bin indices in a
/// stack lane array — a branch-free sweep of subtract/divide/floor/compare
/// selects the compiler can vectorize, with NaNs routed to a dedicated
/// overflow slot (`nbins`) instead of a branch — and phase two scatters the
/// count increments across `HIST_REPLICAS` independent local arrays. The
/// binning expression is unchanged from the scalar form and counts are
/// integers, so the result is identical bin-for-bin.
pub fn histogram_counted(
    backend: &dyn Backend,
    values: &[f64],
    lo: f64,
    hi: f64,
    nbins: usize,
) -> (Vec<u64>, u64) {
    assert!(nbins > 0, "histogram needs at least one bin");
    assert!(nbins < i32::MAX as usize, "bin count must fit i32 indices");
    assert!(hi > lo, "histogram range must be non-empty");
    let width = (hi - lo) / nbins as f64;
    let nbf = nbins as f64;
    let global: Mutex<(Vec<u64>, u64)> = Mutex::new((vec![0; nbins], 0));
    backend.dispatch(values.len(), DEFAULT_GRAIN, &|r| {
        // `HIST_REPLICAS` stripes of `nbins + 1` slots; slot `nbins` tallies
        // NaNs.
        let stripe = nbins + 1;
        let mut local = vec![0u64; stripe * HIST_REPLICAS];
        let mut idx = [0i32; HIST_BLOCK];
        let mut base = r.start;
        while base + HIST_BLOCK <= r.end {
            let vw: &[f64; HIST_BLOCK] = values[base..base + HIST_BLOCK].try_into().unwrap();
            // Phase 1: clamped bin indices as a select chain (no branches,
            // no `floor` libcall). Bin-for-bin identical to the scalar
            // floor-then-clamp: truncation equals floor for `x ≥ 0`, and
            // because `nbins` is an integer, `floor(x) < 0 ⟺ x < 0` and
            // `floor(x) ≥ nbins ⟺ x ≥ nbins`, so the raw coordinate can be
            // compared directly. −∞ → bin 0, +∞ → last bin, NaN → the
            // overflow slot. Bins fit i32 (asserted), so the cast
            // vectorizes on plain SSE2.
            for k in 0..HIST_BLOCK {
                let v = vw[k];
                let x = (v - lo) / width;
                let clamped = if x < 0.0 {
                    0
                } else if x >= nbf {
                    (nbins - 1) as i32
                } else {
                    x as i32
                };
                idx[k] = if v.is_nan() { nbins as i32 } else { clamped };
            }
            // Phase 2: striped count scatter — four independent chains.
            let (l0, rest) = local.split_at_mut(stripe);
            let (l1, rest) = rest.split_at_mut(stripe);
            let (l2, l3) = rest.split_at_mut(stripe);
            for k in (0..HIST_BLOCK).step_by(HIST_REPLICAS) {
                l0[idx[k] as usize] += 1;
                l1[idx[k + 1] as usize] += 1;
                l2[idx[k + 2] as usize] += 1;
                l3[idx[k + 3] as usize] += 1;
            }
            base += HIST_BLOCK;
        }
        // Tail (< HIST_BLOCK values): the original scalar loop.
        for &v in &values[base..r.end] {
            if v.is_nan() {
                local[nbins] += 1;
                continue;
            }
            let b = ((v - lo) / width).floor();
            let b = if b < 0.0 {
                0
            } else if b as usize >= nbins {
                nbins - 1
            } else {
                b as usize
            };
            local[b] += 1;
        }
        let mut g = global.lock();
        for bin in 0..nbins {
            for rep in 0..HIST_REPLICAS {
                g.0[bin] += local[rep * stripe + bin];
            }
        }
        for rep in 0..HIST_REPLICAS {
            g.1 += local[rep * stripe + nbins];
        }
    });
    global.into_inner()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Serial, Threaded};

    #[test]
    fn uniform_values_spread_evenly() {
        let t = Threaded::new(4);
        let v: Vec<f64> = (0..10_000).map(|i| i as f64 / 10_000.0).collect();
        let h = histogram(&t, &v, 0.0, 1.0, 10);
        assert_eq!(h.iter().sum::<u64>(), 10_000);
        for c in &h {
            // Bin-edge floating point may move a value by one bin.
            assert!((*c as i64 - 1000).abs() <= 1, "bin count {c}");
        }
    }

    #[test]
    fn backends_agree() {
        let v: Vec<f64> = (0..5000).map(|i| ((i * 37) % 101) as f64).collect();
        let t = Threaded::new(4);
        assert_eq!(
            histogram(&Serial, &v, 0.0, 101.0, 7),
            histogram(&t, &v, 0.0, 101.0, 7)
        );
    }

    #[test]
    fn out_of_range_clamps() {
        let v = vec![-5.0, 0.25, 99.0];
        let h = histogram(&Serial, &v, 0.0, 1.0, 2);
        // -5.0 clamps into bin 0, 0.25 is in bin 0, 99.0 clamps into bin 1.
        assert_eq!(h, vec![2, 1]);
    }

    #[test]
    fn total_count_preserved() {
        let v: Vec<f64> = (0..777).map(|i| (i as f64).cos() * 10.0).collect();
        let h = histogram(&Serial, &v, -1.0, 1.0, 13);
        assert_eq!(h.iter().sum::<u64>(), 777);
    }

    #[test]
    fn nan_is_skipped_and_tallied_not_binned_as_zero() {
        // Regression: NaN used to saturate to bin 0 via `as usize`.
        let v = vec![f64::NAN, 0.1, f64::NAN, 0.9, -1.0, f64::NAN];
        let (h, skipped) = histogram_counted(&Serial, &v, 0.0, 1.0, 2);
        assert_eq!(skipped, 3);
        // -1.0 clamps into bin 0; the NaNs must not join it.
        assert_eq!(h, vec![2, 1]);
        assert_eq!(h.iter().sum::<u64>() + skipped, v.len() as u64);
        // Threaded agrees, including the tally.
        let t = Threaded::new(4);
        assert_eq!(histogram_counted(&t, &v, 0.0, 1.0, 2), (h, skipped));
        // The Vec-only wrapper drops NaNs the same way.
        assert_eq!(histogram(&Serial, &v, 0.0, 1.0, 2), vec![2, 1]);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        histogram(&Serial, &[1.0], 0.0, 1.0, 0);
    }
}
