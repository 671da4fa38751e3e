//! The harness's own arithmetic: medians, quartiles, and percentiles with
//! the rule for when a sample count supports one.

/// Median of `values` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, interpolated the way Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so a
/// spread computed here matches the one the benchmark driver computes. Fewer
/// than two values have no spread: all three are the single value (or 0).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x, x, x];
    }
    let cut = |k: usize| {
        // Rank k·(n+1)/4, 1-based; like Python, the end intervals
        // extrapolate when the rank falls outside the data.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    [cut(1), cut(2), cut(3)]
}

/// Nearest-rank percentile `p` (in percent) of `values`; `0.0` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Does percentile `p` of `n` samples have at least ten samples beyond it?
/// A tail read off fewer does not repeat from run to run.
pub fn tail_supported(n: usize, p: f64) -> bool {
    // Samples strictly above the nearest-rank position.
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n.saturating_sub(rank) >= 10
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p95 of 200 samples: rank 190, ten beyond. Of 199: nine beyond.
        assert!(tail_supported(200, 95.0));
        assert!(!tail_supported(199, 95.0));
        assert!(tail_supported(1000, 99.0));
        assert!(!tail_supported(999, 99.0));
        assert!(!tail_supported(39, 75.0));
        assert!(tail_supported(40, 75.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 380.0);
        assert_eq!(percentile(&v, 50.0), 200.0);
        assert_eq!(percentile(&v, 100.0), 400.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
    }
}
