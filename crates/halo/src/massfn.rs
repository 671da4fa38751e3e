//! Halo mass-function modeling and population sampling.
//!
//! The paper's Q Continuum statements (Table 2, Figures 3–4, §4.1) are about
//! a *population*: 167,686,789 halos at z = 0, of which only 84,719 exceed
//! 300,000 particles, with the largest near 25 million particles. We model
//! the differential mass function as a power law with an exponential cutoff,
//!
//! `dn/dm ∝ m^(−α) · exp(−m/m_cut)`,
//!
//! and provide a calibration routine that solves (α, m_cut) from two anchors:
//! the fraction of halos above a reference mass, and the expected maximum
//! halo mass. The substitution (measured 8192³ data → calibrated sampler) is
//! recorded in DESIGN.md; the paper itself projects its Figure 4 timings from
//! halo sizes the same way.

use rand::Rng;
use std::sync::Arc;

/// Number of tabulation points.
const TABLE_N: usize = 4096;

/// Buckets of the sampler's guide table. A power of two, so `(u · G) as
/// usize` is an exact floor and every bucket edge `b / G` is exact.
pub const GUIDE_BUCKETS: usize = 4096;

// A guide entry counts CDF entries and is stored as a `u16`.
const _: () = assert!(TABLE_N <= u16::MAX as usize);

/// The log-spaced tabulation grid over `[m_min, m_max_table]`: the bin
/// edges, plus each bin's midpoint and width — everything a tabulation needs
/// that does not depend on (α, m_cut), so a calibration builds it once.
struct LogGrid {
    m_min: f64,
    edges: Vec<f64>,
    mid: Vec<f64>,
    width: Vec<f64>,
}

impl LogGrid {
    fn new(m_min: f64, m_max_table: f64) -> Self {
        let lmin = m_min.ln();
        let lmax = m_max_table.ln();
        let edges: Vec<f64> = (0..=TABLE_N)
            .map(|i| (lmin + (lmax - lmin) * i as f64 / TABLE_N as f64).exp())
            .collect();
        LogGrid {
            m_min,
            mid: edges.windows(2).map(|e| (e[0] * e[1]).sqrt()).collect(),
            width: edges.windows(2).map(|e| e[1] - e[0]).collect(),
            edges,
        }
    }

    /// `m^(−α)` at every bin midpoint: the factor of a bin's weight that α
    /// alone fixes.
    fn power_law(&self, alpha: f64) -> Vec<f64> {
        self.mid.iter().map(|m| m.powf(-alpha)).collect()
    }

    /// Tabulate into `cdf` the normalized CDF of the slope whose
    /// [`LogGrid::power_law`] is `pow`, cut off at `m_cut`.
    fn tabulate(&self, pow: &[f64], m_cut: f64, cdf: &mut Vec<f64>) {
        cdf.clear();
        // Weight per bin: ∫ m^-α e^{-m/m_cut} dm ≈ midpoint rule per log bin.
        let mut acc = 0.0;
        for ((p, mid), width) in pow.iter().zip(&self.mid).zip(&self.width) {
            acc += p * (-mid / m_cut).exp() * width;
            cdf.push(acc);
        }
        for c in cdf.iter_mut() {
            *c /= acc;
        }
    }
}

/// Fraction of halos with mass above `m` under the CDF `cdf` over the bin
/// edges `grid`.
fn fraction_above(m_min: f64, grid: &[f64], cdf: &[f64], m: f64) -> f64 {
    if m <= m_min {
        return 1.0;
    }
    match grid.binary_search_by(|g| g.partial_cmp(&m).unwrap()) {
        Ok(i) | Err(i) => {
            if i == 0 {
                1.0
            } else if i > TABLE_N {
                0.0
            } else {
                1.0 - cdf[(i - 1).min(TABLE_N - 1)]
            }
        }
    }
}

/// What a draw reads: the bin edges, their logarithms, the CDF, and the
/// guide table that makes finding a draw's bin O(1).
#[derive(Debug)]
struct Sampler {
    grid: Vec<f64>,
    /// `grid[i].ln()`: the logs a draw interpolates between, taken once.
    ln_grid: Vec<f64>,
    cdf: Vec<f64>,
    /// `guide[b]` is the number of CDF entries below `b / GUIDE_BUCKETS`
    /// (`GUIDE_BUCKETS + 1` entries), so a `u` in bucket `b` has its bin in
    /// `guide[b]..=guide[b + 1]`.
    guide: Vec<u16>,
}

/// Tabulated mass function over `[m_min, m_max_table]` (particle-count units).
#[derive(Debug, Clone)]
pub struct MassFunction {
    /// Power-law slope α.
    pub alpha: f64,
    /// Exponential cutoff mass (particle count).
    pub m_cut: f64,
    /// Smallest halo (the paper discards halos under 40 particles).
    pub m_min: f64,
    /// The sampler tables. Shared, so a clone — what
    /// [`MassFunction::q_continuum`] hands every caller — copies a pointer,
    /// not 100 KiB of tables.
    sampler: Arc<Sampler>,
}

impl MassFunction {
    /// Build and tabulate the mass function.
    pub fn new(alpha: f64, m_cut: f64, m_min: f64, m_max_table: f64) -> Self {
        assert!(alpha > 0.0 && m_cut > 0.0 && m_min > 0.0 && m_max_table > m_min);
        let grid = LogGrid::new(m_min, m_max_table);
        let mut cdf = Vec::with_capacity(TABLE_N);
        grid.tabulate(&grid.power_law(alpha), m_cut, &mut cdf);
        MassFunction::from_table(alpha, m_cut, grid, cdf)
    }

    /// Wrap a tabulated CDF with its sampler tables.
    fn from_table(alpha: f64, m_cut: f64, grid: LogGrid, cdf: Vec<f64>) -> Self {
        let guide = (0..=GUIDE_BUCKETS)
            .map(|b| cdf.partition_point(|&c| c < b as f64 / GUIDE_BUCKETS as f64) as u16)
            .collect();
        MassFunction {
            alpha,
            m_cut,
            m_min: grid.m_min,
            sampler: Arc::new(Sampler {
                ln_grid: grid.edges.iter().map(|g| g.ln()).collect(),
                grid: grid.edges,
                cdf,
                guide,
            }),
        }
    }

    /// The tabulation's bin edges (`cdf().len() + 1` of them).
    pub fn grid(&self) -> &[f64] {
        &self.sampler.grid
    }

    /// The tabulated CDF: entry `i` is the probability of a mass below
    /// `grid()[i + 1]`; the last is 1.
    pub fn cdf(&self) -> &[f64] {
        &self.sampler.cdf
    }

    /// Fraction of halos with mass above `m`.
    pub fn fraction_above(&self, m: f64) -> f64 {
        fraction_above(self.m_min, self.grid(), self.cdf(), m)
    }

    /// The bin a uniform `u ∈ [0, 1]` falls in: the first CDF entry `≥ u`,
    /// clamped to the last bin — exactly what `binary_search_by` over the
    /// CDF returns. `u`'s guide bucket bounds the search to the entries
    /// between its edges; on an exact hit the full binary search picks
    /// among equal entries (the flat top of a cut-off function), as the
    /// reference does.
    pub fn bin_of(&self, u: f64) -> usize {
        let s = &*self.sampler;
        let b = ((u * GUIDE_BUCKETS as f64) as usize).min(GUIDE_BUCKETS - 1);
        let (lo, hi) = (s.guide[b] as usize, s.guide[b + 1] as usize);
        let i = lo + s.cdf[lo..hi].partition_point(|&c| c < u);
        if s.cdf.get(i) == Some(&u) {
            // Always `Ok`: `cdf[i]` equals `u`.
            return s
                .cdf
                .binary_search_by(|c| c.partial_cmp(&u).expect("u is a number"))
                .unwrap_or(i);
        }
        i.min(TABLE_N - 1)
    }

    /// Draw one halo mass (particle count).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen_range(0.0..1.0);
        let i = self.bin_of(u);
        // Uniform in log within the bin.
        let (l0, l1) = (self.sampler.ln_grid[i], self.sampler.ln_grid[i + 1]);
        let f: f64 = rng.gen_range(0.0..1.0);
        let m = (l0 + f * (l1 - l0)).exp();
        m.round().max(self.m_min) as u64
    }

    /// Draw `n` halo masses.
    pub fn sample_many<R: Rng>(&self, rng: &mut R, n: usize) -> Vec<u64> {
        telemetry::count!("halo", "massfn_draws", n);
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Draw `n` halo masses *conditioned on* `m > m_lo` (direct tail
    /// sampling — used to realize the off-loaded population without drawing
    /// the full 1.7×10⁸ halo catalog).
    ///
    /// Where the table holds no mass above `m_lo` (`fraction_above(m_lo)` is
    /// 0: past its top, or where the cutoff rounds the top CDF entries to
    /// exactly 1), every draw is `m_lo.ceil()` — the floor any tail draw is
    /// clamped to — and no random number is consumed.
    pub fn sample_many_above<R: Rng>(&self, rng: &mut R, n: usize, m_lo: f64) -> Vec<u64> {
        telemetry::count!("halo", "massfn_draws", n);
        let floor = m_lo.ceil();
        let frac = self.fraction_above(m_lo);
        if frac == 0.0 {
            return vec![floor as u64; n];
        }
        let cdf_lo = 1.0 - frac;
        let s = &*self.sampler;
        let m_hi = m_lo * 1.0001;
        let (ln_lo, ln_hi) = (m_lo.ln(), m_hi.ln());
        let mut draw = || {
            let u: f64 = rng.gen_range(cdf_lo..1.0);
            let i = self.bin_of(u);
            // The bin's edges, raised to at least `m_lo` and `m_lo · 1.0001`.
            let l0 = if s.grid[i] >= m_lo {
                s.ln_grid[i]
            } else {
                ln_lo
            };
            let l1 = if s.grid[i + 1] >= m_hi {
                s.ln_grid[i + 1]
            } else {
                ln_hi
            };
            let f: f64 = rng.gen_range(0.0..1.0);
            let m = (l0 + f * (l1 - l0)).exp();
            m.round().max(floor) as u64
        };
        (0..n).map(|_| draw()).collect()
    }

    /// Solve (α, m_cut) so that `fraction_above(m_ref) = frac_ref` and the
    /// expected count above `m_max` in `n_total` halos is one (i.e. `m_max`
    /// is the expected largest halo). Nested bisection over bare CDFs on one
    /// shared grid (the grid does not depend on α or m_cut); only the
    /// solution gets sampler tables.
    fn calibrate(m_min: f64, m_ref: f64, frac_ref: f64, m_max: f64, n_total: u64) -> MassFunction {
        assert!(m_min < m_ref && m_ref < m_max);
        let grid = LogGrid::new(m_min, m_max * 40.0);
        let mut cdf = Vec::with_capacity(TABLE_N);
        // Inner solve: given α, find m_cut with fraction_above(m_ref)=frac_ref,
        // leaving its CDF in `cdf`.
        let solve_mcut = |alpha: f64, cdf: &mut Vec<f64>| -> f64 {
            let pow = grid.power_law(alpha);
            let (mut lo, mut hi) = (m_ref * 1e-3, m_max * 1e3);
            for _ in 0..80 {
                let mid = (lo * hi).sqrt();
                grid.tabulate(&pow, mid, cdf);
                if fraction_above(m_min, &grid.edges, cdf, m_ref) < frac_ref {
                    lo = mid; // need a fatter tail
                } else {
                    hi = mid;
                }
            }
            let m_cut = (lo * hi).sqrt();
            grid.tabulate(&pow, m_cut, cdf);
            m_cut
        };
        // Outer solve on α against the expected-maximum condition. For fixed
        // P(>m_ref), larger α with its compensating larger m_cut yields a
        // heavier far tail, so the expected count above m_max increases with α.
        let (mut alo, mut ahi) = (1.05, 3.5);
        for _ in 0..60 {
            let amid = 0.5 * (alo + ahi);
            solve_mcut(amid, &mut cdf);
            if fraction_above(m_min, &grid.edges, &cdf, m_max) * n_total as f64 > 1.0 {
                ahi = amid;
            } else {
                alo = amid;
            }
        }
        let alpha = 0.5 * (alo + ahi);
        let m_cut = solve_mcut(alpha, &mut cdf);
        MassFunction::from_table(alpha, m_cut, grid, cdf)
    }

    /// The calibration matching the paper's Q Continuum z = 0 catalog:
    /// 167,686,789 halos ≥ 40 particles, 84,719 above 300,000, largest ≈ 25 M.
    ///
    /// The nested bisection behind it (~0.3 s) runs once per process; every
    /// call hands out a clone sharing that one table.
    pub fn q_continuum() -> MassFunction {
        static CALIBRATED: std::sync::OnceLock<MassFunction> = std::sync::OnceLock::new();
        CALIBRATED
            .get_or_init(|| {
                MassFunction::calibrate(
                    40.0,
                    300_000.0,
                    84_719.0 / 167_686_789.0,
                    25.0e6,
                    167_686_789,
                )
            })
            .clone()
    }
}

/// A mass function fitted to a measured halo population.
#[derive(Debug, Clone, PartialEq)]
pub struct FittedMassFunction {
    /// Fitted power-law slope α (of `dn/dm ∝ m^(−α)`).
    pub alpha: f64,
    /// Rough cutoff estimate (from the largest observed halo).
    pub m_cut_estimate: f64,
    /// Log-log bins used `(ln m_mid, ln count_per_logbin)`.
    pub bins_used: usize,
}

/// Fit a power-law slope to a measured halo-size catalog by linear
/// regression of log counts over log-spaced mass bins (the route from a
/// small-run catalog to the projection machinery).
///
/// Returns `None` when fewer than three populated bins exist.
pub fn fit_power_law(sizes: &[u64], m_min: f64) -> Option<FittedMassFunction> {
    let m_max = sizes.iter().copied().max()? as f64;
    if m_max <= m_min {
        return None;
    }
    let nbins = 24usize;
    let (lmin, lmax) = (m_min.ln(), (m_max * 1.001).ln());
    let mut counts = vec![0u64; nbins];
    for &s in sizes {
        let m = s as f64;
        if m < m_min {
            continue;
        }
        let b = (((m.ln() - lmin) / (lmax - lmin) * nbins as f64) as usize).min(nbins - 1);
        counts[b] += 1;
    }
    // Regression over populated bins in the power-law regime (skip the
    // cutoff-suppressed top quarter of the mass range).
    let pts: Vec<(f64, f64)> = (0..nbins * 3 / 4)
        .filter(|&b| counts[b] >= 5)
        .map(|b| {
            let lm = lmin + (lmax - lmin) * (b as f64 + 0.5) / nbins as f64;
            (lm, (counts[b] as f64).ln())
        })
        .collect();
    if pts.len() < 3 {
        return None;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    // counts per log bin ∝ m·dn/dm ∝ m^(1−α)  ⇒  α = 1 − slope.
    Some(FittedMassFunction {
        alpha: 1.0 - slope,
        m_cut_estimate: m_max / 2.0,
        bins_used: pts.len(),
    })
}

/// Paper constants for the Q Continuum z = 0 halo census.
pub mod qcontinuum {
    /// Total halos found at z = 0.
    pub const TOTAL_HALOS: u64 = 167_686_789;
    /// Halos off-loaded to Moonlight (above the 300,000-particle split).
    pub const OFFLOADED_HALOS: u64 = 84_719;
    /// The in-situ/off-line split threshold in particles.
    pub const SPLIT_THRESHOLD: u64 = 300_000;
    /// Largest halo observed, in particles.
    pub const LARGEST_HALO: u64 = 25_000_000;
    /// Nodes used on Titan for the analysis.
    pub const TITAN_NODES: u64 = 16_384;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn fraction_above_is_monotone() {
        let mf = MassFunction::new(1.9, 1.0e6, 40.0, 1.0e9);
        let mut last = 1.0;
        for m in [40.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7] {
            let f = mf.fraction_above(m);
            assert!(f <= last + 1e-12, "not monotone at {m}");
            assert!((0.0..=1.0).contains(&f));
            last = f;
        }
        assert_eq!(mf.fraction_above(1.0), 1.0);
    }

    #[test]
    fn samples_respect_bounds_and_distribution() {
        let mf = MassFunction::new(1.8, 1.0e5, 40.0, 1.0e7);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let samples = mf.sample_many(&mut rng, 20_000);
        assert!(samples.iter().all(|&m| m >= 40));
        // Empirical tail fraction ≈ analytic.
        for m_test in [100.0, 1000.0, 10_000.0] {
            let emp = samples.iter().filter(|&&m| m as f64 > m_test).count() as f64
                / samples.len() as f64;
            let ana = mf.fraction_above(m_test);
            assert!(
                (emp - ana).abs() < 0.02 + 0.2 * ana,
                "m={m_test}: empirical {emp} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn steeper_slope_means_fewer_giants() {
        let shallow = MassFunction::new(1.5, 1.0e6, 40.0, 1.0e8);
        let steep = MassFunction::new(2.5, 1.0e6, 40.0, 1.0e8);
        assert!(steep.fraction_above(1e5) < shallow.fraction_above(1e5));
    }

    #[test]
    fn q_continuum_calibration_hits_paper_anchors() {
        let mf = MassFunction::q_continuum();
        let frac = mf.fraction_above(300_000.0);
        let target = 84_719.0 / 167_686_789.0;
        assert!(
            (frac / target - 1.0).abs() < 0.05,
            "fraction above 300k: {frac} vs {target}"
        );
        let exp_max = mf.fraction_above(25.0e6) * qcontinuum::TOTAL_HALOS as f64;
        assert!(
            (0.5..2.0).contains(&exp_max),
            "expected count above 25M should be ~1, got {exp_max}"
        );
        // Sanity: the overwhelming majority of halos are tiny (99.9% in situ).
        assert!(mf.fraction_above(300_000.0) < 1e-3);
    }

    #[test]
    fn sampled_population_matches_paper_shape() {
        // Sample a scaled-down population and check the in-situ share.
        let mf = MassFunction::q_continuum();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let n = 200_000;
        let masses = mf.sample_many(&mut rng, n);
        let offloaded = masses.iter().filter(|&&m| m > 300_000).count();
        // Expected ~0.0505% → ~101 of 200k; allow wide Poisson slack.
        assert!(
            (20..400).contains(&offloaded),
            "offloaded {offloaded} of {n}"
        );
    }

    /// The bin the plain binary search over the CDF picks.
    fn searched_bin(cdf: &[f64], u: f64) -> usize {
        match cdf.binary_search_by(|c| c.partial_cmp(&u).unwrap()) {
            Ok(i) => i,
            Err(i) => i.min(TABLE_N - 1),
        }
    }

    #[test]
    fn guide_search_matches_the_binary_search_on_dyadic_entries() {
        // Every entry `(i + 1) / 4096` sits exactly on a bucket edge, so a
        // guide that counted entries `≤` its edge would start each search one
        // past the right bin.
        let grid = LogGrid::new(40.0, 1e6);
        let cdf: Vec<f64> = (1..=TABLE_N).map(|i| i as f64 / TABLE_N as f64).collect();
        let mf = MassFunction::from_table(2.0, 1e5, grid, cdf.clone());
        for b in 0..=GUIDE_BUCKETS {
            let u = b as f64 / GUIDE_BUCKETS as f64;
            assert_eq!(mf.bin_of(u), searched_bin(&cdf, u), "u = {b}/4096");
            let below = f64::from_bits(u.to_bits().saturating_sub(1));
            assert_eq!(
                mf.bin_of(below),
                searched_bin(&cdf, below),
                "u = {b}/4096 − 1 ulp"
            );
        }
    }

    #[test]
    fn tail_sampling_above_the_table_returns_the_floor() {
        // The cutoff rounds this table's top entries to exactly 1, so no
        // tabulated mass lies above 5·10⁷ — nor above the table's top.
        let mf = MassFunction::new(1.9, 1e6, 40.0, 1e9);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for m_lo in [5e7, 2e9 + 0.5] {
            assert_eq!(mf.fraction_above(m_lo), 0.0);
            let tail = mf.sample_many_above(&mut rng, 64, m_lo);
            assert_eq!(tail, vec![m_lo.ceil() as u64; 64], "m_lo = {m_lo}");
        }
        // Just below the first exact 1, the tail is still drawn.
        let top = mf.cdf().iter().position(|&c| c == 1.0).unwrap();
        let m_lo = mf.grid()[top] * 0.999;
        assert!(mf.fraction_above(m_lo) > 0.0);
        let tail = mf.sample_many_above(&mut rng, 64, m_lo);
        assert!(tail.iter().all(|&m| m as f64 >= m_lo));
    }

    #[test]
    #[should_panic(expected = "m_min < m_ref")]
    fn calibrate_rejects_bad_anchors() {
        MassFunction::calibrate(1000.0, 100.0, 0.1, 10.0, 100);
    }

    #[test]
    fn fit_recovers_the_generating_slope() {
        let mf = MassFunction::new(1.9, 5.0e5, 40.0, 1.0e8);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let sizes = mf.sample_many(&mut rng, 100_000);
        let fit = fit_power_law(&sizes, 40.0).expect("fit");
        assert!(
            (fit.alpha - 1.9).abs() < 0.25,
            "fitted alpha {} vs generating 1.9",
            fit.alpha
        );
        assert!(fit.bins_used >= 3);
    }

    #[test]
    fn fit_fails_gracefully_on_tiny_catalogs() {
        assert!(fit_power_law(&[], 40.0).is_none());
        assert!(fit_power_law(&[50, 60], 40.0).is_none());
        assert!(fit_power_law(&[30, 35], 40.0).is_none(), "all below floor");
    }

    #[test]
    fn tail_sampling_respects_floor_and_distribution() {
        let mf = MassFunction::q_continuum();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let tail = mf.sample_many_above(&mut rng, 5000, 300_000.0);
        assert!(tail.iter().all(|&m| m >= 300_000));
        // Conditional tail fraction above 1M should match analytics.
        let emp = tail.iter().filter(|&&m| m > 1_000_000).count() as f64 / tail.len() as f64;
        let ana = mf.fraction_above(1_000_000.0) / mf.fraction_above(300_000.0);
        assert!(
            (emp - ana).abs() < 0.05,
            "empirical {emp} vs analytic {ana}"
        );
    }
}
