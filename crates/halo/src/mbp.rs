//! Most-bound-particle (MBP) halo center finding (paper §3.3.2).
//!
//! Two engines over the same potential definition
//! `φ(i) = Σ_{j≠i} −m_j / (d_ij + ε)`:
//!
//! * [`mbp_brute`] — the paper's PISTON/VTK-m approach: compute every
//!   particle's potential with a data-parallel O(n²) kernel and take the
//!   argmin. Trivially parallel; this is the kernel whose O(n²) cost drives
//!   the load imbalance the whole workflow design responds to.
//! * [`mbp_astar`] — the serial A*-style baseline: optimistic (admissible)
//!   potential bounds from a k-d tree let it find the minimum without
//!   evaluating every particle exactly.

use crate::columns::Coords;
use crate::kdtree::KdTree;
use dpp::{ops, Backend};
use nbody::particle::Particle;

/// Result of a center-finding run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MbpResult {
    /// Index of the most bound particle within the halo's member array.
    pub index: usize,
    /// Its potential.
    pub potential: f64,
    /// Number of exact potential evaluations performed (n for brute force).
    pub exact_evaluations: usize,
}

/// Lanes per block in the column potential sweep. Sixteen f64 values span
/// two cache lines and give the out-of-order core four 4-wide AVX2 strips
/// (or two AVX-512 strips) of independent sqrt/divide work to pipeline.
const MBP_LANES: usize = 16;

/// Exact potential of point `i` (O(n)) over packed coordinate columns,
/// blocked in `MBP_LANES`-wide strips.
///
/// Each strip computes its distances, softened inverses, and mass weights
/// into a stack lane array — a branch-light loop the compiler can vectorize
/// (sqrt and divide are the dominant cost and both have packed forms) — and
/// then folds the lanes into the accumulator serially in index order.
/// **Summation order is fixed**: contributions are subtracted in ascending
/// `j`, so the result is bit-identical to the plain scalar loop
/// (`conformance::layout::potential_scalar_ref` is that loop, and the layout
/// battery holds the two equal); only the expensive per-pair math is
/// reassociated into lanes, never the reduction. The self term is
/// excluded by a select (`j == i` contributes a literal `0.0`, and
/// `acc - 0.0` is an IEEE-754 identity for every value including −0.0 and
/// NaN), not by a mask multiply, which would turn NaN positions into
/// poisoned lanes.
pub fn potential_at(coords: &Coords, masses: &[f64], i: usize, softening: f64) -> f64 {
    let (xs, ys, zs) = (coords.xs(), coords.ys(), coords.zs());
    let n = xs.len();
    debug_assert_eq!(masses.len(), n);
    let (xi, yi, zi) = (xs[i], ys[i], zs[i]);
    let mut acc = 0.0;
    let mut lane = [0.0f64; MBP_LANES];
    let full = n - n % MBP_LANES;
    let mut j0 = 0;
    // Full strips run over fixed-size array windows: the constant trip count
    // and pre-checked bounds are what let the sqrt/div lanes become packed
    // instructions instead of eight guarded scalar ops.
    while j0 < full {
        let xw: &[f64; MBP_LANES] = xs[j0..j0 + MBP_LANES].try_into().unwrap();
        let yw: &[f64; MBP_LANES] = ys[j0..j0 + MBP_LANES].try_into().unwrap();
        let zw: &[f64; MBP_LANES] = zs[j0..j0 + MBP_LANES].try_into().unwrap();
        let mw: &[f64; MBP_LANES] = masses[j0..j0 + MBP_LANES].try_into().unwrap();
        for k in 0..MBP_LANES {
            let dx = xw[k] - xi;
            let dy = yw[k] - yi;
            let dz = zw[k] - zi;
            let d = (dx * dx + dy * dy + dz * dz).sqrt();
            lane[k] = mw[k] / (d + softening);
        }
        // The self term appears in exactly one strip; zero it after the
        // branch-free lane fill so the hot loop stays select-free.
        if j0 <= i && i < j0 + MBP_LANES {
            lane[i - j0] = 0.0;
        }
        for &t in &lane {
            acc -= t;
        }
        j0 += MBP_LANES;
    }
    for j in full..n {
        let dx = xs[j] - xi;
        let dy = ys[j] - yi;
        let dz = zs[j] - zi;
        let d = (dx * dx + dy * dy + dz * dz).sqrt();
        let t = if j == i {
            0.0
        } else {
            masses[j] / (d + softening)
        };
        acc -= t;
    }
    acc
}

/// Data-parallel brute-force MBP over packed columns: all potentials via the
/// blocked sweep, then argmin.
pub fn mbp_brute_cols(
    backend: &dyn Backend,
    coords: &Coords,
    masses: &[f64],
    softening: f64,
) -> MbpResult {
    assert!(!coords.is_empty(), "cannot center an empty halo");
    assert_eq!(masses.len(), coords.len(), "one mass per position");
    let idx: Vec<usize> = (0..coords.len()).collect();
    let potentials = ops::map(backend, &idx, |&i| {
        potential_at(coords, masses, i, softening)
    });
    let index = ops::argmin_by(backend, &potentials, |&p| p).expect("non-empty");
    MbpResult {
        index,
        potential: potentials[index],
        exact_evaluations: coords.len(),
    }
}

/// Data-parallel brute-force MBP: all potentials, then argmin.
///
/// Converts to packed columns once and runs [`mbp_brute_cols`].
pub fn mbp_brute(backend: &dyn Backend, particles: &[Particle], softening: f64) -> MbpResult {
    let coords = Coords::from_particles(particles);
    let masses: Vec<f64> = particles.iter().map(|p| p.mass as f64).collect();
    mbp_brute_cols(backend, &coords, &masses, softening)
}

/// Serial A*-style MBP with tree-based optimistic bounds.
///
/// For each particle an *admissible* lower bound of the potential is
/// computed by traversing the k-d tree and placing each pruned node's whole
/// mass at its *minimum* possible distance, making the estimate at least as
/// negative as the exact value, so the first exact evaluation that beats all
/// remaining bounds is the global minimum.
pub fn mbp_astar(particles: &[Particle], softening: f64) -> MbpResult {
    assert!(!particles.is_empty(), "cannot center an empty halo");
    let n = particles.len();
    let coords = Coords::from_particles(particles);
    let (xs, ys, zs) = (coords.xs(), coords.ys(), coords.zs());
    let masses: Vec<f64> = particles.iter().map(|p| p.mass as f64).collect();
    let tree = KdTree::build_cols(&coords, Some(&masses));
    // Map particle index → slot in the tree's reordered index array, so leaf
    // membership of the query particle can be tested against node ranges.
    let mut slot_of = vec![0usize; n];
    for (slot, &i) in tree.indices(tree.node(tree.root())).iter().enumerate() {
        slot_of[i as usize] = slot;
    }

    // Optimistic bound per particle: open nodes while they are "close and
    // big", otherwise bound the whole node by its minimum distance.
    let bound_of = |i: usize| -> f64 {
        let q = coords.get(i);
        let mut acc = 0.0;
        let mut stack = vec![tree.root()];
        while let Some(id) = stack.pop() {
            let node = tree.node(id);
            let dmin2 = node.bbox.min_dist2_point(q);
            let side = node.bbox.longest_side();
            // Opening criterion: open when the box is comparatively large.
            let open = dmin2 < (2.0 * side) * (2.0 * side);
            match node.children {
                Some((l, r)) if open => {
                    stack.push(l);
                    stack.push(r);
                }
                _ => {
                    if node.start <= slot_of[i] && slot_of[i] < node.end && node.children.is_none()
                    {
                        // Exact within the own leaf (excluding self).
                        for &j in tree.indices(node) {
                            let j = j as usize;
                            if j == i {
                                continue;
                            }
                            let d = ((xs[j] - q[0]).powi(2)
                                + (ys[j] - q[1]).powi(2)
                                + (zs[j] - q[2]).powi(2))
                            .sqrt();
                            acc -= masses[j] / (d + softening);
                        }
                    } else {
                        // Whole-node optimistic bound: place the entire node
                        // mass at its closest possible distance. Never less
                        // negative than the exact contribution, so admissible.
                        acc -= node.mass / (dmin2.sqrt() + softening);
                    }
                }
            }
        }
        acc
    };

    let mut order: Vec<(usize, f64)> = (0..n).map(|i| (i, bound_of(i))).collect();
    order.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));

    let mut best_idx = order[0].0;
    let mut best_pot = potential_at(&coords, &masses, best_idx, softening);
    let mut evals = 1;
    for &(i, bound) in order.iter().skip(1) {
        if bound >= best_pot {
            break; // no remaining candidate can beat the best exact value
        }
        let pot = potential_at(&coords, &masses, i, softening);
        evals += 1;
        if pot < best_pot || (pot == best_pot && i < best_idx) {
            best_pot = pot;
            best_idx = i;
        }
    }
    MbpResult {
        index: best_idx,
        potential: best_pot,
        exact_evaluations: evals,
    }
}

/// The O(n²) cost model for center finding used for Q-Continuum-scale
/// projections: seconds = `coeff · n²`.
///
/// `COEFF_TITAN_GPU` is anchored to the paper: the ~25-million-particle halo
/// took 10.6 h on Moonlight ≈ 5.8 h Titan-equivalent → 2.1×10⁴ s / (25·10⁶)².
pub const COEFF_TITAN_GPU: f64 = 3.36e-11;

/// Center-finding seconds for an `n`-particle halo on Titan's GPU path.
pub fn center_time_titan_gpu(n: u64) -> f64 {
    COEFF_TITAN_GPU * (n as f64) * (n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpp::{Serial, Threaded};

    fn potential_of(particles: &[Particle], i: usize, softening: f64) -> f64 {
        let masses: Vec<f64> = particles.iter().map(|p| p.mass as f64).collect();
        potential_at(&Coords::from_particles(particles), &masses, i, softening)
    }

    fn blob(n: usize, seed: u64) -> Vec<Particle> {
        (0..n)
            .map(|i| {
                let t = seed as f64 * 13.7 + i as f64;
                Particle::at_rest(
                    [
                        (((t * 0.618).fract() - 0.5) * 4.0) as f32,
                        (((t * 0.414).fract() - 0.5) * 4.0) as f32,
                        (((t * 0.732).fract() - 0.5) * 4.0) as f32,
                    ],
                    1.0,
                    i as u64,
                )
            })
            .collect()
    }

    /// A blob with a deliberately dense core around particle 0.
    fn cored_blob(n: usize) -> Vec<Particle> {
        let mut parts = blob(n, 5);
        for (k, p) in parts.iter_mut().take(n / 4).enumerate() {
            let t = k as f64;
            p.pos = [
                (((t * 0.317).fract() - 0.5) * 0.3) as f32,
                (((t * 0.553).fract() - 0.5) * 0.3) as f32,
                (((t * 0.871).fract() - 0.5) * 0.3) as f32,
            ];
        }
        parts
    }

    #[test]
    fn brute_force_finds_exact_argmin() {
        let parts = blob(300, 1);
        let r = mbp_brute(&Serial, &parts, 1e-3);
        // Verify against direct evaluation.
        for i in 0..parts.len() {
            assert!(potential_of(&parts, i, 1e-3) >= r.potential - 1e-12);
        }
        assert_eq!(r.exact_evaluations, 300);
    }

    #[test]
    fn backends_agree() {
        let parts = blob(500, 2);
        let t = Threaded::new(4);
        let a = mbp_brute(&Serial, &parts, 1e-3);
        let b = mbp_brute(&t, &parts, 1e-3);
        assert_eq!(a.index, b.index);
        assert_eq!(a.potential, b.potential);
    }

    #[test]
    fn lone_particle_with_nan_position_has_zero_potential() {
        // The self term is excluded by select, not a mask multiply, so a
        // NaN position must not poison the (empty) sum.
        let lone = vec![Particle::at_rest([f32::NAN, 0.0, 0.0], 1.0, 0)];
        assert_eq!(potential_of(&lone, 0, 1e-3).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn brute_matches_per_particle_potential_map() {
        let parts = blob(500, 6);
        let t = Threaded::new(4);
        let r = mbp_brute(&t, &parts, 1e-3);
        let reference: Vec<f64> = (0..parts.len())
            .map(|i| potential_of(&parts, i, 1e-3))
            .collect();
        assert_eq!(r.potential.to_bits(), reference[r.index].to_bits());
        for (i, &p) in reference.iter().enumerate() {
            assert!(p >= r.potential || i == r.index);
        }
    }

    #[test]
    fn astar_matches_brute_force() {
        for seed in 0..5 {
            let parts = blob(400, seed);
            let b = mbp_brute(&Serial, &parts, 1e-3);
            let a = mbp_astar(&parts, 1e-3);
            assert_eq!(a.index, b.index, "seed {seed}");
            assert!((a.potential - b.potential).abs() < 1e-9);
        }
    }

    #[test]
    fn astar_matches_on_cored_halo_and_saves_work() {
        let parts = cored_blob(800);
        let b = mbp_brute(&Serial, &parts, 1e-3);
        let a = mbp_astar(&parts, 1e-3);
        assert_eq!(a.index, b.index);
        // The A* search must prune a meaningful share of evaluations on a
        // centrally concentrated halo (paper reports ~8× on real halos).
        assert!(
            a.exact_evaluations < parts.len(),
            "expected pruning, got {}/{}",
            a.exact_evaluations,
            parts.len()
        );
    }

    #[test]
    fn center_lands_in_dense_core() {
        let parts = cored_blob(600);
        let r = mbp_brute(&Serial, &parts, 1e-3);
        let c = parts[r.index].pos_f64();
        let dist_from_core = (c[0] * c[0] + c[1] * c[1] + c[2] * c[2]).sqrt();
        assert!(dist_from_core < 0.5, "center {c:?} should be in the core");
    }

    #[test]
    fn softening_prevents_singularity() {
        // Two coincident particles: without softening the potential would be
        // −∞; with it, finite.
        let parts = vec![
            Particle::at_rest([0.0; 3], 1.0, 0),
            Particle::at_rest([0.0; 3], 1.0, 1),
        ];
        let r = mbp_brute(&Serial, &parts, 1e-3);
        assert!(r.potential.is_finite());
        assert!((r.potential + 1000.0).abs() < 1.0); // −1/ε = −1000
    }

    #[test]
    fn single_particle_halo() {
        let parts = vec![Particle::at_rest([1.0; 3], 1.0, 9)];
        let r = mbp_brute(&Serial, &parts, 1e-3);
        assert_eq!(r.index, 0);
        assert_eq!(r.potential, 0.0);
        let a = mbp_astar(&parts, 1e-3);
        assert_eq!(a.index, 0);
    }

    #[test]
    fn cost_model_matches_paper_anchors() {
        // 25M-particle halo ≈ 5.8 Titan-GPU hours.
        let t = center_time_titan_gpu(25_000_000);
        assert!((t / 3600.0 - 5.8).abs() < 0.5, "{t}");
        // 10M vs 100k: 10,000× ratio (paper §3.3.2).
        let ratio = center_time_titan_gpu(10_000_000) / center_time_titan_gpu(100_000);
        assert!((ratio - 10_000.0).abs() < 1.0);
    }
}
