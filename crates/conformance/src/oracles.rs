//! Metamorphic physics oracles.
//!
//! Each oracle checks an *identity the physics guarantees* rather than a
//! hard-coded expected value, so the suite survives refactors that change
//! nothing observable:
//!
//! * **FOF** — the halo partition (exact member tag-sets) is invariant under
//!   particle permutation, exact periodic translation, and 1/2/4/8-rank
//!   [`CartDecomp`] splits of the same universe.
//! * **MBP** — the O(n²) data-parallel brute-force center finder and the A*
//!   pruned search agree on the most-bound particle.
//! * **FFT** — Parseval's theorem (over the half spectrum, weighted), the
//!   flat-spectrum impulse identity, the DC identity for constant fields, and
//!   forward/inverse round-trip, through the transform the product runs,
//!   [`fft::RealFft3d`]. A direct triple-sum DFT (`dft3_direct`, no `fft`
//!   code) checks it bin by bin.
//! * **SO mass** — lowering the overdensity threshold Δ can only grow the
//!   SO radius, mass, and member count (monotonicity).
//!
//! Every oracle is deterministic for a given seed and returns `Err(message)`
//! instead of panicking so [`run_all`] can aggregate failures.

use crate::layout::{dft3_direct, hermitian_extend, hermitian_half};
use comm::{CartDecomp, World};
use dpp::Serial;
use fft::{Complex, Grid3, RealFft3d};
use halo::fof::canonical_partition;
use halo::{fof_grid, mbp_astar, mbp_brute, parallel_fof, so_mass, FofConfig};
use nbody::particle::Particle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Side of the periodic test box. A power of two, so exact-representable
/// translations below stay exact through the periodic wrap.
const BOX_SIZE: f64 = 64.0;

const LINK_LENGTH: f64 = 0.8;
const MIN_SIZE: usize = 5;

/// Deterministic test universe: a handful of dense blobs (two straddling
/// periodic faces, one on a corner) plus a sparse uniform field.
fn test_universe(seed: u64) -> Vec<Particle> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut parts = Vec::new();
    let mut tag = 0u64;
    let mut blob = |rng: &mut StdRng, parts: &mut Vec<Particle>, c: [f64; 3], n: usize, r: f64| {
        for _ in 0..n {
            let mut p = [0.0f32; 3];
            for d in 0..3 {
                let x = c[d] + rng.gen_range(-r..r);
                p[d] = x.rem_euclid(BOX_SIZE) as f32;
            }
            parts.push(Particle::at_rest(p, 1.0, tag));
            tag += 1;
        }
    };
    blob(&mut rng, &mut parts, [12.0, 14.0, 16.0], 60, 0.9);
    blob(&mut rng, &mut parts, [40.0, 40.0, 40.0], 45, 0.7);
    // Straddles the x = 0 periodic face.
    blob(&mut rng, &mut parts, [0.1, 30.0, 20.0], 50, 0.8);
    // Straddles the z = BOX_SIZE face.
    blob(&mut rng, &mut parts, [50.0, 10.0, 63.9], 40, 0.8);
    // Corner blob: wraps in all three axes.
    blob(&mut rng, &mut parts, [0.2, 0.2, 63.8], 35, 0.7);
    // Sparse field: mostly isolated particles below min_size.
    for _ in 0..220 {
        let p = [
            rng.gen_range(0.0..BOX_SIZE) as f32,
            rng.gen_range(0.0..BOX_SIZE) as f32,
            rng.gen_range(0.0..BOX_SIZE) as f32,
        ];
        parts.push(Particle::at_rest(p, 1.0, tag));
        tag += 1;
    }
    parts
}

/// Canonical catalog signature: the set of sorted member-tag lists of every
/// group with at least `min_size` members. Label numbering, particle order,
/// and rank assignment all wash out.
fn tag_partition(labels: &[u32], tags: &[u64], min_size: usize) -> BTreeSet<Vec<u64>> {
    canonical_partition(labels)
        .into_iter()
        .filter(|g| g.len() >= min_size)
        .map(|g| {
            let mut t: Vec<u64> = g.iter().map(|&i| tags[i as usize]).collect();
            t.sort_unstable();
            t
        })
        .collect()
}

fn single_domain_partition(parts: &[Particle], min_size: usize) -> BTreeSet<Vec<u64>> {
    let positions: Vec<[f64; 3]> = parts.iter().map(|p| p.pos_f64()).collect();
    let tags: Vec<u64> = parts.iter().map(|p| p.tag).collect();
    let labels = fof_grid(&positions, LINK_LENGTH, BOX_SIZE);
    tag_partition(&labels, &tags, min_size)
}

/// FOF oracle 1: permuting the particle array must not change the catalog.
fn fof_permutation_invariance(seed: u64) -> Result<(), String> {
    let parts = test_universe(seed);
    let reference = single_domain_partition(&parts, MIN_SIZE);

    let mut shuffled = parts.clone();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E12);
    for i in (1..shuffled.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        shuffled.swap(i, j);
    }
    let permuted = single_domain_partition(&shuffled, MIN_SIZE);
    if permuted != reference {
        return Err(format!(
            "FOF catalog changed under particle permutation: {} vs {} halos",
            permuted.len(),
            reference.len()
        ));
    }
    Ok(())
}

/// FOF oracle 2: an exact periodic translation must not change the catalog.
///
/// The offsets are chosen exactly representable (quarter-box multiples) and
/// the box side is a power of two, so translation + wrap is exact in f64 and
/// every pairwise minimum-image distance is bit-identical.
fn fof_translation_invariance(seed: u64) -> Result<(), String> {
    let parts = test_universe(seed);
    let reference = single_domain_partition(&parts, MIN_SIZE);

    for offset in [[16.0, 32.0, 48.0], [48.0, 16.0, 32.0], [32.0, 32.0, 32.0]] {
        let shifted: Vec<Particle> = parts
            .iter()
            .map(|p| {
                let mut q = p.pos_f64();
                for d in 0..3 {
                    q[d] += offset[d];
                    if q[d] >= BOX_SIZE {
                        q[d] -= BOX_SIZE;
                    }
                }
                let mut s = *p;
                s.pos = [q[0] as f32, q[1] as f32, q[2] as f32];
                s
            })
            .collect();
        let translated = single_domain_partition(&shifted, MIN_SIZE);
        if translated != reference {
            return Err(format!(
                "FOF catalog changed under periodic translation {offset:?}: \
                 {} vs {} halos",
                translated.len(),
                reference.len()
            ));
        }
    }
    Ok(())
}

/// FOF oracle 3: splitting the same universe over 1/2/4/8 ranks with
/// overload regions must reproduce the single-domain catalog *exactly*
/// (member tag-sets, not just sizes).
fn fof_rank_split_invariance(seed: u64) -> Result<(), String> {
    let parts = test_universe(seed);
    let reference = single_domain_partition(&parts, MIN_SIZE);
    let cfg = FofConfig {
        link_length: LINK_LENGTH,
        min_size: MIN_SIZE,
        overload_width: 4.0,
    };

    for nranks in [1usize, 2, 4, 8] {
        let decomp = CartDecomp::new(nranks, BOX_SIZE);
        let world = World::new(nranks);
        let catalogs = world.run(|c| {
            let locals: Vec<Particle> = parts
                .iter()
                .filter(|p| decomp.owner_of(p.pos_f64()) == c.rank())
                .cloned()
                .collect();
            parallel_fof(c, &decomp, &locals, &cfg)
        });

        let mut distributed: BTreeSet<Vec<u64>> = BTreeSet::new();
        for catalog in catalogs {
            for halo in catalog.halos {
                let mut tags: Vec<u64> = halo.particles.iter().map(|p| p.tag).collect();
                tags.sort_unstable();
                if !distributed.insert(tags) {
                    return Err(format!(
                        "parallel FOF on {nranks} ranks assigned one halo to \
                         two ranks"
                    ));
                }
            }
        }
        if distributed != reference {
            let missing = reference.difference(&distributed).count();
            let extra = distributed.difference(&reference).count();
            return Err(format!(
                "parallel FOF on {nranks} ranks drifted from the \
                 single-domain catalog: {missing} halos missing, {extra} extra"
            ));
        }
    }
    Ok(())
}

/// MBP oracle: brute-force (data-parallel) and A* (pruned serial) center
/// finders must pick the same most-bound particle.
fn mbp_agreement(seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x004D_4250);
    for trial in 0..4 {
        let n = 80 + trial * 37;
        let particles: Vec<Particle> = (0..n)
            .map(|i| {
                let p = [
                    (32.0 + rng.gen_range(-1.5..1.5)) as f32,
                    (32.0 + rng.gen_range(-1.5..1.5)) as f32,
                    (32.0 + rng.gen_range(-1.5..1.5)) as f32,
                ];
                Particle::at_rest(p, 1.0, i as u64)
            })
            .collect();
        let softening = 0.05;
        let brute = mbp_brute(&Serial, &particles, softening);
        let astar = mbp_astar(&particles, softening);
        if brute.index != astar.index {
            return Err(format!(
                "MBP disagreement (trial {trial}, n={n}): brute index {} \
                 (potential {}), A* index {} (potential {})",
                brute.index, brute.potential, astar.index, astar.potential
            ));
        }
        let rel = (brute.potential - astar.potential).abs()
            / brute.potential.abs().max(astar.potential.abs()).max(1.0);
        if rel > 1e-9 {
            return Err(format!(
                "MBP potentials diverged (trial {trial}): {} vs {} (rel {rel:e})",
                brute.potential, astar.potential
            ));
        }
    }
    Ok(())
}

/// Side of the FFT oracles' grid.
const FFT_NG: usize = 8;
const FFT_DIMS: [usize; 3] = [FFT_NG; 3];

/// The product's real transform, [`RealFft3d`], which every FFT oracle below
/// holds.
const NAME: &str = "real-fft3d";

/// The half spectrum of `real`.
fn forward(real: &Grid3<f64>) -> Result<Grid3<Complex>, String> {
    RealFft3d::new(real.dims())
        .and_then(|plan| plan.forward(&Serial, real))
        .map_err(|e| format!("{NAME}: {e}"))
}

/// The real grid whose half spectrum is `half`.
fn inverse(half: Grid3<Complex>) -> Result<Grid3<f64>, String> {
    RealFft3d::new(FFT_DIMS)
        .and_then(|plan| plan.inverse(&Serial, half))
        .map_err(|e| format!("{NAME}: {e}"))
}

/// How many full-spectrum bins a half-spectrum bin at `kz` stands for: the
/// `kz = 0` and `kz = ng/2` planes are their own mirrors, every other plane
/// is a bin and its conjugate.
fn half_weight(kz: usize) -> f64 {
    if kz == 0 || 2 * kz == FFT_NG {
        1.0
    } else {
        2.0
    }
}

/// FFT oracle 1: Parseval — `Σ|x|² = (1/N)·Σ|X|²` for an unnormalized
/// forward transform, the full spectrum's sum taken over the stored half
/// with [`half_weight`].
fn fft_parseval(seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFF7);
    let n: usize = FFT_DIMS.iter().product();
    let data: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let time_energy: f64 = data.iter().map(|x| x * x).sum();
    let grid = Grid3::from_vec(FFT_DIMS, data);
    let spectrum = forward(&grid)?;
    let h = spectrum.dims()[2];
    let freq_energy: f64 = spectrum
        .as_slice()
        .iter()
        .enumerate()
        .map(|(i, z)| half_weight(i % h) * z.norm_sqr())
        .sum::<f64>()
        / n as f64;
    let rel = (time_energy - freq_energy).abs() / time_energy.max(1e-300);
    if rel > 1e-9 {
        return Err(format!(
            "{NAME}: Parseval violated: time-domain energy {time_energy}, \
             frequency-domain energy {freq_energy} (rel {rel:e})"
        ));
    }
    Ok(())
}

/// FFT oracle 2: a unit impulse has a perfectly flat spectrum (`|X_k| = 1`
/// for every k), and a constant field transforms to a pure DC bin.
fn fft_impulse_and_dc() -> Result<(), String> {
    let n: usize = FFT_DIMS.iter().product();

    let mut impulse = Grid3::filled(FFT_DIMS, 0.0f64);
    *impulse.get_mut(1, 2, 3) = 1.0;
    let spectrum = forward(&impulse)?;
    for (i, z) in spectrum.as_slice().iter().enumerate() {
        if (z.abs() - 1.0).abs() > 1e-9 {
            return Err(format!(
                "{NAME}: impulse spectrum not flat: |X[{i}]| = {} (expected 1)",
                z.abs()
            ));
        }
    }

    let constant = Grid3::filled(FFT_DIMS, 2.5f64);
    let spectrum = forward(&constant)?;
    let dc = spectrum.as_slice()[0];
    if (dc.re - 2.5 * n as f64).abs() > 1e-9 * n as f64 || dc.im.abs() > 1e-9 {
        return Err(format!(
            "{NAME}: DC bin wrong: {dc:?} (expected {})",
            2.5 * n as f64
        ));
    }
    for (i, z) in spectrum.as_slice().iter().enumerate().skip(1) {
        if z.abs() > 1e-9 * n as f64 {
            return Err(format!(
                "{NAME}: constant field leaked into bin {i}: |X| = {}",
                z.abs()
            ));
        }
    }
    Ok(())
}

/// FFT oracle 3: `inverse(forward(x)) = x` to round-off, through each
/// transform's own inverse.
fn fft_roundtrip(seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0F0F);
    let n: usize = FFT_DIMS.iter().product();
    let data: Vec<f64> = (0..n).map(|_| rng.gen_range(-100.0..100.0)).collect();
    let grid = Grid3::from_vec(FFT_DIMS, data.clone());
    let back = inverse(forward(&grid)?)?;
    for (i, (a, b)) in data.iter().zip(back.as_slice()).enumerate() {
        if (a - b).abs() > 1e-9 * a.abs().max(1.0) {
            return Err(format!("{NAME}: round-trip drift at {i}: {a} vs {b}"));
        }
    }
    Ok(())
}

/// FFT oracle 4, the independent check of the three above: each transform
/// agrees bin by bin with `dft3_direct` — the DFT as its triple sum, no
/// `fft` code — forward on a seeded real grid, and inverse on a seeded
/// Hermitian half against `Re` of the direct inverse of its extension.
fn fft_matches_direct_dft(seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1F7);
    let n: usize = FFT_DIMS.iter().product();
    let h = FFT_NG / 2 + 1;
    let real = Grid3::from_vec(FFT_DIMS, (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect());
    let promoted = real.as_slice().iter().map(|&v| Complex::new(v, 0.0));
    let direct = dft3_direct(&Grid3::from_vec(FFT_DIMS, promoted.collect()), false, h);
    let half = hermitian_half(FFT_DIMS, &mut rng);
    let direct_inverse = dft3_direct(&hermitian_extend(&half, FFT_DIMS), true, FFT_NG);
    let tol = 1e-12 * n as f64;
    let spectrum = forward(&real)?;
    for (i, (want, got)) in direct
        .as_slice()
        .iter()
        .zip(spectrum.as_slice())
        .enumerate()
    {
        if (*want - *got).abs() > tol {
            return Err(format!(
                "{NAME}: bin {i} is {got:?}, the direct sum {want:?}"
            ));
        }
    }
    let back = inverse(half.clone())?;
    for (i, (want, got)) in direct_inverse
        .as_slice()
        .iter()
        .zip(back.as_slice())
        .enumerate()
    {
        if (want.re - got).abs() > tol / n as f64 {
            return Err(format!(
                "{NAME}: inverse cell {i} is {got}, the direct sum {}",
                want.re
            ));
        }
    }
    Ok(())
}

/// SO oracle: lowering the overdensity threshold Δ can only grow the SO
/// radius, mass, and member count.
fn so_monotonicity(seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x50);
    let center = [32.0, 32.0, 32.0];
    // A centrally concentrated cluster: radius grows superlinearly with the
    // sample index so the enclosed density falls off outward.
    let particles: Vec<Particle> = (0..400)
        .map(|i| {
            let u: f64 = rng.gen_range(0.0..1.0);
            let r = 2.5 * u * u + 0.01;
            let theta = rng.gen_range(0.0..std::f64::consts::PI);
            let phi = rng.gen_range(0.0..2.0 * std::f64::consts::PI);
            let p = [
                (center[0] + r * theta.sin() * phi.cos()) as f32,
                (center[1] + r * theta.sin() * phi.sin()) as f32,
                (center[2] + r * theta.cos()) as f32,
            ];
            Particle::at_rest(p, 1.0, i as u64)
        })
        .collect();
    let mean_density = 1e-3;

    let mut prev: Option<(f64, halo::SoResult)> = None;
    for delta in [2000.0, 800.0, 400.0, 200.0, 100.0] {
        let res = so_mass(&particles, center, delta, mean_density).ok_or_else(|| {
            format!("so_mass returned None at delta {delta} (cluster too diffuse)")
        })?;
        if let Some((pd, p)) = prev {
            if res.radius < p.radius || res.mass < p.mass || res.count < p.count {
                return Err(format!(
                    "SO monotonicity violated: delta {pd} -> {delta} shrank \
                     (r {} -> {}, m {} -> {}, n {} -> {})",
                    p.radius, res.radius, p.mass, res.mass, p.count, res.count
                ));
            }
        }
        prev = Some((delta, res));
    }
    Ok(())
}

/// Run every oracle, returning the list of failures (empty = all passed).
pub fn run_all(seed: u64) -> Vec<String> {
    let checks: Vec<(&str, Result<(), String>)> = vec![
        (
            "fof_permutation_invariance",
            fof_permutation_invariance(seed),
        ),
        (
            "fof_translation_invariance",
            fof_translation_invariance(seed),
        ),
        ("fof_rank_split_invariance", fof_rank_split_invariance(seed)),
        ("mbp_agreement", mbp_agreement(seed)),
        ("fft_parseval", fft_parseval(seed)),
        ("fft_impulse_and_dc", fft_impulse_and_dc()),
        ("fft_roundtrip", fft_roundtrip(seed)),
        ("fft_matches_direct_dft", fft_matches_direct_dft(seed)),
        ("so_monotonicity", so_monotonicity(seed)),
    ];
    checks
        .into_iter()
        .filter_map(|(name, r)| r.err().map(|e| format!("oracle {name}: {e}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universe_is_deterministic_and_nontrivial() {
        let a = test_universe(11);
        let b = test_universe(11);
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.pos == y.pos && x.tag == y.tag));
        let halos = single_domain_partition(&a, MIN_SIZE);
        assert!(
            halos.len() >= 4,
            "expected several halos, got {}",
            halos.len()
        );
    }

    #[test]
    fn fft_identities_hold() {
        fft_impulse_and_dc().unwrap();
        fft_parseval(3).unwrap();
        fft_roundtrip(3).unwrap();
        fft_matches_direct_dft(3).unwrap();
    }

    #[test]
    fn so_is_monotone() {
        so_monotonicity(5).unwrap();
    }
}
