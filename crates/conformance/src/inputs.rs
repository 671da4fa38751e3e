//! Deterministic adversarial input corpus for the differential executors.
//!
//! Every case is generated from fixed seeds (no wall-clock, no global state)
//! so a differential failure names a case that can be re-run bit-for-bit.
//! The corpus deliberately covers the shapes that have historically broken
//! chunked data-parallel code:
//!
//! * empty and single-element inputs (degenerate chunkings),
//! * lengths straddling [`dpp::DEFAULT_GRAIN`] (1023/1024/1025), where
//!   per-chunk merge logic meets its boundaries, and one (4097) past
//!   [`dpp::SMALL_N_THRESHOLD`], where a dispatch reaches the pool,
//! * heavy duplicate keys (tie-break determinism),
//! * NaN / ±inf / denormal / signed-zero floats (total-order semantics),
//! * already-sorted and reverse-sorted data.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One named input case.
#[derive(Debug, Clone)]
pub struct Case<T> {
    /// Stable case name, used in differential failure reports.
    pub name: &'static str,
    /// The input data.
    pub data: Vec<T>,
}

impl<T> Case<T> {
    fn new(name: &'static str, data: Vec<T>) -> Self {
        Case { name, data }
    }
}

/// `data` in a seeded Fisher–Yates order: the same permutation on every run.
pub fn shuffled<T: Clone>(data: &[T], seed: u64) -> Vec<T> {
    let (mut out, mut rng) = (data.to_vec(), StdRng::seed_from_u64(seed));
    for i in (1..out.len()).rev() {
        out.swap(i, rng.gen_range(0..i + 1));
    }
    out
}

/// Grain-straddling lengths: one below, at, and above [`dpp::DEFAULT_GRAIN`],
/// plus a multi-chunk length past [`dpp::SMALL_N_THRESHOLD`].
pub const BOUNDARY_LENGTHS: [usize; 4] = [1023, 1024, 1025, 4097];

/// The `f64` corpus: both differential ops run over each of these.
pub fn f64_cases() -> Vec<Case<f64>> {
    let mut rng = StdRng::seed_from_u64(0x5EED_0F64);
    let mut cases = vec![
        Case::new("empty", vec![]),
        Case::new("single", vec![3.25]),
        Case::new("single_nan", vec![f64::NAN]),
        Case::new("all_equal", vec![2.5; 777]),
        Case::new("signed_zeros", vec![0.0, -0.0, 0.0, -0.0, 1.0, -0.0, 0.0]),
        Case::new(
            "inf_mix",
            vec![
                1.0,
                f64::INFINITY,
                -3.0,
                f64::NEG_INFINITY,
                f64::INFINITY,
                0.5,
                f64::NEG_INFINITY,
            ],
        ),
        Case::new(
            "denormals",
            vec![
                f64::from_bits(1),
                f64::MIN_POSITIVE / 2.0,
                -f64::from_bits(3),
                f64::MIN_POSITIVE,
                0.0,
                -f64::MIN_POSITIVE / 4.0,
            ],
        ),
    ];

    cases.push(Case::new(
        "sorted",
        (0..2000).map(|i| i as f64 * 0.5 - 100.0).collect(),
    ));
    cases.push(Case::new(
        "reverse_sorted",
        (0..2000).rev().map(|i| i as f64 * 0.5 - 100.0).collect(),
    ));

    // Heavy duplicates: only 7 distinct values over 3000 elements.
    cases.push(Case::new(
        "duplicates_mod7",
        (0..3000)
            .map(|_| (rng.gen_range(0u32..7)) as f64 * 1.5 - 4.0)
            .collect(),
    ));

    // NaNs scattered through otherwise ordinary data.
    let mut nan_scatter: Vec<f64> = (0..2500).map(|_| rng.gen_range(-1e6..1e6)).collect();
    for i in (0..nan_scatter.len()).step_by(17) {
        nan_scatter[i] = if i % 34 == 0 { f64::NAN } else { -f64::NAN };
    }
    cases.push(Case::new("nan_scatter", nan_scatter));

    // Everything at once: finite + specials interleaved.
    let specials = crate::strategies::special_values();
    let kitchen_sink: Vec<f64> = (0..3001)
        .map(|i| {
            if i % 13 == 0 {
                specials[i / 13 % specials.len()]
            } else {
                rng.gen_range(-1e9..1e9)
            }
        })
        .collect();
    cases.push(Case::new("kitchen_sink", kitchen_sink));

    cases.push(Case::new(
        "grain_minus_one",
        (0..BOUNDARY_LENGTHS[0])
            .map(|_| rng.gen_range(-1e3..1e3))
            .collect(),
    ));
    cases.push(Case::new(
        "grain_exact",
        (0..BOUNDARY_LENGTHS[1])
            .map(|_| rng.gen_range(-1e3..1e3))
            .collect(),
    ));
    cases.push(Case::new(
        "grain_plus_one",
        (0..BOUNDARY_LENGTHS[2])
            .map(|_| rng.gen_range(-1e3..1e3))
            .collect(),
    ));
    cases.push(Case::new(
        "multi_chunk",
        (0..BOUNDARY_LENGTHS[3])
            .map(|_| rng.gen_range(-1e3..1e3))
            .collect(),
    ));

    cases
}

/// Adversarial particle corpus for the layout differential: the SoA kernel
/// rewrites (CIC deposit, MBP potential) must agree bit-for-bit with the
/// row-layout references over exactly these shapes — non-finite positions
/// (NaN with either sign bit, ±inf), signed zeros, `f32` denormals, and
/// lengths straddling the dispatch grain and the small-n pool threshold.
pub fn particle_cases() -> Vec<Case<nbody::particle::Particle>> {
    use nbody::particle::Particle;
    let mut rng = StdRng::seed_from_u64(0x5EED_9A27);
    let uniform = |rng: &mut StdRng, n: usize, tag0: u64| -> Vec<Particle> {
        (0..n)
            .map(|i| {
                Particle::at_rest(
                    [
                        rng.gen_range(0.0f32..32.0),
                        rng.gen_range(0.0f32..32.0),
                        rng.gen_range(0.0f32..32.0),
                    ],
                    rng.gen_range(0.5f32..2.0),
                    tag0 + i as u64,
                )
            })
            .collect()
    };

    let mut cases = vec![
        Case::new("empty", vec![]),
        Case::new("single", vec![Particle::at_rest([1.0, 2.0, 3.0], 1.5, 7)]),
        Case::new(
            "specials",
            vec![
                Particle::at_rest([f32::NAN, 1.0, 2.0], 1.0, 0),
                Particle::at_rest([-f32::NAN, 3.0, 4.0], 1.0, 1),
                Particle::at_rest([f32::INFINITY, 5.0, 6.0], 1.0, 2),
                Particle::at_rest([7.0, f32::NEG_INFINITY, 8.0], 1.0, 3),
                Particle::at_rest([-0.0, 0.0, -0.0], 1.0, 4),
                Particle::at_rest([f32::from_bits(1), f32::MIN_POSITIVE / 2.0, 9.0], 1.0, 5),
                Particle::at_rest([10.0, 11.0, 12.0], f32::NAN, 6),
                Particle::at_rest([13.0, 14.0, 15.0], -0.0, 7),
                Particle::at_rest([16.0, 17.0, 18.0], f32::from_bits(1), 8),
                Particle::at_rest([19.0, 20.0, 21.0], 2.0, u64::MAX),
            ],
        ),
        Case::new("coincident", vec![Particle::at_rest([4.0; 3], 1.0, 9); 257]),
    ];

    // Grain-boundary and small-n-threshold-straddling lengths: 1023/1024/
    // 1025 run the inline fast path, 4097 crosses into the pooled path.
    let (a, b, c, d) = (
        uniform(&mut rng, BOUNDARY_LENGTHS[0], 1000),
        uniform(&mut rng, BOUNDARY_LENGTHS[1], 2000),
        uniform(&mut rng, BOUNDARY_LENGTHS[2], 4000),
        uniform(&mut rng, BOUNDARY_LENGTHS[3], 8000),
    );
    cases.push(Case::new("grain_minus_one", a));
    cases.push(Case::new("grain_exact", b));
    cases.push(Case::new("grain_plus_one", c));
    let mut multi = d;
    // Salt the big case with specials so the pooled path sees them too.
    for i in (0..multi.len()).step_by(129) {
        multi[i].pos[i % 3] = if i % 258 == 0 { f32::NAN } else { -f32::NAN };
    }
    cases.push(Case::new("multi_chunk_nan_salted", multi));
    cases
}

/// Finite coordinate corpus for the column-layout FOF / k-d tree
/// differential. Finite only: the tree's median comparator totally orders
/// real values but panics on NaN by contract; NaN handling for the column
/// kernels is exercised by [`particle_cases`] through CIC and MBP instead.
/// Includes signed zeros, denormal spreads, clustered blobs, and
/// grain-boundary lengths.
pub fn coord_cases() -> Vec<Case<[f64; 3]>> {
    let mut rng = StdRng::seed_from_u64(0x5EED_C00D);
    let mut cases = vec![
        Case::new("empty", vec![]),
        Case::new("single", vec![[0.5, 0.25, 0.125]]),
        Case::new(
            "signed_zero_denormals",
            vec![
                [0.0, -0.0, 0.0],
                [-0.0, 0.0, -0.0],
                [f64::from_bits(1), -f64::from_bits(3), f64::MIN_POSITIVE],
                [0.1, 0.1, 0.1],
                [-0.1, -0.1, -0.1],
            ],
        ),
        Case::new("coincident", vec![[2.0, 3.0, 4.0]; 100]),
    ];
    // Three well-separated blobs plus uniform background: multiple groups
    // at moderate linking lengths.
    let mut blobs = Vec::new();
    for (cx, cy, cz) in [(1.0, 1.0, 1.0), (5.0, 5.0, 5.0), (1.0, 6.0, 2.0)] {
        for _ in 0..400 {
            blobs.push([
                cx + rng.gen_range(-0.3..0.3),
                cy + rng.gen_range(-0.3..0.3),
                cz + rng.gen_range(-0.3..0.3),
            ]);
        }
    }
    for _ in 0..200 {
        blobs.push([
            rng.gen_range(0.0..8.0),
            rng.gen_range(0.0..8.0),
            rng.gen_range(0.0..8.0),
        ]);
    }
    cases.push(Case::new("three_blobs", blobs));
    cases.push(Case::new(
        "grain_straddle",
        (0..BOUNDARY_LENGTHS[2])
            .map(|_| {
                [
                    rng.gen_range(0.0..8.0),
                    rng.gen_range(0.0..8.0),
                    rng.gen_range(0.0..8.0),
                ]
            })
            .collect(),
    ));
    cases
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic() {
        let a: Vec<Vec<u64>> = f64_cases()
            .iter()
            .map(|c| c.data.iter().map(|x| x.to_bits()).collect())
            .collect();
        let b: Vec<Vec<u64>> = f64_cases()
            .iter()
            .map(|c| c.data.iter().map(|x| x.to_bits()).collect())
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn corpus_covers_required_shapes() {
        let cases = f64_cases();
        let names: Vec<&str> = cases.iter().map(|c| c.name).collect();
        for required in [
            "empty",
            "single",
            "duplicates_mod7",
            "nan_scatter",
            "inf_mix",
            "grain_exact",
        ] {
            assert!(names.contains(&required), "missing case {required}");
        }
        assert!(cases.iter().any(|c| c.data.iter().any(|x| x.is_nan())));
        assert!(cases.iter().any(|c| c.data.iter().any(|x| x.is_infinite())));
        assert!(cases.iter().any(|c| c.data.is_empty()));
        assert!(cases.iter().any(|c| c.data.len() == 1));
    }
}
