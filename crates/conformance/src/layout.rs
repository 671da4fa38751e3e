//! Layout differential: every kernel written for the SoA / packed-column
//! layout must agree **bit-for-bit** with a from-first-principles reference,
//! on every backend, over the adversarial corpus from [`crate::inputs`].
//!
//! The product crates carry one body per kernel, so the references live
//! here. They share no code with what they check — a disagreement means the
//! kernel changed semantics, not that both sides drifted together:
//!
//! * `cic-soa` — [`nbody::pm::cic_deposit_soa`] (cache-blocked, column
//!   sweep) vs [`cic_deposit_scalar_ref`] (per-particle scalar loop with the
//!   same per-backend chunking), every backend, over
//!   [`inputs::particle_cases`] including NaN/±inf positions.
//! * `fof-cols` — [`halo::fof_kdtree_cols`] (packed leaf lanes) vs
//!   [`halo::fof_brute`] labels (both number groups by first appearance, so
//!   the O(n²) engine is a label-for-label oracle), plus the column tree's
//!   radius and k-nearest queries vs the linear scan [`dist2_scan_ref`],
//!   over [`inputs::coord_cases`].
//! * `mbp-cols` — [`halo::potential_at`] / [`halo::mbp_brute_cols`]
//!   (blocked lane sweep, fixed summation order) vs
//!   [`potential_scalar_ref`] (scalar per-pair loop), every backend.
//! * `fft3d-tiled` — [`fft::Fft3d`] (in-place contiguous pass, tiled strided
//!   passes) vs [`fft3d_line_ref`] (one gathered line at a time), forward
//!   and inverse, every backend.
//! * `poisson-kspace` — [`nbody::pm::poisson_accel`] (one parallel k-space
//!   pass writing all three `g_k`, solver workspace) vs
//!   [`poisson_three_sweep_ref`] (one serial sweep and one fresh grid per
//!   axis) on a seeded `δ`, every backend.
//! * `radix-u64` — [`dpp::ops::radix_sort_u64`] (specialized flat-key
//!   engine) vs [`dpp::ops::radix_sort_by_key`] (generic reference),
//!   every backend, over [`inputs::u64_cases`].
//! * `histogram-blocked` — [`dpp::ops::histogram_counted`] (two-phase
//!   blocked binning) vs an inline scalar reference, every backend, over
//!   [`inputs::f64_cases`] including NaN scatter.
//!
//! Everything is [`Cmp::BitEq`]: the kernels fix their summation order to
//! the reference order by construction (see DESIGN.md §12), so there is no
//! tolerance anywhere in this module.

use crate::differential::{roster, Cmp, DiffReport};
use crate::inputs;
use dpp::{ops, Backend, SendPtr, Serial};
use fft::{freq_index, Complex, Fft1d, Fft3d, Grid3};
use halo::{fof_brute, fof_kdtree_cols, mbp_brute_cols, potential_at, Coords, KdTree};
use nbody::pm::{cic_deposit_soa, poisson_accel, to_grid_units};
use nbody::{Particle, ParticleSoA};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The rewritten-kernel families the layout differential must cover; each
/// must contribute more than zero checks to a passing run.
pub const REQUIRED_KERNELS: [&str; 7] = [
    "cic-soa",
    "fof-cols",
    "mbp-cols",
    "fft3d-tiled",
    "poisson-kspace",
    "radix-u64",
    "histogram-blocked",
];

/// Scalar histogram reference: the pre-blocking loop, kept inline here so
/// the blocked rewrite in `dpp` is checked against code it cannot share.
fn histogram_scalar_ref(values: &[f64], lo: f64, hi: f64, nbins: usize) -> (Vec<u64>, u64) {
    let width = (hi - lo) / nbins as f64;
    let mut bins = vec![0u64; nbins];
    let mut skipped = 0u64;
    for &v in values {
        if v.is_nan() {
            skipped += 1;
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
        bins[b] += 1;
    }
    (bins, skipped)
}

/// Scalar CIC deposit reference: one particle at a time, `rem_euclid` wrap
/// and `% ng` per corner, returning the overdensity `δ = ρ/ρ̄ − 1`. The whole
/// function is kept — chunking by `backend.concurrency()`, partials merged
/// in chunk order — so it stays comparable to
/// [`nbody::pm::cic_deposit_soa`] bit for bit on every backend, not only on
/// `Serial`.
pub fn cic_deposit_scalar_ref(
    backend: &dyn Backend,
    particles: &[Particle],
    ng: usize,
    box_size: f64,
) -> Grid3<f64> {
    let ncell = ng * ng * ng;
    let partials: Mutex<Vec<(usize, Vec<f64>)>> = Mutex::new(Vec::new());
    let grain = (particles.len() / backend.concurrency().max(1)).max(4096);
    backend.dispatch(particles.len(), grain, &|r| {
        let start = r.start;
        let mut local = vec![0.0f64; ncell];
        for p in &particles[r] {
            let u = [
                to_grid_units(p.pos[0], box_size, ng),
                to_grid_units(p.pos[1], box_size, ng),
                to_grid_units(p.pos[2], box_size, ng),
            ];
            let i = [u[0] as usize % ng, u[1] as usize % ng, u[2] as usize % ng];
            let d = [u[0] - i[0] as f64, u[1] - i[1] as f64, u[2] - i[2] as f64];
            let m = p.mass as f64;
            for (dx, wx) in [(0usize, 1.0 - d[0]), (1, d[0])] {
                for (dy, wy) in [(0usize, 1.0 - d[1]), (1, d[1])] {
                    for (dz, wz) in [(0usize, 1.0 - d[2]), (1, d[2])] {
                        let x = (i[0] + dx) % ng;
                        let y = (i[1] + dy) % ng;
                        let z = (i[2] + dz) % ng;
                        local[(x * ng + y) * ng + z] += m * wx * wy * wz;
                    }
                }
            }
        }
        partials.lock().push((start, local));
    });
    let mut partials = partials.into_inner();
    partials.sort_by_key(|(s, _)| *s);
    let mut rho = vec![0.0f64; ncell];
    for (_, local) in partials {
        for (gv, lv) in rho.iter_mut().zip(&local) {
            *gv += lv;
        }
    }
    let total: f64 = particles.iter().map(|p| p.mass as f64).sum();
    let mean = total / ncell as f64;
    if mean > 0.0 {
        for v in &mut rho {
            *v = *v / mean - 1.0;
        }
    }
    Grid3::from_vec([ng, ng, ng], rho)
}

/// Scalar potential reference: `φ(i) = Σ_{j≠i} −m_j / (d_ij + ε)` summed in
/// ascending `j`, one pair at a time over the AoS slice.
pub fn potential_scalar_ref(particles: &[Particle], i: usize, softening: f64) -> f64 {
    let pi = particles[i].pos_f64();
    let mut acc = 0.0;
    for (j, p) in particles.iter().enumerate() {
        if j == i {
            continue;
        }
        let q = p.pos_f64();
        let d = ((q[0] - pi[0]).powi(2) + (q[1] - pi[1]).powi(2) + (q[2] - pi[2]).powi(2)).sqrt();
        acc -= p.mass as f64 / (d + softening);
    }
    acc
}

/// Linear-scan neighbour reference: the squared distance from `q` to every
/// row, by index, in the tree queries' own distance expression.
pub fn dist2_scan_ref(rows: &[[f64; 3]], q: [f64; 3]) -> Vec<f64> {
    rows.iter()
        .map(|p| (p[0] - q[0]).powi(2) + (p[1] - q[1]).powi(2) + (p[2] - q[2]).powi(2))
        .collect()
}

/// Per-line 3-D FFT reference: the separable transform as `fft::Fft3d` ran
/// it before its passes were tiled — every line along the active axis, one
/// per dispatched chunk, gathered cell by cell into a scratch line,
/// transformed by the axis' [`Fft1d`] plan and scattered back. Inverse
/// includes the `1/n` scale per line, as the plan applies it.
pub fn fft3d_line_ref(backend: &dyn Backend, grid: &mut Grid3<Complex>, inverse: bool) {
    let [nx, ny, nz] = grid.dims();
    for axis in 0..3 {
        let n_axis = grid.dims()[axis];
        let plan = Fft1d::new(n_axis).expect("power-of-two dims");
        let nlines = (nx * ny * nz) / n_axis;

        // For a line identified by the two fixed coordinates, compute the flat
        // index of its first element and the stride between elements.
        let (stride, line_start): (usize, Box<dyn Fn(usize) -> usize + Sync>) = match axis {
            0 => (
                ny * nz,
                Box::new(move |l| l), // l = y*nz + z in 0..ny*nz
            ),
            1 => (
                nz,
                Box::new(move |l| {
                    let (x, z) = (l / nz, l % nz);
                    x * ny * nz + z
                }),
            ),
            2 => (1, Box::new(move |l| l * nz)),
            _ => unreachable!(),
        };

        let ptr = SendPtr(grid.as_mut_slice().as_mut_ptr());
        backend.dispatch(nlines, 1, &|lines| {
            let mut scratch = vec![Complex::ZERO; n_axis];
            for l in lines {
                let base = line_start(l);
                // Gather the (possibly strided) line.
                for (k, s) in scratch.iter_mut().enumerate() {
                    // SAFETY: each line's index set {base + k*stride} is
                    // disjoint across lines of the same axis and in bounds.
                    *s = unsafe { *ptr.at(base + k * stride) };
                }
                if inverse {
                    plan.inverse(&mut scratch).expect("planned length");
                } else {
                    plan.forward(&mut scratch).expect("planned length");
                }
                for (k, s) in scratch.iter().enumerate() {
                    // SAFETY: as above.
                    unsafe { ptr.write(base + k * stride, *s) };
                }
            }
        });
    }
}

/// Three-sweep Poisson reference: `nbody::pm::poisson_accel` as it was
/// before the k-space pass was fused — one forward transform of `δ`, then
/// per axis a serial sweep over all of k-space into a fresh spectral grid
/// (`freq_index` and the division recomputed per cell and per axis) and an
/// inverse transform, all through [`fft3d_line_ref`].
pub fn poisson_three_sweep_ref(
    backend: &dyn Backend,
    delta: &Grid3<f64>,
    prefactor: f64,
) -> [Grid3<f64>; 3] {
    let dims = delta.dims();
    let ng = dims[0];
    assert!(dims[1] == ng && dims[2] == ng, "mesh must be cubic");

    // Forward transform of δ.
    let mut dk = Grid3::from_vec(
        dims,
        delta
            .as_slice()
            .iter()
            .map(|&r| Complex::from_real(r))
            .collect(),
    );
    fft3d_line_ref(backend, &mut dk, false);

    let two_pi = 2.0 * std::f64::consts::PI;
    [0, 1, 2].map(|axis| {
        let mut gk = Grid3::filled(dims, Complex::ZERO);
        for x in 0..ng {
            let kx = two_pi * freq_index(x, ng) as f64 / ng as f64;
            for y in 0..ng {
                let ky = two_pi * freq_index(y, ng) as f64 / ng as f64;
                for z in 0..ng {
                    let kz = two_pi * freq_index(z, ng) as f64 / ng as f64;
                    let k2 = kx * kx + ky * ky + kz * kz;
                    if k2 == 0.0 {
                        continue;
                    }
                    let kd = [kx, ky, kz][axis];
                    // φ_k = −prefactor δ_k / k²; g_k = −i k_d φ_k
                    //     = i k_d prefactor δ_k / k².
                    let phi_factor = prefactor / k2;
                    let d = *dk.get(x, y, z);
                    *gk.get_mut(x, y, z) = Complex::new(-d.im, d.re).scale(kd * phi_factor);
                }
            }
        }
        fft3d_line_ref(backend, &mut gk, true);
        Grid3::from_vec(dims, gk.as_slice().iter().map(|z| z.re).collect())
    })
}

/// Flatten a complex grid to `re, im, re, im, …` for the bit-equality checks.
fn re_im(grid: &Grid3<Complex>) -> Vec<f64> {
    grid.as_slice().iter().flat_map(|z| [z.re, z.im]).collect()
}

/// Run the layout differential and collect every mismatch.
pub fn run_layout_differential() -> DiffReport {
    let mut rep = DiffReport::default();
    let backends = roster();
    rep.backends = backends.iter().map(|(n, _)| n.clone()).collect();

    let (ng, box_size) = (16usize, 32.0f64);

    // --- cic-soa ---------------------------------------------------------
    rep.op("cic-soa");
    for case in inputs::particle_cases() {
        let reference = cic_deposit_scalar_ref(&Serial, &case.data, ng, box_size);
        let soa = ParticleSoA::from_aos(&case.data);
        // Blocked kernel on Serial against the scalar loop on Serial …
        let got = cic_deposit_soa(&Serial, &soa, ng, box_size);
        rep.check_f64_slice(
            Cmp::BitEq,
            "cic-soa",
            &format!("serial/{}", case.name),
            "serial-soa",
            reference.as_slice(),
            got.as_slice(),
        );
        // … and both on every parallel backend. The claim proper — kernel ≡
        // scalar reference *on the same backend* — is bit-exact
        // everywhere. The cross-backend comparison inherits the documented
        // reduction semantics: `static-*` reassociates the per-chunk grid
        // merge, so it gets tolerance-level agreement (with NaN as a
        // class), exactly like float `reduce`.
        for (name, b) in &backends {
            let aos = cic_deposit_scalar_ref(b.as_ref(), &case.data, ng, box_size);
            let soa_grid = cic_deposit_soa(b.as_ref(), &soa, ng, box_size);
            rep.check_f64_slice(
                Cmp::BitEq,
                "cic-soa",
                &format!("soa-vs-aos/{}", case.name),
                name,
                aos.as_slice(),
                soa_grid.as_slice(),
            );
            let cross = if crate::differential::reassociates_reductions(name) {
                Cmp::Approx
            } else {
                Cmp::BitEq
            };
            rep.check_f64_slice(
                cross,
                "cic-soa",
                &format!("vs-serial/{}", case.name),
                name,
                reference.as_slice(),
                aos.as_slice(),
            );
        }
    }

    // --- fof-cols --------------------------------------------------------
    rep.op("fof-cols");
    for case in inputs::coord_cases() {
        let cols = Coords::from_rows(&case.data);
        for link in [0.25f64, 0.7] {
            rep.check_eq(
                "fof-cols",
                &format!("labels/{}/link={link}", case.name),
                "cols-engine",
                &fof_brute(&case.data, link),
                &fof_kdtree_cols(&cols, link),
            );
        }
        // Tree queries against the linear scan. Which of several points at
        // exactly the k-th distance is returned depends on traversal order,
        // so k-nearest is compared on the distances, each checked against
        // the scan's distance for the index it came with.
        let tree = KdTree::build_cols(&cols, None);
        if !case.data.is_empty() {
            let queries = [
                case.data[0],
                case.data[case.data.len() / 2],
                [4.0, 4.0, 4.0],
            ];
            for (qi, q) in queries.iter().enumerate() {
                let d2 = dist2_scan_ref(&case.data, *q);
                let within_ref: Vec<u32> = (0..d2.len() as u32)
                    .filter(|&i| d2[i as usize] <= 0.9 * 0.9)
                    .collect();
                let mut within_got = tree.within_radius_cols(&cols, *q, 0.9);
                within_got.sort_unstable();
                rep.check_eq(
                    "fof-cols",
                    &format!("within_radius/{}/q{qi}", case.name),
                    "cols-engine",
                    &within_ref,
                    &within_got,
                );
                let mut nearest = d2.clone();
                nearest.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let knn_ref: Vec<(u64, u64)> = nearest
                    .iter()
                    .take(8)
                    .map(|d| (d.to_bits(), d.to_bits()))
                    .collect();
                let knn_got: Vec<(u64, u64)> = tree
                    .k_nearest_cols(&cols, *q, 8)
                    .into_iter()
                    .map(|(i, d)| (d.to_bits(), d2[i as usize].to_bits()))
                    .collect();
                rep.check_eq(
                    "fof-cols",
                    &format!("k_nearest/{}/q{qi}", case.name),
                    "cols-engine",
                    &knn_ref,
                    &knn_got,
                );
            }
        }
    }

    // --- mbp-cols --------------------------------------------------------
    rep.op("mbp-cols");
    let softening = 1e-3;
    for case in inputs::particle_cases() {
        if case.data.is_empty() || case.data.len() > 1025 {
            continue; // O(n²); the grain cases are plenty.
        }
        let coords = Coords::from_particles(&case.data);
        let masses: Vec<f64> = case.data.iter().map(|p| p.mass as f64).collect();
        // Per-particle potentials: blocked column sweep vs scalar loop.
        let stride = (case.data.len() / 64).max(1);
        for i in (0..case.data.len()).step_by(stride) {
            let scalar = potential_scalar_ref(&case.data, i, softening);
            let blocked = potential_at(&coords, &masses, i, softening);
            rep.check_f64_scalar(
                Cmp::BitEq,
                "mbp-cols",
                &format!("potential/{}/i={i}", case.name),
                "cols-engine",
                scalar,
                blocked,
            );
        }
        // Full argmin on every backend (indices and potential bits).
        let reference = mbp_brute_cols(&Serial, &coords, &masses, softening);
        for (name, b) in &backends {
            let got = mbp_brute_cols(b.as_ref(), &coords, &masses, softening);
            rep.check_eq(
                "mbp-cols",
                &format!("argmin/{}", case.name),
                name,
                &(reference.index, reference.potential.to_bits()),
                &(got.index, got.potential.to_bits()),
            );
        }
    }

    // --- fft3d-tiled -----------------------------------------------------
    // Shapes: every axis shorter than, equal to and longer than a tile of
    // strided lines, non-cubic included; 64³ is the production mesh.
    rep.op("fft3d-tiled");
    // The references are the previous passes, not the `Serial` backend, so
    // `Serial` is one more backend under test here.
    let with_serial: Vec<(&str, &dyn Backend)> = std::iter::once(("serial", &Serial as _))
        .chain(backends.iter().map(|(n, b)| (n.as_str(), b.as_ref())))
        .collect();
    let mut rng = StdRng::seed_from_u64(0x000F_F73D);
    for dims in [[8usize, 4, 16], [16, 16, 16], [64, 64, 64]] {
        let plan = Fft3d::new(dims).expect("power-of-two dims");
        let input: Vec<Complex> = (0..dims.iter().product::<usize>())
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        for inverse in [false, true] {
            let dir = if inverse { "inverse" } else { "forward" };
            let mut reference = Grid3::from_vec(dims, input.clone());
            fft3d_line_ref(&Serial, &mut reference, inverse);
            let reference = re_im(&reference);
            for &(name, b) in &with_serial {
                let mut got = Grid3::from_vec(dims, input.clone());
                if inverse {
                    plan.inverse(b, &mut got).expect("planned dims");
                } else {
                    plan.forward(b, &mut got).expect("planned dims");
                }
                rep.check_f64_slice(
                    Cmp::BitEq,
                    "fft3d-tiled",
                    &format!("{dir}/{dims:?}"),
                    name,
                    &reference,
                    &re_im(&got),
                );
            }
        }
    }

    // --- poisson-kspace --------------------------------------------------
    rep.op("poisson-kspace");
    for ng in [8usize, 32] {
        let delta = Grid3::from_vec(
            [ng, ng, ng],
            (0..ng * ng * ng)
                .map(|_| rng.gen_range(-1.0..3.0))
                .collect(),
        );
        let prefactor = 1.5 / 0.37;
        let reference = poisson_three_sweep_ref(&Serial, &delta, prefactor);
        for &(name, b) in &with_serial {
            let got = poisson_accel(b, &delta, prefactor);
            for axis in 0..3 {
                rep.check_f64_slice(
                    Cmp::BitEq,
                    "poisson-kspace",
                    &format!("ng={ng}/g{axis}"),
                    name,
                    reference[axis].as_slice(),
                    got[axis].as_slice(),
                );
            }
        }
    }

    // --- radix-u64 -------------------------------------------------------
    rep.op("radix-u64");
    for case in inputs::u64_cases() {
        let mut reference = case.data.clone();
        ops::radix_sort_by_key(&Serial, &mut reference, |&k| k);
        let mut serial_fast = case.data.clone();
        ops::radix_sort_u64(&Serial, &mut serial_fast);
        rep.check_eq(
            "radix-u64",
            &format!("u64/{}", case.name),
            "serial-specialized",
            &reference,
            &serial_fast,
        );
        for (name, b) in &backends {
            let mut fast = case.data.clone();
            ops::radix_sort_u64(b.as_ref(), &mut fast);
            rep.check_eq(
                "radix-u64",
                &format!("u64/{}", case.name),
                name,
                &reference,
                &fast,
            );
        }
    }

    // --- histogram-blocked -----------------------------------------------
    rep.op("histogram-blocked");
    for case in inputs::f64_cases() {
        for (lo, hi, nbins) in [(-1.0e3, 1.0e3, 16usize), (-0.5, 0.5, 7)] {
            let reference = histogram_scalar_ref(&case.data, lo, hi, nbins);
            for (name, b) in &backends {
                let got = ops::histogram_counted(b.as_ref(), &case.data, lo, hi, nbins);
                rep.check_eq(
                    "histogram-blocked",
                    &format!("counted/{}/bins={nbins}", case.name),
                    name,
                    &reference,
                    &got,
                );
            }
            let got = ops::histogram_counted(&Serial, &case.data, lo, hi, nbins);
            rep.check_eq(
                "histogram-blocked",
                &format!("counted/{}/bins={nbins}", case.name),
                "serial-blocked",
                &reference,
                &got,
            );
        }
    }

    rep
}

/// Convenience wrapper asserting a clean, fully covering layout run with
/// more than zero checks per rewritten kernel.
pub fn assert_layout_conformance() -> DiffReport {
    let rep = run_layout_differential();
    rep.assert_clean_and_covering(&REQUIRED_KERNELS);
    for kernel in REQUIRED_KERNELS {
        let n = rep.checks_by_op.get(kernel).copied().unwrap_or(0);
        assert!(n > 0, "layout differential ran zero checks for `{kernel}`");
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_histogram_reference_matches_documented_semantics() {
        let v = vec![f64::NAN, 0.1, f64::NAN, 0.9, -1.0, f64::NAN];
        let (bins, skipped) = histogram_scalar_ref(&v, 0.0, 1.0, 2);
        assert_eq!(bins, vec![2, 1]);
        assert_eq!(skipped, 3);
    }

    fn blob(n: usize) -> Vec<Particle> {
        (0..n)
            .map(|i| {
                let t = 41.1 + i as f64;
                let c = |f: f64| (((t * f).fract() - 0.5) * 4.0) as f32;
                Particle::at_rest([c(0.618), c(0.414), c(0.732)], 1.0, i as u64)
            })
            .collect()
    }

    fn assert_potentials_match(parts: &[Particle], probes: impl Iterator<Item = usize>) {
        let coords = Coords::from_particles(parts);
        let masses: Vec<f64> = parts.iter().map(|p| p.mass as f64).collect();
        for i in probes {
            let a = potential_scalar_ref(parts, i, 1e-3);
            let b = potential_at(&coords, &masses, i, 1e-3);
            assert_eq!(a.to_bits(), b.to_bits(), "n={} i={i}", parts.len());
        }
    }

    #[test]
    fn blocked_potential_matches_scalar_across_lane_boundaries() {
        // Lengths straddle the kernel's strip width so full strips, partial
        // tails, and a self term in either are all hit.
        for n in [1usize, 7, 8, 9, 15, 16, 17, 63, 64, 65, 300] {
            assert_potentials_match(&blob(n), [0, n / 2, n - 1].into_iter());
        }
    }

    #[test]
    fn blocked_potential_handles_nan_positions_in_full_strips() {
        // The corpus' `specials` case is shorter than one strip; this puts
        // non-finite positions inside the blocked path too.
        let mut parts = blob(40);
        parts[3].pos[0] = f32::NAN;
        parts[17].pos[1] = -f32::NAN;
        parts[25].pos[2] = f32::INFINITY;
        parts[31].pos[0] = -0.0;
        assert_potentials_match(&parts, 0..40);
    }

    #[test]
    fn required_kernels_all_have_checks() {
        let rep = assert_layout_conformance();
        assert!(rep.checks > 100, "layout corpus collapsed: {}", rep.checks);
    }
}
