//! Spherical overdensity (SO) mass estimation, seeded at the halo's MBP
//! center (paper §3.3.2: "Computation of spherical overdensity halos may also
//! be seeded at FOF halo centers" — it runs after center finding, which is
//! why the halo analysis steps are sequential).

use nbody::particle::Particle;

/// Result of an SO mass measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoResult {
    /// Mass (particle-mass units) inside `radius`.
    pub mass: f64,
    /// SO radius where the enclosed density crosses `delta × mean_density`.
    pub radius: f64,
    /// Member count inside the radius.
    pub count: usize,
}

/// Measure the SO mass around `center`.
///
/// `delta` is the overdensity threshold (e.g. 200) and `mean_density` the
/// box's mean mass density (mass units per volume units). Returns `None` when
/// even the innermost particle fails the threshold. Traced as one
/// `halo.so_mass` span whose argument is the particle count.
pub fn so_mass(
    particles: &[Particle],
    center: [f64; 3],
    delta: f64,
    mean_density: f64,
) -> Option<SoResult> {
    assert!(delta > 0.0 && mean_density > 0.0);
    if particles.is_empty() {
        return None;
    }
    let _span = telemetry::span!("halo", "so_mass", particles.len());
    // Radial distances (non-periodic: callers pass unwrapped halo particles).
    let mut order: Vec<(f64, f64)> = particles
        .iter()
        .map(|p| {
            let q = p.pos_f64();
            let d2 = (q[0] - center[0]).powi(2)
                + (q[1] - center[1]).powi(2)
                + (q[2] - center[2]).powi(2);
            (d2.sqrt(), p.mass as f64)
        })
        .collect();
    order.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());

    let four_thirds_pi = 4.0 / 3.0 * std::f64::consts::PI;
    let mut enclosed = 0.0;
    let mut best: Option<SoResult> = None;
    for (i, &(r, m)) in order.iter().enumerate() {
        enclosed += m;
        if r <= 0.0 {
            continue; // the center particle itself
        }
        let vol = four_thirds_pi * r * r * r;
        let rho = enclosed / vol;
        if rho >= delta * mean_density {
            best = Some(SoResult {
                mass: enclosed,
                radius: r,
                count: i + 1,
            });
        }
        // Keep scanning: the SO radius is the *outermost* crossing.
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A dense ball of `n` particles of unit mass within `r_ball`.
    fn ball(n: usize, r_ball: f64) -> Vec<Particle> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                // Quasi-uniform in the ball via low-discrepancy radii/angles.
                let r = r_ball * ((t * 0.618).fract()).powf(1.0 / 3.0);
                let th = std::f64::consts::PI * (t * 0.414).fract();
                let ph = 2.0 * std::f64::consts::PI * (t * 0.732).fract();
                Particle::at_rest(
                    [
                        (r * th.sin() * ph.cos()) as f32,
                        (r * th.sin() * ph.sin()) as f32,
                        (r * th.cos()) as f32,
                    ],
                    1.0,
                    i as u64,
                )
            })
            .collect()
    }

    #[test]
    fn dense_ball_has_so_mass() {
        // 1000 particles in a unit ball; mean density chosen so the ball is
        // ~200× overdense near its edge.
        let parts = ball(1000, 1.0);
        let ball_density = 1000.0 / (4.0 / 3.0 * std::f64::consts::PI);
        let mean = ball_density / 400.0;
        let r = so_mass(&parts, [0.0; 3], 200.0, mean).expect("overdense ball");
        assert!(r.count > 500, "most of the ball should be enclosed: {r:?}");
        assert!(r.radius <= 1.01);
        assert_eq!(r.mass, r.count as f64);
    }

    #[test]
    fn so_radius_shrinks_with_higher_threshold() {
        let parts = ball(2000, 1.0);
        let ball_density = 2000.0 / (4.0 / 3.0 * std::f64::consts::PI);
        let mean = ball_density / 1000.0;
        let lo = so_mass(&parts, [0.0; 3], 200.0, mean).unwrap();
        let hi = so_mass(&parts, [0.0; 3], 800.0, mean).unwrap();
        assert!(hi.radius <= lo.radius, "{hi:?} vs {lo:?}");
        assert!(hi.mass <= lo.mass);
    }

    #[test]
    fn underdense_region_returns_none() {
        let parts = ball(10, 5.0);
        // Mean density far above what this sparse puff reaches.
        let got = so_mass(&parts, [0.0; 3], 200.0, 100.0);
        assert!(got.is_none());
    }

    #[test]
    fn off_center_seed_gives_smaller_mass() {
        let parts = ball(2000, 1.0);
        let ball_density = 2000.0 / (4.0 / 3.0 * std::f64::consts::PI);
        let mean = ball_density / 400.0;
        let centered = so_mass(&parts, [0.0; 3], 200.0, mean).unwrap();
        let offset = so_mass(&parts, [0.8, 0.0, 0.0], 200.0, mean);
        // The paper's point: a bad center underestimates concentration/mass.
        // None means so underdense it fails entirely — also "smaller".
        if let Some(o) = offset {
            assert!(o.mass < centered.mass);
        }
    }

    #[test]
    fn empty_input_is_none() {
        assert!(so_mass(&[], [0.0; 3], 200.0, 1.0).is_none());
    }
}
