//! Halo records and catalogs (Level 2 → Level 3 data products).

use nbody::particle::Particle;

/// A single FOF halo with its member particles (Level 2) and derived
/// properties (Level 3).
#[derive(Debug, Clone)]
pub struct Halo {
    /// Stable id: the smallest member particle tag.
    pub id: u64,
    /// Member particles. Positions may be *unwrapped* (outside `[0, L)`) so
    /// that the halo is spatially contiguous across periodic boundaries.
    pub particles: Vec<Particle>,
    /// Center of mass.
    pub center_of_mass: [f64; 3],
    /// Most-bound-particle center, once computed.
    pub mbp_center: Option<[f64; 3]>,
    /// Spherical-overdensity mass (in particle-mass units), once computed.
    pub so_mass: Option<f64>,
}

impl Halo {
    /// Build from member particles, computing the id and center of mass.
    pub fn from_particles(particles: Vec<Particle>) -> Self {
        assert!(
            !particles.is_empty(),
            "halo must have at least one particle"
        );
        let id = particles.iter().map(|p| p.tag).min().unwrap();
        let mut com = [0.0f64; 3];
        let mut mass = 0.0f64;
        for p in &particles {
            let m = p.mass as f64;
            for d in 0..3 {
                com[d] += m * p.pos[d] as f64;
            }
            mass += m;
        }
        for c in &mut com {
            *c /= mass;
        }
        Halo {
            id,
            particles,
            center_of_mass: com,
            mbp_center: None,
            so_mass: None,
        }
    }

    /// Number of member particles ("halo mass" in count units — the paper's
    /// halos have equal-mass particles, so mass ∝ count).
    pub fn count(&self) -> usize {
        self.particles.len()
    }
}

/// Unwrap positions to the minimum image around an anchor so a halo that
/// straddles the periodic boundary becomes contiguous. Returns unwrapped
/// copies (positions may leave `[0, box_size)`).
pub fn unwrap_positions(particles: &[Particle], box_size: f64) -> Vec<Particle> {
    if particles.is_empty() {
        return Vec::new();
    }
    let anchor = particles[0].pos_f64();
    particles
        .iter()
        .map(|p| {
            let mut q = *p;
            for d in 0..3 {
                let mut x = q.pos[d] as f64;
                if x - anchor[d] > box_size / 2.0 {
                    x -= box_size;
                } else if x - anchor[d] < -box_size / 2.0 {
                    x += box_size;
                }
                q.pos[d] = x as f32;
            }
            q
        })
        .collect()
}

/// A catalog of halos (one rank's, or merged).
#[derive(Debug, Clone, Default)]
pub struct HaloCatalog {
    /// The halos, in no particular order.
    pub halos: Vec<Halo>,
}

impl HaloCatalog {
    /// Empty catalog.
    pub fn new() -> Self {
        HaloCatalog { halos: Vec::new() }
    }

    /// Number of halos.
    pub fn len(&self) -> usize {
        self.halos.len()
    }

    /// True if there are no halos.
    pub fn is_empty(&self) -> bool {
        self.halos.is_empty()
    }

    /// Total member particles across all halos (Level 2 volume).
    pub fn total_particles(&self) -> usize {
        self.halos.iter().map(|h| h.count()).sum()
    }

    /// Merge another catalog in, dropping duplicate halo ids (keeps first).
    pub fn merge(&mut self, other: HaloCatalog) {
        let mut have: std::collections::HashSet<u64> = self.halos.iter().map(|h| h.id).collect();
        for h in other.halos {
            if have.insert(h.id) {
                self.halos.push(h);
            }
        }
    }

    /// Split into (small, large) by member count: `count <= threshold` goes
    /// to the first catalog (the paper's 300,000-particle split).
    pub fn split_by_size(self, threshold: usize) -> (HaloCatalog, HaloCatalog) {
        let mut small = HaloCatalog::new();
        let mut large = HaloCatalog::new();
        for h in self.halos {
            if h.count() <= threshold {
                small.halos.push(h);
            } else {
                large.halos.push(h);
            }
        }
        (small, large)
    }

    /// Sort halos by id (for comparisons between workflows).
    pub fn sort_by_id(&mut self) {
        self.halos.sort_by_key(|h| h.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(tag: u64, pos: [f32; 3]) -> Particle {
        Particle::at_rest(pos, 1.0, tag)
    }

    #[test]
    fn halo_id_is_min_tag_and_com_is_mean() {
        let h = Halo::from_particles(vec![
            mk(7, [0.0, 0.0, 0.0]),
            mk(3, [2.0, 0.0, 0.0]),
            mk(9, [4.0, 0.0, 0.0]),
        ]);
        assert_eq!(h.id, 3);
        assert_eq!(h.count(), 3);
        assert!((h.center_of_mass[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn unwrap_brings_straddling_halo_together() {
        let parts = vec![mk(0, [9.9, 5.0, 5.0]), mk(1, [0.1, 5.0, 5.0])];
        let un = unwrap_positions(&parts, 10.0);
        // Second particle unwraps to 10.1, adjacent to 9.9.
        assert!((un[1].pos[0] - 10.1).abs() < 1e-5);
        let h = Halo::from_particles(un);
        assert!((h.center_of_mass[0] - 10.0).abs() < 1e-4);
    }

    #[test]
    fn catalog_merge_dedupes_by_id() {
        let mut a = HaloCatalog::new();
        a.halos.push(Halo::from_particles(vec![mk(1, [0.0; 3])]));
        let mut b = HaloCatalog::new();
        b.halos.push(Halo::from_particles(vec![mk(1, [0.0; 3])]));
        b.halos.push(Halo::from_particles(vec![mk(5, [1.0; 3])]));
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.total_particles(), 2);
    }

    #[test]
    fn split_by_size_respects_threshold() {
        let mut c = HaloCatalog::new();
        c.halos.push(Halo::from_particles(
            (0..10).map(|t| mk(t, [t as f32, 0.0, 0.0])).collect(),
        ));
        c.halos.push(Halo::from_particles(vec![mk(100, [0.0; 3])]));
        let (small, large) = c.split_by_size(5);
        assert_eq!(small.len(), 1);
        assert_eq!(large.len(), 1);
        assert_eq!(large.halos[0].count(), 10);
    }

    #[test]
    #[should_panic(expected = "at least one particle")]
    fn empty_halo_rejected() {
        Halo::from_particles(Vec::new());
    }
}
