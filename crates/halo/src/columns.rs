//! Packed coordinate columns for the halo kernels.
//!
//! The FOF tree build, neighbour queries, and MBP potential sums all work in
//! `f64` analysis precision over particle positions. [`Coords`] stores those
//! positions as three packed columns, widened from `f32` exactly once, so
//! the hot loops sweep contiguous lanes.
//!
//! The widening is the same `as f64` conversion per component as
//! [`Particle::pos_f64`], and the kernels keep the distance and summation
//! association of a plain per-pair scalar loop; `conformance::layout` holds
//! them bit-identical to such loops over the adversarial corpus.

use nbody::particle::Particle;

/// Three packed `f64` coordinate columns (one per axis).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Coords {
    xs: Vec<f64>,
    ys: Vec<f64>,
    zs: Vec<f64>,
}

impl Coords {
    /// An empty column set.
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Build from row-major positions.
    pub fn from_rows(positions: &[[f64; 3]]) -> Self {
        Coords {
            xs: positions.iter().map(|p| p[0]).collect(),
            ys: positions.iter().map(|p| p[1]).collect(),
            zs: positions.iter().map(|p| p[2]).collect(),
        }
    }

    /// Build from AoS particles, widening each component with the same
    /// `as f64` conversion as [`Particle::pos_f64`].
    pub fn from_particles(particles: &[Particle]) -> Self {
        Coords {
            xs: particles.iter().map(|p| p.pos[0] as f64).collect(),
            ys: particles.iter().map(|p| p.pos[1] as f64).collect(),
            zs: particles.iter().map(|p| p.pos[2] as f64).collect(),
        }
    }

    /// Append one point.
    pub fn push(&mut self, p: [f64; 3]) {
        self.xs.push(p[0]);
        self.ys.push(p[1]);
        self.zs.push(p[2]);
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True when no points are stored.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Reassemble point `i` as a row (panics when out of bounds).
    pub fn get(&self, i: usize) -> [f64; 3] {
        [self.xs[i], self.ys[i], self.zs[i]]
    }

    /// Packed x column.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// Packed y column.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// Packed z column.
    pub fn zs(&self) -> &[f64] {
        &self.zs
    }

    /// The packed column for axis `d` (0 = x, 1 = y, 2 = z).
    pub fn axis(&self, d: usize) -> &[f64] {
        match d {
            0 => &self.xs,
            1 => &self.ys,
            2 => &self.zs,
            _ => panic!("axis {d} out of range"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip() {
        let rows = vec![[1.0, 2.0, 3.0], [-0.0, f64::NAN, 4.5], [7.0, 8.0, 9.0]];
        let c = Coords::from_rows(&rows);
        assert_eq!(c.len(), 3);
        for (i, a) in rows.iter().enumerate() {
            let b = c.get(i);
            for d in 0..3 {
                assert_eq!(a[d].to_bits(), b[d].to_bits());
            }
        }
        assert!(std::ptr::eq(c.axis(0), c.xs()));
        assert!(std::ptr::eq(c.axis(1), c.ys()));
        assert!(std::ptr::eq(c.axis(2), c.zs()));
    }

    #[test]
    fn particle_widening_matches_pos_f64() {
        let parts = vec![
            Particle::at_rest([1.5, -0.0, f32::NAN], 1.0, 0),
            Particle::at_rest([f32::MIN_POSITIVE, 2.25, -7.125], 1.0, 1),
        ];
        let c = Coords::from_particles(&parts);
        for (i, p) in parts.iter().enumerate() {
            let r = p.pos_f64();
            for d in 0..3 {
                assert_eq!(c.get(i)[d].to_bits(), r[d].to_bits());
            }
        }
    }

    #[test]
    fn push_and_empty() {
        let mut c = Coords::new();
        assert!(c.is_empty());
        c.push([1.0, 2.0, 3.0]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(0), [1.0, 2.0, 3.0]);
    }
}
