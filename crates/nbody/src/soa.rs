//! Structure-of-arrays particle storage.
//!
//! The 36-byte AoS [`Particle`] record is the
//! paper's I/O unit, but the analysis kernels (CIC deposit, FOF linking, MBP
//! potential sums) read one or two fields across *every* particle. Splitting
//! the record into packed per-field columns lets those inner loops issue
//! contiguous loads and autovectorize, instead of striding 36 bytes per
//! element and unpacking a struct.
//!
//! Conversion is bit-preserving in both directions for every field,
//! including NaN position payloads and the full 64-bit `tag` — the
//! round-trip is property-tested, and the conformance layout suite requires
//! every kernel to produce byte-identical results on either layout.

use crate::particle::Particle;
use dpp::{Backend, SendPtr, DEFAULT_GRAIN};
use std::ops::Range;

/// Structure-of-arrays particle store: one packed column per field.
///
/// All eight columns always have the same length. Columns are exposed as
/// borrowed slices (see [`ParticleSoA::positions`], [`ParticleSoA::mass`]) so kernels can
/// sweep them without holding the whole struct.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParticleSoA {
    pos_x: Vec<f32>,
    pos_y: Vec<f32>,
    pos_z: Vec<f32>,
    vel_x: Vec<f32>,
    vel_y: Vec<f32>,
    vel_z: Vec<f32>,
    mass: Vec<f32>,
    tag: Vec<u64>,
}

/// Borrowed view of the three position columns (the shape every geometric
/// kernel consumes).
#[derive(Debug, Clone, Copy)]
pub struct PosColumns<'a> {
    /// Packed x positions.
    pub x: &'a [f32],
    /// Packed y positions.
    pub y: &'a [f32],
    /// Packed z positions.
    pub z: &'a [f32],
}

/// The four columns a CIC deposit reads — positions and mass — as a reusable
/// buffer: [`DepositColumns::refill`] overwrites them from an AoS slice in one
/// dispatched pass and allocates only when the particle count grows. A caller
/// that deposits repeatedly (`Simulation`'s force solve) keeps one; a
/// one-shot caller (the in-situ power spectrum) builds one with
/// [`DepositColumns::from_aos`]; a render frame gathers its selection in
/// level-of-detail order with [`DepositColumns::refill_gather`]. Velocities
/// and tags, which no deposit reads, are never copied. Bit-preserving, NaN
/// payloads and signed zeros included.
#[derive(Debug, Clone, Default)]
pub struct DepositColumns {
    x: Vec<f32>,
    y: Vec<f32>,
    z: Vec<f32>,
    mass: Vec<f32>,
}

impl DepositColumns {
    /// The deposit columns of `particles`.
    pub fn from_aos(backend: &dyn Backend, particles: &[Particle]) -> Self {
        let mut cols = Self::default();
        cols.refill(backend, particles);
        cols
    }

    /// Overwrite the columns with `particles`' positions and masses.
    pub fn refill(&mut self, backend: &dyn Backend, particles: &[Particle]) {
        self.fill(backend, particles.len(), |r| particles[r].iter());
    }

    /// Overwrite the columns with the positions and masses of
    /// `particles[order[0]]`, `particles[order[1]]`, … — a gather straight
    /// into the deposit's layout, for a caller that deposits in an order of
    /// its own (a render frame's level-of-detail order) and so never builds
    /// the reordered particle array. Panics when an index is out of bounds.
    pub fn refill_gather(&mut self, backend: &dyn Backend, particles: &[Particle], order: &[u32]) {
        self.fill(backend, order.len(), |r| {
            order[r].iter().map(|&i| &particles[i as usize])
        });
    }

    /// Apply `f(i, &mut particles[i])` to every particle and overwrite the
    /// columns with the result, in one dispatched pass: the stepper's
    /// opening kick and drift leave the next deposit's columns behind.
    pub(crate) fn update(
        &mut self,
        backend: &dyn Backend,
        particles: &mut [Particle],
        f: impl Fn(usize, &mut Particle) + Sync,
    ) {
        let n = particles.len();
        let cols = self.resized(n);
        let rows = SendPtr(particles.as_mut_ptr());
        backend.dispatch(n, DEFAULT_GRAIN, &|r| {
            // SAFETY: the particles and every column have length `n`, `r`
            // lies within `0..n` and is handed to this chunk only.
            let [x, y, z, mass] = [&cols[0], &cols[1], &cols[2], &cols[3]]
                .map(|c| unsafe { c.slice_mut(r.start, r.len()) });
            let rows = unsafe { rows.slice_mut(r.start, r.len()) };
            for (k, p) in rows.iter_mut().enumerate() {
                f(r.start + k, p);
                (x[k], y[k], z[k], mass[k]) = (p.pos[0], p.pos[1], p.pos[2], p.mass);
            }
        });
    }

    /// Every column resized to `n`, as pointers for a dispatched fill.
    fn resized(&mut self, n: usize) -> [SendPtr<f32>; 4] {
        [&mut self.x, &mut self.y, &mut self.z, &mut self.mass].map(|c| {
            c.resize(n, 0.0);
            SendPtr(c.as_mut_ptr())
        })
    }

    /// Resize every column to `n` and write row `k` from the `k`-th particle
    /// `rows(0..n)` yields, over `backend` in chunks.
    fn fill<'p, I>(
        &mut self,
        backend: &dyn Backend,
        n: usize,
        rows: impl Fn(Range<usize>) -> I + Sync,
    ) where
        I: Iterator<Item = &'p Particle>,
    {
        let cols = self.resized(n);
        backend.dispatch(n, DEFAULT_GRAIN, &|r| {
            // SAFETY: every column has length `n`, `r` lies within `0..n`
            // and is handed to this chunk only.
            let [x, y, z, mass] = [&cols[0], &cols[1], &cols[2], &cols[3]]
                .map(|c| unsafe { c.slice_mut(r.start, r.len()) });
            for (k, p) in rows(r).enumerate() {
                (x[k], y[k], z[k], mass[k]) = (p.pos[0], p.pos[1], p.pos[2], p.mass);
            }
        });
    }

    /// Borrowed view of the three position columns.
    pub fn positions(&self) -> PosColumns<'_> {
        PosColumns {
            x: &self.x,
            y: &self.y,
            z: &self.z,
        }
    }

    /// Packed masses.
    pub fn mass(&self) -> &[f32] {
        &self.mass
    }
}

impl ParticleSoA {
    /// An empty store with room for `n` particles per column.
    fn with_capacity(n: usize) -> Self {
        ParticleSoA {
            pos_x: Vec::with_capacity(n),
            pos_y: Vec::with_capacity(n),
            pos_z: Vec::with_capacity(n),
            vel_x: Vec::with_capacity(n),
            vel_y: Vec::with_capacity(n),
            vel_z: Vec::with_capacity(n),
            mass: Vec::with_capacity(n),
            tag: Vec::with_capacity(n),
        }
    }

    /// Convert from the AoS layout. Bit-preserving for every field.
    pub fn from_aos(particles: &[Particle]) -> Self {
        let mut soa = Self::with_capacity(particles.len());
        for p in particles {
            soa.push(*p);
        }
        soa
    }

    /// Convert back to the AoS layout. Bit-preserving for every field.
    pub fn to_aos(&self) -> Vec<Particle> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// Append one particle.
    pub fn push(&mut self, p: Particle) {
        self.pos_x.push(p.pos[0]);
        self.pos_y.push(p.pos[1]);
        self.pos_z.push(p.pos[2]);
        self.vel_x.push(p.vel[0]);
        self.vel_y.push(p.vel[1]);
        self.vel_z.push(p.vel[2]);
        self.mass.push(p.mass);
        self.tag.push(p.tag);
    }

    /// Reassemble particle `i` (panics when out of bounds).
    pub fn get(&self, i: usize) -> Particle {
        Particle {
            pos: [self.pos_x[i], self.pos_y[i], self.pos_z[i]],
            vel: [self.vel_x[i], self.vel_y[i], self.vel_z[i]],
            mass: self.mass[i],
            tag: self.tag[i],
        }
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.pos_x.len()
    }

    /// True when the store holds no particles.
    pub fn is_empty(&self) -> bool {
        self.pos_x.is_empty()
    }

    /// Packed masses.
    pub fn mass(&self) -> &[f32] {
        &self.mass
    }

    /// Packed tags.
    #[cfg(test)]
    fn tag(&self) -> &[u64] {
        &self.tag
    }

    /// Borrowed view of the three position columns.
    pub fn positions(&self) -> PosColumns<'_> {
        PosColumns {
            x: &self.pos_x,
            y: &self.pos_y,
            z: &self.pos_z,
        }
    }

    /// Position of particle `i` widened to `f64` (the analysis precision),
    /// component-for-component identical to
    /// [`Particle::pos_f64`](crate::particle::Particle::pos_f64).
    pub fn pos_f64(&self, i: usize) -> [f64; 3] {
        [
            self.pos_x[i] as f64,
            self.pos_y[i] as f64,
            self.pos_z[i] as f64,
        ]
    }
}

impl From<&[Particle]> for ParticleSoA {
    fn from(particles: &[Particle]) -> Self {
        ParticleSoA::from_aos(particles)
    }
}

impl FromIterator<Particle> for ParticleSoA {
    fn from_iter<I: IntoIterator<Item = Particle>>(iter: I) -> Self {
        let mut soa = ParticleSoA::default();
        for p in iter {
            soa.push(p);
        }
        soa
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<Particle> {
        (0..n)
            .map(|i| {
                let f = i as f32;
                Particle {
                    pos: [f * 0.37, f * 0.71, f * 0.13],
                    vel: [-f, f * 2.0, 0.5],
                    mass: 1.0 + f * 0.01,
                    tag: u64::MAX - i as u64,
                }
            })
            .collect()
    }

    #[test]
    fn round_trip_preserves_all_fields() {
        let aos = sample(257);
        let soa = ParticleSoA::from_aos(&aos);
        assert_eq!(soa.len(), 257);
        assert_eq!(soa.to_aos(), aos);
    }

    #[test]
    fn round_trip_preserves_nan_payloads_and_signed_zero() {
        let specials = vec![
            Particle {
                pos: [f32::NAN, -f32::NAN, -0.0],
                vel: [0.0, -0.0, f32::INFINITY],
                mass: f32::from_bits(1), // denormal
                tag: 0xDEAD_BEEF_CAFE_F00D,
            },
            Particle {
                pos: [f32::NEG_INFINITY, f32::MIN_POSITIVE, 0.0],
                vel: [f32::NAN, 1.0, -1.0],
                mass: -0.0,
                tag: u64::MAX,
            },
        ];
        let soa = ParticleSoA::from_aos(&specials);
        let back = soa.to_aos();
        for (a, b) in specials.iter().zip(&back) {
            for d in 0..3 {
                assert_eq!(a.pos[d].to_bits(), b.pos[d].to_bits());
                assert_eq!(a.vel[d].to_bits(), b.vel[d].to_bits());
            }
            assert_eq!(a.mass.to_bits(), b.mass.to_bits());
            assert_eq!(a.tag, b.tag);
        }
    }

    #[test]
    fn columns_are_packed_and_consistent() {
        let aos = sample(64);
        let soa = ParticleSoA::from_aos(&aos);
        let cols = soa.positions();
        for (i, p) in aos.iter().enumerate() {
            assert_eq!(cols.x[i], p.pos[0]);
            assert_eq!(cols.y[i], p.pos[1]);
            assert_eq!(cols.z[i], p.pos[2]);
            assert_eq!(soa.mass()[i], p.mass);
            assert_eq!(soa.tag()[i], p.tag);
            assert_eq!(soa.get(i), *p);
            assert_eq!(soa.pos_f64(i), p.pos_f64());
        }
    }

    #[test]
    fn deposit_columns_are_the_soa_columns_and_refill_in_place() {
        use dpp::{Serial, Threaded};
        // Past the pool's inline threshold, specials at both ends.
        let mut aos = sample(5000);
        aos[0].pos = [f32::NAN, -f32::NAN, -0.0];
        aos[4999].pos = [f32::NEG_INFINITY, f32::from_bits(1), 0.0];
        aos[4999].mass = -0.0;
        let soa = ParticleSoA::from_aos(&aos);
        let bits = |c: &[f32]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // Built on a pool, then refilled in place: shorter, empty, full again.
        let mut cols = DepositColumns::from_aos(&Threaded::new(3), &aos);
        for (n, next) in [(5000usize, 17usize), (17, 0), (0, 5000), (5000, 5000)] {
            assert_eq!(bits(cols.positions().x), bits(&soa.positions().x[..n]));
            assert_eq!(bits(cols.positions().y), bits(&soa.positions().y[..n]));
            assert_eq!(bits(cols.positions().z), bits(&soa.positions().z[..n]));
            assert_eq!(bits(cols.mass()), bits(&soa.mass()[..n]));
            cols.refill(&Serial, &aos[..next]);
        }
    }

    #[test]
    fn refill_gather_is_refill_of_the_reordered_rows() {
        use dpp::{Serial, Threaded};
        let mut aos = sample(5000);
        aos[4321].pos = [f32::NAN, -f32::NAN, -0.0];
        aos[4321].mass = -0.0;
        let bits = |cols: &DepositColumns| {
            let pos = cols.positions();
            [pos.x, pos.y, pos.z, cols.mass()]
                .map(|c| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
        };
        // A permutation, a repeating subset and nothing; on a pool and inline.
        let orders: [Vec<u32>; 3] = [
            (0..5000).map(|i| (i * 7919) % 5000).collect(),
            (0..3000).map(|i| 4321 - (i % 17)).collect(),
            Vec::new(),
        ];
        let mut cols = DepositColumns::default();
        for order in &orders {
            let gathered: Vec<Particle> = order.iter().map(|&i| aos[i as usize]).collect();
            let want = bits(&DepositColumns::from_aos(&Serial, &gathered));
            for backend in [&Threaded::new(3) as &dyn Backend, &Serial] {
                cols.refill_gather(backend, &aos, order);
                assert_eq!(
                    bits(&cols),
                    want,
                    "{} rows on {}",
                    order.len(),
                    backend.name()
                );
            }
        }
    }

    #[test]
    fn empty_and_builders() {
        let soa = ParticleSoA::default();
        assert!(soa.is_empty());
        assert!(soa.to_aos().is_empty());
        let from_iter: ParticleSoA = sample(5).into_iter().collect();
        assert_eq!(from_iter.len(), 5);
        let via_from: ParticleSoA = sample(5).as_slice().into();
        assert_eq!(via_from, from_iter);
    }
}
