//! The HACC data hierarchy (paper §3, Table 1): Level 1 raw particles,
//! Level 2 reduced products (halo particles, subsamples), Level 3 derived
//! properties (centers, mass functions, catalogs).

use nbody::particle::PARTICLE_BYTES;

/// Bytes of Level 1 data for `n` particles (36 B each).
pub fn level1_bytes(n_particles: u64) -> u64 {
    n_particles * PARTICLE_BYTES as u64
}

/// Bytes of Level 2 halo-particle data for `n` member particles.
pub fn level2_bytes(n_halo_particles: u64) -> u64 {
    n_halo_particles * PARTICLE_BYTES as u64
}

/// Bytes per halo-center record (id + position + count + potential).
const CENTER_RECORD_BYTES: u64 = 8 + 3 * 8 + 8 + 8;

/// Bytes of Level 3 halo-center data for `n` halos.
pub fn level3_center_bytes(n_halos: u64) -> u64 {
    n_halos * CENTER_RECORD_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level1_matches_table1_1024() {
        // Table 1: 1024³ particles → ~40 GB raw.
        let gb = level1_bytes(1u64 << 30) as f64 / 1e9;
        assert!((38.0..40.0).contains(&gb), "{gb} GB");
    }

    #[test]
    fn level1_matches_table1_8192() {
        // Table 1: 8192³ particles → ~20 TB raw.
        let tb = level1_bytes(8192u64.pow(3)) as f64 / 1e12;
        assert!((19.0..21.0).contains(&tb), "{tb} TB");
    }

    #[test]
    fn level2_is_fraction_of_level1() {
        // Paper: Level 2 contains ~20% of Level 1 for the Q Continuum.
        let (n, large) = (8192u64.pow(3), 8192u64.pow(3) / 5);
        let ratio = level2_bytes(large) as f64 / level1_bytes(n) as f64;
        assert!((ratio - 0.2).abs() < 1e-9);
        // ~4 TB (Table 1).
        let tb = level2_bytes(large) as f64 / 1e12;
        assert!((3.5..4.5).contains(&tb), "{tb} TB");
    }

    #[test]
    fn level3_matches_table1_order_of_magnitude() {
        // Table 1: 8192³ run → ~10 GB of halo centers for ~168 M halos
        // (our fixed-width record is the right order of magnitude).
        let gb = level3_center_bytes(167_686_789) as f64 / 1e9;
        assert!((5.0..15.0).contains(&gb), "{gb} GB");
    }
}
