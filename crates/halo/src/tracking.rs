//! Halo evolution tracking across snapshots (paper §3: "Once the first
//! bound objects (halos) form, analysis tasks are carried out to not only
//! capture these structures within one time snapshot but also to track their
//! evolution to the end of the simulation. Over time, halos merge and
//! accrete mass").
//!
//! Matching is by shared particle tags: halo B at the later step is the
//! *descendant* of halo A at the earlier step if B holds the plurality of
//! A's particles. Several progenitors mapping to one descendant is a
//! merger; a halo with no descendant is disrupted.

use crate::catalog::HaloCatalog;
use std::collections::HashMap;

/// One progenitor → descendant link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HaloLink {
    /// Halo id in the earlier catalog.
    pub progenitor: u64,
    /// Halo id in the later catalog.
    pub descendant: u64,
    /// Number of shared particles.
    pub shared: usize,
    /// Progenitor member count (`shared / progenitor_size` is the match
    /// fraction `min_fraction` gates).
    pub progenitor_size: usize,
}

/// The links between two snapshots' catalogs.
#[derive(Debug, Clone, Default)]
pub struct TrackingResult {
    /// One link per progenitor that found a descendant.
    pub links: Vec<HaloLink>,
    /// Progenitor ids with no descendant (disrupted or below threshold).
    pub disrupted: Vec<u64>,
    /// Descendant ids with no progenitor (newly formed).
    pub newborn: Vec<u64>,
}

/// Link halos of `earlier` to halos of `later` by shared particle tags.
///
/// `min_fraction` is the minimum fraction of a progenitor's particles that
/// must land in one descendant for the link to count (0.5 is typical:
/// plurality-with-majority).
pub fn track_halos(
    earlier: &HaloCatalog,
    later: &HaloCatalog,
    min_fraction: f64,
) -> TrackingResult {
    assert!((0.0..=1.0).contains(&min_fraction));
    // Tag → later-halo id.
    let mut tag_owner: HashMap<u64, u64> = HashMap::new();
    for h in &later.halos {
        for p in &h.particles {
            tag_owner.insert(p.tag, h.id);
        }
    }
    let mut links = Vec::new();
    let mut disrupted = Vec::new();
    let mut matched_descendants: std::collections::HashSet<u64> = Default::default();
    for h in &earlier.halos {
        // Count shared tags per candidate descendant.
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for p in &h.particles {
            if let Some(&d) = tag_owner.get(&p.tag) {
                *counts.entry(d).or_insert(0) += 1;
            }
        }
        let best = counts
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)));
        match best {
            Some((descendant, shared)) if shared as f64 / h.count() as f64 >= min_fraction => {
                links.push(HaloLink {
                    progenitor: h.id,
                    descendant,
                    shared,
                    progenitor_size: h.count(),
                });
                matched_descendants.insert(descendant);
            }
            _ => disrupted.push(h.id),
        }
    }
    let newborn = later
        .halos
        .iter()
        .map(|h| h.id)
        .filter(|id| !matched_descendants.contains(id))
        .collect();
    links.sort_by_key(|l| l.progenitor);
    disrupted.sort_unstable();
    TrackingResult {
        links,
        disrupted,
        newborn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Halo;
    use nbody::particle::Particle;

    fn halo_with_tags(tags: &[u64]) -> Halo {
        Halo::from_particles(
            tags.iter()
                .map(|&t| Particle::at_rest([t as f32 % 7.0, 0.0, 0.0], 1.0, t))
                .collect(),
        )
    }

    fn catalog(halos: Vec<Halo>) -> HaloCatalog {
        let mut c = HaloCatalog::new();
        c.halos = halos;
        c
    }

    #[test]
    fn stable_halo_links_to_itself() {
        let a = catalog(vec![halo_with_tags(&[1, 2, 3, 4])]);
        let b = catalog(vec![halo_with_tags(&[1, 2, 3, 4, 5])]); // accreted tag 5
        let t = track_halos(&a, &b, 0.5);
        assert_eq!(t.links.len(), 1);
        assert_eq!(t.links[0].progenitor, 1);
        assert_eq!(t.links[0].descendant, 1);
        assert_eq!(t.links[0].shared, 4);
        assert_eq!(t.links[0].progenitor_size, 4, "every particle stayed");
        assert!(t.disrupted.is_empty());
        assert!(t.newborn.is_empty());
    }

    #[test]
    fn merger_detected() {
        let a = catalog(vec![
            halo_with_tags(&[1, 2, 3]),
            halo_with_tags(&[10, 11, 12, 13]),
        ]);
        // One descendant holds both progenitors' particles.
        let b = catalog(vec![halo_with_tags(&[1, 2, 3, 10, 11, 12, 13])]);
        let t = track_halos(&a, &b, 0.5);
        // Both progenitors link to the one descendant, whole.
        let links: Vec<_> = t
            .links
            .iter()
            .map(|l| (l.progenitor, l.descendant, l.shared))
            .collect();
        assert_eq!(links, vec![(1, 1, 3), (10, 1, 4)]);
        assert!(t.disrupted.is_empty() && t.newborn.is_empty());
    }

    #[test]
    fn disruption_and_birth() {
        let a = catalog(vec![halo_with_tags(&[1, 2, 3, 4])]);
        // Progenitor's particles scattered (not in any later halo); a brand
        // new halo appears from other particles.
        let b = catalog(vec![halo_with_tags(&[100, 101, 102])]);
        let t = track_halos(&a, &b, 0.5);
        assert!(t.links.is_empty());
        assert_eq!(t.disrupted, vec![1]);
        assert_eq!(t.newborn, vec![100]);
    }

    #[test]
    fn fragmentation_links_to_plurality_piece() {
        // Progenitor splits 60/40 between two descendants.
        let a = catalog(vec![halo_with_tags(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10])]);
        let b = catalog(vec![
            halo_with_tags(&[1, 2, 3, 4, 5, 6]),
            halo_with_tags(&[7, 8, 9, 10, 50]),
        ]);
        let t = track_halos(&a, &b, 0.5);
        assert_eq!(t.links.len(), 1);
        assert_eq!(t.links[0].descendant, 1, "majority piece wins");
        assert_eq!(t.links[0].shared, 6);
        // The 40% piece counts as newborn.
        assert_eq!(t.newborn, vec![7]);
    }

    #[test]
    fn min_fraction_gates_weak_matches() {
        let a = catalog(vec![halo_with_tags(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10])]);
        let b = catalog(vec![halo_with_tags(&[1, 2, 3, 200, 201, 202, 203])]);
        // Only 30% of the progenitor survives into the descendant.
        let strict = track_halos(&a, &b, 0.5);
        assert!(strict.links.is_empty());
        assert_eq!(strict.disrupted, vec![1]);
        let loose = track_halos(&a, &b, 0.2);
        assert_eq!(loose.links.len(), 1);
        let link = loose.links[0];
        assert_eq!((link.shared, link.progenitor_size), (3, 10));
    }

    #[test]
    fn empty_catalogs() {
        let t = track_halos(&HaloCatalog::new(), &HaloCatalog::new(), 0.5);
        assert!(t.links.is_empty() && t.disrupted.is_empty() && t.newborn.is_empty());
    }
}
