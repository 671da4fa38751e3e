//! Disjoint-set (union-find) with path halving and union by size.

/// Disjoint-set forest over `0..n`.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "union-find limited to u32 indices");
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of `x`'s set (with path halving).
    pub fn find(&mut self, mut x: usize) -> usize {
        loop {
            let p = self.parent[x] as usize;
            if p == x {
                return x;
            }
            let gp = self.parent[p];
            self.parent[x] = gp;
            x = gp as usize;
        }
    }

    /// Merge the sets containing `a` and `b`; returns the new root.
    pub fn union(&mut self, a: usize, b: usize) -> usize {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return ra;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        ra
    }

    /// Compact group labels: element → group id in `0..ngroups`, groups
    /// numbered by first appearance.
    pub fn labels(&mut self) -> (Vec<u32>, usize) {
        let mut label_of_root = vec![u32::MAX; self.len()];
        let mut out = Vec::with_capacity(self.len());
        let mut next = 0u32;
        for i in 0..self.len() {
            let r = self.find(i);
            if label_of_root[r] == u32::MAX {
                label_of_root[r] = next;
                next += 1;
            }
            out.push(label_of_root[r]);
        }
        (out, next as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Members of `x`'s group, counted from the public labelling.
    fn group_size(uf: &mut UnionFind, x: usize) -> usize {
        let (labels, _) = uf.labels();
        labels.iter().filter(|&&l| l == labels[x]).count()
    }

    #[test]
    fn singletons_start_disconnected() {
        let mut uf = UnionFind::new(5);
        assert_ne!(uf.find(0), uf.find(1));
        assert_eq!(uf.labels().1, 5);
        assert_eq!(group_size(&mut uf, 3), 1);
        assert_eq!(uf.len(), 5);
    }

    #[test]
    fn union_connects_transitively() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 1);
        uf.union(1, 2);
        uf.union(4, 5);
        assert_eq!(uf.find(0), uf.find(2));
        assert_eq!(uf.find(5), uf.find(4));
        assert_ne!(uf.find(2), uf.find(4));
        assert_eq!(group_size(&mut uf, 0), 3);
        assert_eq!(group_size(&mut uf, 4), 2);
        assert_eq!(group_size(&mut uf, 3), 1);
    }

    #[test]
    fn union_is_idempotent() {
        let mut uf = UnionFind::new(3);
        let r1 = uf.union(0, 1);
        let r2 = uf.union(1, 0);
        assert_eq!(r1, r2);
        assert_eq!(group_size(&mut uf, 0), 2);
        assert_eq!(uf.labels().1, 2);
    }

    #[test]
    fn labels_are_compact_and_consistent() {
        let mut uf = UnionFind::new(7);
        uf.union(0, 3);
        uf.union(3, 6);
        uf.union(1, 2);
        let (labels, ngroups) = uf.labels();
        assert_eq!(ngroups, 4); // {0,3,6}, {1,2}, {4}, {5}
        assert_eq!(labels[0], labels[3]);
        assert_eq!(labels[3], labels[6]);
        assert_eq!(labels[1], labels[2]);
        assert_ne!(labels[0], labels[1]);
        assert_ne!(labels[4], labels[5]);
        // Labels are dense 0..ngroups.
        let mut seen: Vec<u32> = labels.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, (0..ngroups as u32).collect::<Vec<_>>());
    }

    #[test]
    fn chain_unions_form_one_group() {
        let n = 10_000;
        let mut uf = UnionFind::new(n);
        for i in 1..n {
            uf.union(i - 1, i);
        }
        let root = uf.find(0);
        assert!((0..n).all(|i| uf.find(i) == root));
        let (_, g) = uf.labels();
        assert_eq!(g, 1);
    }
}
