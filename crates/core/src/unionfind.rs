//! Union-find with the paper's leader semantics.
//!
//! Algorithm 1 defines `FIND-SET(v)` to return "the head node of the set
//! including vertex v, which is the root process if it includes it, or a
//! process (vertex) with the smallest MPI rank in each set if not". This
//! structure tracks that *leader* per set in addition to the usual
//! representative, with path compression and union by size.

/// Disjoint sets over ranks `0..n` with per-set leaders.
#[derive(Debug, Clone)]
pub struct DisjointSets {
    parent: Vec<usize>,
    size: Vec<usize>,
    /// Leader of the set rooted at each representative.
    leader: Vec<usize>,
    /// The broadcast root, which outranks every other member as leader.
    root: Option<usize>,
}

impl DisjointSets {
    /// `n` singleton sets; `root`, when given, becomes the leader of any
    /// set containing it.
    pub fn new(n: usize, root: Option<usize>) -> Self {
        assert!(root.is_none_or(|r| r < n), "root out of range");
        DisjointSets { parent: (0..n).collect(), size: vec![1; n], leader: (0..n).collect(), root }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True if empty (never for usable instances).
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of `v`'s set (internal id; use [`Self::leader_of`] for
    /// the paper's FIND-SET).
    pub fn find(&mut self, v: usize) -> usize {
        let mut r = v;
        while self.parent[r] != r {
            r = self.parent[r];
        }
        // Path compression.
        let mut c = v;
        while self.parent[c] != r {
            let next = self.parent[c];
            self.parent[c] = r;
            c = next;
        }
        r
    }

    /// The paper's FIND-SET: the root process if `v`'s set contains it,
    /// otherwise the smallest rank in the set.
    pub fn leader_of(&mut self, v: usize) -> usize {
        let r = self.find(v);
        self.leader[r]
    }

    /// True if `u` and `v` are in the same set.
    pub fn same(&mut self, u: usize, v: usize) -> bool {
        self.find(u) == self.find(v)
    }

    /// Merges the sets of `u` and `v`; returns `false` if already joined.
    pub fn union(&mut self, u: usize, v: usize) -> bool {
        let (mut a, mut b) = (self.find(u), self.find(v));
        if a == b {
            return false;
        }
        if self.size[a] < self.size[b] {
            std::mem::swap(&mut a, &mut b);
        }
        // Leader of the merged set: the root if either side holds it,
        // otherwise the smaller of the two leaders.
        let merged_leader = match self.root {
            Some(r) if self.leader[a] == r || self.leader[b] == r => r,
            _ => self.leader[a].min(self.leader[b]),
        };
        self.parent[b] = a;
        self.size[a] += self.size[b];
        self.leader[a] = merged_leader;
        true
    }

    /// Members of each set, grouped and sorted, ordered by leader rank.
    pub fn sets(&mut self) -> Vec<Vec<usize>> {
        let n = self.len();
        let mut by_rep: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for v in 0..n {
            let r = self.find(v);
            by_rep.entry(r).or_default().push(v);
        }
        let mut out: Vec<(usize, Vec<usize>)> =
            by_rep.into_iter().map(|(r, members)| (self.leader[r], members)).collect();
        out.sort_by_key(|(leader, _)| *leader);
        out.into_iter().map(|(_, m)| m).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons() {
        let mut s = DisjointSets::new(4, None);
        assert_eq!(s.len(), 4);
        assert_eq!(s.sets().len(), 4);
        for v in 0..4 {
            assert_eq!(s.leader_of(v), v);
        }
    }

    #[test]
    fn smallest_rank_leads_without_root() {
        let mut s = DisjointSets::new(6, None);
        assert!(s.union(4, 5));
        assert!(s.union(5, 2));
        assert_eq!(s.leader_of(4), 2);
        assert_eq!(s.leader_of(2), 2);
        assert!(!s.union(2, 4), "already same set");
        assert_eq!(s.sets().len(), 4);
    }

    #[test]
    fn root_outranks_smaller_ranks() {
        let mut s = DisjointSets::new(6, Some(5));
        s.union(5, 0);
        assert_eq!(s.leader_of(0), 5, "root leads even against rank 0");
        s.union(1, 2);
        assert_eq!(s.leader_of(2), 1);
        s.union(0, 2);
        assert_eq!(s.leader_of(1), 5, "root propagates through merges");
    }

    #[test]
    fn same_and_sets() {
        let mut s = DisjointSets::new(5, Some(3));
        s.union(0, 1);
        s.union(3, 4);
        assert!(s.same(0, 1));
        assert!(!s.same(1, 3));
        let sets = s.sets();
        assert_eq!(sets, vec![vec![0, 1], vec![2], vec![3, 4]]);
    }

    #[test]
    fn union_by_size_keeps_leader_correct() {
        let mut s = DisjointSets::new(8, None);
        // Big set {4..8}, then merge with {3}.
        s.union(4, 5);
        s.union(6, 7);
        s.union(4, 6);
        s.union(3, 7);
        assert_eq!(s.leader_of(5), 3);
        let sets = s.sets();
        assert_eq!(sets[sets.len() - 1], vec![3, 4, 5, 6, 7]);
    }

    #[test]
    #[should_panic(expected = "root out of range")]
    fn bad_root_rejected() {
        DisjointSets::new(3, Some(3));
    }
}
