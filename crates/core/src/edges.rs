//! The paper's two edge queues over the complete rank graph, and the one
//! Kruskal loop both algorithms run over them.
//!
//! Both constructions walk the complete graph over the communicator's ranks
//! with edge weight = process distance. What differs is the queue order:
//!
//! * **Broadcast** (Algorithm 1): non-decreasing weight; within one weight,
//!   edges covering the *root vertex* first, ordered by the non-root
//!   vertex's rank; then the remaining edges ordered by (smaller rank,
//!   larger rank).
//! * **Allgather** (Algorithm 2): non-decreasing weight, then (smaller
//!   rank, larger rank).
//!
//! The orderings are what make plain Kruskal produce the paper's shapes:
//! within a same-distance cluster the smallest rank (or the root) wins
//! every tie, so members attach star-wise to their leader, and clusters
//! connect leader-to-leader.
//!
//! Weights are distance classes `0..=8`, and the row-major walk
//! `for u { for v > u }` already meets every class's edges in queue order
//! (a root edge `(u, root)` with `u < root` comes before the root's own
//! row). So one stable counting sort by weight, a single O(n²) pass with
//! no comparisons, builds either queue.

use pdac_hwtopo::{Distance, DistanceMatrix};

use crate::unionfind::DisjointSets;

/// An undirected weighted edge between two ranks, `u < v`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Smaller endpoint rank.
    pub u: usize,
    /// Larger endpoint rank.
    pub v: usize,
    /// Process distance between the endpoints.
    pub w: Distance,
}

impl Edge {
    /// True if the edge covers `rank`.
    pub fn covers(&self, rank: usize) -> bool {
        self.u == rank || self.v == rank
    }
}

/// Queues each distance class at its own weight.
pub const CLASS_WEIGHTS: [Distance; 9] = [0, 1, 2, 3, 4, 5, 6, 7, 8];

/// Packs the pair `u < v` into one queue entry (`u` high, `v` low).
fn pack(u: usize, v: usize) -> u32 {
    ((u as u32) << 16) | v as u32
}

/// The pair a queue entry packs, smaller rank first.
pub fn unpack(entry: u32) -> (usize, usize) {
    ((entry >> 16) as usize, (entry & 0xffff) as usize)
}

/// Algorithm 1's queue from `root` (`Some`) or Algorithm 2's (`None`) over
/// all `n(n-1)/2` pairs, each packed into a `u32` ([`unpack`] reads it),
/// with distance class `c` queued at weight `weight[c]`.
///
/// # Panics
/// Panics past 65 536 ranks (a rank must fit a `u16` half) or if a weight
/// exceeds class 8.
pub fn edge_queue(dist: &DistanceMatrix, root: Option<usize>, weight: &[Distance; 9]) -> Vec<u32> {
    let n = dist.num_ranks();
    assert!(n <= 1 << 16, "edge queue packs ranks into u16 halves: at most 65536 ranks, got {n}");
    // Bucket 2w holds the weight-w edges covering the root, bucket 2w + 1
    // the rest; `next[b + 1]` counts bucket b, then becomes its cursor.
    let buckets = weight.map(|w| 2 * usize::from(w));
    let root = root.unwrap_or(usize::MAX);
    let bucket = |u: usize, v: usize, c: Distance| {
        buckets[usize::from(c)] + usize::from(u != root && v != root)
    };
    let mut next = [0usize; 19];
    for u in 0..n {
        for (v, &c) in dist.row(u).iter().enumerate().skip(u + 1) {
            next[bucket(u, v, c) + 1] += 1;
        }
    }
    for b in 1..next.len() {
        next[b] += next[b - 1];
    }
    let mut queue = vec![0; n * n.saturating_sub(1) / 2];
    for u in 0..n {
        for (v, &c) in dist.row(u).iter().enumerate().skip(u + 1) {
            let slot = &mut next[bucket(u, v, c)];
            queue[*slot] = pack(u, v);
            *slot += 1;
        }
    }
    queue
}

/// Kruskal's acceptance loop over `queue`, one for Algorithms 1 and 2, on
/// `n` ranks whose sets `root` leads when given. An edge is accepted when
/// it joins two components and neither endpoint has `max_degree` accepted
/// edges yet (Algorithm 2's fan-out rule; `usize::MAX` for none); `accept`
/// sees it with the merged set's leader. Stops after `n - 1` acceptances.
pub(crate) fn kruskal(
    n: usize,
    root: Option<usize>,
    queue: &[u32],
    max_degree: usize,
    mut accept: impl FnMut(usize, usize, usize),
) {
    let mut sets = DisjointSets::new(n, root);
    let mut degree = vec![0usize; n];
    let mut left = n.saturating_sub(1);
    for &entry in queue {
        if left == 0 {
            break;
        }
        let (u, v) = unpack(entry);
        if degree[u] < max_degree && degree[v] < max_degree && !sets.same(u, v) {
            sets.union(u, v);
            degree[u] += 1;
            degree[v] += 1;
            accept(u, v, sets.leader_of(u));
            left -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdac_hwtopo::{machines, BindingPolicy, DistanceMatrix};

    fn zoot_matrix() -> DistanceMatrix {
        let z = machines::zoot();
        let b = BindingPolicy::Contiguous.bind(&z, 16).unwrap();
        DistanceMatrix::for_binding(&z, &b)
    }

    /// The queue as `(weight, u, v)` triples.
    fn weighed(d: &DistanceMatrix, root: Option<usize>) -> Vec<(Distance, usize, usize)> {
        let queue = edge_queue(d, root, &CLASS_WEIGHTS);
        queue.into_iter().map(unpack).map(|(u, v)| (d.get(u, v), u, v)).collect()
    }

    #[test]
    fn queue_holds_every_pair_once() {
        let d = zoot_matrix();
        let mut seen = vec![false; 16 * 16];
        for (_, u, v) in weighed(&d, Some(5)) {
            assert!(u < v && !seen[u * 16 + v], "({u}, {v}) repeated or reversed");
            seen[u * 16 + v] = true;
        }
        assert_eq!(seen.iter().filter(|&&s| s).count(), 16 * 15 / 2);
    }

    #[test]
    fn bcast_order_weight_classes_are_nondecreasing() {
        let edges = weighed(&zoot_matrix(), Some(5));
        for pair in edges.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
        }
    }

    #[test]
    fn bcast_order_root_edges_lead_their_class() {
        let root = 5;
        let edges = weighed(&zoot_matrix(), Some(root));
        let covers = |&(_, u, v): &(Distance, usize, usize)| u == root || v == root;
        for pair in edges.windows(2) {
            if pair[0].0 == pair[1].0 && !covers(&pair[0]) {
                assert!(
                    !covers(&pair[1]),
                    "root edge {:?} after non-root edge {:?}",
                    pair[1],
                    pair[0]
                );
            }
        }
        // Within each class's root prefix, non-root endpoints ascend.
        let roots: Vec<(Distance, usize)> =
            edges.iter().filter(|e| covers(e)).map(|&(w, u, v)| (w, u + v - root)).collect();
        assert_eq!(roots.len(), 15);
        assert!(roots.windows(2).all(|p| p[0] < p[1]), "{roots:?}");
    }

    #[test]
    fn ring_order_is_lexicographic_within_weight() {
        let edges = weighed(&zoot_matrix(), None);
        for pair in edges.windows(2) {
            assert!(pair[0] < pair[1], "strictly increasing keys");
        }
    }

    #[test]
    fn weight_map_merges_classes() {
        let d = zoot_matrix();
        let flat = edge_queue(&d, None, &[0, 1, 1, 1, 1, 1, 1, 1, 1]);
        let lexicographic: Vec<(usize, usize)> =
            (0..16).flat_map(|u| (u + 1..16).map(move |v| (u, v))).collect();
        assert_eq!(flat.into_iter().map(unpack).collect::<Vec<_>>(), lexicographic);
    }

    #[test]
    fn one_rank_queues_nothing_and_two_ranks_one_edge() {
        let one = DistanceMatrix::from_raw(1, vec![0]);
        assert!(edge_queue(&one, Some(0), &CLASS_WEIGHTS).is_empty());
        assert!(edge_queue(&one, None, &CLASS_WEIGHTS).is_empty());
        let two = DistanceMatrix::from_raw(2, vec![0, 3, 3, 0]);
        for root in [Some(0), Some(1), None] {
            let queue = edge_queue(&two, root, &CLASS_WEIGHTS);
            assert_eq!(queue.into_iter().map(unpack).collect::<Vec<_>>(), [(0, 1)]);
        }
    }

    #[test]
    fn packing_spans_u16_ranks() {
        assert_eq!(unpack(pack(0, 1)), (0, 1));
        assert_eq!(unpack(pack(65_534, 65_535)), (65_534, 65_535));
    }

    #[test]
    fn edge_covers() {
        let e = Edge { u: 2, v: 7, w: 1 };
        assert!(e.covers(2) && e.covers(7) && !e.covers(3));
    }
}
