//! Complete-graph edge enumeration and the paper's two edge orderings.
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

use pdac_hwtopo::{Distance, DistanceMatrix};

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
    /// The endpoint that is not `rank` (panics if neither matches).
    pub fn other(&self, rank: usize) -> usize {
        if self.u == rank {
            self.v
        } else {
            assert_eq!(self.v, rank, "edge {self:?} does not cover rank {rank}");
            self.u
        }
    }

    /// True if the edge covers `rank`.
    pub fn covers(&self, rank: usize) -> bool {
        self.u == rank || self.v == rank
    }
}

/// All `n(n-1)/2` edges of the complete rank graph, unsorted.
pub fn all_edges(dist: &DistanceMatrix) -> Vec<Edge> {
    let mut edges = Vec::new();
    all_edges_into(dist, &mut edges);
    edges
}

/// [`all_edges`] into a caller-owned arena: the vector is cleared and
/// refilled, so repeated topology constructions reuse one allocation.
pub fn all_edges_into(dist: &DistanceMatrix, edges: &mut Vec<Edge>) {
    let n = dist.num_ranks();
    edges.clear();
    edges.reserve(n * (n - 1) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            edges.push(Edge { u, v, w: dist.get(u, v) });
        }
    }
}

/// Edges in Algorithm 1's queue order for broadcast from `root`.
pub fn bcast_edge_order(dist: &DistanceMatrix, root: usize) -> Vec<Edge> {
    let mut edges = Vec::new();
    bcast_edge_order_into(dist, root, &mut edges);
    edges
}

/// [`bcast_edge_order`] into a caller-owned arena (cleared and refilled).
pub fn bcast_edge_order_into(dist: &DistanceMatrix, root: usize, edges: &mut Vec<Edge>) {
    all_edges_into(dist, edges);
    edges.sort_by_key(|e| {
        if e.covers(root) {
            // Root-covering edges lead their weight class, ordered by the
            // non-root endpoint's rank.
            (e.w, 0usize, e.other(root), usize::MAX)
        } else {
            (e.w, 1usize, e.u, e.v)
        }
    });
}

/// Edges in Algorithm 2's queue order (weight, then ranks).
pub fn ring_edge_order(dist: &DistanceMatrix) -> Vec<Edge> {
    let mut edges = Vec::new();
    ring_edge_order_into(dist, &mut edges);
    edges
}

/// [`ring_edge_order`] into a caller-owned arena (cleared and refilled).
pub fn ring_edge_order_into(dist: &DistanceMatrix, edges: &mut Vec<Edge>) {
    all_edges_into(dist, edges);
    edges.sort_by_key(|e| (e.w, e.u, e.v));
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

    #[test]
    fn all_edges_count() {
        let d = zoot_matrix();
        assert_eq!(all_edges(&d).len(), 16 * 15 / 2);
    }

    #[test]
    fn bcast_order_weight_classes_are_nondecreasing() {
        let d = zoot_matrix();
        let edges = bcast_edge_order(&d, 5);
        for pair in edges.windows(2) {
            assert!(pair[0].w <= pair[1].w);
        }
    }

    #[test]
    fn bcast_order_root_edges_lead_their_class() {
        let d = zoot_matrix();
        let root = 5;
        let edges = bcast_edge_order(&d, root);
        for pair in edges.windows(2) {
            if pair[0].w == pair[1].w && !pair[0].covers(root) {
                assert!(
                    !pair[1].covers(root),
                    "root edge {:?} after non-root edge {:?}",
                    pair[1],
                    pair[0]
                );
            }
        }
        // Within the root's class prefix, non-root endpoints ascend.
        let firsts: Vec<&Edge> =
            edges.iter().take_while(|e| e.w == edges[0].w && e.covers(root)).collect();
        for pair in firsts.windows(2) {
            assert!(pair[0].other(root) < pair[1].other(root));
        }
    }

    #[test]
    fn ring_order_is_lexicographic_within_weight() {
        let d = zoot_matrix();
        let edges = ring_edge_order(&d);
        for pair in edges.windows(2) {
            assert!(
                (pair[0].w, pair[0].u, pair[0].v) < (pair[1].w, pair[1].u, pair[1].v),
                "strictly increasing keys"
            );
        }
    }

    #[test]
    fn arena_variants_match_allocating_variants() {
        let d = zoot_matrix();
        let mut arena = Vec::new();
        bcast_edge_order_into(&d, 5, &mut arena);
        assert_eq!(arena, bcast_edge_order(&d, 5));
        // The arena is cleared and refilled, not appended to.
        ring_edge_order_into(&d, &mut arena);
        assert_eq!(arena, ring_edge_order(&d));
    }

    #[test]
    fn edge_other_and_covers() {
        let e = Edge { u: 2, v: 7, w: 1 };
        assert_eq!(e.other(2), 7);
        assert_eq!(e.other(7), 2);
        assert!(e.covers(2) && e.covers(7) && !e.covers(3));
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn edge_other_panics_for_foreign_rank() {
        Edge { u: 2, v: 7, w: 1 }.other(3);
    }
}
