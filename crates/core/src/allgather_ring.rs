//! Algorithm 2 — distance-aware allgather ring construction.
//!
//! A greedy Kruskal over the same weighted edge queue (weight, then ranks)
//! with a fan-out constraint: an edge is accepted only if both endpoints
//! still have degree < 2 and lie in different components, so the forest is a
//! set of simple paths. After `n-1` acceptances the two remaining endpoints
//! are joined, closing a Hamiltonian cycle. Physically neighbouring
//! processes cluster into contiguous arcs; only the processes at the arc
//! boundaries ever touch the slower links (§IV-C).

use pdac_hwtopo::{Distance, DistanceMatrix};

use crate::edges::{edge_queue, kruskal, CLASS_WEIGHTS};

/// A Hamiltonian cycle over ranks, normalized to start at rank 0 and to
/// step first toward rank 0's smaller-ranked neighbour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ring {
    order: Vec<usize>,
    /// position[rank] = index of `rank` in `order`.
    position: Vec<usize>,
    /// Each rank's neighbours: what a schedule's walk reads at every step.
    left: Vec<usize>,
    right: Vec<usize>,
}

impl Ring {
    /// Wraps an explicit cycle order (used by the scalable hierarchical
    /// construction in [`crate::distributed`]).
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of `0..n`.
    pub fn from_order(order: Vec<usize>) -> Ring {
        let n = order.len();
        let mut position = vec![usize::MAX; n];
        for (i, &r) in order.iter().enumerate() {
            assert!(r < n && position[r] == usize::MAX, "order must be a permutation");
            position[r] = i;
        }
        // Normalize like `build`: start at 0, walk toward the smaller
        // neighbour.
        let start = position[0];
        let mut rotated: Vec<usize> = (0..n).map(|i| order[(start + i) % n]).collect();
        if n > 2 && rotated[1] > rotated[n - 1] {
            rotated[1..].reverse();
        }
        Ring::normalized(rotated)
    }

    /// Indexes a cycle that already starts at rank 0 in its walking direction.
    fn normalized(order: Vec<usize>) -> Ring {
        let n = order.len();
        let (mut position, mut left, mut right) = (vec![0; n], vec![0; n], vec![0; n]);
        for (i, &r) in order.iter().enumerate() {
            position[r] = i;
            left[r] = order[(i + n - 1) % n];
            right[r] = order[(i + 1) % n];
        }
        Ring { order, position, left, right }
    }

    /// Runs Algorithm 2 on the distance matrix.
    pub fn build(dist: &DistanceMatrix) -> Ring {
        let n = dist.num_ranks();
        assert!(n >= 1, "ring needs at least one rank");
        if n == 1 {
            return Ring::normalized(vec![0]);
        }

        // Each rank's path neighbours; `usize::MAX` marks a free slot.
        let mut adj = vec![[usize::MAX; 2]; n];
        let queue = edge_queue(dist, None, &CLASS_WEIGHTS);
        kruskal(n, None, &queue, 2, |u, v, _| link(&mut adj, u, v));

        // Close the ring: join the two path endpoints.
        let ends: Vec<usize> = (0..n).filter(|&r| adj[r][1] == usize::MAX).collect();
        debug_assert_eq!(ends.len(), 2, "complete graph always admits a Hamiltonian path");
        link(&mut adj, ends[0], ends[1]);

        // Walk the cycle from rank 0 toward its smaller neighbour.
        let mut order = Vec::with_capacity(n);
        let mut prev = 0usize;
        let mut cur = adj[0][0].min(adj[0][1]);
        order.push(0);
        while cur != 0 {
            order.push(cur);
            let [a, b] = adj[cur];
            let next = if a == prev { b } else { a };
            prev = cur;
            cur = next;
        }
        debug_assert_eq!(order.len(), n);
        Ring::normalized(order)
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True for the degenerate empty ring (never produced by `build`).
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The cycle as a sequence starting at rank 0.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Index of `rank` along the cycle.
    pub fn position(&self, rank: usize) -> usize {
        self.position[rank]
    }

    /// The neighbour each rank pushes toward (pulls happen from
    /// [`Self::left`]).
    pub fn right(&self, rank: usize) -> usize {
        self.right[rank]
    }

    /// The neighbour each rank pulls from.
    pub fn left(&self, rank: usize) -> usize {
        self.left[rank]
    }

    /// The rank sitting `k` steps to the left.
    pub fn left_k(&self, rank: usize, k: usize) -> usize {
        let n = self.len();
        self.order[(self.position[rank] + n - (k % n)) % n]
    }

    /// Ring edges as `(rank, right(rank))` pairs in cycle order.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        self.order.iter().map(|&r| (r, self.right(r))).collect()
    }

    /// Number of ring edges at each distance class (index = distance).
    pub fn distance_histogram(&self, dist: &DistanceMatrix) -> [usize; 9] {
        let mut h = [0usize; 9];
        if self.len() < 2 {
            return h;
        }
        for (a, b) in self.edges() {
            h[dist.get(a, b) as usize] += 1;
        }
        // A 2-ring has one physical edge traversed both ways.
        if self.len() == 2 {
            for c in h.iter_mut() {
                *c /= 2;
            }
        }
        h
    }

    /// Number of ring edges with distance > `threshold` (the arc-boundary
    /// crossings that touch slower links).
    pub fn cross_edges(&self, dist: &DistanceMatrix, threshold: Distance) -> usize {
        self.distance_histogram(dist)
            .iter()
            .enumerate()
            .filter(|&(d, _)| d as Distance > threshold)
            .map(|(_, &c)| c)
            .sum()
    }
}

/// Joins `a` and `b` on the path: each takes the other into its first
/// free neighbour slot.
fn link(adj: &mut [[usize; 2]], a: usize, b: usize) {
    for (x, y) in [(a, b), (b, a)] {
        let slot = usize::from(adj[x][0] != usize::MAX);
        adj[x][slot] = y;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdac_hwtopo::{machines, BindingPolicy, DistanceMatrix};

    fn matrix(machine: &pdac_hwtopo::Machine, policy: BindingPolicy) -> DistanceMatrix {
        let n = machine.num_cores();
        let b = policy.bind(machine, n).unwrap();
        DistanceMatrix::for_binding(machine, &b)
    }

    fn assert_hamiltonian(r: &Ring) {
        let mut seen: Vec<usize> = r.order().to_vec();
        seen.sort_unstable();
        assert_eq!(seen, (0..r.len()).collect::<Vec<_>>());
        for rank in 0..r.len() {
            assert_eq!(r.right(r.left(rank)), rank);
            assert_eq!(r.left(r.right(rank)), rank);
        }
    }

    #[test]
    fn hamiltonian_on_all_machines_and_bindings() {
        for m in machines::all_predefined() {
            for policy in [
                BindingPolicy::Contiguous,
                BindingPolicy::CrossSocket,
                BindingPolicy::Random { seed: 5 },
            ] {
                let d = matrix(&m, policy);
                let r = Ring::build(&d);
                assert_hamiltonian(&r);
            }
        }
    }

    #[test]
    fn physical_neighbours_cluster_on_ig() {
        // Regardless of binding, ranks sharing a socket must form
        // contiguous arcs: exactly 8 ring edges leave a NUMA node.
        let ig = machines::ig();
        for policy in [
            BindingPolicy::Contiguous,
            BindingPolicy::CrossSocket,
            BindingPolicy::Random { seed: 42 },
        ] {
            let d = matrix(&ig, policy.clone());
            let r = Ring::build(&d);
            let h = r.distance_histogram(&d);
            assert_eq!(h[1], 40, "{policy:?}: 5 intra-socket edges per socket");
            assert_eq!(h[5] + h[6], 8, "{policy:?}: one boundary per socket");
            assert_eq!(h[6], 2, "{policy:?}: the two board crossings");
            assert_eq!(r.cross_edges(&d, 1), 8);
        }
    }

    #[test]
    fn zoot_ring_minimizes_fsb_crossings() {
        let z = machines::zoot();
        for policy in [BindingPolicy::Contiguous, BindingPolicy::RoundRobinOs] {
            let d = matrix(&z, policy);
            let r = Ring::build(&d);
            let h = r.distance_histogram(&d);
            // 8 shared-L2 pairs contribute 8 distance-1 edges; die and
            // socket boundaries account for the rest.
            assert_eq!(h[1], 8);
            assert_eq!(h[2] + h[3], 8);
        }
    }

    #[test]
    fn left_k_walks_backwards() {
        let ig = machines::ig();
        let d = matrix(&ig, BindingPolicy::Contiguous);
        let r = Ring::build(&d);
        for rank in [0, 17, 47] {
            assert_eq!(r.left_k(rank, 0), rank);
            assert_eq!(r.left_k(rank, 1), r.left(rank));
            assert_eq!(r.left_k(rank, 2), r.left(r.left(rank)));
            assert_eq!(r.left_k(rank, 48), rank);
        }
    }

    #[test]
    fn tiny_rings() {
        let d1 = DistanceMatrix::from_raw(1, vec![0]);
        let r1 = Ring::build(&d1);
        assert_eq!(r1.order(), &[0]);
        let d2 = DistanceMatrix::from_raw(2, vec![0, 3, 3, 0]);
        let r2 = Ring::build(&d2);
        assert_eq!(r2.order(), &[0, 1]);
        assert_eq!(r2.right(0), 1);
        assert_eq!(r2.left(0), 1);
        assert_eq!(r2.distance_histogram(&d2)[3], 1);
    }

    #[test]
    fn normalization_is_deterministic() {
        let ig = machines::ig();
        let d = matrix(&ig, BindingPolicy::Random { seed: 9 });
        let a = Ring::build(&d);
        let b = Ring::build(&d);
        assert_eq!(a, b);
        assert_eq!(a.order()[0], 0);
        assert!(a.order()[1] < a.left(0), "walks toward the smaller neighbour first");
    }
}
