//! Algorithm 1 — distance-aware broadcast tree construction.
//!
//! Kruskal's minimum spanning tree with one change: the edge queue order
//! (see [`crate::edges::edge_queue`]). The ordering makes the plain
//! Kruskal acceptance rule produce the paper's topology without any
//! special-casing:
//!
//! * inside a same-distance cluster, every candidate edge covering the
//!   cluster's leader (the root, or the smallest rank) queues before edges
//!   between non-leaders, so members attach **star-wise to the leader**;
//! * between clusters, the first surviving edge is the one touching both
//!   leaders, so clusters connect **leader to leader**, and the root's own
//!   edges lead each weight class so foreign leaders attach directly to the
//!   root whenever the distance allows;
//! * once two board-level components are merged, every further inter-board
//!   edge closes a cycle and is rejected — exactly one message crosses the
//!   slowest link (Figure 4).
//!
//! The result is a minimum-weight spanning tree of minimum depth among
//! minimum-weight spanning trees, as claimed in §IV-B.

use pdac_hwtopo::{Distance, DistanceMatrix};

use crate::edges::{edge_queue, kruskal, Edge, CLASS_WEIGHTS};
use crate::tree::Tree;

/// One accepted union, for the Figure-4 style walkthroughs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnionStep {
    /// 1-based acceptance index (the paper numbers steps (1)..(11)).
    pub step: usize,
    /// The accepted edge.
    pub edge: Edge,
    /// Leader of the merged set after this union.
    pub merged_leader: usize,
}

/// Runs Algorithm 1 and returns the rooted tree plus the union trace.
pub fn build_bcast_tree_traced(dist: &DistanceMatrix, root: usize) -> (Tree, Vec<UnionStep>) {
    let mut trace = Vec::with_capacity(dist.num_ranks().saturating_sub(1));
    let tree = weighted_bcast_tree(dist, root, &CLASS_WEIGHTS, Some(&mut trace));
    (tree, trace)
}

/// Runs Algorithm 1 and returns the rooted broadcast tree.
pub fn build_bcast_tree(dist: &DistanceMatrix, root: usize) -> Tree {
    weighted_bcast_tree(dist, root, &CLASS_WEIGHTS, None)
}

/// Algorithm 1 with distance class `c` queued at weight `weight[c]` (the
/// collapsed refinement merges classes this way), recording each union in
/// `trace` when one is given. Accepted edges carry their queue weight.
pub(crate) fn weighted_bcast_tree(
    dist: &DistanceMatrix,
    root: usize,
    weight: &[Distance; 9],
    mut trace: Option<&mut Vec<UnionStep>>,
) -> Tree {
    let n = dist.num_ranks();
    assert!(root < n, "root {root} out of range for {n} ranks");
    let queue = edge_queue(dist, Some(root), weight);
    let mut accepted: Vec<Edge> = Vec::with_capacity(n - 1);
    kruskal(n, Some(root), &queue, usize::MAX, |u, v, merged_leader| {
        let edge = Edge { u, v, w: weight[usize::from(dist.get(u, v))] };
        accepted.push(edge);
        if let Some(trace) = trace.as_deref_mut() {
            trace.push(UnionStep { step: accepted.len(), edge, merged_leader });
        }
    });
    Tree::from_edges(n, root, &accepted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdac_hwtopo::{machines, BindingPolicy, DistanceMatrix};

    fn matrix(machine: &pdac_hwtopo::Machine, policy: BindingPolicy, n: usize) -> DistanceMatrix {
        let b = policy.bind(machine, n).unwrap();
        DistanceMatrix::for_binding(machine, &b)
    }

    /// Brute-force MST weight by Prim's algorithm for cross-checking.
    fn mst_weight(dist: &DistanceMatrix) -> u64 {
        let n = dist.num_ranks();
        let mut in_tree = vec![false; n];
        let mut best = vec![u64::MAX; n];
        best[0] = 0;
        let mut total = 0;
        for _ in 0..n {
            let u = (0..n).filter(|&v| !in_tree[v]).min_by_key(|&v| best[v]).unwrap();
            in_tree[u] = true;
            total += best[u];
            for v in 0..n {
                if !in_tree[v] {
                    best[v] = best[v].min(u64::from(dist.get(u, v)));
                }
            }
        }
        total
    }

    #[test]
    fn tree_is_minimum_weight_on_every_machine() {
        for m in machines::all_predefined() {
            let n = m.num_cores();
            for policy in [
                BindingPolicy::Contiguous,
                BindingPolicy::CrossSocket,
                BindingPolicy::Random { seed: 7 },
            ] {
                let d = matrix(&m, policy.clone(), n);
                for root in [0, n / 2, n - 1] {
                    let t = build_bcast_tree(&d, root);
                    assert_eq!(
                        t.total_weight(&d),
                        mst_weight(&d),
                        "machine {} policy {:?} root {root}",
                        m.name,
                        policy
                    );
                }
            }
        }
    }

    #[test]
    fn root_cluster_attaches_star_wise() {
        // IG, contiguous: root 0's socket peers 1..5 all become direct
        // children (distance 1, root edges first).
        let ig = machines::ig();
        let d = matrix(&ig, BindingPolicy::Contiguous, 48);
        let t = build_bcast_tree(&d, 0);
        for c in 1..6 {
            assert_eq!(t.parent[c], Some(0));
        }
        // Children attach in rank order.
        assert_eq!(&t.children[0][..5], &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn foreign_clusters_connect_via_leaders() {
        let ig = machines::ig();
        let d = matrix(&ig, BindingPolicy::Contiguous, 48);
        let t = build_bcast_tree(&d, 0);
        // Each same-board foreign socket's smallest rank hangs off the root;
        // its socket-mates hang off it.
        for leader in [6, 12, 18] {
            assert_eq!(t.parent[leader], Some(0), "leader {leader}");
            for member in (leader + 1)..(leader + 6) {
                assert_eq!(t.parent[member], Some(leader), "member {member}");
            }
        }
        // Exactly one edge crosses the boards (distance 6).
        assert_eq!(t.edges_at_distance(&d, 6), 1);
        // The far board's gateway is its smallest rank, 24.
        assert_eq!(t.parent[24], Some(0));
        assert_eq!(t.depth(), 3, "root -> far gateway -> far leaders -> members");
    }

    #[test]
    fn tree_depth_is_minimal_for_hierarchical_cases() {
        // Zoot contiguous from root 0: depth must be 3
        // (root -> die mate at d1 / die leaders at d2 / socket leaders at d3,
        // then members): concretely root reaches every socket leader
        // directly, leaders fan out star-wise.
        let z = machines::zoot();
        let d = matrix(&z, BindingPolicy::Contiguous, 16);
        let t = build_bcast_tree(&d, 0);
        assert!(t.depth() <= 3, "depth {} tree:\n{}", t.depth(), t.render());
    }

    #[test]
    fn nonzero_root_is_leader_everywhere() {
        let ig = machines::ig();
        let d = matrix(&ig, BindingPolicy::Random { seed: 3 }, 48);
        let (t, trace) = build_bcast_tree_traced(&d, 17);
        assert_eq!(t.root, 17);
        assert_eq!(t.parent[17], None);
        assert_eq!(trace.len(), 47);
        // Once the root's set absorbs a member, the merged leader is 17.
        for s in &trace {
            if s.edge.covers(17) {
                assert_eq!(s.merged_leader, 17);
            }
        }
        // Steps are numbered 1..=n-1.
        assert_eq!(trace.first().unwrap().step, 1);
        assert_eq!(trace.last().unwrap().step, 47);
    }

    #[test]
    fn placement_invariance_of_weight_histogram() {
        // The tree's multiset of edge distances must not depend on the
        // binding (that is the whole point of distance-awareness).
        let ig = machines::ig();
        let count = |policy: BindingPolicy| {
            let d = matrix(&ig, policy, 48);
            let t = build_bcast_tree(&d, 0);
            (1..=6).map(|c| t.edges_at_distance(&d, c)).collect::<Vec<_>>()
        };
        let contiguous = count(BindingPolicy::Contiguous);
        let cross = count(BindingPolicy::CrossSocket);
        let random = count(BindingPolicy::Random { seed: 11 });
        assert_eq!(contiguous, cross);
        assert_eq!(contiguous, random);
        // IG: 40 intra-socket edges, 6 intra-board links, 1 inter-board.
        assert_eq!(contiguous, vec![40, 0, 0, 0, 6, 1]);
    }

    #[test]
    fn singleton_and_pair() {
        let m = machines::flat_smp(2);
        let d1 = DistanceMatrix::from_raw(1, vec![0]);
        let t1 = build_bcast_tree(&d1, 0);
        assert_eq!(t1.len(), 1);
        assert_eq!(t1.depth(), 0);
        let d2 = matrix(&m, BindingPolicy::Contiguous, 2);
        let t2 = build_bcast_tree(&d2, 1);
        assert_eq!(t2.parent[0], Some(1));
    }

    #[test]
    fn figure4_walkthrough_shape() {
        // 12 ranks on the two-board 4-NUMA machine with the paper's random
        // binding flavour, root 5: one inter-board edge, intra-NUMA stars.
        let m = machines::two_board_numa12();
        let d = matrix(&m, BindingPolicy::Random { seed: 2011 }, 12);
        let (t, trace) = build_bcast_tree_traced(&d, 5);
        assert_eq!(t.edges_at_distance(&d, 6), 1, "one message crosses the boards");
        // Intra-NUMA unions (distance 2) come first in the trace.
        let first_cross = trace.iter().position(|s| s.edge.w > 2).unwrap();
        assert!(trace[..first_cross].iter().all(|s| s.edge.w == 2));
        // 8 intra-NUMA edges (4 NUMA nodes x 2), 2 intra-board, 1 inter-board.
        assert_eq!(t.edges_at_distance(&d, 2), 8);
        assert_eq!(t.edges_at_distance(&d, 5), 2);
    }
}
