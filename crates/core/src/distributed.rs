//! Scalable topology construction from partial distance knowledge — the
//! paper's §V-B / §VI future work, implemented.
//!
//! "Actually, only directly connected processes are helpful to construct
//! topologies … In future work, we will explore how much process placement
//! information is necessary for each process to construct an optimal or
//! near-optimal topology. A distributed algorithm will be a feasible
//! approach for a large scale system."
//!
//! The full Algorithms 1 and 2 queue all `n(n-1)/2` edges, reading every
//! pair's distance once. The hierarchical construction here mirrors what a distributed implementation would do:
//!
//! 1. **Local groups for free.** Distance-1 clusters come straight from the
//!    hardware tree (every process knows its own cache domain from hwloc);
//!    no pairwise probing is needed.
//! 2. **Leaders probe leaders.** Only group leaders exchange distance
//!    information, class by class; at each level the surviving leaders
//!    shrink geometrically, so the number of *examined* pairs is
//!    `Σ L_c²  ≪  n²`.
//!
//! On hierarchy-derived distance matrices (every machine this crate
//! builds), the result is **identical** to the full constructions — the
//! point of the experiment is that the paper's greedy algorithms do not
//! actually need the complete graph. The `scaling` benchmark quantifies the
//! probe-count gap.

use pdac_hwtopo::{Distance, DistanceMatrix};

use crate::allgather_ring::Ring;
use crate::edges::Edge;
use crate::tree::Tree;

/// Cost accounting for a sparse construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SparseInfo {
    /// Pairwise distance probes performed (the full algorithms examine
    /// `n(n-1)/2`).
    pub probes: usize,
    /// Hierarchy levels processed.
    pub levels: usize,
}

/// One group during agglomeration.
#[derive(Debug, Clone)]
struct Group {
    leader: usize,
    /// Members sorted ascending (leader included).
    members: Vec<usize>,
}

/// Seeds groups from the distance-1 clusters, counting zero probes (a
/// distributed implementation reads them from the local hardware tree).
fn seed_groups(dist: &DistanceMatrix, root: Option<usize>) -> Vec<Group> {
    dist.clusters_at(1)
        .into_iter()
        .map(|members| {
            let leader = match root {
                Some(r) if members.contains(&r) => r,
                _ => members[0],
            };
            Group { leader, members }
        })
        .collect()
}

/// Merges `groups` transitively at leader-distance ≤ `class`, probing only
/// leader pairs. Returns the merged groups and the probe count.
fn merge_at(
    dist: &DistanceMatrix,
    groups: Vec<Group>,
    class: Distance,
    root: Option<usize>,
) -> (Vec<Group>, usize) {
    let l = groups.len();
    let probes = l * (l - 1) / 2;
    let mut parent: Vec<usize> = (0..l).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut r = x;
        while parent[r] != r {
            r = parent[r];
        }
        parent[x] = r;
        r
    }
    for i in 0..l {
        for j in (i + 1)..l {
            if dist.get(groups[i].leader, groups[j].leader) <= class {
                let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                if a != b {
                    parent[a.max(b)] = a.min(b);
                }
            }
        }
    }
    let mut merged: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for i in 0..l {
        let r = find(&mut parent, i);
        merged.entry(r).or_default().push(i);
    }
    let out = merged
        .into_values()
        .map(|idxs| {
            let leaders: Vec<usize> = idxs.iter().map(|&i| groups[i].leader).collect();
            let leader = match root {
                Some(r) if leaders.contains(&r) => r,
                _ => *leaders.iter().min().expect("non-empty"),
            };
            let mut members: Vec<usize> =
                idxs.iter().flat_map(|&i| groups[i].members.iter().copied()).collect();
            members.sort_unstable();
            Group { leader, members }
        })
        .collect();
    (out, probes)
}

/// Hierarchical (leader-probing) broadcast tree construction.
pub fn hierarchical_bcast_tree(dist: &DistanceMatrix, root: usize) -> (Tree, SparseInfo) {
    let n = dist.num_ranks();
    assert!(root < n, "root out of range");
    if n == 1 {
        return (
            Tree { root, parent: vec![None], children: vec![vec![]] },
            SparseInfo { probes: 0, levels: 0 },
        );
    }

    let mut edges: Vec<Edge> = Vec::with_capacity(n - 1);
    let mut groups = seed_groups(dist, Some(root));
    // Members attach star-wise to their local leader.
    for g in &groups {
        for &m in &g.members {
            if m != g.leader {
                let (u, v) = (m.min(g.leader), m.max(g.leader));
                edges.push(Edge { u, v, w: dist.get(u, v) });
            }
        }
    }

    let mut info = SparseInfo { probes: 0, levels: 1 };
    let classes: Vec<Distance> = dist.classes().into_iter().filter(|&c| c > 1).collect();
    for class in classes {
        if groups.len() == 1 {
            break;
        }
        let old_leaders: Vec<usize> = groups.iter().map(|g| g.leader).collect();
        let (merged, probes) = merge_at(dist, groups, class, Some(root));
        info.probes += probes;
        info.levels += 1;
        // Old leaders attach to their merged group's leader.
        for g in &merged {
            for &ol in &old_leaders {
                if ol != g.leader && g.members.contains(&ol) {
                    let (u, v) = (ol.min(g.leader), ol.max(g.leader));
                    edges.push(Edge { u, v, w: dist.get(u, v) });
                }
            }
        }
        groups = merged;
    }
    assert_eq!(groups.len(), 1, "distance classes must connect everything");
    (Tree::from_edges(n, root, &edges), info)
}

/// Hierarchical ring construction: ascending-rank arcs inside each local
/// group (the paper's IG example orders members "with a non-decreasing
/// order of MPI ranks"), then a greedy fan-out-≤2 chain over group leaders,
/// class by class.
pub fn hierarchical_ring(dist: &DistanceMatrix) -> (Ring, SparseInfo) {
    let n = dist.num_ranks();
    if n == 1 {
        return (Ring::from_order(vec![0]), SparseInfo { probes: 0, levels: 0 });
    }

    // Arcs of ranks; each arc is traversed head..tail along the ring.
    let mut arcs: Vec<Vec<usize>> =
        seed_groups(dist, None).into_iter().map(|g| g.members).collect();
    let mut info = SparseInfo { probes: 0, levels: 1 };

    let classes: Vec<Distance> = dist.classes().into_iter().filter(|&c| c > 1).collect();
    for class in classes {
        if arcs.len() == 1 {
            break;
        }
        // Greedily chain arcs whose endpoints are at distance <= class,
        // probing only endpoint pairs (2 per arc).
        let l = arcs.len();
        info.probes += l * (l - 1) / 2;
        info.levels += 1;
        let mut used = vec![false; l];
        let mut chains: Vec<Vec<usize>> = Vec::new();
        for i in 0..l {
            if used[i] {
                continue;
            }
            used[i] = true;
            let mut chain = arcs[i].clone();
            // Extend at the tail while a compatible arc exists.
            loop {
                let tail = *chain.last().expect("non-empty");
                let next =
                    (0..l).filter(|&j| !used[j]).find(|&j| dist.get(tail, arcs[j][0]) <= class);
                match next {
                    Some(j) => {
                        used[j] = true;
                        chain.extend(arcs[j].iter().copied());
                    }
                    None => break,
                }
            }
            chains.push(chain);
        }
        arcs = chains;
    }

    let order: Vec<usize> = arcs.into_iter().flatten().collect();
    (Ring::from_order(order), info)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allgather_ring::Ring as FullRing;
    use crate::bcast_tree::build_bcast_tree;
    use pdac_hwtopo::{cluster, machines, BindingPolicy, DistanceMatrix};

    fn matrix(machine: &pdac_hwtopo::Machine, policy: BindingPolicy) -> DistanceMatrix {
        let n = machine.num_cores();
        let b = policy.bind(machine, n).unwrap();
        DistanceMatrix::for_binding(machine, &b)
    }

    #[test]
    fn hierarchical_tree_matches_full_construction() {
        for machine in machines::all_predefined() {
            for policy in [BindingPolicy::Contiguous, BindingPolicy::Random { seed: 17 }] {
                let dist = matrix(&machine, policy.clone());
                let n = dist.num_ranks();
                for root in [0, n / 2] {
                    let full = build_bcast_tree(&dist, root);
                    let (sparse, info) = hierarchical_bcast_tree(&dist, root);
                    assert_eq!(sparse, full, "{} {policy:?} root {root}", machine.name);
                    // The probe saving materializes exactly when the free
                    // local (distance-1) grouping is non-trivial; machines
                    // without shared caches degenerate to leader == rank at
                    // the first level.
                    if dist.clusters_at(1).len() < n {
                        assert!(
                            info.probes < n * (n - 1) / 2,
                            "{}: {} probes",
                            machine.name,
                            info.probes
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn probe_count_is_sublinear_in_edges() {
        // IG: 48 ranks -> full = 1128 pairs; hierarchical = leader pairs
        // only (8 leaders at class 5, then 2 at class 6).
        let dist = matrix(&machines::ig(), BindingPolicy::CrossSocket);
        let (_, info) = hierarchical_bcast_tree(&dist, 0);
        assert_eq!(info.probes, 8 * 7 / 2 + 2 / 2, "28 + 1 leader probes");
        assert!(info.probes * 10 < 48 * 47 / 2);
    }

    #[test]
    fn cluster_probes_scale_with_leaders() {
        let c = cluster::homogeneous("x4", &machines::ig(), 4, 2).unwrap();
        let dist = matrix(&c, BindingPolicy::CrossNode);
        let full_pairs = 192 * 191 / 2;
        let (tree, info) = hierarchical_bcast_tree(&dist, 0);
        assert_eq!(tree, build_bcast_tree(&dist, 0));
        assert!(info.probes * 20 < full_pairs, "{} probes vs {full_pairs}", info.probes);
    }

    #[test]
    fn hierarchical_ring_has_the_same_boundary_structure() {
        for machine in machines::all_predefined() {
            for policy in [BindingPolicy::Contiguous, BindingPolicy::Random { seed: 23 }] {
                let dist = matrix(&machine, policy.clone());
                let full = FullRing::build(&dist);
                let (sparse, _) = hierarchical_ring(&dist);
                let hf = full.distance_histogram(&dist);
                let hs = sparse.distance_histogram(&dist);
                // Same number of distance-1 edges (arc interiors) — both
                // constructions keep local groups contiguous.
                assert_eq!(hs[1], hf[1], "{} {policy:?}: {hs:?} vs {hf:?}", machine.name);
                // Boundary edges beyond the largest class cannot appear.
                assert_eq!(hs.iter().sum::<usize>(), hf.iter().sum::<usize>());
            }
        }
    }

    #[test]
    fn ring_members_ascend_inside_groups() {
        // The paper's IG example: "processes in each set are arranged with
        // a non-decreasing order of MPI ranks".
        let dist = matrix(&machines::ig(), BindingPolicy::Contiguous);
        let (ring, _) = hierarchical_ring(&dist);
        let order = ring.order();
        // Find each socket group's positions; they must be contiguous and
        // sorted (ascending or descending after normalization).
        for cluster in dist.clusters_at(1) {
            let mut pos: Vec<usize> = cluster.iter().map(|&r| ring.position(r)).collect();
            pos.sort_unstable();
            let contiguous = pos.windows(2).all(|w| w[1] == w[0] + 1)
                // The arc containing rank 0 may wrap around the origin.
                || {
                    let n = order.len();
                    let shifted: Vec<usize> =
                        pos.iter().map(|&p| (p + n / 2) % n).collect();
                    let mut s = shifted;
                    s.sort_unstable();
                    s.windows(2).all(|w| w[1] == w[0] + 1)
                };
            assert!(contiguous, "cluster {cluster:?} not contiguous on ring");
        }
    }

    #[test]
    fn from_order_normalizes() {
        let r = Ring::from_order(vec![2, 0, 1, 3]);
        assert_eq!(r.order()[0], 0);
        assert!(r.order()[1] < r.left(0));
        let full = Ring::from_order(vec![0, 1, 2, 3]);
        assert_eq!(full.right(3), 0);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn from_order_rejects_duplicates() {
        Ring::from_order(vec![0, 1, 1]);
    }
}
