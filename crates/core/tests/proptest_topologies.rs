//! Property-based invariants of the distance-aware topology constructions
//! (Algorithms 1 and 2) and their compiled schedules, over random machines,
//! bindings, roots and payloads; and the counting-sorted edge queues against
//! a comparison sort and a textbook Kruskal over arbitrary distance tables.

use proptest::prelude::*;
use proptest::collection::vec;
use proptest::test_runner::TestCaseError;

use pdac_core::adaptive::{collapse_intra_mc, AdaptiveColl, BcastTopology};
use pdac_core::allgather_ring::Ring;
use pdac_core::bcast_tree::{build_bcast_tree, build_bcast_tree_traced, UnionStep};
use pdac_core::edges::{edge_queue, unpack, Edge, CLASS_WEIGHTS};
use pdac_core::sched::{allgather_schedule, bcast_schedule, reduce_schedule, SchedConfig};
use pdac_core::tree::Tree;
use pdac_core::unionfind::DisjointSets;
use pdac_core::{verify, Collective, Request};
use pdac_hwtopo::{machines, BindingPolicy, DistanceMatrix, Machine};
use pdac_mpisim::Communicator;

fn arb_machine() -> impl Strategy<Value = Machine> {
    prop_oneof![
        // Synthetic NUMA boxes.
        (1usize..=2, 1usize..=3, 1usize..=4, any::<bool>())
            .prop_map(|(b, n, c, l3)| machines::synthetic(b, n, c, l3)),
        // The paper's machines plus the distance-4 split-socket box.
        Just(machines::zoot()),
        Just(machines::magny_cours()),
        // Small clusters: the extended distance classes 7/8.
        (1usize..=2, 1usize..=2, 2usize..=3, 1usize..=2).prop_map(|(b, n, c, nodes)| {
            let node = machines::synthetic(b, n, c, true);
            pdac_hwtopo::cluster::homogeneous("pcluster", &node, nodes, nodes.min(2)).unwrap()
        }),
    ]
}

/// Machine + random binding over all cores + a root.
fn arb_setup() -> impl Strategy<Value = (Machine, DistanceMatrix, usize)> {
    (arb_machine(), any::<u64>(), any::<usize>()).prop_map(|(m, seed, r)| {
        let n = m.num_cores();
        let binding = BindingPolicy::Random { seed }.bind(&m, n).unwrap();
        let dist = DistanceMatrix::for_binding(&m, &binding);
        let root = r % n;
        (m, dist, root)
    })
}

/// Prim's MST weight for cross-checking minimality.
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

/// An arbitrary symmetric distance table: `n` in 1..=64, off-diagonal
/// classes drawn from 0..=8 or, one time in four, all one class (0
/// included), and a root.
fn arb_table() -> impl Strategy<Value = (DistanceMatrix, usize)> {
    let pairs = 64 * 63 / 2;
    (1usize..=64, vec(0u8..=8, pairs), 0u8..=8, 0u8..4, any::<usize>()).prop_map(
        |(n, classes, class, single, r)| {
            let mut classes = classes.into_iter();
            let mut d = vec![0; n * n];
            for i in 0..n {
                for j in (i + 1)..n {
                    let w = if single == 0 { class } else { classes.next().unwrap() };
                    d[i * n + j] = w;
                    d[j * n + i] = w;
                }
            }
            (DistanceMatrix::from_raw(n, d), r % n)
        },
    )
}

/// The paper's queue by comparison sort over every pair: weight first;
/// for a broadcast, the root's edges lead their weight ordered by the other
/// endpoint, then the rest by ranks.
fn oracle_queue(dist: &DistanceMatrix, root: Option<usize>) -> Vec<Edge> {
    let n = dist.num_ranks();
    let mut edges: Vec<Edge> = (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| Edge { u, v, w: dist.get(u, v) }))
        .collect();
    edges.sort_by_key(|e| match root {
        Some(r) if e.covers(r) => (e.w, 0, e.u + e.v - r, usize::MAX),
        _ => (e.w, 1, e.u, e.v),
    });
    edges
}

/// Textbook Algorithm 1 over the oracle queue: the tree and its unions.
fn oracle_tree(dist: &DistanceMatrix, root: usize) -> (Tree, Vec<UnionStep>) {
    let n = dist.num_ranks();
    let mut sets = DisjointSets::new(n, Some(root));
    let mut accepted = Vec::new();
    let mut trace = Vec::new();
    for edge in oracle_queue(dist, Some(root)) {
        if sets.leader_of(edge.u) != sets.leader_of(edge.v) {
            sets.union(edge.u, edge.v);
            accepted.push(edge);
            let merged_leader = sets.leader_of(edge.u);
            trace.push(UnionStep { step: accepted.len(), edge, merged_leader });
        }
    }
    (Tree::from_edges(n, root, &accepted), trace)
}

/// Textbook Algorithm 2 over the oracle queue: the fan-out-2 path closed
/// into a cycle.
fn oracle_ring(dist: &DistanceMatrix) -> Ring {
    let n = dist.num_ranks();
    if n == 1 {
        return Ring::from_order(vec![0]);
    }
    let mut sets = DisjointSets::new(n, None);
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for Edge { u, v, .. } in oracle_queue(dist, None) {
        if adj[u].len() < 2 && adj[v].len() < 2 && !sets.same(u, v) {
            sets.union(u, v);
            adj[u].push(v);
            adj[v].push(u);
        }
    }
    let ends: Vec<usize> = (0..n).filter(|&r| adj[r].len() < 2).collect();
    assert_eq!(ends.len(), 2);
    let (mut order, mut prev, mut cur) = (vec![ends[0]], usize::MAX, ends[0]);
    while order.len() < n {
        let next = *adj[cur].iter().find(|&&x| x != prev).unwrap();
        order.push(next);
        (prev, cur) = (cur, next);
    }
    Ring::from_order(order)
}

/// The queue as `(u, v)` pairs.
fn pairs(queue: Vec<u32>) -> Vec<(usize, usize)> {
    queue.into_iter().map(unpack).collect()
}

/// Every construction over `dist` equals the textbook one over the sorted
/// queue, and the collapsed tree equals a tree over the collapsed matrix.
fn check_against_oracle(dist: &DistanceMatrix, root: usize) -> Result<(), TestCaseError> {
    for r in [Some(root), None] {
        let oracle: Vec<(usize, usize)> = oracle_queue(dist, r).iter().map(|e| (e.u, e.v)).collect();
        prop_assert_eq!(pairs(edge_queue(dist, r, &CLASS_WEIGHTS)), oracle, "queue, root {:?}", r);
    }
    prop_assert_eq!(build_bcast_tree_traced(dist, root), oracle_tree(dist, root));
    prop_assert_eq!(Ring::build(dist), oracle_ring(dist));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn queues_and_builds_match_the_sorted_oracle_on_any_table((dist, root) in arb_table()) {
        check_against_oracle(&dist, root)?;
        let collapsed = collapse_intra_mc(&dist);
        check_against_oracle(&collapsed, root)?;
    }

    #[test]
    fn queues_and_builds_match_the_sorted_oracle_on_machines((_m, dist, root) in arb_setup()) {
        check_against_oracle(&dist, root)?;
    }

    #[test]
    fn collapsed_tree_is_the_tree_of_the_collapsed_matrix(
        machine in arb_machine(),
        seed in any::<u64>(),
        root_raw in any::<usize>(),
    ) {
        let n = machine.num_cores();
        let binding = BindingPolicy::Random { seed }.bind(&machine, n).unwrap();
        let comm = Communicator::world(std::sync::Arc::new(machine), binding);
        let root = root_raw % n;
        let collapsed = AdaptiveColl::default().bcast_tree(&comm, root, BcastTopology::Collapsed);
        prop_assert_eq!(collapsed, build_bcast_tree(&collapse_intra_mc(&comm.distances_arc()), root));
    }

    #[test]
    fn bcast_tree_is_minimum_weight_spanning_tree((_m, dist, root) in arb_setup()) {
        let tree = build_bcast_tree(&dist, root);
        prop_assert_eq!(tree.len(), dist.num_ranks());
        prop_assert_eq!(tree.root, root);
        prop_assert_eq!(tree.parent[root], None);
        // Spanning: every rank reaches the root.
        for r in 0..tree.len() {
            prop_assert_eq!(*tree.path_from_root(r).first().unwrap(), root);
        }
        prop_assert_eq!(tree.total_weight(&dist), mst_weight(&dist));
    }

    #[test]
    fn bcast_tree_leaders_have_smallest_ranks((_m, dist, root) in arb_setup()) {
        // Within every distance-1 cluster, the member closest to the root
        // of the tree (the cluster gateway) is the root itself or the
        // smallest rank of the cluster.
        let tree = build_bcast_tree(&dist, root);
        for cluster in dist.clusters_at(1) {
            if cluster.len() < 2 { continue; }
            let gateway = cluster
                .iter()
                .copied()
                .min_by_key(|&r| tree.depth_of(r))
                .unwrap();
            let expected = if cluster.contains(&root) { root } else { cluster[0] };
            prop_assert_eq!(gateway, expected, "cluster {:?}", cluster);
        }
    }

    #[test]
    fn bcast_tree_trace_is_sorted_and_complete((_m, dist, root) in arb_setup()) {
        let (_, trace) = build_bcast_tree_traced(&dist, root);
        prop_assert_eq!(trace.len(), dist.num_ranks() - 1);
        for w in trace.windows(2) {
            prop_assert!(w[0].edge.w <= w[1].edge.w, "acceptance order by weight");
        }
    }

    #[test]
    fn ring_is_hamiltonian_and_clusters((machine, dist, _root) in arb_setup()) {
        let ring = Ring::build(&dist);
        let n = dist.num_ranks();
        let mut seen: Vec<usize> = ring.order().to_vec();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..n).collect::<Vec<_>>());
        if n > 2 {
            // Each distance-1 cluster forms one contiguous arc: boundary
            // edge count equals the number of clusters (when more than one).
            let clusters = dist.clusters_at(1);
            if clusters.len() > 1 {
                let boundaries = ring.cross_edges(&dist, 1);
                prop_assert_eq!(boundaries, clusters.len(),
                    "machine {} ring {:?}", machine.name, ring.order());
            }
        }
    }

    #[test]
    fn schedules_validate_and_verify(
        (_m, dist, root) in arb_setup(),
        bytes in 1usize..20_000,
    ) {
        let tree = build_bcast_tree(&dist, root);
        let cfg = SchedConfig::uniform(4096);
        let bcast = bcast_schedule(&tree, bytes, &cfg);
        bcast.validate().unwrap();
        verify::run(Request::new(Collective::Bcast, root, bytes), &bcast).unwrap();

        let ring = Ring::build(&dist);
        let ag = allgather_schedule(&ring, bytes.min(4096));
        ag.validate().unwrap();
        verify::run(Request::new(Collective::Allgather, 0, bytes.min(4096)), &ag).unwrap();

        let red = reduce_schedule(&tree, bytes.min(4096));
        red.validate().unwrap();
        verify::run(Request::new(Collective::Reduce, root, bytes.min(4096)), &red).unwrap();
    }

    #[test]
    fn cached_topologies_are_byte_identical_to_fresh_builds(
        machine in arb_machine(),
        seed in any::<u64>(),
        root_raw in any::<usize>(),
    ) {
        use pdac_core::TopoCache;
        use std::sync::Arc;

        let n = machine.num_cores();
        let binding = BindingPolicy::Random { seed }.bind(&machine, n).unwrap();
        let comm = Communicator::world(Arc::new(machine), binding);
        let root = root_raw % n;
        let coll = AdaptiveColl::default();
        let cache = TopoCache::new();

        for topo in [BcastTopology::Hierarchical, BcastTopology::Collapsed] {
            let fresh = coll.bcast_tree(&comm, root, topo);
            let cold = coll.bcast_tree_cached(&cache, &comm, root, topo);
            let warm = coll.bcast_tree_cached(&cache, &comm, root, topo);
            prop_assert_eq!(&fresh, &*cold, "cached tree differs from fresh build");
            prop_assert!(Arc::ptr_eq(&cold, &warm), "repeat lookup must hit");
        }

        let fresh = coll.allgather_ring(&comm);
        let cold = coll.allgather_ring_cached(&cache, &comm);
        let warm = coll.allgather_ring_cached(&cache, &comm);
        prop_assert_eq!(&fresh, &*cold, "cached ring differs from fresh build");
        prop_assert!(Arc::ptr_eq(&cold, &warm), "repeat lookup must hit");
    }

    #[test]
    fn tree_shape_is_placement_invariant(
        machine in arb_machine(),
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        // Distance histograms of the tree edges must agree across bindings.
        let n = machine.num_cores();
        let hist = |seed: u64| {
            let binding = BindingPolicy::Random { seed }.bind(&machine, n).unwrap();
            let dist = DistanceMatrix::for_binding(&machine, &binding);
            let tree = build_bcast_tree(&dist, 0);
            (1..=6).map(|c| tree.edges_at_distance(&dist, c)).collect::<Vec<_>>()
        };
        prop_assert_eq!(hist(seed_a), hist(seed_b));
    }
}
