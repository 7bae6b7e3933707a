//! Property-based invariants of failure recovery: after *any* sequence of
//! rank failures, the rebuilt broadcast tree / allgather ring spans exactly
//! the survivors with the paper's construction invariants intact, the
//! leader is re-elected by the set-leader rule, and the topology cache
//! never serves an entry minted under a pre-failure epoch.

use std::sync::Arc;

use proptest::prelude::*;

use pdac_core::adaptive::{AdaptiveColl, BcastTopology};
use pdac_core::bcast_tree::build_bcast_tree;
use pdac_core::{verify, Collective, RecoveryManager, Request, TopoCache};
use pdac_hwtopo::{machines, BindingPolicy, DistanceMatrix, Machine};
use pdac_mpisim::Communicator;

fn arb_machine() -> impl Strategy<Value = Machine> {
    prop_oneof![
        (3usize..=10).prop_map(machines::flat_smp),
        // Small NUMA boxes so real distance structure survives the shrink.
        (1usize..=2, 1usize..=2, 2usize..=3, any::<bool>())
            .prop_map(|(b, n, c, l3)| machines::synthetic(b, n, c, l3)),
    ]
}

/// A world communicator plus a raw failure script: each entry picks one of
/// the ranks still alive at that point (modulo), stopping before the last
/// survivor. Covers failure sequences of any length including none.
fn arb_world_and_failures() -> impl Strategy<Value = (Machine, u64, Vec<u16>)> {
    (arb_machine(), any::<u64>(), prop::collection::vec(any::<u16>(), 0..6))
}

struct Shrunk {
    mgr: RecoveryManager,
    cache: Arc<TopoCache>,
    killed: Vec<usize>,
}

/// Builds the manager, warms the cache once per epoch, and applies the
/// failure script, checking cache-epoch hygiene at every step.
fn apply_failures(machine: Machine, seed: u64, script: &[u16]) -> Shrunk {
    let n = machine.num_cores();
    let binding = BindingPolicy::Random { seed }.bind(&machine, n).unwrap();
    let comm = Communicator::world(Arc::new(machine), binding);
    let cache = Arc::new(TopoCache::new());
    let mut mgr = RecoveryManager::new(AdaptiveColl::default(), Arc::clone(&cache), comm);
    let mut killed = Vec::new();
    for &raw in script {
        if mgr.comm().size() == 1 {
            break;
        }
        let alive = mgr.survivors().to_vec();
        let victim = alive[raw as usize % alive.len()];
        // Warm the cache under the current (soon to be dead) epoch.
        let _ = mgr.plan(Request::new(Collective::Bcast, 0, 1024));
        let epoch_before = mgr.comm().epoch();
        let inval_before = cache.stats().invalidations;
        mgr.mark_failed(victim).unwrap();
        killed.push(victim);
        assert_ne!(mgr.comm().epoch(), epoch_before, "failure mints a fresh epoch");
        assert!(
            cache.stats().invalidations > inval_before,
            "the dead epoch's entries were purged"
        );
    }
    Shrunk { mgr, cache, killed }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The rebuilt tree and ring span exactly the survivor set — no dead
    /// rank appears, no survivor is missing — and the compiled schedules
    /// verify byte-exactly on the real-thread executor.
    #[test]
    fn rebuilt_topologies_span_exactly_the_survivors(
        (machine, seed, script) in arb_world_and_failures(),
    ) {
        let total = machine.num_cores();
        let s = apply_failures(machine, seed, &script);
        let survivors = s.mgr.survivors().to_vec();
        prop_assert_eq!(survivors.len() + s.killed.len(), total);
        for dead in &s.killed {
            prop_assert!(!survivors.contains(dead), "rank {} is dead", dead);
        }

        let bcast = s.mgr.plan(Request::new(Collective::Bcast, 0, 2048));
        prop_assert_eq!(bcast.num_ranks, survivors.len());
        verify::run(Request::new(Collective::Bcast, s.mgr.elect_root(0), 2048), &bcast).unwrap();

        let ag = s.mgr.plan(Request::new(Collective::Allgather, 0, 512));
        prop_assert_eq!(ag.num_ranks, survivors.len());
        verify::run(Request::new(Collective::Allgather, 0, 512), &ag).unwrap();

        let ar = s.mgr.plan(Request::new(Collective::Allreduce, 0, 1024));
        prop_assert_eq!(ar.num_ranks, survivors.len());
        verify::run(Request::new(Collective::Allreduce, 0, 1024), &ar).unwrap();
    }

    /// The survivor tree is still the paper's construction: a minimum
    /// weight spanning tree of the shrunk distance matrix whose distance-1
    /// cluster gateways follow the leader-attach rule (minimum depth at
    /// the root or the smallest cluster rank).
    #[test]
    fn survivor_tree_keeps_construction_invariants(
        (machine, seed, script) in arb_world_and_failures(),
    ) {
        let s = apply_failures(machine, seed, &script);
        let comm = s.mgr.comm();
        let machine = comm.machine_arc();
        let dist = DistanceMatrix::for_binding(&machine, comm.binding());
        let root = s.mgr.elect_root(0);
        let tree = build_bcast_tree(&dist, root);

        // Spanning over exactly the survivors, rooted at the elected leader.
        prop_assert_eq!(tree.len(), comm.size());
        prop_assert_eq!(tree.root, root);
        for r in 0..tree.len() {
            prop_assert_eq!(*tree.path_from_root(r).first().unwrap(), root);
        }
        // Minimum weight (Prim cross-check on the shrunk matrix).
        prop_assert_eq!(tree.total_weight(&dist), mst_weight(&dist));
        // Leader-attach: each distance-1 cluster's gateway (member of
        // minimum depth) is the root if the cluster holds it, otherwise
        // the cluster's smallest rank.
        for cluster in dist.clusters_at(1) {
            if cluster.len() < 2 { continue; }
            let gateway = cluster.iter().copied().min_by_key(|&r| tree.depth_of(r)).unwrap();
            let expected = if cluster.contains(&root) { root } else { cluster[0] };
            prop_assert_eq!(gateway, expected, "cluster {:?}", cluster);
        }
    }

    /// Set-leader re-election: the preferred leader keeps the role while
    /// alive; once dead, the smallest surviving world rank takes over.
    #[test]
    fn leader_election_follows_set_leader_rule(
        (machine, seed, script) in arb_world_and_failures(),
        preferred_raw in any::<u16>(),
    ) {
        let total = machine.num_cores();
        let preferred = preferred_raw as usize % total;
        let s = apply_failures(machine, seed, &script);
        let survivors = s.mgr.survivors().to_vec();
        let elected = s.mgr.elect_root(preferred);
        if survivors.contains(&preferred) {
            prop_assert_eq!(survivors[elected], preferred);
        } else {
            prop_assert_eq!(elected, 0);
            prop_assert_eq!(survivors[0], *survivors.iter().min().unwrap());
        }
    }

    /// The cache never answers a post-failure lookup with a pre-failure
    /// entry: the first rebuild under the new epoch is a miss, the repeat
    /// is a hit, and both return topology sized for the survivors.
    #[test]
    fn cache_never_serves_a_pre_failure_epoch(
        (machine, seed, script) in arb_world_and_failures(),
    ) {
        let s = apply_failures(machine, seed, &script);
        let n = s.mgr.comm().size();
        let coll = AdaptiveColl::default();

        let before = s.cache.stats();
        let tree = coll.bcast_tree_cached(&s.cache, s.mgr.comm(), 0, BcastTopology::Hierarchical);
        prop_assert_eq!(tree.len(), n, "cached tree is survivor-sized");
        let mid = s.cache.stats();
        prop_assert_eq!(mid.misses, before.misses + 1, "fresh epoch ⇒ cold lookup");
        let again = coll.bcast_tree_cached(&s.cache, s.mgr.comm(), 0, BcastTopology::Hierarchical);
        prop_assert!(Arc::ptr_eq(&tree, &again), "same epoch ⇒ warm lookup");
        prop_assert_eq!(s.cache.stats().hits, mid.hits + 1);

        // Accounting: one rebuild per detected failure.
        prop_assert_eq!(s.mgr.stats().topology_rebuilds, s.killed.len() as u64);
        prop_assert_eq!(s.mgr.failed(), &s.killed[..]);
    }
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
