//! The inter-node extension end-to-end: because Algorithms 1 and 2 are
//! parametric in the distance, running them on a flattened cluster already
//! yields hierarchical inter-/intra-node collectives — exactly the §VI
//! future-work behaviour.

use pdac_core::allgather_ring::Ring;
use pdac_core::bcast_tree::build_bcast_tree;
use pdac_core::sched::{allgather_schedule_dist, bcast_schedule_dist, SchedConfig};
use pdac_core::{metrics, verify, Collective, Request};
use pdac_hwtopo::{cluster, machines, BindingPolicy, DistanceMatrix, Machine};
use pdac_simnet::{Resource, SimConfig, SimExecutor};

fn ig_cluster() -> Machine {
    cluster::homogeneous("ig-x4", &machines::ig(), 4, 2).unwrap()
}

fn matrix(machine: &Machine, policy: BindingPolicy) -> (pdac_hwtopo::Binding, DistanceMatrix) {
    let n = machine.num_cores();
    let b = policy.bind(machine, n).unwrap();
    let d = DistanceMatrix::for_binding(machine, &b);
    (b, d)
}

#[test]
fn bcast_tree_crosses_the_network_exactly_once_per_node() {
    let c = ig_cluster();
    for policy in
        [BindingPolicy::Contiguous, BindingPolicy::CrossNode, BindingPolicy::Random { seed: 8 }]
    {
        let (_, dist) = matrix(&c, policy.clone());
        let tree = build_bcast_tree(&dist, 0);
        let net_edges = tree.edges_at_distance(&dist, 7) + tree.edges_at_distance(&dist, 8);
        assert_eq!(net_edges, 3, "{policy:?}: one network edge per node merge");
        // Inter-switch traffic is also minimal: one distance-8 edge joins
        // the two switch groups.
        assert_eq!(tree.edges_at_distance(&dist, 8), 1, "{policy:?}");
        // Within nodes the usual structure holds: 40 cache-level edges per
        // node on IG.
        assert_eq!(tree.edges_at_distance(&dist, 1), 4 * 40, "{policy:?}");
    }
}

#[test]
fn allgather_ring_clusters_nodes_into_arcs() {
    let c = ig_cluster();
    for policy in [BindingPolicy::Contiguous, BindingPolicy::CrossNode] {
        let (_, dist) = matrix(&c, policy.clone());
        let ring = Ring::build(&dist);
        let h = ring.distance_histogram(&dist);
        assert_eq!(h[7] + h[8], 4, "{policy:?}: one network boundary per node");
        assert_eq!(h[1], 4 * 40, "{policy:?}: intra-socket arcs intact");
    }
}

#[test]
fn cluster_bcast_simulates_with_network_traffic_accounted() {
    let c = ig_cluster();
    let (binding, dist) = matrix(&c, BindingPolicy::CrossNode);
    let tree = build_bcast_tree(&dist, 0);
    let bytes = 1 << 20;
    let sched = bcast_schedule_dist(&tree, bytes, &SchedConfig::default(), None);
    let rep = SimExecutor::new(&c, &binding, SimConfig { allow_cache: false }).run(&sched).unwrap();
    assert!(rep.total_time > 0.0);
    // Three network transfers: each crosses two NICs.
    let nic_bytes: f64 =
        (0..4).filter_map(|n| rep.resource_bytes.get(&Resource::Nic(n)).copied()).sum();
    assert_eq!(nic_bytes, 6.0 * bytes as f64);
    // Exactly one inter-switch transfer (two uplink traversals).
    let up: f64 =
        (0..2).filter_map(|s| rep.resource_bytes.get(&Resource::SwitchUplink(s)).copied()).sum();
    assert_eq!(up, 2.0 * bytes as f64);
}

#[test]
fn cluster_collectives_are_byte_correct() {
    // A smaller cluster keeps the thread-executor oracle fast: 2 x Zoot.
    let c = cluster::homogeneous("zoot-x2", &machines::zoot(), 2, 1).unwrap();
    let (_, dist) = matrix(&c, BindingPolicy::Random { seed: 77 });
    let tree = build_bcast_tree(&dist, 5);
    let sched = bcast_schedule_dist(&tree, 100_000, &SchedConfig::default(), None);
    verify::run(Request::new(Collective::Bcast, 5, 100_000), &sched).unwrap();

    let ring = Ring::build(&dist);
    let ag = allgather_schedule_dist(&ring, 2_000, None, None);
    verify::run(Request::new(Collective::Allgather, 0, 2_000), &ag).unwrap();
}

#[test]
fn slow_link_bytes_count_network_classes() {
    let c = ig_cluster();
    let (_, dist) = matrix(&c, BindingPolicy::Contiguous);
    let tree = build_bcast_tree(&dist, 0);
    let bytes = 1 << 16;
    let sched = bcast_schedule_dist(&tree, bytes, &SchedConfig::uniform(0), None);
    let stress = metrics::link_stress(&sched, &dist);
    assert_eq!(stress[7], 2 * bytes as u64, "two same-switch node joins");
    assert_eq!(stress[8], bytes as u64, "one cross-switch join");
    assert_eq!(metrics::slow_link_bytes(&sched, &dist, 6), 3 * bytes as u64, "total network bytes");
}

#[test]
fn placement_stability_extends_to_clusters() {
    use pdac_simnet::bw_bcast;
    let c = ig_cluster();
    let bytes = 1 << 20;
    let bw = |policy: BindingPolicy| {
        let (binding, dist) = matrix(&c, policy);
        let tree = build_bcast_tree(&dist, 0);
        let sched = bcast_schedule_dist(&tree, bytes, &SchedConfig::default(), None);
        let rep =
            SimExecutor::new(&c, &binding, SimConfig { allow_cache: false }).run(&sched).unwrap();
        bw_bcast(c.num_cores(), bytes, rep.total_time)
    };
    let contiguous = bw(BindingPolicy::Contiguous);
    let cross = bw(BindingPolicy::CrossNode);
    let var = (contiguous - cross).abs() / contiguous.max(cross);
    assert!(var < 0.05, "distance-aware stays stable at cluster scale: {var:.3}");
}

/// Checking a schedule must cost about what building it does, in memory as
/// in time: the ring allgather on eight IG nodes is ~295 K ops with ~147 K
/// conflicting pairs, and a race check that keeps an ops × candidates
/// reachability table needs gigabytes for it. No wall-clock assertion; the
/// CI memory cap on `pdac claims` guards the 192-rank case the same way.
#[test]
fn allgather_on_384_ranks_validates() {
    let c = cluster::homogeneous("ig-x8", &machines::ig(), 8, 2).unwrap();
    let (_, dist) = matrix(&c, BindingPolicy::CrossNode);
    let sched = allgather_schedule_dist(&Ring::build(&dist), 16 << 10, None, None);
    assert_eq!(sched.num_ranks, 384);
    assert!(sched.ops.len() > 290_000, "{} ops", sched.ops.len());
    sched.validate().unwrap();
}
