//! Cluster scale: the paper's §VI outlook, running.
//!
//! Builds a 4-node IG cluster behind two leaf switches (192 ranks), shows
//! the extended distance classes (7 = same switch, 8 = across switches),
//! and demonstrates that the unchanged Algorithms 1 and 2 become
//! hierarchical inter-/intra-node collectives: the broadcast tree crosses
//! the network once per node, the allgather ring once per node boundary,
//! under any placement.
//!
//! Run with: `cargo run --release --example cluster_scale`

use pdac::collectives::bcast_tree::build_bcast_tree;
use pdac::collectives::sched::{bcast_schedule_dist, SchedConfig};
use pdac::hwtopo::{cluster, machines, BindingPolicy, DistanceMatrix};
use pdac::simnet::{bw_bcast, Resource, SimConfig, SimExecutor};

fn main() {
    let c = cluster::homogeneous("ig-x4", &machines::ig(), 4, 2).expect("cluster builds");
    println!(
        "cluster: {} nodes x {} cores = {} ranks, {} switches",
        c.num_nodes,
        c.num_cores() / c.num_nodes,
        c.num_cores(),
        c.num_switches
    );

    let binding = BindingPolicy::CrossNode.bind(&c, 192).expect("binding fits");
    let dist = DistanceMatrix::for_binding(&c, &binding);
    println!("distance classes under cross-node placement: {:?}", dist.classes());

    let tree = build_bcast_tree(&dist, 0);
    println!("\nbroadcast tree: depth {}, edges per class:", tree.depth());
    for class in dist.classes() {
        println!("  distance {class}: {:>3} edges", tree.edges_at_distance(&dist, class));
    }

    let bytes = 4 << 20;
    let sched = bcast_schedule_dist(&tree, bytes, &SchedConfig::default(), None);
    let rep = SimExecutor::new(&c, &binding, SimConfig { allow_cache: false })
        .run(&sched)
        .expect("schedule validates");
    println!(
        "\n4MB broadcast: {:.1} ms -> {:.0} MB/s aggregate",
        rep.total_time * 1e3,
        bw_bcast(192, bytes, rep.total_time)
    );
    let nic: f64 = (0..4).filter_map(|n| rep.resource_bytes.get(&Resource::Nic(n)).copied()).sum();
    println!("network traffic: {:.0} MB over NICs = 3 node joins x 2 adapters x 4MB", nic / 1e6);
}
