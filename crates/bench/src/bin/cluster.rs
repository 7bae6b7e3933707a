//! Cluster-scale experiment (the paper's §VI outlook, beyond its own
//! evaluation): broadcast and allgather on a 4-node IG cluster (192 ranks,
//! 2 leaf switches), rank-order baselines vs the distance-aware framework,
//! under node-contiguous and cross-node placements.
//!
//! Expected shape (by construction): the distance-aware topologies cross
//! the network exactly `nodes - 1` times (tree) / `nodes` times (ring)
//! regardless of placement, while rank-order algorithms degrade as soon as
//! consecutive ranks stop sharing a node.

use pdac_bench::{render_table, run_figure, write_json, BwKind, Curve};
use pdac_core::baseline::tuned::{self, TunedConfig};
use pdac_core::AdaptiveColl;
use pdac_hwtopo::{cluster, machines, BindingPolicy};

fn main() {
    let c = cluster::homogeneous("ig-x4", &machines::ig(), 4, 2).expect("cluster builds");
    let ranks = c.num_cores();
    let tuned_cfg = TunedConfig::default();
    let coll = AdaptiveColl::default();

    let mk = |label: &str, policy: BindingPolicy, knem: bool, bcast: bool| {
        let coll = coll.clone();
        Curve {
            label: label.into(),
            policy,
            build: Box::new(move |comm, size| match (knem, bcast) {
                (true, true) => coll.bcast(comm, 0, size),
                (true, false) => coll.allgather(comm, size),
                (false, true) => tuned::bcast(comm.size(), 0, size, &tuned_cfg),
                (false, false) => tuned::allgather(comm.size(), size, &tuned_cfg),
            }),
        }
    };

    // 4 KiB .. 4 MiB messages for broadcast. Allgather sizes are per-rank
    // blocks and stop at 1 MiB, where the committed table stops: the 2 MiB
    // schedule is 1.1 M ops, and validating and simulating it four times
    // over is most of a minute.
    for (what, kind, bcast, max_pow) in
        [("Broadcast", BwKind::Bcast, true, 22), ("Allgather", BwKind::Allgather, false, 20)]
    {
        let sizes: Vec<usize> = (12..=max_pow).step_by(2).map(|p| 1usize << p).collect();
        let curves = vec![
            mk("tuned_contiguous", BindingPolicy::Contiguous, false, bcast),
            mk("tuned_crossnode", BindingPolicy::CrossNode, false, bcast),
            mk("KNEMColl_contiguous", BindingPolicy::Contiguous, true, bcast),
            mk("KNEMColl_crossnode", BindingPolicy::CrossNode, true, bcast),
        ];
        let series = run_figure(&c, ranks, &sizes, &curves, kind, true);
        print!("{}", render_table(&format!("{what} on a 4-node IG cluster (192 ranks)"), &series));

        let last = *sizes.last().unwrap();
        let tuned_loss = 100.0 * (1.0 - series[1].bw_at(last).unwrap() / series[0].bw_at(last).unwrap());
        let knem_var = 100.0
            * (series[2].bw_at(last).unwrap() - series[3].bw_at(last).unwrap()).abs()
            / series[2].bw_at(last).unwrap();
        println!();
        println!("  tuned cross-node loss at {last}B : {tuned_loss:5.1}%");
        println!("  KNEM placement variance          : {knem_var:5.1}%");
        println!();
        let name = if bcast { "cluster_bcast" } else { "cluster_allgather" };
        let path = write_json(name, &series).expect("write results");
        println!("wrote {}\n", path.display());
    }
}
