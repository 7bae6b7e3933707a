//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **Edge ordering** — Algorithm 1's root-first rank-ordered queue vs a
//!    plain lexicographic Kruskal: same MST weight, different depth and
//!    root fan-out (the paper's "minimum depth among minimum weight
//!    spanning trees" claim, quantified).
//! 2. **Pipeline chunk size** — broadcast bandwidth vs chunk size on IG
//!    (the knob behind `SchedConfig::pipeline_chunk`).
//! 3. **Distance collapsing threshold** — where the §V-B rule should
//!    engage on Zoot: hierarchical vs linear bandwidth across sizes.
//! 4. **Eager/rendezvous threshold** — the SM/KNEM 4 KB switch in the
//!    baseline p2p stack.

use std::sync::Arc;

use pdac_bench::human_size;
use pdac_core::adaptive::{AdaptiveColl, AdaptivePolicy, BcastTopology};
use pdac_core::baseline::tuned::{self, TunedConfig};
use pdac_core::bcast_tree::build_bcast_tree;
use pdac_core::edges::{edge_queue, unpack, Edge, CLASS_WEIGHTS};
use pdac_core::sched::SchedConfig;
use pdac_core::tree::Tree;
use pdac_core::unionfind::DisjointSets;
use pdac_hwtopo::{machines, BindingPolicy, DistanceMatrix};
use pdac_mpisim::p2p::P2pConfig;
use pdac_mpisim::Communicator;
use pdac_simnet::{bw_bcast, SimConfig, SimExecutor};

/// Plain Kruskal with lexicographic (weight, u, v) order — the ablated
/// construction without the paper's root-first heuristic.
fn plain_kruskal_tree(dist: &DistanceMatrix, root: usize) -> Tree {
    // Algorithm 2's queue is exactly (weight, u, v) order.
    let n = dist.num_ranks();
    let mut sets = DisjointSets::new(n, None);
    let mut accepted: Vec<Edge> = Vec::with_capacity(n - 1);
    for (u, v) in edge_queue(dist, None, &CLASS_WEIGHTS).into_iter().map(unpack) {
        if accepted.len() == n - 1 {
            break;
        }
        if !sets.same(u, v) {
            sets.union(u, v);
            accepted.push(Edge { u, v, w: dist.get(u, v) });
        }
    }
    Tree::from_edges(n, root, &accepted)
}

fn main() {
    edge_order_ablation();
    pipeline_chunk_ablation();
    collapse_threshold_ablation();
    eager_threshold_ablation();
}

fn edge_order_ablation() {
    println!("# Ablation 1: Algorithm 1 edge order vs plain lexicographic Kruskal\n");
    println!("{:<26} {:>6} {:>12} {:>12} {:>12}", "case", "ranks", "depth(A1)", "depth(plain)", "weight ==");
    for (machine, seed) in [
        (machines::ig(), 3),
        (machines::zoot(), 4),
        (machines::synthetic(2, 4, 8, true), 5),
    ] {
        let n = machine.num_cores();
        for root in [0, n / 2] {
            let binding = BindingPolicy::Random { seed }.bind(&machine, n).unwrap();
            let dist = DistanceMatrix::for_binding(&machine, &binding);
            let a1 = build_bcast_tree(&dist, root);
            let plain = plain_kruskal_tree(&dist, root);
            println!(
                "{:<26} {:>6} {:>12} {:>12} {:>12}",
                format!("{} root {}", machine.name, root),
                n,
                a1.depth(),
                plain.depth(),
                a1.total_weight(&dist) == plain.total_weight(&dist),
            );
            assert!(a1.depth() <= plain.depth(), "the paper's order must not be deeper");
        }
    }
    println!();
}

fn pipeline_chunk_ablation() {
    println!("# Ablation 2: broadcast pipeline chunk size (IG, 48 ranks, 8MB, off-cache)\n");
    let ig = Arc::new(machines::ig());
    let binding = BindingPolicy::Contiguous.bind(&ig, 48).unwrap();
    let comm = Communicator::world(Arc::clone(&ig), binding.clone());
    let bytes = 8 << 20;
    println!("{:>10} {:>14}", "chunk", "BW (MB/s)");
    for chunk in [0usize, 32 << 10, 64 << 10, 128 << 10, 512 << 10, 2 << 20] {
        let coll = AdaptiveColl::new(AdaptivePolicy {
            sched: SchedConfig::uniform(chunk),
            ..Default::default()
        });
        let s = coll.bcast(&comm, 0, bytes);
        let t = SimExecutor::new(&ig, &binding, SimConfig { allow_cache: false })
            .run(&s)
            .unwrap()
            .total_time;
        println!(
            "{:>10} {:>14.0}",
            if chunk == 0 { "none".into() } else { human_size(chunk) },
            bw_bcast(48, bytes, t)
        );
    }
    println!();
}

fn collapse_threshold_ablation() {
    println!("# Ablation 3: distance collapsing on Zoot (16 ranks, off-cache)\n");
    let zoot = Arc::new(machines::zoot());
    let binding = BindingPolicy::Contiguous.bind(&zoot, 16).unwrap();
    let comm = Communicator::world(Arc::clone(&zoot), binding.clone());
    let coll = AdaptiveColl::default();
    println!("{:>10} {:>14} {:>14} {:>10}", "size", "hier (MB/s)", "linear (MB/s)", "winner");
    for bytes in [2 << 10, 8 << 10, 32 << 10, 256 << 10, 2 << 20] {
        let bw = |topo| {
            let s = coll.bcast_with_topology(&comm, 0, bytes, topo);
            let t = SimExecutor::new(&zoot, &binding, SimConfig { allow_cache: false })
                .run(&s)
                .unwrap()
                .total_time;
            bw_bcast(16, bytes, t)
        };
        let hier = bw(BcastTopology::Hierarchical);
        let linear = bw(BcastTopology::Collapsed);
        println!(
            "{:>10} {:>14.0} {:>14.0} {:>10}",
            human_size(bytes),
            hier,
            linear,
            if hier > linear { "hier" } else { "linear" }
        );
    }
    println!();
}

fn eager_threshold_ablation() {
    println!("# Ablation 4: eager/rendezvous threshold in the baseline p2p (IG bcast, 48 ranks)\n");
    let ig = Arc::new(machines::ig());
    let binding = BindingPolicy::Contiguous.bind(&ig, 48).unwrap();
    println!("{:>12} {:>12} {:>12} {:>12}", "msg", "eager=1K", "eager=4K", "eager=16K");
    for bytes in [512usize, 2 << 10, 8 << 10, 32 << 10] {
        let mut row = format!("{:>12}", human_size(bytes));
        for eager in [1 << 10, 4 << 10, 16 << 10] {
            let cfg = TunedConfig {
                p2p: P2pConfig { eager_max: eager },
                ..Default::default()
            };
            let s = tuned::bcast(48, 0, bytes, &cfg);
            let t = SimExecutor::new(&ig, &binding, SimConfig { allow_cache: false })
                .run(&s)
                .unwrap()
                .total_time;
            row.push_str(&format!(" {:>12.0}", bw_bcast(48, bytes, t)));
        }
        println!("{row}");
    }
    println!();
}
