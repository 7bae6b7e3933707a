//! The experiments that print without claiming: design ablations, the
//! timed construction scaling table (never pinned) and the component
//! auto-tuner.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pdac_core::adaptive::AdaptiveColl;
use pdac_core::baseline::sm;
use pdac_core::baseline::tuned;
use pdac_core::bcast_tree::build_bcast_tree;
use pdac_core::edges::{edge_queue, unpack, Edge, CLASS_WEIGHTS};
use pdac_core::framework::Component;
use pdac_core::sched::{bcast_schedule_dist, SchedConfig};
use pdac_core::tree::Tree;
use pdac_core::unionfind::DisjointSets;
use pdac_core::Collective;
use pdac_hwtopo::{cluster, machines, BindingPolicy, DistanceMatrix, Machine};
use pdac_mpisim::p2p::P2pConfig;
use pdac_mpisim::Communicator;
use pdac_simnet::{bw_bcast, SimConfig, SimExecutor};

use crate::human_size;

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

/// `pdac ablation` — the design choices DESIGN.md calls out:
///
/// 1. **Edge ordering** — Algorithm 1's root-first rank-ordered queue vs a
///    plain lexicographic Kruskal: same MST weight, different depth and
///    root fan-out (the paper's "minimum depth among minimum weight
///    spanning trees" claim, quantified).
/// 2. **Pipeline chunk size** — broadcast bandwidth vs chunk size on IG
///    (`SchedConfig::uniform`: one `ChunkPolicy` size for every class).
/// 3. **Eager/rendezvous threshold** — the SM/KNEM 4 KB switch in the
///    baseline p2p stack.
///
/// Where the §V-B distance-collapsing rule should engage is Figure 8's
/// question: `pdac fig8` sweeps both Zoot topologies from 2 KB to 8 MB.
pub fn ablation() {
    edge_order_ablation();
    pipeline_chunk_ablation();
    eager_threshold_ablation();
}

fn edge_order_ablation() {
    println!("# Ablation 1: Algorithm 1 edge order vs plain lexicographic Kruskal\n");
    let [case, ranks, a1, plain, eq] = ["case", "ranks", "depth(A1)", "depth(plain)", "weight =="];
    println!("{case:<26} {ranks:>6} {a1:>12} {plain:>12} {eq:>12}");
    for (machine, seed) in
        [(machines::ig(), 3), (machines::zoot(), 4), (machines::synthetic(2, 4, 8, true), 5)]
    {
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
    let topo = AdaptiveColl.bcast_topology_choice(&comm, bytes);
    let tree = AdaptiveColl.bcast_tree(&comm, 0, topo);
    let dist = comm.distances_arc();
    println!("{:>10} {:>14}", "chunk", "BW (MB/s)");
    for chunk in [0usize, 32 << 10, 64 << 10, 128 << 10, 512 << 10, 2 << 20] {
        let s = bcast_schedule_dist(&tree, bytes, &SchedConfig::uniform(chunk), Some(&dist));
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

fn eager_threshold_ablation() {
    println!("# Ablation 3: eager/rendezvous threshold in the baseline p2p (IG bcast, 48 ranks)\n");
    let ig = Arc::new(machines::ig());
    let binding = BindingPolicy::Contiguous.bind(&ig, 48).unwrap();
    println!("{:>12} {:>12} {:>12} {:>12}", "msg", "eager=1K", "eager=4K", "eager=16K");
    for bytes in [512usize, 2 << 10, 8 << 10, 32 << 10] {
        let mut row = format!("{:>12}", human_size(bytes));
        for eager in [1 << 10, 4 << 10, 16 << 10] {
            let s = tuned::bcast(48, 0, bytes, &P2pConfig { eager_max: eager });
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

/// `pdac scaling` (§V-B discussion): wall time of Algorithm 1's full
/// build, which queues all `n(n-1)/2` pairs, from one IG node (48 ranks) to
/// 64 of them (3 072 ranks). Each size prints the median of five builds
/// after one untimed build, so the first call's cold caches do not count.
///
/// "This overhead of sorting up to thousands of edges is minimal in
/// intra-node cases. However, on a large scale system, it's difficult for
/// these greedy algorithms to scale well with fully-connected graphs."
pub fn scaling() {
    println!("{:>6} {:>12} {:>6} {:>12}", "ranks", "pairs", "depth", "build time");
    for nodes in [1usize, 2, 4, 8, 16, 32, 64] {
        let machine = if nodes == 1 {
            machines::ig()
        } else {
            cluster::homogeneous("scale", &machines::ig(), nodes, (nodes / 4).max(1))
                .expect("cluster builds")
        };
        let n = machine.num_cores();
        let binding = BindingPolicy::Random { seed: 42 }.bind(&machine, n).unwrap();
        let dist = DistanceMatrix::for_binding(&machine, &binding);

        let tree = build_bcast_tree(&dist, 0);
        let mut times = [Duration::ZERO; 5];
        for time in &mut times {
            let t0 = Instant::now();
            std::hint::black_box(build_bcast_tree(&dist, 0));
            *time = t0.elapsed();
        }
        times.sort_unstable();

        println!("{:>6} {:>12} {:>6} {:>12.2?}", n, n * (n - 1) / 2, tree.depth(), times[2]);
    }
}

/// `pdac tune` — the component rules a sweep picks for `machine`.
///
/// Mirrors how Open MPI's *tuned* thresholds were produced: sweep every
/// component (sm / tuned / knemcoll) over the message sizes, pick the
/// fastest per size bin under the *worst-case* placement (the framework's
/// whole point is robustness to placement), and print the winners
/// compressed into size rules. The planner does not read them: its
/// thresholds are the constants in `pdac_core::adaptive`, and this is the
/// sweep to compare them against.
pub fn tune(machine: Machine) {
    let machine = Arc::new(machine);
    let n = machine.num_cores();
    let sizes: Vec<usize> = (9..=23).map(|p| 1usize << p).collect();
    let placements = [BindingPolicy::Contiguous, BindingPolicy::CrossSocket];
    let p2p = &P2pConfig::default();
    let coll = AdaptiveColl;

    let build = |collective, component, c: &Communicator, s| match (collective, component) {
        (Collective::Bcast, Component::Sm) => sm::bcast(c.size(), 0, s),
        (Collective::Bcast, Component::Tuned) => tuned::bcast(c.size(), 0, s, p2p),
        (Collective::Bcast, Component::KnemColl) => coll.bcast(c, 0, s),
        (Collective::Allgather, Component::Sm) => sm::allgather(c.size(), s),
        (Collective::Allgather, Component::Tuned) => tuned::allgather(c.size(), s, p2p),
        (Collective::Allgather, Component::KnemColl) => coll.allgather(c, s),
        (other, _) => unreachable!("{other:?} has no sm/tuned component to tune against"),
    };
    // Worst-case (over placements) time of one component at one size.
    let worst = |collective, component, size: usize| {
        placements
            .iter()
            .map(|p| {
                let binding = p.bind(&machine, n).expect("binding fits");
                let comm = Communicator::world(Arc::clone(&machine), binding.clone());
                SimExecutor::new(&machine, &binding, SimConfig { allow_cache: false })
                    .run(&build(collective, component, &comm, size))
                    .expect("schedule validates")
                    .total_time
            })
            .fold(0.0f64, f64::max)
    };

    // `(collective, inclusive max bytes, winner)`; the last rule of each
    // collective is a catch-all.
    let mut rules: Vec<(Collective, usize, Component)> = Vec::new();
    for collective in [Collective::Bcast, Collective::Allgather] {
        let label = format!("{collective:?}");
        println!("# {label} on {} ({} ranks), worst-case placement, time in us", machine.name, n);
        println!("{:>10} {:>12} {:>12} {:>12}  {:>9}", "size", "sm", "tuned", "knemcoll", "winner");
        let mut winners: Vec<(usize, Component)> = Vec::new();
        for &size in &sizes {
            // Above 256K the sm component's 8K-fragment schedules explode in
            // op count (and it has long lost by then); disqualify it instead
            // of simulating millions of bounce copies.
            let time = |component| match component {
                Component::Sm if size > 256 << 10 => f64::INFINITY,
                _ => worst(collective, component, size),
            };
            let candidates =
                [Component::Sm, Component::Tuned, Component::KnemColl].map(|c| (c, time(c)));
            let &(winner, _) =
                candidates.iter().min_by(|a, b| a.1.total_cmp(&b.1)).expect("three candidates");
            winners.push((size, winner));
            println!(
                "{:>10} {:>12.1} {:>12.1} {:>12.1}  {:>9}",
                human_size(size),
                candidates[0].1 * 1e6,
                candidates[1].1 * 1e6,
                candidates[2].1 * 1e6,
                format!("{winner:?}"),
            );
        }
        // Compress consecutive same-winner bins into rules.
        let runs: Vec<_> = winners.chunk_by(|a, b| a.1 == b.1).collect();
        for (k, run) in runs.iter().enumerate() {
            let max_bytes = if k + 1 == runs.len() { usize::MAX } else { run[run.len() - 1].0 };
            rules.push((collective, max_bytes, run[0].1));
        }
        println!();
    }

    println!("rules:");
    for (collective, max_bytes, component) in rules {
        let bound = if max_bytes == usize::MAX {
            "..".to_string()
        } else {
            format!("<= {}", human_size(max_bytes))
        };
        println!("  {collective:?} {bound:>10} -> {component:?}");
    }
}
