//! Topology tour: the machines behind the paper's figures.
//!
//! Renders the hardware trees (Figure 3's IG, §III's Zoot), the process
//! distance matrices of §IV-A, and the Figure 1 mismatch: an in-order
//! binomial broadcast tree whose critical path crosses the longest physical
//! distance on every hop when processes were placed for a point-to-point
//! pattern — and the distance-aware tree that fixes it.
//!
//! Run with: `cargo run --example topology_tour`

use pdac::collectives::edges::Edge;
use pdac::collectives::{build_bcast_tree, Tree};
use pdac::hwtopo::{core_distance, machines, render, BindingPolicy, DistanceMatrix};

fn main() {
    // --- Figure 3: IG ---
    let ig = machines::ig();
    println!("# IG (paper Figure 3)\n{}", render::render_machine(&ig));
    println!(
        "distance examples (§IV-A): core0-core5 = {}, core0-core12 = {}, core0-core24 = {}",
        core_distance(&ig, 0, 5),
        core_distance(&ig, 0, 12),
        core_distance(&ig, 0, 24)
    );

    // --- Zoot ---
    let zoot = machines::zoot();
    println!("\n# Zoot (§III)\n{}", render::render_machine(&zoot));
    println!(
        "distance examples (§IV-A): core0-core1 = {}, core0-core2 = {}, core0-core4 = {}",
        core_distance(&zoot, 0, 1),
        core_distance(&zoot, 0, 2),
        core_distance(&zoot, 0, 4)
    );

    // --- Figure 1: the mismatch ---
    // Quad-socket dual-core node; the launcher placed communicating pairs
    // (0,1), (2,4), (3,6), (5,7) on shared-cache cores.
    let m = machines::quad_socket_dual_core();
    let pair_placement = BindingPolicy::User(vec![0, 1, 2, 4, 3, 6, 5, 7]);
    let binding = pair_placement.bind(&m, 8).expect("binding fits");
    let dist = DistanceMatrix::for_binding(&m, &binding);

    println!("\n# Figure 1: the mismatch");
    print!("{}", render::render_binding(&m, &binding));

    // The in-order binomial tree the MPI library would build from ranks.
    let binomial_edges: Vec<Edge> =
        [(0usize, 4usize), (0, 2), (4, 6), (0, 1), (2, 3), (4, 5), (6, 7)]
            .iter()
            .map(|&(u, v)| Edge { u, v, w: dist.get(u, v) })
            .collect();
    let binomial = Tree::from_edges(8, 0, &binomial_edges);
    println!("\nin-order binomial tree (rank-built):");
    print!("{}", binomial.render());
    let critical: Vec<u8> = [(0, 4), (4, 6), (6, 7)].iter().map(|&(a, b)| dist.get(a, b)).collect();
    println!("critical path P0->P4->P6->P7 distances: {critical:?}  (every hop crosses sockets)");
    println!("binomial slow-link edges (distance 3): {}", binomial.edges_at_distance(&dist, 3));

    // What the distance-aware construction builds instead.
    let aware = build_bcast_tree(&dist, 0);
    println!("\ndistance-aware tree for the same placement:");
    print!("{}", aware.render());
    println!("distance-aware slow-link edges (distance 3): {}", aware.edges_at_distance(&dist, 3));
    println!("\n(The distance-aware tree pays the socket bus exactly once per foreign");
    println!("socket; the rank-built binomial pays it on every critical-path hop.)");
}
