//! Gradient allreduce: the data-parallel training step, end-to-end.
//!
//! Every rank computes a local gradient; an allreduce sums them so all
//! replicas step identically — the collective at the heart of data-parallel
//! HPC and ML workloads, and exactly the "Reduce and Allreduce" extension
//! the paper's §VI announces. Runs on the typed session API (real threads,
//! real f64 arithmetic), then uses the simulator to show why the
//! distance-aware ring beats the tree once gradients get large.
//!
//! Run with: `cargo run --release --example gradient_allreduce`

use std::sync::Arc;

use pdac::collectives::allgather_ring::Ring;
use pdac::collectives::bcast_tree::build_bcast_tree;
use pdac::collectives::reduce_scatter::ring_allreduce_schedule_with_op;
use pdac::collectives::sched::{allreduce_schedule_with_op, SchedConfig};
use pdac::hwtopo::{machines, BindingPolicy};
use pdac::mpi::{ReduceOp, Session};
use pdac::mpisim::Communicator;
use pdac::simnet::{DataOp, SimConfig, SimExecutor};

fn main() {
    let machine = Arc::new(machines::ig());
    let ranks = 48;
    let session = Session::new(Arc::clone(&machine), BindingPolicy::CrossSocket, ranks)
        .expect("session builds");

    // 1. The numerics: a 16k-parameter model, one gradient per rank.
    let params = 16 * 1024;
    let grads: Vec<Vec<f64>> = (0..ranks)
        .map(|r| (0..params).map(|i| ((r * params + i) % 1000) as f64 * 1e-3).collect())
        .collect();
    let summed = session.allreduce(&grads, ReduceOp::Sum).expect("allreduce");
    let averaged: Vec<f64> = summed[0].iter().map(|g| g / ranks as f64).collect();
    // Spot-check against a serial reduction.
    let serial: f64 = (0..ranks).map(|r| grads[r][7]).sum::<f64>() / ranks as f64;
    assert!((averaged[7] - serial).abs() < 1e-12);
    println!("48-rank gradient allreduce of {params} f64 verified against serial reduction");
    println!(
        "(all ranks hold identical averaged gradients; kernel copies: {})",
        session.last_knem_stats().copies
    );

    // 2. The performance story: tree vs bandwidth-optimal ring, simulated.
    let binding = BindingPolicy::CrossSocket.bind(&machine, ranks).expect("binding fits");
    let comm = Communicator::world(Arc::clone(&machine), binding.clone());
    let exec = SimExecutor::new(&machine, &binding, SimConfig { allow_cache: false });
    println!("\n{:>12} {:>14} {:>14} {:>8}", "gradient", "tree (ms)", "ring (ms)", "ring vs tree");
    for bytes in [48 << 10, 384 << 10, 3 << 20, 24 << 20] {
        let tree = build_bcast_tree(&comm.distances(), 0);
        let t_tree = exec
            .run(&allreduce_schedule_with_op(&tree, bytes, &SchedConfig::default(), DataOp::Add))
            .expect("tree schedule")
            .total_time;
        let ring = Ring::build(&comm.distances());
        let t_ring = exec
            .run(&ring_allreduce_schedule_with_op(&ring, bytes / ranks, DataOp::Add))
            .expect("ring schedule")
            .total_time;
        println!(
            "{:>12} {:>14.2} {:>14.2} {:>7.1}x",
            format!("{}K", bytes >> 10),
            t_tree * 1e3,
            t_ring * 1e3,
            t_tree / t_ring
        );
    }
    println!("\nThe session picks the ring automatically above 256K (divisible payloads).");
}
