//! Memory-access balance: the paper's §IV-C analytical model, measured.
//!
//! For the distance-aware allgather on an `N x P` machine the paper derives:
//! `P*P*N` block reads and writes per NUMA node, `links x (P*N - 1)` remote
//! block transfers, `P*N` copies per process, and no controller hot-spot.
//! This example computes those numbers from the actual schedule on IG and
//! contrasts them with the rank-order ring under a cross-socket placement.
//!
//! Run with: `cargo run --example access_balance`

use std::sync::Arc;

use pdac::collectives::adaptive::AdaptiveColl;
use pdac::collectives::baseline::allgather as baseline_allgather;
use pdac::collectives::metrics::{memory_accesses, MemStats};
use pdac::hwtopo::{machines, BindingPolicy};
use pdac::mpisim::{p2p::P2pConfig, Communicator};

fn main() {
    let machine = Arc::new(machines::ig());
    let binding = BindingPolicy::CrossSocket.bind(&machine, 48).expect("binding fits");
    let comm = Communicator::world(Arc::clone(&machine), binding.clone());
    let block = 4096usize;
    let (n, p) = (8u64, 6u64);

    println!("IG: N = {n} NUMA nodes x P = {p} cores, block = {block} bytes");
    println!(
        "paper §IV-C predictions: reads/writes per NUMA = P*P*N = {}, \
              remote transfers = links*(P*N-1) = {}, copies per rank = P*N = {}\n",
        p * p * n,
        n * (p * n - 1),
        p * n
    );

    let coll = AdaptiveColl;
    let aware = coll.allgather(&comm, block);
    let m = memory_accesses(&aware, &machine, &binding);
    println!("distance-aware allgather (cross-socket placement):");
    println!(
        "  block reads per NUMA : {:?}",
        m.reads_per_numa.iter().map(|b| b / block as u64).collect::<Vec<_>>()
    );
    println!(
        "  block writes per NUMA: {:?}",
        m.writes_per_numa.iter().map(|b| b / block as u64).collect::<Vec<_>>()
    );
    println!("  remote block transfers: {}", m.remote_bytes / block as u64);
    println!(
        "  copies per rank: all {} -> {}",
        m.copies_per_rank[0],
        if m.copies_per_rank.iter().all(|&c| c as u64 == p * n) {
            "matches P*N"
        } else {
            "MISMATCH"
        }
    );
    println!(
        "  controller imbalance (max/mean): reads {:.3}, writes {:.3}",
        MemStats::imbalance(&m.reads_per_numa),
        MemStats::imbalance(&m.writes_per_numa)
    );

    let tuned = baseline_allgather::ring(48, block, &P2pConfig::default());
    let t = memory_accesses(&tuned, &machine, &binding);
    println!("\nrank-order ring under the same placement:");
    println!(
        "  remote block transfers: {} ({}x the distance-aware ring)",
        t.remote_bytes / block as u64,
        t.remote_bytes / m.remote_bytes.max(1)
    );
    println!(
        "  controller imbalance (max/mean): reads {:.3}, writes {:.3}",
        MemStats::imbalance(&t.reads_per_numa),
        MemStats::imbalance(&t.writes_per_numa)
    );
    println!("\nEvery byte a rank-order ring moves under this placement is a remote");
    println!("access; the distance-aware ring only crosses controllers at the eight");
    println!("cluster boundaries.");
}
