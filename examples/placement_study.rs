//! Placement study: the scenario motivating the paper's introduction.
//!
//! An application's launcher has bound processes to cores to optimize its
//! *point-to-point* pattern (pairs of communicating ranks placed together,
//! as MPIPP / TreeMatch would). The application then calls collectives on
//! communicators whose rank order has nothing to do with that placement.
//! This example measures what each collective implementation delivers under
//! four placements, for broadcast and allgather, and prints a stability
//! summary.
//!
//! Run with: `cargo run --release --example placement_study`

use std::sync::Arc;

use pdac::collectives::adaptive::AdaptiveColl;
use pdac::collectives::baseline::tuned;
use pdac::hwtopo::{machines, BindingPolicy};
use pdac::mpisim::p2p::P2pConfig;
use pdac::mpisim::Communicator;
use pdac::simnet::{bw_allgather, bw_bcast, SimConfig, SimExecutor};

fn policies() -> Vec<BindingPolicy> {
    vec![
        BindingPolicy::Contiguous,
        BindingPolicy::CrossSocket,
        BindingPolicy::Random { seed: 1 },
        // A "pair placement": even/odd rank pairs bound together, the rest
        // scattered — what a p2p-optimizing placement tool might produce.
        BindingPolicy::User((0..48).map(|r| (r / 2) + 24 * (r % 2)).collect()),
    ]
}

fn main() {
    let machine = Arc::new(machines::ig());
    let coll = AdaptiveColl;
    let p2p = P2pConfig::default();
    let bytes = 1 << 20;

    println!("IG, 48 ranks, 1MB payloads; aggregate bandwidth in MB/s\n");
    println!(
        "{:<14}  {:>14} {:>14}  {:>16} {:>16}",
        "placement", "tuned bcast", "KNEM bcast", "tuned allgather", "KNEM allgather"
    );

    let mut mins = [f64::INFINITY; 4];
    let mut maxs = [0.0f64; 4];
    for policy in policies() {
        let binding = policy.bind(&machine, 48).expect("binding fits");
        let comm = Communicator::world(Arc::clone(&machine), binding.clone());
        let sim = SimExecutor::new(&machine, &binding, SimConfig { allow_cache: false });

        let bws = [
            bw_bcast(48, bytes, sim.run(&tuned::bcast(48, 0, bytes, &p2p)).unwrap().total_time),
            bw_bcast(48, bytes, sim.run(&coll.bcast(&comm, 0, bytes)).unwrap().total_time),
            bw_allgather(
                48,
                bytes,
                sim.run(&tuned::allgather(48, bytes, &p2p)).unwrap().total_time,
            ),
            bw_allgather(48, bytes, sim.run(&coll.allgather(&comm, bytes)).unwrap().total_time),
        ];
        for (i, bw) in bws.iter().enumerate() {
            mins[i] = mins[i].min(*bw);
            maxs[i] = maxs[i].max(*bw);
        }
        println!(
            "{:<14}  {:>14.0} {:>14.0}  {:>16.0} {:>16.0}",
            policy.label(),
            bws[0],
            bws[1],
            bws[2],
            bws[3]
        );
    }

    println!("\nstability (min/max across placements):");
    for (i, name) in
        ["tuned bcast", "KNEM bcast", "tuned allgather", "KNEM allgather"].iter().enumerate()
    {
        println!("  {:<16} {:>5.1}%", name, 100.0 * mins[i] / maxs[i]);
    }
    println!("\nThe distance-aware component rebuilds its topology from the runtime");
    println!("distance matrix, so the launcher's placement decision stops mattering.");
}
