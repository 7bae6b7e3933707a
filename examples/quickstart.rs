//! Quickstart: build a machine, bind ranks, construct distance-aware
//! collectives, execute them both ways (timing simulator + real threads)
//! and print what happened.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use pdac::collectives::adaptive::AdaptiveColl;
use pdac::collectives::{verify, Collective, Request};
use pdac::hwtopo::{machines, BindingPolicy};
use pdac::mpisim::{Communicator, ThreadExecutor};
use pdac::simnet::{bw_bcast, SimConfig, SimExecutor};

fn main() {
    // 1. A machine: the paper's 48-core, 8-NUMA, two-board "IG".
    let machine = Arc::new(machines::ig());
    println!("machine: {} ({} cores, {} NUMA nodes, {} boards)",
        machine.name, machine.num_cores(), machine.num_numa, machine.num_boards);

    // 2. A placement: the adversarial cross-socket binding from the paper's
    //    evaluation — consecutive ranks never share a socket.
    let binding = BindingPolicy::CrossSocket.bind(&machine, 48).expect("binding fits");
    let comm = Communicator::world(Arc::clone(&machine), binding.clone());

    // 3. The distance-aware collective component.
    let coll = AdaptiveColl::default();
    let bytes = 1 << 20;
    let schedule = coll.bcast(&comm, 0, bytes);
    println!("\nbroadcast schedule `{}`: {} ops, {} copies",
        schedule.name, schedule.ops.len(), schedule.num_copies());

    // 4a. Timing: discrete-event simulation with memory-system contention.
    let report = SimExecutor::new(&machine, &binding, SimConfig::default())
        .run(&schedule)
        .expect("schedule validates");
    println!("simulated 1MB broadcast: {:.1} us -> {:.0} MB/s aggregate",
        report.total_time * 1e6, bw_bcast(48, bytes, report.total_time));
    println!("bytes over the inter-board link: {:.0} (one traversal of the slowest link)",
        report.board_link_bytes());

    // 4b. Correctness: the same schedule moves real bytes between real
    //     buffers, one resumable cursor per rank.
    let result = ThreadExecutor::new()
        .run(&schedule, verify::pattern)
        .expect("thread execution succeeds");
    println!("thread execution: {} KNEM single-copies, {} bytes moved through the kernel",
        result.knem_stats.copies, result.knem_stats.bytes_copied);
    let request = Request::new(Collective::Bcast, 0, bytes);
    verify::check(request, 48, &result).expect("every rank got the root's bytes");
    println!("oracle: every rank holds the root's payload  [OK]");

    // 5. The punchline: the distance-aware topology does not care about the
    //    placement — the contiguous binding builds an isomorphic tree.
    let contiguous = BindingPolicy::Contiguous.bind(&machine, 48).expect("binding fits");
    let comm2 = Communicator::world(Arc::clone(&machine), contiguous.clone());
    let schedule2 = coll.bcast(&comm2, 0, bytes);
    let report2 = SimExecutor::new(&machine, &contiguous, SimConfig::default())
        .run(&schedule2)
        .expect("schedule validates");
    println!("\ncontiguous binding:   {:.0} MB/s", bw_bcast(48, bytes, report2.total_time));
    println!("cross-socket binding: {:.0} MB/s", bw_bcast(48, bytes, report.total_time));
    println!("(a rank-order binomial tree would have lost ~half of its bandwidth here)");
}
