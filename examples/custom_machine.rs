//! Custom machine: the framework on hardware the paper never saw.
//!
//! Defines a 3-board, 12-NUMA, 72-core machine as a declarative spec,
//! round-trips it through JSON (how a deployment would ship machine
//! descriptions), and shows the adaptive framework building sensible
//! topologies for a sub-communicator with a hostile placement.
//!
//! Run with: `cargo run --example custom_machine`

use std::sync::Arc;

use pdac::collectives::adaptive::AdaptiveColl;
use pdac::collectives::metrics;
use pdac::collectives::{verify, Collective, Request};
use pdac::hwtopo::{BindingPolicy, CacheSpec, MachineSpec, PackageSpec};
use pdac::mpisim::Communicator;

fn spec() -> MachineSpec {
    let socket = |s: usize| PackageSpec {
        board: s / 4,
        numa: s,
        cores_per_die: vec![6],
        die_numa: None,
        caches: vec![CacheSpec { level: 3, size_bytes: 16 << 20, cores: (0..6).collect() }],
        numa_memory_bytes: 32 << 30,
    };
    MachineSpec {
        name: "triple-board-72".into(),
        sockets: (0..12).map(socket).collect(),
        os_order: None,
    }
}

fn main() {
    // Ship the description as JSON, as a launcher integration would.
    let json = serde_json::to_string_pretty(&spec()).expect("spec serializes");
    println!("machine description is {} bytes of JSON", json.len());
    let spec: MachineSpec = serde_json::from_str(&json).expect("spec deserializes");
    let machine = Arc::new(spec.build().expect("spec is valid"));
    println!(
        "built {}: {} cores / {} NUMA nodes / {} boards",
        machine.name,
        machine.num_cores(),
        machine.num_numa,
        machine.num_boards
    );

    // A 30-rank job bound randomly across the machine, then split into an
    // application sub-communicator with a permuted rank order.
    let binding = BindingPolicy::Random { seed: 7 }.bind(&machine, 30).expect("binding fits");
    let world = Communicator::world(Arc::clone(&machine), binding);
    let sub = world.subset(&[29, 3, 17, 11, 23, 5, 8, 26, 14, 20, 2, 19]);
    println!(
        "\nsub-communicator of {} ranks, distance classes {:?}",
        sub.size(),
        sub.distances().classes()
    );

    let coll = AdaptiveColl;
    let tree = coll.bcast_tree(&sub, 0, pdac::collectives::adaptive::BcastTopology::Hierarchical);
    println!("\ndistance-aware broadcast tree:");
    print!("{}", tree.render());

    let bytes = 256 << 10;
    let bcast = coll.bcast(&sub, 0, bytes);
    verify::run(Request::new(Collective::Bcast, 0, bytes), &bcast).expect("broadcast is correct");
    let stress = metrics::link_stress(&bcast, &sub.distances());
    println!("broadcast link stress by distance class: {stress:?}");

    let allgather = coll.allgather(&sub, 64 << 10);
    let request = Request::new(Collective::Allgather, 0, 64 << 10);
    verify::run(request, &allgather).expect("allgather is correct");
    let ring = coll.allgather_ring(&sub);
    let order: Vec<String> = ring.order().iter().map(|r| format!("P{r}")).collect();
    println!("allgather ring: {}", order.join(" -> "));
    println!("\nBoth collectives verified byte-for-byte on the custom machine.");
}
