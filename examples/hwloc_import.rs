//! hwloc import: drive the framework from a real machine description.
//!
//! Pass the path to an `lstopo --of xml` dump to use your own machine:
//!
//! ```bash
//! lstopo --of xml > my-machine.xml
//! cargo run --example hwloc_import -- my-machine.xml
//! ```
//!
//! Without an argument, a bundled dual-socket EPYC-style XML is parsed.

use std::sync::Arc;

use pdac::collectives::adaptive::AdaptiveColl;
use pdac::collectives::{verify, Collective, Request};
use pdac::hwtopo::{hwloc_xml, render, BindingPolicy};
use pdac::mpisim::Communicator;

const BUNDLED: &str = include_str!("../crates/hwtopo/tests/fixtures/epyc_bundled.xml");

fn main() {
    let machine = match std::env::args().nth(1) {
        Some(path) => {
            println!("parsing {path} ...");
            hwloc_xml::parse_hwloc_file(&path).expect("hwloc XML parses")
        }
        None => {
            println!("no file given; using the bundled dual-socket example");
            hwloc_xml::parse_hwloc_xml(BUNDLED).expect("bundled XML parses")
        }
    };

    println!("\n{}", render::render_machine(&machine));
    println!(
        "{} cores / {} sockets / {} NUMA nodes / {} boards",
        machine.num_cores(),
        machine.num_sockets,
        machine.num_numa,
        machine.num_boards
    );

    let machine = Arc::new(machine);
    let n = machine.num_cores();
    let binding = BindingPolicy::CrossSocket.bind(&machine, n).expect("binding fits");
    let comm = Communicator::world(Arc::clone(&machine), binding);
    println!("\ndistance classes (cross-socket placement): {:?}", comm.distances().classes());

    let coll = AdaptiveColl;
    let bytes = 64 << 10;
    let s = coll.bcast(&comm, 0, bytes);
    let request = Request::new(Collective::Bcast, 0, bytes);
    verify::run(request, &s).expect("broadcast correct on imported machine");
    println!("distance-aware broadcast on the imported topology: verified byte-for-byte");
    let ring = coll.allgather_ring(&comm);
    let order: Vec<String> = ring.order().iter().map(|r| format!("P{r}")).collect();
    println!("allgather ring: {}", order.join(" -> "));
}
