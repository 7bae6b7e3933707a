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

const BUNDLED: &str = r#"<?xml version="1.0" encoding="UTF-8"?>
<topology version="2.0">
 <object type="Machine">
  <object type="Package" os_index="0">
   <object type="NUMANode" os_index="0" local_memory="68719476736"/>
   <object type="L3Cache" cache_size="33554432" depth="3">
    <object type="Core" os_index="0"><object type="PU" os_index="0"/></object>
    <object type="Core" os_index="1"><object type="PU" os_index="1"/></object>
    <object type="Core" os_index="2"><object type="PU" os_index="2"/></object>
    <object type="Core" os_index="3"><object type="PU" os_index="3"/></object>
   </object>
   <object type="L3Cache" cache_size="33554432" depth="3">
    <object type="Core" os_index="4"><object type="PU" os_index="4"/></object>
    <object type="Core" os_index="5"><object type="PU" os_index="5"/></object>
    <object type="Core" os_index="6"><object type="PU" os_index="6"/></object>
    <object type="Core" os_index="7"><object type="PU" os_index="7"/></object>
   </object>
  </object>
  <object type="Package" os_index="1">
   <object type="NUMANode" os_index="1" local_memory="68719476736"/>
   <object type="L3Cache" cache_size="33554432" depth="3">
    <object type="Core" os_index="8"><object type="PU" os_index="8"/></object>
    <object type="Core" os_index="9"><object type="PU" os_index="9"/></object>
    <object type="Core" os_index="10"><object type="PU" os_index="10"/></object>
    <object type="Core" os_index="11"><object type="PU" os_index="11"/></object>
   </object>
   <object type="L3Cache" cache_size="33554432" depth="3">
    <object type="Core" os_index="12"><object type="PU" os_index="12"/></object>
    <object type="Core" os_index="13"><object type="PU" os_index="13"/></object>
    <object type="Core" os_index="14"><object type="PU" os_index="14"/></object>
    <object type="Core" os_index="15"><object type="PU" os_index="15"/></object>
   </object>
  </object>
 </object>
</topology>"#;

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
