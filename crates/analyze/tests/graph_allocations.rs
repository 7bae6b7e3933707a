//! What building the op graph of a simulated run allocates. The graph is
//! one dense table read straight from the schedule and the report: a few
//! whole-graph vectors (records, dependency offsets and ids, the op-id and
//! program-order tables, the sort keys), however many ops the run has. A
//! label, a dependency vector or a hash-map entry per op would cost tens of
//! thousands of allocations on this run.
//!
//! One `#[test]` only: the counter is armed per thread, but a second test
//! would still share the allocator's fast path for no benefit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pdac_analyze::OpGraph;
use pdac_core::AdaptiveColl;
use pdac_hwtopo::{cluster, machines, BindingPolicy};
use pdac_mpisim::Communicator;
use pdac_simnet::trace::sim_events_with_distances;
use pdac_simnet::{SimConfig, SimExecutor};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if ARMED.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller already upholds; counting touches only an
// atomic and a const-initialised thread-local `Cell` (no allocation, no
// destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the graph of any simulated run may make, whatever its size.
const TABLES: usize = 32;

#[test]
fn a_simulated_graph_allocates_a_fixed_number_of_tables() {
    let ig = machines::ig();
    let ig_x4 = Arc::new(cluster::homogeneous("ig-x4", &ig, 4, 2).unwrap());
    let binding = BindingPolicy::Contiguous.bind(&ig_x4, 192).unwrap();
    let comm = Communicator::world(Arc::clone(&ig_x4), binding);
    let schedule = AdaptiveColl.allgather(&comm, 16 << 10);
    let report =
        SimExecutor::new(&ig_x4, comm.binding(), SimConfig::default()).run(&schedule).unwrap();
    let distances = comm.distances();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    ARMED.with(|armed| armed.set(true));
    let graph =
        OpGraph::from_events(&sim_events_with_distances(&schedule, &report, Some(&distances)));
    ARMED.with(|armed| armed.set(false));
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let ops = schedule.ops.len();
    assert_eq!(graph.len(), ops);
    assert!(allocations <= TABLES, "{allocations} allocations for {ops} ops");
}
