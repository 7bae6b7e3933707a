//! What a plan on a cached topology allocates. A schedule is two flat
//! vectors, the ring emitters and the broadcast reserve them exactly, and
//! the emitters reuse their per-step vectors, so compiling one costs a handful
//! of vectors plus its buffer-size table's B-tree nodes: under 128
//! allocations at 48 ranks and at 192, where a vector per step would add
//! 191.
//!
//! One `#[test]` only: the counter is armed per thread, but a second test
//! would still share the allocator's fast path for no benefit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pdac_core::{AdaptiveColl, AllreduceAlgo, Collective, Request, Sinks, TopoCache};
use pdac_hwtopo::{cluster, machines, BindingPolicy};
use pdac_mpisim::Communicator;
use pdac_simnet::Schedule;

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

/// The schedule `plan` returns and the heap blocks this thread asked for
/// while it ran.
fn allocations_of(plan: impl FnOnce() -> Schedule) -> (Schedule, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    ARMED.with(|armed| armed.set(true));
    let schedule = plan();
    ARMED.with(|armed| armed.set(false));
    (schedule, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn a_cached_plan_allocates_per_schedule_not_per_op() {
    let ig = machines::ig();
    let ig_x4 = cluster::homogeneous("ig-x4", &ig, 4, 2).unwrap();
    let coll = AdaptiveColl;
    let cache = TopoCache::new();
    let ring_allreduce = |ranks: usize| Request {
        allreduce: AllreduceAlgo::Ring,
        ..Request::new(Collective::Allreduce, 0, ranks * (4 << 10))
    };
    for machine in [ig, ig_x4] {
        let ranks = machine.num_cores();
        let binding = BindingPolicy::CrossSocket.bind(&machine, ranks).unwrap();
        let comm = Communicator::world(Arc::new(machine), binding);
        for request in [
            Request::new(Collective::Allgather, 0, 16 << 10),
            Request::new(Collective::Alltoall, 0, 4 << 10),
            Request::new(Collective::ReduceScatter, 0, 4 << 10),
            ring_allreduce(ranks),
            Request::new(Collective::Bcast, 0, 1 << 20),
        ] {
            // Fill the cache (and the communicator's distance matrix): what
            // follows is the steady state of repeated collectives on one
            // communicator.
            let plan = || coll.plan(&comm, request, Sinks::cached(&cache));
            plan();
            let (schedule, allocations) = allocations_of(plan);
            assert!(
                allocations < 128,
                "{ranks}-rank {:?}: {allocations} allocations for {} ops",
                request.collective,
                schedule.ops.len()
            );
        }
    }
}
