//! What a plan on a cached topology allocates. A schedule is three flat
//! vectors (ops, dependencies, buffer sizes), the ring emitters and the
//! broadcast reserve the first two exactly, `finish` fills the buffer table
//! in one exact-size allocation, and the emitters reuse their per-step
//! vectors, so compiling one costs a fixed number of vectors and nothing
//! per buffer or per step: at most [`MAX_ALLOCATIONS`] at 48 ranks and at
//! 192 alike, where a vector per step would add 191 and a tree node per
//! buffer dozens. Lowering reads that table in place and allocates only
//! its own indexes.
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
use pdac_simnet::{BufId, ScheduleBuilder};

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

/// The one bound, the same at every communicator size.
const MAX_ALLOCATIONS: usize = 32;

/// Lowering a copy-free schedule: one block per index vector (slots, the
/// per-slot access lists, two CSRs, written, class), and no table copy.
const LOWERING_BLOCKS: usize = 8;

/// What `f` returns and the heap blocks this thread asked for while it ran.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    ARMED.with(|armed| armed.set(true));
    let out = f();
    ARMED.with(|armed| armed.set(false));
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
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
                allocations <= MAX_ALLOCATIONS,
                "{ranks}-rank {:?}: {allocations} allocations for {} ops",
                request.collective,
                schedule.ops.len()
            );
        }
    }

    // Planning never checks a schedule, so lowering is measured alone, on
    // a 192-rank notification ring with no per-buffer access list.
    let mut b = ScheduleBuilder::new("notify ring", 192);
    let mut last = None;
    for rank in 0..192 {
        b.ensure_buf(rank, BufId::Send, 64);
        b.ensure_buf(rank, BufId::Recv, 64);
        last = Some(b.notify(rank, (rank + 1) % 192, last.as_slice()));
    }
    let ring = b.finish();
    let (lowered, allocations) = allocations_of(|| ring.lower(None));
    lowered.unwrap();
    assert!(
        allocations <= LOWERING_BLOCKS,
        "lowering {} buffers took {allocations} allocations",
        ring.bufs().len()
    );
}
