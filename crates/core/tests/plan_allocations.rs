//! What a plan on a cached topology allocates. A schedule is two flat
//! vectors and the builders keep their scratch across ops, so compiling one
//! costs a handful of vector doublings, not a heap block per op: the
//! counts below sit under one allocation per sixteen ops, where the
//! `Vec`-per-op layout made more than one per op.
//!
//! One `#[test]` only: the counter is armed per thread, but a second test
//! would still share the allocator's fast path for no benefit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pdac_core::{AdaptiveColl, TopoCache};
use pdac_hwtopo::{machines, BindingPolicy};
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
    let ig = Arc::new(machines::ig());
    let binding = BindingPolicy::CrossSocket.bind(&ig, 48).unwrap();
    let comm = Communicator::world(ig, binding);
    let coll = AdaptiveColl;
    let cache = TopoCache::new();
    // Fill the cache (and the communicator's distance matrix): what follows
    // is the steady state of repeated collectives on one communicator.
    coll.allgather_cached(&cache, &comm, 16 << 10);
    coll.bcast_cached(&cache, &comm, 0, 1 << 20);

    let (allgather, allocations) =
        allocations_of(|| coll.allgather_cached(&cache, &comm, 16 << 10));
    assert_eq!(allgather.ops.len(), 4560);
    assert!(
        allocations < allgather.ops.len() / 16,
        "allgather: {allocations} allocations for {} ops",
        allgather.ops.len()
    );

    let (bcast, allocations) = allocations_of(|| coll.bcast_cached(&cache, &comm, 0, 1 << 20));
    assert!(bcast.ops.len() >= 47 * 8 * 2, "{} ops", bcast.ops.len());
    assert!(
        allocations < bcast.ops.len() / 16,
        "bcast: {allocations} allocations for {} ops",
        bcast.ops.len()
    );
}
