//! `Session` lends its callers' vectors to the executor: inputs are read in
//! place, results are written where the caller reads them, and what the
//! executor returns holds none of the lent buffers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pdac_core::{verify, Collective, Request};
use pdac_hwtopo::{machines, BindingPolicy};
use pdac_mpi::{Scalar, Session};
use pdac_mpisim::ThreadExecutor;
use pdac_simnet::BufId;

struct Counting;

/// Bytes the armed thread asked the allocator for.
static BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: usize) {
    if ARMED.with(Cell::get) {
        BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller already upholds; counting touches only an
// atomic and a const-initialised thread-local `Cell` (no allocation, no
// destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn session(n: usize) -> Session {
    Session::new(Arc::new(machines::ig()), BindingPolicy::CrossSocket, n).unwrap()
}

#[test]
fn bcast_writes_into_the_callers_vectors() {
    // 256 KiB per rank: the distance-aware component, pulled over KNEM.
    let (n, len, root) = (12, 32 << 10, 5);
    let s = session(n);
    let mut bufs: Vec<Vec<u64>> = (0..n).map(|r| vec![r as u64; len]).collect();
    s.bcast(&mut bufs, root).unwrap(); // Helpers and the topology cache warm up.
                                       // Each call checks one staging buffer per worker, of the schedule's
                                       // largest copy, out of a pool of its own.
    let schedule = s.plan(Request::new(Collective::Bcast, root, len * u64::WIDTH));
    let workers = std::thread::available_parallelism().map_or(1, |w| w.get()).min(n);
    let staging = workers * schedule.lower(None).unwrap().max_copy();
    for round in 1..3u64 {
        for (r, b) in bufs.iter_mut().enumerate() {
            b.fill(r as u64 * round);
        }
        BYTES.store(0, Ordering::Relaxed);
        ARMED.with(|a| a.set(true));
        s.bcast(&mut bufs, root).unwrap();
        ARMED.with(|a| a.set(false));
        assert!(bufs.iter().all(|b| b.iter().all(|&x| x == root as u64 * round)), "round {round}");
        // Packing the root's payload alone would take `len * 8` bytes, and
        // owned receive buffers eleven times that: beside staging, the
        // call's own allocations are the plan and its indexes.
        let allocated = BYTES.load(Ordering::Relaxed);
        let bound = staging + len * u64::WIDTH / 4;
        assert!(allocated < bound, "round {round}: the call allocated {allocated} B of {bound}");
    }
}

#[test]
fn lent_buffers_are_absent_from_the_result() {
    // The lends `Session::bcast` makes, on the schedule it plans at this
    // size: the root's send buffer read only, every other rank's receive
    // buffer writable.
    let (n, bytes, root) = (12, 256 << 10, 3);
    let s = session(n);
    let schedule = s.plan(Request::new(Collective::Bcast, root, bytes));
    let src = verify::pattern(root, bytes);
    let mut recv: Vec<Vec<u8>> = (0..n).map(|_| vec![0; bytes]).collect();
    let others = recv.iter_mut().enumerate().filter(|&(r, _)| r != root);
    let write = others.map(|(r, b)| ((r, BufId::Recv), &mut b[..]));
    let result = ThreadExecutor::new()
        .run_lent(&schedule, [((root, BufId::Send), &src[..])], write)
        .unwrap();
    for r in (0..n).filter(|&r| r != root) {
        assert_eq!(recv[r], src, "rank {r} received in place");
        assert!(result.buffer(r, BufId::Recv).is_empty(), "rank {r}'s lent buffer came back");
    }
    assert!(result.buffer(root, BufId::Send).is_empty());
    assert!(result.into_buffers().keys().all(|&(r, b)| b != BufId::Recv || r == root));
}

#[test]
fn a_read_lend_of_a_written_buffer_leaves_the_callers_bytes() {
    // A reduction whose tree accumulates in rank buffers: lend every rank's
    // receive buffer read only — the run writes it, so it runs on a copy.
    let (n, bytes) = (6, 4096);
    let s = session(n);
    let schedule = s.plan(Request::new(Collective::Allreduce, 0, bytes));
    let sends: Vec<Vec<u8>> = (0..n).map(|r| verify::pattern(r, bytes)).collect();
    let recvs: Vec<Vec<u8>> = (0..n).map(|r| vec![r as u8; bytes]).collect();
    let read = sends.iter().map(|b| (BufId::Send, b)).chain(recvs.iter().map(|b| (BufId::Recv, b)));
    let read = read.enumerate().map(|(i, (buf, b))| ((i % n, buf), &b[..]));
    let result = ThreadExecutor::new().run_lent(&schedule, read, []).unwrap();
    for (r, lent) in recvs.iter().enumerate() {
        assert_eq!(lent, &vec![r as u8; bytes], "rank {r}'s lent bytes changed");
        assert_eq!(result.buffer(r, BufId::Recv).len(), bytes, "rank {r} ran on a copy");
    }
}
