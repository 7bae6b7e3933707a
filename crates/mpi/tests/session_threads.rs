//! A session owns its executor's helper threads: as many as the cores it
//! may use, less the calling thread — created by its first collective,
//! parked between calls, gone when it is dropped.
//!
//! This file holds one test on purpose — it reads the *process* thread
//! count, and libtest runs the tests of one binary on threads of their own.

use std::sync::Arc;

use pdac_hwtopo::{machines, BindingPolicy};
use pdac_mpi::{ReduceOp, Session};

/// `Threads:` of `/proc/self/status`.
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status.lines().find(|l| l.starts_with("Threads:")).expect("a Threads: line");
    line["Threads:".len()..].trim().parse().expect("a thread count")
}

#[test]
fn two_hundred_collectives_spawn_once_and_drop_joins() {
    if !std::path::Path::new("/proc/self/status").exists() {
        return; // Not Linux: nothing to read the count from.
    }
    const N: usize = 12;
    let before = process_threads();
    let session = Session::new(Arc::new(machines::ig()), BindingPolicy::CrossSocket, N).unwrap();
    assert_eq!(process_threads(), before, "a session spawns nothing until it is used");

    session.barrier().unwrap();
    let parked = process_threads();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(
        parked,
        before + N.min(cores) - 1,
        "the caller plus one parked helper per further core"
    );

    for i in 0..200usize {
        let root = i % N;
        match i % 10 {
            0 => {
                // Small enough for the `tuned` component.
                let mut bufs: Vec<Vec<u32>> = (0..N).map(|r| vec![r as u32; 64]).collect();
                session.bcast(&mut bufs, root).unwrap();
                assert!(bufs.iter().all(|b| b == &vec![root as u32; 64]));
            }
            1 => {
                // Large enough for the distance-aware component.
                let mut bufs: Vec<Vec<u64>> = (0..N).map(|r| vec![r as u64; 8192]).collect();
                session.bcast(&mut bufs, root).unwrap();
                assert!(bufs.iter().all(|b| b == &vec![root as u64; 8192]));
            }
            2 => {
                let contribs: Vec<Vec<f64>> = (0..N).map(|r| vec![r as f64; 100]).collect();
                let sums = session.allreduce(&contribs, ReduceOp::Sum).unwrap();
                assert!(sums.iter().all(|v| v == &vec![66.0; 100]));
            }
            3 => {
                let contribs: Vec<Vec<i64>> = (0..N).map(|r| vec![r as i64; 10]).collect();
                assert_eq!(session.reduce(&contribs, ReduceOp::Sum, root).unwrap(), vec![66; 10]);
            }
            4 => {
                let contribs: Vec<Vec<u32>> = (0..N).map(|r| vec![r as u32; 600]).collect();
                let all = session.allgather(&contribs).unwrap();
                let expect: Vec<u32> = (0..N).flat_map(|r| vec![r as u32; 600]).collect();
                assert!(all.iter().all(|g| g == &expect));
            }
            // Only the root executes a gather or a scatter: the caller
            // steps it alone and every helper stays parked.
            5 => {
                let contribs: Vec<Vec<u32>> = (0..N).map(|r| vec![r as u32; 5]).collect();
                let expect: Vec<u32> = (0..N).flat_map(|r| vec![r as u32; 5]).collect();
                assert_eq!(session.gather(&contribs, root).unwrap(), expect);
            }
            6 => {
                let data: Vec<u32> = (0..N as u32 * 3).collect();
                let blocks = session.scatter(&data, root).unwrap();
                assert!(blocks.iter().enumerate().all(|(r, b)| b[..] == data[r * 3..r * 3 + 3]));
            }
            7 => {
                let bufs: Vec<Vec<u32>> =
                    (0..N).map(|src| (0..N).map(|dst| (src * N + dst) as u32).collect()).collect();
                let got = session.alltoall(&bufs).unwrap();
                assert!((0..N).all(|dst| (0..N).all(|src| got[dst][src] == (src * N + dst) as u32)));
            }
            8 => {
                let contribs: Vec<Vec<i64>> = (0..N).map(|r| vec![r as i64; 2 * N]).collect();
                let blocks = session.reduce_scatter(&contribs, ReduceOp::Sum).unwrap();
                assert!(blocks.iter().all(|b| b == &vec![66; 2]));
            }
            _ => session.barrier().unwrap(),
        }
        assert_eq!(process_threads(), parked, "call {i} changed the thread count");
    }

    drop(session);
    // `join` returns when a thread has signalled its exit, a moment before
    // the kernel drops it from the process's task list: allow for that.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while process_threads() != before && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(process_threads(), before, "dropping the session joined its helper threads");
}
