//! Persistent worker threads — the executor's rank threads.
//!
//! A [`Workers`] set owns one named OS thread per slot. A thread is created
//! the first time a run needs its slot, parks in a blocking channel receive
//! between runs, and is joined when the set is dropped. A run hands each
//! active slot one owned job and returns once every one of those jobs has
//! returned; concurrent callers take turns.
//!
//! No crate here uses `unsafe`, so a worker cannot run a closure borrowing
//! the caller's stack: jobs are owned values (`J: 'static`) and the work
//! function consumes them, which releases whatever a job shares with the
//! caller *before* its outcome is reported — the caller can then take
//! sole ownership of the shared state back.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::JoinHandle;

use parking_lot::Mutex;

/// `(slot, what the job returned or the payload it panicked with)`.
type Outcome<R> = (usize, std::thread::Result<R>);

/// A set of parked worker threads running `work` over owned jobs.
pub(crate) struct Workers<J, R> {
    work: fn(J) -> R,
    /// Held for a whole run (dispatch + collect): runs serialize.
    set: Mutex<Set<J, R>>,
}

struct Set<J, R> {
    /// Job channel and join handle of the worker in slot `i`.
    threads: Vec<(Sender<J>, JoinHandle<()>)>,
    done_tx: Sender<Outcome<R>>,
    done_rx: Receiver<Outcome<R>>,
}

impl<J: Send + 'static, R: Send + 'static> Workers<J, R> {
    /// An empty set; threads are created by the first run.
    pub fn new(work: fn(J) -> R) -> Self {
        let (done_tx, done_rx) = mpsc::channel();
        Workers {
            work,
            set: Mutex::new(Set {
                threads: Vec::new(),
                done_tx,
                done_rx,
            }),
        }
    }

    /// Runs each `(slot, job)` on the worker of that slot (`slot < width`,
    /// at most one job per slot), growing the set to `width` threads first.
    /// Returns `(slot, output)` in completion order, and only after every
    /// job has returned; if a job panicked, the first payload to arrive is
    /// re-raised here instead.
    pub fn run_all(
        &self,
        width: usize,
        jobs: impl IntoIterator<Item = (usize, J)>,
    ) -> Vec<(usize, R)> {
        let mut set = self.set.lock();
        while set.threads.len() < width {
            let slot = set.threads.len();
            let (job_tx, job_rx) = mpsc::channel();
            let (done, work) = (set.done_tx.clone(), self.work);
            let handle = std::thread::Builder::new()
                .name(format!("pdac-rank-{slot}"))
                .spawn(move || worker(slot, job_rx, done, work))
                .expect("the OS refused a rank thread");
            set.threads.push((job_tx, handle));
        }
        let mut sent = 0;
        for (slot, job) in jobs {
            set.threads[slot]
                .0
                .send(job)
                .expect("workers only exit when the set is dropped");
            sent += 1;
        }
        // Every outcome of this run is received before anything can unwind
        // out of here, so a later run never sees a stale one.
        let mut outputs = Vec::with_capacity(sent);
        let mut panicked = None;
        for _ in 0..sent {
            let (slot, outcome) = set.done_rx.recv().expect("the set holds a sender itself");
            match outcome {
                Ok(output) => outputs.push((slot, output)),
                Err(payload) => {
                    panicked.get_or_insert(payload);
                }
            }
        }
        drop(set);
        if let Some(payload) = panicked {
            panic::resume_unwind(payload);
        }
        outputs
    }
}

impl<J, R> Workers<J, R> {
    /// Threads currently alive in the set.
    pub fn threads(&self) -> usize {
        self.set.lock().threads.len()
    }
}

fn worker<J, R>(slot: usize, jobs: Receiver<J>, done: Sender<Outcome<R>>, work: fn(J) -> R) {
    // `recv` parks the thread between runs and fails once the set drops
    // this worker's sender — the signal to exit.
    while let Ok(job) = jobs.recv() {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| work(job)));
        if done.send((slot, outcome)).is_err() {
            break;
        }
    }
}

impl<J, R> Drop for Set<J, R> {
    fn drop(&mut self) {
        // Hang up on every worker first so they all wake at once, then join.
        let handles: Vec<JoinHandle<()>> = self
            .threads
            .drain(..)
            .map(|(job_tx, handle)| {
                drop(job_tx);
                handle
            })
            .collect();
        for handle in handles {
            // A worker catches its jobs' panics, so it has none of its own
            // to report; `Drop` must not panic either way.
            let _ = handle.join();
        }
    }
}

impl<J, R> std::fmt::Debug for Workers<J, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workers")
            .field("threads", &self.threads())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    fn double(x: u64) -> u64 {
        if x == u64::MAX {
            panic!("unlucky job");
        }
        x * 2
    }

    #[test]
    fn threads_are_created_once_and_reused() {
        let workers = Workers::new(double);
        assert_eq!(workers.threads(), 0, "nothing is spawned before a run");
        for round in 0..50u64 {
            let mut out = workers.run_all(4, (0..4).map(|s| (s, round + s as u64)));
            out.sort_unstable();
            let expect: Vec<(usize, u64)> = (0..4).map(|s| (s, 2 * (round + s as u64))).collect();
            assert_eq!(out, expect);
            assert_eq!(workers.threads(), 4);
        }
        // Only the addressed slots run; the set still grows to `width`.
        assert_eq!(workers.run_all(6, [(5, 21)]), vec![(5, 42)]);
        assert_eq!(workers.threads(), 6);
    }

    #[test]
    fn a_panicking_job_is_re_raised_after_the_others_returned() {
        let workers = Workers::new(double);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            workers.run_all(3, [(0, 1), (1, u64::MAX), (2, 3)]);
        }))
        .expect_err("the job's panic reaches the caller");
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"unlucky job"));
        // The worker survived its job's panic and no outcome was left over.
        let mut out = workers.run_all(3, [(0, 1), (1, 2), (2, 3)]);
        out.sort_unstable();
        assert_eq!(out, vec![(0, 2), (1, 4), (2, 6)]);
        assert_eq!(workers.threads(), 3);
    }

    /// Each job of a run meets the other at a barrier: that only passes if
    /// both jobs of one run are in flight together, i.e. runs do not
    /// interleave their jobs on the shared slots.
    fn meet((barrier, x): (Arc<Barrier>, u64)) -> u64 {
        barrier.wait();
        x
    }

    #[test]
    fn concurrent_callers_take_turns() {
        let workers = Workers::new(meet);
        std::thread::scope(|scope| {
            for caller in 0..4u64 {
                let workers = &workers;
                scope.spawn(move || {
                    for round in 0..25 {
                        let barrier = Arc::new(Barrier::new(2));
                        let tag = caller * 100 + round;
                        let jobs = (0..2).map(|s| (s, (Arc::clone(&barrier), tag)));
                        let out = workers.run_all(2, jobs);
                        assert!(out.iter().all(|&(_, x)| x == tag), "{out:?}");
                    }
                });
            }
        });
        assert_eq!(workers.threads(), 2);
    }
}
