//! The executor's worker pool: the calling thread plus parked helpers.
//!
//! A [`Workers`] pool owns named helper threads. A run locks the pool,
//! spawns the helpers it does not have yet, hands job `i >= 1` to helper
//! `i`, runs job 0 on the calling thread, and returns once every job has
//! returned. Helpers park in a blocking channel receive between runs
//! and are joined when the pool is dropped; concurrent callers take turns
//! at the lock.
//!
//! A helper does not run a closure borrowing the caller's stack: jobs are
//! owned values (`J: 'static`) and the work function consumes them, which
//! releases whatever a job shares with the caller *before* its outcome is
//! reported — the caller can then take sole ownership of the shared state
//! back. Every helper a run needs exists before its first job is handed
//! out, so a refused spawn unwinds before any job has started; and a job's
//! panic is re-raised on the caller only after every job of the run has
//! returned. Nothing of a run therefore outlives [`Crew::run`], whether it
//! returns or unwinds: the executor's slot arena, which lends the caller's
//! memory to the run, rests on that.

use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// What a job returned, or the payload it panicked with.
type Outcome<R> = std::thread::Result<R>;

/// A pool of parked helper threads running `work` over owned jobs.
pub(crate) struct Workers<J, R> {
    work: fn(J) -> R,
    /// Held for a whole run: runs serialize.
    set: Mutex<Set<J, R>>,
}

struct Set<J, R> {
    /// Job channel and join handle of helper `i + 1`.
    threads: Vec<(Sender<J>, JoinHandle<()>)>,
    done_tx: Sender<Outcome<R>>,
    done_rx: Receiver<Outcome<R>>,
}

/// The pool, locked for one run.
pub(crate) struct Crew<'a, J, R> {
    work: fn(J) -> R,
    set: MutexGuard<'a, Set<J, R>>,
}

impl<J: Send + 'static, R: Send + 'static> Workers<J, R> {
    /// An empty pool; helpers are created by the first run that needs them.
    pub fn new(work: fn(J) -> R) -> Self {
        let (done_tx, done_rx) = mpsc::channel();
        Workers { work, set: Mutex::new(Set { threads: Vec::new(), done_tx, done_rx }) }
    }

    /// Takes the pool for one run; a concurrent caller waits here.
    pub fn lock(&self) -> Crew<'_, J, R> {
        Crew { work: self.work, set: self.set.lock().unwrap_or_else(PoisonError::into_inner) }
    }
}

impl<J: Send + 'static, R: Send + 'static> Crew<'_, J, R> {
    /// Runs `jobs[0]` on the calling thread and `jobs[i]` on helper `i`,
    /// growing the pool to `jobs.len() - 1` helpers first. Returns the
    /// outputs in completion order, and only after every job has returned;
    /// if a job panicked, the first payload is re-raised here instead.
    pub fn run(&mut self, jobs: Vec<J>) -> Vec<R> {
        let set = &mut *self.set;
        // All helpers first: if the OS refuses one, this unwinds while no
        // job of the run has been handed out.
        while set.threads.len() + 1 < jobs.len() {
            let (job_tx, job_rx) = mpsc::channel();
            let (done, work) = (set.done_tx.clone(), self.work);
            let handle = spawn_helper(set.threads.len() + 1, move || helper(job_rx, done, work))
                .expect("the OS refused a worker thread");
            set.threads.push((job_tx, handle));
        }
        let mut jobs = jobs.into_iter();
        let Some(own) = jobs.next() else {
            return Vec::new();
        };
        let mut sent = 0;
        for ((job_tx, _), job) in set.threads.iter().zip(jobs) {
            job_tx.send(job).expect("helpers only exit when the pool is dropped");
            sent += 1;
        }
        let work = self.work;
        let mut outcomes = vec![panic::catch_unwind(AssertUnwindSafe(|| work(own)))];
        // Every outcome of this run is received before anything can unwind
        // out of here, so a later run never sees a stale one.
        for _ in 0..sent {
            outcomes.push(set.done_rx.recv().expect("the pool holds a sender itself"));
        }
        outcomes.into_iter().map(|o| o.unwrap_or_else(|p| panic::resume_unwind(p))).collect()
    }
}

impl<J, R> Workers<J, R> {
    /// Helper threads currently alive in the pool.
    pub fn threads(&self) -> usize {
        self.set.lock().unwrap_or_else(PoisonError::into_inner).threads.len()
    }
}

/// Starts helper `i`'s thread.
fn spawn_helper(i: usize, body: impl FnOnce() + Send + 'static) -> io::Result<JoinHandle<()>> {
    #[cfg(test)]
    if tests::REFUSED_SPAWN.get() == Some(i) {
        return Err(io::Error::other("spawn refused by the test"));
    }
    std::thread::Builder::new().name(format!("pdac-worker-{i}")).spawn(body)
}

fn helper<J, R>(jobs: Receiver<J>, done: Sender<Outcome<R>>, work: fn(J) -> R) {
    // `recv` parks the thread between runs and fails once the pool drops
    // this helper's sender — the signal to exit.
    while let Ok(job) = jobs.recv() {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| work(job)));
        if done.send(outcome).is_err() {
            break;
        }
    }
}

impl<J, R> Drop for Set<J, R> {
    fn drop(&mut self) {
        // Hang up on every helper first so they all wake at once, then join.
        let handles: Vec<JoinHandle<()>> = self
            .threads
            .drain(..)
            .map(|(job_tx, handle)| {
                drop(job_tx);
                handle
            })
            .collect();
        for handle in handles {
            // A helper catches its jobs' panics, so it has none of its own
            // to report; `Drop` must not panic either way.
            let _ = handle.join();
        }
    }
}

impl<J, R> std::fmt::Debug for Workers<J, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workers").field("threads", &self.threads()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier};

    thread_local! {
        /// The helper whose spawn fails, for runs started on this thread.
        pub(super) static REFUSED_SPAWN: Cell<Option<usize>> = const { Cell::new(None) };
    }

    fn double(x: u64) -> u64 {
        if x == u64::MAX {
            panic!("unlucky job");
        }
        x * 2
    }

    fn sorted(mut v: Vec<u64>) -> Vec<u64> {
        v.sort_unstable();
        v
    }

    #[test]
    fn helpers_are_created_once_and_reused() {
        let workers = Workers::new(double);
        assert_eq!(workers.threads(), 0, "nothing is spawned before a run");
        assert_eq!(workers.lock().run(vec![7]), vec![14], "one job runs on the caller");
        assert_eq!(workers.threads(), 0);
        for round in 0..50u64 {
            let out = workers.lock().run((0..4).map(|s| round + s).collect());
            assert_eq!(sorted(out), (0..4).map(|s| 2 * (round + s)).collect::<Vec<_>>());
            assert_eq!(workers.threads(), 3, "the caller is the fourth worker");
        }
        // A narrower run leaves the extra helpers parked.
        assert_eq!(workers.lock().run(vec![20, 21]).len(), 2);
        assert_eq!(workers.threads(), 3);
        assert!(workers.lock().run(Vec::new()).is_empty());
    }

    #[test]
    fn a_panicking_job_is_re_raised_after_the_others_returned() {
        let workers = Workers::new(double);
        for jobs in [vec![1, u64::MAX, 3], vec![u64::MAX, 2, 3]] {
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                workers.lock().run(jobs);
            }))
            .expect_err("the job's panic reaches the caller");
            assert_eq!(caught.downcast_ref::<&str>(), Some(&"unlucky job"));
        }
        // The helpers survived their jobs' panics and no outcome was left over.
        assert_eq!(sorted(workers.lock().run(vec![1, 2, 3])), vec![2, 4, 6]);
        assert_eq!(workers.threads(), 2);
    }

    /// Each job of a run meets the other at a barrier: that only passes if
    /// both jobs of one run are in flight together, i.e. runs do not
    /// interleave their jobs on the shared helpers.
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
                        let jobs = (0..2).map(|_| (Arc::clone(&barrier), tag)).collect();
                        let out = workers.lock().run(jobs);
                        assert!(out.iter().all(|&x| x == tag), "{out:?}");
                    }
                });
            }
        });
        assert_eq!(workers.threads(), 1);
    }

    /// A job that counts itself in when it starts and while it runs.
    fn tally((running, started): (Arc<AtomicUsize>, Arc<AtomicUsize>)) {
        started.fetch_add(1, Ordering::SeqCst);
        running.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(std::time::Duration::from_millis(20));
        running.fetch_sub(1, Ordering::SeqCst);
    }

    #[test]
    fn a_refused_spawn_unwinds_before_any_job_starts() {
        let workers = Workers::new(tally);
        let (running, started) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let jobs = || (0..4).map(|_| (Arc::clone(&running), Arc::clone(&started))).collect();
        // Helper 1 spawns, helper 2 is refused.
        REFUSED_SPAWN.set(Some(2));
        let caught = panic::catch_unwind(AssertUnwindSafe(|| workers.lock().run(jobs())))
            .expect_err("the refused spawn reaches the caller");
        REFUSED_SPAWN.set(None);
        assert!(caught.downcast_ref::<String>().is_some_and(|m| m.contains("refused a worker")));
        assert_eq!(running.load(Ordering::SeqCst), 0, "no job outlives the run");
        // A job handed to the helper that did spawn would start by now.
        std::thread::sleep(std::time::Duration::from_millis(100));
        assert_eq!(started.load(Ordering::SeqCst), 0, "no job was handed out");
        assert_eq!(workers.threads(), 1);
        // The next run grows the pool and sees no outcome of the failed one.
        assert_eq!(workers.lock().run(jobs()).len(), 4);
        assert_eq!(started.load(Ordering::SeqCst), 4);
        assert_eq!(workers.threads(), 3);
    }
}
