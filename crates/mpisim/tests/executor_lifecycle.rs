//! One executor, many runs: the helper threads an executor keeps must be
//! as good as new after a run that failed or panicked, and two callers
//! sharing an executor must not see each other's run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use pdac_mpisim::fault::RetryPolicy;
use pdac_mpisim::{
    ExecError, KnemStats, ThreadExecutor, Transport, TransportError, TransportKind, TxToken,
};
use pdac_simnet::{BufId, FaultPlan, Mech, Rank, Schedule, ScheduleBuilder};

fn pattern(rank: usize, size: usize) -> Vec<u8> {
    (0..size).map(|i| (rank as u8).wrapping_mul(29).wrapping_add(i as u8)).collect()
}

/// An 8-rank relay with cross-rank notifies and a memcpy tail per rank:
/// every rank executes, every dependency but the tails crosses ranks.
fn relay(bytes: usize) -> Schedule {
    let mut b = ScheduleBuilder::new("relay", 8);
    let mut prev = b.copy((0, BufId::Send, 0), (1, BufId::Recv, 0), bytes, Mech::Knem, 1, &[]);
    b.copy((0, BufId::Send, 0), (0, BufId::Recv, 0), bytes, Mech::Memcpy, 0, &[]);
    for r in 2..8 {
        let n = b.notify(r - 1, r, &[prev]);
        prev = b.copy((r - 1, BufId::Recv, 0), (r, BufId::Recv, 0), bytes, Mech::Knem, r, &[n]);
    }
    b.finish()
}

/// Runs the clean relay on `exec` and checks every byte and every count.
fn assert_clean_run(exec: &ThreadExecutor, bytes: usize, ctx: &str) {
    let res = exec.run(&relay(bytes), pattern).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    for r in 0..8 {
        assert_eq!(res.buffer(r, BufId::Recv), &pattern(0, bytes)[..], "{ctx}: rank {r}");
    }
    assert_eq!(res.knem_stats.copies, 7, "{ctx}: this run's pulls only");
    assert_eq!(res.integrity_stats.stamped, 8, "{ctx}");
    assert_eq!(res.integrity_stats.verified, 8, "{ctx}");
    assert_eq!(res.fault_stats.timeouts + res.fault_stats.retries, 0, "{ctx}");
}

/// The executor's settings are per executor, so "the same executor, now
/// healthy" is the failed one rebuilt through its builders — which keep the
/// helper threads the failed run used.
#[test]
fn a_failed_run_leaves_the_workers_clean() {
    let short =
        RetryPolicy { op_deadline: Some(Duration::from_millis(40)), ..RetryPolicy::chaos() };

    // Timeout: rank 3 dies silently, its dependents starve.
    let exec =
        ThreadExecutor::new().with_policy(short).with_faults(FaultPlan::new(3).crash_rank(3, 0));
    let err = exec.run(&relay(512), pattern).unwrap_err();
    assert!(matches!(err, ExecError::Timeout { .. }), "{err}");
    let exec = exec.with_faults(FaultPlan::new(3));
    assert_clean_run(&exec, 512, "after Timeout");

    // Corrupt: rank 2 serves damaged bytes on every attempt.
    let exec = exec.with_faults(FaultPlan::new(5).corrupt_source(2, 0x3c));
    let err = exec.run(&relay(512), pattern).unwrap_err();
    assert!(matches!(err, ExecError::Corrupt { peer: 2, .. }), "{err}");
    let exec = exec.with_faults(FaultPlan::new(5)).with_policy(RetryPolicy::default());
    assert_clean_run(&exec, 512, "after Corrupt");

    // StaleEpoch: the device was fenced past the run's epoch.
    let device = TransportKind::Knem.create(None);
    device.fence_epochs_below(9);
    let exec = ThreadExecutor::with_transport(Arc::clone(&device)).with_epoch(4);
    let err = exec.run(&relay(512), pattern).unwrap_err();
    assert!(matches!(err, ExecError::StaleEpoch { epoch: 4, fence: 9, .. }), "{err}");
    let exec = exec.with_epoch(9);
    assert_clean_run(&exec, 512, "after StaleEpoch");
    assert_clean_run(&exec, 4096, "and again, larger");
    let stats = device.stats();
    assert_eq!(stats.registrations, stats.deregistrations);
}

/// A KNEM transport whose `register` panics for one source rank until
/// disarmed.
#[derive(Debug)]
struct Landmine {
    inner: Arc<dyn Transport>,
    armed: AtomicBool,
}

impl Transport for Landmine {
    fn name(&self) -> &'static str {
        "landmine"
    }
    fn register(
        &self,
        rank: Rank,
        buf: BufId,
        offset: usize,
        len: usize,
        epoch: u64,
    ) -> Result<TxToken, TransportError> {
        if rank == 4 && self.armed.load(Ordering::SeqCst) {
            panic!("landmine under rank {rank}");
        }
        self.inner.register(rank, buf, offset, len, epoch)
    }
    fn tx(
        &self,
        token: TxToken,
        peer: Rank,
        offset: usize,
        len: usize,
    ) -> Result<(Rank, BufId, usize), TransportError> {
        self.inner.tx(token, peer, offset, len)
    }
    fn complete(&self, token: TxToken) -> Result<(), TransportError> {
        self.inner.complete(token)
    }
    fn fence_epochs_below(&self, min_valid_epoch: u64) {
        self.inner.fence_epochs_below(min_valid_epoch);
    }
    fn fenced_messages(&self) -> u64 {
        self.inner.fenced_messages()
    }
    fn stats(&self) -> KnemStats {
        self.inner.stats()
    }
}

#[test]
fn a_rank_panic_reaches_the_caller_and_the_workers_survive_it() {
    let mine = Arc::new(Landmine { inner: TransportKind::Knem.create(None), armed: true.into() });
    let exec = ThreadExecutor::with_transport(Arc::clone(&mine) as Arc<dyn Transport>);
    // No deadline is armed: the cursors behind the panicking one retire
    // through the poisoned run, not by a timeout.
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = exec.run(&relay(256), pattern);
    }))
    .expect_err("the cursor's panic is re-raised on the caller");
    let message = caught.downcast_ref::<String>().expect("a formatted panic message");
    assert_eq!(message, "landmine under rank 4");

    mine.armed.store(false, Ordering::SeqCst);
    for round in 0..3 {
        let res = exec.run(&relay(256), pattern).expect("the same helpers, a clean run");
        for r in 0..8 {
            assert_eq!(res.buffer(r, BufId::Recv), &pattern(0, 256)[..], "round {round} rank {r}");
        }
    }
}

/// Regression: `run` used to snapshot the shared transport's counters
/// before it took the run lock, so a caller that waited for the lock
/// counted the traffic of the run ahead of it as its own.
#[test]
fn concurrent_callers_on_a_shared_transport_report_only_their_own_copies() {
    let mut b = ScheduleBuilder::new("chain", 4);
    let mut prev = Vec::new();
    for r in 1..4 {
        let src = (r - 1, if r == 1 { BufId::Send } else { BufId::Recv }, 0);
        prev = vec![b.copy(src, (r, BufId::Recv, 0), 256, Mech::Knem, r, &prev)];
    }
    let chain = b.finish();
    let device = TransportKind::Knem.create(None);
    let exec = ThreadExecutor::with_transport(Arc::clone(&device));
    let miscounted: usize = std::thread::scope(|scope| {
        let callers: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    (0..200)
                        .map(|_| exec.run(&chain, pattern).unwrap().knem_stats)
                        .filter(|s| (s.copies, s.registrations) != (3, 3))
                        .count()
                })
            })
            .collect();
        callers.into_iter().map(|c| c.join().unwrap()).sum()
    });
    assert_eq!(miscounted, 0, "of 800 runs, {miscounted} reported another run's copies");
    assert_eq!(device.stats().copies, 3 * 800);
}

#[test]
fn two_callers_on_one_executor_take_turns() {
    let exec = ThreadExecutor::new();
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        for caller in 0..2usize {
            let (exec, start) = (&exec, &start);
            scope.spawn(move || {
                // Different payload sizes per caller: a job of one run
                // executing against the other run's state would be caught
                // by the byte check or the per-run counts.
                let bytes = 1024 << caller;
                start.wait();
                for round in 0..40 {
                    assert_clean_run(exec, bytes, &format!("caller {caller} round {round}"));
                }
            });
        }
    });
}
