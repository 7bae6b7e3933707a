//! Properties of the completion path: one `Release` store per finished op,
//! `Acquire` loads on the waiting side, and no worker ever parks.
//!
//! 1. A cursor blocked on a dependency still detects faults: a dropped
//!    notification surfaces as a typed timeout and a crashed rank is
//!    confirmed by the failure detector.
//! 2. A healthy, no-deadline run never parks.
//!
//! The fan-out case repeats `PDAC_STRESS_ITERS` times (default 50) on one
//! kept executor so CI can crank the iteration count far past what a
//! laptop run needs.

use std::sync::Arc;
use std::time::Duration;

use pdac_mpisim::detector::{FailureDetector, RankState};
use pdac_mpisim::fault::RetryPolicy;
use pdac_mpisim::{ExecError, ThreadExecutor};
use pdac_simnet::{BufId, FaultPlan, Mech, ScheduleBuilder};

fn pattern(rank: usize, size: usize) -> Vec<u8> {
    (0..size).map(|i| (rank as u8).wrapping_mul(31).wrapping_add(i as u8)).collect()
}

/// A 4-rank relay with cross-rank notifies — every dependency crosses
/// ranks, so none resolves by program order.
fn relay_schedule() -> pdac_simnet::Schedule {
    let mut b = ScheduleBuilder::new("relay", 4);
    let mut prev = b.copy((0, BufId::Send, 0), (1, BufId::Recv, 0), 4096, Mech::Knem, 1, &[]);
    for r in 2..4 {
        let n = b.notify(r - 1, r, &[prev]);
        prev = b.copy((r - 1, BufId::Recv, 0), (r, BufId::Recv, 0), 4096, Mech::Knem, r, &[n]);
    }
    b.finish()
}

#[test]
fn healthy_run_never_parks() {
    let res = ThreadExecutor::new().run(&relay_schedule(), pattern).unwrap();
    for r in 1..4 {
        assert_eq!(res.buffer(r, BufId::Recv), &pattern(0, 4096)[..], "rank {r}");
    }
    assert_eq!(res.wait_stats.parked, 0, "no worker parks: {:?}", res.wait_stats);
}

#[test]
fn dropped_notify_is_detected_without_parking() {
    // Drop the first notification: rank 2's wait can never be satisfied;
    // its blocked cursor's clock must still surface the typed timeout.
    let policy =
        RetryPolicy { op_deadline: Some(Duration::from_millis(50)), ..RetryPolicy::chaos() };
    let err = ThreadExecutor::new()
        .with_policy(policy)
        .with_faults(FaultPlan::new(7).drop_notify(0))
        .run(&relay_schedule(), pattern)
        .unwrap_err();
    match err {
        ExecError::Timeout { rank, waited, deadline, .. } => {
            // Rank 2 starves on the dropped notify; rank 3 starves behind
            // it. Whichever cursor times out first wins.
            assert!(rank == 2 || rank == 3, "a starved dependent times out, got rank {rank}");
            assert!(waited >= deadline, "the full deadline elapsed");
        }
        other => panic!("expected Timeout, got {other}"),
    }
}

#[test]
fn crash_is_confirmed_by_detector_without_parking() {
    let det = Arc::new(FailureDetector::with_suspect_after(4, Duration::from_millis(5)));
    let err = ThreadExecutor::new()
        .with_policy(RetryPolicy {
            op_deadline: Some(Duration::from_millis(50)),
            ..RetryPolicy::chaos()
        })
        .with_faults(FaultPlan::new(11).crash_rank(1, 0))
        .with_detector(Arc::clone(&det))
        .run(&relay_schedule(), pattern)
        .unwrap_err();
    assert!(matches!(err, ExecError::Timeout { .. }), "got {err}");
    assert_eq!(det.state(1), RankState::Confirmed, "join audit confirmed the crash");
    assert_eq!(det.counters().ranks_confirmed_dead, 1);
}

#[test]
fn fan_out_waits_resolve_without_parking() {
    // A fan-out from rank 0 to 7 dependents: seven cursors load one `done`
    // flag, and every wait lands in exactly one resolution bucket.
    let iters: usize =
        std::env::var("PDAC_STRESS_ITERS").ok().and_then(|v| v.parse().ok()).unwrap_or(50);
    let mut b = ScheduleBuilder::new("fan", 8);
    let root = b.copy((0, BufId::Send, 0), (0, BufId::Recv, 0), 1024, Mech::Memcpy, 0, &[]);
    for r in 1..8 {
        b.copy((0, BufId::Recv, 0), (r, BufId::Recv, 0), 1024, Mech::Knem, r, &[root]);
    }
    let schedule = b.finish();
    let exec = ThreadExecutor::new();
    for i in 0..iters {
        let res = exec.run(&schedule, pattern).unwrap();
        for r in 1..8 {
            assert_eq!(
                res.buffer(r, BufId::Recv),
                &pattern(0, 1024)[..],
                "rank {r}, iteration {i}"
            );
        }
        let w = res.wait_stats;
        assert_eq!(w.fast + w.slow, 7, "iteration {i}: {w:?}");
        assert_eq!(w.parked, 0, "iteration {i}: {w:?}");
    }
}
