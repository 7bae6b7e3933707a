//! Properties of the lock-free completion path.
//!
//! 1. The MPSC ring under concurrent producers: nothing lost, nothing
//!    duplicated, each producer's completions drain in the order it pushed
//!    them (per-producer FIFO — the global interleave is unspecified).
//! 2. The executor with the condvar bypassed on the success path still
//!    detects faults: a dropped notification surfaces as a typed timeout
//!    and a crashed rank is confirmed by the failure detector.
//! 3. A healthy, no-deadline run never parks on the condvar.
//! 4. A ring sized for exactly the pushes it will receive — how the executor
//!    sizes a rank's ring, by its inbound subscription count — never
//!    reports full, even if its owner drains nothing until the end.
//!
//! The stress case repeats the concurrent-producer check
//! `PDAC_STRESS_ITERS` times (default 50) so CI can crank the iteration
//! count far past what a laptop run needs.

use std::sync::Arc;
use std::time::Duration;

use pdac_mpisim::detector::{FailureDetector, RankState};
use pdac_mpisim::fault::{ExecFaultPlan, RetryPolicy};
use pdac_mpisim::{CompletionRing, ExecError, ThreadExecutor};
use pdac_simnet::{BufId, Mech, ScheduleBuilder};
use proptest::prelude::*;

/// Runs `producers` threads, each pushing `per_producer` tagged values,
/// against one draining consumer; returns the consumed sequence.
fn producers_vs_consumer(producers: usize, per_producer: usize, capacity: usize) -> Vec<usize> {
    let ring = Arc::new(CompletionRing::with_capacity(capacity));
    let total = producers * per_producer;
    let mut seen = Vec::with_capacity(total);
    crossbeam::thread::scope(|scope| {
        for p in 0..producers {
            let ring = Arc::clone(&ring);
            scope.spawn(move |_| {
                for i in 0..per_producer {
                    // Tag: producer id in the high digits, sequence low.
                    while !ring.push(p * 1_000_000 + i) {
                        std::thread::yield_now();
                    }
                }
            });
        }
        while seen.len() < total {
            match ring.pop() {
                Some(v) => seen.push(v),
                None => std::thread::yield_now(),
            }
        }
    })
    .unwrap();
    seen
}

fn check_mpsc_invariants(producers: usize, per_producer: usize, seen: &[usize]) {
    assert_eq!(seen.len(), producers * per_producer, "nothing lost");
    let mut sorted = seen.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), seen.len(), "nothing duplicated");
    // Per-producer FIFO: each producer's values appear in push order.
    for p in 0..producers {
        let seqs: Vec<usize> = seen
            .iter()
            .filter(|&&v| v / 1_000_000 == p)
            .map(|&v| v % 1_000_000)
            .collect();
        let expect: Vec<usize> = (0..per_producer).collect();
        assert_eq!(seqs, expect, "producer {p} reordered");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mpsc_ring_loses_nothing_under_contention(
        producers in 1usize..=6,
        per_producer in 1usize..=150,
        // Capacity may be far smaller than the total: producers then spin
        // on a full ring, exercising the head-recycling path.
        cap_shift in 0u32..=3,
    ) {
        let capacity = ((producers * per_producer) >> cap_shift).max(2);
        let seen = producers_vs_consumer(producers, per_producer, capacity);
        check_mpsc_invariants(producers, per_producer, &seen);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ring_sized_to_its_pushes_never_reports_full(
        producers in 1usize..=6,
        per_producer in 1usize..=40,
    ) {
        // Exactly as many slots as pushes (the constructor only rounds up
        // to a power of two) and a consumer that sleeps through all of them.
        let total = producers * per_producer;
        let ring = CompletionRing::with_capacity(total);
        prop_assert!(ring.capacity() < 2 * total.max(2), "rounding, not head-room");
        std::thread::scope(|scope| {
            for p in 0..producers {
                let ring = &ring;
                scope.spawn(move || {
                    for i in 0..per_producer {
                        assert!(ring.push(p * 1_000_000 + i), "push {i} of producer {p} found the ring full");
                    }
                });
            }
        });
        prop_assert_eq!(ring.len(), total);
        let mut seen = Vec::with_capacity(total);
        ring.drain_into(&mut |v| seen.push(v));
        check_mpsc_invariants(producers, per_producer, &seen);
    }
}

#[test]
fn mpsc_ring_stress() {
    let iters: usize = std::env::var("PDAC_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50);
    for i in 0..iters {
        let producers = 2 + i % 5;
        let per = 64 + (i * 13) % 128;
        let seen = producers_vs_consumer(producers, per, (producers * per / 4).max(2));
        check_mpsc_invariants(producers, per, &seen);
    }
}

fn pattern(rank: usize, size: usize) -> Vec<u8> {
    (0..size)
        .map(|i| (rank as u8).wrapping_mul(31).wrapping_add(i as u8))
        .collect()
}

/// A 4-rank relay with cross-rank notifies — every dependency crosses
/// ranks, so completion rides the rings, not program order.
fn relay_schedule() -> pdac_simnet::Schedule {
    let mut b = ScheduleBuilder::new("relay", 4);
    let mut prev = b.copy(
        (0, BufId::Send, 0),
        (1, BufId::Recv, 0),
        4096,
        Mech::Knem,
        1,
        vec![],
    );
    for r in 2..4 {
        let n = b.notify(r - 1, r, vec![prev]);
        prev = b.copy(
            (r - 1, BufId::Recv, 0),
            (r, BufId::Recv, 0),
            4096,
            Mech::Knem,
            r,
            vec![n],
        );
    }
    b.finish()
}

#[test]
fn healthy_run_never_parks() {
    let res = ThreadExecutor::new()
        .run(&relay_schedule(), pattern)
        .unwrap();
    for r in 1..4 {
        assert_eq!(
            res.buffer(r, BufId::Recv),
            &pattern(0, 4096)[..],
            "rank {r}"
        );
    }
    assert_eq!(
        res.wait_stats.parked, 0,
        "no deadline armed, so the condvar path must stay cold: {:?}",
        res.wait_stats
    );
}

#[test]
fn dropped_notify_is_detected_without_condvar() {
    // Drop the first notification: rank 2's wait can never be satisfied;
    // the bounded-park path must still surface the typed timeout.
    let policy = RetryPolicy {
        op_deadline: Some(Duration::from_millis(50)),
        ..RetryPolicy::chaos()
    };
    let err = ThreadExecutor::new()
        .with_policy(policy)
        .with_faults(ExecFaultPlan::new(7).drop_notify(0))
        .run(&relay_schedule(), pattern)
        .unwrap_err();
    match err {
        ExecError::Timeout {
            rank,
            waited,
            deadline,
            ..
        } => {
            // Rank 2 starves on the dropped notify; rank 3 starves behind
            // it. Whichever thread's error is recorded first wins.
            assert!(
                rank == 2 || rank == 3,
                "a starved dependent times out, got rank {rank}"
            );
            assert!(waited >= deadline, "the full deadline elapsed");
        }
        other => panic!("expected Timeout, got {other}"),
    }
}

#[test]
fn crash_is_confirmed_by_detector_without_condvar() {
    let det = Arc::new(FailureDetector::with_suspect_after(
        4,
        Duration::from_millis(5),
    ));
    let err = ThreadExecutor::new()
        .with_policy(RetryPolicy {
            op_deadline: Some(Duration::from_millis(50)),
            ..RetryPolicy::chaos()
        })
        .with_faults(ExecFaultPlan::new(11).crash_rank(1, 0))
        .with_detector(Arc::clone(&det))
        .run(&relay_schedule(), pattern)
        .unwrap_err();
    assert!(matches!(err, ExecError::Timeout { .. }), "got {err}");
    assert_eq!(
        det.state(1),
        RankState::Confirmed,
        "join audit confirmed the crash"
    );
    assert_eq!(det.counters().ranks_confirmed_dead, 1);
}

#[test]
fn ring_traffic_flows_on_cross_rank_deps() {
    // A fan-out from rank 0 to 7 dependents: every dependent's wait is
    // satisfied through its completion ring (or the done-flag fast path);
    // the drained + fast counters account for all cross-rank waits.
    let mut b = ScheduleBuilder::new("fan", 8);
    let root = b.copy(
        (0, BufId::Send, 0),
        (0, BufId::Recv, 0),
        1024,
        Mech::Memcpy,
        0,
        vec![],
    );
    for r in 1..8 {
        b.copy(
            (0, BufId::Recv, 0),
            (r, BufId::Recv, 0),
            1024,
            Mech::Knem,
            r,
            vec![root],
        );
    }
    let res = ThreadExecutor::new().run(&b.finish(), pattern).unwrap();
    for r in 1..8 {
        assert_eq!(
            res.buffer(r, BufId::Recv),
            &pattern(0, 1024)[..],
            "rank {r}"
        );
    }
    assert_eq!(res.wait_stats.parked, 0);
}
