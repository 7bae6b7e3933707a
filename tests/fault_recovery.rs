//! Tier-1 chaos suite: collectives under seeded fault injection.
//!
//! Exercises the fault subsystem end to end — a stalled rank, a dropped
//! completion notification, a crashed non-root rank — and asserts the
//! tentpole guarantee: every collective either completes correctly on the
//! survivors or returns a typed [`CollectiveError`] quoting the seed,
//! never a hang. Every test body runs under its own watchdog on top of
//! the harness-internal one, so even a broken harness cannot hang CI.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use pdac::collectives::adaptive::AdaptiveColl;
use pdac::collectives::metrics::fault_summary_line;
use pdac::collectives::verify;
use pdac::collectives::{
    run_chaos, ChaosConfig, Collective, CollectiveError, HangBound, RecoveryManager, Request,
    TopoCache,
};
use pdac::hwtopo::{machines, BindingPolicy};
use pdac::mpisim::{Communicator, ExecError, RetryPolicy, ThreadExecutor};
use pdac::simnet::FaultPlan;

/// Wraps a test body in a watchdog thread: if the body neither returns nor
/// panics within `budget`, the test fails with a message naming the seed
/// instead of hanging the whole suite.
fn watchdog<F>(name: &str, seed: u64, budget: Duration, body: F)
where
    F: FnOnce() + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(budget) {
        Ok(()) => handle.join().expect("test body panicked"),
        Err(_) => panic!("{name} hung past the {budget:?} watchdog (fault seed {seed})"),
    }
}

fn world(n: usize) -> Communicator {
    let m = Arc::new(machines::flat_smp(n));
    let binding = BindingPolicy::Contiguous.bind(&m, n).unwrap();
    Communicator::world(m, binding)
}

/// A stalled rank is a benign fault: the collective still completes and
/// every byte verifies — the stall only shows up in the accounting.
#[test]
fn stalled_rank_still_completes_bcast() {
    watchdog("stalled_rank_still_completes_bcast", 0, Duration::from_secs(30), || {
        let comm = world(6);
        let bytes = 30_000;
        let schedule = AdaptiveColl::default().bcast(&comm, 0, bytes);
        let plan = FaultPlan::new(0).stall_rank(2, Duration::from_micros(200));
        let res = ThreadExecutor::new()
            .with_faults(plan)
            .run(&schedule, verify::pattern)
            .expect("a stall must not fail the collective");
        assert_eq!(res.fault_stats.ranks_stalled, 1);
        assert_eq!(res.fault_stats.ranks_crashed, 0);
        verify::check(Request::new(Collective::Bcast, 0, bytes), 6, &res).unwrap();
    });
}

/// A dropped completion notification strands its dependents; the bounded
/// wait converts that into a typed timeout quoting the seed, and a clean
/// retry of the same schedule completes.
#[test]
fn dropped_notification_is_typed_timeout_then_heals() {
    watchdog("dropped_notification_is_typed_timeout_then_heals", 41, Duration::from_secs(30), || {
        let comm = world(6);
        let bytes = 10_000;
        let schedule = AdaptiveColl::default().bcast(&comm, 0, bytes);
        let plan = FaultPlan::new(41).drop_notify(0);
        let err = ThreadExecutor::new()
            .with_policy(RetryPolicy::chaos())
            .with_faults(plan)
            .run(&schedule, verify::pattern)
            .expect_err("the stranded dependent must time out");
        match &err {
            ExecError::Timeout { seed, .. } => assert_eq!(*seed, Some(41)),
            other => panic!("expected a typed timeout, got {other}"),
        }
        assert!(err.to_string().contains("fault seed 41"), "replay seed in message: {err}");
        // The fault was transient (nothing is actually dead): the same
        // schedule completes on a clean retry.
        verify::run(Request::new(Collective::Bcast, 0, bytes), &schedule).unwrap();
    });
}

/// A crashed non-root rank is detected by timeout, the communicator
/// shrinks, the topology is rebuilt under a fresh epoch, and the collective
/// completes correctly on the survivors.
#[test]
fn crashed_rank_recovery_completes_on_survivors() {
    watchdog("crashed_rank_recovery_completes_on_survivors", 7, Duration::from_secs(60), || {
        let comm = world(6);
        let bytes = 20_000;
        let coll = AdaptiveColl::default();
        let schedule = coll.bcast(&comm, 0, bytes);
        // Rank 3 dies before executing anything.
        let plan = FaultPlan::new(7).crash_rank(3, 0);
        let first = ThreadExecutor::new()
            .with_policy(RetryPolicy::chaos())
            .with_faults(plan)
            .run(&schedule, verify::pattern);
        let crashed_detected = match &first {
            Err(ExecError::Timeout { .. }) => true,
            Ok(res) => res.fault_stats.ranks_crashed > 0,
            Err(other) => panic!("unexpected failure mode: {other}"),
        };
        assert!(crashed_detected, "the crash must be observable, not silent");

        // Recovery: shrink to the survivors, rebuild, run clean, verify.
        let cache = Arc::new(TopoCache::new());
        let mut mgr = RecoveryManager::new(coll, Arc::clone(&cache), comm.clone());
        let _ = mgr.plan(Request::new(Collective::Bcast, 0, bytes)); // warm the doomed epoch
        mgr.mark_failed(3).unwrap();
        assert_eq!(mgr.survivors(), &[0, 1, 2, 4, 5]);
        assert!(cache.stats().invalidations >= 1, "dead epoch purged from the cache");
        let rebuilt = mgr.plan(Request::new(Collective::Bcast, 0, bytes));
        assert_eq!(rebuilt.num_ranks, 5, "rebuilt tree spans exactly the survivors");
        verify::run(Request::new(Collective::Bcast, mgr.elect_root(0), bytes), &rebuilt).unwrap();
        assert_eq!(mgr.stats().topology_rebuilds, 1);
    });
}

/// The full harness on one known-lethal seed: recovery runs, the survivors
/// verify, the runtime record carries the injected crash and the rebuild,
/// and the `SimReport` carries the simulator's own degraded link — each
/// fact in the record of the leg that owns it.
#[test]
fn chaos_harness_records_fault_stats_in_sim_report() {
    watchdog("chaos_harness_records_fault_stats_in_sim_report", 0, Duration::from_secs(60), || {
        let comm = world(6);
        let cfg = ChaosConfig::new(0);
        let out = run_chaos(
            &comm,
            AdaptiveColl::default(),
            Request::new(Collective::Bcast, 0, 20_000),
            &cfg,
        )
        .unwrap_or_else(|e| panic!("seed {}: {e}", cfg.seed));
        assert!(out.recovered, "seed 0 crashes a non-root rank on flat_smp(6)");
        assert_eq!(out.failed_ranks.len(), 1);
        assert_ne!(out.failed_ranks[0], 0, "the root is never the victim");
        let fs = &out.sim_report.fault_stats;
        assert!(out.stats.ranks_crashed >= 1, "injected crash recorded");
        assert!(out.stats.topology_rebuilds >= 1, "rebuild recorded");
        assert!(fs.links_degraded >= 1, "sim-leg degraded link recorded");
        assert_eq!(out.stats.links_degraded, 0, "the runtime degrades no link");
        assert!(out.stats.total_injected() + fs.total_injected() >= 2);
        let line = fault_summary_line(&out.stats);
        assert!(line.contains("topology rebuilds"), "summary line: {line}");
    });
}

/// Same seed, same outcome — bit-exact, including the survivor timing.
#[test]
fn chaos_outcome_is_deterministic_per_seed() {
    watchdog("chaos_outcome_is_deterministic_per_seed", 13, Duration::from_secs(60), || {
        let comm = world(6);
        let run = || {
            run_chaos(
                &comm,
                AdaptiveColl::default(),
                Request::new(Collective::Allreduce, 0, 4096),
                &ChaosConfig::new(13),
            )
            .unwrap_or_else(|e| panic!("seed 13: {e}"))
        };
        let a = run();
        let b = run();
        assert_eq!(a.failed_ranks, b.failed_ranks);
        assert_eq!(a.recovered, b.recovered);
        assert_eq!(a.sim_report.total_time.to_bits(), b.sim_report.total_time.to_bits());
    });
}

/// Failure messages carry the seed so any chaos run can be replayed.
#[test]
fn collective_errors_quote_the_fault_seed() {
    // A hang names the bound that ran out: one attempt's watchdog, or the
    // loop's attempt budget.
    let hang = CollectiveError::Hang {
        seed: Some(42),
        bound: HangBound::Watchdog(Duration::from_secs(9)),
    };
    assert_eq!(hang.to_string(), "collective hung past the 9s watchdog (fault seed 42)");
    let livelock = CollectiveError::Hang { seed: Some(42), bound: HangBound::Attempts(10) };
    assert_eq!(
        livelock.to_string(),
        "collective hung: 10 attempts ran out without completing (fault seed 42)"
    );
    let verify = CollectiveError::Verify { seed: Some(7), detail: "rank 1: byte 0".into() };
    assert!(verify.to_string().contains("fault seed 7"), "{verify}");
    // Exhausting every rank is typed, not a panic or a hang.
    let mut mgr = RecoveryManager::new(
        AdaptiveColl::default(),
        Arc::new(TopoCache::new()),
        world(2),
    );
    mgr.mark_failed(1).unwrap();
    assert!(matches!(mgr.mark_failed(0), Err(CollectiveError::AllRanksFailed { .. })));
}

/// The acceptance criterion: 100 seeded chaos runs across all three
/// collectives, zero hangs. Every run either completes correctly on the
/// survivors or returns a typed error; the sweep must also actually
/// exercise recovery (some seeds crash a rank) and retries.
#[test]
fn chaos_sweep_100_seeds_never_hangs() {
    watchdog("chaos_sweep_100_seeds_never_hangs", 0, Duration::from_secs(240), || {
        let comm = world(6);
        let coll = AdaptiveColl::default();
        let mut recovered = 0u32;
        let mut rebuilds = 0u64;
        let mut injected = 0u64;
        for seed in 0..100u64 {
            let what = match seed % 3 {
                0 => Request::new(Collective::Bcast, 0, 12_000),
                1 => Request::new(Collective::Allgather, 0, 1024),
                _ => Request::new(Collective::Allreduce, 0, 4096),
            };
            match run_chaos(&comm, coll.clone(), what, &ChaosConfig::new(seed)) {
                Ok(out) => {
                    if out.recovered {
                        recovered += 1;
                        assert!(
                            out.stats.topology_rebuilds >= 1,
                            "seed {seed}: recovery without a recorded rebuild"
                        );
                    }
                    rebuilds += out.stats.topology_rebuilds;
                    injected += out.stats.total_injected();
                }
                Err(CollectiveError::Hang { .. }) => {
                    panic!("seed {seed}: hang — the one outcome the subsystem forbids")
                }
                // Any other typed error is an acceptable chaos outcome: the
                // run failed fast, loudly, and replayably.
                Err(e) => {
                    assert!(
                        e.to_string().contains(&format!("fault seed {seed}"))
                            || matches!(e, CollectiveError::UnknownRank { .. }
                                | CollectiveError::AllRanksFailed { .. }),
                        "seed {seed}: error does not quote its seed: {e}"
                    );
                }
            }
        }
        assert!(recovered >= 10, "only {recovered}/100 seeds exercised recovery");
        assert!(rebuilds >= u64::from(recovered));
        assert!(injected > 0, "the sweep injected nothing");
    });
}

/// Membership-agreement sweep: 100 cascading fault plans through the full
/// detector → agreement → fence pipeline. Every rank removal must be
/// detector-confirmed (no omniscient path), every non-degraded recovery
/// must carry at least one agreement round, and nothing may hang.
#[test]
fn membership_sweep_100_cascade_seeds_agrees_through_detection() {
    let name = "membership_sweep_100_cascade_seeds_agrees_through_detection";
    watchdog(name, 0, Duration::from_secs(240), || {
        let comm = world(7);
        let coll = AdaptiveColl::default();
        let mut agreement_rounds = 0u64;
        let mut confirmed = 0u64;
        let mut degraded = 0u64;
        let mut fenced = 0u64;
        for seed in 0..100u64 {
            // Tighter per-op deadline keeps the sweep fast; allgather gives
            // every rank n-1 ops so the cascade's mid-collective crash
            // budgets actually fire.
            let mut cfg = ChaosConfig::cascade(seed);
            cfg.policy.op_deadline = Some(Duration::from_millis(50));
            match run_chaos(&comm, coll.clone(), Request::new(Collective::Allgather, 0, 1024), &cfg)
            {
                Ok(out) => {
                    assert_eq!(
                        out.failed_ranks.len() as u64,
                        out.stats.ranks_confirmed_dead,
                        "seed {seed}: a rank was removed without detector confirmation"
                    );
                    if out.recovered && !out.degraded {
                        assert!(
                            out.stats.agreement_rounds >= 1,
                            "seed {seed}: recovery without a survivor vote"
                        );
                    }
                    agreement_rounds += out.stats.agreement_rounds;
                    confirmed += out.stats.ranks_confirmed_dead;
                    degraded += out.stats.degraded_runs;
                    fenced += out.stats.fenced_messages;
                }
                Err(CollectiveError::Hang { .. }) => {
                    panic!("seed {seed}: hang — the one outcome the subsystem forbids")
                }
                Err(e) => {
                    assert!(
                        e.to_string().contains(&format!("fault seed {seed}")),
                        "seed {seed}: error does not quote its seed: {e}"
                    );
                }
            }
        }
        // The sweep must genuinely exercise the pipeline, not vacuously
        // pass on fault plans that never fire.
        assert!(confirmed >= 40, "only {confirmed} detector-confirmed deaths across 100 seeds");
        assert!(agreement_rounds >= 40, "only {agreement_rounds} agreement rounds ran");
        // Degradations and fencings are seed-dependent; just keep the
        // counters visible so a regression to zero-everything is loud.
        let _ = (degraded, fenced);
    });
}
