//! Property-based acceptance tests of the membership layer: over hundreds
//! of random fault plans — including mid-collective and cascading crashes —
//! the communicator shrinks by exactly the detector's confirmed deaths,
//! nothing hangs (every wait in the pipeline is deadline-bounded), and no
//! stale-epoch message is ever *delivered*: the fence rejects it with a
//! typed error and the rejection is accounted in `FaultStats`.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use pdac_core::chaos::{run_chaos, ChaosConfig};
use pdac_core::verify::pattern;
use pdac_core::{Collective, RecoveryManager, Request, TopoCache};
use pdac_hwtopo::{machines, BindingPolicy};
use pdac_mpisim::knem::KnemError;
use pdac_mpisim::{Communicator, FailureDetector, RetryPolicy, ThreadExecutor, TransportKind};
use pdac_simnet::{BufId, FaultPlan};

fn world(n: usize) -> Communicator {
    let m = Arc::new(machines::flat_smp(n));
    let binding = BindingPolicy::Contiguous.bind(&m, n).unwrap();
    Communicator::world(m, binding)
}

proptest! {
    // 100 random fault plans through the full observation pipeline:
    // executor detection → shrink → epoch fence. Runtime is bounded by the
    // executor's per-op deadline, so a completed test run *is* the zero-hang
    // property.
    #![proptest_config(ProptestConfig::with_cases(100))]

    #[test]
    fn random_fault_plans_shrink_without_hangs_or_stale_deliveries(
        seed in any::<u64>(),
        n in 5usize..10,
        cascade in any::<bool>(),
    ) {
        let comm = world(n);
        let cache = Arc::new(TopoCache::new());
        let mut mgr = RecoveryManager::new(cache, comm);
        // Mid-collective cocktail: allgather gives every rank n-1 ops, so
        // cascade budgets (1-3 completed ops) fire in the middle of the
        // ring. The plain cocktail crashes at-start instead.
        let plan = if cascade {
            FaultPlan::seeded_cascade(seed, n, 3, &[0])
        } else {
            FaultPlan::seeded(seed, n, &[0])
        };
        let policy = RetryPolicy {
            op_deadline: Some(Duration::from_millis(25)),
            ..RetryPolicy::chaos()
        };
        let device = TransportKind::Knem.create(None);
        let detector = Arc::new(FailureDetector::with_suspect_after(
            n,
            Duration::from_millis(5),
        ));
        let epoch_before = mgr.epoch();
        let schedule = mgr.plan(Request::new(Collective::Allgather, 0, 512));
        let exec = ThreadExecutor::with_transport(Arc::clone(&device))
            .with_policy(policy)
            .with_faults(plan)
            .with_detector(Arc::clone(&detector))
            .with_epoch(epoch_before);
        // Bounded by op_deadline whatever the plan does — returning at all
        // is the no-hang property.
        let run = exec.run(&schedule, pattern);

        let confirmed = detector.confirmed();
        if confirmed.is_empty() {
            // No deaths observed (budget outran the rank's ops, or the
            // plan was stall-only): the run must have completed.
            prop_assert!(run.is_ok(), "no confirmed death yet run failed: {:?}", run.err());
            return Ok(());
        }

        // Shrink by the observations: the fresh manager's current ranks are
        // world ranks, so the confirmed set is shrunk out as it stands.
        for &r in &confirmed {
            mgr.mark_failed(r).expect("cascade always leaves a survivor");
        }
        let survivors: Vec<usize> = (0..n).filter(|r| !confirmed.contains(r)).collect();
        prop_assert_eq!(mgr.survivors(), &survivors[..], "survivors are the world minus the confirmed");
        prop_assert_eq!(mgr.failed(), &confirmed[..]);
        prop_assert!(mgr.epoch() > epoch_before, "shrink minted a fresh fencing epoch");

        // Epoch fencing: a straggler still stamping the dead epoch is
        // rejected with a typed error — never delivered — and accounted.
        device.fence_epochs_below(mgr.epoch());
        let fenced_before = device.fenced_messages();
        let stale = device.register(0, BufId::Send, 0, 64, epoch_before);
        prop_assert!(
            matches!(stale, Err(KnemError::StaleEpoch { .. })),
            "dead-epoch registration must be fenced, got {:?}",
            stale
        );
        prop_assert_eq!(device.fenced_messages(), fenced_before + 1);
        let current = device.register(0, BufId::Send, 0, 64, mgr.epoch());
        prop_assert!(current.is_ok(), "current-epoch traffic passes the fence");
    }
}

proptest! {
    // End-to-end sanity at the chaos-harness level: a smaller sample of
    // random seeds through run_chaos (payload verification, recovery loop,
    // degraded fallback, watchdog) — typed outcomes only, no hangs.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn chaos_harness_never_hangs_and_never_removes_unobserved_ranks(
        seed in any::<u64>(),
        cascade in any::<bool>(),
    ) {
        let comm = world(6);
        let mut cfg = if cascade { ChaosConfig::cascade(seed) } else { ChaosConfig::new(seed) };
        cfg.policy.op_deadline = Some(Duration::from_millis(50));
        cfg.watchdog = Duration::from_secs(30);
        let out = run_chaos(
            &comm,
            Request::new(Collective::Allgather, 0, 1024),
            &cfg,
        );
        let out = out.unwrap_or_else(|e| panic!("seed {seed} cascade {cascade}: {e}"));
        // Every removal came through the detector — no omniscient path.
        prop_assert_eq!(out.failed_ranks.len() as u64, out.stats.ranks_confirmed_dead);
        prop_assert_eq!(out.stats.topology_rebuilds, out.failed_ranks.len() as u64);
    }
}
