//! Property-based acceptance tests of the membership layer: over hundreds
//! of random fault plans — including mid-collective and cascading crashes —
//! every live rank converges on the identical `(epoch, survivor_set)`,
//! nothing hangs (every wait in the pipeline is deadline-bounded), and no
//! stale-epoch message is ever *delivered*: the fence rejects it with a
//! typed error and the rejection is accounted in `FaultStats`.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use pdac_core::adaptive::AdaptiveColl;
use pdac_core::chaos::{run_chaos, ChaosConfig};
use pdac_core::membership::{agree, AgreementError, MembershipConfig};
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
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Pure protocol property: for any world size, dead set, and suspicion
    /// views, a converging episode installs the *identical*
    /// `(epoch, survivor_set)` on every live rank, never resurrects a dead
    /// rank, never loses a live one, and advances the epoch. A
    /// non-converging episode is a typed error, never a wedge.
    #[test]
    fn every_live_rank_installs_the_same_epoch_and_survivors(
        n in 2usize..12,
        base_epoch in 0u64..1_000,
        dead_bits in any::<u16>(),
        suspect_bits in any::<u16>(),
        seed in any::<u64>(),
    ) {
        let dead: BTreeSet<usize> = (0..n).filter(|r| dead_bits & (1 << r) != 0).collect();
        let suspected: BTreeSet<usize> =
            (0..n).filter(|r| suspect_bits & (1 << r) != 0).collect();
        // Detector-fed views: every live rank shares the suspicion set but
        // never suspects itself.
        let views: Vec<BTreeSet<usize>> = (0..n)
            .map(|r| suspected.iter().copied().filter(|&s| s != r).collect())
            .collect();
        let cfg = MembershipConfig::default();
        match agree(n, base_epoch, &dead, &views, &cfg, Some(seed)) {
            Ok(out) => {
                prop_assert_eq!(out.epoch, base_epoch + 1, "agreement advances the epoch");
                for d in &dead {
                    prop_assert!(!out.survivors.contains(d), "dead rank {} resurrected", d);
                }
                for r in (0..n).filter(|r| !dead.contains(r)) {
                    prop_assert!(out.survivors.contains(&r), "live rank {} lost", r);
                    let installed = out.installed[r].as_ref().expect("live rank installs");
                    prop_assert_eq!(installed.0, out.epoch);
                    prop_assert_eq!(&installed.1, &out.survivors);
                }
                for d in &dead {
                    prop_assert!(out.installed[*d].is_none(), "dead rank {} installed", d);
                }
                prop_assert!(!dead.contains(&out.coordinator));
                // The episode is a pure function of its inputs.
                let again = agree(n, base_epoch, &dead, &views, &cfg, Some(seed)).unwrap();
                prop_assert_eq!(again.epoch, out.epoch);
                prop_assert_eq!(again.survivors, out.survivors);
                prop_assert_eq!(again.coordinator, out.coordinator);
            }
            Err(AgreementError::NoSurvivors { .. }) => {
                prop_assert_eq!(dead.len(), n, "only a fully dead world has no survivors");
            }
            Err(AgreementError::ChurnExceeded { .. }) => {
                // Bounded worlds with the default limits never churn out:
                // re-election retires a candidate per round.
                prop_assert!(false, "default bounds cannot churn out on n < 12");
            }
        }
    }
}

proptest! {
    // 100 random fault plans through the full observation pipeline:
    // executor detection → survivor agreement → epoch fence. Runtime is
    // bounded by the executor's per-op deadline, so a completed test run
    // *is* the zero-hang property.
    #![proptest_config(ProptestConfig::with_cases(100))]

    #[test]
    fn random_fault_plans_converge_without_hangs_or_stale_deliveries(
        seed in any::<u64>(),
        n in 5usize..10,
        cascade in any::<bool>(),
    ) {
        let comm = world(n);
        let cache = Arc::new(TopoCache::new());
        let mut mgr = RecoveryManager::new(AdaptiveColl::default(), cache, comm);
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

        // Survivor agreement over the observations: every live rank must
        // install the identical (epoch, survivor_set).
        for &r in &confirmed {
            mgr.propose_failure(r).expect("confirmed ranks are current members");
        }
        let suspects: Vec<usize> = detector.suspected();
        let out = mgr
            .await_agreement(&suspects, &MembershipConfig::default(), Some(seed))
            .expect("cascade always leaves a survivor");
        prop_assert_eq!(out.epoch, epoch_before + 1);
        let installs: Vec<_> = out.installed.iter().flatten().collect();
        prop_assert_eq!(installs.len(), out.survivors.len());
        for inst in installs {
            prop_assert_eq!(inst.0, out.epoch);
            prop_assert_eq!(&inst.1, &out.survivors);
        }
        for &r in &confirmed {
            prop_assert!(!out.survivors.contains(&r), "confirmed-dead rank {} survived", r);
        }
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
            AdaptiveColl::default(),
            Request::new(Collective::Allgather, 0, 1024),
            &cfg,
        );
        let out = out.unwrap_or_else(|e| panic!("seed {seed} cascade {cascade}: {e}"));
        // Every removal came through the detector — no omniscient path.
        prop_assert_eq!(out.failed_ranks.len() as u64, out.stats.ranks_confirmed_dead);
        if out.recovered && !out.degraded {
            prop_assert!(out.stats.agreement_rounds >= 1, "recovery without agreement");
        }
    }
}
