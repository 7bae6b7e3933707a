//! Property-based invariants of fault injection in the engine: no-op
//! faults are bit-identical to a fault-free run, and every faulted run —
//! including ones that end in a typed error — is deterministic. (That
//! degraded capacities keep the rate solver equal to textbook progressive
//! filling is a property test of `solver.rs`.)

use proptest::prelude::*;

use pdac_hwtopo::{machines, Binding};
use pdac_simnet::{
    BufId, FaultPlan, Mech, Resource, Schedule, ScheduleBuilder, SimConfig, SimExecutor,
};

/// Same random copy forest as `proptest_engine`: a 48-rank IG world where
/// each op may depend on a few earlier ops.
fn arb_schedule() -> impl Strategy<Value = Schedule> {
    let op = (
        0usize..48,
        0usize..48,
        1usize..200_000,
        any::<bool>(),
        prop::collection::vec(any::<u16>(), 0..3),
    );
    prop::collection::vec(op, 1..40).prop_map(|ops| {
        let mut b = ScheduleBuilder::new("random", 48);
        for (i, (src, dst, bytes, knem, raw_deps)) in ops.into_iter().enumerate() {
            let mut deps: Vec<usize> = if i == 0 {
                Vec::new()
            } else {
                raw_deps.into_iter().map(|d| d as usize % i).collect()
            };
            deps.sort_unstable();
            deps.dedup();
            let mech = if knem { Mech::Knem } else { Mech::Memcpy };
            b.copy((src, BufId::Send, 0), (dst, BufId::Recv, i * 200_000), bytes, mech, dst, &deps);
        }
        b.finish()
    })
}

/// A random *benign* plan — degraded links and stalled ranks only — that
/// perturbs timing but can never prevent completion.
fn arb_benign_plan() -> impl Strategy<Value = FaultPlan> {
    let degrade = (0usize..10, 0.05f64..1.0);
    let stall = (0usize..48, 0.0f64..1e-4);
    (
        any::<u64>(),
        prop::collection::vec(degrade, 0..3),
        prop::collection::vec(stall, 0..3),
    )
        .prop_map(|(seed, degrades, stalls)| {
            let mut plan = FaultPlan::new(seed);
            for (pick, factor) in degrades {
                let resource = match pick {
                    0..=7 => Resource::Mc(pick),
                    8 => Resource::BoardLink,
                    _ => Resource::Cache(0),
                };
                plan = plan.degrade_link(resource, factor);
            }
            for (rank, delay) in stalls {
                plan = plan.stall_rank(rank, delay);
            }
            plan
        })
}

/// A random plan that may be lethal: everything the benign plan has, plus
/// a possible crash and a possible dropped notification.
fn arb_any_plan() -> impl Strategy<Value = FaultPlan> {
    (arb_benign_plan(), any::<bool>(), 0usize..48, 0u64..4, any::<bool>(), 0u64..8).prop_map(
        |(mut plan, crash, victim, after, drop, nth)| {
            if crash {
                plan = plan.crash_rank(victim, after);
            }
            if drop {
                plan = plan.drop_notify(nth);
            }
            plan
        },
    )
}

fn ig_world() -> (pdac_hwtopo::Machine, Binding) {
    let ig = machines::ig();
    let binding = Binding::identity(&ig);
    (ig, binding)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A plan whose faults are all no-ops (unit degrade factor, zero
    /// stall) leaves the report bit-identical to a fault-free run — the
    /// injection machinery itself costs nothing.
    #[test]
    fn noop_faults_are_bit_identical_to_no_faults(schedule in arb_schedule(), seed in any::<u64>()) {
        let (ig, binding) = ig_world();
        let plan = FaultPlan::new(seed)
            .degrade_link(Resource::Mc(3), 1.0)
            .stall_rank(7, 0.0);
        let plain = SimExecutor::new(&ig, &binding, SimConfig::default()).run(&schedule).unwrap();
        let faulted = SimExecutor::new(&ig, &binding, SimConfig::default())
            .with_fault_plan(plan)
            .run(&schedule)
            .unwrap();
        prop_assert_eq!(plain.total_time.to_bits(), faulted.total_time.to_bits());
        prop_assert_eq!(&plain.op_finish, &faulted.op_finish);
        // The only trace is the accounting.
        prop_assert_eq!(faulted.fault_stats.links_degraded, 1);
        prop_assert_eq!(faulted.fault_stats.ranks_stalled, 1);
    }

    /// Any plan — lethal or not — produces the same outcome twice: the
    /// same report bit-for-bit, or the same typed error (same variant,
    /// same progress counts, same stall time).
    #[test]
    fn faulted_runs_are_deterministic(schedule in arb_schedule(), plan in arb_any_plan()) {
        let (ig, binding) = ig_world();
        let run = || {
            SimExecutor::new(&ig, &binding, SimConfig::default())
                .with_fault_plan(plan.clone())
                .run(&schedule)
        };
        match (run(), run()) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.total_time.to_bits(), b.total_time.to_bits());
                prop_assert_eq!(a.op_finish, b.op_finish);
                prop_assert_eq!(a.fault_stats, b.fault_stats);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "non-deterministic outcome: {:?} vs {:?}", a.is_ok(), b.is_ok()),
        }
    }

    /// Seeded canonical plans are pure functions of the seed, and their
    /// errors quote it.
    #[test]
    fn seeded_plans_replay_from_their_seed(seed in any::<u64>()) {
        prop_assert_eq!(FaultPlan::seeded(seed, 48), FaultPlan::seeded(seed, 48));
        let (ig, binding) = ig_world();
        let mut b = ScheduleBuilder::new("chain", 48);
        // A deep dependency chain through every rank: a crash anywhere
        // below the end strands the tail, so the canonical plan (which
        // always crashes a rank) must surface a typed error quoting the
        // seed, not a hang.
        let mut prev: Option<usize> = None;
        for r in 0..47 {
            prev = Some(b.copy((r, BufId::Send, 0), (r + 1, BufId::Recv, 0), 4096, Mech::Knem, r + 1, prev.as_slice()));
        }
        let schedule = b.finish();
        let res = SimExecutor::new(&ig, &binding, SimConfig::default())
            .with_fault_plan(FaultPlan::seeded(seed, 48))
            .run(&schedule);
        if let Err(e) = res {
            let msg = e.to_string();
            prop_assert!(
                msg.contains(&format!("fault seed {seed}")),
                "error must quote its seed: {}", msg
            );
            prop_assert!(e.fault_stats().total_injected() > 0);
        }
    }
}
