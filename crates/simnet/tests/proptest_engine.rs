//! Property-based invariants of the discrete-event engine: dependency
//! ordering, capacity feasibility, determinism, and sane monotonicity of
//! the contention model, over random schedules.

use proptest::prelude::*;

use pdac_hwtopo::{machines, Binding, BindingPolicy};
use pdac_simnet::{
    BufId, Calibration, FaultPlan, Mech, Resource, Schedule, ScheduleBuilder, SimConfig,
    SimExecutor,
};

/// A random forest of copies over a fixed 48-rank IG world: each op may
/// depend on a few earlier ops; destination offsets are striped per op to
/// keep writes disjoint.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn op_finish_respects_dependencies(schedule in arb_schedule()) {
        let ig = machines::ig();
        let binding = Binding::identity(&ig);
        let rep = SimExecutor::new(&ig, &binding, SimConfig::default()).run(&schedule).unwrap();
        for id in 0..schedule.ops.len() {
            for &d in schedule.deps(id) {
                prop_assert!(rep.op_finish[d] <= rep.op_finish[id] + 1e-12);
            }
            prop_assert!(rep.op_finish[id] > 0.0);
        }
        prop_assert!((rep.total_time
            - rep.op_finish.iter().fold(0.0f64, |a, &b| a.max(b))).abs() < 1e-12);
    }

    #[test]
    fn resource_throughput_never_exceeds_capacity(schedule in arb_schedule()) {
        let ig = machines::ig();
        let binding = Binding::identity(&ig);
        let cal = Calibration::ig();
        let rep = SimExecutor::new(&ig, &binding, SimConfig { allow_cache: false })
            .run(&schedule)
            .unwrap();
        for (&res, &bytes) in &rep.resource_bytes {
            let cap = cal.capacity(res);
            prop_assert!(
                bytes / rep.total_time <= cap * (1.0 + 1e-6),
                "{res:?} moved {bytes} bytes in {} s but caps at {cap}",
                rep.total_time
            );
        }
    }

    #[test]
    fn simulation_is_deterministic(schedule in arb_schedule()) {
        let ig = machines::ig();
        let binding = Binding::identity(&ig);
        let a = SimExecutor::new(&ig, &binding, SimConfig::default()).run(&schedule).unwrap();
        let b = SimExecutor::new(&ig, &binding, SimConfig::default()).run(&schedule).unwrap();
        prop_assert_eq!(a.total_time, b.total_time);
        prop_assert_eq!(a.op_finish, b.op_finish);
        let av: Vec<_> = a.resource_bytes.into_iter().collect();
        let bv: Vec<_> = b.resource_bytes.into_iter().collect();
        prop_assert_eq!(av, bv);
    }

    #[test]
    fn per_rank_busy_time_is_bounded_by_makespan(schedule in arb_schedule()) {
        let ig = machines::ig();
        let binding = Binding::identity(&ig);
        let rep = SimExecutor::new(&ig, &binding, SimConfig::default()).run(&schedule).unwrap();
        for &busy in &rep.rank_busy {
            prop_assert!(busy <= rep.total_time + 1e-12);
            prop_assert!(busy >= 0.0);
        }
    }

    /// Every rank stalled by `delay` seconds puts the clock where an ulp is
    /// worth whole bytes of a flow: residues the clock cannot resolve are
    /// the rule there. The run must still end, and (the event loop's
    /// `debug_assert`) no event may leave the state as it found it.
    #[test]
    fn no_event_repeats_the_state_before_it(schedule in arb_schedule(), delay in 1e2f64..1e7) {
        let ig = machines::ig();
        let binding = Binding::identity(&ig);
        let stall = std::time::Duration::from_secs_f64(delay);
        let plan = (0..48).fold(FaultPlan::new(1), |plan, r| plan.stall_rank(r, stall));
        let rep = SimExecutor::new(&ig, &binding, SimConfig::default())
            .with_fault_plan(plan)
            .run(&schedule)
            .unwrap();
        prop_assert!(rep.total_time > delay);
        for id in 0..schedule.ops.len() {
            for &d in schedule.deps(id) {
                prop_assert!(rep.op_finish[d] <= rep.op_finish[id]);
            }
        }
    }

    #[test]
    fn more_bytes_never_finish_faster(
        src in 0usize..48,
        dst in 0usize..48,
        bytes in 1usize..1_000_000,
    ) {
        let ig = machines::ig();
        let binding = Binding::identity(&ig);
        let time_for = |n: usize| {
            let mut b = ScheduleBuilder::new("t", 48);
            b.copy((src, BufId::Send, 0), (dst, BufId::Recv, 0), n, Mech::Knem, dst, &[]);
            SimExecutor::new(&ig, &binding, SimConfig { allow_cache: false })
                .run(&b.finish())
                .unwrap()
                .total_time
        };
        prop_assert!(time_for(bytes) <= time_for(bytes * 2) + 1e-15);
    }
}

#[test]
fn knem_traffic_accounting_matches_copies() {
    // Cross-check resource accounting against the schedule's own totals.
    let ig = machines::ig();
    let binding = BindingPolicy::Contiguous.bind(&ig, 48).unwrap();
    let mut b = ScheduleBuilder::new("t", 48);
    for i in 0..8 {
        b.copy((i, BufId::Send, 0), (i + 6, BufId::Recv, 0), 10_000, Mech::Knem, i + 6, &[]);
    }
    let s = b.finish();
    let rep = SimExecutor::new(&ig, &binding, SimConfig { allow_cache: false }).run(&s).unwrap();
    let core_bytes: f64 = (0..48).filter_map(|c| rep.resource_bytes.get(&Resource::Core(c))).sum();
    // Remote copies weigh 2x on the copy engine.
    let payload = s.ops.iter().map(|o| o.kind.bytes()).sum::<usize>() as f64;
    assert_eq!(core_bytes, 2.0 * payload);
    let mc_total: f64 = (0..8).map(|n| rep.mc_bytes(n)).sum();
    assert_eq!(mc_total, 2.0 * payload, "1 read + 1 write per byte");
}

#[test]
fn empty_schedule_completes_instantly() {
    let ig = machines::ig();
    let binding = Binding::identity(&ig);
    let s = ScheduleBuilder::new("empty", 48).finish();
    let rep = SimExecutor::new(&ig, &binding, SimConfig::default()).run(&s).unwrap();
    assert_eq!(rep.total_time, 0.0);
}
