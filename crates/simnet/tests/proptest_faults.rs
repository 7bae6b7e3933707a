//! Property-based invariants of fault injection: a plan resolves to the
//! ops and ranks its faults name, remapping a plan onto survivors moves
//! every rank's faults with the rank, no-op faults are bit-identical to a
//! fault-free run, and every faulted run — including ones that end in a
//! typed error — is deterministic. (That degraded capacities keep the rate
//! solver equal to textbook progressive filling is a property test of
//! `solver.rs`.)

use std::time::Duration;

use proptest::prelude::*;

use pdac_hwtopo::{machines, Binding};
use pdac_simnet::{
    BufId, CorruptTarget, CorruptionKind, Fault, FaultPlan, Mech, OpKind, RankFaults, Resource,
    Schedule, ScheduleBuilder, SimConfig, SimExecutor,
};

/// A random `ranks`-rank op forest like `proptest_engine`'s: each op may
/// depend on a few earlier ops, and about one op in four is a notify.
fn arb_schedule(ranks: usize) -> impl Strategy<Value = Schedule> {
    let op =
        (0..ranks, 0..ranks, 1usize..200_000, 0u8..8, prop::collection::vec(any::<u16>(), 0..3));
    prop::collection::vec(op, 1..40).prop_map(move |ops| {
        let mut b = ScheduleBuilder::new("random", ranks);
        for (i, (src, dst, bytes, pick, raw_deps)) in ops.into_iter().enumerate() {
            let mut deps: Vec<usize> = if i == 0 {
                Vec::new()
            } else {
                raw_deps.into_iter().map(|d| d as usize % i).collect()
            };
            deps.sort_unstable();
            deps.dedup();
            if pick < 2 {
                b.notify(src, dst, &deps);
                continue;
            }
            let mech = if pick % 2 == 0 { Mech::Knem } else { Mech::Memcpy };
            b.copy((src, BufId::Send, 0), (dst, BufId::Recv, i * 200_000), bytes, mech, dst, &deps);
        }
        b.finish()
    })
}

/// A random *benign* plan — degraded links and stalled ranks only — that
/// perturbs timing but can never prevent completion.
fn arb_benign_plan() -> impl Strategy<Value = FaultPlan> {
    let degrade = (0usize..10, 0.05f64..1.0);
    let stall = (0usize..48, 0u64..100_000);
    (any::<u64>(), prop::collection::vec(degrade, 0..3), prop::collection::vec(stall, 0..3))
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
            for (rank, nanos) in stalls {
                plan = plan.stall_rank(rank, Duration::from_nanos(nanos));
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

/// A random plan over `ranks` ranks drawn through every builder: a seeded,
/// cascading or empty base, perhaps seeded corruption, then up to eight
/// faults from the named builders, some naming one of two ranks past
/// `ranks`.
fn arb_plan(ranks: usize) -> impl Strategy<Value = FaultPlan> {
    let fault = (0u8..9, 0..ranks + 2, 0u64..8, any::<u64>());
    (any::<u64>(), 0u8..3, any::<bool>(), prop::collection::vec(fault, 0..8)).prop_map(
        move |(seed, base, corruption, faults)| {
            let mut plan = match base {
                0 => FaultPlan::new(seed),
                1 => FaultPlan::seeded(seed, ranks, &[0]),
                _ => FaultPlan::seeded_cascade(seed, ranks, 3, &[0]),
            };
            if corruption {
                plan = plan.with_seeded_corruption(ranks);
            }
            for (pick, rank, k, x) in faults {
                let kind = match x % 3 {
                    0 => CorruptionKind::FlipBits { mask: x },
                    1 => CorruptionKind::TornWrite,
                    _ => CorruptionKind::StaleRead,
                };
                plan = match pick {
                    0 => plan.degrade_link(Resource::Mc(rank % 8), (x % 100) as f64 / 100.0),
                    1 => plan.stall_rank(rank, Duration::from_nanos(x % 100_000)),
                    2 => plan.crash_rank(rank, x % 4),
                    3 => plan.drop_notify(k),
                    4 => plan.flip_bits(rank, k, x),
                    5 => plan.torn_write(rank, k),
                    6 => plan.stale_read(rank, k),
                    7 => plan.corrupt_source(rank, x),
                    _ if x % 2 == 0 => plan.corrupt(CorruptTarget::Source { rank }, kind, k % 3),
                    _ => plan.corrupt(CorruptTarget::Edge { rank, op_index: k }, kind, k % 3),
                };
            }
            plan
        },
    )
}

/// Random survivor lists: distinct world ranks below 48, in random order.
fn arb_survivors() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..48, 0..48).prop_map(|mut s| {
        let mut seen = [false; 48];
        s.retain(|&r| !std::mem::replace(&mut seen[r], true));
        s
    })
}

/// What a plan does to `rank`, read straight off its fault list.
fn rank_view(plan: &FaultPlan, rank: usize) -> RankFaults {
    let mut view = RankFaults::default();
    for fault in plan.faults() {
        match *fault {
            Fault::StallRank { rank: r, delay } if r == rank => view.stall += delay,
            Fault::CrashRank { rank: r, after_ops } if r == rank => {
                view.crash_after = Some(view.crash_after.map_or(after_ops, |k| k.min(after_ops)));
            }
            _ => {}
        }
    }
    view
}

/// The rank a fault names, if any.
fn rank_of(fault: &Fault) -> Option<usize> {
    match *fault {
        Fault::StallRank { rank, .. } | Fault::CrashRank { rank, .. } => Some(rank),
        Fault::Corrupt { target, .. } => match target {
            CorruptTarget::Edge { rank, .. } | CorruptTarget::Source { rank } => Some(rank),
        },
        Fault::DegradeLink { .. } | Fault::DropNotify { .. } => None,
    }
}

fn ig_world() -> (pdac_hwtopo::Machine, Binding) {
    let ig = machines::ig();
    let binding = Binding::identity(&ig);
    (ig, binding)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The resolved table is exactly what the faults name, counted in
    /// op-id order: the dropped ops are the `nth` notifies; an `Edge`
    /// target marks the `op_index`-th copy of its rank's stream, a
    /// `Source` target every copy pulling from its rank, and an op takes
    /// the first corruption naming it; a rank's stall and crash budget are
    /// the sum and the minimum over its faults. Six busy ranks give each a
    /// stream of several copies for the op indices to count through.
    #[test]
    fn resolve_marks_exactly_the_named_ops_and_ranks(schedule in arb_schedule(6), plan in arb_plan(6)) {
        let table = plan.resolve(&schedule, &schedule.lower(None).unwrap());
        let notifies: Vec<usize> = (0..schedule.ops.len())
            .filter(|&id| matches!(schedule.ops[id].kind, OpKind::Notify { .. }))
            .collect();
        // Each copy's index among its executor's copies, counted by id.
        let mut copies_seen = [0u64; 6];
        for (id, op) in schedule.ops.iter().enumerate() {
            let dropped = plan.faults().iter().any(|f| {
                matches!(*f, Fault::DropNotify { nth } if notifies.get(nth as usize) == Some(&id))
            });
            prop_assert_eq!(table.op(id).dropped, dropped, "op {}", id);
            let OpKind::Copy { exec, src_rank, .. } = op.kind else {
                prop_assert_eq!(table.op(id).corrupt, None, "notify {} is never corrupted", id);
                continue;
            };
            let index = copies_seen[exec];
            copies_seen[exec] += 1;
            let corrupt = plan.faults().iter().find_map(|f| match *f {
                Fault::Corrupt { target: CorruptTarget::Edge { rank, op_index }, kind, attempts }
                    if rank == exec && op_index == index => Some((kind, attempts)),
                Fault::Corrupt { target: CorruptTarget::Source { rank }, kind, attempts }
                    if rank == src_rank => Some((kind, attempts)),
                _ => None,
            });
            prop_assert_eq!(table.op(id).corrupt, corrupt, "copy {} (#{} of rank {})", id, index, exec);
        }
        for rank in 0..6 {
            prop_assert_eq!(table.rank(rank), rank_view(&plan, rank), "rank {}", rank);
        }
        for rank in 6..8 {
            prop_assert_eq!(table.rank(rank), RankFaults::default(), "rank {} is outside", rank);
        }
    }

    /// Remapping onto survivors `s` moves each survivor's faults with it:
    /// the resolved view of current rank `c` is the original's of world
    /// rank `s[c]`, no fault names a rank outside `s`, and read back
    /// through `s` the remapped faults are the original's minus those
    /// naming the dead and every dropped notification.
    #[test]
    fn remap_carries_each_survivors_faults(plan in arb_plan(48), survivors in arb_survivors()) {
        let remapped = plan.remap(&survivors);
        prop_assert_eq!(remapped.seed, plan.seed);
        let shrunk = ScheduleBuilder::new("shrunk", survivors.len()).finish();
        let world = ScheduleBuilder::new("world", 48).finish();
        let view = remapped.resolve(&shrunk, &shrunk.lower(None).unwrap());
        let orig = plan.resolve(&world, &world.lower(None).unwrap());
        for (c, &w) in survivors.iter().enumerate() {
            prop_assert_eq!(view.rank(c), orig.rank(w), "current {} = world {}", c, w);
        }
        for f in remapped.faults() {
            let alive = rank_of(f).is_none_or(|c| c < survivors.len());
            prop_assert!(alive, "{:?} names a dead rank", f);
        }
        // Remapping back puts world rank `s[c]` at position `s[c]`; the
        // dead positions hold ranks no fault names.
        let mut inverse: Vec<usize> = (100..148).collect();
        for (c, &w) in survivors.iter().enumerate() {
            inverse[w] = c;
        }
        let kept: Vec<Fault> = plan
            .faults()
            .iter()
            .copied()
            .filter(|f| !matches!(f, Fault::DropNotify { .. }))
            .filter(|f| rank_of(f).is_none_or(|r| survivors.contains(&r)))
            .collect();
        prop_assert_eq!(remapped.remap(&inverse).faults(), &kept[..]);
    }

    /// A plan whose faults are all no-ops (unit degrade factor, zero
    /// stall) leaves the report bit-identical to a fault-free run — the
    /// injection machinery itself costs nothing.
    #[test]
    fn noop_faults_are_bit_identical_to_no_faults(schedule in arb_schedule(48), seed in any::<u64>()) {
        let (ig, binding) = ig_world();
        let plan = FaultPlan::new(seed)
            .degrade_link(Resource::Mc(3), 1.0)
            .stall_rank(7, Duration::ZERO);
        let plain = SimExecutor::new(&ig, &binding, SimConfig::default()).run(&schedule).unwrap();
        let faulted = SimExecutor::new(&ig, &binding, SimConfig::default())
            .with_fault_plan(plan)
            .run(&schedule)
            .unwrap();
        prop_assert_eq!(plain.total_time.to_bits(), faulted.total_time.to_bits());
        prop_assert_eq!(&plain.op_finish, &faulted.op_finish);
        // The only trace is the accounting; a zero stall stalls no rank.
        prop_assert_eq!(faulted.fault_stats.links_degraded, 1);
        prop_assert_eq!(faulted.fault_stats.ranks_stalled, 0);
    }

    /// Any plan — lethal or not — produces the same outcome twice: the
    /// same report bit-for-bit, or the same typed error (same variant,
    /// same progress counts, same stall time).
    #[test]
    fn faulted_runs_are_deterministic(schedule in arb_schedule(48), plan in arb_any_plan()) {
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

    /// Seeded plans are pure functions of the seed, and their errors quote
    /// it.
    #[test]
    fn seeded_plans_replay_from_their_seed(seed in any::<u64>()) {
        prop_assert_eq!(FaultPlan::seeded(seed, 48, &[0]), FaultPlan::seeded(seed, 48, &[0]));
        let (ig, binding) = ig_world();
        let mut b = ScheduleBuilder::new("chain", 48);
        // A deep dependency chain through every rank: a crash that fires
        // anywhere below the end strands the tail, so the plan must
        // surface a typed error quoting the seed, not a hang.
        let mut prev: Option<usize> = None;
        for r in 0..47 {
            prev = Some(b.copy((r, BufId::Send, 0), (r + 1, BufId::Recv, 0), 4096, Mech::Knem, r + 1, prev.as_slice()));
        }
        let schedule = b.finish();
        let res = SimExecutor::new(&ig, &binding, SimConfig::default())
            .with_fault_plan(FaultPlan::seeded(seed, 48, &[0]))
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
