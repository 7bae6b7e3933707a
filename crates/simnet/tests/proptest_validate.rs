//! `Schedule::validate`'s race check against a naive oracle: per-op
//! ancestor sets by DFS over the dependency DAG, the same candidate sweep
//! in the same order. Verdicts must be equal — `Ok`, or the same
//! `ScheduleError` naming the same two ops — on random DAGs, on DAGs
//! repaired until race-free, and on repaired DAGs with one ordering
//! removed again. Dependency lists are edited by rebuilding the schedule
//! through `ScheduleBuilder`; the same cases pin how the builder lays the
//! lists out. `Schedule::lower` must give the same verdicts, and its
//! indexes must say what a direct reading of the schedule says.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use pdac_core::AdaptiveColl;
use pdac_hwtopo::{machines, BindingPolicy};
use pdac_mpisim::Communicator;
use pdac_simnet::trace::sim_events_with_distances;
use pdac_simnet::{
    BufId, DataOp, Mech, OpKind, Schedule, ScheduleBuilder, ScheduleError, SimConfig, SimExecutor,
};

/// What `validate` must say about a structurally sound schedule.
fn oracle(s: &Schedule) -> Result<(), ScheduleError> {
    // ancestors[i][a]: op `a` happens before op `i`.
    let n = s.ops.len();
    let ancestors: Vec<Vec<bool>> = (0..n)
        .map(|i| {
            let mut seen = vec![false; n];
            let mut stack = s.deps(i).to_vec();
            while let Some(d) = stack.pop() {
                if !std::mem::replace(&mut seen[d], true) {
                    stack.extend(s.deps(d));
                }
            }
            seen
        })
        .collect();
    for (a, b, both_write) in conflicting_pairs(s) {
        if !(ancestors[a][b] || ancestors[b][a]) {
            return Err(if both_write {
                ScheduleError::UnorderedOverlappingWrites { a, b }
            } else {
                ScheduleError::UnorderedReadWrite { reader: a, writer: b }
            });
        }
    }
    Ok(())
}

/// The sweep of `check_write_races`, statement for statement, so the pairs
/// come out in the order `validate` reports them in: per written buffer in
/// key order, accesses (writes, then reads, each in op order) sorted by
/// `(start, op)`, each overlapping pair once at its earlier-starting member.
/// `(a, b, true)` is two writes with `a < b`; `(reader, writer, false)` a
/// read against a write.
fn conflicting_pairs(s: &Schedule) -> Vec<(usize, usize, bool)> {
    type Access = (usize, usize, usize);
    let mut writes: BTreeMap<(usize, BufId), Vec<Access>> = BTreeMap::new();
    let mut reads: BTreeMap<(usize, BufId), Vec<Access>> = BTreeMap::new();
    for (id, op) in s.ops.iter().enumerate() {
        if let OpKind::Copy {
            src_rank,
            src_buf,
            src_off,
            dst_rank,
            dst_buf,
            dst_off,
            bytes,
            op: data_op,
            ..
        } = op.kind
        {
            writes.entry((dst_rank, dst_buf)).or_default().push((id, dst_off, dst_off + bytes));
            reads.entry((src_rank, src_buf)).or_default().push((id, src_off, src_off + bytes));
            if data_op != DataOp::Move {
                reads.entry((dst_rank, dst_buf)).or_default().push((id, dst_off, dst_off + bytes));
            }
        }
    }
    let mut pairs = Vec::new();
    for (key, w) in &writes {
        let mut accesses: Vec<(usize, usize, usize, bool)> =
            w.iter().map(|&(op, s, e)| (op, s, e, true)).collect();
        if let Some(r) = reads.get(key) {
            accesses.extend(r.iter().map(|&(op, s, e)| (op, s, e, false)));
        }
        accesses.sort_unstable_by_key(|&(op, s, _, _)| (s, op));
        for i in 0..accesses.len() {
            let (op_a, _, e_a, w_a) = accesses[i];
            for &(op_b, s_b, _, w_b) in &accesses[i + 1..] {
                if s_b >= e_a {
                    break;
                }
                if op_a == op_b || (!w_a && !w_b) {
                    continue;
                }
                if w_a && w_b {
                    pairs.push((op_a.min(op_b), op_a.max(op_b), true));
                } else {
                    pairs.push(if w_a { (op_b, op_a, false) } else { (op_a, op_b, false) });
                }
            }
        }
    }
    pairs
}

const RANKS: usize = 3;

/// Random DAG schedules over six small buffers: moves, byte-wise and typed
/// combines and notifications issued by up to four threads of control. An
/// op follows its thread's previous op (unless that ordering is dropped)
/// and up to two arbitrary earlier ops; intervals are 8–24 bytes at 8-byte
/// steps inside 48 bytes, so they coincide, overlap in part or miss.
fn arb_schedule() -> impl Strategy<Value = Schedule> {
    let slot = |s: usize| (s % RANKS, if s < RANKS { BufId::Recv } else { BufId::Temp(0) });
    let op = (
        (0usize..4, 0u8..10, 0u8..8),
        (0usize..6, 0usize..4, 0usize..6, 0usize..4, 1usize..4),
        prop::collection::vec(any::<u16>(), 0..3),
    );
    prop::collection::vec(op, 1..36).prop_map(move |ops| {
        let mut b = ScheduleBuilder::new("random-dag", RANKS);
        let mut last_of_thread = [None; 4];
        for (i, ((thread, kind, drop), (src, src_off, dst, dst_off, len), raw)) in
            ops.into_iter().enumerate()
        {
            let mut deps: Vec<usize> = raw.into_iter().take(i).map(|d| d as usize % i).collect();
            if drop != 0 {
                deps.extend(last_of_thread[thread]);
            }
            deps.sort_unstable();
            deps.dedup();
            let (src, dst) = (slot(src), slot(dst));
            let from = (src.0, src.1, 8 * src_off);
            let to = (dst.0, dst.1, 8 * dst_off);
            let id = match kind {
                0 => b.notify(src.0, dst.0, &deps),
                1..=5 => b.copy(from, to, 8 * len, Mech::Knem, dst.0, &deps),
                6 | 7 => b.combine(from, to, 8 * len, Mech::Memcpy, dst.0, &deps),
                _ => b.combine_with(from, to, 8 * len, Mech::Knem, dst.0, DataOp::SumF64, &deps),
            };
            last_of_thread[thread] = Some(id);
        }
        b.finish()
    })
}

/// Every op's dependency list.
fn dep_lists(s: &Schedule) -> Vec<Vec<usize>> {
    (0..s.ops.len()).map(|i| s.deps(i).to_vec()).collect()
}

/// The ops of `s` through a fresh builder, op `i` waiting for `deps[i]`.
fn rebuilt(s: &Schedule, deps: &[Vec<usize>]) -> Schedule {
    let mut b = ScheduleBuilder::new(s.name.clone(), s.num_ranks);
    for (op, deps) in s.ops.iter().zip(deps) {
        match op.kind {
            OpKind::Notify { from, to } => b.notify(from, to, deps),
            OpKind::Copy {
                src_rank,
                src_buf,
                src_off,
                dst_rank,
                dst_buf,
                dst_off,
                bytes,
                mech,
                exec,
                op,
            } => b.combine_with(
                (src_rank, src_buf, src_off),
                (dst_rank, dst_buf, dst_off),
                bytes,
                mech,
                exec,
                op,
                deps,
            ),
        };
    }
    b.finish()
}

/// Adds, for the race the oracle reports, the one dependency that orders
/// it, until none is left: a race-free DAG whose `Ok` rests on transitive
/// orderings across many chains.
fn repaired(mut s: Schedule) -> Schedule {
    loop {
        let (a, b) = match oracle(&s) {
            Ok(()) => return s,
            Err(ScheduleError::UnorderedOverlappingWrites { a, b }) => (a, b),
            Err(ScheduleError::UnorderedReadWrite { reader, writer }) => (reader, writer),
            Err(e) => panic!("the oracle reports races only, not {e}"),
        };
        let mut deps = dep_lists(&s);
        deps[a.max(b)].push(a.min(b));
        s = rebuilt(&s, &deps);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn validate_agrees_with_the_ancestor_set_oracle(
        schedule in arb_schedule(),
        victim in any::<u32>(),
        which in any::<u32>(),
    ) {
        prop_assert_eq!(schedule.validate(), oracle(&schedule));

        // The arena: every list points strictly backwards, the lists sit
        // back to back in op order, and the layout is a function of the
        // content alone (a rebuild compares equal).
        for i in 0..schedule.ops.len() {
            prop_assert!(schedule.deps(i).iter().all(|&d| d < i), "op {}", i);
            if i > 0 {
                let (before, here) = (schedule.deps(i - 1), schedule.deps(i));
                prop_assert_eq!(before.as_ptr_range().end, here.as_ptr_range().start, "op {}", i);
            }
        }
        prop_assert_eq!(&rebuilt(&schedule, &dep_lists(&schedule)), &schedule);

        let sound = repaired(schedule);
        prop_assert_eq!(sound.validate(), Ok(()));

        // Take one ordering out again: a race, unless another path covers it.
        let mut deps = dep_lists(&sound);
        let with_deps: Vec<usize> = (0..deps.len()).filter(|&i| !deps[i].is_empty()).collect();
        if !with_deps.is_empty() {
            let list = &mut deps[with_deps[victim as usize % with_deps.len()]];
            list.remove(which as usize % list.len());
            let raced = rebuilt(&sound, &deps);
            prop_assert_eq!(raced.validate(), oracle(&raced));
        }
    }

    #[test]
    fn lowering_indexes_what_validate_checks(schedule in arb_schedule(), twice in any::<u32>()) {
        lowering_agrees(&schedule)?;
        let sound = repaired(schedule);
        lowering_agrees(&sound)?;

        // One dependency listed twice: its op is that dependency's
        // dependent twice over.
        let mut deps = dep_lists(&sound);
        let with_deps: Vec<usize> = (0..deps.len()).filter(|&i| !deps[i].is_empty()).collect();
        if !with_deps.is_empty() {
            let list = &mut deps[with_deps[twice as usize % with_deps.len()]];
            list.push(list[twice as usize % list.len()]);
            lowering_agrees(&rebuilt(&sound, &deps))?;
        }
    }
}

/// `lower` says what `validate` says, and what it indexes is what a direct
/// reading of the schedule gives.
fn lowering_agrees(s: &Schedule) -> Result<(), proptest::test_runner::TestCaseError> {
    let lowered = s.lower(None);
    prop_assert_eq!(lowered.as_ref().map(drop).map_err(Clone::clone), s.validate());
    let Ok(lowered) = lowered else { return Ok(()) };
    let n = s.ops.len();

    // The streams partition the ops; each op is in its executor's stream,
    // ids ascending within one.
    let mut seen = vec![0; n];
    for rank in 0..s.num_ranks {
        let ops = lowered.rank_ops(rank);
        prop_assert!(ops.windows(2).all(|w| w[0] < w[1]), "rank {} {:?}", rank, ops);
        for &id in ops {
            prop_assert_eq!(s.ops[id].kind.executor(), rank);
            seen[id] += 1;
        }
    }
    prop_assert!(seen.iter().all(|&k| k == 1), "{:?}", seen);

    // Dependents are the inverse of the dependency lists, ascending, with
    // multiplicity.
    for d in 0..n {
        let want: Vec<usize> =
            (0..n).flat_map(|i| s.deps(i).iter().filter(|&&x| x == d).map(move |_| i)).collect();
        prop_assert_eq!(lowered.dependents(d), &want[..], "op {}", d);
    }

    // The buffer table is strictly key-ordered, and slots index it back to
    // the keys the copies name.
    let bufs = s.bufs();
    prop_assert!(bufs.windows(2).all(|w| w[0].0 < w[1].0), "{:?}", bufs);
    for (id, op) in s.ops.iter().enumerate() {
        if let OpKind::Copy { src_rank, src_buf, dst_rank, dst_buf, .. } = op.kind {
            let [src, dst] = lowered.copy_slots(id);
            prop_assert_eq!(bufs[src].0, (src_rank, src_buf), "op {}", id);
            prop_assert_eq!(bufs[dst].0, (dst_rank, dst_buf), "op {}", id);
        }
    }
    let largest = s.ops.iter().map(|op| op.kind.bytes()).max().unwrap_or(0);
    prop_assert_eq!(lowered.max_copy(), largest);
    // A slot is written iff some copy names it as its destination.
    let mut written = vec![false; bufs.len()];
    for (id, op) in s.ops.iter().enumerate() {
        if let OpKind::Copy { .. } = op.kind {
            written[lowered.copy_slots(id)[1]] = true;
        }
    }
    for (slot, &w) in written.iter().enumerate() {
        prop_assert_eq!(lowered.written(slot), w, "slot {}", slot);
    }
    Ok(())
}

/// The simulated trace's `dist` labels and the lowering's classes are one
/// definition: equal on every op of a cross-socket bcast on Zoot with the
/// distance matrix, 0 on every op without it.
#[test]
fn trace_dist_is_the_lowered_class() {
    let zoot = Arc::new(machines::zoot());
    let binding = BindingPolicy::CrossSocket.bind(&zoot, 16).unwrap();
    let comm = Communicator::world(Arc::clone(&zoot), binding);
    let schedule = AdaptiveColl.bcast(&comm, 0, 1 << 20);
    let distances = comm.distances();
    let report =
        SimExecutor::new(&zoot, comm.binding(), SimConfig::default()).run(&schedule).unwrap();

    let lowered = schedule.lower(Some(&distances)).unwrap();
    let events = sim_events_with_distances(&schedule, &report, Some(&distances)).events();
    assert_eq!(events.len(), schedule.ops.len());
    for (id, event) in events.iter().enumerate() {
        assert_eq!(event.arg_u64("dist"), Some(u64::from(lowered.class(id))), "op {id}");
    }
    assert!((0..events.len()).any(|id| lowered.class(id) > 0), "a cross-socket bcast has classes");

    let unclassed = schedule.lower(None).unwrap();
    let events = sim_events_with_distances(&schedule, &report, None).events();
    for (id, event) in events.iter().enumerate() {
        assert_eq!((event.arg_u64("dist"), unclassed.class(id)), (Some(0), 0), "op {id}");
    }
}

/// Why the sweep emits every overlapping pair and not only adjacent ones
/// (each access against the last overlapping write): with 0 → 1 ordered and
/// 2 ordered against neither, the first pair in sweep order is (0, 2); an
/// adjacent-only sweep would name (1, 2).
#[test]
fn reported_pair_is_first_in_sweep_order_not_the_adjacent_one() {
    let mut b = ScheduleBuilder::new("t", 4);
    let w = |b: &mut ScheduleBuilder, src, deps: &[usize]| {
        b.copy((src, BufId::Send, 0), (3, BufId::Recv, 0), 8, Mech::Memcpy, 3, deps)
    };
    let first = w(&mut b, 0, &[]);
    w(&mut b, 1, &[first]);
    w(&mut b, 2, &[]);
    let s = b.finish();
    assert_eq!(s.validate(), Err(ScheduleError::UnorderedOverlappingWrites { a: 0, b: 2 }));
    assert_eq!(oracle(&s), s.validate());
}
