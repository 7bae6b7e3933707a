//! Transport parity matrix: every collective in the distance-aware family
//! (bcast, allgather, allreduce, alltoall, reduce-scatter), executed on
//! both paper machines (IG and Zoot), must produce **bit-identical**
//! payloads under the KNEM backend and the RDMA queue-pair backend — the
//! [`Transport`] seam changes how bytes move, never which bytes arrive.
//! Both backends must also enforce the same epoch-fence contract: a
//! registration stamped with a fenced epoch is rejected with `StaleEpoch`
//! on either side of the seam. What may differ is the model a kind adds:
//! RDMA connects each (source, puller) rank pair once, KNEM nobody. And a
//! fault plan, resolved once against a schedule, faults the same op on
//! both transports and in the simulator.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use pdac_core::alltoall::alltoall_schedule;
use pdac_core::reduce_scatter::reduce_scatter_schedule;
use pdac_core::sched::{allreduce_schedule, SchedConfig};
use pdac_core::verify::{self, pattern};
use pdac_core::{build_bcast_tree, AdaptiveColl, Collective, Request, Ring};
use pdac_hwtopo::{machines, BindingPolicy, Machine};
use pdac_mpisim::{
    Communicator, ExecError, KnemError, RetryPolicy, ThreadExecutor, TransportKind,
};
use pdac_simnet::{
    BufId, FaultPlan, Mech, OpKind, Schedule, SimConfig, SimError, SimExecutor,
};

const RANKS: usize = 8;
const TRANSPORTS: [TransportKind; 2] = [TransportKind::Knem, TransportKind::Rdma];

fn comm_on(machine: Machine) -> Communicator {
    let machine = Arc::new(machine);
    // Cross-socket placement touches every distance class the machine has.
    let binding = BindingPolicy::CrossSocket
        .bind(&machine, RANKS)
        .expect("parity placement fits");
    Communicator::world(machine, binding)
}

/// Distinct unordered (source, puller) rank pairs among the one-sided
/// copies of `schedule` — the connections an RDMA run must set up.
fn pulled_pairs(schedule: &Schedule) -> u64 {
    let pairs: BTreeSet<(usize, usize)> = schedule
        .ops
        .iter()
        .filter_map(|op| match op.kind {
            OpKind::Copy { src_rank, dst_rank, mech: Mech::Knem, .. } => {
                Some((src_rank.min(dst_rank), src_rank.max(dst_rank)))
            }
            _ => None,
        })
        .collect();
    pairs.len() as u64
}

/// Runs `schedule` under both transports, checks each run against the
/// oracle for `request`, and asserts the `Recv` buffers are bit-identical
/// across backends.
fn run_both(label: &str, request: Request, schedule: &Schedule, n: usize) {
    let mut per_transport: Vec<Vec<Vec<u8>>> = Vec::new();
    for kind in TRANSPORTS {
        let transport = kind.create(None);
        let res = ThreadExecutor::with_transport(Arc::clone(&transport))
            .run(schedule, pattern)
            .unwrap_or_else(|e| panic!("{label} on {}: {e}", kind.label()));
        verify::check(request, n, &res)
            .unwrap_or_else(|e| panic!("{label} on {}: {e}", kind.label()));
        let stats = transport.stats();
        assert!(
            stats.bytes_copied > 0,
            "{label} on {} moved payload through the transport",
            kind.label()
        );
        let connections = match kind {
            TransportKind::Knem => 0,
            TransportKind::Rdma => pulled_pairs(schedule),
        };
        assert_eq!(
            stats.handshakes,
            connections,
            "{label} on {}: one handshake per pair that exchanged a copy",
            kind.label()
        );
        per_transport.push((0..n).map(|r| res.buffer(r, BufId::Recv).to_vec()).collect());
    }
    let [knem, rdma] = <[_; 2]>::try_from(per_transport).unwrap();
    for r in 0..n {
        assert_eq!(
            knem[r], rdma[r],
            "{label}: rank {r} Recv payload differs between knem and rdma"
        );
    }
}

#[test]
fn collective_matrix_is_bit_identical_across_transports() {
    for machine in [machines::ig(), machines::zoot()] {
        let comm = comm_on(machine);
        let n = comm.size();
        let name = comm.machine().name.clone();
        let coll = AdaptiveColl::default();
        let dist = comm.distances();
        let ring = Ring::build(&dist);
        let tree = build_bcast_tree(&dist, 0);
        let cases = [
            (Collective::Bcast, 20_000, coll.bcast(&comm, 0, 20_000)),
            (Collective::Allgather, 3_000, coll.allgather(&comm, 3_000)),
            (
                Collective::Allreduce,
                10_000,
                allreduce_schedule(&tree, 10_000, &SchedConfig::default()),
            ),
            (Collective::Alltoall, 1_500, alltoall_schedule(&ring, 1_500)),
            (Collective::ReduceScatter, 2_000, reduce_scatter_schedule(&ring, 2_000)),
        ];
        for (collective, bytes, schedule) in cases {
            let label = format!("{name}/{}", collective.label());
            run_both(&label, Request::new(collective, 0, bytes), &schedule, n);
        }
    }
}

/// Corruption parity: the same seeded corruption plan, executed on both
/// backends, must behave **identically** — same number of checksum
/// detections, same number of healing re-transmits, and bit-identical
/// final payloads. The checksummed data path sits above the [`Transport`]
/// seam, so any divergence here means one backend can leak damaged bytes
/// the other would catch.
#[test]
fn corruption_detection_is_identical_across_transports() {
    for machine in [machines::ig(), machines::zoot()] {
        let comm = comm_on(machine);
        let n = comm.size();
        let name = comm.machine().name.clone();
        let coll = AdaptiveColl::default();
        let block = 3_000;
        // Allgather gives every rank n-1 copies, so every seeded edge
        // target (op indices 0..4) lands on a real operation.
        let schedule = coll.allgather(&comm, block);

        type CountsAndBufs = ((u64, u64, u64, u64), Vec<Vec<u8>>);
        let mut per_transport: Vec<CountsAndBufs> = Vec::new();
        for kind in TRANSPORTS {
            let plan = FaultPlan::new(41).with_seeded_corruption(n);
            assert!(!plan.is_empty(), "seed 41 must produce injectors");
            let res = ThreadExecutor::with_transport(kind.create(None))
                .with_policy(RetryPolicy::chaos())
                .with_faults(plan)
                .run(&schedule, pattern)
                .unwrap_or_else(|e| panic!("{name}/corrupt on {}: {e}", kind.label()));
            let request = Request::new(Collective::Allgather, 0, block);
            verify::check(request, n, &res)
                .unwrap_or_else(|e| panic!("{name} on {}: healed payload: {e}", kind.label()));
            let s = &res.fault_stats;
            assert!(
                s.corrupt_detected >= 1,
                "{name} on {}: at least one injector fires",
                kind.label()
            );
            assert_eq!(
                s.corrupt_detected,
                s.retransmits,
                "{name} on {}: every detection healed by one re-transmit",
                kind.label()
            );
            assert_eq!(
                s.checksums_stamped,
                s.checksums_verified + s.corrupt_detected,
                "{name} on {}: every stamped chunk is either verified or caught",
                kind.label()
            );
            per_transport.push((
                (
                    s.checksums_stamped,
                    s.checksums_verified,
                    s.corrupt_detected,
                    s.retransmits,
                ),
                (0..n).map(|r| res.buffer(r, BufId::Recv).to_vec()).collect(),
            ));
        }
        let [(knem_counts, knem_bufs), (rdma_counts, rdma_bufs)] =
            <[_; 2]>::try_from(per_transport).unwrap();
        assert_eq!(
            knem_counts, rdma_counts,
            "{name}: integrity accounting diverges between knem and rdma"
        );
        for r in 0..n {
            assert_eq!(
                knem_bufs[r], rdma_bufs[r],
                "{name}: rank {r} healed payload differs between knem and rdma"
            );
        }
    }
}

/// Both backends enforce the identical epoch-fence contract: registrations
/// at or above the fence succeed, a straggler stamped with a fenced epoch
/// bounces with `StaleEpoch`, and the rejection is counted in the stats.
#[test]
fn stale_epoch_is_rejected_on_both_transports() {
    for kind in TRANSPORTS {
        let transport = kind.create(None);
        transport
            .register(0, BufId::Send, 0, 64, 3)
            .unwrap_or_else(|e| panic!("{}: live epoch registers: {e:?}", kind.label()));
        transport.fence_epochs_below(4);
        match transport.register(1, BufId::Recv, 0, 64, 3) {
            Err(KnemError::StaleEpoch { epoch, fence }) => {
                assert_eq!((epoch, fence), (3, 4), "{}", kind.label());
            }
            other => panic!("{}: fenced epoch accepted: {other:?}", kind.label()),
        }
        transport
            .register(2, BufId::Send, 0, 64, 4)
            .unwrap_or_else(|e| panic!("{}: at-fence epoch registers: {e:?}", kind.label()));
        assert_eq!(
            transport.fenced_messages(),
            1,
            "{}: the rejection is observable in stats",
            kind.label()
        );
    }
}

/// One fault vocabulary, two interpreters: a plan resolved once against a
/// zoot-16 bcast names the op both legs fault. A dropped notify times out a
/// dependent of that op on the thread executor (both transports) and is
/// the op the simulator never finishes: it completes exactly the ops that
/// do not wait on it. A flip aimed at each copy of each rank marks that
/// one copy and costs one re-transmit on every leg; a flip aimed one past
/// the rank's last copy marks nothing and costs nothing.
#[test]
fn both_legs_fault_the_op_the_plan_resolves_to() {
    let machine = Arc::new(machines::zoot());
    let binding = BindingPolicy::Contiguous.bind(&machine, 16).expect("zoot has 16 cores");
    let comm = Communicator::world(Arc::clone(&machine), binding.clone());
    let schedule = AdaptiveColl::default().bcast(&comm, 0, 256 * 1024);
    let lowered = schedule.lower(None).unwrap();
    let ops = schedule.ops.len();
    let is_copy = |id: usize| matches!(schedule.ops[id].kind, OpKind::Copy { .. });
    let sim = |plan: &FaultPlan| {
        SimExecutor::new(&machine, &binding, SimConfig::default())
            .with_fault_plan(plan.clone())
            .run(&schedule)
    };
    let exec = |kind: TransportKind, plan: &FaultPlan, deadline: u64| {
        let op_deadline = Some(Duration::from_millis(deadline));
        ThreadExecutor::with_transport(kind.create(None))
            .with_policy(RetryPolicy { op_deadline, ..RetryPolicy::chaos() })
            .with_faults(plan.clone())
            .run(&schedule, pattern)
    };

    let notifies = (0..ops).filter(|&id| !is_copy(id)).count() as u64;
    assert!(notifies > 0, "the bcast signals its children");
    for k in 0..notifies {
        let plan = FaultPlan::new(k).drop_notify(k);
        let table = plan.resolve(&schedule, &lowered);
        let dropped: Vec<usize> = (0..ops).filter(|&id| table.op(id).dropped).collect();
        let [d] = dropped[..] else { panic!("drop_notify({k}) resolves to {dropped:?}") };
        for kind in TRANSPORTS {
            match exec(kind, &plan, 30) {
                Err(ExecError::Timeout { op, .. }) => assert!(
                    schedule.deps(op).contains(&d),
                    "drop_notify({k}) on {}: op {op} timed out, not a dependent of op {d}",
                    kind.label()
                ),
                other => panic!("drop_notify({k}) on {}: {other:?}", kind.label()),
            }
        }
        // Op `d` and everything downstream of it stay unfinished.
        let mut waiting = vec![false; ops];
        waiting[d] = true;
        for id in d..ops {
            if waiting[id] {
                lowered.dependents(id).iter().for_each(|&w| waiting[w] = true);
            }
        }
        let unfinished = waiting.iter().filter(|&&w| w).count();
        match sim(&plan) {
            Err(SimError::Stalled { completed, total, fault_stats, .. }) => {
                assert_eq!(total - completed, unfinished, "drop_notify({k}): op {d} and after");
                assert_eq!(fault_stats.notifies_dropped, 1, "drop_notify({k})");
            }
            other => panic!("drop_notify({k}) in the simulator: {other:?}"),
        }
    }

    for r in 0..comm.size() {
        let copies = lowered.rank_ops(r).iter().filter(|&&id| is_copy(id)).count() as u64;
        for i in 0..=copies {
            let plan = FaultPlan::new(i).flip_bits(r, i, 0x00ff_00ff_00ff_00ff);
            let table = plan.resolve(&schedule, &lowered);
            let marked: Vec<usize> =
                (0..ops).filter(|&id| table.op(id).corrupt.is_some()).collect();
            let retransmits = u64::from(i < copies);
            match marked[..] {
                [id] => assert!(
                    i < copies && lowered.rank_ops(r).contains(&id) && is_copy(id),
                    "flip_bits({r}, {i}) marks op {id}"
                ),
                [] => assert_eq!(i, copies, "flip_bits({r}, {i}) marks nothing"),
                _ => panic!("flip_bits({r}, {i}) marks {marked:?}"),
            }
            for kind in TRANSPORTS {
                let res = exec(kind, &plan, 500)
                    .unwrap_or_else(|e| panic!("flip_bits({r}, {i}) on {}: {e}", kind.label()));
                assert_eq!(
                    res.integrity_stats.retransmits,
                    retransmits,
                    "flip_bits({r}, {i}) on {}",
                    kind.label()
                );
            }
            let report = sim(&plan).unwrap_or_else(|e| panic!("flip_bits({r}, {i}): {e}"));
            let simulated = report.fault_stats.retransmits;
            assert_eq!(simulated, retransmits, "flip_bits({r}, {i}) simulated");
        }
    }
}
