//! The one planner path, table-tested: for every collective on every
//! machine and placement, the schedule is the same whichever sinks are
//! attached, the cache sees one miss then hits, the recorder covers every
//! planned op, and the schedule passes its semantic oracle.

use std::sync::Arc;

use pdac::collectives::adaptive::{
    BcastTopology, COLLAPSE_ABOVE_BYTES, RING_ALLREDUCE_MIN_BYTES, SM_BCAST_MAX_BYTES,
    TUNED_ALLGATHER_MAX_BYTES, TUNED_BCAST_MAX_BYTES,
};
use pdac::collectives::baseline::tuned;
use pdac::collectives::framework::CollFramework;
use pdac::collectives::sched::{allreduce_schedule_dist, SchedConfig};
use pdac::collectives::{
    build_bcast_tree, verify, AdaptiveColl, AllreduceAlgo, Collective, DecisionKind, Provenance,
    RecoveryManager, Request, Sinks, TopoCache,
};
use pdac::hwtopo::{cluster, machines, BindingPolicy, Machine};
use pdac::mpi::Session;
use pdac::mpisim::p2p::P2pConfig;
use pdac::mpisim::Communicator;
use pdac::simnet::DataOp;

fn machines_under_test() -> Vec<Machine> {
    let node = machines::synthetic(1, 2, 4, true);
    vec![
        machines::ig(),
        machines::zoot(),
        machines::synthetic(2, 2, 8, true),
        cluster::homogeneous("2-node", &node, 2, 1).expect("two nodes on one switch"),
    ]
}

/// The nine default requests plus the explicit variants callers use (the
/// Figure 8 forced topologies, `Session`'s ring allreduce).
fn requests(n: usize) -> Vec<Request> {
    let root = n / 3;
    let mut out: Vec<Request> = Collective::ALL
        .into_iter()
        .map(|c| {
            let message_sized =
                matches!(c, Collective::Bcast | Collective::Allreduce | Collective::Reduce);
            // `verify::pattern` repeats every 256 bytes, so a block size off
            // that period keeps a misplaced block from passing.
            Request::new(c, root, if message_sized { 200_000 } else { 1500 })
        })
        .collect();
    for topo in [BcastTopology::Collapsed, BcastTopology::Hierarchical] {
        out.push(Request {
            bcast_topo: Some(topo),
            ..Request::new(Collective::Bcast, root, 200_000)
        });
    }
    out.push(Request {
        allreduce: AllreduceAlgo::Ring,
        ..Request::new(Collective::Allreduce, root, n * 4096)
    });
    out
}

fn cache_choice(prov: &Provenance) -> Option<&str> {
    prov.decisions_of(DecisionKind::CacheLookup).first().map(|d| d.choice.as_str())
}

#[test]
fn every_sink_combination_plans_the_same_schedule() {
    let coll = AdaptiveColl;
    for machine in machines_under_test() {
        let machine = Arc::new(machine);
        let n = machine.num_cores();
        for policy in [
            BindingPolicy::Contiguous,
            BindingPolicy::CrossSocket,
            BindingPolicy::Random { seed: 12 },
        ] {
            let binding = policy.bind(&machine, n).expect("placement fits");
            let comm = Communicator::world(Arc::clone(&machine), binding);
            for request in requests(n) {
                let ctx = format!("{} {policy:?} {request:?}", machine.name);
                let plain = coll.plan(&comm, request, Sinks::default());
                plain.validate().unwrap_or_else(|e| panic!("{ctx}: {e}"));
                verify::run(request, &plain).unwrap_or_else(|e| panic!("{ctx}: {e}"));

                let cache = TopoCache::new();
                let cold = coll.plan(&comm, request, Sinks::cached(&cache));
                let warm = coll.plan(&comm, request, Sinks::cached(&cache));
                assert_eq!(cold, plain, "{ctx}: cold cache");
                assert_eq!(warm, plain, "{ctx}: warm cache");

                let mut recorded = Provenance::default();
                let sinks = Sinks { cache: None, provenance: Some(&mut recorded) };
                assert_eq!(coll.plan(&comm, request, sinks), plain, "{ctx}: recorder only");

                let recorded_cache = TopoCache::new();
                let (mut missed, mut hit) = (Provenance::default(), Provenance::default());
                for prov in [&mut missed, &mut hit] {
                    let sinks = Sinks { cache: Some(&recorded_cache), provenance: Some(prov) };
                    assert_eq!(coll.plan(&comm, request, sinks), plain, "{ctx}: cache + recorder");
                }

                for prov in [&recorded, &missed, &hit] {
                    assert_eq!(prov.planned_ops.len(), plain.ops.len(), "{ctx}");
                    assert_eq!(prov.schedule_name, plain.name, "{ctx}");
                    assert_eq!(prov.collective, request.collective.label(), "{ctx}");
                    assert_eq!(prov.decisions_of(DecisionKind::Algorithm).len(), 1, "{ctx}");
                    // A forced broadcast topology is recorded as forced, not
                    // explained by the size rule it bypassed.
                    let topology = prov.decisions_of(DecisionKind::Topology);
                    let bcast = request.collective == Collective::Bcast;
                    assert_eq!(topology.len(), usize::from(bcast), "{ctx}");
                    for topology in topology {
                        let forced = topology.reason.starts_with("forced by the request;");
                        assert_eq!(forced, request.bcast_topo.is_some(), "{ctx}: {topology:?}");
                    }
                }

                // Gather and scatter pull directly; everything else looks
                // exactly one topology up per plan: one miss, then a hit.
                let direct = matches!(request.collective, Collective::Gather | Collective::Scatter);
                for stats in [cache.stats(), recorded_cache.stats()] {
                    let lookups = if direct { (0, 0) } else { (1, 1) };
                    assert_eq!((stats.misses, stats.hits), lookups, "{ctx}");
                }
                if direct {
                    assert_eq!(cache_choice(&recorded), None, "{ctx}");
                } else {
                    assert_eq!(cache_choice(&recorded), Some("uncached build"), "{ctx}");
                    assert_eq!(cache_choice(&missed), Some("miss (built)"), "{ctx}");
                    assert_eq!(cache_choice(&hit), Some("hit"), "{ctx}");
                }
            }
        }
    }
}

#[test]
fn tree_allreduce_has_one_rule() {
    // Zoot above the 16 KB collapse threshold, below the ring cut-over: the
    // size where the old per-caller rules disagreed (collapsed vs
    // hierarchical tree, class-0 vs per-edge chunks).
    let bytes = 200_000;
    let session = Session::new(Arc::new(machines::zoot()), BindingPolicy::Contiguous, 16).unwrap();
    let comm = session.comm();
    let algo = AdaptiveColl::allreduce_algorithm_choice(comm, bytes, DataOp::Add);
    assert_eq!(algo, AllreduceAlgo::Tree);
    let request = Request { allreduce: algo, ..Request::new(Collective::Allreduce, 0, bytes) };

    // The gate's construction: hierarchical tree, distance matrix passed.
    let dist = comm.distances_arc();
    let tree = build_bcast_tree(&dist, 0);
    let gate = allreduce_schedule_dist(&tree, bytes, &SchedConfig::default(), Some(&dist));

    assert_eq!(session.plan(request), gate, "Session");
    let recovery = RecoveryManager::new(Arc::new(TopoCache::new()), comm.clone());
    assert_eq!(recovery.plan(request), gate, "RecoveryManager with no failures");
    assert_eq!(AdaptiveColl.plan(comm, request, Sinks::default()), gate);
}

#[test]
fn session_plans_through_its_cache_without_changing_the_schedule() {
    // `Session::plan` is the schedule each call runs. Through the session's
    // own TopoCache, for all nine collectives, the miss and every later hit
    // must equal the schedule planned with no cache at all — or, where the
    // framework's component rule routes a small broadcast or allgather to
    // another component, that component's schedule.
    let framework = CollFramework;
    let p2p = P2pConfig::default();
    for (machine, n) in [(machines::ig(), 12), (machines::zoot(), 16)] {
        let session = Session::new(Arc::new(machine), BindingPolicy::CrossSocket, n).unwrap();
        let comm = session.comm();
        let uncached = AdaptiveColl;
        for request in requests(n) {
            let plain = match request.collective {
                // `requests` gives allgather a 1500-byte block: tuned's.
                Collective::Allgather => framework.allgather(comm, request.bytes),
                _ => uncached.plan(comm, request, Sinks::default()),
            };
            for pass in ["miss", "hit", "hit again"] {
                assert_eq!(session.plan(request), plain, "{} {request:?}: {pass}", comm.name());
            }
        }
        let root = n / 3;
        let plan = |collective, bytes| session.plan(Request::new(collective, root, bytes));
        assert_eq!(
            plan(Collective::Bcast, 200_000),
            framework.bcast(comm, root, 200_000),
            "the KnemColl branch of the framework's bcast"
        );
        assert_eq!(
            plan(Collective::Allgather, 4096),
            framework.allgather(comm, 4096),
            "the KnemColl branch of the framework's allgather"
        );
        // The sizes the rule routes elsewhere, and one it does not.
        assert_eq!(plan(Collective::Bcast, 1024), framework.bcast(comm, root, 1024), "1 KiB bcast");
        assert_eq!(plan(Collective::Bcast, 8192), tuned::bcast(n, root, 8192, &p2p), "8 KiB bcast");
        assert_eq!(
            plan(Collective::Allgather, 1024),
            tuned::allgather(n, 1024, &p2p),
            "1 KiB allgather"
        );
        let big = Request::new(Collective::Bcast, root, 1 << 20);
        assert_eq!(session.plan(big), uncached.plan(comm, big, Sinks::default()), "1 MiB bcast");
    }
}

#[test]
fn every_size_rule_flips_exactly_at_its_threshold() {
    // Planned through `Session`, so each row is the schedule a call runs.
    // Zoot's 16 ranks share memory controllers, so the collapse rule has
    // something to collapse; 16 ranks of 8-byte lanes put the largest ring
    // size below `RING_ALLREDUCE_MIN_BYTES` at 128 bytes under it.
    let n = 16;
    let session = Session::new(Arc::new(machines::zoot()), BindingPolicy::Contiguous, n).unwrap();
    let comm = session.comm();
    let bcast = |bytes| Request::new(Collective::Bcast, 0, bytes);
    let allgather = |bytes| Request::new(Collective::Allgather, 0, bytes);
    let allreduce = |bytes| Request {
        op: DataOp::SumF64,
        allreduce: AdaptiveColl::allreduce_algorithm_choice(comm, bytes, DataOp::SumF64),
        ..Request::new(Collective::Allreduce, 0, bytes)
    };
    let sm = SM_BCAST_MAX_BYTES;
    let tb = TUNED_BCAST_MAX_BYTES;
    let ta = TUNED_ALLGATHER_MAX_BYTES;
    let c = COLLAPSE_ABOVE_BYTES;
    let r = RING_ALLREDUCE_MIN_BYTES;
    let (linear, ring) = ("knemcoll-bcast/linearized", "dist-ring-allreduce");
    // Per threshold: the last request on its near side, the first past it,
    // and the schedule-name prefix each plans to.
    let rows = [
        (bcast(sm), bcast(sm + 1), "sm-", "tuned-"),
        (bcast(tb), bcast(tb + 1), "tuned-", "knemcoll-"),
        (allgather(ta), allgather(ta + 1), "tuned-", "knemcoll-"),
        (bcast(c), bcast(c + 1), "tuned-", linear),
        (allreduce(r - 128), allreduce(r), "dist-allreduce", ring),
    ];
    for (near, past, near_name, past_name) in rows {
        for (request, want) in [(near, near_name), (past, past_name)] {
            let name = session.plan(request).name;
            assert!(name.starts_with(want), "{request:?}: {name}");
        }
    }
    // Session sends a broadcast at the collapse threshold to tuned, so the
    // rule's near side is read off the distance-aware component.
    assert_eq!(AdaptiveColl.bcast(comm, 0, c).name, "knemcoll-bcast/hier");
}
