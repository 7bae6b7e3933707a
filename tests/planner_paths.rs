//! The one planner path, table-tested: for every collective on every
//! machine and placement, the schedule is the same whichever sinks are
//! attached, the cache sees one miss then hits, the recorder covers every
//! planned op, and the schedule passes its semantic oracle.

use std::sync::Arc;

use pdac::collectives::adaptive::BcastTopology;
use pdac::collectives::sched::{allreduce_schedule_dist, SchedConfig};
use pdac::collectives::{
    build_bcast_tree, verify, AdaptiveColl, AllreduceAlgo, Collective, DecisionKind, Provenance,
    RecoveryManager, Request, Sinks, TopoCache,
};
use pdac::hwtopo::{cluster, machines, BindingPolicy, Machine};
use pdac::mpi::Session;
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

/// The nine default requests plus the two explicit variants callers use
/// (the Figure 8 forced topology, `Session`'s ring allreduce).
fn requests(n: usize) -> Vec<Request> {
    let root = n / 3;
    let mut out: Vec<Request> = Collective::ALL
        .into_iter()
        .map(|c| {
            let message_sized = matches!(
                c,
                Collective::Bcast | Collective::Allreduce | Collective::Reduce
            );
            // `verify::pattern` repeats every 256 bytes, so a block size off
            // that period keeps a misplaced block from passing.
            Request::new(c, root, if message_sized { 200_000 } else { 1500 })
        })
        .collect();
    out.push(Request {
        bcast_topo: Some(BcastTopology::Collapsed),
        ..Request::new(Collective::Bcast, root, 200_000)
    });
    out.push(Request {
        allreduce: AllreduceAlgo::Ring,
        ..Request::new(Collective::Allreduce, root, n * 4096)
    });
    out
}

fn cache_choice(prov: &Provenance) -> Option<&str> {
    prov.decisions_of(DecisionKind::CacheLookup)
        .first()
        .map(|d| d.choice.as_str())
}

#[test]
fn every_sink_combination_plans_the_same_schedule() {
    let coll = AdaptiveColl::default();
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
                let sinks = Sinks {
                    cache: None,
                    provenance: Some(&mut recorded),
                };
                assert_eq!(
                    coll.plan(&comm, request, sinks),
                    plain,
                    "{ctx}: recorder only"
                );

                let recorded_cache = TopoCache::new();
                let (mut missed, mut hit) = (Provenance::default(), Provenance::default());
                for prov in [&mut missed, &mut hit] {
                    let sinks = Sinks {
                        cache: Some(&recorded_cache),
                        provenance: Some(prov),
                    };
                    assert_eq!(
                        coll.plan(&comm, request, sinks),
                        plain,
                        "{ctx}: cache + recorder"
                    );
                }

                for prov in [&recorded, &missed, &hit] {
                    assert_eq!(prov.planned_ops.len(), plain.ops.len(), "{ctx}");
                    assert_eq!(prov.schedule_name, plain.name, "{ctx}");
                    assert_eq!(prov.collective, request.collective.label(), "{ctx}");
                    assert_eq!(prov.decisions_of(DecisionKind::Algorithm).len(), 1, "{ctx}");
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
    let request = Request {
        allreduce: algo,
        ..Request::new(Collective::Allreduce, 0, bytes)
    };

    // The gate's construction: hierarchical tree, distance matrix passed.
    let dist = comm.distances_arc();
    let tree = build_bcast_tree(&dist, 0);
    let gate = allreduce_schedule_dist(&tree, bytes, &SchedConfig::default(), Some(&dist));

    assert_eq!(session.plan(request), gate, "Session");
    let recovery = RecoveryManager::new(
        AdaptiveColl::default(),
        Arc::new(TopoCache::new()),
        comm.clone(),
    );
    assert_eq!(
        recovery.plan(request),
        gate,
        "RecoveryManager with no failures"
    );
    assert_eq!(
        AdaptiveColl::default().plan(comm, request, Sinks::default()),
        gate
    );
}

#[test]
fn session_plans_through_its_cache_without_changing_the_schedule() {
    // `Session::plan` always goes through the session's own TopoCache now;
    // for all nine collectives the miss and every later hit must equal the
    // schedule planned with no cache at all — also where `Session` routes a
    // broadcast or allgather to the distance-aware component itself.
    for (machine, n) in [(machines::ig(), 12), (machines::zoot(), 16)] {
        let session = Session::new(Arc::new(machine), BindingPolicy::CrossSocket, n).unwrap();
        let comm = session.comm();
        let uncached = AdaptiveColl::default();
        for request in requests(n) {
            let plain = uncached.plan(comm, request, Sinks::default());
            for pass in ["miss", "hit", "hit again"] {
                assert_eq!(session.plan(request), plain, "{} {request:?}: {pass}", comm.name());
            }
        }
        let framework = pdac::collectives::framework::CollFramework::default();
        let (root, bytes) = (n / 3, 200_000);
        assert_eq!(
            session.plan(Request::new(Collective::Bcast, root, bytes)),
            framework.bcast(comm, root, bytes),
            "the KnemColl branch of the framework's bcast"
        );
        assert_eq!(
            session.plan(Request::new(Collective::Allgather, 0, 4096)),
            framework.allgather(comm, 4096),
            "the KnemColl branch of the framework's allgather"
        );
    }
}
