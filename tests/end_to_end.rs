//! End-to-end integration: every collective, on every predefined machine,
//! under multiple placements, through both executors.

use std::sync::Arc;

use pdac::collectives::adaptive::AdaptiveColl;
use pdac::collectives::{barrier, gather, reduce, scatter, verify, Collective, Request, Sinks};
use pdac::hwtopo::{machines, BindingPolicy};
use pdac::mpisim::Communicator;
use pdac::simnet::{SimConfig, SimExecutor};

fn communicators() -> Vec<Communicator> {
    let mut comms = Vec::new();
    for machine in machines::all_predefined() {
        let n = machine.num_cores();
        let m = Arc::new(machine);
        for policy in [
            BindingPolicy::Contiguous,
            BindingPolicy::CrossSocket,
            BindingPolicy::Random { seed: 0xC0FFEE },
        ] {
            let binding = policy.bind(&m, n).unwrap();
            comms.push(Communicator::world(Arc::clone(&m), binding));
        }
    }
    comms
}

#[test]
fn bcast_correct_and_simulatable_everywhere() {
    let coll = AdaptiveColl;
    for comm in communicators() {
        for bytes in [100usize, 60_000, 400_000] {
            let s = coll.bcast(&comm, 0, bytes);
            verify::run(Request::new(Collective::Bcast, 0, bytes), &s)
                .unwrap_or_else(|e| panic!("{} ({} ranks): {e}", s.name, comm.size()));
            let rep = SimExecutor::new(comm.machine(), comm.binding(), SimConfig::default())
                .run(&s)
                .unwrap();
            assert!(rep.total_time > 0.0 && rep.total_time < 1.0);
        }
    }
}

#[test]
fn allgather_correct_and_simulatable_everywhere() {
    let coll = AdaptiveColl;
    for comm in communicators() {
        let s = coll.allgather(&comm, 3000);
        verify::run(Request::new(Collective::Allgather, 0, 3000), &s)
            .unwrap_or_else(|e| panic!("{} ({} ranks): {e}", s.name, comm.size()));
        let rep =
            SimExecutor::new(comm.machine(), comm.binding(), SimConfig { allow_cache: false })
                .run(&s)
                .unwrap();
        assert!(rep.total_time > 0.0);
    }
}

#[test]
fn extension_collectives_correct_on_hostile_subgroups() {
    // Permuted sub-communicators over a randomly bound world.
    let ig = Arc::new(machines::ig());
    let binding = BindingPolicy::Random { seed: 99 }.bind(&ig, 48).unwrap();
    let world = Communicator::world(ig, binding);
    let sub = world.subset(&[40, 1, 25, 13, 7, 31, 46, 19, 4, 37, 10, 28]);

    let s = reduce::distance_aware(&sub, 3, 12_345);
    verify::run(Request::new(Collective::Reduce, 3, 12_345), &s).unwrap();

    let request = Request::new(Collective::Allreduce, 0, 12_345);
    let s = AdaptiveColl.plan(&sub, request, Sinks::default());
    verify::run(request, &s).unwrap();

    let s = gather::distance_aware(&sub, 5, 2_048);
    verify::run(Request::new(Collective::Gather, 5, 2_048), &s).unwrap();

    let s = scatter::distance_aware(&sub, 5, 2_000);
    verify::run(Request::new(Collective::Scatter, 5, 2_000), &s).unwrap();

    let s = barrier::distance_aware(&sub);
    s.validate().unwrap();
    let rep = SimExecutor::new(sub.machine(), sub.binding(), SimConfig::default()).run(&s).unwrap();
    assert!(rep.total_time > 0.0);
}

#[test]
fn split_communicators_run_independent_collectives() {
    // Split IG's world per NUMA node and broadcast within each group.
    let ig = Arc::new(machines::ig());
    let binding = BindingPolicy::Contiguous.bind(&ig, 48).unwrap();
    let world = Communicator::world(Arc::clone(&ig), binding);
    let coll = AdaptiveColl;
    let groups = world.split(|r| ig.core(r).numa as i64, |r| r as i64);
    assert_eq!(groups.len(), 8);
    for g in groups {
        let s = coll.bcast(&g, 2, 10_000);
        verify::run(Request::new(Collective::Bcast, 2, 10_000), &s).unwrap();
        // Intra-socket group: no slow-link traffic at all.
        let stress = pdac::collectives::metrics::link_stress(&s, &g.distances());
        assert_eq!(stress[5] + stress[6], 0);
    }
}

#[test]
fn simulator_traffic_matches_the_analytical_model() {
    // For an all-KNEM broadcast under off-cache (kernel copies leave
    // nothing hot, so every transfer takes the memory route), the
    // simulator's per-controller byte accounting must equal the §IV-C
    // analytic counts exactly: reads + writes attributed per NUMA node.
    use pdac::collectives::bcast_tree::build_bcast_tree;
    use pdac::collectives::metrics::memory_accesses;
    use pdac::collectives::sched::{bcast_schedule_dist, SchedConfig};
    use pdac::hwtopo::DistanceMatrix;

    let ig = Arc::new(machines::ig());
    for policy in [BindingPolicy::Contiguous, BindingPolicy::CrossSocket] {
        let binding = policy.bind(&ig, 48).unwrap();
        let dist = DistanceMatrix::for_binding(&ig, &binding);
        let tree = build_bcast_tree(&dist, 0);
        let sched = bcast_schedule_dist(&tree, 1 << 20, &SchedConfig::default(), None);

        let analytic = memory_accesses(&sched, &ig, &binding);
        let report =
            SimExecutor::new(&ig, &binding, SimConfig { allow_cache: false }).run(&sched).unwrap();
        for numa in 0..8 {
            let expect = (analytic.reads_per_numa[numa] + analytic.writes_per_numa[numa]) as f64;
            assert_eq!(report.mc_bytes(numa), expect, "{policy:?}, numa {numa}");
        }
        assert_eq!(report.board_link_bytes(), analytic.board_cross_bytes as f64);
    }
}

#[test]
fn simulated_time_and_thread_execution_agree_on_schedules() {
    // Both executors must accept exactly the same schedules; any validation
    // divergence is a bug.
    let coll = AdaptiveColl;
    for comm in communicators().into_iter().take(6) {
        let schedules = vec![
            coll.bcast(&comm, 0, 50_000),
            coll.allgather(&comm, 1_000),
            reduce::distance_aware(&comm, 0, 5_000),
        ];
        for s in schedules {
            s.validate().unwrap();
            SimExecutor::new(comm.machine(), comm.binding(), SimConfig::default()).run(&s).unwrap();
            pdac::mpisim::ThreadExecutor::new().run(&s, verify::pattern).unwrap();
        }
    }
}
