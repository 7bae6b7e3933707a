//! End-to-end analyzer tests over real schedules: the 32-rank bcast
//! coverage acceptance criterion, divergence on simulated legs, and the
//! full export → re-parse → analyze loop.

use std::sync::Arc;

use pdac_analyze::{events_from_chrome_trace, CriticalPathReport, DivergenceReport, OpGraph};
use pdac_core::AdaptiveColl;
use pdac_hwtopo::{machines, BindingPolicy, DistanceMatrix};
use pdac_mpisim::Communicator;
use pdac_simnet::trace::sim_events_with_distances;
use pdac_simnet::{SimConfig, SimExecutor};
use pdac_telemetry::{chrome_trace, TraceMeta};

fn world_32() -> Communicator {
    // 2 boards x 2 NUMA x 8 cores = 32 ranks, scattered placement so the
    // schedule spans several distance classes.
    let m = Arc::new(machines::synthetic(2, 2, 8, true));
    let binding = BindingPolicy::Random { seed: 7 }.bind(&m, 32).expect("binding fits");
    Communicator::world(m, binding)
}

#[test]
fn bcast_32_critical_path_attributes_at_least_95_percent_of_wall_time() {
    let comm = world_32();
    let schedule = AdaptiveColl.bcast(&comm, 0, 256 * 1024);
    let exec = SimExecutor::new(comm.machine(), comm.binding(), SimConfig::default());
    let report = exec.run(&schedule).expect("simulation runs");

    let dist = DistanceMatrix::for_binding(comm.machine(), comm.binding());
    let events = sim_events_with_distances(&schedule, &report, Some(&dist));
    let graph = OpGraph::from_events(&events);
    assert_eq!(graph.len(), schedule.ops.len(), "every op becomes a span");

    let cp = CriticalPathReport::extract(&graph);
    assert!(
        cp.coverage >= 0.95,
        "critical path must attribute >=95% of wall time, got {:.1}% \
         (wall {:.1}us, on-path {:.1}us)",
        cp.coverage * 100.0,
        cp.wall_us,
        cp.span_us,
    );
    // Attribution tables cover every step and carry real labels.
    assert!(!cp.by_rank.is_empty() && !cp.by_mech.is_empty() && !cp.by_dist.is_empty());
    assert!(cp.by_dist.iter().all(|r| r.key.starts_with('d')));
    assert!(cp.steps.len() > 1, "a 32-rank bcast is never a single op");
    let rendered = cp.render();
    assert!(rendered.contains("coverage"));
}

#[test]
fn divergence_of_a_saved_leg_against_itself_flags_nothing() {
    let comm = world_32();
    let schedule = AdaptiveColl.bcast(&comm, 0, 64 * 1024);
    let exec = SimExecutor::new(comm.machine(), comm.binding(), SimConfig::default());
    let report = exec.run(&schedule).expect("simulation runs");

    let dist = DistanceMatrix::for_binding(comm.machine(), comm.binding());
    // Sim leg: the simulator's events, as `pdac trace` feeds them. "Real"
    // leg: the same events out to a trace file and back. Identical timings
    // up to export rounding, so nothing may flag.
    let events = sim_events_with_distances(&schedule, &report, Some(&dist));
    let sim = OpGraph::from_events(&events);
    let json = chrome_trace(&events.events(), &TraceMeta::real().with_ranks(comm.size()));
    let real = OpGraph::from_events(&events_from_chrome_trace(&json).expect("trace parses"));
    let rep = DivergenceReport::compare(&real, &sim);
    assert_eq!(rep.joined_ops, schedule.ops.len());
    assert_eq!(rep.real_only, 0);
    assert_eq!(rep.sim_only, 0);
    assert!((rep.global_scale - 1.0).abs() < 1e-6);
    assert!(!rep.any_flagged(), "identical legs must not drift: {}", rep.render());
}

#[test]
fn exported_trace_reanalyzes_to_the_same_critical_path() {
    let comm = world_32();
    let schedule = AdaptiveColl.allgather(&comm, 4096);
    let exec = SimExecutor::new(comm.machine(), comm.binding(), SimConfig::default());
    let report = exec.run(&schedule).expect("simulation runs");

    let dist = DistanceMatrix::for_binding(comm.machine(), comm.binding());
    let events = sim_events_with_distances(&schedule, &report, Some(&dist));
    let direct = CriticalPathReport::extract(&OpGraph::from_events(&events));

    // Round-trip through the exported artifact, as `pdac trace analyze`
    // and the CI gate do.
    let json = chrome_trace(&events.events(), &TraceMeta::sim().with_ranks(comm.size()));
    let reparsed = events_from_chrome_trace(&json).expect("trace parses");
    let offline = CriticalPathReport::extract(&OpGraph::from_events(&reparsed));

    assert_eq!(offline.steps.len(), direct.steps.len());
    let direct_ops: Vec<usize> = direct.steps.iter().map(|s| s.op).collect();
    let offline_ops: Vec<usize> = offline.steps.iter().map(|s| s.op).collect();
    assert_eq!(offline_ops, direct_ops, "offline analysis sees the same path");
    assert!((offline.wall_us - direct.wall_us).abs() < 1e-3, "timestamps survive export rounding");
    assert!(offline.coverage >= 0.95);
}
