//! Telemetry acceptance: exported traces parse with the vendored
//! serde_json and carry one `X` event per executed operation, for both the
//! simulated and the real executor path — rendered by the same exporter,
//! under distinct process identities, so they load side-by-side in Perfetto. Registry snapshots round-trip
//! through JSON and diff cleanly.

use std::sync::Arc;

use pdac::analyze::{events_from_chrome_trace, CriticalPathReport, OpGraph, OpSpan};
use pdac::collectives::adaptive::AdaptiveColl;
use pdac::collectives::metrics::fault_summary_line;
use pdac::collectives::Collective::*;
use pdac::collectives::{AllreduceAlgo, Request, Sinks};
use pdac::hwtopo::{cluster, machines, BindingPolicy};
use pdac::mpisim::Communicator;
use pdac::simnet::trace::sim_events_with_distances;
use pdac::simnet::{FaultStats, SimConfig, SimExecutor};
use pdac::telemetry::{chrome_trace, RegistrySnapshot, TraceMeta};

fn bcast_world(ranks: usize, bytes: usize) -> (Communicator, pdac::simnet::Schedule) {
    let machine = Arc::new(machines::ig());
    let binding = BindingPolicy::Contiguous.bind(&machine, ranks).expect("binding fits");
    let comm = Communicator::world(Arc::clone(&machine), binding);
    let schedule = AdaptiveColl.bcast(&comm, 0, bytes);
    (comm, schedule)
}

#[test]
fn sim_trace_round_trips_with_one_x_event_per_op() {
    let (comm, schedule) = bcast_world(8, 1 << 16);
    let report = SimExecutor::new(comm.machine(), comm.binding(), SimConfig::default())
        .run(&schedule)
        .expect("schedule validates");

    let events = sim_events_with_distances(&schedule, &report, None).events();
    let trace = chrome_trace(&events, &TraceMeta::sim().with_ranks(schedule.num_ranks));
    let parsed: serde_json::Value = serde_json::from_str(&trace).expect("trace is valid JSON");
    let rows = parsed["traceEvents"].as_array().expect("traceEvents array");

    let xs: Vec<_> = rows.iter().filter(|r| r["ph"] == "X").collect();
    assert_eq!(xs.len(), schedule.ops.len(), "one X event per executed op");
    assert!(xs.iter().all(|e| e["pid"].as_u64() == Some(1)), "sim rows live under pid 1");
    let process = rows.iter().find(|r| r["name"] == "process_name").expect("process_name row");
    assert_eq!(process["args"]["name"], "sim");
    let threads: Vec<_> = rows.iter().filter(|r| r["name"] == "thread_name").collect();
    assert_eq!(threads.len(), schedule.num_ranks, "every rank row is named");
}

/// The analyzer reads the sim leg through its view, without rendering
/// events. Parsing the rendered events, or those events out to a trace file
/// and back, must give the same spans and the same critical path, for every
/// collective on one machine, one cross-socket placement and one cluster.
#[test]
fn sim_trace_view_gives_the_spans_its_events_parse_to() {
    let ig = machines::ig();
    let ig_x2 = cluster::homogeneous("ig-x2", &ig, 2, 1).expect("cluster builds");
    let worlds = [
        ("zoot-16", machines::zoot(), BindingPolicy::Contiguous, 16),
        ("ig-48", ig, BindingPolicy::CrossSocket, 48),
        ("ig-x2-96", ig_x2, BindingPolicy::CrossNode, 96),
    ];
    for (world, machine, policy, ranks) in worlds {
        let machine = Arc::new(machine);
        let binding = policy.bind(&machine, ranks).expect("binding fits");
        let comm = Communicator::world(Arc::clone(&machine), binding);
        let dist = comm.distances();
        let sim = SimExecutor::new(&machine, comm.binding(), SimConfig::default());
        let ring =
            Request { allreduce: AllreduceAlgo::Ring, ..Request::new(Allreduce, 0, ranks << 10) };
        let requests = [
            Request::new(Bcast, 0, 16 << 10),
            Request::new(Bcast, 0, 1 << 20),
            Request::new(Allgather, 0, 4 << 10),
            Request::new(Allreduce, 0, 64 << 10),
            ring,
            Request::new(Alltoall, 0, 1 << 10),
            Request::new(ReduceScatter, 0, 4 << 10),
            Request::new(Gather, 1, 4 << 10),
            Request::new(Scatter, 1, 4 << 10),
            Request::new(Barrier, 0, 0),
        ];
        for request in requests {
            let case = format!("{world} {request:?}");
            let schedule = AdaptiveColl.plan(&comm, request, Sinks::default());
            let report = sim.run(&schedule).expect("schedule validates");
            let trace = sim_events_with_distances(&schedule, &report, Some(&dist));
            let events = trace.events();

            let viewed = OpGraph::from_events(&trace);
            let parsed = OpGraph::from_events(&events);
            assert_eq!(viewed.len(), schedule.ops.len(), "{case}");
            let owned = |graph: &OpGraph| graph.spans().map(OpSpan::from).collect::<Vec<_>>();
            assert_eq!(owned(&viewed), owned(&parsed), "{case}");
            assert_eq!(
                CriticalPathReport::extract(&viewed),
                CriticalPathReport::extract(&parsed),
                "{case}"
            );

            let json = chrome_trace(&events, &TraceMeta::sim().with_ranks(ranks));
            let loaded = OpGraph::from_events(&events_from_chrome_trace(&json).expect("parses"));
            assert_eq!(loaded.len(), viewed.len(), "{case}");
            for span in viewed.spans() {
                let file = loaded.get(span.op).expect("every op survives the file");
                // The file keeps microseconds to three decimals.
                assert!((file.start_us - span.start_us).abs() < 1e-3, "{case} op {}", span.op);
                assert!((file.dur_us - span.dur_us).abs() < 1e-3, "{case} op {}", span.op);
                let times = OpSpan { start_us: span.start_us, dur_us: span.dur_us, ..file.into() };
                assert_eq!(times, span.into(), "{case}");
            }
        }
    }
}

/// The real-executor counterpart: an 8-rank bcast on the thread executor,
/// read from the recorder and rendered by the same exporter as the sim
/// trace (acceptance criterion).
#[test]
fn real_trace_round_trips_with_one_x_event_per_op() {
    use pdac::collectives::verify::pattern;
    use pdac::hwtopo::DistanceMatrix;
    use pdac::mpisim::ThreadExecutor;

    let (comm, schedule) = bcast_world(8, 1 << 16);
    let distances = Arc::new(DistanceMatrix::for_binding(comm.machine(), comm.binding()));

    let telemetry = pdac::telemetry::global();
    telemetry.reset();
    let reader = telemetry.recorder().reader();
    ThreadExecutor::new()
        .with_distances(distances)
        .run(&schedule, pattern)
        .expect("collective executes");
    let events = reader.drain();

    let trace = chrome_trace(&events, &TraceMeta::real().with_ranks(schedule.num_ranks));
    let parsed: serde_json::Value = serde_json::from_str(&trace).expect("trace is valid JSON");
    let rows = parsed["traceEvents"].as_array().expect("traceEvents array");

    // One X event per executed op (cat copy/notify), plus the run span.
    let op_xs: Vec<_> = rows
        .iter()
        .filter(|r| r["ph"] == "X" && (r["cat"] == "copy" || r["cat"] == "notify"))
        .collect();
    assert_eq!(op_xs.len(), schedule.ops.len(), "one X event per executed op");
    assert!(op_xs.iter().all(|e| e["pid"].as_u64() == Some(2)), "real rows live under pid 2");
    assert!(
        op_xs.iter().all(|e| e["args"]["dist"].as_u64().is_some()),
        "every op is labelled with its distance class"
    );
    let process = rows.iter().find(|r| r["name"] == "process_name").expect("process_name row");
    assert_eq!(process["args"]["name"], "real");

    // The registry saw the same run: one copy histogram value per copy op.
    let snap = telemetry.registry().snapshot();
    let copies: u64 = snap
        .histograms
        .iter()
        .filter(|(name, _)| {
            name.starts_with("exec.op_ns.knem") || name.starts_with("exec.op_ns.memcpy")
        })
        .map(|(_, h)| h.count)
        .sum();
    let copy_ops =
        schedule.ops.iter().filter(|o| matches!(o.kind, pdac::simnet::OpKind::Copy { .. })).count();
    assert_eq!(copies as usize, copy_ops, "one latency sample per copy op");
}

#[test]
fn snapshot_diff_round_trips_through_json() {
    let reg = pdac::telemetry::Registry::new();
    reg.add("knem.copies", 7);
    reg.histogram("exec.op_ns.knem.d5").record(1000);
    let base = reg.snapshot();
    reg.add("knem.copies", 3);
    reg.histogram("exec.op_ns.knem.d5").record(3000);
    let new = RegistrySnapshot::from_json(&reg.snapshot().to_json()).expect("round-trips");

    let rows = pdac::telemetry::diff::diff(&base.flat(), &new.flat());
    let row = |key: &str| rows.lines().find(|l| l.split_whitespace().next() == Some(key));
    let copies = row("knem.copies").unwrap_or_else(|| panic!("{rows}"));
    assert!(copies.contains("7 -> 10"), "{rows}");
    let count = row("exec.op_ns.knem.d5.count").unwrap_or_else(|| panic!("{rows}"));
    assert!(count.contains("1 -> 2"), "{rows}");
    assert!(row("exec.op_ns.knem.d5.mean").is_some(), "{rows}");
    assert!(pdac::telemetry::diff::diff(&new.flat(), &new.flat()).contains("no differences"));
}

#[test]
fn fault_summary_includes_retries_and_backoff() {
    let stats = FaultStats { retries: 4, backoff_ns: 2_500_000, ..FaultStats::default() };
    let line = fault_summary_line(&stats);
    assert!(line.contains("4 retries"), "{line}");
    assert!(line.contains("2.500 ms backoff"), "{line}");
    // Membership counters render even when zero, so lines from different
    // runs stay column-comparable.
    assert!(line.contains("0 suspected (0 refuted)"), "{line}");
    assert!(line.contains("0 confirmed dead"), "{line}");
    assert!(line.contains("0 fenced"), "{line}");
    assert!(line.contains("0 degraded runs"), "{line}");

    // Non-zero membership counters slot into the same positions without
    // reshaping the line.
    let busy = FaultStats {
        suspects_raised: 3,
        suspects_refuted: 2,
        ranks_confirmed_dead: 1,
        fenced_messages: 5,
        degraded_runs: 1,
        ..FaultStats::default()
    };
    let busy_line = fault_summary_line(&busy);
    assert!(busy_line.contains("3 suspected (2 refuted)"), "{busy_line}");
    assert!(busy_line.contains("1 confirmed dead"), "{busy_line}");
    assert!(busy_line.contains("5 fenced"), "{busy_line}");
    assert!(busy_line.contains("1 degraded runs"), "{busy_line}");
    assert_eq!(
        line.matches(',').count(),
        busy_line.matches(',').count(),
        "zero and non-zero lines have the same shape:\n{line}\n{busy_line}"
    );
}
