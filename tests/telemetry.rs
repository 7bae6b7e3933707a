//! Telemetry acceptance: exported traces parse with the vendored
//! serde_json and carry one `X` event per executed operation, for both the
//! simulated and the real executor path — rendered by the same exporter,
//! under distinct process identities, so they load side-by-side in Perfetto. Registry snapshots round-trip
//! through JSON and diff cleanly.

use std::sync::Arc;

use pdac::collectives::adaptive::AdaptiveColl;
use pdac::collectives::metrics::fault_summary_line;
use pdac::hwtopo::{machines, BindingPolicy};
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

    let events = sim_events_with_distances(&schedule, &report, None);
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
