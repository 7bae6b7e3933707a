//! Chrome-tracing export of simulated executions.
//!
//! Converts a [`Schedule`] plus its [`SimReport`] into events for the
//! Chrome Trace Event JSON format (`chrome://tracing`, or [Perfetto](https://ui.perfetto.dev)):
//! one row per rank, one duration event per operation, labelled with the
//! op kind, peer and byte count. The pipelining structure of a collective —
//! who waits on whom, where the bottleneck rank sits — becomes visible at a
//! glance.
//!
//! Rendering goes through the workspace-wide exporter in
//! [`pdac_telemetry::export`], so a simulated run (pid 1, process `sim`)
//! and a real-thread run of the same schedule (pid 2, process `real`) load
//! side-by-side in one Perfetto window without colliding.

use crate::engine::SimReport;
use crate::lower::distance_class;
use crate::schedule::{OpKind, Schedule};

use pdac_hwtopo::DistanceMatrix;
use pdac_telemetry::{Event, EventKind};

/// Renders a dependency list as the compact `deps` span argument
/// (`"0,3,7"`), the linking metadata `pdac-analyze` uses to rebuild the
/// op DAG from a trace alone.
pub fn deps_arg(deps: &[usize]) -> String {
    let mut out = String::new();
    for (i, d) in deps.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&d.to_string());
    }
    out
}

/// Converts one simulated run into exporter events: one `X` event per
/// operation, on the executor's rank row (sender's row for notifies), with
/// op kind, peers, byte count and dependency links in the args. Each op's
/// `dist` argument labels its pair with the paper's `d0..d8` classes from
/// `distances` (0 without a matrix), matching the real executor's span
/// labels so the two legs join class-by-class. Timestamps are microseconds
/// (the format's native unit); render them with
/// [`pdac_telemetry::export::chrome_trace`] under
/// [`pdac_telemetry::TraceMeta::sim`].
pub fn sim_events_with_distances(
    schedule: &Schedule,
    report: &SimReport,
    distances: Option<&DistanceMatrix>,
) -> Vec<Event> {
    let mut events = Vec::with_capacity(schedule.ops.len());
    for (id, op) in schedule.ops.iter().enumerate() {
        let dist = usize::from(distance_class(&op.kind, distances));
        let (name, cat, tid, mut args) = match &op.kind {
            OpKind::Copy { src_rank, dst_rank, bytes, mech, exec, .. } => (
                format!("{mech:?} {src_rank}->{dst_rank} ({bytes}B)"),
                "copy",
                *exec,
                vec![
                    ("op", id.into()),
                    ("src", (*src_rank).into()),
                    ("dst", (*dst_rank).into()),
                    ("bytes", (*bytes).into()),
                    ("mech", format!("{mech:?}").into()),
                    ("dist", dist.into()),
                ],
            ),
            OpKind::Notify { from, to } => (
                format!("notify {from}->{to}"),
                "notify",
                *from,
                vec![
                    ("op", id.into()),
                    ("src", (*from).into()),
                    ("dst", (*to).into()),
                    ("to", (*to).into()),
                    ("dist", dist.into()),
                ],
            ),
        };
        let deps = schedule.deps(id);
        if !deps.is_empty() {
            args.push(("deps", deps_arg(deps).into()));
        }
        let ts_us = report.op_start[id] * 1e6;
        let dur_us = (report.op_finish[id] - report.op_start[id]).max(0.0) * 1e6;
        events.push(Event {
            seq: id as u64,
            ts_us,
            dur_us,
            tid: tid as u64,
            name,
            cat,
            kind: EventKind::Complete,
            args,
        });
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimConfig, SimExecutor};
    use crate::schedule::{BufId, Mech, ScheduleBuilder};
    use pdac_hwtopo::{machines, Binding};
    use pdac_telemetry::export::{chrome_trace, TraceMeta};

    #[test]
    fn trace_is_valid_json_with_one_event_per_op() {
        let ig = machines::ig();
        let binding = Binding::identity(&ig);
        let mut b = ScheduleBuilder::new("t", 4);
        let a = b.copy((0, BufId::Send, 0), (1, BufId::Recv, 0), 4096, Mech::Knem, 1, &[]);
        let n = b.notify(1, 2, &[a]);
        b.copy((1, BufId::Recv, 0), (2, BufId::Recv, 0), 4096, Mech::Memcpy, 2, &[n]);
        let s = b.finish();
        let rep = SimExecutor::new(&ig, &binding, SimConfig::default()).run(&s).unwrap();
        let events = sim_events_with_distances(&s, &rep, None);
        let trace = chrome_trace(&events, &TraceMeta::sim().with_ranks(s.num_ranks));

        let parsed: serde_json::Value = serde_json::from_str(&trace).expect("valid JSON");
        let events = parsed["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 1 + 4 + 3, "process name + 4 rank names + 3 ops");
        assert_eq!(events[0]["args"]["name"], "sim", "sim runs are labelled");
        assert_eq!(events[0]["pid"].as_u64(), Some(1));
        // Durations are non-negative and ordered along the dependency chain.
        let xs: Vec<&serde_json::Value> = events.iter().filter(|e| e["ph"] == "X").collect();
        assert_eq!(xs.len(), 3);
        assert!(xs.iter().all(|e| e["dur"].as_f64().unwrap() >= 0.0));
        assert_eq!(xs[0]["args"]["bytes"].as_u64(), Some(4096));
        let t0 = xs[0]["ts"].as_f64().unwrap() + xs[0]["dur"].as_f64().unwrap();
        let t2 = xs[2]["ts"].as_f64().unwrap();
        assert!(t2 >= t0, "dependent copy starts after the first finishes");

        // Classes come from the matrix when there is one, else 0.
        assert!(xs.iter().all(|e| e["args"]["dist"].as_u64() == Some(0)));
        let distances = DistanceMatrix::for_binding(&ig, &binding);
        let classed = sim_events_with_distances(&s, &rep, Some(&distances));
        assert_eq!(classed[0].arg_u64("dist"), Some(u64::from(distances.get(0, 1))));
        assert_eq!(classed[2].arg_u64("dist"), Some(u64::from(distances.get(1, 2))));
    }
}
