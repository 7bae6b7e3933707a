//! Chrome-tracing export of simulated executions.
//!
//! A [`Schedule`] plus its [`SimReport`] is viewed as a [`SimTrace`]: one
//! span per operation, on the executor's rank row, labelled with the op
//! kind, peer and byte count. `pdac-analyze` reads the view directly;
//! [`SimTrace::events`] renders it for the Chrome Trace Event JSON format
//! (`chrome://tracing`, or [Perfetto](https://ui.perfetto.dev)).
//!
//! Rendering goes through the workspace-wide exporter in
//! [`pdac_telemetry::export`], so a simulated run (pid 1, process `sim`)
//! and a real-thread run of the same schedule (pid 2, process `real`) load
//! side-by-side in one Perfetto window without colliding.

use std::fmt::Write;

use crate::engine::SimReport;
use crate::lower::distance_class;
use crate::schedule::{Mech, OpKind, Rank, Schedule};

use pdac_hwtopo::DistanceMatrix;
use pdac_telemetry::{Event, EventKind};

/// Renders a dependency list as the compact `deps` span argument
/// (`"0,3,7"`), the linking metadata `pdac-analyze` uses to rebuild the
/// op DAG from a trace alone.
pub fn deps_arg(deps: &[usize]) -> String {
    let mut out = String::new();
    for d in deps {
        let _ = write!(out, "{}{d}", if out.is_empty() { "" } else { "," });
    }
    out
}

/// The span label of one op, the same on both executors:
/// `"Knem 0->3 (4096B)"` for a copy, `"notify 3->0"` for a notification.
/// One allocation for any label up to 32 bytes (`format!` grows from empty).
pub fn op_label(kind: &OpKind) -> String {
    match *kind {
        OpKind::Copy { src_rank, dst_rank, bytes, mech, .. } => {
            span_label(Some(mech), src_rank, dst_rank, bytes)
        }
        OpKind::Notify { from, to } => span_label(None, from, to, 0),
    }
}

/// [`op_label`] from an op's copy mechanism (`None` for a notification),
/// endpoints and bytes.
pub fn span_label(mech: Option<Mech>, from: Rank, to: Rank, bytes: usize) -> String {
    let mut label = String::with_capacity(32);
    let _ = match mech {
        Some(mech) => write!(label, "{} {from}->{to} ({bytes}B)", mech.name()),
        None => write!(label, "notify {from}->{to}"),
    };
    label
}

/// One simulated run seen as spans, borrowed; see [`sim_events_with_distances`].
#[derive(Debug, Clone, Copy)]
pub struct SimTrace<'a> {
    /// The schedule the run executed.
    pub schedule: &'a Schedule,
    report: &'a SimReport,
    distances: Option<&'a DistanceMatrix>,
}

/// Views one simulated run as one span per operation, on the executor's
/// rank row (sender's row for notifies), without per-op work. Each op's
/// distance class labels its pair with the paper's `d0..d8` classes from
/// `distances` (0 without a matrix), matching the real executor's span
/// labels so the two legs join class-by-class.
pub fn sim_events_with_distances<'a>(
    schedule: &'a Schedule,
    report: &'a SimReport,
    distances: Option<&'a DistanceMatrix>,
) -> SimTrace<'a> {
    SimTrace { schedule, report, distances }
}

impl<'a> SimTrace<'a> {
    /// Start and (never negative) duration of op `id` in microseconds, the
    /// trace format's native unit.
    pub fn span_us(&self, id: usize) -> (f64, f64) {
        let (start, finish) = (self.report.op_start[id], self.report.op_finish[id]);
        (start * 1e6, (finish - start).max(0.0) * 1e6)
    }

    /// Distance class of op `id`'s endpoints (0 without a matrix).
    pub fn dist(&self, id: usize) -> u8 {
        distance_class(&self.schedule.ops[id].kind, self.distances)
    }

    /// The view as exporter events: one `X` event per operation, with op
    /// kind, peers, byte count, distance class and dependency links in the
    /// args. Render them with [`pdac_telemetry::export::chrome_trace`]
    /// under [`pdac_telemetry::TraceMeta::sim`].
    pub fn events(&self) -> Vec<Event> {
        let schedule = self.schedule;
        let mut events = Vec::with_capacity(schedule.ops.len());
        for (id, op) in schedule.ops.iter().enumerate() {
            let dist = usize::from(self.dist(id));
            let (cat, mut args) = match &op.kind {
                OpKind::Copy { src_rank, dst_rank, bytes, mech, .. } => (
                    "copy",
                    vec![
                        ("op", id.into()),
                        ("src", (*src_rank).into()),
                        ("dst", (*dst_rank).into()),
                        ("bytes", (*bytes).into()),
                        ("mech", mech.name().into()),
                        ("dist", dist.into()),
                    ],
                ),
                OpKind::Notify { from, to } => (
                    "notify",
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
            let (ts_us, dur_us) = self.span_us(id);
            events.push(Event {
                seq: id as u64,
                ts_us,
                dur_us,
                tid: op.kind.executor() as u64,
                name: op_label(&op.kind),
                cat,
                kind: EventKind::Complete,
                args,
            });
        }
        events
    }
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
        let events = sim_events_with_distances(&s, &rep, None).events();
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
        let classed = sim_events_with_distances(&s, &rep, Some(&distances)).events();
        assert_eq!(classed[0].arg_u64("dist"), Some(u64::from(distances.get(0, 1))));
        assert_eq!(classed[2].arg_u64("dist"), Some(u64::from(distances.get(1, 2))));
    }
}
