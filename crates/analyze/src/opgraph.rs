//! Reconstruction of the op-dependency DAG from recorded span events.
//!
//! Both trace legs speak the same span vocabulary: a *complete* event per
//! executed operation carrying `op` (dense schedule id), `src`/`dst`
//! endpoints, `dist` (process-distance class), `bytes`, `mech`, and a
//! `deps` argument listing the op ids it waited on. That is enough to
//! rebuild the DAG without the original [`pdac_simnet::Schedule`] — a
//! saved trace file is self-describing.

use std::collections::HashMap;

use pdac_hwtopo::DIST_MAX_EXTENDED;
use pdac_simnet::trace::{op_label, SimTrace};
use pdac_simnet::{Mech, OpKind};
use pdac_telemetry::{Event, EventKind};
use serde::{Deserialize, Serialize};

/// The mechanism bucket an operation belongs to, matching the executor's
/// `exec.op_ns.{knem|memcpy|notify}` histogram families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MechKind {
    /// Kernel-assisted single copy.
    Knem,
    /// User-space memcpy.
    Memcpy,
    /// Latency-only control message.
    Notify,
}

impl MechKind {
    /// The histogram-family label (`knem`, `memcpy`, `notify`).
    pub fn label(&self) -> &'static str {
        match self {
            MechKind::Knem => "knem",
            MechKind::Memcpy => "memcpy",
            MechKind::Notify => "notify",
        }
    }
}

/// One operation's span, as reconstructed from a trace leg.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpSpan {
    /// Dense schedule-wide operation id.
    pub op: usize,
    /// Logical thread (rank row) the span was recorded on.
    pub tid: u64,
    /// Span label as exported.
    pub name: String,
    /// Mechanism bucket.
    pub mech: MechKind,
    /// Process-distance class of the endpoint pair (`0..=8`).
    pub dist: u8,
    /// Payload bytes (0 for notifies).
    pub bytes: u64,
    /// Start, microseconds into the run.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Op ids this operation waited on (dependency edges).
    pub deps: Vec<usize>,
    /// Plan identity the executor stamped on the span
    /// (`ThreadExecutor::with_plan_id`), if any — the join key back to the
    /// plan's provenance record.
    #[serde(default)]
    pub plan: Option<String>,
}

impl OpSpan {
    /// End timestamp in microseconds.
    pub fn end_us(&self) -> f64 {
        self.start_us + self.dur_us
    }
}

/// The reconstructed DAG of one run: op spans indexed by id, plus the
/// per-rank program order needed for executor-serialization edges.
#[derive(Debug, Clone, Default)]
pub struct OpGraph {
    spans: Vec<OpSpan>,
    by_op: HashMap<usize, usize>,
    /// For each span (by vector index), the vector index of the previous
    /// span on the same tid in start order, if any.
    prev_on_tid: Vec<Option<usize>>,
}

/// What an [`OpGraph`] is built from: recorded or loaded events, or a
/// simulated run's [`SimTrace`], read straight from its schedule and report.
pub trait SpanSource {
    /// The op spans, in input order.
    fn op_spans(&self) -> Vec<OpSpan>;
}

impl SpanSource for [Event] {
    /// Every `Complete` event with an `op` argument becomes a span;
    /// instants, unlabelled spans (run-level wrappers, cache events) and
    /// spans whose `dist` is no distance class are ignored.
    fn op_spans(&self) -> Vec<OpSpan> {
        self.iter()
            .filter(|e| e.kind == EventKind::Complete)
            .filter_map(|e| {
                let op = e.arg_u64("op")? as usize;
                let dist = u8::try_from(e.arg_u64("dist").unwrap_or(0))
                    .ok()
                    .filter(|d| *d <= DIST_MAX_EXTENDED)?;
                let mech = if e.cat == "notify" {
                    MechKind::Notify
                } else {
                    match e.arg_str("mech") {
                        Some("Knem") => MechKind::Knem,
                        _ => MechKind::Memcpy,
                    }
                };
                let deps = e
                    .arg_str("deps")
                    .map(|s| s.split(',').filter_map(|d| d.parse().ok()).collect())
                    .unwrap_or_default();
                Some(OpSpan {
                    op,
                    tid: e.tid,
                    name: e.name.clone(),
                    mech,
                    dist,
                    bytes: e.arg_u64("bytes").unwrap_or(0),
                    start_us: e.ts_us,
                    dur_us: e.dur_us,
                    deps,
                    plan: e.arg_str("plan").map(str::to_string),
                })
            })
            .collect()
    }
}

impl SpanSource for Vec<Event> {
    fn op_spans(&self) -> Vec<OpSpan> {
        self.as_slice().op_spans()
    }
}

impl SpanSource for SimTrace<'_> {
    /// The spans parsing [`SimTrace::events`] would give, without
    /// rendering them: one per op, in id order.
    fn op_spans(&self) -> Vec<OpSpan> {
        let schedule = self.schedule;
        let mut spans = Vec::with_capacity(schedule.ops.len());
        spans.extend(schedule.ops.iter().enumerate().filter_map(|(id, op)| {
            // A deserialized matrix may hold any byte; parsing drops such spans.
            let dist = Some(self.dist(id)).filter(|d| *d <= DIST_MAX_EXTENDED)?;
            let mech = match op.kind {
                OpKind::Copy { mech: Mech::Knem, .. } => MechKind::Knem,
                OpKind::Copy { .. } => MechKind::Memcpy,
                OpKind::Notify { .. } => MechKind::Notify,
            };
            let (start_us, dur_us) = self.span_us(id);
            Some(OpSpan {
                op: id,
                tid: op.kind.executor() as u64,
                name: op_label(&op.kind),
                mech,
                dist,
                bytes: op.kind.bytes() as u64,
                start_us,
                dur_us,
                deps: schedule.deps(id).to_vec(),
                plan: None,
            })
        }));
        spans
    }
}

impl OpGraph {
    /// Builds a graph from a span list (spans with duplicate op ids keep
    /// the last occurrence). Spans are ordered by start; ties keep their
    /// input order.
    pub fn new(spans: Vec<OpSpan>) -> Self {
        let mut order: Vec<(f64, usize)> = spans.iter().map(|s| s.start_us).zip(0..).collect();
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut slots: Vec<Option<OpSpan>> = spans.into_iter().map(Some).collect();
        let spans: Vec<_> = order.iter().map(|&(_, i)| slots[i].take().expect("once")).collect();
        let mut by_op = HashMap::with_capacity(spans.len());
        let mut last_on_tid: HashMap<u64, usize> = HashMap::new();
        let mut prev_on_tid = Vec::with_capacity(spans.len());
        for (i, s) in spans.iter().enumerate() {
            by_op.insert(s.op, i);
            prev_on_tid.push(last_on_tid.insert(s.tid, i));
        }
        OpGraph { spans, by_op, prev_on_tid }
    }

    /// Rebuilds the DAG from a [`SpanSource`]: recorded or loaded events
    /// (`&[Event]`, `&Vec<Event>`) or a simulated run's [`SimTrace`].
    pub fn from_events<S: SpanSource + ?Sized>(source: &S) -> Self {
        OpGraph::new(source.op_spans())
    }

    /// Spans in start order.
    pub fn spans(&self) -> &[OpSpan] {
        &self.spans
    }

    /// The span of op `id`, if present in this leg.
    pub fn get(&self, op: usize) -> Option<&OpSpan> {
        self.by_op.get(&op).map(|&i| &self.spans[i])
    }

    /// Number of op spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when the graph holds no op spans (a trace file without any, or
    /// a schedule with no ops).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Wall time of the run in microseconds: latest span end minus
    /// earliest span start (0 when empty).
    pub fn wall_us(&self) -> f64 {
        if self.spans.is_empty() {
            return 0.0;
        }
        let start = self.spans.iter().map(|s| s.start_us).fold(f64::INFINITY, f64::min);
        let end = self.spans.iter().map(|s| s.end_us()).fold(f64::NEG_INFINITY, f64::max);
        (end - start).max(0.0)
    }

    /// Vector index of the last-finishing span (None when empty).
    pub(crate) fn latest_end_idx(&self) -> Option<usize> {
        (0..self.spans.len())
            .max_by(|&a, &b| self.spans[a].end_us().total_cmp(&self.spans[b].end_us()))
    }

    /// Predecessor candidates of span `idx`: its dependency spans plus the
    /// previous span on the same tid (executor serialization).
    pub(crate) fn predecessors(&self, idx: usize) -> Vec<usize> {
        let mut preds: Vec<usize> =
            self.spans[idx].deps.iter().filter_map(|d| self.by_op.get(d).copied()).collect();
        if let Some(prev) = self.prev_on_tid[idx] {
            if !preds.contains(&prev) {
                preds.push(prev);
            }
        }
        preds
    }

    pub(crate) fn span_at(&self, idx: usize) -> &OpSpan {
        &self.spans[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdac_telemetry::ArgValue;

    fn span_event(op: u64, tid: u64, ts: f64, dur: f64, deps: &str) -> Event {
        let mut args = vec![
            ("op", ArgValue::U64(op)),
            ("dist", ArgValue::U64(2)),
            ("bytes", ArgValue::U64(1024)),
            ("mech", ArgValue::Str("Knem".into())),
        ];
        if !deps.is_empty() {
            args.push(("deps", ArgValue::Str(deps.into())));
        }
        Event {
            seq: op,
            ts_us: ts,
            dur_us: dur,
            tid,
            name: format!("op{op}"),
            cat: "copy",
            kind: EventKind::Complete,
            args,
        }
    }

    #[test]
    fn graph_rebuilds_ids_deps_and_program_order() {
        let events = vec![
            span_event(0, 0, 0.0, 5.0, ""),
            span_event(1, 1, 5.0, 5.0, "0"),
            span_event(2, 1, 10.0, 5.0, "1"),
            // So must a span whose class is no distance class (a
            // hand-edited file): 300 must not wrap to class 44.
            Event {
                args: vec![("op", ArgValue::U64(3)), ("dist", ArgValue::U64(300))],
                ..span_event(3, 2, 0.0, 1.0, "")
            },
            // An unlabelled wrapper span must be ignored.
            Event {
                seq: 99,
                ts_us: 0.0,
                dur_us: 20.0,
                tid: 0,
                name: "exec_run".into(),
                cat: "exec",
                kind: EventKind::Complete,
                args: vec![],
            },
        ];
        let g = OpGraph::from_events(&events);
        assert_eq!(g.len(), 3);
        assert_eq!(g.get(1).unwrap().deps, vec![0]);
        assert_eq!(g.get(1).unwrap().mech, MechKind::Knem);
        assert_eq!(g.get(1).unwrap().dist, 2);
        assert_eq!(g.wall_us(), 15.0);
        // Program-order edge: op 2 follows op 1 on tid 1.
        let idx2 = (0..g.len()).find(|&i| g.span_at(i).op == 2).unwrap();
        let preds = g.predecessors(idx2);
        assert_eq!(preds.len(), 1, "dep and program-order predecessor coincide");
    }
}
