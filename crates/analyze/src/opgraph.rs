//! Reconstruction of the op-dependency DAG from recorded span events.
//!
//! Both trace legs speak the same span vocabulary: a *complete* event per
//! executed operation carrying `op` (dense schedule id), `src`/`dst`
//! endpoints, `dist` (process-distance class), `bytes`, `mech`, and a
//! `deps` argument listing the op ids it waited on. That is enough to
//! rebuild the DAG without the original [`pdac_simnet::Schedule`] — a
//! saved trace file is self-describing. The graph is one dense table in
//! start order; a simulated run's labels are rendered only when asked for.

use std::ops::Deref;

use pdac_hwtopo::DIST_MAX_EXTENDED;
use pdac_simnet::trace::{span_label, SimTrace};
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

/// One operation's span, owned: what [`OpGraph::new`] builds from.
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

/// One row of an [`OpGraph`]: a span's fixed-size fields (see [`OpSpan`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    /// Dense schedule-wide operation id.
    pub op: usize,
    /// Logical thread (rank row) the span was recorded on.
    pub tid: u64,
    /// Mechanism bucket.
    pub mech: MechKind,
    /// Process-distance class of the endpoint pair.
    pub dist: u8,
    /// Payload bytes (0 for notifies).
    pub bytes: u64,
    /// Start, microseconds into the run.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// A simulated op's source and destination ranks, for its label.
    ends: (usize, usize),
}

impl SpanRecord {
    /// End timestamp in microseconds.
    pub fn end_us(&self) -> f64 {
        self.start_us + self.dur_us
    }
}

/// One span of an [`OpGraph`], borrowed; it reads as its [`SpanRecord`].
#[derive(Debug, Clone, Copy)]
pub struct SpanRef<'a> {
    rec: &'a SpanRecord,
    /// Op ids this operation waited on (dependency edges).
    pub deps: &'a [usize],
    /// Plan identity stamped on the span, if any (see [`OpSpan::plan`]).
    pub plan: Option<&'a str>,
    label: Option<&'a str>,
}

impl Deref for SpanRef<'_> {
    type Target = SpanRecord;

    fn deref(&self) -> &SpanRecord {
        self.rec
    }
}

impl SpanRef<'_> {
    /// Span label: the exported one, or a simulated op's as the exporter
    /// renders it.
    pub fn name(&self) -> String {
        let mech = [Some(Mech::Knem), Some(Mech::Memcpy), None][self.mech as usize];
        let render = || span_label(mech, self.ends.0, self.ends.1, self.bytes as usize);
        self.label.map_or_else(render, str::to_string)
    }
}

impl From<SpanRef<'_>> for OpSpan {
    fn from(s: SpanRef<'_>) -> OpSpan {
        let (name, deps, plan) = (s.name(), s.deps.to_vec(), s.plan.map(str::to_string));
        let SpanRecord { op, tid, mech, dist, bytes, start_us, dur_us, .. } = *s.rec;
        OpSpan { op, tid, name, mech, dist, bytes, start_us, dur_us, deps, plan }
    }
}

/// An absent entry of the `u32` index tables.
const NONE: u32 = u32::MAX;

/// The reconstructed DAG of one run: op spans in start order, indexed by
/// id, plus the per-rank program order needed for executor-serialization
/// edges.
#[derive(Debug, Clone, Default)]
pub struct OpGraph {
    /// Spans in start order; span `i` waited on `deps[dep_end[i - 1]..dep_end[i]]`.
    recs: Vec<SpanRecord>,
    dep_end: Vec<usize>,
    deps: Vec<usize>,
    /// Exported label and plan id per span; empty for a simulated run.
    texts: Vec<(String, Option<String>)>,
    /// Span index by op id below the span count, and `(op, index)` past it
    /// (an untrusted file may hold any id), sorted: the last span of an id.
    by_op: Vec<u32>,
    far_ops: Vec<(usize, u32)>,
    /// Per span, the previous span on the same tid in start order.
    prev_on_tid: Vec<u32>,
}

/// What an [`OpGraph`] is built from: recorded or loaded events, or a
/// simulated run's [`SimTrace`], read straight from its schedule and report.
pub trait SpanSource {
    /// The graph of these spans.
    fn op_graph(&self) -> OpGraph;
}

impl SpanSource for [Event] {
    /// Every `Complete` event with an `op` argument becomes a span;
    /// instants, unlabelled spans (run-level wrappers, cache events) and
    /// spans whose `dist` is no distance class are ignored.
    fn op_graph(&self) -> OpGraph {
        let spans = self.iter().filter(|e| e.kind == EventKind::Complete).filter_map(|e| {
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
        });
        OpGraph::new(spans.collect())
    }
}

impl SpanSource for Vec<Event> {
    fn op_graph(&self) -> OpGraph {
        self.as_slice().op_graph()
    }
}

impl SpanSource for SimTrace<'_> {
    /// The graph parsing [`SimTrace::events`] would give, without
    /// rendering them: one span per op.
    fn op_graph(&self) -> OpGraph {
        let (ops, deps) = (&self.schedule.ops, |id| self.schedule.deps(id));
        let mut graph =
            OpGraph::with_capacity(ops.len(), (0..ops.len()).map(|id| deps(id).len()).sum());
        for (start_us, op) in start_order((0..ops.len()).map(|id| self.span_us(id).0)) {
            // A deserialized matrix may hold any byte; parsing drops such spans.
            let Some(dist) = Some(self.dist(op)).filter(|d| *d <= DIST_MAX_EXTENDED) else {
                continue;
            };
            let kind = &ops[op].kind;
            let (mech, ends) = match *kind {
                OpKind::Copy { mech: Mech::Knem, src_rank, dst_rank, .. } => {
                    (MechKind::Knem, (src_rank, dst_rank))
                }
                OpKind::Copy { src_rank, dst_rank, .. } => (MechKind::Memcpy, (src_rank, dst_rank)),
                OpKind::Notify { from, to } => (MechKind::Notify, (from, to)),
            };
            let (tid, bytes, dur_us) =
                (kind.executor() as u64, kind.bytes() as u64, self.span_us(op).1);
            graph.push(SpanRecord { op, tid, mech, dist, bytes, start_us, dur_us, ends }, deps(op));
        }
        graph.index()
    }
}

/// `(start, input position)` of every span, in start order, ties in input
/// order.
fn start_order(starts: impl Iterator<Item = f64>) -> Vec<(f64, usize)> {
    let mut order: Vec<(f64, usize)> = starts.zip(0..).collect();
    order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    order
}

impl OpGraph {
    /// Builds a graph from a span list (spans with duplicate op ids keep
    /// the last occurrence). Spans are ordered by start; ties keep their
    /// input order.
    pub fn new(mut spans: Vec<OpSpan>) -> Self {
        let mut graph =
            OpGraph::with_capacity(spans.len(), spans.iter().map(|s| s.deps.len()).sum());
        for (_, i) in start_order(spans.iter().map(|s| s.start_us)) {
            let s = &mut spans[i];
            graph.texts.push((std::mem::take(&mut s.name), s.plan.take()));
            let OpSpan { op, tid, mech, dist, bytes, start_us, dur_us, .. } = *s;
            let rec = SpanRecord { op, tid, mech, dist, bytes, start_us, dur_us, ends: (0, 0) };
            graph.push(rec, &s.deps);
        }
        graph.index()
    }

    /// Rebuilds the DAG from a [`SpanSource`]: recorded or loaded events
    /// (`&[Event]`, `&Vec<Event>`) or a simulated run's [`SimTrace`].
    pub fn from_events<S: SpanSource + ?Sized>(source: &S) -> Self {
        source.op_graph()
    }

    fn with_capacity(spans: usize, deps: usize) -> Self {
        let (recs, dep_end, deps) =
            (Vec::with_capacity(spans), Vec::with_capacity(spans), Vec::with_capacity(deps));
        OpGraph { recs, dep_end, deps, ..OpGraph::default() }
    }

    /// Appends the next span in start order.
    fn push(&mut self, rec: SpanRecord, deps: &[usize]) {
        self.recs.push(rec);
        self.deps.extend_from_slice(deps);
        self.dep_end.push(self.deps.len());
    }

    /// Fills the op-id and program-order tables once every span is in.
    fn index(mut self) -> Self {
        let n = u32::try_from(self.recs.len()).expect("fewer than 2^32 spans");
        let (mut last_on_tid, mut far_tids) = (vec![NONE; n as usize], Vec::new());
        self.by_op = vec![NONE; n as usize];
        for (i, rec) in (0..n).zip(&self.recs) {
            match self.by_op.get_mut(rec.op) {
                Some(slot) => *slot = i,
                None => self.far_ops.push((rec.op, i)),
            }
            let last = usize::try_from(rec.tid).ok().and_then(|t| last_on_tid.get_mut(t));
            self.prev_on_tid.push(last.map_or(NONE, |last| std::mem::replace(last, i)));
            if rec.tid >= u64::from(n) {
                far_tids.push((rec.tid, i));
            }
        }
        self.far_ops.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        self.far_ops.dedup_by_key(|far| far.0);
        far_tids.sort_unstable();
        for pair in far_tids.windows(2).filter(|pair| pair[0].0 == pair[1].0) {
            self.prev_on_tid[pair[1].1 as usize] = pair[0].1;
        }
        self
    }

    /// Spans in start order.
    pub fn spans(&self) -> impl ExactSizeIterator<Item = SpanRef<'_>> {
        (0..self.recs.len()).map(|i| self.span_at(i))
    }

    /// The span of op `id`, if present in this leg.
    pub fn get(&self, op: usize) -> Option<SpanRef<'_>> {
        self.index_of(op).map(|i| self.span_at(i))
    }

    fn index_of(&self, op: usize) -> Option<usize> {
        let far =
            || self.far_ops.binary_search_by_key(&op, |f| f.0).ok().map(|k| self.far_ops[k].1);
        self.by_op.get(op).copied().or_else(far).filter(|&i| i != NONE).map(|i| i as usize)
    }

    /// Number of op spans.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// True when the graph holds no op spans (a trace file without any, or
    /// a schedule with no ops).
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Wall time of the run in microseconds: latest span end minus
    /// earliest span start (0 when empty).
    pub fn wall_us(&self) -> f64 {
        if self.recs.is_empty() {
            return 0.0;
        }
        let start = self.recs.iter().map(|s| s.start_us).fold(f64::INFINITY, f64::min);
        let end = self.recs.iter().map(|s| s.end_us()).fold(f64::NEG_INFINITY, f64::max);
        (end - start).max(0.0)
    }

    /// Vector index of the last-finishing span (None when empty).
    pub(crate) fn latest_end_idx(&self) -> Option<usize> {
        (0..self.recs.len())
            .max_by(|&a, &b| self.recs[a].end_us().total_cmp(&self.recs[b].end_us()))
    }

    /// Predecessor candidates of span `idx`: its dependency spans plus the
    /// previous span on the same tid (executor serialization).
    pub(crate) fn predecessors(&self, idx: usize) -> Vec<usize> {
        let mut preds: Vec<usize> =
            self.span_at(idx).deps.iter().filter_map(|&d| self.index_of(d)).collect();
        let prev = self.prev_on_tid[idx];
        if prev != NONE && !preds.contains(&(prev as usize)) {
            preds.push(prev as usize);
        }
        preds
    }

    pub(crate) fn span_at(&self, idx: usize) -> SpanRef<'_> {
        let text = self.texts.get(idx);
        let deps = &self.deps[idx.checked_sub(1).map_or(0, |p| self.dep_end[p])..self.dep_end[idx]];
        let (label, plan) = (text.map(|t| t.0.as_str()), text.and_then(|t| t.1.as_deref()));
        SpanRef { rec: &self.recs[idx], deps, plan, label }
    }
}

#[cfg(test)]
mod oracle;

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
        assert_eq!(g.get(1).unwrap().deps, [0]);
        assert_eq!(g.get(1).unwrap().mech, MechKind::Knem);
        assert_eq!(g.get(1).unwrap().dist, 2);
        assert_eq!(g.wall_us(), 15.0);
        // Program-order edge: op 2 follows op 1 on tid 1.
        let idx2 = (0..g.len()).find(|&i| g.span_at(i).op == 2).unwrap();
        let preds = g.predecessors(idx2);
        assert_eq!(preds.len(), 1, "dep and program-order predecessor coincide");
    }
}
