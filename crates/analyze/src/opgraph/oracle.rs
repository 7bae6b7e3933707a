//! The map-based graph the dense table replaced, kept as its oracle: spans
//! moved into start order, a `HashMap` from op id to the last span with
//! it, and one from tid to the last span on it. Random span lists with
//! repeated, sparse and huge ids and tids must read the same through both.

use std::collections::HashMap;

use proptest::prelude::*;

use super::{MechKind, OpGraph, OpSpan};
use crate::critical_path::{AttributionRow, CriticalPathReport, EdgeKind, PathStep, WAIT_DUST_US};

struct MapGraph {
    spans: Vec<OpSpan>,
    by_op: HashMap<usize, usize>,
    prev_on_tid: Vec<Option<usize>>,
}

impl MapGraph {
    fn new(spans: Vec<OpSpan>) -> Self {
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
        MapGraph { spans, by_op, prev_on_tid }
    }

    fn get(&self, op: usize) -> Option<&OpSpan> {
        self.by_op.get(&op).map(|&i| &self.spans[i])
    }

    fn latest_end_idx(&self) -> Option<usize> {
        (0..self.spans.len())
            .max_by(|&a, &b| self.spans[a].end_us().total_cmp(&self.spans[b].end_us()))
    }

    fn predecessors(&self, idx: usize) -> Vec<usize> {
        let mut preds: Vec<usize> =
            self.spans[idx].deps.iter().filter_map(|d| self.by_op.get(d).copied()).collect();
        if let Some(prev) = self.prev_on_tid[idx] {
            if !preds.contains(&prev) {
                preds.push(prev);
            }
        }
        preds
    }

    /// The critical path as the map-based graph walked it.
    fn critical_path(&self) -> Option<CriticalPathReport> {
        let mut idx = self.latest_end_idx()?;
        let mut rev = vec![(idx, EdgeKind::Start)];
        while let Some(best) = self
            .predecessors(idx)
            .into_iter()
            .max_by(|&a, &b| self.spans[a].end_us().total_cmp(&self.spans[b].end_us()))
            .filter(|best| rev.iter().all(|&(on, _)| on != *best))
        {
            let dep = self.spans[idx].deps.contains(&self.spans[best].op);
            rev.last_mut().expect("non-empty").1 =
                if dep { EdgeKind::Dep } else { EdgeKind::Program };
            rev.push((best, EdgeKind::Start));
            idx = best;
        }
        rev.reverse();
        let steps: Vec<PathStep> = (0..rev.len())
            .map(|i| {
                let (s, edge) = (&self.spans[rev[i].0], rev[i].1);
                let wait_us = match i.checked_sub(1) {
                    Some(p) => dust(s.start_us - self.spans[rev[p].0].end_us()),
                    None => 0.0,
                };
                PathStep {
                    op: s.op,
                    tid: s.tid,
                    name: s.name.clone(),
                    mech: s.mech.label().to_string(),
                    dist: s.dist,
                    bytes: s.bytes,
                    start_us: s.start_us,
                    dur_us: s.dur_us,
                    wait_us,
                    edge,
                }
            })
            .collect();
        let start = self.spans.iter().map(|s| s.start_us).fold(f64::INFINITY, f64::min);
        let end = self.spans.iter().map(|s| s.end_us()).fold(f64::NEG_INFINITY, f64::max);
        let wall_us = (end - start).max(0.0);
        let span_us: f64 = steps.iter().map(|s| s.dur_us).sum();
        Some(CriticalPathReport {
            wall_us,
            span_us,
            wait_us: dust(steps.iter().map(|s| s.wait_us).sum()),
            coverage: if wall_us > 0.0 { (span_us / wall_us).min(1.0) } else { 0.0 },
            total_ops: self.spans.len(),
            by_rank: attribution(&steps, |s| format!("rank {}", s.tid)),
            by_mech: attribution(&steps, |s| s.mech.clone()),
            by_dist: attribution(&steps, |s| format!("d{}", s.dist)),
            steps,
        })
    }
}

fn dust(wait_us: f64) -> f64 {
    if wait_us < WAIT_DUST_US {
        0.0
    } else {
        wait_us
    }
}

fn attribution(steps: &[PathStep], key: impl Fn(&PathStep) -> String) -> Vec<AttributionRow> {
    let mut sums = std::collections::BTreeMap::<String, f64>::new();
    for s in steps {
        *sums.entry(key(s)).or_default() += s.dur_us;
    }
    let total: f64 = steps.iter().map(|s| s.dur_us).sum();
    let share = |us: f64| if total > 0.0 { us / total } else { 0.0 };
    let mut rows: Vec<AttributionRow> =
        sums.into_iter().map(|(key, us)| AttributionRow { key, us, share: share(us) }).collect();
    rows.sort_by(|a, b| b.us.total_cmp(&a.us));
    rows
}

/// Ids and tids: mostly a few small ones, so they repeat, and now and then
/// one far past any table.
fn id() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..12, 0u64..12, 0u64..12, Just(1 << 40), Just(u64::MAX - 1), Just(u64::MAX)]
}

/// `(op, tid, mech, start, dur, dep candidates)`: starts and durations from
/// a few values, so starts and ends tie.
fn raw_span() -> impl Strategy<Value = (u64, u64, u8, u8, u8, Vec<u64>)> {
    (id(), id(), 0u8..3, 0u8..4, 0u8..4, prop::collection::vec(id(), 0..4))
}

/// Spans whose dependencies all start strictly earlier (or name no span),
/// so every critical-path walk ends.
fn spans(raw: Vec<(u64, u64, u8, u8, u8, Vec<u64>)>) -> Vec<OpSpan> {
    let start = |(_, _, _, start, _, _): &(u64, u64, u8, u8, u8, Vec<u64>)| f64::from(*start);
    raw.iter()
        .map(|r| {
            let (op, tid, mech, _, dur, deps) = r;
            let earlier = |d: &&u64| raw.iter().filter(|o| o.0 == **d).all(|o| start(o) < start(r));
            OpSpan {
                op: *op as usize,
                tid: *tid,
                name: format!("op{op}"),
                mech: [MechKind::Knem, MechKind::Memcpy, MechKind::Notify][usize::from(*mech)],
                dist: *mech * 3,
                bytes: u64::from(*dur) << 10,
                start_us: start(r),
                dur_us: f64::from(*dur) * 0.5,
                deps: deps.iter().filter(earlier).map(|&d| d as usize).collect(),
                plan: (*mech == 1).then(|| format!("plan{tid}")),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_dense_table_reads_as_the_map_based_graph(
        raw in prop::collection::vec(raw_span(), 0..24),
    ) {
        let input = spans(raw);
        let dense = OpGraph::new(input.clone());
        let oracle = MapGraph::new(input.clone());

        let owned: Vec<OpSpan> = dense.spans().map(OpSpan::from).collect();
        prop_assert_eq!(&owned, &oracle.spans);
        let probes = input.iter().map(|s| s.op).chain([12, 1 << 41, usize::MAX - 2]);
        for op in probes {
            prop_assert_eq!(dense.get(op).map(OpSpan::from).as_ref(), oracle.get(op), "op {}", op);
        }
        for idx in 0..input.len() {
            prop_assert_eq!(dense.predecessors(idx), oracle.predecessors(idx), "span {}", idx);
        }
        prop_assert_eq!(dense.latest_end_idx(), oracle.latest_end_idx());
        prop_assert_eq!(dense.wall_us(), oracle.critical_path().map_or(0.0, |r| r.wall_us));
        let report = CriticalPathReport::extract(&dense);
        match oracle.critical_path() {
            Some(expected) => prop_assert_eq!(report, expected),
            None => prop_assert!(input.is_empty() && report.steps.is_empty()),
        }
    }
}
