//! Critical-path extraction: the longest causal chain of one run.
//!
//! Starting from the operation that finishes last, the extractor walks
//! backwards along predecessor edges — the op's recorded `deps` plus the
//! previous operation on the same rank row (executor serialization) —
//! always following the predecessor that *ends latest*, i.e. the one that
//! actually gated the start. The resulting chain is the run's critical
//! path; everything off it had slack.
//!
//! Each step splits into span time (the operation executing) and wait time
//! (the gap between the gating predecessor's end and this start — clock
//! skew, scheduler noise, latency the spans did not capture). Span time is
//! attributed per rank, per mechanism and per process-distance class; the
//! report's `coverage` is the identified-span share of wall time, the
//! figure the acceptance gate checks.

use serde::Serialize;

use crate::opgraph::OpGraph;

/// How a step was reached from its predecessor on the path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum EdgeKind {
    /// First operation of the chain (no predecessor).
    Start,
    /// A recorded dependency edge (tree child waiting on its parent's
    /// copy, a ring pull waiting on the previous segment...).
    Dep,
    /// Same-rank program order: the executor was busy with the previous
    /// operation.
    Program,
}

/// One operation on the critical path.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PathStep {
    /// Operation id.
    pub op: usize,
    /// Rank row the span was recorded on.
    pub tid: u64,
    /// Span label.
    pub name: String,
    /// Mechanism bucket label (`knem`, `memcpy`, `notify`).
    pub mech: String,
    /// Process-distance class of the endpoint pair.
    pub dist: u8,
    /// Payload bytes.
    pub bytes: u64,
    /// Start, microseconds into the run.
    pub start_us: f64,
    /// Span duration in microseconds.
    pub dur_us: f64,
    /// Gap between the gating predecessor's end and this start (0 for the
    /// chain head; negative skew clamps to 0).
    pub wait_us: f64,
    /// How this step was reached.
    pub edge: EdgeKind,
}

/// One attribution bucket: the share of on-path span time belonging to a
/// rank, mechanism or distance class.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AttributionRow {
    /// Bucket key (`rank 3`, `knem`, `d4`...).
    pub key: String,
    /// On-path span microseconds in this bucket.
    pub us: f64,
    /// Fraction of total on-path span time (0 when the path is empty).
    pub share: f64,
}

/// The critical-path answer for one trace leg.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CriticalPathReport {
    /// Wall time of the run in microseconds (latest end − earliest start).
    pub wall_us: f64,
    /// Span time on the critical path.
    pub span_us: f64,
    /// Wait time on the critical path (gaps between steps).
    pub wait_us: f64,
    /// `span_us / wall_us` — the identified-span share of wall time.
    pub coverage: f64,
    /// Number of op spans in the whole leg (not just the path).
    pub total_ops: usize,
    /// The chain, in execution order.
    pub steps: Vec<PathStep>,
    /// On-path span time per rank row, descending.
    pub by_rank: Vec<AttributionRow>,
    /// On-path span time per mechanism, descending.
    pub by_mech: Vec<AttributionRow>,
    /// On-path span time per distance class, descending.
    pub by_dist: Vec<AttributionRow>,
}

/// Gaps below one nanosecond, expressed in microseconds. Span timestamps
/// come out of floating-point subtraction chains; a dependency that ends
/// exactly when its successor starts regularly leaves `~1e-13 µs` of
/// rounding residue, which then surfaces as a nonzero `wait_us` in
/// benchmark JSON and downstream wait-share ratios. Nothing the
/// simulator models is shorter than a nanosecond, so anything below it
/// is dust, not waiting.
pub const WAIT_DUST_US: f64 = 1e-3;

/// Clamps negative skew and sub-nanosecond float dust to exactly zero.
fn clamp_wait_dust(wait_us: f64) -> f64 {
    if wait_us < WAIT_DUST_US {
        0.0
    } else {
        wait_us
    }
}

fn attribution(steps: &[PathStep], key: impl Fn(&PathStep) -> String) -> Vec<AttributionRow> {
    let mut sums: std::collections::BTreeMap<String, f64> = std::collections::BTreeMap::new();
    for s in steps {
        *sums.entry(key(s)).or_default() += s.dur_us;
    }
    let total: f64 = steps.iter().map(|s| s.dur_us).sum();
    let mut rows: Vec<AttributionRow> = sums
        .into_iter()
        .map(|(key, us)| AttributionRow {
            key,
            us,
            share: if total > 0.0 { us / total } else { 0.0 },
        })
        .collect();
    rows.sort_by(|a, b| b.us.total_cmp(&a.us));
    rows
}

impl CriticalPathReport {
    /// Extracts the critical path of one trace leg. Returns an all-zero
    /// report for an empty graph.
    pub fn extract(graph: &OpGraph) -> Self {
        let Some(mut idx) = graph.latest_end_idx() else {
            return CriticalPathReport {
                wall_us: 0.0,
                span_us: 0.0,
                wait_us: 0.0,
                coverage: 0.0,
                total_ops: 0,
                steps: Vec::new(),
                by_rank: Vec::new(),
                by_mech: Vec::new(),
                by_dist: Vec::new(),
            };
        };

        // Walk backwards, always through the latest-ending predecessor, and
        // stop at one already on the chain: a trace file's deps can cycle.
        let mut rev: Vec<(usize, EdgeKind)> = vec![(idx, EdgeKind::Start)];
        let mut on_chain = vec![false; graph.len()];
        on_chain[idx] = true;
        loop {
            let preds = graph.predecessors(idx);
            let Some(&best) = preds
                .iter()
                .max_by(|&&a, &&b| graph.span_at(a).end_us().total_cmp(&graph.span_at(b).end_us()))
                .filter(|&&best| !on_chain[best])
            else {
                break;
            };
            on_chain[best] = true;
            let edge = if graph.span_at(idx).deps.contains(&graph.span_at(best).op) {
                EdgeKind::Dep
            } else {
                EdgeKind::Program
            };
            // The edge label belongs to the *successor*: record how idx was
            // entered, then continue from the predecessor.
            rev.last_mut().expect("chain is non-empty").1 = edge;
            rev.push((best, EdgeKind::Start));
            idx = best;
        }
        rev.reverse();

        let steps: Vec<PathStep> = rev
            .iter()
            .enumerate()
            .map(|(i, &(idx, edge))| {
                let s = graph.span_at(idx);
                let wait_us = if i == 0 {
                    0.0
                } else {
                    clamp_wait_dust(s.start_us - graph.span_at(rev[i - 1].0).end_us())
                };
                PathStep {
                    op: s.op,
                    tid: s.tid,
                    name: s.name(),
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

        let wall_us = graph.wall_us();
        let span_us: f64 = steps.iter().map(|s| s.dur_us).sum();
        let wait_us: f64 = clamp_wait_dust(steps.iter().map(|s| s.wait_us).sum());
        CriticalPathReport {
            wall_us,
            span_us,
            wait_us,
            coverage: if wall_us > 0.0 { (span_us / wall_us).min(1.0) } else { 0.0 },
            total_ops: graph.len(),
            by_rank: attribution(&steps, |s| format!("rank {}", s.tid)),
            by_mech: attribution(&steps, |s| s.mech.clone()),
            by_dist: attribution(&steps, |s| format!("d{}", s.dist)),
            steps,
        }
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Human-readable multi-line rendering.
    pub fn render(&self) -> String {
        if self.steps.is_empty() {
            return "critical path: no op spans in this leg\n".to_string();
        }
        let mut out = format!(
            "critical path: {} of {} ops, wall {:.1} us, on-path span {:.1} us \
             ({:.1}% coverage), wait {:.1} us\n",
            self.steps.len(),
            self.total_ops,
            self.wall_us,
            self.span_us,
            self.coverage * 100.0,
            self.wait_us,
        );
        for (label, rows) in
            [("rank", &self.by_rank), ("mech", &self.by_mech), ("dist", &self.by_dist)]
        {
            out.push_str(&format!("  by {label}: "));
            for (i, r) in rows.iter().take(6).enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{} {:.1}us ({:.0}%)", r.key, r.us, r.share * 100.0));
            }
            out.push('\n');
        }
        for s in &self.steps {
            let edge = match s.edge {
                EdgeKind::Start => "start",
                EdgeKind::Dep => "dep  ",
                EdgeKind::Program => "prog ",
            };
            out.push_str(&format!(
                "  [{edge}] op {:>4} rank {:>3} {:<9} d{} {:>9}B  start {:>12.1}us  \
                 dur {:>10.1}us  wait {:>8.1}us  {}\n",
                s.op, s.tid, s.mech, s.dist, s.bytes, s.start_us, s.dur_us, s.wait_us, s.name,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opgraph::{MechKind, OpGraph, OpSpan};

    fn span(op: usize, tid: u64, start: f64, dur: f64, deps: Vec<usize>) -> OpSpan {
        OpSpan {
            op,
            tid,
            name: format!("op{op}"),
            mech: MechKind::Memcpy,
            dist: (op % 3) as u8,
            bytes: 64,
            start_us: start,
            dur_us: dur,
            deps,
            plan: None,
        }
    }

    #[test]
    fn chain_follows_latest_ending_predecessor() {
        // op0 (0..10) gates op2; op1 (0..3) is a faster sibling dep. The
        // path must run 0 -> 2, not 1 -> 2.
        let g = OpGraph::new(vec![
            span(0, 0, 0.0, 10.0, vec![]),
            span(1, 1, 0.0, 3.0, vec![]),
            span(2, 2, 10.0, 5.0, vec![0, 1]),
        ]);
        let r = CriticalPathReport::extract(&g);
        let ops: Vec<usize> = r.steps.iter().map(|s| s.op).collect();
        assert_eq!(ops, vec![0, 2]);
        assert_eq!(r.steps[1].edge, EdgeKind::Dep);
        assert_eq!(r.wall_us, 15.0);
        assert_eq!(r.span_us, 15.0);
        assert_eq!(r.coverage, 1.0, "gap-free chain covers the whole wall");
        assert_eq!(r.total_ops, 3);
    }

    #[test]
    fn a_dependency_cycle_ends_the_walk() {
        // A trace file can name anything as a dep: these two spans name
        // each other, so the latest-ending predecessor never runs out.
        let g = OpGraph::new(vec![span(0, 0, 0.0, 4.0, vec![1]), span(1, 1, 1.0, 4.0, vec![0])]);
        let r = CriticalPathReport::extract(&g);
        let ops: Vec<usize> = r.steps.iter().map(|s| s.op).collect();
        assert_eq!(ops, vec![0, 1]);
    }

    #[test]
    fn program_order_edges_cover_executor_serialization() {
        // Rank 0 runs two back-to-back ops with no dep between them; the
        // second is the last to finish. Without the program-order edge the
        // path would cover only op1's span.
        let g = OpGraph::new(vec![span(0, 0, 0.0, 8.0, vec![]), span(1, 0, 8.0, 8.0, vec![])]);
        let r = CriticalPathReport::extract(&g);
        assert_eq!(r.steps.len(), 2);
        assert_eq!(r.steps[1].edge, EdgeKind::Program);
        assert_eq!(r.coverage, 1.0);
    }

    #[test]
    fn waits_capture_gaps_and_attribution_sums_match() {
        let g = OpGraph::new(vec![
            span(0, 0, 0.0, 4.0, vec![]),
            span(1, 1, 6.0, 4.0, vec![0]), // 2us gap after op0
        ]);
        let r = CriticalPathReport::extract(&g);
        assert_eq!(r.wait_us, 2.0);
        assert_eq!(r.span_us, 8.0);
        assert!((r.coverage - 0.8).abs() < 1e-9);
        let rank_sum: f64 = r.by_rank.iter().map(|a| a.us).sum();
        let mech_sum: f64 = r.by_mech.iter().map(|a| a.us).sum();
        let dist_sum: f64 = r.by_dist.iter().map(|a| a.us).sum();
        assert!((rank_sum - r.span_us).abs() < 1e-9);
        assert!((mech_sum - r.span_us).abs() < 1e-9);
        assert!((dist_sum - r.span_us).abs() < 1e-9);
        let share_sum: f64 = r.by_rank.iter().map(|a| a.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sub_nanosecond_wait_dust_clamps_to_exactly_zero() {
        // A dependency ending "exactly" when its successor starts, up to
        // float rounding: the 4.5e-13 µs residue seen on simulated
        // traces must read as zero wait, not as a 1e-13 µs wait share.
        let g = OpGraph::new(vec![
            span(0, 0, 0.0, 4.0, vec![]),
            span(1, 1, 4.0 + 4.5e-13, 4.0, vec![0]),
        ]);
        let r = CriticalPathReport::extract(&g);
        assert_eq!(r.wait_us, 0.0, "dust clamps to exactly zero, not a tiny float");
        assert_eq!(r.steps[1].wait_us, 0.0);
        // A real (≥1ns) gap still counts.
        let g =
            OpGraph::new(vec![span(0, 0, 0.0, 4.0, vec![]), span(1, 1, 4.0 + 2e-3, 4.0, vec![0])]);
        let r = CriticalPathReport::extract(&g);
        assert!((r.wait_us - 2e-3).abs() < 1e-12, "real gaps survive: {}", r.wait_us);
    }

    #[test]
    fn empty_graph_yields_zero_report_and_json_parses() {
        let r = CriticalPathReport::extract(&OpGraph::default());
        assert_eq!(r.coverage, 0.0);
        assert!(r.render().contains("no op spans"));
        let g = OpGraph::new(vec![span(0, 0, 0.0, 1.0, vec![])]);
        let r = CriticalPathReport::extract(&g);
        serde_json::from_str::<serde_json::Value>(&r.to_json()).expect("JSON");
        assert!(r.render().contains("op    0"));
    }
}
