//! Schedule-conformance auditing: verify every executed op against the
//! plan that explains it.
//!
//! A [`pdac_core::Provenance`] says what a planner decided and which ops
//! the compiled schedule contains; an executed trace's [`OpGraph`] says
//! what actually ran. [`ConformanceReport::audit`] joins the two by dense
//! op id and flags every way execution can drift from the plan:
//!
//! * **unexplained** — an executed op the plan does not contain (or one
//!   stamped with a *different* plan id: it ran, but this plan does not
//!   explain it);
//! * **missing** — a planned op that never produced a span;
//! * **mismatched** — an op that ran with the wrong shape (copy vs
//!   notify, payload bytes, or dependency list differ from the plan);
//! * **reordered** — an op whose span started before a planned
//!   dependency's span ended, violating the plan's dependency order.
//!
//! The ordering check is sound on both trace legs: the simulator starts an
//! op exactly at the max of its dependencies' finish times, and the thread
//! executor drops an op's span *before* publishing its completion, so a
//! dependent's recorded start is always at or after its dependency's
//! recorded end. Only a true violation (or a corrupted trace) trips it.

use std::collections::HashMap;

use serde::Serialize;

use pdac_core::{PlannedOp, Provenance};

use crate::opgraph::{MechKind, OpGraph};

/// Timestamp slack for the dependency-order check, in microseconds. Both
/// legs guarantee `start >= dep end` exactly; the epsilon only absorbs
/// float formatting round-trips through exported trace JSON.
pub const ORDER_EPS_US: f64 = 1e-6;

/// One dependency-order violation: `op` started before `dep` ended.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OrderViolation {
    /// The op that ran too early.
    pub op: usize,
    /// The planned dependency it overtook.
    pub dep: usize,
    /// When the op's span started (µs into the run).
    pub op_start_us: f64,
    /// When the dependency's span ended (µs into the run).
    pub dep_end_us: f64,
}

/// The outcome of joining one executed trace against one plan.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ConformanceReport {
    /// The plan the trace was audited against.
    pub plan_id: String,
    /// Distinct op ids the plan contains.
    pub planned_ops: usize,
    /// Op spans the trace contains.
    pub executed_ops: usize,
    /// Executed op ids the plan does not explain (unknown id, or stamped
    /// with a different plan id).
    pub unexplained: Vec<usize>,
    /// Planned op ids that never executed, each once, ascending.
    pub missing: Vec<usize>,
    /// Ops whose executed shape differs from the plan (`op 3: planned
    /// copy of 4096 B, executed notify`).
    pub mismatched: Vec<String>,
    /// Dependency-order violations.
    pub reordered: Vec<OrderViolation>,
}

impl ConformanceReport {
    /// Joins `graph` (one executed trace leg) against `plan`, flagging
    /// unexplained, missing, mismatched, and re-ordered ops, and bumps the
    /// `conformance.*` registry counters. An empty graph reports every
    /// planned op missing.
    pub fn audit(graph: &OpGraph, plan: &Provenance) -> ConformanceReport {
        let mut unexplained = Vec::new();
        let mut mismatched = Vec::new();
        let mut reordered = Vec::new();
        // The planned ops by id, the first of any duplicate: a document read
        // from JSON may list them out of order, twice or past its length.
        let mut by_id: HashMap<usize, &PlannedOp> = HashMap::with_capacity(plan.planned_ops.len());
        for p in &plan.planned_ops {
            by_id.entry(p.op).or_insert(p);
        }

        for span in graph.spans() {
            let Some(&planned) = by_id.get(&span.op) else {
                unexplained.push(span.op);
                continue;
            };
            if let Some(tag) = &span.plan {
                if *tag != plan.plan_id {
                    unexplained.push(span.op);
                    continue;
                }
            }
            // Shape: the op that ran must be the op that was planned.
            let planned_notify = planned.kind == "notify";
            let executed_notify = span.mech == MechKind::Notify;
            if planned_notify != executed_notify {
                mismatched.push(format!(
                    "op {}: planned {}, executed {}",
                    span.op,
                    planned.kind,
                    if executed_notify { "notify" } else { "copy" },
                ));
            } else if !planned_notify && span.bytes != planned.bytes as u64 {
                mismatched.push(format!(
                    "op {}: planned {} B, executed {} B",
                    span.op, planned.bytes, span.bytes
                ));
            }
            let mut planned_deps = planned.deps.clone();
            let mut executed_deps = span.deps.to_vec();
            planned_deps.sort_unstable();
            executed_deps.sort_unstable();
            if planned_deps != executed_deps {
                mismatched.push(format!(
                    "op {}: planned deps {planned_deps:?}, executed {executed_deps:?}",
                    span.op
                ));
            }
            // Dependency order, against the *plan's* dependency list: the
            // op's span must not start before any planned dependency's
            // span ends.
            for &dep in &planned.deps {
                if let Some(dep_span) = graph.get(dep) {
                    if span.start_us < dep_span.end_us() - ORDER_EPS_US {
                        reordered.push(OrderViolation {
                            op: span.op,
                            dep,
                            op_start_us: span.start_us,
                            dep_end_us: dep_span.end_us(),
                        });
                    }
                }
            }
        }

        let mut missing: Vec<usize> =
            by_id.keys().copied().filter(|&op| graph.get(op).is_none()).collect();

        unexplained.sort_unstable();
        missing.sort_unstable();
        reordered.sort_by_key(|v| (v.op, v.dep));

        let report = ConformanceReport {
            plan_id: plan.plan_id.clone(),
            planned_ops: by_id.len(),
            executed_ops: graph.len(),
            unexplained,
            missing,
            mismatched,
            reordered,
        };
        let registry = pdac_telemetry::global().registry();
        registry.add("conformance.audits", 1);
        registry.add("conformance.unexplained", report.unexplained.len() as u64);
        registry.add("conformance.missing", report.missing.len() as u64);
        registry.add("conformance.mismatched", report.mismatched.len() as u64);
        registry.add("conformance.reordered", report.reordered.len() as u64);
        report
    }

    /// True when execution conformed to the plan exactly: nothing
    /// unexplained, missing, mismatched, or re-ordered.
    pub fn passed(&self) -> bool {
        self.unexplained.is_empty()
            && self.missing.is_empty()
            && self.mismatched.is_empty()
            && self.reordered.is_empty()
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("conformance report serializes")
    }

    /// Human-readable multi-line rendering.
    pub fn render(&self) -> String {
        let list = |ids: &[usize]| -> String {
            if ids.is_empty() {
                "none".to_string()
            } else {
                format!("{ids:?}")
            }
        };
        let mut out = format!(
            "conformance audit: plan {} ({} planned ops, {} executed)\n",
            self.plan_id, self.planned_ops, self.executed_ops
        );
        out.push_str(&format!("  unexplained ops: {}\n", list(&self.unexplained)));
        out.push_str(&format!("  missing ops:     {}\n", list(&self.missing)));
        if self.mismatched.is_empty() {
            out.push_str("  shape mismatches: none\n");
        } else {
            out.push_str("  shape mismatches:\n");
            for m in &self.mismatched {
                out.push_str(&format!("    {m}\n"));
            }
        }
        if self.reordered.is_empty() {
            out.push_str("  order violations: none\n");
        } else {
            out.push_str("  order violations:\n");
            for v in &self.reordered {
                out.push_str(&format!(
                    "    op {} started at {:.3}us before dep {} ended at {:.3}us\n",
                    v.op, v.op_start_us, v.dep, v.dep_end_us
                ));
            }
        }
        out.push_str(&format!("  verdict: {}\n", if self.passed() { "PASS" } else { "FAIL" }));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opgraph::OpSpan;
    use pdac_core::AdaptiveColl;
    use pdac_hwtopo::{machines, BindingPolicy, DistanceMatrix};
    use pdac_mpisim::Communicator;
    use pdac_simnet::trace::sim_events_with_distances;
    use pdac_simnet::{SimConfig, SimExecutor};
    use std::sync::Arc;

    fn explained_events() -> (Vec<pdac_telemetry::Event>, Provenance) {
        let machine = Arc::new(machines::ig());
        let n = machine.num_cores();
        let binding = BindingPolicy::Contiguous.bind(&machine, n).unwrap();
        let comm = Communicator::world(Arc::clone(&machine), binding.clone());
        let (schedule, prov) = AdaptiveColl.bcast_explained(None, &comm, 0, 64 << 10);
        let report = SimExecutor::new(&machine, &binding, SimConfig::default())
            .run(&schedule)
            .expect("schedule validates");
        let dist = DistanceMatrix::for_binding(&machine, &binding);
        (sim_events_with_distances(&schedule, &report, Some(&dist)).events(), prov)
    }

    fn explained_run() -> (OpGraph, Provenance) {
        let (events, prov) = explained_events();
        (OpGraph::from_events(&events), prov)
    }

    #[test]
    fn sim_leg_of_explained_plan_conforms() {
        let (graph, prov) = explained_run();
        assert!(!graph.is_empty());
        let rep = ConformanceReport::audit(&graph, &prov);
        assert!(rep.passed(), "{}", rep.render());
        assert_eq!(rep.executed_ops, rep.planned_ops);
        assert!(rep.render().contains("verdict: PASS"));
        serde_json::from_str::<serde_json::Value>(&rep.to_json()).expect("JSON");
    }

    #[test]
    fn dropped_span_is_missing_and_foreign_span_is_unexplained() {
        let (graph, prov) = explained_run();
        let mut spans: Vec<OpSpan> = graph.spans().map(OpSpan::from).collect();
        let dropped = spans.pop().expect("non-empty").op;
        spans.push(OpSpan {
            op: 100_000,
            tid: 0,
            name: "rogue".into(),
            mech: MechKind::Memcpy,
            dist: 0,
            bytes: 1,
            start_us: 0.0,
            dur_us: 1.0,
            deps: vec![],
            plan: None,
        });
        let rep = ConformanceReport::audit(&OpGraph::new(spans), &prov);
        assert!(!rep.passed());
        assert_eq!(rep.missing, vec![dropped]);
        assert_eq!(rep.unexplained, vec![100_000]);
        assert!(rep.render().contains("verdict: FAIL"));
    }

    #[test]
    fn early_start_is_a_dependency_order_violation() {
        let (graph, prov) = explained_run();
        let mut spans: Vec<OpSpan> = graph.spans().map(OpSpan::from).collect();
        // Yank some op with a dependency back to t=0, before anything ends.
        let victim = spans.iter().position(|s| !s.deps.is_empty()).expect("a dependent op exists");
        spans[victim].start_us = 0.0;
        let op = spans[victim].op;
        let rep = ConformanceReport::audit(&OpGraph::new(spans), &prov);
        assert!(rep.reordered.iter().any(|v| v.op == op), "{}", rep.render());
    }

    #[test]
    fn wrong_plan_tag_and_wrong_shape_are_flagged() {
        let (graph, prov) = explained_run();
        let mut spans: Vec<OpSpan> = graph.spans().map(OpSpan::from).collect();
        spans[0].plan = Some("someone-elses-plan".into());
        let tagged = spans[0].op;
        let copy_idx = spans
            .iter()
            .enumerate()
            .position(|(i, s)| i != 0 && s.mech != MechKind::Notify)
            .expect("a copy exists");
        spans[copy_idx].bytes += 7;
        let rep = ConformanceReport::audit(&OpGraph::new(spans), &prov);
        assert!(rep.unexplained.contains(&tagged));
        assert!(rep.mismatched.iter().any(|m| m.contains("B, executed")), "{:?}", rep.mismatched);
    }

    #[test]
    fn matching_plan_tag_passes() {
        let (graph, prov) = explained_run();
        let mut spans: Vec<OpSpan> = graph.spans().map(OpSpan::from).collect();
        for s in &mut spans {
            s.plan = Some(prov.plan_id.clone());
        }
        let rep = ConformanceReport::audit(&OpGraph::new(spans), &prov);
        assert!(rep.passed(), "{}", rep.render());
    }

    #[test]
    fn plan_tag_survives_a_trace_file_and_a_foreign_op_stays_flagged() {
        // Stamped as the executor stamps (`with_plan_id`), except one op
        // that ran under another plan; then out to a file and back.
        let (mut events, prov) = explained_events();
        for e in &mut events {
            e.args.push(("plan", prov.plan_id.clone().into()));
        }
        let foreign = events[0].arg_u64("op").expect("op id") as usize;
        *events[0].args.last_mut().unwrap() = ("plan", "someone-elses-plan".to_string().into());

        let json = pdac_telemetry::chrome_trace(&events, &pdac_telemetry::TraceMeta::real());
        let reparsed = crate::events_from_chrome_trace(&json).expect("trace parses");
        let graph = OpGraph::from_events(&reparsed);
        assert_eq!(graph.len(), events.len());
        assert!(graph.spans().all(|s| s.plan.is_some()), "plan ids survive the file");
        let rep = ConformanceReport::audit(&graph, &prov);
        assert_eq!(rep.unexplained, vec![foreign], "{}", rep.render());
    }

    #[test]
    fn planned_op_order_does_not_change_the_report() {
        // A trace with one of each finding, so every branch of the join
        // runs, and two missing ops, so their order shows.
        let (graph, prov) = explained_run();
        let mut spans: Vec<OpSpan> = graph.spans().map(OpSpan::from).collect();
        let gone = [spans.pop().expect("an op").op, spans.pop().expect("an op").op];
        spans[0].plan = Some("someone-elses-plan".into());
        let copy = spans.iter().skip(1).position(|s| s.mech != MechKind::Notify).expect("a copy");
        spans[1 + copy].bytes += 7;
        let late = spans.iter().rposition(|s| !s.deps.is_empty()).expect("a dependent op");
        spans[late].start_us = 0.0;
        let graph = OpGraph::new(spans);
        let rep = ConformanceReport::audit(&graph, &prov);
        assert_eq!(rep.missing, [gone[1], gone[0]], "{}", rep.render());
        assert!(!rep.unexplained.is_empty(), "{}", rep.render());
        assert!(!rep.mismatched.is_empty() && !rep.reordered.is_empty(), "{}", rep.render());

        let mut reversed = prov.clone();
        reversed.planned_ops.reverse();
        assert_eq!(ConformanceReport::audit(&graph, &reversed), rep);

        // A later duplicate of an id is ignored, as a scan from the front
        // ignores it, and a repeated unexecuted entry is missing once: the
        // report counts and lists distinct ids.
        let mut duplicated = prov.clone();
        let first = prov.planned_ops.iter().position(|p| p.kind == "copy" && !p.deps.is_empty());
        let mut twin = duplicated.planned_ops[first.expect("a dependent copy")].clone();
        twin.bytes += 1;
        twin.deps.clear();
        duplicated.planned_ops.push(twin);
        let unexecuted = prov.planned_ops.iter().find(|p| p.op == gone[1]).expect("planned");
        duplicated.planned_ops.insert(0, unexecuted.clone());
        assert_eq!(ConformanceReport::audit(&graph, &duplicated), rep);
    }
}
