//! Plan provenance: the auditable record of every load-bearing decision a
//! planner made, with the inputs each rule saw.
//!
//! The framework's value claim is *adaptation* — per-distance-class
//! algorithm and chunk selection — but a schedule alone only shows *what*
//! was planned, not *why*. A [`Provenance`] is assembled while a plan is
//! constructed and captures each decision as a [`Decision`]: the rule that
//! fired ([`DecisionKind`]), the choice it made, a human-readable reason,
//! and the named inputs that drove it (message size vs collapse threshold,
//! distance classes present, cache epoch...).
//!
//! The record is the substrate for three consumers:
//!
//! * **explain** ([`Provenance::explain`]) — a human-readable report
//!   naming a recorded reason for every algorithm, chunk-class, cache and
//!   fallback decision (`pdac-trace explain`);
//! * **diff** ([`Provenance::diff`]) — joins two plans decision-by-
//!   decision (subjects are epoch-stable keys) so a migration or rebind
//!   answers "what changed in the plan and which decision input moved";
//! * **conformance** — the planned-op list ([`PlannedOp`], derived from
//!   the compiled [`Schedule`]) is what `pdac-analyze` joins an executed
//!   trace against, flagging unexplained, missing, or re-ordered ops.

use serde::{Deserialize, Serialize};

use pdac_simnet::{OpKind, Schedule};

/// Which planning rule a [`Decision`] came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DecisionKind {
    /// Algorithm selection per (collective, distance profile).
    Algorithm,
    /// Topology refinement (the §V-B collapse rule).
    Topology,
    /// Distance-matrix classification of the topology's edges.
    DistanceClass,
    /// `ChunkPolicy` class chosen per distance class present.
    ChunkClass,
    /// TopoCache hit/miss/epoch path.
    CacheLookup,
    /// Recovery / degraded-mode substitution.
    Recovery,
}

impl DecisionKind {
    /// Short lowercase label used in reports (`algorithm`, `chunk`, ...).
    pub fn label(&self) -> &'static str {
        match self {
            DecisionKind::Algorithm => "algorithm",
            DecisionKind::Topology => "topology",
            DecisionKind::DistanceClass => "distance",
            DecisionKind::ChunkClass => "chunk",
            DecisionKind::CacheLookup => "cache",
            DecisionKind::Recovery => "recovery",
        }
    }
}

/// One recorded decision: what was chosen, why, and the inputs the rule
/// saw. `subject` is the epoch-stable join key [`Provenance::diff`] keys
/// on, so it must not embed epoch numbers (those belong in `inputs`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Decision {
    /// The rule that fired.
    pub kind: DecisionKind,
    /// Stable subject (`bcast topology`, `chunk d5`, `edges d1`...).
    pub subject: String,
    /// The choice the rule made.
    pub choice: String,
    /// Why — the rule's own justification, in prose.
    pub reason: String,
    /// Named inputs the rule evaluated, as `(name, value)` pairs.
    pub inputs: Vec<(String, String)>,
}

impl Decision {
    /// Builds a decision; inputs accept anything displayable.
    pub fn new(
        kind: DecisionKind,
        subject: impl Into<String>,
        choice: impl Into<String>,
        reason: impl Into<String>,
        inputs: Vec<(String, String)>,
    ) -> Self {
        Decision {
            kind,
            subject: subject.into(),
            choice: choice.into(),
            reason: reason.into(),
            inputs,
        }
    }

    /// The value recorded for input `name`, if any.
    pub fn input(&self, name: &str) -> Option<&str> {
        self.inputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Shorthand for building the `inputs` list: `inputs![("bytes", 42), ...]`
/// without spelling `.to_string()` everywhere.
#[macro_export]
macro_rules! decision_inputs {
    ($(($name:expr, $value:expr)),* $(,)?) => {
        vec![$(($name.to_string(), format!("{}", $value))),*]
    };
}

/// One planned operation, derived from the compiled [`Schedule`]. This is
/// the join target for the schedule-conformance auditor: an executed trace
/// must contain exactly these op ids, with matching shape, executed in
/// dependency order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannedOp {
    /// Dense schedule op id.
    pub op: usize,
    /// `copy` or `notify`.
    pub kind: String,
    /// Source rank (sender for notifies).
    pub src: usize,
    /// Destination rank (receiver for notifies).
    pub dst: usize,
    /// Payload bytes (0 for notifies).
    pub bytes: usize,
    /// Op ids that must complete first.
    pub deps: Vec<usize>,
}

/// The provenance record of one plan: identity, every decision, and the
/// planned-op list. The `Default` value is an empty recorder for
/// [`crate::adaptive::Sinks::provenance`]; planning overwrites it.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Provenance {
    /// Stable plan identity: `<collective>-e<epoch>-n<ranks>-b<bytes>`.
    pub plan_id: String,
    /// Collective the plan serves (`bcast`, `allgather`, `allreduce`...).
    pub collective: String,
    /// Name of the compiled schedule (filled by [`Self::attach_schedule`]).
    pub schedule_name: String,
    /// Communicator size.
    pub num_ranks: usize,
    /// Message (or per-rank block) bytes.
    pub bytes: usize,
    /// Communicator epoch the plan was built under.
    pub epoch: u64,
    /// Every recorded decision, in recording order.
    pub decisions: Vec<Decision>,
    /// The compiled schedule's op list (empty until
    /// [`Self::attach_schedule`]).
    pub planned_ops: Vec<PlannedOp>,
}

impl Provenance {
    /// Starts a provenance record for one plan.
    pub fn begin(collective: &str, num_ranks: usize, bytes: usize, epoch: u64) -> Self {
        Provenance {
            plan_id: format!("{collective}-e{epoch}-n{num_ranks}-b{bytes}"),
            collective: collective.to_string(),
            schedule_name: String::new(),
            num_ranks,
            bytes,
            epoch,
            decisions: Vec::new(),
            planned_ops: Vec::new(),
        }
    }

    /// Records one decision.
    pub fn record(&mut self, decision: Decision) {
        self.decisions.push(decision);
    }

    /// Attaches the compiled schedule: fills `schedule_name`, derives the
    /// planned-op list, bumps the provenance registry counters, and leaves
    /// a flight-recorder breadcrumb so a crash dump names the last plan.
    pub fn attach_schedule(&mut self, schedule: &Schedule) {
        self.schedule_name = schedule.name.clone();
        self.planned_ops = schedule
            .ops
            .iter()
            .enumerate()
            .map(|(id, op)| {
                let (kind, src, dst, bytes) = match op.kind {
                    OpKind::Copy {
                        src_rank,
                        dst_rank,
                        bytes,
                        ..
                    } => ("copy", src_rank, dst_rank, bytes),
                    OpKind::Notify { from, to } => ("notify", from, to, 0),
                };
                PlannedOp {
                    op: id,
                    kind: kind.to_string(),
                    src,
                    dst,
                    bytes,
                    deps: schedule.deps(id).to_vec(),
                }
            })
            .collect();
        let registry = pdac_telemetry::global().registry();
        registry.add("provenance.plans", 1);
        registry.add("provenance.decisions", self.decisions.len() as u64);
        pdac_telemetry::flight::set_context("plan", &self.plan_id);
        pdac_telemetry::flight::note(format!(
            "plan {}: {} ({} decisions, {} ops)",
            self.plan_id,
            self.schedule_name,
            self.decisions.len(),
            self.planned_ops.len(),
        ));
    }

    /// Decisions of one kind, in recording order.
    pub fn decisions_of(&self, kind: DecisionKind) -> Vec<&Decision> {
        self.decisions.iter().filter(|d| d.kind == kind).collect()
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("provenance serializes")
    }

    /// Parses a provenance document.
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| format!("bad provenance JSON: {e:?}"))
    }

    /// The human-readable explain report: every decision with its choice,
    /// reason and inputs, plus the planned-op summary.
    pub fn explain(&self) -> String {
        let mut out = format!(
            "plan {}: {} over {} ranks, {} B, epoch {}\n",
            self.plan_id,
            if self.schedule_name.is_empty() {
                "<unattached>"
            } else {
                &self.schedule_name
            },
            self.num_ranks,
            self.bytes,
            self.epoch,
        );
        for d in &self.decisions {
            out.push_str(&format!(
                "  [{}] {} -> {}\n",
                d.kind.label(),
                d.subject,
                d.choice
            ));
            out.push_str(&format!("      why: {}\n", d.reason));
            if !d.inputs.is_empty() {
                let rendered: Vec<String> =
                    d.inputs.iter().map(|(n, v)| format!("{n}={v}")).collect();
                out.push_str(&format!("      inputs: {}\n", rendered.join(", ")));
            }
        }
        let copies = self.planned_ops.iter().filter(|o| o.kind == "copy").count();
        out.push_str(&format!(
            "  planned ops: {} ({} copies, {} notifies)\n",
            self.planned_ops.len(),
            copies,
            self.planned_ops.len() - copies,
        ));
        out
    }

    /// Diffs this plan (the *old* side) against `new`, keyed by
    /// `(kind, subject)`: which decisions changed, which inputs moved,
    /// which decisions exist on only one side.
    pub fn diff(&self, new: &Provenance) -> ProvenanceDiff {
        let key = |d: &Decision| (d.kind, d.subject.clone());
        let mut changed = Vec::new();
        let mut removed = Vec::new();
        for old_d in &self.decisions {
            match new.decisions.iter().find(|d| key(d) == key(old_d)) {
                None => removed.push(format!("[{}] {}", old_d.kind.label(), old_d.subject)),
                Some(new_d) => {
                    let mut moved = Vec::new();
                    for (name, old_v) in &old_d.inputs {
                        match new_d.input(name) {
                            Some(new_v) if new_v != old_v => moved.push(InputMove {
                                name: name.clone(),
                                old: old_v.clone(),
                                new: new_v.to_string(),
                            }),
                            Some(_) => {}
                            None => moved.push(InputMove {
                                name: name.clone(),
                                old: old_v.clone(),
                                new: "-".into(),
                            }),
                        }
                    }
                    for (name, new_v) in &new_d.inputs {
                        if old_d.input(name).is_none() {
                            moved.push(InputMove {
                                name: name.clone(),
                                old: "-".into(),
                                new: new_v.clone(),
                            });
                        }
                    }
                    if old_d.choice != new_d.choice || !moved.is_empty() {
                        changed.push(DecisionDelta {
                            kind: old_d.kind,
                            subject: old_d.subject.clone(),
                            old_choice: old_d.choice.clone(),
                            new_choice: new_d.choice.clone(),
                            moved_inputs: moved,
                        });
                    }
                }
            }
        }
        let added = new
            .decisions
            .iter()
            .filter(|d| !self.decisions.iter().any(|o| key(o) == key(d)))
            .map(|d| format!("[{}] {}", d.kind.label(), d.subject))
            .collect();
        ProvenanceDiff {
            old_plan: self.plan_id.clone(),
            new_plan: new.plan_id.clone(),
            changed,
            removed,
            added,
            ops_before: self.planned_ops.len(),
            ops_after: new.planned_ops.len(),
        }
    }
}

/// One input whose value moved between two plans (`-` marks a side the
/// input is absent from).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InputMove {
    /// Input name.
    pub name: String,
    /// Value in the old plan.
    pub old: String,
    /// Value in the new plan.
    pub new: String,
}

/// One decision present in both plans whose choice or inputs differ.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionDelta {
    /// The rule the decision came from.
    pub kind: DecisionKind,
    /// The (stable) subject both sides share.
    pub subject: String,
    /// The old plan's choice.
    pub old_choice: String,
    /// The new plan's choice.
    pub new_choice: String,
    /// Inputs whose values moved.
    pub moved_inputs: Vec<InputMove>,
}

/// The decision-by-decision delta between two plans — the "what changed
/// and which input moved" answer across a migration or rebind epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProvenanceDiff {
    /// The old plan's id.
    pub old_plan: String,
    /// The new plan's id.
    pub new_plan: String,
    /// Decisions whose choice or inputs moved.
    pub changed: Vec<DecisionDelta>,
    /// Decisions present only in the old plan (`[kind] subject`).
    pub removed: Vec<String>,
    /// Decisions present only in the new plan (`[kind] subject`).
    pub added: Vec<String>,
    /// Planned-op count of the old plan.
    pub ops_before: usize,
    /// Planned-op count of the new plan.
    pub ops_after: usize,
}

impl ProvenanceDiff {
    /// True when no decision changed, appeared, or disappeared.
    pub fn is_unchanged(&self) -> bool {
        self.changed.is_empty() && self.removed.is_empty() && self.added.is_empty()
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("diff serializes")
    }

    /// Human-readable multi-line rendering.
    pub fn render(&self) -> String {
        let mut out = format!("plan diff: {} -> {}\n", self.old_plan, self.new_plan);
        if self.is_unchanged() {
            out.push_str("  no decision changed\n");
        }
        for c in &self.changed {
            out.push_str(&format!(
                "  ~ [{}] {}: {} -> {}\n",
                c.kind.label(),
                c.subject,
                c.old_choice,
                c.new_choice
            ));
            for m in &c.moved_inputs {
                out.push_str(&format!(
                    "      input {} moved: {} -> {}\n",
                    m.name, m.old, m.new
                ));
            }
        }
        for s in &self.removed {
            out.push_str(&format!("  - {s} (only in old plan)\n"));
        }
        for s in &self.added {
            out.push_str(&format!("  + {s} (only in new plan)\n"));
        }
        out.push_str(&format!(
            "  planned ops: {} -> {}\n",
            self.ops_before, self.ops_after
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Provenance {
        let mut p = Provenance::begin("bcast", 8, 1 << 20, 3);
        p.record(Decision::new(
            DecisionKind::Topology,
            "bcast topology",
            "Collapsed",
            "bytes above the collapse threshold with intra-MC structure",
            decision_inputs![("bytes", 1 << 20), ("collapse_threshold", 16 * 1024)],
        ));
        p.record(Decision::new(
            DecisionKind::ChunkClass,
            "chunk d1",
            "65536 B chunks",
            "near edges pipeline finely",
            decision_inputs![("distance_class", 1), ("chunk_bytes", 65536)],
        ));
        p
    }

    #[test]
    fn plan_id_and_inputs_are_recorded() {
        let p = sample();
        assert_eq!(p.plan_id, "bcast-e3-n8-b1048576");
        let topo = &p.decisions_of(DecisionKind::Topology)[0];
        assert_eq!(topo.choice, "Collapsed");
        assert_eq!(topo.input("collapse_threshold"), Some("16384"));
        assert!(topo.input("nonexistent").is_none());
    }

    #[test]
    fn explain_names_choice_reason_and_inputs() {
        let text = sample().explain();
        assert!(text.contains("plan bcast-e3-n8-b1048576"), "{text}");
        assert!(
            text.contains("[topology] bcast topology -> Collapsed"),
            "{text}"
        );
        assert!(
            text.contains("why: bytes above the collapse threshold"),
            "{text}"
        );
        assert!(
            text.contains("inputs: bytes=1048576, collapse_threshold=16384"),
            "{text}"
        );
        assert!(
            text.contains("[chunk] chunk d1 -> 65536 B chunks"),
            "{text}"
        );
    }

    #[test]
    fn json_round_trips() {
        let p = sample();
        let back = Provenance::from_json(&p.to_json()).expect("round trip");
        assert_eq!(back, p);
        assert!(Provenance::from_json("nope").is_err());
    }

    #[test]
    fn diff_identifies_changed_decisions_and_moved_inputs() {
        let old = sample();
        let mut new = Provenance::begin("bcast", 8, 1 << 10, 4);
        new.record(Decision::new(
            DecisionKind::Topology,
            "bcast topology",
            "Hierarchical",
            "message at or below the collapse threshold",
            decision_inputs![("bytes", 1 << 10), ("collapse_threshold", 16 * 1024)],
        ));
        new.record(Decision::new(
            DecisionKind::ChunkClass,
            "chunk d5",
            "131072 B chunks",
            "cross-socket edges keep the tuned chunk",
            decision_inputs![("distance_class", 5)],
        ));
        let diff = old.diff(&new);
        assert!(!diff.is_unchanged());
        let topo = diff
            .changed
            .iter()
            .find(|c| c.subject == "bcast topology")
            .expect("changed");
        assert_eq!(topo.old_choice, "Collapsed");
        assert_eq!(topo.new_choice, "Hierarchical");
        let moved = topo
            .moved_inputs
            .iter()
            .find(|m| m.name == "bytes")
            .expect("bytes moved");
        assert_eq!(
            (moved.old.as_str(), moved.new.as_str()),
            ("1048576", "1024")
        );
        assert!(diff.removed.contains(&"[chunk] chunk d1".to_string()));
        assert!(diff.added.contains(&"[chunk] chunk d5".to_string()));
        let text = diff.render();
        assert!(
            text.contains("input bytes moved: 1048576 -> 1024"),
            "{text}"
        );
        assert!(text.contains("+ [chunk] chunk d5"), "{text}");
    }

    #[test]
    fn identical_plans_diff_empty() {
        let p = sample();
        let diff = p.diff(&p.clone());
        assert!(diff.is_unchanged());
        assert!(diff.render().contains("no decision changed"));
    }
}
