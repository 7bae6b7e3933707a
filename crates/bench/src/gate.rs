//! The continuous benchmark regression gate.
//!
//! `pdac-bench gate` runs a canonical scenario matrix — bcast / allgather /
//! allreduce at small and large sizes, contiguous and cross-socket
//! placements, across the hwtopo machine set — through the timing
//! simulator, writes the results as `BENCH_collectives.json`, and compares
//! them against the checked-in `baselines/BENCH_collectives.baseline.json`.
//!
//! The simulator is deterministic, so run-to-run noise is zero and the
//! per-metric tolerances only need to absorb *intentional* model
//! calibration tweaks, not machine jitter. A change that slows a scenario
//! beyond tolerance, grows its schedule, or breaks critical-path coverage
//! fails the gate (nonzero exit in the binary); a change that makes things
//! faster passes and shows up as an improvement in the report, prompting a
//! baseline refresh.

use std::sync::Arc;

use pdac_analyze::{ConformanceReport, CriticalPathReport, OpGraph};
use pdac_core::{AdaptiveColl, Collective, Provenance, Request, Sinks};
use pdac_hwtopo::{machines, BindingPolicy, DistanceMatrix, Machine};
use pdac_mpisim::Communicator;
use pdac_simnet::trace::sim_events_with_distances;
use pdac_simnet::{Schedule, SimConfig, SimExecutor, TransportModel};
use serde::{Deserialize, Serialize};

/// One cell of the canonical matrix.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable id (`ig/bcast/contig/1M`) — the join key against baselines.
    pub id: String,
    /// Machine label.
    pub machine: String,
    /// Collective under test, planned from root 0 (allreduce rows are tree
    /// allreduce; allgather sizes are the per-rank block).
    pub collective: Collective,
    /// Placement policy.
    pub policy: BindingPolicy,
    /// Message (or block) bytes.
    pub bytes: usize,
    /// One-sided transport cost model charged by the simulator. KNEM rows
    /// keep their historical ids; RDMA rows carry a `/rdma` suffix.
    pub transport: TransportModel,
}

/// The canonical scenario matrix: every hwtopo machine, three collectives,
/// a small and a large size, best-case and worst-case placement — under
/// the KNEM cost model — plus an RDMA-model slice (both paper machines,
/// broadcast and allgather, best/worst placement) tracking the pluggable
/// transport seam.
pub fn canonical_scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();
    for machine in ["ig", "zoot", "syn2x2x8"] {
        for (collective, sizes) in [
            (Collective::Bcast, [16 << 10, 1 << 20]),
            (Collective::Allgather, [4 << 10, 64 << 10]),
            (Collective::Allreduce, [16 << 10, 1 << 20]),
        ] {
            for bytes in sizes {
                for (placement, policy) in [
                    ("contig", BindingPolicy::Contiguous),
                    ("xsock", BindingPolicy::CrossSocket),
                ] {
                    out.push(Scenario {
                        id: format!(
                            "{machine}/{}/{placement}/{}",
                            collective.label(),
                            crate::human_size(bytes)
                        ),
                        machine: machine.to_string(),
                        collective,
                        policy,
                        bytes,
                        transport: TransportModel::Knem,
                    });
                }
            }
        }
    }
    for machine in ["ig", "zoot"] {
        for (collective, bytes) in [
            (Collective::Bcast, 1 << 20),
            (Collective::Allgather, 64 << 10),
        ] {
            for (placement, policy) in [
                ("contig", BindingPolicy::Contiguous),
                ("xsock", BindingPolicy::CrossSocket),
            ] {
                out.push(Scenario {
                    id: format!(
                        "{machine}/{}/{placement}/{}/rdma",
                        collective.label(),
                        crate::human_size(bytes)
                    ),
                    machine: machine.to_string(),
                    collective,
                    policy,
                    bytes,
                    transport: TransportModel::Rdma,
                });
            }
        }
    }
    out
}

fn machine_by_label(label: &str) -> Machine {
    match label {
        "ig" => machines::ig(),
        "zoot" => machines::zoot(),
        "syn2x2x8" => machines::synthetic(2, 2, 8, true),
        other => panic!("unknown gate machine {other}"),
    }
}

/// The measured metrics of one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// Scenario id (join key).
    pub id: String,
    /// Ranks the collective ran over.
    pub ranks: usize,
    /// Message (or block) bytes.
    pub bytes: usize,
    /// Simulated completion time, seconds.
    pub seconds: f64,
    /// Nominal bandwidth in MB/s (collective-specific normalization; only
    /// comparable against the same scenario's baseline).
    pub bw_mbs: f64,
    /// Operation count of the schedule.
    pub ops: usize,
    /// Critical-path coverage of the simulated run (share of wall time the
    /// analyzer attributes to identified spans).
    pub coverage: f64,
    /// Share of the critical path spent waiting on dependencies or in
    /// notify spans rather than moving payload (0 in baselines written
    /// before the field existed — such entries are not compared).
    #[serde(default)]
    pub wait_share: f64,
}

/// The gate's output document (`BENCH_collectives.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GateReport {
    /// Format version of this document.
    pub schema_version: u32,
    /// One row per canonical scenario.
    pub scenarios: Vec<ScenarioResult>,
}

impl GateReport {
    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Parses a report or baseline document.
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| format!("bad gate report JSON: {e:?}"))
    }

    /// The row for `id`, if present.
    pub fn get(&self, id: &str) -> Option<&ScenarioResult> {
        self.scenarios.iter().find(|s| s.id == id)
    }
}

/// Plans `scenario` on `comm` — the one construction the gate scores and
/// the audit explains; `sinks` only decides what is recorded alongside.
fn plan(scenario: &Scenario, comm: &Communicator, sinks: Sinks<'_>) -> Schedule {
    let request = Request::new(scenario.collective, 0, scenario.bytes);
    AdaptiveColl::default().plan(comm, request, sinks)
}

/// One scenario's audit artifacts: the plan that explains it and the
/// verdict of joining the executed sim leg back against that plan.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioAudit {
    /// Scenario id (same join key as [`ScenarioResult`]).
    pub id: String,
    /// The recorded plan: every algorithm, distance-class, chunk-class,
    /// cache, and recovery decision with its inputs.
    pub provenance: Provenance,
    /// Conformance of the simulated execution against the plan.
    pub conformance: ConformanceReport,
}

impl ScenarioAudit {
    /// True when the executed leg conformed to the plan exactly.
    pub fn passed(&self) -> bool {
        self.conformance.passed()
    }
}

/// Plans one scenario with a provenance recorder attached and audits the
/// simulated execution against the recorded plan.
pub fn audit_scenario(scenario: &Scenario) -> ScenarioAudit {
    let machine = Arc::new(machine_by_label(&scenario.machine));
    let ranks = machine.num_cores();
    let binding = scenario
        .policy
        .bind(&machine, ranks)
        .expect("gate placement fits");
    let comm = Communicator::world(Arc::clone(&machine), binding.clone());
    let mut provenance = Provenance::default();
    let sinks = Sinks {
        cache: None,
        provenance: Some(&mut provenance),
    };
    let schedule = plan(scenario, &comm, sinks);
    let report = SimExecutor::new(&machine, &binding, SimConfig::default())
        .with_transport_model(scenario.transport)
        .run(&schedule)
        .expect("gate schedules validate");
    let dist = DistanceMatrix::for_binding(&machine, &binding);
    let events = sim_events_with_distances(&schedule, &report, Some(&dist));
    let conformance = ConformanceReport::audit(&OpGraph::from_events(&events), &provenance);
    ScenarioAudit {
        id: scenario.id.clone(),
        provenance,
        conformance,
    }
}

/// Audits the whole canonical matrix.
pub fn audit_gate_scenarios() -> Vec<ScenarioAudit> {
    canonical_scenarios().iter().map(audit_scenario).collect()
}

/// Runs one scenario through the simulator and the critical-path analyzer.
pub fn run_scenario(scenario: &Scenario) -> ScenarioResult {
    let machine = Arc::new(machine_by_label(&scenario.machine));
    let ranks = machine.num_cores();
    let binding = scenario
        .policy
        .bind(&machine, ranks)
        .expect("gate placement fits");
    let comm = Communicator::world(Arc::clone(&machine), binding.clone());
    let schedule = plan(scenario, &comm, Sinks::default());
    let report = SimExecutor::new(&machine, &binding, SimConfig::default())
        .with_transport_model(scenario.transport)
        .run(&schedule)
        .expect("gate schedules validate");

    let dist = DistanceMatrix::for_binding(&machine, &binding);
    let events = sim_events_with_distances(&schedule, &report, Some(&dist));
    let cp = CriticalPathReport::extract(&OpGraph::from_events(&events));

    let n = ranks;
    let bw_mbs = match scenario.collective {
        // Sized by the whole message.
        Collective::Bcast | Collective::Allreduce | Collective::Reduce | Collective::Barrier => {
            pdac_simnet::bw_bcast(n, scenario.bytes, report.total_time)
        }
        // Sized by the per-rank block.
        Collective::Allgather
        | Collective::ReduceScatter
        | Collective::Gather
        | Collective::Scatter
        | Collective::Alltoall => pdac_simnet::bw_allgather(n, scenario.bytes, report.total_time),
    };
    let notify_us = cp
        .by_mech
        .iter()
        .find(|r| r.key == "notify")
        .map(|r| r.us)
        .unwrap_or(0.0);
    ScenarioResult {
        id: scenario.id.clone(),
        ranks,
        bytes: scenario.bytes,
        seconds: report.total_time,
        bw_mbs,
        ops: schedule.ops.len(),
        coverage: cp.coverage,
        wait_share: (cp.wait_us + notify_us) / cp.wall_us.max(f64::MIN_POSITIVE),
    }
}

/// Runs the whole canonical matrix.
pub fn run_gate_scenarios() -> GateReport {
    GateReport {
        schema_version: 1,
        scenarios: canonical_scenarios().iter().map(run_scenario).collect(),
    }
}

/// Per-metric tolerances of the comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Tolerances {
    /// Allowed relative slowdown of `seconds` (0.05 = 5% slower passes).
    pub seconds_rel: f64,
    /// Allowed relative growth of the schedule's op count.
    pub ops_rel: f64,
    /// Minimum critical-path coverage every scenario must keep.
    pub coverage_min: f64,
    /// Allowed absolute growth of `wait_share` over the baseline (only
    /// checked when the baseline recorded a nonzero share).
    #[serde(default = "default_wait_share_abs")]
    pub wait_share_abs: f64,
}

fn default_wait_share_abs() -> f64 {
    0.10
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            seconds_rel: 0.05,
            ops_rel: 0.25,
            coverage_min: 0.90,
            wait_share_abs: default_wait_share_abs(),
        }
    }
}

/// One tolerance violation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// Scenario id.
    pub id: String,
    /// Metric that regressed (`seconds`, `ops`, `coverage`, `missing`).
    pub metric: String,
    /// Baseline value (0 for `missing`).
    pub baseline: f64,
    /// Current value (0 for `missing`).
    pub current: f64,
    /// The limit the current value crossed.
    pub limit: f64,
}

/// The verdict of one gate comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GateOutcome {
    /// Scenarios compared against the baseline.
    pub compared: usize,
    /// Scenarios that got faster by more than the tolerance (informational).
    pub improved: Vec<String>,
    /// Tolerance violations (any entry fails the gate).
    pub violations: Vec<Violation>,
    /// Scenario ids present only in the current run (new scenarios are
    /// informational — they fail nothing until the baseline knows them).
    pub added: Vec<String>,
    /// Scenarios whose `wait_share` check was skipped because the baseline
    /// predates the field (deserialized to 0). Skips used to be silent;
    /// now every one is listed so a stale baseline can't quietly disable
    /// the pipeline-efficiency check.
    #[serde(default)]
    pub wait_share_skipped: Vec<String>,
}

impl GateOutcome {
    /// True when the gate passes.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Process exit code the gate binary should return.
    pub fn exit_code(&self) -> i32 {
        if self.passed() {
            0
        } else {
            1
        }
    }

    /// Human-readable multi-line rendering.
    pub fn render(&self) -> String {
        let mut out = format!(
            "gate: {} scenarios compared, {} violations, {} improved, {} new, {} wait_share skipped\n",
            self.compared,
            self.violations.len(),
            self.improved.len(),
            self.added.len(),
            self.wait_share_skipped.len(),
        );
        for v in &self.violations {
            out.push_str(&format!(
                "  FAIL {}  {}: baseline {:.6e} -> current {:.6e} (limit {:.6e})\n",
                v.id, v.metric, v.baseline, v.current, v.limit,
            ));
        }
        for id in &self.improved {
            out.push_str(&format!(
                "  improved {id} (consider refreshing the baseline)\n"
            ));
        }
        for id in &self.added {
            out.push_str(&format!("  new scenario {id} (absent from baseline)\n"));
        }
        for id in &self.wait_share_skipped {
            out.push_str(&format!(
                "  skipped wait_share for {id} (legacy baseline has no recorded share; refresh the baseline)\n"
            ));
        }
        out.push_str(if self.passed() {
            "gate: PASS\n"
        } else {
            "gate: FAIL\n"
        });
        out
    }
}

/// Compares a current run against the checked-in baseline.
///
/// A scenario fails on: `seconds` above baseline by more than
/// `seconds_rel`, `ops` grown by more than `ops_rel`, `coverage` below
/// `coverage_min`, or disappearing from the run while the baseline still
/// lists it. Improvements beyond tolerance are reported, not failed.
pub fn compare(current: &GateReport, baseline: &GateReport, tol: Tolerances) -> GateOutcome {
    let mut outcome = GateOutcome {
        compared: 0,
        improved: Vec::new(),
        violations: Vec::new(),
        added: Vec::new(),
        wait_share_skipped: Vec::new(),
    };
    for base in &baseline.scenarios {
        let Some(cur) = current.get(&base.id) else {
            outcome.violations.push(Violation {
                id: base.id.clone(),
                metric: "missing".into(),
                baseline: 1.0,
                current: 0.0,
                limit: 1.0,
            });
            continue;
        };
        outcome.compared += 1;
        let seconds_limit = base.seconds * (1.0 + tol.seconds_rel);
        if cur.seconds > seconds_limit {
            outcome.violations.push(Violation {
                id: base.id.clone(),
                metric: "seconds".into(),
                baseline: base.seconds,
                current: cur.seconds,
                limit: seconds_limit,
            });
        } else if cur.seconds < base.seconds * (1.0 - tol.seconds_rel) {
            outcome.improved.push(base.id.clone());
        }
        let ops_limit = base.ops as f64 * (1.0 + tol.ops_rel);
        if cur.ops as f64 > ops_limit {
            outcome.violations.push(Violation {
                id: base.id.clone(),
                metric: "ops".into(),
                baseline: base.ops as f64,
                current: cur.ops as f64,
                limit: ops_limit,
            });
        }
        if cur.coverage < tol.coverage_min {
            outcome.violations.push(Violation {
                id: base.id.clone(),
                metric: "coverage".into(),
                baseline: base.coverage,
                current: cur.coverage,
                limit: tol.coverage_min,
            });
        }
        // Baselines written before the field existed deserialize to 0 and
        // are skipped — but loudly, per scenario, so a stale baseline
        // can't silently disable the check. Once a baseline records a
        // real share, the pipeline must not quietly give the win back.
        if base.wait_share > 0.0 {
            let wait_share_limit = base.wait_share + tol.wait_share_abs;
            if cur.wait_share > wait_share_limit {
                outcome.violations.push(Violation {
                    id: base.id.clone(),
                    metric: "wait_share".into(),
                    baseline: base.wait_share,
                    current: cur.wait_share,
                    limit: wait_share_limit,
                });
            }
        } else {
            outcome.wait_share_skipped.push(base.id.clone());
        }
    }
    for cur in &current.scenarios {
        if baseline.get(&cur.id).is_none() {
            outcome.added.push(cur.id.clone());
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_report() -> GateReport {
        // One cheap scenario per collective keeps the unit tests fast; the
        // full matrix runs in the integration test and the binary.
        let scenarios: Vec<Scenario> = canonical_scenarios()
            .into_iter()
            .filter(|s| s.machine == "zoot" && matches!(s.policy, BindingPolicy::Contiguous))
            .filter(|s| s.bytes <= 16 << 10)
            .collect();
        assert!(!scenarios.is_empty());
        GateReport {
            schema_version: 1,
            scenarios: scenarios.iter().map(run_scenario).collect(),
        }
    }

    #[test]
    fn scenarios_are_deterministic_and_covered() {
        let a = small_report();
        let b = small_report();
        assert_eq!(a, b, "the simulator gate is deterministic");
        for s in &a.scenarios {
            assert!(s.seconds > 0.0, "{} has a positive runtime", s.id);
            assert!(s.ops > 0);
            assert!(s.coverage >= 0.90, "{} coverage {:.3}", s.id, s.coverage);
        }
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let report = small_report();
        let outcome = compare(&report, &report, Tolerances::default());
        assert!(outcome.passed());
        assert_eq!(outcome.exit_code(), 0);
        assert_eq!(outcome.compared, report.scenarios.len());
        assert!(outcome.render().contains("gate: PASS"));
    }

    #[test]
    fn degraded_baseline_fails_with_nonzero_exit() {
        let report = small_report();
        // A deliberately degraded baseline: the past was 2x faster and
        // used half the ops, so the current run reads as a regression.
        let mut degraded = report.clone();
        for s in &mut degraded.scenarios {
            s.seconds /= 2.0;
            s.ops /= 2;
        }
        let outcome = compare(&report, &degraded, Tolerances::default());
        assert!(!outcome.passed());
        assert_ne!(outcome.exit_code(), 0, "regressions must exit nonzero");
        assert!(outcome.violations.iter().any(|v| v.metric == "seconds"));
        assert!(outcome.violations.iter().any(|v| v.metric == "ops"));
        assert!(outcome.render().contains("gate: FAIL"));
    }

    #[test]
    fn missing_and_added_scenarios_are_tracked() {
        let report = small_report();
        let mut baseline = report.clone();
        baseline.scenarios.push(ScenarioResult {
            id: "ghost/bcast/contig/1M".into(),
            ranks: 4,
            bytes: 1 << 20,
            seconds: 1.0,
            bw_mbs: 1.0,
            ops: 10,
            coverage: 1.0,
            wait_share: 0.1,
        });
        let mut current = report.clone();
        current.scenarios.push(ScenarioResult {
            id: "novel/bcast/contig/1M".into(),
            ..baseline.scenarios.last().unwrap().clone()
        });
        let outcome = compare(&current, &baseline, Tolerances::default());
        assert!(outcome.violations.iter().any(|v| v.metric == "missing"));
        assert_eq!(outcome.added, vec!["novel/bcast/contig/1M".to_string()]);
    }

    #[test]
    fn wait_share_regression_fails_legacy_baseline_skips() {
        let report = small_report();
        // A baseline whose pipeline spent far less of the path waiting:
        // the current run must read as a wait_share regression.
        let mut lean = report.clone();
        for s in &mut lean.scenarios {
            s.wait_share = 0.001;
        }
        let mut current = report.clone();
        for s in &mut current.scenarios {
            s.wait_share = 0.5;
        }
        let outcome = compare(&current, &lean, Tolerances::default());
        assert!(outcome.violations.iter().any(|v| v.metric == "wait_share"));
        assert!(outcome.wait_share_skipped.is_empty());
        // A pre-field baseline (wait_share deserialized to 0) is skipped —
        // but every skip is now logged and counted, not silent.
        let mut legacy = report.clone();
        for s in &mut legacy.scenarios {
            s.wait_share = 0.0;
        }
        let outcome = compare(&current, &legacy, Tolerances::default());
        assert!(!outcome.violations.iter().any(|v| v.metric == "wait_share"));
        assert_eq!(outcome.wait_share_skipped.len(), legacy.scenarios.len());
        let rendered = outcome.render();
        for s in &legacy.scenarios {
            assert!(outcome.wait_share_skipped.contains(&s.id));
            assert!(
                rendered.contains(&format!("skipped wait_share for {}", s.id)),
                "each skipped scenario is listed"
            );
        }
        assert!(rendered.contains(&format!("{} wait_share skipped", legacy.scenarios.len())));
    }

    #[test]
    fn rdma_scenarios_extend_the_matrix_without_renaming_knem_rows() {
        let all = canonical_scenarios();
        let rdma: Vec<_> = all
            .iter()
            .filter(|s| s.transport == TransportModel::Rdma)
            .collect();
        assert!(rdma.len() >= 4, "gate tracks the RDMA transport slice");
        for s in &rdma {
            assert!(
                s.id.ends_with("/rdma"),
                "{} carries the transport suffix",
                s.id
            );
        }
        // KNEM rows keep their historical ids so old baselines still join.
        for s in all.iter().filter(|s| s.transport == TransportModel::Knem) {
            assert!(!s.id.contains("/rdma"));
        }
        // Same scenario under RDMA completes faster: lower setup cost per
        // op, everything else identical.
        let knem = run_scenario(
            all.iter()
                .find(|s| s.id == "zoot/bcast/contig/1M")
                .expect("knem row"),
        );
        let rdma = run_scenario(
            all.iter()
                .find(|s| s.id == "zoot/bcast/contig/1M/rdma")
                .expect("rdma row"),
        );
        assert_eq!(knem.ops, rdma.ops, "same schedule under both models");
        assert!(
            rdma.seconds < knem.seconds,
            "rdma {:.6e}s undercuts knem {:.6e}s",
            rdma.seconds,
            knem.seconds
        );
    }

    #[test]
    fn audited_scenarios_conform_and_explain_their_decisions() {
        // The cheap slice here; the full 44-scenario matrix is audited in
        // the integration test and the `pdac-bench audit` binary.
        let scenarios: Vec<Scenario> = canonical_scenarios()
            .into_iter()
            .filter(|s| s.machine == "zoot" && s.bytes <= 16 << 10)
            .collect();
        assert!(!scenarios.is_empty());
        for scenario in &scenarios {
            let audit = audit_scenario(scenario);
            assert!(
                audit.passed(),
                "{}:\n{}",
                scenario.id,
                audit.conformance.render()
            );
            assert_eq!(
                audit.conformance.executed_ops,
                audit.conformance.planned_ops
            );
            // Every audited plan names its algorithm choice with inputs.
            let explain = audit.provenance.explain();
            assert!(explain.contains("algorithm"), "{explain}");
            assert!(!audit.provenance.decisions.is_empty());
            for d in &audit.provenance.decisions {
                assert!(
                    !d.reason.is_empty(),
                    "{}: bare decision {:?}",
                    scenario.id,
                    d
                );
                assert!(
                    !d.inputs.is_empty(),
                    "{}: inputless decision {:?}",
                    scenario.id,
                    d
                );
            }
        }
    }

    #[test]
    fn gate_report_json_round_trips() {
        let report = small_report();
        let back = GateReport::from_json(&report.to_json()).expect("round trip");
        assert_eq!(back, report);
        assert!(GateReport::from_json("not json").is_err());
    }
}
