//! The canonical scenario matrix and its exact oracle.
//!
//! `pdac gate` runs a canonical scenario matrix — bcast / allgather /
//! allreduce at small and large sizes, contiguous and cross-socket
//! placements, across the hwtopo machine set — through the timing
//! simulator and writes one line per scenario to `results/gate.txt`
//! ([`render_table`]). The simulator is deterministic, so the committed
//! table is checked by equality: `tests/gate_conformance.rs` renders it
//! again and fails on the first line that differs. A change that means to
//! move a simulated number regenerates the file and commits it with the
//! change.
//!
//! `pdac audit` runs the same matrix with a provenance recorder attached to
//! each plan and joins the executed sim leg back against it: any
//! unexplained, missing, mismatched or re-ordered op fails it. It writes
//! `BENCH_provenance.json` (the decision records), `BENCH_conformance.json`
//! (per-scenario verdicts) and `BENCH_explain.txt` (the explain reports).

use std::fmt::Write as _;
use std::sync::Arc;

use pdac_analyze::{ConformanceReport, CriticalPathReport, OpGraph};
use pdac_core::{AdaptiveColl, Collective, Provenance, Request, Sinks};
use pdac_hwtopo::{machines, BindingPolicy, DistanceMatrix, Machine};
use pdac_mpisim::Communicator;
use pdac_simnet::trace::sim_events_with_distances;
use pdac_simnet::{SimConfig, SimExecutor, TransportModel};
use serde::Serialize;

/// One cell of the canonical matrix.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable id (`ig/bcast/contig/1M`) — the row key of `results/gate.txt`.
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
///
/// Every scenario binds all of the machine's cores, so a `contig` row and
/// its `xsock` twin differ only in how the ranks are numbered. The
/// distance-aware plan does not depend on that numbering, so each twin
/// pair simulates the same `seconds` and `ops` exactly: the paper's
/// placement independence, checked as an equality.
pub fn canonical_scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();
    let mut push = |machine: &str, collective: Collective, bytes: usize, transport| {
        let suffix = if transport == TransportModel::Rdma { "/rdma" } else { "" };
        let size = crate::human_size(bytes);
        for (placement, policy) in
            [("contig", BindingPolicy::Contiguous), ("xsock", BindingPolicy::CrossSocket)]
        {
            out.push(Scenario {
                id: format!("{machine}/{}/{placement}/{size}{suffix}", collective.label()),
                machine: machine.to_string(),
                collective,
                policy,
                bytes,
                transport,
            });
        }
    };
    for machine in ["ig", "zoot", "syn2x2x8"] {
        for (collective, sizes) in [
            (Collective::Bcast, [16 << 10, 1 << 20]),
            (Collective::Allgather, [4 << 10, 64 << 10]),
            (Collective::Allreduce, [16 << 10, 1 << 20]),
        ] {
            for bytes in sizes {
                push(machine, collective, bytes, TransportModel::Knem);
            }
        }
    }
    for machine in ["ig", "zoot"] {
        for (collective, bytes) in [(Collective::Bcast, 1 << 20), (Collective::Allgather, 64 << 10)]
        {
            push(machine, collective, bytes, TransportModel::Rdma);
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

/// The measured metrics of one scenario: one line of `results/gate.txt`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Scenario id.
    pub id: String,
    /// Ranks the collective ran over.
    pub ranks: usize,
    /// Message (or block) bytes.
    pub bytes: usize,
    /// Simulated completion time, seconds.
    pub seconds: f64,
    /// Operation count of the schedule.
    pub ops: usize,
    /// Critical-path coverage of the simulated run (share of wall time the
    /// analyzer attributes to identified spans).
    pub coverage: f64,
    /// Share of the critical path spent waiting on dependencies or in
    /// notify spans rather than moving payload.
    pub wait_share: f64,
    /// [`pdac_simnet::SimReport::digest`] of the simulated run: every op's
    /// start and finish, every rank's busy time, every resource's traffic.
    pub digest: u64,
}

/// Renders `rows` as `results/gate.txt`: a header line, then one line per
/// row. Floats are printed in shortest round-trip form, so the text holds
/// every bit of every number.
pub fn render_table(rows: &[ScenarioResult]) -> String {
    let mut out = format!(
        "{:<30} {:>5} {:>8} {:>6} {:>23} {:>18} {:>20} {:>18}\n",
        "# id", "ranks", "bytes", "ops", "seconds", "coverage", "wait_share", "digest"
    );
    for r in rows {
        writeln!(
            out,
            "{:<30} {:>5} {:>8} {:>6} {:>23} {:>18} {:>20} {:#018x}",
            r.id,
            r.ranks,
            r.bytes,
            r.ops,
            format!("{:?}", r.seconds),
            format!("{:?}", r.coverage),
            format!("{:?}", r.wait_share),
            r.digest,
        )
        .expect("writing to a String cannot fail");
    }
    out
}

/// One scenario's audit artifacts: the plan that explains it and the
/// verdict of joining the executed sim leg back against that plan.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioAudit {
    /// Scenario id (same key as [`ScenarioResult`]).
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

/// Runs one scenario once: plans it with a provenance recorder attached,
/// simulates the plan, and reads both the table row (through the
/// critical-path analyzer) and the audit (through the conformance check)
/// off that one run.
pub fn run_scenario(scenario: &Scenario) -> (ScenarioResult, ScenarioAudit) {
    let machine = Arc::new(machine_by_label(&scenario.machine));
    let ranks = machine.num_cores();
    let binding = scenario.policy.bind(&machine, ranks).expect("gate placement fits");
    let comm = Communicator::world(Arc::clone(&machine), binding);
    let mut provenance = Provenance::default();
    let sinks = Sinks { cache: None, provenance: Some(&mut provenance) };
    let request = Request::new(scenario.collective, 0, scenario.bytes);
    let schedule = AdaptiveColl.plan(&comm, request, sinks);
    let report = SimExecutor::new(&machine, comm.binding(), SimConfig::default())
        .with_transport_model(scenario.transport)
        .run(&schedule)
        .expect("gate schedules validate");

    let dist = DistanceMatrix::for_binding(&machine, comm.binding());
    let events = sim_events_with_distances(&schedule, &report, Some(&dist));
    let graph = OpGraph::from_events(&events);
    let cp = CriticalPathReport::extract(&graph);
    let notify_us = cp.by_mech.iter().find(|r| r.key == "notify").map(|r| r.us).unwrap_or(0.0);
    let row = ScenarioResult {
        id: scenario.id.clone(),
        ranks,
        bytes: scenario.bytes,
        seconds: report.total_time,
        ops: schedule.ops.len(),
        coverage: cp.coverage,
        wait_share: (cp.wait_us + notify_us) / cp.wall_us.max(f64::MIN_POSITIVE),
        digest: report.digest(),
    };
    let audit = ScenarioAudit {
        id: scenario.id.clone(),
        conformance: ConformanceReport::audit(&graph, &provenance),
        provenance,
    };
    (row, audit)
}

/// Runs the whole canonical matrix, one pass per scenario: the table rows
/// and the audits, both in matrix order.
pub fn run_gate_scenarios() -> (Vec<ScenarioResult>, Vec<ScenarioAudit>) {
    canonical_scenarios().iter().map(run_scenario).unzip()
}

/// `pdac gate`: the matrix, written to `results/gate.txt`.
pub fn write_table() -> Result<(), String> {
    eprintln!("running {} gate scenarios...", canonical_scenarios().len());
    let (rows, _) = run_gate_scenarios();
    crate::write_file("results/gate.txt", &render_table(&rows))
}

/// `pdac audit`: the matrix against its plans, artifacts in `out_dir`.
/// Fails when a scenario does not conform.
pub fn audit(out_dir: &str) -> Result<(), String> {
    eprintln!("auditing {} gate scenarios against their plans...", canonical_scenarios().len());
    let (_, audits) = run_gate_scenarios();
    let conformance: Vec<_> = audits.iter().map(|a| &a.conformance).collect();
    let mut explain = String::new();
    for a in &audits {
        let (plan, verdict) = (a.provenance.explain(), a.conformance.render());
        let _ = write!(explain, "=== {} ===\n{plan}{verdict}\n", a.id);
    }
    for (name, body) in [
        ("BENCH_provenance.json", serde_json::to_string_pretty(&audits).expect("serializes")),
        ("BENCH_conformance.json", serde_json::to_string_pretty(&conformance).expect("serializes")),
        ("BENCH_explain.txt", explain),
    ] {
        crate::write_file(std::path::Path::new(out_dir).join(name), &body)?;
    }

    let failed: Vec<&ScenarioAudit> = audits.iter().filter(|a| !a.passed()).collect();
    for a in &failed {
        print!("{}", a.conformance.render());
        println!("  FAIL {}", a.id);
    }
    if failed.is_empty() {
        let n = audits.len();
        println!("audit: PASS ({n} scenarios, every executed op explained by its plan)");
        Ok(())
    } else {
        Err(format!("audit failed: {} of {} scenarios", failed.len(), audits.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rdma_scenarios_extend_the_matrix_without_renaming_knem_rows() {
        let all = canonical_scenarios();
        let rdma: Vec<_> = all.iter().filter(|s| s.transport == TransportModel::Rdma).collect();
        assert!(rdma.len() >= 4, "gate tracks the RDMA transport slice");
        for s in &rdma {
            assert!(s.id.ends_with("/rdma"), "{} carries the transport suffix", s.id);
        }
        // KNEM rows keep their historical ids.
        for s in all.iter().filter(|s| s.transport == TransportModel::Knem) {
            assert!(!s.id.contains("/rdma"));
        }
        // Same scenario under RDMA completes faster: lower setup cost per
        // op, everything else identical.
        let row = |id: &str| run_scenario(all.iter().find(|s| s.id == id).expect("row")).0;
        let knem = row("zoot/bcast/contig/1M");
        let rdma = row("zoot/bcast/contig/1M/rdma");
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
        // the integration test and the `pdac audit` subcommand.
        let scenarios: Vec<Scenario> = canonical_scenarios()
            .into_iter()
            .filter(|s| s.machine == "zoot" && s.bytes <= 16 << 10)
            .collect();
        assert!(!scenarios.is_empty());
        for scenario in &scenarios {
            let (_, audit) = run_scenario(scenario);
            assert!(audit.passed(), "{}:\n{}", scenario.id, audit.conformance.render());
            assert_eq!(audit.conformance.executed_ops, audit.conformance.planned_ops);
            // Every audited plan names its algorithm choice with inputs.
            let explain = audit.provenance.explain();
            assert!(explain.contains("algorithm"), "{explain}");
            assert!(!audit.provenance.decisions.is_empty());
            for d in &audit.provenance.decisions {
                assert!(!d.reason.is_empty(), "{}: bare decision {:?}", scenario.id, d);
                assert!(!d.inputs.is_empty(), "{}: inputless decision {:?}", scenario.id, d);
            }
        }
    }
}
