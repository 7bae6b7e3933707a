//! `pdac trace` — run one collective on both executors with telemetry,
//! explain its plan, re-analyze saved traces and diff two runs.
//!
//! `run` executes the distance-aware collective for real on the thread
//! executor (process `real`, pid 2) and through the contention simulator
//! (process `sim`, pid 1), and writes to its output directory:
//!
//! * `trace_real.json` — Chrome Trace Event timeline of the real run (per
//!   operation: rank, peer, mechanism, bytes, distance class). The run
//!   holds a reader on the event recorder, which is what arms it.
//! * `trace_sim.json` — the simulated counterpart, same format and
//!   exporter; load both into <https://ui.perfetto.dev> side-by-side.
//! * `metrics.json` — registry snapshot: counters plus log-bucketed
//!   latency histograms per op kind and distance class
//!   (`exec.op_ns.<mech>.d<class>`).
//! * `critical_path.json` — per-leg critical-path reports: the longest
//!   causal chain of the run, with time attributed per rank, mechanism
//!   and distance class.
//! * `divergence.json` — the sim-vs-real model-drift report: per
//!   (mechanism, distance-class) real/sim ratios, normalized by the run's
//!   global calibration scale and flagged beyond tolerance.
//!
//! `explain` plans the collective with a provenance recorder attached,
//! prints every algorithm, topology, distance-class, chunking and cache
//! decision with the inputs that drove it, executes both legs (the real leg
//! with the plan id stamped onto every op span) and audits each against the
//! plan. It writes `provenance.json` and `conformance.json`. Re-running it
//! after a re-binding and passing both provenance files to `diff` answers
//! "what changed in the plan and which decision input moved".
//!
//! `analyze` recomputes the two reports offline from the saved traces of an
//! earlier `run`: op ids, distance classes and dependency links ride in the
//! span args.
//!
//! `diff` compares two `provenance.json` plans (the decisions and decision
//! inputs that changed) or two `metrics.json` snapshots (counters and
//! per-histogram count, mean and percentiles). Both flatten to `key →
//! value` and go through the one differ, `pdac_telemetry::diff`.

use std::sync::Arc;

use pdac_analyze::{
    events_from_chrome_trace, ConformanceReport, CriticalPathReport, DivergenceReport, OpGraph,
};
use pdac_core::verify::pattern;
use pdac_core::{AdaptiveColl, Provenance, Request, Sinks};
use pdac_hwtopo::{Binding, DistanceMatrix, Machine};
use pdac_mpisim::{Communicator, ThreadExecutor};
use pdac_simnet::trace::sim_events_with_distances;
use pdac_simnet::{Schedule, SimConfig, SimExecutor, SimReport};
use pdac_telemetry::export::{chrome_trace, TraceMeta};
use pdac_telemetry::RegistrySnapshot;

use crate::write_file;

/// One traced collective: what to plan, where, and where the artifacts go.
pub struct Job {
    /// The collective, planned from root 0.
    pub request: Request,
    /// The machine the ranks run on.
    pub machine: Arc<Machine>,
    /// Where each rank is bound.
    pub binding: Binding,
    /// Output directory, created on demand.
    pub outdir: String,
}

impl Job {
    fn write(&self, name: &str, body: &str) -> Result<(), String> {
        write_file(format!("{}/{name}", self.outdir), body)
    }

    fn distances(&self) -> Arc<DistanceMatrix> {
        Arc::new(DistanceMatrix::for_binding(&self.machine, &self.binding))
    }

    fn plan(&self, prov: Option<&mut Provenance>) -> Schedule {
        let comm = Communicator::world(Arc::clone(&self.machine), self.binding.clone());
        let sinks = Sinks { cache: None, provenance: prov };
        AdaptiveColl.plan(&comm, self.request, sinks)
    }

    /// The sim leg of `schedule`.
    fn simulate(&self, schedule: &Schedule) -> Result<SimReport, String> {
        SimExecutor::new(&self.machine, &self.binding, SimConfig::default())
            .run(schedule)
            .map_err(|e| e.to_string())
    }
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// `pdac trace run`.
pub fn run(job: &Job) -> Result<(), String> {
    let distances = job.distances();
    let telemetry = pdac_telemetry::global();
    // One run, one set of artifacts: drop everything counted before now
    // (including the distance fill above). The recorder records while the
    // reader is held.
    telemetry.reset();
    let reader = telemetry.recorder().reader();
    let schedule = job.plan(None);

    // Real leg: the thread executor moves actual bytes, recording per-op
    // spans (with distance classes via the matrix) into the recorder and
    // latency histograms into the registry.
    let res = ThreadExecutor::new()
        .with_distances(Arc::clone(&distances))
        .run(&schedule, pattern)
        .map_err(|e| e.to_string())?;
    let real_events = reader.drain();
    drop(reader);
    let meta = |m: TraceMeta| m.with_ranks(schedule.num_ranks);

    // Sim leg: the same schedule through the contention model, rendered by
    // the same exporter.
    let report = job.simulate(&schedule)?;
    let sim = sim_events_with_distances(&schedule, &report, Some(&distances));

    job.write("trace_real.json", &chrome_trace(&real_events, &meta(TraceMeta::real())))?;
    job.write("trace_sim.json", &chrome_trace(&sim.events(), &meta(TraceMeta::sim())))?;
    job.write("metrics.json", &telemetry.registry().snapshot().to_json())?;
    write_reports(&job.outdir, &OpGraph::from_events(&real_events), &OpGraph::from_events(&sim))?;

    println!(
        "{}: {} ops over {} ranks; real run {} KNEM copies, sim {:.3} ms",
        schedule.name,
        schedule.ops.len(),
        schedule.num_ranks,
        res.knem_stats.copies,
        report.total_time * 1e3,
    );
    println!("load both traces in ui.perfetto.dev to compare real vs sim side-by-side");
    Ok(())
}

/// `pdac trace explain`: fails when either leg does not conform to the plan.
pub fn explain(job: &Job) -> Result<(), String> {
    let distances = job.distances();
    let telemetry = pdac_telemetry::global();
    telemetry.reset();
    let reader = telemetry.recorder().reader();
    let mut prov = Provenance::default();
    let schedule = job.plan(Some(&mut prov));
    print!("{}", prov.explain());

    // Real leg, with the plan id stamped onto every op span so the audit
    // can tell this plan's ops from anything else in the trace.
    ThreadExecutor::new()
        .with_distances(Arc::clone(&distances))
        .with_plan_id(prov.plan_id.clone())
        .run(&schedule, pattern)
        .map_err(|e| e.to_string())?;
    let real = OpGraph::from_events(&reader.drain());
    drop(reader);
    let report = job.simulate(&schedule)?;
    let sim =
        OpGraph::from_events(&sim_events_with_distances(&schedule, &report, Some(&distances)));

    let sim_conf = ConformanceReport::audit(&sim, &prov);
    println!("-- sim leg --");
    print!("{}", sim_conf.render());
    let real_conf = ConformanceReport::audit(&real, &prov);
    println!("-- real leg --");
    print!("{}", real_conf.render());

    job.write("provenance.json", &prov.to_json())?;
    job.write(
        "conformance.json",
        &format!("{{\"sim\":{},\"real\":{}}}\n", sim_conf.to_json(), real_conf.to_json()),
    )?;
    println!(
        "re-run after a re-binding and diff the plans with \
         `pdac trace diff <old>/provenance.json {}/provenance.json`",
        job.outdir
    );
    if sim_conf.passed() && real_conf.passed() {
        Ok(())
    } else {
        Err("the executed legs do not conform to the plan".into())
    }
}

/// Renders the two per-leg critical-path reports and the divergence report,
/// and writes `critical_path.json` / `divergence.json` to `outdir`.
fn write_reports(outdir: &str, real: &OpGraph, sim: &OpGraph) -> Result<(), String> {
    let cp_real = CriticalPathReport::extract(real);
    let cp_sim = CriticalPathReport::extract(sim);
    let div = DivergenceReport::compare(real, sim);
    write_file(
        format!("{outdir}/critical_path.json"),
        &format!("{{\"real\":{},\"sim\":{}}}\n", cp_real.to_json(), cp_sim.to_json()),
    )?;
    write_file(format!("{outdir}/divergence.json"), &div.to_json())?;
    println!("-- sim leg --");
    print!("{}", cp_sim.render());
    println!("-- real leg --");
    print!("{}", cp_real.render());
    println!("-- sim vs real --");
    print!("{}", div.render());
    Ok(())
}

/// `pdac trace analyze`: the reports again, from the traces `run` saved.
pub fn analyze(outdir: &str) -> Result<(), String> {
    let load = |name: &str| -> Result<OpGraph, String> {
        let path = format!("{outdir}/{name}");
        let events = events_from_chrome_trace(&read_file(&path)?)
            .map_err(|e| format!("{path} is not a trace: {e}"))?;
        Ok(OpGraph::from_events(&events))
    };
    write_reports(outdir, &load("trace_real.json")?, &load("trace_sim.json")?)
}

/// `pdac trace diff`: two provenance documents, or two metrics snapshots,
/// through the one differ.
pub fn diff(base_path: &str, new_path: &str) -> Result<(), String> {
    let (base, new) = (read_file(base_path)?, read_file(new_path)?);
    let load = |path: &str, body: &str| {
        RegistrySnapshot::from_json(body).map(|s| s.flat()).map_err(|e| {
            format!("{path} is neither a provenance document nor a metrics snapshot: {e}")
        })
    };
    let plans = (Provenance::from_json(&base), Provenance::from_json(&new));
    let (header, before, after) = match plans {
        (Ok(b), Ok(n)) => {
            (format!("plan diff: {} -> {}", b.plan_id, n.plan_id), b.flat(), n.flat())
        }
        _ => (
            format!("metrics diff: {base_path} -> {new_path}"),
            load(base_path, &base)?,
            load(new_path, &new)?,
        ),
    };
    print!("{header}\n{}", pdac_telemetry::diff::diff(&before, &after));
    Ok(())
}
