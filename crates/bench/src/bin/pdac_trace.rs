//! `pdac-trace` — run a collective with telemetry, export its artifacts,
//! and diff metric snapshots across runs.
//!
//! Usage:
//!
//! ```text
//! pdac-trace run [collective] [ranks] [bytes] [outdir]
//! pdac-trace explain [collective] [ranks] [bytes] [outdir]
//!                    [--machine ig|zoot] [--policy contig|xsock]
//! pdac-trace explain --diff <base-provenance.json> <new-provenance.json>
//! pdac-trace analyze [outdir]
//! pdac-trace diff <base-metrics.json> <new-metrics.json>
//! ```
//!
//! `[collective]` is any of `bcast`, `allgather`, `allreduce`, `reduce`,
//! `reduce_scatter`, `gather`, `scatter`, `alltoall`, `barrier` (default
//! `bcast`), planned from root 0 with `[bytes]` as the message or per-rank
//! block.
//!
//! `run` executes the chosen distance-aware collective twice — for real on
//! the thread executor (process `real`, pid 2) and through the contention
//! simulator (process `sim`, pid 1) — and writes three artifacts to
//! `outdir` (default `results/pdac_trace`):
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
//! `explain` plans the chosen collective with a provenance recorder
//! attached to the planner, prints the plan's full provenance — every
//! algorithm, topology, distance-class, chunking, and cache decision with
//! the inputs that drove it — then executes both legs (the real leg with the plan id stamped
//! onto every op span) and audits each against the plan. It writes
//! `provenance.json` and `conformance.json` to `outdir` (default
//! `results/pdac_explain`). `--machine` / `--policy` pick the topology and
//! placement; re-running after a re-binding and passing both provenance
//! files to `explain --diff` answers "what changed in the plan and which
//! decision input moved".
//!
//! `analyze` recomputes the two reports offline from the saved
//! `trace_real.json` / `trace_sim.json` of an earlier `run` — the traces
//! are self-describing (op ids, distance classes and dependency links ride
//! in the span args).
//!
//! `diff` compares two `metrics.json` snapshots and prints counter deltas
//! and per-histogram (so per-distance-class) count/mean/percentile shifts
//! — the regression report between two builds or configurations.

use std::sync::Arc;

use pdac_analyze::{
    events_from_chrome_trace, ConformanceReport, CriticalPathReport, DivergenceConfig,
    DivergenceReport, OpGraph,
};
use pdac_core::verify::pattern;
use pdac_core::{AdaptiveColl, Collective, Provenance, Request, Sinks};
use pdac_hwtopo::{machines, BindingPolicy, DistanceMatrix};
use pdac_mpisim::{Communicator, ThreadExecutor};
use pdac_simnet::trace::sim_events_with_distances;
use pdac_simnet::{SimConfig, SimExecutor};
use pdac_telemetry::export::{chrome_trace, TraceMeta};
use pdac_telemetry::RegistrySnapshot;

fn usage() -> ! {
    eprintln!(
        "usage:\n  pdac-trace run [collective] [ranks] [bytes] [outdir]\n  \
         pdac-trace explain [collective] [ranks] [bytes] [outdir]\n  \
         \x20                [--machine ig|zoot] [--policy contig|xsock]\n  \
         pdac-trace explain --diff <base-provenance.json> <new-provenance.json>\n  \
         pdac-trace analyze [outdir]\n  \
         pdac-trace diff <base-metrics.json> <new-metrics.json>"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("explain") => std::process::exit(explain(&args[1..])),
        Some("analyze") => analyze(&args[1..]),
        Some("diff") => diff(&args[1..]),
        _ => usage(),
    }
}

/// The collective named on the command line (any [`Collective::label`];
/// broadcast when absent), planned from root 0 with `[bytes]` as the
/// message or per-rank block.
fn parse_collective(arg: Option<&str>) -> Collective {
    arg.unwrap_or("bcast").parse().unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    })
}

/// Renders the two per-leg critical-path reports plus the divergence
/// report, and writes `critical_path.json` / `divergence.json` to
/// `outdir`. Shared by `run` (in-process events) and `analyze` (events
/// re-parsed from the saved traces).
fn write_reports(outdir: &str, real: &OpGraph, sim: &OpGraph) {
    let cp_real = CriticalPathReport::extract(real);
    let cp_sim = CriticalPathReport::extract(sim);
    let div = DivergenceReport::compare(real, sim, DivergenceConfig::default());

    let write = |name: &str, body: &str| {
        let path = format!("{outdir}/{name}");
        std::fs::write(&path, body).expect("write artifact");
        println!("wrote {path}");
    };
    write(
        "critical_path.json",
        &format!(
            "{{\"real\":{},\"sim\":{}}}\n",
            cp_real.to_json(),
            cp_sim.to_json()
        ),
    );
    write("divergence.json", &div.to_json());

    println!("-- sim leg --");
    print!("{}", cp_sim.render());
    println!("-- real leg --");
    print!("{}", cp_real.render());
    println!("-- sim vs real --");
    print!("{}", div.render());
}

fn run(args: &[String]) {
    let what = parse_collective(args.first().map(String::as_str));
    let ranks: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(8);
    let bytes: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1 << 16);
    let outdir = args
        .get(3)
        .cloned()
        .unwrap_or_else(|| "results/pdac_trace".into());

    let machine = Arc::new(machines::ig());
    let binding = BindingPolicy::Contiguous
        .bind(&machine, ranks)
        .unwrap_or_else(|e| panic!("{ranks} ranks do not fit the IG machine: {e}"));
    let distances = Arc::new(DistanceMatrix::for_binding(&machine, &binding));
    let comm = Communicator::world(Arc::clone(&machine), binding.clone());
    let coll = AdaptiveColl::default();

    let telemetry = pdac_telemetry::global();
    // One run, one set of artifacts: drop everything counted before now
    // (including the distance fill above). The recorder records while the
    // reader is held.
    telemetry.reset();
    let reader = telemetry.recorder().reader();

    let schedule = coll.plan(&comm, Request::new(what, 0, bytes), Sinks::default());

    // Real leg: the thread executor moves actual bytes, recording per-op
    // spans (with distance classes via the matrix) into the recorder and
    // latency histograms into the registry.
    let res = ThreadExecutor::new()
        .with_distances(Arc::clone(&distances))
        .run(&schedule, pattern)
        .expect("collective executes");
    let real_events = reader.drain();
    drop(reader);
    let real_trace = chrome_trace(
        &real_events,
        &TraceMeta::real().with_ranks(schedule.num_ranks),
    );

    // Sim leg: the same schedule through the contention model; events come
    // from the report but render through the same exporter, with distance
    // classes and dependency links in the args.
    let report = SimExecutor::new(&machine, &binding, SimConfig::default())
        .run(&schedule)
        .expect("schedule validates");
    let sim_leg_events = sim_events_with_distances(&schedule, &report, Some(&distances));
    let sim_trace = chrome_trace(
        &sim_leg_events,
        &TraceMeta::sim().with_ranks(schedule.num_ranks),
    );

    let metrics = telemetry.registry().snapshot().to_json();

    std::fs::create_dir_all(&outdir).expect("output dir");
    let write = |name: &str, body: &str| {
        let path = format!("{outdir}/{name}");
        std::fs::write(&path, body).expect("write artifact");
        println!("wrote {path}");
    };
    write("trace_real.json", &real_trace);
    write("trace_sim.json", &sim_trace);
    write("metrics.json", &metrics);

    write_reports(
        &outdir,
        &OpGraph::from_events(&real_events),
        &OpGraph::from_events(&sim_leg_events),
    );

    println!(
        "{}: {} ops over {} ranks; real run {} KNEM copies, sim {:.3} ms",
        schedule.name,
        schedule.ops.len(),
        schedule.num_ranks,
        res.knem_stats.copies,
        report.total_time * 1e3,
    );
    println!("load both traces in ui.perfetto.dev to compare real vs sim side-by-side");
}

/// Plans a collective with a provenance recorder attached, prints every
/// recorded decision, executes both legs, and audits each against the plan.
/// With `--diff a b` it instead diffs two saved provenance documents.
fn explain(args: &[String]) -> i32 {
    if args.first().map(String::as_str) == Some("--diff") {
        let [_, base_path, new_path] = args else {
            usage()
        };
        let load = |path: &str| -> Provenance {
            let body =
                std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            Provenance::from_json(&body)
                .unwrap_or_else(|e| panic!("{path} is not a provenance document: {e}"))
        };
        let d = load(base_path).diff(&load(new_path));
        print!("{}", d.render());
        return 0;
    }

    let mut positional: Vec<&String> = Vec::new();
    let mut machine_label = "ig".to_string();
    let mut policy = BindingPolicy::Contiguous;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--machine" => machine_label = it.next().cloned().unwrap_or_else(|| usage()),
            "--policy" => {
                policy = match it.next().map(String::as_str) {
                    Some("contig") => BindingPolicy::Contiguous,
                    Some("xsock") => BindingPolicy::CrossSocket,
                    _ => usage(),
                }
            }
            _ => positional.push(arg),
        }
    }
    let what = parse_collective(positional.first().map(|s| s.as_str()));
    let ranks: usize = positional.get(1).and_then(|s| s.parse().ok()).unwrap_or(8);
    let bytes: usize = positional
        .get(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1 << 20);
    let outdir = positional
        .get(3)
        .cloned()
        .cloned()
        .unwrap_or_else(|| "results/pdac_explain".into());

    let machine = Arc::new(match machine_label.as_str() {
        "ig" => machines::ig(),
        "zoot" => machines::zoot(),
        other => {
            eprintln!("unknown machine {other:?}");
            usage()
        }
    });
    let binding = policy
        .bind(&machine, ranks)
        .unwrap_or_else(|e| panic!("{ranks} ranks do not fit {machine_label}: {e}"));
    let distances = Arc::new(DistanceMatrix::for_binding(&machine, &binding));
    let comm = Communicator::world(Arc::clone(&machine), binding.clone());
    let coll = AdaptiveColl::default();

    let telemetry = pdac_telemetry::global();
    telemetry.reset();
    let reader = telemetry.recorder().reader();

    let mut prov = Provenance::default();
    let sinks = Sinks {
        cache: None,
        provenance: Some(&mut prov),
    };
    let schedule = coll.plan(&comm, Request::new(what, 0, bytes), sinks);
    print!("{}", prov.explain());

    // Real leg, with the plan id stamped onto every op span so the audit
    // can tell this plan's ops from anything else in the trace.
    ThreadExecutor::new()
        .with_distances(Arc::clone(&distances))
        .with_plan_id(prov.plan_id.clone())
        .run(&schedule, pattern)
        .expect("collective executes");
    let real = OpGraph::from_events(&reader.drain());
    drop(reader);

    // Sim leg of the same schedule.
    let report = SimExecutor::new(&machine, &binding, SimConfig::default())
        .run(&schedule)
        .expect("schedule validates");
    let sim = OpGraph::from_events(&sim_events_with_distances(
        &schedule,
        &report,
        Some(&distances),
    ));

    let sim_conf = ConformanceReport::audit(&sim, &prov);
    println!("-- sim leg --");
    print!("{}", sim_conf.render());
    let real_conf = ConformanceReport::audit(&real, &prov);
    println!("-- real leg --");
    print!("{}", real_conf.render());

    std::fs::create_dir_all(&outdir).expect("output dir");
    let write = |name: &str, body: &str| {
        let path = format!("{outdir}/{name}");
        std::fs::write(&path, body).expect("write artifact");
        println!("wrote {path}");
    };
    write("provenance.json", &prov.to_json());
    write(
        "conformance.json",
        &format!(
            "{{\"sim\":{},\"real\":{}}}\n",
            sim_conf.to_json(),
            real_conf.to_json(),
        ),
    );
    println!(
        "re-run after a re-binding (e.g. `--policy xsock`) and diff the plans with \
         `pdac-trace explain --diff <old>/provenance.json {outdir}/provenance.json`"
    );

    if sim_conf.passed() && real_conf.passed() {
        0
    } else {
        1
    }
}

fn analyze(args: &[String]) {
    let outdir = args
        .first()
        .cloned()
        .unwrap_or_else(|| "results/pdac_trace".into());
    let load = |name: &str| -> OpGraph {
        let path = format!("{outdir}/{name}");
        let body = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {path} (run `pdac-trace run` first): {e}"));
        let events = events_from_chrome_trace(&body)
            .unwrap_or_else(|e| panic!("{path} is not a trace: {e}"));
        OpGraph::from_events(&events)
    };
    write_reports(&outdir, &load("trace_real.json"), &load("trace_sim.json"));
}

fn diff(args: &[String]) {
    let [base_path, new_path] = args else { usage() };
    let load = |path: &str| -> RegistrySnapshot {
        let body =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        RegistrySnapshot::from_json(&body)
            .unwrap_or_else(|e| panic!("{path} is not a metrics snapshot: {e}"))
    };
    let base = load(base_path);
    let new = load(new_path);
    let d = new.diff(&base);
    if d.is_empty() {
        println!("no metric changes between {base_path} and {new_path}");
    } else {
        print!("{}", d.render());
    }
}
