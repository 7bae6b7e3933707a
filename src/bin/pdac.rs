//! `pdac` — the command-line face of the library.
//!
//! ```text
//! pdac topo <machine>                         render the hardware tree
//! pdac distances <machine> <binding>          distance matrix for a placement
//! pdac tree <machine> <binding> [root]        distance-aware broadcast tree
//! pdac ring <machine> <binding>               distance-aware allgather ring
//! pdac dot <machine> <binding> [root]         Graphviz DOT of the tree
//! pdac simulate <coll> <machine> <binding> <bytes>
//!                                             simulate one collective
//! pdac fig2 | fig4 | fig5 | fig6 | fig7 | fig8 | future | cluster
//!                                             one figure: table, chart, claims,
//!                                             results/<figure>.json
//! pdac claims                                 every figure, then results/claims.txt
//! pdac ablation                               the design ablations
//! pdac scaling                                Algorithm 1 build time, 48 to 3 072 ranks
//! pdac tune [machine]                         component size rules (default ig)
//! pdac gate                                   the 44-scenario matrix, results/gate.txt
//! pdac audit [outdir]                         the matrix audited against its plans
//! pdac trend [history] [label]                newest vs previous perf-history entry
//! pdac trace run [coll] [ranks] [bytes] [outdir]
//!                                             both executors, traced
//! pdac trace explain [coll] [ranks] [bytes] [outdir] [machine] [binding]
//!                                             the plan's provenance, both legs audited
//! pdac trace analyze [outdir]                 the reports again from saved traces
//! pdac trace diff <base.json> <new.json>      two metrics snapshots or two plans
//! ```
//!
//! `<machine>` is `ig`, `zoot`, `magny`, `quad`, `flat<N>`, a path to an
//! hwloc XML dump, or `cluster:<machine>x<nodes>`. `<binding>` is
//! `contiguous`, `crosssocket`, `crossnode`, `rr` or `random<seed>`. `simulate`'s `<coll>` is `bcast`, `allgather`,
//! `tuned-bcast` or `tuned-allgather`; `trace`'s is any collective label
//! (`bcast`, `allreduce`, `alltoall`, …), planned from root 0 with `<bytes>`
//! as the message or per-rank block. `trace` runs 8 ranks of `ig`
//! contiguous by default (only `explain` takes another machine and binding),
//! `run` with 65536 bytes into `results/pdac_trace`, `explain` with 1048576
//! into `results/pdac_explain`. `audit` writes to `.` and `trend` reads
//! `BENCH_history.jsonl` unless told otherwise.

use std::process::ExitCode;
use std::sync::Arc;

use pdac::collectives::adaptive::AdaptiveColl;
use pdac::collectives::allgather_ring::Ring;
use pdac::collectives::baseline::tuned;
use pdac::collectives::bcast_tree::build_bcast_tree;
use pdac::collectives::{dot, Collective, Request};
use pdac::hwtopo::{cluster, hwloc_xml, machines, render};
use pdac::hwtopo::{Binding, BindingPolicy, DistanceMatrix, Machine};
use pdac::mpisim::p2p::P2pConfig;
use pdac::mpisim::Communicator;
use pdac::simnet::{bw_allgather, bw_bcast, SimConfig, SimExecutor};
use pdac::telemetry::history::{load_jsonl, render_trend};
use pdac_bench::trace::{self, Job};
use pdac_bench::{extensions, figures, gate};

fn parse_machine(spec: &str) -> Result<Machine, String> {
    if let Some(rest) = spec.strip_prefix("cluster:") {
        let (name, n) = rest
            .rsplit_once('x')
            .ok_or_else(|| format!("bad cluster spec '{rest}', expected <machine>x<nodes>"))?;
        let node = parse_machine(name)?;
        let n = parse_count("node count", n)?;
        return cluster::homogeneous(format!("{name}-x{n}"), &node, n, (n / 2).max(1))
            .map_err(|e| e.to_string());
    }
    if let Some(n) = spec.strip_prefix("flat") {
        return Ok(machines::flat_smp(parse_count("core count", n)?));
    }
    match spec {
        "ig" => Ok(machines::ig()),
        "zoot" => Ok(machines::zoot()),
        "magny" => Ok(machines::magny_cours()),
        "quad" => Ok(machines::quad_socket_dual_core()),
        path if std::path::Path::new(path).exists() => {
            hwloc_xml::parse_hwloc_file(path).map_err(|e| e.to_string())
        }
        other => Err(format!(
            "unknown machine '{other}' (use ig|zoot|magny|quad|flat<N>|cluster:<m>x<n>|<hwloc.xml>)"
        )),
    }
}

/// `ranks` ranks of `machine` placed by the `<binding>` spec.
fn parse_binding(spec: &str, machine: &Machine, ranks: usize) -> Result<Binding, String> {
    let policy = match spec {
        "contiguous" | "cpu" | "cache" => BindingPolicy::Contiguous,
        "crosssocket" => BindingPolicy::CrossSocket,
        "crossnode" => BindingPolicy::CrossNode,
        "rr" => BindingPolicy::RoundRobinOs,
        s if s.starts_with("random") => {
            let seed = &s["random".len()..];
            let seed = seed.parse().map_err(|_| format!("bad seed '{seed}' in binding '{s}'"))?;
            BindingPolicy::Random { seed }
        }
        other => return Err(format!("unknown binding '{other}'")),
    };
    policy
        .bind(machine, ranks)
        .map_err(|e| format!("{ranks} ranks do not fit {}: {e}", machine.name))
}

/// The optional `[root]` argument: rank 0 when absent, else a rank below
/// `ranks`.
fn parse_root(arg: Option<&String>, ranks: usize) -> Result<usize, String> {
    let Some(arg) = arg else { return Ok(0) };
    match arg.parse() {
        Ok(root) if root < ranks => Ok(root),
        _ => Err(format!("bad root '{arg}', expected a rank below {ranks}")),
    }
}

/// A positive count: bytes, ranks, cores, nodes.
fn parse_count(what: &str, arg: &str) -> Result<usize, String> {
    match arg.parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("bad {what} '{arg}', expected a positive integer")),
    }
}

/// The arguments of `trace run` / `trace explain`, at most `max` of them,
/// each optional from the right (`run` takes no machine or binding).
fn trace_job(
    args: &[String],
    max: usize,
    bytes: &'static str,
    outdir: &'static str,
) -> Result<Job, String> {
    if args.len() > max {
        return Err(format!("too many arguments: {}", args[max..].join(" ")));
    }
    let arg = |i: usize, default| args.get(i).map_or(default, String::as_str);
    let what: Collective = arg(0, "bcast").parse()?;
    let ranks = parse_count("rank count", arg(1, "8"))?;
    let bytes = parse_count("byte count", arg(2, bytes))?;
    let machine = Arc::new(parse_machine(arg(4, "ig"))?);
    let binding = parse_binding(arg(5, "contiguous"), &machine, ranks)?;
    Ok(Job {
        request: Request::new(what, 0, bytes),
        machine,
        binding,
        outdir: arg(3, outdir).to_string(),
    })
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: pdac <subcommand> ... (see pdac --help)";
    let cmd = args.first().ok_or(usage)?.as_str();
    let arg = |i: usize| args.get(i).ok_or(usage);
    let no_more = |n: usize| match args.get(n) {
        Some(extra) => Err(format!("unexpected argument '{extra}' to {cmd}")),
        None => Ok(()),
    };
    // The machine and binding of topology subcommands: every core bound.
    let placed = || -> Result<(Machine, Binding), String> {
        let m = parse_machine(arg(1)?)?;
        let b = parse_binding(arg(2)?, &m, m.num_cores())?;
        Ok((m, b))
    };

    match cmd {
        "--help" | "-h" | "help" => {
            // The usage block is the module doc comment above.
            let help: Vec<&str> = include_str!("pdac.rs")
                .lines()
                .take_while(|l| l.starts_with("//!"))
                .map(|l| l.trim_start_matches("//! ").trim_start_matches("//!"))
                .filter(|l| !l.contains("```"))
                .collect();
            println!("{}", help.join("\n"));
        }
        "topo" => {
            no_more(2)?;
            let m = parse_machine(arg(1)?)?;
            print!("{}", render::render_machine(&m));
            println!(
                "{} cores / {} sockets / {} NUMA nodes / {} boards / {} nodes",
                m.num_cores(),
                m.num_sockets,
                m.num_numa,
                m.num_boards,
                m.num_nodes
            );
        }
        "distances" => {
            no_more(3)?;
            let (m, b) = placed()?;
            let dm = DistanceMatrix::for_binding(&m, &b);
            print!("{}", render::render_binding(&m, &b));
            println!("\nclasses: {:?}", dm.classes());
            for (d, &count) in dm.histogram().iter().enumerate().skip(1) {
                if count > 0 {
                    println!("  distance {d}: {count} pairs");
                }
            }
        }
        "tree" | "dot" => {
            no_more(4)?;
            let (m, b) = placed()?;
            let root = parse_root(args.get(3), b.num_ranks())?;
            let dm = DistanceMatrix::for_binding(&m, &b);
            let tree = build_bcast_tree(&dm, root);
            if cmd == "dot" {
                print!("{}", dot::tree_to_dot(&tree, &dm, &m, &b));
                return Ok(());
            }
            print!("{}", tree.render());
            println!("depth {} / max fan-out {}", tree.depth(), tree.max_fanout());
            for class in dm.classes() {
                println!("  edges at distance {class}: {}", tree.edges_at_distance(&dm, class));
            }
        }
        "ring" => {
            no_more(3)?;
            let (m, b) = placed()?;
            let dm = DistanceMatrix::for_binding(&m, &b);
            let ring = Ring::build(&dm);
            let order: Vec<String> = ring.order().iter().map(|r| format!("P{r}")).collect();
            println!("{}", order.join(" -> "));
            println!("edge distance histogram: {:?}", ring.distance_histogram(&dm));
        }
        "simulate" => {
            no_more(5)?;
            let coll = arg(1)?;
            let m = Arc::new(parse_machine(arg(2)?)?);
            let b = parse_binding(arg(3)?, &m, m.num_cores())?;
            let bytes = parse_count("byte count", arg(4)?)?;
            let comm = Communicator::world(Arc::clone(&m), b.clone());
            let n = comm.size();
            let coll_impl = AdaptiveColl;
            let p2p = P2pConfig::default();
            let (schedule, bw): (_, fn(usize, usize, f64) -> f64) = match coll.as_str() {
                "bcast" => (coll_impl.bcast(&comm, 0, bytes), bw_bcast),
                "allgather" => (coll_impl.allgather(&comm, bytes), bw_allgather),
                "tuned-bcast" => (tuned::bcast(n, 0, bytes, &p2p), bw_bcast),
                "tuned-allgather" => (tuned::allgather(n, bytes, &p2p), bw_allgather),
                other => return Err(format!("unknown collective '{other}'")),
            };
            let report = SimExecutor::new(&m, &b, SimConfig { allow_cache: false })
                .run(&schedule)
                .map_err(|e| e.to_string())?;
            println!("{}: {} ranks, {} ops", schedule.name, n, schedule.ops.len());
            println!("simulated time : {:.3} ms", report.total_time * 1e3);
            println!("aggregate BW   : {:.0} MB/s", bw(n, bytes, report.total_time));
        }
        "claims" => {
            no_more(1)?;
            figures::write_claims()?;
        }
        "ablation" => {
            no_more(1)?;
            extensions::ablation();
        }
        "scaling" => {
            no_more(1)?;
            extensions::scaling();
        }
        "tune" => {
            no_more(2)?;
            extensions::tune(parse_machine(args.get(1).map_or("ig", String::as_str))?);
        }
        "gate" => {
            no_more(1)?;
            gate::write_table()?;
        }
        "audit" => {
            no_more(2)?;
            gate::audit(args.get(1).map_or(".", String::as_str))?;
        }
        "trend" => {
            no_more(3)?;
            let path = args.get(1).map_or("BENCH_history.jsonl", String::as_str);
            let (entries, skipped) = match load_jsonl(std::path::Path::new(path)) {
                Ok(r) => r,
                // A history that does not exist yet has no entries: the
                // same "nothing to diff" as a one-line file, not an error.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    println!("trend: no history at {path} yet");
                    return Ok(());
                }
                Err(e) => return Err(format!("cannot read history {path}: {e}")),
            };
            if skipped > 0 {
                eprintln!("warning: skipped {skipped} corrupt history line(s) in {path}");
            }
            print!("{}", render_trend(&entries, args.get(2).map(String::as_str)));
        }
        "trace" => match arg(1)?.as_str() {
            "run" => trace::run(&trace_job(&args[2..], 4, "65536", "results/pdac_trace")?)?,
            "explain" => {
                trace::explain(&trace_job(&args[2..], 6, "1048576", "results/pdac_explain")?)?;
            }
            "analyze" => {
                no_more(3)?;
                trace::analyze(args.get(2).map_or("results/pdac_trace", String::as_str))?;
            }
            "diff" => {
                no_more(4)?;
                trace::diff(arg(2)?, arg(3)?)?;
            }
            other => {
                return Err(format!("unknown trace command '{other}' (run|explain|analyze|diff)"));
            }
        },
        name => {
            let fig = figures::all()
                .into_iter()
                .find(|f| f.name == name)
                .ok_or_else(|| format!("unknown command '{name}'; {usage}"))?;
            no_more(1)?;
            figures::show(&fig)?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pdac: {e}");
            ExitCode::FAILURE
        }
    }
}
