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
//! ```
//!
//! `<machine>` is `ig`, `zoot`, `magny`, `quad`, `flat<N>`, a path to an
//! hwloc XML dump, or `cluster:<machine>x<nodes>`. `<binding>` is
//! `contiguous`, `crosssocket`, `crossnode`, `rr` or `random<seed>`.
//! `<coll>` is `bcast`, `allgather`, `tuned-bcast` or `tuned-allgather`.

use std::process::ExitCode;
use std::sync::Arc;

use pdac::collectives::adaptive::AdaptiveColl;
use pdac::collectives::allgather_ring::Ring;
use pdac::collectives::baseline::tuned::{self, TunedConfig};
use pdac::collectives::bcast_tree::build_bcast_tree;
use pdac::collectives::dot;
use pdac::hwtopo::{cluster, hwloc_xml, machines, render, Binding, BindingPolicy, DistanceMatrix, Machine};
use pdac::mpisim::Communicator;
use pdac::simnet::{bw_allgather, bw_bcast, SimConfig, SimExecutor};

fn parse_machine(spec: &str) -> Result<Machine, String> {
    if let Some(rest) = spec.strip_prefix("cluster:") {
        let (name, n) = rest
            .rsplit_once('x')
            .ok_or_else(|| format!("bad cluster spec '{rest}', expected <machine>x<nodes>"))?;
        let node = parse_machine(name)?;
        let n: usize = n.parse().map_err(|_| format!("bad node count '{n}'"))?;
        return cluster::homogeneous(format!("{name}-x{n}"), &node, n, (n / 2).max(1))
            .map_err(|e| e.to_string());
    }
    if let Some(n) = spec.strip_prefix("flat") {
        let n: usize = n.parse().map_err(|_| format!("bad core count in '{spec}'"))?;
        return Ok(machines::flat_smp(n));
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

fn parse_binding(spec: &str, machine: &Machine) -> Result<Binding, String> {
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
    policy.bind(machine, machine.num_cores()).map_err(|e| e.to_string())
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

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: pdac <topo|distances|tree|ring|dot|simulate> ... (see --help)";
    let cmd = args.first().ok_or(usage)?;

    match cmd.as_str() {
        "--help" | "-h" | "help" => {
            // The usage block is the module doc comment above.
            let help: Vec<&str> = include_str!("pdac.rs")
                .lines()
                .take_while(|l| l.starts_with("//!"))
                .map(|l| l.trim_start_matches("//! ").trim_start_matches("//!"))
                .filter(|l| !l.contains("```"))
                .collect();
            println!("{}", help.join("\n"));
            Ok(())
        }
        "topo" => {
            let m = parse_machine(args.get(1).ok_or(usage)?)?;
            print!("{}", render::render_machine(&m));
            println!("{} cores / {} sockets / {} NUMA nodes / {} boards / {} nodes",
                m.num_cores(), m.num_sockets, m.num_numa, m.num_boards, m.num_nodes);
            Ok(())
        }
        "distances" => {
            let m = parse_machine(args.get(1).ok_or(usage)?)?;
            let b = parse_binding(args.get(2).ok_or(usage)?, &m)?;
            let dm = DistanceMatrix::for_binding(&m, &b);
            print!("{}", render::render_binding(&m, &b));
            println!("\nclasses: {:?}", dm.classes());
            let h = dm.histogram();
            for (d, &count) in h.iter().enumerate().skip(1) {
                if count > 0 {
                    println!("  distance {d}: {count} pairs");
                }
            }
            Ok(())
        }
        "tree" => {
            let m = parse_machine(args.get(1).ok_or(usage)?)?;
            let b = parse_binding(args.get(2).ok_or(usage)?, &m)?;
            let root = parse_root(args.get(3), b.num_ranks())?;
            let dm = DistanceMatrix::for_binding(&m, &b);
            let tree = build_bcast_tree(&dm, root);
            print!("{}", tree.render());
            println!("depth {} / max fan-out {}", tree.depth(), tree.max_fanout());
            for class in dm.classes() {
                println!("  edges at distance {class}: {}", tree.edges_at_distance(&dm, class));
            }
            Ok(())
        }
        "ring" => {
            let m = parse_machine(args.get(1).ok_or(usage)?)?;
            let b = parse_binding(args.get(2).ok_or(usage)?, &m)?;
            let dm = DistanceMatrix::for_binding(&m, &b);
            let ring = Ring::build(&dm);
            let order: Vec<String> = ring.order().iter().map(|r| format!("P{r}")).collect();
            println!("{}", order.join(" -> "));
            println!("edge distance histogram: {:?}", ring.distance_histogram(&dm));
            Ok(())
        }
        "dot" => {
            let m = parse_machine(args.get(1).ok_or(usage)?)?;
            let b = parse_binding(args.get(2).ok_or(usage)?, &m)?;
            let root = parse_root(args.get(3), b.num_ranks())?;
            let dm = DistanceMatrix::for_binding(&m, &b);
            let tree = build_bcast_tree(&dm, root);
            print!("{}", dot::tree_to_dot(&tree, &dm, &m, &b));
            Ok(())
        }
        "simulate" => {
            let coll = args.get(1).ok_or(usage)?;
            let m = Arc::new(parse_machine(args.get(2).ok_or(usage)?)?);
            let b = parse_binding(args.get(3).ok_or(usage)?, &m)?;
            let bytes: usize = args
                .get(4)
                .ok_or(usage)?
                .parse()
                .map_err(|_| "bad byte count".to_string())?;
            let comm = Communicator::world(Arc::clone(&m), b.clone());
            let n = comm.size();
            let coll_impl = AdaptiveColl::default();
            let tuned_cfg = TunedConfig::default();
            let (schedule, bw): (_, fn(usize, usize, f64) -> f64) = match coll.as_str() {
                "bcast" => (coll_impl.bcast(&comm, 0, bytes), bw_bcast),
                "allgather" => (coll_impl.allgather(&comm, bytes), bw_allgather),
                "tuned-bcast" => (tuned::bcast(n, 0, bytes, &tuned_cfg), bw_bcast),
                "tuned-allgather" => (tuned::allgather(n, bytes, &tuned_cfg), bw_allgather),
                other => return Err(format!("unknown collective '{other}'")),
            };
            let report = SimExecutor::new(&m, &b, SimConfig { allow_cache: false })
                .run(&schedule)
                .map_err(|e| e.to_string())?;
            println!("{}: {} ranks, {} ops", schedule.name, n, schedule.ops.len());
            println!("simulated time : {:.3} ms", report.total_time * 1e3);
            println!("aggregate BW   : {:.0} MB/s", bw(n, bytes, report.total_time));
            Ok(())
        }
        other => Err(format!("unknown command '{other}'; {usage}")),
    }
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
