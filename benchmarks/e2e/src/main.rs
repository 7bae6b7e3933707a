//! `pdac-e2e`: a wall-clock, layer-attributed benchmark of the whole pdac
//! stack, driven only through the crates' public functions.
//!
//! ```text
//! pdac-e2e [run] --workload <name> --seed <u64> [--seconds <n>] [--trace [0|1]] [--out <file>] [--spans <file>]
//! pdac-e2e all [--seed <u64>] [--seconds <n>] [--out-dir <dir>]
//! pdac-e2e selfcheck [--seed <u64>] [--seconds <n>]
//! pdac-e2e list [--json]
//! ```
//!
//! The last line `run` prints is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics of an untraced run, or
//! the per-layer metrics of a traced one.

mod catalog;
mod driver;
mod model;
mod mpi_wl;
mod oracle;
mod plan_wl;
mod probes;
mod selfcheck;
mod sim_wl;
mod spans;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use driver::{RunConfig, RunReport};

/// The two seeds the committed baseline was measured with.
pub const BASELINE_SEEDS: [u64; 2] = [20110926, 45058];

struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: bool,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
    out_dir: PathBuf,
}

fn parse(mut argv: std::iter::Peekable<impl Iterator<Item = String>>) -> Result<Args, String> {
    let mut args = Args {
        command: "run".to_string(),
        workload: None,
        seed: BASELINE_SEEDS[0],
        seconds: catalog::RUN_SECONDS as f64,
        trace: false,
        json: false,
        out: None,
        spans: None,
        out_dir: PathBuf::from("out"),
    };
    if let Some(first) = argv.peek() {
        if !first.starts_with("--") {
            args.command = argv.next().expect("peeked");
        }
    }
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--out" => args.out = Some(PathBuf::from(value("a file")?)),
            "--spans" => args.spans = Some(PathBuf::from(value("a file")?)),
            "--out-dir" => args.out_dir = PathBuf::from(value("a directory")?),
            "--json" => args.json = true,
            "--trace" => {
                // `--trace` alone turns tracing on; `--trace 0|1` says which.
                args.trace = match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn metric_json(metrics: &[(&'static str, f64, &'static str)]) -> Result<String, String> {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        let sep = if i > 0 { ", " } else { "" };
        out.push_str(&format!(
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    out.push('}');
    Ok(out)
}

/// The result line of the contract.
fn result_line(report: &RunReport) -> Result<String, String> {
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metric_json(&report.metrics)?
    ))
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let workload = args
        .workload
        .clone()
        .ok_or("run needs --workload <name> (see `list`)")?;
    let config = RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let report = driver::run(&config)?;
    println!(
        "# pdac-e2e workload={} seed={} seconds={} trace={} cores={}",
        config.workload,
        config.seed,
        config.seconds,
        u8::from(config.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for note in &report.notes {
        println!("# {note}");
    }
    for (name, value, unit) in report.metrics.iter().chain(&report.diagnostics) {
        println!("{name:<44} {value:>18.6} {unit}");
    }
    let line = result_line(&report)?;
    if let Some(path) = &args.out {
        let slices: Vec<String> = report
            .slices
            .iter()
            .map(|(host_us, rate)| format!("[{host_us:?}, {rate:?}]"))
            .collect();
        let document = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"result\": {line}, \"diagnostics\": {}, \"slices_host_us_ops_per_s\": [{}]}}\n",
            config.workload,
            config.seed,
            config.seconds,
            config.trace,
            metric_json(&report.diagnostics)?,
            slices.join(", ")
        );
        std::fs::write(path, document).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if let Some(path) = &args.spans {
        std::fs::write(path, spans::to_json(&report.spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{line}");
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn list(args: &Args) {
    if args.json {
        print!("{}", catalog::to_json());
        return;
    }
    println!("workloads:");
    for w in &catalog::WORKLOADS {
        println!("  {:<12} {}", w.name, w.why);
    }
    println!("end-to-end metrics (untraced run):");
    for e in &catalog::END_TO_END {
        println!(
            "  {:<44} {:<6} better={} may worsen by {}",
            e.name,
            e.unit,
            e.better.label(),
            e.bound
        );
    }
    println!("per-layer metrics (traced run):");
    for p in catalog::PER_LAYER {
        println!(
            "  {:<44} {:<6} better={} {:?}",
            p.name,
            p.unit,
            p.better.label(),
            p.kind
        );
    }
}

/// Tells glibc's allocator to keep freed memory instead of returning it to
/// the kernel, the state a long-lived process with a stable working set is in.
///
/// Left alone, glibc serves requests above its *mmap threshold* (128 KiB at
/// start, raised to the size of the first such block freed, at most 32 MiB)
/// with a fresh mapping each, and trims the heap top whenever more than twice
/// that is free. Whether the megabyte-sized buffers of a collective are
/// page-faulted anew on every call then depends on which small allocation
/// happens to sit at the heap top: `mpi_large` ran at either of two speeds a
/// factor of two apart, chosen per process. Both thresholds are pinned here,
/// before anything is measured and before any other thread exists.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn settle_allocator() {
    extern "C" {
        fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
    }
    const M_TRIM_THRESHOLD: std::ffi::c_int = -1;
    const M_MMAP_THRESHOLD: std::ffi::c_int = -3;
    // SAFETY: `mallopt` is glibc's documented tuning entry point with exactly
    // this signature; it only stores the two parameters, and no other thread
    // is running yet. A refused value (return 0) leaves the default in place.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, std::ffi::c_int::MAX);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn settle_allocator() {}

fn main() -> ExitCode {
    settle_allocator();
    let outcome =
        parse(std::env::args().skip(1).peekable()).and_then(|args| match args.command.as_str() {
            "run" => run(&args),
            "all" => selfcheck::run_all(args.seed, args.seconds, &args.out_dir),
            "selfcheck" => selfcheck::selfcheck(args.seed, args.seconds),
            "list" => {
                list(&args);
                Ok(ExitCode::SUCCESS)
            }
            other => Err(format!(
                "unknown command {other:?}: expected run, all, selfcheck or list"
            )),
        });
    outcome.unwrap_or_else(|why| {
        eprintln!("pdac-e2e: {why}");
        ExitCode::from(2)
    })
}
