//! `pdac-bench` — the canonical scenario matrix: its table, its audit and
//! the perf-history trend.
//!
//! Usage:
//!
//! ```text
//! pdac-bench gate
//! pdac-bench trend [--history <path>] [--label <label>]
//! pdac-bench audit [--out-dir <dir>]
//! pdac-bench list
//! ```
//!
//! `gate` runs the canonical collective matrix (bcast / allgather /
//! allreduce, small and large sizes, contiguous and cross-socket
//! placements, across the hwtopo machine set) through the deterministic
//! timing simulator and writes `results/gate.txt`: one line per scenario
//! with its ranks, bytes, op count, simulated seconds, critical-path
//! coverage and wait share, and the digest of the whole simulated report.
//! The file is committed, and `tests/gate_conformance.rs` fails on any
//! difference from it, so a change that moves a simulated number
//! regenerates the table with this command and commits it with the change.
//!
//! `trend` renders the per-metric delta between the two newest entries of
//! `BENCH_history.jsonl` (`--history`), optionally only those with one
//! `--label` (such as `pdac-e2e/mpi_small/s20110926`).
//!
//! `audit` runs the canonical matrix with a provenance recorder attached
//! to each plan, records every scenario's plan provenance, and joins the
//! executed sim leg back against the plan: any unexplained, missing,
//! mismatched, or re-ordered op fails with exit code 1. It writes
//! `BENCH_provenance.json` (the full decision records),
//! `BENCH_conformance.json` (per-scenario verdicts), and `BENCH_explain.txt`
//! (the human-readable explain reports) into `--out-dir` (default `.`) —
//! the CI artifact set.
//!
//! `list` prints the scenario matrix without running it.

use pdac_bench::gate::{canonical_scenarios, render_table, run_gate_scenarios};
use pdac_obs::history::{load_jsonl, render_trend};

const GATE_TABLE: &str = "results/gate.txt";
const DEFAULT_HISTORY: &str = "BENCH_history.jsonl";

fn usage() -> ! {
    eprintln!(
        "usage:\n  pdac-bench gate\n  \
         pdac-bench trend [--history <path>] [--label <label>]\n  \
         pdac-bench audit [--out-dir <dir>]\n  \
         pdac-bench list"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gate") if args.len() == 1 => gate(),
        Some("trend") => std::process::exit(trend(&args[1..])),
        Some("audit") => std::process::exit(audit(&args[1..])),
        Some("list") => list(),
        _ => usage(),
    }
}

fn list() {
    for s in canonical_scenarios() {
        println!("{}", s.id);
    }
}

fn gate() {
    eprintln!("running {} gate scenarios...", canonical_scenarios().len());
    let (rows, _) = run_gate_scenarios();
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write(GATE_TABLE, render_table(&rows)).expect("write gate table");
    println!("wrote {GATE_TABLE} ({} scenarios)", rows.len());
}

fn trend(args: &[String]) -> i32 {
    let mut history_path = DEFAULT_HISTORY.to_string();
    let mut label: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--history" => history_path = it.next().cloned().unwrap_or_else(|| usage()),
            "--label" => label = Some(it.next().cloned().unwrap_or_else(|| usage())),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
    }
    let (entries, skipped) = match load_jsonl(std::path::Path::new(&history_path)) {
        Ok(r) => r,
        // A history that doesn't exist yet simply has no entries — that is
        // the same "nothing to diff" situation as a one-line file, not an
        // error: say so and exit 0 so fresh checkouts can run `trend`.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            println!("trend: no history at {history_path} yet");
            return 0;
        }
        Err(e) => {
            eprintln!("cannot read history {history_path}: {e}");
            return 1;
        }
    };
    if skipped > 0 {
        eprintln!("warning: skipped {skipped} corrupt history line(s) in {history_path}");
    }
    // ±5% marks a mover; deltas under 0.5% fold into the quiet line.
    print!("{}", render_trend(&entries, label.as_deref(), 0.05, 0.005));
    0
}

fn audit(args: &[String]) -> i32 {
    let mut out_dir = ".".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out-dir" => out_dir = it.next().cloned().unwrap_or_else(|| usage()),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
    }
    let out_dir = std::path::Path::new(&out_dir);
    std::fs::create_dir_all(out_dir).expect("audit out dir");

    eprintln!(
        "auditing {} gate scenarios against their plans...",
        canonical_scenarios().len()
    );
    let (_, audits) = run_gate_scenarios();

    let provenance_path = out_dir.join("BENCH_provenance.json");
    std::fs::write(
        &provenance_path,
        serde_json::to_string_pretty(&audits).expect("audits serialize"),
    )
    .expect("write provenance");

    let conformance: Vec<_> = audits.iter().map(|a| &a.conformance).collect();
    let conformance_path = out_dir.join("BENCH_conformance.json");
    std::fs::write(
        &conformance_path,
        serde_json::to_string_pretty(&conformance).expect("conformance serializes"),
    )
    .expect("write conformance");

    let mut explain = String::new();
    for a in &audits {
        explain.push_str(&format!("=== {} ===\n", a.id));
        explain.push_str(&a.provenance.explain());
        explain.push_str(&a.conformance.render());
        explain.push('\n');
    }
    let explain_path = out_dir.join("BENCH_explain.txt");
    std::fs::write(&explain_path, explain).expect("write explain");
    println!(
        "wrote {}, {}, {}",
        provenance_path.display(),
        conformance_path.display(),
        explain_path.display()
    );

    let failed: Vec<&str> = audits
        .iter()
        .filter(|a| !a.passed())
        .map(|a| a.id.as_str())
        .collect();
    for a in audits.iter().filter(|a| !a.passed()) {
        print!("{}", a.conformance.render());
    }
    if failed.is_empty() {
        println!(
            "audit: PASS ({} scenarios, every executed op explained by its plan)",
            audits.len()
        );
        0
    } else {
        println!(
            "audit: FAIL ({} of {} scenarios)",
            failed.len(),
            audits.len()
        );
        for id in failed {
            println!("  FAIL {id}");
        }
        1
    }
}
