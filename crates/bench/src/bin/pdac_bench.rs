//! `pdac-bench` — the continuous benchmark regression gate.
//!
//! Usage:
//!
//! ```text
//! pdac-bench gate [--baseline <path>] [--out <path>] [--update-baseline]
//!                 [--history <path>] [--no-history]
//! pdac-bench trend [--history <path>] [--label <label>]
//! pdac-bench audit [--out-dir <dir>]
//! pdac-bench list
//! ```
//!
//! `gate` runs the canonical collective matrix (bcast / allgather /
//! allreduce, small and large sizes, contiguous and cross-socket
//! placements, across the hwtopo machine set) through the deterministic
//! timing simulator, writes the results to `BENCH_collectives.json`
//! (`--out`), and compares them against the checked-in baseline
//! (`--baseline`, default `baselines/BENCH_collectives.baseline.json`).
//! Any scenario slower than baseline beyond tolerance, with a grown
//! schedule, or with degraded critical-path coverage fails the gate with
//! exit code 1 — that is the CI contract. A failing comparison also dumps
//! the flight recorder (`gate-regression`), so CI artifacts capture the
//! run's metrics snapshot next to the violation list.
//!
//! Every comparison run appends one line to `BENCH_history.jsonl`
//! (`--history`, disable with `--no-history`) carrying the per-scenario
//! `seconds` / `ops` / `wait_share` numbers; `trend` renders the delta
//! between the two newest entries.
//!
//! `audit` re-runs the canonical matrix with a provenance recorder
//! attached to the plan call the gate measures, records every
//! scenario's plan provenance, and joins the executed sim leg back
//! against the plan: any unexplained, missing, mismatched, or re-ordered
//! op fails with exit code 1. It writes `BENCH_provenance.json` (the
//! full decision records), `BENCH_conformance.json` (per-scenario
//! verdicts), and `BENCH_explain.txt` (the human-readable explain
//! reports) into `--out-dir` (default `.`) — the CI artifact set.
//!
//! `--update-baseline` writes the current results to the baseline path
//! instead of comparing; commit the refreshed file together with the
//! change that legitimately moved the numbers.
//!
//! `list` prints the scenario matrix without running it.

use std::time::{SystemTime, UNIX_EPOCH};

use pdac_bench::gate::{
    audit_gate_scenarios, canonical_scenarios, compare, run_gate_scenarios, GateReport, Tolerances,
};
use pdac_obs::history::{append_jsonl, load_jsonl, render_trend, HistoryEntry};

const DEFAULT_BASELINE: &str = "baselines/BENCH_collectives.baseline.json";
const DEFAULT_OUT: &str = "BENCH_collectives.json";
const DEFAULT_HISTORY: &str = "BENCH_history.jsonl";

fn usage() -> ! {
    eprintln!(
        "usage:\n  pdac-bench gate [--baseline <path>] [--out <path>] [--update-baseline]\n       \
         \x20          [--history <path>] [--no-history]\n  \
         pdac-bench trend [--history <path>] [--label <label>]\n  \
         pdac-bench audit [--out-dir <dir>]\n  \
         pdac-bench list"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gate") => std::process::exit(gate(&args[1..])),
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

fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Turns a gate run into one perf-history line: every scenario's headline
/// metrics, keyed `<scenario-id>/<metric>` so `trend` can diff them.
fn history_entry(report: &GateReport, passed: bool) -> HistoryEntry {
    let mut entry = HistoryEntry::new("gate", now_ms())
        .with_meta("passed", if passed { "true" } else { "false" })
        .with_meta("scenarios", report.scenarios.len().to_string());
    for s in &report.scenarios {
        entry = entry
            .metric(format!("{}/seconds", s.id), s.seconds)
            .metric(format!("{}/ops", s.id), s.ops as f64)
            .metric(format!("{}/wait_share", s.id), s.wait_share);
    }
    entry
}

fn gate(args: &[String]) -> i32 {
    let mut baseline_path = DEFAULT_BASELINE.to_string();
    let mut out_path = DEFAULT_OUT.to_string();
    let mut history_path = Some(DEFAULT_HISTORY.to_string());
    let mut update_baseline = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => baseline_path = it.next().cloned().unwrap_or_else(|| usage()),
            "--out" => out_path = it.next().cloned().unwrap_or_else(|| usage()),
            "--history" => history_path = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--no-history" => history_path = None,
            "--update-baseline" => update_baseline = true,
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
    }

    eprintln!("running {} gate scenarios...", canonical_scenarios().len());
    let report = run_gate_scenarios();

    if update_baseline {
        if let Some(dir) = std::path::Path::new(&baseline_path).parent() {
            std::fs::create_dir_all(dir).expect("baseline dir");
        }
        std::fs::write(&baseline_path, report.to_json()).expect("write baseline");
        println!(
            "wrote {baseline_path} ({} scenarios)",
            report.scenarios.len()
        );
        return 0;
    }

    std::fs::write(&out_path, report.to_json()).expect("write gate report");
    println!("wrote {out_path} ({} scenarios)", report.scenarios.len());

    let baseline_body = match std::fs::read_to_string(&baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!(
                "cannot read baseline {baseline_path}: {e}\n\
                 run `pdac-bench gate --update-baseline` to create it"
            );
            return 1;
        }
    };
    let baseline = match GateReport::from_json(&baseline_body) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{baseline_path}: {e}");
            return 1;
        }
    };

    let outcome = compare(&report, &baseline, Tolerances::default());
    print!("{}", outcome.render());

    if let Some(path) = &history_path {
        let entry = history_entry(&report, outcome.passed());
        match append_jsonl(std::path::Path::new(path), &entry) {
            Ok(()) => println!("appended gate run to {path}"),
            Err(e) => eprintln!("cannot append history {path}: {e}"),
        }
    }

    if !outcome.passed() {
        for v in &outcome.violations {
            pdac_obs::flight::note(format!(
                "gate violation: {} {} baseline={:.6e} current={:.6e} limit={:.6e}",
                v.id, v.metric, v.baseline, v.current, v.limit
            ));
        }
        if let Some(path) = pdac_obs::flight::dump("gate-regression") {
            eprintln!("flight recorder dumped to {}", path.display());
        }
    }
    outcome.exit_code()
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
            println!(
                "trend: no history at {history_path} yet \
                 (run `pdac-bench gate` twice to record comparable entries)"
            );
            return 0;
        }
        Err(e) => {
            eprintln!(
                "cannot read history {history_path}: {e}\n\
                 run `pdac-bench gate` (twice) to record entries"
            );
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
    let audits = audit_gate_scenarios();

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
