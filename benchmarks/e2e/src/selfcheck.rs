//! `all` and `selfcheck`: whole-suite runs. Every run is a child process of
//! this executable, so each gets its own peak memory and allocator state —
//! the same way the acceptance driver runs them.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use serde_json::Value;

use crate::catalog::{Kind, END_TO_END, PER_LAYER, WORKLOADS};

/// The metrics of one child run that ended correct.
struct ChildResult {
    metrics: BTreeMap<String, f64>,
}

fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn number(value: &Value) -> Option<f64> {
    match *value {
        Value::F64(x) => Some(x),
        Value::I64(x) => Some(x as f64),
        Value::U64(x) => Some(x as f64),
        _ => None,
    }
}

/// Runs one workload in a child process and parses its result line.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<&Path>,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(path) = out {
        command.arg("--out").arg(path);
    }
    // `output` waits for the child to end.
    let output = command
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{workload}: no output"))?;
    let parsed: Value = serde_json::from_str(line)
        .map_err(|e| format!("{workload}: result line does not parse: {e}"))?;
    let correct = matches!(field(&parsed, "correct"), Some(Value::Bool(true)));
    let mut metrics = BTreeMap::new();
    if let Some(Value::Map(entries)) = field(&parsed, "metrics") {
        for (name, entry) in entries {
            let value = field(entry, "value")
                .and_then(number)
                .ok_or(format!("{workload}: {name} has no value"))?;
            metrics.insert(name.clone(), value);
        }
    }
    if !output.status.success() || !correct {
        return Err(format!(
            "{workload} (trace={}) failed: {}",
            u8::from(trace),
            output.status
        ));
    }
    Ok(ChildResult { metrics })
}

/// Every workload untraced, then traced, one seed; results under `out_dir`.
pub fn run_all(seed: u64, seconds: f64, out_dir: &Path) -> Result<ExitCode, String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    for trace in [false, true] {
        for w in &WORKLOADS {
            let suffix = if trace { ".trace" } else { "" };
            let out = out_dir.join(format!("{}{suffix}.json", w.name));
            let result = child(w.name, seed, seconds, trace, Some(&out))?;
            println!(
                "== {} seed={seed} trace={} -> {}",
                w.name,
                u8::from(trace),
                out.display()
            );
            for (name, value) in &result.metrics {
                println!("{name:<44} {value:>18.6}");
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Runs every workload twice with one seed and holds the two against each
/// other: exact metrics must be bit-equal, timed end-to-end metrics must
/// agree within their bound. This A/A table is what a later change checks
/// before it claims a gain.
pub fn selfcheck(seed: u64, seconds: f64) -> Result<ExitCode, String> {
    let mut violations = 0;
    println!("selfcheck: seed={seed} seconds={seconds}; A and B are two runs of the same code");
    println!(
        "{:<12} {:<42} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "delta", "bound"
    );
    for w in &WORKLOADS {
        let mut runs = Vec::new();
        for _ in 0..2 {
            let untraced = child(w.name, seed, seconds, false, None)?;
            let traced = child(w.name, seed, seconds, true, None)?;
            runs.push((untraced.metrics, traced.metrics));
        }
        let (a, b) = (&runs[0], &runs[1]);
        for e in &END_TO_END {
            let (x, y) = (a.0[e.name], b.0[e.name]);
            let delta = (x - y).abs() / x.abs().min(y.abs()).max(f64::MIN_POSITIVE);
            let ok = delta <= e.bound;
            violations += usize::from(!ok);
            let verdict = if ok { "ok" } else { "OUTSIDE BOUND" };
            println!(
                "{:<12} {:<42} {x:>16.4} {y:>16.4} {:>8.2}% {:>6.0}%  {verdict}",
                w.name,
                e.name,
                delta * 100.0,
                e.bound * 100.0
            );
        }
        for p in PER_LAYER.iter().filter(|p| p.kind == Kind::Exact) {
            let (x, y) = (a.1[p.name], b.1[p.name]);
            let ok = x.to_bits() == y.to_bits();
            violations += usize::from(!ok);
            let verdict = if ok { "exact" } else { "NOT EXACT" };
            println!(
                "{:<12} {:<42} {x:>16.6} {y:>16.6} {:>9} {:>7}  {verdict}",
                w.name, p.name, "", ""
            );
        }
        for name in [
            "driver.slice_spread",
            "trace.attributed_share",
            "trace.overhead_share",
            "trace.reenact_ratio",
        ] {
            println!(
                "{:<12} {:<42} {:>16.4} {:>16.4} {:>9} {:>7}  reported",
                w.name, name, a.1[name], b.1[name], "", ""
            );
        }
    }
    if violations > 0 {
        eprintln!("selfcheck: {violations} metrics disagree between two runs of the same code");
        return Ok(ExitCode::FAILURE);
    }
    println!(
        "selfcheck: every exact metric repeats and every timed metric agrees within its bound"
    );
    Ok(ExitCode::SUCCESS)
}
