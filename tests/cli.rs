//! The `pdac` binary: every subcommand runs at its cheapest input, and bad
//! input gets a one-line `pdac: …` message and exit status 1, never a panic
//! or a silent default.

use std::path::PathBuf;
use std::process::Command;

/// A scratch working directory of its own for each test, so figures and
/// traces write there and not into the checkout.
fn workdir(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{test}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `pdac args` in `dir`: exit code, stdout, stderr.
fn pdac(dir: &PathBuf, args: &str) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pdac"))
        .args(args.split(' '))
        .current_dir(dir)
        .output()
        .unwrap();
    let text = |b: Vec<u8>| String::from_utf8_lossy(&b).into_owned();
    (out.status.code(), text(out.stdout), text(out.stderr))
}

#[test]
fn bad_roots_and_seeds_exit_1_with_a_message() {
    let dir = workdir("bad");
    for args in [
        "tree ig contiguous 99",
        "dot zoot contiguous 40",
        "tree ig contiguous abc",
        "tree ig randomx",
        "simulate bcast ig contiguous abc",
        "tune nosuch",
        "trace run bcast 8 abc",
        "trace run bcast 999",
        "trace run nosuch",
        "trace run bcast 8 4096 out zoot",
        "trace explain bcast 8 4096 out ig nosuch",
        "trace diff missing.json missing.json",
        "trace nosuch",
        // Full runs covered by tests: `gate` by gate_conformance, `claims`
        // by paper_claims, which sweeps `fig7` and `cluster` from their
        // committed series (each is minutes in a debug build) and checks
        // `fig6`, whose sweep is all it runs, the same way.
        "gate extra",
        "claims extra",
        "fig6 extra",
        "fig7 extra",
        "cluster extra",
        "nosuch",
    ] {
        let (code, _, stderr) = pdac(&dir, args);
        assert_eq!(code, Some(1), "{args}: {stderr}");
        assert!(stderr.starts_with("pdac: ") && stderr.lines().count() == 1, "{args}: {stderr}");
    }
    for args in ["tree ig random7 47", "dot zoot contiguous 15"] {
        assert_eq!(pdac(&dir, args).0, Some(0), "{args}");
    }
}

#[test]
fn every_subcommand_runs_at_its_cheapest_input() {
    let dir = workdir("every");
    let history = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_history.jsonl");
    let mut tune = String::new();
    for args in [
        "topo flat4",
        "distances quad crosssocket",
        "tree quad random3 2",
        "ring quad contiguous",
        "dot quad rr",
        "simulate allgather flat4 contiguous 4096",
        "fig2",
        "fig4",
        "fig5",
        "fig8",
        "future",
        "ablation",
        "scaling",
        "tune flat2",
        "audit audit",
        &format!("trend {history}"),
        "trace run bcast 4 4096 run",
        "trace analyze run",
        "trace diff run/metrics.json run/metrics.json",
        "trace explain allreduce 4 4096 explain quad crosssocket",
        "trace diff explain/provenance.json explain/provenance.json",
    ] {
        let (code, stdout, stderr) = pdac(&dir, args);
        assert_eq!(code, Some(0), "{args}: {stderr}");
        if args == "tune flat2" {
            tune = stdout;
        }
    }
    // `tune` prints its rules, each collective's last one a catch-all.
    for collective in ["Bcast", "Allgather"] {
        let rule = [collective, "..", "->"];
        assert!(
            tune.lines().any(|l| l.split_whitespace().take(3).eq(rule)),
            "no catch-all {collective} rule in\n{tune}"
        );
    }
    for artifact in [
        "results/fig2.json",
        "audit/BENCH_conformance.json",
        "run/divergence.json",
        "explain/conformance.json",
    ] {
        assert!(dir.join(artifact).is_file(), "{artifact} not written");
    }
}

#[test]
fn trace_diff_names_the_input_a_rebinding_moved() {
    let dir = workdir("rebind");
    for (out, policy) in [("before", "contiguous"), ("after", "crosssocket")] {
        let args = format!("trace explain bcast 8 4096 {out} quad {policy}");
        let (code, _, stderr) = pdac(&dir, &args);
        assert_eq!(code, Some(0), "{args}: {stderr}");
    }
    let (code, diff, stderr) =
        pdac(&dir, "trace diff before/provenance.json after/provenance.json");
    assert_eq!(code, Some(0), "{stderr}");
    // An input that did not move is never listed, so a row for a
    // `[distance]` decision's `edges` input names one the rebinding moved.
    assert!(
        diff.lines().any(|l| l.trim_start().starts_with("[distance] edges d1: edges ")),
        "{diff}"
    );
}

#[test]
fn help_lists_every_subcommand() {
    let (code, help, _) = pdac(&workdir("help"), "--help");
    assert_eq!(code, Some(0));
    let words: Vec<&str> = help.split(|c: char| !c.is_alphanumeric() && c != '-').collect();
    for sub in [
        "topo",
        "distances",
        "tree",
        "ring",
        "dot",
        "simulate",
        "fig2",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "future",
        "cluster",
        "claims",
        "ablation",
        "scaling",
        "tune",
        "gate",
        "audit",
        "trend",
        "trace",
        "run",
        "explain",
        "analyze",
        "diff",
    ] {
        assert!(words.contains(&sub), "--help does not list {sub}");
    }
}
