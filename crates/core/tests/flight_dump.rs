//! A deliberately failing chaos run must leave a flight-recorder dump
//! behind: the crash-surviving ring of recent notes, a metrics snapshot,
//! and the `PDAC_SEED` repro handle, written to `PDAC_FLIGHT_DIR`.

use std::sync::Arc;
use std::time::Duration;

use pdac_core::chaos::{run_chaos, ChaosConfig};
use pdac_core::{Collective, Request};
use pdac_hwtopo::{machines, BindingPolicy};
use pdac_mpisim::Communicator;

#[test]
fn failing_chaos_run_dumps_flight_recorder() {
    let dir = std::env::temp_dir().join(format!("pdac-flight-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Safe: tests in this binary run on the harness's own threads and no
    // other test in this file reads the environment concurrently.
    std::env::set_var("PDAC_FLIGHT_DIR", &dir);
    std::env::set_var("PDAC_SEED", "20260810");

    let m = Arc::new(machines::flat_smp(4));
    let binding = BindingPolicy::Contiguous.bind(&m, 4).unwrap();
    let comm = Communicator::world(m, binding);

    // A 1 ns watchdog cannot be met by any real attempt: the first one
    // takes longer than that, so when it returns the run deterministically
    // fails as a hang.
    let mut cfg = ChaosConfig::new(7);
    cfg.watchdog = Duration::from_nanos(1);

    let err = run_chaos(&comm, Request::new(Collective::Bcast, 0, 4096), &cfg)
        .expect_err("1 ns watchdog must fail the run");
    let err_text = err.to_string();

    let mut dumps: Vec<_> = std::fs::read_dir(&dir)
        .expect("flight dir created on dump")
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("flight-chaos-failure-"))
        })
        .collect();
    dumps.sort();
    assert!(!dumps.is_empty(), "chaos failure must write a flight dump in {}", dir.display());

    let body = std::fs::read_to_string(dumps.last().unwrap()).unwrap();
    assert!(body.contains("\"reason\": \"chaos-failure\""), "dump names its reason:\n{body}");
    assert!(body.contains("chaos start: seed=7"), "dump holds the start note:\n{body}");
    assert!(body.contains("chaos FAILED: seed=7"), "dump holds the failure note:\n{body}");
    assert!(body.contains("\"pdac_seed\": \"20260810\""), "dump captures PDAC_SEED:\n{body}");
    assert!(body.contains("\"metrics\""), "dump embeds a metrics snapshot:\n{body}");
    // The failure note quotes the actual error so the dump is
    // self-explanatory without the test log.
    let head = err_text.split('\n').next().unwrap();
    assert!(body.contains(head), "dump quotes the error ({head}):\n{body}");

    let _ = std::fs::remove_dir_all(&dir);
}
