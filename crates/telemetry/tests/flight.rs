//! Flight recorder crash-path test: a panic must leave a dump behind
//! containing the recent notes, the metrics snapshot, and the
//! `PDAC_SEED` repro variable.

use pdac_telemetry::flight;

#[test]
fn panic_leaves_a_flight_dump_behind() {
    let dir = std::env::temp_dir().join(format!("pdac_flight_it_{}", std::process::id()));
    std::env::set_var(flight::FLIGHT_DIR_ENV, &dir);
    std::env::set_var("PDAC_SEED", "424242");
    pdac_telemetry::global()
        .registry()
        .add("obs.flight.it_marker", 3);

    flight::install_panic_hook();
    flight::note("integration: about to panic deliberately");
    // The panic happens on a scratch thread so the test harness's own
    // catch does not get involved; the process-global hook still fires.
    let joined = std::thread::spawn(|| panic!("deliberate flight-recorder test panic")).join();
    assert!(joined.is_err(), "the thread must actually have panicked");

    let mut dumps: Vec<_> = std::fs::read_dir(&dir)
        .expect("flight dir created by dump")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .map(|n| n.starts_with("flight-panic-"))
                .unwrap_or(false)
        })
        .collect();
    assert!(
        !dumps.is_empty(),
        "panic hook wrote a dump under {}",
        dir.display()
    );
    dumps.sort();
    let text = std::fs::read_to_string(dumps.last().unwrap()).expect("dump readable");
    assert!(text.contains("\"reason\": \"panic\""));
    assert!(
        text.contains("deliberate flight-recorder test panic"),
        "panic message recorded"
    );
    assert!(
        text.contains("integration: about to panic deliberately"),
        "earlier notes survive"
    );
    assert!(
        text.contains("\"pdac_seed\": \"424242\""),
        "repro seed captured"
    );
    assert!(
        text.contains("obs.flight.it_marker"),
        "metrics snapshot attached"
    );

    std::env::remove_var(flight::FLIGHT_DIR_ENV);
    std::env::remove_var("PDAC_SEED");
    std::fs::remove_dir_all(&dir).ok();
}
