//! Integrity counters must be visible on every observability surface: an
//! executor run — healed or failed — publishes `integrity.*` into the
//! global registry, the OpenMetrics exposition renders them as
//! `pdac_integrity_*_total` samples, and a flight-recorder dump carries
//! them in its metrics snapshot — so a scraper or a post-mortem reader
//! sees checksum detections without access to the process.

use std::sync::Arc;

use pdac_core::verify::pattern;
use pdac_core::AdaptiveColl;
use pdac_hwtopo::{machines, BindingPolicy};
use pdac_mpisim::{Communicator, ExecError, RetryPolicy, ThreadExecutor, TransportKind};
use pdac_obs::{flight, to_openmetrics};
use pdac_simnet::FaultPlan;

#[test]
fn integrity_counters_reach_openmetrics_and_flight_dumps() {
    let machine = Arc::new(machines::ig());
    let binding = BindingPolicy::Contiguous
        .bind(&machine, 8)
        .expect("8 ranks fit on ig");
    let comm = Communicator::world(machine, binding);
    let schedule = AdaptiveColl::default().allgather(&comm, 2048);
    let registry = pdac_telemetry::global().registry();

    // A failed run publishes too: rank 3 damages every chunk it serves, so
    // its successor's pull exhausts the retry budget and the run errors —
    // yet every detection it made reaches the registry. (Other ranks' pulls
    // from rank 3 may detect damage before the run is poisoned, hence ≥.)
    let policy = RetryPolicy::chaos();
    let detected_before = registry.counter("integrity.corrupt_detected").get();
    let err = ThreadExecutor::with_transport(TransportKind::Knem.create(None))
        .with_policy(policy)
        .with_faults(FaultPlan::new(41).corrupt_source(3, 0xC0DE))
        .run(&schedule, pattern)
        .expect_err("a persistent corrupter exhausts the retry budget");
    assert!(matches!(err, ExecError::Corrupt { peer: 3, .. }), "{err}");
    let detected = registry.counter("integrity.corrupt_detected").get() - detected_before;
    assert!(
        detected > u64::from(policy.max_retries),
        "the failed run's {detected} detections must be published (original + every retry)"
    );

    // Seed 41 is the transport-parity corruption seed: its injectors land
    // on scheduled copies, so the run detects, re-transmits, and heals.
    let plan = FaultPlan::new(41).with_seeded_corruption(comm.size());
    let res = ThreadExecutor::with_transport(TransportKind::Knem.create(None))
        .with_policy(RetryPolicy::chaos())
        .with_faults(plan)
        .run(&schedule, pattern)
        .expect("transient corruption heals within the retry budget");
    assert!(res.integrity_stats.corrupt_detected >= 1, "injector fired");

    // OpenMetrics: the run's publish() put integrity.* into the global
    // registry; the exposition renders each as a *_total counter sample.
    let text = to_openmetrics(&pdac_telemetry::global().registry().snapshot());
    let read = |name: &str| -> u64 {
        text.lines()
            .find(|l| !l.starts_with('#') && l.starts_with(name))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{name} missing from exposition:\n{text}"))
    };
    let stamped = read("pdac_integrity_stamped_total");
    let verified = read("pdac_integrity_verified_total");
    let detected = read("pdac_integrity_corrupt_detected_total");
    let retransmits = read("pdac_integrity_retransmits_total");
    assert!(stamped >= res.integrity_stats.stamped);
    assert!(detected >= res.integrity_stats.corrupt_detected);
    assert!(retransmits >= res.integrity_stats.retransmits);
    assert!(
        stamped >= verified + detected,
        "every stamped chunk was either verified or caught: {stamped} vs {verified}+{detected}"
    );

    // Flight dump: the post-mortem metrics snapshot carries the same
    // counters by their registry names.
    let dir = std::env::temp_dir().join(format!("pdac_integrity_obs_{}", std::process::id()));
    std::env::set_var(flight::FLIGHT_DIR_ENV, &dir);
    flight::note("integrity observability test: dumping after a healed run");
    let path = flight::dump("integrity-test").expect("dump written");
    let dump = std::fs::read_to_string(&path).expect("dump readable");
    for counter in [
        "integrity.stamped",
        "integrity.verified",
        "integrity.corrupt_detected",
        "integrity.retransmits",
    ] {
        assert!(
            dump.contains(counter),
            "{counter} missing from flight dump {}",
            path.display()
        );
    }
    std::env::remove_var(flight::FLIGHT_DIR_ENV);
    std::fs::remove_dir_all(&dir).ok();
}
