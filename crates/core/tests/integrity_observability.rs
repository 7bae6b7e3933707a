//! Each runtime fact is counted once and reaches every observability
//! surface. An executor run — healed or failed — publishes `integrity.*`
//! into the global registry, the OpenMetrics rendering shows them as
//! `pdac_integrity_*_total` samples, and a flight-recorder dump carries
//! them in its metrics snapshot. A chaos episode then moves each registry
//! counter by exactly the matching field of its runtime record.
//!
//! One `#[test]`, so no other test in this process shares the registry.

use std::sync::Arc;

use pdac_core::verify::pattern;
use pdac_core::{run_chaos, AdaptiveColl, ChaosConfig, Collective, Request};
use pdac_hwtopo::{machines, BindingPolicy};
use pdac_mpisim::{Communicator, ExecError, RetryPolicy, ThreadExecutor, TransportKind};
use pdac_simnet::FaultPlan;
use pdac_telemetry::{flight, to_openmetrics};

#[test]
fn each_fact_is_published_once_and_reaches_every_surface() {
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

    // OpenMetrics: the executor put integrity.* into the global registry;
    // the rendering shows each as a *_total counter sample.
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

    // Registry equals record: a chaos episode on KNEM with the seeded
    // crash, healed transient corruption and a persistent corrupter (rank
    // 3, confirmed by the recovery manager, not by the executor). Every
    // counter moves by exactly the runtime record's field — the
    // simulator's prediction for the survivors adds nothing to either.
    let smp = Arc::new(machines::flat_smp(6));
    let binding = BindingPolicy::Contiguous
        .bind(&smp, 6)
        .expect("6 ranks fit");
    let comm = Communicator::world(smp, binding);
    let cfg = ChaosConfig {
        corruption: true,
        ..ChaosConfig::with_corrupter(5, 3)
    };
    let what = Request::new(Collective::Allgather, 0, 2048);
    let before = registry.snapshot();
    let out = run_chaos(&comm, AdaptiveColl::default(), what, &cfg)
        .unwrap_or_else(|e| panic!("corrupter seed 5: {e}"));
    let after = registry.snapshot();
    assert!(
        out.failed_ranks.contains(&3),
        "the corrupter is fenced: {:?}",
        out.failed_ranks
    );
    let s = &out.stats;
    assert!(
        s.ranks_crashed >= 1 && s.corrupt_detected >= 1,
        "{}",
        out.summary()
    );
    for (name, record) in [
        ("faults.ranks_stalled", s.ranks_stalled),
        ("faults.ranks_crashed", s.ranks_crashed),
        ("faults.notifies_dropped", s.notifies_dropped),
        ("faults.ops_abandoned", s.ops_abandoned),
        ("faults.retries", s.retries),
        ("faults.backoff_ns", s.backoff_ns),
        ("faults.timeouts", s.timeouts),
        ("faults.suspects_raised", s.suspects_raised),
        ("faults.suspects_refuted", s.suspects_refuted),
        ("faults.ranks_confirmed_dead", s.ranks_confirmed_dead),
        ("integrity.stamped", s.checksums_stamped),
        ("integrity.verified", s.checksums_verified),
        ("integrity.corrupt_detected", s.corrupt_detected),
        ("integrity.retransmits", s.retransmits),
        ("knem.fenced", s.fenced_messages),
        ("recovery.topology_rebuilds", s.topology_rebuilds),
        ("recovery.agreement_rounds", s.agreement_rounds),
        (
            "recovery.coordinator_reelections",
            s.coordinator_reelections,
        ),
        ("chaos.degraded", s.degraded_runs),
    ] {
        let count =
            |snap: &pdac_telemetry::RegistrySnapshot| snap.counters.get(name).copied().unwrap_or(0);
        assert_eq!(
            count(&after) - count(&before),
            record,
            "{name} vs the record: {}",
            out.summary()
        );
    }
}
