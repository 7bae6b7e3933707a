//! Deterministic corruption-sweep harness: the adversarial workload
//! generator with seeded payload corruption injected into every storm step
//! and the chaos finale, on both one-sided transport backends.
//!
//! A sweep that completes proves **zero undetected corruption**: a report
//! only exists for a seed whose every payload matched the oracle, so
//! anything the injectors damaged was caught by the checksummed data path
//! and healed by a verified re-transmit first. Each run is also bounded by
//! the chaos retry policy's per-op deadline and the harness watchdog, so a
//! completed sweep is likewise a **zero-hang** proof.
//!
//! * `PDAC_SEED=<n>` runs exactly that seed (the repro command every
//!   failure prints).
//! * `PDAC_TRANSPORT=<knem|rdma>` restricts a `PDAC_SEED` repro to the
//!   backend that failed (failure messages pin it).
//! * `PDAC_STRESS_ITERS=<n>` bounds the sweep width (CI cranks it to 100;
//!   the default keeps `cargo test` fast).

use pdac_core::workload::{
    corruption_repro_command_for, corruption_sweep, run_workload, stress_iters, WorkloadConfig,
};
use pdac_mpisim::TransportKind;

/// The backends a repro run exercises: the one `PDAC_TRANSPORT` names, or
/// both when it is unset.
fn transports_under_test() -> Vec<TransportKind> {
    match std::env::var("PDAC_TRANSPORT").ok().as_deref() {
        Some("knem") => vec![TransportKind::Knem],
        Some("rdma") => vec![TransportKind::Rdma],
        Some(other) => panic!("PDAC_TRANSPORT must be `knem` or `rdma`, got {other:?}"),
        None => vec![TransportKind::Knem, TransportKind::Rdma],
    }
}

#[test]
fn seeded_corruption_sweep() {
    if let Ok(v) = std::env::var("PDAC_SEED") {
        let seed: u64 = v.parse().expect("PDAC_SEED must be a u64");
        for kind in transports_under_test() {
            match run_workload(&WorkloadConfig::corrupted(seed, kind)) {
                Ok(rep) => println!("[{}] {}", kind.label(), rep.summary()),
                Err(e) => {
                    panic!("{e}\ncorruption repro: {}", corruption_repro_command_for(seed, kind))
                }
            }
        }
        return;
    }
    // Total seeds across both transports; CI's PDAC_STRESS_ITERS=100 means
    // 50 corrupted workloads per backend.
    let per_transport = stress_iters(6).div_ceil(2).max(1);
    for kind in [TransportKind::Knem, TransportKind::Rdma] {
        match corruption_sweep(0, per_transport, kind) {
            Ok(reports) => {
                let detections: u64 = reports.iter().map(|r| r.corrupt_detected).sum();
                let retransmits: u64 = reports.iter().map(|r| r.retransmits).sum();
                println!(
                    "[{}] {} corrupted seeds: {} detections healed by {} retransmits, e.g. {}",
                    kind.label(),
                    reports.len(),
                    detections,
                    retransmits,
                    reports[0].summary()
                );
                assert!(reports.iter().all(|r| r.transfers > 0), "every workload moved bytes");
                assert_eq!(
                    detections, retransmits,
                    "every storm detection was healed by exactly one re-transmit"
                );
                // With ≥3 seeds the injectors statistically always land on
                // scheduled copies; a silent zero would mean the fault
                // plumbing quietly disconnected, not that corruption is
                // impossible.
                if reports.len() >= 3 {
                    assert!(
                        detections >= 1,
                        "{} corrupted seeds produced zero detections — are the \
                         injectors wired through?",
                        reports.len()
                    );
                }
            }
            Err(e) => panic!(
                "{e}\ncorruption repro: {}",
                corruption_repro_command_for(e.seed, e.transport)
            ),
        }
    }
}

/// Same seed, same corrupted workload on both backends: identical machine
/// and storm shape, identical detection and re-transmit accounting — the
/// checksummed data path sits above the transport seam.
#[test]
fn same_seed_same_corruption_across_transports() {
    let knem = run_workload(&WorkloadConfig::corrupted(1, TransportKind::Knem))
        .unwrap_or_else(|e| panic!("{e}"));
    let rdma = run_workload(&WorkloadConfig::corrupted(1, TransportKind::Rdma))
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(knem.machine, rdma.machine);
    assert_eq!(knem.ranks, rdma.ranks);
    assert_eq!(knem.transfers, rdma.transfers);
    assert_eq!(knem.corrupt_detected, rdma.corrupt_detected);
    assert_eq!(knem.retransmits, rdma.retransmits);
}
