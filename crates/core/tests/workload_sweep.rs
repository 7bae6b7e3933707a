//! Deterministic seed-sweep harness over the adversarial workload
//! generator: random machines, random (possibly oversubscribed)
//! placements, mid-storm migration churn, and a chaos finale — on both
//! one-sided transport backends.
//!
//! * `PDAC_SEED=<n>` runs exactly that seed (the repro command every
//!   failure prints).
//! * `PDAC_TRANSPORT=<knem|rdma>` restricts a `PDAC_SEED` repro to the
//!   backend that failed (failure messages pin it).
//! * `PDAC_STRESS_ITERS=<n>` bounds the sweep width (CI cranks it to 100;
//!   the default keeps `cargo test` fast).

use pdac_core::workload::{run_workload, stress_iters, sweep, WorkloadConfig};
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
fn seeded_workload_sweep() {
    if let Ok(v) = std::env::var("PDAC_SEED") {
        let seed: u64 = v.parse().expect("PDAC_SEED must be a u64");
        for kind in transports_under_test() {
            match run_workload(&WorkloadConfig::on_transport(seed, kind)) {
                Ok(rep) => println!("[{}] {}", kind.label(), rep.summary()),
                Err(e) => panic!("{e}"),
            }
        }
        return;
    }
    // Total seeds across both transports; CI's PDAC_STRESS_ITERS=100 means
    // 50 random machines per backend.
    let per_transport = stress_iters(6).div_ceil(2).max(1);
    for kind in [TransportKind::Knem, TransportKind::Rdma] {
        match sweep(0, per_transport, kind) {
            Ok(reports) => {
                let over = reports.iter().filter(|r| r.oversubscribed).count();
                let churned = reports.iter().filter(|r| r.churned).count();
                println!(
                    "[{}] {} seeds: {} oversubscribed, {} churned, e.g. {}",
                    kind.label(),
                    reports.len(),
                    over,
                    churned,
                    reports[0].summary()
                );
                assert!(reports.iter().all(|r| r.transfers > 0), "every workload moved bytes");
            }
            Err(e) => panic!("{e}"),
        }
    }
}

/// The same seed must describe the same workload on both backends: same
/// fuzzed machine, same placement, same storm — only the transport differs,
/// and both must verify.
#[test]
fn same_seed_same_workload_across_transports() {
    let knem = run_workload(&WorkloadConfig::on_transport(1, TransportKind::Knem))
        .unwrap_or_else(|e| panic!("{e}"));
    let rdma = run_workload(&WorkloadConfig::on_transport(1, TransportKind::Rdma))
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(knem.machine, rdma.machine);
    assert_eq!(knem.ranks, rdma.ranks);
    assert_eq!(knem.oversubscribed, rdma.oversubscribed);
    assert_eq!(knem.transfers, rdma.transfers);
    assert_eq!(knem.churned, rdma.churned);
}
