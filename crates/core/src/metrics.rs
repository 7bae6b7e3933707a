//! The paper's §IV-C analytical model, computed from schedules.
//!
//! For any schedule, counts memory reads/writes per NUMA node, remote
//! (cross-controller) traffic, per-rank copy counts and per-distance-class
//! link stress. The unit tests reproduce the paper's closed forms for the
//! distance-aware allgather on an `N x P` machine: `P*P*N` block reads and
//! writes per NUMA node, `links x (P*N - 1)` remote block transfers, `P*N`
//! copies per process, and perfectly balanced controllers.

use pdac_hwtopo::{core_distance, Binding, DistanceMatrix, Machine};
use pdac_simnet::{FaultStats, Mech, OpKind, Schedule};

/// Aggregate memory-system counts for one schedule on one placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemStats {
    /// Bytes read from each NUMA node's memory.
    pub reads_per_numa: Vec<u64>,
    /// Bytes written to each NUMA node's memory.
    pub writes_per_numa: Vec<u64>,
    /// Bytes whose source and destination controllers differ.
    pub remote_bytes: u64,
    /// Bytes crossing the inter-board link.
    pub board_cross_bytes: u64,
    /// Copy operations executed by each rank.
    pub copies_per_rank: Vec<usize>,
    /// Kernel-assisted (KNEM) copies — each pays the setup cost.
    pub knem_ops: usize,
}

impl MemStats {
    /// `max / mean` imbalance of a per-NUMA count (1.0 = perfectly
    /// balanced). Counts NUMA nodes that are used at all.
    pub fn imbalance(values: &[u64]) -> f64 {
        let used: Vec<u64> = values.iter().copied().filter(|&v| v > 0).collect();
        if used.is_empty() {
            return 1.0;
        }
        let max = *used.iter().max().expect("non-empty") as f64;
        let mean = used.iter().sum::<u64>() as f64 / used.len() as f64;
        max / mean
    }
}

/// Walks a schedule's copies and attributes traffic to controllers.
pub fn memory_accesses(schedule: &Schedule, machine: &Machine, binding: &Binding) -> MemStats {
    let mut stats = MemStats {
        reads_per_numa: vec![0; machine.num_numa],
        writes_per_numa: vec![0; machine.num_numa],
        remote_bytes: 0,
        board_cross_bytes: 0,
        copies_per_rank: vec![0; schedule.num_ranks],
        knem_ops: 0,
    };
    for op in &schedule.ops {
        let OpKind::Copy { src_rank, dst_rank, bytes, mech, exec, .. } = op.kind else {
            continue;
        };
        let src = machine.core(binding.core_of(src_rank));
        let dst = machine.core(binding.core_of(dst_rank));
        stats.reads_per_numa[src.numa] += bytes as u64;
        stats.writes_per_numa[dst.numa] += bytes as u64;
        if src.numa != dst.numa {
            stats.remote_bytes += bytes as u64;
        }
        if src.board != dst.board {
            stats.board_cross_bytes += bytes as u64;
        }
        stats.copies_per_rank[exec] += 1;
        if mech == Mech::Knem {
            stats.knem_ops += 1;
        }
    }
    stats
}

/// Bytes moved at each process-distance class (index = distance 0..=6).
pub fn link_stress(schedule: &Schedule, dist: &DistanceMatrix) -> [u64; 9] {
    let mut stress = [0u64; 9];
    for op in &schedule.ops {
        if let OpKind::Copy { src_rank, dst_rank, bytes, .. } = op.kind {
            stress[dist.get(src_rank, dst_rank) as usize] += bytes as u64;
        }
    }
    stress
}

/// Bytes moved over physical links slower than `threshold` — what the
/// distance-aware constructions minimize.
pub fn slow_link_bytes(schedule: &Schedule, dist: &DistanceMatrix, threshold: u8) -> u64 {
    link_stress(schedule, dist)
        .iter()
        .enumerate()
        .filter(|&(d, _)| d as u8 > threshold)
        .map(|(_, &b)| b)
        .sum()
}

/// Convenience: distance between the bound cores of two ranks.
pub fn rank_distance(machine: &Machine, binding: &Binding, a: usize, b: usize) -> u8 {
    core_distance(machine, binding.core_of(a), binding.core_of(b))
}

/// One-line human-readable summary of a [`FaultStats`] record, used by the
/// chaos harness and the benchmark reports. Every field renders — including
/// zero values — so lines from different runs stay column-comparable and
/// log diffs never see a field appear or vanish.
pub fn fault_summary_line(stats: &FaultStats) -> String {
    format!(
        "faults: {} injected ({} links degraded, {} ranks stalled, {} ranks crashed, \
         {} notifies dropped), {} retries ({:.3} ms backoff), {} timeouts, {} ops abandoned, \
         {} topology rebuilds; membership: {} suspected ({} refuted), {} confirmed dead, \
         {} agreement rounds ({} re-elections), {} fenced, {} degraded runs; \
         integrity: {} stamped, {} verified, {} corrupt detected, {} retransmits",
        stats.total_injected(),
        stats.links_degraded,
        stats.ranks_stalled,
        stats.ranks_crashed,
        stats.notifies_dropped,
        stats.retries,
        stats.backoff_ns as f64 / 1e6,
        stats.timeouts,
        stats.ops_abandoned,
        stats.topology_rebuilds,
        stats.suspects_raised,
        stats.suspects_refuted,
        stats.ranks_confirmed_dead,
        stats.agreement_rounds,
        stats.coordinator_reelections,
        stats.fenced_messages,
        stats.degraded_runs,
        stats.checksums_stamped,
        stats.checksums_verified,
        stats.corrupt_detected,
        stats.retransmits,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allgather_ring::Ring;
    use crate::bcast_tree::build_bcast_tree;
    use crate::sched::{allgather_schedule, bcast_schedule, SchedConfig};
    use pdac_hwtopo::{machines, BindingPolicy};

    const S: u64 = 4096;

    /// §IV-C closed forms on IG (N = 8 NUMA nodes, P = 6 cores each).
    #[test]
    fn allgather_matches_paper_closed_forms() {
        let ig = machines::ig();
        for policy in [BindingPolicy::Contiguous, BindingPolicy::CrossSocket] {
            let binding = policy.bind(&ig, 48).unwrap();
            let dist = DistanceMatrix::for_binding(&ig, &binding);
            let ring = Ring::build(&dist);
            let sched = allgather_schedule(&ring, S as usize);
            let m = memory_accesses(&sched, &ig, &binding);

            let (n, p) = (8u64, 6u64);
            for numa in 0..8 {
                assert_eq!(m.reads_per_numa[numa], p * p * n * S, "reads, numa {numa}");
                assert_eq!(m.writes_per_numa[numa], p * p * n * S, "writes, numa {numa}");
            }
            // links x (P*N - 1) remote block transfers.
            assert_eq!(m.remote_bytes, n * (p * n - 1) * S);
            // Each process performs P*N copies.
            assert!(m.copies_per_rank.iter().all(|&c| c as u64 == p * n));
            // "There is no hot-spot for any memory controller."
            assert_eq!(MemStats::imbalance(&m.reads_per_numa), 1.0);
            assert_eq!(MemStats::imbalance(&m.writes_per_numa), 1.0);
        }
    }

    #[test]
    fn distance_aware_bcast_minimizes_slow_link_bytes() {
        let ig = machines::ig();
        let bytes = 1 << 20;
        for policy in [BindingPolicy::Contiguous, BindingPolicy::CrossSocket] {
            let binding = policy.bind(&ig, 48).unwrap();
            let dist = DistanceMatrix::for_binding(&ig, &binding);
            let tree = build_bcast_tree(&dist, 0);
            let sched = bcast_schedule(&tree, bytes, &SchedConfig::uniform(0));
            // Exactly one message crosses the boards, 6 cross sockets.
            let stress = link_stress(&sched, &dist);
            assert_eq!(stress[6], bytes as u64);
            assert_eq!(stress[5], 6 * bytes as u64);
            assert_eq!(stress[1], 40 * bytes as u64);
            assert_eq!(slow_link_bytes(&sched, &dist, 1), 7 * bytes as u64);
        }
    }

    #[test]
    fn bcast_write_traffic_is_balanced_across_numa_nodes() {
        // "balance memory accesses across memory nodes": every rank writes
        // its copy once, so write traffic per NUMA node is equal.
        let ig = machines::ig();
        let binding = BindingPolicy::CrossSocket.bind(&ig, 48).unwrap();
        let dist = DistanceMatrix::for_binding(&ig, &binding);
        let tree = build_bcast_tree(&dist, 0);
        let sched = bcast_schedule(&tree, 1 << 16, &SchedConfig::default());
        let m = memory_accesses(&sched, &ig, &binding);
        // Every rank but the root writes its copy exactly once, so the only
        // imbalance is the root's own missing write: 6/5.875.
        assert!(MemStats::imbalance(&m.writes_per_numa) < 1.03);
        assert_eq!(m.knem_ops, 47);
    }

    #[test]
    fn imbalance_helper() {
        assert_eq!(MemStats::imbalance(&[]), 1.0);
        assert_eq!(MemStats::imbalance(&[5, 5, 5]), 1.0);
        assert_eq!(MemStats::imbalance(&[9, 3]), 1.5);
        assert_eq!(MemStats::imbalance(&[4, 0, 4]), 1.0, "unused nodes ignored");
    }

    #[test]
    fn rank_distance_respects_binding() {
        let ig = machines::ig();
        let binding = BindingPolicy::CrossSocket.bind(&ig, 48).unwrap();
        assert_eq!(rank_distance(&ig, &binding, 0, 8), 1);
        assert_eq!(rank_distance(&ig, &binding, 0, 1), 5);
        assert_eq!(rank_distance(&ig, &binding, 0, 4), 6);
    }
}
