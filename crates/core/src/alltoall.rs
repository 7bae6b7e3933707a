//! Distance-aware Alltoall.
//!
//! Every rank holds `n` personalized blocks in `Send` and must deliver
//! block `i` to rank `i`. The distance-aware execution walks the
//! Algorithm-2 ring: at step `k`, every rank pulls its own block from the
//! peer `k` positions to its left. Early steps therefore exchange with
//! physical neighbours and the per-step traffic pattern is a rotation —
//! every controller serves exactly one incoming and one outgoing block per
//! step, with no hot-spot, mirroring the §IV-C balance argument.

use pdac_mpisim::Communicator;
use pdac_simnet::{BufId, Mech, Schedule, ScheduleBuilder};

use crate::adaptive::{AdaptiveColl, Collective, Request, Sinks};
use crate::allgather_ring::Ring;

/// Builds the ring-ordered alltoall schedule.
pub fn alltoall_schedule(ring: &Ring, block_bytes: usize) -> Schedule {
    let n = ring.len();
    let mut b = ScheduleBuilder::new("dist-alltoall", n);

    // Own block: local copy.
    for r in 0..n {
        b.copy(
            (r, BufId::Send, r * block_bytes),
            (r, BufId::Recv, r * block_bytes),
            block_bytes,
            Mech::Memcpy,
            r,
            &[],
        );
    }

    // Step k: pull my block from the rank k positions to the left; the
    // notification carries that peer's cookie.
    for k in 1..n {
        for r in 0..n {
            let peer = ring.left_k(r, k);
            let ready = b.notify(peer, r, &[]);
            b.copy(
                (peer, BufId::Send, r * block_bytes),
                (r, BufId::Recv, peer * block_bytes),
                block_bytes,
                Mech::Knem,
                r,
                &[ready],
            );
        }
    }
    b.finish()
}

/// Distance-aware alltoall for a communicator.
pub fn distance_aware(comm: &Communicator, block_bytes: usize) -> Schedule {
    let request = Request::new(Collective::Alltoall, 0, block_bytes);
    AdaptiveColl::default().plan(comm, request, Sinks::default())
}

/// Rank-order baseline: the classic rotation over *logical* ranks
/// (`peer = (r + k) mod n` at step `k`), through the p2p stack.
pub fn logical_rotation(
    n: usize,
    block_bytes: usize,
    p2p: &pdac_mpisim::p2p::P2pConfig,
) -> Schedule {
    let mut b = ScheduleBuilder::new("rotation-alltoall", n);
    let mut temp = 0u32;
    for r in 0..n {
        b.copy(
            (r, BufId::Send, r * block_bytes),
            (r, BufId::Recv, r * block_bytes),
            block_bytes,
            Mech::Memcpy,
            r,
            &[],
        );
    }
    for k in 1..n {
        for r in 0..n {
            let to = (r + k) % n;
            pdac_mpisim::p2p::emit_send(
                &mut b,
                p2p,
                &mut temp,
                (r, BufId::Send, to * block_bytes),
                (to, BufId::Recv, r * block_bytes),
                block_bytes,
                &[],
            );
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use pdac_hwtopo::{machines, BindingPolicy};
    use std::sync::Arc;

    #[test]
    fn distance_aware_alltoall_correct() {
        for policy in [BindingPolicy::Contiguous, BindingPolicy::CrossSocket] {
            let ig = Arc::new(machines::ig());
            let binding = policy.bind(&ig, 16).unwrap();
            let comm = Communicator::world(Arc::clone(&ig), binding.subset(&(0..16).collect::<Vec<_>>()));
            let s = distance_aware(&comm, 500);
            s.validate().unwrap();
            verify::run(Request::new(Collective::Alltoall, 0, 500), &s).unwrap();
        }
    }

    #[test]
    fn logical_rotation_correct() {
        let s = logical_rotation(8, 1000, &pdac_mpisim::p2p::P2pConfig::default());
        s.validate().unwrap();
        verify::run(Request::new(Collective::Alltoall, 0, 1000), &s).unwrap();
    }

    #[test]
    fn alltoall_copy_count_and_balance() {
        let ig = Arc::new(machines::ig());
        let binding = BindingPolicy::Contiguous.bind(&ig, 48).unwrap();
        let comm = Communicator::world(Arc::clone(&ig), binding.clone());
        let s = distance_aware(&comm, 4096);
        assert_eq!(s.num_copies(), 48 * 48, "one copy per (src, dst) pair");
        let m = crate::metrics::memory_accesses(&s, &ig, &binding);
        // Perfect balance: every rank executes n copies, every controller
        // sees the same traffic.
        assert!(m.copies_per_rank.iter().all(|&c| c == 48));
        assert_eq!(crate::metrics::MemStats::imbalance(&m.reads_per_numa), 1.0);
        assert_eq!(crate::metrics::MemStats::imbalance(&m.writes_per_numa), 1.0);
    }

    #[test]
    fn early_steps_stay_local() {
        // Step 1 pulls are ring neighbours: mostly distance 1 on IG.
        let ig = Arc::new(machines::ig());
        let binding = BindingPolicy::CrossSocket.bind(&ig, 48).unwrap();
        let comm = Communicator::world(Arc::clone(&ig), binding);
        let dist = comm.distances();
        let ring = Ring::build(&dist);
        let mut local = 0;
        for r in 0..48 {
            if dist.get(r, ring.left(r)) == 1 {
                local += 1;
            }
        }
        assert_eq!(local, 40, "40 of 48 step-1 exchanges are intra-socket");
    }
}
