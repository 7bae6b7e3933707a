//! Distance-aware Reduce-scatter over the Algorithm-2 ring.
//!
//! The bandwidth-optimal ring reduce-scatter (each byte crosses each link
//! once), walked over the *distance-clustered* ring so the accumulating
//! partials travel physically short hops: every rank seeds a working copy
//! of its contribution, then for `n-1` steps pulls its left neighbour's
//! partial of the travelling block and combines it with its own. Rank `r`
//! ends up with the fully reduced block `r`.
//!
//! Combined with the distance-aware allgather this also yields a
//! bandwidth-optimal allreduce ([`ring_allreduce_schedule`]), the pattern
//! the paper's §VI extension list points toward.

use pdac_mpisim::Communicator;
use pdac_simnet::{BufId, DataOp, Mech, OpId, Schedule, ScheduleBuilder};

use crate::adaptive::{AdaptiveColl, Collective, Request, Sinks};
use crate::allgather_ring::Ring;

/// Block `b` processed by rank `r` at step `k` (1-based): chosen so the
/// block finishing at rank `r` on the last step is block `r` itself.
fn block_at(ring: &Ring, r: usize, k: usize) -> usize {
    // k+1 positions to the left: at k = n-1 this wraps to r itself, and the
    // chaining invariant block_at(r, k) == block_at(left(r), k-1) holds for
    // every step.
    ring.left_k(r, k + 1)
}

/// Emits the ring reduce-scatter into `b`; returns per-rank ops after which
/// rank `r`'s reduced block `r` sits at `Temp(0)[r * block..]`.
fn emit_ring_reduce(b: &mut ScheduleBuilder, ring: &Ring, block_bytes: usize, op: DataOp) -> Vec<OpId> {
    let n = ring.len();
    // Seed the working buffer with the own contribution.
    let seed: Vec<OpId> = (0..n)
        .map(|r| {
            b.copy(
                (r, BufId::Send, 0),
                (r, BufId::Temp(0), 0),
                n * block_bytes,
                Mech::Memcpy,
                r,
                &[],
            )
        })
        .collect();

    let mut last: Vec<OpId> = seed.clone();
    for k in 1..n {
        let mut next = last.clone();
        for r in 0..n {
            let left = ring.left(r);
            let blk = block_at(ring, r, k);
            debug_assert_eq!(blk, block_at(ring, left, k - 1), "partials chain along the ring");
            let ready = b.notify(left, r, &[last[left]]);
            let combine = b.combine_with(
                (left, BufId::Temp(0), blk * block_bytes),
                (r, BufId::Temp(0), blk * block_bytes),
                block_bytes,
                Mech::Knem,
                r,
                op,
                &[ready, seed[r]],
            );
            next[r] = combine;
        }
        last = next;
    }
    last
}

/// Ring reduce-scatter: rank `r` ends with the fully reduced block `r` in
/// `Recv[0..block]`.
pub fn reduce_scatter_schedule(ring: &Ring, block_bytes: usize) -> Schedule {
    reduce_scatter_schedule_with_op(ring, block_bytes, DataOp::Add)
}

/// [`reduce_scatter_schedule`] with an explicit combine operator.
pub fn reduce_scatter_schedule_with_op(ring: &Ring, block_bytes: usize, op: DataOp) -> Schedule {
    let n = ring.len();
    let mut b = ScheduleBuilder::new("dist-reduce-scatter", n);
    if n == 1 {
        b.combine_with((0, BufId::Send, 0), (0, BufId::Recv, 0), block_bytes, Mech::Memcpy, 0, op, &[]);
        return b.finish();
    }
    let done = emit_ring_reduce(&mut b, ring, block_bytes, op);
    for (r, &d) in done.iter().enumerate() {
        b.copy(
            (r, BufId::Temp(0), r * block_bytes),
            (r, BufId::Recv, 0),
            block_bytes,
            Mech::Memcpy,
            r,
            &[d],
        );
    }
    b.finish()
}

/// Ring allreduce = ring reduce-scatter + distance-aware allgather of the
/// reduced blocks: every byte crosses every ring link exactly twice — the
/// bandwidth-optimal schedule.
pub fn ring_allreduce_schedule(ring: &Ring, block_bytes: usize) -> Schedule {
    ring_allreduce_schedule_with_op(ring, block_bytes, DataOp::Add)
}

/// [`ring_allreduce_schedule`] with an explicit combine operator.
pub fn ring_allreduce_schedule_with_op(ring: &Ring, block_bytes: usize, op: DataOp) -> Schedule {
    let n = ring.len();
    let mut b = ScheduleBuilder::new("dist-ring-allreduce", n);
    if n == 1 {
        b.combine_with((0, BufId::Send, 0), (0, BufId::Recv, 0), block_bytes, Mech::Memcpy, 0, op, &[]);
        return b.finish();
    }
    let done = emit_ring_reduce(&mut b, ring, block_bytes, op);

    // Allgather phase over the reduced blocks (out of Temp into Recv).
    let mut ready: Vec<OpId> = (0..n)
        .map(|r| {
            b.copy(
                (r, BufId::Temp(0), r * block_bytes),
                (r, BufId::Recv, r * block_bytes),
                block_bytes,
                Mech::Memcpy,
                r,
                &[done[r]],
            )
        })
        .collect();
    let mut notif: Vec<OpId> = (0..n).map(|r| b.notify(r, ring.right(r), &[ready[r]])).collect();
    for k in 1..n {
        let mut next_ready = ready.clone();
        let mut next_notif = notif.clone();
        for r in 0..n {
            let left = ring.left(r);
            let owner = ring.left_k(r, k);
            let pull = b.copy(
                (left, BufId::Recv, owner * block_bytes),
                (r, BufId::Recv, owner * block_bytes),
                block_bytes,
                Mech::Knem,
                r,
                &[notif[left]],
            );
            next_ready[r] = pull;
            if k + 1 < n {
                next_notif[r] = b.notify(r, ring.right(r), &[pull]);
            }
        }
        ready = next_ready;
        notif = next_notif;
    }
    b.finish()
}

/// Distance-aware reduce-scatter for a communicator.
pub fn distance_aware(comm: &Communicator, block_bytes: usize) -> Schedule {
    let request = Request::new(Collective::ReduceScatter, 0, block_bytes);
    AdaptiveColl::default().plan(comm, request, Sinks::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AllreduceAlgo;
    use crate::verify;
    use pdac_hwtopo::{machines, BindingPolicy};
    use std::sync::Arc;

    fn ring_allreduce(bytes: usize) -> Request {
        Request { allreduce: AllreduceAlgo::Ring, ..Request::new(Collective::Allreduce, 0, bytes) }
    }

    #[test]
    fn reduce_scatter_correct_under_bindings() {
        for policy in [BindingPolicy::Contiguous, BindingPolicy::CrossSocket, BindingPolicy::Random { seed: 4 }] {
            let ig = Arc::new(machines::ig());
            let binding = policy.bind(&ig, 12).unwrap();
            let comm = Communicator::world(Arc::clone(&ig), binding);
            let s = distance_aware(&comm, 700);
            s.validate().unwrap();
            verify::run(Request::new(Collective::ReduceScatter, 0, 700), &s)
                .unwrap_or_else(|e| panic!("{policy:?}: {e}"));
        }
    }

    #[test]
    fn ring_allreduce_correct() {
        let ig = Arc::new(machines::ig());
        let binding = BindingPolicy::Random { seed: 9 }.bind(&ig, 10).unwrap();
        let comm = Communicator::world(Arc::clone(&ig), binding);
        let ring = Ring::build(&comm.distances());
        let s = ring_allreduce_schedule(&ring, 512);
        s.validate().unwrap();
        verify::run(ring_allreduce(10 * 512), &s).unwrap();
    }

    #[test]
    fn single_rank_degenerates() {
        let ring = Ring::from_order(vec![0]);
        let s = reduce_scatter_schedule(&ring, 64);
        s.validate().unwrap();
        verify::run(Request::new(Collective::ReduceScatter, 0, 64), &s).unwrap();
        let s = ring_allreduce_schedule(&ring, 64);
        s.validate().unwrap();
        verify::run(ring_allreduce(64), &s).unwrap();
    }

    #[test]
    fn every_byte_crosses_each_ring_link_once() {
        // Reduce-scatter moves (n-1) blocks over each of the n ring links.
        let ig = Arc::new(machines::ig());
        let binding = BindingPolicy::Contiguous.bind(&ig, 8).unwrap();
        let comm = Communicator::world(Arc::clone(&ig), binding);
        let s = distance_aware(&comm, 1000);
        // 8 seeds + 8*7 combines + 8 finals.
        assert_eq!(s.num_copies(), 8 + 56 + 8);
    }

    #[test]
    fn ring_allreduce_beats_tree_allreduce_for_large_payloads() {
        use pdac_simnet::{SimConfig, SimExecutor};
        let ig = Arc::new(machines::ig());
        let binding = BindingPolicy::Contiguous.bind(&ig, 48).unwrap();
        let comm = Communicator::world(Arc::clone(&ig), binding.clone());
        let exec = SimExecutor::new(&ig, &binding, SimConfig { allow_cache: false });

        let total = 48 * (64 << 10); // 3MB vector
        let time = |algo| {
            let request = Request { allreduce: algo, ..Request::new(Collective::Allreduce, 0, total) };
            let schedule = AdaptiveColl::default().plan(&comm, request, Sinks::default());
            exec.run(&schedule).unwrap().total_time
        };
        let t_ring = time(crate::adaptive::AllreduceAlgo::Ring);
        let t_tree = time(crate::adaptive::AllreduceAlgo::Tree);
        assert!(
            t_ring < t_tree,
            "ring allreduce must win at {total} bytes: ring {t_ring:.4}s tree {t_tree:.4}s"
        );
    }
}
