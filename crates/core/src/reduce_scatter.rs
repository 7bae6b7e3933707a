//! Distance-aware Reduce-scatter over the Algorithm-2 ring.
//!
//! The bandwidth-optimal ring reduce-scatter (each byte crosses each link
//! once), walked over the *distance-clustered* ring so the accumulating
//! partials travel physically short hops: every rank seeds a working copy
//! of its contribution, then for `n-1` steps pulls its left neighbour's
//! partial of the travelling block and combines it with its own. Rank `r`
//! ends up with the fully reduced block `r`.
//!
//! Combined with the distance-aware allgather's ring walk this also yields
//! a bandwidth-optimal allreduce ([`ring_allreduce_schedule_with_op`]),
//! the pattern the paper's §VI extension list points toward.

use pdac_mpisim::Communicator;
use pdac_simnet::{BufId, DataOp, Mech, OpId, Schedule, ScheduleBuilder};

use crate::adaptive::{AdaptiveColl, Collective, Request, Sinks};
use crate::allgather_ring::Ring;
use crate::sched::ring_allgather;

/// Emits the ring reduce-scatter into `b` (`n + 2n(n-1)` ops holding
/// `3n(n-1)` dependencies); returns per-rank ops after which rank `r`'s
/// reduced block `r` sits at `Temp(0)[r * block..]`.
fn emit_ring_reduce(
    b: &mut ScheduleBuilder,
    ring: &Ring,
    block_bytes: usize,
    op: DataOp,
) -> Vec<OpId> {
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

    // At step k rank r combines block `left_k(r, k + 1)`, the partial its
    // left neighbour finished at step k - 1; at k = n-1 that is block r.
    let mut blocks: Vec<usize> = (0..n).map(|r| ring.left(r)).collect();
    let mut last: Vec<OpId> = seed.clone();
    let mut next = seed.clone();
    for _ in 1..n {
        for r in 0..n {
            let left = ring.left(r);
            blocks[r] = ring.left(blocks[r]);
            let blk = blocks[r] * block_bytes;
            let ready = b.notify(left, r, &[last[left]]);
            next[r] = b.combine_with(
                (left, BufId::Temp(0), blk),
                (r, BufId::Temp(0), blk),
                block_bytes,
                Mech::Knem,
                r,
                op,
                &[ready, seed[r]],
            );
        }
        std::mem::swap(&mut last, &mut next);
    }
    last
}

/// The one-rank case of both ring builders: the own contribution, combined
/// with `op` straight into `Recv`.
fn single_rank(name: &str, block_bytes: usize, op: DataOp) -> Schedule {
    let mut b = ScheduleBuilder::new(name, 1);
    let (src, dst) = ((0, BufId::Send, 0), (0, BufId::Recv, 0));
    b.combine_with(src, dst, block_bytes, Mech::Memcpy, 0, op, &[]);
    b.finish()
}

/// Ring reduce-scatter combining with `op`: rank `r` ends with the fully
/// reduced block `r` in `Recv[0..block]`.
pub fn reduce_scatter_schedule_with_op(ring: &Ring, block_bytes: usize, op: DataOp) -> Schedule {
    let n = ring.len();
    if n == 1 {
        return single_rank("dist-reduce-scatter", block_bytes, op);
    }
    let mut b = ScheduleBuilder::new("dist-reduce-scatter", n);
    b.reserve(2 * n * n, 3 * n * (n - 1) + n);
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
/// bandwidth-optimal schedule. Combines with `op`.
pub fn ring_allreduce_schedule_with_op(ring: &Ring, block_bytes: usize, op: DataOp) -> Schedule {
    let n = ring.len();
    if n == 1 {
        return single_rank("dist-ring-allreduce", block_bytes, op);
    }
    let mut b = ScheduleBuilder::new("dist-ring-allreduce", n);
    // The reduction, then n local copies, n(n-1) pulls and n(n-1) notifies.
    b.reserve(4 * n * n - 2 * n, 5 * n * n - 4 * n);
    let done = emit_ring_reduce(&mut b, ring, block_bytes, op);
    // Allgather phase over the reduced blocks (out of Temp into Recv).
    let own = |r| (r, BufId::Temp(0), r * block_bytes);
    ring_allgather(b, ring, block_bytes, None, None, own, Some(&done))
}

/// Distance-aware reduce-scatter for a communicator.
pub fn distance_aware(comm: &Communicator, block_bytes: usize) -> Schedule {
    let request = Request::new(Collective::ReduceScatter, 0, block_bytes);
    AdaptiveColl.plan(comm, request, Sinks::default())
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
        for policy in [
            BindingPolicy::Contiguous,
            BindingPolicy::CrossSocket,
            BindingPolicy::Random { seed: 4 },
        ] {
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
        let s = ring_allreduce_schedule_with_op(&ring, 512, DataOp::Add);
        s.validate().unwrap();
        verify::run(ring_allreduce(10 * 512), &s).unwrap();
    }

    #[test]
    fn single_rank_degenerates() {
        let ring = Ring::from_order(vec![0]);
        let s = reduce_scatter_schedule_with_op(&ring, 64, DataOp::Add);
        s.validate().unwrap();
        verify::run(Request::new(Collective::ReduceScatter, 0, 64), &s).unwrap();
        let s = ring_allreduce_schedule_with_op(&ring, 64, DataOp::Add);
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
            let request =
                Request { allreduce: algo, ..Request::new(Collective::Allreduce, 0, total) };
            let schedule = AdaptiveColl.plan(&comm, request, Sinks::default());
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
