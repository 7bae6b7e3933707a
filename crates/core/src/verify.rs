//! The semantic oracle: what each collective delivers, and the check that a
//! run delivered it.
//!
//! [`expected`] is the one definition of collective semantics: from the
//! per-rank inputs alone it computes what every rank receives, never from a
//! schedule. [`check`] compares an executor run against it, with every
//! rank's `Send` buffer filled by [`pattern`]; [`run`] executes a schedule
//! on the real-thread executor and checks it. Any topology bug — a missing
//! edge, a wrong pull offset, a mis-ordered pipeline — shows up as a byte
//! mismatch.

use pdac_mpisim::{ExecError, ExecResult, ThreadExecutor};
use pdac_simnet::{BufId, DataOp, Rank, Schedule};

use crate::adaptive::{Collective, Request};

/// The deterministic per-rank fill pattern used by all oracles.
pub fn pattern(rank: Rank, size: usize) -> Vec<u8> {
    (0..size).map(|i| (rank as u8).wrapping_mul(131).wrapping_add((i as u8).wrapping_mul(7))).collect()
}

/// Oracle failures.
#[derive(Debug)]
pub enum VerifyError {
    /// The executor failed before semantics could be checked.
    Exec(ExecError),
    /// A rank's buffer does not match the expected contents.
    Mismatch {
        /// Offending rank.
        rank: Rank,
        /// First differing byte offset.
        offset: usize,
        /// Expected byte.
        expected: u8,
        /// Observed byte.
        got: u8,
    },
    /// A rank's buffer is shorter than what the collective delivers.
    Short {
        /// Offending rank.
        rank: Rank,
        /// Observed buffer length.
        len: usize,
        /// Length the collective delivers.
        expected: usize,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Exec(e) => write!(f, "execution failed: {e}"),
            VerifyError::Mismatch { rank, offset, expected, got } => write!(
                f,
                "rank {rank}: byte {offset} is {got:#04x}, expected {expected:#04x}"
            ),
            VerifyError::Short { rank, len, expected } => {
                write!(f, "rank {rank}: buffer is {len} bytes, expected {expected}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<ExecError> for VerifyError {
    fn from(e: ExecError) -> Self {
        VerifyError::Exec(e)
    }
}

/// What each rank receives when `collective` runs over `inputs` (rank `r`
/// contributes `inputs[r]`), with `combine` as the reduction.
///
/// Entry `r` is empty where the collective delivers nothing to rank `r`:
/// the bcast root, the non-roots of reduce and gather, and every rank of
/// barrier. The block collectives (scatter, alltoall, reduce-scatter) split
/// each input into one equal block per rank.
pub fn expected<T: Copy>(
    collective: Collective,
    root: Rank,
    inputs: &[Vec<T>],
    combine: impl Fn(T, T) -> T,
) -> Vec<Vec<T>> {
    let n = inputs.len();
    let block_of = |data: &[T], r: usize| {
        let block = data.len() / n;
        data[r * block..(r + 1) * block].to_vec()
    };
    let concat = || -> Vec<T> { inputs.iter().flatten().copied().collect() };
    let reduced = || -> Vec<T> {
        (0..inputs[0].len())
            .map(|i| inputs[1..].iter().fold(inputs[0][i], |acc, v| combine(acc, v[i])))
            .collect()
    };
    let only_at = |r: usize, data: Vec<T>| {
        let mut out = vec![Vec::new(); n];
        out[r] = data;
        out
    };
    match collective {
        Collective::Bcast => {
            (0..n).map(|r| if r == root { Vec::new() } else { inputs[root].clone() }).collect()
        }
        Collective::Allgather => vec![concat(); n],
        Collective::Allreduce => vec![reduced(); n],
        Collective::Reduce => only_at(root, reduced()),
        Collective::ReduceScatter => {
            let reduced = reduced();
            (0..n).map(|r| block_of(&reduced, r)).collect()
        }
        Collective::Gather => only_at(root, concat()),
        Collective::Scatter => (0..n).map(|r| block_of(&inputs[root], r)).collect(),
        Collective::Alltoall => {
            (0..n).map(|r| inputs.iter().flat_map(|src| block_of(src, r)).collect()).collect()
        }
        Collective::Barrier => vec![Vec::new(); n],
    }
}

/// Checks every rank's `Recv` buffer of `res` against [`expected`], for a
/// run of `request` over `num_ranks` ranks whose `Send` buffers were
/// filled by [`pattern`].
///
/// The inputs are what the request declares: `bytes` per rank, or one
/// `bytes` block per rank for scatter, alltoall and reduce-scatter. The
/// combine is the byte-wise wrapping sum.
///
/// # Panics
/// Panics unless `request.op` is [`DataOp::Add`].
pub fn check(request: Request, num_ranks: usize, res: &ExecResult) -> Result<(), VerifyError> {
    assert_eq!(request.op, DataOp::Add, "the byte oracle combines by wrapping sum");
    let per_rank = match request.collective {
        Collective::Scatter | Collective::Alltoall | Collective::ReduceScatter => {
            num_ranks * request.bytes
        }
        _ => request.bytes,
    };
    // Only the root's input is read by bcast and scatter.
    let rooted = matches!(request.collective, Collective::Bcast | Collective::Scatter);
    let inputs: Vec<Vec<u8>> = (0..num_ranks)
        .map(|r| if rooted && r != request.root { Vec::new() } else { pattern(r, per_rank) })
        .collect();
    let want = expected(request.collective, request.root, &inputs, u8::wrapping_add);
    for (rank, want) in want.iter().enumerate() {
        let got = res.buffer(rank, BufId::Recv);
        if got.len() < want.len() {
            return Err(VerifyError::Short { rank, len: got.len(), expected: want.len() });
        }
        if got[..want.len()] != want[..] {
            let offset = want.iter().zip(got).position(|(e, g)| e != g).expect("a byte differs");
            let (expected, got) = (want[offset], got[offset]);
            return Err(VerifyError::Mismatch { rank, offset, expected, got });
        }
    }
    Ok(())
}

/// Executes `schedule` on a fresh [`ThreadExecutor`] over [`pattern`] and
/// [`check`]s the result against `request`.
pub fn run(request: Request, schedule: &Schedule) -> Result<(), VerifyError> {
    let res = ThreadExecutor::new().run(schedule, pattern)?;
    check(request, schedule.num_ranks, &res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::{AdaptiveColl, Sinks};
    use crate::allgather_ring::Ring;
    use crate::bcast_tree::build_bcast_tree;
    use crate::sched::{
        allgather_schedule, allreduce_schedule, bcast_schedule, gather_schedule, reduce_schedule,
        scatter_schedule, SchedConfig,
    };
    use pdac_hwtopo::{machines, BindingPolicy, DistanceMatrix};
    use pdac_mpisim::Communicator;
    use pdac_simnet::OpKind;
    use std::sync::Arc;

    fn matrix(policy: BindingPolicy, n: usize) -> DistanceMatrix {
        let ig = machines::ig();
        let b = policy.bind(&ig, n).unwrap();
        DistanceMatrix::for_binding(&ig, &b)
    }

    #[test]
    fn distance_aware_bcast_is_correct_under_every_binding() {
        for policy in [
            BindingPolicy::Contiguous,
            BindingPolicy::CrossSocket,
            BindingPolicy::Random { seed: 99 },
        ] {
            let d = matrix(policy, 48);
            for root in [0, 31] {
                let t = build_bcast_tree(&d, root);
                let s = bcast_schedule(&t, 300_000, &SchedConfig::default());
                run(Request::new(Collective::Bcast, root, 300_000), &s).unwrap();
            }
        }
    }

    #[test]
    fn distance_aware_allgather_is_correct_under_every_binding() {
        for policy in [
            BindingPolicy::Contiguous,
            BindingPolicy::CrossSocket,
            BindingPolicy::Random { seed: 7 },
        ] {
            let d = matrix(policy, 48);
            let s = allgather_schedule(&Ring::build(&d), 5000);
            run(Request::new(Collective::Allgather, 0, 5000), &s).unwrap();
        }
    }

    #[test]
    fn reduce_and_allreduce_are_correct() {
        let d = matrix(BindingPolicy::Random { seed: 13 }, 24);
        let t = build_bcast_tree(&d, 7);
        run(Request::new(Collective::Reduce, 7, 10_000), &reduce_schedule(&t, 10_000)).unwrap();
        let s = allreduce_schedule(&t, 10_000, &SchedConfig::default());
        run(Request::new(Collective::Allreduce, 7, 10_000), &s).unwrap();
    }

    #[test]
    fn gather_and_scatter_are_correct() {
        run(Request::new(Collective::Gather, 5, 2000), &gather_schedule(5, 16, 2000)).unwrap();
        run(Request::new(Collective::Scatter, 5, 2000), &scatter_schedule(5, 16, 2000)).unwrap();
    }

    /// Swaps one offset between the last copy and the latest earlier copy
    /// whose offset differs: `dst` picks the destination offsets, else the
    /// source offsets.
    fn swap_offsets(s: &mut Schedule, dst: bool) {
        let offset = |kind: &OpKind| match *kind {
            OpKind::Copy { dst_off, src_off, .. } => Some(if dst { dst_off } else { src_off }),
            _ => None,
        };
        let copies: Vec<(usize, usize)> =
            s.ops.iter().enumerate().filter_map(|(id, o)| Some((id, offset(&o.kind)?))).collect();
        let &(b, off_b) = copies.last().unwrap();
        let &(a, off_a) = copies.iter().rev().find(|&&(_, off)| off != off_b).unwrap();
        for (id, off) in [(a, off_b), (b, off_a)] {
            if let OpKind::Copy { dst_off, src_off, .. } = &mut s.ops[id].kind {
                *(if dst { dst_off } else { src_off }) = off;
            }
        }
    }

    #[test]
    fn oracle_catches_broken_schedules() {
        let ig = Arc::new(machines::ig());
        let binding = BindingPolicy::Contiguous.bind(&ig, 6).unwrap();
        let comm = Communicator::world(ig, binding);
        // Every scatter copy lands at offset 0 of its receiver, so its
        // broken twin swaps where two copies read from instead.
        for (collective, dst) in [
            (Collective::Allgather, true),
            (Collective::Alltoall, true),
            (Collective::ReduceScatter, true),
            (Collective::Gather, true),
            (Collective::Scatter, false),
        ] {
            let request = Request::new(collective, 2, 100);
            let mut s = AdaptiveColl::default().plan(&comm, request, Sinks::default());
            run(request, &s).unwrap_or_else(|e| panic!("{collective:?}: {e}"));
            swap_offsets(&mut s, dst);
            // Either validation (write overlap) or the byte check must fail.
            assert!(run(request, &s).is_err(), "{collective:?}: the broken schedule passed");
        }
    }

    #[test]
    fn expected_data_by_collective() {
        let inputs = vec![vec![1u8, 2], vec![10, 20], vec![100, 200]];
        let sum = |c| expected(c, 1, &inputs, u8::wrapping_add);
        assert_eq!(sum(Collective::Bcast), [vec![10, 20], vec![], vec![10, 20]]);
        assert_eq!(sum(Collective::Allreduce), vec![vec![111u8, 222]; 3]);
        assert_eq!(sum(Collective::Reduce), [vec![], vec![111, 222], vec![]]);
        assert_eq!(sum(Collective::Gather)[1], [1, 2, 10, 20, 100, 200]);
        assert_eq!(sum(Collective::Barrier), vec![Vec::<u8>::new(); 3]);
        let inputs: Vec<Vec<u8>> = (0..3).map(|r| (0..6).map(|i| 10 * r + i).collect()).collect();
        let sum = |c| expected(c, 1, &inputs, u8::wrapping_add);
        assert_eq!(sum(Collective::Scatter), [vec![10, 11], vec![12, 13], vec![14, 15]]);
        assert_eq!(sum(Collective::Alltoall)[2], [4, 5, 14, 15, 24, 25]);
        assert_eq!(sum(Collective::ReduceScatter)[0], [30, 33]);
    }
}
