//! The one oracle of the benchmark: what every rank must hold after a
//! collective, computed from the inputs alone.

use pdac_mpi::ReduceOp;

/// The nine collectives of `pdac_mpi::Session`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Collective {
    Bcast { root: usize },
    Reduce { root: usize, op: ReduceOp },
    Allreduce { op: ReduceOp },
    Allgather,
    Gather { root: usize },
    Scatter { root: usize },
    ReduceScatter { op: ReduceOp },
    Alltoall,
    Barrier,
}

/// Element types the oracle can combine.
pub trait Elem: Copy + PartialEq + std::fmt::Debug {
    fn combine(op: ReduceOp, a: Self, b: Self) -> Self;

    /// A payload value below 1000 made from random bits: small enough that
    /// sums over any number of ranks the workloads use are exact in `f64`.
    fn small(bits: u64) -> Self;
}

macro_rules! impl_elem_int {
    ($($t:ty),*) => {$(
        impl Elem for $t {
            fn combine(op: ReduceOp, a: Self, b: Self) -> Self {
                match op {
                    ReduceOp::Sum => a.wrapping_add(b),
                    ReduceOp::Max => a.max(b),
                    ReduceOp::Min => a.min(b),
                    ReduceOp::Prod => a.wrapping_mul(b),
                    ReduceOp::Bor => a | b,
                }
            }

            fn small(bits: u64) -> Self {
                (bits % 1000) as $t
            }
        }
    )*};
}
impl_elem_int!(i64, u64, u32, i32, u8);

impl Elem for f64 {
    fn combine(op: ReduceOp, a: Self, b: Self) -> Self {
        match op {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Prod => a * b,
            ReduceOp::Bor => panic!("bitwise OR is not defined on f64"),
        }
    }

    fn small(bits: u64) -> Self {
        (bits % 1000) as f64
    }
}

fn reduce_all<T: Elem>(op: ReduceOp, inputs: &[Vec<T>]) -> Vec<T> {
    let mut acc = inputs[0].clone();
    for contrib in &inputs[1..] {
        for (a, &b) in acc.iter_mut().zip(contrib) {
            *a = T::combine(op, *a, b);
        }
    }
    acc
}

/// What the ranks must hold after a collective.
#[derive(Debug, Clone, PartialEq)]
pub enum Expected<T> {
    /// Every rank holds the same buffer.
    Everyone(Vec<T>),
    /// One rank holds a result; the others receive nothing.
    Only { rank: usize, data: Vec<T> },
    /// Each rank holds its own buffer.
    PerRank(Vec<Vec<T>>),
    /// No rank receives data.
    Nothing,
}

impl<T> Expected<T> {
    /// The buffer `rank` must hold.
    pub fn of_rank(&self, rank: usize) -> &[T] {
        match self {
            Expected::Everyone(data) => data,
            Expected::Only { rank: holder, data } if *holder == rank => data,
            Expected::PerRank(per_rank) => &per_rank[rank],
            Expected::Only { .. } | Expected::Nothing => &[],
        }
    }
}

/// What every rank must hold after `collective` ran on `inputs`
/// (`inputs[rank]` is that rank's contribution). Scatter reads only
/// `inputs[root]`.
///
/// Floating-point sums are compared exactly, so callers feed values whose
/// sums are exact in any order (small integers stored as `f64`).
pub fn expected<T: Elem>(collective: Collective, inputs: &[Vec<T>]) -> Expected<T> {
    let n = inputs.len();
    let blocks = |data: &[T]| {
        data.chunks((data.len() / n).max(1))
            .take(n)
            .map(<[T]>::to_vec)
            .collect()
    };
    match collective {
        Collective::Bcast { root } => Expected::Everyone(inputs[root].clone()),
        Collective::Reduce { root, op } => Expected::Only {
            rank: root,
            data: reduce_all(op, inputs),
        },
        Collective::Allreduce { op } => Expected::Everyone(reduce_all(op, inputs)),
        Collective::Allgather => Expected::Everyone(inputs.concat()),
        Collective::Gather { root } => Expected::Only {
            rank: root,
            data: inputs.concat(),
        },
        Collective::Scatter { root } => Expected::PerRank(blocks(&inputs[root])),
        Collective::ReduceScatter { op } => Expected::PerRank(blocks(&reduce_all(op, inputs))),
        Collective::Alltoall => {
            let block = inputs[0].len() / n;
            Expected::PerRank(
                (0..n)
                    .map(|dst| {
                        inputs
                            .iter()
                            .flat_map(|src| src[dst * block..(dst + 1) * block].iter().copied())
                            .collect()
                    })
                    .collect(),
            )
        }
        Collective::Barrier => Expected::Nothing,
    }
}

/// Compares what the ranks hold (`got[rank]`) against the oracle; names the
/// first rank and element that differ.
pub fn check<T: Elem>(got: &[Vec<T>], want: &Expected<T>) -> Result<(), String> {
    for (rank, g) in got.iter().enumerate() {
        let w = want.of_rank(rank);
        if g[..] != *w {
            let at = g.iter().zip(w).position(|(a, b)| a != b);
            return Err(match at {
                Some(i) => format!(
                    "rank {rank}: element {i} is {:?}, expected {:?}",
                    g[i], w[i]
                ),
                None => format!("rank {rank}: {} elements, expected {}", g.len(), w.len()),
            });
        }
    }
    Ok(())
}

/// Checks a direct-executor bcast run on `pdac_core::verify::pattern`
/// send buffers: every non-root rank's receive buffer is the root's pattern.
pub fn check_pattern_bcast(
    result: &pdac_mpisim::ExecResult,
    ranks: usize,
    root: usize,
    bytes: usize,
) -> Result<(), String> {
    let want = pdac_core::verify::pattern(root, bytes);
    for r in (0..ranks).filter(|&r| r != root) {
        if result.buffer(r, pdac_simnet::BufId::Recv).get(..bytes) != Some(&want[..]) {
            return Err(format!(
                "rank {r}: receive buffer is not the root's pattern"
            ));
        }
    }
    Ok(())
}

/// Checks a direct-executor allgather run on pattern send buffers: every
/// rank holds block `i` = rank `i`'s pattern.
pub fn check_pattern_allgather(
    result: &pdac_mpisim::ExecResult,
    ranks: usize,
    block: usize,
) -> Result<(), String> {
    let want: Vec<u8> = (0..ranks)
        .flat_map(|r| pdac_core::verify::pattern(r, block))
        .collect();
    for r in 0..ranks {
        if result.buffer(r, pdac_simnet::BufId::Recv).get(..want.len()) != Some(&want[..]) {
            return Err(format!(
                "rank {r}: receive buffer is not the concatenated patterns"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs() -> Vec<Vec<i64>> {
        // 3 ranks, 6 elements each: rank r holds r*10 + i.
        (0..3)
            .map(|r| (0..6).map(|i| r * 10 + i).collect())
            .collect()
    }

    #[test]
    fn rooted_and_rootless_collectives() {
        let x = inputs();
        assert_eq!(
            expected(Collective::Bcast { root: 2 }, &x),
            Expected::Everyone(x[2].clone())
        );
        let sum: Vec<i64> = (0..6).map(|i| 30 + 3 * i).collect();
        let reduce = expected(
            Collective::Reduce {
                root: 1,
                op: ReduceOp::Sum,
            },
            &x,
        );
        assert_eq!(
            reduce,
            Expected::Only {
                rank: 1,
                data: sum.clone()
            }
        );
        assert_eq!((reduce.of_rank(0), reduce.of_rank(1)), (&[][..], &sum[..]));
        assert_eq!(
            expected(Collective::Allreduce { op: ReduceOp::Sum }, &x),
            Expected::Everyone(sum)
        );
        assert_eq!(
            expected(Collective::Allreduce { op: ReduceOp::Max }, &x),
            Expected::Everyone(x[2].clone())
        );
        assert_eq!(
            expected(Collective::Allgather, &x),
            Expected::Everyone(x.concat())
        );
        assert_eq!(
            expected(Collective::Gather { root: 0 }, &x),
            Expected::Only {
                rank: 0,
                data: x.concat()
            }
        );
        assert_eq!(expected(Collective::Barrier, &x), Expected::Nothing);
    }

    #[test]
    fn block_collectives() {
        let x = inputs();
        assert_eq!(
            expected(Collective::Scatter { root: 1 }, &x),
            Expected::PerRank(vec![vec![10, 11], vec![12, 13], vec![14, 15]])
        );
        assert_eq!(
            expected(Collective::ReduceScatter { op: ReduceOp::Sum }, &x),
            Expected::PerRank(vec![vec![30, 33], vec![36, 39], vec![42, 45]])
        );
        assert_eq!(
            expected(Collective::Alltoall, &x),
            Expected::PerRank(vec![
                vec![0, 1, 10, 11, 20, 21],
                vec![2, 3, 12, 13, 22, 23],
                vec![4, 5, 14, 15, 24, 25]
            ])
        );
    }

    #[test]
    fn check_names_the_first_difference() {
        let want = Expected::PerRank(vec![vec![1u32, 2], vec![3, 4]]);
        assert!(check(&[vec![1, 2], vec![3, 4]], &want).is_ok());
        let err = check(&[vec![1, 2], vec![3, 5]], &want).unwrap_err();
        assert!(err.contains("rank 1") && err.contains("element 1"), "{err}");
        assert!(check(&[vec![1, 2], vec![3]], &want)
            .unwrap_err()
            .contains("1 elements"));
        // A rank that should receive nothing must hold nothing.
        let only = Expected::Only {
            rank: 0,
            data: vec![7u32],
        };
        assert!(check(&[vec![7], vec![]], &only).is_ok());
        assert!(check(&[vec![7], vec![7]], &only).is_err());
        assert!(check::<u8>(&[vec![], vec![]], &Expected::Nothing).is_ok());
    }
}
