//! All nine collectives through [`Session`], on byte, integer and float
//! elements, checked against [`verify::expected`]: what every rank must
//! hold afterwards is computed from the inputs alone, never from a schedule.

use std::sync::Arc;

use pdac_core::{verify, Collective};
use pdac_hwtopo::{machines, BindingPolicy, Machine};
use pdac_mpi::{ReduceOp, Scalar, Session};
use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};

/// `data` at `root`, nothing anywhere else.
fn only_at<T: Clone>(root: usize, n: usize, data: &[T]) -> Vec<Vec<T>> {
    (0..n)
        .map(|r| if r == root { data.to_vec() } else { Vec::new() })
        .collect()
}

/// The same collective through the session, in the shape of
/// [`verify::expected`].
fn through_session<T: Scalar>(
    session: &Session,
    coll: Collective,
    inputs: &[Vec<T>],
    root: usize,
    op: ReduceOp,
) -> Vec<Vec<T>> {
    let n = session.size();
    match coll {
        Collective::Bcast => {
            let mut bufs = inputs.to_vec();
            session.bcast(&mut bufs, root).unwrap();
            assert!(bufs[root] == inputs[root], "bcast changed the root's buffer");
            bufs[root].clear();
            bufs
        }
        Collective::Allgather => session.allgather(inputs).unwrap(),
        Collective::Allreduce => session.allreduce(inputs, op).unwrap(),
        Collective::Reduce => only_at(root, n, &session.reduce(inputs, op, root).unwrap()),
        Collective::ReduceScatter => session.reduce_scatter(inputs, op).unwrap(),
        Collective::Gather => only_at(root, n, &session.gather(inputs, root).unwrap()),
        Collective::Scatter => session.scatter(&inputs[root], root).unwrap(),
        Collective::Alltoall => session.alltoall(inputs).unwrap(),
        Collective::Barrier => {
            session.barrier().unwrap();
            vec![Vec::new(); n]
        }
    }
}

/// Runs every collective on `bytes`-per-rank inputs drawn by `element` and
/// compares each with [`verify::expected`]. The element count is rounded
/// down to a multiple of the rank count so the block collectives accept it.
fn check_all<T: Scalar>(
    session: &Session,
    what: &str,
    bytes: usize,
    mut element: impl FnMut(usize, usize) -> T,
    op: ReduceOp,
    combine: impl Fn(T, T) -> T + Copy,
) {
    let n = session.size();
    let len = bytes / T::WIDTH / n * n;
    let inputs: Vec<Vec<T>> = (0..n)
        .map(|r| (0..len).map(|i| element(r, i)).collect())
        .collect();
    for (k, coll) in Collective::ALL.into_iter().enumerate() {
        let root = (bytes + 5 * k) % n;
        let got = through_session(session, coll, &inputs, root, op);
        let want = verify::expected(coll, root, &inputs, combine);
        for r in 0..n {
            assert!(
                got[r] == want[r],
                "{what}: {} of {bytes} B, root {root}: rank {r} holds the wrong data",
                coll.label()
            );
        }
    }
}

fn sessions() -> Vec<(String, Session)> {
    let machines: [(&str, Machine, usize); 2] =
        [("ig", machines::ig(), 12), ("zoot", machines::zoot(), 16)];
    let mut out = Vec::new();
    for (name, machine, n) in machines {
        let machine = Arc::new(machine);
        for policy in [BindingPolicy::Contiguous, BindingPolicy::CrossSocket] {
            let what = format!("{name}x{n}/{policy:?}");
            out.push((what, Session::new(machine.clone(), policy, n).unwrap()));
        }
    }
    out
}

#[test]
fn nine_collectives_match_the_expected_data() {
    for (what, session) in sessions() {
        let n = session.size();
        for bytes in [1 << 10, 256 << 10] {
            let len = bytes / n * n;
            let patterns: Vec<Vec<u8>> = (0..n).map(|r| verify::pattern(r, len)).collect();
            check_all::<u8>(
                &session,
                &what,
                bytes,
                |r, i| patterns[r][i],
                ReduceOp::Sum,
                u8::wrapping_add,
            );
            let mut rng = StdRng::seed_from_u64(20110926 ^ bytes as u64);
            check_all::<i64>(
                &session,
                &what,
                bytes,
                |_, _| rng.next_u64() as i64,
                ReduceOp::Sum,
                i64::wrapping_add,
            );
            // Finite doubles of mixed sign and magnitude: max is exact, so
            // the tree's combine order cannot show.
            check_all::<f64>(
                &session,
                &what,
                bytes,
                |_, _| (rng.gen_f64() - 0.5) * 1e12,
                ReduceOp::Max,
                f64::max,
            );
        }
    }
}
