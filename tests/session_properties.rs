//! Property tests of the typed session API: every collective's result must
//! equal [`verify::expected`], on random machines, placements and payloads.

use std::sync::Arc;

use proptest::prelude::*;

use pdac::collectives::{verify, Collective};
use pdac::hwtopo::{machines, BindingPolicy, Machine};
use pdac::mpi::{ReduceOp, Session};

fn arb_setup() -> impl Strategy<Value = (Machine, u64, usize)> {
    (1usize..=2, 1usize..=2, 1usize..=3, any::<u64>(), 2usize..=10).prop_map(
        |(b, n, c, seed, nranks)| {
            let m = machines::synthetic(b, n, c, true);
            let nranks = nranks.min(m.num_cores());
            (m, seed, nranks)
        },
    )
}

fn session(m: Machine, seed: u64, n: usize) -> Session {
    Session::new(Arc::new(m), BindingPolicy::Random { seed }, n).expect("session builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bcast_matches_root((m, seed, n) in arb_setup(), root_pick in any::<usize>(), len in 1usize..300) {
        let s = session(m, seed, n);
        let root = root_pick % n;
        let mut bufs: Vec<Vec<i64>> = (0..n).map(|r| vec![r as i64; len]).collect();
        let expect = bufs[root].clone();
        s.bcast(&mut bufs, root).unwrap();
        prop_assert!(bufs.iter().all(|b| b == &expect));
    }

    #[test]
    fn allreduce_sum_matches_serial((m, seed, n) in arb_setup(), data in prop::collection::vec(-1000i64..1000, 1..50)) {
        let s = session(m, seed, n);
        let contribs: Vec<Vec<i64>> = (0..n)
            .map(|r| data.iter().map(|&x| x + r as i64).collect())
            .collect();
        let serial = verify::expected(Collective::Allreduce, 0, &contribs, |a, b| a + b);
        prop_assert_eq!(s.allreduce(&contribs, ReduceOp::Sum).unwrap(), serial);
    }

    #[test]
    fn allgather_concatenates((m, seed, n) in arb_setup(), len in 1usize..40) {
        let s = session(m, seed, n);
        let contribs: Vec<Vec<u32>> =
            (0..n).map(|r| (0..len).map(|i| (r * len + i) as u32).collect()).collect();
        let expect = verify::expected(Collective::Allgather, 0, &contribs, |a, b| a + b);
        prop_assert_eq!(s.allgather(&contribs).unwrap(), expect);
    }

    #[test]
    fn reduce_scatter_matches_allreduce_blocks((m, seed, n) in arb_setup(), per in 1usize..8) {
        let s = session(m, seed, n);
        let len = n * per;
        let contribs: Vec<Vec<i64>> =
            (0..n).map(|r| (0..len).map(|i| (r * len + i) as i64).collect()).collect();
        let full = s.allreduce(&contribs, ReduceOp::Sum).unwrap();
        let blocks = s.reduce_scatter(&contribs, ReduceOp::Sum).unwrap();
        for (r, block) in blocks.iter().enumerate() {
            prop_assert_eq!(block, &full[0][r * per..(r + 1) * per].to_vec(), "rank {}", r);
        }
    }

    #[test]
    fn scatter_inverts_gather((m, seed, n) in arb_setup(), per in 1usize..8, root_pick in any::<usize>()) {
        let s = session(m, seed, n);
        let root = root_pick % n;
        let contribs: Vec<Vec<u8>> =
            (0..n).map(|r| (0..per).map(|i| (r * per + i) as u8).collect()).collect();
        let gathered = s.gather(&contribs, root).unwrap();
        let scattered = s.scatter(&gathered, root).unwrap();
        prop_assert_eq!(scattered, contribs);
    }

    #[test]
    fn alltoall_is_a_transpose((m, seed, n) in arb_setup()) {
        let s = session(m, seed, n);
        let bufs: Vec<Vec<u32>> =
            (0..n).map(|src| (0..n).map(|dst| (src * n + dst) as u32).collect()).collect();
        let transposed = verify::expected(Collective::Alltoall, 0, &bufs, |a, b| a + b);
        prop_assert_eq!(s.alltoall(&bufs).unwrap(), transposed);
    }

    #[test]
    fn f64_max_min_match_serial((m, seed, n) in arb_setup(), data in prop::collection::vec(-1e6f64..1e6, 1..20)) {
        let s = session(m, seed, n);
        let contribs: Vec<Vec<f64>> = (0..n)
            .map(|r| data.iter().map(|&x| x * (r as f64 + 1.0)).collect())
            .collect();
        for (op, combine) in [(ReduceOp::Max, f64::max as fn(_, _) -> _), (ReduceOp::Min, f64::min)] {
            let serial = verify::expected(Collective::Allreduce, 0, &contribs, combine);
            prop_assert_eq!(s.allreduce(&contribs, op).unwrap(), serial);
        }
    }
}
