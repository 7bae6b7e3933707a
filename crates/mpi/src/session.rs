//! The typed session API.

use std::cell::Cell;
use std::sync::Arc;

use pdac_core::adaptive::{AdaptiveColl, Collective, Request, Sinks};
use pdac_core::framework::CollFramework;
use pdac_core::topocache::TopoCache;
use pdac_hwtopo::{BindingPolicy, Machine, TopoError};
use pdac_mpisim::{Communicator, ExecError, KnemStats, ThreadExecutor, TransportKind};
use pdac_simnet::{BufId, DataOp, Rank, Schedule};

use crate::scalar::{Scalar, ScalarKind};

/// Typed reduction operators (the MPI_Op subset with lane-wise support).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum (f64, i64; u8 wraps).
    Sum,
    /// Element-wise maximum (f64, u64).
    Max,
    /// Element-wise minimum (f64).
    Min,
    /// Element-wise product (f64).
    Prod,
    /// Bitwise OR (u8).
    Bor,
}

/// Session-level failures.
#[derive(Debug)]
pub enum MpiError {
    /// Placement or machine construction failed.
    Topo(TopoError),
    /// Thread execution failed.
    Exec(ExecError),
    /// Caller-provided buffers have inconsistent shapes.
    Shape(String),
    /// The reduction operator is not supported for the element type.
    UnsupportedOp {
        /// Requested operator.
        op: ReduceOp,
        /// Element kind it was requested for.
        kind: ScalarKind,
    },
}

impl std::fmt::Display for MpiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpiError::Topo(e) => write!(f, "topology error: {e}"),
            MpiError::Exec(e) => write!(f, "execution error: {e}"),
            MpiError::Shape(s) => write!(f, "shape error: {s}"),
            MpiError::UnsupportedOp { op, kind } => {
                write!(f, "{op:?} is not supported for {kind:?} elements")
            }
        }
    }
}

impl std::error::Error for MpiError {}

impl From<TopoError> for MpiError {
    fn from(e: TopoError) -> Self {
        MpiError::Topo(e)
    }
}

impl From<ExecError> for MpiError {
    fn from(e: ExecError) -> Self {
        MpiError::Exec(e)
    }
}

/// Maps a typed operator onto a lane-wise [`DataOp`].
fn data_op_for(op: ReduceOp, kind: ScalarKind) -> Result<DataOp, MpiError> {
    use ScalarKind::*;
    match (op, kind) {
        (ReduceOp::Sum, F64) => Ok(DataOp::SumF64),
        (ReduceOp::Max, F64) => Ok(DataOp::MaxF64),
        (ReduceOp::Min, F64) => Ok(DataOp::MinF64),
        (ReduceOp::Prod, F64) => Ok(DataOp::ProdF64),
        (ReduceOp::Sum, I64) => Ok(DataOp::SumI64),
        (ReduceOp::Max, U64) => Ok(DataOp::MaxU64),
        (ReduceOp::Sum, U8) => Ok(DataOp::Add),
        (ReduceOp::Bor, U8) => Ok(DataOp::BorU8),
        (op, kind) => Err(MpiError::UnsupportedOp { op, kind }),
    }
}

/// An MPI-style session: a communicator over a bound machine plus the
/// distance-aware collective stack, executing on real threads.
///
/// The caller holds all ranks' buffers at once (`bufs[rank]`) — SPMD by
/// proxy, the natural interface for a simulation-backed reproduction.
///
/// Everything a collective call reuses is built once, here, and lives as
/// long as the session: the executor with its parked helper threads
/// (created by the first collective, joined on drop) and its KNEM device,
/// and the topology cache every plan goes through. A call is plan → lower →
/// step the rank cursors on the caller and the woken helpers → collect.
/// The callers' vectors are the run's buffers: inputs are lent read only
/// as the send buffers and read in place, and the vectors a call returns
/// (allocated zeroed) or overwrites are lent as the receive buffers, so
/// results land where the caller reads them, with no pack or unpack.
/// Each worker stages through one buffer, taken from a per-call pool, not
/// a session one: keeping it cost 10 MiB (5 %) of peak RSS on the
/// bandwidth-bound benchmark workload and bought no measurable time.
pub struct Session {
    comm: Communicator,
    cache: TopoCache,
    executor: ThreadExecutor,
    last_knem: Cell<KnemStats>,
}

impl Session {
    /// Creates a session binding `nranks` ranks to `machine` with `policy`.
    pub fn new(
        machine: Arc<Machine>,
        policy: BindingPolicy,
        nranks: usize,
    ) -> Result<Self, MpiError> {
        let binding = policy.bind(&machine, nranks)?;
        Ok(Session {
            comm: Communicator::world(machine, binding),
            cache: TopoCache::new(),
            executor: ThreadExecutor::with_transport(TransportKind::Knem.create(None)),
            last_knem: Cell::new(KnemStats::default()),
        })
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// The underlying communicator.
    pub fn comm(&self) -> &Communicator {
        &self.comm
    }

    /// KNEM device counters of the most recent collective alone (the
    /// session's device is shared by all of them; this is not a running
    /// total).
    pub fn last_knem_stats(&self) -> KnemStats {
        self.last_knem.get()
    }

    /// The schedule this session runs for `request` (exposed for
    /// inspection): [`CollFramework::plan`] through the session's topology
    /// cache.
    pub fn plan(&self, request: Request) -> Schedule {
        CollFramework.plan(&self.comm, request, Sinks::cached(&self.cache))
    }

    /// Runs a schedule over the callers' memory, recording device stats:
    /// each `(rank, bytes)` of `inputs` is lent read only as that rank's
    /// send buffer, each of `outputs` as its receive buffer, written in
    /// place. A lend is exactly the size the schedule declares.
    fn execute<'a>(
        &self,
        schedule: &Schedule,
        inputs: impl IntoIterator<Item = (Rank, &'a [u8])>,
        outputs: impl IntoIterator<Item = (Rank, &'a mut [u8])>,
    ) -> Result<(), MpiError> {
        let read = inputs.into_iter().map(|(rank, bytes)| ((rank, BufId::Send), bytes));
        let write = outputs.into_iter().map(|(rank, bytes)| ((rank, BufId::Recv), bytes));
        let result = self.executor.run_lent(schedule, read, write)?;
        self.last_knem.set(result.knem_stats);
        Ok(())
    }

    fn check_uniform<T>(&self, bufs: &[Vec<T>], what: &str) -> Result<usize, MpiError> {
        if bufs.len() != self.size() {
            return Err(MpiError::Shape(format!(
                "{what}: {} buffers for {} ranks",
                bufs.len(),
                self.size()
            )));
        }
        let len = bufs.first().map(Vec::len).unwrap_or(0);
        if bufs.iter().any(|b| b.len() != len) {
            return Err(MpiError::Shape(format!("{what}: buffers have unequal lengths")));
        }
        Ok(len)
    }

    fn check_root(&self, root: usize, what: &str) -> Result<(), MpiError> {
        if root >= self.size() {
            return Err(MpiError::Shape(format!(
                "{what}: root {root} out of range for {} ranks",
                self.size()
            )));
        }
        Ok(())
    }

    /// Broadcast: after the call every rank's buffer equals the root's.
    pub fn bcast<T: Scalar>(&self, bufs: &mut [Vec<T>], root: usize) -> Result<(), MpiError> {
        let len = self.check_uniform(bufs, "bcast")?;
        self.check_root(root, "bcast")?;
        if len == 0 || self.size() == 1 {
            let src = bufs[root].clone();
            for b in bufs.iter_mut() {
                b.clone_from(&src);
            }
            return Ok(());
        }
        let bytes = len * T::WIDTH;
        let schedule = self.plan(Request::new(Collective::Bcast, root, bytes));
        // The root's vector is its send buffer, every other rank's its
        // receive buffer.
        let (below, rest) = bufs.split_at_mut(root);
        let (src, above) = rest.split_first_mut().expect("the root is a rank");
        let others = below.iter_mut().enumerate().chain((root + 1..).zip(above));
        self.execute(&schedule, [(root, T::bytes(src))], others.map(|(r, b)| (r, T::bytes_mut(b))))
    }

    /// Allgather: every rank contributes its vector; every rank receives
    /// the concatenation in rank order.
    pub fn allgather<T: Scalar>(&self, contribs: &[Vec<T>]) -> Result<Vec<Vec<T>>, MpiError> {
        let len = self.check_uniform(contribs, "allgather")?;
        if len == 0 {
            return Ok(vec![Vec::new(); self.size()]);
        }
        let block = len * T::WIDTH;
        let schedule = self.plan(Request::new(Collective::Allgather, 0, block));
        let mut out = zeroed(self.size(), len * self.size());
        self.execute(&schedule, lend(contribs), lend_mut(&mut out))?;
        Ok(out)
    }

    /// Reduce: the root receives the element-wise combination of every
    /// rank's contribution.
    pub fn reduce<T: Scalar>(
        &self,
        contribs: &[Vec<T>],
        op: ReduceOp,
        root: usize,
    ) -> Result<Vec<T>, MpiError> {
        let len = self.check_uniform(contribs, "reduce")?;
        self.check_root(root, "reduce")?;
        let data_op = data_op_for(op, T::KIND)?;
        if len == 0 {
            return Ok(Vec::new());
        }
        let bytes = len * T::WIDTH;
        let request = Request { op: data_op, ..Request::new(Collective::Reduce, root, bytes) };
        let mut out = vec![T::default(); len];
        self.execute(&self.plan(request), lend(contribs), [(root, T::bytes_mut(&mut out))])?;
        Ok(out)
    }

    /// Allreduce: every rank receives the combination. Payloads that split
    /// evenly over the ranks (and are worth the traffic) use the
    /// bandwidth-optimal ring; everything else uses the tree.
    pub fn allreduce<T: Scalar>(
        &self,
        contribs: &[Vec<T>],
        op: ReduceOp,
    ) -> Result<Vec<Vec<T>>, MpiError> {
        let len = self.check_uniform(contribs, "allreduce")?;
        let data_op = data_op_for(op, T::KIND)?;
        if len == 0 {
            return Ok(vec![Vec::new(); self.size()]);
        }
        let bytes = len * T::WIDTH;
        let request = Request {
            op: data_op,
            allreduce: AdaptiveColl::allreduce_algorithm_choice(&self.comm, bytes, data_op),
            ..Request::new(Collective::Allreduce, 0, bytes)
        };
        let mut out = zeroed(self.size(), len);
        self.execute(&self.plan(request), lend(contribs), lend_mut(&mut out))?;
        Ok(out)
    }

    /// Reduce-scatter: contributions of `n * block` elements; rank `r`
    /// receives the reduced block `r`.
    pub fn reduce_scatter<T: Scalar>(
        &self,
        contribs: &[Vec<T>],
        op: ReduceOp,
    ) -> Result<Vec<Vec<T>>, MpiError> {
        let len = self.check_uniform(contribs, "reduce_scatter")?;
        let data_op = data_op_for(op, T::KIND)?;
        let n = self.size();
        if len % n != 0 {
            return Err(MpiError::Shape(format!(
                "reduce_scatter: {len} elements do not split over {n} ranks"
            )));
        }
        let block = (len / n) * T::WIDTH;
        if block == 0 {
            return Ok(vec![Vec::new(); n]);
        }
        if !block.is_multiple_of(data_op.lane_bytes()) {
            return Err(MpiError::Shape("reduce_scatter: block not lane-aligned".into()));
        }
        let request = Request { op: data_op, ..Request::new(Collective::ReduceScatter, 0, block) };
        let mut out = zeroed(n, len / n);
        self.execute(&self.plan(request), lend(contribs), lend_mut(&mut out))?;
        Ok(out)
    }

    /// Gather: the root receives every rank's contribution, concatenated.
    pub fn gather<T: Scalar>(&self, contribs: &[Vec<T>], root: usize) -> Result<Vec<T>, MpiError> {
        let len = self.check_uniform(contribs, "gather")?;
        self.check_root(root, "gather")?;
        if len == 0 {
            return Ok(Vec::new());
        }
        let block = len * T::WIDTH;
        let schedule = self.plan(Request::new(Collective::Gather, root, block));
        let mut out = vec![T::default(); len * self.size()];
        self.execute(&schedule, lend(contribs), [(root, T::bytes_mut(&mut out))])?;
        Ok(out)
    }

    /// Scatter: the root's `n * block` elements are split; rank `r`
    /// receives block `r`.
    pub fn scatter<T: Scalar>(&self, data: &[T], root: usize) -> Result<Vec<Vec<T>>, MpiError> {
        let n = self.size();
        self.check_root(root, "scatter")?;
        if !data.len().is_multiple_of(n) {
            return Err(MpiError::Shape(format!(
                "scatter: {} elements do not split over {n} ranks",
                data.len()
            )));
        }
        let block = (data.len() / n) * T::WIDTH;
        if block == 0 {
            return Ok(vec![Vec::new(); n]);
        }
        let schedule = self.plan(Request::new(Collective::Scatter, root, block));
        let mut out = zeroed(n, data.len() / n);
        self.execute(&schedule, [(root, T::bytes(data))], lend_mut(&mut out))?;
        Ok(out)
    }

    /// Alltoall: each rank's `n * block` elements are personalized; rank
    /// `r` receives block `r` from everyone, in rank order.
    pub fn alltoall<T: Scalar>(&self, bufs: &[Vec<T>]) -> Result<Vec<Vec<T>>, MpiError> {
        let len = self.check_uniform(bufs, "alltoall")?;
        let n = self.size();
        if len % n != 0 {
            return Err(MpiError::Shape(format!(
                "alltoall: {len} elements do not split over {n} ranks"
            )));
        }
        let block = (len / n) * T::WIDTH;
        if block == 0 {
            return Ok(vec![Vec::new(); n]);
        }
        let schedule = self.plan(Request::new(Collective::Alltoall, 0, block));
        let mut out = zeroed(n, len);
        self.execute(&schedule, lend(bufs), lend_mut(&mut out))?;
        Ok(out)
    }

    /// Barrier: completes once every rank has entered (notification
    /// gather-up/release-down over the distance-aware tree).
    pub fn barrier(&self) -> Result<(), MpiError> {
        if self.size() == 1 {
            return Ok(());
        }
        self.execute(&self.plan(Request::new(Collective::Barrier, 0, 0)), [], [])
    }
}

/// Every rank's vector, lent read only.
fn lend<T: Scalar>(bufs: &[Vec<T>]) -> impl Iterator<Item = (Rank, &[u8])> {
    bufs.iter().map(|b| T::bytes(b)).enumerate()
}

/// Every rank's vector, lent writable.
fn lend_mut<T: Scalar>(bufs: &mut [Vec<T>]) -> impl Iterator<Item = (Rank, &mut [u8])> {
    bufs.iter_mut().map(|b| T::bytes_mut(b)).enumerate()
}

/// `n` vectors of `len` zero elements: what a receive buffer starts as.
fn zeroed<T: Scalar>(n: usize, len: usize) -> Vec<Vec<T>> {
    (0..n).map(|_| vec![T::default(); len]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdac_hwtopo::machines;

    fn session(n: usize) -> Session {
        Session::new(Arc::new(machines::ig()), BindingPolicy::CrossSocket, n).unwrap()
    }

    #[test]
    fn bcast_scalars() {
        let s = session(12);
        let mut bufs: Vec<Vec<f64>> = (0..12).map(|r| vec![r as f64; 100]).collect();
        s.bcast(&mut bufs, 5).unwrap();
        assert!(bufs.iter().all(|b| b == &vec![5.0; 100]));
    }

    #[test]
    fn allreduce_sum_and_max() {
        let s = session(8);
        let contribs: Vec<Vec<f64>> = (0..8).map(|r| vec![r as f64, -(r as f64)]).collect();
        let sums = s.allreduce(&contribs, ReduceOp::Sum).unwrap();
        assert!(sums.iter().all(|v| v == &vec![28.0, -28.0]));
        let maxs = s.allreduce(&contribs, ReduceOp::Max).unwrap();
        assert!(maxs.iter().all(|v| v == &vec![7.0, 0.0]));
    }

    #[test]
    fn allreduce_uses_ring_for_large_divisible_payloads() {
        let s = session(8);
        // 8 * 8192 f64 = 512KB: divisible and large -> ring path.
        let contribs: Vec<Vec<f64>> = (0..8).map(|r| vec![r as f64; 8 * 8192]).collect();
        let sums = s.allreduce(&contribs, ReduceOp::Sum).unwrap();
        assert!(sums.iter().all(|v| v.iter().all(|&x| x == 28.0)));
    }

    #[test]
    fn reduce_min_prod_i64() {
        let s = session(6);
        let contribs: Vec<Vec<f64>> = (0..6).map(|r| vec![(r + 1) as f64]).collect();
        assert_eq!(s.reduce(&contribs, ReduceOp::Min, 2).unwrap(), vec![1.0]);
        assert_eq!(s.reduce(&contribs, ReduceOp::Prod, 2).unwrap(), vec![720.0]);
        let ints: Vec<Vec<i64>> = (0..6).map(|r| vec![r as i64, -1]).collect();
        assert_eq!(s.reduce(&ints, ReduceOp::Sum, 0).unwrap(), vec![15, -6]);
    }

    #[test]
    fn unsupported_op_rejected() {
        let s = session(4);
        let contribs: Vec<Vec<u32>> = (0..4).map(|r| vec![r]).collect();
        assert!(matches!(
            s.reduce(&contribs, ReduceOp::Sum, 0),
            Err(MpiError::UnsupportedOp { .. })
        ));
    }

    #[test]
    fn allgather_gather_scatter_alltoall() {
        let s = session(6);
        let contribs: Vec<Vec<u32>> =
            (0..6).map(|r| vec![r as u32 * 10, r as u32 * 10 + 1]).collect();
        let gathered = s.allgather(&contribs).unwrap();
        let expect: Vec<u32> = (0..6).flat_map(|r| [r * 10, r * 10 + 1]).collect();
        assert!(gathered.iter().all(|g| g == &expect));
        assert_eq!(s.gather(&contribs, 3).unwrap(), expect);

        let scattered = s.scatter(&expect, 3).unwrap();
        for (r, block) in scattered.iter().enumerate() {
            assert_eq!(block, &contribs[r]);
        }

        // Alltoall with per-destination payloads.
        let bufs: Vec<Vec<u32>> =
            (0..6).map(|src| (0..6).map(|dst| (src * 6 + dst) as u32).collect()).collect();
        let exchanged = s.alltoall(&bufs).unwrap();
        for (dst, got) in exchanged.iter().enumerate() {
            let expect: Vec<u32> = (0..6).map(|src| (src * 6 + dst) as u32).collect();
            assert_eq!(got, &expect, "rank {dst}");
        }
    }

    #[test]
    fn reduce_scatter_blocks() {
        let s = session(4);
        let contribs: Vec<Vec<i64>> =
            (0..4).map(|r| (0..8).map(|i| (r * 8 + i) as i64).collect()).collect();
        let blocks = s.reduce_scatter(&contribs, ReduceOp::Sum).unwrap();
        for (r, block) in blocks.iter().enumerate() {
            let expect: Vec<i64> =
                (0..2).map(|i| (0..4).map(|src| (src * 8 + r * 2 + i) as i64).sum()).collect();
            assert_eq!(block, &expect, "rank {r}");
        }
    }

    #[test]
    fn shape_errors() {
        let s = session(4);
        let bad: Vec<Vec<f64>> = vec![vec![0.0]; 3];
        assert!(matches!(s.allgather(&bad), Err(MpiError::Shape(_))));
        let ragged: Vec<Vec<f64>> = vec![vec![0.0], vec![0.0, 1.0], vec![], vec![]];
        assert!(matches!(s.allgather(&ragged), Err(MpiError::Shape(_))));
        assert!(matches!(s.scatter(&[1.0f64; 7], 0), Err(MpiError::Shape(_))));
    }

    #[test]
    fn out_of_range_roots_are_shape_errors() {
        // Two sessions: the multi-rank planner path and the single-rank
        // shortcut both index by root.
        for n in [4, 1] {
            let s = session(n);
            let data: Vec<Vec<u32>> = (0..n).map(|r| vec![r as u32; 2 * n]).collect();
            let shape = |r: Result<(), MpiError>, what: &str| {
                assert!(matches!(r, Err(MpiError::Shape(_))), "{what} on {n} ranks: {r:?}");
            };
            shape(s.bcast(&mut data.clone(), n), "bcast");
            shape(s.bcast(&mut vec![Vec::<u32>::new(); n], n), "empty bcast");
            shape(s.gather(&data, n).map(drop), "gather");
            shape(s.scatter(&data[0], n).map(drop), "scatter");
            let lanes: Vec<Vec<i64>> = vec![vec![1, 2]; n];
            shape(s.reduce(&lanes, ReduceOp::Sum, usize::MAX).map(drop), "reduce");
        }
    }

    #[test]
    fn barrier_and_stats() {
        let s = session(16);
        s.barrier().unwrap();
        let mut bufs: Vec<Vec<u8>> = (0..16).map(|r| vec![r as u8; 100_000]).collect();
        s.bcast(&mut bufs, 0).unwrap();
        assert!(s.last_knem_stats().copies > 0, "large bcast went through the kernel");
    }

    #[test]
    fn knem_stats_are_per_collective_not_cumulative() {
        // The session's device serves every collective; the accessor still
        // reports the most recent one alone.
        let s = session(12);
        let mut counts = Vec::new();
        for round in 0..2u8 {
            let mut bufs: Vec<Vec<u8>> = (0..12).map(|r| vec![r as u8 ^ round; 200_000]).collect();
            s.bcast(&mut bufs, 3).unwrap();
            assert!(bufs.iter().all(|b| b == &vec![3 ^ round; 200_000]));
            counts.push(s.last_knem_stats());
        }
        assert!(counts[0].copies > 0 && counts[0].bytes_copied > 0);
        assert_eq!(counts[0], counts[1], "the second bcast reports its own counts");
        assert_eq!(counts[1].registrations, counts[1].deregistrations);
        s.barrier().unwrap();
        assert_eq!(s.last_knem_stats(), KnemStats::default(), "a barrier pulls nothing");
    }

    #[test]
    fn single_rank_session() {
        let s = session(1);
        let mut bufs = vec![vec![1.0f64, 2.0]];
        s.bcast(&mut bufs, 0).unwrap();
        assert_eq!(s.allreduce(&bufs, ReduceOp::Sum).unwrap()[0], vec![1.0, 2.0]);
        s.barrier().unwrap();
    }
}
