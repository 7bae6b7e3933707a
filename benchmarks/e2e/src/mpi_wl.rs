//! `mpi_small` and `mpi_large`: real ops through `pdac_mpi::Session` on
//! rank threads, driven from one thread.

use std::sync::Arc;

use pdac_core::framework::CollFramework;
use pdac_core::sched::{barrier_schedule, reduce_schedule_with_op};
use pdac_core::verify::pattern;
use pdac_core::{build_bcast_tree, AdaptiveColl, Ring};
use pdac_hwtopo::BindingPolicy;
use pdac_mpi::scalar::{from_bytes, to_bytes, ScalarKind};
use pdac_mpi::{ReduceOp, Scalar, Session};
use pdac_mpisim::{
    BufferPool, Communicator, ExecFaultPlan, RetryPolicy, ThreadExecutor, Transport, TransportKind,
};
use pdac_simnet::{BufId, DataOp, Schedule};
use rand::{Rng, RngCore};

use crate::model::{session_allreduce, Plan, Scenario};
use crate::oracle::{self, Collective, Elem, Expected};
use crate::spans::{in_span, Layer};
use crate::workload::{
    placement_label, rng_for, size_label, timed_op, Machines, Mode, OpResult, Workload,
};

/// Rank threads per session. `ThreadExecutor` spawns one thread per rank
/// and the host has two cores; beyond 16 the run-to-run spread of the
/// median op time grows past any useful bound.
const SESSIONS: [(&str, usize); 2] = [("zoot", 16), ("ig", 12)];

struct SessionCtx {
    machine: &'static str,
    policy: BindingPolicy,
    session: Session,
}

impl SessionCtx {
    fn label(&self) -> String {
        format!(
            "{}x{}/{}",
            self.machine,
            self.session.size(),
            placement_label(&self.policy)
        )
    }
}

/// What a real op sees of its workload.
struct Env<'a> {
    sessions: &'a [SessionCtx],
    seed: u64,
}

impl Env<'_> {
    /// The root of a rooted collective: rotates with the pass, offset by
    /// the seed and the op.
    fn root(&self, pass: u64, salt: usize, ranks: usize) -> usize {
        ((self.seed % 1009) as usize + pass as usize * 7 + salt) % ranks
    }
}

trait RealOp {
    fn label(&self, env: &Env) -> String;
    fn scenario(&self) -> Option<(usize, Plan, usize)>;
    fn run(&mut self, env: &Env, pass: u64, mode: Mode) -> OpResult;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DataKind {
    Bcast,
    Reduce,
    Allreduce,
    Allgather,
    Gather,
    Scatter,
    ReduceScatter,
    Alltoall,
}

/// Payload of one collective, shared by the sessions of one machine so the
/// benchmark's own buffers stay a small part of `peak_rss_mb`.
struct OpData<T> {
    kind: DataKind,
    /// Elements per rank (per block for the block collectives).
    len: usize,
    inputs: Vec<Vec<T>>,
    /// Expected result of the collectives whose result no root changes.
    rootless: Option<Expected<T>>,
}

/// One data-moving `Session` collective on elements of type `T`.
struct TypedOp<T> {
    session: usize,
    data: Arc<OpData<T>>,
    salt: usize,
}

/// Every reduction the workloads run is a sum.
const OP: ReduceOp = ReduceOp::Sum;

/// The lane-wise combine `Session` maps [`OP`] onto for elements of `T`.
fn sum_op<T: Scalar>() -> DataOp {
    match T::KIND {
        ScalarKind::F64 => DataOp::SumF64,
        ScalarKind::I64 => DataOp::SumI64,
        kind => panic!("the workloads sum f64 and i64 only, not {kind:?}"),
    }
}

impl<T: Scalar + Elem> OpData<T> {
    /// Seeded payload for `ranks` ranks and, where no root changes it, the
    /// oracle's verdict on it.
    fn new(seed: u64, stream: u64, ranks: usize, kind: DataKind, len: usize) -> Arc<Self> {
        let per_rank = match kind {
            DataKind::Scatter | DataKind::ReduceScatter | DataKind::Alltoall => len * ranks,
            _ => len,
        };
        let mut rng = rng_for(seed, 0x6d70_0000 + stream);
        let inputs: Vec<Vec<T>> = (0..ranks)
            .map(|_| (0..per_rank).map(|_| T::small(rng.next_u64())).collect())
            .collect();
        let mut data = OpData {
            kind,
            len,
            inputs,
            rootless: None,
        };
        if !matches!(
            kind,
            DataKind::Bcast | DataKind::Reduce | DataKind::Gather | DataKind::Scatter
        ) {
            data.rootless = Some(oracle::expected(data.collective(0), &data.inputs));
        }
        Arc::new(data)
    }

    fn collective(&self, root: usize) -> Collective {
        match self.kind {
            DataKind::Bcast => Collective::Bcast { root },
            DataKind::Reduce => Collective::Reduce { root, op: OP },
            DataKind::Allreduce => Collective::Allreduce { op: OP },
            DataKind::Allgather => Collective::Allgather,
            DataKind::Gather => Collective::Gather { root },
            DataKind::Scatter => Collective::Scatter { root },
            DataKind::ReduceScatter => Collective::ReduceScatter { op: OP },
            DataKind::Alltoall => Collective::Alltoall,
        }
    }
}

impl<T: Scalar + Elem> TypedOp<T> {
    /// The `Session` call, result normalised to one vector per rank.
    fn call(
        &self,
        session: &Session,
        root: usize,
        bufs: &mut Vec<Vec<T>>,
    ) -> Result<Vec<Vec<T>>, String> {
        let n = session.size();
        let rooted = |v: Vec<T>| {
            let mut out = vec![Vec::new(); n];
            out[root] = v;
            out
        };
        let x = &self.data.inputs;
        in_span(Layer::Mpi, "session.call", || match self.data.kind {
            DataKind::Bcast => session.bcast(bufs, root).map(|()| std::mem::take(bufs)),
            DataKind::Reduce => session.reduce(x, OP, root).map(rooted),
            DataKind::Allreduce => session.allreduce(x, OP),
            DataKind::Allgather => session.allgather(x),
            DataKind::Gather => session.gather(x, root).map(rooted),
            DataKind::Scatter => session.scatter(&x[root], root),
            DataKind::ReduceScatter => session.reduce_scatter(x, OP),
            DataKind::Alltoall => session.alltoall(x),
        })
        .map_err(|e| e.to_string())
    }

    /// The schedule `Session` plans for this op, from public planners.
    fn plan(&self, comm: &Communicator, root: usize) -> Schedule {
        let bytes = self.data.len * T::WIDTH;
        let distances = || in_span(Layer::Hwtopo, "distances", || comm.distances());
        match self.data.kind {
            DataKind::Bcast => CollFramework::default().bcast(comm, root, bytes),
            DataKind::Allgather => CollFramework::default().allgather(comm, bytes),
            DataKind::Reduce => {
                let tree = build_bcast_tree(&distances(), root);
                reduce_schedule_with_op(&tree, bytes, sum_op::<T>())
            }
            DataKind::Allreduce => session_allreduce(comm, bytes, sum_op::<T>()),
            DataKind::ReduceScatter => {
                let ring = Ring::build(&distances());
                pdac_core::reduce_scatter::reduce_scatter_schedule_with_op(
                    &ring,
                    bytes,
                    sum_op::<T>(),
                )
            }
            DataKind::Gather => pdac_core::gather::distance_aware(comm, root, bytes),
            DataKind::Scatter => pdac_core::scatter::distance_aware(comm, root, bytes),
            DataKind::Alltoall => pdac_core::alltoall::distance_aware(comm, bytes),
        }
    }

    /// `Session`'s call re-stated: plan, pack, execute, unpack.
    fn reenact(&self, session: &Session, root: usize) -> Result<Vec<Vec<T>>, String> {
        let comm = session.comm();
        let n = comm.size();
        let (kind, inputs) = (self.data.kind, &self.data.inputs);
        let block = self.data.len * T::WIDTH;
        let schedule = in_span(Layer::Core, "plan", || self.plan(comm, root));
        let root_only = matches!(kind, DataKind::Bcast | DataKind::Scatter);
        let packed: Vec<Vec<u8>> = in_span(Layer::Mpi, "pack", || {
            (0..n)
                .map(|r| {
                    if root_only && r != root {
                        Vec::new()
                    } else {
                        to_bytes(&inputs[r])
                    }
                })
                .collect()
        });
        let result = in_span(Layer::Mpisim, "exec", || {
            ThreadExecutor::new().run(&schedule, |rank, size| {
                let mut bytes = packed.get(rank).cloned().unwrap_or_default();
                bytes.resize(size.max(bytes.len()), 0);
                bytes
            })
        })
        .map_err(|e| e.to_string())?;
        Ok(in_span(Layer::Mpi, "unpack", || {
            let recv =
                |r: usize, bytes: usize| from_bytes::<T>(&result.buffer(r, BufId::Recv)[..bytes]);
            (0..n)
                .map(|r| match kind {
                    DataKind::Bcast if r == root => inputs[root].clone(),
                    DataKind::Bcast
                    | DataKind::Allreduce
                    | DataKind::Scatter
                    | DataKind::ReduceScatter => recv(r, block),
                    DataKind::Allgather | DataKind::Alltoall => recv(r, block * n),
                    DataKind::Reduce if r == root => recv(r, block),
                    DataKind::Gather if r == root => recv(r, block * n),
                    DataKind::Reduce | DataKind::Gather => Vec::new(),
                })
                .collect()
        }))
    }
}

impl<T: Scalar + Elem> RealOp for TypedOp<T> {
    fn label(&self, env: &Env) -> String {
        format!(
            "{} {:?} {}",
            env.sessions[self.session].label(),
            self.data.kind,
            size_label(self.data.len * T::WIDTH)
        )
    }

    fn scenario(&self) -> Option<(usize, Plan, usize)> {
        let plan = match self.data.kind {
            DataKind::Bcast => Plan::SessionBcast,
            DataKind::Reduce => Plan::Reduce,
            DataKind::Allreduce => Plan::SessionAllreduce,
            DataKind::Allgather => Plan::SessionAllgather,
            DataKind::Gather => Plan::Gather,
            DataKind::Scatter => Plan::Scatter,
            DataKind::ReduceScatter => Plan::ReduceScatter,
            DataKind::Alltoall => Plan::Alltoall,
        };
        Some((self.session, plan, self.data.len * T::WIDTH))
    }

    fn run(&mut self, env: &Env, pass: u64, mode: Mode) -> OpResult {
        let session = &env.sessions[self.session].session;
        let root = env.root(pass, self.salt, session.size());
        // Off the clock: the buffers a bcast overwrites, and the oracle's
        // verdict for collectives whose result depends on the root.
        let data = &*self.data;
        let mut bufs = if data.kind == DataKind::Bcast && mode != Mode::Reenact {
            data.inputs.clone()
        } else {
            Vec::new()
        };
        let rooted = data
            .rootless
            .is_none()
            .then(|| oracle::expected(data.collective(root), &data.inputs));
        let want = data
            .rootless
            .as_ref()
            .or(rooted.as_ref())
            .expect("one of the two is set");
        timed_op(
            "mpi",
            || match mode {
                Mode::Reenact => self.reenact(session, root),
                Mode::Plain | Mode::Traced => self.call(session, root, &mut bufs),
            },
            |got| oracle::check(&got, want),
        )
    }
}

struct BarrierOp {
    session: usize,
}

impl RealOp for BarrierOp {
    fn label(&self, env: &Env) -> String {
        format!("{} Barrier", env.sessions[self.session].label())
    }

    fn scenario(&self) -> Option<(usize, Plan, usize)> {
        Some((self.session, Plan::Barrier, 0))
    }

    fn run(&mut self, env: &Env, _pass: u64, mode: Mode) -> OpResult {
        let session = &env.sessions[self.session].session;
        timed_op(
            "mpi",
            || match mode {
                Mode::Reenact => {
                    let comm = session.comm();
                    let schedule = in_span(Layer::Core, "plan", || {
                        let dist = in_span(Layer::Hwtopo, "distances", || comm.distances());
                        barrier_schedule(&build_bcast_tree(&dist, 0))
                    });
                    in_span(Layer::Mpisim, "exec", || {
                        ThreadExecutor::new().run(&schedule, |_, size| vec![0; size])
                    })
                    .map(|_| ())
                    .map_err(|e| e.to_string())
                }
                Mode::Plain | Mode::Traced => {
                    in_span(Layer::Mpi, "session.call", || session.barrier())
                        .map_err(|e| e.to_string())
                }
            },
            // A barrier moves no data; returning at all is its result.
            |()| {
                oracle::check::<u8>(
                    &vec![Vec::new(); session.size()],
                    &oracle::expected(Collective::Barrier, &[]),
                )
            },
        )
    }
}

#[derive(Debug, Clone, Copy)]
enum Direct {
    RdmaBcast,
    RdmaAllgather,
    /// Broadcast with one corrupted transfer: the checksum must catch it
    /// and the retransmit must deliver the clean payload.
    HealBcast,
}

/// A schedule planned during set-up and run straight on `ThreadExecutor`,
/// for what `Session` cannot reach: the RDMA transport, a shared buffer
/// pool, and fault injection.
struct DirectOp {
    session: usize,
    what: Direct,
    bytes: usize,
    schedule: Schedule,
    transport: Arc<dyn Transport>,
    pool: Arc<BufferPool>,
    /// The rank whose first pull arrives corrupted (heal op only).
    victim: usize,
}

impl RealOp for DirectOp {
    fn label(&self, env: &Env) -> String {
        format!(
            "{} {:?} {}",
            env.sessions[self.session].label(),
            self.what,
            size_label(self.bytes)
        )
    }

    fn scenario(&self) -> Option<(usize, Plan, usize)> {
        None
    }

    fn run(&mut self, env: &Env, _pass: u64, _mode: Mode) -> OpResult {
        let ranks = self.schedule.num_ranks;
        let executor = match self.what {
            Direct::RdmaBcast | Direct::RdmaAllgather => {
                ThreadExecutor::with_transport(Arc::clone(&self.transport))
                    .with_buffer_pool(Arc::clone(&self.pool))
            }
            Direct::HealBcast => ThreadExecutor::new()
                .with_faults(ExecFaultPlan::new(env.seed).flip_bits(
                    self.victim,
                    0,
                    0x00ff_00ff_00ff_00ff,
                ))
                .with_policy(RetryPolicy::chaos()),
        };
        timed_op(
            "direct",
            || {
                in_span(Layer::Mpisim, "exec.direct", || {
                    executor.run(&self.schedule, pattern)
                })
                .map_err(|e| e.to_string())
            },
            |result| match self.what {
                Direct::RdmaBcast => oracle::check_pattern_bcast(&result, ranks, 0, self.bytes),
                Direct::RdmaAllgather => {
                    oracle::check_pattern_allgather(&result, ranks, self.bytes)
                }
                Direct::HealBcast => {
                    if result.integrity_stats.retransmits < 1 {
                        return Err("corrupted transfer was not retransmitted".to_string());
                    }
                    oracle::check_pattern_bcast(&result, ranks, 0, self.bytes)
                }
            },
        )
    }
}

pub struct MpiWorkload {
    seed: u64,
    sessions: Vec<SessionCtx>,
    ops: Vec<Box<dyn RealOp>>,
}

impl MpiWorkload {
    pub fn build(seed: u64, large: bool) -> Result<Self, String> {
        let machines = Machines::default();
        let mut sessions = Vec::new();
        for (machine, ranks) in SESSIONS {
            for policy in [BindingPolicy::Contiguous, BindingPolicy::CrossSocket] {
                let session = Session::new(machines.by_label(machine), policy.clone(), ranks)
                    .map_err(|e| format!("{machine}x{ranks}: {e}"))?;
                sessions.push(SessionCtx {
                    machine,
                    policy,
                    session,
                });
            }
        }
        let mut ops: Vec<Box<dyn RealOp>> = Vec::new();
        // Sessions come in pairs (contiguous, cross-socket) per machine; a
        // pair shares its payloads.
        for (pair, &(_, ranks)) in SESSIONS.iter().enumerate() {
            let mut add = |op: &dyn Fn(usize) -> Box<dyn RealOp>| {
                ops.extend([op(2 * pair), op(2 * pair + 1)])
            };
            macro_rules! typed {
                ($t:ty, $kind:expr, $len:expr, $salt:expr) => {{
                    let data =
                        OpData::<$t>::new(seed, (pair * 64 + $salt) as u64, ranks, $kind, $len);
                    add(&|session| {
                        Box::new(TypedOp {
                            session,
                            data: Arc::clone(&data),
                            salt: $salt,
                        })
                    })
                }};
            }
            if large {
                typed!(u64, DataKind::Bcast, 1 << 17, 0);
                typed!(f64, DataKind::Allreduce, 1 << 17, 1);
                typed!(u32, DataKind::Allgather, 16 << 10, 2);
                typed!(u32, DataKind::Alltoall, 16 << 10, 3);
                typed!(i64, DataKind::ReduceScatter, 8 << 10, 4);
            } else {
                typed!(u64, DataKind::Bcast, 2048, 0);
                typed!(f64, DataKind::Reduce, 2048, 1);
                typed!(f64, DataKind::Allreduce, 2048, 2);
                typed!(u32, DataKind::Allgather, 1024, 3);
                typed!(i32, DataKind::Gather, 1024, 4);
                typed!(u32, DataKind::Scatter, 1024, 5);
                typed!(i64, DataKind::ReduceScatter, 512, 6);
                typed!(u32, DataKind::Alltoall, 256, 7);
                add(&|session| Box::new(BarrierOp { session }));
            }
        }
        if large {
            let coll = AdaptiveColl::default();
            let transport = TransportKind::Rdma.create(None);
            let pool = Arc::new(BufferPool::new(16));
            let direct = |s: usize, what: Direct, bytes: usize, victim: usize| -> Box<dyn RealOp> {
                let comm = sessions[s].session.comm();
                let schedule = match what {
                    Direct::RdmaBcast | Direct::HealBcast => coll.bcast(comm, 0, bytes),
                    Direct::RdmaAllgather => coll.allgather(comm, bytes),
                };
                Box::new(DirectOp {
                    session: s,
                    what,
                    bytes,
                    schedule,
                    transport: Arc::clone(&transport),
                    pool: Arc::clone(&pool),
                    victim,
                })
            };
            // The cross-socket sessions: zoot x 16 is session 1, ig x 12 is 3.
            for s in [1, 3] {
                ops.push(direct(s, Direct::RdmaBcast, 1 << 20, 0));
                ops.push(direct(s, Direct::RdmaAllgather, 64 << 10, 0));
            }
            let victim = 1 + rng_for(seed, 0x6865_616c).gen_range(0..15);
            ops.push(direct(1, Direct::HealBcast, 1 << 20, victim));
        }
        Ok(MpiWorkload {
            seed,
            sessions,
            ops,
        })
    }
}

impl Workload for MpiWorkload {
    fn ops_per_pass(&self) -> usize {
        self.ops.len()
    }

    fn op_label(&self, idx: usize) -> String {
        self.ops[idx].label(&Env {
            sessions: &self.sessions,
            seed: self.seed,
        })
    }

    fn run_op(&mut self, idx: usize, pass: u64, mode: Mode) -> OpResult {
        let env = Env {
            sessions: &self.sessions,
            seed: self.seed,
        };
        self.ops[idx].run(&env, pass, mode)
    }

    fn reenacts(&self) -> bool {
        true
    }

    fn scenarios(&self) -> Vec<Scenario> {
        self.ops
            .iter()
            .filter_map(|op| op.scenario())
            .map(|(s, plan, bytes)| {
                let ctx = &self.sessions[s];
                Scenario::new(
                    ctx.machine,
                    ctx.session.size(),
                    ctx.policy.clone(),
                    plan,
                    bytes,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every op of `mpi_small` passes the oracle as a `Session` call and as
    /// its re-enactment, for two roots.
    #[test]
    fn session_calls_and_their_reenactment_agree_with_the_oracle() {
        let mut workload = MpiWorkload::build(7, false).unwrap();
        assert_eq!(workload.ops_per_pass(), 36);
        for pass in 0..2 {
            for mode in [Mode::Plain, Mode::Reenact] {
                for idx in 0..workload.ops_per_pass() {
                    let result = workload.run_op(idx, pass, mode);
                    assert!(
                        result.check.is_ok(),
                        "{} {mode:?}: {:?}",
                        workload.op_label(idx),
                        result.check
                    );
                }
            }
        }
        assert_eq!(workload.scenarios().len(), 36);
    }
}
