//! The lowered form of a schedule — what the executor's cursors step.
//!
//! A validated [`Schedule`] is a vector of ops and an arena of their
//! dependency lists, over buffers named by `(rank, buffer)` keys. The
//! executor's helper threads are long-lived and cannot borrow it, so
//! [`Program::lower`] copies it once per run into an owned program, shared
//! with the helpers through the run's `Arc`: one op stream per executing
//! rank, the dependency lists as ranges into the program's own arena, and
//! every buffer reference resolved to a slot of a dense table, so executing
//! an op hashes and looks up nothing.

use std::ops::Range;

use pdac_hwtopo::DistanceMatrix;
use pdac_simnet::{BufId, Mech, OpId, OpKind, Rank, Schedule};

/// One lowered operation.
pub(crate) struct LoweredOp {
    /// The schedule's operation, verbatim (spans and the transport name
    /// ranks, buffers and offsets, not slots).
    pub kind: OpKind,
    /// Buffer-table slots of a copy's source and destination (unused for a
    /// notification).
    pub src: usize,
    pub dst: usize,
    /// Latency-histogram kind: 0 = KNEM copy, 1 = memcpy copy, 2 = notify.
    pub hist_kind: usize,
    /// Process-distance class of the op's endpoints (0 without a matrix).
    pub class: u8,
    deps: Range<usize>,
}

/// A schedule flattened for execution. Immutable once built.
pub(crate) struct Program {
    num_ranks: usize,
    /// Indexed by schedule-wide op id.
    ops: Vec<LoweredOp>,
    /// Op ids grouped by executing rank, program order within a rank:
    /// rank `r` runs `stream[rank_start[r]..rank_start[r + 1]]`.
    stream: Vec<OpId>,
    rank_start: Vec<usize>,
    /// Arena of dependency op ids.
    deps: Vec<OpId>,
    /// The dense buffer table: key and declared size per slot, in key order.
    bufs: Vec<((Rank, BufId), usize)>,
    /// Bytes of the largest copy: what one staging buffer must hold.
    max_copy: usize,
}

impl Program {
    /// Lowers a schedule that passed [`Schedule::validate`]. `distances`
    /// labels each op with its process-distance class.
    pub fn lower(schedule: &Schedule, distances: Option<&DistanceMatrix>) -> Self {
        let num_ranks = schedule.num_ranks;
        let bufs: Vec<((Rank, BufId), usize)> = schedule
            .buf_sizes
            .iter()
            .map(|(&key, &size)| (key, size))
            .collect();
        let slot = |rank: Rank, buf: BufId| {
            slot_in(&bufs, rank, buf)
                .expect("validate() bounds-checked every buffer a copy touches")
        };

        // Counting sort of op ids by executor keeps program order per rank.
        let mut rank_start = vec![0usize; num_ranks + 1];
        for op in &schedule.ops {
            rank_start[op.kind.executor() + 1] += 1;
        }
        for r in 0..num_ranks {
            rank_start[r + 1] += rank_start[r];
        }
        let mut cursor = rank_start.clone();
        let mut stream = vec![0; schedule.ops.len()];

        let (mut deps, mut max_copy) = (Vec::new(), 0);
        let mut ops = Vec::with_capacity(schedule.ops.len());
        for (id, op) in schedule.ops.iter().enumerate() {
            let me = op.kind.executor();
            stream[cursor[me]] = id;
            cursor[me] += 1;
            let first_dep = deps.len();
            deps.extend_from_slice(schedule.deps(id));
            let (src, dst) = match op.kind {
                OpKind::Copy {
                    src_rank,
                    src_buf,
                    dst_rank,
                    dst_buf,
                    ..
                } => (slot(src_rank, src_buf), slot(dst_rank, dst_buf)),
                OpKind::Notify { .. } => (usize::MAX, usize::MAX),
            };
            let (hist_kind, class) = op_kind_and_class(&op.kind, distances);
            max_copy = max_copy.max(op.kind.bytes());
            ops.push(LoweredOp {
                kind: op.kind.clone(),
                src,
                dst,
                hist_kind,
                class,
                deps: first_dep..deps.len(),
            });
        }

        Program {
            num_ranks,
            ops,
            stream,
            rank_start,
            deps,
            bufs,
            max_copy,
        }
    }

    /// Communicator size the program addresses.
    pub fn num_ranks(&self) -> usize {
        self.num_ranks
    }

    /// The op with schedule-wide id `id`.
    pub fn op(&self, id: OpId) -> &LoweredOp {
        &self.ops[id]
    }

    /// Ops in the program.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// `rank`'s op ids in program order.
    pub fn rank_ops(&self, rank: Rank) -> &[OpId] {
        &self.stream[self.rank_start[rank]..self.rank_start[rank + 1]]
    }

    /// Ids of the ops `op` waits for.
    pub fn deps(&self, op: &LoweredOp) -> &[OpId] {
        &self.deps[op.deps.clone()]
    }

    /// Key and declared size of every buffer, in slot order.
    pub fn bufs(&self) -> &[((Rank, BufId), usize)] {
        &self.bufs
    }

    /// Bytes of the program's largest copy (0 if it has none).
    pub fn max_copy(&self) -> usize {
        self.max_copy
    }

    /// The slot of `(rank, buf)`, if the schedule declares that buffer.
    pub fn slot_of(&self, rank: Rank, buf: BufId) -> Option<usize> {
        slot_in(&self.bufs, rank, buf)
    }
}

/// Position of `(rank, buf)` in a buffer table sorted by key.
fn slot_in(bufs: &[((Rank, BufId), usize)], rank: Rank, buf: BufId) -> Option<usize> {
    bufs.binary_search_by_key(&(rank, buf), |&(key, _)| key)
        .ok()
}

/// The histogram kind index and distance class of one operation.
fn op_kind_and_class(kind: &OpKind, distances: Option<&DistanceMatrix>) -> (usize, u8) {
    let (k, a, b) = match kind {
        OpKind::Copy {
            src_rank,
            dst_rank,
            mech: Mech::Knem,
            ..
        } => (0, *src_rank, *dst_rank),
        OpKind::Copy {
            src_rank, dst_rank, ..
        } => (1, *src_rank, *dst_rank),
        OpKind::Notify { from, to } => (2, *from, *to),
    };
    let class = distances
        .filter(|d| a < d.num_ranks() && b < d.num_ranks())
        .map_or(0, |d| d.get(a, b));
    (k, class)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdac_simnet::ScheduleBuilder;

    #[test]
    fn lowering_keeps_program_order_deps_and_slots() {
        // 0 -> 1, then rank 2 pulls from rank 1 twice and rank 1 once more
        // from itself: op `a` has two dependents on rank 2 and one on its
        // own rank.
        let mut b = ScheduleBuilder::new("t", 3);
        let a = b.copy(
            (0, BufId::Send, 0),
            (1, BufId::Recv, 0),
            64,
            Mech::Knem,
            1,
            &[],
        );
        let c = b.copy(
            (1, BufId::Recv, 0),
            (2, BufId::Recv, 0),
            32,
            Mech::Knem,
            2,
            &[a],
        );
        let d = b.copy(
            (1, BufId::Recv, 32),
            (2, BufId::Recv, 32),
            32,
            Mech::Memcpy,
            2,
            &[a, c],
        );
        let e = b.copy(
            (1, BufId::Recv, 0),
            (1, BufId::Temp(0), 0),
            64,
            Mech::Memcpy,
            1,
            &[a],
        );
        let n = b.notify(2, 0, &[d, e]);
        let schedule = b.finish();
        schedule.validate().unwrap();
        let p = Program::lower(&schedule, None);

        assert_eq!(p.num_ranks(), 3);
        assert_eq!(p.num_ops(), 5);
        assert_eq!(p.rank_ops(0), &[] as &[OpId]);
        assert_eq!(p.rank_ops(1), &[a, e]);
        assert_eq!(p.rank_ops(2), &[c, d, n]);
        for (id, op) in schedule.ops.iter().enumerate() {
            assert_eq!(p.deps(p.op(id)), schedule.deps(id), "op {id}");
            assert_eq!(p.op(id).kind, op.kind, "op {id}");
        }

        // Slots follow the schedule's key order and resolve both ways.
        let keys: Vec<(Rank, BufId)> = p.bufs().iter().map(|&(key, _)| key).collect();
        assert_eq!(keys, schedule.buf_sizes.keys().copied().collect::<Vec<_>>());
        assert_eq!(p.bufs()[p.op(a).dst], ((1, BufId::Recv), 64));
        assert_eq!(p.slot_of(1, BufId::Temp(0)), Some(p.op(e).dst));
        assert_eq!(p.slot_of(0, BufId::Recv), None);
        assert_eq!(
            (p.op(a).hist_kind, p.op(d).hist_kind, p.op(n).hist_kind),
            (0, 1, 2)
        );
    }
}
