//! The lowered form of a schedule — what both executors read.
//!
//! [`Schedule::lower`] runs the checking pass of [`Schedule::validate`] and
//! keeps what that pass found: every buffer reference resolved to a slot of
//! the schedule's own key-ordered buffer table ([`Schedule::bufs`]). It then
//! adds the indexes the executors step by — one op stream per executing
//! rank, each op's dependents, each op's distance class, the largest copy
//! and which slots some copy writes — so executing an op hashes and looks
//! up nothing.

use pdac_hwtopo::DistanceMatrix;

use crate::schedule::{OpId, OpKind, Rank, Schedule, ScheduleError};

/// A checked schedule indexed for execution. It holds indexes only: an
/// executor reads it beside the [`Schedule`] it was lowered from, whose
/// buffer table its slots index.
#[derive(Debug)]
pub struct Lowered {
    /// Source and destination slot of each op (`usize::MAX` for a
    /// notification).
    slots: Vec<[usize; 2]>,
    /// Process-distance class of each op's endpoints.
    class: Vec<u8>,
    /// Op ids by executing rank, in id order within a rank: rank `r` runs
    /// `stream[rank_start[r]..rank_start[r + 1]]`.
    stream: Vec<OpId>,
    rank_start: Vec<usize>,
    /// Op `d`'s dependents, ascending:
    /// `dependents[dependents_start[d]..dependents_start[d + 1]]`.
    dependents: Vec<OpId>,
    dependents_start: Vec<usize>,
    max_copy: usize,
    /// Per slot: whether some copy writes it.
    written: Vec<bool>,
}

impl Schedule {
    /// Checks the schedule as [`Self::validate`] does — the same pass, the
    /// same verdicts — and indexes it for execution. `distances` labels
    /// each op with its endpoints' process-distance class.
    pub fn lower(&self, distances: Option<&DistanceMatrix>) -> Result<Lowered, ScheduleError> {
        let mut slots = Vec::with_capacity(self.ops.len());
        self.check(|found| slots.push(found))?;
        let by_executor = self.ops.iter().enumerate().map(|(id, op)| (op.kind.executor(), id));
        let (rank_start, stream) = group_by_key(self.num_ranks, by_executor);
        let by_dep = (0..self.ops.len()).flat_map(|id| self.deps(id).iter().map(move |&d| (d, id)));
        let (dependents_start, dependents) = group_by_key(self.ops.len(), by_dep);
        let mut written = vec![false; self.bufs().len()];
        for (op, &[_, dst]) in self.ops.iter().zip(&slots) {
            if let OpKind::Copy { .. } = op.kind {
                written[dst] = true;
            }
        }
        Ok(Lowered {
            slots,
            class: self.ops.iter().map(|op| distance_class(&op.kind, distances)).collect(),
            stream,
            rank_start,
            dependents,
            dependents_start,
            max_copy: self.ops.iter().map(|op| op.kind.bytes()).max().unwrap_or(0),
            written,
        })
    }
}

impl Lowered {
    /// `rank`'s op ids in program order.
    pub fn rank_ops(&self, rank: Rank) -> &[OpId] {
        &self.stream[self.rank_start[rank]..self.rank_start[rank + 1]]
    }

    /// Ids of the ops that list `id` as a dependency, ascending, once per
    /// listing.
    pub fn dependents(&self, id: OpId) -> &[OpId] {
        &self.dependents[self.dependents_start[id]..self.dependents_start[id + 1]]
    }

    /// Slots of copy `id`'s source and destination in the schedule's
    /// buffer table (`usize::MAX` for a notification).
    pub fn copy_slots(&self, id: OpId) -> [usize; 2] {
        self.slots[id]
    }

    /// Process-distance class of op `id`'s endpoints (0 without a matrix).
    pub fn class(&self, id: OpId) -> u8 {
        self.class[id]
    }

    /// Bytes of the largest copy (0 if there is none): what one staging
    /// buffer must hold.
    pub fn max_copy(&self) -> usize {
        self.max_copy
    }

    /// Whether some copy writes `slot`.
    pub fn written(&self, slot: usize) -> bool {
        self.written[slot]
    }
}

/// The process-distance class of an op's endpoints — a copy's source and
/// destination, a notification's sender and receiver — under `distances`
/// (0 without a matrix, or for a rank outside it).
pub(crate) fn distance_class(kind: &OpKind, distances: Option<&DistanceMatrix>) -> u8 {
    let (a, b) = match *kind {
        OpKind::Copy { src_rank, dst_rank, .. } => (src_rank, dst_rank),
        OpKind::Notify { from, to } => (from, to),
    };
    distances.filter(|d| a < d.num_ranks() && b < d.num_ranks()).map_or(0, |d| d.get(a, b))
}

/// Groups `(key, value)` items by key with a counting sort, keeping their
/// order within a key: key `k`'s values are `values[start[k]..start[k + 1]]`.
/// Two passes over `items`, no comparison.
fn group_by_key<T: Copy + Default>(
    keys: usize,
    items: impl Iterator<Item = (usize, T)> + Clone,
) -> (Vec<usize>, Vec<T>) {
    // Counted at `k + 2`, so after the prefix sum `start[k + 1]` is where
    // key `k` begins; the fill advances it to where key `k + 1` begins.
    let mut start = vec![0usize; keys + 2];
    for (k, _) in items.clone() {
        start[k + 2] += 1;
    }
    for k in 2..start.len() {
        start[k] += start[k - 1];
    }
    let mut values = vec![T::default(); start[keys + 1]];
    for (k, v) in items {
        values[start[k + 1]] = v;
        start[k + 1] += 1;
    }
    start.pop();
    (start, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{BufId, Mech, ScheduleBuilder};

    #[test]
    fn lowering_keeps_program_order_deps_and_slots() {
        // 0 -> 1, then rank 2 pulls from rank 1 twice and rank 1 once more
        // from itself: op `a` has two dependents on rank 2 and one on its
        // own rank.
        let mut b = ScheduleBuilder::new("t", 3);
        let a = b.copy((0, BufId::Send, 0), (1, BufId::Recv, 0), 64, Mech::Knem, 1, &[]);
        let c = b.copy((1, BufId::Recv, 0), (2, BufId::Recv, 0), 32, Mech::Knem, 2, &[a]);
        let d = b.copy((1, BufId::Recv, 32), (2, BufId::Recv, 32), 32, Mech::Memcpy, 2, &[a, c]);
        let e = b.copy((1, BufId::Recv, 0), (1, BufId::Temp(0), 0), 64, Mech::Memcpy, 1, &[a]);
        let n = b.notify(2, 0, &[d, e]);
        let schedule = b.finish();
        let p = schedule.lower(None).unwrap();

        assert_eq!(p.rank_ops(0), &[] as &[OpId]);
        assert_eq!(p.rank_ops(1), &[a, e]);
        assert_eq!(p.rank_ops(2), &[c, d, n]);
        assert_eq!(p.dependents(a), &[c, d, e]);
        assert_eq!(p.dependents(c), &[d]);
        assert_eq!(p.dependents(n), &[] as &[OpId]);
        assert_eq!(p.max_copy(), 64);

        // Slots index the schedule's buffer table and resolve both ways.
        assert_eq!(schedule.bufs()[p.copy_slots(a)[1]], ((1, BufId::Recv), 64));
        assert_eq!(schedule.slot_of(1, BufId::Temp(0)), Some(p.copy_slots(e)[1]));
        assert_eq!(schedule.slot_of(0, BufId::Recv), None);
        assert_eq!(p.copy_slots(n), [usize::MAX; 2]);
        assert!((0..5).all(|id| p.class(id) == 0), "no matrix, class 0");

        // Rank 0's send buffer is only read; every destination is written.
        let written: Vec<bool> = (0..schedule.bufs().len()).map(|s| p.written(s)).collect();
        assert_eq!(written, [false, true, true, true]);
    }
}
