//! The schedule intermediate representation.
//!
//! A collective algorithm compiles to a [`Schedule`]: a DAG of operations
//! over per-rank buffers. The same schedule is executed by the timing
//! simulator ([`crate::SimExecutor`]) and by the real-thread executor in
//! `pdac-mpisim`, so topology construction is tested for *correctness* and
//! measured for *performance* from a single artifact.
//!
//! Ops are numbered densely; dependencies must point backwards
//! (`dep < id`), which every builder satisfies naturally and which makes
//! program order a valid topological order for per-rank serial execution.

use crate::lower::group_by_key;

/// Rank index within the communicator the schedule was built for.
pub type Rank = usize;
/// Dense operation id.
pub type OpId = usize;

/// One byte range a copy reads or writes: `(op, start, end, is_write)`.
type Access = (OpId, usize, usize, bool);

/// A per-rank buffer. `Send`/`Recv` mirror the user buffers of the MPI call;
/// `Temp(i)` are internal bounce buffers (eager copy-in/copy-out stages,
/// scatter intermediates, reduction accumulators...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BufId {
    /// The caller-provided source buffer.
    Send,
    /// The caller-provided destination buffer.
    Recv,
    /// An internal temporary buffer.
    Temp(u32),
}

/// Copy mechanism, matching the two intra-node paths of the paper's
/// platform: plain load/store `memcpy` (shared-memory stages) and the
/// KNEM kernel-assisted single copy (pays a fixed setup cost per operation —
/// cookie distribution plus the trap into the kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mech {
    /// User-space memcpy.
    Memcpy,
    /// KNEM single-copy (RMA-style pull); adds the calibrated setup latency.
    Knem,
}

impl Mech {
    /// The name span labels and trace arguments give the mechanism.
    pub fn name(self) -> &'static str {
        match self {
            Mech::Memcpy => "Memcpy",
            Mech::Knem => "Knem",
        }
    }
}

/// What a copy does with the destination bytes.
///
/// `Move` transfers; everything else combines element-wise into the
/// destination — the reduction primitives. Typed operators interpret the
/// payload as little-endian lanes of the named width and require the byte
/// count to be lane-aligned (checked by [`Schedule::validate`]). The timing
/// simulator charges all variants identically (a combine moves the same
/// bytes); only the thread executor's arithmetic differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DataOp {
    /// Overwrite the destination (plain transfer).
    #[default]
    Move,
    /// Wrapping byte-wise addition (`dst[i] = dst[i] + src[i] mod 256`).
    Add,
    /// IEEE-754 f64 sum per 8-byte lane.
    SumF64,
    /// f64 maximum per lane.
    MaxF64,
    /// f64 minimum per lane.
    MinF64,
    /// Wrapping i64 sum per lane.
    SumI64,
    /// f64 product per lane.
    ProdF64,
    /// Bitwise OR per byte.
    BorU8,
    /// u64 maximum per lane (also MPI_MAXLOC-style tie-breaking when the
    /// payload packs (value, index) pairs in a single u64).
    MaxU64,
}

impl DataOp {
    /// Lane width in bytes the payload must be aligned to (1 = none).
    pub fn lane_bytes(self) -> usize {
        match self {
            DataOp::Move | DataOp::Add | DataOp::BorU8 => 1,
            DataOp::SumF64
            | DataOp::MaxF64
            | DataOp::MinF64
            | DataOp::SumI64
            | DataOp::ProdF64
            | DataOp::MaxU64 => 8,
        }
    }
}

/// One schedule operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind {
    /// Move `bytes` from `(src_rank, src_buf)[src_off..]` to
    /// `(dst_rank, dst_buf)[dst_off..]`, executed by rank `exec` (the rank
    /// whose core performs the memcpy — the *puller* for KNEM copies).
    Copy {
        /// Source rank.
        src_rank: Rank,
        /// Source buffer.
        src_buf: BufId,
        /// Byte offset into the source buffer.
        src_off: usize,
        /// Destination rank.
        dst_rank: Rank,
        /// Destination buffer.
        dst_buf: BufId,
        /// Byte offset into the destination buffer.
        dst_off: usize,
        /// Bytes to move.
        bytes: usize,
        /// Copy mechanism.
        mech: Mech,
        /// Rank performing the copy.
        exec: Rank,
        /// Overwrite or element-wise combine.
        op: DataOp,
    },
    /// An out-of-band control message (e.g. "my buffer is ready to pull"),
    /// costing latency only.
    Notify {
        /// Sender.
        from: Rank,
        /// Receiver.
        to: Rank,
    },
}

impl OpKind {
    /// The rank whose core is occupied executing this op.
    pub fn executor(&self) -> Rank {
        match *self {
            OpKind::Copy { exec, .. } => exec,
            OpKind::Notify { from, .. } => from,
        }
    }

    /// Payload bytes (0 for notifications).
    pub fn bytes(&self) -> usize {
        match *self {
            OpKind::Copy { bytes, .. } => bytes,
            OpKind::Notify { .. } => 0,
        }
    }
}

/// One operation of a [`Schedule`]. Its dependencies (all of which must
/// have smaller ids) are read through [`Schedule::deps`]; only a
/// [`ScheduleBuilder`] makes ops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// What to do.
    pub kind: OpKind,
    /// Where this op's dependency list ends in the schedule's arena; it
    /// starts where the previous op's ends.
    deps_end: u32,
}

/// Structural problems detected by [`Schedule::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum ScheduleError {
    /// A dependency points at itself or forward (would deadlock the
    /// per-rank in-order executors).
    ForwardDep { op: OpId, dep: OpId },
    /// An op references a rank outside `0..num_ranks`.
    RankOutOfRange { op: OpId, rank: Rank },
    /// A copy has zero bytes.
    EmptyCopy { op: OpId },
    /// A copy reads or writes outside the declared buffer size.
    OutOfBounds { op: OpId, rank: Rank, buf: BufId, end: usize, size: usize },
    /// Two copies write overlapping bytes of the same buffer without an
    /// ordering between them (racy result).
    UnorderedOverlappingWrites { a: OpId, b: OpId },
    /// A copy reads bytes another copy writes, with no ordering between
    /// them (the reader may observe a partial write).
    UnorderedReadWrite { reader: OpId, writer: OpId },
    /// A typed combine's byte count is not a multiple of its lane width.
    MisalignedTypedOp { op: OpId, bytes: usize, lane: usize },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::ForwardDep { op, dep } => {
                write!(f, "op {op} depends on {dep}, which is not strictly earlier")
            }
            ScheduleError::RankOutOfRange { op, rank } => {
                write!(f, "op {op} references out-of-range rank {rank}")
            }
            ScheduleError::EmptyCopy { op } => write!(f, "op {op} copies zero bytes"),
            ScheduleError::OutOfBounds { op, rank, buf, end, size } => write!(
                f,
                "op {op} accesses bytes ..{end} of rank {rank}'s {buf:?} buffer of size {size}"
            ),
            ScheduleError::UnorderedOverlappingWrites { a, b } => {
                write!(f, "ops {a} and {b} write overlapping bytes without ordering")
            }
            ScheduleError::UnorderedReadWrite { reader, writer } => {
                write!(f, "op {reader} reads bytes op {writer} writes, without ordering")
            }
            ScheduleError::MisalignedTypedOp { op, bytes, lane } => {
                write!(f, "op {op} combines {bytes} bytes, not a multiple of its {lane}-byte lane")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A complete, validated-on-demand operation DAG: three flat vectors.
///
/// The dependency lists live in one private arena in op order with no gaps
/// (an op stores only where its list ends), and the buffer sizes in one
/// private table sorted by key, so two schedules with the same ops,
/// dependencies and buffers have the same bytes and building, cloning,
/// comparing or dropping one touches three heap blocks however many ops it
/// has.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Human-readable algorithm name (reported by the bench harness).
    pub name: String,
    /// Communicator size the schedule addresses.
    pub num_ranks: usize,
    /// Operations in id order. An op's `kind` may be edited in place; ops
    /// are not added, removed or reordered after [`ScheduleBuilder::finish`]
    /// (an op's position locates its dependency list).
    pub ops: Vec<Op>,
    /// Every op's dependency list, back to back in op order.
    deps: Vec<OpId>,
    /// Key and required size of every buffer touched, sorted by key with
    /// no key twice; a slot is an index into it.
    bufs: Vec<((Rank, BufId), usize)>,
}

impl Schedule {
    /// Ids of the operations that must complete before op `id` starts.
    pub fn deps(&self, id: OpId) -> &[OpId] {
        let start = match id.checked_sub(1) {
            Some(prev) => self.ops[prev].deps_end as usize,
            None => 0,
        };
        &self.deps[start..self.ops[id].deps_end as usize]
    }

    /// Key and declared size of every buffer, in slot order (key order).
    pub fn bufs(&self) -> &[((Rank, BufId), usize)] {
        &self.bufs
    }

    /// The slot of `(rank, buf)`, if the schedule declares that buffer.
    pub fn slot_of(&self, rank: Rank, buf: BufId) -> Option<usize> {
        self.bufs.binary_search_by_key(&(rank, buf), |&(key, _)| key).ok()
    }

    /// Number of copy operations.
    pub fn num_copies(&self) -> usize {
        self.ops.iter().filter(|o| matches!(o.kind, OpKind::Copy { .. })).count()
    }

    /// Checks structural invariants; see [`ScheduleError`]. This is
    /// [`Self::lower`]'s checking pass with what it found dropped.
    pub fn validate(&self) -> Result<(), ScheduleError> {
        self.check().map(drop)
    }

    /// The checking pass shared by [`Self::validate`] and [`Self::lower`].
    /// Bounds-checking a copy finds its buffers' slots, so the pass returns
    /// each op's source and destination slot, in op order (`usize::MAX`
    /// for a notification), and per slot whether some copy writes it.
    pub(crate) fn check(&self) -> Result<(Vec<[usize; 2]>, Vec<bool>), ScheduleError> {
        let mut found = Vec::with_capacity(self.ops.len());
        let check_rank = |op: OpId, r: Rank| -> Result<(), ScheduleError> {
            if r >= self.num_ranks {
                Err(ScheduleError::RankOutOfRange { op, rank: r })
            } else {
                Ok(())
            }
        };
        for (id, op) in self.ops.iter().enumerate() {
            for &d in self.deps(id) {
                if d >= id {
                    return Err(ScheduleError::ForwardDep { op: id, dep: d });
                }
            }
            match &op.kind {
                OpKind::Copy {
                    src_rank,
                    dst_rank,
                    exec,
                    bytes,
                    src_buf,
                    src_off,
                    dst_buf,
                    dst_off,
                    op: data_op,
                    ..
                } => {
                    check_rank(id, *src_rank)?;
                    check_rank(id, *dst_rank)?;
                    check_rank(id, *exec)?;
                    if *bytes == 0 {
                        return Err(ScheduleError::EmptyCopy { op: id });
                    }
                    let lane = data_op.lane_bytes();
                    if !bytes.is_multiple_of(lane) {
                        return Err(ScheduleError::MisalignedTypedOp {
                            op: id,
                            bytes: *bytes,
                            lane,
                        });
                    }
                    let mut slots = [0; 2];
                    let ends = [(*src_rank, *src_buf, *src_off), (*dst_rank, *dst_buf, *dst_off)];
                    for (slot, (rank, buf, off)) in slots.iter_mut().zip(ends) {
                        let declared = self.slot_of(rank, buf);
                        let size = declared.map_or(0, |i| self.bufs[i].1);
                        // An end past `usize::MAX` is past every buffer.
                        match (declared, off.checked_add(*bytes)) {
                            (Some(i), Some(end)) if end <= size => *slot = i,
                            (_, end) => {
                                let end = end.unwrap_or(usize::MAX);
                                let err =
                                    ScheduleError::OutOfBounds { op: id, rank, buf, end, size };
                                return Err(err);
                            }
                        }
                    }
                    found.push(slots);
                }
                OpKind::Notify { from, to } => {
                    check_rank(id, *from)?;
                    check_rank(id, *to)?;
                    found.push([usize::MAX; 2]);
                }
            }
        }
        // Every access keyed `2 * slot` for a write, `2 * slot + 1` for a
        // read, in op order: grouped by key, a slot's writes and then its
        // reads lie side by side. Ends cannot overflow: the bounds check
        // above computed each one.
        let accesses =
            self.ops.iter().zip(&found).enumerate().flat_map(|(id, (op, &[src, dst]))| {
                let OpKind::Copy { src_off, dst_off, bytes, op: data_op, .. } = op.kind else {
                    return [None; 3];
                };
                let dst_end = dst_off + bytes;
                [
                    Some((2 * dst, (id, dst_off, dst_end, true))),
                    Some((2 * src + 1, (id, src_off, src_off + bytes, false))),
                    // A combine also reads its destination.
                    (data_op != DataOp::Move)
                        .then_some((2 * dst + 1, (id, dst_off, dst_end, false))),
                ]
            });
        let (start, mut by_slot) = group_by_key(2 * self.bufs.len(), accesses.flatten());
        let written = (0..self.bufs.len()).map(|s| start[2 * s + 1] > start[2 * s]).collect();
        let candidate_pairs = self.overlapping_pairs(&start, &mut by_slot);
        // The clock pass reads only the pairs: free the table first.
        drop((start, by_slot));
        self.check_write_races(&candidate_pairs)?;
        Ok((found, written))
    }

    /// Every pair of ops that touch overlapping bytes of one buffer, at
    /// least one of them writing: `(a, b, true)` for two writes, `(reader,
    /// writer, false)` otherwise. They come from an interval sweep per
    /// buffer (near linear for conflict-free schedules), in sweep order.
    ///
    /// `by_slot[start[2 * s]..start[2 * s + 2]]` holds slot `s`'s writes and
    /// then its reads, each in op order; the sweep sorts it in place.
    fn overlapping_pairs(
        &self,
        start: &[usize],
        by_slot: &mut [Access],
    ) -> Vec<(usize, usize, bool)> {
        // Combined sweep per written buffer, in slot (= key) order: sort all
        // accesses by start; every overlapping pair is discovered exactly
        // once, at its earlier-starting member (two intervals overlap iff the
        // later-starting one begins before the other ends).
        let mut candidate_pairs: Vec<(usize, usize, bool)> = Vec::new();
        for slot in (0..self.bufs.len()).filter(|&s| start[2 * s + 1] > start[2 * s]) {
            let accesses = &mut by_slot[start[2 * slot]..start[2 * slot + 2]];
            accesses.sort_unstable_by_key(|&(op, s, _, _)| (s, op));
            for i in 0..accesses.len() {
                let (op_a, _s_a, e_a, w_a) = accesses[i];
                for &(op_b, s_b, _e_b, w_b) in &accesses[i + 1..] {
                    if s_b >= e_a {
                        break;
                    }
                    if op_a == op_b || (!w_a && !w_b) {
                        continue; // self pair or read-read
                    }
                    if w_a && w_b {
                        candidate_pairs.push((op_a.min(op_b), op_a.max(op_b), true));
                    } else {
                        // (reader, writer) orientation for the error message.
                        let (rd, wr) = if w_a { (op_b, op_a) } else { (op_a, op_b) };
                        candidate_pairs.push((rd, wr, false));
                    }
                }
            }
        }
        candidate_pairs
    }

    /// Flags the first of `candidate_pairs` (see [`Self::overlapping_pairs`])
    /// whose ops are unordered.
    ///
    /// Whether a pair is ordered is read off happens-before clocks: one
    /// `u32` per chain of conflicting ops, one row per op that still has a
    /// dependent to come. Time is `(deps + candidates) x chains`, memory
    /// `live rows x chains`; neither grows with `ops x candidates`.
    fn check_write_races(
        &self,
        candidate_pairs: &[(usize, usize, bool)],
    ) -> Result<(), ScheduleError> {
        if candidate_pairs.is_empty() {
            return Ok(());
        }

        // Happens-before clocks over a greedy chain cover (DESIGN §5c). Deps
        // point backwards, so only the lower-numbered op of a pair can precede
        // the other: those ops are put on chains, each link a (transitive)
        // dependency, and `at` is their (lane, position), positions from 1
        // (set to 1 up front to mark the op, 0 for every other op).
        // clock[i][lane] is the last position on that chain that precedes or
        // is `i`.
        let n = self.ops.len();
        assert!(n < u32::MAX as usize, "clock entries are u32");
        let mut at = vec![(0u32, 0u32); n];
        // A pair is answered when the pass reaches its later op: `head` and
        // `next` list each op's pairs.
        let mut head = vec![usize::MAX; n];
        let mut next = vec![usize::MAX; candidate_pairs.len()];
        for (p, &(a, b, _)) in candidate_pairs.iter().enumerate() {
            at[a.min(b)].1 = 1;
            next[p] = std::mem::replace(&mut head[a.max(b)], p);
        }
        let mut last_use: Vec<OpId> = (0..n).collect();
        for i in 0..n {
            for &d in self.deps(i) {
                last_use[d] = i;
            }
        }
        let mut tails: Vec<u32> = Vec::new(); // per lane: its chain's last position
        let mut clock: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut pool: Vec<Vec<u32>> = Vec::new();
        let mut first_race = usize::MAX;
        for i in 0..n {
            let mut row = pool.pop().unwrap_or_default();
            row.clear();
            row.resize(tails.len(), 0);
            for &d in self.deps(i) {
                for (r, &c) in row.iter_mut().zip(&clock[d]) {
                    *r = (*r).max(c);
                }
                if last_use[d] == i {
                    // The row returns to the pool with its op's last dependent.
                    pool.push(std::mem::take(&mut clock[d]));
                }
            }
            if at[i].1 != 0 {
                // Extend a chain whose last op precedes `i`, else open one.
                let lane = (0..tails.len()).find(|&l| row[l] == tails[l]).unwrap_or_else(|| {
                    tails.push(0);
                    row.push(0);
                    tails.len() - 1
                });
                tails[lane] += 1;
                row[lane] = tails[lane];
                at[i] = (lane as u32, tails[lane]);
            }
            let mut p = head[i];
            while let Some(&(a, b, _)) = candidate_pairs.get(p) {
                let (lane, pos) = at[a.min(b)];
                if row[lane as usize] < pos {
                    first_race = first_race.min(p);
                }
                p = next[p];
            }
            if last_use[i] == i {
                pool.push(row);
            } else {
                clock[i] = row;
            }
        }
        match candidate_pairs.get(first_race) {
            None => Ok(()),
            Some(&(a, b, true)) => Err(ScheduleError::UnorderedOverlappingWrites { a, b }),
            Some(&(reader, writer, false)) => {
                Err(ScheduleError::UnorderedReadWrite { reader, writer })
            }
        }
    }
}

/// Incremental schedule construction; grows buffer sizes automatically.
/// Appending an op allocates nothing beyond the two vectors' own growth.
#[derive(Debug)]
pub struct ScheduleBuilder {
    name: String,
    num_ranks: usize,
    ops: Vec<Op>,
    deps: Vec<OpId>,
    /// `[Send, Recv, Temp(0)]` size per rank below `num_ranks` — the
    /// buffers nearly every copy names; `None` until first touched.
    rank_bufs: Vec<[Option<usize>; 3]>,
    /// Every other buffer, once per declaration: further temporaries, and
    /// whatever an out-of-range rank names (kept so `validate` can report
    /// the rank).
    other_bufs: Vec<((Rank, BufId), usize)>,
}

impl ScheduleBuilder {
    /// Starts an empty schedule for `num_ranks` ranks.
    pub fn new(name: impl Into<String>, num_ranks: usize) -> Self {
        ScheduleBuilder {
            name: name.into(),
            num_ranks,
            ops: Vec::new(),
            deps: Vec::new(),
            rank_bufs: vec![[None; 3]; num_ranks],
            other_bufs: Vec::new(),
        }
    }

    /// Makes room for exactly `ops` more ops holding `deps` more
    /// dependencies in all: no doubling copies and nothing for `finish` to
    /// shrink.
    pub fn reserve(&mut self, ops: usize, deps: usize) {
        self.ops.reserve_exact(ops);
        self.deps.reserve_exact(deps);
    }

    /// Declares (or widens) a buffer.
    #[inline]
    pub fn ensure_buf(&mut self, rank: Rank, buf: BufId, size: usize) {
        let slot = match (buf, self.rank_bufs.get_mut(rank)) {
            (BufId::Send, Some(bufs)) => &mut bufs[0],
            (BufId::Recv, Some(bufs)) => &mut bufs[1],
            (BufId::Temp(0), Some(bufs)) => &mut bufs[2],
            _ => return self.other_bufs.push(((rank, buf), size)),
        };
        *slot = Some(slot.map_or(size, |s| s.max(size)));
    }

    /// Appends a copy op and returns its id. Buffers grow to fit.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn copy(
        &mut self,
        src: (Rank, BufId, usize),
        dst: (Rank, BufId, usize),
        bytes: usize,
        mech: Mech,
        exec: Rank,
        deps: &[OpId],
    ) -> OpId {
        self.combine_with(src, dst, bytes, mech, exec, DataOp::Move, deps)
    }

    /// Appends a byte-wise wrapping-add combine and returns its id.
    #[allow(clippy::too_many_arguments)]
    pub fn combine(
        &mut self,
        src: (Rank, BufId, usize),
        dst: (Rank, BufId, usize),
        bytes: usize,
        mech: Mech,
        exec: Rank,
        deps: &[OpId],
    ) -> OpId {
        self.combine_with(src, dst, bytes, mech, exec, DataOp::Add, deps)
    }

    /// Appends an element-wise combine with an explicit operator
    /// ([`DataOp::Move`] makes it a copy).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn combine_with(
        &mut self,
        src: (Rank, BufId, usize),
        dst: (Rank, BufId, usize),
        bytes: usize,
        mech: Mech,
        exec: Rank,
        op: DataOp,
        deps: &[OpId],
    ) -> OpId {
        // A range ending past `usize::MAX` fits no buffer; `validate`
        // rejects the op, the declared size just stops at the top.
        self.ensure_buf(src.0, src.1, src.2.saturating_add(bytes));
        self.ensure_buf(dst.0, dst.1, dst.2.saturating_add(bytes));
        self.push(
            OpKind::Copy {
                src_rank: src.0,
                src_buf: src.1,
                src_off: src.2,
                dst_rank: dst.0,
                dst_buf: dst.1,
                dst_off: dst.2,
                bytes,
                mech,
                exec,
                op,
            },
            deps,
        )
    }

    /// Appends a notification op and returns its id.
    #[inline]
    pub fn notify(&mut self, from: Rank, to: Rank, deps: &[OpId]) -> OpId {
        self.push(OpKind::Notify { from, to }, deps)
    }

    #[inline]
    fn push(&mut self, kind: OpKind, deps: &[OpId]) -> OpId {
        let id = self.ops.len();
        if let [dep] = deps {
            self.deps.push(*dep)
        } else {
            self.deps.extend_from_slice(deps)
        }
        let deps_end =
            u32::try_from(self.deps.len()).expect("a schedule holds under 2^32 dependencies");
        self.ops.push(Op { kind, deps_end });
        id
    }

    /// Next op id to be assigned (useful for cross-referencing).
    pub fn next_id(&self) -> OpId {
        self.ops.len()
    }

    /// Finishes the schedule. Both vectors give back what doubling
    /// reserved past their length: on a 192-rank allgather that is
    /// megabytes of never-written heap per schedule, and which later
    /// allocation landed in it made a planner's resident set differ from
    /// run to run.
    ///
    /// The buffer table is one exact-size vector, filled in one pass that
    /// merges the per-rank array with the other buffers in key order.
    pub fn finish(mut self) -> Schedule {
        self.ops.shrink_to_fit();
        self.deps.shrink_to_fit();
        // By key, largest size first, so dedup keeps each key's largest.
        let mut others = self.other_bufs;
        others.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        others.dedup_by_key(|&mut (key, _)| key);
        let per_rank = self.rank_bufs.iter().enumerate().flat_map(|(rank, sizes)| {
            let touched = [BufId::Send, BufId::Recv, BufId::Temp(0)].into_iter().zip(sizes);
            touched.filter_map(move |(buf, &size)| Some(((rank, buf), size?)))
        });
        let mut bufs = Vec::with_capacity(per_rank.clone().count() + others.len());
        let mut others = others.into_iter().peekable();
        for entry in per_rank {
            bufs.extend(std::iter::from_fn(|| others.next_if(|other| other.0 < entry.0)));
            bufs.push(entry);
        }
        bufs.extend(others);
        Schedule {
            name: self.name,
            num_ranks: self.num_ranks,
            ops: self.ops,
            deps: self.deps,
            bufs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn copy_op(b: &mut ScheduleBuilder, src: Rank, dst: Rank, bytes: usize, deps: &[OpId]) -> OpId {
        b.copy((src, BufId::Send, 0), (dst, BufId::Recv, 0), bytes, Mech::Memcpy, dst, deps)
    }

    #[test]
    fn builder_grows_buffers() {
        let mut b = ScheduleBuilder::new("t", 2);
        b.copy((0, BufId::Send, 100), (1, BufId::Recv, 50), 10, Mech::Knem, 1, &[]);
        let s = b.finish();
        assert_eq!(s.bufs()[s.slot_of(0, BufId::Send).unwrap()].1, 110);
        assert_eq!(s.bufs()[s.slot_of(1, BufId::Recv).unwrap()].1, 60);
        assert_eq!(s.slot_of(1, BufId::Send), None);
        s.validate().unwrap();
    }

    #[test]
    fn validate_rejects_forward_dep() {
        let mut b = ScheduleBuilder::new("t", 2);
        let id = b.next_id();
        copy_op(&mut b, 0, 1, 8, &[id]); // self-dep
        assert_eq!(b.finish().validate(), Err(ScheduleError::ForwardDep { op: id, dep: id }));
    }

    #[test]
    fn validate_rejects_out_of_range_rank() {
        let mut b = ScheduleBuilder::new("t", 2);
        copy_op(&mut b, 0, 1, 8, &[]);
        let mut s = b.finish();
        s.num_ranks = 1;
        assert!(matches!(s.validate(), Err(ScheduleError::RankOutOfRange { .. })));
    }

    #[test]
    fn validate_rejects_empty_copy() {
        let mut b = ScheduleBuilder::new("t", 2);
        b.copy((0, BufId::Send, 0), (1, BufId::Recv, 0), 1, Mech::Memcpy, 1, &[]);
        let mut s = b.finish();
        if let OpKind::Copy { ref mut bytes, .. } = s.ops[0].kind {
            *bytes = 0;
        }
        assert_eq!(s.validate(), Err(ScheduleError::EmptyCopy { op: 0 }));
    }

    #[test]
    fn validate_rejects_out_of_bounds() {
        let mut b = ScheduleBuilder::new("t", 2);
        copy_op(&mut b, 0, 1, 8, &[]);
        let mut s = b.finish();
        let slot = s.slot_of(1, BufId::Recv).unwrap();
        s.bufs[slot].1 = 4;
        assert!(matches!(s.validate(), Err(ScheduleError::OutOfBounds { op: 0, .. })));
    }

    #[test]
    fn validate_detects_unordered_overlapping_writes() {
        let mut b = ScheduleBuilder::new("t", 3);
        copy_op(&mut b, 0, 2, 8, &[]);
        copy_op(&mut b, 1, 2, 8, &[]); // same dst range, no ordering
        let s = b.finish();
        assert_eq!(s.validate(), Err(ScheduleError::UnorderedOverlappingWrites { a: 0, b: 1 }));
    }

    #[test]
    fn ordered_overlapping_writes_are_fine() {
        let mut b = ScheduleBuilder::new("t", 3);
        let a = copy_op(&mut b, 0, 2, 8, &[]);
        copy_op(&mut b, 1, 2, 8, &[a]);
        b.finish().validate().unwrap();
    }

    #[test]
    fn transitively_ordered_writes_are_fine() {
        let mut b = ScheduleBuilder::new("t", 4);
        let a = copy_op(&mut b, 0, 3, 8, &[]);
        let n = b.notify(3, 1, &[a]);
        copy_op(&mut b, 1, 3, 8, &[n]);
        b.finish().validate().unwrap();
    }

    #[test]
    fn disjoint_writes_need_no_ordering() {
        let mut b = ScheduleBuilder::new("t", 3);
        b.copy((0, BufId::Send, 0), (2, BufId::Recv, 0), 8, Mech::Memcpy, 2, &[]);
        b.copy((1, BufId::Send, 0), (2, BufId::Recv, 8), 8, Mech::Memcpy, 2, &[]);
        b.finish().validate().unwrap();
    }

    #[test]
    fn totals() {
        let mut b = ScheduleBuilder::new("t", 2);
        copy_op(&mut b, 0, 1, 100, &[]);
        let n = b.notify(1, 0, &[0]);
        copy_op(&mut b, 1, 0, 50, &[n]);
        let s = b.finish();
        assert_eq!(s.ops.iter().map(|o| o.kind.bytes()).sum::<usize>(), 150);
        assert_eq!(s.num_copies(), 2);
        assert_eq!(s.ops[1].kind.executor(), 1);
        assert_eq!(s.ops[1].kind.bytes(), 0);
    }

    /// `src_off + bytes` past `usize::MAX` used to wrap to a small end (or
    /// panic in a debug build) and pass the bounds test.
    #[test]
    fn validate_rejects_a_range_that_overflows() {
        let mut b = ScheduleBuilder::new("t", 2);
        copy_op(&mut b, 0, 1, 8, &[]);
        let mut s = b.finish();
        s.validate().unwrap();
        if let OpKind::Copy { ref mut src_off, .. } = s.ops[0].kind {
            *src_off = usize::MAX - 3;
        }
        assert_eq!(
            s.validate(),
            Err(ScheduleError::OutOfBounds {
                op: 0,
                rank: 0,
                buf: BufId::Send,
                end: usize::MAX,
                size: 8
            })
        );
        // The builder declares what it can and leaves the verdict to validate.
        let mut b = ScheduleBuilder::new("t", 2);
        b.copy((0, BufId::Send, usize::MAX - 3), (1, BufId::Recv, 0), 8, Mech::Memcpy, 1, &[]);
        let s = b.finish();
        assert_eq!(s.bufs()[s.slot_of(0, BufId::Send).unwrap()].1, usize::MAX);
        assert!(matches!(s.validate(), Err(ScheduleError::OutOfBounds { op: 0, rank: 0, .. })));
    }

    #[test]
    fn deps_are_slices_of_one_arena_in_op_order() {
        let mut b = ScheduleBuilder::new("t", 4);
        let a = copy_op(&mut b, 0, 1, 8, &[]);
        let c = copy_op(&mut b, 0, 2, 8, &[]);
        let n = b.notify(1, 3, &[a, c]);
        let d = copy_op(&mut b, 0, 3, 8, &[n]);
        let s = b.finish();
        assert_eq!(s.deps(a), &[] as &[OpId]);
        assert_eq!(s.deps(c), &[] as &[OpId]);
        assert_eq!(s.deps(n), &[a, c]);
        assert_eq!(s.deps(d), &[n]);
        assert_eq!(s.deps, vec![a, c, n]);
        // The layout is canonical: equal content is equal bytes.
        assert_eq!(s.clone(), s);
        assert!(std::mem::size_of::<Op>() <= 80, "{} bytes", std::mem::size_of::<Op>());
    }

    #[test]
    fn builder_keeps_untouched_and_out_of_range_buffers_apart() {
        let mut b = ScheduleBuilder::new("t", 2);
        b.ensure_buf(0, BufId::Send, 0);
        b.ensure_buf(1, BufId::Temp(3), 5);
        b.ensure_buf(7, BufId::Recv, 9);
        b.ensure_buf(0, BufId::Temp(2), 1);
        b.ensure_buf(1, BufId::Temp(3), 2);
        b.ensure_buf(1, BufId::Recv, 4);
        let s = b.finish();
        // One sorted table: further temporaries after their rank's first
        // three, the largest size per key, out-of-range ranks last.
        assert_eq!(
            s.bufs(),
            [
                ((0, BufId::Send), 0),
                ((0, BufId::Temp(2)), 1),
                ((1, BufId::Recv), 4),
                ((1, BufId::Temp(3)), 5),
                ((7, BufId::Recv), 9)
            ]
        );
        assert_eq!(s.bufs.capacity(), 5, "one exact-size table");
        assert_eq!(s.slot_of(1, BufId::Temp(3)), Some(3));
        assert_eq!(s.slot_of(1, BufId::Send), None);
        assert_eq!(s.bufs()[s.slot_of(7, BufId::Recv).unwrap()].1, 9);
    }
}
