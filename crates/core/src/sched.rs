//! Compiling topologies into executable schedules.
//!
//! The distance-aware collectives are *one-sided*: a process registers the
//! buffer it wants to expose, notifies the consumer out-of-band, and the
//! consumer performs a KNEM single-copy pull (§IV-B/IV-C). Large broadcast
//! messages are pipelined: the payload is split into chunks and a process
//! notifies its children as soon as one chunk has arrived, so transfers
//! overlap along tree paths.

use pdac_hwtopo::DistanceMatrix;
use pdac_simnet::{BufId, DataOp, Mech, OpId, Schedule, ScheduleBuilder};

use crate::allgather_ring::Ring;
use crate::tree::Tree;

/// Per-distance-class pipeline chunk sizes.
///
/// Near edges keep small chunks so tree levels overlap aggressively; far
/// edges pay a fixed per-chunk cost (KNEM setup, a notification round-trip)
/// that small chunks cannot amortize, so they ship larger chunks and let
/// the executor's double-buffered pipeline hide the boundary. Index is the
/// process-distance class `0..=8`; out-of-range classes clamp to 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkPolicy {
    /// Chunk size in bytes per distance class; `0` disables chunking for
    /// that class. Only messages larger than one chunk are split.
    pub per_distance: [usize; 9],
}

impl ChunkPolicy {
    /// The same chunk size for every distance class (`0` disables
    /// chunking everywhere) — the pre-policy behaviour.
    pub fn uniform(bytes: usize) -> Self {
        ChunkPolicy { per_distance: [bytes; 9] }
    }

    /// Chunk size for distance class `d` (clamped to class 8).
    pub fn chunk_for(&self, d: u8) -> usize {
        self.per_distance[(d as usize).min(8)]
    }
}

impl Default for ChunkPolicy {
    fn default() -> Self {
        // Chunk size tracks per-chunk edge cost (KNEM setup + wire
        // latency): the cheaper the edge, the finer the pipeline can
        // afford to be. d1/d2 (shared cache, same NUMA): 64K. d3..d6
        // (cross-NUMA/socket): 128K, the tuned uniform chunk. d7/d8
        // (off-node, microseconds of net latency per chunk): 256K.
        // Class 0 is a self-edge, which never appears in a collective
        // topology — it doubles as the "no distance information" slot the
        // legacy entry points use, and keeps the tuned 128K.
        ChunkPolicy {
            per_distance: [
                128 * 1024,
                64 * 1024,
                64 * 1024,
                128 * 1024,
                128 * 1024,
                128 * 1024,
                128 * 1024,
                256 * 1024,
                256 * 1024,
            ],
        }
    }
}

/// Schedule-generation knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedConfig {
    /// Pipeline chunk sizes per distance class for chunked collectives.
    /// Schedule builders that are not given a distance matrix use the
    /// class-0 entry for every edge.
    pub chunk: ChunkPolicy,
}

impl SchedConfig {
    /// A config with the same chunk size for every distance class (`0`
    /// disables chunking).
    pub fn uniform(bytes: usize) -> Self {
        SchedConfig { chunk: ChunkPolicy::uniform(bytes) }
    }
}

/// Splits `bytes` into pipeline chunks `(offset, len)`.
fn chunks(bytes: usize, chunk: usize) -> impl Iterator<Item = (usize, usize)> {
    let (n, chunk) = if chunk == 0 || bytes <= chunk {
        (1, bytes)
    } else {
        (bytes.div_ceil(chunk), chunk)
    };
    (0..n).map(move |c| (c * chunk, chunk.min(bytes - c * chunk)))
}

/// The `(offset, len)` pipeline spans a `bytes` payload splits into under
/// chunk size `chunk` — exactly what the schedule builders emit per edge.
/// `chunk == 0` (chunking disabled) or `bytes <= chunk` yields one span
/// covering the whole payload.
pub fn chunk_spans(bytes: usize, chunk: usize) -> Vec<(usize, usize)> {
    chunks(bytes, chunk).collect()
}

/// The chunk size for the edge `(a, b)`: the per-distance policy entry when
/// a matrix is supplied, the class-0 entry otherwise.
fn edge_chunk(cfg: &SchedConfig, distances: Option<&DistanceMatrix>, a: usize, b: usize) -> usize {
    let d = distances.map(|m| m.get(a, b)).unwrap_or(0);
    cfg.chunk.chunk_for(d)
}

/// An arrived byte interval of one rank: `(start, end, op)`. An edge whose
/// chunk grid differs from its parent's (the per-distance policy makes grids
/// heterogeneous across tree levels) must wait for every parent segment
/// covering its own chunk.
type Segment = (usize, usize, OpId);

/// Ops of `segs` overlapping the half-open interval `[start, end)`.
fn covering(segs: &[Segment], start: usize, end: usize) -> impl Iterator<Item = OpId> + '_ {
    segs.iter()
        .filter(move |&&(s, e, _)| s < end && e > start)
        .map(|&(_, _, op)| op)
}

/// Emits the pipelined broadcast down `tree` into `b`: per chunk, a parent
/// notifies each child once every segment covering the chunk has arrived
/// (and `gate[parent]` has completed, when a gate is given) and the child
/// pulls it with a KNEM single copy. The root sends out of `root_buf`,
/// everyone else forwards out of `Recv`.
fn emit_bcast(
    b: &mut ScheduleBuilder,
    tree: &Tree,
    bytes: usize,
    cfg: &SchedConfig,
    distances: Option<&DistanceMatrix>,
    root_buf: BufId,
    gate: Option<&[OpId]>,
) {
    // Every rank's arrived segments in arrival order, one edge after the
    // other: `arrived[r]` is rank `r`'s range of `segs`, empty at the root
    // (data available from t=0, so root-sourced chunks carry no arrival
    // deps) and filled before any edge out of `r` is emitted.
    let mut segs: Vec<Segment> = Vec::new();
    let mut arrived = vec![0..0; tree.len()];
    let mut deps: Vec<OpId> = Vec::new();
    for (parent, child) in tree.down_edges() {
        let src_buf = if parent == tree.root { root_buf } else { BufId::Recv };
        let first = segs.len();
        for (off, len) in chunks(bytes, edge_chunk(cfg, distances, parent, child)) {
            deps.clear();
            deps.extend(gate.map(|done| done[parent]));
            deps.extend(covering(&segs[arrived[parent].clone()], off, off + len));
            let ready = b.notify(parent, child, &deps);
            let pull = b.copy(
                (parent, src_buf, off),
                (child, BufId::Recv, off),
                len,
                Mech::Knem,
                child,
                &[ready],
            );
            segs.push((off, off + len, pull));
        }
        arrived[child] = first..segs.len();
    }
}

/// Distance-aware (or any tree-shaped) pipelined broadcast:
/// per chunk, a parent notifies each child once the chunk has arrived and
/// the child pulls it with a KNEM single copy. Every edge uses the class-0
/// chunk size; see [`bcast_schedule_dist`] for the per-distance policy.
pub fn bcast_schedule(tree: &Tree, bytes: usize, cfg: &SchedConfig) -> Schedule {
    bcast_schedule_dist(tree, bytes, cfg, None)
}

/// [`bcast_schedule`] with per-edge chunk sizing: each `(parent, child)`
/// edge splits the payload by its own distance class's chunk size, so far
/// edges ship fewer, larger chunks. Chunk grids differ across tree levels;
/// a child chunk waits on every parent segment covering its byte range.
pub fn bcast_schedule_dist(
    tree: &Tree,
    bytes: usize,
    cfg: &SchedConfig,
    distances: Option<&DistanceMatrix>,
) -> Schedule {
    let n = tree.len();
    let mut b = ScheduleBuilder::new("dist-bcast", n);
    b.ensure_buf(tree.root, BufId::Send, bytes);
    emit_bcast(&mut b, tree, bytes, cfg, distances, BufId::Send, None);
    b.finish()
}

/// Distance-aware allgather over a ring (Algorithm 2's execution, §IV-C):
/// each rank copies its own block in place, then performs `N-1` pull steps;
/// at step `k` it pulls from its left neighbour the block that neighbour
/// obtained at step `k-1`, notified out-of-band — an out-of-order pipeline.
pub fn allgather_schedule(ring: &Ring, block_bytes: usize) -> Schedule {
    allgather_schedule_dist(ring, block_bytes, None, None)
}

/// [`allgather_schedule`] with per-edge chunk sizing: each pull is split by
/// the ring edge's distance class (blocks at or below one chunk stay
/// whole), and the forwarding notification waits for the whole block. Pass
/// `cfg: None` (or no matrix) to keep pulls unchunked.
pub fn allgather_schedule_dist(
    ring: &Ring,
    block_bytes: usize,
    cfg: Option<&SchedConfig>,
    distances: Option<&DistanceMatrix>,
) -> Schedule {
    let n = ring.len();
    let mut b = ScheduleBuilder::new("dist-allgather", n);
    let chunk_into = |r: usize| cfg.map_or(0, |cfg| edge_chunk(cfg, distances, ring.left(r), r));
    // Every rank pulls n-1 blocks, each in its edge's pieces, and announces
    // all but the last: 2n² - n ops unchunked, known up front.
    let pieces: usize = (0..n).map(|r| chunks(block_bytes, chunk_into(r)).count()).sum();
    let num_ops = if n > 1 { 2 * n + (n - 1) * pieces + n * (n - 2) } else { 1 };
    b.reserve(num_ops, (2 * n).saturating_sub(3) * pieces + n);

    // Step (1): local copy of the own block at offset rank * block.
    let locals: Vec<OpId> = (0..n)
        .map(|r| {
            let own = (r, BufId::Recv, r * block_bytes);
            b.copy((r, BufId::Send, 0), own, block_bytes, Mech::Memcpy, r, &[])
        })
        .collect();
    let mut ready_notif: Vec<Option<OpId>> = (0..n)
        .map(|r| (n > 1).then(|| b.notify(r, ring.right(r), &[locals[r]])))
        .collect();

    // Steps (2)..(N): pull the travelling blocks.
    let mut pulls: Vec<OpId> = Vec::new();
    for k in 1..n {
        let mut next_notif: Vec<Option<OpId>> = vec![None; n];
        for r in 0..n {
            let left = ring.left(r);
            let owner = ring.left_k(r, k);
            let notif = ready_notif[left].expect("left neighbour notified");
            let base = owner * block_bytes;
            pulls.clear();
            pulls.extend(chunks(block_bytes, chunk_into(r)).map(|(off, len)| {
                b.copy(
                    (left, BufId::Recv, base + off),
                    (r, BufId::Recv, base + off),
                    len,
                    Mech::Knem,
                    r,
                    &[notif],
                )
            }));
            if k + 1 < n {
                next_notif[r] = Some(b.notify(r, ring.right(r), &pulls));
            }
        }
        ready_notif = next_notif;
    }
    debug_assert_eq!(b.next_id(), num_ops, "the reservation is exact");
    b.finish()
}

/// Distance-aware reduce over a tree: every rank seeds its accumulator with
/// its own contribution, then each parent combines its children's finished
/// subtree accumulators (KNEM pull + element-wise combine), deepest
/// subtrees first. The root's `Recv` holds the full reduction.
pub fn reduce_schedule(tree: &Tree, bytes: usize) -> Schedule {
    reduce_schedule_with_op(tree, bytes, DataOp::Add)
}

/// [`reduce_schedule`] with an explicit combine operator (typed reductions
/// for the MPI-facing session API).
pub fn reduce_schedule_with_op(tree: &Tree, bytes: usize, op: DataOp) -> Schedule {
    let mut b = ScheduleBuilder::new("dist-reduce", tree.len());
    emit_reduce(&mut b, tree, bytes, op);
    b.finish()
}

/// Emits the reduction up `tree` into `b`; returns per rank the op after
/// which its `Recv` holds its subtree's reduction.
fn emit_reduce(b: &mut ScheduleBuilder, tree: &Tree, bytes: usize, op: DataOp) -> Vec<OpId> {
    // Seed accumulators.
    let mut done: Vec<OpId> = (0..tree.len())
        .map(|r| b.copy((r, BufId::Send, 0), (r, BufId::Recv, 0), bytes, Mech::Memcpy, r, &[]))
        .collect();

    // Combine bottom-up: children before parents.
    for &p in tree.bfs_order().iter().rev() {
        for &c in &tree.children[p] {
            let ready = b.notify(c, p, &[done[c]]);
            let combine = b.combine_with(
                (c, BufId::Recv, 0),
                (p, BufId::Recv, 0),
                bytes,
                Mech::Knem,
                p,
                op,
                &[ready, done[p]],
            );
            done[p] = combine;
        }
    }
    done
}

/// Distance-aware allreduce: reduce to the root, then broadcast the result
/// back down the same tree. Phase-2 pulls are ordered after the root's
/// phase-1 completion through the notification chain.
pub fn allreduce_schedule(tree: &Tree, bytes: usize, cfg: &SchedConfig) -> Schedule {
    allreduce_schedule_with_op(tree, bytes, cfg, DataOp::Add)
}

/// [`allreduce_schedule`] with per-edge chunk sizing on the broadcast-down
/// phase (see [`bcast_schedule_dist`]).
pub fn allreduce_schedule_dist(
    tree: &Tree,
    bytes: usize,
    cfg: &SchedConfig,
    distances: Option<&DistanceMatrix>,
) -> Schedule {
    allreduce_schedule_dist_with_op(tree, bytes, cfg, distances, DataOp::Add)
}

/// [`allreduce_schedule`] with an explicit combine operator.
pub fn allreduce_schedule_with_op(
    tree: &Tree,
    bytes: usize,
    cfg: &SchedConfig,
    op: DataOp,
) -> Schedule {
    allreduce_schedule_dist_with_op(tree, bytes, cfg, None, op)
}

/// [`allreduce_schedule_dist`] with an explicit combine operator.
pub fn allreduce_schedule_dist_with_op(
    tree: &Tree,
    bytes: usize,
    cfg: &SchedConfig,
    distances: Option<&DistanceMatrix>,
    op: DataOp,
) -> Schedule {
    let mut b = ScheduleBuilder::new("dist-allreduce", tree.len());

    let done = emit_reduce(&mut b, tree, bytes, op);

    // Phase 2: pipelined broadcast of the root's accumulator. A parent's
    // notifications also carry the phase transition: its subtree
    // accumulation must be complete, and the child must have stopped
    // contributing (guaranteed transitively: the root's completion depends
    // on every combine).
    emit_bcast(&mut b, tree, bytes, cfg, distances, BufId::Recv, Some(&done));
    b.finish()
}

/// Gather in the KNEM-collective one-sided style: every rank exposes its
/// `Send` buffer; the root pulls block after block into `Recv` (its own
/// block is a local copy).
pub fn gather_schedule(root: usize, num_ranks: usize, block_bytes: usize) -> Schedule {
    let mut b = ScheduleBuilder::new("dist-gather", num_ranks);
    b.copy(
        (root, BufId::Send, 0),
        (root, BufId::Recv, root * block_bytes),
        block_bytes,
        Mech::Memcpy,
        root,
        &[],
    );
    for r in 0..num_ranks {
        if r == root {
            continue;
        }
        let ready = b.notify(r, root, &[]);
        b.copy(
            (r, BufId::Send, 0),
            (root, BufId::Recv, r * block_bytes),
            block_bytes,
            Mech::Knem,
            root,
            &[ready],
        );
    }
    b.finish()
}

/// Scatter in the KNEM-collective one-sided style: the root exposes its
/// `Send` buffer once; every rank pulls its own block concurrently —
/// there is no serialization at the root beyond the notifications.
pub fn scatter_schedule(root: usize, num_ranks: usize, block_bytes: usize) -> Schedule {
    let mut b = ScheduleBuilder::new("dist-scatter", num_ranks);
    b.copy(
        (root, BufId::Send, root * block_bytes),
        (root, BufId::Recv, 0),
        block_bytes,
        Mech::Memcpy,
        root,
        &[],
    );
    for r in 0..num_ranks {
        if r == root {
            continue;
        }
        let ready = b.notify(root, r, &[]);
        b.copy(
            (root, BufId::Send, r * block_bytes),
            (r, BufId::Recv, 0),
            block_bytes,
            Mech::Knem,
            r,
            &[ready],
        );
    }
    b.finish()
}

/// Barrier over a tree: notifications flow up to the root, then back down.
/// No payload moves; the schedule is pure control.
pub fn barrier_schedule(tree: &Tree) -> Schedule {
    let n = tree.len();
    let mut b = ScheduleBuilder::new("dist-barrier", n);

    // Up phase: a rank reports once all its children have reported.
    let mut up: Vec<Option<OpId>> = vec![None; n];
    let mut deps: Vec<OpId> = Vec::new();
    for &p in tree.bfs_order().iter().rev() {
        if p == tree.root {
            continue;
        }
        deps.clear();
        deps.extend(tree.children[p].iter().map(|&c| up[c].expect("children first")));
        up[p] = Some(b.notify(p, tree.parent[p].expect("non-root"), &deps));
    }

    // Down phase: release flows from the root.
    let mut down: Vec<Option<OpId>> = vec![None; n];
    for u in tree.bfs_order() {
        // The same list releases every child of `u`.
        deps.clear();
        deps.extend(tree.children[u].iter().filter_map(|&gc| up[gc]));
        deps.extend(down[u]);
        for &c in &tree.children[u] {
            down[c] = Some(b.notify(u, c, &deps));
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{verify, Collective, Request};
    use crate::allgather_ring::Ring;
    use crate::bcast_tree::build_bcast_tree;
    use pdac_hwtopo::{machines, BindingPolicy, DistanceMatrix};

    fn ig_matrix(policy: BindingPolicy) -> DistanceMatrix {
        let ig = machines::ig();
        let b = policy.bind(&ig, 48).unwrap();
        DistanceMatrix::for_binding(&ig, &b)
    }

    #[test]
    fn bcast_schedule_validates_and_counts() {
        let d = ig_matrix(BindingPolicy::Contiguous);
        let t = build_bcast_tree(&d, 0);
        let s = bcast_schedule(&t, 1 << 20, &SchedConfig::default());
        s.validate().unwrap();
        // 47 edges x 8 chunks of 128K: one pull + one notify each.
        assert_eq!(s.num_copies(), 47 * 8);
        assert_eq!(s.ops.len(), 47 * 8 * 2);
        assert_eq!(s.buf_size(0, BufId::Send), 1 << 20);
        assert_eq!(s.buf_size(1, BufId::Recv), 1 << 20);
    }

    #[test]
    fn bcast_small_message_single_chunk() {
        let d = ig_matrix(BindingPolicy::Contiguous);
        let t = build_bcast_tree(&d, 0);
        let s = bcast_schedule(&t, 512, &SchedConfig::default());
        s.validate().unwrap();
        assert_eq!(s.num_copies(), 47);
    }

    #[test]
    fn allgather_schedule_validates_and_counts() {
        let d = ig_matrix(BindingPolicy::CrossSocket);
        let r = Ring::build(&d);
        let s = allgather_schedule(&r, 4096);
        s.validate().unwrap();
        assert_eq!(s.num_copies(), 48 + 48 * 47, "locals + pulls");
        assert_eq!(s.buf_size(0, BufId::Recv), 48 * 4096);
    }

    #[test]
    fn allgather_two_ranks() {
        let d = DistanceMatrix::from_raw(2, vec![0, 1, 1, 0]);
        let r = Ring::build(&d);
        let s = allgather_schedule(&r, 100);
        s.validate().unwrap();
        assert_eq!(s.num_copies(), 4);
    }

    #[test]
    fn reduce_and_allreduce_validate() {
        let d = ig_matrix(BindingPolicy::Random { seed: 1 });
        let t = build_bcast_tree(&d, 5);
        reduce_schedule(&t, 8192).validate().unwrap();
        allreduce_schedule(&t, 1 << 20, &SchedConfig::default()).validate().unwrap();
    }

    #[test]
    fn gather_scatter_validate() {
        gather_schedule(3, 48, 4096).validate().unwrap();
        scatter_schedule(3, 48, 4096).validate().unwrap();
        // Root-only degenerate case.
        gather_schedule(0, 1, 64).validate().unwrap();
    }

    #[test]
    fn barrier_is_pure_control() {
        let d = ig_matrix(BindingPolicy::Contiguous);
        let t = build_bcast_tree(&d, 0);
        let s = barrier_schedule(&t);
        s.validate().unwrap();
        assert_eq!(s.num_copies(), 0);
        assert_eq!(s.total_bytes(), 0);
        assert_eq!(s.ops.len(), 2 * 47, "one up + one down notify per edge");
    }

    #[test]
    fn chunk_splitting() {
        assert_eq!(chunk_spans(100, 0), vec![(0, 100)]);
        assert_eq!(chunk_spans(100, 200), vec![(0, 100)]);
        assert_eq!(chunk_spans(300, 100), vec![(0, 100), (100, 100), (200, 100)]);
        assert_eq!(chunk_spans(250, 100), vec![(0, 100), (100, 100), (200, 50)]);
    }

    #[test]
    fn chunk_policy_clamps_and_grades() {
        let p = ChunkPolicy::default();
        assert_eq!(p.chunk_for(1), 64 * 1024);
        assert_eq!(p.chunk_for(6), 128 * 1024);
        assert_eq!(p.chunk_for(8), 256 * 1024);
        assert_eq!(p.chunk_for(200), 256 * 1024, "out-of-range clamps to 8");
        assert_eq!(ChunkPolicy::uniform(7).chunk_for(5), 7);
        // The non-dist entry points see the class-0 size everywhere.
        assert_eq!(SchedConfig::default().chunk.chunk_for(0), 128 * 1024);
    }

    #[test]
    fn covering_segments_intersect_half_open() {
        let segs: Vec<Segment> = vec![(0, 100, 1), (100, 200, 2), (200, 300, 3)];
        let covering = |start, end| covering(&segs, start, end).collect::<Vec<_>>();
        assert_eq!(covering(0, 100), vec![1]);
        assert_eq!(covering(50, 150), vec![1, 2]);
        assert_eq!(covering(100, 101), vec![2]);
        assert_eq!(covering(0, 300), vec![1, 2, 3]);
        assert!(covering(300, 400).is_empty());
    }

    #[test]
    fn bcast_dist_chunks_per_edge_distance_and_is_correct() {
        let d = ig_matrix(BindingPolicy::Random { seed: 9 });
        let t = build_bcast_tree(&d, 0);
        let bytes = 1 << 20;
        let cfg = SchedConfig::default();
        let s = bcast_schedule_dist(&t, bytes, &cfg, Some(&d));
        s.validate().unwrap();
        // One pull per chunk per edge, chunk size by edge distance.
        let expect: usize = t
            .down_edges()
            .iter()
            .map(|&(p, c)| bytes.div_ceil(cfg.chunk.chunk_for(d.get(p, c))))
            .sum();
        assert_eq!(s.num_copies(), expect);
        // A random binding mixes near and far edges, so the graded grid
        // differs from the uniform class-0 one.
        let uniform = 47 * bytes.div_ceil(cfg.chunk.chunk_for(0));
        assert_ne!(s.num_copies(), uniform, "{} pulls", s.num_copies());
        verify::run(Request::new(Collective::Bcast, 0, bytes), &s).unwrap();
    }

    #[test]
    fn allgather_dist_chunks_far_edges_and_is_correct() {
        let d = ig_matrix(BindingPolicy::Random { seed: 3 });
        let r = Ring::build(&d);
        let block = 300_000;
        let cfg = SchedConfig::default();
        let s = allgather_schedule_dist(&r, block, Some(&cfg), Some(&d));
        s.validate().unwrap();
        assert!(s.num_copies() > 48 + 48 * 47, "far pulls split into chunks");
        verify::run(Request::new(Collective::Allgather, 0, block), &s).unwrap();
        // Without a config the pulls stay whole (the legacy shape).
        let legacy = allgather_schedule_dist(&r, block, None, Some(&d));
        assert_eq!(legacy.num_copies(), 48 + 48 * 47);
    }

    #[test]
    fn allreduce_dist_validates_and_is_correct() {
        let d = ig_matrix(BindingPolicy::Random { seed: 5 });
        let t = build_bcast_tree(&d, 2);
        let s = allreduce_schedule_dist(&t, 1 << 20, &SchedConfig::default(), Some(&d));
        s.validate().unwrap();
        verify::run(Request::new(Collective::Allreduce, 0, 1 << 20), &s).unwrap();
    }

    #[test]
    fn dist_variant_with_no_matrix_matches_legacy_build() {
        let d = ig_matrix(BindingPolicy::Contiguous);
        let t = build_bcast_tree(&d, 0);
        let legacy = bcast_schedule(&t, 1 << 20, &SchedConfig::default());
        let dist = bcast_schedule_dist(&t, 1 << 20, &SchedConfig::default(), None);
        assert_eq!(legacy.ops.len(), dist.ops.len());
        assert_eq!(legacy.num_copies(), dist.num_copies());
    }
}
