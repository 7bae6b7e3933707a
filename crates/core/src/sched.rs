//! Compiling topologies into executable schedules.
//!
//! The distance-aware collectives are *one-sided*: a process registers the
//! buffer it wants to expose, notifies the consumer out-of-band, and the
//! consumer performs a KNEM single-copy pull (§IV-B/IV-C). Large broadcast
//! messages are pipelined: the payload is split into chunks and a process
//! notifies its children as soon as one chunk has arrived, so transfers
//! overlap along tree paths.

use std::ops::Range;

use pdac_hwtopo::DistanceMatrix;
use pdac_simnet::{BufId, DataOp, Mech, OpId, Schedule, ScheduleBuilder};

use crate::allgather_ring::Ring;
use crate::tree::Tree;

/// Per-distance-class pipeline chunk sizes.
///
/// Near edges keep small chunks so tree levels overlap aggressively; far
/// edges pay a fixed per-chunk cost (KNEM setup, a notification round-trip)
/// that small chunks cannot amortize, so they ship larger chunks and let
/// the simulator's two-deep same-edge pipeline hide the boundary. Index is the
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
    let (n, chunk) =
        if chunk == 0 || bytes <= chunk { (1, bytes) } else { (bytes.div_ceil(chunk), chunk) };
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

/// A child's chunks of a `bytes` payload (cut by `chunk`), each with the
/// indices of the parent's segments (cut by `parent_chunk`) it overlaps.
/// Both grids run in byte order, so this is a merge walk: the first
/// overlapped segment only moves forward.
fn covering(
    bytes: usize,
    parent_chunk: usize,
    chunk: usize,
) -> impl Iterator<Item = (usize, usize, Range<usize>)> {
    let seg = if parent_chunk == 0 || bytes <= parent_chunk { bytes.max(1) } else { parent_chunk };
    let mut first = 0;
    chunks(bytes, chunk).map(move |(off, len)| {
        while (first + 1) * seg <= off {
            first += 1;
        }
        let mut end = first;
        while end * seg < off + len {
            end += 1;
        }
        (off, len, first..end)
    })
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
    // Each rank's pull size, set by the edge from its parent. A chunk waits
    // on no root segment: the root's data is there from t=0.
    let chunk: Vec<usize> = (0..tree.len())
        .map(|r| tree.parent[r].map_or(0, |p| edge_chunk(cfg, distances, p, r)))
        .collect();
    let covered = |parent: usize, segs: Range<usize>| if parent == tree.root { 0..0 } else { segs };
    // Per chunk a notify (gate and covered segments) and a pull (notify).
    let edges = tree.down_edges();
    let (mut num_ops, mut num_deps) = (0, 0);
    for &(parent, child) in &edges {
        for (_, _, segs) in covering(bytes, chunk[parent], chunk[child]) {
            num_ops += 2;
            num_deps += 1 + usize::from(gate.is_some()) + covered(parent, segs).len();
        }
    }
    b.reserve(num_ops, num_deps);

    // Every rank's pulls in byte order, one edge after the other, from
    // `arrived[r]` on (set before any edge out of `r` is emitted).
    let mut pulls: Vec<OpId> = Vec::with_capacity(num_ops / 2);
    let mut arrived = vec![0; tree.len()];
    let mut deps: Vec<OpId> = Vec::new();
    for (parent, child) in edges {
        let src_buf = if parent == tree.root { root_buf } else { BufId::Recv };
        arrived[child] = pulls.len();
        for (off, len, segs) in covering(bytes, chunk[parent], chunk[child]) {
            deps.clear();
            deps.extend(gate.map(|done| done[parent]));
            deps.extend(covered(parent, segs).map(|i| pulls[arrived[parent] + i]));
            let ready = b.notify(parent, child, &deps);
            pulls.push(b.copy(
                (parent, src_buf, off),
                (child, BufId::Recv, off),
                len,
                Mech::Knem,
                child,
                &[ready],
            ));
        }
    }
}

/// Distance-aware (or any tree-shaped) pipelined broadcast: per chunk, a
/// parent notifies each child once the chunk has arrived and the child
/// pulls it with a KNEM single copy. Each `(parent, child)` edge splits the
/// payload by its own distance class's chunk size, so far edges ship
/// fewer, larger chunks; with no matrix every edge uses the class-0 size.
/// Chunk grids differ across tree levels; a child chunk waits on every
/// parent segment covering its byte range.
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
/// Each pull is split by the ring edge's distance class (blocks at or below
/// one chunk stay whole), and the forwarding notification waits for the
/// whole block. Pass `cfg: None` (or no matrix) to keep pulls unchunked.
pub fn allgather_schedule_dist(
    ring: &Ring,
    block_bytes: usize,
    cfg: Option<&SchedConfig>,
    distances: Option<&DistanceMatrix>,
) -> Schedule {
    let b = ScheduleBuilder::new("dist-allgather", ring.len());
    ring_allgather(b, ring, block_bytes, cfg, distances, |r| (r, BufId::Send, 0), None)
}

/// Emits Algorithm 2's ring walk into `b` and finishes the schedule: rank
/// `r` copies its own block from `own(r)` to `Recv[r * block..]` (after
/// `seed[r]`, when given), then pulls the `n-1` travelling blocks from its
/// left neighbour, each pull split by the edge's chunk size (see
/// [`allgather_schedule_dist`]). `finish` runs while the walk's scratch
/// vectors are still live: freeing them first lets its allocations land
/// in their place, a heap layout that raised the `plan_churn` benchmark's
/// peak RSS by 4 MiB in most runs on a 2-core x86-64 host.
pub(crate) fn ring_allgather(
    mut b: ScheduleBuilder,
    ring: &Ring,
    block_bytes: usize,
    cfg: Option<&SchedConfig>,
    distances: Option<&DistanceMatrix>,
    own: impl Fn(usize) -> (usize, BufId, usize),
    seed: Option<&[OpId]>,
) -> Schedule {
    let n = ring.len();
    // Each rank's pull size: its pulls cross the edge from its left.
    let chunk: Vec<usize> =
        (0..n).map(|r| cfg.map_or(0, |cfg| edge_chunk(cfg, distances, ring.left(r), r))).collect();
    // Every rank pulls n-1 blocks, each in its edge's pieces, and announces
    // all but the last: 2n² - n ops unchunked, known up front.
    let pieces: usize = chunk.iter().map(|&c| chunks(block_bytes, c).count()).sum();
    let num_ops = if n > 1 { 2 * n + (n - 1) * pieces + n * (n - 2) } else { n };
    let seeded = if seed.is_some() { n } else { 0 };
    b.reserve(num_ops, if n > 1 { (2 * n - 3) * pieces + n } else { 0 } + seeded);
    let first = b.next_id();

    // Step (1): local copy of the own block at offset rank * block.
    let locals: Vec<OpId> = (0..n)
        .map(|r| {
            let deps = seed.map(|done| done[r]);
            let dst = (r, BufId::Recv, r * block_bytes);
            b.copy(own(r), dst, block_bytes, Mech::Memcpy, r, deps.as_slice())
        })
        .collect();
    let mut ready_notif: Vec<OpId> =
        (0..n).filter(|_| n > 1).map(|r| b.notify(r, ring.right(r), &[locals[r]])).collect();

    // Steps (2)..(N): pull the travelling blocks; at step k a rank pulls
    // the block of the rank k steps to its left.
    let mut owner: Vec<usize> = (0..n).collect();
    let mut next_notif = ready_notif.clone();
    let mut pulls: Vec<OpId> = Vec::new();
    for k in 1..n {
        for r in 0..n {
            let left = ring.left(r);
            owner[r] = ring.left(owner[r]);
            let notif = ready_notif[left];
            let base = owner[r] * block_bytes;
            pulls.clear();
            pulls.extend(chunks(block_bytes, chunk[r]).map(|(off, len)| {
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
                next_notif[r] = b.notify(r, ring.right(r), &pulls);
            }
        }
        std::mem::swap(&mut ready_notif, &mut next_notif);
    }
    debug_assert_eq!(b.next_id() - first, num_ops, "the reservation is exact");
    b.finish()
}

/// Distance-aware reduce over a tree: every rank seeds its accumulator with
/// its own contribution, then each parent combines its children's finished
/// subtree accumulators (KNEM pull + element-wise combine), deepest
/// subtrees first, combining with `op`. The root's `Recv` holds the full
/// reduction.
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
/// phase-1 completion through the notification chain. Every edge of the
/// broadcast-down phase uses the class-0 chunk size, and the combine is
/// `op`; see [`allreduce_schedule_dist_with_op`] for both settings at once.
pub fn allreduce_schedule_with_op(
    tree: &Tree,
    bytes: usize,
    cfg: &SchedConfig,
    op: DataOp,
) -> Schedule {
    allreduce_schedule_dist_with_op(tree, bytes, cfg, None, op)
}

/// The distance-aware allreduce with per-edge chunk sizing on the
/// broadcast-down phase (see [`bcast_schedule_dist`]) and `DataOp::Add`.
pub fn allreduce_schedule_dist(
    tree: &Tree,
    bytes: usize,
    cfg: &SchedConfig,
    distances: Option<&DistanceMatrix>,
) -> Schedule {
    allreduce_schedule_dist_with_op(tree, bytes, cfg, distances, DataOp::Add)
}

/// The one tree allreduce builder: [`allreduce_schedule_dist`] with an
/// explicit combine operator.
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
    use crate::allgather_ring::Ring;
    use crate::bcast_tree::build_bcast_tree;
    use crate::{verify, Collective, Request};
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
        let s = bcast_schedule_dist(&t, 1 << 20, &SchedConfig::default(), None);
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
        let s = bcast_schedule_dist(&t, 512, &SchedConfig::default(), None);
        s.validate().unwrap();
        assert_eq!(s.num_copies(), 47);
    }

    #[test]
    fn allgather_schedule_validates_and_counts() {
        let d = ig_matrix(BindingPolicy::CrossSocket);
        let r = Ring::build(&d);
        let s = allgather_schedule_dist(&r, 4096, None, None);
        s.validate().unwrap();
        assert_eq!(s.num_copies(), 48 + 48 * 47, "locals + pulls");
        assert_eq!(s.buf_size(0, BufId::Recv), 48 * 4096);
    }

    #[test]
    fn allgather_two_ranks() {
        let d = DistanceMatrix::from_raw(2, vec![0, 1, 1, 0]);
        let r = Ring::build(&d);
        let s = allgather_schedule_dist(&r, 100, None, None);
        s.validate().unwrap();
        assert_eq!(s.num_copies(), 4);
    }

    #[test]
    fn reduce_and_allreduce_validate() {
        let d = ig_matrix(BindingPolicy::Random { seed: 1 });
        let t = build_bcast_tree(&d, 5);
        reduce_schedule_with_op(&t, 8192, DataOp::Add).validate().unwrap();
        allreduce_schedule_with_op(&t, 1 << 20, &SchedConfig::default(), DataOp::Add)
            .validate()
            .unwrap();
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
        // The oracle: every parent piece the half-open chunk intersects.
        // Grids that share boundaries, grids that never meet, one side
        // unchunked, an empty payload.
        for (bytes, parent, child) in [
            (300, 100, 50),
            (300, 50, 100),
            (300, 100, 150),
            (1000, 64, 100),
            (1000, 100, 64),
            (99, 0, 7),
            (0, 8, 4),
        ] {
            let walked: Vec<_> = covering(bytes, parent, child).collect();
            assert_eq!(walked.len(), chunk_spans(bytes, child).len());
            for (off, len, segs) in walked {
                let expect: Vec<usize> = (chunk_spans(bytes, parent).into_iter().enumerate())
                    .filter(|&(_, (s, l))| s < off + len && s + l > off)
                    .map(|(i, _)| i)
                    .collect();
                assert_eq!(segs.collect::<Vec<_>>(), expect, "{bytes} B: {off}+{len}");
            }
        }
        let segs = |bytes, parent, child| {
            covering(bytes, parent, child).map(|(_, _, s)| s).collect::<Vec<_>>()
        };
        assert_eq!(segs(300, 100, 150), vec![0..2, 1..3]);
        assert_eq!(segs(300, 150, 100), vec![0..1, 0..2, 1..2]);
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
}
