//! Rank-order broadcast baselines: binomial, pipelined chain and segmented
//! binary tree.
//!
//! All operate in vrank space (rank rotated so the root is vrank 0) and
//! move data with the SM/KNEM point-to-point fragments, so their simulated
//! cost includes the eager double-copy or the rendezvous handshake + KNEM
//! setup, like the real *tuned* component.

use pdac_mpisim::p2p::{emit_send, P2pConfig};
use pdac_simnet::{BufId, OpId, Schedule, ScheduleBuilder};

use super::vrank_to_rank;

/// Per-vrank source buffer: vrank 0 (the root) forwards its `Send` buffer,
/// everyone else forwards what landed in `Recv`.
fn src_buf(v: usize) -> BufId {
    if v == 0 {
        BufId::Send
    } else {
        BufId::Recv
    }
}

/// In-order binomial tree broadcast (the Figure 1 topology): rounds halve
/// the hole — with offset `o = 2^(q-1) .. 1`, every data-holding vrank
/// `v < o` sends the whole message to `v + o`.
pub fn binomial(n: usize, root: usize, bytes: usize, p2p: &P2pConfig) -> Schedule {
    let mut b = ScheduleBuilder::new("binomial-bcast", n);
    b.ensure_buf(root, BufId::Send, bytes);
    let mut temp = 0u32;
    let mut arrival: Vec<Option<OpId>> = vec![None; n];

    let mut offset = n.next_power_of_two() / 2;
    while offset >= 1 {
        // With descending offsets the data holders are the multiples of
        // 2 x offset (the root plus previous rounds' receivers); each feeds
        // the rank `offset` above it.
        for v in (0..n).step_by(2 * offset) {
            debug_assert!(v == 0 || arrival[v].is_some(), "vrank {v} must hold data");
            let peer = v + offset;
            if peer >= n {
                continue;
            }
            let deps = arrival[v].as_slice();
            let ops = emit_send(
                &mut b,
                p2p,
                &mut temp,
                (vrank_to_rank(v, root, n), src_buf(v), 0),
                (vrank_to_rank(peer, root, n), BufId::Recv, 0),
                bytes,
                deps,
            );
            arrival[peer] = Some(ops.arrival);
        }
        offset /= 2;
    }
    b.finish()
}

/// Pipelined chain: vrank `v` receives from `v-1` and forwards to `v+1`,
/// one `segment`-byte chunk at a time.
pub fn chain(n: usize, root: usize, bytes: usize, p2p: &P2pConfig, segment: usize) -> Schedule {
    assert!(segment > 0, "chain needs a positive segment size");
    let mut b = ScheduleBuilder::new("chain-bcast", n);
    b.ensure_buf(root, BufId::Send, bytes);
    let mut temp = 0u32;
    let nchunks = bytes.div_ceil(segment);

    // arrival[v][c] for the previous hop.
    let mut arrival: Vec<Option<OpId>> = vec![None; nchunks];
    for v in 0..n.saturating_sub(1) {
        let mut next: Vec<Option<OpId>> = vec![None; nchunks];
        for c in 0..nchunks {
            let off = c * segment;
            let len = segment.min(bytes - off);
            let deps = arrival[c].as_slice();
            let ops = emit_send(
                &mut b,
                p2p,
                &mut temp,
                (vrank_to_rank(v, root, n), src_buf(v), off),
                (vrank_to_rank(v + 1, root, n), BufId::Recv, off),
                len,
                deps,
            );
            next[c] = Some(ops.arrival);
        }
        arrival = next;
    }
    b.finish()
}

/// Segmented in-order binary tree: vrank `v`'s children are `2v+1` and
/// `2v+2`; each chunk is forwarded to both children on arrival. (Open MPI's
/// *tuned* uses a split-binary variant that halves the payload between the
/// subtrees and re-exchanges at the leaves; the plain segmented binary tree
/// keeps the same fan-out, depth and per-link traffic shape — see
/// DESIGN.md.)
pub fn binary(n: usize, root: usize, bytes: usize, p2p: &P2pConfig, segment: usize) -> Schedule {
    assert!(segment > 0, "binary tree needs a positive segment size");
    let mut b = ScheduleBuilder::new("binary-bcast", n);
    b.ensure_buf(root, BufId::Send, bytes);
    let mut temp = 0u32;
    let nchunks = bytes.div_ceil(segment);
    let mut arrival: Vec<Vec<Option<OpId>>> = vec![vec![None; nchunks]; n];

    // BFS over the implicit heap layout keeps op ids dependency-ordered.
    for v in 0..n {
        for child in [2 * v + 1, 2 * v + 2] {
            if child >= n {
                continue;
            }
            for c in 0..nchunks {
                let off = c * segment;
                let len = segment.min(bytes - off);
                let deps = arrival[v][c].as_slice();
                let ops = emit_send(
                    &mut b,
                    p2p,
                    &mut temp,
                    (vrank_to_rank(v, root, n), src_buf(v), off),
                    (vrank_to_rank(child, root, n), BufId::Recv, off),
                    len,
                    deps,
                );
                arrival[child][c] = Some(ops.arrival);
            }
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{verify, Collective, Request};

    const P2P: P2pConfig = P2pConfig { eager_max: 4096 };

    #[test]
    fn binomial_correct_all_roots_and_sizes() {
        for n in [1, 2, 3, 8, 13, 16] {
            for root in [0, n / 2, n - 1] {
                for bytes in [100, 4096, 100_000] {
                    let s = binomial(n, root, bytes, &P2P);
                    s.validate().unwrap();
                    verify::run(Request::new(Collective::Bcast, root, bytes), &s)
                        .unwrap_or_else(|e| panic!("n={n} root={root} bytes={bytes}: {e}"));
                }
            }
        }
    }

    #[test]
    fn binomial_is_figure1_shape() {
        // 8 ranks, root 0: round offsets 4, 2, 1 — the critical path is
        // 0 -> 4 -> 6 -> 7 (each edge crossing the longest distance when
        // placement pairs neighbours, as the paper's Figure 1 argues).
        let s = binomial(8, 0, 100_000, &P2P);
        // First transfer targets vrank 4.
        let first_copy = s
            .ops
            .iter()
            .find_map(|o| match o.kind {
                pdac_simnet::OpKind::Copy { dst_rank, .. } => Some(dst_rank),
                _ => None,
            })
            .unwrap();
        assert_eq!(first_copy, 4);
        assert_eq!(s.num_copies(), 7, "one rendezvous pull per non-root rank");
    }

    #[test]
    fn chain_correct_and_chunked() {
        let s = chain(8, 2, 300_000, &P2P, 65_536);
        s.validate().unwrap();
        verify::run(Request::new(Collective::Bcast, 2, 300_000), &s).unwrap();
        assert_eq!(s.num_copies(), 7 * 5, "7 hops x 5 chunks");
        // Degenerate single rank.
        chain(1, 0, 100, &P2P, 64).validate().unwrap();
    }

    #[test]
    fn binary_correct() {
        for n in [2, 5, 16] {
            let s = binary(n, 1 % n, 200_000, &P2P, 32_768);
            s.validate().unwrap();
            verify::run(Request::new(Collective::Bcast, 1 % n, 200_000), &s).unwrap();
        }
    }

    #[test]
    fn binary_fanout_at_most_two() {
        let s = binary(16, 0, 100_000, &P2P, 100_000);
        let mut fanout = [0usize; 16];
        for op in &s.ops {
            if let pdac_simnet::OpKind::Copy { src_rank, .. } = op.kind {
                fanout[src_rank] += 1;
            }
        }
        assert!(fanout.iter().all(|&f| f <= 2));
    }
}
