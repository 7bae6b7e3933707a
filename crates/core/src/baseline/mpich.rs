//! An MPICH2-style broadcast (the Figure 2 baseline).
//!
//! MPICH2 broadcasts short messages over a binomial tree and long ones with
//! the van de Geijn algorithm: a binomial **scatter** of message blocks
//! followed by a ring **allgather** — all in logical-rank space, which is
//! why Figure 2 shows a 35 % bandwidth swing between `rr` and `cpu`
//! bindings on Zoot.

use pdac_mpisim::p2p::{emit_send, P2pConfig};
use pdac_simnet::{BufId, OpId, Schedule, ScheduleBuilder};

use super::{bcast, block_range, vrank_to_rank};

/// MPICH-style decision parameters.
#[derive(Debug, Clone, Copy)]
pub struct MpichConfig {
    /// Point-to-point protocol parameters.
    pub p2p: P2pConfig,
    /// At or below this, broadcast binomially (MPICH's 12 KB default).
    pub bcast_short_max: usize,
}

impl Default for MpichConfig {
    fn default() -> Self {
        MpichConfig { p2p: P2pConfig::default(), bcast_short_max: 12 * 1024 }
    }
}

/// MPICH2-style broadcast: binomial below the threshold, van de Geijn
/// (scatter + ring allgather) above it.
pub fn bcast(n: usize, root: usize, bytes: usize, cfg: &MpichConfig) -> Schedule {
    let mut s = if bytes <= cfg.bcast_short_max || bytes < n || n == 1 {
        let mut s = bcast::binomial(n, root, bytes, &cfg.p2p);
        s.name = "binomial".into();
        s
    } else {
        scatter_ring_allgather(n, root, bytes, &cfg.p2p)
    };
    s.name = format!("mpich-bcast/{}", s.name);
    s
}

/// The van de Geijn long-message broadcast.
///
/// Phase 1 — binomial scatter in vrank space: a holder of blocks
/// `[v, v+e)` keeps the first `ceil(e/2)` and ships the rest to the first
/// rank of the second half, recursively; every rank ends up owning block
/// `v` at its absolute message offset.
///
/// Phase 2 — ring allgather: at step `k`, vrank `v` forwards block
/// `(v - k) mod n` to `v + 1`.
pub fn scatter_ring_allgather(n: usize, root: usize, bytes: usize, p2p: &P2pConfig) -> Schedule {
    assert!(n >= 2 && bytes >= n, "van de Geijn needs at least one byte per block");
    let mut b = ScheduleBuilder::new("vdg", n);
    b.ensure_buf(root, BufId::Send, bytes);
    let mut temp = 0u32;

    // Byte range of a span of blocks [from, to).
    let span_range = |from: usize, to: usize| {
        let (off, _) = block_range(bytes, n, from);
        let (end_off, end_len) = block_range(bytes, n, to - 1);
        (off, end_off + end_len - off)
    };

    // Phase 1: iterative halving over (owner vrank, extent, dependency).
    let mut stack: Vec<(usize, usize, Option<OpId>)> = vec![(0, n, None)];
    let mut scattered: Vec<Option<OpId>> = vec![None; n];
    while let Some((v, extent, dep)) = stack.pop() {
        if extent == 1 {
            scattered[v] = dep;
            continue;
        }
        let keep = extent.div_ceil(2);
        let peer = v + keep;
        let (off, len) = span_range(peer, v + extent);
        let src_buf = if v == 0 { BufId::Send } else { BufId::Recv };
        let ops = emit_send(
            &mut b,
            p2p,
            &mut temp,
            (vrank_to_rank(v, root, n), src_buf, off),
            (vrank_to_rank(peer, root, n), BufId::Recv, off),
            len,
            dep.as_slice(),
        );
        stack.push((v, keep, dep));
        stack.push((peer, extent - keep, Some(ops.arrival)));
    }

    // Phase 2: ring allgather of the blocks. arrival[v][blk] = op after
    // which vrank v holds block blk in its Recv buffer.
    let mut arrival: Vec<Vec<Option<OpId>>> = vec![vec![None; n]; n];
    for (v, item) in scattered.iter().enumerate() {
        arrival[v][v] = *item;
    }
    for k in 0..n - 1 {
        for v in 0..n {
            let to = (v + 1) % n;
            let blk = (v + n - k) % n;
            let (off, len) = block_range(bytes, n, blk);
            // Step 0 forwards the own block (the root's lives in Send);
            // later steps forward what arrived into Recv.
            let src_buf = if k == 0 && v == 0 { BufId::Send } else { BufId::Recv };
            let deps = arrival[v][blk].as_slice();
            let ops = emit_send(
                &mut b,
                p2p,
                &mut temp,
                (vrank_to_rank(v, root, n), src_buf, off),
                (vrank_to_rank(to, root, n), BufId::Recv, off),
                len,
                deps,
            );
            arrival[to][blk] = Some(ops.arrival);
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{verify, Collective, Request};

    #[test]
    fn short_messages_go_binomial() {
        let cfg = MpichConfig::default();
        let s = bcast(16, 0, 8192, &cfg);
        assert!(s.name.contains("binomial"));
        verify::run(Request::new(Collective::Bcast, 0, 8192), &s).unwrap();
    }

    #[test]
    fn long_messages_go_van_de_geijn() {
        let cfg = MpichConfig::default();
        let s = bcast(16, 0, 1 << 20, &cfg);
        assert!(s.name.contains("vdg"));
        s.validate().unwrap();
        verify::run(Request::new(Collective::Bcast, 0, 1 << 20), &s).unwrap();
    }

    #[test]
    fn vdg_correct_for_awkward_shapes() {
        for n in [2, 3, 7, 16, 48] {
            for root in [0, n - 1] {
                let bytes = 50_000 + n; // not divisible by n
                let s = scatter_ring_allgather(n, root, bytes, &P2pConfig::default());
                s.validate().unwrap();
                verify::run(Request::new(Collective::Bcast, root, bytes), &s)
                    .unwrap_or_else(|e| panic!("n={n} root={root}: {e}"));
            }
        }
    }

    #[test]
    fn vdg_scatter_is_logarithmic() {
        // Scatter phase sends: n-1 block spans over ceil(log2 n) levels;
        // check the root sends only ~log n times.
        let s = scatter_ring_allgather(16, 0, 1 << 20, &P2pConfig::default());
        let root_sends = s
            .ops
            .iter()
            .filter(|o| match o.kind {
                pdac_simnet::OpKind::Copy { src_rank, src_buf, .. } => {
                    src_rank == 0 && src_buf == BufId::Send
                }
                _ => false,
            })
            .count();
        // log2(16) scatter sends + the step-0 ring send of its own block.
        assert_eq!(root_sends, 4 + 1);
    }

    #[test]
    fn tiny_messages_fall_back_to_binomial() {
        // bytes < n cannot be block-scattered.
        let cfg = MpichConfig { bcast_short_max: 4, ..Default::default() };
        let s = bcast(32, 0, 16, &cfg);
        assert!(s.name.contains("binomial"));
        verify::run(Request::new(Collective::Bcast, 0, 16), &s).unwrap();
    }
}
