//! An Open MPI *tuned*-style decision layer.
//!
//! The tuned component picks a fixed topology from message size and
//! communicator size (§II: "these algorithms actually use 'fixed'
//! topologies decided by pre-defined fan-out and communicator size") — it
//! never looks at placement. The thresholds follow the shape of Open MPI's
//! defaults for intra-node runs: binomial for small messages, a segmented
//! binary tree for the mid range, a pipelined chain for large payloads;
//! recursive doubling vs ring for allgather.

use pdac_mpisim::p2p::P2pConfig;
use pdac_simnet::Schedule;

use super::{allgather, bcast};

/// Broadcast: at or below this, use the binomial tree.
const TUNED_BINOMIAL_MAX: usize = 4 * 1024;
/// Broadcast: at or below this (and above the binomial range), use the
/// segmented binary tree; above it, the pipelined chain.
const TUNED_BINARY_MAX: usize = 512 * 1024;
/// Segment size of the binary tree.
const TUNED_BINARY_SEGMENT: usize = 32 * 1024;
/// Segment size of the pipelined chain.
const TUNED_CHAIN_SEGMENT: usize = 128 * 1024;
/// Allgather: at or below this total payload (block x ranks), use
/// recursive doubling when the communicator is a power of two.
const TUNED_RECDBL_MAX_TOTAL: usize = 64 * 1024;

/// Which broadcast algorithm the decider would pick (exposed for tests and
/// the bench harness labels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BcastChoice {
    /// Binomial tree.
    Binomial,
    /// Segmented binary tree.
    Binary,
    /// Pipelined chain.
    Chain,
}

/// The broadcast decision function.
pub fn bcast_choice(bytes: usize) -> BcastChoice {
    if bytes <= TUNED_BINOMIAL_MAX {
        BcastChoice::Binomial
    } else if bytes <= TUNED_BINARY_MAX {
        BcastChoice::Binary
    } else {
        BcastChoice::Chain
    }
}

/// Tuned-style broadcast: decide, then build over logical ranks through
/// the `p2p` protocol stack.
pub fn bcast(n: usize, root: usize, bytes: usize, p2p: &P2pConfig) -> Schedule {
    let mut s = match bcast_choice(bytes) {
        BcastChoice::Binomial => bcast::binomial(n, root, bytes, p2p),
        BcastChoice::Binary => bcast::binary(n, root, bytes, p2p, TUNED_BINARY_SEGMENT),
        BcastChoice::Chain => bcast::chain(n, root, bytes, p2p, TUNED_CHAIN_SEGMENT),
    };
    s.name = format!("tuned-bcast/{}", s.name);
    s
}

/// Tuned-style allgather: recursive doubling for small power-of-two cases,
/// logical ring otherwise, through the `p2p` protocol stack.
pub fn allgather(n: usize, block_bytes: usize, p2p: &P2pConfig) -> Schedule {
    let total = block_bytes.saturating_mul(n);
    let mut s = if n.is_power_of_two() && total <= TUNED_RECDBL_MAX_TOTAL {
        allgather::recursive_doubling(n, block_bytes, p2p)
    } else {
        allgather::ring(n, block_bytes, p2p)
    };
    s.name = format!("tuned-allgather/{}", s.name);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{verify, Collective, Request};
    use pdac_simnet::{BufId, OpKind};

    #[test]
    fn decision_boundaries() {
        assert_eq!(bcast_choice(512), BcastChoice::Binomial);
        assert_eq!(bcast_choice(TUNED_BINOMIAL_MAX), BcastChoice::Binomial);
        assert_eq!(bcast_choice(TUNED_BINOMIAL_MAX + 1), BcastChoice::Binary);
        assert_eq!(bcast_choice(TUNED_BINARY_MAX), BcastChoice::Binary);
        assert_eq!(bcast_choice(TUNED_BINARY_MAX + 1), BcastChoice::Chain);
        assert_eq!(bcast_choice(1 << 20), BcastChoice::Chain);
        // The segment sizes (32 KiB is binary, 640 KiB a chain), read off
        // how many pieces reach rank 1: a whole number of segments, and
        // one byte past it.
        let p2p = P2pConfig::default();
        let pieces = |bytes| {
            let s = bcast(2, 0, bytes, &p2p);
            let ops = s.ops.iter().map(|o| &o.kind);
            ops.filter(|k| matches!(k, OpKind::Copy { dst_rank: 1, dst_buf: BufId::Recv, .. }))
                .count()
        };
        assert_eq!(pieces(TUNED_BINARY_SEGMENT), 1);
        assert_eq!(pieces(TUNED_BINARY_SEGMENT + 1), 2);
        assert_eq!(pieces(5 * TUNED_CHAIN_SEGMENT), 5);
        assert_eq!(pieces(5 * TUNED_CHAIN_SEGMENT + 1), 6);
        // Allgather: recursive doubling up to the total, the ring past it.
        let recdbl_block = TUNED_RECDBL_MAX_TOTAL / 16;
        assert!(allgather(16, recdbl_block, &p2p).name.contains("recdbl"));
        assert!(allgather(16, recdbl_block + 1, &p2p).name.contains("ring"));
    }

    #[test]
    fn tuned_bcast_correct_across_regimes() {
        for bytes in [512, 16_384, 2 << 20] {
            let s = bcast(48, 7, bytes, &P2pConfig::default());
            s.validate().unwrap();
            verify::run(Request::new(Collective::Bcast, 7, bytes), &s)
                .unwrap_or_else(|e| panic!("bytes={bytes}: {e}"));
        }
    }

    #[test]
    fn tuned_allgather_picks_recdbl_then_ring() {
        let p2p = P2pConfig::default();
        let small = allgather(16, 512, &p2p);
        assert!(small.name.contains("recdbl"));
        verify::run(Request::new(Collective::Allgather, 0, 512), &small).unwrap();
        let large = allgather(16, 100_000, &p2p);
        assert!(large.name.contains("ring"));
        verify::run(Request::new(Collective::Allgather, 0, 100_000), &large).unwrap();
        let odd = allgather(12, 512, &p2p);
        assert!(odd.name.contains("ring"), "non power of two always rings");
        verify::run(Request::new(Collective::Allgather, 0, 512), &odd).unwrap();
    }
}
