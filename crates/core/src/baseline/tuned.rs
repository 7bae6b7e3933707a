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

/// Decision thresholds for the tuned-style component.
#[derive(Debug, Clone, Copy)]
pub struct TunedConfig {
    /// Point-to-point protocol parameters.
    pub p2p: P2pConfig,
    /// Broadcast: at or below this, use the binomial tree.
    pub bcast_small_max: usize,
    /// Broadcast: at or below this (and above small), segmented binary.
    pub bcast_binary_max: usize,
    /// Segment size of the binary tree.
    pub binary_segment: usize,
    /// Segment size of the pipelined chain.
    pub chain_segment: usize,
    /// Allgather: at or below this total payload (block x ranks), use
    /// recursive doubling when the communicator is a power of two.
    pub allgather_recdbl_max_total: usize,
}

impl Default for TunedConfig {
    fn default() -> Self {
        TunedConfig {
            p2p: P2pConfig::default(),
            bcast_small_max: 4096,
            bcast_binary_max: 512 * 1024,
            binary_segment: 32 * 1024,
            chain_segment: 128 * 1024,
            allgather_recdbl_max_total: 64 * 1024,
        }
    }
}

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
pub fn bcast_choice(cfg: &TunedConfig, _n: usize, bytes: usize) -> BcastChoice {
    if bytes <= cfg.bcast_small_max {
        BcastChoice::Binomial
    } else if bytes <= cfg.bcast_binary_max {
        BcastChoice::Binary
    } else {
        BcastChoice::Chain
    }
}

/// Tuned-style broadcast: decide, then build over logical ranks.
pub fn bcast(n: usize, root: usize, bytes: usize, cfg: &TunedConfig) -> Schedule {
    let mut s = match bcast_choice(cfg, n, bytes) {
        BcastChoice::Binomial => bcast::binomial(n, root, bytes, &cfg.p2p),
        BcastChoice::Binary => bcast::binary(n, root, bytes, &cfg.p2p, cfg.binary_segment),
        BcastChoice::Chain => bcast::chain(n, root, bytes, &cfg.p2p, cfg.chain_segment),
    };
    s.name = format!("tuned-bcast/{}", s.name);
    s
}

/// Tuned-style allgather: recursive doubling for small power-of-two cases,
/// logical ring otherwise.
pub fn allgather(n: usize, block_bytes: usize, cfg: &TunedConfig) -> Schedule {
    let total = block_bytes.saturating_mul(n);
    let mut s = if n.is_power_of_two() && total <= cfg.allgather_recdbl_max_total {
        allgather::recursive_doubling(n, block_bytes, &cfg.p2p)
    } else {
        allgather::ring(n, block_bytes, &cfg.p2p)
    };
    s.name = format!("tuned-allgather/{}", s.name);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{verify, Collective, Request};

    #[test]
    fn decision_boundaries() {
        let cfg = TunedConfig::default();
        assert_eq!(bcast_choice(&cfg, 48, 512), BcastChoice::Binomial);
        assert_eq!(bcast_choice(&cfg, 48, 4096), BcastChoice::Binomial);
        assert_eq!(bcast_choice(&cfg, 48, 8192), BcastChoice::Binary);
        assert_eq!(bcast_choice(&cfg, 48, 512 * 1024), BcastChoice::Binary);
        assert_eq!(bcast_choice(&cfg, 48, 1 << 20), BcastChoice::Chain);
    }

    #[test]
    fn tuned_bcast_correct_across_regimes() {
        let cfg = TunedConfig::default();
        for bytes in [512, 16_384, 2 << 20] {
            let s = bcast(48, 7, bytes, &cfg);
            s.validate().unwrap();
            verify::run(Request::new(Collective::Bcast, 7, bytes), &s)
                .unwrap_or_else(|e| panic!("bytes={bytes}: {e}"));
        }
    }

    #[test]
    fn tuned_allgather_picks_recdbl_then_ring() {
        let cfg = TunedConfig::default();
        let small = allgather(16, 512, &cfg);
        assert!(small.name.contains("recdbl"));
        verify::run(Request::new(Collective::Allgather, 0, 512), &small).unwrap();
        let large = allgather(16, 100_000, &cfg);
        assert!(large.name.contains("ring"));
        verify::run(Request::new(Collective::Allgather, 0, 100_000), &large).unwrap();
        let odd = allgather(12, 512, &cfg);
        assert!(odd.name.contains("ring"), "non power of two always rings");
        verify::run(Request::new(Collective::Allgather, 0, 512), &odd).unwrap();
    }
}
