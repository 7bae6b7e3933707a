//! The rank-order baseline collectives the paper evaluates against.
//!
//! Everything here builds its topology from **logical MPI ranks** — exactly
//! the property that makes these algorithms placement-sensitive (§III). All
//! data movement goes through the point-to-point fragments of
//! [`pdac_mpisim::p2p`], i.e. through the same eager / rendezvous protocol
//! stack Open MPI's *tuned* component uses over the SM/KNEM BTL.
//!
//! * [`bcast`] — binomial, pipelined chain and segmented binary broadcast
//!   trees;
//! * [`allgather`] — logical-ring and recursive-doubling allgather;
//! * [`tuned`] — an Open MPI *tuned*-style decision function choosing among
//!   the above by message and communicator size;
//! * [`mpich`] — an MPICH2-style broadcast: binomial for short messages,
//!   binomial scatter + ring allgather (van de Geijn) for long ones.

pub mod allgather;
pub mod bcast;
pub mod mpich;
pub mod sm;
pub mod tuned;

/// Byte range of block `b` when `bytes` are split over `n` owners:
/// `floor` split with the remainder spread over the first blocks.
pub(crate) fn block_range(bytes: usize, n: usize, b: usize) -> (usize, usize) {
    let base = bytes / n;
    let rem = bytes % n;
    let off = b * base + b.min(rem);
    let len = base + usize::from(b < rem);
    (off, len)
}

/// Maps vrank (virtual rank, root-relative) to the real rank.
pub(crate) fn vrank_to_rank(v: usize, root: usize, n: usize) -> usize {
    (v + root) % n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_ranges_tile_the_message() {
        for (bytes, n) in [(100, 7), (4096, 48), (5, 8), (48, 48)] {
            let mut expect_off = 0;
            for b in 0..n {
                let (off, len) = block_range(bytes, n, b);
                assert_eq!(off, expect_off);
                expect_off += len;
            }
            assert_eq!(expect_off, bytes);
        }
    }

    #[test]
    fn vranks_rotate() {
        assert_eq!(vrank_to_rank(0, 5, 8), 5);
        assert_eq!(vrank_to_rank(3, 5, 8), 0);
        assert_eq!(vrank_to_rank(7, 0, 8), 7);
    }
}
