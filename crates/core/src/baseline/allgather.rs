//! Rank-order allgather baselines: logical ring and recursive doubling.

use pdac_mpisim::p2p::{emit_send, P2pConfig};
use pdac_simnet::{BufId, OpId, Schedule, ScheduleBuilder};

/// Logical-ring allgather: rank `r` pushes to `r+1 (mod n)`; at step `k`
/// it forwards block `(r - k) mod n`. Neighbours are *ranks*, so a
/// placement that separates consecutive ranks turns every step into remote
/// traffic — the tuned curve of Figure 7.
pub fn ring(n: usize, block_bytes: usize, p2p: &P2pConfig) -> Schedule {
    let mut b = ScheduleBuilder::new("ring-allgather", n);
    let mut temp = 0u32;

    // Every rank copies its own block in place first.
    let mut arrival: Vec<Vec<Option<OpId>>> = vec![vec![None; n]; n];
    for r in 0..n {
        let local = b.copy(
            (r, BufId::Send, 0),
            (r, BufId::Recv, r * block_bytes),
            block_bytes,
            pdac_simnet::Mech::Memcpy,
            r,
            &[],
        );
        arrival[r][r] = Some(local);
    }

    for k in 0..n.saturating_sub(1) {
        for r in 0..n {
            let to = (r + 1) % n;
            let block = (r + n - k) % n;
            let held = arrival[r][block].expect("block present from previous step");
            let ops = emit_send(
                &mut b,
                p2p,
                &mut temp,
                (r, BufId::Recv, block * block_bytes),
                (to, BufId::Recv, block * block_bytes),
                block_bytes,
                &[held],
            );
            arrival[to][block] = Some(ops.arrival);
        }
    }
    b.finish()
}

/// Recursive-doubling allgather for power-of-two communicators: at step
/// `k`, rank `r` exchanges its accumulated `2^k` blocks with `r XOR 2^k`.
/// Used by tuned-style deciders for small messages.
pub fn recursive_doubling(n: usize, block_bytes: usize, p2p: &P2pConfig) -> Schedule {
    assert!(n.is_power_of_two(), "recursive doubling needs a power-of-two communicator");
    let mut b = ScheduleBuilder::new("recdbl-allgather", n);
    let mut temp = 0u32;

    // ready[r]: ops that must complete before r's current group region
    // (the `span` blocks starting at its group base) is fully present.
    let mut ready: Vec<Vec<OpId>> = (0..n)
        .map(|r| {
            vec![b.copy(
                (r, BufId::Send, 0),
                (r, BufId::Recv, r * block_bytes),
                block_bytes,
                pdac_simnet::Mech::Memcpy,
                r,
                &[],
            )]
        })
        .collect();

    let mut span = 1usize;
    while span < n {
        let mut arrivals: Vec<OpId> = vec![0; n];
        for r in 0..n {
            let peer = r ^ span;
            // Send my current group's blocks [base, base + span) to peer.
            let base = r / span * span;
            let ops = emit_send(
                &mut b,
                p2p,
                &mut temp,
                (r, BufId::Recv, base * block_bytes),
                (peer, BufId::Recv, base * block_bytes),
                span * block_bytes,
                &ready[r],
            );
            arrivals[peer] = ops.arrival;
        }
        // The doubled group needs both the own half (already in ready) and
        // the received half.
        for r in 0..n {
            ready[r].push(arrivals[r]);
        }
        span *= 2;
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{verify, Collective, Request};

    const P2P: P2pConfig = P2pConfig { eager_max: 4096 };

    #[test]
    fn ring_correct_various_sizes() {
        for n in [1, 2, 3, 7, 16] {
            for block in [64, 4096, 50_000] {
                let s = ring(n, block, &P2P);
                s.validate().unwrap();
                verify::run(Request::new(Collective::Allgather, 0, block), &s)
                    .unwrap_or_else(|e| panic!("n={n} block={block}: {e}"));
            }
        }
    }

    #[test]
    fn ring_copy_count() {
        let s = ring(8, 100_000, &P2P);
        // 8 locals + 8 x 7 rendezvous forwards.
        assert_eq!(s.num_copies(), 8 + 56);
    }

    #[test]
    fn recursive_doubling_correct() {
        for n in [1, 2, 4, 8, 16] {
            for block in [100, 10_000] {
                let s = recursive_doubling(n, block, &P2P);
                s.validate().unwrap();
                verify::run(Request::new(Collective::Allgather, 0, block), &s)
                    .unwrap_or_else(|e| panic!("n={n} block={block}: {e}"));
            }
        }
    }

    #[test]
    fn recursive_doubling_step_count() {
        let s = recursive_doubling(16, 8192, &P2P);
        // 16 locals + 16 sends per round x 4 rounds (each send one
        // rendezvous copy, block >= eager threshold).
        assert_eq!(s.num_copies(), 16 + 64);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn recursive_doubling_rejects_non_power_of_two() {
        recursive_doubling(6, 100, &P2P);
    }
}
