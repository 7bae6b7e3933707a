//! An "SM collective"-style baseline: pure shared-memory copy-in/copy-out.
//!
//! Open MPI's `sm` collective component (mentioned alongside KNEM in §VI)
//! moves every byte through small shared bounce buffers — two memory
//! traversals per hop, no kernel assistance. It is competitive for small
//! messages (no KNEM setup) and loses badly for large ones, which is
//! exactly the gap the KNEM component was built to close.

use pdac_mpisim::p2p::{emit_send_segmented, P2pConfig};
use pdac_simnet::{BufId, OpId, Schedule, ScheduleBuilder};

use super::vrank_to_rank;

/// Fragment size of the shared bounce buffers (Open MPI's `sm` defaults
/// are in the few-KB range).
pub const SM_FRAGMENT: usize = 8 * 1024;

/// Everything goes eager: copy-in/copy-out regardless of size.
fn sm_p2p() -> P2pConfig {
    P2pConfig { eager_max: usize::MAX }
}

/// Shared-memory binomial broadcast: the Figure-1 topology over bounce
/// buffers, fragmented so large messages pipeline through the small shared
/// segments.
pub fn bcast(n: usize, root: usize, bytes: usize) -> Schedule {
    let mut b = ScheduleBuilder::new("sm-bcast", n);
    b.ensure_buf(root, BufId::Send, bytes);
    let cfg = sm_p2p();
    let mut temp = 0u32;
    let nchunks = bytes.div_ceil(SM_FRAGMENT);
    // arrival[v][chunk]
    let mut arrival: Vec<Vec<Option<OpId>>> = vec![vec![None; nchunks]; n];

    let src_buf = |v: usize| if v == 0 { BufId::Send } else { BufId::Recv };
    let mut offset = n.next_power_of_two() / 2;
    while offset >= 1 {
        for v in (0..n).step_by(2 * offset) {
            let peer = v + offset;
            if peer >= n {
                continue;
            }
            let sends = emit_send_segmented(
                &mut b,
                &cfg,
                &mut temp,
                (vrank_to_rank(v, root, n), src_buf(v), 0),
                (vrank_to_rank(peer, root, n), BufId::Recv, 0),
                bytes,
                SM_FRAGMENT,
                |c| arrival[v][c].as_slice(),
            );
            for (c, s) in sends.iter().enumerate() {
                arrival[peer][c] = Some(s.arrival);
            }
        }
        offset /= 2;
    }
    b.finish()
}

/// Shared-memory ring allgather over bounce buffers.
pub fn allgather(n: usize, block_bytes: usize) -> Schedule {
    let mut b = ScheduleBuilder::new("sm-allgather", n);
    let cfg = sm_p2p();
    let mut temp = 0u32;

    // arrival[rank][block]: every op that must complete before the block is
    // fully present (one entry per fragment).
    let mut arrival: Vec<Vec<Vec<OpId>>> = vec![vec![Vec::new(); n]; n];
    for r in 0..n {
        let local = b.copy(
            (r, BufId::Send, 0),
            (r, BufId::Recv, r * block_bytes),
            block_bytes,
            pdac_simnet::Mech::Memcpy,
            r,
            &[],
        );
        arrival[r][r] = vec![local];
    }
    for k in 0..n.saturating_sub(1) {
        for r in 0..n {
            let to = (r + 1) % n;
            let block = (r + n - k) % n;
            assert!(!arrival[r][block].is_empty(), "block present from previous step");
            let sends = emit_send_segmented(
                &mut b,
                &cfg,
                &mut temp,
                (r, BufId::Recv, block * block_bytes),
                (to, BufId::Recv, block * block_bytes),
                block_bytes,
                SM_FRAGMENT,
                |_| &arrival[r][block],
            );
            arrival[to][block] = sends.iter().map(|s| s.arrival).collect();
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{verify, Collective, Request};
    use pdac_simnet::OpKind;

    #[test]
    fn sm_bcast_correct_and_kernel_free() {
        for (n, root, bytes) in [(8, 0, 4_000), (16, 5, 100_000), (3, 2, 8_192)] {
            let s = bcast(n, root, bytes);
            s.validate().unwrap();
            verify::run(Request::new(Collective::Bcast, root, bytes), &s)
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
            for op in &s.ops {
                if let OpKind::Copy { mech, .. } = op.kind {
                    assert_eq!(mech, pdac_simnet::Mech::Memcpy, "sm never enters the kernel");
                }
            }
        }
    }

    #[test]
    fn sm_allgather_correct() {
        for (n, block) in [(4, 1_000), (8, 20_000)] {
            let s = allgather(n, block);
            s.validate().unwrap();
            verify::run(Request::new(Collective::Allgather, 0, block), &s)
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn sm_moves_every_byte_twice() {
        // Copy-in + copy-out: total copied bytes = 2x payload.
        let s = bcast(4, 0, 10_000);
        assert_eq!(s.total_bytes(), 2 * 3 * 10_000, "3 receivers, two traversals each");
    }

    #[test]
    fn sm_loses_to_knem_for_large_messages() {
        use crate::adaptive::AdaptiveColl;
        use pdac_hwtopo::{machines, BindingPolicy};
        use pdac_mpisim::Communicator;
        use pdac_simnet::{SimConfig, SimExecutor};
        use std::sync::Arc;

        let ig = Arc::new(machines::ig());
        let binding = BindingPolicy::Contiguous.bind(&ig, 48).unwrap();
        let comm = Communicator::world(Arc::clone(&ig), binding.clone());
        let exec = SimExecutor::new(&ig, &binding, SimConfig { allow_cache: false });

        let bytes = 2 << 20;
        let t_sm = exec.run(&bcast(48, 0, bytes)).unwrap().total_time;
        let t_knem = exec.run(&AdaptiveColl.bcast(&comm, 0, bytes)).unwrap().total_time;
        assert!(
            t_knem < t_sm * 0.6,
            "KNEM must clearly win for 2MB: knem {t_knem:.4}s vs sm {t_sm:.4}s"
        );
    }
}
