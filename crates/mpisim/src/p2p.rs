//! Point-to-point protocol fragments.
//!
//! Open MPI's SM/KNEM BTL (the transport under the *tuned* baseline, §V-A)
//! moves small messages by **eager copy-in/copy-out** through a shared
//! bounce buffer (two memory traversals) and large messages by **rendezvous**:
//! the sender registers its buffer with KNEM and sends the cookie; the
//! receiver performs a one-sided single-copy pull and acknowledges.
//!
//! Both paths are emitted here as schedule fragments so that every baseline
//! collective built over point-to-point pays exactly these costs in the
//! simulator and exercises exactly these mechanisms under the thread
//! executor.

use pdac_simnet::{BufId, Mech, OpId, Rank, ScheduleBuilder};

/// Point-to-point protocol parameters.
#[derive(Debug, Clone, Copy)]
pub struct P2pConfig {
    /// Largest message sent eagerly; larger ones use rendezvous + KNEM.
    /// Open MPI's SM/KNEM BTL switches at 4 KB.
    pub eager_max: usize,
}

impl Default for P2pConfig {
    fn default() -> Self {
        P2pConfig { eager_max: 4096 }
    }
}

/// Ids of the interesting ops of an emitted send.
#[derive(Debug, Clone, Copy)]
pub struct SendOps {
    /// Completion of the data transfer at the receiver; depend on this
    /// before reading the destination range.
    pub arrival: OpId,
    /// Rendezvous acknowledgement back to the sender (`None` for eager
    /// sends); depend on this before reusing the source range.
    pub ack: Option<OpId>,
}

/// Emits one message from `src` to `dst`.
///
/// `temp_seq` allocates bounce-buffer ids unique within the schedule; pass
/// the same counter through all fragments of one schedule.
pub fn emit_send(
    b: &mut ScheduleBuilder,
    cfg: &P2pConfig,
    temp_seq: &mut u32,
    src: (Rank, BufId, usize),
    dst: (Rank, BufId, usize),
    bytes: usize,
    deps: &[OpId],
) -> SendOps {
    let (src_rank, ..) = src;
    let (dst_rank, ..) = dst;
    if bytes <= cfg.eager_max {
        // Copy-in by the sender into a bounce buffer on its own NUMA node,
        // copy-out by the receiver: two traversals.
        let bounce = BufId::Temp(*temp_seq);
        *temp_seq += 1;
        let copy_in = b.copy(src, (src_rank, bounce, 0), bytes, Mech::Memcpy, src_rank, deps);
        let copy_out =
            b.copy((src_rank, bounce, 0), dst, bytes, Mech::Memcpy, dst_rank, &[copy_in]);
        SendOps { arrival: copy_out, ack: None }
    } else {
        // Rendezvous: RTS carrying the cookie, single-copy pull by the
        // receiver, acknowledgement releasing the sender's buffer.
        let rts = b.notify(src_rank, dst_rank, deps);
        let pull = b.copy(src, dst, bytes, Mech::Knem, dst_rank, &[rts]);
        let ack = b.notify(dst_rank, src_rank, &[pull]);
        SendOps { arrival: pull, ack: Some(ack) }
    }
}

/// Emits a message split into `segments` pipeline chunks (rendezvous path
/// per chunk); returns the per-chunk arrival ops in offset order. Chunk `c`
/// waits for `chunk_deps(c)`.
///
/// Used by the segmented baselines (pipeline chain, split-binary) — each
/// chunk can be forwarded downstream as soon as it arrives.
#[allow(clippy::too_many_arguments)]
pub fn emit_send_segmented<'d>(
    b: &mut ScheduleBuilder,
    cfg: &P2pConfig,
    temp_seq: &mut u32,
    src: (Rank, BufId, usize),
    dst: (Rank, BufId, usize),
    bytes: usize,
    segment: usize,
    chunk_deps: impl Fn(usize) -> &'d [OpId],
) -> Vec<SendOps> {
    assert!(segment > 0, "segment size must be positive");
    let nchunks = bytes.div_ceil(segment);
    let mut out = Vec::with_capacity(nchunks);
    for c in 0..nchunks {
        let off = c * segment;
        let len = segment.min(bytes - off);
        out.push(emit_send(
            b,
            cfg,
            temp_seq,
            (src.0, src.1, src.2 + off),
            (dst.0, dst.1, dst.2 + off),
            len,
            chunk_deps(c),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdac_simnet::OpKind;

    #[test]
    fn small_message_goes_eager() {
        let mut b = ScheduleBuilder::new("t", 2);
        let mut seq = 0;
        let ops = emit_send(
            &mut b,
            &P2pConfig::default(),
            &mut seq,
            (0, BufId::Send, 0),
            (1, BufId::Recv, 0),
            4096,
            &[],
        );
        assert!(ops.ack.is_none());
        let s = b.finish();
        s.validate().unwrap();
        assert_eq!(s.ops.len(), 2);
        assert!(matches!(s.ops[0].kind, OpKind::Copy { mech: Mech::Memcpy, exec: 0, .. }));
        assert!(matches!(s.ops[1].kind, OpKind::Copy { mech: Mech::Memcpy, exec: 1, .. }));
        assert_eq!(seq, 1, "one bounce buffer allocated");
    }

    #[test]
    fn large_message_goes_rendezvous() {
        let mut b = ScheduleBuilder::new("t", 2);
        let mut seq = 0;
        let ops = emit_send(
            &mut b,
            &P2pConfig::default(),
            &mut seq,
            (0, BufId::Send, 0),
            (1, BufId::Recv, 0),
            4097,
            &[],
        );
        let s = b.finish();
        s.validate().unwrap();
        assert_eq!(s.ops.len(), 3);
        assert!(matches!(s.ops[0].kind, OpKind::Notify { from: 0, to: 1 }));
        assert!(matches!(s.ops[1].kind, OpKind::Copy { mech: Mech::Knem, exec: 1, .. }));
        assert!(matches!(s.ops[2].kind, OpKind::Notify { from: 1, to: 0 }));
        assert_eq!(ops.arrival, 1);
        assert_eq!(ops.ack, Some(2));
        assert_eq!(seq, 0, "no bounce buffer for rendezvous");
    }

    #[test]
    fn segmented_send_chunks_offsets() {
        let mut b = ScheduleBuilder::new("t", 2);
        let mut seq = 0;
        let chunks = emit_send_segmented(
            &mut b,
            &P2pConfig::default(),
            &mut seq,
            (0, BufId::Send, 0),
            (1, BufId::Recv, 0),
            100_000,
            32_768,
            |_| &[],
        );
        assert_eq!(chunks.len(), 4, "3 full chunks + remainder");
        let s = b.finish();
        s.validate().unwrap();
        // Last chunk covers the remainder exactly — and being under the
        // eager threshold it went through a bounce buffer.
        let last = chunks.last().unwrap();
        assert!(last.ack.is_none(), "remainder chunk is eager");
        match s.ops[last.arrival].kind {
            OpKind::Copy { dst_off, bytes, .. } => {
                assert_eq!(dst_off, 3 * 32_768);
                assert_eq!(bytes, 100_000 - 3 * 32_768);
            }
            _ => panic!("expected copy"),
        }
        assert_eq!(s.bufs()[s.slot_of(1, BufId::Recv).unwrap()].1, 100_000);
    }

    #[test]
    fn eager_threshold_is_configurable() {
        let mut b = ScheduleBuilder::new("t", 2);
        let mut seq = 0;
        let cfg = P2pConfig { eager_max: 0 };
        let ops =
            emit_send(&mut b, &cfg, &mut seq, (0, BufId::Send, 0), (1, BufId::Recv, 0), 1, &[]);
        assert!(ops.ack.is_some(), "everything rendezvous at threshold 0");
    }
}
