//! The one-sided transport: one device behind the [`Transport`] seam.
//!
//! The paper's core claim is that distance-aware *mechanism selection*
//! beats any fixed transport. A schedule says `Mech::Knem` ("one-sided
//! pull"), and the executor maps that mechanism onto the transport it was
//! configured with — so plans stay distance-aware whichever
//! [`TransportKind`] moves the bytes.
//!
//! The protocol is the four-verb shape both real stacks share:
//!
//! * **register** — expose the source range under the run's communicator
//!   epoch (KNEM: cookie registration; RDMA: memory-region + rkey);
//! * **tx** — perform the data movement for a registered transfer
//!   (KNEM: single-copy pull through the kernel; RDMA: post pipelined
//!   `RDMA_READ` work requests to the peer's queue pair);
//! * **complete** — retire the transfer (KNEM: deregister the cookie;
//!   RDMA: poll the completion queue and release the region);
//! * **fence** — raise the epoch fence so stragglers of a dead epoch are
//!   rejected with [`KnemError::StaleEpoch`], never delivered into a
//!   rebuilt topology.
//!
//! There is one implementation, over the crate-private region table. What a
//! kind changes is data: whether the first transfer between a rank pair
//! pays a connection set-up (the RDMA queue-pair ladder, `RESET → INIT →
//! RTR → RTS`, walked once per unordered pair), whether a transfer is cut
//! into [`SEGMENT_BYTES`] work requests, and the telemetry vocabulary. This
//! is the scope of the ring process groups of verbs-era training runtimes:
//! bring-up once per neighbour pair, MTU-sized work requests after it.
//!
//! [`Transport`] stays a trait so a test can put a fake in front of the
//! executor (a transport that panics, one that counts).

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use pdac_simnet::{BufId, Rank};

use crate::knem::{DeviceFault, KnemError, KnemStats};
use crate::region::{RegionLabels, RegionTable};

/// Transport failures: `BadCookie` doubles as "work request flushed",
/// `OutOfRegion` as a local protection fault, and `StaleEpoch` keeps its
/// meaning verbatim.
pub type TransportError = KnemError;

/// Work-request granularity of [`TransportKind::Rdma`]: a transfer longer
/// than this is posted as back-to-back segments (the common 4 KB RDMA MTU).
pub const SEGMENT_BYTES: usize = 4096;

/// Opaque per-transfer handle returned by [`Transport::register`] — the
/// KNEM cookie, the RDMA memory-region key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxToken(pub(crate) u64);

/// A one-sided data-movement backend the [`crate::ThreadExecutor`] can
/// drive for `Mech::Knem` copies.
///
/// Implementations must be thread-safe: every executor worker registers and
/// pulls concurrently. Epoch-fence semantics are part of the contract —
/// `register`/`tx` with an epoch below the fence must fail with
/// [`TransportError::StaleEpoch`] and count the rejection, so the
/// membership/recovery pipeline is transport-agnostic.
pub trait Transport: Send + Sync + std::fmt::Debug {
    /// Short backend name ("knem", "rdma") for labels and reports.
    fn name(&self) -> &'static str;

    /// Exposes `len` bytes at `offset` of `(rank, buf)` under `epoch`.
    /// Fails with [`TransportError::StaleEpoch`] when `epoch` is already
    /// fenced.
    fn register(
        &self,
        rank: Rank,
        buf: BufId,
        offset: usize,
        len: usize,
        epoch: u64,
    ) -> Result<TxToken, TransportError>;

    /// Performs the data movement of `len` bytes starting `offset` bytes
    /// into the registered transfer, initiated by `peer` (the pulling
    /// rank). Returns the absolute `(rank, buf, byte offset)` source
    /// location the caller copies the bytes from; the executor fails the
    /// op unless it is exactly the location the op names.
    fn tx(
        &self,
        token: TxToken,
        peer: Rank,
        offset: usize,
        len: usize,
    ) -> Result<(Rank, BufId, usize), TransportError>;

    /// Retires a transfer: later `tx` calls with the token fail.
    fn complete(&self, token: TxToken) -> Result<(), TransportError>;

    /// Raises the epoch fence to `min_valid_epoch` (monotone: it never
    /// lowers). Operations stamped below it are rejected afterwards.
    fn fence_epochs_below(&self, min_valid_epoch: u64);

    /// Stale-epoch operations rejected so far.
    fn fenced_messages(&self) -> u64;

    /// Usage counters over the transport's lifetime.
    fn stats(&self) -> KnemStats;

    /// The full one-sided pull protocol: register → tx → complete. The
    /// token is only retired on success — a failed tx leaves the region
    /// registered, matching the retry discipline of the executor (which
    /// re-registers on every attempt).
    fn pull(
        &self,
        rank: Rank,
        buf: BufId,
        offset: usize,
        len: usize,
        epoch: u64,
        peer: Rank,
    ) -> Result<(Rank, BufId, usize), TransportError> {
        let token = self.register(rank, buf, offset, len, epoch)?;
        let loc = self.tx(token, peer, 0, len)?;
        self.complete(token).expect("transfer registered just above");
        Ok(loc)
    }
}

/// Which one-sided mechanism the device models — the coarse switch chaos
/// harnesses and benchmark scenarios are parameterized over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Kernel-assisted single-copy: no per-peer state, any length is one
    /// copy.
    #[default]
    Knem,
    /// RDMA-style queue pairs: a handshake on first contact between a rank
    /// pair, then [`SEGMENT_BYTES`] work requests.
    Rdma,
}

/// What a [`TransportKind`] sets on the device.
#[derive(Debug, Clone, Copy)]
struct KindModel {
    labels: RegionLabels,
    /// The first transfer between an unordered rank pair pays a connection
    /// set-up.
    per_peer_setup: bool,
    /// Transfers are posted in units of this many bytes (`None`: any length
    /// is one unit).
    segment: Option<usize>,
}

impl TransportKind {
    /// Short label ("knem", "rdma") for scenario ids and reports.
    pub fn label(&self) -> &'static str {
        self.model().labels.category
    }

    /// The simulator cost model charging this backend's setup costs, so a
    /// harness can keep its timing leg consistent with its execution leg.
    pub fn sim_model(&self) -> pdac_simnet::TransportModel {
        match self {
            TransportKind::Knem => pdac_simnet::TransportModel::Knem,
            TransportKind::Rdma => pdac_simnet::TransportModel::Rdma,
        }
    }

    /// Instantiates a fresh device of this kind, optionally with a failure
    /// window.
    pub fn create(&self, faults: Option<DeviceFault>) -> Arc<dyn Transport> {
        Arc::new(Device::new(*self, faults))
    }

    fn model(&self) -> KindModel {
        match self {
            TransportKind::Knem => KindModel {
                labels: RegionLabels {
                    category: "knem",
                    register_event: "knem_register",
                    fault_event: "knem_pull_fault",
                    handle_key: "cookie",
                },
                per_peer_setup: false,
                segment: None,
            },
            TransportKind::Rdma => KindModel {
                labels: RegionLabels {
                    category: "rdma",
                    register_event: "mr_register",
                    fault_event: "wqe_flush",
                    handle_key: "mr",
                },
                per_peer_setup: true,
                segment: Some(SEGMENT_BYTES),
            },
        }
    }
}

/// The simulated device. Thread-safe: ranks register and pull concurrently;
/// only same-shard region operations and first-contact checks serialize.
///
/// It reproduces the *interface contract*, not the silicon: regions are
/// registered with epoch stamps, transfers validate bounds and epoch, and
/// counters make the protocol observable in tests (copies, handshakes per
/// pair, segments per transfer, fence rejections).
#[derive(Debug)]
struct Device {
    model: KindModel,
    table: RegionTable,
    /// Unordered rank pairs that have exchanged a transfer, as
    /// `(low, high)`; filled only when the kind has a per-peer set-up.
    connected: Mutex<HashSet<(Rank, Rank)>>,
    copies: AtomicU64,
    bytes_copied: AtomicU64,
    handshakes: AtomicU64,
    segments: AtomicU64,
}

impl Device {
    fn new(kind: TransportKind, faults: Option<DeviceFault>) -> Self {
        let model = kind.model();
        Device {
            model,
            table: RegionTable::new(model.labels, faults),
            connected: Mutex::default(),
            copies: AtomicU64::new(0),
            bytes_copied: AtomicU64::new(0),
            handshakes: AtomicU64::new(0),
            segments: AtomicU64::new(0),
        }
    }
}

impl Transport for Device {
    fn name(&self) -> &'static str {
        self.model.labels.category
    }

    fn register(
        &self,
        rank: Rank,
        buf: BufId,
        offset: usize,
        len: usize,
        epoch: u64,
    ) -> Result<TxToken, TransportError> {
        self.table.register_epoch(rank, buf, offset, len, epoch).map(TxToken)
    }

    fn tx(
        &self,
        token: TxToken,
        peer: Rank,
        offset: usize,
        len: usize,
    ) -> Result<(Rank, BufId, usize), TransportError> {
        // The lookup also applies the injected-fault budget *before* any
        // connection work: a flushed transfer never connects a pair.
        let (rank, buf, src_off) = self.table.lookup(token.0, offset, len)?;
        if self.model.per_peer_setup {
            self.table.count_lock_acquire();
            if self.connected.lock().insert((rank.min(peer), rank.max(peer))) {
                // One handshake per pair: the bootstrap exchange (QPN,
                // start PSN, path info) that brings both directions to RTS.
                self.handshakes.fetch_add(1, Ordering::Relaxed);
                pdac_telemetry::global().recorder().instant(
                    rank as u64,
                    self.model.labels.category,
                    || format!("qp handshake {rank}<->{peer} (RESET->INIT->RTR->RTS)"),
                    || vec![("peer", (peer as u64).into())],
                );
            }
        }
        let segments = self.model.segment.map_or(1, |s| len.max(1).div_ceil(s));
        self.segments.fetch_add(segments as u64, Ordering::Relaxed);
        self.copies.fetch_add(1, Ordering::Relaxed);
        self.bytes_copied.fetch_add(len as u64, Ordering::Relaxed);
        Ok((rank, buf, src_off))
    }

    fn complete(&self, token: TxToken) -> Result<(), TransportError> {
        self.table.deregister(token.0)
    }

    fn fence_epochs_below(&self, min_valid_epoch: u64) {
        self.table.fence_epochs_below(min_valid_epoch);
    }

    fn fenced_messages(&self) -> u64 {
        self.table.fenced_messages()
    }

    fn stats(&self) -> KnemStats {
        KnemStats {
            registrations: self.table.registrations(),
            deregistrations: self.table.deregistrations(),
            copies: self.copies.load(Ordering::Relaxed),
            bytes_copied: self.bytes_copied.load(Ordering::Relaxed),
            lock_acquires: self.table.lock_acquires(),
            fenced: self.table.fenced_messages(),
            handshakes: self.handshakes.load(Ordering::Relaxed),
            segments: self.segments.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [TransportKind; 2] = [TransportKind::Knem, TransportKind::Rdma];

    #[test]
    fn register_tx_complete() {
        for kind in KINDS {
            let t = kind.create(None);
            assert_eq!(t.name(), kind.label());
            let tok = t.register(3, BufId::Send, 16, 1024, 0).unwrap();
            assert_eq!(t.tx(tok, 5, 100, 24), Ok((3, BufId::Send, 116)), "{kind:?}");
            t.complete(tok).unwrap();
            assert_eq!(t.tx(tok, 5, 0, 1), Err(KnemError::BadCookie(tok)), "{kind:?}: retired");
            let s = t.stats();
            assert_eq!(
                (s.registrations, s.deregistrations, s.copies, s.bytes_copied),
                (1, 1, 1, 24),
                "{kind:?}"
            );
        }
        assert_eq!(KINDS.map(|k| k.label()), ["knem", "rdma"]);
    }

    #[test]
    fn pull_composes_the_verbs() {
        for kind in KINDS {
            let t = kind.create(None);
            assert_eq!(t.pull(2, BufId::Send, 8, 32, 0, 4), Ok((2, BufId::Send, 8)), "{kind:?}");
            let s = t.stats();
            assert_eq!((s.registrations, s.deregistrations), (1, 1), "{kind:?}: pull retires");
        }
    }

    #[test]
    fn out_of_region_rejected() {
        for kind in KINDS {
            let t = kind.create(None);
            let tok = t.register(0, BufId::Recv, 0, 100, 0).unwrap();
            assert!(matches!(t.tx(tok, 1, 90, 20), Err(KnemError::OutOfRegion { .. })), "{kind:?}");
            assert!(t.tx(tok, 1, 90, 10).is_ok(), "{kind:?}: exactly at the boundary is fine");
        }
    }

    #[test]
    fn a_range_past_usize_max_is_out_of_region_not_a_wrapped_pass() {
        for kind in KINDS {
            let t = kind.create(None);
            // `offset + len` wraps to 1.
            let tok = t.register(0, BufId::Send, 0, 64, 0).unwrap();
            let err = t.tx(tok, 1, usize::MAX, 2).unwrap_err();
            assert!(matches!(err, KnemError::OutOfRegion { .. }), "{kind:?}: {err:?}");
            assert!(err.to_string().contains(&format!("..{}", usize::MAX)), "{kind:?}: {err}");
            // In bounds of the region, but the source offset wraps.
            let tok = t.register(0, BufId::Send, usize::MAX - 4, 64, 0).unwrap();
            let err = t.tx(tok, 1, 8, 8).unwrap_err();
            assert!(matches!(err, KnemError::OutOfRegion { .. }), "{kind:?}: {err:?}");
            assert_eq!(t.stats().copies, 0, "{kind:?}");
        }
    }

    #[test]
    fn double_complete_fails() {
        for kind in KINDS {
            let t = kind.create(None);
            let tok = t.register(0, BufId::Send, 0, 8, 0).unwrap();
            t.complete(tok).unwrap();
            assert_eq!(t.complete(tok), Err(KnemError::BadCookie(tok)), "{kind:?}");
        }
    }

    #[test]
    fn fence_is_monotone_and_rejects_stale_epochs() {
        for kind in KINDS {
            let t = kind.create(None);
            let old = t.register(0, BufId::Send, 0, 64, 3).unwrap();
            assert!(t.tx(old, 1, 0, 8).is_ok());
            t.fence_epochs_below(5);
            t.fence_epochs_below(2); // lowering is a no-op
                                     // The straggler's token predates the fence: every pull is rejected.
            let stale = KnemError::StaleEpoch { epoch: 3, fence: 5 };
            assert_eq!(t.tx(old, 1, 0, 8), Err(stale), "{kind:?}");
            // And a straggler cannot publish new regions under the dead epoch.
            assert_eq!(
                t.register(1, BufId::Send, 0, 8, 4),
                Err(KnemError::StaleEpoch { epoch: 4, fence: 5 }),
                "{kind:?}"
            );
            // Traffic at the fence epoch is unaffected.
            let fresh = t.register(1, BufId::Send, 0, 8, 5).unwrap();
            assert!(t.tx(fresh, 0, 0, 8).is_ok(), "{kind:?}");
            assert_eq!((t.fenced_messages(), t.stats().fenced), (2, 2), "{kind:?}");
        }
    }

    #[test]
    fn fault_budget_transient_heals_permanent_does_not() {
        for kind in KINDS {
            let t = kind.create(Some(DeviceFault::transient(2, 3)));
            let tok = t.register(0, BufId::Send, 0, 64, 0).unwrap();
            // Two successes, three injected failures, then healed.
            let outcomes: Vec<bool> = (0..6).map(|_| t.tx(tok, 1, 0, 8).is_ok()).collect();
            assert_eq!(outcomes, [true, true, false, false, false, true], "{kind:?}");
            assert_eq!(t.stats().copies, 3, "{kind:?}: an injected failure is not a copy");

            let t = kind.create(Some(DeviceFault::permanent_after(1)));
            let tok = t.register(0, BufId::Send, 0, 64, 0).unwrap();
            assert!(t.tx(tok, 1, 0, 8).is_ok());
            for _ in 0..10 {
                assert_eq!(t.tx(tok, 1, 0, 8), Err(KnemError::BadCookie(tok)), "{kind:?}");
            }
        }
    }

    #[test]
    fn one_lock_acquire_per_register_lookup_deregister() {
        for kind in KINDS {
            let t = kind.create(None);
            let n = crate::region::REGION_SHARDS as u64;
            let tokens: Vec<TxToken> =
                (0..n as usize).map(|i| t.register(0, BufId::Send, i, 8, 0).unwrap()).collect();
            assert_eq!(t.stats().lock_acquires, n, "{kind:?}: register");
            for tok in &tokens {
                t.tx(*tok, 1, 0, 8).unwrap();
            }
            // A kind with per-peer set-up also takes the pair-set lock.
            let per_tx = 1 + u64::from(kind.model().per_peer_setup);
            assert_eq!(t.stats().lock_acquires, n + per_tx * n, "{kind:?}: tx");
            for tok in tokens {
                t.complete(tok).unwrap();
            }
            assert_eq!(t.stats().lock_acquires, 2 * n + per_tx * n, "{kind:?}: complete");
        }
    }

    #[test]
    fn concurrent_ranks_get_unique_tokens_and_consistent_counters() {
        for kind in KINDS {
            let t = kind.create(None);
            let start = std::sync::Barrier::new(8);
            let mut tokens: Vec<TxToken> = std::thread::scope(|scope| {
                let ranks: Vec<_> = (0..8)
                    .map(|r| {
                        let (t, start) = (&t, &start);
                        scope.spawn(move || {
                            start.wait();
                            (0..50)
                                .map(|i| {
                                    let tok = t.register(r, BufId::Send, i, 64, 0).unwrap();
                                    t.tx(tok, (r + 1) % 8, 0, 64).unwrap();
                                    t.complete(tok).unwrap();
                                    tok
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                ranks.into_iter().flat_map(|h| h.join().unwrap()).collect()
            });
            tokens.sort_by_key(|tok| tok.0);
            tokens.dedup();
            assert_eq!(tokens.len(), 400, "{kind:?}: tokens are unique across threads");
            let s = t.stats();
            assert_eq!(
                (s.registrations, s.deregistrations, s.copies, s.bytes_copied),
                (400, 400, 400, 400 * 64),
                "{kind:?}"
            );
            // 8 ring-neighbor pairs, each connected exactly once.
            let pairs = if kind.model().per_peer_setup { 8 } else { 0 };
            assert_eq!(s.handshakes, pairs, "{kind:?}");
        }
    }

    #[test]
    fn knem_has_no_per_peer_state_and_one_segment_per_copy() {
        let t = TransportKind::Knem.create(None);
        let tok = t.register(0, BufId::Send, 0, 1 << 20, 0).unwrap();
        for (peer, len) in [(1, 0), (2, 8), (3, 1 << 20)] {
            t.tx(tok, peer, 0, len).unwrap();
        }
        let s = t.stats();
        assert_eq!((s.handshakes, s.segments, s.copies), (0, 3, 3));
    }

    #[test]
    fn rdma_first_contact_handshakes_once_per_unordered_pair() {
        let t = TransportKind::Rdma.create(None);
        let of_0 = t.register(0, BufId::Send, 0, 64, 0).unwrap();
        let of_1 = t.register(1, BufId::Send, 0, 64, 0).unwrap();
        assert_eq!(t.stats().handshakes, 0, "registering connects nobody");
        t.tx(of_0, 1, 0, 8).unwrap();
        assert_eq!(t.stats().handshakes, 1);
        // Neither a second transfer nor the reverse direction pays again.
        t.tx(of_0, 1, 0, 8).unwrap();
        t.tx(of_1, 0, 0, 8).unwrap();
        assert_eq!(t.stats().handshakes, 1);
        // A different pair handshakes separately.
        t.tx(of_0, 2, 0, 8).unwrap();
        assert_eq!(t.stats().handshakes, 2);
    }

    #[test]
    fn rdma_transfers_are_cut_into_segments() {
        let t = TransportKind::Rdma.create(None);
        let tok = t.register(0, BufId::Send, 0, 4 * SEGMENT_BYTES, 0).unwrap();
        t.tx(tok, 1, 0, 2 * SEGMENT_BYTES).unwrap();
        assert_eq!(t.stats().segments, 2);
        t.tx(tok, 1, 0, 2 * SEGMENT_BYTES + 1).unwrap();
        assert_eq!(t.stats().segments, 2 + 3, "one byte over spills a third segment");
        t.tx(tok, 1, 0, 0).unwrap();
        assert_eq!(t.stats().segments, 6, "a zero-length transfer still posts one");
    }

    #[test]
    fn rdma_injected_fault_on_first_contact_leaves_the_pair_unconnected() {
        // The fault budget is applied before any connection work: a flushed
        // transfer on first contact must not count as the pair's handshake.
        let t = TransportKind::Rdma.create(Some(DeviceFault::transient(0, 1)));
        let tok = t.register(0, BufId::Send, 0, 64, 0).unwrap();
        assert!(t.tx(tok, 1, 0, 8).is_err());
        assert_eq!(t.stats().handshakes, 0, "no handshake on a flushed transfer");
        assert!(t.tx(tok, 1, 0, 8).is_ok());
        assert_eq!(t.stats().handshakes, 1);
    }
}
