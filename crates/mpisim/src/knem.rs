//! The vocabulary of the one-sided pull, named after the paper's mechanism.
//!
//! KNEM lets a process expose a memory region to the kernel and hand the
//! returned *cookie* to a peer, which then performs a single-copy read
//! (pull) or write into its own address space — one memory traversal per
//! byte instead of the two of shared-memory copy-in/copy-out, at the price
//! of a fixed per-operation cost (trap + cookie management) that the timing
//! simulator charges as `knem_setup` (§IV-A).
//!
//! The device that speaks the protocol lives in [`crate::transport`]; this
//! file keeps what every caller of it names: the error taxonomy, the usage
//! counters and the injected device failure window.

use crate::transport::TxToken;

/// KNEM API failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnemError {
    /// The cookie is unknown (never registered or already deregistered).
    BadCookie(TxToken),
    /// The requested range exceeds the registered region.
    OutOfRegion {
        /// Offending cookie.
        cookie: TxToken,
        /// Requested range start within the region.
        offset: usize,
        /// Requested length.
        len: usize,
        /// Registered region length.
        region_len: usize,
    },
    /// The operation carries an epoch the device has fenced off: the
    /// membership layer agreed on a new `(epoch, survivor_set)` and this
    /// message predates it. Stale deliveries are rejected, never served
    /// into the rebuilt topology.
    StaleEpoch {
        /// Epoch the operation was stamped with.
        epoch: u64,
        /// The lowest epoch the device still accepts.
        fence: u64,
    },
    /// The staged payload failed end-to-end checksum verification: the
    /// bytes at completion differ from the bytes stamped at `tx` time.
    /// Retryable — the executor re-pulls and re-stages the chunk (a
    /// verified re-transmit) before escalating to
    /// [`crate::ExecError::Corrupt`].
    ChecksumMismatch {
        /// Checksum stamped over the source bytes at `tx` time.
        expected: u64,
        /// Checksum of the staged bytes at completion.
        got: u64,
    },
}

impl std::fmt::Display for KnemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KnemError::BadCookie(c) => write!(f, "unknown KNEM cookie Cookie({})", c.0),
            KnemError::OutOfRegion { cookie, offset, len, region_len } => write!(
                f,
                "KNEM copy {offset}..{} exceeds region of {region_len} bytes for Cookie({})",
                offset.saturating_add(*len),
                cookie.0
            ),
            KnemError::StaleEpoch { epoch, fence } => write!(
                f,
                "stale-epoch message rejected: epoch {epoch} is behind the fence at {fence}"
            ),
            KnemError::ChecksumMismatch { expected, got } => write!(
                f,
                "payload checksum mismatch: stamped {expected:#018x}, staged bytes hash to {got:#018x}"
            ),
        }
    }
}

impl std::error::Error for KnemError {}

/// Aggregate usage counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KnemStats {
    /// Regions registered over the device lifetime.
    pub registrations: u64,
    /// Regions deregistered.
    pub deregistrations: u64,
    /// Single-copy operations performed.
    pub copies: u64,
    /// Bytes moved by single-copy operations.
    pub bytes_copied: u64,
    /// Cookie-table lock acquisitions — the contention observable. With
    /// the sharded table this counts per-shard acquisitions; concurrent
    /// ranks holding different cookies no longer serialize on one lock.
    pub lock_acquires: u64,
    /// Stale-epoch operations the device refused (registrations or pulls
    /// stamped with an epoch behind the fence).
    pub fenced: u64,
    /// Per-pair connection set-ups: the first transfer between an unordered
    /// rank pair on a kind that needs one (RDMA queue-pair bring-up); zero
    /// on KNEM.
    pub handshakes: u64,
    /// Wire units posted: one per copy on KNEM, one per
    /// [`crate::transport::SEGMENT_BYTES`] of every transfer on RDMA.
    pub segments: u64,
}

impl KnemStats {
    /// This snapshot minus `earlier` (for per-run accounting on a device
    /// shared across runs).
    pub fn delta_since(&self, earlier: &KnemStats) -> KnemStats {
        KnemStats {
            registrations: self.registrations - earlier.registrations,
            deregistrations: self.deregistrations - earlier.deregistrations,
            copies: self.copies - earlier.copies,
            bytes_copied: self.bytes_copied - earlier.bytes_copied,
            lock_acquires: self.lock_acquires - earlier.lock_acquires,
            fenced: self.fenced - earlier.fenced,
            handshakes: self.handshakes - earlier.handshakes,
            segments: self.segments - earlier.segments,
        }
    }
}

/// A device failure window: copy failures injected after a budget of
/// successful operations — the hook for exercising error propagation
/// end-to-end (a real KNEM copy can fail mid-collective: region torn down,
/// `-EFAULT`, module unloaded). It belongs to the device, not to a run, so
/// it outlives executor attempts.
///
/// `fail_count` bounds the failure window: after `fail_after_copies`
/// successful attempts, the next `fail_count` attempts fail and then the
/// device heals — the shape a *transient* fault (a momentarily missing
/// notification, a racing deregistration) presents to a retrying caller.
/// A `fail_count` of [`u64::MAX`] (the [`Self::permanent_after`]
/// constructor) never heals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceFault {
    /// Number of copies that succeed before the failure window opens.
    pub fail_after_copies: u64,
    /// Number of consecutive attempts that fail before the device heals.
    pub fail_count: u64,
}

impl DeviceFault {
    /// Every copy after the first `n` attempts fails, forever.
    pub fn permanent_after(n: u64) -> Self {
        DeviceFault { fail_after_copies: n, fail_count: u64::MAX }
    }

    /// After `after` successful attempts, the next `count` attempts fail,
    /// then copies succeed again — a retrying caller recovers.
    pub fn transient(after: u64, count: u64) -> Self {
        DeviceFault { fail_after_copies: after, fail_count: count }
    }
}
