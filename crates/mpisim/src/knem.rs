//! A model of the KNEM kernel single-copy module.
//!
//! KNEM lets a process expose a memory region to the kernel and hand the
//! returned *cookie* to a peer, which then performs a single-copy read
//! (pull) or write into its own address space — one memory traversal per
//! byte instead of the two of shared-memory copy-in/copy-out, at the price
//! of a fixed per-operation cost (trap + cookie management) that the timing
//! simulator charges as `knem_setup`.
//!
//! This module reproduces the *interface contract*: region registration,
//! cookie lookup with bounds checking, deregistration, and usage statistics.
//! The [`crate::ThreadExecutor`] drives it for every `Mech::Knem` copy, so a
//! collective's kernel-crossing count is observable in tests (the paper's
//! overhead argument, §IV-A).
//!
//! The sharded cookie table, epoch fence, and injected-fault budget live in
//! the crate-private `region` module shared with the RDMA backend; this file
//! keeps only the KNEM-specific surface (cookies, copy accounting).

use std::sync::atomic::{AtomicU64, Ordering};

use pdac_simnet::{BufId, Rank};

use crate::region::{RegionLabels, RegionTable};

/// Opaque handle to a registered region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cookie(u64);

impl Cookie {
    /// The raw id, for embedding into a transport-neutral token.
    pub(crate) fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds a cookie from a raw id minted by [`Self::raw`].
    pub(crate) fn from_raw(id: u64) -> Self {
        Cookie(id)
    }
}

/// KNEM API failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnemError {
    /// The cookie is unknown (never registered or already deregistered).
    BadCookie(Cookie),
    /// The requested range exceeds the registered region.
    OutOfRegion {
        /// Offending cookie.
        cookie: Cookie,
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
            KnemError::BadCookie(c) => write!(f, "unknown KNEM cookie {c:?}"),
            KnemError::OutOfRegion { cookie, offset, len, region_len } => write!(
                f,
                "KNEM copy {offset}..{} exceeds region of {region_len} bytes for {cookie:?}",
                offset + len
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
        }
    }

    /// Folds this record into the process-wide metrics registry under
    /// `knem.*` counters. The per-device struct stays the per-instance
    /// source of truth; the registry accumulates across devices and runs
    /// for snapshot export and diffing.
    pub fn publish(&self, registry: &pdac_telemetry::Registry) {
        registry.add("knem.registrations", self.registrations);
        registry.add("knem.deregistrations", self.deregistrations);
        registry.add("knem.copies", self.copies);
        registry.add("knem.bytes_copied", self.bytes_copied);
        registry.add("knem.lock_acquires", self.lock_acquires);
        registry.add("knem.fenced", self.fenced);
    }
}

/// Copy failures injected after a budget of successful operations — the
/// fault-injection hook for exercising error propagation end-to-end (a real
/// KNEM copy can fail mid-collective: region torn down, `-EFAULT`, module
/// unloaded).
///
/// `fail_count` bounds the failure window: after `fail_after_copies`
/// successful attempts, the next `fail_count` attempts fail and then the
/// device heals — the shape a *transient* fault (a momentarily missing
/// notification, a racing deregistration) presents to a retrying caller.
/// A `fail_count` of [`u64::MAX`] (the [`Self::permanent_after`]
/// constructor) never heals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Number of copies that succeed before the failure window opens.
    pub fail_after_copies: u64,
    /// Number of consecutive attempts that fail before the device heals.
    pub fail_count: u64,
}

impl FaultPlan {
    /// Every copy after the first `n` attempts fails, forever.
    pub fn permanent_after(n: u64) -> Self {
        FaultPlan { fail_after_copies: n, fail_count: u64::MAX }
    }

    /// After `after` successful attempts, the next `count` attempts fail,
    /// then copies succeed again — a retrying caller recovers.
    pub fn transient(after: u64, count: u64) -> Self {
        FaultPlan { fail_after_copies: after, fail_count: count }
    }
}

/// Number of cookie-table shards (the shared region-table layout).
#[cfg(test)]
const COOKIE_SHARDS: usize = crate::region::REGION_SHARDS;

/// The simulated device. Thread-safe: ranks register and pull concurrently.
///
/// The cookie table is sharded: each cookie id maps to one of 16
/// (`COOKIE_SHARDS`) independently locked hash maps, and the usage counters
/// are atomics, so the only serialization left is between operations on
/// cookies of the same shard.
#[derive(Debug)]
pub struct KnemDevice {
    table: RegionTable,
    copies: AtomicU64,
    bytes_copied: AtomicU64,
}

impl Default for KnemDevice {
    fn default() -> Self {
        Self::with_plan(None)
    }
}

impl KnemDevice {
    /// Creates an empty device.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a device that injects copy failures per `plan`.
    pub fn with_faults(plan: FaultPlan) -> Self {
        Self::with_plan(Some(plan))
    }

    fn with_plan(fault: Option<FaultPlan>) -> Self {
        KnemDevice {
            table: RegionTable::new(
                RegionLabels {
                    category: "knem",
                    register_event: "knem_register",
                    fault_event: "knem_pull_fault",
                    handle_key: "cookie",
                },
                fault,
            ),
            copies: AtomicU64::new(0),
            bytes_copied: AtomicU64::new(0),
        }
    }

    /// Registers `len` bytes at `offset` of `(rank, buf)` under the current
    /// fence epoch (never stale); returns the cookie a peer needs to pull
    /// from the region.
    pub fn register(&self, rank: Rank, buf: BufId, offset: usize, len: usize) -> Cookie {
        self.register_epoch(rank, buf, offset, len, self.epoch_fence())
            .expect("the fence epoch itself is never stale")
    }

    /// Registers a region stamped with `epoch` — the communicator epoch the
    /// registering run executes under. Rejected (and counted as fenced)
    /// when `epoch` is already behind the fence: a straggler from a dead
    /// epoch must not publish regions into the rebuilt topology.
    pub fn register_epoch(
        &self,
        rank: Rank,
        buf: BufId,
        offset: usize,
        len: usize,
        epoch: u64,
    ) -> Result<Cookie, KnemError> {
        self.table.register_epoch(rank, buf, offset, len, epoch).map(Cookie::from_raw)
    }

    /// The lowest epoch the device still accepts.
    pub fn epoch_fence(&self) -> u64 {
        self.table.epoch_fence()
    }

    /// Raises the fence to `min_valid_epoch` (it never lowers): every
    /// registered region and in-flight operation stamped below it is dead —
    /// later pulls are rejected with [`KnemError::StaleEpoch`] instead of
    /// delivering stale bytes into the rebuilt topology.
    pub fn fence_epochs_below(&self, min_valid_epoch: u64) {
        self.table.fence_epochs_below(min_valid_epoch);
    }

    /// Stale-epoch operations rejected so far.
    pub fn fenced_messages(&self) -> u64 {
        self.table.fenced_messages()
    }

    /// Validates a single-copy of `len` bytes starting `offset` bytes into
    /// the region named by `cookie`, and accounts for it. Returns the
    /// absolute `(rank, buf, byte offset)` the copy reads from.
    pub fn copy_from(
        &self,
        cookie: Cookie,
        offset: usize,
        len: usize,
    ) -> Result<(Rank, BufId, usize), KnemError> {
        let region = self.table.lookup(cookie.0, offset, len)?;
        self.copies.fetch_add(1, Ordering::Relaxed);
        self.bytes_copied.fetch_add(len as u64, Ordering::Relaxed);
        Ok((region.rank, region.buf, region.offset + offset))
    }

    /// Removes a registration; later pulls with the cookie fail.
    pub fn deregister(&self, cookie: Cookie) -> Result<(), KnemError> {
        self.table.deregister(cookie.0)
    }

    /// Current counters.
    pub fn stats(&self) -> KnemStats {
        KnemStats {
            registrations: self.table.registrations(),
            deregistrations: self.table.deregistrations(),
            copies: self.copies.load(Ordering::Relaxed),
            bytes_copied: self.bytes_copied.load(Ordering::Relaxed),
            lock_acquires: self.table.lock_acquires(),
            fenced: self.table.fenced_messages(),
        }
    }

    /// Copy attempts that failed because of an injected fault (zero on a
    /// device without a [`FaultPlan`]).
    pub fn injected_failures(&self) -> u64 {
        self.table.injected_failures()
    }

    /// Number of live registrations.
    pub fn live_regions(&self) -> usize {
        self.table.live_regions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_copy_deregister() {
        let dev = KnemDevice::new();
        let c = dev.register(3, BufId::Send, 16, 1024);
        let (rank, buf, abs) = dev.copy_from(c, 100, 24).unwrap();
        assert_eq!((rank, buf, abs), (3, BufId::Send, 116));
        dev.deregister(c).unwrap();
        assert_eq!(dev.copy_from(c, 0, 1), Err(KnemError::BadCookie(c)));
        assert_eq!(dev.live_regions(), 0);
        let s = dev.stats();
        assert_eq!(s.registrations, 1);
        assert_eq!(s.deregistrations, 1);
        assert_eq!(s.copies, 1);
        assert_eq!(s.bytes_copied, 24);
    }

    #[test]
    fn out_of_region_rejected() {
        let dev = KnemDevice::new();
        let c = dev.register(0, BufId::Recv, 0, 100);
        assert!(matches!(dev.copy_from(c, 90, 20), Err(KnemError::OutOfRegion { .. })));
        // Exactly at the boundary is fine.
        assert!(dev.copy_from(c, 90, 10).is_ok());
    }

    #[test]
    fn double_deregister_fails() {
        let dev = KnemDevice::new();
        let c = dev.register(0, BufId::Send, 0, 8);
        dev.deregister(c).unwrap();
        assert_eq!(dev.deregister(c), Err(KnemError::BadCookie(c)));
    }

    #[test]
    fn lock_acquisitions_are_counted_and_sharded() {
        let dev = KnemDevice::new();
        let cookies: Vec<Cookie> =
            (0..COOKIE_SHARDS).map(|i| dev.register(0, BufId::Send, i, 8)).collect();
        // One shard-lock acquisition per register.
        assert_eq!(dev.stats().lock_acquires, COOKIE_SHARDS as u64);
        // Sequential cookie ids are dealt round-robin onto distinct shards.
        let shards: std::collections::HashSet<usize> =
            cookies.iter().map(|c| (c.0 as usize) % COOKIE_SHARDS).collect();
        assert_eq!(shards.len(), COOKIE_SHARDS);
        for c in &cookies {
            dev.copy_from(*c, 0, 8).unwrap();
        }
        assert_eq!(dev.stats().lock_acquires, 2 * COOKIE_SHARDS as u64);
        // A live-region sweep visits every shard once.
        assert_eq!(dev.live_regions(), COOKIE_SHARDS);
        assert_eq!(dev.stats().lock_acquires, 3 * COOKIE_SHARDS as u64);
    }

    #[test]
    fn transient_fault_heals_after_fail_count_attempts() {
        let dev = KnemDevice::with_faults(FaultPlan::transient(2, 3));
        let c = dev.register(0, BufId::Send, 0, 64);
        // Two successes, three injected failures, then healed.
        assert!(dev.copy_from(c, 0, 8).is_ok());
        assert!(dev.copy_from(c, 0, 8).is_ok());
        for _ in 0..3 {
            assert_eq!(dev.copy_from(c, 0, 8), Err(KnemError::BadCookie(c)));
        }
        assert!(dev.copy_from(c, 0, 8).is_ok());
        assert_eq!(dev.injected_failures(), 3);
        assert_eq!(dev.stats().copies, 3);
    }

    #[test]
    fn permanent_fault_never_heals() {
        let dev = KnemDevice::with_faults(FaultPlan::permanent_after(1));
        let c = dev.register(0, BufId::Send, 0, 64);
        assert!(dev.copy_from(c, 0, 8).is_ok());
        for _ in 0..10 {
            assert!(dev.copy_from(c, 0, 8).is_err());
        }
        assert_eq!(dev.injected_failures(), 10);
    }

    #[test]
    fn fence_rejects_stale_epoch_pulls_and_registrations() {
        let dev = KnemDevice::new();
        let old = dev.register_epoch(0, BufId::Send, 0, 64, 3).unwrap();
        assert!(dev.copy_from(old, 0, 8).is_ok());
        dev.fence_epochs_below(5);
        // The straggler's cookie predates the fence: every pull is rejected.
        assert_eq!(dev.copy_from(old, 0, 8), Err(KnemError::StaleEpoch { epoch: 3, fence: 5 }));
        // And a straggler cannot publish new regions under the dead epoch.
        assert_eq!(
            dev.register_epoch(1, BufId::Send, 0, 8, 4),
            Err(KnemError::StaleEpoch { epoch: 4, fence: 5 })
        );
        // Current-epoch traffic is unaffected.
        let fresh = dev.register_epoch(1, BufId::Send, 0, 8, 5).unwrap();
        assert!(dev.copy_from(fresh, 0, 8).is_ok());
        assert_eq!(dev.fenced_messages(), 2);
        assert_eq!(dev.stats().fenced, 2);
    }

    #[test]
    fn fence_is_monotone() {
        let dev = KnemDevice::new();
        dev.fence_epochs_below(7);
        dev.fence_epochs_below(4); // lowering is a no-op
        assert_eq!(dev.epoch_fence(), 7);
        dev.fence_epochs_below(9);
        assert_eq!(dev.epoch_fence(), 9);
        // Plain register stamps the current fence epoch, so it always works.
        let c = dev.register(0, BufId::Send, 0, 8);
        assert!(dev.copy_from(c, 0, 8).is_ok());
    }

    #[test]
    fn cookies_are_unique_across_threads() {
        let dev = std::sync::Arc::new(KnemDevice::new());
        let mut handles = Vec::new();
        for r in 0..8 {
            let d = std::sync::Arc::clone(&dev);
            handles.push(std::thread::spawn(move || {
                (0..100).map(|i| d.register(r, BufId::Send, i, 1)).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<Cookie> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        let before = all.len();
        all.sort_by_key(|c| c.0);
        all.dedup();
        assert_eq!(all.len(), before);
        assert_eq!(dev.live_regions(), 800);
    }
}
