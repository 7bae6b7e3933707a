//! The region table and epoch fence under the one-sided transport device.
//!
//! A 16-way sharded id → region map, an atomic id mint, a monotone epoch
//! fence with stale-epoch rejection, a budgeted injected-fault window, and
//! the registration/lock-acquisition accounting the contention tests assert
//! on. The device in [`crate::transport`] is its only caller; a transport
//! kind passes in its telemetry vocabulary as [`RegionLabels`].
//!
//! Accounting contract (tests depend on it): exactly one `lock_acquires`
//! increment per register / lookup / deregister.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use pdac_simnet::{BufId, Rank};

use crate::knem::{DeviceFault, KnemError};
use crate::transport::TxToken;

/// Number of table shards. Region ids are dealt to shards round-robin
/// (sequential ids land on distinct shards), so concurrent collectives
/// touching different regions rarely contend on the same lock.
pub(crate) const REGION_SHARDS: usize = 16;

/// A registered memory region: a byte range of one rank's buffer, stamped
/// with the communicator epoch it was registered under.
#[derive(Debug, Clone, Copy)]
struct Region {
    rank: Rank,
    buf: BufId,
    offset: usize,
    len: usize,
    epoch: u64,
}

/// The telemetry vocabulary of one transport kind ("knem_register" vs
/// "mr_register", a dead cookie vs a flushed WQE).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RegionLabels {
    /// Telemetry category ("knem" / "rdma").
    pub category: &'static str,
    /// Event name for a successful registration.
    pub register_event: &'static str,
    /// Event name for an injected transfer fault.
    pub fault_event: &'static str,
    /// Argument key naming the handle ("cookie" / "mr").
    pub handle_key: &'static str,
}

/// Sharded region table with epoch fencing and a budgeted injected-fault
/// window.
#[derive(Debug)]
pub(crate) struct RegionTable {
    labels: RegionLabels,
    shards: [Mutex<HashMap<u64, Region>>; REGION_SHARDS],
    next: AtomicU64,
    registrations: AtomicU64,
    deregistrations: AtomicU64,
    lock_acquires: AtomicU64,
    /// Lowest epoch still accepted. Raised by the recovery layer when it
    /// shrinks the communicator under a new epoch; operations stamped
    /// below it are rejected with [`KnemError::StaleEpoch`].
    epoch_fence: AtomicU64,
    fenced: AtomicU64,
    /// Transfer attempts, counted only for fault budgeting (an injected
    /// failure consumes an attempt but is not a performed transfer).
    attempts: AtomicU64,
    fault: Option<DeviceFault>,
}

impl RegionTable {
    /// An empty table speaking `labels`, injecting transfer faults per
    /// `fault` if given.
    pub fn new(labels: RegionLabels, fault: Option<DeviceFault>) -> Self {
        RegionTable {
            labels,
            shards: Default::default(),
            next: AtomicU64::new(0),
            registrations: AtomicU64::new(0),
            deregistrations: AtomicU64::new(0),
            lock_acquires: AtomicU64::new(0),
            epoch_fence: AtomicU64::new(0),
            fenced: AtomicU64::new(0),
            attempts: AtomicU64::new(0),
            fault,
        }
    }

    /// The shard owning region `id`, locked and counted.
    fn shard(&self, id: u64) -> MutexGuard<'_, HashMap<u64, Region>> {
        self.lock_acquires.fetch_add(1, Ordering::Relaxed);
        self.shards[(id as usize) % REGION_SHARDS].lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Counts a lock acquisition the device performs on its own lock (the
    /// connected-pair set), so `lock_acquires` stays the single contention
    /// observable.
    pub fn count_lock_acquire(&self) {
        self.lock_acquires.fetch_add(1, Ordering::Relaxed);
    }

    /// Registers a region stamped with `epoch`. Rejected (and counted as
    /// fenced) when `epoch` is already behind the fence: a straggler from a
    /// dead epoch must not publish regions into the rebuilt topology.
    pub fn register_epoch(
        &self,
        rank: Rank,
        buf: BufId,
        offset: usize,
        len: usize,
        epoch: u64,
    ) -> Result<u64, KnemError> {
        self.check_epoch(rank, epoch)?;
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.shard(id).insert(id, Region { rank, buf, offset, len, epoch });
        self.registrations.fetch_add(1, Ordering::Relaxed);
        let event = self.labels.register_event;
        let key = self.labels.handle_key;
        pdac_telemetry::global().recorder().instant(
            rank as u64,
            self.labels.category,
            || format!("{event} #{id}"),
            || vec![(key, id.into()), ("len", len.into()), ("epoch", epoch.into())],
        );
        Ok(id)
    }

    /// The lowest epoch the table still accepts.
    fn epoch_fence(&self) -> u64 {
        self.epoch_fence.load(Ordering::Acquire)
    }

    /// Raises the fence to `min_valid_epoch` (it never lowers): every
    /// registered region and in-flight operation stamped below it is dead.
    pub fn fence_epochs_below(&self, min_valid_epoch: u64) {
        let prev = self.epoch_fence.fetch_max(min_valid_epoch, Ordering::AcqRel);
        if prev < min_valid_epoch {
            pdac_telemetry::global().recorder().instant(
                0,
                self.labels.category,
                || format!("epoch fence raised to {min_valid_epoch}"),
                || vec![("fence", min_valid_epoch.into())],
            );
        }
    }

    /// Stale-epoch operations rejected so far.
    pub fn fenced_messages(&self) -> u64 {
        self.fenced.load(Ordering::Relaxed)
    }

    /// Rejects `epoch` when it is behind the fence, accounting for the
    /// rejection.
    pub fn check_epoch(&self, rank: Rank, epoch: u64) -> Result<(), KnemError> {
        let fence = self.epoch_fence();
        if epoch < fence {
            self.fenced.fetch_add(1, Ordering::Relaxed);
            pdac_telemetry::global().recorder().instant(
                rank as u64,
                self.labels.category,
                || format!("fenced stale-epoch message (epoch {epoch} < fence {fence})"),
                || vec![("epoch", epoch.into()), ("fence", fence.into())],
            );
            return Err(KnemError::StaleEpoch { epoch, fence });
        }
        Ok(())
    }

    /// Validates a transfer of `len` bytes starting `offset` bytes into
    /// region `id`: the handle must be live, its epoch unfenced, the range
    /// in bounds, and the injected-fault budget (if any) not in its failure
    /// window. Returns the absolute `(rank, buf, byte offset)` the transfer
    /// reads from; the caller performs its own transfer accounting.
    pub fn lookup(
        &self,
        id: u64,
        offset: usize,
        len: usize,
    ) -> Result<(Rank, BufId, usize), KnemError> {
        let region = self.shard(id).get(&id).copied().ok_or(KnemError::BadCookie(TxToken(id)))?;
        self.check_epoch(region.rank, region.epoch)?;
        // Offsets come from the caller: an end or a source offset past
        // `usize::MAX` is out of region, not a wrapped pass.
        let src_off = match (offset.checked_add(len), region.offset.checked_add(offset)) {
            (Some(end), Some(src_off)) if end <= region.len => src_off,
            _ => {
                return Err(KnemError::OutOfRegion {
                    cookie: TxToken(id),
                    offset,
                    len,
                    region_len: region.len,
                })
            }
        };
        if let Some(plan) = self.fault {
            let attempt = self.attempts.fetch_add(1, Ordering::Relaxed);
            if attempt >= plan.fail_after_copies
                && attempt - plan.fail_after_copies < plan.fail_count
            {
                // Report the injected fault as a dead handle (what a torn
                // down region or a flushed WQE looks like to the caller).
                let event = self.labels.fault_event;
                let key = self.labels.handle_key;
                pdac_telemetry::global().recorder().instant(
                    region.rank as u64,
                    self.labels.category,
                    || format!("{event} #{id}"),
                    || vec![(key, id.into())],
                );
                return Err(KnemError::BadCookie(TxToken(id)));
            }
        }
        Ok((region.rank, region.buf, src_off))
    }

    /// Removes a registration; later transfers with the handle fail.
    pub fn deregister(&self, id: u64) -> Result<(), KnemError> {
        match self.shard(id).remove(&id) {
            Some(_) => {
                self.deregistrations.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            None => Err(KnemError::BadCookie(TxToken(id))),
        }
    }

    /// Regions registered over the table lifetime.
    pub fn registrations(&self) -> u64 {
        self.registrations.load(Ordering::Relaxed)
    }

    /// Regions deregistered.
    pub fn deregistrations(&self) -> u64 {
        self.deregistrations.load(Ordering::Relaxed)
    }

    /// Shard-lock acquisitions — the contention observable.
    pub fn lock_acquires(&self) -> u64 {
        self.lock_acquires.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(fault: Option<DeviceFault>) -> RegionTable {
        RegionTable::new(
            RegionLabels {
                category: "knem",
                register_event: "test_register",
                fault_event: "test_fault",
                handle_key: "cookie",
            },
            fault,
        )
    }

    #[test]
    fn sequential_ids_deal_round_robin_across_shards() {
        let t = table(None);
        let ids: Vec<u64> = (0..REGION_SHARDS)
            .map(|i| t.register_epoch(0, BufId::Send, i, 8, 0).unwrap())
            .collect();
        let shards: std::collections::HashSet<usize> =
            ids.iter().map(|id| (*id as usize) % REGION_SHARDS).collect();
        assert_eq!(shards.len(), REGION_SHARDS);
        assert_eq!(t.lock_acquires(), REGION_SHARDS as u64, "one acquisition per register");
    }

    #[test]
    fn lookup_validates_handle_epoch_and_bounds() {
        let t = table(None);
        let id = t.register_epoch(3, BufId::Send, 16, 100, 2).unwrap();
        assert_eq!(t.lookup(id, 10, 20), Ok((3, BufId::Send, 26)));
        assert!(matches!(t.lookup(id, 90, 20), Err(KnemError::OutOfRegion { .. })));
        t.fence_epochs_below(5);
        assert_eq!(t.lookup(id, 0, 8), Err(KnemError::StaleEpoch { epoch: 2, fence: 5 }));
        assert_eq!(t.fenced_messages(), 1);
        t.deregister(id).unwrap();
        assert!(matches!(t.lookup(id, 0, 1), Err(KnemError::BadCookie(_))));
    }

    #[test]
    fn fault_budget_opens_and_heals() {
        let t = table(Some(DeviceFault::transient(1, 2)));
        let id = t.register_epoch(0, BufId::Send, 0, 64, 0).unwrap();
        assert!(t.lookup(id, 0, 8).is_ok());
        assert!(t.lookup(id, 0, 8).is_err());
        assert!(t.lookup(id, 0, 8).is_err());
        assert!(t.lookup(id, 0, 8).is_ok());
    }
}
