//! Per-worker staging-buffer pools.
//!
//! The executor stages every copy through a scratch buffer (copy the source
//! in, verify it, then combine it into the destination). It checks out one
//! such buffer per worker per run, sized to the run's largest copy, and
//! returns it when the run ends; the pool keeps it alive across runs so a
//! repeated collective does not allocate it again.
//!
//! * **Sharding** — the `shard` argument picks a shard (modulo the shard
//!   count), each one free list. The executor passes its worker index and
//!   makes one shard per worker, so workers never contend on one list.
//! * **Exclusive checkout** — `acquire` transfers ownership to the caller;
//!   the buffer is invisible to every other thread until `release` returns
//!   it. There is no aliasing window, so no per-buffer synchronisation.
//!
//! `acquire` and `release` still take a `_class` argument that the pool
//! ignores: the `pdac-e2e` benchmark package (`benchmarks/e2e`) calls that
//! signature, so the argument goes with the next change to that package.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// Pool usage counters (monotonic over the pool's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferPoolStats {
    /// Buffers checked out.
    pub acquires: u64,
    /// Checkouts served from a free list instead of the allocator.
    pub reuses: u64,
    /// Bytes obtained from the allocator (capacity growth included).
    pub bytes_allocated: u64,
}

/// Sharded pool of reusable staging buffers.
#[derive(Debug)]
pub struct BufferPool {
    shards: Vec<Mutex<Vec<Vec<u8>>>>,
    acquires: AtomicU64,
    reuses: AtomicU64,
    bytes_allocated: AtomicU64,
}

/// How many free buffers one shard retains; beyond this, released buffers
/// are dropped back to the allocator. The executor returns one buffer per
/// worker, each to its own shard, so one would do for it; the second is
/// slack for a caller sharing the pool.
const RETAIN_PER_SHARD: usize = 2;

/// Fill byte written over released buffers in debug builds, so a caller
/// that reads a recycled buffer before overwriting it sees loud uniform
/// poison rather than a plausible prior payload.
#[cfg(debug_assertions)]
pub const POISON_BYTE: u8 = 0xDB;

impl BufferPool {
    /// Creates a pool with `shards` shards (minimum 1): one per worker.
    pub fn new(shards: usize) -> Self {
        BufferPool {
            shards: (0..shards.max(1)).map(|_| Mutex::new(Vec::new())).collect(),
            acquires: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
            bytes_allocated: AtomicU64::new(0),
        }
    }

    /// Checks out a buffer of exactly `len` bytes from `shard`, preferring
    /// a previously released one. Contents are unspecified — callers
    /// overwrite the full length.
    pub fn acquire(&self, shard: usize, _class: u8, len: usize) -> Vec<u8> {
        self.acquires.fetch_add(1, Ordering::Relaxed);
        let reused = self.shards[shard % self.shards.len()].lock().pop();
        match reused {
            Some(mut buf) => {
                self.reuses.fetch_add(1, Ordering::Relaxed);
                let grow = len.saturating_sub(buf.capacity());
                if grow > 0 {
                    self.bytes_allocated.fetch_add(grow as u64, Ordering::Relaxed);
                }
                buf.resize(len, 0);
                buf
            }
            None => {
                self.bytes_allocated.fetch_add(len as u64, Ordering::Relaxed);
                vec![0; len]
            }
        }
    }

    /// Returns a buffer to `shard` for reuse.
    ///
    /// In debug builds the buffer is poisoned first: `acquire`'s contract
    /// is "contents are unspecified", and without poisoning a recycled
    /// buffer hands a *shorter* subsequent op a perfectly plausible prefix
    /// of the previous payload — exactly the stale-read hazard the
    /// checksummed data path exists to catch. Release builds skip the
    /// memset (the executor overwrites the full length before any read,
    /// and the checksum verifies it); debug builds make a violation
    /// unmissable instead of silently correct-looking.
    pub fn release(&self, shard: usize, _class: u8, buf: Vec<u8>) {
        #[cfg(debug_assertions)]
        let buf = {
            let mut buf = buf;
            buf.iter_mut().for_each(|b| *b = POISON_BYTE);
            buf
        };
        let mut free = self.shards[shard % self.shards.len()].lock();
        if free.len() < RETAIN_PER_SHARD {
            free.push(buf);
        }
    }

    /// Lifetime usage counters.
    pub fn stats(&self) -> BufferPoolStats {
        BufferPoolStats {
            acquires: self.acquires.load(Ordering::Relaxed),
            reuses: self.reuses.load(Ordering::Relaxed),
            bytes_allocated: self.bytes_allocated.load(Ordering::Relaxed),
        }
    }
}

impl BufferPoolStats {
    /// This snapshot minus `earlier` (for per-run accounting on a shared
    /// pool).
    pub fn delta_since(&self, earlier: &BufferPoolStats) -> BufferPoolStats {
        BufferPoolStats {
            acquires: self.acquires - earlier.acquires,
            reuses: self.reuses - earlier.reuses,
            bytes_allocated: self.bytes_allocated - earlier.bytes_allocated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_allocates_then_reuses() {
        let pool = BufferPool::new(4);
        let b = pool.acquire(1, 3, 4096);
        assert_eq!(b.len(), 4096);
        pool.release(1, 3, b);
        let b2 = pool.acquire(1, 3, 4096);
        assert_eq!(b2.len(), 4096);
        let s = pool.stats();
        assert_eq!(s.acquires, 2);
        assert_eq!(s.reuses, 1);
        assert_eq!(s.bytes_allocated, 4096, "second checkout reused the arena");
    }

    #[test]
    fn ranks_map_to_distinct_shards() {
        let pool = BufferPool::new(2);
        let b = pool.acquire(0, 0, 64);
        pool.release(0, 0, b);
        // Shard 1 is the other list: no reuse.
        let _other = pool.acquire(1, 0, 64);
        assert_eq!(pool.stats().reuses, 0);
        // Shard 2 wraps back onto shard 0: reuse.
        let _wrap = pool.acquire(2, 0, 64);
        assert_eq!(pool.stats().reuses, 1);
    }

    #[test]
    fn retention_is_bounded() {
        let pool = BufferPool::new(1);
        let bufs: Vec<_> = (0..5).map(|_| pool.acquire(0, 1, 256)).collect();
        for b in bufs {
            pool.release(0, 1, b);
        }
        // Only RETAIN_PER_SHARD survive; the rest went back to the allocator.
        for _ in 0..RETAIN_PER_SHARD {
            pool.acquire(0, 1, 256);
        }
        assert_eq!(pool.stats().reuses as usize, RETAIN_PER_SHARD);
        pool.acquire(0, 1, 256);
        assert_eq!(pool.stats().reuses as usize, RETAIN_PER_SHARD);
    }

    /// Regression: a recycled buffer must never leak a prior op's bytes
    /// into a shorter subsequent acquisition. `acquire` only zero-fills
    /// *growth* (`resize(len, 0)` leaves the surviving prefix untouched),
    /// so without release-time poisoning the shorter checkout would see a
    /// clean-looking prefix of the previous payload. Debug-only because
    /// the poison itself is debug-only; release builds rely on the
    /// executor's full-length overwrite plus checksum verification.
    #[cfg(debug_assertions)]
    #[test]
    fn recycled_buffers_never_leak_stale_bytes_into_shorter_ops() {
        let pool = BufferPool::new(1);
        let mut b = pool.acquire(0, 0, 256);
        b.iter_mut().enumerate().for_each(|(i, byte)| *byte = i as u8);
        pool.release(0, 0, b);
        let shorter = pool.acquire(0, 0, 64);
        assert_eq!(pool.stats().reuses, 1, "the shorter op must hit the reuse path");
        assert!(
            shorter.iter().all(|&b| b == POISON_BYTE),
            "stale payload visible in a recycled buffer: {:?}",
            &shorter[..8]
        );
    }

    #[test]
    fn reuse_growth_is_accounted() {
        let pool = BufferPool::new(1);
        let b = pool.acquire(0, 0, 100);
        let cap = b.capacity();
        pool.release(0, 0, b);
        let big = pool.acquire(0, 0, cap + 50);
        assert_eq!(big.len(), cap + 50);
        let s = pool.stats();
        assert_eq!(s.bytes_allocated, 100 + 50, "only the growth is new");
    }
}
