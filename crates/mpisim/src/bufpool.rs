//! The staging-buffer pool.
//!
//! The executor stages every copy through a scratch buffer (copy the source
//! in, verify it, then combine it into the destination). It checks out one
//! such buffer per worker per run, sized to the run's largest copy, on the
//! calling thread, and returns them there when the run ends; the pool keeps
//! them alive across runs so a repeated collective does not allocate them
//! again.
//!
//! * **One free list** — at most `n` buffers (one per worker), under one
//!   lock together with the usage counters.
//! * **Exclusive checkout** — `acquire` transfers ownership to the caller;
//!   the buffer is invisible to every other thread until `release` returns
//!   it. There is no aliasing window, so no per-buffer synchronisation.
//!
//! `acquire` and `release` still take `_shard` and `_class` arguments that
//! the pool ignores: the `pdac-e2e` benchmark package (`benchmarks/e2e`)
//! calls that signature, so they go with the next change to that package.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Pool usage counters (monotonic over the pool's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferPoolStats {
    /// Buffers checked out.
    pub acquires: u64,
    /// Checkouts served from the free list instead of the allocator.
    pub reuses: u64,
    /// Bytes obtained from the allocator (capacity growth included).
    pub bytes_allocated: u64,
}

/// Pool of reusable staging buffers.
#[derive(Debug)]
pub struct BufferPool {
    /// Free buffers kept at most; beyond this, released buffers are
    /// dropped back to the allocator.
    retain: usize,
    free: Mutex<Free>,
}

/// What the pool's lock guards.
#[derive(Debug, Default)]
struct Free {
    bufs: Vec<Vec<u8>>,
    stats: BufferPoolStats,
}

/// Fill byte written over released buffers in debug builds, so a caller
/// that reads a recycled buffer before overwriting it sees loud uniform
/// poison rather than a plausible prior payload.
#[cfg(debug_assertions)]
pub const POISON_BYTE: u8 = 0xDB;

impl BufferPool {
    /// Creates a pool keeping at most `n` free buffers (minimum 1): one
    /// per worker.
    pub fn new(n: usize) -> Self {
        BufferPool { retain: n.max(1), free: Mutex::default() }
    }

    /// Every update leaves the list valid, so a lock poisoned by a
    /// panicking holder is taken back.
    fn lock(&self) -> MutexGuard<'_, Free> {
        self.free.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Checks out a buffer of exactly `len` bytes, preferring a previously
    /// released one. Contents are unspecified — callers overwrite the full
    /// length.
    pub fn acquire(&self, _shard: usize, _class: u8, len: usize) -> Vec<u8> {
        let reused = {
            let mut free = self.lock();
            let reused = free.bufs.pop();
            let stats = &mut free.stats;
            stats.acquires += 1;
            stats.reuses += u64::from(reused.is_some());
            let grow = reused.as_ref().map_or(len, |buf| len.saturating_sub(buf.capacity()));
            stats.bytes_allocated += grow as u64;
            reused
        };
        match reused {
            Some(mut buf) => {
                buf.resize(len, 0);
                buf
            }
            None => vec![0; len],
        }
    }

    /// Returns a buffer for reuse.
    ///
    /// In debug builds the buffer is poisoned first: `acquire`'s contract
    /// is "contents are unspecified", and without poisoning a recycled
    /// buffer hands a *shorter* subsequent op a perfectly plausible prefix
    /// of the previous payload — exactly the stale-read hazard the
    /// checksummed data path exists to catch. Release builds skip the
    /// memset (the executor overwrites the full length before any read,
    /// and the checksum verifies it); debug builds make a violation
    /// unmissable instead of silently correct-looking.
    pub fn release(&self, _shard: usize, _class: u8, buf: Vec<u8>) {
        #[cfg(debug_assertions)]
        let buf = {
            let mut buf = buf;
            buf.iter_mut().for_each(|b| *b = POISON_BYTE);
            buf
        };
        let mut free = self.lock();
        if free.bufs.len() < self.retain {
            free.bufs.push(buf);
        }
    }

    /// Lifetime usage counters.
    pub fn stats(&self) -> BufferPoolStats {
        self.lock().stats
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
    fn retention_is_bounded() {
        let pool = BufferPool::new(2);
        let bufs: Vec<_> = (0..5).map(|i| pool.acquire(i, 1, 256)).collect();
        for (i, b) in bufs.into_iter().enumerate() {
            pool.release(i, 1, b);
        }
        // Only two survive; the rest went back to the allocator.
        for _ in 0..2 {
            pool.acquire(0, 1, 256);
        }
        assert_eq!(pool.stats().reuses, 2);
        pool.acquire(0, 1, 256);
        assert_eq!(pool.stats().reuses, 2);
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
