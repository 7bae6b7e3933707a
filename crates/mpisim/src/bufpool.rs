//! NUMA-aware per-rank staging-buffer pools.
//!
//! The double-buffered executor stages every copy through a scratch buffer
//! (read the source under a shared lock, release it, then combine into the
//! destination under the exclusive lock). Allocating that scratch per
//! operation would put the allocator on the hot path; this pool keeps
//! arenas alive across operations instead.
//!
//! * **Sharding** — one shard per rank (modulo the shard count), so two
//!   ranks never contend on the same free list and a buffer is reused by
//!   the core — and hence the NUMA node — that last touched it.
//! * **Distance-class keying** — free lists are segregated by the paper's
//!   process-distance class of the edge the buffer served (`0..=8`). Chunk
//!   sizes are chosen per distance class ([`pdac-core`'s chunk policy]), so
//!   same-class reuse almost always finds a buffer of exactly the right
//!   capacity instead of growing one.
//! * **Exclusive checkout** — `acquire` transfers ownership to the caller;
//!   the buffer is invisible to every other thread until `release` returns
//!   it. There is no aliasing window, so no per-buffer synchronisation.
//!
//! [`pdac-core`'s chunk policy]: ../../pdac_core/sched/struct.ChunkPolicy.html

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use pdac_hwtopo::DIST_MAX_EXTENDED;

/// Free lists of one shard, segregated by distance class.
type ClassLists = [Vec<Vec<u8>>; DIST_MAX_EXTENDED as usize + 1];

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
    shards: Vec<Mutex<ClassLists>>,
    acquires: AtomicU64,
    reuses: AtomicU64,
    bytes_allocated: AtomicU64,
}

/// How many free buffers one (shard, class) list retains; beyond this,
/// released buffers are dropped back to the allocator. Two is the
/// double-buffer working set: chunk `k` draining while `k+1` stages.
const RETAIN_PER_CLASS: usize = 2;

/// Fill byte written over released buffers in debug builds, so a caller
/// that reads a recycled buffer before overwriting it sees loud uniform
/// poison rather than a plausible prior payload.
#[cfg(debug_assertions)]
pub const POISON_BYTE: u8 = 0xDB;

impl BufferPool {
    /// Creates a pool with one shard per expected rank (minimum 1).
    pub fn new(shards: usize) -> Self {
        BufferPool {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(std::array::from_fn(|_| Vec::new())))
                .collect(),
            acquires: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
            bytes_allocated: AtomicU64::new(0),
        }
    }

    /// Checks out a buffer of exactly `len` bytes for `rank`, preferring a
    /// previously released buffer of the same distance class. Contents are
    /// unspecified — callers overwrite the full length.
    pub fn acquire(&self, rank: usize, class: u8, len: usize) -> Vec<u8> {
        self.acquires.fetch_add(1, Ordering::Relaxed);
        let class = (class as usize).min(DIST_MAX_EXTENDED as usize);
        let shard = &self.shards[rank % self.shards.len()];
        let reused = shard.lock()[class].pop();
        match reused {
            Some(mut buf) => {
                self.reuses.fetch_add(1, Ordering::Relaxed);
                let grow = len.saturating_sub(buf.capacity());
                if grow > 0 {
                    self.bytes_allocated
                        .fetch_add(grow as u64, Ordering::Relaxed);
                }
                buf.resize(len, 0);
                buf
            }
            None => {
                self.bytes_allocated
                    .fetch_add(len as u64, Ordering::Relaxed);
                vec![0; len]
            }
        }
    }

    /// Returns a buffer to `rank`'s shard for reuse under `class`.
    ///
    /// In debug builds the buffer is poisoned first: `acquire`'s contract
    /// is "contents are unspecified", and without poisoning a recycled
    /// buffer hands a *shorter* subsequent op a perfectly plausible prefix
    /// of the previous payload — exactly the stale-read hazard the
    /// checksummed data path exists to catch. Release builds skip the
    /// memset (the executor overwrites the full length before any read,
    /// and the checksum verifies it); debug builds make a violation
    /// unmissable instead of silently correct-looking.
    pub fn release(&self, rank: usize, class: u8, buf: Vec<u8>) {
        #[cfg(debug_assertions)]
        let buf = {
            let mut buf = buf;
            buf.iter_mut().for_each(|b| *b = POISON_BYTE);
            buf
        };
        let class = (class as usize).min(DIST_MAX_EXTENDED as usize);
        let shard = &self.shards[rank % self.shards.len()];
        let mut lists = shard.lock();
        if lists[class].len() < RETAIN_PER_CLASS {
            lists[class].push(buf);
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
    fn classes_do_not_share_arenas() {
        let pool = BufferPool::new(2);
        let b = pool.acquire(0, 2, 128);
        pool.release(0, 2, b);
        let _far = pool.acquire(0, 7, 128);
        assert_eq!(pool.stats().reuses, 0, "class 7 must not raid class 2");
    }

    #[test]
    fn ranks_map_to_distinct_shards() {
        let pool = BufferPool::new(2);
        let b = pool.acquire(0, 0, 64);
        pool.release(0, 0, b);
        // Rank 1 hashes to the other shard: no reuse.
        let _other = pool.acquire(1, 0, 64);
        assert_eq!(pool.stats().reuses, 0);
        // Rank 2 wraps back onto rank 0's shard: reuse.
        let _wrap = pool.acquire(2, 0, 64);
        assert_eq!(pool.stats().reuses, 1);
    }

    #[test]
    fn oversized_class_is_clamped() {
        let pool = BufferPool::new(1);
        let b = pool.acquire(0, 200, 32);
        pool.release(0, 200, b);
        assert_eq!(pool.acquire(0, DIST_MAX_EXTENDED, 32).len(), 32);
        assert_eq!(pool.stats().reuses, 1);
    }

    #[test]
    fn retention_is_bounded() {
        let pool = BufferPool::new(1);
        let bufs: Vec<_> = (0..5).map(|_| pool.acquire(0, 1, 256)).collect();
        for b in bufs {
            pool.release(0, 1, b);
        }
        // Only RETAIN_PER_CLASS survive; the rest went back to the allocator.
        for _ in 0..RETAIN_PER_CLASS {
            pool.acquire(0, 1, 256);
        }
        assert_eq!(pool.stats().reuses as usize, RETAIN_PER_CLASS);
        pool.acquire(0, 1, 256);
        assert_eq!(pool.stats().reuses as usize, RETAIN_PER_CLASS);
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
