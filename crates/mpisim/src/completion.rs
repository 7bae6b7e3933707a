//! Lock-free completion ring — the executor's wake-up channel.
//!
//! A bounded multi-producer / single-consumer ring of operation ids. Each
//! executing rank owns one ring; every peer whose operation unblocks a
//! cross-rank dependency pushes the completed op id into the dependent
//! rank's ring instead of broadcasting through a mutex + condvar. The
//! waiting rank polls its own ring (and the shared `done` flags) on the
//! success path; condvar parking survives only behind an armed deadline —
//! the fault-timeout and failure-detector suspect-clock paths.
//!
//! # Memory-ordering contract
//!
//! Slots store `op_id + 1`, reserving `0` for *empty*. The protocol:
//!
//! * **Producers** claim a slot index by CAS on `tail` (`AcqRel`), then
//!   publish the value with a `Release` store into the slot. A claimed but
//!   not-yet-published slot still reads `0`.
//! * **The consumer** observes `tail` with `Acquire`, reads the head slot
//!   with `Acquire` (so the payload store is visible), treats a `0` slot as
//!   "claimed, publication in flight" and returns `None` rather than
//!   spinning, then zeroes the slot and advances `head` with `Release` so
//!   producers that `Acquire`-load `head` see the slot as free before they
//!   reuse it.
//! * **Fullness** is judged by `tail - head >= capacity` against an
//!   `Acquire` load of `head`: a producer never claims a slot the consumer
//!   has not both drained and zeroed.
//!
//! Per-producer FIFO order follows from the claim order: one producer's
//! successive pushes claim strictly increasing slot indices, and the
//! consumer drains indices in order.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Bounded lock-free MPSC ring of operation ids.
///
/// Capacity is rounded up to a power of two. `push` is safe from any
/// number of threads; `pop` must only be called from the single consumer
/// that owns the ring.
#[derive(Debug)]
pub struct CompletionRing {
    /// `op_id + 1` per slot; `0` means empty (or claimed, not published).
    slots: Box<[AtomicUsize]>,
    /// `capacity - 1`, for index wrapping.
    mask: usize,
    /// Next slot index producers claim (monotonic, wraps via `mask`).
    tail: AtomicUsize,
    /// Next slot index the consumer drains (monotonic, wraps via `mask`).
    head: AtomicUsize,
}

impl CompletionRing {
    /// Creates a ring holding at least `capacity` entries (rounded up to a
    /// power of two, minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        CompletionRing {
            slots: (0..cap).map(|_| AtomicUsize::new(0)).collect(),
            mask: cap - 1,
            tail: AtomicUsize::new(0),
            head: AtomicUsize::new(0),
        }
    }

    /// Usable capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Entries currently enqueued (racy snapshot; exact only when quiesced).
    pub fn len(&self) -> usize {
        let tail = self.tail.load(Ordering::Acquire);
        let head = self.head.load(Ordering::Acquire);
        tail.wrapping_sub(head).min(self.capacity())
    }

    /// Whether the ring appears empty (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues `value`. Returns `false` when the ring is full — callers
    /// that size the ring for the worst case may treat that as a bug.
    pub fn push(&self, value: usize) -> bool {
        let mut tail = self.tail.load(Ordering::Relaxed);
        loop {
            let head = self.head.load(Ordering::Acquire);
            if tail.wrapping_sub(head) >= self.capacity() {
                // `tail` was read before `head`: if other producers pushed
                // and the consumer drained past it in between, the
                // difference wraps and only looks full. The ring is full
                // only if `tail` is still current.
                let current = self.tail.load(Ordering::Acquire);
                if current == tail {
                    return false;
                }
                tail = current;
                continue;
            }
            match self.tail.compare_exchange_weak(
                tail,
                tail.wrapping_add(1),
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.slots[tail & self.mask].store(value + 1, Ordering::Release);
                    return true;
                }
                Err(current) => tail = current,
            }
        }
    }

    /// Dequeues the oldest entry. Single consumer only. Returns `None` when
    /// the ring is empty *or* the head slot is claimed but its value is not
    /// yet published (the consumer retries on its next poll instead of
    /// spinning on the in-flight producer).
    pub fn pop(&self) -> Option<usize> {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let slot = &self.slots[head & self.mask];
        let v = slot.load(Ordering::Acquire);
        if v == 0 {
            return None;
        }
        slot.store(0, Ordering::Relaxed);
        self.head.store(head.wrapping_add(1), Ordering::Release);
        Some(v - 1)
    }

    /// Drains every currently visible entry into `sink`, returning the
    /// count drained.
    pub fn drain_into(&self, sink: &mut impl FnMut(usize)) -> usize {
        let mut n = 0;
        while let Some(v) = self.pop() {
            sink(v);
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_single_thread() {
        let r = CompletionRing::with_capacity(8);
        for i in 0..5 {
            assert!(r.push(i));
        }
        assert_eq!(r.len(), 5);
        for i in 0..5 {
            assert_eq!(r.pop(), Some(i));
        }
        assert_eq!(r.pop(), None);
        assert!(r.is_empty());
    }

    #[test]
    fn capacity_rounds_up_and_full_rejects() {
        let r = CompletionRing::with_capacity(5);
        assert_eq!(r.capacity(), 8);
        for i in 0..8 {
            assert!(r.push(i));
        }
        assert!(!r.push(99), "full ring rejects");
        assert_eq!(r.pop(), Some(0));
        assert!(r.push(99), "freed slot is reusable");
    }

    #[test]
    fn wraparound_preserves_order() {
        let r = CompletionRing::with_capacity(4);
        for round in 0..10 {
            for i in 0..3 {
                assert!(r.push(round * 3 + i));
            }
            for i in 0..3 {
                assert_eq!(r.pop(), Some(round * 3 + i));
            }
        }
    }

    #[test]
    fn zero_value_round_trips() {
        // Op id 0 must not collide with the empty sentinel.
        let r = CompletionRing::with_capacity(2);
        assert!(r.push(0));
        assert_eq!(r.pop(), Some(0));
    }

    #[test]
    fn concurrent_producers_lose_nothing() {
        // Sized for every push, as the executor sizes its rings: a push
        // may never report full, however stale the producer's view of
        // `tail` is when the consumer drains past it.
        let r = std::sync::Arc::new(CompletionRing::with_capacity(1024));
        let producers = 4;
        let per = 200;
        crossbeam::thread::scope(|scope| {
            for p in 0..producers {
                let r = std::sync::Arc::clone(&r);
                scope.spawn(move |_| {
                    for i in 0..per {
                        assert!(r.push(p * per + i), "capacity remains");
                    }
                });
            }
            let mut seen = Vec::new();
            while seen.len() < producers * per {
                if let Some(v) = r.pop() {
                    seen.push(v);
                } else {
                    std::thread::yield_now();
                }
            }
            seen.sort_unstable();
            let expect: Vec<usize> = (0..producers * per).collect();
            assert_eq!(seen, expect, "no loss, no duplication");
        })
        .unwrap();
    }
}
