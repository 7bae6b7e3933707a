//! The bounded, sharded event recorder.
//!
//! Events land in one of [`SHARDS`] independently locked ring buffers
//! picked by the recording thread's id, so concurrent ranks almost never
//! contend on a lock; a global atomic sequence number preserves the exact
//! record order across shards for the exporter. Each shard is bounded:
//! when full, the oldest event of that shard is dropped (and counted), so
//! a long run degrades to "most recent window" instead of unbounded
//! memory.
//!
//! **Feature gating.** Without the crate's `enabled` feature every method
//! here is an empty `#[inline]` function and [`Span`] is a zero-sized
//! type: no clock is read, no name is formatted (names and args are passed
//! as closures precisely so their construction is skipped), nothing is
//! locked. Instrumented hot paths therefore cost nothing in default
//! builds.

use crate::event::{ArgValue, Event};
#[cfg(feature = "enabled")]
use crate::event::EventKind;

#[cfg(feature = "enabled")]
use std::collections::VecDeque;
#[cfg(feature = "enabled")]
use std::collections::hash_map::DefaultHasher;
#[cfg(feature = "enabled")]
use std::hash::{Hash, Hasher};
#[cfg(feature = "enabled")]
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(feature = "enabled")]
use std::sync::Mutex;
#[cfg(feature = "enabled")]
use std::time::Instant;

/// Number of independently locked event rings.
pub const SHARDS: usize = 16;

/// Default total event capacity (split across shards).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

#[cfg(feature = "enabled")]
#[derive(Debug)]
struct Shard {
    ring: Mutex<VecDeque<Event>>,
}

/// Records spans and instants into a bounded ring. See the module docs for
/// the sharding and feature-gating contract.
#[derive(Debug)]
pub struct Recorder {
    #[cfg(feature = "enabled")]
    epoch: Instant,
    #[cfg(feature = "enabled")]
    seq: AtomicU64,
    #[cfg(feature = "enabled")]
    dropped: AtomicU64,
    #[cfg(feature = "enabled")]
    cap_per_shard: usize,
    #[cfg(feature = "enabled")]
    shards: Vec<Shard>,
}

/// Guard measuring one span: created at the start of the work, records a
/// `EventKind::Complete` event when dropped. A zero-sized no-op when
/// recording is compiled out.
#[must_use = "a span measures until it is dropped"]
pub struct Span<'a> {
    #[cfg(feature = "enabled")]
    inner: Option<SpanInner<'a>>,
    #[cfg(not(feature = "enabled"))]
    _marker: std::marker::PhantomData<&'a ()>,
}

#[cfg(feature = "enabled")]
struct SpanInner<'a> {
    rec: &'a Recorder,
    tid: u64,
    cat: &'static str,
    name: String,
    args: Vec<(&'static str, ArgValue)>,
    start_us: f64,
}

impl Recorder {
    /// A recorder holding at most `capacity` events (split across shards).
    pub fn new(capacity: usize) -> Self {
        #[cfg(feature = "enabled")]
        {
            let cap_per_shard = capacity.div_ceil(SHARDS).max(1);
            Recorder {
                epoch: Instant::now(),
                seq: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                cap_per_shard,
                shards: (0..SHARDS)
                    .map(|_| Shard { ring: Mutex::new(VecDeque::new()) })
                    .collect(),
            }
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = capacity;
            Recorder {}
        }
    }

    /// Microseconds since this recorder's epoch (0.0 when recording is
    /// compiled out).
    pub fn now_us(&self) -> f64 {
        #[cfg(feature = "enabled")]
        {
            self.epoch.elapsed().as_secs_f64() * 1e6
        }
        #[cfg(not(feature = "enabled"))]
        {
            0.0
        }
    }

    /// Starts a span on logical thread `tid`. `name` and `args` are
    /// closures so their construction is skipped entirely when recording
    /// is compiled out.
    #[inline]
    pub fn span<'a>(
        &'a self,
        tid: u64,
        cat: &'static str,
        name: impl FnOnce() -> String,
        args: impl FnOnce() -> Vec<(&'static str, ArgValue)>,
    ) -> Span<'a> {
        #[cfg(feature = "enabled")]
        {
            Span {
                inner: Some(SpanInner {
                    rec: self,
                    tid,
                    cat,
                    name: name(),
                    args: args(),
                    start_us: self.now_us(),
                }),
            }
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = (tid, cat, name, args);
            Span { _marker: std::marker::PhantomData }
        }
    }

    /// Records a point-in-time marker.
    #[inline]
    pub fn instant(
        &self,
        tid: u64,
        cat: &'static str,
        name: impl FnOnce() -> String,
        args: impl FnOnce() -> Vec<(&'static str, ArgValue)>,
    ) {
        #[cfg(feature = "enabled")]
        {
            let ts = self.now_us();
            self.push(Event {
                seq: 0,
                ts_us: ts,
                dur_us: 0.0,
                tid,
                name: name(),
                cat,
                kind: EventKind::Instant,
                args: args(),
            });
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = (tid, cat, name, args);
        }
    }

    /// Records a complete span with explicit timestamps. Gated like every
    /// other recording call; converters that already own their timing data
    /// (e.g. the simulator's report-to-trace path) build [`Event`] values
    /// directly instead of going through a recorder.
    #[inline]
    pub fn complete(
        &self,
        tid: u64,
        cat: &'static str,
        ts_us: f64,
        dur_us: f64,
        name: impl FnOnce() -> String,
        args: impl FnOnce() -> Vec<(&'static str, ArgValue)>,
    ) {
        #[cfg(feature = "enabled")]
        {
            self.push(Event {
                seq: 0,
                ts_us,
                dur_us,
                tid,
                name: name(),
                cat,
                kind: EventKind::Complete,
                args: args(),
            });
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = (tid, cat, ts_us, dur_us, name, args);
        }
    }

    #[cfg(feature = "enabled")]
    fn push(&self, mut event: Event) {
        event.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut hasher = DefaultHasher::new();
        std::thread::current().id().hash(&mut hasher);
        let shard = &self.shards[(hasher.finish() as usize) % SHARDS];
        let mut ring = shard.ring.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if ring.len() >= self.cap_per_shard {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    /// Takes every recorded event, ordered by sequence number (record
    /// order). Empty when recording is compiled out.
    pub fn drain(&self) -> Vec<Event> {
        #[cfg(feature = "enabled")]
        {
            let mut all = Vec::new();
            for shard in &self.shards {
                let mut ring =
                    shard.ring.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                all.extend(ring.drain(..));
            }
            all.sort_by_key(|e| e.seq);
            all
        }
        #[cfg(not(feature = "enabled"))]
        {
            Vec::new()
        }
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        #[cfg(feature = "enabled")]
        {
            self.shards
                .iter()
                .map(|s| s.ring.lock().unwrap_or_else(std::sync::PoisonError::into_inner).len())
                .sum()
        }
        #[cfg(not(feature = "enabled"))]
        {
            0
        }
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events discarded because a shard ring was full.
    pub fn dropped(&self) -> u64 {
        #[cfg(feature = "enabled")]
        {
            self.dropped.load(Ordering::Relaxed)
        }
        #[cfg(not(feature = "enabled"))]
        {
            0
        }
    }

    /// Discards every buffered event (sequence numbers keep increasing, so
    /// later drains still order correctly against earlier ones).
    pub fn clear(&self) {
        #[cfg(feature = "enabled")]
        {
            for shard in &self.shards {
                shard.ring.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
            }
            self.dropped.store(0, Ordering::Relaxed);
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        #[cfg(feature = "enabled")]
        if let Some(inner) = self.inner.take() {
            let end = inner.rec.now_us();
            inner.rec.push(Event {
                seq: 0,
                ts_us: inner.start_us,
                dur_us: (end - inner.start_us).max(0.0),
                tid: inner.tid,
                name: inner.name,
                cat: inner.cat,
                kind: EventKind::Complete,
                args: inner.args,
            });
        }
    }
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;

    #[test]
    fn spans_and_instants_are_sequenced() {
        let rec = Recorder::new(1024);
        {
            let _s = rec.span(3, "test", || "outer".into(), Vec::new);
            rec.instant(3, "test", || "mark".into(), || vec![("k", 7u64.into())]);
        }
        let events = rec.drain();
        assert_eq!(events.len(), 2);
        // The instant was pushed before the span ended.
        assert_eq!(events[0].name, "mark");
        assert_eq!(events[0].kind, EventKind::Instant);
        assert_eq!(events[1].name, "outer");
        assert_eq!(events[1].kind, EventKind::Complete);
        assert!(events[0].seq < events[1].seq);
        assert!(events[1].dur_us >= 0.0);
        assert!(rec.is_empty(), "drain takes everything");
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        // All events come from one thread, so they land in one shard of
        // capacity ceil(32/16) = 2.
        let rec = Recorder::new(32);
        for i in 0..10 {
            rec.instant(0, "test", || format!("e{i}"), Vec::new);
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 8);
        let events = rec.drain();
        assert_eq!(events.last().unwrap().name, "e9", "newest survives");
    }

    #[test]
    fn clear_discards_but_keeps_sequencing() {
        let rec = Recorder::new(64);
        rec.instant(0, "test", || "a".into(), Vec::new);
        rec.clear();
        rec.instant(0, "test", || "b".into(), Vec::new);
        let events = rec.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "b");
        assert!(events[0].seq >= 1, "sequence numbers continue after clear");
    }
}
