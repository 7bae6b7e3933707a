//! The bounded event recorder.
//!
//! Events land in one ring buffer under one lock, which also hands out the
//! sequence number that orders them for the exporter. The ring is bounded:
//! when full, the oldest event is dropped (and counted), so a long run
//! degrades to "most recent window" instead of unbounded memory. Whichever
//! threads record, the whole capacity is theirs.
//!
//! **Armed by its readers.** A recorder records only while somebody holds
//! a [`Reader`] on it ([`Recorder::reader`]) — the guard is also the only
//! way to drain events, so whoever wants a trace arms the recorder by
//! asking for one, and nothing else can. With no reader,
//! `span`/`instant`/`complete` return after one relaxed load of the reader
//! count: no clock is read, no name is formatted (names and args are
//! passed as closures precisely so their construction is skipped), nothing
//! is allocated or locked.

use crate::event::{ArgValue, Event, EventKind};

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Default event capacity.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Records spans and instants into a bounded ring while a [`Reader`] is
/// held. See the module docs for the bounding and arming contract.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    /// Live [`Reader`] guards; recording calls are no-ops while it is 0.
    readers: AtomicUsize,
    capacity: usize,
    ring: Mutex<Ring>,
}

/// What the recorder's lock guards.
#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<Event>,
    /// The next event's sequence number; never reset.
    seq: u64,
    /// Events discarded because the ring was full.
    dropped: u64,
}

/// A reader's hold on a [`Recorder`]: the recorder records from
/// [`Recorder::reader`] until the last overlapping guard is dropped, and
/// [`Reader::drain`] takes what it recorded.
#[derive(Debug)]
#[must_use = "the recorder is armed only while the reader is held"]
pub struct Reader<'a> {
    rec: &'a Recorder,
}

/// Guard measuring one span: created at the start of the work, records a
/// `EventKind::Complete` event when dropped. Empty when the recorder was
/// not armed at the start; a span that did start lands even if the last
/// reader has gone by the time it ends.
#[must_use = "a span measures until it is dropped"]
pub struct Span<'a> {
    inner: Option<SpanInner<'a>>,
}

struct SpanInner<'a> {
    rec: &'a Recorder,
    tid: u64,
    cat: &'static str,
    name: String,
    args: Vec<(&'static str, ArgValue)>,
    start_us: f64,
}

impl Recorder {
    /// A recorder holding at most `capacity` events (at least one).
    pub fn new(capacity: usize) -> Self {
        Recorder {
            epoch: Instant::now(),
            readers: AtomicUsize::new(0),
            capacity: capacity.max(1),
            ring: Mutex::default(),
        }
    }

    /// Arms the recorder for as long as the returned guard lives. Guards
    /// nest and overlap freely; recording stops when the last one drops.
    pub fn reader(&self) -> Reader<'_> {
        self.readers.fetch_add(1, Ordering::Relaxed);
        Reader { rec: self }
    }

    /// The check every recording call makes first. `Relaxed` throughout:
    /// the count publishes no data, and a thread started or handed its work
    /// after `reader()` returned sees the increment through that hand-off.
    #[inline]
    fn armed(&self) -> bool {
        self.readers.load(Ordering::Relaxed) != 0
    }

    /// Microseconds since this recorder's epoch.
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Starts a span on logical thread `tid`. `name` and `args` are
    /// closures so their construction is skipped entirely while no reader
    /// is held.
    #[inline]
    pub fn span<'a>(
        &'a self,
        tid: u64,
        cat: &'static str,
        name: impl FnOnce() -> String,
        args: impl FnOnce() -> Vec<(&'static str, ArgValue)>,
    ) -> Span<'a> {
        if !self.armed() {
            return Span { inner: None };
        }
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

    /// Records a point-in-time marker.
    #[inline]
    pub fn instant(
        &self,
        tid: u64,
        cat: &'static str,
        name: impl FnOnce() -> String,
        args: impl FnOnce() -> Vec<(&'static str, ArgValue)>,
    ) {
        if !self.armed() {
            return;
        }
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

    /// Records a complete span with explicit timestamps. Armed like every
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
        if !self.armed() {
            return;
        }
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

    /// Every update leaves the ring valid, so a ring poisoned by a
    /// panicking recorder thread is still readable.
    fn ring(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, mut event: Event) {
        let mut ring = self.ring();
        event.seq = ring.seq;
        ring.seq += 1;
        if ring.events.len() >= self.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(event);
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.ring().events.len()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events discarded because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring().dropped
    }

    /// Discards every buffered event (sequence numbers keep increasing, so
    /// later drains still order correctly against earlier ones).
    pub fn clear(&self) {
        let mut ring = self.ring();
        ring.events.clear();
        ring.dropped = 0;
    }
}

impl Reader<'_> {
    /// Takes every recorded event, in sequence number (record) order.
    pub fn drain(&self) -> Vec<Event> {
        self.rec.ring().events.drain(..).collect()
    }
}

impl Drop for Reader<'_> {
    fn drop(&mut self) {
        self.rec.readers.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn never_name() -> String {
        panic!("a disarmed recorder must not build a name")
    }

    fn never_args() -> Vec<(&'static str, ArgValue)> {
        panic!("a disarmed recorder must not build args")
    }

    #[test]
    fn disarmed_calls_never_run_their_closures() {
        let rec = Recorder::new(1024);
        drop(rec.span(0, "test", never_name, never_args));
        rec.instant(0, "test", never_name, never_args);
        rec.complete(0, "test", 1.0, 2.0, never_name, never_args);
        assert_eq!(rec.len(), 0);
        assert_eq!(rec.dropped(), 0);
        assert!(rec.reader().drain().is_empty());
    }

    #[test]
    fn overlapping_readers_compose_and_the_last_one_disarms() {
        let rec = Recorder::new(1024);
        let outer = rec.reader();
        let inner = rec.reader();
        rec.instant(0, "test", || "both".into(), Vec::new);
        drop(outer);
        rec.instant(0, "test", || "one".into(), Vec::new);
        let names: Vec<String> = inner.drain().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["both", "one"]);
        drop(inner);
        rec.instant(0, "test", never_name, never_args);
        assert!(rec.is_empty(), "nothing records once the last reader is gone");
    }

    #[test]
    fn span_opened_while_armed_lands_after_disarm() {
        let rec = Recorder::new(1024);
        let reader = rec.reader();
        let span = rec.span(7, "test", || "straddles".into(), || vec![("k", 1u64.into())]);
        drop(reader);
        drop(span);
        let events = rec.reader().drain();
        assert_eq!(events.len(), 1, "no half-recorded span");
        assert_eq!(events[0].name, "straddles");
        assert_eq!(events[0].kind, EventKind::Complete);
        assert_eq!(events[0].arg_u64("k"), Some(1));
    }

    #[test]
    fn spans_and_instants_are_sequenced() {
        let rec = Recorder::new(1024);
        let reader = rec.reader();
        {
            let _s = rec.span(3, "test", || "outer".into(), Vec::new);
            rec.instant(3, "test", || "mark".into(), || vec![("k", 7u64.into())]);
        }
        let events = reader.drain();
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
        let rec = Recorder::new(32);
        let reader = rec.reader();
        for i in 0..40 {
            rec.instant(0, "test", || format!("e{i}"), Vec::new);
        }
        assert_eq!(rec.len(), 32, "the whole capacity is usable");
        assert_eq!(rec.dropped(), 8);
        let names: Vec<String> = reader.drain().into_iter().map(|e| e.name).collect();
        let newest: Vec<String> = (8..40).map(|i| format!("e{i}")).collect();
        assert_eq!(names, newest, "the newest 32 survive, in record order");
    }

    #[test]
    fn threads_sharing_the_ring_fill_its_whole_capacity() {
        for threads in 2..=4 {
            let rec = Recorder::new(60);
            let reader = rec.reader();
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let rec = &rec;
                    scope.spawn(move || {
                        for i in 0..60 / threads {
                            rec.instant(t as u64, "test", || format!("t{t}.{i}"), Vec::new);
                        }
                    });
                }
            });
            assert_eq!(rec.dropped(), 0, "{threads} threads");
            let events = reader.drain();
            assert_eq!(events.len(), 60, "{threads} threads");
            assert!(events.windows(2).all(|w| w[0].seq < w[1].seq), "drained in sequence order");
        }
    }

    #[test]
    fn clear_discards_but_keeps_sequencing() {
        let rec = Recorder::new(64);
        let reader = rec.reader();
        rec.instant(0, "test", || "a".into(), Vec::new);
        rec.clear();
        rec.instant(0, "test", || "b".into(), Vec::new);
        let events = reader.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "b");
        assert!(events[0].seq >= 1, "sequence numbers continue after clear");
    }
}
