//! The recorded event model.
//!
//! Events are deliberately close to the Chrome Trace Event format the
//! exporter emits: a *complete* event is one `X` slice (a span with start
//! and duration), an *instant* is an `i` marker. Each event carries the
//! logical thread (`tid`) it belongs to — rank number for executor events,
//! 0 for build-time events — plus a global sequence number that makes the
//! interleaving of concurrent recorders reconstructible.

/// One argument value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// An unsigned integer (byte counts, ranks, op ids).
    U64(u64),
    /// A float (durations, factors).
    F64(f64),
    /// A string (mechanism names, labels).
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// What shape of event was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span with a start and a duration (`ph: "X"`).
    Complete,
    /// A point-in-time marker (`ph: "i"`).
    Instant,
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Global sequence number — strictly increasing in record order across
    /// all threads (a complete span is sequenced at its *end*, when it is
    /// pushed).
    pub seq: u64,
    /// Start timestamp, microseconds since the recorder's epoch.
    pub ts_us: f64,
    /// Duration in microseconds (0 for instants).
    pub dur_us: f64,
    /// Logical thread the event belongs to (rank for executor events).
    pub tid: u64,
    /// Event name (the slice label in Perfetto).
    pub name: String,
    /// Category, used for filtering (`copy`, `notify`, `knem`,
    /// `topocache`, `recovery`, ...).
    pub cat: &'static str,
    /// Complete span or instant marker.
    pub kind: EventKind,
    /// Key/value arguments rendered into the trace.
    pub args: Vec<(&'static str, ArgValue)>,
}

impl Event {
    /// End timestamp (equals `ts_us` for instants).
    pub fn end_us(&self) -> f64 {
        self.ts_us + self.dur_us
    }

    /// The argument named `key`, if attached.
    pub fn arg(&self, key: &str) -> Option<&ArgValue> {
        self.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// The argument named `key` as an unsigned integer.
    pub fn arg_u64(&self, key: &str) -> Option<u64> {
        match self.arg(key)? {
            ArgValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The argument named `key` as a string.
    pub fn arg_str(&self, key: &str) -> Option<&str> {
        match self.arg(key)? {
            ArgValue::Str(s) => Some(s),
            _ => None,
        }
    }
}
