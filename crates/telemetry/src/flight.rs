//! Crash-surviving flight recorder.
//!
//! Subsystems annotate what they are doing with cheap, bounded
//! [`note`] calls (a timestamped line in a last-N ring). Nothing is
//! written anywhere during a healthy run; the moment something goes
//! wrong — a chaos verification failure, a test panic — [`dump`] writes
//! the ring, a full metrics snapshot, and
//! the `PDAC_SEED` repro variable to a JSON file under the flight
//! directory. The file is what a CI log can't be: the last things the
//! process *knew*, not just the last things it printed.
//!
//! The recorder is a process-global singleton so the panic hook (see
//! [`install_panic_hook`]) and deeply nested failure sites reach the
//! same ring without plumbing a handle everywhere.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

use serde::Serialize;

/// Ring capacity: the last N notes kept.
pub const RING_CAPACITY: usize = 256;

/// Environment variable overriding where dumps are written
/// (default `flight/` under the current directory — note `cargo test`
/// runs with the *package* root as cwd, so test dumps land in
/// `crates/<name>/flight/`).
pub const FLIGHT_DIR_ENV: &str = "PDAC_FLIGHT_DIR";

/// One recorded note.
#[derive(Debug, Clone, Serialize)]
pub struct FlightEvent {
    /// Microseconds since the recorder was first touched.
    pub t_us: u64,
    /// Free-form annotation (`chaos seed=42 what=allreduce ...`).
    pub what: String,
}

/// The dumped artifact, as serialized to JSON. Owned fields: the
/// vendored serde derive does not support lifetime parameters.
#[derive(Debug, Serialize)]
struct FlightDump {
    reason: String,
    pdac_seed: Option<String>,
    /// Run-identity context set via [`FlightRecorder::set_context`]:
    /// transport backend, generated machine's regime name, repro command,
    /// last plan id — everything a dump needs to reproduce the run alone.
    context: Vec<(String, String)>,
    events: Vec<FlightEvent>,
    metrics: crate::RegistrySnapshot,
}

/// The process-global last-N-events recorder.
pub struct FlightRecorder {
    epoch: Instant,
    ring: Mutex<VecDeque<FlightEvent>>,
    /// Last-write-wins `(key, value)` run context, included in every dump.
    context: Mutex<Vec<(String, String)>>,
    dumps: crate::Counter,
}

static RECORDER: OnceLock<FlightRecorder> = OnceLock::new();

impl FlightRecorder {
    /// The process-global recorder.
    pub fn global() -> &'static FlightRecorder {
        RECORDER.get_or_init(|| FlightRecorder {
            epoch: Instant::now(),
            ring: Mutex::new(VecDeque::with_capacity(RING_CAPACITY)),
            context: Mutex::new(Vec::new()),
            dumps: crate::global().registry().counter("obs.flight.dumps"),
        })
    }

    /// Sets (or replaces) one run-context entry — `transport`, `machine`,
    /// `repro`, `plan`... — carried by every subsequent dump, so the dump
    /// alone identifies and reproduces the run.
    pub fn set_context(&self, key: impl Into<String>, value: impl Into<String>) {
        let (key, value) = (key.into(), value.into());
        let mut ctx = self.context.lock().unwrap_or_else(|p| p.into_inner());
        match ctx.iter_mut().find(|(k, _)| *k == key) {
            Some(entry) => entry.1 = value,
            None => ctx.push((key, value)),
        }
    }

    /// The current run context, in insertion order.
    pub fn context(&self) -> Vec<(String, String)> {
        self.context.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Records a note, evicting the oldest when the ring is full. A
    /// poisoned lock (panicking peer) is recovered — the recorder must
    /// keep working *especially* during a panic. The timestamp is read
    /// under the lock, so ring order is time order across threads.
    pub fn note(&self, what: impl Into<String>) {
        let what = what.into();
        let mut ring = self.ring.lock().unwrap_or_else(|p| p.into_inner());
        if ring.len() == RING_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(FlightEvent { t_us: self.epoch.elapsed().as_micros() as u64, what });
    }

    /// Number of notes currently held.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// True when no notes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Directory dumps are written to: `$PDAC_FLIGHT_DIR` or `flight/`.
    pub fn dir() -> PathBuf {
        std::env::var_os(FLIGHT_DIR_ENV)
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("flight"))
    }

    /// Dumps the ring plus a metrics snapshot and the `PDAC_SEED` repro
    /// variable to `<dir>/flight-<reason>-<pid>-<n>.json`. Returns the
    /// path written, or `None` when the write failed (a recorder must
    /// never turn a failure into a second failure).
    pub fn dump(&self, reason: &str) -> Option<PathBuf> {
        let events: Vec<FlightEvent> =
            self.ring.lock().unwrap_or_else(|p| p.into_inner()).iter().cloned().collect();
        let dump = FlightDump {
            reason: reason.to_string(),
            pdac_seed: std::env::var("PDAC_SEED").ok(),
            context: self.context(),
            events,
            metrics: crate::global().registry().snapshot(),
        };
        let json = serde_json::to_string_pretty(&dump).ok()?;
        let dir = Self::dir();
        std::fs::create_dir_all(&dir).ok()?;
        let slug: String = reason
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '-' })
            .collect();
        let n = self.dumps.get();
        self.dumps.inc();
        let path = dir.join(format!("flight-{slug}-{}-{n}.json", std::process::id()));
        std::fs::write(&path, json).ok()?;
        Some(path)
    }
}

/// Records a note on the global recorder.
pub fn note(what: impl Into<String>) {
    FlightRecorder::global().note(what);
}

/// Sets one run-context entry on the global recorder. See
/// [`FlightRecorder::set_context`].
pub fn set_context(key: impl Into<String>, value: impl Into<String>) {
    FlightRecorder::global().set_context(key, value);
}

/// Dumps the global recorder. See [`FlightRecorder::dump`].
pub fn dump(reason: &str) -> Option<PathBuf> {
    FlightRecorder::global().dump(reason)
}

static PANIC_HOOK: Once = Once::new();

/// Chains a panic hook (once per process) that dumps the flight ring
/// with reason `panic` before delegating to the previous hook, so test
/// panics leave a flight file behind for CI to upload.
pub fn install_panic_hook() {
    PANIC_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            note(format!("panic: {info}"));
            if let Some(path) = dump("panic") {
                eprintln!("flight recorder dumped to {}", path.display());
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_ordered() {
        let rec = FlightRecorder::global();
        for i in 0..(RING_CAPACITY + 10) {
            rec.note(format!("bounded-test event {i}"));
        }
        assert!(rec.len() <= RING_CAPACITY);
        let ring = rec.ring.lock().unwrap();
        // The ring is process-wide: a concurrent test may have noted since.
        let last = ring
            .iter()
            .rev()
            .find(|ev| ev.what.starts_with("bounded-test"))
            .expect("ring holds this test's notes");
        assert!(last.what.contains(&format!("event {}", RING_CAPACITY + 9)));
        let mut prev = 0u64;
        for ev in ring.iter() {
            assert!(ev.t_us >= prev, "notes are time-ordered");
            prev = ev.t_us;
        }
    }

    #[test]
    fn dump_writes_events_seed_and_metrics() {
        let dir = std::env::temp_dir().join(format!("pdac_flight_{}", std::process::id()));
        // Env var reads race between tests in one process; this is the
        // only test in the crate touching FLIGHT_DIR_ENV.
        std::env::set_var(FLIGHT_DIR_ENV, &dir);
        crate::global().registry().add("obs.flight.test_marker", 7);
        note("dump-test: about to dump");
        set_context("transport", "knem");
        set_context("transport", "rdma"); // last write wins
        set_context("machine", "fuzz-b1s1r0c3");
        let ctx = FlightRecorder::global().context();
        assert_eq!(
            ctx.iter().find(|(k, _)| k == "transport").map(|(_, v)| v.as_str()),
            Some("rdma"),
            "replaced context values do not linger"
        );
        let path = dump("unit test").expect("dump written");
        std::env::remove_var(FLIGHT_DIR_ENV);
        let text = std::fs::read_to_string(&path).expect("dump readable");
        assert!(text.contains("\"rdma\""), "dump carries the transport context:\n{text}");
        assert!(text.contains("fuzz-b1s1r0c3"), "dump carries the machine regime name");
        assert!(path.file_name().unwrap().to_str().unwrap().starts_with("flight-unit-test-"));
        assert!(text.contains("\"reason\": \"unit test\""));
        assert!(text.contains("dump-test: about to dump"));
        assert!(text.contains("obs.flight.test_marker"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
