//! # pdac-telemetry — unified runtime observability
//!
//! One telemetry spine for every layer of the stack: the discrete-event
//! simulator, the real-thread executor, the KNEM device model, the
//! topology cache and the recovery machinery all speak to the same two
//! primitives:
//!
//! * the **[`Recorder`]** — a sharded, bounded ring buffer of timestamped
//!   [`Event`]s (spans and instants). It records only while somebody
//!   holds a [`Reader`] on it, and the reader is also the only way to
//!   drain it: with none, every `span`/`instant` call returns after one
//!   relaxed load — no clock read, no allocation, no lock — so
//!   instrumented hot paths cost one predictable branch until a trace is
//!   asked for.
//! * the **[`Registry`]** — always-available named [`Counter`]s and
//!   HDR-style log-bucketed [`LogHistogram`]s. Each counted fact has one
//!   name here, published by the layer that owns it: the executor's run
//!   accounting (`exec.*`, `knem.*`, `integrity.*`, `faults.*`), the
//!   recovery manager's (`recovery.*`, `chaos.*`), the simulator's own
//!   solver work (`sim.*`). Per-run records such as `FaultStats` carry the
//!   same facts for one run; the registry sums them across runs, where they
//!   can be snapshotted, serialized and diffed. The facade's
//!   `tests/metric_catalog.rs` lists every name with its meaning and reader.
//!
//! The [`export`] module renders recorded events as Chrome Trace Event
//! JSON (one format for simulated *and* real runs, so both open
//! side-by-side in [Perfetto](https://ui.perfetto.dev)) and registry
//! snapshots as JSON documents that `pdac-trace diff` compares for
//! per-distance-class regression deltas. Read off the hot path:
//!
//! * [`flight`] — a crash-surviving last-N-notes flight recorder, dumped
//!   with a registry snapshot and `PDAC_SEED` on a chaos failure or panic;
//! * [`history`] — the JSONL perf history (`BENCH_history.jsonl`, the
//!   `pdac-e2e` rows) with cross-run trend rendering;
//! * [`openmetrics`] — a registry snapshot in the OpenMetrics text format,
//!   kept for the benchmark's render probe.
//!
//! A process-global instance lives behind [`global()`]; layers that cannot
//! thread a handle through their API record there.

#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod flight;
pub mod histogram;
pub mod history;
pub mod openmetrics;
pub mod recorder;
pub mod registry;
pub mod snapshot;

pub use event::{ArgValue, Event, EventKind};
pub use export::{chrome_trace, esc, TraceMeta};
pub use flight::FlightRecorder;
pub use histogram::{bucket_bounds, bucket_index, estimate_percentile, LogHistogram};
pub use history::HistoryEntry;
pub use openmetrics::to_openmetrics;
pub use recorder::{Reader, Recorder, Span};
pub use registry::{Counter, Registry};
pub use snapshot::{HistogramSnapshot, RegistrySnapshot, SnapshotDiff};

use std::sync::OnceLock;

/// The process-global recorder + registry pair.
#[derive(Debug)]
pub struct Telemetry {
    recorder: Recorder,
    registry: Registry,
}

impl Telemetry {
    /// A fresh instance with the default recorder capacity.
    pub fn new() -> Self {
        Telemetry {
            recorder: Recorder::new(recorder::DEFAULT_CAPACITY),
            registry: Registry::new(),
        }
    }

    /// The event recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Clears recorded events and zeroes every registered metric — the
    /// start-of-run reset the `pdac-trace` CLI performs so one run's
    /// artifacts describe exactly that run.
    pub fn reset(&self) {
        self.recorder.clear();
        self.registry.reset();
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

/// The process-global telemetry instance. Layers without a way to thread a
/// handle through their API (the KNEM device, the topology cache, the
/// distance-matrix fill) record here; harnesses drain and snapshot it.
pub fn global() -> &'static Telemetry {
    static GLOBAL: OnceLock<Telemetry> = OnceLock::new();
    GLOBAL.get_or_init(Telemetry::new)
}
