//! # pdac-obs — the live observability plane
//!
//! PR 3/4 telemetry is post-hoc: ring buffers dumped to Chrome traces
//! after a run ends. This crate layers a *live* plane over the same
//! [`pdac_telemetry::Registry`], answering "where is time going" while
//! the system runs — and leaving enough behind to answer it after a
//! crash. Three pillars:
//!
//! * [`openmetrics`] — renders a [`pdac_telemetry::RegistrySnapshot`] in the
//!   OpenMetrics / Prometheus text exposition format: counters become
//!   `_total` samples, log2 histograms become cumulative `le` bucket
//!   series ending in `+Inf`, and the original dotted metric name
//!   survives sanitization in the `# HELP` line.
//! * [`flusher`] — a periodic, non-blocking exposition thread. Flush
//!   requests travel over a bounded channel and are **dropped and
//!   counted** under backpressure (`obs.flush.dropped`); the hot path
//!   never blocks on the scrape file. The flusher measures its own cost
//!   (`obs.flush.ns`) so the gate can enforce the ≤1% overhead budget.
//! * [`flight`] + [`history`] — a crash-surviving last-N-events flight
//!   recorder (dumped on chaos failure, panic, or gate regression, with
//!   the metrics snapshot and `PDAC_SEED` attached) and an append-only
//!   JSONL perf history (`BENCH_history.jsonl`) with cross-run trend
//!   rendering.
//!
//! The plane's own overhead is part of its contract: everything here
//! reads snapshots off the hot path, and the flusher accounts every
//! nanosecond it spends so `pdac-bench overhead` can fail the build when
//! observation starts perturbing the observed.

#![warn(missing_docs)]

pub mod flight;
pub mod flusher;
pub mod history;
pub mod openmetrics;

pub use flight::FlightRecorder;
pub use flusher::{ExpositionFlusher, FlusherConfig};
pub use history::HistoryEntry;
pub use openmetrics::to_openmetrics;
