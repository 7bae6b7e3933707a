//! # pdac-obs — the observability plane
//!
//! Layered over the [`pdac_telemetry::Registry`] every subsystem already
//! publishes into: what a scraper, a crash report or the next run's
//! comparison needs, read as snapshots. Two pillars:
//!
//! * [`openmetrics`] — renders a [`pdac_telemetry::RegistrySnapshot`] in the
//!   OpenMetrics / Prometheus text exposition format: counters become
//!   `_total` samples, log2 histograms become cumulative `le` bucket
//!   series ending in `+Inf`, and the original dotted metric name
//!   survives sanitization in the `# HELP` line.
//! * [`flight`] + [`history`] — a crash-surviving last-N-events flight
//!   recorder (dumped on chaos failure or panic, with the metrics
//!   snapshot and `PDAC_SEED` attached) and the JSONL perf history
//!   (`BENCH_history.jsonl`, the `pdac-e2e` rows) with cross-run trend
//!   rendering.
//!
//! Everything here reads snapshots off the hot path.

#![warn(missing_docs)]

pub mod flight;
pub mod history;
pub mod openmetrics;

pub use flight::FlightRecorder;
pub use history::HistoryEntry;
pub use openmetrics::to_openmetrics;
