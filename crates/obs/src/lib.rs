//! # pdac-obs — a re-export shim
//!
//! The flight recorder, the perf history and the OpenMetrics rendering
//! live in [`pdac_telemetry`]; this crate only re-exports them for the
//! `pdac-e2e` benchmark package, which imports them from here. The next
//! change to that benchmark imports them from `pdac_telemetry` and
//! deletes this crate.

pub use pdac_telemetry::{
    flight, history, openmetrics, to_openmetrics, FlightRecorder, HistoryEntry,
};
