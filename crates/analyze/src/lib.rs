//! # pdac-analyze — performance introspection over telemetry artifacts
//!
//! PR 3's telemetry records what happened; this crate explains it. Three
//! consumers sit on top of the recorder/exporter artifacts:
//!
//! * **[`OpGraph`]** rebuilds the operation-dependency DAG of one run from
//!   span events alone — every op span carries its id, endpoints, distance
//!   class and `deps` linking metadata, so a saved `trace_real.json` or
//!   `trace_sim.json` is self-describing.
//! * **[`CriticalPathReport`]** walks that DAG backwards from the last
//!   finishing operation, always following the latest-ending predecessor
//!   (dependency edges plus same-rank program order), and attributes the
//!   run's wall time per rank, mechanism (`knem`/`memcpy`/`notify`) and
//!   process-distance class `d0..d8` — the "where did the time go" answer
//!   for a collective.
//! * **[`DivergenceReport`]** joins the simulator's per-op predicted
//!   timings against the thread executor's measured spans op-by-op and
//!   flags distance classes whose real/sim ratio drifts beyond a
//!   configurable tolerance from the run's global calibration scale —
//!   the "is the model still honest" answer.
//!
//! * **[`ConformanceReport`]** joins an executed trace's op spans against
//!   a plan's [`pdac_core::Provenance`] — every op the plan doesn't
//!   explain, every planned op that never ran, every shape mismatch, and
//!   every dependency-order violation is flagged: the "did execution
//!   follow the plan" answer.
//!
//! [`trace_io`] re-parses exported Chrome Trace JSON back into events, so
//! all of these run either in-process (`pdac trace run`) or offline over
//! saved artifacts (`pdac trace analyze`).

#![warn(missing_docs)]

pub mod conformance;
pub mod critical_path;
pub mod divergence;
pub mod opgraph;
pub mod trace_io;

pub use conformance::{ConformanceReport, OrderViolation};
pub use critical_path::{AttributionRow, CriticalPathReport, EdgeKind, PathStep};
pub use divergence::{ClassDrift, DivergenceReport};
pub use opgraph::{MechKind, OpGraph, OpSpan, SpanRecord, SpanRef, SpanSource};
pub use trace_io::events_from_chrome_trace;
