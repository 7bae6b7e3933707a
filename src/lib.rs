//! # pdac — Process Distance-Aware Adaptive MPI Collective Communications
//!
//! Facade crate re-exporting the workspace's public API. See the README and
//! the individual crates for details:
//!
//! * [`hwtopo`] — hardware topology model, process distance, bindings;
//! * [`simnet`] — discrete-event memory-system simulator;
//! * [`mpisim`] — MPI-like runtime, KNEM model, thread executor;
//! * [`collectives`] — distance-aware topologies, baselines, schedules;
//! * [`mpi`] — the typed MPI-style session API on top of everything;
//! * [`telemetry`] — event recorder, metrics registry (one name per
//!   counted fact), trace export, the crash-surviving flight recorder and
//!   cross-run perf history (the recorder records while a reader holds it);
//! * [`analyze`] — performance introspection over telemetry artifacts:
//!   critical-path extraction and sim-vs-real divergence reports.
//!
//! The whole pipeline in a dozen lines — machine, hostile placement,
//! distance-aware broadcast, simulated timing, byte-exact verification:
//!
//! ```
//! use std::sync::Arc;
//! use pdac::collectives::{adaptive::AdaptiveColl, verify, Collective, Request};
//! use pdac::hwtopo::{machines, BindingPolicy};
//! use pdac::mpisim::Communicator;
//! use pdac::simnet::{bw_bcast, SimConfig, SimExecutor};
//!
//! let machine = Arc::new(machines::ig());
//! let binding = BindingPolicy::CrossSocket.bind(&machine, 48)?;
//! let comm = Communicator::world(Arc::clone(&machine), binding.clone());
//!
//! let schedule = AdaptiveColl.bcast(&comm, 0, 1 << 20);
//! let report = SimExecutor::new(&machine, &binding, SimConfig::default()).run(&schedule)?;
//! assert!(bw_bcast(48, 1 << 20, report.total_time) > 10_000.0, "tens of GB/s aggregate");
//!
//! let request = Request::new(Collective::Bcast, 0, 1 << 20);
//! verify::run(request, &schedule)?; // real threads, real bytes
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub use pdac_analyze as analyze;
pub use pdac_core as collectives;
pub use pdac_hwtopo as hwtopo;
pub use pdac_mpi as mpi;
pub use pdac_mpisim as mpisim;
pub use pdac_simnet as simnet;
pub use pdac_telemetry as telemetry;
