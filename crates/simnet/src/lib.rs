//! # pdac-simnet — discrete-event memory-system simulator
//!
//! The paper's evaluation runs on two real NUMA machines (Zoot and IG) and
//! measures collective bandwidth under different process placements. This
//! crate substitutes those testbeds with a **fluid-flow contention
//! simulator**: data movements become flows over a resource graph derived
//! from the [`pdac_hwtopo`] machine model (shared-cache domains, memory
//! controllers, inter-socket ports, the inter-board link, and each core's
//! copy engine), with **max-min fair** bandwidth sharing and per-operation
//! latencies.
//!
//! The crate also defines the [`Schedule`] intermediate representation — a
//! DAG of copy/notify operations produced by the collective algorithms in
//! `pdac-core` — and its [`Lowered`] index ([`Schedule::lower`]), because
//! both executors consume them:
//!
//! * [`SimExecutor`] (here) — timing with contention, used by the benchmark
//!   harness to regenerate the paper's figures;
//! * `ThreadExecutor` (in `pdac-mpisim`) — real threads moving real bytes,
//!   used as the correctness oracle.
//!
//! ## Model summary
//!
//! A copy of `b` bytes between two bound processes is routed over:
//!
//! * the executing core's copy engine (per-flow memcpy ceiling);
//! * the shared-cache domain, when both cores share a cache, the payload
//!   fits, and cache reuse is allowed (IMB `off-cache` disables this);
//! * otherwise the source and destination **memory controllers** (twice the
//!   same controller for NUMA-local copies — read + write);
//! * **inter-socket ports** when the cores sit on different NUMA nodes;
//! * the **inter-board link** when they sit on different boards.
//!
//! Flow rates are recomputed at every start/finish event by progressive
//! filling (max-min fairness with per-resource flow multiplicities). Each
//! operation also pays a latency of `base + hop × distance` (plus the KNEM
//! setup cost for kernel-assisted copies), and every rank executes its
//! operations serially — a core performs one memcpy at a time.

#![warn(missing_docs)]

pub mod engine;
pub mod fault;
mod lower;
pub mod report;
pub mod resource;
pub mod route;
pub mod schedule;
mod solver;
pub mod trace;

pub use engine::{SimConfig, SimExecutor, SimReport, SolverStats};
pub use fault::{
    CorruptTarget, CorruptionKind, Fault, FaultPlan, FaultStats, OpFaults, RankFaults,
    ResolvedFaults, SimError,
};
pub use lower::Lowered;
pub use report::{bw_allgather, bw_bcast, Series, SweepPoint};
pub use resource::{Calibration, Resource, TransportModel};
pub use schedule::{
    BufId, DataOp, Mech, Op, OpId, OpKind, Rank, Schedule, ScheduleBuilder, ScheduleError,
};
