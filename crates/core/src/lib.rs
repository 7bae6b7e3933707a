//! # pdac-core — distance-aware adaptive collective communications
//!
//! The primary contribution of *"Process Distance-aware Adaptive MPI
//! Collective Communications"* (Ma, Herault, Bosilca, Dongarra — IEEE
//! CLUSTER 2011), reimplemented in full:
//!
//! * [`bcast_tree`] — **Algorithm 1**: the distance-aware broadcast tree, a
//!   Kruskal construction whose edge ordering (weight, then root-covering
//!   edges, then MPI ranks) yields a minimum-depth minimum-weight spanning
//!   tree with leaders attached star-wise inside each distance cluster;
//! * [`allgather_ring`] — **Algorithm 2**: the distance-aware allgather
//!   ring, a greedy fan-out-≤2 Kruskal path closed into a Hamiltonian cycle
//!   that clusters physical neighbours;
//! * [`sched`] — compilation of both topologies into executable
//!   [`pdac_simnet::Schedule`]s with KNEM one-sided pulls, out-of-band
//!   notifications and large-message pipelining;
//! * [`baseline`] — the rank-order algorithms the paper compares against
//!   (binomial / linear / chain / split-binary broadcast, recursive-doubling
//!   / ring allgather) plus Open MPI *tuned* and MPICH2-style decision
//!   functions;
//! * [`adaptive`] — the runtime framework: communicator + binding + machine
//!   → distance matrix → per-collective topology, through one planner path
//!   ([`AdaptiveColl::plan`]) with the topology cache and the provenance
//!   recorder as optional sinks; includes the §V-B
//!   *distance collapsing* rule (distance classes sharing a saturated
//!   memory controller are merged for large messages, which turns the Zoot
//!   hierarchy into the winning linear topology of Figure 8);
//! * [`metrics`] — the §IV-C analytical model: per-NUMA memory access
//!   counts, link stress per distance class, tree depth;
//! * [`reduce`], [`gather`], [`scatter`], [`barrier`], [`alltoall`],
//!   [`reduce_scatter`] — the distance-aware extensions the paper lists as
//!   future work (allreduce is a [`Request`] of the planner);
//! * [`verify`] — the one semantic oracle: [`verify::expected`] defines
//!   what every collective delivers, [`verify::check`] compares an executor
//!   run against it, and [`verify::run`] executes a schedule on real
//!   threads and checks it.

#![warn(missing_docs)]
// Rank-indexed loops over parallel per-rank tables read clearer than
// iterator chains here.
#![allow(clippy::needless_range_loop)]

pub mod adaptive;
pub mod allgather_ring;
pub mod alltoall;
pub mod barrier;
pub mod baseline;
pub mod bcast_tree;
pub mod chaos;
pub mod distributed;
pub mod dot;
pub mod edges;
pub mod framework;
pub mod gather;
pub mod membership;
pub mod metrics;
pub mod provenance;
pub mod recovery;
pub mod reduce;
pub mod reduce_scatter;
pub mod scatter;
pub mod sched;
pub mod topocache;
pub mod tree;
pub mod unionfind;
pub mod verify;
pub mod workload;

pub use adaptive::{AdaptiveColl, AdaptivePolicy, AllreduceAlgo, Collective, Request, Sinks};
pub use allgather_ring::Ring;
pub use bcast_tree::build_bcast_tree;
pub use chaos::{run_chaos, ChaosConfig, ChaosOutcome};
pub use edges::{edge_queue, Edge};
pub use membership::{agree, AgreementError, AgreementOutcome, MembershipConfig};
pub use provenance::{Decision, DecisionKind, PlannedOp, Provenance, ProvenanceDiff};
pub use recovery::{CollectiveError, RecoveryManager};
pub use topocache::{TopoCache, TopoCacheStats};
pub use tree::Tree;
pub use unionfind::DisjointSets;
pub use workload::{
    corruption_repro_command_for, corruption_sweep, repro_command, repro_command_for,
    run_workload, stress_iters, sweep, WorkloadConfig, WorkloadError, WorkloadReport,
};
