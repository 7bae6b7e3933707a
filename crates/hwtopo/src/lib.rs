//! # pdac-hwtopo — hardware topology model and process distance
//!
//! A portable, self-contained substitute for the subset of
//! [hwloc](https://www.open-mpi.org/projects/hwloc/) consumed by the
//! distance-aware collective framework of *"Process Distance-aware Adaptive
//! MPI Collective Communications"* (Ma, Herault, Bosilca, Dongarra — IEEE
//! CLUSTER 2011).
//!
//! The crate provides:
//!
//! * a typed **topology tree** ([`Machine`], [`Obj`], [`ObjKind`]) describing
//!   boards, NUMA nodes (memory controllers), sockets, dies, caches, cores
//!   and processing units, from which [`Machine::from_tree`] derives every
//!   logical id and per-core view;
//! * a validated **builder** ([`MachineSpec`]) plus serde round-tripping of
//!   machine descriptions;
//! * the **predefined machines** used in the paper's evaluation
//!   ([`machines::zoot`], [`machines::ig`]) together with synthetic machines
//!   used by the worked examples and the test-suite;
//! * the paper's **four-factor process distance** (§IV-A) as a pure function
//!   of the topology ([`DistanceMatrix`]);
//! * **binding policies** mapping MPI ranks to cores ([`BindingPolicy`],
//!   [`Binding`]), including the exact policies the evaluation compares
//!   (contiguous, round-robin over OS indices, cross-socket, random, user
//!   defined);
//! * an lstopo-like ASCII **renderer** ([`render::render_machine`]).
//!
//! ## Quick example
//!
//! ```
//! use pdac_hwtopo::{machines, BindingPolicy, DistanceMatrix};
//!
//! let ig = machines::ig();
//! assert_eq!(ig.num_cores(), 48);
//!
//! // Bind 48 ranks with the paper's cross-socket permutation
//! // c = (r mod 8) * 6 + floor(r / 8).
//! let binding = BindingPolicy::CrossSocket.bind(&ig, 48).unwrap();
//! let dist = DistanceMatrix::for_binding(&ig, &binding);
//!
//! // Ranks 0 and 8 land on cores 0 and 1: same socket, shared L3 -> distance 1.
//! assert_eq!(dist.get(0, 8), 1);
//! // Ranks 0 and 1 land on cores 0 and 6: different sockets, same board -> 5.
//! assert_eq!(dist.get(0, 1), 5);
//! ```

#![warn(missing_docs)]

pub mod binding;
pub mod builder;
pub mod cluster;
pub mod distance;
pub mod error;
pub mod hwloc_xml;
pub mod machines;
pub mod object;
pub mod render;

pub use binding::{Binding, BindingPolicy};
pub use builder::{CacheSpec, MachineSpec, PackageSpec};
pub use distance::{
    core_distance, core_view_distance, Distance, DistanceMatrix, DIST_CROSS_SWITCH, DIST_MAX,
    DIST_MAX_EXTENDED, DIST_MIN, DIST_SAME_SWITCH,
};
pub use error::TopoError;
pub use object::{CoreId, CoreView, Machine, Obj, ObjIdx, ObjKind};
