//! # pdac-mpi — a typed MPI-style session API over the distance-aware stack
//!
//! The crates below this one deal in raw byte schedules. This crate gives a
//! downstream user the interface they actually expect from an MPI-like
//! library:
//!
//! * a [`Session`] created from a machine + placement, exposing `bcast`,
//!   `allgather`, `reduce`, `allreduce`, `reduce_scatter`, `gather`,
//!   `scatter`, `alltoall` and `barrier` over **typed slices** (`f64`,
//!   `i64`, `u64`, `u32`, `u8`);
//! * typed reduction operators ([`ReduceOp`]) mapped onto the schedule IR's
//!   lane-wise combines.
//!
//! Every call builds its schedule through the distance-aware framework in
//! `pdac-core` (component selection included) and executes it on the
//! real-thread executor — one cursor per rank, stepped by `min(ranks,
//! cores)` worker threads over real buffers — then hands
//! the results back as typed vectors. The session model is SPMD-by-proxy:
//! the caller owns all ranks' buffers at once (`bufs[rank]`), which is what
//! a simulation-driven reproduction can offer without OS processes.
//!
//! ```
//! use std::sync::Arc;
//! use pdac_hwtopo::{machines, BindingPolicy};
//! use pdac_mpi::{ReduceOp, Session};
//!
//! let session = Session::new(Arc::new(machines::ig()), BindingPolicy::CrossSocket, 8).unwrap();
//! let contributions: Vec<Vec<f64>> = (0..8).map(|r| vec![r as f64; 4]).collect();
//! let sums = session.allreduce(&contributions, ReduceOp::Sum).unwrap();
//! assert_eq!(sums[3], vec![28.0; 4]); // 0+1+..+7 on every rank
//! ```

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]
// Rank-indexed loops over parallel per-rank tables read clearer than
// iterator chains in the tests.
#![cfg_attr(test, allow(clippy::needless_range_loop))]

// `Session` lends element memory to the executor as little-endian bytes
// (`Scalar::bytes`); a big-endian host would need a second, byte-swapping
// path that nothing here tests.
#[cfg(target_endian = "big")]
compile_error!("pdac-mpi lends element memory as little-endian bytes: little-endian targets only");

pub mod scalar;
pub mod session;

pub use scalar::Scalar;
pub use session::{MpiError, ReduceOp, Session};
