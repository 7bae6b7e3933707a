//! # pdac-mpisim — intra-node MPI-like runtime
//!
//! The slice of an MPI implementation the paper's collective framework sits
//! on, rebuilt from scratch:
//!
//! * [`Communicator`] — rank groups over a bound machine, with `dup`,
//!   `split` and arbitrary rank permutations (the paper's motivation: the
//!   collective topology must adapt to *runtime* communicator composition);
//! * [`p2p`] — the two point-to-point paths of Open MPI's SM/KNEM BTL as
//!   schedule fragments: eager copy-in/copy-out through a bounce buffer for
//!   small messages, rendezvous + KNEM single-copy pull for large ones
//!   (§V-A: the switch sits at 4 KB);
//! * [`transport`] — the one-sided transport (register/tx/complete/fence):
//!   one device over a table of registered, epoch-stamped memory regions,
//!   modelling the KNEM kernel module or RDMA queue pairs as its
//!   [`TransportKind`] says, with usage statistics the thread executor
//!   reports and tests assert on ([`knem`] holds its error and counter
//!   types);
//! * [`ThreadExecutor`] — executes any [`pdac_simnet::Schedule`] with real
//!   threads and real buffers — one resumable cursor per rank, stepped by
//!   `min(ranks, cores)` workers, the caller among them — serving as the
//!   correctness oracle for every collective algorithm in `pdac-core`.

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod bufpool;
pub mod comm;
pub mod detector;
pub mod fault;
pub mod integrity;
pub mod knem;
pub mod p2p;
pub(crate) mod region;
pub mod thread_exec;
pub mod transport;
pub(crate) mod workers;

pub use bufpool::{BufferPool, BufferPoolStats};
pub use comm::Communicator;
pub use detector::{DetectorCounters, FailureDetector, RankState};
pub use fault::RetryPolicy;
pub use integrity::{checksum, corrupt_payload, IntegrityStats};
pub use pdac_simnet::{CorruptTarget, CorruptionKind};

// Named by pdac-e2e's frozen probes; delete in the next [benchmark] PR.
#[doc(hidden)]
pub type ExecFaultPlan = pdac_simnet::FaultPlan;
pub use knem::{KnemError, KnemStats};
pub use p2p::{P2pConfig, SendOps};
pub use thread_exec::{apply_data_op, ExecError, ExecResult, ThreadExecutor, WaitStats};
pub use transport::{Transport, TransportError, TransportKind, TxToken};
