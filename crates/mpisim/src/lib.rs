//! # pdac-mpisim — intra-node MPI-like runtime
//!
//! The slice of an MPI implementation the paper's collective framework sits
//! on, rebuilt from scratch:
//!
//! * [`Communicator`] — rank groups over a bound machine, with `dup`,
//!   `split` and arbitrary rank permutations (the paper's motivation: the
//!   collective topology must adapt to *runtime* communicator composition);
//! * [`KnemDevice`] — a model of the KNEM kernel module: registered memory
//!   regions addressed by cookies, one-sided pull copies, and usage
//!   statistics (the thread executor drives it; tests assert on it);
//! * [`p2p`] — the two point-to-point paths of Open MPI's SM/KNEM BTL as
//!   schedule fragments: eager copy-in/copy-out through a bounce buffer for
//!   small messages, rendezvous + KNEM single-copy pull for large ones
//!   (§V-A: the switch sits at 4 KB);
//! * [`transport`] — the pluggable one-sided transport seam
//!   (register/tx/complete/fence): the KNEM path and the RDMA-style
//!   queue-pair backend of [`rdma`] behind one trait, so plans stay
//!   distance-aware while execution is transport-pluggable;
//! * [`ThreadExecutor`] — executes any [`pdac_simnet::Schedule`] with real
//!   threads and real buffers, one thread per rank, serving as the
//!   correctness oracle for every collective algorithm in `pdac-core`.

#![warn(missing_docs)]

pub mod bufpool;
pub mod comm;
pub mod detector;
pub mod fault;
pub mod integrity;
pub mod knem;
pub mod p2p;
pub mod p2p_tuning;
pub(crate) mod program;
pub mod rdma;
pub(crate) mod region;
pub mod thread_exec;
pub mod transport;
pub(crate) mod workers;

pub use bufpool::{BufferPool, BufferPoolStats};
pub use comm::Communicator;
pub use detector::{DetectorCounters, FailureDetector, RankState};
pub use fault::{CorruptTarget, ExecFaultPlan, RetryPolicy};
pub use integrity::{checksum, corrupt_payload, CorruptionKind, IntegrityStats};
pub use knem::{Cookie, KnemDevice, KnemError, KnemStats};
pub use p2p::{P2pConfig, SendOps};
pub use p2p_tuning::{emit_send_tuned, DistanceTunedP2p, P2pParams};
pub use rdma::{QpState, RdmaDevice, RdmaStats, RdmaTransport};
pub use thread_exec::{apply_data_op, ExecError, ExecResult, ThreadExecutor, WaitStats};
pub use transport::{CostHints, KnemTransport, Transport, TransportError, TransportKind, TxToken};
