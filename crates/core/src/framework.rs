//! Component selection — the outermost layer of the adaptive framework.
//!
//! Open MPI selects a *collective component* per communicator and call
//! (§II: "a runtime selection framework to determine the optimal algorithms
//! based on message and communicator size"). This module reproduces that
//! layer over our three components — the shared-memory `sm` baseline, the
//! rank-order `tuned` baseline, and the distance-aware `knemcoll` — with
//! one size rule, [`component`], in place of Open MPI's tuning file.
//!
//! The rule encodes the paper's own guidance: the KNEM collective "mainly
//! accelerate\[s\] large messages' collective communication, and not small
//! messages" (§IV-A), so small payloads stay on the copy-in/copy-out paths
//! and everything past the kernel-overhead crossover goes distance-aware.
//! Its thresholds are constants beside the planner's other size rules in
//! [`crate::adaptive`]; `pdac tune` prints the rules a sweep would pick.

use pdac_mpisim::p2p::P2pConfig;
use pdac_mpisim::Communicator;
use pdac_simnet::Schedule;

use crate::adaptive::{
    AdaptiveColl, Collective, Request, Sinks, SM_BCAST_MAX_BYTES, TUNED_ALLGATHER_MAX_BYTES,
    TUNED_BCAST_MAX_BYTES,
};
use crate::baseline::{sm, tuned};

/// The selectable collective components.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Component {
    /// Shared-memory copy-in/copy-out baseline.
    Sm,
    /// Rank-order tuned baseline (binomial/binary/chain, recdbl/ring).
    Tuned,
    /// The distance-aware KNEM collective (the paper's contribution).
    KnemColl,
}

/// The component selected for `collective` at `bytes` (the per-rank block
/// for an allgather). Only broadcast and allgather have a component besides
/// the distance-aware one.
pub fn component(collective: Collective, bytes: usize) -> Component {
    match collective {
        Collective::Bcast if bytes <= SM_BCAST_MAX_BYTES => Component::Sm,
        Collective::Bcast if bytes <= TUNED_BCAST_MAX_BYTES => Component::Tuned,
        Collective::Allgather if bytes <= TUNED_ALLGATHER_MAX_BYTES => Component::Tuned,
        _ => Component::KnemColl,
    }
}

/// The full collective stack: component selection on top, the selected
/// component's schedule below.
#[derive(Debug, Clone, Copy, Default)]
pub struct CollFramework;

impl CollFramework {
    /// Plans `request` through the component [`component`] selects. The
    /// distance-aware one plans through `sinks`; the baselines build their
    /// rank-order schedule and ignore them.
    pub fn plan(&self, comm: &Communicator, request: Request, sinks: Sinks<'_>) -> Schedule {
        let Request { collective, root, bytes, .. } = request;
        let (n, p2p) = (comm.size(), &P2pConfig::default());
        match (collective, component(collective, bytes)) {
            (_, Component::KnemColl) => AdaptiveColl.plan(comm, request, sinks),
            (Collective::Bcast, Component::Sm) => sm::bcast(n, root, bytes),
            (Collective::Bcast, Component::Tuned) => tuned::bcast(n, root, bytes, p2p),
            (Collective::Allgather, Component::Tuned) => tuned::allgather(n, bytes, p2p),
            (other, c) => unreachable!("{other:?} has no {c:?} component"),
        }
    }

    /// Broadcast through the selected component.
    pub fn bcast(&self, comm: &Communicator, root: usize, bytes: usize) -> Schedule {
        let request = Request::new(Collective::Bcast, root, bytes);
        self.plan(comm, request, Sinks::default())
    }

    /// Allgather through the selected component.
    pub fn allgather(&self, comm: &Communicator, block_bytes: usize) -> Schedule {
        let request = Request::new(Collective::Allgather, 0, block_bytes);
        self.plan(comm, request, Sinks::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use pdac_hwtopo::{machines, BindingPolicy};
    use std::sync::Arc;

    fn comm() -> Communicator {
        let ig = Arc::new(machines::ig());
        let binding = BindingPolicy::CrossSocket.bind(&ig, 48).unwrap();
        Communicator::world(ig, binding)
    }

    #[test]
    fn component_boundaries() {
        use Collective::*;
        assert_eq!(component(Bcast, 512), Component::Sm);
        assert_eq!(component(Bcast, 2048), Component::Sm);
        assert_eq!(component(Bcast, 2049), Component::Tuned);
        assert_eq!(component(Bcast, 16 << 10), Component::Tuned);
        assert_eq!(component(Bcast, 1 << 20), Component::KnemColl);
        assert_eq!(component(Allgather, 1024), Component::Tuned);
        assert_eq!(component(Allgather, 64 << 10), Component::KnemColl);
        assert_eq!(component(Reduce, 1), Component::KnemColl);
    }

    #[test]
    fn framework_dispatch_names_and_correctness() {
        let fw = CollFramework;
        let c = comm();

        let s = fw.bcast(&c, 0, 1024);
        assert!(s.name.starts_with("sm-"), "{}", s.name);
        verify::run(Request::new(Collective::Bcast, 0, 1024), &s).unwrap();

        let s = fw.bcast(&c, 0, 8 << 10);
        assert!(s.name.starts_with("tuned-"), "{}", s.name);
        verify::run(Request::new(Collective::Bcast, 0, 8 << 10), &s).unwrap();

        let s = fw.bcast(&c, 0, 256 << 10);
        assert!(s.name.starts_with("knemcoll-"), "{}", s.name);
        verify::run(Request::new(Collective::Bcast, 0, 256 << 10), &s).unwrap();

        let s = fw.allgather(&c, 16 << 10);
        assert!(s.name.starts_with("knemcoll-"), "{}", s.name);
        verify::run(Request::new(Collective::Allgather, 0, 16 << 10), &s).unwrap();
    }
}
