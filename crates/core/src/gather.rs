//! Distance-aware Gather (future-work extension, §VI), in the
//! KNEM-collective one-sided style: every rank exposes its buffer and the
//! root pulls block by block. Every block crosses the machine once, and the
//! root executes one pull per rank. Aggregating blocks up the tree instead
//! was measured and not kept (DESIGN §3b, "other collectives").

use pdac_mpisim::Communicator;
use pdac_simnet::Schedule;

use crate::adaptive::{AdaptiveColl, Collective, Request, Sinks};

/// Builds the direct (one-sided pull) gather schedule.
pub fn distance_aware(comm: &Communicator, root: usize, block_bytes: usize) -> Schedule {
    let request = Request::new(Collective::Gather, root, block_bytes);
    AdaptiveColl.plan(comm, request, Sinks::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use pdac_hwtopo::{machines, BindingPolicy};
    use pdac_simnet::OpKind;
    use std::sync::Arc;

    fn comm(policy: BindingPolicy, n: usize) -> Communicator {
        let ig = Arc::new(machines::ig());
        let binding = policy.bind(&ig, n).unwrap();
        Communicator::world(ig, binding)
    }

    #[test]
    fn gather_correct() {
        let c = comm(BindingPolicy::CrossSocket, 48);
        let s = distance_aware(&c, 9, 1024);
        verify::run(Request::new(Collective::Gather, 9, 1024), &s).unwrap();

        let direct = distance_aware(&comm(BindingPolicy::Contiguous, 48), 0, 512);
        let root_ops =
            direct.ops.iter().filter(|o| matches!(o.kind, OpKind::Copy { exec: 0, .. })).count();
        assert_eq!(root_ops, 48, "the root executes every copy of the direct form");
    }
}
