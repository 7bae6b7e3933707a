//! Distance-aware Reduce — the first of the paper's future-work extensions
//! (§VI): the broadcast tree of Algorithm 1 run bottom-up, with element-wise
//! combines at every parent.

use pdac_mpisim::Communicator;
use pdac_simnet::Schedule;

use crate::adaptive::{AdaptiveColl, Collective, Request, Sinks};

/// Builds the distance-aware reduce schedule for `comm` rooted at `root`.
pub fn distance_aware(comm: &Communicator, root: usize, bytes: usize) -> Schedule {
    let request = Request::new(Collective::Reduce, root, bytes);
    AdaptiveColl::default().plan(comm, request, Sinks::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use pdac_hwtopo::{machines, BindingPolicy};
    use std::sync::Arc;

    #[test]
    fn reduce_correct_on_ig_cross_socket() {
        let ig = Arc::new(machines::ig());
        let binding = BindingPolicy::CrossSocket.bind(&ig, 48).unwrap();
        let comm = Communicator::world(ig, binding);
        let s = distance_aware(&comm, 11, 20_000);
        verify::run(Request::new(Collective::Reduce, 11, 20_000), &s).unwrap();
    }

    #[test]
    fn reduce_correct_on_subcommunicator() {
        let ig = Arc::new(machines::ig());
        let binding = BindingPolicy::Random { seed: 3 }.bind(&ig, 48).unwrap();
        let world = Communicator::world(ig, binding);
        let sub = world.subset(&[5, 40, 17, 2, 33]);
        let s = distance_aware(&sub, 2, 4096);
        verify::run(Request::new(Collective::Reduce, 2, 4096), &s).unwrap();
    }
}
