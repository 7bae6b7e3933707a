//! Distance-aware Scatter (future-work extension, §VI): the root exposes
//! its buffer once and every rank pulls its own block concurrently — the
//! one-sided dual of [`crate::gather`] without root-side serialization.

use pdac_mpisim::Communicator;
use pdac_simnet::Schedule;

use crate::adaptive::{AdaptiveColl, Collective, Request, Sinks};

/// Builds the scatter schedule for `comm` rooted at `root`.
pub fn distance_aware(comm: &Communicator, root: usize, block_bytes: usize) -> Schedule {
    let request = Request::new(Collective::Scatter, root, block_bytes);
    AdaptiveColl.plan(comm, request, Sinks::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use pdac_hwtopo::{machines, BindingPolicy};
    use std::sync::Arc;

    #[test]
    fn scatter_correct() {
        let ig = Arc::new(machines::ig());
        let binding = BindingPolicy::Random { seed: 21 }.bind(&ig, 48).unwrap();
        let comm = Communicator::world(ig, binding);
        let s = distance_aware(&comm, 30, 777);
        verify::run(Request::new(Collective::Scatter, 30, 777), &s).unwrap();
    }
}
