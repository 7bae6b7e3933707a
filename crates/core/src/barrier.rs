//! Distance-aware Barrier (future-work extension, §VI): notification
//! gather-up / release-down over the Algorithm-1 tree — deep memory
//! hierarchies pay the slow links exactly twice.

use pdac_mpisim::Communicator;
use pdac_simnet::Schedule;

use crate::adaptive::{AdaptiveColl, Collective, Request, Sinks};

/// Builds the barrier schedule for `comm`.
pub fn distance_aware(comm: &Communicator) -> Schedule {
    let request = Request::new(Collective::Barrier, 0, 0);
    AdaptiveColl.plan(comm, request, Sinks::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdac_hwtopo::{machines, Binding, BindingPolicy};
    use pdac_simnet::{SimConfig, SimExecutor};
    use std::sync::Arc;

    #[test]
    fn barrier_validates_and_is_control_only() {
        let ig = Arc::new(machines::ig());
        let binding = BindingPolicy::CrossSocket.bind(&ig, 48).unwrap();
        let comm = Communicator::world(Arc::clone(&ig), binding);
        let s = distance_aware(&comm);
        s.validate().unwrap();
        assert_eq!(s.ops.iter().map(|o| o.kind.bytes()).sum::<usize>(), 0);
    }

    #[test]
    fn barrier_latency_scales_with_depth_not_size() {
        // On a flat SMP the tree is a 2-level star; on IG it is deeper, so
        // the simulated barrier takes longer despite equal rank counts.
        let flat = Arc::new(machines::flat_smp(48));
        let flat_binding = Binding::identity(&flat);
        let flat_comm = Communicator::world(Arc::clone(&flat), flat_binding.clone());
        let flat_t = SimExecutor::new(&flat, &flat_binding, SimConfig::default())
            .run(&distance_aware(&flat_comm))
            .unwrap()
            .total_time;

        let ig = Arc::new(machines::ig());
        let ig_binding = Binding::identity(&ig);
        let ig_comm = Communicator::world(Arc::clone(&ig), ig_binding.clone());
        let ig_t = SimExecutor::new(&ig, &ig_binding, SimConfig::default())
            .run(&distance_aware(&ig_comm))
            .unwrap()
            .total_time;

        assert!(flat_t > 0.0 && ig_t > 0.0);
        // The flat machine's tree is a 2-level star (one up + one down
        // notification wave); IG's tree is deeper and crosses slower links,
        // so its barrier must cost strictly more.
        assert!(ig_t > flat_t, "ig {ig_t:.2e}s vs flat {flat_t:.2e}s");
    }
}
