//! Component selection — the outermost layer of the adaptive framework.
//!
//! Open MPI selects a *collective component* per communicator and call
//! (§II: "a runtime selection framework to determine the optimal algorithms
//! based on message and communicator size"). This module reproduces that
//! layer over our three components — the shared-memory `sm` baseline, the
//! rank-order `tuned` baseline, and the distance-aware `knemcoll` — with a
//! serde-able decision table playing the role of Open MPI's tuning file.
//!
//! The shipped default encodes the paper's own guidance: the KNEM
//! collective "mainly accelerate\[s\] large messages' collective
//! communication, and not small messages" (§IV-A), so small payloads stay
//! on the copy-in/copy-out paths and everything past the kernel-overhead
//! crossover goes distance-aware.

use serde::{Deserialize, Serialize};

use pdac_mpisim::Communicator;
use pdac_simnet::Schedule;

use crate::adaptive::{AdaptiveColl, AdaptivePolicy, Collective};
use crate::baseline::tuned::{self, TunedConfig};
use crate::baseline::sm;

/// The selectable collective components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Component {
    /// Shared-memory copy-in/copy-out baseline.
    Sm,
    /// Rank-order tuned baseline (binomial/binary/chain, recdbl/ring).
    Tuned,
    /// The distance-aware KNEM collective (the paper's contribution).
    KnemColl,
}

/// One decision-table row: messages up to `max_bytes` (inclusive) go to
/// `component`. Rows are evaluated in order; the last row should be a
/// catch-all (`max_bytes = usize::MAX`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rule {
    /// The collective the rule covers.
    pub collective: Collective,
    /// Inclusive upper message-size bound.
    pub max_bytes: usize,
    /// Selected component.
    pub component: Component,
}

/// The tuning table; serializable so deployments can ship their own.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecisionTable {
    /// Ordered rules; first match wins.
    pub rules: Vec<Rule>,
}

impl Default for DecisionTable {
    fn default() -> Self {
        use Collective::*;
        use Component::*;
        DecisionTable {
            rules: vec![
                // Broadcast: the paper puts the KNEM crossover near 16 KB.
                Rule { collective: Bcast, max_bytes: 2048, component: Sm },
                Rule { collective: Bcast, max_bytes: 16 * 1024, component: Tuned },
                Rule { collective: Bcast, max_bytes: usize::MAX, component: KnemColl },
                // Allgather: crossover near 2 KB per block.
                Rule { collective: Allgather, max_bytes: 2048, component: Tuned },
                Rule { collective: Allgather, max_bytes: usize::MAX, component: KnemColl },
            ],
        }
    }
}

impl DecisionTable {
    /// The component selected for `collective` at `bytes`.
    pub fn select(&self, collective: Collective, bytes: usize) -> Component {
        self.rules
            .iter()
            .find(|r| r.collective == collective && bytes <= r.max_bytes)
            .map(|r| r.component)
            .unwrap_or(Component::KnemColl)
    }
}

/// The full collective stack: component selection on top, per-component
/// configuration below.
#[derive(Debug, Clone, Default)]
pub struct CollFramework {
    /// Component decision table.
    pub table: DecisionTable,
    /// Distance-aware component policy.
    pub adaptive: AdaptivePolicy,
    /// Tuned-component thresholds.
    pub tuned: TunedConfig,
}

impl CollFramework {
    /// Broadcast through the selected component.
    pub fn bcast(&self, comm: &Communicator, root: usize, bytes: usize) -> Schedule {
        match self.table.select(Collective::Bcast, bytes) {
            Component::Sm => sm::bcast(comm.size(), root, bytes),
            Component::Tuned => tuned::bcast(comm.size(), root, bytes, &self.tuned),
            Component::KnemColl => AdaptiveColl::new(self.adaptive).bcast(comm, root, bytes),
        }
    }

    /// Allgather through the selected component.
    pub fn allgather(&self, comm: &Communicator, block_bytes: usize) -> Schedule {
        match self.table.select(Collective::Allgather, block_bytes) {
            Component::Sm => sm::allgather(comm.size(), block_bytes),
            Component::Tuned => tuned::allgather(comm.size(), block_bytes, &self.tuned),
            Component::KnemColl => AdaptiveColl::new(self.adaptive).allgather(comm, block_bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{verify_allgather, verify_bcast};
    use pdac_hwtopo::{machines, BindingPolicy};
    use std::sync::Arc;

    fn comm() -> Communicator {
        let ig = Arc::new(machines::ig());
        let binding = BindingPolicy::CrossSocket.bind(&ig, 48).unwrap();
        Communicator::world(ig, binding)
    }

    #[test]
    fn default_table_boundaries() {
        let t = DecisionTable::default();
        assert_eq!(t.select(Collective::Bcast, 512), Component::Sm);
        assert_eq!(t.select(Collective::Bcast, 2048), Component::Sm);
        assert_eq!(t.select(Collective::Bcast, 2049), Component::Tuned);
        assert_eq!(t.select(Collective::Bcast, 16 << 10), Component::Tuned);
        assert_eq!(t.select(Collective::Bcast, 1 << 20), Component::KnemColl);
        assert_eq!(t.select(Collective::Allgather, 1024), Component::Tuned);
        assert_eq!(t.select(Collective::Allgather, 64 << 10), Component::KnemColl);
    }

    #[test]
    fn framework_dispatch_names_and_correctness() {
        let fw = CollFramework::default();
        let c = comm();

        let s = fw.bcast(&c, 0, 1024);
        assert!(s.name.starts_with("sm-"), "{}", s.name);
        verify_bcast(&s, 0, 1024).unwrap();

        let s = fw.bcast(&c, 0, 8 << 10);
        assert!(s.name.starts_with("tuned-"), "{}", s.name);
        verify_bcast(&s, 0, 8 << 10).unwrap();

        let s = fw.bcast(&c, 0, 256 << 10);
        assert!(s.name.starts_with("knemcoll-"), "{}", s.name);
        verify_bcast(&s, 0, 256 << 10).unwrap();

        let s = fw.allgather(&c, 16 << 10);
        assert!(s.name.starts_with("knemcoll-"), "{}", s.name);
        verify_allgather(&s, 16 << 10).unwrap();
    }

    #[test]
    fn custom_table_round_trips_and_applies() {
        let table = DecisionTable {
            rules: vec![Rule {
                collective: Collective::Bcast,
                max_bytes: usize::MAX,
                component: Component::Sm,
            }],
        };
        let json = serde_json::to_string(&table).unwrap();
        let back: DecisionTable = serde_json::from_str(&json).unwrap();
        assert_eq!(back, table);

        let fw = CollFramework { table: back, ..Default::default() };
        let s = fw.bcast(&comm(), 0, 4 << 20);
        assert!(s.name.starts_with("sm-"), "catch-all rule forces sm");
        // Unknown collective sizes fall through to the distance-aware
        // component when no rule matches.
        let empty = DecisionTable { rules: vec![] };
        assert_eq!(empty.select(Collective::Bcast, 1), Component::KnemColl);
    }
}
