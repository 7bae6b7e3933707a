//! Rank→core binding policies.
//!
//! These model the launcher-level placement options the paper compares
//! (§III, §V): MPICH2/Hydra's `rr`, `user`, `cpu`, `cache` bindings, plus the
//! evaluation's *contiguous* and *cross-socket* cases and seeded random
//! bindings for the worked examples.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::error::TopoError;
use crate::object::{CoreId, Machine};

/// An immutable, validated rank→core mapping (injective: one rank per core).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Binding {
    rank_to_core: Vec<CoreId>,
}

impl Binding {
    /// Validates and wraps an explicit rank→core list.
    pub fn new(machine: &Machine, rank_to_core: Vec<CoreId>) -> Result<Self, TopoError> {
        let cores = machine.num_cores();
        if rank_to_core.len() > cores {
            return Err(TopoError::TooManyRanks { ranks: rank_to_core.len(), cores });
        }
        let mut used = vec![false; cores];
        for &c in &rank_to_core {
            if c >= cores {
                return Err(TopoError::CoreOutOfRange { core: c, cores });
            }
            if used[c] {
                return Err(TopoError::DuplicateCore { core: c });
            }
            used[c] = true;
        }
        Ok(Binding { rank_to_core })
    }

    /// The identity binding: rank `r` on core `r`, one rank per core.
    pub fn identity(machine: &Machine) -> Self {
        Binding { rank_to_core: (0..machine.num_cores()).collect() }
    }

    /// Wraps a rank→core list that may place several ranks on the same core
    /// (oversubscription). Cores are still bounds-checked; only the
    /// injectivity invariant of [`Self::new`] is waived. This is the
    /// workload fuzzer's hook: distance computations, schedules and the
    /// contention simulator all remain well-defined — co-located ranks are
    /// distance 0 apart and naturally fight over their core's copy engine.
    pub fn oversubscribed(machine: &Machine, rank_to_core: Vec<CoreId>) -> Result<Self, TopoError> {
        let cores = machine.num_cores();
        for &c in &rank_to_core {
            if c >= cores {
                return Err(TopoError::CoreOutOfRange { core: c, cores });
            }
        }
        Ok(Binding { rank_to_core })
    }

    /// Number of ranks bound.
    pub fn num_ranks(&self) -> usize {
        self.rank_to_core.len()
    }

    /// Core that rank `rank` runs on.
    pub fn core_of(&self, rank: usize) -> CoreId {
        self.rank_to_core[rank]
    }

    /// The full mapping as a slice.
    pub fn as_slice(&self) -> &[CoreId] {
        &self.rank_to_core
    }

    /// Rank bound to `core`, if any (linear scan; bindings are small).
    pub fn rank_on_core(&self, core: CoreId) -> Option<usize> {
        self.rank_to_core.iter().position(|&c| c == core)
    }

    /// A new binding seen by a sub-communicator: `ranks[i]` of the parent
    /// becomes rank `i` of the child.
    pub fn subset(&self, ranks: &[usize]) -> Binding {
        Binding { rank_to_core: ranks.iter().map(|&r| self.rank_to_core[r]).collect() }
    }
}

/// Placement policies; `bind` turns a policy into a concrete [`Binding`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum BindingPolicy {
    /// Pack ranks in topology order: rank `r` on core `r`. Equivalent to
    /// MPICH2's `cpu`/`cache` packing and the paper's *contiguous* case.
    Contiguous,
    /// Round-robin over OS processor ids: rank `r` on `PU P#r`. On machines
    /// whose OS enumeration interleaves sockets (Zoot) this scatters logical
    /// neighbours across sockets — the paper's `rr` / `user:0..15` case.
    RoundRobinOs,
    /// The paper's *cross socket* worst case: sockets are visited round-robin
    /// so consecutive ranks always land on different sockets. On IG this is
    /// exactly `c = (r mod 8) * 6 + floor(r / 8)`.
    CrossSocket,
    /// Cluster worst case: compute nodes are visited round-robin, so
    /// consecutive ranks always land on different nodes (equivalent to
    /// [`Self::Contiguous`] on single-node machines).
    CrossNode,
    /// Uniform random placement with a fixed seed (worked examples).
    Random {
        /// RNG seed, so examples and tests are reproducible.
        seed: u64,
    },
    /// Explicit user-provided rank→core list (MPICH2's `-binding user:...`).
    User(Vec<CoreId>),
}

impl BindingPolicy {
    /// Materializes the policy for `nranks` ranks on `machine`.
    pub fn bind(&self, machine: &Machine, nranks: usize) -> Result<Binding, TopoError> {
        let cores = machine.num_cores();
        if nranks > cores {
            return Err(TopoError::TooManyRanks { ranks: nranks, cores });
        }
        match self {
            BindingPolicy::Contiguous => Binding::new(machine, (0..nranks).collect()),
            BindingPolicy::RoundRobinOs => {
                Binding::new(machine, (0..nranks).map(|r| machine.core_of_os_id(r)).collect())
            }
            BindingPolicy::CrossSocket => {
                let mut per_socket: Vec<Vec<CoreId>> = vec![Vec::new(); machine.num_sockets];
                for c in &machine.cores {
                    per_socket[c.socket].push(c.core);
                }
                let mut next = vec![0usize; machine.num_sockets];
                let mut map = Vec::with_capacity(nranks);
                let mut socket = 0usize;
                while map.len() < nranks {
                    // Cycle sockets, skipping exhausted ones.
                    let mut tried = 0;
                    while next[socket] >= per_socket[socket].len() {
                        socket = (socket + 1) % machine.num_sockets;
                        tried += 1;
                        debug_assert!(
                            tried <= machine.num_sockets,
                            "nranks <= cores guarantees progress"
                        );
                    }
                    map.push(per_socket[socket][next[socket]]);
                    next[socket] += 1;
                    socket = (socket + 1) % machine.num_sockets;
                }
                Binding::new(machine, map)
            }
            BindingPolicy::CrossNode => {
                let mut per_node: Vec<Vec<CoreId>> = vec![Vec::new(); machine.num_nodes];
                for c in &machine.cores {
                    per_node[c.node].push(c.core);
                }
                let mut next = vec![0usize; machine.num_nodes];
                let mut map = Vec::with_capacity(nranks);
                let mut node = 0usize;
                while map.len() < nranks {
                    let mut tried = 0;
                    while next[node] >= per_node[node].len() {
                        node = (node + 1) % machine.num_nodes;
                        tried += 1;
                        debug_assert!(
                            tried <= machine.num_nodes,
                            "nranks <= cores guarantees progress"
                        );
                    }
                    map.push(per_node[node][next[node]]);
                    next[node] += 1;
                    node = (node + 1) % machine.num_nodes;
                }
                Binding::new(machine, map)
            }
            BindingPolicy::Random { seed } => {
                let mut all: Vec<CoreId> = (0..cores).collect();
                let mut rng = rand::rngs::StdRng::seed_from_u64(*seed);
                all.shuffle(&mut rng);
                all.truncate(nranks);
                Binding::new(machine, all)
            }
            BindingPolicy::User(map) => {
                if map.len() != nranks {
                    return Err(TopoError::BindingLength { expected: nranks, got: map.len() });
                }
                Binding::new(machine, map.clone())
            }
        }
    }

    /// Short label used by benchmark output ("contiguous", "crosssocket"…).
    pub fn label(&self) -> String {
        match self {
            BindingPolicy::Contiguous => "contiguous".into(),
            BindingPolicy::RoundRobinOs => "rr".into(),
            BindingPolicy::CrossSocket => "crosssocket".into(),
            BindingPolicy::CrossNode => "crossnode".into(),
            BindingPolicy::Random { seed } => format!("random{seed}"),
            BindingPolicy::User(_) => "user".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines;

    #[test]
    fn cross_socket_matches_paper_formula_on_ig() {
        // Paper §V-A: "the core c holds the MPI rank r iff
        // c = (r mod 8) * 6 + floor(r / 8)".
        let ig = machines::ig();
        let b = BindingPolicy::CrossSocket.bind(&ig, 48).unwrap();
        for r in 0..48 {
            assert_eq!(b.core_of(r), (r % 8) * 6 + r / 8, "rank {r}");
        }
    }

    #[test]
    fn contiguous_is_identity_prefix() {
        let ig = machines::ig();
        let b = BindingPolicy::Contiguous.bind(&ig, 12).unwrap();
        assert_eq!(b.as_slice(), &(0..12).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn rr_equals_user_0_15_on_zoot() {
        // Paper §III: "'user:0..15' binding strategy has the same binding map
        // with round-robin binding on Zoot."
        let z = machines::zoot();
        let rr = BindingPolicy::RoundRobinOs.bind(&z, 16).unwrap();
        let user = BindingPolicy::User((0..16).map(|i| z.core_of_os_id(i)).collect())
            .bind(&z, 16)
            .unwrap();
        assert_eq!(rr, user);
    }

    #[test]
    fn rr_differs_from_contiguous_on_zoot_but_not_on_ig() {
        let z = machines::zoot();
        assert_ne!(
            BindingPolicy::RoundRobinOs.bind(&z, 16).unwrap(),
            BindingPolicy::Contiguous.bind(&z, 16).unwrap()
        );
        // IG's OS order is the topology order.
        let ig = machines::ig();
        assert_eq!(
            BindingPolicy::RoundRobinOs.bind(&ig, 48).unwrap(),
            BindingPolicy::Contiguous.bind(&ig, 48).unwrap()
        );
    }

    #[test]
    fn cross_node_interleaves_cluster_nodes() {
        let c = crate::cluster::homogeneous("c", &machines::ig(), 4, 2).unwrap();
        let b = BindingPolicy::CrossNode.bind(&c, 192).unwrap();
        for r in 0..192 {
            assert_eq!(c.core(b.core_of(r)).node, r % 4, "rank {r}");
        }
        // On a single-node machine it degenerates to contiguous.
        let ig = machines::ig();
        assert_eq!(
            BindingPolicy::CrossNode.bind(&ig, 48).unwrap(),
            BindingPolicy::Contiguous.bind(&ig, 48).unwrap()
        );
    }

    #[test]
    fn random_is_reproducible_and_injective() {
        let ig = machines::ig();
        let a = BindingPolicy::Random { seed: 42 }.bind(&ig, 48).unwrap();
        let b = BindingPolicy::Random { seed: 42 }.bind(&ig, 48).unwrap();
        assert_eq!(a, b);
        let mut cores: Vec<_> = a.as_slice().to_vec();
        cores.sort_unstable();
        assert_eq!(cores, (0..48).collect::<Vec<_>>());
        let c = BindingPolicy::Random { seed: 43 }.bind(&ig, 48).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn too_many_ranks_rejected() {
        let z = machines::zoot();
        assert!(matches!(
            BindingPolicy::Contiguous.bind(&z, 17),
            Err(TopoError::TooManyRanks { .. })
        ));
    }

    #[test]
    fn duplicate_and_out_of_range_user_bindings_rejected() {
        let z = machines::zoot();
        assert!(matches!(
            BindingPolicy::User(vec![0, 0]).bind(&z, 2),
            Err(TopoError::DuplicateCore { core: 0 })
        ));
        assert!(matches!(
            BindingPolicy::User(vec![99]).bind(&z, 1),
            Err(TopoError::CoreOutOfRange { core: 99, .. })
        ));
        assert!(matches!(
            BindingPolicy::User(vec![0, 1]).bind(&z, 3),
            Err(TopoError::BindingLength { expected: 3, got: 2 })
        ));
    }

    #[test]
    fn oversubscribed_allows_duplicates_but_not_out_of_range() {
        let z = machines::zoot();
        // 32 ranks on 16 cores, two per core — fine.
        let map: Vec<_> = (0..32).map(|r| r % 16).collect();
        let b = Binding::oversubscribed(&z, map).unwrap();
        assert_eq!(b.num_ranks(), 32);
        assert_eq!(b.core_of(0), b.core_of(16));
        // rank_on_core reports the first co-located rank.
        assert_eq!(b.rank_on_core(3), Some(3));
        // Bounds are still enforced.
        assert!(matches!(
            Binding::oversubscribed(&z, vec![0, 99]),
            Err(TopoError::CoreOutOfRange { core: 99, .. })
        ));
    }

    #[test]
    fn subset_keeps_parent_cores() {
        let ig = machines::ig();
        let b = BindingPolicy::CrossSocket.bind(&ig, 48).unwrap();
        let sub = b.subset(&[0, 8, 16]);
        assert_eq!(sub.num_ranks(), 3);
        assert_eq!(sub.core_of(0), b.core_of(0));
        assert_eq!(sub.core_of(1), b.core_of(8));
        assert_eq!(sub.core_of(2), b.core_of(16));
    }

    #[test]
    fn rank_on_core_roundtrip() {
        let ig = machines::ig();
        let b = BindingPolicy::CrossSocket.bind(&ig, 48).unwrap();
        for r in 0..48 {
            assert_eq!(b.rank_on_core(b.core_of(r)), Some(r));
        }
        let partial = BindingPolicy::Contiguous.bind(&ig, 4).unwrap();
        assert_eq!(partial.rank_on_core(40), None);
    }

    #[test]
    fn cross_socket_non_uniform_sockets() {
        // Machine with sockets of different sizes still cycles correctly.
        use crate::builder::{MachineSpec, PackageSpec};
        let spec = MachineSpec {
            name: "lopsided".into(),
            sockets: vec![
                PackageSpec {
                    board: 0,
                    numa: 0,
                    cores_per_die: vec![1],
                    die_numa: None,
                    caches: vec![],
                    numa_memory_bytes: 0,
                },
                PackageSpec {
                    board: 0,
                    numa: 1,
                    cores_per_die: vec![3],
                    die_numa: None,
                    caches: vec![],
                    numa_memory_bytes: 0,
                },
            ],
            os_order: None,
        };
        let m = spec.build().unwrap();
        let b = BindingPolicy::CrossSocket.bind(&m, 4).unwrap();
        // Socket 0 has core 0; socket 1 has cores 1,2,3.
        assert_eq!(b.as_slice(), &[0, 1, 2, 3]);
    }
}
