//! Communicators: rank groups over a bound machine.
//!
//! The paper's central observation is that collective topology must be
//! rebuilt per communicator at runtime, because communicators are created
//! dynamically (`dup`, `split`, rank reordering) while process placement is
//! fixed. A [`Communicator`] therefore owns exactly the inputs the
//! distance-aware framework consumes: the machine, and the rank → core
//! binding *as seen by this communicator*.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use pdac_hwtopo::{Binding, CoreId, DistanceMatrix, Machine};

/// Global epoch counter: every distinct (machine, binding) group gets a
/// fresh epoch, so epoch equality implies group equality and downstream
/// topology caches can key on it instead of hashing whole bindings.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

fn fresh_epoch() -> u64 {
    NEXT_EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// A group of ranks bound to cores of one machine.
#[derive(Debug, Clone)]
pub struct Communicator {
    machine: Arc<Machine>,
    binding: Binding,
    name: String,
    epoch: u64,
    dist: OnceLock<Arc<DistanceMatrix>>,
}

impl Communicator {
    /// The world communicator: all ranks of `binding` in order.
    pub fn world(machine: Arc<Machine>, binding: Binding) -> Self {
        Communicator {
            machine,
            binding,
            name: "world".into(),
            epoch: fresh_epoch(),
            dist: OnceLock::new(),
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.binding.num_ranks()
    }

    /// The machine the communicator lives on.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The rank → core binding of this communicator.
    pub fn binding(&self) -> &Binding {
        &self.binding
    }

    /// Core of `rank`.
    pub fn core_of(&self, rank: usize) -> CoreId {
        self.binding.core_of(rank)
    }

    /// Communicator name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Group identity: changes exactly when the (machine, binding) group
    /// changes. `dup` keeps the epoch (same group, new name); `subset` and
    /// `split` rebind ranks and therefore mint a new one. Topology caches
    /// key on this instead of hashing the binding.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Distance matrix between this communicator's ranks — the input of the
    /// distance-aware topology constructions. Returns an owned copy; hot
    /// paths should prefer [`Self::distances_arc`], which shares the
    /// communicator's lazily built matrix instead of cloning it.
    pub fn distances(&self) -> DistanceMatrix {
        (*self.distances_arc()).clone()
    }

    /// Shared handle to this communicator's distance matrix. The matrix is
    /// computed once per communicator (O(n²)) and reused by every
    /// subsequent collective call; `dup` shares the already-built matrix
    /// with its parent.
    pub fn distances_arc(&self) -> Arc<DistanceMatrix> {
        Arc::clone(
            self.dist.get_or_init(|| {
                Arc::new(DistanceMatrix::for_binding(&self.machine, &self.binding))
            }),
        )
    }

    /// `MPI_Comm_dup`: same group, new name. Shares the parent's epoch and
    /// cached distance matrix — the group is unchanged, so cached
    /// topologies remain valid for the duplicate.
    pub fn dup(&self) -> Self {
        Communicator {
            machine: Arc::clone(&self.machine),
            binding: self.binding.clone(),
            name: format!("{}.dup", self.name),
            epoch: self.epoch,
            dist: self.dist.clone(),
        }
    }

    /// A communicator over a subset of ranks: `ranks[i]` here becomes rank
    /// `i` there. Also expresses pure rank permutations (`ranks` =
    /// permutation of `0..size`).
    ///
    /// # Panics
    /// Panics if `ranks` references an out-of-range rank.
    pub fn subset(&self, ranks: &[usize]) -> Self {
        assert!(
            ranks.iter().all(|&r| r < self.size()),
            "subset rank out of range for {}",
            self.name
        );
        Communicator {
            machine: Arc::clone(&self.machine),
            binding: self.binding.subset(ranks),
            name: format!("{}.subset", self.name),
            epoch: fresh_epoch(),
            dist: OnceLock::new(),
        }
    }

    /// The shrink operation of fault recovery: a communicator over every
    /// rank *not* listed in `failed`, plus the mapping from new ranks to
    /// the ranks they had here (`map[new] == old`). Survivors keep their
    /// relative order, so the set-leader / root re-election rules can be
    /// stated in terms of the old numbering. The new communicator mints a
    /// fresh epoch — cached topologies for the old group are stale by
    /// construction.
    ///
    /// # Panics
    /// Panics if every rank failed (there is no empty communicator) or if
    /// `failed` references an out-of-range rank.
    pub fn without_ranks(&self, failed: &[usize]) -> (Self, Vec<usize>) {
        assert!(
            failed.iter().all(|&r| r < self.size()),
            "failed rank out of range for {}",
            self.name
        );
        let survivors: Vec<usize> = (0..self.size()).filter(|r| !failed.contains(r)).collect();
        assert!(!survivors.is_empty(), "all ranks of {} failed", self.name);
        let mut child = self.subset(&survivors);
        child.name = format!("{}.shrink", self.name);
        (child, survivors)
    }

    /// `MPI_Comm_split`: ranks with equal `color` group together, ordered by
    /// `(key, rank)`. Returns the children ordered by color.
    pub fn split(&self, color: impl Fn(usize) -> i64, key: impl Fn(usize) -> i64) -> Vec<Self> {
        let mut by_color: std::collections::BTreeMap<i64, Vec<usize>> = Default::default();
        for r in 0..self.size() {
            by_color.entry(color(r)).or_default().push(r);
        }
        by_color
            .into_iter()
            .map(|(c, mut ranks)| {
                ranks.sort_by_key(|&r| (key(r), r));
                let mut child = self.subset(&ranks);
                child.name = format!("{}.split{c}", self.name);
                child
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdac_hwtopo::{machines, BindingPolicy};

    fn world() -> Communicator {
        let ig = Arc::new(machines::ig());
        let binding = BindingPolicy::Contiguous.bind(&ig, 48).unwrap();
        Communicator::world(ig, binding)
    }

    #[test]
    fn world_size_and_cores() {
        let w = world();
        assert_eq!(w.size(), 48);
        assert_eq!(w.core_of(47), 47);
    }

    #[test]
    fn dup_preserves_group() {
        let w = world();
        let d = w.dup();
        assert_eq!(d.size(), w.size());
        assert_eq!(d.binding(), w.binding());
        assert_ne!(d.name(), w.name());
    }

    #[test]
    fn epochs_track_group_identity() {
        let w = world();
        assert_eq!(w.dup().epoch(), w.epoch(), "same group, same epoch");
        assert_ne!(w.subset(&[0, 1]).epoch(), w.epoch(), "rebinding mints a new epoch");
        let groups = w.split(|r| (r % 2) as i64, |r| r as i64);
        for g in &groups {
            assert_ne!(g.epoch(), w.epoch());
        }
        assert_ne!(groups[0].epoch(), groups[1].epoch());
        assert_ne!(world().epoch(), w.epoch(), "fresh worlds are distinct groups");
    }

    #[test]
    fn distances_arc_is_cached_and_matches_fresh_build() {
        let w = world();
        let a = w.distances_arc();
        let b = w.distances_arc();
        assert!(Arc::ptr_eq(&a, &b), "second call reuses the built matrix");
        assert_eq!(*a, DistanceMatrix::for_binding(w.machine(), w.binding()));
        // dup shares the parent's cache; subset rebuilds for its own group.
        assert!(Arc::ptr_eq(&w.dup().distances_arc(), &a));
        let s = w.subset(&[47, 0, 6]);
        assert_eq!(s.distances_arc().num_ranks(), 3);
    }

    #[test]
    fn subset_renumbers_ranks() {
        let w = world();
        let s = w.subset(&[47, 0, 6]);
        assert_eq!(s.size(), 3);
        assert_eq!(s.core_of(0), 47);
        assert_eq!(s.core_of(1), 0);
        assert_eq!(s.core_of(2), 6);
    }

    #[test]
    fn permutation_changes_distances_not_set() {
        let w = world();
        // Reverse ranks: distance matrix permutes accordingly.
        let perm: Vec<usize> = (0..48).rev().collect();
        let p = w.subset(&perm);
        let dw = w.distances();
        let dp = p.distances();
        assert_eq!(dw.get(0, 6), dp.get(47, 41));
        assert_eq!(dw.histogram(), dp.histogram(), "same multiset of pair distances");
    }

    #[test]
    fn split_by_numa_gives_one_group_per_socket() {
        let w = world();
        let machine = w.machine();
        let groups = w.split(|r| machine.core(r).numa as i64, |r| r as i64);
        assert_eq!(groups.len(), 8);
        for (n, g) in groups.iter().enumerate() {
            assert_eq!(g.size(), 6);
            for r in 0..6 {
                assert_eq!(w.machine().core(g.core_of(r)).numa, n);
            }
            // All intra-group distances are 1 on IG.
            let d = g.distances();
            assert_eq!(d.classes(), vec![1]);
        }
    }

    #[test]
    fn split_orders_by_key_then_rank() {
        let w = world();
        let groups = w.split(|_| 0, |r| -(r as i64));
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].core_of(0), 47, "highest rank first under negative key");
    }

    #[test]
    #[should_panic(expected = "subset rank out of range")]
    fn subset_rejects_out_of_range() {
        world().subset(&[48]);
    }

    #[test]
    fn without_ranks_shrinks_and_maps_back() {
        let w = world();
        let (s, map) = w.without_ranks(&[1, 5]);
        assert_eq!(s.size(), 46);
        assert_ne!(s.epoch(), w.epoch(), "shrink mints a fresh epoch");
        assert!(!map.contains(&1) && !map.contains(&5));
        // Survivors keep relative order and map back to their old cores.
        for (new, &old) in map.iter().enumerate() {
            assert_eq!(s.core_of(new), w.core_of(old));
        }
        assert_eq!(map[0], 0);
        assert_eq!(map[1], 2, "rank 2 slides into slot 1");
    }

    #[test]
    #[should_panic(expected = "all ranks of")]
    fn without_ranks_rejects_total_failure() {
        let w = world();
        let all: Vec<usize> = (0..w.size()).collect();
        w.without_ranks(&all);
    }
}
