//! The paper's four-factor process distance (§IV-A).
//!
//! Distance between two processes (equivalently, the cores they are bound
//! to) is derived from four hardware predicates:
//!
//! 1. sharing **any cache** (L1/L2/L3) → distance **1**;
//! 2. otherwise, on the **same socket** *and* sharing a **memory
//!    controller** → **2**;
//! 3. different sockets but a shared memory controller → **3**;
//! 4. same socket but different memory controllers → **4**
//!    (e.g. multi-die packages with per-die controllers);
//! 5. neither, but on the **same board** → **5**;
//! 6. different boards → **6**.
//!
//! A process is at distance **0** from itself. The paper bounds the range at
//! 6; inter-node extensions would append larger values, which the rest of
//! the framework already tolerates (all algorithms are parametric in the
//! weight).

use serde::{Deserialize, Serialize};

use crate::binding::Binding;
use crate::object::{CoreId, CoreView, Machine};

/// Process distance; 0 = self, 1–6 per the paper's definition, 7–8 for the
/// inter-node extension.
pub type Distance = u8;

/// Smallest inter-process distance.
pub const DIST_MIN: Distance = 1;
/// Largest *intra-node* distance modelled by the paper (different boards).
pub const DIST_MAX: Distance = 6;
/// Inter-node extension (paper §IV-A: "At the inter-node level, the
/// distance can take into account network adapters, links, and even
/// switches and routers, by a simple and natural extension"): different
/// nodes behind the same switch.
pub const DIST_SAME_SWITCH: Distance = 7;
/// Different nodes behind different switches.
pub const DIST_CROSS_SWITCH: Distance = 8;
/// Largest distance including the inter-node extension.
pub const DIST_MAX_EXTENDED: Distance = 8;

/// Distance between two resolved core views — the pure four-factor function.
///
/// This operates on [`CoreView`]s directly so that hierarchies the builder
/// cannot yet express (e.g. a socket spanning two memory controllers, which
/// yields distance 4) remain testable and usable by external topology
/// sources.
pub fn core_view_distance(a: &CoreView, b: &CoreView) -> Distance {
    if a.core == b.core {
        return 0;
    }
    if a.node != b.node {
        return if a.switch == b.switch { DIST_SAME_SWITCH } else { DIST_CROSS_SWITCH };
    }
    if a.shares_cache_with(b) {
        return 1;
    }
    let same_socket = a.socket == b.socket;
    let same_mc = a.numa == b.numa;
    match (same_socket, same_mc) {
        (true, true) => 2,
        (false, true) => 3,
        (true, false) => 4,
        (false, false) => {
            if a.board == b.board {
                5
            } else {
                6
            }
        }
    }
}

/// Distance between two cores of `machine`.
pub fn core_distance(machine: &Machine, a: CoreId, b: CoreId) -> Distance {
    core_view_distance(machine.core(a), machine.core(b))
}

/// A symmetric rank-indexed distance matrix for one communicator binding.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistanceMatrix {
    n: usize,
    d: Vec<Distance>,
    /// Bit `c >= 1` is set iff some cell holds distance `c` (bit 0 stays
    /// clear): the planner asks for the class set on every large broadcast,
    /// and the fill has every pair in hand anyway.
    classes: u16,
}

impl DistanceMatrix {
    /// Distances between the ranks of `binding` on `machine`.
    pub fn for_binding(machine: &Machine, binding: &Binding) -> Self {
        let n = binding.num_ranks();
        let telemetry = pdac_telemetry::global();
        let _span = telemetry.recorder().span(
            0,
            "hwtopo",
            || format!("distance_fill n={n}"),
            || vec![("ranks", n.into())],
        );
        telemetry.registry().add("hwtopo.distance_fills", 1);
        telemetry.registry().add("hwtopo.distance_cells", (n * n) as u64);
        let mut d = vec![0; n * n];
        let mut classes = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                let dist = core_distance(machine, binding.core_of(i), binding.core_of(j));
                d[i * n + j] = dist;
                d[j * n + i] = dist;
                classes |= 1 << dist;
            }
        }
        DistanceMatrix { n, d, classes: classes & !1 }
    }

    /// Distances between all cores of `machine` (identity binding).
    pub fn for_machine(machine: &Machine) -> Self {
        let binding = Binding::identity(machine);
        Self::for_binding(machine, &binding)
    }

    /// Builds a matrix from an explicit row-major table (used by tests and
    /// by external topology sources). Panics if `d.len() != n * n` or an
    /// entry exceeds [`DIST_MAX_EXTENDED`].
    pub fn from_raw(n: usize, d: Vec<Distance>) -> Self {
        assert_eq!(d.len(), n * n, "distance table must be n*n");
        let classes = d.iter().fold(0, |classes, &v| {
            assert!(v <= DIST_MAX_EXTENDED, "distance {v} is past class {DIST_MAX_EXTENDED}");
            classes | 1 << v
        });
        DistanceMatrix { n, d, classes: classes & !1 }
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.n
    }

    /// Distance between ranks `i` and `j`.
    pub fn get(&self, i: usize, j: usize) -> Distance {
        self.d[i * self.n + j]
    }

    /// Distances from rank `i` to every rank, indexed by rank.
    pub fn row(&self, i: usize) -> &[Distance] {
        &self.d[i * self.n..(i + 1) * self.n]
    }

    /// Sorted distinct non-zero distances present in the matrix.
    pub fn classes(&self) -> Vec<Distance> {
        (1..=DIST_MAX_EXTENDED).filter(|&c| self.classes & (1 << c) != 0).collect()
    }

    /// Largest distance between any two ranks (0 for a singleton).
    pub fn max(&self) -> Distance {
        self.d.iter().copied().max().unwrap_or(0)
    }

    /// Histogram of pair distances: `hist[d]` = number of unordered pairs at
    /// distance `d`.
    pub fn histogram(&self) -> [usize; (DIST_MAX_EXTENDED as usize) + 1] {
        let mut hist = [0usize; (DIST_MAX_EXTENDED as usize) + 1];
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                hist[self.get(i, j) as usize] += 1;
            }
        }
        hist
    }

    /// Partitions ranks into clusters whose members are transitively
    /// connected by pairs at distance ≤ `threshold`. For hierarchy-derived
    /// distances the relation is already transitive at thresholds 1, 3, 5
    /// and 6 (cache / memory-controller / board domains); the transitive
    /// closure makes the result well-defined for every threshold.
    ///
    /// Clusters are returned sorted by their smallest rank; members sorted.
    pub fn clusters_at(&self, threshold: Distance) -> Vec<Vec<usize>> {
        let mut parent: Vec<usize> = (0..self.n).collect();
        fn find(parent: &mut [usize], x: usize) -> usize {
            let mut r = x;
            while parent[r] != r {
                r = parent[r];
            }
            let mut c = x;
            while parent[c] != r {
                let next = parent[c];
                parent[c] = r;
                c = next;
            }
            r
        }
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if self.get(i, j) <= threshold {
                    let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                    if a != b {
                        // Keep the smaller root so cluster leaders are the
                        // smallest rank.
                        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                        parent[hi] = lo;
                    }
                }
            }
        }
        let mut clusters: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for i in 0..self.n {
            let r = find(&mut parent, i);
            clusters.entry(r).or_default().push(i);
        }
        clusters.into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::BindingPolicy;
    use crate::machines;
    use crate::object::CoreView;

    #[test]
    fn zoot_distances_match_paper_section_iv_a() {
        // "MPI processes can be bound to different cores on the same die,
        // sharing a L2 cache (distance '1'), different dies on the same
        // socket (distance '2') or on different sockets (distance '3')."
        let z = machines::zoot();
        assert_eq!(core_distance(&z, 0, 0), 0);
        assert_eq!(core_distance(&z, 0, 1), 1, "same die, shared L2");
        assert_eq!(core_distance(&z, 0, 2), 2, "different dies, same socket");
        assert_eq!(core_distance(&z, 0, 4), 3, "different sockets, shared FSB controller");
        assert_eq!(core_distance(&z, 3, 12), 3);
    }

    #[test]
    fn ig_distances_match_paper_section_iv_a() {
        // "Distances between processes bound to the 6 cores of the same
        // socket are equally distance '1'. Processes on different NUMA
        // nodes/sockets but on the same board, e.g. between core#0 and
        // core#12, are assigned the distance '5'. Processes bound to cores
        // on different boards, e.g. between core#0 and core#24 are at
        // distance '6'."
        let ig = machines::ig();
        for a in 0..6 {
            for b in 0..6 {
                if a != b {
                    assert_eq!(core_distance(&ig, a, b), 1);
                }
            }
        }
        assert_eq!(core_distance(&ig, 0, 12), 5);
        assert_eq!(core_distance(&ig, 0, 24), 6);
        assert_eq!(core_distance(&ig, 23, 24), 6);
    }

    #[test]
    fn distance_four_for_split_memory_controller_package() {
        // Same socket, different memory controllers (Magny-Cours style):
        // representable by the pure function even though the builder always
        // nests sockets inside NUMA nodes.
        let a = CoreView {
            core: 0,
            obj: 0,
            board: 0,
            numa: 0,
            socket: 0,
            die: Some(0),
            caches: vec![],
            node: 0,
            switch: 0,
        };
        let b = CoreView {
            core: 1,
            obj: 1,
            board: 0,
            numa: 1,
            socket: 0,
            die: Some(1),
            caches: vec![],
            node: 0,
            switch: 0,
        };
        assert_eq!(core_view_distance(&a, &b), 4);
    }

    #[test]
    fn two_board_numa12_has_exactly_the_figure4_classes() {
        let m = machines::two_board_numa12();
        let dm = DistanceMatrix::for_machine(&m);
        assert_eq!(dm.classes(), vec![2, 5, 6]);
    }

    #[test]
    fn matrix_symmetry_and_zero_diagonal() {
        let ig = machines::ig();
        let dm = DistanceMatrix::for_machine(&ig);
        for i in 0..48 {
            assert_eq!(dm.get(i, i), 0);
            for j in 0..48 {
                assert_eq!(dm.get(i, j), dm.get(j, i));
            }
        }
    }

    #[test]
    fn clusters_at_numa_level_on_ig() {
        let ig = machines::ig();
        let dm = DistanceMatrix::for_machine(&ig);
        let clusters = dm.clusters_at(1);
        assert_eq!(clusters.len(), 8, "one cluster per socket");
        assert_eq!(clusters[0], (0..6).collect::<Vec<_>>());
        let boards = dm.clusters_at(5);
        assert_eq!(boards.len(), 2);
        assert_eq!(boards[0], (0..24).collect::<Vec<_>>());
    }

    #[test]
    fn clusters_respect_binding_permutation() {
        let ig = machines::ig();
        let binding = BindingPolicy::CrossSocket.bind(&ig, 48).unwrap();
        let dm = DistanceMatrix::for_binding(&ig, &binding);
        let clusters = dm.clusters_at(1);
        assert_eq!(clusters.len(), 8);
        // Under cross-socket binding, ranks r, r+8, r+16, ... share a socket.
        assert_eq!(clusters[0], vec![0, 8, 16, 24, 32, 40]);
    }

    #[test]
    fn histogram_counts_all_pairs() {
        let z = machines::zoot();
        let dm = DistanceMatrix::for_machine(&z);
        let h = dm.histogram();
        let total: usize = h.iter().sum();
        assert_eq!(total, 16 * 15 / 2);
        assert_eq!(h[1], 8, "8 shared-L2 pairs");
        assert_eq!(h[2], 16, "4 cross-die pairs per socket");
        assert_eq!(h[3], 96, "all cross-socket pairs");
    }

    #[test]
    fn classes_recorded_at_fill_match_a_scan_of_the_cells() {
        for m in machines::all_predefined() {
            let dm = DistanceMatrix::for_machine(&m);
            let n = dm.num_ranks();
            let cells: Vec<Distance> = (0..n * n).map(|k| dm.get(k / n, k % n)).collect();
            let mut scanned: Vec<Distance> = cells.iter().copied().filter(|&v| v > 0).collect();
            scanned.sort_unstable();
            scanned.dedup();
            assert_eq!(dm.classes(), scanned, "{}", m.name);
            assert_eq!(DistanceMatrix::from_raw(n, cells), dm, "{}", m.name);
        }
    }

    #[test]
    #[should_panic(expected = "past class 8")]
    fn from_raw_rejects_a_class_it_cannot_record() {
        DistanceMatrix::from_raw(2, vec![0, 9, 9, 0]);
    }

    #[test]
    fn flat_smp_all_distance_two() {
        let m = machines::flat_smp(6);
        let dm = DistanceMatrix::for_machine(&m);
        assert_eq!(dm.classes(), vec![2]);
    }
}
