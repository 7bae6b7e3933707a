//! The adaptive collective framework (§IV): communicator + binding +
//! machine → distance matrix → runtime topology per collective call.
//!
//! There is **one planner path**. [`AdaptiveColl::plan`] takes a
//! [`Request`] (one variant per collective, carrying the parameters callers
//! actually vary) and compiles its schedule; underneath it exactly two
//! private functions obtain a topology — `tree` (Algorithm 1) and `ring`
//! (Algorithm 2) — and they are the only code that runs the Kruskal
//! builders. Caching and explanation are not parallel planners but two
//! optional [`Sinks`] on that path: a [`TopoCache`] the topology is looked
//! up in (and built into on a miss), and a [`Provenance`] recorder every
//! decision is written to. A plan is therefore the same schedule whichever
//! sinks are attached — by construction, not by an equivalence test. Every
//! other public planner entry here (and the `distance_aware` free functions
//! of the per-collective modules) is a single delegation kept for callers
//! that name it.
//!
//! Includes the §V-B refinement: for large messages, distance classes whose
//! processes all share a memory controller are **collapsed**, because the
//! controller — not the intra-socket hierarchy — is the bottleneck: "the
//! single memory controller will be overloaded with write requests, and the
//! potential benefit we can get on the read side ... is totally
//! annihilated". On Zoot this turns the hierarchical tree into the linear
//! topology that Figure 8 shows winning for messages above 16 KB; on IG
//! (per-socket controllers) collapsing changes nothing.

use std::str::FromStr;
use std::sync::Arc;

use pdac_hwtopo::{Distance, DistanceMatrix};
use pdac_mpisim::Communicator;
use pdac_simnet::{DataOp, Schedule};
use serde::{Deserialize, Serialize};

use crate::allgather_ring::Ring;
use crate::alltoall::alltoall_schedule;
use crate::bcast_tree::weighted_bcast_tree;
use crate::decision_inputs;
use crate::edges::CLASS_WEIGHTS;
use crate::provenance::{Decision, DecisionKind, Provenance};
use crate::reduce_scatter::{reduce_scatter_schedule_with_op, ring_allreduce_schedule_with_op};
use crate::sched::{
    allgather_schedule_dist, allreduce_schedule_dist_with_op, barrier_schedule,
    bcast_schedule_dist, gather_schedule, reduce_schedule_with_op, scatter_schedule, ChunkPolicy,
    SchedConfig,
};
use crate::topocache::TopoCache;
use crate::tree::Tree;

/// The nine collectives the framework plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Collective {
    /// MPI_Bcast.
    Bcast,
    /// MPI_Allgather.
    Allgather,
    /// MPI_Allreduce.
    Allreduce,
    /// MPI_Reduce.
    Reduce,
    /// MPI_Reduce_scatter_block.
    ReduceScatter,
    /// MPI_Gather.
    Gather,
    /// MPI_Scatter.
    Scatter,
    /// MPI_Alltoall.
    Alltoall,
    /// MPI_Barrier.
    Barrier,
}

impl Collective {
    /// Every collective, in declaration order.
    pub const ALL: [Collective; 9] = [
        Collective::Bcast,
        Collective::Allgather,
        Collective::Allreduce,
        Collective::Reduce,
        Collective::ReduceScatter,
        Collective::Gather,
        Collective::Scatter,
        Collective::Alltoall,
        Collective::Barrier,
    ];

    /// Lowercase label used in scenario ids, plan ids and on command lines.
    pub fn label(&self) -> &'static str {
        match self {
            Collective::Bcast => "bcast",
            Collective::Allgather => "allgather",
            Collective::Allreduce => "allreduce",
            Collective::Reduce => "reduce",
            Collective::ReduceScatter => "reduce_scatter",
            Collective::Gather => "gather",
            Collective::Scatter => "scatter",
            Collective::Alltoall => "alltoall",
            Collective::Barrier => "barrier",
        }
    }

    /// Whether the collective takes a root ([`Request::root`]).
    pub fn is_rooted(&self) -> bool {
        use Collective::*;
        matches!(self, Bcast | Allreduce | Reduce | Gather | Scatter)
    }
}

impl FromStr for Collective {
    type Err = String;

    /// Parses a [`Collective::label`].
    fn from_str(s: &str) -> Result<Self, String> {
        Collective::ALL.into_iter().find(|c| c.label() == s).ok_or_else(|| {
            let labels: Vec<&str> = Collective::ALL.iter().map(Collective::label).collect();
            format!("unknown collective {s:?} (expected one of {})", labels.join(", "))
        })
    }
}

/// Topology refinement for broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BcastTopology {
    /// Full distance hierarchy (the paper's "4 sets" Zoot configuration).
    Hierarchical,
    /// Distances 1–3 (same memory controller) merged — on a single-MC
    /// machine this degenerates to the linear topology of Figure 8.
    Collapsed,
}

/// Which allreduce algorithm a [`Request`] asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllreduceAlgo {
    /// Reduce up and broadcast down the hierarchical Algorithm-1 tree.
    /// Allreduce never collapses: the reduction order is fixed by the
    /// tree, so the §V-B rule does not apply.
    Tree,
    /// Ring reduce-scatter + allgather over the Algorithm-2 ring; the
    /// payload must split evenly over the ranks.
    Ring,
}

/// One collective call to plan: the collective plus the parameters callers
/// vary. Start from [`Request::new`] and override fields with struct-update
/// syntax; fields a collective has no use for are ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// The collective to plan.
    pub collective: Collective,
    /// Root rank of the rooted collectives (bcast, reduce, gather, scatter,
    /// tree allreduce).
    pub root: usize,
    /// The whole message for bcast, reduce and allreduce; the per-rank
    /// block for the others; unused by barrier.
    pub bytes: usize,
    /// Combine operator of the reducing collectives.
    pub op: DataOp,
    /// Bcast only: `None` applies the §V-B size rule
    /// ([`AdaptiveColl::bcast_topology_choice`]); `Some` forces a
    /// refinement (the Figure 8 "4 sets" vs "linear" ablation).
    pub bcast_topo: Option<BcastTopology>,
    /// Allreduce only; see [`AdaptiveColl::allreduce_algorithm_choice`].
    pub allreduce: AllreduceAlgo,
}

impl Request {
    /// The default request: byte-wise [`DataOp::Add`], the size-ruled
    /// broadcast topology, tree allreduce.
    pub fn new(collective: Collective, root: usize, bytes: usize) -> Self {
        Request {
            collective,
            root,
            bytes,
            op: DataOp::Add,
            bcast_topo: None,
            allreduce: AllreduceAlgo::Tree,
        }
    }
}

/// The optional by-products of one [`AdaptiveColl::plan`] call. Neither
/// changes the schedule: the cache only decides whether the topology is
/// rebuilt, the recorder only listens.
#[derive(Debug, Default)]
pub struct Sinks<'a> {
    /// Look the topology up here, building into it on a miss.
    pub cache: Option<&'a TopoCache>,
    /// Overwritten with the plan's full record: identity, every decision
    /// with the inputs its rule saw, and the planned-op list.
    pub provenance: Option<&'a mut Provenance>,
}

impl<'a> Sinks<'a> {
    /// Only the topology cache.
    pub fn cached(cache: &'a TopoCache) -> Self {
        Sinks { cache: Some(cache), provenance: None }
    }

    fn record(&mut self, decision: impl FnOnce() -> Decision) {
        if let Some(prov) = self.provenance.as_deref_mut() {
            prov.record(decision());
        }
    }
}

// The planner's message-size thresholds. Each is read by exactly one
// choice function (`framework::component`, `bcast_topology_choice` or
// `allreduce_algorithm_choice`), and none is settable. The paper puts the
// KNEM crossover "equivalent to a 16 KB broadcast or a 2 KB allgather"
// (§IV-A) and the Zoot collapse point at 16 KB (§V-B).

/// Broadcasts up to this size go to the shared-memory component.
pub const SM_BCAST_MAX_BYTES: usize = 2 * 1024;
/// Broadcasts above [`SM_BCAST_MAX_BYTES`] and up to this size go to the
/// tuned component; larger ones are distance-aware.
pub const TUNED_BCAST_MAX_BYTES: usize = 16 * 1024;
/// Allgather blocks up to this size go to the tuned component; larger ones
/// are distance-aware.
pub const TUNED_ALLGATHER_MAX_BYTES: usize = 2 * 1024;
/// Above this broadcast size, same-memory-controller distance classes are
/// collapsed.
pub const COLLAPSE_ABOVE_BYTES: usize = 16 * 1024;
/// From this payload upward the bandwidth-optimal ring allreduce beats the
/// tree (when the payload splits evenly over the ranks).
pub const RING_ALLREDUCE_MIN_BYTES: usize = 256 * 1024;

/// The queue weight of each distance class under [`BcastTopology::Collapsed`]:
/// the same-controller classes 1, 2, 3 merge into 1, cross-controller
/// classes stay distinct.
const INTRA_MC_COLLAPSED: [Distance; 9] = [0, 1, 1, 1, 4, 5, 6, 7, 8];

/// Merges the same-controller distance classes (1, 2, 3 → 1) while keeping
/// cross-controller classes distinct: the matrix a collapsed tree's queue
/// weights describe, which the tests build the tree from as its oracle.
pub fn collapse_intra_mc(dist: &DistanceMatrix) -> DistanceMatrix {
    let n = dist.num_ranks();
    let mut d = Vec::with_capacity(n * n);
    for i in 0..n {
        for j in 0..n {
            let w = dist.get(i, j);
            d.push(if (1..=3).contains(&w) { 1 } else { w });
        }
    }
    DistanceMatrix::from_raw(n, d)
}

/// Whether several distance classes share a memory controller (some class
/// in 2..=3 is present beside another) — the only case collapsing matters.
fn has_intra_mc_structure(classes: &[Distance]) -> bool {
    classes.iter().any(|&c| (2..=3).contains(&c)) && classes.first() != classes.last()
}

/// The Algorithm-1 tree of `comm` rooted at `root` under `topo`: from the
/// cache if one is given (built into it on a miss), fresh otherwise; the
/// lookup outcome goes to the recorder if one is given.
fn tree(comm: &Communicator, root: usize, topo: BcastTopology, sinks: &mut Sinks<'_>) -> Arc<Tree> {
    let dist = comm.distances_arc();
    let weight = match topo {
        BcastTopology::Hierarchical => &CLASS_WEIGHTS,
        BcastTopology::Collapsed => &INTRA_MC_COLLAPSED,
    };
    let build = || weighted_bcast_tree(&dist, root, weight, None);
    let epoch = comm.epoch();
    let (tree, hit) = match sinks.cache {
        Some(cache) => {
            let (tree, hit) = cache.tree(epoch, root, topo, build);
            (tree, Some(hit))
        }
        None => (Arc::new(build()), None),
    };
    sinks.record(|| cache_lookup_decision(format!("topocache bcast root {root}"), hit, epoch));
    tree
}

/// The Algorithm-2 ring of `comm`; sinks as for [`tree`].
fn ring(comm: &Communicator, sinks: &mut Sinks<'_>) -> Arc<Ring> {
    let dist = comm.distances_arc();
    let build = || Ring::build(&dist);
    let epoch = comm.epoch();
    let (ring, hit) = match sinks.cache {
        Some(cache) => {
            let (ring, hit) = cache.ring(epoch, build);
            (ring, Some(hit))
        }
        None => (Arc::new(build()), None),
    };
    sinks.record(|| cache_lookup_decision("topocache allgather ring".into(), hit, epoch));
    ring
}

/// What a plan routes payload over — the edges whose distance classes the
/// recorder reports.
enum Routes {
    Tree(Arc<Tree>),
    Ring(Arc<Ring>),
    /// Direct pulls between the root and every other rank.
    Star,
}

/// The distance-aware adaptive collective component ("KNEM collective").
/// It has no settings: its thresholds are the constants above and its
/// pipeline chunks are [`SchedConfig::default`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AdaptiveColl;

impl AdaptiveColl {
    /// Which refinement the framework picks for a broadcast of `bytes`.
    pub fn bcast_topology_choice(&self, comm: &Communicator, bytes: usize) -> BcastTopology {
        if bytes > COLLAPSE_ABOVE_BYTES && has_intra_mc_structure(&comm.distances_arc().classes()) {
            BcastTopology::Collapsed
        } else {
            BcastTopology::Hierarchical
        }
    }

    /// Which allreduce the framework picks for `bytes` under `op`: payloads
    /// that split evenly over the ranks into lane-aligned blocks and are
    /// worth the traffic use the bandwidth-optimal ring; everything else
    /// uses the tree.
    pub fn allreduce_algorithm_choice(
        comm: &Communicator,
        bytes: usize,
        op: DataOp,
    ) -> AllreduceAlgo {
        let n = comm.size();
        if n > 1
            && bytes.is_multiple_of(n)
            && (bytes / n).is_multiple_of(op.lane_bytes())
            && bytes >= RING_ALLREDUCE_MIN_BYTES
        {
            AllreduceAlgo::Ring
        } else {
            AllreduceAlgo::Tree
        }
    }

    /// Plans one collective call: obtains the topology (through the cache
    /// sink if given), compiles the one-sided schedule, and writes every
    /// decision plus the planned-op list to the provenance sink if given.
    /// The schedule does not depend on the sinks.
    ///
    /// Chunk sizing always uses the physical (uncollapsed) distances:
    /// collapsing reshapes the tree, not the cost of moving bytes across
    /// an edge.
    ///
    /// # Panics
    /// Panics if a ring allreduce's `bytes` do not split over the ranks.
    pub fn plan(&self, comm: &Communicator, request: Request, mut sinks: Sinks<'_>) -> Schedule {
        // Shared, filled once per communicator — and not at all for a
        // direct gather or scatter planned without a recorder.
        let dist = || comm.distances_arc();
        let n = comm.size();
        let cfg = &SchedConfig::default();
        let Request { collective, root, bytes, op, .. } = request;
        if let Some(prov) = sinks.provenance.as_deref_mut() {
            *prov = Provenance::begin(collective.label(), n, bytes, comm.epoch());
            prov.record(algorithm_decision(&request, n, &dist()));
        }
        let named = |mut s: Schedule, stem: &str| {
            s.name = format!("{stem}/{}", comm.name());
            s
        };
        // The schedule, what it routes over, and whether its edges pipeline
        // in per-distance chunks.
        let (schedule, routes, chunked) = match collective {
            Collective::Bcast => {
                let topo =
                    request.bcast_topo.unwrap_or_else(|| self.bcast_topology_choice(comm, bytes));
                let forced = request.bcast_topo.is_some();
                sinks.record(|| self.bcast_topology_decision(&dist(), bytes, topo, forced));
                let tree = tree(comm, root, topo, &mut sinks);
                let mut s = bcast_schedule_dist(&tree, bytes, cfg, Some(&dist()));
                s.name = format!(
                    "knemcoll-bcast/{}",
                    match topo {
                        BcastTopology::Hierarchical => "hier",
                        BcastTopology::Collapsed => "linearized",
                    }
                );
                (s, Routes::Tree(tree), true)
            }
            Collective::Allgather => {
                let ring = ring(comm, &mut sinks);
                let mut s = allgather_schedule_dist(&ring, bytes, Some(cfg), Some(&dist()));
                s.name = "knemcoll-allgather".into();
                (s, Routes::Ring(ring), true)
            }
            Collective::Allreduce if request.allreduce == AllreduceAlgo::Ring => {
                assert!(
                    bytes.is_multiple_of(n),
                    "ring allreduce of {bytes} B does not split over {n} ranks"
                );
                let ring = ring(comm, &mut sinks);
                let s = ring_allreduce_schedule_with_op(&ring, bytes / n, op);
                (s, Routes::Ring(ring), false)
            }
            Collective::Allreduce => {
                let tree = tree(comm, root, BcastTopology::Hierarchical, &mut sinks);
                let s = allreduce_schedule_dist_with_op(&tree, bytes, cfg, Some(&dist()), op);
                (s, Routes::Tree(tree), true)
            }
            Collective::Reduce => {
                let tree = tree(comm, root, BcastTopology::Hierarchical, &mut sinks);
                let s = named(reduce_schedule_with_op(&tree, bytes, op), "dist-reduce");
                (s, Routes::Tree(tree), false)
            }
            Collective::ReduceScatter => {
                let ring = ring(comm, &mut sinks);
                let s = reduce_scatter_schedule_with_op(&ring, bytes, op);
                (named(s, "dist-reduce-scatter"), Routes::Ring(ring), false)
            }
            Collective::Gather => {
                let s = named(gather_schedule(root, n, bytes), "dist-gather");
                (s, Routes::Star, false)
            }
            Collective::Scatter => {
                let s = named(scatter_schedule(root, n, bytes), "dist-scatter");
                (s, Routes::Star, false)
            }
            Collective::Alltoall => {
                let ring = ring(comm, &mut sinks);
                let s = named(alltoall_schedule(&ring, bytes), "dist-alltoall");
                (s, Routes::Ring(ring), false)
            }
            Collective::Barrier => {
                let tree = tree(comm, 0, BcastTopology::Hierarchical, &mut sinks);
                let s = named(barrier_schedule(&tree), "dist-barrier");
                (s, Routes::Tree(tree), false)
            }
        };
        if let Some(prov) = sinks.provenance {
            let edges = match routes {
                Routes::Tree(tree) => tree.down_edges(),
                Routes::Ring(ring) => ring.edges(),
                // `(sender, receiver)`: gather pulls into the root, scatter
                // out of it.
                Routes::Star => (0..n)
                    .filter(|&r| r != root)
                    .map(|r| match collective {
                        Collective::Gather => (r, root),
                        _ => (root, r),
                    })
                    .collect(),
            };
            let chunk = chunked.then_some(&cfg.chunk);
            record_edge_decisions(prov, &edges, &dist(), chunk, bytes);
            prov.attach_schedule(&schedule);
        }
        schedule
    }

    /// The broadcast tree the framework would use (exposed for inspection).
    pub fn bcast_tree(&self, comm: &Communicator, root: usize, topo: BcastTopology) -> Tree {
        Arc::unwrap_or_clone(tree(comm, root, topo, &mut Sinks::default()))
    }

    /// [`Self::bcast_tree`] through `cache`: a hit skips the edge queue and
    /// union-find entirely; a miss builds the tree and caches it.
    pub fn bcast_tree_cached(
        &self,
        cache: &TopoCache,
        comm: &Communicator,
        root: usize,
        topo: BcastTopology,
    ) -> Arc<Tree> {
        tree(comm, root, topo, &mut Sinks::cached(cache))
    }

    /// The allgather ring the framework would use.
    pub fn allgather_ring(&self, comm: &Communicator) -> Ring {
        Arc::unwrap_or_clone(ring(comm, &mut Sinks::default()))
    }

    /// [`Self::allgather_ring`] through `cache`.
    pub fn allgather_ring_cached(&self, cache: &TopoCache, comm: &Communicator) -> Arc<Ring> {
        ring(comm, &mut Sinks::cached(cache))
    }

    /// Distance-aware broadcast, no sinks.
    pub fn bcast(&self, comm: &Communicator, root: usize, bytes: usize) -> Schedule {
        let request = Request::new(Collective::Bcast, root, bytes);
        self.plan(comm, request, Sinks::default())
    }

    /// [`Self::bcast`] through `cache`: repeated broadcasts on one
    /// communicator reuse the cached tree and only recompile the schedule.
    pub fn bcast_cached(
        &self,
        cache: &TopoCache,
        comm: &Communicator,
        root: usize,
        bytes: usize,
    ) -> Schedule {
        let request = Request::new(Collective::Bcast, root, bytes);
        self.plan(comm, request, Sinks::cached(cache))
    }

    /// [`Self::bcast`] (through `cache` if given) returning the plan's
    /// [`Provenance`] alongside the schedule.
    pub fn bcast_explained(
        &self,
        cache: Option<&TopoCache>,
        comm: &Communicator,
        root: usize,
        bytes: usize,
    ) -> (Schedule, Provenance) {
        let mut prov = Provenance::default();
        let sinks = Sinks { cache, provenance: Some(&mut prov) };
        let request = Request::new(Collective::Bcast, root, bytes);
        (self.plan(comm, request, sinks), prov)
    }

    /// Explicit-topology broadcast (the Figure 8 "4 sets" vs "linear"
    /// comparison bypasses the size rule).
    pub fn bcast_with_topology(
        &self,
        comm: &Communicator,
        root: usize,
        bytes: usize,
        topo: BcastTopology,
    ) -> Schedule {
        let request =
            Request { bcast_topo: Some(topo), ..Request::new(Collective::Bcast, root, bytes) };
        self.plan(comm, request, Sinks::default())
    }

    /// Distance-aware allgather (Algorithm 2 + §IV-C execution), no sinks.
    pub fn allgather(&self, comm: &Communicator, block_bytes: usize) -> Schedule {
        let request = Request::new(Collective::Allgather, 0, block_bytes);
        self.plan(comm, request, Sinks::default())
    }

    /// [`Self::allgather`] through `cache`: repeated allgathers on one
    /// communicator reuse the cached ring and only recompile the schedule.
    pub fn allgather_cached(
        &self,
        cache: &TopoCache,
        comm: &Communicator,
        block_bytes: usize,
    ) -> Schedule {
        let request = Request::new(Collective::Allgather, 0, block_bytes);
        self.plan(comm, request, Sinks::cached(cache))
    }

    /// The §V-B topology ruling with the exact inputs the rule saw, or the
    /// topology the request forced past it.
    fn bcast_topology_decision(
        &self,
        dist: &DistanceMatrix,
        bytes: usize,
        topo: BcastTopology,
        forced: bool,
    ) -> Decision {
        let classes = dist.classes();
        let threshold = COLLAPSE_ABOVE_BYTES;
        let (choice, reason) = match topo {
            BcastTopology::Collapsed => (
                "Collapsed",
                "message above the collapse threshold and distance classes 1\u{2013}3 \
                 share a memory controller: the controller is the bottleneck, so \
                 the intra-MC hierarchy is flattened (\u{a7}V-B)",
            ),
            BcastTopology::Hierarchical if bytes > threshold => (
                "Hierarchical",
                "message above the collapse threshold but no intra-MC structure to \
                 collapse: every distance class crosses a controller boundary",
            ),
            BcastTopology::Hierarchical => (
                "Hierarchical",
                "message at or below the collapse threshold: the full distance \
                 hierarchy pays off",
            ),
        };
        let reason =
            if forced { "forced by the request; the size rule was skipped" } else { reason };
        Decision::new(
            DecisionKind::Topology,
            "bcast topology",
            choice,
            reason,
            decision_inputs![
                ("bytes", bytes),
                ("collapse_threshold", threshold),
                ("intra_mc_structure", has_intra_mc_structure(&classes)),
                ("classes", render_classes(&classes)),
            ],
        )
    }
}

/// The per-collective algorithm selection with the distance profile that
/// drove it.
fn algorithm_decision(request: &Request, ranks: usize, dist: &DistanceMatrix) -> Decision {
    let (choice, reason) = match request.collective {
        Collective::Bcast => (
            "distance-aware MST broadcast tree (Algorithm 1)",
            "Kruskal over distance-sorted edges yields a minimum-depth \
             minimum-weight spanning tree for this distance profile",
        ),
        Collective::Allgather => (
            "distance-aware ring (Algorithm 2)",
            "greedy fan-out-\u{2264}2 Kruskal path closed into a Hamiltonian \
             cycle clusters physical neighbours",
        ),
        Collective::Allreduce if request.allreduce == AllreduceAlgo::Tree => (
            "tree reduce + broadcast down the distance-aware tree",
            "reduce up and broadcast down the same Algorithm 1 tree; the \
             reduction order pins the hierarchical topology, so the \u{a7}V-B \
             collapse rule never applies",
        ),
        Collective::Allreduce => (
            "ring reduce-scatter + allgather over the distance-aware ring",
            "the payload splits evenly over the ranks, so every byte crosses \
             each Algorithm 2 ring link exactly twice \u{2014} bandwidth-optimal",
        ),
        Collective::Reduce => (
            "bottom-up combine over the distance-aware tree (Algorithm 1)",
            "the broadcast tree run in reverse: each parent combines its \
             children's finished subtrees, so every slow link carries one partial",
        ),
        Collective::ReduceScatter => (
            "ring reduce-scatter over the distance-aware ring (Algorithm 2)",
            "accumulating partials travel physically short hops and each byte \
             crosses each ring link once",
        ),
        Collective::Gather => (
            "direct one-sided gather",
            "every rank exposes its block and the root pulls each one, so every \
             block crosses the machine exactly once",
        ),
        Collective::Scatter => (
            "direct one-sided scatter",
            "the root exposes its buffer once and every rank pulls its own block \
             concurrently, without root-side serialization",
        ),
        Collective::Alltoall => (
            "rotation over the distance-aware ring (Algorithm 2)",
            "at step k every rank pulls from the peer k positions to its left, so \
             early steps stay between physical neighbours and no controller is a \
             hot-spot",
        ),
        Collective::Barrier => (
            "notification gather-up / release-down over the distance-aware tree",
            "control-only waves over the Algorithm 1 tree pay each slow link \
             exactly twice",
        ),
    };
    Decision::new(
        DecisionKind::Algorithm,
        format!("{} algorithm", request.collective.label()),
        choice,
        reason,
        decision_inputs![
            ("ranks", ranks),
            ("classes", render_classes(&dist.classes())),
            ("max_distance", dist.max()),
        ],
    )
}

/// One TopoCache lookup outcome (`hit`, `miss (built)`) or the uncached
/// path when no cache was supplied.
fn cache_lookup_decision(subject: String, hit: Option<bool>, epoch: u64) -> Decision {
    let (choice, reason) = match hit {
        Some(true) => (
            "hit",
            "a topology cached under this (epoch, key) was reused; the edge \
             queue and union-find were skipped",
        ),
        Some(false) => (
            "miss (built)",
            "no topology cached under this (epoch, key); built fresh and \
             cached",
        ),
        None => ("uncached build", "no TopoCache supplied; topology built fresh"),
    };
    Decision::new(
        DecisionKind::CacheLookup,
        subject,
        choice,
        reason,
        decision_inputs![("epoch", epoch)],
    )
}

/// Classifies the plan's edges by physical distance class and records one
/// [`DecisionKind::DistanceClass`] decision per class present, plus one
/// [`DecisionKind::ChunkClass`] decision when the collective pipelines in
/// per-distance chunks (`chunk` given).
fn record_edge_decisions(
    prov: &mut Provenance,
    edges: &[(usize, usize)],
    dist: &DistanceMatrix,
    chunk: Option<&ChunkPolicy>,
    bytes: usize,
) {
    let mut by_class: Vec<(u8, Vec<(usize, usize)>)> = Vec::new();
    for &(a, b) in edges {
        let c = dist.get(a, b);
        match by_class.iter_mut().find(|(k, _)| *k == c) {
            Some((_, v)) => v.push((a, b)),
            None => by_class.push((c, vec![(a, b)])),
        }
    }
    by_class.sort_by_key(|(c, _)| *c);
    for (c, class_edges) in &by_class {
        const SHOWN: usize = 10;
        let mut rendered: Vec<String> =
            class_edges.iter().take(SHOWN).map(|(a, b)| format!("{a}->{b}")).collect();
        if class_edges.len() > SHOWN {
            rendered.push(format!("+{} more", class_edges.len() - SHOWN));
        }
        prov.record(Decision::new(
            DecisionKind::DistanceClass,
            format!("edges d{c}"),
            format!("{} edges", class_edges.len()),
            format!(
                "the distance matrix classifies these sender\u{2192}receiver pairs \
                 at class {c}"
            ),
            decision_inputs![("count", class_edges.len()), ("edges", rendered.join(" ")),],
        ));
        let Some(chunk) = chunk else { continue };
        let chunk_bytes = chunk.chunk_for(*c);
        let chunks_per_edge = bytes.div_ceil(chunk_bytes).max(1);
        let (choice, reason) = if chunks_per_edge > 1 {
            (
                format!("{chunk_bytes} B chunks"),
                format!(
                    "payload exceeds the class-{c} chunk; each edge at this \
                     distance pipelines in {chunks_per_edge} chunks"
                ),
            )
        } else {
            (
                format!("whole message ({bytes} B)"),
                format!("payload fits in one class-{c} chunk ({chunk_bytes} B); no pipelining"),
            )
        };
        prov.record(Decision::new(
            DecisionKind::ChunkClass,
            format!("chunk d{c}"),
            choice,
            reason,
            decision_inputs![
                ("distance_class", c),
                ("chunk_bytes", chunk_bytes),
                ("payload_bytes", bytes),
                ("chunks_per_edge", chunks_per_edge),
            ],
        ));
    }
}

/// `1,5,6` rendering of a class list for decision inputs.
fn render_classes(classes: &[Distance]) -> String {
    let parts: Vec<String> = classes.iter().map(|c| c.to_string()).collect();
    parts.join(",")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use pdac_hwtopo::{machines, BindingPolicy};
    use std::sync::Arc;

    fn comm(machine: pdac_hwtopo::Machine, policy: BindingPolicy) -> Communicator {
        let n = machine.num_cores();
        let m = Arc::new(machine);
        let binding = policy.bind(&m, n).unwrap();
        Communicator::world(m, binding)
    }

    #[test]
    fn zoot_collapses_to_linear_for_large_messages() {
        let c = comm(machines::zoot(), BindingPolicy::Contiguous);
        let coll = AdaptiveColl;
        assert_eq!(coll.bcast_topology_choice(&c, 8 << 20), BcastTopology::Collapsed);
        assert_eq!(coll.bcast_topology_choice(&c, 8 << 10), BcastTopology::Hierarchical);
        let tree = coll.bcast_tree(&c, 0, BcastTopology::Collapsed);
        assert_eq!(tree.depth(), 1, "every rank hangs off the root:\n{}", tree.render());
        let hier = coll.bcast_tree(&c, 0, BcastTopology::Hierarchical);
        assert!(hier.depth() > 1);
    }

    #[test]
    fn ig_is_unaffected_by_collapsing() {
        // IG's classes are {1, 5, 6}: no 2/3 structure to collapse.
        let c = comm(machines::ig(), BindingPolicy::CrossSocket);
        let coll = AdaptiveColl;
        assert_eq!(coll.bcast_topology_choice(&c, 8 << 20), BcastTopology::Hierarchical);
        let a = coll.bcast_tree(&c, 0, BcastTopology::Hierarchical);
        let b = coll.bcast_tree(&c, 0, BcastTopology::Collapsed);
        assert_eq!(a, b);
    }

    #[test]
    fn collapse_preserves_cross_mc_classes() {
        let c = comm(machines::zoot(), BindingPolicy::Contiguous);
        let collapsed = collapse_intra_mc(&c.distances_arc());
        assert_eq!(collapsed.classes(), vec![1]);
        let ig = comm(machines::ig(), BindingPolicy::Contiguous);
        let collapsed_ig = collapse_intra_mc(&ig.distances_arc());
        assert_eq!(collapsed_ig.classes(), vec![1, 5, 6]);
    }

    #[test]
    fn adaptive_bcast_and_allgather_are_correct_everywhere() {
        let coll = AdaptiveColl;
        for machine in machines::all_predefined() {
            for policy in [BindingPolicy::Contiguous, BindingPolicy::Random { seed: 4 }] {
                let c = comm(machine.clone(), policy);
                let s = coll.bcast(&c, 0, 100_000);
                verify::run(Request::new(Collective::Bcast, 0, 100_000), &s)
                    .unwrap_or_else(|e| panic!("{}: {e}", machine.name));
                let s = coll.allgather(&c, 3000);
                verify::run(Request::new(Collective::Allgather, 0, 3000), &s)
                    .unwrap_or_else(|e| panic!("{}: {e}", machine.name));
            }
        }
    }

    #[test]
    fn schedule_names_reflect_choices() {
        let c = comm(machines::zoot(), BindingPolicy::Contiguous);
        let coll = AdaptiveColl;
        assert!(coll.bcast(&c, 0, 1 << 20).name.contains("linearized"));
        assert!(coll.bcast(&c, 0, 1 << 10).name.contains("hier"));
        assert_eq!(coll.allgather(&c, 64).name, "knemcoll-allgather");
    }

    #[test]
    fn cached_topologies_match_fresh_builds() {
        let cache = TopoCache::new();
        let coll = AdaptiveColl;
        for machine in machines::all_predefined() {
            let c = comm(machine.clone(), BindingPolicy::Random { seed: 13 });
            for topo in [BcastTopology::Hierarchical, BcastTopology::Collapsed] {
                let cached = coll.bcast_tree_cached(&cache, &c, 0, topo);
                assert_eq!(*cached, coll.bcast_tree(&c, 0, topo), "{}", machine.name);
                let again = coll.bcast_tree_cached(&cache, &c, 0, topo);
                assert!(Arc::ptr_eq(&cached, &again), "second call hits");
            }
            let ring = coll.allgather_ring_cached(&cache, &c);
            assert_eq!(*ring, coll.allgather_ring(&c), "{}", machine.name);
            let ring_again = coll.allgather_ring_cached(&cache, &c);
            assert!(Arc::ptr_eq(&ring, &ring_again), "second call hits");
        }
        let s = cache.stats();
        assert_eq!(s.hits, s.misses, "every entry was built once and hit once");
    }

    #[test]
    fn dup_shares_the_epoch_and_hits_a_subset_misses() {
        let cache = TopoCache::new();
        let coll = AdaptiveColl;
        let c = comm(machines::ig(), BindingPolicy::CrossSocket);
        coll.bcast_cached(&cache, &c, 0, 1 << 10);
        let before = cache.stats();
        coll.bcast_cached(&cache, &c.dup(), 0, 1 << 10);
        assert_eq!(cache.stats().hits, before.hits + 1);
        coll.bcast_cached(&cache, &c.subset(&(0..8).collect::<Vec<_>>()), 0, 1 << 10);
        assert_eq!(cache.stats().misses, before.misses + 1);
    }

    #[test]
    fn collective_labels_round_trip_through_from_str() {
        for c in Collective::ALL {
            assert_eq!(c.label().parse::<Collective>(), Ok(c));
        }
        let err = "broadcast".parse::<Collective>().unwrap_err();
        assert!(err.contains("reduce_scatter"), "the error lists the labels: {err}");
    }

    #[test]
    fn ring_allreduce_is_chosen_for_large_evenly_split_payloads_only() {
        let c = comm(machines::zoot(), BindingPolicy::Contiguous); // 16 ranks
        let choice = |bytes, op| AdaptiveColl::allreduce_algorithm_choice(&c, bytes, op);
        assert_eq!(choice(RING_ALLREDUCE_MIN_BYTES, DataOp::SumF64), AllreduceAlgo::Ring);
        assert_eq!(choice(RING_ALLREDUCE_MIN_BYTES - 16, DataOp::SumF64), AllreduceAlgo::Tree);
        assert_eq!(choice((1 << 20) + 8, DataOp::SumF64), AllreduceAlgo::Tree, "uneven split");
        assert_eq!(
            choice(16 * (1 << 14) + 64, DataOp::SumF64),
            AllreduceAlgo::Tree,
            "block not lane-aligned"
        );
        assert_eq!(choice(16 * (1 << 14) + 64, DataOp::Add), AllreduceAlgo::Ring);
    }

    #[test]
    fn tree_allreduce_pipelines_large_payloads() {
        let coll = AdaptiveColl;
        let c = comm(machines::zoot(), BindingPolicy::Contiguous);
        let plan =
            |bytes| coll.plan(&c, Request::new(Collective::Allreduce, 0, bytes), Sinks::default());
        assert!(plan(1 << 20).num_copies() > plan(1024).num_copies(), "chunked broadcast phase");
    }

    #[test]
    fn explained_provenance_names_every_decision_kind() {
        use crate::provenance::DecisionKind;
        let c = comm(machines::zoot(), BindingPolicy::Contiguous);
        let coll = AdaptiveColl;
        let (_, p) = coll.bcast_explained(None, &c, 0, 1 << 20);
        let of = |kind| p.decisions.iter().filter(move |d| d.kind == kind);
        assert_eq!(of(DecisionKind::Algorithm).count(), 1);
        let topo = of(DecisionKind::Topology).next().unwrap();
        assert_eq!(topo.choice, "Collapsed");
        assert_eq!(topo.input("collapse_threshold"), Some("16384"));
        assert!(of(DecisionKind::DistanceClass).next().is_some());
        assert!(of(DecisionKind::ChunkClass).next().is_some());
        assert_eq!(of(DecisionKind::CacheLookup).next().unwrap().choice, "uncached build");
        for d in &p.decisions {
            assert!(!d.reason.is_empty(), "{:?} has a reason", d.subject);
            assert!(!d.inputs.is_empty(), "{:?} names its inputs", d.subject);
        }
        // Every distance class present among tree edges gets a chunk ruling.
        for collective in Collective::ALL {
            let mut prov = Provenance::default();
            let sinks = Sinks { cache: None, provenance: Some(&mut prov) };
            coll.plan(&c, Request::new(collective, 0, 512), sinks);
            let subject = format!("[algorithm] {} algorithm", collective.label());
            assert!(prov.explain().contains(&subject), "{}", prov.explain());
        }
    }

    #[test]
    fn migration_diff_pinpoints_moved_inputs() {
        // "Migration": the same job lands on a different binding — fresh
        // epoch, different distance profile, different topology ruling.
        let coll = AdaptiveColl;
        let before = comm(machines::zoot(), BindingPolicy::Contiguous);
        let after = comm(machines::ig(), BindingPolicy::CrossSocket);
        let (_, p_before) = coll.bcast_explained(None, &before, 0, 1 << 20);
        let (_, p_after) = coll.bcast_explained(None, &after, 0, 1 << 20);
        let text = pdac_telemetry::diff::diff(&p_before.flat(), &p_after.flat());
        let row = |key: &str| {
            text.lines()
                .find(|l| l.trim_start().starts_with(&format!("{key} ")))
                .unwrap_or_else(|| panic!("no `{key}` row in\n{text}"))
        };
        assert!(row("[topology] bcast topology").contains("Collapsed -> Hierarchical"));
        // The moved input (distance classes) is identified, and so is the
        // epoch the second plan was built under.
        row("[topology] bcast topology: classes");
        row("[cache] topocache bcast root 0: epoch");
    }
}
