//! Graceful degradation after rank failure.
//!
//! The paper's framework rebuilds its collective topology whenever the
//! communicator changes; failure recovery is the same machinery under a
//! harsher trigger. When a rank is detected dead, the [`RecoveryManager`]:
//!
//! 1. shrinks the communicator to the survivors
//!    ([`pdac_mpisim::Communicator::without_ranks`]), which mints a fresh
//!    epoch;
//! 2. invalidates every [`TopoCache`] entry of the dead epoch — a stale
//!    tree routed through the dead rank must never be served again;
//! 3. re-elects the root by the paper's set-leader rule (the preferred
//!    leader if it survived, otherwise the smallest surviving rank);
//! 4. rebuilds the broadcast tree / allgather ring over the survivors on
//!    the next schedule request.
//!
//! [`RecoveryManager::run`] is the one loop that drives this from
//! observations alone — it never consults the fault plan to decide who
//! died. Each attempt runs the collective on the calling thread with a
//! fresh [`FailureDetector`], and what the attempt returns decides the
//! next step:
//!
//! 1. **detect** — the detector turns op completions into heartbeats,
//!    overlong waits into suspicions, and the join audit into confirmed
//!    deaths; a persistent corrupter ([`ExecError::Corrupt`]) is confirmed
//!    like a crashed rank;
//! 2. **shrink** — the communicator loses exactly the detector's confirmed
//!    ranks, in ascending order ([`RecoveryManager::mark_failed`] each). The
//!    detector is the attempt's one view of who died: every rank cursor
//!    reported into it, so there is nothing left for the survivors to
//!    reconcile. A rank that is only suspected stays a member;
//! 3. **fence** — the shared device is fenced at the new epoch, so a
//!    message stamped with a dead epoch is rejected with a typed
//!    stale-epoch error instead of delivering into the rebuilt topology;
//! 4. **rebuild or degrade** — the next attempt plans over the survivors;
//!    once recovery churns past [`ChaosConfig::max_recoveries`], or one
//!    survivor is left, the manager falls back to the distance-oblivious
//!    `core/baseline` algorithms ([`RecoveryManager::degraded`]).
//!
//! A transient timeout (nobody proven dead) or an exhausted device retry
//! budget re-runs the attempt on the same communicator. Every failure path
//! returns a typed [`CollectiveError`] carrying the fault seed, so a run
//! that goes wrong can be replayed exactly.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pdac_mpisim::{
    Communicator, ExecError, ExecResult, FailureDetector, P2pConfig, ThreadExecutor, Transport,
};
use pdac_simnet::{DataOp, FaultPlan, FaultStats, Schedule};

use crate::adaptive::{AdaptiveColl, AllreduceAlgo, Collective, Request, Sinks};
use crate::baseline;
use crate::chaos::ChaosConfig;
use crate::decision_inputs;
use crate::edges::Edge;
use crate::provenance::{Decision, DecisionKind};
use crate::sched::{allreduce_schedule_with_op, SchedConfig};
use crate::topocache::TopoCache;
use crate::tree::Tree;
use crate::verify::pattern;

/// Why a collective could not be completed (or could not even be
/// attempted). Every variant carries the fault seed when one is known, so
/// failure messages are replayable.
#[derive(Debug)]
pub enum CollectiveError {
    /// Every rank of the communicator has failed; there is no survivor set
    /// to rebuild over.
    AllRanksFailed {
        /// Fault seed of the run, if any.
        seed: Option<u64>,
    },
    /// A rank outside the current survivor set was named (already marked
    /// failed, or never existed).
    UnknownRank {
        /// The offending world rank.
        rank: usize,
        /// Number of ranks the original communicator had.
        world_size: usize,
    },
    /// The executor failed in a way recovery does not handle (e.g. an
    /// invalid schedule, or a permanent device failure that survived the
    /// retry budget and a rebuild).
    Exec {
        /// Fault seed of the run, if any.
        seed: Option<u64>,
        /// The underlying executor error.
        err: ExecError,
    },
    /// A bound on the recovery loop ran out before the collective
    /// completed. This variant existing is the point — a chaos test that
    /// would have hung reports this instead.
    Hang {
        /// Fault seed of the run, if any.
        seed: Option<u64>,
        /// The bound that ran out.
        bound: HangBound,
    },
    /// The collective "completed" but the payload failed semantic
    /// verification on the survivors.
    Verify {
        /// Fault seed of the run, if any.
        seed: Option<u64>,
        /// Human-readable mismatch description.
        detail: String,
    },
}

impl std::fmt::Display for CollectiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let seed = |s: &Option<u64>| match s {
            Some(v) => format!(" (fault seed {v})"),
            None => String::new(),
        };
        match self {
            CollectiveError::AllRanksFailed { seed: s } => {
                write!(f, "all ranks failed{}", seed(s))
            }
            CollectiveError::UnknownRank { rank, world_size } => {
                write!(f, "rank {rank} is not a live rank of a {world_size}-rank world")
            }
            CollectiveError::Exec { seed: s, err } => {
                write!(f, "unrecoverable execution failure{}: {err}", seed(s))
            }
            CollectiveError::Hang { seed: s, bound: HangBound::Watchdog(watchdog) } => {
                write!(f, "collective hung past the {watchdog:?} watchdog{}", seed(s))
            }
            CollectiveError::Hang { seed: s, bound: HangBound::Attempts(attempts) } => {
                let s = seed(s);
                write!(f, "collective hung: {attempts} attempts ran out without completing{s}")
            }
            CollectiveError::Verify { seed: s, detail } => {
                write!(f, "survivor verification failed{}: {detail}", seed(s))
            }
        }
    }
}

impl std::error::Error for CollectiveError {}

/// Which bound of [`RecoveryManager::run`] a [`CollectiveError::Hang`] ran
/// out of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HangBound {
    /// One attempt took longer than [`ChaosConfig::watchdog`].
    Watchdog(Duration),
    /// Every attempt the loop allows — one per world rank plus four — ended
    /// without the collective completing: the episode is livelocked.
    Attempts(u32),
}

/// The distance-oblivious baselines degraded mode runs on. They need only
/// the live rank list, not a distance matrix. [`Baseline::of`] is the one
/// statement of which collectives
/// [`RecoveryManager::run`] can drive.
#[derive(Debug, Clone, Copy)]
enum Baseline {
    BinomialBcast,
    RingAllgather,
    BinomialTreeAllreduce,
}

impl Baseline {
    /// The baseline `what` degrades to: bcast, allgather and byte-sum tree
    /// allreduce have one.
    fn of(what: Request) -> Option<Self> {
        match what {
            Request { collective: Collective::Bcast, .. } => Some(Baseline::BinomialBcast),
            Request { collective: Collective::Allgather, .. } => Some(Baseline::RingAllgather),
            Request {
                collective: Collective::Allreduce,
                op: DataOp::Add,
                allreduce: AllreduceAlgo::Tree,
                ..
            } => Some(Baseline::BinomialTreeAllreduce),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Baseline::BinomialBcast => "baseline binomial bcast",
            Baseline::RingAllgather => "baseline ring allgather",
            Baseline::BinomialTreeAllreduce => "binomial-tree allreduce",
        }
    }

    fn build(self, mgr: &RecoveryManager, what: Request) -> Schedule {
        let (n, bytes, p2p) = (mgr.comm.size(), what.bytes, P2pConfig::default());
        match self {
            Baseline::BinomialBcast => {
                baseline::bcast::binomial(n, mgr.elect_root(what.root), bytes, &p2p)
            }
            Baseline::RingAllgather => baseline::allgather::ring(n, bytes, &p2p),
            Baseline::BinomialTreeAllreduce => {
                let tree = binomial_tree(n, mgr.elect_root(what.root));
                allreduce_schedule_with_op(&tree, bytes, &SchedConfig::default(), DataOp::Add)
            }
        }
    }
}

/// Rank-order binomial tree rooted at `root` — the distance-oblivious
/// shape degraded allreduce runs on (baseline has no allreduce builder).
fn binomial_tree(n: usize, root: usize) -> Tree {
    let edges: Vec<Edge> = (1..n)
        .map(|i| {
            let child = (root + i) % n;
            let parent = (root + (i & (i - 1))) % n;
            Edge { u: parent.min(child), v: parent.max(child), w: 0 }
        })
        .collect();
    Tree::from_edges(n, root, &edges)
}

/// What [`RecoveryManager::run`] completed with.
#[derive(Debug)]
pub struct Completion {
    /// The schedule the final attempt ran over the survivors — the
    /// degraded baseline once [`RecoveryManager::degraded`].
    pub schedule: Schedule,
    /// The final attempt's buffers and accounting; `None` when a lone
    /// survivor had no collective left to run.
    pub result: Option<ExecResult>,
}

/// Tracks failures against one communicator and rebuilds collective
/// topology over the survivors.
#[derive(Debug)]
pub struct RecoveryManager {
    cache: Arc<TopoCache>,
    comm: Communicator,
    world_size: usize,
    /// `world_of[r]` = the original (world) rank of current rank `r`.
    world_of: Vec<usize>,
    /// World ranks marked failed, in detection order.
    failed: Vec<usize>,
    stats: FaultStats,
    /// Whether [`Self::run`] fell back to the baseline algorithms.
    degraded: bool,
    /// Provenance log of recovery decisions (membership shrinks, root
    /// re-elections, degraded substitutions), in the order they were made.
    /// A `Mutex` because root election happens behind `&self`.
    decisions: Mutex<Vec<Decision>>,
}

impl RecoveryManager {
    /// A manager over `comm` with no failures yet.
    pub fn new(cache: Arc<TopoCache>, comm: Communicator) -> Self {
        let world_size = comm.size();
        RecoveryManager {
            cache,
            comm,
            world_size,
            world_of: (0..world_size).collect(),
            failed: Vec::new(),
            stats: FaultStats::default(),
            degraded: false,
            decisions: Mutex::new(Vec::new()),
        }
    }

    /// Recovery decisions recorded so far (membership shrinks, root
    /// re-elections, degraded substitutions), in the order they were made
    /// — ready to merge into a plan's [`crate::Provenance`].
    pub fn decisions(&self) -> Vec<Decision> {
        self.decisions.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    fn record(&self, d: Decision) {
        self.decisions.lock().unwrap_or_else(|p| p.into_inner()).push(d);
    }

    /// The current (possibly shrunk) communicator.
    pub fn comm(&self) -> &Communicator {
        &self.comm
    }

    /// World ranks still alive, in rank order of the current communicator.
    pub fn survivors(&self) -> &[usize] {
        &self.world_of
    }

    /// World ranks marked failed, in detection order.
    pub fn failed(&self) -> &[usize] {
        &self.failed
    }

    /// Recovery accounting: the executor record of every attempt
    /// [`Self::run`] made (failed attempts included), the detector's
    /// transitions, topology rebuilds, degradations, and
    /// the loop's re-runs after a transient timeout.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Adds `n` to one field of [`Self::stats`] and to the registry counter
    /// `name` — the one path every count the manager makes itself takes,
    /// so the record and the registry cannot disagree.
    fn count(&mut self, name: &str, field: fn(&mut FaultStats) -> &mut u64, n: u64) {
        *field(&mut self.stats) += n;
        pdac_telemetry::global().registry().add(name, n);
    }

    /// Whether [`Self::run`] fell back to the distance-oblivious baselines
    /// (recovery churn, or a lone survivor).
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Current rank of world rank `world`, if it is still alive.
    pub fn current_rank_of(&self, world: usize) -> Option<usize> {
        self.world_of.iter().position(|&w| w == world)
    }

    /// Marks `world` failed: invalidates every cached topology of the dead
    /// epoch and shrinks the communicator to the survivors (minting a
    /// fresh epoch, under which the next schedule request rebuilds).
    pub fn mark_failed(&mut self, world: usize) -> Result<(), CollectiveError> {
        let Some(current) = self.current_rank_of(world) else {
            return Err(CollectiveError::UnknownRank { rank: world, world_size: self.world_size });
        };
        if self.comm.size() == 1 {
            return Err(CollectiveError::AllRanksFailed { seed: None });
        }
        let telemetry = pdac_telemetry::global();
        let _span = telemetry.recorder().span(
            world as u64,
            "recovery",
            || format!("rank_failed {world} -> rebuild"),
            || {
                vec![
                    ("world_rank", world.into()),
                    ("survivors", (self.comm.size() - 1).into()),
                    ("dead_epoch", self.comm.epoch().into()),
                ]
            },
        );
        let dead_epoch = self.comm.epoch();
        self.cache.invalidate_epoch(dead_epoch);
        let (shrunk, map) = self.comm.without_ranks(&[current]);
        self.world_of = map.into_iter().map(|old| self.world_of[old]).collect();
        self.comm = shrunk;
        self.failed.push(world);
        self.count("recovery.topology_rebuilds", |s| &mut s.topology_rebuilds, 1);
        self.record(Decision::new(
            DecisionKind::Recovery,
            format!("membership world rank {world}"),
            format!("shrink to {} survivors", self.comm.size()),
            "world rank marked failed: cached topologies of the dead epoch were \
             invalidated and the communicator rebuilt under a fresh epoch",
            decision_inputs![
                ("failed_world_rank", world),
                ("survivors", self.comm.size()),
                ("dead_epoch", dead_epoch),
                ("new_epoch", self.comm.epoch()),
            ],
        ));
        Ok(())
    }

    /// Current communicator epoch — the fence value after a shrink.
    pub fn epoch(&self) -> u64 {
        self.comm.epoch()
    }

    /// Root re-election by the set-leader rule: the preferred world rank if
    /// it survived, otherwise the smallest surviving world rank. Returns a
    /// rank of the *current* communicator.
    pub fn elect_root(&self, preferred_world: usize) -> usize {
        // Survivors preserve world order, so the smallest surviving world
        // rank sits at current rank 0.
        let root = self.current_rank_of(preferred_world).unwrap_or(0);
        if self.current_rank_of(preferred_world).is_none() {
            pdac_telemetry::global().recorder().instant(
                preferred_world as u64,
                "recovery",
                || format!("reelect root: {preferred_world} dead -> world {}", self.world_of[root]),
                || vec![("preferred", preferred_world.into()), ("elected", root.into())],
            );
            self.record(Decision::new(
                DecisionKind::Recovery,
                "root election",
                format!("world rank {}", self.world_of[root]),
                "preferred root is dead; the set-leader rule elects the smallest \
                 surviving world rank",
                decision_inputs![
                    ("preferred_world_rank", preferred_world),
                    ("elected_world_rank", self.world_of[root]),
                    ("elected_current_rank", root),
                    ("epoch", self.comm.epoch()),
                ],
            ));
        }
        root
    }

    /// Plans `request` over the survivors. The request's root is the
    /// *preferred* root as a world rank; [`Self::elect_root`] substitutes
    /// the elected leader. Topology comes from the epoch-keyed cache.
    pub fn plan(&self, mut request: Request) -> Schedule {
        if request.collective.is_rooted() {
            request.root = self.elect_root(request.root);
        }
        AdaptiveColl.plan(&self.comm, request, Sinks::cached(&self.cache))
    }

    /// Runs `what` to completion on the survivors under `faults` (world
    /// ranks), every attempt on the shared `device`: attempt, classify the
    /// error, shrink by the confirmed deaths, fence, remap the plan, then
    /// retry or degrade (see the module docs). `what` must be a bcast, an
    /// allgather or a byte-sum tree allreduce — the collectives with a
    /// degraded baseline; its root is the *preferred* world rank,
    /// re-elected if it dies.
    ///
    /// `cfg` supplies the seed quoted in every error, the executor's retry
    /// policy, the watchdog each attempt must finish within and the
    /// recovery budget. Every counter lands in [`Self::stats`].
    pub fn run(
        &mut self,
        what: Request,
        faults: &FaultPlan,
        device: &Arc<dyn Transport>,
        cfg: &ChaosConfig,
    ) -> Result<Completion, CollectiveError> {
        let baseline = Baseline::of(what).unwrap_or_else(|| {
            panic!(
                "recovery has degraded baselines only for bcast, allgather and byte-sum tree \
                 allreduce, not {what:?}"
            )
        });
        let seed = Some(cfg.seed);
        let telemetry = pdac_telemetry::global();
        let suspect_after = cfg
            .policy
            .op_deadline
            .map_or(Duration::from_millis(20), |d| (d / 5).max(Duration::from_millis(1)));
        // Generous bound: every rank dying one-by-one plus transient
        // retries. Running out means the episode is livelocked.
        let max_attempts = self.comm.size() as u32 + 4;
        let mut attempt_faults = Some(faults.clone());
        let mut recoveries = 0u32;
        for _ in 0..max_attempts {
            if self.comm.size() == 1 {
                // Lone survivor: there is no collective left to run.
                // Degraded by definition — the caller keeps its own data.
                let reason = "lone survivor: no peers remain to run a collective with";
                self.degrade(baseline, reason, recoveries, cfg);
                return Ok(Completion { schedule: baseline.build(self, what), result: None });
            }
            let schedule = if self.degraded { baseline.build(self, what) } else { self.plan(what) };
            let detector =
                Arc::new(FailureDetector::with_suspect_after(self.comm.size(), suspect_after));
            let mut exec = ThreadExecutor::with_transport(Arc::clone(device))
                .with_policy(cfg.policy)
                .with_detector(Arc::clone(&detector))
                .with_epoch(self.epoch());
            if let Some(plan) = attempt_faults.take() {
                exec = exec.with_faults(plan);
            }
            let started = Instant::now();
            let outcome = exec.run(&schedule, pattern);
            if started.elapsed() > cfg.watchdog {
                let bound = HangBound::Watchdog(cfg.watchdog);
                return Err(CollectiveError::Hang { seed, bound });
            }

            // Decide what the attempt means — from observations only. A
            // crashed leaf has no dependents, so the run can complete while
            // the join audit still proves a member died; a dropped
            // notification times a dependent out without anyone being dead.
            let record = match &outcome {
                Ok(res) => res.fault_stats,
                Err(err) => err.fault_stats(),
            };
            self.stats.merge(&record);
            let confirmed = match &outcome {
                Ok(_) | Err(ExecError::Timeout { .. }) => detector.confirmed(),
                Err(ExecError::Corrupt { peer, .. }) => {
                    // Every re-transmit from `peer` failed verification:
                    // the source is poisoned, not the link. Confirm it dead
                    // so it is fenced exactly like a crashed rank.
                    let n = u64::from(detector.confirm(*peer));
                    self.count("faults.ranks_confirmed_dead", |s| &mut s.ranks_confirmed_dead, n);
                    detector.confirmed()
                }
                Err(_) => Vec::new(),
            };
            if confirmed.is_empty() {
                match outcome {
                    Ok(res) => return Ok(Completion { schedule, result: Some(res) }),
                    // Nobody is proven dead: the timeout was transient
                    // (dropped notification, stall past the deadline), or
                    // the device fault's transient window heals with
                    // attempts. Re-run on the same communicator.
                    Err(ExecError::Timeout { .. }) => {
                        self.count("faults.retries", |s| &mut s.retries, 1);
                    }
                    Err(ExecError::Knem { .. }) => {}
                    Err(err) => return Err(CollectiveError::Exec { seed, err }),
                }
                continue;
            }

            // Deaths were observed: shrink by exactly what the detector
            // confirmed, ascending.
            let world_confirmed: Vec<usize> = confirmed.iter().map(|&r| self.world_of[r]).collect();
            telemetry.recorder().instant(
                0,
                "chaos",
                || format!("detector confirmed dead world ranks {world_confirmed:?}"),
                || vec![("confirmed", world_confirmed.len().into()), ("seed", cfg.seed.into())],
            );
            recoveries += 1;
            if recoveries > cfg.max_recoveries {
                // Past the churn bound: stop rebuilding distance-aware
                // topologies.
                let reason = "recovery churn exceeded the max_recoveries budget; \
                              coordinated rebuilds are no longer trusted";
                self.degrade(baseline, reason, recoveries, cfg);
            }
            self.shrink(&world_confirmed)?;
            // Fence the dead epochs: a message still stamped with one is
            // rejected by the device rather than delivered into the rebuilt
            // topology.
            device.fence_epochs_below(self.epoch());
            // Re-inject the survivors' faults in the shrunk rank space, so a
            // crash whose budget never fired (its rank was blocked when the
            // attempt died) still fires on a later attempt: cascading
            // crashes keep cascading.
            let next = faults.remap(self.survivors());
            attempt_faults = (!next.is_empty()).then_some(next);
        }
        Err(CollectiveError::Hang { seed, bound: HangBound::Attempts(max_attempts) })
    }

    /// The one degrade transition: from here on [`Self::run`] plans with
    /// `baseline`. Counted and recorded, with `reason`, the first time only.
    fn degrade(
        &mut self,
        baseline: Baseline,
        reason: impl Into<String>,
        recoveries: u32,
        cfg: &ChaosConfig,
    ) {
        if std::mem::replace(&mut self.degraded, true) {
            return;
        }
        self.count("chaos.degraded", |s| &mut s.degraded_runs, 1);
        self.record(Decision::new(
            DecisionKind::Recovery,
            "degraded substitution",
            baseline.name(),
            reason,
            decision_inputs![
                ("seed", cfg.seed),
                ("recoveries", recoveries),
                ("max_recoveries", cfg.max_recoveries),
                ("survivors", self.comm.size()),
            ],
        ));
    }

    /// The one shrink of [`Self::run`]: marks `world_dead` failed, one
    /// [`Self::mark_failed`] per rank in the order given, and counts the
    /// recovery.
    fn shrink(&mut self, world_dead: &[usize]) -> Result<(), CollectiveError> {
        for &world in world_dead {
            self.mark_failed(world)?;
        }
        pdac_telemetry::global().registry().add("chaos.recoveries", 1);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::Collective;
    use crate::verify;
    use pdac_hwtopo::{machines, BindingPolicy};

    fn manager(n: usize) -> RecoveryManager {
        let m = Arc::new(machines::flat_smp(n));
        let binding = BindingPolicy::Contiguous.bind(&m, n).unwrap();
        let comm = Communicator::world(m, binding);
        RecoveryManager::new(Arc::new(TopoCache::new()), comm)
    }

    #[test]
    fn mark_failed_shrinks_and_remaps() {
        let mut mgr = manager(8);
        mgr.mark_failed(3).unwrap();
        assert_eq!(mgr.survivors(), &[0, 1, 2, 4, 5, 6, 7]);
        assert_eq!(mgr.comm().size(), 7);
        mgr.mark_failed(0).unwrap();
        assert_eq!(mgr.survivors(), &[1, 2, 4, 5, 6, 7]);
        assert_eq!(mgr.failed(), &[3, 0]);
        assert_eq!(mgr.stats().topology_rebuilds, 2);
        // A dead rank cannot die twice.
        assert!(matches!(mgr.mark_failed(3), Err(CollectiveError::UnknownRank { rank: 3, .. })));
    }

    #[test]
    fn leader_reelection_follows_set_leader_rule() {
        let mut mgr = manager(6);
        assert_eq!(mgr.elect_root(2), 2, "alive preferred leader keeps the role");
        mgr.mark_failed(2).unwrap();
        assert_eq!(mgr.elect_root(2), 0, "smallest surviving world rank takes over");
        mgr.mark_failed(0).unwrap();
        assert_eq!(mgr.survivors()[mgr.elect_root(0)], 1);
        assert_eq!(mgr.elect_root(4), mgr.current_rank_of(4).unwrap());
    }

    #[test]
    fn collectives_over_survivors_verify() {
        let mut mgr = manager(8);
        mgr.mark_failed(5).unwrap();
        mgr.mark_failed(0).unwrap();
        let s = mgr.plan(Request::new(Collective::Bcast, 0, 20_000));
        assert_eq!(s.num_ranks, 6);
        verify::run(Request::new(Collective::Bcast, mgr.elect_root(0), 20_000), &s).unwrap();
        let s = mgr.plan(Request::new(Collective::Allgather, 0, 1024));
        verify::run(Request::new(Collective::Allgather, 0, 1024), &s).unwrap();
        let s = mgr.plan(Request::new(Collective::Allreduce, 0, 4096));
        verify::run(Request::new(Collective::Allreduce, 0, 4096), &s).unwrap();
    }

    #[test]
    fn cache_never_serves_a_dead_epoch() {
        let mut mgr = manager(8);
        // Warm the cache for the full communicator.
        let _ = mgr.plan(Request::new(Collective::Bcast, 0, 10_000));
        let before = mgr.cache.stats();
        assert_eq!(before.misses, 1);
        mgr.mark_failed(1).unwrap();
        assert!(mgr.cache.stats().invalidations >= 1, "dead epoch was purged");
        // The rebuilt topology is a fresh miss under the new epoch, and it
        // spans only the survivors.
        let s = mgr.plan(Request::new(Collective::Bcast, 0, 10_000));
        assert_eq!(s.num_ranks, 7);
        assert_eq!(mgr.cache.stats().misses, before.misses + 1);
    }

    #[test]
    fn all_but_one_rank_can_fail() {
        let mut mgr = manager(5);
        for world in 1..5 {
            mgr.mark_failed(world).unwrap();
        }
        assert_eq!(mgr.comm().size(), 1);
        assert_eq!(mgr.survivors(), &[0]);
        assert_eq!(mgr.elect_root(3), 0, "the lone survivor is every root");
        assert_eq!(mgr.stats().topology_rebuilds, 4);
        // The very last rank cannot be shrunk away.
        assert!(matches!(mgr.mark_failed(0), Err(CollectiveError::AllRanksFailed { .. })));
        assert_eq!(mgr.comm().size(), 1, "a refused shrink leaves the communicator");
    }

    #[test]
    fn repeated_root_death_keeps_epochs_monotone_and_election_deterministic() {
        let mut mgr = manager(6);
        let mut last_epoch = mgr.epoch();
        // Kill the current leader four times in a row; each shrink must
        // mint a strictly larger fencing epoch and re-elect the smallest
        // surviving world rank.
        for round in 0..4 {
            let root_world = mgr.survivors()[mgr.elect_root(0)];
            assert_eq!(root_world, round, "leader election is rank-order deterministic");
            mgr.mark_failed(root_world).unwrap();
            assert!(mgr.epoch() > last_epoch, "fencing epoch is strictly monotone");
            last_epoch = mgr.epoch();
            assert_eq!(mgr.failed().last().copied(), Some(root_world));
        }
        assert_eq!(mgr.survivors(), &[4, 5]);
        // Replaying the same deaths on a fresh manager lands on the same
        // survivor set and the same leader (epochs are global, so only the
        // group — not the epoch value — must match).
        let mut replay = manager(6);
        for _ in 0..4 {
            let root_world = replay.survivors()[replay.elect_root(0)];
            replay.mark_failed(root_world).unwrap();
        }
        assert_eq!(replay.survivors(), mgr.survivors());
        assert_eq!(replay.elect_root(0), mgr.elect_root(0));
        assert_eq!(replay.failed(), mgr.failed());
    }

    #[test]
    fn degraded_allreduce_binomial_tree_is_well_formed() {
        for n in [2, 3, 5, 8] {
            for root in 0..n {
                let t = binomial_tree(n, root);
                assert_eq!(t.root, root);
                assert_eq!(t.len(), n);
            }
        }
    }

    #[test]
    fn a_rank_that_is_only_suspected_is_never_shrunk() {
        // Rank 3 crashes before its first op; rank 1 holds off every op
        // past the suspicion window (a fifth of the op deadline) but well
        // inside the deadline. The run shrinks by the confirmed crash only:
        // the stalled rank's suspicion is refuted by its completions.
        let mut mgr = manager(4);
        let mut cfg = ChaosConfig::new(9);
        cfg.policy.op_deadline = Some(Duration::from_millis(500));
        let faults = FaultPlan::new(9).crash_rank(3, 0).stall_rank(1, Duration::from_millis(250));
        let what = Request::new(Collective::Allgather, 0, 1024);
        let done = mgr.run(what, &faults, &pdac_mpisim::TransportKind::Knem.create(None), &cfg);
        let done = done.unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(mgr.failed(), &[3]);
        assert_eq!(mgr.survivors(), &[0, 1, 2]);
        assert!(!mgr.degraded());
        assert!(mgr.stats().suspects_refuted >= 1, "a live rank was suspected: {:?}", mgr.stats());
        verify::check(what, 3, &done.result.expect("three survivors ran it")).unwrap();
    }
}
