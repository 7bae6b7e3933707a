//! Deterministic, seed-driven fault injection: the one fault vocabulary
//! both executors read.
//!
//! The paper's collectives assume a static, healthy machine; production
//! runtimes cannot. A [`FaultPlan`] is a list of [`Fault`]s owned by one
//! explicit `u64` seed, so every chaos run replays bit-identically from it —
//! there is no ambient entropy anywhere in a fault path. Once per run,
//! [`FaultPlan::resolve`] turns the plan into [`ResolvedFaults`] against the
//! schedule at hand: a stall and a crash budget per rank, a dropped flag and
//! a corruption per op. The engine here and the thread executor in
//! `pdac-mpisim` both read that table, so a fault means the same thing on
//! both legs (DESIGN §6). The module also holds the [`FaultStats`] record
//! threaded through [`crate::SimReport`] and the higher layers' results.

use std::time::Duration;

use crate::lower::Lowered;
use crate::resource::Resource;
use crate::schedule::{OpKind, Rank, Schedule, ScheduleError};

use rand::{rngs::StdRng, Rng, SeedableRng};

/// One injected fault. Ranks are ranks of the schedule the plan runs
/// against; a fault naming a rank outside it is inert.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Multiplies the capacity of one resource by `factor` (clamped to a
    /// tiny positive floor, so an extreme degrade models a partitioned
    /// link without producing infinite transfer times). The simulator's
    /// alone: the thread executor models no capacity.
    DegradeLink {
        /// The degraded resource.
        resource: Resource,
        /// Capacity multiplier in `(0, 1]`.
        factor: f64,
    },
    /// An extra `delay` before every op `rank` runs (an overloaded or
    /// descheduled process).
    StallRank {
        /// The stalled rank.
        rank: Rank,
        /// Extra delay per op.
        delay: Duration,
    },
    /// `rank` stops after starting `after_ops` ops; its remaining ops are
    /// abandoned and every dependent op waits on them forever.
    CrashRank {
        /// The crashing rank.
        rank: Rank,
        /// Ops the rank starts before dying.
        after_ops: u64,
    },
    /// The `nth` notify op of the schedule, in op-id order, runs but its
    /// completion is lost (a dropped KNEM out-of-band notification).
    DropNotify {
        /// Zero-based index among the schedule's notify ops.
        nth: u64,
    },
    /// Payload corruption: the first `attempts` attempts at every copy
    /// `target` names arrive with `kind` damage. The checksummed data path
    /// detects each one and re-transmits.
    Corrupt {
        /// The copies hit.
        target: CorruptTarget,
        /// The damage pattern.
        kind: CorruptionKind,
        /// Attempts poisoned per copy: 1 heals through one verified
        /// re-transmit; `u64::MAX` (a persistent corrupter) exhausts any
        /// retry budget and escalates.
        attempts: u64,
    },
}

impl Fault {
    /// The rank this fault names, if it names one.
    fn rank_mut(&mut self) -> Option<&mut Rank> {
        match self {
            Fault::StallRank { rank, .. } | Fault::CrashRank { rank, .. } => Some(rank),
            Fault::Corrupt { target, .. } => match target {
                CorruptTarget::Edge { rank, .. } | CorruptTarget::Source { rank } => Some(rank),
            },
            Fault::DegradeLink { .. } | Fault::DropNotify { .. } => None,
        }
    }
}

/// Where a payload-corruption fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptTarget {
    /// The `op_index`-th copy op in `rank`'s stream (0-based, op-id order),
    /// whatever its source — a transient fault on one specific transfer.
    Edge {
        /// The executing (pulling) rank.
        rank: Rank,
        /// Zero-based index among that rank's copy ops.
        op_index: u64,
    },
    /// Every copy whose source lives on `rank`. This models a persistent
    /// corrupter — bad DIMM, bad NIC — which the thread executor escalates
    /// into a typed error and the recovery layer fences.
    Source {
        /// The source rank whose outgoing chunks are corrupted.
        rank: Rank,
    },
}

/// The shapes payload corruption takes on the modeled wire. The thread
/// executor applies each to the staged chunk between stamp and verify, so
/// every one is detectable by construction; what differs is the damage
/// pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionKind {
    /// In-transit bit corruption: the eight little-endian bytes of `mask`
    /// are XORed into the chunk at a seed-derived offset (a flipped lane on
    /// the wire, a bad DMA burst).
    FlipBits {
        /// XOR pattern; a zero mask is promoted to `0xA5` so the fault
        /// never degenerates into a no-op.
        mask: u64,
    },
    /// A torn write: the tail half of the chunk is replaced with
    /// seed-derived garbage, as if the transfer committed only its first
    /// segments before the writer died.
    TornWrite,
    /// A stale read: the whole chunk is replaced with deterministic
    /// residue, as if a recycled pool buffer were served without being
    /// overwritten by the current operation.
    StaleRead,
}

/// Capacity multipliers are floored here so a "partition" stays a finite
/// (just absurdly slow) link.
pub const MIN_DEGRADE_FACTOR: f64 = 1e-9;

/// A reproducible set of faults, owned by one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// The seed this plan derives from — quoted by every failure message so
    /// any chaos run replays exactly.
    pub seed: u64,
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan carrying `seed` (faults added fluently).
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, faults: Vec::new() }
    }

    /// A randomized plan over `num_ranks` ranks: crashes one rank not in
    /// `exclude` after a small op budget, and stalls another. The same
    /// `(seed, num_ranks, exclude)` always yields the same plan.
    pub fn seeded(seed: u64, num_ranks: usize, exclude: &[Rank]) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new(seed);
        let candidates: Vec<Rank> = (0..num_ranks).filter(|r| !exclude.contains(r)).collect();
        if !candidates.is_empty() {
            let victim = candidates[rng.gen_range(0..candidates.len())];
            // Budget 0 or 1: ranks execute few ops in small collectives
            // (a bcast leaf performs a single pull), so larger budgets
            // would rarely fire at all.
            let after = rng.gen_range(0..2) as u64;
            plan = plan.crash_rank(victim, after);
            let others: Vec<Rank> = candidates.iter().copied().filter(|&r| r != victim).collect();
            if !others.is_empty() {
                let slow = others[rng.gen_range(0..others.len())];
                let micros = 50 * (1 + rng.gen_range(0..10) as u64);
                plan = plan.stall_rank(slow, Duration::from_micros(micros));
            }
        }
        plan
    }

    /// A harsher randomized plan: `1..=max_crashes` distinct ranks crash
    /// with *mid-collective* budgets (1–3 started ops each, so the victim
    /// participates before dying), one rank stalls, and — when the rank
    /// count allows — one rank *flaps*: a stall and a crash on the same
    /// rank, so it is suspected and refuted before every op until its crash
    /// budget fires and the detector confirms it. Reproducible for a given
    /// `(seed, num_ranks, max_crashes, exclude)`.
    pub fn seeded_cascade(
        seed: u64,
        num_ranks: usize,
        max_crashes: usize,
        exclude: &[Rank],
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x94d0_49bb_1331_11eb);
        let mut plan = FaultPlan::new(seed);
        let mut candidates: Vec<Rank> = (0..num_ranks).filter(|r| !exclude.contains(r)).collect();
        if candidates.is_empty() {
            return plan;
        }
        let crashes = 1 + rng.gen_range(0..max_crashes.max(1));
        for _ in 0..crashes {
            if candidates.len() <= 1 {
                // Always leave at least one non-excluded survivor so the
                // run can degrade rather than be vacuously dead.
                break;
            }
            let victim = candidates.remove(rng.gen_range(0..candidates.len()));
            let after = 1 + rng.gen_range(0..3) as u64;
            plan = plan.crash_rank(victim, after);
        }
        if candidates.len() > 1 {
            let slow = candidates[rng.gen_range(0..candidates.len())];
            let micros = 50 * (1 + rng.gen_range(0..10) as u64);
            plan = plan.stall_rank(slow, Duration::from_micros(micros));
        }
        if candidates.len() > 2 && rng.gen_range(0..2) == 1 {
            let flapper = candidates[rng.gen_range(0..candidates.len())];
            let micros = 20 * (1 + rng.gen_range(0..5) as u64);
            let budget = 2 + rng.gen_range(0..4) as u64;
            plan =
                plan.stall_rank(flapper, Duration::from_micros(micros)).crash_rank(flapper, budget);
        }
        plan
    }

    /// Adds 1–3 seed-derived *transient* corruption faults over
    /// `num_ranks` ranks: each targets one copy of one rank with a
    /// seed-chosen [`CorruptionKind`] and an attempt budget of 1, so every
    /// one heals through a single verified re-transmit. Reproducible for a
    /// given `(self.seed, num_ranks)`.
    pub fn with_seeded_corruption(mut self, num_ranks: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5bd1_e995_9e37_79b9);
        let count = 1 + rng.gen_range(0..3);
        for _ in 0..count {
            let rank = rng.gen_range(0..num_ranks.max(1));
            let op_index = rng.gen_range(0..4) as u64;
            let kind = match rng.gen_range(0..3) {
                0 => CorruptionKind::FlipBits { mask: rng.gen_range(1..usize::MAX) as u64 },
                1 => CorruptionKind::TornWrite,
                _ => CorruptionKind::StaleRead,
            };
            self = self.corrupt(CorruptTarget::Edge { rank, op_index }, kind, 1);
        }
        self
    }

    fn push(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Adds a link-degrade fault; `factor` is clamped into
    /// `[MIN_DEGRADE_FACTOR, 1]`.
    pub fn degrade_link(self, resource: Resource, factor: f64) -> Self {
        let factor = factor.clamp(MIN_DEGRADE_FACTOR, 1.0);
        self.push(Fault::DegradeLink { resource, factor })
    }

    /// Adds `delay` before every op `rank` runs.
    pub fn stall_rank(self, rank: Rank, delay: Duration) -> Self {
        self.push(Fault::StallRank { rank, delay })
    }

    /// Crashes `rank` once it has started `after_ops` ops — no completion,
    /// no poison; peers discover it by timing out.
    pub fn crash_rank(self, rank: Rank, after_ops: u64) -> Self {
        self.push(Fault::CrashRank { rank, after_ops })
    }

    /// Loses the completion of the `nth` notify op (op-id order).
    pub fn drop_notify(self, nth: u64) -> Self {
        self.push(Fault::DropNotify { nth })
    }

    /// Adds an arbitrary corruption fault (the general form behind the
    /// named builders).
    pub fn corrupt(self, target: CorruptTarget, kind: CorruptionKind, attempts: u64) -> Self {
        self.push(Fault::Corrupt { target, kind, attempts })
    }

    /// The `op_index`-th copy of `rank`'s stream arrives with `mask` XORed
    /// in (one attempt; the verified re-transmit heals it).
    pub fn flip_bits(self, rank: Rank, op_index: u64, mask: u64) -> Self {
        self.corrupt(CorruptTarget::Edge { rank, op_index }, CorruptionKind::FlipBits { mask }, 1)
    }

    /// The `op_index`-th copy of `rank`'s stream is torn: only its head
    /// half is committed, the tail is garbage (one attempt).
    pub fn torn_write(self, rank: Rank, op_index: u64) -> Self {
        self.corrupt(CorruptTarget::Edge { rank, op_index }, CorruptionKind::TornWrite, 1)
    }

    /// The `op_index`-th copy of `rank`'s stream is served from a recycled
    /// buffer still holding prior residue (one attempt).
    pub fn stale_read(self, rank: Rank, op_index: u64) -> Self {
        self.corrupt(CorruptTarget::Edge { rank, op_index }, CorruptionKind::StaleRead, 1)
    }

    /// `rank` corrupts every chunk it serves, on every attempt — retries
    /// cannot heal it, so the thread executor raises a typed `Corrupt`
    /// error that feeds the failure detector and membership fencing.
    pub fn corrupt_source(self, rank: Rank, mask: u64) -> Self {
        self.corrupt(CorruptTarget::Source { rank }, CorruptionKind::FlipBits { mask }, u64::MAX)
    }

    /// The faults, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Whether the plan holds a fault that can only surface through a
    /// timeout (a crash or a dropped notification). The thread executor
    /// forces a finite deadline when this holds so the run cannot hang.
    pub fn has_lethal_fault(&self) -> bool {
        self.faults.iter().any(|f| matches!(f, Fault::CrashRank { .. } | Fault::DropNotify { .. }))
    }

    /// This plan in the rank space of a shrunk communicator, where
    /// `survivors[c]` is the world rank now at rank `c`. A fault naming a
    /// rank outside `survivors` is dropped — so a fenced corrupter stops
    /// corrupting, which is the point of fencing it — and so is every
    /// `DropNotify`, whose index does not survive a reshape. An `Edge`
    /// target keeps its op index: the next attempt replays the rank's
    /// copies from the first.
    pub fn remap(&self, survivors: &[Rank]) -> FaultPlan {
        let faults = self.faults.iter().filter(|f| !matches!(f, Fault::DropNotify { .. }));
        let faults = faults.copied().filter_map(|mut fault| {
            if let Some(rank) = fault.rank_mut() {
                *rank = survivors.iter().position(|&w| w == *rank)?;
            }
            Some(fault)
        });
        FaultPlan { seed: self.seed, faults: faults.collect() }
    }

    /// What this plan does to each rank and each op of `schedule` (lowered
    /// as `lowered`). A rank's stall is the sum of its `StallRank` delays
    /// and its crash budget the smallest of its `CrashRank` budgets; an op
    /// takes the first corruption that targets it. `DegradeLink` does not
    /// appear: it addresses a resource, not a rank or an op.
    pub fn resolve(&self, schedule: &Schedule, lowered: &Lowered) -> ResolvedFaults {
        let nranks = schedule.num_ranks;
        let mut table = ResolvedFaults {
            ranks: vec![RankFaults::default(); nranks],
            ops: vec![OpFaults::default(); schedule.ops.len()],
        };
        let is_copy = |id: &usize| matches!(schedule.ops[*id].kind, OpKind::Copy { .. });
        for &fault in &self.faults {
            match fault {
                Fault::StallRank { rank, delay } if rank < nranks => {
                    table.ranks[rank].stall += delay;
                }
                Fault::CrashRank { rank, after_ops } if rank < nranks => {
                    let budget = table.ranks[rank].crash_after.get_or_insert(after_ops);
                    *budget = (*budget).min(after_ops);
                }
                Fault::DropNotify { nth } => {
                    let mut notifies = (0..schedule.ops.len()).filter(|&id| !is_copy(&id));
                    if let Some(id) = notifies.nth(nth as usize) {
                        table.ops[id].dropped = true;
                    }
                }
                Fault::Corrupt {
                    target: CorruptTarget::Edge { rank, op_index },
                    kind,
                    attempts,
                } if rank < nranks => {
                    let mut copies = lowered.rank_ops(rank).iter().filter(|id| is_copy(id));
                    if let Some(&id) = copies.nth(op_index as usize) {
                        table.ops[id].corrupt.get_or_insert((kind, attempts));
                    }
                }
                Fault::Corrupt { target: CorruptTarget::Source { rank }, kind, attempts } => {
                    for (id, op) in schedule.ops.iter().enumerate() {
                        if matches!(op.kind, OpKind::Copy { src_rank, .. } if src_rank == rank) {
                            table.ops[id].corrupt.get_or_insert((kind, attempts));
                        }
                    }
                }
                // Link degrades are the engine's to apply; faults naming a
                // rank outside the schedule are inert.
                Fault::DegradeLink { .. }
                | Fault::StallRank { .. }
                | Fault::CrashRank { .. }
                | Fault::Corrupt { .. } => {}
            }
        }
        table
    }
}

/// A [`FaultPlan`] resolved against one schedule by [`FaultPlan::resolve`]:
/// what each rank and each op of it suffers. Both executors read it, so
/// neither counts ops to find a fault's target. The default resolves no
/// fault at all.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResolvedFaults {
    ranks: Vec<RankFaults>,
    ops: Vec<OpFaults>,
}

/// What a plan does to one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankFaults {
    /// Extra delay before every op the rank runs.
    pub stall: Duration,
    /// Ops the rank starts before it crashes, if it crashes.
    pub crash_after: Option<u64>,
}

/// What a plan does to one op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpFaults {
    /// The op runs but its completion is never published.
    pub dropped: bool,
    /// The damage and the number of attempts it poisons (copies only).
    pub corrupt: Option<(CorruptionKind, u64)>,
}

impl ResolvedFaults {
    /// The faults of `rank`.
    pub fn rank(&self, rank: Rank) -> RankFaults {
        self.ranks.get(rank).copied().unwrap_or_default()
    }

    /// The faults of op `id`.
    pub fn op(&self, id: usize) -> OpFaults {
        self.ops.get(id).copied().unwrap_or_default()
    }
}

/// Observability record for fault injection and recovery: what was
/// injected, what the runtime did about it, and what it cost. Each leg
/// keeps its own record: the engine's is its prediction, carried in
/// [`crate::SimReport`] and never published; the thread executor fills and
/// publishes one per run, and the recovery layer merges those across
/// attempts and adds its own rebuild and degrade counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Link-degrade faults applied to the resource graph.
    pub links_degraded: u64,
    /// Ranks running with injected per-operation stall latency.
    pub ranks_stalled: u64,
    /// Ranks that crashed during the run.
    pub ranks_crashed: u64,
    /// Notifications silently dropped.
    pub notifies_dropped: u64,
    /// Operations abandoned because their executor crashed.
    pub ops_abandoned: u64,
    /// Bounded retries performed: KNEM pull re-attempts after backoff,
    /// plus each time a recovery loop re-ran an attempt after a transient
    /// timeout (nobody proven dead).
    pub retries: u64,
    /// Total nanoseconds spent sleeping in retry backoff.
    pub backoff_ns: u64,
    /// Per-operation deadline expirations observed while waiting on peers.
    pub timeouts: u64,
    /// Topology rebuilds performed by the recovery layer (epoch bumps).
    pub topology_rebuilds: u64,
    /// Suspicions raised by the failure detector (a rank stopped making
    /// observable progress, or a peer's dependency wait timed out on it).
    pub suspects_raised: u64,
    /// Suspicions refuted — the suspected rank made progress again before
    /// confirmation (the stall-vs-crash distinction, observed).
    pub suspects_refuted: u64,
    /// Ranks the detector confirmed dead (silent exit with work remaining,
    /// or suspicion that outlived the confirmation window).
    pub ranks_confirmed_dead: u64,
    /// Stale-epoch messages rejected by the epoch fence (KNEM cookies or
    /// notifies stamped with a dead epoch, refused delivery into the
    /// rebuilt topology).
    pub fenced_messages: u64,
    /// Runs that fell back to the distance-oblivious baseline algorithms
    /// (recovery churned past its budget, or one survivor was left).
    pub degraded_runs: u64,
    /// Chunks stamped with a source checksum at `tx` time (executor legs
    /// only; the simulated leg does not move real bytes).
    pub checksums_stamped: u64,
    /// Staged chunks whose checksum verified clean at completion.
    pub checksums_verified: u64,
    /// Checksum mismatches detected before the chunk reached its
    /// destination buffer.
    pub corrupt_detected: u64,
    /// Verified re-transmits: re-pull + re-stage cycles triggered by a
    /// detected corruption (a subset of `retries` on executor legs).
    pub retransmits: u64,
}

impl FaultStats {
    /// Total faults injected (not counting the runtime's reactions).
    pub fn total_injected(&self) -> u64 {
        self.links_degraded + self.ranks_stalled + self.ranks_crashed + self.notifies_dropped
    }

    /// Accumulates `other` into `self` (merging records across executor
    /// runs, simulation attempts and recovery rounds).
    pub fn merge(&mut self, other: &FaultStats) {
        self.links_degraded += other.links_degraded;
        self.ranks_stalled += other.ranks_stalled;
        self.ranks_crashed += other.ranks_crashed;
        self.notifies_dropped += other.notifies_dropped;
        self.ops_abandoned += other.ops_abandoned;
        self.retries += other.retries;
        self.backoff_ns += other.backoff_ns;
        self.timeouts += other.timeouts;
        self.topology_rebuilds += other.topology_rebuilds;
        self.suspects_raised += other.suspects_raised;
        self.suspects_refuted += other.suspects_refuted;
        self.ranks_confirmed_dead += other.ranks_confirmed_dead;
        self.fenced_messages += other.fenced_messages;
        self.degraded_runs += other.degraded_runs;
        self.checksums_stamped += other.checksums_stamped;
        self.checksums_verified += other.checksums_verified;
        self.corrupt_detected += other.corrupt_detected;
        self.retransmits += other.retransmits;
    }
}

/// Simulation failures: an invalid schedule, or a fault-injected run that
/// could not complete. The engine returns these instead of hanging or
/// panicking, so every caller sees a typed error within bounded time.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The schedule failed validation.
    Schedule(ScheduleError),
    /// No runnable work remains but the schedule is unfinished (a crash or
    /// dropped notification orphaned the remaining dependency graph).
    Stalled {
        /// The fault-plan seed, when a plan was active.
        seed: Option<u64>,
        /// Operations completed before the stall.
        completed: usize,
        /// Total operations in the schedule.
        total: usize,
        /// Simulated time at which progress stopped.
        at: f64,
        /// Fault accounting up to the stall (boxed: the record is large
        /// and the lean `Ok` path should not pay for it).
        fault_stats: Box<FaultStats>,
    },
    /// The simulated clock passed the configured deadline.
    DeadlineExceeded {
        /// The fault-plan seed, when a plan was active.
        seed: Option<u64>,
        /// The deadline, in simulated seconds.
        deadline: f64,
        /// Operations completed within the deadline.
        completed: usize,
        /// Total operations in the schedule.
        total: usize,
        /// Fault accounting up to the deadline (boxed, see
        /// [`SimError::Stalled`]).
        fault_stats: Box<FaultStats>,
    },
}

impl SimError {
    /// The fault accounting gathered before the failure (zeroed for
    /// validation errors).
    pub fn fault_stats(&self) -> FaultStats {
        match self {
            SimError::Schedule(_) => FaultStats::default(),
            SimError::Stalled { fault_stats, .. }
            | SimError::DeadlineExceeded { fault_stats, .. } => **fault_stats,
        }
    }
}

fn fmt_seed(seed: &Option<u64>) -> String {
    match seed {
        Some(s) => format!(" (fault seed {s})"),
        None => String::new(),
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Schedule(e) => write!(f, "invalid schedule: {e}"),
            SimError::Stalled { seed, completed, total, at, .. } => write!(
                f,
                "simulation stalled at t={at:.6}s with {completed}/{total} ops done{}",
                fmt_seed(seed)
            ),
            SimError::DeadlineExceeded { seed, deadline, completed, total, .. } => write!(
                f,
                "simulation exceeded its {deadline:.6}s deadline with {completed}/{total} ops \
                 done{}",
                fmt_seed(seed)
            ),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ScheduleError> for SimError {
    fn from(e: ScheduleError) -> Self {
        SimError::Schedule(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ScheduleBuilder;

    /// Each rank's resolved view of `plan` in an `n`-rank world.
    fn views(plan: &FaultPlan, n: usize) -> Vec<RankFaults> {
        let world = ScheduleBuilder::new("world", n).finish();
        let table = plan.resolve(&world, &world.lower(None).unwrap());
        (0..n).map(|r| table.rank(r)).collect()
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = FaultPlan::seeded(99, 8, &[0]);
        assert_eq!(a, FaultPlan::seeded(99, 8, &[0]), "seed 99 must be reproducible");
        assert!(a.has_lethal_fault());
        let v = views(&a, 8);
        assert_eq!(v[0], RankFaults::default(), "root is excluded");
        let crashed = v.iter().filter(|f| f.crash_after.is_some()).count();
        let stalled = v.iter().filter(|f| !f.stall.is_zero()).count();
        assert_eq!((crashed, stalled), (1, 1), "one crash and one stall: {a:?}");
        assert!(v.iter().all(|f| f.crash_after.is_none() || f.stall.is_zero()), "two ranks");
        let none = FaultPlan::seeded(3, 2, &[0, 1]);
        assert!(none.is_empty() && !none.has_lethal_fault(), "no candidate, no fault");
    }

    #[test]
    fn seeded_cascade_is_reproducible_and_multi_rank() {
        let a = FaultPlan::seeded_cascade(7, 8, 4, &[0]);
        assert_eq!(a, FaultPlan::seeded_cascade(7, 8, 4, &[0]), "cascade for seed 7 replays");
        assert!(a.has_lethal_fault());
        // Across seeds: rank 0 is never touched, a candidate always
        // survives, many plans crash several ranks and some flap one (a
        // stall and a crash on the same rank).
        let (mut multi, mut flaps) = (0, 0);
        for s in 0..50 {
            let v = views(&FaultPlan::seeded_cascade(s, 8, 7, &[0]), 8);
            assert_eq!(v[0], RankFaults::default(), "seed {s}: root is excluded");
            let crashed = v.iter().filter(|f| f.crash_after.is_some()).count();
            assert!(crashed < 7, "seed {s} crashed every candidate");
            multi += usize::from(crashed > 1);
            flaps += usize::from(v.iter().any(|f| f.crash_after.is_some() && !f.stall.is_zero()));
        }
        assert!(multi > 10, "cascades should frequently crash several ranks, got {multi}/50");
        assert!(flaps > 5, "cascades should often flap a rank, got {flaps}/50");
    }

    #[test]
    fn degrade_factor_is_clamped() {
        let factor = |plan: FaultPlan| match plan.faults()[0] {
            Fault::DegradeLink { factor, .. } => factor,
            _ => panic!("expected a degrade fault"),
        };
        let degrade = |f| FaultPlan::new(0).degrade_link(Resource::BoardLink, f);
        assert_eq!(factor(degrade(0.0)), MIN_DEGRADE_FACTOR);
        assert_eq!(factor(degrade(7.0)), 1.0);
    }

    #[test]
    fn corruption_builders_record_target_kind_and_attempts() {
        let p = FaultPlan::new(0)
            .flip_bits(1, 1, 0xff)
            .torn_write(2, 0)
            .stale_read(1, 9)
            .corrupt_source(1, 0xa5);
        let edge = |rank, op_index| CorruptTarget::Edge { rank, op_index };
        let flip = |mask| CorruptionKind::FlipBits { mask };
        let source = CorruptTarget::Source { rank: 1 };
        assert_eq!(
            p.faults(),
            [
                Fault::Corrupt { target: edge(1, 1), kind: flip(0xff), attempts: 1 },
                Fault::Corrupt { target: edge(2, 0), kind: CorruptionKind::TornWrite, attempts: 1 },
                Fault::Corrupt { target: edge(1, 9), kind: CorruptionKind::StaleRead, attempts: 1 },
                Fault::Corrupt { target: source, kind: flip(0xa5), attempts: u64::MAX },
            ]
        );
        assert!(!p.has_lethal_fault(), "corruption alone needs no forced deadline");
    }

    #[test]
    fn resolve_sums_stalls_and_takes_the_smallest_crash() {
        let ms = Duration::from_millis;
        let p = FaultPlan::new(1)
            .crash_rank(1, 5)
            .stall_rank(1, ms(2))
            .crash_rank(1, 2)
            .stall_rank(1, ms(3));
        let v = views(&p, 3);
        assert_eq!(v[1], RankFaults { stall: ms(5), crash_after: Some(2) });
        assert_eq!((v[0], v[2]), (RankFaults::default(), RankFaults::default()));
    }

    #[test]
    fn seeded_corruption_is_reproducible_and_transient() {
        let a = FaultPlan::new(77).with_seeded_corruption(8);
        assert_eq!(a, FaultPlan::new(77).with_seeded_corruption(8), "same seed, same plan");
        assert!((1..=3).contains(&a.faults().len()), "1–3 transient faults: {a:?}");
        for f in a.faults() {
            assert!(
                matches!(f, Fault::Corrupt { target: CorruptTarget::Edge { .. }, attempts: 1, .. }),
                "seeded corruption always heals through one retry: {f:?}"
            );
        }
        assert_ne!(
            a.faults(),
            FaultPlan::new(78).with_seeded_corruption(8).faults(),
            "different seeds draw different targets"
        );
    }

    #[test]
    fn stats_merge_accumulates_every_field() {
        let mut a = FaultStats { links_degraded: 1, retries: 2, ..Default::default() };
        let b = FaultStats {
            links_degraded: 3,
            ranks_stalled: 1,
            ranks_crashed: 1,
            notifies_dropped: 2,
            ops_abandoned: 5,
            retries: 1,
            backoff_ns: 250,
            timeouts: 4,
            topology_rebuilds: 1,
            suspects_raised: 3,
            suspects_refuted: 2,
            ranks_confirmed_dead: 1,
            fenced_messages: 2,
            degraded_runs: 1,
            checksums_stamped: 9,
            checksums_verified: 7,
            corrupt_detected: 2,
            retransmits: 2,
        };
        a.merge(&b);
        assert_eq!(a, FaultStats { links_degraded: 4, retries: 3, ..b });
        assert_eq!(a.total_injected(), 4 + 1 + 1 + 2);
    }

    #[test]
    fn errors_display_the_seed() {
        let e = SimError::Stalled {
            seed: Some(77),
            completed: 3,
            total: 9,
            at: 0.5,
            fault_stats: Box::new(FaultStats::default()),
        };
        assert!(e.to_string().contains("seed 77"), "{e}");
        assert!(e.to_string().contains("3/9"), "{e}");
    }
}
