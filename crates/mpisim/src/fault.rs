//! Executor-level fault injection and recovery policy.
//!
//! The simulator-side [`pdac_simnet::FaultPlan`] perturbs *modeled time*;
//! this module perturbs the *real-thread* oracle: ranks that stall before
//! their first operation, ranks that crash (their cursor retires silently
//! after a budget of operations), and completion notifications that are
//! dropped on the floor. Combined with the [`RetryPolicy`] timeouts in
//! [`crate::ThreadExecutor`], every injected fault either heals through
//! bounded retry or surfaces as a typed [`crate::ExecError`] — never a
//! hang.
//!
//! Everything is driven by an explicit `u64` seed: the same seed always
//! produces the same plan, and the seed is embedded in every error message
//! so a failing chaos run can be replayed exactly.

use std::time::Duration;

use pdac_simnet::Rank;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::integrity::CorruptionKind;

/// Where a payload-corruption fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptTarget {
    /// The `op_index`-th copy operation (0-based, program order) that
    /// `rank` executes, whatever its source — a transient fault on one
    /// specific transfer.
    Edge {
        /// The executing (pulling) rank.
        rank: Rank,
        /// Zero-based index among that rank's copy operations.
        op_index: u64,
    },
    /// Every chunk *served by* `rank`: any copy whose source buffer lives
    /// on that rank arrives corrupt, on every attempt. This models a
    /// persistent corrupter — bad DIMM, bad NIC — and is what escalates
    /// through [`crate::ExecError::Corrupt`] into membership fencing.
    Source {
        /// The source rank whose outgoing chunks are corrupted.
        rank: Rank,
    },
}

/// Bounded-retry and timeout policy for the thread executor.
///
/// The default policy reproduces the pre-fault executor exactly: no
/// retries, no deadline, waits block forever. The [`RetryPolicy::chaos`]
/// preset is what the chaos harness uses: a few retries with exponential
/// backoff and a per-operation deadline that converts a dead peer into a
/// typed timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// KNEM pulls that fail are retried up to this many times.
    pub max_retries: u32,
    /// First-retry backoff; doubles on every further retry.
    pub backoff_base: Duration,
    /// Bound on any single dependency wait. `None` waits forever (the
    /// pre-fault behavior); the executor forces a finite default when a
    /// fault plan contains lethal faults so no run can hang.
    pub op_deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 0,
            backoff_base: Duration::from_micros(50),
            op_deadline: None,
        }
    }
}

impl RetryPolicy {
    /// The chaos-harness preset: 3 retries, 50 µs base backoff, 500 ms
    /// per-operation deadline.
    pub fn chaos() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff_base: Duration::from_micros(50),
            op_deadline: Some(Duration::from_millis(500)),
        }
    }

    /// Backoff before retry number `attempt` (1-based): exponential in the
    /// base, capped at 64× so pathological retry counts stay bounded.
    pub fn backoff(&self, attempt: u32) -> Duration {
        self.backoff_base * 1u32.checked_shl(attempt.saturating_sub(1)).unwrap_or(64).min(64)
    }

    /// Jittered backoff: the exponential schedule of [`Self::backoff`] plus
    /// a deterministic 0–50% spread derived from `(seed, rank, attempt)`.
    /// Ranks that fail the same pull at the same instant would otherwise
    /// retry in lockstep and collide again on every round; the per-rank
    /// spread de-synchronizes them while staying bit-reproducible for a
    /// given plan seed.
    pub fn backoff_jittered(&self, seed: u64, rank: Rank, attempt: u32) -> Duration {
        let base = self.backoff(attempt);
        let mut rng = StdRng::seed_from_u64(
            seed ^ (rank as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ (attempt as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9),
        );
        let spread = base.as_nanos() as u64 / 2;
        base + Duration::from_nanos(spread * rng.gen_range(0..1024) as u64 / 1024)
    }
}

/// A seed-driven plan of executor-level faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecFaultPlan {
    /// The seed that produced (or labels) this plan, quoted in errors.
    pub seed: u64,
    stalled: Vec<(Rank, Duration)>,
    crashed: Vec<(Rank, u64)>,
    drop_notifies: Vec<u64>,
    flapped: Vec<(Rank, Duration, u64)>,
    /// `(target, damage pattern, attempt budget)`: the first `budget`
    /// attempts of each targeted transfer arrive corrupt. A budget below
    /// the retry allowance heals through verified re-transmit; `u64::MAX`
    /// (a persistent corrupter) exhausts retries and escalates.
    corrupted: Vec<(CorruptTarget, CorruptionKind, u64)>,
}

impl ExecFaultPlan {
    /// An empty plan labeled with `seed`; populate with the fluent methods.
    pub fn new(seed: u64) -> Self {
        ExecFaultPlan { seed, ..Default::default() }
    }

    /// A randomized plan over `num_ranks` ranks: crashes one rank not in
    /// `exclude` after a small operation budget, and stalls another. The
    /// same `(seed, num_ranks, exclude)` always yields the same plan.
    pub fn seeded(seed: u64, num_ranks: usize, exclude: &[Rank]) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = ExecFaultPlan::new(seed);
        let candidates: Vec<Rank> =
            (0..num_ranks).filter(|r| !exclude.contains(r)).collect();
        if !candidates.is_empty() {
            let victim = candidates[rng.gen_range(0..candidates.len())];
            // Budget 0 or 1: ranks execute few ops in small collectives
            // (a bcast leaf performs a single pull), so larger budgets
            // would rarely fire at all.
            let after = rng.gen_range(0..2) as u64;
            plan = plan.crash_rank(victim, after);
            let others: Vec<Rank> =
                candidates.iter().copied().filter(|&r| r != victim).collect();
            if !others.is_empty() {
                let slow = others[rng.gen_range(0..others.len())];
                let micros = 50 * (1 + rng.gen_range(0..10) as u64);
                plan = plan.stall_rank(slow, Duration::from_micros(micros));
            }
        }
        plan
    }

    /// A harsher randomized plan: `1..=max_crashes` distinct ranks crash
    /// with *mid-collective* budgets (1–3 completed operations each, so the
    /// victim participates before dying), one rank stalls, and — when the
    /// rank count allows — one rank *flaps*: it stalls before every
    /// operation and then crashes, presenting first as a `Suspect` and only
    /// later as `Confirmed` to the failure detector. Reproducible for a
    /// given `(seed, num_ranks, max_crashes, exclude)`.
    pub fn seeded_cascade(
        seed: u64,
        num_ranks: usize,
        max_crashes: usize,
        exclude: &[Rank],
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x94d0_49bb_1331_11eb);
        let mut plan = ExecFaultPlan::new(seed);
        let mut candidates: Vec<Rank> =
            (0..num_ranks).filter(|r| !exclude.contains(r)).collect();
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
            plan = plan.flap_rank(flapper, Duration::from_micros(micros), budget);
        }
        plan
    }

    /// Rank `rank` holds off its first operation for `delay` (its cursor
    /// waits; no worker sleeps for it).
    pub fn stall_rank(mut self, rank: Rank, delay: Duration) -> Self {
        self.stalled.push((rank, delay));
        self
    }

    /// Rank `rank`'s cursor retires silently after `after_ops` operations —
    /// no completion, no poison; peers discover it by timing out.
    pub fn crash_rank(mut self, rank: Rank, after_ops: u64) -> Self {
        self.crashed.push((rank, after_ops));
        self
    }

    /// The `nth` notification (0-based, in schedule order) completes but
    /// its completion is never published; dependents time out.
    pub fn drop_notify(mut self, nth: u64) -> Self {
        self.drop_notifies.push(nth);
        self
    }

    /// Rank `rank` *flaps*: it holds off every operation for `delay`
    /// (looking merely slow — a `Suspect`) and crashes for good once it has
    /// completed `after_ops` operations. The crash-then-stall alternation
    /// exercises the detector's suspect→refute→confirm transitions.
    pub fn flap_rank(mut self, rank: Rank, delay: Duration, after_ops: u64) -> Self {
        self.flapped.push((rank, delay, after_ops));
        self.crashed.push((rank, after_ops));
        self
    }

    /// Adds an arbitrary corruption entry (the general form behind the
    /// named builders; recovery harnesses use it to carry entries across a
    /// rank-space remap without losing kind or budget).
    pub fn corrupt(mut self, target: CorruptTarget, kind: CorruptionKind, attempts: u64) -> Self {
        self.corrupted.push((target, kind, attempts));
        self
    }

    /// The `op_index`-th copy `rank` executes arrives with `mask` XORed in
    /// (one attempt; the verified re-transmit heals it).
    pub fn flip_bits(mut self, rank: Rank, op_index: u64, mask: u64) -> Self {
        self.corrupted.push((
            CorruptTarget::Edge { rank, op_index },
            CorruptionKind::FlipBits { mask },
            1,
        ));
        self
    }

    /// The `op_index`-th copy `rank` executes is torn: only its head half
    /// is committed, the tail is garbage (one attempt).
    pub fn torn_write(mut self, rank: Rank, op_index: u64) -> Self {
        self.corrupted.push((CorruptTarget::Edge { rank, op_index }, CorruptionKind::TornWrite, 1));
        self
    }

    /// The `op_index`-th copy `rank` executes is served from a recycled
    /// buffer still holding prior residue (one attempt).
    pub fn stale_read(mut self, rank: Rank, op_index: u64) -> Self {
        self.corrupted.push((CorruptTarget::Edge { rank, op_index }, CorruptionKind::StaleRead, 1));
        self
    }

    /// Rank `rank` persistently corrupts every chunk it serves, on every
    /// attempt — retries cannot heal it, so pulls from it exhaust the
    /// [`RetryPolicy`] and raise [`crate::ExecError::Corrupt`], feeding the
    /// failure detector and (in the chaos harness) membership fencing.
    pub fn corrupt_source(mut self, rank: Rank, mask: u64) -> Self {
        self.corrupted.push((
            CorruptTarget::Source { rank },
            CorruptionKind::FlipBits { mask },
            u64::MAX,
        ));
        self
    }

    /// Adds 1–3 seed-derived *transient* corruption faults over
    /// `num_ranks` ranks: each targets one copy operation of one rank with
    /// a seed-chosen [`CorruptionKind`], with an attempt budget of 1 so
    /// every one heals through a single verified re-transmit. Reproducible
    /// for a given `(self.seed, num_ranks)`.
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
            self.corrupted.push((CorruptTarget::Edge { rank, op_index }, kind, 1));
        }
        self
    }

    /// The corruption armed for the `op_index`-th copy that `rank`
    /// executes, pulling from `src_rank`: the damage pattern and the number
    /// of attempts it poisons. Edge targets match the executing rank and
    /// index; source targets match the rank being pulled from.
    pub fn corruption_of(
        &self,
        rank: Rank,
        op_index: u64,
        src_rank: Rank,
    ) -> Option<(CorruptionKind, u64)> {
        self.corrupted
            .iter()
            .find(|(target, _, _)| match *target {
                CorruptTarget::Edge { rank: r, op_index: i } => r == rank && i == op_index,
                CorruptTarget::Source { rank: r } => r == src_rank,
            })
            .map(|(_, kind, budget)| (*kind, *budget))
    }

    /// Every corruption entry, in insertion order (the chaos harness uses
    /// this to carry survivor corruption across a topology rebuild).
    pub fn corruptions(&self) -> &[(CorruptTarget, CorruptionKind, u64)] {
        &self.corrupted
    }

    /// True when the plan corrupts at least one transfer.
    pub fn has_corruption(&self) -> bool {
        !self.corrupted.is_empty()
    }

    /// Per-operation stall for a flapping `rank` (zero when it doesn't
    /// flap).
    pub fn flap_of(&self, rank: Rank) -> Duration {
        self.flapped.iter().filter(|(r, _, _)| *r == rank).map(|(_, d, _)| *d).sum()
    }

    /// Total stall for `rank` (zero when unaffected).
    pub fn stall_of(&self, rank: Rank) -> Duration {
        self.stalled.iter().filter(|(r, _)| *r == rank).map(|(_, d)| *d).sum()
    }

    /// Operation budget before `rank` crashes, if it crashes at all.
    pub fn crash_of(&self, rank: Rank) -> Option<u64> {
        self.crashed.iter().filter(|(r, _)| *r == rank).map(|(_, k)| *k).min()
    }

    /// Ranks this plan crashes.
    pub fn crashed_ranks(&self) -> Vec<Rank> {
        let mut v: Vec<Rank> = self.crashed.iter().map(|(r, _)| *r).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Indices (schedule order) of dropped notifications.
    pub fn dropped_notifies(&self) -> &[u64] {
        &self.drop_notifies
    }

    /// Whether the plan contains a fault that can only surface through a
    /// timeout (crash or dropped notification). The executor forces a
    /// finite deadline when this holds so the run cannot hang.
    pub fn has_lethal_fault(&self) -> bool {
        !self.crashed.is_empty() || !self.drop_notifies.is_empty()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.stalled.is_empty()
            && self.crashed.is_empty()
            && self.drop_notifies.is_empty()
            && self.corrupted.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = ExecFaultPlan::seeded(99, 8, &[0]);
        let b = ExecFaultPlan::seeded(99, 8, &[0]);
        assert_eq!(a, b, "seed 99 must be reproducible");
        assert!(!a.crashed_ranks().contains(&0), "root is excluded");
        assert!(a.has_lethal_fault());
    }

    #[test]
    fn seeded_plan_with_no_candidates_is_empty() {
        let p = ExecFaultPlan::seeded(3, 2, &[0, 1]);
        assert!(p.is_empty());
        assert!(!p.has_lethal_fault());
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy::chaos();
        assert_eq!(p.backoff(1), Duration::from_micros(50));
        assert_eq!(p.backoff(2), Duration::from_micros(100));
        assert_eq!(p.backoff(3), Duration::from_micros(200));
        assert_eq!(p.backoff(40), Duration::from_micros(50 * 64), "capped");
    }

    #[test]
    fn jittered_backoff_is_distinct_per_rank_but_reproducible() {
        let p = RetryPolicy::chaos();
        let seed = 42;
        // Same (seed, rank, attempt) → same delay: replays are exact.
        for rank in 0..8 {
            for attempt in 1..=3 {
                assert_eq!(
                    p.backoff_jittered(seed, rank, attempt),
                    p.backoff_jittered(seed, rank, attempt)
                );
            }
        }
        // Distinct ranks draw distinct backoff *sequences* from the same
        // plan seed, so concurrent retries don't resynchronize in lockstep.
        let sequences: Vec<Vec<Duration>> = (0..8)
            .map(|rank| (1..=4).map(|a| p.backoff_jittered(seed, rank, a)).collect())
            .collect();
        let distinct: std::collections::HashSet<&Vec<Duration>> = sequences.iter().collect();
        assert!(
            distinct.len() >= 7,
            "8 ranks should produce (nearly) 8 distinct backoff sequences, got {}",
            distinct.len()
        );
        // Jitter only ever lengthens the wait, bounded by 1.5× the base
        // schedule — the exponential envelope is preserved.
        for rank in 0..8 {
            for attempt in 1..=4 {
                let plain = p.backoff(attempt);
                let jittered = p.backoff_jittered(seed, rank, attempt);
                assert!(jittered >= plain);
                assert!(jittered <= plain + plain / 2);
            }
        }
    }

    #[test]
    fn seeded_cascade_is_reproducible_and_multi_rank() {
        let a = ExecFaultPlan::seeded_cascade(7, 8, 4, &[0]);
        let b = ExecFaultPlan::seeded_cascade(7, 8, 4, &[0]);
        assert_eq!(a, b, "cascade for seed 7 must be reproducible");
        assert!(!a.crashed_ranks().contains(&0), "root is excluded");
        assert!(a.has_lethal_fault());
        // Across seeds, some plans crash more than one rank.
        let multi = (0..50)
            .filter(|s| ExecFaultPlan::seeded_cascade(*s, 8, 4, &[0]).crashed_ranks().len() > 1)
            .count();
        assert!(multi > 10, "cascades should frequently crash several ranks, got {multi}/50");
        // And every plan leaves at least one non-excluded survivor.
        for s in 0..50 {
            let p = ExecFaultPlan::seeded_cascade(s, 8, 7, &[0]);
            assert!(p.crashed_ranks().len() < 7, "seed {s} crashed every candidate");
        }
    }

    #[test]
    fn flap_rank_stalls_and_crashes() {
        let p = ExecFaultPlan::new(5).flap_rank(2, Duration::from_micros(30), 3);
        assert_eq!(p.flap_of(2), Duration::from_micros(30));
        assert_eq!(p.flap_of(1), Duration::ZERO);
        assert_eq!(p.crash_of(2), Some(3), "a flapping rank eventually dies");
        assert!(p.has_lethal_fault());
        assert!(!p.is_empty());
    }

    #[test]
    fn crash_of_takes_smallest_budget() {
        let p = ExecFaultPlan::new(1).crash_rank(3, 5).crash_rank(3, 2);
        assert_eq!(p.crash_of(3), Some(2));
        assert_eq!(p.crash_of(4), None);
    }

    #[test]
    fn corruption_targets_match_edges_and_sources() {
        let p = ExecFaultPlan::new(0).flip_bits(2, 1, 0xff).corrupt_source(5, 0xa5);
        assert!(p.has_corruption());
        assert!(!p.is_empty());
        assert!(!p.has_lethal_fault(), "corruption alone needs no forced deadline");
        // Edge target: executing rank 2, its second copy, any source.
        let (kind, budget) = p.corruption_of(2, 1, 7).expect("edge hit");
        assert_eq!(kind, CorruptionKind::FlipBits { mask: 0xff });
        assert_eq!(budget, 1, "transient faults poison one attempt");
        assert!(p.corruption_of(2, 0, 7).is_none(), "other op indices are clean");
        assert!(p.corruption_of(3, 1, 7).is_none(), "other ranks are clean");
        // Source target: any rank pulling from rank 5, on every attempt.
        let (_, budget) = p.corruption_of(0, 3, 5).expect("source hit");
        assert_eq!(budget, u64::MAX, "a persistent corrupter poisons every attempt");
    }

    #[test]
    fn seeded_corruption_is_reproducible_and_transient() {
        let a = ExecFaultPlan::new(77).with_seeded_corruption(8);
        let b = ExecFaultPlan::new(77).with_seeded_corruption(8);
        assert_eq!(a, b, "same seed, same corruption plan");
        assert!(a.has_corruption());
        let n = a.corruptions().len();
        assert!((1..=3).contains(&n), "1–3 transient faults, got {n}");
        for (target, _, budget) in a.corruptions() {
            assert!(matches!(target, CorruptTarget::Edge { .. }));
            assert_eq!(*budget, 1, "seeded corruption always heals through retry");
        }
        assert_ne!(
            a.corruptions(),
            ExecFaultPlan::new(78).with_seeded_corruption(8).corruptions(),
            "different seeds draw different targets"
        );
    }
}
