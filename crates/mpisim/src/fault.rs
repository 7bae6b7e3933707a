//! The thread executor's retry and timeout policy.
//!
//! Faults themselves are [`pdac_simnet::FaultPlan`]s — one vocabulary for
//! both executors — which [`crate::ThreadExecutor::with_faults`] resolves
//! against each schedule it runs: a stalled rank's cursor holds off before
//! every op, a crashed rank's cursor retires silently after its budget, a
//! dropped notification runs but never publishes its completion, and a
//! corrupted copy is damaged between stamp and verify. Combined with the
//! [`RetryPolicy`] here, every injected fault either heals through bounded
//! retry or surfaces as a typed [`crate::ExecError`] — never a hang.
//!
//! Everything is driven by the plan's explicit `u64` seed, which keys the
//! retry jitter and is embedded in every error message, so a failing chaos
//! run can be replayed exactly.

use std::time::Duration;

use pdac_simnet::Rank;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
        RetryPolicy { max_retries: 0, backoff_base: Duration::from_micros(50), op_deadline: None }
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
