//! Distributed failure detection for the thread executor.
//!
//! Real MPI recovery cannot start from a god's-eye view: a rank learns of a
//! peer's death only through *observations* — a dependency wait that drags
//! past the suspicion window, an op completion that never arrives, a rank
//! whose cursor retires with work still assigned. The [`FailureDetector`] turns those
//! observations into a per-rank state machine:
//!
//! ```text
//!            suspect (wait exceeded suspicion window)
//!   Alive ───────────────────────────────────────────▶ Suspect
//!     ▲                                                  │  │
//!     │  heartbeat (the "dead" peer completed an op)     │  │ confirm
//!     └──────────────────────────────────────────────────┘  ▼
//!                                                        Confirmed
//! ```
//!
//! The split matters because a *stalled* rank and a *crashed* rank present
//! identically at first — silence. A `StallRank` fault drives
//! `Alive → Suspect → Alive` (the heartbeat refutes the suspicion); a
//! `CrashRank` fault drives `Alive → Suspect → Confirmed` (the join audit
//! proves the rank exited with operations still assigned). `Confirmed` is
//! absorbing: a rank proven dead never comes back within a detector's
//! lifetime — resurrection is what epoch fencing exists to prevent.
//!
//! Heartbeats are piggybacked on existing completions (no extra traffic, as
//! in piggyback-based detectors on real networks); the suspicion window is
//! an idle-tick carved out of the dependency-wait deadline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::Mutex;
use pdac_simnet::Rank;

/// Liveness verdict for one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankState {
    /// No outstanding evidence against the rank.
    Alive,
    /// Some peer's wait on this rank exceeded the suspicion window; not yet
    /// proven dead. A heartbeat refutes the suspicion.
    Suspect,
    /// Proven dead (join audit: the rank's cursor retired with operations
    /// still assigned). Absorbing — heartbeats no longer apply.
    Confirmed,
}

/// Suspicion window carved out of the dependency-wait deadline: a waiter
/// raises `Suspect` against the dependency's owner after this long, then
/// keeps waiting until the full deadline before treating the op as failed.
const DEFAULT_SUSPECT_AFTER: Duration = Duration::from_millis(20);

/// Observation-driven failure detector shared by the rank cursors of a
/// run (and, in the chaos harness, across the attempts of a recovery
/// episode, so evidence survives the re-execution boundary).
#[derive(Debug)]
pub struct FailureDetector {
    states: Mutex<Vec<RankState>>,
    suspect_after: Duration,
    suspects_raised: AtomicU64,
    suspects_refuted: AtomicU64,
    confirmed_dead: AtomicU64,
}

/// Monotonic counter snapshot, used to attribute per-run deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectorCounters {
    /// `Alive → Suspect` transitions.
    pub suspects_raised: u64,
    /// `Suspect → Alive` transitions (the silence was a stall, not death).
    pub suspects_refuted: u64,
    /// `→ Confirmed` transitions.
    pub ranks_confirmed_dead: u64,
}

impl DetectorCounters {
    /// Component-wise difference against an earlier snapshot.
    pub fn delta_since(&self, before: &DetectorCounters) -> DetectorCounters {
        DetectorCounters {
            suspects_raised: self.suspects_raised - before.suspects_raised,
            suspects_refuted: self.suspects_refuted - before.suspects_refuted,
            ranks_confirmed_dead: self.ranks_confirmed_dead - before.ranks_confirmed_dead,
        }
    }
}

impl FailureDetector {
    /// A detector over `num_ranks` ranks with the default suspicion window.
    pub fn new(num_ranks: usize) -> Self {
        Self::with_suspect_after(num_ranks, DEFAULT_SUSPECT_AFTER)
    }

    /// A detector with an explicit suspicion window (tests shrink it to
    /// drive transitions quickly).
    pub fn with_suspect_after(num_ranks: usize, suspect_after: Duration) -> Self {
        FailureDetector {
            states: Mutex::new(vec![RankState::Alive; num_ranks]),
            suspect_after,
            suspects_raised: AtomicU64::new(0),
            suspects_refuted: AtomicU64::new(0),
            confirmed_dead: AtomicU64::new(0),
        }
    }

    /// The suspicion window: how long a waiter stays quiet before raising
    /// `Suspect` against the owner of the dependency it waits on.
    pub fn suspect_after(&self) -> Duration {
        self.suspect_after
    }

    /// Piggybacked heartbeat: `rank` completed an operation, so it is
    /// provably alive *now*. Refutes an outstanding suspicion; never
    /// un-confirms a death.
    pub fn heartbeat(&self, rank: Rank) {
        let mut states = self.states.lock();
        if states.get(rank).copied() == Some(RankState::Suspect) {
            states[rank] = RankState::Alive;
            self.suspects_refuted.fetch_add(1, Ordering::Relaxed);
            pdac_telemetry::global().recorder().instant(
                rank as u64,
                "detector",
                || format!("suspicion on rank {rank} refuted by heartbeat"),
                || vec![("rank", rank.into())],
            );
        }
    }

    /// `observer`'s wait on an operation owned by `rank` exceeded the
    /// suspicion window. Idempotent; no effect on a confirmed death.
    pub fn suspect(&self, rank: Rank, observer: Rank) {
        let mut states = self.states.lock();
        if states.get(rank).copied() == Some(RankState::Alive) {
            states[rank] = RankState::Suspect;
            self.suspects_raised.fetch_add(1, Ordering::Relaxed);
            pdac_telemetry::global().recorder().instant(
                observer as u64,
                "detector",
                || format!("rank {observer} suspects rank {rank} (silent past suspicion window)"),
                || vec![("rank", rank.into()), ("observer", observer.into())],
            );
        }
    }

    /// Join audit: `rank`'s cursor retired on its own (no poison
    /// unwind) having completed `completed` of `assigned` operations.
    /// Leftover work on a voluntary exit is the observable signature of a
    /// crash; a full completion record is a final heartbeat that refutes
    /// any outstanding suspicion.
    pub fn observe_exit(&self, rank: Rank, completed: usize, assigned: usize, unwound: bool) {
        if !unwound && completed < assigned {
            self.confirm(rank);
        } else {
            self.heartbeat(rank);
        }
    }

    /// Proof of death for `rank`. Idempotent: returns whether this call
    /// made the `→ Confirmed` transition.
    pub fn confirm(&self, rank: Rank) -> bool {
        let mut states = self.states.lock();
        let fresh = rank < states.len() && states[rank] != RankState::Confirmed;
        if fresh {
            states[rank] = RankState::Confirmed;
            self.confirmed_dead.fetch_add(1, Ordering::Relaxed);
            pdac_telemetry::global().recorder().instant(
                rank as u64,
                "detector",
                || format!("rank {rank} confirmed dead"),
                || vec![("rank", rank.into())],
            );
        }
        fresh
    }

    /// Current verdict for `rank` (`Confirmed` for out-of-range ranks, so a
    /// stale index never reads as alive).
    pub fn state(&self, rank: Rank) -> RankState {
        self.states.lock().get(rank).copied().unwrap_or(RankState::Confirmed)
    }

    /// Ranks proven dead, ascending.
    pub fn confirmed(&self) -> Vec<Rank> {
        self.states
            .lock()
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == RankState::Confirmed)
            .map(|(r, _)| r)
            .collect()
    }

    /// Monotonic transition counters.
    pub fn counters(&self) -> DetectorCounters {
        DetectorCounters {
            suspects_raised: self.suspects_raised.load(Ordering::Relaxed),
            suspects_refuted: self.suspects_refuted.load(Ordering::Relaxed),
            ranks_confirmed_dead: self.confirmed_dead.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_drives_suspect_then_refute() {
        let det = FailureDetector::new(4);
        assert_eq!(det.state(2), RankState::Alive);
        det.suspect(2, 0);
        assert_eq!(det.state(2), RankState::Suspect);
        // The "dead" rank completes an op: it was merely slow.
        det.heartbeat(2);
        assert_eq!(det.state(2), RankState::Alive);
        let c = det.counters();
        assert_eq!(c.suspects_raised, 1);
        assert_eq!(c.suspects_refuted, 1);
        assert_eq!(c.ranks_confirmed_dead, 0);
    }

    #[test]
    fn crash_drives_suspect_then_confirm_and_confirmed_is_absorbing() {
        let det = FailureDetector::new(4);
        det.suspect(1, 3);
        // Join audit: rank 1 exited voluntarily with 2 of 5 ops done.
        det.observe_exit(1, 2, 5, false);
        assert_eq!(det.state(1), RankState::Confirmed);
        assert_eq!(det.confirmed(), vec![1]);
        // No resurrection: a late heartbeat cannot un-confirm.
        det.heartbeat(1);
        assert_eq!(det.state(1), RankState::Confirmed);
        // Re-confirming is idempotent.
        det.confirm(1);
        assert_eq!(det.counters().ranks_confirmed_dead, 1);
    }

    #[test]
    fn poison_unwind_is_not_a_crash() {
        let det = FailureDetector::new(4);
        // An innocent rank unwound mid-schedule because another rank
        // poisoned the run: leftover work, but not its fault.
        det.observe_exit(2, 1, 4, true);
        assert_eq!(det.state(2), RankState::Alive);
        // A clean full completion is a final heartbeat.
        det.suspect(3, 0);
        det.observe_exit(3, 4, 4, false);
        assert_eq!(det.state(3), RankState::Alive);
        assert_eq!(det.counters().suspects_refuted, 1);
    }

    #[test]
    fn repeated_suspicion_counts_once_until_refuted() {
        let det = FailureDetector::new(2);
        det.suspect(0, 1);
        det.suspect(0, 1);
        det.suspect(0, 1);
        assert_eq!(det.counters().suspects_raised, 1, "suspect is idempotent");
        det.heartbeat(0);
        det.suspect(0, 1);
        assert_eq!(det.counters().suspects_raised, 2, "fresh evidence counts again");
    }

    #[test]
    fn out_of_range_rank_reads_as_dead() {
        let det = FailureDetector::new(2);
        assert_eq!(det.state(7), RankState::Confirmed);
    }

    #[test]
    fn counter_deltas() {
        let det = FailureDetector::new(4);
        det.suspect(1, 0);
        let before = det.counters();
        det.heartbeat(1);
        det.confirm(2);
        let d = det.counters().delta_since(&before);
        assert_eq!(d.suspects_raised, 0);
        assert_eq!(d.suspects_refuted, 1);
        assert_eq!(d.ranks_confirmed_dead, 1);
    }
}
