//! Per-subsystem health probes over a metrics snapshot.
//!
//! A [`HealthReport`] is the "is anything quietly wrong" view a live run
//! exposes next to the raw metrics: each probe condenses one subsystem's
//! counters into a ratio with a named threshold. Probes only appear when
//! their subsystem actually ran (an executor probe on a sim-only process
//! would always read as a false alarm), so an empty report means "nothing
//! observed", not "all healthy".

use pdac_telemetry::RegistrySnapshot;
use serde::{Deserialize, Serialize};

/// Probe verdicts, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ProbeStatus {
    /// Within the healthy envelope.
    Ok,
    /// Outside the envelope — worth a look, not necessarily wrong.
    Warn,
}

/// One subsystem's condensed verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Probe {
    /// Subsystem label (`executor`, `detector`, `transport`, `pool`).
    pub subsystem: String,
    /// The ratio or count the verdict is based on.
    pub value: f64,
    /// The threshold the value is compared against.
    pub threshold: f64,
    /// Verdict.
    pub status: ProbeStatus,
    /// Human-readable explanation with the raw counters inlined.
    pub detail: String,
}

/// The health view of one snapshot.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// Probes for every subsystem the snapshot shows activity from.
    pub probes: Vec<Probe>,
}

fn counter(snap: &RegistrySnapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

fn ratio_probe(
    subsystem: &str,
    value: f64,
    threshold: f64,
    warn_above: bool,
    detail: String,
) -> Probe {
    let breached = if warn_above {
        value > threshold
    } else {
        value < threshold
    };
    Probe {
        subsystem: subsystem.to_string(),
        value,
        threshold,
        status: if breached {
            ProbeStatus::Warn
        } else {
            ProbeStatus::Ok
        },
        detail,
    }
}

impl HealthReport {
    /// Computes every applicable probe from `snap`.
    ///
    /// * **executor** — condvar parks per dependency wait (every wait is
    ///   counted once, in `exec.wait.{fast,spun,slow}`). Healthy
    ///   no-deadline runs park zero times; sustained parking means the
    ///   pipeline drains.
    /// * **detector** — suspicions never confirmed nor refuted: a
    ///   detector that raises but can't resolve is mistuned.
    /// * **transport** — epoch-fence rejections per one-sided operation;
    ///   a trickle is recovery working, a flood is stragglers looping.
    /// * **pool** — staging-buffer reuse rate; a cold pool on a steady
    ///   workload means the retain policy is losing the working set.
    pub fn from_snapshot(snap: &RegistrySnapshot) -> Self {
        let mut probes = Vec::new();

        let fast = counter(snap, "exec.wait.fast");
        let spun = counter(snap, "exec.wait.spun");
        let slow = counter(snap, "exec.wait.slow");
        let parked = counter(snap, "exec.wait.parked");
        let waits = fast + spun + slow;
        if waits > 0 {
            let share = parked as f64 / waits as f64;
            probes.push(ratio_probe(
                "executor",
                share,
                0.10,
                true,
                format!("{parked} parks over {waits} waits (fast {fast}, spun {spun}, slow {slow})"),
            ));
        }

        let raised = counter(snap, "faults.suspects_raised");
        if raised > 0 {
            let resolved = counter(snap, "faults.suspects_refuted")
                + counter(snap, "faults.ranks_confirmed_dead");
            let unresolved = raised.saturating_sub(resolved) as f64 / raised as f64;
            probes.push(ratio_probe(
                "detector",
                unresolved,
                0.5,
                true,
                format!("{raised} suspicions raised, {resolved} resolved"),
            ));
        }

        let ops = counter(snap, "knem.copies") + counter(snap, "rdma.wqes_posted");
        let fenced = counter(snap, "knem.fenced") + counter(snap, "faults.fenced_messages");
        if ops > 0 && fenced > 0 {
            let share = fenced as f64 / ops as f64;
            probes.push(ratio_probe(
                "transport",
                share,
                0.05,
                true,
                format!("{fenced} stale-epoch rejections over {ops} one-sided ops"),
            ));
        }

        let acquires = counter(snap, "exec.pool.acquires");
        if acquires > 0 {
            let reuses = counter(snap, "exec.pool.reuses");
            let rate = reuses as f64 / acquires as f64;
            probes.push(ratio_probe(
                "pool",
                rate,
                0.25,
                false,
                format!("{reuses} of {acquires} staging acquires reused a pooled buffer"),
            ));
        }

        HealthReport { probes }
    }

    /// True when no probe warns.
    pub fn healthy(&self) -> bool {
        self.probes.iter().all(|p| p.status == ProbeStatus::Ok)
    }

    /// Human-readable multi-line rendering.
    pub fn render(&self) -> String {
        if self.probes.is_empty() {
            return "health: no subsystem activity observed\n".to_string();
        }
        let mut out = String::new();
        for p in &self.probes {
            let status = match p.status {
                ProbeStatus::Ok => "ok  ",
                ProbeStatus::Warn => "WARN",
            };
            out.push_str(&format!(
                "health {status} {:<10} {:.3} (threshold {:.3}) — {}\n",
                p.subsystem, p.value, p.threshold, p.detail
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(counters: &[(&str, u64)]) -> RegistrySnapshot {
        let mut s = RegistrySnapshot::default();
        for (k, v) in counters {
            s.counters.insert(k.to_string(), *v);
        }
        s
    }

    #[test]
    fn empty_snapshot_yields_no_probes() {
        let r = HealthReport::from_snapshot(&RegistrySnapshot::default());
        assert!(r.probes.is_empty());
        assert!(r.healthy());
        assert!(r.render().contains("no subsystem activity"));
    }

    #[test]
    fn healthy_executor_and_pool_pass() {
        let r = HealthReport::from_snapshot(&snap(&[
            ("exec.wait.fast", 90),
            ("exec.wait.spun", 10),
            ("exec.pool.acquires", 100),
            ("exec.pool.reuses", 80),
        ]));
        assert_eq!(r.probes.len(), 2);
        assert!(r.healthy(), "{}", r.render());
    }

    #[test]
    fn executor_probe_counts_every_wait_once() {
        let r = HealthReport::from_snapshot(&snap(&[
            ("exec.wait.fast", 10),
            ("exec.wait.spun", 90),
            ("exec.wait.parked", 0),
        ]));
        assert_eq!(r.probes.len(), 1);
        assert!(r.probes[0].detail.contains("over 100 waits"), "{}", r.probes[0].detail);
        assert!(r.healthy(), "{}", r.render());
    }

    #[test]
    fn parked_waits_and_cold_pool_warn() {
        let r = HealthReport::from_snapshot(&snap(&[
            ("exec.wait.fast", 50),
            ("exec.wait.parked", 50),
            ("exec.pool.acquires", 100),
            ("exec.pool.reuses", 2),
        ]));
        assert!(!r.healthy());
        let warn: Vec<&str> = r
            .probes
            .iter()
            .filter(|p| p.status == ProbeStatus::Warn)
            .map(|p| p.subsystem.as_str())
            .collect();
        assert_eq!(warn, vec!["executor", "pool"]);
        assert!(r.render().contains("WARN"));
    }

    #[test]
    fn fence_trickle_vs_flood() {
        let quiet =
            HealthReport::from_snapshot(&snap(&[("knem.copies", 1000), ("knem.fenced", 3)]));
        assert!(quiet.healthy());
        let loud = HealthReport::from_snapshot(&snap(&[("knem.copies", 100), ("knem.fenced", 50)]));
        assert!(!loud.healthy());
    }
}
