//! Deterministic chaos-test harness: collectives under seeded faults.
//!
//! [`run_chaos`] executes one collective on the real-thread oracle with a
//! seed-derived fault cocktail — crashed ranks (optionally a cascading
//! multi-rank, mid-collective batch plus a flapping rank), a stalled rank,
//! and a transient device fault — in four steps:
//!
//! 1. **seed → plan**: the fault plan, the device fault and the simulated
//!    link degradation all derive from the `u64` seed;
//! 2. **recover**: [`RecoveryManager::run`] drives detect → shrink → fence
//!    → rebuild (or degrade) from observations alone — the harness has no
//!    god's-eye view of who died;
//! 3. **verify**: [`verify::check`] compares the survivors' bytes with the
//!    elected root;
//! 4. **time**: the survivor schedule runs through the contention
//!    simulator, whose report carries the simulator's own fault accounting.
//!
//! The outcome keeps the two legs' records apart: [`ChaosOutcome::stats`]
//! is what the runtime did, [`ChaosOutcome::sim_report`]'s `fault_stats`
//! what the simulator predicted for the survivor schedule.
//!
//! A run that cannot complete returns a typed [`CollectiveError`] quoting
//! the seed — **never** a hang: the chaos policy's op deadline bounds every wait, and
//! a loop bound or the per-attempt watchdog turns a livelock or an overlong
//! attempt into [`CollectiveError::Hang`]. Everything is a pure function of
//! the seed: same seed, same fault plan, same outcome.

use std::sync::Arc;
use std::time::Duration;

use pdac_mpisim::knem::DeviceFault;
use pdac_mpisim::{Communicator, RetryPolicy, TransportKind};
use pdac_simnet::{
    CorruptTarget, Fault, FaultPlan, FaultStats, Resource, SimConfig, SimExecutor, SimReport,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::adaptive::Request;
use crate::provenance::Decision;
use crate::recovery::{CollectiveError, RecoveryManager};
use crate::topocache::TopoCache;
use crate::verify;

/// Harness configuration: which faults [`run_chaos`] injects, and the
/// bounds [`RecoveryManager::run`] recovers under. The retry policy
/// governs per-operation behavior inside the executor.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Seed deriving every injected fault; quoted in all failures.
    pub seed: u64,
    /// Longest one executor attempt may take. Checked when the attempt
    /// returns — the policy's op deadline bounds every wait inside it — and
    /// exceeding it is a [`CollectiveError::Hang`].
    pub watchdog: Duration,
    /// Executor retry/timeout policy.
    pub policy: RetryPolicy,
    /// Inject the harsher cascading cocktail
    /// ([`FaultPlan::seeded_cascade`]): multiple mid-collective crashes
    /// plus, on larger worlds, a flapping rank.
    pub cascade: bool,
    /// Recovery episodes tolerated before recovery stops rebuilding
    /// distance-aware topologies and degrades to the baseline algorithms.
    pub max_recoveries: u32,
    /// One-sided transport backend for the execution leg; the timing leg
    /// charges the matching simulator cost model. Both backends share the
    /// epoch-fence contract, so recovery behaves identically.
    pub transport: TransportKind,
    /// Layer seeded *transient* payload corruption on top of the fault
    /// cocktail ([`FaultPlan::with_seeded_corruption`]): each targeted
    /// chunk arrives damaged once, is detected by the checksummed data
    /// path, and heals through a verified re-transmit.
    pub corruption: bool,
    /// A rank that *persistently* corrupts every chunk it serves, on every
    /// attempt. Retries cannot heal it, so the executor raises
    /// [`pdac_mpisim::ExecError::Corrupt`], the detector confirms the corrupter, and
    /// the recovery loop shrinks and fences it exactly like a crashed rank.
    pub corrupter: Option<usize>,
}

impl ChaosConfig {
    /// Defaults: 10 s watchdog, [`RetryPolicy::chaos`] with a 100 ms
    /// per-operation deadline (fast failure detection on small machines),
    /// single-crash cocktail, degradation after 3 recovery episodes.
    pub fn new(seed: u64) -> Self {
        ChaosConfig {
            seed,
            watchdog: Duration::from_secs(10),
            policy: RetryPolicy {
                op_deadline: Some(Duration::from_millis(100)),
                ..RetryPolicy::chaos()
            },
            cascade: false,
            max_recoveries: 3,
            transport: TransportKind::Knem,
            corruption: false,
            corrupter: None,
        }
    }

    /// Like [`Self::new`], but with the cascading multi-crash cocktail.
    pub fn cascade(seed: u64) -> Self {
        ChaosConfig { cascade: true, ..ChaosConfig::new(seed) }
    }

    /// Like [`Self::new`], but running on the given transport backend.
    pub fn on_transport(seed: u64, transport: TransportKind) -> Self {
        ChaosConfig { transport, ..ChaosConfig::new(seed) }
    }
}

/// What a successful chaos run looked like.
#[derive(Debug)]
pub struct ChaosOutcome {
    /// Whether recovery (communicator shrink + rebuild) ran.
    pub recovered: bool,
    /// Whether the run fell back to the distance-oblivious baseline
    /// algorithms (recovery churn, or a lone survivor).
    pub degraded: bool,
    /// World ranks the detector confirmed dead during the run, in the
    /// order they were shrunk out.
    pub failed_ranks: Vec<usize>,
    /// What the runtime did, as [`RecoveryManager::stats`] recorded it:
    /// the executor counters of every attempt (the detector's transitions
    /// among them), plus the manager's own counts — corrupters confirmed,
    /// re-runs after a transient timeout, topology rebuilds and the
    /// degrade. Every field is also published under one
    /// registry name; the simulator's prediction is not in it.
    pub stats: FaultStats,
    /// Timing of the final (survivor) schedule through the contention
    /// simulator under a seed-derived degraded link; its `fault_stats` is
    /// the simulator's own record (the degraded link, and the re-transmits
    /// it modelled for the survivors' transient corruption).
    pub sim_report: SimReport,
    /// Provenance of every recovery decision the run made: membership
    /// shrinks and root re-elections (from the [`RecoveryManager`]) plus
    /// any degraded-mode substitution, each with its named reason and
    /// inputs — ready to merge into a plan's [`crate::Provenance`].
    pub decisions: Vec<Decision>,
}

impl ChaosOutcome {
    /// One-line human-readable summary of the run: recovery disposition,
    /// failed ranks, and the runtime's fault accounting (including retry
    /// counts, total backoff, and the detector counters) via
    /// [`crate::metrics::fault_summary_line`].
    pub fn summary(&self) -> String {
        let mut disposition = if self.recovered {
            format!("recovered from rank failure {:?}", self.failed_ranks)
        } else {
            "no recovery needed".to_string()
        };
        if self.degraded {
            disposition.push_str(" [degraded to baseline]");
        }
        format!(
            "chaos: {disposition}; {}; survivor time {:.6}s",
            crate::metrics::fault_summary_line(&self.stats),
            self.sim_report.total_time,
        )
    }
}

/// Runs `what` on `comm` under the seeded fault cocktail of `cfg`,
/// recovering through [`RecoveryManager::run`]. See the module docs for the
/// guarantee this enforces.
///
/// `what` is a broadcast, an allgather or a byte-sum tree allreduce — the
/// collectives recovery has a degraded baseline for; its root is the
/// *preferred* world rank, re-elected if it crashes. The survivors' bytes
/// are checked by [`verify::check`] with the elected root.
///
/// Every run annotates the process-global flight recorder; a failing run
/// dumps the recorder (recent notes + metrics snapshot + `PDAC_SEED`)
/// before the error propagates, so CI gets the last things the harness
/// knew, not just the final error line.
pub fn run_chaos(
    comm: &Communicator,
    what: Request,
    cfg: &ChaosConfig,
) -> Result<ChaosOutcome, CollectiveError> {
    pdac_telemetry::flight::set_context("transport", format!("{:?}", cfg.transport).to_lowercase());
    pdac_telemetry::flight::set_context("machine", comm.machine().name.clone());
    pdac_telemetry::flight::note(format!(
        "chaos start: seed={} ranks={} what={what:?} cascade={} transport={:?}",
        cfg.seed,
        comm.size(),
        cfg.cascade,
        cfg.transport,
    ));
    let out = run_chaos_inner(comm, what, cfg);
    match &out {
        Ok(out) => pdac_telemetry::flight::note(format!(
            "chaos ok: seed={} recovered={} degraded={} failed={:?}",
            cfg.seed, out.recovered, out.degraded, out.failed_ranks
        )),
        Err(err) => {
            pdac_telemetry::flight::note(format!("chaos FAILED: seed={} err={err}", cfg.seed));
            if let Some(path) = pdac_telemetry::flight::dump("chaos-failure") {
                eprintln!("flight recorder dumped to {}", path.display());
            }
        }
    }
    out
}

fn run_chaos_inner(
    comm: &Communicator,
    what: Request,
    cfg: &ChaosConfig,
) -> Result<ChaosOutcome, CollectiveError> {
    let seed = cfg.seed;
    let telemetry = pdac_telemetry::global();
    let _span = telemetry.recorder().span(
        0,
        "chaos",
        || format!("run_chaos seed {seed}"),
        || vec![("seed", seed.into()), ("ranks", comm.size().into())],
    );
    telemetry.registry().add("chaos.runs", 1);

    // 1. Seed -> plan, in world ranks. The cocktail never crashes the
    // preferred root (the paper's leader is re-elected only when a *set
    // member* dies; killing the root of a bcast kills the data source).
    let mut plan = if cfg.cascade {
        FaultPlan::seeded_cascade(seed, comm.size(), 3, &[what.root])
    } else {
        FaultPlan::seeded(seed, comm.size(), &[what.root])
    };
    if cfg.corruption {
        plan = plan.with_seeded_corruption(comm.size());
    }
    if let Some(bad) = cfg.corrupter {
        plan = plan.corrupt_source(bad, 0xC0DE);
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let device_fault =
        DeviceFault::transient(rng.gen_range(0..4) as u64, 1 + rng.gen_range(0..2) as u64);
    let degrade_factor = 0.05 + 0.45 * rng.gen_f64();
    // One transport for the whole episode, so the fence raised after each
    // shrink guards every later attempt.
    let device = cfg.transport.create(Some(device_fault));

    // 2. Recover: detect -> shrink -> fence -> rebuild, or degrade.
    let mut mgr = RecoveryManager::new(Arc::new(TopoCache::new()), comm.clone());
    let done = mgr.run(what, &plan, &device, cfg)?;

    // 3. The run completed — now the bytes must actually be right on the
    // (possibly shrunk) communicator.
    if let Some(res) = &done.result {
        let root = mgr.elect_root(what.root);
        verify::check(Request { root, ..what }, mgr.comm().size(), res)
            .map_err(|e| CollectiveError::Verify { seed: Some(seed), detail: e.to_string() })?;
    }

    // 4. Timing leg: the survivor schedule through the contention simulator
    // under a seed-derived degraded memory controller. The survivors'
    // transient corruption edges ride along, so the simulator charges the
    // detect-and-retransmit latency the executor paid on the same copies.
    // Source targets (persistent corrupters) stay out: a corrupter that
    // served a chunk has been fenced out of the survivor schedule by now,
    // and one that served none has nothing to charge.
    let sim_plan = plan.remap(mgr.survivors()).faults().iter().fold(
        FaultPlan::new(seed).degrade_link(Resource::Mc(0), degrade_factor),
        |sim_plan, fault| match *fault {
            Fault::Corrupt { target: target @ CorruptTarget::Edge { .. }, kind, attempts } => {
                sim_plan.corrupt(target, kind, attempts)
            }
            _ => sim_plan,
        },
    );
    let survivors = mgr.comm();
    let sim_report =
        SimExecutor::new(survivors.machine(), survivors.binding(), SimConfig::default())
            .with_transport_model(cfg.transport.sim_model())
            .with_fault_plan(sim_plan)
            .with_deadline(3600.0)
            .run(&done.schedule)
            .map_err(|e| CollectiveError::Verify {
                seed: Some(seed),
                detail: format!("simulator leg failed: {e}"),
            })?;

    Ok(ChaosOutcome {
        // Every recovery episode removes at least one rank.
        recovered: !mgr.failed().is_empty(),
        degraded: mgr.degraded(),
        failed_ranks: mgr.failed().to_vec(),
        stats: mgr.stats(),
        sim_report,
        decisions: mgr.decisions(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::Collective;
    use crate::metrics::fault_summary_line;
    use crate::provenance::DecisionKind;
    use pdac_hwtopo::{machines, BindingPolicy};

    fn world(n: usize) -> Communicator {
        let m = Arc::new(machines::flat_smp(n));
        let binding = BindingPolicy::Contiguous.bind(&m, n).unwrap();
        Communicator::world(m, binding)
    }

    #[test]
    fn chaos_bcast_recovers_from_crash() {
        let comm = world(6);
        let cfg = ChaosConfig::new(0);
        let out = run_chaos(&comm, Request::new(Collective::Bcast, 0, 20_000), &cfg)
            .unwrap_or_else(|e| panic!("seed {}: {e}", cfg.seed));
        assert!(out.recovered, "seed 0 crashes a non-root rank");
        assert!(!out.degraded, "a single crash recovers without degrading");
        assert_eq!(out.failed_ranks.len(), 1);
        assert!(out.stats.topology_rebuilds >= 1);
        assert!(out.stats.ranks_confirmed_dead >= 1, "death came through the detector");
        assert!(out.sim_report.fault_stats.links_degraded >= 1, "sim leg degraded a link");
        assert!(out.sim_report.total_time > 0.0);
        let line = out.summary();
        println!("{line}");
        assert!(line.contains("recovered from rank failure"), "{line}");
        assert!(line.contains("backoff"), "retry/backoff accounting is summarized: {line}");
    }

    #[test]
    fn chaos_recovers_identically_on_rdma_transport() {
        // Same seed, same machine, same collective — only the one-sided
        // backend differs. The epoch-fence contract is shared, so detection
        // and the final survivor set must match the KNEM run.
        let comm = world(6);
        let what = Request::new(Collective::Bcast, 0, 20_000);
        let knem = run_chaos(&comm, what, &ChaosConfig::new(0))
            .unwrap_or_else(|e| panic!("knem seed 0: {e}"));
        let rdma_cfg = ChaosConfig::on_transport(0, TransportKind::Rdma);
        let rdma = run_chaos(&comm, what, &rdma_cfg).unwrap_or_else(|e| panic!("rdma seed 0: {e}"));
        assert_eq!(knem.failed_ranks, rdma.failed_ranks);
        assert_eq!(knem.recovered, rdma.recovered);
        assert_eq!(knem.degraded, rdma.degraded);
        assert!(
            rdma.sim_report.total_time < knem.sim_report.total_time,
            "rdma timing leg charges the cheaper setup: {} vs {}",
            rdma.sim_report.total_time,
            knem.sim_report.total_time
        );
    }

    #[test]
    fn chaos_outcome_is_seed_deterministic() {
        let comm = world(5);
        let run = || {
            run_chaos(&comm, Request::new(Collective::Allgather, 0, 2048), &ChaosConfig::new(77))
        };
        let a = run().unwrap_or_else(|e| panic!("seed 77: {e}"));
        let b = run().unwrap_or_else(|e| panic!("seed 77: {e}"));
        assert_eq!(a.failed_ranks, b.failed_ranks);
        assert_eq!(a.recovered, b.recovered);
        assert_eq!(a.degraded, b.degraded);
        assert_eq!(
            a.sim_report.total_time.to_bits(),
            b.sim_report.total_time.to_bits(),
            "survivor timing is bit-exact across runs"
        );
    }

    #[test]
    fn lone_survivor_degrades_instead_of_erroring() {
        // Two ranks, one crashes: the shrink leaves a single survivor and
        // the "collective" degenerates — degraded, not an error.
        let comm = world(2);
        let mut cfg = ChaosConfig::new(11);
        cfg.watchdog = Duration::from_secs(5);
        let out = run_chaos(&comm, Request::new(Collective::Bcast, 0, 4096), &cfg)
            .unwrap_or_else(|e| panic!("seed 11: {e}"));
        assert!(out.degraded, "one survivor cannot run a collective");
        assert_eq!(out.failed_ranks.len(), 1);
        assert!(out.stats.degraded_runs >= 1);
        assert!(out.summary().contains("degraded to baseline"), "{}", out.summary());
    }

    #[test]
    fn recovery_churn_past_bound_downgrades_to_baseline() {
        // With a zero recovery budget the first confirmed death flips the
        // harness to baseline schedules — the run still completes and
        // verifies over the survivors.
        let comm = world(6);
        let mut cfg = ChaosConfig::new(0);
        cfg.max_recoveries = 0;
        let out = run_chaos(&comm, Request::new(Collective::Bcast, 0, 20_000), &cfg)
            .unwrap_or_else(|e| panic!("seed 0: {e}"));
        assert!(out.recovered);
        assert!(out.degraded, "zero recovery budget forces the baseline fallback");
        assert_eq!(out.failed_ranks.len(), 1);
        assert!(out.stats.degraded_runs >= 1);
        let line = out.summary();
        assert!(line.contains("degraded to baseline"), "{line}");
    }

    #[test]
    fn cascading_crashes_recover_through_repeated_shrinks() {
        // The cascade cocktail can kill several ranks mid-collective; every
        // recovery must come through the detector→shrink pipeline, and
        // the final payload must verify on whatever survives. Allgather is
        // the right victim: each rank executes n-1 pulls, so the 1-3 op
        // crash budgets fire in the middle of the ring (a bcast leaf has a
        // single op and would outrun the budget).
        let comm = world(8);
        let mut hit_multi = false;
        for seed in 0..12 {
            let cfg = ChaosConfig::cascade(seed);
            let out = run_chaos(&comm, Request::new(Collective::Allgather, 0, 2048), &cfg)
                .unwrap_or_else(|e| panic!("cascade seed {seed}: {e}"));
            if out.failed_ranks.len() > 1 {
                hit_multi = true;
            }
            assert_eq!(
                out.failed_ranks.len() as u64,
                out.stats.ranks_confirmed_dead,
                "seed {seed}: every removal was detector-confirmed (no omniscient path)"
            );
            assert_eq!(
                out.stats.topology_rebuilds,
                out.failed_ranks.len() as u64,
                "seed {seed}: one rebuild per rank shrunk out"
            );
        }
        assert!(hit_multi, "12 cascade seeds should include a multi-rank crash");
    }

    #[test]
    fn chaos_outcome_carries_recovery_provenance() {
        let comm = world(6);
        let what = Request::new(Collective::Bcast, 0, 20_000);
        let out =
            run_chaos(&comm, what, &ChaosConfig::new(0)).unwrap_or_else(|e| panic!("seed 0: {e}"));
        let shrink = out
            .decisions
            .iter()
            .find(|d| d.kind == DecisionKind::Recovery && d.subject.starts_with("membership"))
            .expect("membership shrink recorded");
        assert!(shrink.input("dead_epoch").is_some());
        assert!(shrink.input("new_epoch").is_some());
        // Force the baseline fallback: the substitution itself is recorded
        // with its reason and the budget input that tripped it.
        let mut cfg = ChaosConfig::new(0);
        cfg.max_recoveries = 0;
        let out = run_chaos(&comm, what, &cfg).unwrap_or_else(|e| panic!("seed 0: {e}"));
        let sub = out
            .decisions
            .iter()
            .find(|d| d.subject == "degraded substitution")
            .expect("substitution recorded");
        assert_eq!(sub.choice, "baseline binomial bcast");
        assert!(sub.reason.contains("max_recoveries"), "{}", sub.reason);
        assert_eq!(sub.input("max_recoveries"), Some("0"));
    }

    #[test]
    fn transient_corruption_heals_under_chaos() {
        // Seeded transient corruption layered on the regular cocktail:
        // every damaged chunk must be caught by the checksummed data path
        // and healed by a verified re-transmit — the run completes and the
        // payload check inside run_chaos still passes. Allgather gives
        // every rank n-1 copies, so the seeded op indices (0..4) always
        // land on real operations.
        let comm = world(6);
        let mut detections = 0u64;
        let mut retransmits = 0u64;
        let mut last_line = String::new();
        for seed in 0..6 {
            let cfg = ChaosConfig { corruption: true, ..ChaosConfig::new(seed) };
            let out = run_chaos(&comm, Request::new(Collective::Allgather, 0, 2048), &cfg)
                .unwrap_or_else(|e| panic!("corruption seed {seed}: {e}"));
            assert!(
                out.stats.checksums_stamped > 0,
                "seed {seed}: every chunk moved through the checksummed path"
            );
            detections += out.stats.corrupt_detected;
            retransmits += out.stats.retransmits;
            last_line = fault_summary_line(&out.stats);
        }
        assert!(detections >= 1, "six seeds must damage at least one chunk");
        assert!(retransmits >= 1, "each detection is healed by a counted re-transmit");
        assert!(last_line.contains("corrupt detected"), "{last_line}");
    }

    #[test]
    fn persistent_corrupter_is_fenced_like_a_crashed_rank() {
        // A rank that damages every chunk it serves cannot be healed by
        // retries: the executor exhausts the budget, raises the typed
        // Corrupt error, the detector confirms the peer, and the recovery
        // loop shrinks and fences it — the collective then completes over the
        // survivors exactly as it would after a crash.
        let comm = world(6);
        let cfg = ChaosConfig { corrupter: Some(3), ..ChaosConfig::new(5) };
        let out = run_chaos(&comm, Request::new(Collective::Allgather, 0, 2048), &cfg)
            .unwrap_or_else(|e| panic!("corrupter seed 5: {e}"));
        assert!(
            out.failed_ranks.contains(&3),
            "the corrupter is fenced out: {:?}",
            out.failed_ranks
        );
        assert!(out.recovered, "fencing the corrupter is a recovery");
        assert!(
            out.stats.corrupt_detected > u64::from(cfg.policy.max_retries),
            "every attempt on the poisoned link was detected: {}",
            out.stats.corrupt_detected
        );
        assert!(
            out.stats.retransmits >= u64::from(cfg.policy.max_retries),
            "the full retry budget was spent on re-transmits: {}",
            out.stats.retransmits
        );
        assert!(
            out.stats.ranks_confirmed_dead >= 1,
            "the corrupter came through the detector, not a god's-eye view"
        );
    }
}
