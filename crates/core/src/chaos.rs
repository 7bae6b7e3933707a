//! Deterministic chaos-test harness: collectives under seeded faults.
//!
//! [`run_chaos`] executes one collective on the real-thread oracle with a
//! seed-derived fault cocktail — crashed ranks (optionally a cascading
//! multi-rank, mid-collective batch plus a flapping rank), a stalled rank,
//! and a transient KNEM device fault — wrapped in a watchdog. Since the
//! membership layer landed, the harness has **no god's-eye view**: it never
//! consults the fault plan to decide who died. Failures surface only
//! through the observation pipeline:
//!
//! 1. **detect** — the [`FailureDetector`] attached to every executor
//!    attempt turns op completions into heartbeats, overlong waits into
//!    suspicions, and the join audit into confirmed deaths;
//! 2. **agree** — detector-confirmed deaths are fed to
//!    [`RecoveryManager::propose_failure`], and
//!    [`RecoveryManager::await_agreement`] runs the coordinator-based
//!    two-phase vote until every live rank holds the same
//!    `(epoch, survivor_set)`;
//! 3. **fence** — the shared KNEM device is fenced at the new epoch, so a
//!    straggler still executing under the dead epoch is rejected with a
//!    typed stale-epoch error instead of delivering into the rebuilt
//!    topology;
//! 4. **rebuild or degrade** — the distance-aware topology is rebuilt over
//!    the survivors; when agreement fails (no survivors, coordinator churn)
//!    or recovery churns past [`ChaosConfig::max_recoveries`], the harness
//!    falls back to the distance-oblivious `core/baseline` algorithms and
//!    records `degraded` in the [`ChaosOutcome`] rather than erroring.
//!
//! Anything else returns a typed [`CollectiveError`] quoting the seed —
//! **never** a hang (the watchdog converts one into
//! [`CollectiveError::Hang`]). Everything is a pure function of the `u64`
//! seed: same seed, same fault plan, same outcome.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use pdac_mpisim::knem::DeviceFault;
use pdac_mpisim::{
    Communicator, ExecError, FailureDetector, RetryPolicy, ThreadExecutor, Transport,
    TransportKind,
};
use pdac_simnet::{
    CorruptTarget, DataOp, Fault, FaultPlan, FaultStats, Resource, Schedule, SimConfig,
    SimExecutor, SimReport,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::adaptive::{AdaptiveColl, AllreduceAlgo, Collective, Request};
use crate::baseline;
use crate::decision_inputs;
use crate::edges::Edge;
use crate::membership::MembershipConfig;
use crate::provenance::{Decision, DecisionKind};
use crate::recovery::{CollectiveError, RecoveryManager};
use crate::sched::{allreduce_schedule, SchedConfig};
use crate::topocache::TopoCache;
use crate::tree::Tree;
use crate::verify::{self, pattern};

/// Harness configuration. The watchdog bounds each attempt (execution +
/// recovery + re-execution); the retry policy governs per-operation
/// behavior inside the executor.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Seed deriving every injected fault; quoted in all failures.
    pub seed: u64,
    /// Wall-clock budget per executor attempt before declaring a hang.
    pub watchdog: Duration,
    /// Executor retry/timeout policy.
    pub policy: RetryPolicy,
    /// Inject the harsher cascading cocktail
    /// ([`FaultPlan::seeded_cascade`]): multiple mid-collective crashes
    /// plus, on larger worlds, a flapping rank.
    pub cascade: bool,
    /// Recovery episodes tolerated before the harness stops trusting
    /// coordinated rebuilds and degrades to the baseline algorithms.
    pub max_recoveries: u32,
    /// Bounds on each survivor-agreement episode.
    pub membership: MembershipConfig,
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
    /// [`ExecError::Corrupt`], the detector confirms the corrupter, and
    /// the membership pipeline fences it exactly like a crashed rank.
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
            membership: MembershipConfig::default(),
            transport: TransportKind::Knem,
            corruption: false,
            corrupter: None,
        }
    }

    /// Like [`Self::new`], but with the cascading multi-crash cocktail.
    pub fn cascade(seed: u64) -> Self {
        ChaosConfig {
            cascade: true,
            ..ChaosConfig::new(seed)
        }
    }

    /// Like [`Self::new`], but running on the given transport backend.
    pub fn on_transport(seed: u64, transport: TransportKind) -> Self {
        ChaosConfig {
            transport,
            ..ChaosConfig::new(seed)
        }
    }

    /// Like [`Self::new`], but layering seeded transient payload
    /// corruption on top of the cocktail.
    pub fn with_corruption(seed: u64) -> Self {
        ChaosConfig {
            corruption: true,
            ..ChaosConfig::new(seed)
        }
    }

    /// Like [`Self::new`], but with `corrupter` persistently corrupting
    /// every chunk it serves — the escalation path, proving a corrupter is
    /// fenced like a crashed rank.
    pub fn with_corrupter(seed: u64, corrupter: usize) -> Self {
        ChaosConfig {
            corrupter: Some(corrupter),
            ..ChaosConfig::new(seed)
        }
    }
}

/// What a successful chaos run looked like.
#[derive(Debug)]
pub struct ChaosOutcome {
    /// Whether recovery (agreement + communicator shrink + rebuild) ran.
    pub recovered: bool,
    /// Whether the run fell back to the distance-oblivious baseline
    /// algorithms (agreement failure, recovery churn, or a lone survivor).
    pub degraded: bool,
    /// World ranks agreed dead during the run, in detection order.
    pub failed_ranks: Vec<usize>,
    /// Merged fault accounting: executor counters from every attempt, the
    /// detector's suspicion/confirmation transitions, the agreement
    /// episode's rounds, and the recovery manager's rebuild count.
    pub stats: FaultStats,
    /// Timing of the final (survivor) schedule through the contention
    /// simulator under a seed-derived degraded link; its `fault_stats`
    /// carries the merged accounting of the whole chaos run.
    pub sim_report: SimReport,
    /// Provenance of every recovery decision the run made: membership
    /// shrinks and root re-elections (from the [`RecoveryManager`]) plus
    /// any degraded-mode substitution, each with its named reason and
    /// inputs — ready to merge into a plan's [`crate::Provenance`].
    pub decisions: Vec<Decision>,
}

impl ChaosOutcome {
    /// One-line human-readable summary of the run: recovery disposition,
    /// failed ranks, and the merged fault accounting (including retry
    /// counts, total backoff, and the membership counters) via
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

/// Rank-order binomial tree rooted at `root` — the distance-oblivious
/// shape degraded allreduce runs on (baseline has no allreduce builder).
fn binomial_tree(n: usize, root: usize) -> Tree {
    let edges: Vec<Edge> = (1..n)
        .map(|i| {
            let child = (root + i) % n;
            let parent = (root + (i & (i - 1))) % n;
            Edge {
                u: parent.min(child),
                v: parent.max(child),
                w: 0,
            }
        })
        .collect();
    Tree::from_edges(n, root, &edges)
}

/// The provenance record of one degraded-mode substitution: which
/// distance-oblivious baseline replaced the adaptive schedule, and why.
fn degraded_decision(
    what: Request,
    reason: impl Into<String>,
    seed: u64,
    recoveries: u32,
    max_recoveries: u32,
    survivors: usize,
) -> Decision {
    let substitute = match what.collective {
        Collective::Bcast => "baseline binomial bcast",
        Collective::Allgather => "baseline ring allgather",
        Collective::Allreduce => "binomial-tree allreduce",
        other => unreachable!("run_chaos rejects {other:?}"),
    };
    Decision::new(
        DecisionKind::Recovery,
        "degraded substitution",
        substitute,
        reason,
        decision_inputs![
            ("seed", seed),
            ("recoveries", recoveries),
            ("max_recoveries", max_recoveries),
            ("survivors", survivors),
        ],
    )
}

/// Degraded-mode schedule: the distance-oblivious baselines, which need
/// only the local live list — safe to build without a coordinated view.
fn build_degraded(mgr: &RecoveryManager, what: Request) -> Schedule {
    let n = mgr.comm().size();
    let p2p = pdac_mpisim::P2pConfig::default();
    let bytes = what.bytes;
    match what.collective {
        Collective::Bcast => {
            baseline::bcast::binomial(n, mgr.elect_root(what.root), bytes, &p2p)
        }
        Collective::Allgather => baseline::allgather::ring(n, bytes, &p2p),
        Collective::Allreduce => {
            let tree = binomial_tree(n, mgr.elect_root(what.root));
            allreduce_schedule(&tree, bytes, &SchedConfig::default())
        }
        other => unreachable!("run_chaos rejects {other:?}"),
    }
}

/// One executor attempt under a watchdog. `Err(())` means the watchdog
/// fired — the executor neither finished nor returned an error in time.
/// The attempt runs with the shared fenced transport, the episode's failure
/// detector, and the current communicator epoch stamped on every one-sided
/// registration.
#[allow(clippy::too_many_arguments)]
fn run_attempt(
    schedule: Schedule,
    transport: Arc<dyn Transport>,
    policy: RetryPolicy,
    faults: Option<FaultPlan>,
    detector: Arc<FailureDetector>,
    epoch: u64,
    watchdog: Duration,
) -> Result<Result<pdac_mpisim::ExecResult, ExecError>, ()> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut exec = ThreadExecutor::with_transport(transport)
            .with_policy(policy)
            .with_detector(detector)
            .with_epoch(epoch);
        if let Some(plan) = faults {
            exec = exec.with_faults(plan);
        }
        let _ = tx.send(exec.run(&schedule, pattern));
    });
    rx.recv_timeout(watchdog).map_err(|_| ())
}

/// Runs `what` on `comm` under the seeded fault cocktail of `cfg`,
/// recovering from failures detected through the detector→agreement
/// pipeline. See the module docs for the guarantee this enforces.
///
/// `what` is a broadcast, an allgather or a byte-sum tree allreduce — the
/// collectives the harness has a degraded baseline for; its root is the
/// *preferred* world rank, re-elected if it crashes. The survivors' bytes
/// are checked by [`verify::check`] with the elected root.
///
/// Every run annotates the process-global flight recorder; a failing run
/// dumps the recorder (recent notes + metrics snapshot + `PDAC_SEED`)
/// before the error propagates, so CI gets the last things the harness
/// knew, not just the final error line.
pub fn run_chaos(
    comm: &Communicator,
    coll: AdaptiveColl,
    what: Request,
    cfg: &ChaosConfig,
) -> Result<ChaosOutcome, CollectiveError> {
    assert!(
        matches!(
            what,
            Request { collective: Collective::Bcast | Collective::Allgather, .. }
                | Request {
                    collective: Collective::Allreduce,
                    op: DataOp::Add,
                    allreduce: AllreduceAlgo::Tree,
                    ..
                }
        ),
        "the chaos harness has degraded baselines only for bcast, allgather and \
         byte-sum tree allreduce, not {what:?}"
    );
    pdac_obs::flight::set_context("transport", format!("{:?}", cfg.transport).to_lowercase());
    pdac_obs::flight::set_context("machine", comm.machine().name.clone());
    pdac_obs::flight::note(format!(
        "chaos start: seed={} ranks={} what={what:?} cascade={} transport={:?}",
        cfg.seed,
        comm.size(),
        cfg.cascade,
        cfg.transport,
    ));
    match run_chaos_inner(comm, coll, what, cfg) {
        Ok(out) => {
            pdac_obs::flight::note(format!(
                "chaos ok: seed={} recovered={} degraded={} failed={:?}",
                cfg.seed, out.recovered, out.degraded, out.failed_ranks
            ));
            Ok(out)
        }
        Err(err) => {
            pdac_obs::flight::note(format!("chaos FAILED: seed={} err={err}", cfg.seed));
            if let Some(path) = pdac_obs::flight::dump("chaos-failure") {
                eprintln!("flight recorder dumped to {}", path.display());
            }
            Err(err)
        }
    }
}

fn run_chaos_inner(
    comm: &Communicator,
    coll: AdaptiveColl,
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
    let preferred_root = what.root;
    let mut mgr = RecoveryManager::new(coll, Arc::new(TopoCache::new()), comm.clone());
    let mut stats = FaultStats::default();
    // Degraded-mode substitutions recorded as they happen; merged with the
    // manager's membership/election decisions into the outcome.
    let mut substitutions: Vec<Decision> = Vec::new();

    // Seed-derived fault cocktail, in world ranks. It never crashes the
    // preferred root (the paper's leader is re-elected only when a *set
    // member* dies; killing the root of a bcast kills the data source).
    let mut plan = if cfg.cascade {
        FaultPlan::seeded_cascade(seed, comm.size(), 3, &[preferred_root])
    } else {
        FaultPlan::seeded(seed, comm.size(), &[preferred_root])
    };
    if cfg.corruption {
        plan = plan.with_seeded_corruption(comm.size());
    }
    if let Some(bad) = cfg.corrupter {
        plan = plan.corrupt_source(bad, 0xC0DE);
    }
    let plan = plan;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let device_fault =
        DeviceFault::transient(rng.gen_range(0..4) as u64, 1 + rng.gen_range(0..2) as u64);
    let degrade_factor = 0.05 + 0.45 * rng.gen_f64();

    // One transport for the whole episode: the epoch fence raised after
    // each agreement must be visible to stragglers of earlier attempts.
    let device = cfg.transport.create(Some(device_fault));
    let suspect_after = cfg
        .policy
        .op_deadline
        .map(|d| (d / 5).max(Duration::from_millis(1)))
        .unwrap_or(Duration::from_millis(20));

    let mut recovered = false;
    let mut degraded = false;
    let mut recoveries = 0u32;
    let mut attempt_faults = Some(plan.clone());
    // Generous bound: every world rank dying one-by-one plus transient
    // retries. Exceeding it means the episode is livelocked — report a
    // hang rather than loop forever.
    let max_attempts = comm.size() as u32 + 4;
    let mut attempts = 0u32;

    let final_res = loop {
        attempts += 1;
        if attempts > max_attempts {
            return Err(CollectiveError::Hang {
                seed: Some(seed),
                watchdog: cfg.watchdog,
            });
        }
        if mgr.comm().size() == 1 {
            // Lone survivor: there is no collective left to run. Degraded
            // by definition — the caller gets its own data back.
            if !degraded {
                degraded = true;
                stats.degraded_runs += 1;
                telemetry.registry().add("chaos.degraded", 1);
                substitutions.push(degraded_decision(
                    what,
                    "lone survivor: no peers remain to run a collective with",
                    seed,
                    recoveries,
                    cfg.max_recoveries,
                    mgr.comm().size(),
                ));
            }
            break None;
        }
        let schedule = if degraded {
            build_degraded(&mgr, what)
        } else {
            mgr.plan(what)
        };
        let detector = Arc::new(FailureDetector::with_suspect_after(
            mgr.comm().size(),
            suspect_after,
        ));
        let outcome = run_attempt(
            schedule,
            Arc::clone(&device),
            cfg.policy,
            attempt_faults.take(),
            Arc::clone(&detector),
            mgr.epoch(),
            cfg.watchdog,
        )
        .map_err(|()| CollectiveError::Hang {
            seed: Some(seed),
            watchdog: cfg.watchdog,
        })?;

        // Decide what the attempt means — from *observations only*. A
        // crashed leaf has no dependents, so the run can "complete" while
        // the join audit still proves a member died; a dropped notification
        // times a dependent out without anyone being dead.
        let confirmed_current = match &outcome {
            Ok(res) => {
                stats.merge(&res.fault_stats);
                detector.confirmed()
            }
            Err(ExecError::Timeout { .. }) => {
                stats.timeouts += 1;
                detector.confirmed()
            }
            Err(ExecError::StaleEpoch { .. }) => {
                // A straggler of a fenced epoch surfaced in-line; the next
                // attempt runs under the current epoch.
                stats.fenced_messages += 1;
                Vec::new()
            }
            Err(ExecError::Knem { retries, .. }) => {
                // The device fault outlived the retry budget; the transient
                // window heals with attempts, so retry on the same
                // communicator.
                stats.retries += u64::from(*retries);
                Vec::new()
            }
            Err(ExecError::Corrupt { peer, attempts, .. }) => {
                // Every re-transmit from `peer` failed verification: the
                // link is not flaky, the source is poisoned. An errored run
                // carries no executor counters, so reconstruct the attempt's
                // integrity accounting deterministically — `attempts`
                // re-transmits, each preceded by a detection, plus the
                // detection that exhausted the budget — and escalate the
                // peer to confirmed-dead so the membership pipeline fences
                // it exactly like a crashed rank.
                stats.retransmits += u64::from(*attempts);
                stats.corrupt_detected += u64::from(*attempts) + 1;
                stats.retries += u64::from(*attempts);
                detector.confirm(*peer);
                detector.confirmed()
            }
            Err(_) => Vec::new(),
        };
        if outcome.is_err() {
            // A completed run folds the detector transitions into its own
            // fault accounting; an errored one carries no stats, so pull
            // the counters straight off the detector.
            let c = detector.counters();
            stats.suspects_raised += c.suspects_raised;
            stats.suspects_refuted += c.suspects_refuted;
            stats.ranks_confirmed_dead += c.ranks_confirmed_dead;
        }

        if confirmed_current.is_empty() {
            match outcome {
                Ok(res) => break Some(res),
                Err(ExecError::Timeout { .. }) => {
                    // Nobody is proven dead: the timeout was transient
                    // (dropped notification, stall past the deadline).
                    // Retry on the same communicator.
                    stats.retries += 1;
                    continue;
                }
                Err(ExecError::StaleEpoch { .. }) | Err(ExecError::Knem { .. }) => continue,
                Err(err) => {
                    return Err(CollectiveError::Exec {
                        seed: Some(seed),
                        err,
                    });
                }
            }
        }

        // Deaths were observed: run the membership pipeline.
        let world_confirmed: Vec<usize> = confirmed_current
            .iter()
            .map(|&r| mgr.survivors()[r])
            .collect();
        let world_suspects: Vec<usize> = detector
            .suspected()
            .iter()
            .map(|&r| mgr.survivors()[r])
            .collect();
        telemetry.recorder().instant(
            0,
            "chaos",
            || format!("detector confirmed dead world ranks {world_confirmed:?}"),
            || {
                vec![
                    ("confirmed", world_confirmed.len().into()),
                    ("seed", seed.into()),
                ]
            },
        );
        recoveries += 1;
        if degraded || recoveries > cfg.max_recoveries {
            // Past the churn bound (or already degraded): stop trusting
            // coordinated rebuilds. Shrink by local knowledge and fall back
            // to the rank-order baselines, which need no coordinated view.
            if !degraded {
                degraded = true;
                stats.degraded_runs += 1;
                telemetry.registry().add("chaos.degraded", 1);
                substitutions.push(degraded_decision(
                    what,
                    "recovery churn exceeded the max_recoveries budget; \
                     coordinated rebuilds are no longer trusted",
                    seed,
                    recoveries,
                    cfg.max_recoveries,
                    mgr.comm().size(),
                ));
            }
            for world in world_confirmed {
                match mgr.mark_failed(world) {
                    Ok(()) | Err(CollectiveError::UnknownRank { .. }) => {}
                    Err(e) => return Err(e),
                }
            }
        } else {
            for &world in &world_confirmed {
                mgr.propose_failure(world)?;
            }
            match mgr.await_agreement(&world_suspects, &cfg.membership, Some(seed)) {
                Ok(outcome) => {
                    telemetry.registry().add("chaos.recoveries", 1);
                    telemetry.recorder().instant(
                        0,
                        "chaos",
                        || {
                            format!(
                                "agreement: epoch {} survivors {:?} ({} rounds, {} reelections)",
                                outcome.epoch,
                                outcome.survivors,
                                outcome.rounds,
                                outcome.reelections
                            )
                        },
                        || vec![("rounds", outcome.rounds.into()), ("seed", seed.into())],
                    );
                }
                Err(CollectiveError::Agreement { err }) => {
                    // Agreement could not converge: degraded mode, shrink
                    // by local knowledge.
                    telemetry.recorder().instant(
                        0,
                        "chaos",
                        || format!("agreement failed ({err}); degrading to baseline"),
                        || vec![("seed", seed.into())],
                    );
                    degraded = true;
                    stats.degraded_runs += 1;
                    telemetry.registry().add("chaos.degraded", 1);
                    substitutions.push(degraded_decision(
                        what,
                        format!(
                            "survivor agreement failed ({err}); shrinking by \
                             local knowledge only"
                        ),
                        seed,
                        recoveries,
                        cfg.max_recoveries,
                        mgr.comm().size(),
                    ));
                    for world in world_confirmed {
                        match mgr.mark_failed(world) {
                            Ok(()) | Err(CollectiveError::UnknownRank { .. }) => {}
                            Err(e) => return Err(e),
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
        recovered = true;
        // Fence the dead epochs: any straggler still holding the old epoch
        // is rejected by the device rather than delivered into the rebuilt
        // topology.
        device.fence_epochs_below(mgr.epoch());
        // Re-inject the survivors' faults in the shrunk rank space, so a
        // crash whose budget never fired (its rank was blocked when the
        // attempt died) still fires on a later attempt: cascading crashes
        // keep cascading.
        let next_plan = plan.remap(mgr.survivors());
        attempt_faults = (!next_plan.is_empty()).then_some(next_plan);
    };

    // The run completed — now the bytes must actually be right on the
    // (possibly shrunk) communicator.
    let root = mgr.elect_root(preferred_root);
    let n = mgr.comm().size();
    if let Some(res) = &final_res {
        verify::check(Request { root, ..what }, n, res).map_err(|e| CollectiveError::Verify {
            seed: Some(seed),
            detail: e.to_string(),
        })?;
    }
    stats.merge(&mgr.stats());
    stats.fenced_messages = stats.fenced_messages.max(device.fenced_messages());

    // Timing leg: the survivor schedule through the contention simulator
    // under a seed-derived degraded memory controller, with the chaos
    // run's accounting merged into the report.
    let machine = mgr.comm().machine_arc();
    let binding = mgr.comm().binding().clone();
    let sim_schedule = if degraded {
        build_degraded(&mgr, what)
    } else {
        mgr.plan(what)
    };
    // The survivors' transient corruption edges ride along, so the
    // simulator charges the detect-and-retransmit latency the executor
    // paid on the same copies. Source targets (persistent corrupters) stay
    // out: a corrupter that served a chunk has been fenced out of the
    // survivor schedule by now, and one that served none has nothing to
    // charge.
    let sim_plan = plan.remap(mgr.survivors()).faults().iter().fold(
        FaultPlan::new(seed).degrade_link(Resource::Mc(0), degrade_factor),
        |sim_plan, fault| match *fault {
            Fault::Corrupt { target: target @ CorruptTarget::Edge { .. }, kind, attempts } => {
                sim_plan.corrupt(target, kind, attempts)
            }
            _ => sim_plan,
        },
    );
    let mut sim_report = SimExecutor::new(&machine, &binding, SimConfig::default())
        .with_transport_model(cfg.transport.sim_model())
        .with_fault_plan(sim_plan)
        .with_deadline(3600.0)
        .run(&sim_schedule)
        .map_err(|e| CollectiveError::Verify {
            seed: Some(seed),
            detail: format!("simulator leg failed: {e}"),
        })?;
    sim_report.fault_stats.merge(&stats);
    let stats = sim_report.fault_stats;

    let mut decisions = mgr.decisions();
    decisions.extend(substitutions);

    Ok(ChaosOutcome {
        recovered,
        degraded,
        failed_ranks: mgr.failed().to_vec(),
        stats,
        sim_report,
        decisions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::fault_summary_line;
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
        let out = run_chaos(
            &comm,
            AdaptiveColl::default(),
            Request::new(Collective::Bcast, 0, 20_000),
            &cfg,
        )
        .unwrap_or_else(|e| panic!("seed {}: {e}", cfg.seed));
        assert!(out.recovered, "seed 0 crashes a non-root rank");
        assert!(!out.degraded, "a single crash recovers without degrading");
        assert_eq!(out.failed_ranks.len(), 1);
        assert!(out.stats.topology_rebuilds >= 1);
        assert!(
            out.stats.ranks_confirmed_dead >= 1,
            "death came through the detector"
        );
        assert!(out.stats.agreement_rounds >= 1, "the survivor vote ran");
        assert!(out.stats.links_degraded >= 1, "sim leg degraded a link");
        assert!(out.sim_report.total_time > 0.0);
        let line = out.summary();
        println!("{line}");
        assert!(line.contains("recovered from rank failure"), "{line}");
        assert!(
            line.contains("backoff"),
            "retry/backoff accounting is summarized: {line}"
        );
    }

    #[test]
    fn chaos_recovers_identically_on_rdma_transport() {
        // Same seed, same machine, same collective — only the one-sided
        // backend differs. The epoch-fence contract is shared, so detection,
        // agreement and the final survivor set must match the KNEM run.
        let comm = world(6);
        let what = Request::new(Collective::Bcast, 0, 20_000);
        let knem = run_chaos(&comm, AdaptiveColl::default(), what, &ChaosConfig::new(0))
            .unwrap_or_else(|e| panic!("knem seed 0: {e}"));
        let rdma_cfg = ChaosConfig::on_transport(0, TransportKind::Rdma);
        let rdma = run_chaos(&comm, AdaptiveColl::default(), what, &rdma_cfg)
            .unwrap_or_else(|e| panic!("rdma seed 0: {e}"));
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
            run_chaos(
                &comm,
                AdaptiveColl::default(),
                Request::new(Collective::Allgather, 0, 2048),
                &ChaosConfig::new(77),
            )
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
        // Two ranks, one crashes: agreement leaves a single survivor and
        // the "collective" degenerates — degraded, not an error.
        let comm = world(2);
        let mut cfg = ChaosConfig::new(11);
        cfg.watchdog = Duration::from_secs(5);
        let out = run_chaos(
            &comm,
            AdaptiveColl::default(),
            Request::new(Collective::Bcast, 0, 4096),
            &cfg,
        )
        .unwrap_or_else(|e| panic!("seed 11: {e}"));
        assert!(out.degraded, "one survivor cannot run a collective");
        assert_eq!(out.failed_ranks.len(), 1);
        assert!(out.stats.degraded_runs >= 1);
        assert!(
            out.summary().contains("degraded to baseline"),
            "{}",
            out.summary()
        );
    }

    #[test]
    fn recovery_churn_past_bound_downgrades_to_baseline() {
        // With a zero recovery budget the first confirmed death flips the
        // harness to baseline schedules — the run still completes and
        // verifies over the survivors.
        let comm = world(6);
        let mut cfg = ChaosConfig::new(0);
        cfg.max_recoveries = 0;
        let out = run_chaos(
            &comm,
            AdaptiveColl::default(),
            Request::new(Collective::Bcast, 0, 20_000),
            &cfg,
        )
        .unwrap_or_else(|e| panic!("seed 0: {e}"));
        assert!(out.recovered);
        assert!(
            out.degraded,
            "zero recovery budget forces the baseline fallback"
        );
        assert_eq!(out.failed_ranks.len(), 1);
        assert!(out.stats.degraded_runs >= 1);
        let line = out.summary();
        assert!(line.contains("degraded to baseline"), "{line}");
    }

    #[test]
    fn cascading_crashes_recover_through_repeated_agreement() {
        // The cascade cocktail can kill several ranks mid-collective; every
        // recovery must come through the detector→agreement pipeline, and
        // the final payload must verify on whatever survives. Allgather is
        // the right victim: each rank executes n-1 pulls, so the 1-3 op
        // crash budgets fire in the middle of the ring (a bcast leaf has a
        // single op and would outrun the budget).
        let comm = world(8);
        let mut hit_multi = false;
        for seed in 0..12 {
            let cfg = ChaosConfig::cascade(seed);
            let out = run_chaos(
                &comm,
                AdaptiveColl::default(),
                Request::new(Collective::Allgather, 0, 2048),
                &cfg,
            )
            .unwrap_or_else(|e| panic!("cascade seed {seed}: {e}"));
            if out.failed_ranks.len() > 1 {
                hit_multi = true;
                assert!(out.stats.agreement_rounds >= 1 || out.degraded);
            }
            assert_eq!(
                out.failed_ranks.len() as u64,
                out.stats.ranks_confirmed_dead,
                "seed {seed}: every removal was detector-confirmed (no omniscient path)"
            );
        }
        assert!(
            hit_multi,
            "12 cascade seeds should include a multi-rank crash"
        );
    }

    #[test]
    fn chaos_outcome_carries_recovery_provenance() {
        let comm = world(6);
        let what = Request::new(Collective::Bcast, 0, 20_000);
        let out = run_chaos(&comm, AdaptiveColl::default(), what, &ChaosConfig::new(0))
            .unwrap_or_else(|e| panic!("seed 0: {e}"));
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
        let out = run_chaos(&comm, AdaptiveColl::default(), what, &cfg)
            .unwrap_or_else(|e| panic!("seed 0: {e}"));
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
            let cfg = ChaosConfig::with_corruption(seed);
            let out = run_chaos(
                &comm,
                AdaptiveColl::default(),
                Request::new(Collective::Allgather, 0, 2048),
                &cfg,
            )
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
        assert!(
            retransmits >= 1,
            "each detection is healed by a counted re-transmit"
        );
        assert!(last_line.contains("corrupt detected"), "{last_line}");
    }

    #[test]
    fn persistent_corrupter_is_fenced_like_a_crashed_rank() {
        // A rank that damages every chunk it serves cannot be healed by
        // retries: the executor exhausts the budget, raises the typed
        // Corrupt error, the detector confirms the peer, and the membership
        // pipeline fences it — the collective then completes over the
        // survivors exactly as it would after a crash.
        let comm = world(6);
        let cfg = ChaosConfig::with_corrupter(5, 3);
        let out = run_chaos(
            &comm,
            AdaptiveColl::default(),
            Request::new(Collective::Allgather, 0, 2048),
            &cfg,
        )
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
}
