//! Adversarial workload generator: seeded topology fuzzing, placement
//! churn, oversubscription, and training-style allreduce storms.
//!
//! The chaos harness ([`crate::chaos`]) perturbs the *execution* of one
//! collective on one fixed machine. This module perturbs everything else:
//! the machine itself (a randomized [`MachineSpec`], generalizing the
//! `hostile_xml` parser fuzzing in `pdac-hwtopo` into full topology
//! fuzzing), the placement (random policies, plus oversubscribed bindings
//! with several ranks per core via [`Binding::oversubscribed`]), and the
//! placement's *stability* (mid-run migration rebinds every rank, minting a
//! new communicator epoch, invalidating the [`TopoCache`], and raising the
//! transport's epoch fence against stragglers).
//!
//! Everything is a pure function of the `u64` seed. A failing seed is
//! reported with a one-line `PDAC_SEED=<n>` repro command (see
//! [`repro_command`]); the sweep helpers ([`sweep`], [`stress_iters`]) give
//! CI a bounded 100-seed harness over both transport backends.
//!
//! The workload itself is a **training-style storm**: a seed-derived trace
//! of gradient-bucket sizes is allreduced over and over (data-parallel
//! steps), replayed through the real thread executor on the configured
//! [`TransportKind`], with every payload checked by [`verify::check`]. The
//! final step runs through the chaos harness, so the random machine also
//! survives crash + recovery under the same transport.

use std::sync::Arc;

use pdac_hwtopo::{Binding, BindingPolicy, CacheSpec, Machine, MachineSpec, PackageSpec};
use pdac_mpisim::{Communicator, KnemError, RetryPolicy, ThreadExecutor, TransportKind};
use pdac_simnet::{BufId, FaultPlan};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::adaptive::{AdaptiveColl, Collective, Request, Sinks};
use crate::chaos::{run_chaos, ChaosConfig};
use crate::topocache::{TopoCache, TopoCacheStats};
use crate::verify::{self, pattern};

/// One seeded workload: a random machine, a random placement, and an
/// allreduce storm with optional mid-run churn and a chaos finale.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Seed deriving the machine, placement, trace and churn point.
    pub seed: u64,
    /// One-sided transport backend executing every storm step.
    pub transport: TransportKind,
    /// Data-parallel steps (each replays the whole bucket trace).
    pub steps: usize,
    /// Gradient buckets per step.
    pub buckets: usize,
    /// Migrate every rank mid-storm (epoch churn).
    pub churn: bool,
    /// Drive the final step through the chaos harness (fault injection,
    /// detection, agreement, recovery).
    pub chaos: bool,
    /// Inject seeded *transient* payload corruption into every storm step
    /// (and, with [`Self::chaos`], the finale): damaged chunks must be
    /// detected by the checksummed data path and healed by verified
    /// re-transmits, with the payload oracle still passing.
    pub corruption: bool,
}

impl WorkloadConfig {
    /// Defaults: 2 steps × 3 buckets, churn on, chaos finale on.
    pub fn new(seed: u64) -> Self {
        WorkloadConfig {
            seed,
            transport: TransportKind::Knem,
            steps: 2,
            buckets: 3,
            churn: true,
            chaos: true,
            corruption: false,
        }
    }

    /// Like [`Self::new`], on the given transport backend.
    pub fn on_transport(seed: u64, transport: TransportKind) -> Self {
        WorkloadConfig {
            transport,
            ..WorkloadConfig::new(seed)
        }
    }

    /// Like [`Self::on_transport`], with transient payload corruption
    /// injected into every storm step and the chaos finale.
    pub fn corrupted(seed: u64, transport: TransportKind) -> Self {
        WorkloadConfig {
            corruption: true,
            ..WorkloadConfig::on_transport(seed, transport)
        }
    }
}

/// What a completed workload looked like.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// The driving seed.
    pub seed: u64,
    /// Fuzzed machine's name (encodes its shape).
    pub machine: String,
    /// Cores on the fuzzed machine.
    pub cores: usize,
    /// Ranks placed on it.
    pub ranks: usize,
    /// Whether several ranks shared a core.
    pub oversubscribed: bool,
    /// Whether the mid-storm migration fired.
    pub churned: bool,
    /// Executor runs performed (steps × buckets, minus none — every run
    /// must complete and verify for the report to exist).
    pub transfers: usize,
    /// Topology-cache accounting: the storm hits, the churn invalidates.
    pub cache: TopoCacheStats,
    /// Stale-epoch messages the transport rejected after churn.
    pub fenced_messages: u64,
    /// Checksum failures the storm's executor runs detected (chaos-finale
    /// detections are inside [`Self::chaos_summary`], not this count).
    pub corrupt_detected: u64,
    /// Verified re-transmits that healed those detections.
    pub retransmits: u64,
    /// Summary line of the chaos finale, when it ran.
    pub chaos_summary: Option<String>,
}

impl WorkloadReport {
    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "seed {}: {} ({} cores, {} ranks{}{}), {} transfers, cache {}h/{}m/{}inv, \
             {} fenced, {} corrupt detected/{} retransmitted{}",
            self.seed,
            self.machine,
            self.cores,
            self.ranks,
            if self.oversubscribed {
                ", oversubscribed"
            } else {
                ""
            },
            if self.churned { ", churned" } else { "" },
            self.transfers,
            self.cache.hits,
            self.cache.misses,
            self.cache.invalidations,
            self.fenced_messages,
            self.corrupt_detected,
            self.retransmits,
            match &self.chaos_summary {
                Some(s) => format!("; {s}"),
                None => String::new(),
            }
        )
    }
}

/// A workload failure, carrying the seed, the transport backend, the
/// generated machine's regime name, and a repro command that pins all of
/// them.
#[derive(Debug, Clone)]
pub struct WorkloadError {
    /// The seed that produced the failure.
    pub seed: u64,
    /// One-sided transport backend the failing run used.
    pub transport: TransportKind,
    /// Regime-encoding name of the generated machine
    /// (`fuzz-b1s2r1c6-scrambled`).
    pub machine: String,
    /// What went wrong.
    pub detail: String,
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "workload seed {} on {} ({}) failed: {}\nrepro: {}",
            self.seed,
            self.machine,
            self.transport.label(),
            self.detail,
            repro_command_for(self.seed, self.transport)
        )
    }
}

impl std::error::Error for WorkloadError {}

/// The one-line command reproducing a failing seed on both transports.
pub fn repro_command(seed: u64) -> String {
    format!("PDAC_SEED={seed} cargo test -p pdac-core --test workload_sweep -- --nocapture")
}

/// The one-line command reproducing a failing seed on the exact transport
/// backend that failed (the sweep harness honors `PDAC_TRANSPORT`).
pub fn repro_command_for(seed: u64, transport: TransportKind) -> String {
    format!(
        "PDAC_SEED={seed} PDAC_TRANSPORT={} cargo test -p pdac-core --test workload_sweep -- --nocapture",
        transport.label()
    )
}

/// The one-line command reproducing a failing *corruption-sweep* seed on
/// the exact transport backend that failed.
pub fn corruption_repro_command_for(seed: u64, transport: TransportKind) -> String {
    format!(
        "PDAC_SEED={seed} PDAC_TRANSPORT={} cargo test -p pdac-core --test corruption_sweep -- --nocapture",
        transport.label()
    )
}

/// Iteration budget for seed sweeps: `PDAC_STRESS_ITERS` when set (CI
/// cranks it to 100), else `default`.
pub fn stress_iters(default: usize) -> usize {
    std::env::var("PDAC_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A random but always-valid machine: 1–2 boards, 1–2 sockets each, 1–2
/// dies per socket, 1–3 cores per die, one of three NUMA regimes (private
/// controller per socket, Zoot-style shared controller per board, or
/// Magny-Cours-style per-die split), seed-chosen cache nesting, and a
/// possibly scrambled OS enumeration. Every spec passes
/// [`MachineSpec::build`] validation by construction — the fuzzing targets
/// the *consumers* of exotic-but-legal topologies, not the validator
/// (hostile_xml already covers illegal input).
pub fn random_machine(rng: &mut StdRng) -> Machine {
    let spec = random_spec(rng);
    match spec.build() {
        Ok(m) => m,
        Err(e) => unreachable!("generated spec {:?} must validate: {e}", spec.name),
    }
}

fn random_spec(rng: &mut StdRng) -> MachineSpec {
    let boards = 1 + rng.gen_range(0..2);
    let sockets_per_board = 1 + rng.gen_range(0..2);
    // NUMA regime for the whole machine (mixing regimes risks ownership
    // conflicts; the three pure regimes already cover distances 0–6).
    let regime = rng.gen_range(0..3);
    let mut numa_counter = 0usize;
    let mut sockets = Vec::new();
    for board in 0..boards {
        for _ in 0..sockets_per_board {
            let dies = 1 + rng.gen_range(0..2);
            let cores_per_die: Vec<usize> = (0..dies).map(|_| 1 + rng.gen_range(0..3)).collect();
            let n: usize = cores_per_die.iter().sum();
            let (numa, die_numa) = match regime {
                0 => {
                    let id = numa_counter;
                    numa_counter += 1;
                    (id, None)
                }
                1 => (board, None),
                _ => {
                    let ids: Vec<usize> = (0..dies)
                        .map(|_| {
                            let id = numa_counter;
                            numa_counter += 1;
                            id
                        })
                        .collect();
                    (ids[0], Some(ids))
                }
            };
            let caches = match rng.gen_range(0..3) {
                0 => vec![],
                1 => vec![CacheSpec {
                    level: 3,
                    size_bytes: 8 << 20,
                    cores: (0..n).collect(),
                }],
                _ => {
                    let mut v = vec![CacheSpec {
                        level: 3,
                        size_bytes: 8 << 20,
                        cores: (0..n).collect(),
                    }];
                    let mut base = 0;
                    for &d in &cores_per_die {
                        v.push(CacheSpec {
                            level: 2,
                            size_bytes: 1 << 20,
                            cores: (base..base + d).collect(),
                        });
                        base += d;
                    }
                    v
                }
            };
            sockets.push(PackageSpec {
                board,
                numa,
                cores_per_die,
                die_numa,
                caches,
                numa_memory_bytes: 1 << 30,
            });
        }
    }
    let total: usize = sockets
        .iter()
        .map(|s| s.cores_per_die.iter().sum::<usize>())
        .sum();
    let os_order = if rng.gen_range(0..2) == 1 {
        let mut p: Vec<usize> = (0..total).collect();
        p.shuffle(rng);
        Some(p)
    } else {
        None
    };
    let name = format!(
        "fuzz-b{boards}s{sockets_per_board}r{regime}c{total}{}",
        if os_order.is_some() { "-scrambled" } else { "" }
    );
    MachineSpec {
        name,
        sockets,
        os_order,
    }
}

/// A random placement on `machine`: usually an injective policy binding
/// (contiguous, cross-socket, or random), but one draw in four
/// oversubscribes — more ranks than cores, several per core — through the
/// [`Binding::oversubscribed`] hook. Returns the binding and whether it
/// oversubscribes.
pub fn random_placement(rng: &mut StdRng, machine: &Machine) -> (Binding, bool) {
    let cores = machine.num_cores();
    if cores == 1 || rng.gen_range(0..4) == 0 {
        // Oversubscribed: 2..=16 ranks, cores+1 at minimum so at least one
        // core carries two ranks (on a 1-core machine everything does).
        let nranks = (cores + 1 + rng.gen_range(0..cores)).clamp(2, 16);
        let map: Vec<usize> = (0..nranks).map(|_| rng.gen_range(0..cores)).collect();
        let b = Binding::oversubscribed(machine, map).expect("cores sampled in range");
        (b, true)
    } else {
        let nranks = 2 + rng.gen_range(0..cores.min(12) - 1);
        let policy = match rng.gen_range(0..3) {
            0 => BindingPolicy::Contiguous,
            1 => BindingPolicy::CrossSocket,
            _ => BindingPolicy::Random {
                seed: rng.gen_range(0..1 << 30) as u64,
            },
        };
        let b = policy
            .bind(machine, nranks)
            .expect("nranks <= cores by construction");
        (b, false)
    }
}

/// Runs one seeded workload end to end. Any executor error, payload
/// mismatch, missing epoch rejection, or chaos failure becomes a
/// [`WorkloadError`] quoting the seed and its repro command.
pub fn run_workload(cfg: &WorkloadConfig) -> Result<WorkloadReport, WorkloadError> {
    let seed = cfg.seed;
    // A panicking workload (as opposed to an Err) must still leave the
    // flight ring behind; the hook chains, so installing it here is safe
    // for callers that installed their own.
    pdac_telemetry::flight::install_panic_hook();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd1b5_4a32_d192_ed03);

    let machine = Arc::new(random_machine(&mut rng));
    // Run-identity context: a flight dump alone reproduces the run — the
    // backend, the generated machine's regime name, and the repro line.
    pdac_telemetry::flight::set_context("transport", cfg.transport.label());
    pdac_telemetry::flight::set_context("machine", machine.name.clone());
    pdac_telemetry::flight::set_context("seed", seed.to_string());
    pdac_telemetry::flight::set_context("repro", repro_command_for(seed, cfg.transport));
    let machine_name = machine.name.clone();
    let transport_kind = cfg.transport;
    let fail = move |detail: String| {
        pdac_telemetry::flight::note(format!("workload FAILED: seed={seed} {detail}"));
        if let Some(path) = pdac_telemetry::flight::dump("workload-failure") {
            eprintln!("flight recorder dumped to {}", path.display());
        }
        WorkloadError {
            seed,
            transport: transport_kind,
            machine: machine_name.clone(),
            detail,
        }
    };
    let (binding, oversubscribed) = random_placement(&mut rng, &machine);
    let mut comm = Communicator::world(Arc::clone(&machine), binding);
    pdac_telemetry::flight::note(format!(
        "workload start: seed={seed} machine={} ranks={} oversubscribed={oversubscribed} transport={}",
        machine.name,
        comm.size(),
        cfg.transport.label(),
    ));
    let coll = AdaptiveColl::default();
    let cache = TopoCache::new();
    let transport = cfg.transport.create(None);
    // One executor for the whole storm, like a communicator keeps one: its
    // rank workers park between steps and are reconfigured, not respawned.
    let mut exec = ThreadExecutor::with_transport(Arc::clone(&transport));
    if cfg.corruption {
        // No lethal faults are injected, so the executor keeps its
        // unbounded waits — only the chaos retry budget is needed, because
        // every damaged chunk (transient budget 1) heals within
        // max_retries re-transmits.
        exec = exec.with_policy(RetryPolicy::chaos());
    }

    // Training-style trace: the same gradient buckets, every step.
    let trace: Vec<usize> = (0..cfg.buckets.max(1))
        .map(|_| 1024usize << rng.gen_range(0..6))
        .collect();
    let churn_step = (cfg.steps / 2).max(1);
    let mut churned = false;
    let mut transfers = 0usize;
    let mut corrupt_detected = 0u64;
    let mut retransmits = 0u64;

    for step in 0..cfg.steps.max(1) {
        if cfg.churn && step == churn_step {
            // Migration: every rank moves (a shuffled copy of the current
            // map), which mints a new communicator epoch. The old epoch's
            // cached topologies are dropped and the transport fences it off.
            let old_epoch = comm.epoch();
            let mut map = comm.binding().as_slice().to_vec();
            map.shuffle(&mut rng);
            let rebound = if oversubscribed {
                Binding::oversubscribed(&machine, map).expect("same cores, still in range")
            } else {
                Binding::new(&machine, map).expect("a permutation stays injective")
            };
            comm = Communicator::world(Arc::clone(&machine), rebound);
            cache.invalidate_epoch(old_epoch);
            transport.fence_epochs_below(comm.epoch());
            // A straggler stamped with the dead epoch must bounce off the
            // fence on *every* backend — this is the contract that makes
            // recovery transport-agnostic.
            match transport.register(0, BufId::Send, 0, 1, old_epoch) {
                Err(KnemError::StaleEpoch { .. }) => {}
                other => {
                    return Err(fail(format!(
                        "stale epoch {old_epoch} not fenced on {}: {other:?}",
                        transport.name()
                    )))
                }
            }
            churned = true;
        }

        for &bytes in &trace {
            let root = rng.gen_range(0..comm.size());
            let request = Request::new(Collective::Allreduce, root, bytes);
            let schedule = coll.plan(&comm, request, Sinks::cached(&cache));
            exec = exec.with_epoch(comm.epoch());
            if cfg.corruption {
                // Corruption-only plan, redrawn per step.
                let plan = FaultPlan::new(seed.wrapping_add(step as u64))
                    .with_seeded_corruption(comm.size());
                exec = exec.with_faults(plan);
            }
            let res = exec
                .run(&schedule, pattern)
                .map_err(|e| {
                    fail(format!(
                        "step {step} allreduce({bytes}B) on {} ({} ranks): {e}",
                        transport.name(),
                        comm.size()
                    ))
                })?;
            verify::check(request, comm.size(), &res).map_err(|e| {
                fail(format!("step {step} allreduce({bytes}B) on {}: {e}", transport.name()))
            })?;
            corrupt_detected += res.fault_stats.corrupt_detected;
            retransmits += res.fault_stats.retransmits;
            transfers += 1;
        }
    }

    // Chaos finale: the last training step, but under the seeded fault
    // cocktail — crash, detect, agree, fence, rebuild, verify.
    let chaos_summary = if cfg.chaos && comm.size() >= 2 {
        let mut chaos_cfg = ChaosConfig::on_transport(seed, cfg.transport);
        chaos_cfg.corruption = cfg.corruption;
        let out = run_chaos(
            &comm,
            AdaptiveColl::default(),
            Request::new(Collective::Allreduce, 0, trace[0]),
            &chaos_cfg,
        )
        .map_err(|e| fail(format!("chaos finale on {}: {e}", cfg.transport.label())))?;
        Some(out.summary())
    } else {
        None
    };

    Ok(WorkloadReport {
        seed,
        machine: machine.name.clone(),
        cores: machine.num_cores(),
        ranks: comm.size(),
        oversubscribed,
        churned,
        transfers,
        cache: cache.stats(),
        fenced_messages: transport.fenced_messages(),
        corrupt_detected,
        retransmits,
        chaos_summary,
    })
}

/// Sweeps `count` consecutive seeds starting at `base_seed` on `transport`.
/// Returns every report; the first failure aborts the sweep and carries its
/// repro command. CI binds `count` through [`stress_iters`].
pub fn sweep(
    base_seed: u64,
    count: usize,
    transport: TransportKind,
) -> Result<Vec<WorkloadReport>, WorkloadError> {
    let mut reports = Vec::with_capacity(count);
    for seed in base_seed..base_seed + count as u64 {
        reports.push(run_workload(&WorkloadConfig::on_transport(
            seed, transport,
        ))?);
    }
    Ok(reports)
}

/// [`sweep`], with seeded transient payload corruption injected into every
/// storm step and the chaos finale. A report only exists for a seed whose
/// every payload verified against the oracle, so a completed sweep proves
/// **zero undetected corruption**: whatever the injectors damaged was
/// caught by the checksummed data path and healed by a re-transmit before
/// the oracle looked. The per-report [`WorkloadReport::corrupt_detected`] /
/// [`WorkloadReport::retransmits`] counters show the detector actually
/// working rather than the injectors missing.
pub fn corruption_sweep(
    base_seed: u64,
    count: usize,
    transport: TransportKind,
) -> Result<Vec<WorkloadReport>, WorkloadError> {
    let mut reports = Vec::with_capacity(count);
    for seed in base_seed..base_seed + count as u64 {
        reports.push(run_workload(&WorkloadConfig::corrupted(seed, transport))?);
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_machines_always_validate() {
        // 200 seeds of pure topology fuzzing: every generated spec builds,
        // has at least one core, and its distance machinery is total.
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let m = random_machine(&mut rng);
            assert!(m.num_cores() >= 1);
            assert!(m.num_numa >= 1);
            // The OS order round-trips as a permutation.
            let mut os: Vec<usize> = (0..m.num_cores()).map(|i| m.core_of_os_id(i)).collect();
            os.sort_unstable();
            assert_eq!(os, (0..m.num_cores()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn random_placement_is_bounded_and_reproducible() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = random_machine(&mut rng);
        let mut a_rng = StdRng::seed_from_u64(9);
        let (a, a_over) = random_placement(&mut a_rng, &m);
        let mut b_rng = StdRng::seed_from_u64(9);
        let (b, b_over) = random_placement(&mut b_rng, &m);
        assert_eq!(a, b);
        assert_eq!(a_over, b_over);
        assert!(a.num_ranks() >= 2 && a.num_ranks() <= 16);
        for r in 0..a.num_ranks() {
            assert!(a.core_of(r) < m.num_cores());
        }
    }

    #[test]
    fn oversubscription_shows_up_across_seeds() {
        // One draw in four oversubscribes; 32 seeds must include both kinds.
        let (mut over, mut inj) = (false, false);
        for seed in 0..32 {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = random_machine(&mut rng);
            let (b, o) = random_placement(&mut rng, &m);
            if o {
                over = true;
                assert!(
                    b.num_ranks() > m.num_cores() || m.num_cores() == 1,
                    "oversubscribed placements exceed the core count"
                );
            } else {
                inj = true;
            }
        }
        assert!(over && inj, "both placement kinds appear in 32 seeds");
    }

    #[test]
    fn workload_is_seed_deterministic() {
        let cfg = WorkloadConfig {
            chaos: false,
            ..WorkloadConfig::new(3)
        };
        let a = run_workload(&cfg).unwrap_or_else(|e| panic!("{e}"));
        let b = run_workload(&cfg).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(a.machine, b.machine);
        assert_eq!(a.ranks, b.ranks);
        assert_eq!(a.transfers, b.transfers);
        assert_eq!(a.churned, b.churned);
    }

    #[test]
    fn churn_invalidates_cache_and_fences_stragglers() {
        // Find a churning seed and check the TopoCache drop plus the
        // stale-epoch rejection actually registered.
        for seed in 0..8 {
            let cfg = WorkloadConfig {
                chaos: false,
                ..WorkloadConfig::new(seed)
            };
            let rep = run_workload(&cfg).unwrap_or_else(|e| panic!("{e}"));
            if rep.churned {
                assert!(
                    rep.cache.invalidations > 0,
                    "churn dropped cached topologies"
                );
                assert!(rep.fenced_messages > 0, "the straggler probe was fenced");
                assert!(!rep.summary().is_empty());
                return;
            }
        }
        panic!("no seed in 0..8 churned (steps=2 always churns at step 1)");
    }

    #[test]
    fn storm_verifies_on_both_transports() {
        for kind in [TransportKind::Knem, TransportKind::Rdma] {
            let cfg = WorkloadConfig {
                chaos: false,
                ..WorkloadConfig::on_transport(5, kind)
            };
            let rep = run_workload(&cfg).unwrap_or_else(|e| panic!("{}: {e}", kind.label()));
            assert_eq!(rep.transfers, cfg.steps * cfg.buckets);
        }
    }

    #[test]
    fn corrupted_storm_heals_and_verifies() {
        // With corruption on, every detection must be healed by exactly one
        // verified re-transmit (transient budget 1 < chaos retry budget 3),
        // and the reduced-pattern oracle still passes — the report would
        // not exist otherwise. Across several seeds at least one injector
        // must actually land on a scheduled copy.
        let mut detected = 0u64;
        for seed in 0..6 {
            let cfg = WorkloadConfig {
                chaos: false,
                ..WorkloadConfig::corrupted(seed, TransportKind::Knem)
            };
            let rep = run_workload(&cfg).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(
                rep.corrupt_detected, rep.retransmits,
                "seed {seed}: every detection is healed by one re-transmit"
            );
            detected += rep.corrupt_detected;
            assert!(rep.summary().contains("corrupt detected"), "{}", rep.summary());
        }
        assert!(
            detected >= 1,
            "six corrupted seeds must damage at least one scheduled chunk"
        );
    }

    #[test]
    fn corruption_sweep_is_deterministic_and_counts_detections() {
        let a = corruption_sweep(0, 3, TransportKind::Knem).unwrap_or_else(|e| panic!("{e}"));
        let b = corruption_sweep(0, 3, TransportKind::Knem).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(a.len(), 3);
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.machine, rb.machine);
            assert_eq!(ra.corrupt_detected, rb.corrupt_detected);
            assert_eq!(ra.retransmits, rb.retransmits);
        }
    }

    #[test]
    fn error_carries_repro_command() {
        let e = WorkloadError {
            seed: 99,
            transport: TransportKind::Rdma,
            machine: "fuzz-b1s2r1c6-scrambled".into(),
            detail: "boom".into(),
        };
        let s = e.to_string();
        assert!(s.contains("PDAC_SEED=99"), "{s}");
        assert!(s.contains("PDAC_TRANSPORT=rdma"), "{s}");
        assert!(s.contains("fuzz-b1s2r1c6-scrambled"), "{s}");
        assert!(s.contains("workload_sweep"), "{s}");
    }
}
