//! The metric catalog: every name the stack publishes into the registry
//! and every span category it records, each with what it means and what
//! reads it.
//!
//! The test arms a reader, drives every publishing layer — chaos recovery
//! under a crash and seeded corruption on KNEM, a plain simulation, planning
//! through a topology cache that misses, hits, invalidates and evicts, an
//! explained plan and its conformance audits — and then checks that what
//! was published and what is catalogued are the same set: nothing
//! uncatalogued appears, every row but the scheduling-dependent
//! `exec.wait.yields` was seen non-zero, and none of the names that used to
//! duplicate another fact comes back. One `#[test]`, so no other test in
//! this process shares the registry or the recorder.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use pdac::analyze::{ConformanceReport, MechKind, OpGraph, OpSpan};
use pdac::collectives::verify::pattern;
use pdac::collectives::{
    run_chaos, AdaptiveColl, ChaosConfig, Collective, Request, Sinks, TopoCache,
};
use pdac::hwtopo::{machines, BindingPolicy, DistanceMatrix};
use pdac::mpisim::{
    BufferPool, Communicator, FailureDetector, RetryPolicy, ThreadExecutor, TransportKind,
};
use pdac::simnet::trace::sim_events_with_distances;
use pdac::simnet::{FaultPlan, SimConfig, SimExecutor};
use pdac::telemetry::{flight, Event};

/// What a catalog row names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A registry counter.
    Counter,
    /// A family of registry histograms; `{…}` stands for one name segment.
    Histograms,
    /// A recorder span or instant category.
    Span,
}

use Kind::{Counter, Histograms, Span};

/// `(kind, name, meaning, reader)`. A reader is a test, `pdac trace`
/// (its `metrics.json` snapshot and `diff`, or its trace files), the flight
/// dump (which carries the whole registry), the `pdac-e2e` benchmark, or —
/// for a span category `pdac trace` never records — the trace a caller
/// drains from an armed recorder and opens in Perfetto.
#[rustfmt::skip]
const CATALOG: &[(Kind, &str, &str, &str)] = &[
    // Thread executor: one publish site per run, `collect`.
    (Counter, "exec.runs", "executor runs, completed or failed", "pdac trace diff"),
    (Counter, "exec.ops", "schedule ops handed to the executor", "pdac trace diff"),
    (Counter, "exec.wait.fast", "dependency waits satisfied on the first check", "thread_exec unit tests"),
    (Counter, "exec.wait.slow", "dependency waits that set the cursor aside", "thread_exec unit tests"),
    (Counter, "exec.wait.yields", "yields of workers that found no runnable cursor", "pdac trace diff"),
    (Counter, "exec.pool.acquires", "staging buffers taken from the pool", "pdac trace diff"),
    (Counter, "exec.pool.reuses", "staging buffers served from a free list", "pdac trace diff"),
    (Counter, "exec.pool.bytes_allocated", "bytes the pool allocated fresh", "pdac trace diff"),
    (Counter, "knem.registrations", "regions registered with the one-sided device", "pdac trace diff"),
    (Counter, "knem.deregistrations", "regions deregistered", "pdac trace diff"),
    (Counter, "knem.copies", "single-copy operations", "pdac trace diff"),
    (Counter, "knem.bytes_copied", "bytes moved by single-copy operations", "pdac trace diff"),
    (Counter, "knem.lock_acquires", "cookie-table shard locks taken", "pdac trace diff"),
    (Counter, "knem.fenced", "stale-epoch operations the device refused", "integrity_observability"),
    (Counter, "integrity.stamped", "chunks stamped with a source checksum", "integrity_observability"),
    (Counter, "integrity.verified", "staged chunks that verified clean", "integrity_observability"),
    (Counter, "integrity.corrupt_detected", "checksum mismatches caught before delivery", "integrity_observability"),
    (Counter, "integrity.retransmits", "verified re-pulls after a detected corruption", "integrity_observability"),
    (Counter, "faults.ranks_stalled", "ranks running with an injected stall", "integrity_observability"),
    (Counter, "faults.ranks_crashed", "ranks that crashed", "integrity_observability"),
    (Counter, "faults.notifies_dropped", "completion notifications dropped", "integrity_observability"),
    (Counter, "faults.ops_abandoned", "ops left unexecuted by a crashed rank", "integrity_observability"),
    (Counter, "faults.retries", "device pull retries and transient re-runs", "integrity_observability"),
    (Counter, "faults.backoff_ns", "time slept in retry backoff", "integrity_observability"),
    (Counter, "faults.timeouts", "op deadlines that expired", "integrity_observability"),
    (Counter, "faults.suspects_raised", "detector suspicions raised", "integrity_observability"),
    (Counter, "faults.suspects_refuted", "suspicions refuted by a heartbeat", "integrity_observability"),
    (Counter, "faults.ranks_confirmed_dead", "ranks the detector or recovery confirmed dead", "integrity_observability"),
    (Histograms, "exec.op_ns.{kind}.d{class}", "per-op wall time by transfer kind and distance class", "pdac trace diff, tests/telemetry.rs"),
    // Recovery manager.
    (Counter, "recovery.topology_rebuilds", "ranks shrunk out under a fresh epoch", "integrity_observability"),
    (Counter, "chaos.runs", "chaos episodes started", "flight dump"),
    (Counter, "chaos.recoveries", "shrinks by the detector's confirmed set inside a recovery loop", "flight dump"),
    (Counter, "chaos.degraded", "recovery loops that fell back to the baselines", "integrity_observability"),
    // Simulator: its solver's own work, never its fault prediction.
    (Counter, "sim.runs", "simulator runs", "pdac trace diff"),
    (Counter, "sim.ops", "schedule ops simulated", "pdac trace diff"),
    (Counter, "sim.solver.full", "rate solves", "pdac trace diff"),
    (Counter, "sim.solver.skipped", "events whose flow set did not change", "pdac trace diff"),
    (Counter, "sim.solver.solve_ns", "host time spent solving rates", "pdac trace diff"),
    (Counter, "sim.solver.fill_rounds", "progressive-filling rounds", "pdac trace diff"),
    // Planning.
    (Counter, "hwtopo.distance_fills", "distance matrices filled", "pdac-e2e"),
    (Counter, "hwtopo.distance_cells", "distance-matrix cells filled", "pdac trace diff"),
    (Counter, "topocache.hits", "topologies served from the cache", "pdac trace diff"),
    (Counter, "topocache.misses", "topologies built on a cache miss", "pdac trace diff"),
    (Counter, "topocache.evictions", "topologies evicted at capacity", "pdac trace diff"),
    (Counter, "topocache.invalidations", "topologies dropped with their epoch", "pdac trace diff"),
    (Counter, "provenance.plans", "plans recorded with a provenance sink", "pdac trace diff"),
    (Counter, "provenance.decisions", "decisions those plans recorded", "pdac trace diff"),
    (Counter, "conformance.audits", "trace legs audited against a plan", "pdac trace diff"),
    (Counter, "conformance.unexplained", "executed ops the plan does not explain", "pdac trace diff"),
    (Counter, "conformance.missing", "planned ops that never ran", "pdac trace diff"),
    (Counter, "conformance.mismatched", "ops that ran with the wrong shape", "pdac trace diff"),
    (Counter, "conformance.reordered", "ops that started before a planned dependency ended", "pdac trace diff"),
    (Counter, "obs.flight.dumps", "flight-recorder dumps written", "flight dump"),
    // Recorder categories.
    (Span, "copy", "one executed copy op, with its distance class", "pdac trace (OpGraph, conformance)"),
    (Span, "notify", "one executed notify op", "pdac trace (OpGraph, conformance)"),
    (Span, "stage", "a copy's staging read and verified write", "pdac trace trace_real.json"),
    (Span, "corrupt", "a checksum mismatch caught at staging", "any armed run's trace, in Perfetto"),
    (Span, "retry", "a pull retried after backoff", "any armed run's trace; analyze::trace_io"),
    (Span, "exec", "one executor run", "pdac trace trace_real.json"),
    (Span, "knem", "KNEM region registrations, fences and pull faults", "pdac trace trace_real.json"),
    (Span, "rdma", "RDMA memory registrations, fences and flushed requests", "any armed run's trace, in Perfetto"),
    (Span, "detector", "failure-detector transitions", "any armed run's trace, in Perfetto"),
    (Span, "recovery", "membership shrinks and root re-elections", "any armed run's trace, in Perfetto"),
    (Span, "chaos", "chaos episodes and detector confirmations", "any armed run's trace, in Perfetto"),
    (Span, "topocache", "topology cache hits, misses and invalidations", "any armed run's trace, in Perfetto"),
    (Span, "hwtopo", "distance-matrix fills", "any armed run's trace, in Perfetto"),
    (Span, "simnet", "one simulator run", "any armed run's trace, in Perfetto"),
];

/// Rows a correct run may leave at zero, because the count depends on how
/// the OS schedules the executor's workers: a worker yields only while
/// another worker holds the cursor it could step (never on one core).
const SCHEDULED: [&str; 1] = ["exec.wait.yields"];

/// Names that duplicated another fact (or were never set) and are gone.
const DELETED: [&str; 11] = [
    "recovery.ranks_failed",
    "faults.checksums_stamped",
    "faults.checksums_verified",
    "faults.corrupt_detected",
    "faults.retransmits",
    "faults.fenced_messages",
    "faults.topology_rebuilds",
    "faults.agreement_rounds",
    "faults.coordinator_reelections",
    "faults.degraded_runs",
    "faults.links_degraded",
];

/// Whether `name` fits `pattern` segment by segment, where a segment
/// ending in `{…}` matches any longer segment with the same literal head.
fn fits(pattern: &str, name: &str) -> bool {
    let (pattern, name): (Vec<&str>, Vec<&str>) =
        (pattern.split('.').collect(), name.split('.').collect());
    pattern.len() == name.len()
        && pattern.iter().zip(&name).all(|(p, n)| match p.split_once('{') {
            None => p == n,
            Some((head, _)) => n.len() > head.len() && n.starts_with(head),
        })
}

#[test]
fn every_published_name_is_catalogued_and_seen() {
    let telemetry = pdac::telemetry::global();
    let reader = telemetry.recorder().reader();
    let mut categories: BTreeSet<&'static str> = BTreeSet::new();
    let mut seen = |events: Vec<Event>| categories.extend(events.iter().map(|e| e.cat));
    let coll = AdaptiveColl;
    let flat = Arc::new(machines::flat_smp(6));
    let smp = Communicator::world(
        Arc::clone(&flat),
        BindingPolicy::Contiguous.bind(&flat, 6).expect("6 ranks fit"),
    );

    // Chaos on KNEM: the seeded crash and stall, healed transient
    // corruption, then the same cocktail with no recovery budget, which
    // degrades to the baselines.
    let allgather = Request::new(Collective::Allgather, 0, 2048);
    for cfg in [
        ChaosConfig::with_corruption(1),
        ChaosConfig { max_recoveries: 0, ..ChaosConfig::with_corruption(1) },
    ] {
        run_chaos(&smp, allgather, &cfg).unwrap_or_else(|e| panic!("{e}"));
        seen(reader.drain());
    }

    // What chaos leaves to chance or never does, forced: a stall that
    // outlasts the suspicion window and is refuted, a dropped notification,
    // a straggler from a fenced epoch, and two RDMA runs sharing a staging
    // pool.
    let bcast = coll.bcast(&smp, 0, 4096);
    ThreadExecutor::new()
        .with_policy(RetryPolicy {
            op_deadline: Some(Duration::from_millis(500)),
            ..RetryPolicy::chaos()
        })
        .with_detector(Arc::new(FailureDetector::with_suspect_after(6, Duration::from_millis(2))))
        .with_faults(FaultPlan::new(3).stall_rank(0, Duration::from_millis(20)))
        .run(&bcast, pattern)
        .expect("a stall is not a failure");
    ThreadExecutor::new()
        .with_policy(RetryPolicy {
            op_deadline: Some(Duration::from_millis(50)),
            ..RetryPolicy::chaos()
        })
        .with_faults(FaultPlan::new(3).drop_notify(0))
        .run(&bcast, pattern)
        .expect_err("the stranded dependent times out");
    let fenced = TransportKind::Knem.create(None);
    fenced.fence_epochs_below(7);
    ThreadExecutor::with_transport(fenced)
        .with_epoch(3)
        .run(&bcast, pattern)
        .expect_err("a straggler from a dead epoch is fenced");
    let rdma = ThreadExecutor::with_transport(TransportKind::Rdma.create(None))
        .with_buffer_pool(Arc::new(BufferPool::new(6)));
    for _ in 0..2 {
        rdma.run(&bcast, pattern).expect("a fault-free run completes");
    }
    seen(reader.drain());

    // A plain simulation.
    let ig = machines::ig();
    let binding = BindingPolicy::Contiguous.bind(&ig, 48).expect("48 ranks fit");
    let comm = Communicator::world(Arc::new(ig.clone()), binding.clone());
    let sim = SimExecutor::new(&ig, &binding, SimConfig::default());
    sim.run(&coll.allgather(&comm, 4096)).expect("schedule validates");
    seen(reader.drain());

    // Planning through a one-entry cache: miss, hit, miss with an
    // eviction, then the epoch's entry invalidated.
    let cache = TopoCache::with_capacity(1);
    for root in [0, 0, 1] {
        coll.plan(&comm, Request::new(Collective::Bcast, root, 1 << 20), Sinks::cached(&cache));
    }
    assert_eq!(cache.invalidate_epoch(comm.epoch()), 1);
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 2, 1), "{stats:?}");
    seen(reader.drain());

    // An explained plan, audited clean and then against a tampered trace
    // with one violation of each kind.
    let (schedule, prov) = coll.bcast_explained(None, &comm, 0, 64 << 10);
    let report = sim.run(&schedule).expect("schedule validates");
    let dist = DistanceMatrix::for_binding(&ig, &binding);
    let graph = OpGraph::from_events(&sim_events_with_distances(&schedule, &report, Some(&dist)));
    assert!(ConformanceReport::audit(&graph, &prov).passed());
    let mut spans: Vec<OpSpan> = graph.spans().map(OpSpan::from).collect();
    spans.pop();
    let rogue = OpSpan { op: usize::MAX, name: "rogue".into(), plan: None, ..spans[0].clone() };
    spans.push(rogue);
    let copy = spans.iter().position(|s| s.mech != MechKind::Notify).expect("a copy");
    spans[copy].bytes += 7;
    let early = spans.iter().position(|s| !s.deps.is_empty()).expect("a dependent op");
    spans[early].start_us = 0.0;
    let tampered = ConformanceReport::audit(&OpGraph::new(spans), &prov);
    assert!(!tampered.passed());
    seen(reader.drain());
    drop(reader);

    // A flight dump, written to a scratch directory.
    let dir = std::env::temp_dir().join(format!("pdac_metric_catalog_{}", std::process::id()));
    std::env::set_var(flight::FLIGHT_DIR_ENV, &dir);
    flight::dump("metric catalog").expect("dump written");
    std::env::remove_var(flight::FLIGHT_DIR_ENV);
    std::fs::remove_dir_all(&dir).ok();

    let snapshot = telemetry.registry().snapshot();
    let rows = |kind: Kind| CATALOG.iter().filter(move |r| r.0 == kind).map(|r| r.1);
    let catalogued = |kind: Kind, name: &str| rows(kind).any(|p| fits(p, name));
    let uncatalogued: Vec<&str> = snapshot
        .counters
        .keys()
        .filter(|n| !catalogued(Counter, n))
        .chain(snapshot.histograms.keys().filter(|n| !catalogued(Histograms, n)))
        .map(String::as_str)
        .chain(categories.iter().copied().filter(|c| !catalogued(Span, c)))
        .collect();
    assert!(uncatalogued.is_empty(), "published but not in the catalog: {uncatalogued:?}");

    let unseen: Vec<&str> = CATALOG
        .iter()
        .filter(|&&(_, name, ..)| !SCHEDULED.contains(&name))
        .filter(|&&(kind, name, ..)| match kind {
            Counter => snapshot.counters.get(name).copied().unwrap_or(0) == 0,
            Histograms => !snapshot.histograms.iter().any(|(n, h)| fits(name, n) && h.count > 0),
            Span => !categories.contains(name),
        })
        .map(|r| r.1)
        .collect();
    assert!(unseen.is_empty(), "catalogued but never seen non-zero: {unseen:?}");

    let back: Vec<&str> =
        DELETED.into_iter().filter(|n| snapshot.counters.contains_key(*n)).collect();
    assert!(back.is_empty(), "deleted names registered again: {back:?}");
}
