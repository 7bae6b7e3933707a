//! Hot-path benchmark: cached vs cold topology construction and the
//! simulator's event rate, on a 32-rank communicator.
//!
//! Repeated collectives on one communicator are the framework's steady
//! state: the topology never changes between calls, so the per-call edge
//! enumeration + sort + union-find of a cold build is pure overhead. This
//! binary quantifies what the [`pdac_core::TopoCache`] buys and how fast
//! the engine turns events over, and writes the numbers to
//! `BENCH_hotpath.json` in the working directory.

use std::sync::Arc;
use std::time::Instant;

use pdac_analyze::{CriticalPathReport, OpGraph};
use pdac_core::adaptive::{AdaptiveColl, BcastTopology};
use pdac_core::TopoCache;
use pdac_hwtopo::{machines, BindingPolicy};
use pdac_mpisim::Communicator;
use pdac_simnet::{predicted_ops, Schedule, SimConfig, SimExecutor};
use serde::Serialize;

/// Nanoseconds per call of `f`, after a warmup.
fn ns_per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters.div_ceil(10) {
        f();
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

#[derive(Serialize)]
struct ConstructionBench {
    cold_ns_per_op: f64,
    warm_ns_per_op: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct EngineBench {
    schedule_ops: usize,
    events: u64,
    events_per_sec: f64,
    /// Events that solved rates (a flow arrived or left) and events that
    /// did not have to.
    solver_full: u64,
    solver_skipped: u64,
    solver_full_frac: f64,
    /// Host time in the solves of one run, ns.
    solve_ns: u64,
    /// Progressive-filling rounds across all solves.
    fill_rounds: u64,
}

/// Critical-path wait attribution of one collective's predicted run: how
/// much of the end-to-end wall time the critical path spends *not moving
/// payload* — dependency gaps plus notification spans.
#[derive(Serialize)]
struct PipelineBench {
    schedule_ops: usize,
    wall_us: f64,
    wait_us: f64,
    notify_us: f64,
    wait_share: f64,
}

#[derive(Serialize)]
struct HotpathReport {
    ranks: usize,
    parallel_feature: bool,
    bcast_tree: ConstructionBench,
    allgather_ring: ConstructionBench,
    engine_bcast_1m: EngineBench,
    /// Wait/notify mechanism share of the critical path per collective
    /// (the executor-pipeline regression signal).
    pipeline: PipelineReport,
}

#[derive(Serialize)]
struct PipelineReport {
    bcast: PipelineBench,
    allgather: PipelineBench,
}

/// Runs `schedule` through the timing simulator and attributes the
/// critical path: `wait_share` is the fraction of predicted wall time the
/// path spends in dependency gaps or notify spans rather than payload.
fn pipeline_bench(
    schedule: &Schedule,
    machine: &pdac_hwtopo::Machine,
    binding: &pdac_hwtopo::Binding,
    distances: &pdac_hwtopo::DistanceMatrix,
) -> PipelineBench {
    let report = SimExecutor::new(machine, binding, SimConfig::default())
        .run(schedule)
        .expect("fault-free sim run");
    let ops = predicted_ops(schedule, &report, Some(distances));
    let cp = CriticalPathReport::extract(&OpGraph::from_predicted(&ops));
    let notify_us = cp
        .by_mech
        .iter()
        .find(|r| r.key == "notify")
        .map(|r| r.us)
        .unwrap_or(0.0);
    PipelineBench {
        schedule_ops: schedule.ops.len(),
        wall_us: cp.wall_us,
        wait_us: cp.wait_us,
        notify_us,
        wait_share: (cp.wait_us + notify_us) / cp.wall_us.max(f64::MIN_POSITIVE),
    }
}

fn construction_bench(
    iters: usize,
    mut cold: impl FnMut(),
    mut warm: impl FnMut(),
) -> ConstructionBench {
    let cold_ns = ns_per_call(iters, &mut cold);
    let warm_ns = ns_per_call(iters.saturating_mul(20), &mut warm);
    ConstructionBench {
        cold_ns_per_op: cold_ns,
        warm_ns_per_op: warm_ns,
        speedup: cold_ns / warm_ns,
    }
}

fn main() {
    // A 32-rank two-board NUMA box with a scattered binding: every distance
    // class is present, so the builds are not degenerate.
    let ranks = 32;
    let machine = Arc::new(machines::synthetic(2, 2, 8, true));
    assert_eq!(machine.num_cores(), ranks);
    let binding = BindingPolicy::Random { seed: 9 }
        .bind(&machine, ranks)
        .unwrap();
    let comm = Communicator::world(Arc::clone(&machine), binding.clone());
    let coll = AdaptiveColl::default();
    let cache = TopoCache::new();

    // Prime the cache: every root's tree plus the ring.
    for root in 0..ranks {
        coll.bcast_tree_cached(&cache, &comm, root, BcastTopology::Hierarchical);
    }
    coll.allgather_ring_cached(&cache, &comm);

    let root = std::cell::Cell::new(0usize);
    let next_root = || {
        root.set((root.get() + 1) % ranks);
        root.get()
    };
    let bcast_tree = construction_bench(
        2_000,
        || {
            std::hint::black_box(coll.bcast_tree(&comm, next_root(), BcastTopology::Hierarchical));
        },
        || {
            std::hint::black_box(coll.bcast_tree_cached(
                &cache,
                &comm,
                next_root(),
                BcastTopology::Hierarchical,
            ));
        },
    );
    let allgather_ring = construction_bench(
        2_000,
        || {
            std::hint::black_box(coll.allgather_ring(&comm));
        },
        || {
            std::hint::black_box(coll.allgather_ring_cached(&cache, &comm));
        },
    );

    // Engine: a 1 MB broadcast on the same communicator.
    let schedule = coll.bcast_cached(&cache, &comm, 0, 1 << 20);
    let exec = SimExecutor::new(&machine, &binding, SimConfig { allow_cache: false });
    let stats = exec.run(&schedule).unwrap().solver_stats;
    let run_ns = ns_per_call(40, || {
        std::hint::black_box(exec.run(&schedule).unwrap());
    });

    // Critical-path wait attribution: a 1 MB broadcast and a 256 KB-block
    // allgather on the same communicator, through the predicted-op leg of
    // pdac-analyze (no telemetry feature required).
    let distances = comm.distances();
    let allgather_schedule = coll.allgather_cached(&cache, &comm, 1 << 18);
    let pipeline = PipelineReport {
        bcast: pipeline_bench(&schedule, &machine, &binding, &distances),
        allgather: pipeline_bench(&allgather_schedule, &machine, &binding, &distances),
    };

    let report = HotpathReport {
        ranks,
        parallel_feature: cfg!(feature = "parallel"),
        bcast_tree,
        allgather_ring,
        engine_bcast_1m: EngineBench {
            schedule_ops: schedule.ops.len(),
            events: stats.events(),
            events_per_sec: stats.events() as f64 / (run_ns / 1e9),
            solver_full: stats.full,
            solver_skipped: stats.skipped,
            solver_full_frac: stats.full as f64 / stats.events().max(1) as f64,
            solve_ns: stats.solve_ns,
            fill_rounds: stats.fill_rounds,
        },
        pipeline,
    };

    println!("hot-path benchmark, {ranks} ranks on {}", machine.name);
    println!(
        "  bcast tree   cold {:>10.0} ns/op   warm {:>8.0} ns/op   {:>6.1}x",
        report.bcast_tree.cold_ns_per_op,
        report.bcast_tree.warm_ns_per_op,
        report.bcast_tree.speedup
    );
    println!(
        "  allgather    cold {:>10.0} ns/op   warm {:>8.0} ns/op   {:>6.1}x",
        report.allgather_ring.cold_ns_per_op,
        report.allgather_ring.warm_ns_per_op,
        report.allgather_ring.speedup
    );
    let e = &report.engine_bcast_1m;
    println!(
        "  engine       {:>10.0} ev/s  ({} events: {} solved / {} skipped; solves {} ns, {} fill rounds)",
        e.events_per_sec, e.events, e.solver_full, e.solver_skipped, e.solve_ns, e.fill_rounds
    );
    for (name, p) in [
        ("bcast", &report.pipeline.bcast),
        ("allgather", &report.pipeline.allgather),
    ] {
        println!(
            "  pipeline     {name:<10} wall {:>9.1} us   wait {:>8.1} us   notify {:>7.1} us   wait_share {:>6.3}",
            p.wall_us, p.wait_us, p.notify_us, p.wait_share
        );
    }

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_hotpath.json", json).expect("write BENCH_hotpath.json");
    println!("wrote BENCH_hotpath.json");

    assert!(
        report.bcast_tree.speedup >= 5.0 && report.allgather_ring.speedup >= 5.0,
        "cached topology construction must be at least 5x over cold builds"
    );
}
