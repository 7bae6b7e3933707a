//! Per-layer probes: each public call the stack is built from, timed from
//! outside on fixed inputs. They run in every traced run, whatever the
//! workload, so any per-layer number can be read next to any workload's
//! end-to-end numbers.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pdac_analyze::{ConformanceReport, CriticalPathReport, OpGraph};
use pdac_core::framework::CollFramework;
use pdac_core::sched::{
    allgather_schedule_dist, barrier_schedule, bcast_schedule_dist, SchedConfig,
};
use pdac_core::{build_bcast_tree, AdaptiveColl, Ring, TopoCache};
use pdac_hwtopo::{BindingPolicy, DistanceMatrix, Machine};
use pdac_mpi::scalar::{from_bytes, to_bytes};
use pdac_mpi::{ReduceOp, Session};
use pdac_mpisim::{
    checksum, BufferPool, Communicator, ExecFaultPlan, ExecResult, FailureDetector, RetryPolicy,
    ThreadExecutor, TransportKind,
};
use pdac_simnet::trace::sim_events_with_distances;
use pdac_simnet::{BufId, DataOp, Schedule, SimConfig, SimExecutor};

use crate::model::{run_sim, session_allreduce, Plan, Scenario};
use crate::stats::median;
use crate::workload::Machines;

pub type Values = BTreeMap<&'static str, f64>;

/// Median wall time of `f` over `reps` calls, in nanoseconds.
fn time_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// CPU seconds (user + system, every thread) this process has used, from
/// `/proc/self/stat`; 0.0 where that file cannot be read.
pub fn process_cpu_seconds() -> f64 {
    const TICKS_PER_SECOND: f64 = 100.0; // USER_HZ on every Linux ABI
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12 and 13 after the name.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / TICKS_PER_SECOND
}

fn comm_for(
    machine: &Arc<Machine>,
    policy: BindingPolicy,
    ranks: usize,
) -> Result<Communicator, String> {
    let binding = policy.bind(machine, ranks).map_err(|e| e.to_string())?;
    Ok(Communicator::world(Arc::clone(machine), binding))
}

fn run_exec(
    executor: &ThreadExecutor,
    schedule: &Schedule,
    send: &[Vec<u8>],
) -> Result<ExecResult, String> {
    executor
        .run(schedule, |rank, size| {
            let mut bytes = send.get(rank).cloned().unwrap_or_default();
            bytes.resize(size.max(bytes.len()), 0);
            bytes
        })
        .map_err(|e| e.to_string())
}

pub fn run(machines: &Machines, seed: u64) -> Result<Values, String> {
    let mut v = Values::new();
    hwtopo_and_core(machines, &mut v)?;
    mpi_and_mpisim(machines, seed, &mut v)?;
    simnet_and_analyze(machines, &mut v)?;
    telemetry(&mut v);
    Ok(v)
}

fn hwtopo_and_core(machines: &Machines, v: &mut Values) -> Result<(), String> {
    let (ig, igx4) = (&machines.by_label("ig"), &machines.by_label("ig-x4"));
    let b48 = BindingPolicy::CrossSocket
        .bind(ig, 48)
        .map_err(|e| e.to_string())?;
    let b192 = BindingPolicy::CrossNode
        .bind(igx4, 192)
        .map_err(|e| e.to_string())?;
    v.insert(
        "hwtopo.distance_fill_ns.r48",
        time_ns(15, || DistanceMatrix::for_binding(ig, &b48)),
    );
    v.insert(
        "hwtopo.distance_fill_ns.r192",
        time_ns(7, || DistanceMatrix::for_binding(igx4, &b192)),
    );
    v.insert(
        "hwtopo.bind_ns.r192",
        time_ns(7, || BindingPolicy::CrossNode.bind(igx4, 192)),
    );

    let d48 = DistanceMatrix::for_binding(ig, &b48);
    let d192 = DistanceMatrix::for_binding(igx4, &b192);
    v.insert(
        "core.tree_build_ns.r48",
        time_ns(9, || build_bcast_tree(&d48, 0)),
    );
    v.insert(
        "core.tree_build_ns.r192",
        time_ns(5, || build_bcast_tree(&d192, 0)),
    );
    v.insert("core.ring_build_ns.r48", time_ns(9, || Ring::build(&d48)));
    v.insert("core.ring_build_ns.r192", time_ns(5, || Ring::build(&d192)));
    let (tree48, ring48) = (build_bcast_tree(&d48, 0), Ring::build(&d48));
    let cfg = SchedConfig::default();
    v.insert(
        "core.sched_build_ns.bcast_1M",
        time_ns(9, || {
            bcast_schedule_dist(&tree48, 1 << 20, &cfg, Some(&d48))
        }),
    );
    v.insert(
        "core.sched_build_ns.allgather_64K",
        time_ns(9, || {
            allgather_schedule_dist(&ring48, 64 << 10, Some(&cfg), Some(&d48))
        }),
    );

    let coll = AdaptiveColl::default();
    v.insert(
        "core.plan_cold_ns",
        time_ns(9, || {
            coll.bcast(
                &Communicator::world(Arc::clone(ig), b48.clone()),
                0,
                1 << 20,
            )
        }),
    );
    let comm48 = Communicator::world(Arc::clone(ig), b48.clone());
    let cache = TopoCache::new();
    coll.bcast_cached(&cache, &comm48, 0, 1 << 20);
    v.insert(
        "core.plan_warm_ns",
        time_ns(15, || coll.bcast_cached(&cache, &comm48, 0, 1 << 20)),
    );
    // Same communicator, distances filled: what recording provenance adds.
    let (mut plain, mut explained) = (Vec::new(), Vec::new());
    for _ in 0..9 {
        plain.push(time_ns(1, || coll.bcast(&comm48, 0, 1 << 20)));
        explained.push(time_ns(1, || {
            coll.bcast_explained(None, &comm48, 0, 1 << 20)
        }));
    }
    v.insert("core.plan_explained_ns", median(&explained));
    v.insert(
        "core.price.provenance",
        median(&explained) / median(&plain) - 1.0,
    );

    // A cache smaller than its working set: three sweeps over twelve roots
    // through eight slots, then an invalidation.
    let small = TopoCache::with_capacity(8);
    for _ in 0..3 {
        for root in 0..12 {
            let topo = coll.bcast_topology_choice(&comm48, 1 << 20);
            coll.bcast_tree_cached(&small, &comm48, root, topo);
        }
        // The last eight roots are resident now: hits.
        for root in 4..12 {
            let topo = coll.bcast_topology_choice(&comm48, 1 << 20);
            coll.bcast_tree_cached(&small, &comm48, root, topo);
        }
    }
    let stats = small.stats();
    v.insert(
        "core.topocache.hit_share",
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
    );
    v.insert("core.topocache.evictions", stats.evictions as f64);
    let invalidations: Vec<f64> = (0..7)
        .map(|_| {
            let fresh = Communicator::world(Arc::clone(ig), b48.clone());
            for root in 0..8 {
                coll.bcast_tree_cached(
                    &small,
                    &fresh,
                    root,
                    coll.bcast_topology_choice(&fresh, 1 << 20),
                );
            }
            time_ns(1, || small.invalidate_epoch(fresh.epoch()))
        })
        .collect();
    v.insert("core.topocache.invalidate_ns", median(&invalidations));

    // Shape of the topologies under the placements the paper calls bad.
    let (mut depth_max, mut cross_edges) = (0usize, 0usize);
    for (machine, policy, ranks) in [
        (&machines.by_label("zoot"), BindingPolicy::CrossSocket, 16),
        (ig, BindingPolicy::CrossSocket, 48),
        (&machines.by_label("ig-x2"), BindingPolicy::CrossNode, 96),
        (igx4, BindingPolicy::CrossNode, 192),
    ] {
        let dist = comm_for(machine, policy, ranks)?.distances();
        depth_max = depth_max.max(build_bcast_tree(&dist, 0).depth());
        cross_edges += Ring::build(&dist).cross_edges(&dist, 4);
    }
    v.insert("core.tree_depth_max", depth_max as f64);
    v.insert("core.ring_cross_edges", cross_edges as f64);
    Ok(())
}

fn mpi_and_mpisim(machines: &Machines, seed: u64, v: &mut Values) -> Result<(), String> {
    const N: usize = 16;
    const MIB: usize = 1 << 20;
    let zoot = &machines.by_label("zoot");
    v.insert(
        "mpi.session_new_ns",
        time_ns(15, || {
            Session::new(Arc::clone(zoot), BindingPolicy::CrossSocket, N)
        }),
    );
    let session =
        Session::new(Arc::clone(zoot), BindingPolicy::CrossSocket, N).map_err(|e| e.to_string())?;
    let comm = session.comm();
    let payload: Vec<u64> = (0..MIB as u64 / 8).map(|i| i ^ seed).collect();

    // Session calls.
    let bcast_call = |len: usize, reps: usize| -> Result<f64, String> {
        let mut samples = Vec::new();
        for _ in 0..reps {
            let mut bufs: Vec<Vec<u64>> = (0..N)
                .map(|r| {
                    if r == 0 {
                        payload[..len].to_vec()
                    } else {
                        vec![0; len]
                    }
                })
                .collect();
            let start = Instant::now();
            session.bcast(&mut bufs, 0).map_err(|e| e.to_string())?;
            samples.push(start.elapsed().as_nanos() as f64);
            if bufs.iter().any(|b| b[..] != payload[..len]) {
                return Err("probe bcast delivered a wrong payload".to_string());
            }
        }
        Ok(median(&samples))
    };
    let call_1m = bcast_call(MIB / 8, 9)?;
    v.insert("mpi.call_ns.bcast_1M", call_1m);
    v.insert("mpi.call_ns.bcast_16K", bcast_call(2048, 15)?);
    let contribs: Vec<Vec<f64>> = (0..N).map(|r| vec![r as f64; MIB / 8]).collect();
    v.insert(
        "mpi.call_ns.allreduce_1M",
        time_ns(5, || session.allreduce(&contribs, ReduceOp::Sum)),
    );
    // What a 1 MiB bcast packs and unpacks: the root's buffer out, every
    // other rank's buffer back in.
    let packed = to_bytes(&payload);
    v.insert(
        "mpi.pack_unpack_ns.1M",
        time_ns(9, || {
            black_box(to_bytes(&payload));
            for _ in 1..N {
                black_box(from_bytes::<u64>(&packed));
            }
        }),
    );

    // The same broadcast re-enacted: plan, then the bare executor.
    let framework = CollFramework::default();
    let plan_ns = time_ns(9, || framework.bcast(comm, 0, MIB));
    let bcast_1m = framework.bcast(comm, 0, MIB);
    let send: Vec<Vec<u8>> = (0..N)
        .map(|r| if r == 0 { packed.clone() } else { Vec::new() })
        .collect();
    let base = ThreadExecutor::new();
    let mut last = None;
    let cpu_before = process_cpu_seconds();
    let mut samples = Vec::new();
    for _ in 0..15 {
        let start = Instant::now();
        let result = run_exec(&base, &bcast_1m, &send)?;
        samples.push(start.elapsed().as_nanos() as f64);
        last = Some(result);
    }
    let exec_cpu_ns = (process_cpu_seconds() - cpu_before) * 1e9 / 15.0;
    let exec_ns = median(&samples);
    let result = last.expect("fifteen runs happened");
    for r in 1..N {
        if result.buffer(r, BufId::Recv)[..MIB] != packed[..] {
            return Err("probe executor delivered a wrong payload".to_string());
        }
    }
    v.insert("mpisim.exec_run_ns.bcast_1M", exec_ns);
    v.insert("mpisim.exec_cpu_ns.bcast_1M", exec_cpu_ns);
    v.insert("mpi.self_share", 1.0 - (plan_ns + exec_ns) / call_1m);
    v.insert("mpisim.wait.fast", result.wait_stats.fast as f64);
    v.insert("mpisim.wait.drained", result.wait_stats.drained as f64);
    v.insert("mpisim.wait.yields", result.wait_stats.yields as f64);
    // No deadline is armed on this run, so every wait must resolve on the
    // lock-free path.
    if result.wait_stats.parked != 0 {
        return Err(format!(
            "{} waits parked on the condvar with no deadline armed",
            result.wait_stats.parked
        ));
    }
    v.insert("mpisim.wait.parked", result.wait_stats.parked as f64);
    v.insert("mpisim.knem.copies", result.knem_stats.copies as f64);
    v.insert("mpisim.knem.bytes", result.knem_stats.bytes_copied as f64);
    v.insert(
        "mpisim.knem.registrations",
        result.knem_stats.registrations as f64,
    );
    v.insert(
        "mpisim.integrity.stamped",
        result.integrity_stats.stamped as f64,
    );
    v.insert(
        "mpisim.integrity.verified",
        result.integrity_stats.verified as f64,
    );
    let delivered_mb = ((N - 1) * MIB) as f64 / 1e6;
    let exec_mbps = delivered_mb / (exec_ns / 1e9);
    v.insert("mpisim.exec_MBps", exec_mbps);

    // Other schedules on the bare executor.
    let coll = AdaptiveColl::default();
    let block_send: Vec<Vec<u8>> = (0..N).map(|r| vec![r as u8; 64 << 10]).collect();
    let allgather = coll.allgather(comm, 64 << 10);
    v.insert(
        "mpisim.exec_run_ns.allgather_64K",
        time_ns(7, || run_exec(&base, &allgather, &block_send)),
    );
    let allreduce = session_allreduce(comm, MIB, DataOp::SumF64);
    let full_send: Vec<Vec<u8>> = (0..N).map(|_| packed.clone()).collect();
    v.insert(
        "mpisim.exec_run_ns.allreduce_1M",
        time_ns(5, || run_exec(&base, &allreduce, &full_send)),
    );
    let bcast_16k = framework.bcast(comm, 0, 16 << 10);
    v.insert(
        "mpisim.exec_run_ns.bcast_16K",
        time_ns(15, || run_exec(&base, &bcast_16k, &send)),
    );
    let barrier = barrier_schedule(&build_bcast_tree(&comm.distances(), 0));
    let cpu_before = process_cpu_seconds();
    v.insert(
        "mpisim.exec_fixed_ns",
        time_ns(25, || run_exec(&base, &barrier, &[])),
    );
    let fixed_cpu_ns = (process_cpu_seconds() - cpu_before) * 1e9 / 25.0;

    // The RDMA backend behind the same schedule, with a pool kept warm.
    let pool = Arc::new(BufferPool::new(N));
    let rdma = ThreadExecutor::with_transport(TransportKind::Rdma.create(None))
        .with_buffer_pool(Arc::clone(&pool));
    let knem_bcast = coll.bcast(comm, 0, MIB);
    v.insert(
        "mpisim.exec_run_ns.rdma.bcast_1M",
        time_ns(9, || run_exec(&rdma, &knem_bcast, &send)),
    );
    let pool_stats = pool.stats();
    v.insert(
        "mpisim.bufpool.hit_share",
        pool_stats.reuses as f64 / pool_stats.acquires.max(1) as f64,
    );
    v.insert(
        "mpisim.bufpool.acquire_ns",
        time_ns(9, || {
            for _ in 0..256 {
                let buf = pool.acquire(0, 1, 64 << 10);
                pool.release(0, 1, black_box(buf));
            }
        }) / 256.0,
    );
    for (name, kind) in [
        ("mpisim.transport.knem_tx_ns", TransportKind::Knem),
        ("mpisim.transport.rdma_tx_ns", TransportKind::Rdma),
    ] {
        let transport = kind.create(None);
        let ns = time_ns(9, || -> Result<(), String> {
            for _ in 0..256 {
                let token = transport
                    .register(0, BufId::Send, 0, 64 << 10, 0)
                    .map_err(|e| e.to_string())?;
                black_box(
                    transport
                        .tx(token, 1, 0, 64 << 10)
                        .map_err(|e| e.to_string())?,
                );
                transport.complete(token).map_err(|e| e.to_string())?;
            }
            Ok(())
        });
        v.insert(name, ns / 256.0);
    }

    // The heal path: one corrupted transfer, caught and retransmitted.
    let healed = ThreadExecutor::new()
        .with_faults(ExecFaultPlan::new(seed).flip_bits(3, 0, 0xff))
        .with_policy(RetryPolicy::chaos())
        .run(&knem_bcast, |rank, size| {
            let mut bytes = send[rank].clone();
            bytes.resize(size.max(bytes.len()), 0);
            bytes
        })
        .map_err(|e| e.to_string())?;
    if healed.buffer(3, BufId::Recv)[..MIB] != packed[..] {
        return Err("probe heal run delivered a corrupted payload".to_string());
    }
    v.insert(
        "mpisim.integrity.retransmits",
        healed.integrity_stats.retransmits as f64,
    );

    // Single-thread floors on arrays far beyond any last-level cache
    // (128 MiB each; the largest LLC this is meant for is 32 MiB).
    const FLOOR_BYTES: usize = 128 << 20;
    let src = vec![0x5au8; FLOOR_BYTES];
    let mut dst = vec![0u8; FLOOR_BYTES];
    let copy_ns = time_ns(3, || dst.copy_from_slice(&src));
    let memcpy_mbps = FLOOR_BYTES as f64 / 1e6 / (copy_ns / 1e9);
    let checksum_ns = time_ns(3, || checksum(&dst));
    let checksum_mbps = FLOOR_BYTES as f64 / 1e6 / (checksum_ns / 1e9);
    drop((src, dst));
    v.insert("mpisim.memcpy_floor_MBps", memcpy_mbps);
    v.insert("mpisim.checksum_MBps", checksum_mbps);
    v.insert("mpisim.exec_efficiency", exec_mbps / memcpy_mbps);
    // Computed, not observed: every pulled byte is staged (read into the
    // staging buffer, written to its destination) and checksummed twice
    // (stamped at the source, verified at the destination).
    let moved_mb = result.knem_stats.bytes_copied as f64 / 1e6;
    let cpu_s = (exec_cpu_ns / 1e9).max(f64::MIN_POSITIVE);
    let copy_share = 2.0 * moved_mb / memcpy_mbps / cpu_s;
    let checksum_share = 2.0 * moved_mb / checksum_mbps / cpu_s;
    v.insert("mpisim.copy_share_computed", copy_share);
    v.insert("mpisim.checksum_share_computed", checksum_share);
    v.insert(
        "mpisim.exec_unexplained_share",
        1.0 - copy_share - checksum_share - fixed_cpu_ns / exec_cpu_ns.max(1.0),
    );

    // What each builder switch costs on the 1 MiB broadcast, toggled alone,
    // with an A/A pair as the floor below which a price means nothing.
    let distances = comm.distances_arc();
    type MakeExecutor<'a> = Box<dyn Fn() -> ThreadExecutor + 'a>;
    let variants: [(&'static str, MakeExecutor); 4] = [
        ("mpisim.price.noise", Box::new(ThreadExecutor::new)),
        (
            "mpisim.price.detector",
            Box::new(|| ThreadExecutor::new().with_detector(Arc::new(FailureDetector::new(N)))),
        ),
        (
            "mpisim.price.deadline",
            Box::new(|| {
                ThreadExecutor::new().with_policy(RetryPolicy {
                    op_deadline: Some(Duration::from_secs(5)),
                    ..RetryPolicy::default()
                })
            }),
        ),
        (
            "mpisim.price.distances",
            Box::new(|| ThreadExecutor::new().with_distances(Arc::clone(&distances))),
        ),
    ];
    let mut base_samples = Vec::new();
    let mut variant_samples = vec![Vec::new(); variants.len()];
    for _ in 0..7 {
        base_samples.push(time_ns(1, || run_exec(&base, &bcast_1m, &send)));
        for (samples, (_, make)) in variant_samples.iter_mut().zip(&variants) {
            let executor = make();
            samples.push(time_ns(1, || run_exec(&executor, &bcast_1m, &send)));
        }
    }
    for (samples, (name, _)) in variant_samples.iter().zip(&variants) {
        v.insert(name, median(samples) / median(&base_samples) - 1.0);
    }
    Ok(())
}

fn simnet_and_analyze(machines: &Machines, v: &mut Values) -> Result<(), String> {
    let ig = &machines.by_label("ig");
    let coll = AdaptiveColl::default();
    let comm48 = comm_for(ig, BindingPolicy::CrossSocket, 48)?;
    let d48 = comm48.distances_arc();
    let bcast = coll.bcast(&comm48, 0, 1 << 20);
    let allgather = coll.allgather(&comm48, 64 << 10);
    let sim48 = || SimExecutor::new(ig, comm48.binding(), SimConfig::default());
    v.insert(
        "simnet.run_ns.ig48_bcast_1M",
        time_ns(7, || sim48().run(&bcast)),
    );
    let run_ns = time_ns(5, || sim48().run(&allgather));
    v.insert("simnet.run_ns.ig48_allgather_64K", run_ns);
    let report = sim48().run(&allgather).map_err(|e| e.to_string())?;
    let solver = report.solver_stats;
    let events = solver.events().max(1) as f64;
    v.insert("simnet.events_per_s", events / (run_ns / 1e9));
    v.insert("simnet.solver.full_share", solver.full as f64 / events);
    v.insert(
        "simnet.solver.incremental_share",
        solver.incremental as f64 / events,
    );
    v.insert(
        "simnet.solver.skipped_share",
        solver.skipped as f64 / events,
    );
    v.insert(
        "simnet.solver.fallback_component_spanned",
        solver.full_component_spanned as f64,
    );
    v.insert("simnet.solver.solve_ns", solver.solve_ns as f64);
    v.insert("simnet.solver.intern_ns", solver.intern_ns as f64);
    v.insert("simnet.solver.bfs_ns", solver.bfs_ns as f64);
    v.insert("simnet.solver.fill_ns", solver.fill_ns as f64);
    v.insert("simnet.solver.fill_rounds", solver.fill_rounds as f64);
    v.insert(
        "simnet.solver.phase_attribution",
        solver.phase_attribution(),
    );
    let mc: Vec<f64> = (0..ig.num_numa).map(|numa| report.mc_bytes(numa)).collect();
    let mc_mean = mc.iter().sum::<f64>() / mc.len().max(1) as f64;
    v.insert(
        "simnet.mc_balance",
        mc.iter().copied().fold(0.0, f64::max) / mc_mean.max(f64::MIN_POSITIVE),
    );

    // Incremental against full re-solves: same report, different host time.
    let full_ns = time_ns(5, || sim48().with_full_rates().run(&allgather));
    let full = sim48()
        .with_full_rates()
        .run(&allgather)
        .map_err(|e| e.to_string())?;
    if full.total_time != report.total_time || full.op_finish != report.op_finish {
        return Err(
            "full-rates simulation differs from the incremental one on ig x 48".to_string(),
        );
    }
    v.insert("simnet.full_rates_ratio.r48", full_ns / run_ns);
    let igx4 = &machines.by_label("ig-x4");
    let comm192 = comm_for(igx4, BindingPolicy::CrossNode, 192)?;
    let allgather192 = coll.allgather(&comm192, 16 << 10);
    let sim192 = || SimExecutor::new(igx4, comm192.binding(), SimConfig::default());
    let start = Instant::now();
    let incremental = sim192().run(&allgather192).map_err(|e| e.to_string())?;
    let r192_ns = start.elapsed().as_nanos() as f64;
    let start = Instant::now();
    let full = sim192()
        .with_full_rates()
        .run(&allgather192)
        .map_err(|e| e.to_string())?;
    let r192_full_ns = start.elapsed().as_nanos() as f64;
    if full.total_time != incremental.total_time || full.op_finish != incremental.op_finish {
        return Err(
            "full-rates simulation differs from the incremental one on ig-x4 x 192".to_string(),
        );
    }
    v.insert("simnet.run_ns.r192_allgather_16K", r192_ns);
    v.insert("simnet.full_rates_ratio.r192", r192_full_ns / r192_ns);

    for (name, plan, bytes) in [
        ("simnet.predicted_wait_share.bcast_1M", Plan::Bcast, 1 << 20),
        (
            "simnet.predicted_wait_share.allgather_64K",
            Plan::Allgather,
            64 << 10,
        ),
    ] {
        let out = run_sim(
            ig,
            &Scenario::new("ig", 48, BindingPolicy::CrossSocket, plan, bytes),
        )?;
        v.insert(name, out.wait_share);
    }

    let sim_events = sim_events_with_distances(&allgather, &report, Some(&d48));
    v.insert(
        "analyze.opgraph_ns",
        time_ns(5, || OpGraph::from_events(&sim_events)),
    );
    let graph = OpGraph::from_events(&sim_events);
    v.insert(
        "analyze.critical_path_ns",
        time_ns(5, || CriticalPathReport::extract(&graph)),
    );
    let (explained, provenance) = coll.bcast_explained(None, &comm48, 0, 1 << 20);
    let explained_report = sim48().run(&explained).map_err(|e| e.to_string())?;
    let explained_graph = OpGraph::from_events(&sim_events_with_distances(
        &explained,
        &explained_report,
        Some(&d48),
    ));
    v.insert(
        "analyze.conformance_ns",
        time_ns(5, || {
            ConformanceReport::audit(&explained_graph, &provenance)
        }),
    );
    if !ConformanceReport::audit(&explained_graph, &provenance).passed() {
        return Err("simulated broadcast does not conform to its own plan".to_string());
    }
    Ok(())
}

fn telemetry(v: &mut Values) {
    let registry = pdac_telemetry::global().registry();
    v.insert("telemetry.snapshot_ns", time_ns(9, || registry.snapshot()));
    let snapshot = registry.snapshot();
    v.insert(
        "obs.openmetrics_render_ns",
        time_ns(9, || pdac_obs::to_openmetrics(&snapshot)),
    );
}
