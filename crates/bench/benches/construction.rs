//! Topology-construction overhead (paper §V-B).
//!
//! "The overhead of our distance-aware framework comes mostly from sorting
//! the edges between processes on the topology information. ... This
//! overhead of sorting up to thousands of edges is minimal in intra-node
//! cases. However, on a large scale system, it's difficult for these greedy
//! algorithms to scale well with fully-connected graphs."
//!
//! These benchmarks quantify that discussion: distance-matrix computation,
//! the edge queues (here a counting sort by distance class, one pass over
//! the matrix, rather than the paper's comparison sort), Kruskal tree
//! construction and ring construction from 16 up to 1024 ranks (the
//! complete graph then has ~524k edges).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pdac_core::adaptive::{AdaptiveColl, BcastTopology};
use pdac_core::allgather_ring::Ring;
use pdac_core::bcast_tree::build_bcast_tree;
use pdac_core::edges::{edge_queue, CLASS_WEIGHTS};
use pdac_core::sched::{allgather_schedule_dist, bcast_schedule_dist, SchedConfig};
use pdac_core::TopoCache;
use pdac_hwtopo::{cluster, machines, BindingPolicy, DistanceMatrix};
use pdac_mpisim::Communicator;

/// A machine with `ranks` cores shaped like a big NUMA box.
fn setup(ranks: usize) -> DistanceMatrix {
    let boards = if ranks >= 256 { 4 } else { 2 };
    let numa = 4;
    let cores = ranks / (boards * numa);
    let machine = machines::synthetic(boards, numa, cores, true);
    assert_eq!(machine.num_cores(), ranks);
    let binding = BindingPolicy::Random { seed: 1 }.bind(&machine, ranks).unwrap();
    DistanceMatrix::for_binding(&machine, &binding)
}

fn bench_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("construction");
    for ranks in [16usize, 48, 128, 256, 1024] {
        let dist = setup(ranks);
        let edges = ranks * (ranks - 1) / 2;
        group.throughput(Throughput::Elements(edges as u64));

        group.bench_with_input(BenchmarkId::new("bcast_edge_queue", ranks), &dist, |b, d| {
            b.iter(|| edge_queue(d, Some(0), &CLASS_WEIGHTS))
        });
        group.bench_with_input(BenchmarkId::new("bcast_tree", ranks), &dist, |b, d| {
            b.iter(|| build_bcast_tree(d, 0))
        });
        group.bench_with_input(BenchmarkId::new("ring_edge_queue", ranks), &dist, |b, d| {
            b.iter(|| edge_queue(d, None, &CLASS_WEIGHTS))
        });
        group.bench_with_input(BenchmarkId::new("allgather_ring", ranks), &dist, |b, d| {
            b.iter(|| Ring::build(d))
        });
    }
    group.finish();
}

fn bench_distance_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance_matrix");
    for ranks in [48usize, 256, 1024] {
        let boards = if ranks >= 256 { 4 } else { 2 };
        let machine = machines::synthetic(boards, 4, ranks / (boards * 4), true);
        let binding = BindingPolicy::Random { seed: 1 }.bind(&machine, ranks).unwrap();
        group.throughput(Throughput::Elements((ranks * ranks) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(ranks), &(), |b, _| {
            b.iter(|| DistanceMatrix::for_binding(&machine, &binding))
        });
    }
    group.finish();
}

fn bench_schedule_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_generation");
    let dist = setup(48);
    let tree = build_bcast_tree(&dist, 0);
    let ring = Ring::build(&dist);
    group.bench_function("bcast_8M_pipelined", |b| {
        b.iter(|| bcast_schedule_dist(&tree, 8 << 20, &SchedConfig::default(), None))
    });
    group.bench_function("allgather_48_ranks", |b| {
        b.iter(|| allgather_schedule_dist(&ring, 64 << 10, None, None))
    });

    // The largest schedules `pdac-e2e`'s `plan_churn` compiles on a cache
    // hit (its `core.sched_build_ns.*` probes time the 48-rank ones): four
    // IG nodes, ranks dealt across them.
    let machine = Arc::new(cluster::homogeneous("ig-x4", &machines::ig(), 4, 2).unwrap());
    let binding = BindingPolicy::CrossNode.bind(&machine, 192).unwrap();
    let comm = Communicator::world(machine, binding);
    let coll = AdaptiveColl;
    let cache = TopoCache::new();
    let ring = coll.allgather_ring_cached(&cache, &comm);
    coll.bcast_cached(&cache, &comm, 0, 1 << 20);
    group.bench_function("allgather_192_ranks", |b| {
        b.iter(|| allgather_schedule_dist(&ring, 64 << 10, None, None))
    });
    group.bench_function("bcast_1M_cached_192_ranks", |b| {
        b.iter(|| coll.bcast_cached(&cache, &comm, 0, 1 << 20))
    });
    group.finish();
}

/// Cached vs cold topology construction on a 32-rank communicator — the
/// steady state of repeated collectives (`pdac-e2e`'s `core.plan_{cold,warm}_ns`
/// probes time the same split end to end).
fn bench_topo_cache(c: &mut Criterion) {
    let machine = Arc::new(machines::synthetic(2, 2, 8, true));
    let binding = BindingPolicy::Random { seed: 9 }.bind(&machine, 32).unwrap();
    let comm = Communicator::world(Arc::clone(&machine), binding);
    let coll = AdaptiveColl;
    let cache = TopoCache::new();
    for root in 0..32 {
        coll.bcast_tree_cached(&cache, &comm, root, BcastTopology::Hierarchical);
    }
    coll.allgather_ring_cached(&cache, &comm);

    let mut group = c.benchmark_group("topo_cache");
    group.bench_function("bcast_tree_cold", |b| {
        b.iter(|| coll.bcast_tree(&comm, 0, BcastTopology::Hierarchical))
    });
    group.bench_function("bcast_tree_cached", |b| {
        b.iter(|| coll.bcast_tree_cached(&cache, &comm, 0, BcastTopology::Hierarchical))
    });
    group.bench_function("allgather_ring_cold", |b| b.iter(|| coll.allgather_ring(&comm)));
    group.bench_function("allgather_ring_cached", |b| {
        b.iter(|| coll.allgather_ring_cached(&cache, &comm))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_construction,
    bench_distance_matrix,
    bench_schedule_generation,
    bench_topo_cache
);
criterion_main!(benches);
