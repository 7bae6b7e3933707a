//! Simulator engine benchmarks: discrete-event execution and schedule
//! validation costs for realistic collective schedules, plus the real
//! thread executor moving actual bytes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pdac_core::adaptive::AdaptiveColl;
use pdac_core::verify;
use pdac_hwtopo::{machines, BindingPolicy};
use pdac_mpisim::{Communicator, ThreadExecutor};
use pdac_simnet::{SimConfig, SimExecutor};
use std::sync::Arc;

fn bench_sim_executor(c: &mut Criterion) {
    let ig = Arc::new(machines::ig());
    let binding = BindingPolicy::CrossSocket.bind(&ig, 48).unwrap();
    let comm = Communicator::world(Arc::clone(&ig), binding.clone());
    let coll = AdaptiveColl;

    let mut group = c.benchmark_group("sim_executor");
    for (name, schedule) in [
        ("bcast_1M", coll.bcast(&comm, 0, 1 << 20)),
        ("allgather_64K", coll.allgather(&comm, 64 << 10)),
    ] {
        group.throughput(Throughput::Elements(schedule.ops.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(name), &schedule, |b, s| {
            let exec = SimExecutor::new(&ig, &binding, SimConfig { allow_cache: false });
            b.iter(|| exec.run(s).unwrap())
        });
    }
    group.finish();
}

fn bench_validation(c: &mut Criterion) {
    let ig = Arc::new(machines::ig());
    let binding = BindingPolicy::Contiguous.bind(&ig, 48).unwrap();
    let comm = Communicator::world(Arc::clone(&ig), binding);
    let coll = AdaptiveColl;
    // The allgather schedule has ~4.6k ops / ~2.3k copies: the heaviest
    // validation case (transitive-reachability race check).
    let schedule = coll.allgather(&comm, 4096);
    c.bench_function("validate_allgather_48", |b| b.iter(|| schedule.validate().unwrap()));
    // The same checking pass plus the indexes both executors read.
    let distances = comm.distances();
    c.bench_function("lower_allgather_48", |b| {
        b.iter(|| schedule.lower(Some(&distances)).unwrap())
    });
}

fn bench_thread_executor(c: &mut Criterion) {
    let ig = Arc::new(machines::ig());
    let binding = BindingPolicy::Contiguous.bind(&ig, 16).unwrap();
    let comm = Communicator::world(Arc::clone(&ig), binding);
    let coll = AdaptiveColl;

    let mut group = c.benchmark_group("thread_executor");
    group.sample_size(20);
    for (name, schedule, bytes) in [
        ("bcast_16r_256K", coll.bcast(&comm, 0, 256 << 10), 256usize << 10),
        ("allgather_16r_32K", coll.allgather(&comm, 32 << 10), 16 * (32 << 10)),
    ] {
        group.throughput(Throughput::Bytes(bytes as u64));
        group.bench_with_input(BenchmarkId::from_parameter(name), &schedule, |b, s| {
            b.iter(|| ThreadExecutor::new().run(s, verify::pattern).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sim_executor, bench_validation, bench_thread_executor);
criterion_main!(benches);
