//! Criterion bench for E8: per-operation cost of the durability
//! transformations (§6.1) on the durable map and queue, plus the FliT
//! counter-striping ablation.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cxl0_bench::{bench_allocator, bench_smr, MEM_NODE};
use cxl0_model::MachineId;
use cxl0_runtime::{
    DurableMap, DurableQueue, Flit, FlushPolicy, NaiveMStore, NoPersistence, Persistence,
};
use cxl0_workloads::{KeyDist, OpMix, Workload, WorkloadOp};

fn strategies() -> Vec<Arc<dyn Persistence>> {
    vec![
        Arc::new(NoPersistence),
        Arc::new(Flit::new(FlushPolicy::LocalAlways)),
        Arc::new(Flit::new(FlushPolicy::RemoteAlways)),
        Arc::new(Flit::new(FlushPolicy::LocalWhenOwner)),
        Arc::new(NaiveMStore),
    ]
}

fn map_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("map_mixed_ops");
    for strategy in strategies() {
        let name = strategy.name();
        let (fabric, smr) = bench_smr(1 << 20, strategy);
        let node = fabric.node(MachineId(0));
        let map = DurableMap::create(&smr, &node, 4096).unwrap().unwrap();
        let mut w = Workload::new(KeyDist::zipfian(1024, 0.99), OpMix::update_heavy(), 11);
        group.bench_function(BenchmarkId::new("strategy", name), |b| {
            b.iter(|| match w.next_op() {
                WorkloadOp::Read(k) => {
                    map.get(&node, k).unwrap();
                }
                WorkloadOp::Insert(k, v) => {
                    map.insert(&node, k, v).unwrap();
                }
                WorkloadOp::Remove(k) => {
                    map.remove(&node, k).unwrap();
                }
            })
        });
    }
    group.finish();
}

fn queue_pairs(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue_enq_deq");
    for strategy in strategies() {
        let name = strategy.name();
        let (fabric, alloc) = bench_allocator(1 << 22, strategy);
        let node = fabric.node(MachineId(0));
        let queue = DurableQueue::create(&alloc, &node).unwrap().unwrap();
        let mut i = 0u64;
        group.bench_function(BenchmarkId::new("strategy", name), |b| {
            b.iter(|| {
                i += 1;
                queue.enqueue(&node, i).unwrap();
                queue.dequeue(&node).unwrap()
            })
        });
    }
    group.finish();
}

/// Ablation: FliT counter table striping — per-cell (4096 stripes) down
/// to a single shared counter (maximal false sharing → helper flushes).
fn counter_striping(c: &mut Criterion) {
    let mut group = c.benchmark_group("flit_counter_striping");
    for stripes in [1usize, 16, 256, 4096] {
        let (fabric, smr) = bench_smr(
            1 << 20,
            Arc::new(Flit::with_stripes(FlushPolicy::RemoteAlways, stripes)),
        );
        let node = fabric.node(MachineId(0));
        let map = DurableMap::create(&smr, &node, 4096).unwrap().unwrap();
        let mut w = Workload::new(KeyDist::uniform(1024), OpMix::update_heavy(), 13);
        group.bench_with_input(BenchmarkId::from_parameter(stripes), &stripes, |b, _| {
            b.iter(|| match w.next_op() {
                WorkloadOp::Read(k) => {
                    map.get(&node, k).unwrap();
                }
                WorkloadOp::Insert(k, v) => {
                    map.insert(&node, k, v).unwrap();
                }
                WorkloadOp::Remove(k) => {
                    map.remove(&node, k).unwrap();
                }
            })
        });
        let _ = &fabric;
        let _ = MEM_NODE;
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = map_ops, queue_pairs, counter_striping
}
criterion_main!(benches);
