//! Criterion bench for E12: strict FliT vs `BufferedEpoch` at several
//! sync intervals on a zipfian map workload. Wall-clock companion of the
//! `buffered_report` binary (which reports deterministic simulated time
//! and the ops-at-risk window).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use cxl0_model::{MachineId, SystemConfig};
use cxl0_runtime::alloc::Allocator;
use cxl0_runtime::{
    BufferedEpoch, DurableMap, Flit, FlushPolicy, Persistence, SharedHeap, SimFabric, SmrDomain,
};
use cxl0_workloads::{KeyDist, OpMix, Workload, WorkloadOp};

const MEM: MachineId = MachineId(2);
const BATCH: usize = 256;

struct Rig {
    fabric: Arc<SimFabric>,
    map: DurableMap,
    workload: Workload,
}

fn rig(strategy: Arc<dyn Persistence>) -> Rig {
    let fabric = SimFabric::new(SystemConfig::symmetric_nvm(3, 1 << 18));
    let alloc = Arc::new(Allocator::over_region(fabric.config(), MEM, strategy));
    let smr = Arc::new(SmrDomain::new(alloc));
    let node = fabric.node(MachineId(0));
    let map = DurableMap::create(&smr, &node, 1024)
        .expect("fresh machine")
        .expect("heap fits");
    Rig {
        fabric,
        map,
        workload: Workload::new(KeyDist::zipfian(512, 0.99), OpMix::update_heavy(), 42),
    }
}

fn run_batch(rig: &mut Rig) {
    let node = rig.fabric.node(MachineId(0));
    for op in rig.workload.take_ops(BATCH) {
        match op {
            WorkloadOp::Read(k) => {
                rig.map.get(&node, k).unwrap();
            }
            WorkloadOp::Insert(k, v) => {
                rig.map.insert(&node, k, v).unwrap();
            }
            WorkloadOp::Remove(k) => {
                rig.map.remove(&node, k).unwrap();
            }
        }
    }
}

fn bench_buffered(c: &mut Criterion) {
    let mut group = c.benchmark_group("durability_strategies_map");
    group.throughput(Throughput::Elements(BATCH as u64));

    let mut flit = rig(Arc::new(Flit::new(FlushPolicy::RemoteAlways)));
    group.bench_function("flit-cxl0", |b| b.iter(|| run_batch(&mut flit)));

    for interval in [4usize, 64] {
        let fabric = SimFabric::new(SystemConfig::symmetric_nvm(3, 1 << 18));
        let heap = Arc::new(SharedHeap::new(fabric.config(), MEM));
        let buffered = Arc::new(BufferedEpoch::create(&heap, 8192, interval).expect("heap fits"));
        // The epoch machinery bumped the front of the region; the
        // allocator takes the untouched upper half.
        let alloc = Arc::new(Allocator::with_range(
            fabric.config(),
            MEM,
            1 << 17,
            1 << 17,
            buffered as Arc<dyn Persistence>,
        ));
        let smr = Arc::new(SmrDomain::new(alloc));
        let node = fabric.node(MachineId(0));
        let map = DurableMap::create(&smr, &node, 1024)
            .expect("fresh machine")
            .expect("heap fits");
        let mut r = Rig {
            fabric,
            map,
            workload: Workload::new(KeyDist::zipfian(512, 0.99), OpMix::update_heavy(), 42),
        };
        group.bench_with_input(
            BenchmarkId::new("buffered-epoch", interval),
            &interval,
            |b, _| b.iter(|| run_batch(&mut r)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_buffered);
criterion_main!(benches);
