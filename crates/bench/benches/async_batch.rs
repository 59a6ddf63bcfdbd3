//! Criterion bench for E11: synchronous (Alg. 2) vs asynchronous
//! (Alg. 1 on `CXL0_AF`) helping flushes, swept over the number of helped
//! reads per operation. Wall-clock companion of the `async_report` binary.
//!
//! Note on interpretation: criterion measures the *simulator's* wall
//! clock, where an `aflush` costs a host-side buffer insertion while the
//! modeled hardware cost is near zero. The modeled comparison — where
//! `flit-async` wins for k > 1 — is the deterministic simulated-time
//! sweep in `src/bin/async_report.rs`; this bench tracks the harness
//! overhead itself.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use cxl0_model::{Loc, MachineId, SystemConfig};
use cxl0_runtime::{Flit, FlushPolicy, Persistence, SharedHeap, SimFabric};

const MEM: MachineId = MachineId(2);

struct Rig {
    fabric: Arc<SimFabric>,
    cells: Vec<Loc>,
    strategy: Flit,
}

fn rig(k: usize, policy: FlushPolicy) -> Rig {
    let fabric = SimFabric::new(SystemConfig::symmetric_nvm(3, 1 << 10));
    let heap = Arc::new(SharedHeap::new(fabric.config(), MEM));
    let cells: Vec<Loc> = (0..k).map(|_| heap.alloc(1).expect("heap fits")).collect();
    let strategy = Flit::new(policy);
    for &c in &cells {
        strategy.raise_counter(c);
    }
    Rig {
        fabric,
        cells,
        strategy,
    }
}

fn helped_read_op(rig: &Rig) {
    let node = rig.fabric.node(MachineId(0));
    for &c in &rig.cells {
        rig.strategy.shared_load(&node, c, true).unwrap();
    }
    rig.strategy.complete_op(&node).unwrap();
}

fn bench_helping(c: &mut Criterion) {
    let mut group = c.benchmark_group("helped_reads_per_op");
    for k in [1usize, 4, 16] {
        group.throughput(Throughput::Elements(k as u64));
        let sync_rig = rig(k, FlushPolicy::RemoteAlways);
        group.bench_with_input(BenchmarkId::new("flit-cxl0", k), &k, |b, _| {
            b.iter(|| helped_read_op(&sync_rig))
        });
        let async_rig = rig(k, FlushPolicy::Async);
        group.bench_with_input(BenchmarkId::new("flit-async", k), &k, |b, _| {
            b.iter(|| helped_read_op(&async_rig))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_helping);
criterion_main!(benches);
