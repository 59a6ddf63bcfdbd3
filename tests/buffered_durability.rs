//! E12: buffered durability (§8 future work) — the `BufferedEpoch`
//! transformation provides *buffered* durable linearizability, strictly
//! weaker than FliT's guarantee and strictly cheaper on the fast path.
//!
//! The three-way relationship checked here:
//!
//! * histories from `BufferedEpoch` runs with a crash **fail** the strict
//!   durable-linearizability checker (completed post-sync ops are lost)…
//! * …but **pass** the buffered checker, which finds the sync point as its
//!   consistent cut;
//! * FliT histories pass both (a strictly durable history is a buffered
//!   one with zero drops).

use std::sync::Arc;

use cxl0::dlcheck::buffered::check_buffered_durably_linearizable;
use cxl0::dlcheck::spec::{QueueOp, QueueRet, QueueSpec, RegisterOp, RegisterRet, RegisterSpec};
use cxl0::dlcheck::{check_durably_linearizable, Recorder, ThreadId};
use cxl0::model::{MachineId, SystemConfig};
use cxl0::runtime::alloc::Allocator;
use cxl0::runtime::{
    BufferedEpoch, DurableQueue, DurableRegister, Flit, FlushPolicy, Persistence, SharedHeap,
    SimFabric,
};

const MEM: MachineId = MachineId(1);

fn setup() -> (Arc<SimFabric>, Arc<SharedHeap>) {
    let fabric = SimFabric::new(SystemConfig::symmetric_nvm(2, 1 << 14));
    let heap = Arc::new(SharedHeap::new(fabric.config(), MEM));
    (fabric, heap)
}

#[test]
fn buffered_queue_fails_strict_but_passes_buffered() {
    let (fabric, heap) = setup();
    let b = Arc::new(BufferedEpoch::create(&heap, 512, 0).unwrap());
    // The epoch machinery bumped the front of the region; the allocator
    // takes the untouched upper half.
    let alloc = Arc::new(Allocator::with_range(
        fabric.config(),
        MEM,
        1 << 13,
        1 << 13,
        Arc::clone(&b) as Arc<dyn Persistence>,
    ));
    let node = fabric.node(MachineId(0));
    let queue = DurableQueue::create(&alloc, &node).unwrap().unwrap();
    let rec: Recorder<QueueOp, QueueRet> = Recorder::new();

    b.sync(&node).unwrap(); // checkpoint 1: the empty queue

    // Two enqueues inside the durable window...
    for v in [1u64, 2] {
        let id = rec.invoke(ThreadId(0), 0, QueueOp::Enq(v));
        assert!(queue.enqueue(&node, v).unwrap());
        rec.respond(id, QueueRet::Ok);
    }
    b.sync(&node).unwrap(); // checkpoint 2

    // ...and two more that will be lost with the crash.
    for v in [3u64, 4] {
        let id = rec.invoke(ThreadId(0), 0, QueueOp::Enq(v));
        assert!(queue.enqueue(&node, v).unwrap());
        rec.respond(id, QueueRet::Ok);
    }

    fabric.crash(MEM);
    rec.crash(MEM.index());
    fabric.recover(MEM);
    b.recover(&node).unwrap();
    queue.recover(&node).unwrap();

    // Post-crash drain observes exactly the checkpoint-2 state.
    let mut drained = Vec::new();
    loop {
        let id = rec.invoke(ThreadId(1), 0, QueueOp::Deq);
        let v = queue.dequeue(&node).unwrap();
        rec.respond(id, QueueRet::Deqd(v));
        match v {
            Some(v) => drained.push(v),
            None => break,
        }
    }
    assert_eq!(drained, vec![1, 2]);

    let h = rec.finish();
    let strict = check_durably_linearizable(&QueueSpec, &h);
    assert!(
        !strict.is_ok(),
        "two completed enqueues were dropped: strict DL must fail"
    );
    let buffered = check_buffered_durably_linearizable(&QueueSpec, &h);
    assert!(buffered.is_ok(), "{buffered}");
    assert_eq!(buffered.dropped(), Some(2));
}

#[test]
fn crash_right_after_sync_drops_nothing() {
    let (fabric, heap) = setup();
    let b = Arc::new(BufferedEpoch::create(&heap, 64, 0).unwrap());
    let reg = DurableRegister::create(&heap, Arc::clone(&b) as Arc<dyn Persistence>).unwrap();
    let node = fabric.node(MachineId(0));
    let rec: Recorder<RegisterOp, RegisterRet> = Recorder::new();

    let id = rec.invoke(ThreadId(0), 0, RegisterOp::Write(7));
    reg.write(&node, 7).unwrap();
    rec.respond(id, RegisterRet::Ok);
    b.sync(&node).unwrap();

    fabric.crash(MEM);
    rec.crash(MEM.index());
    fabric.recover(MEM);
    b.recover(&node).unwrap();

    let id = rec.invoke(ThreadId(1), 0, RegisterOp::Read);
    let v = reg.read(&node).unwrap();
    rec.respond(id, RegisterRet::Value(v));
    assert_eq!(v, 7);

    let h = rec.finish();
    assert!(check_durably_linearizable(&RegisterSpec, &h).is_ok());
    let buffered = check_buffered_durably_linearizable(&RegisterSpec, &h);
    assert!(buffered.is_ok());
    assert_eq!(buffered.dropped(), Some(0));
}

#[test]
fn rollback_beats_partial_eviction() {
    // The scenario a naive "just skip the flushes" design gets wrong:
    // between syncs, cache eviction persists the *second* write but not
    // the first. Recovery must not expose that torn state — BufferedEpoch
    // rolls both back to the checkpoint.
    let (fabric, heap) = setup();
    let b = Arc::new(BufferedEpoch::create(&heap, 64, 0).unwrap());
    let r1 = DurableRegister::create(&heap, Arc::clone(&b) as Arc<dyn Persistence>).unwrap();
    let r2 = DurableRegister::create(&heap, Arc::clone(&b) as Arc<dyn Persistence>).unwrap();
    let node = fabric.node(MachineId(0));

    r1.write(&node, 10).unwrap();
    r2.write(&node, 20).unwrap();
    b.sync(&node).unwrap();

    r1.write(&node, 11).unwrap();
    r2.write(&node, 21).unwrap();
    // Evict only r2's line: home memory now holds a torn pair — r2's
    // post-checkpoint value next to r1's pre-write value (r1's 11 is
    // still cached; its checkpointed 10 lives in the shadow region).
    node.rflush(r2.cell()).unwrap();
    assert_eq!(fabric.peek_memory(r2.cell()), 21);
    assert_ne!(fabric.peek_memory(r1.cell()), 11);

    fabric.crash(MEM);
    fabric.recover(MEM);
    b.recover(&node).unwrap();

    // Rollback restored the consistent checkpoint, not the torn state.
    assert_eq!(r1.read(&node).unwrap(), 10);
    assert_eq!(r2.read(&node).unwrap(), 20);
}

#[test]
fn flit_history_passes_both_checkers() {
    let (fabric, heap) = setup();
    let p = Arc::new(Flit::new(FlushPolicy::RemoteAlways));
    let reg = DurableRegister::create(&heap, Arc::clone(&p) as Arc<dyn Persistence>).unwrap();
    let node = fabric.node(MachineId(0));
    let rec: Recorder<RegisterOp, RegisterRet> = Recorder::new();

    for v in [1u64, 2, 3] {
        let id = rec.invoke(ThreadId(0), 0, RegisterOp::Write(v));
        reg.write(&node, v).unwrap();
        rec.respond(id, RegisterRet::Ok);
    }
    fabric.crash(MEM);
    rec.crash(MEM.index());
    fabric.recover(MEM);
    let id = rec.invoke(ThreadId(1), 0, RegisterOp::Read);
    let v = reg.read(&node).unwrap();
    rec.respond(id, RegisterRet::Value(v));
    assert_eq!(v, 3);

    let h = rec.finish();
    assert!(check_durably_linearizable(&RegisterSpec, &h).is_ok());
    let buffered = check_buffered_durably_linearizable(&RegisterSpec, &h);
    assert!(buffered.is_ok());
    assert_eq!(buffered.dropped(), Some(0));
}

#[test]
fn buffered_fast_path_is_cheaper_than_flit() {
    // 500 writes: FliT pays a remote flush per write; BufferedEpoch pays
    // nothing until one sync at the end.
    const WRITES: u64 = 500;

    let (fabric_b, heap_b) = setup();
    let b = Arc::new(BufferedEpoch::create(&heap_b, 64, 0).unwrap());
    let reg_b = DurableRegister::create(&heap_b, Arc::clone(&b) as Arc<dyn Persistence>).unwrap();
    let node_b = fabric_b.node(MachineId(0));
    let before = fabric_b.stats().snapshot();
    for v in 0..WRITES {
        reg_b.write(&node_b, v).unwrap();
    }
    b.sync(&node_b).unwrap();
    let buffered_ns = fabric_b.stats().snapshot().since(&before).sim_ns;

    let (fabric_f, heap_f) = setup();
    let p = Arc::new(Flit::new(FlushPolicy::RemoteAlways));
    let reg_f = DurableRegister::create(&heap_f, Arc::clone(&p) as Arc<dyn Persistence>).unwrap();
    let node_f = fabric_f.node(MachineId(0));
    let before = fabric_f.stats().snapshot();
    for v in 0..WRITES {
        reg_f.write(&node_f, v).unwrap();
    }
    let flit_ns = fabric_f.stats().snapshot().since(&before).sim_ns;

    assert!(
        buffered_ns * 3 < flit_ns,
        "buffered {buffered_ns} should be well under a third of flit {flit_ns}"
    );
}
