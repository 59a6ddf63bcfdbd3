//! Crash consistency of the `cxl0::alloc` allocator subsystem, under
//! randomized interleavings of alloc/free/torn-op/crash/recover and
//! under every [`PersistMode`]: **no block is ever lost, and no block
//! is ever handed out twice** — plus the headline acceptance scenario,
//! a `DurableQueue` churn loop of ≥ 10× the region's bump capacity that
//! completes because reclaimed nodes are reused.

use std::collections::BTreeSet;
use std::sync::Arc;

use cxl0::model::{Loc, MachineId, SystemConfig};
use cxl0::runtime::alloc::{TornAlloc, TornFree, META_CELLS};
use cxl0::runtime::api::{Cluster, PersistMode};
use cxl0::runtime::FreeError;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Allocate a block (all allocations share one size class, so the
    /// model's free set maps onto exactly one free list).
    Alloc,
    /// Free the i-th oldest live block, if any.
    Free(u8),
    /// Double-free the i-th oldest *freed* block — must be refused.
    DoubleFree(u8),
    /// Tear an allocation pop at the given stage, then crash + recover.
    TornAllocCrash(u8),
    /// Tear a free of the i-th oldest live block, then crash + recover.
    TornFreeCrash(u8, u8),
    /// Crash the memory node and run recovery (clean — nothing torn).
    CrashRecover,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Alloc),
        (0..8u8).prop_map(Op::Free),
        (0..8u8).prop_map(Op::DoubleFree),
        (0..4u8).prop_map(Op::TornAllocCrash),
        (0..8u8, 0..4u8).prop_map(|(i, s)| Op::TornFreeCrash(i, s)),
        Just(Op::CrashRecover),
    ]
}

const ALLOC_STAGES: [TornAlloc; 4] = [
    TornAlloc::Claimed,
    TornAlloc::Recorded,
    TornAlloc::Swung,
    TornAlloc::Marked,
];
const FREE_STAGES: [TornFree; 4] = [
    TornFree::Latched,
    TornFree::Claimed,
    TornFree::Linked,
    TornFree::Pushed,
];

/// The single-threaded reference model: which blocks the application
/// owns, and which it has returned. (Block size is fixed at one class
/// so the model's free set maps onto exactly one free list.)
#[derive(Default)]
struct Model {
    /// Blocks handed out and not yet freed (insertion order).
    live: Vec<Loc>,
    /// Blocks returned to the allocator (the class free set).
    freed: BTreeSet<Loc>,
}

fn run_interleaving(mode: PersistMode, ops: Vec<Op>) {
    let cluster = Cluster::builder(SystemConfig::symmetric_nvm(2, 4096))
        .persist(mode)
        .root_capacity(0)
        .build()
        .unwrap();
    let mem = cluster.memory_node();
    let session = cluster.session(MachineId(0));
    let alloc = Arc::clone(session.allocator());
    let mut model = Model::default();
    // All blocks share one size class, so the model's `freed` set must
    // equal that class's free list after every recovery.
    const CELLS: u32 = 2;

    let crash_recover = |model: &Model| {
        cluster.crash(mem);
        cluster.recover(mem);
        let s = cluster.session(MachineId(0));
        s.recover_roots().unwrap();
        // Invariant: after recovery the free list holds *exactly* the
        // model's freed set (no block lost, none twice).
        let list: Vec<Loc> = alloc.debug_free_list(&s, CELLS).unwrap();
        let listed: BTreeSet<Loc> = list.iter().copied().collect();
        assert_eq!(listed.len(), list.len(), "a block is on the list twice");
        assert_eq!(listed, model.freed, "free list diverged from the model");
        for b in &model.live {
            assert!(!listed.contains(b), "live block {b:?} is on the free list");
        }
    };

    for op in ops {
        match op {
            Op::Alloc => {
                if let Some(b) = alloc.alloc(&session, CELLS).unwrap() {
                    assert!(
                        !model.live.contains(&b.loc),
                        "block {0:?} handed out while live",
                        b.loc
                    );
                    model.freed.remove(&b.loc);
                    model.live.push(b.loc);
                }
            }
            Op::Free(i) => {
                if model.live.is_empty() {
                    continue;
                }
                let loc = model.live.remove(usize::from(i) % model.live.len());
                alloc.free(&session, loc).unwrap().unwrap();
                assert!(model.freed.insert(loc));
            }
            Op::DoubleFree(i) => {
                let Some(loc) = model
                    .freed
                    .iter()
                    .nth(usize::from(i) % model.freed.len().max(1))
                else {
                    continue;
                };
                assert_eq!(
                    alloc.free(&session, *loc).unwrap(),
                    Err(FreeError::DoubleFree)
                );
            }
            Op::TornAllocCrash(stage) => {
                // Tears mid-pop (a no-op if the free list is empty),
                // then crashes: the popped block must be restored.
                let torn = alloc
                    .torn_alloc(&session, CELLS, ALLOC_STAGES[usize::from(stage) % 4])
                    .unwrap();
                if let Some(loc) = torn {
                    assert!(model.freed.contains(&loc), "tore a non-free block");
                }
                crash_recover(&model);
            }
            Op::TornFreeCrash(i, stage) => {
                if model.live.is_empty() {
                    crash_recover(&model);
                    continue;
                }
                let loc = model.live.remove(usize::from(i) % model.live.len());
                alloc
                    .torn_free(&session, loc, FREE_STAGES[usize::from(stage) % 4])
                    .unwrap()
                    .unwrap();
                // The free was invoked and the caller no longer owns the
                // block; recovery must complete it exactly once.
                assert!(model.freed.insert(loc));
                crash_recover(&model);
            }
            Op::CrashRecover => crash_recover(&model),
        }
    }
    crash_recover(&model);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The acceptance-criterion proptest: random alloc/free/torn-op/
    /// crash/recover interleavings, under every *sound* durability mode
    /// plus the no-durability baseline (whose state survives a
    /// memory-node crash in the issuing node's cache). The one
    /// exclusion is `PersistMode::FlitX86`, the deliberately unsound x86
    /// port the paper's §6 keeps for comparison: its "flushes" park lines in the
    /// memory node's cache, so a memory-node crash loses acknowledged
    /// writes below the allocator — see
    /// [`flit_x86_unsoundness_reaches_the_allocator`] for that claim,
    /// pinned.
    #[test]
    fn no_block_lost_or_doubly_granted(ops in proptest::collection::vec(arb_op(), 0..48)) {
        for mode in PersistMode::comparison_set() {
            if mode != PersistMode::FlitX86 {
                run_interleaving(mode, ops.clone());
            }
        }
    }
}

/// The §6 motivating claim, reproduced at subsystem scale: no recovery
/// sweep can make allocation crash-consistent over an unsound flush
/// layer. Under the unadapted x86 FliT, a *completed* free is lost by a
/// memory-node crash (the freed block vanishes from the durable free
/// list), while the identical program under `PersistMode::FlitCxl0`
/// keeps it.
#[test]
fn flit_x86_unsoundness_reaches_the_allocator() {
    let survivors = |mode: PersistMode| {
        let cluster = Cluster::builder(SystemConfig::symmetric_nvm(2, 4096))
            .persist(mode)
            .root_capacity(0)
            .build()
            .unwrap();
        let mem = cluster.memory_node();
        let s = cluster.session(MachineId(0));
        let alloc = Arc::clone(s.allocator());
        let b = alloc.alloc(&s, 2).unwrap().unwrap();
        alloc.free(&s, b.loc).unwrap().unwrap();
        cluster.crash(mem);
        cluster.recover(mem);
        s.recover_roots().unwrap();
        alloc.debug_free_list(&s, 2).unwrap().len()
    };
    assert_eq!(survivors(PersistMode::FlitCxl0), 1);
    assert_eq!(
        survivors(PersistMode::FlitX86),
        0,
        "the unsound port must lose the completed free — if this starts \
         passing, the flit-x86 ablation no longer demonstrates §6"
    );
}

#[test]
fn torn_ops_recover_under_buffered_mode_after_sync() {
    // Buffered durability rolls unsynced epochs back wholesale; with a
    // sync point after the tear, the recovery sweep sees the torn state
    // and completes it, exactly like the strict modes.
    let cluster = Cluster::builder(SystemConfig::symmetric_nvm(2, 4096))
        .persist(PersistMode::Buffered {
            capacity: 512,
            sync_interval: 0,
        })
        .root_capacity(0)
        .build()
        .unwrap();
    let mem = cluster.memory_node();
    let s = cluster.session(MachineId(0));
    let alloc = Arc::clone(s.allocator());

    let a = alloc.alloc(&s, 2).unwrap().unwrap();
    let b = alloc.alloc(&s, 2).unwrap().unwrap();
    alloc.free(&s, a.loc).unwrap().unwrap();
    alloc
        .torn_free(&s, b.loc, TornFree::Claimed)
        .unwrap()
        .unwrap();
    s.sync().unwrap();

    cluster.crash(mem);
    cluster.recover(mem);
    s.recover_roots().unwrap();
    let listed: Vec<Loc> = alloc.debug_free_list(&s, 2).unwrap();
    let set: BTreeSet<Loc> = listed.iter().copied().collect();
    assert_eq!(set.len(), listed.len());
    assert_eq!(set, [a.loc, b.loc].into_iter().collect());
}

/// The headline acceptance scenario: an enqueue/dequeue churn loop of
/// ≥ 10× the region's bump capacity completes without exhausting the
/// heap, because dequeued nodes are reclaimed and reused.
#[test]
fn queue_churn_runs_10x_past_bump_capacity() {
    // A deliberately tiny memory node: the registry + allocator
    // metadata + a queue leave room for only a few dozen node blocks.
    let cells = META_CELLS + 256;
    let cluster = Cluster::builder(SystemConfig::symmetric_nvm(2, cells))
        .root_capacity(4)
        .build()
        .unwrap();
    let setup = cluster.session(MachineId(0));
    let q = setup.create_queue::<u64>("churn").unwrap();
    // A fresh session so the stats delta covers the churn loop only.
    let s = cluster.session(MachineId(0));

    // Every enqueue allocates a 3-cell block: without reclamation the
    // region would be exhausted after < 256 / 3 operations. Run > 10×
    // the whole region's capacity.
    let target = u64::from(cells) * 10;
    for i in 0..target {
        assert!(
            q.enqueue(&s, i + 1).unwrap(),
            "op {i}: heap exhausted — reclaimed nodes were not reused"
        );
        assert_eq!(q.dequeue(&s).unwrap(), Some(i + 1));
    }

    let d = s.stats_delta();
    assert_eq!(d.allocs - d.frees, 0, "churn must be allocation-neutral");
    assert!(
        d.freelist_hits > target - 100,
        "steady-state churn must be served by reuse ({} hits)",
        d.freelist_hits
    );
    assert!(
        d.hw_cells < 32,
        "steady-state churn must run in a constant handful of cells \
         (high-water {})",
        d.hw_cells
    );
}

/// Same bounded-memory property for the other reclaiming structures.
#[test]
fn stack_and_list_churn_run_past_bump_capacity() {
    let cells = META_CELLS + 256;
    let cluster = Cluster::builder(SystemConfig::symmetric_nvm(2, cells))
        .root_capacity(4)
        .build()
        .unwrap();
    let s = cluster.session(MachineId(0));
    let stack = s.create_stack::<u64>("st").unwrap();
    let list = s.create_list::<u64>("ls").unwrap();
    for i in 0..1500u64 {
        assert!(stack.push(&s, i + 1).unwrap(), "op {i}");
        assert_eq!(stack.pop(&s).unwrap(), Some(i + 1));
        assert!(list.insert(&s, i % 9 + 1).unwrap(), "op {i}");
        assert!(list.remove(&s, i % 9 + 1).unwrap(), "op {i}");
        // No reclaim calls: the list retires unlinked nodes through the
        // SMR domain, whose amortized collection must keep this tiny
        // region serviceable on its own.
    }
    let d = s.stats_delta();
    assert!(d.smr_retires >= 1500, "retires {}", d.smr_retires);
    assert!(
        d.smr_reclaims > d.smr_retires - 64,
        "limbo must stay bounded ({} retired, {} reclaimed)",
        d.smr_retires,
        d.smr_reclaims
    );
}

/// Allocator recovery is wired into the session API: a torn allocator
/// op plus `Session::recover_roots` leaves the heap fully serviceable.
#[test]
fn recover_roots_runs_the_allocator_sweep() {
    let cluster = Cluster::symmetric(1, 4096).unwrap();
    let mem = cluster.memory_node();
    let s = cluster.session(MachineId(0));
    let alloc = Arc::clone(s.allocator());

    let b = alloc.alloc(&s, 2).unwrap().unwrap();
    alloc
        .torn_free(&s, b.loc, TornFree::Linked)
        .unwrap()
        .unwrap();

    cluster.crash(mem);
    cluster.recover(mem);
    s.recover_roots().unwrap();

    // The torn free completed: the block is reusable, exactly once.
    let again = alloc.alloc(&s, 2).unwrap().unwrap();
    assert_eq!(again.loc, b.loc);
    assert!(alloc.debug_free_list(&s, 2).unwrap().is_empty());
}

/// The allocator's persist budget under FliT-CXL0 on one thread, where
/// every flagged write pays exactly one synchronous flush: a recycled
/// alloc issues 5 (claim, record, swing, mark, clear), a free 4 (latch,
/// claim-and-link, push, clear), and a plain-queue enqueue+dequeue pair
/// 14 — those two plus the queue's own 5.
#[test]
fn flit_cxl0_persist_budget_per_alloc_free_and_queue_pair() {
    let cluster = Cluster::builder(SystemConfig::symmetric_nvm(2, 4096))
        .persist(PersistMode::FlitCxl0)
        .root_capacity(4)
        .build()
        .unwrap();
    let s = cluster.session(MachineId(0));
    let alloc = Arc::clone(s.allocator());
    let flushes = |op: &dyn Fn()| {
        let before = s.stats_delta();
        op();
        let d = s.stats_delta().since(&before);
        d.lflushes + d.rflushes
    };

    let b = alloc.alloc(&s, 2).unwrap().unwrap();
    assert_eq!(flushes(&|| alloc.free(&s, b.loc).unwrap().unwrap()), 4);
    let recycled = || assert!(alloc.alloc(&s, 2).unwrap().unwrap().recycled);
    assert_eq!(flushes(&recycled), 5);

    let q = s.create_queue::<u64>("q").unwrap();
    // The first pair allocates fresh; its dequeue frees the old dummy,
    // which the measured pair's enqueue then recycles.
    assert!(q.enqueue(&s, 1).unwrap());
    assert_eq!(q.dequeue(&s).unwrap(), Some(1));
    let before = s.stats_delta();
    let pair = || {
        assert!(q.enqueue(&s, 2).unwrap());
        assert_eq!(q.dequeue(&s).unwrap(), Some(2));
    };
    assert_eq!(flushes(&pair), 14);
    let d = s.stats_delta().since(&before);
    assert_eq!((d.allocs, d.frees, d.freelist_hits), (1, 1, 1));
}

/// A free torn right after its claim-and-link CAS leaves the block's
/// header linked to the top it observed, though the block never became
/// the top. A later free pushes past that stale link; recovery must
/// relink the torn block onto the current top, leaving every block on
/// the list exactly once.
#[test]
fn free_torn_after_claim_relinks_its_stale_link_on_recovery() {
    let cluster = Cluster::builder(SystemConfig::symmetric_nvm(2, 4096))
        .persist(PersistMode::FlitCxl0)
        .root_capacity(0)
        .build()
        .unwrap();
    let mem = cluster.memory_node();
    let s = cluster.session(MachineId(0));
    let alloc = Arc::clone(s.allocator());
    let [t, x, y] = [(); 3].map(|()| alloc.alloc(&s, 2).unwrap().unwrap().loc);

    alloc.free(&s, t).unwrap().unwrap();
    // X's header now links to T, but the head still names T.
    alloc.torn_free(&s, x, TornFree::Claimed).unwrap().unwrap();
    assert_eq!(alloc.debug_free_list(&s, 2).unwrap(), vec![t]);
    alloc.free(&s, y).unwrap().unwrap();
    assert_eq!(alloc.debug_free_list(&s, 2).unwrap(), vec![y, t]);

    cluster.crash(mem);
    cluster.recover(mem);
    s.recover_roots().unwrap();
    // X went on top, linked to Y rather than its stale T.
    assert_eq!(alloc.debug_free_list(&s, 2).unwrap(), vec![x, y, t]);
}
