//! FliT over the `CXL0_AF` asynchronous-flush extension.
//!
//! The original FliT (Algorithm 1) was designed for x86's *asynchronous*
//! flushes: `CLFLUSHOPT` enqueues a write-back and a later `SFENCE` waits
//! for it. The paper's CXL0 adaptation (Algorithm 2) had to fall back to
//! synchronous `RFlush`es because CXL lacks asynchronous flushes — and its
//! §3.2 sketches how to add them via persistency buffers. [`FlitAsync`]
//! closes the loop: it is Algorithm 1 transplanted onto the `CXL0_AF`
//! extension (`AFlush` + `Barrier`), durably linearizable under partial
//! crashes:
//!
//! | Algorithm 1 (x86) | [`FlitAsync`] (`CXL0_AF`) |
//! |---|---|
//! | `FENCE()` at `shared_store` entry | leading `Barrier` |
//! | `Store` | `LStore` |
//! | `Flush` (`CLFLUSHOPT`) | `AFlush` |
//! | `MFENCE()` after the flush | trailing `Barrier` |
//! | helping `Flush` in `shared_load` (no fence) | helping `AFlush` (no barrier) |
//! | `completeOp`: `MFENCE()` | `completeOp`: `Barrier` |
//!
//! The crucial difference from a naive "defer all persistence to
//! `completeOp`" design: **stores persist synchronously** (the trailing
//! barrier inside `shared_store`), so per-thread persistence remains
//! prefix-ordered and a crash can never persist a later store of an
//! operation without an earlier one. Only the *helping* flushes performed
//! by readers are deferred — they protect another thread's store, whose
//! own writer still guarantees it; the reader merely must persist it
//! before *its own* operation completes (P-V condition 3/4), which the
//! `completeOp` barrier does.
//!
//! Where it wins: read-heavy contended workloads. A reader that observes a
//! positive FliT counter pays a buffer enqueue ([`CostModel::aflush_issue`])
//! instead of a synchronous remote flush, and all of an operation's helping
//! write-backs retire, overlapped, under one barrier.
//!
//! [`CostModel::aflush_issue`]: crate::cost::CostModel

use cxl0_model::{Loc, StoreKind};

use crate::backend::NodeHandle;
use crate::error::OpResult;
use crate::flit::{FlitTable, Persistence};

/// Algorithm 1 (the original, asynchronous-flush FliT) adapted to the
/// `CXL0_AF` extension: `LStore` + `AFlush` + `Barrier`, with deferred
/// helping flushes on the read path.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use cxl0_runtime::{SimFabric, DurableQueue, FlitAsync, Persistence};
/// use cxl0_runtime::alloc::Allocator;
/// use cxl0_model::{SystemConfig, MachineId};
///
/// let fabric = SimFabric::new(SystemConfig::symmetric_nvm(3, 1024));
/// let persist: Arc<dyn Persistence> = Arc::new(FlitAsync::default());
/// let alloc = Arc::new(Allocator::over_region(fabric.config(), MachineId(2), persist));
/// let node = fabric.node(MachineId(0));
/// let queue = DurableQueue::create(&alloc, &node)?.unwrap();
/// queue.enqueue(&node, 7)?;
///
/// fabric.crash(MachineId(2));
/// fabric.recover(MachineId(2));
/// queue.recover(&node)?;
/// assert_eq!(queue.dequeue(&node)?, Some(7));
/// # Ok::<(), cxl0_runtime::Crashed>(())
/// ```
#[derive(Debug)]
pub struct FlitAsync {
    table: FlitTable,
}

impl FlitAsync {
    /// Creates the transformation with a counter table of `stripes`.
    pub fn new(stripes: usize) -> Self {
        FlitAsync {
            table: FlitTable::new(stripes),
        }
    }
}

impl Default for FlitAsync {
    fn default() -> Self {
        FlitAsync::new(1024)
    }
}

impl Persistence for FlitAsync {
    fn name(&self) -> &'static str {
        "flit-async"
    }

    fn shared_load(&self, node: &NodeHandle, loc: Loc, pflag: bool) -> OpResult<u64> {
        let val = node.load(loc)?;
        if pflag && self.table.in_flight(loc) {
            // Help, but do not wait: the write-back retires under this
            // operation's completeOp barrier (Alg. 1 lines 12–15).
            node.aflush(loc)?;
        }
        Ok(val)
    }

    fn shared_store(&self, node: &NodeHandle, loc: Loc, v: u64, pflag: bool) -> OpResult<()> {
        if !pflag {
            return node.lstore(loc, v);
        }
        // Alg. 1 line 18: prior (helping) flushes must complete before the
        // store becomes visible, so dependencies persist before this store
        // linearizes (P-V condition 4).
        node.barrier()?;
        self.table.enter(loc);
        let result = node.lstore(loc, v).and_then(|()| {
            node.aflush(loc)?;
            // Alg. 1 line 23: the store is persistent before we return, so
            // per-thread persistence stays prefix-ordered.
            node.barrier()?;
            // The trailing barrier is this strategy's durability point:
            // acknowledge it to the sanitizer/tracer seam, as the
            // synchronous strategies do after their RFlush.
            node.observe(|o| o.on_persist_ack(loc));
            Ok(())
        });
        // On a crash the counter stays raised: a leaked positive counter
        // only causes conservative helper flushes, never a safety loss.
        if result.is_ok() {
            self.table.exit(loc);
        }
        result
    }

    fn private_load(&self, node: &NodeHandle, loc: Loc) -> OpResult<u64> {
        node.load(loc)
    }

    fn private_store(&self, node: &NodeHandle, loc: Loc, v: u64, pflag: bool) -> OpResult<()> {
        node.lstore(loc, v)?;
        if pflag {
            node.aflush(loc)?;
            node.barrier()?;
            node.observe(|o| o.on_persist_ack(loc));
        }
        Ok(())
    }

    fn shared_cas(
        &self,
        node: &NodeHandle,
        loc: Loc,
        old: u64,
        new: u64,
        pflag: bool,
    ) -> OpResult<Result<u64, u64>> {
        if !pflag {
            return node.cas(StoreKind::Local, loc, old, new);
        }
        node.barrier()?;
        self.table.enter(loc);
        let result = node.cas(StoreKind::Local, loc, old, new).and_then(|r| {
            // Success persists the installed value; failure acted as a
            // p-load and helps persist the observed one (condition 3).
            node.aflush(loc)?;
            node.barrier()?;
            node.observe(|o| o.on_persist_ack(loc));
            Ok(r)
        });
        if result.is_ok() {
            self.table.exit(loc);
        }
        result
    }

    fn shared_faa(&self, node: &NodeHandle, loc: Loc, delta: u64, pflag: bool) -> OpResult<u64> {
        if !pflag {
            return node.faa(StoreKind::Local, loc, delta);
        }
        node.barrier()?;
        self.table.enter(loc);
        let result = node.faa(StoreKind::Local, loc, delta).and_then(|old| {
            node.aflush(loc)?;
            node.barrier()?;
            node.observe(|o| o.on_persist_ack(loc));
            Ok(old)
        });
        if result.is_ok() {
            self.table.exit(loc);
        }
        result
    }

    fn complete_op(&self, node: &NodeHandle) -> OpResult<()> {
        // Alg. 1 line 29: retire this operation's helping flushes before
        // the operation returns.
        node.barrier()?;
        Ok(())
    }

    // The batched-store path (`Persistence::batched_store` /
    // `flush_batch`) keeps the trait default — LStore + AFlush per
    // store, one Barrier per batch — which *is* this strategy's own
    // discipline applied at batch rather than op granularity: §3.2's
    // persistency-buffer amortization.
}

impl FlitAsync {
    /// Testing hook: raises the FliT counter for `loc` as an in-flight
    /// writer would.
    #[doc(hidden)]
    pub fn raise_counter(&self, loc: Loc) {
        self.table.enter(loc);
    }

    /// Testing hook: lowers the FliT counter for `loc`.
    #[doc(hidden)]
    pub fn lower_counter(&self, loc: Loc) {
        self.table.exit(loc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimFabric;
    use cxl0_model::{MachineId, SystemConfig};

    const M0: MachineId = MachineId(0);
    const MEM: MachineId = MachineId(1);

    fn setup() -> (std::sync::Arc<SimFabric>, NodeHandle, Loc) {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 8));
        let node = f.node(M0);
        (f, node, Loc::new(MEM, 0))
    }

    #[test]
    fn store_is_persistent_before_returning() {
        let (f, node, x) = setup();
        let p = FlitAsync::default();
        p.shared_store(&node, x, 9, true).unwrap();
        // The trailing barrier inside shared_store persisted it already.
        assert_eq!(f.peek_memory(x), 9);
        assert_eq!(f.pending_flushes(M0), 0);
    }

    #[test]
    fn unflagged_store_is_not_persistent() {
        let (f, node, x) = setup();
        let p = FlitAsync::default();
        p.shared_store(&node, x, 9, false).unwrap();
        assert_eq!(f.peek_memory(x), 0);
    }

    #[test]
    fn helping_load_defers_until_complete_op() {
        let (f, node, x) = setup();
        let p = FlitAsync::default();
        // Simulate another thread's in-flight store.
        p.raise_counter(x);
        node.lstore(x, 7).unwrap();
        let v = p.shared_load(&node, x, true).unwrap();
        assert_eq!(v, 7);
        // Help was enqueued, not performed:
        assert_eq!(f.pending_flushes(M0), 1);
        assert_eq!(f.peek_memory(x), 0);
        // completeOp retires it.
        p.complete_op(&node).unwrap();
        assert_eq!(f.pending_flushes(M0), 0);
        assert_eq!(f.peek_memory(x), 7);
        p.lower_counter(x);
    }

    #[test]
    fn helping_load_skips_quiet_cells() {
        let (f, node, x) = setup();
        let p = FlitAsync::default();
        node.lstore(x, 7).unwrap();
        p.shared_load(&node, x, true).unwrap();
        assert_eq!(f.pending_flushes(M0), 0); // counter at zero: no help
    }

    #[test]
    fn leading_barrier_persists_prior_helps_before_store() {
        let (f, node, x) = setup();
        let y = Loc::new(MEM, 1);
        let p = FlitAsync::default();
        // A helped-but-unretired cell...
        p.raise_counter(y);
        node.lstore(y, 5).unwrap();
        p.shared_load(&node, y, true).unwrap();
        assert_eq!(f.peek_memory(y), 0);
        // ... persists before the next shared store linearizes.
        p.shared_store(&node, x, 1, true).unwrap();
        assert_eq!(f.peek_memory(y), 5);
        p.lower_counter(y);
    }

    #[test]
    fn cas_and_faa_persist_synchronously() {
        let (f, node, x) = setup();
        let p = FlitAsync::default();
        assert_eq!(p.shared_cas(&node, x, 0, 4, true).unwrap(), Ok(0));
        assert_eq!(f.peek_memory(x), 4);
        assert_eq!(p.shared_faa(&node, x, 3, true).unwrap(), 4);
        assert_eq!(f.peek_memory(x), 7);
    }

    #[test]
    fn private_store_persists_when_flagged() {
        let (f, node, x) = setup();
        let p = FlitAsync::default();
        p.private_store(&node, x, 2, true).unwrap();
        assert_eq!(f.peek_memory(x), 2);
        p.private_store(&node, x, 3, false).unwrap();
        assert_eq!(f.peek_memory(x), 2); // unflagged: cache only
        assert_eq!(p.private_load(&node, x).unwrap(), 3);
    }

    #[test]
    fn helped_reads_are_cheaper_than_sync_flit() {
        use crate::flit::FlitCxl0;
        // Same scenario under both transformations: a hot cell with a
        // permanently raised counter, N helped reads, one completeOp.
        let reads = 64;

        let (f_async, node_a, x_a) = setup();
        let pa = FlitAsync::default();
        pa.raise_counter(x_a);
        node_a.lstore(x_a, 1).unwrap();
        for _ in 0..reads {
            pa.shared_load(&node_a, x_a, true).unwrap();
        }
        pa.complete_op(&node_a).unwrap();

        let (f_sync, node_s, x_s) = setup();
        let ps = FlitCxl0::default();
        ps.shared_load(&node_s, x_s, false).unwrap(); // warm-up symmetry
        node_s.lstore(x_s, 1).unwrap();
        // FlitCxl0 has no public counter hook; emulate the helped path by
        // issuing the sync flush a helped read would perform.
        for _ in 0..reads {
            ps.shared_load(&node_s, x_s, true).unwrap();
            node_s.rflush(x_s).unwrap();
        }

        assert!(
            f_async.stats().sim_nanos() < f_sync.stats().sim_nanos() / 2,
            "async helping should be at least 2x cheaper: {} vs {}",
            f_async.stats().sim_nanos(),
            f_sync.stats().sim_nanos()
        );
    }

    #[test]
    fn name_is_reported() {
        assert_eq!(FlitAsync::default().name(), "flit-async");
    }
}
