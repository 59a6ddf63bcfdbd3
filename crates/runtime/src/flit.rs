//! The FliT transformation (§6) and its two baselines, all behind one
//! [`Persistence`] trait so that the same data-structure code can run
//! under any of them.
//!
//! [`Flit`] is the transformation: per-cell FliT counters plus a
//! [`FlushPolicy`] that decides which flush it issues and where it
//! fences. Algorithm 2 (CXL0) and Algorithm 1 (the original, run on the
//! §3.2 `CXL0_AF` extension) are the same algorithm under two policies:
//!
//! | Policy | Flagged write persists by | Help flush | Durably linearizable under CXL0? |
//! |---|---|---|---|
//! | [`RemoteAlways`](FlushPolicy::RemoteAlways) | `RFlush` | `RFlush` | **yes** (Alg. 2, proven in §B) |
//! | [`LocalWhenOwner`](FlushPolicy::LocalWhenOwner) | `LFlush` if the issuer owns the line, else `RFlush` | same | yes (§6.1 optimisation) |
//! | [`LocalAlways`](FlushPolicy::LocalAlways) | `LFlush` | `LFlush` | **no** — Alg. 1's x86 flush ported naively; it only reaches the owner's *cache* |
//! | [`Async`](FlushPolicy::Async) | `AFlush` + `Barrier`, after a leading `Barrier` | `AFlush`, retired by `completeOp`'s `Barrier` | yes (Alg. 1 on `CXL0_AF`) |
//!
//! The baselines: [`NaiveMStore`] makes every flagged store an `MStore`
//! (correct, no flushes, slower — §6.1) and [`NoPersistence`] is a plain
//! linearizable object.
//!
//! The per-cell *FliT counter* signals to readers that a store to the cell
//! may be globally visible but not yet persistent; a reader seeing a
//! positive counter helps by flushing before returning (Alg. 2 lines
//! 41–45). Counters are volatile metadata kept in a striped table; a
//! counter left positive by a crashed writer merely causes conservative
//! extra flushes, never a correctness loss.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use cxl0_model::{Loc, StoreKind};

use crate::backend::NodeHandle;
use crate::error::OpResult;

/// A striped table of FliT counters, hashed by location.
///
/// With `stripes >= number of cells` this behaves like a per-cell counter;
/// smaller tables trade false sharing of counters (spurious helper
/// flushes) for memory — the ablation benchmark `flit_overhead` measures
/// that tradeoff.
#[derive(Debug)]
struct FlitTable {
    counters: Vec<AtomicU64>,
    mask: usize,
}

impl FlitTable {
    /// Creates a table with `stripes` counters (rounded up to a power of
    /// two).
    ///
    /// # Panics
    ///
    /// Panics if `stripes` is zero.
    fn new(stripes: usize) -> Self {
        assert!(stripes > 0, "need at least one stripe");
        let n = stripes.next_power_of_two();
        FlitTable {
            counters: (0..n).map(|_| AtomicU64::new(0)).collect(),
            mask: n - 1,
        }
    }

    fn slot(&self, loc: Loc) -> &AtomicU64 {
        // Fibonacci hashing over (owner, addr).
        let h = (loc.owner.index() as u64)
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(u64::from(loc.addr.0).wrapping_mul(0xD1B54A32D192ED03));
        &self.counters[(h >> 32) as usize & self.mask]
    }

    /// Increment the counter for `loc` (a store is in flight).
    fn enter(&self, loc: Loc) {
        self.slot(loc).fetch_add(1, Ordering::SeqCst);
    }

    /// Decrement the counter for `loc` (the store has persisted).
    fn exit(&self, loc: Loc) {
        self.slot(loc).fetch_sub(1, Ordering::SeqCst);
    }

    /// True if a store to `loc` (or a stripe-mate) may be unpersisted.
    fn in_flight(&self, loc: Loc) -> bool {
        self.slot(loc).load(Ordering::SeqCst) > 0
    }

    /// Number of stripes.
    #[cfg(test)]
    fn stripes(&self) -> usize {
        self.counters.len()
    }
}

/// The memory-access interface data structures program against: FliT's
/// `shared_*`/`private_*` wrappers plus RMWs, per Algorithm 2.
///
/// The `pflag` argument mirrors the paper's persistence flag: `false`
/// means the access needs no durability (it is compiled to the bare
/// primitive).
///
/// **Ack discipline.** A strategy must raise the persist-ack event
/// (`node.observe(|o| o.on_persist_ack(loc))`) at the exact point a
/// flagged store/RMW becomes durable (in [`Flit`], after the flush or,
/// under [`FlushPolicy::Async`], after the trailing `Barrier`):
/// the persistency sanitizer ([`crate::check`]) treats the ack as the
/// durability claim it audits, and the tracer ([`crate::trace`]) counts
/// acks into each op span's persist amplification. Strategies that make
/// no per-store durability claim (`NoPersistence`, the buffered
/// relaxation) simply never ack.
pub trait Persistence: Send + Sync + fmt::Debug {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// `shared_load` (Alg. 2 lines 41–45).
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    fn shared_load(&self, node: &NodeHandle, loc: Loc, pflag: bool) -> OpResult<u64>;

    /// `shared_store` (Alg. 2 lines 46–54).
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    fn shared_store(&self, node: &NodeHandle, loc: Loc, v: u64, pflag: bool) -> OpResult<()>;

    /// `private_load` (Alg. 2 lines 31–33).
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    fn private_load(&self, node: &NodeHandle, loc: Loc) -> OpResult<u64>;

    /// `private_store` (Alg. 2 lines 34–40).
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    fn private_store(&self, node: &NodeHandle, loc: Loc, v: u64, pflag: bool) -> OpResult<()>;

    /// Shared CAS: the RMW analogue of `shared_store`; a failed CAS is a
    /// shared load. Returns `Ok(old)` / `Err(actual)` inside the crash
    /// result.
    ///
    /// # Errors
    ///
    /// Fails with `Crashed` if the issuing machine has crashed.
    fn shared_cas(
        &self,
        node: &NodeHandle,
        loc: Loc,
        old: u64,
        new: u64,
        pflag: bool,
    ) -> OpResult<Result<u64, u64>>;

    /// Shared fetch-and-add; returns the previous value.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    fn shared_faa(&self, node: &NodeHandle, loc: Loc, delta: u64, pflag: bool) -> OpResult<u64>;

    /// `completeOp` (Alg. 2 line 55): a barrier at the end of every
    /// high-level operation. A `Barrier` under [`FlushPolicy::Async`];
    /// empty for the synchronous flushes.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    fn complete_op(&self, node: &NodeHandle) -> OpResult<()> {
        let _ = node;
        Ok(())
    }

    /// True when [`Persistence::batched_store`] defers its persistence
    /// work to the next [`Persistence::flush_batch`] instead of
    /// persisting synchronously; the combining front uses this to
    /// account how many per-operation sync points a batch amortized
    /// away. The default batched path defers.
    fn defers_batches(&self) -> bool {
        true
    }

    /// A store issued by a *combiner* — a thread that holds a
    /// structure's combining lock and is therefore the structure's sole
    /// mutator for the duration of the batch (see
    /// [`crate::ds::combine`]). Because no concurrent reader can observe
    /// the cell mid-batch, no FliT counter traffic is needed; because
    /// the batch ends with [`Persistence::flush_batch`], the per-store
    /// sync may be deferred.
    ///
    /// The default rides the `CXL0_AF` extension regardless of the
    /// strategy's *plain-path* flush policy: `LStore` + `AFlush` here,
    /// one `Barrier` in [`Persistence::flush_batch`]. That is durably
    /// sound for any strategy whose promise is "acknowledged ⇒
    /// durable": no batched op is acknowledged before the batch
    /// barrier, and a crash of the combiner's machine drops its cache
    /// lines *and* its persistency buffer wholesale, so an unflushed
    /// batch vanishes all-or-nothing — callers of its ops observe an
    /// error, never a half-persisted op reported complete. Strategies
    /// with a *weaker* plain-path promise (buffered epochs) or none at
    /// all ([`NoPersistence`]) override this with their own path.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    fn batched_store(&self, node: &NodeHandle, loc: Loc, v: u64) -> OpResult<()> {
        node.lstore(loc, v)?;
        node.aflush(loc)
    }

    /// The batch-flush entry point: retires every store the current
    /// combined batch deferred, in one sync. A combiner must call this
    /// after applying a batch via [`Persistence::batched_store`] and
    /// **before** acknowledging any of the batch's operations — the
    /// acknowledgement is what promises durability. The default retires
    /// the `AFlush`es the default `batched_store` enqueued with one
    /// `Barrier`; no-op for strategies whose `batched_store` is
    /// synchronous.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    fn flush_batch(&self, node: &NodeHandle) -> OpResult<()> {
        node.barrier()?;
        Ok(())
    }
}

/// Which flush a [`Flit`] issues and where it fences (see the [module
/// docs](self) for the table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushPolicy {
    /// `RFlush` always: Algorithm 2, FliT adapted to CXL0.
    RemoteAlways,
    /// `LFlush` when the issuer owns the line (an owner's `LFlush`
    /// already reaches memory), `RFlush` otherwise: the §6.1
    /// optimisation.
    LocalWhenOwner,
    /// `LFlush` always: Algorithm 1's x86 `CLFLUSHOPT` ported without
    /// adaptation. **Deliberately unsound** under partial crashes — under
    /// CXL0 a non-owner's `LFlush` only reaches the owner's cache — and
    /// kept as the §6 motivating example.
    LocalAlways,
    /// Algorithm 1 on the `CXL0_AF` extension: a flagged write persists
    /// by `AFlush` + `Barrier` after a leading `Barrier`, a reader's help
    /// is an `AFlush` that retires under the `Barrier` in `completeOp`.
    ///
    /// | Algorithm 1 (x86) | `CXL0_AF` |
    /// |---|---|
    /// | `FENCE()` at `shared_store` entry | leading `Barrier` |
    /// | `Store` | `LStore` |
    /// | `Flush` (`CLFLUSHOPT`) | `AFlush` |
    /// | `MFENCE()` after the flush | trailing `Barrier` |
    /// | helping `Flush` in `shared_load` (no fence) | helping `AFlush` (no barrier) |
    /// | `completeOp`: `MFENCE()` | `completeOp`: `Barrier` |
    ///
    /// Stores still persist before they return, so per-thread
    /// persistence stays prefix-ordered: a crash never persists a later
    /// store of an operation without an earlier one. Only a reader's
    /// help is deferred; it protects another thread's store, whose writer
    /// still guarantees it, and must only persist before the reader's
    /// own operation completes (P-V conditions 3 and 4). Where it wins:
    /// read-heavy contended workloads, where a helped read pays a buffer
    /// enqueue instead of a synchronous remote flush.
    Async,
}

/// The FliT transformation under a [`FlushPolicy`]: a striped table of
/// FliT counters that readers consult, and flagged writes that persist
/// before they return.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use cxl0_runtime::{DurableQueue, Flit, FlushPolicy, Persistence, SimFabric};
/// use cxl0_runtime::alloc::Allocator;
/// use cxl0_model::{SystemConfig, MachineId};
///
/// let fabric = SimFabric::new(SystemConfig::symmetric_nvm(3, 1024));
/// let persist: Arc<dyn Persistence> = Arc::new(Flit::new(FlushPolicy::Async));
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
pub struct Flit {
    table: FlitTable,
    policy: FlushPolicy,
}

impl Flit {
    /// Creates the transformation with a 1024-stripe counter table.
    pub fn new(policy: FlushPolicy) -> Self {
        Flit::with_stripes(policy, 1024)
    }

    /// Creates the transformation with a counter table of `stripes`
    /// (rounded up to a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `stripes` is zero.
    pub fn with_stripes(policy: FlushPolicy, stripes: usize) -> Self {
        Flit {
            table: FlitTable::new(stripes),
            policy,
        }
    }

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

    /// The flush a reader issues for a line whose counter is raised.
    fn help(&self, node: &NodeHandle, loc: Loc) -> OpResult<()> {
        match self.policy {
            FlushPolicy::RemoteAlways => node.rflush(loc),
            FlushPolicy::LocalWhenOwner if node.machine() == loc.owner => node.lflush(loc),
            FlushPolicy::LocalWhenOwner => node.rflush(loc),
            FlushPolicy::LocalAlways => node.lflush(loc),
            // Help, but do not wait: the write-back retires under this
            // operation's completeOp barrier (Alg. 1 lines 12–15).
            FlushPolicy::Async => node.aflush(loc),
        }
    }

    /// The `Barrier` of the `Async` policy; nothing otherwise.
    fn fence(&self, node: &NodeHandle) -> OpResult<()> {
        if self.policy == FlushPolicy::Async {
            node.barrier()?;
        }
        Ok(())
    }

    /// Persists a just-written line before returning: the help flush,
    /// then (`Async`) the barrier that waits for it (Alg. 1 line 23).
    fn persist(&self, node: &NodeHandle, loc: Loc) -> OpResult<()> {
        self.help(node, loc)?;
        self.fence(node)
    }

    /// A flagged write or RMW of `loc`: `write` runs with the counter
    /// raised and its line is persisted before the counter drops. The
    /// persist is acknowledged when `acks` holds for the result.
    ///
    /// Two rules, one for every policy:
    /// - *A failed write leaves the counter raised.* If the issuer
    ///   crashes mid-write, the counter is never lowered: the line may
    ///   hold a visible, unpersisted value, and a leaked counter only
    ///   adds helper flushes, never loses safety.
    /// - *Only a write that installed its value is acknowledged.* A
    ///   failed CAS acted as a p-load: it still persists the value it
    ///   observed (condition 3 of the P-V interface), but claims no
    ///   durability of its own.
    fn flagged<T>(
        &self,
        node: &NodeHandle,
        loc: Loc,
        write: impl FnOnce() -> OpResult<T>,
        acks: fn(&T) -> bool,
    ) -> OpResult<T> {
        // Alg. 1 line 18: prior (helping) flushes complete before the
        // write becomes visible, so its dependencies persist first.
        self.fence(node)?;
        self.table.enter(loc);
        let r = write()?;
        self.persist(node, loc)?;
        if acks(&r) {
            // The strategy now considers `loc` persisted: the checker
            // compares that belief against the shadow cell state.
            node.observe(|o| o.on_persist_ack(loc));
        }
        self.table.exit(loc);
        Ok(r)
    }
}

impl Persistence for Flit {
    fn name(&self) -> &'static str {
        match self.policy {
            FlushPolicy::RemoteAlways => "flit-cxl0",
            FlushPolicy::LocalWhenOwner => "flit-owner-opt",
            FlushPolicy::LocalAlways => "flit-x86",
            FlushPolicy::Async => "flit-async",
        }
    }

    fn shared_load(&self, node: &NodeHandle, loc: Loc, pflag: bool) -> OpResult<u64> {
        let val = node.load(loc)?;
        if pflag && self.table.in_flight(loc) {
            self.help(node, loc)?;
        }
        Ok(val)
    }

    fn shared_store(&self, node: &NodeHandle, loc: Loc, v: u64, pflag: bool) -> OpResult<()> {
        if !pflag {
            return node.lstore(loc, v);
        }
        self.flagged(node, loc, || node.lstore(loc, v), |_| true)
    }

    fn private_load(&self, node: &NodeHandle, loc: Loc) -> OpResult<u64> {
        node.load(loc)
    }

    fn private_store(&self, node: &NodeHandle, loc: Loc, v: u64, pflag: bool) -> OpResult<()> {
        node.lstore(loc, v)?;
        if pflag {
            self.persist(node, loc)?;
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
        let cas = || node.cas(StoreKind::Local, loc, old, new);
        self.flagged(node, loc, cas, Result::is_ok)
    }

    fn shared_faa(&self, node: &NodeHandle, loc: Loc, delta: u64, pflag: bool) -> OpResult<u64> {
        if !pflag {
            return node.faa(StoreKind::Local, loc, delta);
        }
        let faa = || node.faa(StoreKind::Local, loc, delta);
        self.flagged(node, loc, faa, |_| true)
    }

    fn complete_op(&self, node: &NodeHandle) -> OpResult<()> {
        // Alg. 1 line 29 (`Async`): retire this operation's helping
        // flushes before the operation returns.
        self.fence(node)
    }

    // The batched-store path keeps the trait default — LStore + AFlush
    // per store, one Barrier per batch — under every policy: for `Async`
    // that is its own discipline applied per batch rather than per op
    // (§3.2's persistency-buffer amortization).
}

/// The naive transformation of §6.1: every store is an `MStore` (correct
/// even without cache coherence, but pays the full memory round trip on
/// every write).
#[derive(Debug, Default)]
pub struct NaiveMStore;

impl Persistence for NaiveMStore {
    fn name(&self) -> &'static str {
        "naive-mstore"
    }

    fn shared_load(&self, node: &NodeHandle, loc: Loc, _pflag: bool) -> OpResult<u64> {
        node.load(loc)
    }

    fn shared_store(&self, node: &NodeHandle, loc: Loc, v: u64, pflag: bool) -> OpResult<()> {
        if pflag {
            node.mstore(loc, v)
        } else {
            node.lstore(loc, v)
        }
    }

    fn private_load(&self, node: &NodeHandle, loc: Loc) -> OpResult<u64> {
        node.load(loc)
    }

    fn private_store(&self, node: &NodeHandle, loc: Loc, v: u64, pflag: bool) -> OpResult<()> {
        self.shared_store(node, loc, v, pflag)
    }

    fn shared_cas(
        &self,
        node: &NodeHandle,
        loc: Loc,
        old: u64,
        new: u64,
        pflag: bool,
    ) -> OpResult<Result<u64, u64>> {
        let kind = if pflag {
            StoreKind::Memory
        } else {
            StoreKind::Local
        };
        node.cas(kind, loc, old, new)
    }

    fn shared_faa(&self, node: &NodeHandle, loc: Loc, delta: u64, pflag: bool) -> OpResult<u64> {
        let kind = if pflag {
            StoreKind::Memory
        } else {
            StoreKind::Local
        };
        node.faa(kind, loc, delta)
    }
}

/// No durability at all: plain `LStore`s and loads. The linearizable-but-
/// not-durable baseline.
#[derive(Debug, Default)]
pub struct NoPersistence;

impl Persistence for NoPersistence {
    fn name(&self) -> &'static str {
        "none"
    }

    fn shared_load(&self, node: &NodeHandle, loc: Loc, _pflag: bool) -> OpResult<u64> {
        node.load(loc)
    }

    fn shared_store(&self, node: &NodeHandle, loc: Loc, v: u64, _pflag: bool) -> OpResult<()> {
        node.lstore(loc, v)
    }

    fn private_load(&self, node: &NodeHandle, loc: Loc) -> OpResult<u64> {
        node.load(loc)
    }

    fn private_store(&self, node: &NodeHandle, loc: Loc, v: u64, _pflag: bool) -> OpResult<()> {
        node.lstore(loc, v)
    }

    fn shared_cas(
        &self,
        node: &NodeHandle,
        loc: Loc,
        old: u64,
        new: u64,
        _pflag: bool,
    ) -> OpResult<Result<u64, u64>> {
        node.cas(StoreKind::Local, loc, old, new)
    }

    fn shared_faa(&self, node: &NodeHandle, loc: Loc, delta: u64, _pflag: bool) -> OpResult<u64> {
        node.faa(StoreKind::Local, loc, delta)
    }

    // Promising no durability, the batched path owes none either: plain
    // cached stores, nothing to retire.
    fn defers_batches(&self) -> bool {
        false
    }

    fn batched_store(&self, node: &NodeHandle, loc: Loc, v: u64) -> OpResult<()> {
        node.lstore(loc, v)
    }

    fn flush_batch(&self, node: &NodeHandle) -> OpResult<()> {
        let _ = node;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Weak};

    use super::*;
    use crate::backend::SimFabric;
    use crate::observe::{Line, Observer, Who};
    use cxl0_model::{MachineId, SystemConfig};

    const M0: MachineId = MachineId(0);
    const MEM: MachineId = MachineId(1);

    const POLICIES: [FlushPolicy; 4] = [
        FlushPolicy::RemoteAlways,
        FlushPolicy::LocalWhenOwner,
        FlushPolicy::LocalAlways,
        FlushPolicy::Async,
    ];

    fn setup() -> (Arc<SimFabric>, NodeHandle, Loc) {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 8));
        let node = f.node(M0);
        (f, node, Loc::new(MEM, 0))
    }

    fn cxl0() -> Flit {
        Flit::new(FlushPolicy::RemoteAlways)
    }

    fn flit_async() -> Flit {
        Flit::new(FlushPolicy::Async)
    }

    #[test]
    fn flit_cxl0_store_is_immediately_persistent() {
        let (f, node, x) = setup();
        let p = cxl0();
        p.shared_store(&node, x, 9, true).unwrap();
        assert_eq!(f.peek_memory(x), 9);
    }

    #[test]
    fn flit_cxl0_unflagged_store_is_not_persistent() {
        let (f, node, x) = setup();
        let p = cxl0();
        p.shared_store(&node, x, 9, false).unwrap();
        assert_eq!(f.peek_memory(x), 0);
    }

    #[test]
    fn flit_x86_store_is_not_persistent_for_remote_lines() {
        let (f, node, x) = setup();
        let p = Flit::new(FlushPolicy::LocalAlways);
        p.shared_store(&node, x, 9, true).unwrap();
        // LFlush only moved the line to the owner's cache — memory stale.
        assert_eq!(f.peek_memory(x), 0);
        assert!(f.is_cached(x));
    }

    #[test]
    fn owner_opt_persists_owned_lines_via_lflush() {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 8));
        let node = f.node(MEM); // issuer owns the line
        let x = Loc::new(MEM, 0);
        let p = Flit::new(FlushPolicy::LocalWhenOwner);
        p.shared_store(&node, x, 5, true).unwrap();
        assert_eq!(f.peek_memory(x), 5);
        // And it used an LFlush, not an RFlush:
        let s = f.stats().snapshot();
        assert_eq!(s.lflushes, 1);
        assert_eq!(s.rflushes, 0);
    }

    #[test]
    fn naive_mstore_persists_without_flushes() {
        let (f, node, x) = setup();
        let p = NaiveMStore;
        p.shared_store(&node, x, 3, true).unwrap();
        assert_eq!(f.peek_memory(x), 3);
        assert_eq!(f.stats().snapshot().flushes(), 0);
        assert_eq!(f.stats().snapshot().mstores, 1);
    }

    #[test]
    fn reader_helps_when_counter_positive() {
        let (f, node, x) = setup();
        let p = cxl0();
        // Simulate an in-flight store: counter raised, value unflushed.
        p.raise_counter(x);
        node.lstore(x, 7).unwrap();
        let v = p.shared_load(&node, x, true).unwrap();
        assert_eq!(v, 7);
        // The reader flushed on our behalf.
        assert_eq!(f.peek_memory(x), 7);
        p.lower_counter(x);
        // Counter back at zero: subsequent loads don't flush.
        let before = f.stats().snapshot().rflushes;
        p.shared_load(&node, x, true).unwrap();
        assert_eq!(f.stats().snapshot().rflushes, before);
    }

    #[test]
    fn shared_cas_persists_installed_value() {
        let (f, node, x) = setup();
        let p = cxl0();
        assert_eq!(p.shared_cas(&node, x, 0, 4, true).unwrap(), Ok(0));
        assert_eq!(f.peek_memory(x), 4);
        assert_eq!(p.shared_cas(&node, x, 0, 5, true).unwrap(), Err(4));
    }

    #[test]
    fn shared_faa_persists_and_returns_previous() {
        let (f, node, x) = setup();
        let p = cxl0();
        assert_eq!(p.shared_faa(&node, x, 2, true).unwrap(), 0);
        assert_eq!(p.shared_faa(&node, x, 2, true).unwrap(), 2);
        assert_eq!(f.peek_memory(x), 4);
    }

    #[test]
    fn flit_table_striping_aliases() {
        let t = FlitTable::new(1);
        assert_eq!(t.stripes(), 1);
        let a = Loc::new(MachineId(0), 0);
        let b = Loc::new(MachineId(1), 7);
        t.enter(a);
        // With a single stripe, b aliases a:
        assert!(t.in_flight(b));
        t.exit(a);
        assert!(!t.in_flight(b));
    }

    #[test]
    fn complete_op_is_a_no_op_for_cxl0_flit() {
        let (_f, node, _x) = setup();
        let p = cxl0();
        assert!(p.complete_op(&node).is_ok());
    }

    #[test]
    fn strategies_report_names() {
        let names = POLICIES.map(|policy| Flit::new(policy).name());
        let expect = ["flit-cxl0", "flit-owner-opt", "flit-x86", "flit-async"];
        assert_eq!(names, expect);
        assert_eq!(NaiveMStore.name(), "naive-mstore");
        assert_eq!(NoPersistence.name(), "none");
    }

    /// One script step's `[lflushes, rflushes, aflushes, barriers,
    /// sim_ns]` delta.
    type Step = [u64; 5];

    /// Each policy's flushes, fences and simulated time, step by step:
    /// the data structures' `sim_ns` figures rest on every one of them.
    /// The steps: a flagged store, a helped load, a successful CAS, a
    /// failed CAS, an FAA, a flagged private store and `complete_op`,
    /// all on lines of the memory node.
    #[test]
    fn each_policy_issues_its_flushes_fences_and_sim_ns() {
        use FlushPolicy::{Async, LocalAlways, LocalWhenOwner, RemoteAlways};
        const SR: Step = [0, 1, 0, 0, 407]; // LStore, remote RFlush
        const RR: Step = [0, 1, 0, 0, 437]; // RMW, remote RFlush
        const SL: Step = [1, 0, 0, 0, 72]; // LStore, LFlush
        const RL: Step = [1, 0, 0, 0, 102]; // RMW, LFlush
        const RA: Step = [0, 0, 1, 2, 505]; // Barrier, RMW, AFlush, Barrier
        const NONE: Step = [0; 5];
        let remote = [SR, [0, 1, 0, 0, 653], RR, RR, RR, SR, NONE];
        let owner = [SL, [1, 0, 0, 0, 170], RL, RL, RL, SL, NONE];
        let x86 = [SL, [1, 0, 0, 0, 318], RL, RL, RL, SL, NONE];
        // The CAS's leading Barrier retires the help's AFlush; the
        // private store has no leading Barrier.
        let fenced = [
            [0, 0, 1, 2, 475],
            [0, 0, 1, 0, 266],
            [0, 0, 1, 2, 900],
            RA,
            RA,
            [0, 0, 1, 1, 445],
            [0, 0, 0, 1, 30],
        ];
        let table = [
            (RemoteAlways, M0, remote),
            (LocalWhenOwner, M0, remote),
            (LocalWhenOwner, MEM, owner),
            (LocalAlways, M0, x86),
            (Async, M0, fenced),
        ];
        for (policy, issuer, expect) in table {
            let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 8));
            let node = f.node(issuer);
            let (x, y) = (Loc::new(MEM, 0), Loc::new(MEM, 1));
            let p = Flit::new(policy);
            let mut last = f.stats().snapshot();
            let mut steps = Vec::new();
            let mut step = || {
                let now = f.stats().snapshot();
                let d = now.since(&last);
                steps.push([d.lflushes, d.rflushes, d.aflushes, d.barriers, d.sim_ns]);
                last = now;
            };
            p.shared_store(&node, x, 1, true).unwrap();
            step();
            p.raise_counter(x);
            assert_eq!(p.shared_load(&node, x, true).unwrap(), 1);
            p.lower_counter(x);
            step();
            assert_eq!(p.shared_cas(&node, x, 1, 2, true).unwrap(), Ok(1));
            step();
            assert_eq!(p.shared_cas(&node, x, 1, 3, true).unwrap(), Err(2));
            step();
            assert_eq!(p.shared_faa(&node, x, 1, true).unwrap(), 2);
            step();
            p.private_store(&node, y, 5, true).unwrap();
            step();
            p.complete_op(&node).unwrap();
            step();
            assert_eq!(steps, expect, "{policy:?} issued by {issuer}");
            assert!(!p.table.in_flight(x), "{policy:?}: a counter leaked");
        }
    }

    /// Fails the issuing machine the moment its `LStore` to `at` settles,
    /// so the flush that should follow it never runs.
    #[derive(Debug)]
    struct FailAfterLStore {
        fabric: Weak<SimFabric>,
        at: Loc,
    }

    impl Observer for FailAfterLStore {
        fn on_mutate(&self, who: Option<Who>, loc: Loc, _line: Line) {
            if let (Some((m, _)), Some(f)) = (who, self.fabric.upgrade()) {
                if loc == self.at {
                    f.fail_machine(m);
                }
            }
        }
    }

    /// A writer that crashes between its `LStore` and its flush leaves
    /// the line's counter raised, so a later reader helps flush it.
    #[test]
    fn a_writer_crashed_after_its_lstore_leaves_the_counter_raised() {
        for policy in POLICIES {
            let f = SimFabric::new(SystemConfig::symmetric_nvm(3, 8));
            let x = Loc::new(MEM, 0);
            let fail = FailAfterLStore {
                fabric: Arc::downgrade(&f),
                at: x,
            };
            f.install_observers(vec![Arc::new(fail)]);
            let p = Flit::new(policy);
            assert!(p.shared_store(&f.node(M0), x, 9, true).is_err());
            f.crash(M0);
            f.recover(M0);
            assert!(p.table.in_flight(x), "{policy:?}: counter lowered");
            let reader = f.node(MachineId(2));
            let before = f.stats().snapshot();
            p.shared_load(&reader, x, true).unwrap();
            let d = f.stats().snapshot().since(&before);
            assert_eq!(d.flushes() + d.aflushes, 1, "{policy:?}: no help");
        }
    }

    #[test]
    fn async_name_is_reported() {
        assert_eq!(flit_async().name(), "flit-async");
    }

    #[test]
    fn async_store_is_persistent_before_returning() {
        let (f, node, x) = setup();
        let p = flit_async();
        p.shared_store(&node, x, 9, true).unwrap();
        // The trailing barrier inside shared_store persisted it already.
        assert_eq!(f.peek_memory(x), 9);
        assert_eq!(f.pending_flushes(M0), 0);
    }

    #[test]
    fn async_unflagged_store_is_not_persistent() {
        let (f, node, x) = setup();
        let p = flit_async();
        p.shared_store(&node, x, 9, false).unwrap();
        assert_eq!(f.peek_memory(x), 0);
    }

    #[test]
    fn async_helping_load_defers_until_complete_op() {
        let (f, node, x) = setup();
        let p = flit_async();
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
    fn async_helping_load_skips_quiet_cells() {
        let (f, node, x) = setup();
        let p = flit_async();
        node.lstore(x, 7).unwrap();
        p.shared_load(&node, x, true).unwrap();
        assert_eq!(f.pending_flushes(M0), 0); // counter at zero: no help
    }

    #[test]
    fn async_leading_barrier_persists_prior_helps_before_store() {
        let (f, node, x) = setup();
        let y = Loc::new(MEM, 1);
        let p = flit_async();
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
    fn async_cas_and_faa_persist_synchronously() {
        let (f, node, x) = setup();
        let p = flit_async();
        assert_eq!(p.shared_cas(&node, x, 0, 4, true).unwrap(), Ok(0));
        assert_eq!(f.peek_memory(x), 4);
        assert_eq!(p.shared_faa(&node, x, 3, true).unwrap(), 4);
        assert_eq!(f.peek_memory(x), 7);
    }

    #[test]
    fn async_private_store_persists_when_flagged() {
        let (f, node, x) = setup();
        let p = flit_async();
        p.private_store(&node, x, 2, true).unwrap();
        assert_eq!(f.peek_memory(x), 2);
        p.private_store(&node, x, 3, false).unwrap();
        assert_eq!(f.peek_memory(x), 2); // unflagged: cache only
        assert_eq!(p.private_load(&node, x).unwrap(), 3);
    }

    #[test]
    fn async_helped_reads_are_cheaper_than_sync_flit() {
        // Same scenario under both policies: a hot cell with a
        // permanently raised counter, N helped reads, one completeOp.
        let reads = 64;
        let helped = |p: Flit| {
            let (f, node, x) = setup();
            p.raise_counter(x);
            node.lstore(x, 1).unwrap();
            for _ in 0..reads {
                p.shared_load(&node, x, true).unwrap();
            }
            p.complete_op(&node).unwrap();
            f.stats().sim_nanos()
        };
        let (async_ns, sync_ns) = (helped(flit_async()), helped(cxl0()));
        assert!(
            async_ns < sync_ns / 2,
            "async helping should be at least 2x cheaper: {async_ns} vs {sync_ns}"
        );
    }
}
