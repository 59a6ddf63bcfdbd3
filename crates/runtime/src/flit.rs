//! The FliT transformation for CXL0 (§6, Algorithm 2), its ancestors and
//! its ablations, all behind one [`Persistence`] trait so that the same
//! data-structure code can run under any of them:
//!
//! | Strategy | Stores | Flush | Durably linearizable under CXL0? |
//! |---|---|---|---|
//! | [`FlitCxl0`] | `LStore` | `RFlush` | **yes** (Alg. 2, proven in §B) |
//! | [`FlitOwnerOpt`] | `LStore` | `LFlush` if issuer owns the line, else `RFlush` | yes (§6.1 optimisation) |
//! | [`FlitX86`] | `LStore` | `LFlush` | **no** — the original full-system-crash FliT (Alg. 1) ported naively; its flush only reaches the owner's *cache* |
//! | [`NaiveMStore`] | `MStore` | none needed | yes, but slower (§6.1) |
//! | [`NoPersistence`] | `LStore` | none | no — plain linearizable object |
//!
//! The per-cell *FliT counter* signals to readers that a store to the cell
//! may be globally visible but not yet persistent; a reader seeing a
//! positive counter helps by flushing before returning (Alg. 2 lines
//! 41–45). Counters are volatile metadata kept in a striped table
//! ([`FlitTable`]); a counter left positive by a crashed writer merely
//! causes conservative extra flushes, never a correctness loss.

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
pub struct FlitTable {
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
    pub fn new(stripes: usize) -> Self {
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
    pub fn enter(&self, loc: Loc) {
        self.slot(loc).fetch_add(1, Ordering::SeqCst);
    }

    /// Decrement the counter for `loc` (the store has persisted).
    pub fn exit(&self, loc: Loc) {
        self.slot(loc).fetch_sub(1, Ordering::SeqCst);
    }

    /// True if a store to `loc` (or a stripe-mate) may be unpersisted.
    pub fn in_flight(&self, loc: Loc) -> bool {
        self.slot(loc).load(Ordering::SeqCst) > 0
    }

    /// Number of stripes.
    pub fn stripes(&self) -> usize {
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
/// flagged store/RMW becomes durable (after the `RFlush` here, after the
/// trailing `Barrier` in [`FlitAsync`](crate::flit_async::FlitAsync)):
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
    /// high-level operation. Empty for the CXL0 transformation
    /// (synchronous flushes); kept for interface fidelity.
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

/// How a strategy flushes a just-written line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlushPolicy {
    /// `RFlush` always (Alg. 2).
    RemoteAlways,
    /// `LFlush` when the issuer owns the line, `RFlush` otherwise (§6.1).
    LocalWhenOwner,
    /// `LFlush` always (the x86 FliT ported without adaptation — unsound
    /// under partial crashes).
    LocalAlways,
}

fn flush_with(policy: FlushPolicy, node: &NodeHandle, loc: Loc) -> OpResult<()> {
    match policy {
        FlushPolicy::RemoteAlways => node.rflush(loc),
        FlushPolicy::LocalWhenOwner => {
            if node.machine() == loc.owner {
                node.lflush(loc)
            } else {
                node.rflush(loc)
            }
        }
        FlushPolicy::LocalAlways => node.lflush(loc),
    }
}

/// Shared implementation of the three FliT-shaped strategies.
#[derive(Debug)]
struct FlitCore {
    table: FlitTable,
    policy: FlushPolicy,
    name: &'static str,
}

impl FlitCore {
    fn shared_load(&self, node: &NodeHandle, loc: Loc, pflag: bool) -> OpResult<u64> {
        let val = node.load(loc)?;
        if pflag && self.table.in_flight(loc) {
            flush_with(self.policy, node, loc)?;
        }
        Ok(val)
    }

    fn shared_store(&self, node: &NodeHandle, loc: Loc, v: u64, pflag: bool) -> OpResult<()> {
        if pflag {
            self.table.enter(loc);
            let result = node.lstore(loc, v).and_then(|()| {
                flush_with(self.policy, node, loc)?;
                // The strategy now considers `loc` persisted: the checker
                // compares that belief against the shadow cell state.
                node.observe(|o| o.on_persist_ack(loc));
                Ok(())
            });
            self.table.exit(loc);
            result
        } else {
            node.lstore(loc, v)
        }
    }

    fn private_store(&self, node: &NodeHandle, loc: Loc, v: u64, pflag: bool) -> OpResult<()> {
        node.lstore(loc, v)?;
        if pflag {
            flush_with(self.policy, node, loc)?;
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
        self.table.enter(loc);
        let result = node.cas(StoreKind::Local, loc, old, new).and_then(|r| {
            // Success: persist the installed value. Failure: the CAS acted
            // as a p-load; help persist the observed value like a
            // shared_load would (condition 3 of the P-V interface).
            flush_with(self.policy, node, loc)?;
            if r.is_ok() {
                node.observe(|o| o.on_persist_ack(loc));
            }
            Ok(r)
        });
        self.table.exit(loc);
        result
    }

    fn shared_faa(&self, node: &NodeHandle, loc: Loc, delta: u64, pflag: bool) -> OpResult<u64> {
        if !pflag {
            return node.faa(StoreKind::Local, loc, delta);
        }
        self.table.enter(loc);
        let result = node.faa(StoreKind::Local, loc, delta).and_then(|old| {
            flush_with(self.policy, node, loc)?;
            node.observe(|o| o.on_persist_ack(loc));
            Ok(old)
        });
        self.table.exit(loc);
        result
    }
}

macro_rules! delegate_to_core {
    () => {
        fn name(&self) -> &'static str {
            self.core.name
        }
        fn shared_load(&self, node: &NodeHandle, loc: Loc, pflag: bool) -> OpResult<u64> {
            self.core.shared_load(node, loc, pflag)
        }
        fn shared_store(&self, node: &NodeHandle, loc: Loc, v: u64, pflag: bool) -> OpResult<()> {
            self.core.shared_store(node, loc, v, pflag)
        }
        fn private_load(&self, node: &NodeHandle, loc: Loc) -> OpResult<u64> {
            node.load(loc)
        }
        fn private_store(&self, node: &NodeHandle, loc: Loc, v: u64, pflag: bool) -> OpResult<()> {
            self.core.private_store(node, loc, v, pflag)
        }
        fn shared_cas(
            &self,
            node: &NodeHandle,
            loc: Loc,
            old: u64,
            new: u64,
            pflag: bool,
        ) -> OpResult<Result<u64, u64>> {
            self.core.shared_cas(node, loc, old, new, pflag)
        }
        fn shared_faa(
            &self,
            node: &NodeHandle,
            loc: Loc,
            delta: u64,
            pflag: bool,
        ) -> OpResult<u64> {
            self.core.shared_faa(node, loc, delta, pflag)
        }
    };
}

/// Algorithm 2: FliT adapted to CXL0 (`LStore` + `RFlush` + counters).
#[derive(Debug)]
pub struct FlitCxl0 {
    core: FlitCore,
}

impl FlitCxl0 {
    /// Creates the transformation with a counter table of `stripes`.
    pub fn new(stripes: usize) -> Self {
        FlitCxl0 {
            core: FlitCore {
                table: FlitTable::new(stripes),
                policy: FlushPolicy::RemoteAlways,
                name: "flit-cxl0",
            },
        }
    }
}

impl FlitCxl0 {
    /// Testing hook: raises the FliT counter for `loc` as an in-flight
    /// writer would.
    #[doc(hidden)]
    pub fn raise_counter(&self, loc: Loc) {
        self.core.table.enter(loc);
    }

    /// Testing hook: lowers the FliT counter for `loc`.
    #[doc(hidden)]
    pub fn lower_counter(&self, loc: Loc) {
        self.core.table.exit(loc);
    }
}

impl Default for FlitCxl0 {
    fn default() -> Self {
        FlitCxl0::new(1024)
    }
}

impl Persistence for FlitCxl0 {
    delegate_to_core!();
}

/// §6.1's optimisation: `RFlush` replaced by `LFlush` for lines the
/// writing machine owns (an owner's `LFlush` already reaches memory).
#[derive(Debug)]
pub struct FlitOwnerOpt {
    core: FlitCore,
}

impl FlitOwnerOpt {
    /// Creates the optimised transformation.
    pub fn new(stripes: usize) -> Self {
        FlitOwnerOpt {
            core: FlitCore {
                table: FlitTable::new(stripes),
                policy: FlushPolicy::LocalWhenOwner,
                name: "flit-owner-opt",
            },
        }
    }
}

impl Default for FlitOwnerOpt {
    fn default() -> Self {
        FlitOwnerOpt::new(1024)
    }
}

impl Persistence for FlitOwnerOpt {
    delegate_to_core!();
}

/// Algorithm 1 ported *without* adaptation: flushes are local (they model
/// x86 `CLFLUSHOPT`, which under CXL0 only reaches the line owner's
/// cache). **Deliberately unsound** under partial crashes — used to
/// demonstrate why the adaptation is necessary (the §6 motivating
/// example).
#[derive(Debug)]
pub struct FlitX86 {
    core: FlitCore,
}

impl FlitX86 {
    /// Creates the unadapted transformation.
    pub fn new(stripes: usize) -> Self {
        FlitX86 {
            core: FlitCore {
                table: FlitTable::new(stripes),
                policy: FlushPolicy::LocalAlways,
                name: "flit-x86",
            },
        }
    }
}

impl Default for FlitX86 {
    fn default() -> Self {
        FlitX86::new(1024)
    }
}

impl Persistence for FlitX86 {
    delegate_to_core!();
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
    fn flit_cxl0_store_is_immediately_persistent() {
        let (f, node, x) = setup();
        let p = FlitCxl0::default();
        p.shared_store(&node, x, 9, true).unwrap();
        assert_eq!(f.peek_memory(x), 9);
    }

    #[test]
    fn flit_cxl0_unflagged_store_is_not_persistent() {
        let (f, node, x) = setup();
        let p = FlitCxl0::default();
        p.shared_store(&node, x, 9, false).unwrap();
        assert_eq!(f.peek_memory(x), 0);
    }

    #[test]
    fn flit_x86_store_is_not_persistent_for_remote_lines() {
        let (f, node, x) = setup();
        let p = FlitX86::default();
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
        let p = FlitOwnerOpt::default();
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
        let p = FlitCxl0::default();
        // Simulate an in-flight store: counter raised, value unflushed.
        p.core.table.enter(x);
        node.lstore(x, 7).unwrap();
        let v = p.shared_load(&node, x, true).unwrap();
        assert_eq!(v, 7);
        // The reader flushed on our behalf.
        assert_eq!(f.peek_memory(x), 7);
        p.core.table.exit(x);
        // Counter back at zero: subsequent loads don't flush.
        let before = f.stats().snapshot().rflushes;
        p.shared_load(&node, x, true).unwrap();
        assert_eq!(f.stats().snapshot().rflushes, before);
    }

    #[test]
    fn shared_cas_persists_installed_value() {
        let (f, node, x) = setup();
        let p = FlitCxl0::default();
        assert_eq!(p.shared_cas(&node, x, 0, 4, true).unwrap(), Ok(0));
        assert_eq!(f.peek_memory(x), 4);
        assert_eq!(p.shared_cas(&node, x, 0, 5, true).unwrap(), Err(4));
    }

    #[test]
    fn shared_faa_persists_and_returns_previous() {
        let (f, node, x) = setup();
        let p = FlitCxl0::default();
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
        let p = FlitCxl0::default();
        assert!(p.complete_op(&node).is_ok());
    }

    #[test]
    fn strategies_report_names() {
        assert_eq!(FlitCxl0::default().name(), "flit-cxl0");
        assert_eq!(FlitOwnerOpt::default().name(), "flit-owner-opt");
        assert_eq!(FlitX86::default().name(), "flit-x86");
        assert_eq!(NaiveMStore.name(), "naive-mstore");
        assert_eq!(NoPersistence.name(), "none");
    }
}
