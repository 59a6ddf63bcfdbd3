//! # One instrumentation seam
//!
//! The persistency sanitizer ([`crate::check`]) and the runtime tracer
//! ([`crate::trace`]) run beside the layers: they watch and never steer.
//! Both implement `Observer`, one no-op-by-default method per event. The
//! fabric holds one observer list, set once by
//! [`ClusterBuilder::build`](crate::api::ClusterBuilder::build) (sanitizer
//! first). Every layer reports through `NodeHandle::observe` and opens
//! spans and recovery phases through `NodeHandle::span` / `phase`.
//!
//! With nothing installed, each hook is one `OnceLock` load and no atomic
//! read-modify-write; an observer never changes what the fabric does or
//! charges (pinned below). Fabric hooks run under the affected cell's
//! writer lock, so observers never touch cells; `on_crash` runs with the
//! world stopped.

use std::fmt;

use cxl0_model::{Loc, MachineId};

use crate::backend::NodeHandle;
use crate::trace::{OpKind, PhaseGuard, RecoveryPhase, SpanGuard};

/// Provenance of an access: the issuing machine and its thread slot.
pub(crate) type Who = (MachineId, usize);

/// A location's settled `(holders bitmask, cached value, memory value)`.
pub(crate) type Line = (u64, u64, u64);

/// An instrument running beside the runtime's layers ([module docs](self)).
pub(crate) trait Observer: fmt::Debug + Send + Sync {
    /// An application read of `loc`.
    fn on_load(&self, _who: Who, _loc: Loc) {}
    /// A mutation of `loc` settled into `line` (`who` is `None` for
    /// fabric background activity: τ moves, drains, a load's copy).
    fn on_mutate(&self, _who: Option<Who>, _loc: Loc, _line: Line) {}
    /// A barrier retired a batch of pending flushes.
    fn on_barrier(&self, _who: Option<Who>, _batch: &[(Loc, Line)]) {}
    /// Machines `crashed` (bitmask); `zeroed` lost their volatile
    /// memory; `psn_wipe` when PSN clears crashed owners' holders.
    fn on_crash(&self, _crashed: u64, _zeroed: u64, _psn_wipe: bool) {}
    /// A persistence strategy acknowledged its store/RMW on `loc` as
    /// durable, on the calling thread.
    fn on_persist_ack(&self, _loc: Loc) {}
    /// The allocator handed out the block whose payload starts at `loc`.
    fn on_alloc(&self, _loc: Loc, _cells: u32, _gen: u64) {}
    /// The block at `loc` was freed: reported at the free's claim,
    /// before the block can be handed out again.
    fn on_free(&self, _loc: Loc) {}
    /// The block at `loc` entered SMR limbo under global epoch `epoch`.
    fn on_retire(&self, _loc: Loc, _epoch: u64) {}
    /// The thread in rail `slot` pinned the SMR domain at `epoch`.
    fn on_pin(&self, _slot: usize, _epoch: u64) {}
    /// The thread in rail `slot` released its pin.
    fn on_unpin(&self, _slot: usize) {}
    /// The SMR domain recovered after a crash: every pin died.
    fn on_smr_recover(&self) {}
    /// A named root made the block holding `header` durably reachable.
    fn on_add_root(&self, _header: Loc) {}
    /// Opens an op span on the calling thread, if this observer records
    /// spans.
    fn span<'a>(&'a self, _kind: OpKind, _at: &'a NodeHandle) -> Option<SpanGuard<'a>> {
        None
    }
    /// Opens a recovery-phase span, if this observer records phases.
    fn phase<'a>(&'a self, _phase: RecoveryPhase, _at: &'a NodeHandle) -> Option<PhaseGuard<'a>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::sync::Arc;

    use cxl0_model::SystemConfig;
    use parking_lot::Mutex;

    use super::*;
    use crate::alloc::Allocator;
    use crate::backend::{SimFabric, StatsSnapshot};
    use crate::ds::DurableQueue;
    use crate::flit::{Flit, FlushPolicy};

    /// Records which events it saw and does nothing else.
    #[derive(Debug, Default)]
    struct Seen(Mutex<BTreeSet<&'static str>>);

    impl Seen {
        fn saw(&self, event: &'static str) {
            self.0.lock().insert(event);
        }
    }

    impl Observer for Seen {
        fn on_load(&self, _: Who, _: Loc) {
            self.saw("load");
        }
        fn on_mutate(&self, _: Option<Who>, _: Loc, _: Line) {
            self.saw("mutate");
        }
        fn on_persist_ack(&self, _: Loc) {
            self.saw("persist-ack");
        }
        fn on_alloc(&self, _: Loc, _: u32, _: u64) {
            self.saw("alloc");
        }
        fn on_free(&self, _: Loc) {
            self.saw("free");
        }
    }

    /// One single-threaded FliT-CXL0 queue script on a fresh raw
    /// fabric watched by `observers`; returns the fabric's counters.
    fn queue_script(observers: Vec<Arc<dyn Observer>>) -> StatsSnapshot {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(3, 4096));
        f.install_observers(observers);
        let persist = Arc::new(Flit::new(FlushPolicy::RemoteAlways));
        let alloc = Arc::new(Allocator::over_region(f.config(), MachineId(2), persist));
        let node = f.node(MachineId(0));
        let q: DurableQueue = DurableQueue::create(&alloc, &node).unwrap().unwrap();
        for v in 1..=32 {
            assert!(q.enqueue(&node, v).unwrap());
            if v % 4 == 0 {
                assert_eq!(q.dequeue(&node).unwrap(), Some(v / 4));
            }
        }
        q.drain(&node).unwrap();
        f.stats().snapshot()
    }

    /// An observer sees the traffic but never changes it: every counter
    /// and the simulated time match an unobserved run of the same
    /// script.
    #[test]
    fn an_observer_never_changes_simulated_cost() {
        let seen = Arc::new(Seen::default());
        let observed = queue_script(vec![Arc::clone(&seen) as Arc<dyn Observer>]);
        let bare = queue_script(Vec::new());
        assert_eq!(observed, bare);
        assert!(bare.sim_ns > 0 && bare.rflushes > 0);
        let seen = seen.0.lock();
        for event in ["load", "mutate", "persist-ack", "alloc", "free"] {
            assert!(seen.contains(event), "the observer saw no {event}");
        }
    }
}
