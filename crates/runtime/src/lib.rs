//! # `cxl0-runtime` — an executable CXL0 runtime with the FliT
//! transformation
//!
//! This crate makes the paper's §6 runnable:
//!
//! * [`api`] — **the recommended programming model**: [`Cluster`] /
//!   [`Session`], typed durable structures over the [`Word`] trait, a
//!   [`PersistMode`] switch for the durability strategy, and a durable
//!   **named-root registry** so post-crash code reattaches by name.
//! * [`backend`] — [`SimFabric`], a thread-safe, multi-machine
//!   implementation of the CXL0 semantics with crash injection, eviction
//!   (`τ`) simulation, per-primitive statistics and a simulated-latency
//!   cost model. Each operation is an atomic application of one model
//!   transition; `tests/backend_vs_model.rs` checks the refinement against
//!   `cxl0-model` mechanically.
//! * [`flit`] — the FliT transformation as one strategy, [`Flit`], under
//!   a [`FlushPolicy`]: Algorithm 2 adapted to CXL0 (`RemoteAlways`),
//!   the §6.1 owner-flush optimisation (`LocalWhenOwner`), the
//!   *unadapted* x86 FliT (`LocalAlways`, deliberately unsound under
//!   partial crashes) and Algorithm 1 on the `CXL0_AF` asynchronous-flush
//!   extension (`Async`: `AFlush`/`Barrier` on [`NodeHandle`], deferred
//!   helping flushes, synchronous store persistence). Beside it sit the
//!   naive all-`MStore` transformation ([`NaiveMStore`]) and a
//!   no-durability baseline ([`NoPersistence`]) — all behind the
//!   [`Persistence`] trait.
//! * [`buffered`] — [`BufferedEpoch`], the §8 durability relaxation:
//!   flush-free fast path, ping-pong snapshot syncs, rollback recovery;
//!   *buffered* durably linearizable (`cxl0-dlcheck::buffered`).
//! * [`ds`] — durable data structures written once against
//!   [`Persistence`]: register, counter, Treiber stack, Michael–Scott
//!   queue, hash map — allocating and **reclaiming** their nodes through
//!   the crash-consistent allocator.
//! * [`alloc`] — the crash-consistent size-class allocator over the
//!   memory node's durable segment: per-class free lists, durable
//!   allocation intents, generation-tagged (ABA-safe) pointers and a
//!   recovery sweep.
//! * [`smr`] — epoch-based safe memory reclamation between the
//!   allocator and the traversal structures: traversals pin the global
//!   epoch, unlinked blocks retire into volatile per-epoch limbo bags,
//!   and reclamation waits out a grace period instead of quiescence.
//! * [`check`] — the **persistency sanitizer**: an opt-in shadow-state
//!   analysis under the [`Persistence`] strategies that detects
//!   durability races, unpersisted reads at recovery and use-after-retire
//!   with thread/op provenance (`docs/SANITIZER.md`).
//! * [`trace`] — the **runtime tracer**: opt-in per-thread op spans with
//!   wall/simulated time and persist amplification, log2 latency
//!   histograms (p50/p99/p999), recovery-phase timing and Chrome
//!   trace-event / JSONL exporters (`docs/OBSERVABILITY.md`).
//! * [`heap`] — the raw bump tail the allocator builds on.
//! * [`cost`] — simulated per-primitive latencies (Figure-5 shaped).
//!
//! ## Quick example
//!
//! ```
//! use cxl0_runtime::api::Cluster;
//! use cxl0_model::MachineId;
//!
//! // Two compute nodes + one NVM memory node, FliT-CXL0 durability.
//! let cluster = Cluster::symmetric(2, 1024)?;
//! let session = cluster.session(MachineId(0));
//! let queue = session.create_queue::<u64>("jobs")?;
//! queue.enqueue(&session, 7)?;
//!
//! // The memory node crashes; NVM contents survive, caches do not —
//! // but FliT persisted the enqueue before it returned. Reattach by
//! // name through the durable named-root registry.
//! cluster.crash(cluster.memory_node());
//! cluster.recover(cluster.memory_node());
//! let queue = session.open_queue::<u64>("jobs")?;
//! queue.recover(&session)?;
//! assert_eq!(queue.dequeue(&session)?, Some(7));
//! # Ok::<(), cxl0_runtime::api::ApiError>(())
//! ```
//!
//! The low-level layer (`SimFabric` + `SharedHeap` + a
//! [`Persistence`] strategy, with structures taking a raw
//! [`NodeHandle`]) remains public — see [`backend`] — for tests and
//! experiments that need primitive-level control.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod alloc;
pub mod api;
pub mod backend;
pub mod buffered;
pub mod check;
pub mod cost;
pub mod ds;
pub mod error;
pub mod flit;
pub mod heap;
mod observe;
pub mod smr;
pub mod snapshot;
pub mod trace;

pub use alloc::{AllocStats, Allocator, BlockRef, FreeError};
pub use api::{ApiError, ApiResult, Cluster, ClusterBuilder, PersistMode, Session, Word};
pub use backend::{AsNode, NodeHandle, SimFabric, Stats, StatsSnapshot};
pub use buffered::BufferedEpoch;
pub use check::{CheckConfig, Checker, Violation, ViolationClass};
pub use cost::CostModel;
pub use ds::{
    Combinable, CombineStats, Combined, CombinedQueue, CombinedStack, DurableCounter, DurableList,
    DurableLog, DurableMap, DurableQueue, DurableRegister, DurableStack, Elimination, SlotState,
};
pub use error::{Crashed, OpResult};
pub use flit::{Flit, FlushPolicy, NaiveMStore, NoPersistence, Persistence};
pub use heap::{decode_ptr, encode_ptr, SharedHeap, NULL_PTR};
pub use smr::{SmrDomain, SmrGuard, SmrStats};
pub use snapshot::{take_gpf_snapshot, MemorySnapshot};
pub use trace::{
    LatencyHistogram, OpKind, PhaseTiming, RecoveryPhase, TraceConfig, TraceEvent, Tracer,
};
