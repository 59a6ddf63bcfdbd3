//! # Crash-consistent memory allocation over the durable segment
//!
//! The paper's programming model assumes long-lived durable structures
//! on the memory node; the original bump [`SharedHeap`](crate::SharedHeap)
//! never reclaims, so every dequeue/remove leaked NVM forever and no
//! churn workload could run at sustained traffic. This module is the
//! missing layer between the heap and the data structures: a
//! **size-class allocator with durable free lists and a recovery
//! sweep**, in the spirit of pooled-CXL allocator subsystems and
//! checkpoint-recovered persistent allocators in the related work.
//!
//! ## Anatomy
//!
//! The allocator owns a range of the memory node's shared segment:
//!
//! ```text
//! [ region header | 15 free-list heads | 32 intent cells | block area … ]
//!   META_CELLS = 4 + 15 + 32 durable metadata cells        bump tail
//! ```
//!
//! Every block is `1 + payload` cells: a **header** (state, size class,
//! reuse *generation*, intrusive free-list link) followed by the payload
//! the caller sees. Payloads round up to power-of-two size classes
//! (1..=[`MAX_CLASS_CELLS`] cells); larger requests are exact-fit from
//! the bump tail and unreclaimable.
//!
//! All durable mutations flow through the cluster's
//! [`Persistence`](crate::Persistence) strategy, so the allocator
//! inherits whatever durability the cluster was built with — exactly
//! like the named-root registry.
//!
//! ## Crash consistency: intents + two-phase pops
//!
//! A crash must never *lose* a block (reachable from no free list and
//! owned by no one) nor hand one out *twice* (reachable from a free
//! list while live). Both are prevented by durable **allocation
//! intents**, one word per slot (op, class, generation, block). Each
//! persisted write costs one synchronous flush under FliT-CXL0:
//!
//! * **free** (4 flushes): latch the intent → one header CAS
//!   `ALLOCATED(g) → FREE(g+1, next = top)` claims the block (the only
//!   winner of a racing double free) and links it → CAS-push (relinking
//!   only if the head moved) → clear. A crash in between leaves a
//!   latched intent; recovery completes the push (deduplicating via a
//!   list walk).
//! * **alloc** (5 flushes when recycled): pops are two-phase. The popper
//!   CASes the list head into a `POPPING(slot)` *claim* (recovery
//!   reverts a bare claim), records the claimed block as its intent,
//!   swings the head, marks the header and clears. Because the record
//!   strictly follows the claim, a latched alloc intent always names a
//!   block this slot really popped — recovery can push it back without
//!   ever freeing someone else's live block. Competing operations help
//!   complete the swing once the intent is recorded.
//! * **recovery** ([`Allocator::recover`], run from
//!   [`Session::recover_roots`](crate::api::Session::recover_roots)):
//!   revert torn claims, then seal every latched intent — pushing the
//!   named block back unless it is already on its list or the intent is
//!   stale (the block's header generation moved past the recorded one).
//!
//! ## ABA safety for reclaiming lock-free structures
//!
//! Reusing nodes under CAS-based structures resurrects the classic ABA
//! problem. Every block carries a **generation** bumped on each free,
//! and [`Allocator::encode`] tags pointer words with it (the
//! Michael–Scott counted-pointer technique): a stale CAS against a
//! pointer to a reclaimed-and-recycled block cannot match. (The
//! generation is 20 bits and wraps: like every counted-pointer scheme
//! the guard is probabilistic, defeated only if one block is freed
//! 2^20 times *while a single operation is suspended holding a stale
//! pointer to it* — not a reachable schedule in this simulator's
//! workloads, but worth naming.) Link
//! cells are initialized with [`Allocator::null_ptr`]`(gen)` so even
//! "null" differs across incarnations (nulls carry a tag bit, so none
//! equals a plain zero cell either). Reads of freed cells remain
//! possible (and harmless — the simulated fabric cannot fault); any
//! value read from a freed block is only ever used under a
//! generation-checked CAS that fails.
//!
//! One discipline makes this airtight without type-stable memory: **a
//! cell of a reclaimable block that is ever the target of a CAS must
//! only ever hold generation-tagged words** (encoded pointers or tagged
//! nulls), never application-chosen values — *or* the block's
//! reclamation must be deferred past every operation that could touch
//! it. The counted-pointer structures (queue, stack) follow the first
//! arm: their two-cell nodes keep the link at offset 1 and the value
//! at offset 0, and free unlinked nodes inline. The traversal
//! structures (sorted list, hash map), whose cells do hold
//! application-chosen words, follow the second: they retire blocks
//! through the epoch-based reclamation domain ([`crate::smr`]), which
//! keeps a retired block out of reuse until every operation pinned at
//! retirement has finished — see `docs/RECLAMATION.md` for why each
//! structure sits where it does.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use cxl0_runtime::alloc::Allocator;
//! use cxl0_runtime::{Flit, FlushPolicy, Persistence, SimFabric};
//! use cxl0_model::{MachineId, SystemConfig};
//!
//! let fabric = SimFabric::new(SystemConfig::symmetric_nvm(2, 1024));
//! let persist: Arc<dyn Persistence> = Arc::new(Flit::new(FlushPolicy::RemoteAlways));
//! let alloc = Allocator::over_region(fabric.config(), MachineId(1), persist);
//! let node = fabric.node(MachineId(0));
//!
//! let a = alloc.alloc(&node, 2)?.expect("heap fits");
//! alloc.free(&node, a.loc)?.expect("a is allocated");
//! let b = alloc.alloc(&node, 2)?.expect("heap fits");
//! assert_eq!(b.loc, a.loc);     // the block is reused…
//! assert_eq!(b.gen, a.gen + 1); // …under a fresh generation
//! # Ok::<(), cxl0_runtime::Crashed>(())
//! ```
//!
//! Within a [`Cluster`](crate::api::Cluster) the allocator is built
//! automatically (right after the named-root registry) and the durable
//! structures ([`ds`](crate::ds)) allocate and reclaim their nodes
//! through it; its counters surface through
//! [`Session::stats_delta`](crate::api::Session::stats_delta).

mod allocator;
pub(crate) mod layout;

pub use allocator::{
    AllocRecovery, AllocStats, Allocator, BlockRef, FreeError, TornAlloc, TornFree, INTENT_SLOTS,
    MAX_CLASS_CELLS, META_CELLS, NUM_CLASSES,
};
