//! The crash-consistent size-class allocator. See the module docs in
//! [`crate::alloc`] for the protocol walkthrough.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use cxl0_model::{Loc, MachineId, SystemConfig};

use crate::alloc::layout::{
    decode_addr, decode_gen, head_slot, head_top, head_ver, head_word, header_class, header_gen,
    header_next, header_state, header_word, intent_word, null_word, popping_word, ptr_word,
    seed_gen, GEN_MASK, HUGE_CLASS, OP_ALLOC, OP_FREE, ST_ALLOCATED, ST_FREE,
};
use crate::backend::{AsNode, NodeHandle};
use crate::error::OpResult;
use crate::flit::Persistence;
use crate::heap::SharedHeap;

/// Number of size classes: powers of two from 1 cell to
/// [`MAX_CLASS_CELLS`].
pub const NUM_CLASSES: usize = 15;

/// Largest reclaimable payload, in cells (`1 << 14`). Bigger requests
/// are served exact-fit from the bump tail and cannot be freed.
pub const MAX_CLASS_CELLS: u32 = 1 << (NUM_CLASSES - 1);

/// Durable allocation-intent slots. Each in-flight `alloc`/`free` leases
/// one; a crash mid-operation leaves its intent latched for the recovery
/// sweep.
pub const INTENT_SLOTS: usize = 32;

/// Region-header cells: magic, geometry, data base, extent limit.
const HEADER_META_CELLS: u32 = 4;

/// Durable metadata cells the allocator reserves at the start of its
/// range: region header + one free-list head per class + one cell per
/// intent slot.
pub const META_CELLS: u32 = HEADER_META_CELLS + NUM_CLASSES as u32 + INTENT_SLOTS as u32;

/// Region-header magic ("CXL0ALOC", little-endian-ish).
const MAGIC: u64 = 0x4358_4c30_414c_4f43;

/// The size class serving a `cells`-cell payload, or `None` when the
/// request is oversize (exact-fit, unreclaimable).
fn class_for(cells: u32) -> Option<usize> {
    debug_assert!(cells > 0);
    if cells > MAX_CLASS_CELLS {
        None
    } else {
        Some(cells.next_power_of_two().trailing_zeros() as usize)
    }
}

/// Payload cells reserved by size class `c`.
fn class_cells(c: usize) -> u32 {
    1 << c
}

/// A handle to one allocated block: the payload location plus the
/// block's reuse generation.
///
/// The generation is what makes pointer words ABA-safe: encode it into
/// every stored reference with [`Allocator::encode`], and a CAS against
/// a stale reference to a reclaimed-and-recycled block cannot
/// spuriously succeed (the recycled block's generation differs — up to
/// the 20-bit wrap bound discussed in [`crate::alloc`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRef {
    /// First payload cell. The block header lives at `loc.addr - 1`.
    pub loc: Loc,
    /// The block's reuse generation (bumped on every free).
    pub gen: u64,
    /// Whether the block was served from a free list. Recycled payload
    /// cells retain their previous contents; fresh bump-tail cells are
    /// guaranteed zero — callers that need a zeroed payload (the hash
    /// map's table) can skip the zeroing for fresh blocks.
    pub recycled: bool,
}

/// Why a [`Allocator::free`] was refused (the block is left untouched).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreeError {
    /// The location is outside the allocator's range or its header does
    /// not describe a block.
    NotABlock,
    /// The block is already free or already being freed.
    DoubleFree,
    /// The block is an oversize exact-fit allocation; those are served
    /// from the bump tail and cannot be reclaimed.
    Oversize,
}

impl std::fmt::Display for FreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FreeError::NotABlock => write!(f, "location is not an allocated block"),
            FreeError::DoubleFree => write!(f, "block is already free (double free)"),
            FreeError::Oversize => write!(f, "oversize blocks cannot be reclaimed"),
        }
    }
}

impl std::error::Error for FreeError {}

/// A point-in-time copy of the allocator's volatile counters.
///
/// Counters (`allocs`, `frees`, `freelist_hits`) are monotonic;
/// `live_cells`/`hw_cells` are gauges. All are process-local
/// approximations: a crash torn mid-operation can leave them off by one
/// block until the workload quiesces (the durable state, by contrast,
/// is exact — that is what [`Allocator::recover`] reconciles).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Successful allocations (free-list hits + bump allocations).
    pub allocs: u64,
    /// Successful frees.
    pub frees: u64,
    /// Allocations served by reusing a reclaimed block.
    pub freelist_hits: u64,
    /// Payload cells currently allocated.
    pub live_cells: u64,
    /// High-water mark of `live_cells`.
    pub hw_cells: u64,
}

/// What one [`Allocator::recover`] sweep did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocRecovery {
    /// Free-list heads reverted out of a torn `POPPING` claim.
    pub reverted_pops: usize,
    /// Intent slots found latched and sealed.
    pub sealed_intents: usize,
    /// Blocks pushed back onto their free lists (torn mid-alloc or
    /// mid-free; without the sweep they would be lost).
    pub restored_blocks: usize,
}

/// Tear points of an allocation pop, for crash-consistency tests.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornAlloc {
    /// After the `POPPING` claim CAS, before the intent records the
    /// block. The head is left claimed and the slot idle; only recovery
    /// unsticks it.
    Claimed,
    /// After the intent records the popped block, before the head swings.
    Recorded,
    /// After the head swings past the block, before its header is marked
    /// allocated.
    Swung,
    /// After the header is marked allocated, before the intent clears.
    Marked,
}

/// Tear points of a free, for crash-consistency tests.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornFree {
    /// After the intent latches, before the header claim CAS.
    Latched,
    /// After the claim-and-link CAS (header `FREE`, generation bumped,
    /// linked to the observed top), before the head CAS.
    Claimed,
    /// Right before the head CAS, the header linked to the head it
    /// expects (single-threaded, the `Claimed` state).
    Linked,
    /// After the push completes, before the intent clears.
    Pushed,
}

/// Volatile lease pool over the durable intent slots.
#[derive(Debug, Default)]
struct SlotPool {
    mask: AtomicU32,
}

impl SlotPool {
    /// Leases a free slot, spinning if all are in flight.
    fn acquire(&self) -> usize {
        let mut spins = 0u32;
        loop {
            let cur = self.mask.load(Ordering::Relaxed);
            let free = !cur;
            if free != 0 {
                let idx = free.trailing_zeros();
                if self
                    .mask
                    .compare_exchange_weak(
                        cur,
                        cur | (1 << idx),
                        Ordering::Acquire,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    return idx as usize;
                }
            }
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            }
        }
    }

    fn release(&self, idx: usize) {
        self.mask.fetch_and(!(1u32 << idx), Ordering::Release);
    }

    /// Post-crash reset: every lease is void (leases torn off by a crash
    /// are deliberately *not* released in-line, so their latched intents
    /// survive untouched until the sweep).
    fn reset(&self) {
        self.mask.store(0, Ordering::Release);
    }
}

/// What a free-list pop attempt concluded (drives slot-lease cleanup).
enum PopOutcome {
    /// The class free list is empty; fall back to the bump tail.
    Empty,
    /// Got a reclaimed block.
    Got(BlockRef),
    /// A torn-operation hook stopped mid-protocol (intent left latched,
    /// lease leaked on purpose).
    Torn(Loc),
}

/// Outcome of the free protocol body.
enum FreeOutcome {
    Done,
    Refused(FreeError),
    Torn,
}

/// A crash-consistent size-class allocator over the durable shared
/// segment of one memory node.
///
/// Allocation is satisfied from per-class intrusive free lists first and
/// from the wrapped [`SharedHeap`] bump tail otherwise; `free` pushes
/// blocks back for reuse, so churn workloads run in bounded memory.
/// Every durable mutation flows through the configured
/// [`Persistence`] strategy, and every alloc/free records a durable
/// *intent* first, so a crash at any instant loses no block and hands
/// none out twice — [`Allocator::recover`] seals torn intents and
/// reconciles the free lists. See [`crate::alloc`] for the full
/// protocol.
#[derive(Debug)]
pub struct Allocator {
    region: MachineId,
    /// First metadata cell (region header, heads, intent slots).
    meta_base: u32,
    /// First cell of the block area (`meta_base + META_CELLS`).
    data_base: u32,
    /// One past the last cell of the allocator's range.
    limit: u32,
    heap: Arc<SharedHeap>,
    persist: Arc<dyn Persistence>,
    slots: SlotPool,
    allocs: AtomicU64,
    frees: AtomicU64,
    freelist_hits: AtomicU64,
    live_cells: AtomicU64,
    hw_cells: AtomicU64,
}

impl Allocator {
    /// An allocator over the sub-range `[base, base + len)` of machine
    /// `region`'s shared segment: [`META_CELLS`] metadata cells followed
    /// by the block area (a [`SharedHeap`] bump tail).
    ///
    /// Fresh fabric memory is all-zero, which is a valid initial state
    /// (empty free lists, idle intents); call [`Allocator::format`] once
    /// to stamp the region header.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the region or leaves no block area.
    pub fn with_range(
        cfg: &SystemConfig,
        region: MachineId,
        base: u32,
        len: u32,
        persist: Arc<dyn Persistence>,
    ) -> Self {
        assert!(
            len > META_CELLS,
            "allocator range must exceed {META_CELLS} metadata cells"
        );
        let heap = Arc::new(SharedHeap::with_range(
            cfg,
            region,
            base + META_CELLS,
            len - META_CELLS,
        ));
        Self::with_meta(region, base, base + len, heap, persist)
    }

    /// An allocator whose [`META_CELLS`] metadata cells start at
    /// `meta_base` of a **shared** bump heap: other fixed-footprint
    /// users (registers, the buffered-epoch machinery, …) may
    /// interleave their own bump allocations in the same block area.
    /// The caller must have reserved `[meta_base, meta_base +
    /// META_CELLS)` off the heap already; `limit` is one past the last
    /// cell of the region.
    pub(crate) fn with_meta(
        region: MachineId,
        meta_base: u32,
        limit: u32,
        heap: Arc<SharedHeap>,
        persist: Arc<dyn Persistence>,
    ) -> Self {
        Allocator {
            region,
            meta_base,
            data_base: meta_base + META_CELLS,
            limit,
            heap,
            persist,
            slots: SlotPool::default(),
            allocs: AtomicU64::new(0),
            frees: AtomicU64::new(0),
            freelist_hits: AtomicU64::new(0),
            live_cells: AtomicU64::new(0),
            hw_cells: AtomicU64::new(0),
        }
    }

    /// An allocator over all of machine `region`'s shared locations —
    /// the low-level counterpart of `SharedHeap::new` for code that
    /// assembles the fabric by hand.
    pub fn over_region(
        cfg: &SystemConfig,
        region: MachineId,
        persist: Arc<dyn Persistence>,
    ) -> Self {
        Self::with_range(cfg, region, 0, cfg.machine(region).locations, persist)
    }

    /// The machine whose memory this allocator carves up.
    pub fn region(&self) -> MachineId {
        self.region
    }

    /// The bump tail serving free-list misses (and the low-level
    /// escape hatch for never-reclaimed allocations).
    pub fn heap(&self) -> &Arc<SharedHeap> {
        &self.heap
    }

    /// The durability strategy every allocator mutation flows through.
    pub fn persistence(&self) -> &Arc<dyn Persistence> {
        &self.persist
    }

    /// Cells in the block area (the allocator's range minus metadata) —
    /// also a safe upper bound on any free-list or structure walk.
    pub fn block_area_cells(&self) -> u32 {
        self.limit - self.data_base
    }

    /// A copy of the volatile counters.
    pub fn stats(&self) -> AllocStats {
        AllocStats {
            allocs: self.allocs.load(Ordering::Relaxed),
            frees: self.frees.load(Ordering::Relaxed),
            freelist_hits: self.freelist_hits.load(Ordering::Relaxed),
            live_cells: self.live_cells.load(Ordering::Relaxed),
            hw_cells: self.hw_cells.load(Ordering::Relaxed),
        }
    }

    // ---- durable cell addressing ---------------------------------------

    fn head_cell(&self, class: usize) -> Loc {
        Loc::new(
            self.region,
            self.meta_base + HEADER_META_CELLS + class as u32,
        )
    }

    fn intent_cell(&self, slot: usize) -> Loc {
        Loc::new(
            self.region,
            self.meta_base + HEADER_META_CELLS + NUM_CLASSES as u32 + slot as u32,
        )
    }

    fn header_cell(&self, payload: u32) -> Loc {
        Loc::new(self.region, payload - 1)
    }

    /// Stamps the persistent region header (magic, geometry, extent).
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn format(&self, at: &impl AsNode) -> OpResult<()> {
        let node = at.as_node();
        let base = self.meta_base;
        let geometry = ((NUM_CLASSES as u64) << 8) | INTENT_SLOTS as u64;
        for (i, v) in [
            MAGIC,
            geometry,
            u64::from(self.data_base),
            u64::from(self.limit),
        ]
        .into_iter()
        .enumerate()
        {
            self.persist
                .private_store(node, Loc::new(self.region, base + i as u32), v, true)?;
        }
        self.persist.complete_op(node)
    }

    // ---- pointer encoding ----------------------------------------------

    /// Encodes a block reference as a pointer word for storage in shared
    /// cells (generation-tagged; bit 63 left clear for structure marks).
    pub fn encode(block: BlockRef) -> u64 {
        ptr_word(block.loc.addr.0, block.gen)
    }

    /// A null pointer word carrying `gen`: link cells of a block are
    /// initialized with their block's generation so a stale CAS against
    /// a recycled block's null never matches.
    pub fn null_ptr(gen: u64) -> u64 {
        null_word(gen & GEN_MASK)
    }

    /// The generation carried by a pointer word (null or not). Paired
    /// with [`Allocator::null_ptr`], this lets a structure CAS against
    /// *the incarnation it believes in* — e.g. the queue's append
    /// expects the null of its observed tail's generation, never a raw
    /// null it read (which could belong to a recycled incarnation).
    pub fn ptr_gen(raw: u64) -> u64 {
        decode_gen(raw)
    }

    /// Decodes a pointer word, rejecting nulls **and any address outside
    /// this allocator's block area** — a stale or corrupted word can
    /// never alias allocator metadata or a foreign range.
    pub fn decode(&self, raw: u64) -> Option<Loc> {
        let addr = decode_addr(raw)?;
        if addr > self.data_base && addr < self.limit {
            Some(Loc::new(self.region, addr))
        } else {
            None
        }
    }

    // ---- allocation -----------------------------------------------------

    /// Allocates a block with at least `cells` payload cells (rounded up
    /// to the size class; requests above [`MAX_CLASS_CELLS`] are served
    /// exact-fit and are unreclaimable). Returns `None` when both the
    /// class free list and the bump tail are exhausted.
    ///
    /// Recycled payload cells contain their previous contents — callers
    /// must initialize every cell they rely on before publication.
    ///
    /// # Panics
    ///
    /// Panics if `cells` is zero.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn alloc(&self, at: &impl AsNode, cells: u32) -> OpResult<Option<BlockRef>> {
        assert!(cells > 0, "zero-cell allocations are meaningless");
        let node = at.as_node();
        let result = self.alloc_inner(node, cells)?;
        self.persist.complete_op(node)?;
        Ok(result)
    }

    fn alloc_inner(&self, node: &NodeHandle, cells: u32) -> OpResult<Option<BlockRef>> {
        let (payload_cells, class_tag) = match class_for(cells) {
            Some(class) => {
                if let PopOutcome::Got(block) = self.pop(node, class, None)? {
                    self.freelist_hits.fetch_add(1, Ordering::Relaxed);
                    self.note_alloc(class_cells(class));
                    return Ok(Some(block));
                }
                (class_cells(class), class as u64)
            }
            None => (cells, HUGE_CLASS),
        };
        // Bump fallback. A crash between the (volatile, process-local)
        // bump advance and the header store leaks the cells, exactly
        // like the pre-allocator monotonic heap.
        let Some(block) = self.heap.alloc(payload_cells + 1) else {
            return Ok(None);
        };
        let payload = block.addr.0 + 1;
        // Fresh blocks start at a per-address *seed* generation (nonzero,
        // odd — see `seed_gen`) rather than zero: pointer words into a
        // brand-new block are already distinguishable from application
        // scalars and from any other block's words.
        let gen = seed_gen(payload);
        self.persist.private_store(
            node,
            self.header_cell(payload),
            header_word(ST_ALLOCATED, class_tag, gen, None),
            true,
        )?;
        self.note_alloc(payload_cells);
        node.observe(|o| o.on_alloc(Loc::new(self.region, payload), payload_cells, gen));
        Ok(Some(BlockRef {
            loc: Loc::new(self.region, payload),
            gen,
            recycled: false,
        }))
    }

    fn note_alloc(&self, cells: u32) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        let live = self
            .live_cells
            .fetch_add(u64::from(cells), Ordering::Relaxed)
            + u64::from(cells);
        self.hw_cells.fetch_max(live, Ordering::Relaxed);
    }

    /// The two-phase crash-consistent pop, five persisted writes:
    ///
    /// 1. **Claim**: CAS the class head from plain to `POPPING(slot)`.
    ///    The claim commits the pop to this intent slot. Nothing is
    ///    latched yet: a crash here leaves an idle slot and a claimed
    ///    head, which recovery reverts.
    /// 2. **Record**: persist the claimed block (+ its generation) as
    ///    the slot's one-word alloc intent.
    /// 3. **Swing**: CAS the head past the block (anyone who observes
    ///    the recorded intent may help).
    /// 4. Mark the header `ALLOCATED` and clear the intent.
    ///
    /// The record (2) strictly follows the claim (1), so a latched
    /// alloc intent always names a block this slot really popped — a
    /// stale intent can never cause recovery to free someone else's
    /// live block.
    fn pop(
        &self,
        node: &NodeHandle,
        class: usize,
        stop: Option<TornAlloc>,
    ) -> OpResult<PopOutcome> {
        // Cheap peek before leasing a slot; the claim reuses it.
        let head = self
            .persist
            .shared_load(node, self.head_cell(class), true)?;
        if head_top(head).is_none() {
            return Ok(PopOutcome::Empty);
        }
        let slot = self.slots.acquire();
        let outcome = self.pop_with_slot(node, class, slot, head, stop);
        match &outcome {
            // A crash error or a deliberate tear leaves the lease
            // leaked: the latched durable intent must survive untouched
            // until the recovery sweep resets the pool.
            Err(_) | Ok(PopOutcome::Torn(_)) => {}
            Ok(_) => self.slots.release(slot),
        }
        outcome
    }

    fn pop_with_slot(
        &self,
        node: &NodeHandle,
        class: usize,
        slot: usize,
        mut head: u64,
        stop: Option<TornAlloc>,
    ) -> OpResult<PopOutcome> {
        let head_cell = self.head_cell(class);
        loop {
            while head_slot(head).is_some() {
                head = self.help(node, class, head)?;
            }
            let Some(top) = head_top(head) else {
                return Ok(PopOutcome::Empty);
            };
            // (1) claim
            let claimed = popping_word(head, slot);
            if let Err(actual) = self
                .persist
                .shared_cas(node, head_cell, head, claimed, true)?
            {
                head = actual;
                continue;
            }
            let payload = Loc::new(self.region, top);
            if stop == Some(TornAlloc::Claimed) {
                return Ok(PopOutcome::Torn(payload));
            }
            // The claim made the top block ours: its header is stable.
            let hdr = self
                .persist
                .shared_load(node, self.header_cell(top), true)?;
            debug_assert_eq!(header_state(hdr), ST_FREE, "claimed top must be free");
            let gen = header_gen(hdr);
            // (2) record
            self.persist.private_store(
                node,
                self.intent_cell(slot),
                intent_word(OP_ALLOC, class as u64, gen, top),
                true,
            )?;
            if stop == Some(TornAlloc::Recorded) {
                return Ok(PopOutcome::Torn(payload));
            }
            // (3) swing (a helper may have done it already)
            let swung = head_word(header_next(hdr), head_ver(claimed).wrapping_add(1));
            let _ = self
                .persist
                .shared_cas(node, head_cell, claimed, swung, true)?;
            if stop == Some(TornAlloc::Swung) {
                return Ok(PopOutcome::Torn(payload));
            }
            // (4) hand out
            self.persist.private_store(
                node,
                self.header_cell(top),
                header_word(ST_ALLOCATED, class as u64, gen, None),
                true,
            )?;
            if stop == Some(TornAlloc::Marked) {
                return Ok(PopOutcome::Torn(payload));
            }
            self.persist
                .private_store(node, self.intent_cell(slot), 0, true)?;
            node.observe(|o| o.on_alloc(payload, class_cells(class), gen));
            return Ok(PopOutcome::Got(BlockRef {
                loc: payload,
                gen,
                recycled: true,
            }));
        }
    }

    /// Resolves an observed `POPPING` head and returns the head word
    /// seen afterwards: once the claiming slot's intent records the
    /// claimed block, anyone can complete the swing. Until it does, we
    /// wait (the window is one load and one private store wide; a
    /// machine that crashes inside it stalls this class until
    /// [`Allocator::recover`], which reverts the claim).
    fn help(&self, node: &NodeHandle, class: usize, observed: u64) -> OpResult<u64> {
        let head_cell = self.head_cell(class);
        let slot = head_slot(observed).expect("help is only called on POPPING heads");
        let top = head_top(observed).expect("a POPPING head always has a top");
        let mut spins = 0u32;
        loop {
            let intent = self
                .persist
                .shared_load(node, self.intent_cell(slot), true)?;
            if header_state(intent) == OP_ALLOC && header_next(intent) == Some(top) {
                let hdr = self
                    .persist
                    .shared_load(node, self.header_cell(top), true)?;
                let swung = head_word(header_next(hdr), head_ver(observed).wrapping_add(1));
                let _ = self
                    .persist
                    .shared_cas(node, head_cell, observed, swung, true)?;
            } else {
                spins += 1;
                if spins.is_multiple_of(64) {
                    std::thread::yield_now();
                }
            }
            let cur = self.persist.shared_load(node, head_cell, true)?;
            if cur != observed {
                return Ok(cur);
            }
        }
    }

    /// Loads class `class`'s head, helping in-flight pops until it is
    /// plain (unclaimed).
    fn plain_head(&self, node: &NodeHandle, class: usize) -> OpResult<u64> {
        let mut head = self
            .persist
            .shared_load(node, self.head_cell(class), true)?;
        while head_slot(head).is_some() {
            head = self.help(node, class, head)?;
        }
        Ok(head)
    }

    // ---- free -----------------------------------------------------------

    /// Returns `payload`'s block to its class free list for reuse.
    ///
    /// The allocation-intent protocol makes this crash-consistent: once
    /// `free` is invoked, a crash at any instant either leaves the block
    /// allocated-and-intent-latched (recovery completes the free) or
    /// free (recovery deduplicates) — never lost, never on the list
    /// twice. Freeing a block that is already free is detected and
    /// refused; freeing a block another caller still uses is a logic
    /// error the allocator cannot detect (as in C).
    ///
    /// # Errors
    ///
    /// `Err(Crashed)` if the issuing machine has crashed; `Ok(Err(_))`
    /// when the free is refused (see [`FreeError`]).
    pub fn free(&self, at: &impl AsNode, payload: Loc) -> OpResult<Result<(), FreeError>> {
        let node = at.as_node();
        let result = self.free_inner(node, payload, None)?;
        self.persist.complete_op(node)?;
        Ok(match result {
            FreeOutcome::Done => Ok(()),
            FreeOutcome::Refused(e) => Err(e),
            FreeOutcome::Torn => unreachable!("tear hooks only run via torn_free"),
        })
    }

    fn free_inner(
        &self,
        node: &NodeHandle,
        payload: Loc,
        stop: Option<TornFree>,
    ) -> OpResult<FreeOutcome> {
        let addr = payload.addr.0;
        if payload.owner != self.region || addr <= self.data_base || addr >= self.limit {
            return Ok(FreeOutcome::Refused(FreeError::NotABlock));
        }
        let header_cell = self.header_cell(addr);
        let hdr = self.persist.shared_load(node, header_cell, true)?;
        match header_state(hdr) {
            ST_ALLOCATED => {}
            ST_FREE => return Ok(FreeOutcome::Refused(FreeError::DoubleFree)),
            _ => return Ok(FreeOutcome::Refused(FreeError::NotABlock)),
        }
        let class = header_class(hdr);
        if class == HUGE_CLASS {
            return Ok(FreeOutcome::Refused(FreeError::Oversize));
        }
        if class as usize >= NUM_CLASSES {
            return Ok(FreeOutcome::Refused(FreeError::NotABlock));
        }

        let slot = self.slots.acquire();
        let outcome = self.free_with_slot(node, payload, hdr, slot, stop);
        match &outcome {
            Err(_) | Ok(FreeOutcome::Torn) => {} // leak the lease (see pop)
            Ok(_) => self.slots.release(slot),
        }
        if matches!(outcome, Ok(FreeOutcome::Done)) {
            self.frees.fetch_add(1, Ordering::Relaxed);
            let cells = u64::from(class_cells(class as usize));
            let _ = self
                .live_cells
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                    Some(v.saturating_sub(cells))
                });
        }
        outcome
    }

    /// The free protocol, four persisted writes: latch the intent, then
    /// one header CAS `ALLOCATED(g)` → `FREE(g+1, next = observed top)`
    /// that both claims the block (exactly one concurrent free of this
    /// incarnation wins) and links it, then the head CAS, then clear.
    fn free_with_slot(
        &self,
        node: &NodeHandle,
        payload: Loc,
        hdr: u64,
        slot: usize,
        stop: Option<TornFree>,
    ) -> OpResult<FreeOutcome> {
        let addr = payload.addr.0;
        let class = header_class(hdr);
        let gen = header_gen(hdr);
        self.persist.private_store(
            node,
            self.intent_cell(slot),
            intent_word(OP_FREE, class, gen, addr),
            true,
        )?;
        if stop == Some(TornFree::Latched) {
            return Ok(FreeOutcome::Torn);
        }
        let new_gen = gen.wrapping_add(1) & GEN_MASK;
        let head = self.plain_head(node, class as usize)?;
        if self
            .persist
            .shared_cas(
                node,
                self.header_cell(addr),
                hdr,
                header_word(ST_FREE, class, new_gen, head_top(head)),
                true,
            )?
            .is_err()
        {
            self.persist
                .private_store(node, self.intent_cell(slot), 0, true)?;
            return Ok(FreeOutcome::Refused(FreeError::DoubleFree));
        }
        // The claim is the free's linearization point. Observers hear of
        // it now, before the push below makes the block poppable: told
        // any later, a concurrent pop could hand the block out (and
        // report its alloc) first, and the late free would mark a live
        // block freed.
        node.observe(|o| o.on_free(payload));
        if stop == Some(TornFree::Claimed) {
            return Ok(FreeOutcome::Torn);
        }
        if self.push(node, class as usize, addr, new_gen, Some(head), stop)? {
            return Ok(FreeOutcome::Torn);
        }
        self.persist
            .private_store(node, self.intent_cell(slot), 0, true)?;
        Ok(FreeOutcome::Done)
    }

    /// Publishes `addr`, generation already bumped to `new_gen`, as the
    /// top of class `class`'s free list. `linked` is the plain head word
    /// its header already links to, if any; otherwise, and after every
    /// lost head CAS, the header is (re)linked to a fresh head with a
    /// private store — the block is exclusively ours until the head CAS
    /// publishes it. Returns `true` when a tear hook stopped.
    fn push(
        &self,
        node: &NodeHandle,
        class: usize,
        addr: u32,
        new_gen: u64,
        mut linked: Option<u64>,
        stop: Option<TornFree>,
    ) -> OpResult<bool> {
        loop {
            let head = match linked {
                Some(head) => head,
                None => {
                    let head = self.plain_head(node, class)?;
                    let hdr = header_word(ST_FREE, class as u64, new_gen, head_top(head));
                    self.persist
                        .private_store(node, self.header_cell(addr), hdr, true)?;
                    head
                }
            };
            if stop == Some(TornFree::Linked) {
                return Ok(true);
            }
            let pushed = head_word(Some(addr), head_ver(head).wrapping_add(1));
            if self
                .persist
                .shared_cas(node, self.head_cell(class), head, pushed, true)?
                .is_ok()
            {
                return Ok(stop == Some(TornFree::Pushed));
            }
            linked = None;
        }
    }

    // ---- recovery -------------------------------------------------------

    /// Post-crash sweep. Must run quiesced (no concurrent allocator
    /// traffic), like every `recover` in this crate. In order:
    ///
    /// 1. reverts free-list heads stuck in a torn `POPPING` claim;
    /// 2. seals every latched intent: a block named by an intent whose
    ///    recorded generation still matches the block's header is
    ///    guaranteed unreachable by the application (the operation never
    ///    returned), so if it is not on its free list it is pushed back —
    ///    stale intents (generation moved on) are ignored, so a live
    ///    block is never freed;
    /// 3. resets the volatile intent-slot pool.
    ///
    /// # Errors
    ///
    /// Fails if the issuing machine has crashed.
    pub fn recover(&self, at: &impl AsNode) -> OpResult<AllocRecovery> {
        let node = at.as_node();
        let mut report = AllocRecovery::default();
        // (1) torn POPPING claims: the claimed block is still linked
        // (the swing never happened once the intent stayed empty, and if
        // it did happen the head no longer carries the claim), so
        // reverting to a plain head restores the list. Recorded-intent
        // pops are also reverted: their block is back on top and step
        // (2) will find it present.
        for class in 0..NUM_CLASSES {
            let cell = self.head_cell(class);
            let head = self.persist.shared_load(node, cell, true)?;
            if head_slot(head).is_some() {
                let reverted = head_word(head_top(head), head_ver(head).wrapping_add(1));
                self.persist.private_store(node, cell, reverted, true)?;
                report.reverted_pops += 1;
            }
        }
        // (2) latched intents.
        let mut restored: Vec<u32> = Vec::new();
        for slot in 0..INTENT_SLOTS {
            let intent = self
                .persist
                .shared_load(node, self.intent_cell(slot), true)?;
            if intent == 0 {
                continue;
            }
            report.sealed_intents += 1;
            let kind = header_state(intent);
            let class = header_class(intent) as usize;
            if let Some(addr) = header_next(intent) {
                let expected_gen = header_gen(intent);
                if class < NUM_CLASSES
                    && addr > self.data_base
                    && addr < self.limit
                    && !restored.contains(&addr)
                    && self.intent_needs_push(node, kind, class, addr, expected_gen)?
                {
                    let new_gen = expected_gen.wrapping_add(1) & GEN_MASK;
                    self.push(node, class, addr, new_gen, None, None)?;
                    restored.push(addr);
                    report.restored_blocks += 1;
                }
            }
            self.persist
                .private_store(node, self.intent_cell(slot), 0, true)?;
        }
        // (3) void all leases.
        self.slots.reset();
        self.persist.complete_op(node)?;
        Ok(report)
    }

    /// Decides whether a latched intent's block must be pushed back.
    /// The generation check is what rejects *stale* intents: if the
    /// block's header generation moved past what the intent recorded,
    /// some later operation completed on this block and the intent is a
    /// leftover of an op that lost its race — pushing would free a block
    /// that may be live.
    fn intent_needs_push(
        &self,
        node: &NodeHandle,
        kind: u64,
        class: usize,
        addr: u32,
        expected_gen: u64,
    ) -> OpResult<bool> {
        let hdr = self
            .persist
            .shared_load(node, self.header_cell(addr), true)?;
        let state = header_state(hdr);
        let gen = header_gen(hdr);
        let bumped = expected_gen.wrapping_add(1) & GEN_MASK;
        let needs = match kind {
            // A recorded alloc intent means this slot really popped the
            // block and the caller never received it. Present on the
            // list (claim reverted) → done; otherwise push it back.
            OP_ALLOC => {
                gen == expected_gen
                    && matches!(state, ST_FREE | ST_ALLOCATED)
                    && !self.list_contains(node, class, addr)?
            }
            // A free intent: complete it unless the push already
            // happened (or the intent is stale).
            OP_FREE => match state {
                ST_ALLOCATED if gen == expected_gen => true,
                ST_FREE if gen == bumped => !self.list_contains(node, class, addr)?,
                _ => false,
            },
            _ => false,
        };
        Ok(needs)
    }

    /// Walks class `class`'s free list top first until `stop` returns
    /// `true` (reported back), bounded by the block area size and cut at
    /// any out-of-area address, against corrupted links.
    fn walk_list(
        &self,
        node: &NodeHandle,
        class: usize,
        mut stop: impl FnMut(u32) -> bool,
    ) -> OpResult<bool> {
        let head = self
            .persist
            .shared_load(node, self.head_cell(class), true)?;
        let mut cur = head_top(head);
        let mut steps = self.limit - self.data_base;
        while let Some(a) = cur {
            if stop(a) {
                return Ok(true);
            }
            if steps == 0 || a <= self.data_base || a >= self.limit {
                return Ok(false);
            }
            steps -= 1;
            let hdr = self.persist.shared_load(node, self.header_cell(a), true)?;
            cur = header_next(hdr);
        }
        Ok(false)
    }

    fn list_contains(&self, node: &NodeHandle, class: usize, addr: u32) -> OpResult<bool> {
        self.walk_list(node, class, |a| a == addr)
    }

    // ---- test hooks -----------------------------------------------------

    /// Testing hook: run an allocation pop and stop at `stage`, leaving
    /// the durable state exactly as a crash at that instant would.
    /// Returns the affected block's payload, or `None` when the class
    /// free list was empty (nothing to tear). The intent slot stays
    /// leased until [`Allocator::recover`].
    #[doc(hidden)]
    pub fn torn_alloc(
        &self,
        at: &impl AsNode,
        cells: u32,
        stage: TornAlloc,
    ) -> OpResult<Option<Loc>> {
        let node = at.as_node();
        let mut torn = None;
        if let Some(class) = class_for(cells) {
            match self.pop(node, class, Some(stage))? {
                PopOutcome::Torn(loc) => torn = Some(loc),
                // Racing past the tear point is impossible single-threaded;
                // treat a completed pop as "nothing torn" defensively.
                PopOutcome::Got(b) => {
                    let _ = self.free_inner(node, b.loc, None)?;
                }
                PopOutcome::Empty => {}
            }
        }
        self.persist.complete_op(node)?;
        Ok(torn)
    }

    /// Testing hook: run a free and stop at `stage` (see
    /// [`Allocator::torn_alloc`]). Returns the refusal, if any.
    #[doc(hidden)]
    pub fn torn_free(
        &self,
        at: &impl AsNode,
        payload: Loc,
        stage: TornFree,
    ) -> OpResult<Result<(), FreeError>> {
        let node = at.as_node();
        let outcome = self.free_inner(node, payload, Some(stage))?;
        self.persist.complete_op(node)?;
        Ok(match outcome {
            FreeOutcome::Torn | FreeOutcome::Done => Ok(()),
            FreeOutcome::Refused(e) => Err(e),
        })
    }

    /// Testing hook: the blocks on class-of-`cells`'s free list, top
    /// first.
    #[doc(hidden)]
    pub fn debug_free_list(&self, at: &impl AsNode, cells: u32) -> OpResult<Vec<Loc>> {
        let node = at.as_node();
        let class = class_for(cells).expect("debug_free_list takes a reclaimable size");
        let mut out = Vec::new();
        self.walk_list(node, class, |a| {
            out.push(Loc::new(self.region, a));
            false
        })?;
        self.persist.complete_op(node)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimFabric;
    use crate::flit::{Flit, FlushPolicy};
    use cxl0_model::SystemConfig;

    fn setup(cells: u32) -> (Arc<SimFabric>, Arc<Allocator>) {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, cells));
        let persist: Arc<dyn Persistence> = Arc::new(Flit::new(FlushPolicy::RemoteAlways));
        let a = Arc::new(Allocator::over_region(f.config(), MachineId(1), persist));
        (f, a)
    }

    #[test]
    fn classes_round_up_to_powers_of_two() {
        assert_eq!(class_for(1), Some(0));
        assert_eq!(class_for(2), Some(1));
        assert_eq!(class_for(3), Some(2));
        assert_eq!(class_for(16384), Some(14));
        assert_eq!(class_for(16385), None);
    }

    #[test]
    fn alloc_free_alloc_reuses_the_block_with_a_new_generation() {
        let (f, a) = setup(1024);
        let node = f.node(MachineId(0));
        let b1 = a.alloc(&node, 2).unwrap().unwrap();
        assert_ne!(b1.gen, 0, "fresh blocks carry a nonzero seed generation");
        a.free(&node, b1.loc).unwrap().unwrap();
        let b2 = a.alloc(&node, 2).unwrap().unwrap();
        assert_eq!(b2.loc, b1.loc, "freed block is reused");
        assert_eq!(
            b2.gen,
            b1.gen.wrapping_add(1) & GEN_MASK,
            "reuse bumps the generation"
        );
        assert_ne!(Allocator::encode(b1), Allocator::encode(b2));
        let s = a.stats();
        assert_eq!((s.allocs, s.frees, s.freelist_hits), (2, 1, 1));
    }

    #[test]
    fn different_classes_use_different_lists() {
        let (f, a) = setup(1024);
        let node = f.node(MachineId(0));
        let small = a.alloc(&node, 2).unwrap().unwrap();
        let big = a.alloc(&node, 5).unwrap().unwrap(); // class 8
        a.free(&node, small.loc).unwrap().unwrap();
        a.free(&node, big.loc).unwrap().unwrap();
        let again = a.alloc(&node, 8).unwrap().unwrap();
        assert_eq!(again.loc, big.loc);
        let again = a.alloc(&node, 1).unwrap().unwrap();
        assert_ne!(again.loc, small.loc, "class-1 list is separate");
    }

    #[test]
    fn double_free_and_garbage_are_refused() {
        let (f, a) = setup(1024);
        let node = f.node(MachineId(0));
        let b = a.alloc(&node, 2).unwrap().unwrap();
        a.free(&node, b.loc).unwrap().unwrap();
        assert_eq!(a.free(&node, b.loc).unwrap(), Err(FreeError::DoubleFree));
        // A payload cell that is not a block start.
        let inner = Loc::new(b.loc.owner, b.loc.addr.0 + 1);
        assert!(a.free(&node, inner).unwrap().is_err());
        // Out of extent entirely.
        assert_eq!(
            a.free(&node, Loc::new(MachineId(1), 3)).unwrap(),
            Err(FreeError::NotABlock)
        );
    }

    #[test]
    fn oversize_blocks_are_exact_fit_and_unreclaimable() {
        let (f, a) = setup(META_CELLS + MAX_CLASS_CELLS + 200);
        let node = f.node(MachineId(0));
        let huge = a.alloc(&node, MAX_CLASS_CELLS + 1).unwrap().unwrap();
        assert_eq!(a.free(&node, huge.loc).unwrap(), Err(FreeError::Oversize));
    }

    #[test]
    fn reuse_survives_exhaustion_of_the_bump_tail() {
        // Room for ~4 three-cell blocks after metadata.
        let (f, a) = setup(META_CELLS + 13);
        let node = f.node(MachineId(0));
        // Churn far past the bump capacity: only reuse can sustain this.
        let mut last = None;
        for _ in 0..50 {
            let b = a.alloc(&node, 2).unwrap().expect("reuse sustains churn");
            if let Some(prev) = last {
                a.free(&node, prev).unwrap().unwrap();
            }
            last = Some(b.loc);
        }
    }

    #[test]
    fn decode_rejects_out_of_extent_words() {
        let (f, a) = setup(1024);
        let node = f.node(MachineId(0));
        let b = a.alloc(&node, 2).unwrap().unwrap();
        assert_eq!(a.decode(Allocator::encode(b)), Some(b.loc));
        assert_eq!(a.decode(0), None);
        assert_eq!(a.decode(Allocator::null_ptr(7)), None);
        // Metadata and out-of-region addresses never decode.
        assert_eq!(a.decode(ptr_word(0, 0)), None);
        assert_eq!(a.decode(ptr_word(META_CELLS, 0)), None);
        assert_eq!(a.decode(ptr_word(5000, 0)), None);
    }

    #[test]
    fn recover_on_a_clean_region_is_a_no_op() {
        let (f, a) = setup(1024);
        let node = f.node(MachineId(0));
        a.format(&node).unwrap();
        let b = a.alloc(&node, 2).unwrap().unwrap();
        a.free(&node, b.loc).unwrap().unwrap();
        let r = a.recover(&node).unwrap();
        assert_eq!(r, AllocRecovery::default());
        assert_eq!(a.debug_free_list(&node, 2).unwrap(), vec![b.loc]);
    }

    #[test]
    fn torn_frees_are_completed_exactly_once() {
        for stage in [
            TornFree::Latched,
            TornFree::Claimed,
            TornFree::Linked,
            TornFree::Pushed,
        ] {
            let (f, a) = setup(1024);
            let node = f.node(MachineId(0));
            let b = a.alloc(&node, 2).unwrap().unwrap();
            a.torn_free(&node, b.loc, stage).unwrap().unwrap();
            let r = a.recover(&node).unwrap();
            assert_eq!(r.sealed_intents, 1, "{stage:?}");
            assert_eq!(
                a.debug_free_list(&node, 2).unwrap(),
                vec![b.loc],
                "{stage:?}: block must be free exactly once"
            );
            // And usable again.
            let again = a.alloc(&node, 2).unwrap().unwrap();
            assert_eq!(again.loc, b.loc);
        }
    }

    #[test]
    fn torn_allocs_never_lose_the_block() {
        for stage in [
            TornAlloc::Claimed,
            TornAlloc::Recorded,
            TornAlloc::Swung,
            TornAlloc::Marked,
        ] {
            let (f, a) = setup(1024);
            let node = f.node(MachineId(0));
            let b = a.alloc(&node, 2).unwrap().unwrap();
            a.free(&node, b.loc).unwrap().unwrap();
            let torn = a.torn_alloc(&node, 2, stage).unwrap();
            assert_eq!(torn, Some(b.loc), "{stage:?}");
            a.recover(&node).unwrap();
            assert_eq!(
                a.debug_free_list(&node, 2).unwrap(),
                vec![b.loc],
                "{stage:?}: block must be back on the list exactly once"
            );
        }
    }

    #[test]
    fn concurrent_alloc_free_hands_no_block_out_twice() {
        let (f, a) = setup(1 << 14);
        let mut handles = Vec::new();
        let live = Arc::new(parking_lot::Mutex::new(std::collections::HashSet::new()));
        for t in 0..4usize {
            let a = Arc::clone(&a);
            let node = f.node(MachineId(t % 2));
            let live = Arc::clone(&live);
            handles.push(std::thread::spawn(move || {
                let mut mine = Vec::new();
                for i in 0..300 {
                    if i % 3 != 2 {
                        let b = a.alloc(&node, 2).unwrap().expect("heap fits");
                        assert!(
                            live.lock().insert(b.loc.addr.0),
                            "block handed out while still live"
                        );
                        mine.push(b.loc);
                    } else if let Some(loc) = mine.pop() {
                        assert!(live.lock().remove(&loc.addr.0));
                        a.free(&node, loc).unwrap().unwrap();
                    }
                }
                for loc in mine {
                    assert!(live.lock().remove(&loc.addr.0));
                    a.free(&node, loc).unwrap().unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(live.lock().is_empty());
        let s = a.stats();
        assert_eq!(s.allocs, s.frees);
        assert_eq!(s.live_cells, 0);
        assert!(s.freelist_hits > 0, "churn must exercise reuse");
        assert!(s.hw_cells >= 2);
    }
}
