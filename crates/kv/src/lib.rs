//! # ssync-kv
//!
//! An in-memory key-value store with Memcached's locking structure, the
//! native counterpart of the paper's Section 6.4 testbed:
//!
//! * a fixed-bucket hash table under **fine-grained bucket locks** (one
//!   lock per stripe of buckets, as Memcached stripes item locks);
//! * a **global maintenance lock** taken by every
//!   [`MAINTENANCE_PERIOD`]th successful write (Memcached's hash-table
//!   expansion and LRU/slab bookkeeping switch to global locks "for
//!   short periods of time"): the pass tries one global-epoch advance
//!   and collects one stripe's expired retirements, round-robin, and
//!   walks no bucket chain, so its cost is the same in any store;
//! * items of one allocation each — header, key and value together, as
//!   a Memcached item is one chunk — with per-item CAS versions, read
//!   out as zero-copy `bytes::Bytes` handles or borrowed in place.
//!
//! Every lock is a pluggable `ssync-locks` algorithm — the paper's
//! experiment is literally "replace the Pthread mutexes with the
//! interface provided by libslock", which here is a type parameter.
//!
//! # The lock-free read fast path
//!
//! The paper's core lesson is that scalability is decided by cache-line
//! transfers, not algorithmic cleverness — and a read that takes even an
//! uncontended stripe lock pays two RMWs on a *writable* line that every
//! other reader of the stripe also writes. Since reads dominate serving
//! workloads (YCSB-B is 95% reads, YCSB-C is 100%), every read first
//! takes an **optimistic path** in the OPTIK/ASCYLIB tradition of the
//! paper's authors:
//!
//! * Each bucket chain is a singly-linked list of **immutable** items;
//!   every mutation (insert, replace, unlink) is published by a
//!   *single* atomic pointer store, so a reader can never observe a
//!   half-written item.
//! * Each stripe carries a seqlock-style **version word** (even =
//!   stable, odd = writer inside). Readers snapshot it, traverse the
//!   bucket without any lock, and validate the word is unchanged; after
//!   [`OPTIMISTIC_ATTEMPTS`] failed validations they fall back to the
//!   locked path (counted in [`Stats::read_fallbacks`]), so sustained
//!   write pressure degrades to exactly the old behaviour instead of
//!   livelocking.
//! * **Writers stay locked.** All mutations run inside the existing
//!   per-stripe `Lock<_, R>` critical section and bump the version word
//!   there, so all four lock algorithm classes keep working unchanged
//!   and the replication layer's version gates
//!   ([`KvStore::apply_replicated`]) are untouched. The stripe lock is
//!   what makes the single-pointer publication protocol sound: there is
//!   never more than one writer linking items into a stripe.
//! * **Unlinked items are retired, not released — and reclaimed by
//!   epochs.** A reader racing a writer may still hold a pointer to a
//!   just-unlinked item, so writers push replaced/deleted items into
//!   per-stripe three-generation bags tagged with the store's
//!   [`EpochDomain`] epoch. Optimistic readers pin the epoch for the
//!   duration of a traversal (one thread-local padded store plus one
//!   Acquire load — no shared RMW on the read path); a bag ages out
//!   once the global epoch has advanced twice past its tag, which the
//!   pin provably blocks while any reader could still reach its items
//!   (see `ssync_core::epoch` for the grace-period proof). Advances and
//!   collection are amortized into the write path's maintenance cadence
//!   and the explicit [`KvStore::reclaim_pass`] hook the serve loops
//!   call, so a store under sustained churn reclaims *concurrently
//!   with live readers* and its retired backlog
//!   ([`KvStore::reclaim_backlog`]) stays bounded by the write volume
//!   of a couple of epochs. [`KvStore::purge_retired`] (`&mut self`)
//!   survives as the shutdown path: it drains every generation
//!   unconditionally, exclusivity standing in for the grace period.
//!
//! # One allocation per item
//!
//! An item is one heap block: a 32-byte header, then the key's bytes,
//! then the value's.
//!
//! ```text
//! offset 0      4         8           12    16        24     32        32 + key_len
//!        ┌──────┬─────────┬───────────┬─────┬─────────┬──────┬─────────┬──────────┐
//!        │ refs │ key_len │ value_len │  —  │ version │ next │ key …   │ value …  │
//!        └──────┴─────────┴───────────┴─────┴─────────┴──────┴─────────┴──────────┘
//! ```
//!
//! A chain step reads `next`, `key_len` and, for a short key, the key
//! itself from the line the header starts; a hit's value follows. Two
//! mechanisms keep a block allocated, and they split the work:
//!
//! * **The pin protects traversals.** A reader walks chains holding no
//!   reference, only its epoch pin, exactly as above — a read that
//!   borrows the value in place ([`KvStore::get_with`]) touches no
//!   shared word beyond the stripe's version.
//! * **The reference count protects handles.** The store owns one
//!   reference for as long as the item is linked or retired, and drops
//!   it when the item's bag ages out (or at the shutdown purge). Every
//!   `Bytes` the store hands out — [`KvStore::get`],
//!   [`KvStore::get_with_version`], [`KvStore::multi_get`],
//!   [`KvStore::dump`], [`KvStore::dump_range`], the `_shared` writes —
//!   is a view into the block holding one more, taken under the pin or
//!   the stripe lock, while the store's own reference is certain to be
//!   held. A handle that drops the last reference frees the block to
//!   malloc, so a handle outlives its item's reclamation and even the
//!   store; the store's own last release recycles it (below).
//!
//! A write copies its value once, into the new item; a replace copies
//! the key too rather than share the old item's. The store's stats
//! count retirements and reclamations of items, whichever reference
//! ends the block.
//!
//! # Recycled blocks
//!
//! Memcached never hands an item's chunk back to malloc: a freed chunk
//! returns to its slab class, whichever thread writes next. A store
//! that freed to malloc would pay for glibc's per-thread arenas: a
//! chunk goes back to the arena of the thread that allocated it, so
//! when one thread preloads a store and another serves its writes, the
//! writer's replacements fill a second arena while the preload arena's
//! freed chunks sit idle.
//!
//! So the store's release of an item it retired — an inline retire, a
//! collection, always under the stripe lock — parks a block whose last
//! reference it dropped in the stripe's recycler: one free list per
//! size class, linked through the dead block's `next`. A stripe keeps
//! at most four blocks of a class (`STRIPE_KEEP`); the rest go to the
//! store's depot, one more list per class, store-wide, behind a lock of
//! its own. A write pops a block of its class from its stripe's list,
//! under the same stripe lock, before it calls `alloc`; only when that
//! list is empty does it first move one over from the depot. A handle's
//! last release still frees to malloc, so no block outlives its store.
//!
//! * **Classes are malloc's chunks.** A block of `n` bytes is allocated
//!   as `16·⌈(n + 8)/16⌉ − 8` bytes, the usable size of the chunk glibc
//!   gives `n` anyway, so no item grows; the class is recomputed from
//!   the header's two lengths. Blocks over 4 KiB are never parked.
//! * **Bounded by the store's own past.** A block is allocated only
//!   when its stripe's list for its class is empty and the depot has
//!   none of the class either, so per class, store-wide, the blocks a
//!   store owns exceed its high-water mark of live plus retired items
//!   by at most the `STRIPE_KEEP` the other stripes may each keep.
//!   [`KvStore::purge_retired`] and `Drop` free every parked block, the
//!   depot's too, exactly once.
//! * **The common write takes no second lock.** The depot counts its
//!   blocks in a relaxed word, so a list miss with the depot empty
//!   costs one load and no lock, and a stripe that has parked nothing
//!   yet does not look at all: a fresh store's preload never touches
//!   the depot. The depot's lock is a leaf, taken under a stripe lock
//!   (and, in a maintenance pass, the global lock above that).
//! * **Reuse waits for the grace period.** A block is parked, on its
//!   stripe or in the depot, only when the store's reference goes,
//!   which is never before its bag ages out, so no pinned reader can
//!   still be looking at it when a write on any stripe refills it.
//! * **A parked block is cold.** It was last touched when it was
//!   parked, so a write prefetches the block it would refill as soon as
//!   it holds the stripe lock, and the misses overlap its chain walk. A
//!   block moved over from the depot is moved first, then prefetched
//!   like any other.
//!
//! # Examples
//!
//! ```
//! use ssync_kv::KvStore;
//! use ssync_locks::TicketLock;
//!
//! let kv: KvStore<TicketLock> = KvStore::new(1024, 64);
//! kv.set(b"key", b"value");
//! assert_eq!(kv.get(b"key").unwrap().as_ref(), b"value");
//! assert_eq!(kv.get_with(b"key", |_, value| value.len()), Some(5));
//! assert!(kv.delete(b"key"));
//! ```

use core::ptr::{self, NonNull};
use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};

/// Crate-local alias for the workspace atomic facade: real
/// `core::sync::atomic` types in production builds, `ssync-chk` shadow
/// atomics under `RUSTFLAGS='--cfg ssync_chk'`.
pub(crate) mod sync {
    pub(crate) use ssync_core::sync::{atomic, cpu_relax, reinit};
}

use std::sync::Arc;

use crate::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};

use bytes::Bytes;

use ssync_core::epoch::{EpochBags, EpochDomain};
use ssync_core::CachePadded;
use ssync_locks::{Lock, RawLock};

/// Successful writes between global maintenance passes (Memcached's
/// rebalancer wakes periodically; we trigger on write counts to stay
/// deterministic). `set`, a matched `cas`, a `delete` or
/// `delete_versioned` that removed a key, and an applied
/// `apply_replicated` each count one; a write that changed nothing
/// does not. A pass is one epoch-advance attempt plus one stripe's bag
/// collection: no part of it depends on how many items the store holds.
pub const MAINTENANCE_PERIOD: u64 = 64;

/// Optimistic read attempts before a read falls back to the locked
/// path. Small on purpose: a failed validation means a writer is
/// actively mutating the stripe, and under sustained write pressure
/// spinning on the version word would just re-run the traversal — the
/// locked path *waits its turn* instead.
pub const OPTIMISTIC_ATTEMPTS: usize = 3;

/// Longest key an item holds: a handle into an item's value must reach
/// back to the block's start, and a `Bytes` view has 28 bits for that.
const MAX_KEY_LEN: usize = 1 << 24;

/// Longest value an item holds (its header stores the length as `u32`).
const MAX_VALUE_LEN: usize = u32::MAX as usize;

/// Handles one item may have outstanding at once; a count past it means
/// handles are leaking, and taking one more could wrap the count.
const MAX_REFS: u32 = u32::MAX / 2;

/// Largest block a stripe's recycler parks; a bigger one goes back to
/// malloc. The wire's values are at most 1 KiB.
const RECYCLE_MAX: usize = 4096;

/// Size classes a recycler keeps: class `c` holds `16·c − 8`-byte
/// blocks, up to [`RECYCLE_MAX`].
const CLASSES: usize = (RECYCLE_MAX + 8) / 16 + 1;

/// The size an item block of `n` bytes is allocated as: `n` rounded up
/// to the next `16·c − 8`. That is the usable size of the chunk glibc's
/// malloc hands out for `n` anyway (a chunk is an 8-byte size word plus
/// the request, rounded up to 16), so no item grows, and every block of
/// one class fits every item of that class.
const fn block_size(n: usize) -> usize {
    (n + 8).div_ceil(16) * 16 - 8
}

/// The recycler class of a `size`-byte block, if it is parked at all.
fn class_of(size: usize) -> Option<usize> {
    (size <= RECYCLE_MAX).then_some((size + 8) / 16)
}

/// The header of one stored item; the key's and then the value's bytes
/// follow it in the same allocation (see the module docs). Everything
/// but `refs` and `next` is immutable after the item is published (an
/// update allocates a replacement item); `next` is rewritten only by
/// the stripe's (lock-serialized) writer.
#[repr(C)]
struct Item {
    // chk: per-item reference count, deliberately unpadded — it shares
    // the header line with the fields every chain step reads, and only
    // handle traffic (never a traversal) writes it.
    refs: AtomicU32,
    key_len: u32,
    value_len: u32,
    /// CAS version (Memcached's `cas` token).
    version: u64,
    // chk: per-item chain link, deliberately unpadded — padding every
    // item would grow it by a cache line, and the link is written only
    // by the lock-serialized writer.
    next: AtomicPtr<Item>,
}

/// Bytes in an item's header; its key starts here.
const HEADER: usize = std::mem::size_of::<Item>();

impl Item {
    /// Makes an item holding one reference, the store's, in a block
    /// from `recycler` or, when it has none of the item's class, a new
    /// allocation.
    fn create(
        recycler: &mut Recycler,
        key: &[u8],
        value: &[u8],
        version: u64,
        next: *mut Item,
    ) -> *mut Item {
        assert!(
            key.len() <= MAX_KEY_LEN && value.len() <= MAX_VALUE_LEN,
            "a {}-byte key or a {}-byte value is too long for an item",
            key.len(),
            value.len()
        );
        let layout = Item::layout(key.len(), value.len());
        let mut item = recycler.take(layout.size());
        if item.is_null() {
            // SAFETY: the layout is never zero-sized (the header alone
            // is `HEADER` bytes).
            item = unsafe { alloc(layout) }.cast::<Item>();
            if item.is_null() {
                handle_alloc_error(layout);
            }
        }
        // The header below starts new atomics, wherever the block came
        // from.
        sync::reinit(item.cast(), HEADER);
        // SAFETY: `item` is a block of `layout`, aligned for `Item`,
        // holding the header plus both byte ranges, and no one else
        // owns it: a new allocation, or a parked block that no chain,
        // bag or handle reaches any more. Nothing else can see it
        // until the caller publishes it.
        unsafe {
            item.write(Item {
                refs: AtomicU32::new(1),
                key_len: key.len() as u32,
                value_len: value.len() as u32,
                version,
                next: AtomicPtr::new(next),
            });
            let bytes = item.cast::<u8>().add(HEADER);
            ptr::copy_nonoverlapping(key.as_ptr(), bytes, key.len());
            ptr::copy_nonoverlapping(value.as_ptr(), bytes.add(key.len()), value.len());
        }
        item
    }

    /// The block an item of these lengths lives in, rounded up to its
    /// class (see [`block_size`]).
    fn layout(key_len: usize, value_len: usize) -> Layout {
        Layout::from_size_align(
            block_size(HEADER + key_len + value_len),
            std::mem::align_of::<Item>(),
        )
        .expect("item size overflows a layout")
    }

    /// `len` bytes of the item's body from `offset` past the header.
    fn body(&self, offset: usize, len: usize) -> &[u8] {
        // SAFETY: the allocation runs `key_len + value_len` bytes past
        // the header, and callers stay inside it; the bytes were
        // written before the item was published and never change.
        unsafe {
            std::slice::from_raw_parts((self as *const Item).cast::<u8>().add(HEADER + offset), len)
        }
    }

    fn key(&self) -> &[u8] {
        self.body(0, self.key_len as usize)
    }

    fn value(&self) -> &[u8] {
        self.body(self.key_len as usize, self.value_len as usize)
    }

    /// A handle on `bytes` — this item's key or value — holding one
    /// reference. Only under the caller's pin or stripe lock, where the
    /// store's own reference is certain to be held.
    fn handle(&self, bytes: &[u8]) -> Bytes {
        // SAFETY: the store's reference keeps the block live for the
        // call (caller contract); `share` takes and drops references
        // from any thread; `bytes` lies inside the block and is
        // immutable until the last reference goes.
        unsafe { Bytes::from_shared(NonNull::from(self).cast(), bytes, share) }
    }

    fn value_handle(&self) -> Bytes {
        self.handle(self.value())
    }

    /// Drops one reference; `true` if it was the last, and the caller
    /// now owns the dead block.
    ///
    /// SAFETY: the caller owns a reference on the live `item` and gives
    /// it up.
    unsafe fn drop_ref(item: *mut Item) -> bool {
        // Release orders this owner's reads of the block before its
        // count drops; Acquire on the last drop orders every other
        // owner's reads before whatever the block is used for next.
        // SAFETY: the caller's reference keeps `item` live until the
        // decrement.
        unsafe { &*item }.refs.fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// Drops one reference; the last one frees the block to malloc.
    /// A handle's release, and the teardown's.
    ///
    /// SAFETY: as [`Item::drop_ref`].
    unsafe fn release(item: *mut Item) {
        // SAFETY: caller contract; a last reference leaves the block
        // to us, and no handle, chain or bag can reach it any more.
        unsafe {
            if Item::drop_ref(item) {
                Item::free(item);
            }
        }
    }

    /// Frees a dead block to malloc.
    ///
    /// SAFETY: the caller owns `item`, a block with no reference left.
    unsafe fn free(item: *mut Item) {
        // SAFETY: the header's lengths outlive the last reference (a
        // parked block's `next` is the only field its list rewrites).
        let header = unsafe { &*item };
        let layout = Item::layout(header.key_len as usize, header.value_len as usize);
        // SAFETY: allocated with this layout (the class is a function
        // of the lengths), and owned by the caller.
        unsafe { dealloc(item.cast(), layout) };
    }

    /// [`KvFault::ReleaseAtRetire`]'s release: the last reference
    /// overwrites the key and value with a poison pattern and leaves the
    /// block allocated, so a reader that still walks it reads the
    /// poison — a miss or wrong bytes the model asserts on — rather
    /// than freed memory.
    ///
    /// SAFETY: as [`Item::release`].
    #[cfg(ssync_chk)]
    unsafe fn release_poisoning(item: *mut Item) {
        // SAFETY: the caller gives up its reference; a last one leaves
        // the still-allocated block to us, its body inside it, and
        // model threads run one at a time.
        unsafe {
            if Item::drop_ref(item) {
                let header = &*item;
                let len = header.key_len as usize + header.value_len as usize;
                ptr::write_bytes(item.cast::<u8>().add(HEADER), 0xA5, len);
            }
        }
    }
}

/// One free list of dead blocks per size class, linked through each
/// dead block's `next` — Memcached's slab classes. A stripe's
/// [`Recycler`] keeps its blocks in one, and so does the store's
/// [`Depot`].
struct FreeLists {
    /// The lists by class. Allocated on the first push, so a store that
    /// never replaces an item pays nothing for them.
    by_class: Option<Box<[FreeList; CLASSES]>>,
}

#[derive(Clone, Copy)]
struct FreeList {
    head: *mut Item,
    len: u32,
}

// SAFETY: every block on a list is dead and owned by the list alone;
// nothing in a block is thread-affine.
unsafe impl Send for FreeLists {}

impl FreeLists {
    const fn new() -> FreeLists {
        FreeLists { by_class: None }
    }

    /// The block [`FreeLists::pop`] would return; null if there is none.
    fn first(&self, class: usize) -> *mut Item {
        self.by_class
            .as_deref()
            .map_or(ptr::null_mut(), |lists| lists[class].head)
    }

    fn len(&self, class: usize) -> u32 {
        self.by_class.as_deref().map_or(0, |lists| lists[class].len)
    }

    /// Unlinks the first block of `class`'s list; null if it is empty.
    fn pop(&mut self, class: usize) -> *mut Item {
        let Some(list) = self.by_class.as_deref_mut().map(|lists| &mut lists[class]) else {
            return ptr::null_mut();
        };
        let block = list.head;
        if !block.is_null() {
            // SAFETY: a parked block is dead, and its list is the one
            // owner of it.
            list.head = unsafe { *(*block).next.get_mut() };
            list.len -= 1;
        }
        block
    }

    /// Parks `block` on `class`'s list.
    ///
    /// SAFETY: `block` is a dead block of `class`, and the caller hands
    /// over its ownership.
    unsafe fn push(&mut self, class: usize, block: *mut Item) {
        let list = &mut self.by_class.get_or_insert_with(|| {
            Box::new(
                [FreeList {
                    head: ptr::null_mut(),
                    len: 0,
                }; CLASSES],
            )
        })[class];
        // A plain write, not an atomic store: no one else reads a dead
        // block's `next`, so the link costs the checker no operation.
        // SAFETY: the block is dead and ours (caller contract).
        unsafe { *(*block).next.get_mut() = list.head };
        list.head = block;
        list.len += 1;
    }

    /// Frees every parked block to malloc.
    fn free_all(&mut self) {
        for list in self.by_class.take().into_iter().flat_map(|lists| *lists) {
            let mut block = list.head;
            while !block.is_null() {
                // SAFETY: a parked block is dead and owned by its list,
                // which this walk empties; each is freed once.
                unsafe {
                    let next = *(*block).next.get_mut();
                    Item::free(block);
                    block = next;
                }
            }
        }
    }
}

/// Blocks of one class a stripe keeps parked; a dead block its
/// stripe's list has no room for goes to the store's [`Depot`]. Small,
/// so that the blocks a store holds beyond its items sit store-wide,
/// where any stripe's write can refill them; not zero, so that most
/// writes find their block on their own stripe and take no second lock
/// (DESIGN.md "Recycled blocks" has the sweep).
const STRIPE_KEEP: u32 = 4;

/// A stripe's dead item blocks, kept for the stripe's next writes: at
/// most [`STRIPE_KEEP`] per class, the rest spilled to the store's
/// [`Depot`]. Used only under the stripe lock (or through
/// `&mut KvStore`), like the bags beside it.
struct Recycler {
    lists: FreeLists,
}

impl Recycler {
    const fn new() -> Recycler {
        Recycler {
            lists: FreeLists::new(),
        }
    }

    /// Unlinks a parked block of a `size`-byte block's class; null if
    /// the stripe has none.
    fn take(&mut self, size: usize) -> *mut Item {
        class_of(size).map_or(ptr::null_mut(), |class| self.lists.pop(class))
    }

    /// Readies the block `take(size)` would return. A stripe whose list
    /// for the class is empty first moves one block over from the
    /// depot, if it has one. (A stripe that has parked nothing yet has
    /// no lists and asks no depot, so a fresh store's preload touches
    /// neither.) Then starts fetching the block: a parked block was
    /// last touched when it was parked, usually long before, so a write
    /// that refills it would stall on its lines; prefetched as soon as
    /// the stripe lock is held, they arrive while the write walks its
    /// chain. (A chunk malloc hands back is often one another request
    /// freed a moment ago, still in cache.) The prefetch is x86-64
    /// only.
    fn prefetch<R: RawLock>(&mut self, size: usize, depot: &Depot<R>) {
        let Some(class) = class_of(size) else {
            return;
        };
        if self.lists.by_class.is_none() {
            return;
        }
        let mut block = self.lists.first(class);
        if block.is_null() {
            block = depot.pop(class);
            if block.is_null() {
                return;
            }
            // SAFETY: the depot handed over a dead block of `class`.
            unsafe { self.lists.push(class, block) };
        }
        #[cfg(target_arch = "x86_64")]
        for line in (0..size).step_by(64) {
            // SAFETY: a prefetch is a hint: it never faults, and it
            // reads nothing the program can observe. The address lies
            // inside a parked block besides.
            unsafe {
                core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
                    block.cast::<i8>().wrapping_add(line),
                );
            }
        }
    }

    /// The store's release of an item it retired: drops the store's
    /// reference, and when that was the last one, parks the block on
    /// the stripe's list for its class or, with [`STRIPE_KEEP`] there
    /// already, on the depot's — or frees it, past [`RECYCLE_MAX`].
    ///
    /// SAFETY: the store owns a reference on `item` and gives it up,
    /// and `item`'s grace period is over: no chain or pinned reader can
    /// reach it.
    unsafe fn release<R: RawLock>(&mut self, item: *mut Item, depot: &Depot<R>) {
        // SAFETY: caller contract.
        if !unsafe { Item::drop_ref(item) } {
            return;
        }
        // SAFETY: that was the last reference, so the block is ours.
        let header = unsafe { &*item };
        let size = block_size(HEADER + header.key_len as usize + header.value_len as usize);
        let Some(class) = class_of(size) else {
            // SAFETY: the block is dead and ours.
            return unsafe { Item::free(item) };
        };
        // SAFETY: the block is dead, of `class`, and ours to hand over.
        unsafe {
            if self.lists.len(class) < STRIPE_KEEP {
                self.lists.push(class, item);
            } else {
                depot.push(class, item);
            }
        }
    }
}

/// The store-wide overflow of its stripes' recyclers: one free list per
/// class, behind a lock of its own, which a stripe takes only to spill
/// a block past [`STRIPE_KEEP`] or when its own list for a write's class
/// is empty. The lock is a leaf: it is taken under a stripe lock (and
/// perhaps the global one above that), and nothing is locked under it.
struct Depot<R: RawLock> {
    lists: Lock<FreeLists, R>,
    // chk: a hint beside the lock, deliberately unpadded — it is
    // written only under the lock, with the lists, and read on a
    // stripe's list miss, which is rare once the lists are warm.
    blocks: AtomicUsize,
}

impl<R: RawLock> Depot<R> {
    /// Parks a dead block a stripe had no room for.
    ///
    /// SAFETY: as [`FreeLists::push`].
    unsafe fn push(&self, class: usize, block: *mut Item) {
        let mut lists = self.lists.lock();
        // SAFETY: caller contract.
        unsafe { lists.push(class, block) };
        self.blocks.fetch_add(1, Ordering::Relaxed);
    }

    /// Unlinks a parked block of `class`, handing it to the caller; null
    /// if there is none. An empty depot is known without its lock: the
    /// count changes only with the lists, under the lock, so a 0 read
    /// means the depot was empty at that point of the count's order.
    /// Relaxed, because the count publishes nothing: the lock orders
    /// every access to the lists and the blocks on them.
    fn pop(&self, class: usize) -> *mut Item {
        if self.blocks.load(Ordering::Relaxed) == 0 {
            return ptr::null_mut();
        }
        let mut lists = self.lists.lock();
        let block = lists.pop(class);
        if !block.is_null() {
            self.blocks.fetch_sub(1, Ordering::Relaxed);
        }
        block
    }

    /// Frees every parked block to malloc.
    fn free_all(&mut self) {
        self.lists.get_mut().free_all();
        self.blocks.store(0, Ordering::Relaxed);
    }
}

/// What every handle on an item calls to take (`true`) or drop
/// (`false`) a reference: the item's count, on the atomic facade.
///
/// SAFETY: `block` is a live item the caller holds a reference on.
// Out of line: a view names its share function by address (a slot in
// the `bytes` shim's table), so the function must have exactly one.
#[inline(never)]
unsafe fn share(block: NonNull<u8>, take: bool) {
    let item = block.cast::<Item>().as_ptr();
    if take {
        // Relaxed, as `Arc::clone`: a new reference is made only from
        // one the caller already holds, which keeps the count above
        // zero whatever the ordering.
        // SAFETY: the caller's reference keeps `item` live.
        let before = unsafe { &*item }.refs.fetch_add(1, Ordering::Relaxed);
        assert_ne!(before, 0, "a reference taken on a freed item");
        assert!(before < MAX_REFS, "item handles leaking: {before} held");
    } else {
        // SAFETY: the caller gives up the reference it holds.
        unsafe { Item::release(item) }
    }
}

/// Seeded protocol bugs for the `expect_violation` twins in
/// `tests/chk_models.rs`: each removes one guard the reclamation
/// argument leans on, and the checker must exhibit the failure.
#[cfg(ssync_chk)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvFault {
    /// The store drops its reference on an item when it retires it,
    /// not when the item's bag ages out: a reader still walking the
    /// unlinked item can lose it under its pin.
    ReleaseAtRetire,
    /// The store gives up its reference on an item when it retires it
    /// and recycles the block at once, so the stripe's next write of
    /// the same class can refill it while a pinned reader still visits
    /// the old item.
    RecycleAtRetire,
}

/// Statistics counters (all monotonic). Each counter is padded to its
/// own cache-line pair: the counters are bumped from every client of a
/// shard, and adjacent unpadded `AtomicU64`s would false-share — a
/// coherence tax on every operation even when the data path itself is
/// uncontended.
#[derive(Debug, Default)]
pub struct Stats {
    /// Successful `get`s.
    pub hits: CachePadded<AtomicU64>,
    /// `get`s for absent keys.
    pub misses: CachePadded<AtomicU64>,
    /// Successful puts: `set`s and matched `cas`es.
    pub sets: CachePadded<AtomicU64>,
    /// Successful `delete`s (deletes of absent keys are not counted).
    pub deletes: CachePadded<AtomicU64>,
    /// `cas` attempts rejected for a stale version or absent key.
    pub cas_failures: CachePadded<AtomicU64>,
    /// Global maintenance passes executed.
    pub maintenance_runs: CachePadded<AtomicU64>,
    /// Replicated operations applied ([`KvStore::apply_replicated`]
    /// calls that changed the store — streamed or replayed from a log).
    pub repl_applied: CachePadded<AtomicU64>,
    /// Replicated operations dropped by the version gate (duplicate or
    /// out-of-date deliveries; the idempotency the replication layer
    /// counts on).
    pub repl_stale_drops: CachePadded<AtomicU64>,
    /// Optimistic reads that exhausted [`OPTIMISTIC_ATTEMPTS`] and took
    /// the stripe lock instead — or found every epoch participant
    /// slot taken and went straight to it.
    pub read_fallbacks: CachePadded<AtomicU64>,
    /// Global-epoch advances won by this store's maintenance passes and
    /// [`KvStore::reclaim_pass`] calls.
    pub epochs_advanced: CachePadded<AtomicU64>,
    /// Retired items whose store reference epoch collection released
    /// (inline at retire, at maintenance, in `reclaim_pass`, or by the
    /// shutdown purge). Collection parks a block whose last reference
    /// it dropped for the store's next writes, and the purge frees it;
    /// a block a handle still holds is freed when the last handle goes.
    pub nodes_reclaimed: CachePadded<AtomicU64>,
}

impl Stats {
    /// A plain-value copy of every counter. Each counter is read
    /// independently (`Relaxed`), so a snapshot taken while writers
    /// are active is a consistent *per-counter* view, not a
    /// cross-counter atomic one.
    ///
    /// Crate-internal on purpose: `reclaim_backlog` is a gauge owned
    /// by the store's stripes, not a `Stats` counter, so this copy
    /// leaves it zero — [`KvStore::stats_snapshot`] is the public
    /// view, with the gauge filled in.
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            sets: self.sets.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            cas_failures: self.cas_failures.load(Ordering::Relaxed),
            maintenance_runs: self.maintenance_runs.load(Ordering::Relaxed),
            repl_applied: self.repl_applied.load(Ordering::Relaxed),
            repl_stale_drops: self.repl_stale_drops.load(Ordering::Relaxed),
            read_fallbacks: self.read_fallbacks.load(Ordering::Relaxed),
            epochs_advanced: self.epochs_advanced.load(Ordering::Relaxed),
            nodes_reclaimed: self.nodes_reclaimed.load(Ordering::Relaxed),
            reclaim_backlog: 0,
        }
    }
}

/// Plain-struct copy of [`Stats`] plus the `reclaim_backlog` gauge,
/// as returned by [`KvStore::stats_snapshot`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Successful `get`s.
    pub hits: u64,
    /// `get`s for absent keys.
    pub misses: u64,
    /// Successful puts: `set`s and matched `cas`es.
    pub sets: u64,
    /// Successful `delete`s.
    pub deletes: u64,
    /// Rejected `cas` attempts.
    pub cas_failures: u64,
    /// Global maintenance passes executed.
    pub maintenance_runs: u64,
    /// Replicated operations applied.
    pub repl_applied: u64,
    /// Replicated operations dropped by the version gate.
    pub repl_stale_drops: u64,
    /// Optimistic reads that fell back to the locked path.
    pub read_fallbacks: u64,
    /// Global-epoch advances won.
    pub epochs_advanced: u64,
    /// Retired nodes freed by epoch collection.
    pub nodes_reclaimed: u64,
    /// Retired nodes currently awaiting reclamation. A **gauge**, not a
    /// monotonic counter: [`StatsSnapshot::merge`] sums it across
    /// shards, but [`StatsSnapshot::delta`] carries the *current* value
    /// through instead of subtracting (a backlog can shrink).
    pub reclaim_backlog: u64,
}

impl StatsSnapshot {
    /// Field-wise sum, for aggregating shards.
    pub fn merge(&self, other: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            sets: self.sets + other.sets,
            deletes: self.deletes + other.deletes,
            cas_failures: self.cas_failures + other.cas_failures,
            maintenance_runs: self.maintenance_runs + other.maintenance_runs,
            repl_applied: self.repl_applied + other.repl_applied,
            repl_stale_drops: self.repl_stale_drops + other.repl_stale_drops,
            read_fallbacks: self.read_fallbacks + other.read_fallbacks,
            epochs_advanced: self.epochs_advanced + other.epochs_advanced,
            nodes_reclaimed: self.nodes_reclaimed + other.nodes_reclaimed,
            reclaim_backlog: self.reclaim_backlog + other.reclaim_backlog,
        }
    }

    /// Field-wise difference against an `earlier` snapshot of the same
    /// (monotonic) counters — the per-phase delta reports are built on.
    pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            sets: self.sets - earlier.sets,
            deletes: self.deletes - earlier.deletes,
            cas_failures: self.cas_failures - earlier.cas_failures,
            maintenance_runs: self.maintenance_runs - earlier.maintenance_runs,
            repl_applied: self.repl_applied - earlier.repl_applied,
            repl_stale_drops: self.repl_stale_drops - earlier.repl_stale_drops,
            read_fallbacks: self.read_fallbacks - earlier.read_fallbacks,
            epochs_advanced: self.epochs_advanced - earlier.epochs_advanced,
            nodes_reclaimed: self.nodes_reclaimed - earlier.nodes_reclaimed,
            // A gauge, not a counter: the delta report shows where the
            // backlog *stands*, and subtraction could underflow.
            reclaim_backlog: self.reclaim_backlog,
        }
    }
}

/// Writer-side bookkeeping, held under the stripe lock: the items
/// unlinked from this stripe's chains, parked in three-generation
/// epoch bags until their tag ages past the grace period (each still
/// holds the store's reference because an optimistic reader may still
/// be walking it), and the dead blocks the bags' releases left, kept
/// for this stripe's next writes up to [`STRIPE_KEEP`] per class; see
/// the module docs.
struct StripeInner {
    bags: EpochBags<*mut Item>,
    recycler: Recycler,
}

// SAFETY: the bags' pointers are the store's references on retired
// items and the recycler's are dead blocks, all owned exclusively by
// the stripe — pushed and taken only while holding the stripe lock (or
// `&mut KvStore` for purge/drop), each released or freed exactly once;
// nothing in a block is thread-affine.
unsafe impl Send for StripeInner {}

/// One lock stripe: the seqlock word, the bucket-chain heads this
/// stripe owns, and the writer lock with its retirement bags.
struct Stripe<R: RawLock> {
    /// Seqlock version word: even = stable, odd = a writer is inside
    /// the critical section. Padded — it is read by every optimistic
    /// reader of the stripe and written by every writer.
    seq: CachePadded<AtomicU64>,
    /// Bucket-chain heads. The slice itself is immutable after
    /// construction; each head is mutated only under the stripe lock.
    // chk: a dense array by design (padding B buckets would multiply
    // the table's footprint by 8); heads are read-mostly, and writer
    // traffic is already serialized per stripe.
    heads: Box<[AtomicPtr<Item>]>,
    /// Items parked in this stripe's bags: the lock-free backlog gauge
    /// behind [`KvStore::reclaim_backlog`]. Written only under the
    /// stripe lock (the retire-side `SeqCst` bump doubles as the flush
    /// that commits the unlink before the epoch tag is read — see
    /// [`KvStore::retire`]); read `Relaxed` by anyone.
    backlog: CachePadded<AtomicU64>,
    /// The stripe's writer lock (the pluggable algorithm under test)
    /// and retirement bags.
    inner: Lock<StripeInner, R>,
}

// The chains are read concurrently through atomic loads and mutated only
// by the lock-serialized writer via atomic stores.
// SAFETY: the items the chains lead to are immutable (bar the atomic
// `next` and reference count) and kept allocated by the store's
// reference until epoch collection or a `&mut` quiescent point (see
// module docs). `seq` and `inner` are Sync on their own.
unsafe impl<R: RawLock> Sync for Stripe<R> {}
// SAFETY: as above — the store's references on the chain items move
// with the stripe, and nothing in an item is thread-affine.
unsafe impl<R: RawLock> Send for Stripe<R> {}

/// RAII seqlock write section: entering makes the stripe's version word
/// odd, dropping makes it even again. Must only be created while
/// holding the stripe lock (single writer), and must enclose every
/// chain-pointer store of the mutation.
struct WriteSection<'a> {
    // chk: a borrow of the stripe's already-CachePadded seqlock word,
    // not storage of its own.
    seq: &'a AtomicU64,
}

impl<'a> WriteSection<'a> {
    fn enter(seq: &'a AtomicU64) -> Self {
        // Relaxed is enough: the Release pointer store that publishes
        // the mutation is sequenced after this store, so any reader
        // that Acquire-observes the mutation also observes the odd
        // word (or a later value) on its validation load.
        let s = seq.load(Ordering::Relaxed);
        debug_assert_eq!(s & 1, 0, "nested write sections");
        seq.store(s + 1, Ordering::Relaxed);
        WriteSection { seq }
    }
}

impl Drop for WriteSection<'_> {
    fn drop(&mut self) {
        let s = self.seq.load(Ordering::Relaxed);
        // Release: the closing store must not be reordered before the
        // mutation's pointer stores, or a reader could validate against
        // the new even value while the mutation is still in flight.
        self.seq.store(s + 1, Ordering::Release);
    }
}

/// The store, generic over the lock algorithm guarding both the stripes
/// and the global maintenance path.
pub struct KvStore<R: RawLock + Default> {
    /// Striped buckets: `stripes[i]` owns buckets `b` with
    /// `b % stripes.len() == i`.
    stripes: Box<[Stripe<R>]>,
    buckets_per_stripe: usize,
    /// The global maintenance lock: held only by a maintenance pass, a
    /// short section that also holds one stripe's lock, so passes are
    /// serialized and a pass blocks writers of that one stripe alone.
    global: Lock<(), R>,
    /// The dead blocks the stripes' recyclers had no room for. Its lock
    /// is a leaf, below the stripe locks (and the global one).
    depot: Depot<R>,
    /// Bumped by every write from every client of the shard; padded so
    /// the two global counters don't false-share with each other or the
    /// neighboring fields.
    write_counter: CachePadded<AtomicU64>,
    next_version: CachePadded<AtomicU64>,
    /// This store's reclamation domain. Per-store (not process-global):
    /// a pinned reader of one store must not stall another store's
    /// collection. Shared as an `Arc` because reader threads register
    /// with it through thread-local participant records.
    epoch: Arc<EpochDomain>,
    stats: Stats,
    #[cfg(ssync_chk)]
    fault: Option<KvFault>,
}

impl<R: RawLock + Default> KvStore<R> {
    /// Creates a store with `buckets` buckets striped over `stripes`
    /// locks.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` or `stripes` is zero, or if `stripes` exceeds
    /// `buckets`.
    pub fn new(buckets: usize, stripes: usize) -> Self {
        assert!(buckets > 0 && stripes > 0 && stripes <= buckets);
        let buckets_per_stripe = buckets.div_ceil(stripes);
        Self {
            stripes: (0..stripes)
                .map(|_| Stripe {
                    seq: CachePadded::new(AtomicU64::new(0)),
                    heads: (0..buckets_per_stripe)
                        .map(|_| AtomicPtr::new(ptr::null_mut()))
                        .collect(),
                    backlog: CachePadded::new(AtomicU64::new(0)),
                    inner: Lock::new(StripeInner {
                        bags: EpochBags::new(),
                        recycler: Recycler::new(),
                    }),
                })
                .collect(),
            buckets_per_stripe,
            global: Lock::new(()),
            depot: Depot {
                lists: Lock::new(FreeLists::new()),
                blocks: AtomicUsize::new(0),
            },
            write_counter: CachePadded::new(AtomicU64::new(0)),
            next_version: CachePadded::new(AtomicU64::new(1)),
            epoch: Arc::new(EpochDomain::new()),
            stats: Stats::default(),
            #[cfg(ssync_chk)]
            fault: None,
        }
    }

    /// A store with one seeded protocol bug, for the checker's
    /// violation twins.
    #[cfg(ssync_chk)]
    pub fn with_fault(buckets: usize, stripes: usize, fault: KvFault) -> Self {
        let mut store = Self::new(buckets, stripes);
        store.fault = Some(fault);
        store
    }

    /// The store's epoch domain. Service loops use this to pin around
    /// compound read sequences or to hold a registration open; plain
    /// `get`/`multi_get` callers never need it — the read path pins by
    /// itself.
    pub fn epoch_domain(&self) -> &Arc<EpochDomain> {
        &self.epoch
    }

    /// Statistics counters.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// A plain-value copy of every [`Stats`] counter plus the live
    /// `reclaim_backlog` gauge — the form the service layers scrape.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            reclaim_backlog: self.reclaim_backlog(),
            ..self.stats.snapshot()
        }
    }

    fn locate(&self, key: &[u8]) -> (usize, usize) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in key {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1_0000_01b3);
        }
        let bucket = (h >> 16) as usize % (self.stripes.len() * self.buckets_per_stripe);
        (bucket % self.stripes.len(), bucket / self.stripes.len())
    }

    /// Walks one bucket chain for `key`'s item (null on a miss). Safe to
    /// call either under the stripe lock (which excludes the retire path
    /// entirely) or optimistically under an epoch pin: every pointer
    /// loaded here was published by a Release store and leads to an
    /// item that is live or retired — and a retired item's bag cannot
    /// age past the grace period while the reader's pin holds the epoch,
    /// so the dereference is always valid, and so is the returned item
    /// until the pin or lock goes. Chains are acyclic at all times (a
    /// pointer store always targets the writer's *current* live
    /// successor, and items are never reused while reachable), so the
    /// walk terminates.
    fn chain_find(head: &AtomicPtr<Item>, key: &[u8]) -> *mut Item {
        let mut p = head.load(Ordering::Acquire);
        while !p.is_null() {
            // SAFETY: see above — `p` came from a Release-published
            // link and its item is kept allocated and immutable (bar
            // `next` and the count) by the caller's pin or stripe lock.
            let item = unsafe { &*p };
            if item.key() == key {
                break;
            }
            p = item.next.load(Ordering::Acquire);
        }
        p
    }

    /// The one read: finds `key`'s item — optimistically, then under the
    /// stripe lock — and hands it to `visit` while the item is still
    /// certain to be allocated. Optimistic protocol: snapshot the
    /// stripe's version word (must be even), traverse without the lock,
    /// and accept the result only if the word is unchanged — then the
    /// whole read overlapped no write section and is a consistent
    /// point-in-time answer. An item is never torn regardless (items are
    /// immutable and published by single pointer stores); validation is
    /// what makes the *absence* of a key and the freshness of the hit
    /// trustworthy. `visit` runs after the validation, still under the
    /// read's pin, so it sees the item as of that point even if a writer
    /// has since replaced it. After [`OPTIMISTIC_ATTEMPTS`] misses the
    /// read queues on the stripe lock like any writer, and `visit` runs
    /// under it.
    fn read<T>(&self, key: &[u8], visit: impl FnOnce(&Item) -> T) -> Option<T> {
        let (stripe, bucket) = self.locate(key);
        let stripe = &self.stripes[stripe];
        // Pin before the first head load: every pointer the traversal
        // below can observe stays allocated until the guard drops (an
        // item's bag cannot age out of the grace period while this pin
        // holds the epoch). A nested pin — each of `multi_get`'s reads
        // runs under the batch's — is a plain depth bump. `None` means
        // every participant slot is taken; the locked path needs no grace
        // period, so the read still answers (counted as a fallback).
        if let Some(_pin) = self.epoch.pin() {
            for _ in 0..OPTIMISTIC_ATTEMPTS {
                let s1 = stripe.seq.load(Ordering::Acquire);
                if s1 & 1 == 1 {
                    // A writer is inside; re-snapshot.
                    crate::sync::cpu_relax();
                    continue;
                }
                let hit = Self::chain_find(&stripe.heads[bucket], key);
                // The traversal's Acquire loads keep this validation
                // load from moving before them; equality means no
                // write section overlapped the reads we performed.
                if stripe.seq.load(Ordering::Acquire) == s1 {
                    // SAFETY: `hit` is null or an item the pin keeps
                    // allocated until `_pin` drops, after `visit`.
                    return unsafe { hit.as_ref() }.map(visit);
                }
            }
        }
        self.stats.read_fallbacks.fetch_add(1, Ordering::Relaxed);
        Self::read_locked(stripe, bucket, key, visit)
    }

    /// The locked read of `key` in its (already located) bucket: the
    /// fallback of [`KvStore::read`], and the reference path the tests
    /// hold the optimistic one to.
    fn read_locked<T>(
        stripe: &Stripe<R>,
        bucket: usize,
        key: &[u8],
        visit: impl FnOnce(&Item) -> T,
    ) -> Option<T> {
        let _guard = stripe.inner.lock();
        // SAFETY: a found item is live while the stripe lock is held.
        unsafe { Self::chain_find(&stripe.heads[bucket], key).as_ref() }.map(visit)
    }

    /// [`KvStore::read`] plus the hit/miss statistic every counted
    /// lookup bumps.
    fn read_counted<T>(&self, key: &[u8], visit: impl FnOnce(&Item) -> T) -> Option<T> {
        let hit = self.read(key, visit);
        match &hit {
            Some(_) => self.stats.hits.fetch_add(1, Ordering::Relaxed),
            None => self.stats.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Looks a key up.
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        self.read_counted(key, Item::value_handle)
    }

    /// The CAS version of a key, if present.
    pub fn version(&self, key: &[u8]) -> Option<u64> {
        self.read(key, |item| item.version)
    }

    /// Looks a key up, returning `(version, value)` — Memcached's
    /// `gets` command, which the service layer needs to answer a read
    /// and arm a follow-up CAS with one acquisition.
    pub fn get_with_version(&self, key: &[u8]) -> Option<(u64, Bytes)> {
        self.read_counted(key, |item| (item.version, item.value_handle()))
    }

    /// Looks a key up and hands a hit's version and value to `visit`,
    /// borrowed in place: no handle is taken, so the read writes no
    /// shared word at all. What a server uses to encode a reply
    /// straight from the stored bytes. Counts toward hit/miss
    /// statistics like [`KvStore::get`].
    ///
    /// `visit` runs under the read's epoch pin — or, when the read fell
    /// back, under the key's stripe lock — so it should be short and
    /// must not write to this store.
    pub fn get_with<T>(&self, key: &[u8], visit: impl FnOnce(u64, &[u8]) -> T) -> Option<T> {
        self.read_counted(key, |item| visit(item.version, item.value()))
    }

    /// Batched lookup: each key is read on its own (per-key
    /// validation — a multi-get is not one atomic snapshot, matching
    /// the service's per-key reply semantics). Results come back in
    /// input order; hit/miss statistics count per key.
    ///
    /// The batch pins once: each key's read nests under that pin as a
    /// depth bump instead of publishing one of its own.
    pub fn multi_get(&self, keys: &[&[u8]]) -> Vec<Option<(u64, Bytes)>> {
        let _pin = self.epoch.pin();
        keys.iter().map(|key| self.get_with_version(key)).collect()
    }

    /// Writer-side search, only under the stripe lock: the link slot
    /// whose load equals the key's item (or, for an absent key, the
    /// terminal null link to append through).
    fn find_link<'a>(head: &'a AtomicPtr<Item>, key: &[u8]) -> (&'a AtomicPtr<Item>, *mut Item) {
        let mut link = head;
        loop {
            // chk: the stripe lock's acquire synchronized us with
            // every previous writer's stores.
            let p = link.load(Ordering::Relaxed);
            if p.is_null() {
                return (link, p);
            }
            // SAFETY: `p` is live (the held stripe lock excludes
            // unlink/retire), and the returned `&item.next` stays valid
            // for `'a`: the store drops its reference on a stripe's
            // items only under its lock (epoch collection) or through
            // `&mut KvStore` (purge/drop).
            let item = unsafe { &*p };
            if item.key() == key {
                return (link, p);
            }
            link = &item.next;
        }
    }

    /// Hands one just-unlinked item to the epoch machinery, with the
    /// store's reference on it. Caller must hold the stripe lock and
    /// must already have published the unlink (a Release pointer store
    /// inside a seqlock write section).
    ///
    /// The ordering here carries the reclamation proof: the backlog
    /// bump is a `SeqCst` RMW sequenced *after* the unlink store, and
    /// the epoch tag is read with a `SeqCst` load
    /// ([`EpochDomain::epoch_sc`]) so the bump precedes the tag read
    /// in the `SeqCst` total order — an Acquire tag load could be
    /// satisfied on RCpc hardware before the unlink is globally
    /// visible. By the time the tag is read the unlink is therefore
    /// committed to memory: a reader that finds this item through a
    /// stale pointer must have pinned at or before the tag, and its
    /// pin then blocks the tag's bag from aging out. Retiring
    /// into a bag slot whose previous generation is three epochs old
    /// releases that generation inline, which is what makes reclamation
    /// amortized per-op rather than a stop-the-world pass.
    fn retire(&self, stripe: &Stripe<R>, inner: &mut StripeInner, item: *mut Item) {
        let StripeInner { bags, recycler } = inner;
        #[cfg(ssync_chk)]
        match self.fault {
            // The seeded bugs: the store gives up its reference while a
            // pinned reader may still be walking the item. What keeps
            // each twin defined is that the block stays allocated.
            // SAFETY: none — the last reference poisons the block.
            Some(KvFault::ReleaseAtRetire) => return unsafe { Item::release_poisoning(item) },
            // SAFETY: none — the last reference parks the block for the
            // store's next write of its class.
            Some(KvFault::RecycleAtRetire) => {
                return unsafe { recycler.release(item, &self.depot) }
            }
            None => {}
        }
        stripe.backlog.fetch_add(1, Ordering::SeqCst);
        let tag = self.epoch.epoch_sc();
        let released = bags.retire(item, tag, |p| {
            // SAFETY: `p` was unlinked from this stripe's chains at
            // least two epoch advances before `tag`, so every reader
            // that could still reach it has unpinned (grace-period
            // proof in `ssync_core::epoch`), and bag entries are
            // pushed exactly once, each with the store's reference.
            unsafe { recycler.release(p, &self.depot) };
        });
        if released > 0 {
            stripe.backlog.fetch_sub(released as u64, Ordering::Relaxed);
            self.stats
                .nodes_reclaimed
                .fetch_add(released as u64, Ordering::Relaxed);
        }
    }

    /// Releases every bag generation of `stripe` that has aged past the
    /// grace period. Caller must hold the stripe lock.
    fn collect_locked(&self, stripe: &Stripe<R>, inner: &mut StripeInner) -> usize {
        let global = self.epoch.epoch();
        let StripeInner { bags, recycler } = inner;
        let released = bags.collect(global, |p| {
            // SAFETY: the bag's tag is at least two advances behind
            // `global`, so no reader pin can still cover `p`; entries
            // are pushed exactly once (see `retire`).
            unsafe { recycler.release(p, &self.depot) };
        });
        if released > 0 {
            stripe.backlog.fetch_sub(released as u64, Ordering::Relaxed);
            self.stats
                .nodes_reclaimed
                .fetch_add(released as u64, Ordering::Relaxed);
        }
        released
    }

    /// Links a new item for `key` through `link` in place of `found` —
    /// null for an insert — and retires `found`. Caller must hold the
    /// stripe lock, `link` must currently load `found`, and `found`
    /// must be null or live. Returns the new item, live until the lock
    /// is released.
    fn link_item(
        &self,
        stripe: &Stripe<R>,
        inner: &mut StripeInner,
        (link, found): (&AtomicPtr<Item>, *mut Item),
        key: &[u8],
        value: &[u8],
        version: u64,
    ) -> *mut Item {
        // SAFETY: `found` is null or live under the stripe lock
        // (caller contract).
        let next = unsafe { found.as_ref() }.map_or(ptr::null_mut(), |old| {
            // chk: lock-serialized — no writer mutates `next` under us.
            old.next.load(Ordering::Relaxed)
        });
        let fresh = Item::create(&mut inner.recycler, key, value, version, next);
        {
            let _section = WriteSection::enter(&stripe.seq);
            link.store(fresh, Ordering::Release);
        }
        if !found.is_null() {
            self.retire(stripe, inner, found);
        }
        fresh
    }

    /// Unlinks the live item `found`, which `link` loads, and retires
    /// it. Caller must hold the stripe lock.
    fn unlink_item(
        &self,
        stripe: &Stripe<R>,
        inner: &mut StripeInner,
        link: &AtomicPtr<Item>,
        found: *mut Item,
    ) {
        // SAFETY: `found` is live under the stripe lock.
        // chk: lock-serialized load, as in `find_link`.
        let next = unsafe { &*found }.next.load(Ordering::Relaxed);
        {
            let _section = WriteSection::enter(&stripe.seq);
            link.store(next, Ordering::Release);
        }
        self.retire(stripe, inner, found);
    }

    /// `set` and `cas` in one place. Under the stripe lock: assign the
    /// next version, and unless `expected` names a version the key does
    /// not hold (an absent key holds none), store `value` as one new
    /// item. With `keep`, also returns a handle on the stored value.
    /// `Err` carries the key's current version, 0 when absent.
    fn put(
        &self,
        key: &[u8],
        value: &[u8],
        expected: Option<u64>,
        keep: bool,
    ) -> Result<(u64, Option<Bytes>), u64> {
        let (stripe, bucket) = self.locate(key);
        let stripe = &self.stripes[stripe];
        let result = {
            let mut inner = stripe.inner.lock();
            inner
                .recycler
                .prefetch(block_size(HEADER + key.len() + value.len()), &self.depot);
            // Assigned *under* the stripe lock, and before the CAS
            // check: a key's versions must be monotone in replacement
            // order (two racing writers must not leave the chain holding
            // the smaller version), or the replication log's per-key
            // version gate would drop the surviving value on replay.
            let version = self.next_version.fetch_add(1, Ordering::Relaxed);
            let (link, found) = Self::find_link(&stripe.heads[bucket], key);
            // SAFETY: `found` is null or live under the stripe lock.
            let current = unsafe { found.as_ref() }.map(|item| item.version);
            match expected {
                Some(expected) if current != Some(expected) => Err(current.unwrap_or(0)),
                _ => {
                    let item =
                        self.link_item(stripe, &mut inner, (link, found), key, value, version);
                    // SAFETY: the new item is live until the lock goes.
                    Ok((version, keep.then(|| unsafe { &*item }.value_handle())))
                }
            }
        };
        if result.is_ok() {
            self.stats.sets.fetch_add(1, Ordering::Relaxed);
            self.after_write();
        } else {
            self.stats.cas_failures.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Stores a value (insert or replace) as one new item, copying it
    /// once; returns its new CAS version.
    ///
    /// # Panics
    ///
    /// Panics if the key is longer than 16 MiB or the value longer than
    /// `u32::MAX` bytes.
    pub fn set(&self, key: &[u8], value: impl AsRef<[u8]>) -> u64 {
        match self.put(key, value.as_ref(), None, false) {
            Ok((version, _)) => version,
            Err(_) => unreachable!("an unconditional put stores"),
        }
    }

    /// [`KvStore::set`], also returning a handle on the stored value:
    /// the bytes a replication or migration log keeps without a copy.
    pub fn set_shared(&self, key: &[u8], value: impl AsRef<[u8]>) -> (u64, Bytes) {
        match self.put(key, value.as_ref(), None, true) {
            Ok((version, Some(kept))) => (version, kept),
            _ => unreachable!("an unconditional kept put stores and keeps"),
        }
    }

    /// Compare-and-set: stores only if the current version matches.
    /// Panics as [`KvStore::set`] does.
    pub fn cas(&self, key: &[u8], value: impl AsRef<[u8]>, expected: u64) -> Result<u64, u64> {
        self.put(key, value.as_ref(), Some(expected), false)
            .map(|(version, _)| version)
    }

    /// [`KvStore::cas`], also returning a handle on the stored value on
    /// success, as [`KvStore::set_shared`] does.
    pub fn cas_shared(
        &self,
        key: &[u8],
        value: impl AsRef<[u8]>,
        expected: u64,
    ) -> Result<(u64, Bytes), u64> {
        self.put(key, value.as_ref(), Some(expected), true)
            .map(|(version, kept)| (version, kept.expect("a kept put keeps")))
    }

    /// Unlinks `key`'s item if present (under the stripe lock),
    /// retiring it. With `versioned`, the removal is assigned a fresh
    /// version inside the same critical section — so a tombstone orders
    /// after every earlier replacement of the key, exactly as `set`'s
    /// versions do. `Some(version)` (0 when unversioned) if an item was
    /// removed.
    fn unlink(
        &self,
        stripe: &Stripe<R>,
        bucket: usize,
        key: &[u8],
        versioned: bool,
    ) -> Option<u64> {
        let mut inner = stripe.inner.lock();
        let (link, found) = Self::find_link(&stripe.heads[bucket], key);
        if found.is_null() {
            return None;
        }
        let version = if versioned {
            self.next_version.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        self.unlink_item(stripe, &mut inner, link, found);
        Some(version)
    }

    /// Deletes a key, assigning the removal a fresh version — the
    /// tombstone version a replicated delete streams to backups so the
    /// remove orders against concurrent stores. `Some(version)` if the
    /// key existed (a delete of an absent key consumes no version).
    pub fn delete_versioned(&self, key: &[u8]) -> Option<u64> {
        let (stripe, bucket) = self.locate(key);
        let version = self.unlink(&self.stripes[stripe], bucket, key, true)?;
        self.stats.deletes.fetch_add(1, Ordering::Relaxed);
        self.after_write();
        Some(version)
    }

    /// Deletes a key; true if it existed.
    pub fn delete(&self, key: &[u8]) -> bool {
        let (stripe, bucket) = self.locate(key);
        let removed = self
            .unlink(&self.stripes[stripe], bucket, key, false)
            .is_some();
        if removed {
            self.stats.deletes.fetch_add(1, Ordering::Relaxed);
            self.after_write();
        }
        removed
    }

    /// Applies one replicated operation idempotently: a put
    /// (`value: Some`) or a delete tombstone (`value: None`) tagged with
    /// the version the *primary* assigned. The write lands only if the
    /// key's current version is older than `version`; duplicate or
    /// out-of-date deliveries are dropped (and counted as
    /// `repl_stale_drops`), so a replica can replay a log over a live
    /// stream without corruption. Returns true if the store changed.
    ///
    /// The per-key gate alone cannot block a *resurrection* (an old put
    /// arriving after the key's tombstone was applied — the tombstone
    /// leaves nothing behind to compare against), so the replication
    /// layer must also gate on its stream high-water mark; this method
    /// is the second, per-key line of defense.
    ///
    /// The version counter is bumped past `version`, so a replica
    /// promoted to primary keeps assigning monotone versions.
    pub fn apply_replicated(&self, key: &[u8], version: u64, value: Option<&[u8]>) -> bool {
        self.next_version.fetch_max(version + 1, Ordering::Relaxed);
        let (stripe, bucket) = self.locate(key);
        let stripe = &self.stripes[stripe];
        let applied = {
            let mut inner = stripe.inner.lock();
            if let Some(value) = value {
                inner
                    .recycler
                    .prefetch(block_size(HEADER + key.len() + value.len()), &self.depot);
            }
            let (link, found) = Self::find_link(&stripe.heads[bucket], key);
            // SAFETY: `found` (when non-null) is live under the stripe
            // lock.
            match (unsafe { found.as_ref() }, value) {
                (Some(item), _) if item.version >= version => false,
                (_, Some(value)) => {
                    self.link_item(stripe, &mut inner, (link, found), key, value, version);
                    true
                }
                (Some(_), None) => {
                    self.unlink_item(stripe, &mut inner, link, found);
                    true
                }
                // Delete of an absent key: already gone, nothing to do.
                (None, None) => false,
            }
        };
        if applied {
            self.stats.repl_applied.fetch_add(1, Ordering::Relaxed);
            self.after_write();
        } else {
            self.stats.repl_stale_drops.fetch_add(1, Ordering::Relaxed);
        }
        applied
    }

    /// Visits every item of one bucket chain; the caller holds the
    /// chain's stripe lock.
    fn walk_chain(head: &AtomicPtr<Item>, mut f: impl FnMut(&Item)) {
        let mut p = head.load(Ordering::Acquire);
        while !p.is_null() {
            // SAFETY: live item, stripe lock held.
            let item = unsafe { &*p };
            f(item);
            p = item.next.load(Ordering::Acquire);
        }
    }

    /// Visits every stored item as `(key, version, value)`, borrowed in
    /// place, one stripe lock at a time, in unspecified order.
    pub fn for_each(&self, mut f: impl FnMut(&[u8], u64, &[u8])) {
        for stripe in self.stripes.iter() {
            let _guard = stripe.inner.lock();
            for head in stripe.heads.iter() {
                Self::walk_chain(head, |item| f(item.key(), item.version, item.value()));
            }
        }
    }

    /// One item as a `(key, version, value)` triple of handles. The
    /// caller holds the item's stripe lock.
    fn triple(item: &Item) -> (Bytes, u64, Bytes) {
        (item.handle(item.key()), item.version, item.value_handle())
    }

    /// The full contents as `(key, version, value)` triples sorted by
    /// key — the comparison form replication tests and the `repl-perf`
    /// convergence check use (never a serving path, so it can afford
    /// the sort). Keys and values are handles into the items, not
    /// copies: dumping a store allocates the returned `Vec` and nothing
    /// else.
    pub fn dump(&self) -> Vec<(Bytes, u64, Bytes)> {
        let mut out = Vec::new();
        for stripe in self.stripes.iter() {
            let _guard = stripe.inner.lock();
            for head in stripe.heads.iter() {
                Self::walk_chain(head, |item| out.push(Self::triple(item)));
            }
        }
        // Keys are unique, so the unstable sort (which needs no scratch
        // buffer) gives the one order a stable one would.
        out.sort_unstable_by(|a, b| a.0.as_ref().cmp(b.0.as_ref()));
        out
    }

    /// A chunked cursor over the contents **in table order**: the next
    /// page of `(key, version, value)` triples after the position of
    /// the key `after` (`None` starts from the beginning). Re-passing
    /// the last returned key walks the whole store — an empty page
    /// means the cursor is exhausted — at a cost proportional to the
    /// page, not the store, which is what lets a migration bulk-copy
    /// stream a large shard in bounded memory and time.
    ///
    /// The cursor key is located, not compared: its hash names a
    /// `(stripe, bucket)` and the page resumes at that stripe's next
    /// bucket. A page takes **one** stripe lock and returns *whole*
    /// bucket chains, stopping at the first bucket boundary at or past
    /// `max` items — so it may exceed `max` by one chain — or at the
    /// end of the stripe; it moves on to the next stripe only while it
    /// is still empty.
    ///
    /// The contract: pages are not sorted; every key present for the
    /// whole walk is returned at least once, and exactly once if
    /// nothing writes meanwhile; a key inserted behind the cursor is
    /// not revisited (migration reads it from the op-log delta it
    /// replays after the copy); deleting the cursor key — or the whole
    /// page, as migration's clear and cleanup passes do — between
    /// calls changes nothing, since a key's bucket does not depend on
    /// its presence.
    pub fn dump_range(&self, after: Option<&[u8]>, max: usize) -> Vec<(Bytes, u64, Bytes)> {
        let (first, mut bucket) = after.map_or((0, 0), |key| {
            let (stripe, bucket) = self.locate(key);
            (stripe, bucket + 1)
        });
        let mut out = Vec::new();
        for stripe in &self.stripes[first..] {
            let _guard = stripe.inner.lock();
            for head in &stripe.heads[bucket..] {
                if out.len() >= max {
                    return out;
                }
                Self::walk_chain(head, |item| out.push(Self::triple(item)));
            }
            if !out.is_empty() {
                break;
            }
            bucket = 0;
        }
        out
    }

    /// Number of stored items (takes every stripe lock).
    pub fn len(&self) -> usize {
        let mut n = 0;
        self.for_each(|_, _, _| n += 1);
        n
    }

    /// True if the store holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shutdown drain: releases the store's reference on every
    /// retired item regardless of its bag's epoch, returning how many
    /// it released, and frees every block the stripes' recyclers and
    /// the depot hold; a store that keeps serving allocates afresh.
    /// `&mut self` is the quiescent point: exclusive access proves no
    /// optimistic reader (or any other caller) is traversing a chain,
    /// so the unlinked items are unreachable but through handles, which
    /// hold references of their own. Live
    /// traffic never needs this — [`KvStore::reclaim_pass`] and the
    /// write path's amortized collection reclaim concurrently — but
    /// drop and the explicit store-teardown paths still come through
    /// here.
    pub fn purge_retired(&mut self) -> usize {
        let mut released = 0;
        for stripe in self.stripes.iter_mut() {
            // The retirement invariant, checked before anything is
            // released: a retired item must no longer be reachable from
            // any live chain of its stripe, or the release below would
            // leave a dangling link for the next reader.
            #[cfg(debug_assertions)]
            {
                let mut live = Vec::new();
                for head in stripe.heads.iter() {
                    // chk: `&mut self` — exclusive, unordered loads.
                    let mut p = head.load(Ordering::Relaxed);
                    while !p.is_null() {
                        live.push(p);
                        // chk: unordered, as above — exclusive access.
                        // SAFETY: live item under exclusive access.
                        p = unsafe { &*p }.next.load(Ordering::Relaxed);
                    }
                }
                for p in stripe.inner.get_mut().bags.iter() {
                    assert!(
                        !live.contains(p),
                        "retired item still reachable from a live chain"
                    );
                }
            }
            let inner = stripe.inner.get_mut();
            let n = inner.bags.drain_all(|p| {
                // SAFETY: retired items were unlinked from every chain
                // and pushed exactly once, each with the store's
                // reference; with `&mut self` no chain reaches them.
                unsafe { Item::release(p) };
            });
            inner.recycler.lists.free_all();
            stripe.backlog.fetch_sub(n as u64, Ordering::Relaxed);
            self.stats
                .nodes_reclaimed
                .fetch_add(n as u64, Ordering::Relaxed);
            released += n;
        }
        self.depot.free_all();
        released
    }

    /// Retired items awaiting reclamation, summed over the stripes.
    /// Lock-free: each stripe keeps a relaxed gauge, so monitoring can
    /// scrape the backlog live — no `&mut`, no queueing behind writers
    /// on any stripe lock.
    pub fn reclaim_backlog(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.backlog.load(Ordering::Relaxed))
            .sum()
    }

    /// One online reclamation pass: attempt a global-epoch advance,
    /// then sweep every stripe's bags for generations past the grace
    /// period. Safe — and designed — to run concurrently with readers
    /// and writers; the serve loops call it periodically so a node
    /// reclaims while traffic is flowing. Returns the items released.
    pub fn reclaim_pass(&self) -> usize {
        if self.epoch.try_advance() {
            self.stats.epochs_advanced.fetch_add(1, Ordering::Relaxed);
        }
        let mut released = 0;
        for stripe in self.stripes.iter() {
            let mut inner = stripe.inner.lock();
            released += self.collect_locked(stripe, &mut inner);
        }
        released
    }

    /// The write path's periodic global-lock maintenance, run by every
    /// [`MAINTENANCE_PERIOD`]th successful write: under the global lock,
    /// take the next stripe's lock in round-robin order, try one
    /// global-epoch advance and collect that stripe's expired bag
    /// generations. It visits no chain item, so what a pass costs does
    /// not grow with the number of items stored — a short global-lock
    /// section, as Memcached holds its global locks.
    fn after_write(&self) {
        let n = self.write_counter.fetch_add(1, Ordering::Relaxed) + 1;
        if n % MAINTENANCE_PERIOD != 0 {
            return;
        }
        let _global = self.global.lock();
        self.stats.maintenance_runs.fetch_add(1, Ordering::Relaxed);
        let stripe = (n / MAINTENANCE_PERIOD) as usize % self.stripes.len();
        let stripe = &self.stripes[stripe];
        let mut inner = stripe.inner.lock();
        // Amortized reclamation: the periodic pass nudges the epoch
        // forward and collects this stripe's expired generations, so a
        // write-heavy store reclaims without anyone ever calling
        // `reclaim_pass` or `purge_retired`.
        if self.epoch.try_advance() {
            self.stats.epochs_advanced.fetch_add(1, Ordering::Relaxed);
        }
        self.collect_locked(stripe, &mut inner);
    }
}

impl<R: RawLock + Default> Drop for KvStore<R> {
    fn drop(&mut self) {
        self.purge_retired();
        for stripe in self.stripes.iter_mut() {
            for head in stripe.heads.iter() {
                // chk: `&mut self` — drop is single-threaded by
                // definition, so both loads here are unordered.
                let mut p = head.load(Ordering::Relaxed);
                while !p.is_null() {
                    let item = p;
                    // chk: unordered, as above — exclusive access.
                    // SAFETY: exclusive access; the store's reference
                    // keeps `item` live until the release below.
                    p = unsafe { &*item }.next.load(Ordering::Relaxed);
                    // SAFETY: live chains and the (already purged)
                    // retirement bags are disjoint, so the store's
                    // reference on each item is released exactly once.
                    unsafe { Item::release(item) };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssync_locks::{McsLock, MutexLock, TasLock, TicketLock};

    #[test]
    fn set_get_delete() {
        let kv: KvStore<TicketLock> = KvStore::new(64, 8);
        assert!(kv.get(b"a").is_none());
        kv.set(b"a", b"1".as_slice());
        assert_eq!(kv.get(b"a").unwrap().as_ref(), b"1");
        kv.set(b"a", b"2".as_slice());
        assert_eq!(kv.get(b"a").unwrap().as_ref(), b"2");
        assert!(kv.delete(b"a"));
        assert!(!kv.delete(b"a"));
        assert!(kv.is_empty());
    }

    #[test]
    fn cas_respects_versions() {
        let kv: KvStore<TasLock> = KvStore::new(64, 8);
        let v1 = kv.set(b"k", b"x".as_slice());
        assert_eq!(kv.version(b"k"), Some(v1));
        let v2 = kv.cas(b"k", b"y".as_slice(), v1).unwrap();
        assert!(v2 > v1);
        // Stale CAS fails and reports the current version.
        assert_eq!(kv.cas(b"k", b"z".as_slice(), v1), Err(v2));
        // CAS on a missing key fails with version 0.
        assert_eq!(kv.cas(b"nope", b"z".as_slice(), 1), Err(0));
    }

    /// The cadence: exactly one pass per `MAINTENANCE_PERIOD` successful
    /// writes, whichever entry point made them, and none for a write
    /// that changed nothing. Checked after every call.
    #[test]
    fn maintenance_runs_periodically() {
        let kv: KvStore<TicketLock> = KvStore::new(64, 8);
        let mut writes = 0u64;
        let mut wrote = |changed: bool| {
            writes += u64::from(changed);
            assert_eq!(
                kv.stats_snapshot().maintenance_runs,
                writes / MAINTENANCE_PERIOD,
                "after {writes} successful writes"
            );
        };
        let present = kv.set(b"present", b"v".as_slice());
        wrote(true);
        let mut version = 0;
        let steps = MAINTENANCE_PERIOD * 5;
        for i in 0..steps {
            let value = i.to_be_bytes();
            // One successful write per step, from each entry point in
            // turn; `k` is present after steps 0, 1 and 3, absent after
            // 2 and 4.
            match i % 5 {
                0 => version = kv.set(b"k", value.as_slice()),
                1 => version = kv.cas(b"k", value.as_slice(), version).unwrap(),
                2 => assert!(kv.delete(b"k")),
                3 => {
                    version += 1;
                    assert!(kv.apply_replicated(b"k", version, Some(&value)));
                }
                _ => assert!(kv.delete_versioned(b"k").is_some()),
            }
            wrote(true);
            // Writes that change nothing do not advance the cadence.
            assert!(kv.cas(b"k", value.as_slice(), 0).is_err());
            wrote(false);
            assert!(!kv.delete(b"absent"));
            wrote(false);
            assert_eq!(kv.delete_versioned(b"absent"), None);
            wrote(false);
            assert!(!kv.apply_replicated(b"present", present, Some(&value)));
            wrote(false);
            assert!(!kv.apply_replicated(b"absent", version + 1, None));
            wrote(false);
        }
        let snap = kv.stats_snapshot();
        assert_eq!(snap.maintenance_runs, (1 + steps) / MAINTENANCE_PERIOD);
        assert_eq!(snap.cas_failures, steps);
        assert_eq!(snap.repl_stale_drops, steps * 2);
    }

    /// What a pass still does: with one thread, no pin held and no
    /// `reclaim_pass`, every pass wins its epoch advance, and a
    /// replace-heavy stream is reclaimed by the passes alone. A retired
    /// node is freed at the latest by its stripe's round-robin collect
    /// once two advances have passed, so the backlog never holds more
    /// than the last `stripes + 3` periods' retirements however long
    /// the stream runs.
    #[test]
    fn maintenance_passes_advance_the_epoch_and_reclaim() {
        const STRIPES: usize = 8;
        let kv: KvStore<TicketLock> = KvStore::new(64, STRIPES);
        let bound = (STRIPES as u64 + 3) * MAINTENANCE_PERIOD;
        let periods = 64;
        for i in 0..MAINTENANCE_PERIOD * periods {
            kv.set(&(i % 32).to_be_bytes(), i.to_le_bytes().as_slice());
            if (i + 1) % MAINTENANCE_PERIOD == 0 {
                assert!(kv.reclaim_backlog() <= bound, "backlog past {bound}");
            }
        }
        let snap = kv.stats_snapshot();
        assert_eq!(snap.maintenance_runs, periods);
        assert_eq!(snap.epochs_advanced, snap.maintenance_runs);
        let retired = MAINTENANCE_PERIOD * periods - 32;
        assert_eq!(snap.nodes_reclaimed + snap.reclaim_backlog, retired);
        assert!(snap.nodes_reclaimed > 0);
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let kv: KvStore<MutexLock> = KvStore::new(64, 8);
        kv.set(b"present", b"v".as_slice());
        kv.get(b"present");
        kv.get(b"absent");
        assert_eq!(kv.stats().hits.load(Ordering::Relaxed), 1);
        assert_eq!(kv.stats().misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn stats_track_deletes_and_cas_failures() {
        let kv: KvStore<TicketLock> = KvStore::new(64, 8);
        let v = kv.set(b"k", b"x".as_slice());
        assert!(kv.delete(b"k"));
        assert!(!kv.delete(b"k")); // Absent: not counted.
        assert!(kv.cas(b"k", b"y".as_slice(), v).is_err()); // Absent key.
        let v = kv.set(b"k", b"x".as_slice());
        assert!(kv.cas(b"k", b"y".as_slice(), v + 1).is_err()); // Stale.
        assert!(kv.cas(b"k", b"y".as_slice(), v).is_ok());
        let snap = kv.stats_snapshot();
        assert_eq!(snap.deletes, 1);
        assert_eq!(snap.cas_failures, 2);
        assert_eq!(snap.sets, 3); // Two plain sets + the successful CAS.
    }

    #[test]
    fn snapshot_copies_and_merges() {
        let kv: KvStore<TicketLock> = KvStore::new(64, 8);
        kv.set(b"a", b"1".as_slice());
        kv.get(b"a");
        kv.get(b"b");
        let snap = kv.stats_snapshot();
        assert_eq!(
            snap,
            StatsSnapshot {
                hits: 1,
                misses: 1,
                sets: 1,
                ..StatsSnapshot::default()
            }
        );
        let doubled = snap.merge(&snap);
        assert_eq!(doubled.hits, 2);
        assert_eq!(doubled.sets, 2);
    }

    #[test]
    fn get_with_version_matches_get_and_version() {
        let kv: KvStore<TicketLock> = KvStore::new(64, 8);
        assert!(kv.get_with_version(b"k").is_none());
        let v = kv.set(b"k", b"val".as_slice());
        let (got_v, got) = kv.get_with_version(b"k").unwrap();
        assert_eq!(got_v, v);
        assert_eq!(got.as_ref(), b"val");
        assert_eq!(kv.version(b"k"), Some(v));
        // It counts toward hit/miss stats like `get`.
        let snap = kv.stats_snapshot();
        assert_eq!((snap.hits, snap.misses), (1, 1));
    }

    #[test]
    fn concurrent_writers_disjoint_keyspaces() {
        let kv: KvStore<McsLock> = KvStore::new(128, 16);
        std::thread::scope(|s| {
            for t in 0..4 {
                let kv = &kv;
                s.spawn(move || {
                    for i in 0..200u32 {
                        let key = format!("t{t}-{i}");
                        kv.set(key.as_bytes(), key.clone().into_bytes());
                        assert_eq!(kv.get(key.as_bytes()).unwrap().as_ref(), key.as_bytes());
                        std::thread::yield_now();
                    }
                });
            }
        });
        assert_eq!(kv.len(), 800);
    }

    #[test]
    #[should_panic]
    fn more_stripes_than_buckets_rejected() {
        let _ = KvStore::<TicketLock>::new(4, 8);
    }

    #[test]
    fn delete_versioned_assigns_tombstone_versions() {
        let kv: KvStore<TicketLock> = KvStore::new(64, 8);
        let v = kv.set(b"k", b"x".as_slice());
        let t = kv.delete_versioned(b"k").expect("key existed");
        assert!(t > v, "tombstone {t} must order after the store {v}");
        assert_eq!(kv.delete_versioned(b"k"), None);
        assert_eq!(kv.stats_snapshot().deletes, 1);
        // A later set still gets a version past the tombstone.
        assert!(kv.set(b"k", b"y".as_slice()) > t);
    }

    #[test]
    fn apply_replicated_is_version_gated_and_idempotent() {
        let kv: KvStore<TicketLock> = KvStore::new(64, 8);
        // Fresh put applies.
        assert!(kv.apply_replicated(b"k", 5, Some(b"five")));
        assert_eq!(kv.get_with_version(b"k").unwrap().0, 5);
        // Duplicate delivery and older versions drop.
        assert!(!kv.apply_replicated(b"k", 5, Some(b"five")));
        assert!(!kv.apply_replicated(b"k", 3, Some(b"three")));
        assert_eq!(kv.get_with_version(b"k").unwrap().1.as_ref(), b"five");
        // Newer version replaces.
        assert!(kv.apply_replicated(b"k", 9, Some(b"nine")));
        // Tombstone with a newer version removes; older tombstone drops.
        assert!(!kv.apply_replicated(b"k", 7, None));
        assert!(kv.get(b"k").is_some());
        assert!(kv.apply_replicated(b"k", 12, None));
        assert!(kv.get(b"k").is_none());
        // Tombstone for an absent key is a no-op.
        assert!(!kv.apply_replicated(b"gone", 20, None));
        let snap = kv.stats_snapshot();
        assert_eq!(snap.repl_applied, 3);
        assert_eq!(snap.repl_stale_drops, 4);
        // Local versioning continues past the highest replicated version.
        assert!(kv.set(b"new", b"v".as_slice()) > 20);
    }

    #[test]
    fn dump_reflects_contents_sorted() {
        let kv: KvStore<TicketLock> = KvStore::new(64, 8);
        let vb = kv.set(b"b", b"2".as_slice());
        let va = kv.set(b"a", b"1".as_slice());
        let dump = kv.dump();
        assert_eq!(dump.len(), 2);
        assert_eq!(dump[0].0.as_ref(), b"a");
        assert_eq!(dump[0].1, va);
        assert_eq!(dump[1].0.as_ref(), b"b");
        assert_eq!((dump[1].1, dump[1].2.as_ref()), (vb, b"2".as_slice()));
        let mut visited = 0;
        kv.for_each(|_, _, _| visited += 1);
        assert_eq!(visited, 2);
    }

    /// Walks the whole store through `dump_range`, checking what every
    /// walk must satisfy: non-empty pages until the last, a page at
    /// most one chain over `chunk`. `between` runs after each page (the
    /// page's keys in hand) before the cursor resumes from its last key.
    fn paged_walk(
        kv: &KvStore<TicketLock>,
        chunk: usize,
        longest_chain: usize,
        mut between: impl FnMut(&[(Bytes, u64, Bytes)]),
    ) -> Vec<(Bytes, u64, Bytes)> {
        let mut paged = Vec::new();
        let mut cursor: Option<Bytes> = None;
        loop {
            let page = kv.dump_range(cursor.as_deref(), chunk);
            let Some(last) = page.last() else { break };
            assert!(
                page.len() < chunk + longest_chain,
                "a page of {} exceeds chunk {chunk} by more than a chain",
                page.len()
            );
            cursor = Some(last.0.clone());
            between(&page);
            paged.extend(page);
        }
        paged
    }

    fn sorted(mut items: Vec<(Bytes, u64, Bytes)>) -> Vec<(Bytes, u64, Bytes)> {
        items.sort_by(|a, b| a.0.cmp(&b.0));
        items
    }

    /// The longest bucket chain, counted from the hash, not the cursor.
    fn longest_chain(kv: &KvStore<TicketLock>) -> usize {
        let mut chains = std::collections::HashMap::new();
        kv.for_each(|key, _, _| *chains.entry(kv.locate(key)).or_insert(0usize) += 1);
        chains.into_values().max().unwrap_or(0)
    }

    #[test]
    fn dump_range_pages_through_whole_store() {
        let kv: KvStore<TicketLock> = KvStore::new(64, 8);
        for i in 0u64..257 {
            kv.set(&i.to_be_bytes(), i.to_le_bytes().as_slice());
        }
        let chain = longest_chain(&kv);
        // The pages' union is exactly dump() — as a set, in table order,
        // no key twice — for chunk sizes below a chain, around one, and
        // past the whole store.
        for chunk in [1usize, 7, 64, 300] {
            let paged = paged_walk(&kv, chunk, chain, |_| ());
            assert_eq!(
                paged.len(),
                257,
                "chunk size {chunk}: a key twice or missing"
            );
            assert_eq!(sorted(paged), kv.dump(), "chunk size {chunk}");
        }
        // The cursor is a position: resuming from a page's last key
        // continues after that key's whole bucket, and the key need not
        // exist any more — only its bucket matters.
        let first = kv.dump_range(None, 3);
        let cursor = first.last().unwrap().0.clone();
        let next = kv.dump_range(Some(cursor.as_ref()), 3);
        assert!(next.iter().all(|item| !first.contains(item)));
        assert!(kv.delete(cursor.as_ref()));
        assert_eq!(kv.dump_range(Some(cursor.as_ref()), 3), next);
        // A zero-sized page is empty, as it always was.
        assert!(kv.dump_range(None, 0).is_empty());
    }

    /// Migration's clear and cleanup passes delete the keys of the page
    /// they hold — cursor key included — before asking for the next
    /// one. No other key may go unseen for it.
    #[test]
    fn dump_range_survives_deleting_the_page_it_just_returned() {
        for chunk in [1usize, 7, 64, 300] {
            let kv: KvStore<TicketLock> = KvStore::new(64, 8);
            for i in 0u64..257 {
                kv.set(&i.to_be_bytes(), i.to_le_bytes().as_slice());
            }
            let before = kv.dump();
            let chain = longest_chain(&kv);
            let paged = paged_walk(&kv, chunk, chain, |page| {
                for (key, _, _) in page {
                    assert!(kv.delete(key.as_ref()));
                }
            });
            assert_eq!(sorted(paged), before, "chunk size {chunk}");
            assert!(kv.is_empty());
        }
    }

    /// The geometry `kv.get_pow2_ns` records: dense 8-byte keys under a
    /// power-of-two bucket count reach only a few hundred buckets, so
    /// chains run to dozens of items and a page is rarely under a
    /// chain. The walk must still terminate and return everything.
    #[test]
    fn dump_range_walks_long_chains_of_a_power_of_two_table() {
        let kv: KvStore<TicketLock> = KvStore::new(1 << 12, 16);
        let keys = 8 * (1u64 << 12);
        for i in 0..keys {
            kv.set(&i.to_be_bytes(), b"v".as_slice());
        }
        let chain = longest_chain(&kv);
        assert!(chain >= 32, "expected the long-chain geometry, got {chain}");
        for chunk in [1usize, 64] {
            let paged = paged_walk(&kv, chunk, chain, |_| ());
            assert_eq!(paged.len() as u64, keys, "chunk size {chunk}");
            assert_eq!(sorted(paged), kv.dump(), "chunk size {chunk}");
        }
    }

    /// With a writer churning a disjoint key range for the whole walk,
    /// every key it does not touch is still seen — at least once.
    #[test]
    fn dump_range_sees_every_untouched_key_under_concurrent_churn() {
        let kv: KvStore<TicketLock> = KvStore::new(64, 8);
        for i in 0u64..257 {
            kv.set(&i.to_be_bytes(), i.to_le_bytes().as_slice());
        }
        let untouched = kv.dump();
        // Plain std atomics: this is a threaded test, not a model.
        use std::sync::atomic::{AtomicBool, AtomicU64};
        let done = AtomicBool::new(false);
        let writes = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    let n = writes.fetch_add(1, Ordering::Release);
                    let key = (1_000 + n % 300).to_be_bytes();
                    if n % 3 == 2 {
                        kv.delete(&key);
                    } else {
                        kv.set(&key, n.to_le_bytes().as_slice());
                    }
                }
            });
            // The walks start once the writer is running.
            while writes.load(Ordering::Acquire) == 0 {
                std::thread::yield_now();
            }
            for chunk in [1usize, 7, 64, 300] {
                let paged = paged_walk(&kv, chunk, usize::MAX - chunk, |_| ());
                for item in &untouched {
                    assert!(paged.contains(item), "chunk {chunk} lost {:?}", item.0);
                }
            }
            done.store(true, Ordering::Release);
        });
    }

    #[test]
    fn replicated_stream_converges_with_primary() {
        // A primary and a replica fed only via apply_replicated end up
        // byte-identical, including after a mid-stream replay.
        let primary: KvStore<TicketLock> = KvStore::new(64, 8);
        let replica: KvStore<TicketLock> = KvStore::new(64, 8);
        let mut stream: Vec<(Vec<u8>, u64, Option<Vec<u8>>)> = Vec::new();
        for i in 0u64..40 {
            let key = format!("k{}", i % 7).into_bytes();
            if i % 5 == 4 {
                if let Some(v) = primary.delete_versioned(&key) {
                    stream.push((key, v, None));
                }
            } else {
                let value = i.to_be_bytes().to_vec();
                let v = primary.set(&key, value.clone());
                stream.push((key, v, Some(value)));
            }
        }
        for (key, v, value) in &stream {
            replica.apply_replicated(key, *v, value.as_deref());
        }
        // Replay the stream for keys still present: every entry drops
        // as stale. (Keys whose tombstone applied are skipped — with
        // nothing left to version-gate against, an old put would
        // resurrect them; blocking that is the stream-order gate's job
        // in the replication layer, not the store's.)
        for (key, v, value) in &stream {
            if replica.get(key).is_some() {
                assert!(!replica.apply_replicated(key, *v, value.as_deref()));
            }
        }
        assert_eq!(primary.dump(), replica.dump());
    }

    #[test]
    fn locked_and_optimistic_paths_agree() {
        let kv: KvStore<TicketLock> = KvStore::new(64, 8);
        for i in 0u64..64 {
            let key = format!("k{}", i % 13);
            match i % 4 {
                0 | 1 => {
                    kv.set(key.as_bytes(), i.to_be_bytes());
                }
                2 => {
                    kv.delete(key.as_bytes());
                }
                _ => {}
            }
            let (stripe, bucket) = kv.locate(key.as_bytes());
            let visit = |item: &Item| (item.version, item.value().to_vec());
            assert_eq!(
                kv.read(key.as_bytes(), visit),
                KvStore::read_locked(&kv.stripes[stripe], bucket, key.as_bytes(), visit),
                "paths disagree on {key}"
            );
        }
        // Uncontended, the optimistic path never needed the reference.
        assert_eq!(kv.stats_snapshot().read_fallbacks, 0);
    }

    /// The locked fallback engages deterministically when the stripe's
    /// version word says a writer is inside: force the word odd (the
    /// state a preempted writer leaves mid-section) and read through
    /// the public API.
    #[test]
    fn read_falls_back_when_writer_word_is_odd() {
        let kv: KvStore<TicketLock> = KvStore::new(64, 8);
        kv.set(b"k", b"v".as_slice());
        let (stripe, _) = kv.locate(b"k");
        // Simulate a writer stuck inside its section: odd word, lock
        // free (the reader must grab the lock and still answer).
        kv.stripes[stripe].seq.store(1, Ordering::Release);
        assert_eq!(kv.get(b"k").unwrap().as_ref(), b"v");
        assert_eq!(kv.stats_snapshot().read_fallbacks, 1);
        // Restore stability: even word again, reads go optimistic.
        kv.stripes[stripe].seq.store(2, Ordering::Release);
        assert_eq!(kv.get(b"k").unwrap().as_ref(), b"v");
        assert_eq!(kv.stats_snapshot().read_fallbacks, 1);
    }

    #[test]
    fn multi_get_returns_input_order_and_counts_stats() {
        let kv: KvStore<TicketLock> = KvStore::new(64, 8);
        let va = kv.set(b"a", b"1".as_slice());
        let vb = kv.set(b"b", b"2".as_slice());
        let keys: [&[u8]; 3] = [b"b", b"missing", b"a"];
        let hits = kv.multi_get(&keys);
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].as_ref().unwrap().0, vb);
        assert!(hits[1].is_none());
        assert_eq!(hits[2].as_ref().unwrap().0, va);
        let snap = kv.stats_snapshot();
        assert_eq!((snap.hits, snap.misses), (2, 1));
    }

    #[test]
    fn retired_nodes_accumulate_and_purge() {
        let mut kv: KvStore<TicketLock> = KvStore::new(64, 8);
        for i in 0u64..10 {
            kv.set(b"k", i.to_be_bytes()); // 9 replacements.
        }
        kv.delete(b"k"); // +1 unlink.
        assert_eq!(kv.reclaim_backlog(), 10);
        assert_eq!(kv.purge_retired(), 10);
        assert_eq!(kv.reclaim_backlog(), 0);
        assert_eq!(kv.purge_retired(), 0);
        // The store still works after a purge.
        kv.set(b"k", b"fresh".as_slice());
        assert_eq!(kv.get(b"k").unwrap().as_ref(), b"fresh");
    }

    /// `reclaim_pass` frees retired nodes online — through `&self`,
    /// while the store is fully shared — once enough passes have run
    /// to carry the global epoch past the retirees' grace period.
    #[test]
    fn reclaim_pass_frees_concurrently_reachable_garbage() {
        let kv: KvStore<TicketLock> = KvStore::new(64, 8);
        for i in 0u64..10 {
            kv.set(b"k", i.to_be_bytes()); // 9 replacements.
        }
        kv.delete(b"k"); // +1 unlink.
        assert_eq!(kv.reclaim_backlog(), 10);
        // Each pass advances the epoch by at most one; after the grace
        // period (two advances past the retirement tag) everything
        // retired above is reclaimable. Three passes are enough.
        let mut freed = 0;
        for _ in 0..3 {
            freed += kv.reclaim_pass();
        }
        assert_eq!(freed, 10);
        assert_eq!(kv.reclaim_backlog(), 0);
        let snap = kv.stats_snapshot();
        assert_eq!(snap.nodes_reclaimed, 10);
        assert!(snap.epochs_advanced >= 2);
        assert_eq!(snap.reclaim_backlog, 0);
        // The store still works after online reclamation.
        kv.set(b"k", b"fresh".as_slice());
        assert_eq!(kv.get(b"k").unwrap().as_ref(), b"fresh");
    }

    /// A pinned reader holds the epoch: garbage retired while a guard
    /// is live must survive any number of reclaim passes, and become
    /// free only after the guard drops and the epoch can advance again.
    #[test]
    fn pinned_reader_defers_reclamation_until_unpin() {
        let kv: KvStore<TicketLock> = KvStore::new(64, 8);
        kv.set(b"k", b"old".as_slice());
        let pin = kv.epoch.pin().expect("participant slot");
        kv.set(b"k", b"new".as_slice()); // Retires the old node.
        assert_eq!(kv.reclaim_backlog(), 1);
        for _ in 0..4 {
            // The pin blocks the advance, so the grace period can never
            // elapse while the guard is live.
            assert_eq!(kv.reclaim_pass(), 0);
        }
        assert_eq!(kv.reclaim_backlog(), 1);
        drop(pin);
        let mut freed = 0;
        for _ in 0..3 {
            freed += kv.reclaim_pass();
        }
        assert_eq!(freed, 1);
        assert_eq!(kv.reclaim_backlog(), 0);
    }

    /// A reader hammering a key whose value is continuously replaced by
    /// a writer thread must only ever observe fully-formed values (the
    /// value encodes its own content) — the single-pointer publication
    /// makes torn reads structurally impossible, and this exercises the
    /// claim under a real race.
    #[test]
    fn concurrent_reader_never_sees_torn_values() {
        let kv: KvStore<TicketLock> = KvStore::new(16, 4);
        const ROUNDS: u64 = 3_000;
        kv.set(b"hot", 0u64.to_be_bytes());
        std::thread::scope(|s| {
            let kv = &kv;
            s.spawn(move || {
                for i in 1..ROUNDS {
                    kv.set(b"hot", i.to_be_bytes());
                    if i % 7 == 0 {
                        kv.delete(b"cold"); // Unrelated churn, same store.
                        kv.set(b"cold", i.to_le_bytes());
                    }
                    if i % 64 == 0 {
                        std::thread::yield_now();
                    }
                }
            });
            let mut last = 0u64;
            for n in 0..ROUNDS {
                let (version, value) = kv.get_with_version(b"hot").expect("never deleted");
                let decoded = u64::from_be_bytes(value.as_ref().try_into().expect("8 bytes"));
                assert!(decoded < ROUNDS, "torn value {decoded}");
                // The single writer bumps the version with each value;
                // within one reader, versions never run backwards.
                assert!(version >= last, "version regressed {last} -> {version}");
                last = version;
                if n % 64 == 0 {
                    std::thread::yield_now();
                }
            }
        });
    }
}
