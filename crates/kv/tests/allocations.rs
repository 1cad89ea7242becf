//! What the store's paths cost the allocator, counted by a counting
//! global allocator in this test binary: a block is carved from a page
//! the store allocates, so an insert allocates once per page, not once
//! per item; a read allocates nothing; a block the store lets go of is
//! parked in its stripe's recycler — or, past the stripe's few, in the
//! store's depot — and refills the store's next write of its class; a
//! block a handle still holds comes back to the store when the last
//! handle goes; and whichever of the store and its last lent block
//! goes last hands the pages to its thread, which keeps them, each
//! once, for its next store, and frees them when it exits.
//!
//! Counts are per thread (each test runs on its own), and the warm-up
//! below reaches every stripe's bags that a measured write retires into.
//! A test that counts the frees of a thread's exit runs its body on a
//! thread of its own ([`on_own_thread`]). Under `--cfg ssync_chk` a
//! thread keeps no pages — the last owner frees them, and the kv chk
//! models count that one free — so the three tests of kept pages are
//! compiled out there.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

use bytes::Bytes;
use ssync_kv::KvStore;
use ssync_locks::TicketLock;

struct Counting;

/// The size of the pages the store carves its blocks from; nothing
/// else in these paths allocates exactly this much.
const PAGE: usize = 64 << 10;

thread_local! {
    /// Allocations (`alloc`, `alloc_zeroed`, `realloc`) by this thread.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    /// Allocations of pages by this thread.
    static PAGE_ALLOCS: Cell<usize> = const { Cell::new(0) };
    /// Frees by this thread.
    static FREES: Cell<usize> = const { Cell::new(0) };
    /// Frees of pages by this thread.
    static PAGE_FREES: Cell<usize> = const { Cell::new(0) };
    /// Where this thread counts its frees of pages once more, if
    /// anywhere: a count that outlives the thread, so that it holds the
    /// frees of the thread's exit too.
    static PAGE_FREES_TO: Cell<*const AtomicUsize> = const { Cell::new(std::ptr::null()) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<usize>>) {
    // `try_with`: an allocation during thread teardown is not counted.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded to `System` unchanged; the counters
// are const-initialized thread-locals without destructors, so touching
// them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        if layout.size() == PAGE {
            bump(&PAGE_ALLOCS);
        }
        // SAFETY: forwarded as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        // SAFETY: forwarded as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCS);
        // SAFETY: forwarded as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
        if layout.size() == PAGE {
            bump(&PAGE_FREES);
            let _ = PAGE_FREES_TO.try_with(|to| {
                // SAFETY: `on_own_thread` keeps the count alive until
                // the thread it set it on has exited.
                if let Some(count) = unsafe { to.get().as_ref() } {
                    count.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // SAFETY: forwarded as is.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The key every single-key test stores under.
const KEY: &[u8] = b"key";
/// An item of a 3-byte key and a 57-byte value is `24 + 3 + 57 = 84`
/// bytes, carved as its 8-byte class's 88; the warm-up's items are of
/// another class.
const VALUE_LEN: usize = 57;
const BLOCK_SIZE: usize = 88;
/// Blocks of [`BLOCK_SIZE`] one page holds past its link word.
const PER_PAGE: usize = (PAGE - 8) / BLOCK_SIZE;

fn value(fill: u8) -> [u8; VALUE_LEN] {
    [fill; VALUE_LEN]
}

/// The `i`th of the 3-byte keys the many-key tests use: every item of
/// them is one block of [`BLOCK_SIZE`].
fn key(i: u16) -> [u8; 3] {
    let [hi, lo] = i.to_be_bytes();
    [b'k', hi, lo]
}

/// Allocations made while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Pages allocated while `f` runs.
fn page_allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = PAGE_ALLOCS.with(Cell::get);
    let out = f();
    (PAGE_ALLOCS.with(Cell::get) - before, out)
}

/// Runs `f` on a thread of its own, which starts with no page kept;
/// the pages that thread allocated and those it freed, its exit's
/// frees among them.
#[cfg(not(ssync_chk))]
fn on_own_thread(f: impl FnOnce() + Send) -> (usize, usize) {
    let freed = AtomicUsize::new(0);
    let allocated = std::thread::scope(|s| {
        s.spawn(|| {
            PAGE_FREES_TO.with(|to| to.set(&freed));
            f();
            PAGE_ALLOCS.with(Cell::get)
        })
        // A join waits for the thread's exit, and so for its
        // thread-locals' destructors.
        .join()
        .expect("the test's thread panicked")
    });
    (allocated, freed.into_inner())
}

/// Frees while `f` runs.
fn frees(f: impl FnOnce()) -> usize {
    let before = FREES.with(Cell::get);
    f();
    FREES.with(Cell::get) - before
}

/// Pages freed while `f` runs.
fn page_frees(f: impl FnOnce()) -> usize {
    let before = PAGE_FREES.with(Cell::get);
    f();
    PAGE_FREES.with(Cell::get) - before
}

/// Enough passes to carry everything retired so far through the grace
/// period (two advances past its tag) and collect it.
fn pass_grace_period(kv: &KvStore<TicketLock>) {
    for _ in 0..3 {
        kv.reclaim_pass();
    }
}

/// Where `key`'s value lives: the same address means the same block.
fn address_of(kv: &KvStore<TicketLock>, key: &[u8]) -> usize {
    kv.get_with(key, |_, bytes| bytes.as_ptr() as usize)
        .expect("the key is stored")
}

/// A one-stripe store past its one-off allocations.
fn warm_store() -> KvStore<TicketLock> {
    warm(KvStore::new(8, 1), &[b"warm"])
}

/// `kv` past its one-off allocations: its first page, this thread's
/// epoch registration (its first read), and for each stripe —
/// `warm_keys` names a key on each — its three bag generations, each
/// grown by one retirement and emptied by a pass, and its recycler's
/// list heads (the warm-up's replaced items are parked there, three per
/// stripe, and their class is past [`BLOCK_SIZE`]'s, so the heads reach
/// it).
fn warm(kv: KvStore<TicketLock>, warm_keys: &[&[u8]]) -> KvStore<TicketLock> {
    // An insert, then three replaces at three successive epochs.
    for fill in 0..4 {
        for key in warm_keys {
            kv.set(key, [fill; 100]);
        }
        kv.reclaim_pass();
    }
    for key in warm_keys {
        assert!(kv.get(key).is_some());
    }
    pass_grace_period(&kv);
    kv
}

/// Blocks of one class a stripe keeps parked before the rest go to the
/// store's depot (the store's `STRIPE_KEEP`).
const STRIPE_KEEP: usize = 4;

/// Buckets of the two-stripe stores.
const BUCKETS: usize = 8;

/// 64 keys split by stripe in a two-stripe store of [`BUCKETS`]
/// buckets: those on the first key's stripe, then the others. A page
/// of `dump_range` from the start holds one stripe's items, the first
/// stripe that has any, so two keys share a stripe exactly when such a
/// page of a store holding just them holds both. (The keys differ in
/// their middle byte: the hash's stripe bit barely moves with the
/// last.)
fn keys_by_stripe() -> (Vec<[u8; 3]>, Vec<[u8; 3]>) {
    let same_stripe = |a: &[u8], b: &[u8]| {
        let kv: KvStore<TicketLock> = KvStore::new(BUCKETS, 2);
        kv.set(a, b"");
        kv.set(b, b"");
        kv.dump_range(None, usize::MAX).len() == 2
    };
    let first = key(0);
    let (a, b): (Vec<_>, Vec<_>) = (0..64)
        .map(|i| key(i << 8))
        .partition(|k| *k == first || same_stripe(&first, k));
    assert!(
        a.len() > 20 && b.len() > 20,
        "a lopsided split: {a:?} / {b:?}"
    );
    (a, b)
}

/// A warm two-stripe store and its keys by stripe, minus the two the
/// warm-up used.
fn two_stripe_store() -> (KvStore<TicketLock>, Vec<[u8; 3]>, Vec<[u8; 3]>) {
    let (a, b) = keys_by_stripe();
    two_stripe_store_of(a, b)
}

/// [`two_stripe_store`], with the keys by stripe given (finding them
/// builds stores, whose pages the thread keeps).
fn two_stripe_store_of(
    mut a: Vec<[u8; 3]>,
    mut b: Vec<[u8; 3]>,
) -> (KvStore<TicketLock>, Vec<[u8; 3]>, Vec<[u8; 3]>) {
    let (warm_a, warm_b) = (a.pop().unwrap(), b.pop().unwrap());
    (warm(KvStore::new(BUCKETS, 2), &[&warm_a, &warm_b]), a, b)
}

/// `n` items of [`BLOCK_SIZE`] inserted, deleted, and carried through
/// the grace period: `n` blocks parked, whose addresses it returns.
fn park(kv: &KvStore<TicketLock>, n: u16) -> HashSet<usize> {
    let keys: Vec<_> = (0..n).map(key).collect();
    park_keys(kv, &keys)
}

/// [`park`], under the keys given.
fn park_keys(kv: &KvStore<TicketLock>, keys: &[[u8; 3]]) -> HashSet<usize> {
    let blocks = insert_all(kv, keys);
    for key in keys {
        assert!(kv.delete(key));
    }
    let freed = page_frees(|| pass_grace_period(kv));
    assert_eq!(freed, 0, "the deleted items' blocks are parked");
    assert_eq!(kv.reclaim_backlog(), 0);
    blocks.into_iter().collect()
}

/// Inserts of [`BLOCK_SIZE`] items under `keys`, in order; the address
/// each landed at.
fn insert_all(kv: &KvStore<TicketLock>, keys: &[[u8; 3]]) -> Vec<usize> {
    keys.iter()
        .map(|key| {
            kv.set(key, value(7));
            address_of(kv, key)
        })
        .collect()
}

/// Memcached's slabs: item blocks are carved from pages, and only a
/// page is a malloc call. Inserts into a warm store allocate exactly
/// when the page runs out, every [`PER_PAGE`] inserts, where a store
/// that took each block from malloc would allocate on every insert. A
/// block past 4 KiB is still a malloc chunk of its own.
#[test]
fn an_insert_allocates_once_per_page_not_once_per_item() {
    let kv = warm_store();
    let allocating: Vec<usize> = (0..3 * PER_PAGE)
        .filter(|&i| {
            let (allocs, _) = allocations(|| kv.set(&key(i as u16), value(1)));
            assert!(allocs <= 1, "insert {i} allocated {allocs} times");
            allocs == 1
        })
        .collect();
    assert!(allocating.len() >= 2, "inserts allocating: {allocating:?}");
    for pair in allocating.windows(2) {
        assert_eq!(pair[1] - pair[0], PER_PAGE, "allocating: {allocating:?}");
    }
    let (allocs, _) = allocations(|| kv.apply_replicated(b"other", 1 << 20, Some(&value(2))));
    assert_eq!(allocs, 0, "a replicated insert is carved too");
    let large = [3u8; 5000];
    let (allocs, _) = allocations(|| kv.set(b"large", large));
    assert_eq!(allocs, 1, "a block past 4 KiB is its own allocation");
    assert_eq!(kv.get(b"large").unwrap().as_ref(), large);
}

#[test]
fn a_replaced_items_block_is_parked_and_refills_the_next_write() {
    let kv = warm_store();
    kv.set(KEY, value(1));
    let first = address_of(&kv, KEY);
    kv.set(KEY, value(2));
    assert_ne!(address_of(&kv, KEY), first, "no block of its class parked");
    assert_eq!(kv.reclaim_backlog(), 1, "the replaced item is retired");
    let freed = page_frees(|| pass_grace_period(&kv));
    assert_eq!(freed, 0, "past the grace period its block is parked");
    assert_eq!(kv.reclaim_backlog(), 0);
    let (allocs, _) = allocations(|| kv.set(KEY, value(3)));
    assert_eq!(allocs, 0, "a replace refills the parked block");
    assert_eq!(address_of(&kv, KEY), first, "the first item's block");
    assert_eq!(kv.get(KEY).unwrap().as_ref(), value(3));
}

#[test]
fn reads_allocate_nothing() {
    let kv = warm_store();
    let version = kv.set(KEY, value(7));
    let (allocs, hit) = allocations(|| kv.get_with_version(KEY));
    assert_eq!(allocs, 0, "a hit's value is a handle into the item");
    assert_eq!(
        hit.map(|(v, bytes)| (v, bytes.to_vec())),
        Some((version, value(7).to_vec()))
    );
    let (allocs, len) = allocations(|| kv.get_with(KEY, |_, bytes| bytes.len()));
    assert_eq!((allocs, len), (0, Some(VALUE_LEN)));
    let (allocs, miss) = allocations(|| kv.get_with_version(b"absent"));
    assert_eq!((allocs, miss), (0, None));
}

/// A page cannot go back to malloc one block at a time, so a handle's
/// last release gives its block back to the store instead of freeing
/// it: the block the store lent refills the store's next write of its
/// class, at the same address. (Were the last handle to free the block
/// to malloc, that write would need a new one.)
#[test]
fn a_block_its_last_handle_gave_back_refills_the_next_write() {
    let kv = warm_store();
    kv.set(KEY, value(1));
    let lent = address_of(&kv, KEY);
    let handle = kv.get(KEY).unwrap();
    let key_of_dump = kv.dump().swap_remove(0).0;
    kv.set(KEY, value(2));
    let freed = page_frees(|| pass_grace_period(&kv));
    assert_eq!(freed, 0, "two handles still hold the retired item");
    assert_eq!(kv.reclaim_backlog(), 0, "though the store let it go");
    assert_eq!(handle.as_ref(), value(1));
    assert_eq!(frees(|| drop(key_of_dump)), 0);
    assert_eq!(frees(|| drop(handle)), 0, "the last handle frees nothing");
    let (pages, _) = page_allocations(|| kv.set(KEY, value(3)));
    assert_eq!(pages, 0);
    assert_eq!(
        address_of(&kv, KEY),
        lent,
        "the write refills the lent block"
    );
    assert_eq!(kv.get(KEY).unwrap().as_ref(), value(3));
}

/// A handle outlives its store: while a lent block is out, the store's
/// drop lets no page go — the thread's next store allocates its own —
/// and the handle still reads its bytes. The handle's drop hands the
/// store's pages to the thread, whose next store carves them, and the
/// thread frees every page it allocated, once, when it exits.
#[test]
#[cfg(not(ssync_chk))]
fn a_get_handle_outlives_its_store() {
    let (allocated, freed) = on_own_thread(|| {
        let (pages, (kv, handle)) = page_allocations(|| {
            let kv = warm_store();
            park(&kv, 2 * PER_PAGE as u16);
            kv.set(KEY, value(1));
            let handle = kv.get(KEY).unwrap();
            kv.set(KEY, value(2));
            (kv, handle)
        });
        assert!(pages >= 2, "the store carved {pages} pages");
        assert_eq!(page_frees(|| drop(kv)), 0, "a lent block keeps the pages");
        let (fresh, _) = page_allocations(|| KvStore::<TicketLock>::new(8, 1).set(KEY, value(3)));
        assert_eq!(fresh, 1, "and the thread does not have them");
        assert_eq!(handle.as_ref(), value(1));
        assert_eq!(
            page_frees(|| drop(handle)),
            0,
            "its last handle hands them over"
        );
        let (reused, _) = page_allocations(|| {
            let kv = warm_store();
            park(&kv, 2 * PER_PAGE as u16);
            kv
        });
        assert_eq!(reused, 0, "and the thread's next store carves them");
    });
    assert!(allocated >= 3, "the thread allocated {allocated} pages");
    assert_eq!(freed, allocated, "and frees each once, when it exits");
}

#[test]
fn deleting_and_reinserting_the_same_sizes_refills_every_parked_block() {
    const N: u16 = 100;
    let kv = warm_store();
    let parked = park(&kv, N);
    let (allocs, _) = allocations(|| {
        for i in 0..N {
            kv.set(&key(i), value(!i as u8));
        }
    });
    assert_eq!(allocs, 0);
    let refilled: HashSet<_> = (0..N).map(|i| address_of(&kv, &key(i))).collect();
    assert_eq!(refilled, parked, "every insert refills a parked block");
    assert_eq!(kv.len(), usize::from(N) + 1, "and the warm-up's item");
}

/// Memcached's answer to a store filled by one thread and written by
/// another: blocks return to the store, not to the malloc arena of the
/// thread that allocated them. A second thread replaces every key of a
/// store the first preloaded, one reclaim pass after each write. It
/// never allocates: the two items written before the first replaced
/// block is past its grace period are carved from the store's page, and
/// every later write refills a parked block. (A store that took its
/// blocks from malloc would allocate those two there; one that freed
/// replaced blocks to malloc, once per write, here 1 024 times.)
#[test]
fn a_store_churned_from_a_second_thread_allocates_nothing_there() {
    const KEYS: u16 = 256;
    const ROUNDS: u8 = 4;
    let kv = warm_store();
    for i in 0..KEYS {
        kv.set(&key(i), value(0));
    }
    let allocs = std::thread::scope(|s| {
        s.spawn(|| {
            let (allocs, ()) = allocations(|| {
                for round in 1..=ROUNDS {
                    for i in 0..KEYS {
                        kv.set(&key(i), value(round));
                        kv.reclaim_pass();
                    }
                }
            });
            allocs
        })
        .join()
        .expect("the churn thread panicked")
    });
    eprintln!(
        "cross-thread churn: {allocs} allocations for {} writes",
        u32::from(KEYS) * u32::from(ROUNDS)
    );
    assert_eq!(allocs, 0, "every block comes from the store");
    assert_eq!(kv.get(&key(KEYS - 1)).unwrap().as_ref(), value(ROUNDS));
}

/// The purge parks what it releases, and frees nothing: the parked
/// blocks refill the store's next writes. The store's drop hands its
/// pages to its thread, each exactly once: the thread's next store of
/// the same shape carves all of them and allocates none, and a page
/// past them is a new one. The thread frees them when it exits.
#[test]
#[cfg(not(ssync_chk))]
fn teardown_hands_every_page_to_the_thread_once() {
    const N: u16 = 2 * PER_PAGE as u16;
    let (allocated, freed) = on_own_thread(|| {
        let (pages, kv) = page_allocations(|| {
            let kv = warm_store();
            park(&kv, N);
            kv
        });
        assert!(pages >= 2, "the store carved {pages} pages");
        assert_eq!(page_frees(|| drop(kv)), 0, "drop keeps them");
        let (again, (mut kv, deleted)) = page_allocations(|| {
            let kv = warm_store();
            let blocks = insert_all(&kv, &(0..N).map(key).collect::<Vec<_>>());
            for i in 0..N {
                assert!(kv.delete(&key(i)));
            }
            (kv, blocks.into_iter().collect::<HashSet<_>>())
        });
        assert_eq!(again, 0, "for the thread's next store");
        let backlog = kv.reclaim_backlog() as usize;
        assert!(backlog > 0, "nothing left for the purge");
        let freed = page_frees(|| assert_eq!(kv.purge_retired(), backlog));
        assert_eq!(freed, 0, "the purge parks the deleted items' blocks");
        let refilled = insert_all(&kv, &(N..2 * N).map(key).collect::<Vec<_>>());
        assert_eq!(
            refilled.into_iter().collect::<HashSet<_>>(),
            deleted,
            "and they refill the next writes"
        );
        // The newest page's tail holds fewer than a page's worth.
        let past = (2 * N..2 * N + PER_PAGE as u16)
            .map(key)
            .collect::<Vec<_>>();
        let (more, _) = page_allocations(|| insert_all(&kv, &past));
        assert_eq!(more, 1, "no page was kept twice");
        assert_eq!(page_frees(|| drop(kv)), 0, "drop keeps them again");
    });
    assert_eq!(freed, allocated, "and the thread frees each once, at exit");
}

/// Memcached's slab classes are store-wide, and so, past a stripe's
/// few, are the store's parked blocks: a block one stripe has no room
/// for refills the next write of its class on any stripe. A store that
/// kept every block on its own stripe would carve a new one here.
#[test]
fn a_block_one_stripe_spills_refills_a_write_to_another() {
    let (kv, a, b) = two_stripe_store();
    let (kept, spilled) = (&a[..STRIPE_KEEP], a[STRIPE_KEEP]);
    // Stripe A's list for the class filled to its keep, then one more
    // block let go of, written before the others were parked.
    kv.set(&spilled, value(1));
    let spilled_at = address_of(&kv, &spilled);
    park_keys(&kv, kept);
    assert!(kv.delete(&spilled));
    assert_eq!(page_frees(|| pass_grace_period(&kv)), 0, "parked");
    let (allocs, _) = allocations(|| kv.set(&b[0], value(2)));
    assert_eq!(allocs, 0);
    assert_eq!(address_of(&kv, &b[0]), spilled_at, "A's spilled block");
    assert_eq!(kv.get(&b[0]).unwrap().as_ref(), value(2));
}

/// A stripe parks at most [`STRIPE_KEEP`] blocks of a class; the rest
/// go to the depot, where any stripe finds them. Twelve blocks parked
/// from stripe A: stripe B refills exactly the eight A could not keep,
/// and A exactly its four; a write past those carves a new block.
#[test]
fn a_stripe_keeps_at_most_its_few_blocks_of_a_class() {
    const PARKED: usize = 12;
    let (kv, a, b) = two_stripe_store();
    let parked = park_keys(&kv, &a[..PARKED]);
    let spilled = PARKED - STRIPE_KEEP;
    let on_b: HashSet<_> = insert_all(&kv, &b[..=spilled]).into_iter().collect();
    let on_a: HashSet<_> = insert_all(&kv, &a[..=STRIPE_KEEP]).into_iter().collect();
    assert_eq!(on_b.intersection(&parked).count(), spilled, "the depot's");
    assert_eq!(on_a.intersection(&parked).count(), STRIPE_KEEP, "A's own");
    assert_eq!(on_a.union(&on_b).count(), PARKED + 2, "and two new blocks");
}

/// A class of large blocks keeps fewer: a stripe parks only as many of
/// them as fit in 1 KiB, but one at least, so a 600 B class keeps one.
/// Three such blocks parked from stripe A: stripe B refills the two A
/// could not keep, and A its one.
#[test]
fn a_stripe_keeps_one_block_of_a_600_byte_class() {
    const LARGE: usize = 600 - 24 - 3;
    let (kv, a, b) = two_stripe_store();
    let addresses = |keys: &[[u8; 3]]| -> HashSet<usize> {
        keys.iter().map(|key| address_of(&kv, key)).collect()
    };
    for key in &a[..3] {
        kv.set(key, [1; LARGE]);
    }
    let parked = addresses(&a[..3]);
    for key in &a[..3] {
        assert!(kv.delete(key));
    }
    pass_grace_period(&kv);
    for key in b[..3].iter().chain(&a[3..5]) {
        kv.set(key, [2; LARGE]);
    }
    assert_eq!(addresses(&b[..3]).intersection(&parked).count(), 2);
    assert_eq!(addresses(&a[3..5]).intersection(&parked).count(), 1);
}

#[test]
#[cfg(not(ssync_chk))]
fn teardown_hands_the_pages_of_depot_blocks_to_the_thread_once() {
    const PARKED: usize = 12;
    let (a, b) = keys_by_stripe();
    let (allocated, freed) = on_own_thread(move || {
        let (pages, (kv, a_left, _)) =
            page_allocations(|| two_stripe_store_of(a.clone(), b.clone()));
        park_keys(&kv, &a_left[..PARKED]);
        assert!(pages >= 1, "the store carved {pages} pages");
        assert_eq!(page_frees(|| drop(kv)), 0, "drop keeps them");
        let (again, (mut kv, a, b)) = page_allocations(|| two_stripe_store_of(a, b));
        assert_eq!(again, 0, "for the thread's next store");
        let parked = park_keys(&kv, &a[..PARKED]);
        let freed = page_frees(|| assert_eq!(kv.purge_retired(), 0));
        assert_eq!(freed, 0, "the purge leaves the stripe's and the depot's");
        let refilled = insert_all(&kv, &b[..1]);
        assert!(
            parked.contains(&refilled[0]),
            "so B still refills the depot's"
        );
        assert_eq!(page_frees(|| drop(kv)), 0, "drop keeps them again");
    });
    assert_eq!(freed, allocated, "and the thread frees each once, at exit");
}

#[test]
fn a_dump_allocates_only_its_vec() {
    const ITEMS: u64 = 300;
    let kv = warm_store();
    for i in 0..ITEMS {
        kv.set(&i.to_be_bytes(), value(i as u8));
    }
    // The same number of pushes into a `Vec` of same-sized elements:
    // the growth steps the dump's own `Vec` takes.
    let (vec_only, _) = allocations(|| {
        let mut v: Vec<[u64; 5]> = Vec::new();
        for i in 0..=ITEMS {
            v.push([i; 5]);
        }
        v
    });
    assert_eq!(
        std::mem::size_of::<[u64; 5]>(),
        std::mem::size_of::<(Bytes, u64, Bytes)>()
    );
    let (allocs, dump) = allocations(|| kv.dump());
    assert_eq!(dump.len() as u64, ITEMS + 1);
    assert_eq!(allocs, vec_only, "keys and values are handles, not copies");
}
