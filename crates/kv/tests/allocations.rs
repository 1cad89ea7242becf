//! What the store's paths cost the allocator, counted by a counting
//! global allocator in this test binary: an item is one allocation, a
//! read allocates nothing, a block the store lets go of is parked in its
//! stripe's recycler — or, past the stripe's few, in the store's depot —
//! and refills the store's next write of its class, and a block is freed
//! exactly once — by the last handle on it, or by the store's teardown.
//!
//! Counts are per thread (each test runs on its own), and the warm-up
//! below reaches every stripe's bags that a measured write retires into.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use ssync_kv::KvStore;
use ssync_locks::TicketLock;

struct Counting;

thread_local! {
    /// Allocations (`alloc`, `alloc_zeroed`, `realloc`) by this thread.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    /// The block size whose frees [`FREES`] counts.
    static WATCHED: Cell<usize> = const { Cell::new(0) };
    /// Frees of `WATCHED`-sized blocks by this thread.
    static FREES: Cell<usize> = const { Cell::new(0) };
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
        if WATCHED.try_with(Cell::get) == Ok(layout.size()) {
            bump(&FREES);
        }
        // SAFETY: forwarded as is.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The key every single-key test stores under.
const KEY: &[u8] = b"key";
/// A value length no other block in these paths has: an item of a
/// 3-byte key and it is `32 + 3 + 57 = 92` bytes, allocated as its
/// class's `16·⌈(92 + 8)/16⌉ − 8 = 104` — a size no `Vec` of pointers
/// or triples here reaches.
const VALUE_LEN: usize = 57;
const BLOCK_SIZE: usize = 104;

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

/// Frees of item blocks while `f` runs.
fn item_frees(f: impl FnOnce()) -> usize {
    WATCHED.with(|w| w.set(BLOCK_SIZE));
    let before = FREES.with(Cell::get);
    f();
    FREES.with(Cell::get) - before
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

/// `kv` past its one-off allocations: this thread's epoch registration
/// (its first read), and for each stripe — `warm_keys` names a key on
/// each — its three bag generations, each grown by one retirement and
/// emptied by a pass, and its recycler's list heads (the warm-up's
/// replaced items, of another class than [`BLOCK_SIZE`], are parked
/// there, three per stripe).
fn warm(kv: KvStore<TicketLock>, warm_keys: &[&[u8]]) -> KvStore<TicketLock> {
    // An insert, then three replaces at three successive epochs.
    for fill in 0..4 {
        for key in warm_keys {
            kv.set(key, [fill; 5]);
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
    let (mut a, mut b) = keys_by_stripe();
    let (warm_a, warm_b) = (a.pop().unwrap(), b.pop().unwrap());
    (warm(KvStore::new(BUCKETS, 2), &[&warm_a, &warm_b]), a, b)
}

/// `n` items of [`BLOCK_SIZE`] inserted, deleted, and carried through
/// the grace period: `n` blocks parked.
fn park(kv: &KvStore<TicketLock>, n: u16) {
    let keys: Vec<_> = (0..n).map(key).collect();
    park_keys(kv, &keys);
}

/// [`park`], under the keys given.
fn park_keys(kv: &KvStore<TicketLock>, keys: &[[u8; 3]]) {
    for (i, key) in keys.iter().enumerate() {
        kv.set(key, value(i as u8));
    }
    for key in keys {
        assert!(kv.delete(key));
    }
    let freed = item_frees(|| pass_grace_period(kv));
    assert_eq!(freed, 0, "the deleted items' blocks are parked, not freed");
    assert_eq!(kv.reclaim_backlog(), 0);
}

/// Inserts of [`BLOCK_SIZE`] items under `keys`, counting allocations.
fn insert_all(kv: &KvStore<TicketLock>, keys: &[[u8; 3]]) -> usize {
    allocations(|| {
        for key in keys {
            kv.set(key, value(7));
        }
    })
    .0
}

#[test]
fn an_insert_is_one_allocation() {
    let kv = warm_store();
    let (allocs, version) = allocations(|| kv.set(KEY, value(1)));
    assert_eq!(allocs, 1, "header, key and value share one block");
    assert_eq!(kv.version(KEY), Some(version));
    let (allocs, _) = allocations(|| kv.apply_replicated(b"other", 1_000, Some(&value(2))));
    assert_eq!(allocs, 1, "a replicated insert is one block too");
}

#[test]
fn a_replaced_items_block_is_parked_and_refills_the_next_write() {
    let kv = warm_store();
    kv.set(KEY, value(1));
    let first = address_of(&kv, KEY);
    let (allocs, _) = allocations(|| kv.set(KEY, value(2)));
    assert_eq!(allocs, 1, "no block of its class is parked yet");
    assert_eq!(kv.reclaim_backlog(), 1, "the replaced item is retired");
    let freed = item_frees(|| pass_grace_period(&kv));
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

#[test]
fn the_last_handle_on_a_retired_reclaimed_item_frees_it() {
    let kv = warm_store();
    kv.set(KEY, value(1));
    let handle = kv.get(KEY).unwrap();
    let key_of_dump = kv.dump().swap_remove(0).0;
    kv.set(KEY, value(2));
    let freed = item_frees(|| pass_grace_period(&kv));
    assert_eq!(freed, 0, "two handles still hold the retired item");
    assert_eq!(kv.reclaim_backlog(), 0, "though the store let it go");
    assert_eq!(handle.as_ref(), value(1));
    assert_eq!(item_frees(|| drop(key_of_dump)), 0);
    assert_eq!(item_frees(|| drop(handle)), 1, "the last handle frees it");
    // A handle outlives the store itself.
    let live = kv.get(KEY).unwrap();
    assert_eq!(item_frees(|| drop(kv)), 0);
    assert_eq!(live.as_ref(), value(2));
    assert_eq!(item_frees(|| drop(live)), 1);
}

#[test]
fn a_block_its_last_handle_freed_is_never_parked() {
    let kv = warm_store();
    kv.set(KEY, value(1));
    let handle = kv.get(KEY).unwrap();
    kv.set(KEY, value(2));
    pass_grace_period(&kv);
    assert_eq!(item_frees(|| drop(handle)), 1, "freed to malloc");
    let (allocs, _) = allocations(|| kv.set(KEY, value(3)));
    assert_eq!(allocs, 1, "so the stripe has no block to refill");
}

#[test]
fn deleting_and_reinserting_the_same_sizes_allocates_nothing() {
    const N: u16 = 100;
    let kv = warm_store();
    park(&kv, N);
    let (allocs, _) = allocations(|| {
        for i in 0..N {
            kv.set(&key(i), value(!i as u8));
        }
    });
    assert_eq!(allocs, 0, "every insert refills a parked block");
    assert_eq!(kv.len(), usize::from(N) + 1, "and the warm-up's item");
}

/// Memcached's answer to a store filled by one thread and written by
/// another: blocks return to the store, not to the malloc arena of the
/// thread that allocated them. A second thread replaces every key of a
/// store the first preloaded, one reclaim pass after each write; it
/// allocates only the two items written before the first replaced
/// block is past its grace period. A store that freed replaced blocks
/// to malloc would allocate once per write, here 1 024 times.
#[test]
fn a_store_churned_from_a_second_thread_allocates_a_bounded_few_there() {
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
    assert_eq!(allocs, 2, "two writes before the first block is parked");
    assert_eq!(kv.get(&key(KEYS - 1)).unwrap().as_ref(), value(ROUNDS));
}

#[test]
fn teardown_frees_every_parked_block_once() {
    const N: u16 = 50;
    let kv = warm_store();
    park(&kv, N);
    assert_eq!(item_frees(|| drop(kv)), usize::from(N), "drop frees them");
    let mut kv = warm_store();
    park(&kv, N);
    assert_eq!(
        item_frees(|| assert_eq!(kv.purge_retired(), 0)),
        usize::from(N)
    );
    assert_eq!(item_frees(|| drop(kv)), 0, "and never a second time");
}

/// Memcached's slab classes are store-wide, and so, past a stripe's
/// few, are the store's parked blocks: a block one stripe has no room
/// for refills the next write of its class on any stripe. A store that
/// kept every block on its own stripe would allocate here.
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
    assert_eq!(item_frees(|| pass_grace_period(&kv)), 0, "parked");
    let (allocs, _) = allocations(|| kv.set(&b[0], value(2)));
    assert_eq!(allocs, 0, "a write to stripe B refills A's spilled block");
    assert_eq!(address_of(&kv, &b[0]), spilled_at, "the same block");
    assert_eq!(kv.get(&b[0]).unwrap().as_ref(), value(2));
}

/// A stripe parks at most [`STRIPE_KEEP`] blocks of a class; the rest
/// go to the depot, where any stripe finds them. Twelve blocks parked
/// from stripe A: stripe B refills exactly the eight A could not keep,
/// and A exactly its four.
#[test]
fn a_stripe_keeps_at_most_its_few_blocks_of_a_class() {
    const PARKED: usize = 12;
    let (kv, a, b) = two_stripe_store();
    park_keys(&kv, &a[..PARKED]);
    let spilled = PARKED - STRIPE_KEEP;
    assert_eq!(insert_all(&kv, &b[..spilled]), 0, "the depot's blocks");
    assert_eq!(insert_all(&kv, &b[spilled..=spilled]), 1, "and no more");
    assert_eq!(insert_all(&kv, &a[..STRIPE_KEEP]), 0, "A's own blocks");
    assert_eq!(insert_all(&kv, &a[STRIPE_KEEP..=STRIPE_KEEP]), 1);
}

#[test]
fn teardown_frees_every_depot_block_once() {
    const PARKED: usize = 12;
    let (kv, a, _) = two_stripe_store();
    park_keys(&kv, &a[..PARKED]);
    assert_eq!(item_frees(|| drop(kv)), PARKED, "drop frees them");
    let (mut kv, a, b) = two_stripe_store();
    park_keys(&kv, &a[..PARKED]);
    assert_eq!(
        item_frees(|| assert_eq!(kv.purge_retired(), 0)),
        PARKED,
        "the purge frees the stripe's and the depot's"
    );
    assert_eq!(insert_all(&kv, &b[..1]), 1, "so none is left to refill");
    assert_eq!(
        item_frees(|| drop(kv)),
        1,
        "and drop frees that insert's item, and none a second time"
    );
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
