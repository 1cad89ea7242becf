//! What the store's paths cost the allocator, counted by a counting
//! global allocator in this test binary: an item is one allocation, a
//! read allocates nothing, and an item's block is freed exactly once —
//! by whichever of its references goes last.
//!
//! Counts are per thread (each test runs on its own), and every store
//! here has one stripe, so the warm-up below reaches the bags every
//! measured write retires into.

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

/// The key every measured item is stored under.
const KEY: &[u8] = b"key";
/// A value length no other block in these paths has: an item of it is
/// `32 + 3 + 57 = 92` bytes, which no `Vec` of pointers or triples is.
const VALUE_LEN: usize = 57;
const ITEM_SIZE: usize = 32 + KEY.len() + VALUE_LEN;

fn value(fill: u8) -> [u8; VALUE_LEN] {
    [fill; VALUE_LEN]
}

/// Allocations made while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Frees of item-sized blocks while `f` runs.
fn item_frees(f: impl FnOnce()) -> usize {
    WATCHED.with(|w| w.set(ITEM_SIZE));
    let before = FREES.with(Cell::get);
    f();
    FREES.with(Cell::get) - before
}

/// A one-stripe store past its one-off allocations: this thread's
/// epoch registration (its first read), and the stripe's three bag
/// generations, each grown by one retirement and emptied by a pass.
fn warm_store() -> KvStore<TicketLock> {
    let kv = KvStore::new(8, 1);
    // An insert, then three replaces at three successive epochs.
    for fill in 0..4 {
        kv.set(b"warm", [fill; 5]);
        kv.reclaim_pass();
    }
    assert!(kv.get(b"warm").is_some());
    for _ in 0..3 {
        kv.reclaim_pass();
    }
    kv
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
fn a_replace_is_one_allocation_and_its_predecessor_is_freed_once() {
    let kv = warm_store();
    kv.set(KEY, value(1));
    let (allocs, _) = allocations(|| kv.set(KEY, value(2)));
    assert_eq!(allocs, 1);
    assert_eq!(kv.reclaim_backlog(), 1, "the replaced item is retired");
    let freed = item_frees(|| {
        for _ in 0..3 {
            kv.reclaim_pass();
        }
    });
    assert_eq!(freed, 1, "past the grace period the replaced item is freed");
    let again = item_frees(|| {
        for _ in 0..3 {
            kv.reclaim_pass();
        }
    });
    assert_eq!(again, 0, "and never a second time");
    assert_eq!(kv.get(KEY).unwrap().as_ref(), value(2));
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
    let freed = item_frees(|| {
        for _ in 0..3 {
            kv.reclaim_pass();
        }
    });
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
