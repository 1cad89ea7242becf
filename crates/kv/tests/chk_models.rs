//! Model-checked interleavings of the *real* `KvStore` code paths.
//!
//! Compiled only under `RUSTFLAGS='--cfg ssync_chk'`: the crate's
//! atomics then resolve to `ssync-chk` shadow atomics, every lock spin
//! goes through a scheduler yield, and the checker enumerates thread
//! interleavings exhaustively up to the preemption bound. These tests
//! drive the actual `KvStore<TtasLock>` — seqlock write sections, the
//! optimistic read protocol with its locked fallback, and the epoch
//! retire/reclaim discipline — not a re-modelled copy of them. (The
//! grace-period protocol itself is modelled in isolation in
//! `ssync-core`'s chk suite; here it runs embedded in the store.)
//!
//! Run with:
//! `RUSTFLAGS='--cfg ssync_chk' cargo test -p ssync-kv --test chk_models`
#![cfg(ssync_chk)]

use std::sync::atomic::{AtomicU64 as RealAtomicU64, Ordering as RealOrdering};
use std::sync::Arc;

use ssync_chk::{thread, Builder};
use ssync_kv::{KvFault, KvStore};
use ssync_locks::TtasLock;

/// A store with one stripe and one bucket: every operation contends on
/// the same seqlock word, stripe lock, and chain — the worst case the
/// protocol has to survive, and the smallest model of it.
fn tiny_store() -> KvStore<TtasLock> {
    KvStore::new(1, 1)
}

/// An optimistic reader racing a writer must always observe one of the
/// two point-in-time states of the key — the old `(version, value)`
/// pair or the new one — never a torn mix, never an odd-epoch view,
/// and after the writer is joined the new value must be visible.
///
/// The same exploration also proves the locked fallback engages: in
/// the interleavings where the reader's [`ssync_kv::OPTIMISTIC_ATTEMPTS`]
/// snapshots all land inside the writer's seqlock section, the read
/// queues on the stripe lock and still returns a coherent answer. The
/// cross-execution counter asserts those interleavings were actually
/// explored.
#[test]
fn seqlock_reader_sees_old_or_new_never_torn() {
    let fallbacks = Arc::new(RealAtomicU64::new(0));
    let fallbacks2 = Arc::clone(&fallbacks);
    // The writer performs two back-to-back replacements (four seqlock
    // transitions), and the preemption bound is raised to 5: enough
    // version-word traffic and switch budget that the exploration
    // reaches schedules where all of [`ssync_kv::OPTIMISTIC_ATTEMPTS`]
    // validations fail — the epoch pin at the head of the read path
    // adds scheduling points that let the partial-order pruning fold
    // the single-writer-parked-inside-the-section route away, so one
    // write section alone no longer demonstrates the fallback.
    let report = Builder::new().with_preemption_bound(5).check(move || {
        let store = Arc::new(tiny_store());
        let v1 = store.set(b"k", b"old".as_slice());
        let writer = {
            let store = Arc::clone(&store);
            thread::spawn(move || {
                store.set(b"k", b"mid".as_slice());
                store.set(b"k", b"new".as_slice())
            })
        };
        let hit = store.get_with_version(b"k");
        let (ver, val) = hit.expect("key vanished during a pure update");
        assert!(
            (ver == v1 && val.as_ref() == b"old")
                || (ver == v1 + 1 && val.as_ref() == b"mid")
                || (ver == v1 + 2 && val.as_ref() == b"new"),
            "torn read: version {ver} paired with {val:?}"
        );
        let v2 = writer.join();
        assert_eq!(v2, v1 + 2);
        assert_eq!(
            store.get(b"k").as_deref(),
            Some(b"new".as_ref()),
            "joined writer's value not visible"
        );
        fallbacks2.fetch_add(store.stats_snapshot().read_fallbacks, RealOrdering::Relaxed);
    });
    assert!(!report.truncated, "exploration truncated: {report:?}");
    assert!(
        fallbacks.load(RealOrdering::Relaxed) > 0,
        "no explored interleaving engaged the locked fallback \
         ({} executions)",
        report.executions
    );
    eprintln!("seqlock reader model: {} executions", report.executions);
}

/// The retirement discipline, end to end: an update retires the
/// replaced node *while a reader may still be traversing it*, the
/// retired node stays in its epoch bag at least until the `&mut`
/// quiescent point (nothing in this model advances the epoch far
/// enough to free it early), and `purge_retired` then frees exactly
/// the replaced nodes. A use-after-free here would read garbage
/// (caught by the torn-read assertion) or crash the model thread
/// (caught as a violation).
#[test]
fn graveyard_retires_across_reader_and_purges_at_quiescence() {
    let report = Builder::new().check(|| {
        let store = Arc::new(tiny_store());
        store.set(b"k", b"old".as_slice());
        let reader = {
            let store = Arc::clone(&store);
            thread::spawn(move || {
                // Traverses the chain while the writer below may be
                // retiring the very node under our feet.
                let val = store.get(b"k").expect("key vanished during a pure update");
                assert!(
                    val.as_ref() == b"old" || val.as_ref() == b"new",
                    "freed or torn node read: {val:?}"
                );
            })
        };
        store.set(b"k", b"new".as_slice());
        reader.join();
        // Quiescent point: the Arc is unique again, so the retired
        // node is provably unreachable and purging frees exactly it.
        let mut store = Arc::into_inner(store).expect("reader still holds the store");
        assert_eq!(
            store.reclaim_backlog(),
            1,
            "update must retire the old node"
        );
        assert_eq!(store.purge_retired(), 1);
        assert_eq!(store.get(b"k").as_deref(), Some(b"new".as_ref()));
    });
    assert!(!report.truncated, "exploration truncated: {report:?}");
    eprintln!("graveyard model: {} executions", report.executions);
}

/// Two concurrent writers to the same key: the stripe lock serializes
/// the seqlock sections, so the surviving node carries the *later*
/// version (whichever writer that is), and exactly one node is retired
/// per replacement — the chain never leaks or double-frees.
#[test]
fn concurrent_writers_serialize_and_retire_exactly_once() {
    let report = Builder::new().check(|| {
        let store = Arc::new(tiny_store());
        store.set(b"k", b"seed".as_slice());
        let other = {
            let store = Arc::clone(&store);
            thread::spawn(move || store.set(b"k", b"a".as_slice()))
        };
        let vb = store.set(b"k", b"b".as_slice());
        let va = other.join();
        assert_ne!(va, vb, "versions must be unique");
        let mut store = Arc::into_inner(store).expect("writer still holds the store");
        let winner = store.get(b"k").expect("key vanished");
        let expect: &[u8] = if va > vb { b"a" } else { b"b" };
        assert_eq!(
            store.version(b"k"),
            Some(va.max(vb)),
            "surviving node must carry the later version"
        );
        assert_eq!(winner.as_ref(), expect);
        // Seed node + first replacement retired; second replacement's
        // predecessor too: 2 replacements → 2 retired nodes.
        assert_eq!(store.purge_retired(), 2);
    });
    assert!(!report.truncated, "exploration truncated: {report:?}");
    eprintln!("concurrent writers model: {} executions", report.executions);
}

/// Online reclamation racing a live reader: the main thread replaces a
/// node (retiring the old one) and then hammers `reclaim_pass` — the
/// concurrent-free path the epoch scheme adds — while a reader may be
/// mid-traversal over the retired node. Every interleaving must give
/// the reader a coherent answer (a freed-under-foot node would read
/// garbage or crash the model thread), and the passes must reclaim the
/// node once the reader's pin is out of the way: by the quiescent
/// point the backlog is empty without any `purge_retired(&mut)` call.
#[test]
fn reclaim_pass_races_reader_without_use_after_free() {
    let freed_online = Arc::new(RealAtomicU64::new(0));
    let freed2 = Arc::clone(&freed_online);
    let report = Builder::new().check(move || {
        let store = Arc::new(tiny_store());
        store.set(b"k", b"old".as_slice());
        let reader = {
            let store = Arc::clone(&store);
            thread::spawn(move || {
                let val = store.get(b"k").expect("key vanished during a pure update");
                assert!(
                    val.as_ref() == b"old" || val.as_ref() == b"new",
                    "freed or torn node read: {val:?}"
                );
            })
        };
        store.set(b"k", b"new".as_slice()); // Retires the old node.
                                            // Three passes carry the epoch through the grace period; while
                                            // the reader is pinned at the pre-advance epoch they must not
                                            // free anything (the advance is fenced), afterwards they must.
        let mut freed = 0;
        for _ in 0..3 {
            freed += store.reclaim_pass();
        }
        reader.join();
        while freed == 0 {
            freed = store.reclaim_pass();
        }
        assert_eq!(freed, 1, "exactly the one retired node is reclaimed");
        let store = Arc::into_inner(store).expect("reader still holds the store");
        assert_eq!(store.reclaim_backlog(), 0);
        assert_eq!(store.get(b"k").as_deref(), Some(b"new".as_ref()));
        freed2.fetch_add(1, RealOrdering::Relaxed);
        drop(store); // Drop's purge has nothing left to do.
    });
    assert!(!report.truncated, "exploration truncated: {report:?}");
    eprintln!("reclaim-vs-reader model: {} executions", report.executions);
}

/// The shared body of the handle model and its twin: a reader takes a
/// `get` handle while the main thread replaces the key; once the reader
/// is done, the main thread passes until the store has let the
/// replaced item go — past the grace period, with the handle still
/// held. The handle must still read the bytes it was taken on: the pin
/// protected the traversal, the reference count protects the handle.
fn handle_outlives_reclamation(store: KvStore<TtasLock>) {
    let store = Arc::new(store);
    store.set(b"k", b"old");
    let reader = {
        let store = Arc::clone(&store);
        thread::spawn(move || {
            store
                .get(b"k")
                .expect("key vanished: its item freed under the reader")
        })
    };
    store.set(b"k", b"new"); // Retires the old item.
    let handle = reader.join();
    while store.reclaim_backlog() > 0 {
        store.reclaim_pass();
    }
    assert!(
        handle.as_ref() == b"old" || handle.as_ref() == b"new",
        "the handle reads freed bytes: {handle:?}"
    );
}

/// A handle outlives its item's reclamation. The store's reference on
/// the replaced item goes when its bag ages out; a reader's handle
/// taken on it before then holds a reference of its own, so the block
/// survives the store's release and is freed by the handle's drop.
/// Unbounded, as its twin must be: under a preemption bound the sleep
/// sets prune the one schedule the twin fails in.
#[test]
fn a_handle_outlives_its_items_reclamation() {
    let report = Builder::new()
        .with_preemption_bound(usize::MAX)
        .check(|| handle_outlives_reclamation(tiny_store()));
    assert!(!report.truncated, "exploration truncated: {report:?}");
    eprintln!(
        "handle-outlives-reclamation model: {} executions",
        report.executions
    );
}

/// The twin: a store that drops its reference when it retires an item,
/// not when the item's bag ages out. A reader that validated the old
/// item but had not yet taken its handle is left holding an item whose
/// last reference is gone — the checker must find that interleaving.
#[test]
fn releasing_the_store_reference_at_retire_is_found() {
    let v = Builder::new()
        .with_preemption_bound(usize::MAX)
        .expect_violation(|| {
            handle_outlives_reclamation(KvStore::with_fault(1, 1, KvFault::ReleaseAtRetire));
        });
    assert!(v.message.contains("freed"), "{v}");
    eprintln!("release-at-retire found in execution {}", v.execution);
}

/// The shared body of the recycling model and its twin: a reader's
/// `get_with` visit races a writer that replaces the key twice, with
/// two reclaim passes in between — enough to carry an unpinned epoch
/// through the first replaced item's grace period, so its block is
/// parked and the second replace refills it. The yield inside the visit
/// stands for the time a real visit takes to encode its reply (the
/// checker sees no plain read, so without it the visit would run in
/// one step with the validation). The
/// visit must read the bytes of the item it validated: a version and a
/// value written together. Returns whether the second replace refilled
/// the first item's block.
fn visit_outlives_recycling(store: KvStore<TtasLock>) -> bool {
    let store = Arc::new(store);
    let v1 = store.set(b"k", b"old");
    // Through a handle: a refilled block's reference count must read as
    // the new item's, not as the dead one's last value.
    let value_at = |store: &KvStore<TtasLock>| {
        store.get(b"k").expect("the key is never deleted").as_ptr() as usize
    };
    let first_block = value_at(&store);
    let reader = {
        let store = Arc::clone(&store);
        thread::spawn(move || {
            store
                .get_with(b"k", |version, value| {
                    thread::yield_now();
                    (version, value.to_vec())
                })
                .expect("the key is never deleted")
        })
    };
    store.set(b"k", b"mid");
    store.reclaim_pass();
    store.reclaim_pass();
    store.set(b"k", b"new");
    let (version, value) = reader.join();
    let written: &[u8] = match version - v1 {
        0 => b"old",
        1 => b"mid",
        _ => b"new",
    };
    assert_eq!(
        value, written,
        "the visit of version {version} read another item's bytes"
    );
    value_at(&store) == first_block
}

/// A block is reused only after its grace period. The reader's pin
/// holds the epoch for the whole visit, so the item it validated cannot
/// be collected — let alone parked and refilled — until the visit is
/// over. The cross-execution counter asserts that the refill itself was
/// explored: in the schedules where the reader is done before the
/// passes, the second replace does land in the first item's block.
/// Bound 6, for depth at a few seconds' cost; at the default bound 3
/// the row explores 29 schedules and the twin is found in the first.
#[test]
fn a_block_is_reused_only_after_its_grace_period() {
    let refills = Arc::new(RealAtomicU64::new(0));
    let refills2 = Arc::clone(&refills);
    let report = Builder::new().with_preemption_bound(6).check(move || {
        if visit_outlives_recycling(tiny_store()) {
            refills2.fetch_add(1, RealOrdering::Relaxed);
        }
    });
    assert!(!report.truncated, "exploration truncated: {report:?}");
    assert!(
        refills.load(RealOrdering::Relaxed) > 0,
        "no explored schedule refilled a parked block ({} executions)",
        report.executions
    );
    eprintln!(
        "recycle-after-grace model: {} executions",
        report.executions
    );
}

/// The twin: a store that recycles a block when it retires the item.
/// The second replace refills the block the reader validated, and the
/// checker must find the visit that reads the new item's bytes under
/// the old item's version.
#[test]
fn recycling_at_retire_is_found() {
    let v = Builder::new()
        .with_preemption_bound(6)
        .expect_violation(|| {
            visit_outlives_recycling(KvStore::with_fault(1, 1, KvFault::RecycleAtRetire));
        });
    assert!(v.message.contains("another item's bytes"), "{v}");
    eprintln!("recycle-at-retire found in execution {}", v.execution);
}

/// The shared body of the depot model and its twin, on a two-stripe
/// store: `k` and `a`–`d` hash to stripe A, `p` and `q` to stripe B.
/// Before the reader spawns, A's list for the class of `k`'s item is
/// filled to the stripe's keep (`a`–`d` deleted and collected), and B
/// parks one block of another class, so B has lists and asks the depot
/// on a miss. Then a reader's `get_with` visit of `k`, with a yield
/// inside as in the recycling model, races the main thread: a replace
/// of `k` by a value of another class and two passes — past the grace
/// period, they spill `k`'s first block to the depot, A's list being
/// full — and then an insert of `p` on stripe B, whose list for the
/// class is empty, so it refills the spilled block from the depot. The
/// visit must read the bytes of the item it validated. Returns whether
/// the insert refilled `k`'s first block.
fn visit_outlives_depot_refill(store: KvStore<TtasLock>) -> bool {
    let store = Arc::new(store);
    let v1 = store.set(b"k", b"old");
    let first_block = store.get(b"k").expect("just stored").as_ptr() as usize;
    let keep: [&[u8]; 4] = [b"a", b"b", b"c", b"d"];
    for key in keep {
        store.set(key, b"abc");
    }
    for key in keep {
        assert!(store.delete(key));
    }
    store.set(b"q", [0u8; 24]);
    store.set(b"q", [1u8; 24]);
    while store.reclaim_backlog() > 0 {
        store.reclaim_pass();
    }
    let reader = {
        let store = Arc::clone(&store);
        thread::spawn(move || {
            store
                .get_with(b"k", |version, value| {
                    thread::yield_now();
                    (version, value.to_vec())
                })
                .expect("the key is never deleted")
        })
    };
    let replaced = [2u8; 24];
    store.set(b"k", replaced);
    store.reclaim_pass();
    store.reclaim_pass();
    store.set(b"p", b"new");
    let (version, value) = reader.join();
    let written: &[u8] = if version == v1 { b"old" } else { &replaced };
    assert_eq!(
        value, written,
        "the visit of version {version} read another item's bytes"
    );
    store.get(b"p").expect("just stored").as_ptr() as usize == first_block
}

/// A block refilled through the depot is reused only after its grace
/// period too: the pin that keeps the reader's item from being
/// collected keeps it from being spilled, so no other stripe's write
/// can refill it under the visit. The cross-execution counter asserts
/// that the depot refill itself was explored. Bound 6, as the
/// recycling row; at the default bound 3 the row explores 41 schedules
/// and the twin is found in the first.
#[test]
fn a_block_spilled_to_the_depot_is_reused_only_after_its_grace_period() {
    let refills = Arc::new(RealAtomicU64::new(0));
    let refills2 = Arc::clone(&refills);
    let report = Builder::new().with_preemption_bound(6).check(move || {
        if visit_outlives_depot_refill(KvStore::new(2, 2)) {
            refills2.fetch_add(1, RealOrdering::Relaxed);
        }
    });
    assert!(!report.truncated, "exploration truncated: {report:?}");
    assert!(
        refills.load(RealOrdering::Relaxed) > 0,
        "no explored schedule refilled a block from the depot ({} executions)",
        report.executions
    );
    eprintln!(
        "depot-refill-after-grace model: {} executions",
        report.executions
    );
}

/// The twin: a store that recycles a block when it retires the item. A
/// full stripe spills the block the reader validated to the depot, the
/// other stripe's insert refills it, and the checker must find the
/// visit that reads the new item's bytes under the old item's version.
#[test]
fn recycling_at_retire_through_the_depot_is_found() {
    let v = Builder::new()
        .with_preemption_bound(6)
        .expect_violation(|| {
            visit_outlives_depot_refill(KvStore::with_fault(2, 2, KvFault::RecycleAtRetire));
        });
    assert!(v.message.contains("another item's bytes"), "{v}");
    eprintln!(
        "recycle-at-retire via the depot found in execution {}",
        v.execution
    );
}
