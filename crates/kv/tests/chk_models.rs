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

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{
    AtomicU64 as RealAtomicU64, AtomicUsize as RealAtomicUsize, Ordering as RealOrdering,
};
use std::sync::Arc;

use ssync_chk::sync::atomic::{AtomicU64, Ordering};
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
    // transitions), and the preemption bound is raised to 8: enough
    // version-word traffic and switch budget that the exploration
    // reaches schedules where all of [`ssync_kv::OPTIMISTIC_ATTEMPTS`]
    // validations fail — the epoch pin at the head of the read path
    // adds scheduling points that let the partial-order pruning fold
    // the single-writer-parked-inside-the-section route away, so one
    // write section alone no longer demonstrates the fallback, and
    // each replace's carve takes the depot's lock, whose steps fold
    // it away again below bound 8.
    let report = Builder::new().with_preemption_bound(8).check(move || {
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

/// The shared body of the decision model and its twin: a writer
/// replaces `k` and its closure publishes the new version (Release) at
/// the write's decision, before the store builds the item — as a node
/// sends a write's reply. A reader that Acquires the published version
/// must then read it from the store. Returns whether the reader saw the
/// version published.
fn a_read_after_the_decision(store: KvStore<TtasLock>) -> bool {
    let store = Arc::new(store);
    store.set(b"k", b"old");
    let answered = Arc::new(AtomicU64::new(0));
    let reader = {
        let (store, answered) = (Arc::clone(&store), Arc::clone(&answered));
        thread::spawn(move || {
            let version = answered.load(Ordering::Acquire);
            if version != 0 {
                let hit = store
                    .get_with_version(b"k")
                    .expect("the key is never deleted");
                assert_eq!(
                    (hit.0, hit.1.as_ref()),
                    (version, b"new".as_slice()),
                    "a read after the answer missed the write"
                );
            }
            version != 0
        })
    };
    let put = store.put_with(b"k", b"new", None, |put| {
        answered.store(put.expect("a set stores"), Ordering::Release);
    });
    assert!(put.is_ok());
    reader.join()
}

/// A write's decision is published inside its write section: the
/// section opens before the closure runs and spans the chain walk and
/// the build, so a reader that saw what the closure published finds the
/// stripe word odd, or the write done, and reads the new version. The
/// cross-execution counter asserts that the reader saw the answer. Bound
/// 8, as the seqlock model: at the default bound the reader sees the
/// answer in one schedule alone.
#[test]
fn a_read_after_a_writes_decision_sees_the_write() {
    let saw = Arc::new(RealAtomicU64::new(0));
    let saw2 = Arc::clone(&saw);
    let report = Builder::new().with_preemption_bound(8).check(move || {
        if a_read_after_the_decision(tiny_store()) {
            saw2.fetch_add(1, RealOrdering::Relaxed);
        }
    });
    assert!(!report.truncated, "exploration truncated: {report:?}");
    assert!(
        saw.load(RealOrdering::Relaxed) > 0,
        "no explored schedule read after the answer ({} executions)",
        report.executions
    );
    eprintln!("decision model: {} executions", report.executions);
}

/// The twin: a store that hands the outcome to the closure before it
/// opens the write section. The reader can see the answer, find the
/// word still even and validate a read of the old item — the checker
/// must find that schedule.
#[test]
fn answering_before_the_write_section_is_found() {
    let v = Builder::new()
        .with_preemption_bound(8)
        .expect_violation(|| {
            a_read_after_the_decision(KvStore::with_fault(1, 1, KvFault::AnswerBeforeSection));
        });
    assert!(v.message.contains("missed the write"), "{v}");
    eprintln!("answer-before-section found in execution {}", v.execution);
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
/// value written together. Returns whether the visit was of the first
/// item and the second replace still refilled its block.
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
    version == v1 && value_at(&store) == first_block
}

/// A block is reused only after its grace period. The reader's pin
/// holds the epoch for the whole visit, so the item it validated cannot
/// be collected — let alone parked and refilled — until the visit is
/// over. The cross-execution counter asserts that the schedules that
/// matter were explored: the reader validates the first item, and the
/// second replace still lands in that item's block — after the visit.
/// Bound 8: the carve of the first replace takes the depot's lock, and
/// under bound 6 the sleep sets fold away every schedule in which the
/// reader validates before that replace (the sleep-set caveat under
/// ROADMAP item 9).
#[test]
fn a_block_is_reused_only_after_its_grace_period() {
    let refills = Arc::new(RealAtomicU64::new(0));
    let refills2 = Arc::clone(&refills);
    let report = Builder::new().with_preemption_bound(8).check(move || {
        if visit_outlives_recycling(tiny_store()) {
            refills2.fetch_add(1, RealOrdering::Relaxed);
        }
    });
    assert!(!report.truncated, "exploration truncated: {report:?}");
    assert!(
        refills.load(RealOrdering::Relaxed) > 0,
        "no explored schedule refilled the block a visit validated ({} executions)",
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
        .with_preemption_bound(8)
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
/// the visit was of `k`'s first item and the insert still refilled its
/// block.
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
    version == v1 && store.get(b"p").expect("just stored").as_ptr() as usize == first_block
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
    let report = Builder::new().with_preemption_bound(8).check(move || {
        if visit_outlives_depot_refill(KvStore::new(2, 2)) {
            refills2.fetch_add(1, RealOrdering::Relaxed);
        }
    });
    assert!(!report.truncated, "exploration truncated: {report:?}");
    assert!(
        refills.load(RealOrdering::Relaxed) > 0,
        "no explored schedule refilled from the depot the block a visit validated ({} executions)",
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
        .with_preemption_bound(8)
        .expect_violation(|| {
            visit_outlives_depot_refill(KvStore::with_fault(2, 2, KvFault::RecycleAtRetire));
        });
    assert!(v.message.contains("another item's bytes"), "{v}");
    eprintln!(
        "recycle-at-retire via the depot found in execution {}",
        v.execution
    );
}

/// Where a value handle points: the block it holds, at the offset a
/// one-byte key puts the value at.
fn value_address(store: &KvStore<TtasLock>, key: &[u8]) -> usize {
    store.get(key).expect("the key is stored").as_ptr() as usize
}

/// The shared body of the lending model and its twins, on a one-stripe
/// store. A block of the class of `k`'s first item is parked on the
/// stripe's list before it all starts (`b`, deleted and collected).
/// Then a holder thread takes over a handle on `k`'s first item, reads
/// it after a yield and drops it, while the main thread replaces `k` by
/// a value of another class, passes until the store has let the first
/// item go — lent, while the handle is live — and writes `x`, which
/// takes the parked block. Once the holder is done, `y` and `z` are
/// written: a block the handle gave back refills `y`. The handle must
/// read its bytes for as long as it lives, and every key must read the
/// bytes written to it. Returns the key whose write refilled `k`'s
/// first block: `x` when the handle went before the store let the item
/// go, and the store parked the block itself; `y` when the store lent
/// it, and the handle gave it back.
fn lent_block_comes_back(store: KvStore<TtasLock>) -> Option<&'static [u8]> {
    let store = Arc::new(store);
    store.set(b"b", b"bbb");
    assert!(store.delete(b"b"));
    store.set(b"k", b"old");
    while store.reclaim_backlog() > 0 {
        store.reclaim_pass();
    }
    let lent = value_address(&store, b"k");
    let handle = store.get(b"k").expect("just stored");
    store.set(b"k", [0u8; 24]);
    let holder = thread::spawn(move || {
        thread::yield_now();
        assert_eq!(
            handle.as_ref(),
            b"old",
            "a lent block was refilled under its handle"
        );
    });
    while store.reclaim_backlog() > 0 {
        store.reclaim_pass();
    }
    store.set(b"x", b"xxx");
    holder.join();
    store.set(b"y", b"yyy");
    store.set(b"z", b"zzz");
    let written: [(&[u8], &[u8]); 3] = [(b"x", b"xxx"), (b"y", b"yyy"), (b"z", b"zzz")];
    for (key, value) in written {
        assert_eq!(
            store.get(key).as_deref(),
            Some(value),
            "a write lost its bytes to another"
        );
    }
    written
        .into_iter()
        .map(|(key, _)| key)
        .find(|key| value_address(&store, key) == lent)
}

/// A lent block is reused only after its last handle goes. The store
/// lets go of an item a handle still holds by lending the block: it
/// names the arena in the block's `next` before its reference goes,
/// and the handle's last release pushes the block onto the arena's
/// returned stack, which only a carve — under the depot's lock — takes.
/// So no write can refill the block while the handle lives, and no
/// stripe list is touched without its lock. The cross-execution
/// counters assert that both returns were explored: the store parking
/// the block itself, and the handle giving a lent block back.
#[test]
fn a_lent_block_is_reused_only_after_its_last_handle_goes() {
    let parked = Arc::new(RealAtomicU64::new(0));
    let given_back = Arc::new(RealAtomicU64::new(0));
    let (parked2, given_back2) = (Arc::clone(&parked), Arc::clone(&given_back));
    let report = Builder::new().check(move || {
        match lent_block_comes_back(tiny_store()) {
            Some(b"x") => parked2.fetch_add(1, RealOrdering::Relaxed),
            Some(b"y") => given_back2.fetch_add(1, RealOrdering::Relaxed),
            _ => 0,
        };
    });
    assert!(!report.truncated, "exploration truncated: {report:?}");
    assert!(
        parked.load(RealOrdering::Relaxed) > 0 && given_back.load(RealOrdering::Relaxed) > 0,
        "the store parked the block in {} schedules and the handle gave it \
         back in {} ({} executions)",
        parked.load(RealOrdering::Relaxed),
        given_back.load(RealOrdering::Relaxed),
        report.executions
    );
    eprintln!("lent-block model: {} executions", report.executions);
}

/// The twin: a store that names the arena in a lent block's `next`
/// after its reference goes. The handle's last release can come in
/// between, and the checker must find it reading a `next` with no
/// arena in it.
#[test]
fn lending_after_the_decrement_is_found() {
    let v = Builder::new().expect_violation(|| {
        lent_block_comes_back(KvStore::with_fault(1, 1, KvFault::LendAfterDecrement));
    });
    assert!(v.message.contains("without its arena"), "{v}");
    eprintln!("lend-after-decrement found in execution {}", v.execution);
}

/// The twin: a handle whose last release parks its block on the
/// stripe's list directly, without the stripe's lock. The checker must
/// find the write that pops the list's head between the handle's read
/// of it and its write: the popped block stays on the list under the
/// handle's, and a later write refills it while it is live.
#[test]
fn a_handle_parking_on_the_stripe_list_is_found() {
    let v = Builder::new().expect_violation(|| {
        lent_block_comes_back(KvStore::with_fault(1, 1, KvFault::HandleParksOnStripe));
    });
    assert!(v.message.contains("lost its bytes"), "{v}");
    eprintln!("handle-parks-on-stripe found in execution {}", v.execution);
}

/// An address inside the page whose frees [`PAGE_FREES`] counts; 0
/// watches nothing.
static WATCHED: RealAtomicUsize = RealAtomicUsize::new(0);
/// Frees of the page holding [`WATCHED`].
static PAGE_FREES: RealAtomicUsize = RealAtomicUsize::new(0);

/// Forwards to `System`, counting frees of the watched page.
struct WatchingFrees;

// SAFETY: every call is forwarded to `System` unchanged; the counters
// are plain statics, and touching them never allocates.
unsafe impl GlobalAlloc for WatchingFrees {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let watched = WATCHED.load(RealOrdering::Relaxed);
        if (ptr as usize..ptr as usize + layout.size()).contains(&watched) {
            PAGE_FREES.fetch_add(1, RealOrdering::Relaxed);
        }
        // SAFETY: forwarded as is.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: WatchingFrees = WatchingFrees;

/// A store dropped while a handle is live frees its pages exactly once.
/// A holder thread reads a handle on a replaced item after a yield and
/// drops it, while the main thread drops the store: whichever of the
/// store and the lent block goes last frees the page — never the
/// store while the handle can still read it, and never both.
#[test]
fn a_store_dropped_under_a_live_handle_frees_its_pages_once() {
    let report = Builder::new().check(|| {
        let store = tiny_store();
        store.set(b"k", b"old");
        let handle = store.get(b"k").expect("just stored");
        store.set(b"k", b"new");
        WATCHED.store(handle.as_ptr() as usize, RealOrdering::Relaxed);
        PAGE_FREES.store(0, RealOrdering::Relaxed);
        let holder = thread::spawn(move || {
            thread::yield_now();
            assert_eq!(handle.as_ref(), b"old", "a handle read a freed page");
        });
        drop(store);
        holder.join();
        let frees = PAGE_FREES.load(RealOrdering::Relaxed);
        WATCHED.store(0, RealOrdering::Relaxed);
        assert_eq!(frees, 1, "the page was freed {frees} times");
    });
    assert!(!report.truncated, "exploration truncated: {report:?}");
    eprintln!(
        "store-dropped-under-a-handle model: {} executions",
        report.executions
    );
}
