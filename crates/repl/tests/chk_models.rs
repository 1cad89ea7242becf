//! Model-checked interleavings of the replication apply path.
//!
//! Compiled only under `RUSTFLAGS='--cfg ssync_chk'`. These models
//! drive the real `KvStore::apply_replicated` (the per-key version
//! gate) from concurrent appliers — the shape of a replica receiving
//! the same shard's entries through two paths at once, e.g. a log
//! replay racing a live stream — plus the service's stream
//! high-water-mark gate, modelled with a shadow atomic exactly as
//! `service.rs` keeps it per replica.
//!
//! The third test is the *absence* proof: with the hwm gate removed,
//! the checker must find the delete-resurrection interleaving that the
//! per-key gate alone cannot block (a tombstone leaves nothing behind
//! to compare against).
//!
//! Run with:
//! `RUSTFLAGS='--cfg ssync_chk' cargo test -p ssync-repl --test chk_models`
#![cfg(ssync_chk)]

use std::sync::Arc;

use ssync_chk::sync::atomic::{AtomicU64, Ordering};
use ssync_chk::{thread, Builder};
use ssync_kv::KvStore;
use ssync_locks::TtasLock;
use ssync_repl::{stream_fence, ClusterMap};

fn tiny_store() -> KvStore<TtasLock> {
    KvStore::new(1, 1)
}

/// Duplicate out-of-order delivery of two puts for one key: whatever
/// the interleaving, the per-key gate must leave the *newer* version's
/// value in the store, and the applied/dropped accounting must add up.
#[test]
fn per_key_gate_converges_under_out_of_order_duplicates() {
    let report = Builder::new().check(|| {
        let store = Arc::new(tiny_store());
        let replay = {
            let store = Arc::clone(&store);
            // The replay path delivers version 1 — possibly after the
            // live stream already applied version 2, and twice.
            thread::spawn(move || {
                store.apply_replicated(b"k", 1, Some(b"stale"));
                store.apply_replicated(b"k", 1, Some(b"stale"));
            })
        };
        store.apply_replicated(b"k", 2, Some(b"fresh"));
        replay.join();
        assert_eq!(
            store
                .get_with_version(b"k")
                .map(|(v, val)| (v, val.to_vec())),
            Some((2, b"fresh".to_vec())),
            "older or duplicate delivery overwrote the newer version"
        );
        let stats = store.stats_snapshot();
        assert_eq!(stats.repl_applied + stats.repl_stale_drops, 3);
    });
    assert!(!report.truncated, "exploration truncated: {report:?}");
    eprintln!("per-key gate model: {} executions", report.executions);
}

/// The two-gate protocol of `service.rs`: every delivery first passes
/// the stream high-water mark (monotone via `fetch_max` — apply only
/// if this entry advanced it), then the store's per-key gate. A
/// duplicate put redelivered after the key's tombstone must be dropped
/// by the hwm gate in *every* interleaving: the key stays deleted.
#[test]
fn hwm_gate_blocks_delete_resurrection() {
    let report = Builder::new().check(|| {
        let store = Arc::new(tiny_store());
        let hwm = Arc::new(AtomicU64::new(0));
        let deliver =
            |store: &KvStore<TtasLock>, hwm: &AtomicU64, version: u64, value: Option<&[u8]>| {
                if hwm.fetch_max(version, Ordering::AcqRel) >= version {
                    return; // Stale or duplicate: already streamed past it.
                }
                store.apply_replicated(b"k", version, value);
            };
        deliver(&store, &hwm, 1, Some(b"v"));
        let redelivery = {
            let (store, hwm) = (Arc::clone(&store), Arc::clone(&hwm));
            // The duplicate of version 1, racing the tombstone below.
            thread::spawn(move || deliver(&store, &hwm, 1, Some(b"v")))
        };
        deliver(&store, &hwm, 2, None);
        redelivery.join();
        assert_eq!(store.get(b"k"), None, "deleted key resurrected");
    });
    assert!(!report.truncated, "exploration truncated: {report:?}");
    eprintln!("hwm gate model: {} executions", report.executions);
}

/// Remove the hwm gate and the resurrection is real: after the
/// tombstone erased the key, the per-key gate has nothing to compare
/// the stale put against, and some interleaving re-inserts it. The
/// checker must find that interleaving — this is the false-negative
/// guard for the model above.
#[test]
fn missing_hwm_gate_resurrection_is_found() {
    let v = Builder::new().expect_violation(|| {
        let store = Arc::new(tiny_store());
        store.apply_replicated(b"k", 1, Some(b"v"));
        let redelivery = {
            let store = Arc::clone(&store);
            thread::spawn(move || {
                store.apply_replicated(b"k", 1, Some(b"v"));
            })
        };
        store.apply_replicated(b"k", 2, None);
        redelivery.join();
        assert_eq!(store.get(b"k"), None, "deleted key resurrected");
    });
    assert!(v.message.contains("resurrected"), "{v}");
    eprintln!("resurrection found in execution {}", v.execution);
}

/// The follower whose delivery pipeline the term-fence models run: node
/// 2 of a three-node group, so both the deposed leader (node 0) and its
/// successor (node 1) are peers with a stream ring into it.
const FOLLOWER: usize = 2;

/// A follower's full delivery pipeline for one frame off `peer`'s
/// stream ring, exactly as `serve_node` orders it: the stream fence
/// first — the code's own [`stream_fence`], channel identity against
/// the map's current word, since stream frames carry no term — then the
/// stream hwm gate, then the store's per-key gate. `fenced: false`
/// models the pipeline with the fence ripped out, for the violation
/// twin below.
fn deliver_frame(
    store: &KvStore<TtasLock>,
    map: &ClusterMap,
    hwm: &AtomicU64,
    fenced: bool,
    peer: usize,
    version: u64,
    value: Option<&[u8]>,
) {
    if fenced && !stream_fence(map.view(0), FOLLOWER, peer) {
        return; // The map no longer names the sender leader: fenced.
    }
    if hwm.fetch_max(version, Ordering::AcqRel) >= version {
        return; // Stale or duplicate within the stream.
    }
    store.apply_replicated(b"k", version, value);
}

/// Split-brain resurrection, the case *neither* version gate can stop:
/// a deposed primary that does not know it is deposed keeps a version
/// counter that has run **ahead** of the new term's history (burned
/// CAS slots, writes it never got to replicate). Its late frame
/// carries `put k@4` while the new leader — promoted with hwm 1 —
/// overwrote `k` with a tombstone at version 3. The hwm gate passes
/// the zombie (4 > 3) and the tombstone left the per-key gate nothing
/// to compare against, so only the stream fence stands: the frame sits
/// on the ring of a node the map's word no longer names, and every
/// interleaving must drop it.
#[test]
fn term_fence_blocks_a_stale_primary_resurrection() {
    let report = Builder::new().check(|| {
        let store = Arc::new(tiny_store());
        let map = Arc::new(ClusterMap::new(1, 3));
        let hwm = Arc::new(AtomicU64::new(0));
        // Term 1 history from node 0, acked everywhere: put k@1.
        deliver_frame(&store, &map, &hwm, true, 0, 1, Some(b"one"));
        map.publish_hwm(0, 1, 1);
        map.publish_hwm(0, FOLLOWER, 1);
        // The primary is deposed — node 1 promotes into term 2 — but
        // its last frame is still in flight with a counter that ran
        // ahead to version 4.
        assert!(map.report_death(0, 0));
        map.try_promote(0, 1).expect("ties go to the lower id");
        let zombie = {
            let (store, map, hwm) = (Arc::clone(&store), Arc::clone(&map), Arc::clone(&hwm));
            thread::spawn(move || deliver_frame(&store, &map, &hwm, true, 0, 4, Some(b"zombie")))
        };
        // The new leader's term-2 history: delete k at version 3.
        deliver_frame(&store, &map, &hwm, true, 1, 3, None);
        zombie.join();
        assert_eq!(store.get(b"k"), None, "stale primary resurrected the key");
    });
    assert!(!report.truncated, "exploration truncated: {report:?}");
    eprintln!("term fence model: {} executions", report.executions);
}

/// The same schedule with the fence ripped out must contain the
/// resurrection — the zombie frame beats both version gates in every
/// order, so the checker finds the overwritten value back in the
/// store. This is the false-negative guard proving the fence (and not
/// one of the version gates) carries the property above.
#[test]
fn unfenced_stale_primary_resurrection_is_found() {
    let v = Builder::new().expect_violation(|| {
        let store = Arc::new(tiny_store());
        let map = Arc::new(ClusterMap::new(1, 3));
        let hwm = Arc::new(AtomicU64::new(0));
        deliver_frame(&store, &map, &hwm, false, 0, 1, Some(b"one"));
        map.publish_hwm(0, 1, 1);
        map.publish_hwm(0, FOLLOWER, 1);
        assert!(map.report_death(0, 0));
        map.try_promote(0, 1).expect("ties go to the lower id");
        let zombie = {
            let (store, map, hwm) = (Arc::clone(&store), Arc::clone(&map), Arc::clone(&hwm));
            thread::spawn(move || deliver_frame(&store, &map, &hwm, false, 0, 4, Some(b"zombie")))
        };
        deliver_frame(&store, &map, &hwm, false, 1, 3, None);
        zombie.join();
        assert_eq!(store.get(b"k"), None, "stale primary resurrected the key");
    });
    assert!(v.message.contains("resurrected"), "{v}");
    eprintln!("unfenced resurrection found in execution {}", v.execution);
}

/// The repl mirror of the cluster crate's racing cutovers, through the
/// real [`ClusterMap::try_promote`]: the leader dies, and both live
/// candidates — at equal published hwm — stand at once. Exactly one
/// promotion lands, it is the lower id's (the tie rule), and it opens
/// exactly one term.
#[test]
fn racing_promotions_publish_exactly_one_term() {
    let report = Builder::new().check(|| {
        let map = Arc::new(ClusterMap::new(1, 3));
        map.publish_hwm(0, 1, 5);
        map.publish_hwm(0, 2, 5);
        let before = map.view(0).term;
        assert!(map.report_death(0, 0));
        let rival = {
            let map = Arc::clone(&map);
            thread::spawn(move || map.try_promote(0, 2))
        };
        let mine = map.try_promote(0, 1);
        let theirs = rival.join();
        assert_eq!(theirs, None, "the tie goes to the lower id");
        let term = mine.expect("the lower id wins the tie");
        assert!(term > before, "the promotion did not open a new term");
        assert_eq!(map.view(0).term, term, "the winner's term published");
        assert_eq!(map.view(0).leader, Some(1));
        assert_eq!(map.failovers(0), 1);
    });
    assert!(!report.truncated, "exploration truncated: {report:?}");
    eprintln!("promotion race model: {} executions", report.executions);
}
