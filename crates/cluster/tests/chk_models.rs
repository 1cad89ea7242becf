//! Model-checked interleavings of the resharding cutover protocol.
//!
//! Compiled only under `RUSTFLAGS='--cfg ssync_chk'`. These models
//! drive the real [`ShardMap`] — whose atomics are the checker's
//! shadow atomics under this cfg — through the freeze / round-tagged
//! quiesce / cutover handshake, with a compressed node loop around the
//! real write fence: the node's write attempt calls [`slot_fence`], the
//! very function `serve_cluster_node`'s admission hook runs, so the
//! model is of the code that serves (none of the transport).
//!
//! The first test is the tentpole property: once the coordinator has
//! accepted a source's round-tagged quiesce acknowledgement and cut
//! the map over, **no write can have landed on the old owner beyond
//! the acknowledged high-water mark** — the final delta the
//! coordinator drained at that mark is complete, so an acknowledged
//! write cannot be left behind by the migration. The proof hinges on
//! the node's write path loading the freeze mask *before* routing:
//! seeing the mask clear (Acquire) after the coordinator's unfreeze
//! (Release, sequenced after the cutover CAS) forces the route load to
//! see the new map, bouncing the write to the new owner.
//!
//! The second test rips that load order out — route first, mask second
//! — and the checker must find the lost-write interleaving: the node
//! routes under the old map, the coordinator drains, cuts, and
//! unfreezes in the window between the two loads, and the write lands
//! on a shard that no longer owns it. This is the false-negative guard
//! proving the mask-before-route discipline (and not some accident of
//! the transport) carries the property.
//!
//! The last pair is the op-log arming handshake, through
//! [`follow_log_arming`] — the step `serve_cluster_node` runs at the top
//! of every pass. A node keeps no log until a coordinator arms one, so
//! the property is that nothing falls between the two: **every write
//! the node executed is in the coordinator's copy of the store or in
//! the log it reads afterwards**. It holds because the coordinator
//! copies only after the node's acknowledgement, which the node
//! publishes only after it switched to logging; the twin copies right
//! after arming, and the checker must find the write that was
//! committed unlogged after the copy passed it.
//!
//! Run with:
//! `RUSTFLAGS='--cfg ssync_chk' cargo test -p ssync-cluster --test chk_models`
#![cfg(ssync_chk)]

use std::sync::Arc;

use ssync_chk::sync::atomic::{AtomicU64, Ordering};
use ssync_chk::{thread, Builder};
use ssync_cluster::{follow_log_arming, slot_fence, ShardMap};
use ssync_core::Fence;
use ssync_repl::OpLog;
use ssync_srv::{slot_of, Admit, ROUTE_SLOTS};

/// The first key routing to `slot` — slot 1 moves to shard 1 in a
/// 1 → 2 split, so its writes are the contended ones.
fn key_in_slot(slot: usize) -> u64 {
    (0u64..)
        .find(|&k| slot_of(k) == slot)
        .expect("slot reachable")
}

/// The mod-2 ownership table a 1 → 2 split stages.
fn owners_mod2() -> [usize; ROUTE_SLOTS] {
    let mut owners = [0usize; ROUTE_SLOTS];
    for (slot, owner) in owners.iter_mut().enumerate() {
        *owner = slot % 2;
    }
    owners
}

/// One write attempt at node 0: the server's own fence when
/// `mask_first`, else the test-local twin with the two loads swapped.
/// Returns whether the write executed (landed in the old owner's
/// store and log).
fn try_write(map: &ShardMap, key: u64, mask_first: bool) -> bool {
    if mask_first {
        return matches!(slot_fence(map, 0, key, true), Admit::Run);
    }
    // The broken order the violation twin checks.
    let (owner, _) = map.route(key);
    owner == 0 && map.frozen() & (1 << slot_of(key)) == 0
}

/// The whole handshake, node and coordinator concurrent. Asserts the
/// drained-high-water-mark property whenever a cutover completed.
fn cutover_protocol(mask_first: bool) {
    let map = Arc::new(ShardMap::new(1));
    let key = key_in_slot(1);
    let mask = 1u64 << slot_of(key);
    let node = {
        let map = Arc::clone(&map);
        thread::spawn(move || {
            // Two passes of the serve loop, essentials only: the
            // round-before-mask quiesce handshake, then one write
            // attempt against the live fences.
            let mut executed = 0u64;
            let mut acked = 0u64;
            for _ in 0..2 {
                let round = map.round();
                if round != acked && map.frozen() & mask != 0 {
                    map.publish_quiesced(0, round, executed);
                    acked = round;
                }
                if try_write(&map, key, mask_first) {
                    executed += 1;
                }
            }
            executed
        })
    };
    // The coordinator: freeze, open the round, and poll for the ack a
    // bounded number of times (schedules that never see it skip the
    // cutover and prove nothing — the checker also runs the ones that
    // do).
    map.freeze(mask);
    let round = map.begin_round();
    let mut drained = None;
    for _ in 0..4 {
        match map.quiesced_of(0) {
            Some((r, hwm)) if r == round => {
                // The final delta reads the source log through `hwm`
                // here; then one CAS publishes the new map.
                map.stage(&owners_mod2());
                map.try_cutover(map.view(), 2).expect("sole coordinator");
                map.unfreeze(mask);
                drained = Some(hwm);
                break;
            }
            _ => thread::yield_now(),
        }
    }
    let executed = node.join();
    if let Some(hwm) = drained {
        assert_eq!(
            executed, hwm,
            "a write landed on the old owner after its final delta"
        );
    }
}

/// Mask-before-route: in every interleaving where the cutover
/// completed, the acknowledged high-water mark covers everything the
/// old owner ever executed.
#[test]
fn fenced_cutover_drains_every_old_owner_write() {
    let report = Builder::new().check(|| cutover_protocol(true));
    assert!(!report.truncated, "exploration truncated: {report:?}");
    eprintln!("cutover fence model: {} executions", report.executions);
}

/// Route-before-mask must lose a write: the coordinator drains, cuts,
/// and unfreezes between the node's two loads, and the stale-routed
/// write lands on the old owner after its final delta was read.
#[test]
fn unfenced_route_before_mask_loses_a_write() {
    let v = Builder::new().expect_violation(|| cutover_protocol(false));
    assert!(v.message.contains("old owner"), "{v}");
    eprintln!("unfenced lost write found in execution {}", v.execution);
}

/// Two coordinators race the same staged cutover: the epoch CAS lets
/// exactly one through, and the loser observes the winner's view —
/// the single-winner guarantee `run_reshard_coordinator` leans on.
#[test]
fn racing_cutovers_publish_exactly_one_epoch() {
    let report = Builder::new().check(|| {
        let map = Arc::new(ShardMap::new(1));
        let view = map.view();
        let rival = {
            let map = Arc::clone(&map);
            thread::spawn(move || {
                map.stage(&owners_mod2());
                map.try_cutover(view, 2).is_ok()
            })
        };
        map.stage(&owners_mod2());
        let mine = map.try_cutover(view, 2).is_ok();
        let theirs = rival.join();
        assert!(mine ^ theirs, "exactly one cutover must win");
        assert_eq!(
            map.epoch(),
            Fence::from_wire(2),
            "the winner's epoch published"
        );
        assert_eq!(map.num_shards(), 2);
    });
    assert!(!report.truncated, "exploration truncated: {report:?}");
    eprintln!("cutover race model: {} executions", report.executions);
}

/// The arming handshake, node and coordinator concurrent. The store
/// and the log are one shadow word each (bit = write), standing in for
/// the lock-protected `KvStore` and `OpLog`; the handshake words are
/// the real map's.
fn arming_protocol(wait_for_ack: bool) {
    let map = Arc::new(ShardMap::new(1));
    let store = Arc::new(AtomicU64::new(0));
    let logged = Arc::new(AtomicU64::new(0));
    let node = {
        let (map, store, logged) = (Arc::clone(&map), Arc::clone(&store), Arc::clone(&logged));
        thread::spawn(move || {
            // Never touched: the model does not leave an armed
            // generation, the only step that drops the real log.
            let log = OpLog::new(1);
            let mut seen = 0u64;
            let mut executed = 0u64;
            // Two passes of the serve loop, essentials only: the
            // arming step, then one write that commits to the store
            // and is logged iff the node is armed.
            for write in [1u64, 2] {
                follow_log_arming(&map, 0, &log, &mut seen);
                store.fetch_or(write, Ordering::Release);
                if seen & 1 == 1 {
                    logged.fetch_or(write, Ordering::Release);
                }
                executed |= write;
            }
            executed
        })
    };
    // The coordinator: arm, poll for the ack a bounded number of times
    // (schedules that never see it copy nothing and prove nothing),
    // then copy. The twin copies without the ack.
    let generation = map.arm_logs();
    let mut copied = None;
    for _ in 0..4 {
        if !wait_for_ack || map.log_acked_of(0) == generation {
            copied = Some(store.load(Ordering::Acquire));
            break;
        }
        thread::yield_now();
    }
    // The delta reads the log to its end once the node is quiet.
    let executed = node.join();
    if let Some(copied) = copied {
        let replayed = logged.load(Ordering::Acquire);
        assert_eq!(
            executed & !(copied | replayed),
            0,
            "a write is in neither the copy nor the log"
        );
    }
}

/// Copy-after-ack: in every interleaving where the copy ran, the copy
/// plus the log is everything the node executed.
#[test]
fn armed_log_and_copy_cover_every_write() {
    let report = Builder::new().check(|| arming_protocol(true));
    assert!(!report.truncated, "exploration truncated: {report:?}");
    eprintln!("log arming model: {} executions", report.executions);
}

/// Copy-before-ack must lose a write: the node loads the even
/// generation, the coordinator arms and copies an empty store, and the
/// node's unlogged write lands behind the copy.
#[test]
fn copying_before_the_arming_ack_loses_a_write() {
    let v = Builder::new().expect_violation(|| arming_protocol(false));
    assert!(v.message.contains("neither the copy nor the log"), "{v}");
    eprintln!(
        "unacknowledged copy lost write found in execution {}",
        v.execution
    );
}
