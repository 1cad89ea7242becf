//! The live-migration coordinator: arm, copy, delta, fenced cutover.
//!
//! [`run_reshard_coordinator`] reshapes a running fleet from the
//! current map to `slot % shards_after` ownership while the nodes keep
//! serving. Every wait is one [`SpinWait`] loop polling a non-blocking
//! query: [`settled`](ssync_core::Handshake::settled) on the map's
//! arming and quiesce handshakes, or the targets' monotone stream
//! progress ([`ShardMap::migrated_of`]). Before the first attempt it
//! **arms** the nodes' op-logs ([`ShardMap::arm_logs`]) and waits until
//! every source has acked; only then does it read a key, so the logs
//! hold what was written *during* this migration and the copy plus the
//! log is every write ([`follow_log_arming`](crate::follow_log_arming)
//! says why). The protocol, per attempt:
//!
//! 1. **Drain & clear** — wait until every target has processed all
//!    migration-stream entries already sent to it (progress is the
//!    map's cumulative per-shard counter), then delete any moving-slot
//!    keys a previous faulted attempt left at the targets. Clearing
//!    makes a restart equivalent to a first run even when a crashed
//!    stream lost a delete tombstone the recopied dump cannot carry.
//! 2. **Bulk copy** — page each source with
//!    [`KvStore::dump_range`], stream moving-slot triples as
//!    `Replicate` frames. Pages come in table order and a key written
//!    behind the cursor is not revisited — the armed log has it. The
//!    target applies entries through the store's replication version
//!    gate, so recopied duplicates drop as stale. A seeded
//!    [`FaultSpec::migration_plan_for`] schedule crashes the stream at
//!    fixed cumulative entry counts; each crash restarts that source's
//!    copy from the first page.
//! 3. **Delta replay** — writes that landed during the copy are in the
//!    source's op-log; replay moving entries after a cumulative
//!    per-source version cursor, then truncate the log *behind the
//!    cursor* — the version of the last entry read, never the log's
//!    end: an append may have landed since the read. The cursor
//!    survives faulted attempts, and entries at or below it are never
//!    needed again: a restarted attempt drains, clears the targets and
//!    recopies from the live store, which holds every write the
//!    truncated entries recorded (the version gate absorbs re-sends).
//!    Each round therefore ships only the new tail, and a source's log
//!    never holds more than one round's worth of writes.
//! 4. **Fenced cutover** — freeze the moving slots, which begins a
//!    quiesce round, and wait until every source has acked it with the
//!    highest version it logged; an ack of an earlier aborted freeze
//!    names an older round, so it cannot satisfy this one. Drain
//!    the final delta (now complete: sources defer frozen-slot
//!    writes), wait for the targets to apply it, then stage the new
//!    table and publish it with one epoch-bumping CAS. Unfreeze, and
//!    the parked writes bounce to their new owners; disarm, and every
//!    node drops its log.
//! 5. **Cleanup** — delete the moved keys from the sources; their
//!    retired nodes are reclaimed by the stores' online epoch passes
//!    (or the caller's [`KvStore::purge_retired`] shutdown drain).
//!
//! The coordinator itself can die: a seeded
//! [`FaultSpec::coordinator_plan_for`] schedule aborts the first
//! `coordinator_crashes` attempts at a plan-chosen stage (after copy,
//! after delta, or after the quiesce barrier — unfreezing on the way
//! out, as a supervisor restarting a dead coordinator must). Every
//! abort path leaves the map un-cut and the data recoverable by the
//! next attempt; `tests/migration_model.rs` proves convergence against
//! a model under both fault families. A coordinator that *unwinds*
//! (a target's ring gone, a rival cutover) lifts its freeze and disarms
//! the logs on the way out, so no write stays parked and no log keeps
//! growing behind a migration that no longer exists.
//!
//! [`KvStore::dump_range`]: ssync_kv::KvStore::dump_range
//! [`KvStore::purge_retired`]: ssync_kv::KvStore::purge_retired
//! [`FaultSpec::migration_plan_for`]: ssync_repl::FaultSpec::migration_plan_for
//! [`FaultSpec::coordinator_plan_for`]: ssync_repl::FaultSpec::coordinator_plan_for

use ssync_core::SpinWait;
use ssync_kv::KvStore;
use ssync_locks::RawLock;
use ssync_mp::{Message, RingSender};
use ssync_repl::{FaultSpec, LogEntry, OpLog};
use ssync_srv::wire::encode_replicate;
use ssync_srv::{slot_of, ROUTE_SLOTS};

use crate::map::ShardMap;

/// What a resharding should do and which faults to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReshardSpec {
    /// The shard count after the cutover; every slot moves to
    /// `slot % shards_after`. Growing and shrinking both work.
    pub shards_after: usize,
    /// At least this many keys per [`ssync_kv::KvStore::dump_range`]
    /// page during the bulk copy, while the store has them (a page is
    /// whole bucket chains, so it may run one chain over).
    pub chunk: usize,
    /// Pre-freeze delta-replay rounds — each shrinks the tail the
    /// frozen final drain has to ship.
    pub delta_rounds: usize,
    /// The seed the fault schedules derive from.
    pub faults: FaultSpec,
    /// Per-source migration-stream crashes
    /// ([`ssync_repl::FaultSpec::migration_plan_for`]).
    pub source_crashes: usize,
    /// Coordinator crashes before the cutover
    /// ([`ssync_repl::FaultSpec::coordinator_plan_for`]).
    pub coordinator_crashes: usize,
}

impl ReshardSpec {
    /// A fault-free resharding to `shards_after` shards.
    pub fn clean(shards_after: usize) -> ReshardSpec {
        ReshardSpec {
            shards_after,
            chunk: 64,
            delta_rounds: 2,
            faults: FaultSpec::none(),
            source_crashes: 0,
            coordinator_crashes: 0,
        }
    }
}

/// What a completed resharding did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MigrationReport {
    /// `Replicate`/`ReplicateDelete` entries streamed to targets,
    /// including re-sends after faults.
    pub entries_migrated: u64,
    /// Source-stream crashes survived (each restarted one copy).
    pub copy_restarts: u64,
    /// Coordinator crashes survived (each restarted the attempt).
    pub coordinator_restarts: u64,
    /// Migration attempts, including the successful last one.
    pub attempts: u64,
    /// Moved keys deleted from their sources after the cutover.
    pub source_keys_retired: u64,
    /// The map epoch the cutover published.
    pub final_epoch: u64,
}

/// Hands every entry of `log` above `*cursor` to `ship`, advancing the
/// cursor to each entry's version, then truncates the log behind the
/// cursor. The truncation point is the last entry *read*: the owning
/// node appends concurrently, and an entry that lands between the read
/// and the truncation must survive to the next call.
fn drain_tail(log: &OpLog, cursor: &mut u64, mut ship: impl FnMut(&LogEntry)) {
    for entry in log.entries_after(*cursor) {
        *cursor = entry.version;
        ship(&entry);
    }
    log.truncate_through(*cursor);
}

/// What a coordinator must undo however it exits: the freeze it may
/// hold (writes to those slots park until it lifts) and the arming
/// (the nodes' logs grow until it ends). Both are idempotent, so the
/// clean path simply drops the guard after its cutover.
struct MigrationGuard<'a> {
    map: &'a ShardMap,
    moving: u64,
}

impl Drop for MigrationGuard<'_> {
    fn drop(&mut self) {
        self.map.unfreeze(self.moving);
        self.map.disarm_logs();
    }
}

/// Hands `visit` each `(key, key bytes, version, value)` of `store`, a
/// page of at least `chunk` at a time, until the store ends (true) or
/// `visit` returns false (false).
fn walk<R: RawLock + Default>(
    store: &KvStore<R>,
    chunk: usize,
    mut visit: impl FnMut(u64, &[u8], u64, &[u8]) -> bool,
) -> bool {
    let mut after: Option<Vec<u8>> = None;
    loop {
        let page = store.dump_range(after.as_deref(), chunk);
        let Some(last) = page.last() else { return true };
        after = Some(last.0.to_vec());
        for (key, version, value) in &page {
            let k = u64::from_be_bytes(key.as_ref().try_into().expect("8-byte keys"));
            if !visit(k, key, *version, value) {
                return false;
            }
        }
    }
}

/// The coordinator's one wait: polls `done` — a non-blocking query of
/// the map — until it holds, spinning briefly, then yielding per poll.
fn wait_until(mut done: impl FnMut() -> bool) {
    let mut wait = SpinWait::new();
    while !done() {
        wait.snooze();
    }
}

/// Runs one resharding to completion against live nodes, injecting
/// the spec's seeded faults. Blocks until the cutover has published
/// and the sources are cleaned; returns what happened.
///
/// `stores`, `logs`, and `mig_tx` are indexed by shard id and must
/// cover both the current fleet and `shards_after`.
///
/// # Panics
///
/// Panics if `shards_after` is zero, exceeds the provided fleet, or
/// another coordinator races the cutover (the protocol is
/// single-coordinator; the map CAS enforces it).
pub fn run_reshard_coordinator<R: RawLock + Default>(
    map: &ShardMap,
    stores: &[&KvStore<R>],
    logs: &[&OpLog],
    mig_tx: &[RingSender],
    spec: &ReshardSpec,
) -> MigrationReport {
    let shards_after = spec.shards_after;
    assert!(shards_after > 0 && shards_after <= stores.len());
    assert!(stores.len() == logs.len() && stores.len() == mig_tx.len());
    assert!(map.num_shards() <= stores.len());
    let chunk = spec.chunk.max(1);
    let snap = map.snapshot();
    let new_owner = |slot: usize| slot % shards_after;

    // Which slots move, from where and to where.
    let mut moving_all = 0u64;
    let mut moving_from = vec![0u64; stores.len()];
    let mut moving_to = vec![0u64; stores.len()];
    for (slot, &owner) in snap.owners.iter().enumerate() {
        if owner != new_owner(slot) {
            moving_all |= 1 << slot;
            moving_from[owner] |= 1 << slot;
            moving_to[new_owner(slot)] |= 1 << slot;
        }
    }
    let sources: Vec<usize> = (0..stores.len()).filter(|&s| moving_from[s] != 0).collect();

    let mut report = MigrationReport::default();
    if moving_all == 0 {
        report.final_epoch = u64::from(map.epoch());
        return report;
    }

    // Arm the op-logs and wait for every source to have switched:
    // from its ack on, a source's store plus its log is everything.
    // The guard comes second: a refused arming has nothing to undo.
    let generation = map.arm_logs();
    let guard = MigrationGuard {
        map,
        moving: moving_all,
    };
    // Each source's ack payload (a quiesce round's: its logged hwm).
    let mut acks = vec![0u64; sources.len()];
    wait_until(|| map.arming.settled(generation, &sources, &mut acks));

    // Cumulative stream accounting — none of these reset on a fault.
    // `sent[t]` pairs with the map's migrated-of counter to prove a
    // target's stream drained; `cursor[s]` is the op-log version
    // already read from source `s`, behind which its log is truncated.
    let mut sent = vec![0u64; stores.len()];
    let mut cursor = vec![0u64; stores.len()];
    let mut streamed = vec![0u64; stores.len()];
    let mut fault_idx = vec![0usize; stores.len()];
    let plans: Vec<_> = (0..stores.len())
        .map(|s| spec.faults.migration_plan_for(s, spec.source_crashes))
        .collect();
    let coord_plan = spec.faults.coordinator_plan_for(spec.coordinator_crashes);
    let mut frames: Vec<Message> = Vec::new();

    let drain_targets = |sent: &[u64]| {
        wait_until(|| (sent.iter().enumerate()).all(|(t, &n)| map.migrated_of(t) >= n));
    };
    // Replays `source`'s op-log tail after the cursor, shipping moving
    // entries to their slots' new owners.
    let delta = |source: usize,
                 cursor: &mut [u64],
                 sent: &mut [u64],
                 frames: &mut Vec<Message>,
                 report: &mut MigrationReport| {
        drain_tail(logs[source], &mut cursor[source], |entry| {
            let slot = slot_of(entry.key);
            if moving_from[source] & (1 << slot) == 0 {
                return;
            }
            let target = new_owner(slot);
            entry.encode_into(frames);
            mig_tx[target]
                .send_all_connected(frames)
                .expect("target node outlives the migration");
            sent[target] += 1;
            report.entries_migrated += 1;
        });
    };

    loop {
        report.attempts += 1;
        let crash_stage = coord_plan
            .events()
            .get(report.coordinator_restarts as usize)
            .map(|event| event.at_entry % 3);

        // 1. Drain the streams, then clear what earlier attempts left.
        drain_targets(&sent);
        for (target, store) in stores.iter().enumerate() {
            let clear = moving_to[target];
            if clear != 0 {
                walk(store, chunk, |k, key, _, _| {
                    if clear & (1 << slot_of(k)) != 0 {
                        store.delete_versioned(key);
                    }
                    true
                });
            }
        }

        // 2. Bulk copy. A seeded stream crash stops a source's walk,
        // which then restarts from the first page.
        for &source in &sources {
            let mut copy = |k: u64, _: &[u8], version: u64, value: &[u8]| {
                let slot = slot_of(k);
                if moving_from[source] & (1 << slot) == 0 {
                    return true;
                }
                encode_replicate(k, version, value, &mut frames);
                mig_tx[new_owner(slot)]
                    .send_all_connected(&frames)
                    .expect("target node outlives the migration");
                sent[new_owner(slot)] += 1;
                report.entries_migrated += 1;
                streamed[source] += 1;
                let events = plans[source].events();
                let crash = (events.get(fault_idx[source]))
                    .is_some_and(|event| streamed[source] == event.at_entry);
                if crash {
                    fault_idx[source] += 1;
                    report.copy_restarts += 1;
                }
                !crash
            };
            while !walk(stores[source], chunk, &mut copy) {}
        }
        if crash_stage == Some(0) {
            report.coordinator_restarts += 1;
            continue;
        }

        // 3. Unfrozen delta rounds shrink the final drain.
        for _ in 0..spec.delta_rounds {
            for &source in &sources {
                delta(source, &mut cursor, &mut sent, &mut frames, &mut report);
            }
        }
        if crash_stage == Some(1) {
            report.coordinator_restarts += 1;
            continue;
        }

        // 4. Freeze, which opens a quiesce round, and wait for every
        // source to ack it with the highest version it logged.
        let round = map.freeze(moving_all);
        wait_until(|| map.quiesce.settled(round, &sources, &mut acks));
        if crash_stage == Some(2) {
            // A supervisor restarting a dead coordinator lifts the
            // freeze first; parked writes resume at the old owners.
            map.unfreeze(moving_all);
            report.coordinator_restarts += 1;
            continue;
        }

        // 5. Final delta: sources are quiesced, so this tail is
        // complete. Prove the targets applied everything, then cut.
        for (&source, &hwm) in sources.iter().zip(&acks) {
            delta(source, &mut cursor, &mut sent, &mut frames, &mut report);
            debug_assert!(cursor[source] >= hwm, "final delta must reach the hwm");
        }
        drain_targets(&sent);
        map.stage(&std::array::from_fn::<_, ROUTE_SLOTS, _>(new_owner));
        let epoch = map.try_cutover(map.view(), shards_after);
        report.final_epoch =
            u64::from(epoch.expect("the resharding coordinator is the only epoch writer"));
        break;
    }
    // Unfreeze — after the cutover CAS, the order `slot_fence` relies
    // on — then disarm: the parked writes bounce to their new owners
    // and every node drops its log.
    drop(guard);

    // 6. Cleanup: moved keys leave their sources; their retired nodes
    // are reclaimed by the stores' online epoch passes (or the
    // caller's purge_retired() shutdown drain).
    for &source in &sources {
        walk(stores[source], chunk, |k, key, _, _| {
            if moving_from[source] & (1 << slot_of(k)) != 0
                && stores[source].delete_versioned(key).is_some()
            {
                report.source_keys_retired += 1;
            }
            true
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::{is_armed, ShardMap};
    use crate::service::{cluster_mesh, serve_cluster_node, ClusterClient};
    use ssync_core::Fence;
    use ssync_locks::TicketLock;

    /// `n` stores and their logs. The logs hold ONE entry: a node that
    /// logs two writes nobody drained panics on the overflow assert, so
    /// every test on this fleet also checks that a log's high-water
    /// length stays within the writes issued while a migration was
    /// armed — none, in the quiet tests below.
    fn fleet(n: usize) -> (Vec<KvStore<TicketLock>>, Vec<OpLog>) {
        (
            (0..n).map(|_| KvStore::new(64, 8)).collect(),
            (0..n).map(|_| OpLog::new(1)).collect(),
        )
    }

    /// Quiet 2→4 split: load through clients, reshard with no traffic
    /// racing, check every key moved to its mod-4 owner with its
    /// version intact.
    #[test]
    fn quiet_split_moves_every_key_with_versions() {
        let map = ShardMap::new(2);
        let (stores, logs) = fleet(4);
        let (endpoints, mut conns, mig) = cluster_mesh(4, 1, 16, 64);
        let store_refs: Vec<&KvStore<TicketLock>> = stores.iter().collect();
        let log_refs: Vec<&OpLog> = logs.iter().collect();
        let mut written: Vec<(u64, u64)> = Vec::new();
        std::thread::scope(|s| {
            for (shard, endpoint) in endpoints.into_iter().enumerate() {
                let (store, log, map) = (&stores[shard], &logs[shard], &map);
                s.spawn(move || serve_cluster_node(shard, store, log, map, endpoint));
            }
            let client = ClusterClient::new(&map, conns.pop().unwrap());
            for key in 0..256u64 {
                let version = client.set(key, key.to_le_bytes().to_vec()).unwrap();
                written.push((key, version));
            }
            // Delete a few so tombstone moves are exercised too.
            for key in (0..256u64).step_by(17) {
                client.delete(key).unwrap();
            }
            let report =
                run_reshard_coordinator(&map, &store_refs, &log_refs, &mig, &ReshardSpec::clean(4));
            assert_eq!(report.attempts, 1);
            assert_eq!(report.coordinator_restarts, 0);
            assert_eq!(report.final_epoch, 2);
            assert!(report.entries_migrated > 0);
            // The fleet serves the same data under the new map.
            for &(key, version) in &written {
                match client.get(key).unwrap() {
                    Some((v, value)) => {
                        assert_eq!(v, version);
                        assert_eq!(value, key.to_le_bytes().to_vec());
                    }
                    None => assert_eq!(key % 17, 0, "only deleted keys may miss"),
                }
            }
            client.close();
        });
        assert_eq!(map.epoch(), Fence::from_wire(2));
        assert_eq!(map.num_shards(), 4);
        assert!(
            !is_armed(map.arming.current()),
            "disarmed after the cutover"
        );
        assert!(logs.iter().all(OpLog::is_empty));
        // Every surviving key sits exactly at its mod-4 owner.
        for (shard, store) in stores.iter().enumerate() {
            for (key, _, _) in store.dump() {
                let k = u64::from_be_bytes(key.as_ref().try_into().unwrap());
                assert_eq!(map.owner_of(slot_of(k)), shard, "key {k} misplaced");
            }
        }
    }

    /// The same split with seeded source-stream and coordinator
    /// crashes: restarts happen, the outcome is identical.
    #[test]
    fn faulted_split_replays_and_converges() {
        let map = ShardMap::new(2);
        let (stores, logs) = fleet(4);
        let (endpoints, mut conns, mig) = cluster_mesh(4, 1, 16, 64);
        let store_refs: Vec<&KvStore<TicketLock>> = stores.iter().collect();
        let log_refs: Vec<&OpLog> = logs.iter().collect();
        let spec = ReshardSpec {
            faults: FaultSpec {
                seed: 0xC1_05,
                faults_per_replica: 0,
                max_window: 0,
                spacing: 24,
                primary_crashes: 0,
            },
            source_crashes: 2,
            coordinator_crashes: 2,
            ..ReshardSpec::clean(4)
        };
        std::thread::scope(|s| {
            for (shard, endpoint) in endpoints.into_iter().enumerate() {
                let (store, log, map) = (&stores[shard], &logs[shard], &map);
                s.spawn(move || serve_cluster_node(shard, store, log, map, endpoint));
            }
            let client = ClusterClient::new(&map, conns.pop().unwrap());
            for key in 0..192u64 {
                client.set(key, vec![key as u8; 9]).unwrap();
            }
            let report = run_reshard_coordinator(&map, &store_refs, &log_refs, &mig, &spec);
            assert_eq!(report.coordinator_restarts, 2);
            assert_eq!(report.attempts, 3);
            assert!(report.copy_restarts >= 1, "stream crashes must fire");
            assert_eq!(report.final_epoch, 2);
            for key in 0..192u64 {
                assert_eq!(client.get(key).unwrap().unwrap().1, vec![key as u8; 9]);
            }
            client.close();
        });
        assert!(
            !is_armed(map.arming.current()),
            "disarmed after the cutover"
        );
        assert!(logs.iter().all(OpLog::is_empty));
        for (shard, store) in stores.iter().enumerate() {
            for (key, _, _) in store.dump() {
                let k = u64::from_be_bytes(key.as_ref().try_into().unwrap());
                assert_eq!(map.owner_of(slot_of(k)), shard, "key {k} misplaced");
            }
        }
    }

    /// The truncation rule, staged: an entry the node appends after the
    /// coordinator read the tail but before it truncated survives to
    /// the next round — because `drain_tail` truncates behind the last
    /// entry *read*. The twin truncates through the log's end, as a
    /// "the tail is shipped, drop it" shortcut would, and loses it.
    #[test]
    fn an_append_between_tail_read_and_truncation_survives_to_the_next_round() {
        fn drain_through_the_end(log: &OpLog, cursor: &mut u64, mut ship: impl FnMut(&LogEntry)) {
            for entry in log.entries_after(*cursor) {
                *cursor = entry.version;
                ship(&entry);
            }
            log.truncate_through(u64::MAX);
        }
        // Two rounds over a log holding version 1, with version 2
        // landing mid-way through the first round's shipping.
        fn shipped_by(
            drain: impl Fn(&OpLog, &mut u64, &mut dyn FnMut(&LogEntry)),
        ) -> (Vec<u64>, usize) {
            let log = OpLog::new(8);
            let value = bytes::Bytes::from_static(b"v");
            log.append(LogEntry::committed(7, 1, Some(&value)));
            let mut cursor = 0u64;
            let mut shipped = Vec::new();
            drain(&log, &mut cursor, &mut |entry| {
                shipped.push(entry.version);
                log.append(LogEntry::committed(7, 2, Some(&value)));
            });
            drain(&log, &mut cursor, &mut |entry| shipped.push(entry.version));
            (shipped, log.len())
        }
        assert_eq!(
            shipped_by(|log, cursor, ship| drain_tail(log, cursor, ship)),
            (vec![1, 2], 0),
            "every write ships once and the log ends empty"
        );
        assert_eq!(
            shipped_by(|log, cursor, ship| drain_through_the_end(log, cursor, ship)),
            (vec![1], 0),
            "the twin must lose the write that raced its truncation"
        );
    }

    /// A coordinator that dies mid-protocol — here on the final delta's
    /// send, the freeze up and the logs armed — leaves nothing frozen
    /// and nothing armed. The test plays source node 0 by hand so the
    /// death lands exactly there: it acknowledges the arming, waits for
    /// the freeze round, drops the target's ring, logs one moving write
    /// and only then acknowledges the quiesce.
    #[test]
    fn an_unwinding_coordinator_unfreezes_and_disarms() {
        let map = ShardMap::new(1);
        let (stores, _) = fleet(2);
        let logs = [OpLog::new(4), OpLog::new(4)];
        let (endpoints, _conns, mig) = cluster_mesh(2, 1, 16, 16);
        let store_refs: Vec<&KvStore<TicketLock>> = stores.iter().collect();
        let log_refs: Vec<&OpLog> = logs.iter().collect();
        let moving_key = (0u64..).find(|&k| slot_of(k) == 1).unwrap();
        let died = std::thread::scope(|s| {
            let coordinator = s.spawn(|| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_reshard_coordinator(
                        &map,
                        &store_refs,
                        &log_refs,
                        &mig,
                        &ReshardSpec::clean(2),
                    )
                }))
            });
            let (mut armed, mut round) = (Fence::default(), Fence::default());
            while !map.arming.follow(0, &mut armed, |_| Some(0)) {
                std::thread::yield_now();
            }
            while map.quiesce.current() == round {
                std::thread::yield_now();
            }
            assert_ne!(map.frozen(), 0, "the round opens after the freeze");
            drop(endpoints);
            let value = bytes::Bytes::from_static(b"v");
            logs[0].append(LogEntry::committed(moving_key, 1, Some(&value)));
            map.quiesce.follow(0, &mut round, |_| Some(1));
            coordinator.join().unwrap().is_err()
        });
        assert!(died, "a send to a dropped target ring must panic");
        assert_eq!(map.frozen(), 0, "no write may stay parked");
        assert!(!is_armed(map.arming.current()), "no log may keep growing");
        assert_eq!(map.epoch(), Fence::FIRST, "and the map was never cut");
    }

    /// The same death against a live node: its log is armed while the
    /// coordinator runs, dropped once the guard disarmed, and the node
    /// serves writes — unlogged again — afterwards.
    #[test]
    fn a_node_drops_its_log_after_the_coordinator_unwound() {
        let map = ShardMap::new(1);
        let (stores, logs) = fleet(2);
        let (mut endpoints, mut conns, mig) = cluster_mesh(2, 1, 16, 16);
        let store_refs: Vec<&KvStore<TicketLock>> = stores.iter().collect();
        let log_refs: Vec<&OpLog> = logs.iter().collect();
        // The target's ring has no receiver: the copy's first send dies.
        drop(endpoints.pop());
        std::thread::scope(|s| {
            let endpoint = endpoints.pop().unwrap();
            s.spawn(|| serve_cluster_node(0, &stores[0], &logs[0], &map, endpoint));
            let client = ClusterClient::new(&map, conns.pop().unwrap());
            for key in 0..64u64 {
                client.set(key, vec![1]).unwrap();
            }
            let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_reshard_coordinator(&map, &store_refs, &log_refs, &mig, &ReshardSpec::clean(2))
            }));
            assert!(died.is_err());
            assert!(!is_armed(map.arming.current()));
            let armed = |client: &ClusterClient| {
                let snap = client.stats(0).unwrap();
                snap.counter("node.oplog_armed").unwrap()
            };
            while armed(&client) == 1 {
                std::thread::yield_now();
            }
            for key in 0..64u64 {
                client.set(key, vec![2]).unwrap();
            }
            client.close();
        });
        assert!(logs[0].is_empty());
        assert_eq!(stores[0].len(), 64);
    }

    /// Regression: a second coordinator's refused arming used to turn
    /// the first one's generation even (every node then dropped the log
    /// its delta still had to read), and its unwinding guard lifted the
    /// first one's freeze. Played by hand: the map is armed and frozen
    /// as a live coordinator would leave it, with no node running.
    #[test]
    fn a_refused_second_coordinator_leaves_the_first_ones_migration_alone() {
        let map = ShardMap::new(1);
        let (stores, logs) = fleet(2);
        let (_endpoints, _conns, mig) = cluster_mesh(2, 1, 16, 16);
        let store_refs: Vec<&KvStore<TicketLock>> = stores.iter().collect();
        let log_refs: Vec<&OpLog> = logs.iter().collect();
        let generation = map.arm_logs();
        let round = map.freeze(0b10);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_reshard_coordinator(&map, &store_refs, &log_refs, &mig, &ReshardSpec::clean(2))
        }));
        assert!(refused.is_err(), "a second arming must be refused");
        assert_eq!(map.arming.current(), generation, "the first arming stands");
        assert_eq!(map.frozen(), 0b10, "and so does its freeze");
        assert_eq!(map.quiesce.current(), round);
    }

    /// A no-op spec (map already mod-N) returns without touching
    /// anything.
    #[test]
    fn noop_reshard_short_circuits() {
        let map = ShardMap::new(4);
        let (stores, logs) = fleet(4);
        let (_endpoints, _conns, mig) = cluster_mesh(4, 1, 16, 16);
        let store_refs: Vec<&KvStore<TicketLock>> = stores.iter().collect();
        let log_refs: Vec<&OpLog> = logs.iter().collect();
        let report =
            run_reshard_coordinator(&map, &store_refs, &log_refs, &mig, &ReshardSpec::clean(4));
        assert_eq!(
            report,
            MigrationReport {
                final_epoch: 1,
                ..MigrationReport::default()
            }
        );
        assert_eq!(map.epoch(), Fence::FIRST);
    }
}
