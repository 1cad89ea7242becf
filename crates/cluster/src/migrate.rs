//! The live-migration coordinator: arm, copy, delta, fenced cutover.
//!
//! [`run_reshard_coordinator`] reshapes a running fleet from the
//! current map to `slot % shards_after` ownership while the nodes keep
//! serving. The protocol is one `async fn`, which [`Reshard::step`]
//! polls to its next wait; every wait is an `.await` on a non-blocking
//! query: [`settled`](ssync_core::Handshake::settled) on the map's
//! arming and quiesce handshakes, the targets' monotone stream progress
//! ([`ShardMap::migrated_of`]), or room on a full migration ring. The
//! coordinator only reads stores and sends frames: a store's one
//! writer is its node, which also decides which keys it holds
//! ([`follow_log_arming`](crate::follow_log_arming)'s sweep). Per
//! attempt:
//!
//! 1. **Drain & arm** — wait until every target has processed the
//!    stream entries sent to it, then arm the op-logs afresh
//!    ([`ShardMap::arm_logs`]) and wait for every node the migration
//!    touches to ack. A node sweeps the slots it does not own before it
//!    acks, so a restart is a first run — no target keeps what an
//!    aborted attempt left, such as a key whose delete tombstone a
//!    crashed stream lost — and the copy plus the log is every write.
//! 2. **Bulk copy** — page each source with [`KvStore::dump_range`], a
//!    page a step, streaming moving-slot triples as `Replicate` frames;
//!    a key written behind the cursor is in the log. Targets apply
//!    through the store's version gate, so duplicates drop as stale. A
//!    seeded [`FaultSpec::migration_plan_for`] schedule crashes the
//!    stream at fixed cumulative entry counts, each crash restarting
//!    that source's copy. A source whose log passes 4 096 entries gets
//!    a delta replay (step 3) at the page's end, so a slow copy does
//!    not log (and keep alive the values of) every write it outlasts.
//! 3. **Delta replay** — replay the moving entries of each source's log
//!    after a cumulative version cursor, then truncate the log *behind
//!    the cursor* — the last entry read, never the log's end: an append
//!    may have landed since. The cursor survives faulted attempts; a
//!    restart recopies the live store, which holds what the truncated
//!    entries recorded. A log never holds more than one round's writes.
//! 4. **Fenced cutover** — freeze the moving slots, which begins a
//!    quiesce round, and wait until every source has acked it with the
//!    highest version it logged (an ack of an aborted freeze names an
//!    older round). Drain the final delta, now complete, wait for the
//!    targets to apply it, then stage the new table and publish it with
//!    one epoch-bumping CAS. Unfreeze: parked writes bounce to their
//!    new owners.
//! 5. **Disarm** — every node drops its log, and each source sweeps the
//!    keys it no longer owns. No node exits while the logs are armed.
//!
//! A seeded [`FaultSpec::coordinator_plan_for`] schedule aborts the
//! first `coordinator_crashes` attempts after the copy, the delta or
//! the quiesce barrier. An aborted, unwinding (a touched node's ring
//! gone, a rival cutover) or dropped attempt unfreezes and disarms on
//! the way out, so no write stays parked, no log keeps growing, and the
//! map is un-cut; `tests/migration_model.rs` proves convergence against
//! a model under both fault families.
//!
//! [`KvStore::dump_range`]: ssync_kv::KvStore::dump_range
//! [`FaultSpec::migration_plan_for`]: ssync_repl::FaultSpec::migration_plan_for
//! [`FaultSpec::coordinator_plan_for`]: ssync_repl::FaultSpec::coordinator_plan_for

use core::future::Future;
use core::pin::Pin;
use core::task::{Context, Poll, Waker};
use std::sync::Arc;

use ssync_mp::{Message, RingSender};
use ssync_repl::{FaultSpec, LogEntry, OpLog};
use ssync_srv::step::until;
use ssync_srv::wire::encode_replicate;
use ssync_srv::{run, slot_of, Step, Store, Turn, ROUTE_SLOTS};

use crate::map::ShardMap;
use crate::sync::atomic::{AtomicBool, Ordering};

/// Unfrozen delta-replay rounds before the freeze — each shrinks the
/// tail the frozen final drain has to ship.
const DELTA_ROUNDS: usize = 2;

/// Log entries past which a source's bulk copy replays its delta at a
/// page's end. The log shares each logged value with the store, so its
/// length is memory the copy holds.
const COPY_LOG_BOUND: usize = 4096;

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

/// Replays the tail of `log` after `*cursor` ([`drain_tail`]): its
/// entries in the `moving` slots go to their owners among
/// `shards_after` shards, in order, each counted in `sent`.
async fn delta(
    (log, cursor): (&OpLog, &mut u64),
    moving: u64,
    shards_after: usize,
    mig_tx: &[RingSender],
    sent: &mut [u64],
) {
    let (mut frames, mut entry) = (vec![Vec::new(); mig_tx.len()], Vec::new());
    drain_tail(log, cursor, |logged| {
        let slot = slot_of(logged.key);
        if moving & (1 << slot) != 0 {
            logged.encode_into(&mut entry);
            frames[slot % shards_after].extend_from_slice(&entry);
            sent[slot % shards_after] += 1;
        }
    });
    for (tx, frames) in mig_tx.iter().zip(&frames) {
        send(tx, frames).await;
    }
}

/// What a coordinator's attempt must undo however it ends: the freeze
/// it may hold (writes to those slots park until it lifts) and the
/// arming (the nodes' logs grow until it ends). Both are idempotent, so
/// the clean path simply drops the guard after its cutover.
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

/// `store`'s `(key bytes, version, value)` triples, a page of at least
/// `chunk` at a time, until the store ends.
pub(crate) fn pages(
    store: &Store,
    chunk: usize,
) -> impl Iterator<Item = Vec<(bytes::Bytes, u64, bytes::Bytes)>> + '_ {
    let mut after: Option<bytes::Bytes> = None;
    std::iter::from_fn(move || {
        let page = store.dump_range(after.as_deref(), chunk);
        after = Some(page.last()?.0.clone());
        Some(page)
    })
}

/// Publishes `frames` on `tx` a [`RingSender::try_send_burst`] run at a
/// time, pending while the ring is full; panics once the receiving half
/// is gone, checked before every run.
async fn send(tx: &RingSender, mut frames: &[Message]) {
    until(|| {
        assert!(!tx.receiver_closed(), "target node outlives the migration");
        frames = &frames[tx.try_send_burst(frames)..];
        frames.is_empty().then_some(())
    })
    .await;
}

/// One resharding, run a step at a time: the coordinator's protocol
/// (see the module docs) as one future, which [`Reshard::step`] polls
/// to its next wait. Dropping it unfreezes and disarms, but an entry it
/// left half sent stays on its target's migration ring.
pub struct Reshard<'a> {
    body: Pin<Box<dyn Future<Output = MigrationReport> + Send + 'a>>,
    /// Set by the body at each copy page's end.
    // chk: set and cleared by whichever one thread polls the body.
    moved: Arc<AtomicBool>,
    report: Option<MigrationReport>,
}

impl<'a> Reshard<'a> {
    /// The resharding `spec` asks for, as [`run_reshard_coordinator`]
    /// takes it, not yet begun: the first step arms.
    pub fn new(
        map: &'a ShardMap,
        stores: &'a [&'a Store],
        logs: &'a [&'a OpLog],
        mig_tx: &'a [RingSender],
        spec: &ReshardSpec,
    ) -> Reshard<'a> {
        let moved = Arc::new(AtomicBool::new(false));
        let body = coordinate(map, stores, logs, mig_tx, *spec, Arc::clone(&moved));
        Reshard {
            body: Box::pin(body),
            moved,
            report: None,
        }
    }

    /// Runs the coordinator until it next waits or finishes, never
    /// blocking: [`Turn::Progress`] if it stopped at a copy page's end,
    /// [`Turn::Idle`] if at a wait, [`Turn::Exit`] once the migration is
    /// done — the answers of a node's turn. Panics as
    /// [`run_reshard_coordinator`] does, lifting the freeze and the
    /// arming on the way out.
    pub fn step(&mut self) -> Turn {
        if self.report.is_some() {
            return Turn::Exit;
        }
        match (self.body.as_mut()).poll(&mut Context::from_waker(Waker::noop())) {
            Poll::Ready(report) => {
                self.report = Some(report);
                Turn::Exit
            }
            Poll::Pending if self.moved.swap(false, Ordering::Relaxed) => Turn::Progress,
            Poll::Pending => Turn::Idle,
        }
    }

    /// What the resharding did, once a step has returned [`Turn::Exit`].
    pub fn report(&self) -> Option<MigrationReport> {
        self.report
    }
}

/// A coordinator never parks: while it holds a freeze, writes to the
/// moving slots wait on it.
impl Step for Reshard<'_> {
    fn step(&mut self) -> Turn {
        Reshard::step(self)
    }

    fn may_park(&self) -> bool {
        false
    }
}

/// Runs one resharding to completion against live nodes, injecting the
/// spec's seeded faults: [`run`] over one [`Reshard`]. Returns once the
/// logs are disarmed; each source sweeps the moved keys as it follows.
///
/// `stores`, `logs`, and `mig_tx` are indexed by shard id and must
/// cover both the current fleet and `shards_after`.
///
/// # Panics
///
/// Panics if `shards_after` is zero, exceeds the provided fleet, a node
/// the migration touches is gone (its migration ring has no receiver),
/// or another coordinator races the cutover (the protocol is
/// single-coordinator; the map CAS enforces it).
pub fn run_reshard_coordinator(
    map: &ShardMap,
    stores: &[&Store],
    logs: &[&OpLog],
    mig_tx: &[RingSender],
    spec: &ReshardSpec,
) -> MigrationReport {
    let mut reshard = Reshard::new(map, stores, logs, mig_tx, spec);
    run(&mut [&mut reshard]);
    reshard.report.expect("a coordinator exits with its report")
}

/// The coordinator: the module docs' protocol, each wait an `.await`.
pub(crate) async fn coordinate(
    map: &ShardMap,
    stores: &[&Store],
    logs: &[&OpLog],
    mig_tx: &[RingSender],
    spec: ReshardSpec,
    moved: Arc<AtomicBool>,
) -> MigrationReport {
    let shards_after = spec.shards_after;
    assert!(shards_after > 0 && shards_after <= stores.len());
    assert!(stores.len() == logs.len() && stores.len() == mig_tx.len());
    assert!(map.num_shards() <= stores.len());
    let chunk = spec.chunk.max(1);
    let snap = map.snapshot();
    let new_owner = |slot: usize| slot % shards_after;

    // Which slots move, from where, and which nodes the move touches.
    let mut moving_all = 0u64;
    let mut moving_from = vec![0u64; stores.len()];
    let mut touches = vec![false; stores.len()];
    for (slot, &owner) in snap.owners.iter().enumerate() {
        if owner != new_owner(slot) {
            moving_all |= 1 << slot;
            moving_from[owner] |= 1 << slot;
            (touches[owner], touches[new_owner(slot)]) = (true, true);
        }
    }
    let sources: Vec<usize> = (0..stores.len()).filter(|&s| moving_from[s] != 0).collect();
    let touched: Vec<usize> = (0..stores.len()).filter(|&s| touches[s]).collect();

    let mut report = MigrationReport::default();
    if moving_all == 0 {
        report.final_epoch = u64::from(map.epoch());
        return report;
    }

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
    // The arming's ack payloads, and the quiesce's (each logged hwm).
    let (mut armed, mut acks) = (vec![0u64; touched.len()], vec![0u64; sources.len()]);

    let drained = |sent: &[u64]| (sent.iter().enumerate()).all(|(t, &n)| map.migrated_of(t) >= n);
    loop {
        report.attempts += 1;
        let crash_stage = coord_plan
            .events()
            .get(report.coordinator_restarts as usize)
            .map(|event| event.at_entry % 3);

        // 1. Drain the streams, then arm afresh and wait for every
        // touched node to have swept and switched. The guard comes
        // second: a refused arming has nothing to undo. A node gone
        // never acks, so its ring's lost receiver unwinds the wait, as
        // it does a send.
        until(|| drained(&sent).then_some(())).await;
        let generation = map.arm_logs();
        let guard = MigrationGuard {
            map,
            moving: moving_all,
        };
        until(|| {
            let gone = touched.iter().any(|&node| mig_tx[node].receiver_closed());
            assert!(!gone, "a node the migration touches is gone");
            (map.arming.settled(generation, &touched, &mut armed)).then_some(())
        })
        .await;

        // 2. Bulk copy, a page a step. A seeded stream crash stops a
        // source's walk, which then restarts from the first page.
        for &source in &sources {
            let mut walk = pages(stores[source], chunk);
            'page: while let Some(page) = walk.next() {
                for (key, version, value) in &page {
                    let k = u64::from_be_bytes(key.as_ref().try_into().expect("8-byte keys"));
                    let slot = slot_of(k);
                    if moving_from[source] & (1 << slot) == 0 {
                        continue;
                    }
                    encode_replicate(k, *version, value, &mut frames);
                    send(&mig_tx[new_owner(slot)], &frames).await;
                    sent[new_owner(slot)] += 1;
                    streamed[source] += 1;
                    let events = plans[source].events();
                    let crash = (events.get(fault_idx[source]))
                        .is_some_and(|event| streamed[source] == event.at_entry);
                    if crash {
                        fault_idx[source] += 1;
                        report.copy_restarts += 1;
                        walk = pages(stores[source], chunk);
                        continue 'page;
                    }
                }
                if logs[source].len() > COPY_LOG_BOUND {
                    let log = (logs[source], &mut cursor[source]);
                    delta(log, moving_from[source], shards_after, mig_tx, &mut sent).await;
                }
                // The page's end: one pending poll, which a step reports
                // as progress.
                moved.store(true, Ordering::Relaxed);
                let mut ended = false;
                until(|| std::mem::replace(&mut ended, true).then_some(())).await;
            }
        }
        // A simulated crash ends the attempt as a real exit would: the
        // guard's drop unfreezes and disarms.
        if crash_stage == Some(0) {
            report.coordinator_restarts += 1;
            continue;
        }

        // 3. Unfrozen delta rounds shrink the final drain.
        for _ in 0..DELTA_ROUNDS {
            for &source in &sources {
                let log = (logs[source], &mut cursor[source]);
                delta(log, moving_from[source], shards_after, mig_tx, &mut sent).await;
            }
        }
        if crash_stage == Some(1) {
            report.coordinator_restarts += 1;
            continue;
        }

        // 4. Freeze, which opens a quiesce round, and wait for every
        // source to ack it with the highest version it logged.
        let round = map.freeze(moving_all);
        until(|| {
            map.quiesce
                .settled(round, &sources, &mut acks)
                .then_some(())
        })
        .await;
        if crash_stage == Some(2) {
            report.coordinator_restarts += 1;
            continue;
        }

        // 5. Final delta: sources are quiesced, so this tail is
        // complete. Prove the targets applied everything, then cut.
        for (&source, &hwm) in sources.iter().zip(&acks) {
            let log = (logs[source], &mut cursor[source]);
            delta(log, moving_from[source], shards_after, mig_tx, &mut sent).await;
            debug_assert!(cursor[source] >= hwm, "final delta must reach the hwm");
        }
        until(|| drained(&sent).then_some(())).await;
        map.stage(&std::array::from_fn::<_, ROUTE_SLOTS, _>(new_owner));
        let epoch = map.try_cutover(map.view(), shards_after);
        report.final_epoch =
            u64::from(epoch.expect("the resharding coordinator is the only epoch writer"));
        // Unfreeze — after the cutover CAS, the order `slot_fence`
        // relies on — then disarm: the parked writes bounce to their
        // new owners, and every node drops its log and sweeps the keys
        // it no longer owns.
        drop(guard);
        break;
    }
    report.entries_migrated = sent.iter().sum();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::{is_armed, ShardMap};
    use crate::service::tests::wait_for;
    use crate::service::{cluster_mesh, serve_cluster_node, ClusterClient, ClusterNode};
    use core::ops::ControlFlow;
    use core::pin::pin;
    use ssync_core::Fence;
    use ssync_srv::router::key_bytes;
    use ssync_srv::service::ServeReport;
    use ssync_srv::wire::{Request, Response};
    use ssync_srv::{enumerate, play, Admit, Hooks, KvClient};
    use std::panic::AssertUnwindSafe;

    /// `n` stores and their logs. The logs hold ONE entry: a node that
    /// logs two writes nobody drained panics on the overflow assert, so
    /// every test on this fleet also checks that a log's high-water
    /// length stays within the writes issued while a migration was
    /// armed — none, in the quiet tests below.
    fn fleet(n: usize) -> (Vec<Store>, Vec<OpLog>) {
        (
            (0..n).map(|_| Store::new(64, 8)).collect(),
            (0..n).map(|_| OpLog::new(1)).collect(),
        )
    }

    /// Quiet 2→4 split: load through clients, reshard with no traffic
    /// racing, check every key moved to its mod-4 owner with its
    /// version intact, and that the sources' sweeps deleted exactly the
    /// keys that moved.
    #[test]
    fn quiet_split_moves_every_key_with_versions() {
        let map = ShardMap::new(2);
        let (stores, logs) = fleet(4);
        let (endpoints, mut conns, mig) = cluster_mesh(4, 1, 16, 64);
        let store_refs: Vec<&Store> = stores.iter().collect();
        let log_refs: Vec<&OpLog> = logs.iter().collect();
        let mut written: Vec<(u64, u64)> = Vec::new();
        let swept: u64 = std::thread::scope(|s| {
            let nodes: Vec<_> = (endpoints.into_iter().enumerate())
                .map(|(shard, endpoint)| {
                    let (store, log, map) = (&stores[shard], &logs[shard], &map);
                    s.spawn(move || serve_cluster_node(shard, store, log, map, endpoint))
                })
                .collect();
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
            let reports = nodes.into_iter().map(|node| node.join().unwrap());
            reports.map(|report| report.keys_swept).sum()
        });
        let moved = (0..256u64).filter(|&k| k % 17 != 0 && slot_of(k) % 4 >= 2);
        assert_eq!(swept, moved.count() as u64, "each moved key swept once");
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
        let store_refs: Vec<&Store> = stores.iter().collect();
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
            shipped_by(|log, cursor, ship| { drain_tail(log, cursor, ship) }),
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
    /// and nothing armed. The test steps the coordinator and plays
    /// both nodes between steps, so the death lands exactly there: both
    /// acknowledge the arming, then the test waits for the freeze
    /// round, drops the target's ring, logs one moving write at source
    /// node 0 and only then acknowledges the quiesce.
    #[test]
    fn an_unwinding_coordinator_unfreezes_and_disarms() {
        let map = ShardMap::new(1);
        let (stores, _) = fleet(2);
        let logs = [OpLog::new(4), OpLog::new(4)];
        let (endpoints, _conns, mig) = cluster_mesh(2, 1, 16, 16);
        let store_refs: Vec<&Store> = stores.iter().collect();
        let log_refs: Vec<&OpLog> = logs.iter().collect();
        let moving_key = (0u64..).find(|&k| slot_of(k) == 1).unwrap();
        let mut reshard = Reshard::new(&map, &store_refs, &log_refs, &mig, &ReshardSpec::clean(2));
        let (mut armed, mut round) = (Fence::default(), Fence::default());
        assert_eq!(reshard.step(), Turn::Idle, "armed, awaiting the ack");
        assert!(map.arming.follow(0, &mut armed, |_| Some(0)));
        assert_eq!(reshard.step(), Turn::Idle, "the target has not acked");
        assert!(map.arming.follow(1, &mut Fence::default(), |_| Some(0)));
        assert_eq!(reshard.step(), Turn::Idle, "frozen, awaiting the ack");
        assert_ne!(map.frozen(), 0, "the round opens after the freeze");
        drop(endpoints);
        let value = bytes::Bytes::from_static(b"v");
        logs[0].append(LogEntry::committed(moving_key, 1, Some(&value)));
        assert!(map.quiesce.follow(0, &mut round, |_| Some(1)));
        let died = std::panic::catch_unwind(AssertUnwindSafe(|| reshard.step())).is_err();
        assert!(died, "a send to a dropped target ring must panic");
        assert_eq!(map.frozen(), 0, "no write may stay parked");
        assert!(!is_armed(map.arming.current()), "no log may keep growing");
        assert_eq!(map.epoch(), Fence::FIRST, "and the map was never cut");
    }

    /// A source log that passes its bound during the bulk copy is
    /// replayed and truncated at that page's end, not kept for the
    /// delta rounds after the copy; every write still lands at its new
    /// owner. The test steps the coordinator and both nodes, and logs
    /// the writes as the source's committed hook would, right after the
    /// first page.
    #[test]
    fn a_log_past_its_bound_is_replayed_mid_copy() {
        let map = ShardMap::new(1);
        let (stores, _) = fleet(2);
        let logs = [OpLog::new(2 * COPY_LOG_BOUND), OpLog::new(1)];
        let (endpoints, _conns, mig) = cluster_mesh(2, 1, 16, 64);
        let store_refs: Vec<&Store> = stores.iter().collect();
        let log_refs: Vec<&OpLog> = logs.iter().collect();
        let mut model: Vec<(u64, u64, Vec<u8>)> = (0..512u64)
            .map(|key| (key, stores[0].set(&key_bytes(key), b"v"), b"v".to_vec()))
            .collect();
        let mut reshard = Reshard::new(&map, &store_refs, &log_refs, &mig, &ReshardSpec::clean(2));
        let mut nodes = (endpoints.into_iter().enumerate())
            .map(|(me, endpoint)| ClusterNode::new(me, &stores[me], &logs[me], &map, endpoint));
        let (mut source_core, mut source) = nodes.next().unwrap();
        let (mut target_core, mut target) = nodes.next().unwrap();
        let mut to_page_end = |reshard: &mut Reshard| loop {
            let turn = reshard.step();
            source_core.turn(&stores[0], &mut source);
            target_core.turn(&stores[1], &mut target);
            if turn != Turn::Idle {
                return turn;
            }
        };
        assert_eq!(to_page_end(&mut reshard), Turn::Progress, "the first page");
        for i in 0..=COPY_LOG_BOUND {
            let (key, version, value) = &mut model[i % 512];
            *value = i.to_le_bytes().to_vec();
            let kept;
            (*version, kept) = stores[0].set_shared(&key_bytes(*key), &value);
            logs[0].append(LogEntry::committed(*key, *version, Some(&kept)));
        }
        assert_eq!(to_page_end(&mut reshard), Turn::Progress, "the second page");
        assert!(logs[0].is_empty(), "the log is replayed at the page's end");
        while to_page_end(&mut reshard) != Turn::Exit {}
        assert_eq!(reshard.report().map(|r| r.final_epoch), Some(2));
        for (key, version, value) in model {
            let owner = &stores[slot_of(key) % 2];
            let (held_version, held) = owner.get_with_version(&key_bytes(key)).unwrap();
            assert_eq!((held_version, held.as_ref()), (version, value.as_slice()));
        }
    }

    /// A migration ring shallower than one entry's frames, with nothing
    /// draining the target: every step leaves the entry half sent and
    /// returns `Idle` instead of waiting for room. Once the target node
    /// runs, the migration completes, and the entry counts once on
    /// each side.
    #[test]
    fn a_full_migration_ring_does_not_hold_the_coordinator() {
        let map = ShardMap::new(1);
        let (stores, logs) = fleet(2);
        let (endpoints, _conns, mig) = cluster_mesh(2, 1, 16, 2);
        let store_refs: Vec<&Store> = stores.iter().collect();
        let log_refs: Vec<&OpLog> = logs.iter().collect();
        let key = (0u64..).find(|&k| slot_of(k) == 1).unwrap();
        let value = vec![7; 300];
        let mut frames = Vec::new();
        encode_replicate(key, 1, &value, &mut frames);
        assert!(frames.len() > 2, "the entry must outgrow the ring");
        stores[0].set(&key_bytes(key), &value);
        let mut reshard = Reshard::new(&map, &store_refs, &log_refs, &mig, &ReshardSpec::clean(2));
        let mut nodes = (endpoints.into_iter().enumerate())
            .map(|(me, endpoint)| ClusterNode::new(me, &stores[me], &logs[me], &map, endpoint));
        let (mut source_core, mut source) = nodes.next().unwrap();
        for _ in 0..64 {
            assert_eq!(reshard.step(), Turn::Idle);
            source_core.turn(&stores[0], &mut source);
        }
        let (mut target_core, mut target) = nodes.next().unwrap();
        let entries = |node: &ClusterNode| {
            let mut counters = node.counters().into_iter();
            counters.find_map(|(name, value)| (name == "node.migration_entries").then_some(value))
        };
        assert_eq!(target_core.turn(&stores[1], &mut target), Turn::Progress);
        assert_eq!(entries(&target), Some(0), "the ring held half the entry");
        for _ in 0..64 {
            if reshard.step() == Turn::Exit {
                break;
            }
            source_core.turn(&stores[0], &mut source);
            target_core.turn(&stores[1], &mut target);
        }
        let report = reshard.report().expect("the migration completes");
        assert_eq!(report.entries_migrated, 1);
        assert_eq!(entries(&target), Some(1));
        let (version, held) = stores[1].get_with_version(&key_bytes(key)).unwrap();
        assert_eq!((version, held.as_ref()), (1, value.as_slice()));
    }

    /// A cluster node as the split enumeration steps it: itself, the
    /// twin that runs a frozen slot's writes instead of parking them, or
    /// the twin that acks an arming change before its sweep (`Some`,
    /// holding whether it owes one).
    struct Stepped<'a> {
        node: ClusterNode<'a>,
        runs_frozen: bool,
        sweep_late: Option<bool>,
    }

    impl Hooks for Stepped<'_> {
        fn admit(&mut self, request: &mut Request) -> Admit {
            match self.node.admit(request) {
                Admit::Defer if self.runs_frozen => Admit::Run,
                verdict => verdict,
            }
        }

        fn may_exit(&mut self) -> bool {
            self.node.may_exit()
        }

        fn observes_writes(&self) -> bool {
            self.node.observes_writes()
        }

        fn committed(&mut self, key: u64, version: u64, value: Option<&bytes::Bytes>) {
            self.node.committed(key, version, value);
        }

        fn before_poll(&mut self, counts: &mut ServeReport) -> ControlFlow<Turn, bool> {
            match &mut self.sweep_late {
                Some(owed) => self.node.before_poll_sweeping_late(counts, owed),
                None => self.node.before_poll(counts),
            }
        }
    }

    /// Which node the split enumeration steps.
    #[derive(Clone, Copy, PartialEq)]
    enum Node {
        /// The cluster node itself.
        Real,
        /// The twin that runs a frozen slot's writes.
        RunsFrozen,
        /// The twin that acks an arming change before its sweep.
        SweepsLate,
    }

    /// One schedule of a 1 → 2 split on one thread: the coordinator
    /// (actor 0), nodes 0 and 1 (actors 1 and 2) and a
    /// [`ClusterClient`] (actor 3) move as `prefix` names them, then
    /// round-robin. The source holds one key of a moving slot; the
    /// client overwrites it, chasing any `WrongShard` to the map's
    /// owner, and stops both nodes once the migration is done. Returns
    /// when the write was first sent — 0 before the freeze, 1 during
    /// it, 2 after the cutover — and whether the client chased a
    /// redirect. `Err` names the acknowledged write missing at its new
    /// owner, a moved key left at the source, or a schedule that did
    /// not finish.
    fn run_split_schedule(prefix: &[usize], twin: Node) -> Result<(usize, bool), String> {
        let map = ShardMap::new(1);
        let (stores, logs) = fleet(2);
        let (endpoints, mut conns, mig) = cluster_mesh(2, 1, 16, 16);
        let store_refs: Vec<&Store> = stores.iter().collect();
        let log_refs: Vec<&OpLog> = logs.iter().collect();
        let key = (0u64..).find(|&k| slot_of(k) == 1).unwrap();
        stores[0].set(&key_bytes(key), b"old");
        let mut reshard = Reshard::new(&map, &store_refs, &log_refs, &mig, &ReshardSpec::clean(2));
        let mut nodes: Vec<_> = (endpoints.into_iter().enumerate())
            .map(|(me, endpoint)| {
                let (core, node) = ClusterNode::new(me, &stores[me], &logs[me], &map, endpoint);
                let node = Stepped {
                    node,
                    runs_frozen: twin == Node::RunsFrozen,
                    sweep_late: (twin == Node::SweepsLate).then_some(false),
                };
                (core, &stores[me], node)
            })
            .collect();
        let client = ClusterClient::new(&map, conns.pop().unwrap());
        let write = Request::Set {
            key,
            value: b"new".to_vec(),
        };
        let cut = || map.epoch() != Fence::FIRST;
        let (mut sent_at, mut answer) = (None, None);
        let finished = {
            let mut ops = pin!(async {
                sent_at = Some(if cut() {
                    2
                } else {
                    usize::from(map.frozen() != 0)
                });
                answer = Some(client.exchange(key, &write).await);
                until(|| cut().then_some(())).await;
                client.send_stop().await;
            });
            let [source, target] = &mut nodes[..] else {
                unreachable!("two nodes")
            };
            let mut actors: [&mut dyn Step; 4] = [&mut reshard, source, target, &mut ops];
            play(&mut actors, prefix, 64)
        };
        if !finished {
            return Err("the schedule did not finish".to_string());
        }
        let Some(Ok(Response::Stored { version })) = answer else {
            return Err(format!("the write was answered {answer:?}"));
        };
        let held = stores[1].get_with_version(&key_bytes(key));
        let held = held.map(|(at, value)| (at, value.as_ref().to_vec()));
        if held != Some((version, b"new".to_vec())) {
            return Err(format!(
                "acknowledged write {key}@{version} lost: its new owner holds {held:?}"
            ));
        }
        if !stores[0].is_empty() {
            return Err(format!("moved key {key} left at the source"));
        }
        assert!(logs.iter().all(OpLog::is_empty), "{prefix:?}");
        assert!(!is_armed(map.arming.current()), "{prefix:?}");
        assert_eq!(map.epoch(), Fence::from_wire(2), "{prefix:?}");
        Ok((sent_at.unwrap(), client.redirects() > 0))
    }

    /// Every order of the first `turns` moves of the split schedule;
    /// stops at the first failure, else returns how many schedules sent
    /// the write before, during and after the freeze, and how many
    /// chased a `WrongShard`.
    fn enumerate_split(turns: u32, twin: Node) -> Result<([usize; 3], usize), String> {
        let ran = enumerate(4, turns, |prefix| run_split_schedule(prefix, twin))?;
        let mut placed = [0; 3];
        for &(sent_at, _) in &ran {
            placed[sent_at] += 1;
        }
        Ok((placed, ran.iter().filter(|&&(_, chased)| chased).count()))
    }

    /// The cutover's no-lost-write argument, exhaustively at small
    /// scope and against the coordinator's and the client's own code:
    /// every order of the first seven moves places the client's write
    /// before the freeze, during it (parked, then bounced to the new
    /// owner) and after the cutover, and each schedule finishes on this
    /// one thread with the acknowledged write at its new owner.
    #[test]
    fn every_stepped_split_schedule_keeps_the_acknowledged_write() {
        let started = std::time::Instant::now();
        let (placed, chased) = enumerate_split(7, Node::Real).unwrap();
        assert_eq!(placed, [15_764, 614, 6]);
        assert!(chased > 0, "no schedule chased a WrongShard");
        eprintln!(
            "split enumeration: {} schedules, the write sent before/during/after the \
             freeze in {placed:?}, {chased} chasing a WrongShard, in {:?}",
            placed.iter().sum::<usize>(),
            started.elapsed()
        );
    }

    /// The twin: a node that runs a frozen slot's write instead of
    /// parking it must be caught by the same enumeration, as an
    /// acknowledged write lost — it lands at the source after the final
    /// delta was read, and the source's sweep deletes it there.
    #[test]
    fn a_node_that_runs_frozen_writes_is_found() {
        let found = enumerate_split(7, Node::RunsFrozen).unwrap_err();
        assert!(found.contains("lost"), "{found}");
        eprintln!("split twin: {found}");
    }

    /// The twin of the sweep's order: a node that acks an arming change
    /// and sweeps only after its next turn's stream drain must be
    /// caught by the same enumeration, as an acknowledged write lost:
    /// the target acks the arming, takes the copy of a write the source
    /// committed before its own ack, and then sweeps it.
    #[test]
    fn a_node_that_acks_before_its_sweep_is_found() {
        let found = enumerate_split(7, Node::SweepsLate).unwrap_err();
        assert!(found.contains("lost"), "{found}");
        eprintln!("sweep twin: {found}");
    }

    /// The same death against a live node: its log is armed while the
    /// coordinator runs, dropped once the guard disarmed, and the node
    /// serves writes — unlogged again — afterwards.
    #[test]
    fn a_node_drops_its_log_after_the_coordinator_unwound() {
        let map = ShardMap::new(1);
        let (stores, logs) = fleet(2);
        let (mut endpoints, mut conns, mig) = cluster_mesh(2, 1, 16, 16);
        let store_refs: Vec<&Store> = stores.iter().collect();
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
            wait_for("the disarmed log", || armed(&client) != 1);
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
        let store_refs: Vec<&Store> = stores.iter().collect();
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
        let store_refs: Vec<&Store> = stores.iter().collect();
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
