//! Cluster node servers and the map-following client.
//!
//! One [`serve_cluster_node`] thread per shard, over the ring
//! transport. The request path — polling, decoding, executing,
//! replying, scraping — is `ssync-srv`'s shared [`NodeCore`]; what this
//! module owns is what elastic routing adds to it:
//!
//! * **The slot fence** ([`slot_fence`], the node's `admit` hook) —
//!   every key is routed against the live [`ShardMap`] before
//!   executing; a key whose slot the node does not own under its
//!   current map is bounced with [`Response::WrongShard`] (nothing
//!   executes), and the client refetches the map and retries. An
//!   operation is therefore executed by exactly the node that
//!   acknowledges it.
//! * **The armed op-log** ([`follow_log_arming`]) — a node's [`OpLog`]
//!   has a reader only while a migration runs, so the node appends its
//!   committed writes (the `committed` hook) only while it follows an
//!   armed generation of the map's arming handshake, and drops the log
//!   on leaving one. With no migration in flight the log is empty
//!   however long the node serves.
//! * **The freeze protocol** — writes to slots frozen for a
//!   migration's final drain are *deferred* (parked in the node, the
//!   client blocked on its reply) and re-submitted each loop pass:
//!   after an aborted migration they execute here; after a cutover
//!   the node no longer owns them and they bounce to the new owner.
//!   Reads keep being served throughout — the freeze window is
//!   write-unavailability only, and it is bounded by the final delta
//!   drain, not the whole copy. The node's ack of the quiesce round
//!   tells the coordinator when its log is final.
//! * **The migration stream** — a per-node SPSC ring the coordinator
//!   replays `Replicate`/`ReplicateDelete` frames over. Entries apply
//!   through the store's per-key version gate
//!   ([`KvStore::apply_replicated`]), so replayed duplicates after a
//!   faulted attempt drop as stale; progress is published to the map
//!   so the coordinator can prove the stream drained.
//!
//! Ordering discipline (the heart of the zero-lost-writes argument;
//! `tests/chk_models.rs` model-checks [`slot_fence`] itself): the
//! write path loads the freeze mask *before* routing. If the mask
//! already shows this round's freeze, the write defers — safe. If it
//! does not, either the freeze is not up yet (the write lands before
//! the node's quiesce ack and the final delta carries it), or the mask
//! was cleared *after* the cutover — and because the coordinator
//! unfreezes only after the cutover CAS, the Acquire mask load then
//! guarantees the route read sees the new map and the write bounces to
//! the new owner. In no interleaving does a moved-slot write land on
//! the old owner after the final delta was read.

use core::cell::{Cell, RefCell};

use bytes::Bytes;

use ssync_core::{Fence, RegistrySnapshot};
use ssync_kv::KvStore;
use ssync_locks::RawLock;
use ssync_mp::{ring_channel, RingReceiver, RingSender};
use ssync_repl::{EntryView, LogEntry, OpLog};
use ssync_srv::service::{ring_mesh, ReadHit, ServerEndpoint};
use ssync_srv::wire::{replay, Request, Response, WireError};
use ssync_srv::{slot_of, Admit, Hooks, NodeCore, Poll, ServiceClient};

use crate::map::{is_armed, MapSnapshot, ShardMap};

/// A cluster node's side of the mesh: per-client request/reply rings
/// plus the coordinator's migration stream.
pub struct ClusterNodeEndpoint {
    clients: ServerEndpoint<RingReceiver, RingSender>,
    migration: RingReceiver,
}

/// One client's connections, one per node.
pub type ClientConn = ServiceClient<RingSender, RingReceiver>;

/// What [`cluster_mesh`] returns: node endpoints (element `s` serves
/// shard `s`), client connections, and the per-shard migration-stream
/// senders the coordinator keeps.
pub type ClusterMesh = (Vec<ClusterNodeEndpoint>, Vec<ClientConn>, Vec<RingSender>);

/// Builds the ring mesh for `shards` nodes × `clients` clients — a
/// [`ring_mesh`] — plus a `mig_depth`-deep migration stream into every
/// node. Every client gets a connection to every node — including
/// shards that own nothing under the current map, so a fleet can grow
/// without re-wiring.
///
/// # Panics
///
/// Panics if any dimension is zero or a depth is not a power of two.
pub fn cluster_mesh(shards: usize, clients: usize, depth: usize, mig_depth: usize) -> ClusterMesh {
    let (endpoints, conns) = ring_mesh(shards, clients, depth);
    let (mig_senders, endpoints) = endpoints
        .into_iter()
        .map(|clients| {
            let (mig_tx, migration) = ring_channel(mig_depth);
            (mig_tx, ClusterNodeEndpoint { clients, migration })
        })
        .unzip();
    (endpoints, conns, mig_senders)
}

/// What one cluster node did before all its clients stopped.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NodeReport {
    /// Request messages served (a multi-get head counts once).
    pub requests: u64,
    /// Key-operations executed.
    pub key_ops: u64,
    /// Undecodable or out-of-protocol frames answered with
    /// [`Response::Malformed`].
    pub malformed: u64,
    /// Requests bounced with [`Response::WrongShard`].
    pub wrong_shard_redirects: u64,
    /// Writes deferred at least once by a migration freeze.
    pub migration_ops_deferred: u64,
    /// Migration-stream entries processed (applied or version-gated).
    pub migration_entries: u64,
}

/// The cluster node's admission decision for one key at node `me`:
/// [`Admit::Run`] if `me` owns the key's slot (and, for a write, the
/// slot is not frozen), [`Admit::Defer`] for a write to a frozen owned
/// slot, and a [`Response::WrongShard`] refusal carrying the observed
/// map epoch otherwise. Reads are fenced on ownership only — they stay
/// available for the whole migration.
///
/// For a write the freeze-mask load MUST precede the route — see the
/// module docs for why the other order loses acknowledged writes.
pub fn slot_fence(map: &ShardMap, me: usize, key: u64, is_write: bool) -> Admit {
    let frozen = if is_write { map.frozen() } else { 0 };
    let (owner, map_epoch) = map.route(key);
    if owner != me {
        Admit::Refuse(Response::WrongShard { map_epoch })
    } else if frozen & (1 << slot_of(key)) != 0 {
        Admit::Defer
    } else {
        Admit::Run
    }
}

/// One pass of a node's half of the op-log arming handshake
/// ([`ShardMap::arm_logs`]): if the generation moved since `*seen`,
/// switch to it — drop the log when leaving an armed generation, whose
/// entries nothing will read again — and only then ack. The caller logs
/// its committed writes while `*seen` [`is_armed`]. Returns whether the
/// generation moved.
///
/// The order is the no-lost-write argument: the single-threaded node
/// commits nothing between switching and acking, so every write it
/// committed unlogged precedes the ack's Release — the coordinator's
/// copy, which starts after its Acquire of the ack, reads that write or
/// a newer version of its key — and every later write is logged
/// (`tests/chk_models.rs` model-checks this step).
pub fn follow_log_arming(map: &ShardMap, me: usize, log: &OpLog, seen: &mut Fence) -> bool {
    let leaving_armed = is_armed(*seen);
    map.arming.follow(me, seen, |_| {
        if leaving_armed {
            log.truncate_through(u64::MAX);
        }
        Some(0)
    })
}

/// The node's policy state: the fence's inputs, the op-log its
/// committed writes go to while armed, and the counters the two hooks
/// maintain.
struct SlotPolicy<'a> {
    me: usize,
    map: &'a ShardMap,
    log: &'a OpLog,
    /// The arming generation this node last acknowledged
    /// ([`follow_log_arming`]); armed = log every committed write.
    log_generation: Fence,
    /// Highest version logged under `log_generation` — what the node
    /// quiesces at. Versions it assigned while unarmed are not in it:
    /// the coordinator's final delta has to reach the log's end, not
    /// the store's.
    last_logged: u64,
    bounced: u64,
}

impl Hooks for SlotPolicy<'_> {
    fn admit(&mut self, key: u64, is_write: bool) -> Admit {
        let verdict = slot_fence(self.map, self.me, key, is_write);
        if matches!(verdict, Admit::Refuse(_)) {
            self.bounced += 1;
        }
        verdict
    }

    /// Only while armed: a node with no migration in flight keeps no
    /// handle on what it stores.
    fn observes_writes(&self) -> bool {
        is_armed(self.log_generation)
    }

    fn committed(&mut self, key: u64, version: u64, value: Option<&Bytes>) {
        if is_armed(self.log_generation) {
            self.log.append(LogEntry::committed(key, version, value));
            self.last_logged = version;
        }
    }
}

/// Runs one cluster node: serve clients, drain the migration stream,
/// and follow both migration handshakes, until every client sent
/// [`Request::Stop`]. Returns once the last client stops.
pub fn serve_cluster_node<R: RawLock + Default>(
    me: usize,
    store: &KvStore<R>,
    log: &OpLog,
    map: &ShardMap,
    endpoint: ClusterNodeEndpoint,
) -> NodeReport {
    let ClusterNodeEndpoint { clients, migration } = endpoint;
    let mut core = NodeCore::new(clients);
    let mut policy = SlotPolicy {
        me,
        map,
        log,
        log_generation: Fence::default(),
        last_logged: 0,
        bounced: 0,
    };
    let mut deferred: Vec<(usize, Request)> = Vec::new();
    let mut ops_deferred = 0u64;
    // The quiesce round this node last acknowledged.
    let mut acked_round = Fence::default();
    // Cumulative migration-stream entries processed.
    let mut mig_processed = 0u64;
    // A migration entry's continuation frames, taken as one burst.
    let mut frames = Vec::new();
    while core.live() > 0 {
        // Arming handshake, before anything this pass can commit.
        let mut progressed = follow_log_arming(map, me, log, &mut policy.log_generation);
        if progressed {
            policy.last_logged = 0;
        }
        // Quiesce handshake: reading the round first (Acquire) is what
        // guarantees the freeze bits of that round are visible, and —
        // by per-object coherence on the single-threaded node — every
        // later mask load this pass and beyond still sees them, so no
        // frozen-slot write can slip through after this ack.
        progressed |= map.quiesce.follow(me, &mut acked_round, |_| {
            let mine = owned_mask(map, me);
            (map.frozen() & mine != 0).then_some(policy.last_logged)
        });
        // Drain the migration stream.
        while let Some(head) = migration.try_recv() {
            progressed = true;
            let more = Request::continuations(&head);
            if migration.recv_burst_connected(more, &mut frames).is_err() {
                // The coordinator died mid-entry: nothing to apply, and
                // nothing to count as migrated.
                core.counts.malformed += 1;
                break;
            }
            let request = Request::decode(head, replay(&frames));
            match request.as_ref().ok().and_then(EntryView::of) {
                Some(entry) => {
                    entry.apply_to(store);
                }
                None => core.counts.malformed += 1,
            }
            mig_processed += 1;
            map.publish_migrated(me, mig_processed);
        }
        // Re-submit parked writes: an aborted migration unfreezes
        // them here, a completed one bounces them to the new owner.
        for (client, request) in std::mem::take(&mut deferred) {
            match core.serve(store, &mut policy, client, request) {
                Some(request) => deferred.push((client, request)),
                None => progressed = true,
            }
        }
        // Poll the clients once.
        let polled = core.poll();
        progressed |= !matches!(polled, Poll::Idle);
        match polled {
            Poll::Idle | Poll::Consumed => {}
            Poll::Scrape(client) => {
                let node = [
                    ("node.wrong_shard_redirects", policy.bounced),
                    ("node.migration_ops_deferred", ops_deferred),
                    ("node.migration_entries", mig_processed),
                    ("node.oplog_entries", log.len() as u64),
                    ("node.oplog_armed", is_armed(policy.log_generation).into()),
                ];
                core.reply_stats(client, store, &node);
            }
            Poll::Request(client, request) => {
                if let Some(request) = core.serve(store, &mut policy, client, request) {
                    ops_deferred += 1;
                    deferred.push((client, request));
                }
            }
        }
        core.pace(store, progressed);
    }
    NodeReport {
        requests: core.counts.requests,
        key_ops: core.counts.key_ops,
        malformed: core.counts.malformed,
        wrong_shard_redirects: policy.bounced,
        migration_ops_deferred: ops_deferred,
        migration_entries: mig_processed,
    }
}

/// The slots `shard` owns under the current map, as a bitmask.
fn owned_mask(map: &ShardMap, shard: usize) -> u64 {
    let owners = map.snapshot().owners.into_iter().enumerate();
    owners.fold(0, |mask, (slot, owner)| {
        mask | u64::from(owner == shard) << slot
    })
}

/// The map-following client: routes by a cached [`MapSnapshot`] and
/// chases [`Response::WrongShard`] redirects by refetching the shared
/// map — the elastic mirror of `ssync-repl`'s leader-chasing client.
/// An operation is retried verbatim until some node owns it; since a
/// bounced request executed nothing, the retry loop preserves
/// exactly-once execution at whichever node finally acknowledges.
pub struct ClusterClient<'a> {
    map: &'a ShardMap,
    cached: RefCell<MapSnapshot>,
    nodes: ClientConn,
    redirects: Cell<u64>,
}

impl<'a> ClusterClient<'a> {
    /// A client over one [`cluster_mesh`] connection set, primed with
    /// a fresh map snapshot.
    pub fn new(map: &'a ShardMap, nodes: ClientConn) -> ClusterClient<'a> {
        ClusterClient {
            cached: RefCell::new(map.snapshot()),
            map,
            nodes,
            redirects: Cell::new(0),
        }
    }

    /// `WrongShard` redirects chased so far — each one is a map
    /// refetch a resharding forced on this client.
    pub fn redirects(&self) -> u64 {
        self.redirects.get()
    }

    /// The epoch of the client's cached map.
    pub fn cached_epoch(&self) -> Fence {
        self.cached.borrow().epoch
    }

    /// Scrapes the live introspection snapshot of one node, by index.
    /// Any node answers regardless of what it owns — introspection is
    /// never routed.
    ///
    /// # Errors
    ///
    /// As for [`ServiceClient::stats`].
    pub fn stats(&self, node: usize) -> Result<RegistrySnapshot, WireError> {
        self.nodes.stats(node)
    }

    /// One operation against whoever owns the key: route by the cached
    /// map, chase `WrongShard` redirects (refetching a map at least as
    /// fresh as the bouncing node's) until an owner executes.
    fn call_owner(&self, key: u64, request: &Request) -> Result<Response, WireError> {
        loop {
            let owner = self.cached.borrow().owner_of_key(key);
            match self.nodes.conn(owner).call(request)? {
                Response::WrongShard { map_epoch } => {
                    self.redirects.set(self.redirects.get() + 1);
                    // The shared map can trail the bouncer's view only
                    // momentarily; spin the refetch up to its floor.
                    loop {
                        let snap = self.map.snapshot();
                        let fresh = snap.epoch >= map_epoch;
                        *self.cached.borrow_mut() = snap;
                        if fresh {
                            break;
                        }
                        core::hint::spin_loop();
                    }
                }
                response => return Ok(response),
            }
        }
    }

    /// Looks a key up; `Some((version, value))` on a hit.
    ///
    /// # Errors
    ///
    /// [`WireError`] on an undecodable or out-of-protocol reply.
    pub fn get(&self, key: u64) -> Result<ReadHit, WireError> {
        self.call_owner(key, &Request::Get { key })?
            .into_read("Get")
    }

    /// Stores a value; returns its new CAS version. Blocks while the
    /// key's slot is frozen mid-migration (the bounded unavailability
    /// window a cutover imposes on writes).
    ///
    /// # Errors
    ///
    /// [`WireError`] on an undecodable or out-of-protocol reply.
    pub fn set(&self, key: u64, value: Vec<u8>) -> Result<u64, WireError> {
        self.call_owner(key, &Request::Set { key, value })?
            .into_stored()
    }

    /// Compare-and-set; the inner result is the CAS outcome.
    ///
    /// # Errors
    ///
    /// [`WireError`] on an undecodable or out-of-protocol reply.
    pub fn cas(
        &self,
        key: u64,
        value: Vec<u8>,
        expected: u64,
    ) -> Result<Result<u64, u64>, WireError> {
        let request = Request::Cas {
            key,
            expected,
            value,
        };
        self.call_owner(key, &request)?.into_cas()
    }

    /// Deletes a key; `Some(tombstone_version)` if it existed.
    ///
    /// # Errors
    ///
    /// [`WireError`] on an undecodable or out-of-protocol reply.
    pub fn delete(&self, key: u64) -> Result<Option<u64>, WireError> {
        self.call_owner(key, &Request::Delete { key })?
            .into_deleted()
    }

    /// Tells every node this client is done, consuming the client.
    pub fn close(self) {
        self.nodes.close();
    }
}

impl ssync_srv::KvClient for ClusterClient<'_> {
    fn get(&self, key: u64) -> Result<ReadHit, WireError> {
        ClusterClient::get(self, key)
    }

    /// Key-by-key under elastic routing: a batch frame can only target
    /// one node, and mid-migration the members of a batch may be owned
    /// by different nodes under different epochs.
    fn get_many(&self, keys: &[u64]) -> Result<Vec<ReadHit>, WireError> {
        keys.iter()
            .map(|&key| ClusterClient::get(self, key))
            .collect()
    }

    fn set(&self, key: u64, value: Vec<u8>) -> Result<u64, WireError> {
        ClusterClient::set(self, key, value)
    }

    fn cas(&self, key: u64, value: Vec<u8>, expected: u64) -> Result<Result<u64, u64>, WireError> {
        ClusterClient::cas(self, key, value, expected)
    }

    fn delete(&self, key: u64) -> Result<Option<u64>, WireError> {
        ClusterClient::delete(self, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssync_locks::TicketLock;
    use ssync_srv::router::key_bytes;

    fn stores(n: usize) -> Vec<KvStore<TicketLock>> {
        (0..n).map(|_| KvStore::new(64, 8)).collect()
    }

    fn logs(n: usize) -> Vec<OpLog> {
        (0..n).map(|_| OpLog::new(4096)).collect()
    }

    /// Regression: an over-long value used to panic in the encoder
    /// instead of coming back as an error.
    #[test]
    fn oversized_values_are_errors_not_panics() {
        use ssync_srv::wire::MAX_VALUE_LEN;
        let map = ShardMap::new(1);
        let (stores, logs) = (stores(1), logs(1));
        let (mut endpoints, mut conns, _mig) = cluster_mesh(1, 1, 16, 16);
        std::thread::scope(|s| {
            let endpoint = endpoints.pop().unwrap();
            s.spawn(|| serve_cluster_node(0, &stores[0], &logs[0], &map, endpoint));
            let client = ClusterClient::new(&map, conns.pop().unwrap());
            let refused = WireError::ValueTooLong(MAX_VALUE_LEN + 1);
            let big = vec![0; MAX_VALUE_LEN + 1];
            assert_eq!(client.set(1, big.clone()), Err(refused));
            assert_eq!(client.cas(1, big, 0), Err(refused));
            let version = client.set(1, vec![0; MAX_VALUE_LEN]).unwrap();
            assert_eq!(client.get(1).unwrap().unwrap().0, version);
            client.close();
        });
    }

    #[test]
    fn routes_and_serves_under_the_initial_map() {
        let map = ShardMap::new(2);
        let stores = stores(2);
        let logs = logs(2);
        let (endpoints, mut conns, _mig) = cluster_mesh(2, 1, 16, 16);
        std::thread::scope(|s| {
            for (shard, endpoint) in endpoints.into_iter().enumerate() {
                let (store, log, map) = (&stores[shard], &logs[shard], &map);
                s.spawn(move || serve_cluster_node(shard, store, log, map, endpoint));
            }
            let client = ClusterClient::new(&map, conns.pop().unwrap());
            assert!(client.get(1).unwrap().is_none());
            let v1 = client.set(1, b"one".to_vec()).unwrap();
            let (v, value) = client.get(1).unwrap().unwrap();
            assert_eq!((v, value.as_slice()), (v1, b"one".as_slice()));
            let v2 = client.cas(1, b"two".to_vec(), v1).unwrap().unwrap();
            assert_eq!(client.cas(1, b"x".to_vec(), v1).unwrap(), Err(v2));
            assert!(client.delete(1).unwrap().is_some());
            assert!(client.delete(1).unwrap().is_none());
            assert_eq!(client.redirects(), 0);
            client.close();
        });
        // Writes landed on the store owning the key's slot — and, with
        // no migration armed, nothing was logged anywhere.
        let owner = map.owner_of(slot_of(1));
        assert_eq!(stores[owner].stats_snapshot().sets, 2);
        assert_eq!(stores[owner ^ 1].stats_snapshot().sets, 0);
        assert!(logs.iter().all(OpLog::is_empty));
    }

    #[test]
    fn stale_client_is_redirected_after_a_cutover() {
        let map = ShardMap::new(1);
        let stores = stores(2);
        let logs = logs(2);
        let (endpoints, mut conns, _mig) = cluster_mesh(2, 1, 16, 16);
        let reports = std::thread::scope(|s| {
            let nodes: Vec<_> = endpoints
                .into_iter()
                .enumerate()
                .map(|(shard, endpoint)| {
                    let (store, log, map) = (&stores[shard], &logs[shard], &map);
                    s.spawn(move || serve_cluster_node(shard, store, log, map, endpoint))
                })
                .collect();
            // Client snapshots the 1-shard map, then the map grows.
            let client = ClusterClient::new(&map, conns.pop().unwrap());
            assert_eq!(client.cached_epoch(), Fence::FIRST);
            let next: Vec<usize> = (0..ssync_srv::ROUTE_SLOTS).map(|s| s % 2).collect();
            map.stage(&next);
            map.try_cutover(map.view(), 2).unwrap();
            // Writes to slots now owned by shard 1 bounce once, then
            // land; the client's map refreshes along the way.
            for key in 0..32 {
                client.set(key, vec![7]).unwrap();
            }
            assert!(client.redirects() > 0, "an odd-slot key must redirect");
            assert_eq!(client.cached_epoch(), Fence::from_wire(2));
            for key in 0..32 {
                assert_eq!(client.get(key).unwrap().unwrap().1, vec![7]);
            }
            client.close();
            nodes
                .into_iter()
                .map(|n| n.join().unwrap())
                .collect::<Vec<_>>()
        });
        assert!(!stores[1].is_empty(), "shard 1 owns half the slots");
        let redirected: u64 = reports.iter().map(|r| r.wrong_shard_redirects).sum();
        assert!(redirected > 0, "server-side redirect counter must move");
    }

    #[test]
    fn stats_scrape_works_live_and_survives_malformed_frames() {
        let map = ShardMap::new(2);
        let stores = stores(2);
        let logs = logs(2);
        let (endpoints, mut conns, _mig) = cluster_mesh(2, 1, 16, 16);
        std::thread::scope(|s| {
            for (shard, endpoint) in endpoints.into_iter().enumerate() {
                let (store, log, map) = (&stores[shard], &logs[shard], &map);
                s.spawn(move || serve_cluster_node(shard, store, log, map, endpoint));
            }
            let client = ClusterClient::new(&map, conns.pop().unwrap());
            for key in 0..32u64 {
                client.set(key, vec![9]).unwrap();
                client.get(key).unwrap().unwrap();
            }
            // Every node answers a scrape, and the counters add up.
            let before: Vec<_> = (0..2).map(|n| client.stats(n).unwrap()).collect();
            // Steady state: no migration, so no log and nothing in it.
            for snap in &before {
                assert_eq!(snap.counter("node.oplog_armed"), Some(0));
                assert_eq!(snap.counter("node.oplog_entries"), Some(0));
            }
            let sets: u64 = before
                .iter()
                .map(|s| s.counter("store.sets").unwrap())
                .sum();
            assert_eq!(sets, 32);
            let requests: u64 = before
                .iter()
                .map(|s| s.counter("srv.requests").unwrap())
                .sum();
            assert!(requests >= 64, "every op lands somewhere: {requests}");
            // A garbage frame is refused, not fatal...
            let conn = client.nodes.conn(0);
            conn.tx.send([0xEE; ssync_mp::MSG_WORDS]);
            assert_eq!(conn.recv(), Ok(Response::Malformed));
            // ...the next scrape counts it, and serving continues.
            let after = client.stats(0).unwrap();
            assert_eq!(after.counter("srv.malformed"), Some(1));
            assert!(client.get(1).unwrap().is_some());
            client.close();
        });
    }

    #[test]
    fn frozen_slot_defers_writes_until_unfrozen_and_reads_flow() {
        let map = ShardMap::new(1);
        let stores = stores(1);
        let logs = logs(1);
        let (endpoints, mut conns, _mig) = cluster_mesh(1, 2, 16, 16);
        let key = 3u64;
        std::thread::scope(|s| {
            for (shard, endpoint) in endpoints.into_iter().enumerate() {
                let (store, log, map) = (&stores[shard], &logs[shard], &map);
                s.spawn(move || serve_cluster_node(shard, store, log, map, endpoint));
            }
            let writer_conn = conns.pop().unwrap();
            let client = ClusterClient::new(&map, conns.pop().unwrap());
            let oplog = |client: &ClusterClient| {
                let snap = client.stats(0).unwrap();
                let row = |name| snap.counter(name).unwrap();
                (row("node.oplog_armed"), row("node.oplog_entries"))
            };
            // A write made before any migration is in the store only;
            // one made after the node acknowledged an arming is logged.
            client.set(key, b"unlogged".to_vec()).unwrap();
            let generation = map.arm_logs();
            while map.arming.acked(0) != Some((generation, 0)) {
                std::thread::yield_now();
            }
            let v1 = client.set(key, b"before".to_vec()).unwrap();
            assert_eq!(oplog(&client), (1, 1));
            assert_eq!(logs[0].entries_after(0)[0].version, v1);
            // Freeze the key's slot, as a coordinator's final drain
            // would, and wait for the node's round-tagged quiesce ack:
            // it carries the highest version *logged*.
            let round = map.freeze(1 << slot_of(key));
            while map.quiesce.acked(0).is_none_or(|(r, _)| r != round) {
                std::thread::yield_now();
            }
            assert_eq!(map.quiesce.acked(0), Some((round, v1)));
            // A write to the frozen slot parks inside the node...
            let map_ref = &map;
            let writer = s.spawn(move || {
                let second = ClusterClient::new(map_ref, writer_conn);
                let version = second.set(key, b"after".to_vec()).unwrap();
                second.close();
                version
            });
            // ...which the node's own scrape shows while it is parked...
            let parked = |client: &ClusterClient| {
                let snap = client.stats(0).unwrap();
                snap.counter("node.migration_ops_deferred").unwrap()
            };
            while parked(&client) == 0 {
                std::thread::yield_now();
            }
            // ...while reads on the same slot keep being served.
            assert_eq!(client.get(key).unwrap().unwrap().1, b"before".to_vec());
            map.unfreeze(1 << slot_of(key));
            let v2 = writer.join().unwrap();
            assert!(v2 > v1);
            assert_eq!(client.get(key).unwrap().unwrap().1, b"after".to_vec());
            assert_eq!(parked(&client), 1);
            // Disarmed, the node drops its log and stops logging.
            assert_eq!(oplog(&client), (1, 2));
            map.disarm_logs();
            while oplog(&client).0 == 1 {
                std::thread::yield_now();
            }
            client.set(key, b"unlogged again".to_vec()).unwrap();
            assert_eq!(oplog(&client), (0, 0));
            client.close();
        });
        assert!(logs[0].is_empty());
    }

    /// Regression: a connection that says `Stop` twice used to retire
    /// two clients' worth of the node's live count.
    #[test]
    fn duplicate_stop_degrades_one_connection_not_the_node() {
        let map = ShardMap::new(1);
        let stores = stores(1);
        let logs = logs(1);
        let (mut endpoints, mut conns, _mig) = cluster_mesh(1, 2, 16, 16);
        let report = std::thread::scope(|s| {
            let (store, log, map_ref) = (&stores[0], &logs[0], &map);
            let endpoint = endpoints.pop().unwrap();
            let node = s.spawn(move || serve_cluster_node(0, store, log, map_ref, endpoint));
            let rude = conns.pop().unwrap();
            rude.conn(0).send(&Request::Stop).unwrap();
            rude.conn(0).send(&Request::Stop).unwrap();
            let survivor = ClusterClient::new(&map, conns.pop().unwrap());
            for key in 0..64 {
                survivor.set(key, vec![1; 8]).unwrap();
            }
            let snap = survivor.stats(0).unwrap();
            assert_eq!(snap.counter("srv.malformed"), Some(1));
            assert_eq!(rude.conn(0).try_recv(), Ok(None), "no reply to a Stop");
            survivor.close();
            node.join().unwrap()
        });
        assert_eq!((report.requests, report.malformed), (65, 1));
    }

    #[test]
    fn migration_stream_applies_and_publishes_progress() {
        let map = ShardMap::new(1);
        let stores = stores(2);
        let logs = logs(2);
        let (endpoints, mut conns, mig) = cluster_mesh(2, 1, 16, 64);
        std::thread::scope(|s| {
            for (shard, endpoint) in endpoints.into_iter().enumerate() {
                let (store, log, map) = (&stores[shard], &logs[shard], &map);
                s.spawn(move || serve_cluster_node(shard, store, log, map, endpoint));
            }
            // Stream three entries (one a long value, one a tombstone)
            // into node 1, which owns nothing under the map.
            let mut frames = Vec::new();
            let long: Vec<u8> = (0..300).map(|i| (i % 256) as u8).collect();
            for request in [
                Request::Replicate {
                    key: 8,
                    version: 5,
                    value: b"v".to_vec(),
                },
                Request::Replicate {
                    key: 9,
                    version: 6,
                    value: long.clone(),
                },
                Request::ReplicateDelete { key: 8, version: 7 },
            ] {
                request.encode_into(&mut frames);
                mig[1].send_all_connected(&frames).unwrap();
            }
            while map.migrated_of(1) < 3 {
                std::thread::yield_now();
            }
            let client = ClusterClient::new(&map, conns.pop().unwrap());
            client.close();
        });
        assert!(stores[1].get(&key_bytes(8)).is_none(), "tombstone applied");
        let (v, value) = stores[1].get_with_version(&key_bytes(9)).unwrap();
        assert_eq!(v, 6);
        assert_eq!(value.as_ref().len(), 300);
    }

    /// Frames on the migration stream that are not entries — a head
    /// with an unknown opcode, a well-formed client `Get` — are counted
    /// malformed and skipped, yet still count as processed: a
    /// coordinator waiting for the stream to drain cannot hang on them.
    /// Neither frame announces continuations, so neither decode pulls.
    #[test]
    fn migration_stream_survives_garbage() {
        let map = ShardMap::new(2);
        let stores = stores(2);
        let logs = logs(2);
        let (endpoints, mut conns, mig) = cluster_mesh(2, 1, 16, 64);
        let owned = (0u64..).find(|&k| map.owner_of(slot_of(k)) == 1).unwrap();
        std::thread::scope(|s| {
            for (shard, endpoint) in endpoints.into_iter().enumerate() {
                let (store, log, map) = (&stores[shard], &logs[shard], &map);
                s.spawn(move || serve_cluster_node(shard, store, log, map, endpoint));
            }
            let mut unknown = [0; ssync_mp::MSG_WORDS];
            unknown[0] = 0xEE;
            mig[1].send(unknown);
            let mut frames = Vec::new();
            let entries = [(owned, 5), (owned + 1, 6)].map(|(key, version)| Request::Replicate {
                key,
                version,
                value: b"v".to_vec(),
            });
            for request in [&Request::Get { key: owned }, &entries[0], &entries[1]] {
                request.encode_into(&mut frames);
                mig[1].send_all_connected(&frames).unwrap();
            }
            while map.migrated_of(1) < 4 {
                std::thread::yield_now();
            }
            assert_eq!(stores[1].len(), 2, "only the two entries applied");
            let client = ClusterClient::new(&map, conns.pop().unwrap());
            let scrape = client.stats(1).unwrap();
            assert_eq!(scrape.counter("srv.malformed"), Some(2));
            assert_eq!(scrape.counter("node.migration_entries"), Some(4));
            assert_eq!(client.get(owned).unwrap().unwrap().0, 5);
            let version = client.set(owned, b"w".to_vec()).unwrap();
            assert_eq!(client.get(owned).unwrap(), Some((version, b"w".to_vec())));
            client.close();
        });
        let (v, _) = stores[1].get_with_version(&key_bytes(owned + 1)).unwrap();
        assert_eq!(v, 6);
    }

    /// Regression: the drain pulled an entry's continuation frames with
    /// a receive that never gives up, so a coordinator that died after
    /// a long value's head frame wedged the node for every client. The
    /// truncated entry is counted malformed, neither applied nor counted
    /// as migrated, and the node keeps serving. Detached under a
    /// deadline, so a wedged node fails instead of hanging the suite.
    #[test]
    fn coordinator_dying_mid_entry_is_counted_and_the_node_keeps_serving() {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let map = ShardMap::new(2);
            let (stores, logs) = (stores(2), logs(2));
            let (endpoints, mut conns, mut mig) = cluster_mesh(2, 1, 16, 64);
            let owned = (0u64..).find(|&k| map.owner_of(slot_of(k)) == 1).unwrap();
            let report = std::thread::scope(|s| {
                let nodes: Vec<_> = endpoints
                    .into_iter()
                    .enumerate()
                    .map(|(shard, endpoint)| {
                        let (store, log, map) = (&stores[shard], &logs[shard], &map);
                        s.spawn(move || serve_cluster_node(shard, store, log, map, endpoint))
                    })
                    .collect();
                let entry = Request::Replicate {
                    key: owned,
                    version: 5,
                    value: vec![7; 300],
                };
                let stream = mig.pop().unwrap();
                stream.send(entry.encode()[0]);
                drop(stream);
                let client = ClusterClient::new(&map, conns.pop().unwrap());
                while client.stats(1).unwrap().counter("srv.malformed") != Some(1) {
                    std::thread::yield_now();
                }
                assert_eq!(
                    client.get(owned),
                    Ok(None),
                    "a truncated entry applies nothing"
                );
                let version = client.set(owned, b"w".to_vec()).unwrap();
                assert_eq!(client.get(owned).unwrap(), Some((version, b"w".to_vec())));
                client.close();
                let mut reports = nodes.into_iter().map(|n| n.join().unwrap());
                reports.nth(1).unwrap()
            });
            assert_eq!(map.migrated_of(1), 0);
            done_tx.send(report).unwrap();
        });
        let report = done_rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("a coordinator that died mid-entry wedged the node");
        assert_eq!((report.malformed, report.migration_entries), (1, 0));
    }
}
