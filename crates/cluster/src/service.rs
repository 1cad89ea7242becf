//! Cluster node servers and the map-following client.
//!
//! One [`serve_cluster_node`] thread per shard, over the ring
//! transport. A node is the `ssync-srv` shard server plus the three
//! duties elastic routing adds:
//!
//! * **Ownership fencing** — every request is routed against the live
//!   [`ShardMap`] before executing; a key whose slot the node does not
//!   own under its current map is bounced with
//!   [`Response::WrongShard`] (nothing executes), and the client
//!   refetches the map and retries. An operation is therefore executed
//!   by exactly the node that acknowledges it.
//! * **The freeze protocol** — writes to slots frozen for a
//!   migration's final drain are *deferred* (parked in the node, the
//!   client blocked on its reply) and re-examined each loop pass:
//!   after an aborted migration they execute here; after a cutover
//!   the node no longer owns them and they bounce to the new owner.
//!   Reads keep being served throughout — the freeze window is
//!   write-unavailability only, and it is bounded by the final delta
//!   drain, not the whole copy.
//! * **The migration stream** — a per-node SPSC ring the coordinator
//!   replays `Replicate`/`ReplicateDelete` frames over. Entries apply
//!   through the store's per-key version gate
//!   ([`KvStore::apply_replicated`]), so replayed duplicates after a
//!   faulted attempt drop as stale; progress is published to the map
//!   so the coordinator can prove the stream drained.
//!
//! Ordering discipline (the heart of the zero-lost-writes argument;
//! model-checked in `tests/chk_models.rs`): the write path loads the
//! freeze mask *before* routing. If the mask already shows this
//! round's freeze, the write defers — safe. If it does not, either the
//! freeze is not up yet (the write lands before the node's quiesce ack
//! and the final delta carries it), or the mask was cleared *after*
//! the cutover — and because the coordinator unfreezes only after the
//! cutover CAS, the Acquire mask load then guarantees the route read
//! sees the new map and the write bounces to the new owner. In no
//! interleaving does a moved-slot write land on the old owner after
//! the final delta was read.

use core::cell::{Cell, RefCell};

use bytes::Bytes;

use ssync_core::{ParkingWait, RegistrySnapshot};
use ssync_kv::KvStore;
use ssync_locks::RawLock;
use ssync_mp::{
    ring_channel, Message, MsgReceiver, MsgSender, RingReceiver, RingSender, ServerHub,
};
use ssync_repl::{LogEntry, LogOp, OpLog};
use ssync_srv::router::key_bytes;
use ssync_srv::slot_of;
use ssync_srv::wire::{Request, Response, WireError};

use crate::map::{MapSnapshot, ShardMap};
use crate::sync::atomic::Ordering;

/// A cluster node's side of the mesh: per-client request/reply rings
/// plus the coordinator's migration stream.
pub struct ClusterNodeEndpoint {
    requests: Vec<RingReceiver>,
    replies: Vec<RingSender>,
    migration: RingReceiver,
}

/// One client's per-shard `(request sender, reply receiver)` pairs.
pub type ClientConn = Vec<(RingSender, RingReceiver)>;

/// What [`cluster_mesh`] returns: node endpoints (element `s` serves
/// shard `s`), client connections, and the per-shard migration-stream
/// senders the coordinator keeps.
pub type ClusterMesh = (Vec<ClusterNodeEndpoint>, Vec<ClientConn>, Vec<RingSender>);

/// Builds the ring mesh for `shards` nodes × `clients` clients, with a
/// `mig_depth`-deep migration stream into every node. Every client
/// gets a connection to every node — including shards that own nothing
/// under the current map, so a fleet can grow without re-wiring.
///
/// # Panics
///
/// Panics if any dimension is zero or a depth is not a power of two.
pub fn cluster_mesh(shards: usize, clients: usize, depth: usize, mig_depth: usize) -> ClusterMesh {
    assert!(shards > 0 && clients > 0);
    let mut endpoints: Vec<ClusterNodeEndpoint> = Vec::with_capacity(shards);
    let mut mig_senders = Vec::with_capacity(shards);
    for _ in 0..shards {
        let (mig_tx, mig_rx) = ring_channel(mig_depth);
        mig_senders.push(mig_tx);
        endpoints.push(ClusterNodeEndpoint {
            requests: Vec::with_capacity(clients),
            replies: Vec::with_capacity(clients),
            migration: mig_rx,
        });
    }
    let mut conns: Vec<ClientConn> = Vec::with_capacity(clients);
    for _ in 0..clients {
        let mut per_shard = Vec::with_capacity(shards);
        for endpoint in endpoints.iter_mut() {
            let (req_tx, req_rx) = ring_channel(depth);
            let (rep_tx, rep_rx) = ring_channel(depth);
            endpoint.requests.push(req_rx);
            endpoint.replies.push(rep_tx);
            per_shard.push((req_tx, rep_rx));
        }
        conns.push(per_shard);
    }
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

/// What executing one request produced.
enum Served {
    /// Responses to send, in order.
    Replies(Vec<Response>),
    /// The write's slot is frozen: park the request, reply later.
    Deferred(Request),
}

/// Runs one cluster node: serve clients, drain the migration stream,
/// and keep the freeze handshake current, until every client sent
/// [`Request::Stop`]. Returns once the last client stops.
pub fn serve_cluster_node<R: RawLock + Default>(
    me: usize,
    store: &KvStore<R>,
    log: &OpLog,
    map: &ShardMap,
    endpoint: ClusterNodeEndpoint,
) -> NodeReport {
    let ClusterNodeEndpoint {
        requests,
        replies,
        migration,
    } = endpoint;
    let mut live = requests.len();
    let mut hub = ServerHub::new(requests);
    let mut report = NodeReport::default();
    let mut frames: Vec<Message> = Vec::new();
    let mut deferred: Vec<(usize, Request)> = Vec::new();
    let mut wait = ParkingWait::new();
    // Highest op-log version this node assigned — what it quiesces at.
    let mut last_version = 0u64;
    // The freeze round this node last acknowledged.
    let mut acked_round = 0u64;
    // Cumulative migration-stream entries processed.
    let mut mig_processed = 0u64;
    // Online reclamation cadence: one epoch advance-and-collect pass
    // per RECLAIM_PERIOD progressed loop turns — client writes and
    // migration-stream applies both retire displaced nodes, and the
    // pass keeps that backlog bounded without a quiescent point.
    const RECLAIM_PERIOD: u64 = 1024;
    let mut since_reclaim = 0u64;
    while live > 0 {
        let mut progressed = false;
        // Quiesce handshake: reading the round first (Acquire) is what
        // guarantees the freeze bits of that round are visible, and —
        // by per-object coherence on the single-threaded node — every
        // later mask load this pass and beyond still sees them, so no
        // frozen-slot write can slip through after this ack.
        let round = map.round();
        if round != acked_round {
            let mine = owned_mask(map, me);
            if map.frozen() & mine != 0 {
                map.publish_quiesced(me, round, last_version);
                acked_round = round;
                progressed = true;
            }
        }
        // Drain the migration stream.
        while let Some(head) = migration.try_recv() {
            progressed = true;
            match Request::decode(head, || migration.recv()) {
                Ok(Request::Replicate {
                    key,
                    version,
                    value,
                }) => {
                    store.apply_replicated(&key_bytes(key), version, Some(&value));
                }
                Ok(Request::ReplicateDelete { key, version }) => {
                    store.apply_replicated(&key_bytes(key), version, None);
                }
                _ => report.malformed += 1,
            }
            mig_processed += 1;
            report.migration_entries += 1;
            map.publish_migrated(me, mig_processed);
        }
        // Re-examine parked writes: an aborted migration unfreezes
        // them here, a completed one bounces them to the new owner.
        if !deferred.is_empty() {
            let mut still = Vec::new();
            for (client, request) in deferred.drain(..) {
                match execute(me, store, log, map, request, &mut last_version, &mut report) {
                    Served::Replies(responses) => {
                        progressed = true;
                        reply(&replies[client], &responses, &mut frames);
                    }
                    Served::Deferred(request) => still.push((client, request)),
                }
            }
            deferred = still;
        }
        // Poll the clients once.
        if let Some((client, head)) = hub.try_recv_from_any() {
            progressed = true;
            match Request::decode(head, || hub.recv_from(client)) {
                Err(_) => {
                    report.malformed += 1;
                    reply(&replies[client], &[Response::Malformed], &mut frames);
                }
                Ok(Request::Stop) => live -= 1,
                Ok(request) => {
                    report.requests += 1;
                    match execute(me, store, log, map, request, &mut last_version, &mut report) {
                        Served::Replies(responses) => {
                            reply(&replies[client], &responses, &mut frames);
                        }
                        Served::Deferred(request) => {
                            report.migration_ops_deferred += 1;
                            store
                                .stats()
                                .migration_ops_deferred
                                .fetch_add(1, Ordering::Relaxed);
                            deferred.push((client, request));
                        }
                    }
                }
            }
        }
        if progressed {
            since_reclaim += 1;
            if since_reclaim >= RECLAIM_PERIOD {
                since_reclaim = 0;
                store.reclaim_pass();
            }
            wait.reset();
        } else {
            wait.snooze();
        }
    }
    report
}

/// The slots `shard` owns under the current map, as a bitmask.
fn owned_mask(map: &ShardMap, shard: usize) -> u64 {
    map.snapshot()
        .owners
        .iter()
        .enumerate()
        .filter(|&(_, &owner)| owner == shard)
        .fold(0, |mask, (slot, _)| mask | 1 << slot)
}

/// Encodes and sends each response to one client, in order.
fn reply(tx: &RingSender, responses: &[Response], frames: &mut Vec<Message>) {
    for response in responses {
        response.encode_into(frames);
        for &frame in frames.iter() {
            tx.send(frame);
        }
    }
}

/// Executes one request at node `me`, or asks for it to be deferred.
fn execute<R: RawLock + Default>(
    me: usize,
    store: &KvStore<R>,
    log: &OpLog,
    map: &ShardMap,
    request: Request,
    last_version: &mut u64,
    report: &mut NodeReport,
) -> Served {
    let bounce = |at: u64, report: &mut NodeReport| {
        report.wrong_shard_redirects += 1;
        store
            .stats()
            .wrong_shard_redirects
            .fetch_add(1, Ordering::Relaxed);
        Response::WrongShard { map_epoch: at }
    };
    // The read path: ownership is fenced, the freeze is not — reads
    // stay available for the whole migration.
    let lookup = |key: u64, report: &mut NodeReport| {
        report.key_ops += 1;
        let (owner, at) = map.route(key);
        if owner != me {
            return bounce(at, report);
        }
        match store.get_with_version(&key_bytes(key)) {
            Some((version, value)) => Response::Value {
                version,
                value: value.as_ref().to_vec(),
            },
            None => Response::Miss,
        }
    };
    // The write path: the mask load MUST precede the route — see the
    // module docs for why the other order loses acknowledged writes.
    macro_rules! fence_write {
        ($key:expr, $request:expr) => {{
            let frozen = map.frozen();
            let (owner, at) = map.route($key);
            if owner != me {
                report.key_ops += 1;
                return Served::Replies(vec![bounce(at, report)]);
            }
            if frozen & (1 << slot_of($key)) != 0 {
                return Served::Deferred($request);
            }
            report.key_ops += 1;
        }};
    }
    match request {
        Request::Get { key } => Served::Replies(vec![lookup(key, report)]),
        // A timed read routes exactly like a plain one — the stamp only
        // shapes the client-side open-loop measurement. Cluster nodes
        // keep no per-node histograms; the latency split lives in the
        // single-shard service.
        Request::TimedGet { key, .. } => Served::Replies(vec![lookup(key, report)]),
        // Introspection: flatten the live report and store counters
        // into a registry snapshot, assembled only when asked for.
        Request::Stats => {
            let mut snap = RegistrySnapshot::default();
            let s = store.stats_snapshot();
            for (name, value) in [
                ("node.requests", report.requests),
                ("node.key_ops", report.key_ops),
                ("node.malformed", report.malformed),
                ("node.wrong_shard_redirects", report.wrong_shard_redirects),
                ("node.migration_ops_deferred", report.migration_ops_deferred),
                ("node.migration_entries", report.migration_entries),
                ("store.hits", s.hits),
                ("store.misses", s.misses),
                ("store.sets", s.sets),
                ("store.deletes", s.deletes),
                ("store.cas_failures", s.cas_failures),
                ("store.repl_applied", s.repl_applied),
                ("store.migration_ops_deferred", s.migration_ops_deferred),
                ("store.wrong_shard_redirects", s.wrong_shard_redirects),
                ("store.epochs_advanced", s.epochs_advanced),
                ("store.nodes_reclaimed", s.nodes_reclaimed),
                ("store.reclaim_backlog", s.reclaim_backlog),
            ] {
                snap.counters.push((name.to_string(), value));
            }
            Served::Replies(vec![Response::StatsReply {
                payload: snap.to_bytes(),
            }])
        }
        Request::MultiGet { keys } => Served::Replies(
            keys.iter()
                .map(|&key| lookup(key, report))
                .collect::<Vec<_>>(),
        ),
        Request::Set { key, value } => {
            fence_write!(key, Request::Set { key, value });
            let value = Bytes::from(value);
            let version = store.set(&key_bytes(key), value.clone());
            log.append(LogEntry {
                key,
                version,
                op: LogOp::Put(value),
            });
            *last_version = version;
            Served::Replies(vec![Response::Stored { version }])
        }
        Request::Cas {
            key,
            expected,
            value,
        } => {
            fence_write!(
                key,
                Request::Cas {
                    key,
                    expected,
                    value,
                }
            );
            let value = Bytes::from(value);
            Served::Replies(vec![
                match store.cas(&key_bytes(key), value.clone(), expected) {
                    Ok(version) => {
                        log.append(LogEntry {
                            key,
                            version,
                            op: LogOp::Put(value),
                        });
                        *last_version = version;
                        Response::Stored { version }
                    }
                    Err(current) => Response::CasFail { current },
                },
            ])
        }
        Request::Delete { key } => {
            fence_write!(key, Request::Delete { key });
            Served::Replies(vec![match store.delete_versioned(&key_bytes(key)) {
                Some(version) => {
                    log.append(LogEntry {
                        key,
                        version,
                        op: LogOp::Delete,
                    });
                    *last_version = version;
                    Response::Deleted { version }
                }
                None => Response::NotFound,
            }])
        }
        // Replication traffic arrives on the migration stream, never
        // on a client channel; anywhere else it is refused.
        Request::Replicate { .. }
        | Request::ReplicateDelete { .. }
        | Request::ReplGet { .. }
        | Request::ReplMultiGet { .. } => {
            report.malformed += 1;
            Served::Replies(vec![Response::Malformed])
        }
        Request::Stop => unreachable!("Stop is handled by the serve loop"),
    }
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
    shards: ClientConn,
    frames: RefCell<Vec<Message>>,
    redirects: Cell<u64>,
}

impl<'a> ClusterClient<'a> {
    /// A client over one [`cluster_mesh`] connection set, primed with
    /// a fresh map snapshot.
    pub fn new(map: &'a ShardMap, shards: ClientConn) -> ClusterClient<'a> {
        assert!(!shards.is_empty());
        ClusterClient {
            cached: RefCell::new(map.snapshot()),
            map,
            shards,
            frames: RefCell::new(Vec::new()),
            redirects: Cell::new(0),
        }
    }

    /// `WrongShard` redirects chased so far — each one is a map
    /// refetch a resharding forced on this client.
    pub fn redirects(&self) -> u64 {
        self.redirects.get()
    }

    /// The epoch of the client's cached map.
    pub fn cached_epoch(&self) -> u64 {
        self.cached.borrow().epoch
    }

    /// Scrapes the live introspection snapshot of one node, by index.
    /// Any node answers regardless of what it owns — introspection is
    /// never routed.
    pub fn stats(&self, node: usize) -> Result<RegistrySnapshot, WireError> {
        self.send_request(node, &Request::Stats)?;
        match self.read_response(node)? {
            Response::StatsReply { payload } => {
                RegistrySnapshot::from_bytes(&payload).ok_or(WireError::UnexpectedResponse("Stats"))
            }
            Response::Malformed => Err(WireError::Rejected),
            _ => Err(WireError::UnexpectedResponse("Stats")),
        }
    }

    fn send_request(&self, shard: usize, request: &Request) -> Result<(), WireError> {
        let (tx, _) = &self.shards[shard];
        let mut frames = self.frames.borrow_mut();
        request.encode_into(&mut frames);
        tx.send_all_connected(&frames)
            .map_err(|_| WireError::Disconnected)
    }

    fn read_response(&self, shard: usize) -> Result<Response, WireError> {
        let (_, rx) = &self.shards[shard];
        let head = rx.recv_connected().map_err(|_| WireError::Disconnected)?;
        let mut dead = false;
        let resp = Response::decode(head, || match rx.recv_connected() {
            Ok(m) => m,
            Err(_) => {
                dead = true;
                [0; ssync_mp::MSG_WORDS]
            }
        })?;
        if dead {
            return Err(WireError::Disconnected);
        }
        Ok(resp)
    }

    /// One operation against whoever owns the key: route by the cached
    /// map, chase `WrongShard` redirects (refetching a map at least as
    /// fresh as the bouncing node's) until an owner executes.
    fn call_owner(&self, key: u64, request: &Request) -> Result<Response, WireError> {
        loop {
            let owner = self.cached.borrow().owner_of_key(key);
            self.send_request(owner, request)?;
            match self.read_response(owner)? {
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
    pub fn get(&self, key: u64) -> Result<Option<(u64, Vec<u8>)>, WireError> {
        match self.call_owner(key, &Request::Get { key })? {
            Response::Value { version, value } => Ok(Some((version, value))),
            Response::Miss => Ok(None),
            Response::Malformed => Err(WireError::Rejected),
            _ => Err(WireError::UnexpectedResponse("Get")),
        }
    }

    /// Stores a value; returns its new CAS version. Blocks while the
    /// key's slot is frozen mid-migration (the bounded unavailability
    /// window a cutover imposes on writes).
    ///
    /// # Errors
    ///
    /// [`WireError`] on an undecodable or out-of-protocol reply.
    pub fn set(&self, key: u64, value: Vec<u8>) -> Result<u64, WireError> {
        match self.call_owner(key, &Request::Set { key, value })? {
            Response::Stored { version } => Ok(version),
            Response::Malformed => Err(WireError::Rejected),
            _ => Err(WireError::UnexpectedResponse("Set")),
        }
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
        match self.call_owner(
            key,
            &Request::Cas {
                key,
                expected,
                value,
            },
        )? {
            Response::Stored { version } => Ok(Ok(version)),
            Response::CasFail { current } => Ok(Err(current)),
            Response::Malformed => Err(WireError::Rejected),
            _ => Err(WireError::UnexpectedResponse("Cas")),
        }
    }

    /// Deletes a key; `Some(tombstone_version)` if it existed.
    ///
    /// # Errors
    ///
    /// [`WireError`] on an undecodable or out-of-protocol reply.
    pub fn delete(&self, key: u64) -> Result<Option<u64>, WireError> {
        match self.call_owner(key, &Request::Delete { key })? {
            Response::Deleted { version } => Ok(Some(version)),
            Response::NotFound => Ok(None),
            Response::Malformed => Err(WireError::Rejected),
            _ => Err(WireError::UnexpectedResponse("Delete")),
        }
    }

    /// Tells every node this client is done, consuming the client.
    pub fn close(self) {
        for shard in 0..self.shards.len() {
            let _ = self.send_request(shard, &Request::Stop);
        }
    }
}

impl ssync_srv::KvClient for ClusterClient<'_> {
    fn get(&self, key: u64) -> Result<Option<(u64, Vec<u8>)>, WireError> {
        ClusterClient::get(self, key)
    }

    /// Key-by-key under elastic routing: a batch frame can only target
    /// one node, and mid-migration the members of a batch may be owned
    /// by different nodes under different epochs.
    fn get_many(&self, keys: &[u64]) -> Result<Vec<Option<(u64, Vec<u8>)>>, WireError> {
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

    fn stores(n: usize) -> Vec<KvStore<TicketLock>> {
        (0..n).map(|_| KvStore::new(64, 8)).collect()
    }

    fn logs(n: usize) -> Vec<OpLog> {
        (0..n).map(|_| OpLog::new(4096)).collect()
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
        // Writes landed on the store owning the key's slot, and each
        // state-changing op appended to that shard's log.
        let owner = map.owner_of(slot_of(1));
        assert_eq!(logs[owner].entries_after(0).len(), 3);
        assert_eq!(logs[owner ^ 1].entries_after(0).len(), 0);
    }

    #[test]
    fn stale_client_is_redirected_after_a_cutover() {
        let map = ShardMap::new(1);
        let stores = stores(2);
        let logs = logs(2);
        let (endpoints, mut conns, _mig) = cluster_mesh(2, 1, 16, 16);
        std::thread::scope(|s| {
            for (shard, endpoint) in endpoints.into_iter().enumerate() {
                let (store, log, map) = (&stores[shard], &logs[shard], &map);
                s.spawn(move || serve_cluster_node(shard, store, log, map, endpoint));
            }
            // Client snapshots the 1-shard map, then the map grows.
            let client = ClusterClient::new(&map, conns.pop().unwrap());
            assert_eq!(client.cached_epoch(), 1);
            let next: Vec<usize> = (0..ssync_srv::ROUTE_SLOTS).map(|s| s % 2).collect();
            map.stage(&next);
            map.try_cutover(map.view(), 2).unwrap();
            // Writes to slots now owned by shard 1 bounce once, then
            // land; the client's map refreshes along the way.
            for key in 0..32 {
                client.set(key, vec![7]).unwrap();
            }
            assert!(client.redirects() > 0, "an odd-slot key must redirect");
            assert_eq!(client.cached_epoch(), 2);
            for key in 0..32 {
                assert_eq!(client.get(key).unwrap().unwrap().1, vec![7]);
            }
            client.close();
        });
        assert!(!stores[1].is_empty(), "shard 1 owns half the slots");
        let redirected: u64 = stores
            .iter()
            .map(|s| s.stats_snapshot().wrong_shard_redirects)
            .sum();
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
            let sets: u64 = before
                .iter()
                .map(|s| s.counter("store.sets").unwrap())
                .sum();
            assert_eq!(sets, 32);
            let requests: u64 = before
                .iter()
                .map(|s| s.counter("node.requests").unwrap())
                .sum();
            assert!(requests >= 64, "every op lands somewhere: {requests}");
            // A garbage frame is refused, not fatal...
            client.shards[0].0.send([0xEE; ssync_mp::MSG_WORDS]);
            assert_eq!(client.read_response(0).unwrap(), Response::Malformed);
            // ...the next scrape counts it, and serving continues.
            let after = client.stats(0).unwrap();
            assert_eq!(after.counter("node.malformed"), Some(1));
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
            let v1 = client.set(key, b"before".to_vec()).unwrap();
            // Freeze the key's slot, as a coordinator's final drain
            // would, and wait for the node's round-tagged quiesce ack.
            map.freeze(1 << slot_of(key));
            let round = map.begin_round();
            while map.quiesced_of(0).is_none_or(|(r, _)| r != round) {
                std::thread::yield_now();
            }
            assert_eq!(map.quiesced_of(0), Some((round, v1)));
            // A write to the frozen slot parks inside the node...
            let map_ref = &map;
            let writer = s.spawn(move || {
                let second = ClusterClient::new(map_ref, writer_conn);
                let version = second.set(key, b"after".to_vec()).unwrap();
                second.close();
                version
            });
            while store_deferred(&stores[0]) == 0 {
                std::thread::yield_now();
            }
            // ...while reads on the same slot keep being served.
            assert_eq!(client.get(key).unwrap().unwrap().1, b"before".to_vec());
            map.unfreeze(1 << slot_of(key));
            let v2 = writer.join().unwrap();
            assert!(v2 > v1);
            assert_eq!(client.get(key).unwrap().unwrap().1, b"after".to_vec());
            client.close();
        });
        assert_eq!(store_deferred(&stores[0]), 1);
    }

    fn store_deferred(store: &KvStore<TicketLock>) -> u64 {
        store.stats_snapshot().migration_ops_deferred
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
}
