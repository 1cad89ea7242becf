//! Cluster node servers and the map-following client.
//!
//! One [`serve_cluster_node`] per shard, over the ring transport. The
//! node — polling, decoding, executing, replying, scraping — is
//! `ssync-srv`'s [`NodeCore`], driven by [`run`]; what this module
//! owns is the one node struct whose hooks add elastic routing to it:
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
//!   client waiting on its reply) and re-submitted each turn:
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
//! * **The sweep** — the node, its store's one writer, alone decides
//!   which keys the store holds: on each arming change it deletes the
//!   keys of the slots it does not own, then acks ([`follow_log_arming`]).
//!   An aborted attempt's leftovers leave a target before a new copy
//!   comes; moved keys leave their source at the disarm after the
//!   cutover. No node exits while the logs are armed.
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
use core::ops::ControlFlow;

use bytes::Bytes;

use ssync_core::{Fence, RegistrySnapshot, RetryPacer};
use ssync_kv::KvStore;
use ssync_locks::RawLock;
use ssync_mp::{ring_channel, RingReceiver, RingSender};
use ssync_repl::{EntryView, LogEntry, OpLog};
use ssync_srv::service::{ring_mesh, ServeReport, ServerEndpoint};
use ssync_srv::wire::{Request, Response, WireError};
use ssync_srv::{
    block_on, chase, run, slot_of, Admit, Chase, Conn, Hooks, KvClient, NodeCore, ServiceClient,
    StreamDecoder, Turn, OP_BUDGET,
};

use crate::map::{is_armed, MapSnapshot, ShardMap};
use crate::migrate::pages;

/// Keys per [`KvStore::dump_range`] page of a node's sweep.
const SWEEP_PAGE: usize = 256;

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
    /// Request messages served.
    pub requests: u64,
    /// Key-operations executed.
    pub key_ops: u64,
    /// Undecodable or out-of-protocol frames answered with
    /// [`Response::Malformed`].
    pub malformed: u64,
    /// Requests bounced with [`Response::WrongShard`].
    pub wrong_shard_redirects: u64,
    /// Writes deferred at least once by a migration freeze: the core's
    /// [`ServeReport::deferred`], scraped as `srv.deferred`.
    pub migration_ops_deferred: u64,
    /// Migration-stream entries processed (applied or version-gated).
    pub migration_entries: u64,
    /// Keys in slots the node did not own, deleted by its sweeps.
    pub keys_swept: u64,
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
/// entries nothing will read again — then `sweep` the store, and only
/// then ack. The caller logs its committed writes while `*seen`
/// [`is_armed`]. Returns whether the generation moved.
///
/// The order is the no-lost-write argument: the single-threaded node
/// commits nothing between switching and acking, so every write it
/// committed unlogged precedes the ack's Release — the coordinator's
/// copy, which starts after its Acquire of the ack, reads that write or
/// a newer version of its key — and every later write is logged
/// (`tests/chk_models.rs` model-checks this step, its sweep a no-op).
/// The sweep precedes the ack too: a target's copy starts after it.
pub fn follow_log_arming(
    map: &ShardMap,
    me: usize,
    log: &OpLog,
    seen: &mut Fence,
    sweep: impl FnOnce(),
) -> bool {
    let leaving_armed = is_armed(*seen);
    map.arming.follow(me, seen, |_| {
        if leaving_armed {
            log.truncate_through(u64::MAX);
        }
        sweep();
        Some(0)
    })
}

/// Deletes every key `store` holds in a slot `me` does not own under
/// the current map, a page at a time; returns how many it deleted.
fn sweep_unowned<R: RawLock + Default>(store: &KvStore<R>, map: &ShardMap, me: usize) -> u64 {
    let owned = owned_mask(map, me);
    let unowned = pages(store, SWEEP_PAGE).flatten().filter(|(key, ..)| {
        let k = u64::from_be_bytes(key.as_ref().try_into().expect("8-byte keys"));
        owned & (1 << slot_of(k)) == 0
    });
    unowned
        .filter(|(key, ..)| store.delete_versioned(key).is_some())
        .count() as u64
}

/// One cluster node, as the [`Hooks`] of the one node loop: what
/// [`serve_cluster_node`] runs, and what a stepped driver turns
/// ([`ssync_srv::step`]).
pub struct ClusterNode<'a, R: RawLock + Default> {
    me: usize,
    store: &'a KvStore<R>,
    map: &'a ShardMap,
    log: &'a OpLog,
    migration: RingReceiver,
    /// The migration stream's decode, resumed each turn.
    inbox: StreamDecoder,
    /// The arming generation this node last acknowledged
    /// ([`follow_log_arming`]); armed = log every committed write.
    log_generation: Fence,
    /// Highest version logged under `log_generation` — what the node
    /// quiesces at. Versions it assigned while unarmed are not in it:
    /// the coordinator's final delta has to reach the log's end, not
    /// the store's.
    last_logged: u64,
    /// The quiesce round this node last acknowledged.
    acked_round: Fence,
    report: NodeReport,
}

impl<'a, R: RawLock + Default> ClusterNode<'a, R> {
    /// Node `me`, and the core that serves its clients.
    pub fn new(
        me: usize,
        store: &'a KvStore<R>,
        log: &'a OpLog,
        map: &'a ShardMap,
        endpoint: ClusterNodeEndpoint,
    ) -> (NodeCore<RingReceiver, RingSender>, Self) {
        let ClusterNodeEndpoint { clients, migration } = endpoint;
        let node = ClusterNode {
            me,
            store,
            map,
            log,
            migration,
            inbox: StreamDecoder::default(),
            log_generation: Fence::default(),
            last_logged: 0,
            acked_round: Fence::default(),
            report: NodeReport::default(),
        };
        (NodeCore::new(clients), node)
    }
}

impl<R: RawLock + Default> ClusterNode<'_, R> {
    /// What this node did, with `core`'s counts.
    pub fn report(&self, core: &NodeCore<RingReceiver, RingSender>) -> NodeReport {
        let counts = core.report();
        NodeReport {
            requests: counts.requests,
            key_ops: counts.key_ops,
            malformed: counts.malformed,
            migration_ops_deferred: counts.deferred,
            ..self.report
        }
    }
}

impl<R: RawLock + Default> Hooks for ClusterNode<'_, R> {
    /// The data operations through [`slot_fence`]; the rest go on to
    /// the core, which refuses them.
    fn admit(&mut self, request: &mut Request) -> Admit {
        let (key, is_write) = match *request {
            Request::Get { key } | Request::TimedGet { key, .. } => (key, false),
            Request::Set { key, .. } | Request::Cas { key, .. } => (key, true),
            Request::Delete { key } => (key, true),
            _ => return Admit::Run,
        };
        let verdict = slot_fence(self.map, self.me, key, is_write);
        if matches!(verdict, Admit::Refuse(_)) {
            self.report.wrong_shard_redirects += 1;
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

    /// The arming handshake, the quiesce handshake and the migration
    /// stream's drain, in that order; the core then re-submits the
    /// writes a freeze parked — an aborted migration unfreezes them, a
    /// completed one bounces them to the new owner.
    fn before_poll(&mut self, counts: &mut ServeReport) -> ControlFlow<Turn, bool> {
        let (map, me, store) = (self.map, self.me, self.store);
        let (swept, logged) = (&mut self.report.keys_swept, &mut self.last_logged);
        // Arming handshake and sweep, before anything this turn commits.
        let mut progressed = follow_log_arming(map, me, self.log, &mut self.log_generation, || {
            *logged = 0;
            *swept += sweep_unowned(store, map, me);
        });
        // Quiesce handshake: reading the round first (Acquire) is what
        // guarantees the freeze bits of that round are visible, and —
        // by per-object coherence on the single-threaded node — every
        // later mask load this turn and beyond still sees them, so no
        // frozen-slot write can slip through after this ack.
        let last_logged = self.last_logged;
        progressed |= map.quiesce.follow(me, &mut self.acked_round, |_| {
            let mine = owned_mask(map, me);
            (map.frozen() & mine != 0).then_some(last_logged)
        });
        // Drain the migration stream.
        while let Some(request) = self.inbox.try_recv(&self.migration) {
            progressed = true;
            if request == Err(WireError::Disconnected) {
                // The coordinator died mid-entry: nothing to apply, and
                // nothing to count as migrated.
                counts.malformed += 1;
                break;
            }
            if let Some(entry) = request.as_ref().ok().and_then(EntryView::of) {
                entry.apply_to(self.store);
            } else {
                counts.malformed += 1;
            }
            self.report.migration_entries += 1;
            map.publish_migrated(me, self.report.migration_entries);
        }
        ControlFlow::Continue(progressed)
    }

    /// Not while the logs are armed, nor before its sweep at the disarm.
    fn may_exit(&mut self) -> bool {
        !is_armed(self.log_generation) && !is_armed(self.map.arming.current())
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        let report = &self.report;
        vec![
            ("node.wrong_shard_redirects", report.wrong_shard_redirects),
            ("node.migration_entries", report.migration_entries),
            ("node.keys_swept", report.keys_swept),
            ("node.oplog_entries", self.log.len() as u64),
            ("node.oplog_armed", is_armed(self.log_generation).into()),
        ]
    }
}

/// Runs one cluster node, [`run`] over it alone: each turn follows both
/// migration handshakes and drains the migration stream before the
/// core re-submits parked writes and polls the clients. Returns once
/// every client has sent [`Request::Stop`] (or gone away).
pub fn serve_cluster_node<R: RawLock + Default>(
    me: usize,
    store: &KvStore<R>,
    log: &OpLog,
    map: &ShardMap,
    endpoint: ClusterNodeEndpoint,
) -> NodeReport {
    let (core, node) = ClusterNode::new(me, store, log, map, endpoint);
    let mut node = (core, store, node);
    run(&mut [&mut node]);
    node.2.report(&node.0)
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
/// An operation is retried verbatim until some node owns it or its
/// budget is spent; since a bounced request executed nothing, the
/// chase preserves exactly-once execution at whichever node finally
/// acknowledges.
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

    /// Tells every node this client is done, consuming the client.
    pub fn close(self) {
        block_on(self.send_stop());
    }

    /// Sends every node `Stop`: the body of [`ClusterClient::close`],
    /// for a driver that steps the client.
    pub async fn send_stop(&self) {
        self.nodes.send_stop().await;
    }
}

/// The chase policy of one [`ClusterClient`] operation: ask the key's
/// owner under the cached map; on a `WrongShard`, refetch the map and
/// ask again. A lost node is not retried.
struct Owner<'c, 'a> {
    client: &'c ClusterClient<'a>,
    key: u64,
    request: &'c Request,
}

impl Chase for Owner<'_, '_> {
    fn pick(&self) -> Option<(&Conn, &Request)> {
        let owner = self.client.cached.borrow().owner_of_key(self.key);
        Some((self.client.nodes.conn(owner), self.request))
    }

    /// A single refetch is fresh enough: the bouncer read its epoch
    /// from the map's one monotone word before it published the reply
    /// this client has received.
    fn redirected(&self, response: &Response) -> bool {
        let Response::WrongShard { map_epoch } = *response else {
            return false;
        };
        let client = self.client;
        client.redirects.set(client.redirects.get() + 1);
        let snap = client.map.snapshot();
        debug_assert!(snap.epoch >= map_epoch, "a refetch trails its bouncer");
        *client.cached.borrow_mut() = snap;
        true
    }

    fn lost(&self) -> bool {
        false
    }
}

/// Every operation runs against whoever owns the key, chasing
/// `WrongShard` redirects under one [`OP_BUDGET`]. A write waits for
/// its reply while the key's slot is frozen mid-migration (the bounded
/// unavailability window a cutover imposes on writes).
///
/// # Errors
///
/// Every operation: [`WireError`] on an undecodable or out-of-protocol
/// reply or a node gone, and [`WireError::Deadline`] once the budget is
/// spent while nodes keep bouncing the key.
impl KvClient for ClusterClient<'_> {
    async fn exchange(&self, key: u64, request: &Request) -> Result<Response, WireError> {
        let owner = Owner {
            client: self,
            key,
            request,
        };
        let mut budget = RetryPacer::new(OP_BUDGET, key);
        chase(&owner, &mut budget).await
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ssync_locks::TicketLock;
    use ssync_mp::MsgSender;
    use ssync_srv::router::key_bytes;

    /// Spins until `done` holds, failing the test once 60 s pass
    /// first, with `what` it waited for: a counter or handshake that
    /// stops moving fails the suite instead of hanging it.
    pub(crate) fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while !done() {
            assert!(
                std::time::Instant::now() < deadline,
                "timed out waiting for {what}"
            );
            std::thread::yield_now();
        }
    }

    fn stores(n: usize) -> Vec<KvStore<TicketLock>> {
        (0..n).map(|_| KvStore::new(64, 8)).collect()
    }

    fn logs(n: usize) -> Vec<OpLog> {
        (0..n).map(|_| OpLog::new(4096)).collect()
    }

    impl<R: RawLock + Default> ClusterNode<'_, R> {
        /// The split enumeration's twin of the sweep's order: a turn
        /// that acks an arming change with no sweep, owing it (`*owed`)
        /// to the end of its next turn, after that turn's stream drain.
        pub(crate) fn before_poll_sweeping_late(
            &mut self,
            counts: &mut ServeReport,
            owed: &mut bool,
        ) -> ControlFlow<Turn, bool> {
            let (map, me, store) = (self.map, self.me, self.store);
            let sweep_now = std::mem::take(owed);
            let acked = follow_log_arming(map, me, self.log, &mut self.log_generation, || {
                *owed = true;
            });
            if acked {
                self.last_logged = 0;
            }
            let turn = self.before_poll(counts);
            if sweep_now {
                self.report.keys_swept += sweep_unowned(store, map, me);
            }
            turn.map_continue(|progressed| progressed || acked)
        }
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
            assert_eq!(block_on(conn.recv()), Ok(Response::Malformed));
            // ...the next scrape counts it, and serving continues.
            let after = client.stats(0).unwrap();
            assert_eq!(after.counter("srv.malformed"), Some(1));
            assert!(client.get(1).unwrap().is_some());
            client.close();
        });
        // One counter list feeds both outputs: after a cutover's
        // redirects and a migration stream's entries, each node's last
        // scrape reads the `node.*` values of the report it returns.
        let map = ShardMap::new(1);
        let (stores, logs) = (self::stores(2), self::logs(2));
        let (endpoints, mut conns, mig) = cluster_mesh(2, 1, 16, 16);
        let (scrapes, reports): (Vec<_>, Vec<_>) = std::thread::scope(|s| {
            let nodes: Vec<_> = (endpoints.into_iter().enumerate())
                .map(|(shard, endpoint)| {
                    let (store, log, map) = (&stores[shard], &logs[shard], &map);
                    s.spawn(move || serve_cluster_node(shard, store, log, map, endpoint))
                })
                .collect();
            let client = ClusterClient::new(&map, conns.pop().unwrap());
            let next: Vec<usize> = (0..ssync_srv::ROUTE_SLOTS).map(|s| s % 2).collect();
            map.stage(&next);
            map.try_cutover(map.view(), 2).unwrap();
            for key in 0..32 {
                client.set(key, vec![3]).unwrap();
            }
            let mut frames = Vec::new();
            for version in [1, 2] {
                ssync_srv::wire::encode_replicate(1_000 + version, version, b"m", &mut frames);
                mig[1].send_all_connected(&frames).unwrap();
            }
            wait_for("two migration entries applied", || map.migrated_of(1) >= 2);
            let scrapes = (0..2).map(|n| client.stats(n).unwrap()).collect();
            client.close();
            (
                scrapes,
                nodes.into_iter().map(|n| n.join().unwrap()).collect(),
            )
        });
        for (scrape, r) in scrapes.iter().zip(&reports) {
            let fields = [
                ("node.wrong_shard_redirects", r.wrong_shard_redirects),
                ("srv.deferred", r.migration_ops_deferred),
                ("node.migration_entries", r.migration_entries),
                ("node.keys_swept", r.keys_swept),
            ];
            for (name, value) in fields {
                assert_eq!(scrape.counter(name), Some(value), "{name}");
            }
        }
        assert!(reports[0].wrong_shard_redirects > 0);
        assert_eq!(reports[1].migration_entries, 2);
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
            wait_for("the arming ack", || {
                map.arming.acked(0) == Some((generation, 0))
            });
            let v1 = client.set(key, b"before".to_vec()).unwrap();
            assert_eq!(oplog(&client), (1, 1));
            assert_eq!(logs[0].entries_after(0)[0].version, v1);
            // Freeze the key's slot, as a coordinator's final drain
            // would, and wait for the node's round-tagged quiesce ack:
            // it carries the highest version *logged*.
            let round = map.freeze(1 << slot_of(key));
            wait_for("the quiesce ack", || {
                map.quiesce.acked(0).is_some_and(|(r, _)| r == round)
            });
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
                snap.counter("srv.deferred").unwrap()
            };
            wait_for("the parked write", || parked(&client) > 0);
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
            wait_for("the disarmed log", || oplog(&client).0 != 1);
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
            block_on(rude.conn(0).send(&Request::Stop)).unwrap();
            block_on(rude.conn(0).send(&Request::Stop)).unwrap();
            let survivor = ClusterClient::new(&map, conns.pop().unwrap());
            for key in 0..64 {
                survivor.set(key, vec![1; 8]).unwrap();
            }
            let snap = survivor.stats(0).unwrap();
            assert_eq!(snap.counter("srv.malformed"), Some(1));
            assert_eq!(rude.conn(0).rx.try_recv(), None, "no reply to a Stop");
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
            wait_for("three migration entries applied", || {
                map.migrated_of(1) >= 3
            });
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
            wait_for("four migration entries applied", || map.migrated_of(1) >= 4);
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
                wait_for("the malformed entry", || {
                    client.stats(1).unwrap().counter("srv.malformed") == Some(1)
                });
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

    /// Regression: the node took a migration entry's continuation
    /// frames with a receive that waits for them, so a coordinator slow
    /// to publish the rest of a long value held the node — and every
    /// client behind it. The half-published entry now costs a turn: the
    /// node answers reads meanwhile, and the entry applies, and counts,
    /// once the rest arrives. Detached under a deadline, so a held node
    /// fails instead of hanging the suite.
    #[test]
    fn a_half_published_migration_entry_does_not_hold_the_node() {
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
                let frames = Request::Replicate {
                    key: owned,
                    version: 5,
                    value: vec![7; 300],
                }
                .encode();
                let stream = mig.pop().unwrap();
                stream.send(frames[0]);
                let client = ClusterClient::new(&map, conns.pop().unwrap());
                // The head was published before either request: by the
                // second, the node has taken it.
                assert_eq!(client.get(owned), Ok(None));
                let entries = || client.stats(1).unwrap().counter("node.migration_entries");
                assert_eq!(entries(), Some(0));
                assert_eq!(
                    client.get(owned),
                    Ok(None),
                    "nothing applies half-published"
                );
                stream.send_all(&frames[1..]);
                wait_for("the applied entry", || entries() == Some(1));
                assert_eq!(client.get(owned), Ok(Some((5, vec![7; 300]))));
                client.close();
                let mut reports = nodes.into_iter().map(|n| n.join().unwrap());
                reports.nth(1).unwrap()
            });
            assert_eq!(map.migrated_of(1), 1);
            done_tx.send(report).unwrap();
        });
        let report = done_rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("a half-published migration entry held the node");
        assert_eq!((report.malformed, report.migration_entries), (0, 1));
    }
}
