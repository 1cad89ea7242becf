//! Primary/backup replication over the `ssync-srv` service, with
//! term-fenced failover.
//!
//! The client-request path of a node — polling, decoding, executing,
//! replying, scraping — is `ssync-srv`'s shared [`NodeCore`], and a
//! client connection is its [`Conn`]. What this module owns is the
//! replication policy around them: role and term maintenance, the
//! follower's transitions (the private `Follower`, which touches no
//! ring), the per-request not-leader bounce, floor-guarded replica
//! reads, the leader's `Replicator` (the core's `committed` hook), and
//! the client's leader-chasing retries.
//!
//! Each shard is a *replication group* of N = R + 1 symmetric **nodes**
//! (threads), each owning a full `KvStore` copy. At any instant exactly
//! one node — named by the shared [`ClusterMap`] word — is the
//! **leader** (applies writes, appends to the shard's bounded
//! [`OpLog`], streams `Replicate` frames); the rest are **followers**
//! (apply the stream through the version gates, serve floor-guarded
//! replica reads, return cumulative acks). All traffic rides
//! [`ssync_mp::ring_channel`] cache-line frames over a full node×node
//! mesh plus per-client connections to every node.
//!
//! **Write path.** The leader applies a write under its store's lock,
//! takes the CAS version the store assigned (the per-shard replication
//! sequence — writes are serialized by the leader thread, so versions
//! are dense and strictly increasing across *successive leaders*),
//! appends the entry to the op-log, and streams it to every live
//! follower. In [`ReplMode::Sync`] it waits for every live follower's
//! cumulative ack before replying; in [`ReplMode::Async`] it replies
//! immediately and only blocks when a follower trails by more than
//! `max_lag` log entries.
//!
//! **Failover.** A leader can be scheduled to die
//! ([`FaultKind::PrimaryCrash`](crate::fault::FaultKind)) right after
//! fully acknowledging the write that produced a given entry — the
//! worst moment, since that ack is now a promise only the followers can
//! keep. The death vacates the map word (same term, no leader); the
//! most caught-up live follower — highest *published* applied hwm, ties
//! to the lowest id, which is safe because acks are cumulative (see
//! DESIGN.md "Failover & term fencing") — wins the promotion CAS,
//! bumping the term and installing itself in one step. It replays the
//! op-log tail past its own hwm, then serves. Stream frames are fenced
//! by *channel identity against the map* ([`stream_fence`], which
//! `tests/chk_models.rs` model-checks): a frame from a sender the map
//! no longer names leader is counted and dropped (with a best-effort
//! `WrongTerm` back at the sender) — and *remembered*: a follower
//! applies nothing more from any stream until the one log replay has
//! covered what it dropped, so its hwm never passes an entry it has not
//! applied. That invariant is what makes "highest published hwm wins"
//! safe; adoption of a new term, a fault window's close, promotion and
//! `Stop` all end in the same replay. Writes reaching a non-leader
//! bounce with `WrongLeader`.
//!
//! **Read path.** Clients route reads round-robin across a shard's live
//! followers with a *freshness floor* (the highest version the client
//! observed on that shard); a follower behind the floor (or inside a
//! crash window) answers `Stale` and the client falls back to the
//! leader. While a shard is leaderless, writes and leader reads wait
//! under a [`RetryPacer`] deadline; a client that opted into
//! [`ReplClient::with_stale_reads`] degrades reads to floor-zero
//! replica reads instead of waiting.
//!
//! **Deadlock discipline** (rings are deeper than one frame but still
//! bounded, so the same rules apply):
//! * the leader's blocking sends to a follower are safe because a
//!   follower never blocks *on the leader or on acks*: it runs a
//!   polling loop (even a "crashed" follower keeps draining,
//!   discarding), and its only blocking sends are reply frames to a
//!   client that, having an outstanding request on that very ring, is
//!   by construction draining it;
//! * a follower acks with `try_send`, coalescing into the latest
//!   cumulative version when the ack channel is full, and retrying
//!   every loop iteration; fencing replies are `try_send` too;
//! * clients keep at most one request in flight per shard and drain
//!   shards in index order — one global order shared by every client,
//!   so the waits-for graph over bounded reply channels cannot close a
//!   cycle;
//! * every client receive and send is *connected* (`recv_connected` /
//!   `send_connected`): a dead node surfaces as
//!   [`WireError::Disconnected`] after the ring's surviving backlog is
//!   drained, never as a hang.
//!
//! Backup fault windows (stall/crash) are entry-indexed and
//! deterministic — see [`crate::fault`] — close on the log either way,
//! and are only legal in async mode with windows below the lag bound.
//! Leader crashes are legal in both modes: the failure they inject is
//! a *death*, not a withheld ack.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;

use ssync_core::{Fence, RegistrySnapshot, RetryPacer};
use ssync_kv::{KvStore, StatsSnapshot};
use ssync_locks::RawLock;
use ssync_mp::{ring_channel, Message, MsgReceiver, RingReceiver, RingSender};
use ssync_srv::router::{key_bytes, shard_of, ShardRouter};
use ssync_srv::service::{ring_mesh, KvClient, ReadHit, ServerEndpoint, ServiceClient};
use ssync_srv::wire::{replay, Request, Response, WireError, MGET_MAX, NO_LEADER, REPL_MGET_MAX};
use ssync_srv::{Admit, Conn, Hooks, NoHooks, NodeCore, Poll};

use crate::cluster::{ClusterMap, ShardView};
use crate::fault::{FaultKind, FaultPlan, FaultSpec};
use crate::log::{EntryView, LogEntry, OpLog};

/// When the leader replies to a replicated write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplMode {
    /// Ack-before-reply: every live follower has applied the write
    /// before the client hears `Stored`. Read-your-writes from any
    /// replica, at write latency cost.
    Sync,
    /// Reply immediately; followers trail by at most `max_lag` op-log
    /// entries (the leader stalls draining acks past that). Stale
    /// replica reads fall back to the leader via the floor guard.
    Async {
        /// Maximum op-log entries a follower may trail by.
        max_lag: u64,
    },
}

/// A replication group shape: how many backups per shard, the reply
/// mode, and the op-log bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplSpec {
    /// Backups per shard (0 = plain unreplicated service). Each shard
    /// runs `replicas + 1` nodes.
    pub replicas: usize,
    /// Write acknowledgement mode.
    pub mode: ReplMode,
    /// Op-log capacity per shard, in entries.
    pub log_capacity: usize,
}

impl ReplSpec {
    /// A sync-mode spec with `replicas` backups.
    pub fn sync(replicas: usize) -> ReplSpec {
        ReplSpec {
            replicas,
            mode: ReplMode::Sync,
            log_capacity: 4096,
        }
    }

    /// An async-mode spec with `replicas` backups and the default lag
    /// bound of 64 entries.
    pub fn async_bounded(replicas: usize) -> ReplSpec {
        ReplSpec {
            replicas,
            mode: ReplMode::Async { max_lag: 64 },
            log_capacity: 4096,
        }
    }

    /// Checks internal consistency (positive capacity, lag bound below
    /// capacity).
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent spec.
    pub fn validate(&self) {
        assert!(self.log_capacity > 0, "log capacity must be positive");
        if let ReplMode::Async { max_lag } = self.mode {
            assert!(max_lag >= 1, "async lag bound must be at least 1");
            assert!(
                (max_lag as usize) < self.log_capacity,
                "lag bound {max_lag} must stay below log capacity {}",
                self.log_capacity
            );
        }
    }
}

/// The stores of a replication deployment — one full shard router per
/// node (node 0 is the seed leader) — plus one op-log per shard and the
/// shared [`ClusterMap`].
pub struct ReplCluster<R: RawLock + Default> {
    primary: ShardRouter<R>,
    replica_sets: Vec<ShardRouter<R>>,
    logs: Vec<Arc<OpLog>>,
    preload_hwm: Vec<u64>,
    map: Arc<ClusterMap>,
    spec: ReplSpec,
}

impl<R: RawLock + Default> ReplCluster<R> {
    /// Builds the stores for `shards` shards of `buckets`×`stripes`
    /// each, replicated per `spec`, and a fresh map (every shard at
    /// term 1, led by node 0).
    ///
    /// # Panics
    ///
    /// Panics on a zero shard count, invalid store geometry, or an
    /// inconsistent `spec`.
    pub fn new(shards: usize, buckets: usize, stripes: usize, spec: ReplSpec) -> Self {
        spec.validate();
        ReplCluster {
            primary: ShardRouter::new(shards, buckets, stripes),
            replica_sets: (0..spec.replicas)
                .map(|_| ShardRouter::new(shards, buckets, stripes))
                .collect(),
            logs: (0..shards)
                .map(|_| Arc::new(OpLog::new(spec.log_capacity)))
                .collect(),
            preload_hwm: vec![0; shards],
            map: Arc::new(ClusterMap::new(shards, spec.replicas + 1)),
            spec,
        }
    }

    /// The replication shape.
    pub fn spec(&self) -> &ReplSpec {
        &self.spec
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.primary.num_shards()
    }

    /// The shared term/leader map.
    pub fn map(&self) -> &Arc<ClusterMap> {
        &self.map
    }

    /// The seed leader's router (node 0 of every shard).
    pub fn primary(&self) -> &ShardRouter<R> {
        &self.primary
    }

    /// Backup replica set `r` (a full router: its shard `s` backs the
    /// seed leader's shard `s`; it is node `r + 1` of every group).
    pub fn replica_set(&self, r: usize) -> &ShardRouter<R> {
        &self.replica_sets[r]
    }

    /// Node `node`'s store for `shard` (node 0 is the seed leader,
    /// node `n > 0` is backup set `n - 1`).
    pub fn node_store(&self, shard: usize, node: usize) -> &KvStore<R> {
        if node == 0 {
            self.primary.shard(shard)
        } else {
            self.replica_sets[node - 1].shard(shard)
        }
    }

    /// Shard `s`'s op-log.
    pub fn log(&self, s: usize) -> &Arc<OpLog> {
        &self.logs[s]
    }

    /// Seeds one key everywhere before serving starts: the seed leader
    /// assigns the version, every backup applies it, and the shard's
    /// preload high-water mark advances — so every node starts
    /// caught-up and the op-log starts empty.
    pub fn preload(&mut self, key: u64, value: &[u8]) -> u64 {
        let shard = shard_of(key, self.num_shards());
        let version = self.primary.shard(shard).set(&key_bytes(key), value);
        for set in &self.replica_sets {
            set.shard(shard)
                .apply_replicated(&key_bytes(key), version, Some(value));
        }
        self.preload_hwm[shard] = self.preload_hwm[shard].max(version);
        version
    }

    /// The post-preload high-water mark of shard `s` (every node's ack
    /// baseline).
    pub fn preload_hwm(&self, s: usize) -> u64 {
        self.preload_hwm[s]
    }

    /// The serving parameters of node `node` of `shard` under the
    /// seeded `faults`: every node gets the shard's leader-crash
    /// schedule, and backup schedules are keyed to *replica* slots — the
    /// seed leader (node 0) takes no backup windows.
    pub fn node_config(&self, shard: usize, node: usize, faults: &FaultSpec) -> NodeConfig {
        NodeConfig {
            shard,
            mode: self.spec.mode,
            initial_hwm: self.preload_hwm[shard],
            backup_plan: node
                .checked_sub(1)
                .map_or_else(FaultPlan::none, |replica| faults.plan_for(shard, replica)),
            crash_plan: faults.primary_plan_for(shard),
        }
    }

    /// True if every *live* node's every shard holds exactly the
    /// current leader's contents (keys, values, and versions). Nodes
    /// that died leading are excluded — their stores froze at death.
    /// Only meaningful once the servers have shut down (the final ack
    /// handshake guarantees followers are caught up by then). A shard
    /// with no live node left is trivially converged.
    pub fn converged(&self) -> bool {
        let nodes = self.map.nodes_per_shard();
        (0..self.num_shards()).all(|s| {
            let live = |n: &usize| !self.map.is_dead(s, *n);
            let reference = self.map.view(s).leader.or_else(|| {
                (0..nodes)
                    .filter(|n| live(n))
                    .max_by_key(|&n| self.map.hwm_of(s, n))
            });
            let Some(reference) = reference else {
                return true;
            };
            let want = self.node_store(s, reference).dump();
            (0..nodes)
                .filter(|n| live(n))
                .all(|n| self.node_store(s, n).dump() == want)
        })
    }

    /// Aggregated statistics over every backup store.
    pub fn replica_stats_snapshot(&self) -> StatsSnapshot {
        self.replica_sets
            .iter()
            .map(ShardRouter::stats_snapshot)
            .fold(StatsSnapshot::default(), |acc, s| acc.merge(&s))
    }
}

/// Ring depth of client request/reply connections. A bulk reply at
/// typical value sizes (≤ ~3 frames per key × [`REPL_MGET_MAX`] keys)
/// fits without blocking the server; a worst-case reply does *not* —
/// the server then blocks mid-reply, which is still cycle-free (the
/// one client with an outstanding request on this ring is by
/// construction draining it).
const CONN_DEPTH: usize = 256;

/// Ring depth of the leader→follower replication stream: an async
/// leader can burst a lag bound's worth of entries (≈2 frames each)
/// without a scheduler handoff per entry.
const STREAM_DEPTH: usize = 256;

/// Ring depth of the follower→leader ack channel (acks coalesce, so
/// shallow is fine).
const ACK_DEPTH: usize = 8;

/// One node's side of the mesh: its clients' channels plus a (stream,
/// ack) channel *pair per peer in each direction* — symmetric, because
/// any node may end up leading. Peer vectors index by node id; the
/// self slot is a ring nobody uses.
pub struct NodeEndpoint {
    node: usize,
    clients: ServerEndpoint<RingReceiver, RingSender>,
    /// `peer_stream_rx[p]`: replication frames *from* node `p`.
    peer_stream_rx: Vec<RingReceiver>,
    /// `peer_stream_tx[p]`: replication frames *to* node `p`.
    peer_stream_tx: Vec<RingSender>,
    /// `peer_ack_rx[p]`: acks (and `WrongTerm` fences) *from* node `p`.
    peer_ack_rx: Vec<RingReceiver>,
    /// `peer_ack_tx[p]`: acks (and `WrongTerm` fences) *to* node `p`.
    peer_ack_tx: Vec<RingSender>,
}

impl NodeEndpoint {
    /// This endpoint's node id within its shard.
    pub fn node(&self) -> usize {
        self.node
    }
}

/// What a client remembers about one replication group.
struct ShardState {
    /// Round-robin cursor over the nodes (for follower reads).
    rr: Cell<usize>,
    /// Freshness floor: the highest version this client has observed
    /// on this shard (writes *and* reads raise it, giving
    /// read-your-writes and monotonic reads across replicas).
    floor: Cell<u64>,
    /// Cached `(term, leader)` view, refreshed from the map on
    /// redirects, disconnects, and vacancies.
    view: Cell<ShardView>,
}

/// A client of the replicated service: writes go to the shard's
/// leader (chasing `WrongLeader`/`WrongTerm` redirects and dead-node
/// disconnects under a retry deadline), reads round-robin across live
/// followers with the freshness floor as the staleness guard, falling
/// back to the leader on a `Stale` answer.
pub struct ReplClient {
    /// One connection per node of every group: node `n` of shard `s`
    /// is server `s * nodes_per_shard + n` of this mesh.
    mesh: ServiceClient<RingSender, RingReceiver>,
    shards: Vec<ShardState>,
    map: Arc<ClusterMap>,
    /// Per-operation retry budget; after this, calls return the last
    /// transport error (or [`WireError::Deadline`]).
    deadline: Duration,
    /// Opt-in: while a shard is leaderless, serve reads floor-free
    /// from any live node instead of waiting for a promotion.
    stale_reads: bool,
    seed: Cell<u64>,
    fallbacks: Cell<u64>,
    replica_serves: Cell<u64>,
    redirects: Cell<u64>,
    lost_to_retry: Cell<u64>,
    stale_served: Cell<u64>,
}

/// A `nodes`×`nodes` matrix of directed `depth`-deep rings, as
/// `(tx[from][to], rx[to][from])`.
fn peer_rings(nodes: usize, depth: usize) -> (Vec<Vec<RingSender>>, Vec<Vec<RingReceiver>>) {
    let mut txs: Vec<Vec<RingSender>> = (0..nodes).map(|_| Vec::new()).collect();
    let mut rxs: Vec<Vec<RingReceiver>> = (0..nodes).map(|_| Vec::new()).collect();
    for tx_row in txs.iter_mut() {
        for rx_row in rxs.iter_mut() {
            let (tx, rx) = ring_channel(depth);
            tx_row.push(tx);
            rx_row.push(rx);
        }
    }
    (txs, rxs)
}

/// Builds the full channel mesh for a replicated deployment over
/// `map`'s shape: per shard one [`NodeEndpoint`] per node (indexed
/// `[shard][node]`), plus one [`ReplClient`] per client connected to
/// every node.
///
/// # Panics
///
/// Panics if `clients` is zero.
pub fn repl_mesh(
    map: &Arc<ClusterMap>,
    clients: usize,
) -> (Vec<Vec<NodeEndpoint>>, Vec<ReplClient>) {
    let shards = map.num_shards();
    let nodes = map.nodes_per_shard();
    let (client_eps, meshes) = ring_mesh(shards * nodes, clients, CONN_DEPTH);
    let mut client_eps = client_eps.into_iter();
    let endpoints = (0..shards)
        .map(|_| {
            let (stream_tx, stream_rx) = peer_rings(nodes, STREAM_DEPTH);
            let (ack_tx, ack_rx) = peer_rings(nodes, ACK_DEPTH);
            let streams = stream_tx.into_iter().zip(stream_rx);
            let acks = ack_tx.into_iter().zip(ack_rx);
            streams
                .zip(acks)
                .zip(client_eps.by_ref())
                .enumerate()
                .map(
                    |(node, (((s_tx, s_rx), (a_tx, a_rx)), clients))| NodeEndpoint {
                        node,
                        clients,
                        peer_stream_rx: s_rx,
                        peer_stream_tx: s_tx,
                        peer_ack_rx: a_rx,
                        peer_ack_tx: a_tx,
                    },
                )
                .collect()
        })
        .collect();
    let clients = meshes
        .into_iter()
        .enumerate()
        .map(|(c, mesh)| ReplClient {
            mesh,
            shards: (0..shards)
                .map(|s| ShardState {
                    rr: Cell::new(0),
                    floor: Cell::new(0),
                    view: Cell::new(map.view(s)),
                })
                .collect(),
            map: map.clone(),
            deadline: Duration::from_secs(5),
            stale_reads: false,
            seed: Cell::new(0x5EED_0000 + c as u64),
            fallbacks: Cell::new(0),
            replica_serves: Cell::new(0),
            redirects: Cell::new(0),
            lost_to_retry: Cell::new(0),
            stale_served: Cell::new(0),
        })
        .collect();
    (endpoints, clients)
}

/// Per-node serving parameters.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Which shard's group this node belongs to.
    pub shard: usize,
    /// Write acknowledgement mode.
    pub mode: ReplMode,
    /// The shard's post-preload high-water mark
    /// ([`ReplCluster::preload_hwm`]).
    pub initial_hwm: u64,
    /// This node's deterministic stall/crash schedule as a follower.
    pub backup_plan: FaultPlan,
    /// The *shard's* leader-crash schedule: entry indices at which the
    /// leader of the moment dies. Passed to every node; consumed by
    /// whichever node is leading when the entry is produced.
    pub crash_plan: FaultPlan,
}

/// What one node did before exit — leader-side and follower-side
/// counters in one struct, since a node can play both roles across a
/// failover.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NodeReport {
    /// This node's id within its shard.
    pub node: usize,
    /// Client request messages served (any role).
    pub requests: u64,
    /// Key-operations executed (as leader, plus replica reads).
    pub key_ops: u64,
    /// Undecodable or out-of-protocol frames refused with `Malformed`.
    pub malformed: u64,
    /// Replication entries this node appended and streamed as leader.
    pub entries: u64,
    /// The last version this node logged as leader (its ack target at
    /// shutdown).
    pub last_version: u64,
    /// Entries applied from the live stream as a follower.
    pub applied: u64,
    /// Entries applied from the op-log (crash catch-ups, term-adoption
    /// and promotion replays).
    pub from_log: u64,
    /// Stream entries dropped by the high-water-mark gate (in-flight
    /// duplicates of entries already replayed from the log).
    pub stale_drops: u64,
    /// Reads refused with `Stale` (client fell back to the leader).
    pub refused_reads: u64,
    /// Backup crash windows taken.
    pub crashes: u64,
    /// Backup stall windows taken.
    pub stalls: u64,
    /// Final applied high-water version (as follower).
    pub hwm: u64,
    /// Stream entry frames fenced: sent by a node the map no longer
    /// names leader. Timing-dependent (a frame races the death report),
    /// so excluded from determinism assertions.
    pub fenced: u64,
    /// Client write requests bounced with `WrongLeader`.
    pub wrong_leader: u64,
    /// Times this node won a promotion.
    pub promotions: u64,
    /// The term this node last served under.
    pub term: Fence,
    /// True if this node died to a scheduled leader crash.
    pub crashed: bool,
}

/// Encodes a single-frame response through the scratch buffer.
fn one_frame(response: &Response, frames: &mut Vec<Message>) -> Message {
    response.encode_into(frames);
    debug_assert_eq!(frames.len(), 1);
    frames[0]
}

/// Decodes an ack-channel frame: `Some(version)` for a cumulative ack,
/// `None` for a `WrongTerm` fence (a live leader learns terms from the
/// map, so the fencer's term is only decoded for validation). The
/// channel is internal to the group, so anything else on it is a
/// program bug, not input.
fn ack_version(head: Message) -> Option<u64> {
    match Response::decode(head, || unreachable!("ack frames have no continuations")) {
        Ok(Response::ReplAck { version }) => Some(version),
        Ok(Response::WrongTerm { .. }) => None,
        other => unreachable!("follower sent {other:?} on its ack channel"),
    }
}

/// Drains follower acks from `rx` into the cumulative `acked` until
/// `done(acked)` holds or the follower is gone.
fn await_acks(rx: &RingReceiver, acked: &mut u64, done: impl Fn(u64) -> bool) {
    while !done(*acked) {
        match rx.recv_connected() {
            Ok(head) => *acked = (*acked).max(ack_version(head).unwrap_or(0)),
            Err(_) => break,
        }
    }
}

/// A follower's fault window: while `Out`, the next `left` stream
/// entries are received and not applied. A stall and a crash recover
/// the same way, on the log; `crashed` only adds the `Stale` refusal of
/// replica reads a crash window carries.
enum Window {
    Healthy,
    Out { left: u64, crashed: bool },
}

/// The follower half of a node — what it has applied (`report.hwm`),
/// the term it follows (`report.term`), its fault window and plan
/// cursor, the ack it owes — and every transition of a node that is not
/// leading, written once. It touches no ring: [`serve_node`] polls,
/// decodes, fences and sends; this type decides what each frame does
/// to the store.
///
/// **Invariant: `hwm` never passes an entry this node has not
/// applied** — the store holds exactly what the log's entries at or
/// below `hwm` replay to, which is what makes a published hwm safe to
/// promote on and an ack safe to truncate the log through.
/// Mechanically: a dropped stream entry (fenced, or inside a window)
/// is remembered in `missed`, and the node is *behind* while `missed`
/// is past `hwm`; nothing from the stream is applied while behind
/// until [`Follower::catch_up`] — the one log replay — has run through
/// `missed`; and adoption, window close, promotion and `Stop` all end
/// there. So it does not matter which frames a node dropped, nor that
/// a node whose thread first runs after a failover finds the new term
/// already in the map and never adopts it: the dead leader's backlog
/// it fences puts it behind, and the log has it.
struct Follower<'a, R: RawLock + Default> {
    store: &'a KvStore<R>,
    log: &'a OpLog,
    map: &'a ClusterMap,
    shard: usize,
    /// The node's report: this type writes the follower-side fields,
    /// [`serve_node`] and the [`Replicator`] the leader-side ones.
    report: NodeReport,
    plan: FaultPlan,
    /// The next event of `plan`, and the stream entries seen so far
    /// (what its `at_entry` indices count).
    next_fault: usize,
    entries_seen: u64,
    window: Window,
    /// The newest stream entry received and not applied.
    missed: u64,
    /// The cumulative ack not yet on the leader's ring.
    owed_ack: Option<u64>,
    /// The leader's `Stop` arrived: exit once the ack is flushed.
    stopped: bool,
}

impl<'a, R: RawLock + Default> Follower<'a, R> {
    /// Node `me` following the shard's current term, holding exactly
    /// the preload (`cfg.initial_hwm`), which it publishes.
    fn new(
        store: &'a KvStore<R>,
        log: &'a OpLog,
        map: &'a ClusterMap,
        me: usize,
        cfg: &NodeConfig,
    ) -> Self {
        map.publish_hwm(cfg.shard, me, cfg.initial_hwm);
        Follower {
            store,
            log,
            map,
            shard: cfg.shard,
            report: NodeReport {
                node: me,
                hwm: cfg.initial_hwm,
                last_version: cfg.initial_hwm,
                term: map.view(cfg.shard).term,
                ..NodeReport::default()
            },
            plan: cfg.backup_plan.clone(),
            next_fault: 0,
            entries_seen: 0,
            window: Window::Healthy,
            missed: 0,
            owed_ack: None,
            stopped: false,
        }
    }

    /// Applies one entry through the stream-order gate (the layer that
    /// blocks delete-resurrection) and the store's per-key gate; true
    /// if it advanced `hwm`.
    fn apply(&mut self, entry: EntryView<'_>) -> bool {
        if entry.version <= self.report.hwm {
            self.report.stale_drops += 1;
            self.store
                .stats()
                .repl_stale_drops
                .fetch_add(1, crate::sync::atomic::Ordering::Relaxed);
            return false;
        }
        entry.apply_to(self.store);
        self.report.hwm = entry.version;
        true
    }

    /// Publishes `hwm` and owes the leader the ack for it.
    fn publish(&mut self) {
        self.map
            .publish_hwm(self.shard, self.report.node, self.report.hwm);
        self.owed_ack = Some(self.report.hwm);
    }

    /// The one log replay: closes any window and applies what the log
    /// holds past `hwm`, up to `through`. An entry is logged before it
    /// is streamed and never truncated past a live node's ack, so every
    /// frame this node dropped is in there. A window close stops at
    /// `missed` — it replays what the window lost however far ahead the
    /// leader has logged (the rest is still coming down the stream), so
    /// a seeded run's catch-ups replay exactly; every other caller
    /// takes the whole tail.
    fn catch_up(&mut self, through: u64) {
        self.window = Window::Healthy;
        let tail = self.log.entries_after(self.report.hwm);
        for entry in tail.iter().take_while(|e| e.version <= through) {
            self.report.from_log += u64::from(self.apply(entry.view()));
        }
        self.publish();
    }

    /// One entry frame off a peer's stream; `fence_passed` is
    /// [`stream_fence`]'s verdict on its sender.
    fn on_entry(&mut self, entry: EntryView<'_>, fence_passed: bool) {
        // Every entry frame counts, fenced or not: each entry index
        // arrives on exactly one stream (the old leader sent its
        // entries before dying; its successor streams only later
        // ones), so fault windows stay entry-deterministic.
        self.entries_seen += 1;
        let due = self.plan.events().get(self.next_fault);
        let due = due.filter(|event| event.at_entry <= self.entries_seen);
        if let (Window::Healthy, Some(&event)) = (&self.window, due) {
            self.next_fault += 1;
            // Leader crashes ride `crash_plan` and are executed by the
            // leader itself, never by a follower window.
            if event.kind != FaultKind::PrimaryCrash {
                let crashed = event.kind == FaultKind::Crash;
                self.report.crashes += u64::from(crashed);
                self.report.stalls += u64::from(!crashed);
                let left = event.window;
                self.window = Window::Out { left, crashed };
            }
        }
        match &mut self.window {
            // The entry hit the wire while we were slow or "down":
            // received and lost. The close catches up from the log and
            // rejoins the live stream, whose in-flight duplicates the
            // hwm gate drops.
            Window::Out { left, .. } => {
                *left -= 1;
                let closed = *left == 0;
                self.missed = self.missed.max(entry.version);
                if closed {
                    self.catch_up(self.missed);
                }
            }
            // Term fence: the map does not name the sender leader.
            Window::Healthy if !fence_passed => {
                self.report.fenced += 1;
                self.missed = self.missed.max(entry.version);
            }
            Window::Healthy => {
                if self.missed > self.report.hwm {
                    self.catch_up(self.missed);
                }
                debug_assert!(
                    self.log.outstanding_after(self.report.hwm)
                        <= self.log.outstanding_after(entry.version.saturating_sub(1)),
                    "hwm passed an unapplied entry: v{} at {:?}",
                    entry.version,
                    self.report
                );
                if self.apply(entry) {
                    self.report.applied += 1;
                    self.publish();
                }
            }
        }
    }

    /// Another node opened `term`: follow it, catching up on whatever
    /// earlier terms logged — frames of theirs this node fenced, or has
    /// yet to pop off a dead leader's ring.
    fn adopt(&mut self, term: Fence) {
        self.report.term = term;
        self.catch_up(u64::MAX);
    }

    /// The current leader is shutting the group down: catch up and owe
    /// the final cumulative ack.
    fn on_stop(&mut self) {
        self.catch_up(u64::MAX);
        self.stopped = true;
    }

    /// Promotion's hand-over: replay the log tail (everything
    /// acknowledged by anyone is in there — see DESIGN.md), then retire
    /// the follower — a leader takes no windows and owes no ack.
    fn promote(&mut self, term: Fence) {
        self.catch_up(u64::MAX);
        self.report.term = term;
        self.plan = FaultPlan::none();
        self.owed_ack = None;
        self.report.promotions += 1;
        self.report.last_version = self.report.last_version.max(self.report.hwm);
    }
}

/// The replication counters a node adds to its `Stats` scrape.
fn node_counters(report: &NodeReport, leading: bool) -> [(&'static str, u64); 10] {
    [
        ("node.entries", report.entries),
        ("node.applied", report.applied),
        ("node.from_log", report.from_log),
        ("node.stale_drops", report.stale_drops),
        ("node.refused_reads", report.refused_reads),
        ("node.hwm", report.hwm),
        ("node.wrong_leader", report.wrong_leader),
        ("node.promotions", report.promotions),
        ("node.term", u64::from(report.term)),
        ("node.leading", u64::from(leading)),
    ]
}

/// The stream fence: whether node `me` accepts a replication-stream
/// frame that arrived on `peer`'s ring, given `view` of the shard's map
/// word. Stream frames carry no term — the fence is channel identity
/// against the map: the frame passes only while the map names its
/// sender leader (and `me` is not leading itself).
///
/// Rejecting an *entry* under a stale view is harmless provided the
/// follower remembers that it dropped one (its `missed` mark: a log
/// replay then covers it before anything else is applied). Rejecting
/// the leader's shutdown `Stop` is not — nothing replays a `Stop` — so
/// that arm of [`serve_node`] passes a view read *after* the frame was
/// popped: the promotion CAS happens-before the ring publish, so a map
/// word read after the pop names the sender.
pub fn stream_fence(view: ShardView, me: usize, peer: usize) -> bool {
    view.leader == Some(peer) && peer != me
}

/// Runs one node of a shard's replication group until shutdown (every
/// client stopped and the group converged) or scheduled death.
///
/// The node follows the [`ClusterMap`]: while the map names it leader
/// it serves writes, streams entries, and settles acks per
/// [`ReplMode`]; otherwise it applies the current leader's stream
/// through the version gates, serves floor-guarded replica reads,
/// fences stale-term frames, and stands for promotion whenever the
/// shard goes leaderless (most-caught-up candidate wins — see
/// [`ClusterMap::try_promote`]).
pub fn serve_node<R: RawLock + Default>(
    store: &KvStore<R>,
    log: &OpLog,
    map: &ClusterMap,
    endpoint: NodeEndpoint,
    cfg: NodeConfig,
) -> NodeReport {
    let NodeEndpoint {
        node: me,
        clients,
        peer_stream_rx,
        peer_stream_tx,
        peer_ack_rx,
        peer_ack_tx,
    } = endpoint;
    let shard = cfg.shard;

    let mut core = NodeCore::new(clients);
    let mut follower = Follower::new(store, log, map, me, &cfg);
    // Leader bookkeeping: per-follower cumulative acks.
    let mut acked: Vec<u64> = vec![cfg.initial_hwm; peer_stream_tx.len()];
    // Scratch for everything this node puts on a peer ring.
    let mut frames: Vec<Message> = Vec::new();

    // Runs until the node dies, a follower's group shuts down (false),
    // or a leader's clients have all stopped (true: handshake below).
    let lead_shutdown = loop {
        // ---- Role and term maintenance (one map word read). ----
        let mut view = map.view(shard);
        if view.term > follower.report.term {
            follower.adopt(view.term);
        }
        if view.leader.is_none() {
            if let Some(term) = map.try_promote(shard, me) {
                follower.promote(term);
                for (p, slot) in acked.iter_mut().enumerate() {
                    *slot = map.hwm_of(shard, p);
                }
                view = map.view(shard);
            }
        }
        let leading = view.leader == Some(me);

        // ---- Flush the coalesced cumulative ack to the leader. ----
        if !leading {
            if let (Some(version), Some(l)) = (follower.owed_ack, view.leader) {
                let ack = one_frame(&Response::ReplAck { version }, &mut frames);
                if peer_ack_tx[l].try_send(ack).is_ok() {
                    follower.owed_ack = None;
                }
            }
        }

        // ---- A peer's replication stream, if one has a frame. ----
        let streamed = peer_stream_rx
            .iter()
            .enumerate()
            .find_map(|(peer, rx)| Some((peer, rx.try_recv()?)));
        if let Some((peer, head)) = streamed {
            core.pace(store, true);
            let more = Request::continuations(&head);
            if peer_stream_rx[peer]
                .recv_burst_connected(more, &mut frames)
                .is_err()
            {
                // The peer died mid-entry: nothing to apply or ack, and
                // nothing more will come on this ring.
                core.counts.malformed += 1;
                continue;
            }
            let request = Request::decode(head, replay(&frames));
            if matches!(request, Ok(Request::Stop)) {
                // Decided against the map as it is *now*, not the
                // `view` from the top of this iteration: a peer that
                // promoted, found no live client and streamed `Stop`
                // since then is not the leader `view` names, and a
                // `Stop` dropped on a stale view is never resent — this
                // node would idle forever behind a leader that has
                // exited. The promotion CAS happens-before the ring
                // publish, so a word read after the pop names the
                // sender.
                if stream_fence(map.view(shard), me, peer) {
                    follower.on_stop();
                }
            } else if let Some(entry) = request.as_ref().ok().and_then(EntryView::of) {
                let passed = stream_fence(view, me, peer);
                follower.on_entry(entry, passed);
                if !passed {
                    // Tell a still-live sender its term is over.
                    let term = follower.report.term;
                    let fence = one_frame(&Response::WrongTerm { term }, &mut frames);
                    let _ = peer_ack_tx[peer].try_send(fence);
                }
            } else {
                // The stream is internal to the group; anything else on
                // it is a bug upstream — counted, not answered, and
                // ignoring it beats dying.
                core.counts.malformed += 1;
            }
            continue;
        }

        // ---- The client connections. ----
        let polled = core.poll();
        if matches!(polled, Poll::Idle) {
            if core.live() == 0 {
                if leading {
                    break true;
                }
                // A leaderless shard with no candidates left will
                // never send the shutdown Stop; don't wait for it.
                if (follower.stopped && follower.owed_ack.is_none())
                    || (view.leader.is_none() && map.live_candidates(shard) == 0)
                {
                    break false;
                }
            }
            core.pace(store, false);
            continue;
        }
        core.pace(store, true);
        // Replica reads are served by any node; the leader is always
        // fresh enough, a follower checks its floor and window state.
        let report = &mut follower.report;
        let freshness = report.hwm.max(report.last_version);
        let down = !leading && matches!(follower.window, Window::Out { crashed: true, .. });
        let (client, request) = match polled {
            Poll::Idle | Poll::Consumed => continue,
            // Introspection is served by any node in any role — a
            // follower's queue depths and apply counters are exactly
            // what an operator scrapes during a failover.
            Poll::Scrape(client) => {
                core.reply_stats(client, store, &node_counters(report, leading));
                continue;
            }
            Poll::Request(
                client,
                Request::ReplGet { floor, .. } | Request::ReplMultiGet { floor, .. },
            ) if down || freshness < floor => {
                // One Stale answers a whole batch.
                report.refused_reads += 1;
                core.reply(client, &Response::Stale { hwm: freshness });
                continue;
            }
            // A replica read that passed the guard is a plain read.
            Poll::Request(client, Request::ReplGet { key, .. }) => {
                core.serve(store, &mut NoHooks, client, Request::Get { key });
                continue;
            }
            Poll::Request(client, Request::ReplMultiGet { keys, .. }) => {
                core.serve(store, &mut NoHooks, client, Request::MultiGet { keys });
                continue;
            }
            Poll::Request(client, request) => (client, request),
        };
        // Writes and authoritative reads belong to the leader, and the
        // bounce is per *request*: one `WrongLeader` answers a whole
        // multi-get. (Node-to-node frames on a client connection fall
        // through to the core, which refuses them in any role.)
        let misdirected = matches!(
            request,
            Request::Replicate { .. } | Request::ReplicateDelete { .. }
        );
        if !leading && !misdirected {
            report.wrong_leader += 1;
            let leader = view.leader.map_or(NO_LEADER, |l| l as u64);
            let term = report.term;
            core.reply(client, &Response::WrongLeader { term, leader });
            continue;
        }

        // ---- Leader: writes and authoritative reads. ----
        let logged = report.last_version;
        let mut repl = Replicator {
            log,
            map,
            shard,
            me,
            mode: cfg.mode,
            stream_tx: &peer_stream_tx,
            ack_rx: &peer_ack_rx,
            acked: &mut acked,
            frames: &mut frames,
            report,
        };
        let parked = core.serve(store, &mut repl, client, request);
        debug_assert!(parked.is_none(), "a leader never defers");
        let report = &mut follower.report;
        if report.last_version != logged
            && crash_scheduled(&cfg.crash_plan, report.last_version - cfg.initial_hwm)
        {
            // The scheduled death: the write above is fully
            // acknowledged and replied to — from here on only the
            // followers can keep that promise. Mark the map (vacating
            // the shard) and drop the endpoint; queued requests die
            // with us and surface client-side as `Disconnected`.
            report.crashed = true;
            map.report_death(shard, me);
            break false;
        }
    };

    let mut report = follower.report;
    if lead_shutdown {
        // Stream Stop, then wait until every live follower's cumulative
        // ack reaches the last logged version — the group is converged
        // when this returns.
        Request::Stop.encode_into(&mut frames);
        let live = |p: &usize| *p != me && !map.is_dead(shard, *p);
        for p in (0..acked.len()).filter(live) {
            let _ = peer_stream_tx[p].send_all_connected(&frames);
        }
        for p in (0..acked.len()).filter(live) {
            await_acks(&peer_ack_rx[p], &mut acked[p], |a| a >= report.last_version);
        }
    }
    report.requests = core.counts.requests;
    report.key_ops = core.counts.key_ops;
    report.malformed = core.counts.malformed;
    report
}

/// True if the shard's crash schedule kills the leader right after the
/// write that produced this entry index.
fn crash_scheduled(plan: &FaultPlan, entry_index: u64) -> bool {
    plan.events()
        .iter()
        .any(|ev| ev.kind == FaultKind::PrimaryCrash && ev.at_entry == entry_index)
}

/// The leader's streaming side: the request path's `committed` hook.
/// Leadership itself is checked per request in the serve loop, so the
/// per-key `admit` has nothing left to refuse.
struct Replicator<'a> {
    log: &'a OpLog,
    map: &'a ClusterMap,
    shard: usize,
    me: usize,
    mode: ReplMode,
    stream_tx: &'a [RingSender],
    ack_rx: &'a [RingReceiver],
    acked: &'a mut [u64],
    frames: &'a mut Vec<Message>,
    report: &'a mut NodeReport,
}

impl Hooks for Replicator<'_> {
    fn admit(&mut self, _key: u64, _is_write: bool) -> Admit {
        Admit::Run
    }

    /// Always: the log and the stream carry every write's value.
    fn observes_writes(&self) -> bool {
        true
    }

    fn committed(&mut self, key: u64, version: u64, value: Option<&Bytes>) {
        self.replicate(LogEntry::committed(key, version, value));
    }
}

impl Replicator<'_> {
    /// Streams one logged write to every live follower and settles
    /// acks per the mode's contract.
    fn replicate(&mut self, entry: LogEntry) {
        let version = entry.version;
        self.report.last_version = version;
        let live: Vec<usize> = (0..self.stream_tx.len())
            .filter(|&p| p != self.me && !self.map.is_dead(self.shard, p))
            .collect();
        if live.is_empty() {
            // No follower left (every backup died leading, or an
            // unreplicated shard): nothing to log — no one will ever
            // ack, so nothing could ever be truncated — or stream.
            return;
        }
        entry.encode_into(self.frames);
        self.log.append(entry);
        self.report.entries += 1;
        for &p in &live {
            // Best-effort: a dead peer's dropped receiver fails the
            // send instead of wedging the leader.
            let _ = self.stream_tx[p].send_all_connected(self.frames);
        }
        for &p in &live {
            let (rx, acked) = (&self.ack_rx[p], &mut self.acked[p]);
            match self.mode {
                ReplMode::Sync => await_acks(rx, acked, |a| a >= version),
                ReplMode::Async { max_lag } => {
                    while let Some(head) = rx.try_recv() {
                        *acked = (*acked).max(ack_version(head).unwrap_or(0));
                    }
                    await_acks(rx, acked, |a| {
                        self.log.outstanding_after(a) as u64 <= max_lag
                    });
                }
            }
        }
        if let Some(min_acked) = live.iter().map(|&p| self.acked[p]).min() {
            self.log.truncate_through(min_acked);
        }
    }
}

impl ReplClient {
    /// Number of shards (replication groups) this client reaches.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Replaces the per-operation retry budget (default five seconds).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> ReplClient {
        self.deadline = deadline;
        self
    }

    /// Opts into floor-free replica reads while a shard is leaderless:
    /// `get` then serves possibly-stale data from any live node
    /// instead of waiting out the promotion.
    #[must_use]
    pub fn with_stale_reads(mut self) -> ReplClient {
        self.stale_reads = true;
        self
    }

    /// Reads answered by a follower so far.
    pub fn replica_serves(&self) -> u64 {
        self.replica_serves.get()
    }

    /// Replica reads that bounced to the leader so far.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks.get()
    }

    /// `WrongLeader`/`WrongTerm` bounces chased so far.
    pub fn redirects(&self) -> u64 {
        self.redirects.get()
    }

    /// Requests retried because the serving node died under them (the
    /// request was provably never executed — see the module doc).
    pub fn lost_to_retry(&self) -> u64 {
        self.lost_to_retry.get()
    }

    /// Reads served floor-free from a follower while leaderless (only
    /// ever nonzero after [`ReplClient::with_stale_reads`]).
    pub fn stale_served(&self) -> u64 {
        self.stale_served.get()
    }

    /// The connection to node `node` of `shard`.
    pub fn conn(&self, shard: usize, node: usize) -> &Conn<RingSender, RingReceiver> {
        self.mesh.conn(shard * self.map.nodes_per_shard() + node)
    }

    fn observe(&self, shard: usize, version: u64) {
        let floor = &self.shards[shard].floor;
        floor.set(floor.get().max(version));
    }

    /// Raises the shard's freshness floor to a read's version.
    fn observed(&self, shard: usize, hit: ReadHit) -> ReadHit {
        if let Some((version, _)) = hit {
            self.observe(shard, version);
        }
        hit
    }

    fn bump(counter: &Cell<u64>, by: u64) {
        counter.set(counter.get() + by);
    }

    fn next_seed(&self) -> u64 {
        let s = self.seed.get();
        self.seed.set(s.wrapping_add(0x9E37_79B9_7F4A_7C15));
        s
    }

    fn pacer(&self) -> RetryPacer {
        RetryPacer::new(self.deadline, self.next_seed())
    }

    /// The cached `(term, leader)` view, consulting the shared map
    /// whenever the cache says "vacant" (promotions only ever move the
    /// view forward, so a cached leader is worth trying first).
    fn shard_view(&self, shard: usize) -> ShardView {
        let cached = self.shards[shard].view.get();
        if cached.leader.is_some() {
            return cached;
        }
        self.refresh_view(shard)
    }

    /// Re-reads the shared map, keeping whichever view has the higher
    /// term (a redirect can be fresher than the map read that raced it).
    fn refresh_view(&self, shard: usize) -> ShardView {
        let fresh = self.map.view(shard);
        let cell = &self.shards[shard].view;
        if fresh.term >= cell.get().term {
            cell.set(fresh);
        }
        cell.get()
    }

    /// If `response` is a `WrongLeader`/`WrongTerm` bounce, adopts the
    /// redirect it carries (unless older than the cached view) and
    /// returns true.
    fn note_redirect(&self, shard: usize, response: &Response) -> bool {
        let (term, leader) = match *response {
            Response::WrongLeader { term, leader } => (
                term,
                usize::try_from(leader).ok().filter(|_| leader != NO_LEADER),
            ),
            Response::WrongTerm { term } => (term, None),
            _ => return false,
        };
        Self::bump(&self.redirects, 1);
        let cell = &self.shards[shard].view;
        if term >= cell.get().term {
            cell.set(ShardView { term, leader });
        }
        if cell.get().leader.is_none() {
            self.refresh_view(shard);
        }
        true
    }

    /// Round-robin pick of a live node other than `except`, if any.
    fn pick_live(&self, shard: usize, except: Option<usize>) -> Option<usize> {
        let n = self.map.nodes_per_shard();
        let rr = &self.shards[shard].rr;
        let start = rr.get();
        rr.set(start.wrapping_add(1));
        (0..n)
            .map(|i| (start + i) % n)
            .find(|&node| Some(node) != except && !self.map.is_dead(shard, node))
    }

    /// Scrapes the live introspection snapshot of one specific node of
    /// `shard` — any role, no leader chase. Followers answer too, so a
    /// scrape observes a failover instead of being stalled by one.
    ///
    /// # Errors
    ///
    /// As for [`ServiceClient::stats`].
    pub fn stats_of(&self, shard: usize, node: usize) -> Result<RegistrySnapshot, WireError> {
        self.conn(shard, node).call(&Request::Stats)?.into_stats()
    }

    /// The retrying leader exchange every write (and authoritative
    /// read) goes through: chases `WrongLeader`/`WrongTerm` redirects,
    /// waits out leaderless spells with jittered backoff, and retries
    /// requests a dying node provably never executed — all under the
    /// client's deadline.
    ///
    /// Retrying on [`WireError::Disconnected`] is exactly-once, not
    /// at-least-once: a node sends the complete response *before* a
    /// scheduled crash takes it down, responses survive in the reply
    /// ring after death, and the connected receive drains that backlog
    /// before reporting the disconnect. `Disconnected` therefore
    /// proves the request still sat unread in the dead node's inbox.
    fn exchange_at_leader(&self, shard: usize, request: &Request) -> Result<Response, WireError> {
        let mut pacer = self.pacer();
        let mut last_err = None;
        loop {
            let view = self.shard_view(shard);
            let Some(leader) = view.leader else {
                if !pacer.pause() {
                    return Err(last_err.unwrap_or(WireError::Deadline));
                }
                self.refresh_view(shard);
                continue;
            };
            match self.conn(shard, leader).call(request) {
                Err(WireError::Disconnected) => {
                    Self::bump(&self.lost_to_retry, 1);
                    last_err = Some(WireError::Disconnected);
                    self.shards[shard].view.set(ShardView {
                        term: view.term,
                        leader: None,
                    });
                    if !pacer.pause() {
                        return Err(WireError::Disconnected);
                    }
                    self.refresh_view(shard);
                }
                Err(e) => return Err(e),
                Ok(response) if self.note_redirect(shard, &response) => {
                    if pacer.expired() {
                        return Err(last_err.unwrap_or(WireError::Deadline));
                    }
                }
                Ok(response) => return Ok(response),
            }
        }
    }

    /// Looks a key up, preferring a follower: round-robin over the
    /// shard's live non-leaders with the freshness floor attached,
    /// falling back to the leader when the pick is behind or down.
    /// While the shard is leaderless, either waits under the deadline
    /// or (with [`ReplClient::with_stale_reads`]) serves floor-free
    /// from any live node.
    ///
    /// # Errors
    ///
    /// [`WireError`] on an undecodable or out-of-protocol reply, a
    /// peer dead past the retry budget, or [`WireError::Deadline`].
    pub fn get(&self, key: u64) -> Result<ReadHit, WireError> {
        let shard = shard_of(key, self.shards.len());
        let mut pacer = self.pacer();
        let mut last_err = None;
        loop {
            let view = self.shard_view(shard);
            let Some(leader) = view.leader else {
                let any_live = self.stale_reads.then(|| self.pick_live(shard, None));
                if let Some(node) = any_live.flatten() {
                    match self
                        .conn(shard, node)
                        .call(&Request::ReplGet { key, floor: 0 })
                    {
                        // A node refusing inside its own crash window
                        // answers `Stale` even floor-free; rotate on.
                        Ok(Response::Stale { .. }) => {}
                        Ok(response) => {
                            let hit = response.into_read("ReplGet")?;
                            Self::bump(&self.stale_served, 1);
                            return Ok(hit);
                        }
                        Err(WireError::Disconnected) => last_err = Some(WireError::Disconnected),
                        Err(e) => return Err(e),
                    }
                }
                if !pacer.pause() {
                    return Err(last_err.unwrap_or(WireError::Deadline));
                }
                self.refresh_view(shard);
                continue;
            };
            if let Some(follower) = self.pick_live(shard, Some(leader)) {
                let floor = self.shards[shard].floor.get();
                match self
                    .conn(shard, follower)
                    .call(&Request::ReplGet { key, floor })
                {
                    Ok(Response::Stale { .. }) => Self::bump(&self.fallbacks, 1),
                    Ok(response) => {
                        let hit = response.into_read("ReplGet")?;
                        Self::bump(&self.replica_serves, 1);
                        return Ok(self.observed(shard, hit));
                    }
                    Err(WireError::Disconnected) => {
                        // Follower gone (it was leading and died, or is
                        // shutting down): refresh and retry the loop.
                        last_err = Some(WireError::Disconnected);
                        self.refresh_view(shard);
                        if !pacer.pause() {
                            return Err(WireError::Disconnected);
                        }
                        continue;
                    }
                    Err(e) => return Err(e),
                }
            }
            match self.exchange_at_leader(shard, &Request::Get { key }) {
                Ok(response) => return Ok(self.observed(shard, response.into_read("Get")?)),
                // The authoritative path is gone; loop back so the
                // leaderless branch can serve the read floor-free.
                Err(e @ (WireError::Disconnected | WireError::Deadline)) if self.stale_reads => {
                    last_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Batched lookup. Each shard's chunk goes out as *one* wide,
    /// floor-guarded [`Request::ReplMultiGet`] per round to a
    /// round-robin-chosen live follower — one server visit bulk-reads
    /// the whole shard's share. Shards proceed concurrently (one
    /// in-flight request per shard, drained in shard order — the
    /// shared global order that keeps the waits-for graph over the
    /// reply rings acyclic); stale, redirected, disconnected, or
    /// leaderless chunks re-fetch through the retrying leader path in
    /// [`MGET_MAX`]-sized slices. Results come back in input order.
    ///
    /// # Errors
    ///
    /// [`WireError`] on the first undecodable or out-of-protocol
    /// reply, or when a chunk's retries exhaust the deadline.
    pub fn get_many(&self, keys: &[u64]) -> Result<Vec<ReadHit>, WireError> {
        let nshards = self.shards.len();
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); nshards];
        for (pos, &key) in keys.iter().enumerate() {
            by_shard[shard_of(key, nshards)].push(pos);
        }
        let many_nodes = self.map.nodes_per_shard() > 1;
        let chunk_size = if many_nodes { REPL_MGET_MAX } else { MGET_MAX };
        let mut results: Vec<ReadHit> = vec![None; keys.len()];
        let rounds = by_shard
            .iter()
            .map(|positions| positions.len().div_ceil(chunk_size))
            .max()
            .unwrap_or(0);
        for round in 0..rounds {
            // Send phase: pipeline one chunk per shard. A chunk goes to
            // a live follower as a floor-guarded `ReplMultiGet`, or —
            // all followers dead, and small enough for one `MultiGet` —
            // to the leader; `None` marks a chunk not sent (leaderless,
            // oversized, or the target died under the send).
            let mut inflight = Vec::new();
            for (shard, positions) in by_shard.iter().enumerate() {
                let chunk = positions.chunks(chunk_size).nth(round).unwrap_or(&[]);
                if chunk.is_empty() {
                    continue;
                }
                let batch: Vec<u64> = chunk.iter().map(|&p| keys[p]).collect();
                let target = self.shard_view(shard).leader.and_then(|leader| {
                    match self.pick_live(shard, Some(leader)) {
                        Some(follower) => Some((follower, false)),
                        None => (chunk.len() <= MGET_MAX).then_some((leader, true)),
                    }
                });
                let sent = target.filter(|&(node, at_leader)| {
                    let request = if at_leader {
                        Request::MultiGet { keys: batch }
                    } else {
                        let floor = self.shards[shard].floor.get();
                        Request::ReplMultiGet { keys: batch, floor }
                    };
                    self.conn(shard, node).send(&request).is_ok()
                });
                inflight.push((shard, chunk, sent));
            }
            // Drain phase, in shard order. The first response answers
            // for the whole chunk: a node emits `Stale`, `WrongLeader`,
            // or `WrongTerm` as one response per *request*, and a node
            // that answered the head at all has already queued the
            // rest (responses are emitted between requests).
            let mut deferred: Vec<(usize, Vec<usize>)> = Vec::new();
            for (shard, chunk, sent) in inflight {
                let Some((node, at_leader)) = sent else {
                    deferred.push((shard, chunk.to_vec()));
                    continue;
                };
                let conn = self.conn(shard, node);
                let ctx = if at_leader {
                    "MultiGet"
                } else {
                    "ReplMultiGet"
                };
                match conn.recv() {
                    Err(WireError::Disconnected) => {
                        Self::bump(&self.lost_to_retry, u64::from(at_leader));
                        self.refresh_view(shard);
                    }
                    Err(e) => return Err(e),
                    Ok(Response::Stale { .. }) if !at_leader => Self::bump(&self.fallbacks, 1),
                    Ok(first) if at_leader && self.note_redirect(shard, &first) => {}
                    Ok(first) => {
                        if !at_leader {
                            Self::bump(&self.replica_serves, chunk.len() as u64);
                        }
                        results[chunk[0]] = self.observed(shard, first.into_read(ctx)?);
                        // Positions left unread when the node dies
                        // mid-chunk are deferred to the leader path.
                        for (i, &pos) in chunk.iter().enumerate().skip(1) {
                            match conn.recv() {
                                Ok(response) => {
                                    results[pos] = self.observed(shard, response.into_read(ctx)?);
                                }
                                Err(WireError::Disconnected) => {
                                    self.refresh_view(shard);
                                    deferred.push((shard, chunk[i..].to_vec()));
                                    break;
                                }
                                Err(e) => return Err(e),
                            }
                        }
                        continue;
                    }
                }
                deferred.push((shard, chunk.to_vec()));
            }
            // Fix-up pass: everything that missed the pipelined round
            // re-fetches authoritatively, with retries and redirects.
            for (shard, positions) in deferred {
                self.fetch_from_leader(shard, &positions, keys, &mut results)?;
            }
        }
        Ok(results)
    }

    /// Authoritatively fetches `positions` through the retrying leader
    /// exchange, in [`MGET_MAX`]-sized slices.
    fn fetch_from_leader(
        &self,
        shard: usize,
        positions: &[usize],
        keys: &[u64],
        results: &mut [ReadHit],
    ) -> Result<(), WireError> {
        for slice in positions.chunks(MGET_MAX) {
            let batch: Vec<u64> = slice.iter().map(|&p| keys[p]).collect();
            let first = self.exchange_at_leader(shard, &Request::MultiGet { keys: batch })?;
            results[slice[0]] = self.observed(shard, first.into_read("MultiGet")?);
            // The tail comes from the leader that just answered. It
            // cannot die inside the tail (a scheduled crash only
            // follows a *write*, and responses are emitted whole
            // between requests), so a disconnect here is an error.
            let view = self.shards[shard].view.get();
            let leader = view
                .leader
                .ok_or(WireError::UnexpectedResponse("MultiGet"))?;
            for &pos in &slice[1..] {
                let response = self.conn(shard, leader).recv()?;
                results[pos] = self.observed(shard, response.into_read("MultiGet")?);
            }
        }
        Ok(())
    }

    /// Stores a value at the shard's leader; returns its new CAS
    /// version.
    ///
    /// # Errors
    ///
    /// [`WireError`] on an undecodable or out-of-protocol reply, or
    /// when retries exhaust the deadline.
    pub fn set(&self, key: u64, value: Vec<u8>) -> Result<u64, WireError> {
        let shard = shard_of(key, self.shards.len());
        let request = Request::Set { key, value };
        let version = self.exchange_at_leader(shard, &request)?.into_stored()?;
        self.observe(shard, version);
        Ok(version)
    }

    /// Compare-and-set at the shard's leader; the inner result is the
    /// CAS outcome.
    ///
    /// # Errors
    ///
    /// [`WireError`] on an undecodable or out-of-protocol reply, or
    /// when retries exhaust the deadline.
    pub fn cas(
        &self,
        key: u64,
        value: Vec<u8>,
        expected: u64,
    ) -> Result<Result<u64, u64>, WireError> {
        let shard = shard_of(key, self.shards.len());
        let request = Request::Cas {
            key,
            expected,
            value,
        };
        let outcome = self.exchange_at_leader(shard, &request)?.into_cas()?;
        if let Ok(version) = outcome {
            self.observe(shard, version);
        }
        Ok(outcome)
    }

    /// Deletes a key at the shard's leader; `Some(tombstone_version)`
    /// if it existed.
    ///
    /// # Errors
    ///
    /// [`WireError`] on an undecodable or out-of-protocol reply, or
    /// when retries exhaust the deadline.
    pub fn delete(&self, key: u64) -> Result<Option<u64>, WireError> {
        let shard = shard_of(key, self.shards.len());
        let request = Request::Delete { key };
        let deleted = self.exchange_at_leader(shard, &request)?.into_deleted()?;
        if let Some(version) = deleted {
            self.observe(shard, version);
        }
        Ok(deleted)
    }

    /// Tells every node this client is done, consuming the client.
    /// Dead nodes are skipped — their inboxes have no reader.
    pub fn close(self) {
        self.mesh.close();
    }
}

impl KvClient for ReplClient {
    fn get(&self, key: u64) -> Result<Option<(u64, Vec<u8>)>, WireError> {
        ReplClient::get(self, key)
    }

    fn get_many(&self, keys: &[u64]) -> Result<Vec<ReadHit>, WireError> {
        ReplClient::get_many(self, keys)
    }

    fn set(&self, key: u64, value: Vec<u8>) -> Result<u64, WireError> {
        ReplClient::set(self, key, value)
    }

    fn cas(&self, key: u64, value: Vec<u8>, expected: u64) -> Result<Result<u64, u64>, WireError> {
        ReplClient::cas(self, key, value, expected)
    }

    fn delete(&self, key: u64) -> Result<Option<u64>, WireError> {
        ReplClient::delete(self, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultEvent, FaultKind};
    use ssync_locks::TicketLock;

    /// Spins up a full replication deployment, runs `body` with the
    /// clients, and returns the cluster for post-mortem checks.
    /// `plans` holds backup schedules indexed `shard * replicas +
    /// (node - 1)`; `crash_plans` holds per-shard leader-crash
    /// schedules.
    fn with_replicated<F>(
        mut cluster: ReplCluster<TicketLock>,
        clients: usize,
        plans: &[FaultPlan],
        crash_plans: &[FaultPlan],
        preload: u64,
        body: F,
    ) -> ReplCluster<TicketLock>
    where
        F: FnOnce(Vec<ReplClient>) + Send,
    {
        for key in 0..preload {
            cluster.preload(key, &key.to_be_bytes());
        }
        let replicas = cluster.spec().replicas;
        let map = cluster.map().clone();
        let (endpoints, repl_clients) = repl_mesh(&map, clients);
        std::thread::scope(|s| {
            let map = &map;
            for (shard, shard_eps) in endpoints.into_iter().enumerate() {
                for endpoint in shard_eps {
                    let node = endpoint.node();
                    let store = cluster.node_store(shard, node);
                    let log = cluster.log(shard).clone();
                    let explicit = |plans: &[FaultPlan], slot: Option<usize>| {
                        slot.and_then(|slot| plans.get(slot).cloned())
                            .unwrap_or_default()
                    };
                    let replica = node.checked_sub(1).map(|r| shard * replicas + r);
                    let cfg = NodeConfig {
                        backup_plan: explicit(plans, replica),
                        crash_plan: explicit(crash_plans, Some(shard)),
                        ..cluster.node_config(shard, node, &FaultSpec::none())
                    };
                    s.spawn(move || serve_node(store, &log, map, endpoint, cfg));
                }
            }
            body(repl_clients);
        });
        cluster
    }

    #[test]
    fn sync_mode_reads_own_writes_from_replicas() {
        let cluster = ReplCluster::new(2, 64, 8, ReplSpec::sync(2));
        let cluster = with_replicated(cluster, 1, &[], &[], 0, |mut clients| {
            let client = clients.pop().unwrap();
            for key in 0..40u64 {
                let v = client.set(key, format!("v{key}").into_bytes()).unwrap();
                // Round-robin guarantees this read lands on a
                // follower; sync mode guarantees it sees the write
                // anyway.
                let (version, value) = client.get(key).unwrap().unwrap();
                assert_eq!(version, v);
                assert_eq!(value, format!("v{key}").into_bytes());
            }
            // Every read was served by a follower: sync mode never
            // bounces.
            assert_eq!(client.fallbacks(), 0);
            assert_eq!(client.replica_serves(), 40);
            client.close();
        });
        assert!(cluster.converged());
        // Each backup applied each write exactly once: 40 writes × 2
        // backup sets.
        assert_eq!(cluster.replica_stats_snapshot().repl_applied, 80);
    }

    /// Regression: an over-long value used to panic in the encoder; it
    /// must come back as an error — and not be retried as if the leader
    /// had died.
    #[test]
    fn oversized_values_are_errors_not_panics() {
        use ssync_srv::wire::MAX_VALUE_LEN;
        let cluster = ReplCluster::new(1, 64, 8, ReplSpec::sync(1));
        let cluster = with_replicated(cluster, 1, &[], &[], 0, |mut clients| {
            let client = clients.pop().unwrap();
            let refused = WireError::ValueTooLong(MAX_VALUE_LEN + 1);
            let big = vec![0; MAX_VALUE_LEN + 1];
            assert_eq!(client.set(1, big.clone()), Err(refused));
            assert_eq!(client.cas(1, big, 0), Err(refused));
            assert_eq!(client.redirects(), 0);
            let version = client.set(1, vec![0; MAX_VALUE_LEN]).unwrap();
            assert_eq!(client.get(1).unwrap().unwrap().0, version);
            client.close();
        });
        assert!(cluster.converged());
    }

    #[test]
    fn async_mode_floor_guard_bounces_stale_reads_to_primary() {
        let spec = ReplSpec {
            replicas: 1,
            mode: ReplMode::Async { max_lag: 32 },
            log_capacity: 256,
        };
        // A stall window makes the single backup provably behind while
        // the client keeps writing and reading.
        let plan = FaultPlan::from_events(vec![FaultEvent {
            at_entry: 1,
            kind: FaultKind::Stall,
            window: 20,
        }]);
        let cluster = ReplCluster::new(1, 64, 8, spec);
        let cluster = with_replicated(cluster, 1, &[plan], &[], 0, |mut clients| {
            let client = clients.pop().unwrap();
            let mut fallbacks_seen = 0;
            for key in 0..30u64 {
                let v = client.set(key, vec![key as u8; 8]).unwrap();
                let before = client.fallbacks();
                let (version, value) = client.get(key).unwrap().unwrap();
                // Correctness despite the stalled backup: the floor
                // guard rejects stale data, the leader answers.
                assert_eq!(version, v);
                assert_eq!(value, vec![key as u8; 8]);
                fallbacks_seen += client.fallbacks() - before;
            }
            // The stall window covers the first 20 entries, so early
            // reads must have bounced.
            assert!(fallbacks_seen > 0, "stalled backup never bounced a read");
            client.close();
        });
        assert!(cluster.converged());
    }

    #[test]
    fn crashed_backup_catches_up_from_the_log() {
        let spec = ReplSpec {
            replicas: 1,
            mode: ReplMode::Async { max_lag: 16 },
            log_capacity: 256,
        };
        let plan = FaultPlan::from_events(vec![FaultEvent {
            at_entry: 3,
            kind: FaultKind::Crash,
            window: 4,
        }]);
        let cluster = ReplCluster::new(1, 64, 8, spec);
        let cluster = with_replicated(cluster, 1, &[plan], &[], 0, |mut clients| {
            let client = clients.pop().unwrap();
            for key in 0..10u64 {
                client.set(key, key.to_be_bytes().to_vec()).unwrap();
            }
            client.close();
        });
        // Entries 3..=6 were lost on the wire and replayed from the
        // op-log; the backup ends byte-identical regardless.
        assert!(cluster.converged());
        let snap = cluster.replica_stats_snapshot();
        assert_eq!(snap.repl_applied, 10, "all 10 writes applied exactly once");
    }

    #[test]
    fn crash_over_delete_does_not_resurrect_the_key() {
        // The scenario the stream-order gate exists for: a put and its
        // key's later tombstone both fall inside a crash window; the
        // log replay applies both in order, and the in-flight
        // duplicates that follow must not bring the key back.
        let spec = ReplSpec {
            replicas: 1,
            mode: ReplMode::Async { max_lag: 16 },
            log_capacity: 256,
        };
        let plan = FaultPlan::from_events(vec![FaultEvent {
            at_entry: 2,
            kind: FaultKind::Crash,
            window: 2,
        }]);
        let cluster = ReplCluster::new(1, 64, 8, spec);
        let cluster = with_replicated(cluster, 1, &[plan], &[], 0, |mut clients| {
            let client = clients.pop().unwrap();
            client.set(1, b"a".to_vec()).unwrap(); // entry 1
            client.set(2, b"b".to_vec()).unwrap(); // entry 2: crash opens
            client.delete(2).unwrap(); // entry 3: tombstone, in-window
            client.set(3, b"c".to_vec()).unwrap(); // entry 4: post-reboot
            client.close();
        });
        assert!(cluster.converged());
        assert!(cluster.replica_set(0).shard(0).get(&key_bytes(2)).is_none());
    }

    #[test]
    fn fanned_out_multi_get_returns_input_order() {
        let cluster = ReplCluster::new(2, 64, 8, ReplSpec::sync(2));
        let cluster = with_replicated(cluster, 1, &[], &[], 64, |mut clients| {
            let client = clients.pop().unwrap();
            // 40 present keys + 10 misses, shuffled across shards;
            // chunks fan out over 3 endpoints per shard.
            let keys: Vec<u64> = (0..50).map(|i| if i < 40 { i } else { i + 100 }).collect();
            let results = client.get_many(&keys).unwrap();
            for (i, res) in results.iter().enumerate() {
                if i < 40 {
                    let (_, value) = res.as_ref().expect("present key");
                    assert_eq!(value.as_slice(), &(i as u64).to_be_bytes());
                } else {
                    assert!(res.is_none(), "key {} should miss", keys[i]);
                }
            }
            // With fresh sync replicas, most chunks are served by
            // followers.
            assert!(client.replica_serves() > 0);
            client.close();
        });
        assert!(cluster.converged());
    }

    /// Regression test for a cross-client deadlock: two clients
    /// fanning batched reads over the same two backups used to assign
    /// chunks round-robin *per client*, so they could drain the
    /// backups in opposite orders — with 1-deep reply channels and
    /// multi-frame replies, replica A blocked sending to client 1
    /// (draining replica B first) while replica B blocked sending to
    /// client 2 (draining replica A first). The fixed global endpoint
    /// order makes the waits-for graph acyclic; this test hammers the
    /// exact shape that used to wedge (skewed batches, long values,
    /// concurrent clients).
    #[test]
    fn concurrent_batched_fanout_cannot_deadlock() {
        let cluster = ReplCluster::new(2, 256, 16, ReplSpec::sync(2));
        let cluster = with_replicated(cluster, 2, &[], &[], 512, |clients| {
            std::thread::scope(|s| {
                for (c, client) in clients.into_iter().enumerate() {
                    s.spawn(move || {
                        // Zipf-like repetition: hot keys recur within
                        // a batch, skewing chunks onto one shard.
                        for i in 0..60u64 {
                            let keys: Vec<u64> =
                                (0..24).map(|j| (i * 7 + j * j + c as u64) % 512).collect();
                            let results = client.get_many(&keys).unwrap();
                            for (j, res) in results.iter().enumerate() {
                                let (_, value) = res.as_ref().expect("preloaded key");
                                assert_eq!(value.as_slice(), &keys[j].to_be_bytes());
                            }
                        }
                        client.close();
                    });
                }
            });
        });
        assert!(cluster.converged());
    }

    #[test]
    fn zero_replicas_degenerates_to_the_plain_service() {
        let cluster = ReplCluster::new(2, 64, 8, ReplSpec::async_bounded(0));
        let cluster = with_replicated(cluster, 2, &[], &[], 0, |clients| {
            std::thread::scope(|s| {
                for (c, client) in clients.into_iter().enumerate() {
                    s.spawn(move || {
                        let base = c as u64 * 1000;
                        for i in 0..50 {
                            client.set(base + i, vec![c as u8; 16]).unwrap();
                            let (_, value) = client.get(base + i).unwrap().unwrap();
                            assert_eq!(value, vec![c as u8; 16]);
                        }
                        assert_eq!(client.replica_serves(), 0);
                        client.close();
                    });
                }
            });
        });
        assert!(cluster.converged(), "no replicas is trivially converged");
        assert_eq!(cluster.primary().len(), 100);
        // Nothing was ever logged: no backup could consume it.
        assert!(cluster.log(0).is_empty() && cluster.log(1).is_empty());
    }

    #[test]
    fn malformed_frames_and_misdirected_requests_get_refused() {
        let cluster = ReplCluster::new(1, 64, 8, ReplSpec::sync(1));
        with_replicated(cluster, 1, &[], &[], 0, |mut clients| {
            let client = clients.pop().unwrap();
            client.set(1, b"x".to_vec()).unwrap();
            let (leader, follower) = (client.conn(0, 0), client.conn(0, 1));
            // Garbage straight at the leader.
            leader.tx.send([0xEE; ssync_mp::MSG_WORDS]);
            assert_eq!(leader.recv(), Ok(Response::Malformed));
            // A write at a follower bounces with the current view.
            assert_eq!(
                follower.call(&Request::Get { key: 1 }),
                Ok(Response::WrongLeader {
                    term: Fence::FIRST,
                    leader: 0
                })
            );
            // A replication frame on a client connection is a protocol
            // violation, not a write — at a node in either role.
            let evil = Request::Replicate {
                key: 1,
                version: 99,
                value: b"evil".to_vec(),
            };
            assert_eq!(leader.call(&evil), Ok(Response::Malformed));
            assert_eq!(follower.call(&evil), Ok(Response::Malformed));
            let scrape = client.stats_of(0, 0).unwrap();
            assert_eq!(scrape.counter("srv.malformed"), Some(2));
            // All servers still alive.
            assert!(client.get(1).unwrap().is_some());
            client.close();
        });
    }

    #[test]
    fn stats_scrape_answers_on_any_role_and_survives_malformed_frames() {
        let cluster = ReplCluster::new(1, 64, 8, ReplSpec::sync(1));
        with_replicated(cluster, 1, &[], &[], 0, |mut clients| {
            let client = clients.pop().unwrap();
            for key in 0..16u64 {
                client.set(key, vec![key as u8; 8]).unwrap();
                client.get(key).unwrap().unwrap();
            }
            // The leader answers with its live serving counters. The
            // 16 writes all land here; the reads route to the replica,
            // so only the writes (plus this scrape) are guaranteed.
            let leader = client.stats_of(0, 0).unwrap();
            assert_eq!(leader.counter("node.leading"), Some(1));
            assert!(leader.counter("srv.requests").unwrap() >= 17);
            assert_eq!(leader.counter("store.sets"), Some(16));
            // The follower answers too — introspection never chases
            // the leader, so a scrape works mid-failover.
            let follower = client.stats_of(0, 1).unwrap();
            assert_eq!(follower.counter("node.leading"), Some(0));
            assert_eq!(
                follower.counter("node.applied"),
                Some(16),
                "sync replication applies every write at the follower"
            );
            // A garbage frame between scrapes is refused, not fatal...
            let conn = client.conn(0, 0);
            conn.tx.send([0xEE; ssync_mp::MSG_WORDS]);
            assert_eq!(conn.recv(), Ok(Response::Malformed));
            // ...and the next scrape of the same node counts it.
            let again = client.stats_of(0, 0).unwrap();
            assert_eq!(again.counter("srv.malformed"), Some(1));
            assert!(
                again.counter("srv.requests").unwrap() > leader.counter("srv.requests").unwrap()
            );
            client.close();
        });
    }

    #[test]
    fn scheduled_leader_crash_fails_over_while_the_client_rides_through() {
        let cluster = ReplCluster::new(1, 64, 8, ReplSpec::sync(2));
        let crash = FaultPlan::primary_crashes(vec![3]);
        let cluster = with_replicated(cluster, 1, &[], &[crash], 0, |mut clients| {
            let client = clients.pop().unwrap();
            for key in 0..8u64 {
                let v = client.set(key, vec![key as u8; 4]).unwrap();
                let (version, value) = client.get(key).unwrap().unwrap();
                assert_eq!((version, value), (v, vec![key as u8; 4]));
            }
            assert!(
                client.lost_to_retry() + client.redirects() > 0,
                "the crash must have been visible to the client"
            );
            client.close();
        });
        assert!(cluster.converged());
        let view = cluster.map().view(0);
        assert_eq!(u64::from(view.term), 2, "one crash advances the term once");
        assert_ne!(view.leader, Some(0), "the dead seed leader cannot lead");
        assert_eq!(cluster.map().failovers(0), 1);
    }

    #[test]
    fn client_deadline_fires_instead_of_hanging_on_a_dead_group() {
        // Replicas = 0: the crash leaves no succession line, so the
        // shard stays dead and every write must fail fast — the
        // regression this PR's disconnect plumbing exists for.
        let cluster = ReplCluster::new(1, 64, 8, ReplSpec::sync(0));
        let crash = FaultPlan::primary_crashes(vec![1]);
        with_replicated(cluster, 1, &[], &[crash], 0, |mut clients| {
            let client = clients
                .pop()
                .unwrap()
                .with_deadline(Duration::from_millis(100));
            client.set(1, b"last words".to_vec()).unwrap();
            let err = client.set(2, b"void".to_vec()).unwrap_err();
            assert!(
                matches!(err, WireError::Disconnected | WireError::Deadline),
                "a dead group must surface as a transport error, got {err:?}"
            );
            let err = client.get(1).unwrap_err();
            assert!(matches!(err, WireError::Disconnected | WireError::Deadline));
            client.close();
        });
    }

    #[test]
    fn stale_reads_opt_in_serves_a_leaderless_shard() {
        // An observer follower can never be promoted, so one leader
        // crash leaves the shard leaderless for good. A stall window
        // keeps the follower provably behind the writer's freshness
        // floor, forcing reads onto the (dead) leader: the stale-reads
        // client then degrades to floor-free replica reads, while the
        // strict client's write times out.
        let spec = ReplSpec {
            replicas: 1,
            mode: ReplMode::Async { max_lag: 32 },
            log_capacity: 256,
        };
        let cluster: ReplCluster<TicketLock> = ReplCluster::new(1, 64, 8, spec);
        cluster.map().set_observer(0, 1);
        let stall = FaultPlan::from_events(vec![FaultEvent {
            at_entry: 3,
            kind: FaultKind::Stall,
            window: 10,
        }]);
        let crash = FaultPlan::primary_crashes(vec![5]);
        with_replicated(cluster, 2, &[stall], &[crash], 0, |mut clients| {
            let strict = clients
                .pop()
                .unwrap()
                .with_deadline(Duration::from_millis(100));
            let stale = clients
                .pop()
                .unwrap()
                .with_stale_reads()
                .with_deadline(Duration::from_millis(200));
            for key in 0..5u64 {
                stale.set(key, vec![key as u8; 3]).unwrap();
            }
            // The fifth write killed the leader; the follower sits in
            // an open stall window (entries 3..=5 buffered, hwm at
            // entry 2) and, as an observer, will never be promoted.
            // The floor-guarded read bounces, the leader is gone, and
            // the stale path serves what the follower has applied.
            let (_, value) = stale.get(0).unwrap().expect("applied before the stall");
            assert_eq!(value, vec![0u8; 3]);
            assert!(
                stale.stale_served() > 0,
                "the read must have taken the floor-free stale path"
            );
            let err = strict.set(9, b"void".to_vec()).unwrap_err();
            assert!(matches!(err, WireError::Disconnected | WireError::Deadline));
            stale.close();
            strict.close();
        });
    }

    /// Regression: a second `Stop` on one connection used to drive the
    /// node's live-client count below the truth — with two clients the
    /// group shut down under the other client; with the count already
    /// at zero it underflowed.
    #[test]
    fn duplicate_stop_degrades_one_connection_not_the_group() {
        let cluster = ReplCluster::new(1, 64, 8, ReplSpec::sync(1));
        let cluster = with_replicated(cluster, 2, &[], &[], 0, |mut clients| {
            let survivor = clients.pop().unwrap();
            let rude = clients.pop().unwrap();
            for node in 0..2 {
                rude.conn(0, node).send(&Request::Stop).unwrap();
                rude.conn(0, node).send(&Request::Stop).unwrap();
            }
            for key in 0..64u64 {
                survivor.set(key, vec![1; 8]).unwrap();
                assert!(survivor.get(key).unwrap().is_some());
            }
            for node in 0..2 {
                let scrape = survivor.stats_of(0, node).unwrap();
                assert_eq!(scrape.counter("srv.malformed"), Some(1), "node {node}");
                assert_eq!(
                    rude.conn(0, node).try_recv(),
                    Ok(None),
                    "no reply to a Stop"
                );
            }
            survivor.close();
        });
        assert!(cluster.converged());
    }

    /// Regression: a follower that lost the promotion race matched the
    /// winner's `Stop` against the view it had read before racing — a
    /// leaderless view — dropped the frame, and idled forever behind a
    /// leader that had exited. The fence is only as good as the view it
    /// is handed: one read after the frame arrived names the sender.
    #[test]
    fn stream_fence_follows_the_map_not_a_view_taken_before_the_frame() {
        let map = ClusterMap::new(1, 3);
        assert!(stream_fence(map.view(0), 2, 0), "the seed leader's stream");
        assert!(!stream_fence(map.view(0), 2, 1), "a fellow follower's");
        assert!(!stream_fence(map.view(0), 0, 0), "a leader takes no stream");

        // Node 2 reads the map leaderless and loses the race to node 1,
        // which promotes and streams `Stop` before node 2 polls its ring.
        assert!(map.report_death(0, 0));
        let stale = map.view(0);
        assert_eq!(map.try_promote(0, 2), None, "ties go to the lower id");
        assert!(map.try_promote(0, 1).is_some());
        assert!(!stream_fence(stale, 2, 1), "the stale view drops the frame");
        assert!(stream_fence(map.view(0), 2, 1), "the fresh one admits it");
        assert!(
            !stream_fence(map.view(0), 2, 0),
            "the dead leader is fenced"
        );
    }

    /// Regression: a non-entry frame on a peer stream used to vanish
    /// uncounted (`Ok(_) | Err(_) => continue`) while the cluster
    /// node's migration drain counted the same thing `malformed`. The
    /// test plays leader on node 1's stream ring.
    #[test]
    fn garbage_on_a_peer_stream_is_counted_and_survived() {
        let cluster: ReplCluster<TicketLock> = ReplCluster::new(1, 64, 8, ReplSpec::sync(1));
        let map = cluster.map().clone();
        let (mut endpoints, mut clients) = repl_mesh(&map, 1);
        let follower = endpoints[0].pop().unwrap();
        // Held, not served: its ack ring keeps a reader.
        let leader = endpoints[0].pop().unwrap();
        let client = clients.pop().unwrap();
        std::thread::scope(|s| {
            let cfg = cluster.node_config(0, 1, &FaultSpec::none());
            let (store, log, map) = (cluster.node_store(0, 1), cluster.log(0), &map);
            let node = s.spawn(move || serve_node(store, log, map, follower, cfg));
            let stream = &leader.peer_stream_tx[1];
            stream.send([0xEE; ssync_mp::MSG_WORDS]);
            let mut frames = Vec::new();
            ssync_srv::wire::encode_replicate(7, 1, b"after", &mut frames);
            stream.send_all_connected(&frames).unwrap();
            while map.hwm_of(0, 1) < 1 {
                std::thread::yield_now();
            }
            let scrape = client.stats_of(0, 1).unwrap();
            assert_eq!(scrape.counter("srv.malformed"), Some(1));
            assert_eq!(scrape.counter("node.applied"), Some(1));
            Request::Stop.encode_into(&mut frames);
            stream.send_all_connected(&frames).unwrap();
            client.close();
            assert_eq!(node.join().unwrap().malformed, 1);
        });
        let (version, value) = cluster
            .node_store(0, 1)
            .get_with_version(&key_bytes(7))
            .unwrap();
        assert_eq!((version, value.as_ref()), (1, b"after".as_slice()));
    }

    /// Regression: the follower pulled an entry's continuation frames
    /// with a receive that never gives up, so a leader that died after
    /// a long value's head frame wedged the follower. The truncated
    /// entry is counted malformed, neither applied nor acked, and the
    /// node keeps serving — here until it promotes itself over the dead
    /// leader and shuts down. Detached under a deadline, so a wedged
    /// node fails instead of hanging the suite.
    #[test]
    fn a_peer_dying_mid_entry_is_counted_and_the_follower_keeps_serving() {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let cluster: ReplCluster<TicketLock> = ReplCluster::new(1, 64, 8, ReplSpec::sync(1));
            let map = cluster.map().clone();
            let (mut endpoints, mut clients) = repl_mesh(&map, 1);
            let follower = endpoints[0].pop().unwrap();
            // Held, not served: its ack ring keeps a reader.
            let mut leader = endpoints[0].pop().unwrap();
            let client = clients.pop().unwrap();
            let report = std::thread::scope(|s| {
                let cfg = cluster.node_config(0, 1, &FaultSpec::none());
                let (store, log, map) = (cluster.node_store(0, 1), cluster.log(0), &map);
                let node = s.spawn(move || serve_node(store, log, map, follower, cfg));
                let mut frames = Vec::new();
                ssync_srv::wire::encode_replicate(7, 1, &[9; 300], &mut frames);
                let stream = leader.peer_stream_tx.pop().unwrap();
                stream.send(frames[0]);
                drop(stream);
                let scrape = || client.stats_of(0, 1).unwrap();
                while scrape().counter("srv.malformed") != Some(1) {
                    std::thread::yield_now();
                }
                assert_eq!(scrape().counter("node.applied"), Some(0));
                assert!(map.report_death(0, 0));
                client.close();
                node.join().unwrap()
            });
            assert_eq!(map.hwm_of(0, 1), 0, "nothing acked");
            assert!(cluster.node_store(0, 1).is_empty(), "nothing applied");
            done_tx.send(report).unwrap();
        });
        let report = done_rx
            .recv_timeout(Duration::from_secs(20))
            .expect("a peer that died mid-entry wedged the follower");
        assert_eq!(report.malformed, 1);
    }

    /// Regression: `repl_mesh` seeded every client's cached view with
    /// the literal term 1 led by node 0, so a client built over a map
    /// that had already failed over sent its first write to the dead seed
    /// leader and paid a retry (a `WrongLeader` redirect, had that node
    /// been serving).
    #[test]
    fn a_mesh_built_after_a_failover_writes_to_the_current_leader() {
        let cluster: ReplCluster<TicketLock> = ReplCluster::new(1, 64, 8, ReplSpec::sync(1));
        let map = cluster.map().clone();
        assert!(map.report_death(0, 0));
        assert!(map.try_promote(0, 1).is_some());
        let (mut endpoints, mut clients) = repl_mesh(&map, 1);
        let leader = endpoints[0].pop().unwrap();
        // The dead seed leader's endpoint: nobody serves it.
        drop(endpoints);
        let client = clients.pop().unwrap();
        std::thread::scope(|s| {
            let cfg = cluster.node_config(0, 1, &FaultSpec::none());
            let (store, log, map) = (cluster.node_store(0, 1), cluster.log(0), &map);
            s.spawn(move || serve_node(store, log, map, leader, cfg));
            client.set(7, b"v".to_vec()).unwrap();
            assert_eq!((client.redirects(), client.lost_to_retry()), (0, 0));
            client.close();
        });
    }

    /// One logged write of the enumeration's script.
    type Scripted = (u64, u64, Option<&'static [u8]>);

    /// Puts and deletes on two keys; the versions skip where a failed
    /// CAS would have burned one.
    const SCRIPT: [Scripted; 5] = [
        (1, 1, Some(b"a1")),
        (2, 2, Some(b"b2")),
        (1, 4, None),
        (1, 5, Some(b"a5")),
        (2, 7, None),
    ];

    /// What replaying the script's entries at or below `hwm` leaves.
    fn replay(hwm: u64) -> Vec<(Vec<u8>, u64, Vec<u8>)> {
        let mut model = std::collections::BTreeMap::new();
        for &(key, version, value) in SCRIPT.iter().filter(|e| e.1 <= hwm) {
            match value {
                Some(value) => model.insert(key, (version, value)),
                None => model.remove(&key),
            };
        }
        let row = |(key, (version, value)): (u64, (u64, &[u8]))| {
            (key_bytes(key).to_vec(), version, value.to_vec())
        };
        model.into_iter().map(row).collect()
    }

    /// Who opens term 2 in a schedule: a peer — with the follower first
    /// running before the old leader died, or only after the promotion
    /// — or the follower itself.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Successor {
        Peer { late: bool },
        Me,
    }

    /// One schedule of the enumeration: node 0 logs and streams the
    /// script's first `streamed` entries and dies; the death lands in
    /// the map once the follower (node 2) has consumed `death` frames,
    /// the promotion once it has consumed `promotion`; a peer successor
    /// (node 1) then streams the rest of the first `entries`. `ahead`
    /// has each leader log all it will ever stream before the follower
    /// pops any of it, instead of one entry ahead of the pop; `stale`
    /// fences the frame popped right after the promotion against the
    /// view read before it, as a `serve_node` iteration can.
    #[derive(Debug)]
    struct Schedule {
        entries: usize,
        streamed: usize,
        death: usize,
        promotion: usize,
        successor: Successor,
        ahead: bool,
        stale: bool,
        plan: FaultPlan,
    }

    /// Drives one [`Follower`] through `schedule` the way `serve_node`
    /// would — view, adoption, pop, fence, `on_entry` — checking after
    /// every step that its store is exactly the replay of the log at
    /// or below its `hwm`, and after a promotion or `Stop` of the
    /// whole log. `forgetful` is the twin: `missed` is wiped after
    /// every frame, so a dropped one is never remembered to the next.
    fn run_schedule(schedule: &Schedule, forgetful: bool) {
        const ME: usize = 2;
        let store: KvStore<TicketLock> = KvStore::new(8, 2);
        let (log, map) = (OpLog::new(SCRIPT.len()), ClusterMap::new(1, 3));
        let start = || {
            let cfg = NodeConfig {
                shard: 0,
                mode: ReplMode::Async { max_lag: 8 },
                initial_hwm: 0,
                backup_plan: schedule.plan.clone(),
                crash_plan: FaultPlan::none(),
            };
            Follower::new(&store, &log, &map, ME, &cfg)
        };
        // A leader logs an entry before it streams it.
        let log_through = |end: usize| {
            for &(key, version, value) in SCRIPT.iter().take(end).skip(log.len()) {
                let value = value.map(Bytes::from_static);
                log.append(LogEntry::committed(key, version, value.as_ref()));
            }
        };
        let check = |follower: &Follower<'_, TicketLock>, whole_log: bool| {
            let logged = log.len().checked_sub(1).map_or(0, |last| SCRIPT[last].1);
            let through = if whole_log {
                logged
            } else {
                follower.report.hwm
            };
            let held = store.dump().into_iter();
            let held: Vec<_> = held
                .map(|(k, at, v)| (k.to_vec(), at, v.to_vec()))
                .collect();
            assert!(
                follower.report.hwm == through && held == replay(through),
                "hwm passed an unapplied entry: hwm {} over {held:?} with {logged} logged, \
                 {schedule:?}",
                follower.report.hwm
            );
        };
        let late = schedule.successor == Successor::Peer { late: true };
        let mut follower = (!late).then(start);
        if schedule.ahead {
            log_through(schedule.streamed);
        }
        // Each frame in turn, then (`None`) the successor's `Stop`.
        let frames = SCRIPT[..schedule.entries].iter().map(Some);
        for (consumed, frame) in frames.chain([None]).enumerate() {
            let before = map.view(0);
            if consumed == schedule.death {
                log_through(schedule.streamed);
                map.report_death(0, 0);
            }
            if consumed == schedule.promotion && schedule.successor == Successor::Me {
                map.set_observer(0, 1);
                let follower = follower.as_mut().expect("started early");
                let term = map.try_promote(0, ME).expect("the only candidate");
                follower.promote(term);
                return check(follower, true);
            }
            if consumed == schedule.promotion {
                map.publish_hwm(0, 1, u64::MAX);
                map.try_promote(0, 1)
                    .expect("the peer outranks the follower");
                if schedule.ahead {
                    log_through(schedule.entries);
                }
            }
            let stale = schedule.stale && consumed == schedule.promotion;
            let view = if stale { before } else { map.view(0) };
            let follower = follower.get_or_insert_with(start);
            if view.term > follower.report.term {
                follower.adopt(view.term);
                check(follower, false);
            }
            let Some(&(key, version, value)) = frame else {
                follower.on_stop();
                return check(follower, true);
            };
            log_through(consumed + 1);
            let peer = usize::from(consumed >= schedule.streamed);
            let entry = EntryView {
                key,
                version,
                value,
            };
            follower.on_entry(entry, stream_fence(view, ME, peer));
            if forgetful {
                follower.missed = 0;
            }
            check(follower, false);
        }
    }

    /// Every schedule at small scope: up to five logged entries, the
    /// old leader dying after streaming any prefix, the death and the
    /// promotion landing at every position of the follower's
    /// consumption, each successor, both log leads, the stale fence,
    /// and every one-window plan. Returns how many it ran.
    fn enumerate_follower(forgetful: bool) -> usize {
        let mut plans = vec![FaultPlan::none()];
        for kind in [FaultKind::Stall, FaultKind::Crash] {
            for at_entry in 1..=SCRIPT.len() as u64 {
                for window in 1..=3 {
                    plans.push(FaultPlan::from_events(vec![FaultEvent {
                        at_entry,
                        kind,
                        window,
                    }]));
                }
            }
        }
        let early = Successor::Peer { late: false };
        let mut ran = 0;
        for entries in 1..=SCRIPT.len() {
            for streamed in 0..=entries {
                for death in 0..=streamed {
                    for promotion in death..=streamed {
                        for successor in [early, Successor::Peer { late: true }, Successor::Me] {
                            // A late starter has consumed nothing; a
                            // follower that promotes streams to no one.
                            let skip = match successor {
                                Successor::Peer { late } => late && promotion > 0,
                                Successor::Me => streamed < entries,
                            };
                            if skip {
                                continue;
                            }
                            for (ahead, stale) in
                                [(false, false), (false, true), (true, false), (true, true)]
                            {
                                // Only an early starter holds a view
                                // older than the promotion.
                                if stale && successor != early {
                                    continue;
                                }
                                for plan in &plans {
                                    let schedule = Schedule {
                                        entries,
                                        streamed,
                                        death,
                                        promotion,
                                        successor,
                                        ahead,
                                        stale,
                                        plan: plan.clone(),
                                    };
                                    run_schedule(&schedule, forgetful);
                                    ran += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        ran
    }

    /// The hwm invariant, exhaustively at small scope: `Follower`
    /// touches no ring, so one thread can put it through every
    /// interleaving of stream, death, promotion and fault window a
    /// `serve_node` loop can see.
    #[test]
    fn follower_never_lets_hwm_pass_an_unapplied_entry() {
        let ran = enumerate_follower(false);
        eprintln!("follower enumeration: {ran} schedules");
    }

    /// The twin: a follower that does not remember a dropped frame
    /// must be caught by the same enumeration — by the invariant's own
    /// `debug_assert` in a debug build, by the store check otherwise
    /// (first at two entries: the old leader streams one and dies, the
    /// follower starts after the promotion — hole (A) in miniature).
    #[test]
    #[should_panic(expected = "hwm passed an unapplied entry")]
    fn a_follower_that_forgets_a_dropped_frame_is_found() {
        enumerate_follower(true);
    }
}
