//! Primary/backup replication over the `ssync-srv` service, with
//! term-fenced failover.
//!
//! A node runs `ssync-srv`'s one node loop ([`NodeCore::run`]) —
//! polling, decoding, executing, replying, scraping, pacing — and a
//! client connection is its [`Conn`]. What this module owns is the
//! replication policy the loop runs, one private node struct: role and
//! term maintenance and the peer streams before each poll, the
//! follower's transitions (the private `Follower`, which touches no
//! ring), the per-request not-leader bounce and floor-guarded replica
//! reads in front of the executor, the leader's replication of every
//! committed write, and the client's leader-chasing retries.
//!
//! Each shard is a *replication group* of N = R + 1 symmetric **nodes**
//! (threads), each owning a full `KvStore` copy. At any instant exactly
//! one node — named by the shared [`ClusterMap`] word — is the
//! **leader** (applies writes, appends to the shard's bounded
//! [`OpLog`], streams `Replicate` frames); the rest are **followers**
//! (apply the stream through the version gates, serve floor-guarded
//! replica reads, publish their applied high-water mark in the map —
//! which is the leader's ack). All traffic rides
//! [`ssync_mp::ring_channel`] cache-line frames over a full node×node
//! stream mesh plus per-client connections to every node.
//!
//! **Write path.** The leader applies a write under its store's lock,
//! takes the CAS version the store assigned (the per-shard replication
//! sequence — writes are serialized by the leader thread, so versions
//! are dense and strictly increasing across *successive leaders*),
//! appends the entry to the op-log, streams it to every live follower,
//! and ends its turn owing the reply ([`Hooks::reply_owed`]): the node
//! core holds it, serving no other request, and sends it on the first
//! later turn that finds the write settled by the followers' published
//! hwms; the unsettled turns between spin and yield but never sleep
//! ([`NodeCore::run`]). In [`ReplMode::Sync`] that is once every live
//! follower's hwm has reached the write's version; in
//! [`ReplMode::Async`] at once, unless a follower trails by more than
//! `max_lag` log entries. A follower whose stream receiver is gone has
//! exited and counts as settled. The settled reply truncates the log
//! through the lowest live hwm.
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
//! no longer names leader is counted and dropped — and *remembered*: a
//! follower applies nothing more from any stream until the one log
//! replay has covered what it dropped, so its hwm never passes an entry
//! it has not applied. That invariant is what makes "highest published hwm wins"
//! safe; adoption of a new term, a fault window's close, promotion and
//! `Stop` all end in the same replay. Writes reaching a non-leader
//! bounce with `WrongLeader`.
//!
//! **Read path.** Clients route reads round-robin across a shard's live
//! followers with a *freshness floor* (the highest version the client
//! observed on that shard); a follower behind the floor (or inside a
//! crash window) answers `Stale` and the client falls back to the
//! leader. While a shard is leaderless, writes and leader reads wait
//! for a promotion within the operation's retry [`Budget`]; a client
//! that opted into [`ReplClient::with_stale_reads`] degrades reads to
//! floor-zero replica reads instead of waiting.
//!
//! **Deadlock discipline** (rings are deeper than one frame but still
//! bounded, so the same rules apply):
//! * no node waits on a peer inside its turn: a leader owes a reply
//!   instead of awaiting acks, a follower's ack is a store to the map,
//!   and a peer's half-published message is resumed on a later turn
//!   ([`StreamDecoder`]), not waited for;
//! * the one wait left between nodes, the leader's send on a full
//!   stream ring, is safe because a follower never blocks *on the
//!   leader*: it runs a polling loop (even a "crashed" follower keeps
//!   draining, discarding), and its only blocking sends are reply
//!   frames to a client that, having an outstanding request on that
//!   very ring, is by construction draining it;
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
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;

use ssync_core::{Fence, RegistrySnapshot};
use ssync_kv::{KvStore, StatsSnapshot};
use ssync_locks::RawLock;
use ssync_mp::{ring_channel, Message, RingReceiver, RingSender};
use ssync_srv::router::{key_bytes, shard_of, ShardRouter};
use ssync_srv::service::{
    ring_mesh, KvClient, ReadHit, ServeReport, ServerEndpoint, ServiceClient,
};
use ssync_srv::wire::{Request, Response, WireError, MGET_MAX, NO_LEADER, REPL_MGET_MAX};
use ssync_srv::{
    batch_rounds, chase, Budget, Chase, Conn, Hooks, NodeCore, StreamDecoder, Turn, OP_BUDGET,
};

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
    /// entries (past that, the leader holds a write's reply until the
    /// followers' published hwms catch up). Stale
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

    /// The post-preload high-water mark of shard `s` (every node's
    /// starting hwm).
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
    /// Only meaningful once the servers have shut down (a leader exits
    /// only once every live follower has published its last version).
    /// A shard with no live node left is trivially converged.
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

/// One node's side of the mesh: its clients' channels plus a stream
/// ring *per peer in each direction* — symmetric, because any node may
/// end up leading. Peer vectors index by node id; the self slot is a
/// ring nobody uses. Acks ride no ring: a follower's ack is the hwm it
/// publishes in the [`ClusterMap`].
pub struct NodeEndpoint {
    node: usize,
    clients: ServerEndpoint<RingReceiver, RingSender>,
    peers: Peers,
}

/// A node's rings to and from its peers, indexed by peer id.
#[derive(Default)]
struct Peers {
    /// `stream_rx[p]`: replication frames *from* node `p`, and their
    /// decode, resumed across turns.
    stream_rx: Vec<(RingReceiver, StreamDecoder)>,
    /// `stream_tx[p]`: replication frames *to* node `p`.
    stream_tx: Vec<RingSender>,
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
/// leader (chasing `WrongLeader` redirects and dead-node
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

/// Every node's [`Peers`] in a group of `nodes`: one stream ring per
/// ordered pair of nodes.
fn peer_mesh(nodes: usize) -> Vec<Peers> {
    let mut peers: Vec<Peers> = (0..nodes).map(|_| Peers::default()).collect();
    for from in 0..nodes {
        for to in 0..nodes {
            let (tx, rx) = ring_channel(STREAM_DEPTH);
            peers[from].stream_tx.push(tx);
            peers[to].stream_rx.push((rx, StreamDecoder::default()));
        }
    }
    peers
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
            let peers = peer_mesh(nodes).into_iter().zip(client_eps.by_ref());
            let endpoint = |(node, (peers, clients))| NodeEndpoint {
                node,
                clients,
                peers,
            };
            peers.enumerate().map(endpoint).collect()
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
            deadline: OP_BUDGET,
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

/// A follower's fault window: while `Out`, the next `left` stream
/// entries are received and not applied. A stall and a crash recover
/// the same way, on the log; `crashed` only adds the `Stale` refusal of
/// replica reads a crash window carries.
enum Window {
    Healthy,
    Out { left: u64, crashed: bool },
}

/// The follower half of a node — what it has applied (`report.hwm`,
/// which it publishes as its ack), the term it follows (`report.term`),
/// its fault window and plan cursor — and every transition of a node
/// that is not leading, written once. It touches no ring: the node
/// around it polls, decodes and fences; this type decides what each
/// frame does to the store.
///
/// **Invariant: `hwm` never passes an entry this node has not
/// applied** — the store holds exactly what the log's entries at or
/// below `hwm` replay to, which is what makes a published hwm safe to
/// promote on, to reply on and to truncate the log through.
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
    /// the node around it the leader-side ones.
    report: NodeReport,
    plan: FaultPlan,
    /// The next event of `plan`, and the stream entries seen so far
    /// (what its `at_entry` indices count).
    next_fault: usize,
    entries_seen: u64,
    window: Window,
    /// The newest stream entry received and not applied.
    missed: u64,
    /// The leader's `Stop` arrived: exit.
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

    /// Publishes `hwm`: the leader's ack, and this node's standing in
    /// a promotion.
    fn publish(&self) {
        self.map
            .publish_hwm(self.shard, self.report.node, self.report.hwm);
    }

    /// The one log replay: closes any window and applies what the log
    /// holds past `hwm`, up to `through`. An entry is logged before it
    /// is streamed and never truncated past a live node's hwm, so every
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

    /// The current leader is shutting the group down: catch up, which
    /// publishes the hwm the leader's exit waits on.
    fn on_stop(&mut self) {
        self.catch_up(u64::MAX);
        self.stopped = true;
    }

    /// Promotion's hand-over: replay the log tail (everything
    /// acknowledged by anyone is in there — see DESIGN.md), then retire
    /// the follower — a leader takes no windows.
    fn promote(&mut self, term: Fence) {
        self.catch_up(u64::MAX);
        self.report.term = term;
        self.plan = FaultPlan::none();
        self.report.promotions += 1;
        self.report.last_version = self.report.last_version.max(self.report.hwm);
    }
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
/// that arm of a node's turn passes a view read *after* the frame was
/// popped: the promotion CAS happens-before the ring publish, so a map
/// word read after the pop names the sender.
pub fn stream_fence(view: ShardView, me: usize, peer: usize) -> bool {
    view.leader == Some(peer) && peer != me
}

/// One node of a replication group, as the [`Hooks`] of the one node
/// loop: the [`Follower`] it is while not leading, and what it leads with.
struct ReplNode<'a, R: RawLock + Default> {
    follower: Follower<'a, R>,
    cfg: NodeConfig,
    peers: Peers,
    /// Scratch for every message streamed to the peers.
    frames: Vec<Message>,
    /// This turn's read of the shard's map word; does it name this node?
    view: ShardView,
    leading: bool,
    /// The version the reply the core holds settles at.
    owed: Option<u64>,
    /// The leader has streamed its shutdown `Stop`.
    stopping: bool,
    /// The shard's crash schedule kills the leader after this write.
    dying: bool,
}

impl<R: RawLock + Default> Hooks for ReplNode<'_, R> {
    /// Always: the log and the stream carry every write's value.
    fn observes_writes(&self) -> bool {
        true
    }

    fn committed(&mut self, key: u64, version: u64, value: Option<&Bytes>) {
        self.replicate(LogEntry::committed(key, version, value));
        self.owed = Some(version);
        self.dying = crash_scheduled(&self.cfg.crash_plan, version - self.cfg.initial_hwm);
    }

    /// The settle rule: a write's reply is owed until every live
    /// follower has published its version (sync), or until none trails
    /// the log by more than the lag bound (async). Settling truncates
    /// the log through the ack — nothing a live follower may still need
    /// to replay.
    fn reply_owed(&mut self) -> bool {
        let Some(version) = self.owed else {
            return false;
        };
        let (acked, log) = (self.acked_through(), self.follower.log);
        let settled = match self.cfg.mode {
            ReplMode::Sync => acked >= version,
            ReplMode::Async { max_lag } => log.outstanding_after(acked) as u64 <= max_lag,
        };
        if settled {
            log.truncate_through(acked);
            self.owed = None;
        }
        !settled
    }

    /// Role and term maintenance, and at most one whole message off a
    /// peer's replication stream — which ends the turn.
    fn before_poll(&mut self, counts: &mut ServeReport) -> ControlFlow<Turn, bool> {
        let follower = &mut self.follower;
        let (map, shard, me) = (follower.map, follower.shard, follower.report.node);
        if self.dying && self.owed.is_none() {
            // The scheduled death, first thing in the turn after the one
            // that sent the write's reply: from here on only the
            // followers can keep that promise. Mark the map (vacating
            // the shard) and drop the endpoint; queued requests die with
            // us and surface client-side as `Disconnected`.
            follower.report.crashed = true;
            map.report_death(shard, me);
            return ControlFlow::Break(Turn::Exit);
        }
        // ---- Role and term maintenance (one map word read). ----
        self.view = map.view(shard);
        if self.view.term > follower.report.term {
            follower.adopt(self.view.term);
        }
        if self.view.leader.is_none() {
            if let Some(term) = map.try_promote(shard, me) {
                follower.promote(term);
                self.view = map.view(shard);
            }
        }
        self.leading = self.view.leader == Some(me);

        // ---- A peer's replication stream, if one has a message. ----
        let mut streams = self.peers.stream_rx.iter_mut().enumerate();
        let streamed = streams.find_map(|(peer, (rx, inbox))| Some((peer, inbox.try_recv(rx)?)));
        let Some((peer, request)) = streamed else {
            return ControlFlow::Continue(false);
        };
        if request == Ok(Request::Stop) {
            // Decided against the map as it is *now*, not the `view`
            // from the top of this turn: a peer that promoted, found no
            // live client and streamed `Stop` since then is not the
            // leader `view` names, and a `Stop` dropped on a stale view
            // is never resent — this node would idle forever behind a
            // leader that has exited. The promotion CAS happens-before
            // the ring publish, so a word read after the pop names the
            // sender.
            if stream_fence(map.view(shard), me, peer) {
                follower.on_stop();
            }
        } else if let Some(entry) = request.as_ref().ok().and_then(EntryView::of) {
            follower.on_entry(entry, stream_fence(self.view, me, peer));
        } else {
            // A peer that died mid-entry (nothing to apply, and nothing
            // more will come on its ring), or anything else on a stream
            // internal to the group — a bug upstream: counted, not
            // answered, and ignoring it beats dying.
            counts.malformed += 1;
        }
        ControlFlow::Break(Turn::Progress)
    }

    /// Replica reads are served by any node — the leader is always
    /// fresh enough, a follower checks its floor and window state — and
    /// one `Stale` answers a whole batch. Writes and authoritative reads
    /// belong to the leader, and the bounce is per *request*: one
    /// `WrongLeader` answers a whole multi-get. Node-to-node frames on a
    /// client connection go on to the core, which refuses them in any
    /// role.
    fn gate(&mut self, request: Request) -> Result<Request, Response> {
        let report = &mut self.follower.report;
        let freshness = report.hwm.max(report.last_version);
        let down =
            !self.leading && matches!(self.follower.window, Window::Out { crashed: true, .. });
        match request {
            Request::ReplGet { floor, .. } | Request::ReplMultiGet { floor, .. }
                if down || freshness < floor =>
            {
                report.refused_reads += 1;
                Err(Response::Stale { hwm: freshness })
            }
            // A replica read that passed the guard is a plain read.
            Request::ReplGet { key, .. } => Ok(Request::Get { key }),
            Request::ReplMultiGet { keys, .. } => Ok(Request::MultiGet { keys }),
            Request::Replicate { .. } | Request::ReplicateDelete { .. } => Ok(request),
            _ if !self.leading => {
                report.wrong_leader += 1;
                let leader = self.view.leader.map_or(NO_LEADER, |l| l as u64);
                let term = report.term;
                Err(Response::WrongLeader { term, leader })
            }
            request => Ok(request),
        }
    }

    /// A follower exits once it has taken the leader's `Stop` — or once
    /// its shard is leaderless with no candidate left, which will never
    /// send one. A leader streams `Stop` and exits once every live
    /// follower has published its last logged version: the group is
    /// converged when it returns.
    fn may_exit(&mut self) -> bool {
        let follower = &self.follower;
        if !self.leading {
            return follower.stopped
                || (self.view.leader.is_none()
                    && follower.map.live_candidates(follower.shard) == 0);
        }
        if !self.stopping {
            self.stopping = true;
            Request::Stop.encode_into(&mut self.frames);
            self.stream();
        }
        self.acked_through() >= self.follower.report.last_version
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        let report = &self.follower.report;
        vec![
            ("node.entries", report.entries),
            ("node.applied", report.applied),
            ("node.from_log", report.from_log),
            ("node.stale_drops", report.stale_drops),
            ("node.refused_reads", report.refused_reads),
            ("node.hwm", report.hwm),
            ("node.wrong_leader", report.wrong_leader),
            ("node.promotions", report.promotions),
            ("node.term", u64::from(report.term)),
            ("node.leading", u64::from(self.leading)),
        ]
    }
}

impl<'a, R: RawLock + Default> ReplNode<'a, R> {
    /// Node `endpoint.node()` of `cfg.shard`'s group, and the core that
    /// serves its clients.
    fn new(
        store: &'a KvStore<R>,
        log: &'a OpLog,
        map: &'a ClusterMap,
        endpoint: NodeEndpoint,
        cfg: NodeConfig,
    ) -> (NodeCore<RingReceiver, RingSender>, Self) {
        let NodeEndpoint {
            node: me,
            clients,
            peers,
        } = endpoint;
        let node = ReplNode {
            follower: Follower::new(store, log, map, me, &cfg),
            view: map.view(cfg.shard),
            cfg,
            peers,
            frames: Vec::new(),
            leading: false,
            owed: None,
            stopping: false,
            dying: false,
        };
        (NodeCore::new(clients), node)
    }

    /// Logs one committed write and streams it to every live follower.
    fn replicate(&mut self, entry: LogEntry) {
        self.follower.report.last_version = entry.version;
        if self.live_peers().next().is_none() {
            // No follower left (every backup died leading, or an
            // unreplicated shard): nothing to log — no one will ever
            // replay it, so nothing could ever be truncated — or stream.
            return;
        }
        entry.encode_into(&mut self.frames);
        self.follower.log.append(entry);
        self.follower.report.entries += 1;
        self.stream();
    }

    /// Sends `frames` to every live peer. The one wait left on a
    /// leader's turn: a full stream ring. Best-effort — a dead peer's
    /// dropped receiver fails the send instead of wedging the leader.
    fn stream(&self) {
        for p in self.live_peers() {
            let _ = self.peers.stream_tx[p].send_all_connected(&self.frames);
        }
    }

    /// The peers the map has not marked dead.
    fn live_peers(&self) -> impl Iterator<Item = usize> + '_ {
        let follower = &self.follower;
        let me = follower.report.node;
        (0..self.peers.stream_tx.len())
            .filter(move |&p| p != me && !follower.map.is_dead(follower.shard, p))
    }

    /// The leader's ack: the lowest hwm a live follower has published.
    /// A follower whose stream receiver is gone has exited and counts
    /// as caught up.
    fn acked_through(&self) -> u64 {
        let follower = &self.follower;
        let hwm = |p: usize| {
            if self.peers.stream_tx[p].receiver_closed() {
                u64::MAX
            } else {
                follower.map.hwm_of(follower.shard, p)
            }
        };
        self.live_peers().map(hwm).min().unwrap_or(u64::MAX)
    }
}

/// Runs one node of a shard's replication group until shutdown (every
/// client stopped and the group converged) or scheduled death, on the
/// one node loop ([`NodeCore::run`]).
///
/// The node follows the [`ClusterMap`]: while the map names it leader
/// it serves writes, streams entries, and owes each write's reply until
/// the followers' published hwms settle it per [`ReplMode`]; otherwise
/// it applies the current leader's stream through the version gates,
/// publishes its hwm, serves floor-guarded replica reads, fences
/// stale-term frames, and stands for promotion whenever the shard goes
/// leaderless (most-caught-up candidate wins — see
/// [`ClusterMap::try_promote`]). A leader that outlives its clients
/// streams `Stop` and returns once every live follower has published its
/// last version.
pub fn serve_node<R: RawLock + Default>(
    store: &KvStore<R>,
    log: &OpLog,
    map: &ClusterMap,
    endpoint: NodeEndpoint,
    cfg: NodeConfig,
) -> NodeReport {
    let (core, mut node) = ReplNode::new(store, log, map, endpoint, cfg);
    let counts = core.run(store, &mut node);
    NodeReport {
        requests: counts.requests,
        key_ops: counts.key_ops,
        malformed: counts.malformed,
        ..node.follower.report
    }
}

/// True if the shard's crash schedule kills the leader right after the
/// write that produced this entry index.
fn crash_scheduled(plan: &FaultPlan, entry_index: u64) -> bool {
    plan.events()
        .iter()
        .any(|ev| ev.kind == FaultKind::PrimaryCrash && ev.at_entry == entry_index)
}

impl ReplClient {
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

    /// `WrongLeader` bounces chased so far.
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

    /// Raises the shard's freshness floor to the version `response`
    /// carries, if any.
    fn observed(&self, shard: usize, response: Response) -> Response {
        if let Response::Stored { version }
        | Response::Deleted { version }
        | Response::Value { version, .. } = response
        {
            let floor = &self.shards[shard].floor;
            floor.set(floor.get().max(version));
        }
        response
    }

    fn bump(counter: &Cell<u64>, by: u64) {
        counter.set(counter.get() + by);
    }

    fn next_seed(&self) -> u64 {
        let s = self.seed.get();
        self.seed.set(s.wrapping_add(0x9E37_79B9_7F4A_7C15));
        s
    }

    fn budget(&self) -> Budget {
        Budget::new(self.deadline, self.next_seed())
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

    /// If `response` is a `WrongLeader` bounce, adopts the redirect it
    /// carries (unless older than the cached view) and returns true.
    fn note_redirect(&self, shard: usize, response: &Response) -> bool {
        let Response::WrongLeader { term, leader } = *response else {
            return false;
        };
        let leader = usize::try_from(leader).ok().filter(|_| leader != NO_LEADER);
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

    /// The leader chase of `shard` under `budget`, every write (and
    /// authoritative read) goes through: returns the leader that
    /// answered with its reply, having raised the shard's floor to any
    /// version the reply carries.
    fn at_leader(
        &self,
        shard: usize,
        request: &Request,
        budget: &mut Budget,
    ) -> Result<(usize, Response), WireError> {
        let (node, response) = chase(
            &Leader {
                client: self,
                shard,
            },
            request,
            budget,
        )?;
        Ok((node, self.observed(shard, response)))
    }

    /// Authoritatively fetches `positions` through the leader chase,
    /// in [`MGET_MAX`]-sized slices.
    fn fetch_from_leader(
        &self,
        shard: usize,
        positions: &[usize],
        keys: &[u64],
        results: &mut [ReadHit],
    ) -> Result<(), WireError> {
        for slice in positions.chunks(MGET_MAX) {
            let batch: Vec<u64> = slice.iter().map(|&p| keys[p]).collect();
            let request = Request::MultiGet { keys: batch };
            let (leader, first) = self.at_leader(shard, &request, &mut self.budget())?;
            results[slice[0]] = first.into_read("MultiGet")?;
            // The tail comes from the leader that just answered. It
            // cannot die inside the tail (a scheduled crash only
            // follows a *write*, and responses are emitted whole
            // between requests), so a disconnect here is an error.
            for &pos in &slice[1..] {
                let response = self.conn(shard, leader).recv()?;
                results[pos] = self.observed(shard, response).into_read("MultiGet")?;
            }
        }
        Ok(())
    }

    /// Tells every node this client is done, consuming the client.
    /// Dead nodes are skipped — their inboxes have no reader.
    pub fn close(self) {
        self.mesh.close();
    }
}

/// The chase policy of one leader exchange on `shard`: ask the cached
/// leader, adopt `WrongLeader` redirects, and retry a node
/// lost under the request.
struct Leader<'c> {
    client: &'c ReplClient,
    shard: usize,
}

impl Chase for Leader<'_> {
    fn pick(&self) -> Option<(usize, &Conn)> {
        let leader = self.client.shard_view(self.shard).leader?;
        Some((leader, self.client.conn(self.shard, leader)))
    }

    fn redirected(&self, response: &Response) -> bool {
        self.client.note_redirect(self.shard, response)
    }

    /// Retrying on [`WireError::Disconnected`] is exactly-once, not
    /// at-least-once: a node sends the complete response *before* a
    /// scheduled crash takes it down, responses survive in the reply
    /// ring after death, and the connected receive drains that backlog
    /// before reporting the disconnect. `Disconnected` therefore
    /// proves the request still sat unread in the dead node's inbox.
    /// The cached view forgets the lost leader, so the next pick
    /// consults the map.
    fn lost(&self, _node: usize) -> bool {
        ReplClient::bump(&self.client.lost_to_retry, 1);
        let view = &self.client.shards[self.shard].view;
        view.set(ShardView {
            term: view.get().term,
            leader: None,
        });
        true
    }
}

/// Writes and leader reads chase the shard's leader under one budget
/// per operation (the client's deadline), and raise the shard's
/// freshness floor to the version they return.
///
/// # Errors
///
/// Every operation: [`WireError`] on an undecodable or
/// out-of-protocol reply, a peer dead past the retry budget, or
/// [`WireError::Deadline`].
impl KvClient for ReplClient {
    fn exchange(&self, key: u64, request: &Request) -> Result<Response, WireError> {
        let shard = shard_of(key, self.shards.len());
        let (_, response) = self.at_leader(shard, request, &mut self.budget())?;
        Ok(response)
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
    fn get(&self, key: u64) -> Result<ReadHit, WireError> {
        let shard = shard_of(key, self.shards.len());
        let mut budget = self.budget();
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
                if !budget.pause() {
                    return Err(last_err.unwrap_or(WireError::Deadline));
                }
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
                        let hit = self.observed(shard, response).into_read("ReplGet")?;
                        Self::bump(&self.replica_serves, 1);
                        return Ok(hit);
                    }
                    Err(WireError::Disconnected) => {
                        // Follower gone (it was leading and died, or is
                        // shutting down): refresh and retry the loop.
                        last_err = Some(WireError::Disconnected);
                        self.refresh_view(shard);
                        if !budget.pause() {
                            return Err(WireError::Disconnected);
                        }
                        continue;
                    }
                    Err(e) => return Err(e),
                }
            }
            match self.at_leader(shard, &Request::Get { key }, &mut budget) {
                Ok((_, response)) => return response.into_read("Get"),
                // The authoritative path is gone with the budget; while
                // the shard is leaderless, loop back so that branch can
                // serve the read floor-free.
                Err(e @ (WireError::Disconnected | WireError::Deadline))
                    if self.stale_reads && self.shards[shard].view.get().leader.is_none() =>
                {
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
    fn get_many(&self, keys: &[u64]) -> Result<Vec<ReadHit>, WireError> {
        let many_nodes = self.map.nodes_per_shard() > 1;
        let chunk_size = if many_nodes { REPL_MGET_MAX } else { MGET_MAX };
        let mut results: Vec<ReadHit> = vec![None; keys.len()];
        batch_rounds(keys, self.shards.len(), chunk_size, |chunks| {
            // Send phase: pipeline one chunk per shard. A chunk goes to
            // a live follower as a floor-guarded `ReplMultiGet`, or —
            // all followers dead, and small enough for one `MultiGet` —
            // to the leader; `None` marks a chunk not sent (leaderless,
            // oversized, or the target died under the send).
            let mut inflight = Vec::new();
            for (shard, &chunk) in chunks.iter().enumerate() {
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
            // for the whole chunk: a node emits `Stale` or `WrongLeader`
            // as one response per *request*, and a node
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
                        results[chunk[0]] = self.observed(shard, first).into_read(ctx)?;
                        // Positions left unread when the node dies
                        // mid-chunk are deferred to the leader path.
                        for (i, &pos) in chunk.iter().enumerate().skip(1) {
                            match conn.recv() {
                                Ok(response) => {
                                    results[pos] = self.observed(shard, response).into_read(ctx)?;
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
            Ok(())
        })?;
        Ok(results)
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
        assert!(cluster.node_store(0, 1).get(&key_bytes(2)).is_none());
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
        let stored = (0..2).map(|shard| cluster.node_store(shard, 0).len());
        assert_eq!(stored.sum::<usize>(), 100);
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
        // One counter list feeds both outputs: after traffic, each
        // node's last scrape reads the `node.*` values of the report
        // its serve loop returns.
        let cluster: ReplCluster<TicketLock> = ReplCluster::new(1, 64, 8, ReplSpec::sync(1));
        let (endpoints, mut clients) = repl_mesh(cluster.map(), 1);
        let client = clients.pop().unwrap();
        let (scrapes, reports): (Vec<_>, Vec<_>) = std::thread::scope(|s| {
            let nodes: Vec<_> = (endpoints.into_iter().flatten())
                .map(|endpoint| {
                    let node = endpoint.node();
                    let cfg = cluster.node_config(0, node, &FaultSpec::none());
                    let (store, log, map) =
                        (cluster.node_store(0, node), cluster.log(0), cluster.map());
                    s.spawn(move || serve_node(store, log, map, endpoint, cfg))
                })
                .collect();
            for key in 0..16u64 {
                client.set(key, vec![key as u8; 8]).unwrap();
                client.get(key).unwrap().unwrap();
            }
            client.delete(3).unwrap();
            let scrapes = (0..2).map(|n| client.stats_of(0, n).unwrap()).collect();
            client.close();
            (
                scrapes,
                nodes.into_iter().map(|n| n.join().unwrap()).collect(),
            )
        });
        for (scrape, r) in scrapes.iter().zip(&reports) {
            let fields = [
                ("node.entries", r.entries),
                ("node.applied", r.applied),
                ("node.from_log", r.from_log),
                ("node.stale_drops", r.stale_drops),
                ("node.refused_reads", r.refused_reads),
                ("node.hwm", r.hwm),
                ("node.wrong_leader", r.wrong_leader),
                ("node.promotions", r.promotions),
                ("node.term", u64::from(r.term)),
            ];
            for (name, value) in fields {
                assert_eq!(scrape.counter(name), Some(value), "node {}: {name}", r.node);
            }
        }
        assert_eq!((reports[0].entries, reports[1].applied), (17, 17));
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
                let version = stale.set(key, vec![key as u8; 3]).unwrap();
                // Async replication promises no follower progress, and
                // an entry the follower first reads after the leader's
                // death is fenced, which nothing replays for an
                // observer: wait until it has applied the first two.
                while key == 1 && stale.map.hwm_of(0, 1) < version {
                    std::thread::yield_now();
                }
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
                assert_eq!(rude.conn(0, node).rx.try_recv(), None, "no reply to a Stop");
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
            let stream = &leader.peers.stream_tx[1];
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
                let stream = leader.peers.stream_tx.pop().unwrap();
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

    /// One schedule of the leader enumeration: a sync group of three
    /// nodes, one client writing keys `1..=writes` in a closed loop to
    /// node 0, whose crash schedule kills it right after the last
    /// write's reply. The nodes take turns as `prefix` names them, then
    /// round-robin; `observer` is a follower that may not lead.
    #[derive(Debug)]
    struct LeaderSchedule {
        writes: u64,
        observer: Option<usize>,
        prefix: Vec<usize>,
    }

    /// A [`ReplNode`] as the leader enumeration steps it: itself, or
    /// the twin whose settle rule is satisfied once *one* live follower
    /// has published the version.
    struct Stepped<'a> {
        node: ReplNode<'a, TicketLock>,
        one_follower_suffices: bool,
    }

    impl Hooks for Stepped<'_> {
        fn admit(&mut self, key: u64, is_write: bool) -> ssync_srv::Admit {
            self.node.admit(key, is_write)
        }

        fn observes_writes(&self) -> bool {
            self.node.observes_writes()
        }

        fn committed(&mut self, key: u64, version: u64, value: Option<&Bytes>) {
            self.node.committed(key, version, value);
        }

        fn reply_owed(&mut self) -> bool {
            let node = &mut self.node;
            let Some(version) = node.owed.filter(|_| self.one_follower_suffices) else {
                return node.reply_owed();
            };
            let (map, shard) = (node.follower.map, node.follower.shard);
            let acked = node.live_peers().map(|p| map.hwm_of(shard, p)).max();
            let acked = acked.unwrap_or(u64::MAX);
            if acked < version {
                return true;
            }
            node.follower.log.truncate_through(acked);
            node.owed = None;
            false
        }

        fn before_poll(&mut self, counts: &mut ServeReport) -> ControlFlow<Turn, bool> {
            self.node.before_poll(counts)
        }

        fn gate(&mut self, request: Request) -> Result<Request, Response> {
            self.node.gate(request)
        }

        fn may_exit(&mut self) -> bool {
            self.node.may_exit()
        }

        fn counters(&self) -> Vec<(&'static str, u64)> {
            self.node.counters()
        }
    }

    /// Steps every node's turn and the client on this one thread
    /// through `schedule` — which no threaded run can do while a sync
    /// leader's turn waits — and checks that every live node ends up
    /// holding every write the client saw acknowledged. `Err` names the
    /// first write missing, or a group that did not shut down.
    fn run_leader_schedule(schedule: &LeaderSchedule, twin: bool) -> Result<(), String> {
        const ROUNDS: usize = 64;
        let cluster: ReplCluster<TicketLock> = ReplCluster::new(1, 8, 2, ReplSpec::sync(2));
        let map = cluster.map();
        if let Some(observer) = schedule.observer {
            map.set_observer(0, observer);
        }
        let (mut endpoints, mut clients) = repl_mesh(map, 1);
        let client = clients.pop().unwrap();
        let crash = FaultPlan::primary_crashes(vec![schedule.writes]);
        let mut nodes: Vec<_> = (endpoints.pop().unwrap().into_iter())
            .map(|endpoint| {
                let n = endpoint.node();
                let cfg = NodeConfig {
                    crash_plan: crash.clone(),
                    ..cluster.node_config(0, n, &FaultSpec::none())
                };
                let (store, log) = (cluster.node_store(0, n), cluster.log(0));
                let (core, node) = ReplNode::new(store, log, map, endpoint, cfg);
                let node = Stepped {
                    node,
                    one_follower_suffices: twin,
                };
                Some((core, node))
            })
            .collect();
        let mut acknowledged = Vec::new();
        let (mut sent, mut waiting, mut closed) = (0, None, false);
        let order = (schedule.prefix.iter().copied()).chain((0..3 * ROUNDS).map(|i| i % 3));
        for n in order {
            if let Some((core, node)) = &mut nodes[n] {
                if core.turn(cluster.node_store(0, n), node) == Turn::Exit {
                    nodes[n] = None;
                }
            }
            // The client: take the reply it waits on, if it is there,
            // then send the next write, or stop every node.
            if let Some(leader) = waiting {
                if let Some(head) = client.conn(0, leader).rx.try_recv() {
                    match Response::decode(head, || unreachable!("a one-frame reply")) {
                        Ok(Response::Stored { version }) => acknowledged.push((sent, version)),
                        other => return Err(format!("write {sent} answered {other:?}")),
                    }
                    waiting = None;
                }
            }
            if waiting.is_none() && sent < schedule.writes {
                sent += 1;
                let write = Request::Set {
                    key: sent,
                    value: vec![sent as u8; 4],
                };
                client.conn(0, 0).send(&write).unwrap();
                waiting = Some(0);
            } else if waiting.is_none() && !closed {
                closed = true;
                for node in 0..3 {
                    let _ = client.conn(0, node).send(&Request::Stop);
                }
            }
            if nodes.iter().all(Option::is_none) {
                break;
            }
        }
        for n in (0..3).filter(|&n| !map.is_dead(0, n)) {
            for &(key, version) in &acknowledged {
                let held = cluster.node_store(0, n).get_with_version(&key_bytes(key));
                if held.map(|(at, _)| at) != Some(version) {
                    return Err(format!(
                        "acknowledged write {key}@{version} missing at node {n} after a \
                         promotion to {:?}: {schedule:?}",
                        map.view(0)
                    ));
                }
            }
        }
        match nodes.iter().all(Option::is_none) {
            true => Ok(()),
            false => Err(format!("the group did not shut down: {schedule:?}")),
        }
    }

    /// Every leader schedule at small scope: one or two writes, no
    /// observer or either follower one, and every order of the first
    /// `turns` turns among the three nodes. Stops at the first failure;
    /// otherwise returns how many it ran.
    fn enumerate_leader(turns: u32, twin: bool) -> Result<usize, String> {
        let mut ran = 0;
        for writes in 1..=2 {
            for observer in [None, Some(1), Some(2)] {
                for word in 0..3usize.pow(turns) {
                    let prefix = (0..turns).map(|i| word / 3usize.pow(i) % 3).collect();
                    let schedule = LeaderSchedule {
                        writes,
                        observer,
                        prefix,
                    };
                    run_leader_schedule(&schedule, twin)?;
                    ran += 1;
                }
            }
        }
        Ok(ran)
    }

    /// The leader half of the hwm argument, exhaustively at small
    /// scope: a sync reply is released only once every live follower
    /// has published its version, so no crash right after the reply,
    /// at any point of the followers' progress, loses the write.
    #[test]
    fn a_sync_reply_waits_for_every_live_follower() {
        let ran = enumerate_leader(6, false).unwrap();
        eprintln!("leader enumeration: {ran} schedules");
    }

    /// The twin: a leader that settles once *one* live follower has
    /// published the version must be caught by the same enumeration,
    /// as an acknowledged write lost to a promotion — the log truncated
    /// through the reply, and the other follower never sent it.
    #[test]
    fn a_leader_that_settles_on_one_follower_is_found() {
        let found = enumerate_leader(6, true).unwrap_err();
        assert!(found.contains("missing at node"), "{found}");
        eprintln!("leader twin: {found}");
    }
}
