//! Primary/backup replication over the `ssync-srv` service, with
//! term-fenced failover.
//!
//! A node is `ssync-srv`'s one node ([`NodeCore`]) — polling,
//! decoding, executing, replying, scraping — driven by the one round
//! loop ([`run`]), and a client connection is its [`Conn`]. What this module owns is the
//! replication policy the loop runs, one private node struct: role and
//! term maintenance and the peer streams before each poll, the
//! follower's transitions (the private `Follower`, which touches no
//! ring), the per-request not-leader bounce and floor-guarded replica
//! reads in front of the executor, the leader's replication of every
//! committed write, and the client's one retry policy.
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
//! hwms; a worker holding such a node spins and yields but never
//! sleeps ([`run`]). In [`ReplMode::Sync`] that is once every live
//! follower's hwm has reached the write's version; in
//! [`ReplMode::Async`] at once, unless a follower trails by more than
//! `max_lag` log entries. A follower whose stream receiver is gone has
//! exited and counts as settled. The settled reply truncates the log
//! through the lowest live hwm.
//!
//! **Failover.** The driver can crash a leader ([`Crash`], on the
//! shard's [`FaultKind::PrimaryCrash`](crate::fault::FaultKind)
//! schedule) right after it released the reply to the write that
//! produced a given entry — the worst moment, since that ack is now a
//! promise only the followers can keep. The dropped node reports its
//! death, which vacates the map word (same term, no leader); the most
//! caught-up live follower — highest *published* applied hwm, ties
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
//! safe; adoption of a new term, promotion and `Stop` all end in the
//! same replay. Writes reaching a non-leader bounce with `WrongLeader`.
//!
//! **Read path.** Clients route reads round-robin across a shard's live
//! followers with a *freshness floor* (the highest version the client
//! observed on that shard); a follower behind the floor answers
//! `Stale` and the client asks the leader, in the same retry loop. While a shard is leaderless, writes and leader reads wait
//! for a promotion within the operation's retry budget
//! ([`RetryPacer`]); a client that opted into
//! [`ReplClient::with_stale_reads`] degrades reads to floor-zero
//! replica reads instead of waiting.
//!
//! **Deadlock discipline** (rings are deeper than one frame but still
//! bounded, so the same rules apply):
//! * no node waits on a peer inside its turn: a leader owes a reply
//!   instead of awaiting acks, a follower's ack is a store to the map,
//!   and a peer's half-published message is resumed on a later turn
//!   ([`StreamDecoder`]), not waited for;
//! * nor on a full ring: what a stream or reply ring refused stays
//!   queued ([`SendQueue`]) and goes out first on the node's next
//!   turns, in order — so nodes sharing one worker cannot wait on each
//!   other, nor on a client that is draining another node;
//! * a client keeps at most one request in flight, so the waits-for
//!   graph over bounded reply channels cannot close a cycle;
//! * every client receive and send is a connected, pending poll
//!   ([`Conn`]): a dead node surfaces as [`WireError::Disconnected`]
//!   after the ring's surviving backlog is drained, never as a hang.
//!
//! Faults are what the driver does to a node between its moves — see
//! [`crate::fault`]: a backup's windows [`Pause`] it, and the shard's
//! leader-crash schedule [`Crash`]es its leader. Both are triggered by
//! what the group published, so a seeded run replays, in either mode.

use std::cell::Cell;
use std::ops::ControlFlow;
use std::sync::Arc;

use bytes::Bytes;

use ssync_core::{Fence, RegistrySnapshot, RetryPacer};
use ssync_kv::{KvStore, StatsSnapshot};
use ssync_locks::RawLock;
use ssync_mp::{ring_channel, Message, RingReceiver, RingSender};
use ssync_srv::router::{key_bytes, shard_of, ShardRouter};
use ssync_srv::service::{
    ring_mesh, KvClient, ReadHit, ServeReport, ServerEndpoint, ServiceClient,
};
use ssync_srv::wire::{Request, Response, WireError, NO_LEADER};
use ssync_srv::{
    block_on, chase, run, Admit, Chase, Conn, Crash, Hooks, NodeCore, Pause, SendQueue,
    StreamDecoder, Turn, OP_BUDGET,
};

use crate::cluster::{ClusterMap, ShardView};
use crate::fault::{FaultEvent, FaultPlan, FaultSpec};
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

/// Ring depth of client request/reply connections: deeper than the
/// longest value reply (19 frames, a 1 KiB value), which then goes out
/// whole in the turn that serves it.
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
    /// `stream_tx[p]`: replication frames *to* node `p`, and those its
    /// full ring refused so far, sent first next turn.
    stream_tx: Vec<SendQueue<RingSender>>,
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
    /// Cached `(term, leader)` view: redirects update it, a lost node
    /// vacates it, and a vacant one is refreshed from the map.
    view: Cell<ShardView>,
}

/// A client of the replicated service. Each operation is one [`chase`]
/// under one [`OP_BUDGET`]: a write asks the shard's leader, chasing
/// `WrongLeader` redirects and lost nodes; a read asks live followers
/// round-robin with the freshness floor as the staleness guard, and the
/// leader once one answers `Stale`.
pub struct ReplClient {
    /// One connection per node of every group: node `n` of shard `s`
    /// is server `s * nodes_per_shard + n` of this mesh.
    mesh: ServiceClient<RingSender, RingReceiver>,
    shards: Vec<ShardState>,
    map: Arc<ClusterMap>,
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

/// Every node's [`Peers`] in a group of `nodes`: one stream ring of
/// `depth` slots per ordered pair of nodes.
fn peer_mesh(nodes: usize, depth: usize) -> Vec<Peers> {
    let mut peers: Vec<Peers> = (0..nodes).map(|_| Peers::default()).collect();
    for from in 0..nodes {
        for to in 0..nodes {
            let (tx, rx) = ring_channel(depth);
            peers[from].stream_tx.push(SendQueue::new(tx));
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
    mesh_at(map, clients, CONN_DEPTH)
}

/// [`repl_mesh`] over client rings of `depth` slots.
pub(crate) fn mesh_at(
    map: &Arc<ClusterMap>,
    clients: usize,
    depth: usize,
) -> (Vec<Vec<NodeEndpoint>>, Vec<ReplClient>) {
    let shards = map.num_shards();
    let nodes = map.nodes_per_shard();
    let (client_eps, meshes) = ring_mesh(shards * nodes, clients, depth);
    let mut client_eps = client_eps.into_iter();
    let endpoints = (0..shards)
        .map(|_| {
            let peers = peer_mesh(nodes, STREAM_DEPTH).into_iter();
            let peers = peers.zip(client_eps.by_ref());
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
    /// This node's deterministic stall windows as a follower:
    /// its driver pauses it for each ([`Pause`]).
    pub backup_plan: FaultPlan,
    /// The *shard's* leader-crash schedule: entry indices after whose
    /// write the leader of the moment dies. Passed to every node; its
    /// driver crashes whichever node settles such an entry leading
    /// ([`Crash`]).
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
    /// Entries applied from the op-log (term-adoption, promotion and
    /// shutdown replays, and the replay of fenced frames).
    pub from_log: u64,
    /// Stream entries dropped by the high-water-mark gate (in-flight
    /// duplicates of entries already replayed from the log).
    pub stale_drops: u64,
    /// Reads refused with `Stale` (client fell back to the leader).
    pub refused_reads: u64,
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
}

/// The follower half of a node — what it has applied (`report.hwm`,
/// which it publishes as its ack) and the term it follows
/// (`report.term`) — and every transition of a node that is not
/// leading, written once. It touches no ring: the node
/// around it polls, decodes and fences; this type decides what each
/// frame does to the store.
///
/// **Invariant: `hwm` never passes an entry this node has not
/// applied** — the store holds exactly what the log's entries at or
/// below `hwm` replay to, which is what makes a published hwm safe to
/// promote on, to reply on and to truncate the log through.
/// Mechanically: a fenced stream entry is remembered in `missed`, and
/// the node is *behind* while `missed` is past `hwm`; nothing from the
/// stream is applied while behind until [`Follower::catch_up`] — the
/// one log replay — has run through `missed`; and adoption, promotion
/// and `Stop` all end there. So it does not matter which frames a node dropped, nor that
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

    /// The one log replay: applies what the log holds past `hwm`, up to
    /// `through`. An entry is logged before it is streamed and never
    /// truncated past a live node's hwm, so every frame this node
    /// dropped is in there. A passing frame's replay stops at `missed`
    /// — the rest is still coming down the stream; every other caller
    /// takes the whole tail.
    fn catch_up(&mut self, through: u64) {
        let tail = self.log.entries_after(self.report.hwm);
        for entry in tail.iter().take_while(|e| e.version <= through) {
            self.report.from_log += u64::from(self.apply(entry.view()));
        }
        self.publish();
    }

    /// One entry frame off a peer's stream; `fence_passed` is
    /// [`stream_fence`]'s verdict on its sender.
    fn on_entry(&mut self, entry: EntryView<'_>, fence_passed: bool) {
        // Term fence: the map does not name the sender leader. The
        // entry is remembered, and replayed from the log before the
        // next one that passes, or by adoption, promotion or `Stop`.
        if !fence_passed {
            self.report.fenced += 1;
            self.missed = self.missed.max(entry.version);
            return;
        }
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
    /// acknowledged by anyone is in there — see DESIGN.md).
    fn promote(&mut self, term: Fence) {
        self.catch_up(u64::MAX);
        self.report.term = term;
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
pub(crate) struct ReplNode<'a, R: RawLock + Default> {
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
    /// The node agreed to exit; dropped before that, it has died.
    exited: bool,
}

impl<R: RawLock + Default> Hooks for ReplNode<'_, R> {
    /// Always: the log and the stream carry every write's value.
    fn observes_writes(&self) -> bool {
        true
    }

    fn committed(&mut self, key: u64, version: u64, value: Option<&Bytes>) {
        self.replicate(LogEntry::committed(key, version, value));
        self.owed = Some(version);
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

    /// The stream frames the peers' rings refused so far, role and term
    /// maintenance, and at most one whole message off a peer's
    /// replication stream — which ends the turn.
    fn before_poll(&mut self, counts: &mut ServeReport) -> ControlFlow<Turn, bool> {
        let flushed = self.flush();
        let follower = &mut self.follower;
        let (map, shard, me) = (follower.map, follower.shard, follower.report.node);
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
            return ControlFlow::Continue(flushed);
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
    /// fresh enough, a follower checks its floor and answers `Stale`
    /// below it — and one that passes runs as a plain `Get`. Writes and
    /// authoritative reads belong to the leader: a follower answers
    /// `WrongLeader`. Node-to-node frames on a client connection go on
    /// to the core, which refuses them in any role.
    fn admit(&mut self, request: &mut Request) -> Admit {
        let report = &mut self.follower.report;
        let freshness = report.hwm.max(report.last_version);
        match *request {
            Request::ReplGet { floor, .. } if freshness < floor => {
                report.refused_reads += 1;
                Admit::Refuse(Response::Stale { hwm: freshness })
            }
            Request::ReplGet { key, .. } => {
                *request = Request::Get { key };
                Admit::Run
            }
            Request::Replicate { .. } | Request::ReplicateDelete { .. } => Admit::Run,
            _ if !self.leading => {
                report.wrong_leader += 1;
                let leader = self.view.leader.map_or(NO_LEADER, |l| l as u64);
                let term = report.term;
                Admit::Refuse(Response::WrongLeader { term, leader })
            }
            _ => Admit::Run,
        }
    }

    /// A follower exits once it has taken the leader's `Stop` — or once
    /// its shard is leaderless with no candidate left, which will never
    /// send one. A leader streams `Stop` and exits once every live
    /// follower has it and has published its last logged version: the
    /// group is converged when it returns.
    fn may_exit(&mut self) -> bool {
        let follower = &self.follower;
        self.exited = if !self.leading {
            follower.stopped
                || (self.view.leader.is_none() && follower.map.live_candidates(follower.shard) == 0)
        } else {
            if !self.stopping {
                self.stopping = true;
                Request::Stop.encode_into(&mut self.frames);
                self.stream();
            }
            let sent = self.peers.stream_tx.iter().all(SendQueue::is_empty);
            sent && self.acked_through() >= self.follower.report.last_version
        };
        self.exited
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
    pub(crate) fn new(
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
            exited: false,
        };
        (NodeCore::new(clients), node)
    }

    /// What this node did, with `core`'s counts.
    pub(crate) fn report(&self, core: &NodeCore<RingReceiver, RingSender>) -> NodeReport {
        let counts = core.report();
        NodeReport {
            requests: counts.requests,
            key_ops: counts.key_ops,
            malformed: counts.malformed,
            ..self.follower.report
        }
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

    /// Sends the frames to every live peer, the rest queued for its
    /// later turns ([`ReplNode::flush`]), so a full ring costs the
    /// leader no wait. The queue of a peer that died, or dropped its
    /// receiver, is discarded (and this node's own is unused).
    fn stream(&mut self) {
        let (follower, frames) = (&self.follower, &self.frames);
        for (p, queue) in self.peers.stream_tx.iter_mut().enumerate() {
            let live = p != follower.report.node && !follower.map.is_dead(follower.shard, p);
            if live && !queue.tx.receiver_closed() {
                queue.send(frames);
            } else {
                queue.clear();
            }
        }
    }

    /// Sends each live peer its queued frames as far as its ring has
    /// room; true if any went out. A dead peer's queue is discarded.
    fn flush(&mut self) -> bool {
        let (mut sent, follower) = (false, &self.follower);
        for (p, queue) in self.peers.stream_tx.iter_mut().enumerate() {
            if !queue.is_empty() {
                if follower.map.is_dead(follower.shard, p) {
                    queue.clear();
                }
                sent |= queue.flush();
            }
        }
        sent
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
            if self.peers.stream_tx[p].tx.receiver_closed() {
                u64::MAX
            } else {
                follower.map.hwm_of(follower.shard, p)
            }
        };
        self.live_peers().map(hwm).min().unwrap_or(u64::MAX)
    }
}

/// A node dropped before it agreed to exit — crashed by its driver, or
/// unwound by a panic — has died: it tells the map, which vacates the
/// shard if it led, so a follower promotes, and whose leader stops
/// waiting on its acks. Its rings close as its fields drop.
impl<R: RawLock + Default> Drop for ReplNode<'_, R> {
    fn drop(&mut self) {
        let Follower {
            map, shard, report, ..
        } = &self.follower;
        if !self.exited {
            map.report_death(*shard, report.node);
        }
    }
}

/// A node as [`run`] and [`play`](ssync_srv::play) move it.
type Node<'a, R> = (
    NodeCore<RingReceiver, RingSender>,
    &'a KvStore<R>,
    ReplNode<'a, R>,
);

/// When the driver crashes `node`: while it leads, once the reply to
/// the write that produced an entry of its `crash_plan` went out —
/// before its next move. A version past the hwm it was promoted at is
/// one it wrote, not one it replayed, so a successor does not die of
/// its predecessor's entry.
fn crash_due<R: RawLock + Default>(node: &ReplNode<'_, R>) -> bool {
    let (report, cfg) = (&node.follower.report, &node.cfg);
    let due = |e: &FaultEvent| cfg.initial_hwm + e.at_entry == report.last_version;
    let wrote = node.leading && node.owed.is_none() && report.last_version > report.hwm;
    wrote && cfg.crash_plan.events().iter().any(due)
}

/// When the driver pauses node `me`, and for how many rounds: each
/// window of `cfg.backup_plan` in turn, once the hwm the node published
/// reaches the entry before the window's first, for its length — while
/// the map does not name it leader: a leader takes no windows, not even
/// those its promotion's replay passed.
fn pause_due<'a>(
    map: &'a ClusterMap,
    me: usize,
    cfg: &NodeConfig,
) -> impl FnMut() -> usize + Send + 'a {
    let (plan, shard, base) = (cfg.backup_plan.clone(), cfg.shard, cfg.initial_hwm);
    let mut next = 0;
    move || {
        let reached = |e: &&FaultEvent| {
            map.hwm_of(shard, me) + 1 >= base + e.at_entry && map.view(shard).leader != Some(me)
        };
        let event = plan.events().get(next).filter(reached);
        next += usize::from(event.is_some());
        event.map_or(0, |e| e.window as usize)
    }
}

/// Node `endpoint.node()` of `cfg.shard`'s group as its driver moves
/// it, under the faults `cfg` schedules: [`Pause`]d at each backup
/// window, and [`Crash`]ed, its report kept, at a scheduled leader
/// death ([`pause_due`], [`crash_due`]).
#[allow(clippy::type_complexity)]
pub(crate) fn driven<'a, R: RawLock + Default>(
    store: &'a KvStore<R>,
    log: &'a OpLog,
    map: &'a ClusterMap,
    endpoint: NodeEndpoint,
    cfg: NodeConfig,
) -> Pause<
    Crash<Node<'a, R>, NodeReport, impl FnMut(&Node<'a, R>) -> Option<NodeReport> + Send + 'a>,
    impl FnMut() -> usize + Send + 'a,
> {
    let pauses = pause_due(map, endpoint.node(), &cfg);
    let (core, node) = ReplNode::new(store, log, map, endpoint, cfg);
    let crash = |(core, _, node): &Node<'a, R>| crash_due(node).then(|| node.report(core));
    Pause::new(Crash::new((core, store, node), crash), pauses)
}

/// What a [`driven`] node did: its report, or its last words if it
/// crashed.
pub(crate) fn report_of<R: RawLock + Default, C, P>(
    node: &Pause<Crash<Node<'_, R>, NodeReport, C>, P>,
) -> NodeReport {
    match &node.actor.state {
        Ok((core, _, node)) => node.report(core),
        Err(last) => *last,
    }
}

/// Runs one node of a shard's replication group until shutdown (every
/// client stopped and the group converged) or its scheduled death:
/// [`run`] over the one node, [`Pause`]d at each window of
/// `cfg.backup_plan` and [`Crash`]ed at a leader death of
/// `cfg.crash_plan` (see [`crate::fault`]). A crashed node returns the
/// report it had at its death. A node with no fault planned runs bare:
/// no trigger is asked before its moves.
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
    if cfg.backup_plan.is_empty() && cfg.crash_plan.is_empty() {
        let (core, node) = ReplNode::new(store, log, map, endpoint, cfg);
        let mut node = (core, store, node);
        run(&mut [&mut node]);
        return node.2.report(&node.0);
    }
    let mut node = driven(store, log, map, endpoint, cfg);
    run(&mut [&mut node]);
    report_of(&node)
}

impl ReplClient {
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

    /// The cached `(term, leader)` view, re-read from the shared map
    /// whenever the cache says "vacant" and kept if the map's term is no
    /// older (a redirect can be fresher than the map read that raced it;
    /// promotions only ever move the view forward, so a cached leader is
    /// worth trying first).
    fn shard_view(&self, shard: usize) -> ShardView {
        let cell = &self.shards[shard].view;
        if cell.get().leader.is_none() {
            let fresh = self.map.view(shard);
            if fresh.term >= cell.get().term {
                cell.set(fresh);
            }
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
        block_on(self.conn(shard, node).call(&Request::Stats))?.into_stats()
    }

    /// One operation on `shard`, chased under one [`OP_BUDGET`]:
    /// `requests` holds what each [`Asked`] pick sends, and only a
    /// `read` asks followers. Returns whom it asked last, with the reply.
    async fn route(
        &self,
        shard: usize,
        requests: [&Request; 3],
        read: bool,
    ) -> Result<(Asked, Response), WireError> {
        let route = Route {
            client: self,
            shard,
            requests,
            read,
            asked: Cell::new(Asked::Leader),
            at_leader: Cell::new(!read),
        };
        let mut budget = RetryPacer::new(OP_BUDGET, self.next_seed());
        let response = chase(&route, &mut budget).await?;
        Ok((route.asked.get(), response))
    }

    /// The body of [`KvClient::get`]: see there.
    pub(crate) async fn read(&self, key: u64) -> Result<ReadHit, WireError> {
        let shard = shard_of(key, self.shards.len());
        let floor = self.shards[shard].floor.get();
        let requests = [
            Request::Get { key },
            Request::ReplGet { key, floor },
            Request::ReplGet { key, floor: 0 },
        ];
        let (served, response) = match self.route(shard, requests.each_ref(), true).await? {
            (Asked::Leader, response) => return self.observed(shard, response).into_read("Get"),
            (Asked::Replica, response) => (&self.replica_serves, self.observed(shard, response)),
            (Asked::FloorFree, response) => (&self.stale_served, response),
        };
        let hit = response.into_read("ReplGet")?;
        Self::bump(served, 1);
        Ok(hit)
    }

    /// Tells every node this client is done, consuming the client.
    /// Dead nodes are skipped — their inboxes have no reader.
    pub fn close(self) {
        self.mesh.close();
    }
}

/// Whom a [`Route`] pick asks, and so which of its requests it sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Asked {
    /// The cached leader.
    Leader,
    /// A live follower, with the client's freshness floor.
    Replica,
    /// Any live node of a leaderless shard, floor-free.
    FloorFree,
}

/// The chase policy of one operation on `shard`. A write asks the
/// cached leader and adopts `WrongLeader` redirects. A read asks a live
/// follower first, round-robin, with the client's freshness floor —
/// read-your-writes and monotonic reads per client, Almeida's session
/// guarantees — and the leader once a follower answers `Stale` or none
/// is live. While the shard is leaderless the operation waits, or a
/// read under [`ReplClient::with_stale_reads`] asks any live node
/// floor-free.
struct Route<'c> {
    client: &'c ReplClient,
    shard: usize,
    /// What a pick of each [`Asked`] sends, in its order.
    requests: [&'c Request; 3],
    read: bool,
    /// Whom the last pick asked.
    asked: Cell<Asked>,
    /// Ask the leader, not a follower.
    at_leader: Cell<bool>,
}

impl Chase for Route<'_> {
    fn pick(&self) -> Option<(&Conn, &Request)> {
        let (client, shard) = (self.client, self.shard);
        let (node, asked) = match client.shard_view(shard).leader {
            None if self.read && client.stale_reads => {
                (client.pick_live(shard, None)?, Asked::FloorFree)
            }
            None => return None,
            Some(leader) if self.at_leader.get() => (leader, Asked::Leader),
            Some(leader) => match client.pick_live(shard, Some(leader)) {
                Some(follower) => (follower, Asked::Replica),
                None => {
                    self.at_leader.set(true);
                    (leader, Asked::Leader)
                }
            },
        };
        self.asked.set(asked);
        Some((client.conn(shard, node), self.requests[asked as usize]))
    }

    /// A `Stale` answer sends the read to the leader.
    fn redirected(&self, response: &Response) -> bool {
        if let Response::Stale { .. } = response {
            ReplClient::bump(&self.client.fallbacks, 1);
            self.at_leader.set(true);
            return true;
        }
        self.client.note_redirect(self.shard, response)
    }

    /// Retrying on [`WireError::Disconnected`] is exactly-once, not
    /// at-least-once: a node sends the complete response *before* a
    /// scheduled crash takes it down, responses survive in the reply
    /// ring after death, and the connected receive drains that backlog
    /// before reporting the disconnect. `Disconnected` therefore
    /// proves the request still sat unread in the dead node's inbox.
    /// The cached view forgets its leader, so the next pick consults
    /// the map, whichever node was lost: the leader, or a follower (it
    /// led and died, or is shutting down).
    fn lost(&self) -> bool {
        let client = self.client;
        if self.asked.get() == Asked::Leader {
            ReplClient::bump(&client.lost_to_retry, 1);
        }
        let view = &client.shards[self.shard].view;
        let term = view.get().term;
        view.set(ShardView { term, leader: None });
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
    async fn exchange(&self, key: u64, request: &Request) -> Result<Response, WireError> {
        let shard = shard_of(key, self.shards.len());
        let (_, response) = self.route(shard, [request; 3], false).await?;
        Ok(self.observed(shard, response))
    }

    /// Looks a key up, preferring a follower: round-robin over the
    /// shard's live non-leaders with the freshness floor attached, a
    /// lost one retried after a pause, and the leader once a follower is
    /// behind or none is live. While the shard is leaderless, waits out
    /// the budget or (with [`ReplClient::with_stale_reads`]) serves
    /// floor-free from any live node.
    ///
    /// # Errors
    ///
    /// [`WireError`] on an undecodable or out-of-protocol reply, a
    /// peer dead past the retry budget, or [`WireError::Deadline`].
    fn get(&self, key: u64) -> Result<ReadHit, WireError> {
        block_on(self.read(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultEvent, FaultKind};
    use core::future::Future;
    use core::pin::{pin, Pin};
    use ssync_core::clock;
    use ssync_locks::TicketLock;
    use ssync_mp::MsgSender;
    use ssync_srv::step::QUANTUM;
    use ssync_srv::{enumerate, play, KvClient, Step};
    use std::time::Duration;

    /// Spins until `done` holds, failing the test once 60 s pass
    /// first, with `what` it waited for: a counter or handshake that
    /// stops moving fails the suite instead of hanging it.
    fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while !done() {
            assert!(
                std::time::Instant::now() < deadline,
                "timed out waiting for {what}"
            );
            std::thread::yield_now();
        }
    }

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

    /// The floor guard: in async mode a follower still taking a long
    /// entry off a shallow stream ring serves the read that follows the
    /// write behind the writer's floor. It answers `Stale`, the client
    /// falls back to the leader, and every read sees its write.
    #[test]
    fn async_mode_floor_guard_bounces_stale_reads_to_primary() {
        let cluster = ReplCluster::new(1, 8, 2, ReplSpec::async_bounded(2));
        let (mut nodes, client) = stepped_group(&cluster, None, None, None, 2);
        let ops = pin!(async {
            for key in 1..=3u64 {
                let value = vec![key as u8; 300];
                let write = Request::Set { key, value };
                let written = client.exchange(key, &write).await;
                let Ok(Response::Stored { version }) = written else {
                    panic!("write {key} answered {written:?}");
                };
                let read = client.read(key).await.unwrap();
                assert_eq!(read.map(|(at, _)| at), Some(version), "read {key}");
            }
            client.mesh.send_stop().await;
        });
        play_group(&mut nodes, ops, &[]).unwrap();
        assert!(
            client.fallbacks() > 0,
            "a lagging follower never bounced a read"
        );
        assert!(cluster.converged());
    }

    /// One `Stale` sends the read to the leader once: the leader and
    /// the client move alone until the write is acknowledged and the
    /// read waits at node 1, whose first turn finds the entry's frames
    /// only half published on its two-slot stream ring. It answers
    /// `Stale`, and the leader answers the read, with no second
    /// follower asked.
    #[test]
    fn a_stale_answer_sends_the_read_to_the_leader_once() {
        let cluster = ReplCluster::new(1, 8, 2, ReplSpec::async_bounded(2));
        let (mut nodes, client) = stepped_group(&cluster, None, None, None, 2);
        let mut read = None;
        {
            let ops = pin!(async {
                let write = Request::Set {
                    key: 1,
                    value: vec![1; 300],
                };
                let written = client.exchange(1, &write).await;
                read = Some((
                    written.and_then(Response::into_stored),
                    client.read(1).await,
                ));
                client.mesh.send_stop().await;
            });
            let mut prefix = [0, 3].repeat(4);
            prefix.push(1);
            play_group(&mut nodes, ops, &prefix).unwrap();
        }
        let Some((Ok(version), Ok(Some((at, _))))) = read else {
            panic!("the write and the read were answered {read:?}");
        };
        assert_eq!(at, version);
        let asked = (
            client.fallbacks(),
            client.replica_serves(),
            client.redirects(),
        );
        assert_eq!(asked, (1, 0, 0));
    }

    /// A follower lost mid-read is retried: the read waits at node 1,
    /// the round-robin's first follower, when node 1 dies with it
    /// unread, and the retry after a pause reads node 2.
    #[test]
    fn a_follower_lost_mid_read_is_retried_at_another() {
        let cluster = ReplCluster::new(1, 8, 2, ReplSpec::sync(2));
        let (mut nodes, client) = stepped_group(&cluster, None, None, None, STREAM_DEPTH);
        let picks = &client.shards[0].rr;
        let mut read = None;
        {
            let mut ops = pin!(async {
                read = Some(client.read(1).await);
                client.mesh.send_stop().await;
            });
            assert_eq!(ops.as_mut().step(), Turn::Idle, "the read waits at node 1");
            assert_eq!(picks.get(), 1, "one follower picked");
            drop(nodes.remove(1));
            play_group(&mut nodes, ops, &[]).unwrap();
        }
        assert_eq!(read, Some(Ok(None)));
        assert!(cluster.map().is_dead(0, 1));
        assert_eq!(picks.get(), 2, "the lost read picked again");
        let asked = (
            client.replica_serves(),
            client.lost_to_retry(),
            client.fallbacks(),
        );
        assert_eq!(asked, (1, 0, 0));
    }

    #[test]
    fn paused_backup_applies_every_write_once() {
        let spec = ReplSpec {
            replicas: 1,
            mode: ReplMode::Async { max_lag: 16 },
            log_capacity: 256,
        };
        let plan = FaultPlan::from_events(vec![FaultEvent {
            at_entry: 3,
            kind: FaultKind::Stall,
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
        // The backup was paused from entry 3 and took the rest off its
        // stream after; it ends byte-identical regardless.
        assert!(cluster.converged());
        let snap = cluster.replica_stats_snapshot();
        assert_eq!(snap.repl_applied, 10, "all 10 writes applied exactly once");
    }

    #[test]
    fn crash_over_delete_does_not_resurrect_the_key() {
        // A put and its key's later tombstone both land while the
        // backup is paused; it applies them in stream order after, and
        // the key stays deleted.
        let spec = ReplSpec {
            replicas: 1,
            mode: ReplMode::Async { max_lag: 16 },
            log_capacity: 256,
        };
        let plan = FaultPlan::from_events(vec![FaultEvent {
            at_entry: 2,
            kind: FaultKind::Stall,
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
    fn get_many_reads_replicas_in_input_order() {
        let cluster = ReplCluster::new(2, 64, 8, ReplSpec::sync(2));
        let cluster = with_replicated(cluster, 1, &[], &[], 64, |mut clients| {
            let client = clients.pop().unwrap();
            // 40 present keys + 10 misses, over both shards; each get
            // goes to one of its shard's two followers.
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
            // With fresh sync replicas, followers serve the reads.
            assert!(client.replica_serves() > 0);
            client.close();
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
            assert_eq!(block_on(leader.recv()), Ok(Response::Malformed));
            // A write at a follower bounces with the current view.
            assert_eq!(
                block_on(follower.call(&Request::Get { key: 1 })),
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
            assert_eq!(block_on(leader.call(&evil)), Ok(Response::Malformed));
            assert_eq!(block_on(follower.call(&evil)), Ok(Response::Malformed));
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
            assert_eq!(block_on(conn.recv()), Ok(Response::Malformed));
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

    /// Shard 0 of `cluster` as its [`driven`] nodes — node `n` paused
    /// on `backup[n]`, every node crashed on `crash` — and `clients`
    /// clients handed to `ops`, which stops them, all moved by [`play`]
    /// as `prefix` names them (`ops` after the nodes), then round-robin
    /// for at most the rounds three retry budgets span on the stepped
    /// clock. Each node's report and pauses, and whether every actor
    /// exited.
    fn play_driven(
        cluster: &ReplCluster<TicketLock>,
        (backup, crash): (&[FaultPlan], &FaultPlan),
        clients: usize,
        prefix: &[usize],
        ops: impl AsyncFnOnce(Vec<ReplClient>),
    ) -> (Vec<(NodeReport, u64)>, bool) {
        let map = cluster.map();
        let (mut endpoints, clients) = repl_mesh(map, clients);
        let node = |endpoint: NodeEndpoint| {
            let n = endpoint.node();
            let cfg = NodeConfig {
                backup_plan: backup.get(n).cloned().unwrap_or_default(),
                crash_plan: crash.clone(),
                ..cluster.node_config(0, n, &FaultSpec::none())
            };
            driven(cluster.node_store(0, n), cluster.log(0), map, endpoint, cfg)
        };
        let mut nodes: Vec<_> = endpoints.remove(0).into_iter().map(node).collect();
        let mut ops = pin!(ops(clients));
        let mut actors: Vec<&mut dyn Step> = nodes.iter_mut().map(|n| n as &mut dyn Step).collect();
        actors.push(&mut ops);
        let rounds = 3 * OP_BUDGET.as_nanos() / QUANTUM.as_nanos();
        let shut_down = play(&mut actors, prefix, rounds as usize);
        let reports = nodes.iter().map(|n| (report_of(n), n.pauses)).collect();
        (reports, shut_down)
    }

    /// A group whose only node died stays leaderless — with no follower
    /// there is no succession line — and each operation fails once its
    /// budget is spent instead of hanging: a write lost with the leader
    /// as `Disconnected`, a read of a leaderless shard as `Deadline`.
    /// The node and the client are stepped on one thread, so each
    /// five-second budget passes on the stepped clock.
    #[test]
    fn client_deadline_fires_instead_of_hanging_on_a_dead_group() {
        let cluster = ReplCluster::new(1, 64, 8, ReplSpec::sync(0));
        let crash = FaultPlan::primary_crashes(vec![1]);
        let mut failed = Vec::new();
        let (_, shut_down) = play_driven(&cluster, (&[], &crash), 1, &[], async |clients| {
            let client = &clients[0];
            set(client, 1).await;
            let void = Request::Set {
                key: 2,
                value: b"void".to_vec(),
            };
            let start = clock::now_ns();
            let write = client.exchange(2, &void).await.map(drop);
            failed.push((write, clock::now_ns() - start));
            let start = clock::now_ns();
            let read = client.read(1).await.map(drop);
            failed.push((read, clock::now_ns() - start));
            client.mesh.send_stop().await;
        });
        assert!(shut_down);
        let budget = OP_BUDGET.as_nanos() as u64;
        let spent = |&(got, took): &(Result<(), WireError>, u64)| {
            got.err().filter(|_| (budget..2 * budget).contains(&took))
        };
        let errors: Vec<_> = failed.iter().map(spent).collect();
        assert_eq!(
            errors,
            [Some(WireError::Disconnected), Some(WireError::Deadline)],
            "{failed:?}"
        );
    }

    /// A window of `rounds` rounds opening at entry `at_entry`.
    fn one_pause(at_entry: u64, rounds: u64) -> FaultPlan {
        let kind = FaultKind::Stall;
        let window = rounds;
        FaultPlan::from_events(vec![FaultEvent {
            at_entry,
            kind,
            window,
        }])
    }

    /// A write of `key` through `client`; its version.
    async fn set(client: &ReplClient, key: u64) -> u64 {
        let write = Request::Set {
            key,
            value: vec![key as u8; 4],
        };
        match client.exchange(key, &write).await {
            Ok(Response::Stored { version }) => version,
            other => panic!("write {key} answered {other:?}"),
        }
    }

    #[test]
    fn stale_reads_opt_in_serves_a_leaderless_shard() {
        // An observer follower can never be promoted, so one leader
        // crash leaves the shard leaderless for good. A pause from
        // entry 3 keeps the follower behind the writer's freshness
        // floor until the leader has died, and what it then reads off
        // the dead leader's ring is fenced: the floor-guarded read
        // bounces to the (dead) leader, and the stale-reads client
        // degrades to floor-free replica reads, while the strict
        // client's write spends its whole budget.
        let spec = ReplSpec {
            replicas: 1,
            mode: ReplMode::Async { max_lag: 32 },
            log_capacity: 256,
        };
        let cluster: ReplCluster<TicketLock> = ReplCluster::new(1, 64, 8, spec);
        cluster.map().set_observer(0, 1);
        let plans = [FaultPlan::none(), one_pause(3, 200)];
        let crash = FaultPlan::primary_crashes(vec![5]);
        let (reports, shut_down) =
            play_driven(&cluster, (&plans, &crash), 2, &[], async |mut clients| {
                let strict = clients.pop().unwrap();
                let stale = clients.pop().unwrap().with_stale_reads();
                for key in 0..5u64 {
                    let version = set(&stale, key).await;
                    // Async replication promises no follower progress:
                    // wait until it has applied the first two.
                    let applied = || (key != 1 || stale.map.hwm_of(0, 1) >= version).then_some(());
                    ssync_srv::step::until(applied).await;
                }
                // The fifth write killed the leader; the follower, paused
                // at entry 3 with its hwm at entry 2, is an observer and
                // will never be promoted. The floor-guarded read bounces,
                // the leader is gone, and the stale path serves what the
                // follower has applied.
                let (_, value) = stale
                    .read(0)
                    .await
                    .unwrap()
                    .expect("applied before the pause");
                assert_eq!(value, vec![0u8; 4]);
                // One `Stale`, one lost leader, one floor-free answer.
                let asked = (stale.fallbacks(), stale.lost_to_retry());
                assert_eq!((asked, stale.stale_served()), ((1, 1), 1));
                let void = Request::Set {
                    key: 9,
                    value: b"void".to_vec(),
                };
                let err = strict.exchange(9, &void).await.unwrap_err();
                assert!(matches!(err, WireError::Disconnected | WireError::Deadline));
                stale.mesh.send_stop().await;
                strict.mesh.send_stop().await;
            });
        assert!(shut_down, "the observer exits once its clients are gone");
        assert_eq!(reports[1].1, 1, "the observer was paused");
        assert!(cluster.map().is_dead(0, 0));
    }

    /// Catch-up from the log, replayed: a two-node async group whose
    /// follower is paused from its first entry while the leader takes
    /// writes, and a seeded crash kills the leader. The survivor
    /// promotes and replays the log tail it missed, keeps every
    /// acknowledged write, and a second run gives the same reports.
    #[test]
    fn a_seeded_leader_crash_replays_from_the_log_the_same_every_run() {
        let faults = FaultSpec {
            seed: 0xC4A5_0011,
            primary_crashes: 1,
            ..FaultSpec::none()
        };
        let run = || {
            let cluster = ReplCluster::new(1, 64, 8, ReplSpec::async_bounded(1));
            let (plans, crash) = (
                [FaultPlan::none(), one_pause(1, 100)],
                faults.primary_plan_for(0),
            );
            let mut acknowledged = Vec::new();
            let (reports, shut_down) =
                play_driven(&cluster, (&plans, &crash), 1, &[], async |clients| {
                    for key in 1..=16 {
                        acknowledged.push((key, set(&clients[0], key).await));
                    }
                    clients[0].mesh.send_stop().await;
                });
            assert!(shut_down);
            acknowledged_everywhere(&cluster, &acknowledged).unwrap();
            assert!(cluster.map().is_dead(0, 0) && cluster.converged());
            assert_eq!(cluster.map().failovers(0), 1);
            reports
        };
        let first = run();
        let survivor = first[1].0;
        assert_eq!(survivor.promotions, 1);
        assert!(
            survivor.from_log > 0,
            "the survivor replayed nothing: {survivor:?}"
        );
        assert_eq!(first, run(), "the run replays");
    }

    /// A window the promotion's replay passes is not taken: the leader
    /// and the client move alone until the leader has died at entry 6;
    /// promoted, the follower replays past its window at entry 3 and
    /// serves on as leader instead of pausing.
    #[test]
    fn a_window_passed_by_the_promotion_replay_pauses_no_leader() {
        let cluster = ReplCluster::new(1, 64, 8, ReplSpec::async_bounded(1));
        let plans = [FaultPlan::none(), one_pause(3, 5_000)];
        let crash = FaultPlan::primary_crashes(vec![6]);
        let leader_and_client = [0, 2].repeat(40);
        let mut acknowledged = Vec::new();
        let faults = (&plans[..], &crash);
        let (reports, shut_down) =
            play_driven(&cluster, faults, 1, &leader_and_client, async |c| {
                for key in 1..=12 {
                    acknowledged.push((key, set(&c[0], key).await));
                }
                c[0].mesh.send_stop().await;
            });
        assert!(shut_down);
        let (survivor, pauses) = reports[1];
        assert_eq!((survivor.promotions, survivor.from_log), (1, 6));
        assert_eq!(pauses, 0, "the leader took its window");
        acknowledged_everywhere(&cluster, &acknowledged).unwrap();
    }

    /// A follower paused past the async lag bound is slow, not dead:
    /// the leader holds each reply that would let the follower trail by
    /// more than `max_lag` entries until it catches up, and the group
    /// converges with every acknowledged write.
    #[test]
    fn a_follower_paused_past_the_lag_bound_holds_the_leader_to_it() {
        const MAX_LAG: u64 = 4;
        let spec = ReplSpec {
            replicas: 1,
            mode: ReplMode::Async { max_lag: MAX_LAG },
            log_capacity: 64,
        };
        let cluster: ReplCluster<TicketLock> = ReplCluster::new(1, 64, 8, spec);
        let (map, log) = (cluster.map(), cluster.log(0));
        let plans = [FaultPlan::none(), one_pause(1, 200)];
        let mut acknowledged = Vec::new();
        let (reports, shut_down) = play_driven(
            &cluster,
            (&plans, &FaultPlan::none()),
            1,
            &[],
            async |clients| {
                for key in 1..=3 * MAX_LAG {
                    acknowledged.push((key, set(&clients[0], key).await));
                    let trails = log.outstanding_after(map.hwm_of(0, 1)) as u64;
                    assert!(
                        trails <= MAX_LAG,
                        "write {key} acknowledged {trails} entries ahead"
                    );
                    assert!(!map.is_dead(0, 1));
                }
                clients[0].mesh.send_stop().await;
            },
        );
        assert!(shut_down);
        assert_eq!(reports[1].1, 1, "the follower was paused");
        assert_eq!(reports[1].0.applied, 3 * MAX_LAG);
        acknowledged_everywhere(&cluster, &acknowledged).unwrap();
        assert!(cluster.converged());
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
                block_on(rude.conn(0, node).send(&Request::Stop)).unwrap();
                block_on(rude.conn(0, node).send(&Request::Stop)).unwrap();
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
        // Held, not served: the test plays this leader on its stream.
        let leader = endpoints[0].pop().unwrap();
        let client = clients.pop().unwrap();
        std::thread::scope(|s| {
            let cfg = cluster.node_config(0, 1, &FaultSpec::none());
            let (store, log, map) = (cluster.node_store(0, 1), cluster.log(0), &map);
            let node = s.spawn(move || serve_node(store, log, map, follower, cfg));
            let stream = &leader.peers.stream_tx[1].tx;
            stream.send([0xEE; ssync_mp::MSG_WORDS]);
            let mut frames = Vec::new();
            ssync_srv::wire::encode_replicate(7, 1, b"after", &mut frames);
            stream.send_all_connected(&frames).unwrap();
            wait_for("the follower's ack", || map.hwm_of(0, 1) >= 1);
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
            // Held, not served: the test plays this leader on its stream.
            let mut leader = endpoints[0].pop().unwrap();
            let client = clients.pop().unwrap();
            let report = std::thread::scope(|s| {
                let cfg = cluster.node_config(0, 1, &FaultSpec::none());
                let (store, log, map) = (cluster.node_store(0, 1), cluster.log(0), &map);
                let node = s.spawn(move || serve_node(store, log, map, follower, cfg));
                let mut frames = Vec::new();
                ssync_srv::wire::encode_replicate(7, 1, &[9; 300], &mut frames);
                let stream = leader.peers.stream_tx.pop().unwrap().tx;
                stream.send(frames[0]);
                drop(stream);
                let scrape = || client.stats_of(0, 1).unwrap();
                wait_for("the malformed entry", || {
                    scrape().counter("srv.malformed") == Some(1)
                });
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
                backup_plan: FaultPlan::none(),
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
    /// consumption, each successor, both log leads and the stale fence.
    /// A pause is the driver's, between moves, so it changes when the
    /// follower sees each of these, not what. Returns how many it ran.
    fn enumerate_follower(forgetful: bool) -> usize {
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
                                let schedule = Schedule {
                                    entries,
                                    streamed,
                                    death,
                                    promotion,
                                    successor,
                                    ahead,
                                    stale,
                                };
                                run_schedule(&schedule, forgetful);
                                ran += 1;
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
    /// interleaving of stream, death and promotion a `serve_node` loop
    /// can see.
    #[test]
    fn follower_never_lets_hwm_pass_an_unapplied_entry() {
        let ran = enumerate_follower(false);
        assert_eq!(ran, 650);
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

    /// A [`ReplNode`] as the stepped enumerations run it: itself, or a
    /// twin with one guard off.
    struct Stepped<'a> {
        node: ReplNode<'a, TicketLock>,
        twin: Option<Twin>,
    }

    #[derive(Clone, Copy, PartialEq)]
    enum Twin {
        /// The settle rule is satisfied once *one* live follower has
        /// published the version.
        OneFollowerSuffices,
        /// Replica reads are served without the freshness floor check.
        NoFloor,
    }

    impl Hooks for Stepped<'_> {
        fn admit(&mut self, request: &mut Request) -> Admit {
            match *request {
                Request::ReplGet { key, .. } if self.twin == Some(Twin::NoFloor) => {
                    *request = Request::Get { key };
                    Admit::Run
                }
                _ => self.node.admit(request),
            }
        }

        fn observes_writes(&self) -> bool {
            self.node.observes_writes()
        }

        fn committed(&mut self, key: u64, version: u64, value: Option<&Bytes>) {
            self.node.committed(key, version, value);
        }

        fn reply_owed(&mut self) -> bool {
            let node = &mut self.node;
            let one_suffices = self.twin == Some(Twin::OneFollowerSuffices);
            let Some(version) = node.owed.filter(|_| one_suffices) else {
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

        fn may_exit(&mut self) -> bool {
            self.node.may_exit()
        }

        fn counters(&self) -> Vec<(&'static str, u64)> {
            self.node.counters()
        }
    }

    /// Shard 0 of `cluster` as three stepped nodes, each closing its
    /// rings once it exits (node 0, the leader, is crashed right after
    /// the write that produced entry `crash_after`, if any; `observer`
    /// may not lead), over stream rings of `stream_depth` slots, and
    /// one client.
    fn stepped_group(
        cluster: &ReplCluster<TicketLock>,
        observer: Option<usize>,
        crash_after: Option<u64>,
        twin: Option<Twin>,
        stream_depth: usize,
    ) -> (Vec<impl Step + '_>, ReplClient) {
        let map = cluster.map();
        if let Some(observer) = observer {
            map.set_observer(0, observer);
        }
        let (mut endpoints, mut clients) = repl_mesh(map, 1);
        for (endpoint, peers) in endpoints[0].iter_mut().zip(peer_mesh(3, stream_depth)) {
            endpoint.peers = peers;
        }
        let crash = FaultPlan::primary_crashes(crash_after.into_iter().collect());
        let nodes = (endpoints.pop().unwrap().into_iter())
            .map(|endpoint| {
                let n = endpoint.node();
                let cfg = NodeConfig {
                    crash_plan: crash.clone(),
                    ..cluster.node_config(0, n, &FaultSpec::none())
                };
                let (store, log) = (cluster.node_store(0, n), cluster.log(0));
                let (core, node) = ReplNode::new(store, log, map, endpoint, cfg);
                let node = (core, store, Stepped { node, twin });
                Crash::new(node, |(_, _, s): &(_, _, Stepped<'_>)| {
                    crash_due(&s.node).then_some(())
                })
            })
            .collect();
        (nodes, clients.pop().unwrap())
    }

    /// Steps `nodes` and the client future `ops` through `prefix`
    /// (node moves, the client's index being `nodes.len()`), then
    /// round-robin. `Err` if they did not all exit.
    fn play_group(
        nodes: &mut [impl Step],
        mut ops: Pin<&mut impl Future<Output = ()>>,
        prefix: &[usize],
    ) -> Result<(), String> {
        let mut actors: Vec<&mut dyn Step> = nodes.iter_mut().map(|n| n as &mut dyn Step).collect();
        actors.push(&mut ops);
        let shut_down = play(&mut actors, prefix, 64);
        shut_down
            .then_some(())
            .ok_or("the group did not shut down".to_string())
    }

    /// `Err` naming the first acknowledged `(key, version)` some live
    /// node of shard 0 does not hold.
    fn acknowledged_everywhere(
        cluster: &ReplCluster<TicketLock>,
        acknowledged: &[(u64, u64)],
    ) -> Result<(), String> {
        let map = cluster.map();
        for n in (0..map.nodes_per_shard()).filter(|&n| !map.is_dead(0, n)) {
            for &(key, version) in acknowledged {
                let held = cluster.node_store(0, n).get_with_version(&key_bytes(key));
                if held.map(|(at, _)| at) != Some(version) {
                    return Err(format!(
                        "acknowledged write {key}@{version} missing at node {n} after a \
                         promotion to {:?}",
                        map.view(0)
                    ));
                }
            }
        }
        Ok(())
    }

    /// One schedule of the leader enumeration: a sync group of three
    /// nodes and one client writing keys `1..=writes` in a closed loop;
    /// the leader, node 0, dies right after the last write's reply, and
    /// `observer` is a follower that may not lead. The nodes take turns
    /// as `prefix` names them, the client moving after each, then all
    /// round-robin. Every live node must end up holding every write the
    /// client saw acknowledged.
    fn run_leader_schedule(
        writes: u64,
        observer: Option<usize>,
        prefix: &[usize],
        twin: bool,
    ) -> Result<(), String> {
        let cluster: ReplCluster<TicketLock> = ReplCluster::new(1, 8, 2, ReplSpec::sync(2));
        let twin = twin.then_some(Twin::OneFollowerSuffices);
        let (mut nodes, client) =
            stepped_group(&cluster, observer, Some(writes), twin, STREAM_DEPTH);
        let (mut acknowledged, mut answered) = (Vec::new(), Ok(()));
        let shut_down = {
            let ops = pin!(async {
                for key in 1..=writes {
                    let write = Request::Set {
                        key,
                        value: vec![key as u8; 4],
                    };
                    match client.exchange(key, &write).await {
                        Ok(Response::Stored { version }) => acknowledged.push((key, version)),
                        other => {
                            answered = Err(format!("write {key} answered {other:?}"));
                            break;
                        }
                    }
                }
                client.mesh.send_stop().await;
            });
            let prefix: Vec<usize> = prefix.iter().flat_map(|&n| [n, 3]).collect();
            play_group(&mut nodes, ops, &prefix)
        };
        answered?;
        acknowledged_everywhere(&cluster, &acknowledged)?;
        shut_down
    }

    /// Every leader schedule at small scope: one or two writes, no
    /// observer or either follower one, and every order of the first six
    /// turns among the three nodes. Stops at the first failure;
    /// otherwise returns how many it ran.
    fn enumerate_leader(twin: bool) -> Result<usize, String> {
        let mut ran = 0;
        for writes in 1..=2 {
            for observer in [None, Some(1), Some(2)] {
                let schedule = |prefix: &[usize]| {
                    run_leader_schedule(writes, observer, prefix, twin)
                        .map_err(|e| format!("{e}: {writes} writes, observer {observer:?}"))
                };
                ran += enumerate(3, 6, schedule)?.len();
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
        let started = std::time::Instant::now();
        let ran = enumerate_leader(false).unwrap();
        assert_eq!(ran, 4_374);
        eprintln!(
            "leader enumeration: {ran} schedules in {:?}",
            started.elapsed()
        );
    }

    /// The twin: a leader that settles once *one* live follower has
    /// published the version must be caught by the same enumeration,
    /// as an acknowledged write lost to a promotion — the log truncated
    /// through the reply, and the other follower never sent it.
    #[test]
    fn a_leader_that_settles_on_one_follower_is_found() {
        let found = enumerate_leader(true).unwrap_err();
        assert!(found.contains("missing at node"), "{found}");
        eprintln!("leader twin: {found}");
    }

    /// One schedule of the shared-worker enumeration: a sync group of
    /// three nodes over stream rings of two slots, and one client that
    /// writes three 300-byte values — each entry six frames, three times
    /// what a stream ring holds. The nodes and the client move as
    /// `prefix` names them (the client is 3), then round-robin, all on
    /// one thread, as nodes sharing a worker do. Every acknowledged
    /// write must reach both followers, and the group must shut down.
    fn run_shallow_stream_schedule(prefix: &[usize]) -> Result<(), String> {
        let cluster: ReplCluster<TicketLock> = ReplCluster::new(1, 8, 2, ReplSpec::sync(2));
        let (mut nodes, client) = stepped_group(&cluster, None, None, None, 2);
        let (mut acknowledged, mut answered) = (Vec::new(), Ok(()));
        let shut_down = {
            let ops = pin!(async {
                for key in 1..=3 {
                    let write = Request::Set {
                        key,
                        value: vec![key as u8; 300],
                    };
                    match client.exchange(key, &write).await {
                        Ok(Response::Stored { version }) => acknowledged.push((key, version)),
                        other => {
                            answered = Err(format!("write {key} answered {other:?}"));
                            break;
                        }
                    }
                }
                client.mesh.send_stop().await;
            });
            play_group(&mut nodes, ops, prefix)
        };
        answered?;
        acknowledged_everywhere(&cluster, &acknowledged)?;
        shut_down
    }

    /// Nodes sharing one worker cannot wait on each other: a leader
    /// whose stream rings are full keeps the frames queued and ends its
    /// turn, so the followers on its thread drain them. Every order of
    /// the first five moves among the three nodes and the client. The
    /// enumeration runs detached, so a leader that waited on a full
    /// ring fails this test at the deadline instead of hanging it.
    #[test]
    fn a_full_stream_ring_holds_up_no_node_on_a_shared_worker() {
        let frames = LogEntry::committed(1, 2, Some(&Bytes::from(vec![1; 300])));
        let mut encoded = Vec::new();
        frames.encode_into(&mut encoded);
        assert_eq!(encoded.len(), 6, "an entry three times a ring's depth");
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let ran = enumerate(4, 5, run_shallow_stream_schedule);
            done_tx.send(ran.map(|ran| ran.len())).unwrap();
        });
        let ran = done_rx
            .recv_timeout(Duration::from_secs(120))
            .expect("a schedule hung on a full stream ring");
        assert_eq!(ran, Ok(1_024));
    }

    /// One schedule of the read enumeration: an async group of three
    /// nodes, whose leader, node 0, dies right after the first write's
    /// reply, and one client that writes a key, reads it, overwrites it
    /// across the promotion and reads it twice more — its replica reads
    /// floor-guarded, falling back to the leader. The four move as
    /// `prefix` names them (the client is 3), then round-robin. Every
    /// read must return the client's last acknowledged write or a later
    /// one (read-your-writes), never older than the read before it
    /// (monotonic reads), and the last acknowledged write must end up at
    /// every live node.
    fn run_read_schedule(prefix: &[usize], twin: bool) -> Result<(), String> {
        const KEY: u64 = 5;
        let cluster: ReplCluster<TicketLock> =
            ReplCluster::new(1, 8, 2, ReplSpec::async_bounded(2));
        let twin = twin.then_some(Twin::NoFloor);
        let (mut nodes, client) = stepped_group(&cluster, None, Some(1), twin, STREAM_DEPTH);
        let (mut acknowledged, mut answered) = (Vec::new(), Ok(()));
        let shut_down = {
            let ops = pin!(async {
                let (mut written, mut read) = (0, 0);
                for value in [Some(b"a"), None, Some(b"b"), None, None] {
                    let Some(value) = value else {
                        match client.read(KEY).await {
                            Ok(Some((version, _))) if version >= written.max(read) => {
                                read = version
                            }
                            other => {
                                answered = Err(format!(
                                    "a read went backwards: {other:?} after writing version \
                                 {written} and reading {read}"
                                ));
                                break;
                            }
                        }
                        continue;
                    };
                    let write = Request::Set {
                        key: KEY,
                        value: value.to_vec(),
                    };
                    match client.exchange(KEY, &write).await {
                        Ok(Response::Stored { version }) => {
                            written = version;
                            acknowledged = vec![(KEY, version)];
                        }
                        other => {
                            answered = Err(format!("a write answered {other:?}"));
                            break;
                        }
                    }
                }
                client.mesh.send_stop().await;
            });
            play_group(&mut nodes, ops, prefix)
        };
        answered?;
        acknowledged_everywhere(&cluster, &acknowledged)?;
        shut_down
    }

    /// Read-your-writes and monotonic reads through a real client's
    /// floor-guarded replica reads, across a promotion: every order of
    /// the first six moves among the three nodes and the client.
    #[test]
    fn replica_reads_never_go_backwards_across_a_promotion() {
        let started = std::time::Instant::now();
        let ran = enumerate(4, 6, |prefix| run_read_schedule(prefix, false)).unwrap();
        assert_eq!(ran.len(), 4_096);
        eprintln!(
            "read enumeration: {} schedules in {:?}",
            ran.len(),
            started.elapsed()
        );
    }

    /// The twin: a follower that serves replica reads without the floor
    /// check must be caught by the same enumeration, as a read going
    /// backwards.
    #[test]
    fn a_follower_that_ignores_the_floor_is_found() {
        let found = enumerate(4, 6, |prefix| run_read_schedule(prefix, true)).unwrap_err();
        assert!(found.contains("went backwards"), "{found}");
        eprintln!("read twin: {found}");
    }
}
