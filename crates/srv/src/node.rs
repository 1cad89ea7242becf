//! The one node under every serving stack.
//!
//! [`NodeCore`] owns what `serve`, `ssync-repl`'s `serve_node` and
//! `ssync-cluster`'s `serve_cluster_node` have in common: polling the
//! client hub and taking each client's continuation frames across
//! turns, the
//! `Malformed` replies, per-client `Stop` accounting (a client that
//! goes away without one is retired before a park), the reclamation
//! cadence, the `TimedGet` latency split,
//! the `Stats` scrape, one executor for the five data operations, and
//! a write's reply: sent at the store's decision when the stack
//! observes no writes, else held while the stack says it is owed.
//! [`NodeCore::turn`] is one pass of a node, and a node — its core,
//! store and hooks — is a [`Step`] that [`run`](crate::step::run)
//! drives. Every ring a node touches has one receive and one send
//! discipline: a [`StreamDecoder`] takes each message, resumed turn by
//! turn, and a [`SendQueue`] sends what the ring has room for and keeps
//! the rest for a later turn, so no turn waits on a peer. A serving
//! stack is one struct implementing [`Hooks`], whose every method
//! defaults to doing nothing; hooks are generic parameters, so the
//! plain shard's [`NoHooks`] compiles to the bare store calls.

use std::ops::ControlFlow;
use std::sync::Arc;

use bytes::Bytes;

use ssync_core::stats::{mono_ns, Histogram, Registry};
use ssync_mp::{Message, MsgReceiver, RingReceiver, RingSender, ServerHub};

use crate::router::key_bytes;
use crate::service::{ServeReport, ServerEndpoint};
use crate::step::Step;
use crate::wire::{encode_value, replay, Request, Response, WireError};
use crate::Store;

/// An admission verdict for one request.
#[derive(Debug)]
pub enum Admit {
    /// Execute the request, as [`Hooks::admit`] left it.
    Run,
    /// Execute nothing; answer with this response instead.
    Refuse(Response),
    /// Park the request, unexecuted and unanswered; the core re-submits
    /// it every turn until it runs or is refused. Only writes are
    /// deferred.
    Defer,
}

/// What one [`NodeCore::turn`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Turn {
    /// Something moved: a frame, a handshake, a parked write.
    Progress,
    /// Nothing to do: the loop idles.
    Idle,
    /// The node is done serving.
    Exit,
}

/// Where a serving stack's policy meets the node loop: per request, what
/// may run and what a committed write feeds; per turn, the side work,
/// the exit and the scrape. Each default leaves the core alone.
pub trait Hooks {
    /// May this node run `request` now? Asked once per request but
    /// `Stop` and `Stats`, and again each turn the core re-submits a
    /// write it deferred. The hook may rewrite the request first (a
    /// replica read that passes its floor becomes `Get`); what is not a
    /// data operation after it is refused [`Response::Malformed`].
    fn admit(&mut self, _request: &mut Request) -> Admit {
        Admit::Run
    }

    /// Does this stack observe the write about to run? Asked once per
    /// admitted `Set`/`Cas`/`Delete`, and it also decides when the
    /// write is answered. A yes reports the write to
    /// [`Hooks::committed`] and then asks [`Hooks::reply_owed`] before
    /// the reply leaves; it costs a put a handle on the stored value
    /// (one reference-count round trip). A no, the default, sends the
    /// reply at the store's decision ([`Store::put_with`]), before
    /// the store builds the item: no `committed`, no `reply_owed`.
    fn observes_writes(&self) -> bool {
        false
    }

    /// The store accepted a write of `key` at `version` that
    /// [`Hooks::observes_writes`] asked for: `Some(value)` for a put,
    /// `None` for a delete. Called before the reply is sent.
    fn committed(&mut self, _key: u64, _version: u64, _value: Option<&Bytes>) {}

    /// Is the reply to the observed write just executed still owed?
    /// Asked after every write [`Hooks::observes_writes`] asked for,
    /// then once a turn while the core holds that reply — serving no
    /// other request meanwhile — until a turn's answer releases it. A
    /// stack that owes replies parks no writes ([`Admit::Defer`]): the
    /// core holds one reply at a time.
    fn reply_owed(&mut self) -> bool {
        false
    }

    /// The node's own work before the client poll, counting malformed
    /// frames in `counts`: `Continue(progressed)` goes on to the poll,
    /// `Break` ends the turn there.
    fn before_poll(&mut self, _counts: &mut ServeReport) -> ControlFlow<Turn, bool> {
        ControlFlow::Continue(false)
    }

    /// Every client is gone and none has a frame waiting: exit?
    fn may_exit(&mut self) -> bool {
        true
    }

    /// The `node.*` counters of this node's `Stats` scrape.
    fn counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

/// The plain shard server's policy: admit everything, observe nothing,
/// exit once every client has stopped.
pub struct NoHooks;

impl Hooks for NoHooks {}

/// One epoch advance-and-collect pass per this many progressed turns of
/// a node: a long-lived node frees its retired store nodes while
/// traffic flows — no quiescent point, bounded backlog.
const RECLAIM_PERIOD: u64 = 1024;

/// One ring's decode, resumable across polls: a message whose
/// continuation frames are not all published yet keeps its head and
/// the frames taken so far here. Requests, node-to-node streams and
/// replies all decode through it.
#[derive(Default)]
pub struct StreamDecoder {
    head: Option<Message>,
    frames: Vec<Message>,
}

impl StreamDecoder {
    /// The next whole request off `rx`, decoded: `None` while none is
    /// complete, `Err(Disconnected)` if the sender died before its last
    /// continuation.
    #[inline]
    pub fn try_recv(&mut self, rx: &RingReceiver) -> Option<Result<Request, WireError>> {
        let head = self.poll(rx, Request::continuations)?;
        Some(head.and_then(|head| Request::decode(head, replay(&self.frames))))
    }

    /// [`StreamDecoder::try_recv`] for a [`Response`].
    // Generic for `Conn`: benchmark/src/driver.rs:18 spells its halves.
    #[inline]
    pub fn try_recv_response<C: MsgReceiver>(
        &mut self,
        rx: &C,
    ) -> Option<Result<Response, WireError>> {
        let head = self.poll(rx, Response::continuations)?;
        Some(head.and_then(|head| Response::decode(head, replay(&self.frames))))
    }

    /// The head of the next whole message, its continuations in `frames`.
    // Generic for `try_recv_response` alone.
    #[inline]
    fn poll<C: MsgReceiver>(
        &mut self,
        rx: &C,
        continuations: fn(&Message) -> usize,
    ) -> Option<Result<Message, WireError>> {
        let head = match self.head.take() {
            Some(head) => head,
            None => {
                self.frames.clear();
                rx.try_recv()?
            }
        };
        let more = continuations(&head);
        match (more > 0).then(|| rx.poll_burst(more, &mut self.frames)) {
            None | Some(Ok(true)) => Some(Ok(head)),
            Some(Ok(false)) => {
                self.head = Some(head);
                None
            }
            Some(Err(_)) => Some(Err(WireError::Disconnected)),
        }
    }
}

/// One ring's sending half and the frames it refused so far, sent
/// first, in order, by later flushes: a full ring costs its sender a
/// queue, not a wait.
pub struct SendQueue {
    /// The sending half; a frame put on it directly goes ahead of the
    /// queue, which is how tests inject traffic.
    pub tx: RingSender,
    queued: Vec<Message>,
}

impl SendQueue {
    /// An empty queue in front of `tx`.
    pub fn new(tx: RingSender) -> Self {
        let queued = Vec::new();
        SendQueue { tx, queued }
    }

    /// Queues `frames`, but while the queue is empty, first sends as
    /// many as the ring has room for in one burst, straight from
    /// `frames`.
    #[inline]
    pub fn send(&mut self, frames: &[Message]) {
        let run = if self.queued.is_empty() {
            self.tx.try_send_burst(frames)
        } else {
            0
        };
        self.queued.extend_from_slice(&frames[run..]);
    }

    /// Sends the queue as far as the ring has room; true if any frame
    /// went out. A queue whose receiver is gone is dropped.
    pub fn flush(&mut self) -> bool {
        if self.tx.receiver_closed() {
            self.queued.clear();
        }
        let run = self.tx.try_send_burst(&self.queued);
        self.queued.drain(..run);
        run > 0
    }

    /// True if no frame waits.
    pub fn is_empty(&self) -> bool {
        self.queued.is_empty()
    }

    /// Drops the queued frames.
    pub fn clear(&mut self) {
        self.queued.clear();
    }
}

/// The shared serve-loop state of one node. See the module docs.
pub struct NodeCore {
    hub: ServerHub<RingReceiver>,
    replies: Vec<SendQueue>,
    frames: Vec<Message>,
    inboxes: Vec<StreamDecoder>,
    stopped: Vec<bool>,
    live: usize,
    since_reclaim: u64,
    registry: Registry,
    queue_wait: Arc<Histogram>,
    /// `srv.apply_ns`: a `TimedGet`'s server-side work — the lookup and,
    /// since a hit is encoded in place under the read's pin, the encode
    /// of its answer; not the send.
    apply: Arc<Histogram>,
    /// Writes [`Admit::Defer`] parked, with the client owed each.
    parked: Vec<(usize, Request)>,
    /// An executed write's reply [`Hooks::reply_owed`] holds back.
    owed: Option<(usize, Response)>,
    /// Requests, key-operations, deferred writes and refused frames so
    /// far.
    counts: ServeReport,
}

// The per-request methods carry `#[inline]`: each has one call site, in
// the one turn, and left out of line they cost the plain shard a
// measurable share of its request budget (EXPERIMENTS.md).
impl NodeCore {
    /// A core serving `endpoint`'s clients.
    pub fn new(endpoint: ServerEndpoint) -> Self {
        let ServerEndpoint { requests, replies } = endpoint;
        let registry = Registry::new();
        NodeCore {
            stopped: vec![false; requests.len()],
            live: requests.len(),
            inboxes: requests.iter().map(|_| StreamDecoder::default()).collect(),
            hub: ServerHub::new(requests),
            replies: replies.into_iter().map(SendQueue::new).collect(),
            frames: Vec::new(),
            since_reclaim: 0,
            queue_wait: registry.histogram("srv.queue_wait_ns"),
            apply: registry.histogram("srv.apply_ns"),
            registry,
            parked: Vec::new(),
            owed: None,
            counts: ServeReport::default(),
        }
    }

    /// Requests, key-operations, deferred writes and refused frames so
    /// far.
    pub fn report(&self) -> ServeReport {
        self.counts
    }

    /// One pass of the node: the queued replies, `hooks`' side work,
    /// the parked writes re-submitted, one round-robin poll of the
    /// clients, and its dispatch. A turn whose poll finds nothing, once
    /// every client is gone, exits if `hooks` agrees, and the exit
    /// closes the node's client rings, so a client still sending to it
    /// sees it gone. While a write's reply is owed
    /// ([`Hooks::reply_owed`]), a turn is the side work and the question
    /// only; the turn that releases the reply sends it and ends there.
    /// Every 1 024th turn that made progress also runs one reclamation
    /// pass on `store`. A turn holds `store`'s writer claim
    /// ([`Store::claim_writer`]), and the exit gives it up: in a debug
    /// build, a write to the store from any other thread while the node
    /// runs panics. A client's queued replies are dropped when it
    /// retires or its reply receiver is gone (and it is retired once its
    /// requests are gone too).
    ///
    /// A request not yet whole is resumed on its client's next turn of
    /// the round-robin. A head frame that fails to decode is answered
    /// with [`Response::Malformed`] — a corrupt frame degrades one
    /// connection, it does not take the node down. A client's first `Stop` retires it; a repeated one is
    /// counted as malformed and not answered (nobody drains that reply
    /// ring). A client that went away between a head frame and its
    /// continuations is the same two things at once: the truncated
    /// request is counted malformed, the client retired, nothing
    /// executed or answered.
    #[inline]
    pub fn turn<H: Hooks>(&mut self, store: &Store, hooks: &mut H) -> Turn {
        store.claim_writer();
        let turn = self.pass(store, hooks);
        match turn {
            Turn::Progress => {
                self.since_reclaim += 1;
                if self.since_reclaim >= RECLAIM_PERIOD {
                    self.since_reclaim = 0;
                    store.reclaim_pass();
                }
            }
            Turn::Exit => {
                store.release_writer();
                (self.hub, self.replies) = (ServerHub::new(Vec::new()), Vec::new());
            }
            Turn::Idle => {}
        }
        turn
    }

    #[inline]
    fn pass<H: Hooks>(&mut self, store: &Store, hooks: &mut H) -> Turn {
        let flushed = self.flush();
        let mut progressed = match hooks.before_poll(&mut self.counts) {
            ControlFlow::Break(turn) => return turn,
            ControlFlow::Continue(progressed) => progressed || flushed,
        };
        if self.owed.is_some() {
            if hooks.reply_owed() {
                return if progressed {
                    Turn::Progress
                } else {
                    Turn::Idle
                };
            }
            if let Some((client, response)) = self.owed.take() {
                self.reply(client, &response);
            }
            return Turn::Progress;
        }
        if !self.parked.is_empty() {
            for (client, request) in std::mem::take(&mut self.parked) {
                match self.serve(store, hooks, client, request) {
                    Some(request) => self.parked.push((client, request)),
                    None => progressed = true,
                }
            }
        }
        let inboxes = &mut self.inboxes;
        let polled = self
            .hub
            .poll_with(|client, rx| Some((client, inboxes[client].try_recv(rx)?)));
        let (client, request) = match polled {
            Some(polled) => polled,
            None if self.live == 0 && hooks.may_exit() => return Turn::Exit,
            None if progressed => return Turn::Progress,
            None => return Turn::Idle,
        };
        match request {
            Err(WireError::Disconnected) => {
                self.counts.malformed += 1;
                self.retire(client);
            }
            Err(_) => {
                self.counts.malformed += 1;
                self.reply(client, &Response::Malformed);
            }
            Ok(Request::Stop) => {
                if !self.retire(client) {
                    self.counts.malformed += 1;
                }
            }
            Ok(Request::Stats) => {
                self.counts.requests += 1;
                self.reply_stats(client, store, &hooks.counters());
            }
            Ok(request) => {
                self.counts.requests += 1;
                if let Some(request) = self.serve(store, hooks, client, request) {
                    self.counts.deferred += 1;
                    self.parked.push((client, request));
                }
            }
        }
        Turn::Progress
    }

    /// Sends one response to `client` through the scratch frame buffer.
    #[inline]
    fn reply(&mut self, client: usize, response: &Response) {
        response.encode_into(&mut self.frames);
        self.replies[client].send(&self.frames);
    }

    /// Sends each client's queued replies as far as its ring has room;
    /// true if any frame went out. A client whose reply receiver and
    /// requests are both gone ([`ServerHub::departed`]) is retired.
    #[inline]
    fn flush(&mut self) -> bool {
        let mut sent = false;
        for client in 0..self.replies.len() {
            let queue = &mut self.replies[client];
            if !queue.is_empty() {
                sent |= queue.flush();
                if queue.tx.receiver_closed() && self.hub.departed(client) {
                    self.retire(client);
                }
            }
        }
        sent
    }

    /// Retires `client` as its first `Stop` does, dropping its queued
    /// replies; false if it already was.
    fn retire(&mut self, client: usize) -> bool {
        self.replies[client].clear();
        let first = !std::mem::replace(&mut self.stopped[client], true);
        self.live -= usize::from(first);
        first
    }

    /// Retires every client whose request channel is dropped and
    /// drained ([`ServerHub::departed`]); idempotent with a real `Stop`
    /// before or after.
    #[cold]
    fn retire_departed(&mut self) {
        for client in 0..self.stopped.len() {
            if !self.stopped[client] && self.hub.departed(client) {
                self.retire(client);
            }
        }
    }

    /// Answers a `Stats` scrape: the latency-split histograms, the
    /// core's own counters, the caller's `node` counters and the
    /// store's — assembled only when asked for, without pausing service.
    fn reply_stats(&mut self, client: usize, store: &Store, node: &[(&str, u64)]) {
        let mut snap = self.registry.snapshot();
        // The store-level snapshot, not the bare counter block: the
        // `reclaim_backlog` gauge rides along with the counters.
        let s = store.stats_snapshot();
        let own = [
            ("srv.requests", self.counts.requests),
            ("srv.key_ops", self.counts.key_ops),
            ("srv.deferred", self.counts.deferred),
            ("srv.malformed", self.counts.malformed),
        ];
        let stored = [
            ("store.hits", s.hits),
            ("store.misses", s.misses),
            ("store.sets", s.sets),
            ("store.deletes", s.deletes),
            ("store.cas_failures", s.cas_failures),
            ("store.read_fallbacks", s.read_fallbacks),
            ("store.repl_applied", s.repl_applied),
            ("store.repl_stale_drops", s.repl_stale_drops),
            ("store.epochs_advanced", s.epochs_advanced),
            ("store.nodes_reclaimed", s.nodes_reclaimed),
            ("store.reclaim_backlog", s.reclaim_backlog),
        ];
        for &(name, value) in own.iter().chain(node).chain(&stored) {
            snap.counters.push((name.to_string(), value));
        }
        let payload = snap.to_bytes();
        self.reply(client, &Response::StatsReply { payload });
    }

    /// Admits one request for `client` through `hooks`, executes it and
    /// replies with exactly one response — a refusal, or the operation's
    /// answer, a write's held while [`Hooks::reply_owed`] says so.
    /// Returns the request back, nothing executed and nothing replied,
    /// when `hooks` deferred it. Anything that is not a data operation
    /// once admitted is out of protocol on a client channel: refused
    /// with [`Response::Malformed`] and counted.
    #[inline]
    fn serve<H: Hooks>(
        &mut self,
        store: &Store,
        hooks: &mut H,
        client: usize,
        mut request: Request,
    ) -> Option<Request> {
        match hooks.admit(&mut request) {
            Admit::Run => {}
            Admit::Refuse(response) => {
                self.reply(client, &response);
                return None;
            }
            Admit::Defer => return Some(request),
        }
        match request {
            Request::Get { key } => self.read(store, key),
            Request::TimedGet { key, stamp } => {
                let t0 = mono_ns();
                self.queue_wait.record(t0.saturating_sub(stamp));
                self.read(store, key);
                self.apply.record(mono_ns().saturating_sub(t0));
            }
            Request::Set { .. } | Request::Cas { .. } | Request::Delete { .. } => {
                self.counts.key_ops += 1;
                if !hooks.observes_writes() {
                    // Answered at the store's decision: the reply leaves
                    // while the store builds the item.
                    let (frames, queue) = (&mut self.frames, &mut self.replies[client]);
                    write_answered(store, request, |response| {
                        response.encode_into(frames);
                        queue.send(frames);
                    });
                    return None;
                }
                let response = write_observed(store, hooks, request);
                if hooks.reply_owed() {
                    debug_assert!(self.owed.is_none(), "one owed reply at a time");
                    self.owed = Some((client, response));
                    return None;
                }
                response.encode_into(&mut self.frames);
            }
            _ => {
                self.counts.malformed += 1;
                Response::Malformed.encode_into(&mut self.frames);
            }
        }
        self.replies[client].send(&self.frames);
        None
    }

    /// Runs one admitted read and encodes its answer into the frame
    /// buffer. A hit is encoded straight from the stored item, borrowed
    /// under the read's own pin ([`Store::get_with`]): no handle, no
    /// reference-count round trip, and the value's one copy on this hop
    /// is into the frames.
    #[inline]
    fn read(&mut self, store: &Store, key: u64) {
        self.counts.key_ops += 1;
        let frames = &mut self.frames;
        let hit = store.get_with(&key_bytes(key), |version, value| {
            encode_value(version, value, frames);
        });
        if hit.is_none() {
            Response::Miss.encode_into(&mut self.frames);
        }
    }
}

/// A node: its core, its store and its hooks; a move is one
/// [`NodeCore::turn`].
///
/// A node holding an owed or queued reply may not park: a client waits
/// on it. Before a park, a node retires each client that went away
/// without a `Stop` (a panicked test body, a dropped connection) as its
/// first `Stop` would have, uncounted: else the node waits forever for
/// a `Stop` nobody is left to send. A worker parks only after
/// milliseconds of idling, so no request pays for the sweep.
impl<H: Hooks> Step for (NodeCore, &Store, H) {
    fn step(&mut self) -> Turn {
        let (core, store, hooks) = self;
        core.turn(store, hooks)
    }

    fn may_park(&self) -> bool {
        self.0.owed.is_none() && self.0.replies.iter().all(SendQueue::is_empty)
    }

    fn parking(&mut self) {
        self.0.retire_departed();
    }
}

/// Applies one admitted write for a stack that observes none, handing
/// its response to `answer` at the store's decision
/// ([`Store::put_with`], [`Store::delete_with`]): before the store
/// builds, links or unlinks the item, and inside its write section, so
/// a reader that saw the reply waits for the write.
fn write_answered(store: &Store, request: Request, answer: impl FnOnce(Response)) {
    let (key, expected, value) = match request {
        Request::Set { key, value } => (key, None, value),
        Request::Cas {
            key,
            expected,
            value,
        } => (key, Some(expected), value),
        Request::Delete { key } => {
            store.delete_with(&key_bytes(key), |gone| answer(deleted(gone)));
            return;
        }
        _ => unreachable!("serve hands only writes to write_answered()"),
    };
    // The outcome is answered; nothing is left to do with it.
    let _ = store.put_with(&key_bytes(key), &value, expected, |put| answer(stored(put)));
}

/// Applies one admitted write for a stack that observes writes and
/// reports it to [`Hooks::committed`] before the caller answers. A put
/// also takes a handle on the stored value for `committed` to keep: the
/// log shares the item's bytes.
fn write_observed<H: Hooks>(store: &Store, hooks: &mut H, request: Request) -> Response {
    let (key, kept) = match request {
        Request::Set { key, value } => (key, Ok(store.set_shared(&key_bytes(key), value))),
        Request::Cas {
            key,
            expected,
            value,
        } => (key, store.cas_shared(&key_bytes(key), value, expected)),
        Request::Delete { key } => {
            let gone = store.delete_versioned(&key_bytes(key));
            if let Some(version) = gone {
                hooks.committed(key, version, None);
            }
            return deleted(gone);
        }
        _ => unreachable!("serve hands only writes to write_observed()"),
    };
    stored(kept.map(|(version, value)| {
        hooks.committed(key, version, Some(&value));
        version
    }))
}

/// A put's answer: the stored version, or a failed `cas`'s current one.
fn stored(put: Result<u64, u64>) -> Response {
    match put {
        Ok(version) => Response::Stored { version },
        Err(current) => Response::CasFail { current },
    }
}

/// A delete's answer: the tombstone's version, or the key was absent.
fn deleted(gone: Option<u64>) -> Response {
    match gone {
        Some(version) => Response::Deleted { version },
        None => Response::NotFound,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::router::key_bytes;
    use crate::service::{ring_mesh, KvClient};
    use crate::step::{block_on, play, until};
    use crate::wire::MAX_VALUE_LEN;
    use core::pin::pin;
    use ssync_kv::KvStore;
    use ssync_locks::TicketLock;
    use ssync_mp::MsgSender;
    use std::time::Duration;

    /// Runs `body` on a thread of its own and returns its result, failing
    /// the test once `secs` pass first: a body whose actors wait on each
    /// other fails instead of hanging the suite.
    pub(crate) fn within<T: Send + 'static>(
        secs: u64,
        body: impl FnOnce() -> T + Send + 'static,
    ) -> T {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || done_tx.send(body()));
        done_rx
            .recv_timeout(Duration::from_secs(secs))
            .expect("the body did not finish by its deadline")
    }

    /// A node holds its store's writer claim from its first turn to its
    /// exit: meanwhile a write from any other thread panics.
    #[test]
    #[cfg(all(debug_assertions, not(ssync_chk)))]
    fn a_node_holds_its_stores_writer_claim_until_it_exits() {
        let store: KvStore<TicketLock> = KvStore::new(64, 8);
        let (mut endpoints, mut clients) = ring_mesh(1, 1, 4);
        let client = clients.pop().unwrap();
        let mut core = NodeCore::new(endpoints.pop().unwrap());
        let elsewhere = || {
            let set = || store.set(&key_bytes(1), b"v");
            std::thread::scope(|s| s.spawn(set).join().is_ok())
        };
        assert!(elsewhere(), "unclaimed before the node's first turn");
        assert_eq!(core.turn(&store, &mut NoHooks), Turn::Idle);
        assert!(!elsewhere(), "claimed while the node runs");
        block_on(client.send_stop());
        while core.turn(&store, &mut NoHooks) != Turn::Exit {}
        assert!(elsewhere(), "released once it exited");
    }

    /// A plain node answers a write at the store's decision, before the
    /// store builds the item, yet a direct read of the store made as
    /// soon as the reply arrives sees the write: the reply leaves inside
    /// the stripe's write section, so the read waits for it. 10 000
    /// writes — sets, matched and stale `cas`es, deletes — from a client
    /// thread, each read back from the store and its stats.
    #[test]
    fn a_direct_read_after_a_writes_reply_sees_the_write() {
        within(120, || {
            let store: KvStore<TicketLock> = KvStore::new(64, 8);
            let (mut endpoints, mut clients) = ring_mesh(1, 1, 64);
            let (client, endpoint) = (clients.pop().unwrap(), endpoints.pop().unwrap());
            let stored = key_bytes(7);
            std::thread::scope(|s| {
                s.spawn(|| crate::service::serve(&store, endpoint));
                let (mut sets, mut cas_failures, mut deletes) = (0, 0, 0);
                for i in 0..10_000u64 {
                    let value = i.to_le_bytes().to_vec();
                    let held = match i % 4 {
                        0 => Some(client.set(7, value.clone()).unwrap()),
                        1 => {
                            let current = store.version(&stored).unwrap();
                            Some(client.cas(7, value.clone(), current).unwrap().unwrap())
                        }
                        2 => {
                            let current = store.version(&stored).unwrap();
                            let failed = client.cas(7, value.clone(), current + 1).unwrap();
                            assert_eq!(failed, Err(current), "write {i}");
                            cas_failures += 1;
                            continue;
                        }
                        _ => {
                            assert!(client.delete(7).unwrap().is_some(), "write {i}");
                            None
                        }
                    };
                    let seen = store.get_with_version(&stored);
                    match held {
                        Some(version) => {
                            sets += 1;
                            let seen = seen.map(|(at, v)| (at, v.to_vec()));
                            assert_eq!(seen, Some((version, value)), "write {i}");
                        }
                        None => {
                            deletes += 1;
                            assert!(seen.is_none(), "write {i}: the deleted key reads {seen:?}");
                        }
                    }
                    let snap = store.stats_snapshot();
                    let counted = (snap.sets, snap.cas_failures, snap.deletes);
                    assert_eq!(counted, (sets, cas_failures, deletes), "write {i}");
                }
                client.close();
            });
        });
    }

    /// Hooks that observe writes, owing one reply at a time.
    struct Owing<'a> {
        /// The client's reply ring, watched from `committed`.
        replies: &'a ssync_mp::RingReceiver,
        committed: Vec<(u64, u64)>,
        owed: bool,
    }

    impl Hooks for Owing<'_> {
        fn observes_writes(&self) -> bool {
            true
        }

        fn committed(&mut self, key: u64, version: u64, _value: Option<&Bytes>) {
            assert!(
                !self.replies.has_message(),
                "the reply left before committed"
            );
            self.committed.push((key, version));
            self.owed = true;
        }

        fn reply_owed(&mut self) -> bool {
            self.owed
        }
    }

    /// A stack that observes writes keeps the order it had before
    /// unobserved writes were answered at the decision: `committed`,
    /// then `reply_owed`, then the reply — held across turns while it is
    /// owed, and sent by the turn that releases it.
    #[test]
    fn an_observed_write_is_committed_before_its_owed_reply_leaves() {
        let store: KvStore<TicketLock> = KvStore::new(64, 8);
        let (mut endpoints, mut clients) = ring_mesh(1, 1, 64);
        let client = clients.pop().unwrap();
        let conn = client.conn(0);
        let mut core = NodeCore::new(endpoints.pop().unwrap());
        let mut hooks = Owing {
            replies: &conn.rx,
            committed: Vec::new(),
            owed: false,
        };
        let writes = [
            Request::Set {
                key: 7,
                value: b"v".to_vec(),
            },
            Request::Delete { key: 7 },
        ];
        for (n, request) in writes.iter().enumerate() {
            block_on(conn.send(request)).unwrap();
            for _ in 0..3 {
                core.turn(&store, &mut hooks);
            }
            assert_eq!(
                hooks.committed.len(),
                n + 1,
                "{request:?} was not committed"
            );
            assert!(!conn.rx.has_message(), "an owed reply left");
            hooks.owed = false;
            assert_eq!(core.turn(&store, &mut hooks), Turn::Progress);
            let (key, version) = hooks.committed[n];
            let expect = match request {
                Request::Set { .. } => Response::Stored { version },
                _ => Response::Deleted { version },
            };
            assert_eq!((key, block_on(conn.recv())), (7, Ok(expect)));
        }
    }

    /// One request, one reply: a plain node answers every request a
    /// client can send with exactly one response — the replication
    /// requests with one `Malformed` each — and `Stop` with none. A head
    /// frame of the retired multi-get opcode gets one `Malformed`, though
    /// its second byte claims three keys and words 1..=3 carry them.
    #[test]
    fn every_request_is_answered_by_exactly_one_response() {
        let store: KvStore<TicketLock> = KvStore::new(64, 8);
        let (mut endpoints, mut clients) = ring_mesh(1, 1, 256);
        let client = clients.pop().unwrap();
        let conn = client.conn(0);
        let mut core = NodeCore::new(endpoints.pop().unwrap());
        let mut answers = || {
            while core.turn(&store, &mut NoHooks) == Turn::Progress {}
            let mut got = Vec::new();
            while conn.rx.has_message() {
                got.push(block_on(conn.recv()).unwrap());
            }
            got
        };
        let value = vec![0x5A; MAX_VALUE_LEN];
        let (key, version) = (7, 1);
        let requests = [
            Request::Get { key },
            Request::Set {
                key,
                value: value.clone(),
            },
            Request::Cas {
                key,
                expected: version,
                value: value.clone(),
            },
            Request::TimedGet { key, stamp: 0 },
            Request::Delete { key },
            Request::Replicate {
                key,
                version,
                value,
            },
            Request::ReplicateDelete { key, version },
            Request::ReplGet { key, floor: 0 },
            Request::Stats,
        ];
        for request in &requests {
            block_on(conn.send(request)).unwrap();
            let got = answers();
            assert_eq!(got.len(), 1, "{request:?} was answered {got:?}");
        }
        conn.tx.send([2 | 3 << 8, 1, 2, 3, 0, 0, 0]);
        assert_eq!(answers(), [Response::Malformed]);
        block_on(conn.send(&Request::Stop)).unwrap();
        assert_eq!(answers(), []);
        assert_eq!((core.counts.requests, core.counts.malformed), (9, 4));
    }

    /// A client stalled halfway through publishing a request holds up
    /// only itself: the node keeps its partial request aside and serves
    /// the other clients meanwhile, and applies the request once the
    /// client resumes.
    #[test]
    fn a_stalled_partial_request_holds_up_no_other_client() {
        let store: KvStore<TicketLock> = KvStore::new(64, 8);
        let (mut endpoints, mut clients) = ring_mesh(1, 2, 4);
        let (b, a) = (clients.pop().unwrap(), clients.pop().unwrap());
        let value = vec![0x5A; MAX_VALUE_LEN];
        let frames = Request::Set {
            key: 7,
            value: value.clone(),
        }
        .encode();
        assert_eq!(frames.len(), 19);
        let mut core = NodeCore::new(endpoints.pop().unwrap());
        let a_tx = &a.conn(0).tx;
        let mut sent = a_tx.try_send_burst(&frames);
        block_on(b.conn(0).send(&Request::Get { key: 9 })).unwrap();
        for _ in 0..2 {
            core.turn(&store, &mut NoHooks);
        }
        assert!(
            b.conn(0).rx.has_message(),
            "a stalled client's partial request held up another client's Get"
        );
        assert_eq!(block_on(b.conn(0).recv()), Ok(Response::Miss));
        while sent < frames.len() {
            core.turn(&store, &mut NoHooks);
            sent += a_tx.try_send_burst(&frames[sent..]);
        }
        core.turn(&store, &mut NoHooks);
        let Ok(Response::Stored { version }) = block_on(a.conn(0).recv()) else {
            panic!("the resumed Set was not stored");
        };
        let held = store.get_with_version(&key_bytes(7));
        assert_eq!(held.map(|(at, v)| (at, v.to_vec())), Some((version, value)));
        assert_eq!((core.counts.requests, core.counts.malformed), (2, 0));
    }

    /// A request longer than its ring crosses it while the client and
    /// the node take turns on one thread: each turn takes the frames
    /// published so far and the next resumes the request, instead of
    /// waiting for the rest — which the client can only send once the
    /// node has made room.
    #[test]
    fn a_request_longer_than_its_ring_is_resumed_across_turns() {
        let store: KvStore<TicketLock> = KvStore::new(64, 8);
        let (mut endpoints, mut clients) = ring_mesh(1, 1, 4);
        let client = clients.pop().unwrap();
        let value = vec![0x5A; MAX_VALUE_LEN];
        let set = Request::Set {
            key: 7,
            value: value.clone(),
        };
        assert_eq!(set.encode().len(), 19);
        let mut node = (NodeCore::new(endpoints.pop().unwrap()), &store, NoHooks);
        let mut answer = None;
        {
            let mut ops = pin!(async {
                answer = Some(client.exchange(7, &set).await);
                client.send_stop().await;
            });
            assert!(play(&mut [&mut ops, &mut node], &[], 64));
        }
        let Some(Ok(Response::Stored { version })) = answer else {
            panic!("the Set was answered {answer:?}");
        };
        let held = store.get_with_version(&key_bytes(7));
        assert_eq!(held.map(|(at, v)| (at, v.to_vec())), Some((version, value)));
        assert_eq!((node.0.counts.requests, node.0.counts.malformed), (1, 0));
    }

    /// The mirror of the request-side test above: a 1 KiB value's reply
    /// is 19 frames over a 4-slot ring, and the one thread that runs the
    /// node also runs its client. The turn that serves the read sends
    /// what the ring has room for and queues the rest, and the next
    /// turns send more as the client takes frames, instead of waiting
    /// for room only the client can make.
    #[test]
    fn a_reply_longer_than_its_ring_is_resumed_across_turns() {
        let (answer, counts) = within(60, || {
            let store: KvStore<TicketLock> = KvStore::new(64, 8);
            let value = vec![0x5A; MAX_VALUE_LEN];
            let version = store.set(&key_bytes(7), &value);
            let reply = Response::Value { version, value };
            assert_eq!(reply.encode().len(), 19);
            let (mut endpoints, mut clients) = ring_mesh(1, 1, 4);
            let client = clients.pop().unwrap();
            let mut node = (NodeCore::new(endpoints.pop().unwrap()), &store, NoHooks);
            let mut answer = None;
            {
                let mut ops = pin!(async {
                    answer = Some(client.exchange(7, &Request::Get { key: 7 }).await);
                    client.send_stop().await;
                });
                assert!(play(&mut [&mut ops, &mut node], &[], 64));
            }
            (answer.map(|got| got == Ok(reply)), node.0.counts)
        });
        assert_eq!(answer, Some(true), "the 19-frame reply arrived whole");
        assert_eq!((counts.requests, counts.malformed), (1, 0));
    }

    /// A client that drops its connection while the rest of a reply is
    /// queued for it is gone both ways: the node drops the queue,
    /// retires the client as a `Stop` would, and exits once the other
    /// client has stopped — nobody is left to make room on that ring.
    #[test]
    fn a_client_gone_with_its_reply_queued_is_retired() {
        let counts = within(60, || {
            let store: KvStore<TicketLock> = KvStore::new(64, 8);
            store.set(&key_bytes(7), [0x5A; MAX_VALUE_LEN]);
            let (mut endpoints, mut clients) = ring_mesh(1, 2, 4);
            let (b, a) = (clients.pop().unwrap(), clients.pop().unwrap());
            let mut node = (NodeCore::new(endpoints.pop().unwrap()), &store, NoHooks);
            let mut gone = pin!(async move {
                a.conn(0).send(&Request::Get { key: 7 }).await.unwrap();
                until(|| a.conn(0).rx.has_message().then_some(())).await;
                drop(a);
            });
            let mut stays = pin!(async {
                assert_eq!(
                    b.exchange(9, &Request::Get { key: 9 }).await,
                    Ok(Response::Miss)
                );
                b.send_stop().await;
            });
            assert!(play(&mut [&mut gone, &mut stays, &mut node], &[], 64));
            node.0.counts
        });
        assert_eq!((counts.requests, counts.malformed), (2, 0));
    }
}
