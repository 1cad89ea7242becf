//! The one node loop under every serving stack.
//!
//! [`NodeCore`] owns what `serve`, `ssync-repl`'s `serve_node` and
//! `ssync-cluster`'s `serve_cluster_node` have in common: polling the
//! client hub and pulling a request's continuation frames, the
//! `Malformed` replies, per-client `Stop` accounting (a client that
//! goes away without one is retired from the idle path), the
//! reclamation cadence and idle pacing, the `TimedGet` latency split,
//! the `Stats` scrape, one executor for the six data operations, and
//! holding a write's reply while a stack says it is owed.
//! [`NodeCore::turn`] is one pass of a node and [`NodeCore::run`] the
//! one loop over it; a stream a node reads besides its clients decodes
//! through a [`StreamDecoder`], resumed turn by turn. A serving stack
//! is one struct implementing [`Hooks`], whose every method defaults to
//! doing nothing; hooks are generic parameters, so the plain shard's
//! [`NoHooks`] compiles to the bare store calls.

use std::ops::ControlFlow;
use std::sync::Arc;

use bytes::Bytes;

use ssync_core::stats::{mono_ns, Histogram, Registry};
use ssync_core::{ParkingWait, SpinWait};
use ssync_kv::KvStore;
use ssync_locks::RawLock;
use ssync_mp::{Message, MsgReceiver, MsgSender, ServerHub};

use crate::router::key_bytes;
use crate::service::{ServeReport, ServerEndpoint};
use crate::wire::{encode_value, replay, Request, Response, WireError};

/// An admission verdict for one key of one request.
#[derive(Debug)]
pub enum Admit {
    /// Execute here.
    Run,
    /// Execute nothing; answer with this response instead.
    Refuse(Response),
    /// Park the request, unexecuted and unanswered; the core re-submits
    /// it every turn until it runs or is refused. Honoured for writes
    /// only: a read has nowhere to park mid-batch, so it runs.
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

/// Where a serving stack's policy meets the node loop: per key, what
/// may run and what a committed write feeds; per turn, the side work,
/// the gate, the exit and the scrape. Each default leaves the core alone.
pub trait Hooks {
    /// May this node run the operation on `key` now?
    fn admit(&mut self, _key: u64, _is_write: bool) -> Admit {
        Admit::Run
    }

    /// Does [`Hooks::committed`] want the value of the put about to
    /// run? Asked once per admitted `Set`/`Cas`; a yes costs the put a
    /// handle on the stored value (one reference-count round trip).
    fn observes_writes(&self) -> bool {
        false
    }

    /// The store accepted a write of `key` at `version`: `Some(value)`
    /// for a put [`Hooks::observes_writes`] asked for, `None` for a
    /// delete (reported always). Called before the reply is sent.
    fn committed(&mut self, _key: u64, _version: u64, _value: Option<&Bytes>) {}

    /// Is the reply to the write just executed still owed? Asked after
    /// every write, then once a turn while the core holds that reply —
    /// serving no other request meanwhile — until a turn's answer
    /// releases it. A stack that owes replies parks no writes
    /// ([`Admit::Defer`]): the core holds one reply at a time.
    fn reply_owed(&mut self) -> bool {
        false
    }

    /// The node's own work before the client poll, counting malformed
    /// frames in `counts`: `Continue(progressed)` goes on to the poll,
    /// `Break` ends the turn there.
    fn before_poll(&mut self, _counts: &mut ServeReport) -> ControlFlow<Turn, bool> {
        ControlFlow::Continue(false)
    }

    /// The request to execute, or the response that answers it
    /// unexecuted.
    fn gate(&mut self, request: Request) -> Result<Request, Response> {
        Ok(request)
    }

    /// A write [`Admit::Defer`] parked for the first time.
    fn deferred(&mut self) {}

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

/// One epoch advance-and-collect pass per this many progressed loop
/// turns: a long-lived node frees its retired store nodes while traffic
/// flows — no quiescent point, bounded backlog.
const RECLAIM_PERIOD: u64 = 1024;

/// One node-to-node stream's decode, resumable across turns: a message
/// whose continuation frames are not all published yet keeps its head
/// and the frames taken so far here, and costs its node a turn, not a
/// wait.
#[derive(Default)]
pub struct StreamDecoder {
    head: Option<Message>,
    frames: Vec<Message>,
}

impl StreamDecoder {
    /// The next whole message off `rx`, decoded: `None` while none is
    /// complete, `Err(Disconnected)` if the sender died before its last
    /// continuation.
    pub fn try_recv<C: MsgReceiver>(&mut self, rx: &C) -> Option<Result<Request, WireError>> {
        if self.head.is_none() {
            self.frames.clear();
            self.head = Some(rx.try_recv()?);
        }
        let head = self.head?;
        let whole = match rx.poll_burst(Request::continuations(&head), &mut self.frames) {
            Ok(false) => return None,
            Ok(true) => Request::decode(head, replay(&self.frames)),
            Err(_) => Err(WireError::Disconnected),
        };
        self.head = None;
        Some(whole)
    }
}

/// The shared serve-loop state of one node. See the module docs.
pub struct NodeCore<C: MsgReceiver, S: MsgSender> {
    hub: ServerHub<C>,
    replies: Vec<S>,
    frames: Vec<Message>,
    stopped: Vec<bool>,
    live: usize,
    since_reclaim: u64,
    wait: ParkingWait,
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
    /// Requests, key-operations and refused frames so far.
    counts: ServeReport,
}

// The per-request methods carry `#[inline]`: each has one call site, in
// the one turn, and left out of line they cost the plain shard a
// measurable share of its request budget (EXPERIMENTS.md).
impl<C: MsgReceiver, S: MsgSender> NodeCore<C, S> {
    /// A core serving `endpoint`'s clients.
    pub fn new(endpoint: ServerEndpoint<C, S>) -> Self {
        let ServerEndpoint { requests, replies } = endpoint;
        let registry = Registry::new();
        NodeCore {
            stopped: vec![false; requests.len()],
            live: requests.len(),
            hub: ServerHub::new(requests),
            replies,
            frames: Vec::new(),
            since_reclaim: 0,
            wait: ParkingWait::new(),
            queue_wait: registry.histogram("srv.queue_wait_ns"),
            apply: registry.histogram("srv.apply_ns"),
            registry,
            parked: Vec::new(),
            owed: None,
            counts: ServeReport::default(),
        }
    }

    /// Runs [`NodeCore::turn`] after turn until one exits, pacing each: a
    /// turn that made progress re-arms the idle wait and advances the
    /// reclamation cadence; an idle one waits with [`ParkingWait`], so a
    /// node that sits idle for a whole phase leaves the run queue
    /// instead of yield-looping.
    ///
    /// A node idle long enough to park also looks for clients that
    /// went away without a `Stop` — a panicked test body, a dropped
    /// connection — and retires each exactly as its first `Stop` would
    /// have: without this the node waits forever for a `Stop` nobody
    /// is left to send. A silent departure is not a malformed frame
    /// and is not counted as one. A node merely between requests never
    /// parks, so no request pays for the sweep.
    ///
    /// A node holding an owed reply is not idle: a client waits on it.
    /// Its idle turns wait with [`SpinWait`] — spin, then yield, never
    /// sleep or sweep.
    pub fn run<R: RawLock + Default, H: Hooks>(
        mut self,
        store: &KvStore<R>,
        hooks: &mut H,
    ) -> ServeReport {
        let mut owing = SpinWait::new();
        loop {
            match self.turn(store, hooks) {
                Turn::Exit => return self.counts,
                Turn::Idle if self.owed.is_some() => owing.snooze(),
                Turn::Idle if self.wait.parked() => {
                    self.retire_departed();
                    self.wait.snooze();
                }
                Turn::Idle => self.wait.snooze(),
                Turn::Progress => {
                    owing = SpinWait::new();
                    self.wait.reset();
                    self.since_reclaim += 1;
                    if self.since_reclaim >= RECLAIM_PERIOD {
                        self.since_reclaim = 0;
                        store.reclaim_pass();
                    }
                }
            }
        }
    }

    /// One pass of the node: `hooks`' side work, the parked writes
    /// re-submitted, one round-robin poll of the clients, and its
    /// dispatch. A turn whose poll finds nothing, once every client is
    /// gone, exits if `hooks` agrees. While a write's reply is owed
    /// ([`Hooks::reply_owed`]), a turn is the side work and the
    /// question only; the turn that releases the reply sends it and
    /// ends there.
    ///
    /// The continuation frames a head announces
    /// ([`Request::continuations`]) are taken from the same client as
    /// one burst before decoding. A head frame that fails to decode is
    /// answered with [`Response::Malformed`] — a corrupt frame degrades
    /// one connection, it does not take the node down. A client's first
    /// `Stop` retires it; a repeated one is counted as malformed and not
    /// answered (nobody drains that reply ring). A client that went away
    /// between a head frame and its continuations is the same two things
    /// at once: the truncated request is counted malformed, the client
    /// retired, nothing executed or answered.
    #[inline]
    pub fn turn<R: RawLock + Default, H: Hooks>(
        &mut self,
        store: &KvStore<R>,
        hooks: &mut H,
    ) -> Turn {
        let mut progressed = match hooks.before_poll(&mut self.counts) {
            ControlFlow::Break(turn) => return turn,
            ControlFlow::Continue(progressed) => progressed,
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
        let Some((client, head)) = self.hub.try_recv_from_any() else {
            return match progressed {
                _ if self.live == 0 && hooks.may_exit() => Turn::Exit,
                true => Turn::Progress,
                false => Turn::Idle,
            };
        };
        let more = Request::continuations(&head);
        if more > 0
            && self
                .hub
                .recv_burst_from(client, more, &mut self.frames)
                .is_err()
        {
            self.counts.malformed += 1;
            self.retire(client);
            return Turn::Progress;
        }
        match Request::decode(head, replay(&self.frames[..more])) {
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
                match hooks.gate(request) {
                    Err(response) => self.reply(client, &response),
                    Ok(request) => {
                        if let Some(request) = self.serve(store, hooks, client, request) {
                            hooks.deferred();
                            self.parked.push((client, request));
                        }
                    }
                }
            }
        }
        Turn::Progress
    }

    /// Sends one response to `client` through the scratch frame buffer.
    #[inline]
    fn reply(&mut self, client: usize, response: &Response) {
        response.encode_into(&mut self.frames);
        self.send_frames(client);
    }

    #[inline]
    fn send_frames(&mut self, client: usize) {
        self.replies[client].send_all(&self.frames);
    }

    /// Retires `client` as its first `Stop` does; false if it already
    /// was.
    fn retire(&mut self, client: usize) -> bool {
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
    fn reply_stats<R: RawLock + Default>(
        &mut self,
        client: usize,
        store: &KvStore<R>,
        node: &[(&str, u64)],
    ) {
        let mut snap = self.registry.snapshot();
        // The store-level snapshot, not the bare counter block: the
        // `reclaim_backlog` gauge rides along with the counters.
        let s = store.stats_snapshot();
        let own = [
            ("srv.requests", self.counts.requests),
            ("srv.key_ops", self.counts.key_ops),
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

    /// Executes one data request for `client` and replies: one response
    /// per key for a multi-get, in key order; exactly one for
    /// everything else, held while [`Hooks::reply_owed`] says so.
    /// Returns the request back, nothing executed and nothing replied,
    /// when `hooks` deferred its write. Anything that
    /// is not a data operation is out of protocol on a client channel:
    /// refused with [`Response::Malformed`] and counted.
    #[inline]
    fn serve<R: RawLock + Default, H: Hooks>(
        &mut self,
        store: &KvStore<R>,
        hooks: &mut H,
        client: usize,
        request: Request,
    ) -> Option<Request> {
        match request {
            Request::Get { key } => {
                self.read(store, hooks, key);
                self.send_frames(client);
            }
            Request::TimedGet { key, stamp } => {
                let t0 = mono_ns();
                self.queue_wait.record(t0.saturating_sub(stamp));
                self.read(store, hooks, key);
                self.apply.record(mono_ns().saturating_sub(t0));
                self.send_frames(client);
            }
            Request::MultiGet { keys } => {
                for key in keys {
                    self.read(store, hooks, key);
                    self.send_frames(client);
                }
            }
            Request::Set { key, .. } | Request::Cas { key, .. } | Request::Delete { key } => {
                let verdict = hooks.admit(key, true);
                if matches!(verdict, Admit::Defer) {
                    return Some(request);
                }
                self.counts.key_ops += 1;
                let response = match verdict {
                    Admit::Refuse(response) => response,
                    _ => write(store, hooks, request),
                };
                if hooks.reply_owed() {
                    debug_assert!(self.owed.is_none(), "one owed reply at a time");
                    self.owed = Some((client, response));
                } else {
                    self.reply(client, &response);
                }
            }
            _ => {
                self.counts.malformed += 1;
                self.reply(client, &Response::Malformed);
            }
        }
        None
    }

    /// Runs one read — admitted or refused; reads never park — and
    /// encodes its answer into the frame buffer. A hit is encoded
    /// straight from the stored item, borrowed under the read's own pin
    /// ([`KvStore::get_with`]): no handle, no reference-count round
    /// trip, and the value's one copy on this hop is into the frames.
    #[inline]
    fn read<R: RawLock + Default, H: Hooks>(
        &mut self,
        store: &KvStore<R>,
        hooks: &mut H,
        key: u64,
    ) {
        self.counts.key_ops += 1;
        if let Admit::Refuse(response) = hooks.admit(key, false) {
            return response.encode_into(&mut self.frames);
        }
        let frames = &mut self.frames;
        let hit = store.get_with(&key_bytes(key), |version, value| {
            encode_value(version, value, frames);
        });
        if hit.is_none() {
            Response::Miss.encode_into(&mut self.frames);
        }
    }
}

/// Applies one admitted write and reports it to `hooks`.
fn write<R: RawLock + Default, H: Hooks>(
    store: &KvStore<R>,
    hooks: &mut H,
    request: Request,
) -> Response {
    match request {
        Request::Set { key, value } => put(store, hooks, key, &value, None),
        Request::Cas {
            key,
            expected,
            value,
        } => put(store, hooks, key, &value, Some(expected)),
        Request::Delete { key } => match store.delete_versioned(&key_bytes(key)) {
            Some(version) => {
                hooks.committed(key, version, None);
                Response::Deleted { version }
            }
            None => Response::NotFound,
        },
        _ => unreachable!("serve hands only writes to write()"),
    }
}

/// Stores `value` — a `set`, or a `cas` against `expected` — copying the
/// decoded bytes once, into the new item. When `hooks` observes this
/// write, the store also hands back a handle on the stored value for
/// [`Hooks::committed`] to keep: the log shares the item's bytes.
fn put<R: RawLock + Default, H: Hooks>(
    store: &KvStore<R>,
    hooks: &mut H,
    key: u64,
    value: &[u8],
    expected: Option<u64>,
) -> Response {
    let stored_key = key_bytes(key);
    let outcome = if hooks.observes_writes() {
        let kept = match expected {
            None => Ok(store.set_shared(&stored_key, value)),
            Some(expected) => store.cas_shared(&stored_key, value, expected),
        };
        kept.map(|(version, value)| {
            hooks.committed(key, version, Some(&value));
            version
        })
    } else {
        match expected {
            None => Ok(store.set(&stored_key, value)),
            Some(expected) => store.cas(&stored_key, value, expected),
        }
    };
    match outcome {
        Ok(version) => Response::Stored { version },
        Err(current) => Response::CasFail { current },
    }
}
