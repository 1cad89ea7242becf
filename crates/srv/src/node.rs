//! The one request path: the policy-free node core under every serve
//! loop.
//!
//! [`NodeCore`] owns what `serve`, `ssync-repl`'s `serve_node` and
//! `ssync-cluster`'s `serve_cluster_node` have in common: polling the
//! client hub and pulling a request's continuation frames, the
//! `Malformed` replies, per-client `Stop` accounting (a client that
//! goes away without one is retired from the idle path), the
//! reclamation cadence, the `TimedGet` latency split, the `Stats`
//! scrape, and one executor for the six data operations. What differs between the
//! stacks enters through the two [`Hooks`]: `admit` decides per key
//! whether this node may run the operation (always, for a plain shard;
//! the slot fence, for a cluster node), `committed` sees every delete
//! the store accepted and every put the hooks asked to observe (the
//! cluster's op-log while a migration has it armed, the replication
//! stream). Both are generic parameters — the plain shard's
//! [`NoHooks`] compiles to the bare store calls.

use std::sync::Arc;

use bytes::Bytes;

use ssync_core::stats::{mono_ns, Histogram, Registry};
use ssync_core::ParkingWait;
use ssync_kv::KvStore;
use ssync_locks::RawLock;
use ssync_mp::{Message, MsgReceiver, MsgSender, ServerHub};

use crate::router::key_bytes;
use crate::service::{ServeReport, ServerEndpoint};
use crate::wire::{encode_value, replay, Request, Response};

/// An admission verdict for one key of one request.
#[derive(Debug)]
pub enum Admit {
    /// Execute here.
    Run,
    /// Execute nothing; answer with this response instead.
    Refuse(Response),
    /// Park the request and hand it back to the serve loop, which
    /// re-submits it later. Honoured for writes only: a read has
    /// nowhere to park mid-batch, so it runs.
    Defer,
}

/// The two points where a serving stack's policy meets the request
/// path.
pub trait Hooks {
    /// May this node run the operation on `key` now?
    fn admit(&mut self, key: u64, is_write: bool) -> Admit;

    /// Does [`Hooks::committed`] want the value of the put about to
    /// run? Asked once per admitted `Set`/`Cas`. A yes makes the store
    /// hand back a handle on the stored value (one reference-count
    /// round trip); a no skips `committed` for that put.
    fn observes_writes(&self) -> bool;

    /// The store accepted a write of `key` at `version`: `Some(value)`
    /// for a put [`Hooks::observes_writes`] asked for, `None` for a
    /// delete (reported always). Called before the reply is sent.
    fn committed(&mut self, key: u64, version: u64, value: Option<&Bytes>);
}

/// The plain shard server's policy: admit everything, observe nothing.
pub struct NoHooks;

impl Hooks for NoHooks {
    fn admit(&mut self, _key: u64, _is_write: bool) -> Admit {
        Admit::Run
    }

    fn observes_writes(&self) -> bool {
        false
    }

    fn committed(&mut self, _key: u64, _version: u64, _value: Option<&Bytes>) {}
}

/// What one [`NodeCore::poll`] found.
#[derive(Debug)]
pub enum Poll {
    /// No client had a frame waiting.
    Idle,
    /// A frame arrived and the core dealt with it (an undecodable head,
    /// a `Stop`).
    Consumed,
    /// `client` asked for a `Stats` scrape: answer with
    /// [`NodeCore::reply_stats`].
    Scrape(usize),
    /// `client` sent this request: answer through
    /// [`NodeCore::serve`] (or [`NodeCore::reply`], to refuse it).
    Request(usize, Request),
}

/// One epoch advance-and-collect pass per this many progressed loop
/// turns: a long-lived node frees its retired store nodes while traffic
/// flows — no quiescent point, bounded backlog.
const RECLAIM_PERIOD: u64 = 1024;

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
    /// Requests, key-operations and refused frames so far.
    pub counts: ServeReport,
}

// The per-request methods carry `#[inline]`: each has one or two call
// sites, in a serve loop, and left out of line they cost the plain
// shard a measurable share of its request budget (EXPERIMENTS.md).
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
            counts: ServeReport::default(),
        }
    }

    /// Clients that have not sent `Stop` yet.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Sends one response to `client` through the scratch frame buffer.
    #[inline]
    pub fn reply(&mut self, client: usize, response: &Response) {
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

    /// Polls every client once, round-robin. The continuation frames a
    /// head announces ([`Request::continuations`]) are taken from the
    /// same client as one burst before decoding. A head frame that fails
    /// to decode is answered with [`Response::Malformed`] — a corrupt
    /// frame degrades one connection, it does not take the node down.
    /// A client's first `Stop` retires it; a repeated one is counted as
    /// malformed and not answered (nobody drains that reply ring). A
    /// client that went away between a head frame and its continuations
    /// is the same two things at once: the truncated request is counted
    /// malformed, the client retired, nothing executed or answered.
    #[inline]
    pub fn poll(&mut self) -> Poll {
        let Some((client, head)) = self.hub.try_recv_from_any() else {
            return Poll::Idle;
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
            return Poll::Consumed;
        }
        match Request::decode(head, replay(&self.frames[..more])) {
            Err(_) => {
                self.counts.malformed += 1;
                self.reply(client, &Response::Malformed);
                Poll::Consumed
            }
            Ok(Request::Stop) => {
                if !self.retire(client) {
                    self.counts.malformed += 1;
                }
                Poll::Consumed
            }
            Ok(request) => {
                self.counts.requests += 1;
                match request {
                    Request::Stats => Poll::Scrape(client),
                    request => Poll::Request(client, request),
                }
            }
        }
    }

    /// End-of-turn bookkeeping: a turn that made progress re-arms the
    /// idle wait and advances the reclamation cadence; an idle one
    /// waits with [`ParkingWait`], so a node that sits idle for a whole
    /// phase leaves the run queue instead of yield-looping.
    ///
    /// A node idle long enough to park also looks for clients that
    /// went away without a `Stop` — a panicked test body, a dropped
    /// connection — and retires each exactly as its first `Stop` would
    /// have: without this the node waits forever for a `Stop` nobody
    /// is left to send. A silent departure is not a malformed frame
    /// and is not counted as one. A node merely between requests never
    /// parks, so no request pays for the sweep.
    #[inline]
    pub fn pace<R: RawLock + Default>(&mut self, store: &KvStore<R>, progressed: bool) {
        if !progressed {
            if self.wait.parked() {
                self.retire_departed();
            }
            return self.wait.snooze();
        }
        self.wait.reset();
        self.since_reclaim += 1;
        if self.since_reclaim >= RECLAIM_PERIOD {
            self.since_reclaim = 0;
            store.reclaim_pass();
        }
    }

    /// Answers a `Stats` scrape: the latency-split histograms, the
    /// core's own counters, the caller's `node` counters and the
    /// store's — assembled only when asked for, without pausing service.
    pub fn reply_stats<R: RawLock + Default>(
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
    /// everything else. Returns the request back, nothing executed and
    /// nothing replied, when `hooks` deferred its write. Anything that
    /// is not a data operation is out of protocol on a client channel:
    /// refused with [`Response::Malformed`] and counted.
    #[inline]
    pub fn serve<R: RawLock + Default, H: Hooks>(
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
                self.reply(client, &response);
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
