//! One client connection: the layer under every service client.
//!
//! A [`Conn`] is a request sender, a reply receiver and a scratch
//! frame buffer, so an exchange allocates nothing for its frames: a
//! request is encoded into it and sent as one burst, a reply's
//! continuation frames are received into it as one burst. Every
//! leg is *connected*: a peer whose thread is gone surfaces as
//! [`WireError::Disconnected`] — on the send, on a reply's head frame,
//! and on its continuation frames (a node that died mid-reply) — never
//! as a hang. Replies are interpreted by the typed decoders on
//! [`Response`] (`into_read`, `into_stored`, …).
//!
//! Beside it lives the one retry layer: [`chase`] runs a request
//! against the node a [`Chase`] policy picks until a reply answers it,
//! an error that cannot be retried arrives, or the operation's retry
//! budget, a [`RetryPacer`], is spent. `ServiceClient` routes
//! statically and never retries; `ssync-repl`'s `ReplClient` chases the
//! shard leader and `ssync-cluster`'s `ClusterClient` the key's owner,
//! each as a policy over this one loop. And the one batching step:
//! [`batch_rounds`] groups a multi-get's keys by shard and cuts them
//! into rounds of one chunk per shard, which `ServiceClient` and
//! `ReplClient` each send and drain their own way.

use core::cell::RefCell;
use core::time::Duration;

use ssync_core::RetryPacer;
use ssync_mp::{Message, MsgReceiver, MsgSender, RingReceiver, RingSender};

use crate::router::shard_of;
use crate::wire::{replay, Request, Response, WireError};

/// One `(request sender, reply receiver)` pair to one server. The
/// halves are public: raw frames can be put on (or taken off) the
/// rings directly, which is how tests inject corrupt traffic.
pub struct Conn<S: MsgSender = RingSender, C: MsgReceiver = RingReceiver> {
    /// The request channel's sending half.
    pub tx: S,
    /// The reply channel's receiving half.
    pub rx: C,
    frames: RefCell<Vec<Message>>,
}

impl<S: MsgSender, C: MsgReceiver> Conn<S, C> {
    /// Wraps one channel pair.
    pub fn new(tx: S, rx: C) -> Self {
        Conn {
            tx,
            rx,
            frames: RefCell::new(Vec::new()),
        }
    }

    /// Encodes `request` into the scratch buffer and sends every frame.
    ///
    /// # Errors
    ///
    /// [`WireError::ValueTooLong`] for a value the format cannot carry —
    /// refused before any frame reaches the ring, so the connection
    /// stays usable; [`WireError::Disconnected`] if the server's
    /// receive half is gone.
    pub fn send(&self, request: &Request) -> Result<(), WireError> {
        let mut frames = self.frames.borrow_mut();
        request.try_encode_into(&mut frames)?;
        self.tx
            .send_all_connected(&frames)
            .map_err(|_| WireError::Disconnected)
    }

    /// Blocks for the next response.
    ///
    /// # Errors
    ///
    /// [`WireError::Disconnected`] once the server is gone and its
    /// surviving backlog is drained; a decode error on a corrupt head.
    pub fn recv(&self) -> Result<Response, WireError> {
        let head = self
            .rx
            .recv_connected()
            .map_err(|_| WireError::Disconnected)?;
        self.finish(head)
    }

    /// One blocking round trip: [`Conn::send`], then [`Conn::recv`].
    ///
    /// # Errors
    ///
    /// As for the two legs.
    pub fn call(&self, request: &Request) -> Result<Response, WireError> {
        self.send(request)?;
        self.recv()
    }

    /// Decodes the response `head` starts, taking its continuation
    /// frames as one connected burst into the scratch buffer first.
    fn finish(&self, head: Message) -> Result<Response, WireError> {
        let more = Response::continuations(&head);
        let mut frames = self.frames.borrow_mut();
        if more > 0 {
            self.rx
                .recv_burst_connected(more, &mut frames)
                .map_err(|_| WireError::Disconnected)?;
        }
        Response::decode(head, replay(&frames[..more]))
    }
}

/// The retry budget of one operation where the client sets none.
pub const OP_BUDGET: Duration = Duration::from_secs(5);

/// Where a [`chase`] sends its request, and which of the replies and
/// errors that do not answer it are retried.
pub trait Chase {
    /// The node to ask and its connection, or `None` while there is
    /// nobody to ask: the chase then waits one pause and asks again.
    fn pick(&self) -> Option<(usize, &Conn)>;

    /// True if `response` is a bounce the policy has adopted
    /// (`WrongLeader`, `WrongShard`): retried at once.
    fn redirected(&self, response: &Response) -> bool;

    /// True if a [`WireError::Disconnected`] from `node` is retried,
    /// after a pause: only where the request provably never executed.
    fn lost(&self, node: usize) -> bool;
}

/// Runs `request` against the node `policy` picks until a reply
/// answers it, and returns that node with the reply.
///
/// # Errors
///
/// An error `policy` does not retry, as it arrives. Once `budget` is
/// spent: [`WireError::Disconnected`] if a lost node was retried, else
/// [`WireError::Deadline`].
pub fn chase(
    policy: &impl Chase,
    request: &Request,
    budget: &mut RetryPacer,
) -> Result<(usize, Response), WireError> {
    let mut spent = WireError::Deadline;
    loop {
        let Some((node, conn)) = policy.pick() else {
            if !budget.pause() {
                return Err(spent);
            }
            continue;
        };
        match conn.call(request) {
            Err(WireError::Disconnected) if policy.lost(node) => {
                spent = WireError::Disconnected;
                if !budget.pause() {
                    return Err(spent);
                }
            }
            Err(e) => return Err(e),
            Ok(response) if policy.redirected(&response) => {
                if budget.expired() {
                    return Err(spent);
                }
            }
            Ok(response) => return Ok((node, response)),
        }
    }
}

/// The batching step of a client's `get_many`: groups the positions of
/// `keys` by the shard each key routes to among `shards`, then calls
/// `round` once per round with one chunk per shard, indexed by shard:
/// that shard's next (at most) `chunk` positions, in input order, or
/// none once its positions are spent. No round is empty, and an empty
/// `keys` makes none.
///
/// # Errors
///
/// The first error `round` returns; no later round runs.
pub fn batch_rounds(
    keys: &[u64],
    shards: usize,
    chunk: usize,
    mut round: impl FnMut(&[&[usize]]) -> Result<(), WireError>,
) -> Result<(), WireError> {
    let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); shards];
    for (pos, &key) in keys.iter().enumerate() {
        by_shard[shard_of(key, shards)].push(pos);
    }
    let rounds = by_shard
        .iter()
        .map(|positions| positions.len().div_ceil(chunk))
        .max()
        .unwrap_or(0);
    for r in 0..rounds {
        let chunks: Vec<&[usize]> = by_shard
            .iter()
            .map(|positions| positions.chunks(chunk).nth(r).unwrap_or(&[]))
            .collect();
        round(&chunks)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::MAX_VALUE_LEN;
    use ssync_mp::ring_channel;

    /// A server that dies after the head frame of a multi-frame value
    /// must surface as `Disconnected` on the blocking paths every
    /// client (the replication client included) reads replies through.
    #[test]
    fn peer_dropped_mid_value_is_disconnected_not_a_hang() {
        let reply = Response::Value {
            version: 3,
            value: vec![0xAB; 700],
        }
        .encode();
        assert!(reply.len() > 2, "the value must span continuation frames");
        for via_call in [false, true] {
            let (req_tx, req_rx) = ring_channel(8);
            let (rep_tx, rep_rx) = ring_channel(8);
            let conn = Conn::new(req_tx, rep_rx);
            rep_tx.send(reply[0]);
            rep_tx.send(reply[1]);
            drop(rep_tx);
            let got = if via_call {
                conn.call(&Request::Get { key: 1 })
            } else {
                conn.recv()
            };
            assert_eq!(got, Err(WireError::Disconnected));
            // The backlog is spent: the next read fails on the head.
            assert_eq!(conn.recv(), Err(WireError::Disconnected));
            drop(req_rx);
            assert_eq!(
                conn.send(&Request::Get { key: 1 }),
                Err(WireError::Disconnected)
            );
        }
    }

    /// Regression: an over-long value used to hit the encoder's
    /// `assert!` and take the calling thread down.
    #[test]
    fn oversized_value_is_refused_before_the_ring_and_the_conn_survives() {
        // Deep enough for a maximal value's 19 frames with no reader.
        let (req_tx, req_rx) = ring_channel(32);
        let (_rep_tx, rep_rx) = ring_channel(8);
        let conn = Conn::new(req_tx, rep_rx);
        let value = vec![7; MAX_VALUE_LEN + 1];
        let oversized = [
            Request::Set {
                key: 1,
                value: value.clone(),
            },
            Request::Cas {
                key: 1,
                expected: 2,
                value: value.clone(),
            },
            Request::Replicate {
                key: 1,
                version: 2,
                value,
            },
        ];
        for request in &oversized {
            let refused = Err(WireError::ValueTooLong(MAX_VALUE_LEN + 1));
            assert_eq!(conn.send(request), refused);
            assert_eq!(req_rx.try_recv(), None, "no frame may reach the ring");
        }
        let fits = Request::Set {
            key: 1,
            value: vec![7; MAX_VALUE_LEN],
        };
        assert_eq!(conn.send(&fits), Ok(()));
        let mut sent = std::iter::from_fn(|| req_rx.try_recv());
        let head = sent.next().expect("the head frame");
        let decoded = Request::decode(head, || sent.next().expect("a continuation"));
        assert_eq!(decoded, Ok(fits));
    }
}
