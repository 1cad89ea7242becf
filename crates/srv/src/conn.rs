//! One client connection: the layer under every service client.
//!
//! A [`Conn`] is a request sender, a reply receiver, a scratch frame
//! buffer and a reply decode, so an exchange allocates nothing for its
//! frames: a request is encoded into the buffer and sent in ring-sized
//! runs, a reply's continuation frames are taken into the
//! [`StreamDecoder`] in bursts. Each leg is a hand-written poll that
//! never blocks: [`Conn::send`] is pending while the request ring is
//! full, [`Conn::recv`] while the reply ring is empty or a reply's
//! continuation frames are not all published yet, and both resume
//! where they stopped on the next poll ([`crate::step`]).
//! Every leg is *connected*: a peer whose thread is gone surfaces as
//! [`WireError::Disconnected`] — on the send, on a reply's head frame,
//! and on its continuation frames (a node that died mid-reply) — never
//! as a hang. Replies are interpreted by the typed decoders on
//! [`Response`] (`into_read`, `into_stored`, …).
//!
//! Beside it lives the one retry layer, and the only client loop that
//! pauses: [`chase`] sends what a [`Chase`] policy picks until a reply
//! answers it, an error that cannot be retried arrives, or the
//! operation's retry budget, a [`RetryPacer`], is spent. `ServiceClient`
//! routes statically and never retries; `ssync-repl`'s `ReplClient`
//! reads a follower first and chases the shard leader, and
//! `ssync-cluster`'s `ClusterClient` the key's owner, each as a policy
//! over this one loop.

use core::cell::RefCell;
use core::future::{poll_fn, Future};
use core::task::Poll;
use core::time::Duration;

use ssync_core::clock::pending;
use ssync_core::RetryPacer;
use ssync_mp::{Message, MsgReceiver, MsgSender, RingReceiver, RingSender};

use crate::node::StreamDecoder;
use crate::wire::{Request, Response, WireError};

/// One `(request sender, reply receiver)` pair to one server. The
/// halves are public: raw frames can be put on (or taken off) the
/// rings directly, which is how tests inject corrupt traffic.
// Generic for `ServiceClient`: benchmark/src/driver.rs:18 spells its halves.
pub struct Conn<S: MsgSender = RingSender, C: MsgReceiver = RingReceiver> {
    /// The request channel's sending half.
    pub tx: S,
    /// The reply channel's receiving half.
    pub rx: C,
    frames: RefCell<Vec<Message>>,
    inbox: RefCell<StreamDecoder>,
}

impl<S: MsgSender, C: MsgReceiver> Conn<S, C> {
    /// Wraps one channel pair.
    pub fn new(tx: S, rx: C) -> Self {
        Conn {
            tx,
            rx,
            frames: RefCell::new(Vec::new()),
            inbox: RefCell::new(StreamDecoder::default()),
        }
    }

    /// Encodes `request` into the scratch buffer on the first poll and
    /// sends every frame, one [`MsgSender::try_send_burst`] run a poll
    /// (one space check), pending while the ring is full. The receive
    /// half's drop is checked before every run.
    ///
    /// # Errors
    ///
    /// [`WireError::ValueTooLong`] for a value the format cannot carry —
    /// refused before any frame reaches the ring, so the connection
    /// stays usable; [`WireError::Disconnected`] if the server's
    /// receive half is gone.
    pub fn send<'a>(
        &'a self,
        request: &'a Request,
    ) -> impl Future<Output = Result<(), WireError>> + 'a {
        let (mut first, mut sent) = (true, 0);
        poll_fn(move |_| {
            let mut frames = self.frames.borrow_mut();
            if first {
                request.try_encode_into(&mut frames)?;
            }
            if self.tx.receiver_closed() {
                return Poll::Ready(Err(WireError::Disconnected));
            }
            sent += self.tx.try_send_burst(&frames[sent..]);
            if sent == frames.len() {
                return Poll::Ready(Ok(()));
            }
            pending(&mut first)
        })
    }

    /// The next response, its continuation frames taken as they are
    /// published.
    ///
    /// # Errors
    ///
    /// [`WireError::Disconnected`] once the server is gone and its
    /// surviving backlog is drained; a decode error on a corrupt head.
    pub fn recv(&self) -> impl Future<Output = Result<Response, WireError>> + '_ {
        let (rx, mut first) = (&self.rx, true);
        poll_fn(move |_| {
            let mut inbox = self.inbox.borrow_mut();
            match inbox.try_recv_response(rx) {
                Some(response) => Poll::Ready(response),
                // Final drain: the server may have published the rest
                // between the failed poll and its drop.
                None if rx.sender_closed() => Poll::Ready(
                    inbox
                        .try_recv_response(rx)
                        .unwrap_or(Err(WireError::Disconnected)),
                ),
                None => pending(&mut first),
            }
        })
    }

    /// One round trip: [`Conn::send`], then [`Conn::recv`].
    ///
    /// # Errors
    ///
    /// As for the two legs.
    pub async fn call(&self, request: &Request) -> Result<Response, WireError> {
        self.send(request).await?;
        self.recv().await
    }
}

/// The retry budget of one operation where the client sets none.
pub const OP_BUDGET: Duration = Duration::from_secs(5);

/// What a [`chase`] sends where, and which of the replies and errors
/// that do not answer it are retried.
pub trait Chase {
    /// The connection to the node to ask and the request for that node,
    /// or `None` while there is nobody to ask: the chase then waits one
    /// pause and asks again.
    fn pick(&self) -> Option<(&Conn, &Request)>;

    /// True if `response` is a bounce the policy has adopted
    /// (`WrongLeader`, `WrongShard`, a follower's `Stale`): retried at
    /// once.
    fn redirected(&self, response: &Response) -> bool;

    /// True if a [`WireError::Disconnected`] from the node picked last is
    /// retried, after a pause: only where the request provably never
    /// executed.
    fn lost(&self) -> bool;
}

/// Sends what `policy` picks until a reply answers it, and returns the
/// reply.
///
/// # Errors
///
/// An error `policy` does not retry, as it arrives. Once `budget` is
/// spent: [`WireError::Disconnected`] if a lost node was retried, else
/// [`WireError::Deadline`].
pub async fn chase(policy: &impl Chase, budget: &mut RetryPacer) -> Result<Response, WireError> {
    let mut spent = WireError::Deadline;
    loop {
        let Some((conn, request)) = policy.pick() else {
            if !budget.pause().await {
                return Err(spent);
            }
            continue;
        };
        match conn.call(request).await {
            Err(WireError::Disconnected) if policy.lost() => {
                spent = WireError::Disconnected;
                if !budget.pause().await {
                    return Err(spent);
                }
            }
            Err(e) => return Err(e),
            Ok(response) if policy.redirected(&response) => {
                if budget.expired() {
                    return Err(spent);
                }
            }
            Ok(response) => return Ok(response),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::block_on;
    use crate::wire::MAX_VALUE_LEN;
    use core::future::Future;
    use core::pin::{pin, Pin};
    use core::task::{Context, Poll, Waker};
    use ssync_mp::ring_channel;

    fn poll<T>(leg: Pin<&mut impl Future<Output = T>>) -> Poll<T> {
        leg.poll(&mut Context::from_waker(Waker::noop()))
    }

    /// A server that dies after the head frame of a multi-frame value
    /// must surface as `Disconnected` on the paths every client (the
    /// replication client included) reads replies through: blocking,
    /// and stepped, where the leg is pending on the half-published
    /// value until the server is gone.
    #[test]
    fn peer_dropped_mid_value_is_disconnected_not_a_hang() {
        let reply = Response::Value {
            version: 3,
            value: vec![0xAB; 700],
        }
        .encode();
        assert!(reply.len() > 2, "the value must span continuation frames");
        for (via_call, stepped) in [(false, false), (true, false), (false, true), (true, true)] {
            let (req_tx, req_rx) = ring_channel(8);
            let (rep_tx, rep_rx) = ring_channel(8);
            let conn = Conn::new(req_tx, rep_rx);
            rep_tx.send(reply[0]);
            rep_tx.send(reply[1]);
            let get = Request::Get { key: 1 };
            let mut leg = pin!(async {
                if via_call {
                    conn.call(&get).await
                } else {
                    conn.recv().await
                }
            });
            if stepped {
                assert_eq!(poll(leg.as_mut()), Poll::Pending);
            }
            drop(rep_tx);
            let got = if stepped {
                match poll(leg.as_mut()) {
                    Poll::Ready(got) => got,
                    Poll::Pending => panic!("a dead server left the leg pending"),
                }
            } else {
                block_on(leg)
            };
            assert_eq!(got, Err(WireError::Disconnected));
            // The backlog is spent: the next read fails on the head.
            assert_eq!(block_on(conn.recv()), Err(WireError::Disconnected));
            drop(req_rx);
            assert_eq!(
                block_on(conn.send(&Request::Get { key: 1 })),
                Err(WireError::Disconnected)
            );
        }
    }

    /// A stepped call never waits: a request larger than the ring goes
    /// out one run a poll as the reader makes room, losing no frame;
    /// the call is then pending on an empty reply ring, and again on
    /// a half-published 11-frame reply, and returns the decoded reply
    /// once the rest is published.
    #[test]
    fn a_stepped_call_is_pending_until_its_frames_are_published() {
        const DEPTH: usize = 4;
        let (req_tx, req_rx) = ring_channel(DEPTH);
        let (rep_tx, rep_rx) = ring_channel(16);
        let conn = Conn::new(req_tx, rep_rx);
        let request = Request::Set {
            key: 3,
            value: vec![5; 500],
        };
        let frames = request.encode();
        assert!(
            frames.len() > 2 * DEPTH,
            "the request must outgrow the ring"
        );
        let value_len = (1..MAX_VALUE_LEN).find(|&n| {
            let value = vec![0; n];
            Response::Value { version: 9, value }.encode().len() == 11
        });
        let reply = Response::Value {
            version: 9,
            value: vec![0xCD; value_len.unwrap()],
        };
        let reply_frames = reply.encode();
        let mut call = pin!(conn.call(&request));
        let mut sent = Vec::new();
        while sent.len() < frames.len() {
            assert_eq!(poll(call.as_mut()), Poll::Pending);
            let run: Vec<_> = std::iter::from_fn(|| req_rx.try_recv()).collect();
            assert!((1..=DEPTH).contains(&run.len()), "one run a poll");
            sent.extend(run);
        }
        assert_eq!(sent, frames);
        assert_eq!(poll(call.as_mut()), Poll::Pending, "an empty reply ring");
        for &frame in &reply_frames[..6] {
            rep_tx.send(frame);
        }
        assert_eq!(poll(call.as_mut()), Poll::Pending, "a half-published reply");
        for &frame in &reply_frames[6..] {
            rep_tx.send(frame);
        }
        assert_eq!(poll(call.as_mut()), Poll::Ready(Ok(reply)));
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
            assert_eq!(block_on(conn.send(request)), refused);
            assert_eq!(req_rx.try_recv(), None, "no frame may reach the ring");
        }
        let fits = Request::Set {
            key: 1,
            value: vec![7; MAX_VALUE_LEN],
        };
        assert_eq!(block_on(conn.send(&fits)), Ok(()));
        let mut sent = std::iter::from_fn(|| req_rx.try_recv());
        let head = sent.next().expect("the head frame");
        let decoded = Request::decode(head, || sent.next().expect("a continuation"));
        assert_eq!(decoded, Ok(fits));
    }
}
