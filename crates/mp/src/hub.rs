//! Client/server helpers: receive from any client or from a subset.
//!
//! `libssmp` provides server-side functions for receiving from any other
//! thread or from a chosen subset; [`ServerHub`] is the equivalent: it
//! owns one receive channel per client and scans them round-robin
//! (starting after the last served client, so no client starves). The
//! hub is generic over the channel flavour — the one-line
//! [`Receiver`] or the ring's [`crate::ring::RingReceiver`].

use ssync_core::{block_on, until};

use crate::channel::{Message, Receiver, Sender};
use crate::ring::{RingReceiver, RingSender};

/// Why a connection-aware receive gave up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// The sending half was dropped and the channel is fully drained:
    /// no message will ever arrive.
    Disconnected,
}

/// The receiving half's peer was dropped (connection-aware sends).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected;

/// The receive side a [`ServerHub`] can multiplex: anything with a
/// non-blocking poll, owned by whichever thread polls it.
pub trait MsgReceiver: Send {
    /// Attempts to receive without blocking.
    fn try_recv(&self) -> Option<Message>;

    /// True if the sending half has been dropped (messages may still
    /// be queued — `try_recv` drains them regardless).
    fn sender_closed(&self) -> bool;

    /// True if a message is waiting — [`MsgReceiver::try_recv`]'s
    /// answer without consuming it.
    fn has_message(&self) -> bool;

    /// Receives the next message, spinning (then yielding) until one
    /// arrives: [`block_on`] over [`MsgReceiver::try_recv`].
    fn recv(&self) -> Message {
        block_on(until(|| self.try_recv()))
    }

    /// Blocking receive with an escape: fails with
    /// [`RecvError::Disconnected`] once the sender is gone *and* the
    /// channel is drained, instead of spinning forever on a dead peer.
    ///
    /// # Errors
    ///
    /// [`RecvError::Disconnected`] if the sending half was dropped and
    /// no message remains.
    fn recv_connected(&self) -> Result<Message, RecvError> {
        block_on(until(|| match self.try_recv() {
            Some(m) => Some(Ok(m)),
            // Final drain: the sender may have published a message
            // between the failed poll above and its drop.
            None if self.sender_closed() => Some(self.try_recv().ok_or(RecvError::Disconnected)),
            None => None,
        }))
    }

    /// One non-blocking step of a connected burst: moves `out` toward
    /// `n` messages with what is published now, and says whether it got
    /// there. Resumable: a caller that keeps `out` between calls takes
    /// a message's continuation frames across as many polls as their
    /// sender needs. This default takes them one
    /// [`MsgReceiver::try_recv`] at a time; the ring overrides it with
    /// a burst (one stamp check and one hand-back per chunk).
    ///
    /// # Errors
    ///
    /// [`RecvError::Disconnected`] if the sending half was dropped
    /// before the `n`-th message was published; whatever it did
    /// publish is in `out`, so the channel reads drained. A blocking
    /// caller loops it under [`block_on`].
    fn poll_burst(&self, n: usize, out: &mut Vec<Message>) -> Result<bool, RecvError> {
        while out.len() < n {
            match self.try_recv() {
                Some(m) => out.push(m),
                None if !self.sender_closed() => return Ok(false),
                // Final drain: the sender may have published a message
                // between the failed poll above and its drop.
                None => out.push(self.try_recv().ok_or(RecvError::Disconnected)?),
            }
        }
        Ok(true)
    }
}

impl MsgReceiver for Receiver {
    fn try_recv(&self) -> Option<Message> {
        Receiver::try_recv(self)
    }

    fn sender_closed(&self) -> bool {
        Receiver::sender_closed(self)
    }

    fn has_message(&self) -> bool {
        Receiver::has_message(self)
    }
}

impl MsgReceiver for RingReceiver {
    #[inline]
    fn try_recv(&self) -> Option<Message> {
        RingReceiver::try_recv(self)
    }

    #[inline]
    fn sender_closed(&self) -> bool {
        RingReceiver::sender_closed(self)
    }

    #[inline]
    fn has_message(&self) -> bool {
        RingReceiver::has_message(self)
    }

    #[inline]
    fn poll_burst(&self, n: usize, out: &mut Vec<Message>) -> Result<bool, RecvError> {
        RingReceiver::poll_burst(self, n, out)
    }
}

/// The send side of either channel flavour — the mirror of
/// [`MsgReceiver`], so code on top (`ssync-srv`'s `Conn` and
/// `NodeCore`) is written once over the transport.
pub trait MsgSender: Send {
    /// Sends a message, blocking (spin then yield) while the channel
    /// is full: [`block_on`] over [`MsgSender::try_send`].
    fn send(&self, msg: Message) {
        block_on(until(|| self.try_send(msg).ok()));
    }

    /// Attempts to send without blocking; returns the message back if
    /// the channel is full.
    fn try_send(&self, msg: Message) -> Result<(), Message>;

    /// True if the receiving half has been dropped: nothing sent here
    /// will ever be read.
    fn receiver_closed(&self) -> bool;

    /// Publishes the longest prefix of `frames` there is room for and
    /// returns its length. This default sends at most one frame; the
    /// ring overrides it with one run (one space check).
    fn try_send_burst(&self, frames: &[Message]) -> usize {
        let sent = frames.first().map(|&frame| self.try_send(frame));
        usize::from(sent == Some(Ok(())))
    }

    /// Blocking send with an escape: fails once the receiver is gone,
    /// instead of spinning forever against a full channel no one will
    /// ever drain.
    ///
    /// # Errors
    ///
    /// [`Disconnected`] if the receiving half was dropped.
    fn send_connected(&self, msg: Message) -> Result<(), Disconnected> {
        block_on(until(|| {
            if self.receiver_closed() {
                return Some(Err(Disconnected));
            }
            self.try_send(msg).ok().map(Ok)
        }))
    }
}

impl MsgSender for Sender {
    fn try_send(&self, msg: Message) -> Result<(), Message> {
        Sender::try_send(self, msg)
    }

    fn receiver_closed(&self) -> bool {
        Sender::receiver_closed(self)
    }
}

impl MsgSender for RingSender {
    #[inline]
    fn try_send(&self, msg: Message) -> Result<(), Message> {
        RingSender::try_send(self, msg)
    }

    #[inline]
    fn receiver_closed(&self) -> bool {
        RingSender::receiver_closed(self)
    }

    #[inline]
    fn try_send_burst(&self, frames: &[Message]) -> usize {
        RingSender::try_send_burst(self, frames)
    }
}

/// Server-side receive multiplexer.
pub struct ServerHub<C: MsgReceiver = Receiver> {
    clients: Vec<C>,
    next: usize,
}

impl<C: MsgReceiver> ServerHub<C> {
    /// Builds a hub over one receiver per client; client ids are the
    /// indices into this vector.
    pub fn new(clients: Vec<C>) -> Self {
        Self { clients, next: 0 }
    }

    /// Number of connected clients.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// True if the hub has no clients.
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// Receives the next message from any client, spinning until one
    /// arrives. Returns `(client_id, message)`.
    pub fn recv_from_any(&mut self) -> (usize, Message) {
        block_on(until(|| self.poll_once(None)))
    }

    /// Non-blocking variant of [`ServerHub::recv_from_any`].
    pub fn try_recv_from_any(&mut self) -> Option<(usize, Message)> {
        self.poll_once(None)
    }

    /// Receives the next message from a client in `subset` (ids), as
    /// `libssmp`'s receive-from-subset. Spins until one arrives.
    ///
    /// # Panics
    ///
    /// Panics if `subset` contains an out-of-range client id.
    pub fn recv_from_subset(&mut self, subset: &[usize]) -> (usize, Message) {
        assert!(subset.iter().all(|&c| c < self.clients.len()));
        block_on(until(|| self.poll_once(Some(subset))))
    }

    /// One round-robin pass over the clients, starting after the last
    /// one served: `visit` is asked about each client in turn until it
    /// returns `Some`, which ends the pass there and makes that client
    /// the last one served. How a serve loop that keeps per-client
    /// state — a request whose continuation frames are still coming —
    /// polls each client its own way without starving any.
    pub fn poll_with<T>(&mut self, mut visit: impl FnMut(usize, &C) -> Option<T>) -> Option<T> {
        let n = self.clients.len();
        let mut c = self.next;
        for _ in 0..n {
            let after = if c + 1 == n { 0 } else { c + 1 };
            if let Some(hit) = visit(c, &self.clients[c]) {
                self.next = after;
                return Some(hit);
            }
            c = after;
        }
        None
    }

    /// True if `client` went away for good: its sending half dropped
    /// and nothing left in its channel. Closed is read first, empty
    /// second — the order of [`MsgReceiver::recv_connected`]. A drop is
    /// a Release after the sender's last publication, so a channel that
    /// reads closed and *then* empty stays empty; read the other way
    /// round, a message published between the two reads would be
    /// abandoned.
    ///
    /// # Panics
    ///
    /// Panics if `client` is out of range.
    pub fn departed(&self, client: usize) -> bool {
        let rx = &self.clients[client];
        rx.sender_closed() && !rx.has_message()
    }

    fn poll_once(&mut self, subset: Option<&[usize]>) -> Option<(usize, Message)> {
        self.poll_with(|c, rx| {
            if subset.is_some_and(|filter| !filter.contains(&c)) {
                return None;
            }
            rx.try_recv().map(|msg| (c, msg))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::channel;

    #[test]
    fn recv_from_any_round_robins() {
        let mut senders = Vec::new();
        let mut receivers = Vec::new();
        for _ in 0..3 {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        let mut hub = ServerHub::new(receivers);
        senders[0].send([0; 7]);
        senders[1].send([1; 7]);
        senders[2].send([2; 7]);
        let mut seen = Vec::new();
        for _ in 0..3 {
            let (c, m) = hub.recv_from_any();
            assert_eq!(m[0] as usize, c);
            seen.push(c);
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn try_recv_empty_returns_none() {
        let (_tx, rx) = channel();
        let mut hub = ServerHub::new(vec![rx]);
        assert!(hub.try_recv_from_any().is_none());
    }

    #[test]
    fn subset_filters_clients() {
        let (tx0, rx0) = channel();
        let (tx1, rx1) = channel();
        let mut hub = ServerHub::new(vec![rx0, rx1]);
        tx0.send([10; 7]);
        tx1.send([11; 7]);
        let (c, m) = hub.recv_from_subset(&[1]);
        assert_eq!(c, 1);
        assert_eq!(m[0], 11);
        // Client 0's message is still queued.
        let (c, m) = hub.recv_from_any();
        assert_eq!(c, 0);
        assert_eq!(m[0], 10);
    }

    /// A pass asks each client once, from the one after the last
    /// served, and a hit moves the rotation past it: how a serve loop
    /// resumes one client's half-published request while the others
    /// keep their turns.
    #[test]
    fn poll_with_asks_each_client_once_and_keeps_the_rotation() {
        let (tx0, rx0) = crate::ring::ring_channel(4);
        let (tx1, rx1) = crate::ring::ring_channel(4);
        let (tx2, rx2) = crate::ring::ring_channel(4);
        let mut hub = ServerHub::new(vec![rx0, rx1, rx2]);
        tx0.send([10; 7]);
        tx2.send([12; 7]);
        tx1.send_all(&[[1; 7], [2; 7], [3; 7], [4; 7]]);
        assert_eq!(hub.recv_from_any(), (0, [10; 7]));
        // Client 1's head frame says two continuations follow: the
        // pass takes them from client 1 alone, and ends there.
        let mut asked = Vec::new();
        let whole = hub.poll_with(|c, rx| {
            asked.push(c);
            let head = rx.try_recv()?;
            let mut rest = Vec::new();
            (rx.poll_burst(2, &mut rest) == Ok(true)).then_some((c, head, rest))
        });
        assert_eq!(whole, Some((1, [1; 7], vec![[2; 7], [3; 7]])));
        assert_eq!(asked, [1]);
        // Client 2 is next; a pass that finds nothing asks every client
        // once, from client 0, and leaves the rotation where it was.
        assert_eq!(hub.recv_from_any(), (2, [12; 7]));
        asked.clear();
        let found: Option<()> = hub.poll_with(|c, _| {
            asked.push(c);
            None
        });
        assert_eq!((found, asked), (None, vec![0, 1, 2]));
        assert_eq!(hub.recv_from_any(), (1, [4; 7]));
        drop(tx1);
        assert!(hub.departed(1));
    }

    /// The one-line channel keeps the per-frame defaults, with the
    /// same contract as the ring's bursts.
    #[test]
    fn per_frame_defaults_match_the_burst_contract() {
        let (tx, rx) = channel();
        std::thread::scope(|s| {
            s.spawn(move || {
                for frame in [[1; 7], [2; 7], [3; 7]] {
                    MsgSender::send(&tx, frame);
                }
            });
            let recv_burst = |got: &mut Vec<Message>| {
                got.clear();
                block_on(until(|| match rx.poll_burst(2, got) {
                    Ok(false) => None,
                    done => Some(done),
                }))
            };
            let mut got = Vec::new();
            assert_eq!(recv_burst(&mut got), Ok(true));
            assert_eq!(got, [[1; 7], [2; 7]]);
            assert_eq!(recv_burst(&mut got), Err(RecvError::Disconnected));
            assert_eq!(got, [[3; 7]]);
        });
    }

    /// Regression test for the round-robin start-after-last-served
    /// scan: a client that always has a message ready must not starve
    /// the others. If `poll_once` restarted from index 0 instead of
    /// after the last served client, the flooder (client 0) would win
    /// every poll and take all 400 receives.
    #[test]
    fn flooding_client_cannot_starve_others() {
        const CLIENTS: usize = 4;
        const ROUNDS: u64 = 400;
        let mut senders = Vec::new();
        let mut receivers = Vec::new();
        for _ in 0..CLIENTS {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        let mut hub = ServerHub::new(receivers);
        let mut counts = [0u64; CLIENTS];
        for _ in 0..ROUNDS {
            // Every client (the flooder included) tops its channel up
            // before each poll, so the hub always faces a full house;
            // only the rotation decides who is served.
            for tx in &senders {
                let _ = tx.try_send([7; 7]);
            }
            let (c, _) = hub.recv_from_any();
            counts[c] += 1;
        }
        assert_eq!(
            counts,
            [ROUNDS / CLIENTS as u64; CLIENTS],
            "round-robin must serve saturated clients exactly evenly"
        );
    }

    /// The rotation also resumes after the last served client when
    /// traffic is sparse: serving client 1 must put client 2 (not 0)
    /// first in line for the next poll.
    #[test]
    fn rotation_resumes_after_last_served() {
        let mut senders = Vec::new();
        let mut receivers = Vec::new();
        for _ in 0..3 {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        let mut hub = ServerHub::new(receivers);
        senders[1].send([1; 7]);
        assert_eq!(hub.recv_from_any().0, 1);
        // Both 0 and 2 now have traffic; 2 is next in rotation order.
        senders[0].send([0; 7]);
        senders[2].send([2; 7]);
        assert_eq!(hub.recv_from_any().0, 2);
        assert_eq!(hub.recv_from_any().0, 0);
    }

    #[test]
    fn recv_connected_drains_then_reports_disconnect() {
        let (tx, rx) = crate::ring::ring_channel(4);
        tx.send([3; 7]);
        drop(tx);
        // The backlog survives the drop; only then does the error fire.
        assert_eq!(MsgReceiver::recv_connected(&rx), Ok([3; 7]));
        assert_eq!(
            MsgReceiver::recv_connected(&rx),
            Err(RecvError::Disconnected)
        );

        let (tx, rx) = channel();
        tx.send([4; 7]);
        drop(tx);
        assert_eq!(MsgReceiver::recv_connected(&rx), Ok([4; 7]));
        assert_eq!(
            MsgReceiver::recv_connected(&rx),
            Err(RecvError::Disconnected)
        );
    }

    #[test]
    fn departed_means_dropped_and_drained() {
        let (tx0, rx0) = crate::ring::ring_channel(4);
        let (tx1, rx1) = channel();
        let mut hub = ServerHub::new(vec![rx0]);
        let mut line_hub = ServerHub::new(vec![rx1]);
        assert!(!hub.departed(0) && !line_hub.departed(0), "live and silent");
        tx0.send([1; 7]);
        tx1.send([2; 7]);
        drop((tx0, tx1));
        // The backlog outlives the drop: not departed until drained.
        assert!(!hub.departed(0) && !line_hub.departed(0));
        assert_eq!(hub.try_recv_from_any(), Some((0, [1; 7])));
        assert_eq!(line_hub.try_recv_from_any(), Some((0, [2; 7])));
        assert!(hub.departed(0) && line_hub.departed(0));
    }

    #[test]
    fn send_connected_fails_on_a_dropped_receiver() {
        let (tx, rx) = channel();
        assert_eq!(MsgSender::send_connected(&tx, [1; 7]), Ok(()));
        drop(rx);
        assert_eq!(MsgSender::send_connected(&tx, [2; 7]), Err(Disconnected));

        let (tx, rx) = crate::ring::ring_channel(4);
        assert_eq!(MsgSender::send_connected(&tx, [1; 7]), Ok(()));
        drop(rx);
        assert_eq!(MsgSender::send_connected(&tx, [2; 7]), Err(Disconnected));
    }

    #[test]
    fn send_all_connected_delivers_in_order_and_escapes() {
        let frames = [[1u64; 7], [2; 7], [3; 7]];
        let (tx, rx) = crate::ring::ring_channel(8);
        assert_eq!(tx.send_all_connected(&frames), Ok(()));
        drop(rx);
        assert_eq!(tx.send_all_connected(&frames), Err(Disconnected));
    }

    #[test]
    fn threaded_clients_all_served() {
        let mut senders = Vec::new();
        let mut receivers = Vec::new();
        for _ in 0..4 {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        let mut hub = ServerHub::new(receivers);
        std::thread::scope(|s| {
            for (i, tx) in senders.into_iter().enumerate() {
                s.spawn(move || {
                    for j in 0..200u64 {
                        tx.send([i as u64, j, 0, 0, 0, 0, 0]);
                        std::thread::yield_now();
                    }
                });
            }
            let mut counts = [0u64; 4];
            for _ in 0..800 {
                let (c, m) = hub.recv_from_any();
                assert_eq!(m[1], counts[c]);
                counts[c] += 1;
            }
            assert!(counts.iter().all(|&c| c == 200));
        });
    }
}
