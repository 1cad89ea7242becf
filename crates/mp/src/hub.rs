//! Client/server helpers: receive from any client or from a subset.
//!
//! `libssmp` provides server-side functions for receiving from any other
//! thread or from a chosen subset; [`ServerHub`] is the equivalent: it
//! owns one receive channel per client and scans them round-robin
//! (starting after the last served client, so no client starves). The
//! hub is generic over the channel flavour — the one-line
//! [`Receiver`] or the ring's [`crate::ring::RingReceiver`].

use std::time::Instant;

use ssync_core::SpinWait;

use crate::channel::{Message, Receiver, Sender};
use crate::ring::{RingReceiver, RingSender};

/// Why a connection-aware receive gave up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// The sending half was dropped and the channel is fully drained:
    /// no message will ever arrive.
    Disconnected,
    /// The deadline passed with the sender still alive but silent.
    TimedOut,
}

/// The receiving half's peer was dropped (connection-aware sends).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected;

/// The receive side a [`ServerHub`] can multiplex: anything with a
/// non-blocking poll.
pub trait MsgReceiver {
    /// Attempts to receive without blocking.
    fn try_recv(&self) -> Option<Message>;

    /// True if the sending half has been dropped (messages may still
    /// be queued — `try_recv` drains them regardless).
    fn sender_closed(&self) -> bool;

    /// True if a message is waiting — [`MsgReceiver::try_recv`]'s
    /// answer without consuming it.
    fn has_message(&self) -> bool;

    /// Receives the next message, spinning (then yielding) until one
    /// arrives. The concrete channel types provide the same blocking
    /// loop inherently; this provided method lets transport-generic
    /// code (`ssync-srv`'s service clients) block without naming the
    /// flavour.
    fn recv(&self) -> Message {
        let mut wait = SpinWait::new();
        loop {
            match self.try_recv() {
                Some(m) => return m,
                None => wait.snooze(),
            }
        }
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
        let mut wait = SpinWait::new();
        loop {
            if let Some(m) = self.try_recv() {
                return Ok(m);
            }
            if self.sender_closed() {
                // Final drain: the sender may have published a message
                // between the failed poll above and its drop.
                return self.try_recv().ok_or(RecvError::Disconnected);
            }
            wait.snooze();
        }
    }

    /// Receives the next `n` messages into `out` (cleared first): how a
    /// message's continuation frames are taken once its head frame has
    /// said how many follow. This default takes them one
    /// [`MsgReceiver::recv_connected`] at a time; the ring overrides it
    /// with a burst (one stamp wait and one hand-back per chunk).
    ///
    /// # Errors
    ///
    /// [`RecvError::Disconnected`] if the sending half was dropped
    /// before the `n`-th message arrived; the ones that did arrive are
    /// consumed.
    fn recv_burst_connected(&self, n: usize, out: &mut Vec<Message>) -> Result<(), RecvError> {
        out.clear();
        for _ in 0..n {
            out.push(self.recv_connected()?);
        }
        Ok(())
    }

    /// [`MsgReceiver::recv_connected`] with a wall-clock deadline: also
    /// fails with [`RecvError::TimedOut`] once `deadline` passes, so a
    /// caller never blocks unboundedly even on a live-but-wedged peer.
    ///
    /// # Errors
    ///
    /// [`RecvError::Disconnected`] on a dropped, drained sender;
    /// [`RecvError::TimedOut`] past the deadline.
    fn recv_connected_by(&self, deadline: Instant) -> Result<Message, RecvError> {
        let mut wait = SpinWait::new();
        loop {
            if let Some(m) = self.try_recv() {
                return Ok(m);
            }
            if self.sender_closed() {
                return self.try_recv().ok_or(RecvError::Disconnected);
            }
            if Instant::now() >= deadline {
                return self.try_recv().ok_or(RecvError::TimedOut);
            }
            wait.snooze();
        }
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
    fn try_recv(&self) -> Option<Message> {
        RingReceiver::try_recv(self)
    }

    fn sender_closed(&self) -> bool {
        RingReceiver::sender_closed(self)
    }

    fn has_message(&self) -> bool {
        RingReceiver::has_message(self)
    }

    fn recv_burst_connected(&self, n: usize, out: &mut Vec<Message>) -> Result<(), RecvError> {
        RingReceiver::recv_burst_connected(self, n, out)
    }
}

/// The send side of either channel flavour — the mirror of
/// [`MsgReceiver`], so code on top (`ssync-srv`'s `Conn` and
/// `NodeCore`) is written once over the transport.
pub trait MsgSender {
    /// Sends a message, blocking (spin then yield) while the channel
    /// is full.
    fn send(&self, msg: Message);

    /// Attempts to send without blocking; returns the message back if
    /// the channel is full.
    fn try_send(&self, msg: Message) -> Result<(), Message>;

    /// True if the receiving half has been dropped: nothing sent here
    /// will ever be read.
    fn receiver_closed(&self) -> bool;

    /// Blocking send with an escape: fails once the receiver is gone,
    /// instead of spinning forever against a full channel no one will
    /// ever drain.
    ///
    /// # Errors
    ///
    /// [`Disconnected`] if the receiving half was dropped.
    fn send_connected(&self, msg: Message) -> Result<(), Disconnected> {
        let mut wait = SpinWait::new();
        let mut msg = msg;
        loop {
            if self.receiver_closed() {
                return Err(Disconnected);
            }
            match self.try_send(msg) {
                Ok(()) => return Ok(()),
                Err(back) => msg = back,
            }
            wait.snooze();
        }
    }

    /// Sends a frame sequence — a message's head and continuation
    /// frames — blocking while the channel is full. This default sends
    /// one frame at a time; the ring overrides it with greedy bursts.
    fn send_all(&self, frames: &[Message]) {
        for &frame in frames {
            self.send(frame);
        }
    }

    /// Sends a frame sequence via [`MsgSender::send_connected`],
    /// stopping at the first failure — the connected form of
    /// [`MsgSender::send_all`], which every client connection and node
    /// stream sends through.
    ///
    /// # Errors
    ///
    /// [`Disconnected`] if the receiving half was dropped; frames
    /// before the failing one were already delivered.
    fn send_all_connected(&self, frames: &[Message]) -> Result<(), Disconnected> {
        for frame in frames {
            self.send_connected(*frame)?;
        }
        Ok(())
    }
}

impl MsgSender for Sender {
    fn send(&self, msg: Message) {
        Sender::send(self, msg)
    }

    fn try_send(&self, msg: Message) -> Result<(), Message> {
        Sender::try_send(self, msg)
    }

    fn receiver_closed(&self) -> bool {
        Sender::receiver_closed(self)
    }
}

impl MsgSender for RingSender {
    fn send(&self, msg: Message) {
        RingSender::send(self, msg)
    }

    fn try_send(&self, msg: Message) -> Result<(), Message> {
        RingSender::try_send(self, msg)
    }

    fn receiver_closed(&self) -> bool {
        RingSender::receiver_closed(self)
    }

    fn send_all(&self, frames: &[Message]) {
        RingSender::send_all(self, frames)
    }

    fn send_all_connected(&self, frames: &[Message]) -> Result<(), Disconnected> {
        RingSender::send_all_connected(self, frames)
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
        let mut wait = SpinWait::new();
        loop {
            if let Some(hit) = self.poll_once(None) {
                return hit;
            }
            wait.snooze();
        }
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
        let mut wait = SpinWait::new();
        loop {
            if let Some(hit) = self.poll_once(Some(subset)) {
                return hit;
            }
            wait.snooze();
        }
    }

    /// Receives the next `n` messages from one client into `out`
    /// ([`MsgReceiver::recv_burst_connected`]): how a serve loop takes
    /// the continuation frames of a request whose head frame came from
    /// `client`, so interleaved clients' frames are never mixed. Leaves
    /// the round-robin cursor where it was — the head frame's receive
    /// already advanced it.
    ///
    /// # Errors
    ///
    /// [`RecvError::Disconnected`] if `client` went away before the
    /// `n`-th message: one client dying mid-request must not hang the
    /// server every other client shares.
    ///
    /// # Panics
    ///
    /// Panics if `client` is out of range.
    pub fn recv_burst_from(
        &self,
        client: usize,
        n: usize,
        out: &mut Vec<Message>,
    ) -> Result<(), RecvError> {
        self.clients[client].recv_burst_connected(n, out)
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
        let n = self.clients.len();
        let mut c = self.next;
        for _ in 0..n {
            let after = if c + 1 == n { 0 } else { c + 1 };
            if subset.map_or(true, |filter| filter.contains(&c)) {
                if let Some(msg) = self.clients[c].try_recv() {
                    self.next = after;
                    return Some((c, msg));
                }
            }
            c = after;
        }
        None
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

    #[test]
    fn recv_burst_from_reads_one_client_and_keeps_the_rotation() {
        let (tx0, rx0) = crate::ring::ring_channel(4);
        let (tx1, rx1) = crate::ring::ring_channel(4);
        let (tx2, rx2) = crate::ring::ring_channel(4);
        let mut hub = ServerHub::new(vec![rx0, rx1, rx2]);
        // Client 1 sends a head frame and two continuation frames
        // while clients 0 and 2 hold traffic the whole time.
        tx0.send([10; 7]);
        tx2.send([12; 7]);
        tx1.send_all(&[[1; 7], [2; 7], [3; 7], [4; 7]]);
        assert_eq!(hub.recv_from_any(), (0, [10; 7]));
        assert_eq!(hub.recv_from_any(), (1, [1; 7]));
        let mut rest = vec![[99; 7]];
        assert_eq!(hub.recv_burst_from(1, 2, &mut rest), Ok(()));
        assert_eq!(rest, [[2; 7], [3; 7]]);
        // The direct receive did not move the cursor: 2 is still next.
        assert_eq!(hub.recv_from_any(), (2, [12; 7]));
        // A client that went away mid-sequence is an error, not a spin,
        // and what it did send is consumed.
        drop(tx1);
        assert_eq!(
            hub.recv_burst_from(1, 2, &mut rest),
            Err(RecvError::Disconnected)
        );
        assert_eq!(rest, [[4; 7]]);
        assert!(hub.departed(1));
    }

    /// The one-line channel keeps the per-frame defaults, with the
    /// same contract as the ring's bursts.
    #[test]
    fn per_frame_defaults_match_the_burst_contract() {
        let (tx, rx) = channel();
        std::thread::scope(|s| {
            s.spawn(move || MsgSender::send_all(&tx, &[[1; 7], [2; 7], [3; 7]]));
            let mut got = Vec::new();
            assert_eq!(rx.recv_burst_connected(2, &mut got), Ok(()));
            assert_eq!(got, [[1; 7], [2; 7]]);
            assert_eq!(
                rx.recv_burst_connected(2, &mut got),
                Err(RecvError::Disconnected)
            );
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
    fn recv_connected_by_times_out_on_a_silent_live_sender() {
        let (tx, rx) = channel();
        let deadline = Instant::now() + std::time::Duration::from_millis(5);
        assert_eq!(
            MsgReceiver::recv_connected_by(&rx, deadline),
            Err(RecvError::TimedOut)
        );
        // Sender still alive and usable afterwards.
        tx.send([8; 7]);
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        assert_eq!(MsgReceiver::recv_connected_by(&rx, deadline), Ok([8; 7]));
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
        // One-line channels hold a single frame, so the bulk send only
        // completes against a concurrent drain.
        let (tx, rx) = channel();
        std::thread::scope(|s| {
            let drained = s.spawn(move || {
                let got: Vec<Message> = (0..frames.len()).map(|_| rx.recv()).collect();
                got
            });
            assert_eq!(tx.send_all_connected(&frames), Ok(()));
            assert_eq!(drained.join().unwrap(), frames.to_vec());
        });
        // The drain thread dropped its receiver on exit.
        assert_eq!(tx.send_all_connected(&frames), Err(Disconnected));

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
