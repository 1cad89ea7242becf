//! The one-directional cache-line channel.
//!
//! Layout follows `libssmp`: one cache line holds a flag word plus the
//! payload, so a message transfer is (at the coherence level) one line
//! moving from the sender's cache to the receiver's. The flag encodes
//! empty (0) / full (1); a blocking send ([`crate::MsgSender::send`])
//! waits for empty, a blocking receive ([`crate::MsgReceiver::recv`])
//! for full — single-producer single-consumer by construction, enforced
//! in the API by non-cloneable [`Sender`]/[`Receiver`] halves.
//!
//! Each half's `Drop` records itself on a *separate* cache line (the
//! transfer line keeps the calibrated one-line cost model), so the
//! surviving half can tell "peer is gone" from "peer is slow" —
//! [`Sender::receiver_closed`] / [`Receiver::sender_closed`], which the
//! blocking-with-escape paths in [`crate::hub`] build on. Without the
//! signal, a client blocked in `recv` on a dead server spins forever.

use crate::sync::atomic::{AtomicU64, Ordering};
use core::cell::UnsafeCell;
use std::sync::Arc;

use ssync_core::CachePadded;

/// Payload words per message: 7 × 8 bytes + the 8-byte flag fill one
/// 64-byte cache line.
pub const MSG_WORDS: usize = 7;

/// A message: seven 64-bit words (56 bytes of payload).
pub type Message = [u64; MSG_WORDS];

struct Buffer {
    /// 0 = empty, 1 = full. Also the publication point for `data`.
    // chk: deliberately unpadded — flag and payload *sharing* one cache
    // line is the libssmp cost model (the whole buffer is wrapped in
    // one `CachePadded` at the channel).
    flag: AtomicU64,
    data: UnsafeCell<Message>,
}

// SAFETY: `data` is written only by the unique `Sender` while `flag == 0`
// and read only by the unique `Receiver` while `flag == 1`; the flag's
// release/acquire pair orders the accesses, so no data race is possible.
unsafe impl Sync for Buffer {}

/// Dropped-half bits in [`Chan::closed`].
pub(crate) const TX_CLOSED: u64 = 1;
pub(crate) const RX_CLOSED: u64 = 2;

struct Chan {
    buf: CachePadded<Buffer>,
    /// Drop signal, deliberately on its own line: the hot transfer path
    /// never touches it, and the peer polls it only after a failed
    /// `try_recv`/`try_send` (the cold branch of a blocking loop).
    closed: CachePadded<AtomicU64>,
}

/// Sending half: exactly one per channel.
pub struct Sender {
    chan: Arc<Chan>,
}

/// Receiving half: exactly one per channel.
pub struct Receiver {
    chan: Arc<Chan>,
}

/// Creates a one-directional channel.
pub fn channel() -> (Sender, Receiver) {
    let chan = Arc::new(Chan {
        buf: CachePadded::new(Buffer {
            flag: AtomicU64::new(0),
            data: UnsafeCell::new([0; MSG_WORDS]),
        }),
        closed: CachePadded::new(AtomicU64::new(0)),
    });
    (
        Sender {
            chan: Arc::clone(&chan),
        },
        Receiver { chan },
    )
}

impl Drop for Sender {
    fn drop(&mut self) {
        // Release-ordered so a receiver that sees the bit also sees any
        // message published before the drop.
        self.chan.closed.fetch_or(TX_CLOSED, Ordering::Release);
    }
}

impl Drop for Receiver {
    fn drop(&mut self) {
        self.chan.closed.fetch_or(RX_CLOSED, Ordering::Release);
    }
}

impl Sender {
    /// Attempts to send without blocking; returns the message back if
    /// the buffer is still full.
    pub fn try_send(&self, msg: Message) -> Result<(), Message> {
        if self.chan.buf.flag.load(Ordering::Acquire) != 0 {
            return Err(msg);
        }
        // SAFETY: the buffer is empty (flag 0) and we are the unique
        // sender, so no one else accesses `data` until we publish.
        unsafe { *self.chan.buf.data.get() = msg };
        self.chan.buf.flag.store(1, Ordering::Release);
        Ok(())
    }

    /// True if the receiving half has been dropped: anything sent now
    /// (or still buffered) will never be read.
    pub fn receiver_closed(&self) -> bool {
        self.chan.closed.load(Ordering::Acquire) & RX_CLOSED != 0
    }
}

impl Receiver {
    /// Attempts to receive without blocking.
    pub fn try_recv(&self) -> Option<Message> {
        if self.chan.buf.flag.load(Ordering::Acquire) != 1 {
            return None;
        }
        // SAFETY: the buffer is full (flag 1) and we are the unique
        // receiver; the sender will not touch `data` until we drain.
        let msg = unsafe { *self.chan.buf.data.get() };
        self.chan.buf.flag.store(0, Ordering::Release);
        Some(msg)
    }

    /// True if a message is waiting (advisory).
    pub fn has_message(&self) -> bool {
        self.chan.buf.flag.load(Ordering::Relaxed) == 1
    }

    /// True if the sending half has been dropped. A buffered message
    /// may still be waiting — drain with [`Receiver::try_recv`] before
    /// concluding the conversation is over.
    pub fn sender_closed(&self) -> bool {
        self.chan.closed.load(Ordering::Acquire) & TX_CLOSED != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MsgReceiver, MsgSender};

    #[test]
    fn send_recv_roundtrip() {
        let (tx, rx) = channel();
        tx.send([1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(rx.recv(), [1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn try_send_on_full_fails() {
        let (tx, rx) = channel();
        tx.send([9; 7]);
        assert_eq!(tx.try_send([1; 7]), Err([1; 7]));
        assert_eq!(rx.recv(), [9; 7]);
        assert_eq!(tx.try_send([1; 7]), Ok(()));
    }

    #[test]
    fn try_recv_on_empty_fails() {
        let (_tx, rx) = channel();
        assert!(rx.try_recv().is_none());
        assert!(!rx.has_message());
    }

    #[test]
    fn messages_are_fifo_across_threads() {
        let (tx, rx) = channel();
        const N: u64 = 600;
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..N {
                    tx.send([i, i + 1, 0, 0, 0, 0, 0]);
                    if i % 64 == 0 {
                        std::thread::yield_now();
                    }
                }
            });
            for i in 0..N {
                let m = rx.recv();
                assert_eq!(m[0], i);
                assert_eq!(m[1], i + 1);
                if i % 64 == 0 {
                    std::thread::yield_now();
                }
            }
        });
    }

    #[test]
    fn dropping_a_half_is_visible_to_the_peer() {
        let (tx, rx) = channel();
        assert!(!rx.sender_closed() && !tx.receiver_closed());
        // A message sent before the drop must survive the drop.
        tx.send([5; 7]);
        drop(tx);
        assert!(rx.sender_closed());
        assert_eq!(rx.try_recv(), Some([5; 7]));
        assert!(rx.try_recv().is_none());

        let (tx, rx) = channel();
        drop(rx);
        assert!(tx.receiver_closed());
    }

    #[test]
    fn ping_pong_two_channels() {
        let (tx_req, rx_req) = channel();
        let (tx_rep, rx_rep) = channel();
        std::thread::scope(|s| {
            s.spawn(move || {
                for _ in 0..200 {
                    let m = rx_req.recv();
                    tx_rep.send([m[0] + 1, 0, 0, 0, 0, 0, 0]);
                }
            });
            for i in 0..200 {
                tx_req.send([i, 0, 0, 0, 0, 0, 0]);
                assert_eq!(rx_rep.recv()[0], i + 1);
            }
        });
    }
}
