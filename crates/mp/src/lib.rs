//! # ssync-mp
//!
//! A native Rust port of `libssmp`, the paper's message-passing library
//! built **over cache coherence**: a channel is a single cache-line-sized
//! buffer with a flag word, written by exactly one sender and drained by
//! exactly one receiver, so every message moves between cores with
//! single-cache-line transfers (Section 4.1).
//!
//! * [`mod@channel`] — the one-directional SPSC cache-line channel.
//! * [`ring`] — a bounded SPSC ring *of* such buffers: every slot is
//!   one line holding a sequence stamp and the payload, so a hop still
//!   costs the two line transfers of the one-line channel, with queue
//!   depth for oversubscribed hosts where a one-deep buffer turns
//!   every multi-frame transfer into a context-switch pair per frame,
//!   and a burst path that moves a multi-frame message with one space
//!   check, one stamp wait and one hand-back.
//! * [`hub`] — client/server helpers: receive from any client, from a
//!   subset, or a message's continuation frames from one named client,
//!   as `libssmp` provides for server loops; generic over both channel
//!   flavours.
//!
//! # One wait
//!
//! Every type here has a non-blocking poll — `try_send`,
//! `try_send_burst`, `try_recv`, `poll_burst`, a hub's round-robin
//! pass — and every blocking call is one
//! [`block_on`](ssync_core::block_on)`(`[`until`](ssync_core::until)`(..))`
//! over it, `ssync-core`'s one blocking driver: a fresh
//! [`SpinWait`](ssync_core::SpinWait) per wait, spinning and then
//! yielding. [`MsgSender`] and [`MsgReceiver`] define `send`, `recv`,
//! `send_connected` and `recv_connected` once for both flavours; only
//! the ring's [`RingSender::send_all`] and
//! [`RingSender::send_all_connected`] are its own.
//!
//! # Examples
//!
//! ```
//! use ssync_mp::channel::channel;
//! use ssync_mp::{MsgReceiver, MsgSender};
//!
//! let (tx, rx) = channel();
//! std::thread::scope(|s| {
//!     s.spawn(move || tx.send([1, 2, 3, 4, 5, 6, 7]));
//!     let msg = rx.recv();
//!     assert_eq!(msg[0], 1);
//! });
//! ```

pub mod channel;
pub mod hub;
pub mod ring;
pub(crate) mod sync;

pub use channel::{channel, Message, Receiver, Sender, MSG_WORDS};
pub use hub::{Disconnected, MsgReceiver, MsgSender, RecvError, ServerHub};
pub use ring::{ring_channel, RingReceiver, RingSender};
