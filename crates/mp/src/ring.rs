//! A bounded SPSC *ring* channel: a ring of `libssmp` buffers, one
//! cache line per message.
//!
//! The single-buffer channel ([`mod@crate::channel`]) is the paper's
//! `libssmp` model: one cache line, one message in flight, the
//! transfer itself the unit of cost. That is the right model when
//! sender and receiver run on their own cores — the receiver drains
//! concurrently and the buffer never holds the sender long. On an
//! oversubscribed host it serializes differently: every frame of a
//! multi-frame message (a long value's continuation frames, a
//! replication stream's back-to-back entries) blocks the sender until
//! the *scheduler* runs the receiver, so an N-frame transfer costs N
//! context-switch pairs.
//!
//! The ring keeps the wire format (cache-line [`Message`] frames, SPSC
//! by construction, FIFO) and the one-line cost model, and gives the
//! channel `depth` slots. A server can write an entire multi-frame
//! reply and move on; a primary can stream a burst of replication
//! entries without handing the core over per entry. The serving stacks
//! (`ssync-srv`'s `ring_mesh`, `ssync-repl`, `ssync-cluster`) wire
//! their meshes with rings; the figure-facing benches keep the
//! single-line channel, whose cost model is the one the paper
//! calibrates.
//!
//! # Protocol
//!
//! Each slot is one 64-byte-aligned line holding a sequence stamp and
//! the payload — flag and data on the same line, as in
//! [`mod@crate::channel`]. Positions count messages from 0 and never wrap;
//! position `p` lives in slot `p & (depth - 1)`.
//!
//! * **Send** position `p`: write the payload, then
//!   `seq.store(p + 1, Release)`.
//! * **Receive** position `p`: poll `seq == p + 1` (Acquire), read the
//!   payload off the line that load just brought in, then publish
//!   `head = p + 1` (Release) to hand the slot back.
//!
//! The stamp carries the lap, so a slot never needs clearing: until
//! position `p` is published its slot still reads the previous lap's
//! stamp `p + 1 - depth` (0 on the first lap), which the consumer
//! tells apart from `p + 1` without any shared `tail`.
//!
//! The producer keeps `tail` and a **cached copy of `head`** on a line
//! only it touches. `head` is monotone, so a stale copy only
//! under-reports free space: the producer re-loads the real `head`
//! (Acquire, pairing with the consumer's Release hand-back) only when
//! the cached copy says the ring is full — once per `depth` sends when
//! it runs ahead of the consumer, not once per send.
//!
//! # Line transfers per hop
//!
//! The layout this replaces was a textbook Lamport queue: 56-byte
//! slots at a 56-byte stride (every slot straddled two lines and
//! shared them with its neighbours) and shared `head`/`tail` counters
//! both sides touched on every message. One hop serialized about five
//! coherence misses — the producer's `head` load (the consumer just
//! wrote it), its slot write (one or two lines the consumer last
//! read), the consumer's `tail` load (the producer just wrote it), its
//! slot read, and the `head` store whose line the producer had taken
//! shared. Here a hop costs **two**: the producer's write takes the
//! slot line from the consumer's cache, the consumer's poll takes it
//! back, payload included. The consumer's `head` line stays exclusive
//! in its cache between the producer's once-per-lap refreshes.

use crate::sync::atomic::{AtomicU64, Ordering};
use core::cell::{Cell, UnsafeCell};
use std::sync::Arc;

use ssync_core::{CachePadded, SpinWait};

use crate::channel::Message;
use crate::channel::{RX_CLOSED, TX_CLOSED};
use crate::MSG_WORDS;

/// One `libssmp` buffer: stamp and payload fill exactly one line.
#[repr(C, align(64))]
struct Slot {
    /// `p + 1` once position `p` is published here; the publication
    /// point for `data`.
    // chk: deliberately unpadded — flag and payload *sharing* one cache
    // line is the libssmp cost model (the slot itself is line-aligned).
    seq: AtomicU64,
    data: UnsafeCell<Message>,
    /// Word 0 of the payload, mirrored through a shadow atomic so the
    /// model checker — which cannot see plain memory — observes when
    /// the payload becomes visible relative to `seq`.
    // chk: model-only field; production slots do not have it.
    #[cfg(ssync_chk)]
    witness: AtomicU64,
}

/// The producer's private line: plain cells, not atomics — no other
/// thread ever reads them (see the `Sync` argument below).
struct Producer {
    /// Next position to write.
    tail: Cell<u64>,
    /// Last value of [`Ring::head`] the producer loaded; never ahead
    /// of the real one.
    cached_head: Cell<u64>,
}

/// Slot discipline: `slots[p & mask].data` is written only by the
/// unique producer, for a position `p < head + depth` with `head` as of
/// an Acquire load pairing with the consumer's Release hand-back (so
/// the previous lap's read is complete), and read only by the unique
/// consumer after an Acquire load of `seq == p + 1`, pairing with the
/// producer's Release publication. No slot is ever accessed
/// concurrently.
struct Ring {
    slots: Box<[Slot]>,
    producer: CachePadded<Producer>,
    /// Next position the consumer reads; only the consumer advances
    /// it, and the producer loads it only when its cached copy says
    /// the ring is full.
    head: CachePadded<AtomicU64>,
    /// Dropped-half bits ([`mod@crate::channel`]'s `TX_CLOSED`/`RX_CLOSED`),
    /// on their own line so the fast path never touches it; polled
    /// only from the cold branch of blocking loops.
    closed: CachePadded<AtomicU64>,
    #[cfg(ssync_chk)]
    fault: Option<RingFault>,
}

/// Seeded protocol bugs for the `expect_violation` twins in
/// `tests/chk_models.rs`: each removes one guard the protocol
/// argument leans on, and the checker must exhibit the failure.
#[cfg(ssync_chk)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingFault {
    /// The producer stores `seq` *before* writing the payload.
    PublishBeforePayload,
    /// On a ring its cached `head` calls full, the producer neither
    /// re-loads the real `head` nor re-checks the bound.
    SkipHeadReload,
}

// SAFETY: per the slot discipline on [`Ring`] — a slot's `data` is
// accessed by one side at a time, ordered by the `seq` and `head`
// Release/Acquire pairs — and `producer`'s cells are touched only
// through the unique `RingSender`; every other field is an atomic.
unsafe impl Sync for Ring {}

/// Sending half: exactly one per ring.
pub struct RingSender {
    ring: Arc<Ring>,
}

/// Receiving half: exactly one per ring.
pub struct RingReceiver {
    ring: Arc<Ring>,
}

/// Creates a bounded SPSC ring channel with `depth` message slots.
///
/// # Panics
///
/// Panics if `depth` is zero (use [`crate::channel()`] for the
/// single-line model) or not a power of two.
pub fn ring_channel(depth: usize) -> (RingSender, RingReceiver) {
    split(Ring::new(depth))
}

/// [`ring_channel`] with one protocol guard removed (model twins only).
#[cfg(ssync_chk)]
pub fn ring_channel_with_fault(depth: usize, fault: RingFault) -> (RingSender, RingReceiver) {
    let mut ring = Ring::new(depth);
    ring.fault = Some(fault);
    split(ring)
}

impl Ring {
    /// The slot position `pos` lives in (`depth` is a power of two).
    fn slot(&self, pos: u64) -> &Slot {
        &self.slots[(pos as usize) & (self.slots.len() - 1)]
    }

    fn new(depth: usize) -> Self {
        assert!(depth > 0, "ring depth must be positive");
        assert!(depth.is_power_of_two(), "ring depth must be a power of two");
        Ring {
            slots: (0..depth)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    data: UnsafeCell::new([0; MSG_WORDS]),
                    #[cfg(ssync_chk)]
                    witness: AtomicU64::new(0),
                })
                .collect(),
            producer: CachePadded::new(Producer {
                tail: Cell::new(0),
                cached_head: Cell::new(0),
            }),
            head: CachePadded::new(AtomicU64::new(0)),
            closed: CachePadded::new(AtomicU64::new(0)),
            #[cfg(ssync_chk)]
            fault: None,
        }
    }
}

fn split(ring: Ring) -> (RingSender, RingReceiver) {
    let ring = Arc::new(ring);
    (
        RingSender {
            ring: Arc::clone(&ring),
        },
        RingReceiver { ring },
    )
}

impl Drop for RingSender {
    fn drop(&mut self) {
        // Release-ordered so a receiver that sees the bit also sees
        // every message published before the drop.
        self.ring.closed.fetch_or(TX_CLOSED, Ordering::Release);
    }
}

impl Drop for RingReceiver {
    fn drop(&mut self) {
        self.ring.closed.fetch_or(RX_CLOSED, Ordering::Release);
    }
}

impl RingSender {
    /// Sends a message, spinning (then yielding) while the ring is
    /// full.
    pub fn send(&self, msg: Message) {
        let mut wait = SpinWait::new();
        while self.try_send(msg).is_err() {
            wait.snooze();
        }
    }

    /// Attempts to send without blocking; returns the message back if
    /// the ring is full.
    pub fn try_send(&self, msg: Message) -> Result<(), Message> {
        let ring = &*self.ring;
        let depth = ring.slots.len() as u64;
        let tail = ring.producer.tail.get();
        let mut head = ring.producer.cached_head.get();
        // `head` is monotone and the cached copy was once its value,
        // so even a lagging copy satisfies the ring invariant.
        debug_assert!(
            head <= tail && tail - head <= depth,
            "ring counters out of range: cached head {head}, tail {tail}"
        );
        let full = tail - head == depth;
        #[cfg(ssync_chk)]
        let full = full && ring.fault != Some(RingFault::SkipHeadReload);
        if full {
            // The cached copy may lag: only the real `head` can call
            // the ring full. Acquire pairs with the consumer's Release
            // hand-back, so its read of the slot we are about to
            // overwrite is complete.
            head = ring.head.load(Ordering::Acquire);
            debug_assert!(
                head <= tail && tail - head <= depth,
                "ring counters out of range: head {head}, tail {tail}"
            );
            if tail - head == depth {
                return Err(msg);
            }
            ring.producer.cached_head.set(head);
        }
        let slot = ring.slot(tail);
        #[cfg(ssync_chk)]
        if ring.fault == Some(RingFault::PublishBeforePayload) {
            slot.seq.store(tail + 1, Ordering::Release);
        }
        #[cfg(ssync_chk)]
        slot.witness.store(msg[0], Ordering::Relaxed);
        // SAFETY: we are the unique producer, and `tail - head < depth`
        // against an Acquire-loaded `head` means the consumer handed
        // this slot back; it will not look at `data` again before the
        // stamp below.
        unsafe { *slot.data.get() = msg };
        slot.seq.store(tail + 1, Ordering::Release);
        ring.producer.tail.set(tail + 1);
        Ok(())
    }

    /// True if the receiving half has been dropped: anything sent now
    /// (or still queued) will never be read.
    pub fn receiver_closed(&self) -> bool {
        self.ring.closed.load(Ordering::Acquire) & RX_CLOSED != 0
    }
}

impl RingReceiver {
    /// Receives the next message, spinning (then yielding) until one
    /// arrives.
    pub fn recv(&self) -> Message {
        let mut wait = SpinWait::new();
        loop {
            match self.try_recv() {
                Some(m) => return m,
                None => wait.snooze(),
            }
        }
    }

    /// Attempts to receive without blocking.
    pub fn try_recv(&self) -> Option<Message> {
        let ring = &*self.ring;
        let depth = ring.slots.len() as u64;
        // Consumer-owned: only this side stores `head`.
        let head = ring.head.load(Ordering::Relaxed);
        let slot = ring.slot(head);
        let seq = slot.seq.load(Ordering::Acquire);
        if seq != head + 1 {
            // Not published yet: the slot must still carry the previous
            // lap's stamp (0 on the first lap). Anything else means the
            // producer overran the bound and overwrote an unread slot.
            debug_assert!(
                seq == (head + 1).saturating_sub(depth),
                "ring slot stamp out of range (unread slot overwritten?): \
                 head {head}, stamp {seq}, depth {depth}"
            );
            return None;
        }
        // SAFETY: the Acquire load above saw this position's stamp, so
        // the payload write before it is visible, and the producer
        // leaves the slot alone until the hand-back below; we are the
        // unique consumer.
        let msg = unsafe { *slot.data.get() };
        #[cfg(ssync_chk)]
        let msg = {
            let mut seen = msg;
            seen[0] = slot.witness.load(Ordering::Relaxed);
            seen
        };
        ring.head.store(head + 1, Ordering::Release);
        Some(msg)
    }

    /// True if a message is waiting (advisory).
    pub fn has_message(&self) -> bool {
        let ring = &*self.ring;
        let head = ring.head.load(Ordering::Relaxed);
        ring.slot(head).seq.load(Ordering::Relaxed) == head + 1
    }

    /// True if the sending half has been dropped. Queued messages may
    /// still be waiting — drain with [`RingReceiver::try_recv`] before
    /// concluding the conversation is over.
    pub fn sender_closed(&self) -> bool {
        self.ring.closed.load(Ordering::Acquire) & TX_CLOSED != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_capacity() {
        let (tx, rx) = ring_channel(8);
        for i in 0..8u64 {
            tx.try_send([i; MSG_WORDS]).unwrap();
        }
        assert!(tx.try_send([99; MSG_WORDS]).is_err(), "ring must bound");
        for i in 0..8u64 {
            assert_eq!(rx.recv(), [i; MSG_WORDS]);
        }
        assert!(rx.try_recv().is_none());
    }

    #[test]
    fn wraps_around_many_times() {
        let (tx, rx) = ring_channel(4);
        for i in 0..1000u64 {
            tx.send([i, i + 1, 0, 0, 0, 0, 0]);
            if i % 3 == 0 {
                // Drain lazily so the ring wraps at varying fill.
                while let Some(m) = rx.try_recv() {
                    assert_eq!(m[1], m[0] + 1);
                }
            }
        }
        while rx.try_recv().is_some() {}
    }

    /// The shape `ssync-repl` builds its per-peer halves with: every
    /// send after the first goes through the cached-head refresh.
    #[test]
    fn depth_one_ring_alternates() {
        let (tx, rx) = ring_channel(1);
        for i in 0..10u64 {
            assert!(!rx.has_message());
            assert_eq!(tx.try_send([i; MSG_WORDS]), Ok(()));
            assert_eq!(tx.try_send([99; MSG_WORDS]), Err([99; MSG_WORDS]));
            assert!(rx.has_message());
            assert_eq!(rx.try_recv(), Some([i; MSG_WORDS]));
            assert_eq!(rx.try_recv(), None);
        }
    }

    #[test]
    fn threaded_burst_transfer_is_fifo() {
        let (tx, rx) = ring_channel(16);
        const N: u64 = 5_000;
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..N {
                    tx.send([i, 0, 0, 0, 0, 0, 0]);
                }
            });
            for i in 0..N {
                assert_eq!(rx.recv()[0], i);
            }
        });
    }

    /// A 1 KiB value is 19 frames: more than two laps of a depth-8
    /// ring per value, so the producer blocks on full mid-value and
    /// every slot is reused with the previous value's frames still
    /// fresh. Every word of every frame is checked — a frame torn
    /// between two laps, or two values' frames interleaved, fails.
    #[test]
    fn threaded_multi_frame_bursts_neither_tear_nor_interleave() {
        const FRAMES: u64 = 19;
        const VALUES: u64 = 600;
        let frame = |value: u64, index: u64| -> Message {
            core::array::from_fn(|w| (value << 16) | (index << 8) | w as u64)
        };
        let (tx, rx) = ring_channel(8);
        std::thread::scope(|s| {
            s.spawn(move || {
                for value in 0..VALUES {
                    for index in 0..FRAMES {
                        tx.send(frame(value, index));
                    }
                }
            });
            for value in 0..VALUES {
                for index in 0..FRAMES {
                    assert_eq!(
                        rx.recv(),
                        frame(value, index),
                        "value {value} frame {index}"
                    );
                }
            }
        });
        assert!(rx.try_recv().is_none());
    }

    /// The producer's plain cells must not cost the halves their
    /// auto traits: meshes move them across threads and share them.
    #[test]
    fn halves_stay_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RingSender>();
        assert_send_sync::<RingReceiver>();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = ring_channel(6);
    }

    /// The model-only payload witness widens the slot under the
    /// checker cfg; production slots are exactly one line.
    #[cfg(not(ssync_chk))]
    #[test]
    fn slot_is_exactly_one_cache_line() {
        assert_eq!(core::mem::size_of::<Slot>(), 64);
        assert_eq!(core::mem::align_of::<Slot>(), 64);
        let (tx, _rx) = ring_channel(4);
        let base = tx.ring.slots.as_ptr() as usize;
        assert_eq!(base % 64, 0, "slot array must start on a line boundary");
    }

    #[test]
    fn dropping_a_half_is_visible_and_queued_messages_survive() {
        let (tx, rx) = ring_channel(4);
        // Wrap the ring first: the backlog left at the drop sits in
        // reused slots, told apart from the previous lap by its stamps.
        for i in 0..6u64 {
            tx.send([100 + i; MSG_WORDS]);
            assert_eq!(rx.recv(), [100 + i; MSG_WORDS]);
        }
        tx.send([1; MSG_WORDS]);
        tx.send([2; MSG_WORDS]);
        tx.send([3; MSG_WORDS]);
        drop(tx);
        assert!(rx.sender_closed());
        // The drop signal must not eat the queued backlog.
        assert_eq!(rx.try_recv(), Some([1; MSG_WORDS]));
        assert_eq!(rx.try_recv(), Some([2; MSG_WORDS]));
        assert_eq!(rx.try_recv(), Some([3; MSG_WORDS]));
        assert!(rx.try_recv().is_none());
        assert!(!rx.has_message());

        let (tx, rx) = ring_channel(4);
        assert!(!tx.receiver_closed());
        drop(rx);
        assert!(tx.receiver_closed());
    }
}
