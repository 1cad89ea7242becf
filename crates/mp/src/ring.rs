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
//! it runs ahead of the consumer, not once per send (a burst re-loads
//! when the copy leaves less room than the message; see "Bursts").
//!
//! # Bursts
//!
//! A multi-frame message — a long value's head and continuations, a
//! replication entry, a migrated page's entry — can cross the ring as
//! one burst instead of one hop per frame.
//!
//! * **Send** ([`RingSender::try_send_burst`], and the blocking
//!   [`RingSender::send_all`] / [`RingSender::send_all_connected`],
//!   one [`block_on`] over it) writes a *run*: one space check against
//!   the cached `head`, re-loaded once if the copy does not cover the
//!   whole message, then payload and stamp of each free slot in
//!   position order.
//! * **Receive** ([`RingReceiver::try_recv_burst`], and the resumable
//!   [`RingReceiver::poll_burst`] over it) takes the next `k`
//!   frames by polling only the *last* one's stamp, `seq == head + k`
//!   (Acquire), copying the `k` payloads, and handing every slot back
//!   with one `head = head + k` (Release).
//!
//! **One Acquire load covers every earlier payload.** The producer
//! writes positions in order and each payload before its own stamp, so
//! in its program order every payload of positions `head..head + k`
//! precedes the Release store of the last stamp. An Acquire load that
//! reads that stamp synchronizes with that store, and everything
//! sequenced before it — the earlier payloads included — is visible;
//! the earlier stamps need not be read. None of those slots can be
//! rewritten under the copy either: the next lap of position `p` is
//! `p + depth`, which the producer writes only once it has seen a
//! `head` past `p`, and only this hand-back moves `head` past them.
//! What the argument forbids is a later slot stamped before an earlier
//! payload is written (the `StampBeforeEarlierPayload` model twin).
//!
//! **The producer is greedy.** A run publishes as many frames as there
//! is room for, and the producer comes back for the rest; it never
//! waits for room for the whole message. A message longer than the
//! ring — a 1 KiB value is 19 frames, a serving ring may be 8 deep, a
//! replication entry may go over a depth-1 ring — would otherwise wait
//! for space that cannot exist while the consumer waits for frames that
//! cannot be sent (the `WholeBurstSpace` model twin).
//!
//! **The consumer waits at most `depth` positions ahead.** A message of
//! `n` frames is taken in chunks of `min(remaining, depth)`: the last
//! position it waits on is below `head + depth`, inside the producer's
//! bound, so a greedy producer can always reach it.
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

use ssync_core::{block_on, until, CachePadded};

use crate::channel::Message;
use crate::channel::{RX_CLOSED, TX_CLOSED};
use crate::hub::{Disconnected, RecvError};
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
/// consumer after an Acquire load of `seq == q + 1` for some `q` in
/// `p..head + depth` — its own stamp, or a later one of the same burst —
/// pairing with the producer's Release publication. No slot is ever
/// accessed concurrently.
struct Ring {
    slots: Box<[Slot]>,
    producer: CachePadded<Producer>,
    /// Next position the consumer reads; only the consumer advances
    /// it, and the producer loads it only when its cached copy leaves
    /// too little room for the frames at hand.
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
    /// A burst run writes its last frame, stamp included, before the
    /// earlier frames' payloads.
    StampBeforeEarlierPayload,
    /// A burst publishes nothing until the whole message fits.
    WholeBurstSpace,
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

    /// Writes `msg` into position `pos` and stamps it. Called only by
    /// the unique producer, for a `pos` below a `head + depth` it
    /// Acquire-loaded (possibly through its cached copy).
    fn publish(&self, pos: u64, msg: Message) {
        let slot = self.slot(pos);
        #[cfg(ssync_chk)]
        if self.fault == Some(RingFault::PublishBeforePayload) {
            slot.seq.store(pos + 1, Ordering::Release);
        }
        #[cfg(ssync_chk)]
        slot.witness.store(msg[0], Ordering::Relaxed);
        // SAFETY: we are the unique producer, and `pos < head + depth`
        // against an Acquire-loaded `head` means the consumer handed
        // this slot back; it will not look at `data` again before the
        // stamp below.
        unsafe { *slot.data.get() = msg };
        slot.seq.store(pos + 1, Ordering::Release);
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
    /// Attempts to send without blocking; returns the message back if
    /// the ring is full.
    pub fn try_send(&self, msg: Message) -> Result<(), Message> {
        match self.try_send_burst(core::slice::from_ref(&msg)) {
            0 => Err(msg),
            _ => Ok(()),
        }
    }

    /// Publishes the longest prefix of `frames` the ring has room for —
    /// one run, one space check — and returns its length (0 when the
    /// ring is full or `frames` empty). See the module docs' "Bursts".
    pub fn try_send_burst(&self, frames: &[Message]) -> usize {
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
        let want = frames.len() as u64;
        let short = depth - (tail - head) < want;
        #[cfg(ssync_chk)]
        let short = short && ring.fault != Some(RingFault::SkipHeadReload);
        if short {
            // The cached copy may lag: only the real `head` can bound
            // the run. Acquire pairs with the consumer's Release
            // hand-back, so its reads of the slots we are about to
            // overwrite are complete.
            head = ring.head.load(Ordering::Acquire);
            debug_assert!(
                head <= tail && tail - head <= depth,
                "ring counters out of range: head {head}, tail {tail}"
            );
            ring.producer.cached_head.set(head);
        }
        let run = want.min(depth - (tail - head));
        #[cfg(ssync_chk)]
        let run = match ring.fault {
            Some(RingFault::SkipHeadReload) => want,
            Some(RingFault::WholeBurstSpace) if run < want => 0,
            _ => run,
        };
        let frames = &frames[..run as usize];
        #[cfg(ssync_chk)]
        let frames = match frames.split_last() {
            Some((&last, earlier)) if ring.fault == Some(RingFault::StampBeforeEarlierPayload) => {
                ring.publish(tail + run - 1, last);
                earlier
            }
            _ => frames,
        };
        for (pos, &msg) in (tail..).zip(frames) {
            ring.publish(pos, msg);
        }
        ring.producer.tail.set(tail + run);
        run as usize
    }

    /// Sends every frame in order, blocking (spin then yield) while the
    /// ring is full, one greedy run at a time: it never waits for room
    /// for the whole message, so a message longer than the ring goes
    /// through.
    pub fn send_all(&self, frames: &[Message]) {
        let _ = self.send_runs(frames, || false);
    }

    /// [`RingSender::send_all`] with an escape: fails once the
    /// receiving half is gone — checked before every run — instead of
    /// spinning against a ring nobody will drain.
    ///
    /// # Errors
    ///
    /// [`Disconnected`] if the receiving half was dropped; runs before
    /// the failing check were already published.
    pub fn send_all_connected(&self, frames: &[Message]) -> Result<(), Disconnected> {
        self.send_runs(frames, || self.receiver_closed())
    }

    /// One wait: a poll publishes runs until the ring refuses one.
    fn send_runs(
        &self,
        mut frames: &[Message],
        closed: impl Fn() -> bool,
    ) -> Result<(), Disconnected> {
        block_on(until(|| loop {
            if frames.is_empty() {
                return Some(Ok(()));
            }
            if closed() {
                return Some(Err(Disconnected));
            }
            match self.try_send_burst(frames) {
                0 => return None,
                run => frames = &frames[run..],
            }
        }))
    }

    /// True if the receiving half has been dropped: anything sent now
    /// (or still queued) will never be read.
    pub fn receiver_closed(&self) -> bool {
        self.ring.closed.load(Ordering::Acquire) & RX_CLOSED != 0
    }
}

impl RingReceiver {
    /// Attempts to receive without blocking.
    pub fn try_recv(&self) -> Option<Message> {
        let mut msg = None;
        self.take(1, |m| msg = Some(m));
        msg
    }

    /// Appends the next `n` messages to `out` if all of them are
    /// published — one Acquire load of the last one's stamp, one
    /// hand-back — and returns whether it did; consumes nothing
    /// otherwise. See the module docs' "Bursts".
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds the ring's depth.
    pub fn try_recv_burst(&self, n: usize, out: &mut Vec<Message>) -> bool {
        assert!(
            (1..=self.ring.slots.len()).contains(&n),
            "a burst takes 1..=depth frames"
        );
        self.take(n as u64, |m| out.push(m))
    }

    /// One non-blocking step toward `n` messages in `out`: takes the
    /// next chunks of at most `depth` frames each while they are
    /// published, and says whether `out` got to `n`. The ring's
    /// [`MsgReceiver::poll_burst`](crate::MsgReceiver::poll_burst); a
    /// blocking caller loops it under [`block_on`].
    ///
    /// # Errors
    ///
    /// [`RecvError::Disconnected`] if the sending half was dropped
    /// before the `n`-th message was published; whatever it did publish
    /// is consumed, so the ring reads drained.
    #[inline]
    pub fn poll_burst(&self, n: usize, out: &mut Vec<Message>) -> Result<bool, RecvError> {
        let depth = self.ring.slots.len();
        while out.len() < n {
            let chunk = (n - out.len()).min(depth);
            if self.try_recv_burst(chunk, out) {
                continue;
            }
            if !self.sender_closed() {
                return Ok(false);
            }
            // Final drain: the sender may have published the chunk
            // between the failed poll above and its drop.
            if !self.try_recv_burst(chunk, out) {
                out.extend(core::iter::from_fn(|| self.try_recv()));
                return Err(RecvError::Disconnected);
            }
        }
        Ok(true)
    }

    /// The one consumer step under every receive: if positions
    /// `head..head + n` (`1 <= n <= depth`) are all published, hands
    /// their payloads to `each` in order, then the slots back.
    #[inline]
    fn take(&self, n: u64, mut each: impl FnMut(Message)) -> bool {
        let ring = &*self.ring;
        let depth = ring.slots.len() as u64;
        // Consumer-owned: only this side stores `head`.
        let head = ring.head.load(Ordering::Relaxed);
        let last = head + n - 1;
        let seq = ring.slot(last).seq.load(Ordering::Acquire);
        if seq != last + 1 {
            // Not published yet: the slot must still carry the previous
            // lap's stamp (0 on the first lap). Anything else means the
            // producer overran the bound and overwrote an unread slot.
            debug_assert!(
                seq == (last + 1).saturating_sub(depth),
                "ring slot stamp out of range (unread slot overwritten?): \
                 position {last}, stamp {seq}, depth {depth}"
            );
            return false;
        }
        for pos in head..=last {
            let slot = ring.slot(pos);
            // SAFETY: the Acquire load above saw the last position's
            // stamp, so every payload written before it — this one
            // included — is visible, and the producer leaves these slots
            // alone until the hand-back below; we are the unique
            // consumer.
            let msg = unsafe { *slot.data.get() };
            #[cfg(ssync_chk)]
            let msg = {
                let mut seen = msg;
                seen[0] = slot.witness.load(Ordering::Relaxed);
                seen
            };
            each(msg);
        }
        ring.head.store(last + 1, Ordering::Release);
        true
    }

    /// How many messages this receiver has taken off the ring so far,
    /// read on the receiving thread.
    pub fn received(&self) -> u64 {
        // Consumer-owned: only this side stores `head`.
        self.ring.head.load(Ordering::Relaxed)
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
    use crate::{MsgReceiver, MsgSender};

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

    /// The same traffic as one burst per value on both sides, at depths
    /// below the message length: every value is more than a whole ring,
    /// so the greedy producer publishes partial runs while the consumer
    /// waits on chunks of at most `depth` frames — and a producer that
    /// waited for room for the whole message would hang here.
    #[test]
    fn threaded_bursts_longer_than_the_ring_neither_tear_nor_interleave() {
        const FRAMES: u64 = 19;
        const VALUES: u64 = 300;
        let value = |v: u64| -> Vec<Message> {
            (0..FRAMES)
                .map(|index| core::array::from_fn(|w| (v << 16) | (index << 8) | w as u64))
                .collect()
        };
        for depth in [1, 2, 8] {
            let (tx, rx) = ring_channel(depth);
            std::thread::scope(|s| {
                s.spawn(move || {
                    for v in 0..VALUES {
                        tx.send_all(&value(v));
                    }
                });
                let recv_burst = |n, got: &mut Vec<Message>| {
                    got.clear();
                    block_on(until(|| match rx.poll_burst(n, got) {
                        Ok(false) => None,
                        done => Some(done.map(drop)),
                    }))
                };
                let mut got = Vec::new();
                for v in 0..VALUES {
                    assert_eq!(recv_burst(FRAMES as usize, &mut got), Ok(()));
                    assert_eq!(got, value(v), "depth {depth} value {v}");
                }
                assert_eq!(recv_burst(1, &mut got), Err(RecvError::Disconnected));
            });
        }
    }

    /// Per-frame and burst traffic interleave on one ring in FIFO
    /// order, across laps: a burst starts wherever the last single
    /// frame left the ring, on either side.
    #[test]
    fn per_frame_and_burst_traffic_share_one_fifo() {
        const DEPTH: usize = 4;
        let (tx, rx) = ring_channel(DEPTH);
        let frames =
            |from: u64, to: u64| -> Vec<Message> { (from..to).map(|i| [i; MSG_WORDS]).collect() };
        let (mut sent, mut read) = (0u64, 0u64);
        let mut got = Vec::new();
        for round in 0..64u64 {
            // Offer 1..=5 frames, one by one or as one burst; either way
            // only what the free slots hold goes out.
            let offered = frames(sent, sent + round % 5 + 1);
            let free = DEPTH - (sent - read) as usize;
            let took = if round % 2 == 0 {
                tx.try_send_burst(&offered)
            } else {
                offered
                    .iter()
                    .take_while(|&&f| tx.try_send(f).is_ok())
                    .count()
            };
            assert_eq!(took, offered.len().min(free), "round {round}");
            sent += took as u64;
            // Drain one frame, or the whole backlog as one burst (one
            // more than is queued is refused and consumes nothing).
            let queued = (sent - read) as usize;
            if round % 3 == 0 {
                assert_eq!(rx.try_recv(), Some([read; MSG_WORDS]));
                read += 1;
            } else {
                if queued < DEPTH {
                    assert!(!rx.try_recv_burst(queued + 1, &mut got));
                }
                got.clear();
                assert!(rx.try_recv_burst(queued, &mut got));
                assert_eq!(got, frames(read, sent), "round {round}");
                read = sent;
            }
        }
        assert!(read > 16 * DEPTH as u64, "the traffic must lap the ring");
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
