//! Model-checked interleavings of the real `ssync-mp` transports.
//!
//! Compiled only under `RUSTFLAGS='--cfg ssync_chk'`: the crate's
//! atomics resolve to `ssync-chk` shadow atomics and `SpinWait` /
//! `ParkingWait` degenerate to one scheduler yield per poll, so the
//! checker exhaustively interleaves the actual `send`/`recv` protocol
//! code — the ring's sequence-stamped slots with the producer's cached
//! `head`, and the one-line channel's flag protocol — up to the
//! preemption bound.
//!
//! # What the ring models cover
//!
//! The ring protocol is plain message passing, twice: the producer's
//! payload write is published by the Release store of the slot's `seq`
//! and consumed after an Acquire load of it; the consumer's payload
//! read is published by the Release store of `head` and the slot is
//! overwritten only after an Acquire load of it (possibly a cached
//! one — `head` is monotone). No thread ever stores one location and
//! then loads another that its peer stored, so there is no
//! store-buffering shape whose outcome the protocol depends on.
//!
//! The checker's weak mode is **TSO-only** (per-thread store buffers:
//! stores may become visible late, loads are never satisfied early —
//! ROADMAP item 4), so "weak" below means store-side reordering. That
//! is the class a publish-before-payload bug lives in; the
//! Release/Acquire pairing on ARM-class machines rests on the argument
//! above, not on a model run.
//!
//! The checker sees only shadow atomics, not plain memory, so under
//! this cfg each slot mirrors word 0 of its payload through a Relaxed
//! shadow atomic (`Slot::witness` in `ring.rs`): a frame whose payload
//! is not yet visible when its stamp is reads back with a stale word 0
//! and fails the models' whole-frame equality.
//!
//! Four `expect_violation` twins remove one guard each through
//! `ring_channel_with_fault` (a hook that exists only under this cfg)
//! and must be *caught*, proving the guards load-bearing: two on the
//! per-frame protocol, two on the burst path (`ring.rs`'s "Bursts").
//!
//! Run with:
//! `RUSTFLAGS='--cfg ssync_chk' cargo test -p ssync-mp --test chk_models`
#![cfg(ssync_chk)]

use ssync_chk::{thread, Builder};
use ssync_core::ParkingWait;
use ssync_mp::ring::{ring_channel_with_fault, RingFault};
use ssync_mp::{channel, ring_channel, RingReceiver, RingSender, MSG_WORDS};

/// Producer streams frames `1..=frames` with blocking sends, consumer
/// drains them with blocking receives; every frame must arrive exactly
/// once, whole, in order, and both loops must terminate (a lost
/// hand-back would be reported as a livelock).
fn stream(tx: RingSender, rx: RingReceiver, frames: u64) {
    let producer = thread::spawn(move || {
        for i in 1..=frames {
            tx.send([i; MSG_WORDS]);
        }
    });
    for i in 1..=frames {
        assert_eq!(
            rx.recv(),
            [i; MSG_WORDS],
            "frame {i} lost, duplicated, reordered, or torn"
        );
    }
    producer.join();
    assert!(!rx.has_message(), "phantom frame after the stream");
    assert!(rx.try_recv().is_none(), "phantom frame after the stream");
}

/// The weak-memory scenario, loop-free. Under store buffering a
/// blocked producer and a polling consumer can spin against each other
/// for as long as a store sits in a buffer — an unbounded schedule
/// tree — so neither side blocks here. The producer fills the ring
/// (sends that cannot be refused) and offers the wrap-around frame
/// once: schedules where the consumer's hand-back has committed take
/// the cached-head refresh and reuse slot 0, the others take the
/// refused-frame path. The consumer polls `depth + 1` times while the
/// producer runs — whatever it gets must be the next whole frame — and
/// drains the rest after the join.
fn fill_then_wrap(tx: RingSender, rx: RingReceiver, depth: u64) {
    let producer = thread::spawn(move || {
        for i in 1..=depth {
            assert_eq!(
                tx.try_send([i; MSG_WORDS]),
                Ok(()),
                "ring refused frame {i}"
            );
        }
        let wrap = [depth + 1; MSG_WORDS];
        match tx.try_send(wrap) {
            Ok(()) => depth + 1,
            Err(back) => {
                assert_eq!(back, wrap, "refused frame came back changed");
                depth
            }
        }
    });
    let mut got = 0u64;
    let mut poll = || {
        let frame = rx.try_recv()?;
        got += 1;
        assert_eq!(
            frame, [got; MSG_WORDS],
            "frame {got} lost, duplicated, reordered, or torn"
        );
        Some(())
    };
    for _ in 0..=depth {
        poll();
    }
    let sent = producer.join();
    while poll().is_some() {}
    assert_eq!(got, sent, "frames delivered vs frames accepted");
}

/// Depth 2, 2·depth + 1 frames: in the schedules where the producer
/// runs ahead it fills the ring against its cached `head` of 0, finds
/// it full, goes through the Acquire *refresh* — and, where the
/// consumer has not moved yet, through the blocked-on-full path
/// (`try_send` returns the frame, `send` retries it) — then wraps
/// every slot at least twice. No loss on wrap-around, no duplication
/// when a refused frame is retried.
#[test]
fn ring_delivers_every_frame_in_order_across_wraps() {
    let report = Builder::new().check(|| {
        let (tx, rx) = ring_channel(2);
        stream(tx, rx, 5);
    });
    assert!(!report.truncated, "exploration truncated: {report:?}");
    eprintln!("ring strong-memory model: {} executions", report.executions);
}

/// The same protocol under the store-buffer memory model: the Release
/// stores of `seq` (publish) and `head` (slot hand-back) are all that
/// orders the two sides, and they must still be enough — including
/// for the frame that reuses slot 0 while the stores of its first
/// occupant, and of the consumer's hand-back, may still sit in
/// buffers.
#[test]
fn ring_protocol_is_sound_under_weak_memory() {
    let report = Builder::new()
        .with_weak_memory(true)
        .with_max_executions(100_000)
        .check(|| {
            let (tx, rx) = ring_channel(2);
            fill_then_wrap(tx, rx, 2);
        });
    assert!(!report.truncated, "exploration truncated: {report:?}");
    eprintln!("ring weak-memory model: {} executions", report.executions);
}

/// Depth 1 — the shape `ssync-repl` builds its per-peer halves with.
/// The single slot is reused by every frame, the mask is zero, and
/// every send after the first finds the cached `head` stale and must
/// refresh it. Strong memory streams three frames through blocking
/// calls; under store buffering each publication chases the previous
/// hand-back on the same line.
#[test]
fn depth_one_ring_hands_its_single_slot_back_and_forth() {
    let report = Builder::new().check(|| {
        let (tx, rx) = ring_channel(1);
        stream(tx, rx, 3);
    });
    assert!(!report.truncated, "exploration truncated: {report:?}");
    eprintln!(
        "ring depth-1 strong model: {} executions",
        report.executions
    );

    let report = Builder::new().with_weak_memory(true).check(|| {
        let (tx, rx) = ring_channel(1);
        fill_then_wrap(tx, rx, 1);
    });
    assert!(!report.truncated, "exploration truncated: {report:?}");
    eprintln!("ring depth-1 weak model: {} executions", report.executions);
}

/// Twin of the publish order: `seq` stored *before* the payload write,
/// in the depth-1 weak scenario above. Under store buffering the stamp
/// can commit while the payload still sits behind it, and the consumer
/// reads a frame that is not there yet — the checker must exhibit it.
#[test]
fn publishing_the_stamp_before_the_payload_is_caught() {
    let violation = Builder::new().with_weak_memory(true).expect_violation(|| {
        let (tx, rx) = ring_channel_with_fault(1, RingFault::PublishBeforePayload);
        fill_then_wrap(tx, rx, 1);
    });
    assert!(
        violation.message.contains("torn"),
        "wrong failure: {violation}"
    );
    eprintln!(
        "ring publish-before-payload twin: caught at execution {}",
        violation.execution
    );
}

/// Twin of the full check: when its cached `head` calls the ring full
/// the producer skips the Acquire re-load and the re-check, as if a
/// stale copy could only err on the safe side of *that* decision too.
/// Frame 3 then lands on slot 0 while frame 1 may still be unread
/// there: the consumer either reads frame 3's payload under frame 1's
/// stamp, or finds a stamp from a lap it never saw (the receive side's
/// range assertion).
#[test]
fn skipping_the_head_reload_overwrites_an_unread_slot() {
    let violation = Builder::new().expect_violation(|| {
        let (tx, rx) = ring_channel_with_fault(2, RingFault::SkipHeadReload);
        stream(tx, rx, 3);
    });
    assert!(
        violation.message.contains("frame 1 lost")
            || violation.message.contains("unread slot overwritten"),
        "wrong failure: {violation}"
    );
    eprintln!(
        "ring skip-head-reload twin: caught at execution {}",
        violation.execution
    );
}

/// One three-frame message — longer than the depth-2 ring it crosses —
/// sent with `send_all` and received with `recv_burst_connected`: the
/// producer publishes a partial run (two frames) and blocks on the full
/// ring, the consumer waits on the second frame's stamp only and hands
/// both slots back at once, and the third frame reuses slot 0.
fn burst_through(tx: RingSender, rx: RingReceiver) {
    let frames = [[1; MSG_WORDS], [2; MSG_WORDS], [3; MSG_WORDS]];
    let producer = thread::spawn(move || tx.send_all(&frames));
    let mut got = Vec::new();
    assert_eq!(rx.recv_burst_connected(frames.len(), &mut got), Ok(()));
    assert_eq!(got, frames, "burst lost, reordered, or torn");
    producer.join();
    assert!(!rx.has_message(), "phantom frame after the burst");
}

/// [`burst_through`] without blocking (see [`fill_then_wrap`]): the
/// producer's first run must fill the empty ring and stop short of the
/// message's end; its second run gets the third frame out only where
/// the consumer's hand-back has landed. The consumer polls twice while
/// the producer runs — a chunk of at most `depth` frames, whole or not
/// at all — and drains the rest after the join.
fn burst_then_wrap(tx: RingSender, rx: RingReceiver) {
    let frames = [[1; MSG_WORDS], [2; MSG_WORDS], [3; MSG_WORDS]];
    let producer = thread::spawn(move || {
        assert_eq!(tx.try_send_burst(&frames), 2, "a run must fill the ring");
        2 + tx.try_send_burst(&frames[2..])
    });
    let mut got = Vec::new();
    let mut poll = |got: &mut Vec<_>| {
        let chunk = (frames.len() - got.len()).min(2);
        chunk > 0 && rx.try_recv_burst(chunk, got)
    };
    poll(&mut got);
    poll(&mut got);
    let sent = producer.join();
    while got.len() < sent {
        assert!(poll(&mut got), "a published chunk was not taken");
    }
    assert_eq!(got, frames[..sent], "burst lost, reordered, or torn");
}

/// The loop-free burst scenario has a finite schedule tree, so it runs
/// with the preemption bound lifted. It has to: at the default bound of
/// 3 the sleep-set pruning loses interleavings a bounded search cannot
/// re-reach another way, and neither memory model then finds the
/// stamp-order twin below (6 strong and 2 224 weak executions pass).
fn exhaustive() -> Builder {
    Builder::new().with_preemption_bound(usize::MAX)
}

/// Bursts longer than the ring: greedy partial publication, the
/// consumer's at-most-`depth` wait on a chunk's last stamp, one
/// hand-back per chunk, and the wrap into a slot that chunk handed back
/// — exhaustively under both memory models, then once more through the
/// blocking loops (`send_all`'s runs, `recv_burst_connected`'s chunks).
#[test]
fn bursts_longer_than_the_ring_arrive_whole() {
    let report = exhaustive().check(|| {
        let (tx, rx) = ring_channel(2);
        burst_then_wrap(tx, rx);
    });
    assert!(!report.truncated, "exploration truncated: {report:?}");
    eprintln!("ring burst strong model: {} executions", report.executions);

    let report = exhaustive()
        .with_weak_memory(true)
        .with_max_executions(100_000)
        .check(|| {
            let (tx, rx) = ring_channel(2);
            burst_then_wrap(tx, rx);
        });
    assert!(!report.truncated, "exploration truncated: {report:?}");
    eprintln!("ring burst weak model: {} executions", report.executions);

    // Spinning loops make an unbounded tree: one switch over the
    // default bound reaches the producer's blocked second run.
    let report = Builder::new().with_preemption_bound(4).check(|| {
        let (tx, rx) = ring_channel(2);
        burst_through(tx, rx);
    });
    assert!(!report.truncated, "exploration truncated: {report:?}");
    eprintln!(
        "ring burst blocking model: {} executions",
        report.executions
    );
}

/// Twin of the burst receive's one Acquire load: a run stamps its last
/// slot before the earlier payloads are written, and the consumer —
/// which reads only that stamp — copies a frame that is not there yet.
#[test]
fn stamping_a_later_slot_before_an_earlier_payload_is_caught() {
    let violation = exhaustive().expect_violation(|| {
        let (tx, rx) = ring_channel_with_fault(2, RingFault::StampBeforeEarlierPayload);
        burst_then_wrap(tx, rx);
    });
    assert!(
        violation.message.contains("torn"),
        "wrong failure: {violation}"
    );
    eprintln!(
        "ring stamp-before-earlier-payload twin: caught at execution {}",
        violation.execution
    );
}

/// Twin of the greedy producer: it waits for room for the whole
/// three-frame message, which a depth-2 ring never has, while the
/// consumer waits for a chunk nobody publishes.
#[test]
fn waiting_for_room_for_the_whole_burst_is_caught() {
    let violation = Builder::new().expect_violation(|| {
        let (tx, rx) = ring_channel_with_fault(2, RingFault::WholeBurstSpace);
        burst_through(tx, rx);
    });
    assert!(
        violation.message.contains("livelock") || violation.message.contains("deadlock"),
        "wrong failure: {violation}"
    );
    eprintln!(
        "ring whole-burst-space twin: caught at execution {}",
        violation.execution
    );
}

/// A consumer idling in `ParkingWait::snooze` (the server-loop wait,
/// which on real hardware escalates from spinning to parking) must be
/// woken by a concurrent send in every interleaving: if the flag
/// publication could race past the poll, the checker would report the
/// parked consumer as a livelock.
#[test]
fn parking_consumer_never_misses_a_wakeup() {
    let report = Builder::new().check(|| {
        let (tx, rx) = channel();
        let consumer = thread::spawn(move || {
            let mut wait = ParkingWait::new();
            loop {
                if let Some(m) = rx.try_recv() {
                    return m;
                }
                wait.snooze();
            }
        });
        tx.send([42; MSG_WORDS]);
        assert_eq!(consumer.join(), [42; MSG_WORDS]);
    });
    assert!(!report.truncated, "exploration truncated: {report:?}");
    eprintln!("parking wakeup model: {} executions", report.executions);
}

/// The one-line channel's full/empty flag protocol round-trips two
/// messages in order, and the sender's busy-wait for the buffer to
/// drain never deadlocks against the receiver's wait for it to fill.
#[test]
fn channel_ping_pong_is_fifo_and_live() {
    let report = Builder::new().check(|| {
        let (tx, rx) = channel();
        let producer = thread::spawn(move || {
            tx.send([1; MSG_WORDS]);
            tx.send([2; MSG_WORDS]);
        });
        assert_eq!(rx.recv(), [1; MSG_WORDS]);
        assert_eq!(rx.recv(), [2; MSG_WORDS]);
        producer.join();
        assert!(!rx.has_message(), "phantom message after the stream");
    });
    assert!(!report.truncated, "exploration truncated: {report:?}");
    eprintln!("channel FIFO model: {} executions", report.executions);
}
