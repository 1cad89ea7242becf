//! The resumable stream decode against damaged replication streams.
//!
//! Valid `Replicate`/`ReplicateDelete` frame sequences are mutated (bit
//! flips, word swaps, random heads), published into a small ring in
//! random-sized runs — so a message's continuation frames straddle the
//! decoder's polls — and decoded with `StreamDecoder::try_recv` between
//! runs. Every message the decoder yields must equal the one-shot
//! `Request::decode` of the same frames and take exactly the frames its
//! head announces; every accepted message must re-encode to itself, and
//! every accepted entry is applied to a store through `EntryView`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ssync_mp::{ring_channel, Message, MSG_WORDS};
use ssync_repl::EntryView;
use ssync_srv::wire::{replay, HEAD_VALUE_BYTES, MAX_VALUE_LEN};
use ssync_srv::{Request, Store, StreamDecoder, WireError};

/// Ring slots: fewer than the longest message's frames, so its
/// continuations are taken in chunks across polls.
const DEPTH: usize = 8;

/// A valid replication stream of one to six entries, and the index of
/// each entry's head frame.
fn stream(rng: &mut SmallRng) -> (Vec<Message>, Vec<usize>) {
    let mut frames = Vec::new();
    let mut heads = Vec::new();
    for _ in 0..rng.gen_range(1u8..=6) {
        heads.push(frames.len());
        let key = rng.gen();
        let version = match rng.gen_range(0u8..8) {
            0 => 0,
            1 => u64::MAX,
            _ => rng.gen(),
        };
        let request = if rng.gen_range(0u8..4) == 0 {
            Request::ReplicateDelete { key, version }
        } else {
            let len = match rng.gen_range(0u8..4) {
                0 => rng.gen_range(0..=HEAD_VALUE_BYTES + 1),
                1 => rng.gen_range(0..=200),
                _ => rng.gen_range(0..=MAX_VALUE_LEN),
            };
            let value = (0..len).map(|_| rng.gen::<u8>()).collect();
            Request::Replicate {
                key,
                version,
                value,
            }
        };
        frames.extend(request.encode());
    }
    (frames, heads)
}

/// Damages a stream in place: bit flips, a word swap, or a wholly (or
/// in its length and opcode word) random head.
fn mutate(frames: &mut [Message], heads: &[usize], rng: &mut SmallRng) {
    let words = frames.len() * MSG_WORDS;
    let at = |rng: &mut SmallRng| {
        // Half the damage lands on a head frame, where the framing is.
        let w = if rng.gen::<bool>() {
            heads[rng.gen_range(0..heads.len())] * MSG_WORDS + rng.gen_range(0..MSG_WORDS)
        } else {
            rng.gen_range(0..words)
        };
        (w / MSG_WORDS, w % MSG_WORDS)
    };
    let head = heads[rng.gen_range(0..heads.len())];
    match rng.gen_range(0u8..4) {
        0 => {
            for _ in 0..rng.gen_range(1u8..=3) {
                let (f, w) = at(rng);
                frames[f][w] ^= 1 << rng.gen_range(0u32..64);
            }
        }
        1 => {
            let ((f1, w1), (f2, w2)) = (at(rng), at(rng));
            let word = frames[f1][w1];
            frames[f1][w1] = frames[f2][w2];
            frames[f2][w2] = word;
        }
        2 => frames[head] = std::array::from_fn(|_| rng.gen()),
        _ => frames[head][0] = rng.gen::<u64>() & 0xFFFF_FFFF,
    }
}

/// The one-shot decode of `frames`, message by message: each result
/// and the frames it spans. A tail whose head announces more frames
/// than remain reads as `Disconnected`, as a dropped sender leaves it.
fn one_shot(frames: &[Message]) -> Vec<(Result<Request, WireError>, usize)> {
    let mut out = Vec::new();
    let mut at = 0;
    while at < frames.len() {
        let announced = Request::continuations(&frames[at]);
        let end = at + 1 + announced;
        if end > frames.len() {
            out.push((Err(WireError::Disconnected), frames.len() - at));
            break;
        }
        let mut more = replay(&frames[at + 1..end]);
        let mut pulled = 0;
        let decoded = Request::decode(frames[at], || {
            pulled += 1;
            more()
        });
        assert!(
            pulled <= announced,
            "one-shot decode pulled {pulled} frames, head announces {announced}"
        );
        out.push((decoded, 1 + announced));
        at = end;
    }
    out
}

/// One case: a damaged stream through the ring and the stream decoder,
/// checked message by message against [`one_shot`].
fn fuzz_case(rng: &mut SmallRng) {
    let (mut frames, heads) = stream(rng);
    mutate(&mut frames, &heads, rng);
    let expected = one_shot(&frames);

    let (tx, rx) = ring_channel(DEPTH);
    let mut tx = Some(tx);
    let mut decoder = StreamDecoder::default();
    let store = Store::new(8, 2);
    let mut got = Vec::new();
    let mut sent = 0;
    for _ in 0..4 * frames.len() + 4 {
        if let Some(sender) = &tx {
            let run = rng.gen_range(1..=DEPTH + 2).min(frames.len() - sent);
            sent += sender.try_send_burst(&frames[sent..sent + run]);
        }
        while let Some(result) = decoder.try_recv(&rx) {
            got.push((result, rx.received() as usize));
        }
        if sent == frames.len() {
            // Drop the sender, then drain once more: a truncated tail
            // now reads as disconnected.
            if tx.take().is_none() {
                break;
            }
        }
    }
    assert!(tx.is_none(), "the stream never drained");

    assert_eq!(got.len(), expected.len(), "messages decoded");
    let mut end = 0;
    for ((result, taken), (want, span)) in got.into_iter().zip(expected) {
        end += span;
        assert_eq!(result, want, "stream decode vs one-shot decode");
        assert_eq!(taken, end, "frames taken through this message");
        let Ok(request) = result else { continue };
        let again = request.encode();
        assert_eq!(again.len(), span, "re-encoded frame count");
        assert_eq!(
            Request::decode(again[0], replay(&again[1..])),
            Ok(request.clone())
        );
        if let Some(entry) = EntryView::of(&request) {
            entry.apply_to(&store);
        }
    }
}

fn fuzz(seed: u64, cases: u32) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for case in 0..cases {
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| fuzz_case(&mut rng))) {
            panic!("seed {seed:#x} case {case}: {panic:?}");
        }
    }
}

#[test]
fn stream_decode_survives_seeded_mutations() {
    fuzz(0x5EED_5744, 10_000);
}

/// The same fuzz at soak length; CI runs it release-built.
#[test]
#[ignore = "1 M cases: run with --release -- --ignored"]
fn stream_decode_survives_seeded_mutations_soak() {
    fuzz(0x5EED_50A5, 1_000_000);
}
