//! The wire format, pinned from outside the crate: golden frames
//! captured from the word-at-a-time encoder this codec replaced, an
//! exhaustive round trip over every value length, zeroed frame tails,
//! the continuation count a receiver takes as one burst, a seeded
//! mutation fuzz of both decoders, and one of the stats snapshot decoder
//! a scraped reply feeds.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ssync_core::stats::{mono_ns, RegistrySnapshot};
use ssync_core::Fence;
use ssync_locks::TicketLock;
use ssync_mp::{Message, MSG_WORDS};
use ssync_srv::wire::{
    encode_cas, encode_replicate, encode_set, encode_value, CONT_VALUE_BYTES, HEAD_VALUE_BYTES,
    MAX_VALUE_LEN, NO_LEADER, STATS_INLINE_BYTES,
};
use ssync_srv::{block_on, ring_mesh, serve, KvClient, Request, Response, ShardRouter, WireError};

include!("data/golden_frames.rs");

const KEY: u64 = 0x0123_4567_89AB_CDEF;
const AUX: u64 = 0xFEDC_BA98_7654_3210;
const CARRIERS: [&str; 4] = ["Set", "Cas", "Replicate", "Value"];
/// The responses that carry a fence; their golden rows' second column
/// is the fence, not a payload length.
const FENCE_CARRIERS: [&str; 3] = ["WrongLeader", "WrongLeader/NO_LEADER", "WrongShard"];

/// Payload bytes with no zero among them, so a zeroed tail shows.
fn bytes(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8 + 1).collect()
}

/// Either side's message, so one helper serves all five carriers.
#[derive(Debug, Clone, PartialEq)]
enum Msg {
    Req(Request),
    Resp(Response),
}

impl Msg {
    fn encode(&self) -> Vec<Message> {
        match self {
            Msg::Req(request) => request.encode(),
            Msg::Resp(response) => response.encode(),
        }
    }

    /// Decodes `frames` (zero frames past the end), counting the
    /// continuation frames the decoder pulled.
    fn decode(request: bool, frames: &[Message]) -> (Option<Msg>, usize) {
        let mut pulled = 0;
        let more = || {
            pulled += 1;
            frames.get(pulled).copied().unwrap_or([0; MSG_WORDS])
        };
        let msg = if request {
            Request::decode(frames[0], more).ok().map(Msg::Req)
        } else {
            Response::decode(frames[0], more).ok().map(Msg::Resp)
        };
        (msg, pulled)
    }

    fn is_request(&self) -> bool {
        matches!(self, Msg::Req(_))
    }
}

/// The continuation frames `head` announces to a receiver: what it
/// takes as one burst before decoding.
fn continuations(head: &Message, request: bool) -> usize {
    if request {
        Request::continuations(head)
    } else {
        Response::continuations(head)
    }
}

/// The golden table's message for one carrier and payload length (for
/// a [`FENCE_CARRIERS`] one, `len` is the fence).
fn sample(carrier: &str, len: usize) -> Msg {
    let (value, fence) = (|| bytes(len), Fence::from_wire(len as u64));
    match carrier {
        "Set" => Msg::Req(Request::Set {
            key: KEY,
            value: value(),
        }),
        "Cas" => Msg::Req(Request::Cas {
            key: KEY,
            expected: AUX,
            value: value(),
        }),
        "Replicate" => Msg::Req(Request::Replicate {
            key: KEY,
            version: AUX,
            value: value(),
        }),
        "Value" => Msg::Resp(Response::Value {
            version: AUX,
            value: value(),
        }),
        "StatsReply" => Msg::Resp(Response::StatsReply { payload: value() }),
        "WrongLeader" => Msg::Resp(Response::WrongLeader {
            term: fence,
            leader: 1,
        }),
        "WrongLeader/NO_LEADER" => Msg::Resp(Response::WrongLeader {
            term: fence,
            leader: NO_LEADER,
        }),
        "WrongShard" => Msg::Resp(Response::WrongShard { map_epoch: fence }),
        other => panic!("no carrier {other}"),
    }
}

/// The same message through the borrowed encoder, where one exists.
fn borrowed(carrier: &str, len: usize) -> Option<Vec<Message>> {
    if !CARRIERS.contains(&carrier) {
        return None;
    }
    let (value, mut out) = (bytes(len), vec![[u64::MAX; MSG_WORDS]; 3]);
    match carrier {
        "Set" => encode_set(KEY, &value, &mut out),
        "Cas" => encode_cas(KEY, AUX, &value, &mut out),
        "Replicate" => encode_replicate(KEY, AUX, &value, &mut out),
        "Value" => encode_value(AUX, &value, &mut out),
        _ => return None,
    }
    Some(out)
}

#[test]
fn frames_match_the_table_captured_from_the_old_encoder() {
    let lens = |name: &str| -> Vec<usize> {
        let rows = GOLDEN.iter().filter(|row| row.0 == name);
        rows.map(|row| row.1).collect()
    };
    for carrier in CARRIERS {
        assert_eq!(lens(carrier), [0, 1, 31, 32, 33, 88, 89, 576, 1024]);
    }
    assert_eq!(lens("StatsReply"), [0, 40, 41, 96, 97, 5000]);
    for carrier in FENCE_CARRIERS {
        assert_eq!(lens(carrier), [1, 2, (1 << 48) - 1]);
    }
    for &(carrier, len, frames) in GOLDEN {
        assert_eq!(sample(carrier, len).encode(), frames, "{carrier}/{len}");
        if let Some(out) = borrowed(carrier, len) {
            assert_eq!(out, frames, "borrowed {carrier}/{len}");
        }
    }
}

/// Bytes of `frames`' payload area: the head's last `room` bytes, then
/// every continuation frame whole.
fn payload_area(frames: &[Message], room: usize) -> Vec<u8> {
    let image = |frame: &Message| {
        frame
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect::<Vec<u8>>()
    };
    let mut area = image(&frames[0])[CONT_VALUE_BYTES - room..].to_vec();
    area.extend(frames[1..].iter().flat_map(image));
    area
}

/// The small-scope bar applied to the codec: not a sample of lengths
/// but all of them.
#[test]
fn every_value_length_round_trips_on_every_carrier() {
    for len in 0..=MAX_VALUE_LEN {
        let spill = len
            .saturating_sub(HEAD_VALUE_BYTES)
            .div_ceil(CONT_VALUE_BYTES);
        for carrier in CARRIERS {
            let msg = sample(carrier, len);
            let frames = msg.encode();
            assert_eq!(frames.len(), 1 + spill, "{carrier}/{len}");
            assert_eq!(
                continuations(&frames[0], msg.is_request()),
                spill,
                "{carrier}/{len}"
            );
            let (back, pulled) = Msg::decode(msg.is_request(), &frames);
            assert_eq!(
                (back.as_ref(), pulled),
                (Some(&msg), spill),
                "{carrier}/{len}"
            );
            // One encoder: the borrowed entry point over a dirty scratch
            // buffer produces the owned enum's frames.
            assert_eq!(
                borrowed(carrier, len).as_ref(),
                Some(&frames),
                "{carrier}/{len}"
            );
            // No stale scratch reaches the ring: the payload area is
            // the payload, then zeros.
            let area = payload_area(&frames, HEAD_VALUE_BYTES);
            assert_eq!(area[..len], bytes(len)[..], "{carrier}/{len}");
            assert!(area[len..].iter().all(|&b| b == 0), "{carrier}/{len}");
        }
    }
}

#[test]
fn stats_payloads_round_trip_with_zeroed_tails() {
    let edge = STATS_INLINE_BYTES + CONT_VALUE_BYTES;
    for len in (0..=edge + 1).chain([5000, 65_536 + 7]) {
        let msg = sample("StatsReply", len);
        let frames = msg.encode();
        let spill = len
            .saturating_sub(STATS_INLINE_BYTES)
            .div_ceil(CONT_VALUE_BYTES);
        assert_eq!(frames.len(), 1 + spill, "{len}");
        assert_eq!(Response::continuations(&frames[0]), spill, "{len}");
        assert_eq!(Msg::decode(false, &frames), (Some(msg), spill), "{len}");
        let area = payload_area(&frames, STATS_INLINE_BYTES);
        assert_eq!(area[..len], bytes(len)[..], "{len}");
        assert!(area[len..].iter().all(|&b| b == 0), "{len}");
    }
}

/// The retired multi-get opcodes, 2 and 10, decode as unknown whatever
/// key count the head's second byte claims, and announce no
/// continuation: a receiver takes the head alone and refuses it.
#[test]
fn retired_multiget_opcodes_are_unknown() {
    for op in [2, 10] {
        for count in [0, 1, 6, 64, 255] {
            let head: Message = [op | count << 8, KEY, AUX, KEY, AUX, KEY, AUX];
            assert_eq!(Request::continuations(&head), 0, "{op}/{count}");
            let refused = Request::decode(head, || panic!("a refused head pulled a frame"));
            assert_eq!(refused, Err(WireError::UnknownOpcode(op)), "{op}/{count}");
        }
    }
}

/// A random well-formed message of either side.
fn arbitrary(rng: &mut SmallRng) -> Msg {
    let value = |rng: &mut SmallRng| {
        let len = match rng.gen_range(0u8..4) {
            0 => rng.gen_range(0..=HEAD_VALUE_BYTES + 1),
            1 => rng.gen_range(0..=200),
            _ => rng.gen_range(0..=MAX_VALUE_LEN),
        };
        (0..len).map(|_| rng.gen::<u8>()).collect::<Vec<u8>>()
    };
    let (a, b): (u64, u64) = (rng.gen(), rng.gen());
    if rng.gen::<bool>() {
        Msg::Req(match rng.gen_range(0u8..10) {
            0 => Request::Get { key: a },
            1 => Request::Set {
                key: a,
                value: value(rng),
            },
            2 => Request::Cas {
                key: a,
                expected: b,
                value: value(rng),
            },
            3 => Request::Delete { key: a },
            4 => Request::Replicate {
                key: a,
                version: b,
                value: value(rng),
            },
            5 => Request::ReplicateDelete { key: a, version: b },
            6 => Request::ReplGet { key: a, floor: b },
            7 => Request::TimedGet { key: a, stamp: b },
            8 => Request::Stats,
            _ => Request::Stop,
        })
    } else {
        Msg::Resp(match rng.gen_range(0u8..11) {
            0 => Response::Value {
                version: a,
                value: value(rng),
            },
            1 => Response::Miss,
            2 => Response::Stored { version: a },
            3 => Response::CasFail { current: a },
            4 => Response::Deleted { version: a },
            5 => Response::NotFound,
            6 => Response::Stale { hwm: a },
            7 => Response::Malformed,
            8 => Response::WrongLeader {
                term: Fence::from_wire(a),
                leader: b,
            },
            9 => Response::WrongShard {
                map_epoch: Fence::from_wire(a),
            },
            _ => Response::StatsReply {
                payload: value(rng),
            },
        })
    }
}

/// Damages a frame sequence in place: bit flips, a word swap, or a
/// wholly random head.
fn mutate(frames: &mut [Message], rng: &mut SmallRng) {
    let words = frames.len() * MSG_WORDS;
    let at = |rng: &mut SmallRng| {
        // Half the damage lands on the head frame, where the framing is.
        let w = if rng.gen::<bool>() {
            rng.gen_range(0..MSG_WORDS)
        } else {
            rng.gen_range(0..words)
        };
        (w / MSG_WORDS, w % MSG_WORDS)
    };
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
        2 => frames[0] = std::array::from_fn(|_| rng.gen()),
        // Low bits of word 0 only: a random opcode/length over
        // otherwise intact frames.
        _ => frames[0][0] = rng.gen::<u64>() & 0xFFFF_FFFF,
    }
}

/// One fuzz case: a valid message, damaged, through its own side's
/// decoder and (heads are only told apart by the channel they arrive
/// on) through the other side's.
fn fuzz_case(rng: &mut SmallRng) {
    let msg = arbitrary(rng);
    let mut frames = msg.encode();
    mutate(&mut frames, rng);
    for request in [msg.is_request(), !msg.is_request()] {
        let bound = continuations(&frames[0], request);
        let (decoded, pulled) = Msg::decode(request, &frames);
        assert!(
            pulled <= bound,
            "pulled {pulled} frames, head announces {bound}"
        );
        match decoded {
            // Refusals are decided on the head frame alone, and announce
            // nothing for a receiver to wait for.
            None => assert_eq!((pulled, bound), (0, 0), "a refused head"),
            Some(decoded) => {
                assert_eq!(pulled, bound);
                let again = decoded.encode();
                assert_eq!(again.len(), 1 + bound);
                assert_eq!(Msg::decode(request, &again), (Some(decoded), bound));
            }
        }
    }
}

fn fuzz(seed: u64, cases: u32) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for case in 0..cases {
        let before = rng.clone();
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| fuzz_case(&mut rng))) {
            let mut replay = before;
            let msg = arbitrary(&mut replay);
            panic!("seed {seed:#x} case {case} (from {msg:?}): {panic:?}");
        }
    }
}

#[test]
fn decode_survives_seeded_frame_mutations() {
    fuzz(0x5EED_F00D, 10_000);
}

/// The same fuzz at soak length; CI runs it release-built.
#[test]
#[ignore = "1 M cases: run with --release -- --ignored"]
fn decode_survives_seeded_frame_mutations_soak() {
    fuzz(0x5EED_50A4, 1_000_000);
}

/// A real node's scrape: one shard served over a ring, written and read
/// a little — timed reads, so that its histograms hold samples — and
/// the payload of the `StatsReply` it answers a `Stats` request with.
fn scraped_snapshot() -> Vec<u8> {
    let router: ShardRouter<TicketLock> = ShardRouter::new(1, 64, 8);
    let (endpoints, mut clients) = ring_mesh(1, 1, 1);
    let client = clients.pop().expect("one client");
    std::thread::scope(|s| {
        for (shard, endpoint) in endpoints.into_iter().enumerate() {
            let store = router.shard(shard);
            s.spawn(move || serve(store, endpoint));
        }
        for key in 0..64u64 {
            client.set(key, vec![key as u8; 40]).expect("a set");
            let shard = client.send_get_timed(key, mono_ns());
            client.read_get_reply(shard).expect("a timed get");
        }
        let reply = block_on(client.conn(0).call(&Request::Stats));
        client.close();
        match reply {
            Ok(Response::StatsReply { payload }) => payload,
            other => panic!("a scrape answered {other:?}"),
        }
    })
}

/// A snapshot's count words, as `(offset, width)`: the counter count,
/// each name's length byte, the histogram count, and each histogram's
/// pair count.
fn count_words(bytes: &[u8]) -> Vec<(usize, usize)> {
    let u16_at = |at: usize| usize::from(u16::from_le_bytes([bytes[at], bytes[at + 1]]));
    let mut words = vec![(0, 2)];
    let mut at = 2;
    for _ in 0..u16_at(0) {
        words.push((at, 1));
        at += 1 + usize::from(bytes[at]) + 8;
    }
    words.push((at, 2));
    let hists = u16_at(at);
    at += 2;
    for _ in 0..hists {
        words.push((at, 1));
        at += 1 + usize::from(bytes[at]);
        words.push((at, 4));
        let pairs = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        at += 4 + pairs as usize * 10;
    }
    assert_eq!(
        at,
        bytes.len(),
        "a snapshot's layout as `to_bytes` writes it"
    );
    words
}

/// Damages a snapshot in place: bit flips, a truncation, or an edited
/// count word — nudged by one, or wholly random.
fn mutate_snapshot(bytes: &mut Vec<u8>, words: &[(usize, usize)], rng: &mut SmallRng) {
    match rng.gen_range(0u8..3) {
        0 => {
            for _ in 0..rng.gen_range(1u8..=3) {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] ^= 1 << rng.gen_range(0u32..8);
            }
        }
        1 => bytes.truncate(rng.gen_range(0..bytes.len())),
        _ => {
            let (at, width) = words[rng.gen_range(0..words.len())];
            let mut word = [0u8; 8];
            word[..width].copy_from_slice(&bytes[at..at + width]);
            let value = match rng.gen_range(0u8..3) {
                0 => u64::from_le_bytes(word).wrapping_add(1),
                1 => u64::from_le_bytes(word).wrapping_sub(1),
                _ => rng.gen(),
            };
            bytes[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
        }
    }
}

/// One snapshot fuzz case: damaged scraped bytes through the decoder,
/// which must not panic; whatever it accepts must re-encode to bytes
/// that decode to the same snapshot. Returns whether it accepted.
fn snapshot_fuzz_case(original: &[u8], words: &[(usize, usize)], rng: &mut SmallRng) -> bool {
    let mut bytes = original.to_vec();
    mutate_snapshot(&mut bytes, words, rng);
    let Some(snap) = RegistrySnapshot::from_bytes(&bytes) else {
        return false;
    };
    assert_eq!(
        RegistrySnapshot::from_bytes(&snap.to_bytes()).as_ref(),
        Some(&snap),
        "a decoded snapshot re-encodes to another"
    );
    true
}

fn snapshot_fuzz(seed: u64, cases: u32) {
    let original = scraped_snapshot();
    let snap = RegistrySnapshot::from_bytes(&original).expect("a scrape decodes");
    assert!(
        snap.hists.iter().any(|(_, hist)| hist.count() > 0),
        "the scraped histograms hold samples"
    );
    let words = count_words(&original);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut accepted = 0;
    for case in 0..cases {
        match catch_unwind(AssertUnwindSafe(|| {
            snapshot_fuzz_case(&original, &words, &mut rng)
        })) {
            Ok(decoded) => accepted += u32::from(decoded),
            Err(panic) => panic!("seed {seed:#x} case {case}: {panic:?}"),
        }
    }
    // Both outcomes are exercised: damage the decoder refuses, and
    // damage it reads as another valid snapshot.
    assert!(
        accepted > 0 && accepted < cases,
        "{accepted} of {cases} damaged snapshots decoded"
    );
}

#[test]
fn snapshot_decode_survives_seeded_mutations() {
    snapshot_fuzz(0x5EED_57A7, 10_000);
}

/// The same fuzz at soak length; CI runs it release-built.
#[test]
#[ignore = "1 M cases: run with --release -- --ignored"]
fn snapshot_decode_survives_seeded_mutations_soak() {
    snapshot_fuzz(0x5EED_50A5, 1_000_000);
}
