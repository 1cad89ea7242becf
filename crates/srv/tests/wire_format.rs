//! The wire format, pinned from outside the crate: golden frames
//! captured from the word-at-a-time encoder this codec replaced, an
//! exhaustive round trip over every value length, zeroed frame tails,
//! the continuation count a receiver takes as one burst, and a seeded
//! mutation fuzz of both decoders.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ssync_core::Fence;
use ssync_mp::{Message, MSG_WORDS};
use ssync_srv::wire::{
    encode_cas, encode_replicate, encode_set, encode_value, CONT_VALUE_BYTES, HEAD_VALUE_BYTES,
    MAX_VALUE_LEN, NO_LEADER, REPL_MGET_CONT_KEYS, REPL_MGET_HEAD_KEYS, REPL_MGET_MAX,
    STATS_INLINE_BYTES,
};
use ssync_srv::{Request, Response};

include!("data/golden_frames.rs");

const KEY: u64 = 0x0123_4567_89AB_CDEF;
const AUX: u64 = 0xFEDC_BA98_7654_3210;
const CARRIERS: [&str; 4] = ["Set", "Cas", "Replicate", "Value"];
/// The responses that carry a fence; their golden rows' second column
/// is the fence, not a payload length.
const FENCE_CARRIERS: [&str; 4] = [
    "WrongLeader",
    "WrongLeader/NO_LEADER",
    "WrongTerm",
    "WrongShard",
];

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
        "WrongTerm" => Msg::Resp(Response::WrongTerm { term: fence }),
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

/// Every key count a replica multi-get can carry: the key spill is the
/// other continuation stream.
#[test]
fn every_repl_multiget_width_round_trips() {
    for n in 1..=REPL_MGET_MAX {
        let msg = Msg::Req(Request::ReplMultiGet {
            keys: (0..n as u64).map(|k| k * KEY).collect(),
            floor: AUX,
        });
        let frames = msg.encode();
        let spill = n
            .saturating_sub(REPL_MGET_HEAD_KEYS)
            .div_ceil(REPL_MGET_CONT_KEYS);
        assert_eq!(frames.len(), 1 + spill, "{n} keys");
        assert_eq!(Request::continuations(&frames[0]), spill, "{n} keys");
        assert_eq!(Msg::decode(true, &frames), (Some(msg), spill), "{n} keys");
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
        Msg::Req(match rng.gen_range(0u8..12) {
            0 => Request::Get { key: a },
            1 => Request::MultiGet {
                keys: (0..rng.gen_range(1u8..=6)).map(|_| rng.gen()).collect(),
            },
            2 => Request::Set {
                key: a,
                value: value(rng),
            },
            3 => Request::Cas {
                key: a,
                expected: b,
                value: value(rng),
            },
            4 => Request::Delete { key: a },
            5 => Request::Replicate {
                key: a,
                version: b,
                value: value(rng),
            },
            6 => Request::ReplicateDelete { key: a, version: b },
            7 => Request::ReplGet { key: a, floor: b },
            8 => Request::ReplMultiGet {
                keys: (0..rng.gen_range(1..=REPL_MGET_MAX))
                    .map(|_| rng.gen())
                    .collect(),
                floor: b,
            },
            9 => Request::TimedGet { key: a, stamp: b },
            10 => Request::Stats,
            _ => Request::Stop,
        })
    } else {
        Msg::Resp(match rng.gen_range(0u8..13) {
            0 => Response::Value {
                version: a,
                value: value(rng),
            },
            1 => Response::Miss,
            2 => Response::Stored { version: a },
            3 => Response::CasFail { current: a },
            4 => Response::Deleted { version: a },
            5 => Response::NotFound,
            6 => Response::ReplAck { version: a },
            7 => Response::Stale { hwm: a },
            8 => Response::Malformed,
            9 => Response::WrongLeader {
                term: Fence::from_wire(a),
                leader: b,
            },
            10 => Response::WrongTerm {
                term: Fence::from_wire(a),
            },
            11 => Response::WrongShard {
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
        // Low bits of word 0 only: a random opcode/count/length over
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
