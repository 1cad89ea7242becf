//! The request/response wire format over `ssync-mp` messages.
//!
//! A channel message is one cache line: seven 64-bit words
//! ([`MSG_WORDS`]). Every operation is packed into a *head frame* whose
//! word 0 carries the opcode/status and an inline value length; words
//! 1 and 2 carry the key and (for CAS) the expected version; words 3..7
//! carry the first [`HEAD_VALUE_BYTES`] value bytes. Values longer than
//! that stream in *continuation frames* that use the full line
//! ([`CONT_VALUE_BYTES`] bytes each) — the channels are SPSC and FIFO,
//! so continuations need no header; the receiver knows exactly how many
//! bytes remain.
//!
//! A client's request names one key (or none: [`Request::Stats`],
//! [`Request::Stop`]) and is answered by exactly one [`Response`] —
//! except `Stop`, which is answered by none. A client that wants many
//! keys in flight pipelines single-key requests; no request batches.
//!
//! The format is symmetric by design: both sides encode with
//! [`Request::encode_into`] / [`Response::encode_into`] (frames sent
//! back-to-back, as one burst on a ring) and decode with
//! `decode(head, more)`, where `more` pulls the next frame *from the
//! same peer*. [`Request::continuations`] / [`Response::continuations`]
//! say from the head alone how many frames follow it, so a receiver
//! takes them in bursts as they are published, resuming across polls
//! (`poll_burst` on each client's ring under a node's turn, and on the
//! reply channel under a client's `Conn::recv`), and decodes with
//! [`replay`] over what arrived.
//!
//! A frame's payload bytes are its words' little-endian byte image,
//! and the codec treats them that way: a value moves between a byte
//! slice and the frames one whole 56-byte image at a time (fixed-size
//! `to_le_bytes`/`from_le_bytes` arrays, which compile to plain vector
//! moves), never a word at a time — a value costs one copy per hop.
//! For the same reason the four value carriers have *borrowed*
//! encoders ([`encode_set`], [`encode_cas`], [`encode_replicate`],
//! [`encode_value`]) under the enums' `encode_into`: a sender that
//! already holds the bytes — a node answering a read from the store's
//! buffer, a leader streaming a logged write, a migration copying a
//! page — encodes from them directly instead of cloning them into an
//! owned message first.
//!
//! Replication rides the same format: a primary streams
//! [`Request::Replicate`] / [`Request::ReplicateDelete`] entries (the
//! value reusing the continuation-frame protocol) to its backups, which
//! acknowledge by publishing their applied high-water mark in the
//! shared map, not on the wire; clients read from
//! backups with [`Request::ReplGet`], whose `floor` word lets the
//! backup answer [`Response::Stale`] instead of serving data older than
//! what the client has already observed.
//!
//! Decoding is total: an unknown opcode or status, or an over-long
//! value length, comes back as a [`WireError`]
//! instead of a panic, so one corrupt head frame cannot take down a
//! server thread (it answers [`Response::Malformed`] and keeps
//! serving). What decoding *cannot* recover is framing: a corrupt head
//! that mis-states its continuation count desynchronizes the SPSC
//! stream, which has no resynchronization point by design — the typed
//! error caps the damage to the connection, not the server.

use core::fmt;

use ssync_core::{Fence, RegistrySnapshot};
use ssync_mp::{Message, MSG_WORDS};

/// Value bytes carried inline by a head frame (words 3..7).
pub const HEAD_VALUE_BYTES: usize = 4 * 8;

/// Value bytes carried by one continuation frame (the full line).
pub const CONT_VALUE_BYTES: usize = MSG_WORDS * 8;

/// Maximum value length the format carries (fits the 16-bit length
/// field with room to spare; caps continuation streaming).
pub const MAX_VALUE_LEN: usize = 1024;

const OP_GET: u64 = 1;
// 2 was the multi-get: reserved, decodes as unknown.
const OP_SET: u64 = 3;
const OP_CAS: u64 = 4;
const OP_DELETE: u64 = 5;
const OP_STOP: u64 = 6;
const OP_REPLICATE: u64 = 7;
const OP_REPL_DELETE: u64 = 8;
const OP_REPL_GET: u64 = 9;
// 10 was the replica multi-get: reserved, likewise.
const OP_TIMED_GET: u64 = 11;
const OP_STATS: u64 = 12;

const ST_VALUE: u64 = 1;
const ST_MISS: u64 = 2;
const ST_STORED: u64 = 3;
const ST_CAS_FAIL: u64 = 4;
const ST_DELETED: u64 = 5;
const ST_NOT_FOUND: u64 = 6;
// 7 was a backup's cumulative ack: reserved, decodes as unknown.
const ST_STALE: u64 = 8;
const ST_MALFORMED: u64 = 9;
const ST_WRONG_LEADER: u64 = 10;
// 11 was a term fence back at a stale sender: reserved, likewise.
const ST_WRONG_SHARD: u64 = 12;
const ST_STATS: u64 = 13;

/// Maximum serialized registry-snapshot bytes a
/// [`Response::StatsReply`] carries. The length travels in a full head
/// word (a scraped snapshot can outgrow the 16-bit value-length field),
/// so this cap is what keeps decode total against a corrupt length.
pub const STATS_MAX_PAYLOAD: usize = 1 << 20;

/// Stats payload bytes carried inline by the reply head frame
/// (words 2..7 — word 1 carries the byte length).
pub const STATS_INLINE_BYTES: usize = (MSG_WORDS - 2) * 8;

/// Sentinel for "no leader known" in [`Response::WrongLeader`]'s
/// `leader` word.
pub const NO_LEADER: u64 = u64::MAX;

/// A protocol violation caught while decoding or interpreting frames.
///
/// Decode errors (`UnknownOpcode`, `UnknownStatus`, `ValueTooLong`,
/// `StatsTooLong`) mean the head frame itself is corrupt; a server
/// answers them with [`Response::Malformed`]. `UnexpectedResponse`
/// means a well-formed reply arrived that makes no sense for the
/// request a client sent; `Rejected` is the client-side view of a
/// [`Response::Malformed`] reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// A request head frame carried an opcode outside the protocol.
    UnknownOpcode(u64),
    /// A response head frame carried a status outside the protocol.
    UnknownStatus(u64),
    /// A head frame claimed a value longer than [`MAX_VALUE_LEN`].
    ValueTooLong(usize),
    /// A well-formed response that does not answer the request sent
    /// (e.g. `Stored` in reply to a `Get`); the payload names the
    /// request context.
    UnexpectedResponse(&'static str),
    /// The server rejected the request as malformed.
    Rejected,
    /// The peer's thread is gone (its channel half was dropped) — the
    /// request cannot be, or was only partially, exchanged. Clients
    /// with a retry budget treat this as retryable (the cluster may be
    /// mid-failover); without one it surfaces here instead of the
    /// pre-PR-7 behavior of spinning forever on the dead channel.
    Disconnected,
    /// The client's retry/deadline budget ran out before any server
    /// produced a definitive answer.
    Deadline,
    /// A stats-reply head frame claimed a payload longer than
    /// [`STATS_MAX_PAYLOAD`].
    StatsTooLong(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnknownOpcode(op) => write!(f, "unknown request opcode {op}"),
            WireError::UnknownStatus(st) => write!(f, "unknown response status {st}"),
            WireError::ValueTooLong(len) => {
                write!(f, "value length {len} exceeds {MAX_VALUE_LEN}")
            }
            WireError::UnexpectedResponse(ctx) => {
                write!(f, "unexpected response in reply to {ctx}")
            }
            WireError::Rejected => write!(f, "server rejected the request as malformed"),
            WireError::Disconnected => write!(f, "peer disconnected (channel half dropped)"),
            WireError::Deadline => write!(f, "request deadline exceeded"),
            WireError::StatsTooLong(len) => {
                write!(f, "stats payload length {len} exceeds {STATS_MAX_PAYLOAD}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// One read's outcome: `Some((version, value))` on a hit.
pub type ReadHit = Option<(u64, Vec<u8>)>;

/// A client-to-server operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Look one key up.
    Get {
        /// The key.
        key: u64,
    },
    /// Store a value.
    Set {
        /// The key.
        key: u64,
        /// The value (≤ [`MAX_VALUE_LEN`] bytes).
        value: Vec<u8>,
    },
    /// Store only if the key's version still matches `expected`.
    Cas {
        /// The key.
        key: u64,
        /// The version the client last observed.
        expected: u64,
        /// The replacement value (≤ [`MAX_VALUE_LEN`] bytes).
        value: Vec<u8>,
    },
    /// Remove a key.
    Delete {
        /// The key.
        key: u64,
    },
    /// Primary-to-backup: apply this store at the primary-assigned
    /// version (idempotent at the replica; see
    /// `ssync_kv::KvStore::apply_replicated`).
    Replicate {
        /// The key.
        key: u64,
        /// The version the primary assigned the write.
        version: u64,
        /// The value (≤ [`MAX_VALUE_LEN`] bytes).
        value: Vec<u8>,
    },
    /// Primary-to-backup: apply this delete tombstone.
    ReplicateDelete {
        /// The key.
        key: u64,
        /// The tombstone version the primary assigned.
        version: u64,
    },
    /// Client-to-backup read with a freshness floor: the backup serves
    /// the key only if it has applied at least version `floor`,
    /// otherwise it answers [`Response::Stale`] and the client falls
    /// back to the primary.
    ReplGet {
        /// The key.
        key: u64,
        /// The lowest applied version the client will accept.
        floor: u64,
    },
    /// [`Request::Get`] carrying the client's intended-send timestamp
    /// (on the [`ssync_core::stats::mono_ns`] timebase). The server
    /// answers exactly like a `Get`, but first records
    /// `now - stamp` into its queue-wait histogram and times the
    /// lookup into its apply histogram — the per-op server-side split
    /// a load generator uses to attribute tail cost.
    TimedGet {
        /// The key.
        key: u64,
        /// The client's intended send time, in [`ssync_core::stats::mono_ns`]
        /// nanoseconds.
        stamp: u64,
    },
    /// Scrape the node's metric registry. Served by any node in any
    /// role (like [`Request::ReplGet`], it needs no leadership); the
    /// answer is a [`Response::StatsReply`] carrying a serialized
    /// [`ssync_core::stats::RegistrySnapshot`].
    Stats,
    /// Client is done; the server exits once every client said so.
    Stop,
}

/// A server-to-client reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Hit: the stored version and value.
    Value {
        /// CAS version of the returned value.
        version: u64,
        /// The value bytes.
        value: Vec<u8>,
    },
    /// Miss on a read.
    Miss,
    /// A `Set` or successful `Cas` stored the value at this version.
    Stored {
        /// The newly assigned version.
        version: u64,
    },
    /// A `Cas` lost: the key's current version (0 if the key vanished).
    CasFail {
        /// The version currently stored.
        current: u64,
    },
    /// A `Delete` removed the key at this tombstone version.
    Deleted {
        /// The tombstone version assigned to the removal (0 when the
        /// server does not version deletes).
        version: u64,
    },
    /// A `Delete` found nothing.
    NotFound,
    /// The backup cannot serve the read: it has applied only up to
    /// `hwm`, below the client's floor (or it is down and refusing
    /// reads). The client retries at the primary.
    Stale {
        /// The backup's applied high-water version.
        hwm: u64,
    },
    /// The request head frame did not decode; nothing was executed.
    Malformed,
    /// The node is not the shard's leader for writes: nothing was
    /// executed. Carries the responder's view of the current term and
    /// leader so the client can redirect instead of rediscovering.
    WrongLeader {
        /// The term the responder currently observes.
        term: Fence,
        /// The node id it believes leads that term, or [`NO_LEADER`]
        /// while the shard is leaderless (mid-failover).
        leader: u64,
    },
    /// The responder does not own the key's routing slot under the
    /// cluster map epoch it currently observes (the client's map is
    /// stale, or a resharding cutover landed between routing and
    /// service): nothing was executed. Carries the responder's map
    /// epoch so the client refetches a map at least that fresh before
    /// retrying — the elastic-routing mirror of
    /// [`Response::WrongLeader`].
    WrongShard {
        /// The cluster-map epoch the responder currently observes.
        map_epoch: Fence,
    },
    /// Answer to [`Request::Stats`]: a serialized
    /// [`ssync_core::stats::RegistrySnapshot`] (≤ [`STATS_MAX_PAYLOAD`]
    /// bytes), streamed over continuation frames like a long value.
    /// The bytes are opaque to the wire layer; a garbled payload fails
    /// in `RegistrySnapshot::from_bytes`, not here.
    StatsReply {
        /// The serialized snapshot.
        payload: Vec<u8>,
    },
}

/// Packs opcode/status (bits 0..8) and value length (bits 16..32) into
/// word 0. Bits 8..16, once a multi-get's key count, are written zero
/// and read by nobody.
fn head_word(op: u64, vlen: usize) -> u64 {
    debug_assert!(vlen < 65_536);
    op | (vlen as u64) << 16
}

/// A head frame: word 0 names `op`, `words` follow from word 1, and the
/// rest stay zero — every message that is not a value's.
#[inline]
fn head_frame(op: u64, words: &[u64]) -> Message {
    let mut m: Message = [0; MSG_WORDS];
    m[0] = head_word(op, 0);
    m[1..=words.len()].copy_from_slice(words);
    m
}

fn split_head_word(w: u64) -> (u64, usize) {
    (w & 0xFF, (w >> 16 & 0xFFFF) as usize)
}

/// A frame's 56-byte little-endian image. Fixed-size on both sides, so
/// on a little-endian machine this and [`frame_of`] are plain moves.
#[inline]
fn image_of(frame: &Message) -> [u8; CONT_VALUE_BYTES] {
    let mut image = [0u8; CONT_VALUE_BYTES];
    for (bytes, word) in image.chunks_exact_mut(8).zip(frame) {
        bytes.copy_from_slice(&word.to_le_bytes());
    }
    image
}

/// The frame a 56-byte little-endian image spells.
#[inline]
fn frame_of(image: &[u8; CONT_VALUE_BYTES]) -> Message {
    let mut frame: Message = [0; MSG_WORDS];
    for (word, bytes) in frame.iter_mut().zip(image.chunks_exact(8)) {
        let mut le = [0u8; 8];
        le.copy_from_slice(bytes);
        *word = u64::from_le_bytes(le);
    }
    frame
}

/// Appends `head` — `payload`'s first bytes filling its last `room`
/// bytes — then the rest of `payload` as continuation frames, a whole
/// image at a time. Unused tail bytes stay zero.
fn push_payload(head: Message, room: usize, payload: &[u8], out: &mut Vec<Message>) {
    let (inline, rest) = payload.split_at(payload.len().min(room));
    let mut image = image_of(&head);
    image[CONT_VALUE_BYTES - room..][..inline.len()].copy_from_slice(inline);
    out.push(frame_of(&image));
    for chunk in rest.chunks(CONT_VALUE_BYTES) {
        // A whole frame's worth is a fixed-size move; only the last
        // chunk can fall short, and is zero-padded.
        let image = chunk.try_into().unwrap_or_else(|_| {
            let mut padded = [0u8; CONT_VALUE_BYTES];
            padded[..chunk.len()].copy_from_slice(chunk);
            padded
        });
        out.push(frame_of(&image));
    }
}

/// Continuation frames a `len`-byte payload takes past the `room`
/// bytes its head frame carries.
fn spill(len: usize, room: usize) -> usize {
    len.saturating_sub(room).div_ceil(CONT_VALUE_BYTES)
}

/// A `decode` frame source over continuation frames already received
/// (zeroed past the end, which a `continuations`-sized slice never
/// reaches).
pub fn replay(frames: &[Message]) -> impl FnMut() -> Message + '_ {
    let mut frames = frames.iter();
    move || frames.next().copied().unwrap_or([0; MSG_WORDS])
}

/// Reads a `len`-byte payload: the head frame's last `room` bytes,
/// then continuation frames pulled via `more`, a whole image at a
/// time. The caller has bounded `len`.
fn read_payload(
    head: &Message,
    room: usize,
    len: usize,
    mut more: impl FnMut() -> Message,
) -> Vec<u8> {
    let mut payload = Vec::with_capacity(len);
    payload.extend_from_slice(&image_of(head)[CONT_VALUE_BYTES - room..][..len.min(room)]);
    while len - payload.len() >= CONT_VALUE_BYTES {
        payload.extend_from_slice(&image_of(&more()));
    }
    if payload.len() < len {
        payload.extend_from_slice(&image_of(&more())[..len - payload.len()]);
    }
    payload
}

/// The one value encoder, under the borrowed entry points below and,
/// through them, the owned enums: clears `out`, then a head frame of
/// `op`, the two scalar words and `value`'s first bytes, then the rest
/// of `value` in continuation frames.
fn push_value_frames(op: u64, w1: u64, w2: u64, value: &[u8], out: &mut Vec<Message>) {
    assert!(value.len() <= MAX_VALUE_LEN, "value exceeds MAX_VALUE_LEN");
    out.clear();
    let head = [head_word(op, value.len()), w1, w2, 0, 0, 0, 0];
    push_payload(head, HEAD_VALUE_BYTES, value, out);
}

/// Encodes [`Request::Set`] from borrowed bytes — same frames, same
/// panic as the enum's [`Request::encode_into`], which calls this.
pub fn encode_set(key: u64, value: &[u8], out: &mut Vec<Message>) {
    push_value_frames(OP_SET, key, 0, value, out);
}

/// Encodes [`Request::Cas`] from borrowed bytes.
pub fn encode_cas(key: u64, expected: u64, value: &[u8], out: &mut Vec<Message>) {
    push_value_frames(OP_CAS, key, expected, value, out);
}

/// Encodes [`Request::Replicate`] from borrowed bytes: how the
/// replication stream and the migration copy send a stored value.
pub fn encode_replicate(key: u64, version: u64, value: &[u8], out: &mut Vec<Message>) {
    push_value_frames(OP_REPLICATE, key, version, value, out);
}

/// Encodes [`Response::Value`] from borrowed bytes: how a node answers
/// a read from the store's own buffer.
pub fn encode_value(version: u64, value: &[u8], out: &mut Vec<Message>) {
    push_value_frames(ST_VALUE, version, 0, value, out);
}

impl Request {
    /// Encodes the request as one head frame plus continuation frames,
    /// to be sent back-to-back on one channel.
    ///
    /// # Panics
    ///
    /// Panics on an over-long value.
    pub fn encode(&self) -> Vec<Message> {
        let mut out = Vec::with_capacity(1);
        self.encode_into(&mut out);
        out
    }

    /// [`Request::encode`] into a reused buffer: clears `out` and fills
    /// it with the frames. Hot request paths (the service clients, the
    /// replication stream) call this with a per-connection scratch
    /// buffer so a long value's continuation-frame assembly costs no
    /// allocation per operation.
    ///
    /// # Panics
    ///
    /// As for [`Request::encode`].
    pub fn encode_into(&self, out: &mut Vec<Message>) {
        out.clear();
        match self {
            Request::Get { key } => out.push(head_frame(OP_GET, &[*key])),
            Request::Set { key, value } => encode_set(*key, value, out),
            Request::Cas {
                key,
                expected,
                value,
            } => encode_cas(*key, *expected, value, out),
            Request::Delete { key } => out.push(head_frame(OP_DELETE, &[*key])),
            Request::Replicate {
                key,
                version,
                value,
            } => encode_replicate(*key, *version, value, out),
            Request::ReplicateDelete { key, version } => {
                out.push(head_frame(OP_REPL_DELETE, &[*key, *version]));
            }
            Request::ReplGet { key, floor } => {
                out.push(head_frame(OP_REPL_GET, &[*key, *floor]));
            }
            Request::TimedGet { key, stamp } => {
                out.push(head_frame(OP_TIMED_GET, &[*key, *stamp]));
            }
            Request::Stats => out.push(head_frame(OP_STATS, &[])),
            Request::Stop => out.push(head_frame(OP_STOP, &[])),
        }
    }

    /// [`Request::encode_into`] for a value the caller did not vet: an
    /// over-long one is refused, with `out` untouched, where the plain
    /// encoders panic. The client connections send through this.
    ///
    /// # Errors
    ///
    /// [`WireError::ValueTooLong`] past [`MAX_VALUE_LEN`].
    pub fn try_encode_into(&self, out: &mut Vec<Message>) -> Result<(), WireError> {
        if let Request::Set { value, .. }
        | Request::Cas { value, .. }
        | Request::Replicate { value, .. } = self
        {
            if value.len() > MAX_VALUE_LEN {
                return Err(WireError::ValueTooLong(value.len()));
            }
        }
        self.encode_into(out);
        Ok(())
    }

    /// How many continuation frames follow `head` — exactly what
    /// [`Request::decode`] pulls, read off the head alone, so a receiver
    /// can take them as one burst first. 0 for a head `decode` refuses.
    pub fn continuations(head: &Message) -> usize {
        let (op, vlen) = split_head_word(head[0]);
        match op {
            OP_SET | OP_CAS | OP_REPLICATE if vlen <= MAX_VALUE_LEN => {
                spill(vlen, HEAD_VALUE_BYTES)
            }
            _ => 0,
        }
    }

    /// Decodes a request from its head frame, pulling continuation
    /// frames from `more` (which must read from the same sender).
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on an unknown opcode or an over-long
    /// value length — both checked *before* any continuation frame is
    /// pulled, so an erroring decode never blocks on frames that will
    /// not come.
    pub fn decode(head: Message, more: impl FnMut() -> Message) -> Result<Request, WireError> {
        let (op, vlen) = split_head_word(head[0]);
        if matches!(op, OP_SET | OP_CAS | OP_REPLICATE) && vlen > MAX_VALUE_LEN {
            return Err(WireError::ValueTooLong(vlen));
        }
        Ok(match op {
            OP_GET => Request::Get { key: head[1] },
            OP_SET => Request::Set {
                key: head[1],
                value: read_payload(&head, HEAD_VALUE_BYTES, vlen, more),
            },
            OP_CAS => Request::Cas {
                key: head[1],
                expected: head[2],
                value: read_payload(&head, HEAD_VALUE_BYTES, vlen, more),
            },
            OP_DELETE => Request::Delete { key: head[1] },
            OP_REPLICATE => Request::Replicate {
                key: head[1],
                version: head[2],
                value: read_payload(&head, HEAD_VALUE_BYTES, vlen, more),
            },
            OP_REPL_DELETE => Request::ReplicateDelete {
                key: head[1],
                version: head[2],
            },
            OP_REPL_GET => Request::ReplGet {
                key: head[1],
                floor: head[2],
            },
            OP_TIMED_GET => Request::TimedGet {
                key: head[1],
                stamp: head[2],
            },
            OP_STATS => Request::Stats,
            OP_STOP => Request::Stop,
            _ => return Err(WireError::UnknownOpcode(op)),
        })
    }
}

impl Response {
    /// Encodes the response as one head frame plus continuation frames.
    ///
    /// # Panics
    ///
    /// Panics on an over-long value.
    pub fn encode(&self) -> Vec<Message> {
        let mut out = Vec::with_capacity(1);
        self.encode_into(&mut out);
        out
    }

    /// [`Response::encode`] into a reused buffer: clears `out` and
    /// fills it with the frames — the server loops' per-connection
    /// scratch, so replying costs no allocation per operation.
    ///
    /// # Panics
    ///
    /// As for [`Response::encode`].
    pub fn encode_into(&self, out: &mut Vec<Message>) {
        out.clear();
        let m = match self {
            Response::Value { version, value } => return encode_value(*version, value, out),
            Response::Miss => head_frame(ST_MISS, &[]),
            Response::Stored { version } => head_frame(ST_STORED, &[*version]),
            Response::CasFail { current } => head_frame(ST_CAS_FAIL, &[*current]),
            Response::Deleted { version } => head_frame(ST_DELETED, &[*version]),
            Response::NotFound => head_frame(ST_NOT_FOUND, &[]),
            Response::Stale { hwm } => head_frame(ST_STALE, &[*hwm]),
            Response::Malformed => head_frame(ST_MALFORMED, &[]),
            Response::WrongLeader { term, leader } => {
                head_frame(ST_WRONG_LEADER, &[u64::from(*term), *leader])
            }
            Response::WrongShard { map_epoch } => {
                head_frame(ST_WRONG_SHARD, &[u64::from(*map_epoch)])
            }
            Response::StatsReply { payload } => {
                assert!(
                    payload.len() <= STATS_MAX_PAYLOAD,
                    "stats payload exceeds STATS_MAX_PAYLOAD"
                );
                let head = head_frame(ST_STATS, &[payload.len() as u64]);
                return push_payload(head, STATS_INLINE_BYTES, payload, out);
            }
        };
        out.push(m);
    }

    /// How many continuation frames follow `head` — exactly what
    /// [`Response::decode`] pulls, read off the head alone. 0 for a
    /// head `decode` refuses.
    pub fn continuations(head: &Message) -> usize {
        let (st, vlen) = split_head_word(head[0]);
        match st {
            ST_VALUE if vlen <= MAX_VALUE_LEN => spill(vlen, HEAD_VALUE_BYTES),
            ST_STATS => match usize::try_from(head[1]) {
                Ok(len) if len <= STATS_MAX_PAYLOAD => spill(len, STATS_INLINE_BYTES),
                _ => 0,
            },
            _ => 0,
        }
    }

    /// Decodes a response from its head frame, pulling continuation
    /// frames from `more`.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on an unknown status word or an
    /// over-long value length, checked before any continuation frame is
    /// pulled.
    pub fn decode(head: Message, more: impl FnMut() -> Message) -> Result<Response, WireError> {
        let (st, vlen) = split_head_word(head[0]);
        let fence = Fence::from_wire(head[1]);
        Ok(match st {
            ST_VALUE => {
                if vlen > MAX_VALUE_LEN {
                    return Err(WireError::ValueTooLong(vlen));
                }
                Response::Value {
                    version: head[1],
                    value: read_payload(&head, HEAD_VALUE_BYTES, vlen, more),
                }
            }
            ST_MISS => Response::Miss,
            ST_STORED => Response::Stored { version: head[1] },
            ST_CAS_FAIL => Response::CasFail { current: head[1] },
            ST_DELETED => Response::Deleted { version: head[1] },
            ST_NOT_FOUND => Response::NotFound,
            ST_STALE => Response::Stale { hwm: head[1] },
            ST_MALFORMED => Response::Malformed,
            ST_WRONG_LEADER => Response::WrongLeader {
                term: fence,
                leader: head[2],
            },
            ST_WRONG_SHARD => Response::WrongShard { map_epoch: fence },
            ST_STATS => {
                let len =
                    usize::try_from(head[1]).map_err(|_| WireError::StatsTooLong(usize::MAX))?;
                if len > STATS_MAX_PAYLOAD {
                    return Err(WireError::StatsTooLong(len));
                }
                Response::StatsReply {
                    payload: read_payload(&head, STATS_INLINE_BYTES, len, more),
                }
            }
            _ => return Err(WireError::UnknownStatus(st)),
        })
    }

    /// The error for a reply that does not answer the `ctx` request:
    /// the server's [`Response::Malformed`] surfaces as
    /// [`WireError::Rejected`], anything else is out of protocol. The
    /// typed decoders below are the only place a client decides this.
    fn reject<T>(self, ctx: &'static str) -> Result<T, WireError> {
        match self {
            Response::Malformed => Err(WireError::Rejected),
            _ => Err(WireError::UnexpectedResponse(ctx)),
        }
    }

    /// Decodes the reply to one read (`ctx` names the request kind).
    ///
    /// # Errors
    ///
    /// [`WireError::Rejected`] on `Malformed`, otherwise
    /// [`WireError::UnexpectedResponse`] — as for every decoder here.
    pub fn into_read(self, ctx: &'static str) -> Result<ReadHit, WireError> {
        match self {
            Response::Value { version, value } => Ok(Some((version, value))),
            Response::Miss => Ok(None),
            other => other.reject(ctx),
        }
    }

    /// Decodes the reply to a `Set`: the new version.
    pub fn into_stored(self) -> Result<u64, WireError> {
        match self {
            Response::Stored { version } => Ok(version),
            other => other.reject("Set"),
        }
    }

    /// Decodes the reply to a `Cas`; the inner result is the CAS
    /// outcome, `Err(current_version)` on a lost race.
    pub fn into_cas(self) -> Result<Result<u64, u64>, WireError> {
        match self {
            Response::Stored { version } => Ok(Ok(version)),
            Response::CasFail { current } => Ok(Err(current)),
            other => other.reject("Cas"),
        }
    }

    /// Decodes the reply to a `Delete`: the tombstone version, if the
    /// key existed.
    pub fn into_deleted(self) -> Result<Option<u64>, WireError> {
        match self {
            Response::Deleted { version } => Ok(Some(version)),
            Response::NotFound => Ok(None),
            other => other.reject("Delete"),
        }
    }

    /// Decodes the reply to a `Stats` scrape.
    pub fn into_stats(self) -> Result<RegistrySnapshot, WireError> {
        match self {
            Response::StatsReply { payload } => {
                RegistrySnapshot::from_bytes(&payload).ok_or(WireError::UnexpectedResponse("Stats"))
            }
            other => other.reject("Stats"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Round-trips a request through encode/decode over a frame queue.
    fn roundtrip_request(req: Request) -> Request {
        let frames = req.encode();
        let mut rest = frames[1..].iter().copied();
        Request::decode(frames[0], move || rest.next().expect("frame underrun"))
            .expect("well-formed request must decode")
    }

    fn roundtrip_response(resp: Response) -> Response {
        let frames = resp.encode();
        let mut rest = frames[1..].iter().copied();
        Response::decode(frames[0], move || rest.next().expect("frame underrun"))
            .expect("well-formed response must decode")
    }

    #[test]
    fn requests_roundtrip() {
        let samples = vec![
            Request::Get { key: 42 },
            Request::Set {
                key: 7,
                value: b"short".to_vec(),
            },
            Request::Cas {
                key: 9,
                expected: 1234,
                value: vec![0xAB; HEAD_VALUE_BYTES], // Exactly inline-full.
            },
            Request::Delete { key: 0 },
            Request::Replicate {
                key: 11,
                version: 88,
                value: vec![0xCD; HEAD_VALUE_BYTES + 9], // Spills a continuation.
            },
            Request::ReplicateDelete {
                key: 12,
                version: 89,
            },
            Request::ReplGet { key: 13, floor: 90 },
            Request::TimedGet {
                key: 21,
                stamp: u64::MAX,
            },
            Request::Stats,
            Request::Stop,
        ];
        for req in samples {
            assert_eq!(roundtrip_request(req.clone()), req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        let samples = vec![
            Response::Value {
                version: 99,
                value: b"v".to_vec(),
            },
            Response::Value {
                version: 1,
                value: vec![],
            },
            Response::Miss,
            Response::Stored { version: 5 },
            Response::CasFail { current: 17 },
            Response::Deleted { version: 41 },
            Response::NotFound,
            Response::Stale { hwm: 7 },
            Response::Malformed,
            Response::WrongLeader {
                term: Fence::from_wire(3),
                leader: 1,
            },
            Response::WrongLeader {
                term: Fence::from_wire(4),
                leader: NO_LEADER,
            },
            Response::WrongShard {
                map_epoch: Fence::from_wire(6),
            },
            Response::WrongShard {
                map_epoch: Fence::from_wire(u64::MAX),
            },
            Response::StatsReply { payload: vec![] },
            Response::StatsReply {
                payload: (0..STATS_INLINE_BYTES).map(|i| i as u8).collect(),
            },
            Response::StatsReply {
                // Spills into continuation frames.
                payload: (0..STATS_INLINE_BYTES + 3 * CONT_VALUE_BYTES + 5)
                    .map(|i| (i * 17 % 249) as u8)
                    .collect(),
            },
        ];
        for resp in samples {
            assert_eq!(roundtrip_response(resp.clone()), resp);
        }
    }

    #[test]
    fn stats_reply_frame_counts_and_length_cap() {
        let n = STATS_INLINE_BYTES + 2 * CONT_VALUE_BYTES + 1;
        let frames = Response::StatsReply {
            payload: vec![7; n],
        }
        .encode();
        assert_eq!(frames.len(), 4); // head + 2 full + 1 partial continuation
                                     // A corrupt length is refused before any continuation is pulled.
        let mut m: Message = [0; MSG_WORDS];
        m[0] = head_word(ST_STATS, 0);
        m[1] = (STATS_MAX_PAYLOAD + 1) as u64;
        assert_eq!(
            Response::decode(m, || panic!("must not pull continuations")),
            Err(WireError::StatsTooLong(STATS_MAX_PAYLOAD + 1))
        );
    }

    #[test]
    fn corrupt_frames_decode_to_typed_errors() {
        let no_more = || panic!("decode must not pull continuations for a corrupt head");
        // Unknown opcode / status.
        let mut m: Message = [0; MSG_WORDS];
        m[0] = head_word(0xEE, 0);
        assert_eq!(
            Request::decode(m, no_more),
            Err(WireError::UnknownOpcode(0xEE))
        );
        assert_eq!(
            Response::decode(m, no_more),
            Err(WireError::UnknownStatus(0xEE))
        );
        // The retired ack (7) and term fence (11) stay reserved, and so
        // do the retired multi-gets' opcodes (2 and 10).
        for st in [7, 11] {
            m[0] = head_word(st, 0);
            assert_eq!(
                Response::decode(m, no_more),
                Err(WireError::UnknownStatus(st))
            );
        }
        for op in [2, 10] {
            m[0] = head_word(op, 0);
            assert_eq!(
                Request::decode(m, no_more),
                Err(WireError::UnknownOpcode(op))
            );
        }
        // Over-long value length on every valued frame kind.
        for op in [OP_SET, OP_CAS, OP_REPLICATE] {
            let mut m: Message = [0; MSG_WORDS];
            m[0] = head_word(op, MAX_VALUE_LEN + 1);
            assert_eq!(
                Request::decode(m, no_more),
                Err(WireError::ValueTooLong(MAX_VALUE_LEN + 1))
            );
        }
        let mut m: Message = [0; MSG_WORDS];
        m[0] = head_word(ST_VALUE, MAX_VALUE_LEN + 1);
        assert_eq!(
            Response::decode(m, no_more),
            Err(WireError::ValueTooLong(MAX_VALUE_LEN + 1))
        );
    }

    #[test]
    fn long_values_use_continuation_frames() {
        // Every interesting boundary: empty, inline-exact, one byte
        // over, continuation-exact, max.
        for len in [
            0,
            1,
            HEAD_VALUE_BYTES,
            HEAD_VALUE_BYTES + 1,
            HEAD_VALUE_BYTES + CONT_VALUE_BYTES,
            HEAD_VALUE_BYTES + CONT_VALUE_BYTES + 1,
            MAX_VALUE_LEN,
        ] {
            let value: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let req = Request::Set { key: 1, value };
            let frames = req.encode();
            let expected_frames = 1 + len
                .saturating_sub(HEAD_VALUE_BYTES)
                .div_ceil(CONT_VALUE_BYTES);
            assert_eq!(frames.len(), expected_frames, "len {len}");
            assert_eq!(roundtrip_request(req.clone()), req);
        }
    }

    #[test]
    #[should_panic]
    fn oversized_value_rejected() {
        let _ = Request::Set {
            key: 1,
            value: vec![0; MAX_VALUE_LEN + 1],
        }
        .encode();
    }
}
