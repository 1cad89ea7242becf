//! The request/response wire format over `ssync-mp` messages.
//!
//! A channel message is one cache line: seven 64-bit words
//! ([`MSG_WORDS`]). Every operation is packed into a *head frame* whose
//! word 0 carries the opcode/status, an inline value length, and a
//! multi-get count; words 1 and 2 carry the key and (for CAS) the
//! expected version; words 3..7 carry the first [`HEAD_VALUE_BYTES`]
//! value bytes. Values longer than that stream in *continuation frames*
//! that use the full line ([`CONT_VALUE_BYTES`] bytes each) — the
//! channels are SPSC and FIFO, so continuations need no header; the
//! receiver knows exactly how many bytes remain.
//!
//! Batching: [`Request::MultiGet`] coalesces up to [`MGET_MAX`] keys
//! into a single head frame (Memcached's `get k1 k2 …` multi-get), and
//! the server answers with one [`Response`] per key, in key order.
//!
//! The format is symmetric by design: both sides encode with
//! [`Request::encode`] / [`Response::encode`] (a `Vec` of frames sent
//! back-to-back) and decode with `decode(head, more)`, where `more`
//! pulls the next frame *from the same peer* — the server uses
//! `ServerHub::recv_from` for this, a client its reply channel.
//!
//! Replication rides the same format: a primary streams
//! [`Request::Replicate`] / [`Request::ReplicateDelete`] entries (the
//! value reusing the continuation-frame protocol) to its backups, which
//! answer with cumulative [`Response::ReplAck`]s; clients read from
//! backups with [`Request::ReplGet`] / [`Request::ReplMultiGet`], whose
//! `floor` word lets the backup answer [`Response::Stale`] instead of
//! serving data older than what the client has already observed.
//!
//! Decoding is total: an unknown opcode or status, an over-long value
//! length, or a bad multi-get count comes back as a [`WireError`]
//! instead of a panic, so one corrupt head frame cannot take down a
//! server thread (it answers [`Response::Malformed`] and keeps
//! serving). What decoding *cannot* recover is framing: a corrupt head
//! that mis-states its continuation count desynchronizes the SPSC
//! stream, which has no resynchronization point by design — the typed
//! error caps the damage to the connection, not the server.

use core::fmt;

use ssync_core::RegistrySnapshot;
use ssync_mp::{Message, MSG_WORDS};

/// Value bytes carried inline by a head frame (words 3..7).
pub const HEAD_VALUE_BYTES: usize = 4 * 8;

/// Value bytes carried by one continuation frame (the full line).
pub const CONT_VALUE_BYTES: usize = MSG_WORDS * 8;

/// Maximum value length the format carries (fits the 16-bit length
/// field with room to spare; caps continuation streaming).
pub const MAX_VALUE_LEN: usize = 1024;

/// Maximum keys per [`Request::MultiGet`] head frame (words 1..7).
pub const MGET_MAX: usize = MSG_WORDS - 1;

/// Keys carried inline by a [`Request::ReplMultiGet`] head frame
/// (words 2..7 — word 1 carries the read floor).
pub const REPL_MGET_HEAD_KEYS: usize = MSG_WORDS - 2;

/// Keys per [`Request::ReplMultiGet`] continuation frame.
pub const REPL_MGET_CONT_KEYS: usize = MSG_WORDS;

/// Maximum keys per [`Request::ReplMultiGet`] — unlike the primary's
/// one-line [`Request::MultiGet`], the replica read path spills keys
/// into continuation frames (the same streaming the value protocol
/// uses), so one floor-guarded round-trip can bulk-read a whole
/// batch's worth of keys from a backup.
pub const REPL_MGET_MAX: usize = 64;

const OP_GET: u64 = 1;
const OP_MGET: u64 = 2;
const OP_SET: u64 = 3;
const OP_CAS: u64 = 4;
const OP_DELETE: u64 = 5;
const OP_STOP: u64 = 6;
const OP_REPLICATE: u64 = 7;
const OP_REPL_DELETE: u64 = 8;
const OP_REPL_GET: u64 = 9;
const OP_REPL_MGET: u64 = 10;
const OP_TIMED_GET: u64 = 11;
const OP_STATS: u64 = 12;

const ST_VALUE: u64 = 1;
const ST_MISS: u64 = 2;
const ST_STORED: u64 = 3;
const ST_CAS_FAIL: u64 = 4;
const ST_DELETED: u64 = 5;
const ST_NOT_FOUND: u64 = 6;
const ST_REPL_ACK: u64 = 7;
const ST_STALE: u64 = 8;
const ST_MALFORMED: u64 = 9;
const ST_WRONG_LEADER: u64 = 10;
const ST_WRONG_TERM: u64 = 11;
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
/// `BadMultiGetCount`) mean the head frame itself is corrupt; a server
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
    /// A multi-get head frame claimed zero keys or more than the
    /// variant's maximum.
    BadMultiGetCount(usize),
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
            WireError::BadMultiGetCount(n) => write!(f, "bad multi-get key count {n}"),
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
    /// Look up to [`MGET_MAX`] keys up in one round-trip; the server
    /// replies with one [`Response`] per key, in order.
    MultiGet {
        /// The keys (1..=[`MGET_MAX`]).
        keys: Vec<u64>,
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
    /// Batched [`Request::ReplGet`]: up to [`REPL_MGET_MAX`] keys under
    /// one freshness floor, spilling past [`REPL_MGET_HEAD_KEYS`] into
    /// continuation frames. A stale backup answers with a single
    /// [`Response::Stale`] for the whole batch.
    ReplMultiGet {
        /// The keys (1..=[`REPL_MGET_MAX`]).
        keys: Vec<u64>,
        /// The lowest applied version the client will accept.
        floor: u64,
    },
    /// [`Request::Get`] carrying the client's intended-send timestamp
    /// (on the [`ssync_core::stats::mono_ns`] timebase). The server
    /// answers exactly like a `Get`, but first records
    /// `now - stamp` into its queue-wait histogram and times the
    /// lookup into its apply histogram — the per-op server-side split
    /// the open-loop harness uses to attribute tail cost.
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
    /// Miss on a `Get`/`MultiGet`.
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
    /// Backup-to-primary: every replicated entry with a version ≤ this
    /// has been applied (acks are cumulative, so coalescing or dropping
    /// intermediate acks is harmless).
    ReplAck {
        /// Highest contiguously applied version.
        version: u64,
    },
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
        term: u64,
        /// The node id it believes leads that term, or [`NO_LEADER`]
        /// while the shard is leaderless (mid-failover).
        leader: u64,
    },
    /// A replication frame arrived from a sender whose term is stale
    /// (a fenced old primary): nothing was applied. Carries the
    /// responder's current term so the sender can stand down.
    WrongTerm {
        /// The term the responder currently observes.
        term: u64,
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
        map_epoch: u64,
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

/// Packs opcode/status (bits 0..8), multi-get count (bits 8..16) and
/// value length (bits 16..32) into word 0.
fn head_word(op: u64, count: usize, vlen: usize) -> u64 {
    debug_assert!(count < 256 && vlen < 65_536);
    op | (count as u64) << 8 | (vlen as u64) << 16
}

fn split_head_word(w: u64) -> (u64, usize, usize) {
    (
        w & 0xFF,
        (w >> 8 & 0xFF) as usize,
        (w >> 16 & 0xFFFF) as usize,
    )
}

/// Serializes `value` into the tail of `head` plus however many
/// continuation frames it needs, appending all frames to `out`.
fn push_value_frames(mut head: Message, value: &[u8], out: &mut Vec<Message>) {
    assert!(value.len() <= MAX_VALUE_LEN, "value exceeds MAX_VALUE_LEN");
    let inline = value.len().min(HEAD_VALUE_BYTES);
    write_bytes(&mut head[3..], &value[..inline]);
    out.push(head);
    for chunk in value[inline..].chunks(CONT_VALUE_BYTES) {
        let mut frame: Message = [0; MSG_WORDS];
        write_bytes(&mut frame, chunk);
        out.push(frame);
    }
}

/// Reads a `vlen`-byte value from the head frame's tail plus
/// continuation frames pulled via `more`.
fn read_value_frames(head: &Message, vlen: usize, mut more: impl FnMut() -> Message) -> Vec<u8> {
    let mut value = vec![0u8; vlen];
    let inline = vlen.min(HEAD_VALUE_BYTES);
    read_bytes(&head[3..], &mut value[..inline]);
    let mut done = inline;
    while done < vlen {
        let frame = more();
        let n = (vlen - done).min(CONT_VALUE_BYTES);
        read_bytes(&frame, &mut value[done..done + n]);
        done += n;
    }
    value
}

fn write_bytes(words: &mut [u64], bytes: &[u8]) {
    for (i, chunk) in bytes.chunks(8).enumerate() {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        words[i] = u64::from_le_bytes(w);
    }
}

fn read_bytes(words: &[u64], bytes: &mut [u8]) {
    for (i, chunk) in bytes.chunks_mut(8).enumerate() {
        let w = words[i].to_le_bytes();
        chunk.copy_from_slice(&w[..chunk.len()]);
    }
}

impl Request {
    /// Encodes the request as one head frame plus continuation frames,
    /// to be sent back-to-back on one channel.
    ///
    /// # Panics
    ///
    /// Panics on an over-long value, an empty multi-get, or one with
    /// more than [`MGET_MAX`] keys.
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
            Request::Get { key } => {
                let mut m: Message = [0; MSG_WORDS];
                m[0] = head_word(OP_GET, 0, 0);
                m[1] = *key;
                out.push(m);
            }
            Request::MultiGet { keys } => {
                assert!(
                    !keys.is_empty() && keys.len() <= MGET_MAX,
                    "multi-get takes 1..={MGET_MAX} keys"
                );
                let mut m: Message = [0; MSG_WORDS];
                m[0] = head_word(OP_MGET, keys.len(), 0);
                m[1..=keys.len()].copy_from_slice(keys);
                out.push(m);
            }
            Request::Set { key, value } => {
                let mut m: Message = [0; MSG_WORDS];
                m[0] = head_word(OP_SET, 0, value.len());
                m[1] = *key;
                push_value_frames(m, value, out);
            }
            Request::Cas {
                key,
                expected,
                value,
            } => {
                let mut m: Message = [0; MSG_WORDS];
                m[0] = head_word(OP_CAS, 0, value.len());
                m[1] = *key;
                m[2] = *expected;
                push_value_frames(m, value, out);
            }
            Request::Delete { key } => {
                let mut m: Message = [0; MSG_WORDS];
                m[0] = head_word(OP_DELETE, 0, 0);
                m[1] = *key;
                out.push(m);
            }
            Request::Replicate {
                key,
                version,
                value,
            } => {
                let mut m: Message = [0; MSG_WORDS];
                m[0] = head_word(OP_REPLICATE, 0, value.len());
                m[1] = *key;
                m[2] = *version;
                push_value_frames(m, value, out);
            }
            Request::ReplicateDelete { key, version } => {
                let mut m: Message = [0; MSG_WORDS];
                m[0] = head_word(OP_REPL_DELETE, 0, 0);
                m[1] = *key;
                m[2] = *version;
                out.push(m);
            }
            Request::ReplGet { key, floor } => {
                let mut m: Message = [0; MSG_WORDS];
                m[0] = head_word(OP_REPL_GET, 0, 0);
                m[1] = *key;
                m[2] = *floor;
                out.push(m);
            }
            Request::ReplMultiGet { keys, floor } => {
                assert!(
                    !keys.is_empty() && keys.len() <= REPL_MGET_MAX,
                    "replica multi-get takes 1..={REPL_MGET_MAX} keys"
                );
                let mut m: Message = [0; MSG_WORDS];
                m[0] = head_word(OP_REPL_MGET, keys.len(), 0);
                m[1] = *floor;
                let inline = keys.len().min(REPL_MGET_HEAD_KEYS);
                m[2..2 + inline].copy_from_slice(&keys[..inline]);
                out.push(m);
                for chunk in keys[inline..].chunks(REPL_MGET_CONT_KEYS) {
                    let mut frame: Message = [0; MSG_WORDS];
                    frame[..chunk.len()].copy_from_slice(chunk);
                    out.push(frame);
                }
            }
            Request::TimedGet { key, stamp } => {
                let mut m: Message = [0; MSG_WORDS];
                m[0] = head_word(OP_TIMED_GET, 0, 0);
                m[1] = *key;
                m[2] = *stamp;
                out.push(m);
            }
            Request::Stats => {
                let mut m: Message = [0; MSG_WORDS];
                m[0] = head_word(OP_STATS, 0, 0);
                out.push(m);
            }
            Request::Stop => {
                let mut m: Message = [0; MSG_WORDS];
                m[0] = head_word(OP_STOP, 0, 0);
                out.push(m);
            }
        }
    }

    /// Decodes a request from its head frame, pulling continuation
    /// frames from `more` (which must read from the same sender).
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on an unknown opcode, an over-long value
    /// length, or a bad multi-get count — all checked *before* any
    /// continuation frame is pulled, so an erroring decode never blocks
    /// on frames that will not come.
    pub fn decode(head: Message, more: impl FnMut() -> Message) -> Result<Request, WireError> {
        let (op, count, vlen) = split_head_word(head[0]);
        if matches!(op, OP_SET | OP_CAS | OP_REPLICATE) && vlen > MAX_VALUE_LEN {
            return Err(WireError::ValueTooLong(vlen));
        }
        Ok(match op {
            OP_GET => Request::Get { key: head[1] },
            OP_MGET => {
                if count == 0 || count > MGET_MAX {
                    return Err(WireError::BadMultiGetCount(count));
                }
                Request::MultiGet {
                    keys: head[1..=count].to_vec(),
                }
            }
            OP_SET => Request::Set {
                key: head[1],
                value: read_value_frames(&head, vlen, more),
            },
            OP_CAS => Request::Cas {
                key: head[1],
                expected: head[2],
                value: read_value_frames(&head, vlen, more),
            },
            OP_DELETE => Request::Delete { key: head[1] },
            OP_REPLICATE => Request::Replicate {
                key: head[1],
                version: head[2],
                value: read_value_frames(&head, vlen, more),
            },
            OP_REPL_DELETE => Request::ReplicateDelete {
                key: head[1],
                version: head[2],
            },
            OP_REPL_GET => Request::ReplGet {
                key: head[1],
                floor: head[2],
            },
            OP_REPL_MGET => {
                if count == 0 || count > REPL_MGET_MAX {
                    return Err(WireError::BadMultiGetCount(count));
                }
                let mut more = more;
                let inline = count.min(REPL_MGET_HEAD_KEYS);
                let mut keys = head[2..2 + inline].to_vec();
                while keys.len() < count {
                    let frame = more();
                    let take = (count - keys.len()).min(REPL_MGET_CONT_KEYS);
                    keys.extend_from_slice(&frame[..take]);
                }
                Request::ReplMultiGet {
                    keys,
                    floor: head[1],
                }
            }
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
        let mut m: Message = [0; MSG_WORDS];
        match self {
            Response::Value { version, value } => {
                m[0] = head_word(ST_VALUE, 0, value.len());
                m[1] = *version;
                push_value_frames(m, value, out);
            }
            Response::Miss => {
                m[0] = head_word(ST_MISS, 0, 0);
                out.push(m);
            }
            Response::Stored { version } => {
                m[0] = head_word(ST_STORED, 0, 0);
                m[1] = *version;
                out.push(m);
            }
            Response::CasFail { current } => {
                m[0] = head_word(ST_CAS_FAIL, 0, 0);
                m[1] = *current;
                out.push(m);
            }
            Response::Deleted { version } => {
                m[0] = head_word(ST_DELETED, 0, 0);
                m[1] = *version;
                out.push(m);
            }
            Response::NotFound => {
                m[0] = head_word(ST_NOT_FOUND, 0, 0);
                out.push(m);
            }
            Response::ReplAck { version } => {
                m[0] = head_word(ST_REPL_ACK, 0, 0);
                m[1] = *version;
                out.push(m);
            }
            Response::Stale { hwm } => {
                m[0] = head_word(ST_STALE, 0, 0);
                m[1] = *hwm;
                out.push(m);
            }
            Response::Malformed => {
                m[0] = head_word(ST_MALFORMED, 0, 0);
                out.push(m);
            }
            Response::WrongLeader { term, leader } => {
                m[0] = head_word(ST_WRONG_LEADER, 0, 0);
                m[1] = *term;
                m[2] = *leader;
                out.push(m);
            }
            Response::WrongTerm { term } => {
                m[0] = head_word(ST_WRONG_TERM, 0, 0);
                m[1] = *term;
                out.push(m);
            }
            Response::WrongShard { map_epoch } => {
                m[0] = head_word(ST_WRONG_SHARD, 0, 0);
                m[1] = *map_epoch;
                out.push(m);
            }
            Response::StatsReply { payload } => {
                assert!(
                    payload.len() <= STATS_MAX_PAYLOAD,
                    "stats payload exceeds STATS_MAX_PAYLOAD"
                );
                m[0] = head_word(ST_STATS, 0, 0);
                m[1] = payload.len() as u64;
                let inline = payload.len().min(STATS_INLINE_BYTES);
                write_bytes(&mut m[2..], &payload[..inline]);
                out.push(m);
                for chunk in payload[inline..].chunks(CONT_VALUE_BYTES) {
                    let mut frame: Message = [0; MSG_WORDS];
                    write_bytes(&mut frame, chunk);
                    out.push(frame);
                }
            }
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
        let (st, _, vlen) = split_head_word(head[0]);
        Ok(match st {
            ST_VALUE => {
                if vlen > MAX_VALUE_LEN {
                    return Err(WireError::ValueTooLong(vlen));
                }
                Response::Value {
                    version: head[1],
                    value: read_value_frames(&head, vlen, more),
                }
            }
            ST_MISS => Response::Miss,
            ST_STORED => Response::Stored { version: head[1] },
            ST_CAS_FAIL => Response::CasFail { current: head[1] },
            ST_DELETED => Response::Deleted { version: head[1] },
            ST_NOT_FOUND => Response::NotFound,
            ST_REPL_ACK => Response::ReplAck { version: head[1] },
            ST_STALE => Response::Stale { hwm: head[1] },
            ST_MALFORMED => Response::Malformed,
            ST_WRONG_LEADER => Response::WrongLeader {
                term: head[1],
                leader: head[2],
            },
            ST_WRONG_TERM => Response::WrongTerm { term: head[1] },
            ST_WRONG_SHARD => Response::WrongShard { map_epoch: head[1] },
            ST_STATS => {
                let len =
                    usize::try_from(head[1]).map_err(|_| WireError::StatsTooLong(usize::MAX))?;
                if len > STATS_MAX_PAYLOAD {
                    return Err(WireError::StatsTooLong(len));
                }
                let mut more = more;
                let mut payload = vec![0u8; len];
                let inline = len.min(STATS_INLINE_BYTES);
                read_bytes(&head[2..], &mut payload[..inline]);
                let mut done = inline;
                while done < len {
                    let frame = more();
                    let n = (len - done).min(CONT_VALUE_BYTES);
                    read_bytes(&frame, &mut payload[done..done + n]);
                    done += n;
                }
                Response::StatsReply { payload }
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
            Request::MultiGet {
                keys: vec![1, u64::MAX, 3],
            },
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
            Request::ReplMultiGet {
                keys: vec![5, 6, 7, 8, 9],
                floor: u64::MAX,
            },
            Request::ReplMultiGet {
                // Wide batch: spills into continuation frames (5 inline
                // + 7 per frame; 24 keys = head + 3 frames).
                keys: (100..124).collect(),
                floor: 77,
            },
            Request::ReplMultiGet {
                keys: (0..REPL_MGET_MAX as u64).collect(),
                floor: 1,
            },
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
            Response::ReplAck { version: 1000 },
            Response::Stale { hwm: 7 },
            Response::Malformed,
            Response::WrongLeader { term: 3, leader: 1 },
            Response::WrongLeader {
                term: 4,
                leader: NO_LEADER,
            },
            Response::WrongTerm { term: 9 },
            Response::WrongShard { map_epoch: 6 },
            Response::WrongShard {
                map_epoch: u64::MAX,
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
        m[0] = head_word(ST_STATS, 0, 0);
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
        m[0] = head_word(0xEE, 0, 0);
        assert_eq!(
            Request::decode(m, no_more),
            Err(WireError::UnknownOpcode(0xEE))
        );
        assert_eq!(
            Response::decode(m, no_more),
            Err(WireError::UnknownStatus(0xEE))
        );
        // Over-long value length on every valued frame kind.
        for op in [OP_SET, OP_CAS, OP_REPLICATE] {
            let mut m: Message = [0; MSG_WORDS];
            m[0] = head_word(op, 0, MAX_VALUE_LEN + 1);
            assert_eq!(
                Request::decode(m, no_more),
                Err(WireError::ValueTooLong(MAX_VALUE_LEN + 1))
            );
        }
        let mut m: Message = [0; MSG_WORDS];
        m[0] = head_word(ST_VALUE, 0, MAX_VALUE_LEN + 1);
        assert_eq!(
            Response::decode(m, no_more),
            Err(WireError::ValueTooLong(MAX_VALUE_LEN + 1))
        );
        // Zero- and over-count multi-gets.
        for (op, bad) in [
            (OP_MGET, 0),
            (OP_MGET, MGET_MAX + 1),
            (OP_REPL_MGET, 0),
            (OP_REPL_MGET, REPL_MGET_MAX + 1),
        ] {
            let mut m: Message = [0; MSG_WORDS];
            m[0] = head_word(op, bad, 0);
            assert_eq!(
                Request::decode(m, no_more),
                Err(WireError::BadMultiGetCount(bad))
            );
        }
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

    #[test]
    #[should_panic]
    fn oversized_multiget_rejected() {
        let _ = Request::MultiGet {
            keys: vec![0; MGET_MAX + 1],
        }
        .encode();
    }

    #[test]
    #[should_panic]
    fn oversized_repl_multiget_rejected() {
        let _ = Request::ReplMultiGet {
            keys: vec![0; REPL_MGET_MAX + 1],
            floor: 0,
        }
        .encode();
    }

    #[test]
    fn wide_repl_multiget_frame_counts() {
        for (n, frames) in [(1, 1), (5, 1), (6, 2), (12, 2), (13, 3), (64, 10)] {
            let req = Request::ReplMultiGet {
                keys: (0..n as u64).collect(),
                floor: 0,
            };
            assert_eq!(req.encode().len(), frames, "{n} keys");
        }
    }
}
