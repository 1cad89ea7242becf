//! The primary's bounded in-memory op-log.
//!
//! Every successful write on a replicated shard appends one entry
//! before streaming to the backups; the log is what a follower catches
//! up from when it adopts a term, is promoted or stops, past the frames
//! it fenced ([`OpLog::entries_after`]). Entries are ordered by
//! the store's CAS version — the shard server serializes writes, so
//! versions are strictly increasing append to append and double as the
//! replication sequence (the paper's stance of reusing what the data
//! structure already gives you).
//!
//! The log is bounded, by whoever reads it. A replication primary
//! truncates through the lowest version every backup has
//! acknowledged, and the async mode's lag bound guarantees the
//! retained window never exceeds `replicas × max_lag` entries. A
//! cluster node (`ssync-cluster`) has a reader only while a migration
//! runs: it appends only while the cluster map's arming generation is
//! odd, the migration coordinator truncates behind the version of the
//! last entry it read (never the log's end — an append may have landed
//! since), and the node drops the whole log on disarm, so the retained
//! window is one delta round's worth of writes. Either way a
//! well-configured log cannot overflow; overflow therefore asserts
//! instead of silently dropping entries a reader may still need.

use std::collections::VecDeque;
use std::sync::Mutex;

use bytes::Bytes;
use ssync_mp::Message;
use ssync_srv::router::key_bytes;
use ssync_srv::wire::{encode_replicate, Request};
use ssync_srv::Store;

/// What one replicated write did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogOp {
    /// Store this value.
    Put(Bytes),
    /// Remove the key (a tombstone).
    Delete,
}

/// One replicated write: key, primary-assigned version, and the op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// The service key.
    pub key: u64,
    /// The version the primary's store assigned the write.
    pub version: u64,
    /// The operation.
    pub op: LogOp,
}

/// One replicated write, borrowed: what a decoded stream frame and a
/// logged entry have in common, and all that applying one needs — so
/// nothing on an apply path builds a [`LogEntry`] (or pays its `Bytes`
/// allocation) just to hand a value to the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryView<'a> {
    /// The service key.
    pub key: u64,
    /// The version the primary's store assigned the write.
    pub version: u64,
    /// The value put, `None` for a delete tombstone.
    pub value: Option<&'a [u8]>,
}

impl<'a> EntryView<'a> {
    /// The entry a decoded `Replicate`/`ReplicateDelete` frame carries;
    /// `None` for any other request — on a replication or migration
    /// stream, a frame to count malformed.
    pub fn of(request: &'a Request) -> Option<EntryView<'a>> {
        let (key, version, value) = match request {
            Request::Replicate {
                key,
                version,
                value,
            } => (*key, *version, Some(value.as_slice())),
            Request::ReplicateDelete { key, version } => (*key, *version, None),
            _ => return None,
        };
        Some(EntryView {
            key,
            version,
            value,
        })
    }

    /// Applies the write through `store`'s per-key version gate
    /// ([`Store::apply_replicated`]); true if the store changed.
    pub fn apply_to(&self, store: &Store) -> bool {
        store.apply_replicated(&key_bytes(self.key), self.version, self.value)
    }
}

impl LogEntry {
    /// The entry for a write a store just committed — the shape of the
    /// request path's `committed` hook: the value written, `None` for a
    /// delete.
    pub fn committed(key: u64, version: u64, value: Option<&Bytes>) -> LogEntry {
        let op = value.map_or(LogOp::Delete, |value| LogOp::Put(value.clone()));
        LogEntry { key, version, op }
    }

    /// The borrowed view of this entry.
    pub fn view(&self) -> EntryView<'_> {
        let value = match &self.op {
            LogOp::Put(value) => Some(value.as_ref()),
            LogOp::Delete => None,
        };
        EntryView {
            key: self.key,
            version: self.version,
            value,
        }
    }

    /// Encodes the entry as the `Replicate`/`ReplicateDelete` frames a
    /// follower (or a migration target) applies — a put straight from
    /// the logged `Bytes`, so streaming an entry copies its value once,
    /// into the frames.
    pub fn encode_into(&self, frames: &mut Vec<Message>) {
        match &self.op {
            LogOp::Put(value) => encode_replicate(self.key, self.version, value, frames),
            LogOp::Delete => Request::ReplicateDelete {
                key: self.key,
                version: self.version,
            }
            .encode_into(frames),
        }
    }
}

/// The bounded, version-ordered op-log. Appended and truncated by the
/// primary server thread; read concurrently by backups catching up
/// (the in-process stand-in for a log-fetch RPC).
pub struct OpLog {
    entries: Mutex<VecDeque<LogEntry>>,
    capacity: usize,
}

impl OpLog {
    /// An empty log retaining at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> OpLog {
        assert!(capacity > 0, "op-log capacity must be positive");
        OpLog {
            entries: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            capacity,
        }
    }

    /// Appends one entry.
    ///
    /// # Panics
    ///
    /// Panics if the log is full (the primary's lag bound is supposed
    /// to make that impossible — losing an unacknowledged entry would
    /// silently diverge a backup) or if `entry.version` does not extend
    /// the version order.
    pub fn append(&self, entry: LogEntry) {
        let mut entries = self.entries.lock().expect("op-log poisoned");
        assert!(
            entries.len() < self.capacity,
            "op-log overflow: replication lag exceeded capacity {}",
            self.capacity
        );
        if let Some(last) = entries.back() {
            assert!(
                entry.version > last.version,
                "op-log versions must be strictly increasing ({} after {})",
                entry.version,
                last.version
            );
        }
        entries.push_back(entry);
    }

    /// Clones every retained entry with a version above `version`, in
    /// order — a backup's catch-up read.
    pub fn entries_after(&self, version: u64) -> Vec<LogEntry> {
        let entries = self.entries.lock().expect("op-log poisoned");
        let start = entries.partition_point(|e| e.version <= version);
        entries.iter().skip(start).cloned().collect()
    }

    /// How many retained entries have a version above `version` — the
    /// primary's per-backup lag measure.
    pub fn outstanding_after(&self, version: u64) -> usize {
        let entries = self.entries.lock().expect("op-log poisoned");
        entries.len() - entries.partition_point(|e| e.version <= version)
    }

    /// Drops every entry with a version at or below `version` (all
    /// backups acknowledged them).
    pub fn truncate_through(&self, version: u64) {
        let mut entries = self.entries.lock().expect("op-log poisoned");
        let keep_from = entries.partition_point(|e| e.version <= version);
        entries.drain(..keep_from);
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("op-log poisoned").len()
    }

    /// True if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(key: u64, version: u64) -> LogEntry {
        LogEntry {
            key,
            version,
            op: LogOp::Put(Bytes::copy_from_slice(&version.to_be_bytes())),
        }
    }

    #[test]
    fn append_read_truncate() {
        let log = OpLog::new(16);
        assert!(log.is_empty());
        for v in [2, 5, 9] {
            log.append(put(v, v));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.outstanding_after(0), 3);
        assert_eq!(log.outstanding_after(5), 1);
        assert_eq!(log.outstanding_after(9), 0);
        let tail = log.entries_after(2);
        assert_eq!(
            tail.iter().map(|e| e.version).collect::<Vec<_>>(),
            vec![5, 9]
        );
        log.truncate_through(5);
        assert_eq!(log.len(), 1);
        assert_eq!(log.entries_after(0)[0].version, 9);
    }

    #[test]
    fn a_decoded_frame_and_its_logged_entry_are_one_view() {
        let store = Store::new(8, 2);
        let value = Bytes::from_static(b"nine");
        for entry in [
            LogEntry::committed(3, 9, Some(&value)),
            LogEntry::committed(3, 10, None),
        ] {
            let mut frames = Vec::new();
            entry.encode_into(&mut frames);
            let mut rest = frames[1..].iter().copied();
            let request = Request::decode(frames[0], || rest.next().unwrap()).unwrap();
            assert_eq!(EntryView::of(&request), Some(entry.view()));
            assert!(entry.view().apply_to(&store), "a newer version lands");
            assert!(!entry.view().apply_to(&store), "its duplicate is gated");
        }
        assert_eq!(LogEntry::committed(3, 10, None).op, LogOp::Delete);
        assert!(store.is_empty(), "the tombstone was the later entry");
        assert_eq!(EntryView::of(&Request::Stop), None);
    }

    #[test]
    #[should_panic(expected = "op-log overflow")]
    fn overflow_asserts_rather_than_dropping() {
        let log = OpLog::new(2);
        log.append(put(1, 1));
        log.append(put(2, 2));
        log.append(put(3, 3));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn out_of_order_versions_rejected() {
        let log = OpLog::new(4);
        log.append(put(1, 5));
        log.append(put(2, 5));
    }
}
