//! The epoch-versioned cluster map: slot→shard routing as one fenced
//! atomic word plus double-buffered assignment tables.
//!
//! This is `ssync_repl::ClusterMap`'s word asked a different question:
//! "which shard owns slot L" instead of "who leads shard S". A key
//! hashes to one of [`ROUTE_SLOTS`] fixed slots
//! ([`ssync_srv::slot_of`]); the map assigns each slot an owner shard.
//! Resharding reassigns slots — it never re-hashes keys — by staging a
//! complete replacement table and publishing it with **one**
//! [`FencedWord::try_advance`] on the map word, whose fence is the map
//! **epoch** and whose tag is `shards << 1 | table-select bit`.
//!
//! The two assignment tables are double-buffered. Only the migration
//! coordinator ever writes, and only to the *cold* table
//! ([`ShardMap::stage`]); the cutover CAS advances the epoch, installs
//! the new shard count, and flips the select bit in one step, so a
//! reader either routes entirely under the old map or entirely under
//! the new — there is no instant at which a torn table is observable.
//! Epochs are fenced the way terms are: a [`Fence`] only grows and only
//! meets comparisons, which are the whole staleness check.
//!
//! The map also carries the two migration handshakes, each one shared
//! word plus a per-shard acknowledgement: the op-log arming generation
//! ([`ShardMap::arm_logs`] — nodes log their writes only while a
//! coordinator is reading the logs) and the freeze round (one bitmask
//! word of frozen slots, plus a per-shard quiesced high-water mark,
//! documented at [`ShardMap::freeze`]) — see `DESIGN.md` "Cluster map &
//! live migration" for the protocol they anchor.

use ssync_core::{CachePadded, Fence, Fenced, FencedWord};
use ssync_srv::{slot_of, ROUTE_SLOTS};

use crate::sync::atomic::{AtomicU64, Ordering};

/// One decoded read of the map word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapView {
    /// The map epoch (starts at [`Fence::FIRST`], advanced by each
    /// cutover).
    pub epoch: Fence,
    /// Shards in the fleet under this epoch.
    pub shards: usize,
    /// Which of the two assignment tables is active.
    pub table: usize,
}

/// A client's cached copy of the map: the epoch it was read under and
/// the full slot→owner assignment. Cheap to refetch on a `WrongShard`
/// redirect ([`ShardMap::snapshot`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapSnapshot {
    /// The epoch the owners were read under.
    pub epoch: Fence,
    /// Owner shard per routing slot ([`ROUTE_SLOTS`] entries).
    pub owners: Vec<usize>,
}

impl MapSnapshot {
    /// The owner shard of a routing slot.
    pub fn owner_of(&self, slot: usize) -> usize {
        self.owners[slot]
    }

    /// The owner shard of a key (via [`slot_of`]).
    pub fn owner_of_key(&self, key: u64) -> usize {
        self.owners[slot_of(key)]
    }
}

/// The map word's tag (every caller bounds `shards` by [`ROUTE_SLOTS`]).
fn tag(shards: usize, table: usize) -> u16 {
    (shards << 1 | table) as u16
}

fn view_of(word: Fenced) -> MapView {
    MapView {
        epoch: word.fence,
        shards: usize::from(word.tag >> 1),
        table: usize::from(word.tag & 1),
    }
}

/// The shared cluster map, handed by reference to every node server,
/// client, and the migration coordinator.
pub struct ShardMap {
    /// The epoch over `shards << 1 | select` — the one word a routing
    /// read loads and the one word a cutover CASes.
    word: FencedWord,
    /// Double-buffered slot→owner tables, [`ROUTE_SLOTS`] entries
    /// each. The active one (select bit of `word`) is read-only; the
    /// cold one is written only by the single migration coordinator.
    // chk: read-mostly owner entries, written by one thread per
    // migration and published by the `word` CAS; padding 128 words
    // would cost 8 KiB to avoid sharing that writers never contend on.
    tables: [Box<[AtomicU64]>; 2],
    /// Bitmask of slots frozen for a migration's final delta drain
    /// (bit = slot; `ROUTE_SLOTS` = 64 is what makes this one word).
    freeze_req: CachePadded<AtomicU64>,
    /// The freeze round (migration attempt) counter. Bumped *after*
    /// the freeze bits are set (both Release): a node that Acquire-
    /// reads the new round is guaranteed to see the freeze, which is
    /// what makes a round-tagged quiesce acknowledgement trustworthy —
    /// see [`ShardMap::begin_round`].
    round: CachePadded<AtomicU64>,
    /// Per-shard quiesce acknowledgements: `round << 40 | hwm + 1`
    /// once the shard's node has observed round `round`'s freeze and
    /// published the last version it logged, 0 while it hasn't
    /// (the `+ 1` keeps 0 free as the "not yet" sentinel).
    quiesced: Box<[CachePadded<AtomicU64>]>,
    /// Per-shard migration-stream progress: cumulative count of
    /// stream entries the shard's node has processed, published by
    /// the node, awaited by the coordinator. Monotone across attempts
    /// (never reset), so `processed == sent` always means "no frames
    /// in flight" no matter how many restarts happened.
    mig_seen: Box<[CachePadded<AtomicU64>]>,
    /// The op-log arming generation: odd while a migration coordinator
    /// is reading the nodes' op-logs, even otherwise. Written only by
    /// the (single) coordinator, loaded by every node once per loop
    /// pass — see [`ShardMap::arm_logs`].
    log_generation: CachePadded<AtomicU64>,
    /// Per-shard arming acknowledgements: the last generation the
    /// shard's node observed and switched its logging to, published
    /// by the node, awaited by the coordinator before it reads a key.
    log_acked: Box<[CachePadded<AtomicU64>]>,
}

/// Bits the quiesce hwm occupies below the round tag.
const QUIESCE_HWM_BITS: u32 = 40;

impl ShardMap {
    /// A fresh map at epoch 1: slot `L` owned by shard `L % shards`,
    /// active table 0.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or exceeds [`ROUTE_SLOTS`] (a shard
    /// beyond the slot count could never own anything).
    pub fn new(shards: usize) -> ShardMap {
        assert!(shards > 0 && shards <= ROUTE_SLOTS);
        let table = |live: bool| -> Box<[AtomicU64]> {
            (0..ROUTE_SLOTS)
                .map(|slot| AtomicU64::new(if live { (slot % shards) as u64 } else { 0 }))
                .collect()
        };
        let zeros = || -> Box<[CachePadded<AtomicU64>]> {
            (0..ROUTE_SLOTS)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect()
        };
        ShardMap {
            word: FencedWord::new(tag(shards, 0)),
            tables: [table(true), table(false)],
            freeze_req: CachePadded::new(AtomicU64::new(0)),
            round: CachePadded::new(AtomicU64::new(0)),
            quiesced: zeros(),
            mig_seen: zeros(),
            log_generation: CachePadded::new(AtomicU64::new(0)),
            log_acked: zeros(),
        }
    }

    /// The current epoch, shard count, and active table, in one atomic
    /// read.
    pub fn view(&self) -> MapView {
        view_of(self.word.load())
    }

    /// The current map epoch.
    pub fn epoch(&self) -> Fence {
        self.view().epoch
    }

    /// Shards in the fleet under the current epoch.
    pub fn num_shards(&self) -> usize {
        self.view().shards
    }

    /// The owner shard of a routing slot under the current map.
    ///
    /// The Acquire load of the word synchronizes with the cutover CAS,
    /// so the active table's entries — staged before that CAS — are
    /// fully visible; the entry load itself needs no further ordering.
    pub fn owner_of(&self, slot: usize) -> usize {
        let view = self.view();
        self.tables[view.table][slot].load(Ordering::Relaxed) as usize
    }

    /// The owner shard of a key under the current map, with the epoch
    /// it was routed under — what a server compares against a client's
    /// claim before executing.
    pub fn route(&self, key: u64) -> (usize, Fence) {
        let view = self.view();
        let owner = self.tables[view.table][slot_of(key)].load(Ordering::Relaxed) as usize;
        (owner, view.epoch)
    }

    /// A consistent copy of the whole assignment: epoch plus all
    /// [`ROUTE_SLOTS`] owners. Retries if a cutover lands mid-read
    /// (epochs strictly grow, so an unchanged word brackets a torn-free
    /// read).
    pub fn snapshot(&self) -> MapSnapshot {
        loop {
            let before = self.word.load();
            let table = view_of(before).table;
            let owners = (0..ROUTE_SLOTS)
                .map(|slot| self.tables[table][slot].load(Ordering::Relaxed) as usize)
                .collect();
            if self.word.load() == before {
                return MapSnapshot {
                    epoch: before.fence,
                    owners,
                };
            }
        }
    }

    /// Stages a complete replacement assignment into the cold table.
    /// Coordinator-only: nothing routes by the cold table until the
    /// [`ShardMap::try_cutover`] CAS publishes it.
    ///
    /// # Panics
    ///
    /// Panics if `owners` is not exactly [`ROUTE_SLOTS`] entries.
    pub fn stage(&self, owners: &[usize]) {
        assert_eq!(owners.len(), ROUTE_SLOTS);
        let cold = &self.tables[self.view().table ^ 1];
        for (slot, &owner) in owners.iter().enumerate() {
            debug_assert!(owner < ROUTE_SLOTS);
            // Published by the cutover CAS's Release; see `owner_of`.
            cold[slot].store(owner as u64, Ordering::Relaxed);
        }
    }

    /// Publishes the staged table: one CAS advances the epoch, installs
    /// `new_shards`, and flips the table-select bit together — the
    /// linearization point of the resharding. Fails (returning the
    /// winning view) if the map moved since `expected`, so racing
    /// coordinators resolve to exactly one winner.
    ///
    /// # Errors
    ///
    /// The current view, if it no longer equals `expected`.
    pub fn try_cutover(&self, expected: MapView, new_shards: usize) -> Result<Fence, MapView> {
        assert!(new_shards > 0 && new_shards <= ROUTE_SLOTS);
        let seen = Fenced {
            fence: expected.epoch,
            tag: tag(expected.shards, expected.table),
        };
        let next = tag(new_shards, expected.table ^ 1);
        self.word.try_advance(seen, next).map_err(view_of)
    }

    /// Requests a freeze of the slots in `mask` (bit = slot index):
    /// their owners stop applying writes, publish the op-log version
    /// they stopped at ([`ShardMap::publish_quiesced`]), and defer
    /// client writes until the cutover. Freezing is cumulative across
    /// calls.
    pub fn freeze(&self, mask: u64) {
        self.freeze_req.fetch_or(mask, Ordering::Release);
    }

    /// Lifts the freeze on the slots in `mask`.
    pub fn unfreeze(&self, mask: u64) {
        self.freeze_req.fetch_and(!mask, Ordering::Release);
    }

    /// The currently frozen slots, as a bitmask.
    pub fn frozen(&self) -> u64 {
        self.freeze_req.load(Ordering::Acquire)
    }

    /// True if the slot is frozen for a migration drain.
    pub fn is_frozen(&self, slot: usize) -> bool {
        self.frozen() & (1 << slot) != 0
    }

    /// Opens a new freeze round, returning its number. MUST be called
    /// after [`ShardMap::freeze`] sets this round's bits: a node's
    /// Acquire read of the new round synchronizes with this Release
    /// bump, which is sequenced after the freeze store — so any node
    /// that tags its quiesce ack with the new round provably saw the
    /// freeze first, and a stale ack from an aborted earlier attempt
    /// (carrying an old round) can never satisfy this one.
    pub fn begin_round(&self) -> u64 {
        self.round.fetch_add(1, Ordering::Release) + 1
    }

    /// The current freeze round.
    pub fn round(&self) -> u64 {
        self.round.load(Ordering::Acquire)
    }

    /// A source node's half of the quiesce handshake: having observed
    /// round `round`'s freeze and stopped applying writes to frozen
    /// slots, it publishes the highest version it *logged* under the
    /// current arming (0 if none). The coordinator's matching read
    /// ([`ShardMap::quiesced_of`]) Acquire-loads this, so every entry
    /// the hwm covers is visible to the final delta scan.
    ///
    /// # Panics
    ///
    /// Panics if `hwm` overflows its 40-bit field (no realizable run
    /// assigns that many versions).
    pub fn publish_quiesced(&self, shard: usize, round: u64, hwm: u64) {
        assert!(hwm < (1 << QUIESCE_HWM_BITS) - 1 && round < 1 << (64 - QUIESCE_HWM_BITS));
        self.quiesced[shard].store(round << QUIESCE_HWM_BITS | (hwm + 1), Ordering::Release);
    }

    /// The `(round, hwm)` a shard quiesced at, `None` until it has
    /// acknowledged any freeze. The coordinator must ignore an ack
    /// whose round predates its own [`ShardMap::begin_round`].
    pub fn quiesced_of(&self, shard: usize) -> Option<(u64, u64)> {
        match self.quiesced[shard].load(Ordering::Acquire) {
            0 => None,
            word => Some((
                word >> QUIESCE_HWM_BITS,
                (word & ((1 << QUIESCE_HWM_BITS) - 1)) - 1,
            )),
        }
    }

    /// Resets a shard's quiesce acknowledgement (after the cutover
    /// unfreezes its slots; the round tag already makes stale acks
    /// inert, this just keeps the map tidy between migrations).
    pub fn clear_quiesced(&self, shard: usize) {
        self.quiesced[shard].store(0, Ordering::Release);
    }

    /// A target node's migration-stream progress: the cumulative
    /// number of stream entries it has processed. Monotone — the
    /// counter survives aborted attempts, so the coordinator's
    /// "processed equals sent" check always means the stream is
    /// drained with nothing in flight.
    pub fn publish_migrated(&self, shard: usize, processed: u64) {
        self.mig_seen[shard].fetch_max(processed, Ordering::Release);
    }

    /// The last published stream progress of a shard's node.
    pub fn migrated_of(&self, shard: usize) -> u64 {
        self.mig_seen[shard].load(Ordering::Acquire)
    }

    /// Arms the fleet's op-logs for a migration, returning the new
    /// (odd) generation. A node logs its committed writes only under an
    /// odd generation, so a fleet with no migration in flight keeps no
    /// log at all. The coordinator MUST wait for each source's
    /// [`ShardMap::log_acked_of`] to equal the returned generation
    /// before it reads a key: a write the node committed before that
    /// acknowledgement is in its store (the ack's Release, the
    /// coordinator's Acquire), a write committed after it is in its
    /// log — and the bulk copy plus the log tail is then everything.
    ///
    /// # Panics
    ///
    /// Panics if the logs are already armed (the protocol is
    /// single-coordinator, as for [`ShardMap::try_cutover`]).
    pub fn arm_logs(&self) -> u64 {
        // Release for symmetry with the acks; the word publishes no
        // data of its own — only its parity and identity are read.
        let generation = self.log_generation.fetch_add(1, Ordering::Release) + 1;
        assert!(generation & 1 == 1, "op-logs armed by another coordinator");
        generation
    }

    /// Ends the arming, if any: the generation turns even, and every
    /// node drops its log as it notices. Idempotent, so the
    /// coordinator's exit guard can call it on every path.
    pub fn disarm_logs(&self) {
        // Load-then-add is not a race: only the one coordinator that
        // armed the logs ever writes this word.
        if self.log_generation.load(Ordering::Acquire) & 1 == 1 {
            self.log_generation.fetch_add(1, Ordering::Release);
        }
    }

    /// The current arming generation (odd = armed).
    pub fn log_generation(&self) -> u64 {
        self.log_generation.load(Ordering::Acquire)
    }

    /// A node's half of the arming handshake: having switched its
    /// logging to `generation`'s parity, it publishes the generation.
    /// Release — every write the node committed (unlogged) before this
    /// store is visible to a coordinator that Acquire-reads the ack.
    pub fn ack_log_generation(&self, shard: usize, generation: u64) {
        self.log_acked[shard].store(generation, Ordering::Release);
    }

    /// The last arming generation a shard's node acknowledged.
    pub fn log_acked_of(&self, shard: usize) -> u64 {
        self.log_acked[shard].load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epoch(raw: u64) -> Fence {
        Fence::from_wire(raw)
    }

    #[test]
    fn fresh_map_routes_mod_shards_at_epoch_one() {
        let map = ShardMap::new(2);
        assert_eq!(
            map.view(),
            MapView {
                epoch: Fence::FIRST,
                shards: 2,
                table: 0
            }
        );
        for slot in 0..ROUTE_SLOTS {
            assert_eq!(map.owner_of(slot), slot % 2);
        }
        let snap = map.snapshot();
        assert_eq!(snap.epoch, Fence::FIRST);
        for key in 0..64u64 {
            let (owner, at) = map.route(key);
            assert_eq!(owner, snap.owner_of_key(key));
            assert_eq!(at, Fence::FIRST);
        }
    }

    #[test]
    fn cutover_flips_table_and_bumps_epoch_atomically() {
        let map = ShardMap::new(2);
        let next: Vec<usize> = (0..ROUTE_SLOTS).map(|slot| slot % 4).collect();
        map.stage(&next);
        // Staging alone changes nothing observable.
        for slot in 0..ROUTE_SLOTS {
            assert_eq!(map.owner_of(slot), slot % 2);
        }
        let view = map.view();
        assert_eq!(map.try_cutover(view, 4), Ok(epoch(2)));
        assert_eq!(
            map.view(),
            MapView {
                epoch: epoch(2),
                shards: 4,
                table: 1
            }
        );
        for slot in 0..ROUTE_SLOTS {
            assert_eq!(map.owner_of(slot), slot % 4);
        }
        // A second cutover from the stale view loses to the first.
        assert_eq!(map.try_cutover(view, 8), Err(map.view()));
        assert_eq!(map.num_shards(), 4);
        // And the table double-buffers: a third staged map reuses
        // table 0.
        let third: Vec<usize> = (0..ROUTE_SLOTS).map(|slot| slot % 8).collect();
        map.stage(&third);
        let view = map.view();
        assert_eq!(map.try_cutover(view, 8), Ok(epoch(3)));
        assert_eq!(map.view().table, 0);
        assert_eq!(map.owner_of(9), 1);
    }

    #[test]
    fn racing_cutovers_have_one_winner() {
        let map = ShardMap::new(2);
        let next: Vec<usize> = (0..ROUTE_SLOTS).map(|slot| slot % 4).collect();
        map.stage(&next);
        let view = map.view();
        let wins: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| map.try_cutover(view, 4).is_ok() as usize))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(wins, 1);
        assert_eq!(map.epoch(), epoch(2));
    }

    #[test]
    fn freeze_mask_and_quiesce_handshake() {
        let map = ShardMap::new(2);
        assert_eq!(map.frozen(), 0);
        map.freeze(0b1010);
        map.freeze(0b0100);
        assert_eq!(map.frozen(), 0b1110);
        assert!(map.is_frozen(1) && map.is_frozen(2) && map.is_frozen(3));
        assert!(!map.is_frozen(0));
        map.unfreeze(0b0110);
        assert_eq!(map.frozen(), 0b1000);
        assert_eq!(map.round(), 0);
        assert_eq!(map.begin_round(), 1);
        assert_eq!(map.round(), 1);
        assert_eq!(map.quiesced_of(0), None);
        map.publish_quiesced(0, 1, 0);
        assert_eq!(
            map.quiesced_of(0),
            Some((1, 0)),
            "hwm 0 is distinct from none"
        );
        map.publish_quiesced(0, 2, 41);
        assert_eq!(map.quiesced_of(0), Some((2, 41)));
        map.clear_quiesced(0);
        assert_eq!(map.quiesced_of(0), None);
        // Stream progress is monotone: stale publishes cannot regress.
        assert_eq!(map.migrated_of(2), 0);
        map.publish_migrated(2, 7);
        map.publish_migrated(2, 3);
        assert_eq!(map.migrated_of(2), 7);
    }

    #[test]
    fn arming_generation_is_odd_while_armed_and_acks_are_per_shard() {
        let map = ShardMap::new(2);
        assert_eq!(map.log_generation(), 0);
        map.disarm_logs();
        assert_eq!(
            map.log_generation(),
            0,
            "disarming an unarmed map is a no-op"
        );
        assert_eq!(map.arm_logs(), 1);
        assert_eq!((map.log_acked_of(0), map.log_acked_of(1)), (0, 0));
        map.ack_log_generation(1, 1);
        assert_eq!((map.log_acked_of(0), map.log_acked_of(1)), (0, 1));
        map.disarm_logs();
        map.disarm_logs();
        assert_eq!(map.log_generation(), 2);
        assert_eq!(map.arm_logs(), 3, "every arming is a fresh generation");
    }

    #[test]
    #[should_panic(expected = "another coordinator")]
    fn a_second_arming_is_rejected() {
        let map = ShardMap::new(1);
        map.arm_logs();
        map.arm_logs();
    }

    #[test]
    #[should_panic]
    fn zero_shards_rejected() {
        let _ = ShardMap::new(0);
    }

    #[test]
    #[should_panic]
    fn oversized_stage_rejected() {
        let map = ShardMap::new(2);
        map.stage(&[0; ROUTE_SLOTS + 1]);
    }
}
