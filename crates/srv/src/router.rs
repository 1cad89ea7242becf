//! Keyspace partitioning over N [`KvStore`] shards.
//!
//! Memcached scales by running one store per shard and routing each key
//! to its shard by hash; [`ShardRouter`] is that layer. It owns the
//! shards, exposes direct (in-process) operations for callers that
//! don't need the message-passing service, and hands out per-shard
//! references so the service layer can give every shard its own server
//! thread.
//!
//! The shard hash ([`shard_of`]) is a free function on purpose: the
//! *clients* of the message-passing service must route requests to the
//! same shard the router would, without holding a router reference.

use bytes::Bytes;

use ssync_kv::{KvStore, StatsSnapshot};
use ssync_locks::RawLock;

/// The shard a key routes to, out of `shards`.
///
/// SplitMix64 finalizer over the key: service keys are dense integers
/// (the workload engine draws ranks from 0..n), so routing by `key %
/// shards` would alias the zipfian head onto shard 0; the mix spreads
/// it. This function is the routing contract between [`ShardRouter`]
/// and the service clients — both sides must use it.
///
/// # Panics
///
/// Panics if `shards` is zero.
pub fn shard_of(key: u64, shards: usize) -> usize {
    assert!(shards > 0);
    let z = ssync_core::mix64(key.wrapping_add(0x9E37_79B9_7F4A_7C15));
    (z % shards as u64) as usize
}

/// The byte form of a service key, as stored in the shard `KvStore`s.
pub fn key_bytes(key: u64) -> [u8; 8] {
    key.to_be_bytes()
}

/// Routing slots of the elastic (cluster-map) routing scheme.
///
/// Elastic routing splits [`shard_of`]'s one hash-mod-N step in two:
/// a key hashes to one of [`ROUTE_SLOTS`] fixed *slots* ([`slot_of`],
/// static forever), and a cluster map assigns each slot to an owner
/// shard (dynamic — resharding reassigns slots, never re-hashes keys).
/// 64 slots fit a slot *set* in one `u64` bitmask, which is what lets
/// the migration freeze/cutover protocol treat "the moving slots" as a
/// single atomic word.
pub const ROUTE_SLOTS: usize = 64;

/// The routing slot a key hashes to, out of [`ROUTE_SLOTS`] — the
/// static half of the elastic routing contract (`ssync-cluster`'s
/// `ShardMap` owns the dynamic slot→shard half).
///
/// Same SplitMix64 finalizer family as [`shard_of`] but under a
/// different additive offset, so slot and fixed-fleet shard placements
/// stay decorrelated (and so the zipfian head spreads over slots the
/// same way it spreads over shards).
pub fn slot_of(key: u64) -> usize {
    let z = ssync_core::mix64(key.wrapping_add(0xD1B5_4A32_D192_ED03));
    (z % ROUTE_SLOTS as u64) as usize
}

/// N keyspace shards, each its own [`KvStore`]; a shard serves once `R`
/// is the [`Store`](crate::Store)'s lock.
// Generic for benchmark/src/stacks.rs:80 and ladder.rs:312,854, which spell `R`.
pub struct ShardRouter<R: RawLock + Default> {
    shards: Box<[KvStore<R>]>,
}

impl<R: RawLock + Default> ShardRouter<R> {
    /// Creates `shards` stores, each with `buckets` buckets striped
    /// over `stripes` locks (per shard).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero, or on invalid `buckets`/`stripes`
    /// (see [`KvStore::new`]).
    pub fn new(shards: usize, buckets: usize, stripes: usize) -> Self {
        assert!(shards > 0);
        Self {
            shards: (0..shards)
                .map(|_| KvStore::new(buckets, stripes))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard store a key routes to.
    pub fn shard_for(&self, key: u64) -> &KvStore<R> {
        &self.shards[shard_of(key, self.shards.len())]
    }

    /// The shard store at `index`, for the service layer's per-shard
    /// server threads.
    pub fn shard(&self, index: usize) -> &KvStore<R> {
        &self.shards[index]
    }

    /// Direct (in-process) get.
    pub fn get(&self, key: u64) -> Option<Bytes> {
        self.shard_for(key).get(&key_bytes(key))
    }

    /// Direct get returning `(version, value)`.
    pub fn get_with_version(&self, key: u64) -> Option<(u64, Bytes)> {
        self.shard_for(key).get_with_version(&key_bytes(key))
    }

    /// Direct set; returns the new CAS version.
    pub fn set(&self, key: u64, value: impl AsRef<[u8]>) -> u64 {
        self.shard_for(key).set(&key_bytes(key), value)
    }

    /// Direct compare-and-set.
    pub fn cas(&self, key: u64, value: impl AsRef<[u8]>, expected: u64) -> Result<u64, u64> {
        self.shard_for(key).cas(&key_bytes(key), value, expected)
    }

    /// Direct delete; true if the key existed.
    pub fn delete(&self, key: u64) -> bool {
        self.shard_for(key).delete(&key_bytes(key))
    }

    /// Total items across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(KvStore::len).sum()
    }

    /// True if no shard holds any item.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregated statistics over all shards, including each shard's
    /// live reclamation backlog gauge.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        self.shards
            .iter()
            .map(KvStore::stats_snapshot)
            .fold(StatsSnapshot::default(), |acc, s| acc.merge(&s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssync_locks::TicketLock;

    #[test]
    fn routing_is_stable_and_in_range() {
        for shards in [1, 2, 4, 7] {
            for key in 0..256 {
                let s = shard_of(key, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(key, shards));
            }
        }
    }

    #[test]
    fn routing_spreads_dense_keys() {
        // Dense ranks (what the workload engine draws) must not pile
        // onto one shard: every shard sees a reasonable share.
        let shards = 4;
        let mut counts = vec![0usize; shards];
        for key in 0..1000 {
            counts[shard_of(key, shards)] += 1;
        }
        assert!(
            counts.iter().all(|&c| c > 150),
            "unbalanced shard routing: {counts:?}"
        );
    }

    #[test]
    fn direct_ops_route_consistently() {
        let router: ShardRouter<TicketLock> = ShardRouter::new(4, 64, 8);
        for key in 0..100u64 {
            router.set(key, key.to_be_bytes());
        }
        assert_eq!(router.len(), 100);
        for key in 0..100u64 {
            assert_eq!(router.get(key).unwrap().as_ref(), &key.to_be_bytes());
        }
        let (v, _) = router.get_with_version(7).unwrap();
        assert!(router.cas(7, b"new".as_slice(), v).is_ok());
        assert!(router.cas(7, b"stale".as_slice(), v).is_err());
        assert!(router.delete(7));
        assert!(!router.delete(7));
        assert_eq!(router.len(), 99);
        let snap = router.stats_snapshot();
        assert_eq!(snap.hits, 101); // 100 gets + get_with_version.
        assert_eq!(snap.deletes, 1);
        assert_eq!(snap.cas_failures, 1);
    }

    #[test]
    #[should_panic]
    fn zero_shards_rejected() {
        let _ = ShardRouter::<TicketLock>::new(0, 64, 8);
    }

    #[test]
    fn slot_routing_is_stable_in_range_and_spread() {
        let mut counts = [0usize; ROUTE_SLOTS];
        for key in 0..4096u64 {
            let s = slot_of(key);
            assert!(s < ROUTE_SLOTS);
            assert_eq!(s, slot_of(key), "slot routing must be stable");
            counts[s] += 1;
        }
        // Dense ranks spread over every slot (64 ≈ expected per slot).
        assert!(
            counts.iter().all(|&c| c > 20),
            "unbalanced slot routing: {counts:?}"
        );
    }

    #[test]
    fn slot_and_shard_hashes_are_decorrelated() {
        // If slot_of were shard_of(·, 64) the per-shard slot sets of a
        // mod-style map would alias with the fixed-fleet placement.
        // Spot-check the two families actually disagree somewhere.
        assert!((0..256u64).any(|k| slot_of(k) != shard_of(k, ROUTE_SLOTS)));
    }
}
