//! The shared cluster map: per-shard term/leader words and failover
//! bookkeeping.
//!
//! This is the ROADMAP's "epoch-versioned cluster map" in its
//! in-process form: one [`FencedWord`] per shard holds the current
//! **term** as its [`Fence`] and the id of the node leading it as its
//! tag, so every party — nodes deciding whether a replication frame is
//! current, clients deciding where to send a write — reads one word and
//! compares terms. A `Fence` can only be compared, and only the
//! promotion CAS ([`FencedWord::try_advance`]) makes a larger one, so
//! `>`/`>=` on terms is the whole fencing check.
//!
//! Promotion is decided here, not by an election exchange: the map also
//! carries each node's **published hwm** (highest replication version
//! it has applied and acknowledged). A follower's hwm never passes an
//! entry it has not applied (the invariant `service.rs`'s `Follower`
//! keeps) and it is the node's one cumulative ack, so a published hwm
//! vouches for everything at or below it, and the live `can_lead` node
//! with the highest hwm has every acknowledged write (see DESIGN.md's
//! "Failover & term fencing") — [`ClusterMap::try_promote`] lets
//! exactly one such node CAS the shard's word from `(term, NO LEADER)`
//! to `(next term, itself)`. The CAS is the linearization point of the
//! failover: any frame sent under the old term is fenced by every
//! up-to-date peer from that instant on.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use ssync_core::{CachePadded, Fence, FencedWord};

use crate::sync::atomic::{AtomicU64, Ordering};

/// Leader tag while a shard is leaderless (mid-failover).
const LEADER_NONE: u16 = u16::MAX;

/// One shard's view of the map word: the current term and who (if
/// anyone) leads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardView {
    /// The current term (starts at [`Fence::FIRST`], advanced by each
    /// promotion).
    pub term: Fence,
    /// The node leading that term, `None` while leaderless.
    pub leader: Option<usize>,
}

/// Timing record of one completed failover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverRecord {
    /// The term the promotion opened.
    pub term: Fence,
    /// The node that died leading the previous term.
    pub from: usize,
    /// The node promoted.
    pub to: usize,
    /// Death-to-promotion wall time: the write-unavailability window
    /// (reads may still be served stale by opted-in clients).
    pub unavailable: Duration,
}

struct ShardSlot {
    /// The term, and the leader as its tag (`LEADER_NONE` while
    /// vacant): one word, so view reads and promotion CASes are atomic
    /// together.
    word: FencedWord,
    /// Per-node published applied-hwm (cumulative-ack highest version).
    hwms: Vec<CachePadded<AtomicU64>>,
    /// Per-node liveness: 1 once the node died (crashed or exited).
    dead: Vec<CachePadded<AtomicU64>>,
    /// Per-node promotion eligibility (cleared for observer nodes that
    /// deliberately sit out elections, e.g. leaderless-shard tests).
    can_lead: Vec<CachePadded<AtomicU64>>,
    /// Completed failovers (monotone counter; cheap to poll).
    failovers: CachePadded<AtomicU64>,
    /// When the current leaderless spell began, plus finished records.
    timing: Mutex<ShardTiming>,
}

#[derive(Default)]
struct ShardTiming {
    crashed_at: Option<(Instant, usize)>,
    records: Vec<FailoverRecord>,
}

/// The shared map; one per [`crate::ReplCluster`], handed by `Arc` to
/// every node server and client.
pub struct ClusterMap {
    shards: Vec<ShardSlot>,
    nodes_per_shard: usize,
}

impl ClusterMap {
    /// A fresh map: every shard at [`Fence::FIRST`], led by node 0, all nodes
    /// live and eligible, all hwms 0.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or a shard would have 0xFFFF
    /// or more nodes (the leader field's width).
    pub fn new(shards: usize, nodes_per_shard: usize) -> ClusterMap {
        assert!(shards > 0 && nodes_per_shard > 0);
        assert!(nodes_per_shard < LEADER_NONE as usize);
        let slot = |_| ShardSlot {
            word: FencedWord::new(0),
            hwms: (0..nodes_per_shard)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            dead: (0..nodes_per_shard)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            can_lead: (0..nodes_per_shard)
                .map(|_| CachePadded::new(AtomicU64::new(1)))
                .collect(),
            failovers: CachePadded::new(AtomicU64::new(0)),
            timing: Mutex::new(ShardTiming::default()),
        };
        ClusterMap {
            shards: (0..shards).map(slot).collect(),
            nodes_per_shard,
        }
    }

    /// Number of shards mapped.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Nodes per shard (the leader plus its backups).
    pub fn nodes_per_shard(&self) -> usize {
        self.nodes_per_shard
    }

    /// The shard's current term and leader, in one atomic read.
    pub fn view(&self, shard: usize) -> ShardView {
        let word = self.shards[shard].word.load();
        let leader = (word.tag != LEADER_NONE).then_some(usize::from(word.tag));
        ShardView {
            term: word.fence,
            leader,
        }
    }

    /// Publishes a node's applied hwm (monotone; `fetch_max` so stale
    /// publishes are harmless).
    pub fn publish_hwm(&self, shard: usize, node: usize, hwm: u64) {
        self.shards[shard].hwms[node].fetch_max(hwm, Ordering::Release);
    }

    /// A node's last published applied hwm.
    pub fn hwm_of(&self, shard: usize, node: usize) -> u64 {
        self.shards[shard].hwms[node].load(Ordering::Acquire)
    }

    /// Strips a node's promotion eligibility (it remains a follower and
    /// serves replica reads, but never stands for election).
    pub fn set_observer(&self, shard: usize, node: usize) {
        self.shards[shard].can_lead[node].store(0, Ordering::Release);
    }

    /// True once the node died (crash-faulted or exited).
    pub fn is_dead(&self, shard: usize, node: usize) -> bool {
        self.shards[shard].dead[node].load(Ordering::Acquire) != 0
    }

    /// Records a node's death. If it led the shard, the shard goes
    /// leaderless (same term, vacant leader) and the unavailability
    /// clock starts; returns true in that case.
    pub fn report_death(&self, shard: usize, node: usize) -> bool {
        let slot = &self.shards[shard];
        slot.dead[node].store(1, Ordering::Release);
        let word = slot.word.load();
        if word.tag != node as u16 {
            return false;
        }
        if slot.word.try_retag(word, LEADER_NONE).is_ok() {
            let mut timing = slot.timing.lock().expect("cluster map poisoned");
            timing.crashed_at = Some((Instant::now(), node));
            true
        } else {
            // Lost to a concurrent transition (another death report or
            // a promotion that already superseded this leader).
            false
        }
    }

    /// Number of live, election-eligible nodes — a follower on a
    /// leaderless shard with no candidates left knows no promotion can
    /// ever come.
    pub fn live_candidates(&self, shard: usize) -> usize {
        (0..self.nodes_per_shard)
            .filter(|&n| !self.is_dead(shard, n) && self.eligible(shard, n))
            .count()
    }

    fn eligible(&self, shard: usize, node: usize) -> bool {
        self.shards[shard].can_lead[node].load(Ordering::Acquire) != 0
    }

    /// Attempts to promote `node` on a leaderless shard. Succeeds —
    /// returning the new term — only if the node is live, eligible,
    /// and *the* most caught-up candidate (highest published hwm, ties
    /// to the lowest id). The deciding CAS advances the term and installs
    /// the node in one step, so exactly one candidate per vacancy wins
    /// and every frame of the old term is fenced from that instant.
    pub fn try_promote(&self, shard: usize, node: usize) -> Option<Fence> {
        let slot = &self.shards[shard];
        let word = slot.word.load();
        if word.tag != LEADER_NONE || self.is_dead(shard, node) || !self.eligible(shard, node) {
            return None;
        }
        // The promotion rule: highest published hwm among live eligible
        // candidates; lowest id breaks ties. Safe because acks are
        // cumulative — see DESIGN.md "Failover & term fencing".
        let my_hwm = self.hwm_of(shard, node);
        for other in 0..self.nodes_per_shard {
            if other == node || self.is_dead(shard, other) || !self.eligible(shard, other) {
                continue;
            }
            let hwm = self.hwm_of(shard, other);
            if hwm > my_hwm || (hwm == my_hwm && other < node) {
                return None;
            }
        }
        let next_term = slot.word.try_advance(word, node as u16).ok()?;
        slot.failovers.fetch_add(1, Ordering::Relaxed);
        let mut timing = slot.timing.lock().expect("cluster map poisoned");
        let (unavailable, from) = timing
            .crashed_at
            .take()
            .map_or((Duration::ZERO, node), |(at, from)| (at.elapsed(), from));
        timing.records.push(FailoverRecord {
            term: next_term,
            from,
            to: node,
            unavailable,
        });
        Some(next_term)
    }

    /// Completed failovers on one shard.
    pub fn failovers(&self, shard: usize) -> u64 {
        self.shards[shard].failovers.load(Ordering::Relaxed)
    }

    /// Completed failovers across every shard.
    pub fn total_failovers(&self) -> u64 {
        (0..self.shards.len()).map(|s| self.failovers(s)).sum()
    }

    /// Timing records of every completed failover on a shard.
    pub fn failover_records(&self, shard: usize) -> Vec<FailoverRecord> {
        self.shards[shard]
            .timing
            .lock()
            .expect("cluster map poisoned")
            .records
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn term(raw: u64) -> Fence {
        Fence::from_wire(raw)
    }

    #[test]
    fn fresh_map_has_node_zero_leading_term_one() {
        let map = ClusterMap::new(2, 3);
        for shard in 0..2 {
            assert_eq!(
                map.view(shard),
                ShardView {
                    term: Fence::FIRST,
                    leader: Some(0)
                }
            );
            assert_eq!(map.failovers(shard), 0);
            assert_eq!(map.live_candidates(shard), 3);
        }
    }

    #[test]
    fn death_of_the_leader_vacates_and_promotion_picks_max_hwm() {
        let map = ClusterMap::new(1, 3);
        map.publish_hwm(0, 1, 5);
        map.publish_hwm(0, 2, 9);
        assert!(map.report_death(0, 0), "leader death vacates the shard");
        assert_eq!(map.view(0).leader, None);
        // Node 1 lags node 2: its bid must lose.
        assert_eq!(map.try_promote(0, 1), None);
        assert_eq!(map.try_promote(0, 2), Some(term(2)));
        assert_eq!(
            map.view(0),
            ShardView {
                term: term(2),
                leader: Some(2)
            }
        );
        assert_eq!(map.failovers(0), 1);
        let records = map.failover_records(0);
        assert_eq!(records.len(), 1);
        assert_eq!(
            (records[0].term, records[0].from, records[0].to),
            (term(2), 0, 2)
        );
        // A dead node's death is not a leader death; no double-vacancy.
        assert!(!map.report_death(0, 1));
        assert_eq!(map.view(0).leader, Some(2));
    }

    #[test]
    fn hwm_ties_break_to_the_lowest_id() {
        let map = ClusterMap::new(1, 3);
        map.publish_hwm(0, 1, 7);
        map.publish_hwm(0, 2, 7);
        assert!(map.report_death(0, 0));
        assert_eq!(map.try_promote(0, 2), None, "node 1 outranks the tie");
        assert_eq!(map.try_promote(0, 1), Some(term(2)));
    }

    #[test]
    fn observers_and_the_dead_never_win() {
        let map = ClusterMap::new(1, 3);
        map.set_observer(0, 2);
        map.publish_hwm(0, 2, 100);
        assert!(map.report_death(0, 0));
        assert_eq!(map.live_candidates(0), 1);
        assert_eq!(map.try_promote(0, 2), None, "observers sit out");
        assert_eq!(
            map.try_promote(0, 1),
            Some(term(2)),
            "ignoring observer hwms"
        );
        assert!(map.report_death(0, 1));
        assert_eq!(map.live_candidates(0), 0);
        assert_eq!(map.try_promote(0, 1), None, "the dead cannot return");
    }

    #[test]
    fn promotion_on_a_led_shard_is_refused() {
        let map = ClusterMap::new(1, 2);
        assert_eq!(map.try_promote(0, 1), None);
        assert_eq!(map.view(0).term, Fence::FIRST);
    }
}
