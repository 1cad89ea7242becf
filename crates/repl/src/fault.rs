//! Deterministic replica fault injection.
//!
//! Faults are keyed to the replication *entry index* — "when the Nth
//! entry arrives, stall (or crash) for the next W entries" — never to
//! wall time, so a seeded scenario replays exactly: the same workload
//! seed produces the same op-log, the same entry indices, and therefore
//! the same stalls, crashes, and catch-ups on every run (the
//! model-checking-replication papers' requirement, done in-process).
//!
//! Both backup kinds are one outage — `window` entries received (the
//! backup keeps draining the stream, so the primary never blocks on a
//! full channel) and neither applied nor acknowledged — with one
//! recovery: the close replays exactly those entries from the
//! primary's op-log, then rejoins the live stream. A **stall** models a
//! slow backup and keeps serving replica reads; a **crash** models a
//! lost one and refuses them (`Stale`) until the close. A stall keeps
//! no buffer to apply instead: that second recovery path could land on
//! top of a frame the backup had fenced, leaving its high-water mark
//! above an entry it never applied — so a stall's entries count as
//! `from_log`, like a crash's, not as `applied`.
//!
//! Fault windows must stay below the async mode's lag bound: a primary
//! that has stopped producing (blocked on the bound) cannot deliver the
//! entries that would end an entry-indexed window. [`FaultSpec`]
//! enforces that at plan-generation time.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// What kind of outage a fault window is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Drop `window` entries unapplied and unacknowledged, then catch
    /// up from the op-log; replica reads keep being served.
    Stall,
    /// As a stall, and replica reads are refused inside the window.
    Crash,
    /// The shard *leader* dies for good right after fully acknowledging
    /// the write that produced entry `at_entry` — the worst moment for
    /// a failover protocol, since that ack is now a promise only the
    /// backups can keep. Unlike the backup kinds there is no recovery
    /// window: the node never comes back, and `window` is ignored
    /// (normalized to 1). Scheduled on whichever node leads when the
    /// entry is produced, so a plan with several crashes kills a chain
    /// of successive leaders.
    PrimaryCrash,
}

/// One fault window in a replica's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// The 1-based replication entry index whose arrival opens the
    /// window (that entry is the window's first).
    pub at_entry: u64,
    /// The outage kind.
    pub kind: FaultKind,
    /// Window length in entries (≥ 1).
    pub window: u64,
}

/// A replica's full, deterministic fault schedule: non-overlapping
/// windows sorted by `at_entry`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Builds a plan from explicit events.
    ///
    /// # Panics
    ///
    /// Panics if events are unsorted, overlapping, zero-windowed, or
    /// start before entry 1.
    pub fn from_events(events: Vec<FaultEvent>) -> FaultPlan {
        let mut clear_from = 1;
        for ev in &events {
            assert!(ev.window >= 1, "fault window must be at least 1 entry");
            assert!(
                ev.at_entry >= clear_from,
                "fault events must be sorted and non-overlapping"
            );
            clear_from = ev.at_entry + ev.window;
        }
        FaultPlan { events }
    }

    /// Builds a leader-crash schedule: the shard's leader of the moment
    /// dies right after producing each listed (1-based, strictly
    /// increasing) entry index.
    ///
    /// # Panics
    ///
    /// Panics if the entries are not strictly increasing or start
    /// before entry 1.
    pub fn primary_crashes(entries: Vec<u64>) -> FaultPlan {
        FaultPlan::from_events(
            entries
                .into_iter()
                .map(|at_entry| FaultEvent {
                    at_entry,
                    kind: FaultKind::PrimaryCrash,
                    window: 1,
                })
                .collect(),
        )
    }

    /// The scheduled events, in order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True if the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Largest window in the plan (0 if none).
    pub fn max_window(&self) -> u64 {
        self.events.iter().map(|e| e.window).max().unwrap_or(0)
    }

    /// Number of scheduled leader crashes — what the `failovers` stat
    /// must equal after a soaked run.
    pub fn crash_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == FaultKind::PrimaryCrash)
            .count()
    }
}

/// Seeded generator of per-replica fault schedules, shared by the
/// proptest harness and the `repl-perf` fault case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Master seed; each `(shard, replica)` derives its own schedule.
    pub seed: u64,
    /// Fault windows per replica schedule.
    pub faults_per_replica: usize,
    /// Largest window the generator may draw (≥ 1 when faults > 0).
    pub max_window: u64,
    /// Mean healthy gap between windows, in entries.
    pub spacing: u64,
    /// Leader crashes per shard (each kills the leader of the moment;
    /// successive crashes walk down the succession line). Scheduled on
    /// a separate seeded stream from the backup faults, so adding
    /// crashes never perturbs an existing backup schedule.
    pub primary_crashes: usize,
}

impl FaultSpec {
    /// No faults anywhere.
    pub fn none() -> FaultSpec {
        FaultSpec {
            seed: 0,
            faults_per_replica: 0,
            max_window: 0,
            spacing: 0,
            primary_crashes: 0,
        }
    }

    /// True if this spec schedules no faults.
    pub fn is_none(&self) -> bool {
        self.faults_per_replica == 0 && self.primary_crashes == 0
    }

    /// True if this spec schedules backup (stall/crash) windows — the
    /// kinds the async lag bound must cover.
    pub fn has_backup_faults(&self) -> bool {
        self.faults_per_replica > 0
    }

    /// The deterministic schedule for one `(shard, replica)` slot.
    /// Windows are drawn in `1..=max_window`, alternating between
    /// stalls and crashes pseudo-randomly; gaps between windows are at
    /// least one entry and average `spacing`.
    pub fn plan_for(&self, shard: usize, replica: usize) -> FaultPlan {
        if self.faults_per_replica == 0 {
            return FaultPlan::none();
        }
        assert!(self.max_window >= 1 && self.spacing >= 1);
        let stream = (shard as u64) << 32 | replica as u64;
        let mut rng = SmallRng::seed_from_u64(self.seed ^ ssync_core::mix64(stream));
        let mut events = Vec::with_capacity(self.faults_per_replica);
        let mut at = 1 + rng.gen_range(0..=self.spacing);
        for _ in 0..self.faults_per_replica {
            let window = rng.gen_range(1..=self.max_window);
            let kind = if rng.gen_range(0..2u8) == 0 {
                FaultKind::Stall
            } else {
                FaultKind::Crash
            };
            events.push(FaultEvent {
                at_entry: at,
                kind,
                window,
            });
            at += window + 1 + rng.gen_range(0..=2 * self.spacing);
        }
        FaultPlan::from_events(events)
    }

    /// The deterministic leader-crash schedule for one shard. Drawn
    /// from its own rng stream (tagged with a replica id no backup
    /// slot can use), so the backup schedules of
    /// [`FaultSpec::plan_for`] are byte-identical with crashes on or
    /// off. Crash entries are spaced like backup windows: at least two
    /// entries apart, averaging `spacing` (or a fixed gap of 8 when
    /// the spec schedules no backup faults and `spacing` is 0).
    pub fn primary_plan_for(&self, shard: usize) -> FaultPlan {
        if self.primary_crashes == 0 {
            return FaultPlan::none();
        }
        let stream = (shard as u64) << 32 | u64::from(u32::MAX);
        let mut rng = SmallRng::seed_from_u64(self.seed ^ ssync_core::mix64(stream));
        let spacing = self.spacing.max(8);
        let mut entries = Vec::with_capacity(self.primary_crashes);
        let mut at = 1 + rng.gen_range(0..=spacing);
        for _ in 0..self.primary_crashes {
            entries.push(at);
            at += 2 + rng.gen_range(0..=2 * spacing);
        }
        FaultPlan::primary_crashes(entries)
    }

    /// The deterministic migration-stream crash schedule for one
    /// *source* shard of a resharding: the source's bulk-copy stream
    /// dies right after the listed (1-based) *sent-entry* indices, and
    /// the coordinator restarts the copy from scratch. `crashes` is an
    /// argument rather than a spec field because migrations are
    /// configured by the reshard spec, not the replica fleet — this
    /// spec only contributes the master seed and spacing, so one seed
    /// drives the whole scenario. Tagged with a replica id no backup
    /// slot or leader stream uses, so existing schedules are
    /// byte-identical with migration faults on or off.
    pub fn migration_plan_for(&self, source_shard: usize, crashes: usize) -> FaultPlan {
        if crashes == 0 {
            return FaultPlan::none();
        }
        let stream = (source_shard as u64) << 32 | u64::from(u32::MAX - 1);
        let mut rng = SmallRng::seed_from_u64(self.seed ^ ssync_core::mix64(stream));
        let spacing = self.spacing.max(8);
        let mut events = Vec::with_capacity(crashes);
        let mut at = 1 + rng.gen_range(0..=spacing);
        for _ in 0..crashes {
            events.push(FaultEvent {
                at_entry: at,
                kind: FaultKind::Crash,
                window: 1,
            });
            at += 2 + rng.gen_range(0..=2 * spacing);
        }
        FaultPlan::from_events(events)
    }

    /// The deterministic *coordinator* crash schedule of a resharding:
    /// the coordinator dies after the listed (1-based) completed
    /// migration *moves*, before the cutover publishes, and the whole
    /// migration restarts. One global stream (a migration has one
    /// coordinator, not one per shard), tagged outside the per-shard
    /// space.
    pub fn coordinator_plan_for(&self, crashes: usize) -> FaultPlan {
        if crashes == 0 {
            return FaultPlan::none();
        }
        let mut rng = SmallRng::seed_from_u64(self.seed ^ ssync_core::mix64(u64::MAX));
        let mut entries = Vec::with_capacity(crashes);
        let mut at = 1 + rng.gen_range(0..=1u64);
        for _ in 0..crashes {
            entries.push(at);
            at += 2 + rng.gen_range(0..=2u64);
        }
        FaultPlan::primary_crashes(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_replay_exactly_and_differ_per_slot() {
        let spec = FaultSpec {
            seed: 0xFA_07,
            faults_per_replica: 4,
            max_window: 8,
            spacing: 16,
            primary_crashes: 0,
        };
        let a = spec.plan_for(0, 1);
        let b = spec.plan_for(0, 1);
        assert_eq!(a, b, "same slot must replay the same schedule");
        assert_eq!(a.events().len(), 4);
        assert!(a.max_window() <= 8);
        let c = spec.plan_for(1, 1);
        assert_ne!(a, c, "different shards draw different schedules");
    }

    #[test]
    fn primary_crashes_ride_a_separate_stream() {
        let without = FaultSpec {
            seed: 0xFA_07,
            faults_per_replica: 4,
            max_window: 8,
            spacing: 16,
            primary_crashes: 0,
        };
        let with = FaultSpec {
            primary_crashes: 3,
            ..without
        };
        assert_eq!(
            without.plan_for(0, 1),
            with.plan_for(0, 1),
            "adding leader crashes must not perturb backup schedules"
        );
        assert!(without.primary_plan_for(0).is_empty());
        let plan = with.primary_plan_for(0);
        assert_eq!(plan.crash_count(), 3);
        assert_eq!(plan, with.primary_plan_for(0), "crash schedule replays");
        assert_ne!(plan, with.primary_plan_for(1));
        assert!(plan
            .events()
            .iter()
            .all(|e| e.kind == FaultKind::PrimaryCrash && e.window == 1));
        // Crash-only specs need no backup-fault parameters at all.
        let crash_only = FaultSpec {
            seed: 1,
            faults_per_replica: 0,
            max_window: 0,
            spacing: 0,
            primary_crashes: 2,
        };
        assert!(!crash_only.is_none());
        assert!(!crash_only.has_backup_faults());
        assert!(crash_only.plan_for(0, 0).is_empty());
        assert_eq!(crash_only.primary_plan_for(0).crash_count(), 2);
    }

    #[test]
    fn migration_plans_ride_separate_streams() {
        let spec = FaultSpec {
            seed: 0xFA_07,
            faults_per_replica: 4,
            max_window: 8,
            spacing: 16,
            primary_crashes: 2,
        };
        // Migration faults never perturb the replica or leader streams
        // (they are derived from the same master seed on fresh tags).
        assert_eq!(spec.plan_for(0, 1), spec.plan_for(0, 1));
        let plan = spec.migration_plan_for(0, 3);
        assert_eq!(plan, spec.migration_plan_for(0, 3), "must replay");
        assert_eq!(plan.events().len(), 3);
        assert!(plan
            .events()
            .iter()
            .all(|e| e.kind == FaultKind::Crash && e.window == 1));
        assert_ne!(plan, spec.migration_plan_for(1, 3));
        assert_ne!(plan, spec.plan_for(0, 1));
        assert!(spec.migration_plan_for(0, 0).is_empty());
        let coord = spec.coordinator_plan_for(2);
        assert_eq!(coord, spec.coordinator_plan_for(2), "must replay");
        assert_eq!(coord.crash_count(), 2);
        assert!(spec.coordinator_plan_for(0).is_empty());
        // A zero-spacing (crash-only) spec still draws valid plans.
        let bare = FaultSpec {
            seed: 9,
            faults_per_replica: 0,
            max_window: 0,
            spacing: 0,
            primary_crashes: 0,
        };
        assert_eq!(bare.migration_plan_for(0, 2).events().len(), 2);
    }

    #[test]
    fn none_is_empty() {
        assert!(FaultSpec::none().plan_for(0, 0).is_empty());
        assert!(FaultPlan::none().is_empty());
        assert_eq!(FaultPlan::none().max_window(), 0);
    }

    #[test]
    #[should_panic(expected = "non-overlapping")]
    fn overlapping_events_rejected() {
        let _ = FaultPlan::from_events(vec![
            FaultEvent {
                at_entry: 5,
                kind: FaultKind::Stall,
                window: 4,
            },
            FaultEvent {
                at_entry: 8,
                kind: FaultKind::Crash,
                window: 2,
            },
        ]);
    }
}
