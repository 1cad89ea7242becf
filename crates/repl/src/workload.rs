//! The replicated closed-loop driver: the `ssync-srv` workload engine
//! (seeded key distributions, YCSB mixes, deterministic op streams,
//! the sequential [`drive_worker`] and the [`fan_out`] of client
//! threads) pointed at a replication group, plus deterministic fault
//! injection. This module owns only the server side: the node threads
//! and what they report.
//!
//! Issued op counts are a pure function of `(spec, workers,
//! ops_per_worker)` exactly as in the unreplicated driver, and fault
//! schedules are a pure function of the fault seed and entry indices —
//! so a faulty run *replays*: same stalls, same crashes, same
//! catch-ups, same final convergence. Leader crashes add failovers to
//! the mix; in sync mode even the succession order replays exactly
//! (equal high-water marks make the promotion tie-break — lowest live
//! id — deterministic).

use std::time::{Duration, Instant};

use ssync_locks::RawLock;
use ssync_srv::workload::{drive_worker, fan_out, OpStream, Tally, WorkloadSpec};

use crate::fault::FaultSpec;
use crate::service::{repl_mesh, serve_node, NodeReport, ReplCluster, ReplMode};

/// What a replicated workload run measured.
#[derive(Debug, Clone, Default)]
pub struct ReplReport {
    /// What the clients observed; the issued counts are deterministic
    /// per `(spec, workers, ops_per_worker)`.
    pub tally: Tally,
    /// Reads answered by a follower (client-side count).
    pub replica_serves: u64,
    /// Replica reads that bounced to the leader (client-side count;
    /// load-dependent in async mode, 0 in sync mode without faults).
    pub fallbacks: u64,
    /// `WrongLeader` bounces chased by clients.
    pub redirects: u64,
    /// Requests retried after the serving node died under them.
    pub lost_to_retry: u64,
    /// Leaderless reads served floor-free (stale-reads opt-in only).
    pub stale_served: u64,
    /// Wall time of the measure phase.
    pub wall: Duration,
    /// Per-node server reports, grouped by shard (shard-major order,
    /// `shards × (replicas + 1)` entries).
    pub nodes: Vec<NodeReport>,
    /// Replication entries logged and streamed, summed over shards and
    /// successive leaders.
    pub entries: u64,
    /// Crash windows taken across all followers.
    pub crashes: u64,
    /// Stall windows taken across all followers.
    pub stalls: u64,
    /// Entries replayed from op-logs (crash catch-ups, term adoptions,
    /// promotions).
    pub from_log: u64,
    /// Stream frames fenced as stale-term leftovers (timing-dependent).
    pub fenced: u64,
    /// Promotions that happened during the run, across all shards —
    /// must equal the crash plan's total under a soak.
    pub failovers: u64,
    /// Measured per-failover unavailability windows (death report to
    /// promotion), across all shards in promotion order.
    pub unavailability: Vec<Duration>,
    /// Did every live node converge to the leader's exact contents?
    pub converged: bool,
}

/// Runs the full replicated closed-loop experiment: preload every key
/// on every node, spawn one server thread per `(shard, node)` and
/// `workers` client threads, drive `ops_per_worker` key-operations per
/// client (riding out any scheduled leader crashes via the client's
/// deadline/retry machinery), shut the groups down, and report —
/// including whether every surviving node converged and how long each
/// failover's unavailability window measured.
///
/// # Panics
///
/// Panics if `workers` is zero; if `faults` schedules backup
/// stall/crash windows in sync mode or with windows at/above the async
/// lag bound (both are deadlocks by construction: a leader blocked
/// waiting for an ack cannot deliver the entries that would close an
/// entry-indexed fault window — leader crashes carry no window and are
/// exempt); or if it schedules more leader crashes than there are
/// backups to promote.
pub fn run_replicated_closed_loop<R: RawLock + Default>(
    cluster: &mut ReplCluster<R>,
    spec: &WorkloadSpec,
    workers: usize,
    ops_per_worker: u64,
    faults: &FaultSpec,
) -> ReplReport {
    assert!(workers > 0);
    let shards = cluster.num_shards();
    let nreplicas = cluster.spec().replicas;
    let mode = cluster.spec().mode;
    if faults.has_backup_faults() {
        match mode {
            ReplMode::Sync => panic!(
                "fault injection requires async mode: a sync primary blocks on the ack a \
                 faulted backup is deliberately withholding"
            ),
            ReplMode::Async { max_lag } => assert!(
                faults.max_window < max_lag,
                "fault windows ({}) must stay below the lag bound ({max_lag}); a primary \
                 stalled on the bound cannot deliver the entries that close a window",
                faults.max_window
            ),
        }
    }
    assert!(
        faults.primary_crashes <= nreplicas,
        "at most {nreplicas} leader crashes are survivable with {nreplicas} backups \
         (each crash consumes one node from the succession line)"
    );

    // Preload: every key present everywhere, logs empty, followers at
    // the preload high-water mark.
    for (key, value) in spec.preload_values() {
        cluster.preload(key, &value);
    }
    let map = cluster.map().clone();
    let failovers_before = map.total_failovers();
    let (node_endpoints, clients) = repl_mesh(&map, workers);

    let start = Instant::now();
    let (tally, client_stats, nodes) = std::thread::scope(|s| {
        let mut node_handles = Vec::with_capacity(shards * (nreplicas + 1));
        for (shard, endpoints) in node_endpoints.into_iter().enumerate() {
            for endpoint in endpoints {
                let node = endpoint.node();
                let store = cluster.node_store(shard, node);
                let log = cluster.log(shard).clone();
                let map = &map;
                let cfg = cluster.node_config(shard, node, faults);
                node_handles.push(s.spawn(move || serve_node(store, &log, map, endpoint, cfg)));
            }
        }
        let (tally, client_stats) = fan_out(clients, |worker, client| {
            let tally = drive_worker(&client, OpStream::new(spec, worker as u64), ops_per_worker);
            let stats = [
                client.replica_serves(),
                client.fallbacks(),
                client.redirects(),
                client.lost_to_retry(),
                client.stale_served(),
            ];
            client.close();
            (tally, stats)
        });
        let nodes: Vec<NodeReport> = node_handles
            .into_iter()
            .map(|h| h.join().expect("node panicked"))
            .collect();
        (tally, client_stats, nodes)
    });
    let wall = start.elapsed();

    let mut report = ReplReport {
        tally,
        wall,
        failovers: map.total_failovers() - failovers_before,
        unavailability: (0..shards)
            .flat_map(|sh| map.failover_records(sh))
            .map(|rec| rec.unavailable)
            .collect(),
        converged: cluster.converged(),
        ..ReplReport::default()
    };
    for [serves, fallbacks, redirects, lost, stale] in client_stats {
        report.replica_serves += serves;
        report.fallbacks += fallbacks;
        report.redirects += redirects;
        report.lost_to_retry += lost;
        report.stale_served += stale;
    }
    for n in &nodes {
        report.entries += n.entries;
        report.crashes += n.crashes;
        report.stalls += n.stalls;
        report.from_log += n.from_log;
        report.fenced += n.fenced;
    }
    report.nodes = nodes;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ReplSpec;
    use ssync_locks::TicketLock;
    use ssync_srv::workload::{KeyDist, Mix, ValueSize};

    fn small_spec(mix: Mix) -> WorkloadSpec {
        WorkloadSpec {
            keys: 128,
            dist: KeyDist::Zipfian { theta: 0.99 },
            mix,
            vsize: ValueSize::Fixed(24),
            batch: 1,
            seed: 0xD00F,
        }
    }

    #[test]
    fn replicated_runs_replay_exactly_including_faults() {
        let faults = FaultSpec {
            seed: 77,
            faults_per_replica: 2,
            max_window: 6,
            spacing: 10,
            primary_crashes: 0,
        };
        let run = || {
            let mut cluster: ReplCluster<TicketLock> =
                ReplCluster::new(2, 64, 8, ReplSpec::async_bounded(2));
            // One worker: the op-log contents are then deterministic,
            // so entry-indexed faults replay exactly.
            run_replicated_closed_loop(&mut cluster, &small_spec(Mix::YCSB_A), 1, 400, &faults)
        };
        let a = run();
        let b = run();
        assert_eq!(a.tally.issued, b.tally.issued);
        assert_eq!(a.entries, b.entries);
        assert_eq!((a.crashes, a.stalls), (b.crashes, b.stalls));
        assert_eq!(a.from_log, b.from_log);
        assert!(a.converged && b.converged);
        assert!(a.crashes + a.stalls > 0, "the schedule must actually fire");
        assert_eq!(a.failovers, 0);
    }

    #[test]
    fn churn_with_faults_still_converges() {
        let faults = FaultSpec {
            seed: 3,
            faults_per_replica: 3,
            max_window: 8,
            spacing: 12,
            primary_crashes: 0,
        };
        let mut cluster: ReplCluster<TicketLock> =
            ReplCluster::new(2, 64, 8, ReplSpec::async_bounded(2));
        let report =
            run_replicated_closed_loop(&mut cluster, &small_spec(Mix::CHURN), 1, 500, &faults);
        assert!(report.converged, "deletes + crashes must still converge");
        assert!(report.tally.issued.deletes > 0 && report.tally.issued.cas > 0);
    }

    #[test]
    fn sync_mode_never_bounces_a_single_clients_reads() {
        // One worker on purpose: with concurrent clients a read can
        // legitimately bounce (another client's write visible at one
        // backup before the other acked); for a single client, zero
        // fallbacks is a real sync-mode invariant.
        let mut cluster: ReplCluster<TicketLock> = ReplCluster::new(2, 64, 8, ReplSpec::sync(2));
        let report = run_replicated_closed_loop(
            &mut cluster,
            &small_spec(Mix::YCSB_B),
            1,
            600,
            &FaultSpec::none(),
        );
        assert_eq!(report.fallbacks, 0);
        assert!(report.replica_serves > 0);
        assert!(report.converged);
        // Preloaded keyspace, no deletes: every read hits.
        assert_eq!(report.tally.misses, 0);
    }

    #[test]
    fn leader_crashes_fail_over_and_converge_in_sync_mode() {
        let faults = FaultSpec {
            seed: 0xC4A5,
            faults_per_replica: 0,
            max_window: 0,
            spacing: 0,
            primary_crashes: 2,
        };
        let run = || {
            let mut cluster: ReplCluster<TicketLock> =
                ReplCluster::new(2, 64, 8, ReplSpec::sync(2));
            run_replicated_closed_loop(&mut cluster, &small_spec(Mix::YCSB_A), 1, 400, &faults)
        };
        let a = run();
        // Every shard walked its full succession line.
        assert_eq!(a.failovers, 2 * 2, "every scheduled crash must fire");
        assert_eq!(a.unavailability.len(), 4);
        assert!(a.converged, "survivors must converge after failovers");
        assert!(
            a.nodes.iter().filter(|n| n.crashed).count() == 4
                && a.nodes.iter().filter(|n| n.promotions > 0).count() == 4,
            "two leaders per shard must die and two successors must rise"
        );
        // Sync mode: equal high-water marks make the succession
        // deterministic, so a rerun replays the whole history.
        let b = run();
        assert_eq!(a.tally.issued, b.tally.issued);
        assert_eq!(a.entries, b.entries);
        assert_eq!(a.failovers, b.failovers);
        assert!(b.converged);
    }

    #[test]
    fn leader_crashes_fail_over_in_async_mode_too() {
        let faults = FaultSpec {
            seed: 0xA57C,
            faults_per_replica: 0,
            max_window: 0,
            spacing: 0,
            primary_crashes: 1,
        };
        let mut cluster: ReplCluster<TicketLock> =
            ReplCluster::new(2, 64, 8, ReplSpec::async_bounded(2));
        let report =
            run_replicated_closed_loop(&mut cluster, &small_spec(Mix::YCSB_A), 2, 300, &faults);
        assert_eq!(report.failovers, 2, "one promotion per shard");
        assert!(report.converged);
    }

    #[test]
    #[should_panic(expected = "fault injection requires async mode")]
    fn backup_faults_in_sync_mode_are_rejected() {
        let faults = FaultSpec {
            seed: 1,
            faults_per_replica: 1,
            max_window: 4,
            spacing: 8,
            primary_crashes: 0,
        };
        let mut cluster: ReplCluster<TicketLock> = ReplCluster::new(1, 64, 8, ReplSpec::sync(1));
        let _ = run_replicated_closed_loop(&mut cluster, &small_spec(Mix::YCSB_A), 1, 10, &faults);
    }

    #[test]
    #[should_panic(expected = "must stay below the lag bound")]
    fn oversized_fault_windows_are_rejected() {
        let faults = FaultSpec {
            seed: 1,
            faults_per_replica: 1,
            max_window: 64,
            spacing: 8,
            primary_crashes: 0,
        };
        let mut cluster: ReplCluster<TicketLock> =
            ReplCluster::new(1, 64, 8, ReplSpec::async_bounded(1));
        let _ = run_replicated_closed_loop(&mut cluster, &small_spec(Mix::YCSB_A), 1, 10, &faults);
    }

    #[test]
    #[should_panic(expected = "succession line")]
    fn more_crashes_than_backups_are_rejected() {
        let faults = FaultSpec {
            seed: 1,
            faults_per_replica: 0,
            max_window: 0,
            spacing: 0,
            primary_crashes: 2,
        };
        let mut cluster: ReplCluster<TicketLock> = ReplCluster::new(1, 64, 8, ReplSpec::sync(1));
        let _ = run_replicated_closed_loop(&mut cluster, &small_spec(Mix::YCSB_A), 1, 10, &faults);
    }
}
