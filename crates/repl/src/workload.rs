//! The replicated closed-loop driver: the `ssync-srv` workload engine
//! (seeded key distributions, YCSB mixes, deterministic op streams,
//! the sequential [`drive_worker`] and the client threads
//! [`fan_out_beside`] the nodes) pointed at a replication group, plus
//! deterministic fault injection. This module owns only the server
//! side: the nodes, one [`run`] over all of them, applying their
//! faults, and what they report.
//!
//! Issued op counts are a pure function of `(spec, workers,
//! ops_per_worker)` exactly as in the unreplicated driver, and fault
//! schedules are a pure function of the fault seed and entry indices —
//! so a faulty run *replays*: same pauses, same crashes, same final
//! convergence. Leader crashes add failovers to
//! the mix; in sync mode even the succession order replays exactly
//! (equal high-water marks make the promotion tie-break — lowest live
//! id — deterministic).

use std::time::{Duration, Instant};

use ssync_locks::TicketLock;
use ssync_srv::run;
use ssync_srv::workload::{drive_worker, fan_out_beside, OpStream, Tally, WorkloadSpec};

use crate::fault::FaultSpec;
use crate::service::{driven, repl_mesh, report_of, NodeEndpoint, NodeReport, ReplCluster};

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
    /// Pauses the driver put the nodes through: one per backup window
    /// reached.
    pub pauses: u64,
    /// Entries replayed from op-logs (term adoptions, promotions,
    /// fenced frames).
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
/// on every node, [`run`] every `(shard, node)` and spawn `workers`
/// client threads, drive `ops_per_worker` key-operations per
/// client (riding out any scheduled leader crashes via the client's
/// deadline/retry machinery), shut the groups down, and report —
/// including whether every surviving node converged and how long each
/// failover's unavailability window measured.
///
/// # Panics
///
/// Panics if `workers` is zero, or if `faults` schedules more leader
/// crashes than there are backups to promote; re-raises a node's panic,
/// which drops every node, so its clients read them gone, not hang.
pub fn run_replicated_closed_loop(
    cluster: &mut ReplCluster<TicketLock>,
    spec: &WorkloadSpec,
    workers: usize,
    ops_per_worker: u64,
    faults: &FaultSpec,
) -> ReplReport {
    assert!(workers > 0);
    let shards = cluster.num_shards();
    let nreplicas = cluster.spec().replicas;
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
    let cluster = &*cluster;
    let map = cluster.map().clone();
    let failovers_before = map.total_failovers();
    let (node_endpoints, clients) = repl_mesh(&map, workers);
    let node = |(shard, endpoint): (usize, NodeEndpoint)| {
        let (n, store) = (endpoint.node(), cluster.node_store(shard, endpoint.node()));
        let cfg = cluster.node_config(shard, n, faults);
        driven(store, cluster.log(shard), &map, endpoint, cfg)
    };
    let endpoints = node_endpoints.into_iter().enumerate();
    let endpoints = endpoints.flat_map(|(shard, group)| group.into_iter().map(move |e| (shard, e)));
    let mut nodes: Vec<_> = endpoints.map(node).collect();

    let start = Instant::now();
    let serve = move || {
        run(&mut nodes.iter_mut().collect::<Vec<_>>());
        let report = |node: &_| (report_of(node), node.pauses);
        nodes.iter().map(report).collect::<Vec<_>>()
    };
    let (nodes, (tally, client_stats)) = fan_out_beside(serve, clients, |worker, client| {
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
    for (n, pauses) in &nodes {
        report.entries += n.entries;
        report.pauses += pauses;
        report.from_log += n.from_log;
        report.fenced += n.fenced;
    }
    report.nodes = nodes.into_iter().map(|(n, _)| n).collect();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{mesh_at, ReplClient, ReplSpec};
    use ssync_locks::TicketLock;
    use ssync_srv::workload::{KeyDist, Mix, Op, ValueSize};
    use ssync_srv::{play, KvClient, Request, Step};
    use std::cell::Cell;

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
        assert_eq!((a.pauses, a.from_log), (b.pauses, b.from_log));
        assert!(a.converged && b.converged);
        assert!(a.pauses > 0, "the schedule must actually fire");
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
            let report =
                run_replicated_closed_loop(&mut cluster, &small_spec(Mix::YCSB_A), 1, 400, &faults);
            let map = cluster.map();
            let dead = (0..2).flat_map(|s| (0..3).filter(move |&n| map.is_dead(s, n)));
            (report, dead.count())
        };
        let (a, dead) = run();
        // Every shard walked its full succession line.
        assert_eq!(a.failovers, 2 * 2, "every scheduled crash must fire");
        assert_eq!(a.unavailability.len(), 4);
        assert!(a.converged, "survivors must converge after failovers");
        assert!(
            dead == 4 && a.nodes.iter().filter(|n| n.promotions > 0).count() == 4,
            "two leaders per shard must die and two successors must rise"
        );
        // Sync mode: equal high-water marks make the succession
        // deterministic, so a rerun replays the whole history.
        let (b, _) = run();
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

    /// A backup window is a pause of the backup, which ends by itself:
    /// a sync leader waits it out, and so does an async one whose
    /// follower is paused past the lag bound.
    #[test]
    fn backup_windows_pause_sync_groups_and_outlast_the_lag_bound() {
        let faults = FaultSpec {
            seed: 1,
            faults_per_replica: 2,
            max_window: 96,
            spacing: 8,
            primary_crashes: 0,
        };
        for spec in [ReplSpec::sync(1), ReplSpec::async_bounded(1)] {
            let mut cluster: ReplCluster<TicketLock> = ReplCluster::new(1, 64, 8, spec);
            let report =
                run_replicated_closed_loop(&mut cluster, &small_spec(Mix::YCSB_A), 1, 200, &faults);
            assert_eq!(report.pauses, 2, "{spec:?}");
            assert!(report.converged, "{spec:?}");
        }
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

    /// One-key reads of 1 KiB values are 19-frame replies over 8-slot
    /// rings, beside sync writes, and every node of two shards shares
    /// one worker with both clients ([`play`]): a node that waited for
    /// room mid-reply would never let its client take a frame.
    /// 2 clients × 50 000 key-ops, detached under a deadline.
    #[test]
    fn one_key_replies_longer_than_their_ring_finish_on_shared_workers() {
        const OPS: u64 = 50_000;
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut cluster: ReplCluster<TicketLock> =
                ReplCluster::new(2, 2_048, 16, ReplSpec::sync(1));
            let spec = WorkloadSpec {
                keys: 4_096,
                dist: KeyDist::Uniform,
                mix: Mix::YCSB_B,
                vsize: ValueSize::Fixed(1024),
                batch: 1,
                seed: 0xCAFE_F00D,
            };
            for (key, value) in spec.preload_values() {
                cluster.preload(key, &value);
            }
            let map = cluster.map().clone();
            let (groups, clients) = mesh_at(&map, 2, 8);
            let none = FaultSpec::none();
            let mut nodes = Vec::new();
            for (shard, group) in groups.into_iter().enumerate() {
                for endpoint in group {
                    let (n, log) = (endpoint.node(), cluster.log(shard));
                    let cfg = cluster.node_config(shard, n, &none);
                    nodes.push(driven(
                        cluster.node_store(shard, n),
                        log,
                        &map,
                        endpoint,
                        cfg,
                    ));
                }
            }
            let (done, served) = (Cell::new(0), Cell::new(0));
            let worker = |worker: u64, client: ReplClient| {
                let (done, served) = (&done, &served);
                async move {
                    let mut stream = OpStream::new(&spec, worker);
                    for _ in 0..OPS {
                        match stream.next_op() {
                            Op::Get(key) => {
                                let (_, value) = client.read(key).await.unwrap().unwrap();
                                assert_eq!(value.len(), 1024);
                            }
                            Op::Set(key, value) => {
                                let set = Request::Set { key, value };
                                client.exchange(key, &set).await.unwrap();
                            }
                            other => unreachable!("YCSB-B drew {other:?}"),
                        }
                        done.set(done.get() + 1);
                    }
                    served.set(served.get() + client.replica_serves());
                    client.close();
                }
            };
            let mut clients: Vec<_> = (0..)
                .zip(clients)
                .map(|(w, client)| Box::pin(worker(w, client)))
                .collect();
            let mut polled: Vec<_> = clients.iter_mut().map(|c| c.as_mut()).collect();
            let mut actors: Vec<&mut dyn Step> = Vec::new();
            actors.extend(nodes.iter_mut().map(|node| node as &mut dyn Step));
            actors.extend(polled.iter_mut().map(|client| client as &mut dyn Step));
            let finished = play(&mut actors, &[], 1 << 40);
            done_tx.send((finished, done.get(), served.get(), cluster.converged()))
        });
        let (finished, done, served, converged) = done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a node waited on a full reply ring");
        assert!(finished && converged);
        assert_eq!(done, 2 * OPS);
        assert!(served > 0, "no follower served a read");
    }
}
