//! Replication convergence, checked the way the model-checking
//! optimistic-replication literature frames it, but in-process:
//! arbitrary operation sequences + seeded replica crashes, stalls, and
//! leader crashes, with the property that once the run drains, **every
//! live replica's final state equals the leader's, and the leader's
//! equals a sequential BTreeMap model** — no acknowledged write lost,
//! no matter how many leaders died along the way.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use proptest::prelude::*;

use ssync::locks::TicketLock;
use ssync::repl::fault::{FaultEvent, FaultKind, FaultSpec};
use ssync::repl::service::{ReplCluster, ReplMode, ReplSpec};
use ssync::repl::workload::run_replicated_closed_loop;
use ssync::repl::{
    repl_mesh, serve_node, ClusterMap, FaultPlan, NodeConfig, NodeEndpoint, NodeReport, ReplClient,
};
use ssync::srv::router::{key_bytes, shard_of};
use ssync::srv::workload::{KeyDist, Mix, ValueSize, WorkloadSpec};
use ssync::srv::KvClient;

/// Spins up every node of `cluster`'s replication groups with the
/// seeded `faults` schedules and runs `body` with the clients.
fn with_cluster<F>(cluster: &ReplCluster<TicketLock>, faults: &FaultSpec, clients: usize, body: F)
where
    F: FnOnce(Vec<ReplClient>) + Send,
{
    let map = cluster.map().clone();
    let (endpoints, repl_clients) = repl_mesh(&map, clients);
    std::thread::scope(|s| {
        let map = &map;
        for (shard, shard_eps) in endpoints.into_iter().enumerate() {
            for endpoint in shard_eps {
                let node = endpoint.node();
                let store = cluster.node_store(shard, node);
                let log = cluster.log(shard).clone();
                let cfg = cluster.node_config(shard, node, faults);
                s.spawn(move || serve_node(store, &log, map, endpoint, cfg));
            }
        }
        body(repl_clients);
    });
}

type Model = BTreeMap<u64, (Vec<u8>, u64)>;

/// Mirror of one shard's `next_version` counter, tracking which entry
/// indices land on *logged* writes. Failed CAS attempts burn a version
/// without logging anything, so entry indices are not dense in logged
/// writes — and a scheduled leader crash fires only when its
/// `at_entry` coincides exactly with a logged write's index.
#[derive(Default)]
struct ShardEntries {
    burned: u64,
    logged: Vec<u64>,
}

impl ShardEntries {
    fn next(&self) -> u64 {
        1 + self.burned + self.logged.len() as u64
    }
    fn log_one(&mut self) {
        let e = self.next();
        self.logged.push(e);
    }
    fn burn_one(&mut self) {
        self.burned += 1;
    }
}

/// Drives `ops` from one client against `cluster` while maintaining
/// the sequential model, asserting read-your-writes throughout.
/// `entries` mirrors each shard's version allocation (entry indices
/// are per-shard, so fault reachability is too).
fn drive_model_ops(
    client: &ReplClient,
    ops: &[(u64, u8, u8)],
    model: &mut Model,
    entries: &mut [ShardEntries],
) {
    let shards = entries.len();
    for (key, op, val) in ops {
        let (key, val) = (*key, *val);
        match op {
            0 => {
                let v = client.set(key, vec![val; 4]).unwrap();
                model.insert(key, (vec![val; 4], v));
                entries[shard_of(key, shards)].log_one();
            }
            1 => {
                // Reads route through replicas with the floor guard;
                // they must always see the model state — even while a
                // failover is in flight.
                let got = client.get(key).unwrap();
                match model.get(&key) {
                    Some((mv, mver)) => {
                        let (ver, value) = got.expect("model says present");
                        assert_eq!((&value, ver), (mv, *mver));
                    }
                    None => assert!(got.is_none()),
                }
            }
            2 => match model.get(&key).map(|(_, v)| *v) {
                Some(mver) => {
                    let v = client
                        .cas(key, vec![val; 3], mver)
                        .unwrap()
                        .expect("fresh cas must win");
                    model.insert(key, (vec![val; 3], v));
                    entries[shard_of(key, shards)].log_one();
                }
                None => {
                    assert_eq!(client.cas(key, vec![val; 3], 1).unwrap(), Err(0));
                    // A losing CAS still consumes a version slot.
                    entries[shard_of(key, shards)].burn_one();
                }
            },
            _ => {
                let existed = model.remove(&key).is_some();
                let deleted = client.delete(key).unwrap().is_some();
                assert_eq!(deleted, existed);
                if deleted {
                    entries[shard_of(key, shards)].log_one();
                }
            }
        }
    }
}

/// Where a cluster's nodes disagree, for a failed convergence assert:
/// per shard the map view and, for each node, its liveness, published
/// hwm, and every key it holds differently from the node `converged()`
/// compares against — `key: its (version, value) vs the reference's`.
fn divergence(cluster: &ReplCluster<TicketLock>) -> String {
    let map = cluster.map();
    let nodes = 0..map.nodes_per_shard();
    let mut out = String::new();
    for shard in 0..cluster.num_shards() {
        let view = map.view(shard);
        let live = |n: &usize| !map.is_dead(shard, *n);
        let by_hwm = |n: &usize| map.hwm_of(shard, *n);
        let reference = view
            .leader
            .or_else(|| nodes.clone().filter(live).max_by_key(by_hwm));
        let contents = |n: usize| -> BTreeMap<u64, (u64, Vec<u8>)> {
            let rows = cluster.node_store(shard, n).dump().into_iter();
            rows.map(|(k, version, v)| {
                let key = k.as_ref().try_into().expect("8-byte service keys");
                (u64::from_be_bytes(key), (version, v.to_vec()))
            })
            .collect()
        };
        let want = reference.map(contents).unwrap_or_default();
        let _ = writeln!(out, "shard {shard}: {view:?}, reference node {reference:?}");
        for node in nodes.clone() {
            let have = contents(node);
            let keys: BTreeSet<_> = have.keys().chain(want.keys()).collect();
            let differs: Vec<_> = keys
                .into_iter()
                .filter(|key| have.get(key) != want.get(key))
                .map(|key| format!("{key}: {:?} vs {:?}", have.get(key), want.get(key)))
                .collect();
            let state = if live(&node) { "live" } else { "dead" };
            let hwm = map.hwm_of(shard, node);
            let _ = writeln!(
                out,
                "  node {node}: {state}, published hwm {hwm}, differs on {differs:?}"
            );
        }
    }
    out
}

/// Asserts that, shard by shard, the surviving leader's contents equal
/// the model and every live follower converged to them.
fn assert_matches_model(cluster: &ReplCluster<TicketLock>, model: &Model, faults: &FaultSpec) {
    let mut leader_contents: Vec<(Vec<u8>, u64, Vec<u8>)> = Vec::new();
    for shard in 0..cluster.num_shards() {
        let leader = cluster
            .map()
            .view(shard)
            .leader
            .expect("a leader must survive the schedule");
        for (k, ver, v) in cluster.node_store(shard, leader).dump() {
            leader_contents.push((k.to_vec(), ver, v.to_vec()));
        }
    }
    leader_contents.sort();
    let mut model_contents: Vec<(Vec<u8>, u64, Vec<u8>)> = model
        .iter()
        .map(|(k, (v, ver))| (key_bytes(*k).to_vec(), *ver, v.clone()))
        .collect();
    model_contents.sort();
    assert_eq!(leader_contents, model_contents);
    assert!(
        cluster.converged(),
        "{}{}",
        plans(cluster, faults),
        divergence(cluster)
    );
}

/// The case's mode and every node's fault plans, for the same message.
fn plans(cluster: &ReplCluster<TicketLock>, faults: &FaultSpec) -> String {
    let mut out = format!("mode {:?}\n", cluster.spec().mode);
    for shard in 0..cluster.num_shards() {
        for node in 0..cluster.map().nodes_per_shard() {
            let cfg = cluster.node_config(shard, node, faults);
            let (windows, crashes) = (cfg.backup_plan.events(), cfg.crash_plan.events());
            let _ = writeln!(
                out,
                "shard {shard} node {node}: windows {windows:?}, leader crashes {crashes:?}"
            );
        }
    }
    out
}

proptest! {
    /// Arbitrary get/set/cas/delete sequences from one client, with a
    /// seeded crash/stall schedule on two async backups: the replicas
    /// converge to the primary, and the primary matches the model.
    #[test]
    fn replicas_converge_to_the_model(
        ops in proptest::collection::vec((0u64..16, 0u8..4, any::<u8>()), 1..80),
        fault_seed in any::<u64>(),
    ) {
        let spec = ReplSpec {
            replicas: 2,
            mode: ReplMode::Async { max_lag: 24 },
            log_capacity: 512,
        };
        let faults = FaultSpec {
            seed: fault_seed,
            faults_per_replica: 3,
            max_window: 8,
            spacing: 6,
            primary_crashes: 0,
        };
        let cluster: ReplCluster<TicketLock> = ReplCluster::new(2, 64, 8, spec);
        // Model: key -> (value, version), maintained from the client's
        // own observations (single client => sequential history).
        let mut model: Model = BTreeMap::new();
        let mut entries = [ShardEntries::default(), ShardEntries::default()];
        with_cluster(&cluster, &faults, 1, |mut clients| {
            let client = clients.pop().unwrap();
            drive_model_ops(&client, &ops, &mut model, &mut entries);
            client.close();
        });
        assert_matches_model(&cluster, &model, &faults);
        prop_assert_eq!(cluster.map().total_failovers(), 0);
    }
}

proptest! {
    /// The chaos soak: arbitrary op sequences × seeded *leader*
    /// crashes × backup stalls/crashes (async) or bare successions
    /// (sync). Acked writes survive every failover — the client's
    /// sequential model still matches the surviving leader exactly,
    /// live replicas converge, and the failover count equals the
    /// number of scheduled crashes the run actually reached.
    #[test]
    fn chaos_soaked_failovers_lose_no_acknowledged_write(
        ops in proptest::collection::vec((0u64..16, 0u8..4, any::<u8>()), 20..100),
        fault_seed in any::<u64>(),
        sync in any::<bool>(),
        crashes in 1usize..=2,
    ) {
        let (mode, faults_per_replica, max_window, spacing) = if sync {
            // Sync soaks the bare succession line.
            (ReplMode::Sync, 0, 0, 0)
        } else {
            (ReplMode::Async { max_lag: 24 }, 2, 8, 6)
        };
        let spec = ReplSpec {
            replicas: 2,
            mode,
            log_capacity: 512,
        };
        let faults = FaultSpec {
            seed: fault_seed,
            faults_per_replica,
            max_window,
            spacing,
            primary_crashes: crashes,
        };
        let cluster: ReplCluster<TicketLock> = ReplCluster::new(2, 64, 8, spec);
        let mut model: Model = BTreeMap::new();
        let mut entries = [ShardEntries::default(), ShardEntries::default()];
        with_cluster(&cluster, &faults, 1, |mut clients| {
            let client = clients.pop().unwrap();
            drive_model_ops(&client, &ops, &mut model, &mut entries);
            client.close();
        });
        assert_matches_model(&cluster, &model, &faults);
        // Exactly the scheduled crashes whose entry index landed on a
        // logged write fired — no failover lost, none invented. Entry
        // indices are global across successive leaders but *per
        // shard*, and an index burned by a failed CAS (or never
        // reached) schedules nothing.
        let mut expected = 0u64;
        for (shard, shard_entries) in entries.iter().enumerate() {
            let plan = faults.primary_plan_for(shard);
            expected += plan
                .events()
                .iter()
                .filter(|ev| shard_entries.logged.contains(&ev.at_entry))
                .count() as u64;
            prop_assert!(
                cluster.map().view(shard).leader.is_some(),
                "crashes never outnumber backups, so every shard keeps a leader"
            );
        }
        prop_assert_eq!(cluster.map().total_failovers(), expected);
    }
}

#[test]
fn sync_mode_gives_read_your_writes_through_replicas() {
    // The integration-level contract: in sync mode a client's write is
    // visible to its very next read even though that read is served by
    // a backup. With a single client, "zero fallbacks" is an actual
    // invariant (every write is fully acked before the client's next
    // read, and its floor only ever holds versions every backup has
    // applied) — concurrent clients can race a not-yet-acked write at
    // one backup and legitimately bounce, so the deterministic form of
    // the assertion needs one worker.
    let mut cluster: ReplCluster<TicketLock> = ReplCluster::new(2, 128, 16, ReplSpec::sync(2));
    let spec = WorkloadSpec {
        keys: 256,
        dist: KeyDist::Zipfian { theta: 0.99 },
        mix: Mix::YCSB_B,
        vsize: ValueSize::Fixed(32),
        batch: 1,
        seed: 0x51AC,
    };
    let report = run_replicated_closed_loop(&mut cluster, &spec, 1, 900, &FaultSpec::none());
    assert_eq!(
        report.fallbacks, 0,
        "a single sync-mode client must never see a stale replica read"
    );
    assert!(report.replica_serves > 0, "replicas must carry reads");
    assert_eq!(report.tally.misses, 0, "preloaded keyspace, no deletes");
    assert!(report.converged);
}

#[test]
fn sync_mode_concurrent_clients_read_correctly_through_replicas() {
    // The multi-worker variant: cross-client races may bounce a read
    // to the primary (another client's write can be visible at one
    // backup before the other has acked), but every read still returns
    // correct data — hits stay total on the preloaded no-delete
    // keyspace and the groups converge.
    let mut cluster: ReplCluster<TicketLock> = ReplCluster::new(2, 128, 16, ReplSpec::sync(2));
    let spec = WorkloadSpec {
        keys: 256,
        dist: KeyDist::Zipfian { theta: 0.99 },
        mix: Mix::YCSB_B,
        vsize: ValueSize::Fixed(32),
        batch: 1,
        seed: 0x51AC,
    };
    let workers = ssync::core::cores::test_threads(2).max(2);
    let report = run_replicated_closed_loop(&mut cluster, &spec, workers, 600, &FaultSpec::none());
    assert!(report.replica_serves > 0, "replicas must carry reads");
    assert_eq!(report.tally.misses, 0, "preloaded keyspace, no deletes");
    assert!(report.converged);
}

#[test]
fn async_fault_runs_replay_and_converge_end_to_end() {
    // The full loop at integration level: async mode, crash+stall
    // schedules (each window a pause of its backup), churn mix (CAS +
    // deletes). Two identical runs replay the same faults and both
    // converge.
    let run = || {
        let mut cluster: ReplCluster<TicketLock> =
            ReplCluster::new(2, 128, 16, ReplSpec::async_bounded(2));
        let spec = WorkloadSpec {
            keys: 128,
            dist: KeyDist::Uniform,
            mix: Mix::CHURN,
            vsize: ValueSize::Fixed(24),
            batch: 1,
            seed: 0xFA11,
        };
        let faults = FaultSpec {
            seed: 0xFA11,
            faults_per_replica: 3,
            max_window: 10,
            spacing: 16,
            primary_crashes: 0,
        };
        run_replicated_closed_loop(&mut cluster, &spec, 1, 800, &faults)
    };
    let a = run();
    let b = run();
    assert!(a.converged && b.converged);
    assert_eq!(a.tally.issued, b.tally.issued);
    assert_eq!(a.entries, b.entries);
    assert_eq!((a.pauses, a.from_log), (b.pauses, b.from_log));
    assert!(a.pauses > 0);
}

#[test]
fn seeded_failover_runs_replay_end_to_end() {
    // The deterministic failover demo: a fixed seed kills two
    // successive leaders per shard mid-workload; the run converges
    // with zero acknowledged-write loss, and a second run replays the
    // same history — same issued ops, same entries, same failovers
    // (sync mode keeps even the succession order deterministic: equal
    // high-water marks break ties to the lowest live id).
    let run = || {
        let mut cluster: ReplCluster<TicketLock> = ReplCluster::new(2, 128, 16, ReplSpec::sync(2));
        let spec = WorkloadSpec {
            keys: 128,
            dist: KeyDist::Zipfian { theta: 0.99 },
            mix: Mix::YCSB_A,
            vsize: ValueSize::Fixed(24),
            batch: 1,
            seed: 0xF01A,
        };
        let faults = FaultSpec {
            seed: 0xF01A,
            faults_per_replica: 0,
            max_window: 0,
            spacing: 0,
            primary_crashes: 2,
        };
        run_replicated_closed_loop(&mut cluster, &spec, 1, 500, &faults)
    };
    let a = run();
    assert_eq!(a.failovers, 4, "both scheduled crashes fire on both shards");
    assert_eq!(a.unavailability.len(), 4);
    assert!(a.converged, "survivors converge with no acked write lost");
    let b = run();
    assert_eq!(a.tally.issued, b.tally.issued);
    assert_eq!(a.entries, b.entries);
    assert_eq!(a.failovers, b.failovers);
    assert!(b.converged);
}

/// One async three-node shard whose node threads a regression starts
/// by hand, so that *when* a node first runs — the thing both
/// convergence holes turned on — is the test's choice, not the
/// scheduler's. `crash_at` is the shard's one leader crash.
struct Staged {
    cluster: ReplCluster<TicketLock>,
    endpoints: std::cell::RefCell<Vec<Option<NodeEndpoint>>>,
    crash_at: u64,
}

impl Staged {
    fn new(crash_at: u64) -> (Staged, ReplClient) {
        let spec = ReplSpec {
            replicas: 2,
            mode: ReplMode::Async { max_lag: 24 },
            log_capacity: 512,
        };
        let cluster = ReplCluster::new(1, 64, 8, spec);
        let (mut endpoints, mut clients) = repl_mesh(cluster.map(), 1);
        let endpoints: Vec<_> = endpoints.pop().unwrap().into_iter().map(Some).collect();
        let staged = Staged {
            cluster,
            endpoints: endpoints.into(),
            crash_at,
        };
        (staged, clients.pop().unwrap())
    }

    fn map(&self) -> &ClusterMap {
        self.cluster.map()
    }

    /// Starts `node`'s thread with `backup_plan`.
    fn start<'s>(
        &'s self,
        scope: &'s std::thread::Scope<'s, '_>,
        node: usize,
        backup_plan: FaultPlan,
    ) -> std::thread::ScopedJoinHandle<'s, NodeReport> {
        let endpoint = self.endpoints.borrow_mut()[node].take().unwrap();
        let cfg = NodeConfig {
            backup_plan,
            crash_plan: FaultPlan::primary_crashes(vec![self.crash_at]),
            ..self.cluster.node_config(0, node, &FaultSpec::none())
        };
        let (store, log) = (self.cluster.node_store(0, node), self.cluster.log(0));
        let map = self.map();
        scope.spawn(move || serve_node(store, log, map, endpoint, cfg))
    }

    /// Runs the seed leader alone through the acknowledged writes that
    /// kill it: keys `1..=crash_at`, every follower's ring holding the
    /// backlog.
    fn leader_writes_and_dies<'s>(
        &'s self,
        scope: &'s std::thread::Scope<'s, '_>,
        client: &ReplClient,
    ) {
        let leader = self.start(scope, 0, FaultPlan::none());
        for key in 1..=self.crash_at {
            client.set(key, vec![key as u8; 4]).unwrap();
        }
        leader.join().unwrap();
        assert!(self.map().is_dead(0, 0), "the leader's crash fired");
    }

    fn wait_for(&self, what: impl Fn(&ClusterMap) -> bool) {
        while !what(self.map()) {
            std::thread::yield_now();
        }
    }
}

/// Runs `scenario` detached and under a deadline: a node that never
/// exits fails the test instead of hanging the suite.
fn under_deadline(scenario: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        scenario();
        done_tx.send(())
    });
    match done_rx.recv_timeout(Duration::from_secs(20)) {
        Ok(()) => {}
        Err(RecvTimeoutError::Timeout) => panic!("the scenario hung"),
        Err(RecvTimeoutError::Disconnected) => panic!("the scenario panicked (see above)"),
    }
}

fn one_stall(at_entry: u64, window: u64) -> FaultPlan {
    FaultPlan::from_events(vec![FaultEvent {
        at_entry,
        kind: FaultKind::Stall,
        window,
    }])
}

/// Regression, hole (A): a follower whose thread first runs after a
/// failover found the new term already in the map, so the
/// term-adoption replay — the only one a healthy follower had — never
/// fired: it fenced the dead leader's backlog and applied the new
/// leader's stream on top of the gap (node 2 ended holding key 4 only,
/// at published hwm 4).
#[test]
fn follower_started_after_a_failover_replays_the_fenced_backlog() {
    under_deadline(|| {
        let (staged, client) = Staged::new(3);
        std::thread::scope(|s| {
            staged.leader_writes_and_dies(s, &client);
            staged.start(s, 1, FaultPlan::none());
            // Node 1 promotes (replaying the log) and leads.
            client.set(4, vec![4; 4]).unwrap();
            staged.start(s, 2, FaultPlan::none());
            staged.wait_for(|map| map.hwm_of(0, 2) >= 4);
            client.close();
        });
        assert!(
            staged.cluster.converged(),
            "{}",
            divergence(&staged.cluster)
        );
    });
}

/// Regression, hole (B): a frame fence-dropped during the vacancy,
/// then a stall window whose buffer was drained on top of the hwm the
/// drop had left un-replayed (node 1 published hwm 3 without entry 1).
/// A stall is now a pause of the node, which drains nothing: the
/// fenced backlog is passed only by the replay of adopting node 2's
/// term, so node 1's hwm cannot reach 3 before node 2 starts.
#[test]
fn stall_over_a_fenced_backlog_closes_on_the_log() {
    under_deadline(|| {
        let (staged, client) = Staged::new(4);
        // An observer: the shard stays vacant while node 1 consumes.
        staged.map().set_observer(0, 1);
        std::thread::scope(|s| {
            staged.leader_writes_and_dies(s, &client);
            staged.start(s, 1, one_stall(2, 2));
            staged.start(s, 2, FaultPlan::none());
            staged.wait_for(|map| map.hwm_of(0, 1) >= 3);
            let held = staged.cluster.node_store(0, 1).get(&key_bytes(1));
            assert!(
                held.is_some(),
                "published hwm {} without entry 1",
                staged.map().hwm_of(0, 1)
            );
            client.close();
        });
        assert!(
            staged.cluster.converged(),
            "{}",
            divergence(&staged.cluster)
        );
    });
}

/// Regression, hole (B) with a hwm tie: the holed node *won the
/// promotion* — node 2 had kept up (hwm 4) and was then pre-empted,
/// node 1 drained its stall buffer to a published hwm of 4 without
/// entry 1, the tie went to the lower id — and an authoritative read
/// of an acknowledged key returned a miss. A stall is now a pause of
/// the node, which drains nothing, so node 1's hwm stays below a node
/// 2 at 4 and it cannot win; it leads here, node 2 being at 0 too,
/// only through the promotion's replay of the backlog it fenced.
#[test]
fn a_node_with_a_hole_below_its_hwm_never_leads() {
    under_deadline(|| {
        let (staged, client) = Staged::new(4);
        std::thread::scope(|s| {
            staged.leader_writes_and_dies(s, &client);
            staged.start(s, 1, one_stall(2, 3));
            staged.wait_for(|map| map.view(0).leader.is_some());
            let read = client.get(1);
            let view = staged.map().view(0);
            assert_eq!(read, Ok(Some((1, vec![1; 4]))), "led by {view:?}");
            // Only so that the shutdown handshake has its second party.
            staged.start(s, 2, FaultPlan::none());
            client.close();
        });
        assert!(
            staged.cluster.converged(),
            "{}",
            divergence(&staged.cluster)
        );
    });
}
