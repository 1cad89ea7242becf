//! The replicated KV service end to end: node-symmetric replication
//! groups over `ssync-mp` ring channels, replica reads with freshness
//! floors, sync vs async acknowledgement, a deterministic backup crash
//! that catches up from the op-log, and a deterministic *leader* crash
//! the client rides through while the shard fails over under a bumped
//! term.
//!
//! Run with: `cargo run --release --example replicated_kv`

use ssync::locks::TicketLock;
use ssync::repl::fault::{FaultEvent, FaultKind, FaultPlan, FaultSpec};
use ssync::repl::service::{repl_mesh, serve_node, NodeConfig, ReplCluster, ReplSpec};
use ssync::repl::workload::run_replicated_closed_loop;
use ssync::srv::workload::{KeyDist, Mix, ValueSize, WorkloadSpec};
use ssync::srv::KvClient;

/// Spawns every node of every shard with the given per-node fault
/// plans, runs `body` with the clients, and returns after the scope
/// drains. `plans(shard, node)` supplies `(backup_plan, crash_plan)`.
fn with_nodes<F>(
    cluster: &ReplCluster<TicketLock>,
    clients: usize,
    plans: impl Fn(usize, usize) -> (FaultPlan, FaultPlan) + Copy,
    body: F,
) where
    F: FnOnce(Vec<ssync::repl::ReplClient>) + Send,
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
                let (backup_plan, crash_plan) = plans(shard, node);
                let cfg = NodeConfig {
                    backup_plan,
                    crash_plan,
                    ..cluster.node_config(shard, node, &FaultSpec::none())
                };
                s.spawn(move || serve_node(store, &log, map, endpoint, cfg));
            }
        }
        body(repl_clients);
    });
}

fn main() {
    // --- Manual requests first: 1 shard, 2 backups, sync mode. ---
    let mut cluster: ReplCluster<TicketLock> = ReplCluster::new(1, 64, 8, ReplSpec::sync(2));
    cluster.preload(1, b"seed");
    with_nodes(
        &cluster,
        1,
        |_, _| (FaultPlan::none(), FaultPlan::none()),
        |mut clients| {
            let client = clients.pop().unwrap();
            let v = client
                .set(1, b"profile:alice".to_vec())
                .expect("wire error");
            println!("set key 1 at version {v} (sync: both backups acked first)");
            // Round-robin sends this read to a backup; sync mode means
            // it sees the write anyway, and the freshness floor would
            // bounce it to the leader if it didn't.
            let (version, value) = client.get(1).expect("wire error").unwrap();
            println!(
                "get key 1 -> {:?} at v{version}, served by a backup ({} backup reads, {} fallbacks)",
                String::from_utf8_lossy(&value),
                client.replica_serves(),
                client.fallbacks(),
            );
            client.close();
        },
    );
    println!("converged: {}\n", cluster.converged());

    // --- A deterministic backup crash: node 1 loses two writes on the
    // wire, reboots, and replays them from the leader's op-log. ---
    let mut cluster: ReplCluster<TicketLock> =
        ReplCluster::new(1, 64, 8, ReplSpec::async_bounded(1));
    cluster.preload(7, b"seed");
    let backup_crash = FaultPlan::from_events(vec![FaultEvent {
        at_entry: 2,
        kind: FaultKind::Stall,
        window: 2,
    }]);
    with_nodes(
        &cluster,
        1,
        |_, node| {
            let backup = if node == 1 {
                backup_crash.clone()
            } else {
                FaultPlan::none()
            };
            (backup, FaultPlan::none())
        },
        |mut clients| {
            let client = clients.pop().unwrap();
            for key in 10..14u64 {
                client.set(key, vec![key as u8; 8]).expect("wire error");
            }
            client.close();
        },
    );
    println!(
        "async + backup crash: converged after op-log replay: {}\n",
        cluster.converged()
    );

    // --- A deterministic LEADER crash: the seed leader dies right
    // after acknowledging its second write; the most caught-up backup
    // bumps the term, replays its log tail, and the same client keeps
    // going — retry and redirects hide the window. ---
    let mut cluster: ReplCluster<TicketLock> = ReplCluster::new(1, 64, 8, ReplSpec::sync(2));
    cluster.preload(1, b"seed");
    let leader_crash = FaultPlan::primary_crashes(vec![2]);
    with_nodes(
        &cluster,
        1,
        |_, _| (FaultPlan::none(), leader_crash.clone()),
        |mut clients| {
            let client = clients.pop().unwrap();
            for key in 20..25u64 {
                // Write 2 kills the leader after it acknowledges; the
                // next write stalls until the failover lands, then
                // retries against the new leader.
                client.set(key, vec![key as u8; 8]).expect("wire error");
            }
            let (_, value) = client.get(22).expect("wire error").unwrap();
            println!(
                "rode through the failover: key 22 -> {:?} ({} redirects chased)",
                value,
                client.redirects(),
            );
            client.close();
        },
    );
    let view = cluster.map().view(0);
    for rec in cluster.map().failover_records(0) {
        println!(
            "failover: node {} -> node {} opened term {} after {:?} unavailable",
            rec.from,
            rec.to,
            u64::from(rec.term),
            rec.unavailable
        );
    }
    println!(
        "leader crash: term {} led by node {:?}, converged: {}\n",
        u64::from(view.term),
        view.leader,
        cluster.converged()
    );

    // --- The closed-loop driver: replica reads scale a read-heavy
    // zipfian mix (wide batches bulk-read from backups). ---
    println!("YCSB-C zipf 0.99, batch 24, async, 2 shards:");
    for replicas in [0usize, 1, 2] {
        let mut cluster: ReplCluster<TicketLock> =
            ReplCluster::new(2, 256, 16, ReplSpec::async_bounded(replicas));
        let spec = WorkloadSpec {
            keys: 1024,
            dist: KeyDist::Zipfian { theta: 0.99 },
            mix: Mix::YCSB_C,
            vsize: ValueSize::Uniform { min: 16, max: 64 },
            batch: 24,
            seed: 7,
        };
        let workers = ssync::core::cores::test_threads(2);
        let report =
            run_replicated_closed_loop(&mut cluster, &spec, workers, 2_500, &FaultSpec::none());
        println!(
            "  {replicas} replicas: {:>8.0} ops/s ({} reads served by backups), converged: {}",
            report.tally.ops_per_sec(report.wall),
            report.replica_serves,
            report.converged
        );
    }
}
