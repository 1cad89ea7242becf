//! The three serving stacks, stood up exactly as a deployment would
//! through the crates' public constructors: one generator connection,
//! TICKET locks, optimistic reads, server threads fixed by the
//! topology. Each `*_stack` function times its own set-up (stores,
//! preload, mesh, thread spawn, first round trip), runs `body` against
//! the live stack, shuts it down, and audits every store's final
//! contents against the oracle.

use std::time::{Duration, Instant};

use ssync_cluster::{cluster_mesh, serve_cluster_node, ClusterClient, ShardMap};
use ssync_kv::KvStore;
use ssync_locks::TicketLock;
use ssync_mp::RingSender;
use ssync_repl::{
    repl_mesh, serve_node, FaultPlan, NodeConfig, NodeReport, OpLog, ReplClient, ReplCluster,
    ReplMode, ReplSpec,
};
use ssync_srv::router::key_bytes;
use ssync_srv::service::ServeReport;
use ssync_srv::{ring_mesh, serve, ShardRouter};

use crate::driver::{Load, SrvClient, Target, Via};
use crate::gen::WorkloadSpec;

/// Ring depth of every client connection the benchmark builds.
pub const RING_DEPTH: usize = 64;

/// Lock stripes per store, as the repository's own harnesses deploy.
pub const STRIPES: usize = 16;

/// Buckets per store: one per key, plus one so that the count is not a
/// power of two. `KvStore::locate` takes `(fnv1a(key) >> 16) %
/// buckets`, and for the service's dense 8-byte keys that expression
/// reaches 610 buckets in all under *any* power-of-two count — an
/// average hit then walks 65 chain nodes, `kv.get` costs 1.3 µs, and
/// every number of every workload becomes a measurement of the host's
/// memory latency (on the shared reference host: run-to-run swings of
/// 30–45 % whenever a neighbour works the cache, against ~15 % for
/// code that is not chasing pointers). With the extra bucket a hit
/// walks 1.3–1.6 nodes. The pathology stays on the record as the
/// per-layer metric `kv.get_pow2_ns`.
pub fn buckets(spec: &WorkloadSpec) -> usize {
    spec.keys as usize + 1
}

/// Nodes in the cluster fleet: one busy, one parked until the split.
pub const FLEET: usize = 2;

/// `OpLog` capacity of a cluster node. `serve_cluster_node` never
/// truncates its log, so the bound only has to exceed every write of
/// the longest run; the log's real growth shows in `peak_rss_mb`.
const CLUSTER_LOG_BOUND: usize = 1 << 28;

pub type Store = KvStore<TicketLock>;

/// Checks the stack answers, through the oracle, and stops the set-up
/// clock.
fn first_round_trip<T: Target>(load: &mut Load, target: &T, t0: Instant) -> f64 {
    load.oracle.check_get(0, target.get(0));
    t0.elapsed().as_secs_f64()
}

/// Audits one store that should hold the whole keyspace.
fn audit_whole(load: &mut Load, name: &str, store: &Store) {
    let agreed = load.oracle.audit_dump(name, &store.dump(), |_| true);
    let live = load.oracle.live_keys();
    load.oracle.expect(agreed == live, || {
        format!("audit {name}: {agreed} of {live} live keys")
    });
}

/// One srv shard: a `serve` thread plus the generator.
pub fn srv_stack<T>(
    spec: &WorkloadSpec,
    load: &mut Load,
    body: impl FnOnce(&mut Load, &SrvClient, &Store) -> T,
) -> (f64, T, ServeReport) {
    let t0 = Instant::now();
    let router: ShardRouter<TicketLock> = ShardRouter::new(1, buckets(spec), STRIPES);
    load.preload(|key, value| router.set(key, value));
    let (mut endpoints, mut clients) = ring_mesh(1, 1, RING_DEPTH);
    let (endpoint, client) = (endpoints.remove(0), clients.remove(0));
    let store = router.shard(0);
    let out = std::thread::scope(|s| {
        let server = s.spawn(|| serve(store, endpoint));
        let setup_s = first_round_trip(load, &Via(&client), t0);
        let out = body(load, &client, store);
        client.close();
        (setup_s, out, server.join().expect("serve thread"))
    });
    audit_whole(load, "srv shard 0", store);
    out
}

/// What a replication group reports once it has shut down.
pub struct ReplEnd {
    pub nodes: Vec<NodeReport>,
    pub failovers: u64,
    /// Death-to-promotion time of each failover.
    pub promotions: Vec<Duration>,
}

/// One shard replicated leader + one backup in sync mode, replica
/// reads on: two `serve_node` threads plus the generator. `crash_plan`
/// is the shard's leader-crash schedule (`FaultPlan::none()` for the
/// steady phases).
pub fn repl_stack<T>(
    spec: &WorkloadSpec,
    load: &mut Load,
    crash_plan: &FaultPlan,
    body: impl FnOnce(&mut Load, &ReplClient) -> T,
) -> (f64, T, ReplEnd) {
    let t0 = Instant::now();
    let mut cluster: ReplCluster<TicketLock> =
        ReplCluster::new(1, buckets(spec), STRIPES, ReplSpec::sync(1));
    load.preload(|key, value| cluster.preload(key, value));
    let map = cluster.map().clone();
    let (mut endpoints, mut clients) = repl_mesh(&map, 1);
    let client = clients.remove(0);
    let (setup_s, out, nodes) = std::thread::scope(|s| {
        let servers: Vec<_> = endpoints
            .remove(0)
            .into_iter()
            .map(|endpoint| {
                let store = cluster.node_store(0, endpoint.node());
                let log = cluster.log(0).clone();
                let cfg = NodeConfig {
                    shard: 0,
                    mode: ReplMode::Sync,
                    initial_hwm: cluster.preload_hwm(0),
                    backup_plan: FaultPlan::none(),
                    crash_plan: crash_plan.clone(),
                };
                let map = &map;
                s.spawn(move || serve_node(store, &log, map, endpoint, cfg))
            })
            .collect();
        let setup_s = first_round_trip(load, &Via(&client), t0);
        let out = body(load, &client);
        client.close();
        let nodes = servers
            .into_iter()
            .map(|h| h.join().expect("serve_node thread"))
            .collect();
        (setup_s, out, nodes)
    });
    load.oracle.expect(cluster.converged(), || {
        "replicas did not converge".to_string()
    });
    let leader = map.view(0).leader.expect("a live leader at shutdown");
    audit_whole(load, "repl leader", cluster.node_store(0, leader));
    let end = ReplEnd {
        nodes,
        failovers: map.total_failovers(),
        promotions: map
            .failover_records(0)
            .iter()
            .map(|record| record.unavailable)
            .collect(),
    };
    (setup_s, out, end)
}

/// What a cluster body gets to reshard the live fleet with.
pub struct ClusterCtx<'a> {
    pub map: &'a ShardMap,
    pub stores: &'a [Store],
    pub logs: &'a [OpLog],
    pub mig: &'a [RingSender],
}

/// A fleet of [`FLEET`] cluster nodes under a 1-shard map: node 0
/// serves every slot, node 1 is parked until a reshard hands it half
/// of them.
pub fn cluster_stack<T>(
    spec: &WorkloadSpec,
    load: &mut Load,
    body: impl FnOnce(&mut Load, &ClusterClient<'_>, &ClusterCtx<'_>) -> T,
) -> (f64, T, Vec<ssync_cluster::NodeReport>) {
    let t0 = Instant::now();
    let map = ShardMap::new(1);
    let stores: Vec<Store> = (0..FLEET)
        .map(|_| KvStore::new(buckets(spec), STRIPES))
        .collect();
    let logs: Vec<OpLog> = (0..FLEET).map(|_| OpLog::new(CLUSTER_LOG_BOUND)).collect();
    load.preload(|key, value| stores[0].set(&key_bytes(key), value));
    let (endpoints, mut conns, mig) = cluster_mesh(FLEET, 1, RING_DEPTH, 256);
    let out = std::thread::scope(|s| {
        let servers: Vec<_> = endpoints
            .into_iter()
            .enumerate()
            .map(|(shard, endpoint)| {
                let (store, log, map) = (&stores[shard], &logs[shard], &map);
                s.spawn(move || serve_cluster_node(shard, store, log, map, endpoint))
            })
            .collect();
        let client = ClusterClient::new(&map, conns.remove(0));
        let setup_s = first_round_trip(load, &Via(&client), t0);
        let ctx = ClusterCtx {
            map: &map,
            stores: &stores,
            logs: &logs,
            mig: &mig,
        };
        let out = body(load, &client, &ctx);
        client.close();
        let nodes = servers
            .into_iter()
            .map(|h| h.join().expect("serve_cluster_node thread"))
            .collect();
        (setup_s, out, nodes)
    });
    // Every item sits at the shard the final map assigns its key, and
    // every live key of the model is somewhere: zero lost acknowledged
    // writes, zero resurrected deletes.
    let owners = map.snapshot();
    let mut agreed = 0;
    for (shard, store) in stores.iter().enumerate() {
        agreed += load
            .oracle
            .audit_dump(&format!("cluster node {shard}"), &store.dump(), |key| {
                owners.owner_of_key(key) == shard
            });
    }
    let live = load.oracle.live_keys();
    load.oracle.expect(agreed == live, || {
        format!("audit cluster: {agreed} of {live} live keys")
    });
    out
}
