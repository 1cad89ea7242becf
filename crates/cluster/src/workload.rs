//! The reshard-under-traffic driver behind `ccbench`'s `reshard`
//! experiment.
//!
//! [`run_reshard`] builds a fleet sized for the *post*-split shard
//! count, routes it through a [`ShardMap`] that initially only uses
//! the first `shards_before` shards, and drives closed-loop client
//! workers against it while a coordinator thread reshards the fleet
//! live — [`run_reshard_coordinator`] with the spec's seeded faults —
//! once enough traffic has flowed.
//!
//! Workers own disjoint key residues (worker `w` touches only keys
//! `≡ w (mod workers)`), so each can keep a private `BTreeMap` model
//! of every write the service acknowledged to it. That model is the
//! oracle for the experiment's headline claim: after the dust settles,
//! every modelled `(key, version, value)` is present, byte- and
//! version-exact, at the shard the final map assigns it — **zero lost
//! acknowledged writes** — and no deleted key has resurfaced. The
//! driver also measures the cost: throughput before / during / after
//! the migration window and the dip percentage, plus the redirect and
//! deferral counters the protocol's unavailability story predicts.
//!
//! Mid-flight reads are tallied but *not* asserted against the model:
//! during the cutover's propagation window a read may be served by the
//! outgoing owner (the same bounded staleness `ssync-repl` accepts
//! from async replicas). Writes never get that latitude — the
//! freeze-fence argument in [`crate::service`] — which is exactly the
//! asymmetry the final convergence check makes observable.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ssync_kv::KvStore;
use ssync_locks::RawLock;
use ssync_repl::OpLog;

use crate::map::ShardMap;
use crate::migrate::{run_reshard_coordinator, MigrationReport, ReshardSpec};
use crate::service::{cluster_mesh, serve_cluster_node, ClusterClient, NodeReport};
use crate::sync::atomic::{AtomicU64, Ordering};

/// What to run: fleet shape, traffic, and the migration to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReshardWorkloadSpec {
    /// Shards serving when traffic starts. The fleet is provisioned
    /// at `max(shards_before, reshard.shards_after)` nodes; the spare
    /// ones idle until the cutover hands them slots.
    pub shards_before: usize,
    /// Closed-loop client workers.
    pub workers: usize,
    /// Keys per worker (disjoint residues across workers).
    pub keys_per_worker: u64,
    /// Operations per worker.
    pub ops_per_worker: u64,
    /// Value payload length in bytes.
    pub value_len: usize,
    /// Total acknowledged ops to wait for before the migration starts
    /// (must leave headroom below `workers * ops_per_worker`).
    pub start_after_ops: u64,
    /// The migration itself, faults included.
    pub reshard: ReshardSpec,
    /// Workload seed; workers derive per-worker streams from it.
    pub seed: u64,
}

/// What a reshard-under-traffic run observed.
#[derive(Debug, Clone, PartialEq)]
pub struct ReshardReport {
    /// Acknowledged client operations (= `workers * ops_per_worker`).
    pub issued: u64,
    /// Gets / sets / cas / deletes acknowledged, in that order.
    pub ops: [u64; 4],
    /// Get hits and misses.
    pub hits: u64,
    /// See `hits`.
    pub misses: u64,
    /// CAS attempts that failed the version check. Disjoint keys make
    /// every failure a would-be lost update, so this doubles as an
    /// early-warning anomaly counter (the model check is the verdict).
    pub cas_fail: u64,
    /// `WrongShard` redirects chased by clients.
    pub client_redirects: u64,
    /// Server-side redirect count (summed node reports).
    pub wrong_shard_redirects: u64,
    /// Writes parked by the freeze window (summed node reports).
    pub migration_ops_deferred: u64,
    /// The coordinator's own accounting.
    pub migration: MigrationReport,
    /// Wall-clock the migration took, faults and retries included.
    pub migration_wall: Duration,
    /// Acknowledged-op throughput before / during / after the
    /// migration window, in ops per second.
    pub rate_before: f64,
    /// See `rate_before`.
    pub rate_during: f64,
    /// See `rate_before`.
    pub rate_after: f64,
    /// `100 * (1 - during/before)`, floored at zero — the headline
    /// "cost of staying up" number.
    pub dip_pct: f64,
    /// Retired store nodes reclaimed at the post-run quiesce point.
    pub purged: u64,
    /// Every key in every store is owned by that store under the
    /// final map, and nothing resurfaced or went missing.
    pub converged: bool,
    /// Modelled acknowledged writes missing or wrong at the final
    /// owner. The invariant the whole protocol exists for: **zero**.
    pub lost_acked_writes: u64,
}

/// One worker's private oracle: what the service acknowledged.
type Model = BTreeMap<u64, (u64, Vec<u8>)>;

/// Drives `spec.workers` closed-loop clients while a live resharding
/// runs underneath them, then audits the fleet against the workers'
/// ack models. See the module docs for the full shape.
///
/// # Panics
///
/// Panics on an inconsistent spec, on any wire-protocol error, or if
/// a worker observes an impossible acknowledgement.
pub fn run_reshard<R: RawLock + Default>(spec: &ReshardWorkloadSpec) -> ReshardReport {
    let fleet = spec.shards_before.max(spec.reshard.shards_after);
    assert!(spec.shards_before > 0 && spec.workers > 0 && spec.keys_per_worker > 0);
    assert!(
        spec.start_after_ops < spec.workers as u64 * spec.ops_per_worker,
        "the migration must start while traffic still flows"
    );
    let map = ShardMap::new(spec.shards_before);
    let stores: Vec<KvStore<R>> = (0..fleet).map(|_| KvStore::new(1 << 10, 16)).collect();
    // Worst case every op is a write landing in one shard's log.
    let log_cap = (spec.workers as u64 * spec.ops_per_worker + 1) as usize;
    let logs: Vec<OpLog> = (0..fleet).map(|_| OpLog::new(log_cap)).collect();
    // Workers plus one control connection: the control client keeps
    // the nodes alive until the coordinator is done, however early
    // the workers drain their op budgets.
    let (endpoints, mut conns, mig) = cluster_mesh(fleet, spec.workers + 1, 64, 256);
    let control_conn = conns.pop().expect("control connection");
    let issued = AtomicU64::new(0);

    let mut models: Vec<(Model, WorkerTally)> = Vec::with_capacity(spec.workers);
    let mut migration = MigrationReport::default();
    let mut migration_wall = Duration::ZERO;
    let mut rates = (0f64, 0f64, 0f64);
    let start = Instant::now();
    let nodes: Vec<NodeReport> = std::thread::scope(|s| {
        let nodes: Vec<_> = endpoints
            .into_iter()
            .enumerate()
            .map(|(shard, endpoint)| {
                let (store, log, map) = (&stores[shard], &logs[shard], &map);
                s.spawn(move || serve_cluster_node(shard, store, log, map, endpoint))
            })
            .collect();
        let workers: Vec<_> = conns
            .drain(..)
            .enumerate()
            .map(|(worker, conn)| {
                let (map, issued) = (&map, &issued);
                s.spawn(move || {
                    let client = ClusterClient::new(map, conn);
                    let out = drive_worker(&client, spec, worker as u64, issued);
                    let redirects = client.redirects();
                    client.close();
                    (out.0, out.1, redirects)
                })
            })
            .collect();
        // The coordinator: wait for the warm-up, migrate, time it.
        let coordinator = s.spawn(|| {
            while issued.load(Ordering::Relaxed) < spec.start_after_ops {
                std::thread::yield_now();
            }
            let store_refs: Vec<&KvStore<R>> = stores.iter().collect();
            let log_refs: Vec<&OpLog> = logs.iter().collect();
            let t0 = Instant::now();
            let ops0 = issued.load(Ordering::Relaxed);
            let report = run_reshard_coordinator(&map, &store_refs, &log_refs, &mig, &spec.reshard);
            let wall = t0.elapsed();
            let ops1 = issued.load(Ordering::Relaxed);
            (report, wall, t0, ops0, ops1)
        });
        for handle in workers {
            let (model, tally, redirects) = handle.join().expect("worker panicked");
            let mut tally = tally;
            tally.redirects = redirects;
            models.push((model, tally));
        }
        let drained = Instant::now();
        let total = issued.load(Ordering::Relaxed);
        let (report, wall, t0, ops0, ops1) = coordinator.join().expect("coordinator panicked");
        migration = report;
        migration_wall = wall;
        let before = t0.duration_since(start).as_secs_f64();
        let after = drained
            .checked_duration_since(t0 + wall)
            .unwrap_or(Duration::ZERO)
            .as_secs_f64();
        rates = (
            if before > 0.0 {
                ops0 as f64 / before
            } else {
                0.0
            },
            (ops1 - ops0) as f64 / wall.as_secs_f64().max(1e-9),
            if after > 0.0 {
                (total - ops1) as f64 / after
            } else {
                0.0
            },
        );
        // Let the nodes exit now that the migration has published.
        ClusterClient::new(&map, control_conn).close();
        nodes
            .into_iter()
            .map(|node| node.join().expect("node panicked"))
            .collect()
    });

    // The post-migration quiesce point: retired nodes (moved keys
    // deleted at their sources, plus normal churn) reclaim here.
    let mut stores = stores;
    let purged: u64 = stores.iter_mut().map(|s| s.purge_retired() as u64).sum();

    // Audit. Direction one: nothing sits at a shard that does not own
    // it. Direction two: every acknowledged write is at its owner,
    // byte- and version-exact, and deletes stayed deleted.
    let mut converged = true;
    let mut lost = 0u64;
    let final_map = map.snapshot();
    for (shard, store) in stores.iter().enumerate() {
        for (key, version, value) in store.dump() {
            let k = u64::from_be_bytes(key.as_ref().try_into().expect("8-byte keys"));
            if final_map.owner_of_key(k) != shard {
                converged = false;
                continue;
            }
            let (model, _) = &models[(k % spec.workers as u64) as usize];
            match model.get(&k) {
                Some(&(mv, ref mval)) if mv == version && *mval == value.as_ref() => {}
                Some(_) => lost += 1,
                // Present at the owner but deleted (or never written)
                // in the model: a resurrected delete.
                None => lost += 1,
            }
        }
    }
    for (model, _) in &models {
        for (&key, &(version, ref value)) in model.iter() {
            let owner = final_map.owner_of_key(key);
            match stores[owner].get_with_version(&ssync_srv::router::key_bytes(key)) {
                Some((v, ref got)) if v == version && got.as_ref() == value.as_slice() => {}
                _ => lost += 1,
            }
        }
    }
    converged &= lost == 0;

    let mut report = ReshardReport {
        issued: issued.load(Ordering::Relaxed),
        ops: [0; 4],
        hits: 0,
        misses: 0,
        cas_fail: 0,
        client_redirects: 0,
        wrong_shard_redirects: 0,
        migration_ops_deferred: 0,
        migration,
        migration_wall,
        rate_before: rates.0,
        rate_during: rates.1,
        rate_after: rates.2,
        dip_pct: if rates.0 > 0.0 {
            (100.0 * (1.0 - rates.1 / rates.0)).max(0.0)
        } else {
            0.0
        },
        purged,
        converged,
        lost_acked_writes: lost,
    };
    for (_, tally) in &models {
        report.ops[0] += tally.gets;
        report.ops[1] += tally.sets;
        report.ops[2] += tally.cas;
        report.ops[3] += tally.deletes;
        report.hits += tally.hits;
        report.misses += tally.misses;
        report.cas_fail += tally.cas_fail;
        report.client_redirects += tally.redirects;
    }
    for node in &nodes {
        report.wrong_shard_redirects += node.wrong_shard_redirects;
        report.migration_ops_deferred += node.migration_ops_deferred;
    }
    report
}

#[derive(Debug, Default, Clone, Copy)]
struct WorkerTally {
    gets: u64,
    sets: u64,
    cas: u64,
    deletes: u64,
    hits: u64,
    misses: u64,
    cas_fail: u64,
    redirects: u64,
}

/// One worker's closed loop: seeded mixed ops over its own key
/// residue, model updated on every acknowledgement.
fn drive_worker(
    client: &ClusterClient<'_>,
    spec: &ReshardWorkloadSpec,
    worker: u64,
    issued: &AtomicU64,
) -> (Model, WorkerTally) {
    let mut rng = SmallRng::seed_from_u64(spec.seed ^ ssync_core::mix64(worker + 1));
    let mut model = Model::new();
    let mut tally = WorkerTally::default();
    let stride = spec.workers as u64;
    for _ in 0..spec.ops_per_worker {
        let key = rng.gen_range(0..spec.keys_per_worker) * stride + worker;
        // 25% get, 45% set, 20% cas, 10% delete — write-heavy on
        // purpose: writes are what a migration can lose.
        let roll = rng.gen_range(0..100u32);
        if roll < 25 {
            tally.gets += 1;
            match client.get(key).expect("get") {
                Some(_) => tally.hits += 1,
                None => tally.misses += 1,
            }
        } else if roll < 70 {
            tally.sets += 1;
            let value = vec![rng.gen::<u8>(); spec.value_len.max(1)];
            let version = client.set(key, value.clone()).expect("set");
            model.insert(key, (version, value));
        } else if roll < 90 {
            // CAS from the model's acked version: on disjoint keys it
            // can only fail if an acked write went missing.
            tally.cas += 1;
            let value = vec![rng.gen::<u8>(); spec.value_len.max(1)];
            match model.get(&key).map(|&(v, _)| v) {
                Some(expected) => match client.cas(key, value.clone(), expected).expect("cas") {
                    Ok(version) => {
                        model.insert(key, (version, value));
                    }
                    Err(_) => tally.cas_fail += 1,
                },
                None => {
                    let version = client.set(key, value.clone()).expect("set");
                    model.insert(key, (version, value));
                }
            }
        } else {
            tally.deletes += 1;
            client.delete(key).expect("delete");
            model.remove(&key);
        }
        issued.fetch_add(1, Ordering::Relaxed);
    }
    (model, tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssync_locks::TicketLock;
    use ssync_repl::FaultSpec;

    fn smoke_spec() -> ReshardWorkloadSpec {
        ReshardWorkloadSpec {
            shards_before: 2,
            workers: 2,
            keys_per_worker: 96,
            ops_per_worker: 1200,
            value_len: 12,
            start_after_ops: 300,
            reshard: ReshardSpec::clean(4),
            seed: 0x0DD_B10B,
        }
    }

    #[test]
    fn live_split_loses_nothing() {
        let report = run_reshard::<TicketLock>(&smoke_spec());
        assert_eq!(report.issued, 2400);
        assert_eq!(report.ops.iter().sum::<u64>(), 2400);
        assert!(report.converged, "fleet must converge: {report:?}");
        assert_eq!(report.lost_acked_writes, 0);
        assert_eq!(report.cas_fail, 0, "disjoint-key CAS can only lose");
        assert_eq!(report.migration.final_epoch, 2);
        assert!(report.migration.entries_migrated > 0);
    }

    #[test]
    fn live_split_survives_seeded_faults() {
        let mut spec = smoke_spec();
        spec.reshard = ReshardSpec {
            faults: FaultSpec {
                seed: 0xFEED,
                faults_per_replica: 0,
                max_window: 0,
                spacing: 32,
                primary_crashes: 0,
            },
            source_crashes: 1,
            coordinator_crashes: 1,
            ..ReshardSpec::clean(4)
        };
        let report = run_reshard::<TicketLock>(&spec);
        assert!(report.converged, "faulted run must converge: {report:?}");
        assert_eq!(report.lost_acked_writes, 0);
        assert_eq!(report.migration.coordinator_restarts, 1);
        assert_eq!(report.migration.attempts, 2);
    }
}
