//! The reshard-under-traffic driver.
//!
//! [`run_reshard`] builds a fleet sized for the *post*-split shard
//! count, routes it through a [`ShardMap`] that initially only uses
//! the first `shards_before` shards, and drives closed-loop client
//! workers against it — the `ssync-srv` engine's [`fan_out_beside`],
//! reporting its one [`Tally`] — while a coordinator reshards the fleet
//! live — the protocol [`run_reshard_coordinator`] runs, with the
//! spec's seeded faults — once enough traffic has flowed. The nodes and
//! the coordinator are the actors of one [`run`].
//!
//! Workers own disjoint key residues (worker `w` touches only keys
//! `≡ w (mod workers)`), so each can keep a private `BTreeMap` model
//! of every write the service acknowledged to it. That model is the
//! oracle for the experiment's headline claim: after the dust settles,
//! every modelled `(key, version, value)` is present, byte- and
//! version-exact, at the shard the final map assigns it — **zero lost
//! acknowledged writes** — and no deleted key has resurfaced. It is
//! also why the per-op body is this module's own, not the engine's:
//! a CAS here takes its expected version from the model, so a CAS that
//! fails is a write the service lost. The driver also reports the
//! redirect and deferral counters the protocol's unavailability story
//! predicts; what the migration costs in throughput is `benchmark/`'s
//! to measure (`cluster.dip_pct`).
//!
//! Mid-flight reads are tallied but *not* asserted against the model:
//! during the cutover's propagation window a read may be served by the
//! outgoing owner (the same bounded staleness `ssync-repl` accepts
//! from async replicas). Writes never get that latitude — the
//! freeze-fence argument in [`crate::service`] — which is exactly the
//! asymmetry the final convergence check makes observable.

use core::future::Future;
use core::pin::{pin, Pin};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ssync_kv::KvStore;
use ssync_locks::RawLock;
use ssync_mp::RingSender;
use ssync_repl::OpLog;
use ssync_srv::step::until;
use ssync_srv::workload::{fan_out_beside, Tally};
use ssync_srv::{run, KvClient, Step};

use crate::map::ShardMap;
#[cfg(doc)]
use crate::migrate::run_reshard_coordinator;
use crate::migrate::{coordinate, MigrationReport, ReshardSpec};
use crate::service::{cluster_mesh, ClusterClient, ClusterNode, NodeReport};
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
    /// Acknowledged client operations. Disjoint keys make every
    /// `cas_fail` a would-be lost update, so it doubles as an
    /// early-warning anomaly counter (the model check is the verdict).
    pub tally: Tally,
    /// `WrongShard` redirects chased by clients.
    pub client_redirects: u64,
    /// Server-side redirect count (summed node reports).
    pub wrong_shard_redirects: u64,
    /// Writes parked by the freeze window (summed node reports).
    pub migration_ops_deferred: u64,
    /// The coordinator's own accounting.
    pub migration: MigrationReport,
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
/// a worker observes an impossible acknowledgement — a worker's panic,
/// or a node's or the coordinator's first, is re-raised once every
/// thread has finished, never a hang.
pub fn run_reshard<R: RawLock + Default>(spec: &ReshardWorkloadSpec) -> ReshardReport {
    let (reshard, moved) = (spec.reshard, Default::default());
    reshard_with::<R>(spec, |map, stores, logs, mig| {
        Box::pin(coordinate(map, stores, logs, mig, reshard, moved))
    })
}

/// A migration, as `reshard_with` starts it.
type Migration<'a> = Pin<Box<dyn Future<Output = MigrationReport> + Send + 'a>>;

/// [`run_reshard`], the migration being the one `migrate` starts over
/// the fleet's map, stores, op-logs and migration rings.
fn reshard_with<R: RawLock + Default>(
    spec: &ReshardWorkloadSpec,
    migrate: impl for<'a> FnOnce(
            &'a ShardMap,
            &'a [&'a KvStore<R>],
            &'a [&'a OpLog],
            &'a [RingSender],
        ) -> Migration<'a>
        + Send,
) -> ReshardReport {
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
    // Workers plus one control connection: the coordinator holds it,
    // keeping the nodes alive until it is done, however early the
    // workers drain their op budgets.
    let (endpoints, mut conns, mig) = cluster_mesh(fleet, spec.workers + 1, 64, 256);
    let control_conn = conns.pop().expect("control connection");
    let issued = AtomicU64::new(0);
    // Workers that have returned or unwound. Each counts itself out
    // with a Release increment after its last `issued` one, so a
    // coordinator whose Acquire load sees every worker gone also sees
    // the final `issued`.
    let departed = AtomicU64::new(0);

    let node = |(shard, endpoint)| {
        let (core, node) = ClusterNode::new(shard, &stores[shard], &logs[shard], &map, endpoint);
        (core, &stores[shard], node)
    };
    let nodes: Vec<_> = endpoints.into_iter().enumerate().map(node).collect();
    let (store_refs, log_refs): (Vec<_>, Vec<_>) = stores.iter().zip(&logs).unzip();
    // The nodes and the coordinator live on the thread that runs them.
    let serve = || {
        let (mut nodes, mut coordinated) = (nodes, None);
        {
            // The coordinator: wait for the warm-up, migrate, and let
            // the nodes exit. Workers all gone before the warm-up means
            // one panicked: there is nothing to migrate under.
            let mut coordinator = pin!(async {
                until(|| {
                    let warmed = issued.load(Ordering::Relaxed) >= spec.start_after_ops;
                    let gone = departed.load(Ordering::Acquire) >= spec.workers as u64;
                    (warmed || gone).then_some(())
                })
                .await;
                if issued.load(Ordering::Relaxed) >= spec.start_after_ops {
                    coordinated = Some(migrate(&map, &store_refs, &log_refs, &mig).await);
                }
                // Nothing went out on this connection before: its
                // `Stop` finds room at once.
                ClusterClient::new(&map, control_conn).close();
            });
            let mut actors: Vec<&mut (dyn Step + Send)> = vec![&mut coordinator];
            actors.extend(nodes.iter_mut().map(|node| node as &mut (dyn Step + Send)));
            run(&mut actors);
        }
        let report = |(core, _, node): &(_, _, ClusterNode<'_, R>)| node.report(core);
        let nodes: Vec<NodeReport> = nodes.iter().map(report).collect();
        (nodes, coordinated)
    };
    let ((nodes, coordinated), (tally, outs)) = fan_out_beside(serve, conns, |worker, conn| {
        let client = ClusterClient::new(&map, conn);
        // A panicking worker still stops its client, so the nodes exit
        // on a `Stop` rather than on noticing a departure, and still
        // counts itself out, so the coordinator cannot wait on it
        // forever.
        let run = catch_unwind(AssertUnwindSafe(|| {
            drive_worker(&client, spec, worker as u64, &issued)
        }));
        let redirects = client.redirects();
        client.close();
        departed.fetch_add(1, Ordering::Release);
        let (model, tally) = run.unwrap_or_else(|panic| resume_unwind(panic));
        (tally, (model, redirects))
    });
    let migration = coordinated.expect("the warm-up ends before the workers do");

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
            let (model, _) = &outs[(k % spec.workers as u64) as usize];
            match model.get(&k) {
                Some(&(mv, ref mval)) if mv == version && *mval == value.as_ref() => {}
                Some(_) => lost += 1,
                // Present at the owner but deleted (or never written)
                // in the model: a resurrected delete.
                None => lost += 1,
            }
        }
    }
    for (model, _) in &outs {
        for (&key, &(version, ref value)) in model.iter() {
            let owner = final_map.owner_of_key(key);
            match stores[owner].get_with_version(&ssync_srv::router::key_bytes(key)) {
                Some((v, ref got)) if v == version && got.as_ref() == value.as_slice() => {}
                _ => lost += 1,
            }
        }
    }
    converged &= lost == 0;

    ReshardReport {
        tally,
        client_redirects: outs.iter().map(|(_, redirects)| redirects).sum(),
        wrong_shard_redirects: nodes.iter().map(|n| n.wrong_shard_redirects).sum(),
        migration_ops_deferred: nodes.iter().map(|n| n.migration_ops_deferred).sum(),
        migration,
        converged,
        lost_acked_writes: lost,
    }
}

/// One worker's closed loop: seeded mixed ops over its own key
/// residue, model updated on every acknowledgement.
fn drive_worker(
    client: &ClusterClient<'_>,
    spec: &ReshardWorkloadSpec,
    worker: u64,
    issued: &AtomicU64,
) -> (Model, Tally) {
    let mut rng = SmallRng::seed_from_u64(spec.seed ^ ssync_core::mix64(worker + 1));
    let mut model = Model::new();
    let mut tally = Tally::default();
    let stride = spec.workers as u64;
    for _ in 0..spec.ops_per_worker {
        let key = rng.gen_range(0..spec.keys_per_worker) * stride + worker;
        // 25% get, 45% set, 20% cas, 10% delete — write-heavy on
        // purpose: writes are what a migration can lose.
        let roll = rng.gen_range(0..100u32);
        if roll < 25 {
            tally.issued.gets += 1;
            match client.get(key).expect("get") {
                Some(_) => tally.hits += 1,
                None => tally.misses += 1,
            }
        } else if roll < 70 {
            tally.issued.sets += 1;
            let value = vec![rng.gen::<u8>(); spec.value_len.max(1)];
            let version = client.set(key, value.clone()).expect("set");
            model.insert(key, (version, value));
        } else if roll < 90 {
            // CAS from the model's acked version: on disjoint keys it
            // can only fail if an acked write went missing.
            tally.issued.cas += 1;
            let value = vec![rng.gen::<u8>(); spec.value_len.max(1)];
            match model.get(&key).map(|&(v, _)| v) {
                Some(expected) => match client.cas(key, value.clone(), expected).expect("cas") {
                    Ok(version) => {
                        tally.cas_ok += 1;
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
            tally.issued.deletes += 1;
            if client.delete(key).expect("delete").is_some() {
                tally.deleted += 1;
            }
            model.remove(&key);
        }
        issued.fetch_add(1, Ordering::Relaxed);
    }
    (model, tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::atomic::AtomicBool;
    use core::task::{Context, Waker};
    use ssync_locks::TicketLock;
    use ssync_repl::FaultSpec;
    use std::sync::Arc;
    use std::time::Duration;

    /// Runs `body` on a thread of its own and returns its result,
    /// failing the test once `secs` pass first.
    fn within<T: Send + 'static>(secs: u64, body: impl FnOnce() -> T + Send + 'static) -> T {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || done_tx.send(body()));
        done_rx
            .recv_timeout(Duration::from_secs(secs))
            .expect("the body did not finish by its deadline")
    }

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
        assert_eq!(report.tally.issued.total(), 2400);
        assert!(report.converged, "fleet must converge: {report:?}");
        assert_eq!(report.lost_acked_writes, 0);
        assert_eq!(report.tally.cas_fail, 0, "disjoint-key CAS can only lose");
        assert_eq!(report.migration.final_epoch, 2);
        assert!(report.migration.entries_migrated > 0);
    }

    /// A 2 → 4 split with one migration-stream crash per source and one
    /// coordinator crash, on the smoke shape and on a larger one — 2
    /// workers × 5 000 ops over 2 048 keys each, 32 B values, the split
    /// a quarter of the way in — whose accounting is plan-driven and so
    /// replays under live traffic: the restarts, and one stale-map
    /// redirect per worker at the cutover.
    #[test]
    fn live_split_survives_seeded_faults() {
        let faulted = |seed, spacing| ReshardSpec {
            faults: FaultSpec {
                seed,
                faults_per_replica: 0,
                max_window: 0,
                spacing,
                primary_crashes: 0,
            },
            source_crashes: 1,
            coordinator_crashes: 1,
            ..ReshardSpec::clean(4)
        };
        let smoke = ReshardWorkloadSpec {
            reshard: faulted(0xFEED, 32),
            ..smoke_spec()
        };
        let report = run_reshard::<TicketLock>(&smoke);
        assert!(report.converged, "faulted run must converge: {report:?}");
        assert_eq!(report.lost_acked_writes, 0);
        assert_eq!(report.migration.coordinator_restarts, 1);
        assert_eq!(report.migration.attempts, 2);

        let larger = ReshardWorkloadSpec {
            shards_before: 2,
            workers: 2,
            keys_per_worker: 2_048,
            ops_per_worker: 5_000,
            value_len: 32,
            start_after_ops: 2_500,
            reshard: faulted(0x4E_5A2D, 48),
            seed: 0x0DD_B10B,
        };
        let report = run_reshard::<TicketLock>(&larger);
        assert!(report.converged, "faulted run must converge: {report:?}");
        assert_eq!(report.lost_acked_writes, 0);
        assert_eq!(report.tally.issued.total(), 10_000);
        let m = &report.migration;
        assert_eq!(m.final_epoch, 2);
        assert_eq!(
            (m.attempts, m.coordinator_restarts, m.copy_restarts),
            (2, 1, 2)
        );
        assert_eq!(report.client_redirects, 2);
        assert_eq!(report.wrong_shard_redirects, 2);
    }

    /// Regression: a coordinator that panicked mid-split hung the run.
    /// Its worker unwound, but the nodes stayed alive and unmoved — owned
    /// outside the driver, as was the control connection the panicked
    /// coordinator held — so the clients waited on them forever. Now
    /// the panic ends the whole group, the runner's unwind drops every
    /// node, the clients read them gone, and the run fails with the
    /// coordinator's panic. CI runs it on one CPU too, where every
    /// actor shares one worker.
    #[test]
    fn a_coordinator_panic_mid_split_fails_the_run_with_that_panic() {
        let spec = smoke_spec();
        let raised = within(60, move || {
            let run = catch_unwind(AssertUnwindSafe(|| {
                reshard_with::<TicketLock>(&spec, |map, stores, logs, mig| {
                    Box::pin(async move {
                        let moved = Arc::new(AtomicBool::new(false));
                        let split = coordinate(map, stores, logs, mig, spec.reshard, moved.clone());
                        let mut split = Box::pin(split);
                        // To the first copy page's end, then the panic.
                        until(|| {
                            let _ = (split.as_mut()).poll(&mut Context::from_waker(Waker::noop()));
                            moved.load(Ordering::Relaxed).then_some(())
                        })
                        .await;
                        panic!("the coordinator panics mid-split");
                    })
                })
            }));
            run.expect_err("a run whose coordinator panicked returned a report")
        });
        let message = raised.downcast_ref::<&str>().copied();
        assert_eq!(message, Some("the coordinator panics mid-split"));
    }

    #[test]
    fn a_worker_panic_fails_the_run_instead_of_hanging_it() {
        // Regression: the coordinator's warm-up wait watched only the
        // issued count, so a worker that panicked before the warm-up
        // left it spinning, and the scope — which joins every thread
        // before it re-raises — hung with it. A value the wire cannot
        // carry makes the first `set` return `ValueTooLong`, and its
        // worker panics. Detached and under a deadline, so a hang fails
        // here instead of hanging the suite.
        let spec = ReshardWorkloadSpec {
            value_len: ssync_srv::wire::MAX_VALUE_LEN + 1,
            ..smoke_spec()
        };
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let run = std::panic::catch_unwind(|| run_reshard::<TicketLock>(&spec));
            done_tx.send(run.is_err())
        });
        let panicked = done_rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("a panicked worker hung the run");
        assert!(panicked, "a run whose worker panicked returned a report");
    }
}
