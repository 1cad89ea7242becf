//! Live-migration convergence, framed like `repl_convergence.rs`:
//! arbitrary operation sequences split around a faulted 2 → 4
//! resharding, with the property that **the fleet's final contents
//! equal a sequential `BTreeMap` model exactly** — every acknowledged
//! write at its new owner with its version intact, every delete still
//! deleted — no matter how many times the copy stream or the
//! coordinator died along the way. A fixed-seed twin run is the
//! replay regression: the whole migration, faults included, is a
//! deterministic function of its seeds.

use std::collections::BTreeMap;

use proptest::prelude::*;

use ssync::cluster::{
    cluster_mesh, run_reshard_coordinator, serve_cluster_node, ClusterClient, MigrationReport,
    ReshardSpec, ShardMap,
};
use ssync::core::Fence;
use ssync::kv::KvStore;
use ssync::locks::TicketLock;
use ssync::repl::fault::FaultSpec;
use ssync::repl::OpLog;
use ssync::srv::{slot_of, KvClient};

/// The client's sequential oracle: key → (acked version, value).
type Model = BTreeMap<u64, (u64, Vec<u8>)>;

/// One scripted op: `(key, kind, payload_byte)` with kind 0 = get,
/// 1 = set, 2 = cas-from-model, 3 = delete.
type Op = (u64, u8, u8);

/// One shard's final contents: sorted `(key, version, value)` triples.
type Dump = Vec<(u64, u64, Vec<u8>)>;

/// Applies `ops` through the client, asserting every reply against
/// the model (single client, quiet fleet: replies are deterministic).
fn drive_model_ops(client: &ClusterClient<'_>, ops: &[Op], model: &mut Model) {
    for &(key, kind, byte) in ops {
        match kind % 4 {
            0 => {
                let got = client.get(key).expect("get");
                let want = model.get(&key).map(|&(v, ref val)| (v, val.clone()));
                assert_eq!(got, want, "read diverged from the model at key {key}");
            }
            1 => {
                let value = vec![byte; 8];
                let version = client.set(key, value.clone()).expect("set");
                model.insert(key, (version, value));
            }
            2 => {
                let value = vec![byte.wrapping_add(1); 8];
                match model.get(&key).map(|&(v, _)| v) {
                    Some(expected) => {
                        let version = client
                            .cas(key, value.clone(), expected)
                            .expect("cas")
                            .expect("model version is current, CAS must win");
                        model.insert(key, (version, value));
                    }
                    None => {
                        let version = client.set(key, value.clone()).expect("set");
                        model.insert(key, (version, value));
                    }
                }
            }
            _ => {
                let deleted = client.delete(key).expect("delete");
                assert_eq!(deleted.is_some(), model.remove(&key).is_some());
            }
        }
    }
}

/// Runs `ops[..split]`, reshards 2 → 4 under the seeded fault spec,
/// runs the rest, and returns the migration report plus the final
/// per-shard store dumps (sorted triples) and the model.
fn run_sequence(
    ops: &[Op],
    split: usize,
    fault_seed: u64,
    source_crashes: usize,
    coordinator_crashes: usize,
) -> (MigrationReport, Vec<Dump>, Model) {
    let map = ShardMap::new(2);
    let stores: Vec<KvStore<TicketLock>> = (0..4).map(|_| KvStore::new(64, 8)).collect();
    // One-entry logs: the client is quiet while the coordinator runs,
    // and nodes log only while a migration is armed — a node that
    // logged two steady-state writes would die on the overflow assert.
    let logs: Vec<OpLog> = (0..4).map(|_| OpLog::new(1)).collect();
    let (endpoints, mut conns, mig) = cluster_mesh(4, 1, 16, 64);
    let mut model = Model::new();
    let mut report = MigrationReport::default();
    std::thread::scope(|s| {
        for (shard, endpoint) in endpoints.into_iter().enumerate() {
            let (store, log, map) = (&stores[shard], &logs[shard], &map);
            s.spawn(move || serve_cluster_node(shard, store, log, map, endpoint));
        }
        let client = ClusterClient::new(&map, conns.pop().unwrap());
        drive_model_ops(&client, &ops[..split], &mut model);
        let store_refs: Vec<&KvStore<TicketLock>> = stores.iter().collect();
        let log_refs: Vec<&OpLog> = logs.iter().collect();
        let spec = ReshardSpec {
            faults: FaultSpec {
                seed: fault_seed,
                faults_per_replica: 0,
                max_window: 0,
                spacing: 12,
                primary_crashes: 0,
            },
            source_crashes,
            coordinator_crashes,
            chunk: 16,
            ..ReshardSpec::clean(4)
        };
        report = run_reshard_coordinator(&map, &store_refs, &log_refs, &mig, &spec);
        drive_model_ops(&client, &ops[split..], &mut model);
        client.close();
    });
    assert!(
        logs.iter().all(OpLog::is_empty),
        "a log outlived the migration that armed it"
    );
    let mut stores = stores;
    for store in stores.iter_mut() {
        store.purge_retired();
    }
    let dumps = stores
        .iter()
        .map(|store| {
            store
                .dump()
                .into_iter()
                .map(|(key, version, value)| {
                    let k = u64::from_be_bytes(key.as_ref().try_into().expect("8-byte keys"));
                    (k, version, value.as_ref().to_vec())
                })
                .collect()
        })
        .collect();
    (report, dumps, model)
}

proptest! {
    /// The tentpole property: arbitrary op sequences around a faulted
    /// 2 → 4 split leave the fleet *identical* to the sequential
    /// model — keys at their mod-4 owners, versions and bytes exact,
    /// nothing lost, nothing resurrected — and the coordinator's
    /// attempt accounting matches its crash schedule exactly.
    #[test]
    fn migration_preserves_model(
        ops in proptest::collection::vec((0u64..40, 0u8..4, any::<u8>()), 24..96),
        split_pct in 0usize..=100,
        fault_seed in any::<u64>(),
        source_crashes in 0usize..=2,
        coordinator_crashes in 0usize..=2,
    ) {
        let split = ops.len() * split_pct / 100;
        let (report, dumps, model) =
            run_sequence(&ops, split, fault_seed, source_crashes, coordinator_crashes);
        prop_assert_eq!(report.final_epoch, 2);
        prop_assert_eq!(report.attempts, coordinator_crashes as u64 + 1);
        prop_assert_eq!(report.coordinator_restarts, coordinator_crashes as u64);

        // Direction one: everything in the fleet is modelled and
        // placed at its owner.
        let mut fleet = BTreeMap::new();
        for (shard, dump) in dumps.iter().enumerate() {
            for (key, version, value) in dump {
                prop_assert!(
                    slot_of(*key) % 4 == shard,
                    "key {} left at a shard that no longer owns it",
                    key
                );
                fleet.insert(*key, (*version, value.clone()));
            }
        }
        // Direction two: the fleet *is* the model.
        prop_assert_eq!(&fleet, &model);
    }
}

/// The replay regression: with every seed pinned, two full runs —
/// traffic, stream crashes, coordinator crashes, cutover — produce
/// the same migration report and byte-identical final stores. (The
/// quiet-during-migration harness makes even the copy accounting
/// deterministic, so the reports must match field for field.)
#[test]
fn fixed_seed_faulted_split_replays_exactly() {
    let ops: Vec<Op> = (0..64)
        .map(|i| (i % 23, (i % 4) as u8, (i * 7 % 251) as u8))
        .collect();
    let run = || run_sequence(&ops, 48, 0x0DD_B10B, 2, 2);
    let (report_a, dumps_a, model_a) = run();
    let (report_b, dumps_b, model_b) = run();
    assert_eq!(report_a, report_b, "migration reports must replay exactly");
    assert_eq!(dumps_a, dumps_b, "final stores must replay exactly");
    assert_eq!(model_a, model_b);
    assert!(report_a.copy_restarts >= 1, "stream crashes must fire");
    assert_eq!(report_a.coordinator_restarts, 2);
    assert_eq!(report_a.attempts, 3);
}

/// The counters satellite, observed end-to-end: a stale client (map
/// snapshotted before the cutover) bounces once per moved key it
/// touches, and the nodes' own reports record the redirects.
#[test]
fn stale_client_counters_surface_through_stats() {
    let map = ShardMap::new(2);
    let stores: Vec<KvStore<TicketLock>> = (0..4).map(|_| KvStore::new(64, 8)).collect();
    let logs: Vec<OpLog> = (0..4).map(|_| OpLog::new(1 << 12)).collect();
    let (endpoints, mut conns, mig) = cluster_mesh(4, 2, 16, 64);
    let reports = std::thread::scope(|s| {
        let nodes: Vec<_> = endpoints
            .into_iter()
            .enumerate()
            .map(|(shard, endpoint)| {
                let (store, log, map) = (&stores[shard], &logs[shard], &map);
                s.spawn(move || serve_cluster_node(shard, store, log, map, endpoint))
            })
            .collect();
        let stale = ClusterClient::new(&map, conns.pop().unwrap());
        let client = ClusterClient::new(&map, conns.pop().unwrap());
        for key in 0..64u64 {
            client.set(key, vec![1; 4]).unwrap();
        }
        // `stale` snapshotted the 2-shard map; reshard to 4 under it.
        let store_refs: Vec<&KvStore<TicketLock>> = stores.iter().collect();
        let log_refs: Vec<&OpLog> = logs.iter().collect();
        run_reshard_coordinator(&map, &store_refs, &log_refs, &mig, &ReshardSpec::clean(4));
        assert_eq!(stale.cached_epoch(), Fence::FIRST);
        for key in 0..64u64 {
            assert_eq!(stale.get(key).unwrap().unwrap().1, vec![1; 4]);
        }
        assert!(stale.redirects() > 0, "a stale map must chase redirects");
        assert_eq!(stale.cached_epoch(), Fence::from_wire(2));
        stale.close();
        client.close();
        nodes
            .into_iter()
            .map(|node| node.join().unwrap())
            .collect::<Vec<_>>()
    });
    let bounced: u64 = reports.iter().map(|r| r.wrong_shard_redirects).sum();
    assert!(bounced > 0);
    // Moved keys really moved: the store that served key 0 before the
    // split no longer holds keys owned elsewhere.
    for (shard, store) in stores.iter().enumerate() {
        for (key, _, _) in store.dump() {
            let k = u64::from_be_bytes(key.as_ref().try_into().unwrap());
            assert_eq!(slot_of(k) % 4, shard);
        }
    }
}
