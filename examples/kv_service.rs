//! The sharded KV service end to end: per-shard server threads over
//! `ssync-mp` rings, shard routing over `ssync-kv` stores, and the
//! deterministic workload engine driving it — the serving layer the
//! paper's Section 6.4 Memcached experiment points toward.
//!
//! Run with: `cargo run --release --example kv_service`

use ssync::locks::{McsLock, TicketLock};
use ssync::srv::router::ShardRouter;
use ssync::srv::service::{ring_mesh, serve, KvClient};
use ssync::srv::workload::{run_load, KeyDist, Mix, ValueSize, WorkloadSpec};

fn bench<R: ssync::locks::RawLock + Default>(name: &str, mix: Mix) {
    let router: ShardRouter<R> = ShardRouter::new(4, 256, 16);
    let workload = WorkloadSpec {
        keys: 1024,
        dist: KeyDist::Zipfian { theta: 0.99 },
        mix,
        vsize: ValueSize::Uniform { min: 16, max: 64 },
        batch: 1,
        seed: 7,
    };
    // The closed loop: each worker waits for every reply before it
    // issues its next op.
    let workers = ssync::core::cores::test_threads(4);
    let report = run_load(&router, &workload, workers, 2_000);
    println!(
        "{name:>8} {:>7}: {:>8.0} ops/s, hit rate {:>5.1}%, {} maintenance passes",
        mix.name,
        report.tally.ops_per_sec(report.wall),
        report.tally.hit_rate() * 100.0,
        report.store.maintenance_runs
    );
}

fn main() {
    // Manual requests first: one client, two shards, TICKET locks.
    let router: ShardRouter<TicketLock> = ShardRouter::new(2, 64, 8);
    let (endpoints, mut clients) = ring_mesh(router.num_shards(), 1, 8);
    std::thread::scope(|s| {
        for (shard, endpoint) in endpoints.into_iter().enumerate() {
            let store = router.shard(shard);
            s.spawn(move || serve(store, endpoint));
        }
        let client = clients.pop().unwrap();
        let v1 = client
            .set(1, b"profile:alice".to_vec())
            .expect("wire error");
        println!("set key 1 at version {v1}");
        let (_, value) = client.get(1).expect("wire error").unwrap();
        println!("get key 1 -> {:?}", String::from_utf8_lossy(&value));
        match client
            .cas(1, b"profile:alice-v2".to_vec(), v1)
            .expect("wire error")
        {
            Ok(v2) => println!("cas won: version {v1} -> {v2}"),
            Err(v) => println!("cas lost to version {v}"),
        }
        let results = client.get_many(&[1, 2, 3]).expect("wire error");
        println!(
            "multi-get [1,2,3] -> {} hit(s), {} miss(es)",
            results.iter().filter(|r| r.is_some()).count(),
            results.iter().filter(|r| r.is_none()).count()
        );
        client.close();
    });

    // Then the workload engine over two lock algorithms: the rings
    // amortize scheduler handoffs over a reply's frames, and the stores
    // answer reads optimistically, falling back to the stripe lock.
    println!("\nclosed-loop YCSB over 4 shards, zipf 0.99:");
    bench::<TicketLock>("TICKET", Mix::YCSB_B);
    bench::<TicketLock>("TICKET", Mix::YCSB_A);
    bench::<McsLock>("MCS", Mix::YCSB_B);
}
