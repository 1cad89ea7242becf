//! A miniature Memcached session: the `ssync-kv` store under concurrent
//! writers, with lock-algorithm selection — the paper's Section 6.4
//! experiment as a library user would run it.
//!
//! Run with: `cargo run --example kv_server`

use ssync::kv::KvStore;
use ssync::locks::{McsLock, TicketLock};

fn drive<R: ssync::locks::RawLock + Default>(kv: &KvStore<R>, name: &str) {
    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        // Writers: the set-only test.
        for t in 0..3u32 {
            let kv = &kv;
            s.spawn(move || {
                for i in 0..2_000u32 {
                    let key = format!("user:{t}:{i}");
                    kv.set(key.as_bytes(), format!("profile-{i}").into_bytes());
                }
            });
        }
        // A reader mixing in gets.
        s.spawn(|| {
            for i in 0..2_000u32 {
                let key = format!("user:0:{i}");
                let _ = kv.get(key.as_bytes());
            }
        });
    });
    let elapsed = start.elapsed();
    let stats = kv.stats_snapshot();
    println!(
        "{name:>8}: {} items, {} sets, {} maintenance passes, {:?}",
        kv.len(),
        stats.sets,
        stats.maintenance_runs,
        elapsed
    );
}

fn main() {
    println!("memcached-model KV store, 3 writers + 1 reader, 6000 sets:");
    let ticket: KvStore<TicketLock> = KvStore::new(1024, 64);
    drive(&ticket, "TICKET");
    let mcs: KvStore<McsLock> = KvStore::new(1024, 64);
    drive(&mcs, "MCS");

    // The CAS (version) interface, as memcached's `cas` command.
    let kv: KvStore<TicketLock> = KvStore::new(64, 8);
    let v1 = kv.set(b"config", b"v1".as_slice());
    match kv.cas(b"config", b"v2".as_slice(), v1) {
        Ok(v2) => println!("cas ok: version {v1} -> {v2}"),
        Err(v) => println!("cas lost to version {v}"),
    }
    // A stale CAS is rejected.
    assert!(kv.cas(b"config", b"v3".as_slice(), v1).is_err());
    println!("stale cas correctly rejected");
}
