//! Concurrent-structure operation costs: the hash table (Figure 11's
//! subject), the KV store (Figure 12's), and STM transactions.

use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ssync_ht::HashTable;
use ssync_kv::KvStore;
use ssync_locks::{TasLock, TicketLock};
use ssync_srv::router::key_bytes;
use ssync_tm::shared::TmHeap;

fn bench_hash_table(c: &mut Criterion) {
    let ht: HashTable<TicketLock> = HashTable::new(512);
    for k in 0..10_000 {
        ht.put(k, k);
    }
    let mut group = c.benchmark_group("ssht");
    group.bench_function("get_hit", |b| {
        let mut k = 0;
        b.iter(|| {
            k = (k + 7) % 10_000;
            black_box(ht.get(k))
        })
    });
    group.bench_function("get_miss", |b| b.iter(|| black_box(ht.get(99_999_999))));
    group.bench_function("put_update", |b| b.iter(|| ht.put(42, 43)));
    group.bench_function("remove_insert", |b| {
        b.iter(|| {
            ht.remove(7);
            ht.put(7, 7)
        })
    });
    group.finish();
}

fn bench_kv(c: &mut Criterion) {
    let kv: KvStore<TicketLock> = KvStore::new(1024, 64);
    kv.set(b"hot", b"value".as_slice());
    let mut group = c.benchmark_group("kv");
    group.bench_function("get_hit", |b| b.iter(|| black_box(kv.get(b"hot"))));
    group.bench_function("set", |b| b.iter(|| kv.set(b"hot", b"value2".as_slice())));
    group.finish();
}

/// Writes to a full store at `benchmark/`'s `srv_write` geometry: 65 536
/// dense 8-byte keys, one bucket per key plus one, 16 stripes, 128–1 024
/// B values built once as `Bytes`, each case rotating over the whole
/// keyspace. Every write replaces (or, for `delete_reinsert`, unlinks
/// and relinks) one node, and every 64th write runs the store's
/// maintenance pass — which the one-key `kv` group above, in a 1 024-
/// bucket store, cannot show at this scale. The single-thread reading
/// of the `kv.set_ns`, `kv.cas_ns` and `kv.delete_ns` rungs.
/// `set_resize` gives each write a value size other than the key's last
/// one, so the live items drift between size classes and parked blocks
/// move between stripes through the store's depot; in the other cases
/// every key keeps one class.
fn bench_kv_full_store(c: &mut Criterion) {
    const KEYS: u64 = 65_536;
    let values: Vec<Bytes> = (0..64usize)
        .map(|i| Bytes::from(vec![i as u8; 128 + i * 896 / 63]))
        .collect();
    let value = |k: u64| values[k as usize % values.len()].clone();
    let full_store = || {
        let kv: KvStore<TicketLock> = KvStore::new(KEYS as usize + 1, 16);
        let versions: Vec<u64> = (0..KEYS).map(|k| kv.set(&key_bytes(k), value(k))).collect();
        (kv, versions)
    };
    let mut group = c.benchmark_group("kv_full_store");
    let mut k = 0;
    let mut next = || {
        k = (k + 1) % KEYS;
        k
    };
    let (kv, _) = full_store();
    group.bench_function("set", |b| {
        b.iter(|| {
            let k = next();
            kv.set(&key_bytes(k), value(k))
        })
    });
    let (kv, mut versions) = full_store();
    group.bench_function("cas", |b| {
        b.iter(|| {
            let k = next();
            let version = &mut versions[k as usize];
            *version = kv.cas(&key_bytes(k), value(k), *version).expect("matched");
            *version
        })
    });
    let (kv, _) = full_store();
    let mut sizes: Vec<usize> = (0..KEYS as usize).map(|k| k % values.len()).collect();
    let mut draw = 0x9E37_79B9_7F4A_7C15u64;
    group.bench_function("set_resize", |b| {
        b.iter(|| {
            let k = next();
            draw = draw
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let size = &mut sizes[k as usize];
            *size = (*size + 1 + (draw >> 33) as usize % (values.len() - 1)) % values.len();
            kv.set(&key_bytes(k), values[*size].clone())
        })
    });
    let (kv, _) = full_store();
    group.bench_function("delete_reinsert", |b| {
        b.iter(|| {
            let k = next();
            kv.delete_versioned(&key_bytes(k)).expect("present");
            kv.set(&key_bytes(k), value(k))
        })
    });
    group.finish();
}

fn bench_stm(c: &mut Criterion) {
    let heap: TmHeap<TasLock> = TmHeap::new(64);
    let mut group = c.benchmark_group("stm");
    group.bench_function("read_only_tx", |b| b.iter(|| heap.run(|tx| tx.read(5))));
    group.bench_function("read_write_tx", |b| {
        b.iter(|| {
            heap.run(|tx| {
                let v = tx.read(5)?;
                tx.write(5, v + 1)?;
                Ok(())
            })
        })
    });
    group.bench_function("transfer_tx", |b| {
        b.iter(|| {
            heap.run(|tx| {
                let a = tx.read(8)?;
                let bv = tx.read(16)?;
                tx.write(8, a.wrapping_sub(1))?;
                tx.write(16, bv.wrapping_add(1))?;
                Ok(())
            })
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(700));
    targets = bench_hash_table, bench_kv, bench_kv_full_store, bench_stm
}
criterion_main!(benches);
