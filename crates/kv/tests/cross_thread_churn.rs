//! The cross-thread churn probe, as a gate: a store preloaded on one
//! thread and churned from another must not grow a second malloc arena
//! full of replacements, and churn from either thread must not grow
//! the store's parked blocks far past its items.
//!
//! glibc's malloc gives each thread an arena of its own, and a chunk
//! freed to malloc goes back to the arena it came from. Were a replaced
//! item's block freed to malloc, a writer thread's replacements would
//! fill its own arena while the preloading thread's freed chunks sat
//! idle. The store parks the block in its stripe instead, and the next
//! write of its class refills it, whichever thread makes it.
//!
//! Every write here draws a new value size, so the live items drift
//! between size classes. Were every (stripe, class) to keep its own
//! high-water mark of parked blocks, the same-thread churn alone would
//! grow RSS by ≈ 10 MiB; a stripe keeps a few blocks per class and the
//! store's depot pools the rest, which keeps it under
//! [`SAME_THREAD_MAX_MIB`].
//!
//! A third gate is the footprint of a preload at `srv_read`'s geometry:
//! an item's block, carved from the store's pages behind a 24-byte
//! header, must cost at most [`FOOTPRINT_MAX_BYTES_PER_KEY`].
//!
//! Ignored by default: they read the process's RSS, which tests running
//! beside them would disturb (so the two take turns), and the churn
//! writes ≈ 330 000 items. Run them release-built:
//! `cargo test --release -p ssync-kv --test cross_thread_churn -- --ignored`
#![cfg(target_os = "linux")]

use std::sync::{Mutex, MutexGuard};

use ssync_kv::KvStore;
use ssync_locks::TicketLock;

/// Keys in the store, at `benchmark/`'s `srv_write` geometry.
const KEYS: u64 = 65_536;
/// Times the churn replaces every key.
const ROUNDS: u64 = 4;
/// Writes between reclaim passes, as a serve loop's idle passes.
const PASS_EVERY: u64 = 1_024;
/// How far the second thread's growth may exceed the first's.
const SLACK_MIB: f64 = 4.0;
/// How far the churn from the preloading thread may grow RSS.
const SAME_THREAD_MAX_MIB: f64 = 6.0;

/// A value length in 128..=1024 B, fixed by the key and the round.
fn value_len(key: u64, round: u64) -> usize {
    let mut z = key.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(round);
    z = (z ^ (z >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    128 + (z >> 33) as usize % 897
}

fn write(kv: &KvStore<TicketLock>, key: u64, round: u64) {
    let bytes = [round as u8; 1024];
    kv.set(&key.to_be_bytes(), &bytes[..value_len(key, round)]);
}

/// The process's resident set, in MiB.
fn rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmRSS line in kB");
    kib / 1024.0
}

/// Held by each test for its whole run: an RSS reading must see no
/// other test's stores.
fn alone() -> MutexGuard<'static, ()> {
    static ALONE: Mutex<()> = Mutex::new(());
    ALONE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A store with every key written once, on the calling thread.
fn preload() -> KvStore<TicketLock> {
    let kv = KvStore::new(KEYS as usize + 1, 16);
    for key in 0..KEYS {
        write(&kv, key, 0);
    }
    kv
}

/// Replaces every key `ROUNDS` times, with a reclaim pass every
/// `PASS_EVERY` writes.
fn churn(kv: &KvStore<TicketLock>) {
    let mut writes = 0;
    for round in 1..=ROUNDS {
        for key in 0..KEYS {
            write(kv, key, round);
            writes += 1;
            if writes % PASS_EVERY == 0 {
                kv.reclaim_pass();
            }
        }
    }
}

/// `benchmark/`'s `srv_read` geometry: what one stored item of 8-byte
/// keys and 16–96 B values may cost, header, key, value and slack
/// together. A 24-byte header and 8-byte classes carved from pages
/// take ≈ 91 B on average; a 32-byte header in malloc's 16-byte
/// chunks, ≈ 111 B.
const FOOTPRINT_MAX_BYTES_PER_KEY: f64 = 96.0;

#[test]
#[ignore = "reads the process's RSS; run alone, release-built, with --ignored"]
fn a_preload_at_srv_reads_geometry_costs_at_most_96_bytes_a_key() {
    let _alone = alone();
    let kv: KvStore<TicketLock> = KvStore::new(KEYS as usize + 1, 16);
    let before = rss_mib();
    for key in 0..KEYS {
        let mut z = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let len = 16 + (z >> 33) as usize % 81;
        kv.set(&key.to_be_bytes(), &[key as u8; 96][..len]);
    }
    let per_key = (rss_mib() - before) * (1 << 20) as f64 / KEYS as f64;
    eprintln!("preload: {per_key:.1} B a key");
    assert!(
        per_key <= FOOTPRINT_MAX_BYTES_PER_KEY,
        "a preload at srv_read's geometry grew RSS by {per_key:.1} B a key"
    );
}

#[test]
#[ignore = "reads the process's RSS; run alone, release-built, with --ignored"]
fn churn_from_a_second_thread_grows_rss_no_more_than_from_the_first() {
    let _alone = alone();
    let kv = preload();
    let before = rss_mib();
    churn(&kv);
    let same = rss_mib() - before;
    eprintln!("same-thread churn: {before:.1} -> {:.1} MiB", before + same);
    assert!(
        same <= SAME_THREAD_MAX_MIB,
        "churning from the preloading thread grew RSS by {same:.1} MiB"
    );
    drop(kv);

    let kv = preload();
    let before = rss_mib();
    std::thread::scope(|s| {
        s.spawn(|| churn(&kv))
            .join()
            .expect("the churn thread panicked");
    });
    let cross = rss_mib() - before;
    eprintln!(
        "second-thread churn: {before:.1} -> {:.1} MiB",
        before + cross
    );
    assert!(
        cross <= same + SLACK_MIB,
        "churning from a second thread grew RSS by {cross:.1} MiB, \
         against {same:.1} MiB from the preloading thread"
    );
}
