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
//! Ignored by default: it reads the process's RSS, which tests running
//! beside it would disturb, and it writes ≈ 330 000 items. Run it
//! release-built:
//! `cargo test --release -p ssync-kv --test cross_thread_churn -- --ignored`
#![cfg(target_os = "linux")]

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

#[test]
#[ignore = "reads the process's RSS; run alone, release-built, with --ignored"]
fn churn_from_a_second_thread_grows_rss_no_more_than_from_the_first() {
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
