//! The replicated closed loop's seeded counts, held as literals: the
//! issued op stream, hits and misses, log entries, what the backups
//! applied, the fault schedule's windows and the failover chain are all
//! a pure function of the workload and fault seeds.

use ssync_locks::TicketLock;
use ssync_repl::fault::FaultSpec;
use ssync_repl::service::{ReplCluster, ReplSpec};
use ssync_repl::workload::run_replicated_closed_loop;
use ssync_srv::workload::{KeyDist, Mix, ValueSize, WorkloadSpec};

/// 2 shards × 2 workers × 5 000 key-ops over 4 096 keys: replica
/// scaling {0, 1, 2} across read-heavy mixes and skews in async mode
/// (batched and unbatched), the sync-mode write contrast, the seeded
/// fault schedule (crash and stall windows with op-log catch-up) and a
/// chain of leader crashes. Every case converges. What the backups
/// applied is read from their stores, less the one apply per key and
/// backup the preload made.
#[test]
fn replicated_sweep_replays_exact_counts() {
    const KEYS: u64 = 4_096;
    let faults = FaultSpec {
        seed: 0xFA_015,
        faults_per_replica: 4,
        max_window: 12,
        spacing: 96,
        primary_crashes: 0,
    };
    // Two successive leaders per shard die: each shard walks its
    // whole succession line, in sync mode so even the order replays.
    let failover = FaultSpec {
        seed: 0xFA_110,
        faults_per_replica: 0,
        max_window: 0,
        spacing: 0,
        primary_crashes: 2,
    };
    let none = FaultSpec::none();
    let (uniform, zipf) = (KeyDist::Uniform, KeyDist::Zipfian { theta: 0.99 });
    let sync: fn(usize) -> ReplSpec = ReplSpec::sync;
    let asynchronous: fn(usize) -> ReplSpec = ReplSpec::async_bounded;
    let (b, c) = (Mix::YCSB_B, Mix::YCSB_C);
    #[rustfmt::skip]
    let cases = [
        // (spec, replicas, dist, mix, batch, faults, [gets, sets], [entries, repl_applied],
        //  [crashes, stalls], [failovers, redirects])
        (asynchronous, 0, uniform, b, 1, none, [9_495, 505], [0, 0], [0, 0], [0, 0]),
        (asynchronous, 0, uniform, c, 1, none, [10_000, 0], [0, 0], [0, 0], [0, 0]),
        (asynchronous, 0, zipf, b, 1, none, [9_495, 505], [0, 0], [0, 0], [0, 0]),
        (asynchronous, 0, zipf, c, 1, none, [10_000, 0], [0, 0], [0, 0], [0, 0]),
        (asynchronous, 0, uniform, c, 24, none, [10_032, 0], [0, 0], [0, 0], [0, 0]),
        (asynchronous, 0, zipf, c, 24, none, [10_032, 0], [0, 0], [0, 0], [0, 0]),
        (asynchronous, 1, uniform, b, 1, none, [9_495, 505], [505, 505], [0, 0], [0, 0]),
        (asynchronous, 1, uniform, c, 1, none, [10_000, 0], [0, 0], [0, 0], [0, 0]),
        (asynchronous, 1, zipf, b, 1, none, [9_495, 505], [505, 505], [0, 0], [0, 0]),
        (asynchronous, 1, zipf, c, 1, none, [10_000, 0], [0, 0], [0, 0], [0, 0]),
        (asynchronous, 1, uniform, c, 24, none, [10_032, 0], [0, 0], [0, 0], [0, 0]),
        (asynchronous, 1, zipf, c, 24, none, [10_032, 0], [0, 0], [0, 0], [0, 0]),
        (asynchronous, 2, uniform, b, 1, none, [9_495, 505], [505, 1_010], [0, 0], [0, 0]),
        (asynchronous, 2, uniform, c, 1, none, [10_000, 0], [0, 0], [0, 0], [0, 0]),
        (asynchronous, 2, zipf, b, 1, none, [9_495, 505], [505, 1_010], [0, 0], [0, 0]),
        (asynchronous, 2, zipf, c, 1, none, [10_000, 0], [0, 0], [0, 0], [0, 0]),
        (asynchronous, 2, uniform, c, 24, none, [10_032, 0], [0, 0], [0, 0], [0, 0]),
        (asynchronous, 2, zipf, c, 24, none, [10_032, 0], [0, 0], [0, 0], [0, 0]),
        (sync, 1, zipf, b, 1, none, [9_495, 505], [505, 505], [0, 0], [0, 0]),
        (sync, 2, zipf, b, 1, none, [9_495, 505], [505, 1_010], [0, 0], [0, 0]),
        (asynchronous, 2, zipf, Mix::YCSB_A, 1, faults, [4_894, 5_106], [5_106, 10_212], [3, 13], [0, 0]),
        (sync, 2, zipf, Mix::YCSB_A, 1, failover, [4_894, 5_106], [32, 44], [0, 0], [4, 0]),
    ];
    for (row, case) in cases.into_iter().enumerate() {
        let (spec, replicas, dist, mix, batch, faults, counts, applied, windows, failed) = case;
        let mut cluster: ReplCluster<TicketLock> =
            ReplCluster::new(2, (KEYS / 2) as usize, 16, spec(replicas));
        let workload = WorkloadSpec {
            keys: KEYS,
            dist,
            mix,
            vsize: ValueSize::Uniform { min: 16, max: 96 },
            batch,
            seed: 0x0DD_B10B,
        };
        let report = run_replicated_closed_loop(&mut cluster, &workload, 2, 5_000, &faults);
        let case = format!("row {row}: {replicas} replicas, {dist:?}, {}", mix.name);
        assert!(report.converged, "{case}");
        let t = &report.tally;
        assert_eq!([t.issued.gets, t.issued.sets], counts, "{case}");
        assert_eq!([t.issued.cas, t.issued.deletes], [0, 0], "{case}");
        assert_eq!([t.hits, t.misses], [counts[0], 0], "{case}");
        let repl_applied = cluster.replica_stats_snapshot().repl_applied - replicas as u64 * KEYS;
        assert_eq!([report.entries, repl_applied], applied, "{case}");
        assert_eq!([report.crashes, report.stalls], windows, "{case}");
        assert_eq!([report.failovers, report.redirects], failed, "{case}");
    }
}
