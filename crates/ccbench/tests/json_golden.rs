//! Byte-level golden tests for the BENCH_* JSON renderers.
//!
//! The committed `BENCH_*.json` artifacts are diffed by humans and
//! parsed by scripts that rely on the exact line layout (one case per
//! line, stable key order). These tests pin the renderers to golden
//! files built from fixed synthetic inputs, so a refactor of the JSON
//! scaffolding (`ccbench::json`) that changes even one byte of layout
//! fails loudly here instead of silently churning the artifacts.
//!
//! To regenerate after an *intentional* format change:
//! `GOLDEN_WRITE=1 cargo test -p ssync-ccbench --test json_golden`

use std::time::Duration;

use ssync_ccbench::kv_perf::{self, Case, CaseResult, SrvLockKind, SweepConfig};
use ssync_ccbench::perf::{self, PerfResult};
use ssync_ccbench::repl_perf::{self, ReplCase, ReplCaseResult, ReplSweepConfig};
use ssync_cluster::{MigrationReport, ReshardReport};
use ssync_repl::{ReplMode, ReplReport};
use ssync_srv::workload::{KeyDist, Mix, OpCounts};

/// Compares `actual` against the committed golden file, or rewrites it
/// when `GOLDEN_WRITE` is set.
fn check(name: &str, actual: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("GOLDEN_WRITE").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("read golden (GOLDEN_WRITE=1 to create)");
    assert!(
        expected == actual,
        "{name} drifted from its golden copy.\n--- expected ---\n{expected}\n--- actual ---\n{actual}"
    );
}

fn issued() -> OpCounts {
    OpCounts {
        gets: 760,
        sets: 40,
        cas: 0,
        deletes: 0,
    }
}

#[test]
fn kv_perf_json_layout_is_pinned() {
    let case = Case {
        lock: SrvLockKind::Ticket,
        shards: 4,
        dist: KeyDist::Zipfian { theta: 0.99 },
        mix: Mix::YCSB_B,
        batch: 1,
    };
    let results = vec![
        CaseResult {
            case,
            workers: 2,
            issued: issued(),
            hits: 760,
            misses: 0,
            cas_ok: 0,
            cas_fail: 0,
            maintenance_runs: 3,
            wall_ms: 12.34,
            ops_per_sec: 64829.0,
            hit_rate: 1.0,
        },
        CaseResult {
            case: Case {
                lock: SrvLockKind::Mcs,
                ..case
            },
            workers: 2,
            issued: issued(),
            hits: 700,
            misses: 60,
            cas_ok: 0,
            cas_fail: 0,
            maintenance_runs: 0,
            wall_ms: 9.5,
            ops_per_sec: 84210.0,
            hit_rate: 0.9211,
        },
    ];
    let config = SweepConfig {
        workers: 2,
        ops_per_worker: 400,
        keys: 512,
    };
    let soak = kv_perf::ChurnSoakResult {
        rounds: 16,
        ops_per_round: 512,
        keys: 512,
        issued: OpCounts {
            gets: 1650,
            sets: 4600,
            cas: 0,
            deletes: 2454,
        },
        reclaim_backlog_max: 320,
        reclaim_backlog_final: 96,
        nodes_reclaimed: 5000,
        epochs_advanced: 128,
        backlog_bound: 2048,
    };
    check(
        "kv_perf.json",
        &kv_perf::render_json(&results, config, &soak),
    );
}

/// The committed `BENCH_kv.json` must be the artifact of the sweep the
/// harness runs today: same schema tag, same cases in the same order.
/// Without this a sweep edit leaves a stale artifact green.
#[test]
fn committed_kv_artifact_matches_the_sweep() {
    let path = format!("{}/../../BENCH_kv.json", env!("CARGO_MANIFEST_DIR"));
    let artifact = std::fs::read_to_string(&path).expect("read the committed BENCH_kv.json");
    assert!(
        artifact.contains("\"schema\": \"ssync-kv-perf-v4\""),
        "BENCH_kv.json carries another schema tag; rerun kv-perf"
    );
    // One case per line, the key fields leading it (pinned above).
    let rows: Vec<&str> = artifact
        .lines()
        .map(str::trim_start)
        .filter(|line| line.starts_with("{\"lock\": "))
        .collect();
    let expected: Vec<String> = kv_perf::sweep_cases()
        .iter()
        .map(|c| {
            format!(
                "{{\"lock\": \"{}\", \"shards\": {}, \"dist\": \"{}\", \"mix\": \"{}\", \"batch\": {}, ",
                c.lock.name(),
                c.shards,
                c.dist.label(),
                c.mix.name,
                c.batch
            )
        })
        .collect();
    assert_eq!(rows.len(), expected.len(), "case count drifted");
    for (row, key) in rows.iter().zip(&expected) {
        assert!(row.starts_with(key.as_str()), "expected {key}… found {row}");
    }
}

#[test]
fn sim_perf_json_layout_is_pinned() {
    let results = vec![
        PerfResult {
            workload: "lock-contended",
            platform: "Opteron",
            threads: 16,
            window: 2_000_000,
            wall_ms: 210.5,
            events: 1_200_000,
            ops: 40_000,
        },
        PerfResult {
            workload: "atomics-fai",
            platform: "Niagara",
            threads: 8,
            window: 1_000_000,
            wall_ms: 55.25,
            events: 300_000,
            ops: 25_000,
        },
    ];
    check("sim_perf.json", &perf::render_json(&results, 140.0, 14.0));
}

#[test]
fn repl_perf_json_layout_is_pinned() {
    let base_case = ReplCase {
        replicas: 2,
        mode: ReplMode::Async { max_lag: 512 },
        dist: KeyDist::Uniform,
        mix: Mix::YCSB_C,
        batch: 1,
        faulty: false,
        failover: false,
    };
    let report = ReplReport {
        issued: issued(),
        hits: 750,
        misses: 10,
        replica_serves: 500,
        fallbacks: 4,
        entries: 40,
        crashes: 0,
        stalls: 0,
        from_log: 0,
        converged: true,
        ..ReplReport::default()
    };
    let mut failover_report = ReplReport {
        failovers: 2,
        lost_to_retry: 3,
        redirects: 11,
        unavailability: vec![Duration::from_micros(1500), Duration::from_micros(2500)],
        ..report.clone()
    };
    failover_report.replica_store.repl_applied = 38;
    failover_report.replica_store.repl_stale_drops = 2;
    let results = vec![
        ReplCaseResult {
            case: base_case,
            workers: 2,
            issued: issued(),
            report,
            wall_ms: 31.7,
            ops_per_sec: 25236.0,
        },
        ReplCaseResult {
            case: ReplCase {
                failover: true,
                faulty: true,
                ..base_case
            },
            workers: 2,
            issued: issued(),
            report: failover_report,
            wall_ms: 44.2,
            ops_per_sec: 18099.0,
        },
    ];
    let config = ReplSweepConfig {
        workers: 2,
        ops_per_worker: 400,
        keys: 512,
    };
    let reshard = ReshardReport {
        issued: 800,
        ops: [760, 40, 0, 0],
        hits: 750,
        misses: 10,
        cas_fail: 0,
        client_redirects: 21,
        wrong_shard_redirects: 19,
        migration_ops_deferred: 5,
        migration: MigrationReport {
            entries_migrated: 256,
            copy_restarts: 1,
            coordinator_restarts: 1,
            attempts: 2,
            source_keys_retired: 250,
            final_epoch: 2,
        },
        migration_wall: Duration::from_millis(120),
        rate_before: 50_000.0,
        rate_during: 42_000.0,
        rate_after: 51_000.0,
        dip_pct: 16.0,
        purged: 1,
        converged: true,
        lost_acked_writes: 0,
    };
    check(
        "repl_perf.json",
        &repl_perf::render_json(&results, config, &reshard),
    );
}
