//! The replication layer's performance harness (`repl-perf`).
//!
//! Where `kv-perf` watches the unreplicated serving stack, this suite
//! watches the `ssync-repl` primary/backup groups: the axes are
//! {replica count × acknowledgement mode × key skew × mix × batch},
//! plus one deterministic fault-injection case (seeded crash and stall
//! windows with op-log catch-up) that doubles as a convergence
//! regression — every case asserts its backups converged before
//! reporting.
//!
//! The sweep's shape is read scaling: YCSB-B/C read traffic spread
//! round-robin over backups, with batched reads fanned out across a
//! shard's endpoints concurrently.
//!
//! Issued op counts, log entries, replica applies, the fault
//! schedule's window counts and the failover count replay from the
//! seed, and those are what `BENCH_repl.json` commits. Wall times,
//! which reads a backup served, fallbacks and log replays depend on
//! load and timing: the table prints them, labelled host-measured, and
//! `benchmark/` measures the ones worth a number (`repl.promote_us`,
//! `repl.client_gap_us`).
//!
//! Alongside the sweep rides the `ssync-cluster` reshard case: a live,
//! faulted 2 → 4 split under closed-loop traffic, reported as one
//! top-level `"reshard"` object in `BENCH_repl.json`. Its issued
//! count, attempt and restart accounting, redirect counts and
//! zero-acknowledged-write-loss replay; its migration entry counts,
//! walls and throughput dip do not (`benchmark/`'s
//! `cluster.migration_ms` and `cluster.dip_pct` measure those).

use ssync_cluster::{run_reshard, ReshardReport, ReshardSpec, ReshardWorkloadSpec};
use ssync_locks::TicketLock;
use ssync_repl::fault::FaultSpec;
use ssync_repl::service::{ReplCluster, ReplMode, ReplSpec};
use ssync_repl::workload::{run_replicated_closed_loop, ReplReport};
use ssync_srv::workload::{KeyDist, Mix, ValueSize, WorkloadSpec};

use crate::json::Doc;

/// Master seed for every case.
pub const SEED: u64 = 0x0DD_B10B;

/// The async lag bound every async case uses.
pub const MAX_LAG: u64 = 64;

/// The seeded fault schedule of the fault-injection case.
pub const FAULTS: FaultSpec = FaultSpec {
    seed: 0xFA_015,
    faults_per_replica: 4,
    max_window: 12,
    spacing: 96,
    primary_crashes: 0,
};

/// The seeded leader-crash schedule of the failover case: two
/// successive leaders per shard die mid-workload, so the case walks
/// each shard's full succession line.
pub const FAILOVER_FAULTS: FaultSpec = FaultSpec {
    seed: 0xFA_110,
    faults_per_replica: 0,
    max_window: 0,
    spacing: 0,
    primary_crashes: 2,
};

/// The seed the reshard case's fault schedules derive from: one
/// migration-stream crash per source and one coordinator crash, so
/// every measured migration survives both recovery paths.
pub const RESHARD_FAULTS: FaultSpec = FaultSpec {
    seed: 0x4E_5A2D,
    faults_per_replica: 0,
    max_window: 0,
    spacing: 48,
    primary_crashes: 0,
};

/// The live 2 → 4 resharding case: closed-loop traffic over a 2-shard
/// cluster map, with a faulted split to 4 shards injected a quarter of
/// the way through. Asserts zero acknowledged-write loss and full
/// convergence.
pub fn reshard_spec(config: ReplSweepConfig) -> ReshardWorkloadSpec {
    ReshardWorkloadSpec {
        shards_before: 2,
        workers: config.workers,
        keys_per_worker: (config.keys / config.workers as u64).max(32),
        ops_per_worker: config.ops_per_worker,
        value_len: 32,
        start_after_ops: config.workers as u64 * config.ops_per_worker / 4,
        reshard: ReshardSpec {
            faults: RESHARD_FAULTS,
            source_crashes: 1,
            coordinator_crashes: 1,
            ..ReshardSpec::clean(4)
        },
        seed: SEED,
    }
}

/// Runs the reshard case (TICKET locks, like the sweep).
///
/// # Panics
///
/// Panics on acknowledged-write loss or a non-converged final
/// placement — either is a correctness regression, not a measurement.
pub fn run_reshard_case(config: ReplSweepConfig) -> ReshardReport {
    let report = run_reshard::<TicketLock>(&reshard_spec(config));
    assert_eq!(
        report.lost_acked_writes, 0,
        "acknowledged writes lost across the live split"
    );
    assert!(report.converged, "reshard case failed to converge");
    report
}

/// The sweep's configuration.
#[derive(Debug, Clone, Copy)]
pub struct ReplSweepConfig {
    /// Client worker threads per case.
    pub workers: usize,
    /// Key-operations per worker per case.
    pub ops_per_worker: u64,
    /// Keyspace size.
    pub keys: u64,
}

impl ReplSweepConfig {
    /// The committed sweep's shape; the worker count is fixed for the
    /// reason `kv-perf`'s is.
    pub const COMMITTED: ReplSweepConfig = ReplSweepConfig {
        workers: 2,
        ops_per_worker: 5_000,
        keys: 4_096,
    };
}

/// One case of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct ReplCase {
    /// Backups per shard.
    pub replicas: usize,
    /// Acknowledgement mode.
    pub mode: ReplMode,
    /// Key distribution.
    pub dist: KeyDist,
    /// Operation mix.
    pub mix: Mix,
    /// Reads per batch (1 = unbatched; wide batches fan out across a
    /// shard's endpoints).
    pub batch: usize,
    /// Run the seeded fault schedule ([`FAULTS`]).
    pub faulty: bool,
    /// Run the seeded leader-crash schedule ([`FAILOVER_FAULTS`]).
    pub failover: bool,
}

impl ReplCase {
    /// Display name of the mode column.
    pub fn mode_label(&self) -> &'static str {
        match self.mode {
            ReplMode::Sync => "sync",
            ReplMode::Async { .. } => "async",
        }
    }
}

/// One measured case.
#[derive(Debug, Clone)]
pub struct ReplCaseResult {
    /// The case that ran.
    pub case: ReplCase,
    /// The full driver report; its issued counts are deterministic per
    /// seed.
    pub report: ReplReport,
}

/// The sweep: replica scaling {0, 1, 2} across read-heavy mixes and
/// skews in async mode (batched and unbatched), the sync/async write
/// cost contrast, and the deterministic fault case.
pub fn sweep_cases() -> Vec<ReplCase> {
    let zipf = KeyDist::Zipfian { theta: 0.99 };
    let asynchronous = ReplMode::Async { max_lag: MAX_LAG };
    let mut cases = Vec::new();
    for replicas in [0usize, 1, 2] {
        // Unbatched read-heavy mixes, both skews.
        for dist in [KeyDist::Uniform, zipf] {
            for mix in [Mix::YCSB_B, Mix::YCSB_C] {
                cases.push(ReplCase {
                    replicas,
                    mode: asynchronous,
                    dist,
                    mix,
                    batch: 1,
                    faulty: false,
                    failover: false,
                });
            }
        }
        // Batched YCSB-C: the endpoint fan-out cases.
        for dist in [KeyDist::Uniform, zipf] {
            cases.push(ReplCase {
                replicas,
                mode: asynchronous,
                dist,
                mix: Mix::YCSB_C,
                batch: 24,
                faulty: false,
                failover: false,
            });
        }
    }
    // Sync vs async write cost (the async counterparts are above).
    for replicas in [1usize, 2] {
        cases.push(ReplCase {
            replicas,
            mode: ReplMode::Sync,
            dist: zipf,
            mix: Mix::YCSB_B,
            batch: 1,
            faulty: false,
            failover: false,
        });
    }
    // Deterministic fault injection: crashes, stalls, log catch-up.
    cases.push(ReplCase {
        replicas: 2,
        mode: asynchronous,
        dist: zipf,
        mix: Mix::YCSB_A,
        batch: 1,
        faulty: true,
        failover: false,
    });
    // Deterministic failover: a chain of leader crashes under a
    // write-heavy mix, in sync mode so even the succession order
    // replays.
    cases.push(ReplCase {
        replicas: 2,
        mode: ReplMode::Sync,
        dist: zipf,
        mix: Mix::YCSB_A,
        batch: 1,
        faulty: false,
        failover: true,
    });
    cases
}

/// Runs one case (TICKET locks, 2 shards — the replication axes are
/// the sweep's subject, the lock algorithm is `kv-perf`'s).
///
/// # Panics
///
/// Panics if the case's backups fail to converge — that is a
/// correctness regression, not a measurement.
pub fn run_case(case: ReplCase, config: ReplSweepConfig) -> ReplCaseResult {
    let shards = 2;
    let buckets_per_shard = (config.keys as usize / shards).clamp(64, 4096);
    let spec = ReplSpec {
        replicas: case.replicas,
        mode: case.mode,
        log_capacity: 4096,
    };
    let mut cluster: ReplCluster<TicketLock> =
        ReplCluster::new(shards, buckets_per_shard, 16, spec);
    let workload = WorkloadSpec {
        keys: config.keys,
        dist: case.dist,
        mix: case.mix,
        vsize: ValueSize::Uniform { min: 16, max: 96 },
        batch: case.batch,
        seed: SEED,
    };
    let faults = if case.failover {
        FAILOVER_FAULTS
    } else if case.faulty {
        FAULTS
    } else {
        FaultSpec::none()
    };
    let report = run_replicated_closed_loop(
        &mut cluster,
        &workload,
        config.workers,
        config.ops_per_worker,
        &faults,
    );
    assert!(report.converged, "convergence regression in case {case:?}");
    ReplCaseResult { case, report }
}

/// Runs the full sweep.
pub fn run_sweep(config: ReplSweepConfig) -> Vec<ReplCaseResult> {
    sweep_cases()
        .into_iter()
        .map(|case| run_case(case, config))
        .collect()
}

/// Renders the sweep as a plain-text table for a human: the measured
/// columns live here and nowhere else.
pub fn render_table(results: &[ReplCaseResult]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "host-measured, single-shot (wall ms, ops/sec, rserves, fback, fromlog): not committed, not a result"
    );
    let _ = writeln!(
        out,
        "{:>4} {:>6} {:>9} {:>7} {:>6} {:>7} {:>9} {:>9} {:>9} {:>8} {:>6} {:>6} {:>7}",
        "repl",
        "mode",
        "dist",
        "mix",
        "batch",
        "faults",
        "ops",
        "wall ms",
        "ops/sec",
        "rserves",
        "fback",
        "crash",
        "fromlog"
    );
    for r in results {
        let (t, wall) = (&r.report.tally, r.report.wall);
        let _ = writeln!(
            out,
            "{:>4} {:>6} {:>9} {:>7} {:>6} {:>7} {:>9} {:>9.1} {:>9.0} {:>8} {:>6} {:>6} {:>7}",
            r.case.replicas,
            r.case.mode_label(),
            r.case.dist.label(),
            r.case.mix.name,
            r.case.batch,
            if r.case.failover {
                "fovr"
            } else if r.case.faulty {
                "yes"
            } else {
                "no"
            },
            t.issued.total(),
            wall.as_secs_f64() * 1000.0,
            t.ops_per_sec(wall),
            r.report.replica_serves,
            r.report.fallbacks,
            r.report.crashes + r.report.stalls,
            r.report.from_log
        );
    }
    out
}

/// Renders the sweep as the `BENCH_repl.json` document: only fields
/// that are a pure function of the seeds, so the committed file is the
/// golden `repl-perf --check` and the crate's tests compare against
/// (hand-rolled JSON, like the other BENCH artifacts — the workspace is
/// offline). The reshard case rides as one top-level `"reshard"` object
/// on its own line after the cases array.
pub fn render_json(
    results: &[ReplCaseResult],
    config: ReplSweepConfig,
    reshard: &ReshardReport,
) -> String {
    let mut doc = Doc::open(
        "ssync-repl-perf-v2",
        "every field replays; regenerate with repl-perf, verify with repl-perf --check; ops are key-operations; converged is asserted true for every case and lost_acked_writes zero for the reshard",
    );
    doc.member(
        &format!(
            "\"config\": {{\"workers\": {}, \"ops_per_worker\": {}, \"keys\": {}, \"seed\": {}, \"shards\": 2, \"lock\": \"TICKET\", \"max_lag\": {}}}",
            config.workers, config.ops_per_worker, config.keys, SEED, MAX_LAG
        ),
        true,
    );
    let mut cases: Vec<String> = Vec::with_capacity(results.len());
    for r in results {
        let rep = &r.report;
        // Failover-only keys ride on that case's line alone.
        let failover_fields = if r.case.failover {
            format!(
                ", \"failovers\": {}, \"redirects\": {}",
                rep.failovers, rep.redirects,
            )
        } else {
            String::new()
        };
        cases.push(format!(
            "{{\"replicas\": {}, \"mode\": \"{}\", \"dist\": \"{}\", \"mix\": \"{}\", \"batch\": {}, \"faulty\": {}, \"gets\": {}, \"sets\": {}, \"cas\": {}, \"deletes\": {}, \"hits\": {}, \"misses\": {}, \"entries\": {}, \"repl_applied\": {}, \"crashes\": {}, \"stalls\": {}, \"converged\": {}, \"hit_rate\": {:.4}{failover_fields}}}",
            r.case.replicas,
            r.case.mode_label(),
            r.case.dist.label(),
            r.case.mix.name,
            r.case.batch,
            r.case.faulty,
            rep.tally.issued.gets,
            rep.tally.issued.sets,
            rep.tally.issued.cas,
            rep.tally.issued.deletes,
            rep.tally.hits,
            rep.tally.misses,
            rep.entries,
            rep.replica_store.repl_applied,
            rep.crashes,
            rep.stalls,
            rep.converged,
            rep.tally.hit_rate(),
        ));
    }
    doc.array("cases", &cases, true);
    // Plan-driven, so they replay under live traffic: the attempt and
    // restart accounting (one seeded crash per source, one coordinator
    // crash) and one stale-map redirect per worker at the cutover.
    doc.member(
        &format!(
            "\"reshard\": {{\"shards_before\": 2, \"shards_after\": 4, \"workers\": {}, \"issued\": {}, \"lost_acked_writes\": {}, \"converged\": {}, \"final_epoch\": {}, \"attempts\": {}, \"coordinator_restarts\": {}, \"copy_restarts\": {}, \"client_redirects\": {}, \"wrong_shard_redirects\": {}}}",
            config.workers,
            reshard.tally.issued.total(),
            reshard.lost_acked_writes,
            reshard.converged,
            reshard.migration.final_epoch,
            reshard.migration.attempts,
            reshard.migration.coordinator_restarts,
            reshard.migration.copy_restarts,
            reshard.client_redirects,
            reshard.wrong_shard_redirects,
        ),
        false,
    );
    doc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ReplSweepConfig {
        ReplSweepConfig {
            workers: 2,
            ops_per_worker: 120,
            keys: 128,
        }
    }

    #[test]
    fn sweep_covers_the_replication_axes() {
        let cases = sweep_cases();
        let replicas: std::collections::HashSet<_> = cases.iter().map(|c| c.replicas).collect();
        assert!(replicas.contains(&0) && replicas.contains(&2));
        assert!(cases.iter().any(|c| matches!(c.mode, ReplMode::Sync)));
        assert!(cases.iter().any(|c| c.faulty), "fault case missing");
        assert!(cases.iter().any(|c| c.failover), "failover case missing");
        assert!(cases.iter().any(|c| c.batch > 1), "fan-out case missing");
        // The acceptance pair: batched zipfian YCSB-C at 0 and 2
        // replicas, async.
        for want in [0usize, 2] {
            assert!(cases.iter().any(|c| c.replicas == want
                && c.batch > 1
                && matches!(c.mode, ReplMode::Async { .. })
                && matches!(c.dist, KeyDist::Zipfian { .. })
                && c.mix.name == "ycsb-c"));
        }
    }

    #[test]
    fn one_case_runs_renders_and_converges() {
        let config = tiny_config();
        let case = ReplCase {
            replicas: 2,
            mode: ReplMode::Async { max_lag: MAX_LAG },
            dist: KeyDist::Zipfian { theta: 0.99 },
            mix: Mix::YCSB_B,
            batch: 1,
            faulty: false,
            failover: false,
        };
        let r = run_case(case, config);
        assert_eq!(r.report.tally.issued.total(), 240);
        assert!(r.report.converged);
        let table = render_table(std::slice::from_ref(&r));
        assert!(table.contains("async"));
        let reshard = run_reshard_case(config);
        let json = render_json(std::slice::from_ref(&r), config, &reshard);
        assert!(json.contains("\"ssync-repl-perf-v2\""));
        assert!(json.contains("\"replicas\": 2"));
        // One top-level reshard line between the cases array and the
        // closing brace, carrying the zero-loss assertion's receipts.
        let reshard_lines: Vec<&str> = json
            .lines()
            .filter(|l| l.trim_start().starts_with("\"reshard\": {"))
            .collect();
        assert_eq!(reshard_lines.len(), 1);
        assert!(reshard_lines[0].contains("\"lost_acked_writes\": 0"));
        assert!(reshard_lines[0].contains("\"converged\": true"));
        assert!(reshard_lines[0].contains("\"final_epoch\": 2"));
        assert!(json.ends_with("}\n"));
    }
}
