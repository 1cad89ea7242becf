//! `repl-perf`: the replication layer's performance harness.
//!
//! Sweeps `ssync-repl` primary/backup groups over {replica count ×
//! mode × skew × mix × batch} plus a deterministic fault-injection
//! case, prints a per-case table and the replica-scaling headline, and
//! writes `BENCH_repl.json` unless `--no-write` is given. After the
//! sweep it runs the `ssync-cluster` reshard case — a live, faulted
//! 2 → 4 split under traffic that asserts zero acknowledged-write
//! loss — and reports it as a top-level `"reshard"` JSON object.
//!
//! ```text
//! repl-perf [--smoke] [--out PATH] [--no-write]
//! ```
//!
//! `--smoke` shrinks per-case op counts so CI can keep the harness
//! alive in seconds; smoke runs never overwrite the default
//! `BENCH_repl.json` unless an explicit `--out` is given. Issued op
//! counts and fault window counts are deterministic per seed in both
//! modes; every case asserts its backups converged.

use ssync_ccbench::cli;
use ssync_ccbench::repl_perf::{
    render_json, render_table, run_reshard_case, run_sweep, ReplSweepConfig,
};
use ssync_srv::workload::KeyDist;

fn main() {
    let args = cli::from_env("repl-perf", false);
    let smoke = args.smoke;

    let config = ReplSweepConfig::for_host(smoke);
    eprintln!(
        "repl-perf: {} workers x {} key-ops, {} keys{}",
        config.workers,
        config.ops_per_worker,
        config.keys,
        if smoke { " (smoke mode)" } else { "" }
    );
    let results = run_sweep(config);
    print!("{}", render_table(&results));

    // The replica-scaling headline: batched zipfian YCSB-C, async,
    // 0 vs 2 backups.
    let pick = |replicas: usize| {
        results.iter().find(|r| {
            r.case.replicas == replicas
                && r.case.batch > 1
                && matches!(r.case.dist, KeyDist::Zipfian { .. })
                && r.case.mix.name == "ycsb-c"
        })
    };
    if let (Some(r0), Some(r2)) = (pick(0), pick(2)) {
        eprintln!(
            "replica scaling (ycsb-c zipf batch {}): 0 replicas {:.0} ops/s -> 2 replicas {:.0} ops/s ({:+.1}%)",
            r2.case.batch,
            r0.ops_per_sec,
            r2.ops_per_sec,
            (r2.ops_per_sec / r0.ops_per_sec - 1.0) * 100.0
        );
    }

    // The elastic-resharding case: a live, faulted 2 -> 4 split under
    // closed-loop traffic. Panics on any acknowledged-write loss, so
    // the smoke run doubles as the zero-loss gate in CI.
    let reshard = run_reshard_case(config);
    eprintln!(
        "reshard 2->4 (live, faulted): {} ops, dip {:.1}% ({:.0} -> {:.0} ops/s during), \
         wall {:.1} ms, {} redirects, {} deferred, lost_acked_writes {}",
        reshard.issued,
        reshard.dip_pct,
        reshard.rate_before,
        reshard.rate_during,
        reshard.migration_wall.as_secs_f64() * 1000.0,
        reshard.client_redirects,
        reshard.migration_ops_deferred,
        reshard.lost_acked_writes
    );

    args.write_artifact("BENCH_repl.json", || {
        render_json(&results, config, &reshard)
    });
}
