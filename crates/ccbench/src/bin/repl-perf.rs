//! `repl-perf`: the replication layer's harness.
//!
//! Sweeps `ssync-repl` primary/backup groups over {replica count ×
//! mode × skew × mix × batch} plus a deterministic fault-injection
//! case and a failover case, prints a per-case table with the
//! host-measured columns, and rewrites `BENCH_repl.json`, which holds
//! only the fields that replay from the seeds. After the sweep it runs
//! the `ssync-cluster` reshard case — a live, faulted 2 → 4 split under
//! traffic that asserts zero acknowledged-write loss — and reports it
//! as a top-level `"reshard"` JSON object. Every case asserts its
//! backups converged.
//!
//! ```text
//! repl-perf [--check]
//! ```
//!
//! `--check` regenerates the artifact and byte-compares it against the
//! committed file instead of writing, printing the first differing
//! line and exiting 1 — CI runs this. Anything else exits 2 with the
//! usage line.

use std::process::ExitCode;

use ssync_ccbench::cli::Artifact;
use ssync_ccbench::repl_perf::{
    render_json, render_table, run_reshard_case, run_sweep, ReplSweepConfig,
};

fn main() -> ExitCode {
    let artifact = Artifact::from_env("repl-perf", "BENCH_repl.json");

    let config = ReplSweepConfig::COMMITTED;
    eprintln!(
        "repl-perf: {} workers x {} key-ops, {} keys",
        config.workers, config.ops_per_worker, config.keys
    );
    let results = run_sweep(config);
    print!("{}", render_table(&results));

    // The elastic-resharding case: a live, faulted 2 -> 4 split under
    // closed-loop traffic. Panics on any acknowledged-write loss, so
    // every run doubles as the zero-loss gate.
    let reshard = run_reshard_case(config);
    eprintln!(
        "reshard 2->4 (live, faulted): {} ops, lost_acked_writes {}; host-measured: dip {:.1}% \
         ({:.0} -> {:.0} ops/s during), wall {:.1} ms, {} deferred",
        reshard.tally.issued.total(),
        reshard.lost_acked_writes,
        reshard.dip_pct,
        reshard.rate_before,
        reshard.rate_during,
        reshard.migration_wall.as_secs_f64() * 1000.0,
        reshard.migration_ops_deferred,
    );

    artifact.settle(&render_json(&results, config, &reshard))
}
