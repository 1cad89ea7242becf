//! `kv-perf`: the sharded KV service's harness.
//!
//! Sweeps the native serving stack over {lock algorithm × shard count
//! × rw mix} on the zipfian keyspace (plus one uniform, one batched
//! multi-get and one churn case per lock), runs the epoch reclamation
//! churn soak (the retired backlog must stay bounded while the churn
//! retires far more than the bound — a failed criterion exits
//! nonzero), prints a per-case table with the host-measured columns,
//! and rewrites `BENCH_kv.json`, which holds only the fields that
//! replay from the seed.
//!
//! ```text
//! kv-perf [--check]
//! ```
//!
//! `--check` regenerates the artifact and byte-compares it against the
//! committed file instead of writing, printing the first differing
//! line and exiting 1 — CI runs this. Anything else exits 2 with the
//! usage line.

use std::process::ExitCode;

use ssync_ccbench::cli::Artifact;
use ssync_ccbench::kv_perf::{
    render_json, render_table, run_churn_soak, run_sweep, SoakConfig, SweepConfig,
};

fn main() -> ExitCode {
    let artifact = Artifact::from_env("kv-perf", "BENCH_kv.json");

    let config = SweepConfig::COMMITTED;
    eprintln!(
        "kv-perf: {} workers x {} key-ops, {} keys",
        config.workers, config.ops_per_worker, config.keys
    );
    let results = run_sweep(config);
    print!("{}", render_table(&results));

    // The churn soak gates the release: the store's retired backlog
    // must stay bounded under sustained delete/replace churn that
    // retires far more nodes than the bound.
    let soak = run_churn_soak(SoakConfig::COMMITTED);
    eprintln!("kv-perf: {}", soak.summary());
    if let Err(msg) = soak.check() {
        eprintln!("kv-perf: CHURN SOAK FAILURE: {msg}");
        return ExitCode::FAILURE;
    }

    artifact.settle(&render_json(&results, config, &soak))
}
