//! `kv-perf`: the sharded KV service's performance harness.
//!
//! Sweeps the native serving stack over {lock algorithm × shard count
//! × rw mix} on the zipfian keyspace (plus one uniform, one batched
//! multi-get and one churn case per lock), runs the epoch reclamation
//! churn soak (the retired backlog must stay bounded while the churn
//! retires far more than the bound — a failed criterion exits
//! nonzero), prints a per-case table, and writes `BENCH_kv.json`
//! unless `--no-write` is given.
//!
//! ```text
//! kv-perf [--smoke] [--out PATH] [--no-write] [--check-determinism]
//! ```
//!
//! `--smoke` shrinks the per-case op count ~15x so CI can keep the
//! harness alive in seconds; smoke runs never overwrite the default
//! `BENCH_kv.json` unless an explicit `--out` is given. Issued op
//! counts are deterministic per seed in both modes;
//! `--check-determinism` proves it by running the whole sweep twice
//! and diffing the issued op counts — CI runs this in smoke mode.
//! Unrecognised arguments exit 2 with the usage line.

use ssync_ccbench::cli;
use ssync_ccbench::kv_perf::{
    check_determinism, render_json, render_table, run_churn_soak, run_sweep, SoakConfig,
    SweepConfig,
};

fn main() {
    let args = cli::from_env("kv-perf", true);
    let smoke = args.smoke;

    let config = SweepConfig::for_host(smoke);
    eprintln!(
        "kv-perf: {} workers x {} key-ops, {} keys{}",
        config.workers,
        config.ops_per_worker,
        config.keys,
        if smoke { " (smoke mode)" } else { "" }
    );
    // The determinism gate runs the sweep twice and hands back the
    // first run's results, so checking costs one extra sweep, not two.
    let results = if args.check_determinism {
        match check_determinism(config) {
            Ok(results) => {
                eprintln!(
                    "kv-perf: issued op counts deterministic over {} cases x 2 runs",
                    results.len()
                );
                results
            }
            Err(msg) => {
                eprintln!("kv-perf: DETERMINISM FAILURE: {msg}");
                std::process::exit(1);
            }
        }
    } else {
        run_sweep(config)
    };
    print!("{}", render_table(&results));

    // The churn soak gates the release: the store's retired backlog
    // must stay bounded under sustained delete/replace churn that
    // retires far more nodes than the bound.
    let soak = run_churn_soak(SoakConfig::for_host(smoke));
    eprintln!("kv-perf: {}", soak.summary());
    if let Err(msg) = soak.check() {
        eprintln!("kv-perf: CHURN SOAK FAILURE: {msg}");
        std::process::exit(1);
    }

    args.write_artifact("BENCH_kv.json", || render_json(&results, config, &soak));
}
