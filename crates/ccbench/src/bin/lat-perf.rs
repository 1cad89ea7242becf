//! `lat-perf`: the open-loop tail-latency harness.
//!
//! Sweeps offered load over the headline serving shape (ticket locks,
//! zipfian YCSB-B) with Poisson arrivals and intended-send-time latency
//! stamps (no coordinated omission), prints the latency-vs-throughput
//! curve and its knee — host-measured, for a human — and exits non-zero
//! unless every issued read appears in the latency histogram. It
//! commits no artifact: nothing it measures replays.
//!
//! ```text
//! lat-perf
//! ```
//!
//! Any argument but `--help` exits 2 with the usage line.

use std::process::ExitCode;

use ssync_ccbench::cli;
use ssync_ccbench::lat_perf::{gate, knee, render_table, run_sweep, LatSweepConfig};

fn main() -> ExitCode {
    cli::no_flags("lat-perf");

    let config = LatSweepConfig::SWEEP;
    eprintln!(
        "lat-perf: {} workers x {} connections x {} key-ops, {} keys, {} offered points",
        config.workers,
        config.connections,
        config.ops_per_worker,
        config.keys,
        config.offered.len(),
    );
    let points = run_sweep(config);
    print!("{}", render_table(&points));

    match knee(&points) {
        Some(p) => eprintln!(
            "knee: offered {:.0} ops/s achieved only {:.0} ops/s (read p99 {:.1} us)",
            p.offered_ops_per_sec,
            p.report.tally.ops_per_sec(p.report.wall),
            p.report.read_lat.quantile(0.99).unwrap_or(0) as f64 / 1000.0
        ),
        None => eprintln!("knee: not reached — the stack kept up at every offered rate"),
    }

    if let Err(msg) = gate(&points) {
        eprintln!("lat-perf: GATE FAILURE: {msg}");
        return ExitCode::FAILURE;
    }
    eprintln!("lat-perf: gate passed (every issued read measured)");
    ExitCode::SUCCESS
}
