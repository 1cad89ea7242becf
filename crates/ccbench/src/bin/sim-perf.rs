//! `sim-perf`: the simulator's performance harness.
//!
//! Runs representative contended/uncontended workloads on all four
//! platforms, prints an events/sec table, and writes `BENCH_sim.json`
//! (the perf-trajectory artifact) unless `--no-write` is given.
//!
//! ```text
//! sim-perf [--smoke] [--out PATH] [--no-write]
//! ```
//!
//! `--smoke` shrinks the simulated window ~20x so CI can keep the
//! harness alive in seconds; smoke runs never overwrite the default
//! `BENCH_sim.json` unless an explicit `--out` is given.

use ssync_ccbench::cli;
use ssync_ccbench::perf::{render_json, render_table, run_suite, PERF_WINDOW, SMOKE_WINDOW};

/// Frozen historical record: wall time of `cargo run --release --bin
/// repro-all` on the dev machine *before* the wait-list +
/// memoized-table engine work. Written into BENCH_sim.json under
/// `repro_all_waitlist_pr` as a one-off anchor, never remeasured here
/// (see EXPERIMENTS.md).
const REPRO_ALL_BEFORE_S: f64 = 140.0;

/// The matching measurement immediately after the engine work, same
/// machine — historical, like `REPRO_ALL_BEFORE_S`.
const REPRO_ALL_AFTER_S: f64 = 14.0;

fn main() {
    let args = cli::from_env("sim-perf", false);
    let smoke = args.smoke;

    let window = if smoke { SMOKE_WINDOW } else { PERF_WINDOW };
    eprintln!(
        "sim-perf: window = {window} cycles{}",
        if smoke { " (smoke mode)" } else { "" }
    );
    let results = run_suite(window);
    print!("{}", render_table(&results));

    args.write_artifact("BENCH_sim.json", || {
        render_json(&results, REPRO_ALL_BEFORE_S, REPRO_ALL_AFTER_S)
    });
}
