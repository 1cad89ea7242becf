//! `sim-perf`: the simulator's harness.
//!
//! Runs representative contended/uncontended workloads on all four
//! platforms, prints an events/sec table (host-measured), and rewrites
//! `BENCH_sim.json`, which holds the event and op counts — the part
//! that replays exactly.
//!
//! ```text
//! sim-perf [--check]
//! ```
//!
//! `--check` regenerates the artifact and byte-compares it against the
//! committed file instead of writing, printing the first differing
//! line and exiting 1 — CI runs this. Anything else exits 2 with the
//! usage line.

use std::process::ExitCode;

use ssync_ccbench::cli::Artifact;
use ssync_ccbench::perf::{render_json, render_table, run_suite, PERF_WINDOW};

fn main() -> ExitCode {
    let artifact = Artifact::from_env("sim-perf", "BENCH_sim.json");

    eprintln!("sim-perf: window = {PERF_WINDOW} cycles");
    let results = run_suite(PERF_WINDOW);
    print!("{}", render_table(&results));

    artifact.settle(&render_json(&results))
}
