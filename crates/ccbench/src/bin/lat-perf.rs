//! `lat-perf`: the open-loop tail-latency harness.
//!
//! Sweeps offered load over the headline serving shape (ticket locks,
//! zipfian YCSB-B) with Poisson
//! arrivals and intended-send-time latency stamps (no coordinated
//! omission), prints the latency-vs-throughput curve and its knee, and
//! writes `BENCH_lat.json` unless `--no-write` is given.
//!
//! ```text
//! lat-perf [--smoke] [--out PATH] [--no-write] [--check-determinism]
//! ```
//!
//! `--smoke` shrinks the sweep to two points (one underloaded, one
//! saturating) and *gates* on them: every issued read must appear in
//! the latency histogram, and the underloaded point's read p99 must
//! stay under a generous ceiling — CI runs this. Smoke runs never
//! overwrite the default `BENCH_lat.json` unless an explicit `--out`
//! is given. `--check-determinism` runs the sweep twice and diffs the
//! issued op counts.

use ssync_ccbench::cli;
use ssync_ccbench::lat_perf::{
    check_determinism, knee, render_json, render_table, run_sweep, smoke_gate, LatSweepConfig,
};

fn main() {
    let args = cli::from_env("lat-perf", true);
    let smoke = args.smoke;

    let config = LatSweepConfig::for_host(smoke);
    eprintln!(
        "lat-perf: {} workers x {} connections x {} key-ops, {} keys, {} offered points{}",
        config.workers,
        config.connections,
        config.ops_per_worker,
        config.keys,
        config.offered.len(),
        if smoke { " (smoke mode)" } else { "" }
    );
    // The determinism gate runs the sweep twice and hands back the
    // first run's points, so checking costs one extra sweep, not two.
    let points = if args.check_determinism {
        match check_determinism(config) {
            Ok(points) => {
                eprintln!(
                    "lat-perf: issued op counts deterministic over {} points x 2 runs",
                    points.len()
                );
                points
            }
            Err(msg) => {
                eprintln!("lat-perf: DETERMINISM FAILURE: {msg}");
                std::process::exit(1);
            }
        }
    } else {
        run_sweep(config)
    };
    print!("{}", render_table(&points));

    match knee(&points) {
        Some(p) => eprintln!(
            "knee: offered {:.0} ops/s achieved only {:.0} ops/s (read p99 {:.1} us)",
            p.offered_ops_per_sec,
            p.report.achieved_ops_per_sec,
            p.report.read_lat.quantile(0.99).unwrap_or(0) as f64 / 1000.0
        ),
        None => eprintln!("knee: not reached — the stack kept up at every offered rate"),
    }

    // The smoke gate is the CI contract: trip hard, don't just warn.
    if smoke {
        if let Err(msg) = smoke_gate(&points) {
            eprintln!("lat-perf: SMOKE GATE FAILURE: {msg}");
            std::process::exit(1);
        }
        eprintln!("lat-perf: smoke gate passed (reads all measured, p99 under ceiling)");
    }

    args.write_artifact("BENCH_lat.json", || render_json(&points, config));
}
