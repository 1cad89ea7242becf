//! The tail-latency harness (`lat-perf`).
//!
//! Where `kv-perf` drives the serving stack closed-loop (each worker
//! waits for its reply, so offered load adapts to the server and queue
//! delay hides from the numbers), this suite drives it **open-loop**:
//! Poisson arrivals at a fixed offered rate, latency stamped from the
//! *intended* send time, so coordinated omission is structurally
//! impossible. Sweeping the offered rate traces the latency-vs-
//! throughput curve and its knee — the paper-style tail-latency story
//! the closed-loop harness cannot tell.
//!
//! Each point runs the headline serving shape (ticket locks, zipfian
//! YCSB-B) at one offered rate and reports achieved throughput plus
//! read/write latency percentiles from the log-bucketed histogram.
//! Everything but the issued op counts is whatever the host gives —
//! open-loop p99 on a shared two-processor box has ranged 0.2–600 ms
//! across identical runs (`benchmark/README.md`) — so `lat-perf`
//! commits no artifact: it prints the curve, labelled host-measured,
//! and gates on the one structural property ([`gate`]).

use ssync_locks::TicketLock;
use ssync_srv::router::ShardRouter;
use ssync_srv::workload::{run_load, KeyDist, LoadReport, LoadSpec, Mix, ValueSize, WorkloadSpec};

/// Master seed (op streams and arrival schedules derive from it).
pub const SEED: u64 = 0x7A11_CAFE;

/// Ring depth per connection.
pub const RING_DEPTH: usize = 64;

/// Timed reads in flight per connection and shard.
pub const RING_WINDOW: usize = 16;

/// Shards of the serving stack under the sweep.
pub const SHARDS: usize = 2;

/// The sweep's configuration.
#[derive(Debug, Clone, Copy)]
pub struct LatSweepConfig {
    /// Pacing worker threads.
    pub workers: usize,
    /// Client endpoints over the ring mesh (multiple of `workers`).
    pub connections: usize,
    /// Key-operations per worker per point.
    pub ops_per_worker: u64,
    /// Keyspace size.
    pub keys: u64,
    /// Offered aggregate rates to sweep, key-ops/sec.
    pub offered: &'static [f64],
}

impl LatSweepConfig {
    /// The sweep `lat-perf` runs. Pacing workers stay at two even on
    /// big boxes: open-loop accuracy wants few, evenly scheduled
    /// arrival threads, and connection count — not thread count — is
    /// the client-scaling axis: two pacing threads fan out over hundreds
    /// of connections, deepening server-side buffering the way hundreds
    /// of physical clients would. The offered rates span from
    /// comfortably under a 1-core stack's capacity to well past it, so
    /// the knee lands inside the curve.
    pub const SWEEP: LatSweepConfig = LatSweepConfig {
        workers: 2,
        connections: 256,
        ops_per_worker: 4_000,
        keys: 4_096,
        offered: &[
            20_000.0, 50_000.0, 100_000.0, 200_000.0, 400_000.0, 800_000.0,
        ],
    };
}

/// One measured point of the offered-load sweep.
#[derive(Debug, Clone)]
pub struct LatPoint {
    /// The offered aggregate rate this point targeted.
    pub offered_ops_per_sec: f64,
    /// What the load engine measured at that rate.
    pub report: LoadReport,
}

/// Runs one offered-load point on a fresh serving stack.
pub fn run_point(config: LatSweepConfig, offered_ops_per_sec: f64) -> LatPoint {
    let buckets_per_shard = (config.keys as usize / SHARDS).clamp(64, 4096);
    let router: ShardRouter<TicketLock> = ShardRouter::new(SHARDS, buckets_per_shard, 16);
    let spec = LoadSpec {
        workload: WorkloadSpec {
            keys: config.keys,
            dist: KeyDist::Zipfian { theta: 0.99 },
            mix: Mix::YCSB_B,
            vsize: ValueSize::Uniform { min: 16, max: 96 },
            batch: 1,
            seed: SEED,
        },
        workers: config.workers,
        connections: config.connections,
        ops_per_worker: config.ops_per_worker,
        offered_ops_per_sec: Some(offered_ops_per_sec),
        depth: RING_DEPTH,
        window: RING_WINDOW,
    };
    LatPoint {
        offered_ops_per_sec,
        report: run_load(&router, &spec),
    }
}

/// Runs the full offered-load sweep, low rate to high.
pub fn run_sweep(config: LatSweepConfig) -> Vec<LatPoint> {
    config
        .offered
        .iter()
        .map(|&rate| run_point(config, rate))
        .collect()
}

/// The first point whose achieved rate fell more than 10% short of
/// offered — the knee of the latency-vs-throughput curve. `None` when
/// the stack kept up everywhere.
pub fn knee(points: &[LatPoint]) -> Option<&LatPoint> {
    points
        .iter()
        .find(|p| p.report.tally.ops_per_sec(p.report.wall) < 0.9 * p.offered_ops_per_sec)
}

/// The gate `lat-perf` exits on: at *every* point each issued read
/// must appear in the latency histogram — the structural
/// no-coordinated-omission check. It is a count equality, so it holds
/// or fails the same on any host; no latency ceiling is gated, because
/// no ceiling is meaningful on a host whose p99 spans three decades.
///
/// # Errors
///
/// A human-readable description of the first point a read escaped.
pub fn gate(points: &[LatPoint]) -> Result<(), String> {
    if points.is_empty() {
        return Err("no points ran".to_string());
    }
    for p in points {
        if p.report.read_lat.count() != p.report.tally.issued.gets {
            return Err(format!(
                "offered {:.0}: {} reads issued but {} measured — reads escaped the histogram",
                p.offered_ops_per_sec,
                p.report.tally.issued.gets,
                p.report.read_lat.count()
            ));
        }
    }
    Ok(())
}

/// Renders the sweep as a plain-text table for a human.
pub fn render_table(points: &[LatPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "host-measured, single-shot (every column but offered/s and ops): not committed, not a result"
    );
    let _ = writeln!(
        out,
        "{:>10} {:>10} {:>8} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "offered/s",
        "achieved/s",
        "ops",
        "late%",
        "rd p50 us",
        "rd p99 us",
        "rd p999 us",
        "rd max us",
        "wr p99 us"
    );
    for p in points {
        let r = &p.report;
        let us = |v: Option<u64>| v.map_or(f64::NAN, |n| n as f64 / 1000.0);
        let _ = writeln!(
            out,
            "{:>10.0} {:>10.0} {:>8} {:>5.1}% {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            p.offered_ops_per_sec,
            r.tally.ops_per_sec(r.wall),
            r.tally.issued.total(),
            r.late as f64 * 100.0 / r.tally.issued.total().max(1) as f64,
            us(r.read_lat.quantile(0.5)),
            us(r.read_lat.quantile(0.99)),
            us(r.read_lat.quantile(0.999)),
            us(r.read_lat.max()),
            us(r.write_lat.quantile(0.99)),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> LatSweepConfig {
        LatSweepConfig {
            workers: 2,
            connections: 4,
            ops_per_worker: 150,
            keys: 128,
            offered: &[4_000.0, 1_000_000.0],
        }
    }

    #[test]
    fn sweep_runs_measures_and_renders() {
        let config = tiny_config();
        let points = run_sweep(config);
        assert_eq!(points.len(), 2);
        for p in &points {
            let issued = p.report.tally.issued;
            assert_eq!(issued.total(), 300);
            assert_eq!(p.report.read_lat.count(), issued.gets);
            assert_eq!(p.report.write_lat.count(), issued.sets);
        }
        // The impossible point saturates: nearly every arrival is late.
        assert!(points[1].report.late > points[1].report.tally.issued.total() / 2);
        let table = render_table(&points);
        assert!(table.contains("offered/s"));
    }

    /// The open-loop engine's op stream is a pure function of the seed
    /// (the closed-loop engine's is pinned by `BENCH_kv.json`).
    #[test]
    fn issued_counts_replay_across_sweeps() {
        let (first, second) = (run_sweep(tiny_config()), run_sweep(tiny_config()));
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.report.tally.issued, b.report.tally.issued);
        }
        assert_eq!(first[0].report.tally.issued, first[1].report.tally.issued);
    }

    #[test]
    fn gate_passes_measured_runs_and_rejects_an_escaped_read() {
        let mut points = run_sweep(tiny_config());
        gate(&points).expect("every issued read was measured");
        // A doctored point whose histogram is one read short trips it.
        let short = ssync_core::Histogram::new();
        for _ in 1..points[1].report.tally.issued.gets {
            short.record(1_000);
        }
        points[1].report.read_lat = short.snapshot();
        let err = gate(&points).expect_err("an unmeasured read must trip");
        assert!(
            err.contains("escaped the histogram"),
            "unexpected error: {err}"
        );
        assert!(gate(&[]).is_err(), "an empty sweep proves nothing");
    }

    #[test]
    fn knee_finds_the_first_shortfall_point() {
        // Synthetic points: a tiny live run completes inside the ring
        // buffering, so its "achieved" rate says nothing about
        // saturation — the knee rule is tested on doctored reports,
        // each `achieved` reads over one second.
        let mk = |offered: f64, achieved: u64| {
            let mut report = LoadReport {
                wall: std::time::Duration::from_secs(1),
                ..Default::default()
            };
            report.tally.issued.gets = achieved;
            LatPoint {
                offered_ops_per_sec: offered,
                report,
            }
        };
        let points = vec![
            mk(10_000.0, 9_950),
            mk(20_000.0, 19_100),
            mk(40_000.0, 30_000),
            mk(80_000.0, 31_000),
        ];
        let k = knee(&points).expect("two points fall short");
        assert_eq!(k.offered_ops_per_sec, 40_000.0);
        assert!(knee(&points[..2]).is_none(), "within 10% is keeping up");
    }
}
