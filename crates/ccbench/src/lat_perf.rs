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
//! YCSB-B) at one offered rate and reports achieved throughput plus read/write latency
//! percentiles from the log-bucketed [`HistogramSnapshot`]. Issued op
//! counts are a pure function of the seed — the committed
//! `BENCH_lat.json`'s deterministic fields rely on that — while
//! percentiles are whatever the host gives.

use ssync_core::stats::{HistogramSnapshot, HIST_BUCKETS, HIST_MAX_REL_ERROR, HIST_SUB_BITS};
use ssync_locks::TicketLock;
use ssync_srv::router::ShardRouter;
use ssync_srv::workload::{
    run_open_loop, KeyDist, Mix, OpenLoopReport, OpenLoopSpec, ValueSize, WorkloadSpec,
};

use crate::json::Doc;

/// Key-operations each pacing worker issues per point in a full run.
pub const PERF_OPS_PER_WORKER: u64 = 4_000;

/// Key-operations per worker per point in `--smoke` mode.
pub const SMOKE_OPS_PER_WORKER: u64 = 250;

/// Keyspace size of a full run.
pub const PERF_KEYS: u64 = 4_096;

/// Keyspace size in `--smoke` mode.
pub const SMOKE_KEYS: u64 = 512;

/// Client endpoints over the ring mesh in a full run — two pacing
/// threads fan out over hundreds of connections, deepening server-side
/// buffering the way hundreds of physical clients would.
pub const PERF_CONNECTIONS: usize = 256;

/// Client endpoints in `--smoke` mode.
pub const SMOKE_CONNECTIONS: usize = 16;

/// Master seed (op streams and arrival schedules derive from it).
pub const SEED: u64 = 0x7A11_CAFE;

/// Ring depth per connection.
pub const RING_DEPTH: usize = 64;

/// Timed reads in flight per connection and shard.
pub const RING_WINDOW: usize = 16;

/// Shards of the serving stack under the sweep.
pub const SHARDS: usize = 2;

/// Offered aggregate rates of a full sweep, key-ops/sec. Spans from
/// comfortably under the 1-core stack's capacity to well past it, so
/// the knee lands inside the curve.
pub const PERF_OFFERED: &[f64] = &[
    20_000.0, 50_000.0, 100_000.0, 200_000.0, 400_000.0, 800_000.0,
];

/// Offered rates in `--smoke` mode: one underloaded point for the
/// latency-ceiling gate, one overloaded point exercising lateness.
pub const SMOKE_OFFERED: &[f64] = &[5_000.0, 400_000.0];

/// Read-latency p99 ceiling the smoke gate enforces on the *lowest*
/// offered point, ns. Generous — an underloaded request/reply on a
/// noisy CI box is microseconds to low milliseconds — but a blocking
/// regression in the send path pushes p99 toward the run's wall time
/// and trips it by orders of magnitude.
pub const SMOKE_P99_CEILING_NS: u64 = 250_000_000;

/// The sweep's configuration, fixed per invocation.
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
    /// Scales the config to the host. Pacing workers stay at two even
    /// on big boxes: open-loop accuracy wants few, evenly scheduled
    /// arrival threads, and connection count — not thread count — is
    /// the client-scaling axis.
    pub fn for_host(smoke: bool) -> LatSweepConfig {
        LatSweepConfig {
            workers: 2,
            connections: if smoke {
                SMOKE_CONNECTIONS
            } else {
                PERF_CONNECTIONS
            },
            ops_per_worker: if smoke {
                SMOKE_OPS_PER_WORKER
            } else {
                PERF_OPS_PER_WORKER
            },
            keys: if smoke { SMOKE_KEYS } else { PERF_KEYS },
            offered: if smoke { SMOKE_OFFERED } else { PERF_OFFERED },
        }
    }
}

/// One measured point of the offered-load sweep.
#[derive(Debug, Clone)]
pub struct LatPoint {
    /// The offered aggregate rate this point targeted.
    pub offered_ops_per_sec: f64,
    /// What the open-loop engine measured at that rate.
    pub report: OpenLoopReport,
}

/// Runs one offered-load point on a fresh serving stack.
pub fn run_point(config: LatSweepConfig, offered_ops_per_sec: f64) -> LatPoint {
    let buckets_per_shard = (config.keys as usize / SHARDS).clamp(64, 4096);
    let router: ShardRouter<TicketLock> = ShardRouter::new(SHARDS, buckets_per_shard, 16);
    let spec = OpenLoopSpec {
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
        offered_ops_per_sec,
        depth: RING_DEPTH,
        window: RING_WINDOW,
    };
    LatPoint {
        offered_ops_per_sec,
        report: run_open_loop(&router, &spec),
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
        .find(|p| p.report.achieved_ops_per_sec < 0.9 * p.offered_ops_per_sec)
}

/// The CI gate `--smoke` enforces: on the *lowest* offered point the
/// read path must be comfortably fast (p99 under
/// [`SMOKE_P99_CEILING_NS`]), and on *every* point each issued read
/// must appear in the latency histogram — the structural
/// no-coordinated-omission check.
///
/// # Errors
///
/// A human-readable description of the first violated ceiling.
pub fn smoke_gate(points: &[LatPoint]) -> Result<(), String> {
    for p in points {
        if p.report.read_lat.count() != p.report.issued.gets {
            return Err(format!(
                "offered {:.0}: {} reads issued but {} measured — reads escaped the histogram",
                p.offered_ops_per_sec,
                p.report.issued.gets,
                p.report.read_lat.count()
            ));
        }
    }
    let lowest = points
        .iter()
        .min_by(|a, b| a.offered_ops_per_sec.total_cmp(&b.offered_ops_per_sec))
        .ok_or_else(|| "no points ran".to_string())?;
    let p99 = lowest
        .report
        .read_lat
        .quantile(0.99)
        .ok_or_else(|| "lowest point recorded no reads".to_string())?;
    if p99 > SMOKE_P99_CEILING_NS {
        return Err(format!(
            "offered {:.0}: read p99 {} ns exceeds the {} ns ceiling",
            lowest.offered_ops_per_sec, p99, SMOKE_P99_CEILING_NS
        ));
    }
    Ok(())
}

fn fmt_q(h: &HistogramSnapshot, q: f64) -> String {
    match h.quantile(q) {
        Some(v) => v.to_string(),
        None => "null".to_string(),
    }
}

/// Renders the sweep as a plain-text table.
pub fn render_table(points: &[LatPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
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
            r.achieved_ops_per_sec,
            r.issued.total(),
            r.late as f64 * 100.0 / r.issued.total().max(1) as f64,
            us(r.read_lat.quantile(0.5)),
            us(r.read_lat.quantile(0.99)),
            us(r.read_lat.quantile(0.999)),
            us(r.read_lat.max()),
            us(r.write_lat.quantile(0.99)),
        );
    }
    out
}

/// Renders the sweep as the `BENCH_lat.json` document. Deterministic
/// fields per point: the offered rate and the issued op counts (pure
/// functions of the seed). Measured fields: achieved rate, lateness,
/// wall time, and every percentile.
pub fn render_json(points: &[LatPoint], config: LatSweepConfig) -> String {
    let mut doc = Doc::open(
        "ssync-lat-perf-v1",
        "open-loop: latency from intended Poisson arrival to reply drain, ns, log-bucketed histogram midpoints; offered/issued are deterministic per seed, achieved/late/percentiles/wall are host-measured",
    );
    doc.member(
        &format!(
            "\"config\": {{\"workers\": {}, \"connections\": {}, \"ops_per_worker\": {}, \"keys\": {}, \"seed\": {}, \"shards\": {}, \"ring_depth\": {}, \"ring_window\": {}, \"mix\": \"ycsb-b\", \"dist\": \"zipf-0.99\"}}",
            config.workers,
            config.connections,
            config.ops_per_worker,
            config.keys,
            SEED,
            SHARDS,
            RING_DEPTH,
            RING_WINDOW
        ),
        true,
    );
    doc.member(
        &format!(
            "\"histogram\": {{\"sub_bits\": {HIST_SUB_BITS}, \"buckets\": {HIST_BUCKETS}, \"max_rel_error\": {HIST_MAX_REL_ERROR:.5}}}"
        ),
        true,
    );
    let items: Vec<String> = points
        .iter()
        .map(|p| {
            let r = &p.report;
            format!(
                "{{\"offered_ops_per_sec\": {:.0}, \"gets\": {}, \"sets\": {}, \"cas\": {}, \"deletes\": {}, \"achieved_ops_per_sec\": {:.0}, \"late\": {}, \"wall_ms\": {:.2}, \"hits\": {}, \"misses\": {}, \"read_p50_ns\": {}, \"read_p90_ns\": {}, \"read_p99_ns\": {}, \"read_p999_ns\": {}, \"read_max_ns\": {}, \"write_p50_ns\": {}, \"write_p99_ns\": {}, \"write_max_ns\": {}}}",
                p.offered_ops_per_sec,
                r.issued.gets,
                r.issued.sets,
                r.issued.cas,
                r.issued.deletes,
                r.achieved_ops_per_sec,
                r.late,
                r.wall.as_secs_f64() * 1000.0,
                r.hits,
                r.misses,
                fmt_q(&r.read_lat, 0.5),
                fmt_q(&r.read_lat, 0.9),
                fmt_q(&r.read_lat, 0.99),
                fmt_q(&r.read_lat, 0.999),
                fmt_q(&r.read_lat, 1.0),
                fmt_q(&r.write_lat, 0.5),
                fmt_q(&r.write_lat, 0.99),
                fmt_q(&r.write_lat, 1.0),
            )
        })
        .collect();
    doc.array("points", &items, false);
    doc.finish()
}

/// Runs the sweep twice and reports the first point whose issued op
/// counts differ — the determinism gate CI runs in smoke mode. On
/// success returns the first run's points.
///
/// # Errors
///
/// A human-readable description of the first mismatching point.
pub fn check_determinism(config: LatSweepConfig) -> Result<Vec<LatPoint>, String> {
    let first = run_sweep(config);
    let second = run_sweep(config);
    for (a, b) in first.iter().zip(second.iter()) {
        if a.report.issued != b.report.issued {
            return Err(format!(
                "issued op counts differ at offered {:.0}: {:?} vs {:?}",
                a.offered_ops_per_sec, a.report.issued, b.report.issued
            ));
        }
    }
    Ok(first)
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
            assert_eq!(p.report.issued.total(), 300);
            assert_eq!(p.report.read_lat.count(), p.report.issued.gets);
            assert_eq!(p.report.write_lat.count(), p.report.issued.sets);
        }
        // The impossible point saturates: nearly every arrival is late.
        assert!(points[1].report.late > points[1].report.issued.total() / 2);
        let table = render_table(&points);
        assert!(table.contains("offered/s"));
        let json = render_json(&points, config);
        assert!(json.contains("\"ssync-lat-perf-v1\""));
        assert!(json.contains("\"offered_ops_per_sec\": 4000"));
        assert!(json.contains("\"read_p99_ns\": "));
        assert!(json.contains(&format!("\"buckets\": {HIST_BUCKETS}")));
    }

    #[test]
    fn issued_counts_replay_across_sweeps() {
        let points = check_determinism(tiny_config()).expect("deterministic");
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].report.issued, points[1].report.issued);
    }

    #[test]
    fn smoke_gate_passes_sane_runs_and_rejects_slow_ones() {
        let config = tiny_config();
        let mut points = run_sweep(config);
        smoke_gate(&points).expect("a tiny local run is far under the ceiling");
        // A doctored lowest point with a multi-second p99 trips it.
        let slow = ssync_core::Histogram::new();
        for _ in 0..points[0].report.issued.gets {
            slow.record(3_000_000_000);
        }
        points[0].report.read_lat = slow.snapshot();
        let err = smoke_gate(&points).expect_err("ceiling must trip");
        assert!(err.contains("ceiling"), "unexpected error: {err}");
    }

    #[test]
    fn knee_finds_the_first_shortfall_point() {
        // Synthetic points: a tiny live run completes inside the ring
        // buffering, so its "achieved" rate says nothing about
        // saturation — the knee rule is tested on doctored reports.
        let mk = |offered: f64, achieved: f64| LatPoint {
            offered_ops_per_sec: offered,
            report: OpenLoopReport {
                achieved_ops_per_sec: achieved,
                ..Default::default()
            },
        };
        let points = vec![
            mk(10_000.0, 9_950.0),
            mk(20_000.0, 19_100.0),
            mk(40_000.0, 30_000.0),
            mk(80_000.0, 31_000.0),
        ];
        let k = knee(&points).expect("two points fall short");
        assert_eq!(k.offered_ops_per_sec, 40_000.0);
        assert!(knee(&points[..2]).is_none(), "within 10% is keeping up");
    }
}
