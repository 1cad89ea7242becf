//! The benchmark's metric vocabulary: every name a run can print, with
//! its unit and direction. `BENCHMARK.json` at the repository root
//! lists the same names (a test below holds the two together); the
//! regression bounds live only there.

/// `(name, unit, better)`.
pub type MetricDef = (&'static str, &'static str, &'static str);

const LOWER: &str = "lower";
const HIGHER: &str = "higher";

/// What a user of the serving stack sees. Reported by every untraced
/// run, for every workload.
pub const END_TO_END: [MetricDef; 7] = [
    ("setup_s", "s", LOWER),
    ("ops_per_s", "1/s", HIGHER),
    ("read_rtt_p50_us", "us", LOWER),
    ("write_rtt_p50_us", "us", LOWER),
    ("read_rtt_p90_us", "us", LOWER),
    ("write_rtt_p90_us", "us", LOWER),
    ("peak_rss_mb", "MiB", LOWER),
];

/// What the traced run of every workload reports, in ladder order:
/// the rungs every topology contains, each measured (never a
/// placeholder) on every workload.
pub const PER_LAYER: [MetricDef; 35] = [
    ("loadgen.next_op_ns", "ns", LOWER),
    ("loadgen.clock_ns", "ns", LOWER),
    ("loadgen.oracle_ns", "ns", LOWER),
    ("locks.ticket_pair_ns", "ns", LOWER),
    ("core.epoch_pin_ns", "ns", LOWER),
    ("core.hist_record_ns", "ns", LOWER),
    ("kv.get_ns", "ns", LOWER),
    ("kv.set_ns", "ns", LOWER),
    ("kv.cas_ns", "ns", LOWER),
    ("kv.delete_ns", "ns", LOWER),
    ("kv.get_pow2_ns", "ns", LOWER),
    ("kv.apply_replicated_ns", "ns", LOWER),
    ("kv.dump_range_page_ns", "ns", LOWER),
    ("kv.hit_share", "share", HIGHER),
    ("kv.read_fallbacks", "count", LOWER),
    ("kv.maintenance_runs", "count", LOWER),
    ("kv.epochs_advanced", "count", HIGHER),
    ("kv.nodes_reclaimed", "count", HIGHER),
    ("kv.reclaim_backlog_max", "count", LOWER),
    ("srv.wire.req_codec_ns", "ns", LOWER),
    ("srv.wire.resp_codec_ns", "ns", LOWER),
    ("srv.wire.frames_per_op", "count", LOWER),
    ("mp.ring_hop_ns", "ns", LOWER),
    ("mp.ring_echo_rtt_ns", "ns", LOWER),
    ("mp.hub_poll_ns", "ns", LOWER),
    ("srv.router.route_ns", "ns", LOWER),
    ("srv.service.rtt_get_ns", "ns", LOWER),
    ("srv.service.rtt_write_ns", "ns", LOWER),
    ("srv.service.self_ns", "ns", LOWER),
    ("srv.service.queue_wait_p50_ns", "ns", LOWER),
    ("srv.service.apply_p50_ns", "ns", LOWER),
    ("srv.service.requests", "count", HIGHER),
    ("srv.service.malformed", "count", LOWER),
    ("trace.closure_err_share", "share", LOWER),
    ("trace.overhead_share", "share", LOWER),
];

/// The cluster layer's metrics, reported after [`PER_LAYER`] by the
/// traced run of `cluster_reshard` only. Not in `BENCHMARK.json`: a
/// listed metric is printed for every workload, and on a topology
/// without the layer these could only be constants.
pub const CLUSTER_LAYER: [MetricDef; 9] = [
    ("cluster.self_ns", "ns", LOWER),
    ("cluster.redirects", "count", LOWER),
    ("cluster.ops_deferred", "count", LOWER),
    ("cluster.entries_migrated", "count", LOWER),
    ("cluster.attempts", "count", LOWER),
    ("cluster.migration_ms", "ms", LOWER),
    ("cluster.during_ops_per_s", "1/s", HIGHER),
    ("cluster.post_split_ops_per_s", "1/s", HIGHER),
    ("cluster.dip_pct", "%", LOWER),
];

/// The replication layer's metrics, likewise for `repl_sync` only
/// (which is not in `BENCHMARK.json` at all; see the README).
pub const REPL_LAYER: [MetricDef; 12] = [
    ("repl.read_self_ns", "ns", LOWER),
    ("repl.write_self_ns", "ns", LOWER),
    ("repl.entries_per_write", "count", LOWER),
    ("repl.replica_serve_share", "share", HIGHER),
    ("repl.fallbacks", "count", LOWER),
    ("repl.redirects", "count", LOWER),
    ("repl.lost_to_retry", "count", LOWER),
    ("repl.failovers", "count", LOWER),
    ("repl.promote_us", "us", LOWER),
    ("repl.client_gap_us", "us", LOWER),
    ("repl.from_log", "count", LOWER),
    ("repl.fenced", "count", LOWER),
];

/// Ungated extras of the untraced run, carried in the run files.
pub const EXTRA: [MetricDef; 2] = [
    ("read_rtt_p99_us", "us", LOWER),
    ("write_rtt_p99_us", "us", LOWER),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .chain(&CLUSTER_LAYER)
        .chain(&REPL_LAYER)
        .chain(&EXTRA)
        .find(|(n, _, _)| *n == name)
        .map(|&(_, unit, _)| unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{RUN_SECONDS, WORKLOADS};
    use crate::json::Json;

    /// `BENCHMARK.json` is the contract later PRs are judged by; the
    /// binary must print exactly the names, units and directions it
    /// lists, for exactly the workloads it lists.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let contract = Json::parse_all(&text).expect("valid JSON").remove(0);
        let listed = |section: &str| -> Vec<(String, String, String)> {
            contract
                .get(section)
                .and_then(Json::as_array)
                .expect("section")
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let ours = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
        let workloads: Vec<(&str, &str)> = contract
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                let field = |k: &str| w.get(k).and_then(Json::as_str).expect(k);
                (field("name"), field("why"))
            })
            .collect();
        let gated: Vec<(&str, &str)> = WORKLOADS
            .iter()
            .filter(|w| w.gated)
            .map(|w| (w.name, w.why))
            .collect();
        assert_eq!(workloads, gated);
        assert_eq!(
            contract.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS as f64)
        );
        for metric in contract.get("end_to_end").and_then(Json::as_array).unwrap() {
            let bound = metric.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }
}
