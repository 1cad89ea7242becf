//! The simulator's own performance harness (`sim-perf`).
//!
//! The ROADMAP treats the simulator as a hot path in its own right:
//! every figure regenerates through the event loop, so engine-level
//! regressions multiply across the whole artifact suite. This module
//! runs a fixed set of representative workloads — contended and
//! uncontended locks, the atomic-op stress, message-passing client/
//! server — on all four platforms and reports, per run: events
//! processed, completed operations and events per op — which replay
//! exactly, and are what `BENCH_sim.json` commits — plus wall time and
//! events per wall-second, which the `sim-perf` table prints for a
//! human, labelled host-measured.
//!
//! Events-per-op is the engine-health number: the wake-on-write
//! wait-lists collapse spin polling, so a contended-lock op should cost
//! tens of events, not thousands. The regression tests in
//! `tests/sim_perf_regressions.rs` pin ceilings on it.

use std::fmt::Write as _;
use std::time::Instant;

use ssync_core::topology::Platform;
use ssync_sim::Sim;
use ssync_simsync::locks::{make_lock, LockConfig, SimLockKind};
use ssync_simsync::mp::SsmpChannel;
use ssync_simsync::workloads::atomics::{atomic_stress, stress_pause, AtomicKind};
use ssync_simsync::workloads::lock_stress::lock_stress;
use ssync_simsync::workloads::mp_bench::{mp_client, polling_server, Chan};

/// Simulated window of a `sim-perf` run, in cycles.
pub const PERF_WINDOW: u64 = 600_000;

/// One measured workload run.
#[derive(Debug, Clone)]
pub struct PerfResult {
    /// Workload name (`lock-contended`, `atomics-fai`, ...).
    pub workload: &'static str,
    /// Platform display name.
    pub platform: &'static str,
    /// Simulated threads.
    pub threads: usize,
    /// Simulated window in cycles.
    pub window: u64,
    /// Host wall time of the run, in milliseconds.
    pub wall_ms: f64,
    /// Events the engine processed.
    pub events: u64,
    /// Application-level operations completed.
    pub ops: u64,
}

impl PerfResult {
    /// Engine events per completed operation.
    pub fn events_per_op(&self) -> f64 {
        self.events as f64 / self.ops.max(1) as f64
    }

    /// Engine events per host wall-second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            return 0.0;
        }
        self.events as f64 * 1000.0 / self.wall_ms
    }
}

fn run_sim(
    workload: &'static str,
    platform: Platform,
    threads: usize,
    window: u64,
    build: impl FnOnce(&mut Sim),
) -> PerfResult {
    let start = Instant::now();
    let mut sim = Sim::new(platform, 0xBE7C);
    build(&mut sim);
    sim.run_until(window);
    PerfResult {
        workload,
        platform: platform.name(),
        threads,
        window,
        wall_ms: start.elapsed().as_secs_f64() * 1000.0,
        events: sim.events(),
        ops: sim.total_ops(),
    }
}

/// A lock-stress run: `threads` threads over `n_locks` locks.
fn lock_case(
    workload: &'static str,
    platform: Platform,
    kind: SimLockKind,
    threads: usize,
    n_locks: usize,
    window: u64,
) -> PerfResult {
    run_sim(workload, platform, threads, window, |sim| {
        let cfg = LockConfig::for_placement(sim, threads);
        let mut locks = Vec::with_capacity(n_locks);
        let mut data = Vec::with_capacity(n_locks);
        for _ in 0..n_locks {
            locks.push(make_lock(kind, sim, &cfg));
            data.push(sim.alloc_line_for_core(cfg.home_core));
        }
        for tid in 0..threads {
            let (locks, data) = (locks.clone(), data.clone());
            sim.spawn_on_core(cfg.thread_cores[tid], |cpu| lock_stress(cpu, locks, data));
        }
    })
}

fn atomics_case(platform: Platform, threads: usize, window: u64) -> PerfResult {
    run_sim("atomics-fai", platform, threads, window, |sim| {
        let cores = sim.topology().placement(threads);
        let line = sim.alloc_line_for_core(cores[0]);
        let pause = stress_pause(sim.topology(), &cores);
        for &c in &cores {
            sim.spawn_on_core(c, move |cpu| {
                atomic_stress(cpu, line, AtomicKind::Fai, pause)
            });
        }
    })
}

fn mp_case(platform: Platform, n_clients: usize, window: u64) -> PerfResult {
    run_sim("mp-client-server", platform, n_clients + 1, window, |sim| {
        let topo = sim.topology().clone();
        let cores = topo.placement(n_clients + 1);
        let server_core = cores[0];
        let mut requests = Vec::new();
        let mut replies = Vec::new();
        for i in 0..n_clients {
            requests.push(SsmpChannel::new(sim, server_core));
            replies.push(Chan::Ssmp(SsmpChannel::new(sim, cores[i + 1])));
        }
        let (reqs, reps) = (requests.clone(), Some(replies.clone()));
        sim.spawn_on_core(server_core, |cpu| polling_server(cpu, reqs, reps));
        for i in 0..n_clients {
            let (request, reply) = (Chan::Ssmp(requests[i].clone()), Some(replies[i].clone()));
            sim.spawn_on_core(cores[i + 1], |cpu| mp_client(cpu, request, reply));
        }
    })
}

/// Runs the full representative suite: four workloads on each of the
/// four platforms.
pub fn run_suite(window: u64) -> Vec<PerfResult> {
    let mut out = Vec::new();
    for p in Platform::ALL {
        let n = p.topology().num_cores();
        out.push(lock_case(
            "lock-contended",
            p,
            SimLockKind::Ttas,
            n,
            1,
            window,
        ));
        out.push(lock_case(
            "lock-low-contention",
            p,
            SimLockKind::Ticket,
            n,
            128,
            window,
        ));
        out.push(atomics_case(p, n, window));
        out.push(mp_case(p, (n - 1).min(8), window));
    }
    out
}

/// Renders the suite as a plain-text table for a human: the measured
/// columns live here and nowhere else.
pub fn render_table(results: &[PerfResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "host-measured, single-shot (wall ms, events/sec): not committed, not a result"
    );
    let _ = writeln!(
        out,
        "{:<20} {:>8} {:>8} {:>10} {:>12} {:>10} {:>12} {:>14}",
        "workload", "platform", "threads", "wall ms", "events", "ops", "events/op", "events/sec"
    );
    for r in results {
        let _ = writeln!(
            out,
            "{:<20} {:>8} {:>8} {:>10.1} {:>12} {:>10} {:>12.1} {:>14.0}",
            r.workload,
            r.platform,
            r.threads,
            r.wall_ms,
            r.events,
            r.ops,
            r.events_per_op(),
            r.events_per_sec()
        );
    }
    out
}

/// Renders the suite as the `BENCH_sim.json` document: the engine's
/// event and op counts, which replay exactly, so the committed file is
/// the golden `sim-perf --check` and the crate's tests compare against.
/// Hand-rolled JSON: the workspace is offline and serde is not among
/// the vendored shims. The layout is part of the artifact's diffable
/// contract: top-level members one per line at two spaces, array items
/// one per line at four, with a comma on every item but the last.
pub fn render_json(results: &[PerfResult]) -> String {
    let mut out = String::from("{\n  \"schema\": \"ssync-sim-perf-v2\",\n");
    out.push_str("  \"unit_note\": \"every field replays; regenerate with sim-perf, verify with sim-perf --check; events are engine events\",\n");
    out.push_str("  \"workloads\": [\n");
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"workload\": \"{}\", \"platform\": \"{}\", \"threads\": {}, \"window_cycles\": {}, \"events\": {}, \"ops\": {}, \"events_per_op\": {:.2}}}{sep}",
            r.workload,
            r.platform,
            r.threads,
            r.window,
            r.events,
            r.ops,
            r.events_per_op(),
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A window a twentieth of the committed one: the suite's shape
    /// and the event-leanness bound don't need more.
    const SHORT_WINDOW: u64 = 30_000;

    #[test]
    fn short_suite_runs_and_renders() {
        let results = run_suite(SHORT_WINDOW);
        assert_eq!(results.len(), 16); // 4 workloads x 4 platforms
        assert!(results.iter().all(|r| r.events > 0));
        assert!(results.iter().all(|r| r.ops > 0));
        let table = render_table(&results);
        assert!(table.contains("lock-contended"));
        let json = render_json(&results);
        assert!(json.contains("\"workloads\""));
        assert!(!json.contains("wall_ms") && !json.contains("events_per_sec"));
    }

    /// The framing over zero, one and several results: an empty array
    /// closes on the line after it opens, and only the last item goes
    /// without a comma.
    #[test]
    fn render_json_frames_any_number_of_results() {
        let result = |ops| PerfResult {
            workload: "w",
            platform: "p",
            threads: 2,
            window: 10,
            wall_ms: 1.5,
            events: 30,
            ops,
        };
        let head = "{\n  \"schema\": \"ssync-sim-perf-v2\",\n  \"unit_note\": \"every field replays; regenerate with sim-perf, verify with sim-perf --check; events are engine events\",\n  \"workloads\": [\n";
        let item = |ops, events_per_op| {
            format!("    {{\"workload\": \"w\", \"platform\": \"p\", \"threads\": 2, \"window_cycles\": 10, \"events\": 30, \"ops\": {ops}, \"events_per_op\": {events_per_op}}}")
        };
        let tail = "  ]\n}\n";
        assert_eq!(render_json(&[]), format!("{head}{tail}"));
        assert_eq!(
            render_json(&[result(4)]),
            format!("{head}{}\n{tail}", item(4, "7.50"))
        );
        assert_eq!(
            render_json(&[result(4), result(3), result(0)]),
            format!(
                "{head}{},\n{},\n{}\n{tail}",
                item(4, "7.50"),
                item(3, "10.00"),
                item(0, "30.00")
            )
        );
    }

    #[test]
    fn contended_locks_stay_event_lean() {
        // The wait-list path keeps a contended handoff to a few events
        // per waiter; the explicit-polling engine spent hundreds (one
        // event every poll period for every spinning thread). The bound
        // scales with the thread count because every waiter legitimately
        // re-polls once per handoff; 10x covers short-window startup
        // transients.
        for r in run_suite(SHORT_WINDOW) {
            if r.workload == "lock-contended" {
                assert!(
                    r.events_per_op() < 10.0 * r.threads as f64,
                    "{} {}: {:.1} events/op at {} threads",
                    r.platform,
                    r.workload,
                    r.events_per_op(),
                    r.threads
                );
            }
        }
    }
}
