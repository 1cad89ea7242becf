//! The untraced run of one workload — repeated timed set-up, warm-up,
//! rtt phase, throughput phase, the workload's event, audit — and the
//! two events themselves (also replayed by the traced run).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use ssync_cluster::{run_reshard_coordinator, ClusterClient, ReshardSpec};
use ssync_repl::{FaultPlan, OpLog};

use crate::driver::{
    issue_blocking, issue_pipelined, steady, tput_window, Load, Steady, Stream, Via,
};
use crate::gen::{Plan, Rng, Stack, WorkloadSpec, BATCH, CHUNK};
use crate::host::peak_rss_mb;
use crate::oracle::Tally;
use crate::stacks::{cluster_stack, repl_stack, srv_stack, ClusterCtx, Store, FLEET};
use crate::stats::Windowed;

/// Reads the srv workloads keep in flight in their throughput phase
/// (the other stacks' clients have no pipelined path: they block).
const PIPELINE_DEPTH: usize = 16;

/// What the failover event saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct FailoverOut {
    pub failovers: u64,
    /// Leader death to promotion, as the group's map recorded it.
    pub promote_us: f64,
    /// The longest single client call of the event: the gap the
    /// generator saw while the shard had no leader.
    pub client_gap_us: f64,
    pub from_log: u64,
    pub fenced: u64,
    pub redirects: u64,
    pub lost_to_retry: u64,
}

impl FailoverOut {
    pub fn fields(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("failovers", self.failovers as f64),
            ("promote_us", self.promote_us),
            ("client_gap_us", self.client_gap_us),
            ("from_log", self.from_log as f64),
            ("fenced", self.fenced as f64),
            ("redirects", self.redirects as f64),
            ("lost_to_retry", self.lost_to_retry as f64),
        ]
    }
}

/// The failover event: a fresh sync group whose leader is scheduled to
/// die right after acknowledging a seeded write, with the generator
/// issuing straight through the promotion. Exactly-once retries mean
/// the oracle keeps checking every reply and the survivor's contents.
pub fn failover_event(spec: &WorkloadSpec, seed: u64, tally: &mut Tally) -> FailoverOut {
    let mut load = Load::new(spec, seed, Stream::Failover);
    let crash_at = 2000 + Rng::new(seed ^ 0xFA11_07E5).below(4000);
    // Long enough that the crash (at a write index below 6000, in a
    // mix that is at least a quarter writes) lands well inside.
    let ops = 32 * 1024;
    let plan = FaultPlan::primary_crashes(vec![crash_at]);
    let (_, (gap_ns, counters), end) = repl_stack(spec, &mut load, &plan, |load, client| {
        let mut gap_ns = 0;
        for _ in 0..ops {
            let op = load.gen.next_op();
            gap_ns = gap_ns.max(load.exec::<_, true>(&Via(client), op));
        }
        (gap_ns, (client.redirects(), client.lost_to_retry()))
    });
    load.oracle.expect(end.failovers == 1, || {
        format!("failover event: {} failovers, want 1", end.failovers)
    });
    tally.absorb(load.oracle);
    FailoverOut {
        failovers: end.failovers,
        promote_us: end
            .promotions
            .first()
            .map_or(0.0, |d| d.as_secs_f64() * 1e6),
        client_gap_us: gap_ns as f64 / 1e3,
        from_log: end.nodes.iter().map(|n| n.from_log).sum(),
        fenced: end.nodes.iter().map(|n| n.fenced).sum(),
        redirects: counters.0,
        lost_to_retry: counters.1,
    }
}

/// What the reshard event saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReshardOut {
    /// Coordinator start to cutover published and sources cleaned.
    pub migration_ms: f64,
    pub entries_migrated: u64,
    pub attempts: u64,
    pub redirects: u64,
    pub during_ops_per_s: f64,
    pub post_split_ops_per_s: f64,
}

impl ReshardOut {
    pub fn fields(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("migration_ms", self.migration_ms),
            ("entries_migrated", self.entries_migrated as f64),
            ("attempts", self.attempts as f64),
            ("redirects", self.redirects as f64),
            ("during_ops_per_s", self.during_ops_per_s),
            ("post_split_ops_per_s", self.post_split_ops_per_s),
        ]
    }
}

/// The reshard event: a live 1 → 2 split on a fourth thread while the
/// generator keeps issuing, then one post-split window. How many ops
/// fit inside the migration is the one op count of a run that is not
/// fixed in advance — it *is* the measurement.
pub fn reshard_event(
    load: &mut Load,
    client: &ClusterClient<'_>,
    ctx: &ClusterCtx<'_>,
    plan: &Plan,
) -> ReshardOut {
    let stores: Vec<&Store> = ctx.stores.iter().collect();
    let logs: Vec<&OpLog> = ctx.logs.iter().collect();
    let done = AtomicBool::new(false);
    let mut ops = Vec::with_capacity(BATCH as usize);
    let target = Via(client);
    let (report, migration, during_ops_per_s) = std::thread::scope(|s| {
        let coordinator = s.spawn(|| {
            let t0 = Instant::now();
            let spec = ReshardSpec::clean(FLEET);
            let report = run_reshard_coordinator(ctx.map, &stores, &logs, ctx.mig, &spec);
            let wall = t0.elapsed();
            done.store(true, Ordering::Release);
            (report, wall)
        });
        let t0 = Instant::now();
        let mut issued = 0u64;
        while !done.load(Ordering::Acquire) {
            load.gen.fill(&mut ops, BATCH);
            for &op in &ops {
                load.exec::<_, false>(&target, op);
            }
            issued += BATCH;
        }
        let during = issued as f64 / t0.elapsed().as_secs_f64();
        let (report, wall) = coordinator.join().expect("coordinator thread");
        (report, wall, during)
    });
    // A quarter window: with both nodes live there are three busy
    // threads on the reference host's two processors, and a full one
    // would take as long as the migration.
    let post_split_ops = (plan.tput_window_ops / 4).next_multiple_of(CHUNK);
    let post_split_ops_per_s = tput_window(load, post_split_ops, |load, ops| {
        issue_blocking(load, &target, ops)
    });
    load.oracle
        .expect(report.attempts == 1 && report.final_epoch == 2, || {
            format!("reshard event: {report:?}")
        });
    ReshardOut {
        migration_ms: migration.as_secs_f64() * 1e3,
        entries_migrated: report.entries_migrated,
        attempts: report.attempts,
        redirects: client.redirects(),
        during_ops_per_s,
        post_split_ops_per_s,
    }
}

/// Everything the untraced run of one workload measured.
pub struct Untraced {
    pub setup_s: Windowed,
    pub steady: Steady,
    pub peak_rss_mb: f64,
    pub failover: Option<FailoverOut>,
    pub reshard: Option<ReshardOut>,
    pub tally: Tally,
}

/// One set-up and tear-down of the workload's stack, nothing issued in
/// between beyond the first round trip.
fn setup_only(spec: &WorkloadSpec, seed: u64, tally: &mut Tally) -> f64 {
    let mut load = Load::new(spec, seed, Stream::Steady);
    let setup_s = match spec.stack {
        Stack::Srv => srv_stack(spec, &mut load, |_, _, _| ()).0,
        Stack::Repl => repl_stack(spec, &mut load, &FaultPlan::none(), |_, _| ()).0,
        Stack::Cluster => cluster_stack(spec, &mut load, |_, _, _| ()).0,
    };
    tally.absorb(load.oracle);
    setup_s
}

pub fn run_untraced(spec: &WorkloadSpec, seed: u64, plan: &Plan) -> Untraced {
    let mut tally = Tally::default();
    // Set-up takes tens of milliseconds: a single one would mostly
    // measure where the scheduler happened to put the new threads.
    let repeats = if plan.windows == 1 {
        1
    } else {
        spec.setups - 1
    };
    let mut setups: Vec<f64> = (0..repeats)
        .map(|_| setup_only(spec, seed, &mut tally))
        .collect();

    let mut load = Load::new(spec, seed, Stream::Steady);
    let mut failover = None;
    let mut reshard = None;
    let (setup_s, steady) = match spec.stack {
        Stack::Srv => {
            let (setup_s, steady, _) = srv_stack(spec, &mut load, |load, client, _| {
                steady(load, &Via(client), plan, |load, ops| {
                    issue_pipelined(load, client, ops, PIPELINE_DEPTH)
                })
            });
            (setup_s, steady)
        }
        Stack::Repl => {
            let none = FaultPlan::none();
            let (setup_s, steady, end) = repl_stack(spec, &mut load, &none, |load, client| {
                steady(load, &Via(client), plan, |load, ops| {
                    issue_blocking(load, &Via(client), ops)
                })
            });
            load.oracle.expect(end.failovers == 0, || {
                format!("steady phases saw {} failovers", end.failovers)
            });
            failover = Some(failover_event(spec, seed, &mut tally));
            (setup_s, steady)
        }
        Stack::Cluster => {
            let (setup_s, (steady, event), _) =
                cluster_stack(spec, &mut load, |load, client, ctx| {
                    let steady = steady(load, &Via(client), plan, |load, ops| {
                        issue_blocking(load, &Via(client), ops)
                    });
                    (steady, reshard_event(load, client, ctx, plan))
                });
            reshard = Some(event);
            (setup_s, steady)
        }
    };
    setups.push(setup_s);
    tally.absorb(load.oracle);
    Untraced {
        setup_s: Windowed::of(&setups, setups.len() as u64),
        steady,
        peak_rss_mb: peak_rss_mb(),
        failover,
        reshard,
        tally,
    }
}
