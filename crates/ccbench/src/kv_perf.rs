//! The sharded KV service's performance harness (`kv-perf`).
//!
//! Where `sim-perf` watches the simulator engine, this suite watches
//! the *native* serving stack end to end: `ssync-srv` client threads
//! talking to per-shard server threads over `ssync-mp` channels, each
//! shard an `ssync-kv` store under a pluggable `ssync-locks` algorithm.
//! The sweep crosses {lock algorithm × shard count × rw mix} — the axis
//! the paper's Section 6.4 Memcached experiment varies (lock
//! algorithm) plus the ones a production deployment adds (sharding,
//! mix, batching) — on the one configuration the stack has.
//!
//! Per case it measures key-ops/sec, hit rate, CAS outcomes, and
//! maintenance passes (every 64th successful write takes the store's
//! global lock for one epoch-advance attempt and one stripe's
//! collection, work that does not grow with the store). The
//! `kv-perf` binary prints all of that as a table, labelled
//! host-measured, and commits to `BENCH_kv.json` only what replays:
//! the issued op counts and — for the mixes whose every write
//! succeeds — the maintenance cadence. Throughput on this stack is
//! `benchmark/`'s to measure (`ops_per_s`, with windows and spreads).
//!
//! The sweep is followed by the **churn soak** ([`run_churn_soak`]): a
//! deterministic delete/replace-heavy stream that holds the store's
//! retired-node backlog under [`SOAK_BACKLOG_BOUND`] at every round
//! boundary — reclamation running concurrently with traffic, never a
//! `purge_retired` quiescent point — while retiring many times that
//! bound (`churn_soak.nodes_retired`, what a store that freed nothing
//! online would be holding).

use ssync_kv::KvStore;
use ssync_locks::{McsLock, MutexLock, RawLock, TicketLock, TtasLock};
use ssync_srv::router::ShardRouter;
use ssync_srv::workload::{
    run_load, KeyDist, LoadReport, LoadSpec, Mix, OpCounts, ValueSize, WorkloadSpec,
};

use crate::json::Doc;

/// Master seed for every case (the workload derives per-worker
/// streams from it).
pub const SEED: u64 = 0xCAFE_F00D;

/// Ring depth of every case (slots per direction per client-shard
/// pair).
pub const RING_DEPTH: usize = 64;

/// Reads a pipelining client keeps in flight per shard. At most
/// `RING_WINDOW ≤ RING_DEPTH` one-frame requests can be queued per ring,
/// so sends never block (the pipelined-client discipline).
pub const RING_WINDOW: usize = 16;

/// Retired-node backlog the store must never exceed at a round
/// boundary. The churn retires several times this, which is the whole
/// point of the bound.
pub const SOAK_BACKLOG_BOUND: u64 = 2_048;

/// The native lock algorithms the sweep crosses. A subset of the nine:
/// one spin (TTAS), one fair spin (TICKET), one queue (MCS), one
/// blocking (MUTEX) — the four scaling classes of the paper's Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SrvLockKind {
    /// Test-and-test-and-set with back-off.
    Ttas,
    /// Ticket lock with proportional back-off.
    Ticket,
    /// MCS queue lock.
    Mcs,
    /// Spin-then-park mutex (Pthread model).
    Mutex,
}

impl SrvLockKind {
    /// Every algorithm in the sweep.
    pub const ALL: [SrvLockKind; 4] = [
        SrvLockKind::Ttas,
        SrvLockKind::Ticket,
        SrvLockKind::Mcs,
        SrvLockKind::Mutex,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            SrvLockKind::Ttas => TtasLock::NAME,
            SrvLockKind::Ticket => TicketLock::NAME,
            SrvLockKind::Mcs => McsLock::NAME,
            SrvLockKind::Mutex => MutexLock::NAME,
        }
    }
}

/// The sweep's configuration.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Client worker threads per case.
    pub workers: usize,
    /// Key-operations per worker per case.
    pub ops_per_worker: u64,
    /// Keyspace size.
    pub keys: u64,
}

impl SweepConfig {
    /// The committed sweep's shape. The worker count is fixed, not
    /// sized from the host: it decides how the op stream splits, so the
    /// artifact would otherwise change with the machine.
    pub const COMMITTED: SweepConfig = SweepConfig {
        workers: 2,
        ops_per_worker: 6_000,
        keys: 4_096,
    };
}

/// One case of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    /// Lock algorithm under every shard's stripes and global lock.
    pub lock: SrvLockKind,
    /// Shard count (server threads).
    pub shards: usize,
    /// Key distribution.
    pub dist: KeyDist,
    /// Operation mix.
    pub mix: Mix,
    /// Reads per multi-get batch (1 = unbatched).
    pub batch: usize,
}

/// One measured case.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// The case that ran.
    pub case: Case,
    /// What the load engine measured; the issued counts are
    /// deterministic per seed.
    pub report: LoadReport,
}

/// The full sweep, per lock: {1, 4} shards × {YCSB-A, YCSB-B, YCSB-C}
/// on zipf 0.99, one uniform YCSB-A at 4 shards (keeps the uniform
/// generator under the determinism gate), one batched multi-get case
/// (YCSB-C, 4 shards, batch 4) and one churn case (CAS + delete
/// traffic through the maintenance path). The `(lock, shards, dist,
/// mix, batch)` tuples and their deterministic fields are stable
/// across harness versions.
pub fn sweep_cases() -> Vec<Case> {
    let zipf = KeyDist::Zipfian { theta: 0.99 };
    let mut cases = Vec::new();
    for lock in SrvLockKind::ALL {
        let mut case = |shards, dist, mix, batch| {
            cases.push(Case {
                lock,
                shards,
                dist,
                mix,
                batch,
            })
        };
        for shards in [1usize, 4] {
            for mix in [Mix::YCSB_A, Mix::YCSB_B, Mix::YCSB_C] {
                case(shards, zipf, mix, 1);
            }
        }
        case(4, KeyDist::Uniform, Mix::YCSB_A, 1);
        case(4, zipf, Mix::YCSB_C, 4);
        case(2, zipf, Mix::CHURN, 1);
    }
    cases
}

/// The churn soak's shape.
#[derive(Debug, Clone, Copy)]
pub struct SoakConfig {
    /// Churn rounds; the backlog gauge is sampled at each boundary.
    pub rounds: usize,
    /// Key-operations per round.
    pub ops_per_round: u64,
    /// Keyspace size.
    pub keys: u64,
}

impl SoakConfig {
    /// The committed soak's shape. The keyspace is small enough that
    /// most writes replace or delete a live node, which is what loads
    /// the reclamation path.
    pub const COMMITTED: SoakConfig = SoakConfig {
        rounds: 64,
        ops_per_round: 2_048,
        keys: 512,
    };
}

/// What the churn soak measured. Every field is deterministic per
/// seed: the op stream, the amortized maintenance cadence, and the
/// epoch advances are all functions of the (single-threaded) driver.
#[derive(Debug, Clone, Copy)]
pub struct ChurnSoakResult {
    /// Rounds run.
    pub rounds: usize,
    /// Key-operations per round.
    pub ops_per_round: u64,
    /// Keyspace size.
    pub keys: u64,
    /// Issued key-ops by type (preload sets included).
    pub issued: OpCounts,
    /// Highest retired-node backlog any round-boundary sample saw.
    pub reclaim_backlog_max: u64,
    /// The backlog after the final round (no shutdown purge — this is
    /// what online reclamation left behind).
    pub reclaim_backlog_final: u64,
    /// Nodes freed online (no `purge_retired` ran).
    pub nodes_reclaimed: u64,
    /// Global-epoch advances the amortized maintenance performed.
    pub epochs_advanced: u64,
    /// The bound [`ChurnSoakResult::check`] holds the backlog to.
    pub backlog_bound: u64,
}

impl ChurnSoakResult {
    /// Every node the churn retired: freed online or still parked.
    /// This is the backlog a store that freed nothing before a `&mut`
    /// quiescent point would be holding — it grows with the op count,
    /// unbounded.
    fn nodes_retired(&self) -> u64 {
        self.nodes_reclaimed + self.reclaim_backlog_final
    }

    /// The soak's pass criteria: the backlog stayed bounded,
    /// reclamation actually ran online, and the churn retired past
    /// anything the store ever held.
    ///
    /// # Errors
    ///
    /// A human-readable description of the violated criterion.
    pub fn check(&self) -> Result<(), String> {
        if self.reclaim_backlog_max >= self.backlog_bound {
            return Err(format!(
                "retired backlog hit {} (bound {})",
                self.reclaim_backlog_max, self.backlog_bound
            ));
        }
        if self.nodes_reclaimed == 0 {
            return Err("no nodes were reclaimed online".to_string());
        }
        if self.nodes_retired() <= self.reclaim_backlog_max {
            return Err(format!(
                "the churn retired only {} nodes, not past the store's max backlog {}",
                self.nodes_retired(),
                self.reclaim_backlog_max
            ));
        }
        Ok(())
    }

    /// One human-readable summary line for the harness output.
    pub fn summary(&self) -> String {
        format!(
            "churn-soak: {} rounds x {} ops, backlog max {} / final {} (bound {}), \
             {} reclaimed over {} epochs, {} retired in all",
            self.rounds,
            self.ops_per_round,
            self.reclaim_backlog_max,
            self.reclaim_backlog_final,
            self.backlog_bound,
            self.nodes_reclaimed,
            self.epochs_advanced,
            self.nodes_retired()
        )
    }
}

/// One xorshift64 step (the workload engine's generator family; kept
/// local so the soak stream is pinned independently of it).
fn soak_step(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Runs the churn soak: the deterministic churn stream against one
/// store, sampling the backlog gauge at every round boundary. The
/// store must hold its retired backlog under [`SOAK_BACKLOG_BOUND`] at
/// every sample while freeing concurrently with traffic.
pub fn run_churn_soak(config: SoakConfig) -> ChurnSoakResult {
    // Stripe and bucket counts match a sweep shard's shape at the soak
    // keyspace; reclamation is exercised purely through the store's own
    // amortized after-write maintenance — the soak never calls
    // `reclaim_pass` or `purge_retired`.
    let store: KvStore<TtasLock> = KvStore::new(512, 16);
    let mut issued = OpCounts::default();
    for key in 0..config.keys {
        store.set(&key.to_be_bytes(), vec![key as u8; 24]);
        issued.sets += 1;
    }
    let mut rng = SEED;
    let mut backlog_max = store.reclaim_backlog();
    for _ in 0..config.rounds {
        for _ in 0..config.ops_per_round {
            let r = soak_step(&mut rng);
            let key = (r % config.keys).to_be_bytes();
            // Write-heavy churn: sets replace, deletes unlink — both
            // retire a node when the key is live — and a read slice
            // keeps pinned traversals in the mix.
            match (r >> 32) % 10 {
                0..=4 => {
                    store.set(&key, vec![(r >> 8) as u8; 24]);
                    issued.sets += 1;
                }
                5..=7 => {
                    store.delete(&key);
                    issued.deletes += 1;
                }
                _ => {
                    store.get(&key);
                    issued.gets += 1;
                }
            }
        }
        backlog_max = backlog_max.max(store.reclaim_backlog());
    }
    let snap = store.stats_snapshot();
    ChurnSoakResult {
        rounds: config.rounds,
        ops_per_round: config.ops_per_round,
        keys: config.keys,
        issued,
        reclaim_backlog_max: backlog_max,
        reclaim_backlog_final: snap.reclaim_backlog,
        nodes_reclaimed: snap.nodes_reclaimed,
        epochs_advanced: snap.epochs_advanced,
        backlog_bound: SOAK_BACKLOG_BOUND,
    }
}

fn run_case_typed<R: RawLock + Default>(case: Case, config: SweepConfig) -> CaseResult {
    // Shards stay small so per-case setup doesn't dominate: enough
    // buckets to keep chains short at the sweep's keyspace sizes.
    let buckets_per_shard = (config.keys as usize / case.shards).clamp(64, 4096);
    let router: ShardRouter<R> = ShardRouter::new(case.shards, buckets_per_shard, 16);
    let spec = WorkloadSpec {
        keys: config.keys,
        dist: case.dist,
        mix: case.mix,
        vsize: ValueSize::Uniform { min: 16, max: 96 },
        batch: case.batch,
        seed: SEED,
    };
    // The closed loop: one connection per worker, no schedule.
    let load = LoadSpec {
        workload: spec,
        workers: config.workers,
        connections: config.workers,
        ops_per_worker: config.ops_per_worker,
        offered_ops_per_sec: None,
        depth: RING_DEPTH,
        window: RING_WINDOW,
    };
    CaseResult {
        case,
        report: run_load(&router, &load),
    }
}

/// Runs one case, dispatching on the lock algorithm.
pub fn run_case(case: Case, config: SweepConfig) -> CaseResult {
    match case.lock {
        SrvLockKind::Ttas => run_case_typed::<TtasLock>(case, config),
        SrvLockKind::Ticket => run_case_typed::<TicketLock>(case, config),
        SrvLockKind::Mcs => run_case_typed::<McsLock>(case, config),
        SrvLockKind::Mutex => run_case_typed::<MutexLock>(case, config),
    }
}

/// Runs the full sweep.
pub fn run_sweep(config: SweepConfig) -> Vec<CaseResult> {
    sweep_cases()
        .into_iter()
        .map(|case| run_case(case, config))
        .collect()
}

/// Renders the sweep as a plain-text table for a human: the measured
/// columns live here and nowhere else.
pub fn render_table(results: &[CaseResult]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "host-measured, single-shot (wall ms, ops/sec, hit%, casf): not committed, not a result"
    );
    let _ = writeln!(
        out,
        "{:<8} {:>6} {:>9} {:>7} {:>6} {:>9} {:>9} {:>9} {:>7} {:>7} {:>10}",
        "lock",
        "shards",
        "dist",
        "mix",
        "batch",
        "ops",
        "wall ms",
        "ops/sec",
        "hit%",
        "casf",
        "maint"
    );
    for r in results {
        let (t, wall) = (&r.report.tally, r.report.wall);
        let _ = writeln!(
            out,
            "{:<8} {:>6} {:>9} {:>7} {:>6} {:>9} {:>9.1} {:>9.0} {:>6.1}% {:>7} {:>10}",
            r.case.lock.name(),
            r.case.shards,
            r.case.dist.label(),
            r.case.mix.name,
            r.case.batch,
            t.issued.total(),
            wall.as_secs_f64() * 1000.0,
            t.ops_per_sec(wall),
            t.hit_rate() * 100.0,
            t.cas_fail,
            r.report.store.maintenance_runs
        );
    }
    out
}

/// Renders the sweep as the `BENCH_kv.json` document: only fields that
/// are a pure function of the seed, so the committed file is the golden
/// `kv-perf --check` and the crate's tests compare against. Hand-rolled
/// JSON like `BENCH_sim.json`: the workspace is offline and serde is
/// not among the vendored shims.
pub fn render_json(results: &[CaseResult], config: SweepConfig, soak: &ChurnSoakResult) -> String {
    let mut doc = Doc::open(
        "ssync-kv-perf-v5",
        "every field replays; regenerate with kv-perf, verify with kv-perf --check; ops are key-operations (a multi-get counts per key); maintenance_runs is omitted where the mix issues CAS or deletes, whose outcomes (and so the store's write cadence) depend on how the workers interleave",
    );
    doc.member(
        &format!(
            "\"config\": {{\"workers\": {}, \"ops_per_worker\": {}, \"keys\": {}, \"seed\": {}, \"ring_depth\": {}, \"ring_window\": {}}}",
            config.workers, config.ops_per_worker, config.keys, SEED, RING_DEPTH, RING_WINDOW
        ),
        true,
    );
    let cases: Vec<String> = results
        .iter()
        .map(|r| {
            // Only a successful write advances the store's maintenance
            // cadence, so the count replays only where none can fail.
            let issued = &r.report.tally.issued;
            let maintenance = if issued.cas + issued.deletes == 0 {
                format!(", \"maintenance_runs\": {}", r.report.store.maintenance_runs)
            } else {
                String::new()
            };
            format!(
                "{{\"lock\": \"{}\", \"shards\": {}, \"dist\": \"{}\", \"mix\": \"{}\", \"batch\": {}, \"gets\": {}, \"sets\": {}, \"cas\": {}, \"deletes\": {}{maintenance}}}",
                r.case.lock.name(),
                r.case.shards,
                r.case.dist.label(),
                r.case.mix.name,
                r.case.batch,
                issued.gets,
                issued.sets,
                issued.cas,
                issued.deletes,
            )
        })
        .collect();
    doc.array("cases", &cases, true);
    doc.member(
        &format!(
            "\"churn_soak\": {{\"rounds\": {}, \"ops_per_round\": {}, \"keys\": {}, \"sets\": {}, \"deletes\": {}, \"gets\": {}, \"reclaim_backlog_max\": {}, \"reclaim_backlog_final\": {}, \"nodes_reclaimed\": {}, \"epochs_advanced\": {}, \"nodes_retired\": {}, \"backlog_bound\": {}}}",
            soak.rounds,
            soak.ops_per_round,
            soak.keys,
            soak.issued.sets,
            soak.issued.deletes,
            soak.issued.gets,
            soak.reclaim_backlog_max,
            soak.reclaim_backlog_final,
            soak.nodes_reclaimed,
            soak.epochs_advanced,
            soak.nodes_retired(),
            soak.backlog_bound
        ),
        false,
    );
    doc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> SweepConfig {
        SweepConfig {
            workers: 2,
            ops_per_worker: 120,
            keys: 128,
        }
    }

    #[test]
    fn sweep_covers_the_required_axes() {
        let cases = sweep_cases();
        assert_eq!(cases.len(), 36);
        let locks: std::collections::HashSet<_> = cases.iter().map(|c| c.lock.name()).collect();
        let shards: std::collections::HashSet<_> = cases.iter().map(|c| c.shards).collect();
        let dists: std::collections::HashSet<_> = cases.iter().map(|c| c.dist.label()).collect();
        let mixes: std::collections::HashSet<_> = cases.iter().map(|c| c.mix.name).collect();
        assert_eq!(locks.len(), 4, "one lock per scaling class: {locks:?}");
        assert!(shards.len() >= 2, "need >= 2 shard counts: {shards:?}");
        assert_eq!(dists.len(), 2, "both key generators: {dists:?}");
        assert_eq!(mixes.len(), 4, "three YCSB mixes + churn: {mixes:?}");
        for lock in SrvLockKind::ALL {
            let of_lock = |pred: fn(&Case) -> bool| {
                cases.iter().filter(|c| c.lock == lock && pred(c)).count()
            };
            assert_eq!(of_lock(|c| c.batch > 1), 1, "batched case");
            // Write pressure (and the locked read fallback) stays in
            // the measured set.
            assert_eq!(of_lock(|c| c.mix.name == "churn"), 1, "churn case");
            assert_eq!(of_lock(|c| c.dist == KeyDist::Uniform), 1, "uniform case");
        }
    }

    #[test]
    fn one_case_runs_and_renders() {
        let config = tiny_config();
        let case = Case {
            lock: SrvLockKind::Ticket,
            shards: 2,
            dist: KeyDist::Zipfian { theta: 0.99 },
            mix: Mix::YCSB_B,
            batch: 1,
        };
        let r = run_case(case, config);
        assert_eq!(r.report.tally.issued.total(), 240);
        assert!(r.report.tally.hit_rate() > 0.99); // Preloaded keyspace, no deletes.
        let table = render_table(std::slice::from_ref(&r));
        assert!(table.contains("TICKET"));
        let soak = run_churn_soak(tiny_soak_config());
        let json = render_json(std::slice::from_ref(&r), config, &soak);
        assert!(json.contains("\"ssync-kv-perf-v5\""));
        assert!(json.contains("\"mix\": \"ycsb-b\""));
        // A mix whose every write succeeds pins the maintenance cadence;
        // nothing host-measured is committed.
        assert!(json.contains("\"maintenance_runs\""));
        assert!(!json.contains("wall_ms") && !json.contains("ops_per_sec"));
        assert!(json.contains("\"churn_soak\""));
        assert!(json.contains("\"reclaim_backlog_max\""));
        assert!(json.contains("\"nodes_retired\""));
    }

    fn tiny_soak_config() -> SoakConfig {
        SoakConfig {
            rounds: 8,
            ops_per_round: 256,
            keys: 64,
        }
    }

    #[test]
    fn churn_soak_bounds_backlog_while_retiring_past_it() {
        let soak = run_churn_soak(tiny_soak_config());
        soak.check().expect("soak criteria");
        // Online reclamation happened without any quiescent purge and
        // the backlog stayed bounded, though the churn retired more
        // nodes than the store ever held at once.
        assert!(soak.nodes_reclaimed > 0);
        assert!(soak.epochs_advanced > 0);
        assert!(soak.reclaim_backlog_max < soak.backlog_bound);
        assert!(soak.nodes_retired() > soak.reclaim_backlog_max);
        assert!(!soak.summary().is_empty());
    }
}
