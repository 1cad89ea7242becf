//! Deterministic workload engine: seeded key distributions (uniform and
//! YCSB-style zipfian), read/write mix presets, value-size
//! distributions, the sequential closed loop every driver's workers run
//! ([`drive_worker`]), the one runner of a driver's nodes and workers
//! ([`fan_out_beside`]), and [`run_load`], the closed loop over the
//! plain service. Every driver reports one [`Tally`].
//!
//! Everything is a pure function of `(spec.seed, worker index)`: the
//! same spec issues exactly the same operation sequence per worker on
//! every run, so benchmark op counts are replayable even though wall
//! times are not. The zipfian sampler is the standard Gray et al.
//! generator YCSB uses, with ranks scrambled through a SplitMix64
//! finalizer so the hot set spreads over the keyspace (and therefore
//! over the shards) instead of clustering at key 0.
//!
//! ## One closed loop
//!
//! A worker issues one operation, waits for its reply, then draws the
//! next, so offered load adapts to service time: a run measures
//! capacity, and its op streams replay. Latency, tails and throughput
//! on this stack are `benchmark/`'s to measure, with its own generator
//! and clock; this engine drives the stacks for the tests and examples.

use std::panic::resume_unwind;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ssync_kv::StatsSnapshot;
use ssync_locks::TicketLock;

use crate::node::{NoHooks, NodeCore};
use crate::router::ShardRouter;
use crate::service::{ring_mesh, KvClient};
use crate::step::run;
use crate::wire::MAX_VALUE_LEN;

/// Largest read batch the engine will emit. A batch is a client-side
/// call: [`KvClient::get_many`] looks its keys up one request each.
pub const MAX_BATCH: usize = 32;

/// How keys are drawn from the keyspace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform,
    /// Zipfian with parameter `theta` in (0, 1); YCSB's default skew is
    /// `theta = 0.99`.
    Zipfian {
        /// Skew parameter; larger is more skewed.
        theta: f64,
    },
}

/// An operation mix, in percent (must sum to 100).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Plain lookups.
    pub read_pct: u8,
    /// Blind writes (`set`).
    pub update_pct: u8,
    /// Read-modify-write via CAS.
    pub cas_pct: u8,
    /// Deletes.
    pub delete_pct: u8,
    /// Display name for benchmark labels.
    pub name: &'static str,
}

impl Mix {
    /// YCSB workload A: 50% reads, 50% updates.
    pub const YCSB_A: Mix = Mix::new("ycsb-a", 50, 50, 0, 0);
    /// YCSB workload B: 95% reads, 5% updates.
    pub const YCSB_B: Mix = Mix::new("ycsb-b", 95, 5, 0, 0);
    /// YCSB workload C: read-only.
    pub const YCSB_C: Mix = Mix::new("ycsb-c", 100, 0, 0, 0);
    /// A contended mixed workload: reads plus CAS read-modify-writes
    /// and delete churn (every delete is eventually refilled by an
    /// update landing on the same key).
    pub const CHURN: Mix = Mix::new("churn", 60, 25, 10, 5);

    /// Builds a mix, checking the percentages sum to 100.
    pub const fn new(
        name: &'static str,
        read_pct: u8,
        update_pct: u8,
        cas_pct: u8,
        delete_pct: u8,
    ) -> Mix {
        assert!(
            read_pct as u16 + update_pct as u16 + cas_pct as u16 + delete_pct as u16 == 100,
            "mix percentages must sum to 100"
        );
        Mix {
            read_pct,
            update_pct,
            cas_pct,
            delete_pct,
            name,
        }
    }
}

/// How value sizes are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueSize {
    /// Every value exactly this long.
    Fixed(usize),
    /// Uniform in `min..=max`.
    Uniform {
        /// Smallest value length.
        min: usize,
        /// Largest value length (≤ [`MAX_VALUE_LEN`]).
        max: usize,
    },
}

impl ValueSize {
    /// Draws one value length.
    ///
    /// # Panics
    ///
    /// Panics if the drawn length exceeds [`MAX_VALUE_LEN`].
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let len = match *self {
            ValueSize::Fixed(n) => n,
            ValueSize::Uniform { min, max } => rng.gen_range(min..=max),
        };
        assert!(len <= MAX_VALUE_LEN, "value size exceeds MAX_VALUE_LEN");
        len
    }

    /// Draws one value: a sampled length, then that many random bytes.
    fn draw(&self, rng: &mut SmallRng) -> Vec<u8> {
        let len = self.sample(rng);
        (0..len).map(|_| rng.gen::<u8>()).collect()
    }
}

/// A full workload description. `Copy` on purpose: benchmark sweeps
/// stamp out variations from a base spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Keyspace size (keys are `0..keys`).
    pub keys: u64,
    /// Key distribution.
    pub dist: KeyDist,
    /// Operation mix.
    pub mix: Mix,
    /// Value-size distribution.
    pub vsize: ValueSize,
    /// Reads per batch, one [`KvClient::get_many`] call (1 disables
    /// batching; ≤ [`MAX_BATCH`]).
    pub batch: usize,
    /// Master seed; workers derive their streams from it.
    pub seed: u64,
}

impl WorkloadSpec {
    /// A small default spec tests and examples start from.
    pub fn example() -> WorkloadSpec {
        WorkloadSpec {
            keys: 1024,
            dist: KeyDist::Zipfian { theta: 0.99 },
            mix: Mix::YCSB_B,
            vsize: ValueSize::Fixed(32),
            batch: 1,
            seed: 0x5EED,
        }
    }

    /// The seeded preload every driver starts from: one `(key, value)`
    /// per key of the keyspace, in key order, a pure function of
    /// `(seed, keys, vsize)`.
    pub fn preload_values(&self) -> impl Iterator<Item = (u64, Vec<u8>)> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let vsize = self.vsize;
        (0..self.keys).map(move |key| (key, vsize.draw(&mut rng)))
    }
}

/// One operation the engine asks a client to perform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Look one key up.
    Get(u64),
    /// Batched lookup: one [`KvClient::get_many`] call.
    MultiGet(Vec<u64>),
    /// Blind write.
    Set(u64, Vec<u8>),
    /// Read-modify-write: fetch the version, then CAS.
    Cas(u64, Vec<u8>),
    /// Remove the key.
    Delete(u64),
}

/// Counts of issued operations, in key-ops.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpCounts {
    /// Lookups (batched ones counted per key).
    pub gets: u64,
    /// Blind writes.
    pub sets: u64,
    /// CAS read-modify-writes.
    pub cas: u64,
    /// Deletes.
    pub deletes: u64,
}

impl OpCounts {
    /// Total key-operations.
    pub fn total(&self) -> u64 {
        self.gets + self.sets + self.cas + self.deletes
    }

    /// Field-wise sum, for aggregating workers.
    pub fn merge(&self, other: &OpCounts) -> OpCounts {
        OpCounts {
            gets: self.gets + other.gets,
            sets: self.sets + other.sets,
            cas: self.cas + other.cas,
            deletes: self.deletes + other.deletes,
        }
    }
}

/// The Gray et al. zipfian rank sampler (what YCSB uses), returning
/// ranks in `0..n` with rank 0 hottest.
#[derive(Debug, Clone)]
struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    fn new(n: u64, theta: f64) -> Zipfian {
        assert!(n > 0, "empty keyspace");
        assert!(
            theta > 0.0 && theta < 1.0,
            "zipfian theta must be in (0, 1)"
        );
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        Zipfian {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    /// The generalized harmonic number `H_{n,theta}`.
    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    fn next_rank(&self, rng: &mut SmallRng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

/// Scrambles a zipfian rank over the keyspace (YCSB's "scrambled
/// zipfian"), so the hot set is spread across shards. Collisions are
/// fine — they only perturb the tail. Uses the same [`ssync_core::mix64`]
/// finalizer as `shard_of` but with a different additive offset, so the
/// two hash families stay decorrelated.
fn scramble(rank: u64, n: u64) -> u64 {
    ssync_core::mix64(rank.wrapping_add(0x2545_F491_4F6C_DD1D)) % n
}

/// A worker's deterministic operation stream.
#[derive(Debug, Clone)]
pub struct OpStream {
    spec: WorkloadSpec,
    rng: SmallRng,
    zipf: Option<Zipfian>,
}

impl OpStream {
    /// The stream for worker `worker` of `spec`. Distinct workers get
    /// decorrelated but reproducible streams.
    pub fn new(spec: &WorkloadSpec, worker: u64) -> OpStream {
        assert!(spec.keys > 0, "empty keyspace");
        assert!(
            spec.batch >= 1 && spec.batch <= MAX_BATCH,
            "batch must be in 1..={MAX_BATCH}"
        );
        let zipf = match spec.dist {
            KeyDist::Uniform => None,
            KeyDist::Zipfian { theta } => Some(Zipfian::new(spec.keys, theta)),
        };
        OpStream {
            spec: *spec,
            rng: SmallRng::seed_from_u64(spec.seed ^ scramble(worker, u64::MAX)),
            zipf,
        }
    }

    fn next_key(&mut self) -> u64 {
        match &self.zipf {
            None => self.rng.gen_range(0..self.spec.keys),
            Some(z) => scramble(z.next_rank(&mut self.rng), self.spec.keys),
        }
    }

    fn next_value(&mut self) -> Vec<u8> {
        self.spec.vsize.draw(&mut self.rng)
    }

    /// The next operation. Reads coalesce into batches of
    /// `spec.batch` keys when batching is on.
    pub fn next_op(&mut self) -> Op {
        let m = self.spec.mix;
        let roll = self.rng.gen_range(0u8..100);
        if roll < m.read_pct {
            if self.spec.batch > 1 {
                let keys = (0..self.spec.batch).map(|_| self.next_key()).collect();
                Op::MultiGet(keys)
            } else {
                Op::Get(self.next_key())
            }
        } else if roll < m.read_pct + m.update_pct {
            let key = self.next_key();
            let value = self.next_value();
            Op::Set(key, value)
        } else if roll < m.read_pct + m.update_pct + m.cas_pct {
            let key = self.next_key();
            let value = self.next_value();
            Op::Cas(key, value)
        } else {
            Op::Delete(self.next_key())
        }
    }
}

/// What a driver's clients observed, per worker or merged: the one
/// shape every driver in the tree reports.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations issued, by type — deterministic per `(spec, workers,
    /// ops_per_worker)`.
    pub issued: OpCounts,
    /// Read hits observed (including the read half of a CAS).
    pub hits: u64,
    /// Read misses observed.
    pub misses: u64,
    /// CAS attempts that stored.
    pub cas_ok: u64,
    /// CAS attempts that lost (stale version or missing key).
    pub cas_fail: u64,
    /// Deletes that removed a key.
    pub deleted: u64,
}

impl Tally {
    /// Field-wise sum, for aggregating workers.
    pub fn merge(&self, other: &Tally) -> Tally {
        Tally {
            issued: self.issued.merge(&other.issued),
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            cas_ok: self.cas_ok + other.cas_ok,
            cas_fail: self.cas_fail + other.cas_fail,
            deleted: self.deleted + other.deleted,
        }
    }

    /// Key-operations per second over `wall`.
    pub fn ops_per_sec(&self, wall: Duration) -> f64 {
        let s = wall.as_secs_f64();
        if s <= 0.0 {
            return 0.0;
        }
        self.issued.total() as f64 / s
    }

    /// Fraction of reads that hit.
    pub fn hit_rate(&self) -> f64 {
        let reads = self.hits + self.misses;
        if reads == 0 {
            return 0.0;
        }
        self.hits as f64 / reads as f64
    }
}

/// Issues one op through the blocking round-trip API, recording it in
/// the tally.
///
/// The driver owns the connection; a wire error here is a harness bug,
/// not load, so it unwraps — the *server* is the side that must never
/// die on a bad frame.
fn apply_op<C: KvClient>(client: &C, op: Op, tally: &mut Tally) {
    match op {
        Op::Get(key) => {
            tally.issued.gets += 1;
            match client.get(key).expect("wire error") {
                Some(_) => tally.hits += 1,
                None => tally.misses += 1,
            }
        }
        Op::MultiGet(keys) => {
            tally.issued.gets += keys.len() as u64;
            for res in client.get_many(&keys).expect("wire error") {
                match res {
                    Some(_) => tally.hits += 1,
                    None => tally.misses += 1,
                }
            }
        }
        Op::Set(key, value) => {
            tally.issued.sets += 1;
            client.set(key, value).expect("wire error");
        }
        Op::Cas(key, value) => {
            tally.issued.cas += 1;
            match client.get(key).expect("wire error") {
                Some((version, _)) => {
                    tally.hits += 1;
                    match client.cas(key, value, version).expect("wire error") {
                        Ok(_) => tally.cas_ok += 1,
                        Err(_) => tally.cas_fail += 1,
                    }
                }
                None => {
                    tally.misses += 1;
                    tally.cas_fail += 1;
                }
            }
        }
        Op::Delete(key) => {
            tally.issued.deletes += 1;
            if client.delete(key).expect("wire error").is_some() {
                tally.deleted += 1;
            }
        }
    }
}

/// Runs one client worker's sequential closed loop for `ops`
/// key-operations over any [`KvClient`]. The caller closes the client
/// afterwards (it may want to read client-side counters first).
pub fn drive_worker<C: KvClient>(client: &C, mut stream: OpStream, ops: u64) -> Tally {
    let mut tally = Tally::default();
    while tally.issued.total() < ops {
        let op = stream.next_op();
        apply_op(client, op, &mut tally);
    }
    tally
}

/// The one runner every driver in the tree shares, so a driver keeps
/// only its servers: `serve`, which owns and [`run`]s the driver's
/// nodes, on a thread of its own, and `work(worker, client)` on one
/// thread per client. Returns `serve`'s result, the merged [`Tally`]
/// and each worker's own output, in worker order, once every thread has
/// returned or unwound. A panic in `serve` drops the nodes it owns, so
/// the clients read them gone instead of waiting on them, and it is
/// re-raised ahead of any client panic that followed from it.
pub fn fan_out_beside<T: Send, C: Send, X: Send>(
    serve: impl FnOnce() -> T + Send,
    clients: impl IntoIterator<Item = C>,
    work: impl Fn(usize, C) -> (Tally, X) + Sync,
) -> (T, (Tally, Vec<X>)) {
    let work = &work;
    std::thread::scope(|s| {
        let runner = s.spawn(serve);
        let workers: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(worker, client)| s.spawn(move || work(worker, client)))
            .collect();
        let worked: Vec<_> = workers.into_iter().map(|w| w.join()).collect();
        let served = runner.join().unwrap_or_else(|panic| resume_unwind(panic));
        let mut total = Tally::default();
        let mut outs = Vec::with_capacity(worked.len());
        for (tally, out) in worked
            .into_iter()
            .map(|w| w.unwrap_or_else(|panic| resume_unwind(panic)))
        {
            total = total.merge(&tally);
            outs.push(out);
        }
        (served, (total, outs))
    })
}

/// Ring depth of the load engine's client connections: deeper than the
/// longest value reply (19 frames, a 1 KiB value), which then goes out
/// whole in the turn that serves it.
const CONN_DEPTH: usize = 64;

/// What a load-engine run measured.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// What the clients observed; the issued counts are deterministic
    /// per `(spec, workers, ops_per_worker)`.
    pub tally: Tally,
    /// Wall time of the measure phase.
    pub wall: Duration,
    /// Store-side counter deltas over the measure phase (maintenance
    /// stalls live here).
    pub store: StatsSnapshot,
}

/// Runs the closed loop over the plain service: preload the keyspace,
/// [`run`] the shard servers, run [`drive_worker`] for
/// `ops_per_worker` key-operations on each of `workers` client threads,
/// and report.
///
/// Issued op counts are deterministic in `(spec, workers,
/// ops_per_worker)`; wall time, and the hit/miss split of mixes with
/// deletes, depend on how the workers interleave.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn run_load(
    router: &ShardRouter<TicketLock>,
    spec: &WorkloadSpec,
    workers: usize,
    ops_per_worker: u64,
) -> LoadReport {
    assert!(workers > 0, "at least one worker");
    // Preload directly through the router: every key present.
    for (key, value) in spec.preload_values() {
        router.set(key, value);
    }
    let before = router.stats_snapshot();

    let (endpoints, clients) = ring_mesh(router.num_shards(), workers, CONN_DEPTH);
    let shard = |(s, endpoint)| (NodeCore::new(endpoint), router.shard(s), NoHooks);
    let mut nodes: Vec<_> = endpoints.into_iter().enumerate().map(shard).collect();
    let start = Instant::now();
    let serve = move || run(&mut nodes.iter_mut().collect::<Vec<_>>());
    let ((), (tally, _)) = fan_out_beside(serve, clients, |worker, client| {
        let tally = drive_worker(&client, OpStream::new(spec, worker as u64), ops_per_worker);
        client.close();
        (tally, ())
    });
    LoadReport {
        tally,
        wall: start.elapsed(),
        store: router.stats_snapshot().delta(&before),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssync_locks::TicketLock;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;

    /// The runner's panic is the one re-raised, not the panic of the
    /// client that read the runner's peer end gone.
    #[test]
    fn a_runner_panic_is_re_raised_ahead_of_the_clients_it_broke() {
        let (tx, rx) = mpsc::channel::<()>();
        let serve = move || {
            let _node = tx;
            panic!("the node died");
        };
        let run = catch_unwind(AssertUnwindSafe(|| {
            fan_out_beside(serve, [rx], |_, rx| {
                rx.recv().expect("the client saw the node gone");
                (Tally::default(), ())
            })
        }));
        let raised = run.expect_err("a run whose runner panicked returned");
        assert_eq!(raised.downcast_ref::<&str>(), Some(&"the node died"));
    }

    #[test]
    fn streams_are_deterministic_per_worker() {
        let spec = WorkloadSpec::example();
        let ops_a: Vec<Op> = {
            let mut s = OpStream::new(&spec, 3);
            (0..200).map(|_| s.next_op()).collect()
        };
        let ops_b: Vec<Op> = {
            let mut s = OpStream::new(&spec, 3);
            (0..200).map(|_| s.next_op()).collect()
        };
        assert_eq!(ops_a, ops_b);
        // A different worker gets a different stream.
        let ops_c: Vec<Op> = {
            let mut s = OpStream::new(&spec, 4);
            (0..200).map(|_| s.next_op()).collect()
        };
        assert_ne!(ops_a, ops_c);
    }

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let spec = WorkloadSpec {
            dist: KeyDist::Zipfian { theta: 0.99 },
            mix: Mix::YCSB_C,
            ..WorkloadSpec::example()
        };
        let mut stream = OpStream::new(&spec, 0);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..4000 {
            if let Op::Get(key) = stream.next_op() {
                assert!(key < spec.keys);
                *counts.entry(key).or_insert(0u64) += 1;
            }
        }
        // Zipf 0.99 concentrates mass: the hottest key should take a
        // few percent of draws; uniform would give ~0.1%.
        let max = counts.values().max().copied().unwrap_or(0);
        assert!(max > 100, "hottest key only drew {max}/4000");
        // And the tail still gets touched.
        assert!(counts.len() > 200, "only {} distinct keys", counts.len());
    }

    #[test]
    fn uniform_covers_the_keyspace_evenly() {
        let spec = WorkloadSpec {
            keys: 64,
            dist: KeyDist::Uniform,
            mix: Mix::YCSB_C,
            ..WorkloadSpec::example()
        };
        let mut stream = OpStream::new(&spec, 0);
        let mut counts = vec![0u64; 64];
        for _ in 0..6400 {
            if let Op::Get(key) = stream.next_op() {
                counts[key as usize] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c > 30), "uneven: {counts:?}");
    }

    #[test]
    fn mix_percentages_are_respected() {
        let spec = WorkloadSpec {
            mix: Mix::CHURN,
            ..WorkloadSpec::example()
        };
        let mut stream = OpStream::new(&spec, 1);
        let mut counts = OpCounts::default();
        for _ in 0..10_000 {
            match stream.next_op() {
                Op::Get(_) | Op::MultiGet(_) => counts.gets += 1,
                Op::Set(..) => counts.sets += 1,
                Op::Cas(..) => counts.cas += 1,
                Op::Delete(_) => counts.deletes += 1,
            }
        }
        // 60/25/10/5 within a few percent.
        assert!((5200..6800).contains(&counts.gets), "{counts:?}");
        assert!((1900..3100).contains(&counts.sets), "{counts:?}");
        assert!((600..1400).contains(&counts.cas), "{counts:?}");
        assert!((250..750).contains(&counts.deletes), "{counts:?}");
    }

    #[test]
    fn batched_reads_emit_multigets() {
        let spec = WorkloadSpec {
            batch: 4,
            mix: Mix::YCSB_C,
            ..WorkloadSpec::example()
        };
        let mut stream = OpStream::new(&spec, 0);
        for _ in 0..50 {
            match stream.next_op() {
                Op::MultiGet(keys) => assert_eq!(keys.len(), 4),
                other => panic!("read-only batched mix emitted {other:?}"),
            }
        }
    }

    #[test]
    fn closed_loop_reports_consistently() {
        let router: ShardRouter<TicketLock> = ShardRouter::new(2, 64, 8);
        let spec = WorkloadSpec {
            keys: 256,
            mix: Mix::YCSB_A,
            ..WorkloadSpec::example()
        };
        let report = run_load(&router, &spec, 2, 500);
        assert!(report.tally.issued.total() >= 1000);
        // YCSB-A over a preloaded keyspace with no deletes: every read
        // hits.
        assert_eq!(report.tally.misses, 0);
        assert!((report.tally.hit_rate() - 1.0).abs() < f64::EPSILON);
        // Store-side counters saw the workload's writes.
        assert_eq!(report.store.sets, report.tally.issued.sets);
        assert!(report.tally.ops_per_sec(report.wall) > 0.0);

        // Op counts replay exactly on a fresh router.
        let router2: ShardRouter<TicketLock> = ShardRouter::new(2, 64, 8);
        let report2 = run_load(&router2, &spec, 2, 500);
        assert_eq!(report.tally.issued, report2.tally.issued);
        assert_eq!(report.tally.hits, report2.tally.hits);
    }

    /// The closed loop's op streams are a pure function of the seed, so
    /// one shape's issued counts are literals: {1, 4} shards × YCSB-A/B/C
    /// on zipf 0.99, a uniform YCSB-A, a batched multi-get and a churn
    /// case, at 2 workers × 6 000 key-ops over 4 096 keys. Where no
    /// write can fail the store's maintenance cadence replays too; CAS
    /// and delete outcomes depend on how the workers interleave, so the
    /// churn case pins no cadence.
    #[test]
    fn closed_loop_sweep_replays_exact_counts() {
        const KEYS: u64 = 4_096;
        let zipf = KeyDist::Zipfian { theta: 0.99 };
        #[rustfmt::skip]
        let cases = [
            // (shards, dist, mix, batch, [gets, sets, cas, deletes], maintenance_runs)
            (1, zipf, Mix::YCSB_A, 1, [6_024, 5_976, 0, 0], Some(93)),
            (1, zipf, Mix::YCSB_B, 1, [11_375, 625, 0, 0], Some(9)),
            (1, zipf, Mix::YCSB_C, 1, [12_000, 0, 0, 0], Some(0)),
            (4, zipf, Mix::YCSB_A, 1, [6_024, 5_976, 0, 0], Some(92)),
            (4, zipf, Mix::YCSB_B, 1, [11_375, 625, 0, 0], Some(9)),
            (4, zipf, Mix::YCSB_C, 1, [12_000, 0, 0, 0], Some(0)),
            (4, KeyDist::Uniform, Mix::YCSB_A, 1, [6_024, 5_976, 0, 0], Some(92)),
            (4, zipf, Mix::YCSB_C, 4, [12_000, 0, 0, 0], Some(0)),
            (2, zipf, Mix::CHURN, 1, [7_207, 3_035, 1_158, 600], None),
        ];
        for (shards, dist, mix, batch, counts, maintenance) in cases {
            let router: ShardRouter<TicketLock> =
                ShardRouter::new(shards, (KEYS as usize / shards).clamp(64, 4096), 16);
            let workload = WorkloadSpec {
                keys: KEYS,
                dist,
                mix,
                vsize: ValueSize::Uniform { min: 16, max: 96 },
                batch,
                seed: 0xCAFE_F00D,
            };
            let report = run_load(&router, &workload, 2, 6_000);
            let case = format!("{shards} shards, {dist:?}, {}, batch {batch}", mix.name);
            let i = report.tally.issued;
            assert_eq!([i.gets, i.sets, i.cas, i.deletes], counts, "{case}");
            if let Some(runs) = maintenance {
                assert_eq!(report.store.maintenance_runs, runs, "{case}");
            }
        }
    }

    /// One-key gets of 1 KiB values are 19-frame replies over 8-slot
    /// rings, and four shards' nodes share at most two workers. Each
    /// client pipelines four gets, then drains the shards in index order:
    /// a node that waited for room mid-reply would hold up the nodes on
    /// its worker, among them the one its client drains first.
    /// 2 clients × 20 000 gets, under a deadline.
    #[test]
    fn one_key_replies_longer_than_their_ring_finish_on_shared_workers() {
        const GETS: u64 = 20_000;
        let hits = crate::node::tests::within(60, || {
            let router: ShardRouter<TicketLock> = ShardRouter::new(4, 1024, 16);
            let spec = WorkloadSpec {
                keys: 4_096,
                dist: KeyDist::Uniform,
                mix: Mix::YCSB_C,
                vsize: ValueSize::Fixed(1024),
                batch: 4,
                seed: 0xCAFE_F00D,
            };
            for (key, value) in spec.preload_values() {
                router.set(key, value);
            }
            let (endpoints, clients) = ring_mesh(4, 2, 8);
            let shard = |(s, endpoint)| (NodeCore::new(endpoint), router.shard(s), NoHooks);
            let mut nodes: Vec<_> = endpoints.into_iter().enumerate().map(shard).collect();
            let serve = move || run(&mut nodes.iter_mut().collect::<Vec<_>>());
            let ((), (_, hits)) = fan_out_beside(serve, clients, |worker, client| {
                let mut stream = OpStream::new(&spec, worker as u64);
                let mut hits = 0;
                for _ in 0..GETS / 4 {
                    let Op::MultiGet(keys) = stream.next_op() else {
                        unreachable!("a read-only batched mix")
                    };
                    let mut shards: Vec<usize> = keys.iter().map(|&k| client.send_get(k)).collect();
                    shards.sort_unstable();
                    for shard in shards {
                        let (_, value) = client.read_get_reply(shard).unwrap().unwrap();
                        assert_eq!(value.len(), 1024);
                        hits += 1;
                    }
                }
                client.close();
                (Tally::default(), hits)
            });
            hits
        });
        assert_eq!(hits, [GETS; 2]);
    }
}
