//! Deterministic workload engine: seeded key distributions (uniform and
//! YCSB-style zipfian), read/write mix presets, value-size
//! distributions, and one load engine over the service — closed-loop
//! without a schedule, open-loop with Poisson arrivals — plus the
//! sequential driver and the worker fan-out the replicated and cluster
//! drivers share. Every driver reports one [`Tally`].
//!
//! Everything is a pure function of `(spec.seed, worker index)`: the
//! same spec issues exactly the same operation sequence per worker on
//! every run, so benchmark op counts are replayable even though wall
//! times are not. The zipfian sampler is the standard Gray et al.
//! generator YCSB uses, with ranks scrambled through a SplitMix64
//! finalizer so the hot set spreads over the keyspace (and therefore
//! over the shards) instead of clustering at key 0.
//!
//! ## One engine, with or without a schedule
//!
//! [`run_load`] runs every worker through one pipelined loop. With no
//! offered rate it is the closed loop and measures *capacity*: each op
//! is due the moment it is drawn, so offered load adapts to service
//! time and a slow request silently delays all the requests behind it.
//! That adaptation is exactly what makes closed-loop latency numbers
//! lie about tails (coordinated omission). With an offered rate, arrival
//! times come from a deterministic Poisson process and every latency is
//! stamped from the op's *intended* arrival: if the system falls behind,
//! the backlog shows up as latency rather than as silently reduced load.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ssync_core::stats::{mono_ns, Histogram, HistogramSnapshot};
use ssync_kv::StatsSnapshot;
use ssync_locks::RawLock;
use ssync_mp::{MsgReceiver, MsgSender};

use crate::router::{shard_of, ShardRouter};
use crate::service::{ring_mesh, serve, KvClient, ReadHit, ServiceClient};
use crate::wire::MAX_VALUE_LEN;

/// Largest read batch the engine will emit. Batches wider than one
/// multi-get frame are split into frame-sized chunks by the clients —
/// and, when replicas exist, fanned out across a shard's endpoints
/// concurrently, which is where replica reads buy round-trip
/// parallelism.
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
    /// Reads per multi-get batch (1 disables batching; ≤ [`MAX_BATCH`]).
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
    /// Batched lookup.
    MultiGet(Vec<u64>),
    /// Blind write.
    Set(u64, Vec<u8>),
    /// Read-modify-write: fetch the version, then CAS.
    Cas(u64, Vec<u8>),
    /// Remove the key.
    Delete(u64),
}

impl Op {
    /// Key-operations this op counts for (a batch counts per key).
    pub fn weight(&self) -> u64 {
        match self {
            Op::MultiGet(keys) => keys.len() as u64,
            _ => 1,
        }
    }
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
/// the tally — the shared leg of the sequential and pipelined drivers.
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
/// key-operations over any [`KvClient`] — for clients that cannot
/// pipeline, such as the replication layer's replica-reading one. The
/// caller closes the client afterwards (it may want to read
/// client-side counters first).
pub fn drive_worker<C: KvClient>(client: &C, mut stream: OpStream, ops: u64) -> Tally {
    let mut tally = Tally::default();
    while tally.issued.total() < ops {
        let op = stream.next_op();
        apply_op(client, op, &mut tally);
    }
    tally
}

/// Runs `work(worker, client)` on one thread per client and waits for
/// all of them — the client side every driver in the tree shares, so a
/// driver keeps only its servers. Returns the merged [`Tally`] and each
/// worker's own output, in worker order. A worker's panic is re-raised
/// once every worker has returned or unwound.
pub fn fan_out<C: Send, X: Send>(
    clients: impl IntoIterator<Item = C>,
    work: impl Fn(usize, C) -> (Tally, X) + Sync,
) -> (Tally, Vec<X>) {
    let work = &work;
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(worker, client)| s.spawn(move || work(worker, client)))
            .collect();
        let mut total = Tally::default();
        let mut outs = Vec::with_capacity(handles.len());
        for handle in handles {
            let (tally, out) = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            total = total.merge(&tally);
            outs.push(out);
        }
        (total, outs)
    })
}

/// A deterministic Poisson arrival process: exponential inter-arrival
/// gaps drawn by inversion from a seeded stream. Same seed and mean,
/// same gap sequence — arrival schedules are replayable even though
/// the latencies measured against them are not.
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    rng: SmallRng,
    mean_ns: f64,
}

/// Decorrelates a worker's arrival stream from its op stream: both
/// derive from `(spec.seed, worker)`, this salt keeps them apart.
const ARRIVAL_SALT: u64 = 0xA441_7A15_0B5E_55ED;

impl PoissonArrivals {
    /// An arrival stream with the given mean inter-arrival gap.
    ///
    /// # Panics
    ///
    /// Panics unless `mean_ns` is positive and finite.
    pub fn new(seed: u64, mean_ns: f64) -> PoissonArrivals {
        assert!(
            mean_ns.is_finite() && mean_ns > 0.0,
            "mean gap must be positive and finite"
        );
        PoissonArrivals {
            rng: SmallRng::seed_from_u64(seed),
            mean_ns,
        }
    }

    /// The arrival stream worker `worker` of `spec` paces itself by,
    /// at `1e9 / mean_ns` arrivals per second per worker.
    pub fn for_worker(spec: &WorkloadSpec, worker: u64, mean_ns: f64) -> PoissonArrivals {
        Self::new(
            spec.seed ^ scramble(worker, u64::MAX) ^ ARRIVAL_SALT,
            mean_ns,
        )
    }

    /// The next inter-arrival gap, in nanoseconds.
    ///
    /// Inversion sampling: `u` is uniform in `[0, 1)`, so `1 - u` is in
    /// `(0, 1]` and the log never sees zero.
    pub fn next_gap_ns(&mut self) -> u64 {
        let u: f64 = self.rng.gen();
        (-self.mean_ns * (1.0 - u).ln()) as u64
    }
}

/// A load-engine run, layered on a [`WorkloadSpec`].
#[derive(Debug, Clone, Copy)]
pub struct LoadSpec {
    /// The op streams (keys, mix, sizes, seed). Issued counts stay a
    /// pure function of `(workload, workers, ops_per_worker)`.
    pub workload: WorkloadSpec,
    /// Client threads, each with its own op stream (and, paced, its
    /// own arrival stream).
    pub workers: usize,
    /// Client endpoints over the ring mesh, split evenly across
    /// workers (must be a positive multiple of `workers`). More
    /// connections deepen server-side buffering the way more physical
    /// clients would, without needing more threads.
    pub connections: usize,
    /// Key-operations each worker issues.
    pub ops_per_worker: u64,
    /// Aggregate Poisson arrival rate, in key-ops per second: the open
    /// loop. `None` is the closed loop — every op is due the moment it
    /// is drawn.
    pub offered_ops_per_sec: Option<f64>,
    /// Ring depth per connection.
    pub depth: usize,
    /// Maximum plain reads in flight per connection and shard; must
    /// not exceed `depth` (the no-blocking-sends discipline).
    pub window: usize,
}

/// What a load-engine run measured.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// What the clients observed; the issued counts are deterministic
    /// per spec.
    pub tally: Tally,
    /// Operations that became due while their worker was still busy
    /// with earlier work — the schedule-pressure gauge: a saturated run
    /// is late on nearly every op, an underloaded one on almost none.
    /// Always 0 in the closed loop.
    pub late: u64,
    /// Latency of every read key-op, plain or batched, from its due
    /// time to its reply, ns.
    pub read_lat: HistogramSnapshot,
    /// Set/CAS/delete latency from due time to ack, ns.
    pub write_lat: HistogramSnapshot,
    /// Wall time of the measure phase.
    pub wall: Duration,
    /// Store-side counter deltas over the measure phase (maintenance
    /// stalls live here).
    pub store: StatsSnapshot,
}

/// One worker's pipelined loop over its slice of connections: the
/// closed loop when `arrivals` is `None`, the open loop when it paces.
///
/// Each op is due at its arrival time — unpaced, the moment it is
/// drawn, so nothing waits and nothing is late. Plain reads go out as
/// [`ServiceClient::send_get_timed`] and drain FIFO per (connection,
/// shard), at most `window` in flight per pair: with `window ≤ depth`
/// one-frame requests queued per ring, a send never blocks, which keeps
/// the waits-for graph acyclic (servers only ever wait on reply rings
/// their one client is guaranteed to drain). Anything else drains its
/// connection first and runs the blocking path, so per-connection
/// ordering matches [`drive_worker`]. Waiting out an arrival gap drains
/// ready replies instead of spinning. Latency is *always* `reply time -
/// due`: an op that started late because the loop was busy still
/// charges its full schedule slip, which makes coordinated omission
/// structurally impossible here rather than merely corrected for.
///
/// Returns the tally and `(late, read_lat, write_lat)`.
fn drive_pipelined<S: MsgSender, C: MsgReceiver>(
    conns: &[ServiceClient<S, C>],
    mut stream: OpStream,
    mut arrivals: Option<PoissonArrivals>,
    ops: u64,
    window: usize,
) -> (Tally, (u64, HistogramSnapshot, HistogramSnapshot)) {
    let shards = conns[0].num_shards();
    let mut tally = Tally::default();
    let mut late = 0;
    let (read_lat, write_lat) = (Histogram::new(), Histogram::new());
    // Due times of in-flight reads, FIFO per (connection, shard) —
    // replies on one ring arrive in send order.
    let mut pending = vec![vec![VecDeque::<u64>::new(); shards]; conns.len()];

    let read = |tally: &mut Tally, due: u64, hit: ReadHit| {
        read_lat.record(mono_ns().saturating_sub(due));
        match hit {
            Some(_) => tally.hits += 1,
            None => tally.misses += 1,
        }
    };
    // Blocks for the oldest read `(c, shard)` owes.
    let drain_one = |pending: &mut [Vec<VecDeque<u64>>], tally: &mut Tally, c: usize, shard| {
        let hit = conns[c].read_get_reply(shard).expect("wire error");
        read(tally, pending[c][shard].pop_front().expect("owed"), hit);
    };
    // Every read connection `c` owes, so a blocking op runs behind them.
    let drain_conn = |pending: &mut [Vec<VecDeque<u64>>], tally: &mut Tally, c: usize| {
        for shard in 0..shards {
            while !pending[c][shard].is_empty() {
                drain_one(pending, tally, c, shard);
            }
        }
    };
    // Drains every reply already waiting; returns whether any was.
    let drain_ready = |pending: &mut [Vec<VecDeque<u64>>], tally: &mut Tally| {
        let mut any = false;
        for (conn, queues) in conns.iter().zip(pending.iter_mut()) {
            for (shard, queue) in queues.iter_mut().enumerate() {
                while !queue.is_empty() {
                    let Some(hit) = conn.try_read_get_reply(shard).expect("wire error") else {
                        break;
                    };
                    read(tally, queue.pop_front().expect("owed"), hit);
                    any = true;
                }
            }
        }
        any
    };

    let mut next_at = mono_ns();
    let mut c = 0;
    while tally.issued.total() < ops {
        let op = stream.next_op();
        let due = match arrivals.as_mut() {
            None => mono_ns(),
            Some(arrivals) => {
                next_at += arrivals.next_gap_ns();
                if mono_ns() >= next_at {
                    late += 1;
                }
                // Wait out the gap, putting the idle time to work.
                while mono_ns() < next_at {
                    if !drain_ready(&mut pending, &mut tally) {
                        core::hint::spin_loop();
                    }
                }
                next_at
            }
        };
        match op {
            Op::Get(key) => {
                tally.issued.gets += 1;
                let shard = shard_of(key, shards);
                while pending[c][shard].len() >= window {
                    drain_one(&mut pending, &mut tally, c, shard);
                }
                conns[c].send_get_timed(key, due);
                pending[c][shard].push_back(due);
            }
            op => {
                // Writes and batched reads barrier their connection,
                // then run blocking; the latency still counts from the
                // due time, drain included — once per key-op, in the
                // histogram of the op's kind.
                drain_conn(&mut pending, &mut tally, c);
                let lat = match op {
                    Op::MultiGet(_) => &read_lat,
                    _ => &write_lat,
                };
                let key_ops = op.weight();
                apply_op(&conns[c], op, &mut tally);
                let ns = mono_ns().saturating_sub(due);
                (0..key_ops).for_each(|_| lat.record(ns));
            }
        }
        c = (c + 1) % conns.len();
    }
    for c in 0..conns.len() {
        drain_conn(&mut pending, &mut tally, c);
    }
    (tally, (late, read_lat.snapshot(), write_lat.snapshot()))
}

/// Runs the load engine: preload the keyspace, spawn one server thread
/// per shard and `workers` client threads over `connections` ring
/// clients of `depth` slots, drive `ops_per_worker` key-operations per
/// worker — unpaced, or against the Poisson schedule of the offered
/// rate — with up to `window` plain reads in flight per connection and
/// shard, and report.
///
/// Issued op counts are deterministic in `(workload, workers,
/// ops_per_worker)` — connections, depth, window and the offered rate
/// change timing, never the op streams; wall time, latencies and the
/// hit/miss split of mixes with deletes are load-dependent.
///
/// # Panics
///
/// Panics if `workers` is zero, `connections` is not a positive
/// multiple of `workers`, `window` is zero or exceeds `depth`, or the
/// offered rate is not positive and finite.
pub fn run_load<R: RawLock + Default>(router: &ShardRouter<R>, spec: &LoadSpec) -> LoadReport {
    assert!(
        spec.workers > 0 && spec.connections > 0 && spec.connections % spec.workers == 0,
        "connections ({}) must be a positive multiple of workers ({})",
        spec.connections,
        spec.workers
    );
    assert!(
        spec.window >= 1 && spec.window <= spec.depth,
        "ring window {} must be in 1..=depth ({})",
        spec.window,
        spec.depth
    );
    // Preload directly through the router: every key present.
    for (key, value) in spec.workload.preload_values() {
        router.set(key, value);
    }
    let before = router.stats_snapshot();

    let (endpoints, clients) = ring_mesh(router.num_shards(), spec.connections, spec.depth);
    let mut clients = clients.into_iter();
    let per_worker = spec.connections / spec.workers;
    let chunks: Vec<Vec<_>> = (0..spec.workers)
        .map(|_| clients.by_ref().take(per_worker).collect())
        .collect();
    let start = Instant::now();
    let (tally, timings) = std::thread::scope(|s| {
        for (shard, endpoint) in endpoints.into_iter().enumerate() {
            let store = router.shard(shard);
            s.spawn(move || serve(store, endpoint));
        }
        fan_out(chunks, |worker, conns| {
            let worker = worker as u64;
            // `workers` independent streams at rate/workers each
            // superpose to a Poisson stream at the offered rate.
            let arrivals = spec.offered_ops_per_sec.map(|rate| {
                let mean_ns = spec.workers as f64 * 1e9 / rate;
                PoissonArrivals::for_worker(&spec.workload, worker, mean_ns)
            });
            let stream = OpStream::new(&spec.workload, worker);
            let out = drive_pipelined(&conns, stream, arrivals, spec.ops_per_worker, spec.window);
            conns.into_iter().for_each(ServiceClient::close);
            out
        })
    });
    let wall = start.elapsed();

    let mut report = LoadReport {
        tally,
        wall,
        store: router.stats_snapshot().delta(&before),
        ..LoadReport::default()
    };
    for (late, read_lat, write_lat) in timings {
        report.late += late;
        report.read_lat.merge(&read_lat);
        report.write_lat.merge(&write_lat);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssync_locks::TicketLock;

    /// The closed loop: one connection per worker, no schedule.
    fn closed(
        workload: WorkloadSpec,
        workers: usize,
        ops: u64,
        depth: usize,
        window: usize,
    ) -> LoadSpec {
        LoadSpec {
            workload,
            workers,
            connections: workers,
            ops_per_worker: ops,
            offered_ops_per_sec: None,
            depth,
            window,
        }
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
        let report = run_load(&router, &closed(spec, 2, 500, 16, 4));
        assert!(report.tally.issued.total() >= 1000);
        // YCSB-A over a preloaded keyspace with no deletes: every read
        // hits.
        assert_eq!(report.tally.misses, 0);
        assert!((report.tally.hit_rate() - 1.0).abs() < f64::EPSILON);
        // Store-side counters saw the workload's writes.
        assert_eq!(report.store.sets, report.tally.issued.sets);
        assert!(report.tally.ops_per_sec(report.wall) > 0.0);
        // Unpaced, nothing is ever late, and every key-op is measured.
        assert_eq!(report.late, 0);
        assert_eq!(report.read_lat.count(), report.tally.issued.gets);
        assert_eq!(report.write_lat.count(), report.tally.issued.sets);

        // Op counts replay exactly on a fresh router.
        let router2: ShardRouter<TicketLock> = ShardRouter::new(2, 64, 8);
        let report2 = run_load(&router2, &closed(spec, 2, 500, 16, 4));
        assert_eq!(report.tally.issued, report2.tally.issued);
        assert_eq!(report.tally.hits, report2.tally.hits);
    }

    #[test]
    fn unpaced_driver_is_the_sequential_closed_loop() {
        // One client, a delete-free mix with CAS (so the write barrier
        // and the CAS read half both run): the pipelined driver with no
        // schedule observes exactly what the sequential driver does and
        // leaves the store in exactly the same state, versions included.
        let spec = WorkloadSpec {
            keys: 128,
            mix: Mix::new("rmw", 50, 30, 20, 0),
            ..WorkloadSpec::example()
        };
        let run = |pipelined: bool| {
            let router: ShardRouter<TicketLock> = ShardRouter::new(2, 64, 8);
            for (key, value) in spec.preload_values() {
                router.set(key, value);
            }
            let (endpoints, mut clients) = ring_mesh(router.num_shards(), 1, 32);
            let tally = std::thread::scope(|s| {
                for (shard, endpoint) in endpoints.into_iter().enumerate() {
                    let store = router.shard(shard);
                    s.spawn(move || serve(store, endpoint));
                }
                let client = clients.pop().unwrap();
                let stream = OpStream::new(&spec, 0);
                let tally = if pipelined {
                    drive_pipelined(std::slice::from_ref(&client), stream, None, 600, 8).0
                } else {
                    drive_worker(&client, stream, 600)
                };
                client.close();
                tally
            });
            let contents: Vec<_> = (0..2).map(|shard| router.shard(shard).dump()).collect();
            (tally, contents)
        };
        let (sequential, seq_contents) = run(false);
        let (pipelined, piped_contents) = run(true);
        assert_eq!(sequential, pipelined);
        assert!(sequential.issued.cas > 0 && sequential.cas_ok == sequential.issued.cas);
        assert_eq!(seq_contents, piped_contents);
    }

    #[test]
    fn pipelining_window_does_not_change_results() {
        // Same spec at window 1 (at most one read in flight per shard)
        // and window 8: the issued streams are identical by
        // construction, and on a delete-free mix the observed hit/miss
        // tallies must match too — pipelining reorders nothing a single
        // worker can see.
        let spec = WorkloadSpec {
            keys: 256,
            mix: Mix::YCSB_B,
            ..WorkloadSpec::example()
        };
        let serial: ShardRouter<TicketLock> = ShardRouter::new(2, 64, 8);
        let base = run_load(&serial, &closed(spec, 2, 400, 32, 1));
        let pipelined: ShardRouter<TicketLock> = ShardRouter::new(2, 64, 8);
        let piped = run_load(&pipelined, &closed(spec, 2, 400, 32, 8));
        assert_eq!(base.tally, piped.tally);
        assert_eq!(base.store.sets, piped.store.sets);
        // Both stores converge to identical contents (same versions:
        // single-writer-per-key is not guaranteed here, but set counts
        // per key are, and YCSB-B only sets).
        assert_eq!(serial.len(), pipelined.len());
    }

    #[test]
    fn pipelined_driver_handles_mixed_and_churn_ops() {
        // Churn exercises the write barrier (flush before set/cas/
        // delete) and delete/refill cycles under pipelining.
        let spec = WorkloadSpec {
            keys: 128,
            mix: Mix::CHURN,
            ..WorkloadSpec::example()
        };
        let router: ShardRouter<TicketLock> = ShardRouter::new(2, 64, 8);
        let report = run_load(&router, &closed(spec, 2, 300, 16, 16));
        assert_eq!(report.tally.issued.total(), 600);
        assert!(report.tally.issued.deletes > 0 && report.tally.issued.cas > 0);
        // Replays exactly.
        let router2: ShardRouter<TicketLock> = ShardRouter::new(2, 64, 8);
        let report2 = run_load(&router2, &closed(spec, 2, 300, 16, 16));
        assert_eq!(report.tally.issued, report2.tally.issued);
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
            let report = run_load(&router, &closed(workload, 2, 6_000, 64, 16));
            let case = format!("{shards} shards, {dist:?}, {}, batch {batch}", mix.name);
            let i = report.tally.issued;
            assert_eq!([i.gets, i.sets, i.cas, i.deletes], counts, "{case}");
            if let Some(runs) = maintenance {
                assert_eq!(report.store.maintenance_runs, runs, "{case}");
            }
        }
    }

    #[test]
    fn poisson_arrivals_replay_and_match_their_mean() {
        let spec = WorkloadSpec::example();
        let draw = |worker: u64| -> Vec<u64> {
            let mut p = PoissonArrivals::for_worker(&spec, worker, 10_000.0);
            (0..4000).map(|_| p.next_gap_ns()).collect()
        };
        // Same worker, same schedule; different worker, different one.
        let a = draw(2);
        assert_eq!(a, draw(2));
        assert_ne!(a, draw(3));
        // The empirical mean sits near the target (the seed is fixed,
        // so this either always passes or never does).
        let mean = a.iter().sum::<u64>() as f64 / a.len() as f64;
        assert!(
            (mean - 10_000.0).abs() < 500.0,
            "empirical mean {mean} too far from 10000"
        );
        // Exponential gaps spread: some well under the mean, some well
        // over — a constant-gap pacer would fail both.
        assert!(a.iter().any(|&g| g < 2_000));
        assert!(a.iter().any(|&g| g > 30_000));
    }

    /// Two pacing workers over 4 connections, and over 256 — many
    /// connections per worker, each with few ops, the client-scaling
    /// axis of the open loop.
    #[test]
    fn open_loop_replays_issued_counts_and_measures_latency() {
        for connections in [4, 256] {
            let spec = LoadSpec {
                workload: WorkloadSpec {
                    keys: 256,
                    mix: Mix::YCSB_B,
                    ..WorkloadSpec::example()
                },
                workers: 2,
                connections,
                ops_per_worker: 300,
                offered_ops_per_sec: Some(50_000.0),
                depth: 32,
                window: 8,
            };
            let router: ShardRouter<TicketLock> = ShardRouter::new(2, 64, 8);
            let report = run_load(&router, &spec);
            let t = report.tally;
            assert_eq!(t.issued.total(), 600, "{connections} connections");
            // Every read drained through the timed path, every write
            // took the blocking path; nothing measured twice, nothing
            // dropped.
            assert_eq!(report.read_lat.count(), t.issued.gets);
            assert_eq!(report.write_lat.count(), t.issued.sets);
            assert_eq!(t.hits + t.misses, t.issued.gets);
            assert_eq!(t.misses, 0, "preloaded, delete-free keyspace");
            assert!(report.read_lat.quantile(0.99).unwrap() > 0);
            assert!(t.ops_per_sec(report.wall) > 0.0);
            // The op streams replay exactly on a fresh router.
            let router2: ShardRouter<TicketLock> = ShardRouter::new(2, 64, 8);
            let report2 = run_load(&router2, &spec);
            assert_eq!(t.issued, report2.tally.issued);
            assert_eq!(t.hits, report2.tally.hits);
        }
    }

    #[test]
    fn open_loop_files_batched_reads_as_reads() {
        // Regression: a multi-get took the blocking arm and landed in
        // the write histogram, so no read of a batched mix was measured.
        let spec = LoadSpec {
            workload: WorkloadSpec {
                keys: 256,
                mix: Mix::YCSB_C,
                batch: 4,
                ..WorkloadSpec::example()
            },
            workers: 1,
            connections: 2,
            ops_per_worker: 200,
            offered_ops_per_sec: Some(50_000.0),
            depth: 16,
            window: 4,
        };
        let router: ShardRouter<TicketLock> = ShardRouter::new(2, 64, 8);
        let report = run_load(&router, &spec);
        assert_eq!(report.write_lat.count(), 0);
        assert_eq!(report.read_lat.count(), report.tally.issued.gets);
        assert_eq!(report.tally.issued.gets, 200);
    }

    #[test]
    fn open_loop_goes_late_under_impossible_load_but_still_issues_all() {
        // An offered rate no machine sustains pushes the schedule
        // permanently behind: the loop must not skip or stall, and the
        // lateness gauge must show the pressure.
        let spec = LoadSpec {
            workload: WorkloadSpec {
                keys: 128,
                mix: Mix::CHURN,
                ..WorkloadSpec::example()
            },
            workers: 1,
            connections: 2,
            ops_per_worker: 300,
            offered_ops_per_sec: Some(1e9),
            depth: 16,
            window: 4,
        };
        let router: ShardRouter<TicketLock> = ShardRouter::new(1, 64, 8);
        let report = run_load(&router, &spec);
        let issued = report.tally.issued;
        assert_eq!(issued.total(), 300);
        assert!(issued.deletes > 0 && issued.cas > 0);
        assert!(
            report.late > 100,
            "a 1 Gop/s schedule must run late ({} late)",
            report.late
        );
        // Churn writes measure too (set + cas + delete all barrier).
        assert_eq!(
            report.write_lat.count(),
            issued.sets + issued.cas + issued.deletes
        );
    }

    #[test]
    #[should_panic(expected = "window")]
    fn ring_window_beyond_depth_rejected() {
        let router: ShardRouter<TicketLock> = ShardRouter::new(1, 64, 8);
        let _ = run_load(&router, &closed(WorkloadSpec::example(), 1, 10, 8, 9));
    }
}
