//! The benchmark's own seeded load generator.
//!
//! Deliberately independent of `ssync_srv::workload::OpStream` and of
//! the vendored `rand` shim: a refactor of either must not be able to
//! change the load a later PR is judged on. Everything here is a pure
//! function of `(workload, seed)`; the golden tests at the bottom pin
//! the first ops and the per-window op counts of every workload.

/// The seed every committed number is measured under.
pub const DEFAULT_SEED: u64 = 0x5EED11;

/// The held-out seed: never used while a change is being written, only
/// to confirm that a claim made under [`DEFAULT_SEED`] still holds.
pub const HELD_OUT_SEED: u64 = 0xC0FFEE42;

/// Bytes every value starts with: `(key, per-key write sequence)`.
pub const VALUE_HEADER: usize = 16;

/// xoshiro256** seeded through splitmix64.
#[derive(Debug, Clone)]
pub struct Rng([u64; 4]);

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut s = seed;
        Rng([
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
        ])
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; the multiply-shift bias (< 2^-40 for every
    /// `n` used here) is irrelevant to a load generator.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Stateless 64-bit finalizer (also the values' filler-byte hash).
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    z = (z ^ (z >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    z ^ (z >> 33)
}

/// How keys are drawn from the dense keyspace `0..keys`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    Uniform,
    /// YCSB's scrambled zipfian with exponent `theta`.
    Zipf(f64),
}

/// Gray et al.'s rejection-free zipfian sampler (the one YCSB uses),
/// with ranks scattered over the keyspace so the hot keys do not share
/// hash-table neighbourhoods.
#[derive(Debug, Clone)]
struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    fn new(n: u64, theta: f64) -> Zipf {
        assert!(n > 1 && theta > 0.0 && theta < 1.0);
        let zeta = |n: u64| (1..=n).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
        }
    }

    fn key(&self, rng: &mut Rng) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            ((self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64)
                .min(self.n - 1)
        };
        mix64(rank.wrapping_add(0x2545_F491_4F6C_DD1D)) % self.n
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpKind {
    Get = 0,
    Set = 1,
    Cas = 2,
    Delete = 3,
}

impl OpKind {
    pub const ALL: [OpKind; 4] = [OpKind::Get, OpKind::Set, OpKind::Cas, OpKind::Delete];

    pub fn is_write(self) -> bool {
        self != OpKind::Get
    }
}

/// One generated key-operation. `len` is the value length a `Set` or
/// `Cas` will carry (ignored by `Get`/`Delete`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub key: u64,
    pub kind: OpKind,
    pub len: u16,
}

/// Which serving stack a workload stands up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    Srv,
    Repl,
    Cluster,
}

/// Everything that defines one workload's load. The op-rate fields are
/// calibration constants for the 2-core reference host: they turn
/// `--seconds` into *op counts* (so issued ops repeat exactly), sized
/// so that the measured phases take about `--seconds` there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    /// Listed in `BENCHMARK.json`, i.e. later PRs are gated on it.
    pub gated: bool,
    pub stack: Stack,
    /// Threads the topology runs, generator included.
    pub threads: usize,
    /// Set-ups timed per run (`setup_s` is their median): more for a
    /// stack that stands up in 20 ms than for one that takes 200.
    pub setups: usize,
    pub keys: u64,
    pub dist: KeyDist,
    /// get/set/cas/delete percentages (sum 100).
    pub mix: [u8; 4],
    pub value_min: u16,
    pub value_max: u16,
    /// Blocking ops/s on the reference host (sizes rtt windows, warm-up
    /// and the traced replay).
    pub rtt_rate: u64,
    /// Throughput-phase ops/s on the reference host.
    pub tput_rate: u64,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "srv_read",
        why: "YCSB-B on one srv shard: optimistic kv get, one-frame codec, ring hop and serve dispatch do nearly all the work; repl and cluster do none",
        gated: true,
        stack: Stack::Srv,
        threads: 2,
        setups: 15,
        keys: 65_536,
        dist: KeyDist::Zipf(0.99),
        mix: [95, 5, 0, 0],
        value_min: 16,
        value_max: 96,
        rtt_rate: 650_000,
        tput_rate: 1_350_000,
    },
    WorkloadSpec {
        name: "srv_write",
        why: "write-heavy large values on the same srv shard: locked write path, allocation, retire/reclaim and multi-frame codec dominate, optimistic reads do little",
        gated: true,
        stack: Stack::Srv,
        threads: 2,
        setups: 11,
        keys: 65_536,
        dist: KeyDist::Zipf(0.99),
        mix: [20, 50, 15, 15],
        value_min: 128,
        value_max: 1024,
        rtt_rate: 360_000,
        tput_rate: 390_000,
    },
    WorkloadSpec {
        name: "repl_sync",
        why: "YCSB-A on a leader plus one sync backup with replica reads: serve_node, op-log append, stream/ack hop and ReplClient routing carry the cost; srv::service and cluster are bypassed",
        gated: false,
        stack: Stack::Repl,
        threads: 3,
        setups: 7,
        keys: 65_536,
        dist: KeyDist::Zipf(0.99),
        mix: [50, 50, 0, 0],
        value_min: 16,
        value_max: 96,
        rtt_rate: 110_000,
        tput_rate: 110_000,
    },
    WorkloadSpec {
        name: "cluster_reshard",
        why: "uniform churn through the slot-fenced cluster stack, then a live 1-to-2 split: admission fence, freeze mask, map routing and the migration stream do the work",
        gated: true,
        stack: Stack::Cluster,
        threads: 3,
        setups: 31,
        keys: 32_768,
        dist: KeyDist::Uniform,
        mix: [60, 25, 10, 5],
        value_min: 16,
        value_max: 96,
        rtt_rate: 560_000,
        tput_rate: 540_000,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `--seconds` when the caller names none, and what `BENCHMARK.json`
/// runs every workload for.
pub const RUN_SECONDS: u64 = 18;

/// Phases are windows of fixed op counts; a reported value is the
/// median over a phase's windows.
pub const WINDOWS: usize = 7;

/// Untimed warm-up before the first window, in reference-host seconds.
/// The first 2-3 s of a fresh process run 15-30 % slow on the
/// reference host (frequency ramp, page faults, cold predictors).
pub const WARMUP_SECONDS: u64 = 3;

/// Every op count is a multiple of this (the traced replay's span
/// granularity).
pub const BATCH: u64 = 256;

/// Windows generate and issue their ops a chunk at a time, so window
/// op counts are multiples of this.
pub const CHUNK: u64 = 4 * BATCH;

/// Segments the traced run's top rung alternates between traced and
/// untraced in.
pub const LADDER_SEGMENTS: u64 = 8;

/// `ladder_ops` is a multiple of this: whole chunks per segment.
const LADDER_GRAIN: u64 = CHUNK * LADDER_SEGMENTS;

/// Op counts of one run. Counts, not durations: two runs with the same
/// `--seconds` issue exactly the same operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    pub windows: usize,
    pub warm_ops: u64,
    pub rtt_window_ops: u64,
    pub tput_window_ops: u64,
    /// Untimed ops each rung of the traced replay starts with.
    pub ladder_warm_ops: u64,
    /// Ops each rung of the traced replay clocks.
    pub ladder_ops: u64,
}

impl Plan {
    /// `seconds` is split evenly between the rtt and the throughput
    /// phase. `smoke` shrinks everything to one short window per phase.
    pub fn new(spec: &WorkloadSpec, seconds: u64, smoke: bool) -> Plan {
        let batches = |ops: u64| (ops / BATCH).max(4) * BATCH;
        let chunks = |ops: u64| (ops / CHUNK).max(1) * CHUNK;
        let segments = |ops: u64| (ops / LADDER_GRAIN).max(1) * LADDER_GRAIN;
        if smoke {
            return Plan {
                windows: 1,
                warm_ops: batches(spec.rtt_rate / 4),
                rtt_window_ops: chunks(spec.rtt_rate / 2),
                tput_window_ops: chunks(spec.tput_rate / 2),
                ladder_warm_ops: batches(spec.rtt_rate / 8),
                ladder_ops: segments(spec.rtt_rate / 4),
            };
        }
        let per_window = |rate: u64| chunks(rate * seconds / (2 * WINDOWS as u64));
        Plan {
            windows: WINDOWS,
            warm_ops: batches(spec.rtt_rate * WARMUP_SECONDS),
            rtt_window_ops: per_window(spec.rtt_rate),
            tput_window_ops: per_window(spec.tput_rate),
            ladder_warm_ops: batches(spec.rtt_rate),
            ladder_ops: segments(spec.rtt_rate * seconds / 5),
        }
    }
}

/// The seeded op stream of one workload.
#[derive(Debug, Clone)]
pub struct OpGen {
    rng: Rng,
    keys: u64,
    zipf: Option<Zipf>,
    /// Cumulative mix thresholds out of 100.
    cuts: [u8; 3],
    value_min: u16,
    value_span: u64,
    only: Option<OpKind>,
}

impl OpGen {
    /// `stream` separates independent op streams of one run (the
    /// steady phases, the failover event's fresh group, preload value
    /// sizes) without correlating them.
    pub fn new(spec: &WorkloadSpec, seed: u64, stream: u64) -> OpGen {
        assert_eq!(spec.mix.iter().map(|&p| u32::from(p)).sum::<u32>(), 100);
        assert!(spec.value_min as usize >= VALUE_HEADER && spec.value_min <= spec.value_max);
        let name_hash = spec.name.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
        });
        OpGen {
            rng: Rng::new(seed ^ name_hash ^ mix64(stream)),
            keys: spec.keys,
            zipf: match spec.dist {
                KeyDist::Uniform => None,
                KeyDist::Zipf(theta) => Some(Zipf::new(spec.keys, theta)),
            },
            cuts: [
                spec.mix[0],
                spec.mix[0] + spec.mix[1],
                spec.mix[0] + spec.mix[1] + spec.mix[2],
            ],
            value_min: spec.value_min,
            value_span: u64::from(spec.value_max - spec.value_min) + 1,
            only: None,
        }
    }

    /// Makes every following op of kind `kind` (keys and lengths are
    /// drawn as before); `None` restores the workload's mix. For the
    /// traced run's side passes over kinds a mix does not contain.
    pub fn only(&mut self, kind: Option<OpKind>) {
        self.only = kind;
    }

    pub fn value_len(&mut self) -> u16 {
        self.value_min + self.rng.below(self.value_span) as u16
    }

    pub fn next_op(&mut self) -> Op {
        let key = match &self.zipf {
            Some(zipf) => zipf.key(&mut self.rng),
            None => self.rng.below(self.keys),
        };
        let roll = self.rng.below(100) as u8;
        let kind = if let Some(kind) = self.only {
            kind
        } else if roll < self.cuts[0] {
            OpKind::Get
        } else if roll < self.cuts[1] {
            OpKind::Set
        } else if roll < self.cuts[2] {
            OpKind::Cas
        } else {
            OpKind::Delete
        };
        // Drawn for every op, so a mix change cannot shift the keys.
        let len = self.value_len();
        Op { key, kind, len }
    }

    /// Replaces `buf`'s contents with the next `n` ops.
    pub fn fill(&mut self, buf: &mut Vec<Op>, n: u64) {
        buf.clear();
        buf.extend((0..n).map(|_| self.next_op()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(ops: &[Op]) -> u64 {
        ops.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, op| {
            [op.key, op.kind as u64, u64::from(op.len)]
                .iter()
                .fold(h, |h, &w| (h ^ w).wrapping_mul(0x100_0000_01B3))
        })
    }

    fn first(spec: &WorkloadSpec, n: u64) -> Vec<Op> {
        let mut ops = Vec::new();
        OpGen::new(spec, DEFAULT_SEED, 0).fill(&mut ops, n);
        ops
    }

    /// `(workload, digest of the first 64 ops, first op, plan op
    /// counts at RUN_SECONDS, kind counts of the first rtt window)`.
    type Golden = (
        &'static str,
        u64,
        (u64, u8, u16),
        (u64, u64, u64, u64),
        [u64; 4],
    );

    const GOLDEN: [Golden; 4] = [
        (
            "srv_read",
            0x2BA9_5604_3957_BCB6,
            (6235, 0, 84),
            (1_949_952, 835_584, 1_735_680, 2_334_720),
            [793_902, 41_682, 0, 0],
        ),
        (
            "srv_write",
            0xBE12_9191_288E_AC1E,
            (12_292, 0, 776),
            (1_079_808, 462_848, 500_736, 1_294_336),
            [92_056, 231_894, 69_422, 69_476],
        ),
        (
            "repl_sync",
            0x72D9_C265_48C2_B60D,
            (12_722, 0, 92),
            (329_984, 141_312, 141_312, 393_216),
            [70_485, 70_827, 0, 0],
        ),
        (
            "cluster_reshard",
            0x9A8A_7434_4CF6_6B1A,
            (26_543, 0, 55),
            (1_679_872, 719_872, 694_272, 2_015_232),
            [432_108, 179_491, 72_007, 36_266],
        ),
    ];

    #[test]
    fn default_seed_ops_and_window_counts_are_pinned() {
        for (spec, golden) in WORKLOADS.iter().zip(GOLDEN) {
            let (name, want_digest, want_first, want_plan, want_kinds) = golden;
            assert_eq!(spec.name, name);
            let ops = first(spec, 64);
            assert_eq!(digest(&ops), want_digest, "{name}: first 64 ops moved");
            assert_eq!((ops[0].key, ops[0].kind as u8, ops[0].len), want_first);
            let plan = Plan::new(spec, RUN_SECONDS, false);
            assert_eq!(
                (
                    plan.warm_ops,
                    plan.rtt_window_ops,
                    plan.tput_window_ops,
                    plan.ladder_ops
                ),
                want_plan,
                "{name}: window op counts moved"
            );
            let mut kinds = [0u64; 4];
            for op in first(spec, plan.rtt_window_ops) {
                kinds[op.kind as usize] += 1;
            }
            assert_eq!(kinds, want_kinds, "{name}: first-window mix moved");
        }
    }

    #[test]
    fn streams_are_a_pure_function_of_workload_seed_and_stream() {
        let spec = &WORKLOADS[0];
        assert_eq!(first(spec, 512), first(spec, 512));
        let mut other = Vec::new();
        OpGen::new(spec, HELD_OUT_SEED, 0).fill(&mut other, 512);
        assert_ne!(first(spec, 512), other);
        OpGen::new(spec, DEFAULT_SEED, 1).fill(&mut other, 512);
        assert_ne!(first(spec, 512), other);
    }

    #[test]
    fn keys_lengths_and_mix_stay_in_range() {
        for spec in &WORKLOADS {
            let ops = first(spec, 100_000);
            let mut kinds = [0u64; 4];
            for op in &ops {
                assert!(op.key < spec.keys);
                assert!((spec.value_min..=spec.value_max).contains(&op.len));
                kinds[op.kind as usize] += 1;
            }
            for (count, pct) in kinds.iter().zip(spec.mix) {
                let share = *count as f64 / ops.len() as f64;
                assert!(
                    (share - f64::from(pct) / 100.0).abs() < 0.01,
                    "{}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn zipf_is_skewed_and_uniform_is_not() {
        let hottest_share = |spec: &WorkloadSpec| {
            let mut hits = vec![0u32; spec.keys as usize];
            for op in first(spec, 200_000) {
                hits[op.key as usize] += 1;
            }
            f64::from(*hits.iter().max().unwrap()) / 200_000.0
        };
        assert!(hottest_share(&WORKLOADS[0]) > 0.05);
        assert!(hottest_share(&WORKLOADS[3]) < 0.001);
    }

    #[test]
    fn smoke_plan_is_one_short_window() {
        for spec in &WORKLOADS {
            let plan = Plan::new(spec, RUN_SECONDS, true);
            assert_eq!(plan.windows, 1);
            assert!(plan.rtt_window_ops <= spec.rtt_rate);
            assert_eq!(plan.rtt_window_ops % CHUNK, 0);
        }
    }
}
