//! The one generic closed-loop driver: a single generator thread, one
//! connection, one call outstanding (plus the pipelined read window of
//! the srv throughput phase). Every serving stack — and every rung of
//! the traced ladder — is driven through [`Target`], so all of them are
//! timed by exactly the same code.

use std::collections::VecDeque;

use ssync_core::mono_ns;
use ssync_mp::{RingReceiver, RingSender};
use ssync_srv::{KvClient, ServiceClient, WireError};

use crate::gen::{Op, OpGen, OpKind, Plan, WorkloadSpec, CHUNK};
use crate::oracle::Oracle;
use crate::stats::{window_percentile, Windowed};

/// The srv stack's client on the ring transport.
pub type SrvClient = ServiceClient<RingSender, RingReceiver>;

/// What the driver issues operations against. `KvClient` minus
/// `get_many`, with the read value left abstract so that a bare store
/// can hand out its own `Bytes` without paying a copy the store does
/// not make.
pub trait Target {
    type Val: AsRef<[u8]>;
    fn get(&self, key: u64) -> Result<Option<(u64, Self::Val)>, WireError>;
    fn set(&self, key: u64, value: Vec<u8>) -> Result<u64, WireError>;
    fn cas(&self, key: u64, value: Vec<u8>, expected: u64) -> Result<Result<u64, u64>, WireError>;
    fn delete(&self, key: u64) -> Result<Option<u64>, WireError>;
}

/// Any of the three service clients as a [`Target`].
pub struct Via<'a, C: KvClient>(pub &'a C);

impl<C: KvClient> Target for Via<'_, C> {
    type Val = Vec<u8>;

    fn get(&self, key: u64) -> Result<Option<(u64, Vec<u8>)>, WireError> {
        self.0.get(key)
    }

    fn set(&self, key: u64, value: Vec<u8>) -> Result<u64, WireError> {
        self.0.set(key, value)
    }

    fn cas(&self, key: u64, value: Vec<u8>, expected: u64) -> Result<Result<u64, u64>, WireError> {
        self.0.cas(key, value, expected)
    }

    fn delete(&self, key: u64) -> Result<Option<u64>, WireError> {
        self.0.delete(key)
    }
}

/// Independent op streams of one run.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// Warm-up, the rtt and throughput phases, the reshard event.
    Steady = 0,
    /// The failover event's fresh group.
    Failover = 2,
}

/// One op stream with the oracle that checks it.
pub struct Load {
    pub gen: OpGen,
    pub oracle: Oracle,
    sizes: OpGen,
}

impl Load {
    pub fn new(spec: &WorkloadSpec, seed: u64, stream: Stream) -> Load {
        Load {
            gen: OpGen::new(spec, seed, stream as u64),
            oracle: Oracle::new(spec.keys),
            sizes: OpGen::new(spec, seed, stream as u64 + 1),
        }
    }

    /// Fills the whole keyspace through `store_set`.
    pub fn preload(&mut self, store_set: impl FnMut(u64, &[u8]) -> u64) {
        self.oracle.preload(&mut self.sizes, store_set);
    }

    /// Issues one op and checks its outcome. With `TIMED`, returns the
    /// nanoseconds the call itself took: the clock is read either side
    /// of the call, after the value is built and before the oracle
    /// looks at the reply.
    #[inline]
    pub fn exec<T: Target, const TIMED: bool>(&mut self, target: &T, op: Op) -> u64 {
        let clock = || if TIMED { mono_ns() } else { 0 };
        match op.kind {
            OpKind::Get => {
                let t0 = clock();
                let reply = target.get(op.key);
                let dt = clock() - t0;
                self.oracle.check_get(op.key, reply);
                dt
            }
            OpKind::Set => {
                let value = self.oracle.next_value(op.key, op.len);
                let t0 = clock();
                let reply = target.set(op.key, value);
                let dt = clock() - t0;
                self.oracle.check_set(op.key, op.len, reply);
                dt
            }
            OpKind::Cas => {
                let value = self.oracle.next_value(op.key, op.len);
                let expected = self.oracle.cas_expected(op.key);
                let t0 = clock();
                let reply = target.cas(op.key, value, expected);
                let dt = clock() - t0;
                self.oracle.check_cas(op.key, op.len, reply);
                dt
            }
            OpKind::Delete => {
                let t0 = clock();
                let reply = target.delete(op.key);
                let dt = clock() - t0;
                self.oracle.check_delete(op.key, reply);
                dt
            }
        }
    }

    /// Untimed blocking ops straight off the generator.
    pub fn warm_up<T: Target>(&mut self, target: &T, ops: u64) {
        for _ in 0..ops {
            let op = self.gen.next_op();
            self.exec::<_, false>(target, op);
        }
    }
}

/// Read and write (set + cas + delete) round-trip classes.
const CLASSES: usize = 2;

/// The percentiles every rtt window computes: the median, the gated
/// tail, and the p99 the run files carry ungated (its run-to-run
/// spread on the shared reference host is 11-24 %: it times the
/// hypervisor's scheduler, not the stack).
pub const QUANTILES: [f64; 3] = [0.50, 0.90, 0.99];

/// One rtt window's percentiles, nanoseconds, `[quantile][class]`.
struct RttWindow {
    quantiles: [[f64; CLASSES]; QUANTILES.len()],
    samples: [u64; CLASSES],
}

/// Sample buffers of one rtt window, one per class. Written once up
/// front: a buffer that page-faults while it grows would put a kernel
/// entry between clocked calls.
pub fn sample_buffers(window_ops: u64) -> [Vec<u32>; CLASSES] {
    [0, 1].map(|_| vec![u32::MAX; window_ops as usize])
}

/// The clocked loop of one rtt window: blocking calls, the clock read
/// either side of each, every sample kept. Returns the mean round
/// trip, nanoseconds.
pub fn clocked_window<T: Target>(
    load: &mut Load,
    target: &T,
    window_ops: u64,
    samples: &mut [Vec<u32>; CLASSES],
) -> f64 {
    debug_assert_eq!(window_ops % CHUNK, 0);
    samples.iter_mut().for_each(Vec::clear);
    // Generated a chunk at a time, between clocked calls: a whole
    // window generated up front is megabytes of harness data streaming
    // through the generator core's cache — 5-10 % on the measured
    // round trip when this was tried.
    let mut chunk = Vec::with_capacity(CHUNK as usize);
    let mut total = 0u64;
    for _ in 0..window_ops / CHUNK {
        load.gen.fill(&mut chunk, CHUNK);
        for &op in &chunk {
            let dt = load.exec::<_, true>(target, op);
            total += dt;
            samples[usize::from(op.kind.is_write())].push(dt.min(u64::from(u32::MAX)) as u32);
        }
    }
    total as f64 / window_ops as f64
}

fn rtt_window<T: Target>(
    load: &mut Load,
    target: &T,
    window_ops: u64,
    samples: &mut [Vec<u32>; CLASSES],
) -> RttWindow {
    clocked_window(load, target, window_ops, samples);
    let percentile = |class: &mut Vec<u32>, q: f64| {
        f64::from(window_percentile(class, q).unwrap_or_else(|| {
            panic!(
                "rtt window too small for p{}: {} samples",
                q * 100.0,
                class.len()
            )
        }))
    };
    let [reads, writes] = samples;
    RttWindow {
        quantiles: QUANTILES.map(|q| [percentile(reads, q), percentile(writes, q)]),
        samples: [reads.len() as u64, writes.len() as u64],
    }
}

/// One throughput window of `window_ops` ops; returns ops/s over the
/// time spent inside `issue`, which gets one generated chunk per call
/// and must have every reply in hand when it returns.
pub fn tput_window(
    load: &mut Load,
    window_ops: u64,
    mut issue: impl FnMut(&mut Load, &[Op]),
) -> f64 {
    debug_assert_eq!(window_ops % CHUNK, 0);
    let mut chunk = Vec::with_capacity(CHUNK as usize);
    let mut busy_ns = 0;
    for _ in 0..window_ops / CHUNK {
        load.gen.fill(&mut chunk, CHUNK);
        let t0 = mono_ns();
        issue(load, &chunk);
        busy_ns += mono_ns() - t0;
    }
    window_ops as f64 * 1e9 / busy_ns as f64
}

/// Blocking calls, one outstanding: the rtt phase without its clocks.
pub fn issue_blocking<T: Target>(load: &mut Load, target: &T, ops: &[Op]) {
    for &op in ops {
        load.exec::<_, false>(target, op);
    }
}

/// The srv stack's pipelined read path: up to `depth` reads in flight
/// on the (single) shard, every write a barrier — so no read ever
/// races a write of its own connection and the oracle can check each
/// reply against the model as it stands.
pub fn issue_pipelined(load: &mut Load, client: &SrvClient, ops: &[Op], depth: usize) {
    let mut in_flight: VecDeque<(u64, usize)> = VecDeque::with_capacity(depth);
    let drain = |load: &mut Load, in_flight: &mut VecDeque<(u64, usize)>, down_to: usize| {
        while in_flight.len() > down_to {
            let (key, shard) = in_flight.pop_front().expect("non-empty");
            load.oracle.check_get(key, client.read_get_reply(shard));
        }
    };
    for &op in ops {
        if op.kind == OpKind::Get {
            drain(load, &mut in_flight, depth - 1);
            in_flight.push_back((op.key, client.send_get(op.key)));
        } else {
            drain(load, &mut in_flight, 0);
            load.exec::<_, false>(&Via(client), op);
        }
    }
    drain(load, &mut in_flight, 0);
}

/// The rtt phase's report: medians over windows, `[read, write]`.
#[derive(Debug, Clone, Copy)]
pub struct Rtt {
    /// Microseconds, `[quantile of QUANTILES][class]`.
    pub quantiles_us: [[Windowed; CLASSES]; QUANTILES.len()],
}

/// The steady-state phases' report.
#[derive(Debug, Clone, Copy)]
pub struct Steady {
    pub rtt: Rtt,
    pub ops_per_s: Windowed,
}

/// The rtt phase: `plan.windows` windows of blocking, clocked calls.
pub fn rtt_phase<T: Target>(load: &mut Load, target: &T, plan: &Plan) -> Rtt {
    let mut samples = sample_buffers(plan.rtt_window_ops);
    let windows: Vec<RttWindow> = (0..plan.windows)
        .map(|_| rtt_window(load, target, plan.rtt_window_ops, &mut samples))
        .collect();
    let over_windows = |quantile: usize, class: usize| {
        let per_window: Vec<f64> = windows
            .iter()
            .map(|w| w.quantiles[quantile][class] / 1e3)
            .collect();
        Windowed::of(&per_window, windows.iter().map(|w| w.samples[class]).sum())
    };
    Rtt {
        quantiles_us: [0, 1, 2].map(|q| [over_windows(q, 0), over_windows(q, 1)]),
    }
}

/// Warm-up, rtt phase, throughput phase. `issue` issues one chunk of
/// the throughput phase.
pub fn steady<T: Target>(
    load: &mut Load,
    target: &T,
    plan: &Plan,
    mut issue: impl FnMut(&mut Load, &[Op]),
) -> Steady {
    load.warm_up(target, plan.warm_ops);
    let rtt = rtt_phase(load, target, plan);
    let rates: Vec<f64> = (0..plan.windows)
        .map(|_| tput_window(load, plan.tput_window_ops, &mut issue))
        .collect();
    Steady {
        rtt,
        ops_per_s: Windowed::of(&rates, plan.tput_window_ops * plan.windows as u64),
    }
}
