//! The traced run: one workload's op stream replayed up the cost
//! ladder its topology contains, every layer timed from outside —
//! around calls into public functions — with one span per rung per
//! 256-op batch.
//!
//! Rungs, bottom up: harness floors → lock/epoch/histogram/ring
//! micro-costs → bare `KvStore` → `ShardRouter` → wire codec → ring
//! echo against a null server → `ServiceClient`↔`serve` →
//! (`ReplClient`↔`serve_node` | `ClusterClient`↔`serve_cluster_node`).
//! Each rung gets a fresh [`Load`] on the same seed, so every rung
//! sees the identical operations and the oracle checks all of them.
//!
//! The same-thread rungs measure each layer's cost *in isolation*; the
//! cross-thread rungs measure whole round trips. `srv.service.self_ns`
//! is what is left of the service round trip once the isolated costs
//! are taken out, and `trace.closure_err_share` is that remainder's
//! share: how much of a round trip the ladder cannot attribute.

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::ops::Range;
use std::sync::Arc;

use bytes::Bytes;
use ssync_core::stats::bucket_bounds;
use ssync_core::{mono_ns, EpochDomain, Histogram, HistogramSnapshot, ParkingWait};
use ssync_kv::KvStore;
use ssync_locks::{Lock, TicketLock};
use ssync_mp::hub::{MsgReceiver, MsgSender};
use ssync_mp::ring::ring_channel;
use ssync_mp::{Message, ServerHub, MSG_WORDS};
use ssync_repl::FaultPlan;
use ssync_srv::router::key_bytes;
use ssync_srv::{Request, Response, ShardRouter, WireError};

use crate::driver::{clocked_window, sample_buffers, Load, Stream, Target, Via};
use crate::gen::{OpGen, OpKind, Plan, Stack, WorkloadSpec, BATCH, LADDER_SEGMENTS};
use crate::host::clock_profile;
use crate::metrics::{CLUSTER_LAYER, REPL_LAYER};
use crate::oracle::{Oracle, Tally};
use crate::stacks::{buckets, cluster_stack, repl_stack, srv_stack, Store, RING_DEPTH, STRIPES};
use crate::stats::{median, self_time, trimmed_mean};
use crate::workloads::{failover_event, reshard_event};

/// The ladder's rungs; a span's parent is the same batch one rung up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Rung {
    Kv = 1,
    Router = 2,
    Codec = 3,
    Echo = 4,
    Service = 5,
    Top = 6,
}

impl Rung {
    fn layer(self, spec: &WorkloadSpec) -> &'static str {
        match (self, spec.stack) {
            (Rung::Kv, _) => "kv",
            (Rung::Router, _) => "srv.router",
            (Rung::Codec, _) => "srv.wire",
            (Rung::Echo, _) => "mp",
            (Rung::Service, _) => "srv.service",
            (Rung::Top, Stack::Repl) => "repl",
            (Rung::Top, _) => "cluster",
        }
    }
}

/// One rung's time over one batch of ops. `busy_ns` is the sum of the
/// per-op clocked intervals; `end_ns - start_ns` additionally holds
/// the harness's own work between calls.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
}

/// One replayed batch of [`BATCH`] ops, as a rung's replay timed it.
struct Batch {
    index: u64,
    start_ns: u64,
    end_ns: u64,
    busy_ns: u64,
}

/// Spans stay in memory until the run ends.
pub struct Tracer {
    spec: &'static WorkloadSpec,
    top: Rung,
    pub spans: Vec<Span>,
}

impl Tracer {
    fn new(spec: &'static WorkloadSpec, plan: &Plan) -> Tracer {
        let top = if spec.stack == Stack::Srv {
            Rung::Service
        } else {
            Rung::Top
        };
        Tracer {
            spec,
            top,
            spans: Vec::with_capacity((plan.ladder_ops / BATCH) as usize * top as usize),
        }
    }

    fn record(&mut self, rung: Rung, batch: &Batch) {
        let id = |rung: u8| u64::from(rung) << 32 | batch.index;
        self.spans.push(Span {
            id: id(rung as u8),
            parent: if rung == self.top {
                0
            } else {
                id(rung as u8 + 1)
            },
            layer: rung.layer(self.spec),
            start_ns: batch.start_ns,
            end_ns: batch.end_ns,
            busy_ns: batch.busy_ns,
        });
    }

    /// One JSON object per line: `{id, parent, layer, op_kind,
    /// start_ns, end_ns, busy_ns, n}`. Batches mix op kinds, so
    /// `op_kind` is always `"mix"`; per-kind costs are in the metrics.
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(self.spans.len() * 128);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"layer\": \"{}\", \"op_kind\": \"mix\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"busy_ns\": {}, \"n\": {}}}",
                s.id, s.parent, s.layer, s.start_ns, s.end_ns, s.busy_ns, BATCH
            )
            .expect("writing to a String");
        }
        out
    }
}

/// Mean clocked ns per op of every replayed batch, by op class. A
/// reported cost is the mean of the middle 90 % of batches: the batch
/// the hypervisor preempted drops out, a cost that recurs every few
/// batches (the store's every-64th-write maintenance) stays in.
#[derive(Debug, Default)]
struct BatchMeans {
    by_kind: [Vec<f64>; 4],
    writes: Vec<f64>,
    all: Vec<f64>,
}

impl BatchMeans {
    fn push(&mut self, ns: [u64; 4], n: [u64; 4]) {
        let mean = |kinds: &[OpKind]| {
            let ops: u64 = kinds.iter().map(|&k| n[k as usize]).sum();
            let total: u64 = kinds.iter().map(|&k| ns[k as usize]).sum();
            (ops > 0).then(|| total as f64 / ops as f64)
        };
        for kind in OpKind::ALL {
            self.by_kind[kind as usize].extend(mean(&[kind]));
        }
        self.writes
            .extend(mean(&[OpKind::Set, OpKind::Cas, OpKind::Delete]));
        self.all.extend(mean(&OpKind::ALL));
    }

    fn kind(&self, kind: OpKind, clock_ns: f64) -> f64 {
        typical(&self.by_kind[kind as usize], clock_ns)
    }

    fn writes(&self, clock_ns: f64) -> f64 {
        typical(&self.writes, clock_ns)
    }

    fn all(&self, clock_ns: f64) -> f64 {
        typical(&self.all, clock_ns)
    }
}

/// Share of batches dropped at either end before averaging.
const TRIM: f64 = 0.05;

/// Trimmed mean of per-batch means less the clock's own cost; 0 when
/// no batch held such an op.
fn typical(per_batch: &[f64], clock_ns: f64) -> f64 {
    if per_batch.is_empty() {
        0.0
    } else {
        trimmed_mean(per_batch, TRIM) - clock_ns
    }
}

/// Ops of each class among the first `n` of the steady stream — what
/// a rung has issued after `n` ops, for the per-op ratios.
fn issued(spec: &WorkloadSpec, seed: u64, n: u64) -> (u64, u64) {
    let mut gen = OpGen::new(spec, seed, Stream::Steady as u64);
    let writes = (0..n).filter(|_| gen.next_op().kind.is_write()).count() as u64;
    (n - writes, writes)
}

/// The shared replay of batches `range`: a clock either side of every
/// call, per-batch means into `means`. `after_batch` runs outside all
/// clocks.
fn replay<T: Target>(
    load: &mut Load,
    target: &T,
    range: Range<u64>,
    means: &mut BatchMeans,
    mut after_batch: impl FnMut(Batch),
) {
    let mut ops = Vec::with_capacity(BATCH as usize);
    for index in range {
        load.gen.fill(&mut ops, BATCH);
        let (mut ns, mut n) = ([0; 4], [0; 4]);
        let start_ns = mono_ns();
        for &op in &ops {
            ns[op.kind as usize] += load.exec::<_, true>(target, op);
            n[op.kind as usize] += 1;
        }
        let end_ns = mono_ns();
        means.push(ns, n);
        after_batch(Batch {
            index,
            start_ns,
            end_ns,
            busy_ns: ns.iter().sum(),
        });
    }
}

/// Every batch of the plan, for the rungs that replay in one go.
fn all_batches(plan: &Plan) -> Range<u64> {
    0..plan.ladder_ops / BATCH
}

/// What the top rung of a ladder measured.
struct Top {
    means: BatchMeans,
    /// Median over segments of (traced − untraced) ÷ untraced mean
    /// round trip.
    overhead_share: f64,
    /// Median untraced mean round trip, raw (clock included), ns.
    untraced_ns: f64,
}

/// The top rung: the traced replay, cut into segments that alternate
/// with the untraced run's own clocked rtt loop over as many ops, so
/// that drift on a shared host hits both sides of the comparison
/// alike.
fn top_rung<T: Target>(
    load: &mut Load,
    target: &T,
    plan: &Plan,
    mut span: impl FnMut(&Batch),
) -> Top {
    let batches = plan.ladder_ops / BATCH;
    let per_segment = batches / LADDER_SEGMENTS;
    assert_eq!(per_segment * LADDER_SEGMENTS, batches, "whole segments");
    let mut samples = sample_buffers(per_segment * BATCH);
    let mut means = BatchMeans::default();
    let (mut overheads, mut untraced) = (Vec::new(), Vec::new());
    for first in (0..batches).step_by(per_segment as usize) {
        let last = first + per_segment;
        let mut busy_ns = 0;
        replay(load, target, first..last, &mut means, |batch| {
            busy_ns += batch.busy_ns;
            span(&batch);
        });
        let traced_ns = busy_ns as f64 / (per_segment * BATCH) as f64;
        let untraced_ns = clocked_window(load, target, per_segment * BATCH, &mut samples);
        overheads.push((traced_ns - untraced_ns) / untraced_ns);
        untraced.push(untraced_ns);
    }
    Top {
        means,
        overhead_share: median(&overheads),
        untraced_ns: median(&untraced),
    }
}

/// The bare store as a [`Target`]: exactly the calls `serve` makes.
struct StoreTarget<'a>(&'a Store);

impl Target for StoreTarget<'_> {
    type Val = Bytes;

    fn get(&self, key: u64) -> Result<Option<(u64, Bytes)>, WireError> {
        Ok(self.0.get_with_version(&key_bytes(key)))
    }

    fn set(&self, key: u64, value: Vec<u8>) -> Result<u64, WireError> {
        Ok(self.0.set(&key_bytes(key), value))
    }

    fn cas(&self, key: u64, value: Vec<u8>, expected: u64) -> Result<Result<u64, u64>, WireError> {
        Ok(self.0.cas(&key_bytes(key), value, expected))
    }

    fn delete(&self, key: u64) -> Result<Option<u64>, WireError> {
        Ok(self.0.delete_versioned(&key_bytes(key)))
    }
}

/// The same calls behind `ShardRouter`'s key → shard step.
struct RouterTarget<'a>(&'a ShardRouter<TicketLock>);

impl Target for RouterTarget<'_> {
    type Val = Bytes;

    fn get(&self, key: u64) -> Result<Option<(u64, Bytes)>, WireError> {
        StoreTarget(self.0.shard_for(key)).get(key)
    }

    fn set(&self, key: u64, value: Vec<u8>) -> Result<u64, WireError> {
        StoreTarget(self.0.shard_for(key)).set(key, value)
    }

    fn cas(&self, key: u64, value: Vec<u8>, expected: u64) -> Result<Result<u64, u64>, WireError> {
        StoreTarget(self.0.shard_for(key)).cas(key, value, expected)
    }

    fn delete(&self, key: u64) -> Result<Option<u64>, WireError> {
        StoreTarget(self.0.shard_for(key)).delete(key)
    }
}

/// A primary store whose every acknowledged write is also applied,
/// clocked, to a replica through the replication version gate.
struct ReplicaTarget<'a> {
    primary: StoreTarget<'a>,
    replica: &'a Store,
    apply_ns: Cell<u64>,
    applied: Cell<u64>,
}

impl ReplicaTarget<'_> {
    fn apply(&self, key: u64, version: u64, value: Option<&[u8]>) {
        let t0 = mono_ns();
        let changed = self
            .replica
            .apply_replicated(&key_bytes(key), version, value);
        self.apply_ns.set(self.apply_ns.get() + mono_ns() - t0);
        self.applied.set(self.applied.get() + 1);
        assert!(changed, "replica refused version {version} of key {key}");
    }
}

impl Target for ReplicaTarget<'_> {
    type Val = Bytes;

    fn get(&self, key: u64) -> Result<Option<(u64, Bytes)>, WireError> {
        Ok(self.replica.get_with_version(&key_bytes(key)))
    }

    fn set(&self, key: u64, value: Vec<u8>) -> Result<u64, WireError> {
        let version = self.primary.set(key, value.clone())?;
        self.apply(key, version, Some(&value));
        Ok(version)
    }

    fn cas(&self, key: u64, value: Vec<u8>, expected: u64) -> Result<Result<u64, u64>, WireError> {
        let outcome = self.primary.cas(key, value.clone(), expected)?;
        if let Ok(version) = outcome {
            self.apply(key, version, Some(&value));
        }
        Ok(outcome)
    }

    fn delete(&self, key: u64) -> Result<Option<u64>, WireError> {
        let outcome = self.primary.delete(key)?;
        if let Some(version) = outcome {
            self.apply(key, version, None);
        }
        Ok(outcome)
    }
}

/// The wire codec in isolation: every request and every response goes
/// through `encode_into` and `decode` exactly as client and server do
/// it, with the store op (unclocked) in between so the replay stays a
/// faithful, checkable one. Also records each op's frame counts — the
/// echo rung's input.
struct CodecTarget<'a> {
    store: StoreTarget<'a>,
    frames: RefCell<Vec<Message>>,
    request_ns: Cell<u64>,
    response_ns: Cell<u64>,
    shapes: RefCell<Vec<(u8, u8)>>,
}

impl CodecTarget<'_> {
    fn through(&self, request: Request, execute: impl FnOnce(Request) -> Response) -> Response {
        let mut frames = self.frames.borrow_mut();
        let t0 = mono_ns();
        request.encode_into(&mut frames);
        let mut rest = frames[1..].iter();
        let decoded = Request::decode(frames[0], || *rest.next().expect("continuation frame"))
            .expect("own request decodes");
        let t1 = mono_ns();
        let request_frames = frames.len();
        let response = execute(black_box(decoded));
        let t2 = mono_ns();
        response.encode_into(&mut frames);
        let mut rest = frames[1..].iter();
        let decoded = Response::decode(frames[0], || *rest.next().expect("continuation frame"))
            .expect("own response decodes");
        let t3 = mono_ns();
        self.request_ns.set(self.request_ns.get() + t1 - t0);
        self.response_ns.set(self.response_ns.get() + t3 - t2);
        self.shapes
            .borrow_mut()
            .push((request_frames as u8, frames.len() as u8));
        black_box(decoded)
    }
}

impl Target for CodecTarget<'_> {
    type Val = Vec<u8>;

    fn get(&self, key: u64) -> Result<Option<(u64, Vec<u8>)>, WireError> {
        let reply = self.through(Request::Get { key }, |_| match self.store.get(key) {
            Ok(Some((version, value))) => Response::Value {
                version,
                value: value.to_vec(),
            },
            _ => Response::Miss,
        });
        match reply {
            Response::Value { version, value } => Ok(Some((version, value))),
            Response::Miss => Ok(None),
            _ => Err(WireError::UnexpectedResponse("Get")),
        }
    }

    fn set(&self, key: u64, value: Vec<u8>) -> Result<u64, WireError> {
        let reply = self.through(Request::Set { key, value }, |request| match request {
            Request::Set { key, value } => match self.store.set(key, value) {
                Ok(version) => Response::Stored { version },
                Err(_) => Response::Malformed,
            },
            _ => Response::Malformed,
        });
        match reply {
            Response::Stored { version } => Ok(version),
            _ => Err(WireError::UnexpectedResponse("Set")),
        }
    }

    fn cas(&self, key: u64, value: Vec<u8>, expected: u64) -> Result<Result<u64, u64>, WireError> {
        let request = Request::Cas {
            key,
            expected,
            value,
        };
        let reply = self.through(request, |request| match request {
            Request::Cas {
                key,
                expected,
                value,
            } => match self.store.cas(key, value, expected) {
                Ok(Ok(version)) => Response::Stored { version },
                Ok(Err(current)) => Response::CasFail { current },
                Err(_) => Response::Malformed,
            },
            _ => Response::Malformed,
        });
        match reply {
            Response::Stored { version } => Ok(Ok(version)),
            Response::CasFail { current } => Ok(Err(current)),
            _ => Err(WireError::UnexpectedResponse("Cas")),
        }
    }

    fn delete(&self, key: u64) -> Result<Option<u64>, WireError> {
        let reply = self.through(Request::Delete { key }, |_| match self.store.delete(key) {
            Ok(Some(version)) => Response::Deleted { version },
            _ => Response::NotFound,
        });
        match reply {
            Response::Deleted { version } => Ok(Some(version)),
            Response::NotFound => Ok(None),
            _ => Err(WireError::UnexpectedResponse("Delete")),
        }
    }
}

/// Mean ns of `f` over `iters` calls after a tenth as many warm-up
/// calls.
fn per_call_ns(iters: u64, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters / 10 {
        f();
    }
    let t0 = mono_ns();
    for _ in 0..iters {
        f();
    }
    (mono_ns() - t0) as f64 / iters as f64
}

/// The oracle's own cost per op — value construction, reply check,
/// model update — over replies synthesized from the model itself.
fn oracle_cost_ns(spec: &WorkloadSpec, seed: u64, clock_ns: f64) -> f64 {
    let mut oracle = Oracle::new(spec.keys);
    let mut next_version = 0;
    let mut version = move || {
        next_version += 1;
        next_version
    };
    oracle.preload(&mut OpGen::new(spec, seed, 1), |_, _| version());
    let mut gen = OpGen::new(spec, seed, Stream::Steady as u64);
    let ops = 1 << 16;
    let mut total = 0;
    for _ in 0..ops {
        let op = gen.next_op();
        total += match op.kind {
            OpKind::Get => {
                let reply = oracle.expected_get(op.key);
                let t0 = mono_ns();
                oracle.check_get(op.key, Ok(reply));
                mono_ns() - t0
            }
            OpKind::Set => {
                let v = version();
                let t0 = mono_ns();
                black_box(oracle.next_value(op.key, op.len));
                oracle.check_set(op.key, op.len, Ok(v));
                mono_ns() - t0
            }
            OpKind::Cas => {
                let v = version();
                let present = oracle.expected_get(op.key).is_some();
                let t0 = mono_ns();
                black_box(oracle.next_value(op.key, op.len));
                black_box(oracle.cas_expected(op.key));
                oracle.check_cas(op.key, op.len, Ok(if present { Ok(v) } else { Err(0) }));
                mono_ns() - t0
            }
            OpKind::Delete => {
                let v = version();
                let present = oracle.expected_get(op.key).is_some();
                let t0 = mono_ns();
                oracle.check_delete(op.key, Ok(present.then_some(v)));
                mono_ns() - t0
            }
        };
    }
    assert_eq!(
        oracle.tally.failed, 0,
        "oracle disagrees with itself: {:?}",
        oracle.tally.notes
    );
    total as f64 / ops as f64 - clock_ns
}

/// The ring echo: the workload's own frame shapes bounced off a null
/// server — a `ServerHub` poll loop with `serve`'s parking wait that
/// pulls a request's continuation frames and sends the reply's frame
/// count back, decoding nothing and touching no store. The transport
/// floor under every service round trip. Returns ns per op over the
/// batches, trimmed like every other rung.
fn echo_rung(shapes: &[(u8, u8)], plan: &Plan, tracer: &mut Tracer) -> f64 {
    let (request_tx, request_rx) = ring_channel(RING_DEPTH);
    let (reply_tx, reply_rx) = ring_channel(RING_DEPTH);
    let round_trip = |&(request_frames, reply_frames): &(u8, u8)| {
        let mut frame: Message = [0; MSG_WORDS];
        frame[0] = u64::from(request_frames);
        frame[1] = u64::from(reply_frames);
        for _ in 0..request_frames {
            request_tx.send_connected(frame).expect("null server is up");
        }
        for _ in 0..reply_frames {
            black_box(reply_rx.recv_connected().expect("null server is up"));
        }
    };
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut hub = ServerHub::new(vec![request_rx]);
            let mut wait = ParkingWait::new();
            loop {
                let (client, head) = loop {
                    match hub.try_recv_from_any() {
                        Some(hit) => {
                            wait.reset();
                            break hit;
                        }
                        None => wait.snooze(),
                    }
                };
                if head[0] == 0 {
                    return;
                }
                for _ in 1..head[0] {
                    black_box(hub.recv_from_subset(&[client]));
                }
                for _ in 0..head[1] {
                    reply_tx.send(head);
                }
            }
        });
        let (warm, measured) = shapes.split_at(plan.ladder_warm_ops as usize);
        warm.iter().for_each(round_trip);
        let mut per_batch = Vec::with_capacity(measured.len() / BATCH as usize);
        for (index, ops) in measured.chunks(BATCH as usize).enumerate() {
            let start_ns = mono_ns();
            ops.iter().for_each(round_trip);
            let end_ns = mono_ns();
            per_batch.push((end_ns - start_ns) as f64 / ops.len() as f64);
            tracer.record(
                Rung::Echo,
                &Batch {
                    index: index as u64,
                    start_ns,
                    end_ns,
                    busy_ns: end_ns - start_ns,
                },
            );
        }
        request_tx
            .send_connected([0; MSG_WORDS])
            .expect("null server is up");
        trimmed_mean(&per_batch, TRIM)
    })
}

/// Pages of the migration bulk copy's cursor that get timed.
const DUMP_PAGES: u64 = 32;

/// `ReshardSpec::clean`'s page size.
const DUMP_CHUNK: usize = 64;

fn dump_range_page_ns(spec: &WorkloadSpec, store: &Store) -> f64 {
    let t0 = mono_ns();
    for page in 0..DUMP_PAGES {
        let after = key_bytes(page * spec.keys / DUMP_PAGES);
        black_box(store.dump_range(Some(&after), DUMP_CHUNK));
    }
    (mono_ns() - t0) as f64 / DUMP_PAGES as f64
}

/// Batches of a side pass over one op kind a workload's mix lacks.
const SIDE_PASS_BATCHES: u64 = 32;

/// The median of a scraped histogram, interpolated inside its bucket
/// by rank so that it moves with the counts instead of jumping between
/// bucket midpoints.
fn interpolated_p50(hist: &HistogramSnapshot) -> f64 {
    let half = hist.count() as f64 / 2.0;
    let mut below = 0.0;
    for (bucket, count) in hist.nonempty() {
        let count = count as f64;
        if below + count >= half {
            let (lo, hi) = bucket_bounds(usize::from(bucket));
            return lo as f64 + (hi - lo) as f64 * (half - below) / count;
        }
        below += count;
    }
    0.0
}

/// Timed gets whose stamps let `serve` split each read into queue wait
/// and apply time; read back through the public `Stats` scrape.
const TIMED_GETS: u64 = 1 << 15;

/// `name → value` of every per-layer metric, in ladder order.
pub type Metrics = Vec<(&'static str, f64)>;

/// A clocked running total read once per batch: per-batch means out of
/// a counter a [`Target`] keeps internally.
struct PerBatch<'a> {
    total_ns: &'a Cell<u64>,
    seen_ns: u64,
    means: Vec<f64>,
}

impl<'a> PerBatch<'a> {
    /// Starts at the counter's current value, so warm-up is excluded.
    fn after_warm_up(total_ns: &'a Cell<u64>) -> PerBatch<'a> {
        PerBatch {
            total_ns,
            seen_ns: total_ns.get(),
            means: Vec::new(),
        }
    }

    /// Closes a batch in which the counter clocked `calls` calls.
    fn close(&mut self, calls: u64) {
        let now = self.total_ns.get();
        if calls > 0 {
            self.means.push((now - self.seen_ns) as f64 / calls as f64);
        }
        self.seen_ns = now;
    }
}

/// Runs the whole ladder for one workload. Returns the per-layer
/// metrics, the spans, and the attempted/failed tally of every replay.
pub fn run_traced(spec: &'static WorkloadSpec, seed: u64, plan: &Plan) -> (Metrics, Tracer, Tally) {
    let mut m: Metrics = Vec::new();
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(spec, plan);
    let fresh = || Load::new(spec, seed, Stream::Steady);
    let preloaded_store = |load: &mut Load| {
        let store: Store = KvStore::new(buckets(spec), STRIPES);
        load.preload(|key, value| store.set(&key_bytes(key), value));
        store
    };

    // Harness floors.
    let (clock_ns, _) = clock_profile(1 << 20);
    let mut gen = OpGen::new(spec, seed, Stream::Steady as u64);
    let next_op_ns = per_call_ns(1 << 20, || {
        black_box(gen.next_op());
    });
    m.push(("loadgen.next_op_ns", next_op_ns));
    m.push(("loadgen.clock_ns", clock_ns));
    m.push(("loadgen.oracle_ns", oracle_cost_ns(spec, seed, clock_ns)));

    // Micro-costs of the primitives the layers above are built from.
    let lock: Lock<u64, TicketLock> = Lock::new(0);
    let ticket_pair_ns = per_call_ns(1 << 22, || *lock.lock() += 1);
    let domain = Arc::new(EpochDomain::new());
    let epoch_pin_ns = per_call_ns(1 << 22, || {
        black_box(domain.pin());
    });
    let histogram = Histogram::new();
    let mut sample = 1u64;
    let hist_record_ns = per_call_ns(1 << 22, || {
        sample = sample
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        histogram.record(sample >> 44);
    });
    let (tx, rx) = ring_channel(RING_DEPTH);
    let ring_hop_ns = per_call_ns(1 << 22, || {
        tx.send([7; MSG_WORDS]);
        black_box(rx.recv());
    });
    let (_idle_tx, idle_rx) = ring_channel(RING_DEPTH);
    let mut idle_hub = ServerHub::new(vec![idle_rx]);
    let hub_poll_ns = per_call_ns(1 << 22, || {
        black_box(idle_hub.try_recv_from_any());
    });
    m.push(("locks.ticket_pair_ns", ticket_pair_ns));
    m.push(("core.epoch_pin_ns", epoch_pin_ns));
    m.push(("core.hist_record_ns", hist_record_ns));

    // Bare store, with the serve loops' reclaim cadence (one pass per
    // 1024 requests) kept outside the clocks.
    let mut load = fresh();
    let store = preloaded_store(&mut load);
    let target = StoreTarget(&store);
    load.warm_up(&target, plan.ladder_warm_ops);
    let before = store.stats_snapshot();
    let mut backlog_max = 0;
    let mut kv = BatchMeans::default();
    replay(&mut load, &target, all_batches(plan), &mut kv, |batch| {
        tracer.record(Rung::Kv, &batch);
        if batch.index % 4 == 3 {
            store.reclaim_pass();
        }
        backlog_max = backlog_max.max(store.reclaim_backlog());
    });
    let counts = store.stats_snapshot().delta(&before);
    // Kinds the mix does not contain get a short side pass of their
    // own (deletes last: they empty what the others need), so every
    // store op has a measured cost on every workload. Kept apart from
    // `kv`, whose all-ops mean is the stream's.
    let mut side = BatchMeans::default();
    for kind in OpKind::ALL {
        if kv.by_kind[kind as usize].is_empty() {
            load.gen.only(Some(kind));
            replay(&mut load, &target, 0..SIDE_PASS_BATCHES, &mut side, |_| ());
            load.gen.only(None);
        }
    }
    let dump_page_ns = dump_range_page_ns(spec, &store);
    tally.absorb(load.oracle);
    drop(store);

    // The same reads against the power-of-two geometry the
    // repository's harnesses deploy (see `stacks::buckets`).
    let mut load = fresh();
    let pow2: Store = KvStore::new(spec.keys.next_power_of_two() as usize, STRIPES);
    load.preload(|key, value| pow2.set(&key_bytes(key), value));
    let mut pow2_reads = BatchMeans::default();
    load.gen.only(Some(OpKind::Get));
    replay(
        &mut load,
        &StoreTarget(&pow2),
        0..SIDE_PASS_BATCHES,
        &mut pow2_reads,
        |_| (),
    );
    tally.absorb(load.oracle);
    drop(pow2);

    // The replication gate, fed by the same writes.
    let mut load = fresh();
    let primary = preloaded_store(&mut load);
    let replica: Store = KvStore::new(buckets(spec), STRIPES);
    for (key, version, value) in primary.dump() {
        replica.apply_replicated(&key, version, Some(&value));
    }
    let gate = ReplicaTarget {
        primary: StoreTarget(&primary),
        replica: &replica,
        apply_ns: Cell::new(0),
        applied: Cell::new(0),
    };
    load.warm_up(&gate, plan.ladder_warm_ops);
    let mut applies = PerBatch::after_warm_up(&gate.apply_ns);
    let mut applied = gate.applied.get();
    let mut unused = BatchMeans::default();
    replay(&mut load, &gate, all_batches(plan), &mut unused, |_| {
        applies.close(gate.applied.get() - applied);
        applied = gate.applied.get();
    });
    let apply_ns = typical(&applies.means, clock_ns);
    tally.absorb(load.oracle);
    drop((primary, replica));

    for (name, kind) in [
        ("kv.get_ns", OpKind::Get),
        ("kv.set_ns", OpKind::Set),
        ("kv.cas_ns", OpKind::Cas),
        ("kv.delete_ns", OpKind::Delete),
    ] {
        let replayed = !kv.by_kind[kind as usize].is_empty();
        let means = if replayed { &kv } else { &side };
        m.push((name, means.kind(kind, clock_ns)));
    }
    m.push(("kv.get_pow2_ns", pow2_reads.kind(OpKind::Get, clock_ns)));
    m.push(("kv.apply_replicated_ns", apply_ns));
    m.push(("kv.dump_range_page_ns", dump_page_ns));
    let lookups = (counts.hits + counts.misses).max(1);
    m.push(("kv.hit_share", counts.hits as f64 / lookups as f64));
    m.push(("kv.read_fallbacks", counts.read_fallbacks as f64));
    m.push(("kv.maintenance_runs", counts.maintenance_runs as f64));
    m.push(("kv.epochs_advanced", counts.epochs_advanced as f64));
    m.push(("kv.nodes_reclaimed", counts.nodes_reclaimed as f64));
    m.push(("kv.reclaim_backlog_max", backlog_max as f64));

    // Router. Its replay is for the spans and the oracle; the metric
    // is `shard_for` timed directly, because the difference of two
    // separately run microsecond rungs is mostly their noise.
    let mut load = fresh();
    let router: ShardRouter<TicketLock> = ShardRouter::new(1, buckets(spec), STRIPES);
    load.preload(|key, value| router.set(key, value));
    let target = RouterTarget(&router);
    load.warm_up(&target, plan.ladder_warm_ops);
    replay(
        &mut load,
        &target,
        all_batches(plan),
        &mut unused,
        |batch| tracer.record(Rung::Router, &batch),
    );
    tally.absorb(load.oracle);
    let mut key = 0;
    let route_ns = per_call_ns(1 << 22, || {
        key = (key + 1) % spec.keys;
        black_box(router.shard_for(black_box(key)));
    });
    drop(router);

    // Codec.
    let mut load = fresh();
    let store = preloaded_store(&mut load);
    let codec = CodecTarget {
        store: StoreTarget(&store),
        frames: RefCell::new(Vec::new()),
        request_ns: Cell::new(0),
        response_ns: Cell::new(0),
        shapes: RefCell::new(Vec::with_capacity(
            (plan.ladder_warm_ops + plan.ladder_ops) as usize,
        )),
    };
    load.warm_up(&codec, plan.ladder_warm_ops);
    let mut requests = PerBatch::after_warm_up(&codec.request_ns);
    let mut responses = PerBatch::after_warm_up(&codec.response_ns);
    replay(&mut load, &codec, all_batches(plan), &mut unused, |batch| {
        tracer.record(Rung::Codec, &batch);
        requests.close(BATCH);
        responses.close(BATCH);
    });
    tally.absorb(load.oracle);
    let request_codec_ns = typical(&requests.means, clock_ns);
    let response_codec_ns = typical(&responses.means, clock_ns);
    let shapes = codec.shapes.into_inner();
    let frames: u64 = shapes[plan.ladder_warm_ops as usize..]
        .iter()
        .map(|&(request, reply)| u64::from(request) + u64::from(reply))
        .sum();
    m.push(("srv.wire.req_codec_ns", request_codec_ns));
    m.push(("srv.wire.resp_codec_ns", response_codec_ns));
    m.push((
        "srv.wire.frames_per_op",
        frames as f64 / plan.ladder_ops as f64,
    ));
    drop(store);

    // Ring echo.
    let echo_ns = echo_rung(&shapes, plan, &mut tracer);
    m.push(("mp.ring_hop_ns", ring_hop_ns));
    m.push(("mp.ring_echo_rtt_ns", echo_ns));
    m.push(("mp.hub_poll_ns", hub_poll_ns));
    m.push(("srv.router.route_ns", route_ns));

    // Service: the top rung of the srv workloads, one below it on the
    // others.
    let mut load = fresh();
    let (_, (service, srv_top, scrape), served) = srv_stack(spec, &mut load, |load, client, _| {
        let target = Via(client);
        load.warm_up(&target, plan.ladder_warm_ops);
        let (means, top) = if spec.stack == Stack::Srv {
            let top = top_rung(load, &target, plan, |batch| {
                tracer.record(Rung::Service, batch)
            });
            (None, Some(top))
        } else {
            let mut means = BatchMeans::default();
            replay(load, &target, all_batches(plan), &mut means, |batch| {
                tracer.record(Rung::Service, &batch)
            });
            (Some(means), None)
        };
        for _ in 0..TIMED_GETS.min(plan.ladder_ops) {
            let key = load.gen.next_op().key;
            let shard = client.send_get_timed(key, mono_ns());
            load.oracle.check_get(key, client.read_get_reply(shard));
        }
        (means, top, client.stats(0).expect("stats scrape"))
    });
    tally.absorb(load.oracle);
    let service = service
        .as_ref()
        .or(srv_top.as_ref().map(|top| &top.means))
        .expect("one of the two replays ran");
    let service_rtt = service.all(clock_ns);
    let isolated = kv.all(clock_ns) + route_ns + request_codec_ns + response_codec_ns + echo_ns;
    let service_self = self_time(service_rtt, isolated);
    let p50 = |name: &str| scrape.hist(name).map_or(0.0, interpolated_p50);
    m.push((
        "srv.service.rtt_get_ns",
        service.kind(OpKind::Get, clock_ns),
    ));
    m.push(("srv.service.rtt_write_ns", service.writes(clock_ns)));
    m.push(("srv.service.self_ns", service_self));
    m.push(("srv.service.queue_wait_p50_ns", p50("srv.queue_wait_ns")));
    m.push(("srv.service.apply_p50_ns", p50("srv.apply_ns")));
    m.push(("srv.service.requests", served.requests as f64));
    m.push(("srv.service.malformed", served.malformed as f64));

    // The workload's own top rung and event.
    let mut repl = None;
    let mut cluster = None;
    let overhead_share = match spec.stack {
        Stack::Srv => srv_top.as_ref().expect("srv top rung ran").overhead_share,
        Stack::Repl => {
            let mut load = fresh();
            let none = FaultPlan::none();
            let (_, (top, counters), end) = repl_stack(spec, &mut load, &none, |load, client| {
                let target = Via(client);
                load.warm_up(&target, plan.ladder_warm_ops);
                let top = top_rung(load, &target, plan, |batch| tracer.record(Rung::Top, batch));
                let counters = [
                    client.replica_serves(),
                    client.fallbacks(),
                    client.redirects(),
                    client.lost_to_retry(),
                ];
                (top, counters)
            });
            tally.absorb(load.oracle);
            let event = failover_event(spec, seed, &mut tally);
            // Everything the group served: the set-up's one read, the
            // warm-up, the traced replay and as many untraced ops.
            let (reads, writes) = issued(spec, seed, plan.ladder_warm_ops + 2 * plan.ladder_ops);
            let entries: u64 = end.nodes.iter().map(|n| n.entries).sum();
            repl = Some([
                self_time(
                    top.means.kind(OpKind::Get, clock_ns),
                    service.kind(OpKind::Get, clock_ns),
                ),
                self_time(top.means.writes(clock_ns), service.writes(clock_ns)),
                entries as f64 / writes.max(1) as f64,
                counters[0] as f64 / (reads + 1) as f64,
                counters[1] as f64,
                (counters[2] + event.redirects) as f64,
                (counters[3] + event.lost_to_retry) as f64,
                event.failovers as f64,
                event.promote_us,
                event.client_gap_us,
                event.from_log as f64,
                event.fenced as f64,
            ]);
            top.overhead_share
        }
        Stack::Cluster => {
            let mut load = fresh();
            let (_, (top, event), nodes) = cluster_stack(spec, &mut load, |load, client, ctx| {
                let target = Via(client);
                load.warm_up(&target, plan.ladder_warm_ops);
                let top = top_rung(load, &target, plan, |batch| tracer.record(Rung::Top, batch));
                (top, reshard_event(load, client, ctx, plan))
            });
            tally.absorb(load.oracle);
            let deferred: u64 = nodes.iter().map(|n| n.migration_ops_deferred).sum();
            cluster = Some([
                self_time(top.means.all(clock_ns), service_rtt),
                event.redirects as f64,
                deferred as f64,
                event.entries_migrated as f64,
                event.attempts as f64,
                event.migration_ms,
                event.during_ops_per_s,
                event.post_split_ops_per_s,
                100.0 * (1.0 - event.during_ops_per_s * top.untraced_ns / 1e9),
            ]);
            top.overhead_share
        }
    };
    m.push(("trace.closure_err_share", service_self.abs() / service_rtt));
    m.push(("trace.overhead_share", overhead_share));
    if let Some(values) = cluster {
        m.extend(CLUSTER_LAYER.iter().map(|def| def.0).zip(values));
    }
    if let Some(values) = repl {
        m.extend(REPL_LAYER.iter().map(|def| def.0).zip(values));
    }
    (m, tracer, tally)
}
