//! # ssync-repl
//!
//! Per-shard primary/backup replication for the `ssync-srv` sharded KV
//! service — the layer where availability, consistency, and throughput
//! first trade off in this tree.
//!
//! Every shard becomes a replication group of symmetric *nodes* — a
//! leader plus R followers, any of which may be promoted — wired with
//! the same one-cache-line `ssync-mp` SPSC channels as the rest of the
//! stack. The leader tags each write with the version its `ssync-kv`
//! store assigned (the CAS counter doubles as the per-shard
//! replication sequence), appends it to a bounded in-memory
//! [`log::OpLog`], and streams `Replicate` frames to the followers,
//! which apply them idempotently through a version gate. Cumulative
//! acks flow back; writes acknowledge **sync** (ack-before-reply —
//! read-your-writes from any replica) or **async** (bounded lag, with
//! stale replica reads bounced to the leader by a per-shard freshness
//! floor the client carries).
//!
//! Faults are first-class and *deterministic*: seeded stall and crash
//! windows keyed to replication entry indices replay exactly, and a
//! crashed backup catches up from the op-log before rejoining the live
//! stream — the convergence property the proptest harness checks
//! against a model on every run. Leaders can die too: a scheduled
//! [`fault::FaultKind::PrimaryCrash`] kills the leader of the moment
//! right after an acknowledged write, and the shard fails over — the
//! most caught-up live follower bumps the term in the shared
//! [`cluster::ClusterMap`], replays its op-log tail, and starts
//! serving, while term fencing keeps any late frame of the dead leader
//! from resurrecting overwritten state.
//!
//! * [`log`] — the bounded, version-ordered op-log;
//! * [`fault`] — deterministic stall/crash/leader-crash schedules;
//! * [`cluster`] — the shared term/leader/high-water-mark map
//!   promotions race through;
//! * [`service`] — the replication mesh, the node server loop, and the
//!   deadline-retrying, redirect-chasing [`service::ReplClient`];
//! * [`workload`] — the replicated closed-loop driver: the `ssync-srv`
//!   engine's sequential driver and client fan-out over the node
//!   threads, reporting the engine's one `Tally`.
//!
//! The `repl-perf` binary in `ssync-ccbench` sweeps this subsystem
//! over {replica count × mode × skew × mix} and writes
//! `BENCH_repl.json`.
//!
//! # Examples
//!
//! ```
//! use ssync_repl::service::{repl_mesh, serve_node, ReplCluster, ReplSpec};
//! use ssync_repl::fault::FaultSpec;
//! use ssync_locks::TicketLock;
//!
//! // One shard, two backups, sync mode: read-your-writes everywhere.
//! let mut cluster: ReplCluster<TicketLock> = ReplCluster::new(1, 64, 8, ReplSpec::sync(2));
//! cluster.preload(7, b"seed");
//! let map = cluster.map().clone();
//! let (mut endpoints, mut clients) = repl_mesh(&map, 1);
//! std::thread::scope(|s| {
//!     let map = &map;
//!     for endpoint in endpoints.pop().unwrap() {
//!         let store = cluster.node_store(0, endpoint.node());
//!         let log = cluster.log(0).clone();
//!         let cfg = cluster.node_config(0, endpoint.node(), &FaultSpec::none());
//!         s.spawn(move || serve_node(store, &log, map, endpoint, cfg));
//!     }
//!     let client = clients.pop().unwrap();
//!     let v = client.set(7, b"fresh".to_vec()).expect("wire error");
//!     // Sync mode: this read is served by a *follower*, yet sees the write.
//!     let (version, value) = client.get(7).expect("wire error").unwrap();
//!     assert_eq!((version, value.as_slice()), (v, b"fresh".as_slice()));
//!     client.close();
//! });
//! assert!(cluster.converged());
//! ```

pub mod cluster;
pub mod fault;
pub mod log;
pub mod service;
pub(crate) mod sync;
pub mod workload;

pub use cluster::{ClusterMap, FailoverRecord, ShardView};
pub use fault::{FaultKind, FaultPlan, FaultSpec};
pub use log::{EntryView, LogEntry, LogOp, OpLog};
pub use service::{
    repl_mesh, serve_node, stream_fence, NodeConfig, NodeEndpoint, NodeReport, ReplClient,
    ReplCluster, ReplMode, ReplSpec,
};
pub use workload::{run_replicated_closed_loop, ReplReport};
