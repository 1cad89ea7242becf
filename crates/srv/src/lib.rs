//! # ssync-srv
//!
//! The serving layer over the SSYNC stack: a sharded key-value
//! *service* in the spirit of the paper's Section 6.4 capstone ("real
//! software under real traffic" — Memcached with pluggable locks), but
//! scaled out the way production caches are deployed:
//!
//! * [`router`] — keyspace partitioning over N [`ssync_kv::KvStore`]
//!   shards, generic over the lock algorithm `R` like everything else
//!   in the tree;
//! * [`wire`] — the request/response format packed into `ssync-mp`
//!   cache-line messages, with multi-get batching and continuation
//!   frames for long values;
//! * [`node`] — the one request path every serve loop in the tree runs
//!   on: hub polling, `Stop` accounting, the executor for the six data
//!   operations with its two policy hooks, and the `Stats` scrape;
//! * [`conn`] — the one disconnect-aware client connection every
//!   client in the tree is built over;
//! * [`service`] — the channel mesh, the plain shard server and the
//!   [`service::ServiceClient`] round-trip API over bounded rings,
//!   with pipelined reads;
//! * [`workload`] — a deterministic workload engine: seeded zipfian and
//!   uniform key distributions, YCSB-style read/write mixes, value-size
//!   distributions, and one pipelined load engine — closed-loop
//!   unpaced, open-loop under Poisson arrivals whose latencies are
//!   stamped from intended send times (coordinated-omission-free by
//!   construction) — plus the client fan-out ([`workload::fan_out`])
//!   and the one [`workload::Tally`] the replicated and cluster drivers
//!   build on.
//!
//! The `kv-perf` binary in `ssync-ccbench` sweeps this subsystem over
//! {lock algorithm × shard count × skew × mix} and writes
//! `BENCH_kv.json`.
//!
//! # Examples
//!
//! ```
//! use ssync_srv::router::ShardRouter;
//! use ssync_srv::service::{ring_mesh, serve};
//! use ssync_locks::TicketLock;
//!
//! let router: ShardRouter<TicketLock> = ShardRouter::new(2, 64, 8);
//! let (endpoints, mut clients) = ring_mesh(router.num_shards(), 1, 8);
//! std::thread::scope(|s| {
//!     for (shard, endpoint) in endpoints.into_iter().enumerate() {
//!         let store = router.shard(shard);
//!         s.spawn(move || serve(store, endpoint));
//!     }
//!     let client = clients.pop().unwrap();
//!     let version = client.set(7, b"value".to_vec()).expect("wire error");
//!     let (v, value) = client.get(7).expect("wire error").unwrap();
//!     assert_eq!((v, value.as_slice()), (version, b"value".as_slice()));
//!     client.close();
//! });
//! ```

pub mod conn;
pub mod node;
pub mod router;
pub mod service;
pub mod wire;
pub mod workload;

pub use conn::Conn;
pub use node::{Admit, Hooks, NoHooks, NodeCore, Poll};
pub use router::{shard_of, slot_of, ShardRouter, ROUTE_SLOTS};
pub use service::{ring_mesh, serve, KvClient, ServiceClient};
pub use wire::{Request, Response, WireError, NO_LEADER};
pub use workload::{
    fan_out, run_load, KeyDist, LoadReport, LoadSpec, Mix, Op, OpStream, PoissonArrivals, Tally,
    ValueSize, WorkloadSpec,
};
