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
//!   cache-line messages, one key per request and one reply per
//!   request, with continuation frames for long values;
//! * [`node`] — the one node every serving stack runs: one turn of hub
//!   polling, `Stop` accounting and the executor for the five data
//!   operations, scraped in one place, with a stack's policy attached
//!   through [`node::Hooks`];
//! * [`conn`] — the one disconnect-aware client connection every
//!   client in the tree is built over, the one deadline-bounded retry
//!   loop ([`conn::chase`]) the replication and cluster clients run
//!   their redirects through — each an `async fn` that never blocks;
//! * [`step`] — the one round loop that drives nodes, a migration
//!   coordinator and client futures: [`step::run`] on real time over
//!   `min(actors, nproc)` workers, [`step::play`] / [`step::enumerate`]
//!   on one thread and a stepped clock; and [`step::block_on`] under
//!   every blocking client call;
//! * [`service`] — the channel mesh, the plain shard server and the
//!   [`service::ServiceClient`] round-trip API over bounded rings,
//!   with pipelined reads;
//! * [`workload`] — a deterministic workload engine: seeded zipfian and
//!   uniform key distributions, YCSB-style read/write mixes, value-size
//!   distributions, the sequential closed loop
//!   ([`workload::drive_worker`]) and the one runner
//!   ([`workload::fan_out_beside`]) every driver runs its nodes and
//!   workers through, the one [`workload::Tally`] they report, and
//!   [`workload::run_load`], the closed loop over the plain service.
//!
//! `workload`'s tests hold one closed-loop sweep — {1, 2, 4} shards ×
//! skew × mix, batched and churn cases — to its issued counts and
//! maintenance cadence as literals; every number measured on this
//! stack is `benchmark/`'s to report.
//!
//! # Examples
//!
//! ```
//! use ssync_srv::router::ShardRouter;
//! use ssync_srv::service::{ring_mesh, serve};
//! use ssync_srv::KvClient;
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
pub mod step;
pub mod wire;
pub mod workload;

pub use conn::{chase, Chase, Conn, OP_BUDGET};
pub use node::{Admit, Hooks, NoHooks, NodeCore, SendQueue, StreamDecoder, Turn};
pub use router::{shard_of, slot_of, ShardRouter, ROUTE_SLOTS};
pub use service::{ring_mesh, serve, KvClient, ServiceClient};
pub use step::{block_on, enumerate, play, run, Crash, Pause, Step};
pub use wire::{Request, Response, WireError, NO_LEADER};
pub use workload::{
    run_load, KeyDist, LoadReport, Mix, Op, OpStream, Tally, ValueSize, WorkloadSpec,
};
