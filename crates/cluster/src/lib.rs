//! # ssync-cluster
//!
//! Elastic resharding for the `ssync` stack: grow (or shrink) a
//! running shard fleet and move the data live, without dropping a
//! single acknowledged write.
//!
//! The static service routes `key → shard` by hashing over a fixed
//! shard count, so changing the fleet size silently reroutes every
//! key. This crate replaces that with two levels: keys hash onto
//! [`ssync_srv::ROUTE_SLOTS`] fixed *slots*, and an epoch-versioned
//! [`map::ShardMap`] — one fenced atomic word over double-buffered
//! ownership tables, the elastic sibling of `ssync-repl`'s term map —
//! assigns slots to shards. Resharding is then a *slot ownership
//! change*, published to every node and client in one compare-and-swap
//! that bumps the map epoch.
//!
//! Moving the data under live traffic is the
//! [`migrate::run_reshard_coordinator`] protocol, per moved slot
//! group:
//!
//! 0. **Arm** — a node keeps an op-log only while something reads it:
//!    the coordinator begins an odd generation of the map's arming
//!    [`Handshake`](ssync_core::Handshake) and polls until every source
//!    has acked it before it reads a key. A write committed before the
//!    ack is in the store the copy then reads, a write committed after
//!    it is in the log the delta then replays.
//! 1. **Bulk copy** — position-paged [`ssync_kv::KvStore::dump_range`]
//!    chunks (one stripe lock and O(page) work each, table order)
//!    stream to the target over the same one-cache-line `ssync-mp`
//!    rings as client traffic, applied through the store's replication
//!    version gate (idempotent, so faulted attempts replay safely).
//! 2. **Delta replay** — writes that landed during the copy stream
//!    from the source's `ssync-repl` op-log, repeatedly, until the
//!    remaining delta is small; the coordinator truncates each log
//!    behind what it has read, so memory and the delta are in
//!    proportion to the writes *during* the migration.
//! 3. **Fenced cutover** — the moving slots freeze (writes defer,
//!    reads keep flowing), sources ack the quiesce round the freeze
//!    begins — the map's second handshake — the final delta drains,
//!    and one CAS flips the map. Deferred writes then bounce to the new owner via
//!    [`Response::WrongShard`](ssync_srv::wire::Response::WrongShard)
//!    redirects that carry the new epoch; stale clients refetch and
//!    retry. Write unavailability is the final drain, not the copy.
//!    The coordinator then disarms and every node drops its log.
//!
//! Crashes are deterministic, seeded
//! [`ssync_repl::FaultSpec`] plans: the source's migration stream can
//! die mid-copy and the coordinator can die before the cutover; both
//! recover by replaying the idempotent copy, and the proptest harness
//! (`tests/migration_model.rs`) checks convergence against a
//! `BTreeMap` model on every run. The cutover's "no write lands on
//! the old owner after its final delta" argument and the arming
//! handshake's "every write is in the copy or the log" are
//! model-checked in `tests/chk_models.rs`, each with the twin that
//! breaks it.
//!
//! * [`map`] — the epoch-versioned slot→shard map, the freeze mask, the
//!   arming and quiesce handshakes and the migration-progress counters;
//! * [`service`] — cluster node servers and the map-following,
//!   redirect-chasing [`service::ClusterClient`];
//! * [`migrate`] — the fault-injected live-migration coordinator;
//! * [`workload`] — the closed-loop reshard-under-traffic driver: its
//!   own per-op body, which keeps the acknowledged-write model, over the
//!   `ssync-srv` engine's client fan-out, reporting the engine's one
//!   `Tally`.

pub mod map;
pub mod migrate;
pub mod service;
pub mod workload;

pub(crate) mod sync;

pub use map::{is_armed, MapSnapshot, MapView, ShardMap};
pub use migrate::{run_reshard_coordinator, MigrationReport, ReshardSpec};
pub use service::{
    cluster_mesh, follow_log_arming, serve_cluster_node, slot_fence, ClientConn, ClusterClient,
    ClusterMesh, ClusterNodeEndpoint, NodeReport,
};
pub use workload::{run_reshard, ReshardReport, ReshardWorkloadSpec};
