//! # ssync
//!
//! Umbrella crate for SSYNC-RS, a Rust reproduction of the SOSP'13 study
//! *"Everything You Always Wanted to Know About Synchronization but Were
//! Afraid to Ask"* (David, Guerraoui, Trigonakis).
//!
//! The workspace mirrors the paper's SSYNC suite:
//!
//! * [`locks`] (`ssync-locks`) — the `libslock` lock library: nine lock
//!   algorithms behind one interface.
//! * [`mp`] (`ssync-mp`) — the `libssmp` message-passing library built on
//!   cache-line-sized one-directional buffers.
//! * [`ht`] (`ssync-ht`) — the `ssht` concurrent hash table.
//! * [`kv`] (`ssync-kv`) — a Memcached-model in-memory key-value store.
//! * [`srv`] (`ssync-srv`) — the sharded KV *service*: shard routing over
//!   `ssync-kv` stores, a request/response protocol over `ssync-mp`
//!   channels, and a deterministic workload engine (zipfian skew, YCSB
//!   mixes) whose closed loop drives every serving stack in the tests
//!   and examples.
//! * [`repl`] (`ssync-repl`) — per-shard primary/backup replication over
//!   the service: op-log streaming, sync/async acknowledgement, replica
//!   reads with freshness floors, and deterministic fault injection.
//! * [`cluster`] (`ssync-cluster`) — elastic resharding over the
//!   replicated service: an epoch-versioned cluster map routing fixed
//!   key slots to a growable shard fleet, and a live migration
//!   protocol (bulk copy, op-log delta replay, fenced atomic cutover)
//!   that splits a running fleet without dropping acknowledged writes.
//! * [`tm`] (`ssync-tm`) — a TM2C-model software transactional memory.
//! * [`sim`] (`ssync-sim`) — a discrete-event cache-coherence simulator of
//!   the paper's four platforms, calibrated to its Tables 2 and 3.
//! * [`simsync`] (`ssync-simsync`) — the SSYNC software stack expressed as
//!   simulator programs, used to regenerate the paper's figures.
//! * [`ccbench`] (`ssync-ccbench`) — the experiment drivers for every
//!   table and figure of the evaluation.
//! * [`figures`] (`ssync-figures`) — renderers for the paper's tables
//!   and figures, plus the `repro-all` binary that regenerates them.
//! * [`chk`] (`ssync-chk`) — the exhaustive interleaving checker (shadow
//!   atomics + DPOR-lite scheduler) behind the `--cfg ssync_chk` model
//!   suite, plus the `ssync-lint` ordering-discipline pass.
//!
//! See `DESIGN.md` for the full system inventory and `EXPERIMENTS.md` for
//! paper-versus-measured results.

pub use ssync_ccbench as ccbench;
pub use ssync_chk as chk;
pub use ssync_cluster as cluster;
pub use ssync_core as core;
pub use ssync_figures as figures;
pub use ssync_ht as ht;
pub use ssync_kv as kv;
pub use ssync_locks as locks;
pub use ssync_mp as mp;
pub use ssync_repl as repl;
pub use ssync_sim as sim;
pub use ssync_simsync as simsync;
pub use ssync_srv as srv;
pub use ssync_tm as tm;
