//! # ssync-ccbench
//!
//! The experiment layer: for every table and figure of the paper's
//! evaluation, a driver function that stages the workload on the
//! simulator, runs a measurement window, and returns the series the
//! figure plots. The `ssync-figures` binaries are thin formatters over
//! these functions.
//!
//! | Paper artifact | Driver |
//! |---|---|
//! | Table 2 (remote latencies)        | [`tables::table2`] |
//! | Table 3 (local latencies)         | [`tables::table3`] |
//! | Figure 3 (ticket-lock variants)   | [`drivers::lock_latency`] |
//! | Figure 4 (atomic ops)             | [`drivers::atomic_mops`] |
//! | Figure 5/7/8 (lock throughput)    | [`drivers::lock_mops`] |
//! | Figure 6 (uncontested latency)    | [`drivers::uncontested_latency`] |
//! | Figure 9 (MP one-to-one)          | [`drivers::mp_one_to_one`] |
//! | Figure 10 (MP client-server)      | [`drivers::mp_client_server`] |
//! | Figure 11 (hash table)            | [`drivers::ssht_mops`] |
//! | Figure 12 (key-value store)       | [`drivers::kv_kops`] |
//!
//! Beside the figure drivers lives `sim-perf` ([`perf`]), the
//! simulator's own harness: it commits `BENCH_sim.json`, the engine's
//! event and op counts per workload, which replay exactly, so the file
//! is its own golden — the bin rewrites it, `sim-perf --check` ([`cli`])
//! and `tests/artifacts.rs` rerun the suite and compare bytes. The crate
//! drives the simulator only: what the native serving stack replays is
//! held by tests in the crates that own it, and every number measured on
//! that stack is `benchmark/`'s to report (DESIGN.md "One instrument").

pub mod cli;
pub mod drivers;
pub mod json;
pub mod perf;
pub mod series;
pub mod tables;

pub use series::Series;
