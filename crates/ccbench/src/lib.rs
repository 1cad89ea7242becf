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
//! Beside the figure drivers live the four `*-perf` harnesses
//! ([`kv_perf`], [`repl_perf`], [`perf`] for `sim-perf`, [`lat_perf`]).
//! They own what **replays**: seeded op-stream counts, the churn-soak
//! bound, convergence and zero-loss asserts, the simulator's events per
//! op, the no-coordinated-omission count equality. The three committed
//! `BENCH_{kv,repl,sim}.json` artifacts hold only fields that are a
//! pure function of their seeds, so each is its own golden: the bin
//! rewrites it, `<bin> --check` ([`cli`]) and `tests/artifacts.rs`
//! rerun the real sweep and compare bytes. Every *measured* number —
//! throughput, latency percentiles, promotion and migration times — is
//! `benchmark/`'s to report, with windows and spreads; the perf bins
//! only print theirs, labelled host-measured (DESIGN.md "One
//! instrument").

pub mod cli;
pub mod drivers;
pub mod json;
pub mod kv_perf;
pub mod lat_perf;
pub mod perf;
pub mod repl_perf;
pub mod series;
pub mod tables;

pub use series::Series;
