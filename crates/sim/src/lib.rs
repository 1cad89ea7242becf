//! # ssync-sim
//!
//! A deterministic discrete-event simulator of the four many-core
//! platforms of the SOSP'13 synchronization study (AMD Opteron, Intel
//! Xeon, Sun Niagara 2, Tilera TILE-Gx36), at the granularity the paper
//! itself analyses: **cache lines, coherence states, and the per-state /
//! per-distance latencies of its Tables 2 and 3**.
//!
//! ## Why a simulator
//!
//! The paper's central claim is that "scalability of synchronization is
//! mainly a property of the hardware": the behaviour of every lock and
//! every concurrent data structure it measures is explained by the cost
//! of moving one cache line between cores, as a function of the line's
//! MESI state and the cores' distance. Those per-operation costs are
//! exactly what the paper reports (Tables 2/3), so feeding them into a
//! model with per-line serialization lets the *contended* behaviour
//! (Figures 3–12) emerge from the synchronization algorithms themselves.
//! Tables 2/3 match by construction; the figures are genuine outputs.
//!
//! ## Model
//!
//! * [`memory`] — one record per cache line: global coherence state
//!   (MESI + Owned for the Opteron's MOESI), owner, sharer set, home
//!   node/tile, a 64-bit value, and a `busy_until` serialization point.
//! * [`protocol`] — the state transitions each operation induces.
//! * [`latency`] — the per-platform cost model transcribing Tables 2/3
//!   and the prose rules of Section 5 (Opteron's broadcast on
//!   owned/shared stores, Xeon's inclusive-LLC locality, Niagara's
//!   uniformity, Tilera's per-hop and per-sharer costs).
//! * [`engine`] — the event loop: a simulated thread is one future that
//!   awaits its [`program::Cpu`]'s operations, each one
//!   [`program::Action`]; the engine charges latencies, serializes
//!   conflicting line accesses, and advances time.
//!
//! Capacity misses and evictions are not modelled: the paper's
//! microbenchmark working sets fit in cache, and its "Invalid" rows are
//! reproduced with an explicit flush operation.
//!
//! ## Example
//!
//! ```
//! use ssync_core::Platform;
//! use ssync_sim::engine::Sim;
//! use ssync_sim::memory::LineId;
//! use ssync_sim::program::Cpu;
//!
//! /// Increment a shared counter 10 times, then stop.
//! async fn incr(cpu: Cpu, line: LineId) {
//!     for _ in 0..10 {
//!         cpu.fai(line).await;
//!     }
//! }
//!
//! let mut sim = Sim::new(Platform::Niagara, 42);
//! let line = sim.alloc_line_for_core(0);
//! sim.spawn_on_core(0, move |cpu| incr(cpu, line));
//! sim.spawn_on_core(8, move |cpu| incr(cpu, line));
//! sim.run_to_completion();
//! assert_eq!(sim.memory().line(line).value, 20);
//! ```

pub mod engine;
pub mod latency;
pub mod memory;
pub mod program;
pub mod protocol;
pub mod stats;

pub use engine::Sim;
pub use latency::LatencyModel;
pub use memory::{CohState, Line, LineId, Memory, SharerSet};
pub use program::{Action, Cpu, WaitCond};
pub use stats::SimStats;
