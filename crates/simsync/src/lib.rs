//! # ssync-simsync
//!
//! The SSYNC software stack of the paper, re-expressed as `ssync-sim`
//! threads so that the study's figures can be regenerated on the
//! simulated platforms:
//!
//! * [`locks`] — all nine lock algorithms (plus the Figure 3 ticket-lock
//!   variants), dispatched by [`locks::SimLock`].
//! * [`mp`] — `libssmp`: message passing over cache-line buffers, plus
//!   the Tilera's hardware channels.
//! * [`workloads`] — the experiment programs: lock stress (Figures 3 and
//!   5–8), uncontested acquisition (Figure 6), client-server messaging
//!   (Figures 9/10), the `ssht` hash table (Figure 11) and the
//!   Memcached-model KV store (Figure 12).
//!
//! The native, real-atomics implementations of the same algorithms live
//! in `ssync-locks` / `ssync-mp` / `ssync-ht` / `ssync-kv`; this crate is
//! their simulator twin: each algorithm is `async` code that awaits one
//! [`ssync_sim::Cpu`] operation per atomic step, in program order, so it
//! reads line by line against its native original.

pub mod locks;
pub mod mp;
pub mod workloads;

pub use locks::{make_lock, SimLock, SimLockKind};
