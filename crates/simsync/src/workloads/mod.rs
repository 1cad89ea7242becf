//! Experiment workloads: each simulated thread is one `async fn`, one
//! module per family of figures.
//!
//! * [`atomics`] — the Section 5.4 atomic-operation stress (Figure 4).
//! * [`lock_stress`] — contended lock throughput/latency (Figures 3, 5,
//!   7, 8) and the uncontested-handoff latency pairs (Figure 6).
//! * [`mp_bench`] — message-passing one-to-one and client-server
//!   benchmarks (Figures 9 and 10).
//! * [`ssht`] — the concurrent hash table workload (Figure 11).
//! * [`kv`] — the Memcached-model key-value store workload (Figure 12).

pub mod atomics;
pub mod kv;
pub mod lock_stress;
pub mod mp_bench;
pub mod ssht;
