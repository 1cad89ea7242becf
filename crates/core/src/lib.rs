//! # ssync-core
//!
//! Shared primitives for the SSYNC-RS workspace, the Rust reproduction of
//! the SOSP'13 study *"Everything You Always Wanted to Know About
//! Synchronization but Were Afraid to Ask"* (David, Guerraoui, Trigonakis).
//!
//! This crate holds the pieces that every other crate needs:
//!
//! * [`CachePadded`] — cache-line sized alignment wrapper, the basic tool
//!   for avoiding false sharing in every lock and message-passing buffer.
//! * [`Backoff`] — exponential and proportional back-off, as used by the
//!   TTAS and ticket locks of the paper's `libslock`.
//! * [`epoch`] — epoch-based reclamation ([`EpochDomain`], [`EpochBags`])
//!   for the stores' lock-free read paths: per-participant `CachePadded`
//!   pin records, a two-epoch grace period, three-generation bags.
//! * [`topology`] — descriptions of the paper's four target platforms
//!   (Table 1): core counts, socket/die structure, hop distances, memory
//!   nodes, and the thread-placement policies of Sections 5.4 and 6.
//! * [`stats`] — summary statistics for the benchmark harnesses plus the
//!   observability layer: the log-bucketed [`Histogram`], the named-metric
//!   [`Registry`] serving loops register into, and the [`mono_ns`]
//!   timebase open-loop latency stamps share.
//! * [`cores`] — host core-count probes, so native stress tests scale to
//!   the machine instead of failing on small ones.
//! * [`fenced`] — the [`Fence`] token (a term, an epoch) and the padded
//!   [`FencedWord`] both cluster maps advance it through.

pub mod backoff;
pub mod cores;
pub mod epoch;
pub mod fenced;
pub mod pad;
pub mod stats;
pub mod sync;
pub mod topology;

pub use backoff::{Backoff, ParkingWait, ProportionalBackoff, RetryPacer, SpinWait};
pub use epoch::{EpochBags, EpochDomain, PinGuard};
pub use fenced::{Fence, Fenced, FencedWord};
pub use pad::CachePadded;
pub use stats::{mono_ns, Counter, Histogram, HistogramSnapshot, Registry, RegistrySnapshot};
pub use topology::{DistClass, Platform, Topology};

/// The cache-line size assumed throughout the workspace, in bytes.
///
/// All four platforms of the paper use 64-byte coherence granules. Message
/// buffers and per-thread lock slots are sized in units of this constant.
pub const CACHE_LINE_SIZE: usize = 64;

/// The SplitMix64 finalizer: a fast, high-quality bijective mix of a
/// 64-bit word (Stafford's mix13 variant, the one `splitmix64` uses).
///
/// This is the workspace's one integer-hash primitive — shard routing
/// and workload rank scrambling both derive their hash families from it
/// by adding distinct offsets *before* the call, so the two stay
/// decorrelated but never drift apart structurally.
#[must_use]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::mix64;

    #[test]
    fn mix64_is_deterministic_and_spreads() {
        assert_eq!(mix64(0), mix64(0));
        // A bijective finalizer maps a dense range without collisions.
        let mut seen: Vec<u64> = (0..512).map(mix64).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 512);
        // And flips roughly half the bits between neighbors.
        let d = (mix64(1) ^ mix64(2)).count_ones();
        assert!((16..=48).contains(&d), "poor avalanche: {d} bits");
    }
}
