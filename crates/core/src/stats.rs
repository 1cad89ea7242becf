//! Statistics for the benchmark harnesses and the observability layer.
//!
//! The paper reports averages of repeated runs with a < 3% standard
//! deviation (Table 2 caption); the [`Summary`]/[`quantile`] helpers
//! compute the same summary statistics for our measurements. On top of
//! those, this module carries the live-metrics layer every serving
//! loop registers into:
//!
//! * [`Histogram`] — an HDR-style log-bucketed latency histogram:
//!   power-of-two major buckets × [`HIST_SUB_COUNT`] linear
//!   sub-buckets, so `record(ns)` is one index computation plus one
//!   `Relaxed` counter increment and any quantile read is within
//!   [`HIST_MAX_REL_ERROR`] of the true sample quantile.
//! * [`Registry`] — named counters and histograms a node exposes for
//!   live scraping over the `Stats` wire op.
//! * [`mono_ns`] — a process-wide monotonic nanosecond clock, the
//!   timebase open-loop latency stamps and server-side queue-wait
//!   splits share.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::pad::CachePadded;
use crate::sync::atomic::AtomicU64;

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n-1 denominator; 0 for n < 2).
    pub stddev: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
}

impl Summary {
    /// Computes summary statistics over `samples`.
    ///
    /// Returns `None` for an empty sample.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Some(Self {
            n,
            mean,
            stddev: var.sqrt(),
            min,
            max,
        })
    }

    /// Summary over durations, expressed in milliseconds — the unit the
    /// failover bench reports unavailability windows in.
    ///
    /// Returns `None` for an empty sample.
    pub fn of_durations_ms(samples: &[core::time::Duration]) -> Option<Self> {
        let ms: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        Self::of(&ms)
    }

    /// Relative standard deviation (stddev / mean), the paper's "< 3%"
    /// stability criterion. Zero when the mean is zero.
    pub fn rsd(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.stddev / self.mean.abs()
        }
    }
}

/// Returns the `q`-quantile (0 ≤ q ≤ 1) of a sample using linear
/// interpolation, or `None` for an empty sample **or a sample
/// containing NaN** — a pathological measurement degrades to "no
/// answer" instead of killing a bench run mid-sweep.
pub fn quantile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() || samples.iter().any(|x| x.is_nan()) {
        return None;
    }
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    samples.sort_by(f64::total_cmp);
    let pos = q * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(samples[lo])
    } else {
        let frac = pos - lo as f64;
        Some(samples[lo] * (1.0 - frac) + samples[hi] * frac)
    }
}

/// Geometric mean of strictly positive samples; `None` if empty or any
/// sample is non-positive.
pub fn geo_mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() || samples.iter().any(|&x| x <= 0.0) {
        return None;
    }
    let log_sum: f64 = samples.iter().map(|x| x.ln()).sum();
    Some((log_sum / samples.len() as f64).exp())
}

// ---------------------------------------------------------------------------
// Monotonic timebase
// ---------------------------------------------------------------------------

static MONO_ANCHOR: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds on a process-wide monotonic clock (anchored at first
/// use). Every thread reads the same anchor, so a timestamp taken on a
/// client thread can be subtracted on a server thread — the property
/// the open-loop harness uses to split client-observed latency into
/// queue wait and apply time.
#[inline]
pub fn mono_ns() -> u64 {
    let anchor = *MONO_ANCHOR.get_or_init(Instant::now);
    anchor.elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Log-bucketed histogram
// ---------------------------------------------------------------------------

/// log2 of the sub-bucket count per power-of-two major bucket.
pub const HIST_SUB_BITS: u32 = 5;
/// Linear sub-buckets per major bucket (values below this are exact).
pub const HIST_SUB_COUNT: u64 = 1 << HIST_SUB_BITS;
/// Total bucket count: one exact bucket per value in
/// `0..HIST_SUB_COUNT`, then [`HIST_SUB_COUNT`] sub-buckets for each
/// of the remaining `64 - HIST_SUB_BITS` powers of two — the full
/// `u64` range in 1 920 counters.
pub const HIST_BUCKETS: usize = (64 - HIST_SUB_BITS as usize + 1) << HIST_SUB_BITS;
/// Worst-case relative error of any reported quantile: a bucket
/// spanning `[lo, lo + w)` has `w ≤ lo / HIST_SUB_COUNT`, and the
/// midpoint representative is at most `w / 2` from any member.
pub const HIST_MAX_REL_ERROR: f64 = 1.0 / HIST_SUB_COUNT as f64;

/// Histograms a [`Registry`] holds, and the most a [`RegistrySnapshot`]
/// encodes or decodes. A decoded histogram is a dense
/// [`HIST_BUCKETS`]-counter array (15 KiB) however few bytes its entry
/// took — an empty one takes 5 — so this count, not the payload's
/// length, is what bounds the memory a scraped reply costs its
/// decoder: ≈ 0.9 MiB at the cap. A node registers two.
pub const SNAPSHOT_MAX_HISTS: usize = 64;

/// Maps a recorded value to its bucket index. One comparison, one
/// `leading_zeros`, two shifts — the whole cost of `record` beyond the
/// counter increment.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < HIST_SUB_COUNT {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let sub = (v >> (exp - HIST_SUB_BITS)) & (HIST_SUB_COUNT - 1);
    ((u64::from(exp - HIST_SUB_BITS) + 1) * HIST_SUB_COUNT + sub) as usize
}

/// The `[lo, hi)` value range bucket `idx` covers (`hi` saturates at
/// `u64::MAX` for the top bucket).
pub fn bucket_bounds(idx: usize) -> (u64, u64) {
    assert!(idx < HIST_BUCKETS, "bucket index out of range: {idx}");
    let idx = idx as u64;
    if idx < HIST_SUB_COUNT {
        return (idx, idx + 1);
    }
    let major = idx >> HIST_SUB_BITS;
    let sub = idx & (HIST_SUB_COUNT - 1);
    let exp = major - 1 + u64::from(HIST_SUB_BITS);
    let width = 1u64 << (exp - u64::from(HIST_SUB_BITS));
    let lo = (1u64 << exp) + sub * width;
    (lo, lo.saturating_add(width))
}

/// The representative value reported for bucket `idx` (its midpoint;
/// exact for the unit-width low buckets).
fn bucket_rep(idx: usize) -> u64 {
    let (lo, hi) = bucket_bounds(idx);
    lo + (hi - lo) / 2
}

/// An HDR-style log-bucketed histogram of `u64` observations
/// (nanoseconds, in this workspace).
///
/// `record` is wait-free: one index computation and one `Relaxed`
/// increment, no CAS loop and no ordering stronger than `Relaxed`
/// anywhere on the hot path. Recording threads are expected to own
/// their histogram (one per worker or per serving loop, merged at read
/// time); the atomics exist so a concurrent [`Histogram::snapshot`]
/// from a scraping thread is race-free, not to make cross-thread
/// recording into one array fast. The bucket array is padded as a
/// unit so adjacent histograms never share its head cache line.
pub struct Histogram {
    buckets: CachePadded<Box<[AtomicU64]>>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram covering the full `u64` range.
    pub fn new() -> Self {
        let buckets: Box<[AtomicU64]> = (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Self {
            buckets: CachePadded::new(buckets),
        }
    }

    /// Records one observation. Wait-free; safe to race with
    /// [`Histogram::snapshot`] from another thread.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Adds every count of `other` into `self`.
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n != 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// A point-in-time copy of the bucket counts. Racing recorders are
    /// fine: each bucket is read atomically, and a record that lands
    /// mid-snapshot is either in this snapshot or the next.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Convenience: `snapshot().quantile(q)`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.snapshot().quantile(q)
    }
}

/// An owned, plain-integer copy of a [`Histogram`]'s buckets — what
/// travels in a `StatsReply` and what reports compute quantiles from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with every bucket at zero.
    pub fn empty() -> Self {
        Self {
            counts: vec![0; HIST_BUCKETS],
        }
    }

    /// Rebuilds a snapshot from sparse `(bucket, count)` pairs.
    /// Returns `None` on any out-of-range bucket index — the decode
    /// path for scraped payloads is total, like the wire layer's.
    pub fn from_sparse(pairs: &[(u16, u64)]) -> Option<Self> {
        let mut snap = Self::empty();
        for &(idx, count) in pairs {
            let slot = snap.counts.get_mut(idx as usize)?;
            *slot = slot.checked_add(count)?;
        }
        Some(snap)
    }

    /// The nonempty `(bucket, count)` pairs, in bucket order.
    pub fn nonempty(&self) -> impl Iterator<Item = (u16, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (i as u16, c))
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Adds every count of `other` into `self`.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest rank, reported as the
    /// containing bucket's midpoint — within [`HIST_MAX_REL_ERROR`] of
    /// the true sample quantile. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(bucket_rep(idx));
            }
        }
        unreachable!("cumulative count reached total before the last bucket")
    }

    /// The largest recorded value's bucket midpoint (`quantile(1.0)`).
    pub fn max(&self) -> Option<u64> {
        self.quantile(1.0)
    }
}

// ---------------------------------------------------------------------------
// Named-metric registry
// ---------------------------------------------------------------------------

/// A padded `Relaxed` event counter.
#[derive(Debug, Default)]
pub struct Counter {
    v: CachePadded<AtomicU64>,
}

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Self {
            v: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.v.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.v.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A node's named metrics: counters and histograms, registered once at
/// startup (get-or-create under a mutex) and updated lock-free through
/// the returned [`Arc`] handles. [`Registry::snapshot`] is what the
/// `Stats` wire op serializes.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

#[derive(Default)]
struct RegistryInner {
    counters: Vec<(String, Arc<Counter>)>,
    hists: Vec<(String, Arc<Histogram>)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        // Registration and scraping never panic while holding the
        // lock, but a poisoned mutex should not take the metrics path
        // down with it.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The counter named `name`, created on first use. Registration
    /// order is snapshot order.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.locked();
        if let Some((_, c)) = inner.counters.iter().find(|(n, _)| n == name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        inner.counters.push((name.to_string(), Arc::clone(&c)));
        c
    }

    /// The histogram named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` would be the registry's
    /// [`SNAPSHOT_MAX_HISTS`]`+1`th histogram: a snapshot of it could
    /// not be decoded.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.locked();
        if let Some((_, h)) = inner.hists.iter().find(|(n, _)| n == name) {
            return Arc::clone(h);
        }
        assert!(
            inner.hists.len() < SNAPSHOT_MAX_HISTS,
            "a registry holds at most {SNAPSHOT_MAX_HISTS} histograms"
        );
        let h = Arc::new(Histogram::new());
        inner.hists.push((name.to_string(), Arc::clone(&h)));
        h
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.locked();
        RegistrySnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(n, c)| (n.clone(), c.get()))
                .collect(),
            hists: inner
                .hists
                .iter()
                .map(|(n, h)| (n.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// A scraped copy of a [`Registry`]: named counter values and sparse
/// histogram buckets. This is the payload of the `StatsReply` wire
/// response; [`RegistrySnapshot::to_bytes`]/[`RegistrySnapshot::from_bytes`]
/// define its (little-endian, length-prefixed) encoding.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegistrySnapshot {
    /// `(name, value)` per counter, in registration order.
    pub counters: Vec<(String, u64)>,
    /// `(name, buckets)` per histogram, in registration order.
    pub hists: Vec<(String, HistogramSnapshot)>,
}

impl RegistrySnapshot {
    /// The value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The buckets of histogram `name`, if present.
    pub fn hist(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Serializes the snapshot: `u16` counter count, then per counter
    /// `u8` name length + name + `u64` value; `u16` histogram count,
    /// then per histogram `u8` name length + name + `u32` pair count +
    /// sparse `(u16 bucket, u64 count)` pairs. Names longer than 255
    /// bytes are truncated at a char boundary, and only the first
    /// [`SNAPSHOT_MAX_HISTS`] histograms are written (a [`Registry`]
    /// never holds more).
    pub fn to_bytes(&self) -> Vec<u8> {
        fn push_name(out: &mut Vec<u8>, name: &str) {
            let mut end = name.len().min(255);
            while !name.is_char_boundary(end) {
                end -= 1;
            }
            out.push(end as u8);
            out.extend_from_slice(&name.as_bytes()[..end]);
        }
        let mut out = Vec::new();
        out.extend_from_slice(&(self.counters.len().min(u16::MAX as usize) as u16).to_le_bytes());
        for (name, value) in self.counters.iter().take(u16::MAX as usize) {
            push_name(&mut out, name);
            out.extend_from_slice(&value.to_le_bytes());
        }
        let hists = &self.hists[..self.hists.len().min(SNAPSHOT_MAX_HISTS)];
        out.extend_from_slice(&(hists.len() as u16).to_le_bytes());
        for (name, snap) in hists {
            push_name(&mut out, name);
            let pairs: Vec<(u16, u64)> = snap.nonempty().collect();
            out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
            for (idx, count) in pairs {
                out.extend_from_slice(&idx.to_le_bytes());
                out.extend_from_slice(&count.to_le_bytes());
            }
        }
        out
    }

    /// Decodes a serialized snapshot. Total: any truncation, non-UTF-8
    /// name, out-of-range bucket index or histogram count past
    /// [`SNAPSHOT_MAX_HISTS`] yields `None`, never a panic — scraped
    /// bytes are input, and input is never trusted.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        struct Cursor<'a>(&'a [u8]);
        impl<'a> Cursor<'a> {
            fn take(&mut self, n: usize) -> Option<&'a [u8]> {
                if self.0.len() < n {
                    return None;
                }
                let (head, rest) = self.0.split_at(n);
                self.0 = rest;
                Some(head)
            }
            fn u8(&mut self) -> Option<u8> {
                Some(self.take(1)?[0])
            }
            fn u16(&mut self) -> Option<u16> {
                Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
            }
            fn u32(&mut self) -> Option<u32> {
                Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
            }
            fn u64(&mut self) -> Option<u64> {
                Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
            }
            fn name(&mut self) -> Option<String> {
                let len = self.u8()? as usize;
                let raw = self.take(len)?;
                String::from_utf8(raw.to_vec()).ok()
            }
        }
        let mut cur = Cursor(bytes);
        let n_counters = cur.u16()?;
        let mut counters = Vec::with_capacity(n_counters as usize);
        for _ in 0..n_counters {
            let name = cur.name()?;
            counters.push((name, cur.u64()?));
        }
        let n_hists = cur.u16()?;
        if usize::from(n_hists) > SNAPSHOT_MAX_HISTS {
            return None;
        }
        let mut hists = Vec::with_capacity(n_hists as usize);
        for _ in 0..n_hists {
            let name = cur.name()?;
            let n_pairs = cur.u32()?;
            let mut pairs = Vec::with_capacity((n_pairs as usize).min(HIST_BUCKETS));
            for _ in 0..n_pairs {
                let idx = cur.u16()?;
                pairs.push((idx, cur.u64()?));
            }
            hists.push((name, HistogramSnapshot::from_sparse(&pairs)?));
        }
        if !cur.0.is_empty() {
            return None;
        }
        Some(Self { counters, hists })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_constant_sample() {
        let s = Summary::of(&[5.0, 5.0, 5.0]).unwrap();
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.rsd(), 0.0);
    }

    #[test]
    fn summary_basic() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.stddev - 1.2909944487358056).abs() < 1e-12);
    }

    #[test]
    fn summary_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn summary_of_durations_is_in_milliseconds() {
        let s = Summary::of_durations_ms(&[
            core::time::Duration::from_millis(2),
            core::time::Duration::from_millis(4),
        ])
        .unwrap();
        assert!((s.mean - 3.0).abs() < 1e-9);
        assert!(Summary::of_durations_ms(&[]).is_none());
    }

    #[test]
    fn quantiles() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), Some(1.0));
        assert_eq!(quantile(&mut v, 1.0), Some(4.0));
        assert_eq!(quantile(&mut v, 0.5), Some(2.5));
    }

    #[test]
    fn geo_mean_basic() {
        let g = geo_mean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9);
        assert!(geo_mean(&[1.0, 0.0]).is_none());
        assert!(geo_mean(&[]).is_none());
    }

    #[test]
    fn quantile_with_nan_is_none_not_a_panic() {
        let mut v = vec![1.0, f64::NAN, 3.0];
        assert_eq!(quantile(&mut v, 0.5), None);
        let mut ok = vec![1.0, 3.0];
        assert_eq!(quantile(&mut ok, 0.5), Some(2.0));
    }

    #[test]
    fn bucket_index_is_monotone_and_matches_bounds() {
        // Every bucket's bounds contain exactly the values that map to
        // it; indices never decrease as values grow.
        let mut samples: Vec<u64> = (0..64u32)
            .flat_map(|exp| {
                [
                    1u64 << exp,
                    (1u64 << exp) + 1,
                    (1u64 << exp).wrapping_mul(2).wrapping_sub(1),
                ]
            })
            .collect();
        samples.sort_unstable();
        let mut last = 0usize;
        for v in samples {
            let idx = bucket_index(v);
            assert!(idx >= last, "index regressed at {v}");
            last = idx;
            let (lo, hi) = bucket_bounds(idx);
            assert!(
                lo <= v && (v < hi || hi == u64::MAX),
                "{v} outside [{lo},{hi})"
            );
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_are_within_the_relative_error_bound() {
        // A deterministic skewed sample (quadratic growth spans several
        // major buckets); compare against exact nearest-rank quantiles.
        let samples: Vec<u64> = (1..=10_000u64).map(|i| 50 + i * i / 7).collect();
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let est = h.quantile(q).unwrap() as f64;
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1] as f64;
            let rel = (est - exact).abs() / exact;
            assert!(
                rel <= HIST_MAX_REL_ERROR,
                "q={q}: est {est} vs exact {exact} (rel {rel})"
            );
        }
        assert_eq!(h.count(), samples.len() as u64);
    }

    #[test]
    fn histogram_merge_is_associative_and_commutative() {
        let mk = |seed: u64, n: u64| {
            let h = Histogram::new();
            for i in 0..n {
                h.record(seed.wrapping_mul(i + 1) % 1_000_000);
            }
            h.snapshot()
        };
        let (a, b, c) = (mk(3, 100), mk(7, 200), mk(11, 50));
        // (a + b) + c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a + (b + c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
        // c + b + a
        let mut rev = c.clone();
        rev.merge(&b);
        rev.merge(&a);
        assert_eq!(left, rev);
        assert_eq!(left.count(), a.count() + b.count() + c.count());
    }

    #[test]
    fn empty_histogram_quantile_is_none() {
        assert_eq!(Histogram::new().quantile(0.5), None);
        assert_eq!(HistogramSnapshot::empty().max(), None);
    }

    #[test]
    fn registry_snapshot_roundtrips_through_bytes() {
        let reg = Registry::new();
        let reqs = reg.counter("srv.requests");
        reqs.add(42);
        reg.counter("srv.malformed"); // zero-valued counters survive
        let lat = reg.histogram("srv.apply_ns");
        for v in [3u64, 900, 70_000, 70_001, u64::MAX] {
            lat.record(v);
        }
        let snap = reg.snapshot();
        let bytes = snap.to_bytes();
        let back = RegistrySnapshot::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(back, snap);
        assert_eq!(back.counter("srv.requests"), Some(42));
        assert_eq!(back.counter("srv.malformed"), Some(0));
        assert_eq!(back.hist("srv.apply_ns").unwrap().count(), 5);
        // Same handle on re-registration.
        reg.counter("srv.requests").inc();
        assert_eq!(reg.snapshot().counter("srv.requests"), Some(43));
    }

    #[test]
    fn snapshot_decode_is_total_on_garbage() {
        assert_eq!(RegistrySnapshot::from_bytes(&[7]), None); // truncated
                                                              // Bucket index out of range.
        let mut bad = RegistrySnapshot::default();
        bad.hists.push(("h".into(), HistogramSnapshot::empty()));
        let mut bytes = bad.to_bytes();
        // Append a pair with an out-of-range index by hand.
        let len = bytes.len();
        bytes[len - 4..].copy_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&u16::MAX.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        assert_eq!(RegistrySnapshot::from_bytes(&bytes), None);
        // Trailing garbage after a valid snapshot.
        let mut ok = RegistrySnapshot::default().to_bytes();
        ok.push(0);
        assert_eq!(RegistrySnapshot::from_bytes(&ok), None);
    }

    /// A 327 679-byte payload — under the wire's 1 MiB stats cap — of
    /// 65 535 empty histograms, 5 bytes each, would decode into 65 535
    /// dense arrays, ≈ 960 MiB. The count is refused before any is built.
    #[test]
    fn a_flood_of_empty_histograms_decodes_to_none() {
        let mut flood = Vec::new();
        flood.extend_from_slice(&0u16.to_le_bytes());
        flood.extend_from_slice(&u16::MAX.to_le_bytes());
        for _ in 0..u16::MAX {
            flood.push(0); // An empty name.
            flood.extend_from_slice(&0u32.to_le_bytes()); // No pairs.
        }
        assert_eq!(flood.len(), 327_679);
        assert_eq!(RegistrySnapshot::from_bytes(&flood), None);
    }

    /// Every snapshot a registry can produce round-trips: one with as
    /// many histograms as a registry holds decodes to itself, and a
    /// registry refuses one more.
    #[test]
    fn a_full_registry_round_trips_and_refuses_one_more_histogram() {
        let reg = Registry::new();
        for i in 0..SNAPSHOT_MAX_HISTS {
            reg.histogram(&format!("h{i}")).record(i as u64);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.hists.len(), SNAPSHOT_MAX_HISTS);
        assert_eq!(RegistrySnapshot::from_bytes(&snap.to_bytes()), Some(snap));
        assert!(std::panic::catch_unwind(|| reg.histogram("one too many")).is_err());
        // A snapshot built by hand past the cap encodes the first
        // `SNAPSHOT_MAX_HISTS`, which decode.
        let mut over = reg.snapshot();
        over.hists
            .push(("extra".into(), HistogramSnapshot::empty()));
        let back = RegistrySnapshot::from_bytes(&over.to_bytes()).expect("decodes");
        assert_eq!(back, reg.snapshot());
    }

    #[test]
    fn mono_ns_is_monotone_and_shared_across_threads() {
        let a = mono_ns();
        let b = std::thread::spawn(mono_ns).join().unwrap();
        let c = mono_ns();
        assert!(a <= b && b <= c);
    }
}
