//! The Memcached-model key-value store workload (Figure 12).
//!
//! The paper replaces Memcached 1.4.15's pthread mutexes with `libslock`
//! and drives it with `memslap` over the network; throughput is bounded
//! by networking and the OS, yet the *set* test is still lock-sensitive
//! because writes periodically take global locks (hash-table maintenance
//! and the cache/slab bookkeeping), while the *get* test is not.
//!
//! Substitution (see DESIGN.md): the network stack and `memslap` clients
//! become a fixed per-request local cost; the hash table keeps
//! Memcached's structure — many fine-grained bucket locks plus a global
//! lock taken on a fraction of write requests (item LRU/slab
//! maintenance). This preserves what Figure 12 measures: how the lock
//! algorithm changes saturation and the multi-socket penalty.

use std::rc::Rc;

use rand::Rng;

use ssync_sim::memory::LineId;
use ssync_sim::Cpu;

use crate::locks::SimLock;

/// Per-request "network + parse + syscall" cost (cycles). Dominates the
/// critical path, as in the real deployment where throughput tops out at
/// a few hundred Kops/s.
pub const REQUEST_OVERHEAD: u64 = 9_000;

/// Fraction (percent) of *set* requests that take the global lock.
pub const GLOBAL_LOCK_PCT: u32 = 25;

/// Cycles of work while holding the global lock (LRU/slab maintenance).
pub const GLOBAL_WORK: u64 = 2_000;

/// The request mix of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvMix {
    /// get-only: no global locks, reads under bucket locks.
    GetOnly,
    /// set-only: writes under bucket locks + periodic global lock.
    SetOnly,
}

/// One simulated Memcached worker thread: each request takes one
/// bucket lock and, for a fraction of sets, the global lock after it.
///
/// # Panics
///
/// Panics if `bucket_locks` and `bucket_data` differ in length.
pub async fn kv_worker(
    cpu: Cpu,
    bucket_locks: Vec<Rc<SimLock>>,
    bucket_data: Vec<LineId>,
    global_lock: Rc<SimLock>,
    mix: KvMix,
) {
    assert_eq!(bucket_locks.len(), bucket_data.len());
    loop {
        let bucket = cpu.rng().gen_range(0..bucket_locks.len());
        let needs_global =
            mix == KvMix::SetOnly && cpu.rng().gen_range(0..100u32) < GLOBAL_LOCK_PCT;
        // Receive + parse the request.
        cpu.pause(REQUEST_OVERHEAD).await;
        bucket_locks[bucket].acquire(&cpu).await;
        let v = cpu.load(bucket_data[bucket]).await;
        if mix == KvMix::SetOnly {
            cpu.store(bucket_data[bucket], v.wrapping_add(1)).await;
        }
        bucket_locks[bucket].release(&cpu).await;
        if needs_global {
            // Global maintenance lock.
            global_lock.acquire(&cpu).await;
            cpu.pause(GLOBAL_WORK).await;
            global_lock.release(&cpu).await;
        }
        cpu.complete_op();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locks::{make_lock, LockConfig, SimLockKind};
    use ssync_core::Platform;
    use ssync_sim::Sim;

    /// Kops/s for a given platform / lock / thread count / mix.
    pub fn kv_kops(platform: Platform, kind: SimLockKind, threads: usize, mix: KvMix) -> f64 {
        let mut sim = Sim::new(platform, 17);
        let cfg = LockConfig::for_placement(&sim, threads);
        let n_buckets = 256;
        let bucket_locks: Vec<_> = (0..n_buckets)
            .map(|_| make_lock(kind, &mut sim, &cfg))
            .collect();
        let bucket_data: Vec<_> = (0..n_buckets)
            .map(|i| sim.alloc_line_for_core(cfg.thread_cores[i % threads]))
            .collect();
        let global = make_lock(kind, &mut sim, &cfg);
        for tid in 0..threads {
            let (locks, data, global) = (
                bucket_locks.clone(),
                bucket_data.clone(),
                Rc::clone(&global),
            );
            sim.spawn_on_core(cfg.thread_cores[tid], move |cpu| {
                kv_worker(cpu, locks, data, global, mix)
            });
        }
        let window = 3_000_000;
        sim.run_until(window);
        // Kops/s = ops / seconds / 1000.
        sim.topology().mops(sim.total_ops(), window) * 1000.0
    }

    #[test]
    fn set_scales_then_saturates() {
        let t1 = kv_kops(Platform::Xeon, SimLockKind::Ticket, 1, KvMix::SetOnly);
        let t10 = kv_kops(Platform::Xeon, SimLockKind::Ticket, 10, KvMix::SetOnly);
        assert!(t10 > 3.0 * t1, "t1={t1:.0} t10={t10:.0}");
    }

    #[test]
    fn get_mix_is_lock_insensitive() {
        let mutex = kv_kops(Platform::Opteron, SimLockKind::Mutex, 8, KvMix::GetOnly);
        let ticket = kv_kops(Platform::Opteron, SimLockKind::Ticket, 8, KvMix::GetOnly);
        let ratio = ticket / mutex;
        assert!((0.8..1.25).contains(&ratio), "ratio={ratio:.2}");
    }

    #[test]
    fn set_mix_is_lock_sensitive_at_scale() {
        let mutex = kv_kops(Platform::Xeon, SimLockKind::Mutex, 18, KvMix::SetOnly);
        let ticket = kv_kops(Platform::Xeon, SimLockKind::Ticket, 18, KvMix::SetOnly);
        // The paper reports 29-50% speedups from replacing MUTEX.
        assert!(ticket > 1.05 * mutex, "ticket={ticket:.0} mutex={mutex:.0}");
    }
}
