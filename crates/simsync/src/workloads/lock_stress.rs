//! Lock stress workloads: Figures 3, 5, 6, 7 and 8.
//!
//! * [`lock_stress`] — each thread acquires a (uniformly random) lock out
//!   of `n` locks, reads and writes the lock's data line, releases, and
//!   pauses briefly (Section 6.1.2's methodology; `n = 1` is the extreme
//!   contention of Figure 5, `n = 512` the very low contention of
//!   Figure 7, and `n ∈ {4, 16, 32, 128}` the Figure 8 sweep). Each
//!   iteration also records its latency, which is Figure 3's metric.
//! * [`uncontested_pair`] — two threads strictly alternate acquiring one
//!   lock via a turn line, so every acquisition finds the lock free but
//!   *held last by the other core*: Figure 6's distance ladder.

use std::rc::Rc;

use rand::Rng;

use ssync_sim::memory::LineId;
use ssync_sim::{Cpu, WaitCond};

use crate::locks::SimLock;

/// Base post-release pause in the contended stress (lets the release
/// become globally visible before the same thread retries;
/// Section 6.1.2). Each pause adds uniform jitter of the same magnitude:
/// real runs have timing noise that randomizes FIFO queue order, and
/// without it the deterministic simulation phase-locks into socket-major
/// handoff order, which understates cross-socket traffic.
pub const RELEASE_PAUSE: u64 = 80;

/// One stress worker for the throughput experiments, over `locks` with
/// one data line per lock.
///
/// # Panics
///
/// Panics if `locks` and `data` differ in length or are empty.
pub async fn lock_stress(cpu: Cpu, locks: Vec<Rc<SimLock>>, data: Vec<LineId>) {
    assert_eq!(locks.len(), data.len());
    assert!(!locks.is_empty());
    loop {
        let idx = if locks.len() == 1 {
            0
        } else {
            cpu.rng().gen_range(0..locks.len())
        };
        let started_at = cpu.now();
        locks[idx].acquire(&cpu).await;
        // Critical section: read, then write the data line.
        let v = cpu.load(data[idx]).await;
        cpu.store(data[idx], v.wrapping_add(1)).await;
        locks[idx].release(&cpu).await;
        cpu.complete_op();
        cpu.record_sample(cpu.now() - started_at);
        let jitter = cpu.rng().gen_range(0..=RELEASE_PAUSE);
        cpu.pause(RELEASE_PAUSE + jitter).await;
    }
}

/// One of two threads that strictly alternate acquiring `lock`, for the
/// uncontested-latency ladder. `my_turn` must be 0 for the first thread
/// and 1 for the second; `turn` is a shared line initialized to 0.
pub async fn uncontested_pair(cpu: Cpu, lock: Rc<SimLock>, turn: LineId, my_turn: u64) {
    loop {
        // Wait for our turn: park until the partner's FAI flips the
        // parity, then re-check.
        let mut seen = cpu.load(turn).await;
        while seen % 2 != my_turn {
            seen = cpu.spin_wait(turn, WaitCond::Ne(seen), 8).await;
        }
        // Always uncontested: the other thread is waiting on the turn
        // line. Release immediately.
        let started_at = cpu.now();
        lock.acquire(&cpu).await;
        lock.release(&cpu).await;
        cpu.record_sample(cpu.now() - started_at);
        cpu.complete_op();
        // Hand the turn to the partner.
        cpu.fai(turn).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locks::{make_lock, LockConfig, SimLockKind};
    use ssync_core::Platform;
    use ssync_sim::Sim;

    /// Throughput of `kind` with `threads` threads over `n_locks` locks.
    pub fn stress_mops(
        platform: Platform,
        kind: SimLockKind,
        threads: usize,
        n_locks: usize,
    ) -> f64 {
        let mut sim = Sim::new(platform, 11);
        let cfg = LockConfig::for_placement(&sim, threads);
        let mut locks = Vec::new();
        let mut data = Vec::new();
        for _ in 0..n_locks {
            locks.push(make_lock(kind, &mut sim, &cfg));
            data.push(sim.alloc_line_for_core(cfg.home_core));
        }
        for tid in 0..threads {
            let (locks, data) = (locks.clone(), data.clone());
            sim.spawn_on_core(cfg.thread_cores[tid], |cpu| lock_stress(cpu, locks, data));
        }
        let window = 400_000;
        sim.run_until(window);
        sim.topology().mops(sim.total_ops(), window)
    }

    #[test]
    fn multisocket_single_lock_collapses() {
        let t1 = stress_mops(Platform::Opteron, SimLockKind::Ticket, 1, 1);
        let t12 = stress_mops(Platform::Opteron, SimLockKind::Ticket, 12, 1);
        assert!(t1 > 2.0 * t12, "t1={t1:.2} t12={t12:.2}");
    }

    #[test]
    fn single_socket_single_lock_holds_up() {
        let t1 = stress_mops(Platform::Niagara, SimLockKind::Ticket, 1, 1);
        let t32 = stress_mops(Platform::Niagara, SimLockKind::Ticket, 32, 1);
        // No collapse below ~40% of single-thread throughput.
        assert!(t32 > 0.4 * t1, "t1={t1:.2} t32={t32:.2}");
    }

    #[test]
    fn low_contention_scales_on_single_socket() {
        let t1 = stress_mops(Platform::Tilera, SimLockKind::Tas, 1, 128);
        let t18 = stress_mops(Platform::Tilera, SimLockKind::Tas, 18, 128);
        assert!(t18 > 3.0 * t1, "t1={t1:.2} t18={t18:.2}");
    }

    #[test]
    fn queue_locks_resilient_under_extreme_contention() {
        // On the Xeon at high thread counts, CLH should beat plain TAS.
        let clh = stress_mops(Platform::Xeon, SimLockKind::Clh, 30, 1);
        let tas = stress_mops(Platform::Xeon, SimLockKind::Tas, 30, 1);
        assert!(clh > tas, "clh={clh:.2} tas={tas:.2}");
    }

    #[test]
    fn uncontested_pair_records_samples() {
        let mut sim = Sim::new(Platform::Xeon, 3);
        let cfg = LockConfig {
            n_threads: 2,
            home_core: 0,
            thread_cores: vec![0, 10],
        };
        let lock = make_lock(SimLockKind::Ticket, &mut sim, &cfg);
        let turn = sim.alloc_line_for_core(0);
        let l0 = Rc::clone(&lock);
        let t0 = sim.spawn_on_core(0, move |cpu| uncontested_pair(cpu, l0, turn, 0));
        let l1 = Rc::clone(&lock);
        let t1 = sim.spawn_on_core(10, move |cpu| uncontested_pair(cpu, l1, turn, 1));
        sim.run_until(400_000);
        assert!(sim.samples(t0).len() > 10);
        assert!(sim.samples(t1).len() > 10);
        // Cross-socket handoff: each acquire+release costs hundreds of
        // cycles (remote line transfers), not single digits.
        let mean: u64 = sim.samples(t1).iter().sum::<u64>() / sim.samples(t1).len() as u64;
        assert!(mean > 100, "mean={mean}");
    }
}
