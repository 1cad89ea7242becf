//! Simulated MCS queue lock.
//!
//! Per-thread queue nodes are two lines each (`locked` flag and `next`
//! pointer); the queue tail is one line holding `tid + 1` (0 = empty).
//! A waiter spins on its own `locked` line, so after the first poll it
//! reads from L1 until the predecessor's handoff store invalidates it —
//! one line transfer per handoff, the property that makes MCS "the most
//! resilient to contention" (Figure 5).

use ssync_sim::memory::LineId;
use ssync_sim::{Cpu, Sim, WaitCond};

use super::{LockConfig, POLL_PAUSE};

/// Simulated MCS lock.
pub struct SimMcs {
    tail: LineId,
    /// Per-thread spin flag line.
    locked: Vec<LineId>,
    /// Per-thread successor pointer line (value = successor tid + 1).
    next: Vec<LineId>,
}

impl SimMcs {
    /// Allocates the tail line plus two lines per thread. Queue node
    /// lines are allocated local to each thread's core, as `libslock`
    /// allocates qnodes from thread-local memory.
    pub fn new(sim: &mut Sim, cfg: &LockConfig) -> Self {
        let tail = sim.alloc_line_for_core(cfg.home_core);
        let locked = (0..cfg.n_threads)
            .map(|t| sim.alloc_line_for_core(cfg.thread_cores[t]))
            .collect();
        let next = (0..cfg.n_threads)
            .map(|t| sim.alloc_line_for_core(cfg.thread_cores[t]))
            .collect();
        Self { tail, locked, next }
    }

    /// Swaps our node into the tail; behind a predecessor, links in and
    /// waits on our own flag for its handoff.
    pub async fn acquire(&self, cpu: &Cpu) {
        let me = cpu.tid();
        cpu.store(self.next[me], 0).await;
        cpu.store(self.locked[me], 1).await;
        let pred = cpu.swap(self.tail, me as u64 + 1).await;
        if pred == 0 {
            return; // Queue was empty: lock acquired.
        }
        cpu.store(self.next[pred as usize - 1], me as u64 + 1).await;
        cpu.spin_wait(self.locked[me], WaitCond::Eq(0), POLL_PAUSE)
            .await;
    }

    /// Hands off to the successor; with none visible, clears the tail,
    /// or waits for a successor that is linking itself in.
    pub async fn release(&self, cpu: &Cpu) {
        let me = cpu.tid();
        let mut successor = cpu.load(self.next[me]).await;
        if successor == 0 {
            if cpu.cas(self.tail, me as u64 + 1, 0).await == me as u64 + 1 {
                return; // Tail cleared: released.
            }
            successor = cpu
                .spin_wait(self.next[me], WaitCond::Ne(0), POLL_PAUSE)
                .await;
        }
        cpu.store(self.locked[successor as usize - 1], 0).await;
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::exclusion_torture;
    use super::super::SimLockKind;
    use ssync_core::Platform;

    #[test]
    fn exclusion_on_all_platforms() {
        for p in Platform::ALL {
            exclusion_torture(SimLockKind::Mcs, p, 4, 50);
        }
    }

    #[test]
    fn exclusion_many_threads() {
        exclusion_torture(SimLockKind::Mcs, Platform::Xeon, 20, 12);
    }
}
