//! Simulated blocking mutex (Pthread-mutex model).
//!
//! A short TTAS-style optimistic spin, then enqueue-and-park. The engine
//! charges the suspend and wake-up costs, which is why MUTEX never wins
//! when every thread owns a core (the handoff always eats a wake-up
//! latency) but degrades gracefully when cores are shared.
//!
//! The wait queue itself is engine-level (`RefCell<VecDeque>`), standing
//! in for the kernel's futex queue; the lock word is a real simulated
//! line, and the enqueue cost is charged as a pause.

use std::cell::RefCell;
use std::collections::VecDeque;

use ssync_sim::memory::LineId;
use ssync_sim::{Cpu, Sim};

use super::{LockConfig, POLL_PAUSE};

/// Optimistic spin polls before parking (glibc's adaptive mutex spins a
/// bounded number of times).
const SPIN_BUDGET: u32 = 2;

/// Cycles charged for manipulating the kernel-side wait queue.
const QUEUE_COST: u64 = 80;

/// Simulated Pthread-style mutex.
pub struct SimMutex {
    flag: LineId,
    waiters: RefCell<VecDeque<usize>>,
}

impl SimMutex {
    /// Allocates the lock word on the config's home node.
    pub fn new(sim: &mut Sim, cfg: &LockConfig) -> Self {
        Self {
            flag: sim.alloc_line_for_core(cfg.home_core),
            waiters: RefCell::new(VecDeque::new()),
        }
    }

    /// A few optimistic CASes, then enqueue, revalidate, and park; a
    /// woken (or revalidating) thread starts over.
    pub async fn acquire(&self, cpu: &Cpu) {
        let tid = cpu.tid();
        loop {
            let mut spins = 0;
            loop {
                if cpu.cas(self.flag, 0, 1).await == 0 {
                    return;
                }
                spins += 1;
                if spins == SPIN_BUDGET {
                    break;
                }
                cpu.pause(POLL_PAUSE * u64::from(spins)).await;
            }
            // Give up spinning: enqueue and revalidate before parking
            // (the futex protocol's recheck, which prevents the lost
            // wakeup when the holder released in the meantime).
            self.waiters.borrow_mut().push_back(tid);
            cpu.pause(QUEUE_COST).await;
            if cpu.load(self.flag).await == 0 {
                // Lock became free: dequeue our first entry and retry. A
                // release may have popped it already; its unpark permit
                // then ends our next park at once, so a thread can be
                // queued twice, and only one entry goes here.
                let queued = self.waiters.borrow().iter().position(|&t| t == tid);
                if let Some(pos) = queued {
                    self.waiters.borrow_mut().remove(pos);
                }
                cpu.pause(QUEUE_COST).await;
            } else {
                cpu.park().await;
                cpu.pause(POLL_PAUSE).await;
            }
        }
    }

    /// Clears the lock word, then wakes one waiter, if any.
    pub async fn release(&self, cpu: &Cpu) {
        cpu.store(self.flag, 0).await;
        let waiter = self.waiters.borrow_mut().pop_front();
        if let Some(t) = waiter {
            cpu.unpark(t).await;
        }
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
            exclusion_torture(SimLockKind::Mutex, p, 4, 40);
        }
    }

    #[test]
    fn exclusion_many_threads() {
        exclusion_torture(SimLockKind::Mutex, Platform::Opteron, 16, 10);
    }
}
