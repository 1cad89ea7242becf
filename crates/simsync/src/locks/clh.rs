//! Simulated CLH queue lock.
//!
//! The queue is implicit: the tail line holds the line-id of the last
//! waiter's node, and each waiter spins on its *predecessor's* node.
//! Nodes recycle exactly as in the real algorithm — after release, the
//! thread adopts its predecessor's node for the next acquisition.

use std::cell::RefCell;

use ssync_sim::memory::LineId;
use ssync_sim::{Cpu, Sim, WaitCond};

use super::cohort::CohortLevel;
use super::{LockConfig, POLL_PAUSE};

/// Simulated CLH lock.
pub struct SimClh {
    tail: LineId,
    /// Each thread's current node line and, while holding the lock, the
    /// predecessor node it will adopt.
    node: RefCell<Vec<LineId>>,
    pred: RefCell<Vec<LineId>>,
}

impl SimClh {
    /// Allocates one dummy node plus one node line per thread (node lines
    /// local to their thread's core).
    pub fn new(sim: &mut Sim, cfg: &LockConfig) -> Self {
        let dummy = sim.alloc_line_for_core(cfg.home_core);
        // Dummy starts unlocked (0).
        let tail = sim.alloc_line_for_core(cfg.home_core);
        sim.memory_mut().line_mut(tail).value = dummy;
        let node: Vec<LineId> = (0..cfg.n_threads)
            .map(|t| sim.alloc_line_for_core(cfg.thread_cores[t]))
            .collect();
        Self {
            tail,
            node: RefCell::new(node),
            pred: RefCell::new(vec![0; cfg.n_threads]),
        }
    }
}

impl CohortLevel for SimClh {
    /// Marks our node locked, swings the tail to it, and waits on the
    /// predecessor's node.
    async fn acquire(&self, cpu: &Cpu, tid: usize) {
        let node = self.node.borrow()[tid];
        cpu.store(node, 1).await;
        let pred = cpu.swap(self.tail, node).await;
        self.pred.borrow_mut()[tid] = pred;
        cpu.spin_wait(pred, WaitCond::Eq(0), POLL_PAUSE).await;
    }

    /// Unlocks our node and adopts the predecessor's for the next
    /// acquisition.
    async fn release(&self, cpu: &Cpu, tid: usize) {
        let pred = self.pred.borrow()[tid];
        let node = std::mem::replace(&mut self.node.borrow_mut()[tid], pred);
        cpu.store(node, 0).await;
    }

    fn no_waiter_sentinel(&self, tid: usize) -> (LineId, u64) {
        // No waiter iff the tail still points at our own node.
        (self.tail, self.node.borrow()[tid])
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
            exclusion_torture(SimLockKind::Clh, p, 4, 50);
        }
    }

    #[test]
    fn exclusion_many_threads() {
        exclusion_torture(SimLockKind::Clh, Platform::Niagara, 24, 10);
    }
}
