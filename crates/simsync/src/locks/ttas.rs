//! Simulated test-and-test-and-set lock with exponential back-off.
//!
//! The read-only spin phase keeps the flag line Shared among waiters (a
//! cached poll is an L1 hit in the model); only an observed-free flag
//! triggers the atomic swap, and failed swaps back off exponentially.
//! The spin phase is a single [`Cpu::spin_wait`]: the engine parks the
//! waiter on the flag line's wait-list and wakes it at the poll boundary
//! that observes the release, instead of simulating every poll.

use ssync_sim::memory::LineId;
use ssync_sim::{Cpu, Sim, WaitCond};

use super::{LockConfig, POLL_PAUSE};

/// Maximum exponential back-off pause, in cycles.
const MAX_BACKOFF: u64 = 4_096;

/// Simulated TTAS lock: one flag line.
pub struct SimTtas {
    line: LineId,
}

impl SimTtas {
    /// Allocates the lock's flag line on the config's home node.
    pub fn new(sim: &mut Sim, cfg: &LockConfig) -> Self {
        Self {
            line: sim.alloc_line_for_core(cfg.home_core),
        }
    }

    /// Waits for the flag to read free, then tries the swap; a lost race
    /// backs off exponentially before re-reading.
    pub async fn acquire(&self, cpu: &Cpu) {
        let mut backoff = 32;
        loop {
            cpu.spin_wait(self.line, WaitCond::Eq(0), POLL_PAUSE).await;
            if cpu.tas(self.line).await == 0 {
                return;
            }
            cpu.pause(backoff).await;
            backoff = (backoff * 2).min(MAX_BACKOFF);
        }
    }

    /// Clears the flag.
    pub async fn release(&self, cpu: &Cpu) {
        cpu.store(self.line, 0).await;
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
            exclusion_torture(SimLockKind::Ttas, p, 4, 50);
        }
    }

    #[test]
    fn exclusion_many_threads() {
        exclusion_torture(SimLockKind::Ttas, Platform::Xeon, 16, 15);
    }
}
