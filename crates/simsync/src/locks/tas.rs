//! Simulated test-and-set lock.
//!
//! Acquire is a bare atomic TAS retried until it returns 0; every retry
//! is a write-class operation that rips the line out of the previous
//! spinner's cache — the coherence storm the paper's Figure 5 shows
//! collapsing on the multi-sockets.

use ssync_sim::memory::LineId;
use ssync_sim::{Cpu, Sim};

use super::{LockConfig, POLL_PAUSE};

/// Simulated TAS lock: one flag line.
pub struct SimTas {
    line: LineId,
}

impl SimTas {
    /// Allocates the lock's flag line on the config's home node.
    pub fn new(sim: &mut Sim, cfg: &LockConfig) -> Self {
        Self {
            line: sim.alloc_line_for_core(cfg.home_core),
        }
    }

    /// The flag line (tests / staging).
    pub fn line(&self) -> LineId {
        self.line
    }

    /// TAS until it returns 0, with a brief pause between tries (plain
    /// TAS has no back-off: it hammers the line).
    pub async fn acquire(&self, cpu: &Cpu) {
        while cpu.tas(self.line).await != 0 {
            cpu.pause(POLL_PAUSE).await;
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
            exclusion_torture(SimLockKind::Tas, p, 4, 50);
        }
    }

    #[test]
    fn exclusion_many_threads() {
        exclusion_torture(SimLockKind::Tas, Platform::Opteron, 12, 20);
    }
}
