//! Simulated ticket lock: the Figure 3 ablation in one module.
//!
//! Three spin-policy variants, exactly the three curves of Figure 3:
//!
//! * [`TicketMode::NoBackoff`] — waiters re-read `current` continuously.
//!   Every release (a store on a line shared by all waiters) pays the
//!   full invalidation, and the flood of re-loads keeps the directory
//!   busy: latency explodes with the thread count on the Opteron.
//! * [`TicketMode::Proportional`] — a waiter `k` tickets from the head
//!   pauses `k * SLOT` cycles between polls (Section 5.3).
//! * [`TicketMode::Prefetchw`] — additionally issues `prefetchw` before
//!   each poll, keeping the line Modified at the polling waiter so the
//!   releasing store avoids the Opteron's owned/shared-state broadcast.
//!
//! The two counters live on separate simulated lines (the model tracks
//! one value per line); the real `libslock` packs them in one line, a
//! difference noted in DESIGN.md that does not affect the handoff path.

use std::cell::RefCell;

use ssync_sim::memory::LineId;
use ssync_sim::{Cpu, Sim, WaitCond};

use super::cohort::CohortLevel;
use super::{LockConfig, SimLockKind, POLL_PAUSE};

/// Cycles per queue position for proportional back-off, sized to the
/// platform's contended handoff cost. `libslock` ships platform-specific
/// back-off tuning for exactly this reason: a multi-socket handoff costs
/// on the order of a cross-socket line transfer plus queue effects
/// (~1000 cycles), while the uniform Niagara and the Tilera hand off in
/// tens of cycles — a waiter sleeping a multi-socket slot there wakes up
/// long after its turn.
fn slot_for(platform: ssync_core::Platform) -> u64 {
    use ssync_core::Platform;
    match platform {
        Platform::Opteron | Platform::Opteron2 | Platform::Xeon | Platform::Xeon2 => 1_000,
        Platform::Niagara => 120,
        Platform::Tilera => 220,
    }
}

/// Spin policy of the simulated ticket lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TicketMode {
    /// Continuous polling (Figure 3 "non-optimized").
    NoBackoff,
    /// Proportional back-off (Figure 3 "back-off"; the default TICKET).
    Proportional,
    /// Proportional back-off + `prefetchw` (Figure 3 best variant).
    Prefetchw,
}

/// Simulated ticket lock.
pub struct SimTicket {
    next: LineId,
    current: LineId,
    mode: TicketMode,
    /// Per-queue-position back-off pause (see [`slot_for`]).
    slot: u64,
    /// Ticket held by each thread (valid between acquire and release).
    tickets: RefCell<Vec<u64>>,
}

impl SimTicket {
    /// Allocates the two counter lines on the config's home node.
    pub fn new(sim: &mut Sim, cfg: &LockConfig, mode: TicketMode) -> Self {
        Self {
            slot: slot_for(sim.topology().platform()),
            next: sim.alloc_line_for_core(cfg.home_core),
            current: sim.alloc_line_for_core(cfg.home_core),
            mode,
            tickets: RefCell::new(vec![0; cfg.n_threads]),
        }
    }

    /// Which of the three ticket variants this is.
    pub fn kind(&self) -> SimLockKind {
        match self.mode {
            TicketMode::NoBackoff => SimLockKind::TicketNoBackoff,
            TicketMode::Proportional => SimLockKind::Ticket,
            TicketMode::Prefetchw => SimLockKind::TicketPrefetchw,
        }
    }

    /// The pause of the waiter holding `ticket` while `current` is
    /// served: one slot per queued position.
    fn backoff(&self, ticket: u64, current: u64) -> u64 {
        (ticket.saturating_sub(current) * self.slot).max(POLL_PAUSE)
    }
}

impl CohortLevel for SimTicket {
    /// Draws a ticket, then waits for `current` to reach it.
    async fn acquire(&self, cpu: &Cpu, tid: usize) {
        let ticket = cpu.fai(self.next).await;
        self.tickets.borrow_mut()[tid] = ticket;
        match self.mode {
            // Continuous polling: a fixed-pause wait the engine re-arms
            // internally until our ticket comes up.
            TicketMode::NoBackoff => {
                cpu.spin_wait(self.current, WaitCond::Eq(ticket), POLL_PAUSE)
                    .await;
            }
            // Read once to learn the queue distance, then sleep in
            // proportion to it until `current` changes, and re-evaluate
            // (the pause shrinks as the queue drains).
            TicketMode::Proportional => {
                let mut current = cpu.load(self.current).await;
                while current != ticket {
                    let pause = self.backoff(ticket, current);
                    current = cpu
                        .spin_wait(self.current, WaitCond::Ne(current), pause)
                        .await;
                }
            }
            // Prefetch before every read, keeping the line Modified at
            // the poller; the prefetch is a write-class action each
            // poll, so this mode keeps its explicit loop.
            TicketMode::Prefetchw => loop {
                cpu.prefetchw(self.current).await;
                let current = cpu.load(self.current).await;
                if current == ticket {
                    return;
                }
                cpu.pause(self.backoff(ticket, current)).await;
            },
        }
    }

    /// Serves the next ticket.
    async fn release(&self, cpu: &Cpu, tid: usize) {
        let ticket = self.tickets.borrow()[tid];
        cpu.store(self.current, ticket + 1).await;
    }

    fn no_waiter_sentinel(&self, tid: usize) -> (LineId, u64) {
        // No waiter iff `next` has only advanced past our own ticket.
        (self.next, self.tickets.borrow()[tid] + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::exclusion_torture;
    use super::super::SimLockKind;
    use ssync_core::Platform;

    #[test]
    fn exclusion_all_modes_all_platforms() {
        for kind in [
            SimLockKind::Ticket,
            SimLockKind::TicketNoBackoff,
            SimLockKind::TicketPrefetchw,
        ] {
            for p in Platform::ALL {
                exclusion_torture(kind, p, 4, 40);
            }
        }
    }

    #[test]
    fn exclusion_many_threads() {
        exclusion_torture(SimLockKind::Ticket, Platform::Opteron, 24, 10);
    }
}
