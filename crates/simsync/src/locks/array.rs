//! Simulated Anderson array lock.
//!
//! Each ticket maps to a slot line; a waiter spins (reads) on its own
//! slot, so the only cross-core traffic per handoff is the releasing
//! store on the successor's slot line.

use std::cell::RefCell;

use ssync_sim::memory::LineId;
use ssync_sim::{Cpu, Sim, WaitCond};

use super::{LockConfig, POLL_PAUSE};

/// Simulated array lock: a tail counter line plus one line per slot.
pub struct SimArray {
    tail: LineId,
    slots: Vec<LineId>,
    /// Ticket held by each thread.
    tickets: RefCell<Vec<u64>>,
}

impl SimArray {
    /// Allocates `n_threads + 1` slot lines (so the array never wraps
    /// onto an active waiter) plus the tail counter.
    pub fn new(sim: &mut Sim, cfg: &LockConfig) -> Self {
        let capacity = cfg.n_threads + 1;
        let tail = sim.alloc_line_for_core(cfg.home_core);
        let slots: Vec<LineId> = (0..capacity)
            .map(|_| sim.alloc_line_for_core(cfg.home_core))
            .collect();
        // Slot 0 starts runnable.
        sim.memory_mut().line_mut(slots[0]).value = 1;
        Self {
            tail,
            slots,
            tickets: RefCell::new(vec![0; cfg.n_threads]),
        }
    }

    fn slot(&self, ticket: u64) -> LineId {
        self.slots[ticket as usize % self.slots.len()]
    }

    /// Takes a ticket, waits for its slot to turn runnable, and re-arms
    /// the slot for its next ticket.
    pub async fn acquire(&self, cpu: &Cpu) {
        let ticket = cpu.fai(self.tail).await;
        self.tickets.borrow_mut()[cpu.tid()] = ticket;
        let slot = self.slot(ticket);
        cpu.spin_wait(slot, WaitCond::Eq(1), POLL_PAUSE).await;
        cpu.store(slot, 0).await;
    }

    /// Makes the next ticket's slot runnable.
    pub async fn release(&self, cpu: &Cpu) {
        let ticket = self.tickets.borrow()[cpu.tid()];
        cpu.store(self.slot(ticket + 1), 1).await;
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
            exclusion_torture(SimLockKind::Array, p, 4, 50);
        }
    }

    #[test]
    fn exclusion_many_threads() {
        exclusion_torture(SimLockKind::Array, Platform::Tilera, 18, 12);
    }
}
