//! Anderson array-based queue lock.
//!
//! Each waiter spins on its own slot of a fixed array (one cache line per
//! slot), and release sets the *next* slot's flag, handing the lock over
//! with a single line transfer (Herlihy & Shavit \[20\], §7.5). The array
//! bounds the number of simultaneous waiters, which is why the paper
//! classifies ARRAY with the simple locks: queue behaviour, but a static,
//! per-lock memory footprint of `capacity` cache lines.

use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use ssync_core::CachePadded;

use crate::raw::RawLock;

/// Default number of waiter slots (enough for the largest platform of the
/// study, the 80-core Xeon, with headroom).
pub const DEFAULT_CAPACITY: usize = 128;

/// Anderson array lock.
///
/// # Examples
///
/// ```
/// use ssync_locks::{ArrayLock, RawLock};
///
/// let lock = ArrayLock::with_capacity(8);
/// let t = lock.lock();
/// lock.unlock(t);
/// ```
#[derive(Debug)]
pub struct ArrayLock {
    /// `slots[i]` is true when the owner of ticket `i % capacity` may run.
    slots: Box<[CachePadded<AtomicBool>]>,
    /// Monotonically increasing ticket counter.
    tail: AtomicU64,
}

impl ArrayLock {
    /// Creates a lock able to queue up to `capacity` threads at once.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "ArrayLock capacity must be non-zero");
        let mut slots = Vec::with_capacity(capacity);
        // Slot 0 starts "runnable": the first ticket acquires immediately.
        slots.push(CachePadded::new(AtomicBool::new(true)));
        for _ in 1..capacity {
            slots.push(CachePadded::new(AtomicBool::new(false)));
        }
        Self {
            slots: slots.into_boxed_slice(),
            tail: AtomicU64::new(0),
        }
    }

    /// Waiter capacity (exceeding it wraps the array and deadlocks, as in
    /// the original algorithm; callers size it to the thread count).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn slot_of(&self, ticket: u64) -> usize {
        (ticket % self.slots.len() as u64) as usize
    }
}

impl Default for ArrayLock {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl RawLock for ArrayLock {
    /// The ticket (slot index is `ticket % capacity`).
    type Token = u64;

    const NAME: &'static str = "ARRAY";

    fn lock(&self) -> Self::Token {
        let ticket = self.tail.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[self.slot_of(ticket)];
        while !slot.load(Ordering::Acquire) {
            ssync_core::sync::cpu_relax();
        }
        // Re-arm the slot for its next use (capacity tickets later).
        slot.store(false, Ordering::Relaxed);
        ticket
    }

    fn try_lock(&self) -> Option<Self::Token> {
        let ticket = self.tail.load(Ordering::Relaxed);
        let slot = &self.slots[self.slot_of(ticket)];
        if !slot.load(Ordering::Acquire) {
            return None;
        }
        // The head slot is runnable; race to claim that ticket.
        self.tail
            .compare_exchange(ticket, ticket + 1, Ordering::Acquire, Ordering::Relaxed)
            .ok()
            .inspect(|_| slot.store(false, Ordering::Relaxed))
    }

    fn unlock(&self, token: Self::Token) {
        let next = &self.slots[self.slot_of(token + 1)];
        next.store(true, Ordering::Release);
    }

    fn is_locked(&self) -> bool {
        // The lock is free iff the slot for the next ticket is runnable: a
        // runnable head slot means the next locker proceeds immediately.
        let head = self.tail.load(Ordering::Relaxed);
        !self.slots[self.slot_of(head)].load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raw::test_support;
    use std::sync::Arc;

    #[test]
    fn protocol() {
        test_support::protocol_smoke(&ArrayLock::default());
    }

    #[test]
    fn mutual_exclusion_under_threads() {
        test_support::counter_torture(Arc::new(ArrayLock::with_capacity(8)), 4, 3_000);
    }

    #[test]
    fn slots_wrap_around() {
        let lock = ArrayLock::with_capacity(2);
        for _ in 0..10 {
            let t = lock.lock();
            lock.unlock(t);
        }
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        ArrayLock::with_capacity(0);
    }
}
