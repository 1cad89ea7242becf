//! The simulated-thread execution interface.
//!
//! A simulated thread is one future: an `async` body that awaits its
//! [`Cpu`]'s operations — `cpu.load(line)`, `cpu.fai(line)`,
//! `cpu.spin_wait(line, cond, pause)`, `cpu.pause(cycles)` — in program
//! order. Each operation hands the engine one [`Action`] and suspends;
//! the engine charges the action's latency, updates the memory system,
//! and polls the thread again at the completion time, when the awaited
//! operation yields its result. Everything the SSYNC stack does —
//! spinning on a flag, taking a ticket, enqueuing on an MCS queue,
//! exchanging a message — decomposes into these actions.

use std::cell::{Cell, RefCell, RefMut};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use rand::rngs::SmallRng;

use crate::memory::LineId;

/// The kind of a memory operation, used by the latency model and the
/// protocol transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOpKind {
    /// Plain load.
    Load,
    /// Plain store.
    Store,
    /// Compare-and-swap.
    Cas,
    /// Fetch-and-increment.
    Fai,
    /// Test-and-set.
    Tas,
    /// Atomic swap (exchange).
    Swap,
    /// x86 `prefetchw`: acquire the line in Modified state without a
    /// data operation (the Section 5.3 optimization).
    Prefetchw,
    /// Evict the line from all caches, writing back (used to stage the
    /// "Invalid" rows of Table 2).
    Flush,
}

impl MemOpKind {
    /// True for operations that install the requester as Modified owner.
    pub fn is_write_class(self) -> bool {
        !matches!(self, MemOpKind::Load | MemOpKind::Flush)
    }
}

/// The predicate a [`Action::SpinWait`] waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaitCond {
    /// Wait until the line's value equals the operand.
    Eq(u64),
    /// Wait until the line's value differs from the operand.
    Ne(u64),
}

impl WaitCond {
    /// True if `value` satisfies the condition.
    pub fn satisfied(self, value: u64) -> bool {
        match self {
            WaitCond::Eq(x) => value == x,
            WaitCond::Ne(x) => value != x,
        }
    }
}

/// One operation of a simulated thread, as the engine executes it; the
/// [`Cpu`] method of the same name documents each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// [`Cpu::load`].
    Load(LineId),
    /// [`Cpu::store`].
    Store(LineId, u64),
    /// [`Cpu::cas`]: line, expected value, new value.
    Cas(LineId, u64, u64),
    /// [`Cpu::fai`].
    Fai(LineId),
    /// [`Cpu::tas`].
    Tas(LineId),
    /// [`Cpu::swap`].
    Swap(LineId, u64),
    /// [`Cpu::prefetchw`].
    Prefetchw(LineId),
    /// [`Cpu::pause`].
    Pause(u64),
    /// [`Cpu::spin_wait`].
    SpinWait {
        /// The line to poll.
        line: LineId,
        /// Resume when the line's value satisfies this.
        cond: WaitCond,
        /// Local-work cycles between polls.
        pause: u64,
    },
    /// [`Cpu::park`].
    Park,
    /// [`Cpu::unpark`].
    Unpark(usize),
    /// [`Cpu::hw_send`].
    HwSend {
        /// Receiving thread id.
        to: usize,
        /// Payload word.
        payload: u64,
    },
    /// [`Cpu::hw_recv`].
    HwRecv,
}

/// What one thread and the engine share: the action in flight, its
/// result, and the thread's clock, counters and randomness.
pub(crate) struct Port {
    pub(crate) tid: usize,
    pub(crate) now: Cell<u64>,
    pub(crate) action: Cell<Option<Action>>,
    pub(crate) result: Cell<Option<u64>>,
    pub(crate) ops: Cell<u64>,
    pub(crate) samples: RefCell<Vec<u64>>,
    pub(crate) rng: RefCell<SmallRng>,
}

/// A simulated thread's handle on its core: the operations it awaits,
/// and its clock, randomness and counters between them.
pub struct Cpu(pub(crate) Rc<Port>);

impl Cpu {
    /// This thread's id (spawn order).
    pub fn tid(&self) -> usize {
        self.0.tid
    }

    /// Current simulated time (cycles).
    pub fn now(&self) -> u64 {
        self.0.now.get()
    }

    /// Deterministic per-thread randomness. Do not hold it across an
    /// `.await`.
    pub fn rng(&self) -> RefMut<'_, SmallRng> {
        self.0.rng.borrow_mut()
    }

    /// Records the completion of one application-level operation (a full
    /// lock acquire/release, one hash-table lookup, ...). The benchmark
    /// harnesses compute throughput from these counters.
    pub fn complete_op(&self) {
        self.0.ops.set(self.0.ops.get() + 1);
    }

    /// Records a latency sample (cycles); used by the latency-oriented
    /// experiments (Figures 3, 6, 9 and Table 2).
    pub fn record_sample(&self, cycles: u64) {
        self.0.samples.borrow_mut().push(cycles);
    }

    /// Performs any action; resolves with its value (`None` for actions
    /// that yield none).
    pub fn act(&self, action: Action) -> Act<'_> {
        Act {
            port: &self.0,
            action: Some(action),
        }
    }

    async fn value(&self, action: Action) -> u64 {
        self.act(action).await.expect("the action yields a value")
    }

    /// Loads the line's value.
    pub async fn load(&self, line: LineId) -> u64 {
        self.value(Action::Load(line)).await
    }

    /// Stores `value` to the line.
    pub async fn store(&self, line: LineId, value: u64) {
        self.act(Action::Store(line, value)).await;
    }

    /// Compare-and-swap: if the value equals `expected`, replaces it with
    /// `new`. Yields the *old* value (success iff old == `expected`).
    pub async fn cas(&self, line: LineId, expected: u64, new: u64) -> u64 {
        self.value(Action::Cas(line, expected, new)).await
    }

    /// Fetch-and-increment; yields the old value.
    pub async fn fai(&self, line: LineId) -> u64 {
        self.value(Action::Fai(line)).await
    }

    /// Test-and-set: sets the value to 1; yields the old value (0 means
    /// the TAS "won").
    pub async fn tas(&self, line: LineId) -> u64 {
        self.value(Action::Tas(line)).await
    }

    /// Swaps in `value`; yields the old value.
    pub async fn swap(&self, line: LineId, value: u64) -> u64 {
        self.value(Action::Swap(line, value)).await
    }

    /// x86 `prefetchw`: takes the line in Modified state without changing
    /// its value (the Section 5.3 optimization).
    pub async fn prefetchw(&self, line: LineId) {
        self.act(Action::Prefetchw(line)).await;
    }

    /// Local computation for `cycles` (scaled by the hardware-thread
    /// sharing factor on Niagara).
    pub async fn pause(&self, cycles: u64) {
        self.act(Action::Pause(cycles)).await;
    }

    /// Spins on `line` until its value satisfies `cond`, with `pause`
    /// cycles of local work (as [`Cpu::pause`]) between re-reads; yields
    /// the first polled value that satisfied it. Semantically identical
    /// to the explicit load / check / pause loop — the first load is
    /// issued immediately, polls of an unchanged cached line cost
    /// local-hit latency, and the poll that observes a writer's
    /// invalidation pays the full coherence miss — but the engine parks
    /// the thread on the line's wait-list instead of scheduling one event
    /// per poll, and a write wakes it at the first poll boundary at or
    /// after the write.
    pub async fn spin_wait(&self, line: LineId, cond: WaitCond, pause: u64) -> u64 {
        self.value(Action::SpinWait { line, cond, pause }).await
    }

    /// Suspends until another thread unparks this one. Like
    /// `std::thread::park`, a pending unpark "permit" makes it return
    /// immediately. Models the futex sleep of a Pthread mutex; the engine
    /// charges the suspend/wake costs.
    pub async fn park(&self) {
        self.act(Action::Park).await;
    }

    /// Wakes thread `tid`, granting a permit if it is not parked.
    pub async fn unpark(&self, tid: usize) {
        self.act(Action::Unpark(tid)).await;
    }

    /// Hardware message passing (Tilera iMesh): enqueues a word for
    /// thread `to`. Delivery latency depends on mesh distance.
    pub async fn hw_send(&self, to: usize, payload: u64) {
        self.act(Action::HwSend { to, payload }).await;
    }

    /// Receives this thread's next hardware message, waiting for one.
    pub async fn hw_recv(&self) -> u64 {
        self.value(Action::HwRecv).await
    }
}

/// The future of one [`Action`]: its first poll hands the action to the
/// engine, and the next (the engine's, at the completion time) yields
/// the result.
pub struct Act<'a> {
    port: &'a Port,
    action: Option<Action>,
}

impl Future for Act<'_> {
    type Output = Option<u64>;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Option<u64>> {
        match self.action.take() {
            Some(action) => {
                let idle = self.port.action.replace(Some(action)).is_none();
                debug_assert!(idle, "a simulated thread awaits one action at a time");
                Poll::Pending
            }
            None => Poll::Ready(self.port.result.take()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_class_covers_rmw_and_stores() {
        assert!(MemOpKind::Store.is_write_class());
        assert!(MemOpKind::Cas.is_write_class());
        assert!(MemOpKind::Prefetchw.is_write_class());
        assert!(!MemOpKind::Load.is_write_class());
        assert!(!MemOpKind::Flush.is_write_class());
    }
}
