//! Simulated `libssmp`: message passing over cache coherence.
//!
//! A channel is one cache line acting as a one-directional, single-writer
//! single-reader buffer: value 0 means empty, anything else is a message
//! (the real `libssmp` uses a flag byte plus a cache-line payload; one
//! simulated line captures the same transfer pattern). A send spins until
//! the buffer drains, then stores the message; a receive spins until a
//! message appears, reads it, and clears the buffer.
//!
//! This reproduces the paper's Section 6.2 cost anatomy: a one-way
//! message costs ~2 cache-line transfers (the receiver's clearing store
//! pulls the line away from the sender; the sender's next store pulls it
//! back), and a round-trip ~4.
//!
//! On the Tilera, [`HwChannel`] instead uses the engine's hardware
//! message actions (iMesh user-level network).
//!
//! Blocking waits (send on a full buffer, receive on an empty one) use
//! [`Cpu::spin_wait`], so a polling endpoint parks on the buffer
//! line's wait-list and the partner's store wakes it — one event per
//! transfer instead of one per poll.

use std::cell::Cell;
use std::rc::Rc;

use ssync_sim::memory::LineId;
use ssync_sim::{Cpu, Sim, WaitCond};

/// Cycles between polls of a not-yet-ready buffer.
const MP_POLL_PAUSE: u64 = 4;

/// A one-directional cache-line channel.
///
/// A `recv` yields the message, which also stays readable through
/// [`SsmpChannel::last_received`].
#[derive(Clone)]
pub struct SsmpChannel {
    line: LineId,
    last: Rc<Cell<u64>>,
}

impl SsmpChannel {
    /// Allocates the buffer line local to the *receiver*'s core, the
    /// placement `libssmp` uses after the Section 5 analysis.
    pub fn new(sim: &mut Sim, receiver_core: usize) -> Self {
        Self {
            line: sim.alloc_line_for_core(receiver_core),
            last: Rc::new(Cell::new(0)),
        }
    }

    /// The buffer's line id (experiment staging).
    pub fn line(&self) -> LineId {
        self.line
    }

    /// The payload delivered by the most recently completed `recv`.
    pub fn last_received(&self) -> u64 {
        self.last.get()
    }

    /// Sends `payload` (must be non-zero: 0 encodes "empty") once the
    /// buffer has drained.
    pub async fn send(&self, cpu: &Cpu, payload: u64) {
        assert_ne!(payload, 0, "payload 0 is the empty marker");
        self.drained(cpu).await;
        cpu.store(self.line, payload).await;
    }

    /// Sends the current simulated time (+1) as payload, stamped at the
    /// moment the buffer store is issued — i.e. *after* any wait for the
    /// buffer to drain. The latency benchmarks use this so that one-way
    /// latency measures the transfer, not the sender's queueing.
    pub async fn send_stamped(&self, cpu: &Cpu) {
        self.drained(cpu).await;
        cpu.store(self.line, cpu.now() + 1).await;
    }

    async fn drained(&self, cpu: &Cpu) {
        cpu.spin_wait(self.line, WaitCond::Eq(0), MP_POLL_PAUSE)
            .await;
    }

    /// Waits for a message, then drains the buffer for the next one.
    pub async fn recv(&self, cpu: &Cpu) -> u64 {
        let v = cpu
            .spin_wait(self.line, WaitCond::Ne(0), MP_POLL_PAUSE)
            .await;
        self.last.set(v);
        cpu.store(self.line, 0).await;
        v
    }

    /// Non-blocking probe + receive: `None` (and `last_received() = 0`)
    /// if no message is waiting (used by servers polling many clients).
    pub async fn try_recv(&self, cpu: &Cpu) -> Option<u64> {
        let v = cpu.load(self.line).await;
        self.last.set(v);
        if v == 0 {
            return None;
        }
        cpu.store(self.line, 0).await;
        Some(v)
    }
}

/// A hardware message channel (Tilera iMesh): a thin wrapper over the
/// engine's `HwSend`/`HwRecv` actions with the same interface as
/// [`SsmpChannel`].
#[derive(Clone)]
pub struct HwChannel {
    /// Receiving thread id.
    pub to: usize,
    last: Rc<Cell<u64>>,
}

impl HwChannel {
    /// Creates a channel addressed to thread `to`.
    pub fn new(to: usize) -> Self {
        Self {
            to,
            last: Rc::new(Cell::new(0)),
        }
    }

    /// The payload delivered by the most recently completed `recv`.
    pub fn last_received(&self) -> u64 {
        self.last.get()
    }

    /// Sends `payload` to the channel's receiver thread.
    pub async fn send(&self, cpu: &Cpu, payload: u64) {
        cpu.hw_send(self.to, payload).await;
    }

    /// Receives the next hardware message addressed to the *calling*
    /// thread (the engine queues per thread id).
    pub async fn recv(&self, cpu: &Cpu) -> u64 {
        let v = cpu.hw_recv().await;
        self.last.set(v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssync_core::Platform;

    #[test]
    fn ssmp_one_way_delivers() {
        let mut sim = Sim::new(Platform::Xeon, 3);
        let ch = SsmpChannel::new(&mut sim, 1);
        let (tx, rx) = (ch.clone(), ch.clone());
        sim.spawn_on_core(0, move |cpu| async move { tx.send(&cpu, 42).await });
        sim.spawn_on_core(1, move |cpu| async move {
            rx.recv(&cpu).await;
        });
        sim.run_to_completion();
        assert_eq!(ch.last_received(), 42);
        // Buffer drained.
        assert_eq!(sim.memory().line(ch.line()).value, 0);
    }

    #[test]
    fn ssmp_try_recv_empty_and_full() {
        let probe = |sim: &mut Sim, ch: &SsmpChannel| {
            let ch = ch.clone();
            sim.spawn_on_core(0, move |cpu| async move {
                ch.try_recv(&cpu).await;
            });
            sim.run_to_completion();
        };
        let mut sim = Sim::new(Platform::Opteron, 3);
        let ch = SsmpChannel::new(&mut sim, 0);
        probe(&mut sim, &ch);
        assert_eq!(ch.last_received(), 0);
        let mut sim = Sim::new(Platform::Opteron, 3);
        let ch = SsmpChannel::new(&mut sim, 0);
        sim.memory_mut().line_mut(ch.line()).value = 9;
        probe(&mut sim, &ch);
        assert_eq!(ch.last_received(), 9);
    }

    #[test]
    fn ssmp_send_blocks_until_drained() {
        // Receiver starts late; sender must wait for its first message to
        // drain before sending the second.
        let mut sim = Sim::new(Platform::Niagara, 3);
        let ch = SsmpChannel::new(&mut sim, 8);
        let (tx, rx) = (ch.clone(), ch.clone());
        sim.spawn_on_core(0, move |cpu| async move {
            for sent in 1..=2 {
                tx.send(&cpu, sent).await;
            }
        });
        sim.spawn_on_core(8, move |cpu| async move {
            for _ in 0..2 {
                rx.recv(&cpu).await;
            }
        });
        sim.run_to_completion();
        // Both messages got through in order (1 then 2): the channel is
        // FIFO because the sender cannot overwrite an undrained buffer.
        assert_eq!(ch.last_received(), 2);
    }

    #[test]
    fn hw_channel_roundtrip_on_tilera() {
        let mut sim = Sim::new(Platform::Tilera, 3);
        let to_server = HwChannel::new(1);
        let to_client = HwChannel::new(0);
        let (ts, tc) = (to_server.clone(), to_client.clone());
        sim.spawn_on_core(0, move |cpu| async move {
            ts.send(&cpu, 5).await;
            tc.recv(&cpu).await;
        });
        let (ts2, tc2) = (to_server.clone(), to_client.clone());
        sim.spawn_on_core(35, move |cpu| async move {
            let request = ts2.recv(&cpu).await;
            tc2.send(&cpu, request + 1).await;
        });
        sim.run_to_completion();
        assert_eq!(to_client.last_received(), 6);
    }
}
