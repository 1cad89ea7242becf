//! The discrete-event engine.
//!
//! [`Sim`] owns the memory system, the latency model, and a set of
//! simulated threads. A thread is one future, boxed once at spawn; the
//! engine repeatedly pops the earliest-ready thread from an event queue,
//! polls it (with [`Waker::noop`]) until it awaits its next [`Action`],
//! charges the action's cost, applies its semantics (value change +
//! coherence transition for memory operations), and re-schedules the
//! thread at the completion time.
//!
//! Conflicting operations on one cache line serialize through the line's
//! `busy_until` timestamp — the simulator's stand-in for the directory /
//! bus arbitration that makes contended synchronization collapse on the
//! paper's multi-sockets.
//!
//! The engine is single-threaded and fully deterministic: ties in the
//! event queue break by insertion order, and all randomness comes from
//! per-thread `SmallRng`s seeded from the `Sim` seed.

use std::cell::{Cell, Ref, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Waker};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use ssync_core::topology::{Platform, Topology};

use crate::latency::LatencyModel;
use crate::memory::{CohState, LineId, Memory};
use crate::program::{Action, Cpu, MemOpKind, Port, WaitCond};
use crate::protocol;
use crate::stats::SimStats;

/// Hardware-message inbox capacity per thread: the engine models the
/// Tilera iMesh's bounded user-level queues, so senders stall when a
/// receiver falls behind (the backpressure that bounds Figure 10's
/// one-way throughput at the server's drain rate).
const HW_INBOX_CAPACITY: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadState {
    /// Scheduled in the event queue.
    Ready,
    /// Waiting for a hardware message.
    RecvWait,
    /// Stalled sending a hardware message to a full inbox.
    SendWait,
    /// Suspended by [`Action::Park`].
    Parked,
    /// Registered on a line's wait-list ([`Action::SpinWait`]); no event
    /// is queued until a write to the line wakes the thread.
    SpinBlocked,
    /// Woken from a wait-list: the queued event is a spin re-poll (a
    /// real load of the spun-on line), not a program step.
    SpinPoll,
    /// Finished: the thread's future returned.
    Done,
}

/// Bookkeeping for a thread parked in [`Action::SpinWait`].
#[derive(Debug, Clone, Copy)]
struct SpinState {
    /// The line being polled.
    line: LineId,
    /// Resume condition on the line's value.
    cond: WaitCond,
    /// Between-poll pause, already scaled by the pipeline factor.
    pause: u64,
    /// Poll period: `pause` plus the cached-load latency (what one
    /// iteration of the equivalent explicit load/check/pause loop takes
    /// while the line stays locally cached).
    period: u64,
    /// Completion time of the unsatisfied poll that blocked the thread;
    /// poll boundaries are `anchor + pause + k * period`.
    anchor: u64,
    /// Elided poll boundaries already credited to the local-hit
    /// statistic (by a window boundary; see `credit_parked_polls`).
    credited: u64,
}

struct Thread {
    body: Pin<Box<dyn Future<Output = ()>>>,
    /// Shared with the thread's [`Cpu`]: the action in flight and its
    /// result, the clock, counters and randomness.
    port: Rc<Port>,
    core: usize,
    state: ThreadState,
    /// Unpark permit (see [`Action::Park`]).
    permit: bool,
    /// Spin-wait bookkeeping while in `SpinBlocked` / `SpinPoll`.
    spin: Option<SpinState>,
    /// Hardware message inbox: (available-at, payload).
    inbox: VecDeque<(u64, u64)>,
    /// Senders stalled on this thread's full inbox: (sender tid, payload).
    send_waiters: VecDeque<(usize, u64)>,
}

/// A simulation of one platform.
///
/// See the crate-level docs for an end-to-end example.
pub struct Sim {
    topo: Topology,
    model: LatencyModel,
    mem: Memory,
    threads: Vec<Thread>,
    /// Min-heap of (ready time, sequence, thread id).
    queue: BinaryHeap<Reverse<(u64, u64, usize)>>,
    seq: u64,
    now: u64,
    seed: u64,
    /// Number of spawned threads per physical core (Niagara hardware
    /// threads share their core's pipeline; `Pause` scales by this).
    core_load: Vec<u32>,
    /// Per-line wait-lists (indexed by line id, grown on demand): the
    /// threads parked in [`Action::SpinWait`] on that line. A write-class
    /// operation (or flush) on the line wakes every entry at its next
    /// poll boundary.
    wait_lists: Vec<Vec<usize>>,
    events: u64,
    stats: SimStats,
}

impl Sim {
    /// Creates a simulation of `platform` with a deterministic seed.
    pub fn new(platform: Platform, seed: u64) -> Self {
        let topo = platform.topology();
        let phys_cores = topo.num_cores();
        Self {
            model: LatencyModel::new(platform),
            mem: Memory::new(),
            threads: Vec::new(),
            queue: BinaryHeap::new(),
            seq: 0,
            now: 0,
            seed,
            core_load: vec![0; phys_cores],
            wait_lists: Vec::new(),
            events: 0,
            stats: SimStats::default(),
            topo,
        }
    }

    /// The simulated platform's topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The latency model in force.
    pub fn model(&self) -> &LatencyModel {
        &self.model
    }

    /// The memory system (read access; use [`Sim::memory_mut`] to stage
    /// experiment-specific line states).
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Mutable memory access for experiment setup.
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Current simulated time in cycles.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Total events processed (diagnostics).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Coherence-traffic counters accumulated so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Allocates a line homed at an explicit node/tile.
    pub fn alloc_line(&mut self, home: usize) -> LineId {
        self.mem.alloc(home)
    }

    /// Allocates a line homed local to `core`: on the core's memory node
    /// (die) on the multi-sockets, node 0 on the Niagara, and the core's
    /// own tile on the Tilera (whose "home" is an L2 slice, not a memory
    /// controller).
    pub fn alloc_line_for_core(&mut self, core: usize) -> LineId {
        let home = match self.topo.platform() {
            Platform::Tilera => core,
            _ => self.topo.mem_node_of(core),
        };
        self.mem.alloc(home)
    }

    /// Spawns a thread on `core`; returns its thread id. `thread` gets
    /// the new thread's [`Cpu`] and returns its body, which first runs at
    /// the current simulated time; the thread finishes when it returns.
    pub fn spawn_on_core<F, T>(&mut self, core: usize, thread: F) -> usize
    where
        F: FnOnce(Cpu) -> T,
        T: Future<Output = ()> + 'static,
    {
        assert!(core < self.topo.num_cores(), "core {core} out of range");
        let tid = self.threads.len();
        let phys = self.topo.physical_core_of(core);
        self.core_load[phys] += 1;
        let port = Rc::new(Port {
            tid,
            now: Cell::new(self.now),
            action: Cell::new(None),
            result: Cell::new(None),
            ops: Cell::new(0),
            samples: RefCell::new(Vec::new()),
            rng: RefCell::new(SmallRng::seed_from_u64(
                self.seed ^ (tid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            )),
        });
        self.threads.push(Thread {
            body: Box::pin(thread(Cpu(Rc::clone(&port)))),
            port,
            core,
            state: ThreadState::Ready,
            permit: false,
            spin: None,
            inbox: VecDeque::new(),
            send_waiters: VecDeque::new(),
        });
        self.schedule(self.now, tid);
        tid
    }

    /// Operations completed by thread `tid` (see [`Cpu::complete_op`]).
    pub fn ops(&self, tid: usize) -> u64 {
        self.threads[tid].port.ops.get()
    }

    /// Sum of completed operations over all threads.
    pub fn total_ops(&self) -> u64 {
        self.threads.iter().map(|t| t.port.ops.get()).sum()
    }

    /// Latency samples recorded by thread `tid`.
    pub fn samples(&self, tid: usize) -> Ref<'_, [u64]> {
        Ref::map(self.threads[tid].port.samples.borrow(), Vec::as_slice)
    }

    /// Runs until the event queue is empty (all threads `Done`, parked
    /// forever, or waiting for messages that never come).
    pub fn run_to_completion(&mut self) {
        self.run_until(u64::MAX);
    }

    /// Processes all events scheduled at or before `limit`. Threads whose
    /// next event lies beyond `limit` stay queued; `now` advances to the
    /// last processed event (at most `limit`).
    pub fn run_until(&mut self, limit: u64) {
        while let Some(&Reverse((t, _, _))) = self.queue.peek() {
            if t > limit {
                break;
            }
            let Reverse((t, _, tid)) = self.queue.pop().expect("peeked");
            self.now = t;
            self.events += 1;
            self.step_thread(tid);
        }
        if limit != u64::MAX {
            self.credit_parked_polls(limit);
        }
    }

    /// Credits the elided polls of still-parked spin-waiters up to a
    /// window boundary, so the local-hit statistic of a `run_until`
    /// measurement matches the explicit-polling engine (which would
    /// have processed those L1-hit poll events inside the window). The
    /// credit is remembered per waiter and subtracted again on wake-up,
    /// so resuming the simulation never double-counts. Skipped for
    /// `run_to_completion` (no boundary; a never-woken waiter has
    /// unbounded phantom polls, where the explicit engine would simply
    /// never terminate).
    fn credit_parked_polls(&mut self, limit: u64) {
        for thread in &mut self.threads {
            if thread.state != ThreadState::SpinBlocked {
                continue;
            }
            let spin = thread.spin.as_mut().expect("blocked thread spins");
            let first = spin.anchor + spin.pause;
            if limit < first {
                continue;
            }
            let in_window = (limit - first) / spin.period + 1;
            if in_window > spin.credited {
                self.stats.local_hits += in_window - spin.credited;
                spin.credited = in_window;
            }
        }
    }

    fn schedule(&mut self, at: u64, tid: usize) {
        self.seq += 1;
        self.queue.push(Reverse((at, self.seq, tid)));
    }

    fn step_thread(&mut self, tid: usize) {
        if self.threads[tid].state == ThreadState::SpinPoll {
            // Woken from a wait-list: this event is the poll that may
            // observe the write, not a program step.
            self.spin_poll(tid);
            return;
        }
        debug_assert_eq!(self.threads[tid].state, ThreadState::Ready);
        let now = self.now;
        let thread = &mut self.threads[tid];
        let core = thread.core;
        thread.port.now.set(now);
        let mut cx = Context::from_waker(Waker::noop());
        if thread.body.as_mut().poll(&mut cx).is_ready() {
            thread.state = ThreadState::Done;
            return;
        }
        let action = thread
            .port
            .action
            .take()
            .expect("a simulated thread awaits only its Cpu's actions");
        // The Load/Store/atomic dispatch the contended experiments spend
        // nearly all their events in; every other action returns early.
        let (op, line, operand, expected) = match action {
            Action::Load(line) => (MemOpKind::Load, line, 0, 0),
            Action::Store(line, v) => (MemOpKind::Store, line, v, 0),
            Action::Cas(line, expected, new) => (MemOpKind::Cas, line, new, expected),
            Action::Fai(line) => (MemOpKind::Fai, line, 0, 0),
            Action::Tas(line) => (MemOpKind::Tas, line, 0, 0),
            Action::Swap(line, v) => (MemOpKind::Swap, line, v, 0),
            Action::Prefetchw(line) => (MemOpKind::Prefetchw, line, 0, 0),
            Action::SpinWait { line, cond, pause } => {
                let factor = u64::from(self.pipeline_factor(core));
                let pause = pause.max(1) * factor;
                let period = pause + self.model.cached_load_latency();
                self.threads[tid].spin = Some(SpinState {
                    line,
                    cond,
                    pause,
                    period,
                    anchor: 0,
                    credited: 0,
                });
                return self.spin_poll(tid);
            }
            Action::Pause(cycles) => {
                let factor = u64::from(self.pipeline_factor(core));
                return self.schedule(now + cycles.max(1) * factor, tid);
            }
            Action::Park => {
                let thread = &mut self.threads[tid];
                if thread.permit {
                    // A wake arrived before the park: consume it.
                    thread.permit = false;
                    self.schedule(now + 1, tid);
                } else {
                    thread.state = ThreadState::Parked;
                    // The suspend cost is paid on the way down; it delays
                    // the earliest possible wake-up, which we implement by
                    // treating `now + park_cost` as the park point. A
                    // wake that arrives in that window is honoured after
                    // it (handled in `Action::Unpark` via max()).
                }
                return;
            }
            Action::Unpark(target) => {
                let wake_at = now + self.model.unpark_cost() + self.model.wake_latency();
                if self.threads[target].state == ThreadState::Parked {
                    self.threads[target].state = ThreadState::Ready;
                    let park_floor = now + self.model.park_cost();
                    self.schedule(wake_at.max(park_floor), target);
                } else {
                    self.threads[target].permit = true;
                }
                return self.schedule(now + self.model.unpark_cost(), tid);
            }
            Action::HwSend { to, payload } => {
                if self.threads[to].inbox.len() >= HW_INBOX_CAPACITY {
                    // Backpressure: stall until the receiver drains.
                    self.threads[to].send_waiters.push_back((tid, payload));
                    self.threads[tid].state = ThreadState::SendWait;
                } else {
                    let hops = self.hw_hops(core, to);
                    let avail = now + self.model.hw_send_cost() + self.model.hw_flight(hops);
                    self.threads[to].inbox.push_back((avail, payload));
                    if self.threads[to].state == ThreadState::RecvWait {
                        self.deliver_message(to);
                    }
                    self.schedule(now + self.model.hw_send_cost(), tid);
                }
                return;
            }
            Action::HwRecv => {
                if self.threads[tid].inbox.is_empty() {
                    self.threads[tid].state = ThreadState::RecvWait;
                } else {
                    self.deliver_message(tid);
                }
                return;
            }
        };
        let (done, result) = self.mem_op(tid, line, op, operand, expected);
        self.threads[tid].port.result.set(result);
        self.schedule(done, tid);
    }

    /// Issues the (initial or wake-up) poll load of a [`Action::SpinWait`].
    ///
    /// The load is a full memory operation — it pays the real coherence
    /// cost and re-registers the thread as a sharer, so writers keep
    /// seeing spinning waiters in the sharer set. The condition is
    /// checked against the value the load observes (at processing time,
    /// like any load): satisfied, the thread resumes with the value at
    /// the load's completion; unsatisfied, the thread parks on the
    /// line's wait-list with poll boundaries anchored at that completion
    /// time. Registering at processing time (not completion) closes the
    /// window in which a write could slip past an in-flight poll and be
    /// lost.
    fn spin_poll(&mut self, tid: usize) {
        let spec = self.threads[tid].spin.expect("spin state set");
        let (done, result) = self.mem_op(tid, spec.line, MemOpKind::Load, 0, 0);
        let value = result.expect("loads produce a value");
        if spec.cond.satisfied(value) {
            let thread = &mut self.threads[tid];
            thread.spin = None;
            thread.state = ThreadState::Ready;
            thread.port.result.set(Some(value));
            self.schedule(done, tid);
        } else {
            let thread = &mut self.threads[tid];
            thread.state = ThreadState::SpinBlocked;
            let spin = thread.spin.as_mut().expect("spin state set");
            spin.anchor = done;
            spin.credited = 0;
            let idx = spec.line as usize;
            if self.wait_lists.len() <= idx {
                self.wait_lists.resize_with(idx + 1, Vec::new);
            }
            self.wait_lists[idx].push(tid);
        }
    }

    /// Wakes every thread wait-listed on `line` after a write at `now`:
    /// each is scheduled for a real poll load at its first poll boundary
    /// at or after the write, and the elided polls before it (loads of
    /// the unchanged, locally cached line) are credited to the local-hit
    /// counter so traffic ratios match the explicit-polling engine.
    ///
    /// Exact-tie semantics: when the write's processing time lands
    /// precisely on a poll boundary, the wake poll (scheduled here,
    /// with a fresh seq) runs after the write and observes it, whereas
    /// an explicit loop's poll event at that timestamp could carry an
    /// older seq and read the pre-write value, re-polling one period
    /// later. The wait-list engine resolves the ambiguous tie as
    /// write-first; this is the one knowingly inexact case of the
    /// explicit-polling equivalence.
    fn wake_waiters(&mut self, line: LineId) {
        let now = self.now;
        let Some(list) = self.wait_lists.get_mut(line as usize) else {
            return;
        };
        if list.is_empty() {
            return;
        }
        let mut wakes: Vec<(u64, Reverse<u64>, usize)> = Vec::new();
        for tid in std::mem::take(list) {
            let spin = self.threads[tid].spin.expect("blocked thread spins");
            let first = spin.anchor + spin.pause;
            let (wake_at, elided) = if now <= first {
                (first, 0)
            } else {
                let k = (now - first).div_ceil(spin.period);
                (first + k * spin.period, k)
            };
            self.stats.local_hits += elided.saturating_sub(spin.credited);
            self.threads[tid].state = ThreadState::SpinPoll;
            wakes.push((wake_at, Reverse(spin.anchor), tid));
        }
        // Waiters whose wake boundaries coincide poll in reverse anchor
        // order: in the explicit-polling engine, a chain that joins an
        // aligned poll group later was scheduled by an older (lower-seq)
        // event, so it drains first at every shared boundary. The stable
        // sort keeps registration order for fully identical chains.
        wakes.sort_by_key(|&(at, anchor, _)| (at, anchor));
        for (wake_at, _, tid) in wakes {
            self.schedule(wake_at, tid);
        }
    }

    /// Pops the receiver's next message and schedules it to resume; a
    /// stalled sender (backpressure) is admitted into the freed slot.
    fn deliver_message(&mut self, tid: usize) {
        let now = self.now;
        let recv_cost = self.model.hw_recv_cost();
        let thread = &mut self.threads[tid];
        let (avail, payload) = thread.inbox.pop_front().expect("inbox non-empty");
        thread.state = ThreadState::Ready;
        thread.port.result.set(Some(payload));
        let resume = avail.max(now) + recv_cost;
        self.schedule(resume, tid);
        if let Some((sender, queued_payload)) = self.threads[tid].send_waiters.pop_front() {
            let hops = self.hw_hops(self.threads[sender].core, tid);
            let at = now + self.model.hw_send_cost() + self.model.hw_flight(hops);
            self.threads[tid].inbox.push_back((at, queued_payload));
            self.threads[sender].state = ThreadState::Ready;
            self.schedule(now + self.model.hw_send_cost(), sender);
        }
    }

    /// Mesh hops for hardware messages between two *threads*' cores
    /// (Tilera's iMesh; other platforms treat hardware channels as
    /// distance-free, which only the Tilera experiments use anyway).
    fn hw_hops(&self, from_core: usize, to_tid: usize) -> u8 {
        let to_core = self.threads[to_tid].core;
        match self.topo.platform() {
            Platform::Tilera => self.model.mesh_hops(from_core, to_core),
            _ => 0,
        }
    }

    /// Pipeline sharing factor: how many threads were spawned on this
    /// physical core (Niagara's 8 hardware threads share one pipeline,
    /// so local computation slows proportionally).
    fn pipeline_factor(&self, core: usize) -> u32 {
        self.core_load[self.model.phys_of(core)].max(1)
    }

    /// Performs one memory operation for `tid` (`operand` is the value a
    /// store, swap or CAS writes; `expected`, a CAS's comparand): charges
    /// the cost, serializes through the line's `busy_until`, applies the
    /// value and coherence-state semantics, and wakes any spin-waiters on
    /// a write.
    /// Returns the completion time and the operation's result value; the
    /// caller decides how to resume the thread.
    fn mem_op(
        &mut self,
        tid: usize,
        line_id: LineId,
        op: MemOpKind,
        operand: u64,
        expected: u64,
    ) -> (u64, Option<u64>) {
        let now = self.now;
        let core = self.threads[tid].core;
        let platform = self.topo.platform();
        let cost = {
            let line = self.mem.line(line_id);
            self.model.cost(line, core, op)
        };
        // Traffic accounting (before the transition mutates the line).
        {
            let line = self.mem.line(line_id);
            if !cost.uses_line {
                self.stats.local_hits += 1;
            } else if let Some(owner) = line.owner.filter(|&o| o != core) {
                // The line moves out of another core's cache.
                self.stats.transfers += 1;
                if self.model.die_of(owner) != self.model.die_of(core) {
                    self.stats.cross_socket_transfers += 1;
                }
            } else {
                self.stats.llc_serves += 1;
            }
            if op.is_write_class() && line.state != CohState::Invalid {
                // Copies destroyed by this write: every sharer plus a
                // remote owner's copy.
                let copies = u64::from(line.sharers.count())
                    + u64::from(line.owner.is_some_and(|o| o != core));
                if copies > 0 {
                    self.stats.invalidations += 1;
                    self.stats.copies_invalidated += copies;
                }
            }
        }
        // A core performing an atomic on a line it already owns wins the
        // arbitration against in-flight remote requests: its retry hits
        // the local cache while remote RFOs are still travelling. This is
        // what keeps CAS-retry loops (CAS-based FAI) from degrading as
        // 1/N on the single-sockets (Figure 4) — and why the paper's
        // stress tests pause after success to prevent "long runs".
        let local_atomic = matches!(
            op,
            MemOpKind::Cas | MemOpKind::Fai | MemOpKind::Tas | MemOpKind::Swap
        ) && self.mem.line(line_id).owner == Some(core);
        let line = self.mem.line_mut(line_id);
        let start = if cost.uses_line && !local_atomic {
            now.max(line.busy_until)
        } else {
            now
        };
        if cost.uses_line {
            line.busy_until = line.busy_until.max(start + cost.occupancy);
        }
        // Value semantics: applied at processing time. Per-line order is
        // consistent because conflicting (write-class) operations
        // serialize via busy_until, and the engine processes events in
        // global time order.
        let old = line.value;
        let result = match op {
            MemOpKind::Load => Some(old),
            MemOpKind::Store => {
                line.value = operand;
                None
            }
            MemOpKind::Cas => {
                if old == expected {
                    line.value = operand;
                }
                Some(old)
            }
            MemOpKind::Fai => {
                line.value = old.wrapping_add(1);
                Some(old)
            }
            MemOpKind::Tas => {
                line.value = 1;
                Some(old)
            }
            MemOpKind::Swap => {
                line.value = operand;
                Some(old)
            }
            MemOpKind::Prefetchw | MemOpKind::Flush => None,
        };
        protocol::apply(platform, line, core, op);
        if op != MemOpKind::Load {
            // Any non-load invalidates remote copies: wake spin-waiters
            // so their next poll (a real miss) observes the change.
            self.wake_waiters(line_id);
        }
        (start + cost.latency, result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Spawns a thread that performs a fixed list of actions, ignoring
    /// results.
    fn scripted(sim: &mut Sim, core: usize, actions: Vec<Action>) -> usize {
        sim.spawn_on_core(core, move |cpu| async move {
            for action in actions {
                cpu.act(action).await;
            }
        })
    }

    #[test]
    fn fai_counts_atomically() {
        let mut sim = Sim::new(Platform::Niagara, 1);
        let line = sim.alloc_line_for_core(0);
        for i in 0..4 {
            scripted(&mut sim, i * 8, vec![Action::Fai(line); 25]);
        }
        sim.run_to_completion();
        assert_eq!(sim.memory().line(line).value, 100);
    }

    #[test]
    fn cas_success_and_failure() {
        let mut sim = Sim::new(Platform::Xeon, 1);
        let line = sim.alloc_line(0);
        let results = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let r2 = results.clone();
        sim.spawn_on_core(0, move |cpu| async move {
            let first = cpu.cas(line, 0, 7).await; // succeeds: 0 -> 7
            let second = cpu.cas(line, 0, 9).await; // fails: value is 7
            r2.borrow_mut().extend([first, second]);
        });
        sim.run_to_completion();
        assert_eq!(*results.borrow(), vec![0, 7]);
        assert_eq!(sim.memory().line(line).value, 7);
    }

    #[test]
    fn contended_writes_serialize() {
        // Two cores hammering one line: total time must be at least the
        // sum of occupancies, not the max.
        let mut sim = Sim::new(Platform::Xeon, 1);
        let line = sim.alloc_line(0);
        let n = 50;
        scripted(&mut sim, 0, vec![Action::Fai(line); n]);
        scripted(&mut sim, 1, vec![Action::Fai(line); n]);
        sim.run_to_completion();
        // Each contended atomic costs >= 20 cycles of occupancy.
        assert!(sim.now() >= (2 * n as u64 - 2) * 20);
        assert_eq!(sim.memory().line(line).value, 2 * n as u64);
    }

    #[test]
    fn local_spinning_does_not_serialize() {
        // A spinner load-hitting its own cached copy advances only its
        // own clock; 1000 cheap loads cost 1000 * L1 latency.
        let mut sim = Sim::new(Platform::Xeon, 1);
        let line = sim.alloc_line(0);
        sim.spawn_on_core(0, move |cpu| async move {
            loop {
                cpu.load(line).await;
            }
        });
        sim.run_until(5_000);
        // First load is a miss; the rest are L1 hits at 5 cycles each.
        assert!(sim.events() > 900, "events: {}", sim.events());
    }

    #[test]
    fn pause_scales_with_niagara_core_sharing() {
        let mut sim = Sim::new(Platform::Niagara, 1);
        // Two hardware threads on physical core 0.
        let t0 = scripted(&mut sim, 0, vec![Action::Pause(100)]);
        let _t1 = scripted(&mut sim, 1, vec![Action::Pause(100)]);
        sim.run_to_completion();
        let _ = t0;
        // Each pause takes 200 cycles (factor 2).
        assert_eq!(sim.now(), 200);
    }

    #[test]
    fn park_unpark_roundtrip() {
        let mut sim = Sim::new(Platform::Opteron, 1);
        let line = sim.alloc_line(0);
        // Thread 0 parks; thread 1 stores then unparks it; thread 0 then
        // stores a flag to prove it resumed.
        scripted(&mut sim, 0, vec![Action::Park, Action::Store(line, 42)]);
        scripted(&mut sim, 6, vec![Action::Pause(10_000), Action::Unpark(0)]);
        sim.run_to_completion();
        assert_eq!(sim.memory().line(line).value, 42);
        // The parked thread resumed only after the unpark + wake latency.
        assert!(sim.now() >= 10_000 + 2_500);
    }

    #[test]
    fn unpark_before_park_grants_permit() {
        let mut sim = Sim::new(Platform::Opteron, 1);
        let line = sim.alloc_line(0);
        scripted(
            &mut sim,
            0,
            vec![
                Action::Pause(5_000),
                Action::Park, // permit already granted: no sleep
                Action::Store(line, 7),
            ],
        );
        scripted(&mut sim, 6, vec![Action::Unpark(0)]);
        sim.run_to_completion();
        assert_eq!(sim.memory().line(line).value, 7);
        // No 2500-cycle wake latency: the permit made Park immediate.
        assert!(sim.now() < 8_000, "now: {}", sim.now());
    }

    #[test]
    fn hardware_messages_deliver_in_order() {
        let mut sim = Sim::new(Platform::Tilera, 1);
        let line = sim.alloc_line(0);
        scripted(
            &mut sim,
            0,
            vec![
                Action::HwSend { to: 1, payload: 11 },
                Action::HwSend { to: 1, payload: 22 },
            ],
        );
        sim.spawn_on_core(35, move |cpu| async move {
            let first = cpu.hw_recv().await;
            let second = cpu.hw_recv().await;
            cpu.store(line, first * 100 + second).await;
        });
        sim.run_to_completion();
        assert_eq!(sim.memory().line(line).value, 1122);
    }

    #[test]
    fn hw_message_latency_tracks_distance() {
        // One-way latency corner to corner vs adjacent (Figure 9's axis).
        for (receiver_core, min_t, max_t) in [(1usize, 50, 75), (35, 55, 85)] {
            let mut sim = Sim::new(Platform::Tilera, 1);
            scripted(&mut sim, 0, vec![Action::HwSend { to: 1, payload: 5 }]);
            scripted(&mut sim, receiver_core, vec![Action::HwRecv]);
            sim.run_to_completion();
            assert!(
                sim.now() >= min_t && sim.now() <= max_t,
                "core {receiver_core}: {} not in [{min_t},{max_t}]",
                sim.now()
            );
        }
    }

    /// Spawns an explicit load / check / pause poll loop, the pattern
    /// [`Action::SpinWait`] replaces: spin until `line == target`, then
    /// store 1 to `flag` and finish.
    fn explicit_spinner(sim: &mut Sim, core: usize, line: LineId, target: u64, flag: LineId) {
        sim.spawn_on_core(core, move |cpu| async move {
            while cpu.load(line).await != target {
                cpu.pause(4).await;
            }
            cpu.store(flag, 1).await;
        });
    }

    /// The same spinner expressed with one `SpinWait` action.
    fn waitlist_spinner(sim: &mut Sim, core: usize, line: LineId, target: u64, flag: LineId) {
        sim.spawn_on_core(core, move |cpu| async move {
            cpu.spin_wait(line, WaitCond::Eq(target), 4).await;
            cpu.store(flag, 1).await;
        });
    }

    /// Spawns either spinner.
    fn spinner(sim: &mut Sim, explicit: bool, core: usize, line: LineId, flag: LineId) {
        if explicit {
            explicit_spinner(sim, core, line, 1, flag);
        } else {
            waitlist_spinner(sim, core, line, 1, flag);
        }
    }

    /// A writer that pauses, then stores `value` to `line`.
    fn delayed_writer(sim: &mut Sim, core: usize, delay: u64, line: LineId, value: u64) {
        scripted(
            sim,
            core,
            vec![Action::Pause(delay), Action::Store(line, value)],
        );
    }

    #[test]
    fn spin_wait_matches_explicit_polling_exactly() {
        // The wait-list path must reproduce the explicit poll loop's
        // timing and traffic cycle-for-cycle: same completion time, same
        // stats (elided local-hit polls are credited on wake). Only the
        // event count may differ — that is the optimization.
        for platform in Platform::ALL {
            let run = |explicit: bool| {
                let mut sim = Sim::new(platform, 42);
                let line = sim.alloc_line(0);
                let flag = sim.alloc_line(0);
                spinner(&mut sim, explicit, 0, line, flag);
                let writer_core = sim.topology().num_cores() - 1;
                delayed_writer(&mut sim, writer_core, 10_000, line, 1);
                sim.run_to_completion();
                (sim.now(), *sim.stats(), sim.events())
            };
            let (t_exp, stats_exp, events_exp) = run(true);
            let (t_wl, stats_wl, events_wl) = run(false);
            assert_eq!(t_wl, t_exp, "{platform:?}: completion time");
            assert_eq!(stats_wl, stats_exp, "{platform:?}: traffic stats");
            assert!(
                events_wl * 10 < events_exp,
                "{platform:?}: wait-list should collapse events ({events_wl} vs {events_exp})"
            );
        }
    }

    #[test]
    fn spin_wait_windowed_stats_match_explicit_polling() {
        // run_until must credit the elided polls of threads still
        // parked at the window boundary, so windowed traffic stats
        // match the explicit engine; resuming afterwards must not
        // double-count them.
        let run = |explicit: bool| {
            let mut sim = Sim::new(Platform::Opteron, 7);
            let line = sim.alloc_line(0);
            let flag = sim.alloc_line(0);
            spinner(&mut sim, explicit, 0, line, flag);
            delayed_writer(&mut sim, 36, 20_000, line, 1);
            // Window ends mid-spin: the waiter is still parked.
            sim.run_until(5_000);
            let mid = *sim.stats();
            sim.run_until(8_000); // second boundary: no double credit
            let mid2 = *sim.stats();
            sim.run_to_completion();
            (mid, mid2, *sim.stats(), sim.now())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn spin_wait_satisfied_immediately_acts_like_load() {
        let mut sim = Sim::new(Platform::Xeon, 1);
        let line = sim.alloc_line(0);
        sim.memory_mut().line_mut(line).value = 7;
        let got = std::rc::Rc::new(std::cell::Cell::new(0));
        let got2 = got.clone();
        sim.spawn_on_core(0, move |cpu| async move {
            got2.set(cpu.spin_wait(line, WaitCond::Ne(0), 4).await);
        });
        sim.run_to_completion();
        assert_eq!(got.get(), 7);
        // One Invalid-state load: 355 cycles on the Xeon.
        assert_eq!(sim.now(), 355);
    }

    #[test]
    fn spin_wait_ne_wakes_on_any_change() {
        let mut sim = Sim::new(Platform::Opteron, 3);
        let line = sim.alloc_line(0);
        let flag = sim.alloc_line(0);
        waitlist_spinner(&mut sim, 0, line, 5, flag);
        // Two writes: the first (to 3) wakes the waiter but fails the
        // Eq(5) condition, re-registering it; the second satisfies it.
        scripted(
            &mut sim,
            12,
            vec![
                Action::Pause(5_000),
                Action::Store(line, 3),
                Action::Pause(5_000),
                Action::Store(line, 5),
            ],
        );
        sim.run_to_completion();
        assert_eq!(sim.memory().line(flag).value, 1);
        assert!(sim.now() >= 10_000);
    }

    #[test]
    fn spin_wait_thundering_herd_serializes_like_polling() {
        // Many waiters on one line: all wake on the release and their
        // poll misses serialize through busy_until, as explicit polls do.
        let run = |explicit: bool| {
            let mut sim = Sim::new(Platform::Opteron, 9);
            let line = sim.alloc_line(0);
            let mut flags = Vec::new();
            for w in 0..8usize {
                let flag = sim.alloc_line(0);
                flags.push(flag);
                spinner(&mut sim, explicit, w * 6, line, flag);
            }
            delayed_writer(&mut sim, 1, 2_000, line, 1);
            sim.run_to_completion();
            (sim.now(), *sim.stats())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn spin_wait_write_racing_in_flight_poll_is_not_lost() {
        // The writer's store lands while the waiter's first poll (a slow
        // Invalid-state miss) is still in flight. Registration happens at
        // poll *processing* time, so the wake is still delivered.
        let mut sim = Sim::new(Platform::Xeon, 1);
        let line = sim.alloc_line(0);
        let flag = sim.alloc_line(0);
        waitlist_spinner(&mut sim, 0, line, 1, flag);
        // First poll processed at t=0 (completes ~355); write at t=50.
        delayed_writer(&mut sim, 79, 50, line, 1);
        sim.run_to_completion();
        assert_eq!(sim.memory().line(flag).value, 1);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut sim = Sim::new(Platform::Opteron, 99);
            let line = sim.alloc_line(0);
            for c in 0..8 {
                scripted(&mut sim, c * 6, vec![Action::Fai(line); 20]);
            }
            sim.run_to_completion();
            (sim.now(), sim.memory().line(line).value, sim.events())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn run_until_stops_at_limit() {
        let mut sim = Sim::new(Platform::Xeon, 1);
        let line = sim.alloc_line(0);
        scripted(&mut sim, 0, vec![Action::Fai(line); 1000]);
        sim.run_until(500);
        assert!(sim.now() <= 500);
        let ops_mid = sim.memory().line(line).value;
        sim.run_to_completion();
        assert!(sim.memory().line(line).value > ops_mid);
    }

    #[test]
    fn complete_op_counts() {
        let mut sim = Sim::new(Platform::Niagara, 1);
        let line = sim.alloc_line(0);
        let tid = sim.spawn_on_core(0, move |cpu| async move {
            for _ in 0..10 {
                cpu.complete_op();
                cpu.fai(line).await;
            }
        });
        sim.run_to_completion();
        assert_eq!(sim.ops(tid), 10);
        assert_eq!(sim.total_ops(), 10);
    }
}
