//! The nine lock algorithms of `libslock` as simulated-thread code.
//!
//! Each algorithm is a type with `async` `acquire` and `release` methods
//! that a workload thread awaits inline, before entering / after leaving
//! its critical section; [`SimLock`] dispatches over them by kind. Locks
//! keep per-thread bookkeeping (tickets, queue nodes) in `RefCell`s
//! indexed by the thread id — the engine is single-threaded and
//! deterministic, so interior mutability is safe and cheap; the
//! *simulated* synchronization happens entirely through the memory-line
//! operations the threads await on their [`Cpu`].
//!
//! Spin loops pace themselves with [`POLL_PAUSE`]-cycle pauses between
//! polls, modelling loop overhead (and keeping simulated spinning from
//! flooding the event queue). A waiter whose line is locally cached polls
//! at L1 cost; the handoff invalidation makes its next poll a real miss,
//! exactly the coherence traffic the paper analyses.

pub mod array;
pub mod clh;
pub mod cohort;
pub mod mcs;
pub mod mutex;
pub mod tas;
pub mod ticket;
pub mod ttas;

use std::rc::Rc;

use ssync_sim::{Cpu, Sim};

use cohort::CohortLevel;

/// Cycles of local work between successive spin polls.
pub const POLL_PAUSE: u64 = 4;

/// The sim lock algorithms, including the Figure 3 ticket variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimLockKind {
    /// Test-and-set.
    Tas,
    /// Test-and-test-and-set with exponential back-off.
    Ttas,
    /// Ticket lock with proportional back-off (the optimized TICKET).
    Ticket,
    /// Ticket lock spinning continuously (Figure 3 baseline).
    TicketNoBackoff,
    /// Ticket lock with proportional back-off **and** `prefetchw` on the
    /// spin loop (Figure 3's best variant; Section 5.3).
    TicketPrefetchw,
    /// Anderson array lock.
    Array,
    /// Blocking mutex (Pthread model: brief spin, then park).
    Mutex,
    /// MCS queue lock.
    Mcs,
    /// CLH queue lock.
    Clh,
    /// Hierarchical CLH (cohort of CLH locks).
    Hclh,
    /// Hierarchical ticket lock (cohort of ticket locks).
    Hticket,
}

impl SimLockKind {
    /// The paper's nine locks, in its figures' order.
    pub const ALL: [SimLockKind; 9] = [
        SimLockKind::Tas,
        SimLockKind::Ttas,
        SimLockKind::Ticket,
        SimLockKind::Array,
        SimLockKind::Mutex,
        SimLockKind::Mcs,
        SimLockKind::Clh,
        SimLockKind::Hclh,
        SimLockKind::Hticket,
    ];

    /// The flat locks used on the single-socket platforms (Section 6.1.2
    /// skips hierarchical locks there).
    pub const FLAT: [SimLockKind; 7] = [
        SimLockKind::Tas,
        SimLockKind::Ttas,
        SimLockKind::Ticket,
        SimLockKind::Array,
        SimLockKind::Mutex,
        SimLockKind::Mcs,
        SimLockKind::Clh,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            SimLockKind::Tas => "TAS",
            SimLockKind::Ttas => "TTAS",
            SimLockKind::Ticket => "TICKET",
            SimLockKind::TicketNoBackoff => "TICKET-NOBO",
            SimLockKind::TicketPrefetchw => "TICKET-PW",
            SimLockKind::Array => "ARRAY",
            SimLockKind::Mutex => "MUTEX",
            SimLockKind::Mcs => "MCS",
            SimLockKind::Clh => "CLH",
            SimLockKind::Hclh => "HCLH",
            SimLockKind::Hticket => "HTICKET",
        }
    }

    /// True for the cluster-aware locks.
    pub fn is_hierarchical(self) -> bool {
        matches!(self, SimLockKind::Hclh | SimLockKind::Hticket)
    }
}

/// Configuration for building a sim lock.
#[derive(Debug, Clone)]
pub struct LockConfig {
    /// Number of participating threads (sizes per-thread queue nodes).
    pub n_threads: usize,
    /// Core whose memory node the lock's lines are allocated from ("the
    /// first participating memory node", Section 6).
    pub home_core: usize,
    /// Core of each participating thread, indexed by thread id — the
    /// hierarchical locks derive each thread's cluster (die) from this.
    pub thread_cores: Vec<usize>,
}

impl LockConfig {
    /// Config for threads placed by the platform's standard placement.
    pub fn for_placement(sim: &Sim, n_threads: usize) -> Self {
        let cores = sim.topology().placement(n_threads);
        Self {
            n_threads,
            home_core: cores[0],
            thread_cores: cores,
        }
    }

    /// The cluster (die) of thread `tid` on the given simulation.
    pub fn cluster_of(&self, sim: &Sim, tid: usize) -> usize {
        sim.topology().die_of(self.thread_cores[tid])
    }
}

/// A lock algorithm running on the simulator. Per-thread state is
/// indexed by the simulated thread id, so a lock's threads are the
/// first `n_threads` spawned.
pub enum SimLock {
    /// Test-and-set.
    Tas(tas::SimTas),
    /// Test-and-test-and-set.
    Ttas(ttas::SimTtas),
    /// Ticket lock, in any of its three spin modes.
    Ticket(ticket::SimTicket),
    /// Anderson array lock.
    Array(array::SimArray),
    /// Blocking mutex.
    Mutex(mutex::SimMutex),
    /// MCS queue lock.
    Mcs(mcs::SimMcs),
    /// CLH queue lock.
    Clh(clh::SimClh),
    /// Hierarchical CLH.
    Hclh(cohort::SimCohort<clh::SimClh>),
    /// Hierarchical ticket lock.
    Hticket(cohort::SimCohort<ticket::SimTicket>),
}

impl SimLock {
    /// Which algorithm this is.
    pub fn kind(&self) -> SimLockKind {
        match self {
            SimLock::Tas(_) => SimLockKind::Tas,
            SimLock::Ttas(_) => SimLockKind::Ttas,
            SimLock::Ticket(l) => l.kind(),
            SimLock::Array(_) => SimLockKind::Array,
            SimLock::Mutex(_) => SimLockKind::Mutex,
            SimLock::Mcs(_) => SimLockKind::Mcs,
            SimLock::Clh(_) => SimLockKind::Clh,
            SimLock::Hclh(_) => SimLockKind::Hclh,
            SimLock::Hticket(_) => SimLockKind::Hticket,
        }
    }

    /// Acquires the lock for the calling thread.
    pub async fn acquire(&self, cpu: &Cpu) {
        match self {
            SimLock::Tas(l) => l.acquire(cpu).await,
            SimLock::Ttas(l) => l.acquire(cpu).await,
            SimLock::Ticket(l) => l.acquire(cpu, cpu.tid()).await,
            SimLock::Array(l) => l.acquire(cpu).await,
            SimLock::Mutex(l) => l.acquire(cpu).await,
            SimLock::Mcs(l) => l.acquire(cpu).await,
            SimLock::Clh(l) => l.acquire(cpu, cpu.tid()).await,
            SimLock::Hclh(l) => l.acquire(cpu).await,
            SimLock::Hticket(l) => l.acquire(cpu).await,
        }
    }

    /// Releases the lock, which the calling thread holds.
    pub async fn release(&self, cpu: &Cpu) {
        match self {
            SimLock::Tas(l) => l.release(cpu).await,
            SimLock::Ttas(l) => l.release(cpu).await,
            SimLock::Ticket(l) => l.release(cpu, cpu.tid()).await,
            SimLock::Array(l) => l.release(cpu).await,
            SimLock::Mutex(l) => l.release(cpu).await,
            SimLock::Mcs(l) => l.release(cpu).await,
            SimLock::Clh(l) => l.release(cpu, cpu.tid()).await,
            SimLock::Hclh(l) => l.release(cpu).await,
            SimLock::Hticket(l) => l.release(cpu).await,
        }
    }
}

/// Builds a sim lock of the given kind, allocating its cache lines.
pub fn make_lock(kind: SimLockKind, sim: &mut Sim, cfg: &LockConfig) -> Rc<SimLock> {
    use ticket::{SimTicket, TicketMode};
    Rc::new(match kind {
        SimLockKind::Tas => SimLock::Tas(tas::SimTas::new(sim, cfg)),
        SimLockKind::Ttas => SimLock::Ttas(ttas::SimTtas::new(sim, cfg)),
        SimLockKind::Ticket => SimLock::Ticket(SimTicket::new(sim, cfg, TicketMode::Proportional)),
        SimLockKind::TicketNoBackoff => {
            SimLock::Ticket(SimTicket::new(sim, cfg, TicketMode::NoBackoff))
        }
        SimLockKind::TicketPrefetchw => {
            SimLock::Ticket(SimTicket::new(sim, cfg, TicketMode::Prefetchw))
        }
        SimLockKind::Array => SimLock::Array(array::SimArray::new(sim, cfg)),
        SimLockKind::Mutex => SimLock::Mutex(mutex::SimMutex::new(sim, cfg)),
        SimLockKind::Mcs => SimLock::Mcs(mcs::SimMcs::new(sim, cfg)),
        SimLockKind::Clh => SimLock::Clh(clh::SimClh::new(sim, cfg)),
        SimLockKind::Hclh => SimLock::Hclh(cohort::SimCohort::new_clh(sim, cfg)),
        SimLockKind::Hticket => SimLock::Hticket(cohort::SimCohort::new_ticket(sim, cfg)),
    })
}

#[cfg(test)]
pub(crate) mod test_support {
    //! A mutual-exclusion checker run against every sim lock: threads
    //! repeatedly acquire, perform a non-atomic read-modify-write on a
    //! shared data line, and release. Lost updates expose broken locks.

    use super::*;
    use ssync_sim::Sim;

    /// Runs `threads` workers × `iters` critical sections and asserts no
    /// updates were lost.
    pub fn exclusion_torture(
        kind: SimLockKind,
        platform: ssync_core::Platform,
        threads: usize,
        iters: u32,
    ) {
        let mut sim = Sim::new(platform, 7);
        let cfg = LockConfig::for_placement(&sim, threads);
        let lock = make_lock(kind, &mut sim, &cfg);
        let data = sim.alloc_line_for_core(cfg.home_core);
        for tid in 0..threads {
            let lock = Rc::clone(&lock);
            sim.spawn_on_core(cfg.thread_cores[tid], move |cpu| async move {
                for _ in 0..iters {
                    lock.acquire(&cpu).await;
                    let read = cpu.load(data).await;
                    cpu.store(data, read + 1).await;
                    lock.release(&cpu).await;
                    cpu.complete_op();
                }
            });
        }
        sim.run_to_completion();
        assert_eq!(
            sim.memory().line(data).value,
            threads as u64 * u64::from(iters),
            "{:?} lost updates on {:?}",
            kind,
            platform
        );
    }
}
