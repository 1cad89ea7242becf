//! Simulated hierarchical (cohort) locks: HCLH and HTICKET.
//!
//! Built by composition, as in `ssync-locks`: one global lock plus one
//! local lock per cluster (die/socket), with a per-cluster *baton* line.
//! A releasing holder that detects a same-cluster waiter (via the local
//! level's [`CohortLevel::no_waiter_sentinel`] probe) stores 1 to the baton
//! and releases only the local lock; the next local owner consumes the
//! baton instead of touching the global lock. All cross-socket traffic
//! concentrates on the (rare) global handoffs — the behaviour that makes
//! hierarchical locks the Figure 5 winners on the Xeon.

use std::cell::RefCell;
use std::future::Future;

use ssync_sim::memory::LineId;
use ssync_sim::{Cpu, Sim};

use super::clh::SimClh;
use super::ticket::{SimTicket, TicketMode};
use super::LockConfig;

/// Local handoffs allowed before the global lock must rotate clusters.
const MAX_PASSES: u32 = 64;

/// A lock that can serve as either level of a cohort lock. It takes the
/// thread id explicitly, because a cohort releases its global lock
/// under the id that acquired it, and it can tell whether a thread
/// queues behind the holder.
pub trait CohortLevel {
    /// Acquires the lock for thread `tid`.
    fn acquire(&self, cpu: &Cpu, tid: usize) -> impl Future<Output = ()>;

    /// Releases the lock that thread `tid` acquired.
    fn release(&self, cpu: &Cpu, tid: usize) -> impl Future<Output = ()>;

    /// A line to load, and the value meaning "no thread is queued
    /// behind holder `tid`".
    fn no_waiter_sentinel(&self, tid: usize) -> (LineId, u64);
}

/// Simulated cohort lock (HCLH / HTICKET) over levels of type `L`.
pub struct SimCohort<L> {
    global: L,
    /// One local lock per cluster.
    locals: Vec<L>,
    /// One baton line per cluster (1 = global lock left with the cohort).
    batons: Vec<LineId>,
    /// Local passes since the cohort took the global lock.
    passes: RefCell<Vec<u32>>,
    /// The thread id that acquired the global lock for each cluster
    /// (queue-lock bookkeeping must be released under the same id).
    global_holder: RefCell<Vec<usize>>,
    /// Cluster of each thread.
    cluster_of: Vec<usize>,
}

impl SimCohort<SimTicket> {
    /// Builds HTICKET: ticket locks at both levels.
    pub fn new_ticket(sim: &mut Sim, cfg: &LockConfig) -> Self {
        Self::build(sim, cfg, |sim, sub_cfg| {
            SimTicket::new(sim, sub_cfg, TicketMode::Proportional)
        })
    }
}

impl SimCohort<SimClh> {
    /// Builds HCLH: CLH locks at both levels.
    pub fn new_clh(sim: &mut Sim, cfg: &LockConfig) -> Self {
        Self::build(sim, cfg, SimClh::new)
    }
}

impl<L: CohortLevel> SimCohort<L> {
    fn build(
        sim: &mut Sim,
        cfg: &LockConfig,
        mut make: impl FnMut(&mut Sim, &LockConfig) -> L,
    ) -> Self {
        // Dense cluster ids over the dies the threads actually occupy.
        let dies: Vec<usize> = cfg
            .thread_cores
            .iter()
            .map(|&c| sim.topology().die_of(c))
            .collect();
        let mut uniq: Vec<usize> = dies.clone();
        uniq.sort_unstable();
        uniq.dedup();
        let cluster_of: Vec<usize> = dies
            .iter()
            .map(|d| uniq.iter().position(|u| u == d).expect("die present"))
            .collect();

        let global = make(sim, cfg);
        let mut locals = Vec::with_capacity(uniq.len());
        let mut batons = Vec::with_capacity(uniq.len());
        for &die in &uniq {
            // Local lock lines live on the cluster's own node.
            let home_core = cfg
                .thread_cores
                .iter()
                .copied()
                .find(|&c| sim.topology().die_of(c) == die)
                .expect("cluster has a thread");
            let sub_cfg = LockConfig {
                n_threads: cfg.n_threads,
                home_core,
                thread_cores: cfg.thread_cores.clone(),
            };
            locals.push(make(sim, &sub_cfg));
            batons.push(sim.alloc_line_for_core(home_core));
        }
        let n_clusters = uniq.len();
        Self {
            global,
            locals,
            batons,
            passes: RefCell::new(vec![0; n_clusters]),
            global_holder: RefCell::new(vec![usize::MAX; n_clusters]),
            cluster_of,
        }
    }

    /// Takes the cluster's local lock; then either consumes the baton
    /// (the cohort already owns the global lock) or takes the global
    /// lock.
    pub async fn acquire(&self, cpu: &Cpu) {
        let tid = cpu.tid();
        let c = self.cluster_of[tid];
        self.locals[c].acquire(cpu, tid).await;
        if cpu.load(self.batons[c]).await == 1 {
            cpu.store(self.batons[c], 0).await;
            return;
        }
        self.global.acquire(cpu, tid).await;
        self.global_holder.borrow_mut()[c] = tid;
        self.passes.borrow_mut()[c] = 0;
    }

    /// Passes the baton to a same-cluster waiter and releases only the
    /// local lock, unless there is none or the cohort has used up its
    /// passes: then releases the global lock, and the local one after.
    pub async fn release(&self, cpu: &Cpu) {
        let tid = cpu.tid();
        let c = self.cluster_of[tid];
        if self.passes.borrow()[c] < MAX_PASSES {
            let (line, no_waiter) = self.locals[c].no_waiter_sentinel(tid);
            if cpu.load(line).await != no_waiter {
                self.passes.borrow_mut()[c] += 1;
                cpu.store(self.batons[c], 1).await;
                self.locals[c].release(cpu, tid).await;
                return;
            }
        }
        // Release the global lock under its acquirer's id.
        let holder = self.global_holder.borrow()[c];
        debug_assert_ne!(holder, usize::MAX, "global held by this cohort");
        self.passes.borrow_mut()[c] = 0;
        self.global.release(cpu, holder).await;
        self.locals[c].release(cpu, tid).await;
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::exclusion_torture;
    use super::super::SimLockKind;
    use ssync_core::Platform;

    #[test]
    fn exclusion_on_multi_sockets() {
        for p in [Platform::Opteron, Platform::Xeon] {
            exclusion_torture(SimLockKind::Hticket, p, 4, 40);
            exclusion_torture(SimLockKind::Hclh, p, 4, 40);
        }
    }

    #[test]
    fn exclusion_across_sockets() {
        // 20 Xeon threads span two sockets: local passing and global
        // rotation both exercise.
        exclusion_torture(SimLockKind::Hticket, Platform::Xeon, 20, 10);
        exclusion_torture(SimLockKind::Hclh, Platform::Xeon, 20, 10);
    }

    #[test]
    fn exclusion_single_cluster_degenerates() {
        exclusion_torture(SimLockKind::Hticket, Platform::Niagara, 8, 20);
    }
}
