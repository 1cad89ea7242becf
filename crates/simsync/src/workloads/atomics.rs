//! The Section 5.4 atomic-operations stress test (Figure 4).
//!
//! Every thread repeatedly performs one kind of atomic operation on a
//! single shared line, then pauses long enough that it cannot complete
//! consecutive operations out of its own cache ("long runs"). FAI, SWAP
//! and CAS-FAI always eventually write; TAS and plain CAS mostly fail —
//! all of them still bounce the line, which is the point.

use ssync_sim::memory::LineId;
use ssync_sim::Cpu;

/// Pause after each completed operation, preventing local op streaks.
/// The paper sizes the delay "proportional to the maximum latency across
/// the involved cores": a lone thread barely pauses, a cross-socket run
/// pauses for a full remote transfer.
pub fn stress_pause(topo: &ssync_core::Topology, cores: &[usize]) -> u64 {
    use ssync_core::topology::{DistClass, Platform};
    let mut worst: u64 = 20;
    for (i, &a) in cores.iter().enumerate() {
        for &b in &cores[i + 1..] {
            let est = match topo.distance(a, b) {
                DistClass::Zero => 20,
                DistClass::SameCore => 60,
                DistClass::SameDie => match topo.platform() {
                    Platform::Niagara => 60,
                    _ => 120,
                },
                DistClass::SameMcm => 200,
                DistClass::OneHop => 320,
                DistClass::TwoHops => 430,
                DistClass::MeshHops(h) => 80 + 2 * u64::from(h),
            };
            worst = worst.max(est);
        }
    }
    worst
}

/// The atomic operation under stress.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomicKind {
    /// Compare-and-swap (expected = last observed value; usually fails
    /// under contention).
    Cas,
    /// Test-and-set (always writes; "succeeds" only when it reads 0).
    Tas,
    /// Fetch-and-increment built from a CAS retry loop (counts one
    /// operation per *successful* increment).
    CasFai,
    /// Atomic swap.
    Swap,
    /// Hardware fetch-and-increment.
    Fai,
}

impl AtomicKind {
    /// All five operations, in Figure 4's legend order.
    pub const ALL: [AtomicKind; 5] = [
        AtomicKind::Cas,
        AtomicKind::Tas,
        AtomicKind::CasFai,
        AtomicKind::Swap,
        AtomicKind::Fai,
    ];

    /// Display name matching the figure legend.
    pub fn name(self) -> &'static str {
        match self {
            AtomicKind::Cas => "CAS",
            AtomicKind::Tas => "TAS",
            AtomicKind::CasFai => "CAS based FAI",
            AtomicKind::Swap => "SWAP",
            AtomicKind::Fai => "FAI",
        }
    }
}

/// One stress thread: performs `kind` on `line` over and over, pausing
/// `pause` cycles after each completed operation (see
/// [`stress_pause`]).
pub async fn atomic_stress(cpu: Cpu, line: LineId, kind: AtomicKind, pause: u64) {
    let mut last_seen = 0u64;
    loop {
        let old = match kind {
            AtomicKind::Cas | AtomicKind::CasFai => {
                cpu.cas(line, last_seen, last_seen.wrapping_add(1)).await
            }
            AtomicKind::Tas => cpu.tas(line).await,
            AtomicKind::Swap => cpu.swap(line, cpu.tid() as u64 + 1).await,
            AtomicKind::Fai => cpu.fai(line).await,
        };
        if kind == AtomicKind::CasFai {
            if old != last_seen {
                // Failed CAS: retry immediately with the fresh value
                // (this is what makes CAS-FAI slower than native FAI).
                last_seen = old;
                cpu.pause(2).await;
                continue;
            }
            // Successful increment.
            last_seen = old.wrapping_add(1);
        } else {
            last_seen = old;
        }
        cpu.complete_op();
        cpu.pause(pause).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssync_core::Platform;
    use ssync_sim::Sim;

    fn throughput(platform: Platform, kind: AtomicKind, threads: usize) -> f64 {
        let mut sim = Sim::new(platform, 5);
        let cores = sim.topology().placement(threads);
        let line = sim.alloc_line_for_core(cores[0]);
        let pause = stress_pause(sim.topology(), &cores);
        for &c in &cores {
            sim.spawn_on_core(c, move |cpu| atomic_stress(cpu, line, kind, pause));
        }
        let window = 300_000;
        sim.run_until(window);
        sim.topology().mops(sim.total_ops(), window)
    }

    #[test]
    fn single_thread_is_fast_on_multisockets() {
        let t1 = throughput(Platform::Xeon, AtomicKind::Fai, 1);
        let t2 = throughput(Platform::Xeon, AtomicKind::Fai, 2);
        // The paper's Figure 4: steep drop from 1 to 2 threads.
        assert!(t1 > 2.0 * t2, "t1={t1:.1} t2={t2:.1}");
    }

    #[test]
    fn crossing_sockets_hurts_opteron() {
        let within = throughput(Platform::Opteron, AtomicKind::Fai, 6);
        let across = throughput(Platform::Opteron, AtomicKind::Fai, 12);
        assert!(within > across, "within={within:.1} across={across:.1}");
    }

    #[test]
    fn single_sockets_sustain_throughput() {
        let few = throughput(Platform::Niagara, AtomicKind::Tas, 8);
        let many = throughput(Platform::Niagara, AtomicKind::Tas, 56);
        // No collapse: throughput at 56 threads within 2x of 8 threads.
        assert!(many > few / 2.0, "few={few:.1} many={many:.1}");
    }

    #[test]
    fn niagara_tas_beats_cas() {
        let tas = throughput(Platform::Niagara, AtomicKind::Tas, 32);
        let fai = throughput(Platform::Niagara, AtomicKind::CasFai, 32);
        assert!(tas > fai, "tas={tas:.1} cas_fai={fai:.1}");
    }

    #[test]
    fn tilera_fai_fastest() {
        let fai = throughput(Platform::Tilera, AtomicKind::Fai, 18);
        let cas = throughput(Platform::Tilera, AtomicKind::Cas, 18);
        assert!(fai > cas, "fai={fai:.1} cas={cas:.1}");
    }
}
