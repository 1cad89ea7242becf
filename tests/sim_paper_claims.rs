//! End-to-end checks of the paper's headline observations, run against
//! the simulator through the same drivers the figures use. These are the
//! "shape" assertions EXPERIMENTS.md reports — kept cheap enough for the
//! regular test suite.

use ssync::ccbench::drivers::{
    atomic_mops, lock_mops, mp_one_to_one, ssht_mops, uncontested_latency, SshtBackend,
};
use ssync::core::Platform;
use ssync::simsync::locks::SimLockKind;
use ssync::simsync::workloads::atomics::AtomicKind;
use ssync::simsync::workloads::ssht::SshtConfig;

#[test]
fn crossing_sockets_is_a_killer() {
    // Observation 1: cross-socket latency is 2-7.5x intra-socket, at
    // every layer. Check at the lock layer via the Figure 6 ladder.
    for kind in [SimLockKind::Tas, SimLockKind::Ticket] {
        let local = uncontested_latency(Platform::Xeon, kind, 1);
        let remote = uncontested_latency(Platform::Xeon, kind, 30);
        assert!(
            remote > 2.0 * local,
            "{kind:?}: local={local:.0} remote={remote:.0}"
        );
    }
}

#[test]
fn intra_socket_uniformity_matters() {
    // Observation 3: under high contention the uniform Niagara scales
    // better than the non-uniform Tilera. Compare best-lock throughput
    // scalability at 36/32 threads, 4 locks.
    let best = |p: Platform, t: usize| {
        SimLockKind::FLAT
            .iter()
            .map(|&k| lock_mops(p, k, t, 4))
            .fold(f64::MIN, f64::max)
    };
    let niagara_scal = best(Platform::Niagara, 32) / best(Platform::Niagara, 1);
    let tilera_scal = best(Platform::Tilera, 32) / best(Platform::Tilera, 1);
    assert!(
        niagara_scal > tilera_scal,
        "niagara {niagara_scal:.2}x vs tilera {tilera_scal:.2}x"
    );
}

#[test]
fn message_passing_wins_under_extreme_contention_only() {
    // Observation 5 / Figure 11: message passing beats the best lock at
    // 12 buckets and high thread counts (clearest on the Opteron, whose
    // incomplete directory cripples contended locks) and is strictly
    // slower at 512 buckets. The paper likewise has one platform where
    // mp does not win (the Niagara); in our model that platform is the
    // Xeon (see EXPERIMENTS.md).
    let high = SshtConfig {
        buckets: 12,
        entries: 12,
        get_pct: 80,
    };
    let low = SshtConfig {
        buckets: 512,
        entries: 12,
        get_pct: 80,
    };
    let best_lock = |p: Platform, cfg: SshtConfig, threads: usize| {
        SimLockKind::ALL
            .iter()
            .map(|&k| ssht_mops(p, SshtBackend::Lock(k), threads, cfg))
            .fold(f64::MIN, f64::max)
    };
    let mp_high = ssht_mops(Platform::Opteron, SshtBackend::MessagePassing, 36, high);
    let lock_high = best_lock(Platform::Opteron, high, 36);
    assert!(
        mp_high > lock_high,
        "high contention: mp={mp_high:.2} best lock={lock_high:.2}"
    );
    let mp_low = ssht_mops(Platform::Xeon, SshtBackend::MessagePassing, 36, low);
    let lock_low = best_lock(Platform::Xeon, low, 36);
    assert!(
        mp_low < lock_low,
        "low contention: mp={mp_low:.2} best lock={lock_low:.2}"
    );
}

#[test]
fn atomic_stress_shapes_per_observation() {
    // Figure 4's two regimes: multi-socket collapse vs single-socket
    // plateau, for the same operation.
    let xeon_1 = atomic_mops(Platform::Xeon, AtomicKind::Fai, 1);
    let xeon_40 = atomic_mops(Platform::Xeon, AtomicKind::Fai, 40);
    assert!(xeon_1 > 2.0 * xeon_40, "xeon: {xeon_1:.1} vs {xeon_40:.1}");
    let tilera_12 = atomic_mops(Platform::Tilera, AtomicKind::Fai, 12);
    let tilera_36 = atomic_mops(Platform::Tilera, AtomicKind::Fai, 36);
    assert!(
        tilera_36 > 0.5 * tilera_12,
        "tilera plateau: {tilera_12:.1} vs {tilera_36:.1}"
    );
}

#[test]
fn simple_locks_win_low_contention_everywhere() {
    // Observation 7: at 128 locks, TICKET (or TAS) matches or beats the
    // queue locks on every platform.
    for p in Platform::ALL {
        let t = p.topology().num_cores().min(36);
        let simple =
            lock_mops(p, SimLockKind::Ticket, t, 128).max(lock_mops(p, SimLockKind::Tas, t, 128));
        let complex =
            lock_mops(p, SimLockKind::Mcs, t, 128).max(lock_mops(p, SimLockKind::Clh, t, 128));
        assert!(
            simple > 0.85 * complex,
            "{p:?}: simple={simple:.2} complex={complex:.2}"
        );
    }
}

#[test]
fn tilera_hardware_mp_beats_coherence_mp() {
    let (hw_ow, hw_rt) = mp_one_to_one(Platform::Tilera, 7, true);
    let (sw_ow, sw_rt) = mp_one_to_one(Platform::Tilera, 7, false);
    assert!(hw_ow < sw_ow, "one-way: hw={hw_ow:.0} sw={sw_ow:.0}");
    assert!(hw_rt < sw_rt, "round-trip: hw={hw_rt:.0} sw={sw_rt:.0}");
}

#[test]
fn coherence_stats_explain_lock_behaviour() {
    // MCS generates no more cross-socket transfers per handoff than TAS
    // under identical contention — the mechanism behind Figure 5.
    use ssync::sim::Sim;
    use ssync::simsync::locks::{make_lock, LockConfig};
    use ssync::simsync::workloads::lock_stress::lock_stress;
    let traffic = |kind: SimLockKind| {
        let mut sim = Sim::new(Platform::Xeon, 3);
        let cfg = LockConfig::for_placement(&sim, 20);
        let lock = make_lock(kind, &mut sim, &cfg);
        let data = sim.alloc_line_for_core(cfg.home_core);
        for tid in 0..20 {
            let lock = lock.clone();
            sim.spawn_on_core(cfg.thread_cores[tid], move |cpu| {
                lock_stress(cpu, vec![lock], vec![data])
            });
        }
        sim.run_until(300_000);
        let ops = sim.total_ops().max(1);
        sim.stats().transfers as f64 / ops as f64
    };
    let tas = traffic(SimLockKind::Tas);
    let mcs = traffic(SimLockKind::Mcs);
    assert!(
        mcs < tas,
        "transfers per op: mcs={mcs:.1} should be < tas={tas:.1}"
    );
}
