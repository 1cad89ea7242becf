//! Engine-performance regression guards for the wake-on-write
//! wait-list path: determinism under replay, and event-count ceilings
//! for the drivers behind the two most event-hungry artifacts (the
//! Figure 5 contended-lock sweep and the Figure 11 hash table). Before
//! the wait-lists, these workloads scheduled one event per spin poll —
//! millions per run; a ceiling regression means some polling loop fell
//! off the wait-list path.

use std::rc::Rc;

use ssync::core::Platform;
use ssync::sim::Sim;
use ssync::simsync::locks::{make_lock, LockConfig, SimLockKind};
use ssync::simsync::workloads::lock_stress::lock_stress;
use ssync::simsync::workloads::ssht::{ssht_worker, SshtConfig, SshtTable};

/// Measurement window (cycles) — the Figure 5 driver's window.
const WINDOW: u64 = 600_000;

/// Runs the Figure 5 scenario (`threads` threads, one lock) and returns
/// `(events, ops, now, transfers)`.
fn fig5_run(platform: Platform, kind: SimLockKind, threads: usize) -> (u64, u64, u64, u64) {
    let mut sim = Sim::new(platform, 0x10C5);
    let cfg = LockConfig::for_placement(&sim, threads);
    let lock = make_lock(kind, &mut sim, &cfg);
    let data = sim.alloc_line_for_core(cfg.home_core);
    for tid in 0..threads {
        let lock = Rc::clone(&lock);
        sim.spawn_on_core(cfg.thread_cores[tid], move |cpu| {
            lock_stress(cpu, vec![lock], vec![data])
        });
    }
    sim.run_until(WINDOW);
    (
        sim.events(),
        sim.total_ops(),
        sim.now(),
        sim.stats().transfers,
    )
}

#[test]
fn contended_run_replays_identically() {
    // Same seed, same workload, twice: identical event counts, op
    // counts, clocks and traffic. The wait-list wake order is part of
    // the engine's determinism contract.
    for kind in [SimLockKind::Ttas, SimLockKind::Mcs, SimLockKind::Ticket] {
        let a = fig5_run(Platform::Xeon, kind, 20);
        let b = fig5_run(Platform::Xeon, kind, 20);
        assert_eq!(a, b, "{kind:?} replay diverged");
    }
}

#[test]
fn fig5_driver_event_ceilings() {
    // Full-machine extreme contention. Explicit polling spent one event
    // per ~7-cycle poll per waiter (hundreds of thousands per platform
    // at a 600k-cycle window); the wait-list path wakes each waiter a
    // few times per handoff. Ceilings are ~3x current measurements so
    // they catch order-of-magnitude regressions, not noise.
    for (platform, kind, threads, ceiling) in [
        (Platform::Opteron, SimLockKind::Ttas, 48, 20_000),
        (Platform::Xeon, SimLockKind::Ttas, 80, 25_000),
        (Platform::Niagara, SimLockKind::Ticket, 64, 200_000),
        (Platform::Tilera, SimLockKind::Ticket, 36, 100_000),
    ] {
        let (events, ops, _, _) = fig5_run(platform, kind, threads);
        assert!(ops > 0, "{platform:?}: no ops completed");
        assert!(
            events < ceiling,
            "{platform:?} {kind:?} x{threads}: {events} events (ceiling {ceiling})"
        );
    }
}

#[test]
fn fig11_driver_event_ceiling() {
    // The Figure 11 high-contention hash table (12 buckets) on the
    // Opteron at 36 threads: per-bucket locks ride the wait-list path.
    let cfg = SshtConfig {
        buckets: 12,
        entries: 12,
        get_pct: 80,
    };
    let threads = 36;
    let mut sim = Sim::new(Platform::Opteron, 0x5547);
    let lock_cfg = LockConfig::for_placement(&sim, threads);
    let locks: Vec<_> = (0..cfg.buckets)
        .map(|_| make_lock(SimLockKind::Ticket, &mut sim, &lock_cfg))
        .collect();
    let table = Rc::new(SshtTable::new(&mut sim, cfg, locks, &lock_cfg.thread_cores));
    for tid in 0..threads {
        let table = Rc::clone(&table);
        sim.spawn_on_core(lock_cfg.thread_cores[tid], |cpu| ssht_worker(cpu, table));
    }
    sim.run_until(WINDOW);
    assert!(sim.total_ops() > 0);
    let events = sim.events();
    assert!(
        events < 600_000,
        "fig11 driver: {events} events (ceiling 600000)"
    );
}

#[test]
fn wait_lists_do_not_change_completed_work() {
    // Throughput sanity: the wait-list engine still completes work and
    // still shows the paper's contended-collapse shape (ops at 1 thread
    // >> per-thread ops at full machine on a multi-socket).
    let (_, ops1, _, _) = fig5_run(Platform::Opteron, SimLockKind::Ttas, 1);
    let (_, ops48, _, _) = fig5_run(Platform::Opteron, SimLockKind::Ttas, 48);
    assert!(ops1 > 0 && ops48 > 0);
    assert!(
        ops1 > 2 * ops48 / 48,
        "collapse shape lost: {ops1} vs {ops48}/48"
    );
}
