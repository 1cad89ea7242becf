//! Workload drivers: one function per figure family.
//!
//! Every driver builds a fresh deterministic simulation, places threads
//! with the platform's standard policy, runs a fixed simulated window,
//! and converts counts to the unit the paper plots (Mops/s, Kops/s, or
//! cycles). Seeds are fixed so that every figure regenerates bit-for-bit.

use std::rc::Rc;

use ssync_core::topology::Platform;
use ssync_sim::Sim;
use ssync_simsync::locks::{make_lock, LockConfig, SimLockKind};
use ssync_simsync::mp::{HwChannel, SsmpChannel};
use ssync_simsync::workloads::atomics::{atomic_stress, stress_pause, AtomicKind};
use ssync_simsync::workloads::kv::{kv_worker, KvMix};
use ssync_simsync::workloads::lock_stress::{lock_stress, uncontested_pair};
use ssync_simsync::workloads::mp_bench::{
    hardware_server, mp_client, ping_receiver, ping_sender, polling_server, Chan,
};
use ssync_simsync::workloads::ssht::{
    ssht_mp_client, ssht_mp_server, ssht_worker, SshtConfig, SshtTable,
};

/// Default measurement window for throughput runs, in simulated cycles.
pub const WINDOW: u64 = 600_000;

/// Longer window for the coarse-grained KV workload.
pub const KV_WINDOW: u64 = 4_000_000;

/// Figure 4: throughput (Mops/s) of one atomic operation hammered by
/// `threads` threads on one line.
pub fn atomic_mops(platform: Platform, kind: AtomicKind, threads: usize) -> f64 {
    let mut sim = Sim::new(platform, 0xA70);
    let cores = sim.topology().placement(threads);
    let line = sim.alloc_line_for_core(cores[0]);
    let pause = stress_pause(sim.topology(), &cores);
    for &c in &cores {
        sim.spawn_on_core(c, move |cpu| atomic_stress(cpu, line, kind, pause));
    }
    sim.run_until(WINDOW);
    sim.topology().mops(sim.total_ops(), WINDOW)
}

/// Figures 5, 7 and 8: lock throughput (Mops/s) with `threads` threads
/// over `n_locks` locks (1 = extreme contention, 512 = very low).
pub fn lock_mops(platform: Platform, kind: SimLockKind, threads: usize, n_locks: usize) -> f64 {
    let (ops, window, topo_mops) = lock_run(platform, kind, threads, n_locks);
    let _ = topo_mops;
    platform.topology().mops(ops, window)
}

/// Figure 3: average latency (cycles) of one acquire+release when
/// `threads` threads contend for a single lock.
pub fn lock_latency(platform: Platform, kind: SimLockKind, threads: usize) -> f64 {
    let mut sim = Sim::new(platform, 0xF163);
    let cfg = LockConfig::for_placement(&sim, threads);
    let lock = make_lock(kind, &mut sim, &cfg);
    let data = sim.alloc_line_for_core(cfg.home_core);
    let mut tids = Vec::new();
    for tid in 0..threads {
        let lock = Rc::clone(&lock);
        tids.push(sim.spawn_on_core(cfg.thread_cores[tid], move |cpu| {
            lock_stress(cpu, vec![lock], vec![data])
        }));
    }
    sim.run_until(WINDOW * 4);
    let mut sum = 0u64;
    let mut n = 0u64;
    for &tid in &tids {
        // Skip each thread's first sample (cold caches).
        let s = sim.samples(tid);
        for &v in s.iter().skip(1.min(s.len())) {
            sum += v;
            n += 1;
        }
    }
    if n == 0 {
        return f64::NAN;
    }
    sum as f64 / n as f64
}

fn lock_run(
    platform: Platform,
    kind: SimLockKind,
    threads: usize,
    n_locks: usize,
) -> (u64, u64, f64) {
    let mut sim = Sim::new(platform, 0x10C5);
    let cfg = LockConfig::for_placement(&sim, threads);
    let mut locks = Vec::with_capacity(n_locks);
    let mut data = Vec::with_capacity(n_locks);
    for _ in 0..n_locks {
        locks.push(make_lock(kind, &mut sim, &cfg));
        data.push(sim.alloc_line_for_core(cfg.home_core));
    }
    for tid in 0..threads {
        let (locks, data) = (locks.clone(), data.clone());
        sim.spawn_on_core(cfg.thread_cores[tid], |cpu| lock_stress(cpu, locks, data));
    }
    sim.run_until(WINDOW);
    (sim.total_ops(), WINDOW, 0.0)
}

/// Figure 8's bar annotations: the best lock and its scalability versus
/// the single-thread run of the same (best-at-1) lock.
pub fn best_lock(
    platform: Platform,
    threads: usize,
    n_locks: usize,
    kinds: &[SimLockKind],
) -> (SimLockKind, f64) {
    let mut best = (kinds[0], f64::MIN);
    for &k in kinds {
        let m = lock_mops(platform, k, threads, n_locks);
        if m > best.1 {
            best = (k, m);
        }
    }
    best
}

/// Figure 6: uncontested acquire+release latency (cycles) when the
/// previous holder runs on `partner_core`.
pub fn uncontested_latency(platform: Platform, kind: SimLockKind, partner_core: usize) -> f64 {
    let mut sim = Sim::new(platform, 0x0F16);
    let cfg = LockConfig {
        n_threads: 2,
        home_core: 0,
        thread_cores: vec![0, partner_core],
    };
    let lock = make_lock(kind, &mut sim, &cfg);
    let turn = sim.alloc_line_for_core(0);
    let l0 = Rc::clone(&lock);
    let t0 = sim.spawn_on_core(0, move |cpu| uncontested_pair(cpu, l0, turn, 0));
    let t1 = sim.spawn_on_core(partner_core, move |cpu| {
        uncontested_pair(cpu, lock, turn, 1)
    });
    sim.run_until(WINDOW);
    let mut samples: Vec<u64> = sim.samples(t0).to_vec();
    samples.extend_from_slice(&sim.samples(t1));
    if samples.len() <= 4 {
        return f64::NAN;
    }
    // Drop warm-up samples.
    let body = &samples[4..];
    body.iter().sum::<u64>() as f64 / body.len() as f64
}

/// Single-thread lock latency (Figure 6's "single thread" bar).
pub fn single_thread_latency(platform: Platform, kind: SimLockKind) -> f64 {
    let mut sim = Sim::new(platform, 0x0F17);
    let cfg = LockConfig::for_placement(&sim, 1);
    let lock = make_lock(kind, &mut sim, &cfg);
    let data = sim.alloc_line_for_core(0);
    let tid = sim.spawn_on_core(0, move |cpu| lock_stress(cpu, vec![lock], vec![data]));
    sim.run_until(WINDOW / 2);
    let s = sim.samples(tid);
    if s.len() <= 4 {
        return f64::NAN;
    }
    let body = &s[4..];
    body.iter().sum::<u64>() as f64 / body.len() as f64
}

/// Figure 9: one-to-one message latency (cycles): `(one_way, round_trip)`
/// between core 0 and `partner_core`, via `libssmp` or hardware.
pub fn mp_one_to_one(platform: Platform, partner_core: usize, hardware: bool) -> (f64, f64) {
    // One-way.
    let one_way = {
        let mut sim = Sim::new(platform, 0x39);
        let (tx_chan, rx_chan) = mk_chan(&mut sim, partner_core, 1, hardware);
        sim.spawn_on_core(0, |cpu| ping_sender(cpu, tx_chan, None));
        let rx = sim.spawn_on_core(partner_core, |cpu| ping_receiver(cpu, rx_chan, None));
        sim.run_until(WINDOW);
        let samples = sim.samples(rx);
        mean_skip(&samples, 4)
    };
    // Round-trip.
    let round_trip = {
        let mut sim = Sim::new(platform, 0x3A);
        let (req_tx, req_rx) = mk_chan(&mut sim, partner_core, 1, hardware);
        let (rep_tx, rep_rx) = mk_chan(&mut sim, 0, 0, hardware);
        let tx = sim.spawn_on_core(0, |cpu| ping_sender(cpu, req_tx, Some(rep_rx)));
        sim.spawn_on_core(partner_core, |cpu| ping_receiver(cpu, req_rx, Some(rep_tx)));
        sim.run_until(WINDOW);
        let samples = sim.samples(tx);
        mean_skip(&samples, 4)
    };
    (one_way, round_trip)
}

/// Builds a channel pair endpoint view: (sender side, receiver side).
/// `to_tid` is the receiver's thread id for hardware channels.
fn mk_chan(sim: &mut Sim, receiver_core: usize, to_tid: usize, hardware: bool) -> (Chan, Chan) {
    if hardware {
        let c = HwChannel::new(to_tid);
        (Chan::Hw(c.clone()), Chan::Hw(c))
    } else {
        let c = SsmpChannel::new(sim, receiver_core);
        (Chan::Ssmp(c.clone()), Chan::Ssmp(c))
    }
}

/// Figure 10: client-server throughput (Mops/s) with `n_clients` clients
/// and one server on core 0.
pub fn mp_client_server(
    platform: Platform,
    n_clients: usize,
    round_trip: bool,
    hardware: bool,
) -> f64 {
    let mut sim = Sim::new(platform, 0x0A10);
    let topo = sim.topology().clone();
    let cores = topo.placement((n_clients + 1).min(topo.num_cores()));
    let server_core = cores[0];
    if hardware {
        let replies: Option<Vec<Chan>> = round_trip.then(|| {
            (0..n_clients)
                .map(|i| Chan::Hw(HwChannel::new(i + 1)))
                .collect()
        });
        let server_chan = HwChannel::new(0);
        let server_replies = replies.clone();
        sim.spawn_on_core(server_core, |cpu| {
            hardware_server(cpu, server_chan, server_replies)
        });
        for i in 0..n_clients {
            let reply = replies.as_ref().map(|r| r[i].clone());
            sim.spawn_on_core(cores[(i + 1) % cores.len()], |cpu| {
                mp_client(cpu, Chan::Hw(HwChannel::new(0)), reply)
            });
        }
    } else {
        let mut requests = Vec::new();
        let mut replies = Vec::new();
        for i in 0..n_clients {
            requests.push(SsmpChannel::new(&mut sim, server_core));
            replies.push(Chan::Ssmp(SsmpChannel::new(
                &mut sim,
                cores[(i + 1) % cores.len()],
            )));
        }
        let (reqs, reps) = (requests.clone(), round_trip.then(|| replies.clone()));
        sim.spawn_on_core(server_core, |cpu| polling_server(cpu, reqs, reps));
        for i in 0..n_clients {
            let request = Chan::Ssmp(requests[i].clone());
            let reply = round_trip.then(|| replies[i].clone());
            sim.spawn_on_core(cores[(i + 1) % cores.len()], |cpu| {
                mp_client(cpu, request, reply)
            });
        }
    }
    sim.run_until(WINDOW);
    // Throughput counts client-completed operations (tid 0 = the server).
    let client_ops = sim.total_ops() - sim.ops(0);
    sim.topology().mops(client_ops, WINDOW)
}

/// Hash-table backend for [`ssht_mops`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SshtBackend {
    /// Per-bucket locks of the given algorithm.
    Lock(SimLockKind),
    /// Message passing: one server per three clients.
    MessagePassing,
}

/// Figure 11: hash-table throughput (Mops/s).
pub fn ssht_mops(
    platform: Platform,
    backend: SshtBackend,
    threads: usize,
    config: SshtConfig,
) -> f64 {
    let mut sim = Sim::new(platform, 0x5547);
    let cfg = LockConfig::for_placement(&sim, threads);
    match backend {
        SshtBackend::Lock(kind) => {
            let locks: Vec<_> = (0..config.buckets)
                .map(|_| make_lock(kind, &mut sim, &cfg))
                .collect();
            let table = Rc::new(SshtTable::new(&mut sim, config, locks, &cfg.thread_cores));
            for tid in 0..threads {
                let table = Rc::clone(&table);
                sim.spawn_on_core(cfg.thread_cores[tid], |cpu| ssht_worker(cpu, table));
            }
            sim.run_until(WINDOW);
            sim.topology().mops(sim.total_ops(), WINDOW)
        }
        SshtBackend::MessagePassing => {
            // One server per three clients (the paper's best split).
            let n_servers = (threads / 4).max(1);
            let n_clients = threads - n_servers;
            if n_clients == 0 {
                return f64::NAN;
            }
            // Partition buckets across servers; each server gets its own
            // table shard whose lines live on the server's node. Locks
            // are irrelevant (single-threaded access) but required by the
            // constructor; use TAS for the placeholders.
            let lock_cfg = LockConfig::for_placement(&sim, threads);
            let mut tables = Vec::new();
            for s in 0..n_servers {
                let shard = SshtConfig {
                    buckets: (config.buckets / n_servers).max(1),
                    entries: config.entries,
                    get_pct: config.get_pct,
                };
                let locks: Vec<_> = (0..shard.buckets)
                    .map(|_| make_lock(SimLockKind::Tas, &mut sim, &lock_cfg))
                    .collect();
                let server_core = lock_cfg.thread_cores[s];
                tables.push(Rc::new(SshtTable::new(
                    &mut sim,
                    shard,
                    locks,
                    &[server_core],
                )));
            }
            // Channels: client i talks to server i % n_servers.
            let mut server_pairs: Vec<Vec<(SsmpChannel, SsmpChannel)>> =
                (0..n_servers).map(|_| Vec::new()).collect();
            let mut client_chans = Vec::new();
            for c in 0..n_clients {
                let s = c % n_servers;
                let server_core = lock_cfg.thread_cores[s];
                let client_core = lock_cfg.thread_cores[n_servers + c];
                let req = SsmpChannel::new(&mut sim, server_core);
                let rep = SsmpChannel::new(&mut sim, client_core);
                server_pairs[s].push((req.clone(), rep.clone()));
                client_chans.push((req, rep));
            }
            for (s, (table, pairs)) in tables.into_iter().zip(server_pairs).enumerate() {
                sim.spawn_on_core(lock_cfg.thread_cores[s], |cpu| {
                    ssht_mp_server(cpu, table, pairs)
                });
            }
            for (c, (req, rep)) in client_chans.into_iter().enumerate() {
                sim.spawn_on_core(lock_cfg.thread_cores[n_servers + c], move |cpu| {
                    ssht_mp_client(cpu, req, rep, config.buckets)
                });
            }
            sim.run_until(WINDOW);
            // Count client completions only (tids n_servers..).
            let ops: u64 = (n_servers..threads).map(|t| sim.ops(t)).sum();
            sim.topology().mops(ops, WINDOW)
        }
    }
}

/// Figure 12: KV-store throughput (Kops/s).
pub fn kv_kops(platform: Platform, kind: SimLockKind, threads: usize, mix: KvMix) -> f64 {
    let mut sim = Sim::new(platform, 0xCAFE);
    let cfg = LockConfig::for_placement(&sim, threads);
    let n_buckets = 256;
    let bucket_locks: Vec<_> = (0..n_buckets)
        .map(|_| make_lock(kind, &mut sim, &cfg))
        .collect();
    let bucket_data: Vec<_> = (0..n_buckets)
        .map(|i| sim.alloc_line_for_core(cfg.thread_cores[i % threads]))
        .collect();
    let global = make_lock(kind, &mut sim, &cfg);
    for tid in 0..threads {
        let (locks, data, global) = (
            bucket_locks.clone(),
            bucket_data.clone(),
            Rc::clone(&global),
        );
        sim.spawn_on_core(cfg.thread_cores[tid], move |cpu| {
            kv_worker(cpu, locks, data, global, mix)
        });
    }
    sim.run_until(KV_WINDOW);
    sim.topology().mops(sim.total_ops(), KV_WINDOW) * 1000.0
}

fn mean_skip(samples: &[u64], skip: usize) -> f64 {
    if samples.len() <= skip {
        return f64::NAN;
    }
    let body = &samples[skip..];
    body.iter().sum::<u64>() as f64 / body.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_driver_runs() {
        let m = atomic_mops(Platform::Niagara, AtomicKind::Tas, 8);
        assert!(m > 0.0);
    }

    #[test]
    fn lock_driver_runs() {
        let m = lock_mops(Platform::Tilera, SimLockKind::Ticket, 6, 4);
        assert!(m > 0.0);
    }

    #[test]
    fn uncontested_ladder_monotone_on_xeon() {
        let near = uncontested_latency(Platform::Xeon, SimLockKind::Tas, 1);
        let far = uncontested_latency(Platform::Xeon, SimLockKind::Tas, 30);
        assert!(far > near, "near={near:.0} far={far:.0}");
    }

    #[test]
    fn mp_drivers_run() {
        let (ow, rt) = mp_one_to_one(Platform::Opteron, 6, false);
        assert!(ow > 0.0 && rt > ow);
        let m = mp_client_server(Platform::Xeon, 4, true, false);
        assert!(m > 0.0);
    }

    #[test]
    fn ssht_driver_runs_both_backends() {
        let cfg = SshtConfig {
            buckets: 12,
            entries: 12,
            get_pct: 80,
        };
        let lk = ssht_mops(
            Platform::Niagara,
            SshtBackend::Lock(SimLockKind::Tas),
            8,
            cfg,
        );
        let mp = ssht_mops(Platform::Niagara, SshtBackend::MessagePassing, 8, cfg);
        assert!(lk > 0.0 && mp > 0.0);
    }

    #[test]
    fn kv_driver_runs() {
        let k = kv_kops(Platform::Xeon, SimLockKind::Ticket, 4, KvMix::SetOnly);
        assert!(k > 0.0);
    }

    #[test]
    fn hardware_fai_never_loses_to_cas_loop() {
        // Figure 4: under contention a CAS retry loop trails the
        // single-instruction FAI — its failed attempts bounce the line
        // without making progress. (Uncontended, a lone successful CAS
        // is actually cheaper than Table 2's FAI column, which prices in
        // the full SPARC CAS-loop; so the claim starts at 8 threads.)
        for threads in [8usize, 32] {
            let fai = atomic_mops(Platform::Niagara, AtomicKind::Fai, threads);
            let cas_fai = atomic_mops(Platform::Niagara, AtomicKind::CasFai, threads);
            assert!(
                cas_fai <= fai * 1.05,
                "threads={threads}: cas_fai={cas_fai:.2} fai={fai:.2}"
            );
        }
    }

    #[test]
    fn client_server_throughput_saturates() {
        // Figure 10: one server caps the throughput; growing the client
        // count far past saturation must not grow throughput much.
        let mid = mp_client_server(Platform::Niagara, 8, true, false);
        let many = mp_client_server(Platform::Niagara, 32, true, false);
        assert!(many < 2.0 * mid, "mid={mid:.2} many={many:.2}");
    }

    #[test]
    fn best_lock_helper_agrees_with_exhaustive_max() {
        let kinds = [SimLockKind::Tas, SimLockKind::Ticket, SimLockKind::Clh];
        let (k, m) = best_lock(Platform::Tilera, 12, 16, &kinds);
        let exhaustive = kinds
            .iter()
            .map(|&x| lock_mops(Platform::Tilera, x, 12, 16))
            .fold(f64::MIN, f64::max);
        assert_eq!(m, exhaustive);
        assert!(kinds.contains(&k));
    }
}
