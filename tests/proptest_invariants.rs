//! Property-based tests on core invariants (proptest).

use proptest::prelude::*;

use ssync::core::topology::{DistClass, Platform};
use ssync::ht::HashTable;
use ssync::kv::KvStore;
use ssync::locks::TicketLock;
use ssync::mp::{ring_channel, MSG_WORDS};
use ssync::sim::memory::SharerSet;
use ssync::sim::program::MemOpKind;
use ssync::sim::Sim;
use ssync::srv::shard_of;
use ssync::tm::shared::TmHeap;

proptest! {
    /// SharerSet behaves like a set of small integers.
    #[test]
    fn sharer_set_models_hashset(ops in proptest::collection::vec((0usize..127, any::<bool>()), 0..64)) {
        let mut set = SharerSet::EMPTY;
        let mut model = std::collections::HashSet::new();
        for (core, add) in ops {
            if add {
                set.add(core);
                model.insert(core);
            } else {
                set.remove(core);
                model.remove(&core);
            }
            prop_assert_eq!(set.count() as usize, model.len());
            prop_assert_eq!(set.contains(core), model.contains(&core));
        }
        let from_iter: Vec<usize> = set.iter().collect();
        let mut from_model: Vec<usize> = model.into_iter().collect();
        from_model.sort_unstable();
        prop_assert_eq!(from_iter, from_model);
    }

    /// Topology distances are symmetric and zero only on the diagonal,
    /// on every platform.
    #[test]
    fn topology_distance_symmetry(pi in 0usize..4, a in 0usize..80, b in 0usize..80) {
        let p = Platform::ALL[pi];
        let t = p.topology();
        let (a, b) = (a % t.num_cores(), b % t.num_cores());
        let d_ab = t.distance(a, b);
        let d_ba = t.distance(b, a);
        prop_assert_eq!(d_ab, d_ba);
        prop_assert_eq!(d_ab == DistClass::Zero, a == b);
    }

    /// The hash table agrees with a HashMap model under any op sequence.
    #[test]
    fn hash_table_models_hashmap(ops in proptest::collection::vec((0u64..32, 0u8..3, any::<u64>()), 0..200)) {
        let ht: HashTable<TicketLock> = HashTable::new(4);
        let mut model = std::collections::HashMap::new();
        for (key, op, value) in ops {
            match op {
                0 => prop_assert_eq!(ht.put(key, value), model.insert(key, value)),
                1 => prop_assert_eq!(ht.get(key), model.get(&key).copied()),
                _ => prop_assert_eq!(ht.remove(key), model.remove(&key)),
            }
        }
        prop_assert_eq!(ht.len(), model.len());
    }

    /// The KV store agrees with a BTreeMap model under any op sequence
    /// (get/set/cas/delete), versions grow strictly monotonically, and
    /// the stats counters match model-derived counts.
    #[test]
    fn kv_store_models_btreemap(ops in proptest::collection::vec((0u64..24, 0u8..4, any::<u8>()), 0..200)) {
        let kv: KvStore<TicketLock> = KvStore::new(32, 4);
        // Model: key -> (value byte, version).
        let mut model: std::collections::BTreeMap<u64, (u8, u64)> = std::collections::BTreeMap::new();
        let mut last_version = 0u64;
        let (mut hits, mut misses, mut sets, mut deletes, mut cas_failures) = (0u64, 0, 0, 0, 0);
        for (key, op, val) in ops {
            let kb = key.to_be_bytes();
            match op {
                0 => {
                    // Set: always stores, version strictly grows.
                    let v = kv.set(&kb, vec![val]);
                    prop_assert!(v > last_version, "version {v} not past {last_version}");
                    last_version = v;
                    model.insert(key, (val, v));
                    sets += 1;
                }
                1 => {
                    // Get: value and version must match the model.
                    let got = kv.get_with_version(&kb);
                    match model.get(&key) {
                        Some(&(mv, mver)) => {
                            let (ver, value) = got.expect("model says present");
                            prop_assert_eq!(value.as_ref(), &[mv][..]);
                            prop_assert_eq!(ver, mver);
                            hits += 1;
                        }
                        None => {
                            prop_assert!(got.is_none());
                            misses += 1;
                        }
                    }
                }
                2 => {
                    // CAS: correct expected version on even vals, stale
                    // (version 0 is never assigned) on odd.
                    match (model.get(&key).copied(), val % 2 == 0) {
                        (Some((_, mver)), true) => {
                            let v = kv.cas(&kb, vec![val], mver).expect("fresh cas must win");
                            prop_assert!(v > last_version);
                            last_version = v;
                            model.insert(key, (val, v));
                            sets += 1;
                        }
                        (Some((_, mver)), false) => {
                            prop_assert_eq!(kv.cas(&kb, vec![val], 0), Err(mver));
                            cas_failures += 1;
                        }
                        (None, _) => {
                            prop_assert_eq!(kv.cas(&kb, vec![val], 0), Err(0));
                            cas_failures += 1;
                        }
                    }
                }
                _ => {
                    let expected = model.remove(&key).is_some();
                    prop_assert_eq!(kv.delete(&kb), expected);
                    if expected {
                        deletes += 1;
                    }
                }
            }
        }
        prop_assert_eq!(kv.len(), model.len());
        for (key, (mv, mver)) in &model {
            let kb = key.to_be_bytes();
            let (ver, value) = kv.get_with_version(&kb).expect("model key present");
            prop_assert_eq!(value.as_ref(), &[*mv][..]);
            prop_assert_eq!(ver, *mver);
            hits += 1;
        }
        let snap = kv.stats_snapshot();
        prop_assert_eq!(snap.hits, hits);
        prop_assert_eq!(snap.misses, misses);
        prop_assert_eq!(snap.sets, sets);
        prop_assert_eq!(snap.cas_failures, cas_failures);
        prop_assert_eq!(snap.deletes, deletes);
    }

    /// Optimistic lock-free reads under a *live* writer thread: every
    /// value a reader observes is fully formed (never a torn mix of
    /// two writes) and is one the writer actually committed for that
    /// key — checked against the writer's own (version, value) history
    /// — and once the writer is done, the store agrees with a
    /// sequential BTreeMap model. The locked fallback path is part of
    /// the same protocol, so whichever path each read took, the
    /// observation must be in the history.
    ///
    /// A third thread hammers [`KvStore::reclaim_pass`] the whole time:
    /// epoch collection runs concurrently with the reader's pinned
    /// traversals and the writer's retirements, so any grace-period
    /// bug frees a node under the reader's feet and the history check
    /// (or the allocator) catches it. At quiescence every retired node
    /// is accounted for: reclaimed online plus drained afterwards
    /// equals the replacements and deletes the writer performed.
    #[test]
    fn optimistic_reads_agree_with_writer_history(
        ops in proptest::collection::vec((0u64..6, 0u8..3, any::<u8>()), 20..120),
    ) {
        const KEYS: u64 = 6;
        let kv: KvStore<TicketLock> = KvStore::new(16, 2);
        // Preload so early reads hit; preloads are history too.
        let mut history: Vec<Vec<(u64, Vec<u8>)>> = vec![Vec::new(); KEYS as usize];
        let mut model: std::collections::BTreeMap<u64, (Vec<u8>, u64)> =
            std::collections::BTreeMap::new();
        for key in 0..KEYS {
            let value = vec![key as u8; 9];
            let v = kv.set(&key.to_be_bytes(), value.clone());
            history[key as usize].push((v, value.clone()));
            model.insert(key, (value, v));
        }
        // Nodes the writer unlinks (replacements and deletes): every
        // one must eventually be reclaimed, online or at the drain.
        let mut retired = 0u64;
        let writer_done = std::sync::atomic::AtomicBool::new(false);
        let observations = std::thread::scope(|s| {
            let kv = &kv;
            let writer_done = &writer_done;
            let reader = s.spawn(move || {
                // Hammer reads round-robin while the writer below runs;
                // record every hit for post-hoc history validation.
                let mut seen: Vec<(u64, u64, Vec<u8>)> = Vec::new();
                for i in 0..400u64 {
                    let key = i % KEYS;
                    if let Some((version, value)) = kv.get_with_version(&key.to_be_bytes()) {
                        seen.push((key, version, value.as_ref().to_vec()));
                    }
                    if i % 16 == 0 {
                        std::thread::yield_now();
                    }
                }
                seen
            });
            let collector = s.spawn(move || {
                // Concurrent epoch collection: advance-and-collect in a
                // tight loop for the writer's whole run, freeing
                // retired nodes while the reader may be pinned over
                // them.
                while !writer_done.load(std::sync::atomic::Ordering::Acquire) {
                    kv.reclaim_pass();
                    std::thread::yield_now();
                }
            });
            // The writer runs on this thread, so `model`/`history`
            // stay plain locals.
            for &(key, op, val) in &ops {
                let kb = key.to_be_bytes();
                match op {
                    0 => {
                        let value = vec![val, key as u8, val, val, val, val, val, val];
                        if model.contains_key(&key) {
                            retired += 1;
                        }
                        let v = kv.set(&kb, value.clone());
                        history[key as usize].push((v, value.clone()));
                        model.insert(key, (value, v));
                    }
                    1 => {
                        if let Some(mver) = model.get(&key).map(|(_, v)| *v) {
                            let value = vec![val ^ 0xA5; 17];
                            let v = kv.cas(&kb, value.clone(), mver).expect("armed cas wins");
                            history[key as usize].push((v, value.clone()));
                            model.insert(key, (value, v));
                            retired += 1;
                        }
                    }
                    _ => {
                        let expected = model.remove(&key).is_some();
                        assert_eq!(kv.delete(&kb), expected);
                        if expected {
                            retired += 1;
                        }
                    }
                }
                std::thread::yield_now();
            }
            writer_done.store(true, std::sync::atomic::Ordering::Release);
            collector.join().expect("collector panicked");
            reader.join().expect("reader panicked")
        });
        for (key, version, value) in observations {
            let written = &history[key as usize];
            prop_assert!(
                written.iter().any(|(v, bytes)| *v == version && *bytes == value),
                "reader saw ({version}, {value:?}) for key {key}, not in writer history {written:?}"
            );
        }
        // Quiesced: the store equals the sequential model.
        for key in 0..KEYS {
            let got = kv.get_with_version(&key.to_be_bytes());
            match model.get(&key) {
                Some((value, version)) => {
                    let (v, bytes) = got.expect("model says present");
                    prop_assert_eq!(v, *version);
                    prop_assert_eq!(bytes.as_ref(), value.as_slice());
                }
                None => prop_assert!(got.is_none()),
            }
        }
        // Reclamation accounting: with no pins left, three passes carry
        // the global epoch through the grace period of every remaining
        // bag, so the backlog drains to zero and online frees plus this
        // drain cover exactly the nodes the writer unlinked.
        for _ in 0..3 {
            kv.reclaim_pass();
        }
        let snap = kv.stats_snapshot();
        prop_assert_eq!(snap.reclaim_backlog, 0);
        prop_assert_eq!(kv.reclaim_backlog(), 0);
        prop_assert_eq!(snap.nodes_reclaimed, retired);
    }

    /// Shard routing is a pure function onto `0..shards`, and dense
    /// keyspaces spread over every shard.
    #[test]
    fn shard_routing_total_and_stable(keys in proptest::collection::vec(any::<u64>(), 1..64), shards in 1usize..9) {
        for &key in &keys {
            let s = shard_of(key, shards);
            prop_assert!(s < shards);
            prop_assert_eq!(s, shard_of(key, shards));
        }
    }

    /// The SPSC ring agrees with a bounded `VecDeque` under any
    /// interleaving of `try_send`/`try_recv` and their burst forms, at
    /// every depth the stacks use (1 = repl's per-peer halves, 64 = the
    /// serving meshes) and for at least four laps of the slot array:
    /// FIFO, never more than `depth` frames queued, a refused frame
    /// handed back intact, a burst send publishing exactly the frames
    /// that fit the free slots, a burst receive taking `k` frames only
    /// when `k` are queued, and `has_message` telling the truth after
    /// every step.
    #[test]
    fn ring_models_bounded_vecdeque(depth_pow in 0usize..4, ops in proptest::collection::vec(any::<u8>(), 64..768)) {
        let depth = [1usize, 2, 8, 64][depth_pow];
        let (tx, rx) = ring_channel(depth);
        let mut model: std::collections::VecDeque<[u64; MSG_WORDS]> = std::collections::VecDeque::new();
        let frame = |seq: u64| -> [u64; MSG_WORDS] { core::array::from_fn(|w| (seq << 3) | w as u64) };
        let mut sent = 0u64;
        let mut got = Vec::new();
        // The random walk first, then alternate until the fourth lap ends.
        let mut step = 0usize;
        while step < ops.len() || sent < 4 * depth as u64 || !model.is_empty() {
            // Biased towards sending (5 in 8) so full rings are common
            // too; the upper bits size a burst, 1..=depth frames.
            let (kind, k) = match ops.get(step) {
                Some(&op) => (op % 8, 1 + (op as usize >> 3) % depth),
                None if sent < 4 * depth as u64 && step % 2 == 0 => (0, 1),
                None => (7, 1),
            };
            step += 1;
            match kind {
                0..=3 => {
                    let f = frame(sent);
                    if model.len() == depth {
                        prop_assert_eq!(tx.try_send(f), Err(f));
                    } else {
                        prop_assert_eq!(tx.try_send(f), Ok(()));
                        model.push_back(f);
                        sent += 1;
                    }
                }
                4 => {
                    let burst: Vec<_> = (sent..sent + k as u64).map(frame).collect();
                    let fits = k.min(depth - model.len());
                    prop_assert_eq!(tx.try_send_burst(&burst), fits);
                    model.extend(&burst[..fits]);
                    sent += fits as u64;
                }
                5 => {
                    got.clear();
                    let whole = model.len() >= k;
                    prop_assert_eq!(rx.try_recv_burst(k, &mut got), whole);
                    let taken: Vec<_> = model.drain(..if whole { k } else { 0 }).collect();
                    prop_assert_eq!(&got, &taken);
                }
                _ => prop_assert_eq!(rx.try_recv(), model.pop_front()),
            }
            prop_assert_eq!(rx.has_message(), !model.is_empty());
        }
        prop_assert!(sent >= 4 * depth as u64);
    }

    /// Simulated FAI never loses counts, for any platform, thread count
    /// and per-thread op count.
    #[test]
    fn sim_fai_is_atomic(pi in 0usize..4, threads in 1usize..12, per in 1u32..40) {
        let p = Platform::ALL[pi];
        let mut sim = Sim::new(p, 99);
        let cores = sim.topology().placement(threads);
        let line = sim.alloc_line_for_core(cores[0]);
        for &c in &cores {
            sim.spawn_on_core(c, move |cpu| async move {
                for _ in 0..per {
                    cpu.fai(line).await;
                }
            });
        }
        sim.run_to_completion();
        prop_assert_eq!(sim.memory().line(line).value, threads as u64 * u64::from(per));
    }

    /// Protocol invariant: after any op sequence, a Modified/Exclusive
    /// line has an owner and no sharers; Shared has sharers and no owner.
    #[test]
    fn protocol_state_invariants(ops in proptest::collection::vec((0usize..6, 0usize..8), 1..80)) {
        use ssync::sim::protocol;
        let p = Platform::Opteron;
        let mut sim = Sim::new(p, 5);
        let line_id = sim.alloc_line(0);
        for (op, core) in ops {
            let core = core * 6; // Spread over dies.
            let kind = [
                MemOpKind::Load,
                MemOpKind::Store,
                MemOpKind::Cas,
                MemOpKind::Fai,
                MemOpKind::Flush,
                MemOpKind::Prefetchw,
            ][op];
            protocol::apply(p, sim.memory_mut().line_mut(line_id), core, kind);
            let line = sim.memory().line(line_id);
            match line.state {
                ssync::sim::CohState::Modified | ssync::sim::CohState::Exclusive => {
                    prop_assert!(line.owner.is_some());
                    prop_assert!(line.sharers.is_empty());
                }
                ssync::sim::CohState::Shared => {
                    prop_assert!(line.owner.is_none());
                    prop_assert!(!line.sharers.is_empty());
                }
                ssync::sim::CohState::Owned => {
                    prop_assert!(line.owner.is_some());
                }
                ssync::sim::CohState::Invalid => {
                    prop_assert!(line.owner.is_none());
                    prop_assert!(line.sharers.is_empty());
                }
            }
        }
    }

    /// STM transfers preserve the total for arbitrary transfer lists.
    #[test]
    fn stm_transfers_preserve_total(transfers in proptest::collection::vec((0usize..8, 0usize..8), 0..50)) {
        let heap: TmHeap<TicketLock> = TmHeap::new(8);
        for a in 0..8 {
            heap.poke(a, 1000);
        }
        for (from, to) in transfers {
            if from == to {
                continue;
            }
            heap.run(|tx| {
                let a = tx.read(from)?;
                let b = tx.read(to)?;
                tx.write(from, a.wrapping_sub(5))?;
                tx.write(to, b.wrapping_add(5))?;
                Ok(())
            });
        }
        let total: u64 = (0..8).map(|a| heap.peek(a)).sum();
        prop_assert_eq!(total, 8000);
    }

    /// The simulator is deterministic: same seed, same final state.
    #[test]
    fn sim_is_deterministic(seed in any::<u64>(), threads in 1usize..8) {
        let run = || {
            let mut sim = Sim::new(Platform::Tilera, seed);
            let cores = sim.topology().placement(threads);
            let line = sim.alloc_line_for_core(cores[0]);
            for &c in &cores {
                sim.spawn_on_core(c, move |cpu| async move {
                    for _ in 0..10 {
                        cpu.fai(line).await;
                    }
                });
            }
            sim.run_to_completion();
            (sim.now(), sim.events())
        };
        prop_assert_eq!(run(), run());
    }
}
