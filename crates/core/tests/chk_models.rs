//! Model-checked interleavings of the *real* `Histogram` record and
//! snapshot paths, of the epoch-reclamation grace period, of racing
//! transitions on a `FencedWord`, and of a `Handshake` round.
//!
//! Compiled only under `RUSTFLAGS='--cfg ssync_chk'`: the stats
//! module's bucket counters and the epoch module's pin records then
//! resolve to `ssync-chk` shadow atomics and the checker enumerates
//! thread interleavings exhaustively up to the preemption bound. These
//! tests drive the actual `ssync_core::Histogram`, `ssync_core::epoch`,
//! `ssync_core::fenced` and `ssync_core::handshake` code — not a
//! re-modelled copy.
//!
//! Run with:
//! `RUSTFLAGS='--cfg ssync_chk' cargo test -p ssync-core --test chk_models`
#![cfg(ssync_chk)]

use std::sync::atomic::{AtomicU64 as RealAtomicU64, Ordering as RealOrdering};
use std::sync::Arc;

use ssync_chk::{thread, Builder};
use ssync_core::epoch::{EpochBags, EpochDomain};
use ssync_core::fenced::{Fence, Fenced, FencedWord};
use ssync_core::handshake::Handshake;
use ssync_core::sync::atomic::{AtomicU64, Ordering};
use ssync_core::Histogram;

/// A snapshot racing two concurrent recorders must observe a
/// *plausible* intermediate state — only values that were actually
/// recorded, never a torn or phantom count — and after both recorders
/// join, every increment must be present (relaxed RMWs may race but
/// can never lose an update). The cross-execution counter proves the
/// checker really explored mid-record snapshots, not just the
/// before/after ones.
#[test]
fn histogram_snapshot_races_recorders_without_losing_counts() {
    let partial_snaps = Arc::new(RealAtomicU64::new(0));
    let partial_snaps2 = Arc::clone(&partial_snaps);
    // A single snapshot scan is ~HIST_BUCKETS shadow loads, so the
    // default 2 000-step budget (sized for lock/ring models) is far too
    // small here; the branching still collapses to the few shared
    // buckets, only the straight-line step count grows.
    let report = Builder::new().with_max_steps(64_000).check(move || {
        let h = Arc::new(Histogram::new());
        // Two recorders: one lands in the exact region (3 < 32), one in
        // the log-bucketed region, and both also hit a *shared* bucket
        // (17) — the lost-update hazard a relaxed fetch_add must survive.
        let a = {
            let h = Arc::clone(&h);
            thread::spawn(move || {
                h.record(3);
                h.record(17);
            })
        };
        let b = {
            let h = Arc::clone(&h);
            thread::spawn(move || {
                h.record(100);
                h.record(17);
            })
        };
        let mid = h.snapshot();
        let seen = mid.count();
        assert!(seen <= 4, "snapshot invented counts: {seen}");
        // Whatever the snapshot caught must be one of the recorded
        // values; the quantile walk over a partial snapshot stays
        // coherent (no panic, no out-of-range representative).
        if let Some(max) = mid.max() {
            assert!(max <= 104, "phantom value in mid-race snapshot: {max}");
        }
        if seen > 0 && seen < 4 {
            partial_snaps2.fetch_add(1, RealOrdering::Relaxed);
        }
        a.join();
        b.join();
        let fin = h.snapshot();
        assert_eq!(fin.count(), 4, "a relaxed increment was lost");
        // Nearest-rank spot checks: the low end is the exact bucket 3,
        // the top is 100's bucket (within the 1/32 relative error).
        assert_eq!(fin.quantile(0.25), Some(3));
        let top = fin.max().expect("four samples recorded");
        assert!((100..=104).contains(&top), "top bucket drifted: {top}");
    });
    assert!(!report.truncated, "exploration truncated: {report:?}");
    assert!(
        partial_snaps.load(RealOrdering::Relaxed) > 0,
        "no explored interleaving snapshotted mid-record ({} executions)",
        report.executions
    );
    eprintln!(
        "histogram record/snapshot model: {} executions",
        report.executions
    );
}

/// Merging a histogram that another thread is still recording into:
/// the merge reads each source bucket once (relaxed), so it must land
/// on a subset of the final counts, and the source itself loses
/// nothing. This is the scrape-while-serving shape — a `Stats` reply
/// assembling its payload while request threads keep recording.
#[test]
fn merge_from_a_live_histogram_takes_a_coherent_subset() {
    let report = Builder::new().with_max_steps(64_000).check(|| {
        let src = Arc::new(Histogram::new());
        src.record(5);
        let recorder = {
            let src = Arc::clone(&src);
            thread::spawn(move || src.record(5))
        };
        let dst = Histogram::new();
        dst.merge(&src);
        let merged = dst.snapshot().count();
        assert!(
            merged == 1 || merged == 2,
            "merge saw {merged} counts, expected the pre-recorded 1 or both"
        );
        recorder.join();
        assert_eq!(src.snapshot().count(), 2, "merge must not drain the source");
        assert_eq!(src.quantile(1.0), Some(5));
    });
    assert!(!report.truncated, "exploration truncated: {report:?}");
    eprintln!("histogram merge model: {} executions", report.executions);
}

/// "Freed" marker for the epoch models: the collector's free closure
/// stores this into the node instead of deallocating, so a broken
/// grace period shows up as a readable wrong value (a model violation)
/// rather than real undefined behavior.
const POISON: u64 = u64::MAX;

/// The grace-period invariant on the real `EpochDomain`/`EpochBags`
/// protocol: a reader that pins before reaching a node can never
/// observe that node freed, no matter how the unlink, retirement,
/// epoch advances, and collection sweeps interleave with it.
///
/// The model mirrors the store's shapes exactly: `published` is the
/// chain link (1 while the node is reachable), the writer unlinks with
/// a Release store, commits it with an RMW flush (kv's backlog bump),
/// tags the retirement with a SeqCst read of the global epoch, and
/// then runs bounded advance-and-collect passes — the amortized
/// maintenance loop. While the reader is pinned the second advance is
/// fenced, so the node outlives every pass; what the passes could not
/// free, the post-join drain must.
fn pinned_reader_blocks_collection_model(weak: bool) {
    let concurrent_frees = Arc::new(RealAtomicU64::new(0));
    let frees2 = Arc::clone(&concurrent_frees);
    let pinned_reads = Arc::new(RealAtomicU64::new(0));
    let reads2 = Arc::clone(&pinned_reads);
    let report = Builder::new()
        .with_weak_memory(weak)
        .with_max_steps(64_000)
        // Bound 4, matching `collecting_one_epoch_early_is_found`: the
        // seeded-bug twin needs 4 preemptions to surface its
        // use-after-free, so the clean models must explore at least as
        // deep for their "no violation" verdict to cover that schedule.
        .with_preemption_bound(4)
        .check(move || {
            let domain = Arc::new(EpochDomain::new());
            let node = Arc::new(AtomicU64::new(42));
            let published = Arc::new(AtomicU64::new(1));
            let flush = Arc::new(AtomicU64::new(0));
            let reader = {
                let domain = Arc::clone(&domain);
                let node = Arc::clone(&node);
                let published = Arc::clone(&published);
                let reads = Arc::clone(&reads2);
                thread::spawn(move || {
                    let _pin = domain.pin().expect("fresh domain has free slots");
                    // A reader can only reach the node through the
                    // link; once unlinked, new pinned readers miss it —
                    // only a reader that saw it published may touch it.
                    if published.load(Ordering::Acquire) == 1 {
                        let v = node.load(Ordering::Acquire);
                        assert_ne!(v, POISON, "node freed under a pinned reader");
                        assert_eq!(v, 42, "torn node under a pinned reader");
                        reads.fetch_add(1, RealOrdering::Relaxed);
                    }
                })
            };
            // Writer/collector: unlink, flush, retire at the current
            // epoch, then bounded advance-and-collect passes.
            let mut bags: EpochBags<Arc<AtomicU64>> = EpochBags::new();
            published.store(0, Ordering::Release);
            flush.fetch_add(1, Ordering::SeqCst);
            let tag = domain.epoch_sc();
            let mut freed = 0;
            freed += bags.retire(Arc::clone(&node), tag, |n| {
                n.store(POISON, Ordering::SeqCst);
            });
            for _ in 0..4 {
                domain.try_advance();
                freed += bags.collect(domain.epoch(), |n| {
                    n.store(POISON, Ordering::SeqCst);
                });
                if freed > 0 {
                    break;
                }
            }
            if freed > 0 {
                frees2.fetch_add(1, RealOrdering::Relaxed);
            }
            reader.join();
            freed += bags.drain_all(|n| {
                n.store(POISON, Ordering::SeqCst);
            });
            assert_eq!(freed, 1, "the one retired node is freed exactly once");
            assert_eq!(node.load(Ordering::Acquire), POISON);
        });
    assert!(!report.truncated, "exploration truncated: {report:?}");
    assert!(
        concurrent_frees.load(RealOrdering::Relaxed) > 0,
        "no explored interleaving freed concurrently with the reader \
         ({} executions)",
        report.executions
    );
    assert!(
        pinned_reads.load(RealOrdering::Relaxed) > 0,
        "no explored interleaving had the pinned reader reach the node \
         ({} executions)",
        report.executions
    );
    eprintln!(
        "pinned reader model (weak={weak}): {} executions",
        report.executions
    );
}

#[test]
fn pinned_reader_blocks_collection() {
    pinned_reader_blocks_collection_model(false);
}

/// The same exploration under the store-buffer weak-memory mode: this
/// is what forces the pin protocol's SeqCst publication store. A
/// Relaxed pin could sit in the reader's store buffer while the
/// collector scans the slot, sees it unpinned, advances twice, and
/// frees under the reader — the checker would report exactly the
/// violation `pinned_reader_blocks_collection` asserts never happens.
///
/// This verdict is TSO-scoped: the mode models store buffers only, so
/// it cannot exhibit the RCpc load-before-store satisfaction that
/// forces the *validation load* (and `try_advance`'s scan) to be
/// SeqCst as well — that half of the argument lives in the C11
/// reasoning in `ssync_core::epoch`'s docs, not in this run.
#[test]
fn pinned_reader_blocks_collection_weak_memory() {
    pinned_reader_blocks_collection_model(true);
}

/// The checker's own regression: shorten the grace period by one epoch
/// (collect as if the global were one step ahead) and the exploration
/// *must* find the interleaving where a pinned reader holds a node the
/// early sweep frees. This is the mutation that proves the models
/// above can catch the bug class they claim to guard against.
#[test]
fn collecting_one_epoch_early_is_found() {
    let violation = Builder::new()
        .with_max_steps(64_000)
        .with_preemption_bound(4)
        .expect_violation(|| {
            let domain = Arc::new(EpochDomain::new());
            let node = Arc::new(AtomicU64::new(42));
            let published = Arc::new(AtomicU64::new(1));
            let flush = Arc::new(AtomicU64::new(0));
            let reader = {
                let domain = Arc::clone(&domain);
                let node = Arc::clone(&node);
                let published = Arc::clone(&published);
                thread::spawn(move || {
                    let _pin = domain.pin().expect("fresh domain has free slots");
                    if published.load(Ordering::Acquire) == 1 {
                        let v = node.load(Ordering::Acquire);
                        assert_ne!(v, POISON, "node freed under a pinned reader");
                    }
                })
            };
            let mut bags: EpochBags<Arc<AtomicU64>> = EpochBags::new();
            published.store(0, Ordering::Release);
            flush.fetch_add(1, Ordering::SeqCst);
            let tag = domain.epoch_sc();
            let mut freed = 0;
            freed += bags.retire(Arc::clone(&node), tag, |n| {
                n.store(POISON, Ordering::SeqCst);
            });
            for _ in 0..4 {
                domain.try_advance();
                // BUG under test: one epoch short of the grace period.
                freed += bags.collect(domain.epoch() + 1, |n| {
                    n.store(POISON, Ordering::SeqCst);
                });
                if freed > 0 {
                    break;
                }
            }
            reader.join();
            bags.drain_all(|n| {
                n.store(POISON, Ordering::SeqCst);
            });
        });
    assert!(
        violation.message.contains("freed under a pinned reader"),
        "wrong violation caught: {violation}"
    );
    eprintln!("early-collection violation: {violation}");
}

/// The fence after `fence` — test arithmetic on the wire value, for the
/// race's expectation and the twin's seeded bug.
fn successor(fence: Fence) -> Fence {
    Fence::from_wire(u64::from(fence) + 1)
}

/// The operations the fenced-word race drives, so one scenario runs
/// over the real [`FencedWord`] and over its twin's test-local word.
trait Word: Send + Sync + 'static {
    fn fresh() -> Self;
    fn load(&self) -> Fenced;
    fn advance(&self, seen: Fenced, tag: u16) -> Result<Fence, Fenced>;
    fn retag(&self, seen: Fenced, tag: u16) -> Result<(), Fenced>;
}

impl Word for FencedWord {
    fn fresh() -> Self {
        FencedWord::new(0)
    }
    fn load(&self) -> Fenced {
        FencedWord::load(self)
    }
    fn advance(&self, seen: Fenced, tag: u16) -> Result<Fence, Fenced> {
        self.try_advance(seen, tag)
    }
    fn retag(&self, seen: Fenced, tag: u16) -> Result<(), Fenced> {
        self.try_retag(seen, tag)
    }
}

/// The twin's word. BUG under test: a transition checks the view with
/// a load and installs with stores — no CAS — so two advances from one
/// view can both pass the check before either installs.
struct LoadThenStore {
    fence: AtomicU64,
    tag: AtomicU64,
}

impl LoadThenStore {
    fn install(&self, seen: Fenced, next: Fenced) -> Result<(), Fenced> {
        let now = Word::load(self);
        if now != seen {
            return Err(now);
        }
        self.fence.store(u64::from(next.fence), Ordering::Release);
        self.tag.store(u64::from(next.tag), Ordering::Release);
        Ok(())
    }
}

impl Word for LoadThenStore {
    fn fresh() -> Self {
        LoadThenStore {
            fence: AtomicU64::new(u64::from(Fence::FIRST)),
            tag: AtomicU64::new(0),
        }
    }
    fn load(&self) -> Fenced {
        Fenced {
            fence: Fence::from_wire(self.fence.load(Ordering::Acquire)),
            tag: self.tag.load(Ordering::Acquire) as u16,
        }
    }
    fn advance(&self, seen: Fenced, tag: u16) -> Result<Fence, Fenced> {
        let fence = successor(seen.fence);
        self.install(seen, Fenced { fence, tag }).map(|()| fence)
    }
    fn retag(&self, seen: Fenced, tag: u16) -> Result<(), Fenced> {
        let fence = seen.fence;
        self.install(seen, Fenced { fence, tag })
    }
}

/// Two threads advance from the same view while a third retags from
/// the view one transition older — two racing promotions (or cutovers)
/// and a late death report. In every interleaving exactly one advance
/// wins, with the successor of the view it read; the stale retag fails;
/// and the final word is the winner's, as if the three had run one at
/// a time.
fn fenced_word_race<W: Word>() {
    let word = Arc::new(W::fresh());
    let stale = word.load();
    word.advance(stale, 0).expect("no rival yet");
    let seen = word.load();
    let advancers = [1, 2].map(|tag| {
        let word = Arc::clone(&word);
        thread::spawn(move || word.advance(seen, tag).ok().map(|fence| (fence, tag)))
    });
    let retag = word.retag(stale, 3);
    let winners: Vec<(Fence, u16)> = advancers.into_iter().filter_map(|t| t.join()).collect();
    assert_eq!(winners.len(), 1, "two advances won from one view");
    let (fence, tag) = winners[0];
    assert_eq!(fence, successor(seen.fence), "the winner skipped a fence");
    assert!(retag.is_err(), "a retag from a superseded view landed");
    assert_eq!(word.load(), Fenced { fence, tag }, "no serial outcome");
}

#[test]
fn racing_advances_on_a_fenced_word_have_one_winner() {
    let report = Builder::new().check(fenced_word_race::<FencedWord>);
    assert!(!report.truncated, "exploration truncated: {report:?}");
    eprintln!("fenced word race model: {} executions", report.executions);
}

/// The twin: the same race over a load-then-store advance is caught as
/// two winners.
#[test]
fn a_load_then_store_advance_is_found() {
    let v = Builder::new().expect_violation(fenced_word_race::<LoadThenStore>);
    assert!(v.message.contains("two advances won"), "{v}");
    eprintln!("load-then-store advance found in execution {}", v.execution);
}

/// The operations the handshake model drives, so one scenario runs over
/// the real [`Handshake`] and over its twins' test-local ack words. The
/// default `follow`/`settled` restate the real ones over `ack`/`acked`
/// for the twins; the real impl runs its own.
trait Acks: Send + Sync + 'static {
    fn fresh() -> Self;
    /// The generation word, which every impl keeps in a real handshake.
    fn round(&self) -> &Handshake;
    fn ack(&self, who: usize, generation: Fence, payload: u64);
    fn acked(&self, who: usize) -> Option<(Fence, u64)>;

    fn follow(&self, who: usize, seen: &mut Fence, step: impl FnOnce(Fence) -> Option<u64>) {
        let generation = self.round().current();
        if generation != *seen {
            if let Some(payload) = step(generation) {
                *seen = generation;
                self.ack(who, generation, payload);
            }
        }
    }

    fn settled(&self, generation: Fence, who: &[usize], payloads: &mut [u64]) -> bool {
        who.iter()
            .zip(payloads)
            .all(|(&who, slot)| match self.acked(who) {
                Some((acked, payload)) if acked == generation => {
                    *slot = payload;
                    true
                }
                _ => false,
            })
    }
}

impl Acks for Handshake {
    fn fresh() -> Self {
        Handshake::new(2)
    }
    fn round(&self) -> &Handshake {
        self
    }
    fn ack(&self, who: usize, generation: Fence, payload: u64) {
        Handshake::ack(self, who, generation, payload)
    }
    fn acked(&self, who: usize) -> Option<(Fence, u64)> {
        Handshake::acked(self, who)
    }
    fn follow(&self, who: usize, seen: &mut Fence, step: impl FnOnce(Fence) -> Option<u64>) {
        Handshake::follow(self, who, seen, step);
    }
    fn settled(&self, generation: Fence, who: &[usize], payloads: &mut [u64]) -> bool {
        Handshake::settled(self, generation, who, payloads)
    }
}

/// The first twin's acks. BUG under test: the generation and the
/// payload are two words, and the generation is stored first — a
/// reader between the two stores pairs the new generation with the
/// previous one's payload.
struct GenerationBeforePayload {
    round: Handshake,
    acks: [(AtomicU64, AtomicU64); 2],
}

impl Acks for GenerationBeforePayload {
    fn fresh() -> Self {
        let word = || (AtomicU64::new(0), AtomicU64::new(0));
        GenerationBeforePayload {
            round: Handshake::new(0),
            acks: [word(), word()],
        }
    }
    fn round(&self) -> &Handshake {
        &self.round
    }
    fn ack(&self, who: usize, generation: Fence, payload: u64) {
        self.acks[who]
            .0
            .store(u64::from(generation), Ordering::Release);
        self.acks[who].1.store(payload, Ordering::Release);
    }
    fn acked(&self, who: usize) -> Option<(Fence, u64)> {
        let generation = self.acks[who].0.load(Ordering::Acquire);
        let payload = self.acks[who].1.load(Ordering::Acquire);
        (generation != 0).then(|| (Fence::from_wire(generation), payload))
    }
}

/// The second twin's acks. BUG under test: the packed word is stored
/// Relaxed, so under store buffering the ack can become visible before
/// the work it acknowledges.
struct RelaxedAck {
    round: Handshake,
    acks: [AtomicU64; 2],
}

impl Acks for RelaxedAck {
    fn fresh() -> Self {
        RelaxedAck {
            round: Handshake::new(0),
            acks: [AtomicU64::new(0), AtomicU64::new(0)],
        }
    }
    fn round(&self) -> &Handshake {
        &self.round
    }
    fn ack(&self, who: usize, generation: Fence, payload: u64) {
        let word = u64::from(generation) << 40 | payload;
        self.acks[who].store(word, Ordering::Relaxed);
    }
    fn acked(&self, who: usize) -> Option<(Fence, u64)> {
        match self.acks[who].load(Ordering::Acquire) {
            0 => None,
            word => Some((Fence::from_wire(word >> 40), word & ((1 << 40) - 1))),
        }
    }
}

/// What participant `who` acks `generation` with: both, so a payload
/// names the generation it belongs to.
fn payload_of(who: usize, generation: Fence) -> u64 {
    10 * u64::from(generation) + who as u64
}

/// `participants` follow the handshake for two passes each — doing
/// their "work" (a Relaxed store of the generation they saw), then
/// acking — while the coordinator, having begun a first generation,
/// begins a second and polls `settled` on it. Whenever it reports the
/// second generation settled, every payload must be that generation's
/// and every participant's work for it visible.
fn handshake_round<H: Acks>(participants: usize) {
    let acks = Arc::new(H::fresh());
    let work = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
    acks.round().begin();
    let threads: Vec<_> = (0..participants)
        .map(|who| {
            let (acks, work) = (Arc::clone(&acks), Arc::clone(&work));
            thread::spawn(move || {
                let mut seen = Fence::default();
                for _ in 0..2 {
                    acks.follow(who, &mut seen, |generation| {
                        work[who].store(u64::from(generation), Ordering::Relaxed);
                        Some(payload_of(who, generation))
                    });
                }
            })
        })
        .collect();
    let next = acks.round().begin();
    let who: Vec<usize> = (0..participants).collect();
    let mut payloads = vec![0; participants];
    for _ in 0..3 {
        if acks.settled(next, &who, &mut payloads) {
            let current: Vec<u64> = who.iter().map(|&who| payload_of(who, next)).collect();
            assert_eq!(
                payloads, current,
                "settled paired a generation with an older payload"
            );
            for slot in &work[..participants] {
                let done = slot.load(Ordering::Acquire);
                assert_eq!(
                    done,
                    u64::from(next),
                    "an ack overtook the work it acknowledges"
                );
            }
            break;
        }
        thread::yield_now();
    }
    for participant in threads {
        participant.join();
    }
}

/// Two participants under sequential consistency, one under store
/// buffering (two there exceed any reasonable exploration budget).
#[test]
fn a_settled_handshake_reports_only_the_current_generation() {
    for (weak, participants) in [(false, 2), (true, 1)] {
        let report = Builder::new()
            .with_weak_memory(weak)
            .check(move || handshake_round::<Handshake>(participants));
        assert!(!report.truncated, "exploration truncated: {report:?}");
        eprintln!(
            "handshake model (weak={weak}): {} executions",
            report.executions
        );
    }
}

/// The first twin: storing the generation before the payload is caught
/// pairing the new generation with the previous one's payload.
#[test]
fn a_generation_stored_before_its_payload_is_found() {
    let v = Builder::new().expect_violation(|| handshake_round::<GenerationBeforePayload>(2));
    assert!(v.message.contains("older payload"), "{v}");
    eprintln!(
        "generation-before-payload ack found in execution {}",
        v.execution
    );
}

/// The second twin: a Relaxed ack store is caught under store buffering
/// becoming visible before the work it acknowledges — and passes
/// without buffering, so the ordering is what the model catches.
#[test]
fn a_relaxed_ack_is_found_under_store_buffering() {
    let strong = Builder::new().check(|| handshake_round::<RelaxedAck>(1));
    assert!(!strong.truncated, "exploration truncated: {strong:?}");
    let v = Builder::new()
        .with_weak_memory(true)
        .expect_violation(|| handshake_round::<RelaxedAck>(1));
    assert!(v.message.contains("overtook the work"), "{v}");
    eprintln!("relaxed ack found in execution {}", v.execution);
}
