//! One coordinator-written generation and one padded ack per
//! participant: "I moved on — who has seen it?", written once.
//!
//! Every word has one writer and its own line, so a coordinator polling
//! the acks reads lines only their owners write (the paper's
//! message-passing shape). [`Handshake::begin`] is a Release
//! `fetch_add` and [`Handshake::current`] an Acquire load, so a
//! participant that reads generation g sees what the coordinator did
//! before beginning it; [`Handshake::ack`] is a Release store and
//! [`Handshake::acked`] an Acquire load, so a coordinator that reads an
//! ack sees what the participant did before sending it. An ack packs
//! `generation << 40 | payload` into one word: no reader pairs one
//! generation with another's payload, and an older generation's ack is
//! inert without being cleared. A generation is a [`Fence`].

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::{CachePadded, Fence};

/// Bits of an ack below its generation, which keeps the 24 above.
const PAYLOAD_BITS: u32 = 40;
const PAYLOAD_MAX: u64 = (1 << PAYLOAD_BITS) - 1;
const GENERATION_MAX: u64 = (1 << (64 - PAYLOAD_BITS)) - 1;

/// The generation after `raw`; panics past [`GENERATION_MAX`].
fn successor(raw: u64) -> Fence {
    assert!(raw < GENERATION_MAX, "24-bit generation exhausted");
    Fence(raw + 1)
}

/// A generation word and per-participant acks; see the [module docs](self).
pub struct Handshake {
    generation: CachePadded<AtomicU64>,
    acks: Box<[CachePadded<AtomicU64>]>,
}

impl Handshake {
    /// Generation 0 (below [`Fence::FIRST`]) and `participants` acks.
    pub fn new(participants: usize) -> Handshake {
        let generation = CachePadded::default();
        let acks = (0..participants).map(|_| CachePadded::default()).collect();
        Handshake { generation, acks }
    }

    /// Begins the next generation and returns it: one Release `fetch_add`.
    pub fn begin(&self) -> Fence {
        successor(self.generation.fetch_add(1, Ordering::Release))
    }

    /// [`Handshake::begin`] if the word still holds `seen`: one AcqRel
    /// CAS, so a refused begin stores nothing.
    ///
    /// # Errors
    ///
    /// The current generation, if it is no longer `seen`.
    pub fn try_begin(&self, seen: Fence) -> Result<Fence, Fence> {
        let (word, success, failure) = (&self.generation, Ordering::AcqRel, Ordering::Acquire);
        let result = word.compare_exchange(seen.0, seen.0 + 1, success, failure);
        result.map(successor).map_err(Fence)
    }

    /// The current generation: one Acquire load.
    pub fn current(&self) -> Fence {
        Fence(self.generation.load(Ordering::Acquire))
    }

    /// Participant `who` acks `generation` with `payload` (below 2⁴⁰):
    /// one Release store.
    pub fn ack(&self, who: usize, generation: Fence, payload: u64) {
        assert!(payload <= PAYLOAD_MAX, "ack payload exceeds 40 bits");
        let word = generation.0 << PAYLOAD_BITS | payload;
        self.acks[who].store(word, Ordering::Release);
    }

    /// `who`'s last `(generation, payload)`: one Acquire load, `None`
    /// before its first ack.
    pub fn acked(&self, who: usize) -> Option<(Fence, u64)> {
        match self.acks[who].load(Ordering::Acquire) {
            0 => None,
            word => Some((Fence(word >> PAYLOAD_BITS), word & PAYLOAD_MAX)),
        }
    }

    /// Non-blocking: true once every participant in `who` has acked
    /// `generation`, with `payloads[i]` holding `who[i]`'s payload. One
    /// [`Handshake::acked`] per participant up to the first that has
    /// not; nothing allocated.
    pub fn settled(&self, generation: Fence, who: &[usize], payloads: &mut [u64]) -> bool {
        assert_eq!(who.len(), payloads.len());
        for (&who, slot) in who.iter().zip(payloads) {
            match self.acked(who) {
                Some((acked, payload)) if acked == generation => *slot = payload,
                _ => return false,
            }
        }
        true
    }

    /// A participant's step: if the generation moved past `*seen`, runs
    /// `step` on it, and if that yields a payload records the generation
    /// in `*seen` and acks — so what `step` did precedes the ack's
    /// Release. Returns whether it acked (a `None` retries next call).
    pub fn follow(
        &self,
        who: usize,
        seen: &mut Fence,
        step: impl FnOnce(Fence) -> Option<u64>,
    ) -> bool {
        let generation = self.current();
        let Some(payload) = (generation != *seen).then(|| step(generation)).flatten() else {
            return false;
        };
        *seen = generation;
        self.ack(who, generation, payload);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_round() {
        let round = Handshake::new(2);
        let g = round.begin();
        let (mut seen, mut payloads) = (Fence::default(), [0; 2]);
        assert!(round.follow(1, &mut seen, |_| Some(7)));
        assert!(!round.settled(g, &[0, 1], &mut payloads), "0 has not acked");
        round.ack(0, g, 5);
        assert!(round.settled(g, &[0, 1], &mut payloads));
        assert_eq!(payloads, [5, 7]);
        let next = round.begin();
        assert!(
            !round.settled(next, &[0, 1], &mut payloads),
            "g's acks are inert"
        );
    }

    #[test]
    fn an_ack_packs_generation_over_payload() {
        let round = Handshake::new(1);
        assert_eq!(round.current(), Fence::default());
        assert_eq!(round.acked(0), None);
        let g = round.begin();
        assert_eq!(g, Fence::FIRST);
        round.ack(0, g, 0);
        assert_eq!(round.acked(0), Some((g, 0)), "payload 0 is not none");
        round.ack(0, g, PAYLOAD_MAX);
        assert_eq!(round.acked(0), Some((g, PAYLOAD_MAX)));
        let mut payload = [0];
        assert!(round.settled(g, &[0], &mut payload) && payload == [PAYLOAD_MAX]);
        assert!(round.settled(g, &[], &mut []), "nobody to wait for");
    }

    #[test]
    fn follow_acks_once_per_generation_and_retries_a_declined_step() {
        let round = Handshake::new(1);
        let mut seen = Fence::default();
        assert!(!round.follow(0, &mut seen, |_| Some(1)), "nothing begun");
        let g = round.begin();
        assert!(!round.follow(0, &mut seen, |_| None));
        assert_eq!((seen, round.acked(0)), (Fence::default(), None));
        assert!(round.follow(0, &mut seen, |at| Some(u64::from(at) + 40)));
        assert_eq!((seen, round.acked(0)), (g, Some((g, 41))));
        assert!(!round.follow(0, &mut seen, |_| unreachable!("already acked")));
    }

    #[test]
    fn a_refused_begin_stores_nothing() {
        let round = Handshake::new(0);
        let stale = round.current();
        let g = round.begin();
        assert_eq!(round.try_begin(stale), Err(g));
        assert_eq!(round.current(), g);
        let next = round.try_begin(g).unwrap();
        assert!(next > g);
        assert_eq!(round.current(), next);
    }

    #[test]
    #[should_panic(expected = "exceeds 40 bits")]
    fn an_oversized_payload_is_refused() {
        Handshake::new(1).ack(0, Fence::FIRST, PAYLOAD_MAX + 1);
    }
}
