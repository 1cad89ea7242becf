//! Fencing tokens, and the one word that issues them.
//!
//! A [`Fence`] is a fencing token — a term, an epoch: a counter that only
//! grows, carried by every decision that must not act on a superseded
//! view. It is not a memory fence; the orderings live on [`FencedWord`],
//! the padded line a protocol's transitions go through: `fence << 16 |
//! tag` in one atomic word, read with one Acquire load, changed by one
//! AcqRel CAS per transition. The 16-bit tag is the protocol's own; the
//! 48-bit fence never wraps in a realizable run, so comparing two fences
//! is the whole staleness check. A `Fence` is therefore only copied and
//! compared with another `Fence`, and converts only through
//! [`Fence::from_wire`] (the codec's decode) and `u64::from`:
//!
//! ```compile_fail,E0369
//! let _ = ssync_core::Fence::FIRST + 1; // no `Add`
//! ```
//! ```compile_fail,E0369
//! let _ = ssync_core::Fence::FIRST - ssync_core::Fence::FIRST; // no `Sub`
//! ```
//! ```compile_fail,E0599
//! let _ = ssync_core::Fence::FIRST.wrapping_add(1); // no integer methods
//! ```
//! ```compile_fail,E0308
//! let _ = ssync_core::Fence::FIRST > 1u64; // no `PartialOrd<u64>`
//! ```
//!
//! A larger fence comes only from [`FencedWord::try_advance`]:
//!
//! ```
//! use ssync_core::fenced::{Fenced, FencedWord};
//!
//! let word = FencedWord::new(7);
//! let seen = word.load();
//! let next = word.try_advance(seen, 8).expect("no rival transition");
//! assert!(next > seen.fence);
//! assert_eq!(word.load(), Fenced { fence: next, tag: 8 });
//! // A transition from the superseded view loses, and sees the winner's.
//! assert_eq!(word.try_advance(seen, 9), Err(word.load()));
//! ```

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::CachePadded;

/// Bits of the word below the fence: the protocol's tag.
const TAG_BITS: u32 = 16;

/// The largest fence a word can hold.
const FENCE_MAX: u64 = (1 << (64 - TAG_BITS)) - 1;

/// A fencing token: a term, an epoch — never a memory fence. The default
/// is 0, below every fence a word holds. See the [module docs](self).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Fence(u64);

impl Fence {
    /// The fence every [`FencedWord`] starts at.
    pub const FIRST: Fence = Fence(1);

    /// A fence another party put on the wire. Any `u64` is accepted, so
    /// a decode stays total: a fence is only compared, never packed back.
    #[inline]
    pub const fn from_wire(raw: u64) -> Fence {
        Fence(raw)
    }
}

impl From<Fence> for u64 {
    #[inline]
    fn from(fence: Fence) -> u64 {
        fence.0
    }
}

/// One read of a [`FencedWord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fenced {
    /// The word's fence.
    pub fence: Fence,
    /// The protocol's 16 bits beside it.
    pub tag: u16,
}

impl Fenced {
    #[inline]
    fn pack(self) -> u64 {
        debug_assert!(self.fence.0 <= FENCE_MAX);
        self.fence.0 << TAG_BITS | u64::from(self.tag)
    }

    #[inline]
    fn unpack(word: u64) -> Fenced {
        let (fence, tag) = (Fence(word >> TAG_BITS), word as u16);
        Fenced { fence, tag }
    }
}

/// A fence and a tag in one padded atomic word; every transition is one
/// CAS from the value the caller last read.
pub struct FencedWord {
    word: CachePadded<AtomicU64>,
}

impl FencedWord {
    /// A word at [`Fence::FIRST`] carrying `tag`.
    pub fn new(tag: u16) -> FencedWord {
        let fence = Fence::FIRST;
        let word = CachePadded::new(AtomicU64::new(Fenced { fence, tag }.pack()));
        FencedWord { word }
    }

    /// The fence and tag, in one Acquire load.
    #[inline]
    pub fn load(&self) -> Fenced {
        Fenced::unpack(self.word.load(Ordering::Acquire))
    }

    /// Installs `tag` under the successor of `seen`'s fence if the word
    /// still holds `seen` — one AcqRel CAS, the linearization point of the
    /// caller's transition, so of racing advances from one view exactly
    /// one wins. A loser gets the word's current value. Panics if `seen`
    /// holds the largest fence, 2⁴⁸ − 1.
    ///
    /// # Errors
    ///
    /// The current value, if it no longer equals `seen`.
    #[inline]
    pub fn try_advance(&self, seen: Fenced, tag: u16) -> Result<Fence, Fenced> {
        assert!(seen.fence.0 < FENCE_MAX, "48-bit fence exhausted");
        let fence = Fence(seen.fence.0 + 1);
        self.cas(seen, Fenced { fence, tag }).map(|()| fence)
    }

    /// [`FencedWord::try_advance`]'s CAS with the fence unchanged.
    ///
    /// # Errors
    ///
    /// The current value, if it no longer equals `seen`.
    #[inline]
    pub fn try_retag(&self, seen: Fenced, tag: u16) -> Result<(), Fenced> {
        let fence = seen.fence;
        self.cas(seen, Fenced { fence, tag })
    }

    #[inline]
    fn cas(&self, seen: Fenced, next: Fenced) -> Result<(), Fenced> {
        let (current, new) = (seen.pack(), next.pack());
        let (success, failure) = (Ordering::AcqRel, Ordering::Acquire);
        let result = self.word.compare_exchange(current, new, success, failure);
        result.map(drop).map_err(Fenced::unpack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_word_packs_fence_over_tag() {
        let word = FencedWord::new(0xFFFF);
        let seen = word.load();
        assert_eq!((seen.fence, seen.tag), (Fence::FIRST, 0xFFFF));
        assert_eq!(word.try_retag(seen, 3), Ok(()));
        let retagged = word.load();
        assert_eq!((retagged.fence, retagged.tag), (Fence::FIRST, 3));
        assert_eq!(word.try_retag(seen, 4), Err(retagged), "superseded");
        let next = word.try_advance(retagged, 0).unwrap();
        assert_eq!(u64::from(next), 2);
        assert_eq!(Fence::from_wire(u64::from(next)), next);
    }

    #[test]
    #[should_panic(expected = "48-bit fence exhausted")]
    fn the_last_fence_cannot_advance() {
        let word = FencedWord::new(0);
        let last = Fenced {
            fence: Fence::from_wire(FENCE_MAX),
            tag: 0,
        };
        let _ = word.try_advance(last, 0);
    }
}
