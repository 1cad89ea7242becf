//! The workspace's atomic facade.
//!
//! Every lock-free path in the workspace imports its atomics from here
//! (directly, or through a crate-local `crate::sync` re-export) instead
//! of from `core::sync::atomic`:
//!
//! * **Production builds** re-export the real `core::sync::atomic`
//!   types. The facade is `pub use` only — codegen is byte-identical to
//!   importing std directly.
//! * **Under `RUSTFLAGS='--cfg ssync_chk'`** the same names resolve to
//!   the `ssync-chk` shadow atomics, which route every load/store/RMW
//!   through the model checker's deterministic scheduler whenever a
//!   model execution is active on the calling thread (and fall through
//!   to the real atomics otherwise, so ordinary tests still pass under
//!   the cfg).
//!
//! `Ordering` is the std enum in both configurations, so code mixing
//! facade atomics with explicitly std-imported `Ordering` still
//! compiles either way.

/// Model-aware spin hint. Production builds emit
/// `core::hint::spin_loop()`; under `--cfg ssync_chk` each call is one
/// scheduler yield instead. This is loom's rule applied here: a spin
/// loop that never yields looks to an exhaustive checker like an
/// unbounded run of one thread and trips the step limit, while a yield
/// suspends the spinner until some other thread makes a step — exactly
/// the fairness a real spin loop gets from the coherence fabric.
/// Every polling loop on a facade atomic must pause through this (or
/// through a `Backoff`/`SpinWait` flavor, which do the same).
#[inline]
pub fn cpu_relax() {
    #[cfg(ssync_chk)]
    ssync_chk::thread::yield_now();
    #[cfg(not(ssync_chk))]
    core::hint::spin_loop();
}

/// Declares the `len` bytes at `start` rewritten with new objects whose
/// atomics start from the values just written — a recycled block
/// about to hold a new item. Production builds do nothing. Under
/// `--cfg ssync_chk` the checker forgets the shadow locations it
/// tracked there (`ssync_chk::sync::reinit`), which it keys by address:
/// otherwise a reused block's atomics would read, to the model, as the
/// dead object's last values. Not a scheduling point.
#[inline]
pub fn reinit(start: *const u8, len: usize) {
    #[cfg(ssync_chk)]
    ssync_chk::sync::reinit(start, len);
    #[cfg(not(ssync_chk))]
    let _ = (start, len);
}

#[cfg(not(ssync_chk))]
pub mod atomic {
    pub use core::sync::atomic::{
        AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering,
    };
}

#[cfg(ssync_chk)]
pub mod atomic {
    pub use ssync_chk::sync::atomic::{
        AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering,
    };
}
