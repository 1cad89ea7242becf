//! The one clock a client's waits read: a retry budget's deadline, a
//! retry pause, a failover's unavailability window.
//!
//! It reads [`mono_ns`] unless the thread runs a stepped driver, which
//! owns the time: [`Stepped::start`] sets the clock to zero, and the
//! driver advances it between moves. A pending [`sleep_until`] leaves
//! its wake time for whichever driver polls it ([`take_wake`]): a
//! blocking driver sleeps until then, a stepped one may jump there once
//! nothing else can move. Only waits read this clock, never a hot path:
//! `TimedGet` stamps and the latency histograms keep `mono_ns`.

use core::cell::Cell;
use core::future::poll_fn;
use core::task::Poll;

use crate::stats::mono_ns;

thread_local! {
    /// The stepped driver's time on this thread; `None` on real time.
    static STEPPED: Cell<Option<u64>> = const { Cell::new(None) };
    /// The earliest wake a pending pause asked for since the driver
    /// last took it.
    static WAKE: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Nanoseconds on this thread's clock.
pub fn now_ns() -> u64 {
    STEPPED.get().unwrap_or_else(mono_ns)
}

/// Pending until [`now_ns`] reaches `at`; each pending poll leaves `at`
/// for the driver's [`take_wake`].
pub async fn sleep_until(at: u64) {
    poll_fn(|_| {
        if now_ns() >= at {
            return Poll::Ready(());
        }
        WAKE.set(Some(WAKE.get().map_or(at, |wake| wake.min(at))));
        Poll::Pending
    })
    .await;
}

/// The earliest wake time a pending [`sleep_until`] asked for since the
/// last call, if any.
pub fn take_wake() -> Option<u64> {
    WAKE.take()
}

/// This thread's clock while a stepped driver owns it: from zero, moved
/// only by the driver, back to real time when dropped.
#[derive(Debug)]
pub struct Stepped(());

impl Stepped {
    /// Starts the thread's stepped clock at zero, with no wake pending.
    pub fn start() -> Stepped {
        STEPPED.set(Some(0));
        WAKE.set(None);
        Stepped(())
    }

    /// Moves the clock `ns` forward.
    pub fn advance(&self, ns: u64) {
        STEPPED.set(Some(now_ns() + ns));
    }

    /// Moves the clock to `at`, unless it is already past it.
    pub fn advance_to(&self, at: u64) {
        STEPPED.set(Some(now_ns().max(at)));
    }
}

impl Drop for Stepped {
    fn drop(&mut self) {
        STEPPED.set(None);
        WAKE.set(None);
    }
}
