//! The one clock a client's waits read — a retry budget's deadline, a
//! retry pause, a failover's unavailability window — and the one
//! blocking driver, [`block_on`], under every blocking call.
//!
//! It reads [`mono_ns`] unless the thread runs a stepped driver, which
//! owns the time: [`Stepped::start`] sets the clock to zero, and the
//! driver advances it between moves. A pending [`sleep_until`] leaves
//! its wake time for whichever driver polls it ([`take_wake`]):
//! [`block_on`] sleeps until then, a stepped one may jump there once
//! nothing else can move. Only waits read this clock, never a hot path:
//! `TimedGet` stamps and the latency histograms keep `mono_ns`.
//!
//! Every other wait is one [`until`] over a non-blocking poll — a ring
//! slot's stamp, a hub's round-robin pass, a reply's continuation
//! frames — which [`block_on`] paces on a [`SpinWait`], a fresh one for
//! each wait: spin, then yield, and under `--cfg ssync_chk` one model
//! yield per failed poll.

use core::cell::Cell;
use core::future::{poll_fn, Future};
use core::pin::pin;
use core::task::{Context, Poll, Waker};
use core::time::Duration;

use crate::stats::mono_ns;
use crate::SpinWait;

thread_local! {
    /// The stepped driver's time on this thread; `None` on real time.
    static STEPPED: Cell<Option<u64>> = const { Cell::new(None) };
    /// The earliest wake a pending pause asked for since the driver
    /// last took it.
    static WAKE: Cell<Option<u64>> = const { Cell::new(None) };
    /// Set by a wait's first pending poll: [`block_on`] starts that
    /// wait's pacing afresh.
    static FRESH: Cell<bool> = const { Cell::new(false) };
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

/// Polls `body` to completion on the caller's stack, pacing its waits:
/// a retry pause sleeps until its wake time, and every other wait spins
/// on a [`SpinWait`], a fresh one for each wait.
pub fn block_on<F: Future>(body: F) -> F::Output {
    let mut body = pin!(body);
    let mut cx = Context::from_waker(Waker::noop());
    let mut wait = SpinWait::new();
    loop {
        if let Poll::Ready(out) = body.as_mut().poll(&mut cx) {
            return out;
        }
        if let Some(at) = take_wake() {
            std::thread::sleep(Duration::from_nanos(at.saturating_sub(mono_ns())));
            continue;
        }
        if FRESH.take() {
            wait = SpinWait::new();
        }
        wait.snooze();
    }
}

/// A wait's pending poll; `first` is the wait's own mark, cleared by
/// its first pending poll, which [`block_on`] paces afresh.
pub fn pending<T>(first: &mut bool) -> Poll<T> {
    if core::mem::take(first) {
        FRESH.set(true);
    }
    Poll::Pending
}

/// One wait: pending until `ready`, a non-blocking query asked once a
/// poll, returns a value.
pub fn until<T>(mut ready: impl FnMut() -> Option<T>) -> impl Future<Output = T> {
    let mut first = true;
    poll_fn(move |_| ready().map_or_else(|| pending(&mut first), Poll::Ready))
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
