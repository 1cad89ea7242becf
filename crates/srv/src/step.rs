//! Driving client operations, and stepping a whole system on one
//! thread.
//!
//! A client operation is one `async fn` with its protocol in order
//! ([`Conn::call`](crate::Conn::call), [`chase`](crate::chase),
//! [`KvClient::exchange`](crate::KvClient::exchange)). Every wait in it
//! is an `.await` on a non-blocking query: [`until`] a ring has a
//! frame or room, or [`RetryPacer::pause`](ssync_core::RetryPacer::pause)
//! until the [`clock`] reaches a wake time. Two drivers poll such a
//! future with [`Waker::noop`]:
//!
//! * [`block_on`], under every blocking client call, paces each wait as
//!   a blocking loop would: a fresh [`SpinWait`] per wait, and a pause
//!   slept out on real time;
//! * [`play`] steps clients, nodes and a migration coordinator on one
//!   thread, each a [`Step`], in a chosen order, on a stepped clock it
//!   owns. [`enumerate`] hands every order of a schedule's first moves
//!   to a `play`, which is how the stepped enumerations of the
//!   replication and cluster crates run real clients against real
//!   nodes.

use core::cell::Cell;
use core::future::{poll_fn, Future};
use core::pin::{pin, Pin};
use core::task::{Context, Poll, Waker};
use core::time::Duration;

use ssync_core::stats::mono_ns;
use ssync_core::{clock, SpinWait};
use ssync_kv::KvStore;
use ssync_locks::RawLock;
use ssync_mp::{MsgReceiver, MsgSender};

use crate::node::{Hooks, NodeCore, Turn};

thread_local! {
    /// Set by a wait's first pending poll: [`block_on`] starts that
    /// wait's pacing afresh.
    static FRESH: Cell<bool> = const { Cell::new(false) };
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
        if let Some(at) = clock::take_wake() {
            std::thread::sleep(Duration::from_nanos(at.saturating_sub(mono_ns())));
            continue;
        }
        if FRESH.take() {
            wait = SpinWait::new();
        }
        wait.snooze();
    }
}

/// One wait: pending until `ready`, a non-blocking query asked once a
/// poll, returns a value.
pub fn until<T>(mut ready: impl FnMut() -> Option<T>) -> impl Future<Output = T> {
    let mut fresh = true;
    poll_fn(move |_| match ready() {
        Some(out) => Poll::Ready(out),
        None => {
            if core::mem::take(&mut fresh) {
                FRESH.set(true);
            }
            Poll::Pending
        }
    })
}

/// One actor of a [`play`]: it moves without ever waiting, and says
/// what the move did in a node's terms.
pub trait Step {
    /// Moves once. After [`Turn::Exit`] the actor is not moved again.
    fn step(&mut self) -> Turn;
}

/// A node: its core, its store and its hooks; a move is one
/// [`NodeCore::turn`].
impl<C, S, R, H> Step for (NodeCore<C, S>, &KvStore<R>, H)
where
    C: MsgReceiver,
    S: MsgSender,
    R: RawLock + Default,
    H: Hooks,
{
    fn step(&mut self) -> Turn {
        let (core, store, hooks) = self;
        core.turn(store, hooks)
    }
}

/// An actor dropped once it exits, as a thread's state is when it
/// returns: a node's rings close behind it, so its peers and clients
/// see it gone.
impl<A: Step> Step for Option<A> {
    fn step(&mut self) -> Turn {
        let turn = self.as_mut().map_or(Turn::Exit, A::step);
        if turn == Turn::Exit {
            *self = None;
        }
        turn
    }
}

/// A client future: a move is one poll, [`Turn::Exit`] once it
/// returned, [`Turn::Idle`] while it waits.
impl<F: Future<Output = ()> + ?Sized> Step for Pin<&mut F> {
    fn step(&mut self) -> Turn {
        match self.as_mut().poll(&mut Context::from_waker(Waker::noop())) {
            Poll::Ready(()) => Turn::Exit,
            Poll::Pending => Turn::Idle,
        }
    }
}

/// How far a [`play`]'s clock moves per round of moves.
pub const QUANTUM: Duration = Duration::from_micros(100);

/// Moves `actors` on this thread: first as `prefix` names them (by
/// index), then round-robin for at most `rounds` rounds, never moving
/// an actor again once it has exited. The thread's [`clock`] is
/// stepped meanwhile: it starts at zero, moves one [`QUANTUM`] per
/// `actors.len()` moves, and after a round in which no actor made
/// progress, to the earliest wake a pending pause asked for. Returns
/// true once every actor has exited.
///
/// # Panics
///
/// Panics if `prefix` names an actor out of range.
pub fn play(actors: &mut [&mut dyn Step], prefix: &[usize], rounds: usize) -> bool {
    let time = clock::Stepped::start();
    let n = actors.len();
    let mut exited = vec![false; n];
    let mut live = n;
    let mut stuck = true;
    let order = prefix.iter().copied().chain((0..rounds * n).map(|m| m % n));
    for (moves, actor) in order.enumerate() {
        if !exited[actor] {
            match actors[actor].step() {
                Turn::Exit => {
                    exited[actor] = true;
                    live -= 1;
                    stuck = false;
                }
                Turn::Progress => stuck = false,
                Turn::Idle => {}
            }
        }
        if live == 0 {
            return true;
        }
        if (moves + 1) % n == 0 {
            time.advance(QUANTUM.as_nanos() as u64);
            if let Some(wake) = clock::take_wake().filter(|_| stuck) {
                time.advance_to(wake);
            }
            stuck = true;
        }
    }
    false
}

/// Every order of the first `depth` moves among `actors` actors, each
/// handed as a prefix to `schedule` (which builds its system and
/// [`play`]s it): `actors`^`depth` schedules, schedule `i` moving actor
/// `i / actors^j % actors` at move `j`. Returns every schedule's result,
/// or the first failure with the prefix that found it.
///
/// # Errors
///
/// The first schedule's error, followed by its prefix.
pub fn enumerate<T>(
    actors: usize,
    depth: u32,
    mut schedule: impl FnMut(&[usize]) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    (0..actors.pow(depth))
        .map(|word| {
            let prefix: Vec<usize> = (0..depth).map(|j| word / actors.pow(j) % actors).collect();
            schedule(&prefix).map_err(|failure| format!("{failure} after {prefix:?}"))
        })
        .collect()
}
