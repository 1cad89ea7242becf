//! The one driver of every actor, and the blocking client call.
//!
//! Nodes, client futures and a migration coordinator are [`Step`]s: a
//! move never waits on a peer. One round loop moves a set of them, each
//! live actor once a round; what a round without progress does is all
//! that differs by driver: [`run`] paces a worker on real time, [`play`]
//! steps a [`clock`] it owns. [`block_on`] — `ssync_core`'s, re-exported
//! with [`until`] — drives one client future under every blocking call,
//! as it drives every blocking `ssync-mp` send and receive: a fresh
//! [`SpinWait`] per wait and a
//! [`RetryPacer::pause`](ssync_core::RetryPacer::pause) slept out.

use core::future::Future;
use core::pin::Pin;
use core::task::{Context, Poll, Waker};
use core::time::Duration;

pub use ssync_core::clock::{block_on, until};
use ssync_core::{clock, ParkingWait, SpinWait};

use crate::node::Turn;

/// One actor: a move never waits on a peer, and says what it did.
pub trait Step {
    /// Moves once. After [`Turn::Exit`] the actor is not moved again.
    fn step(&mut self) -> Turn;

    /// May its [`run`] worker park? Not while a client waits on it.
    fn may_park(&self) -> bool {
        true
    }

    /// Its [`run`] worker is about to park: cold housekeeping.
    fn parking(&mut self) {}
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

/// The one round loop: moves `actors` in `order` (indices), skipping
/// those that exited, and after every round of `actors.len()` moves
/// calls `end_round` with which have exited and whether the round made
/// no progress. True once every actor has exited, false if `order` ends
/// first.
fn rounds<A: Step + ?Sized>(
    actors: &mut [&mut A],
    order: impl IntoIterator<Item = usize>,
    mut end_round: impl FnMut(&mut [&mut A], &[bool], bool),
) -> bool {
    let n = actors.len();
    let mut exited = vec![false; n];
    let (mut live, mut left, mut stuck) = (n, n, true);
    for actor in order {
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
        left -= 1;
        if left == 0 {
            end_round(actors, &exited, stuck);
            (left, stuck) = (n, true);
        }
    }
    false
}

/// Moves `actors` on real time until every one has exited, dealt to
/// `min(actors, available_parallelism)` workers — actor `i` to worker
/// `i % workers`, the calling thread being worker 0 — and never moved
/// between workers, so a node writes its store from one thread, the
/// only thread that writes it (a debug build checks that: a node's
/// turn holds its store's writer claim,
/// [`ssync_kv::KvStore::claim_writer`]). After a round without progress
/// a worker spins and yields while an actor may not park
/// ([`Step::may_park`]), else waits on a [`ParkingWait`], which parks
/// only after milliseconds idle, each park after [`Step::parking`].
///
/// # Panics
///
/// Re-raises an actor's panic once every worker has returned.
pub fn run<A: Step + Send + ?Sized>(actors: &mut [&mut A]) {
    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let mut shares: Vec<Vec<&mut A>> = (0..parallelism.min(actors.len())).map(|_| vec![]).collect();
    let workers = shares.len();
    for (i, actor) in actors.iter_mut().enumerate() {
        shares[i % workers].push(&mut **actor);
    }
    std::thread::scope(|s| {
        let mut shares = shares.into_iter();
        let mine = shares.next();
        for share in shares {
            s.spawn(|| paced(share));
        }
        if let Some(share) = mine {
            paced(share);
        }
    });
}

/// One [`run`] worker.
fn paced<A: Step + ?Sized>(mut actors: Vec<&mut A>) {
    let (mut owing, mut wait) = (SpinWait::new(), ParkingWait::new());
    let n = actors.len();
    rounds(&mut actors, (0..n).cycle(), |actors, exited, stuck| {
        let live = (0..actors.len()).filter(|&i| !exited[i]);
        if !stuck {
            owing = SpinWait::new();
            wait.reset();
        } else if live.clone().any(|i| !actors[i].may_park()) {
            owing.snooze();
        } else {
            if wait.parked() {
                live.for_each(|i| actors[i].parking());
            }
            wait.snooze();
        }
    });
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
    let order = prefix.iter().copied().chain((0..rounds * n).map(|m| m % n));
    self::rounds(actors, order, |_, _, stuck| {
        time.advance(QUANTUM.as_nanos() as u64);
        if let Some(wake) = clock::take_wake().filter(|_| stuck) {
            time.advance_to(wake);
        }
    })
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
