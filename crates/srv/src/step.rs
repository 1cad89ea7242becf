//! The one driver of every actor, and the blocking client call.
//!
//! Nodes, client futures and a migration coordinator are [`Step`]s: a
//! move never waits on a peer. One round loop moves a set of them, each
//! live actor once a round; what a round without progress does is all
//! that differs by driver: [`run`] paces a worker on real time, [`play`]
//! steps a [`clock`] it owns. Faults are things the driver does to an
//! actor between its moves: [`Crash`] drops it, [`Pause`] skips its
//! moves for some rounds. [`block_on`] — `ssync_core`'s, re-exported
//! with [`until`] — drives one client future under every blocking call,
//! as it drives every blocking `ssync-mp` send and receive: a fresh
//! [`SpinWait`] per wait and a
//! [`RetryPacer::pause`](ssync_core::RetryPacer::pause) slept out.

use core::future::Future;
use core::pin::Pin;
use core::sync::atomic::{AtomicBool, Ordering};
use core::task::{Context, Poll, Waker};
use core::time::Duration;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

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

/// An actor the driver crashes: before each move it asks `due`, and at
/// its first answer — the actor's last words, such as its report — it
/// drops the actor, closing every ring it held, and counts it exited.
/// Like [`Pause`]'s, `due` reads only what the system published, never
/// the time, so a seeded run faults alike under [`run`] and [`play`].
pub struct Crash<S, T, F> {
    /// The actor, or its last words once it has crashed.
    pub state: Result<S, T>,
    due: F,
}

impl<S: Step, T, F: FnMut(&S) -> Option<T>> Crash<S, T, F> {
    /// `actor`, crashed at `due`'s first answer.
    pub fn new(actor: S, due: F) -> Self {
        let state = Ok(actor);
        Crash { state, due }
    }
}

impl<S: Step, T, F: FnMut(&S) -> Option<T>> Step for Crash<S, T, F> {
    fn step(&mut self) -> Turn {
        if let Ok(actor) = &mut self.state {
            match (self.due)(actor) {
                None => return actor.step(),
                Some(last) => self.state = Err(last),
            }
        }
        Turn::Exit
    }

    fn may_park(&self) -> bool {
        self.state.as_ref().map_or(true, Step::may_park)
    }

    fn parking(&mut self) {
        if let Ok(actor) = &mut self.state {
            actor.parking();
        }
    }
}

/// An actor the driver pauses: before a move it asks `due` for a number
/// of rounds, and answers [`Turn::Idle`] for the actor that many moves,
/// this one included, before it asks again.
pub struct Pause<S, F> {
    /// The actor.
    pub actor: S,
    /// How many pauses `due` has put it through.
    pub pauses: u64,
    due: F,
    left: usize,
}

impl<S: Step, F: FnMut() -> usize> Pause<S, F> {
    /// `actor`, paused whenever `due` answers more than 0 rounds.
    pub fn new(actor: S, due: F) -> Self {
        let (pauses, left) = (0, 0);
        Pause {
            actor,
            pauses,
            due,
            left,
        }
    }
}

impl<S: Step, F: FnMut() -> usize> Step for Pause<S, F> {
    fn step(&mut self) -> Turn {
        if self.left == 0 {
            self.left = (self.due)();
            self.pauses += u64::from(self.left > 0);
        }
        if self.left == 0 {
            return self.actor.step();
        }
        self.left -= 1;
        Turn::Idle
    }

    fn may_park(&self) -> bool {
        self.actor.may_park()
    }

    fn parking(&mut self) {
        self.actor.parking();
    }
}

/// The one round loop: moves `actors` in `order` (indices), skipping
/// those that exited, and after every round of `actors.len()` moves
/// asks `end_round`, with which have exited and whether the round made
/// no progress, whether to go on. True once every actor has exited,
/// false if `order` or `end_round` ends it first.
fn rounds<A: Step + ?Sized>(
    actors: &mut [&mut A],
    order: impl IntoIterator<Item = usize>,
    mut end_round: impl FnMut(&mut [&mut A], &[bool], bool) -> bool,
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
            if !end_round(actors, &exited, stuck) {
                return false;
            }
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
/// An actor's panic ends the group: the panicking worker stops at once,
/// every other worker at its next round's end, leaving its actors
/// unmoved, and the first panic is re-raised once every worker has
/// returned. The caller's unwind then drops the actors it owns, so
/// their peers read them gone instead of waiting on them.
pub fn run<A: Step + Send + ?Sized>(actors: &mut [&mut A]) {
    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let mut shares: Vec<Vec<&mut A>> = (0..parallelism.min(actors.len())).map(|_| vec![]).collect();
    let workers = shares.len();
    for (i, actor) in actors.iter_mut().enumerate() {
        shares[i % workers].push(&mut **actor);
    }
    let (failed, first) = (AtomicBool::new(false), Mutex::new(None));
    let worker = |share| {
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| paced(share, &failed))) {
            failed.store(true, Ordering::Relaxed);
            if let Ok(mut first) = first.lock() {
                first.get_or_insert(panic);
            }
        }
    };
    std::thread::scope(|s| {
        let mut shares = shares.into_iter();
        let mine = shares.next();
        for share in shares {
            s.spawn(move || worker(share));
        }
        if let Some(share) = mine {
            worker(share);
        }
    });
    if let Some(panic) = first.into_inner().ok().flatten() {
        resume_unwind(panic);
    }
}

/// One [`run`] worker, until its actors have exited or `failed` is set.
fn paced<A: Step + ?Sized>(mut actors: Vec<&mut A>, failed: &AtomicBool) {
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
        !failed.load(Ordering::Relaxed)
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
        true
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::tests::within;
    use core::cell::Cell;

    /// Counts its moves, each one progress; never exits.
    struct Mover<'a>(&'a Cell<u32>);

    impl Step for Mover<'_> {
        fn step(&mut self) -> Turn {
            self.0.set(self.0.get() + 1);
            Turn::Progress
        }
    }

    /// A pause skips the moves it names and is counted; a crash stops
    /// the actor for good, keeping its last words, and counts as its
    /// exit, so the driver's group ends.
    #[test]
    fn a_pause_skips_moves_and_a_crash_ends_the_actor() {
        let moves = Cell::new(0);
        let mut first = true;
        let pause = move || if std::mem::take(&mut first) { 3 } else { 0 };
        let crash = |_: &Mover<'_>| (moves.get() == 5).then_some("last words");
        let mut actor = Pause::new(Crash::new(Mover(&moves), crash), pause);
        assert!(play(&mut [&mut actor], &[], 20), "the crash is an exit");
        assert_eq!(moves.get(), 5);
        assert_eq!(actor.pauses, 1);
        assert_eq!(actor.actor.state.err(), Some("last words"));
    }

    /// Idles forever, or panics at its last move.
    struct Idler(Option<u32>);

    impl Step for Idler {
        fn step(&mut self) -> Turn {
            if let Some(left) = &mut self.0 {
                *left -= 1;
                assert!(*left > 0, "an actor panicked mid-run");
            }
            Turn::Idle
        }
    }

    /// One actor of three panics; on one or two processors it shares a
    /// worker with an actor that never exits, and the third never exits
    /// either. `run` ends the group and re-raises the panic instead of
    /// waiting on them.
    #[test]
    fn a_panicking_actor_ends_its_group_and_its_panic_is_re_raised() {
        let raised = within(10, || {
            let (mut a, mut b, mut c) = (Idler(None), Idler(None), Idler(Some(100)));
            let group: &mut [&mut (dyn Step + Send)] = &mut [&mut a, &mut b, &mut c];
            catch_unwind(AssertUnwindSafe(|| run(group))).expect_err("the panic is re-raised")
        });
        let message = raised.downcast_ref::<&str>().copied();
        assert_eq!(message, Some("an actor panicked mid-run"));
    }
}
