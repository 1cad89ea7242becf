//! Back-off policies for spinning.
//!
//! The paper's `libslock` uses two flavours of back-off:
//!
//! * **Exponential** back-off in the test-and-test-and-set lock
//!   (Anderson \[4\], Herlihy & Shavit \[20\]): each failed attempt doubles
//!   the pause, bounded by a cap, which un-synchronizes the retries of the
//!   spinning cores and drains traffic off the contended line.
//! * **Proportional** back-off in the optimized ticket lock (Section 5.3,
//!   Figure 3): a ticket holder knows exactly how many threads are queued
//!   ahead (`ticket - current`), so it sleeps for a pause proportional to
//!   its queue position instead of re-reading the line continuously.

#[cfg(not(ssync_chk))]
use core::hint;

/// Under `--cfg ssync_chk`, every wait flavor degenerates to one model
/// scheduler yield: spinning is invisible to the checker (it is not a
/// shadow-atomic step), sleeping stalls the single-threaded exploration,
/// and the yield's loom-style semantics — not schedulable again until
/// another thread steps — are exactly what bounds a polling loop to one
/// retry per peer step. A loop that yields forever with no live peer is
/// reported as a livelock (lost wakeup).
#[cfg(ssync_chk)]
fn model_yield() {
    ssync_chk::thread::yield_now();
}

/// Bounded busy-wait for blocking poll loops: pure spinning for a
/// while (the fast path — a polled flag line is a local cache hit
/// until the peer writes it), then one OS yield per failed poll so
/// the loop stays live when threads outnumber cores. Without the
/// yield, a waiter on an oversubscribed host burns a full scheduling
/// quantum per handoff — on a single-core box that turns a
/// message-passing ping-pong from milliseconds into minutes.
///
/// Used by every blocking receive/send path in `ssync-mp` and the
/// server loops in `ssync-tm`/`ssync-ht`.
///
/// # Examples
///
/// ```
/// use ssync_core::SpinWait;
///
/// let mut ready = false; // stand-in for a polled flag
/// let mut wait = SpinWait::new();
/// while !ready {
///     ready = true; // poll the real condition here
///     wait.snooze();
/// }
/// ```
#[derive(Debug, Default)]
pub struct SpinWait {
    #[cfg_attr(ssync_chk, allow(dead_code))]
    polls: u32,
}

impl SpinWait {
    #[cfg_attr(ssync_chk, allow(dead_code))]
    const SPIN_LIMIT: u32 = 128;

    /// Starts a fresh wait (full spin budget).
    pub fn new() -> Self {
        Self { polls: 0 }
    }

    /// Call once per failed poll: spins while the budget lasts, then
    /// yields to the OS scheduler.
    pub fn snooze(&mut self) {
        #[cfg(ssync_chk)]
        model_yield();
        #[cfg(not(ssync_chk))]
        if self.polls < Self::SPIN_LIMIT {
            self.polls += 1;
            hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// Escalating wait for *server* poll loops that can sit idle for long
/// stretches: spin like [`SpinWait`], then yield a bounded number of
/// times, then park in short, doubling sleeps (capped at
/// [`ParkingWait::MAX_SLEEP_US`]).
///
/// The distinction from [`SpinWait`] matters on boxes where runnable
/// threads outnumber cores: a yield-looping idle thread re-enters the
/// run queue every scheduling cycle, taxing every busy thread with an
/// extra context switch *forever*. One idle server is noise; a
/// replication deployment's worth of them (R backups per shard plus
/// idle primaries on read-only phases) is a measurable per-op cost.
/// Parking removes them from the run queue entirely; the price is up
/// to one capped sleep of added latency on the first message after an
/// idle period, which `reset()` (call it after every successful poll)
/// keeps off the busy path.
#[derive(Debug, Default)]
pub struct ParkingWait {
    #[cfg_attr(ssync_chk, allow(dead_code))]
    polls: u32,
    sleep_us: u64,
}

impl ParkingWait {
    #[cfg_attr(ssync_chk, allow(dead_code))]
    const SPIN_LIMIT: u32 = 128;
    /// Yields before the first park. Deliberately long (milliseconds
    /// of idling on a loaded host): a server that is merely *between*
    /// requests must never sleep — only one idle on the scale of a
    /// workload phase should leave the run queue.
    #[cfg_attr(ssync_chk, allow(dead_code))]
    const YIELD_LIMIT: u32 = 2048;
    #[cfg_attr(ssync_chk, allow(dead_code))]
    const FIRST_SLEEP_US: u64 = 50;

    /// Longest single park, in microseconds — the worst-case latency a
    /// freshly arriving message pays after a long idle stretch.
    pub const MAX_SLEEP_US: u64 = 500;

    /// Starts fresh (full spin budget, no sleeping).
    pub fn new() -> Self {
        Self::default()
    }

    /// Call once per failed poll: spins, then yields, then parks in
    /// doubling sleeps.
    pub fn snooze(&mut self) {
        #[cfg(ssync_chk)]
        model_yield();
        #[cfg(not(ssync_chk))]
        if self.polls < Self::SPIN_LIMIT {
            self.polls += 1;
            hint::spin_loop();
        } else if self.polls < Self::SPIN_LIMIT + Self::YIELD_LIMIT {
            self.polls += 1;
            std::thread::yield_now();
        } else {
            let us = if self.sleep_us == 0 {
                Self::FIRST_SLEEP_US
            } else {
                (self.sleep_us * 2).min(Self::MAX_SLEEP_US)
            };
            self.sleep_us = us;
            std::thread::sleep(core::time::Duration::from_micros(us));
        }
    }

    /// True once the wait has escalated to parking: the caller has been
    /// idle for milliseconds, not merely between requests, so cold-path
    /// housekeeping (has a peer gone away?) costs nothing measurable
    /// here and nothing at all on a busy loop. Never true under the
    /// model checker, where every wait is one yield.
    pub fn parked(&self) -> bool {
        self.sleep_us > 0
    }

    /// Call after every successful poll: restores the full spin budget
    /// so a busy loop never sleeps.
    pub fn reset(&mut self) {
        self.polls = 0;
        self.sleep_us = 0;
    }
}

/// Default number of spin iterations corresponding to one "slot" of
/// proportional back-off — roughly the cost of an uncontended
/// acquire/release pair on the platforms of the paper.
pub const DEFAULT_SLOT_SPINS: u32 = 128;

/// Upper bound on a single exponential back-off pause, in spin iterations.
pub const DEFAULT_MAX_SPINS: u32 = 4096;

/// Exponential back-off state for TTAS-style spinning.
///
/// # Examples
///
/// ```
/// use ssync_core::Backoff;
///
/// let mut b = Backoff::new();
/// for _ in 0..4 {
///     b.spin(); // Pause, doubling each time.
/// }
/// assert!(b.current() > Backoff::new().current());
/// ```
#[derive(Debug, Clone)]
pub struct Backoff {
    current: u32,
    max: u32,
}

impl Backoff {
    /// Creates a back-off starting at a single-digit pause, capped at
    /// [`DEFAULT_MAX_SPINS`].
    pub const fn new() -> Self {
        Self::with_bounds(4, DEFAULT_MAX_SPINS)
    }

    /// Creates a back-off with explicit initial and maximum pause lengths
    /// (in spin-loop iterations).
    pub const fn with_bounds(initial: u32, max: u32) -> Self {
        Self {
            current: if initial == 0 { 1 } else { initial },
            max,
        }
    }

    /// Current pause length in spin iterations.
    pub fn current(&self) -> u32 {
        self.current
    }

    /// Pauses for the current duration and doubles it (up to the cap).
    pub fn spin(&mut self) {
        #[cfg(ssync_chk)]
        model_yield();
        #[cfg(not(ssync_chk))]
        for _ in 0..self.current {
            hint::spin_loop();
        }
        self.current = (self.current.saturating_mul(2)).min(self.max);
    }

    /// Resets the pause to its initial length.
    pub fn reset(&mut self) {
        let initial = 4.min(self.max);
        self.current = initial;
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Self::new()
    }
}

/// Proportional back-off for ticket locks.
///
/// A waiter that holds ticket `t` while the lock serves ticket `c` has
/// exactly `t - c` predecessors; pausing for `slot * (t - c)` iterations
/// lets it wake up approximately when its turn arrives (Mellor-Crummey &
/// Scott \[29\], and Section 5.3 of the paper).
#[derive(Debug, Clone, Copy)]
pub struct ProportionalBackoff {
    slot_spins: u32,
    max_spins: u32,
}

impl ProportionalBackoff {
    /// Creates a proportional back-off with the default slot length.
    pub const fn new() -> Self {
        Self {
            slot_spins: DEFAULT_SLOT_SPINS,
            max_spins: DEFAULT_SLOT_SPINS * 64,
        }
    }

    /// Creates a proportional back-off with an explicit slot length.
    pub const fn with_slot(slot_spins: u32) -> Self {
        Self {
            slot_spins,
            max_spins: slot_spins.saturating_mul(64),
        }
    }

    /// Number of spin iterations for a waiter `queued` positions from the
    /// head of the queue.
    pub fn spins_for(&self, queued: u64) -> u32 {
        let queued = queued.min(u64::from(u32::MAX)) as u32;
        queued.saturating_mul(self.slot_spins).min(self.max_spins)
    }

    /// Pauses proportionally to the queue distance.
    pub fn wait(&self, queued: u64) {
        #[cfg(ssync_chk)]
        {
            let _ = queued;
            model_yield();
        }
        #[cfg(not(ssync_chk))]
        for _ in 0..self.spins_for(queued) {
            hint::spin_loop();
        }
    }
}

impl Default for ProportionalBackoff {
    fn default() -> Self {
        Self::new()
    }
}

/// Deadline-bounded retry pacing with jittered exponential sleeps, for
/// *request* retry loops (client redirects, leaderless shards) rather
/// than cache-line spinning.
///
/// The jitter matters for the same reason exponential back-off does in
/// `libslock`'s TTAS lock, one layer up: when a primary dies, every
/// client of that shard notices at once, and un-jittered retries would
/// re-arrive in the same convoy each round. The jitter is drawn from a
/// private xorshift stream seeded by the caller, so retry *timing* is
/// randomized while the op sequence stays deterministic.
///
/// # Examples
///
/// ```
/// use core::time::Duration;
/// use ssync_core::RetryPacer;
///
/// let mut pacer = RetryPacer::new(Duration::from_millis(50), 7);
/// let mut attempts = 0;
/// loop {
///     attempts += 1; // try the request here
///     if attempts >= 3 || !pacer.pause() {
///         break; // success path or budget exhausted
///     }
/// }
/// assert!(attempts >= 1);
/// ```
#[derive(Debug)]
pub struct RetryPacer {
    deadline: std::time::Instant,
    #[cfg_attr(ssync_chk, allow(dead_code))]
    sleep_us: u64,
    #[cfg_attr(ssync_chk, allow(dead_code))]
    rng: u64,
}

impl RetryPacer {
    #[cfg_attr(ssync_chk, allow(dead_code))]
    const FIRST_SLEEP_US: u64 = 20;
    #[cfg_attr(ssync_chk, allow(dead_code))]
    const MAX_SLEEP_US: u64 = 2_000;

    /// Starts a retry budget of `budget` from now. `seed` feeds the
    /// jitter stream (any value; zero is remapped internally).
    pub fn new(budget: core::time::Duration, seed: u64) -> Self {
        Self {
            deadline: std::time::Instant::now() + budget,
            sleep_us: 0,
            rng: seed | 1,
        }
    }

    /// True once the budget is spent: the caller should give up and
    /// surface a deadline error.
    pub fn expired(&self) -> bool {
        std::time::Instant::now() >= self.deadline
    }

    /// Call between attempts: sleeps for the next jittered pause and
    /// returns `true`, or returns `false` (without sleeping) once the
    /// deadline has passed. Pauses double from ~20µs to a 2ms cap,
    /// each scaled by a uniform ±50% jitter.
    pub fn pause(&mut self) -> bool {
        #[cfg(ssync_chk)]
        {
            // Under the checker a "sleep" is one model yield, and the
            // deadline check keeps its real-time meaning (the checker
            // never stalls a clock), so retry loops stay bounded.
            model_yield();
            !self.expired()
        }
        #[cfg(not(ssync_chk))]
        {
            if self.expired() {
                return false;
            }
            let us = if self.sleep_us == 0 {
                Self::FIRST_SLEEP_US
            } else {
                (self.sleep_us * 2).min(Self::MAX_SLEEP_US)
            };
            self.sleep_us = us;
            // xorshift64 step; jitter scales the pause into [us/2, 3us/2].
            let mut x = self.rng;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.rng = x;
            let jittered = us / 2 + x % us.max(1);
            std::thread::sleep(core::time::Duration::from_micros(jittered));
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_doubles_and_caps() {
        let mut b = Backoff::with_bounds(2, 16);
        let mut seen = Vec::new();
        for _ in 0..6 {
            seen.push(b.current());
            b.spin();
        }
        assert_eq!(seen, vec![2, 4, 8, 16, 16, 16]);
    }

    #[test]
    fn reset_restores_initial() {
        let mut b = Backoff::new();
        b.spin();
        b.spin();
        b.reset();
        assert_eq!(b.current(), 4);
    }

    #[test]
    fn zero_initial_is_promoted() {
        let b = Backoff::with_bounds(0, 8);
        assert_eq!(b.current(), 1);
    }

    #[test]
    fn proportional_scales_with_queue_position() {
        let p = ProportionalBackoff::with_slot(10);
        assert_eq!(p.spins_for(0), 0);
        assert_eq!(p.spins_for(3), 30);
        // Capped at 64 slots.
        assert_eq!(p.spins_for(1_000_000), 640);
    }

    #[test]
    fn proportional_wait_does_not_hang() {
        let p = ProportionalBackoff::new();
        p.wait(2);
    }

    #[cfg(not(ssync_chk))]
    #[test]
    fn parking_wait_reports_parked_only_after_the_yield_budget() {
        let mut wait = ParkingWait::new();
        for _ in 0..ParkingWait::SPIN_LIMIT + ParkingWait::YIELD_LIMIT {
            wait.snooze();
            assert!(!wait.parked(), "spinning and yielding is not parking");
        }
        wait.snooze();
        assert!(wait.parked());
        wait.reset();
        assert!(!wait.parked(), "a served request re-arms the whole budget");
    }

    #[test]
    fn retry_pacer_respects_its_deadline() {
        let mut pacer = RetryPacer::new(core::time::Duration::from_millis(10), 42);
        let mut pauses = 0u64;
        // Under the checker each pause is a bare yield rather than a
        // 20µs+ sleep, so vastly more pauses fit in the budget; the cap
        // only has to catch a pacer that never expires, not bound the
        // count tightly.
        let cap: u64 = if cfg!(ssync_chk) { 100_000_000 } else { 10_000 };
        while pacer.pause() {
            pauses += 1;
            assert!(pauses < cap, "pacer must eventually report expiry");
        }
        assert!(pacer.expired());
        // Sleeps double from 20µs toward the cap, so a 10ms budget
        // admits only a bounded number of pauses.
        assert!(pauses >= 1);
    }

    #[test]
    fn retry_pacer_with_spent_budget_never_sleeps() {
        let mut pacer = RetryPacer::new(core::time::Duration::ZERO, 0);
        assert!(pacer.expired());
        assert!(!pacer.pause());
    }
}
