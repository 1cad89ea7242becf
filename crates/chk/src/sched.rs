//! The deterministic cooperative scheduler and its DFS explorer.
//!
//! One *model* run ([`crate::Builder::check`]) is a loop of *executions*.
//! Every execution re-runs the model closure from scratch with 2–4 model
//! threads whose shadow-atomic operations are serialized by a controller
//! thread: a model thread runs freely until it reaches a shadow operation,
//! announces it, and parks; once every live thread is parked (or finished,
//! or blocked), the controller picks exactly one announced step to execute
//! and wakes its thread. The whole execution is therefore serial and — for
//! a fixed choice sequence — byte-for-byte deterministic, which is exactly
//! the right shape for the 1-core dev box: exploration costs no real
//! parallelism, only scheduling decisions.
//!
//! # Exploration
//!
//! Choice sequences are enumerated by depth-first search with replay
//! (stateless model checking): the stack of decision nodes persists across
//! executions, each execution replays the current prefix and extends it.
//! Two reductions keep the tree small:
//!
//! * **DPOR-lite (sleep sets)**: after exploring child `s` of a node, `s`
//!   goes to sleep for the node's later children; descending through step
//!   `c` keeps asleep exactly the entries *independent* of `c` (different
//!   locations, or same location with no write — "adjacent steps touching
//!   different locations commute"). A node whose every enabled step is
//!   asleep is pruned: every interleaving below it is a commutation of one
//!   already explored.
//! * **Preemption bounding**: once a path has used its budget of
//!   involuntary context switches, the previously running thread keeps
//!   running until it blocks or finishes (Musuvathi & Qadeer's iterative
//!   context bounding, fixed-bound variant).
//!
//! The run is additionally capped at `max_executions`; hitting the cap
//! sets [`crate::Report::truncated`] so callers can tell "proved for this
//! scope" apart from "ran out of budget". Everything is seeded and
//! deterministic — a failing schedule replays exactly.
//!
//! # Weak-memory mode
//!
//! With [`crate::Builder::weak_memory`], non-SeqCst stores do not hit
//! shared memory immediately: they enter the storing thread's *store
//! buffer*, and buffer-to-memory flushes become scheduler steps of their
//! own. A `Relaxed` store may flush out of order (it only preserves
//! per-location order), while a `Release` store flushes only once the
//! buffer holds nothing older — the one-way barrier that makes
//! publish-pointer protocols sound. Loads forward from the thread's own
//! buffer, so a thread always sees its own program order; *other* threads
//! see stores in flush order. This models store–store reordering (the
//! class that breaks publication protocols: a data store passing its flag,
//! a ring slot passing its tail) but not load–load reordering; see
//! DESIGN.md "Concurrency checking" for the scope argument.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

pub(crate) type Tid = usize;
pub(crate) type LocId = usize;
pub(crate) type Val = u64;

/// Marker payload for panics used to unwind model threads when an
/// execution is aborted (violation elsewhere, or a pruned branch). The
/// thread wrapper catches it silently.
pub(crate) struct ChkAbort;

/// Store-side ordering class (loads need no class: weak effects are
/// modeled entirely on the store side).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum StoreClass {
    Relaxed,
    Release,
    SeqCst,
}

/// Read-modify-write flavors used by the workspace.
#[derive(Clone, Copy, Debug)]
pub(crate) enum RmwKind {
    Add(Val),
    Sub(Val),
    Max(Val),
    Or(Val),
    And(Val),
    Swap(Val),
    Cas { expected: Val, new: Val },
}

impl RmwKind {
    fn apply(self, old: Val) -> Val {
        match self {
            RmwKind::Add(v) => old.wrapping_add(v),
            RmwKind::Sub(v) => old.wrapping_sub(v),
            RmwKind::Max(v) => old.max(v),
            RmwKind::Or(v) => old | v,
            RmwKind::And(v) => old & v,
            RmwKind::Swap(v) => v,
            RmwKind::Cas { expected, new } => {
                if old == expected {
                    new
                } else {
                    old
                }
            }
        }
    }
}

/// An announced operation, with its location resolved.
#[derive(Clone, Copy, Debug)]
pub(crate) enum OpKind {
    Load {
        loc: LocId,
    },
    Store {
        loc: LocId,
        val: Val,
        class: StoreClass,
    },
    Rmw {
        loc: LocId,
        rmw: RmwKind,
    },
    LockAcquire {
        loc: LocId,
    },
    LockRelease {
        loc: LocId,
    },
    Yield,
    Spawn,
    Join {
        target: Tid,
    },
}

/// What a model thread hands to [`Shared::perform`]: the operation plus
/// the raw address and seed value of the touched atomic (0/unused for
/// location-free operations).
pub(crate) struct Req {
    pub addr: usize,
    pub init: Val,
    pub kind: ReqKind,
}

pub(crate) enum ReqKind {
    Load,
    Store { val: Val, class: StoreClass },
    Rmw { rmw: RmwKind },
    LockAcquire,
    LockRelease,
    Yield,
    Spawn,
    Join { target: Tid },
}

/// `(location, is_write)` — `None` for operations (spawn/join/yield) that
/// are conservatively dependent with everything.
pub(crate) type Footprint = Option<(LocId, bool)>;

fn footprint(op: &OpKind) -> Footprint {
    match *op {
        OpKind::Load { loc } => Some((loc, false)),
        OpKind::Store { loc, .. } | OpKind::Rmw { loc, .. } => Some((loc, true)),
        OpKind::LockAcquire { loc } | OpKind::LockRelease { loc } => Some((loc, true)),
        OpKind::Yield | OpKind::Spawn | OpKind::Join { .. } => None,
    }
}

/// Identity of one schedulable step, stable across replays of the same
/// prefix (locations register in deterministic order; store sequence
/// numbers are assigned in grant order).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum StepId {
    /// The announced operation of a model thread.
    Prog(Tid),
    /// Flushing the store-buffer entry with sequence `seq` of thread
    /// `tid` (weak-memory mode only).
    Flush { tid: Tid, seq: u64 },
}

impl StepId {
    fn owner(self) -> Tid {
        match self {
            StepId::Prog(t) | StepId::Flush { tid: t, .. } => t,
        }
    }
}

/// Two steps commute iff they belong to different threads and touch
/// different locations (or only read a common one). Location-free steps
/// never commute — conservative, so pruning stays sound.
fn independent(a: (StepId, Footprint), b: (StepId, Footprint)) -> bool {
    if a.0.owner() == b.0.owner() {
        return false;
    }
    match (a.1, b.1) {
        (Some((la, wa)), Some((lb, wb))) => la != lb || (!wa && !wb),
        _ => false,
    }
}

struct BufEntry {
    loc: LocId,
    val: Val,
    class: StoreClass,
    seq: u64,
}

#[derive(PartialEq, Eq, Debug)]
enum Status {
    /// Executing model code; the controller waits for its next announce.
    Running,
    /// Announced an operation and parked.
    Pending,
    Finished,
}

struct ThreadState {
    status: Status,
    /// Announced but not yet location-resolved operation. Resolution is
    /// deferred to the controller's quiescence point (`resolve_pending`)
    /// so that fresh locations register in thread-id order: threads
    /// announce from concurrently-running real segments, and letting
    /// announce order assign `LocId`s would make the numbering a
    /// wall-clock race — the DFS stack's stored footprints would then
    /// disagree with later executions' numbering and pruning would go
    /// nondeterministic.
    unresolved: Option<Req>,
    pending: Option<OpKind>,
    granted: bool,
    /// For a pending `Yield`: set once any *other* step executes, which
    /// is what makes `yield`-loops schedulable without livelock — a
    /// yielded thread cannot be rescheduled until someone else moved.
    yield_ready: bool,
    buffer: Vec<BufEntry>,
}

impl ThreadState {
    fn new(status: Status) -> Self {
        ThreadState {
            status,
            unresolved: None,
            pending: None,
            granted: false,
            yield_ready: false,
            buffer: Vec::new(),
        }
    }
}

struct Memory {
    addr_to_loc: HashMap<usize, LocId>,
    global: Vec<Val>,
    locked: Vec<bool>,
}

impl Memory {
    fn resolve(&mut self, addr: usize, init: Val) -> LocId {
        if let Some(&loc) = self.addr_to_loc.get(&addr) {
            return loc;
        }
        let loc = self.global.len();
        self.addr_to_loc.insert(addr, loc);
        self.global.push(init);
        self.locked.push(false);
        loc
    }
}

pub(crate) struct State {
    threads: Vec<ThreadState>,
    mem: Memory,
    weak: bool,
    max_steps: usize,
    steps_taken: usize,
    next_store_seq: u64,
    violation: Option<String>,
    abort: bool,
}

impl State {
    /// The value a load by `tid` observes: the newest same-location entry
    /// of its own store buffer (store forwarding), else committed memory.
    fn read_visible(&self, tid: Tid, loc: LocId) -> Val {
        self.threads[tid]
            .buffer
            .iter()
            .rev()
            .find(|e| e.loc == loc)
            .map(|e| e.val)
            .unwrap_or(self.mem.global[loc])
    }

    /// Commits every buffered store of `tid` in program order (always a
    /// legal flush order). Used at RMWs, SeqCst stores, lock releases,
    /// spawns, and thread exit.
    fn flush_all(&mut self, tid: Tid) {
        for e in std::mem::take(&mut self.threads[tid].buffer) {
            self.mem.global[e.loc] = e.val;
        }
    }

    /// After any step executes, pending `Yield`s of *other* threads
    /// become schedulable.
    fn note_step_executed(&mut self, by: Tid) {
        for (tid, t) in self.threads.iter_mut().enumerate() {
            if tid != by && matches!(t.pending, Some(OpKind::Yield)) {
                t.yield_ready = true;
            }
        }
    }

    fn fail(&mut self, msg: String) {
        if self.violation.is_none() {
            self.violation = Some(msg);
        }
        self.abort = true;
    }

    /// Applies the granted operation of `tid` (called by the thread
    /// itself, under the state lock). Returns the operation's result.
    fn apply(&mut self, tid: Tid) -> Val {
        let op = self.threads[tid]
            .pending
            .take()
            .expect("granted without a pending op");
        let mut result = 0;
        match op {
            OpKind::Load { loc } => result = self.read_visible(tid, loc),
            OpKind::Store { loc, val, class } => {
                if self.weak && class != StoreClass::SeqCst {
                    let seq = self.next_store_seq;
                    self.next_store_seq += 1;
                    self.threads[tid].buffer.push(BufEntry {
                        loc,
                        val,
                        class,
                        seq,
                    });
                } else {
                    self.flush_all(tid);
                    self.mem.global[loc] = val;
                }
            }
            OpKind::Rmw { loc, rmw } => {
                // RMWs act on committed memory: flush first, then
                // read-modify-write. (Modeled strong — every RMW in the
                // workspace is a lock/version-counter operation whose
                // atomicity, not buffering, is the property under test.)
                self.flush_all(tid);
                let old = self.mem.global[loc];
                self.mem.global[loc] = rmw.apply(old);
                result = old;
            }
            OpKind::LockAcquire { loc } => {
                debug_assert!(!self.mem.locked[loc], "granted a lock that is held");
                self.mem.locked[loc] = true;
            }
            OpKind::LockRelease { loc } => {
                // Unlock is a release operation: publish everything first.
                self.flush_all(tid);
                self.mem.locked[loc] = false;
            }
            OpKind::Yield => {}
            OpKind::Spawn => {
                // Spawn is a release edge into the child.
                self.flush_all(tid);
                result = self.threads.len() as Val;
                self.threads.push(ThreadState::new(Status::Running));
            }
            OpKind::Join { target } => {
                debug_assert_eq!(self.threads[target].status, Status::Finished);
            }
        }
        self.note_step_executed(tid);
        self.threads[tid].status = Status::Running;
        self.steps_taken += 1;
        if self.steps_taken > self.max_steps {
            self.fail(format!(
                "step limit {} exceeded: livelock or runaway loop — a spin \
                 loop waiting on a signal no live thread will send (lost \
                 wakeup), or a loop not going through yield_now",
                self.max_steps
            ));
        }
        result
    }

    /// Resolves every announced-but-unresolved operation, in thread-id
    /// order. Called by the controller once the system is quiescent, so
    /// fresh locations always register in the same deterministic order
    /// regardless of which thread's announce won the real-time race to
    /// the state lock.
    fn resolve_pending(&mut self) {
        for tid in 0..self.threads.len() {
            let Some(req) = self.threads[tid].unresolved.take() else {
                continue;
            };
            let kind = match req.kind {
                ReqKind::Load => OpKind::Load {
                    loc: self.mem.resolve(req.addr, req.init),
                },
                ReqKind::Store { val, class } => OpKind::Store {
                    loc: self.mem.resolve(req.addr, req.init),
                    val,
                    class,
                },
                ReqKind::Rmw { rmw } => OpKind::Rmw {
                    loc: self.mem.resolve(req.addr, req.init),
                    rmw,
                },
                ReqKind::LockAcquire => OpKind::LockAcquire {
                    loc: self.mem.resolve(req.addr, req.init),
                },
                ReqKind::LockRelease => OpKind::LockRelease {
                    loc: self.mem.resolve(req.addr, req.init),
                },
                ReqKind::Yield => OpKind::Yield,
                ReqKind::Spawn => OpKind::Spawn,
                ReqKind::Join { target } => OpKind::Join { target },
            };
            self.threads[tid].pending = Some(kind);
        }
    }

    /// True if the announced operation of `tid` can execute now.
    fn op_enabled(&self, tid: Tid) -> bool {
        match self.threads[tid].pending {
            Some(OpKind::Join { target }) => {
                // Join is an acquire of everything the target did: it
                // waits for the target's buffered stores to commit too.
                self.threads[target].status == Status::Finished
                    && self.threads[target].buffer.is_empty()
            }
            Some(OpKind::LockAcquire { loc }) => !self.mem.locked[loc],
            Some(OpKind::Yield) => self.threads[tid].yield_ready,
            Some(_) => true,
            None => false,
        }
    }

    /// The deterministic enabled-step list: program steps by thread id,
    /// then flush steps by (thread id, buffer position).
    fn enabled_steps(&self) -> Vec<(StepId, Footprint)> {
        let mut steps = Vec::new();
        for (tid, t) in self.threads.iter().enumerate() {
            if t.status == Status::Pending && self.op_enabled(tid) {
                steps.push((StepId::Prog(tid), footprint(t.pending.as_ref().unwrap())));
            }
        }
        for (tid, t) in self.threads.iter().enumerate() {
            for (i, e) in t.buffer.iter().enumerate() {
                let coherence_ok = !t.buffer[..i].iter().any(|p| p.loc == e.loc);
                let barrier_ok = match e.class {
                    StoreClass::Relaxed => true,
                    // A Release store passes nothing that precedes it.
                    StoreClass::Release => i == 0,
                    StoreClass::SeqCst => unreachable!("SeqCst stores are never buffered"),
                };
                if coherence_ok && barrier_ok {
                    steps.push((StepId::Flush { tid, seq: e.seq }, Some((e.loc, true))));
                }
            }
        }
        // Last-resort yields: a yielded thread normally waits for some
        // other step to execute first, but when nothing else in the
        // system can move, forcing it to wait would turn a bounded
        // courtesy-yield loop into a spurious deadlock. Let it run; a
        // genuine lost wakeup then spins into the step limit instead.
        if steps.is_empty() {
            for (tid, t) in self.threads.iter().enumerate() {
                if t.status == Status::Pending && matches!(t.pending, Some(OpKind::Yield)) {
                    steps.push((StepId::Prog(tid), None));
                }
            }
        }
        steps
    }

    fn apply_flush(&mut self, tid: Tid, seq: u64) {
        let pos = self.threads[tid]
            .buffer
            .iter()
            .position(|e| e.seq == seq)
            .expect("flush step for a missing buffer entry");
        let e = self.threads[tid].buffer.remove(pos);
        self.mem.global[e.loc] = e.val;
        self.note_step_executed(tid);
        self.steps_taken += 1;
    }

    /// Human-readable description of a step, for violation traces.
    fn describe(&self, id: StepId) -> String {
        match id {
            StepId::Prog(tid) => match self.threads[tid].pending {
                Some(op) => format!("t{tid}:{op:?}"),
                None => format!("t{tid}:?"),
            },
            StepId::Flush { tid, seq } => format!("t{tid}:Flush(seq {seq})"),
        }
    }
}

pub(crate) struct Shared {
    state: Mutex<State>,
    /// The controller waits here for announces/finishes.
    cv_ctrl: Condvar,
    /// Model threads wait here for their grant (or the abort flag).
    cv_threads: Condvar,
}

fn lock(m: &Mutex<State>) -> MutexGuard<'_, State> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Shared {
    /// Announces `req` for thread `tid`, parks until the controller
    /// grants it, applies it, and returns the result. This is the single
    /// chokepoint every shadow operation goes through.
    pub(crate) fn perform(&self, tid: Tid, req: Req) -> Val {
        let mut st = lock(&self.state);
        if st.abort {
            drop(st);
            return abort_current_thread();
        }
        st.threads[tid].unresolved = Some(req);
        st.threads[tid].status = Status::Pending;
        st.threads[tid].yield_ready = false;
        self.cv_ctrl.notify_all();
        while !st.threads[tid].granted {
            if st.abort {
                drop(st);
                return abort_current_thread();
            }
            st = self.cv_threads.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.threads[tid].granted = false;
        let val = st.apply(tid);
        self.cv_ctrl.notify_all();
        val
    }

    /// Stops tracking every location whose address lies in
    /// `[start, start + len)`: the next operation there registers a
    /// fresh location, seeded from the real atomic's value. Touches no
    /// thread's state and grants nothing, so it is not a step.
    pub(crate) fn forget(&self, start: usize, len: usize) {
        let mut st = lock(&self.state);
        st.mem
            .addr_to_loc
            .retain(|&addr, _| !(start..start + len).contains(&addr));
    }

    fn mark_finished(&self, tid: Tid, panic_msg: Option<String>) {
        let mut st = lock(&self.state);
        // The thread's store buffer is NOT flushed here: buffered stores
        // outlive the thread as schedulable flush steps, so a reader can
        // still observe the pre-store state after the writer exits. Join
        // only becomes enabled once the buffer drains.
        st.threads[tid].status = Status::Finished;
        st.threads[tid].unresolved = None;
        st.threads[tid].pending = None;
        if let Some(msg) = panic_msg {
            st.fail(msg);
            self.cv_threads.notify_all();
        }
        self.cv_ctrl.notify_all();
    }
}

/// Unwinds the calling model thread out of an aborted execution — unless
/// it is already unwinding (a `Drop` running a shadow op mid-panic), in
/// which case we return a dummy value instead of double-panicking.
fn abort_current_thread() -> Val {
    if std::thread::panicking() {
        return 0;
    }
    std::panic::panic_any(ChkAbort);
}

thread_local! {
    static CURRENT: std::cell::RefCell<Option<(Arc<Shared>, Tid)>> =
        const { std::cell::RefCell::new(None) };
}

/// Runs `f` with the calling thread's execution handle, if it is a model
/// thread of an active execution.
pub(crate) fn with_current<R>(f: impl FnOnce(&Arc<Shared>, Tid) -> R) -> Option<R> {
    CURRENT.with(|c| c.borrow().as_ref().map(|(sh, tid)| f(sh, *tid)))
}

/// Spawns the OS thread backing model thread `tid` running `body`.
pub(crate) fn spawn_model_thread(
    shared: Arc<Shared>,
    tid: Tid,
    body: Box<dyn FnOnce() + Send>,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("ssync-chk-t{tid}"))
        .spawn(move || {
            CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&shared), tid)));
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
            CURRENT.with(|c| *c.borrow_mut() = None);
            let panic_msg = match outcome {
                Ok(()) => None,
                Err(payload) if payload.is::<ChkAbort>() => None,
                Err(payload) => Some(payload_to_string(payload.as_ref())),
            };
            shared.mark_finished(tid, panic_msg);
        })
        .expect("spawning a model thread")
}

fn payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "model thread panicked".to_string()
    }
}

// ---------------------------------------------------------------------------
// DFS exploration.

const NO_CURSOR: usize = usize::MAX;

struct Node {
    enabled: Vec<(StepId, Footprint)>,
    /// Visit order over `enabled` (seed-rotated, deterministic).
    order: Vec<usize>,
    /// Indices already fully explored.
    explored: Vec<usize>,
    /// Sleeping steps: explored siblings plus inherited entries.
    sleep: Vec<(StepId, Footprint)>,
    /// Index being explored right now (`NO_CURSOR` if sleep-blocked).
    cursor: usize,
}

impl Node {
    fn next_candidate(&self, from: usize) -> Option<usize> {
        self.order[from..].iter().copied().find(|&i| {
            !self.explored.contains(&i)
                && !self.sleep.iter().any(|(id, _)| *id == self.enabled[i].0)
        })
    }
}

/// SplitMix64 finalizer — local copy (this crate is dependency-free).
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub(crate) struct Explorer {
    stack: Vec<Node>,
    depth: usize,
    seed: u64,
    pub(crate) sleep_pruned: u64,
    pub(crate) max_depth: usize,
}

pub(crate) enum Choice {
    Step(StepId),
    /// Every enabled step is asleep: the branch is redundant.
    Pruned,
}

impl Explorer {
    pub(crate) fn new(seed: u64) -> Self {
        Explorer {
            stack: Vec::new(),
            depth: 0,
            seed,
            sleep_pruned: 0,
            max_depth: 0,
        }
    }

    pub(crate) fn begin_execution(&mut self) {
        self.depth = 0;
    }

    /// Picks the step to execute at the current decision point, given the
    /// deterministic enabled list.
    pub(crate) fn choose(&mut self, enabled: Vec<(StepId, Footprint)>) -> Choice {
        if self.depth < self.stack.len() {
            // Replay: the node exists; re-execute its current choice.
            let node = &self.stack[self.depth];
            debug_assert!(
                node.cursor != NO_CURSOR && node.enabled.len() == enabled.len(),
                "replay divergence: schedule prefix no longer matches"
            );
            let id = node.enabled[node.cursor].0;
            self.depth += 1;
            return Choice::Step(id);
        }
        // New node: inherit the sleep set through the step that led here.
        let sleep = match self.stack.last() {
            Some(parent) => {
                let via = parent.enabled[parent.cursor];
                parent
                    .sleep
                    .iter()
                    .copied()
                    .filter(|&s| independent(s, via))
                    .collect()
            }
            None => Vec::new(),
        };
        let n = enabled.len();
        let start = if n == 0 {
            0
        } else {
            (mix64(self.seed ^ self.depth as u64) as usize) % n
        };
        let order: Vec<usize> = (0..n).map(|i| (start + i) % n).collect();
        let mut node = Node {
            enabled,
            order,
            explored: Vec::new(),
            sleep,
            cursor: NO_CURSOR,
        };
        let candidate = node.next_candidate(0);
        match candidate {
            Some(i) => {
                node.cursor = i;
                let id = node.enabled[i].0;
                self.stack.push(node);
                self.depth += 1;
                self.max_depth = self.max_depth.max(self.depth);
                Choice::Step(id)
            }
            None => {
                self.sleep_pruned += 1;
                self.stack.push(node);
                Choice::Pruned
            }
        }
    }

    /// After an execution ends, moves the deepest node with an untried
    /// candidate to that candidate. Returns false when the tree is
    /// exhausted.
    pub(crate) fn backtrack(&mut self) -> bool {
        loop {
            let Some(node) = self.stack.last_mut() else {
                return false;
            };
            if node.cursor != NO_CURSOR {
                let chosen = node.enabled[node.cursor];
                node.sleep.push(chosen);
                node.explored.push(node.cursor);
            }
            if let Some(i) = node.next_candidate(0) {
                node.cursor = i;
                return true;
            }
            self.stack.pop();
        }
    }
}

// ---------------------------------------------------------------------------
// The controller: one execution.

pub(crate) struct ExecResult {
    pub violation: Option<(String, Vec<String>)>,
    pub pruned: bool,
}

pub(crate) fn run_execution(
    f: &Arc<dyn Fn() + Send + Sync>,
    explorer: &mut Explorer,
    cfg: &crate::Builder,
) -> ExecResult {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            threads: vec![ThreadState::new(Status::Running)],
            mem: Memory {
                addr_to_loc: HashMap::new(),
                global: Vec::new(),
                locked: Vec::new(),
            },
            weak: cfg.weak_memory,
            max_steps: cfg.max_steps,
            steps_taken: 0,
            next_store_seq: 0,
            violation: None,
            abort: false,
        }),
        cv_ctrl: Condvar::new(),
        cv_threads: Condvar::new(),
    });
    let body = Arc::clone(f);
    let h0 = spawn_model_thread(Arc::clone(&shared), 0, Box::new(move || body()));

    explorer.begin_execution();
    let mut trace: Vec<String> = Vec::new();
    let mut prev_prog: Option<Tid> = None;
    let mut preemptions = 0usize;
    let mut pruned = false;

    loop {
        let mut st = lock(&shared.state);
        // Wait for quiescence: every thread announced, finished, or the
        // execution failed.
        loop {
            if st.abort {
                break;
            }
            let settled = st
                .threads
                .iter()
                .all(|t| matches!(t.status, Status::Pending | Status::Finished) && !t.granted);
            if settled {
                break;
            }
            st = shared.cv_ctrl.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if st.abort {
            drop(st);
            break;
        }
        if st
            .threads
            .iter()
            .all(|t| t.status == Status::Finished && t.buffer.is_empty())
        {
            drop(st);
            break;
        }

        st.resolve_pending();
        let mut enabled = st.enabled_steps();
        if enabled.is_empty() {
            let blocked: Vec<String> = st
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| t.status == Status::Pending)
                .map(|(tid, t)| format!("t{tid} blocked on {:?}", t.pending))
                .collect();
            st.fail(format!(
                "deadlock: no schedulable step ({})",
                if blocked.is_empty() {
                    "all threads yielded".to_string()
                } else {
                    blocked.join("; ")
                }
            ));
            shared.cv_threads.notify_all();
            drop(st);
            break;
        }

        // Preemption bounding: with the budget spent, the previously
        // running thread keeps running while it can (flushes stay free —
        // they model the memory system, not the OS scheduler).
        if preemptions >= cfg.preemption_bound {
            if let Some(p) = prev_prog {
                if enabled.iter().any(|(id, _)| *id == StepId::Prog(p)) {
                    enabled.retain(|(id, _)| {
                        *id == StepId::Prog(p) || matches!(id, StepId::Flush { .. })
                    });
                }
            }
        }

        let choice = explorer.choose(enabled.clone());
        let id = match choice {
            Choice::Step(id) => id,
            Choice::Pruned => {
                pruned = true;
                st.abort = true;
                shared.cv_threads.notify_all();
                drop(st);
                break;
            }
        };
        trace.push(st.describe(id));
        match id {
            StepId::Prog(tid) => {
                if let Some(p) = prev_prog {
                    if p != tid && enabled.iter().any(|(e, _)| *e == StepId::Prog(p)) {
                        preemptions += 1;
                    }
                }
                prev_prog = Some(tid);
                st.threads[tid].granted = true;
                shared.cv_threads.notify_all();
            }
            StepId::Flush { tid, seq } => {
                st.apply_flush(tid, seq);
            }
        }
        drop(st);
    }

    // Drain: wake everything and wait for every model thread to exit its
    // wrapper (they mark Finished on the way out).
    {
        let mut st = lock(&shared.state);
        shared.cv_threads.notify_all();
        while !st.threads.iter().all(|t| t.status == Status::Finished) {
            shared.cv_threads.notify_all();
            st = shared.cv_ctrl.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
    let _ = h0.join();

    let st = lock(&shared.state);
    ExecResult {
        violation: st.violation.clone().map(|msg| (msg, trace)),
        pruned: pruned && st.violation.is_none(),
    }
}
