//! The exploration session: cooperative control of the real threads that
//! [`crate::mc`]'s source-DPOR loop explores.
//!
//! The real runtime (`hetchol_rt::execute_workload`) synchronizes its worker
//! threads with one mutex-protected state block and one condvar. Bugs in
//! that protocol — a missed `notify_all` after dispatching successors, a
//! double release in the dependency tracker — are interleaving-dependent:
//! a stress test can pass a million times and still miss them. The
//! session lets the interleavings be explored *systematically*, in the
//! spirit of `loom` but over the real `std` threads the runtime actually
//! spawns:
//!
//! * the `parking_lot` compat shim reports every lock acquire/release,
//!   condvar wait and notify of checked-in worker threads to an installed
//!   [`parking_lot::explore::ExploreHook`];
//! * the `Session` hook enforces a *cooperative* model — exactly one
//!   worker thread runs at a time, each step spanning from one blocking
//!   operation (checkin, lock acquire, condvar wait) to the next;
//! * whenever every live thread is parked, the last parker picks which
//!   thread runs next — replaying a prescribed prefix of choices, then
//!   following a deterministic first-choice rule that skips sleeping
//!   threads;
//! * each run's trail (enabled set, choice, sync footprint and sleep set
//!   of every decision) goes back to the search loop, which picks the
//!   next prefix: the DPOR loop behind [`crate::mc::check_model`] and
//!   [`crate::mc::check_recovery`];
//! * a state where no parked thread can make progress is a **deadlock** —
//!   which is precisely what a lost wakeup becomes once controlled waits
//!   never sleep on the real condvar.
//!
//! The explored state space is bounded: the scheduler under test must be
//! timing-blind (see [`RoundRobin`]) so that thread-schedule choices are
//! the only source of nondeterminism, and the run is capped by
//! [`ExploreConfig`]. See DESIGN.md §4 for the model's guarantees.

use hetchol_core::platform::WorkerId;
use hetchol_core::scheduler::{ExecutionView, SchedContext, Scheduler};
use hetchol_core::task::TaskId;
use parking_lot::explore::{self, ExploreHook, SyncEvent};
use std::cell::Cell;
use std::collections::HashMap;
use std::panic;
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex};

/// Panic payload used to tear a run down after a verdict (deadlock found,
/// step cap hit, replay divergence). The driver's panic hook swallows it.
pub(crate) const ABORT_MSG: &str = "hetchol-analyze explorer abort";

/// The payload `std::thread::scope` panics with when a child panicked; the
/// child's own payload was already captured by the panic hook, so this
/// secondary message must never overwrite it.
pub(crate) const SCOPE_MSG: &str = "a scoped thread panicked";

pub(crate) fn lock_of<'a, T>(m: &'a StdMutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Bounds on one exploration.
#[derive(Copy, Clone, Debug)]
pub struct ExploreConfig {
    /// Maximum number of complete thread schedules (runs) to try.
    pub max_schedules: usize,
    /// Maximum decisions within a single run (runaway-scenario guard).
    pub max_steps: usize,
    /// Layer sleep sets over DPOR's backtrack sets: a candidate whose step
    /// commutes with every step run since it was put to sleep is skipped. Turning this off leaves the backtrack sets alone in
    /// charge — the same verdict on a tree never smaller, which is how
    /// the tests cross-check the pruning.
    pub sleep_sets: bool,
}

impl Default for ExploreConfig {
    fn default() -> ExploreConfig {
        ExploreConfig {
            max_schedules: 100_000,
            max_steps: 10_000,
            sleep_sets: true,
        }
    }
}

// ---------------------------------------------------------------------------
// The session: one ExploreHook driving the cooperative model
// ---------------------------------------------------------------------------

thread_local! {
    /// Which controlled worker the current thread is (explorer-side
    /// identity, set at checkin).
    static WORKER: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The kind of synchronization operation a step performed on an object —
/// recorded in step footprints so a driver can compute happens-before
/// (the DPOR driver in [`crate::mc`]) while the sleep-set independence
/// check keeps comparing objects only.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum OpKind {
    /// The step was granted a mutex (including re-acquire after a wakeup).
    Acquire,
    /// The step released a mutex (guard drop, or entering a wait).
    Release,
    /// The step entered a condvar wait.
    Wait,
    /// The step notified a condvar.
    Notify,
}

/// One sync operation in a step's footprint: which object, and how.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct Op {
    /// Normalized (first-appearance) id of the sync object.
    pub(crate) obj: u64,
    /// What the step did to it.
    pub(crate) kind: OpKind,
}

/// What a parked thread is blocked on.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Pending {
    /// Checked in, has not run yet. Always enabled.
    Start,
    /// Wants the mutex. Enabled when unowned in the model.
    Lock(u64),
    /// Was waiting on a condvar, has been notified, and now needs the
    /// mutex back. Enabled when unowned in the model.
    Wake(u64),
    /// Waiting on a condvar. Never enabled; only a notify converts it.
    Wait { cv: u64, mutex: u64 },
}

impl Pending {
    fn enabled(self, owner: &HashMap<u64, usize>) -> bool {
        match self {
            Pending::Start => true,
            Pending::Lock(m) | Pending::Wake(m) => !owner.contains_key(&m),
            Pending::Wait { .. } => false,
        }
    }

    fn describe(self) -> String {
        match self {
            Pending::Start => "not yet started".to_string(),
            Pending::Lock(m) => format!("acquiring mutex #{m}"),
            Pending::Wake(m) => format!("re-acquiring mutex #{m} after wakeup"),
            Pending::Wait { cv, mutex } => {
                format!("waiting on condvar #{cv} (released mutex #{mutex})")
            }
        }
    }
}

/// Per-worker wake channel: a thread parks here between its steps.
struct Gate {
    cmd: StdMutex<GateCmd>,
    cv: StdCondvar,
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum GateCmd {
    Park,
    Go,
    /// Sticky: once set, any park (current or future) panics the thread
    /// with [`ABORT_MSG`], unwinding the run.
    Abort,
}

impl Gate {
    fn new() -> Gate {
        Gate {
            cmd: StdMutex::new(GateCmd::Park),
            cv: StdCondvar::new(),
        }
    }

    fn park(&self) {
        let mut cmd = lock_of(&self.cmd);
        loop {
            match *cmd {
                GateCmd::Park => {
                    cmd = self.cv.wait(cmd).unwrap_or_else(|e| e.into_inner());
                }
                GateCmd::Go => {
                    *cmd = GateCmd::Park;
                    return;
                }
                GateCmd::Abort => {
                    drop(cmd);
                    panic!("{ABORT_MSG}");
                }
            }
        }
    }

    fn wake(&self, new: GateCmd) {
        let mut cmd = lock_of(&self.cmd);
        if *cmd != GateCmd::Abort {
            *cmd = new;
        }
        self.cv.notify_all();
    }
}

struct ThreadState {
    alive: bool,
    parked: bool,
    pending: Pending,
}

/// One decision point, as recorded for the driver.
#[derive(Clone, Debug)]
pub(crate) struct TrailEntry {
    /// Workers that were enabled, ascending.
    pub(crate) enabled: Vec<usize>,
    /// The worker that ran.
    pub(crate) chosen: usize,
    /// Sync operations the chosen step performed (grant + releases +
    /// notifies), in order, for independence and happens-before checks.
    pub(crate) footprint: Vec<Op>,
    /// Sleep set in effect at this state (fresh decisions only).
    pub(crate) sleep: Vec<(usize, Vec<Op>)>,
}

struct Inner {
    n_workers: usize,
    checked_in: usize,
    threads: Vec<ThreadState>,
    /// Model ownership of each mutex (by normalized object id).
    owner: HashMap<u64, usize>,
    running: Option<usize>,
    /// Forced choices to replay, then free search.
    prefix: Vec<usize>,
    pos: usize,
    /// Sleep set seeded at the branch point (last prefix decision).
    seed_sleep: Vec<(usize, Vec<Op>)>,
    sleep: Vec<(usize, Vec<Op>)>,
    trail: Vec<TrailEntry>,
    /// Address → small id, by first appearance (stable across replays of
    /// an identical prefix, even though stack addresses are not).
    obj_ids: HashMap<usize, u64>,
    aborting: bool,
    deadlocked: Option<Vec<(usize, String)>>,
    capped: bool,
    failure: Option<String>,
    max_steps: usize,
    use_sleep: bool,
}

impl Inner {
    fn obj(&mut self, addr: usize) -> u64 {
        let next = self.obj_ids.len() as u64;
        *self.obj_ids.entry(addr).or_insert(next)
    }

    /// Append an operation on `o` to the running step's footprint and wake
    /// sleepers whose step is dependent on it. Sleep-set independence is
    /// object-overlap only — the op kind is recorded for the DPOR driver's
    /// finer happens-before model, not consumed here.
    fn touch(&mut self, o: u64, kind: OpKind) {
        if self.aborting {
            return;
        }
        if let Some(step) = self.trail.last_mut() {
            step.footprint.push(Op { obj: o, kind });
        }
        if self.use_sleep {
            self.sleep
                .retain(|(_, fp)| !fp.iter().any(|op| op.obj == o));
        }
    }

    fn abort_all(&mut self) -> Vec<(usize, GateCmd)> {
        self.aborting = true;
        (0..self.n_workers).map(|w| (w, GateCmd::Abort)).collect()
    }

    /// When no thread runs and every live thread is parked, pick the next
    /// one. Returns the gate commands to send after unlocking.
    fn maybe_decide(&mut self) -> Vec<(usize, GateCmd)> {
        if self.running.is_some() || self.aborting || self.checked_in < self.n_workers {
            return Vec::new();
        }
        let parked: Vec<usize> = (0..self.n_workers)
            .filter(|&w| self.threads[w].alive && self.threads[w].parked)
            .collect();
        let any_alive = self.threads.iter().any(|t| t.alive);
        if !any_alive {
            return Vec::new(); // run finished cleanly
        }
        let enabled: Vec<usize> = parked
            .iter()
            .copied()
            .filter(|&w| self.threads[w].pending.enabled(&self.owner))
            .collect();
        if self.trail.len() >= self.max_steps {
            self.capped = true;
            return self.abort_all();
        }
        if enabled.is_empty() {
            self.deadlocked = Some(
                parked
                    .iter()
                    .map(|&w| (w, self.threads[w].pending.describe()))
                    .collect(),
            );
            return self.abort_all();
        }
        let chosen = if self.pos < self.prefix.len() {
            let c = self.prefix[self.pos];
            if !enabled.contains(&c) {
                self.failure = Some(format!(
                    "replay divergence at decision {}: worker {c} not enabled (enabled: {enabled:?}) \
                     — the scenario is not deterministic under thread-schedule control",
                    self.pos
                ));
                return self.abort_all();
            }
            if self.pos + 1 == self.prefix.len() {
                // Entering the branch: arm the sleep set the driver seeded.
                self.sleep = self.seed_sleep.clone();
            }
            self.trail.push(TrailEntry {
                enabled,
                chosen: c,
                footprint: Vec::new(),
                sleep: Vec::new(),
            });
            c
        } else {
            let snapshot = self.sleep.clone();
            let c = enabled
                .iter()
                .copied()
                .find(|w| !self.sleep.iter().any(|(s, _)| s == w))
                .unwrap_or_else(|| {
                    // Every enabled step is asleep: sound fallback is to run
                    // the first anyway (forfeits pruning, never coverage).
                    let c = enabled[0];
                    self.sleep.retain(|(s, _)| *s != c);
                    c
                });
            self.trail.push(TrailEntry {
                enabled,
                chosen: c,
                footprint: Vec::new(),
                sleep: snapshot,
            });
            c
        };
        self.pos += 1;
        match self.threads[chosen].pending {
            Pending::Start => {}
            Pending::Lock(m) | Pending::Wake(m) => {
                self.owner.insert(m, chosen);
                self.touch(m, OpKind::Acquire);
            }
            Pending::Wait { .. } => unreachable!("a waiting thread is never enabled"),
        }
        self.threads[chosen].parked = false;
        self.running = Some(chosen);
        vec![(chosen, GateCmd::Go)]
    }
}

/// The installed hook: cooperative scheduling over real threads.
///
/// The session only enforces the cooperative model and records the
/// trail; which branches get explored is entirely the business of the
/// DPOR loop in [`crate::mc`].
pub(crate) struct Session {
    inner: StdMutex<Inner>,
    gates: Vec<Gate>,
    /// Signaled by the thread-exit event; [`Session::drain`] waits on it
    /// between runs.
    exit_cv: StdCondvar,
}

impl Session {
    pub(crate) fn new(n_workers: usize, cfg: &ExploreConfig) -> Session {
        Session {
            inner: StdMutex::new(Inner {
                n_workers,
                checked_in: 0,
                threads: (0..n_workers)
                    .map(|_| ThreadState {
                        alive: false,
                        parked: false,
                        pending: Pending::Start,
                    })
                    .collect(),
                owner: HashMap::new(),
                running: None,
                prefix: Vec::new(),
                pos: 0,
                seed_sleep: Vec::new(),
                sleep: Vec::new(),
                trail: Vec::new(),
                obj_ids: HashMap::new(),
                aborting: false,
                deadlocked: None,
                capped: false,
                failure: None,
                max_steps: cfg.max_steps,
                use_sleep: cfg.sleep_sets,
            }),
            gates: (0..n_workers).map(|_| Gate::new()).collect(),
            exit_cv: StdCondvar::new(),
        }
    }

    /// Wait until every controlled thread of the finished run has reported
    /// its exit. `std::thread::scope` unblocks when the worker *closures*
    /// return, which is before the TLS destructor that fires
    /// the exit event — without this barrier a straggling exit from run
    /// N could corrupt the freshly reset state of run N+1.
    pub(crate) fn drain(&self) {
        let mut inner = lock_of(&self.inner);
        while inner.threads.iter().any(|t| t.alive) {
            let (g, _) = self
                .exit_cv
                .wait_timeout(inner, std::time::Duration::from_millis(100))
                .unwrap_or_else(|e| e.into_inner());
            inner = g;
        }
    }

    /// Prepare for the next run: replay `prefix`, then search with the
    /// given sleep set armed at the branch point.
    pub(crate) fn reset(&self, prefix: Vec<usize>, seed_sleep: Vec<(usize, Vec<Op>)>) {
        let mut inner = lock_of(&self.inner);
        inner.checked_in = 0;
        for t in &mut inner.threads {
            *t = ThreadState {
                alive: false,
                parked: false,
                pending: Pending::Start,
            };
        }
        inner.owner.clear();
        inner.running = None;
        inner.prefix = prefix;
        inner.pos = 0;
        inner.seed_sleep = seed_sleep;
        inner.sleep = Vec::new();
        inner.trail = Vec::new();
        inner.obj_ids.clear();
        inner.aborting = false;
        inner.deadlocked = None;
        inner.capped = false;
        inner.failure = None;
        for g in &self.gates {
            *lock_of(&g.cmd) = GateCmd::Park;
        }
    }

    /// Harvest the run's outcome: (trail, deadlock, capped, failure).
    #[allow(clippy::type_complexity)]
    pub(crate) fn take_outcome(
        &self,
    ) -> (
        Vec<TrailEntry>,
        Option<Vec<(usize, String)>>,
        bool,
        Option<String>,
    ) {
        let mut inner = lock_of(&self.inner);
        (
            std::mem::take(&mut inner.trail),
            inner.deadlocked.take(),
            inner.capped,
            inner.failure.take(),
        )
    }

    fn dispatch_wakes(&self, wakes: Vec<(usize, GateCmd)>) {
        for (w, cmd) in wakes {
            self.gates[w].wake(cmd);
        }
    }

    /// Register the current step boundary: the thread parks with `pending`
    /// and the next decision is made.
    fn park_at(&self, w: usize, pending: Pending) {
        let wakes = {
            let mut inner = lock_of(&self.inner);
            if inner.running == Some(w) {
                inner.running = None;
            }
            inner.threads[w].pending = pending;
            inner.threads[w].parked = true;
            inner.maybe_decide()
        };
        self.dispatch_wakes(wakes);
        self.gates[w].park();
    }
}

impl ExploreHook for Session {
    fn on_event(&self, event: SyncEvent) {
        match event {
            SyncEvent::Checkin { worker } => self.on_checkin(worker),
            SyncEvent::Acquire { mutex } => self.on_lock(mutex),
            SyncEvent::Release { mutex } => self.on_unlock(mutex),
            SyncEvent::Wait { condvar, mutex } => self.on_wait(condvar, mutex),
            SyncEvent::Notify { condvar, all } => self.on_notify(condvar, all),
            SyncEvent::ThreadExit { worker } => self.on_thread_exit(worker),
            // Bookkeeping events that never block: channel send/recv are
            // already ordered by their underlying mutex+condvar traffic,
            // and touchpoints/labels only feed the passive happens-before
            // recorder. None is a schedule point for the explorer.
            SyncEvent::WakeAcquire { .. }
            | SyncEvent::Send { .. }
            | SyncEvent::Recv { .. }
            | SyncEvent::Touch { .. }
            | SyncEvent::Label { .. } => {}
        }
    }
}

/// Per-event handlers; each runs on the checked-in thread that produced
/// the event, and may park it (that is how the cooperative model works).
impl Session {
    fn on_checkin(&self, worker: usize) {
        WORKER.with(|c| c.set(Some(worker)));
        let wakes = {
            let mut inner = lock_of(&self.inner);
            if worker >= inner.n_workers || inner.threads[worker].alive {
                let msg = format!(
                    "checkin of unexpected worker {worker} (session has {})",
                    inner.n_workers
                );
                inner.failure.get_or_insert(msg);
                let wakes = inner.abort_all();
                drop(inner);
                self.dispatch_wakes(wakes);
                panic!("{ABORT_MSG}");
            }
            inner.checked_in += 1;
            inner.threads[worker] = ThreadState {
                alive: true,
                parked: true,
                pending: Pending::Start,
            };
            inner.maybe_decide()
        };
        self.dispatch_wakes(wakes);
        self.gates[worker].park();
    }

    fn on_lock(&self, mutex: usize) {
        let Some(w) = WORKER.with(|c| c.get()) else {
            return;
        };
        let m = lock_of(&self.inner).obj(mutex);
        self.park_at(w, Pending::Lock(m));
    }

    fn on_unlock(&self, mutex: usize) {
        if WORKER.with(|c| c.get()).is_none() {
            return;
        }
        let mut inner = lock_of(&self.inner);
        if inner.aborting {
            return; // mid-unwind bookkeeping is pointless
        }
        let m = inner.obj(mutex);
        inner.owner.remove(&m);
        inner.touch(m, OpKind::Release);
        // No decision here: the thread keeps running until its next park.
    }

    fn on_wait(&self, condvar: usize, mutex: usize) {
        let Some(w) = WORKER.with(|c| c.get()) else {
            return;
        };
        let (cv, m) = {
            let mut inner = lock_of(&self.inner);
            let cv = inner.obj(condvar);
            let m = inner.obj(mutex);
            // The shim already released the real lock; mirror that in the
            // model, as part of the step that is ending.
            inner.owner.remove(&m);
            inner.touch(m, OpKind::Release);
            inner.touch(cv, OpKind::Wait);
            (cv, m)
        };
        self.park_at(w, Pending::Wait { cv, mutex: m });
        // Woken *and* re-granted the mutex (Wake was chosen): the shim now
        // re-acquires the real lock directly.
    }

    fn on_notify(&self, condvar: usize, all: bool) {
        if WORKER.with(|c| c.get()).is_none() {
            return;
        }
        let mut inner = lock_of(&self.inner);
        if inner.aborting {
            return;
        }
        let cv = inner.obj(condvar);
        inner.touch(cv, OpKind::Notify);
        let waiters: Vec<usize> = (0..inner.n_workers)
            .filter(|&t| {
                inner.threads[t].alive
                    && inner.threads[t].parked
                    && matches!(inner.threads[t].pending, Pending::Wait { cv: c, .. } if c == cv)
            })
            .collect();
        // notify_one wakes the lowest-id waiter — a deterministic stand-in
        // for the unordered real semantics (the runtime only uses
        // notify_all, where the order does not matter).
        let chosen: &[usize] = if all {
            &waiters
        } else {
            &waiters[..waiters.len().min(1)]
        };
        for &t in chosen {
            if let Pending::Wait { mutex, .. } = inner.threads[t].pending {
                inner.threads[t].pending = Pending::Wake(mutex);
            }
        }
    }

    fn on_thread_exit(&self, worker: usize) {
        // Runs from a TLS destructor, possibly during a panic unwind: it
        // must never panic and never rely on our own thread-locals.
        let wakes = {
            let mut inner = lock_of(&self.inner);
            if worker >= inner.n_workers || !inner.threads[worker].alive {
                return;
            }
            inner.threads[worker].alive = false;
            inner.threads[worker].parked = false;
            if inner.running == Some(worker) {
                inner.running = None;
            }
            let wakes = inner.maybe_decide();
            self.exit_cv.notify_all();
            wakes
        };
        self.dispatch_wakes(wakes);
    }
}

// ---------------------------------------------------------------------------
// Session teardown guard
// ---------------------------------------------------------------------------

/// RAII setup/teardown for one exploration: installs the session as the
/// compat shim's explore hook and swaps in a panic hook that swallows the
/// explorer's own teardown panics while capturing the first *real* panic
/// message of each run (a worker assertion, a DepTracker double-release…)
/// — `std::thread::scope` rethrows only a generic payload, so the hook is
/// where the real message is visible.
///
/// Both hooks are process-global state; restoring them in `Drop` (rather
/// than at the driver's tail) guarantees every exit path — first finding,
/// step-cap abort, replay divergence, an unexpected driver panic —
/// reinstates whatever panic hook the caller had installed.
type PanicHook = Box<dyn Fn(&panic::PanicHookInfo<'_>) + Send + Sync + 'static>;

pub(crate) struct SessionGuard {
    captured: Arc<StdMutex<Option<String>>>,
    prev: Option<PanicHook>,
}

impl SessionGuard {
    /// Install `session` and the capturing panic hook.
    pub(crate) fn install(session: Arc<Session>) -> SessionGuard {
        explore::install(session);
        let captured: Arc<StdMutex<Option<String>>> = Arc::new(StdMutex::new(None));
        let prev = panic::take_hook();
        {
            let captured = captured.clone();
            panic::set_hook(Box::new(move |info| {
                let msg = if let Some(s) = info.payload().downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = info.payload().downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
                if msg.contains(ABORT_MSG) || msg.contains(SCOPE_MSG) {
                    return;
                }
                let mut slot = captured.lock().unwrap_or_else(|e| e.into_inner());
                slot.get_or_insert(msg);
            }));
        }
        SessionGuard {
            captured,
            prev: Some(prev),
        }
    }

    /// Forget any message captured so far (called before each run).
    pub(crate) fn clear(&self) {
        *lock_of(&self.captured) = None;
    }

    /// Take the first real panic message of the current run, if any.
    pub(crate) fn take_panic(&self) -> Option<String> {
        lock_of(&self.captured).take()
    }
}

impl Drop for SessionGuard {
    fn drop(&mut self) {
        let _ = panic::take_hook();
        if let Some(prev) = self.prev.take() {
            panic::set_hook(prev);
        }
        explore::uninstall();
    }
}

/// Serializes explorations: the hook registry and the panic hook are
/// process-global.
pub(crate) static SESSION_LOCK: StdMutex<()> = StdMutex::new(());

// ---------------------------------------------------------------------------
// The timing-blind scheduler
// ---------------------------------------------------------------------------

/// A timing-blind scheduler for model checking: worker = task index modulo
/// worker count, FIFO queues, no priorities. With it, the runtime's
/// behaviour depends *only* on the thread schedule, which is exactly what
/// the explorer controls — `dmda`'s wall-clock completion estimates would
/// make replay diverge.
#[derive(Clone, Debug, Default)]
pub struct RoundRobin;

impl Scheduler for RoundRobin {
    fn name(&self) -> &str {
        "round-robin"
    }

    fn assign(&mut self, task: TaskId, ctx: &SchedContext, _view: &dyn ExecutionView) -> WorkerId {
        task.index() % ctx.platform.n_workers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetchol_core::dag::TaskGraph;
    use hetchol_core::profiles::TimingProfile;

    #[test]
    fn round_robin_is_timing_blind() {
        use hetchol_core::platform::Platform;
        use hetchol_core::scheduler::StaticView;
        let graph = TaskGraph::cholesky(3);
        let platform = Platform::homogeneous(2);
        let profile = TimingProfile::mirage_homogeneous();
        let ctx = SchedContext {
            graph: &graph,
            platform: &platform,
            profile: &profile,
        };
        let mut s = RoundRobin;
        assert_eq!(s.assign(TaskId(0), &ctx, &StaticView::default()), 0);
        assert_eq!(s.assign(TaskId(1), &ctx, &StaticView::default()), 1);
        assert_eq!(s.assign(TaskId(2), &ctx, &StaticView::default()), 0);
        assert!(!s.sorted_queues());
        assert_eq!(s.priority(TaskId(1), &ctx), 0);
    }

    #[test]
    fn pending_enabledness() {
        let mut owner = HashMap::new();
        assert!(Pending::Start.enabled(&owner));
        assert!(Pending::Lock(0).enabled(&owner));
        assert!(Pending::Wake(0).enabled(&owner));
        assert!(!Pending::Wait { cv: 1, mutex: 0 }.enabled(&owner));
        owner.insert(0, 1);
        assert!(!Pending::Lock(0).enabled(&owner));
        assert!(!Pending::Wake(0).enabled(&owner));
    }
}
