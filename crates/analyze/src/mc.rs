//! Model checking for the resilient runtime: source-DPOR exploration,
//! fault nondeterminism, an invariant engine and replayable witnesses.
//!
//! Every interleaving search in the workspace runs through this module's
//! one loop, over the cooperative session of [`crate::explore`]. It
//! prunes with the classic dynamic-partial-order-reduction argument
//! (Flanagan & Godefroid): after every complete run it computes the
//! happens-before relation of the trail with per-thread **vector clocks**
//! over the acquire/release/wait/notify events the `parking_lot` compat
//! shim reports, finds the pairs of dependent steps that are *not*
//! ordered, and only schedules the alternatives those races justify
//! (everything else provably commutes). Sleep sets
//! ([`ExploreConfig::sleep_sets`]) prune on top: a candidate whose step is
//! independent of everything run since it was last explored is skipped.
//! [`check_model`] drives any closed system of checked-in threads;
//! [`check_recovery`] drives the resilient runtime under a fault space.
//!
//! On top of thread nondeterminism the recovery checker
//! ([`check_recovery`]) adds **fault nondeterminism**: the driver runs the
//! whole interleaving exploration once per fault plan drawn from
//! [`FaultPlan::choice_space`] — no fault, every "worker `w` dies at
//! global start count `k`" point, every single-task transient failure.
//! Deaths are progress-keyed (global start count), so "the driver fires a
//! fault at exploration step `k`" and "a plan naming progress point `k`"
//! explore the same behaviours; enumerating plans is fault nondeterminism
//! in canonical form.
//!
//! Every quiescent state is checked against the **invariant engine**
//! ([`trace_invariants`] plus the model-level deadlock/livelock checks).
//! A violation stops the search; the choice prefix is minimized by linear
//! replay and serialized as a [`Witness`] — a plain-JSON artifact that
//! [`replay_witness`] turns back into the same violation, deterministically,
//! and that linter rule 18 (`mc-witness`) confirms from the replayed trace.
//!
//! See DESIGN.md §14 for the model and its guarantees.

use crate::explore::{
    lock_of, ExploreConfig, Op, OpKind, RoundRobin, Session, SessionGuard, TrailEntry, SESSION_LOCK,
};
use hetchol_core::dag::TaskGraph;
use hetchol_core::fault::{
    ConfigError, FailureCause, FaultEventKind, FaultPlan, RetryPolicy, RunOutcome,
};
use hetchol_core::json::{parse_json, JsonValue};
use hetchol_core::obs::ObsSink;
use hetchol_core::platform::WorkerId;
use hetchol_core::profiles::TimingProfile;
use hetchol_core::time::Time;
use hetchol_core::trace::Trace;
use hetchol_rt::RtResult;
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Vector clocks and the post-run race pass
// ---------------------------------------------------------------------------

/// A per-thread vector clock over the controlled workers.
#[derive(Clone, Debug, PartialEq, Eq)]
struct VClock(Vec<u64>);

impl VClock {
    fn zero(n: usize) -> VClock {
        VClock(vec![0; n])
    }

    fn tick(&mut self, p: usize) {
        self.0[p] += 1;
    }

    fn join(&mut self, other: &VClock) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }

    /// Pointwise ≤: `self` happens-before (or equals) `other`.
    fn le(&self, other: &VClock) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| a <= b)
    }
}

/// One node on the current DPOR path: the sleep-set frame data plus the
/// backtrack set the race pass grows.
struct DporFrame {
    enabled: Vec<usize>,
    explored: Vec<(usize, Vec<Op>)>,
    sleep: Vec<(usize, Vec<Op>)>,
    /// Workers that *must* be tried from this state: seeded with the first
    /// choice, extended whenever a later race points back here. Candidates
    /// outside this set provably commute with the explored run.
    backtrack: BTreeSet<usize>,
}

/// Two ops on the same object are dependent unless both are notifies:
/// `notify_all`s (and the model's deterministic `notify_one`) commute as
/// state transformers, while everything else on a mutex or condvar does
/// not. Each object therefore keeps two "last access" classes, and a step
/// depends on the other class plus (for non-notify ops) its own.
fn dependent_classes(kind: OpKind) -> &'static [bool] {
    const NOTIFY_DEPS: [bool; 1] = [false];
    const OTHER_DEPS: [bool; 2] = [false, true];
    if kind == OpKind::Notify {
        &NOTIFY_DEPS
    } else {
        &OTHER_DEPS
    }
}

/// The classic DPOR race pass, post-hoc over one complete trail: replays
/// the happens-before relation with vector clocks and, for every pair of
/// dependent-but-unordered steps `(j, k)`, requests the thread of `k` be
/// tried from the state before `j` (falling back to all enabled threads
/// when it was not enabled there — the conservative persistent-set rule).
fn add_backtracks(trail: &[TrailEntry], n_workers: usize, frames: &mut [DporFrame]) {
    let mut thread_clock: Vec<VClock> = vec![VClock::zero(n_workers); n_workers];
    let mut step_clocks: Vec<VClock> = Vec::with_capacity(trail.len());
    // (object, class) -> (last step touching it, join of all such steps).
    let mut objs: HashMap<(u64, bool), (usize, VClock)> = HashMap::new();
    for (k, t) in trail.iter().enumerate() {
        let p = t.chosen;
        let mut clock = thread_clock[p].clone();
        clock.tick(p);
        for op in &t.footprint {
            for &cls in dependent_classes(op.kind) {
                let Some((j, ocl)) = objs.get(&(op.obj, cls)) else {
                    continue;
                };
                let j = *j;
                if trail[j].chosen != p && !step_clocks[j].le(&clock) {
                    if let Some(f) = frames.get_mut(j) {
                        if f.enabled.contains(&p) {
                            f.backtrack.insert(p);
                        } else {
                            f.backtrack.extend(f.enabled.iter().copied());
                        }
                    }
                }
                // Join as we go: an op ordered through an earlier object in
                // this same footprint is genuinely ordered.
                clock.join(ocl);
            }
        }
        for op in &t.footprint {
            let is_notify = op.kind == OpKind::Notify;
            let entry = objs
                .entry((op.obj, is_notify))
                .or_insert_with(|| (k, VClock::zero(n_workers)));
            entry.0 = k;
            entry.1.join(&clock);
        }
        thread_clock[p] = clock.clone();
        step_clocks.push(clock);
    }
}

// ---------------------------------------------------------------------------
// The DPOR drive loop
// ---------------------------------------------------------------------------

/// How one exploration (for a fixed fault plan) ended.
enum DriveEnd {
    /// Every branch the backtrack sets justified was covered.
    Exhausted,
    /// `max_schedules` hit before exhaustion.
    Budget,
    /// A run panicked (worker assertion, replay divergence…).
    Failure(String),
    /// A run violated an invariant: it deadlocked, hit the step cap, or
    /// the post-run check flagged it. `choices` reach it; `target` is
    /// what the minimizer must reproduce.
    Verdict {
        violation: Violation,
        choices: Vec<usize>,
        target: Target,
    },
}

/// The violation of a run the session stopped before quiescence: a model
/// deadlock naming each parked worker and what it waits on, or, with no
/// parked set, a run over the `max_steps` decision cap.
fn stop_violation(parked: Option<&[(usize, String)]>, max_steps: usize) -> Violation {
    match parked {
        Some(parked) => Violation {
            invariant: Invariant::Deadlock,
            detail: parked
                .iter()
                .map(|(w, what)| format!("worker {w}: {what}"))
                .collect::<Vec<_>>()
                .join("; "),
        },
        None => Violation {
            invariant: Invariant::NoLivelock,
            detail: format!("a run exceeded {max_steps} scheduling decisions — livelock"),
        },
    }
}

struct Drive {
    schedules_run: usize,
    end: DriveEnd,
}

/// Run `run_once` repeatedly under source-DPOR control until the tree is
/// exhausted, a bound is hit, or a verdict is found. `post_run` is
/// invoked after every *clean* run (the quiescent final state) and may
/// return an invariant violation to stop the search.
fn drive(
    session: &Session,
    guard: &SessionGuard,
    n_workers: usize,
    cfg: &ExploreConfig,
    run_once: &mut dyn FnMut(),
    post_run: &mut dyn FnMut() -> Option<Violation>,
) -> Drive {
    let mut frames: Vec<DporFrame> = Vec::new();
    let mut prefix: Vec<usize> = Vec::new();
    let mut seed: Vec<(usize, Vec<Op>)> = Vec::new();
    let mut schedules_run = 0usize;
    let end = loop {
        session.reset(prefix.clone(), seed.clone());
        guard.clear();
        let outcome = panic::catch_unwind(AssertUnwindSafe(&mut *run_once));
        session.drain();
        schedules_run += 1;
        let (trail, deadlocked, capped, failure) = session.take_outcome();
        let panic_msg = guard.take_panic();
        let choices: Vec<usize> = trail.iter().map(|t| t.chosen).collect();

        if outcome.is_err() || failure.is_some() {
            if let Some(msg) = failure.or(panic_msg) {
                break DriveEnd::Failure(msg);
            }
            if let Some(parked) = deadlocked {
                break DriveEnd::Verdict {
                    violation: stop_violation(Some(&parked), cfg.max_steps),
                    choices,
                    target: Target::Deadlock(parked),
                };
            }
            if capped {
                break DriveEnd::Verdict {
                    violation: stop_violation(None, cfg.max_steps),
                    choices,
                    target: Target::Capped,
                };
            }
            break DriveEnd::Failure("run panicked without a message".to_string());
        }

        // Fold the clean run's trail into the DPOR frames.
        for (depth, t) in trail.iter().enumerate() {
            if depth < frames.len() {
                if !frames[depth].explored.iter().any(|(w, _)| *w == t.chosen) {
                    frames[depth].explored.push((t.chosen, t.footprint.clone()));
                }
            } else {
                frames.push(DporFrame {
                    enabled: t.enabled.clone(),
                    explored: vec![(t.chosen, t.footprint.clone())],
                    sleep: t.sleep.clone(),
                    backtrack: BTreeSet::from([t.chosen]),
                });
            }
        }
        add_backtracks(&trail, n_workers, &mut frames);

        if let Some(violation) = post_run() {
            let target = Target::Invariant(violation.invariant.id());
            break DriveEnd::Verdict {
                violation,
                choices,
                target,
            };
        }

        // Backtrack to the deepest state with a race-justified, untried,
        // awake candidate.
        let next = (0..frames.len()).rev().find_map(|d| {
            let f = &frames[d];
            f.backtrack
                .iter()
                .copied()
                .find(|w| {
                    f.enabled.contains(w)
                        && !f.explored.iter().any(|(e, _)| e == w)
                        && !(cfg.sleep_sets && f.sleep.iter().any(|(s, _)| s == w))
                })
                .map(|u| (d, u))
        });
        let Some((d, u)) = next else {
            break DriveEnd::Exhausted;
        };
        if schedules_run >= cfg.max_schedules {
            break DriveEnd::Budget;
        }
        prefix = choices[..d].to_vec();
        prefix.push(u);
        seed = if cfg.sleep_sets {
            frames[d]
                .sleep
                .iter()
                .chain(frames[d].explored.iter())
                .cloned()
                .collect()
        } else {
            Vec::new()
        };
        frames.truncate(d + 1);
    };
    Drive { schedules_run, end }
}

/// What a single (replayed) run was observed to do.
enum Observed {
    Clean,
    Deadlock(Vec<(usize, String)>),
    Capped,
    /// Panicked for a non-verdict reason; never matches a target.
    Failure,
    Trace(Violation),
}

/// One run with a forced choice prefix and free (deterministic
/// first-choice) search past it; no branching, no backtracking.
fn run_observed(
    session: &Session,
    guard: &SessionGuard,
    run_once: &mut dyn FnMut(),
    post_run: &mut dyn FnMut() -> Option<Violation>,
    prefix: &[usize],
) -> Observed {
    session.reset(prefix.to_vec(), Vec::new());
    guard.clear();
    let outcome = panic::catch_unwind(AssertUnwindSafe(&mut *run_once));
    session.drain();
    let (_trail, deadlocked, capped, failure) = session.take_outcome();
    let _ = guard.take_panic();
    if outcome.is_err() || failure.is_some() {
        if failure.is_none() {
            if let Some(parked) = deadlocked {
                return Observed::Deadlock(parked);
            }
            if capped {
                return Observed::Capped;
            }
        }
        return Observed::Failure;
    }
    match post_run() {
        Some(v) => Observed::Trace(v),
        None => Observed::Clean,
    }
}

/// What the minimizer must reproduce.
enum Target {
    /// A trace-level violation of this invariant.
    Invariant(&'static str),
    /// A model deadlock with exactly this parked set.
    Deadlock(Vec<(usize, String)>),
    /// A step-cap abort.
    Capped,
}

impl Target {
    fn matches(&self, obs: &Observed) -> bool {
        match (self, obs) {
            (Target::Invariant(id), Observed::Trace(v)) => v.invariant.id() == *id,
            (Target::Deadlock(p), Observed::Deadlock(q)) => p == q,
            (Target::Capped, Observed::Capped) => true,
            _ => false,
        }
    }
}

/// Shrink a violating choice prefix: find the shortest prefix whose
/// deterministic free-run continuation reproduces the same verdict. The
/// scan is linear from the empty prefix up; the full prefix always
/// reproduces, so the result is never longer than the input.
fn minimize_prefix(
    session: &Session,
    guard: &SessionGuard,
    run_once: &mut dyn FnMut(),
    post_run: &mut dyn FnMut() -> Option<Violation>,
    choices: &[usize],
    target: &Target,
) -> Vec<usize> {
    for k in 0..=choices.len() {
        let obs = run_observed(session, guard, run_once, post_run, &choices[..k]);
        if target.matches(&obs) {
            return choices[..k].to_vec();
        }
    }
    choices.to_vec()
}

// ---------------------------------------------------------------------------
// Generic entry points (thread nondeterminism only)
// ---------------------------------------------------------------------------

/// Outcome of one [`check_model`] call: the generic counterpart of
/// [`McReport`] for models that are not the resilient runtime.
#[derive(Clone, Debug)]
pub struct ModelReport {
    /// Branches run before the verdict.
    pub schedules_run: usize,
    /// `true` when the DPOR tree was covered with no finding.
    pub exhausted: bool,
    /// The first invariant violation found (model deadlocks surface as
    /// [`Invariant::Deadlock`], step-cap aborts as
    /// [`Invariant::NoLivelock`]).
    pub violation: Option<Violation>,
    /// Minimized choice prefix reaching `violation`; empty when clean.
    pub choices: Vec<usize>,
    /// Panic messages from runs that failed for any other reason.
    pub failures: Vec<String>,
}

impl ModelReport {
    /// `true` when no violation and no failure was found.
    pub fn is_clean(&self) -> bool {
        self.violation.is_none() && self.failures.is_empty()
    }
}

/// Exhaustively model-check an arbitrary closed system: explore every
/// (DPOR-reduced) interleaving of `run_once`'s `n_threads` checked-in
/// threads, evaluating `post_run` at every quiescent state. Stops at the
/// first violation and minimizes its choice prefix. This is the engine
/// behind the serve-pool model (`hetchol_serve::model`); the resilient
/// runtime keeps its richer [`check_recovery`] wrapper.
pub fn check_model(
    n_threads: usize,
    cfg: ExploreConfig,
    mut run_once: impl FnMut(),
    mut post_run: impl FnMut() -> Option<Violation>,
) -> ModelReport {
    assert!(n_threads > 0, "need at least one controlled thread");
    let _serial = lock_of(&SESSION_LOCK);
    let session = Arc::new(Session::new(n_threads, &cfg));
    let guard = SessionGuard::install(session.clone());

    let d = drive(
        &session,
        &guard,
        n_threads,
        &cfg,
        &mut run_once,
        &mut post_run,
    );
    let mut report = ModelReport {
        schedules_run: d.schedules_run,
        exhausted: false,
        violation: None,
        choices: Vec::new(),
        failures: Vec::new(),
    };
    let (violation, choices, target) = match d.end {
        DriveEnd::Exhausted => {
            report.exhausted = true;
            drop(guard);
            return report;
        }
        DriveEnd::Budget => {
            drop(guard);
            return report;
        }
        DriveEnd::Failure(msg) => {
            report.failures.push(msg);
            drop(guard);
            return report;
        }
        DriveEnd::Verdict {
            violation,
            choices,
            target,
        } => (violation, choices, target),
    };
    report.choices = minimize_prefix(
        &session,
        &guard,
        &mut run_once,
        &mut post_run,
        &choices,
        &target,
    );
    report.violation = Some(violation);
    drop(guard);
    report
}

/// Outcome of [`replay_model`].
#[derive(Clone, Debug)]
pub struct ModelReplay {
    /// The invariant violation the replay observed, if any.
    pub observed: Option<Violation>,
    /// A panic/assertion failure outside the invariant engine.
    pub error: Option<String>,
}

/// Deterministically re-run a model witness: force the choice prefix,
/// free-run past it, and classify the end — a model deadlock or step cap
/// as its violation, any other abort as an error, and a quiescent run by
/// `post_run`. [`replay_witness`] is this run with the invariant engine
/// as `post_run`.
pub fn replay_model(
    n_threads: usize,
    cfg: ExploreConfig,
    choices: &[usize],
    mut run_once: impl FnMut(),
    mut post_run: impl FnMut() -> Option<Violation>,
) -> ModelReplay {
    assert!(n_threads > 0, "need at least one controlled thread");
    let _serial = lock_of(&SESSION_LOCK);
    let session = Arc::new(Session::new(n_threads, &cfg));
    let guard = SessionGuard::install(session.clone());

    session.reset(choices.to_vec(), Vec::new());
    guard.clear();
    let outcome = panic::catch_unwind(AssertUnwindSafe(&mut run_once));
    session.drain();
    let (_trail, deadlocked, capped, failure) = session.take_outcome();
    let panic_msg = guard.take_panic();
    drop(guard);

    let mut replay = ModelReplay {
        observed: None,
        error: None,
    };
    if outcome.is_ok() && failure.is_none() {
        replay.observed = post_run();
    } else if deadlocked.is_some() || capped {
        replay.observed = Some(stop_violation(deadlocked.as_deref(), cfg.max_steps));
    } else {
        replay.error = failure
            .or(panic_msg)
            .or_else(|| Some("run panicked without a message".to_string()));
    }
    replay
}

// ---------------------------------------------------------------------------
// The invariant engine
// ---------------------------------------------------------------------------

/// The safety properties checked at every quiescent state.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Invariant {
    /// No enabled thread while some are parked (model-level; a lost
    /// wakeup or a stranded task queue becomes exactly this).
    Deadlock,
    /// Every task retires exactly once — never twice, and never zero
    /// times in a run that claims success.
    RetireOnce,
    /// No task execution starts at or after its worker's recorded death.
    NoExecAfterDeath,
    /// No task is enqueued to a worker strictly after its recorded death.
    /// (At-death enqueues are legitimate: a completion dispatches
    /// successors and reaps a due death in one lock section sharing one
    /// clock read, and the reap immediately re-queues them.)
    NoQueueAfterDeath,
    /// The [`RunOutcome`] classification matches the observed deaths,
    /// retries and aborts.
    OutcomeConsistent,
    /// A run stays under the decision budget — retry backoff must not
    /// spin the engine forever (model-level step cap).
    NoLivelock,
    /// Serve-pool model: every accepted request is answered exactly once
    /// — one reply per client, and every non-degraded reply is backed by
    /// a stored job.
    AnsweredOnce,
    /// Serve-pool model: once a shard's death is observed, no later
    /// request routed to it gets a non-degraded reply.
    NoServeAfterKill,
    /// Serve-pool model: cache accounting balances — hits + misses equals
    /// the counted gets on every cache.
    CacheAccounting,
    /// Serve-pool model: a job evicted from the store under memory
    /// pressure and then requested again is reloaded from the log
    /// backend with its identity intact — eviction must never turn an
    /// answered job into a 404 or a different job.
    EvictionReload,
}

impl Invariant {
    /// Every invariant, in severity-agnostic declaration order.
    pub const ALL: [Invariant; 10] = [
        Invariant::Deadlock,
        Invariant::RetireOnce,
        Invariant::NoExecAfterDeath,
        Invariant::NoQueueAfterDeath,
        Invariant::OutcomeConsistent,
        Invariant::NoLivelock,
        Invariant::AnsweredOnce,
        Invariant::NoServeAfterKill,
        Invariant::CacheAccounting,
        Invariant::EvictionReload,
    ];

    /// Stable kebab-case id, used in witnesses and diagnostics.
    pub fn id(self) -> &'static str {
        match self {
            Invariant::Deadlock => "deadlock",
            Invariant::RetireOnce => "retire-once",
            Invariant::NoExecAfterDeath => "no-exec-after-death",
            Invariant::NoQueueAfterDeath => "no-queue-after-death",
            Invariant::OutcomeConsistent => "outcome-consistent",
            Invariant::NoLivelock => "no-livelock",
            Invariant::AnsweredOnce => "answered-once",
            Invariant::NoServeAfterKill => "no-serve-after-kill",
            Invariant::CacheAccounting => "cache-accounting",
            Invariant::EvictionReload => "eviction-reload",
        }
    }

    /// Inverse of [`Invariant::id`].
    pub fn from_id(id: &str) -> Option<Invariant> {
        Invariant::ALL.iter().copied().find(|i| i.id() == id)
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One invariant violation: which, and the concrete evidence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The violated invariant.
    pub invariant: Invariant,
    /// Human-readable evidence (task/worker ids, counts, timestamps).
    pub detail: String,
}

/// Check the trace-level invariants of one completed resilient run:
/// retire-once, no-exec-after-death, no-queue-after-death and
/// outcome-consistent. (Deadlock and no-livelock are model-level — they
/// abort the run before a trace exists.) Also the engine behind linter
/// rule 18 (`mc-witness`).
pub fn trace_invariants(graph: &TaskGraph, trace: &Trace, outcome: &RunOutcome) -> Vec<Violation> {
    let mut out = Vec::new();

    // retire-once
    let mut counts = vec![0usize; graph.len()];
    for e in &trace.events {
        if let Some(c) = counts.get_mut(e.task.index()) {
            *c += 1;
        }
    }
    for (i, &c) in counts.iter().enumerate() {
        if c > 1 {
            out.push(Violation {
                invariant: Invariant::RetireOnce,
                detail: format!("task {i} retired {c} times"),
            });
        }
    }
    if outcome.is_success() {
        for (i, &c) in counts.iter().enumerate() {
            if c == 0 {
                out.push(Violation {
                    invariant: Invariant::RetireOnce,
                    detail: format!("task {i} never executed though the outcome claims success"),
                });
            }
        }
    }

    // First recorded death instant per worker.
    let mut death: HashMap<WorkerId, Time> = HashMap::new();
    for fe in &trace.fault_events {
        if let FaultEventKind::WorkerDied { worker } = fe.kind {
            death.entry(worker).or_insert(fe.at);
        }
    }

    // no-exec-after-death
    for e in &trace.events {
        if let Some(&d) = death.get(&e.worker) {
            if e.start >= d {
                out.push(Violation {
                    invariant: Invariant::NoExecAfterDeath,
                    detail: format!(
                        "task {} started on worker {} at {:?}, at/after its death at {:?}",
                        e.task.index(),
                        e.worker,
                        e.start,
                        d
                    ),
                });
            }
        }
    }

    // no-queue-after-death (strictly after: an enqueue sharing the death's
    // timestamp is the same lock section, whose reap re-queues it at once)
    for q in &trace.queue_events {
        if let Some(&d) = death.get(&q.worker) {
            if q.at > d {
                out.push(Violation {
                    invariant: Invariant::NoQueueAfterDeath,
                    detail: format!(
                        "task {} enqueued to worker {} at {:?}, after its death at {:?}",
                        q.task.index(),
                        q.worker,
                        q.at,
                        d
                    ),
                });
            }
        }
    }

    // outcome-consistent
    let mut deaths: Vec<WorkerId> = death.keys().copied().collect();
    deaths.sort_unstable();
    let retries = trace
        .fault_events
        .iter()
        .filter(|e| matches!(e.kind, FaultEventKind::Retried { .. }))
        .count() as u64;
    match outcome {
        RunOutcome::Completed => {
            if !deaths.is_empty() || retries > 0 {
                out.push(Violation {
                    invariant: Invariant::OutcomeConsistent,
                    detail: format!(
                        "classified Completed but observed {} death(s) and {retries} retry(ies)",
                        deaths.len()
                    ),
                });
            }
        }
        RunOutcome::Degraded {
            lost_workers,
            retries: r,
        } => {
            let mut lw = lost_workers.clone();
            lw.sort_unstable();
            if lw != deaths {
                out.push(Violation {
                    invariant: Invariant::OutcomeConsistent,
                    detail: format!(
                        "classified lost workers {lw:?} but the trace records deaths of {deaths:?}"
                    ),
                });
            }
            if *r != retries {
                out.push(Violation {
                    invariant: Invariant::OutcomeConsistent,
                    detail: format!(
                        "classified {r} retry(ies) but the trace records {retries} Retried event(s)"
                    ),
                });
            }
            if deaths.is_empty() && retries == 0 {
                out.push(Violation {
                    invariant: Invariant::OutcomeConsistent,
                    detail: "classified Degraded with no observed deaths or retries".to_string(),
                });
            }
        }
        RunOutcome::Failed { cause } => match cause {
            FailureCause::RetriesExhausted { task, .. } => {
                let aborted = trace.fault_events.iter().any(
                    |e| matches!(e.kind, FaultEventKind::Aborted { task: t, .. } if t == *task),
                );
                if !aborted {
                    out.push(Violation {
                        invariant: Invariant::OutcomeConsistent,
                        detail: format!(
                            "classified RetriesExhausted for task {} but no Aborted event was recorded",
                            task.index()
                        ),
                    });
                }
            }
            FailureCause::AllWorkersLost if deaths.len() < trace.n_workers => {
                out.push(Violation {
                    invariant: Invariant::OutcomeConsistent,
                    detail: format!(
                        "classified AllWorkersLost but only {} of {} workers died",
                        deaths.len(),
                        trace.n_workers
                    ),
                });
            }
            _ => {}
        },
    }
    out
}

// ---------------------------------------------------------------------------
// Witnesses
// ---------------------------------------------------------------------------

/// A replayable counterexample: everything needed to re-create the
/// violating run — the scenario shape, the fault plan, the (minimized)
/// choice prefix — plus the verdict it reproduces. Serializes to plain
/// JSON via [`Witness::to_json`] / [`Witness::from_json`].
#[derive(Clone, Debug, PartialEq)]
pub struct Witness {
    /// Format version (currently 1).
    pub version: u32,
    /// Which model produced the witness: `"rt"` (the resilient runtime,
    /// the default — omitted from the JSON for compatibility) or
    /// `"serve-pool"` (the serve sharded-pool model).
    pub model: String,
    /// Cholesky tile count of the checked scenario.
    pub n_tiles: usize,
    /// Worker (thread) count of the checked scenario.
    pub n_workers: usize,
    /// Name of the seeded runtime mutation, if the scenario ran one
    /// (e.g. `"skip-dead-requeue"`); `None` for the stock runtime.
    pub mutation: Option<String>,
    /// The fault plan active when the violation was found.
    pub plan: FaultPlan,
    /// Minimized scheduling-choice prefix; the free run past it
    /// deterministically reaches the violation.
    pub choices: Vec<usize>,
    /// The violated invariant.
    pub invariant: Invariant,
    /// Evidence recorded at discovery time.
    pub detail: String,
    /// Branches explored before the violation was found.
    pub schedules_explored: usize,
}

impl Witness {
    /// Serialize to the versioned plain-JSON witness format.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"version\": {},\n", self.version));
        // The model tag is omitted for "rt", the parser's default, so rt
        // witnesses keep the shape they had before the serve-pool model.
        let model_tag = if self.model == "rt" {
            String::new()
        } else {
            format!("\"model\": {}, ", JsonValue::str(&self.model))
        };
        s.push_str(&format!(
            "  \"scenario\": {{{model_tag}\"n_tiles\": {}, \"n_workers\": {}, \"mutation\": {}}},\n",
            self.n_tiles,
            self.n_workers,
            match &self.mutation {
                Some(m) => JsonValue::str(m).render(),
                None => "null".to_string(),
            }
        ));
        s.push_str(&format!(
            "  \"fault\": {},\n",
            self.plan.to_json_value().render()
        ));
        let choices: Vec<String> = self.choices.iter().map(|c| c.to_string()).collect();
        s.push_str(&format!("  \"choices\": [{}],\n", choices.join(", ")));
        s.push_str(&format!(
            "  \"violation\": {{\"invariant\": \"{}\", \"detail\": {}}},\n",
            self.invariant.id(),
            JsonValue::str(&self.detail)
        ));
        s.push_str(&format!(
            "  \"schedules_explored\": {}\n",
            self.schedules_explored
        ));
        s.push('}');
        s
    }

    /// Parse a witness serialized by [`Witness::to_json`].
    pub fn from_json(text: &str) -> Result<Witness, String> {
        let v = parse_json(text)?;
        let version = v.field("version")?.as_u64()? as u32;
        if version != 1 {
            return Err(format!("unsupported witness version {version}"));
        }
        let scenario = v.field("scenario")?;
        let model = match scenario.field("model") {
            Ok(m) => m.as_str()?.to_string(),
            Err(_) => "rt".to_string(),
        };
        let n_tiles = scenario.field("n_tiles")?.as_u64()? as usize;
        let n_workers = scenario.field("n_workers")?.as_u64()? as usize;
        let mutation = match scenario.field("mutation")? {
            JsonValue::Null => None,
            JsonValue::Str(s) => Some(s.clone()),
            other => return Err(format!("mutation must be a string or null, got {other:?}")),
        };
        let plan = FaultPlan::from_json_value(v.field("fault")?)?;
        let choices = v
            .field("choices")?
            .as_arr()?
            .iter()
            .map(|c| c.as_u64().map(|n| n as usize))
            .collect::<Result<Vec<usize>, String>>()?;
        let violation = v.field("violation")?;
        let inv_id = violation.field("invariant")?.as_str()?;
        let invariant =
            Invariant::from_id(inv_id).ok_or_else(|| format!("unknown invariant id {inv_id:?}"))?;
        let detail = violation.field("detail")?.as_str()?.to_string();
        let schedules_explored = v.field("schedules_explored")?.as_u64()? as usize;
        Ok(Witness {
            version,
            model,
            n_tiles,
            n_workers,
            mutation,
            plan,
            choices,
            invariant,
            detail,
            schedules_explored,
        })
    }
}
// ---------------------------------------------------------------------------
// The recovery checker
// ---------------------------------------------------------------------------

/// What [`check_recovery`] model-checks: an `n_tiles` tile Cholesky DAG on
/// `n_workers` runtime threads under the [`RoundRobin`] timing-blind
/// scheduler. `mutation` is a label recorded into witnesses so a replay
/// can rebuild the same (possibly seeded-buggy) runner.
#[derive(Clone, Debug)]
pub struct RecoveryScenario {
    /// Cholesky tile count (task count grows cubically).
    pub n_tiles: usize,
    /// Worker thread count.
    pub n_workers: usize,
    /// Seeded-mutation label for witnesses, `None` for the stock runtime.
    pub mutation: Option<String>,
}

/// Outcome of one [`check_recovery`] call.
#[derive(Clone, Debug)]
pub struct McReport {
    /// Fault plans explored (each gets its own interleaving tree).
    pub plans: usize,
    /// Total branches run across all plans.
    pub schedules_run: usize,
    /// `true` when every plan's DPOR tree was covered with no finding.
    pub exhausted: bool,
    /// The first invariant violation found, minimized and replayable.
    pub witness: Option<Witness>,
    /// Panic messages from runs that failed for any other reason.
    pub failures: Vec<String>,
}

impl McReport {
    /// `true` when no violation and no failure was found.
    pub fn is_clean(&self) -> bool {
        self.witness.is_none() && self.failures.is_empty()
    }
}

fn plan_label(plan: &FaultPlan) -> String {
    if plan.is_empty() {
        "no faults".to_string()
    } else {
        plan.faults()
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join(" + ")
    }
}

/// The stock runner for [`check_recovery`]: the real
/// `hetchol_rt::execute_resilient_controlled` on a no-op Cholesky
/// workload, deterministic (logical clock) so a choice prefix replays to
/// the same behaviour.
pub fn resilient_runner(
    n_tiles: usize,
    n_workers: usize,
) -> impl FnMut(&FaultPlan) -> Result<RtResult, ConfigError> {
    let graph = TaskGraph::cholesky(n_tiles);
    let profile = TimingProfile::mirage_homogeneous();
    let policy = RetryPolicy::default();
    move |plan| {
        let mut sched = RoundRobin;
        let workload = hetchol_rt::FnWorkload(|_| Ok::<(), std::convert::Infallible>(()));
        hetchol_rt::execute_resilient_controlled(
            &workload,
            &graph,
            &mut sched,
            &profile,
            n_workers,
            ObsSink::disabled(),
            plan,
            &policy,
            true,
        )
    }
}

/// Exhaustively model-check the resilient runtime: for every fault plan
/// in `fault_space`, explore every (DPOR-reduced) thread interleaving of
/// `runner`, checking the invariant engine at every quiescent state.
/// Stops at the first violation, minimizes its choice prefix and returns
/// it as a replayable [`Witness`].
///
/// `runner` must be deterministic given a thread schedule and must run the
/// scenario `scenario` describes ([`resilient_runner`] is the stock one;
/// tests substitute seeded-mutation runners).
pub fn check_recovery(
    scenario: &RecoveryScenario,
    fault_space: &[FaultPlan],
    cfg: ExploreConfig,
    mut runner: impl FnMut(&FaultPlan) -> Result<RtResult, ConfigError>,
) -> McReport {
    assert!(scenario.n_workers > 0, "need at least one worker");
    let graph = TaskGraph::cholesky(scenario.n_tiles);
    let _serial = lock_of(&SESSION_LOCK);
    let session = Arc::new(Session::new(scenario.n_workers, &cfg));
    let guard = SessionGuard::install(session.clone());

    let mut report = McReport {
        plans: fault_space.len(),
        schedules_run: 0,
        exhausted: true,
        witness: None,
        failures: Vec::new(),
    };

    for plan in fault_space {
        let slot: RefCell<Option<RtResult>> = RefCell::new(None);
        let mut run_once = || {
            let r = runner(plan).expect("fault plan rejected by the runtime");
            *slot.borrow_mut() = Some(r);
        };
        let mut post_run = || -> Option<Violation> {
            let r = slot.borrow_mut().take()?;
            trace_invariants(&graph, &r.trace, &r.outcome)
                .into_iter()
                .next()
        };

        let d = drive(
            &session,
            &guard,
            scenario.n_workers,
            &cfg,
            &mut run_once,
            &mut post_run,
        );
        report.schedules_run += d.schedules_run;

        let (violation, choices, target) = match d.end {
            DriveEnd::Exhausted => continue,
            DriveEnd::Budget => {
                report.exhausted = false;
                continue;
            }
            DriveEnd::Failure(msg) => {
                report.exhausted = false;
                report
                    .failures
                    .push(format!("[{}] {msg}", plan_label(plan)));
                break;
            }
            DriveEnd::Verdict {
                violation,
                choices,
                target,
            } => (violation, choices, target),
        };

        let min_choices = minimize_prefix(
            &session,
            &guard,
            &mut run_once,
            &mut post_run,
            &choices,
            &target,
        );
        report.exhausted = false;
        report.witness = Some(Witness {
            version: 1,
            model: "rt".to_string(),
            n_tiles: scenario.n_tiles,
            n_workers: scenario.n_workers,
            mutation: scenario.mutation.clone(),
            plan: plan.clone(),
            choices: min_choices,
            invariant: violation.invariant,
            detail: violation.detail,
            schedules_explored: report.schedules_run,
        });
        break;
    }

    drop(guard);
    report
}

// ---------------------------------------------------------------------------
// Witness replay
// ---------------------------------------------------------------------------

/// Outcome of [`replay_witness`].
#[derive(Debug)]
pub struct Replay {
    /// The invariant violation the replay observed, if any.
    pub observed: Option<Violation>,
    /// A panic/assertion failure outside the invariant engine.
    pub error: Option<String>,
    /// `true` when the observed violation matches the witness's invariant.
    pub reproduced: bool,
    /// The run's result, when the run completed — the trace feeds the
    /// linter (rule 18). `None` for deadlocked/aborted replays.
    pub result: Option<RtResult>,
}

/// Deterministically re-run a witness: force its choice prefix, free-run
/// past it, and re-evaluate the invariant engine. `runner` must rebuild
/// the scenario the witness describes (same tile/worker counts, same
/// mutation — the witness's `mutation` label says which).
pub fn replay_witness(
    witness: &Witness,
    cfg: ExploreConfig,
    mut runner: impl FnMut(&FaultPlan) -> Result<RtResult, ConfigError>,
) -> Replay {
    assert!(witness.n_workers > 0, "witness names zero workers");
    let graph = TaskGraph::cholesky(witness.n_tiles);
    let slot: RefCell<Option<RtResult>> = RefCell::new(None);
    let mut result = None;
    let ModelReplay { observed, error } = replay_model(
        witness.n_workers,
        cfg,
        &witness.choices,
        || {
            let r = runner(&witness.plan).expect("fault plan rejected by the runtime");
            *slot.borrow_mut() = Some(r);
        },
        || {
            let r = slot.borrow_mut().take()?;
            let violation = trace_invariants(&graph, &r.trace, &r.outcome)
                .into_iter()
                .next();
            result = Some(r);
            violation
        },
    );
    let reproduced = observed
        .as_ref()
        .is_some_and(|v| v.invariant == witness.invariant);
    Replay {
        observed,
        error,
        reproduced,
        result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetchol_core::kernel::Kernel;
    use hetchol_core::task::TaskId;
    use hetchol_core::trace::{QueueEvent, TraceEvent};

    #[test]
    fn vclock_ordering() {
        let mut a = VClock::zero(2);
        let mut b = VClock::zero(2);
        a.tick(0);
        assert!(!a.le(&b));
        b.join(&a);
        b.tick(1);
        assert!(a.le(&b));
        assert!(!b.le(&a));
    }

    #[test]
    fn invariant_ids_round_trip() {
        for inv in Invariant::ALL {
            assert_eq!(Invariant::from_id(inv.id()), Some(inv));
        }
        assert_eq!(Invariant::from_id("nonsense"), None);
    }

    fn event(task: u32, worker: usize, start_ns: u64) -> TraceEvent {
        TraceEvent {
            worker,
            task: TaskId(task),
            kernel: Kernel::Potrf,
            start: Time::from_nanos(start_ns),
            end: Time::from_nanos(start_ns + 1),
        }
    }

    #[test]
    fn retire_once_flags_double_and_missing_retirement() {
        let graph = TaskGraph::cholesky(2);
        let mut trace = Trace {
            n_workers: 1,
            events: (0..graph.len() as u32)
                .map(|t| event(t, 0, t as u64))
                .collect(),
            transfers: Vec::new(),
            queue_events: Vec::new(),
            fault_events: Vec::new(),
        };
        assert!(trace_invariants(&graph, &trace, &RunOutcome::Completed).is_empty());
        trace.events.push(event(0, 0, 99));
        let v = trace_invariants(&graph, &trace, &RunOutcome::Completed);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, Invariant::RetireOnce);
        trace.events.truncate(graph.len() - 1); // drop the dup and task 3
        let v = trace_invariants(&graph, &trace, &RunOutcome::Completed);
        assert!(v
            .iter()
            .any(|v| v.invariant == Invariant::RetireOnce && v.detail.contains("never executed")));
    }

    #[test]
    fn death_invariants_flag_late_exec_and_enqueue() {
        use hetchol_core::fault::FaultEvent;
        let graph = TaskGraph::cholesky(2);
        let death_at = Time::from_nanos(10);
        let trace = Trace {
            n_workers: 2,
            events: vec![
                event(0, 0, 1),
                event(1, 1, 20), // starts after worker 1's death
                event(2, 0, 3),
                event(3, 0, 4),
            ],
            transfers: Vec::new(),
            queue_events: vec![QueueEvent {
                worker: 1,
                task: TaskId(1),
                prio: 0,
                seq: 0,
                at: Time::from_nanos(15), // enqueued after death
                data_ready: Time::from_nanos(15),
            }],
            fault_events: vec![FaultEvent {
                at: death_at,
                kind: FaultEventKind::WorkerDied { worker: 1 },
            }],
        };
        let outcome = RunOutcome::Degraded {
            lost_workers: vec![1],
            retries: 0,
        };
        let v = trace_invariants(&graph, &trace, &outcome);
        assert!(v.iter().any(|v| v.invariant == Invariant::NoExecAfterDeath));
        assert!(v
            .iter()
            .any(|v| v.invariant == Invariant::NoQueueAfterDeath));
    }

    #[test]
    fn outcome_consistency_flags_misclassification() {
        use hetchol_core::fault::FaultEvent;
        let graph = TaskGraph::cholesky(2);
        let trace = Trace {
            n_workers: 2,
            events: (0..graph.len() as u32)
                .map(|t| event(t, 0, 100 + t as u64))
                .collect(),
            transfers: Vec::new(),
            queue_events: Vec::new(),
            fault_events: vec![FaultEvent {
                at: Time::from_nanos(5),
                kind: FaultEventKind::WorkerDied { worker: 1 },
            }],
        };
        // Claims Completed though a worker died.
        let v = trace_invariants(&graph, &trace, &RunOutcome::Completed);
        assert!(v
            .iter()
            .any(|v| v.invariant == Invariant::OutcomeConsistent));
        // Correct classification is clean.
        let ok = RunOutcome::Degraded {
            lost_workers: vec![1],
            retries: 0,
        };
        assert!(trace_invariants(&graph, &trace, &ok).is_empty());
        // Degraded with nothing observed is also a misclassification.
        let quiet = Trace {
            fault_events: Vec::new(),
            ..trace
        };
        let v = trace_invariants(&graph, &quiet, &ok);
        assert!(v
            .iter()
            .any(|v| v.invariant == Invariant::OutcomeConsistent));
    }

    #[test]
    fn witness_json_round_trips() {
        let w = Witness {
            version: 1,
            model: "rt".to_string(),
            n_tiles: 3,
            n_workers: 2,
            mutation: Some("skip-dead-requeue".to_string()),
            plan: FaultPlan::new()
                .kill_worker(1, 3)
                .transient(TaskId(2), 1)
                .straggler(0, 2.5)
                .corrupt_tile(TaskId(4)),
            choices: vec![0, 1, 1, 0],
            invariant: Invariant::Deadlock,
            detail: "worker 0: waiting on condvar #1 (released mutex #0)".to_string(),
            schedules_explored: 17,
        };
        let json = w.to_json();
        let back = Witness::from_json(&json).expect("round trip");
        assert_eq!(back, w);
        // Stock-runtime witness (no mutation) round-trips too.
        let w2 = Witness {
            mutation: None,
            plan: FaultPlan::none(),
            ..w.clone()
        };
        assert_eq!(Witness::from_json(&w2.to_json()).unwrap(), w2);
        // An rt witness never mentions a model tag (wire compatibility)…
        assert!(!w.to_json().contains("\"model\""));
        // …while a serve-pool witness carries and round-trips it.
        let w3 = Witness {
            model: "serve-pool".to_string(),
            mutation: Some("leak-killed-batch".to_string()),
            invariant: Invariant::AnsweredOnce,
            ..w
        };
        let json = w3.to_json();
        assert!(json.contains("\"model\": \"serve-pool\""));
        assert_eq!(Witness::from_json(&json).unwrap(), w3);
    }

    /// A witness as `repro mc --tiles 3 --mutate skip-dead-requeue
    /// --faults --witness-out` wrote it before the fault list moved to
    /// `FaultPlan`'s codec (spaced objects rather than compact ones).
    #[test]
    fn witness_in_the_spaced_fault_format_still_parses() {
        let text = r#"{
  "version": 1,
  "scenario": {"n_tiles": 3, "n_workers": 2, "mutation": "skip-dead-requeue"},
  "fault": [{"kind": "worker_death", "worker": 0, "after_starts": 1}],
  "choices": [],
  "violation": {"invariant": "deadlock", "detail": "worker 1: waiting on condvar #2 (released mutex #0)"},
  "schedules_explored": 27
}"#;
        let expected = Witness {
            version: 1,
            model: "rt".to_string(),
            n_tiles: 3,
            n_workers: 2,
            mutation: Some("skip-dead-requeue".to_string()),
            plan: FaultPlan::new().kill_worker(0, 1),
            choices: vec![],
            invariant: Invariant::Deadlock,
            detail: "worker 1: waiting on condvar #2 (released mutex #0)".to_string(),
            schedules_explored: 27,
        };
        assert_eq!(Witness::from_json(text).unwrap(), expected);
        assert!(expected
            .to_json()
            .contains(r#""fault": [{"kind":"worker_death","worker":0,"after_starts":1}],"#));
    }

    #[test]
    fn witness_parser_rejects_garbage() {
        assert!(Witness::from_json("").is_err());
        assert!(Witness::from_json("{}").is_err());
        assert!(Witness::from_json("{\"version\": 2}").is_err());
        let w = Witness {
            version: 1,
            model: "rt".to_string(),
            n_tiles: 2,
            n_workers: 2,
            mutation: None,
            plan: FaultPlan::none(),
            choices: vec![],
            invariant: Invariant::RetireOnce,
            detail: String::new(),
            schedules_explored: 0,
        };
        let json = w.to_json().replace("retire-once", "no-such-invariant");
        assert!(Witness::from_json(&json).is_err());
    }

    #[test]
    fn json_escapes_survive() {
        let w = Witness {
            version: 1,
            model: "rt".to_string(),
            n_tiles: 2,
            n_workers: 1,
            mutation: Some("quote\"back\\slash\nnewline\ttab".to_string()),
            plan: FaultPlan::none(),
            choices: vec![],
            invariant: Invariant::OutcomeConsistent,
            detail: "α × β".to_string(),
            schedules_explored: 1,
        };
        assert_eq!(Witness::from_json(&w.to_json()).unwrap(), w);
    }
}
