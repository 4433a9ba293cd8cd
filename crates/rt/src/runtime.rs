//! The parallel runtime: worker threads over the shared execution core.
//!
//! Dependency tracking, queue insertion and the availability estimate all
//! live in [`hetchol_core::exec`]; this module only supplies what is
//! specific to real threads — wall-clock time, the worker thread loop,
//! and error propagation from failing kernels. The single shared memory
//! node means the engine uses the default (free, instantaneous)
//! [`exec::EngineHooks`] data model.

use crate::workload::Workload;
use hetchol_core::dag::TaskGraph;
use hetchol_core::exec::{self, DepTracker, QueueEntry, SingleNode, TraceRecorder, WorkerQueues};
use hetchol_core::fault::{
    ConfigError, FailureCause, FaultKind, FaultPlan, FaultState, RetryPolicy, RunOutcome,
};
use hetchol_core::obs::{ObsReport, ObsSink};
use hetchol_core::platform::{Platform, WorkerId};
use hetchol_core::profiles::TimingProfile;
use hetchol_core::scheduler::{SchedContext, Scheduler};
use hetchol_core::task::TaskId;
use hetchol_core::time::Time;
use hetchol_core::trace::Trace;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The runtime's notion of "now".
///
/// The real entry points read the wall clock; the model-checking entry
/// points ([`execute_resilient_controlled`] with `deterministic: true`)
/// use a logical clock instead — a monotone counter whose reads are
/// serialized by the interleaving explorer's one-thread-at-a-time model,
/// so every replay of a thread schedule observes the *same* sequence of
/// timestamps. That removes the runtime's one genuine wall-clock hazard:
/// the dead-worker re-dispatch override picks the survivor with the
/// smallest availability estimate *at `now`*, which under the wall clock
/// can differ between a run and its replay.
enum Clock {
    /// Wall-clock time relative to execution start.
    Wall(Instant),
    /// Deterministic logical time: each read ticks the counter by 1 ns.
    Logical(AtomicU64),
}

impl Clock {
    fn wall() -> Clock {
        Clock::Wall(Instant::now())
    }

    fn now(&self) -> Time {
        match self {
            Clock::Wall(t0) => Time::from_secs_f64(t0.elapsed().as_secs_f64()),
            Clock::Logical(c) => Time::from_nanos(c.fetch_add(1, Ordering::Relaxed) + 1),
        }
    }

    /// `true` when time is logical — real sleeps (retry backoff, straggler
    /// stretch, watchdog occupancy) are skipped: under a logical clock
    /// only the *ordering* of events is meaningful, and sleeping would
    /// reintroduce the host scheduler as a hidden source of
    /// nondeterminism.
    fn is_logical(&self) -> bool {
        matches!(self, Clock::Logical(_))
    }
}

/// Result of one real execution.
#[derive(Clone, Debug)]
pub struct RtResult {
    /// Wall-clock trace (times relative to execution start).
    pub trace: Trace,
    /// Wall-clock makespan.
    pub makespan: Time,
    /// Structured observability record (empty unless the run was given an
    /// enabled [`ObsSink`]).
    pub obs: ObsReport,
    /// How the run ended. Always [`RunOutcome::Completed`] for the
    /// fault-free entry points; [`execute_resilient`] reports `Degraded`
    /// or `Failed` when the fault plan forced recovery.
    pub outcome: RunOutcome,
}

/// Engine state behind the runtime's single lock.
struct Shared<E> {
    deps: DepTracker,
    queues: WorkerQueues,
    recorder: TraceRecorder,
    /// Scratch for [`DepTracker::release_into`], reused across releases so
    /// completing a task allocates nothing under the lock.
    ready: Vec<TaskId>,
    error: Option<E>,
    /// Fault-injection/recovery driver; `None` on the fault-free paths.
    faults: Option<FaultState>,
    /// First hard failure of a resilient run (the fault-mode counterpart
    /// of `error`, which stays reserved for fail-fast kernel errors).
    failed: Option<FailureCause>,
}

/// What a worker decided to do with a popped queue entry (decided under
/// the shared lock, executed outside it).
enum Work {
    /// Run the kernel: the task, the data-ready instant to respect (the
    /// retry backoff; `Time::ZERO` when immediate), and the straggler
    /// slowdown factor to model after the kernel returns.
    Run(TaskId, Time, f64),
    /// The attempt fails without running the kernel (injection replaces
    /// execution): the task, the failure kind, and — for watchdog
    /// timeouts — how long the attempt occupies the worker before the
    /// verdict.
    Fail(TaskId, FaultKind, Option<Time>),
}

/// Run `graph` on `n_workers` real threads, executing each task through
/// `workload` — the runtime's one generic entry.
///
/// `profile` supplies the execution-time *estimates* the scheduler reasons
/// with (from [`crate::calibrate_profile`] or a synthetic profile); the
/// actual durations are whatever the host delivers. `obs` selects
/// structured observability: [`ObsSink::disabled`] (free) or
/// [`ObsSink::enabled`], which samples the condvar-wakeup, backfill and
/// queue-depth gauges and makes [`RtResult::obs`] carry the per-task
/// phase spans and counters derived from the trace.
///
/// The workload's `apply` is called concurrently for DAG-independent
/// tasks; the ready-made workloads ([`crate::workload::CholeskyWorkload`],
/// [`crate::workload::LuWorkload`], [`crate::workload::QrWorkload`]) make
/// that safe with per-tile locking. The caller keeps ownership of the
/// workload and extracts results from it afterwards (e.g.
/// [`crate::workload::CholeskyWorkload::into_matrix`]).
pub fn execute_workload<W: Workload + ?Sized>(
    workload: &W,
    graph: &TaskGraph,
    scheduler: &mut (dyn Scheduler + Send),
    profile: &TimingProfile,
    n_workers: usize,
    obs: ObsSink,
) -> Result<RtResult, W::Error> {
    execute_with_inner(
        workload, graph, scheduler, profile, n_workers, obs, false, false, false, None,
    )
}

/// [`execute_workload`] under fault injection: `plan`'s faults fire on
/// real worker threads (deaths keyed to the engine-wide task-start count,
/// injected kernel failures, straggler slowdowns) and the runtime recovers
/// per `policy` — capped-backoff retries, re-queuing a dead worker's tasks
/// onto the survivors, the modeled-duration watchdog. Instead of
/// propagating errors, the verdict lands in [`RtResult::outcome`]; real
/// kernel errors are *not* retried (a genuine numerical failure fails
/// identically anywhere) and fold into
/// [`FailureCause::Kernel`]. Impossible configurations (zero workers, a
/// plan killing every worker) are rejected up front.
///
/// The same plan replayed on the simulator yields the same outcome
/// classification — worker deaths trigger on progress (global start
/// count), not on clocks, which the two engines never agree on.
#[allow(clippy::too_many_arguments)]
pub fn execute_resilient<W: Workload + ?Sized>(
    workload: &W,
    graph: &TaskGraph,
    scheduler: &mut (dyn Scheduler + Send),
    profile: &TimingProfile,
    n_workers: usize,
    obs: ObsSink,
    plan: &FaultPlan,
    policy: &RetryPolicy,
) -> Result<RtResult, ConfigError> {
    if n_workers == 0 {
        return Err(ConfigError::ZeroWorkers);
    }
    if plan.kills_all_workers(n_workers) {
        return Err(ConfigError::PlanKillsAllWorkers { n_workers });
    }
    execute_resilient_controlled(
        workload, graph, scheduler, profile, n_workers, obs, plan, policy, false,
    )
}

/// [`execute_resilient`] with an explicit time source: `deterministic:
/// true` swaps the wall clock for a logical clock and skips every real
/// sleep, making the run's behaviour a pure function of the thread
/// schedule — the instrumentation point the model checker
/// (`hetchol-analyze::mc`) executes the resilient path through. With
/// `deterministic: false` this *is* [`execute_resilient`].
#[allow(clippy::too_many_arguments)]
pub fn execute_resilient_controlled<W: Workload + ?Sized>(
    workload: &W,
    graph: &TaskGraph,
    scheduler: &mut (dyn Scheduler + Send),
    profile: &TimingProfile,
    n_workers: usize,
    obs: ObsSink,
    plan: &FaultPlan,
    policy: &RetryPolicy,
    deterministic: bool,
) -> Result<RtResult, ConfigError> {
    if n_workers == 0 {
        return Err(ConfigError::ZeroWorkers);
    }
    if plan.kills_all_workers(n_workers) {
        return Err(ConfigError::PlanKillsAllWorkers { n_workers });
    }
    let faults = FaultState::new(plan, *policy, graph.len(), n_workers);
    let r = execute_with_inner(
        workload,
        graph,
        scheduler,
        profile,
        n_workers,
        obs,
        false,
        false,
        deterministic,
        Some(faults),
    );
    Ok(r.unwrap_or_else(|_| unreachable!("resilient runs fold errors into the outcome")))
}

/// Seeded worker-loop faults for the race checker (`race-mutations`
/// feature). Each flag reintroduces a classic concurrency bug so
/// `hetchol-analyze`'s interleaving explorer can prove it would catch it.
#[cfg(feature = "race-mutations")]
#[derive(Copy, Clone, Debug, Default)]
pub struct Mutations {
    /// Skip the `notify_all` after dispatching successors — the classic
    /// lost wakeup: a worker parked on the condvar never learns its queue
    /// gained a task, and the run deadlocks under the right interleaving.
    pub drop_release_notify: bool,
    /// Mark a doomed worker dead but drop its queued tasks instead of
    /// re-dispatching them onto the survivors — a recovery-protocol bug:
    /// stranded tasks never run, their successors never release, and the
    /// survivors wait forever once a death catches a non-empty queue.
    pub skip_dead_requeue: bool,
}

/// [`execute_workload`] with seeded faults enabled — test-only surface for
/// the race checker; never use outside the explorer's regression tests.
#[cfg(feature = "race-mutations")]
pub fn execute_with_mutated<E: Send + std::fmt::Debug>(
    apply: impl Fn(hetchol_core::task::TaskCoords) -> Result<(), E> + Sync,
    graph: &TaskGraph,
    scheduler: &mut (dyn Scheduler + Send),
    profile: &TimingProfile,
    n_workers: usize,
    mutations: Mutations,
) -> Result<RtResult, E> {
    execute_with_inner(
        &crate::workload::FnWorkload(apply),
        graph,
        scheduler,
        profile,
        n_workers,
        ObsSink::disabled(),
        mutations.drop_release_notify,
        mutations.skip_dead_requeue,
        false,
        None,
    )
}

/// [`execute_resilient_controlled`] with seeded faults enabled — the
/// model checker's mutation surface (`race-mutations` feature); never use
/// outside `hetchol-analyze`'s regression tests. Always deterministic
/// (logical clock), since its sole purpose is exploration.
#[cfg(feature = "race-mutations")]
#[allow(clippy::too_many_arguments)]
pub fn execute_resilient_mutated<W: Workload + ?Sized>(
    workload: &W,
    graph: &TaskGraph,
    scheduler: &mut (dyn Scheduler + Send),
    profile: &TimingProfile,
    n_workers: usize,
    plan: &FaultPlan,
    policy: &RetryPolicy,
    mutations: Mutations,
) -> Result<RtResult, ConfigError> {
    if n_workers == 0 {
        return Err(ConfigError::ZeroWorkers);
    }
    if plan.kills_all_workers(n_workers) {
        return Err(ConfigError::PlanKillsAllWorkers { n_workers });
    }
    let faults = FaultState::new(plan, *policy, graph.len(), n_workers);
    let r = execute_with_inner(
        workload,
        graph,
        scheduler,
        profile,
        n_workers,
        ObsSink::disabled(),
        mutations.drop_release_notify,
        mutations.skip_dead_requeue,
        true,
        Some(faults),
    );
    Ok(r.unwrap_or_else(|_| unreachable!("resilient runs fold errors into the outcome")))
}

/// Mark every non-busy doomed worker dead and re-dispatch its queued
/// tasks onto the survivors (called under the shared lock whenever the
/// death mask may have changed: after a start, after a completion, before
/// the initial dispatch). Busy doomed workers are skipped — their
/// in-flight kernel completes (completed work is never discarded) and
/// they die right after recording it.
///
/// `skip_dead_requeue` is the seeded recovery bug for the model checker
/// (always `false` in production): the worker is marked dead but its
/// queue is silently dropped instead of re-dispatched, so any task
/// stranded there never runs and the survivors wait forever.
fn reap_doomed<E>(
    s: &mut Shared<E>,
    ctx: &SchedContext,
    sched: &mut dyn Scheduler,
    now: Time,
    skip_dead_requeue: bool,
) {
    let Shared {
        deps,
        queues,
        recorder,
        faults,
        failed,
        ..
    } = s;
    let Some(f) = faults.as_mut() else { return };
    for v in f.doomed_workers() {
        if queues.is_busy(v) {
            continue;
        }
        f.mark_dead(v, now);
        for entry in queues.drain_worker(v) {
            if skip_dead_requeue {
                continue; // seeded bug: strand the dead worker's queue
            }
            let landed = exec::dispatch_resilient(
                entry.task,
                now,
                ctx,
                sched,
                queues,
                recorder,
                &mut SingleNode,
                f.dead(),
                Time::ZERO,
            );
            match landed {
                Some(u) => deps.note_queued(entry.task, u),
                None => {
                    failed.get_or_insert(FailureCause::AllWorkersLost);
                    return;
                }
            }
        }
    }
}

/// Worker `w`'s death came due while it sat idle: it dies *instead of*
/// starting the entry it just popped. The popped task is charged a
/// lost-worker attempt (retried on a survivor with backoff, or aborted on
/// budget exhaustion) and the rest of the queue drains onto the
/// survivors.
///
/// `skip_dead_requeue` seeds the same recovery bug as in [`reap_doomed`]:
/// the popped task is still retried (its attempt was already charged) but
/// the rest of the dead worker's queue is dropped.
fn die_at_pop<E>(
    s: &mut Shared<E>,
    ctx: &SchedContext,
    sched: &mut dyn Scheduler,
    w: WorkerId,
    entry: QueueEntry,
    now: Time,
    skip_dead_requeue: bool,
) {
    let Shared {
        deps,
        queues,
        recorder,
        faults,
        failed,
        ..
    } = s;
    let f = faults.as_mut().expect("die_at_pop outside fault mode");
    f.mark_dead(w, now);
    f.begin_attempt(entry.task);
    match f.record_failure(entry.task, w, FaultKind::WorkerLost, now, now) {
        Some(backoff) => {
            let landed = exec::dispatch_resilient(
                entry.task,
                now,
                ctx,
                sched,
                queues,
                recorder,
                &mut SingleNode,
                f.dead(),
                backoff,
            );
            match landed {
                Some(u) => deps.note_queued(entry.task, u),
                None => {
                    failed.get_or_insert(FailureCause::AllWorkersLost);
                    return;
                }
            }
        }
        None => {
            failed.get_or_insert(FailureCause::RetriesExhausted {
                task: entry.task,
                attempts: f.attempts_of(entry.task),
                kind: FaultKind::WorkerLost,
            });
            return;
        }
    }
    for e in queues.drain_worker(w) {
        if skip_dead_requeue {
            continue; // seeded bug: strand the dead worker's queue
        }
        let landed = exec::dispatch_resilient(
            e.task,
            now,
            ctx,
            sched,
            queues,
            recorder,
            &mut SingleNode,
            f.dead(),
            Time::ZERO,
        );
        match landed {
            Some(u) => deps.note_queued(e.task, u),
            None => {
                failed.get_or_insert(FailureCause::AllWorkersLost);
                return;
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn execute_with_inner<W: Workload + ?Sized>(
    workload: &W,
    graph: &TaskGraph,
    scheduler: &mut (dyn Scheduler + Send),
    profile: &TimingProfile,
    n_workers: usize,
    obs: ObsSink,
    drop_release_notify: bool,
    skip_dead_requeue: bool,
    deterministic: bool,
    faults: Option<FaultState>,
) -> Result<RtResult, W::Error> {
    assert!(n_workers > 0, "need at least one worker");
    let platform = Platform::homogeneous(n_workers);
    let ctx = SchedContext {
        graph,
        platform: &platform,
        profile,
    };
    scheduler.init(&ctx);

    let shared = Mutex::new(Shared::<W::Error> {
        deps: DepTracker::new(graph),
        queues: WorkerQueues::new(n_workers),
        recorder: TraceRecorder::with_obs(n_workers, graph.len(), obs),
        ready: Vec::new(),
        error: None,
        faults,
        failed: None,
    });
    let condvar = Condvar::new();
    let clock = if deterministic {
        Clock::Logical(AtomicU64::new(0))
    } else {
        Clock::wall()
    };
    let scheduler = Mutex::new(scheduler);

    {
        let mut s = shared.lock();
        let mut sched = scheduler.lock();
        // Workers doomed from the very start (`after_starts: 0`) die
        // before the initial dispatch can consider them.
        reap_doomed(&mut s, &ctx, &mut **sched, Time::ZERO, skip_dead_requeue);
        let initial = s.deps.initial_ready();
        let Shared {
            deps,
            queues,
            recorder,
            faults,
            failed,
            ..
        } = &mut *s;
        for t in initial {
            match faults.as_mut() {
                None => {
                    let u = exec::dispatch(
                        t,
                        Time::ZERO,
                        &ctx,
                        &mut **sched,
                        queues,
                        recorder,
                        &mut SingleNode,
                    );
                    deps.note_queued(t, u);
                }
                Some(f) => {
                    let landed = exec::dispatch_resilient(
                        t,
                        Time::ZERO,
                        &ctx,
                        &mut **sched,
                        queues,
                        recorder,
                        &mut SingleNode,
                        f.dead(),
                        Time::ZERO,
                    );
                    match landed {
                        Some(u) => deps.note_queued(t, u),
                        None => {
                            failed.get_or_insert(FailureCause::AllWorkersLost);
                            break;
                        }
                    }
                }
            }
        }
    }

    std::thread::scope(|scope| {
        for w in 0..n_workers {
            let shared = &shared;
            let condvar = &condvar;
            let ctx = &ctx;
            let scheduler = &scheduler;
            let clock = &clock;
            scope.spawn(move || {
                // Register with the (normally inert) interleaving explorer:
                // gives this thread a stable identity across replayed runs.
                parking_lot::explore::checkin(w);
                loop {
                    let work = {
                        let mut s = shared.lock();
                        loop {
                            if s.deps.is_done() || s.error.is_some() || s.failed.is_some() {
                                return;
                            }
                            if s.faults.as_ref().is_some_and(|f| f.is_dead(w)) {
                                return;
                            }
                            // First startable task in this worker's queue (the
                            // `may_start` gate supports strict schedule replay).
                            let popped = {
                                let mut sched = scheduler.lock();
                                s.queues.pop_startable_indexed(w, |t| sched.may_start(t, w))
                            };
                            if let Some((entry, skipped)) = popped {
                                let now = clock.now();
                                if s.faults.as_ref().is_some_and(|f| f.death_due(w)) {
                                    let mut sched = scheduler.lock();
                                    die_at_pop(
                                        &mut s,
                                        ctx,
                                        &mut **sched,
                                        w,
                                        entry,
                                        now,
                                        skip_dead_requeue,
                                    );
                                    condvar.notify_all();
                                    return;
                                }
                                s.deps.note_started(entry.task);
                                s.recorder.obs_mut().count_backfill(w, skipped);
                                scheduler.lock().notify_start(entry.task, w);
                                let work = match s.faults.as_mut() {
                                    None => Work::Run(entry.task, Time::ZERO, 1.0),
                                    Some(f) => {
                                        let (_, mut injected) = f.begin_attempt(entry.task);
                                        let slow = f.slowdown(w);
                                        let mut occupancy = None;
                                        if injected.is_none() {
                                            if let Some(limit) = f.policy().watchdog {
                                                // The watchdog judges the *modeled*
                                                // duration (estimate × straggler
                                                // factor), exactly as the simulator
                                                // does, so verdicts agree across
                                                // engines. A genuinely hung safe-Rust
                                                // kernel cannot be preempted; see
                                                // DESIGN.md §12.
                                                let predicted = if slow != 1.0 {
                                                    entry.exec_estimate.scale(slow)
                                                } else {
                                                    entry.exec_estimate
                                                };
                                                if predicted > limit {
                                                    injected = Some(FaultKind::Timeout);
                                                    occupancy = Some(limit);
                                                }
                                            }
                                        }
                                        f.on_start();
                                        match injected {
                                            Some(kind) => Work::Fail(entry.task, kind, occupancy),
                                            None => Work::Run(entry.task, entry.data_ready, slow),
                                        }
                                    }
                                };
                                s.queues.set_busy_until(w, now + entry.exec_estimate);
                                // This start may have pushed another worker's
                                // death threshold over; reap while still
                                // holding the lock so it cannot start anything.
                                if s.faults.is_some() {
                                    let mut sched = scheduler.lock();
                                    reap_doomed(&mut s, ctx, &mut **sched, now, skip_dead_requeue);
                                }
                                break work;
                            }
                            condvar.wait(&mut s);
                            s.recorder.obs_mut().count_wakeup(w);
                        }
                    };

                    match work {
                        Work::Fail(task, kind, occupancy) => {
                            let fail_start = clock.now();
                            if let Some(limit) = occupancy {
                                if !clock.is_logical() {
                                    // A timed-out attempt occupies the worker
                                    // for the watchdog limit (the kernel is
                                    // never run — injection replaces execution).
                                    std::thread::sleep(Duration::from_nanos(limit.as_nanos()));
                                }
                            }
                            let now = clock.now();
                            let mut s = shared.lock();
                            s.queues.set_idle(w);
                            let mut sched = scheduler.lock();
                            {
                                let Shared {
                                    deps,
                                    queues,
                                    recorder,
                                    faults,
                                    failed,
                                    ..
                                } = &mut *s;
                                let f = faults.as_mut().expect("injected failure needs fault mode");
                                match f.record_failure(task, w, kind, fail_start, now) {
                                    Some(backoff) => {
                                        let landed = exec::dispatch_resilient(
                                            task,
                                            now,
                                            ctx,
                                            &mut **sched,
                                            queues,
                                            recorder,
                                            &mut SingleNode,
                                            f.dead(),
                                            backoff,
                                        );
                                        match landed {
                                            Some(u) => deps.note_queued(task, u),
                                            None => {
                                                failed.get_or_insert(FailureCause::AllWorkersLost);
                                            }
                                        }
                                    }
                                    None => {
                                        failed.get_or_insert(FailureCause::RetriesExhausted {
                                            task,
                                            attempts: f.attempts_of(task),
                                            kind,
                                        });
                                    }
                                }
                            }
                            reap_doomed(&mut s, ctx, &mut **sched, now, skip_dead_requeue);
                            condvar.notify_all();
                        }
                        Work::Run(task, data_ready, slowdown) => {
                            let now = clock.now();
                            if data_ready > now && !clock.is_logical() {
                                // Retry backoff: the re-dispatch pushed the
                                // entry's data-ready instant into the future.
                                std::thread::sleep(Duration::from_nanos(
                                    (data_ready - now).as_nanos(),
                                ));
                            }
                            let start = clock.now();
                            let result = workload.apply(ctx.graph.task(task).coords);
                            if slowdown > 1.0 && !clock.is_logical() {
                                // Model the straggler: stretch the attempt's
                                // wall time by the slowdown factor.
                                let elapsed = clock.now().saturating_sub(start);
                                std::thread::sleep(Duration::from_nanos(
                                    elapsed.scale(slowdown - 1.0).as_nanos(),
                                ));
                            }
                            let end = clock.now();

                            let mut s = shared.lock();
                            s.queues.set_idle(w);
                            match result {
                                Err(e) => {
                                    if s.faults.is_some() {
                                        // Real kernel errors are not retried:
                                        // a genuine numerical failure fails
                                        // identically on any worker.
                                        let detail = format!("{e:?}");
                                        s.failed
                                            .get_or_insert(FailureCause::Kernel { task, detail });
                                    } else {
                                        s.error.get_or_insert(e);
                                    }
                                    condvar.notify_all();
                                    return;
                                }
                                Ok(()) => {
                                    s.recorder.record(ctx.graph, w, task, start, end);
                                    let mut sched = scheduler.lock();
                                    {
                                        let Shared {
                                            deps,
                                            queues,
                                            recorder,
                                            ready,
                                            faults,
                                            failed,
                                            ..
                                        } = &mut *s;
                                        // Release into the shared scratch:
                                        // no allocation under the lock.
                                        deps.release_into(ctx.graph, task, ready);
                                        match faults.as_mut() {
                                            None => {
                                                for &succ in ready.iter() {
                                                    let u = exec::dispatch(
                                                        succ,
                                                        end,
                                                        ctx,
                                                        &mut **sched,
                                                        queues,
                                                        recorder,
                                                        &mut SingleNode,
                                                    );
                                                    deps.note_queued(succ, u);
                                                }
                                            }
                                            Some(f) => {
                                                for &succ in ready.iter() {
                                                    let landed = exec::dispatch_resilient(
                                                        succ,
                                                        end,
                                                        ctx,
                                                        &mut **sched,
                                                        queues,
                                                        recorder,
                                                        &mut SingleNode,
                                                        f.dead(),
                                                        Time::ZERO,
                                                    );
                                                    match landed {
                                                        Some(u) => deps.note_queued(succ, u),
                                                        None => {
                                                            failed.get_or_insert(
                                                                FailureCause::AllWorkersLost,
                                                            );
                                                            break;
                                                        }
                                                    }
                                                }
                                            }
                                        }
                                    }
                                    // Covers this worker's own death-after-
                                    // completion: it is idle now, so a due
                                    // threshold reaps it here and the loop's
                                    // `is_dead` check retires the thread.
                                    if s.faults.is_some() {
                                        reap_doomed(
                                            &mut s,
                                            ctx,
                                            &mut **sched,
                                            end,
                                            skip_dead_requeue,
                                        );
                                    }
                                    if !drop_release_notify {
                                        condvar.notify_all();
                                    }
                                }
                            }
                        }
                    }
                }
            });
        }
    });

    let s = shared.into_inner();
    match s.faults {
        None => {
            if let Some(e) = s.error {
                return Err(e);
            }
            assert!(s.deps.is_done(), "runtime exited with unfinished tasks");
            let (trace, makespan, obs) = s.recorder.finish_with_obs(graph);
            Ok(RtResult {
                trace,
                makespan,
                obs,
                outcome: RunOutcome::Completed,
            })
        }
        Some(mut f) => {
            let outcome = f.classify(s.deps.is_done(), s.failed, s.deps.remaining());
            let mut recorder = s.recorder;
            recorder.record_faults(f.take_events());
            let (trace, makespan, obs) = recorder.finish_with_obs(graph);
            Ok(RtResult {
                trace,
                makespan,
                obs,
                outcome,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{CholeskyWorkload, FnWorkload, LuWorkload, QrWorkload};
    use hetchol_core::schedule::DurationCheck;
    use hetchol_linalg::cholesky::TiledCholeskyError;
    use hetchol_linalg::generate::random_spd;
    use hetchol_linalg::matrix::TiledMatrix;
    use hetchol_linalg::verify::factorization_residual;
    use hetchol_sched::{Dmda, Dmdas, RandomScheduler};

    fn run(
        n_tiles: usize,
        nb: usize,
        n_workers: usize,
        scheduler: &mut (dyn Scheduler + Send),
    ) -> (f64, RtResult) {
        let a = random_spd(n_tiles * nb, 123);
        let m = TiledMatrix::from_dense(&a, nb);
        let graph = TaskGraph::cholesky(n_tiles);
        let profile = TimingProfile::mirage_homogeneous();
        let workload = CholeskyWorkload::new(&m);
        let r = execute_workload(
            &workload,
            &graph,
            scheduler,
            &profile,
            n_workers,
            ObsSink::disabled(),
        )
        .unwrap();
        (factorization_residual(&a, &workload.into_matrix()), r)
    }

    #[test]
    fn parallel_factorization_is_correct_dmda() {
        let (res, r) = run(5, 16, 4, &mut Dmda::new());
        assert!(res < 1e-11, "residual {res}");
        assert_eq!(r.trace.events.len(), 35);
    }

    #[test]
    fn parallel_factorization_is_correct_dmdas() {
        let (res, r) = run(6, 12, 3, &mut Dmdas::new());
        assert!(res < 1e-11, "residual {res}");
        assert_eq!(r.trace.events.len(), 56);
    }

    #[test]
    fn parallel_factorization_is_correct_random() {
        let (res, _) = run(5, 8, 4, &mut RandomScheduler::new(5));
        assert!(res < 1e-11, "residual {res}");
    }

    #[test]
    fn trace_is_structurally_valid() {
        let n_tiles = 5;
        let nb = 16;
        let n_workers = 4;
        let (_, r) = run(n_tiles, nb, n_workers, &mut Dmda::new());
        let graph = TaskGraph::cholesky(n_tiles);
        let platform = Platform::homogeneous(n_workers);
        let profile = TimingProfile::mirage_homogeneous();
        // Real durations differ from the synthetic profile: Loose check.
        r.trace
            .to_schedule()
            .validate(&graph, &platform, &profile, DurationCheck::Loose)
            .unwrap();
        assert!(r.makespan > Time::ZERO);
    }

    #[test]
    fn single_worker_executes_everything_in_order() {
        let (res, r) = run(4, 8, 1, &mut Dmda::new());
        assert!(res < 1e-11);
        // One worker: events must not overlap.
        let mut evs = r.trace.worker_events(0);
        evs.sort_by_key(|e| e.start);
        for pair in evs.windows(2) {
            assert!(pair[1].start >= pair[0].end);
        }
    }

    #[test]
    fn indefinite_matrix_surfaces_error() {
        let nb = 8;
        let n_tiles = 3;
        let a = random_spd(n_tiles * nb, 3);
        let mut m = TiledMatrix::from_dense(&a, nb);
        for v in m.tile_mut(0, 0).iter_mut() {
            *v = -1.0;
        }
        let graph = TaskGraph::cholesky(n_tiles);
        let profile = TimingProfile::mirage_homogeneous();
        let err = execute_workload(
            &CholeskyWorkload::new(&m),
            &graph,
            &mut Dmda::new(),
            &profile,
            2,
            ObsSink::disabled(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            TiledCholeskyError::NotPositiveDefinite { k: 0, .. }
        ));
    }

    #[test]
    fn threaded_lu_factorization_is_correct() {
        use hetchol_linalg::full::FullTiledMatrix;
        use hetchol_linalg::generate::random_diagonally_dominant;
        use hetchol_linalg::lu::lu_residual;
        let nb = 12;
        let n_tiles = 5;
        let a = random_diagonally_dominant(n_tiles * nb, 71);
        let m = FullTiledMatrix::from_dense(&a, nb);
        let graph = TaskGraph::lu(n_tiles);
        let profile = TimingProfile::mirage_homogeneous();
        let workload = LuWorkload::new(&m);
        let r = execute_workload(
            &workload,
            &graph,
            &mut Dmdas::new(),
            &profile,
            4,
            ObsSink::disabled(),
        )
        .unwrap();
        assert_eq!(r.trace.events.len(), graph.len());
        let res = lu_residual(&a, &workload.into_matrix());
        assert!(res < 1e-11, "residual {res}");
    }

    #[test]
    fn threaded_qr_factorization_is_correct() {
        use hetchol_linalg::qr::QrMatrix;
        use rand::{Rng, SeedableRng};
        let nb = 8;
        let n_tiles = 4;
        let n = n_tiles * nb;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(13);
        let a = hetchol_linalg::matrix::Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        let graph = TaskGraph::qr(n_tiles);
        let profile = TimingProfile::mirage_homogeneous();
        let workload = QrWorkload::new(&a, nb);
        let r = execute_workload(
            &workload,
            &graph,
            &mut Dmdas::new(),
            &profile,
            4,
            ObsSink::disabled(),
        )
        .unwrap();
        assert_eq!(r.trace.events.len(), graph.len());
        let (tiles, taus) = workload.into_parts();
        let qr = QrMatrix::from_parts(tiles, taus);
        let res = qr.residual(&a);
        assert!(res < 1e-11, "residual {res}");
    }

    #[test]
    fn threaded_lu_zero_pivot_surfaces() {
        use hetchol_linalg::full::FullTiledMatrix;
        let nb = 4;
        let n_tiles = 2;
        // All-zero matrix: GETRF(0) hits a zero pivot immediately.
        let m = FullTiledMatrix::zeros(n_tiles, nb);
        let graph = TaskGraph::lu(n_tiles);
        let profile = TimingProfile::mirage_homogeneous();
        let err = execute_workload(
            &LuWorkload::new(&m),
            &graph,
            &mut Dmda::new(),
            &profile,
            2,
            ObsSink::disabled(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            hetchol_linalg::lu::TiledLuError::ZeroPivot { k: 0, .. }
        ));
    }

    #[test]
    fn obs_records_spans_and_phase_accounting_sums() {
        let nb = 8;
        let n_tiles = 6;
        let n_workers = 3;
        let a = random_spd(n_tiles * nb, 9);
        let m = TiledMatrix::from_dense(&a, nb);
        let graph = TaskGraph::cholesky(n_tiles);
        let profile = TimingProfile::mirage_homogeneous();
        let workload = CholeskyWorkload::new(&m);
        let r = execute_workload(
            &workload,
            &graph,
            &mut Dmdas::new(),
            &profile,
            n_workers,
            ObsSink::enabled(),
        )
        .unwrap();
        assert!(r.obs.enabled);
        assert_eq!(r.obs.spans.len(), graph.len());
        assert_eq!(r.obs.makespan(), r.makespan);
        assert_eq!(r.obs.counters.total_dispatched(), graph.len() as u64);
        // Shared memory: no transfer phase anywhere.
        assert_eq!(r.obs.counters.transfers, 0);
        for s in &r.obs.spans {
            assert_eq!(s.transfer_wait(), Time::ZERO, "{s:?}");
            assert!(s.queued <= s.start, "{s:?}");
        }
        // The four phase buckets partition every worker's timeline.
        for p in r.obs.worker_phases() {
            assert_eq!(p.total(), r.makespan, "worker {}", p.worker);
        }
    }

    #[test]
    fn resilient_run_with_empty_plan_completes_with_correct_factorization() {
        let nb = 8;
        let n_tiles = 4;
        let a = random_spd(n_tiles * nb, 17);
        let m = TiledMatrix::from_dense(&a, nb);
        let graph = TaskGraph::cholesky(n_tiles);
        let profile = TimingProfile::mirage_homogeneous();
        let workload = CholeskyWorkload::new(&m);
        let r = execute_resilient(
            &workload,
            &graph,
            &mut Dmda::new(),
            &profile,
            3,
            ObsSink::disabled(),
            &FaultPlan::none(),
            &RetryPolicy::default(),
        )
        .unwrap();
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert_eq!(r.trace.events.len(), graph.len());
        assert!(r.trace.fault_events.is_empty());
        assert!(factorization_residual(&a, &workload.into_matrix()) < 1e-10);
    }

    #[test]
    fn killing_a_worker_mid_run_degrades_but_factorization_stays_correct() {
        let nb = 8;
        let n_tiles = 4;
        let a = random_spd(n_tiles * nb, 29);
        let m = TiledMatrix::from_dense(&a, nb);
        let graph = TaskGraph::cholesky(n_tiles);
        let profile = TimingProfile::mirage_homogeneous();
        let workload = CholeskyWorkload::new(&m);
        let plan = FaultPlan::new().kill_worker(1, 6);
        let r = execute_resilient(
            &workload,
            &graph,
            &mut Dmda::new(),
            &profile,
            3,
            ObsSink::enabled(),
            &plan,
            &RetryPolicy::default(),
        )
        .unwrap();
        assert!(
            matches!(r.outcome, RunOutcome::Degraded { ref lost_workers, .. }
                     if lost_workers == &[1]),
            "outcome: {:?}",
            r.outcome
        );
        // All tasks executed, none on worker 1 at or after its death.
        assert_eq!(r.trace.events.len(), graph.len());
        let death = r
            .trace
            .fault_events
            .iter()
            .find_map(|e| match e.kind {
                hetchol_core::fault::FaultEventKind::WorkerDied { worker: 1 } => Some(e.at),
                _ => None,
            })
            .expect("death recorded");
        for e in &r.trace.events {
            assert!(
                e.worker != 1 || e.start < death,
                "task {} ran on the dead worker",
                e.task
            );
        }
        assert_eq!(r.obs.counters.workers_lost, 1);
        assert!(factorization_residual(&a, &workload.into_matrix()) < 1e-10);
    }

    #[test]
    fn transient_failures_retry_and_the_run_degrades_gracefully() {
        let nb = 8;
        let n_tiles = 4;
        let a = random_spd(n_tiles * nb, 31);
        let m = TiledMatrix::from_dense(&a, nb);
        let graph = TaskGraph::cholesky(n_tiles);
        let profile = TimingProfile::mirage_homogeneous();
        let workload = CholeskyWorkload::new(&m);
        let first = graph.entry_tasks()[0];
        let plan = FaultPlan::new().transient(first, 2).corrupt_tile(TaskId(3));
        let r = execute_resilient(
            &workload,
            &graph,
            &mut Dmdas::new(),
            &profile,
            3,
            ObsSink::enabled(),
            &plan,
            &RetryPolicy::default(),
        )
        .unwrap();
        assert!(
            matches!(r.outcome, RunOutcome::Degraded { ref lost_workers, retries: 3 }
                     if lost_workers.is_empty()),
            "outcome: {:?}",
            r.outcome
        );
        assert_eq!(r.obs.counters.failures, 3);
        assert_eq!(r.obs.failed_attempts.len(), 3);
        assert!(factorization_residual(&a, &workload.into_matrix()) < 1e-10);
    }

    #[test]
    fn retry_exhaustion_fails_with_the_final_kind() {
        let graph = TaskGraph::cholesky(3);
        let profile = TimingProfile::mirage_homogeneous();
        let first = graph.entry_tasks()[0];
        let plan = FaultPlan::new().transient(first, 99);
        let policy = RetryPolicy {
            max_attempts: 2,
            backoff_base: Time::from_micros(10),
            ..RetryPolicy::default()
        };
        let workload = FnWorkload(|_| Ok::<(), String>(()));
        let r = execute_resilient(
            &workload,
            &graph,
            &mut Dmda::new(),
            &profile,
            2,
            ObsSink::disabled(),
            &plan,
            &policy,
        )
        .unwrap();
        assert_eq!(
            r.outcome,
            RunOutcome::Failed {
                cause: FailureCause::RetriesExhausted {
                    task: first,
                    attempts: 2,
                    kind: FaultKind::Transient,
                }
            }
        );
    }

    #[test]
    fn real_kernel_errors_are_not_retried_in_fault_mode() {
        let nb = 8;
        let n_tiles = 3;
        let a = random_spd(n_tiles * nb, 3);
        let mut m = TiledMatrix::from_dense(&a, nb);
        for v in m.tile_mut(0, 0).iter_mut() {
            *v = -1.0;
        }
        let graph = TaskGraph::cholesky(n_tiles);
        let profile = TimingProfile::mirage_homogeneous();
        let r = execute_resilient(
            &CholeskyWorkload::new(&m),
            &graph,
            &mut Dmda::new(),
            &profile,
            2,
            ObsSink::disabled(),
            &FaultPlan::none(),
            &RetryPolicy::default(),
        )
        .unwrap();
        match r.outcome {
            RunOutcome::Failed {
                cause: FailureCause::Kernel { task, ref detail },
            } => {
                assert_eq!(task, graph.entry_tasks()[0]);
                assert!(detail.contains("NotPositiveDefinite"), "detail: {detail}");
            }
            other => panic!("expected a kernel failure, got {other:?}"),
        }
    }

    #[test]
    fn impossible_configurations_are_rejected_up_front() {
        let graph = TaskGraph::cholesky(2);
        let profile = TimingProfile::mirage_homogeneous();
        let workload = FnWorkload(|_| Ok::<(), String>(()));
        assert_eq!(
            execute_resilient(
                &workload,
                &graph,
                &mut Dmda::new(),
                &profile,
                0,
                ObsSink::disabled(),
                &FaultPlan::none(),
                &RetryPolicy::default(),
            )
            .unwrap_err(),
            ConfigError::ZeroWorkers
        );
        let killer = FaultPlan::new().kill_worker(0, 0).kill_worker(1, 2);
        assert_eq!(
            execute_resilient(
                &workload,
                &graph,
                &mut Dmda::new(),
                &profile,
                2,
                ObsSink::disabled(),
                &killer,
                &RetryPolicy::default(),
            )
            .unwrap_err(),
            ConfigError::PlanKillsAllWorkers { n_workers: 2 }
        );
    }

    #[test]
    fn all_workers_participate_on_wide_graphs() {
        let (_, r) = run(8, 8, 4, &mut Dmda::new());
        for w in 0..4 {
            assert!(
                !r.trace.worker_events(w).is_empty(),
                "worker {w} never ran a task"
            );
        }
    }
}
