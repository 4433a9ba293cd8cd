//! The discrete-event engine, driving the shared execution core.
//!
//! Dependency tracking, queue insertion and the availability estimate all
//! live in [`hetchol_core::exec`]; this module supplies what is specific
//! to simulation — the virtual clock (a [`CalendarQueue`] of typed
//! completion [`crate::events::Event`]s), duration jitter, and the tile
//! residency + PCI link data model plugged in through
//! [`exec::EngineHooks`].
//!
//! The loop body is monomorphised over a `const RESILIENT: bool`: the
//! fault-free instantiation contains no fault-injection branches at all,
//! so resilience plumbing costs the fast path nothing (the frozen
//! pre-refactor engine in [`crate::reference`] is the behavioural oracle
//! for both instantiations).

use crate::data::{Links, Residency};
use crate::events::CalendarQueue;
use crate::jitter::Jitter;
use hetchol_core::dag::TaskGraph;
use hetchol_core::exec::{self, DepTracker, EngineHooks, TraceRecorder, WorkerQueues};
use hetchol_core::fault::{
    ConfigError, FailureCause, FaultKind, FaultPlan, FaultState, RetryPolicy, RunOutcome,
};
use hetchol_core::metrics;
use hetchol_core::obs::{ObsReport, ObsSink};
use hetchol_core::platform::{MemNode, Platform, WorkerId};
use hetchol_core::profiles::TimingProfile;
use hetchol_core::scheduler::{SchedContext, Scheduler};
use hetchol_core::task::TaskId;
use hetchol_core::time::Time;
use hetchol_core::trace::{Trace, TransferEvent};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Simulation options.
#[derive(Copy, Clone, Debug)]
pub struct SimOptions {
    /// RNG seed (only consumed by jittered runs and stochastic schedulers).
    pub seed: u64,
    /// Duration jitter + per-task overhead; [`Jitter::NONE`] for the
    /// deterministic simulation mode.
    pub jitter: Jitter,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            seed: 0,
            jitter: Jitter::NONE,
        }
    }
}

impl SimOptions {
    /// The paper's *actual execution* mode: per-task runtime overhead and
    /// ±2% duration jitter, seeded for reproducibility.
    pub fn actual(seed: u64) -> SimOptions {
        SimOptions {
            seed,
            jitter: Jitter {
                sigma: 0.02,
                overhead: Time::from_micros(200),
            },
        }
    }
}

/// Result of one simulated execution.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Full execution trace (tasks + transfers).
    pub trace: Trace,
    /// Completion time of the last task.
    pub makespan: Time,
    /// Structured observability record (empty unless the run was given an
    /// enabled [`ObsSink`]).
    pub obs: ObsReport,
    /// How the run ended. Always [`RunOutcome::Completed`] for the
    /// fault-free entry points; [`simulate_resilient`] reports `Degraded`
    /// or `Failed` when the fault plan forced recovery.
    pub outcome: RunOutcome,
}

impl SimResult {
    /// Achieved GFLOP/s for an `n_tiles` × `n_tiles` factorization at tile
    /// size `nb`.
    pub fn gflops(&self, n_tiles: usize, nb: usize) -> f64 {
        metrics::gflops(n_tiles, nb, self.makespan)
    }
}

/// The simulator's data model, plugged into the execution core: tile
/// residency over memory nodes and PCI transfers over the link model.
///
/// Data-oriented layout (DESIGN.md §13): the hooks read each task's
/// accesses from the graph's flat access arena
/// ([`TaskGraph::accesses_of`]) and turn each tile into its flat index
/// with [`Residency::index_of`] (one multiply-add), and the one-hop
/// transfer duration is computed once per run, when the [`Links`] are
/// built. The estimate hook — called once per (ready task × memory node)
/// pair by `dmda`-style schedulers — and the prefetch hook thus reduce
/// to array walks over the flat [`Residency`] bitmasks, with no hashing,
/// no allocation and no floating point. The `HashMap`-plus-`Vec`-per-call
/// predecessor is frozen in [`crate::reference`] as the benchmark baseline.
///
/// A platform with no communication model ([`Links::hop`] is `None`)
/// makes residency irrelevant to every output — estimates are zero and
/// transfers complete instantly without logging — so every hook returns
/// immediately there instead of walking the access table.
struct SimData<'a> {
    platform: &'a Platform,
    graph: &'a TaskGraph,
    residency: Residency,
    links: Links,
    /// Prefetch transfers recorded here, moved into the trace at the end.
    transfers: Vec<TransferEvent>,
}

impl<'a> SimData<'a> {
    /// Fresh data model: every tile resident only at main memory.
    fn new(platform: &'a Platform, graph: &'a TaskGraph) -> SimData<'a> {
        SimData {
            platform,
            graph,
            residency: Residency::new(platform.n_nodes(), graph.n_tiles()),
            links: Links::new(platform),
            transfers: Vec::new(),
        }
    }

    /// Apply `task`'s writes, executed on worker `w`, to tile residency:
    /// each write invalidates every other copy of the written tile (QR's
    /// TSQRT/TSMQR write two tiles; iterate the full write set).
    fn invalidate_writes(&mut self, task: TaskId, w: WorkerId) {
        if self.links.hop().is_none() {
            return;
        }
        let node = self.platform.node_of(w);
        for access in self.graph.accesses_of(task) {
            if access.mode.is_write() {
                self.residency
                    .write_at_idx(self.residency.index_of(access.tile), node);
            }
        }
    }

    /// Move the accumulated prefetch transfers into the trace, whose
    /// transfer log is still empty: the prefetch log is its only source.
    fn merge_transfers(&mut self, recorder: &mut TraceRecorder) {
        let log = recorder.transfers_mut();
        debug_assert!(
            log.is_empty(),
            "the prefetch log is the only transfer source"
        );
        *log = std::mem::take(&mut self.transfers);
    }
}

impl EngineHooks for SimData<'_> {
    #[inline]
    fn transfer_estimate(&self, task: TaskId, node: MemNode) -> Time {
        // Comm-free platform: every estimate is zero, and the scheduler
        // asks for one per (ready task × memory node) pair.
        let Some(hop) = self.links.hop() else {
            return Time::ZERO;
        };
        let mut total = Time::ZERO;
        for access in self.graph.accesses_of(task) {
            let mask = self.residency.mask_at(self.residency.index_of(access.tile));
            if mask & (1 << node) == 0 {
                // Source preference mirrors `Residency::source_for_idx`:
                // the host when it holds a copy, else the lowest node,
                // two hops away through the host.
                let src_is_host = mask & 1 != 0;
                total += if src_is_host || node == 0 {
                    hop
                } else {
                    hop * 2
                };
            }
        }
        total
    }

    /// Prefetch missing tiles to the assigned worker's node.
    fn data_ready(&mut self, task: TaskId, w: WorkerId, now: Time) -> Time {
        if self.links.hop().is_none() {
            return now;
        }
        let node = self.platform.node_of(w);
        let mut data_ready = now;
        for access in self.graph.accesses_of(task) {
            let idx = self.residency.index_of(access.tile);
            if !self.residency.is_valid_idx(idx, node) {
                let src = self.residency.source_for_idx(idx);
                let end = self
                    .links
                    .transfer(access.tile, src, node, now, &mut self.transfers);
                self.residency.add_copy_idx(idx, node);
                data_ready = data_ready.max(end);
            }
        }
        data_ready
    }
}

/// Simulate one execution of `graph` on `platform` under `scheduler`,
/// feeding the structured observability sink `obs`.
///
/// The returned trace always passes the common schedule validator; with
/// [`Jitter::NONE`] it passes the *exact*-duration check. Pass
/// [`ObsSink::disabled`] (free) or [`ObsSink::enabled`] to additionally
/// collect per-task phase spans and engine counters in
/// [`SimResult::obs`].
///
/// ```
/// use hetchol_core::obs::ObsSink;
/// use hetchol_core::{dag::TaskGraph, platform::Platform, profiles::TimingProfile};
/// use hetchol_core::scheduler::{estimated_completion, ExecutionView, SchedContext, Scheduler};
/// use hetchol_core::task::TaskId;
/// use hetchol_sim::{simulate_with, SimOptions};
///
/// // A minimal dmda-style scheduler: minimum estimated completion time.
/// struct Greedy;
/// impl Scheduler for Greedy {
///     fn name(&self) -> &str { "greedy" }
///     fn assign(&mut self, t: TaskId, ctx: &SchedContext, v: &dyn ExecutionView) -> usize {
///         ctx.platform.workers()
///             .min_by_key(|&w| estimated_completion(t, w, ctx, v))
///             .unwrap()
///     }
/// }
///
/// let graph = TaskGraph::cholesky(8);
/// let platform = Platform::mirage();
/// let profile = TimingProfile::mirage();
/// let result = simulate_with(&graph, &platform, &profile, &mut Greedy,
///                            &SimOptions::default(), ObsSink::enabled());
/// assert!(result.gflops(8, profile.nb()) > 100.0); // GPUs are pulling weight
/// assert_eq!(result.obs.spans.len(), graph.len()); // every task has a span
/// ```
pub fn simulate_with(
    graph: &TaskGraph,
    platform: &Platform,
    profile: &TimingProfile,
    scheduler: &mut dyn Scheduler,
    opts: &SimOptions,
    obs: ObsSink,
) -> SimResult {
    sim_run::<false>(graph, platform, profile, scheduler, opts, obs, None)
}

/// Simulate one execution under fault injection: `plan`'s faults fire
/// deterministically (worker deaths on the global start count, transient
/// and numerical kernel failures, straggler slowdowns) and the engine
/// recovers per `policy` — capped-backoff retries, re-queuing a dead
/// worker's tasks onto the survivors, the modeled-duration watchdog. The
/// verdict is [`SimResult::outcome`]; impossible configurations (no
/// workers, a plan that kills every worker) are rejected up front.
///
/// An empty plan reproduces [`simulate_with`] bit for bit.
///
/// ```
/// use hetchol_core::fault::{FaultPlan, RetryPolicy, RunOutcome};
/// use hetchol_core::obs::ObsSink;
/// use hetchol_core::{dag::TaskGraph, platform::Platform, profiles::TimingProfile};
/// use hetchol_core::scheduler::{estimated_completion, ExecutionView, SchedContext, Scheduler};
/// use hetchol_core::task::TaskId;
/// use hetchol_sim::{simulate_resilient, SimOptions};
///
/// struct Greedy;
/// impl Scheduler for Greedy {
///     fn name(&self) -> &str { "greedy" }
///     fn assign(&mut self, t: TaskId, ctx: &SchedContext, v: &dyn ExecutionView) -> usize {
///         ctx.platform.workers()
///             .min_by_key(|&w| estimated_completion(t, w, ctx, v))
///             .unwrap()
///     }
/// }
///
/// let graph = TaskGraph::cholesky(4);
/// let platform = Platform::homogeneous(3);
/// let profile = TimingProfile::mirage_homogeneous();
/// // Worker 1 dies after the 6th task start, mid-factorization.
/// let plan = FaultPlan::new().kill_worker(1, 6);
/// let r = simulate_resilient(&graph, &platform, &profile, &mut Greedy,
///                            &SimOptions::default(), ObsSink::disabled(),
///                            &plan, &RetryPolicy::default()).unwrap();
/// assert!(matches!(r.outcome, RunOutcome::Degraded { ref lost_workers, .. }
///                  if lost_workers == &[1]));
/// assert_eq!(r.trace.events.len(), graph.len()); // every task still ran
/// ```
#[allow(clippy::too_many_arguments)]
pub fn simulate_resilient(
    graph: &TaskGraph,
    platform: &Platform,
    profile: &TimingProfile,
    scheduler: &mut dyn Scheduler,
    opts: &SimOptions,
    obs: ObsSink,
    plan: &FaultPlan,
    policy: &RetryPolicy,
) -> Result<SimResult, ConfigError> {
    let n_workers = platform.n_workers();
    if n_workers == 0 {
        return Err(ConfigError::ZeroWorkers);
    }
    if plan.kills_all_workers(n_workers) {
        return Err(ConfigError::PlanKillsAllWorkers { n_workers });
    }
    let mut faults = FaultState::new(plan, *policy, graph.len(), n_workers);
    Ok(sim_run::<true>(
        graph,
        platform,
        profile,
        scheduler,
        opts,
        obs,
        Some(&mut faults),
    ))
}

/// Mark every non-busy doomed worker dead and re-dispatch its queued
/// tasks onto the survivors. Busy doomed workers are skipped: their
/// in-flight attempt completes (completed work is never discarded) and
/// they die at the next sweep. Returns a hard failure iff a drained task
/// found no live worker to land on.
#[allow(clippy::too_many_arguments)]
fn reap_doomed(
    now: Time,
    ctx: &SchedContext,
    scheduler: &mut dyn Scheduler,
    deps: &mut DepTracker,
    queues: &mut WorkerQueues,
    recorder: &mut TraceRecorder,
    data: &mut SimData,
    f: &mut FaultState,
) -> Option<FailureCause> {
    for w in f.doomed_workers() {
        if queues.is_busy(w) {
            continue;
        }
        f.mark_dead(w, now);
        for entry in queues.drain_worker(w) {
            let landed = exec::dispatch_resilient(
                entry.task,
                now,
                ctx,
                scheduler,
                queues,
                recorder,
                data,
                f.dead(),
                Time::ZERO,
            );
            match landed {
                Some(v) => deps.note_queued(entry.task, v),
                None => return Some(FailureCause::AllWorkersLost),
            }
        }
    }
    None
}

/// The engine proper, monomorphised over the resilience mode.
///
/// `RESILIENT == false` (`faults` must be `None`) is exactly the
/// historical simulation loop, including its deadlock assertion — and the
/// compiler sees no fault branches in that instantiation at all. With
/// `RESILIENT == true` the provided [`FaultState`] injects failures at
/// attempt start, doomed workers are reaped whenever idle, and the run is
/// classified instead of panicking.
fn sim_run<const RESILIENT: bool>(
    graph: &TaskGraph,
    platform: &Platform,
    profile: &TimingProfile,
    scheduler: &mut dyn Scheduler,
    opts: &SimOptions,
    obs: ObsSink,
    mut faults: Option<&mut FaultState>,
) -> SimResult {
    debug_assert_eq!(RESILIENT, faults.is_some());
    let ctx = SchedContext {
        graph,
        platform,
        profile,
    };
    scheduler.init(&ctx);

    let n_workers = platform.n_workers();
    let mut deps = DepTracker::new(graph);
    let mut queues = WorkerQueues::new(n_workers);
    let mut recorder = TraceRecorder::with_obs(n_workers, graph.len(), obs);
    let mut data = SimData::new(platform, graph);
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed);
    let mut events = CalendarQueue::new();
    // Newly ready successors land here; reused across releases so the
    // steady state allocates nothing.
    let mut ready = Vec::new();
    let mut now = Time::ZERO;
    let mut abort: Option<FailureCause> = None;

    // Workers doomed from the very start (`after_starts: 0`) die before
    // the initial dispatch sees them.
    if RESILIENT {
        let f = faults.as_deref_mut().expect("resilient run has faults");
        abort = reap_doomed(
            now,
            &ctx,
            scheduler,
            &mut deps,
            &mut queues,
            &mut recorder,
            &mut data,
            f,
        );
    }

    // Seed the initial ready set in submission order.
    if abort.is_none() {
        for t in deps.initial_ready() {
            if RESILIENT {
                let f = faults.as_deref_mut().expect("resilient run has faults");
                let landed = exec::dispatch_resilient(
                    t,
                    now,
                    &ctx,
                    scheduler,
                    &mut queues,
                    &mut recorder,
                    &mut data,
                    f.dead(),
                    Time::ZERO,
                );
                match landed {
                    Some(w) => deps.note_queued(t, w),
                    None => {
                        abort = Some(FailureCause::AllWorkersLost);
                        break;
                    }
                }
            } else {
                let w = exec::dispatch(
                    t,
                    now,
                    &ctx,
                    scheduler,
                    &mut queues,
                    &mut recorder,
                    &mut data,
                );
                deps.note_queued(t, w);
            }
        }
    }

    'main: while abort.is_none() {
        // Reap any deaths the previous iteration's starts made due (and
        // workers whose in-flight attempt just completed while doomed).
        if RESILIENT {
            let f = faults.as_deref_mut().expect("resilient run has faults");
            if let Some(cause) = reap_doomed(
                now,
                &ctx,
                scheduler,
                &mut deps,
                &mut queues,
                &mut recorder,
                &mut data,
                f,
            ) {
                abort = Some(cause);
                break 'main;
            }
        }

        // Dispatch: start the next startable queued task of every idle
        // worker with queued work, in worker order (the `may_start` gate
        // lets schedule injection hold a worker for its planned-next task
        // instead of backfilling; a held worker stays in the set). Ask
        // again after each worker: a start may reap a doomed worker and
        // re-dispatch its queue onto a higher idle worker, which must
        // start in this same pass.
        let mut from = 0;
        while let Some(w) = queues.next_idle_with_work(from) {
            from = w + 1;
            if RESILIENT && faults.as_deref().is_some_and(|f| f.is_dead(w)) {
                continue;
            }
            let Some((entry, skipped)) =
                queues.pop_startable_indexed(w, |t| scheduler.may_start(t, w))
            else {
                continue;
            };
            deps.note_started(entry.task);
            recorder.obs_mut().count_backfill(w, skipped);
            scheduler.notify_start(entry.task, w);
            let start = now.max(entry.data_ready);
            let mut duration = opts.jitter.apply(entry.exec_estimate, &mut rng);
            let mut injected: Option<FaultKind> = None;
            if RESILIENT {
                let f = faults.as_deref_mut().expect("resilient run has faults");
                let (_, inj) = f.begin_attempt(entry.task);
                injected = inj;
                let slow = f.slowdown(w);
                if slow != 1.0 {
                    duration = duration.scale(slow);
                }
                if injected.is_none() {
                    if let Some(limit) = f.policy().watchdog {
                        // Decide on the *modeled* duration (calibrated
                        // estimate × straggler factor), never on jitter —
                        // the runtime decides on the same model, so the
                        // verdicts agree across engines.
                        let predicted = if slow != 1.0 {
                            entry.exec_estimate.scale(slow)
                        } else {
                            entry.exec_estimate
                        };
                        if predicted > limit {
                            injected = Some(FaultKind::Timeout);
                            duration = limit;
                        }
                    }
                }
                f.on_start();
            }
            let end = start + duration;
            queues.set_busy_until(w, end);
            events.push(end, w, entry.task, start, injected);
            // This start may have pushed a death threshold over; doomed
            // idle workers must not start anything afterwards.
            if RESILIENT {
                let f = faults.as_deref_mut().expect("resilient run has faults");
                if let Some(cause) = reap_doomed(
                    now,
                    &ctx,
                    scheduler,
                    &mut deps,
                    &mut queues,
                    &mut recorder,
                    &mut data,
                    f,
                ) {
                    abort = Some(cause);
                    break 'main;
                }
            }
        }

        let Some(event) = events.pop() else {
            break; // no task in flight: all queues empty
        };
        let (w, task) = (event.worker, event.task);
        now = event.at;
        queues.set_idle(w);

        if RESILIENT {
            if let Some(kind) = event.injected {
                // The attempt failed (injection replaced execution, so no
                // tile state to unwind): log it, then retry with backoff
                // or abort the run on budget exhaustion.
                let f = faults.as_deref_mut().expect("resilient run has faults");
                match f.record_failure(task, w, kind, event.start, now) {
                    Some(backoff) => {
                        let landed = exec::dispatch_resilient(
                            task,
                            now,
                            &ctx,
                            scheduler,
                            &mut queues,
                            &mut recorder,
                            &mut data,
                            f.dead(),
                            backoff,
                        );
                        match landed {
                            Some(v) => deps.note_queued(task, v),
                            None => {
                                abort = Some(FailureCause::AllWorkersLost);
                                break 'main;
                            }
                        }
                    }
                    None => {
                        abort = Some(FailureCause::RetriesExhausted {
                            task,
                            attempts: f.attempts_of(task),
                            kind,
                        });
                        break 'main;
                    }
                }
                continue 'main;
            }
        }

        recorder.record(graph, w, task, event.start, event.at);
        data.invalidate_writes(task, w);
        // Release successors into the reused scratch, then dispatch them.
        deps.release_into(graph, task, &mut ready);
        for &s in ready.iter() {
            if RESILIENT {
                let f = faults.as_deref_mut().expect("resilient run has faults");
                let landed = exec::dispatch_resilient(
                    s,
                    now,
                    &ctx,
                    scheduler,
                    &mut queues,
                    &mut recorder,
                    &mut data,
                    f.dead(),
                    Time::ZERO,
                );
                match landed {
                    Some(v) => deps.note_queued(s, v),
                    None => {
                        abort = Some(FailureCause::AllWorkersLost);
                        break 'main;
                    }
                }
            } else {
                let v = exec::dispatch(
                    s,
                    now,
                    &ctx,
                    scheduler,
                    &mut queues,
                    &mut recorder,
                    &mut data,
                );
                deps.note_queued(s, v);
            }
        }
    }

    let outcome = if RESILIENT {
        let f = faults.as_mut().expect("resilient run has faults");
        let outcome = f.classify(deps.is_done(), abort, deps.remaining());
        recorder.record_faults(f.take_events());
        outcome
    } else {
        assert!(
            deps.is_done(),
            "simulation deadlocked: {} tasks incomplete",
            deps.remaining()
        );
        RunOutcome::Completed
    };
    data.merge_transfers(&mut recorder);
    let (trace, makespan, obs) = recorder.finish_with_obs(graph);
    SimResult {
        trace,
        makespan,
        obs,
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetchol_core::schedule::DurationCheck;
    use hetchol_core::scheduler::{estimated_completion, ExecutionView};

    /// Engine tests drive the primary entry with observability off.
    fn simulate(
        graph: &TaskGraph,
        platform: &Platform,
        profile: &TimingProfile,
        scheduler: &mut dyn Scheduler,
        opts: &SimOptions,
    ) -> SimResult {
        simulate_with(
            graph,
            platform,
            profile,
            scheduler,
            opts,
            ObsSink::disabled(),
        )
    }

    /// Greedy earliest-completion scheduler used by engine tests (a
    /// miniature `dmda`; the real ones live in `hetchol-sched`).
    struct Greedy;
    impl Scheduler for Greedy {
        fn name(&self) -> &str {
            "greedy-test"
        }
        fn assign(
            &mut self,
            task: TaskId,
            ctx: &SchedContext,
            view: &dyn ExecutionView,
        ) -> WorkerId {
            ctx.platform
                .workers()
                .min_by_key(|&w| estimated_completion(task, w, ctx, view))
                .expect("platform has workers")
        }
    }

    /// Everything on worker 0.
    struct Serial;
    impl Scheduler for Serial {
        fn name(&self) -> &str {
            "serial-test"
        }
        fn assign(&mut self, _: TaskId, _: &SchedContext, _: &dyn ExecutionView) -> WorkerId {
            0
        }
    }

    fn homog() -> (Platform, TimingProfile) {
        (
            Platform::homogeneous(4),
            TimingProfile::mirage_homogeneous(),
        )
    }

    #[test]
    fn serial_makespan_is_total_work() {
        let (platform, profile) = homog();
        let graph = TaskGraph::cholesky(4);
        let r = simulate(
            &graph,
            &platform,
            &profile,
            &mut Serial,
            &SimOptions::default(),
        );
        let total: Time = graph
            .tasks()
            .iter()
            .map(|t| profile.time(t.kernel(), 0))
            .sum();
        assert_eq!(r.makespan, total);
        assert_eq!(r.trace.events.len(), graph.len());
    }

    #[test]
    fn parallel_beats_serial_and_validates() {
        let (platform, profile) = homog();
        let graph = TaskGraph::cholesky(6);
        let serial = simulate(
            &graph,
            &platform,
            &profile,
            &mut Serial,
            &SimOptions::default(),
        );
        let greedy = simulate(
            &graph,
            &platform,
            &profile,
            &mut Greedy,
            &SimOptions::default(),
        );
        assert!(greedy.makespan < serial.makespan);
        greedy
            .trace
            .to_schedule()
            .validate(&graph, &platform, &profile, DurationCheck::Exact)
            .unwrap();
    }

    #[test]
    fn makespan_at_least_critical_path() {
        let (platform, profile) = homog();
        for n in [2usize, 4, 8] {
            let graph = TaskGraph::cholesky(n);
            let cp = graph.critical_path(|t| profile.fastest_time(graph.task(t).kernel()));
            let r = simulate(
                &graph,
                &platform,
                &profile,
                &mut Greedy,
                &SimOptions::default(),
            );
            assert!(r.makespan >= cp, "n={n}");
        }
    }

    #[test]
    fn heterogeneous_run_validates_exact() {
        let platform = Platform::mirage().without_comm();
        let profile = TimingProfile::mirage();
        let graph = TaskGraph::cholesky(8);
        let r = simulate(
            &graph,
            &platform,
            &profile,
            &mut Greedy,
            &SimOptions::default(),
        );
        r.trace
            .to_schedule()
            .validate(&graph, &platform, &profile, DurationCheck::Exact)
            .unwrap();
        assert!(r.trace.transfers.is_empty(), "comm-free mode");
    }

    #[test]
    fn comm_enabled_records_transfers_and_still_validates() {
        let platform = Platform::mirage();
        let profile = TimingProfile::mirage();
        let graph = TaskGraph::cholesky(6);
        let r = simulate(
            &graph,
            &platform,
            &profile,
            &mut Greedy,
            &SimOptions::default(),
        );
        assert!(
            !r.trace.transfers.is_empty(),
            "GPU work requires PCI transfers"
        );
        r.trace
            .to_schedule()
            .validate(&graph, &platform, &profile, DurationCheck::Exact)
            .unwrap();
        // Communications can only hurt.
        let free = simulate(
            &graph,
            &platform.without_comm(),
            &profile,
            &mut Greedy,
            &SimOptions::default(),
        );
        assert!(r.makespan >= free.makespan);
    }

    #[test]
    fn deterministic_across_runs() {
        let platform = Platform::mirage();
        let profile = TimingProfile::mirage();
        let graph = TaskGraph::cholesky(8);
        let a = simulate(
            &graph,
            &platform,
            &profile,
            &mut Greedy,
            &SimOptions::default(),
        );
        let b = simulate(
            &graph,
            &platform,
            &profile,
            &mut Greedy,
            &SimOptions::default(),
        );
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.trace.events, b.trace.events);
    }

    #[test]
    fn actual_mode_jitters_but_reproduces_per_seed() {
        let platform = Platform::mirage();
        let profile = TimingProfile::mirage();
        let graph = TaskGraph::cholesky(6);
        let a = simulate(
            &graph,
            &platform,
            &profile,
            &mut Greedy,
            &SimOptions::actual(1),
        );
        let a2 = simulate(
            &graph,
            &platform,
            &profile,
            &mut Greedy,
            &SimOptions::actual(1),
        );
        let b = simulate(
            &graph,
            &platform,
            &profile,
            &mut Greedy,
            &SimOptions::actual(2),
        );
        assert_eq!(a.makespan, a2.makespan, "same seed reproduces");
        assert_ne!(a.makespan, b.makespan, "different seeds differ");
        // Jittered durations no longer match the profile exactly, but the
        // schedule is still structurally valid.
        a.trace
            .to_schedule()
            .validate(&graph, &platform, &profile, DurationCheck::Loose)
            .unwrap();
        // Actual mode stays close to simulation (the paper's observation
        // that simulation reproduces real behaviour): within a few percent,
        // but not identical. Note jitter can shift makespan both ways — it
        // also perturbs the scheduler's tie-breaking.
        let sim = simulate(
            &graph,
            &platform,
            &profile,
            &mut Greedy,
            &SimOptions::default(),
        );
        let ratio = a.makespan.as_secs_f64() / sim.makespan.as_secs_f64();
        assert!((0.9..=1.1).contains(&ratio), "actual/sim ratio {ratio}");
    }

    #[test]
    fn empty_graph() {
        let (platform, profile) = homog();
        let graph = TaskGraph::cholesky(0);
        let r = simulate(
            &graph,
            &platform,
            &profile,
            &mut Serial,
            &SimOptions::default(),
        );
        assert_eq!(r.makespan, Time::ZERO);
        assert!(r.trace.events.is_empty());
    }

    #[test]
    fn busy_plus_idle_equals_makespan_per_worker() {
        let platform = Platform::mirage().without_comm();
        let profile = TimingProfile::mirage();
        let graph = TaskGraph::cholesky(8);
        let r = simulate(
            &graph,
            &platform,
            &profile,
            &mut Greedy,
            &SimOptions::default(),
        );
        for w in platform.workers() {
            assert_eq!(
                r.trace.busy_time(w) + r.trace.idle_time(w),
                r.makespan,
                "worker {w}"
            );
        }
        // Work conservation: total busy time equals the sum of durations.
        let total: Time = graph
            .tasks()
            .iter()
            .map(|t| {
                let e = r.trace.events.iter().find(|e| e.task == t.id).unwrap();
                profile.time(t.kernel(), platform.class_of(e.worker))
            })
            .sum();
        assert_eq!(r.trace.total_busy(), total);
    }

    #[test]
    fn obs_spans_cover_all_tasks_and_phases_sum_to_makespan() {
        let platform = Platform::mirage();
        let profile = TimingProfile::mirage();
        let graph = TaskGraph::cholesky(8);
        let r = simulate_with(
            &graph,
            &platform,
            &profile,
            &mut Greedy,
            &SimOptions::default(),
            ObsSink::enabled(),
        );
        assert!(r.obs.enabled);
        assert_eq!(r.obs.spans.len(), graph.len());
        assert_eq!(r.obs.makespan(), r.makespan);
        // Spans agree with the plain trace, and data transfers show up as
        // transfer-wait on some span (comm is on).
        for s in &r.obs.spans {
            let e = r.trace.events.iter().find(|e| e.task == s.task).unwrap();
            assert_eq!((e.worker, e.start, e.end), (s.worker, s.start, s.end));
            assert!(s.queued <= s.start, "queued after start: {s:?}");
        }
        assert_eq!(r.obs.counters.transfers, r.trace.transfers.len() as u64);
        assert!(r.obs.counters.transfers > 0);
        // The phase partition covers every worker's full timeline.
        for p in r.obs.worker_phases() {
            assert_eq!(p.total(), r.makespan, "worker {}", p.worker);
        }
        // Dispatch counters cover every task, and the simulator never
        // parks threads.
        assert_eq!(r.obs.counters.total_dispatched(), graph.len() as u64);
        assert!(r.obs.counters.wakeups.iter().all(|&w| w == 0));
        // The disabled sink reports nothing but runs identically.
        let off = simulate(
            &graph,
            &platform,
            &profile,
            &mut Greedy,
            &SimOptions::default(),
        );
        assert!(!off.obs.enabled);
        assert_eq!(off.trace.events, r.trace.events);
    }

    #[test]
    fn empty_fault_plan_reproduces_fault_free_run_bit_for_bit() {
        let platform = Platform::mirage();
        let profile = TimingProfile::mirage();
        let graph = TaskGraph::cholesky(8);
        let plain = simulate(
            &graph,
            &platform,
            &profile,
            &mut Greedy,
            &SimOptions::default(),
        );
        let resilient = simulate_resilient(
            &graph,
            &platform,
            &profile,
            &mut Greedy,
            &SimOptions::default(),
            ObsSink::disabled(),
            &FaultPlan::none(),
            &RetryPolicy::default(),
        )
        .unwrap();
        assert_eq!(resilient.outcome, RunOutcome::Completed);
        assert_eq!(resilient.trace.events, plain.trace.events);
        assert_eq!(resilient.trace.queue_events, plain.trace.queue_events);
        assert_eq!(resilient.makespan, plain.makespan);
        assert!(resilient.trace.fault_events.is_empty());
    }

    #[test]
    fn killing_one_worker_mid_run_degrades_but_completes() {
        let (platform, profile) = homog();
        let graph = TaskGraph::cholesky(4);
        let plan = FaultPlan::new().kill_worker(1, 6);
        let r = simulate_resilient(
            &graph,
            &platform,
            &profile,
            &mut Greedy,
            &SimOptions::default(),
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
        // Every task still executed exactly once, none on the dead worker
        // after its death.
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
                "task {} started on the dead worker at {} (death {})",
                e.task,
                e.start,
                death
            );
        }
        assert_eq!(r.obs.counters.workers_lost, 1);
        assert_eq!(r.obs.worker_deaths.len(), 1);
    }

    #[test]
    fn killing_worker_from_the_start_never_runs_anything_on_it() {
        let (platform, profile) = homog();
        let graph = TaskGraph::cholesky(4);
        let plan = FaultPlan::new().kill_worker(0, 0);
        let r = simulate_resilient(
            &graph,
            &platform,
            &profile,
            &mut Greedy,
            &SimOptions::default(),
            ObsSink::disabled(),
            &plan,
            &RetryPolicy::default(),
        )
        .unwrap();
        assert!(r.outcome.is_success());
        assert_eq!(r.trace.events.len(), graph.len());
        assert!(r.trace.events.iter().all(|e| e.worker != 0));
    }

    #[test]
    fn transient_failure_retries_with_backoff_and_completes() {
        let (platform, profile) = homog();
        let graph = TaskGraph::cholesky(4);
        let first = graph.entry_tasks()[0];
        let plan = FaultPlan::new().transient(first, 2);
        let r = simulate_resilient(
            &graph,
            &platform,
            &profile,
            &mut Greedy,
            &SimOptions::default(),
            ObsSink::enabled(),
            &plan,
            &RetryPolicy::default(),
        )
        .unwrap();
        assert!(
            matches!(r.outcome, RunOutcome::Degraded { ref lost_workers, retries: 2 }
                     if lost_workers.is_empty()),
            "outcome: {:?}",
            r.outcome
        );
        assert_eq!(r.trace.events.len(), graph.len());
        assert_eq!(r.obs.counters.failures, 2);
        assert_eq!(r.obs.counters.retries, 2);
        assert_eq!(r.obs.failed_attempts.len(), 2);
        // The third (successful) attempt respects the second backoff:
        // base × 2 after two failures.
        let policy = RetryPolicy::default();
        let succeeded = r.trace.events.iter().find(|e| e.task == first).unwrap();
        let second_fail_end = r.obs.failed_attempts[1].end;
        assert!(succeeded.start >= second_fail_end + policy.backoff(2));
    }

    #[test]
    fn retry_exhaustion_fails_the_run_with_cause() {
        let (platform, profile) = homog();
        let graph = TaskGraph::cholesky(4);
        let first = graph.entry_tasks()[0];
        let plan = FaultPlan::new().transient(first, 99);
        let policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let r = simulate_resilient(
            &graph,
            &platform,
            &profile,
            &mut Greedy,
            &SimOptions::default(),
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
                    attempts: 3,
                    kind: FaultKind::Transient,
                }
            }
        );
        assert!(!r.outcome.is_success());
    }

    #[test]
    fn straggler_slows_worker_and_watchdog_times_it_out() {
        let (platform, profile) = homog();
        let graph = TaskGraph::cholesky(4);
        // A 100× straggler everywhere-assigned serial worker: without a
        // watchdog the run completes, just slower.
        let plan = FaultPlan::new().straggler(0, 100.0);
        let slow = simulate_resilient(
            &graph,
            &platform,
            &profile,
            &mut Serial,
            &SimOptions::default(),
            ObsSink::disabled(),
            &plan,
            &RetryPolicy::default(),
        )
        .unwrap();
        assert_eq!(slow.outcome, RunOutcome::Completed);
        let clean = simulate(
            &graph,
            &platform,
            &profile,
            &mut Serial,
            &SimOptions::default(),
        );
        assert!(slow.makespan > clean.makespan.scale(50.0));
        // With a watchdog below the slowed duration every attempt times
        // out, and the retry budget runs dry on worker 0 (Serial pins all
        // work there, so there is no live escape).
        let policy = RetryPolicy {
            watchdog: Some(Time::from_micros(10)),
            max_attempts: 2,
            ..RetryPolicy::default()
        };
        let r = simulate_resilient(
            &graph,
            &platform,
            &profile,
            &mut Serial,
            &SimOptions::default(),
            ObsSink::disabled(),
            &plan,
            &policy,
        )
        .unwrap();
        assert!(
            matches!(
                r.outcome,
                RunOutcome::Failed {
                    cause: FailureCause::RetriesExhausted {
                        kind: FaultKind::Timeout,
                        ..
                    }
                }
            ),
            "outcome: {:?}",
            r.outcome
        );
    }

    #[test]
    fn impossible_configurations_are_rejected_up_front() {
        let profile = TimingProfile::mirage_homogeneous();
        let graph = TaskGraph::cholesky(2);
        let none = Platform::homogeneous(0);
        assert_eq!(
            simulate_resilient(
                &graph,
                &none,
                &profile,
                &mut Greedy,
                &SimOptions::default(),
                ObsSink::disabled(),
                &FaultPlan::none(),
                &RetryPolicy::default(),
            )
            .unwrap_err(),
            ConfigError::ZeroWorkers
        );
        let two = Platform::homogeneous(2);
        let killer = FaultPlan::new().kill_worker(0, 0).kill_worker(1, 3);
        assert_eq!(
            simulate_resilient(
                &graph,
                &two,
                &profile,
                &mut Greedy,
                &SimOptions::default(),
                ObsSink::disabled(),
                &killer,
                &RetryPolicy::default(),
            )
            .unwrap_err(),
            ConfigError::PlanKillsAllWorkers { n_workers: 2 }
        );
    }

    #[test]
    fn seeded_chaos_is_deterministic_in_sim() {
        let (platform, profile) = homog();
        let graph = TaskGraph::cholesky(5);
        let plan = FaultPlan::seeded(42, graph.len(), platform.n_workers());
        let run = |sched: &mut dyn Scheduler| {
            simulate_resilient(
                &graph,
                &platform,
                &profile,
                sched,
                &SimOptions::default(),
                ObsSink::disabled(),
                &plan,
                &RetryPolicy::default(),
            )
            .unwrap()
        };
        let a = run(&mut Greedy);
        let b = run(&mut Greedy);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.trace.events, b.trace.events);
        assert_eq!(a.trace.fault_events, b.trace.fault_events);
    }

    #[test]
    fn gflops_positive_and_bounded_by_peak() {
        let platform = Platform::mirage().without_comm();
        let profile = TimingProfile::mirage();
        let graph = TaskGraph::cholesky(16);
        let r = simulate(
            &graph,
            &platform,
            &profile,
            &mut Greedy,
            &SimOptions::default(),
        );
        let g = r.gflops(16, profile.nb());
        assert!(g > 0.0);
        assert!(g < profile.gemm_peak(&platform));
    }
}
