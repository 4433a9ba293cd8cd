//! The frozen pre-arena engine, kept as the equivalence oracle.
//!
//! This module is a verbatim snapshot of the simulator's hot path as it
//! stood *before* the data-oriented refactor (DESIGN.md §13): per-task
//! allocations in dependency release, `Vec<Vec<_>>` worker queues whose
//! pop shifts the remaining entries, a fresh availability vector per
//! dispatch, a `BinaryHeap` of 6-tuples as the event loop, and a
//! `HashMap`-keyed tile residency re-hashed (plus a fresh access `Vec`
//! allocated) on every scheduler estimate. It shares only the parts the
//! refactor did not touch — the PCI link model, jitter, fault state and
//! the trace recorder — so a bit-for-bit comparison against
//! [`crate::simulate_with`] isolates exactly the refactored structures.
//!
//! Two consumers, neither on any production path:
//!
//! * the equivalence property tests (`tests/equivalence.rs`), which assert
//!   bitwise-identical traces, queue decisions, transfers and outcome
//!   classification across random platforms × schedulers × seeds;
//! * the `repro bench` harness, whose committed *baseline leg*
//!   (`BENCH_sim_throughput.json`) is measured against this engine so the
//!   before/after comparison stays reproducible on any machine.

use crate::data::Links;
use crate::engine::{SimOptions, SimResult};
use hetchol_core::dag::TaskGraph;
use hetchol_core::exec::{QueueEntry, TraceRecorder};
use hetchol_core::fault::{
    ConfigError, FailureCause, FaultKind, FaultPlan, FaultState, RetryPolicy, RunOutcome,
};
use hetchol_core::obs::ObsSink;
use hetchol_core::platform::{MemNode, Platform, WorkerId};
use hetchol_core::profiles::TimingProfile;
use hetchol_core::scheduler::{ExecutionView, SchedContext, Scheduler};
use hetchol_core::task::{TaskId, Tile};
use hetchol_core::time::Time;
use hetchol_core::trace::TransferEvent;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Pending completion events: min-heap on `(finish time, seq)`, carrying
/// `(worker, task, start, injected failure)` — the pre-refactor event
/// queue, replaced by the typed calendar queue in [`crate::engine`].
type EventHeap = BinaryHeap<Reverse<(Time, u64, WorkerId, TaskId, Time, Option<FaultKind>)>>;

/// The pre-refactor tile residency, verbatim: a `HashMap` keyed by tile
/// coordinates, re-hashed on every scheduler estimate. Replaced by the
/// flat bitmask vector in [`crate::data::Residency`].
struct RefResidency {
    /// Bitmask of valid nodes per tile; absent tiles are valid at the host
    /// only (node 0), which is where the matrix starts.
    valid: HashMap<Tile, u64>,
}

impl RefResidency {
    fn new(n_nodes: usize) -> RefResidency {
        assert!(n_nodes <= 64, "residency bitmask supports up to 64 nodes");
        RefResidency {
            valid: HashMap::new(),
        }
    }

    fn mask(&self, tile: Tile) -> u64 {
        *self.valid.get(&tile).unwrap_or(&1) // default: host only
    }

    fn is_valid_at(&self, tile: Tile, node: MemNode) -> bool {
        self.mask(tile) & (1 << node) != 0
    }

    fn source_for(&self, tile: Tile) -> MemNode {
        let m = self.mask(tile);
        debug_assert!(m != 0, "a tile must be valid somewhere");
        if m & 1 != 0 {
            return 0;
        }
        m.trailing_zeros() as usize
    }

    fn add_copy(&mut self, tile: Tile, node: MemNode) {
        let m = self.mask(tile) | (1 << node);
        self.valid.insert(tile, m);
    }

    fn write_at(&mut self, tile: Tile, node: MemNode) {
        self.valid.insert(tile, 1 << node);
    }
}

/// The pre-refactor data model, verbatim: hash-map residency and a fresh
/// access `Vec` allocated per hook call (`coords.accesses()`), where the
/// arena engine walks a precomputed flat access table.
struct RefSimData<'a> {
    platform: &'a Platform,
    graph: &'a TaskGraph,
    residency: RefResidency,
    links: Links,
    transfers: Vec<TransferEvent>,
}

impl<'a> RefSimData<'a> {
    fn new(platform: &'a Platform, graph: &'a TaskGraph) -> RefSimData<'a> {
        RefSimData {
            platform,
            graph,
            residency: RefResidency::new(platform.n_nodes()),
            links: Links::new(platform),
            transfers: Vec::new(),
        }
    }

    fn invalidate_writes(&mut self, task: TaskId, w: WorkerId) {
        let node = self.platform.node_of(w);
        for access in self.graph.task(task).coords.accesses() {
            if access.mode.is_write() {
                self.residency.write_at(access.tile, node);
            }
        }
    }

    fn merge_transfers(&mut self, recorder: &mut TraceRecorder) {
        recorder.transfers_mut().append(&mut self.transfers);
    }

    fn transfer_estimate(&self, task: TaskId, node: MemNode) -> Time {
        let mut total = Time::ZERO;
        for access in self.graph.task(task).coords.accesses() {
            if !self.residency.is_valid_at(access.tile, node) {
                let src = self.residency.source_for(access.tile);
                total += Links::estimate(self.platform, src, node);
            }
        }
        total
    }

    fn data_ready(&mut self, task: TaskId, w: WorkerId, now: Time) -> Time {
        let node = self.platform.node_of(w);
        let mut data_ready = now;
        for access in self.graph.task(task).coords.accesses() {
            if !self.residency.is_valid_at(access.tile, node) {
                let src = self.residency.source_for(access.tile);
                let end = self
                    .links
                    .transfer(access.tile, src, node, now, &mut self.transfers);
                self.residency.add_copy(access.tile, node);
                data_ready = data_ready.max(end);
            }
        }
        data_ready
    }
}

/// The pre-arena dependency tracker: `usize` indegrees, a separate
/// released-bitmap, and a fresh `Vec` allocated per release.
struct RefDepTracker {
    indeg: Vec<usize>,
    released: Vec<bool>,
    remaining: usize,
}

impl RefDepTracker {
    fn new(graph: &TaskGraph) -> RefDepTracker {
        RefDepTracker {
            indeg: graph.indegrees(),
            released: vec![false; graph.len()],
            remaining: graph.len(),
        }
    }

    fn initial_ready(&self) -> Vec<TaskId> {
        self.indeg
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d == 0)
            .map(|(i, _)| TaskId(i as u32))
            .collect()
    }

    fn release(&mut self, graph: &TaskGraph, task: TaskId) -> Vec<TaskId> {
        assert!(
            !std::mem::replace(&mut self.released[task.index()], true),
            "{task} released twice"
        );
        assert_eq!(self.indeg[task.index()], 0);
        self.remaining -= 1;
        let mut newly_ready = Vec::new();
        for &s in graph.successors(task) {
            self.indeg[s.index()] -= 1;
            if self.indeg[s.index()] == 0 {
                newly_ready.push(s);
            }
        }
        newly_ready
    }

    fn is_done(&self) -> bool {
        self.remaining == 0
    }

    fn remaining(&self) -> usize {
        self.remaining
    }
}

/// The pre-arena worker queues: nested `Vec<Vec<_>>`, sorted insertion via
/// `Vec::insert`, and a pop that shifts every remaining entry left.
struct RefQueues {
    queues: Vec<Vec<QueueEntry>>,
    queued_exec: Vec<Time>,
    busy: Vec<bool>,
    busy_until: Vec<Time>,
    seq: u64,
}

impl RefQueues {
    fn new(n_workers: usize) -> RefQueues {
        RefQueues {
            queues: vec![Vec::new(); n_workers],
            queued_exec: vec![Time::ZERO; n_workers],
            busy: vec![false; n_workers],
            busy_until: vec![Time::ZERO; n_workers],
            seq: 0,
        }
    }

    fn n_workers(&self) -> usize {
        self.queues.len()
    }

    fn worker_available_at(&self, w: WorkerId, now: Time) -> Time {
        let base = if self.busy[w] {
            self.busy_until[w].max(now)
        } else {
            now
        };
        base + self.queued_exec[w]
    }

    /// The per-dispatch allocation the arena path eliminated.
    fn availability(&self, now: Time) -> Vec<Time> {
        (0..self.n_workers())
            .map(|w| self.worker_available_at(w, now))
            .collect()
    }

    fn enqueue(
        &mut self,
        w: WorkerId,
        task: TaskId,
        prio: i64,
        data_ready: Time,
        exec_estimate: Time,
        sorted: bool,
    ) -> u64 {
        let entry = QueueEntry {
            task,
            prio,
            seq: self.seq,
            data_ready,
            exec_estimate,
        };
        self.seq += 1;
        self.queued_exec[w] += exec_estimate;
        let queue = &mut self.queues[w];
        if sorted {
            let pos = queue.partition_point(|q| (-q.prio, q.seq) <= (-entry.prio, entry.seq));
            queue.insert(pos, entry);
        } else {
            queue.push(entry);
        }
        entry.seq
    }

    /// The O(queue length) pop: `Vec::remove` shifts the tail.
    fn pop_startable_indexed(
        &mut self,
        w: WorkerId,
        mut may_start: impl FnMut(TaskId) -> bool,
    ) -> Option<(QueueEntry, usize)> {
        let pos = (0..self.queues[w].len()).find(|&i| may_start(self.queues[w][i].task))?;
        let entry = self.queues[w].remove(pos);
        self.queued_exec[w] = self.queued_exec[w].saturating_sub(entry.exec_estimate);
        Some((entry, pos))
    }

    fn depth(&self, w: WorkerId) -> usize {
        self.queues[w].len()
    }

    fn set_busy_until(&mut self, w: WorkerId, until: Time) {
        self.busy[w] = true;
        self.busy_until[w] = until;
    }

    fn set_idle(&mut self, w: WorkerId) {
        self.busy[w] = false;
    }

    fn is_busy(&self, w: WorkerId) -> bool {
        self.busy[w]
    }

    fn drain_worker(&mut self, w: WorkerId) -> Vec<QueueEntry> {
        self.queued_exec[w] = Time::ZERO;
        std::mem::take(&mut self.queues[w])
    }
}

/// The pre-refactor execution view: owns its availability vector.
struct RefView<'a> {
    now: Time,
    avail: Vec<Time>,
    hooks: &'a RefSimData<'a>,
}

impl ExecutionView for RefView<'_> {
    fn now(&self) -> Time {
        self.now
    }
    fn worker_available_at(&self, w: WorkerId) -> Time {
        self.avail[w]
    }
    fn transfer_estimate(&self, task: TaskId, node: MemNode) -> Time {
        self.hooks.transfer_estimate(task, node)
    }
}

/// Availability sentinel for dead workers (same constant as the core).
const DEAD_AVAILABILITY: Time = Time::from_secs(86_400 * 365);

/// The pre-refactor dispatcher: allocates the availability vector, builds
/// an owning view, then enqueues — byte-for-byte the decision sequence of
/// the old `exec::dispatch_inner`.
#[allow(clippy::too_many_arguments)]
fn dispatch(
    task: TaskId,
    now: Time,
    ctx: &SchedContext,
    scheduler: &mut dyn Scheduler,
    queues: &mut RefQueues,
    recorder: &mut TraceRecorder,
    data: &mut RefSimData,
    dead: Option<&[bool]>,
    extra_delay: Time,
) -> Option<WorkerId> {
    let is_dead = |w: WorkerId| dead.is_some_and(|d| d.get(w).copied().unwrap_or(false));
    let mut w = {
        let mut avail = queues.availability(now);
        if dead.is_some() {
            for (v, a) in avail.iter_mut().enumerate() {
                if is_dead(v) {
                    *a = DEAD_AVAILABILITY;
                }
            }
        }
        let view = RefView {
            now,
            avail,
            hooks: data,
        };
        scheduler.assign(task, ctx, &view)
    };
    assert!(w < queues.n_workers());
    if is_dead(w) {
        w = (0..queues.n_workers())
            .filter(|&v| !is_dead(v))
            .min_by_key(|&v| {
                (
                    queues
                        .worker_available_at(v, now)
                        .saturating_add(data.transfer_estimate(task, ctx.platform.node_of(v))),
                    v,
                )
            })?;
    }
    let prio = scheduler.priority(task, ctx);
    let exec_estimate = ctx
        .profile
        .time(ctx.graph.task(task).kernel(), ctx.platform.class_of(w));
    let data_ready = data
        .data_ready(task, w, now)
        .max(now.saturating_add(extra_delay));
    let seq = queues.enqueue(
        w,
        task,
        prio,
        data_ready,
        exec_estimate,
        scheduler.sorted_queues(),
    );
    let event = hetchol_core::trace::QueueEvent {
        worker: w,
        task,
        prio,
        seq,
        at: now,
        data_ready,
    };
    recorder.obs_mut().sample_queue_depth(w, queues.depth(w));
    recorder.record_enqueue(event);
    Some(w)
}

/// `reap_doomed` as the pre-refactor loop ran it.
fn reap_doomed(
    now: Time,
    ctx: &SchedContext,
    scheduler: &mut dyn Scheduler,
    queues: &mut RefQueues,
    recorder: &mut TraceRecorder,
    data: &mut RefSimData,
    f: &mut FaultState,
) -> Option<FailureCause> {
    for w in f.doomed_workers() {
        if queues.is_busy(w) {
            continue;
        }
        f.mark_dead(w, now);
        for entry in queues.drain_worker(w) {
            let landed = dispatch(
                entry.task,
                now,
                ctx,
                scheduler,
                queues,
                recorder,
                data,
                Some(f.dead()),
                Time::ZERO,
            );
            if landed.is_none() {
                return Some(FailureCause::AllWorkersLost);
            }
        }
    }
    None
}

/// Simulate with the frozen pre-refactor engine (fault-free). Must remain
/// bit-identical to [`crate::simulate_with`]; the equivalence suite and
/// the benchmark baseline leg both depend on it.
pub fn simulate_reference(
    graph: &TaskGraph,
    platform: &Platform,
    profile: &TimingProfile,
    scheduler: &mut dyn Scheduler,
    opts: &SimOptions,
    obs: ObsSink,
) -> SimResult {
    run_reference(graph, platform, profile, scheduler, opts, obs, None)
}

/// [`simulate_reference`] under fault injection — the pre-refactor
/// resilient loop, for `RunOutcome`-classification equivalence.
#[allow(clippy::too_many_arguments)]
pub fn simulate_resilient_reference(
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
    Ok(run_reference(
        graph,
        platform,
        profile,
        scheduler,
        opts,
        obs,
        Some(&mut faults),
    ))
}

/// The pre-refactor engine loop, verbatim.
fn run_reference(
    graph: &TaskGraph,
    platform: &Platform,
    profile: &TimingProfile,
    scheduler: &mut dyn Scheduler,
    opts: &SimOptions,
    obs: ObsSink,
    mut faults: Option<&mut FaultState>,
) -> SimResult {
    let ctx = SchedContext {
        graph,
        platform,
        profile,
    };
    scheduler.init(&ctx);

    let n_workers = platform.n_workers();
    let mut deps = RefDepTracker::new(graph);
    let mut queues = RefQueues::new(n_workers);
    let mut recorder = TraceRecorder::with_obs(n_workers, graph.len(), obs);
    let mut data = RefSimData::new(platform, graph);
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed);
    let mut events: EventHeap = BinaryHeap::new();
    let mut heap_seq = 0u64;
    let mut now = Time::ZERO;
    let mut abort: Option<FailureCause> = None;

    if let Some(f) = faults.as_deref_mut() {
        abort = reap_doomed(
            now,
            &ctx,
            scheduler,
            &mut queues,
            &mut recorder,
            &mut data,
            f,
        );
    }

    if abort.is_none() {
        for t in deps.initial_ready() {
            let dead = faults.as_deref().map(|f| f.dead().to_vec());
            let landed = dispatch(
                t,
                now,
                &ctx,
                scheduler,
                &mut queues,
                &mut recorder,
                &mut data,
                dead.as_deref(),
                Time::ZERO,
            );
            if landed.is_none() {
                abort = Some(FailureCause::AllWorkersLost);
                break;
            }
        }
    }

    'main: while abort.is_none() {
        if let Some(f) = faults.as_deref_mut() {
            if let Some(cause) = reap_doomed(
                now,
                &ctx,
                scheduler,
                &mut queues,
                &mut recorder,
                &mut data,
                f,
            ) {
                abort = Some(cause);
                break 'main;
            }
        }

        for w in 0..n_workers {
            if queues.is_busy(w) {
                continue;
            }
            if faults.as_deref().is_some_and(|f| f.is_dead(w)) {
                continue;
            }
            let Some((entry, skipped)) =
                queues.pop_startable_indexed(w, |t| scheduler.may_start(t, w))
            else {
                continue;
            };
            recorder.obs_mut().count_backfill(w, skipped);
            scheduler.notify_start(entry.task, w);
            let start = now.max(entry.data_ready);
            let mut duration = opts.jitter.apply(entry.exec_estimate, &mut rng);
            let mut injected: Option<FaultKind> = None;
            if let Some(f) = faults.as_deref_mut() {
                let (_, inj) = f.begin_attempt(entry.task);
                injected = inj;
                let slow = f.slowdown(w);
                if slow != 1.0 {
                    duration = duration.scale(slow);
                }
                if injected.is_none() {
                    if let Some(limit) = f.policy().watchdog {
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
            events.push(Reverse((end, heap_seq, w, entry.task, start, injected)));
            heap_seq += 1;
            if let Some(f) = faults.as_deref_mut() {
                if let Some(cause) = reap_doomed(
                    now,
                    &ctx,
                    scheduler,
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

        let Some(Reverse((t_end, _, w, task, t_start, injected))) = events.pop() else {
            break;
        };
        now = t_end;
        queues.set_idle(w);

        if let Some(kind) = injected {
            let f = faults
                .as_deref_mut()
                .expect("injected failure without fault state");
            match f.record_failure(task, w, kind, t_start, now) {
                Some(backoff) => {
                    let landed = dispatch(
                        task,
                        now,
                        &ctx,
                        scheduler,
                        &mut queues,
                        &mut recorder,
                        &mut data,
                        Some(f.dead()),
                        backoff,
                    );
                    if landed.is_none() {
                        abort = Some(FailureCause::AllWorkersLost);
                        break 'main;
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

        recorder.record(graph, w, task, t_start, t_end);
        data.invalidate_writes(task, w);
        for s in deps.release(graph, task) {
            let dead = faults.as_deref().map(|f| f.dead().to_vec());
            let landed = dispatch(
                s,
                now,
                &ctx,
                scheduler,
                &mut queues,
                &mut recorder,
                &mut data,
                dead.as_deref(),
                Time::ZERO,
            );
            if landed.is_none() {
                abort = Some(FailureCause::AllWorkersLost);
                break 'main;
            }
        }
    }

    let outcome = match faults {
        None => {
            assert!(
                deps.is_done(),
                "simulation deadlocked: {} tasks incomplete",
                deps.remaining()
            );
            RunOutcome::Completed
        }
        Some(f) => {
            let outcome = f.classify(deps.is_done(), abort, deps.remaining());
            recorder.record_faults(f.take_events());
            outcome
        }
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
