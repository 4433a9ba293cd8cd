//! The shared execution core, laid out data-oriented (DESIGN.md §13).
//!
//! The discrete-event simulator (`hetchol-sim`) and the real threaded
//! runtime (`hetchol-rt`) drive the same scheduling machinery: indegree
//! dependency tracking, per-worker queues with the `dmda`/`dmdas`
//! FIFO-versus-priority insertion discipline, the queue-availability
//! estimate behind [`ExecutionView::worker_available_at`], and trace
//! recording. This module holds that machinery once; the engines are thin
//! drivers that differ only in how time advances (simulated clock versus
//! wall clock) and in their data model (tile residency and PCI transfers
//! versus shared memory).
//!
//! The hot-path state lives in flat structure-of-arrays vectors indexed by
//! the `u32` inside [`TaskId`] — the typed handle — so a steady-state
//! dispatch/retire cycle performs no heap allocation:
//!
//! * [`DepTracker`] — the task arena: per-task dependency counters,
//!   lifecycle [`TaskPhase`] bytes and assigned-worker ids, with a release
//!   API ([`DepTracker::release_into`]) that writes newly ready successors
//!   into a caller-reused scratch vector;
//! * [`WorkerQueues`] — per-worker ring-buffer queues ([`VecDeque`], so
//!   capacity is reused and a head pop is O(1)), queued-work accounting
//!   and the availability estimate, with [`dispatch`] pushing one ready
//!   task through a [`Scheduler`] into the right queue via a reused
//!   availability scratch buffer;
//! * [`TraceRecorder`] — the event sink both engines feed, producing the
//!   common [`Trace`] — the one record of a run: the observability report
//!   is derived from it at finish ([`TraceRecorder::finish_with_obs`]).

use crate::dag::TaskGraph;
use crate::fault::FaultEvent;
use crate::obs::{ObsReport, ObsSink};
use crate::platform::{MemNode, WorkerId};
use crate::scheduler::{ExecutionView, SchedContext, Scheduler};
use crate::task::TaskId;
use crate::time::Time;
use crate::trace::{QueueEvent, Trace, TraceEvent, TransferEvent};
use std::collections::VecDeque;

/// Sentinel in the arena's assigned-worker column: no worker yet.
const NO_WORKER: u32 = u32::MAX;

/// Lifecycle phase of a task — one byte per task in the arena.
///
/// Phases move forward through `Waiting → Ready → Queued → Running →
/// Retired`, except under fault recovery, where a failed attempt or a dead
/// worker's drained queue drops a task back to `Queued` on re-dispatch.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum TaskPhase {
    /// Unsatisfied dependencies remain.
    Waiting = 0,
    /// Every dependency completed; not yet through the dispatcher.
    Ready = 1,
    /// Assigned to a worker, sitting in its queue.
    Queued = 2,
    /// Popped by its worker; executing (or in flight, in the simulator).
    Running = 3,
    /// Completed and released.
    Retired = 4,
}

/// Indegree-based readiness tracking over a [`TaskGraph`], stored as a
/// flat structure-of-arrays task arena addressed by [`TaskId`].
///
/// Seed the engine with [`DepTracker::initial_ready`], then call
/// [`DepTracker::release_into`] each time a task completes; it writes the
/// successors that just became ready, in successor order (ascending
/// [`TaskId`], which is submission order), into a scratch vector the
/// engine reuses across calls — the per-release allocation of the old
/// tracker is gone. The engines also feed the arena's phase and
/// assigned-worker columns ([`DepTracker::note_queued`],
/// [`DepTracker::note_started`]), which double as cheap engine-bug
/// tripwires (double release, release with unsatisfied dependencies).
#[derive(Clone, Debug)]
pub struct DepTracker {
    /// Unsatisfied predecessor count per task (SoA column, `u32`).
    dep_count: Vec<u32>,
    /// Lifecycle phase per task (SoA column, one byte).
    phase: Vec<TaskPhase>,
    /// Assigned worker per task (SoA column; [`NO_WORKER`] until queued).
    assigned: Vec<u32>,
    /// Tasks not yet released.
    remaining: u32,
}

impl DepTracker {
    /// Start tracking `graph` with all tasks unexecuted.
    pub fn new(graph: &TaskGraph) -> DepTracker {
        let dep_count: Vec<u32> = graph.indegrees().iter().map(|&d| d as u32).collect();
        let phase = dep_count
            .iter()
            .map(|&d| {
                if d == 0 {
                    TaskPhase::Ready
                } else {
                    TaskPhase::Waiting
                }
            })
            .collect();
        DepTracker {
            phase,
            assigned: vec![NO_WORKER; dep_count.len()],
            remaining: dep_count.len() as u32,
            dep_count,
        }
    }

    /// Tasks ready before anything has run (the graph's entry tasks), in
    /// submission order.
    pub fn initial_ready(&self) -> Vec<TaskId> {
        self.dep_count
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d == 0)
            .map(|(i, _)| TaskId(i as u32))
            .collect()
    }

    /// Record that `task` completed and append the successors whose last
    /// unsatisfied dependency it was to `out` (cleared first), in
    /// ascending id order. The caller keeps `out` across calls, so the
    /// steady state allocates nothing.
    ///
    /// # Panics
    /// Panics if `task` is released twice or still has unsatisfied
    /// predecessors — both are engine bugs, not data-dependent conditions.
    pub fn release_into(&mut self, graph: &TaskGraph, task: TaskId, out: &mut Vec<TaskId>) {
        out.clear();
        let i = task.index();
        assert!(self.phase[i] != TaskPhase::Retired, "{task} released twice");
        assert_eq!(
            self.dep_count[i], 0,
            "{task} released with unsatisfied dependencies"
        );
        self.phase[i] = TaskPhase::Retired;
        self.remaining -= 1;
        for &s in graph.successors(task) {
            let j = s.index();
            self.dep_count[j] -= 1;
            if self.dep_count[j] == 0 {
                self.phase[j] = TaskPhase::Ready;
                out.push(s);
            }
        }
    }

    /// Allocating convenience wrapper over [`DepTracker::release_into`]
    /// (tests and cold paths; the engines reuse a scratch vector instead).
    pub fn release(&mut self, graph: &TaskGraph, task: TaskId) -> Vec<TaskId> {
        let mut out = Vec::new();
        self.release_into(graph, task, &mut out);
        out
    }

    /// Record in the arena that `task` was assigned to `worker`'s queue
    /// (called by the engines right after [`dispatch`] lands the task; a
    /// retried or re-queued task may be noted more than once).
    #[inline]
    pub fn note_queued(&mut self, task: TaskId, worker: WorkerId) {
        self.phase[task.index()] = TaskPhase::Queued;
        self.assigned[task.index()] = worker as u32;
    }

    /// Record in the arena that `task`'s worker popped it and started the
    /// attempt.
    #[inline]
    pub fn note_started(&mut self, task: TaskId) {
        self.phase[task.index()] = TaskPhase::Running;
    }

    /// Current lifecycle phase of `task`.
    #[inline]
    pub fn phase(&self, task: TaskId) -> TaskPhase {
        self.phase[task.index()]
    }

    /// Worker `task` was last queued on, if it reached the dispatcher.
    #[inline]
    pub fn assigned_worker(&self, task: TaskId) -> Option<WorkerId> {
        match self.assigned[task.index()] {
            NO_WORKER => None,
            w => Some(w as WorkerId),
        }
    }

    /// Number of tasks not yet released.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.remaining as usize
    }

    /// `true` once every task has been released.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.remaining == 0
    }
}

/// One entry of a worker queue.
#[derive(Copy, Clone, Debug)]
pub struct QueueEntry {
    /// The queued task.
    pub task: TaskId,
    /// Scheduler priority (higher runs earlier under sorted queues).
    pub prio: i64,
    /// Global enqueue sequence number: FIFO tie-break among equal
    /// priorities, and the FIFO order itself for unsorted queues.
    pub seq: u64,
    /// When the task's prefetched inputs are all resident at the worker's
    /// memory node (equals enqueue time when there is nothing to move).
    pub data_ready: Time,
    /// Nominal execution time on the assigned worker, per the profile.
    /// Carried so dequeue can return it to the availability accounting
    /// without a second profile lookup.
    pub exec_estimate: Time,
}

/// Per-worker task queues with the queued-work availability estimate.
///
/// Each queue is a ring buffer ([`VecDeque`]): the common pop — the head
/// entry, once the `may_start` gate admits it — is O(1) and never shifts
/// the remaining entries, and the buffer's capacity is reused across the
/// whole run. Queues are FIFO, or kept sorted by `(-priority, seq)` when
/// the scheduler asks for sorted queues — the `dmda` versus `dmdas`
/// distinction of the paper (Section V-A). The availability estimate for
/// a worker is *end of its running task* (clamped to now) *plus the
/// nominal work already queued on it*, which is exactly what the
/// completion-time heuristics consume via
/// [`ExecutionView::worker_available_at`].
///
/// Two per-worker bitsets — busy, and has queued entries — answer the
/// start loop's question, "which idle workers have work?", a 64-worker
/// word at a time ([`WorkerQueues::next_idle_with_work`]).
#[derive(Clone, Debug)]
pub struct WorkerQueues {
    queues: Vec<VecDeque<QueueEntry>>,
    /// Per-worker availability inputs, packed as `(effective busy-until,
    /// queued nominal work)` so the completion-time scan touches one pair
    /// per worker. The first element is the running task's estimated end
    /// while busy and `Time::ZERO` when idle — `max(effective, now)`
    /// yields exactly the old `if busy { busy_until.max(now) } else
    /// { now }` in either state.
    avail_parts: Vec<(Time, Time)>,
    /// Bit `w % 64` of word `w / 64` is set while worker `w` runs a task.
    busy: Vec<u64>,
    /// Bit `w % 64` of word `w / 64` is set while worker `w`'s queue is
    /// nonempty.
    queued: Vec<u64>,
    seq: u64,
    /// Reused buffer behind [`dispatch`]'s availability snapshot, so the
    /// steady state performs no per-dispatch allocation.
    avail_scratch: Vec<Time>,
}

impl WorkerQueues {
    /// Empty queues for `n_workers` workers.
    pub fn new(n_workers: usize) -> WorkerQueues {
        let words = n_workers.div_ceil(64);
        WorkerQueues {
            queues: vec![VecDeque::with_capacity(32); n_workers],
            avail_parts: vec![(Time::ZERO, Time::ZERO); n_workers],
            busy: vec![0; words],
            queued: vec![0; words],
            seq: 0,
            avail_scratch: Vec::with_capacity(n_workers),
        }
    }

    /// Number of workers.
    #[inline]
    pub fn n_workers(&self) -> usize {
        self.queues.len()
    }

    /// Earliest estimated time worker `w` could start a task appended now.
    #[inline]
    pub fn worker_available_at(&self, w: WorkerId, now: Time) -> Time {
        let (eff_until, queued) = self.avail_parts[w];
        eff_until.max(now) + queued
    }

    /// Write the availability estimate of every worker at `now` into
    /// `out` (cleared first). Reusing `out` across calls keeps the
    /// dispatch path allocation-free.
    pub fn fill_availability(&self, now: Time, out: &mut Vec<Time>) {
        out.clear();
        out.reserve(self.avail_parts.len());
        for w in 0..self.avail_parts.len() {
            out.push(self.worker_available_at(w, now));
        }
    }

    /// The availability estimate of every worker at `now`, freshly
    /// allocated (tests and cold paths; [`dispatch`] reuses a scratch
    /// buffer instead).
    pub fn availability(&self, now: Time) -> Vec<Time> {
        let mut out = Vec::new();
        self.fill_availability(now, &mut out);
        out
    }

    /// Append `task` to worker `w`'s queue — at the back for FIFO, or at
    /// its `(-prio, seq)` rank for sorted queues. Returns the global
    /// enqueue sequence number assigned to the entry.
    pub fn enqueue(
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
        self.avail_parts[w].1 += exec_estimate;
        set_bit(&mut self.queued, w, true);
        let queue = &mut self.queues[w];
        if sorted {
            // Highest priority first; FIFO among equals.
            let pos = queue.partition_point(|q| (-q.prio, q.seq) <= (-entry.prio, entry.seq));
            queue.insert(pos, entry);
        } else {
            queue.push_back(entry);
        }
        entry.seq
    }

    /// Remove and return the first entry of worker `w`'s queue that
    /// `may_start` admits (the schedule-injection gate: a worker may hold
    /// for its planned-next task instead of backfilling). Returns `None`
    /// when the queue is empty or every entry is gated.
    ///
    /// The dequeued entry's nominal execution time is subtracted from the
    /// worker's queued-work estimate.
    pub fn pop_startable(
        &mut self,
        w: WorkerId,
        may_start: impl FnMut(TaskId) -> bool,
    ) -> Option<QueueEntry> {
        self.pop_startable_indexed(w, may_start).map(|(e, _)| e)
    }

    /// Like [`WorkerQueues::pop_startable`], additionally returning how
    /// many gated entries ahead of the dequeued one were bypassed — a
    /// nonzero count is a *backfill* start, which the observability layer
    /// counts per worker.
    ///
    /// The ungated common case pops the ring's head in O(1); a gated pop
    /// removes from the middle, shifting whichever side of the ring is
    /// shorter.
    pub fn pop_startable_indexed(
        &mut self,
        w: WorkerId,
        mut may_start: impl FnMut(TaskId) -> bool,
    ) -> Option<(QueueEntry, usize)> {
        let queue = &mut self.queues[w];
        let pos = (0..queue.len()).find(|&i| may_start(queue[i].task))?;
        let entry = if pos == 0 {
            queue.pop_front().expect("found index 0 in a nonempty ring")
        } else {
            queue.remove(pos).expect("found index within the ring")
        };
        if queue.is_empty() {
            set_bit(&mut self.queued, w, false);
        }
        self.avail_parts[w].1 = self.avail_parts[w].1.saturating_sub(entry.exec_estimate);
        Some((entry, pos))
    }

    /// Current number of queued entries on worker `w` (a gauge the
    /// observability layer samples at enqueue time).
    #[inline]
    pub fn depth(&self, w: WorkerId) -> usize {
        self.queues[w].len()
    }

    /// Mark worker `w` busy until (an estimate of) `until`.
    #[inline]
    pub fn set_busy_until(&mut self, w: WorkerId, until: Time) {
        set_bit(&mut self.busy, w, true);
        self.avail_parts[w].0 = until;
    }

    /// Mark worker `w` idle.
    #[inline]
    pub fn set_idle(&mut self, w: WorkerId) {
        set_bit(&mut self.busy, w, false);
        self.avail_parts[w].0 = Time::ZERO;
    }

    /// Whether worker `w` is currently running a task.
    #[inline]
    pub fn is_busy(&self, w: WorkerId) -> bool {
        self.busy[w / 64] >> (w % 64) & 1 != 0
    }

    /// The lowest worker `≥ from` that is idle and has queued entries, or
    /// `None` — the only workers a start loop can start anything on. The
    /// answer reflects the queues as they are now, so a loop that asks
    /// again after each worker sees enqueues made in between.
    #[inline]
    pub fn next_idle_with_work(&self, from: WorkerId) -> Option<WorkerId> {
        let first = from / 64;
        (first..self.queued.len()).find_map(|i| {
            let mut bits = self.queued[i] & !self.busy[i];
            if i == first {
                bits &= !0 << (from % 64);
            }
            (bits != 0).then(|| i * 64 + bits.trailing_zeros() as usize)
        })
    }

    /// Whether worker `w` has queued tasks.
    #[inline]
    pub fn has_queued(&self, w: WorkerId) -> bool {
        !self.queues[w].is_empty()
    }

    /// Remove and return every queued entry of worker `w` in queue order,
    /// zeroing its queued-work estimate — the recovery path when `w` dies
    /// and its owned tasks must be re-dispatched onto the survivors.
    pub fn drain_worker(&mut self, w: WorkerId) -> Vec<QueueEntry> {
        self.avail_parts[w].1 = Time::ZERO;
        set_bit(&mut self.queued, w, false);
        self.queues[w].drain(..).collect()
    }
}

/// Set or clear worker `w`'s bit in a per-worker bitset.
#[inline]
fn set_bit(bits: &mut [u64], w: WorkerId, on: bool) {
    let mask = 1u64 << (w % 64);
    if on {
        bits[w / 64] |= mask;
    } else {
        bits[w / 64] &= !mask;
    }
}

/// Engine-specific hooks consulted while dispatching a ready task.
///
/// The runtime's single shared memory node needs neither hook (the
/// defaults model free, instantaneous data); the simulator estimates and
/// performs PCI prefetches through them.
pub trait EngineHooks {
    /// Estimated extra time to bring `task`'s missing inputs to memory
    /// node `node` (consulted by completion-time heuristics, once per
    /// ready task and memory node).
    fn transfer_estimate(&self, _task: TaskId, _node: MemNode) -> Time {
        Time::ZERO
    }

    /// Start moving `task`'s missing inputs toward worker `w`, returning
    /// when they will all be resident. Called once, after assignment.
    fn data_ready(&mut self, _task: TaskId, _w: WorkerId, now: Time) -> Time {
        now
    }
}

/// The no-op hooks of a single-memory-node engine.
pub struct SingleNode;

impl EngineHooks for SingleNode {}

/// The [`ExecutionView`] both engines present to schedulers: current
/// time, the [`WorkerQueues`] availability estimate frozen at dispatch
/// time (borrowed from the dispatcher's reused scratch buffer), and the
/// engine's transfer estimator.
pub struct QueueView<'a, H: EngineHooks + ?Sized> {
    now: Time,
    avail: &'a [Time],
    hooks: &'a H,
}

impl<'a, H: EngineHooks + ?Sized> QueueView<'a, H> {
    /// A view over a pre-built availability slice (the resilient
    /// dispatcher patches dead workers to a far-future sentinel before
    /// handing the view to the scheduler).
    pub fn with_availability(now: Time, avail: &'a [Time], hooks: &'a H) -> QueueView<'a, H> {
        QueueView { now, avail, hooks }
    }
}

impl<H: EngineHooks + ?Sized> ExecutionView for QueueView<'_, H> {
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

/// Lazy [`ExecutionView`] for the fault-free dispatch path: availability
/// is computed per query straight from the live queues instead of being
/// frozen into a scratch buffer first. The completion-time scan reads
/// each worker exactly once, so laziness returns the same values while
/// skipping a 1-per-worker store/load round trip per dispatched task.
/// (The resilient path still freezes [`QueueView`]'s slice — it must
/// patch dead workers to a sentinel before the scheduler looks.)
struct LiveQueueView<'a, H: EngineHooks + ?Sized> {
    now: Time,
    queues: &'a WorkerQueues,
    hooks: &'a H,
}

impl<H: EngineHooks + ?Sized> ExecutionView for LiveQueueView<'_, H> {
    fn now(&self) -> Time {
        self.now
    }
    fn worker_available_at(&self, w: WorkerId) -> Time {
        self.queues.worker_available_at(w, self.now)
    }
    fn transfer_estimate(&self, task: TaskId, node: MemNode) -> Time {
        self.hooks.transfer_estimate(task, node)
    }
}

/// Push one ready task through the scheduler into a worker queue: build
/// the [`QueueView`], let the scheduler assign a worker, start the data
/// prefetch via [`EngineHooks::data_ready`], enqueue under the
/// scheduler's queue discipline, and log a [`QueueEvent`] so the linter
/// and the observability report can audit the decision post hoc. Returns
/// the chosen worker.
pub fn dispatch<H: EngineHooks + ?Sized>(
    task: TaskId,
    now: Time,
    ctx: &SchedContext,
    scheduler: &mut dyn Scheduler,
    queues: &mut WorkerQueues,
    recorder: &mut TraceRecorder,
    hooks: &mut H,
) -> WorkerId {
    dispatch_inner(
        task,
        now,
        ctx,
        scheduler,
        queues,
        recorder,
        hooks,
        None,
        Time::ZERO,
    )
    .expect("dispatch without a death mask always assigns")
}

/// Availability sentinel for dead workers: far enough in the future that
/// completion-time heuristics never prefer a dead worker, but small enough
/// that the strict `Time` additions inside schedulers (availability +
/// transfer + execution estimates) cannot overflow, which `Time::MAX`
/// would.
const DEAD_AVAILABILITY: Time = Time::from_secs(86_400 * 365);

/// [`dispatch`] with recovery inputs: workers flagged in `dead` are never
/// assigned (their availability is patched to a far-future sentinel, and
/// an assignment to one — e.g. by a static scheduler unaware of deaths —
/// is overridden to the best live worker), and `extra_delay` postpones the
/// entry's data-ready instant (the retry backoff). Returns `None` iff no
/// live worker exists.
#[allow(clippy::too_many_arguments)]
pub fn dispatch_resilient<H: EngineHooks + ?Sized>(
    task: TaskId,
    now: Time,
    ctx: &SchedContext,
    scheduler: &mut dyn Scheduler,
    queues: &mut WorkerQueues,
    recorder: &mut TraceRecorder,
    hooks: &mut H,
    dead: &[bool],
    extra_delay: Time,
) -> Option<WorkerId> {
    dispatch_inner(
        task,
        now,
        ctx,
        scheduler,
        queues,
        recorder,
        hooks,
        Some(dead),
        extra_delay,
    )
}

#[allow(clippy::too_many_arguments)]
fn dispatch_inner<H: EngineHooks + ?Sized>(
    task: TaskId,
    now: Time,
    ctx: &SchedContext,
    scheduler: &mut dyn Scheduler,
    queues: &mut WorkerQueues,
    recorder: &mut TraceRecorder,
    hooks: &mut H,
    dead: Option<&[bool]>,
    extra_delay: Time,
) -> Option<WorkerId> {
    let is_dead = |w: WorkerId| dead.is_some_and(|d| d.get(w).copied().unwrap_or(false));
    let mut w = if dead.is_none() {
        // Fault-free fast path: no sentinel patching needed, so the
        // scheduler reads availability lazily from the live queues.
        let view = LiveQueueView {
            now,
            queues,
            hooks: &*hooks,
        };
        scheduler.assign(task, ctx, &view)
    } else {
        // Freeze availability into the reused scratch buffer (taken out
        // of `queues` so the scheduler's view can borrow it while
        // `queues` stays untouched), then hand it back — no allocation
        // in the steady state.
        let mut avail = std::mem::take(&mut queues.avail_scratch);
        queues.fill_availability(now, &mut avail);
        for (v, a) in avail.iter_mut().enumerate() {
            if is_dead(v) {
                *a = DEAD_AVAILABILITY;
            }
        }
        let w = {
            let view = QueueView::with_availability(now, &avail, hooks);
            scheduler.assign(task, ctx, &view)
        };
        queues.avail_scratch = avail;
        w
    };
    assert!(
        w < queues.n_workers(),
        "scheduler assigned {task} to nonexistent worker {w}"
    );
    if is_dead(w) {
        // The scheduler ignored the sentinel (e.g. a static mapping).
        // Recovery overrides it: the live worker whose queue availability
        // plus transfer estimate is earliest takes the task (kernel time
        // left out; ties to the lowest id).
        w = (0..queues.n_workers())
            .filter(|&v| !is_dead(v))
            .min_by_key(|&v| {
                (
                    queues
                        .worker_available_at(v, now)
                        .saturating_add(hooks.transfer_estimate(task, ctx.platform.node_of(v))),
                    v,
                )
            })?;
    }
    let prio = scheduler.priority(task, ctx);
    let exec_estimate = ctx
        .profile
        .time(ctx.graph.task(task).kernel(), ctx.platform.class_of(w));
    let data_ready = hooks
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
    let event = QueueEvent {
        worker: w,
        task,
        prio,
        seq,
        at: now,
        data_ready,
    };
    recorder.obs.sample_queue_depth(w, queues.depth(w));
    recorder.record_enqueue(event);
    Some(w)
}

/// Event sink shared by the engines, producing the common [`Trace`] and,
/// when an enabled [`ObsSink`] was handed in at construction, the
/// structured [`ObsReport`] derived from it.
#[derive(Debug)]
pub struct TraceRecorder {
    n_workers: usize,
    events: Vec<TraceEvent>,
    transfers: Vec<TransferEvent>,
    queue_events: Vec<QueueEvent>,
    fault_events: Vec<FaultEvent>,
    obs: ObsSink,
}

impl TraceRecorder {
    /// Empty recorder for `n_workers` workers, sized for `n_tasks` events,
    /// with observability disabled.
    pub fn new(n_workers: usize, n_tasks: usize) -> TraceRecorder {
        TraceRecorder::with_obs(n_workers, n_tasks, ObsSink::disabled())
    }

    /// Empty recorder whose `obs` sink samples the gauges the trace
    /// cannot hold.
    pub fn with_obs(n_workers: usize, n_tasks: usize, mut obs: ObsSink) -> TraceRecorder {
        obs.prepare(n_workers);
        TraceRecorder {
            n_workers,
            events: Vec::with_capacity(n_tasks),
            transfers: Vec::new(),
            queue_events: Vec::with_capacity(n_tasks),
            fault_events: Vec::new(),
            obs,
        }
    }

    /// Append fault/recovery events (a resilient engine folds its
    /// [`crate::fault::FaultState`] log in before finishing).
    pub fn record_faults(&mut self, events: Vec<FaultEvent>) {
        self.fault_events.extend(events);
    }

    /// The observability sink, for the engine-specific gauges (condvar
    /// wakeups, backfill pops) that the shared core cannot see itself.
    #[inline]
    pub fn obs_mut(&mut self) -> &mut ObsSink {
        &mut self.obs
    }

    /// Record one dispatcher enqueue decision (called by [`dispatch`]).
    #[inline]
    pub fn record_enqueue(&mut self, event: QueueEvent) {
        self.queue_events.push(event);
    }

    /// Record one completed task execution.
    #[inline]
    pub fn record(
        &mut self,
        graph: &TaskGraph,
        worker: WorkerId,
        task: TaskId,
        start: Time,
        end: Time,
    ) {
        self.events.push(TraceEvent {
            worker,
            task,
            kernel: graph.task(task).kernel(),
            start,
            end,
        });
    }

    /// The transfer-event sink (the simulator's link model appends here).
    #[inline]
    pub fn transfers_mut(&mut self) -> &mut Vec<TransferEvent> {
        &mut self.transfers
    }

    /// Number of recorded task events.
    #[inline]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no task events have been recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Latest recorded task end (zero when empty).
    pub fn makespan(&self) -> Time {
        self.events
            .iter()
            .map(|e| e.end)
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// Finalize into the common trace plus its makespan, discarding the
    /// sink's gauges (see [`TraceRecorder::finish_with_obs`]).
    pub fn finish(self) -> (Trace, Time) {
        let makespan = self.makespan();
        let trace = Trace {
            n_workers: self.n_workers,
            events: self.events,
            transfers: self.transfers,
            queue_events: self.queue_events,
            fault_events: self.fault_events,
        };
        (trace, makespan)
    }

    /// Finalize into the common trace, its makespan, and the structured
    /// observability report derived from that trace (empty when the sink
    /// was disabled). `graph` is the graph the run executed; the report
    /// reads each task's kernel from it.
    pub fn finish_with_obs(mut self, graph: &TaskGraph) -> (Trace, Time, ObsReport) {
        let obs = std::mem::take(&mut self.obs);
        let (trace, makespan) = self.finish();
        let report = obs.finish(&trace, graph);
        (trace, makespan, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;
    use crate::profiles::TimingProfile;
    use crate::scheduler::StaticView;

    #[test]
    fn dep_tracker_releases_cholesky_in_full() {
        let graph = TaskGraph::cholesky(4);
        let mut deps = DepTracker::new(&graph);
        assert_eq!(deps.initial_ready(), graph.entry_tasks());
        assert_eq!(deps.remaining(), graph.len());
        // Drain in topological order; count the ready transitions.
        let mut ready: Vec<TaskId> = deps.initial_ready();
        let mut seen = 0usize;
        while let Some(t) = ready.pop() {
            seen += 1;
            ready.extend(deps.release(&graph, t));
        }
        assert_eq!(seen, graph.len());
        assert!(deps.is_done());
    }

    #[test]
    fn dep_tracker_arena_tracks_phases_and_assignment() {
        let graph = TaskGraph::cholesky(3);
        let mut deps = DepTracker::new(&graph);
        let entry = graph.entry_tasks()[0];
        assert_eq!(deps.phase(entry), TaskPhase::Ready);
        assert_eq!(deps.assigned_worker(entry), None);
        let blocked = graph.exit_tasks()[0];
        assert_eq!(deps.phase(blocked), TaskPhase::Waiting);
        deps.note_queued(entry, 2);
        assert_eq!(deps.phase(entry), TaskPhase::Queued);
        assert_eq!(deps.assigned_worker(entry), Some(2));
        deps.note_started(entry);
        assert_eq!(deps.phase(entry), TaskPhase::Running);
        let mut scratch = Vec::new();
        deps.release_into(&graph, entry, &mut scratch);
        assert_eq!(deps.phase(entry), TaskPhase::Retired);
        // Every newly ready successor flipped to Ready in the arena.
        for &s in &scratch {
            assert_eq!(deps.phase(s), TaskPhase::Ready);
        }
    }

    #[test]
    #[should_panic(expected = "released twice")]
    fn dep_tracker_rejects_double_release() {
        let graph = TaskGraph::cholesky(2);
        let mut deps = DepTracker::new(&graph);
        let entry = graph.entry_tasks()[0];
        deps.release(&graph, entry);
        deps.release(&graph, entry);
    }

    #[test]
    #[should_panic(expected = "unsatisfied dependencies")]
    fn dep_tracker_rejects_premature_release() {
        let graph = TaskGraph::cholesky(2);
        let mut deps = DepTracker::new(&graph);
        let exit = graph.exit_tasks()[0];
        deps.release(&graph, exit);
    }

    #[test]
    fn sorted_queue_orders_by_priority_then_seq() {
        let mut q = WorkerQueues::new(1);
        let ms = Time::from_millis(1);
        q.enqueue(0, TaskId(0), 5, Time::ZERO, ms, true);
        q.enqueue(0, TaskId(1), 9, Time::ZERO, ms, true);
        q.enqueue(0, TaskId(2), 5, Time::ZERO, ms, true);
        q.enqueue(0, TaskId(3), 7, Time::ZERO, ms, true);
        let order: Vec<TaskId> =
            std::iter::from_fn(|| q.pop_startable(0, |_| true).map(|e| e.task)).collect();
        // 9 first, then 7, then the two 5s in enqueue order.
        assert_eq!(order, [TaskId(1), TaskId(3), TaskId(0), TaskId(2)]);
    }

    #[test]
    fn fifo_queue_preserves_enqueue_order() {
        let mut q = WorkerQueues::new(1);
        let ms = Time::from_millis(1);
        q.enqueue(0, TaskId(0), 5, Time::ZERO, ms, false);
        q.enqueue(0, TaskId(1), 9, Time::ZERO, ms, false);
        q.enqueue(0, TaskId(2), 1, Time::ZERO, ms, false);
        let order: Vec<TaskId> =
            std::iter::from_fn(|| q.pop_startable(0, |_| true).map(|e| e.task)).collect();
        assert_eq!(order, [TaskId(0), TaskId(1), TaskId(2)]);
    }

    /// Regression for the ring-buffer migration: against a model running
    /// the pre-refactor `Vec` insert/remove code verbatim, a long random
    /// mix of enqueues (with deliberate priority ties) and gated pops must
    /// yield the identical dequeue sequence, FIFO and sorted alike.
    #[test]
    fn ring_queue_order_matches_pre_refactor_vec_model() {
        // Tiny deterministic LCG; no RNG dependency in hetchol-core.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for sorted in [false, true] {
            let mut q = WorkerQueues::new(1);
            let mut model: Vec<QueueEntry> = Vec::new();
            let mut next_id = 0u32;
            let mut popped = Vec::new();
            let mut popped_model = Vec::new();
            for _ in 0..4000 {
                let r = next();
                if r % 3 < 2 {
                    // Enqueue; a 4-value priority range forces many ties,
                    // which must break by global seq.
                    let prio = ((r >> 8) % 4) as i64;
                    let task = TaskId(next_id);
                    next_id += 1;
                    let seq = q.enqueue(0, task, prio, Time::ZERO, Time::from_micros(1), sorted);
                    let entry = QueueEntry {
                        task,
                        prio,
                        seq,
                        data_ready: Time::ZERO,
                        exec_estimate: Time::from_micros(1),
                    };
                    if sorted {
                        let pos =
                            model.partition_point(|m| (-m.prio, m.seq) <= (-entry.prio, entry.seq));
                        model.insert(pos, entry);
                    } else {
                        model.push(entry);
                    }
                } else {
                    // Pop, sometimes through a gate that rejects every
                    // fifth task id (exercises the mid-ring removal path).
                    let gated = r % 2 == 0;
                    let admit = |t: TaskId| !gated || !t.0.is_multiple_of(5);
                    if let Some(e) = q.pop_startable(0, admit) {
                        popped.push(e.task);
                    }
                    if let Some(pos) = (0..model.len()).find(|&i| admit(model[i].task)) {
                        popped_model.push(model.remove(pos).task);
                    }
                }
            }
            while let Some(e) = q.pop_startable(0, |_| true) {
                popped.push(e.task);
            }
            while !model.is_empty() {
                popped_model.push(model.remove(0).task);
            }
            assert_eq!(popped, popped_model, "sorted={sorted}");
        }
    }

    #[test]
    fn availability_tracks_busy_and_queued_work() {
        let mut q = WorkerQueues::new(2);
        let now = Time::from_millis(10);
        assert_eq!(q.worker_available_at(0, now), now);
        q.enqueue(0, TaskId(0), 0, now, Time::from_millis(5), false);
        assert_eq!(q.worker_available_at(0, now), Time::from_millis(15));
        // Start the queued task: queued work moves into busy_until.
        let e = q.pop_startable(0, |_| true).unwrap();
        q.set_busy_until(0, now + e.exec_estimate);
        assert_eq!(q.worker_available_at(0, now), Time::from_millis(15));
        // A busy worker whose estimated end passed is available "now".
        let later = Time::from_millis(40);
        assert_eq!(q.worker_available_at(0, later), later);
        q.set_idle(0);
        assert!(!q.is_busy(0));
        // Worker 1 was never touched.
        assert_eq!(q.worker_available_at(1, now), now);
    }

    #[test]
    fn pop_startable_respects_gate() {
        let mut q = WorkerQueues::new(1);
        let ms = Time::from_millis(1);
        q.enqueue(0, TaskId(0), 0, Time::ZERO, ms, false);
        q.enqueue(0, TaskId(1), 0, Time::ZERO, ms, false);
        // Gate holds the head back: the second entry starts first.
        let e = q.pop_startable(0, |t| t != TaskId(0)).unwrap();
        assert_eq!(e.task, TaskId(1));
        // Everything gated: nothing starts, nothing is lost.
        assert!(q.pop_startable(0, |_| false).is_none());
        assert!(q.has_queued(0));
    }

    #[test]
    fn dispatch_assigns_and_enqueues() {
        struct ToWorkerOne;
        impl Scheduler for ToWorkerOne {
            fn name(&self) -> &str {
                "to-one"
            }
            fn assign(
                &mut self,
                _: TaskId,
                _: &SchedContext,
                view: &dyn ExecutionView,
            ) -> WorkerId {
                assert_eq!(view.transfer_estimate(TaskId(0), 0), Time::ZERO);
                1
            }
            fn priority(&self, task: TaskId, _: &SchedContext) -> i64 {
                task.0 as i64
            }
            fn sorted_queues(&self) -> bool {
                true
            }
        }
        let graph = TaskGraph::cholesky(2);
        let platform = Platform::homogeneous(2);
        let profile = TimingProfile::mirage_homogeneous();
        let ctx = SchedContext {
            graph: &graph,
            platform: &platform,
            profile: &profile,
        };
        let mut queues = WorkerQueues::new(2);
        let mut rec = TraceRecorder::new(2, graph.len());
        let entry = graph.entry_tasks()[0];
        let w = dispatch(
            entry,
            Time::ZERO,
            &ctx,
            &mut ToWorkerOne,
            &mut queues,
            &mut rec,
            &mut SingleNode,
        );
        assert_eq!(w, 1);
        assert!(queues.has_queued(1));
        assert!(!queues.has_queued(0));
        let e = q_pop(&mut queues, 1);
        assert_eq!(e.task, entry);
        assert_eq!(e.exec_estimate, profile.time(graph.task(entry).kernel(), 0));
        // The enqueue decision was logged with the queue's seq and prio.
        let (trace, _) = rec.finish();
        assert_eq!(trace.queue_events.len(), 1);
        let qe = trace.queue_events[0];
        assert_eq!(qe.worker, 1);
        assert_eq!(qe.task, entry);
        assert_eq!(qe.prio, entry.0 as i64);
        assert_eq!(qe.seq, 0);
    }

    fn q_pop(q: &mut WorkerQueues, w: WorkerId) -> QueueEntry {
        q.pop_startable(w, |_| true).expect("queued entry")
    }

    #[test]
    fn queue_view_freezes_availability() {
        let mut q = WorkerQueues::new(2);
        q.enqueue(0, TaskId(0), 0, Time::ZERO, Time::from_millis(3), false);
        let mut avail = Vec::new();
        q.fill_availability(Time::from_millis(2), &mut avail);
        let view = QueueView::with_availability(Time::from_millis(2), &avail, &SingleNode);
        assert_eq!(view.now(), Time::from_millis(2));
        assert_eq!(view.worker_available_at(0), Time::from_millis(5));
        assert_eq!(view.worker_available_at(1), Time::from_millis(2));
        // Same estimate the StaticView-based tests use.
        let stat = StaticView {
            now: Time::from_millis(2),
            available: vec![Time::from_millis(5), Time::from_millis(2)],
        };
        assert_eq!(stat.worker_available_at(0), view.worker_available_at(0));
    }

    #[test]
    fn trace_recorder_builds_trace() {
        let graph = TaskGraph::cholesky(2);
        let mut rec = TraceRecorder::new(2, graph.len());
        assert!(rec.is_empty());
        let t = graph.entry_tasks()[0];
        rec.record(&graph, 0, t, Time::ZERO, Time::from_millis(4));
        rec.record(
            &graph,
            1,
            TaskId(1),
            Time::from_millis(1),
            Time::from_millis(9),
        );
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.makespan(), Time::from_millis(9));
        rec.transfers_mut().push(TransferEvent {
            tile: crate::task::Tile { row: 0, col: 0 },
            from: 0,
            to: 1,
            start: Time::ZERO,
            end: Time::from_millis(1),
        });
        let (trace, makespan) = rec.finish();
        assert_eq!(makespan, Time::from_millis(9));
        assert_eq!(trace.n_workers, 2);
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.transfers.len(), 1);
    }
}
