//! The dynamic-scheduler interface shared by the simulator and the real
//! runtime.
//!
//! The interface mirrors StarPU's *push-model* scheduling: whenever a task's
//! dependencies are all satisfied, the engine calls [`Scheduler::assign`]
//! with the ready task and a read-only [`ExecutionView`] of the engine's
//! state (worker availability estimates, transfer estimates). The scheduler
//! answers with a worker; the engine appends the task to that worker's
//! queue, ordered FIFO or by [`Scheduler::priority`] depending on
//! [`Scheduler::sorted_queues`] (the `dmda` / `dmdas` distinction of the
//! paper, Section V-A).

use crate::dag::TaskGraph;
use crate::platform::{MemNode, Platform, WorkerId};
use crate::profiles::TimingProfile;
use crate::task::TaskId;
use crate::time::Time;

/// Everything a scheduler may consult about the problem instance.
#[derive(Copy, Clone)]
pub struct SchedContext<'a> {
    /// The task graph being executed.
    pub graph: &'a TaskGraph,
    /// The platform it executes on.
    pub platform: &'a Platform,
    /// Calibrated kernel timings.
    pub profile: &'a TimingProfile,
}

/// Read-only view of the engine state at scheduling time.
///
/// Both the discrete-event simulator and the real runtime implement this;
/// `dmda`-style completion-time heuristics are written once against it.
pub trait ExecutionView {
    /// Current (simulated or wall-clock) time.
    fn now(&self) -> Time;

    /// Estimate of the earliest time worker `w` could *start* a task
    /// appended to its queue now (current task's end plus queued work).
    fn worker_available_at(&self, w: WorkerId) -> Time;

    /// Estimated extra time to bring `task`'s missing input tiles to
    /// memory node `node` (zero when communications are disabled or all
    /// data is already resident). Keyed by node, not worker: every worker
    /// of a node shares the estimate, so a scan computes it once per node.
    fn transfer_estimate(&self, task: TaskId, node: MemNode) -> Time;

    /// The worker in `workers` minimising [`estimated_completion`], ties
    /// broken towards the lowest id (StarPU's deterministic iteration
    /// order). `None` iff `workers` is empty.
    ///
    /// Arithmetic and tie-breaking are identical to calling
    /// [`estimated_completion`] per worker under `min_by_key`; this exists
    /// as a trait default so that `dyn ExecutionView` callers cross the
    /// vtable once per *assignment* instead of twice per *worker* — the
    /// body is monomorphised against the concrete view, so the engine's
    /// transfer-estimate hook inlines into the scan (DESIGN.md §13). The
    /// per-task invariants (kernel, `now`) are hoisted out of the loop,
    /// and the kernel time and transfer estimate are recomputed only when
    /// the worker's class or memory node differs from the previous
    /// worker's: one tile walk per node, not per worker.
    fn min_completion_worker(
        &self,
        task: TaskId,
        ctx: &SchedContext,
        workers: std::ops::Range<WorkerId>,
    ) -> Option<WorkerId> {
        let kernel = ctx.graph.task(task).kernel();
        let now = self.now();
        let mut best: Option<(Time, WorkerId)> = None;
        // Workers are grouped by class and node, so one cached lookup of
        // each serves a contiguous run of workers.
        let mut exec = (usize::MAX, Time::ZERO);
        let mut transfer = (usize::MAX, Time::ZERO);
        for w in workers {
            let class = ctx.platform.class_of(w);
            if class != exec.0 {
                exec = (class, ctx.profile.time(kernel, class));
            }
            let node = ctx.platform.node_of(w);
            if node != transfer.0 {
                transfer = (node, self.transfer_estimate(task, node));
            }
            let avail = self.worker_available_at(w).max(now);
            let done = avail + transfer.1 + exec.1;
            if best.is_none_or(|(b, _)| done < b) {
                best = Some((done, w));
            }
        }
        best.map(|(_, w)| w)
    }
}

/// A dynamic scheduling policy.
pub trait Scheduler {
    /// Short policy name used in reports ("dmda", "random", ...).
    fn name(&self) -> &str;

    /// Called once before execution starts; the default does nothing.
    fn init(&mut self, _ctx: &SchedContext) {}

    /// Choose a worker for a task that just became ready.
    fn assign(&mut self, task: TaskId, ctx: &SchedContext, view: &dyn ExecutionView) -> WorkerId;

    /// Priority used to order tasks within a worker queue when
    /// [`Scheduler::sorted_queues`] is `true`; higher runs earlier.
    /// The default gives every task equal priority (FIFO behaviour).
    fn priority(&self, _task: TaskId, _ctx: &SchedContext) -> i64 {
        0
    }

    /// Whether worker queues are kept sorted by [`Scheduler::priority`]
    /// (`dmdas`) instead of FIFO (`dmda`).
    fn sorted_queues(&self) -> bool {
        false
    }

    /// Gate called by the engine before starting a queued task on a
    /// worker. Returning `false` makes the worker *wait* even though the
    /// task is ready — schedule injection uses this to enforce an exact
    /// per-worker order (a worker holds for its planned-next task instead
    /// of backfilling). The default never blocks.
    fn may_start(&mut self, _task: TaskId, _worker: WorkerId) -> bool {
        true
    }

    /// Notification that the engine started `task` on `worker`; the
    /// default does nothing. Injectors advance their per-worker cursor
    /// here.
    fn notify_start(&mut self, _task: TaskId, _worker: WorkerId) {}
}

/// Estimated completion time of `task` on worker `w`: the `dmda` quantity
/// (paper Section V-A): queue availability, plus required data-transfer
/// time, plus execution time on the worker's class.
pub fn estimated_completion(
    task: TaskId,
    w: WorkerId,
    ctx: &SchedContext,
    view: &dyn ExecutionView,
) -> Time {
    let class = ctx.platform.class_of(w);
    let exec = ctx.profile.time(ctx.graph.task(task).kernel(), class);
    let avail = view.worker_available_at(w).max(view.now());
    avail + view.transfer_estimate(task, ctx.platform.node_of(w)) + exec
}

/// A trivial [`ExecutionView`] for unit tests and static list scheduling:
/// fixed availability per worker, no transfers.
#[derive(Clone, Debug, Default)]
pub struct StaticView {
    /// Current time.
    pub now: Time,
    /// Per-worker availability.
    pub available: Vec<Time>,
}

impl ExecutionView for StaticView {
    fn now(&self) -> Time {
        self.now
    }
    fn worker_available_at(&self, w: WorkerId) -> Time {
        self.available.get(w).copied().unwrap_or(Time::ZERO)
    }
    fn transfer_estimate(&self, _task: TaskId, _node: MemNode) -> Time {
        Time::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Kernel;

    struct FirstWorker;
    impl Scheduler for FirstWorker {
        fn name(&self) -> &str {
            "first"
        }
        fn assign(&mut self, _: TaskId, _: &SchedContext, _: &dyn ExecutionView) -> WorkerId {
            0
        }
    }

    #[test]
    fn estimated_completion_combines_terms() {
        let graph = TaskGraph::cholesky(2);
        let platform = Platform::mirage();
        let profile = TimingProfile::mirage();
        let ctx = SchedContext {
            graph: &graph,
            platform: &platform,
            profile: &profile,
        };
        let view = StaticView {
            now: Time::from_millis(5),
            available: vec![Time::from_millis(100); 12],
        };
        let potrf = graph.entry_tasks()[0];
        // CPU worker 0: available 100 ms + POTRF 59 ms.
        let got = estimated_completion(potrf, 0, &ctx, &view);
        assert_eq!(got, Time::from_millis(159));
        // GPU worker 9: available 100 ms + POTRF 29.5 ms.
        let got = estimated_completion(potrf, 9, &ctx, &view);
        assert_eq!(got, Time::from_millis(100) + profile.time(Kernel::Potrf, 1));
    }

    #[test]
    fn availability_clamped_to_now() {
        let graph = TaskGraph::cholesky(2);
        let platform = Platform::homogeneous(1);
        let profile = TimingProfile::mirage_homogeneous();
        let ctx = SchedContext {
            graph: &graph,
            platform: &platform,
            profile: &profile,
        };
        // Worker idle since t=0, but now is 50 ms: the task cannot start in
        // the past.
        let view = StaticView {
            now: Time::from_millis(50),
            available: vec![Time::ZERO],
        };
        let potrf = graph.entry_tasks()[0];
        assert_eq!(
            estimated_completion(potrf, 0, &ctx, &view),
            Time::from_millis(109)
        );
    }

    #[test]
    fn default_hooks() {
        let graph = TaskGraph::cholesky(2);
        let platform = Platform::homogeneous(1);
        let profile = TimingProfile::mirage_homogeneous();
        let ctx = SchedContext {
            graph: &graph,
            platform: &platform,
            profile: &profile,
        };
        let mut s = FirstWorker;
        s.init(&ctx);
        assert_eq!(s.priority(TaskId(0), &ctx), 0);
        assert!(!s.sorted_queues());
        assert_eq!(s.assign(TaskId(0), &ctx, &StaticView::default()), 0);
    }
}
