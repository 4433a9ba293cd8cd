//! Property tests for the execution core: on random factorization DAGs,
//! driven in arbitrary ready-set orders, the dependency tracker releases
//! every task exactly once and never before all of its predecessors; the
//! completion-time scan picks exactly the worker its definition picks;
//! and the worker queues' idle-with-work set agrees with a linear scan.

use hetchol_core::dag::TaskGraph;
use hetchol_core::exec::{DepTracker, WorkerQueues};
use hetchol_core::platform::{MemNode, Platform, WorkerId};
use hetchol_core::profiles::TimingProfile;
use hetchol_core::scheduler::{estimated_completion, ExecutionView, SchedContext};
use hetchol_core::task::TaskId;
use hetchol_core::time::Time;
use proptest::prelude::*;

/// Drain the tracker with an adversarial ready-pick policy: at each step
/// pick the `(seed + step)`-th ready task (mod ready-set size), so many
/// different valid topological executions are exercised across cases.
fn drain(graph: &TaskGraph, seed: u64) -> Result<Vec<TaskId>, String> {
    let mut deps = DepTracker::new(graph);
    let mut ready = deps.initial_ready();
    let mut order = Vec::with_capacity(graph.len());
    let mut done = vec![false; graph.len()];
    let mut step = seed;
    while let Some(&task) = {
        let len = ready.len();
        (len > 0).then(|| &ready[(step as usize) % len])
    } {
        ready.swap_remove((step as usize) % ready.len());
        step = step.wrapping_add(1);
        // Precedence: every predecessor must already have executed.
        for &p in graph.predecessors(task) {
            if !done[p.index()] {
                return Err(format!("{task:?} released before predecessor {p:?}"));
            }
        }
        if done[task.index()] {
            return Err(format!("{task:?} released twice"));
        }
        done[task.index()] = true;
        order.push(task);
        ready.extend(deps.release(graph, task));
    }
    if !deps.is_done() {
        return Err(format!("{} tasks never became ready", deps.remaining()));
    }
    Ok(order)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exactly-once release + precedence, over Cholesky/LU/QR DAGs of
    /// varying size and arbitrary ready-pick orders.
    #[test]
    fn every_task_released_exactly_once_respecting_preds(
        n in 1usize..7,
        algo in 0u8..3,
        seed in 0u64..1_000_000,
    ) {
        let graph = match algo {
            0 => TaskGraph::cholesky(n),
            1 => TaskGraph::lu(n),
            _ => TaskGraph::qr(n),
        };
        let order = drain(&graph, seed).map_err(|e| e.to_string())?;
        prop_assert_eq!(order.len(), graph.len());
    }

    /// The initial ready set is exactly the indegree-zero tasks.
    #[test]
    fn initial_ready_is_the_indegree_zero_set(n in 1usize..8) {
        let graph = TaskGraph::cholesky(n);
        let deps = DepTracker::new(&graph);
        let mut ready = deps.initial_ready();
        ready.sort();
        let mut expect: Vec<TaskId> = graph
            .indegrees()
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d == 0)
            .map(|(i, _)| TaskId(i as u32))
            .collect();
        expect.sort();
        prop_assert_eq!(ready, expect);
    }

    /// Releasing in two different valid orders completes the same task set
    /// (the tracker carries no order-dependent state across runs).
    #[test]
    fn any_valid_order_drains_the_whole_graph(n in 1usize..6, seed in 0u64..1_000_000) {
        let graph = TaskGraph::cholesky(n);
        let mut a = drain(&graph, seed).map_err(|e| e.to_string())?;
        let mut b = drain(&graph, seed.wrapping_add(1)).map_err(|e| e.to_string())?;
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }
}

/// SplitMix64 step: the properties below draw their many small choices
/// from one sampled seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An [`ExecutionView`] with random per-worker availabilities and a
/// random transfer estimate per (task, memory node), each drawn from a
/// handful of values so that completion times tie often.
struct RandomView {
    now: Time,
    avail: Vec<Time>,
    /// `transfer[task * n_nodes + node]`.
    transfer: Vec<Time>,
    n_nodes: usize,
}

impl RandomView {
    fn new(graph: &TaskGraph, platform: &Platform, seed: u64) -> RandomView {
        let mut state = seed;
        let mut pick = |values: &[u64]| {
            Time::from_millis(values[(splitmix(&mut state) % values.len() as u64) as usize])
        };
        let now = pick(&[0, 5, 10]);
        let avail = platform.workers().map(|_| pick(&[0, 5, 10, 20])).collect();
        let transfer = (0..graph.len() * platform.n_nodes())
            .map(|_| pick(&[0, 1, 5]))
            .collect();
        RandomView {
            now,
            avail,
            transfer,
            n_nodes: platform.n_nodes(),
        }
    }
}

impl ExecutionView for RandomView {
    fn now(&self) -> Time {
        self.now
    }
    fn worker_available_at(&self, w: WorkerId) -> Time {
        self.avail[w]
    }
    fn transfer_estimate(&self, task: TaskId, node: MemNode) -> Time {
        self.transfer[task.index() * self.n_nodes + node]
    }
}

/// What [`WorkerQueues::next_idle_with_work`] must answer, by a linear
/// scan of a model kept beside the queues: for each start index, the
/// lowest worker at or after it that is idle with a nonempty queue.
fn model_next(busy: &[bool], depth: &[usize]) -> Vec<Option<WorkerId>> {
    let n = busy.len();
    (0..=n)
        .map(|from| (from..n).find(|&w| !busy[w] && depth[w] > 0))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The scan (one transfer estimate per memory node, one kernel time
    /// per class) picks the same worker as the per-worker definition
    /// under `min_by_key` with ties to the lowest id, for every task of a
    /// small Cholesky, over all workers and over each class.
    #[test]
    fn scan_matches_its_definition(seed in 0u64..u64::MAX) {
        let graph = TaskGraph::cholesky(5);
        let mirage = Platform::mirage();
        for (platform, profile) in [
            (mirage.clone(), TimingProfile::mirage()),
            (mirage.without_comm(), TimingProfile::mirage()),
            (Platform::homogeneous(3), TimingProfile::mirage_homogeneous()),
        ] {
            let ctx = SchedContext {
                graph: &graph,
                platform: &platform,
                profile: &profile,
            };
            let view = RandomView::new(&graph, &platform, seed);
            let mut ranges = vec![platform.workers()];
            ranges.extend((0..platform.n_classes()).map(|c| platform.workers_in_class(c)));
            for task in graph.tasks().iter().map(|t| t.id) {
                for range in &ranges {
                    let expect = range
                        .clone()
                        .min_by_key(|&w| (estimated_completion(task, w, &ctx, &view), w));
                    prop_assert_eq!(
                        view.min_completion_worker(task, &ctx, range.clone()),
                        expect,
                        "task {:?} over {:?}",
                        task,
                        range
                    );
                }
            }
        }
    }

    /// Random enqueues, gated pops, busy/idle flips and drains: after
    /// every operation, at every start index, the idle-with-work query
    /// agrees with a linear scan of a model — including at the 64-worker
    /// word boundaries.
    #[test]
    fn idle_with_work_matches_a_linear_scan(seed in 0u64..u64::MAX) {
        let mut state = seed;
        for n in [1usize, 12, 64, 65, 130] {
            let mut q = WorkerQueues::new(n);
            let mut busy = vec![false; n];
            let mut depth = vec![0usize; n];
            for step in 0..300u32 {
                let r = splitmix(&mut state);
                let w = (r % n as u64) as usize;
                match (r >> 32) % 20 {
                    // Enqueue, FIFO or sorted, with tied priorities.
                    0..=6 => {
                        let prio = ((r >> 40) % 3) as i64;
                        let sorted = (r >> 44) & 1 == 1;
                        q.enqueue(w, TaskId(step), prio, Time::ZERO, Time::from_micros(1), sorted);
                        depth[w] += 1;
                    }
                    // Pop through a gate: admit all, every other id, or
                    // none (a held worker keeps its queue and its bit).
                    7..=11 => {
                        let gate = (r >> 40) % 3;
                        let admit = |t: TaskId| match gate {
                            0 => true,
                            1 => t.0.is_multiple_of(2),
                            _ => false,
                        };
                        if q.pop_startable(w, admit).is_some() {
                            depth[w] -= 1;
                        }
                    }
                    12..=14 => {
                        q.set_busy_until(w, Time::from_micros(u64::from(step)));
                        busy[w] = true;
                    }
                    15..=17 => {
                        q.set_idle(w);
                        busy[w] = false;
                    }
                    _ => {
                        prop_assert_eq!(q.drain_worker(w).len(), depth[w]);
                        depth[w] = 0;
                    }
                }
                for v in 0..n {
                    prop_assert_eq!(q.is_busy(v), busy[v]);
                    prop_assert_eq!(q.depth(v), depth[v]);
                }
                let got: Vec<Option<WorkerId>> =
                    (0..=n).map(|from| q.next_idle_with_work(from)).collect();
                prop_assert_eq!(got, model_next(&busy, &depth), "n={} step {}", n, step);
            }
        }
    }
}
