//! Execution traces: per-worker task timelines and transfer logs.
//!
//! The paper diagnoses scheduler behaviour from traces (Figure 12: GPU
//! Gantt charts of `dmda` vs `dmdas` at 8 × 8 tiles, showing the idle time
//! the HEFT-style policy introduces on GPUs). This module provides the
//! trace container, busy/idle accounting, conversion to a [`Schedule`] for
//! validation, an ASCII Gantt renderer, and the per-task phase spans
//! ([`Trace::spans`]) that the observability report and the linter both
//! read.

use crate::fault::FaultEvent;
use crate::kernel::Kernel;
use crate::obs::TaskSpan;
use crate::platform::{MemNode, Platform, WorkerId};
use crate::schedule::{Schedule, ScheduleEntry};
use crate::task::{TaskId, Tile};
use crate::time::Time;
use std::fmt::Write as _;

/// One executed task occurrence.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Worker that ran the task.
    pub worker: WorkerId,
    /// The task.
    pub task: TaskId,
    /// Its kernel (denormalised for painless plotting).
    pub kernel: Kernel,
    /// Execution start.
    pub start: Time,
    /// Execution end.
    pub end: Time,
}

/// One tile transfer between memory nodes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TransferEvent {
    /// The tile moved.
    pub tile: Tile,
    /// Source memory node.
    pub from: MemNode,
    /// Destination memory node.
    pub to: MemNode,
    /// Transfer start.
    pub start: Time,
    /// Transfer end.
    pub end: Time,
}

/// One task being pushed into a worker queue by the dispatcher.
///
/// Queue events carry the scheduler's `prio` and the global enqueue `seq`
/// that [`crate::exec::WorkerQueues`] used, so post-hoc analysis (the
/// `hetchol-analyze` linter) can audit queue discipline — e.g. detect a
/// priority inversion on a `dmdas` sorted queue — without re-running the
/// engine.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct QueueEvent {
    /// Worker whose queue received the task.
    pub worker: WorkerId,
    /// The enqueued task.
    pub task: TaskId,
    /// Scheduler priority at enqueue time.
    pub prio: i64,
    /// Global enqueue sequence number (engine-wide, monotonically
    /// increasing across all workers).
    pub seq: u64,
    /// Time the dispatcher pushed the task.
    pub at: Time,
    /// When the task's inputs were (estimated) resident at the worker.
    pub data_ready: Time,
}

/// A complete execution trace.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Number of workers on the platform the trace was recorded on.
    pub n_workers: usize,
    /// Task executions, in completion order.
    pub events: Vec<TraceEvent>,
    /// Tile transfers, in completion order.
    pub transfers: Vec<TransferEvent>,
    /// Dispatcher enqueue events, in `seq` order.
    pub queue_events: Vec<QueueEvent>,
    /// Fault-injection/recovery events (worker deaths, failed attempts,
    /// retries, aborts), empty for fault-free runs. Linter rule 17 audits
    /// [`Trace::events`] against this log.
    pub fault_events: Vec<FaultEvent>,
}

impl Trace {
    /// Completion time of the last event (tasks and transfers).
    pub fn makespan(&self) -> Time {
        let t = self
            .events
            .iter()
            .map(|e| e.end)
            .max()
            .unwrap_or(Time::ZERO);
        let x = self
            .transfers
            .iter()
            .map(|e| e.end)
            .max()
            .unwrap_or(Time::ZERO);
        t.max(x)
    }

    /// Total busy time of a worker.
    pub fn busy_time(&self, worker: WorkerId) -> Time {
        self.events
            .iter()
            .filter(|e| e.worker == worker)
            .map(|e| e.end - e.start)
            .sum()
    }

    /// Idle time of a worker over the whole makespan.
    pub fn idle_time(&self, worker: WorkerId) -> Time {
        self.makespan().saturating_sub(self.busy_time(worker))
    }

    /// Sum of busy times over all workers.
    pub fn total_busy(&self) -> Time {
        self.events.iter().map(|e| e.end - e.start).sum()
    }

    /// Events of one worker, sorted by start time.
    pub fn worker_events(&self, worker: WorkerId) -> Vec<TraceEvent> {
        let mut evs: Vec<TraceEvent> = self
            .events
            .iter()
            .copied()
            .filter(|e| e.worker == worker)
            .collect();
        evs.sort_by_key(|e| e.start);
        evs
    }

    /// Busy time split by kernel for one worker, indexed by
    /// [`Kernel::index`].
    pub fn busy_by_kernel(&self, worker: WorkerId) -> [Time; Kernel::COUNT] {
        let mut acc = [Time::ZERO; Kernel::COUNT];
        for e in self.events.iter().filter(|e| e.worker == worker) {
            acc[e.kernel.index()] += e.end - e.start;
        }
        acc
    }

    /// One [`TaskSpan`] per executed task, sorted by `(start, seq)`: the
    /// task's execution joined with its *last* enqueue. A retried or
    /// re-queued task is enqueued more than once, and only the last
    /// enqueue led to the execution. A task executed without any enqueue
    /// (a hand-built trace) gets an exec-only span: `queued` and
    /// `data_ready` at its start, `prio` and `seq` zero.
    pub fn spans(&self) -> Vec<TaskSpan> {
        let n_tasks = self
            .events
            .iter()
            .map(|e| e.task.index() + 1)
            .max()
            .unwrap_or(0);
        let mut last_enqueue: Vec<Option<&QueueEvent>> = vec![None; n_tasks];
        for q in &self.queue_events {
            if let Some(slot) = last_enqueue.get_mut(q.task.index()) {
                *slot = Some(q);
            }
        }
        let mut spans: Vec<TaskSpan> = self
            .events
            .iter()
            .map(|e| {
                let (prio, seq, queued, data_ready) = match last_enqueue[e.task.index()] {
                    Some(q) => (q.prio, q.seq, q.at, q.data_ready),
                    None => (0, 0, e.start, e.start),
                };
                TaskSpan {
                    task: e.task,
                    kernel: e.kernel,
                    worker: e.worker,
                    prio,
                    seq,
                    queued,
                    data_ready,
                    start: e.start,
                    end: e.end,
                }
            })
            .collect();
        // The task id breaks ties between exec-only spans (all `seq` 0).
        spans.sort_unstable_by_key(|s| (s.start, s.seq, s.task));
        spans
    }

    /// Convert to a [`Schedule`] so the common validator can referee it.
    pub fn to_schedule(&self) -> Schedule {
        Schedule::from_entries(
            self.events
                .iter()
                .map(|e| ScheduleEntry {
                    task: e.task,
                    worker: e.worker,
                    start: e.start,
                    end: e.end,
                })
                .collect(),
        )
    }

    /// Render an ASCII Gantt chart, one row per worker, `width` characters
    /// spanning the makespan. Tasks are drawn with their kernel's initial
    /// (`P`/`T`/`S`/`G`); idle time is `.`.
    ///
    /// This is the textual analogue of the paper's Figure 12.
    pub fn gantt_ascii(&self, platform: &Platform, width: usize) -> String {
        let mut out = String::new();
        let span = self.makespan();
        if span.is_zero() || width == 0 {
            return out;
        }
        let span_ns = span.as_nanos() as f64;
        for w in 0..self.n_workers {
            let name = platform.worker_name(w);
            let mut row = vec!['.'; width];
            for e in self.worker_events(w) {
                let a = ((e.start.as_nanos() as f64 / span_ns) * width as f64).floor() as usize;
                let b = ((e.end.as_nanos() as f64 / span_ns) * width as f64).ceil() as usize;
                let glyph = match e.kernel {
                    Kernel::Potrf => 'P',
                    Kernel::Trsm => 'T',
                    Kernel::Syrk => 'S',
                    Kernel::Gemm => 'G',
                    Kernel::Getrf => 'F',
                    Kernel::Geqrt => 'Q',
                    Kernel::Tsqrt => 'q',
                    Kernel::Ormqr => 'O',
                    Kernel::Tsmqr => 'M',
                };
                for cell in row.iter_mut().take(b.min(width)).skip(a.min(width)) {
                    *cell = glyph;
                }
            }
            let _ = writeln!(out, "{name:>6} |{}|", row.into_iter().collect::<String>());
        }
        let _ = writeln!(
            out,
            "{:>6}  0{:>width$}",
            "",
            format!("{span}"),
            width = width
        );
        out
    }

    /// Fraction of the makespan the given workers spend idle, averaged —
    /// the quantity Figure 12 makes visible.
    pub fn idle_fraction(&self, workers: impl Iterator<Item = WorkerId>) -> f64 {
        let span = self.makespan();
        if span.is_zero() {
            return 0.0;
        }
        let (mut total_idle, mut count) = (0.0f64, 0usize);
        for w in workers {
            total_idle += self.idle_time(w).as_secs_f64();
            count += 1;
        }
        if count == 0 {
            return 0.0;
        }
        total_idle / (count as f64 * span.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_trace() -> Trace {
        Trace {
            n_workers: 2,
            events: vec![
                TraceEvent {
                    worker: 0,
                    task: TaskId(0),
                    kernel: Kernel::Potrf,
                    start: Time::ZERO,
                    end: Time::from_millis(10),
                },
                TraceEvent {
                    worker: 1,
                    task: TaskId(1),
                    kernel: Kernel::Gemm,
                    start: Time::from_millis(10),
                    end: Time::from_millis(40),
                },
                TraceEvent {
                    worker: 0,
                    task: TaskId(2),
                    kernel: Kernel::Syrk,
                    start: Time::from_millis(20),
                    end: Time::from_millis(30),
                },
            ],
            transfers: vec![TransferEvent {
                tile: Tile::new(1, 0),
                from: 0,
                to: 1,
                start: Time::ZERO,
                end: Time::from_millis(2),
            }],
            queue_events: Vec::new(),
            fault_events: Vec::new(),
        }
    }

    #[test]
    fn busy_idle_accounting() {
        let t = demo_trace();
        assert_eq!(t.makespan(), Time::from_millis(40));
        assert_eq!(t.busy_time(0), Time::from_millis(20));
        assert_eq!(t.idle_time(0), Time::from_millis(20));
        assert_eq!(t.busy_time(1), Time::from_millis(30));
        assert_eq!(t.total_busy(), Time::from_millis(50));
        // busy + idle == makespan for every worker
        for w in 0..2 {
            assert_eq!(t.busy_time(w) + t.idle_time(w), t.makespan());
        }
    }

    #[test]
    fn busy_by_kernel_partitions_busy_time() {
        let t = demo_trace();
        let by_k = t.busy_by_kernel(0);
        assert_eq!(by_k[Kernel::Potrf.index()], Time::from_millis(10));
        assert_eq!(by_k[Kernel::Syrk.index()], Time::from_millis(10));
        assert_eq!(by_k.iter().copied().sum::<Time>(), t.busy_time(0));
    }

    #[test]
    fn worker_events_sorted() {
        let t = demo_trace();
        let evs = t.worker_events(0);
        assert_eq!(evs.len(), 2);
        assert!(evs[0].start <= evs[1].start);
    }

    #[test]
    fn idle_fraction_bounds() {
        let t = demo_trace();
        let f = t.idle_fraction(0..2);
        assert!((0.0..=1.0).contains(&f));
        // worker 0 idle 20/40, worker 1 idle 10/40 -> average 0.375
        assert!((f - 0.375).abs() < 1e-9);
        assert_eq!(Trace::default().idle_fraction(0..2), 0.0);
    }

    #[test]
    fn gantt_renders_rows() {
        let t = demo_trace();
        let p = Platform::homogeneous(2);
        let g = t.gantt_ascii(&p, 40);
        assert!(g.contains("CPU0"));
        assert!(g.contains("CPU1"));
        assert!(g.contains('P'));
        assert!(g.contains('G'));
        assert!(g.contains('.'));
        assert!(t.gantt_ascii(&p, 0).is_empty());
    }

    #[test]
    fn spans_join_each_execution_with_its_last_enqueue() {
        let mut t = demo_trace();
        let enqueue = |task: u32, seq: u64, at: u64| QueueEvent {
            worker: 0,
            task: TaskId(task),
            prio: seq as i64,
            seq,
            at: Time::from_millis(at),
            data_ready: Time::from_millis(at + 1),
        };
        // Task 2 was enqueued twice (a retry); task 1 never was.
        t.queue_events = vec![enqueue(0, 0, 0), enqueue(2, 1, 5), enqueue(2, 2, 12)];
        let spans = t.spans();
        assert_eq!(
            spans.iter().map(|s| s.task).collect::<Vec<_>>(),
            [TaskId(0), TaskId(1), TaskId(2)]
        );
        let retried = spans[2];
        assert_eq!((retried.seq, retried.prio), (2, 2));
        assert_eq!(retried.queued, Time::from_millis(12));
        assert_eq!(retried.data_ready, Time::from_millis(13));
        assert_eq!(
            (retried.start, retried.end),
            (t.events[2].start, t.events[2].end)
        );
        let exec_only = spans[1];
        assert_eq!((exec_only.seq, exec_only.prio), (0, 0));
        assert_eq!(exec_only.queued, exec_only.start);
        assert_eq!(exec_only.data_ready, exec_only.start);
        assert_eq!(exec_only.worker, 1);
    }

    #[test]
    fn to_schedule_preserves_timing() {
        let t = demo_trace();
        let s = t.to_schedule();
        assert_eq!(s.len(), 3);
        assert_eq!(s.makespan(), Time::from_millis(40));
        assert_eq!(s.entry(TaskId(1)).unwrap().worker, 1);
    }

    #[test]
    fn makespan_includes_transfers() {
        let mut t = demo_trace();
        t.transfers[0].end = Time::from_millis(100);
        assert_eq!(t.makespan(), Time::from_millis(100));
    }
}
