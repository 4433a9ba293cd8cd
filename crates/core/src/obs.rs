//! Structured observability: per-task phase spans, engine counters, and
//! exporters (Chrome trace JSON, per-worker utilization report, summary).
//!
//! The paper's whole diagnostic method is trace-driven — Figure 12's
//! per-worker Gantt views are what reveal *why* `dmda`/`dmdas` leave GPU
//! idle time. The plain [`crate::trace::Trace`] records *what executed
//! when*; this module explains *why the rest of the time was lost*: for
//! every task a [`TaskSpan`] with its phase segments
//! (submitted → queued → data-transfer → executing → retired), and a
//! lock-cheap counter registry ([`ObsCounters`]: dispatches per
//! kernel × worker, queue depths, backfill pops, condvar wakeups, transfer
//! totals, fault counts).
//!
//! The trace is the one record the engines write. The [`ObsReport`] is
//! derived from it when the run finishes
//! ([`crate::exec::TraceRecorder::finish_with_obs`]): each execution is
//! joined with its last enqueue ([`crate::trace::Trace::spans`], which the
//! linter reads too), and the counters and fault lists are read off the
//! trace's queue, transfer and fault logs. The simulator and the threaded
//! runtime therefore cannot drift apart in what they report, and the
//! report cannot drift from the trace. The [`ObsSink`] records only the
//! three gauges the trace cannot reconstruct.
//!
//! Observability is **zero-cost when disabled**: an [`ObsSink`] is either
//! a no-op (`ObsSink::disabled()`, the default — one branch per hook) or
//! an owned gauge registry (`ObsSink::enabled()`), selected once at run
//! construction.

use crate::dag::TaskGraph;
use crate::fault::FaultEventKind;
use crate::json::{escape_into, parse_json, JsonValue};
use crate::kernel::Kernel;
use crate::platform::WorkerId;
use crate::task::TaskId;
use crate::time::Time;
use crate::trace::Trace;
use std::fmt::Write as _;

/// One task's life cycle through the engine, as phase timestamps.
///
/// The phases partition the span's wall interval `[queued, end)`:
///
/// * **submitted / queued** at `queued` — in both engines a task is pushed
///   through the dispatcher the moment its last dependency retires, so
///   submission and enqueue coincide;
/// * **data transfer** over `[queued, min(data_ready, start))` — the
///   prefetch of missing input tiles (empty on the shared-memory runtime);
/// * **queue wait** over the rest of `[queued, start)` — the task sat
///   startable in its worker's queue;
/// * **executing** over `[start, end)`;
/// * **retired** at `end`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TaskSpan {
    /// The task.
    pub task: TaskId,
    /// Its kernel (denormalised, like [`crate::trace::TraceEvent`]).
    pub kernel: Kernel,
    /// Worker that ran it.
    pub worker: WorkerId,
    /// Scheduler priority at enqueue time.
    pub prio: i64,
    /// Global enqueue sequence number.
    pub seq: u64,
    /// Dispatch/enqueue instant (== submission instant, see above).
    pub queued: Time,
    /// When the task's inputs were (estimated) resident at the worker.
    pub data_ready: Time,
    /// Execution start.
    pub start: Time,
    /// Execution end (retirement).
    pub end: Time,
}

impl TaskSpan {
    /// Duration of the data-transfer segment `[queued, min(data_ready, start))`.
    pub fn transfer_wait(&self) -> Time {
        self.data_ready.min(self.start).saturating_sub(self.queued)
    }

    /// Duration of the queue-wait segment (time startable but not started).
    pub fn queue_wait(&self) -> Time {
        self.start
            .saturating_sub(self.queued)
            .saturating_sub(self.transfer_wait())
    }

    /// Duration of the executing segment.
    pub fn exec(&self) -> Time {
        self.end.saturating_sub(self.start)
    }
}

/// The lock-cheap counter/gauge registry.
///
/// The three gauges the trace cannot reconstruct (`max_queue_depth`,
/// `backfills`, `wakeups`) are plain integers the [`ObsSink`] hooks bump
/// while the caller already holds whatever synchronisation the engine
/// uses (the simulator is single threaded; the runtime's hooks all run
/// under its one state lock), so recording never adds a lock acquisition
/// of its own. Every other counter is derived from the trace at finish.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ObsCounters {
    /// Tasks dispatched per worker × kernel, flattened as
    /// `worker * Kernel::COUNT + kernel.index()`.
    pub dispatched: Vec<u64>,
    /// High-water queue depth per worker (gauge, sampled at every enqueue).
    pub max_queue_depth: Vec<u64>,
    /// Pops that bypassed a gated queue head per worker (the backfill /
    /// out-of-head-order starts that schedule injection permits).
    pub backfills: Vec<u64>,
    /// Condvar wakeups per worker (threaded runtime only; zero in the
    /// simulator, which has no parked threads).
    pub wakeups: Vec<u64>,
    /// Number of tile transfers performed.
    pub transfers: u64,
    /// Total wall/virtual time spent in transfers.
    pub transfer_time: Time,
    /// Failed task attempts (injected or watchdog-converted), resilient
    /// runs only.
    pub failures: u64,
    /// Attempts re-dispatched after a failure.
    pub retries: u64,
    /// Workers permanently lost during the run.
    pub workers_lost: u64,
}

impl ObsCounters {
    fn sized(n_workers: usize) -> ObsCounters {
        ObsCounters {
            dispatched: vec![0; n_workers * Kernel::COUNT],
            max_queue_depth: vec![0; n_workers],
            backfills: vec![0; n_workers],
            wakeups: vec![0; n_workers],
            ..ObsCounters::default()
        }
    }

    /// Tasks dispatched to `worker` with kernel `k`.
    pub fn dispatched(&self, worker: WorkerId, k: Kernel) -> u64 {
        self.dispatched
            .get(worker * Kernel::COUNT + k.index())
            .copied()
            .unwrap_or(0)
    }

    /// Total tasks dispatched across all workers and kernels.
    pub fn total_dispatched(&self) -> u64 {
        self.dispatched.iter().sum()
    }
}

/// One failed task attempt, read from the trace's fault log — rendered as
/// a `[retrying]` slice in the Chrome trace.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FailedAttempt {
    /// The task whose attempt failed.
    pub task: TaskId,
    /// Its kernel.
    pub kernel: Kernel,
    /// Worker that owned the attempt.
    pub worker: WorkerId,
    /// Attempt start (== end for attempts that never occupied the worker).
    pub start: Time,
    /// When the failure was recorded.
    pub end: Time,
    /// 1-based attempt number.
    pub attempt: u32,
    /// Failure-kind label ([`FaultKind::label`](crate::fault::FaultKind::label):
    /// `transient` / `numerical` / `timeout` / `worker-lost`).
    pub kind: &'static str,
}

/// The observability sink both engines feed through the shared execution
/// core. It holds only the three gauges a [`Trace`] cannot reconstruct —
/// queue depth sampled at each enqueue, backfill pops and condvar
/// wakeups; everything else in the [`ObsReport`] is derived from the trace
/// when the run finishes. Either a no-op ([`ObsSink::disabled`], the
/// default) or an owned counter registry ([`ObsSink::enabled`]); the
/// choice is made once, at run construction, so the disabled path costs
/// one branch per hook and allocates nothing.
#[derive(Debug, Default)]
pub struct ObsSink(Option<Box<ObsCounters>>);

impl ObsSink {
    /// The no-op sink: every hook is a single `None` check.
    pub fn disabled() -> ObsSink {
        ObsSink(None)
    }

    /// A recording sink. Sized lazily by the engine's trace recorder.
    pub fn enabled() -> ObsSink {
        ObsSink(Some(Box::default()))
    }

    /// Whether this sink records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Size the gauges for the run (called by the trace recorder).
    pub(crate) fn prepare(&mut self, n_workers: usize) {
        if let Some(c) = &mut self.0 {
            **c = ObsCounters::sized(n_workers);
        }
    }

    /// Sample `worker`'s queue depth right after an enqueue (called by
    /// [`crate::exec::dispatch`]).
    #[inline]
    pub fn sample_queue_depth(&mut self, worker: WorkerId, depth: usize) {
        if let Some(c) = &mut self.0 {
            if let Some(d) = c.max_queue_depth.get_mut(worker) {
                *d = (*d).max(depth as u64);
            }
        }
    }

    /// Count one condvar wakeup of `worker` (threaded runtime).
    #[inline]
    pub fn count_wakeup(&mut self, worker: WorkerId) {
        if let Some(c) = &mut self.0 {
            if let Some(w) = c.wakeups.get_mut(worker) {
                *w += 1;
            }
        }
    }

    /// Count one pop that bypassed `skipped` gated entries ahead of it in
    /// `worker`'s queue (a backfill start).
    #[inline]
    pub fn count_backfill(&mut self, worker: WorkerId, skipped: usize) {
        if skipped == 0 {
            return;
        }
        if let Some(c) = &mut self.0 {
            if let Some(b) = c.backfills.get_mut(worker) {
                *b += 1;
            }
        }
    }

    /// Finalize into a report: the gauges recorded here plus everything
    /// derived from `trace` — the spans ([`Trace::spans`]), dispatches per
    /// worker × kernel, transfers, and the failed attempts, retries and
    /// worker deaths of its fault log. `graph` supplies each task's
    /// kernel. A disabled sink yields the empty report.
    pub(crate) fn finish(self, trace: &Trace, graph: &TaskGraph) -> ObsReport {
        let Some(mut counters) = self.0.map(|c| *c) else {
            return ObsReport::empty(trace.n_workers);
        };
        for q in &trace.queue_events {
            let idx = q.worker * Kernel::COUNT + graph.task(q.task).kernel().index();
            if let Some(c) = counters.dispatched.get_mut(idx) {
                *c += 1;
            }
        }
        counters.transfers = trace.transfers.len() as u64;
        counters.transfer_time = trace.transfers.iter().map(|t| t.end - t.start).sum();
        let mut failed_attempts = Vec::new();
        let mut worker_deaths = Vec::new();
        for fe in &trace.fault_events {
            match fe.kind {
                FaultEventKind::AttemptFailed {
                    task,
                    worker,
                    attempt,
                    fault,
                    start,
                } => failed_attempts.push(FailedAttempt {
                    task,
                    kernel: graph.task(task).kernel(),
                    worker,
                    start,
                    end: fe.at,
                    attempt,
                    kind: fault.label(),
                }),
                FaultEventKind::Retried { .. } => counters.retries += 1,
                FaultEventKind::WorkerDied { worker } => worker_deaths.push((worker, fe.at)),
                FaultEventKind::Aborted { .. } => {}
            }
        }
        counters.failures = failed_attempts.len() as u64;
        counters.workers_lost = worker_deaths.len() as u64;
        ObsReport {
            n_workers: trace.n_workers,
            enabled: true,
            spans: trace.spans(),
            counters,
            failed_attempts,
            worker_deaths,
        }
    }
}

/// Per-worker phase accounting over the run's makespan.
///
/// The four buckets partition the worker's timeline exactly:
/// `exec + transfer_wait + queue_wait + idle == makespan`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerPhases {
    /// The worker.
    pub worker: WorkerId,
    /// Time executing tasks.
    pub exec: Time,
    /// Gap time attributable to waiting for the next task's data.
    pub transfer_wait: Time,
    /// Gap time while the next-started task sat startable in the queue.
    pub queue_wait: Time,
    /// Gap time with no dispatched next task (true starvation).
    pub idle: Time,
}

impl WorkerPhases {
    /// Sum of all four buckets (equals the report makespan).
    pub fn total(&self) -> Time {
        self.exec + self.transfer_wait + self.queue_wait + self.idle
    }
}

/// The finalized observability record of one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObsReport {
    /// Number of workers on the run's platform.
    pub n_workers: usize,
    /// Whether the run actually recorded (a disabled sink reports `false`,
    /// with everything else empty).
    pub enabled: bool,
    /// One span per executed task, sorted by `(start, seq)`.
    pub spans: Vec<TaskSpan>,
    /// The counter registry.
    pub counters: ObsCounters,
    /// Failed attempts (resilient runs only), in recording order.
    pub failed_attempts: Vec<FailedAttempt>,
    /// Permanent worker losses as `(worker, death instant)` pairs.
    pub worker_deaths: Vec<(WorkerId, Time)>,
}

impl ObsReport {
    /// The empty (observability-disabled) report.
    pub fn empty(n_workers: usize) -> ObsReport {
        ObsReport {
            n_workers,
            ..ObsReport::default()
        }
    }

    /// Span of `task`, if it executed.
    pub fn span(&self, task: TaskId) -> Option<&TaskSpan> {
        self.spans.iter().find(|s| s.task == task)
    }

    /// Latest span end (zero when empty).
    pub fn makespan(&self) -> Time {
        self.spans.iter().map(|s| s.end).max().unwrap_or(Time::ZERO)
    }

    /// Spans of one worker, in start order.
    pub fn worker_spans(&self, worker: WorkerId) -> Vec<&TaskSpan> {
        self.spans.iter().filter(|s| s.worker == worker).collect()
    }

    /// Partition every worker's timeline into exec / transfer-wait /
    /// queue-wait / idle (see [`WorkerPhases`]). Each gap between
    /// executions is attributed by what the *next started* task on that
    /// worker was doing: not yet dispatched → `idle`; dispatched but its
    /// data in flight → `transfer_wait`; startable → `queue_wait`.
    pub fn worker_phases(&self) -> Vec<WorkerPhases> {
        let makespan = self.makespan();
        (0..self.n_workers)
            .map(|worker| {
                let spans = self.worker_spans(worker);
                let mut p = WorkerPhases {
                    worker,
                    ..WorkerPhases::default()
                };
                let mut cursor = Time::ZERO;
                for s in &spans {
                    if s.start > cursor {
                        // Attribute the gap [cursor, s.start).
                        let queued_at = s.queued.clamp(cursor, s.start);
                        let ready_at = s.data_ready.max(s.queued).clamp(queued_at, s.start);
                        p.idle += queued_at - cursor;
                        p.transfer_wait += ready_at - queued_at;
                        p.queue_wait += s.start - ready_at;
                    }
                    p.exec += s.end.saturating_sub(s.start.max(cursor));
                    cursor = cursor.max(s.end);
                }
                p.idle += makespan.saturating_sub(cursor);
                p
            })
            .collect()
    }

    /// Export as Chrome trace-event JSON (`chrome://tracing` /
    /// [Perfetto](https://ui.perfetto.dev) "JSON array format").
    ///
    /// Every event is a complete (`"ph":"X"`) slice or a counter sample
    /// (`"ph":"C"`), and always carries the full key set
    /// `ph, ts, dur, pid, tid, name, args` — the schema
    /// [`validate_chrome_trace`] pins. Timestamps are microseconds, `tid`
    /// is the worker id, and per-task `args` carry task id, phase, prio
    /// and enqueue seq.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut event = |out: &mut String,
                         ph: &str,
                         ts: Time,
                         dur: Time,
                         tid: usize,
                         name: &str,
                         args: &str| {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n{{\"ph\":\"{ph}\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{tid},\"name\":",
                micros(ts),
                micros(dur)
            );
            escape_into(name, out);
            let _ = write!(out, ",\"args\":{{{args}}}}}");
        };
        for s in &self.spans {
            let base = format!(
                "\"task\":{},\"kernel\":\"{}\",\"prio\":{},\"seq\":{}",
                s.task.index(),
                s.kernel.label(),
                s.prio,
                s.seq
            );
            let transfer = s.transfer_wait();
            let queue = s.queue_wait();
            if !transfer.is_zero() {
                event(
                    &mut out,
                    "X",
                    s.queued,
                    transfer,
                    s.worker,
                    &format!("{} #{} [transfer]", s.kernel.label(), s.task.index()),
                    &format!("{base},\"phase\":\"transfer\""),
                );
            }
            if !queue.is_zero() {
                event(
                    &mut out,
                    "X",
                    s.queued + transfer,
                    queue,
                    s.worker,
                    &format!("{} #{} [queued]", s.kernel.label(), s.task.index()),
                    &format!("{base},\"phase\":\"queued\""),
                );
            }
            event(
                &mut out,
                "X",
                s.start,
                s.exec(),
                s.worker,
                &format!("{} #{}", s.kernel.label(), s.task.index()),
                &format!("{base},\"phase\":\"exec\""),
            );
        }
        for a in &self.failed_attempts {
            event(
                &mut out,
                "X",
                a.start,
                a.end.saturating_sub(a.start),
                a.worker,
                &format!("{} #{} [retrying]", a.kernel.label(), a.task.index()),
                &format!(
                    "\"task\":{},\"kernel\":\"{}\",\"phase\":\"retrying\",\
                     \"attempt\":{},\"fault\":\"{}\"",
                    a.task.index(),
                    a.kernel.label(),
                    a.attempt,
                    a.kind
                ),
            );
        }
        for &(w, at) in &self.worker_deaths {
            event(
                &mut out,
                "i",
                at,
                Time::ZERO,
                w,
                "worker lost",
                &format!("\"worker\":{w},\"phase\":\"worker-lost\""),
            );
        }
        for (name, values) in [
            ("wakeups", &self.counters.wakeups),
            ("backfills", &self.counters.backfills),
            ("max_queue_depth", &self.counters.max_queue_depth),
        ] {
            for (w, &v) in values.iter().enumerate() {
                if v > 0 {
                    event(
                        &mut out,
                        "C",
                        Time::ZERO,
                        Time::ZERO,
                        w,
                        name,
                        &format!("\"value\":{v}"),
                    );
                }
            }
        }
        if !first {
            out.push('\n');
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// Render the per-worker utilization / idle-histogram text report —
    /// the numeric companion to the ASCII Gantt of
    /// [`crate::trace::Trace::gantt_ascii`].
    pub fn utilization_report(&self) -> String {
        let makespan = self.makespan();
        let mut out = String::new();
        let _ = writeln!(out, "# per-worker phase accounting (makespan {makespan})");
        let _ = writeln!(
            out,
            "{:>6} {:>9} {:>9} {:>9} {:>9} {:>6} {:>6} {:>8} {:>8} {:>5}",
            "worker",
            "exec%",
            "transfer%",
            "queued%",
            "idle%",
            "tasks",
            "wakeup",
            "backfill",
            "disp",
            "maxq"
        );
        let pct = |t: Time| {
            if makespan.is_zero() {
                0.0
            } else {
                100.0 * t.as_secs_f64() / makespan.as_secs_f64()
            }
        };
        for p in self.worker_phases() {
            let w = p.worker;
            let _ = writeln!(
                out,
                "{:>6} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>6} {:>6} {:>8} {:>8} {:>5}",
                w,
                pct(p.exec),
                pct(p.transfer_wait),
                pct(p.queue_wait),
                pct(p.idle),
                self.worker_spans(w).len(),
                self.counters.wakeups.get(w).copied().unwrap_or(0),
                self.counters.backfills.get(w).copied().unwrap_or(0),
                Kernel::ALL
                    .iter()
                    .map(|&k| self.counters.dispatched(w, k))
                    .sum::<u64>(),
                self.counters.max_queue_depth.get(w).copied().unwrap_or(0),
            );
        }
        let _ = writeln!(
            out,
            "transfers: {} ({} total)",
            self.counters.transfers, self.counters.transfer_time
        );
        if self.counters.failures > 0 || self.counters.workers_lost > 0 {
            let _ = writeln!(
                out,
                "faults: {} failed attempts, {} retries, {} workers lost",
                self.counters.failures, self.counters.retries, self.counters.workers_lost
            );
        }
        // Idle-gap histogram over all inter-execution gaps.
        const BUCKETS: [(&str, u64); 5] = [
            ("<100us", 100_000),
            ("<1ms", 1_000_000),
            ("<10ms", 10_000_000),
            ("<100ms", 100_000_000),
            (">=100ms", u64::MAX),
        ];
        let mut counts = [0u64; BUCKETS.len()];
        for worker in 0..self.n_workers {
            let mut cursor = Time::ZERO;
            for s in self.worker_spans(worker) {
                if s.start > cursor {
                    let gap = (s.start - cursor).as_nanos();
                    let b = BUCKETS.iter().position(|&(_, lim)| gap < lim).unwrap_or(4);
                    counts[b] += 1;
                }
                cursor = cursor.max(s.end);
            }
        }
        let _ = write!(out, "idle-gap histogram:");
        for (i, (label, _)) in BUCKETS.iter().enumerate() {
            let _ = write!(out, "  {label}: {}", counts[i]);
        }
        out.push('\n');
        out
    }

    /// Machine-readable summary JSON: makespan, per-worker phase
    /// accounting, and the counter registry (hand-rolled, like
    /// [`crate::metrics::Figure::to_json`]).
    pub fn summary_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"makespan_ns\":{},\"n_workers\":{},\"n_spans\":{},\"workers\":[",
            self.makespan().as_nanos(),
            self.n_workers,
            self.spans.len()
        );
        for (i, p) in self.worker_phases().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"worker\":{},\"exec_ns\":{},\"transfer_wait_ns\":{},\"queue_wait_ns\":{},\
                 \"idle_ns\":{},\"tasks\":{},\"wakeups\":{},\"backfills\":{},\"max_queue_depth\":{}}}",
                p.worker,
                p.exec.as_nanos(),
                p.transfer_wait.as_nanos(),
                p.queue_wait.as_nanos(),
                p.idle.as_nanos(),
                self.worker_spans(p.worker).len(),
                self.counters.wakeups.get(p.worker).copied().unwrap_or(0),
                self.counters.backfills.get(p.worker).copied().unwrap_or(0),
                self.counters
                    .max_queue_depth
                    .get(p.worker)
                    .copied()
                    .unwrap_or(0),
            );
        }
        let _ = write!(
            out,
            "],\"transfers\":{},\"transfer_ns\":{},\"failures\":{},\"retries\":{},\
             \"workers_lost\":{}}}",
            self.counters.transfers,
            self.counters.transfer_time.as_nanos(),
            self.counters.failures,
            self.counters.retries,
            self.counters.workers_lost
        );
        out
    }
}

/// Nanoseconds → microsecond JSON number (Chrome's native unit), emitted
/// without float noise: integral values print bare, the rest with the
/// exact sub-microsecond remainder.
fn micros(t: Time) -> String {
    let ns = t.as_nanos();
    if ns.is_multiple_of(1_000) {
        format!("{}", ns / 1_000)
    } else {
        format!("{}.{:03}", ns / 1_000, ns % 1_000)
    }
}

// ---------------------------------------------------------------------------
// Chrome-trace schema checker
// ---------------------------------------------------------------------------

/// The keys every exported trace event must carry — the pinned schema.
pub const CHROME_EVENT_KEYS: [&str; 7] = ["ph", "ts", "dur", "pid", "tid", "name", "args"];

/// Validate a Chrome-trace JSON document against the pinned schema:
/// a top-level object with a `traceEvents` array whose every element
/// carries all of [`CHROME_EVENT_KEYS`] with the right types (`ph`/`name`
/// strings, `ts`/`dur`/`pid`/`tid` finite non-negative numbers, `args` an
/// object). Returns the number of events.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let doc = parse_json(text)?;
    let events = doc.get("traceEvents").ok_or("missing key `traceEvents`")?;
    let JsonValue::Arr(events) = events else {
        return Err("`traceEvents` is not an array".into());
    };
    for (i, ev) in events.iter().enumerate() {
        for key in CHROME_EVENT_KEYS {
            let v = ev
                .get(key)
                .ok_or_else(|| format!("event {i}: missing key `{key}`"))?;
            let ok = match key {
                "ph" | "name" => matches!(v, JsonValue::Str(_)),
                "args" => matches!(v, JsonValue::Obj(_)),
                _ => matches!(v, JsonValue::Num(n) if n.is_finite() && *n >= 0.0),
            };
            if !ok {
                return Err(format!("event {i}: key `{key}` has the wrong type"));
            }
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::TraceRecorder;
    use crate::fault::{FaultEvent, FaultKind};
    use crate::trace::QueueEvent;

    fn span(
        task: u32,
        worker: usize,
        queued: u64,
        data_ready: u64,
        start: u64,
        end: u64,
    ) -> TaskSpan {
        TaskSpan {
            task: TaskId(task),
            kernel: Kernel::Gemm,
            worker,
            prio: 0,
            seq: task as u64,
            queued: Time::from_millis(queued),
            data_ready: Time::from_millis(data_ready),
            start: Time::from_millis(start),
            end: Time::from_millis(end),
        }
    }

    fn demo_report() -> ObsReport {
        let mut counters = ObsCounters::sized(2);
        counters.wakeups[1] = 3;
        counters.max_queue_depth[0] = 2;
        ObsReport {
            n_workers: 2,
            enabled: true,
            // worker 0: idle [0,2), transfer [2,4), queue [4,5), exec [5,10)
            // worker 1: exec [0,8), idle [8,10)
            spans: vec![span(1, 1, 0, 0, 0, 8), span(0, 0, 2, 4, 5, 10)],
            counters,
            failed_attempts: Vec::new(),
            worker_deaths: Vec::new(),
        }
    }

    #[test]
    fn span_phase_segments_partition_the_span() {
        let s = span(0, 0, 2, 4, 5, 10);
        assert_eq!(s.transfer_wait(), Time::from_millis(2));
        assert_eq!(s.queue_wait(), Time::from_millis(1));
        assert_eq!(s.exec(), Time::from_millis(5));
        assert_eq!(
            s.transfer_wait() + s.queue_wait() + s.exec(),
            s.end - s.queued
        );
        // Data that arrives only after start clamps to the start.
        let late = span(0, 0, 0, 7, 5, 10);
        assert_eq!(late.transfer_wait(), Time::from_millis(5));
        assert_eq!(late.queue_wait(), Time::ZERO);
    }

    #[test]
    fn worker_phases_partition_the_makespan() {
        let r = demo_report();
        let phases = r.worker_phases();
        assert_eq!(r.makespan(), Time::from_millis(10));
        for p in &phases {
            assert_eq!(p.total(), r.makespan(), "worker {}", p.worker);
        }
        assert_eq!(phases[0].idle, Time::from_millis(2));
        assert_eq!(phases[0].transfer_wait, Time::from_millis(2));
        assert_eq!(phases[0].queue_wait, Time::from_millis(1));
        assert_eq!(phases[0].exec, Time::from_millis(5));
        assert_eq!(phases[1].exec, Time::from_millis(8));
        assert_eq!(phases[1].idle, Time::from_millis(2));
    }

    #[test]
    fn disabled_sink_reports_empty() {
        let graph = TaskGraph::cholesky(2);
        let mut rec = TraceRecorder::with_obs(4, graph.len(), ObsSink::disabled());
        assert!(!rec.obs_mut().is_enabled());
        rec.obs_mut().count_wakeup(0);
        rec.obs_mut().count_backfill(0, 1);
        rec.record(&graph, 0, TaskId(0), Time::ZERO, Time::from_millis(1));
        let (_, _, r) = rec.finish_with_obs(&graph);
        assert!(!r.enabled);
        assert!(r.spans.is_empty());
        assert_eq!(r, ObsReport::empty(4));
    }

    #[test]
    fn enabled_sink_records_spans_and_counters() {
        let graph = TaskGraph::cholesky(2);
        let trsm = (0..graph.len() as u32)
            .map(TaskId)
            .find(|&t| graph.task(t).kernel() == Kernel::Trsm)
            .expect("a 2-tile Cholesky has a TRSM");
        let mut rec = TraceRecorder::with_obs(2, graph.len(), ObsSink::enabled());
        rec.record_enqueue(QueueEvent {
            worker: 1,
            task: trsm,
            prio: 7,
            seq: 0,
            at: Time::from_millis(1),
            data_ready: Time::from_millis(3),
        });
        rec.obs_mut().sample_queue_depth(1, 1);
        rec.record(&graph, 1, trsm, Time::from_millis(4), Time::from_millis(9));
        rec.obs_mut().count_wakeup(1);
        rec.obs_mut().count_backfill(1, 2);
        rec.obs_mut().count_backfill(1, 0); // not a backfill
        let (_, _, r) = rec.finish_with_obs(&graph);
        assert!(r.enabled);
        assert_eq!(r.spans.len(), 1);
        let s = r.span(trsm).unwrap();
        assert_eq!(s.worker, 1);
        assert_eq!(s.prio, 7);
        assert_eq!(s.queued, Time::from_millis(1));
        assert_eq!(s.data_ready, Time::from_millis(3));
        assert_eq!(s.exec(), Time::from_millis(5));
        assert_eq!(r.counters.dispatched(1, Kernel::Trsm), 1);
        assert_eq!(r.counters.total_dispatched(), 1);
        assert_eq!(r.counters.wakeups[1], 1);
        assert_eq!(r.counters.backfills[1], 1);
        assert_eq!(r.counters.max_queue_depth[1], 1);
    }

    #[test]
    fn fault_record_is_read_off_the_trace() {
        let graph = TaskGraph::cholesky(2);
        let mut rec = TraceRecorder::with_obs(2, graph.len(), ObsSink::enabled());
        let ms = Time::from_millis;
        let failed = |attempt, start, at| FaultEvent {
            at,
            kind: FaultEventKind::AttemptFailed {
                task: TaskId(0),
                worker: 0,
                attempt,
                fault: FaultKind::Transient,
                start,
            },
        };
        let retried = |attempt| FaultEvent {
            at: ms(0),
            kind: FaultEventKind::Retried {
                task: TaskId(0),
                attempt,
                backoff: Time::ZERO,
            },
        };
        rec.record_faults(vec![
            failed(1, ms(0), ms(2)),
            retried(2),
            FaultEvent {
                at: ms(3),
                kind: FaultEventKind::WorkerDied { worker: 1 },
            },
            failed(2, ms(4), ms(4)),
            FaultEvent {
                at: ms(4),
                kind: FaultEventKind::Aborted {
                    task: TaskId(0),
                    attempts: 2,
                },
            },
        ]);
        let (_, _, r) = rec.finish_with_obs(&graph);
        assert_eq!(
            r.failed_attempts[0],
            FailedAttempt {
                task: TaskId(0),
                kernel: Kernel::Potrf,
                worker: 0,
                start: ms(0),
                end: ms(2),
                attempt: 1,
                kind: "transient",
            }
        );
        assert_eq!(r.failed_attempts.len(), 2);
        assert_eq!(r.worker_deaths, [(1, ms(3))]);
        assert_eq!(
            (
                r.counters.failures,
                r.counters.retries,
                r.counters.workers_lost
            ),
            (2, 1, 1)
        );
    }

    #[test]
    fn chrome_trace_validates_against_pinned_schema() {
        let r = demo_report();
        let json = r.to_chrome_trace();
        let n = validate_chrome_trace(&json).expect("schema-valid");
        // worker-0 span: transfer + queued + exec; worker-1 span: exec;
        // plus two counter events (wakeups, max_queue_depth).
        assert_eq!(n, 6);
        // The document genuinely loads.
        let doc = parse_json(&json).unwrap();
        let JsonValue::Arr(evs) = doc.get("traceEvents").unwrap() else {
            panic!("traceEvents not an array");
        };
        assert!(evs
            .iter()
            .any(|e| e.get("name") == Some(&JsonValue::Str("GEMM #0 [transfer]".into()))));
        assert!(evs
            .iter()
            .any(|e| matches!(e.get("args").unwrap().get("phase"),
                              Some(JsonValue::Str(p)) if p == "exec")));
    }

    #[test]
    fn chrome_trace_of_empty_report_is_valid() {
        assert_eq!(
            validate_chrome_trace(&ObsReport::empty(3).to_chrome_trace()),
            Ok(0)
        );
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":7}").is_err());
        // An event missing `dur` must be rejected.
        let bad = "{\"traceEvents\":[{\"ph\":\"X\",\"ts\":0,\"pid\":0,\"tid\":0,\
                    \"name\":\"x\",\"args\":{}}]}";
        let err = validate_chrome_trace(bad).unwrap_err();
        assert!(err.contains("dur"), "{err}");
        // Wrong type: ph must be a string.
        let bad = "{\"traceEvents\":[{\"ph\":3,\"ts\":0,\"dur\":0,\"pid\":0,\"tid\":0,\
                    \"name\":\"x\",\"args\":{}}]}";
        assert!(validate_chrome_trace(bad).is_err());
    }

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let v = parse_json("{\"a\": [1, -2.5e1, \"q\\\"\\u0041\", null, true, {}]}").unwrap();
        let JsonValue::Arr(items) = v.get("a").unwrap() else {
            panic!()
        };
        assert_eq!(items[0], JsonValue::Num(1.0));
        assert_eq!(items[1], JsonValue::Num(-25.0));
        assert_eq!(items[2], JsonValue::Str("q\"A".into()));
        assert_eq!(items[3], JsonValue::Null);
        assert_eq!(items[4], JsonValue::Bool(true));
        assert!(parse_json("{\"a\":1} trailing").is_err());
        assert!(parse_json("[1,]").is_err());
    }

    #[test]
    fn utilization_report_and_summary_json() {
        let r = demo_report();
        let text = r.utilization_report();
        assert!(text.contains("phase accounting"));
        assert!(text.contains("idle-gap histogram"));
        let summary = r.summary_json();
        let doc = parse_json(&summary).expect("summary is valid JSON");
        assert_eq!(doc.get("makespan_ns"), Some(&JsonValue::Num(10_000_000.0)));
        let JsonValue::Arr(workers) = doc.get("workers").unwrap() else {
            panic!()
        };
        assert_eq!(workers.len(), 2);
        // Phase accounting in the summary sums to the makespan.
        for w in workers {
            let ns = |k: &str| match w.get(k) {
                Some(JsonValue::Num(n)) => *n,
                _ => panic!("missing {k}"),
            };
            assert_eq!(
                ns("exec_ns") + ns("transfer_wait_ns") + ns("queue_wait_ns") + ns("idle_ns"),
                10_000_000.0
            );
        }
    }

    #[test]
    fn micros_formatting_is_exact() {
        assert_eq!(micros(Time::from_millis(1)), "1000");
        assert_eq!(micros(Time::from_nanos(1_500)), "1.500");
        assert_eq!(micros(Time::from_nanos(999)), "0.999");
        assert_eq!(micros(Time::ZERO), "0");
    }
}
