//! Seeded, deterministic fault injection and the recovery vocabulary.
//!
//! The paper's schedulers (and StarPU itself) assume every worker survives
//! and every kernel succeeds. This module is the substrate that lets the
//! reproduction drop that assumption *without* giving up determinism: a
//! [`FaultPlan`] is a plain value — worker deaths indexed by engine-wide
//! task-start counts, per-task transient failures, straggler slowdowns —
//! that both the discrete-event simulator and the threaded runtime consume
//! through one [`FaultState`] driver, so the same plan reproduces the same
//! *outcome classification* in either engine (the sim-vs-actual methodology
//! of the paper, applied to failures).
//!
//! Key design choice: worker deaths trigger on **progress**, not wall
//! time. `WorkerDeath { after_starts: k }` kills the worker once `k` task
//! attempts have started anywhere on the platform. Virtual and wall clocks
//! never agree between the engines, but the global start count does — any
//! threshold below the task count is guaranteed to fire in both.
//!
//! Recovery semantics live in the engines (re-queuing a dead worker's
//! tasks, capped-backoff retries, the watchdog); the bookkeeping — attempt
//! counts, death thresholds, the [`FaultEvent`] log rule 17 of the linter
//! audits — lives here. See DESIGN.md §12.

use crate::platform::WorkerId;
use crate::task::TaskId;
use crate::time::Time;
use std::fmt;

// ---------------------------------------------------------------------------
// Fault vocabulary
// ---------------------------------------------------------------------------

/// Why an individual task attempt failed.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// Injected transient kernel failure (spurious; succeeds when retried).
    Transient,
    /// Corrupted-tile numerical fault: POTRF reports a non-SPD pivot.
    Numerical,
    /// The watchdog converted a (modeled) hung attempt into a failure.
    Timeout,
    /// The worker that owned the attempt died before it could run.
    WorkerLost,
}

impl FaultKind {
    /// Stable lower-case label, used in events, traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Transient => "transient",
            FaultKind::Numerical => "numerical",
            FaultKind::Timeout => "timeout",
            FaultKind::WorkerLost => "worker-lost",
        }
    }

    /// Inverse of [`FaultKind::label`], for wire-format readers.
    pub fn from_label(label: &str) -> Option<FaultKind> {
        match label {
            "transient" => Some(FaultKind::Transient),
            "numerical" => Some(FaultKind::Numerical),
            "timeout" => Some(FaultKind::Timeout),
            "worker-lost" => Some(FaultKind::WorkerLost),
            _ => None,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One injected fault.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Fault {
    /// `worker` dies permanently once `after_starts` task attempts have
    /// started engine-wide. `after_starts: 0` kills it before it runs
    /// anything (the "GPU lost from the start" scenario); any threshold
    /// below the task count is guaranteed to fire in both engines.
    WorkerDeath {
        /// The worker that dies.
        worker: WorkerId,
        /// Global start count at which the death triggers.
        after_starts: u32,
    },
    /// The first `failures` attempts of `task` fail with `kind`; the
    /// injected failure *replaces* kernel execution, so retrying is always
    /// numerically sound.
    Transient {
        /// The afflicted task.
        task: TaskId,
        /// How many leading attempts fail.
        failures: u32,
        /// The failure kind reported ([`FaultKind::Transient`] or
        /// [`FaultKind::Numerical`]).
        kind: FaultKind,
    },
    /// `worker` runs `factor`× slower than calibrated (a straggler). With
    /// a watchdog armed, slow-enough attempts become timeout failures.
    Straggler {
        /// The slow worker.
        worker: WorkerId,
        /// Slowdown multiplier (≥ 1.0 to be meaningful).
        factor: f64,
    },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::WorkerDeath {
                worker,
                after_starts,
            } => write!(f, "death(w{worker}@{after_starts})"),
            Fault::Transient {
                task,
                failures,
                kind,
            } => write!(f, "{kind}(#{}\u{d7}{failures})", task.index()),
            Fault::Straggler { worker, factor } => {
                write!(f, "straggler(w{worker}\u{d7}{factor})")
            }
        }
    }
}

impl Fault {
    /// The shared wire shape of one fault, used by both the model-checker
    /// witness format and the job API:
    /// `{"kind": "worker_death", "worker": W, "after_starts": K}`,
    /// `{"kind": "transient", "task": T, "failures": F, "fault": "<label>"}`
    /// or `{"kind": "straggler", "worker": W, "factor": X}`.
    pub fn to_json_value(&self) -> crate::json::JsonValue {
        use crate::json::JsonValue as J;
        match *self {
            Fault::WorkerDeath {
                worker,
                after_starts,
            } => J::Obj(vec![
                ("kind".into(), J::str("worker_death")),
                ("worker".into(), J::uint(worker as u64)),
                ("after_starts".into(), J::uint(after_starts as u64)),
            ]),
            Fault::Transient {
                task,
                failures,
                kind,
            } => J::Obj(vec![
                ("kind".into(), J::str("transient")),
                ("task".into(), J::uint(task.index() as u64)),
                ("failures".into(), J::uint(failures as u64)),
                ("fault".into(), J::str(kind.label())),
            ]),
            Fault::Straggler { worker, factor } => J::Obj(vec![
                ("kind".into(), J::str("straggler")),
                ("worker".into(), J::uint(worker as u64)),
                ("factor".into(), J::num(factor)),
            ]),
        }
    }

    /// Parse the wire shape emitted by [`Fault::to_json_value`].
    pub fn from_json_value(v: &crate::json::JsonValue) -> Result<Fault, String> {
        match v.field("kind")?.as_str()? {
            "worker_death" => Ok(Fault::WorkerDeath {
                worker: v.field("worker")?.as_u64()? as WorkerId,
                after_starts: v.field("after_starts")?.as_u64()? as u32,
            }),
            "transient" => {
                let label = v.field("fault")?.as_str()?;
                Ok(Fault::Transient {
                    task: TaskId(v.field("task")?.as_u64()? as u32),
                    failures: v.field("failures")?.as_u64()? as u32,
                    kind: FaultKind::from_label(label)
                        .ok_or_else(|| format!("unknown fault kind label {label:?}"))?,
                })
            }
            "straggler" => Ok(Fault::Straggler {
                worker: v.field("worker")?.as_u64()? as WorkerId,
                factor: v.field("factor")?.as_f64()?,
            }),
            other => Err(format!("unknown fault kind {other:?}")),
        }
    }
}

/// A deterministic, seedable fault-injection plan: just a list of
/// [`Fault`]s. Plans are plain values — clone one and replay it on the
/// other engine to cross-check recovery.
///
/// ```
/// use hetchol_core::fault::FaultPlan;
/// use hetchol_core::task::TaskId;
/// let plan = FaultPlan::new()
///     .kill_worker(2, 6)           // worker 2 dies after the 6th start
///     .transient(TaskId(3), 1)     // task 3's first attempt fails
///     .straggler(1, 3.0);          // worker 1 runs 3× slower
/// assert_eq!(plan.faults().len(), 3);
/// assert!(!plan.kills_all_workers(3));
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Alias for [`FaultPlan::new`], reading better at call sites that
    /// explicitly opt out of injection.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// `true` when no faults are planned.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The planned faults, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Add a permanent worker death at global start count `after_starts`.
    pub fn kill_worker(mut self, worker: WorkerId, after_starts: u32) -> FaultPlan {
        self.faults.push(Fault::WorkerDeath {
            worker,
            after_starts,
        });
        self
    }

    /// Add a transient kernel failure: the first `failures` attempts of
    /// `task` fail spuriously.
    pub fn transient(mut self, task: TaskId, failures: u32) -> FaultPlan {
        self.faults.push(Fault::Transient {
            task,
            failures,
            kind: FaultKind::Transient,
        });
        self
    }

    /// Add a corrupted-tile numerical fault: `task`'s first attempt
    /// reports a numerical failure (for POTRF, "matrix not SPD"), as a
    /// bit-flipped input tile would. The corruption is modeled as
    /// detected-and-discarded, so the retry runs on clean data.
    pub fn corrupt_tile(mut self, task: TaskId) -> FaultPlan {
        self.faults.push(Fault::Transient {
            task,
            failures: 1,
            kind: FaultKind::Numerical,
        });
        self
    }

    /// Add a straggler slowdown of `factor` on `worker`.
    pub fn straggler(mut self, worker: WorkerId, factor: f64) -> FaultPlan {
        self.faults.push(Fault::Straggler { worker, factor });
        self
    }

    /// `true` when the plan kills every one of `n_workers` workers — a
    /// configuration the engines reject up front ([`ConfigError`]), since
    /// no recovery is possible.
    pub fn kills_all_workers(&self, n_workers: usize) -> bool {
        let mut dead = vec![false; n_workers];
        for f in &self.faults {
            if let Fault::WorkerDeath { worker, .. } = *f {
                if let Some(d) = dead.get_mut(worker) {
                    *d = true;
                }
            }
        }
        !dead.is_empty() && dead.iter().all(|&d| d)
    }

    /// A deterministic pseudo-random plan for chaos testing: derived from
    /// `seed` alone (splitmix64 stream; the core crate deliberately has no
    /// RNG dependency), scaled to a run of `n_tasks` tasks on `n_workers`
    /// workers. Never kills all workers; death thresholds stay below
    /// `n_tasks` so they are guaranteed to trigger in both engines.
    pub fn seeded(seed: u64, n_tasks: usize, n_workers: usize) -> FaultPlan {
        let mut state = seed ^ 0x5eed_fa17_0c8a_05e5;
        let mut next = move || splitmix64(&mut state);
        let mut plan = FaultPlan::new();
        if n_tasks == 0 || n_workers == 0 {
            return plan;
        }
        if n_workers > 1 {
            let w = (next() % n_workers as u64) as WorkerId;
            let at = (next() % n_tasks as u64) as u32;
            plan = plan.kill_worker(w, at);
        }
        for _ in 0..=(next() % 2) {
            let t = TaskId((next() % n_tasks as u64) as u32);
            plan = plan.transient(t, 1 + (next() % 2) as u32);
        }
        if next() % 2 == 0 {
            plan = plan.corrupt_tile(TaskId((next() % n_tasks as u64) as u32));
        }
        if next() % 2 == 0 {
            let w = (next() % n_workers as u64) as WorkerId;
            plan = plan.straggler(w, 2.0 + (next() % 3) as f64);
        }
        plan
    }

    /// Enumerate the model checker's fault-decision space for a run of
    /// `n_tasks` tasks on `n_workers` workers: the empty plan, every
    /// single permanent worker death, and every single one-shot transient
    /// task failure.
    ///
    /// This is the driver-side injection API: because both engines key
    /// worker deaths to *progress* (the engine-wide task-start count) and
    /// transients to task identity — never to clocks — "the driver fires
    /// a fault at this exploration step" is observationally equivalent to
    /// "the run was configured with the plan naming that progress point".
    /// A death fired while `k` tasks have started is exactly
    /// `kill_worker(w, k)`; a transient fired at a task's attempt is
    /// exactly `transient(t, 1)`. The fault choice tree therefore
    /// collapses to this finite plan list, and exhausting every plan ×
    /// every interleaving covers every fault point within the budget of
    /// one fault per run. Plans that would kill the whole platform are
    /// excluded (the engines reject them up front).
    pub fn choice_space(n_tasks: usize, n_workers: usize) -> Vec<FaultPlan> {
        let mut space = vec![FaultPlan::none()];
        if n_workers > 1 {
            for w in 0..n_workers {
                for k in 0..n_tasks as u32 {
                    space.push(FaultPlan::new().kill_worker(w, k));
                }
            }
        }
        for t in 0..n_tasks as u32 {
            space.push(FaultPlan::new().transient(TaskId(t), 1));
        }
        space
    }

    /// The plan as a JSON array of [`Fault::to_json_value`] shapes.
    pub fn to_json_value(&self) -> crate::json::JsonValue {
        crate::json::JsonValue::Arr(self.faults.iter().map(Fault::to_json_value).collect())
    }

    /// Parse a plan serialized by [`FaultPlan::to_json_value`].
    pub fn from_json_value(v: &crate::json::JsonValue) -> Result<FaultPlan, String> {
        let faults = v
            .as_arr()?
            .iter()
            .map(Fault::from_json_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FaultPlan { faults })
    }
}

/// One step of the splitmix64 stream — small, well-mixed, and dependency
/// free (the compat `rand` lives outside the core crate).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// Disk fault injection
// ---------------------------------------------------------------------------

/// One injected I/O fault against an append-only log.
///
/// Counters are 1-based and count *operations on the faulted backend*:
/// `append: 3` afflicts the third append since the backend was wrapped.
/// The vocabulary mirrors [`Fault`]: a short write is the disk's
/// transient, a flush failure its timeout, disk-full its permanent death.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum IoFault {
    /// The `append`-th append persists only `keep` bytes of its buffer,
    /// then errors — the torn-record generator.
    ShortWrite {
        /// Which append (1-based) is cut short.
        append: u64,
        /// How many leading bytes still reach the disk.
        keep: usize,
    },
    /// The `flush`-th flush/fsync fails (the data may or may not be
    /// durable; a correct log must treat it as not).
    FlushFail {
        /// Which flush (1-based) fails.
        flush: u64,
    },
    /// Every append once the log has reached `at_bytes` bytes fails with
    /// "no space left" and writes nothing.
    DiskFull {
        /// Log size in bytes at which the disk is full.
        at_bytes: u64,
    },
}

impl fmt::Display for IoFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            IoFault::ShortWrite { append, keep } => {
                write!(f, "short-write(append {append}, keep {keep}B)")
            }
            IoFault::FlushFail { flush } => write!(f, "flush-fail(flush {flush})"),
            IoFault::DiskFull { at_bytes } => write!(f, "disk-full(at {at_bytes}B)"),
        }
    }
}

impl IoFault {
    /// The wire shape of one I/O fault:
    /// `{"kind":"short_write","append":N,"keep":K}`,
    /// `{"kind":"flush_fail","flush":N}` or
    /// `{"kind":"disk_full","at_bytes":N}`.
    pub fn to_json_value(&self) -> crate::json::JsonValue {
        use crate::json::JsonValue as J;
        match *self {
            IoFault::ShortWrite { append, keep } => J::Obj(vec![
                ("kind".into(), J::str("short_write")),
                ("append".into(), J::uint(append)),
                ("keep".into(), J::uint(keep as u64)),
            ]),
            IoFault::FlushFail { flush } => J::Obj(vec![
                ("kind".into(), J::str("flush_fail")),
                ("flush".into(), J::uint(flush)),
            ]),
            IoFault::DiskFull { at_bytes } => J::Obj(vec![
                ("kind".into(), J::str("disk_full")),
                ("at_bytes".into(), J::uint(at_bytes)),
            ]),
        }
    }

    /// Parse the wire shape emitted by [`IoFault::to_json_value`].
    pub fn from_json_value(v: &crate::json::JsonValue) -> Result<IoFault, String> {
        match v.field("kind")?.as_str()? {
            "short_write" => Ok(IoFault::ShortWrite {
                append: v.field("append")?.as_u64()?,
                keep: v.field("keep")?.as_u64()? as usize,
            }),
            "flush_fail" => Ok(IoFault::FlushFail {
                flush: v.field("flush")?.as_u64()?,
            }),
            "disk_full" => Ok(IoFault::DiskFull {
                at_bytes: v.field("at_bytes")?.as_u64()?,
            }),
            other => Err(format!("unknown io fault kind {other:?}")),
        }
    }
}

/// A deterministic disk-fault plan for the serve layer's job log: the
/// I/O twin of [`FaultPlan`]. Plans are plain values consumed through a
/// fault-injecting log backend; an empty plan injects nothing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IoFaultPlan {
    faults: Vec<IoFault>,
}

impl IoFaultPlan {
    /// The empty plan.
    pub fn new() -> IoFaultPlan {
        IoFaultPlan::default()
    }

    /// Alias for [`IoFaultPlan::new`] at call sites that opt out.
    pub fn none() -> IoFaultPlan {
        IoFaultPlan::default()
    }

    /// `true` when no faults are planned.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The planned faults, in insertion order.
    pub fn faults(&self) -> &[IoFault] {
        &self.faults
    }

    /// Add a short write: the `append`-th append keeps only `keep` bytes.
    pub fn short_write(mut self, append: u64, keep: usize) -> IoFaultPlan {
        self.faults.push(IoFault::ShortWrite { append, keep });
        self
    }

    /// Add a flush failure on the `flush`-th flush.
    pub fn flush_fail(mut self, flush: u64) -> IoFaultPlan {
        self.faults.push(IoFault::FlushFail { flush });
        self
    }

    /// Declare the disk full once the log reaches `at_bytes` bytes.
    pub fn disk_full(mut self, at_bytes: u64) -> IoFaultPlan {
        self.faults.push(IoFault::DiskFull { at_bytes });
        self
    }

    /// A deterministic pseudo-random plan derived from `seed` alone
    /// (same splitmix64 stream as [`FaultPlan::seeded`]), scaled so the
    /// faults land within a log of roughly `expected_appends` records:
    /// exactly one fault per plan, so a chaos matrix over seeds covers
    /// each kind and each kind's degradation is observable in isolation.
    pub fn seeded(seed: u64, expected_appends: u64) -> IoFaultPlan {
        let mut state = seed ^ 0xd15c_fa17_0c8a_05e5;
        let mut next = move || splitmix64(&mut state);
        let appends = expected_appends.max(1);
        match next() % 3 {
            0 => IoFaultPlan::new().short_write(1 + next() % appends, (next() % 16) as usize),
            1 => IoFaultPlan::new().flush_fail(1 + next() % appends),
            // Records are a few hundred bytes; a kilobyte-scale threshold
            // fills the disk a handful of appends in.
            _ => IoFaultPlan::new().disk_full(256 + next() % 4096),
        }
    }

    /// The plan as a JSON array of [`IoFault::to_json_value`] shapes.
    pub fn to_json_value(&self) -> crate::json::JsonValue {
        crate::json::JsonValue::Arr(self.faults.iter().map(IoFault::to_json_value).collect())
    }

    /// Parse a plan serialized by [`IoFaultPlan::to_json_value`].
    pub fn from_json_value(v: &crate::json::JsonValue) -> Result<IoFaultPlan, String> {
        let faults = v
            .as_arr()?
            .iter()
            .map(IoFault::from_json_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(IoFaultPlan { faults })
    }
}

// ---------------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------------

/// How the engines respond to failed attempts.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per task before it is aborted (first try included).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent failure.
    pub backoff_base: Time,
    /// Upper bound the exponential backoff saturates at.
    pub backoff_cap: Time,
    /// When set, any attempt whose *modeled* duration (calibrated estimate
    /// × straggler factor) exceeds the limit is failed as a
    /// [`FaultKind::Timeout`] instead of being allowed to hang. Both
    /// engines decide on the model, so verdicts agree; see DESIGN.md §12
    /// for why the threaded runtime cannot preempt a genuinely hung
    /// safe-Rust kernel.
    pub watchdog: Option<Time>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            backoff_base: Time::from_micros(100),
            backoff_cap: Time::from_millis(10),
            watchdog: None,
        }
    }
}

impl RetryPolicy {
    /// Backoff delay after the `failures`-th failure of a task (1-based):
    /// `base × 2^(failures−1)`, saturating, capped at `backoff_cap`.
    pub fn backoff(&self, failures: u32) -> Time {
        let mut b = self.backoff_base;
        let mut i = 1;
        while i < failures && b < self.backoff_cap {
            b = b.saturating_add(b);
            i += 1;
        }
        b.min(self.backoff_cap)
    }
}

// ---------------------------------------------------------------------------
// Outcome vocabulary
// ---------------------------------------------------------------------------

/// Why a resilient run failed outright.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailureCause {
    /// A task exhausted its retry budget.
    RetriesExhausted {
        /// The aborted task.
        task: TaskId,
        /// Attempts consumed (== `RetryPolicy::max_attempts`).
        attempts: u32,
        /// Kind of the final failure.
        kind: FaultKind,
    },
    /// Every worker died; nothing can make progress.
    AllWorkersLost,
    /// A *real* (non-injected) kernel error. These are not retried — a
    /// genuine numerical failure (e.g. an indefinite input matrix) will
    /// fail identically on any worker.
    Kernel {
        /// The failing task.
        task: TaskId,
        /// Debug rendering of the workload's error.
        detail: String,
    },
    /// The engine stopped with tasks incomplete and no recorded cause —
    /// the resilient-mode replacement for the legacy deadlock assertion.
    Stalled {
        /// Number of unfinished tasks.
        remaining: usize,
    },
}

impl fmt::Display for FailureCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureCause::RetriesExhausted {
                task,
                attempts,
                kind,
            } => write!(
                f,
                "task #{} aborted after {attempts} attempts (last failure: {kind})",
                task.index()
            ),
            FailureCause::AllWorkersLost => write!(f, "all workers lost"),
            FailureCause::Kernel { task, detail } => {
                write!(f, "kernel error on task #{}: {detail}", task.index())
            }
            FailureCause::Stalled { remaining } => {
                write!(f, "stalled with {remaining} tasks incomplete")
            }
        }
    }
}

/// The structured verdict of a resilient run — the replacement for
/// panic-on-error paths in both engines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every task ran once, first try, on its assigned worker.
    Completed,
    /// Every task completed, but only after recovery: workers were lost
    /// and/or attempts were retried. The result is still correct.
    Degraded {
        /// Workers that died during the run, ascending.
        lost_workers: Vec<WorkerId>,
        /// Total retried attempts.
        retries: u64,
    },
    /// The run could not complete.
    Failed {
        /// Why.
        cause: FailureCause,
    },
}

impl RunOutcome {
    /// `true` for [`Completed`](RunOutcome::Completed) and
    /// [`Degraded`](RunOutcome::Degraded): every task finished and the
    /// numerical result is trustworthy.
    pub fn is_success(&self) -> bool {
        !matches!(self, RunOutcome::Failed { .. })
    }

    /// Stable lower-case discriminant label (`completed` / `degraded` /
    /// `failed`), for reports and cross-engine classification checks.
    pub fn label(&self) -> &'static str {
        match self {
            RunOutcome::Completed => "completed",
            RunOutcome::Degraded { .. } => "degraded",
            RunOutcome::Failed { .. } => "failed",
        }
    }
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunOutcome::Completed => write!(f, "completed"),
            RunOutcome::Degraded {
                lost_workers,
                retries,
            } => write!(
                f,
                "degraded (lost workers {lost_workers:?}, {retries} retries)"
            ),
            RunOutcome::Failed { cause } => write!(f, "failed: {cause}"),
        }
    }
}

/// Rejected-up-front run configurations (the typed replacement for
/// hanging or panicking on impossible setups).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// The platform has no workers.
    ZeroWorkers,
    /// The fault plan kills every worker; no recovery is possible.
    PlanKillsAllWorkers {
        /// Worker count of the rejected platform.
        n_workers: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroWorkers => write!(f, "platform has zero workers"),
            ConfigError::PlanKillsAllWorkers { n_workers } => {
                write!(f, "fault plan kills all {n_workers} workers")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

// ---------------------------------------------------------------------------
// Fault events (the recovery audit log)
// ---------------------------------------------------------------------------

/// What happened, for the trace and linter rule 17.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultEventKind {
    /// `worker` died (timestamp is the actual death instant: after its
    /// in-flight work completed, so no execution may start at or after it).
    WorkerDied {
        /// The dead worker.
        worker: WorkerId,
    },
    /// An attempt of `task` on `worker` failed (the event's timestamp is
    /// when the failure was recorded).
    AttemptFailed {
        /// The task.
        task: TaskId,
        /// Worker that owned the failed attempt.
        worker: WorkerId,
        /// 1-based attempt number.
        attempt: u32,
        /// Failure kind.
        fault: FaultKind,
        /// When the attempt started (equal to the event's timestamp for
        /// an attempt that never occupied its worker).
        start: Time,
    },
    /// `task` was re-dispatched for attempt `attempt` after `backoff`.
    Retried {
        /// The task.
        task: TaskId,
        /// 1-based number of the upcoming attempt.
        attempt: u32,
        /// Backoff delay applied before it may start.
        backoff: Time,
    },
    /// `task` exhausted its retry budget and the run aborted.
    Aborted {
        /// The task.
        task: TaskId,
        /// Attempts consumed.
        attempts: u32,
    },
}

/// A timestamped [`FaultEventKind`], recorded into
/// [`crate::trace::Trace::fault_events`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// When (virtual time in the simulator, wall time in the runtime).
    pub at: Time,
    /// What.
    pub kind: FaultEventKind,
}

// ---------------------------------------------------------------------------
// FaultState — the shared injection/recovery driver
// ---------------------------------------------------------------------------

/// The mutable driver both engines thread through a resilient run: it
/// answers "does this fault fire now?" and keeps the books (attempt
/// counts, deaths, retries, the event log). All state is indexed by task
/// id, worker id and the *global start count*, never by clock — which is
/// what makes one plan reproduce across the two engines.
#[derive(Clone, Debug)]
pub struct FaultState {
    policy: RetryPolicy,
    /// Earliest death threshold per worker (None: never dies).
    death_at: Vec<Option<u32>>,
    /// Straggler slowdown per worker (1.0: nominal).
    slowdown: Vec<f64>,
    /// Injected transient failure per task: (leading failures, kind).
    transient: Vec<Option<(u32, FaultKind)>>,
    attempts: Vec<u32>,
    dead: Vec<bool>,
    global_starts: u32,
    retries: u64,
    events: Vec<FaultEvent>,
}

impl FaultState {
    /// Compile `plan` for a run of `n_tasks` tasks on `n_workers` workers.
    /// Faults referencing out-of-range tasks/workers are ignored.
    pub fn new(plan: &FaultPlan, policy: RetryPolicy, n_tasks: usize, n_workers: usize) -> Self {
        let mut death_at = vec![None; n_workers];
        let mut slowdown = vec![1.0f64; n_workers];
        let mut transient: Vec<Option<(u32, FaultKind)>> = vec![None; n_tasks];
        for f in plan.faults() {
            match *f {
                Fault::WorkerDeath {
                    worker,
                    after_starts,
                } => {
                    if let Some(slot) = death_at.get_mut(worker) {
                        *slot = Some(slot.map_or(after_starts, |t: u32| t.min(after_starts)));
                    }
                }
                Fault::Straggler { worker, factor } => {
                    if let Some(s) = slowdown.get_mut(worker) {
                        *s *= factor.max(0.0);
                    }
                }
                Fault::Transient {
                    task,
                    failures,
                    kind,
                } => {
                    if let Some(slot) = transient.get_mut(task.index()) {
                        let merged = match *slot {
                            Some((prev, k)) if prev >= failures => (prev, k),
                            _ => (failures, kind),
                        };
                        *slot = Some(merged);
                    }
                }
            }
        }
        FaultState {
            policy,
            death_at,
            slowdown,
            transient,
            attempts: vec![0; n_tasks],
            dead: vec![false; n_workers],
            global_starts: 0,
            retries: 0,
            events: Vec::new(),
        }
    }

    /// The retry policy in force.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Whether `worker` has died.
    pub fn is_dead(&self, worker: WorkerId) -> bool {
        self.dead.get(worker).copied().unwrap_or(false)
    }

    /// The death mask, indexed by worker id (for dispatch).
    pub fn dead(&self) -> &[bool] {
        &self.dead
    }

    /// Whether every worker has died.
    pub fn all_dead(&self) -> bool {
        self.dead.iter().all(|&d| d)
    }

    /// Workers that have died, ascending.
    pub fn lost_workers(&self) -> Vec<WorkerId> {
        (0..self.dead.len()).filter(|&w| self.dead[w]).collect()
    }

    /// Total retried attempts so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Attempts consumed by `task` so far.
    pub fn attempts_of(&self, task: TaskId) -> u32 {
        self.attempts.get(task.index()).copied().unwrap_or(0)
    }

    /// Whether `worker`'s death trigger has passed but it has not yet been
    /// marked dead (it must be reaped as soon as it is not busy).
    pub fn death_due(&self, worker: WorkerId) -> bool {
        !self.is_dead(worker)
            && self
                .death_at
                .get(worker)
                .copied()
                .flatten()
                .is_some_and(|t| self.global_starts >= t)
    }

    /// All workers whose death is due (see [`FaultState::death_due`]).
    pub fn doomed_workers(&self) -> Vec<WorkerId> {
        (0..self.dead.len())
            .filter(|&w| self.death_due(w))
            .collect()
    }

    /// Count one engine-wide task start. Call exactly once per attempt
    /// that actually occupies a worker.
    pub fn on_start(&mut self) {
        self.global_starts += 1;
    }

    /// Global start count so far.
    pub fn global_starts(&self) -> u32 {
        self.global_starts
    }

    /// Mark `worker` dead at `now` and log the death. The caller is
    /// responsible for re-dispatching the worker's queue.
    pub fn mark_dead(&mut self, worker: WorkerId, now: Time) {
        if let Some(d) = self.dead.get_mut(worker) {
            if !*d {
                *d = true;
                self.events.push(FaultEvent {
                    at: now,
                    kind: FaultEventKind::WorkerDied { worker },
                });
            }
        }
    }

    /// Begin an attempt of `task`: bumps its attempt count and returns
    /// `(attempt_number, injected_failure)`. When a failure is injected
    /// the engine must *skip* the kernel (injection replaces execution, so
    /// state is untouched and the retry is numerically sound).
    pub fn begin_attempt(&mut self, task: TaskId) -> (u32, Option<FaultKind>) {
        let idx = task.index();
        if idx >= self.attempts.len() {
            return (1, None);
        }
        self.attempts[idx] += 1;
        let attempt = self.attempts[idx];
        let injected = self.transient[idx].and_then(|(n, kind)| (attempt <= n).then_some(kind));
        (attempt, injected)
    }

    /// Straggler slowdown factor of `worker` (1.0 when nominal).
    pub fn slowdown(&self, worker: WorkerId) -> f64 {
        self.slowdown.get(worker).copied().unwrap_or(1.0)
    }

    /// Record that the attempt of `task` on `worker` started at `start`
    /// failed at `now`. Returns `Some(backoff)` when the task should be
    /// retried after that delay, or `None` when its retry budget is
    /// exhausted (the engine must abort with
    /// [`FailureCause::RetriesExhausted`]).
    pub fn record_failure(
        &mut self,
        task: TaskId,
        worker: WorkerId,
        kind: FaultKind,
        start: Time,
        now: Time,
    ) -> Option<Time> {
        let attempt = self.attempts_of(task).max(1);
        self.events.push(FaultEvent {
            at: now,
            kind: FaultEventKind::AttemptFailed {
                task,
                worker,
                attempt,
                fault: kind,
                start,
            },
        });
        if attempt >= self.policy.max_attempts {
            self.events.push(FaultEvent {
                at: now,
                kind: FaultEventKind::Aborted {
                    task,
                    attempts: attempt,
                },
            });
            return None;
        }
        self.retries += 1;
        let backoff = self.policy.backoff(attempt);
        self.events.push(FaultEvent {
            at: now,
            kind: FaultEventKind::Retried {
                task,
                attempt: attempt + 1,
                backoff,
            },
        });
        Some(backoff)
    }

    /// Drain the event log (the engine folds it into the trace).
    pub fn take_events(&mut self) -> Vec<FaultEvent> {
        std::mem::take(&mut self.events)
    }

    /// Classify the finished run: `done` is whether every task completed,
    /// `abort` any recorded hard failure, `remaining` the unfinished task
    /// count. Pure function of recovery bookkeeping, shared by both
    /// engines so classifications cannot drift.
    pub fn classify(
        &self,
        done: bool,
        abort: Option<FailureCause>,
        remaining: usize,
    ) -> RunOutcome {
        if let Some(cause) = abort {
            return RunOutcome::Failed { cause };
        }
        if !done {
            let cause = if self.all_dead() {
                FailureCause::AllWorkersLost
            } else {
                FailureCause::Stalled { remaining }
            };
            return RunOutcome::Failed { cause };
        }
        let lost_workers = self.lost_workers();
        if lost_workers.is_empty() && self.retries == 0 {
            RunOutcome::Completed
        } else {
            RunOutcome::Degraded {
                lost_workers,
                retries: self.retries,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_from_base_and_saturates_at_cap() {
        let p = RetryPolicy {
            max_attempts: 8,
            backoff_base: Time::from_micros(100),
            backoff_cap: Time::from_micros(800),
            watchdog: None,
        };
        // Regression: 100µs, 200µs, 400µs, then pinned at the 800µs cap.
        assert_eq!(p.backoff(1), Time::from_micros(100));
        assert_eq!(p.backoff(2), Time::from_micros(200));
        assert_eq!(p.backoff(3), Time::from_micros(400));
        assert_eq!(p.backoff(4), Time::from_micros(800));
        assert_eq!(p.backoff(5), Time::from_micros(800));
        assert_eq!(p.backoff(u32::MAX), Time::from_micros(800));
    }

    #[test]
    fn transient_failures_hit_leading_attempts_only() {
        let plan = FaultPlan::new().transient(TaskId(2), 2);
        let mut s = FaultState::new(&plan, RetryPolicy::default(), 4, 2);
        assert_eq!(s.begin_attempt(TaskId(2)), (1, Some(FaultKind::Transient)));
        assert_eq!(s.begin_attempt(TaskId(2)), (2, Some(FaultKind::Transient)));
        assert_eq!(s.begin_attempt(TaskId(2)), (3, None));
        assert_eq!(s.begin_attempt(TaskId(0)), (1, None));
    }

    #[test]
    fn corrupt_tile_is_a_one_shot_numerical_fault() {
        let plan = FaultPlan::new().corrupt_tile(TaskId(0));
        let mut s = FaultState::new(&plan, RetryPolicy::default(), 1, 1);
        assert_eq!(s.begin_attempt(TaskId(0)), (1, Some(FaultKind::Numerical)));
        assert_eq!(s.begin_attempt(TaskId(0)), (2, None));
    }

    #[test]
    fn death_triggers_on_global_start_count() {
        let plan = FaultPlan::new().kill_worker(1, 2);
        let mut s = FaultState::new(&plan, RetryPolicy::default(), 8, 3);
        assert!(!s.death_due(1));
        s.on_start();
        assert!(!s.death_due(1));
        s.on_start();
        assert!(s.death_due(1));
        assert_eq!(s.doomed_workers(), vec![1]);
        s.mark_dead(1, Time::from_millis(5));
        assert!(s.is_dead(1));
        assert!(!s.death_due(1)); // already dead
        assert_eq!(s.lost_workers(), vec![1]);
        assert!(matches!(
            s.take_events().as_slice(),
            [FaultEvent {
                kind: FaultEventKind::WorkerDied { worker: 1 },
                ..
            }]
        ));
    }

    #[test]
    fn retry_budget_exhaustion_reports_abort() {
        let policy = RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        };
        let plan = FaultPlan::new().transient(TaskId(0), 99);
        let mut s = FaultState::new(&plan, policy, 1, 1);
        s.begin_attempt(TaskId(0));
        assert!(s
            .record_failure(TaskId(0), 0, FaultKind::Transient, Time::ZERO, Time::ZERO)
            .is_some());
        s.begin_attempt(TaskId(0));
        assert!(s
            .record_failure(TaskId(0), 0, FaultKind::Transient, Time::ZERO, Time::ZERO)
            .is_none());
        let events = s.take_events();
        assert!(events.iter().any(|e| matches!(
            e.kind,
            FaultEventKind::Aborted {
                task: TaskId(0),
                attempts: 2
            }
        )));
        let outcome = s.classify(
            false,
            Some(FailureCause::RetriesExhausted {
                task: TaskId(0),
                attempts: 2,
                kind: FaultKind::Transient,
            }),
            1,
        );
        assert!(!outcome.is_success());
        assert_eq!(outcome.label(), "failed");
    }

    #[test]
    fn classification_matrix() {
        let plan = FaultPlan::new();
        let clean = FaultState::new(&plan, RetryPolicy::default(), 2, 2);
        assert_eq!(clean.classify(true, None, 0), RunOutcome::Completed);
        assert_eq!(
            clean.classify(false, None, 2),
            RunOutcome::Failed {
                cause: FailureCause::Stalled { remaining: 2 }
            }
        );
        let mut lossy = FaultState::new(&plan, RetryPolicy::default(), 2, 2);
        lossy.mark_dead(0, Time::ZERO);
        assert_eq!(
            lossy.classify(true, None, 0),
            RunOutcome::Degraded {
                lost_workers: vec![0],
                retries: 0
            }
        );
        lossy.mark_dead(1, Time::ZERO);
        assert_eq!(
            lossy.classify(false, None, 1),
            RunOutcome::Failed {
                cause: FailureCause::AllWorkersLost
            }
        );
    }

    #[test]
    fn seeded_plans_are_deterministic_and_never_kill_everyone() {
        for seed in 0..64u64 {
            let a = FaultPlan::seeded(seed, 20, 3);
            let b = FaultPlan::seeded(seed, 20, 3);
            assert_eq!(a, b, "seed {seed} not deterministic");
            assert!(!a.kills_all_workers(3), "seed {seed} kills everyone");
            assert!(!a.is_empty(), "seed {seed} produced an empty plan");
            for f in a.faults() {
                if let Fault::WorkerDeath { after_starts, .. } = f {
                    assert!((*after_starts as usize) < 20, "threshold must fire");
                }
            }
        }
        assert_ne!(
            FaultPlan::seeded(1, 20, 3),
            FaultPlan::seeded(2, 20, 3),
            "different seeds should differ"
        );
        // Single-worker platforms get no deaths (nothing could survive).
        assert!(!FaultPlan::seeded(7, 20, 1).kills_all_workers(1));
    }

    #[test]
    fn config_errors_display() {
        assert_eq!(
            ConfigError::ZeroWorkers.to_string(),
            "platform has zero workers"
        );
        assert_eq!(
            ConfigError::PlanKillsAllWorkers { n_workers: 3 }.to_string(),
            "fault plan kills all 3 workers"
        );
        assert!(FaultPlan::new().kill_worker(0, 0).kills_all_workers(1));
        assert!(!FaultPlan::new().kill_worker(0, 0).kills_all_workers(2));
    }

    #[test]
    fn choice_space_enumerates_every_single_fault_point() {
        // none + 2 workers × 4 kill thresholds + 4 transients.
        let space = FaultPlan::choice_space(4, 2);
        assert_eq!(space.len(), 1 + 2 * 4 + 4);
        assert!(space[0].is_empty());
        // Every plan is accepted by the engines' up-front validation.
        for plan in &space {
            assert!(!plan.kills_all_workers(2), "{plan:?}");
        }
        // Single-worker platforms get no death plans (nothing survives).
        let solo = FaultPlan::choice_space(3, 1);
        assert_eq!(solo.len(), 1 + 3);
        assert!(solo.iter().all(|p| !p
            .faults()
            .iter()
            .any(|f| matches!(f, Fault::WorkerDeath { .. }))));
    }

    #[test]
    fn io_fault_plans_round_trip_and_seed_deterministically() {
        let plan = IoFaultPlan::new()
            .short_write(3, 11)
            .flush_fail(2)
            .disk_full(4096);
        let back = IoFaultPlan::from_json_value(&plan.to_json_value()).expect("round trip");
        assert_eq!(plan, back);
        assert_eq!(
            plan.to_json_value().render(),
            r#"[{"kind":"short_write","append":3,"keep":11},{"kind":"flush_fail","flush":2},{"kind":"disk_full","at_bytes":4096}]"#
        );

        // Seeded plans are pure functions of the seed, carry exactly one
        // fault, and a few seeds cover every kind.
        assert_eq!(IoFaultPlan::seeded(9, 50), IoFaultPlan::seeded(9, 50));
        let mut kinds = std::collections::BTreeSet::new();
        for seed in 0..32 {
            let plan = IoFaultPlan::seeded(seed, 50);
            assert_eq!(plan.faults().len(), 1, "{plan:?}");
            kinds.insert(match plan.faults()[0] {
                IoFault::ShortWrite { .. } => "short-write",
                IoFault::FlushFail { .. } => "flush-fail",
                IoFault::DiskFull { .. } => "disk-full",
            });
        }
        assert_eq!(kinds.len(), 3, "32 seeds cover the matrix: {kinds:?}");
    }
}
