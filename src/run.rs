//! The unified run facade: one builder over both engines.
//!
//! [`Run`] gathers everything a run needs — the task graph, a scheduler,
//! a timing profile, a worker count, and an observability sink — and then
//! dispatches to either engine from the same configuration:
//!
//! * [`Run::simulate`] drives the discrete-event simulator
//!   ([`hetchol_sim::simulate_with`]) on a [`Platform`];
//! * [`Run::execute`] drives the real multithreaded runtime
//!   ([`hetchol_rt::execute_workload`]) on a [`Workload`].
//!
//! Both paths share the execution core (`hetchol-core::exec`), so a
//! facade run is *bit-identical* to calling the engine directly with the
//! same arguments (golden-tested in `tests/cross_engine.rs`). Simulation
//! dispatch itself lives in [`crate::job::dispatch_simulate`] — the same
//! function a deserialized [`crate::job::JobSpec`] runs through, which is
//! what makes wire-submitted jobs bit-identical to direct builder calls
//! (`tests/jobspec.rs`).
//!
//! Fault injection rides on the same builder: [`Run::faults`] attaches a
//! [`FaultPlan`] and [`Run::retry`] a [`RetryPolicy`]; [`Run::try_simulate`]
//! and [`Run::try_execute`] then return typed [`ConfigError`]s for
//! impossible configurations (zero workers, a plan that kills every
//! worker) instead of hanging or panicking, and the results carry a
//! structured [`RunOutcome`](hetchol_core::fault::RunOutcome).
//!
//! ```
//! use hetchol::prelude::*;
//!
//! let graph = TaskGraph::cholesky(6);
//! let result = Run::new(&graph)
//!     .scheduler(hetchol::sched::Dmdas::new())
//!     .profile(TimingProfile::mirage())
//!     .obs(ObsSink::enabled())
//!     .simulate(&Platform::mirage(), &SimOptions::default());
//! assert_eq!(result.obs.spans.len(), graph.len());
//! ```

use hetchol_core::dag::TaskGraph;
use hetchol_core::fault::{ConfigError, FaultPlan, RetryPolicy};
use hetchol_core::obs::ObsSink;
use hetchol_core::platform::Platform;
use hetchol_core::profiles::TimingProfile;
use hetchol_core::scheduler::Scheduler;
use hetchol_rt::{RtResult, Workload};
use hetchol_sim::{SimOptions, SimResult};

/// Builder facade over both engines; see the [module docs](self).
///
/// Defaults: [`hetchol_sched::Dmdas`], [`TimingProfile::mirage`],
/// 4 workers (threaded runtime only — the simulator takes its worker
/// count from the [`Platform`]), observability disabled.
pub struct Run<'a> {
    graph: &'a TaskGraph,
    scheduler: Box<dyn Scheduler + Send + 'a>,
    profile: TimingProfile,
    workers: usize,
    obs: ObsSink,
    faults: FaultPlan,
    retry: RetryPolicy,
}

impl<'a> Run<'a> {
    /// Start configuring a run of `graph` with the defaults above.
    pub fn new(graph: &'a TaskGraph) -> Self {
        Run {
            graph,
            scheduler: Box::new(hetchol_sched::Dmdas::new()),
            profile: TimingProfile::mirage(),
            workers: 4,
            obs: ObsSink::disabled(),
            faults: FaultPlan::none(),
            retry: RetryPolicy::default(),
        }
    }

    /// Use `scheduler` instead of the default `dmdas`.
    pub fn scheduler(mut self, scheduler: impl Scheduler + Send + 'a) -> Self {
        self.scheduler = Box::new(scheduler);
        self
    }

    /// Use an already-boxed scheduler (e.g. one selected at runtime).
    pub fn scheduler_boxed(mut self, scheduler: Box<dyn Scheduler + Send + 'a>) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Use `profile` for kernel timing estimates (both engines) and
    /// durations (simulator).
    pub fn profile(mut self, profile: TimingProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Number of real worker threads for [`Run::execute`]. Ignored by
    /// [`Run::simulate`], which sizes itself from the platform.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Attach an observability sink ([`ObsSink::enabled`] samples the
    /// queue-depth, backfill and wakeup gauges, and the result's report
    /// derives spans and counters from the trace; the default disabled
    /// sink costs nothing).
    pub fn obs(mut self, obs: ObsSink) -> Self {
        self.obs = obs;
        self
    }

    /// Inject `plan` into the run (both engines). An empty plan — the
    /// default — leaves the engines on their fault-free fast path,
    /// bit-identical to not calling this at all.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Respond to injected failures with `policy` (attempt budget,
    /// exponential backoff, optional watchdog). Only consulted when a
    /// fault plan is attached.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Run the discrete-event simulator on `platform`.
    ///
    /// With a fault plan attached this delegates to the resilient engine;
    /// an impossible configuration panics — use [`Run::try_simulate`] for
    /// a typed [`ConfigError`] instead.
    pub fn simulate(self, platform: &Platform, opts: &SimOptions) -> SimResult {
        self.try_simulate(platform, opts)
            .unwrap_or_else(|e| panic!("impossible run configuration: {e}"))
    }

    /// Like [`Run::simulate`], but impossible configurations (zero
    /// workers, a plan killing every worker) come back as a
    /// [`ConfigError`].
    ///
    /// ```
    /// use hetchol::prelude::*;
    ///
    /// let graph = TaskGraph::cholesky(4);
    /// let plan = FaultPlan::new().kill_worker(1, 6);
    /// let r = Run::new(&graph)
    ///     .profile(TimingProfile::mirage_homogeneous())
    ///     .faults(plan)
    ///     .try_simulate(&Platform::homogeneous(3), &SimOptions::default())
    ///     .unwrap();
    /// assert_eq!(r.outcome.label(), "degraded");
    ///
    /// let kills_all = FaultPlan::new().kill_worker(0, 0).kill_worker(1, 0);
    /// let err = Run::new(&graph)
    ///     .faults(kills_all)
    ///     .try_simulate(&Platform::homogeneous(2), &SimOptions::default())
    ///     .unwrap_err();
    /// assert!(matches!(err, ConfigError::PlanKillsAllWorkers { .. }));
    /// ```
    pub fn try_simulate(
        mut self,
        platform: &Platform,
        opts: &SimOptions,
    ) -> Result<SimResult, ConfigError> {
        crate::job::dispatch_simulate(
            self.graph,
            platform,
            &self.profile,
            self.scheduler.as_mut(),
            opts,
            self.obs,
            &self.faults,
            &self.retry,
        )
    }

    /// Run `workload` on real threads via the task runtime.
    ///
    /// ```
    /// use hetchol::prelude::*;
    ///
    /// let graph = TaskGraph::cholesky(4);
    /// let workload = FnWorkload(|_: TaskCoords| Ok::<(), std::convert::Infallible>(()));
    /// let result: RtResult = Run::new(&graph)
    ///     .profile(TimingProfile::mirage_homogeneous())
    ///     .workers(2)
    ///     .obs(ObsSink::enabled())
    ///     .execute(&workload)
    ///     .unwrap();
    /// let report: ObsReport = result.obs;
    /// let spans: &[TaskSpan] = &report.spans;
    /// assert_eq!(spans.len(), graph.len());
    /// // Per worker, the phase accounting partitions the makespan.
    /// let phases: Vec<WorkerPhases> = report.worker_phases();
    /// assert!(phases.iter().all(|p| p.total() == report.makespan()));
    /// ```
    pub fn execute<W: Workload + ?Sized>(mut self, workload: &W) -> Result<RtResult, W::Error> {
        if !self.faults.is_empty() {
            let r = self
                .try_execute(workload)
                .unwrap_or_else(|e| panic!("impossible run configuration: {e}"));
            return Ok(r);
        }
        assert!(
            self.workers > 0,
            "impossible run configuration: {}",
            ConfigError::ZeroWorkers
        );
        hetchol_rt::execute_workload(
            workload,
            self.graph,
            self.scheduler.as_mut(),
            &self.profile,
            self.workers,
            self.obs,
        )
    }

    /// Run `workload` through the resilient runtime: the attached fault
    /// plan is injected, failures are retried per the policy, and kernel
    /// errors are folded into the result's
    /// [`RunOutcome`](hetchol_core::fault::RunOutcome) instead of aborting
    /// the run. Impossible configurations come back as [`ConfigError`]s
    /// — including `workers == 0`, which would make the legacy path hang
    /// forever waiting for threads that don't exist.
    pub fn try_execute<W: Workload + ?Sized>(
        mut self,
        workload: &W,
    ) -> Result<RtResult, ConfigError> {
        hetchol_rt::execute_resilient(
            workload,
            self.graph,
            self.scheduler.as_mut(),
            &self.profile,
            self.workers,
            self.obs,
            &self.faults,
            &self.retry,
        )
    }
}
