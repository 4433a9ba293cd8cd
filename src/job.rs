//! Serializable job specifications — the wire-format twin of [`Run`](crate::Run).
//!
//! [`Run`](crate::Run) is the ergonomic in-process facade: it borrows a
//! graph and owns an `impl Scheduler`, neither of which can travel over a
//! wire. A [`JobSpec`] is the same configuration as plain data — the
//! workload and size *by name*, the platform and profile *by name*, the
//! scheduler resolved through [`hetchol_sched::registry`] — plus the
//! fault plan and retry policy, all of it (de)serializable through
//! [`hetchol_core::json`] and content-hashable for the `hetchol-serve`
//! result cache.
//!
//! Both paths funnel into one dispatch function, so a job parsed from
//! JSON runs *bit-identically* to the equivalent direct [`Run`](crate::Run) call
//! (proven in `tests/jobspec.rs`):
//!
//! ```text
//! Run::try_simulate ──┐
//!                     ├──> dispatch_simulate ──> hetchol-sim
//! JobSpec::run ───────┘
//! ```
//!
//! ```
//! use hetchol::job::{JobAction, JobSpec};
//!
//! let spec = JobSpec::new("cholesky", 8).unwrap().scheduler("dmdas");
//! let wire = spec.to_json();
//! let back = JobSpec::from_json(&wire).unwrap();
//! assert_eq!(spec, back);
//! let run = back.run().unwrap();
//! assert!(run.outcome.makespan.unwrap() > hetchol::core::time::Time::ZERO);
//! # let _ = JobAction::Simulate;
//! ```

use hetchol_analyze::{Linter, QueueDiscipline, Report};
use hetchol_bounds::BoundSet;
use hetchol_core::algorithm::Algorithm;
use hetchol_core::dag::TaskGraph;
use hetchol_core::fault::{ConfigError, FailureCause, FaultPlan, RetryPolicy, RunOutcome};
use hetchol_core::hash::{hash_hex, ContentHasher};
use hetchol_core::json::{parse_json, JsonValue};
use hetchol_core::obs::ObsSink;
use hetchol_core::platform::Platform;
use hetchol_core::profiles::TimingProfile;
use hetchol_core::schedule::DurationCheck;
use hetchol_core::scheduler::Scheduler;
use hetchol_core::task::TaskId;
use hetchol_core::time::Time;
use hetchol_sched::registry;
use hetchol_sim::{SimOptions, SimResult};
use std::fmt;

/// The platform, by name. The wire strings are `"mirage"`,
/// `"mirage-nocomm"` and `"homogeneous:<n>"`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PlatformSpec {
    /// [`Platform::mirage`] with its PCI model.
    Mirage,
    /// [`Platform::mirage`] with communications removed (Section V-C2).
    MirageNoComm,
    /// [`Platform::homogeneous`] with `n` CPU cores.
    Homogeneous(usize),
}

impl PlatformSpec {
    /// Materialize the platform.
    pub fn build(&self) -> Platform {
        match *self {
            PlatformSpec::Mirage => Platform::mirage(),
            PlatformSpec::MirageNoComm => Platform::mirage().without_comm(),
            PlatformSpec::Homogeneous(n) => Platform::homogeneous(n),
        }
    }

    /// The wire name.
    pub fn name(&self) -> String {
        match *self {
            PlatformSpec::Mirage => "mirage".into(),
            PlatformSpec::MirageNoComm => "mirage-nocomm".into(),
            PlatformSpec::Homogeneous(n) => format!("homogeneous:{n}"),
        }
    }

    /// Parse a wire name.
    pub fn parse(name: &str) -> Result<PlatformSpec, JobError> {
        match name {
            "mirage" => Ok(PlatformSpec::Mirage),
            "mirage-nocomm" => Ok(PlatformSpec::MirageNoComm),
            _ => name
                .strip_prefix("homogeneous:")
                .and_then(|n| n.parse::<usize>().ok())
                .map(PlatformSpec::Homogeneous)
                .ok_or_else(|| {
                    JobError::spec(format!(
                        "unknown platform {name:?}; known: mirage, mirage-nocomm, homogeneous:<n>"
                    ))
                }),
        }
    }
}

/// The timing profile, by name. The wire strings are `"mirage"`,
/// `"mirage-homogeneous"` and `"related:<n>"`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ProfileSpec {
    /// [`TimingProfile::mirage`] (the paper's Table I, unrelated case).
    Mirage,
    /// [`TimingProfile::mirage_homogeneous`] (CPU column only).
    MirageHomogeneous,
    /// [`TimingProfile::mirage_related`] — the related-speeds construction
    /// of Section V-C2 for an `n × n`-tile factorization.
    Related(usize),
}

impl ProfileSpec {
    /// Materialize the profile.
    pub fn build(&self) -> TimingProfile {
        match *self {
            ProfileSpec::Mirage => TimingProfile::mirage(),
            ProfileSpec::MirageHomogeneous => TimingProfile::mirage_homogeneous(),
            ProfileSpec::Related(n) => TimingProfile::mirage_related(n),
        }
    }

    /// The wire name.
    pub fn name(&self) -> String {
        match *self {
            ProfileSpec::Mirage => "mirage".into(),
            ProfileSpec::MirageHomogeneous => "mirage-homogeneous".into(),
            ProfileSpec::Related(n) => format!("related:{n}"),
        }
    }

    /// Parse a wire name.
    pub fn parse(name: &str) -> Result<ProfileSpec, JobError> {
        match name {
            "mirage" => Ok(ProfileSpec::Mirage),
            "mirage-homogeneous" => Ok(ProfileSpec::MirageHomogeneous),
            _ => name
                .strip_prefix("related:")
                .and_then(|n| n.parse::<usize>().ok())
                .map(ProfileSpec::Related)
                .ok_or_else(|| {
                    JobError::spec(format!(
                        "unknown profile {name:?}; known: mirage, mirage-homogeneous, related:<n>"
                    ))
                }),
        }
    }
}

/// What the job computes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum JobAction {
    /// Run the discrete-event simulator; report makespan/GFLOP/s/outcome.
    Simulate,
    /// Compute the paper's bound set only (no simulation).
    Bounds,
    /// Compute the bounds and certify them in exact arithmetic.
    Certify,
    /// Simulate, then lint the trace against the bounds and the structural
    /// rules; report the finding counts alongside the run summary.
    Lint,
}

impl JobAction {
    /// Stable wire label.
    pub fn label(&self) -> &'static str {
        match self {
            JobAction::Simulate => "simulate",
            JobAction::Bounds => "bounds",
            JobAction::Certify => "certify",
            JobAction::Lint => "lint",
        }
    }

    /// Parse a wire label.
    pub fn parse(label: &str) -> Result<JobAction, JobError> {
        match label {
            "simulate" => Ok(JobAction::Simulate),
            "bounds" => Ok(JobAction::Bounds),
            "certify" => Ok(JobAction::Certify),
            "lint" => Ok(JobAction::Lint),
            _ => Err(JobError::spec(format!(
                "unknown action {label:?}; known: simulate, bounds, certify, lint"
            ))),
        }
    }
}

/// Why a job was rejected. Every variant carries a stable machine-readable
/// [`code`](JobError::code) — the job API's error vocabulary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// The spec itself is malformed (bad JSON, unknown workload/platform/
    /// profile/action, incompatible profile). Code `bad-spec`.
    Spec {
        /// Human-readable description of the problem.
        detail: String,
    },
    /// The scheduler name is not in [`registry::NAMES`]. Code
    /// `unknown-scheduler`.
    UnknownScheduler(registry::UnknownScheduler),
    /// The run configuration is impossible ([`ConfigError`]). Codes
    /// `zero-workers` and `plan-kills-all-workers`.
    Config(ConfigError),
}

impl JobError {
    fn spec(detail: impl Into<String>) -> JobError {
        JobError::Spec {
            detail: detail.into(),
        }
    }

    /// Stable machine-readable error code, used verbatim in API bodies.
    pub fn code(&self) -> &'static str {
        match self {
            JobError::Spec { .. } => "bad-spec",
            JobError::UnknownScheduler(_) => "unknown-scheduler",
            JobError::Config(ConfigError::ZeroWorkers) => "zero-workers",
            JobError::Config(ConfigError::PlanKillsAllWorkers { .. }) => "plan-kills-all-workers",
        }
    }

    /// The error as the job API's JSON error body:
    /// `{"status":"error","code":...,"detail":...}`.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("status".into(), JsonValue::str("error")),
            ("code".into(), JsonValue::str(self.code())),
            ("detail".into(), JsonValue::str(self.to_string())),
        ])
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Spec { detail } => f.write_str(detail),
            JobError::UnknownScheduler(e) => e.fmt(f),
            JobError::Config(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for JobError {}

impl From<ConfigError> for JobError {
    fn from(e: ConfigError) -> JobError {
        JobError::Config(e)
    }
}

impl From<registry::UnknownScheduler> for JobError {
    fn from(e: registry::UnknownScheduler) -> JobError {
        JobError::UnknownScheduler(e)
    }
}

/// A complete, serializable run configuration. See the
/// [module docs](self) for the wire format.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// The factorization to run.
    pub workload: Algorithm,
    /// Matrix size in tiles.
    pub n: usize,
    /// The platform, by name.
    pub platform: PlatformSpec,
    /// The timing profile, by name.
    pub profile: ProfileSpec,
    /// The scheduling policy, by [`registry`] name.
    pub scheduler: String,
    /// What to compute.
    pub action: JobAction,
    /// RNG seed (stochastic schedulers, jittered durations, fault plans).
    pub seed: u64,
    /// `true` runs in the paper's "actual execution" mode
    /// ([`SimOptions::actual`]): duration jitter + per-task overhead.
    pub jitter: bool,
    /// Record structured observability (spans, counters) into the result.
    pub obs: bool,
    /// Faults to inject; the empty plan keeps the fault-free fast path.
    pub faults: FaultPlan,
    /// Recovery policy, consulted when `faults` is non-empty.
    pub retry: RetryPolicy,
    /// Serving-layer deadline in milliseconds. **Not** part of the content
    /// hash: it shapes scheduling of the job, never its result.
    pub budget_ms: Option<u64>,
}

impl JobSpec {
    /// A spec with the same defaults as [`Run::new`](crate::Run::new):
    /// `dmdas` on the Mirage platform and profile, deterministic
    /// simulation, no faults. Errors on an unknown workload name.
    pub fn new(workload: &str, n: usize) -> Result<JobSpec, JobError> {
        Ok(JobSpec {
            workload: parse_workload(workload)?,
            n,
            platform: PlatformSpec::Mirage,
            profile: ProfileSpec::Mirage,
            scheduler: "dmdas".into(),
            action: JobAction::Simulate,
            seed: 0,
            jitter: false,
            obs: false,
            faults: FaultPlan::none(),
            retry: RetryPolicy::default(),
            budget_ms: None,
        })
    }

    /// Use the named scheduling policy (validated at [`JobSpec::run`]).
    pub fn scheduler(mut self, name: impl Into<String>) -> JobSpec {
        self.scheduler = name.into();
        self
    }

    /// Use the named action.
    pub fn action(mut self, action: JobAction) -> JobSpec {
        self.action = action;
        self
    }

    /// Attach a fault plan.
    pub fn faults(mut self, plan: FaultPlan) -> JobSpec {
        self.faults = plan;
        self
    }

    /// Deterministic FNV-1a content hash over everything that determines
    /// the job's *result* — the `hetchol-serve` cache key. `budget_ms` is
    /// deliberately excluded.
    pub fn content_hash(&self) -> u64 {
        let mut h = ContentHasher::new();
        h.write_str(self.workload.label());
        h.write_usize(self.n);
        h.write_str(&self.platform.name());
        h.write_str(&self.profile.name());
        h.write_str(&self.scheduler);
        h.write_str(self.action.label());
        h.write_u64(self.seed);
        h.write_u64(self.jitter as u64);
        h.write_u64(self.obs as u64);
        h.write_usize(self.faults.faults().len());
        for f in self.faults.faults() {
            match *f {
                hetchol_core::fault::Fault::WorkerDeath {
                    worker,
                    after_starts,
                } => {
                    h.write_u64(1);
                    h.write_usize(worker);
                    h.write_u64(after_starts as u64);
                }
                hetchol_core::fault::Fault::Transient {
                    task,
                    failures,
                    kind,
                } => {
                    h.write_u64(2);
                    h.write_u64(task.index() as u64);
                    h.write_u64(failures as u64);
                    h.write_str(kind.label());
                }
                hetchol_core::fault::Fault::Straggler { worker, factor } => {
                    h.write_u64(3);
                    h.write_usize(worker);
                    h.write_f64(factor);
                }
            }
        }
        h.write_u64(self.retry.max_attempts as u64);
        h.write_u64(self.retry.backoff_base.as_nanos());
        h.write_u64(self.retry.backoff_cap.as_nanos());
        match self.retry.watchdog {
            None => h.write_u64(0),
            Some(t) => {
                h.write_u64(1);
                h.write_u64(t.as_nanos());
            }
        }
        h.finish()
    }

    /// The content hash as the 16-hex-digit wire string.
    pub fn hash_hex(&self) -> String {
        hash_hex(self.content_hash())
    }

    /// Serialize to the versioned wire object.
    pub fn to_json_value(&self) -> JsonValue {
        let mut members = vec![
            ("v".into(), JsonValue::uint(1)),
            ("workload".into(), JsonValue::str(self.workload.label())),
            ("n".into(), JsonValue::uint(self.n as u64)),
            ("platform".into(), JsonValue::str(self.platform.name())),
            ("profile".into(), JsonValue::str(self.profile.name())),
            ("scheduler".into(), JsonValue::str(&*self.scheduler)),
            ("action".into(), JsonValue::str(self.action.label())),
            ("seed".into(), JsonValue::uint(self.seed)),
            ("jitter".into(), JsonValue::Bool(self.jitter)),
            ("obs".into(), JsonValue::Bool(self.obs)),
            ("faults".into(), self.faults.to_json_value()),
            ("retry".into(), retry_to_json(&self.retry)),
        ];
        if let Some(ms) = self.budget_ms {
            members.push(("budget_ms".into(), JsonValue::uint(ms)));
        }
        JsonValue::Obj(members)
    }

    /// Compact JSON rendering of [`JobSpec::to_json_value`].
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }

    /// Parse the wire object. Optional members (`seed`, `jitter`, `obs`,
    /// `faults`, `retry`, `budget_ms`) fall back to the defaults of
    /// [`JobSpec::new`]; the scheduler name is validated eagerly so wire
    /// errors surface at submission, not execution.
    pub fn from_json_value(v: &JsonValue) -> Result<JobSpec, JobError> {
        let version = match v.get("v") {
            None => 1,
            Some(ver) => ver.as_u64().map_err(JobError::spec)?,
        };
        if version != 1 {
            return Err(JobError::spec(format!(
                "unsupported spec version {version}"
            )));
        }
        let workload = parse_workload(
            v.field("workload")
                .map_err(JobError::spec)?
                .as_str()
                .map_err(JobError::spec)?,
        )?;
        let n = v
            .field("n")
            .map_err(JobError::spec)?
            .as_u64()
            .map_err(JobError::spec)? as usize;
        let mut spec = JobSpec::new(workload.label(), n)?;
        if let Some(p) = v.get("platform") {
            spec.platform = PlatformSpec::parse(p.as_str().map_err(JobError::spec)?)?;
        }
        if let Some(p) = v.get("profile") {
            spec.profile = ProfileSpec::parse(p.as_str().map_err(JobError::spec)?)?;
        }
        if let Some(s) = v.get("scheduler") {
            spec.scheduler = s.as_str().map_err(JobError::spec)?.to_string();
        }
        registry::build(&spec.scheduler, 0)?;
        if let Some(a) = v.get("action") {
            spec.action = JobAction::parse(a.as_str().map_err(JobError::spec)?)?;
        }
        if let Some(s) = v.get("seed") {
            spec.seed = s.as_u64().map_err(JobError::spec)?;
        }
        if let Some(j) = v.get("jitter") {
            spec.jitter = j.as_bool().map_err(JobError::spec)?;
        }
        if let Some(o) = v.get("obs") {
            spec.obs = o.as_bool().map_err(JobError::spec)?;
        }
        if let Some(f) = v.get("faults") {
            spec.faults = FaultPlan::from_json_value(f).map_err(JobError::spec)?;
        }
        if let Some(r) = v.get("retry") {
            spec.retry = retry_from_json(r).map_err(JobError::spec)?;
        }
        spec.budget_ms = match v.get("budget_ms") {
            None | Some(JsonValue::Null) => None,
            Some(ms) => Some(ms.as_u64().map_err(JobError::spec)?),
        };
        Ok(spec)
    }

    /// Parse from JSON text.
    pub fn from_json(text: &str) -> Result<JobSpec, JobError> {
        JobSpec::from_json_value(&parse_json(text).map_err(JobError::spec)?)
    }

    /// Execute the job. Exactly the work a direct [`Run`](crate::Run)
    /// would do — same engine entry points, same scheduler instantiation —
    /// plus the action-specific analyses.
    pub fn run(&self) -> Result<JobRun, JobError> {
        self.run_with_bounds(None)
    }

    /// Like [`JobSpec::run`], but a matching precomputed [`BoundSet`]
    /// (same algorithm, size and tile size) substitutes for the bound
    /// computation — how the `hetchol-serve` shards splice their batched
    /// [`BoundSet::compute_batch`] results into individual jobs. A
    /// non-matching set is ignored and recomputed; bounds are pure
    /// functions of the spec, so the result is identical either way.
    pub fn run_with_bounds(&self, precomputed: Option<BoundSet>) -> Result<JobRun, JobError> {
        let mut scheduler = registry::build(&self.scheduler, self.seed)?;
        let platform = self.platform.build();
        let profile = self.profile.build();
        if profile.n_classes() < platform.n_classes() {
            return Err(JobError::spec(format!(
                "profile {} has {} resource classes but platform {} needs {}",
                self.profile.name(),
                profile.n_classes(),
                self.platform.name(),
                platform.n_classes()
            )));
        }
        let mut bounds = None;
        let mut certified = None;
        if matches!(
            self.action,
            JobAction::Bounds | JobAction::Certify | JobAction::Lint
        ) {
            let set = precomputed
                .filter(|s| s.algo == self.workload && s.n_tiles == self.n && s.nb == profile.nb())
                .unwrap_or_else(|| {
                    BoundSet::compute_algo(self.workload, self.n, &platform, &profile)
                });
            if self.action == JobAction::Certify {
                certified = Some(match set.certify(&platform, &profile) {
                    Ok(cert) => cert.verify(&platform, &profile).is_ok(),
                    Err(_) => false,
                });
            }
            bounds = Some(set);
        }

        let mut sim = None;
        let mut lint = None;
        if matches!(self.action, JobAction::Simulate | JobAction::Lint) {
            let graph = self.workload.graph(self.n);
            let opts = if self.jitter {
                SimOptions::actual(self.seed)
            } else {
                SimOptions {
                    seed: self.seed,
                    ..SimOptions::default()
                }
            };
            let obs = if self.obs {
                ObsSink::enabled()
            } else {
                ObsSink::disabled()
            };
            let result = dispatch_simulate(
                &graph,
                &platform,
                &profile,
                scheduler.as_mut(),
                &opts,
                obs,
                &self.faults,
                &self.retry,
            )?;
            if self.action == JobAction::Lint {
                lint = Some(lint_result(
                    &graph,
                    &platform,
                    &profile,
                    &*scheduler,
                    self,
                    &bounds,
                    &result,
                ));
            }
            sim = Some(result);
        }

        let outcome = JobOutcome {
            spec_hash: self.content_hash(),
            workload: self.workload,
            n: self.n,
            scheduler: self.scheduler.clone(),
            action: self.action,
            outcome: sim
                .as_ref()
                .map(|r| r.outcome.clone())
                .unwrap_or(RunOutcome::Completed),
            makespan: sim.as_ref().map(|r| r.makespan),
            gflops: sim
                .as_ref()
                .map(|r| self.workload.gflops(self.n, profile.nb(), r.makespan)),
            bounds: bounds.as_ref().map(BoundsSummary::from_set),
            certified,
            lint: lint.as_ref().map(|r: &Report| LintSummary {
                errors: r.n_errors(),
                warnings: r.n_warnings(),
            }),
        };
        Ok(JobRun {
            sim,
            bounds,
            lint,
            outcome,
        })
    }
}

fn parse_workload(name: &str) -> Result<Algorithm, JobError> {
    Algorithm::ALL
        .into_iter()
        .find(|a| a.label() == name)
        .ok_or_else(|| {
            JobError::spec(format!(
                "unknown workload {name:?}; known: cholesky, lu, qr"
            ))
        })
}

fn retry_to_json(r: &RetryPolicy) -> JsonValue {
    JsonValue::Obj(vec![
        (
            "max_attempts".into(),
            JsonValue::uint(r.max_attempts as u64),
        ),
        (
            "backoff_base_ns".into(),
            JsonValue::uint(r.backoff_base.as_nanos()),
        ),
        (
            "backoff_cap_ns".into(),
            JsonValue::uint(r.backoff_cap.as_nanos()),
        ),
        (
            "watchdog_ns".into(),
            match r.watchdog {
                None => JsonValue::Null,
                Some(t) => JsonValue::uint(t.as_nanos()),
            },
        ),
    ])
}

fn retry_from_json(v: &JsonValue) -> Result<RetryPolicy, String> {
    let mut r = RetryPolicy::default();
    if let Some(m) = v.get("max_attempts") {
        r.max_attempts = m.as_u64()? as u32;
    }
    if let Some(b) = v.get("backoff_base_ns") {
        r.backoff_base = Time::from_nanos(b.as_u64()?);
    }
    if let Some(c) = v.get("backoff_cap_ns") {
        r.backoff_cap = Time::from_nanos(c.as_u64()?);
    }
    r.watchdog = match v.get("watchdog_ns") {
        None | Some(JsonValue::Null) => None,
        Some(w) => Some(Time::from_nanos(w.as_u64()?)),
    };
    Ok(r)
}

/// Lint the finished trace with everything the spec implies: exact
/// durations for deterministic runs (loose for jittered ones), the
/// scheduler's queue discipline, the bound set, and the obs report when
/// one was recorded.
fn lint_result(
    graph: &TaskGraph,
    platform: &Platform,
    profile: &TimingProfile,
    scheduler: &dyn Scheduler,
    spec: &JobSpec,
    bounds: &Option<BoundSet>,
    result: &SimResult,
) -> Report {
    let mut linter =
        Linter::new(graph, platform, profile).with_queue_discipline(if scheduler.sorted_queues() {
            QueueDiscipline::Sorted
        } else {
            QueueDiscipline::Fifo
        });
    if spec.jitter || !spec.faults.is_empty() {
        linter = linter.duration_check(DurationCheck::Loose);
    }
    if let Some(set) = bounds {
        linter = linter.with_bounds(set.clone());
    }
    if spec.obs {
        linter = linter.with_obs(&result.obs);
    }
    linter.lint_trace(&result.trace)
}

/// The one entry point both [`Run`](crate::Run) and [`JobSpec`] dispatch
/// simulations through: fault-free configurations take the engine's fast
/// path (bit-identical to [`hetchol_sim::simulate_with`]), plans take the
/// resilient path, and impossible configurations come back as typed
/// [`ConfigError`]s.
#[allow(clippy::too_many_arguments)]
pub fn dispatch_simulate(
    graph: &TaskGraph,
    platform: &Platform,
    profile: &TimingProfile,
    scheduler: &mut dyn Scheduler,
    opts: &SimOptions,
    obs: ObsSink,
    faults: &FaultPlan,
    retry: &RetryPolicy,
) -> Result<SimResult, ConfigError> {
    if faults.is_empty() {
        if platform.n_workers() == 0 {
            return Err(ConfigError::ZeroWorkers);
        }
        return Ok(hetchol_sim::simulate_with(
            graph, platform, profile, scheduler, opts, obs,
        ));
    }
    hetchol_sim::simulate_resilient(
        graph, platform, profile, scheduler, opts, obs, faults, retry,
    )
}

/// The paper's bound set, summarized for the wire.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct BoundsSummary {
    /// Critical-path makespan lower bound.
    pub critical_path: Time,
    /// Area-bound makespan lower bound.
    pub area: Time,
    /// Mixed-bound makespan lower bound.
    pub mixed: Time,
    /// Best-kernel aggregate peak in GFLOP/s.
    pub gemm_peak_gflops: f64,
    /// The tightest makespan lower bound of the set.
    pub best: Time,
}

impl BoundsSummary {
    fn from_set(set: &BoundSet) -> BoundsSummary {
        BoundsSummary {
            critical_path: set.critical_path,
            area: set.area,
            mixed: set.mixed,
            gemm_peak_gflops: set.gemm_peak,
            best: set.best(),
        }
    }

    fn to_json_value(self) -> JsonValue {
        JsonValue::Obj(vec![
            (
                "critical_path_ns".into(),
                JsonValue::uint(self.critical_path.as_nanos()),
            ),
            ("area_ns".into(), JsonValue::uint(self.area.as_nanos())),
            ("mixed_ns".into(), JsonValue::uint(self.mixed.as_nanos())),
            (
                "gemm_peak_gflops".into(),
                JsonValue::num(self.gemm_peak_gflops),
            ),
            ("best_ns".into(), JsonValue::uint(self.best.as_nanos())),
        ])
    }

    fn from_json_value(v: &JsonValue) -> Result<BoundsSummary, String> {
        Ok(BoundsSummary {
            critical_path: Time::from_nanos(v.field("critical_path_ns")?.as_u64()?),
            area: Time::from_nanos(v.field("area_ns")?.as_u64()?),
            mixed: Time::from_nanos(v.field("mixed_ns")?.as_u64()?),
            gemm_peak_gflops: v.field("gemm_peak_gflops")?.as_f64()?,
            best: Time::from_nanos(v.field("best_ns")?.as_u64()?),
        })
    }
}

/// Lint finding counts, summarized for the wire.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LintSummary {
    /// Error-severity findings.
    pub errors: usize,
    /// Warning-severity findings.
    pub warnings: usize,
}

/// The serializable result summary of one job.
#[derive(Clone, Debug, PartialEq)]
pub struct JobOutcome {
    /// [`JobSpec::content_hash`] of the spec that produced this.
    pub spec_hash: u64,
    /// Echoed workload.
    pub workload: Algorithm,
    /// Echoed size in tiles.
    pub n: usize,
    /// Echoed scheduler name.
    pub scheduler: String,
    /// Echoed action.
    pub action: JobAction,
    /// How the run ended ([`RunOutcome::Completed`] for bound-only jobs).
    pub outcome: RunOutcome,
    /// Simulated makespan (simulate/lint actions).
    pub makespan: Option<Time>,
    /// Achieved GFLOP/s (simulate/lint actions).
    pub gflops: Option<f64>,
    /// Bound summary (bounds/certify/lint actions).
    pub bounds: Option<BoundsSummary>,
    /// Whether exact certification succeeded (certify action).
    pub certified: Option<bool>,
    /// Lint finding counts (lint action).
    pub lint: Option<LintSummary>,
}

impl JobOutcome {
    /// Serialize to the wire object (`{"status":"ok", ...}`).
    pub fn to_json_value(&self) -> JsonValue {
        let mut members = vec![
            ("status".into(), JsonValue::str("ok")),
            ("spec_hash".into(), JsonValue::str(hash_hex(self.spec_hash))),
            ("workload".into(), JsonValue::str(self.workload.label())),
            ("n".into(), JsonValue::uint(self.n as u64)),
            ("scheduler".into(), JsonValue::str(&*self.scheduler)),
            ("action".into(), JsonValue::str(self.action.label())),
            ("outcome".into(), outcome_to_json(&self.outcome)),
        ];
        if let Some(m) = self.makespan {
            members.push(("makespan_ns".into(), JsonValue::uint(m.as_nanos())));
        }
        if let Some(g) = self.gflops {
            members.push(("gflops".into(), JsonValue::num(g)));
        }
        if let Some(b) = &self.bounds {
            members.push(("bounds".into(), b.to_json_value()));
        }
        if let Some(c) = self.certified {
            members.push(("certified".into(), JsonValue::Bool(c)));
        }
        if let Some(l) = self.lint {
            members.push((
                "lint".into(),
                JsonValue::Obj(vec![
                    ("errors".into(), JsonValue::uint(l.errors as u64)),
                    ("warnings".into(), JsonValue::uint(l.warnings as u64)),
                ]),
            ));
        }
        JsonValue::Obj(members)
    }

    /// Compact JSON rendering.
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }

    /// Parse the wire object back (the client half of the API).
    pub fn from_json_value(v: &JsonValue) -> Result<JobOutcome, String> {
        let status = v.field("status")?.as_str()?;
        if status != "ok" {
            return Err(format!("not a job outcome: status {status:?}"));
        }
        let hex = v.field("spec_hash")?.as_str()?;
        let spec_hash =
            u64::from_str_radix(hex, 16).map_err(|e| format!("bad spec_hash {hex:?}: {e}"))?;
        let workload_label = v.field("workload")?.as_str()?;
        let workload = Algorithm::ALL
            .into_iter()
            .find(|a| a.label() == workload_label)
            .ok_or_else(|| format!("unknown workload {workload_label:?}"))?;
        Ok(JobOutcome {
            spec_hash,
            workload,
            n: v.field("n")?.as_u64()? as usize,
            scheduler: v.field("scheduler")?.as_str()?.to_string(),
            action: JobAction::parse(v.field("action")?.as_str()?).map_err(|e| e.to_string())?,
            outcome: outcome_from_json(v.field("outcome")?)?,
            makespan: match v.get("makespan_ns") {
                None => None,
                Some(m) => Some(Time::from_nanos(m.as_u64()?)),
            },
            gflops: match v.get("gflops") {
                None => None,
                Some(g) => Some(g.as_f64()?),
            },
            bounds: match v.get("bounds") {
                None => None,
                Some(b) => Some(BoundsSummary::from_json_value(b)?),
            },
            certified: match v.get("certified") {
                None => None,
                Some(c) => Some(c.as_bool()?),
            },
            lint: match v.get("lint") {
                None => None,
                Some(l) => Some(LintSummary {
                    errors: l.field("errors")?.as_u64()? as usize,
                    warnings: l.field("warnings")?.as_u64()? as usize,
                }),
            },
        })
    }

    /// Parse from JSON text.
    pub fn from_json(text: &str) -> Result<JobOutcome, String> {
        JobOutcome::from_json_value(&parse_json(text)?)
    }
}

/// `RunOutcome` on the wire:
/// `{"label":"completed"}`,
/// `{"label":"degraded","lost_workers":[...],"retries":N}` or
/// `{"label":"failed","cause":{...}}`.
pub fn outcome_to_json(outcome: &RunOutcome) -> JsonValue {
    match outcome {
        RunOutcome::Completed => {
            JsonValue::Obj(vec![("label".into(), JsonValue::str("completed"))])
        }
        RunOutcome::Degraded {
            lost_workers,
            retries,
        } => JsonValue::Obj(vec![
            ("label".into(), JsonValue::str("degraded")),
            (
                "lost_workers".into(),
                JsonValue::Arr(
                    lost_workers
                        .iter()
                        .map(|&w| JsonValue::uint(w as u64))
                        .collect(),
                ),
            ),
            ("retries".into(), JsonValue::uint(*retries)),
        ]),
        RunOutcome::Failed { cause } => JsonValue::Obj(vec![
            ("label".into(), JsonValue::str("failed")),
            ("cause".into(), cause_to_json(cause)),
        ]),
    }
}

/// Parse the wire shape emitted by [`outcome_to_json`].
pub fn outcome_from_json(v: &JsonValue) -> Result<RunOutcome, String> {
    match v.field("label")?.as_str()? {
        "completed" => Ok(RunOutcome::Completed),
        "degraded" => Ok(RunOutcome::Degraded {
            lost_workers: v
                .field("lost_workers")?
                .as_arr()?
                .iter()
                .map(|w| w.as_u64().map(|w| w as usize))
                .collect::<Result<Vec<_>, _>>()?,
            retries: v.field("retries")?.as_u64()?,
        }),
        "failed" => Ok(RunOutcome::Failed {
            cause: cause_from_json(v.field("cause")?)?,
        }),
        other => Err(format!("unknown outcome label {other:?}")),
    }
}

fn cause_to_json(cause: &FailureCause) -> JsonValue {
    match cause {
        FailureCause::RetriesExhausted {
            task,
            attempts,
            kind,
        } => JsonValue::Obj(vec![
            ("kind".into(), JsonValue::str("retries-exhausted")),
            ("task".into(), JsonValue::uint(task.index() as u64)),
            ("attempts".into(), JsonValue::uint(*attempts as u64)),
            ("fault".into(), JsonValue::str(kind.label())),
        ]),
        FailureCause::AllWorkersLost => {
            JsonValue::Obj(vec![("kind".into(), JsonValue::str("all-workers-lost"))])
        }
        FailureCause::Kernel { task, detail } => JsonValue::Obj(vec![
            ("kind".into(), JsonValue::str("kernel")),
            ("task".into(), JsonValue::uint(task.index() as u64)),
            ("detail".into(), JsonValue::str(&**detail)),
        ]),
        FailureCause::Stalled { remaining } => JsonValue::Obj(vec![
            ("kind".into(), JsonValue::str("stalled")),
            ("remaining".into(), JsonValue::uint(*remaining as u64)),
        ]),
    }
}

fn cause_from_json(v: &JsonValue) -> Result<FailureCause, String> {
    match v.field("kind")?.as_str()? {
        "retries-exhausted" => {
            let label = v.field("fault")?.as_str()?;
            Ok(FailureCause::RetriesExhausted {
                task: TaskId(v.field("task")?.as_u64()? as u32),
                attempts: v.field("attempts")?.as_u64()? as u32,
                kind: hetchol_core::fault::FaultKind::from_label(label)
                    .ok_or_else(|| format!("unknown fault kind label {label:?}"))?,
            })
        }
        "all-workers-lost" => Ok(FailureCause::AllWorkersLost),
        "kernel" => Ok(FailureCause::Kernel {
            task: TaskId(v.field("task")?.as_u64()? as u32),
            detail: v.field("detail")?.as_str()?.to_string(),
        }),
        "stalled" => Ok(FailureCause::Stalled {
            remaining: v.field("remaining")?.as_u64()? as usize,
        }),
        other => Err(format!("unknown failure cause kind {other:?}")),
    }
}

/// Everything [`JobSpec::run`] produced: the full engine results (trace,
/// obs, bound set, lint report) for callers that inspect the run — the
/// serve layer renders the trace from `sim` and answers
/// `GET /jobs/<id>/lint` from `lint` — plus the serializable
/// [`JobOutcome`] summary.
#[derive(Debug)]
pub struct JobRun {
    /// The full simulation result (simulate/lint actions).
    pub sim: Option<SimResult>,
    /// The full bound set (bounds/certify/lint actions).
    pub bounds: Option<BoundSet>,
    /// The full lint report (lint action).
    pub lint: Option<Report>,
    /// The serializable summary.
    pub outcome: JobOutcome,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetchol_core::fault::Fault;

    #[test]
    fn spec_json_round_trip_preserves_everything() {
        let mut spec = JobSpec::new("lu", 6).unwrap().scheduler("triangle:4");
        spec.platform = PlatformSpec::Homogeneous(5);
        spec.profile = ProfileSpec::MirageHomogeneous;
        spec.action = JobAction::Lint;
        spec.seed = 42;
        spec.jitter = true;
        spec.obs = true;
        spec.faults = FaultPlan::new()
            .kill_worker(2, 6)
            .transient(TaskId(3), 1)
            .straggler(1, 3.5);
        spec.retry = RetryPolicy {
            max_attempts: 7,
            backoff_base: Time::from_micros(50),
            backoff_cap: Time::from_millis(2),
            watchdog: Some(Time::from_millis(100)),
        };
        spec.budget_ms = Some(1500);
        let back = JobSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(spec, back);
        assert_eq!(spec.content_hash(), back.content_hash());
    }

    #[test]
    fn budget_is_not_part_of_the_content_hash() {
        let a = JobSpec::new("cholesky", 4).unwrap();
        let mut b = a.clone();
        b.budget_ms = Some(10);
        assert_eq!(a.content_hash(), b.content_hash());
        let mut c = a.clone();
        c.seed = 1;
        assert_ne!(a.content_hash(), c.content_hash());
    }

    #[test]
    fn unknown_names_have_stable_codes() {
        assert_eq!(
            JobSpec::from_json(r#"{"workload":"svd","n":4}"#)
                .unwrap_err()
                .code(),
            "bad-spec"
        );
        assert_eq!(
            JobSpec::from_json(r#"{"workload":"cholesky","n":4,"scheduler":"dmdax"}"#)
                .unwrap_err()
                .code(),
            "unknown-scheduler"
        );
        let kills_all = JobSpec::new("cholesky", 4)
            .unwrap()
            .faults(FaultPlan::new().kill_worker(0, 0).kill_worker(1, 0));
        let mut kills_all = kills_all;
        kills_all.platform = PlatformSpec::Homogeneous(2);
        kills_all.profile = ProfileSpec::MirageHomogeneous;
        let err = kills_all.run().unwrap_err();
        assert_eq!(err.code(), "plan-kills-all-workers");
        // Error bodies carry the code verbatim.
        let body = err.to_json_value().render();
        assert!(
            body.contains(r#""code":"plan-kills-all-workers""#),
            "{body}"
        );
    }

    #[test]
    fn bounds_action_reports_the_figure_2_set() {
        let mut spec = JobSpec::new("cholesky", 8).unwrap();
        spec.action = JobAction::Bounds;
        let run = spec.run().unwrap();
        assert!(run.sim.is_none());
        let b = run.outcome.bounds.unwrap();
        assert!(b.best >= b.mixed && b.mixed >= Time::ZERO);
        assert!(b.gemm_peak_gflops > 0.0);
        assert_eq!(run.outcome.outcome, RunOutcome::Completed);
    }

    #[test]
    fn lint_action_is_clean_on_deterministic_runs() {
        let mut spec = JobSpec::new("cholesky", 6).unwrap();
        spec.action = JobAction::Lint;
        spec.obs = true;
        let run = spec.run().unwrap();
        let lint = run.outcome.lint.unwrap();
        assert_eq!(lint.errors, 0, "{:?}", run.lint);
        assert!(run.sim.is_some());
    }

    #[test]
    fn outcome_json_round_trips_through_the_client_parser() {
        let mut spec = JobSpec::new("cholesky", 6).unwrap();
        spec.platform = PlatformSpec::Homogeneous(3);
        spec.profile = ProfileSpec::MirageHomogeneous;
        spec.faults = FaultPlan::new().kill_worker(1, 6);
        let run = spec.run().unwrap();
        assert_eq!(run.outcome.outcome.label(), "degraded");
        let back = JobOutcome::from_json(&run.outcome.to_json()).unwrap();
        assert_eq!(run.outcome, back);
    }

    #[test]
    fn fault_wire_shape_round_trips() {
        for fault in [
            Fault::WorkerDeath {
                worker: 3,
                after_starts: 9,
            },
            Fault::Transient {
                task: TaskId(5),
                failures: 2,
                kind: hetchol_core::fault::FaultKind::Numerical,
            },
            Fault::Straggler {
                worker: 1,
                factor: 2.5,
            },
        ] {
            let back = Fault::from_json_value(&fault.to_json_value()).unwrap();
            assert_eq!(fault, back);
        }
    }
}
