//! # hetchol-core
//!
//! Foundation types for the `hetchol` reproduction of *"Bridging the Gap
//! between Performance and Bounds of Cholesky Factorization on Heterogeneous
//! Platforms"* (Agullo et al., HCW 2015).
//!
//! This crate defines everything the rest of the workspace shares:
//!
//! * [`time`] — deterministic nanosecond time arithmetic used by the
//!   discrete-event simulator, the real runtime and the bound computations.
//! * [`kernel`] — the four Cholesky kernels (POTRF/TRSM/SYRK/GEMM), their
//!   flop counts and their multiplicities in an `n × n`-tile factorization.
//! * [`task`] — task and tile identifiers, and per-task data accesses.
//! * [`dag`] — the tiled-Cholesky task graph (Figure 1 of the paper):
//!   data-driven dependency construction, topological orders, bottom levels
//!   and critical paths.
//! * [`platform`] — heterogeneous platform descriptions (resource classes,
//!   workers, memory nodes, PCI links), including the paper's *Mirage*
//!   machine.
//! * [`profiles`] — per-(kernel, resource-class) timing profiles, the
//!   paper's Table I speedups, and the *related* platform construction of
//!   Section V-C2.
//! * [`schedule`] — explicit schedules (task → worker/start/end) and a
//!   validator that checks resource exclusivity and dependency feasibility.
//! * [`scheduler`] — the dynamic-scheduler interface shared by the
//!   simulator (`hetchol-sim`) and the real runtime (`hetchol-rt`),
//!   mirroring StarPU's push-model scheduling hooks.
//! * [`exec`] — the shared execution core both engines are built on:
//!   dependency tracking ([`exec::DepTracker`]), per-worker queues with
//!   the `dmda`/`dmdas` insertion discipline ([`exec::WorkerQueues`]) and
//!   trace recording ([`exec::TraceRecorder`]).
//! * [`fault`] — seeded, deterministic fault injection ([`fault::FaultPlan`])
//!   and the recovery vocabulary ([`fault::RetryPolicy`],
//!   [`fault::RunOutcome`], the [`fault::FaultEvent`] audit log) shared by
//!   both engines' resilient entry points.
//! * [`trace`] — per-worker execution traces (Figure 12 of the paper),
//!   idle-time accounting, ASCII Gantt rendering and per-task phase spans
//!   ([`trace::Trace::spans`]); the one record both engines write.
//! * [`obs`] — structured observability: per-task phase spans
//!   ([`obs::TaskSpan`]), the lock-cheap counter registry
//!   ([`obs::ObsCounters`]) and the Chrome-trace / utilization / summary
//!   exporters, derived from the trace when an [`obs::ObsSink`] is
//!   enabled at run construction.
//! * [`metrics`] — GFLOP/s conversions and result-series containers used by
//!   the reproduction harness.
//! * [`json`] — the one hand-rolled JSON value module (emit + parse) every
//!   exporter, validator and the `hetchol-serve` wire format build on.
//! * [`hash`] — deterministic FNV-1a content hashing for the serving
//!   layer's cache keys ([`Platform::content_hash`],
//!   [`TimingProfile::content_hash`]).

#![forbid(unsafe_code)]

pub mod algorithm;
pub mod dag;
pub mod exec;
pub mod fault;
pub mod hash;
pub mod json;
pub mod kernel;
pub mod metrics;
pub mod obs;
pub mod platform;
pub mod profiles;
pub mod schedule;
pub mod scheduler;
pub mod task;
pub mod time;
pub mod trace;

pub use algorithm::Algorithm;
pub use dag::TaskGraph;
pub use exec::{DepTracker, TraceRecorder, WorkerQueues};
pub use fault::{
    ConfigError, FailureCause, Fault, FaultEvent, FaultEventKind, FaultKind, FaultPlan, FaultState,
    RetryPolicy, RunOutcome,
};
pub use hash::ContentHasher;
pub use json::{parse_json, JsonValue};
pub use kernel::Kernel;
pub use metrics::{Figure, Point, Series};
pub use obs::{
    validate_chrome_trace, FailedAttempt, ObsCounters, ObsReport, ObsSink, TaskSpan, WorkerPhases,
};
pub use platform::{ClassId, CommModel, MemNode, Platform, ResourceClass, ResourceKind, WorkerId};
pub use profiles::TimingProfile;
pub use schedule::{DurationCheck, Schedule, ScheduleEntry, ScheduleError};
pub use scheduler::{ExecutionView, SchedContext, Scheduler, StaticView};
pub use task::{Access, AccessMode, Task, TaskCoords, TaskId, Tile};
pub use time::Time;
pub use trace::{QueueEvent, Trace, TraceEvent, TransferEvent};
