//! Static and dynamic analysis for the hetchol execution engines.
//!
//! Three tools live here (DESIGN.md §4, §14, §16):
//!
//! * **The linter** ([`Linter`]) — a diagnostic engine over schedules and
//!   traces. Where `Schedule::validate` is a fail-fast referee, the linter
//!   reports *every* finding with a stable rule id and severity
//!   ([`Report`]), covering the structural rules plus bound consistency
//!   (a makespan below a lower bound is an impossible result), hint
//!   conformance, `dmda`/`dmdas` priority inversions, idle-gap anomalies
//!   and replay divergence. Reports serialize to JSON for CI.
//!
//! * **The model checker** ([`mc`]) — source-DPOR over the cooperative
//!   session of [`explore`], which drives the real runtime's worker
//!   threads one lock/wait/notify decision at a time and turns lost
//!   wakeups into deterministic, reportable deadlocks. [`check_model`]
//!   explores any closed system of checked-in threads; [`check_recovery`]
//!   adds fault nondeterminism (worker deaths, transient task failures)
//!   for the resilient runtime. Both check invariants at every quiescent
//!   state and minimize a finding into a replayable witness.
//!
//! * **The happens-before recorder** ([`hb`]) — a passive FastTrack-style
//!   vector-clock race detector plus lockdep-style lock-order cycle
//!   detection over the same shim event stream, for whole-process runs
//!   (including the serve layer) at real speed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod explore;
pub mod hb;
pub mod lint;
pub mod mc;

pub use diag::{Diagnostic, Report, Rule, Severity};
pub use explore::{ExploreConfig, RoundRobin};
pub use hb::{HbReport, LockCycle, RaceCandidate, RaceSide};
pub use lint::{race_report, Linter, QueueDiscipline};
pub use mc::{
    check_model, check_recovery, replay_model, replay_witness, resilient_runner, trace_invariants,
    Invariant, McReport, ModelReplay, ModelReport, RecoveryScenario, Replay, Violation, Witness,
};
