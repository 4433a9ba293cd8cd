//! Structured lint diagnostics and the JSON report.
//!
//! Unlike [`hetchol_core::schedule::Schedule::validate`], which stops at
//! the first structural error, the linter collects *every* finding into a
//! [`Report`] of [`Diagnostic`]s — each carrying a stable rule id, a
//! severity, and an optional task/worker location — so CI and the `repro
//! --analyze` harness can show the complete damage of a bad schedule at
//! once and machine-consume it as JSON.

use hetchol_core::json::escape_into;
use hetchol_core::platform::WorkerId;
use hetchol_core::task::TaskId;
use std::fmt;
use std::fmt::Write as _;

/// The lint rule catalog. Each variant has a stable kebab-case id used in
/// the JSON report and CI output; see DESIGN.md §4 for the full catalog
/// with rationale.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Entry count differs from the graph's task count.
    TaskSetSize,
    /// Entry count matches but some task is duplicated/missing.
    TaskMisnumbered,
    /// An entry references a worker outside the platform.
    BadWorker,
    /// A task ends before it starts.
    NegativeDuration,
    /// A task's duration disagrees with the timing profile (Exact mode).
    WrongDuration,
    /// A successor starts before a predecessor ends.
    DependencyViolated,
    /// Two tasks overlap on one worker.
    WorkerOverlap,
    /// Makespan beats the area lower bound — an impossible result.
    BoundArea,
    /// Makespan beats the mixed (LP) lower bound.
    BoundMixed,
    /// Makespan beats the critical-path lower bound.
    BoundCriticalPath,
    /// A hint-pinned TRSM ran off its forced resource class.
    HintConformance,
    /// Queue discipline violated: a higher-ranked queued task started
    /// after a lower-ranked one on the same worker.
    PriorityInversion,
    /// A worker idled while a startable task sat in its queue.
    IdleGap,
    /// A replayed trace deviates from its prescribed schedule.
    ReplayDivergence,
    /// An observability span is internally inconsistent or disagrees with
    /// the plain trace (phase timestamps out of order, span/event
    /// mismatch, missing spans).
    SpanConsistency,
    /// A bound verdict rests on f64 arithmetic only: either no exact
    /// certificate was supplied for the armed bounds, or the supplied one
    /// was rejected by the independent checker. Bound findings without
    /// this warning are CONFIRMED in exact rational arithmetic.
    UncertifiedBound,
    /// A fault-recovery invariant broke: a task executed on a worker at or
    /// after that worker's recorded death, or a failed attempt was neither
    /// retried to success on a then-live worker nor recorded as aborted.
    RecoveryConsistency,
    /// A trace replayed from a model-checker witness reproduces the
    /// violated invariant (CONFIRMED), or fails to (the witness is stale
    /// or the replay diverged — a warning).
    McWitness,
    /// A happens-before race or lock-order cycle witnessed by the passive
    /// sync recorder: two conflicting touchpoint accesses with no
    /// release→acquire or send→recv path between them, or a cycle in the
    /// global lock acquisition graph (potential deadlock).
    RaceWitness,
}

impl Rule {
    /// The stable kebab-case rule id.
    pub fn id(self) -> &'static str {
        match self {
            Rule::TaskSetSize => "task-set-size",
            Rule::TaskMisnumbered => "task-misnumbered",
            Rule::BadWorker => "bad-worker",
            Rule::NegativeDuration => "negative-duration",
            Rule::WrongDuration => "wrong-duration",
            Rule::DependencyViolated => "dependency-violated",
            Rule::WorkerOverlap => "worker-overlap",
            Rule::BoundArea => "bound-area",
            Rule::BoundMixed => "bound-mixed",
            Rule::BoundCriticalPath => "bound-critical-path",
            Rule::HintConformance => "hint-conformance",
            Rule::PriorityInversion => "priority-inversion",
            Rule::IdleGap => "idle-gap",
            Rule::ReplayDivergence => "replay-divergence",
            Rule::SpanConsistency => "span-consistency",
            Rule::UncertifiedBound => "uncertified-bound",
            Rule::RecoveryConsistency => "recovery-consistency",
            Rule::McWitness => "mc-witness",
            Rule::RaceWitness => "race-witness",
        }
    }

    /// All rules, for catalog listings and coverage tests.
    pub const ALL: [Rule; 19] = [
        Rule::TaskSetSize,
        Rule::TaskMisnumbered,
        Rule::BadWorker,
        Rule::NegativeDuration,
        Rule::WrongDuration,
        Rule::DependencyViolated,
        Rule::WorkerOverlap,
        Rule::BoundArea,
        Rule::BoundMixed,
        Rule::BoundCriticalPath,
        Rule::HintConformance,
        Rule::PriorityInversion,
        Rule::IdleGap,
        Rule::ReplayDivergence,
        Rule::SpanConsistency,
        Rule::UncertifiedBound,
        Rule::RecoveryConsistency,
        Rule::McWitness,
        Rule::RaceWitness,
    ];
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// How bad a finding is.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but possibly intended (e.g. an idle gap caused by a
    /// deliberate `may_start` hold).
    Warning,
    /// The artifact is invalid or physically impossible.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: Rule,
    /// Error or warning.
    pub severity: Severity,
    /// The offending task, when the finding is task-located.
    pub task: Option<TaskId>,
    /// The offending worker, when the finding is worker-located.
    pub worker: Option<WorkerId>,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.rule, self.message)
    }
}

/// The complete result of one lint pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Report {
    /// All findings, in rule-catalog order then discovery order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// `true` when nothing at all was found.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of error-severity findings.
    pub fn n_errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn n_warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Findings that fired for `rule`.
    pub fn by_rule(&self, rule: Rule) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.rule == rule).collect()
    }

    /// Whether any finding names `task`.
    pub fn names_task(&self, task: TaskId) -> bool {
        self.diagnostics.iter().any(|d| d.task == Some(task))
    }

    /// Serialize to JSON (hand-rolled; the workspace has no serde).
    ///
    /// Stable format, golden-tested:
    /// `{"errors":E,"warnings":W,"diagnostics":[{...},...]}` with each
    /// diagnostic carrying `rule`, `severity`, `task` (id or null),
    /// `worker` (id or null) and `message`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"errors\":{},\"warnings\":{},\"diagnostics\":[",
            self.n_errors(),
            self.n_warnings()
        );
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rule\":\"{}\",\"severity\":\"{}\",\"task\":{},\"worker\":{},\"message\":",
                d.rule,
                d.severity,
                d.task.map_or("null".to_string(), |t| t.index().to_string()),
                d.worker.map_or("null".to_string(), |w| w.to_string()),
            );
            escape_into(&d.message, &mut out);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_distinct_kebab_case() {
        let mut seen = std::collections::BTreeSet::new();
        for r in Rule::ALL {
            assert!(seen.insert(r.id()), "duplicate id {}", r.id());
            assert!(r.id().chars().all(|c| c.is_ascii_lowercase() || c == '-'));
        }
        assert!(seen.len() >= 8, "catalog must stay ≥ 8 rules");
    }

    #[test]
    fn messages_use_the_shared_escaper() {
        let report = Report {
            diagnostics: vec![Diagnostic {
                rule: Rule::BadWorker,
                severity: Severity::Warning,
                task: None,
                worker: Some(2),
                message: "tab\there\r\n\u{1}".to_string(),
            }],
        };
        assert_eq!(
            report.to_json(),
            "{\"errors\":0,\"warnings\":1,\"diagnostics\":[{\"rule\":\"bad-worker\",\
             \"severity\":\"warning\",\"task\":null,\"worker\":2,\
             \"message\":\"tab\\there\\r\\n\\u0001\"}]}"
        );
    }

    #[test]
    fn json_escapes_and_nulls() {
        let report = Report {
            diagnostics: vec![Diagnostic {
                rule: Rule::BadWorker,
                severity: Severity::Error,
                task: Some(TaskId(3)),
                worker: None,
                message: "say \"no\"".to_string(),
            }],
        };
        assert_eq!(
            report.to_json(),
            "{\"errors\":1,\"warnings\":0,\"diagnostics\":[{\"rule\":\"bad-worker\",\
             \"severity\":\"error\",\"task\":3,\"worker\":null,\"message\":\"say \\\"no\\\"\"}]}"
        );
    }
}
