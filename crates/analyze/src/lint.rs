//! The schedule/trace linter.
//!
//! [`Linter`] runs the full rule battery over a [`Schedule`] or a
//! [`Trace`] and reports *all* findings (unlike `Schedule::validate`,
//! which is fail-fast). The structural rules mirror the validator; the
//! remaining rules need extra context the caller opts into:
//!
//! * bound consistency — give the linter a [`BoundSet`] and any makespan
//!   *below* a lower bound is flagged as physically impossible;
//! * hint conformance — declare the TRSM-triangle hint parameters and
//!   off-class placements of pinned TRSMs are flagged;
//! * queue discipline — declare `dmda` (FIFO) or `dmdas` (sorted) and the
//!   per-task spans are audited for priority inversions;
//! * idle gaps — workers idling over a startable queued task;
//! * replay divergence — give the prescribed [`Schedule`] and the trace's
//!   placements and per-worker orders are compared against the plan;
//! * span consistency — give the run's [`ObsReport`] and its phase spans
//!   are checked internally and against the plain trace.
//!
//! The queue-discipline and idle-gap rules read the trace's per-task
//! phase spans ([`Trace::spans`]: each execution joined with its last
//! enqueue) — the same derivation the [`ObsReport`] is built from, so a
//! report changes no verdict: [`Linter::with_obs`] only arms the
//! span-consistency rule.

use crate::diag::{Diagnostic, Report, Rule, Severity};
use crate::mc::Invariant;
use hetchol_bounds::cert::{Rat, VerifiedBounds};
use hetchol_bounds::{BoundSet, CertifiedBoundSet};
use hetchol_core::dag::TaskGraph;
use hetchol_core::fault::RunOutcome;
use hetchol_core::obs::{ObsReport, TaskSpan};
use hetchol_core::platform::{ClassId, Platform};
use hetchol_core::profiles::TimingProfile;
use hetchol_core::schedule::{DurationCheck, Schedule};
use hetchol_core::task::{TaskCoords, TaskId};
use hetchol_core::time::Time;
use hetchol_core::trace::Trace;

/// Which per-worker queue discipline the engine was configured with — the
/// paper's `dmda` (FIFO) versus `dmdas` (priority-sorted) distinction.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum QueueDiscipline {
    /// FIFO queues: same-worker start order must follow enqueue order.
    Fifo,
    /// Priority-sorted queues: an earlier-enqueued, higher-or-equal
    /// priority task must not start after a lower-ranked one.
    Sorted,
}

/// Relative slack applied to bound comparisons: the LP-based bounds carry
/// ~1e-4 duality gaps, so only makespans *meaningfully* below a bound are
/// impossible.
const BOUND_REL_TOL: f64 = 1e-6;

/// The diagnostic engine. Build with [`Linter::new`], opt into the
/// context-dependent rules with the builder methods, then run
/// [`Linter::lint_schedule`] or [`Linter::lint_trace`].
pub struct Linter<'a> {
    graph: &'a TaskGraph,
    platform: &'a Platform,
    profile: &'a TimingProfile,
    duration_check: DurationCheck,
    bounds: Option<BoundSet>,
    certified: Option<CertifiedBoundSet>,
    trsm_cpu_hint: Option<(u32, ClassId)>,
    queue_discipline: Option<QueueDiscipline>,
    prescribed: Option<&'a Schedule>,
    idle_gap_threshold: Time,
    obs: Option<&'a ObsReport>,
    mc_witness: Option<(Invariant, RunOutcome)>,
}

impl<'a> Linter<'a> {
    /// A linter with only the structural rules armed, checking durations
    /// exactly (the deterministic-simulation contract).
    pub fn new(
        graph: &'a TaskGraph,
        platform: &'a Platform,
        profile: &'a TimingProfile,
    ) -> Linter<'a> {
        Linter {
            graph,
            platform,
            profile,
            duration_check: DurationCheck::Exact,
            bounds: None,
            certified: None,
            trsm_cpu_hint: None,
            queue_discipline: None,
            prescribed: None,
            idle_gap_threshold: Time::from_micros(10),
            obs: None,
            mc_witness: None,
        }
    }

    /// Use `check` for the duration rule (`Loose` for wall-clock traces).
    pub fn duration_check(mut self, check: DurationCheck) -> Self {
        self.duration_check = check;
        self
    }

    /// Arm the bound-consistency rules against `bounds`, comparing in f64
    /// with `BOUND_REL_TOL` slack. Any bound finding is accompanied by
    /// an [`Rule::UncertifiedBound`] warning — use
    /// [`Linter::with_certified_bounds`] for exact verdicts.
    pub fn with_bounds(mut self, bounds: BoundSet) -> Self {
        self.bounds = Some(bounds);
        self
    }

    /// Arm the bound-consistency rules against exactly-certified bounds.
    /// The certificates are re-verified by the independent checker at lint
    /// time; when they hold, bound verdicts are issued in exact rational
    /// arithmetic (CONFIRMED errors, or FLOAT-SLOP warnings when only the
    /// tolerant f64 comparison fires). A rejected certificate downgrades
    /// to the f64 path with an [`Rule::UncertifiedBound`] warning.
    pub fn with_certified_bounds(mut self, certified: CertifiedBoundSet) -> Self {
        self.certified = Some(certified);
        self
    }

    /// Arm hint conformance: every TRSM at least `k_offset` tiles below
    /// the diagonal must run on a worker of `cpu_class`.
    pub fn with_trsm_cpu_hint(mut self, k_offset: u32, cpu_class: ClassId) -> Self {
        self.trsm_cpu_hint = Some((k_offset, cpu_class));
        self
    }

    /// Arm priority-inversion detection for the given queue discipline.
    pub fn with_queue_discipline(mut self, discipline: QueueDiscipline) -> Self {
        self.queue_discipline = Some(discipline);
        self
    }

    /// Arm replay-divergence detection against a prescribed schedule.
    pub fn with_prescribed(mut self, schedule: &'a Schedule) -> Self {
        self.prescribed = Some(schedule);
        self
    }

    /// Only report idle gaps longer than `threshold` (absorbs wall-clock
    /// scheduling latency on the real runtime; default 10 µs).
    pub fn idle_gap_threshold(mut self, threshold: Time) -> Self {
        self.idle_gap_threshold = threshold;
        self
    }

    /// Arm the span-consistency rule against the run's structured
    /// observability report: its spans must be internally ordered and
    /// equal the ones the trace derives. An [`ObsReport`] from a disabled
    /// sink is ignored.
    pub fn with_obs(mut self, obs: &'a ObsReport) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Arm rule 18 (`mc-witness`): the trace being linted was replayed
    /// from a model-checker witness recording a violation of `invariant`,
    /// and the replay classified the run as `outcome`. The rule re-runs
    /// the invariant engine ([`crate::mc::trace_invariants`]) over the
    /// trace: reproducing the recorded invariant is flagged **CONFIRMED**
    /// (an error — the witnessed bug is real in this build); a trace that
    /// checks clean, or violates a *different* invariant, gets a warning
    /// (stale witness or divergent replay).
    pub fn with_mc_witness(mut self, invariant: Invariant, outcome: RunOutcome) -> Self {
        self.mc_witness = Some((invariant, outcome));
        self
    }

    /// Lint a schedule: structural rules, bound consistency, and hint
    /// conformance.
    pub fn lint_schedule(&self, schedule: &Schedule) -> Report {
        let mut diags = Vec::new();
        self.check_structure(schedule, &mut diags);
        let task_set_ok = !diags
            .iter()
            .any(|d| matches!(d.rule, Rule::TaskSetSize | Rule::TaskMisnumbered));
        if task_set_ok {
            // An incomplete schedule has an artificially small makespan;
            // comparing it against bounds would produce phantom findings.
            self.check_bounds(schedule, &mut diags);
            self.check_hints(schedule, &mut diags);
        }
        finish(diags)
    }

    /// Lint a trace: everything [`Linter::lint_schedule`] checks on the
    /// trace's derived schedule, plus the queue-discipline, idle-gap and
    /// replay-divergence rules that need the raw event stream.
    pub fn lint_trace(&self, trace: &Trace) -> Report {
        let schedule = trace.to_schedule();
        let mut report = self.lint_schedule(&schedule);
        let mut diags = std::mem::take(&mut report.diagnostics);
        let spans = trace.spans();
        // Spans are sorted by `(start, seq)`, so each worker's list is too.
        let mut by_worker: Vec<Vec<&TaskSpan>> = vec![Vec::new(); trace.n_workers];
        for s in &spans {
            if let Some(list) = by_worker.get_mut(s.worker) {
                list.push(s);
            }
        }
        self.check_priority_inversion(&by_worker, &mut diags);
        self.check_idle_gaps(trace, &by_worker, &mut diags);
        if let Some(prescribed) = self.prescribed {
            self.check_replay(trace, prescribed, &mut diags);
        }
        self.check_span_consistency(trace, &spans, &mut diags);
        self.check_recovery_consistency(trace, &mut diags);
        self.check_mc_witness(trace, &mut diags);
        finish(diags)
    }

    /// The fail-fast validator's rules, exhaustively.
    fn check_structure(&self, schedule: &Schedule, diags: &mut Vec<Diagnostic>) {
        let entries = schedule.entries();
        if entries.len() != self.graph.len() {
            diags.push(Diagnostic {
                rule: Rule::TaskSetSize,
                severity: Severity::Error,
                task: None,
                worker: None,
                message: format!(
                    "schedule has {} entries, graph has {} tasks",
                    entries.len(),
                    self.graph.len()
                ),
            });
            // Name the missing tasks so the report localizes the damage.
            let mut present = vec![false; self.graph.len()];
            for e in entries {
                if let Some(slot) = present.get_mut(e.task.index()) {
                    *slot = true;
                }
            }
            for (idx, _) in present.iter().enumerate().filter(|(_, p)| !**p) {
                let task = TaskId(idx as u32);
                diags.push(Diagnostic {
                    rule: Rule::TaskMisnumbered,
                    severity: Severity::Error,
                    task: Some(task),
                    worker: None,
                    message: format!("{task} is missing from the schedule"),
                });
            }
        } else {
            for (idx, e) in entries.iter().enumerate() {
                if e.task.index() != idx {
                    diags.push(Diagnostic {
                        rule: Rule::TaskMisnumbered,
                        severity: Severity::Error,
                        task: Some(e.task),
                        worker: None,
                        message: format!(
                            "slot {idx} of the sorted entries holds {}: a task is duplicated or missing",
                            e.task
                        ),
                    });
                }
            }
        }
        for e in entries {
            if e.worker >= self.platform.n_workers() {
                diags.push(Diagnostic {
                    rule: Rule::BadWorker,
                    severity: Severity::Error,
                    task: Some(e.task),
                    worker: Some(e.worker),
                    message: format!(
                        "{} assigned to nonexistent worker {} (platform has {})",
                        e.task,
                        e.worker,
                        self.platform.n_workers()
                    ),
                });
                continue; // duration rules need a valid class
            }
            if e.end < e.start {
                diags.push(Diagnostic {
                    rule: Rule::NegativeDuration,
                    severity: Severity::Error,
                    task: Some(e.task),
                    worker: Some(e.worker),
                    message: format!(
                        "{} ends at {} before it starts at {}",
                        e.task, e.end, e.start
                    ),
                });
                continue;
            }
            if self.duration_check == DurationCheck::Exact && e.task.index() < self.graph.len() {
                let expected = self.profile.time(
                    self.graph.task(e.task).kernel(),
                    self.platform.class_of(e.worker),
                );
                let got = e.end - e.start;
                if got != expected {
                    diags.push(Diagnostic {
                        rule: Rule::WrongDuration,
                        severity: Severity::Error,
                        task: Some(e.task),
                        worker: Some(e.worker),
                        message: format!(
                            "{} runs for {got} on worker {}, profile says {expected}",
                            e.task, e.worker
                        ),
                    });
                }
            }
        }
        for (pred, succ) in self.graph.edges() {
            let (Some(ep), Some(es)) = (schedule.entry(pred), schedule.entry(succ)) else {
                continue; // missing entries already flagged by the set rules
            };
            if es.start < ep.end {
                diags.push(Diagnostic {
                    rule: Rule::DependencyViolated,
                    severity: Severity::Error,
                    task: Some(succ),
                    worker: Some(es.worker),
                    message: format!(
                        "{succ} starts at {} before its predecessor {pred} ends at {}",
                        es.start, ep.end
                    ),
                });
            }
        }
        let mut per_worker: Vec<Vec<usize>> = vec![Vec::new(); self.platform.n_workers()];
        for (i, e) in entries.iter().enumerate() {
            if e.worker < self.platform.n_workers() {
                per_worker[e.worker].push(i);
            }
        }
        for (worker, mut idxs) in per_worker.into_iter().enumerate() {
            idxs.sort_by_key(|&i| (entries[i].start, entries[i].end));
            for pair in idxs.windows(2) {
                let (a, b) = (&entries[pair[0]], &entries[pair[1]]);
                if b.start < a.end {
                    diags.push(Diagnostic {
                        rule: Rule::WorkerOverlap,
                        severity: Severity::Error,
                        task: Some(b.task),
                        worker: Some(worker),
                        message: format!(
                            "worker {worker}: {} starting at {} overlaps {} ending at {}",
                            b.task, b.start, a.task, a.end
                        ),
                    });
                }
            }
        }
    }

    /// Makespan must not beat any lower bound — "better than bound" means
    /// the schedule (or the bound) is wrong.
    ///
    /// With [`Linter::with_certified_bounds`] and a checker-accepted
    /// certificate the verdicts are exact; otherwise the f64 comparison
    /// applies and any finding is flagged [`Rule::UncertifiedBound`].
    fn check_bounds(&self, schedule: &Schedule, diags: &mut Vec<Diagnostic>) {
        let bounds = match (&self.certified, &self.bounds) {
            (Some(c), _) => &c.set,
            (None, Some(b)) => b,
            (None, None) => return,
        };
        let makespan = schedule.makespan();

        if let Some(certified) = &self.certified {
            match certified.verify(self.platform, self.profile) {
                Ok(verified) => {
                    self.check_bounds_exact(makespan, bounds, &verified, diags);
                    return;
                }
                Err(reject) => diags.push(Diagnostic {
                    rule: Rule::UncertifiedBound,
                    severity: Severity::Warning,
                    task: None,
                    worker: None,
                    message: format!(
                        "bound certificate rejected by the independent checker ({reject}); \
                         bound verdicts fall back to f64 arithmetic"
                    ),
                }),
            }
        }

        let before = diags.len();
        let mut check = |rule: Rule, name: &str, bound: Time| {
            let limit = bound.as_secs_f64() * (1.0 - BOUND_REL_TOL);
            if makespan.as_secs_f64() < limit {
                diags.push(Diagnostic {
                    rule,
                    severity: Severity::Error,
                    task: None,
                    worker: None,
                    message: format!(
                        "makespan {makespan} beats the {name} lower bound {bound}: impossible result"
                    ),
                });
            }
        };
        check(Rule::BoundArea, "area", bounds.area);
        check(Rule::BoundMixed, "mixed", bounds.mixed);
        check(
            Rule::BoundCriticalPath,
            "critical-path",
            bounds.critical_path,
        );
        if diags.len() > before && self.certified.is_none() {
            diags.push(Diagnostic {
                rule: Rule::UncertifiedBound,
                severity: Severity::Warning,
                task: None,
                worker: None,
                message: "bound verdicts above rest on f64 arithmetic only; certify the \
                          bounds (BoundSet::certify) for an exact-rational confirmation"
                    .to_string(),
            });
        }
    }

    /// Exact bound verdicts, available once the certificate checker has
    /// accepted the supplied certificates. The makespan is integer
    /// nanoseconds, so comparisons against the verified rational bounds
    /// (and the integer critical-path bound) are exact: violations are
    /// CONFIRMED errors, and makespans the tolerant f64 comparison would
    /// flag but the exact one does not are FLOAT-SLOP warnings.
    fn check_bounds_exact(
        &self,
        makespan: Time,
        bounds: &BoundSet,
        verified: &VerifiedBounds,
        diags: &mut Vec<Diagnostic>,
    ) {
        let mk = Rat::from_nanos(makespan.as_nanos());
        let mut check = |rule: Rule, name: &str, fbound: Time, exact: &Rat| {
            if mk < *exact {
                diags.push(Diagnostic {
                    rule,
                    severity: Severity::Error,
                    task: None,
                    worker: None,
                    message: format!(
                        "makespan {makespan} beats the {name} lower bound {fbound}: impossible \
                         result [CONFIRMED by exact-rational certificate, bound = {exact} s]"
                    ),
                });
            } else if makespan.as_secs_f64() < fbound.as_secs_f64() * (1.0 - BOUND_REL_TOL) {
                diags.push(Diagnostic {
                    rule,
                    severity: Severity::Warning,
                    task: None,
                    worker: None,
                    message: format!(
                        "f64 comparison flags makespan {makespan} as beating the {name} lower \
                         bound {fbound}, but the exact certificate (bound = {exact} s) does not \
                         confirm the violation [FLOAT-SLOP]"
                    ),
                });
            }
        };
        check(Rule::BoundArea, "area", bounds.area, &verified.area);
        check(Rule::BoundMixed, "mixed", bounds.mixed, &verified.mixed);
        // The critical-path bound is computed in integer nanoseconds and
        // needs no LP certificate: the comparison is already exact.
        if makespan < bounds.critical_path {
            diags.push(Diagnostic {
                rule: Rule::BoundCriticalPath,
                severity: Severity::Error,
                task: None,
                worker: None,
                message: format!(
                    "makespan {makespan} beats the critical-path lower bound {}: impossible \
                     result [CONFIRMED in integer nanoseconds]",
                    bounds.critical_path
                ),
            });
        }
    }

    /// Pinned TRSMs must sit on the forced class.
    fn check_hints(&self, schedule: &Schedule, diags: &mut Vec<Diagnostic>) {
        let Some((k_offset, cpu_class)) = self.trsm_cpu_hint else {
            return;
        };
        for e in schedule.entries() {
            if e.worker >= self.platform.n_workers() {
                continue;
            }
            let coords = self.graph.task(e.task).coords;
            let pinned =
                matches!(coords, TaskCoords::Trsm { .. }) && coords.diagonal_offset() >= k_offset;
            if pinned && self.platform.class_of(e.worker) != cpu_class {
                diags.push(Diagnostic {
                    rule: Rule::HintConformance,
                    severity: Severity::Error,
                    task: Some(e.task),
                    worker: Some(e.worker),
                    message: format!(
                        "{coords} is {} tiles below the diagonal (hint pins offsets ≥ {k_offset} \
                         to class {cpu_class}) but ran on worker {} of class {}",
                        coords.diagonal_offset(),
                        e.worker,
                        self.platform.class_of(e.worker)
                    ),
                });
            }
        }
    }

    /// Audit per-worker start order against the enqueue records under the
    /// declared discipline.
    fn check_priority_inversion(&self, by_worker: &[Vec<&TaskSpan>], diags: &mut Vec<Diagnostic>) {
        let Some(discipline) = self.queue_discipline else {
            return;
        };
        for (worker, evs) in by_worker.iter().enumerate() {
            for (i, b) in evs.iter().enumerate() {
                // Find an earlier-started task that was enqueued after this
                // one yet outranked it under the declared discipline.
                let offender = evs[..i].iter().find(|a| {
                    let enqueued_later = a.seq > b.seq;
                    let outranked = match discipline {
                        QueueDiscipline::Fifo => true,
                        QueueDiscipline::Sorted => b.prio >= a.prio,
                    };
                    a.start < b.start && enqueued_later && outranked
                });
                if let Some(a) = offender {
                    diags.push(Diagnostic {
                        rule: Rule::PriorityInversion,
                        severity: Severity::Warning,
                        task: Some(b.task),
                        worker: Some(worker),
                        message: format!(
                            "worker {worker}: {} (seq {}, prio {}) started after \
                             {} (seq {}, prio {}) despite outranking it under the \
                             {} discipline",
                            b.task,
                            b.seq,
                            b.prio,
                            a.task,
                            a.seq,
                            a.prio,
                            match discipline {
                                QueueDiscipline::Fifo => "FIFO",
                                QueueDiscipline::Sorted => "sorted",
                            }
                        ),
                    });
                }
            }
        }
    }

    /// A worker idling across a gap while a startable task sat in its
    /// queue is scheduling anomaly (or a deliberate `may_start` hold).
    fn check_idle_gaps(
        &self,
        trace: &Trace,
        by_worker: &[Vec<&TaskSpan>],
        diags: &mut Vec<Diagnostic>,
    ) {
        for (worker, spans) in by_worker.iter().enumerate() {
            let evs = trace.worker_events(worker);
            // Gaps: from t=0 to the first start, and between executions.
            let mut gaps: Vec<(Time, Time)> = Vec::new();
            let mut prev_end = Time::ZERO;
            for e in &evs {
                if e.start > prev_end {
                    gaps.push((prev_end, e.start));
                }
                prev_end = prev_end.max(e.end);
            }
            for (g0, g1) in gaps {
                if g1 - g0 <= self.idle_gap_threshold {
                    continue;
                }
                for r in spans {
                    if r.queued > g0 || r.data_ready > g0 {
                        continue; // not yet startable when the gap opened
                    }
                    if r.start >= g1 {
                        diags.push(Diagnostic {
                            rule: Rule::IdleGap,
                            severity: Severity::Warning,
                            task: Some(r.task),
                            worker: Some(worker),
                            message: format!(
                                "worker {worker} idled over [{g0}, {g1}) while {} (enqueued at {}, \
                                 data ready at {}) was startable in its queue",
                                r.task, r.queued, r.data_ready
                            ),
                        });
                    }
                }
            }
        }
    }

    /// The observability spans must be internally consistent and equal the
    /// spans the trace derives (armed by [`Linter::with_obs`]).
    fn check_span_consistency(
        &self,
        trace: &Trace,
        derived: &[TaskSpan],
        diags: &mut Vec<Diagnostic>,
    ) {
        let Some(obs) = self.obs.filter(|o| o.enabled) else {
            return;
        };
        if obs.spans.len() != trace.events.len() {
            diags.push(Diagnostic {
                rule: Rule::SpanConsistency,
                severity: Severity::Error,
                task: None,
                worker: None,
                message: format!(
                    "observability recorded {} spans but the trace has {} executions",
                    obs.spans.len(),
                    trace.events.len()
                ),
            });
        }
        let n_tasks = derived
            .iter()
            .map(|d| d.task.index() + 1)
            .max()
            .unwrap_or(0);
        let mut by_task: Vec<Option<&TaskSpan>> = vec![None; n_tasks];
        for d in derived {
            by_task[d.task.index()] = Some(d);
        }
        let describe = |s: &TaskSpan| {
            format!(
                "(worker {}, queued {}, data ready {}, [{}, {}), seq {}, prio {})",
                s.worker, s.queued, s.data_ready, s.start, s.end, s.seq, s.prio
            )
        };
        for s in &obs.spans {
            if s.end < s.start || s.queued > s.start {
                diags.push(Diagnostic {
                    rule: Rule::SpanConsistency,
                    severity: Severity::Error,
                    task: Some(s.task),
                    worker: Some(s.worker),
                    message: format!(
                        "{}: phase timestamps out of order (queued {}, start {}, end {})",
                        s.task, s.queued, s.start, s.end
                    ),
                });
                continue;
            }
            match by_task.get(s.task.index()).copied().flatten() {
                None => diags.push(Diagnostic {
                    rule: Rule::SpanConsistency,
                    severity: Severity::Error,
                    task: Some(s.task),
                    worker: Some(s.worker),
                    message: format!("{} has a span but no trace event", s.task),
                }),
                Some(d) if d != s => diags.push(Diagnostic {
                    rule: Rule::SpanConsistency,
                    severity: Severity::Error,
                    task: Some(s.task),
                    worker: Some(s.worker),
                    message: format!(
                        "{}: span {} disagrees with the trace's {}",
                        s.task,
                        describe(s),
                        describe(d)
                    ),
                }),
                Some(_) => {}
            }
        }
    }

    /// Fault-recovery invariants over the trace's fault-event stream
    /// (a no-op on fault-free traces, so the rule is always armed):
    ///
    /// 1. no task executes on a worker at or after that worker's recorded
    ///    death — a dead worker's queue must have been re-dispatched, not
    ///    drained by the corpse;
    /// 2. every failed attempt is eventually answered: a later successful
    ///    execution of the task on a worker still alive at that start, or
    ///    an explicit abort record. A failure that just vanishes means the
    ///    engine dropped a task on the floor.
    fn check_recovery_consistency(&self, trace: &Trace, diags: &mut Vec<Diagnostic>) {
        use hetchol_core::fault::FaultEventKind;
        if trace.fault_events.is_empty() {
            return;
        }
        let mut death: Vec<Option<Time>> = vec![None; trace.n_workers];
        for fe in &trace.fault_events {
            if let FaultEventKind::WorkerDied { worker } = fe.kind {
                if worker < trace.n_workers && death[worker].is_none() {
                    death[worker] = Some(fe.at);
                }
            }
        }
        for e in &trace.events {
            if let Some(&Some(died)) = death.get(e.worker) {
                if e.start >= died {
                    diags.push(Diagnostic {
                        rule: Rule::RecoveryConsistency,
                        severity: Severity::Error,
                        task: Some(e.task),
                        worker: Some(e.worker),
                        message: format!(
                            "{} started at {} on worker {}, which died at {died}",
                            e.task, e.start, e.worker
                        ),
                    });
                }
            }
        }
        let aborted: std::collections::BTreeSet<TaskId> = trace
            .fault_events
            .iter()
            .filter_map(|fe| match fe.kind {
                FaultEventKind::Aborted { task, .. } => Some(task),
                _ => None,
            })
            .collect();
        let mut unanswered: Vec<TaskId> = Vec::new();
        for fe in &trace.fault_events {
            let FaultEventKind::AttemptFailed { task, .. } = fe.kind else {
                continue;
            };
            if aborted.contains(&task) || unanswered.contains(&task) {
                continue;
            }
            let recovered = trace.events.iter().any(|e| {
                e.task == task
                    && e.start >= fe.at
                    && death
                        .get(e.worker)
                        .is_none_or(|d| d.is_none_or(|died| e.start < died))
            });
            if !recovered {
                unanswered.push(task);
                diags.push(Diagnostic {
                    rule: Rule::RecoveryConsistency,
                    severity: Severity::Error,
                    task: Some(task),
                    worker: None,
                    message: format!(
                        "{task} failed an attempt at {} but was neither retried to success \
                         on a live worker nor recorded as aborted",
                        fe.at
                    ),
                });
            }
        }
    }

    /// Rule 18 (`mc-witness`), armed via [`Linter::with_mc_witness`]: the
    /// trace was replayed from a model-checker witness. Re-run the model
    /// checker's invariant engine over the replayed trace and compare with
    /// the invariant the witness recorded. Reproducing it is an *error*
    /// labelled CONFIRMED — the model-checked bug is real in this build.
    /// A clean trace, or a different invariant, downgrades to a warning:
    /// the witness is stale (fixed bug) or the replay diverged.
    fn check_mc_witness(&self, trace: &Trace, diags: &mut Vec<Diagnostic>) {
        let Some((expected, outcome)) = &self.mc_witness else {
            return;
        };
        let violations = crate::mc::trace_invariants(self.graph, trace, outcome);
        match violations.iter().find(|v| v.invariant == *expected) {
            Some(v) => diags.push(Diagnostic {
                rule: Rule::McWitness,
                severity: Severity::Error,
                task: None,
                worker: None,
                message: format!(
                    "CONFIRMED: replayed witness reproduces {expected}: {}",
                    v.detail
                ),
            }),
            None => diags.push(Diagnostic {
                rule: Rule::McWitness,
                severity: Severity::Warning,
                task: None,
                worker: None,
                message: match violations.first() {
                    Some(other) => format!(
                        "replayed witness violated {} instead of the recorded {expected}",
                        other.invariant
                    ),
                    None => format!(
                        "replayed witness did not reproduce {expected}: the trace checks clean"
                    ),
                },
            }),
        }
    }

    /// The trace must follow the prescribed schedule: same placements and
    /// the same per-worker execution order.
    fn check_replay(&self, trace: &Trace, prescribed: &Schedule, diags: &mut Vec<Diagnostic>) {
        let mut diverged: Vec<TaskId> = Vec::new();
        for ev in &trace.events {
            let Some(plan) = prescribed.entry(ev.task) else {
                diags.push(Diagnostic {
                    rule: Rule::ReplayDivergence,
                    severity: Severity::Error,
                    task: Some(ev.task),
                    worker: Some(ev.worker),
                    message: format!(
                        "{} executed but absent from the prescribed schedule",
                        ev.task
                    ),
                });
                continue;
            };
            if plan.worker != ev.worker {
                diverged.push(ev.task);
                diags.push(Diagnostic {
                    rule: Rule::ReplayDivergence,
                    severity: Severity::Error,
                    task: Some(ev.task),
                    worker: Some(ev.worker),
                    message: format!(
                        "{} ran on worker {} but the prescribed schedule places it on worker {}",
                        ev.task, ev.worker, plan.worker
                    ),
                });
            }
        }
        // Per-worker order, over correctly-placed tasks only.
        for worker in 0..trace.n_workers {
            let ran: Vec<TaskId> = trace
                .worker_events(worker)
                .iter()
                .map(|e| e.task)
                .filter(|t| !diverged.contains(t))
                .collect();
            let mut planned: Vec<(Time, TaskId)> = prescribed
                .entries()
                .iter()
                .filter(|e| e.worker == worker && !diverged.contains(&e.task))
                .map(|e| (e.start, e.task))
                .collect();
            planned.sort();
            for (got, &(_, want)) in ran.iter().zip(planned.iter()) {
                if *got != want {
                    diags.push(Diagnostic {
                        rule: Rule::ReplayDivergence,
                        severity: Severity::Error,
                        task: Some(*got),
                        worker: Some(worker),
                        message: format!(
                            "worker {worker} ran {got} where the prescribed order expects {want}"
                        ),
                    });
                    break; // one order diagnostic per worker
                }
            }
        }
    }
}

/// Stable output order: rule-catalog order first, discovery order within.
fn finish(mut diags: Vec<Diagnostic>) -> Report {
    diags.sort_by_key(|d| d.rule);
    Report { diagnostics: diags }
}

/// Rule 19 (`race-witness`): convert a passive happens-before pass
/// ([`crate::hb::record`]) into the linter's report format. Every race
/// candidate and every lock-order cycle becomes one error diagnostic —
/// both are schedule-independent evidence (the vector clocks certify the
/// recorded synchronization cannot order the pair; the cycle needs no
/// timing at all), so there is no warning tier here. A clean pass yields
/// an empty report, which as usual proves only the schedules that ran.
pub fn race_report(hb: &crate::hb::HbReport) -> Report {
    let mut diags = Vec::new();
    for r in &hb.races {
        let held = |h: &[String]| {
            if h.is_empty() {
                "nothing".to_string()
            } else {
                format!("[{}]", h.join(", "))
            }
        };
        diags.push(Diagnostic {
            rule: Rule::RaceWitness,
            severity: Severity::Error,
            task: None,
            worker: None,
            message: format!(
                "data race on \"{}\": {} {} holding {} is unordered with {} {} holding {}",
                r.obj,
                r.first.thread,
                r.first.access,
                held(&r.first.held),
                r.second.thread,
                r.second.access,
                held(&r.second.held),
            ),
        });
    }
    for c in &hb.cycles {
        diags.push(Diagnostic {
            rule: Rule::RaceWitness,
            severity: Severity::Error,
            task: None,
            worker: None,
            message: format!(
                "lock-order cycle {} (potential deadlock): {}",
                c.locks.join(" -> "),
                c.chains.join("; "),
            ),
        });
    }
    finish(diags)
}
