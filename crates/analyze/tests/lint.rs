//! Linter integration tests: clean engines lint clean, and every random
//! corruption of a valid schedule produces a diagnostic naming the
//! damaged task.

use hetchol_analyze::{Linter, QueueDiscipline, Rule};
use hetchol_bounds::BoundSet;
use hetchol_core::dag::TaskGraph;
use hetchol_core::platform::Platform;
use hetchol_core::profiles::TimingProfile;
use hetchol_core::schedule::{DurationCheck, Schedule, ScheduleEntry};
use hetchol_core::task::{TaskCoords, TaskId};
use hetchol_core::time::Time;
use hetchol_core::trace::{QueueEvent, Trace, TraceEvent};
use hetchol_sched::{Dmda, Dmdas};
use hetchol_sim::{simulate_with, SimOptions};
use proptest::prelude::*;

/// A deterministic simulated run on the paper's Mirage platform.
fn valid_run(n: usize) -> (TaskGraph, Platform, TimingProfile, Trace) {
    let graph = TaskGraph::cholesky(n);
    let platform = Platform::mirage().without_comm();
    let profile = TimingProfile::mirage();
    let r = simulate_with(
        &graph,
        &platform,
        &profile,
        &mut Dmdas::new(),
        &SimOptions::default(),
        hetchol_core::obs::ObsSink::disabled(),
    );
    (graph, platform, profile, r.trace)
}

/// A serial schedule on `worker_of(idx)`: tasks run back-to-back in id
/// (topological) order with exact profile durations, so only the rules a
/// test deliberately arms can fire.
fn serial_schedule(
    graph: &TaskGraph,
    platform: &Platform,
    profile: &TimingProfile,
    worker_of: impl Fn(usize) -> usize,
) -> Schedule {
    let mut t = Time::ZERO;
    let mut entries = Vec::with_capacity(graph.len());
    for idx in 0..graph.len() {
        let task = TaskId(idx as u32);
        let worker = worker_of(idx);
        let dur = profile.time(graph.task(task).kernel(), platform.class_of(worker));
        entries.push(ScheduleEntry {
            task,
            worker,
            start: t,
            end: t + dur,
        });
        t += dur;
    }
    Schedule::from_entries(entries)
}

fn trace_of(schedule: &Schedule, graph: &TaskGraph, n_workers: usize) -> Trace {
    Trace {
        n_workers,
        events: schedule
            .entries()
            .iter()
            .map(|e| TraceEvent {
                worker: e.worker,
                task: e.task,
                kernel: graph.task(e.task).kernel(),
                start: e.start,
                end: e.end,
            })
            .collect(),
        transfers: Vec::new(),
        queue_events: Vec::new(),
        fault_events: Vec::new(),
    }
}

#[test]
fn simulated_traces_lint_clean_with_every_rule_armed() {
    for n in 1..6 {
        let (graph, platform, profile, trace) = valid_run(n);
        let bounds = BoundSet::compute(n, &platform, &profile);
        let prescribed = trace.to_schedule();
        let report = Linter::new(&graph, &platform, &profile)
            .with_bounds(bounds)
            .with_queue_discipline(QueueDiscipline::Sorted)
            .with_prescribed(&prescribed)
            .lint_trace(&trace);
        assert!(report.is_clean(), "n={n}: {}", report.to_json());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Satellite: every random corruption of a valid schedule must be
    /// caught, with a diagnostic naming the corrupted task.
    #[test]
    fn corrupted_schedules_are_caught(
        n in 2usize..6,
        kind in 0usize..4,
        pick in 0usize..1000,
        other in 0usize..1000,
    ) {
        let (graph, platform, profile, trace) = valid_run(n);
        let mut entries = trace.to_schedule().entries().to_vec();
        let i = pick % entries.len();
        let corrupted = entries[i].task;
        let mut also_named = None;
        match kind {
            0 => {
                // Cross-class worker swap: Mirage CPU/GPU kernel times all
                // differ, so the duration can no longer match the profile.
                let cpu = platform
                    .class_of(entries[i].worker) == 0;
                entries[i].worker = if cpu { 9 } else { 0 };
            }
            1 => {
                // Stretch the execution: wrong duration.
                entries[i].end += Time::from_millis(1);
            }
            2 => {
                // Drop the entry: the set rules must name the missing task.
                entries.remove(i);
            }
            _ => {
                // Pile the task onto another entry's worker and window.
                let j = (i + 1 + other % (entries.len() - 1)) % entries.len();
                also_named = Some(entries[j].task);
                let worker = entries[j].worker;
                let start = entries[j].start;
                let dur = profile.time(
                    graph.task(corrupted).kernel(),
                    platform.class_of(worker),
                );
                entries[i].worker = worker;
                entries[i].start = start;
                entries[i].end = start + dur;
            }
        }
        let schedule = Schedule::from_entries(entries);
        let report = Linter::new(&graph, &platform, &profile).lint_schedule(&schedule);
        prop_assert!(!report.is_clean(), "kind {kind} on {corrupted} went unnoticed");
        let named = report.names_task(corrupted)
            || also_named.is_some_and(|t| report.names_task(t));
        prop_assert!(
            named,
            "kind {kind}: no diagnostic names {corrupted}: {}",
            report.to_json()
        );
    }
}

#[test]
fn golden_json_report() {
    // The JSON format is a CI interface: lock it with a golden value.
    let graph = TaskGraph::cholesky(2);
    let platform = Platform::homogeneous(2).without_comm();
    let profile = TimingProfile::mirage_homogeneous();
    let mut entries = serial_schedule(&graph, &platform, &profile, |_| 0)
        .entries()
        .to_vec();
    entries[3].worker = 99;
    let schedule = Schedule::from_entries(entries);
    let report = Linter::new(&graph, &platform, &profile).lint_schedule(&schedule);
    assert_eq!(
        report.to_json(),
        "{\"errors\":1,\"warnings\":0,\"diagnostics\":[{\"rule\":\"bad-worker\",\
         \"severity\":\"error\",\"task\":3,\"worker\":99,\
         \"message\":\"t3 assigned to nonexistent worker 99 (platform has 2)\"}]}"
    );
}

#[test]
fn impossible_makespan_trips_the_bound_rules() {
    let (graph, platform, profile, trace) = valid_run(4);
    let bounds = BoundSet::compute(4, &platform, &profile);
    // Compress the whole schedule 100×: still structurally consistent
    // under Loose durations, but the makespan beats every lower bound.
    let entries = trace
        .to_schedule()
        .entries()
        .iter()
        .map(|e| ScheduleEntry {
            task: e.task,
            worker: e.worker,
            start: Time::from_nanos(e.start.as_nanos() / 100),
            end: Time::from_nanos(e.end.as_nanos() / 100),
        })
        .collect();
    let schedule = Schedule::from_entries(entries);
    let report = Linter::new(&graph, &platform, &profile)
        .duration_check(DurationCheck::Loose)
        .with_bounds(bounds)
        .lint_schedule(&schedule);
    for rule in [Rule::BoundArea, Rule::BoundMixed, Rule::BoundCriticalPath] {
        assert!(
            !report.by_rule(rule).is_empty(),
            "{rule} did not fire: {}",
            report.to_json()
        );
    }
}

#[test]
fn off_class_pinned_trsm_trips_hint_conformance() {
    let graph = TaskGraph::cholesky(4);
    let platform = Platform::mirage().without_comm();
    let profile = TimingProfile::mirage();
    // Deepest TRSM: row 3, column 0 — three tiles below the diagonal.
    let deep = (0..graph.len())
        .map(|i| TaskId(i as u32))
        .find(|&t| {
            let c = graph.task(t).coords;
            matches!(c, TaskCoords::Trsm { .. }) && c.diagonal_offset() >= 2
        })
        .expect("cholesky(4) has a deep TRSM");
    // Serial and exactly-timed, with only the pinned TRSM on a GPU.
    let schedule = serial_schedule(&graph, &platform, &profile, |idx| {
        if idx == deep.index() {
            9
        } else {
            0
        }
    });
    let report = Linter::new(&graph, &platform, &profile)
        .with_trsm_cpu_hint(2, 0)
        .lint_schedule(&schedule);
    let hits = report.by_rule(Rule::HintConformance);
    assert_eq!(hits.len(), 1, "{}", report.to_json());
    assert_eq!(hits[0].task, Some(deep));
    assert_eq!(report.diagnostics.len(), 1, "{}", report.to_json());
}

#[test]
fn queue_inversion_trips_priority_inversion() {
    let graph = TaskGraph::cholesky(2);
    let platform = Platform::homogeneous(2).without_comm();
    let profile = TimingProfile::mirage_homogeneous();
    let schedule = serial_schedule(&graph, &platform, &profile, |_| 0);
    let mut trace = trace_of(&schedule, &graph, 2);
    // The dispatcher enqueued t2 *before* t1 (seq 1 < 2) at equal
    // priority, yet t1 started first: a sorted queue would never do that.
    for (task, seq) in [(0u32, 0u64), (1, 2), (2, 1), (3, 3)] {
        trace.queue_events.push(QueueEvent {
            worker: 0,
            task: TaskId(task),
            prio: 0,
            seq,
            at: Time::ZERO,
            data_ready: Time::ZERO,
        });
    }
    let report = Linter::new(&graph, &platform, &profile)
        .with_queue_discipline(QueueDiscipline::Sorted)
        .lint_trace(&trace);
    let hits = report.by_rule(Rule::PriorityInversion);
    assert_eq!(hits.len(), 1, "{}", report.to_json());
    assert_eq!(hits[0].task, Some(TaskId(2)));
    // FIFO is stricter: the same trace is also an inversion there.
    let fifo = Linter::new(&graph, &platform, &profile)
        .with_queue_discipline(QueueDiscipline::Fifo)
        .lint_trace(&trace);
    assert!(!fifo.by_rule(Rule::PriorityInversion).is_empty());
}

#[test]
fn ignored_startable_task_trips_idle_gap() {
    let graph = TaskGraph::cholesky(2);
    let platform = Platform::homogeneous(2).without_comm();
    let profile = TimingProfile::mirage_homogeneous();
    // t0 on worker 0; t1 parked on worker 1 but started 5 ms late even
    // though it was enqueued and data-ready from t=0; t2, t3 follow.
    let d = |t: u32| profile.time(graph.task(TaskId(t)).kernel(), 0);
    let late = d(0) + Time::from_millis(5);
    let mut t = late + d(1);
    let mut entries = vec![
        ScheduleEntry {
            task: TaskId(0),
            worker: 0,
            start: Time::ZERO,
            end: d(0),
        },
        ScheduleEntry {
            task: TaskId(1),
            worker: 1,
            start: late,
            end: late + d(1),
        },
    ];
    for task in [TaskId(2), TaskId(3)] {
        let dur = profile.time(graph.task(task).kernel(), 0);
        entries.push(ScheduleEntry {
            task,
            worker: 0,
            start: t,
            end: t + dur,
        });
        t += dur;
    }
    let schedule = Schedule::from_entries(entries);
    let mut trace = trace_of(&schedule, &graph, 2);
    for e in schedule.entries() {
        trace.queue_events.push(QueueEvent {
            worker: e.worker,
            task: e.task,
            prio: 0,
            seq: e.task.0 as u64,
            // t1 was startable from t=0; the others only from their start.
            at: if e.task == TaskId(1) {
                Time::ZERO
            } else {
                e.start
            },
            data_ready: if e.task == TaskId(1) {
                Time::ZERO
            } else {
                e.start
            },
        });
    }
    let report = Linter::new(&graph, &platform, &profile).lint_trace(&trace);
    let hits = report.by_rule(Rule::IdleGap);
    assert_eq!(hits.len(), 1, "{}", report.to_json());
    assert_eq!(hits[0].task, Some(TaskId(1)));
    assert_eq!(hits[0].worker, Some(1));
    assert_eq!(report.diagnostics.len(), 1, "{}", report.to_json());
    // A forgiving threshold silences the warning.
    let quiet = Linter::new(&graph, &platform, &profile)
        .idle_gap_threshold(Time::from_secs(1))
        .lint_trace(&trace);
    assert!(quiet.is_clean(), "{}", quiet.to_json());
}

#[test]
fn off_plan_placement_trips_replay_divergence() {
    let graph = TaskGraph::cholesky(2);
    let platform = Platform::homogeneous(2).without_comm();
    let profile = TimingProfile::mirage_homogeneous();
    let executed = serial_schedule(&graph, &platform, &profile, |_| 0);
    let trace = trace_of(&executed, &graph, 2);
    // The plan wanted t1 on worker 1.
    let mut planned = executed.entries().to_vec();
    planned[1].worker = 1;
    let prescribed = Schedule::from_entries(planned);
    let report = Linter::new(&graph, &platform, &profile)
        .with_prescribed(&prescribed)
        .lint_trace(&trace);
    let hits = report.by_rule(Rule::ReplayDivergence);
    assert_eq!(hits.len(), 1, "{}", report.to_json());
    assert_eq!(hits[0].task, Some(TaskId(1)));
    // Following the plan exactly lints clean.
    let clean = Linter::new(&graph, &platform, &profile)
        .with_prescribed(&executed)
        .lint_trace(&trace);
    assert!(clean.is_clean(), "{}", clean.to_json());
}

#[test]
fn swapped_order_trips_replay_divergence() {
    let graph = TaskGraph::cholesky(2);
    let platform = Platform::homogeneous(2).without_comm();
    let profile = TimingProfile::mirage_homogeneous();
    let executed = serial_schedule(&graph, &platform, &profile, |_| 0);
    let trace = trace_of(&executed, &graph, 2);
    // Same placements, but the plan ordered t2 before t1 on worker 0.
    let mut planned = executed.entries().to_vec();
    let (s1, e1) = (planned[1].start, planned[1].end);
    planned[1].start = planned[2].start;
    planned[1].end = planned[2].end;
    planned[2].start = s1;
    planned[2].end = e1;
    let prescribed = Schedule::from_entries(planned);
    let report = Linter::new(&graph, &platform, &profile)
        .with_prescribed(&prescribed)
        .lint_trace(&trace);
    assert!(
        !report.by_rule(Rule::ReplayDivergence).is_empty(),
        "{}",
        report.to_json()
    );
}

#[test]
fn obs_armed_runs_lint_clean_with_every_rule() {
    // The obs report's spans are derived from the trace, so an obs-armed
    // simulated run lints clean under the full rule catalog, including
    // span-consistency, which compares the report's spans with the ones
    // the linter derives from the same trace.
    for n in [2, 4] {
        let graph = TaskGraph::cholesky(n);
        let platform = Platform::mirage().without_comm();
        let profile = TimingProfile::mirage();
        let r = simulate_with(
            &graph,
            &platform,
            &profile,
            &mut Dmdas::new(),
            &SimOptions::default(),
            hetchol_core::obs::ObsSink::enabled(),
        );
        let bounds = BoundSet::compute(n, &platform, &profile);
        let prescribed = r.trace.to_schedule();
        let report = Linter::new(&graph, &platform, &profile)
            .with_bounds(bounds)
            .with_queue_discipline(QueueDiscipline::Sorted)
            .with_prescribed(&prescribed)
            .with_obs(&r.obs)
            .lint_trace(&r.trace);
        assert!(report.is_clean(), "n={n}: {}", report.to_json());
    }
}

#[test]
fn tampered_trace_trips_span_consistency() {
    let graph = TaskGraph::cholesky(2);
    let platform = Platform::mirage().without_comm();
    let profile = TimingProfile::mirage();
    let r = simulate_with(
        &graph,
        &platform,
        &profile,
        &mut Dmdas::new(),
        &SimOptions::default(),
        hetchol_core::obs::ObsSink::enabled(),
    );
    // Shift one execution: the span no longer matches the trace event.
    let mut trace = r.trace.clone();
    trace.events[1].start += Time::from_millis(1);
    trace.events[1].end += Time::from_millis(1);
    let report = Linter::new(&graph, &platform, &profile)
        .with_obs(&r.obs)
        .lint_trace(&trace);
    let hits = report.by_rule(Rule::SpanConsistency);
    assert_eq!(hits.len(), 1, "{}", report.to_json());
    assert_eq!(hits[0].task, Some(trace.events[1].task));
    // Dropping an event entirely is a span-count mismatch plus a
    // missing-event finding.
    let mut short = r.trace.clone();
    short.events.pop();
    let report = Linter::new(&graph, &platform, &profile)
        .with_obs(&r.obs)
        .lint_trace(&short);
    assert!(
        report.by_rule(Rule::SpanConsistency).len() >= 2,
        "{}",
        report.to_json()
    );
    // A disabled-sink report is ignored: no span rule fires.
    let disabled = simulate_with(
        &graph,
        &platform,
        &profile,
        &mut Dmdas::new(),
        &SimOptions::default(),
        hetchol_core::obs::ObsSink::disabled(),
    );
    let report = Linter::new(&graph, &platform, &profile)
        .with_obs(&disabled.obs)
        .lint_trace(&trace);
    assert!(report.by_rule(Rule::SpanConsistency).is_empty());
}

/// Supplying the run's report arms only the span-consistency rule: on
/// seeded-fault simulations, where retries and dead workers' queues enqueue
/// tasks more than once, linting with and without the report must give
/// identical verdicts.
#[test]
fn obs_report_changes_no_verdict_on_seeded_fault_runs() {
    use hetchol_core::fault::{FaultEventKind, FaultPlan, RetryPolicy};
    use hetchol_core::obs::ObsSink;
    use hetchol_core::scheduler::Scheduler;
    let platforms = [
        Platform::mirage(),
        Platform::mirage().without_comm(),
        Platform::homogeneous(1),
        Platform::homogeneous(3),
    ];
    let profile = TimingProfile::mirage();
    let mut retried_runs = 0;
    for n in 2..=8 {
        let graph = TaskGraph::cholesky(n);
        for (p, platform) in platforms.iter().enumerate() {
            for sorted in [false, true] {
                for seed in 0..20 {
                    let plan = FaultPlan::seeded(seed, graph.len(), platform.n_workers());
                    let simulate = |sched: &mut dyn Scheduler| {
                        hetchol_sim::simulate_resilient(
                            &graph,
                            platform,
                            &profile,
                            sched,
                            &SimOptions::default(),
                            ObsSink::enabled(),
                            &plan,
                            &RetryPolicy::default(),
                        )
                        .expect("seeded plans never kill every worker")
                    };
                    let r = if sorted {
                        simulate(&mut Dmdas::new())
                    } else {
                        simulate(&mut Dmda::new())
                    };
                    if r.trace
                        .fault_events
                        .iter()
                        .any(|fe| matches!(fe.kind, FaultEventKind::Retried { .. }))
                    {
                        retried_runs += 1;
                    }
                    let linter = || {
                        Linter::new(&graph, platform, &profile)
                            .duration_check(DurationCheck::Loose)
                            .with_queue_discipline(if sorted {
                                QueueDiscipline::Sorted
                            } else {
                                QueueDiscipline::Fifo
                            })
                    };
                    let plain = linter().lint_trace(&r.trace);
                    let with_obs = linter().with_obs(&r.obs).lint_trace(&r.trace);
                    assert_eq!(
                        plain,
                        with_obs,
                        "n={n} platform {p} sorted={sorted} seed={seed}:\n{}\n{}",
                        plain.to_json(),
                        with_obs.to_json()
                    );
                }
            }
        }
    }
    assert!(retried_runs > 0, "no seeded plan retried a task");
}

// --- Certified bound verdicts -------------------------------------------

use hetchol_analyze::Severity;

/// Certify the mirage bounds for `n` (panics are test failures).
fn certified(
    n: usize,
    platform: &Platform,
    profile: &TimingProfile,
) -> hetchol_bounds::CertifiedBoundSet {
    BoundSet::compute(n, platform, profile)
        .certify(platform, profile)
        .expect("certify")
}

#[test]
fn certified_bounds_lint_clean_on_valid_runs() {
    for n in 1..5 {
        let (graph, platform, profile, trace) = valid_run(n);
        let report = Linter::new(&graph, &platform, &profile)
            .with_certified_bounds(certified(n, &platform, &profile))
            .lint_trace(&trace);
        assert!(report.is_clean(), "n={n}: {}", report.to_json());
    }
}

#[test]
fn certified_bound_violations_are_confirmed_errors() {
    let (graph, platform, profile, trace) = valid_run(4);
    let entries = trace
        .to_schedule()
        .entries()
        .iter()
        .map(|e| ScheduleEntry {
            task: e.task,
            worker: e.worker,
            start: Time::from_nanos(e.start.as_nanos() / 100),
            end: Time::from_nanos(e.end.as_nanos() / 100),
        })
        .collect();
    let schedule = Schedule::from_entries(entries);
    let report = Linter::new(&graph, &platform, &profile)
        .duration_check(DurationCheck::Loose)
        .with_certified_bounds(certified(4, &platform, &profile))
        .lint_schedule(&schedule);
    for rule in [Rule::BoundArea, Rule::BoundMixed, Rule::BoundCriticalPath] {
        let diags = report.by_rule(rule);
        assert!(
            !diags.is_empty(),
            "{rule} did not fire: {}",
            report.to_json()
        );
        assert!(
            diags
                .iter()
                .all(|d| d.severity == Severity::Error && d.message.contains("CONFIRMED")),
            "{rule} not CONFIRMED: {}",
            report.to_json()
        );
    }
    // Exact verdicts in hand: no uncertified-bound hedge.
    assert!(report.by_rule(Rule::UncertifiedBound).is_empty());
}

#[test]
fn float_only_violations_downgrade_to_float_slop_warnings() {
    // Inflate the *stored f64* area bound past the (valid) makespan while
    // leaving the exact certificate intact: the tolerant f64 comparison
    // now flags the run, the exact one exonerates it.
    let (graph, platform, profile, trace) = valid_run(3);
    let schedule = trace.to_schedule();
    let mut cert = certified(3, &platform, &profile);
    cert.set.area = Time::from_secs_f64(schedule.makespan().as_secs_f64() * 1.01);
    let report = Linter::new(&graph, &platform, &profile)
        .with_certified_bounds(cert)
        .lint_schedule(&schedule);
    let diags = report.by_rule(Rule::BoundArea);
    assert_eq!(diags.len(), 1, "{}", report.to_json());
    assert_eq!(diags[0].severity, Severity::Warning);
    assert!(
        diags[0].message.contains("FLOAT-SLOP"),
        "{}",
        diags[0].message
    );
    assert_eq!(report.n_errors(), 0, "{}", report.to_json());
}

#[test]
fn rejected_certificates_fall_back_with_an_uncertified_warning() {
    let (graph, platform, profile, trace) = valid_run(3);
    let mut cert = certified(3, &platform, &profile);
    // Corrupt the embedded LP: the independent checker must refuse it.
    let rhs = &mut cert.area.lp.rows[0].rhs;
    *rhs = rhs.checked_add(hetchol_bounds::Rat::ONE).unwrap();
    let report = Linter::new(&graph, &platform, &profile)
        .with_certified_bounds(cert)
        .lint_trace(&trace);
    let diags = report.by_rule(Rule::UncertifiedBound);
    assert_eq!(diags.len(), 1, "{}", report.to_json());
    assert!(
        diags[0].message.contains("rejected"),
        "{}",
        diags[0].message
    );
    // The valid run still passes the f64 fallback: warning only.
    assert_eq!(report.n_errors(), 0, "{}", report.to_json());
}

#[test]
fn uncertified_float_bound_findings_carry_a_warning() {
    let (graph, platform, profile, trace) = valid_run(4);
    let bounds = BoundSet::compute(4, &platform, &profile);
    let entries = trace
        .to_schedule()
        .entries()
        .iter()
        .map(|e| ScheduleEntry {
            task: e.task,
            worker: e.worker,
            start: Time::from_nanos(e.start.as_nanos() / 100),
            end: Time::from_nanos(e.end.as_nanos() / 100),
        })
        .collect();
    let schedule = Schedule::from_entries(entries);
    let report = Linter::new(&graph, &platform, &profile)
        .duration_check(DurationCheck::Loose)
        .with_bounds(bounds)
        .lint_schedule(&schedule);
    let diags = report.by_rule(Rule::UncertifiedBound);
    assert_eq!(diags.len(), 1, "{}", report.to_json());
    assert!(diags[0].message.contains("f64"), "{}", diags[0].message);
}

// ---------------------------------------------------------------------------
// Rule 17 (recovery-consistency) golden tests
// ---------------------------------------------------------------------------

/// A degraded-but-recovered simulated run: worker 1 dies mid-schedule.
fn degraded_run() -> (TaskGraph, Platform, TimingProfile, Trace) {
    use hetchol_core::fault::{FaultPlan, RetryPolicy};
    let graph = TaskGraph::cholesky(4);
    let platform = Platform::homogeneous(3).without_comm();
    let profile = TimingProfile::mirage_homogeneous();
    let plan = FaultPlan::new().kill_worker(1, 6);
    let r = hetchol_sim::simulate_resilient(
        &graph,
        &platform,
        &profile,
        &mut Dmdas::new(),
        &SimOptions::default(),
        hetchol_core::obs::ObsSink::disabled(),
        &plan,
        &RetryPolicy::default(),
    )
    .unwrap();
    assert!(r.outcome.is_success(), "{:?}", r.outcome);
    (graph, platform, profile, r.trace)
}

#[test]
fn clean_recovery_passes_the_recovery_consistency_rule() {
    let (graph, platform, profile, trace) = degraded_run();
    let report = Linter::new(&graph, &platform, &profile)
        .duration_check(DurationCheck::Loose)
        .lint_trace(&trace);
    assert!(
        report.by_rule(Rule::RecoveryConsistency).is_empty(),
        "{}",
        report.to_json()
    );
    assert_eq!(report.n_errors(), 0, "{}", report.to_json());
}

#[test]
fn execution_after_a_recorded_death_is_flagged() {
    use hetchol_core::fault::FaultEventKind;
    let (graph, platform, profile, mut trace) = degraded_run();
    let died_at = trace
        .fault_events
        .iter()
        .find_map(|fe| match fe.kind {
            FaultEventKind::WorkerDied { worker: 1 } => Some(fe.at),
            _ => None,
        })
        .expect("the plan kills worker 1");
    // Seed the violation: teleport one post-death execution onto the
    // corpse, as a buggy engine draining a dead worker's queue would.
    let ev = trace
        .events
        .iter_mut()
        .find(|e| e.start >= died_at)
        .expect("work continues after the death");
    ev.worker = 1;
    let bad_task = ev.task;
    let report = Linter::new(&graph, &platform, &profile)
        .duration_check(DurationCheck::Loose)
        .lint_trace(&trace);
    let diags = report.by_rule(Rule::RecoveryConsistency);
    assert!(
        diags
            .iter()
            .any(|d| d.task == Some(bad_task) && d.worker == Some(1)),
        "{}",
        report.to_json()
    );
}

#[test]
fn a_failed_attempt_with_no_retry_or_abort_is_flagged() {
    use hetchol_core::fault::{FaultEvent, FaultEventKind, FaultKind};
    let (graph, platform, profile, mut trace) = valid_run(3);
    let makespan = trace.events.iter().map(|e| e.end).max().unwrap();
    let task = trace.events.last().unwrap().task;
    // A failure recorded after the task's only execution, with no abort:
    // the engine lost track of the task.
    trace.fault_events.push(FaultEvent {
        at: makespan,
        kind: FaultEventKind::AttemptFailed {
            task,
            worker: 0,
            attempt: 1,
            fault: FaultKind::Transient,
            start: makespan,
        },
    });
    let report = Linter::new(&graph, &platform, &profile).lint_trace(&trace);
    let diags = report.by_rule(Rule::RecoveryConsistency);
    assert!(
        diags.iter().any(|d| d.task == Some(task)),
        "{}",
        report.to_json()
    );
    // An explicit abort record answers the failure: the rule stands down.
    trace.fault_events.push(FaultEvent {
        at: makespan,
        kind: FaultEventKind::Aborted { task, attempts: 1 },
    });
    let report = Linter::new(&graph, &platform, &profile).lint_trace(&trace);
    assert!(
        report.by_rule(Rule::RecoveryConsistency).is_empty(),
        "{}",
        report.to_json()
    );
}

// ---------------------------------------------------------------------------
// Rule 18 (mc-witness) golden tests
// ---------------------------------------------------------------------------

/// Like [`degraded_run`], but also returns the engine's own outcome
/// classification so the mc-witness rule can re-check it.
fn degraded_run_with_outcome() -> (
    TaskGraph,
    Platform,
    TimingProfile,
    Trace,
    hetchol_core::fault::RunOutcome,
) {
    use hetchol_core::fault::{FaultPlan, RetryPolicy};
    let graph = TaskGraph::cholesky(4);
    let platform = Platform::homogeneous(3).without_comm();
    let profile = TimingProfile::mirage_homogeneous();
    let plan = FaultPlan::new().kill_worker(1, 6);
    let r = hetchol_sim::simulate_resilient(
        &graph,
        &platform,
        &profile,
        &mut Dmdas::new(),
        &SimOptions::default(),
        hetchol_core::obs::ObsSink::disabled(),
        &plan,
        &RetryPolicy::default(),
    )
    .unwrap();
    assert!(r.outcome.is_success(), "{:?}", r.outcome);
    (graph, platform, profile, r.trace, r.outcome)
}

#[test]
fn reproduced_mc_witness_is_a_confirmed_error() {
    use hetchol_analyze::Invariant;
    use hetchol_core::fault::FaultEventKind;
    let (graph, platform, profile, mut trace, outcome) = degraded_run_with_outcome();
    let died_at = trace
        .fault_events
        .iter()
        .find_map(|fe| match fe.kind {
            FaultEventKind::WorkerDied { worker: 1 } => Some(fe.at),
            _ => None,
        })
        .expect("the plan kills worker 1");
    // Seed the witnessed bug: one post-death execution on the corpse.
    let ev = trace
        .events
        .iter_mut()
        .find(|e| e.start >= died_at)
        .expect("work continues after the death");
    ev.worker = 1;
    let report = Linter::new(&graph, &platform, &profile)
        .duration_check(DurationCheck::Loose)
        .with_mc_witness(Invariant::NoExecAfterDeath, outcome)
        .lint_trace(&trace);
    let diags = report.by_rule(Rule::McWitness);
    assert_eq!(diags.len(), 1, "{}", report.to_json());
    assert_eq!(
        diags[0].severity,
        hetchol_analyze::Severity::Error,
        "{}",
        report.to_json()
    );
    assert!(
        diags[0].message.starts_with("CONFIRMED"),
        "{}",
        diags[0].message
    );
}

#[test]
fn stale_mc_witness_downgrades_to_a_warning() {
    use hetchol_analyze::Invariant;
    // The trace is the engine's own (correct) recovery: the recorded
    // violation does not reproduce, so the witness is stale — warn, don't
    // fail the build over a fixed bug.
    let (graph, platform, profile, trace, outcome) = degraded_run_with_outcome();
    let report = Linter::new(&graph, &platform, &profile)
        .duration_check(DurationCheck::Loose)
        .with_mc_witness(Invariant::NoExecAfterDeath, outcome)
        .lint_trace(&trace);
    let diags = report.by_rule(Rule::McWitness);
    assert_eq!(diags.len(), 1, "{}", report.to_json());
    assert_eq!(
        diags[0].severity,
        hetchol_analyze::Severity::Warning,
        "{}",
        report.to_json()
    );
    assert!(
        diags[0].message.contains("did not reproduce"),
        "{}",
        diags[0].message
    );
    assert_eq!(report.n_errors(), 0, "{}", report.to_json());
}
