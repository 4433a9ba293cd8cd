//! Fault-injection integration tests spanning both engines: the PR's
//! acceptance scenario (a worker killed mid-schedule degrades but stays
//! numerically correct, with the same classification in sim and rt),
//! retry-exhaustion determinism, backoff-cap behavior, configuration
//! rejection, and a property sweep over every (worker, death point).

use hetchol::core::dag::TaskGraph;
use hetchol::core::fault::{
    ConfigError, FailureCause, FaultEvent, FaultEventKind, FaultKind, FaultPlan, RetryPolicy,
    RunOutcome,
};
use hetchol::core::obs::ObsSink;
use hetchol::core::platform::Platform;
use hetchol::core::profiles::TimingProfile;
use hetchol::core::time::Time;
use hetchol::linalg::matrix::TiledMatrix;
use hetchol::linalg::{factorization_residual, random_spd, tiled_cholesky_in_place};
use hetchol::prelude::*;
use hetchol::rt::{execute_resilient, CholeskyWorkload};
use hetchol::sched::Dmdas;
use hetchol::sim::{simulate_resilient, SimOptions};
use proptest::prelude::*;

/// The acceptance scenario: one worker killed mid-schedule. The simulator
/// must degrade and still describe a correct factorization; the identical
/// plan on the real runtime must produce the same outcome classification
/// and a verified factor.
#[test]
fn killed_worker_degrades_identically_in_both_engines() {
    let n_tiles = 4;
    let nb = 8;
    let n_workers = 3;
    let graph = TaskGraph::cholesky(n_tiles);
    let profile = TimingProfile::mirage_homogeneous();
    let platform = Platform::homogeneous(n_workers).without_comm();
    let plan = FaultPlan::new().kill_worker(1, 6);
    let policy = RetryPolicy::default();

    let sim = simulate_resilient(
        &graph,
        &platform,
        &profile,
        &mut Dmdas::new(),
        &SimOptions::default(),
        ObsSink::disabled(),
        &plan,
        &policy,
    )
    .unwrap();
    let RunOutcome::Degraded { lost_workers, .. } = &sim.outcome else {
        panic!("sim outcome {:?}", sim.outcome);
    };
    assert_eq!(lost_workers, &[1]);
    // Every task still ran, and the simulated schedule replays to a
    // correct factorization on real data.
    assert_eq!(sim.trace.events.len(), graph.len());
    let a = random_spd(n_tiles * nb, 7);
    let locked = hetchol::rt::LockedTiledMatrix::from_tiled(&TiledMatrix::from_dense(&a, nb));
    let mut events = sim.trace.events.clone();
    events.sort_by_key(|e| (e.start, e.end));
    for e in &events {
        locked.apply_task(graph.task(e.task).coords).unwrap();
    }
    assert!(factorization_residual(&a, &locked.to_tiled()) < 1e-10);

    let workload = CholeskyWorkload::new(&TiledMatrix::from_dense(&a, nb));
    let rt = execute_resilient(
        &workload,
        &graph,
        &mut Dmdas::new(),
        &profile,
        n_workers,
        ObsSink::disabled(),
        &plan,
        &policy,
    )
    .unwrap();
    let RunOutcome::Degraded { lost_workers, .. } = &rt.outcome else {
        panic!("rt outcome {:?}", rt.outcome);
    };
    assert_eq!(lost_workers, &[1], "same classification as the simulator");
    assert!(factorization_residual(&a, &workload.into_matrix()) < 1e-10);
}

/// Retry exhaustion is deterministic and classified the same way by both
/// engines: the failing task, the attempt count, and the fault kind all
/// survive into the outcome.
#[test]
fn retry_exhaustion_fails_identically_in_both_engines() {
    let graph = TaskGraph::cholesky(4);
    let profile = TimingProfile::mirage_homogeneous();
    let entry = graph.entry_tasks()[0];
    let plan = FaultPlan::new().transient(entry, 99);
    let policy = RetryPolicy {
        max_attempts: 3,
        ..RetryPolicy::default()
    };

    let sim = simulate_resilient(
        &graph,
        &Platform::homogeneous(3).without_comm(),
        &profile,
        &mut Dmdas::new(),
        &SimOptions::default(),
        ObsSink::disabled(),
        &plan,
        &policy,
    )
    .unwrap();
    let expected = RunOutcome::Failed {
        cause: FailureCause::RetriesExhausted {
            task: entry,
            attempts: 3,
            kind: FaultKind::Transient,
        },
    };
    assert_eq!(sim.outcome, expected);

    let workload = FnWorkload(|_| Ok::<(), std::convert::Infallible>(()));
    let rt = execute_resilient(
        &workload,
        &graph,
        &mut Dmdas::new(),
        &profile,
        3,
        ObsSink::disabled(),
        &plan,
        &policy,
    )
    .unwrap();
    assert_eq!(rt.outcome, expected);
}

/// `(kind, start, failed at)` of every failed attempt in a fault log.
fn failed_attempts(events: &[FaultEvent]) -> Vec<(FaultKind, Time, Time)> {
    events
        .iter()
        .filter_map(|fe| match fe.kind {
            FaultEventKind::AttemptFailed { fault, start, .. } => Some((fault, start, fe.at)),
            _ => None,
        })
        .collect()
}

/// Every failed attempt records when it started, never after the failure
/// itself, in both engines. A runtime watchdog timeout occupies its worker
/// for the whole limit first: the runtime sleeps the limit on the wall
/// clock before it records the failure.
#[test]
fn failed_attempts_record_their_start() {
    let graph = TaskGraph::cholesky(4);
    // 1 ms per kernel, so only a straggler's 8× attempts cross the 4 ms
    // watchdog.
    let profile = TimingProfile::new(960, vec![[Time::from_millis(1); Kernel::COUNT]]);
    let limit = Time::from_millis(4);
    let policy = RetryPolicy {
        watchdog: Some(limit),
        ..RetryPolicy::default()
    };
    let workload = FnWorkload(|_| Ok::<(), std::convert::Infallible>(()));
    let plan = FaultPlan::new()
        .kill_worker(1, 6)
        .transient(TaskId(2), 2)
        .corrupt_tile(TaskId(7))
        .straggler(2, 8.0);
    let sim = simulate_resilient(
        &graph,
        &Platform::homogeneous(3).without_comm(),
        &profile,
        &mut Dmdas::new(),
        &SimOptions::default(),
        ObsSink::disabled(),
        &plan,
        &policy,
    )
    .unwrap();
    let rt = execute_resilient(
        &workload,
        &graph,
        &mut Dmdas::new(),
        &profile,
        3,
        ObsSink::disabled(),
        &plan,
        &policy,
    )
    .unwrap();
    for (engine, trace) in [("sim", &sim.trace), ("rt", &rt.trace)] {
        let failed = failed_attempts(&trace.fault_events);
        assert!(!failed.is_empty(), "{engine}: no attempt failed");
        for (kind, start, at) in failed {
            assert!(
                start <= at,
                "{engine}: a {kind} attempt started at {start}, after failing at {at}"
            );
        }
    }

    // On a lone straggling worker every attempt times out.
    let rt = execute_resilient(
        &workload,
        &graph,
        &mut Dmdas::new(),
        &profile,
        1,
        ObsSink::disabled(),
        &FaultPlan::new().straggler(0, 8.0),
        &policy,
    )
    .unwrap();
    let timeouts = failed_attempts(&rt.trace.fault_events);
    assert_eq!(timeouts.len(), policy.max_attempts as usize);
    for (kind, start, at) in timeouts {
        assert_eq!(kind, FaultKind::Timeout);
        assert!(
            at - start >= limit,
            "a timed-out attempt held its worker {} < the {limit} limit",
            at - start
        );
    }
}

/// The backoff schedule doubles from the base and clamps at the cap —
/// the regression contract for the retry pacing both engines share.
#[test]
fn backoff_doubles_and_caps() {
    let policy = RetryPolicy {
        max_attempts: 10,
        backoff_base: Time::from_micros(100),
        backoff_cap: Time::from_millis(1),
        watchdog: None,
    };
    assert_eq!(policy.backoff(1), Time::from_micros(100));
    assert_eq!(policy.backoff(2), Time::from_micros(200));
    assert_eq!(policy.backoff(3), Time::from_micros(400));
    assert_eq!(policy.backoff(4), Time::from_micros(800));
    // Clamped from here on, no matter how many failures pile up.
    assert_eq!(policy.backoff(5), Time::from_millis(1));
    assert_eq!(policy.backoff(60), Time::from_millis(1));
}

/// Impossible configurations come back as typed errors from the facade
/// and both engines — not hangs, not panics.
#[test]
fn impossible_configurations_are_typed_errors() {
    let graph = TaskGraph::cholesky(3);
    let workload = FnWorkload(|_| Ok::<(), std::convert::Infallible>(()));

    let err = Run::new(&graph)
        .profile(TimingProfile::mirage_homogeneous())
        .workers(0)
        .try_execute(&workload)
        .unwrap_err();
    assert_eq!(err, ConfigError::ZeroWorkers);
    assert!(!err.to_string().is_empty());

    let kills_all = FaultPlan::new().kill_worker(0, 0).kill_worker(1, 3);
    let err = Run::new(&graph)
        .profile(TimingProfile::mirage_homogeneous())
        .workers(2)
        .faults(kills_all.clone())
        .try_execute(&workload)
        .unwrap_err();
    assert_eq!(err, ConfigError::PlanKillsAllWorkers { n_workers: 2 });

    let err = Run::new(&graph)
        .faults(kills_all)
        .try_simulate(
            &Platform::homogeneous(2).without_comm(),
            &SimOptions::default(),
        )
        .unwrap_err();
    assert_eq!(err, ConfigError::PlanKillsAllWorkers { n_workers: 2 });
}

/// The facade's legacy paths are unchanged by an empty fault plan: a
/// fault-free `try_simulate` is bit-identical to `simulate`.
#[test]
fn empty_plan_keeps_the_facade_on_the_fast_path() {
    let graph = TaskGraph::cholesky(5);
    let platform = Platform::mirage().without_comm();
    let a = Run::new(&graph)
        .profile(TimingProfile::mirage())
        .simulate(&platform, &SimOptions::default());
    let b = Run::new(&graph)
        .profile(TimingProfile::mirage())
        .faults(FaultPlan::none())
        .try_simulate(&platform, &SimOptions::default())
        .unwrap();
    assert_eq!(a.outcome, RunOutcome::Completed);
    assert_eq!(a.trace.events, b.trace.events);
    assert_eq!(a.makespan, b.makespan);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Killing any single worker at any global start index leaves the
    /// runtime degraded but bit-correct: the surviving workers produce
    /// exactly the factor the sequential algorithm produces (the DAG
    /// serialises every tile conflict, so the kernels see identical
    /// inputs in every legal order). The simulator classifies the same
    /// plan the same way.
    #[test]
    fn any_single_death_point_degrades_bit_correctly(
        worker in 0usize..3,
        threshold_pick in 0usize..1000,
        seed in 0u64..1000,
    ) {
        let n_tiles = 3;
        let nb = 4;
        let n_workers = 3;
        let graph = TaskGraph::cholesky(n_tiles);
        let threshold = (threshold_pick % graph.len()) as u32;
        let profile = TimingProfile::mirage_homogeneous();
        let plan = FaultPlan::new().kill_worker(worker, threshold);
        let policy = RetryPolicy::default();

        let a = random_spd(n_tiles * nb, seed);
        let workload = CholeskyWorkload::new(&TiledMatrix::from_dense(&a, nb));
        let rt = execute_resilient(
            &workload,
            &graph,
            &mut Dmdas::new(),
            &profile,
            n_workers,
            ObsSink::disabled(),
            &plan,
            &policy,
        )
        .unwrap();
        prop_assert!(
            matches!(&rt.outcome, RunOutcome::Degraded { lost_workers, .. }
                if lost_workers == &[worker]),
            "rt outcome {:?}", rt.outcome
        );

        // Bit-correct against the sequential reference factorization.
        let got = workload.into_matrix();
        let mut want = TiledMatrix::from_dense(&a, nb);
        tiled_cholesky_in_place(&mut want).unwrap();
        for i in 0..n_tiles {
            for j in 0..=i {
                prop_assert_eq!(got.tile(i, j), want.tile(i, j), "tile ({}, {})", i, j);
            }
        }

        let sim = simulate_resilient(
            &graph,
            &Platform::homogeneous(n_workers).without_comm(),
            &profile,
            &mut Dmdas::new(),
            &SimOptions::default(),
            ObsSink::disabled(),
            &plan,
            &policy,
        )
        .unwrap();
        prop_assert_eq!(sim.outcome.label(), rt.outcome.label());
        prop_assert!(
            matches!(&sim.outcome, RunOutcome::Degraded { lost_workers, .. }
                if lost_workers == &[worker]),
            "sim outcome {:?}", sim.outcome
        );
    }
}
