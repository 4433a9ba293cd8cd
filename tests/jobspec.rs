//! JobSpec ⇔ Run equivalence: a spec built in code, serialized to the
//! wire format, parsed back, and executed must be **bit-identical** to
//! the direct [`Run`] call it mirrors — same trace events, same queue
//! events, same transfers, same makespan, same outcome. Both paths funnel
//! through `hetchol::job::dispatch_simulate`, and these tests pin that
//! guarantee across the simulate, bounds and chaos legs.

use hetchol::core::fault::{FaultPlan, RetryPolicy, RunOutcome};
use hetchol::core::platform::Platform;
use hetchol::core::profiles::TimingProfile;
use hetchol::core::time::Time;
use hetchol::job::{JobAction, JobSpec, PlatformSpec, ProfileSpec};
use hetchol::prelude::*;
use hetchol_bounds::BoundSet;
use hetchol_sched::registry;
use hetchol_sim::{SimOptions, SimResult};

/// Assert two simulation results are bitwise-identical.
fn assert_bit_identical(direct: &SimResult, via_spec: &SimResult, what: &str) {
    assert_eq!(direct.makespan, via_spec.makespan, "{what}: makespan");
    assert_eq!(direct.outcome, via_spec.outcome, "{what}: outcome");
    assert_eq!(
        direct.trace.events, via_spec.trace.events,
        "{what}: task events"
    );
    assert_eq!(
        direct.trace.transfers, via_spec.trace.transfers,
        "{what}: transfers"
    );
    assert_eq!(
        direct.trace.queue_events, via_spec.trace.queue_events,
        "{what}: queue events"
    );
    assert_eq!(
        direct.trace.fault_events, via_spec.trace.fault_events,
        "{what}: fault events"
    );
}

/// Round-trip a spec through its wire format before running it, so the
/// equivalence also covers the JSON emit + parse path.
fn run_roundtripped(spec: &JobSpec) -> SimResult {
    let wire = spec.to_json();
    let parsed = JobSpec::from_json(&wire).expect("wire round-trip");
    assert_eq!(*spec, parsed, "round-trip must preserve the spec");
    parsed
        .run()
        .expect("valid spec")
        .sim
        .expect("simulate-family action")
}

#[test]
fn simulate_leg_matches_run_over_the_paper_grid() {
    for &(workload, n) in &[("cholesky", 4), ("cholesky", 8), ("lu", 6), ("qr", 6)] {
        for sched in ["dmda", "dmdas", "eager", "random", "triangle:2"] {
            let seed = 7;
            let mut spec = JobSpec::new(workload, n).unwrap().scheduler(sched);
            spec.seed = seed;
            let via_spec = run_roundtripped(&spec);

            let graph = spec.workload.graph(n);
            let direct = Run::new(&graph)
                .scheduler_boxed(registry::build(sched, seed).unwrap())
                .try_simulate(
                    &Platform::mirage(),
                    &SimOptions {
                        seed,
                        ..SimOptions::default()
                    },
                )
                .unwrap();
            assert_bit_identical(&direct, &via_spec, &format!("{workload} n={n} {sched}"));
        }
    }
}

#[test]
fn simulate_leg_matches_run_in_actual_mode() {
    // Jittered "actual execution" mode: same seed → same jitter stream.
    let mut spec = JobSpec::new("cholesky", 8).unwrap().scheduler("dmdas");
    spec.seed = 3;
    spec.jitter = true;
    spec.obs = true;
    let via_spec = run_roundtripped(&spec);

    let graph = TaskGraph::cholesky(8);
    let direct = Run::new(&graph)
        .scheduler_boxed(registry::build("dmdas", 3).unwrap())
        .obs(ObsSink::enabled())
        .try_simulate(&Platform::mirage(), &SimOptions::actual(3))
        .unwrap();
    assert_bit_identical(&direct, &via_spec, "actual mode");
    assert_eq!(
        direct.obs.spans.len(),
        via_spec.obs.spans.len(),
        "obs spans recorded on both paths"
    );
}

#[test]
fn bounds_leg_matches_direct_computation_bitwise() {
    for &(workload, n) in &[("cholesky", 4), ("cholesky", 8), ("lu", 6), ("qr", 6)] {
        let mut spec = JobSpec::new(workload, n).unwrap();
        spec.action = JobAction::Bounds;
        let wire = spec.to_json();
        let run = JobSpec::from_json(&wire).unwrap().run().unwrap();
        let got = run.bounds.expect("bounds action");

        let direct = BoundSet::compute_algo(
            spec.workload,
            n,
            &Platform::mirage(),
            &TimingProfile::mirage(),
        );
        assert_eq!(direct.critical_path, got.critical_path, "{workload} n={n}");
        assert_eq!(direct.area, got.area, "{workload} n={n}");
        assert_eq!(direct.mixed, got.mixed, "{workload} n={n}");
        assert_eq!(
            direct.gemm_peak.to_bits(),
            got.gemm_peak.to_bits(),
            "{workload} n={n}: gemm peak bit pattern"
        );
        assert_eq!(direct.best(), got.best(), "{workload} n={n}");
        // And the precomputed-bounds splice path is result-identical.
        let spliced = spec.run_with_bounds(Some(direct.clone())).unwrap();
        assert_eq!(
            spliced.outcome.bounds, run.outcome.bounds,
            "{workload} n={n}: precomputed splice"
        );
    }
}

#[test]
fn chaos_leg_matches_run_with_faults_and_retries() {
    let plan = FaultPlan::new()
        .kill_worker(1, 6)
        .transient(TaskId(3), 1)
        .straggler(2, 2.0);
    let retry = RetryPolicy {
        max_attempts: 5,
        ..RetryPolicy::default()
    };

    let mut spec = JobSpec::new("cholesky", 6).unwrap().scheduler("dmdas");
    spec.platform = PlatformSpec::Homogeneous(4);
    spec.profile = ProfileSpec::MirageHomogeneous;
    spec.seed = 11;
    spec.faults = plan.clone();
    spec.retry = retry;
    let via_spec = run_roundtripped(&spec);

    let graph = TaskGraph::cholesky(6);
    let direct = Run::new(&graph)
        .scheduler_boxed(registry::build("dmdas", 11).unwrap())
        .profile(TimingProfile::mirage_homogeneous())
        .faults(plan)
        .retry(retry)
        .try_simulate(
            &Platform::homogeneous(4),
            &SimOptions {
                seed: 11,
                ..SimOptions::default()
            },
        )
        .unwrap();
    assert_bit_identical(&direct, &via_spec, "chaos");
    assert!(
        matches!(direct.outcome, RunOutcome::Degraded { .. }),
        "the plan should degrade the run: {:?}",
        direct.outcome
    );
}

#[test]
fn job_outcome_summary_agrees_with_the_sim_it_summarizes() {
    let mut spec = JobSpec::new("cholesky", 8).unwrap();
    spec.action = JobAction::Lint;
    spec.obs = true;
    let run = spec.run().unwrap();
    let sim = run.sim.as_ref().unwrap();
    assert_eq!(run.outcome.makespan, Some(sim.makespan));
    assert!(run.outcome.gflops.unwrap() > 0.0);
    assert_eq!(run.outcome.lint.unwrap().errors, 0);
    assert!(run.outcome.makespan.unwrap() >= run.outcome.bounds.unwrap().best);
    assert!(run.outcome.makespan.unwrap() > Time::ZERO);
}

/// A faulted lint job's verdict does not depend on `"obs"`. Task 3's
/// first attempt fails and is retried; the worker is busy with the failed
/// attempt, so the enqueue the retry made obsolete must not read as a
/// startable task the worker idled over.
#[test]
fn faulted_lint_verdict_does_not_depend_on_obs() {
    for obs in [false, true] {
        let body = format!(
            "{{\"workload\":\"cholesky\",\"n\":2,\"scheduler\":\"dmda\",\"action\":\"lint\",\
             \"obs\":{obs},\"faults\":[{{\"kind\":\"transient\",\"task\":3,\"failures\":1,\
             \"fault\":\"transient\"}}]}}"
        );
        let run = JobSpec::from_json(&body)
            .expect("valid spec")
            .run()
            .unwrap();
        let lint = run.outcome.lint.expect("lint action");
        assert_eq!(
            (lint.errors, lint.warnings),
            (0, 0),
            "obs={obs}: {}",
            run.lint.expect("lint report").to_json()
        );
    }
}
