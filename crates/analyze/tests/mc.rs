//! Integration tests for the recovery checker: fault exhaustion,
//! seeded-mutation detection and witness replay determinism. The DPOR
//! branch counts on the fault-free runtime are pinned in `race.rs`.

use hetchol_analyze::{
    check_recovery, replay_witness, resilient_runner, ExploreConfig, Invariant, RecoveryScenario,
    RoundRobin, Witness,
};
use hetchol_core::dag::TaskGraph;
use hetchol_core::fault::{ConfigError, FaultPlan, RetryPolicy};
use hetchol_core::profiles::TimingProfile;
use hetchol_rt::runtime::{execute_resilient_mutated, Mutations};
use hetchol_rt::{FnWorkload, RtResult};

fn cfg() -> ExploreConfig {
    ExploreConfig::default()
}

/// Exhaustive verification of the stock resilient runtime on the 2-worker,
/// 4-task Cholesky chain under every single-fault plan: no violation, and
/// every plan's tree fully covered.
#[test]
fn recovery_checker_exhausts_two_worker_chain_with_faults() {
    let n_tasks = TaskGraph::cholesky(2).len();
    let scenario = RecoveryScenario {
        n_tiles: 2,
        n_workers: 2,
        mutation: None,
    };
    let space = FaultPlan::choice_space(n_tasks, 2);
    let report = check_recovery(&scenario, &space, cfg(), resilient_runner(2, 2));
    assert!(
        report.is_clean(),
        "stock runtime must verify clean: {:?} {:?}",
        report.witness,
        report.failures
    );
    assert!(
        report.exhausted,
        "the fault × interleaving space must be covered"
    );
    assert_eq!(report.plans, space.len());
    assert!(report.schedules_run >= space.len());
}

fn mutated_runner(
    n_tiles: usize,
    n_workers: usize,
) -> impl FnMut(&FaultPlan) -> Result<RtResult, ConfigError> {
    let graph = TaskGraph::cholesky(n_tiles);
    let profile = TimingProfile::mirage_homogeneous();
    let policy = RetryPolicy::default();
    move |plan| {
        let mut sched = RoundRobin;
        let workload = FnWorkload(|_| Ok::<(), std::convert::Infallible>(()));
        execute_resilient_mutated(
            &workload,
            &graph,
            &mut sched,
            &profile,
            n_workers,
            plan,
            &policy,
            Mutations {
                skip_dead_requeue: true,
                ..Default::default()
            },
        )
    }
}

/// The seeded recovery bug — a dead worker's queue is dropped instead of
/// re-dispatched — must be found as an invariant violation whose witness
/// round-trips through JSON and replays deterministically to the same
/// violation. The stock runtime stays clean on the identical fault space.
#[test]
fn skip_dead_requeue_mutation_is_found_and_witness_replays() {
    let n_tasks = TaskGraph::cholesky(3).len();
    let scenario = RecoveryScenario {
        n_tiles: 3,
        n_workers: 2,
        mutation: Some("skip-dead-requeue".to_string()),
    };
    // Targeted fault space: kill worker 1 at every progress point. The bug
    // needs a death that catches a non-empty queue, which only a DAG wide
    // enough to double-book a worker (cholesky(3), round-robin) exhibits.
    let space: Vec<FaultPlan> = (0..n_tasks as u32)
        .map(|k| FaultPlan::new().kill_worker(1, k))
        .collect();
    let report = check_recovery(&scenario, &space, cfg(), mutated_runner(3, 2));
    let w = report
        .witness
        .expect("the seeded recovery bug must be found");
    assert_eq!(
        w.invariant,
        Invariant::Deadlock,
        "stranded tasks park the survivors forever: {}",
        w.detail
    );
    assert!(!w.plan.is_empty(), "only a fault exposes this bug");

    // Round-trip the witness through its JSON format, then replay twice:
    // both replays must reproduce the identical violation.
    let parsed = Witness::from_json(&w.to_json()).expect("witness JSON round-trips");
    assert_eq!(parsed, w);
    let r1 = replay_witness(&parsed, cfg(), mutated_runner(3, 2));
    let r2 = replay_witness(&parsed, cfg(), mutated_runner(3, 2));
    assert!(r1.reproduced, "first replay diverged: {:?}", r1.observed);
    assert!(r2.reproduced, "second replay diverged: {:?}", r2.observed);
    assert_eq!(r1.observed, r2.observed, "replay must be deterministic");

    // Fixing the mutation (the stock runtime) verifies clean on the same
    // scenario and fault space.
    let stock = RecoveryScenario {
        n_tiles: 3,
        n_workers: 2,
        mutation: None,
    };
    let clean = check_recovery(&stock, &space, cfg(), resilient_runner(3, 2));
    assert!(
        clean.is_clean(),
        "stock runtime flagged: {:?} {:?}",
        clean.witness,
        clean.failures
    );
    assert!(clean.exhausted);
}
