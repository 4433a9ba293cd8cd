//! Model-checking the threaded runtime's worker protocol.
//!
//! These tests run the *real* `hetchol_rt::execute_workload` worker threads
//! under the DPOR model checker. They live in their own integration binary
//! because the exploration hook registry is process-global; the checker
//! serializes sessions internally, so the tests may still run on the
//! default multi-threaded test harness.

use hetchol_analyze::{check_model, ExploreConfig, Invariant, ModelReport, RoundRobin};
use hetchol_core::dag::TaskGraph;
use hetchol_core::obs::ObsSink;
use hetchol_core::profiles::TimingProfile;
use std::convert::Infallible;

/// Model-check `execute_workload` on `cholesky(tiles)` with `workers`
/// threads: no-op tasks under the timing-blind [`RoundRobin`] scheduler,
/// every run asserting that it executed the whole DAG.
fn check_runtime(tiles: usize, workers: usize, cfg: ExploreConfig) -> ModelReport {
    let graph = TaskGraph::cholesky(tiles);
    let profile = TimingProfile::mirage_homogeneous();
    check_model(
        workers,
        cfg,
        || {
            let mut sched = RoundRobin;
            let workload = hetchol_rt::FnWorkload(|_| Ok::<(), Infallible>(()));
            let r = hetchol_rt::execute_workload(
                &workload,
                &graph,
                &mut sched,
                &profile,
                workers,
                ObsSink::disabled(),
            )
            .expect("no-op tasks cannot fail");
            assert_eq!(
                r.trace.events.len(),
                graph.len(),
                "run completed without executing every task"
            );
        },
        || None,
    )
}

/// (tiles, workers, DPOR branches with sleep sets, without them). One
/// worker has no choice point with two candidates, so its tree is a
/// single run.
///
/// The sleep-set DFS this checker replaced (it considered every enabled
/// candidate, not just the race-justified ones) ran 504 branches on
/// (2, 2), and 900 without sleep sets; on (2, 3) and (3, 2) it had not
/// exhausted after 200,000 branches, about a minute each.
const PINNED: [(usize, usize, usize, usize); 5] = [
    (2, 1, 1, 1),
    (2, 2, 4, 4),
    (2, 3, 30, 54),
    (3, 2, 4, 4),
    (3, 3, 30, 54),
];

#[test]
fn dpor_branch_counts_are_pinned() {
    for (tiles, workers, branches, _) in PINNED {
        let report = check_runtime(tiles, workers, ExploreConfig::default());
        assert!(
            report.is_clean(),
            "cholesky({tiles}) × {workers}: correct runtime flagged: {report:?}"
        );
        assert!(
            report.exhausted,
            "cholesky({tiles}) × {workers}: tree not covered: {report:?}"
        );
        assert_eq!(
            report.schedules_run, branches,
            "cholesky({tiles}) × {workers}: DPOR branch count moved"
        );
    }
}

/// Cross-check the sleep-set layer: with the backtrack sets alone in
/// charge, the verdict is the same and the tree never smaller.
#[test]
fn backtrack_sets_alone_agree_on_a_tree_never_smaller() {
    let raw_cfg = ExploreConfig {
        sleep_sets: false,
        ..ExploreConfig::default()
    };
    for (tiles, workers, pruned, branches) in PINNED {
        let raw = check_runtime(tiles, workers, raw_cfg);
        assert!(
            raw.is_clean() && raw.exhausted,
            "cholesky({tiles}) × {workers} without sleep sets: {raw:?}"
        );
        assert!(branches >= pruned);
        assert_eq!(
            raw.schedules_run, branches,
            "cholesky({tiles}) × {workers}: branch count without sleep sets moved"
        );
    }
}

#[test]
fn lost_wakeup_mutation_is_detected() {
    // Reintroduce the classic bug: the worker loop skips `notify_all`
    // after dispatching successors. In the interleaving where the other
    // worker checked its queue *before* the successor was enqueued and
    // then went to sleep, nobody ever wakes it — the checker must find
    // that schedule and report it as a deadlock.
    use hetchol_rt::runtime::{execute_with_mutated, Mutations};
    let graph = TaskGraph::cholesky(2);
    let profile = TimingProfile::mirage_homogeneous();
    let report = check_model(
        2,
        ExploreConfig::default(),
        || {
            let mut sched = RoundRobin;
            let r = execute_with_mutated(
                |_| Ok::<(), Infallible>(()),
                &graph,
                &mut sched,
                &profile,
                2,
                Mutations {
                    drop_release_notify: true,
                    ..Default::default()
                },
            )
            .expect("no-op tasks cannot fail");
            assert_eq!(r.trace.events.len(), graph.len());
        },
        || None,
    );
    let v = report
        .violation
        .as_ref()
        .unwrap_or_else(|| panic!("the seeded lost wakeup was not detected: {report:?}"));
    assert_eq!(v.invariant, Invariant::Deadlock, "{v:?}");
    for w in 0..2 {
        assert!(
            v.detail
                .split("; ")
                .any(|part| part.starts_with(&format!("worker {w}: waiting on condvar"))),
            "worker {w} should be stuck in a condvar wait: {}",
            v.detail
        );
    }
    assert!(report.failures.is_empty(), "{report:?}");
}
