//! The checker swaps the process-global panic hook for the duration of a
//! session; a user-installed hook must survive every exploration exit
//! path. Kept in its own test binary: integration tests in one binary run
//! concurrently, and another test's live exploration would race the
//! assertions on the global hook.

use hetchol_analyze::{
    check_model, check_recovery, resilient_runner, ExploreConfig, RecoveryScenario, RoundRobin,
};
use hetchol_core::dag::TaskGraph;
use hetchol_core::fault::FaultPlan;
use hetchol_core::profiles::TimingProfile;
use hetchol_rt::runtime::{execute_with_mutated, Mutations};
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn user_panic_hook_survives_explorations() {
    let hits = Arc::new(AtomicUsize::new(0));
    {
        let hits = hits.clone();
        panic::set_hook(Box::new(move |_| {
            hits.fetch_add(1, Ordering::SeqCst);
        }));
    }

    // Three exits: a clean exhaustive check, one stopped by the schedule
    // budget, and one that stops at a finding and minimizes it by replay.
    // Every path must restore the hook on the way out.
    let scenario = RecoveryScenario {
        n_tiles: 2,
        n_workers: 2,
        mutation: None,
    };
    let space = FaultPlan::choice_space(TaskGraph::cholesky(2).len(), 2);
    let clean = check_recovery(
        &scenario,
        &space,
        ExploreConfig::default(),
        resilient_runner(2, 2),
    );
    assert!(clean.is_clean() && clean.exhausted, "{clean:?}");

    let bounded = ExploreConfig {
        max_schedules: 1,
        ..ExploreConfig::default()
    };
    let capped = check_recovery(&scenario, &space[..1], bounded, resilient_runner(2, 2));
    assert!(capped.is_clean() && !capped.exhausted, "{capped:?}");

    let graph = TaskGraph::cholesky(2);
    let profile = TimingProfile::mirage_homogeneous();
    let found = check_model(
        2,
        ExploreConfig::default(),
        || {
            let mut sched = RoundRobin;
            execute_with_mutated(
                |_| Ok::<(), std::convert::Infallible>(()),
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
        },
        || None,
    );
    assert!(found.violation.is_some(), "{found:?}");

    // Our hook must be back in place: a caught panic goes through it.
    let before = hits.load(Ordering::SeqCst);
    let _ = panic::catch_unwind(|| panic!("probe"));
    let after = hits.load(Ordering::SeqCst);
    let _ = panic::take_hook(); // restore the default for other tests
    assert_eq!(
        after,
        before + 1,
        "the user-installed panic hook was not restored after exploration"
    );
}
