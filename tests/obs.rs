//! Observability acceptance tests: the Chrome-trace JSON schema is a CI
//! interface (golden-pinned here), the per-worker phase accounting must
//! partition the makespan exactly on *both* engines, and every rendering
//! of the report derived from the trace is pinned by digest.

use hetchol::core::algorithm::Algorithm;
use hetchol::core::hash::ContentHasher;
use hetchol::core::json::{parse_json, JsonValue};
use hetchol::core::obs::{validate_chrome_trace, CHROME_EVENT_KEYS};
use hetchol::core::time::Time;
use hetchol::prelude::*;
use hetchol::rt::execute_resilient_controlled;
use hetchol::sched::{Dmda, Dmdas};
use hetchol::sim::{simulate_resilient, simulate_with};

fn sim_report(n: usize) -> ObsReport {
    Run::new(&TaskGraph::cholesky(n))
        .scheduler(Dmdas::new())
        .profile(TimingProfile::mirage())
        .obs(ObsSink::enabled())
        .simulate(&Platform::mirage(), &SimOptions::default())
        .obs
}

fn rt_report(n: usize, workers: usize) -> ObsReport {
    let workload = FnWorkload(|_: TaskCoords| Ok::<(), std::convert::Infallible>(()));
    Run::new(&TaskGraph::cholesky(n))
        .scheduler(Dmda::new())
        .profile(TimingProfile::mirage_homogeneous())
        .workers(workers)
        .obs(ObsSink::enabled())
        .execute(&workload)
        .expect("no-op tasks cannot fail")
        .obs
}

/// Golden schema: every event object in the exported Chrome trace carries
/// exactly the pinned key set, `ts`/`dur` are numbers, and the document
/// shape is `{"traceEvents": [...], "displayTimeUnit": "ms"}`.
#[test]
fn chrome_trace_schema_is_golden() {
    assert_eq!(
        CHROME_EVENT_KEYS,
        ["ph", "ts", "dur", "pid", "tid", "name", "args"]
    );
    for report in [sim_report(6), rt_report(4, 3)] {
        let text = report.to_chrome_trace();
        let n_events = validate_chrome_trace(&text).expect("schema-valid");
        assert!(n_events > 0);

        // Re-check the pinned shape independently of the validator.
        let doc = parse_json(&text).expect("well-formed JSON");
        assert_eq!(
            doc.get("displayTimeUnit"),
            Some(&JsonValue::Str("ms".to_string()))
        );
        let JsonValue::Arr(events) = doc.get("traceEvents").expect("traceEvents") else {
            panic!("traceEvents must be an array");
        };
        assert_eq!(events.len(), n_events);
        let mut exec_events = 0;
        for ev in events {
            let JsonValue::Obj(fields) = ev else {
                panic!("every event must be an object");
            };
            assert_eq!(fields.len(), CHROME_EVENT_KEYS.len());
            for key in CHROME_EVENT_KEYS {
                assert!(ev.get(key).is_some(), "event missing key {key}");
            }
            assert!(matches!(ev.get("ts"), Some(JsonValue::Num(_))));
            assert!(matches!(ev.get("dur"), Some(JsonValue::Num(_))));
            if ev.get("ph") == Some(&JsonValue::Str("X".to_string())) {
                exec_events += 1;
            }
        }
        assert!(exec_events > 0, "trace must carry duration events");
    }
}

/// Acceptance: per worker, `exec + transfer_wait + queue_wait + idle`
/// sums to the makespan exactly — on the simulator (with communication)
/// and on the threaded runtime (wall-clock).
#[test]
fn phase_accounting_partitions_makespan_on_both_engines() {
    for (label, report) in [("sim", sim_report(8)), ("rt", rt_report(5, 4))] {
        let makespan = report.makespan();
        assert!(makespan > Time::ZERO, "{label}");
        let phases = report.worker_phases();
        assert_eq!(phases.len(), report.n_workers, "{label}");
        for p in &phases {
            assert_eq!(
                p.total(),
                makespan,
                "{label}: worker {} phases {:?} do not partition the makespan {makespan}",
                p.worker,
                p
            );
        }
        // Every task contributed exactly one span with ordered phases.
        for s in &report.spans {
            assert!(s.queued <= s.start && s.start <= s.end, "{label}: {s:?}");
        }
    }
}

/// The summary JSON (consumed by `hetchol-analyze` tooling) parses and
/// carries the headline counters.
#[test]
fn summary_json_is_machine_readable() {
    let report = sim_report(6);
    let doc = parse_json(&report.summary_json()).expect("well-formed JSON");
    for key in [
        "n_workers",
        "n_spans",
        "makespan_ns",
        "workers",
        "transfers",
    ] {
        assert!(doc.get(key).is_some(), "summary missing {key}");
    }
    assert_eq!(
        doc.get("n_spans"),
        Some(&JsonValue::Num(report.spans.len() as f64))
    );
}

// --- Goldens for the derived report --------------------------------------

/// FNV digests, in hex, of everything an [`ObsReport`] renders: the
/// Chrome trace, the summary JSON, the utilization report and the
/// counters' `Debug` form, in that order.
fn digests(report: &ObsReport) -> String {
    [
        report.to_chrome_trace(),
        report.summary_json(),
        report.utilization_report(),
        format!("{:?}", report.counters),
    ]
    .iter()
    .map(|text| {
        let mut h = ContentHasher::new();
        h.write_str(text);
        format!("{:016x}", h.finish())
    })
    .collect::<Vec<_>>()
    .join(" ")
}

fn scheduler(name: &str) -> Box<dyn Scheduler> {
    match name {
        "dmda" => Box::new(Dmda::new()),
        _ => Box::new(Dmdas::new()),
    }
}

/// Fault-free simulations: Cholesky, LU and QR at 4 and 8 tiles under
/// both dmda variants on the mirage platform, plus the 32-tile dmdas
/// Cholesky whose Chrome trace is the largest the exporters render.
fn fault_free_reports() -> Vec<(String, ObsReport)> {
    let platform = Platform::mirage();
    let profile = TimingProfile::mirage();
    let mut cases: Vec<(Algorithm, usize, &str)> = Vec::new();
    for algo in [Algorithm::Cholesky, Algorithm::Lu, Algorithm::Qr] {
        for n in [4, 8] {
            for sched in ["dmda", "dmdas"] {
                cases.push((algo, n, sched));
            }
        }
    }
    cases.push((Algorithm::Cholesky, 32, "dmdas"));
    cases
        .into_iter()
        .map(|(algo, n, sched)| {
            let r = simulate_with(
                &algo.graph(n),
                &platform,
                &profile,
                scheduler(sched).as_mut(),
                &SimOptions::default(),
                ObsSink::enabled(),
            );
            (format!("{algo:?} n={n} {sched}"), r.obs)
        })
        .collect()
}

/// Seeded-fault simulations of an 8-tile Cholesky on mirage.
fn faulted_reports() -> Vec<(String, ObsReport)> {
    let graph = TaskGraph::cholesky(8);
    let platform = Platform::mirage();
    let profile = TimingProfile::mirage();
    (0..8u64)
        .map(|s| {
            let plan = FaultPlan::seeded(s, graph.len(), platform.n_workers());
            let r = simulate_resilient(
                &graph,
                &platform,
                &profile,
                &mut Dmdas::new(),
                &SimOptions::default(),
                ObsSink::enabled(),
                &plan,
                &RetryPolicy::default(),
            )
            .expect("seeded plans never kill every worker");
            (format!("seeded {s}"), r.obs)
        })
        .collect()
}

/// The threaded runtime on one worker with a logical clock. The plan only
/// fails attempts (no deaths, no stragglers), so the run is a pure
/// function of the plan.
fn runtime_report() -> ObsReport {
    let graph = TaskGraph::cholesky(4);
    let workload = FnWorkload(|_: TaskCoords| Ok::<(), std::convert::Infallible>(()));
    let plan = FaultPlan::new()
        .transient(TaskId(0), 1)
        .transient(TaskId(5), 2)
        .corrupt_tile(TaskId(9));
    execute_resilient_controlled(
        &workload,
        &graph,
        &mut Dmda::new(),
        &TimingProfile::mirage_homogeneous(),
        1,
        ObsSink::enabled(),
        &plan,
        &RetryPolicy::default(),
        true,
    )
    .expect("one worker, no deaths")
    .obs
}

/// `label: digests` of the reports below, pinned from the engines' former
/// recording path (a per-task record kept beside the trace): the report
/// derived from the trace must render byte for byte the same. The fourth
/// column digests the counters' `Debug` form; it was re-pinned when the
/// never-written `transfer_bytes` counter was deleted, which moved that
/// column in every row and no other column in any row.
const GOLDENS: [&str; 22] = [
    "Cholesky n=4 dmda: 00d740c6eecf0401 ba22d942a0e04728 8350e4f9c06dbf52 b22375d5bf73d800",
    "Cholesky n=4 dmdas: bc18d776413305ba ba22d942a0e04728 8350e4f9c06dbf52 b22375d5bf73d800",
    "Cholesky n=8 dmda: 2150f30804f31fe8 6be455b21b15a3e9 c4f47957e629cb45 2e36444e8e63e0c0",
    "Cholesky n=8 dmdas: 930ef1335f3f44c3 56407321a5c1e429 9617064206cdc4f4 992d4e76de5e2531",
    "Lu n=4 dmda: d58ba12607f5a954 c4aa52a92e896a81 b6d1f560b2055b60 86e8750720c94055",
    "Lu n=4 dmdas: f1702451eec0679f 1d509f4560b799fb 4c5f577a6191abbc ee3636a7f4cdd0b6",
    "Lu n=8 dmda: f9bbee677b9ef07e ce33f5320258c4a8 c80dc5857647d17e 44776204457ed6b1",
    "Lu n=8 dmdas: 654a9711c0639d14 29e1f223c815bccc cc7cd978e315a4b6 91ada95e2ef597a2",
    "Qr n=4 dmda: 945b051e932334b5 6772ec3c3fd81a27 0086493564c320da 08a75eed2aa18c91",
    "Qr n=4 dmdas: ace2c8e71faa7fe1 8af6ba27dcf0ac20 b02608c05ddb60fe 1ef14bc04c1b2cab",
    "Qr n=8 dmda: 26360f56aa7950c3 17f59f04c68dc5d1 69fd9551d90c5ca2 3e064f730a8171e8",
    "Qr n=8 dmdas: 79726bc3f2800302 577e0fb3a8063ada c2065dfa0faba785 1cd9f529ac9f6435",
    "Cholesky n=32 dmdas: cea89e8f245ce675 b9a84882eedc972c 828eee98134db5c2 619da902f43324ee",
    "seeded 0: a726e50a66f3de2a 0099c7f74e65f5ab f7ca10008696db0a ad838b5f35686983",
    "seeded 1: 79fa235f1e9814e3 427ce61a8b0fdf49 1ec7562200ea4900 4309d9187783844d",
    "seeded 2: 3604df57112846db 9fbcfa26ffd4c8c9 73469477b1838464 dd0f2136417f5577",
    "seeded 3: 778fb83f41338f03 fd9fa9d556f0ad50 cbe778c90739523e 922f3833a2601448",
    "seeded 4: 8d97f022c4dea531 1091753469e89d7c 97c0997afa3c271e 6b0c2fd6f1f6f41e",
    "seeded 5: 3fd63be70e367d2b 714a8f06ed6736d0 b9df7b9349220cf7 00c7d5b0358fddb5",
    "seeded 6: e08c60f90522e646 c3ec0f64a4e86560 8f2c515721513c57 1a0a9ea8ec5f3241",
    "seeded 7: 8d07dad5eaf1ce5a 8b0ad4a375d50a3b b06fe1b815a0c94c 620e87df71211c04",
    "runtime: cb08e8592ff9307e de27d29e34baeb30 d71de9ca0a0459a3 b79044f0a2f75c78",
];

#[test]
fn derived_reports_match_goldens() {
    let faulted = faulted_reports();
    // The seeded plans exercise every event kind the exporter renders.
    let faulted_traces: String = faulted.iter().map(|(_, r)| r.to_chrome_trace()).collect();
    for name in ["[transfer]", "[queued]", "[retrying]", "worker lost"] {
        assert!(
            faulted_traces.contains(name),
            "no {name} event in the seeded runs"
        );
    }
    let mut reports = fault_free_reports();
    reports.extend(faulted);
    reports.push(("runtime".to_string(), runtime_report()));
    let got: Vec<String> = reports
        .iter()
        .map(|(label, report)| format!("{label}: {}", digests(report)))
        .collect();
    // Digests per case: Chrome trace, summary, utilization, counters.
    assert_eq!(got, GOLDENS);
}
