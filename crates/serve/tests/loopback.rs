//! Loopback-socket integration tests: a real server on an ephemeral
//! port, driven through the blocking client — results bitwise-matched
//! against direct in-process [`Run`] calls, golden error bodies pinned
//! verbatim, cache-hit accounting exercised under real concurrency, and
//! the durability surface (crash restart, keep-alive, drain, eviction)
//! driven end to end.

use hetchol::core::platform::Platform;
use hetchol::job::JobSpec;
use hetchol::prelude::*;
use hetchol_core::json::parse_json;
use hetchol_sched::registry;
use hetchol_serve::{client, ServeConfig, Server};
use hetchol_sim::SimOptions;

fn start(config: ServeConfig) -> Server {
    Server::start(config).expect("bind ephemeral loopback port")
}

fn default_server() -> Server {
    start(ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    })
}

#[test]
fn paper_grid_results_match_direct_run_bitwise() {
    let server = default_server();
    for &(workload, n) in &[("cholesky", 4), ("cholesky", 8), ("lu", 6), ("qr", 6)] {
        for sched in ["dmda", "dmdas"] {
            let mut spec = JobSpec::new(workload, n).unwrap().scheduler(sched);
            spec.seed = 5;
            let (status, body) = client::post_job(server.addr(), &spec.to_json()).unwrap();
            assert_eq!(status, 200, "{body}");
            let v = parse_json(&body).unwrap();
            let served_makespan = v.field("makespan_ns").unwrap().as_u64().unwrap();
            let served_gflops = v.field("gflops").unwrap().as_f64().unwrap();

            let graph = spec.workload.graph(n);
            let direct = Run::new(&graph)
                .scheduler_boxed(registry::build(sched, 5).unwrap())
                .try_simulate(
                    &Platform::mirage(),
                    &SimOptions {
                        seed: 5,
                        ..SimOptions::default()
                    },
                )
                .unwrap();
            assert_eq!(
                served_makespan,
                direct.makespan.as_nanos(),
                "{workload} n={n} {sched}: served makespan must be the direct Run's, bit for bit"
            );
            let direct_gflops = spec.workload.gflops(
                n,
                hetchol::core::profiles::TimingProfile::mirage().nb(),
                direct.makespan,
            );
            assert_eq!(
                served_gflops.to_bits(),
                direct_gflops.to_bits(),
                "{workload} n={n} {sched}: gflops bit pattern"
            );
            // The wire hash is the spec's content hash.
            let hex = v.field("spec_hash").unwrap().as_str().unwrap().to_string();
            assert_eq!(hex, spec.hash_hex());
        }
    }
    server.shutdown();
}

#[test]
fn golden_error_bodies_are_stable() {
    let server = start(ServeConfig {
        shards: 2,
        max_n: 16,
        ..ServeConfig::default()
    });

    // Unknown scheduler name: rejected at parse time with the registry list.
    let (status, body) = client::post_job(
        server.addr(),
        r#"{"workload":"cholesky","n":4,"scheduler":"dmdax"}"#,
    )
    .unwrap();
    assert_eq!(status, 400, "{body}");
    let v = parse_json(&body).unwrap();
    assert_eq!(v.field("status").unwrap().as_str().unwrap(), "error");
    assert_eq!(
        v.field("code").unwrap().as_str().unwrap(),
        "unknown-scheduler"
    );
    let detail = v.field("detail").unwrap().as_str().unwrap();
    assert!(detail.contains("dmdax"), "{detail}");
    assert!(
        detail.contains("dmdas"),
        "detail lists known names: {detail}"
    );

    // A plan that kills every worker: typed ConfigError code.
    let (status, body) = client::post_job(
        server.addr(),
        concat!(
            r#"{"workload":"cholesky","n":4,"platform":"homogeneous:2","#,
            r#""profile":"mirage-homogeneous","#,
            r#""faults":[{"kind":"worker_death","worker":0,"after_starts":0},"#,
            r#"{"kind":"worker_death","worker":1,"after_starts":0}]}"#
        ),
    )
    .unwrap();
    assert_eq!(status, 400, "{body}");
    let v = parse_json(&body).unwrap();
    assert_eq!(
        v.field("code").unwrap().as_str().unwrap(),
        "plan-kills-all-workers"
    );

    // Over the server's size budget: refused before queueing.
    let (status, body) =
        client::post_job(server.addr(), r#"{"workload":"cholesky","n":32}"#).unwrap();
    assert_eq!(status, 400, "{body}");
    let v = parse_json(&body).unwrap();
    assert_eq!(v.field("code").unwrap().as_str().unwrap(), "over-budget");
    assert!(
        v.field("detail").unwrap().as_str().unwrap().contains("16"),
        "{body}"
    );

    // Unknown workload: bad-spec.
    let (status, body) = client::post_job(server.addr(), r#"{"workload":"svd","n":4}"#).unwrap();
    assert_eq!(status, 400, "{body}");
    let v = parse_json(&body).unwrap();
    assert_eq!(v.field("code").unwrap().as_str().unwrap(), "bad-spec");

    // Not JSON at all: bad-spec from the shared parser.
    let (status, body) = client::post_job(server.addr(), "not json").unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains(r#""code":"bad-spec""#), "{body}");
    server.shutdown();
}

#[test]
fn deeply_nested_body_is_a_400_and_the_server_keeps_serving() {
    let server = default_server();
    // Nested far past the parser's cap, in a body under the size limit:
    // bad-spec naming the offset, not a stack overflow that aborts the
    // process, and the same server answers the next job.
    let (status, body) = client::post_job(server.addr(), &"[".repeat(100_000)).unwrap();
    assert_eq!(status, 400, "{body}");
    let v = parse_json(&body).unwrap();
    assert_eq!(v.field("code").unwrap().as_str().unwrap(), "bad-spec");
    let detail = v.field("detail").unwrap().as_str().unwrap();
    assert!(
        detail.contains("nesting deeper than 128 levels at byte 128"),
        "{detail}"
    );
    let (status, body) =
        client::post_job(server.addr(), r#"{"workload":"cholesky","n":4}"#).unwrap();
    assert_eq!(status, 200, "{body}");
    server.shutdown();
}

#[test]
fn concurrent_identical_specs_hit_the_cache_after_warmup() {
    let server = default_server();
    let spec = r#"{"workload":"cholesky","n":6,"action":"bounds"}"#;

    // Warm the cache with one synchronous request.
    let (status, body) = client::post_job(server.addr(), spec).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(r#""cache":"miss""#), "{body}");

    // 16 concurrent identical submissions: every one is a counted hit
    // answering the original job id.
    let addr = server.addr();
    let first_id = parse_json(&body)
        .unwrap()
        .field("job_id")
        .unwrap()
        .as_u64()
        .unwrap();
    let handles: Vec<_> = (0..16)
        .map(|_| {
            std::thread::spawn(move || client::post_job(addr, spec).expect("loopback request"))
        })
        .collect();
    for handle in handles {
        let (status, body) = handle.join().unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(body.contains(r#""cache":"hit""#), "{body}");
        let id = parse_json(&body)
            .unwrap()
            .field("job_id")
            .unwrap()
            .as_u64()
            .unwrap();
        assert_eq!(id, first_id, "hits echo the original job id");
    }
    assert_eq!(server.state().results.hits(), 16);
    assert_eq!(server.state().results.misses(), 1);

    // The counters were read in one critical section: no interleaving of
    // the 16 concurrent lookups can tear hits/misses/gets apart.
    let snap = server.state().results.snapshot();
    assert_eq!(snap.hits + snap.misses, snap.gets, "torn snapshot");
    assert_eq!(snap.gets, 17, "one counted get per POST");

    // The stats endpoint reports the same numbers over the wire.
    let (status, stats) = client::get(addr, "/stats").unwrap();
    assert_eq!(status, 200);
    let v = parse_json(&stats).unwrap();
    let results = v.field("cache").unwrap().field("results").unwrap();
    assert_eq!(
        results.field("hits").unwrap().as_u64().unwrap(),
        16,
        "{stats}"
    );
    assert_eq!(
        results.field("misses").unwrap().as_u64().unwrap(),
        1,
        "{stats}"
    );
    assert_eq!(
        results.field("gets").unwrap().as_u64().unwrap(),
        17,
        "{stats}"
    );
    server.shutdown();
}

#[test]
fn degraded_responses_reuse_the_simulator_wire_shape() {
    let server = start(ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    });
    // Kill the only shard, then submit: a structured shard-dead 503.
    assert!(server.kill_shard(0));
    let (status, body) =
        client::post_job(server.addr(), r#"{"workload":"cholesky","n":4}"#).unwrap();
    assert_eq!(status, 503, "{body}");
    let v = parse_json(&body).unwrap();
    assert_eq!(v.field("status").unwrap().as_str().unwrap(), "degraded");
    assert_eq!(v.field("code").unwrap().as_str().unwrap(), "shard-dead");
    let outcome = v.field("outcome").unwrap();
    assert_eq!(
        outcome.field("label").unwrap().as_str().unwrap(),
        "degraded"
    );
    let lost = outcome.field("lost_workers").unwrap().as_arr().unwrap();
    assert_eq!(lost.len(), 1);
    assert_eq!(lost[0].as_u64().unwrap(), 0, "shard 0 is the lost worker");
    server.shutdown();
}

#[test]
fn per_request_budget_sheds_as_deadline_degradation() {
    // One shard, and a first job that occupies the worker long enough for
    // a second, tightly-budgeted job to miss its deadline in the queue.
    let server = start(ServeConfig {
        shards: 1,
        max_batch: 1,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    // Back the single worker up with a queue of distinct heavyweight jobs
    // (jittered lint at n=32, different seeds → different content hashes,
    // no dedup), then submit a 1 ms-budget job behind them.
    let slow: Vec<_> = (0..8)
        .map(|seed| {
            std::thread::spawn(move || {
                let body = format!(
                    r#"{{"workload":"cholesky","n":32,"action":"lint","obs":true,"jitter":true,"seed":{seed}}}"#
                );
                client::post_job(addr, &body).expect("slow job answers")
            })
        })
        .collect();
    // Wait until the backlog is actually enqueued before racing it.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let (_, stats) = client::get(addr, "/stats").unwrap();
        let v = parse_json(&stats).unwrap();
        let submitted = v
            .field("jobs")
            .unwrap()
            .field("submitted")
            .unwrap()
            .as_u64()
            .unwrap();
        let completed = v
            .field("jobs")
            .unwrap()
            .field("completed")
            .unwrap()
            .as_u64()
            .unwrap();
        if submitted >= 8 && completed < 7 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline && completed < 7,
            "backlog drained before the deadline job could race it: {stats}"
        );
        std::thread::yield_now();
    }
    let (status, body) =
        client::post_job(addr, r#"{"workload":"qr","n":12,"budget_ms":1,"seed":77}"#).unwrap();
    assert_eq!(status, 503, "{body}");
    let v = parse_json(&body).unwrap();
    assert_eq!(
        v.field("code").unwrap().as_str().unwrap(),
        "deadline",
        "{body}"
    );
    assert_eq!(
        v.field("outcome")
            .unwrap()
            .field("label")
            .unwrap()
            .as_str()
            .unwrap(),
        "degraded"
    );
    for handle in slow {
        let (status, _) = handle.join().unwrap();
        assert_eq!(status, 200);
    }
    server.shutdown();
}

/// A unique scratch directory for a log-backed server.
fn scratch(tag: &str) -> std::path::PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after the epoch")
        .as_nanos();
    let dir = std::env::temp_dir().join(format!(
        "hetchol-loopback-{tag}-{}-{nanos}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn restart_reserves_committed_traces_bitwise_identical() {
    let dir = scratch("restart");
    let log = dir.join("jobs.jlog");
    let spec = r#"{"workload":"cholesky","n":6,"obs":true,"seed":9}"#;

    let server = start(ServeConfig {
        shards: 2,
        log_path: Some(log.clone()),
        ..ServeConfig::default()
    });
    let (status, body) = client::post_job(server.addr(), spec).unwrap();
    assert_eq!(status, 200, "{body}");
    let id = parse_json(&body)
        .unwrap()
        .field("job_id")
        .unwrap()
        .as_u64()
        .unwrap();
    let (status, trace) = client::get(server.addr(), &format!("/jobs/{id}/trace")).unwrap();
    assert_eq!(status, 200);
    let (_, summary) = client::get(server.addr(), &format!("/jobs/{id}")).unwrap();
    server.shutdown();

    // Same log, new process-equivalent: the job and its trace survive.
    let server = start(ServeConfig {
        shards: 2,
        log_path: Some(log),
        ..ServeConfig::default()
    });
    let report = server
        .recovery()
        .expect("log-backed servers report recovery");
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(report.recovered, 1, "{report:?}");
    let (status, replayed) = client::get(server.addr(), &format!("/jobs/{id}/trace")).unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        replayed, trace,
        "a restarted server re-serves the trace bitwise-identical"
    );
    let (status, resummary) = client::get(server.addr(), &format!("/jobs/{id}")).unwrap();
    assert_eq!(status, 200, "{resummary}");
    assert_eq!(resummary, summary, "the job summary survives too");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn keep_alive_reuses_one_connection_across_requests() {
    let server = default_server();
    let mut conn = client::Conn::new(server.addr());
    for _ in 0..5 {
        let (status, body) = conn.request("GET", "/health", "").unwrap();
        assert_eq!(status, 200, "{body}");
    }
    assert_eq!(conn.reused(), 4, "four of five exchanges reuse the socket");
    server.shutdown();
}

#[test]
fn request_cap_closes_the_connection_and_the_client_reconnects() {
    let server = start(ServeConfig {
        shards: 1,
        max_requests_per_conn: 2,
        ..ServeConfig::default()
    });
    let mut conn = client::Conn::new(server.addr());
    for _ in 0..4 {
        let (status, _) = conn.request("GET", "/health", "").unwrap();
        assert_eq!(status, 200);
    }
    // Per pair: one fresh exchange, one reused, then the server's cap
    // answers `Connection: close` and the client reconnects.
    assert_eq!(conn.reused(), 2);
    server.shutdown();
}

#[test]
fn drain_finishes_commits_then_sheds_draining() {
    let dir = scratch("drain");
    let log = dir.join("jobs.jlog");
    let server = start(ServeConfig {
        shards: 2,
        log_path: Some(log.clone()),
        ..ServeConfig::default()
    });
    let (status, body) =
        client::post_job(server.addr(), r#"{"workload":"cholesky","n":4,"seed":3}"#).unwrap();
    assert_eq!(status, 200, "{body}");

    let (status, body) = client::request(server.addr(), "POST", "/admin/drain", "").unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(r#""status":"drained""#), "{body}");

    // Post-drain submissions shed a structured 503, never a dropped
    // connection; reads still work.
    let (status, body) =
        client::post_job(server.addr(), r#"{"workload":"cholesky","n":5,"seed":3}"#).unwrap();
    assert_eq!(status, 503, "{body}");
    assert!(body.contains(r#""code":"draining""#), "{body}");
    let (status, _) = client::get(server.addr(), "/stats").unwrap();
    assert_eq!(status, 200);

    server.wait_drained(); // already drained: returns immediately
    server.shutdown();

    // The drain's final fsync left the commit durable and the log clean.
    let bytes = std::fs::read(&log).unwrap();
    let (records, report) = hetchol_serve::wal::scan(&bytes);
    assert_eq!(records.len(), 1, "{report:?}");
    assert!(report.is_clean(), "{report:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eviction_under_memory_pressure_reloads_from_the_log() {
    let dir = scratch("evict");
    let log = dir.join("jobs.jlog");
    let server = start(ServeConfig {
        shards: 1,
        log_path: Some(log),
        max_resident_jobs: 1,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    let (status, body) =
        client::post_job(addr, r#"{"workload":"cholesky","n":4,"obs":true,"seed":1}"#).unwrap();
    assert_eq!(status, 200, "{body}");
    let id1 = parse_json(&body)
        .unwrap()
        .field("job_id")
        .unwrap()
        .as_u64()
        .unwrap();
    let (_, trace1) = client::get(addr, &format!("/jobs/{id1}/trace")).unwrap();

    // A second commit over the 1-job residency cap evicts the first.
    let (status, body) =
        client::post_job(addr, r#"{"workload":"cholesky","n":4,"obs":true,"seed":2}"#).unwrap();
    assert_eq!(status, 200, "{body}");
    let (_, stats) = client::get(addr, "/stats").unwrap();
    let v = parse_json(&stats).unwrap();
    let store = v.field("store").unwrap();
    assert!(
        store.field("evicted").unwrap().as_u64().unwrap() >= 1,
        "{stats}"
    );

    // The evicted job transparently reloads from the log, bit for bit.
    let (status, reloaded) = client::get(addr, &format!("/jobs/{id1}/trace")).unwrap();
    assert_eq!(status, 200);
    assert_eq!(reloaded, trace1);
    let (_, stats) = client::get(addr, "/stats").unwrap();
    let v = parse_json(&stats).unwrap();
    assert!(
        v.field("store")
            .unwrap()
            .field("reloads")
            .unwrap()
            .as_u64()
            .unwrap()
            >= 1,
        "{stats}"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The jobs whose answers must survive their whole life: Cholesky
/// simulate and lint jobs with and without obs, a jittered one, one with
/// a seeded fault plan, and a bounds job that never simulated.
fn lifetime_specs() -> Vec<(&'static str, JobSpec)> {
    let job = |n: usize, action: JobAction, obs: bool, seed: u64| {
        let mut spec = JobSpec::new("cholesky", n).unwrap().action(action);
        spec.obs = obs;
        spec.seed = seed;
        spec
    };
    let mut jittered = job(5, JobAction::Simulate, true, 5);
    jittered.jitter = true;
    let mut faulted = job(6, JobAction::Lint, true, 6);
    faulted.faults = FaultPlan::seeded(
        6,
        faulted.workload.graph(6).len(),
        Platform::mirage().n_workers(),
    );
    vec![
        ("simulate", job(4, JobAction::Simulate, false, 1)),
        ("simulate obs", job(4, JobAction::Simulate, true, 2)),
        ("lint", job(5, JobAction::Lint, false, 3)),
        ("lint obs", job(5, JobAction::Lint, true, 4)),
        ("jittered simulate obs", jittered),
        ("faulted lint obs", faulted),
        ("bounds", job(4, JobAction::Bounds, false, 7)),
    ]
}

/// Per job of [`lifetime_specs`], FNV-1a digests of its resident
/// `/jobs/<id>`, `/jobs/<id>/trace` and `/jobs/<id>/lint` bodies,
/// recorded while the store still kept each run's `SimResult` beside its
/// log record: the resident answers must not move.
const LIFETIME_GOLDENS: [&str; 7] = [
    "simulate: f68dff91c992b88a c8be455fb131f1f3 a9ff1169a951840e",
    "simulate obs: 66006ebe72d93deb f6b1f17315809d3e e3ed0e1c4bd69f4b",
    "lint: b2218ea90a8cb388 57c9f7242f6a29a9 2639044dc7910662",
    "lint obs: dde0a97c80a1c556 499fceef7bda2ce3 a6696a52dd3a81c1",
    "jittered simulate obs: 7c94987f3f9fd038 c52bd0fcd87ecffc 53f854468bd1e779",
    "faulted lint obs: a53cc2206ba9786b b5d280a6e0fb243a 123b960a7e76b034",
    "bounds: 0f20560498308614 c83ff660e4a019ad e87bc33823892bb0",
];

const SUBRESOURCES: [&str; 3] = ["", "/trace", "/lint"];

fn fnv(body: &str) -> String {
    let mut h = hetchol_core::hash::ContentHasher::new();
    h.write_bytes(body.as_bytes());
    hetchol_core::hash::hash_hex(h.finish())
}

/// Every subresource of every job, read subresource by subresource so
/// that no two consecutive reads name the same job: under a 1-job
/// residency cap each read finds its job evicted.
fn read_round_robin(addr: std::net::SocketAddr, ids: &[u64]) -> Vec<Vec<(u16, String)>> {
    let mut bodies = vec![Vec::new(); ids.len()];
    for sub in SUBRESOURCES {
        for (k, id) in ids.iter().enumerate() {
            bodies[k].push(client::get(addr, &format!("/jobs/{id}{sub}")).unwrap());
        }
    }
    bodies
}

fn reloads(addr: std::net::SocketAddr) -> u64 {
    let (_, stats) = client::get(addr, "/stats").unwrap();
    let v = parse_json(&stats).unwrap();
    v.field("store")
        .unwrap()
        .field("reloads")
        .unwrap()
        .as_u64()
        .unwrap()
}

#[test]
fn job_answers_are_identical_resident_evicted_and_recovered() {
    let dir = scratch("lifetime");
    let config = ServeConfig {
        shards: 1,
        log_path: Some(dir.join("jobs.jlog")),
        max_resident_jobs: 1,
        ..ServeConfig::default()
    };
    let specs = lifetime_specs();

    // Resident: each job is read right after its commit, while it is the
    // one job the cap lets stay.
    let server = start(config.clone());
    let addr = server.addr();
    let mut ids = Vec::new();
    let mut resident = Vec::new();
    for (label, spec) in &specs {
        let (status, body) = client::post_job(addr, &spec.to_json()).unwrap();
        assert_eq!(status, 200, "{label}: {body}");
        let id = parse_json(&body)
            .unwrap()
            .field("job_id")
            .unwrap()
            .as_u64()
            .unwrap();
        ids.push(id);
        resident.push(
            SUBRESOURCES
                .map(|sub| client::get(addr, &format!("/jobs/{id}{sub}")).unwrap())
                .to_vec(),
        );
    }
    assert_eq!(reloads(addr), 0, "resident reads reload nothing");
    let digests: Vec<String> = specs
        .iter()
        .zip(&resident)
        .map(|((label, _), reads)| {
            let d: Vec<String> = reads.iter().map(|(_, body)| fnv(body)).collect();
            format!("{label}: {}", d.join(" "))
        })
        .collect();
    assert_eq!(digests, LIFETIME_GOLDENS);
    for ((label, spec), reads) in specs.iter().zip(&resident) {
        let (status, lint) = &reads[2];
        if spec.action == JobAction::Bounds {
            assert_eq!(*status, 400, "{label}: {lint}");
            assert!(lint.contains(r#""code":"no-trace""#), "{label}: {lint}");
        } else {
            assert_eq!(*status, 200, "{label}: {lint}");
            assert!(lint.contains(r#""status":"ok""#), "{label}: {lint}");
        }
    }

    let same_as_resident = |state: &str, got: &[Vec<(u16, String)>]| {
        for (((label, _), want), got) in specs.iter().zip(&resident).zip(got) {
            for ((sub, (ws, wb)), (gs, gb)) in SUBRESOURCES.iter().zip(want).zip(got) {
                assert!(
                    (ws, wb) == (gs, gb),
                    "{label} /jobs/<id>{sub} {state}: status {gs} ({} bytes) vs resident {ws} ({} bytes): {gb:.200}",
                    gb.len(),
                    wb.len()
                );
            }
        }
    };

    // Evicted: one more commit evicts the last job, so every read below
    // reloads its job from the log.
    let (status, body) =
        client::post_job(addr, r#"{"workload":"cholesky","n":3,"action":"bounds"}"#).unwrap();
    assert_eq!(status, 200, "{body}");
    let evicted = read_round_robin(addr, &ids);
    assert_eq!(
        reloads(addr),
        (SUBRESOURCES.len() * ids.len()) as u64,
        "every read found its job evicted"
    );
    same_as_resident("after eviction", &evicted);
    server.shutdown();

    // Recovered: a restart on the same log.
    let server = start(config);
    let recovered = read_round_robin(server.addr(), &ids);
    same_as_resident("after restart", &recovered);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
