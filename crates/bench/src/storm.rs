//! `repro storm` — a load, cache and chaos harness for `hetchol-serve`.
//!
//! The storm drives one server (in-process by default, `--addr` to aim at
//! an external one) through three legs:
//!
//! 1. **Load** — `jobs` concurrent submissions over a mixed grid of
//!    workloads, sizes, schedulers, actions, seeds and fault plans, with
//!    a deliberately repeated "hot" spec so cache hits happen *during*
//!    the storm. Every connection must come back with a valid HTTP
//!    response — a structured `Degraded` body counts, a dropped
//!    connection fails the storm — and p99 latency is asserted.
//! 2. **Cache** — the hot spec is resubmitted and must answer
//!    `"cache":"hit"`, with the hit visible in `GET /stats`.
//! 3. **Chaos** — shard 0 is killed through the admin API and a spec
//!    deterministically routed to it must answer a structured
//!    `shard-dead` degradation, not a hang or a reset.
//!
//! Three opt-in durability legs ride behind flags (DESIGN.md §17):
//!
//! - `--keep-alive` — the same hot request is timed over one reused
//!   HTTP/1.1 connection and over close-per-connection one-shots; the
//!   kept-alive p99 must strictly improve.
//! - `--disk-fault` — one in-process server per injected write-fault
//!   kind (short write, flush failure, disk full); the commit that hits
//!   the fault still answers, every later submission must shed a
//!   structured `store-unavailable` 503, and a post-hoc [`wal::scan`]
//!   of each log must recover exactly the committed prefix.
//! - `--kill-restart` — a `repro serve --log` child process is
//!   SIGKILLed mid-storm and restarted on the same log; every trace
//!   committed before the kill must re-serve bitwise-identical, and
//!   `POST /admin/drain` must exit the restarted child cleanly.

use hetchol::job::JobSpec;
use hetchol_core::fault::IoFaultPlan;
use hetchol_core::json::{parse_json, JsonValue};
use hetchol_serve::{client, wal, ServeConfig, Server};
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Storm tuning.
pub struct StormOptions {
    /// Aim at an already-running server instead of booting one in-process.
    pub addr: Option<String>,
    /// Concurrent jobs in the load leg.
    pub jobs: usize,
    /// Asserted p99 latency ceiling, milliseconds.
    pub p99_limit_ms: u64,
    /// Emit the report as one JSON object instead of a table.
    pub json: bool,
    /// Run the keep-alive latency leg.
    pub keep_alive: bool,
    /// Run the disk-fault injection leg.
    pub disk_fault: bool,
    /// Run the SIGKILL + restart durability leg.
    pub kill_restart: bool,
    /// Binary spawned as `<exe> serve --log <path>` by the kill-restart
    /// leg. `None` means the current executable (right when the storm
    /// runs inside `repro` itself; tests point this at the built binary).
    pub serve_exe: Option<PathBuf>,
}

impl StormOptions {
    /// The full storm: 1000 concurrent jobs (the acceptance floor).
    pub fn full() -> StormOptions {
        StormOptions {
            addr: None,
            jobs: 1000,
            p99_limit_ms: 20_000,
            json: false,
            keep_alive: false,
            disk_fault: false,
            kill_restart: false,
            serve_exe: None,
        }
    }

    /// CI-sized storm: same legs, fewer jobs.
    pub fn quick() -> StormOptions {
        StormOptions {
            jobs: 64,
            ..StormOptions::full()
        }
    }
}

/// The server configuration `repro serve` and the in-process storm use:
/// queues deep enough that a full storm mostly completes (sheds are still
/// exercised by the chaos leg) and a generous default deadline.
pub fn serve_config(addr: &str, shards: usize) -> ServeConfig {
    ServeConfig {
        addr: addr.into(),
        shards,
        queue_depth: 512,
        default_budget_ms: 60_000,
        ..ServeConfig::default()
    }
}

/// One request's classification.
#[derive(Copy, Clone, PartialEq, Eq)]
enum Class {
    Ok,
    OkCacheHit,
    DegradedQueueFull,
    DegradedDeadline,
    DegradedShardDead,
    DegradedStoreUnavailable,
    DegradedDraining,
    Rejected,
    MalformedBody,
    Dropped,
}

fn classify(result: &std::io::Result<(u16, String)>) -> Class {
    let Ok((status, body)) = result else {
        return Class::Dropped;
    };
    let Ok(v) = parse_json(body) else {
        return Class::MalformedBody;
    };
    let status_field = v.get("status").and_then(|s| s.as_str().ok()).unwrap_or("");
    match (*status, status_field) {
        (200, "ok") => {
            if v.get("cache").and_then(|c| c.as_str().ok()) == Some("hit") {
                Class::OkCacheHit
            } else {
                Class::Ok
            }
        }
        (503, "degraded") => {
            // A shed must carry the simulator's Degraded wire shape.
            let outcome_ok = v
                .get("outcome")
                .and_then(|o| o.get("label"))
                .and_then(|l| l.as_str().ok())
                == Some("degraded");
            if !outcome_ok {
                return Class::MalformedBody;
            }
            match v.get("code").and_then(|c| c.as_str().ok()) {
                Some("queue-full") => Class::DegradedQueueFull,
                Some("deadline") => Class::DegradedDeadline,
                Some("shard-dead") => Class::DegradedShardDead,
                Some("store-unavailable") => Class::DegradedStoreUnavailable,
                Some("draining") => Class::DegradedDraining,
                _ => Class::MalformedBody,
            }
        }
        (400, "error") => Class::Rejected,
        _ => Class::MalformedBody,
    }
}

/// The load-leg spec mix: valid by construction, diverse across every
/// wire field, with index-0-mod-5 repeating the hot spec.
fn mix_spec(i: usize) -> JobSpec {
    if i.is_multiple_of(5) {
        return hot_spec();
    }
    let workloads = ["cholesky", "lu", "qr"];
    let sizes = [4usize, 6, 8, 10, 12];
    let schedulers = [
        "dmda",
        "dmdas",
        "eager",
        "random",
        "triangle:3",
        "gemmsyrk-gpu",
    ];
    let mut spec = JobSpec::new(workloads[i % 3], sizes[i % 5]).expect("known workload");
    spec.scheduler = schedulers[i % 6].into();
    spec.action = match i % 3 {
        0 => hetchol::job::JobAction::Simulate,
        1 => hetchol::job::JobAction::Bounds,
        _ => hetchol::job::JobAction::Lint,
    };
    spec.seed = (i % 4) as u64;
    spec.jitter = i.is_multiple_of(11);
    spec.obs = i.is_multiple_of(2);
    if i % 7 == 3 {
        spec.faults = hetchol_core::fault::FaultPlan::new().kill_worker(1, 6);
    }
    spec
}

fn hot_spec() -> JobSpec {
    let mut spec = JobSpec::new("cholesky", 8).expect("known workload");
    spec.action = hetchol::job::JobAction::Bounds;
    spec
}

/// Post with a few connect retries: a refused *connect* under a thundering
/// herd is client-side backlog pressure, not a server-dropped connection.
/// Once a request is written, there are no retries — a mid-flight failure
/// counts as dropped.
fn post_with_retry(addr: SocketAddr, body: &str) -> std::io::Result<(u16, String)> {
    let mut last_err = None;
    for attempt in 0..3 {
        match client::post_job(addr, body) {
            Ok(ok) => return Ok(ok),
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => {
                std::thread::sleep(Duration::from_millis(10 << attempt));
                last_err = Some(e);
            }
            Err(e) => return Err(e),
        }
    }
    Err(last_err.expect("retried at least once"))
}

struct Tally {
    ok: usize,
    cache_hits: usize,
    queue_full: usize,
    deadline: usize,
    shard_dead: usize,
    store_unavailable: usize,
    draining: usize,
    rejected: usize,
    malformed: usize,
    dropped: usize,
}

impl Tally {
    fn count(results: &[(Class, Duration)]) -> Tally {
        let of = |c: Class| results.iter().filter(|(r, _)| *r == c).count();
        Tally {
            ok: of(Class::Ok) + of(Class::OkCacheHit),
            cache_hits: of(Class::OkCacheHit),
            queue_full: of(Class::DegradedQueueFull),
            deadline: of(Class::DegradedDeadline),
            shard_dead: of(Class::DegradedShardDead),
            store_unavailable: of(Class::DegradedStoreUnavailable),
            draining: of(Class::DegradedDraining),
            rejected: of(Class::Rejected),
            malformed: of(Class::MalformedBody),
            dropped: of(Class::Dropped),
        }
    }
}

fn percentile(sorted_ms: &[u64], p: f64) -> u64 {
    if sorted_ms.is_empty() {
        return 0;
    }
    let rank = ((sorted_ms.len() as f64 * p).ceil() as usize).max(1) - 1;
    sorted_ms[rank.min(sorted_ms.len() - 1)]
}

// ---------------------------------------------------------------------------
// Durability legs (opt-in; DESIGN.md §17)
// ---------------------------------------------------------------------------

/// One opt-in leg's outcome: human lines for the table report, members
/// for the JSON report, and failures that merge into the storm's own.
struct LegReport {
    name: &'static str,
    lines: Vec<String>,
    json: Vec<(String, JsonValue)>,
    failures: Vec<String>,
}

impl LegReport {
    fn new(name: &'static str) -> LegReport {
        LegReport {
            name,
            lines: Vec::new(),
            json: Vec::new(),
            failures: Vec::new(),
        }
    }

    fn fail(&mut self, what: String) {
        self.failures.push(format!("{}: {what}", self.name));
    }
}

/// A unique scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> std::io::Result<PathBuf> {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after the epoch")
        .as_nanos();
    let dir = std::env::temp_dir().join(format!(
        "hetchol-storm-{tag}-{}-{nanos}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// A small obs-enabled spec with a leg-local seed so nothing collides
/// with the result cache of another leg or wave.
fn durable_spec(n: usize, seed: u64) -> JobSpec {
    let mut spec = JobSpec::new("cholesky", n).expect("known workload");
    spec.obs = true;
    spec.seed = seed;
    spec
}

/// The keep-alive leg: time the same hot (cached) request over one
/// persistent connection and over close-per-connection one-shots. The
/// cache-hit answer path is identical, so the delta is pure connection
/// setup — the kept-alive p99 must strictly improve.
fn keep_alive_leg(addr: SocketAddr) -> LegReport {
    const SAMPLES: usize = 300;
    let mut leg = LegReport::new("keep-alive");
    let body = hot_spec().to_json();
    if !matches!(
        classify(&post_with_retry(addr, &body)),
        Class::Ok | Class::OkCacheHit
    ) {
        leg.fail("hot-spec warmup did not complete".into());
        return leg;
    }

    let mut close_us = Vec::with_capacity(SAMPLES);
    let mut dropped = 0usize;
    for _ in 0..SAMPLES {
        let t0 = Instant::now();
        match client::post_job(addr, &body) {
            Ok((200, _)) => close_us.push(t0.elapsed().as_micros() as u64),
            _ => dropped += 1,
        }
    }

    let mut conn = client::Conn::new(addr);
    let mut keep_us = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t0 = Instant::now();
        match conn.request("POST", "/jobs", &body) {
            Ok((200, _)) => keep_us.push(t0.elapsed().as_micros() as u64),
            _ => dropped += 1,
        }
    }
    let reused = conn.reused();

    close_us.sort_unstable();
    keep_us.sort_unstable();
    let close_p99 = percentile(&close_us, 0.99);
    let keep_p99 = percentile(&keep_us, 0.99);

    if dropped > 0 {
        leg.fail(format!("{dropped} request(s) failed on a healthy server"));
    }
    if reused + 1 < SAMPLES as u64 {
        leg.fail(format!(
            "connection only reused {reused} of {} exchanges",
            SAMPLES - 1
        ));
    }
    if keep_p99 >= close_p99 {
        leg.fail(format!(
            "kept-alive p99 {keep_p99}us did not improve on close-per-connection p99 {close_p99}us"
        ));
    }
    leg.lines.push(format!(
        "{SAMPLES} hot requests: close-per-connection p99 {close_p99}us, kept-alive p99 {keep_p99}us ({reused} reuses)"
    ));
    leg.json = vec![
        ("samples".into(), JsonValue::uint(SAMPLES as u64)),
        ("reused".into(), JsonValue::uint(reused)),
        ("close_p99_us".into(), JsonValue::uint(close_p99)),
        ("keep_alive_p99_us".into(), JsonValue::uint(keep_p99)),
    ];
    leg
}

/// The disk-fault leg: one in-process server per injected write-fault
/// kind, each with its own log file. The submission that hits the fault
/// still answers (its result is just not durable); the next one must
/// shed a structured `store-unavailable` 503; and a post-hoc scan of
/// the log must recover exactly the durably-committed prefix.
fn disk_fault_leg() -> LegReport {
    let mut leg = LegReport::new("disk-fault");
    let dir = match scratch_dir("disk-fault") {
        Ok(dir) => dir,
        Err(e) => {
            leg.fail(format!("cannot create a scratch dir: {e}"));
            return leg;
        }
    };
    // (kind, plan, records a post-hoc scan must recover, torn tail?).
    // Appends sync per commit, so all three kinds fire on the second
    // committed job: the short write tears its frame (1 recovered, torn
    // tail), the flush failure leaves the full frame on disk (2
    // recovered, clean), disk-full refuses before writing (1, clean).
    let cases: [(&str, IoFaultPlan, usize, bool); 3] = [
        ("short-write", IoFaultPlan::new().short_write(2, 5), 1, true),
        ("flush-fail", IoFaultPlan::new().flush_fail(2), 2, false),
        ("disk-full", IoFaultPlan::new().disk_full(1), 1, false),
    ];
    let mut cases_json = Vec::new();
    for (kind, plan, want_recovered, want_torn) in cases {
        let log = dir.join(format!("{kind}.jlog"));
        let config = ServeConfig {
            log_path: Some(log.clone()),
            io_faults: plan,
            ..serve_config("127.0.0.1:0", 2)
        };
        let server = match Server::start(config) {
            Ok(server) => server,
            Err(e) => {
                leg.fail(format!("{kind}: cannot boot server: {e}"));
                continue;
            }
        };
        let addr = server.addr();

        let mut committed_ids = Vec::new();
        let mut shed_shape_ok = false;
        for i in 0..3u64 {
            match post_with_retry(addr, &durable_spec(6, 1000 + i).to_json()) {
                Ok((200, response)) => {
                    let id = parse_json(&response)
                        .ok()
                        .and_then(|v| v.get("job_id").cloned())
                        .and_then(|id| id.as_u64().ok());
                    match id {
                        Some(id) => committed_ids.push(id),
                        None => leg.fail(format!("{kind}: 200 body without a job_id")),
                    }
                }
                Ok((503, response)) => {
                    // Must be the structured read-only shed, nothing else.
                    if classify(&Ok((503, response.clone()))) == Class::DegradedStoreUnavailable {
                        shed_shape_ok = true;
                    } else {
                        leg.fail(format!("{kind}: 503 without the store-unavailable shape"));
                    }
                }
                Ok((status, _)) => leg.fail(format!("{kind}: unexpected status {status}")),
                Err(e) => leg.fail(format!("{kind}: dropped connection: {e}")),
            }
        }
        if committed_ids.len() != 2 {
            leg.fail(format!(
                "{kind}: expected 2 answered commits before read-only mode, saw {}",
                committed_ids.len()
            ));
        }
        if !shed_shape_ok {
            leg.fail(format!(
                "{kind}: no structured store-unavailable shed after the write fault"
            ));
        }

        // The degradation must be observable in /stats.
        let stats = client::get(addr, "/stats")
            .ok()
            .and_then(|(_, body)| parse_json(&body).ok());
        let log_healthy = stats
            .as_ref()
            .and_then(|v| v.get("log"))
            .and_then(|l| l.get("healthy"))
            .and_then(|h| h.as_bool().ok())
            .unwrap_or(true);
        let shed_count = stats
            .as_ref()
            .and_then(|v| v.get("shed"))
            .and_then(|s| s.get("store_unavailable"))
            .and_then(|n| n.as_u64().ok())
            .unwrap_or(0);
        if log_healthy {
            leg.fail(format!("{kind}: /stats still reports the log healthy"));
        }
        if shed_count == 0 {
            leg.fail(format!("{kind}: shed not counted in /stats"));
        }
        server.shutdown();

        // Post-hoc recovery: the scan must hand back exactly the
        // durable prefix, every recovered id one the server answered.
        let bytes = std::fs::read(&log).unwrap_or_default();
        let (records, report) = wal::scan(&bytes);
        if records.len() != want_recovered {
            leg.fail(format!(
                "{kind}: scan recovered {} record(s), expected {want_recovered}",
                records.len()
            ));
        }
        if report.torn.is_some() != want_torn {
            leg.fail(format!(
                "{kind}: torn tail {} but expected torn={want_torn}",
                if report.torn.is_some() {
                    "present"
                } else {
                    "absent"
                }
            ));
        }
        for scanned in &records {
            if !committed_ids.contains(&scanned.record.id) {
                leg.fail(format!(
                    "{kind}: phantom job {} recovered from the log",
                    scanned.record.id
                ));
            }
        }
        leg.lines.push(format!(
            "{kind}: {} answered commit(s), store-unavailable shed {}, scan recovered {} ({})",
            committed_ids.len(),
            if shed_shape_ok { "ok" } else { "MISSING" },
            records.len(),
            if report.torn.is_some() {
                "torn tail truncated"
            } else {
                "clean"
            }
        ));
        cases_json.push((
            kind.to_string(),
            JsonValue::Obj(vec![
                ("shed_ok".into(), JsonValue::Bool(shed_shape_ok)),
                ("recovered".into(), JsonValue::uint(records.len() as u64)),
                ("torn".into(), JsonValue::Bool(report.torn.is_some())),
            ]),
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    leg.json = cases_json;
    leg
}

/// Spawn `<exe> serve --log <log>` and parse the announced address off
/// its stdout. The remaining stdout is drained by a detached thread so
/// the child can never block on a full pipe.
fn spawn_serve(exe: &Path, log: &Path) -> std::io::Result<(std::process::Child, SocketAddr)> {
    use std::io::BufRead;
    let mut child = std::process::Command::new(exe)
        .args(["serve", "--addr", "127.0.0.1:0", "--shards", "2", "--log"])
        .arg(log)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut reader = std::io::BufReader::new(stdout);
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::other(
                "serve child exited before announcing its address",
            ));
        }
        if let Some(rest) = line.trim().strip_prefix("serve: listening on http://") {
            let addr = rest
                .trim()
                .to_socket_addrs()?
                .next()
                .ok_or_else(|| std::io::Error::other("unparseable announced address"))?;
            std::thread::spawn(move || {
                let _ = std::io::copy(&mut reader, &mut std::io::sink());
            });
            return Ok((child, addr));
        }
    }
}

/// The kill-restart leg: SIGKILL a `repro serve --log` child mid-storm,
/// restart it on the same log, and require every pre-kill committed
/// trace and lint report to re-serve bitwise-identical. The restarted
/// child must then drain cleanly and leave a log with no torn records.
fn kill_restart_leg(serve_exe: &Path) -> LegReport {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let mut leg = LegReport::new("kill-restart");
    let dir = match scratch_dir("kill-restart") {
        Ok(dir) => dir,
        Err(e) => {
            leg.fail(format!("cannot create a scratch dir: {e}"));
            return leg;
        }
    };
    let log = dir.join("jobs.jlog");
    let (mut child, addr) = match spawn_serve(serve_exe, &log) {
        Ok(started) => started,
        Err(e) => {
            leg.fail(format!("cannot spawn `serve --log`: {e}"));
            return leg;
        }
    };

    // Wave 1: commits whose traces and lint reports must survive the
    // kill. Every submission, trace and lint fetch here runs against a
    // healthy server — any failure is a dropped connection and fails the
    // leg.
    let mut traces: Vec<(u64, String, String)> = Vec::new();
    for i in 0..6u64 {
        match post_with_retry(addr, &durable_spec(6, 2000 + i).to_json()) {
            Ok((200, response)) => {
                let id = parse_json(&response)
                    .ok()
                    .and_then(|v| v.get("job_id").cloned())
                    .and_then(|id| id.as_u64().ok());
                let Some(id) = id else {
                    leg.fail("200 body without a job_id".into());
                    continue;
                };
                let [trace, lint] = ["trace", "lint"].map(|sub| {
                    match client::get(addr, &format!("/jobs/{id}/{sub}")) {
                        Ok((200, body)) => Some(body),
                        Ok((status, _)) => {
                            leg.fail(format!("job {id} {sub} answered {status}"));
                            None
                        }
                        Err(e) => {
                            leg.fail(format!("job {id} {sub} dropped: {e}"));
                            None
                        }
                    }
                });
                if let (Some(trace), Some(lint)) = (trace, lint) {
                    traces.push((id, trace, lint));
                }
            }
            Ok((status, _)) => leg.fail(format!("wave-1 submission answered {status}")),
            Err(e) => leg.fail(format!("wave-1 submission dropped: {e}")),
        }
    }

    // Wave 2: background submitters so the SIGKILL lands mid-storm.
    // Their connections die with the server — that is the point — so
    // errors here end the thread rather than fail the leg.
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..3u64)
        .map(|w| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut sent = 0u64;
                for i in 0..u64::MAX {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let spec = durable_spec(8, 3000 + w * 10_000 + i);
                    if client::post_job(addr, &spec.to_json()).is_err() {
                        break;
                    }
                    sent += 1;
                }
                sent
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(80));
    let _ = child.kill();
    let _ = child.wait();
    stop.store(true, Ordering::Relaxed);
    let wave2: u64 = workers.into_iter().map(|h| h.join().unwrap_or(0)).sum();

    // Restart on the same log: every pre-kill trace must come back
    // byte-for-byte, served from the recovered log, and every lint report
    // re-derived from the recovered spec must match byte-for-byte too.
    let (mut child2, addr2) = match spawn_serve(serve_exe, &log) {
        Ok(started) => started,
        Err(e) => {
            leg.fail(format!("cannot restart `serve --log`: {e}"));
            return leg;
        }
    };
    let mut identical = 0usize;
    let mut lint_identical = 0usize;
    for (id, trace, lint) in &traces {
        for (sub, want, same) in [
            ("trace", trace, &mut identical),
            ("lint", lint, &mut lint_identical),
        ] {
            match client::get(addr2, &format!("/jobs/{id}/{sub}")) {
                Ok((200, got)) if got == *want => *same += 1,
                Ok((status, got)) => leg.fail(format!(
                    "job {id} {sub} not bitwise-identical after restart (status {status}, {} vs {} bytes)",
                    got.len(),
                    want.len()
                )),
                Err(e) => leg.fail(format!("job {id} {sub} dropped after restart: {e}")),
            }
        }
    }

    // Graceful drain: the restarted child must exit cleanly, and the
    // log it leaves must scan with no torn tail — restart truncated the
    // kill's torn bytes, so only whole committed records remain.
    match client::request(addr2, "POST", "/admin/drain", "") {
        Ok((200, _)) => {}
        Ok((status, _)) => leg.fail(format!("drain answered {status}")),
        Err(e) => leg.fail(format!("drain dropped: {e}")),
    }
    match child2.wait() {
        Ok(status) if status.success() => {}
        Ok(status) => leg.fail(format!("drained child exited with {status}")),
        Err(e) => leg.fail(format!("cannot wait for the drained child: {e}")),
    }
    let bytes = std::fs::read(&log).unwrap_or_default();
    let (records, report) = wal::scan(&bytes);
    if records.len() < traces.len() {
        leg.fail(format!(
            "final log holds {} record(s), fewer than the {} pre-kill commits",
            records.len(),
            traces.len()
        ));
    }
    if report.torn.is_some() {
        leg.fail("final log still has a torn tail after recovery + drain".into());
    }
    let _ = std::fs::remove_dir_all(&dir);

    leg.lines.push(format!(
        "{} pre-kill traces ({identical} bitwise-identical after restart, {lint_identical} lint reports identical), {wave2} mid-kill submission(s), final log {} record(s) ({})",
        traces.len(),
        records.len(),
        if report.torn.is_some() { "torn" } else { "clean" }
    ));
    leg.json = vec![
        (
            "pre_kill_traces".into(),
            JsonValue::uint(traces.len() as u64),
        ),
        ("identical".into(), JsonValue::uint(identical as u64)),
        (
            "lint_identical".into(),
            JsonValue::uint(lint_identical as u64),
        ),
        ("mid_kill_submissions".into(), JsonValue::uint(wave2)),
        (
            "final_log_records".into(),
            JsonValue::uint(records.len() as u64),
        ),
        ("torn".into(), JsonValue::Bool(report.torn.is_some())),
    ];
    leg
}

/// Run the storm. Returns the report and the number of failed assertions
/// (the process exit code is 1 when nonzero).
pub fn storm(opts: &StormOptions) -> (String, usize) {
    // Resolve or boot the target server.
    let (addr, own_server): (SocketAddr, Option<Server>) = match &opts.addr {
        Some(a) => match a.to_socket_addrs().ok().and_then(|mut i| i.next()) {
            Some(addr) => (addr, None),
            None => return (format!("storm: bad --addr {a:?}\n"), 1),
        },
        None => match Server::start(serve_config("127.0.0.1:0", 4)) {
            Ok(server) => (server.addr(), Some(server)),
            Err(e) => return (format!("storm: cannot boot server: {e}\n"), 1),
        },
    };

    // Prime the hot spec so its in-storm repetitions are deterministic,
    // counted cache hits rather than a race between in-flight twins.
    let warmup = classify(&post_with_retry(addr, &hot_spec().to_json()));
    let warmed = matches!(warmup, Class::Ok | Class::OkCacheHit);

    // Leg 1: concurrent load.
    let started = Instant::now();
    let handles: Vec<_> = (0..opts.jobs)
        .map(|i| {
            let body = mix_spec(i).to_json();
            std::thread::spawn(move || {
                let t0 = Instant::now();
                let result = post_with_retry(addr, &body);
                (classify(&result), t0.elapsed())
            })
        })
        .collect();
    let results: Vec<(Class, Duration)> = handles
        .into_iter()
        .map(|h| h.join().unwrap_or((Class::Dropped, Duration::from_secs(0))))
        .collect();
    let wall = started.elapsed();
    let tally = Tally::count(&results);
    let mut latencies_ms: Vec<u64> = results.iter().map(|(_, d)| d.as_millis() as u64).collect();
    latencies_ms.sort_unstable();
    let p50 = percentile(&latencies_ms, 0.50);
    let p90 = percentile(&latencies_ms, 0.90);
    let p99 = percentile(&latencies_ms, 0.99);
    let max = latencies_ms.last().copied().unwrap_or(0);

    // Leg 2: the hot spec must now be a counted cache hit.
    let cache_leg_hit = matches!(
        classify(&post_with_retry(addr, &hot_spec().to_json())),
        Class::OkCacheHit
    );
    let stats = client::get(addr, "/stats").ok();
    let stats_value = stats.as_ref().and_then(|(_, b)| parse_json(b).ok());
    let observed_hits = stats_value
        .as_ref()
        .and_then(|v| v.get("cache"))
        .and_then(|c| c.get("results"))
        .and_then(|r| r.get("hits"))
        .and_then(|h| h.as_u64().ok())
        .unwrap_or(0);
    let n_shards = stats_value
        .as_ref()
        .and_then(|v| v.get("shards"))
        .and_then(|s| s.as_arr().ok().map(|a| a.len()))
        .unwrap_or(4)
        .max(1);

    // Leg 3: kill shard 0 and submit a spec that provably routes to it.
    let kill_ok = matches!(
        client::request(addr, "POST", "/admin/shards/0/kill", ""),
        Ok((200, _))
    );
    let mut victim = JobSpec::new("cholesky", 13).expect("known workload");
    victim.seed = (0..)
        .find(|&s| {
            let mut probe = JobSpec::new("cholesky", 13).expect("known workload");
            probe.seed = s;
            probe.content_hash().is_multiple_of(n_shards as u64)
        })
        .expect("some seed routes to shard 0");
    let chaos_class = classify(&post_with_retry(addr, &victim.to_json()));
    let chaos_shed = chaos_class == Class::DegradedShardDead;

    // Assertions.
    let mut failures = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };
    check(
        tally.dropped == 0,
        format!(
            "{} dropped connection(s); overload must answer Degraded",
            tally.dropped
        ),
    );
    check(
        tally.malformed == 0,
        format!("{} malformed response body/bodies", tally.malformed),
    );
    check(
        tally.rejected == 0,
        format!(
            "{} rejected job(s); the storm mix is valid by construction",
            tally.rejected
        ),
    );
    check(
        p99 <= opts.p99_limit_ms,
        format!("p99 {p99}ms over the {}ms limit", opts.p99_limit_ms),
    );
    check(warmed, "hot-spec warmup request did not complete".into());
    check(
        tally.cache_hits > 0,
        "no cache hits during the storm (the warmed hot spec repeats)".into(),
    );
    check(
        cache_leg_hit,
        "hot-spec resubmission was not a cache hit".into(),
    );
    check(
        observed_hits > 0,
        "cache hits not observable in GET /stats".into(),
    );
    check(kill_ok, "admin shard kill did not answer 200".into());
    check(
        chaos_shed,
        "job routed to the killed shard did not answer a structured shard-dead".into(),
    );

    // Opt-in durability legs. The keep-alive leg reuses the storm's
    // server (its hot path is a cache hit, so the chaos-killed shard is
    // never routed to); the other two boot their own.
    let mut legs = Vec::new();
    if opts.keep_alive {
        legs.push(keep_alive_leg(addr));
    }
    if opts.disk_fault {
        legs.push(disk_fault_leg());
    }
    if opts.kill_restart {
        match opts
            .serve_exe
            .clone()
            .or_else(|| std::env::current_exe().ok())
        {
            Some(exe) => legs.push(kill_restart_leg(&exe)),
            None => failures.push("kill-restart: no serve executable to spawn".into()),
        }
    }
    for leg in &legs {
        failures.extend(leg.failures.iter().cloned());
    }

    let report = if opts.json {
        render_json(
            opts,
            &tally,
            wall,
            (p50, p90, p99, max),
            observed_hits,
            &legs,
            &failures,
        )
    } else {
        render_table(
            opts,
            &tally,
            wall,
            (p50, p90, p99, max),
            observed_hits,
            &legs,
            &failures,
        )
    };
    if let Some(server) = own_server {
        server.shutdown();
    }
    (report, failures.len())
}

fn render_table(
    opts: &StormOptions,
    t: &Tally,
    wall: Duration,
    (p50, p90, p99, max): (u64, u64, u64, u64),
    observed_hits: u64,
    legs: &[LegReport],
    failures: &[String],
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# storm: {} concurrent jobs in {:.2}s\n",
        opts.jobs,
        wall.as_secs_f64()
    ));
    out.push_str(&format!("{:>26} {:>8}\n", "outcome", "count"));
    for (label, n) in [
        ("ok", t.ok),
        ("  of which cache hits", t.cache_hits),
        ("degraded queue-full", t.queue_full),
        ("degraded deadline", t.deadline),
        ("degraded shard-dead", t.shard_dead),
        ("degraded store-unavailable", t.store_unavailable),
        ("degraded draining", t.draining),
        ("rejected (400)", t.rejected),
        ("malformed bodies", t.malformed),
        ("dropped connections", t.dropped),
    ] {
        out.push_str(&format!("{label:>26} {n:>8}\n"));
    }
    out.push_str(&format!(
        "latency ms: p50 {p50}  p90 {p90}  p99 {p99} (limit {})  max {max}\n",
        opts.p99_limit_ms
    ));
    out.push_str(&format!("stats: results-cache hits {observed_hits}\n"));
    for leg in legs {
        out.push_str(&format!("# leg: {}\n", leg.name));
        for line in &leg.lines {
            out.push_str(&format!("  {line}\n"));
        }
    }
    if failures.is_empty() {
        out.push_str("storm: all assertions passed\n");
    } else {
        for f in failures {
            out.push_str(&format!("storm FAILURE: {f}\n"));
        }
    }
    out
}

fn render_json(
    opts: &StormOptions,
    t: &Tally,
    wall: Duration,
    (p50, p90, p99, max): (u64, u64, u64, u64),
    observed_hits: u64,
    legs: &[LegReport],
    failures: &[String],
) -> String {
    let mut doc = JsonValue::Obj(vec![
        ("schema".into(), JsonValue::str("hetchol-storm/v1")),
        ("jobs".into(), JsonValue::uint(opts.jobs as u64)),
        ("wall_ms".into(), JsonValue::uint(wall.as_millis() as u64)),
        ("ok".into(), JsonValue::uint(t.ok as u64)),
        ("cache_hits".into(), JsonValue::uint(t.cache_hits as u64)),
        (
            "degraded".into(),
            JsonValue::Obj(vec![
                ("queue_full".into(), JsonValue::uint(t.queue_full as u64)),
                ("deadline".into(), JsonValue::uint(t.deadline as u64)),
                ("shard_dead".into(), JsonValue::uint(t.shard_dead as u64)),
                (
                    "store_unavailable".into(),
                    JsonValue::uint(t.store_unavailable as u64),
                ),
                ("draining".into(), JsonValue::uint(t.draining as u64)),
            ]),
        ),
        ("rejected".into(), JsonValue::uint(t.rejected as u64)),
        ("malformed".into(), JsonValue::uint(t.malformed as u64)),
        ("dropped".into(), JsonValue::uint(t.dropped as u64)),
        (
            "latency_ms".into(),
            JsonValue::Obj(vec![
                ("p50".into(), JsonValue::uint(p50)),
                ("p90".into(), JsonValue::uint(p90)),
                ("p99".into(), JsonValue::uint(p99)),
                ("p99_limit".into(), JsonValue::uint(opts.p99_limit_ms)),
                ("max".into(), JsonValue::uint(max)),
            ]),
        ),
        (
            "stats_results_cache_hits".into(),
            JsonValue::uint(observed_hits),
        ),
        (
            "failures".into(),
            JsonValue::Arr(failures.iter().map(|f| JsonValue::str(&**f)).collect()),
        ),
    ]);
    if let JsonValue::Obj(members) = &mut doc {
        if !legs.is_empty() {
            members.push((
                "legs".into(),
                JsonValue::Obj(
                    legs.iter()
                        .map(|leg| (leg.name.to_string(), JsonValue::Obj(leg.json.clone())))
                        .collect(),
                ),
            ));
        }
        members.push(("passed".into(), JsonValue::Bool(failures.is_empty())));
    }
    let mut text = doc.render();
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_storm_passes_every_assertion() {
        let (report, failures) = storm(&StormOptions::quick());
        assert_eq!(failures, 0, "{report}");
        assert!(report.contains("all assertions passed"), "{report}");
    }

    #[test]
    fn json_storm_has_the_schema_header() {
        let (report, failures) = storm(&StormOptions {
            jobs: 16,
            json: true,
            ..StormOptions::full()
        });
        assert_eq!(failures, 0, "{report}");
        assert!(
            report.contains(r#""schema":"hetchol-storm/v1""#),
            "{report}"
        );
        assert!(report.contains(r#""passed":true"#), "{report}");
    }
}
