//! `serve`: the job API end to end. `hetchol-serve` runs in-process,
//! configured as `repro serve --log` configures it, restarted on a log a
//! previous server life wrote; two clients drive a seeded op stream over
//! kept-alive connections in a closed loop.

use crate::spans::Tracer;
use crate::util::{median, percentile, setup_note, CpuTicks, RamFile, Rng, Tally};
use hetchol::job::{dispatch_simulate, BoundsSummary, JobAction, JobOutcome, JobSpec, LintSummary};
use hetchol_analyze::{Linter, QueueDiscipline};
use hetchol_bounds::BoundSet;
use hetchol_core::fault::{IoFaultPlan, RunOutcome};
use hetchol_core::hash::{hash_hex, ContentHasher};
use hetchol_core::obs::ObsSink;
use hetchol_core::schedule::DurationCheck;
use hetchol_sched::registry;
use hetchol_serve::pool::{bounds_key, needs_bounds, ServerState, StateOptions};
use hetchol_serve::store::StoredJob;
use hetchol_serve::wal::{JobLog, WalRecord};
use hetchol_serve::{client, ServeConfig, Server};
use hetchol_sim::SimOptions;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Kept-alive client connections in the closed loop (one per core).
pub const CLIENTS: usize = 2;
/// Records in the restart log a previous server life left behind: enough
/// that its replay takes about a second, so a set-up is never a
/// few-millisecond window.
pub const RESTART_RECORDS: usize = 6000;
/// Server lives per run, each set up once; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;
/// Length of the seeded op stream (more than any run consumes).
pub const STREAM_OPS: usize = 200_000;

/// The op classes of the stream, with their share in parts per 1000.
pub const MIX: [(Class, u32); 8] = [
    (Class::Hit, 200),
    (Class::HitOneShot, 50),
    (Class::TraceResident, 100),
    (Class::Commit, 400),
    (Class::Bounds, 110),
    (Class::Lint, 70),
    (Class::TraceReload, 45),
    (Class::Certify, 25),
];

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Class {
    /// `POST /jobs` of a spec already answered: a result-cache hit.
    Hit,
    /// The same over a one-shot connection (`Connection: close`).
    HitOneShot,
    /// `GET /jobs/<id>/trace` of a job resident in this server life.
    TraceResident,
    /// A fresh small obs-enabled simulate job: run, trace render, WAL append.
    Commit,
    /// A fresh bounds job.
    Bounds,
    /// A fresh lint job.
    Lint,
    /// `GET /jobs/<id>/trace` of a job recovered from the restart log, on
    /// its first fetch: a reload from the log.
    TraceReload,
    /// A fresh certify job (exact certification plus verification).
    Certify,
}

impl Class {
    pub fn label(self) -> &'static str {
        match self {
            Class::Hit => "hit",
            Class::HitOneShot => "hit-oneshot",
            Class::TraceResident => "trace-resident",
            Class::Commit => "commit",
            Class::Bounds => "bounds",
            Class::Lint => "lint",
            Class::TraceReload => "trace-reload",
            Class::Certify => "certify",
        }
    }
}

/// One op of the stream. `arg` indexes the hit pool, the resident pool or
/// the shape table, by class; fresh jobs carry their own seed.
#[derive(Clone, Debug)]
pub struct Op {
    pub class: Class,
    pub arg: usize,
    pub seed: u64,
}

/// A fresh-job shape and what its answer must be: the outcome of any seed
/// of it differs only in `spec_hash` (its schedulers are deterministic).
pub struct Shape {
    pub spec: JobSpec,
    pub outcome: JobOutcome,
}

impl Shape {
    fn new(spec: JobSpec) -> Shape {
        let outcome = spec.run().expect("shape specs are valid").outcome;
        Shape { spec, outcome }
    }

    pub fn with_seed(&self, seed: u64) -> JobSpec {
        let mut spec = self.spec.clone();
        spec.seed = seed;
        spec
    }

    /// The JobOutcome wire object this shape answers for `spec`.
    pub fn expected(&self, spec: &JobSpec) -> String {
        let mut outcome = self.outcome.clone();
        outcome.spec_hash = spec.content_hash();
        outcome.to_json()
    }
}

pub struct Inputs {
    /// The restart log's bytes, as a previous server life appended them.
    pub restart_log: Vec<u8>,
    /// The distinct traces of the restart log's records.
    pub restart_traces: Vec<String>,
    /// Which of `restart_traces` each restart record carries, by id - 1.
    pub restart_trace_of: Vec<u8>,
    /// Recovered ids in the order the stream reloads them.
    pub reload_order: Vec<u64>,
    /// Specs the warm-up answers once, so the stream's POSTs of them hit.
    pub hit_pool: Vec<String>,
    /// Obs specs the warm-up commits, whose traces the stream GETs: the
    /// spec, the outcome its answer must carry, the trace it must return.
    pub resident_pool: Vec<(String, String, String)>,
    /// Fresh-job shapes by class.
    pub shapes: Vec<(Class, Shape)>,
    pub ops: Vec<Op>,
    pub hash: String,
}

impl Inputs {
    /// The trace restart record `id` carries.
    pub fn restart_trace(&self, id: u64) -> &str {
        &self.restart_traces[self.restart_trace_of[id as usize - 1] as usize]
    }
}

fn spec(workload: &str, n: usize, sched: &str, action: JobAction, obs: bool) -> JobSpec {
    let mut s = JobSpec::new(workload, n)
        .expect("known workload")
        .scheduler(sched)
        .action(action);
    s.obs = obs;
    s
}

/// The outcome and the Chrome trace a live server answers for an obs spec.
fn obs_answer(spec: &JobSpec) -> (JobOutcome, String) {
    let run = spec.run().expect("valid spec");
    let job = StoredJob::fresh(0, spec.clone(), run.outcome, run.sim);
    let trace = job.chrome_trace().expect("obs jobs render a trace");
    (job.outcome.clone(), trace)
}

/// Everything the run sends and the restart log it starts from, from one
/// seed.
pub fn generate(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    let scheds = ["dmda", "dmdas", "eager"];

    // The previous server life: small obs jobs, committed in id order.
    let log_shapes: Vec<JobSpec> = [2usize, 3]
        .iter()
        .flat_map(|&n| {
            scheds
                .iter()
                .map(move |s| spec("cholesky", n, s, JobAction::Simulate, true))
        })
        .collect();
    let (log_outcomes, restart_traces): (Vec<JobOutcome>, Vec<String>) =
        log_shapes.iter().map(obs_answer).unzip();
    let mut restart_log = Vec::new();
    let mut restart_trace_of = Vec::new();
    for id in 1..=RESTART_RECORDS as u64 {
        let k = rng.below(log_shapes.len());
        let mut spec = log_shapes[k].clone();
        spec.seed = rng.next_u64() >> 11;
        let mut outcome = log_outcomes[k].clone();
        outcome.spec_hash = spec.content_hash();
        let record = WalRecord {
            id,
            spec,
            outcome,
            trace: Some(restart_traces[k].clone()),
        };
        restart_log.extend_from_slice(&record.frame());
        restart_trace_of.push(k as u8);
    }
    let mut reload_order: Vec<u64> = (1..=RESTART_RECORDS as u64).collect();
    rng.shuffle(&mut reload_order);

    let mut hit_pool = Vec::new();
    for i in 0..24 {
        let action = if i % 3 == 0 {
            JobAction::Bounds
        } else {
            JobAction::Simulate
        };
        let sched = *rng.pick(&scheds);
        let mut s = spec("cholesky", 4 + 2 * (i % 5), sched, action, false);
        s.seed = rng.next_u64() >> 11;
        hit_pool.push(s.to_json());
    }
    let mut resident_pool = Vec::new();
    for i in 0..12 {
        let sched = *rng.pick(&scheds);
        let mut s = spec("cholesky", 2 + i % 2, sched, JobAction::Simulate, true);
        s.seed = rng.next_u64() >> 11;
        let (outcome, trace) = obs_answer(&s);
        resident_pool.push((s.to_json(), outcome.to_json(), trace));
    }

    let mut shapes = Vec::new();
    for n in [3, 4] {
        for s in scheds {
            shapes.push((
                Class::Commit,
                Shape::new(spec("cholesky", n, s, JobAction::Simulate, true)),
            ));
        }
    }
    for n in [4, 8, 12, 16] {
        shapes.push((
            Class::Bounds,
            Shape::new(spec("cholesky", n, "dmdas", JobAction::Bounds, false)),
        ));
    }
    for n in [4, 5, 6] {
        for s in ["dmda", "dmdas"] {
            shapes.push((
                Class::Lint,
                Shape::new(spec("cholesky", n, s, JobAction::Lint, true)),
            ));
        }
    }
    shapes.push((
        Class::Certify,
        Shape::new(spec("cholesky", 5, "dmdas", JobAction::Certify, false)),
    ));

    let total: u32 = MIX.iter().map(|&(_, w)| w).sum();
    let ops = (0..STREAM_OPS)
        .map(|_| {
            let mut roll = rng.below(total as usize) as u32;
            let class = MIX
                .iter()
                .find(|&&(_, w)| {
                    let hit = roll < w;
                    roll = roll.saturating_sub(w);
                    hit
                })
                .expect("roll within total")
                .0;
            let arg = match class {
                Class::Hit | Class::HitOneShot => rng.below(hit_pool.len()),
                Class::TraceResident => rng.below(resident_pool.len()),
                Class::TraceReload => 0,
                _ => {
                    let of_class: Vec<usize> = shapes
                        .iter()
                        .enumerate()
                        .filter(|(_, (c, _))| *c == class)
                        .map(|(i, _)| i)
                        .collect();
                    *rng.pick(&of_class)
                }
            };
            Op {
                class,
                arg,
                seed: rng.next_u64() >> 11,
            }
        })
        .collect::<Vec<_>>();

    let mut hash = ContentHasher::new();
    hash.write_bytes(&restart_log);
    for id in &reload_order {
        hash.write_u64(*id);
    }
    for s in &hit_pool {
        hash.write_str(s);
    }
    for (s, _, _) in &resident_pool {
        hash.write_str(s);
    }
    for op in &ops {
        hash.write_str(op.class.label());
        hash.write_u64(op.arg as u64);
        hash.write_u64(op.seed);
    }
    Inputs {
        restart_log,
        restart_traces,
        restart_trace_of,
        reload_order,
        hit_pool,
        resident_pool,
        shapes,
        ops,
        hash: hash_hex(hash.finish()),
    }
}

// ---------------------------------------------------------------------------
// Kept-alive connections. One-shot requests go through
// `hetchol_serve::client::post_job`; kept-alive ones cannot use
// `client::Conn`, whose retry on a fresh socket would hide a dropped
// connection, so this exchange fails the op instead.
// ---------------------------------------------------------------------------

pub struct Conn {
    addr: SocketAddr,
    reader: Option<BufReader<TcpStream>>,
}

pub struct Response {
    pub status: u16,
    pub body: String,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn { addr, reader: None }
    }

    /// One exchange on the kept-alive socket, opened on first use: one
    /// write, the body read to its exact Content-Length, no retry.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
        if self.reader.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(60)))?;
            self.reader = Some(BufReader::new(stream));
        }
        let reader = self.reader.as_mut().expect("connected above");
        let message = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
            self.addr,
            body.len(),
        );
        let exchanged = reader
            .get_mut()
            .write_all(message.as_bytes())
            .and_then(|()| read_response(reader));
        if !matches!(exchanged, Ok((_, true))) {
            self.reader = None;
        }
        exchanged.map(|(resp, _)| resp)
    }
}

/// `POST /jobs` over a connection of its own, as `client::post_job` and
/// curl make it.
pub fn post_one_shot(addr: SocketAddr, body: &str) -> std::io::Result<Response> {
    client::post_job(addr, body).map(|(status, body)| Response { status, body })
}

/// A response and whether the server keeps the connection open.
fn read_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<(Response, bool)> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(bad("connection closed before a status line"));
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut length = None;
    let mut keep = true;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed inside the head"));
        }
        let l = line.trim_end();
        if l.is_empty() {
            break;
        }
        if let Some((name, value)) = l.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                keep = !value.trim().eq_ignore_ascii_case("close");
            }
        }
    }
    let mut body = vec![0u8; length.ok_or_else(|| bad("no Content-Length"))?];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| bad("non-UTF-8 body"))?;
    Ok((Response { status, body }, keep))
}

// ---------------------------------------------------------------------------
// The oracle: compare bytes, never re-parse bodies.
// ---------------------------------------------------------------------------

/// A job answer is `{"job_id":N,"cache":"hit|miss",` + the outcome object
/// minus its opening brace.
pub fn check_job_answer(resp: &Response, expected_outcome: &str) -> Result<u64, String> {
    if resp.status != 200 {
        return Err(format!("status {} body {:.200}", resp.status, resp.body));
    }
    let rest = resp
        .body
        .strip_prefix("{\"job_id\":")
        .ok_or_else(|| format!("no job_id in {:.200}", resp.body))?;
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    let id: u64 = rest[..digits]
        .parse()
        .map_err(|_| "bad job_id".to_string())?;
    let rest = &rest[digits..];
    let rest = rest
        .strip_prefix(",\"cache\":\"miss\",")
        .or_else(|| rest.strip_prefix(",\"cache\":\"hit\","))
        .ok_or_else(|| format!("no cache disposition in {:.200}", resp.body))?;
    if rest != &expected_outcome[1..] {
        return Err(format!(
            "outcome mismatch: got {{{:.200} want {:.200}",
            rest, expected_outcome
        ));
    }
    Ok(id)
}

pub fn check_exact(resp: &Response, what: &str, expected: &str) -> Result<(), String> {
    if resp.status != 200 {
        return Err(format!(
            "{what}: status {} body {:.200}",
            resp.status, resp.body
        ));
    }
    if resp.body != expected {
        let at = resp
            .body
            .bytes()
            .zip(expected.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(resp.body.len().min(expected.len()));
        return Err(format!(
            "{what}: body differs at byte {at} ({} bytes, want {})",
            resp.body.len(),
            expected.len()
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Set-up and the closed loop
// ---------------------------------------------------------------------------

/// The server-side state a run's ops check against, built by the warm-up.
pub struct Live {
    pub server: Server,
    /// Expected hit bodies, by hit-pool index.
    pub hit_bodies: Vec<String>,
    /// Job id of each resident-pool spec.
    pub resident_ids: Vec<u64>,
}

/// Jobs kept resident, and results cached, by the benchmark's server.
pub const RESIDENT_CAP: usize = 1024;

pub fn config(log: PathBuf) -> ServeConfig {
    // `repro serve --log` (its `storm::serve_config` with the default
    // four shards), plus residency caps so the server's memory does not
    // grow with the number of ops a run completes.
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: 4,
        queue_depth: 512,
        default_budget_ms: 60_000,
        log_path: Some(log),
        max_resident_jobs: RESIDENT_CAP,
        results_max_entries: RESIDENT_CAP,
        ..ServeConfig::default()
    }
}

/// Restart on the log, then the fixed warm-up pass: every pooled spec
/// once, one fresh job of each kind, and the first reloads. Its checks
/// reach `tally` only when they fail, so `ops_per_s` counts timed-phase
/// ops alone.
pub fn start(inputs: &Inputs, log: PathBuf, tally: &mut Tally) -> std::io::Result<(Live, usize)> {
    let server = Server::start(config(log))?;
    if let Some(report) = server.recovery() {
        if report.recovered != RESTART_RECORDS || !report.is_clean() {
            tally.record(Err(format!(
                "replay recovered {} of {RESTART_RECORDS} records (torn: {:?})",
                report.recovered, report.torn
            )));
        }
    }
    let mut conn = Conn::new(server.addr());
    let mut hit_bodies = Vec::new();
    for body in &inputs.hit_pool {
        let resp = conn.request("POST", "/jobs", body)?;
        if resp.status != 200 {
            tally.record(Err(format!("warm-up status {}", resp.status)));
        }
        hit_bodies.push(
            resp.body
                .replacen("\"cache\":\"miss\"", "\"cache\":\"hit\"", 1),
        );
    }
    let mut resident_ids = Vec::new();
    for (body, expected, trace) in &inputs.resident_pool {
        let resp = conn.request("POST", "/jobs", body)?;
        let id = check_job_answer(&resp, expected).unwrap_or_else(|e| {
            tally.record(Err(e));
            0
        });
        let resp = conn.request("GET", &format!("/jobs/{id}/trace"), "")?;
        tally.record_failure(check_exact(&resp, "warm-up trace", trace));
        resident_ids.push(id);
    }
    for (i, (_, shape)) in inputs.shapes.iter().enumerate() {
        let spec = shape.with_seed(i as u64);
        let resp = conn.request("POST", "/jobs", &spec.to_json())?;
        tally.record_failure(check_job_answer(&resp, &shape.expected(&spec)).map(|_| ()));
    }
    let warm_reloads = 8;
    for &id in &inputs.reload_order[..warm_reloads] {
        let resp = conn.request("GET", &format!("/jobs/{id}/trace"), "")?;
        tally.record_failure(check_exact(
            &resp,
            "warm-up reload",
            inputs.restart_trace(id),
        ));
    }
    let resp = post_one_shot(server.addr(), &inputs.hit_pool[0])?;
    tally.record_failure(check_exact(&resp, "warm-up one-shot hit", &hit_bodies[0]));
    Ok((
        Live {
            server,
            hit_bodies,
            resident_ids,
        },
        warm_reloads,
    ))
}

/// What an op's answer must be.
enum Want<'a> {
    /// These exact bytes.
    Body(&'static str, &'a str),
    /// A job answer carrying this outcome.
    Job(String),
}

/// Issue one op and check its answer (the check runs after the latency
/// window closes).
fn do_op(
    conn: &mut Conn,
    inputs: &Inputs,
    live: &Live,
    op: &Op,
    reload_cursor: &AtomicUsize,
) -> (f64, Result<(), String>) {
    let t = Instant::now();
    let (resp, want) = match op.class {
        Class::Hit => {
            let resp = conn.request("POST", "/jobs", &inputs.hit_pool[op.arg]);
            (resp, Want::Body("hit", &live.hit_bodies[op.arg]))
        }
        Class::HitOneShot => {
            let resp = post_one_shot(live.server.addr(), &inputs.hit_pool[op.arg]);
            (resp, Want::Body("one-shot hit", &live.hit_bodies[op.arg]))
        }
        Class::TraceResident => {
            let id = live.resident_ids[op.arg];
            let resp = conn.request("GET", &format!("/jobs/{id}/trace"), "");
            (
                resp,
                Want::Body("resident trace", &inputs.resident_pool[op.arg].2),
            )
        }
        Class::TraceReload => {
            let k = reload_cursor.fetch_add(1, Ordering::Relaxed) % inputs.reload_order.len();
            let id = inputs.reload_order[k];
            let resp = conn.request("GET", &format!("/jobs/{id}/trace"), "");
            (resp, Want::Body("reloaded trace", inputs.restart_trace(id)))
        }
        _ => {
            let shape = &inputs.shapes[op.arg].1;
            let spec = shape.with_seed(op.seed);
            let resp = conn.request("POST", "/jobs", &spec.to_json());
            (resp, Want::Job(shape.expected(&spec)))
        }
    };
    let dt = t.elapsed().as_secs_f64();
    let verdict = match (resp, want) {
        (Ok(r), Want::Body(what, body)) => check_exact(&r, what, body),
        (Ok(r), Want::Job(outcome)) => check_job_answer(&r, &outcome).map(|_| ()),
        (Err(e), _) => Err(format!("connection failed: {e}")),
    };
    (
        dt,
        verdict.map_err(|e| format!("{}: {e}", op.class.label())),
    )
}

pub struct Outcome {
    pub tally: Tally,
    pub latencies: Vec<f64>,
    pub by_class: Vec<(Class, Vec<f64>)>,
    pub phase_s: f64,
    pub setup_s: f64,
    pub notes: Vec<String>,
    pub stats: Option<Stats>,
    /// Mean best-bound / makespan over the answered lint jobs.
    pub bound_ratio: f64,
}

/// The paper's gap to the bound as an answer reports it: the best lower
/// bound over the simulated makespan.
pub fn gap(outcome: &JobOutcome) -> Option<f64> {
    Some(outcome.bounds?.best.as_secs_f64() / outcome.makespan?.as_secs_f64())
}

/// The server's own counters (warm-up included), summed over its lives.
#[derive(Default)]
pub struct Stats {
    pub results_hits: u64,
    pub results_gets: u64,
    pub bounds_hits: u64,
    pub bounds_gets: u64,
    pub batched: u64,
    pub submitted: u64,
    pub sheds: u64,
    pub reloads: u64,
}

impl Stats {
    fn add(&mut self, state: &ServerState) {
        let snap = state.consistent_stats();
        self.results_hits += snap.results.hits;
        self.results_gets += snap.results.gets;
        self.bounds_hits += snap.bounds.hits;
        self.bounds_gets += snap.bounds.gets;
        self.batched += state.batched.load(Ordering::Relaxed);
        self.submitted += state.jobs_submitted.load(Ordering::Relaxed);
        self.sheds += sheds(state);
        self.reloads += snap.store.reloads;
    }
}

/// Per client: (class, latency, gap to the bound) per op, and its tally.
type ClientRun = (Vec<(Class, f64, Option<f64>)>, Tally);

/// The closed loop on one server life for `seconds`: `CLIENTS` clients
/// take the stream's next op from `cursor`. Returns their runs and the
/// loop's length in seconds.
fn closed_loop(
    inputs: &Inputs,
    live: &Live,
    seconds: f64,
    cursor: &AtomicUsize,
    warm_reloads: usize,
) -> (Vec<ClientRun>, f64) {
    let reload_cursor = AtomicUsize::new(warm_reloads);
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    let runs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let reload_cursor = &reload_cursor;
                scope.spawn(move || {
                    let mut conn = Conn::new(live.server.addr());
                    let mut samples = Vec::new();
                    let mut tally = Tally::default();
                    while start.elapsed() < deadline {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let op = &inputs.ops[i % inputs.ops.len()];
                        let (dt, verdict) = do_op(&mut conn, inputs, live, op, reload_cursor);
                        let ratio = match (&verdict, op.class) {
                            (Ok(()), Class::Lint) => gap(&inputs.shapes[op.arg].1.outcome),
                            _ => None,
                        };
                        samples.push((op.class, dt, ratio));
                        tally.record(verdict);
                    }
                    (samples, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    (runs, start.elapsed().as_secs_f64())
}

/// `reps` server lives, each restarted on a fresh copy of the log (the
/// set-up, timed) and then driven by the closed loop for `seconds / reps`.
/// The machine's speed drifts over seconds, so the set-ups are spread
/// through the run and `setup_s` is their median.
pub fn run_with(inputs: &Inputs, seconds: f64, reps: usize) -> Outcome {
    let mut tally = Tally::default();
    let mut setup_times = Vec::new();
    let mut notes = Vec::new();
    let mut stats = Stats::default();
    let mut lives = 0;
    let mut runs = Vec::new();
    let mut phase_s = 0.0;
    let cursor = AtomicUsize::new(0);
    let ticks = CpuTicks::now();
    for _ in 0..reps {
        // A fresh copy of the restart log per server life, made before the
        // clock starts.
        let log =
            RamFile::with_bytes("restart.wal", &inputs.restart_log).expect("a RAM-backed log");
        let t = Instant::now();
        let started = start(inputs, log.path().to_path_buf(), &mut tally);
        setup_times.push(t.elapsed().as_secs_f64());
        let (live, warm_reloads) = match started {
            Ok(started) => started,
            Err(e) => {
                tally.record(Err(format!("set-up failed: {e}")));
                continue;
            }
        };
        let (life_runs, life_s) =
            closed_loop(inputs, &live, seconds / reps as f64, &cursor, warm_reloads);
        runs.extend(life_runs);
        phase_s += life_s;
        stats.add(live.server.state());
        lives += 1;
        live.server.shutdown();
    }
    notes.push(setup_note(&setup_times));
    notes.push(ticks.steal_note());
    let mut latencies = Vec::new();
    let mut by_class: Vec<(Class, Vec<f64>)> = MIX.iter().map(|&(c, _)| (c, Vec::new())).collect();
    let mut gaps = Vec::new();
    for (samples, t) in runs {
        tally.merge(t);
        for (class, dt, ratio) in samples {
            gaps.extend(ratio);
            latencies.push(dt);
            by_class
                .iter_mut()
                .find(|(c, _)| *c == class)
                .expect("every class is listed")
                .1
                .push(dt);
        }
    }
    notes.push(format!(
        "server: lives={lives} results hits={}/{} bounds hits={}/{} batched={}/{} reloads={} sheds={}",
        stats.results_hits,
        stats.results_gets,
        stats.bounds_hits,
        stats.bounds_gets,
        stats.batched,
        stats.submitted,
        stats.reloads,
        stats.sheds,
    ));
    Outcome {
        tally,
        latencies,
        by_class,
        phase_s: phase_s.max(f64::MIN_POSITIVE),
        setup_s: median(&setup_times),
        notes,
        stats: (lives > 0).then_some(stats),
        bound_ratio: gaps.iter().sum::<f64>() / gaps.len().max(1) as f64,
    }
}

pub fn sheds(state: &ServerState) -> u64 {
    state.shed_queue_full.load(Ordering::Relaxed)
        + state.shed_deadline.load(Ordering::Relaxed)
        + state.shed_shard_dead.load(Ordering::Relaxed)
        + state.shed_store_unavailable.load(Ordering::Relaxed)
}

pub fn class_notes(by_class: &[(Class, Vec<f64>)], total: usize) -> Vec<String> {
    by_class
        .iter()
        .filter(|(_, v)| !v.is_empty())
        .map(|(c, v)| {
            let mut v = v.clone();
            v.sort_by(f64::total_cmp);
            format!(
                "class {:<15} n={:<6} share={:.3} p50={:.3}ms p99={:.3}ms",
                c.label(),
                v.len(),
                v.len() as f64 / total.max(1) as f64,
                percentile(&v, 50.0) * 1e3,
                percentile(&v, 99.0) * 1e3,
            )
        })
        .collect()
}

pub fn report(seed: u64, seconds: f64) -> crate::Report {
    let inputs = generate(seed);
    let out = run_with(&inputs, seconds, SETUP_REPS);
    let n = out.latencies.len();
    let mut notes = vec![format!(
        "inputs: hash={} restart_records={} restart_bytes={} stream_ops={}",
        inputs.hash,
        RESTART_RECORDS,
        inputs.restart_log.len(),
        inputs.ops.len()
    )];
    notes.extend(out.notes);
    notes.push(format!(
        "phase: ops={n} clients={CLIENTS} samples_beyond_p99={}",
        crate::util::beyond(n, 99.0)
    ));
    notes.extend(class_notes(&out.by_class, n));
    let e2e = crate::util::EndToEnd {
        ok_ops: out.tally.ok(),
        phase_s: out.phase_s,
        latencies: out.latencies,
        ok_frac: out.tally.ok_frac(),
        setup_s: out.setup_s,
        bound_ratio: out.bound_ratio,
    };
    crate::Report {
        attempted: out.tally.attempted,
        failed: out.tally.failed,
        failures: out.tally.failures,
        metrics: e2e.metrics(),
        notes,
    }
}

// ---------------------------------------------------------------------------
// Traced mode: the op stream on one thread through the public functions a
// job passes through, each call in its own span.
// ---------------------------------------------------------------------------

/// A pool-less server state recovered from a fresh copy of the restart
/// log, with the warm-up's jobs committed.
pub struct Replay {
    pub state: ServerState,
    pub log: Arc<JobLog>,
    pub resident_ids: Vec<u64>,
    reload_next: usize,
}

impl Replay {
    pub fn new(t: &mut Tracer, inputs: &Inputs, path: &Path, tally: &mut Tally) -> Replay {
        let (log, records, report) = t
            .span("serve.wal.replay", 0, |_| {
                JobLog::open(path, &IoFaultPlan::none())
            })
            .expect("open the restart log");
        let log = Arc::new(log);
        let state = ServerState::with_options(StateOptions {
            log: Some(log.clone()),
            ..StateOptions::default()
        });
        t.span("serve.store.recover", 0, |_| state.store.recover(&records));
        drop(records);
        if report.recovered != RESTART_RECORDS || !report.is_clean() {
            tally.record(Err(format!(
                "replay recovered {} records",
                report.recovered
            )));
        }
        let mut replay = Replay {
            state,
            log,
            resident_ids: Vec::new(),
            reload_next: 0,
        };
        let mut quiet = Tracer::disabled();
        for body in &inputs.hit_pool {
            tally.record_failure(replay.job(&mut quiet, body, 0, None).map(|_| ()));
        }
        for (body, expected, _) in &inputs.resident_pool {
            match replay.job(&mut quiet, body, 0, Some(expected)) {
                Ok(id) => replay.resident_ids.push(id),
                Err(e) => tally.record(Err(e)),
            }
        }
        for (i, (_, shape)) in inputs.shapes.iter().enumerate() {
            let spec = shape.with_seed(i as u64);
            let want = shape.expected(&spec);
            tally.record_failure(
                replay
                    .job(&mut quiet, &spec.to_json(), 0, Some(&want))
                    .map(|_| ()),
            );
        }
        replay
    }

    /// `POST /jobs` minus HTTP and the pool: parse, cache, bounds, run,
    /// render, log, store. Returns the job id.
    pub fn job(
        &mut self,
        t: &mut Tracer,
        body: &str,
        op: u64,
        want: Option<&str>,
    ) -> Result<u64, String> {
        let st = &self.state;
        let spec = t
            .span("job.parse", op, |_| JobSpec::from_json(body))
            .map_err(|e| e.to_string())?;
        let hash = t.span("job.hash", op, |_| spec.content_hash());
        if let Some(hit) = t.span("serve.cache.results", op, |_| st.results.get(hash)) {
            let text = t.span("job.render", op, |_| hit.outcome.to_json());
            return match want {
                Some(w) if w != text => Err("cached outcome differs".into()),
                _ => Ok(hit.id),
            };
        }
        let id = st.store.next_id();
        let pair = t.span("serve.cache.profiles", op, |_| st.profile_pair(&spec));
        let (platform, profile) = (&pair.0, &pair.1);
        let bounds = if needs_bounds(spec.action) {
            let key = bounds_key(&spec);
            Some(
                match t.span("serve.cache.bounds", op, |_| st.bounds.get(key)) {
                    Some(set) => (*set).clone(),
                    None => {
                        let set = t
                            .span("bounds.lp", op, |_| {
                                BoundSet::compute_batch(
                                    &[(spec.workload, spec.n)],
                                    platform,
                                    profile,
                                )
                            })
                            .remove(0);
                        st.bounds.insert(key, Arc::new(set.clone()));
                        set
                    }
                },
            )
        } else {
            None
        };
        let certified = match (&bounds, spec.action) {
            (Some(set), JobAction::Certify) => Some(
                match t.span("bounds.certify", op, |_| set.certify(platform, profile)) {
                    Ok(cert) => t.span("bounds.verify", op, |_| {
                        cert.verify(platform, profile).is_ok()
                    }),
                    Err(_) => false,
                },
            ),
            _ => None,
        };
        let mut sim = None;
        let mut lint = None;
        if matches!(spec.action, JobAction::Simulate | JobAction::Lint) {
            let mut sched = t
                .span("sched.registry", op, |_| {
                    registry::build(&spec.scheduler, spec.seed)
                })
                .map_err(|e| e.to_string())?;
            let graph = t.span("core.dag", op, |_| spec.workload.graph(spec.n));
            let opts = if spec.jitter {
                SimOptions::actual(spec.seed)
            } else {
                SimOptions {
                    seed: spec.seed,
                    ..SimOptions::default()
                }
            };
            let obs = if spec.obs {
                ObsSink::enabled()
            } else {
                ObsSink::disabled()
            };
            let r = t
                .span("sim.dispatch", op, |_| {
                    dispatch_simulate(
                        &graph,
                        platform,
                        profile,
                        sched.as_mut(),
                        &opts,
                        obs,
                        &spec.faults,
                        &spec.retry,
                    )
                })
                .map_err(|e| e.to_string())?;
            if spec.action == JobAction::Lint {
                let report = t.span("analyze.lint", op, |_| {
                    let discipline = if sched.sorted_queues() {
                        QueueDiscipline::Sorted
                    } else {
                        QueueDiscipline::Fifo
                    };
                    let mut linter =
                        Linter::new(&graph, platform, profile).with_queue_discipline(discipline);
                    if spec.jitter || !spec.faults.is_empty() {
                        linter = linter.duration_check(DurationCheck::Loose);
                    }
                    if let Some(set) = &bounds {
                        linter = linter.with_bounds(set.clone());
                    }
                    if spec.obs {
                        linter = linter.with_obs(&r.obs);
                    }
                    linter.lint_trace(&r.trace)
                });
                lint = Some(LintSummary {
                    errors: report.n_errors(),
                    warnings: report.n_warnings(),
                });
            }
            sim = Some(r);
        }
        let outcome = JobOutcome {
            spec_hash: hash,
            workload: spec.workload,
            n: spec.n,
            scheduler: spec.scheduler.clone(),
            action: spec.action,
            outcome: sim
                .as_ref()
                .map_or(RunOutcome::Completed, |r| r.outcome.clone()),
            makespan: sim.as_ref().map(|r| r.makespan),
            gflops: sim
                .as_ref()
                .map(|r| spec.workload.gflops(spec.n, profile.nb(), r.makespan)),
            bounds: bounds.as_ref().map(|b| BoundsSummary {
                critical_path: b.critical_path,
                area: b.area,
                mixed: b.mixed,
                gemm_peak_gflops: b.gemm_peak,
                best: b.best(),
            }),
            certified,
            lint,
        };
        let job = t.span("serve.store.fresh", op, |_| {
            Arc::new(StoredJob::fresh(id, spec, outcome, sim))
        });
        let appended = t
            .span("serve.wal.append", op, |_| {
                self.log.append(&job.wal_record())
            })
            .map_err(|e| e.to_string())?;
        t.span("serve.store.insert", op, |_| {
            let pinned = st.store.insert_locked(job.clone(), Some(&appended));
            st.results.insert(hash, job.clone());
            drop(pinned);
        });
        let text = t.span("job.render", op, |_| job.outcome.to_json());
        match want {
            Some(w) if w != text => Err(format!("outcome mismatch: {text:.200} want {w:.200}")),
            _ => Ok(id),
        }
    }

    fn trace_of(&self, t: &mut Tracer, id: u64, op: u64, want: &str) -> Result<(), String> {
        let job = t
            .span("serve.store.get", op, |_| self.state.store.get(id))
            .ok_or_else(|| format!("job {id} not found"))?;
        match job.chrome_trace() {
            Some(text) if text == want => Ok(()),
            _ => Err(format!("trace of job {id} differs")),
        }
    }

    /// One op of the stream.
    pub fn op(&mut self, t: &mut Tracer, inputs: &Inputs, i: u64, op: &Op) -> Result<(), String> {
        match op.class {
            Class::Hit | Class::HitOneShot => {
                self.job(t, &inputs.hit_pool[op.arg], i, None).map(|_| ())
            }
            Class::TraceResident => {
                let id = self.resident_ids[op.arg];
                self.trace_of(t, id, i, &inputs.resident_pool[op.arg].2)
            }
            Class::TraceReload => {
                let id = inputs.reload_order[self.reload_next % inputs.reload_order.len()];
                self.reload_next += 1;
                self.trace_of(t, id, i, inputs.restart_trace(id))
            }
            _ => {
                let shape = &inputs.shapes[op.arg].1;
                let spec = shape.with_seed(op.seed);
                self.job(t, &spec.to_json(), i, Some(&shape.expected(&spec)))
                    .map(|_| ())
            }
        }
        .map_err(|e| format!("{}: {e}", op.class.label()))
    }
}

/// Replay the stream's first ops for about `seconds` (or exactly `ops`
/// ops when given). Returns (ops done, ok ops, seconds taken).
pub fn replay(
    t: &mut Tracer,
    inputs: &Inputs,
    seconds: f64,
    ops: Option<usize>,
    tally: &mut Tally,
) -> (usize, u64, f64) {
    let log = RamFile::with_bytes("replay.wal", &inputs.restart_log).expect("a RAM-backed log");
    let mut r = Replay::new(t, inputs, log.path(), tally);
    let start = Instant::now();
    let mut done = 0;
    let mut ok = 0;
    while ops.map_or(start.elapsed().as_secs_f64() < seconds, |n| done < n) {
        let op = &inputs.ops[done % inputs.ops.len()];
        let v = r.op(t, inputs, done as u64, op);
        ok += u64::from(v.is_ok());
        tally.record(v);
        done += 1;
    }
    (done, ok, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_one_op_stream() {
        let a = generate(7);
        let b = generate(7);
        assert_eq!(a.hash, b.hash);
        assert_eq!(a.restart_log, b.restart_log);
        assert!(a
            .ops
            .iter()
            .zip(&b.ops)
            .all(|(x, y)| x.class == y.class && x.arg == y.arg && x.seed == y.seed));
        assert_ne!(generate(8).hash, a.hash);
        // Every class of the mix shows up in the stream.
        for (class, _) in MIX {
            assert!(
                a.ops.iter().any(|op| op.class == class),
                "{class:?} missing"
            );
        }
    }

    #[test]
    fn oracle_rejects_a_flipped_trace_byte() {
        let inputs = generate(3);
        let trace = inputs.restart_trace(1).to_string();
        let good = Response {
            status: 200,
            body: trace.clone(),
        };
        assert!(check_exact(&good, "trace", &trace).is_ok());
        let mut bytes = trace.clone().into_bytes();
        bytes[trace.len() / 2] ^= 0x01;
        let flipped = Response {
            status: 200,
            body: String::from_utf8(bytes).unwrap(),
        };
        let err = check_exact(&flipped, "trace", &trace).unwrap_err();
        assert!(err.contains(&format!("byte {}", trace.len() / 2)), "{err}");
        let refused = Response {
            status: 503,
            body: trace.clone(),
        };
        assert!(check_exact(&refused, "trace", &trace).is_err());
    }

    #[test]
    fn oracle_checks_the_job_answer_bytes() {
        let inputs = generate(3);
        let shape = &inputs.shapes[0].1;
        let spec = shape.with_seed(42);
        let want = shape.expected(&spec);
        let answer = |cache: &str, outcome: &str| Response {
            status: 200,
            body: format!("{{\"job_id\":17,\"cache\":\"{cache}\",{}", &outcome[1..]),
        };
        assert_eq!(check_job_answer(&answer("miss", &want), &want), Ok(17));
        assert_eq!(check_job_answer(&answer("hit", &want), &want), Ok(17));
        let other = shape.expected(&shape.with_seed(43));
        assert!(check_job_answer(&answer("miss", &other), &want).is_err());
        assert!(check_job_answer(&answer("stale", &want), &want).is_err());
    }
}
