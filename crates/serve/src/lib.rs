//! `hetchol-serve` — a job API over the `hetchol` facade.
//!
//! A hand-rolled HTTP/1.1 server (over [`std::net`], zero external
//! dependencies) exposing simulation, bound computation, certification
//! and linting as one JSON endpoint:
//!
//! ```text
//! POST /jobs                    submit a JobSpec; answers the JobOutcome
//! GET  /jobs/<id>               re-fetch a stored result
//! GET  /jobs/<id>/trace         the run's Chrome about:tracing document
//! GET  /jobs/<id>/lint          re-run the stored spec as a lint job;
//!                               the same report resident, evicted or
//!                               recovered
//! GET  /health                  liveness probe
//! GET  /stats                   counters: cache hits, sheds, evictions
//! POST /admin/shards/<i>/kill   chaos: stop one shard's worker
//! POST /admin/drain             graceful drain: finish queued jobs,
//!                               fsync the log, stop taking new ones
//! ```
//!
//! Connections are kept alive per HTTP/1.1 (with an idle timeout and a
//! per-connection request cap); `Connection: close` opts out. With a
//! [`ServeConfig::log_path`], every committed job is appended to a
//! crash-safe [`wal::JobLog`] before its response is sent, startup
//! replays the log (truncating a torn tail with a structured
//! [`wal::RecoveryReport`], never a crash), and a restarted server
//! re-serves `GET /jobs/<id>/trace` bitwise-identical. A log that stops
//! accepting writes flips the server read-only: stored jobs still serve,
//! new submissions answer 503 `store-unavailable`.
//!
//! Requests route by spec content hash to a sharded worker pool
//! ([`pool`]); each shard drains its bounded queue in batches so bound
//! computations amortize through [`hetchol_bounds::BoundSet::compute_batch`]
//! and three content-hash caches ([`cache`]): results by spec hash,
//! bound sets by (workload, n, platform, profile), materialized
//! platform/profile pairs by name.
//!
//! **Degradation is a response, not a dropped connection.** A full queue,
//! an expired per-request deadline, or a killed shard each answer HTTP
//! 503 with a structured body whose `outcome` member is the same
//! [`RunOutcome::Degraded`] wire shape the resilient simulator reports —
//! clients parse one vocabulary for "the system shed my job" and "the
//! simulated platform lost workers".
//!
//! ```
//! use hetchol_serve::{client, ServeConfig, Server};
//!
//! let server = Server::start(ServeConfig::default()).unwrap();
//! let (status, body) = client::post_job(
//!     server.addr(),
//!     r#"{"workload":"cholesky","n":4,"action":"bounds"}"#,
//! )
//! .unwrap();
//! assert_eq!(status, 200, "{body}");
//! assert!(body.contains(r#""status":"ok""#));
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod http;
pub mod model;
pub mod pool;
pub mod store;
pub mod wal;

use hetchol::job::{outcome_to_json, JobError, JobSpec};
use hetchol_core::fault::{IoFaultPlan, RunOutcome};
use hetchol_core::json::JsonValue;
use parking_lot::channel;
use pool::{JobRequest, Pool, ServerState, ShardReply, StateOptions, SubmitError};
use std::io::{self};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;
use wal::{JobLog, RecoveryReport};

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker shards.
    pub shards: usize,
    /// Bounded queue depth per shard (backpressure).
    pub queue_depth: usize,
    /// Max jobs a worker drains per batch.
    pub max_batch: usize,
    /// Deadline for jobs that do not carry their own `budget_ms`.
    pub default_budget_ms: u64,
    /// Largest accepted matrix size in tiles; bigger specs answer 400
    /// `over-budget` instead of monopolizing a worker.
    pub max_n: usize,
    /// Path of the append-only job log. `None` runs in-RAM: nothing
    /// persists, nothing evicts, a restart starts empty.
    pub log_path: Option<PathBuf>,
    /// Seeded I/O faults injected into the log's backend (chaos testing;
    /// only takes effect with a `log_path`).
    pub io_faults: IoFaultPlan,
    /// Close kept-alive connections idle this long.
    pub idle_timeout_ms: u64,
    /// Close kept-alive connections after this many requests.
    pub max_requests_per_conn: usize,
    /// Max jobs resident in the store; colder persisted jobs evict to
    /// the log and reload on demand (0 = unbounded).
    pub max_resident_jobs: usize,
    /// Max approximate bytes resident in the store (0 = unbounded).
    pub max_resident_bytes: usize,
    /// Max entries in the result cache (0 = unbounded).
    pub results_max_entries: usize,
    /// Max approximate bytes in the result cache (0 = unbounded).
    pub results_max_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            shards: 4,
            queue_depth: 128,
            max_batch: 8,
            default_budget_ms: 30_000,
            max_n: 64,
            log_path: None,
            io_faults: IoFaultPlan::none(),
            idle_timeout_ms: 5_000,
            max_requests_per_conn: 1_000,
            max_resident_jobs: 0,
            max_resident_bytes: 0,
            results_max_entries: 0,
            results_max_bytes: 0,
        }
    }
}

struct Ctx {
    config: ServeConfig,
    state: Arc<ServerState>,
    pool: Pool,
    /// Cleared by the first drain; a false value sheds new submissions
    /// with 503 `draining` while queued work finishes.
    accepting: AtomicBool,
    /// Set (under `drained`/`drained_cv`) once the first drain has
    /// finished and been answered; `repro serve` exits when it rises.
    drained: StdMutex<bool>,
    drained_cv: Condvar,
}

impl Ctx {
    /// Drain once, idempotently: the first caller stops new submissions,
    /// waits for every queued job to be answered, fsyncs the log, and
    /// returns; it then answers and raises the flag with
    /// [`Ctx::raise_drained`]. Later callers wait for that flag.
    fn drain(&self) {
        if self.accepting.swap(false, Ordering::SeqCst) {
            self.pool.drain();
            if let Some(log) = &self.state.log {
                let _ = log.sync();
            }
        } else {
            self.wait_drained();
        }
    }

    /// Raise the drained flag. The first drain's caller does this only
    /// once its answer is out, so a server exiting on the flag never
    /// drops that answer.
    fn raise_drained(&self) {
        *self.drained.lock().expect("drained flag") = true;
        self.drained_cv.notify_all();
    }

    fn wait_drained(&self) {
        let mut done = self.drained.lock().expect("drained flag");
        while !*done {
            done = self.drained_cv.wait(done).expect("drained flag");
        }
    }
}

/// A running server. Dropping it does **not** stop the threads; call
/// [`Server::shutdown`].
pub struct Server {
    addr: SocketAddr,
    ctx: Arc<Ctx>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    recovery: Option<RecoveryReport>,
}

impl Server {
    /// Bind, replay the job log (when configured), start the worker pool
    /// and the acceptor thread, and return. A torn log tail is truncated
    /// and reported through [`Server::recovery`] — never a startup
    /// failure; only an unopenable log file errors here.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;

        let (log, recovered, recovery) = match &config.log_path {
            Some(path) => {
                let (log, records, report) = JobLog::open(path, &config.io_faults)?;
                (Some(Arc::new(log)), records, Some(report))
            }
            None => (None, Vec::new(), None),
        };
        let state = Arc::new(ServerState::with_options(StateOptions {
            log,
            max_resident_jobs: config.max_resident_jobs,
            max_resident_bytes: config.max_resident_bytes,
            results_max_entries: config.results_max_entries,
            results_max_bytes: config.results_max_bytes,
        }));
        state.store.recover(&recovered);
        drop(recovered);

        let pool = Pool::start(
            config.shards,
            config.queue_depth,
            config.max_batch,
            state.clone(),
        );
        let ctx = Arc::new(Ctx {
            config,
            state,
            pool,
            accepting: AtomicBool::new(true),
            drained: StdMutex::new(false),
            drained_cv: Condvar::new(),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor_ctx = ctx.clone();
        let acceptor_stop = stop.clone();
        let acceptor = thread::spawn(move || {
            for conn in listener.incoming() {
                if acceptor_stop.load(Ordering::Acquire) {
                    break;
                }
                if let Ok(stream) = conn {
                    let ctx = acceptor_ctx.clone();
                    thread::spawn(move || handle_connection(stream, &ctx));
                }
            }
        });
        Ok(Server {
            addr,
            ctx,
            stop,
            acceptor: Some(acceptor),
            recovery,
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state — counters and caches — for in-process callers.
    pub fn state(&self) -> &ServerState {
        &self.ctx.state
    }

    /// What startup log replay found (`None` without a log). A torn tail
    /// shows up here as [`RecoveryReport::torn`], already truncated.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Kill one shard (the in-process twin of `POST /admin/shards/<i>/kill`).
    pub fn kill_shard(&self, shard: usize) -> bool {
        self.ctx.pool.kill(shard)
    }

    /// Gracefully drain (the in-process twin of `POST /admin/drain`):
    /// stop taking new jobs, answer everything queued, fsync the log.
    /// Blocks until done; idempotent.
    pub fn drain(&self) {
        self.ctx.drain();
        self.ctx.raise_drained();
    }

    /// Block until a drain — ours or one requested over HTTP — has
    /// completed and been answered. `repro serve` parks here instead of
    /// sleeping forever.
    pub fn wait_drained(&self) {
        self.ctx.wait_drained();
    }

    /// Stop accepting, stop the workers, join the acceptor. In-flight
    /// connection handlers finish on their own; kept-alive connections
    /// close at their next idle timeout.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        // Wake the acceptor out of `accept`.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        self.ctx.pool.shutdown();
    }
}

/// Serve one connection until it closes: per HTTP/1.1 keep-alive,
/// bounded by the idle timeout (reads time out) and the per-connection
/// request cap. The last response before the cap — and any response to a
/// `Connection: close` request — says `Connection: close`.
fn handle_connection(stream: TcpStream, ctx: &Arc<Ctx>) {
    let idle = Duration::from_millis(ctx.config.idle_timeout_ms.max(1));
    let _ = stream.set_read_timeout(Some(idle));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(60)));
    // Nagle holds small responses back behind un-ACKed data on a
    // kept-alive socket; every response here is one small write.
    let _ = stream.set_nodelay(true);
    let Ok(mut write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = std::io::BufReader::new(stream);
    let cap = ctx.config.max_requests_per_conn.max(1);
    for served in 1..=cap {
        let (status, body, client_keep, drain) = match http::read_request(&mut reader) {
            Ok(req) => {
                let keep = req.keep_alive;
                let drain = req.method == "POST" && req.path == "/admin/drain";
                let (status, body) = route(&req, ctx);
                (status, body, keep, drain)
            }
            Err(http::ReadError::Eof) | Err(http::ReadError::Io(_)) => return,
            Err(http::ReadError::Malformed(detail)) => {
                // A malformed request leaves the stream position
                // unknowable; answer and close.
                (400, error_body("bad-request", &detail), false, false)
            }
        };
        let keep = client_keep && served < cap;
        let written = http::write_response(&mut write_half, status, &body, keep);
        if drain {
            // The drain's answer is out (or its client is gone): only
            // now may a server waiting on the flag exit.
            ctx.raise_drained();
        }
        if written.is_err() || !keep {
            return;
        }
    }
}

fn route(req: &http::Request, ctx: &Arc<Ctx>) -> (u16, String) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => (
            200,
            JsonValue::Obj(vec![("status".into(), JsonValue::str("ok"))]).render(),
        ),
        ("GET", "/stats") => (200, stats_body(ctx)),
        ("POST", "/jobs") => submit(&req.body, ctx),
        ("POST", "/admin/drain") => {
            // Blocks until every queued job is answered and the log is
            // synced — when the 200 arrives, the log is durable.
            ctx.drain();
            (
                200,
                JsonValue::Obj(vec![
                    ("status".into(), JsonValue::str("drained")),
                    (
                        "jobs_completed".into(),
                        JsonValue::uint(ctx.state.jobs_completed.load(Ordering::Relaxed)),
                    ),
                    (
                        "log_healthy".into(),
                        JsonValue::Bool(ctx.state.log_healthy()),
                    ),
                ])
                .render(),
            )
        }
        (method, path) if path.starts_with("/jobs/") => jobs_subresource(method, path, ctx),
        ("POST", path) if path.starts_with("/admin/shards/") && path.ends_with("/kill") => {
            let middle = &path["/admin/shards/".len()..path.len() - "/kill".len()];
            match middle.parse::<usize>() {
                Ok(shard) if ctx.pool.kill(shard) => (
                    200,
                    JsonValue::Obj(vec![
                        ("status".into(), JsonValue::str("ok")),
                        ("shard".into(), JsonValue::uint(shard as u64)),
                        ("alive".into(), JsonValue::Bool(false)),
                    ])
                    .render(),
                ),
                _ => (
                    404,
                    error_body("not-found", &format!("no shard {middle:?}")),
                ),
            }
        }
        ("GET" | "POST", path) => (404, error_body("not-found", &format!("no route {path:?}"))),
        (method, _) => (
            405,
            error_body("bad-method", &format!("method {method:?} not supported")),
        ),
    }
}

/// What became of one submitted job, transport-free.
///
/// [`submit_job`] is the whole `POST /jobs` request path minus HTTP:
/// loopback handlers render this to JSON, while analysis harnesses (the
/// happens-before recorder's serve exercise, the serve-pool model) call
/// it in-process and assert on the variants directly.
pub enum SubmitOutcome {
    /// Answered from the result cache (a counted hit).
    Hit(Arc<store::StoredJob>),
    /// Executed by a shard within the deadline (a counted miss).
    Done(Arc<store::StoredJob>),
    /// The spec failed validation at execution time.
    Rejected(JobError),
    /// Shed without a result: queue-full, shard-dead, or deadline.
    Shed {
        /// Stable machine-readable reason (`queue-full`, `shard-dead`,
        /// `deadline`).
        code: &'static str,
        /// Human-readable detail (the HTTP `detail` member, verbatim).
        detail: String,
        /// The shard the job routed to.
        shard: usize,
    },
}

/// Submit one job: consult the result cache, queue on the routed shard,
/// and wait out the deadline. This is `POST /jobs` without the HTTP.
pub fn submit_job(
    state: &ServerState,
    pool: &Pool,
    spec: JobSpec,
    default_budget_ms: u64,
) -> SubmitOutcome {
    let spec_hash = spec.content_hash();
    if let Some(hit) = state.results.get(spec_hash) {
        return SubmitOutcome::Hit(hit);
    }

    // Read-only mode: an unhealthy log means new work could complete but
    // never persist; cached and stored jobs still serve above and via
    // `GET /jobs/<id>`, new submissions shed with a structured 503.
    if !state.log_healthy() {
        state.shed_store_unavailable.fetch_add(1, Ordering::Relaxed);
        let shard = pool.shard_of(spec_hash);
        return SubmitOutcome::Shed {
            code: "store-unavailable",
            detail: "the job log stopped accepting writes; serving stored results only".into(),
            shard,
        };
    }

    let id = state.store.next_id();
    let budget = Duration::from_millis(spec.budget_ms.unwrap_or(default_budget_ms));
    let (reply_tx, reply_rx) = channel::channel();
    let shard = match pool.submit(
        spec_hash,
        JobRequest {
            id,
            spec,
            reply: reply_tx,
        },
    ) {
        Ok(shard) => shard,
        Err((shard, SubmitError::QueueFull)) => {
            state.shed_queue_full.fetch_add(1, Ordering::Relaxed);
            return SubmitOutcome::Shed {
                code: "queue-full",
                detail: format!("shard {shard} queue is full; retry later"),
                shard,
            };
        }
        Err((shard, SubmitError::ShardDead)) => {
            state.shed_shard_dead.fetch_add(1, Ordering::Relaxed);
            return SubmitOutcome::Shed {
                code: "shard-dead",
                detail: format!("shard {shard} is dead"),
                shard,
            };
        }
    };
    state.jobs_submitted.fetch_add(1, Ordering::Relaxed);

    match reply_rx.recv_timeout(budget) {
        Ok(ShardReply::Done(job)) => SubmitOutcome::Done(job),
        Ok(ShardReply::Rejected(err)) => SubmitOutcome::Rejected(err),
        Err(channel::RecvTimeoutError::Timeout) => {
            state.shed_deadline.fetch_add(1, Ordering::Relaxed);
            SubmitOutcome::Shed {
                code: "deadline",
                detail: format!("job {id} missed its {}ms budget", budget.as_millis()),
                shard,
            }
        }
        Err(channel::RecvTimeoutError::Disconnected) => {
            state.shed_shard_dead.fetch_add(1, Ordering::Relaxed);
            SubmitOutcome::Shed {
                code: "shard-dead",
                detail: format!("shard {shard} died with job {id} queued"),
                shard,
            }
        }
    }
}

/// `POST /jobs`: parse, budget-check, then [`submit_job`] and render.
fn submit(body: &str, ctx: &Ctx) -> (u16, String) {
    let spec = match JobSpec::from_json(body) {
        Ok(spec) => spec,
        Err(err) => return (400, err.to_json_value().render()),
    };
    if !ctx.accepting.load(Ordering::Acquire) {
        let shard = ctx.pool.shard_of(spec.content_hash());
        return (
            503,
            degraded_body("draining", "the server is draining; no new jobs", shard),
        );
    }
    if spec.n > ctx.config.max_n {
        return (
            400,
            error_body(
                "over-budget",
                &format!(
                    "n={} exceeds this server's limit of {} tiles",
                    spec.n, ctx.config.max_n
                ),
            ),
        );
    }
    match submit_job(&ctx.state, &ctx.pool, spec, ctx.config.default_budget_ms) {
        SubmitOutcome::Hit(job) => (200, envelope(&job, "hit")),
        SubmitOutcome::Done(job) => (200, envelope(&job, "miss")),
        SubmitOutcome::Rejected(err) => (400, err.to_json_value().render()),
        SubmitOutcome::Shed {
            code,
            detail,
            shard,
        } => (503, degraded_body(code, &detail, shard)),
    }
}

/// `GET /jobs/<id>`, `/jobs/<id>/trace`, `/jobs/<id>/lint`.
fn jobs_subresource(method: &str, path: &str, ctx: &Ctx) -> (u16, String) {
    if method != "GET" {
        return (
            405,
            error_body("bad-method", &format!("{path} only supports GET")),
        );
    }
    let rest = &path["/jobs/".len()..];
    let (id_text, sub) = match rest.split_once('/') {
        None => (rest, ""),
        Some((id, sub)) => (id, sub),
    };
    let Ok(id) = id_text.parse::<u64>() else {
        return (
            404,
            error_body("not-found", &format!("bad job id {id_text:?}")),
        );
    };
    let Some(job) = ctx.state.store.get(id) else {
        return (404, error_body("not-found", &format!("no job {id}")));
    };
    match sub {
        "" => (200, envelope(&job, "stored")),
        "trace" => match job.chrome_trace() {
            Some(trace) => (200, trace),
            None => (
                400,
                error_body(
                    "no-trace",
                    &format!("job {id} ran without obs; resubmit with \"obs\":true"),
                ),
            ),
        },
        "lint" => match job.lint() {
            Some(Ok(report)) => {
                // The envelope's fixed members, then the report's own JSON
                // as the last member's value.
                let mut body = format!(
                    "{{\"status\":\"ok\",\"job_id\":{id},\"errors\":{},\"warnings\":{},\
                     \"clean\":{},\"report\":",
                    report.n_errors(),
                    report.n_warnings(),
                    report.is_clean()
                );
                body.push_str(&report.to_json());
                body.push('}');
                (200, body)
            }
            Some(Err(err)) => (400, err.to_json_value().render()),
            None => (
                400,
                error_body(
                    "no-trace",
                    &format!("job {id} never simulated; nothing to lint"),
                ),
            ),
        },
        other => (
            404,
            error_body("not-found", &format!("no job subresource {other:?}")),
        ),
    }
}

/// The success envelope: the job's `JobOutcome` wire object with the
/// server-assigned id and the cache disposition prepended.
fn envelope(job: &store::StoredJob, cache: &str) -> String {
    let mut members = vec![
        ("job_id".into(), JsonValue::uint(job.id)),
        ("cache".into(), JsonValue::str(cache)),
    ];
    if let JsonValue::Obj(rest) = job.outcome.to_json_value() {
        members.extend(rest);
    }
    JsonValue::Obj(members).render()
}

/// A structured shed: HTTP 503 whose `outcome` reuses the simulator's
/// `RunOutcome::Degraded` wire shape, with the shed shard as the lost
/// worker.
fn degraded_body(code: &str, detail: &str, shard: usize) -> String {
    JsonValue::Obj(vec![
        ("status".into(), JsonValue::str("degraded")),
        ("code".into(), JsonValue::str(code)),
        ("detail".into(), JsonValue::str(detail)),
        (
            "outcome".into(),
            outcome_to_json(&RunOutcome::Degraded {
                lost_workers: vec![shard],
                retries: 0,
            }),
        ),
    ])
    .render()
}

fn error_body(code: &str, detail: &str) -> String {
    JsonValue::Obj(vec![
        ("status".into(), JsonValue::str("error")),
        ("code".into(), JsonValue::str(code)),
        ("detail".into(), JsonValue::str(detail)),
    ])
    .render()
}

fn stats_body(ctx: &Ctx) -> String {
    let s = &ctx.state;
    // One lock-ordered snapshot (store → caches, each cache under a
    // single guard): `hits + misses == gets` holds in every response, no
    // matter how many requests are in flight.
    let snap = s.consistent_stats();
    let cache_obj = |c: cache::CacheSnapshot| {
        JsonValue::Obj(vec![
            ("hits".into(), JsonValue::uint(c.hits)),
            ("misses".into(), JsonValue::uint(c.misses)),
            ("gets".into(), JsonValue::uint(c.gets)),
            ("entries".into(), JsonValue::uint(c.entries as u64)),
            ("evicted".into(), JsonValue::uint(c.evicted)),
        ])
    };
    let log_obj = match &s.log {
        None => JsonValue::Obj(vec![("attached".into(), JsonValue::Bool(false))]),
        Some(log) => JsonValue::Obj(vec![
            ("attached".into(), JsonValue::Bool(true)),
            ("healthy".into(), JsonValue::Bool(log.healthy())),
            ("appended".into(), JsonValue::uint(log.appended())),
            ("bytes".into(), JsonValue::uint(log.len_bytes())),
        ]),
    };
    JsonValue::Obj(vec![
        ("status".into(), JsonValue::str("ok")),
        (
            "jobs".into(),
            JsonValue::Obj(vec![
                (
                    "submitted".into(),
                    JsonValue::uint(s.jobs_submitted.load(Ordering::Relaxed)),
                ),
                (
                    "completed".into(),
                    JsonValue::uint(s.jobs_completed.load(Ordering::Relaxed)),
                ),
                ("stored".into(), JsonValue::uint(snap.store.stored as u64)),
                (
                    "batched".into(),
                    JsonValue::uint(s.batched.load(Ordering::Relaxed)),
                ),
            ]),
        ),
        (
            "store".into(),
            JsonValue::Obj(vec![
                (
                    "resident".into(),
                    JsonValue::uint(snap.store.resident as u64),
                ),
                (
                    "resident_bytes".into(),
                    JsonValue::uint(snap.store.resident_bytes as u64),
                ),
                ("evicted".into(), JsonValue::uint(snap.store.evicted)),
                (
                    "evicted_bytes".into(),
                    JsonValue::uint(snap.store.evicted_bytes),
                ),
                ("reloads".into(), JsonValue::uint(snap.store.reloads)),
            ]),
        ),
        ("log".into(), log_obj),
        (
            "cache".into(),
            JsonValue::Obj(vec![
                ("results".into(), cache_obj(snap.results)),
                ("bounds".into(), cache_obj(snap.bounds)),
                ("profiles".into(), cache_obj(snap.profiles)),
            ]),
        ),
        (
            "shed".into(),
            JsonValue::Obj(vec![
                (
                    "queue_full".into(),
                    JsonValue::uint(s.shed_queue_full.load(Ordering::Relaxed)),
                ),
                (
                    "deadline".into(),
                    JsonValue::uint(s.shed_deadline.load(Ordering::Relaxed)),
                ),
                (
                    "shard_dead".into(),
                    JsonValue::uint(s.shed_shard_dead.load(Ordering::Relaxed)),
                ),
                (
                    "store_unavailable".into(),
                    JsonValue::uint(s.shed_store_unavailable.load(Ordering::Relaxed)),
                ),
            ]),
        ),
        (
            "shards".into(),
            JsonValue::Arr(ctx.pool.alive().into_iter().map(JsonValue::Bool).collect()),
        ),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetchol_core::json::parse_json;

    fn start() -> Server {
        Server::start(ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        })
        .expect("bind loopback")
    }

    #[test]
    fn health_and_stats_respond() {
        let server = start();
        let (status, body) = client::get(server.addr(), "/health").unwrap();
        assert_eq!((status, body.as_str()), (200, r#"{"status":"ok"}"#));
        let (status, body) = client::get(server.addr(), "/stats").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains(r#""shards":[true,true]"#), "{body}");
        server.shutdown();
    }

    #[test]
    fn submit_then_refetch_and_cache_hit() {
        let server = start();
        let spec = r#"{"workload":"cholesky","n":6,"scheduler":"dmdas","obs":true}"#;
        let (status, body) = client::post_job(server.addr(), spec).unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(body.contains(r#""cache":"miss""#), "{body}");
        let v = parse_json(&body).unwrap();
        let id = v.field("job_id").unwrap().as_u64().unwrap();

        // Same spec again: a counted cache hit with the original id.
        let (status, body2) = client::post_job(server.addr(), spec).unwrap();
        assert_eq!(status, 200, "{body2}");
        assert!(body2.contains(r#""cache":"hit""#), "{body2}");
        assert_eq!(server.state().results.hits(), 1);

        // Refetch by id, then its trace and on-demand lint.
        let (status, body3) = client::get(server.addr(), &format!("/jobs/{id}")).unwrap();
        assert_eq!(status, 200, "{body3}");
        assert!(body3.contains(r#""cache":"stored""#), "{body3}");
        let (status, trace) = client::get(server.addr(), &format!("/jobs/{id}/trace")).unwrap();
        assert_eq!(status, 200, "{trace}");
        assert!(trace.contains("traceEvents"), "{trace}");
        let (status, lint) = client::get(server.addr(), &format!("/jobs/{id}/lint")).unwrap();
        assert_eq!(status, 200, "{lint}");
        assert!(lint.contains(r#""errors":0"#), "{lint}");
        server.shutdown();
    }

    #[test]
    fn killed_shard_answers_shard_dead_not_a_hang() {
        let server = start();
        let (status, body) =
            client::request(server.addr(), "POST", "/admin/shards/0/kill", "").unwrap();
        assert_eq!(status, 200, "{body}");
        let (status, body) =
            client::request(server.addr(), "POST", "/admin/shards/1/kill", "").unwrap();
        assert_eq!(status, 200, "{body}");
        let (status, body) =
            client::post_job(server.addr(), r#"{"workload":"cholesky","n":4}"#).unwrap();
        assert_eq!(status, 503, "{body}");
        assert!(body.contains(r#""status":"degraded""#), "{body}");
        assert!(body.contains(r#""code":"shard-dead""#), "{body}");
        assert!(body.contains(r#""label":"degraded""#), "{body}");
        server.shutdown();
    }

    #[test]
    fn bad_routes_and_methods_have_stable_codes() {
        let server = start();
        let (status, body) = client::get(server.addr(), "/nope").unwrap();
        assert_eq!(status, 404);
        assert!(body.contains(r#""code":"not-found""#), "{body}");
        let (status, body) = client::request(server.addr(), "DELETE", "/jobs", "").unwrap();
        assert_eq!(status, 405);
        assert!(body.contains(r#""code":"bad-method""#), "{body}");
        let (status, body) = client::get(server.addr(), "/jobs/999").unwrap();
        assert_eq!(status, 404, "{body}");
        server.shutdown();
    }
}
