//! The sharded worker pool.
//!
//! Jobs are routed to a shard by spec content hash, queued on a bounded
//! channel, and executed by one worker thread per shard. The bounded
//! queue is the server's backpressure: a full queue answers *queue-full*
//! immediately instead of buffering unboundedly, and a killed shard
//! answers *shard-dead* instead of hanging — both as structured
//! `Degraded` HTTP responses, never dropped connections.
//!
//! Workers drain their queue in batches (up to `max_batch`) so the bound
//! computations of co-queued jobs amortize through
//! [`BoundSet::compute_batch`] and the shared bounds cache.
//!
//! All pool synchronization — the shard queues, the liveness flags, the
//! reply channels — goes through the instrumented `parking_lot` compat
//! shim, so the whole layer runs under the happens-before recorder
//! ([`hetchol_analyze::hb`]) at real speed and under the DPOR model
//! checker ([`Pool::start_controlled`]) exhaustively.

use crate::cache::{CacheSnapshot, CountedCache};
use crate::store::{JobStore, StoreSnapshot, StoredJob};
use crate::wal::JobLog;
use hetchol::job::{JobAction, JobError, JobSpec};
use hetchol_bounds::BoundSet;
use hetchol_core::algorithm::Algorithm;
use hetchol_core::hash::ContentHasher;
use hetchol_core::platform::Platform;
use hetchol_core::profiles::TimingProfile;
use parking_lot::{channel, explore, Mutex};
use std::sync::atomic::AtomicBool;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// Seeded concurrency bugs for proving the analyzers' detection power.
///
/// Each flag re-introduces one historical bug class; `repro race
/// --mutate <bug>` flips exactly one and asserts the corresponding
/// analyzer catches it. All flags default to off, and the constructors
/// that set them only exist under the `race-mutations` feature, so none
/// of this is reachable from a stock build.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolMutations {
    /// Commit jobs to the store with the declared touchpoint outside the
    /// lock — a data race the happens-before recorder reports.
    pub unsynced_store_touch: bool,
    /// Commit result-cache-first while holding it across the store insert
    /// — a lock-order inversion lockdep reports as a cycle.
    pub invert_commit_order: bool,
    /// Keep (leak) the batch a killed worker drained instead of dropping
    /// it — the reply senders stay alive, the waiting handler never gets
    /// its disconnect, and the model checker produces a deadlock witness.
    pub leak_killed_batch: bool,
}

/// Durability knobs for [`ServerState::with_options`]: the job log and
/// the residency caps. The default is the legacy in-RAM server — no log,
/// everything unbounded.
#[derive(Clone, Default)]
pub struct StateOptions {
    /// The append-only job log; `None` runs in-RAM (nothing persists,
    /// nothing evicts).
    pub log: Option<Arc<JobLog>>,
    /// Max jobs resident in the store (0 = unbounded).
    pub max_resident_jobs: usize,
    /// Max approximate bytes resident in the store (0 = unbounded).
    pub max_resident_bytes: usize,
    /// Max entries in the result cache (0 = unbounded).
    pub results_max_entries: usize,
    /// Max approximate bytes in the result cache (0 = unbounded).
    pub results_max_bytes: usize,
}

/// Shared server state: the caches, the job store, and the counters
/// surfaced by `GET /stats`.
pub struct ServerState {
    /// Completed jobs by spec content hash — the result cache.
    pub results: CountedCache<StoredJob>,
    /// Bound sets by (workload, n, platform, profile) hash.
    pub bounds: CountedCache<BoundSet>,
    /// Materialized (platform, profile) pairs by name hash.
    pub profiles: CountedCache<(Platform, TimingProfile)>,
    /// Completed jobs by server-assigned id.
    pub store: JobStore,
    /// The append-only job log commits go through (`None` = in-RAM).
    pub log: Option<Arc<JobLog>>,
    /// Jobs accepted into a shard queue.
    pub jobs_submitted: AtomicU64,
    /// Jobs a worker finished executing.
    pub jobs_completed: AtomicU64,
    /// Submissions shed because the target shard's queue was full.
    pub shed_queue_full: AtomicU64,
    /// Submissions answered Degraded because the deadline expired first.
    pub shed_deadline: AtomicU64,
    /// Submissions shed because the target shard was dead.
    pub shed_shard_dead: AtomicU64,
    /// Submissions shed because the job log went unhealthy (read-only
    /// mode: GETs still serve, POSTs answer *store-unavailable*).
    pub shed_store_unavailable: AtomicU64,
    /// Jobs that were executed as part of a multi-job batch.
    pub batched: AtomicU64,
    /// Which seeded bugs are active (all off outside `repro race`).
    pub mutations: PoolMutations,
    /// Batches a killed worker leaked instead of dropping (the
    /// `leak-killed-batch` mutation). Plain `std` mutex on purpose: the
    /// leak itself must stay invisible to the analyzers so what they
    /// catch is its *consequence* — the reply that never disconnects.
    #[cfg(feature = "race-mutations")]
    pub leaked: std::sync::Mutex<Vec<JobRequest>>,
}

/// One coherent `/stats` snapshot: the store size and every cache's
/// accounting, read while holding the store lock so no concurrent commit
/// can tear it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Job-store accounting (stored, resident, evictions, reloads).
    pub store: StoreSnapshot,
    /// Result-cache accounting.
    pub results: CacheSnapshot,
    /// Bounds-cache accounting.
    pub bounds: CacheSnapshot,
    /// Profile-cache accounting.
    pub profiles: CacheSnapshot,
}

fn job_weight(job: &StoredJob) -> usize {
    job.approx_bytes()
}

impl ServerState {
    /// Fresh in-RAM state with zeroed counters (no log, no caps).
    pub fn new() -> ServerState {
        ServerState::with_options(StateOptions::default())
    }

    /// Fresh state with the given durability options. When a log is
    /// present it is attached to the store, so evicted jobs reload from
    /// it transparently.
    pub fn with_options(opts: StateOptions) -> ServerState {
        let store = JobStore::with_caps(opts.max_resident_jobs, opts.max_resident_bytes);
        if let Some(log) = &opts.log {
            store.attach_log(log.clone());
        }
        ServerState {
            results: CountedCache::with_caps(
                "serve.cache.results",
                opts.results_max_entries,
                opts.results_max_bytes,
                job_weight,
            ),
            bounds: CountedCache::named("serve.cache.bounds"),
            profiles: CountedCache::named("serve.cache.profiles"),
            store,
            log: opts.log,
            jobs_submitted: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            shed_queue_full: AtomicU64::new(0),
            shed_deadline: AtomicU64::new(0),
            shed_shard_dead: AtomicU64::new(0),
            shed_store_unavailable: AtomicU64::new(0),
            batched: AtomicU64::new(0),
            mutations: PoolMutations::default(),
            #[cfg(feature = "race-mutations")]
            leaked: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// Whether the job log can still accept appends. `true` with no log
    /// attached — an in-RAM server is never read-only.
    pub fn log_healthy(&self) -> bool {
        self.log.as_ref().is_none_or(|log| log.healthy())
    }

    /// Fresh state with the given seeded bugs armed.
    #[cfg(feature = "race-mutations")]
    pub fn with_mutations(mutations: PoolMutations) -> ServerState {
        let mut state = ServerState::new();
        state.mutations = mutations;
        state
    }

    /// Re-emit every lock label at the state's final address. The
    /// constructors label their locks, but labels are address-keyed and
    /// the state is usually moved afterwards (into an `Arc`); call this
    /// once it has settled so analyzer reports name the locks.
    pub fn label_locks(&self) {
        self.results.relabel();
        self.bounds.relabel();
        self.profiles.relabel();
        self.store.relabel();
    }

    /// The cached (platform, profile) pair for a spec, building and
    /// caching it on first use.
    pub fn profile_pair(&self, spec: &JobSpec) -> Arc<(Platform, TimingProfile)> {
        let key = profile_key(spec);
        if let Some(pair) = self.profiles.get(key) {
            return pair;
        }
        let pair = Arc::new((spec.platform.build(), spec.profile.build()));
        self.profiles.insert(key, pair.clone());
        pair
    }

    /// Commit a finished job: durably append it to the log (when one is
    /// attached and healthy), then into the store, then into the result
    /// cache while the store lock is still held, so a
    /// [`Self::consistent_stats`] reader never counts a job in one map
    /// but not the other. The shim-lock order is store → results,
    /// everywhere; the log append happens *before* the store lock and
    /// the log's own lock is `std`, so no cycle is possible.
    ///
    /// A failed append flips the log unhealthy (sticky, inside
    /// [`JobLog`]); the job is still committed in RAM and answered — it
    /// just is not durable, and every *subsequent* submission is shed
    /// *store-unavailable* by the handler.
    pub fn commit_job(&self, spec_hash: u64, job: Arc<StoredJob>) {
        #[cfg(feature = "race-mutations")]
        {
            if self.mutations.invert_commit_order {
                // Seeded inversion: pin the result cache, then take the
                // store lock inside it — results → store, the reverse of
                // the stats path. Lockdep closes the cycle.
                let mut results = self.results.begin_commit();
                results.insert(spec_hash, job.clone());
                self.store.insert(job);
                return;
            }
            if self.mutations.unsynced_store_touch {
                self.store.insert_unsynced(job.clone());
                self.results.insert(spec_hash, job);
                return;
            }
        }
        let appended = self.log.as_ref().and_then(|log| log.append(&job).ok());
        let pinned = self.store.insert_locked(job.clone(), appended.as_ref());
        self.results.insert(spec_hash, job);
        drop(pinned);
    }

    /// One coherent snapshot of store size and cache accounting, taken
    /// while holding the store lock (order store → caches, matching
    /// [`Self::commit_job`]). Each cache snapshot is a single guard, so
    /// `hits + misses == gets` holds field-wise in every observation.
    pub fn consistent_stats(&self) -> StatsSnapshot {
        let jobs = self.store.lock_jobs();
        let snap = StatsSnapshot {
            store: jobs.snapshot(),
            results: self.results.snapshot(),
            bounds: self.bounds.snapshot(),
            profiles: self.profiles.snapshot(),
        };
        drop(jobs);
        snap
    }
}

impl Default for ServerState {
    fn default() -> ServerState {
        ServerState::new()
    }
}

/// Whether the action computes a bound set (and so benefits from the
/// bounds cache and batching).
pub fn needs_bounds(action: JobAction) -> bool {
    matches!(
        action,
        JobAction::Bounds | JobAction::Certify | JobAction::Lint
    )
}

/// Cache key for a spec's (platform, profile) pair.
pub fn profile_key(spec: &JobSpec) -> u64 {
    let mut h = ContentHasher::new();
    h.write_str(&spec.platform.name());
    h.write_str(&spec.profile.name());
    h.finish()
}

/// Cache key for a spec's bound set. Bounds depend only on the workload,
/// the size, and the (platform, profile) pair — not the scheduler, seed
/// or faults — so many distinct jobs share one entry.
pub fn bounds_key(spec: &JobSpec) -> u64 {
    let mut h = ContentHasher::new();
    h.write_str(spec.workload.label());
    h.write_usize(spec.n);
    h.write_str(&spec.platform.name());
    h.write_str(&spec.profile.name());
    h.finish()
}

/// One queued job: the assigned id, the spec, and the channel the
/// connection handler is blocked on.
pub struct JobRequest {
    /// Server-assigned job id.
    pub id: u64,
    /// The job to run.
    pub spec: JobSpec,
    /// Where the worker sends the result. Send errors are ignored: a
    /// handler whose deadline expired has hung up, but the result is
    /// still cached for the next request.
    pub reply: channel::Sender<ShardReply>,
}

/// What a worker sends back per job.
pub enum ShardReply {
    /// The job ran (possibly degraded *inside* the simulation — the
    /// stored outcome says); it is in the store and the result cache.
    Done(Arc<StoredJob>),
    /// The spec failed validation at execution time.
    Rejected(JobError),
}

enum ShardMsg {
    Job(JobRequest),
    Stop,
}

/// Why a submission was refused without queueing.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The shard's bounded queue is full (backpressure).
    QueueFull,
    /// The shard's worker is dead (killed or exited).
    ShardDead,
}

struct Shard {
    tx: channel::SyncSender<ShardMsg>,
    // Deliberately an atomic, not a shim mutex: liveness is a monotonic
    // flag whose readers tolerate staleness by design (a stale `true`
    // just means the queued job is answered shard-dead a step later).
    // Keeping it invisible to the explorer keeps the model tree small
    // without hiding any distinct outcome — kill-vs-submit orderings are
    // still explored through the Stop message on the shard queue.
    alive: Arc<AtomicBool>,
}

/// The worker pool: `n_shards` bounded queues, one worker thread each.
pub struct Pool {
    shards: Vec<Shard>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Pool {
    /// Start `n_shards` workers over the shared state.
    pub fn start(
        n_shards: usize,
        queue_depth: usize,
        max_batch: usize,
        state: Arc<ServerState>,
    ) -> Pool {
        Pool::start_inner(n_shards, queue_depth, max_batch, state, None)
    }

    /// Start a pool whose workers check in with the interleaving explorer
    /// as threads `checkin_base .. checkin_base + n_shards`, so a DPOR
    /// session can schedule them exhaustively alongside model clients.
    pub fn start_controlled(
        n_shards: usize,
        queue_depth: usize,
        max_batch: usize,
        state: Arc<ServerState>,
        checkin_base: usize,
    ) -> Pool {
        Pool::start_inner(n_shards, queue_depth, max_batch, state, Some(checkin_base))
    }

    fn start_inner(
        n_shards: usize,
        queue_depth: usize,
        max_batch: usize,
        state: Arc<ServerState>,
        checkin_base: Option<usize>,
    ) -> Pool {
        let n_shards = n_shards.max(1);
        let max_batch = max_batch.max(1);
        let mut shards = Vec::with_capacity(n_shards);
        let mut handles = Vec::with_capacity(n_shards);
        for i in 0..n_shards {
            let (tx, rx) = channel::sync_channel(queue_depth.max(1));
            let alive = Arc::new(AtomicBool::new(true));
            let worker_alive = alive.clone();
            let worker_state = state.clone();
            let checkin = checkin_base.map(|base| base + i);
            handles.push(thread::spawn(move || {
                worker(rx, worker_alive, worker_state, max_batch, checkin)
            }));
            shards.push(Shard { tx, alive });
        }
        Pool {
            shards,
            handles: Mutex::new(handles),
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a spec hash routes to.
    pub fn shard_of(&self, spec_hash: u64) -> usize {
        (spec_hash % self.shards.len() as u64) as usize
    }

    /// Liveness of every shard, in order.
    pub fn alive(&self) -> Vec<bool> {
        self.shards
            .iter()
            .map(|s| s.alive.load(Ordering::Acquire))
            .collect()
    }

    /// Route and enqueue a job. Returns the shard index it was queued on,
    /// or the shard index plus the reason it was shed.
    pub fn submit(&self, spec_hash: u64, req: JobRequest) -> Result<usize, (usize, SubmitError)> {
        let idx = self.shard_of(spec_hash);
        let shard = &self.shards[idx];
        if !shard.alive.load(Ordering::Acquire) {
            return Err((idx, SubmitError::ShardDead));
        }
        match shard.tx.try_send(ShardMsg::Job(req)) {
            Ok(()) => Ok(idx),
            Err(channel::TrySendError::Full(_)) => Err((idx, SubmitError::QueueFull)),
            Err(channel::TrySendError::Disconnected(_)) => Err((idx, SubmitError::ShardDead)),
        }
    }

    /// Kill a shard: its worker stops, its queued jobs are answered
    /// *shard-dead* (their reply channels disconnect), and future
    /// submissions routed to it are refused. Returns `false` for an
    /// out-of-range index.
    pub fn kill(&self, shard: usize) -> bool {
        let Some(s) = self.shards.get(shard) else {
            return false;
        };
        s.alive.store(false, Ordering::Release);
        // Wake a worker blocked on an empty queue; if the queue is full
        // the worker is busy and will observe the flag after its batch.
        let _ = s.tx.try_send(ShardMsg::Stop);
        true
    }

    /// Gracefully drain the pool: every job already queued is processed
    /// and answered, then the workers exit and are joined. The caller
    /// must stop submitting first (the server flips its accepting flag);
    /// the `Stop` message rides the same FIFO queue as the jobs, so a
    /// worker sees it only after everything queued ahead of it. Blocks
    /// until every worker has exited.
    pub fn drain(&self) {
        for shard in &self.shards {
            // Blocking send: a full queue waits for the worker to drain
            // it rather than skipping the stop (contrast `kill`, which
            // uses try_send because its workers stop mid-queue anyway).
            let _ = shard.tx.send(ShardMsg::Stop);
        }
        let handles = std::mem::take(&mut *self.handles.lock());
        for handle in handles {
            let _ = handle.join();
        }
        for shard in &self.shards {
            shard.alive.store(false, Ordering::Release);
        }
    }

    /// Stop every worker and join them.
    pub fn shutdown(&self) {
        for shard in &self.shards {
            shard.alive.store(false, Ordering::Release);
            let _ = shard.tx.try_send(ShardMsg::Stop);
        }
        let handles = std::mem::take(&mut *self.handles.lock());
        for handle in handles {
            let _ = handle.join();
        }
    }
}

fn worker(
    rx: channel::Receiver<ShardMsg>,
    alive: Arc<AtomicBool>,
    state: Arc<ServerState>,
    max_batch: usize,
    checkin: Option<usize>,
) {
    if let Some(id) = checkin {
        explore::checkin(id);
    }
    loop {
        if !alive.load(Ordering::Acquire) {
            break;
        }
        let first = match rx.recv() {
            Ok(msg) => msg,
            Err(_) => break,
        };
        let mut batch = Vec::new();
        match first {
            ShardMsg::Stop => break,
            ShardMsg::Job(req) => batch.push(req),
        }
        let mut stop_after = false;
        while batch.len() < max_batch {
            match rx.try_recv() {
                Ok(ShardMsg::Job(req)) => batch.push(req),
                Ok(ShardMsg::Stop) => {
                    stop_after = true;
                    break;
                }
                Err(_) => break,
            }
        }
        if alive.load(Ordering::Acquire) {
            process_batch(&state, batch);
        } else {
            // A batch picked up by a just-killed worker is dropped
            // instead: the reply senders disconnect and every waiting
            // handler answers shard-dead rather than blocking on a
            // corpse. (The leak-killed-batch mutation keeps the batch —
            // and the senders — alive, which is exactly the hang the
            // model checker's deadlock detector witnesses.)
            drop_batch(&state, batch);
        }
        if stop_after {
            break;
        }
    }
    alive.store(false, Ordering::Release);
}

#[cfg(feature = "race-mutations")]
fn drop_batch(state: &ServerState, batch: Vec<JobRequest>) {
    if state.mutations.leak_killed_batch {
        state.leaked.lock().expect("leak lock").extend(batch);
    }
}

#[cfg(not(feature = "race-mutations"))]
fn drop_batch(_state: &ServerState, batch: Vec<JobRequest>) {
    drop(batch);
}

/// Run one drained batch: prefetch the batch's distinct bound sets in one
/// [`BoundSet::compute_batch`] call per (platform, profile) group, then
/// execute each job with its bounds spliced in.
fn process_batch(state: &ServerState, batch: Vec<JobRequest>) {
    struct Group {
        profile_key: u64,
        exemplar: JobSpec,
        requests: Vec<(u64, Algorithm, usize)>,
    }
    let mut groups: Vec<Group> = Vec::new();
    for req in &batch {
        if !needs_bounds(req.spec.action) {
            continue;
        }
        let bkey = bounds_key(&req.spec);
        // Counting lookup: the stats answer "how many jobs found their
        // bounds precomputed?".
        if state.bounds.get(bkey).is_some() {
            continue;
        }
        let pkey = profile_key(&req.spec);
        let group = match groups.iter_mut().find(|g| g.profile_key == pkey) {
            Some(g) => g,
            None => {
                groups.push(Group {
                    profile_key: pkey,
                    exemplar: req.spec.clone(),
                    requests: Vec::new(),
                });
                groups.last_mut().expect("just pushed")
            }
        };
        if !group.requests.iter().any(|&(k, _, _)| k == bkey) {
            group.requests.push((bkey, req.spec.workload, req.spec.n));
        }
    }
    for group in groups {
        let pair = state.profile_pair(&group.exemplar);
        let wanted: Vec<(Algorithm, usize)> =
            group.requests.iter().map(|&(_, a, n)| (a, n)).collect();
        let sets = BoundSet::compute_batch(&wanted, &pair.0, &pair.1);
        for (&(bkey, _, _), set) in group.requests.iter().zip(sets) {
            state.bounds.insert(bkey, Arc::new(set));
        }
    }

    if batch.len() > 1 {
        state
            .batched
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
    }
    for req in batch {
        let spec_hash = req.spec.content_hash();
        // An identical spec may have completed on another shard while this
        // one sat in the queue; reuse it (non-counting, internal dedup).
        if let Some(done) = state.results.peek(spec_hash) {
            state.jobs_completed.fetch_add(1, Ordering::Relaxed);
            let _ = req.reply.send(ShardReply::Done(done));
            continue;
        }
        let precomputed = if needs_bounds(req.spec.action) {
            state
                .bounds
                .peek(bounds_key(&req.spec))
                .map(|set| (*set).clone())
        } else {
            None
        };
        match req.spec.run_with_bounds(precomputed) {
            Ok(run) => {
                let job = Arc::new(StoredJob::fresh(req.id, req.spec, run.outcome, run.sim));
                state.commit_job(spec_hash, job.clone());
                state.jobs_completed.fetch_add(1, Ordering::Relaxed);
                let _ = req.reply.send(ShardReply::Done(job));
            }
            Err(err) => {
                let _ = req.reply.send(ShardReply::Rejected(err));
            }
        }
    }
}
