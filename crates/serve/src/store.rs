//! Per-job result storage with bounded residency and log rehydration.
//!
//! Every completed job is kept as its log record: [`StoredJob`] is an
//! alias of [`WalRecord`] (id, spec, summary, rendered trace), so a
//! stored job and its durable form are one value. Clients come back for
//! the Chrome trace (`GET /jobs/<id>/trace`), served verbatim from the
//! record, and for an after-the-fact lint (`GET /jobs/<id>/lint`), which
//! [`StoredJob::lint`] re-derives by re-running the spec as a lint job.
//!
//! A store built with [`JobStore::with_caps`] and an attached
//! [`JobLog`] bounds resident memory: jobs past the caps are evicted
//! least-recently-used down to their log offset, and a later `GET`
//! transparently reloads the record from disk. The reloaded job is the
//! record itself, so the trace comes back bitwise-identical and the
//! lint re-derives the same report. Jobs that were never persisted (no
//! log attached, or the log went unhealthy mid-commit) are pinned
//! resident: eviction only ever trades RAM for a disk read, never for
//! an answer.
//!
//! Three structures hold that state. Resident jobs sit in a map the caps
//! bound. Every persisted job, resident or evicted, keeps one
//! `(id, offset, frame_bytes)` entry of 24 bytes in a column ordered by
//! id, found by binary search; that entry is all an evicted job costs,
//! so the column still grows with the log's history. Resident persisted
//! jobs are stamped in the same recency index the results cache uses
//! ([`crate::cache`]), so choosing a victim pops its oldest stamp:
//! O(log resident), however many jobs the store has ever held.
//!
//! The job maps live behind the instrumented `parking_lot` shim so the
//! happens-before recorder sees every insert, lookup, eviction and
//! reload; the labelled touchpoints make a dropped-lock mutation show up
//! as a reported data race rather than silent corruption. Rehydration
//! reads the log *while holding the store lock* — the log's own internal
//! lock is a plain `std` mutex (see [`crate::wal`]), so the only shim
//! lock order is still store → caches, and the DPOR model tree gains no
//! schedule points.

use crate::cache::Recency;
use crate::wal::{Appended, JobLog, ScannedRecord, WalRecord};
use hetchol::job::{JobAction, JobError, JobOutcome, JobSpec};
use hetchol_analyze::Report;
use hetchol_sim::SimResult;
use parking_lot::{explore, Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// The label the store's lock and touchpoints carry in analysis reports.
pub const STORE_LOCK_LABEL: &str = "serve.store.jobs";

/// A finished job is its log record: the id, the spec, the wire summary
/// and the Chrome trace the live server rendered. A fresh job, one
/// reloaded after eviction and one recovered after a restart are the
/// same value, so every answer derived from a stored job — the summary,
/// the trace, the lint — is the same in all three states.
pub type StoredJob = WalRecord;

impl StoredJob {
    /// A job finished by a live worker. The Chrome trace is rendered
    /// here, once, so serving it later is a clone and persisting it now
    /// writes the exact bytes a restarted server will re-serve. The
    /// `SimResult` itself is not kept: the spec reproduces it bit for bit.
    pub fn fresh(id: u64, spec: JobSpec, outcome: JobOutcome, sim: Option<SimResult>) -> StoredJob {
        let trace = sim.filter(|_| spec.obs).map(|r| {
            let mut text = r.obs.to_chrome_trace();
            // The renderer reserves an estimate per event; keep the
            // length, not the spare capacity, so `approx_bytes` counts
            // what is held.
            text.shrink_to_fit();
            text
        });
        StoredJob {
            id,
            spec,
            outcome,
            trace,
        }
    }

    /// The Chrome `about:tracing` document. `None` when the job ran
    /// without `obs` or never simulated.
    pub fn chrome_trace(&self) -> Option<String> {
        self.trace.clone()
    }

    /// Lint the job's run on demand: re-run the stored spec as a `lint`
    /// job, which applies the linter configuration the spec implies, and
    /// return its report. A spec determines its run bit for bit, so the
    /// report does not depend on whether the job is resident, was
    /// evicted, or was recovered from the log. `None` for jobs that never
    /// simulated (the `bounds` and `certify` actions).
    pub fn lint(&self) -> Option<Result<Report, JobError>> {
        if !matches!(self.spec.action, JobAction::Simulate | JobAction::Lint) {
            return None;
        }
        self.spec
            .clone()
            .action(JobAction::Lint)
            .run()
            .map(|run| run.lint)
            .transpose()
    }

    /// The job's log record, owned. A stored job is its record, so this
    /// is a clone; it stays for callers that need an owned record.
    pub fn wal_record(&self) -> WalRecord {
        self.clone()
    }

    /// Approximate resident bytes, for cache byte caps. The rendered
    /// trace dominates; the constant covers the spec and outcome.
    pub fn approx_bytes(&self) -> usize {
        256 + self.trace.as_ref().map_or(0, String::len)
    }
}

/// A resident job and what evicting it releases.
struct Resident {
    job: Arc<StoredJob>,
    /// The job's stamp in the recency index; `None` for a pinned
    /// (unpersisted) job, which is never evicted.
    stamp: Option<u64>,
    /// Log frame bytes counted in `resident_bytes` (0 when pinned).
    bytes: usize,
}

/// Where a persisted job's record sits in the log: all an evicted job
/// costs. Its three words are at most 24 bytes.
#[derive(Copy, Clone)]
struct Persisted {
    id: u64,
    offset: u64,
    frame_bytes: usize,
}

const _: () = assert!(std::mem::size_of::<Persisted>() <= 24);

struct Jobs {
    /// Resident jobs by id; the caps bound it.
    resident: HashMap<u64, Resident>,
    /// Every persisted job, resident or evicted, ordered by id. Commits
    /// arrive in near-id order, so an insert lands at or near the end.
    persisted: Vec<Persisted>,
    /// Resident persisted jobs, least recently used first.
    recency: Recency,
    /// Distinct ids stored, resident or evicted.
    stored: usize,
    resident_bytes: usize,
    evicted: u64,
    evicted_bytes: u64,
    reloads: u64,
}

impl Jobs {
    /// Make `job` resident: evictable when `frame_bytes` (its log frame)
    /// is known, pinned otherwise. Replaces a resident job of the same id.
    fn admit(&mut self, job: Arc<StoredJob>, frame_bytes: Option<usize>) {
        let id = job.id;
        let bytes = frame_bytes.unwrap_or(0);
        let stamp = frame_bytes.map(|_| self.recency.push(id));
        if let Some(old) = self.resident.insert(id, Resident { job, stamp, bytes }) {
            self.resident_bytes -= old.bytes;
            if let Some(stamp) = old.stamp {
                self.recency.remove(stamp);
            }
        }
        self.resident_bytes += bytes;
    }

    fn insert_job(&mut self, job: Arc<StoredJob>, appended: Option<&Appended>) {
        let id = job.id;
        let at = self.persisted.binary_search_by_key(&id, |p| p.id);
        if at.is_err() && !self.resident.contains_key(&id) {
            self.stored += 1;
        }
        // An unpersisted job is pinned and never leaves residency, so an
        // older record of its id is never read again and may stay.
        if let Some(a) = appended {
            let entry = Persisted {
                id,
                offset: a.offset,
                frame_bytes: a.frame_bytes,
            };
            match at {
                Ok(i) => self.persisted[i] = entry,
                Err(i) => self.persisted.insert(i, entry),
            }
        }
        self.admit(job, appended.map(|a| a.frame_bytes));
    }

    /// Evict resident, *persisted* jobs least-recently-used first until
    /// under both caps (0 = unbounded). Unpersisted jobs are pinned —
    /// they exist nowhere else — and at least one resident job always
    /// survives, so a single oversized trace cannot thrash the store
    /// empty.
    fn evict_over(&mut self, max_resident: usize, max_bytes: usize) {
        while self.resident.len() > 1
            && ((max_resident > 0 && self.resident.len() > max_resident)
                || (max_bytes > 0 && self.resident_bytes > max_bytes))
        {
            let Some(id) = self.recency.pop_oldest() else {
                break; // Everything left is pinned.
            };
            let gone = self
                .resident
                .remove(&id)
                .expect("indexed jobs are resident");
            self.resident_bytes -= gone.bytes;
            self.evicted += 1;
            self.evicted_bytes += gone.bytes as u64;
        }
    }
}

/// One coherent read of the store's accounting.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StoreSnapshot {
    /// Jobs the store knows (resident or evicted-to-log).
    pub stored: usize,
    /// Jobs currently resident in memory.
    pub resident: usize,
    /// Approximate bytes of resident persisted jobs.
    pub resident_bytes: usize,
    /// Evictions over the store's lifetime.
    pub evicted: u64,
    /// Approximate bytes those evictions released.
    pub evicted_bytes: u64,
    /// Evicted jobs reloaded from the log on demand.
    pub reloads: u64,
}

/// The id-indexed store behind `GET /jobs/<id>`.
pub struct JobStore {
    jobs: Mutex<Jobs>,
    next_id: AtomicU64,
    max_resident: usize,
    max_resident_bytes: usize,
    log: OnceLock<Arc<JobLog>>,
}

/// Holds the store's lock after an insert so the commit path can update
/// the result cache while the store is still pinned — a reader holding
/// the store lock then never observes a job in one map but not the other.
pub struct StoreGuard<'a> {
    _guard: MutexGuard<'a, Jobs>,
}

/// The store's lock held for a multi-field read (`/stats`).
pub struct JobsGuard<'a> {
    guard: MutexGuard<'a, Jobs>,
}

impl JobsGuard<'_> {
    /// Number of stored jobs (resident or evicted), under the held lock.
    pub fn len(&self) -> usize {
        self.guard.stored
    }

    /// Whether the store is empty, under the held lock.
    pub fn is_empty(&self) -> bool {
        self.guard.stored == 0
    }

    /// One coherent accounting snapshot, under the held lock.
    pub fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot {
            stored: self.guard.stored,
            resident: self.guard.resident.len(),
            resident_bytes: self.guard.resident_bytes,
            evicted: self.guard.evicted,
            evicted_bytes: self.guard.evicted_bytes,
            reloads: self.guard.reloads,
        }
    }
}

impl JobStore {
    /// An empty, unbounded store with no log; ids start at 1.
    pub fn new() -> JobStore {
        JobStore::with_caps(0, 0)
    }

    /// An empty store keeping at most `max_resident` jobs /
    /// `max_resident_bytes` approximate bytes resident (0 = unbounded).
    /// The caps only bite once a log is attached — without one, nothing
    /// is evictable and every job stays pinned.
    pub fn with_caps(max_resident: usize, max_resident_bytes: usize) -> JobStore {
        let store = JobStore {
            jobs: Mutex::new(Jobs {
                resident: HashMap::new(),
                persisted: Vec::new(),
                recency: Recency::default(),
                stored: 0,
                resident_bytes: 0,
                evicted: 0,
                evicted_bytes: 0,
                reloads: 0,
            }),
            next_id: AtomicU64::new(1),
            max_resident,
            max_resident_bytes,
            log: OnceLock::new(),
        };
        explore::label(&store.jobs, STORE_LOCK_LABEL);
        store
    }

    /// Attach the job log evicted jobs reload from. Set once, at
    /// startup, before the pool runs.
    pub fn attach_log(&self, log: Arc<JobLog>) {
        assert!(self.log.set(log).is_ok(), "job log attached twice");
    }

    /// The attached log, if any.
    pub fn log(&self) -> Option<&Arc<JobLog>> {
        self.log.get()
    }

    /// Seed the store from recovered log records, at startup, before it
    /// holds any resident job: every job enters *evicted* (one
    /// `(offset, frame_bytes)` entry, zero resident bytes), a later
    /// record of an id replaces an earlier one, and `next_id` moves past
    /// the highest recovered id.
    pub fn recover(&self, records: &[ScannedRecord]) {
        let mut jobs = self.jobs.lock();
        explore::touch(STORE_LOCK_LABEL, true);
        assert!(
            jobs.resident.is_empty(),
            "recover seeds a store that holds no resident job"
        );
        jobs.persisted.extend(records.iter().map(|rec| Persisted {
            id: rec.record.id,
            offset: rec.offset,
            frame_bytes: rec.frame_bytes,
        }));
        // Stable, so of two records with one id the later stays later.
        jobs.persisted.sort_by_key(|p| p.id);
        jobs.persisted.dedup_by(|later, kept| {
            let same = later.id == kept.id;
            if same {
                *kept = *later;
            }
            same
        });
        jobs.stored = jobs.persisted.len();
        let max_id = jobs.persisted.last().map_or(0, |p| p.id);
        drop(jobs);
        self.next_id.fetch_max(max_id + 1, Ordering::Relaxed);
    }

    /// Re-emit the lock label at the store's current address (labels are
    /// address-keyed; see [`crate::cache::CountedCache::relabel`]).
    pub fn relabel(&self) {
        explore::label(&self.jobs, STORE_LOCK_LABEL);
    }

    /// Allocate the next job id.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Store a finished job under its id, unpersisted (pinned resident).
    pub fn insert(&self, job: Arc<StoredJob>) {
        let mut jobs = self.jobs.lock();
        explore::touch(STORE_LOCK_LABEL, true);
        jobs.insert_job(job, None);
        jobs.evict_over(self.max_resident, self.max_resident_bytes);
    }

    /// Store a finished job — with its log receipt when the commit was
    /// durably appended — and keep holding the store lock; the returned
    /// guard releases it. This is the first half of the commit path
    /// (store, then result cache, nested). Eviction runs in the same
    /// critical section, so a concurrent reader never sees the store
    /// over its caps.
    pub fn insert_locked(
        &self,
        job: Arc<StoredJob>,
        persisted: Option<&Appended>,
    ) -> StoreGuard<'_> {
        let mut jobs = self.jobs.lock();
        explore::touch(STORE_LOCK_LABEL, true);
        jobs.insert_job(job, persisted);
        jobs.evict_over(self.max_resident, self.max_resident_bytes);
        StoreGuard { _guard: jobs }
    }

    /// Store a finished job with its declared touchpoint *outside* the
    /// critical section — the seeded `drop-store-lock` mutation. Two
    /// shards committing concurrently through this path are a data race
    /// the happens-before recorder reports under every real timing.
    #[cfg(feature = "race-mutations")]
    pub fn insert_unsynced(&self, job: Arc<StoredJob>) {
        {
            let mut jobs = self.jobs.lock();
            jobs.insert_job(job, None);
        }
        explore::touch(STORE_LOCK_LABEL, true);
    }

    /// Lock the job map for a coherent multi-field read.
    pub fn lock_jobs(&self) -> JobsGuard<'_> {
        let guard = self.jobs.lock();
        explore::touch(STORE_LOCK_LABEL, false);
        JobsGuard { guard }
    }

    /// Fetch a job by id. An evicted job is reloaded from the log record
    /// at its offset — transparently, counted in
    /// [`StoreSnapshot::reloads`] — and becomes resident again (possibly
    /// evicting a colder persisted job in its place). The log read
    /// happens under the store lock; the log's own lock is `std`, so no
    /// shim-lock cycle is possible.
    pub fn get(&self, id: u64) -> Option<Arc<StoredJob>> {
        let mut guard = self.jobs.lock();
        explore::touch(STORE_LOCK_LABEL, false);
        let jobs = &mut *guard;
        if let Some(resident) = jobs.resident.get_mut(&id) {
            if let Some(stamp) = resident.stamp {
                resident.stamp = Some(jobs.recency.refresh(stamp));
            }
            return Some(resident.job.clone());
        }
        let i = jobs.persisted.binary_search_by_key(&id, |p| p.id).ok()?;
        let at = jobs.persisted[i];
        let record = self.log.get()?.read(at.offset).ok()?;
        if record.id != id {
            return None; // A log rewritten underneath us; refuse to lie.
        }
        explore::touch(STORE_LOCK_LABEL, true);
        let job = Arc::new(record);
        jobs.admit(job.clone(), Some(at.frame_bytes));
        jobs.reloads += 1;
        jobs.evict_over(self.max_resident, self.max_resident_bytes);
        Some(job)
    }

    /// Number of stored jobs (resident or evicted).
    pub fn len(&self) -> usize {
        self.lock_jobs().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for JobStore {
    fn default() -> JobStore {
        JobStore::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetchol_core::fault::IoFaultPlan;

    fn job(id: u64, seed: u64) -> Arc<StoredJob> {
        let mut spec = JobSpec::new("cholesky", 2).expect("cholesky is a known workload");
        spec.seed = seed;
        spec.obs = true;
        let run = spec
            .run_with_bounds(None)
            .expect("a stock cholesky(2) simulation cannot fail");
        Arc::new(StoredJob::fresh(id, spec, run.outcome, run.sim))
    }

    #[test]
    fn evicted_jobs_reload_from_the_log_bitwise_identical() {
        let log = Arc::new(JobLog::in_memory(&IoFaultPlan::none()));
        let store = JobStore::with_caps(1, 0);
        store.attach_log(log.clone());

        let first = job(1, 0);
        let first_trace = first.chrome_trace().expect("obs job has a trace");
        let a1 = log.append(&first.wal_record()).expect("append 1");
        drop(store.insert_locked(first, Some(&a1)));

        let second = job(2, 1);
        let a2 = log.append(&second.wal_record()).expect("append 2");
        drop(store.insert_locked(second, Some(&a2)));

        // Cap of one: the first job was evicted down to its offset...
        let snap = store.lock_jobs().snapshot();
        assert_eq!((snap.stored, snap.resident, snap.evicted), (2, 1, 1));

        // ...and a GET reloads it with the exact trace bytes, evicting
        // the now-colder second job in its place.
        let back = store.get(1).expect("evicted job reloads");
        assert_eq!(back.chrome_trace().as_deref(), Some(first_trace.as_str()));
        let snap = store.lock_jobs().snapshot();
        assert_eq!((snap.resident, snap.evicted, snap.reloads), (1, 2, 1));
    }

    #[test]
    fn unpersisted_jobs_are_pinned_resident() {
        let store = JobStore::with_caps(1, 0);
        for id in 1..=3 {
            store.insert(job(id, id));
        }
        let snap = store.lock_jobs().snapshot();
        assert_eq!((snap.stored, snap.resident, snap.evicted), (3, 3, 0));
        assert!(store.get(1).is_some() && store.get(3).is_some());
    }

    #[test]
    fn recovery_seeds_evicted_slots_and_advances_next_id() {
        let log = Arc::new(JobLog::in_memory(&IoFaultPlan::none()));
        let a = job(7, 3);
        let trace = a.chrome_trace().expect("obs trace");
        log.append(&a.wal_record()).expect("append");
        let (records, report) = crate::wal::scan(&log.read(0).expect("readable").frame());
        assert!(report.is_clean());

        let store = JobStore::new();
        store.attach_log(log);
        store.recover(&records);
        assert_eq!(store.next_id(), 8, "next id moves past recovered ids");
        let snap = store.lock_jobs().snapshot();
        assert_eq!((snap.stored, snap.resident), (1, 0));
        let back = store.get(7).expect("recovered job loads on demand");
        assert_eq!(back.chrome_trace().as_deref(), Some(trace.as_str()));
    }
}
