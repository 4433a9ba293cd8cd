//! Differential test of eviction in the job store and the results cache.
//!
//! The oracles below are copies of the full-scan LRU both used to run:
//! every over-cap insert or reload picked its victim by scanning every
//! slot for the smallest `last_used` stamp. For the store only resident,
//! persisted jobs are candidates (unpersisted jobs are pinned); for the
//! cache every entry is. Seeded op sequences drive the real store and
//! cache through their public APIs next to the oracle, and after every op
//! the whole snapshot and every lookup's answer must agree.

use hetchol::job::{JobOutcome, JobSpec};
use hetchol_core::fault::{IoFaultPlan, RunOutcome};
use hetchol_serve::cache::{CacheSnapshot, CountedCache};
use hetchol_serve::store::{JobStore, StoreSnapshot, StoredJob};
use hetchol_serve::wal::{Appended, JobLog, ScannedRecord, WalRecord};
use std::collections::HashMap;
use std::sync::Arc;

/// splitmix64: a seeded op stream with no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

// ---------------------------------------------------------------- store

/// The store's former slot: resident or evicted to its log offset.
struct Slot {
    resident: bool,
    offset: Option<u64>,
    bytes: usize,
    last_used: u64,
    /// The trace of the job's current version, which a lookup returns.
    trace: String,
}

/// The store's former full-scan LRU, less the job payloads.
struct StoreOracle {
    slots: HashMap<u64, Slot>,
    resident: usize,
    resident_bytes: usize,
    clock: u64,
    evicted: u64,
    evicted_bytes: u64,
    reloads: u64,
    max_resident: usize,
    max_bytes: usize,
}

impl StoreOracle {
    fn new(max_resident: usize, max_bytes: usize) -> StoreOracle {
        StoreOracle {
            slots: HashMap::new(),
            resident: 0,
            resident_bytes: 0,
            clock: 0,
            evicted: 0,
            evicted_bytes: 0,
            reloads: 0,
            max_resident,
            max_bytes,
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn insert(&mut self, id: u64, trace: String, persisted: Option<Appended>) {
        let stamp = self.tick();
        let bytes = persisted.map_or(0, |a| a.frame_bytes);
        let old = self.slots.insert(
            id,
            Slot {
                resident: true,
                offset: persisted.map(|a| a.offset),
                bytes,
                last_used: stamp,
                trace,
            },
        );
        if let Some(old) = old {
            if old.resident {
                self.resident -= 1;
                self.resident_bytes -= old.bytes;
            }
        }
        self.resident += 1;
        self.resident_bytes += bytes;
        self.evict_over();
    }

    fn evict_over(&mut self) {
        while self.resident > 1
            && ((self.max_resident > 0 && self.resident > self.max_resident)
                || (self.max_bytes > 0 && self.resident_bytes > self.max_bytes))
        {
            let victim = self
                .slots
                .iter()
                .filter(|(_, s)| s.resident && s.offset.is_some())
                .min_by_key(|(_, s)| s.last_used)
                .map(|(&id, _)| id);
            let Some(id) = victim else {
                break;
            };
            let slot = self.slots.get_mut(&id).expect("victim exists");
            slot.resident = false;
            self.resident -= 1;
            self.resident_bytes -= slot.bytes;
            self.evicted += 1;
            self.evicted_bytes += slot.bytes as u64;
        }
    }

    /// The trace a lookup answers with; every log read succeeds here.
    fn get(&mut self, id: u64) -> Option<String> {
        let stamp = self.tick();
        let slot = self.slots.get_mut(&id)?;
        slot.last_used = stamp;
        let trace = slot.trace.clone();
        if !slot.resident {
            slot.resident = true;
            self.resident += 1;
            self.resident_bytes += slot.bytes;
            self.reloads += 1;
            self.evict_over();
        }
        Some(trace)
    }

    fn recover(&mut self, records: &[(u64, String, Appended)]) -> u64 {
        for (id, trace, a) in records {
            self.slots.insert(
                *id,
                Slot {
                    resident: false,
                    offset: Some(a.offset),
                    bytes: a.frame_bytes,
                    last_used: 0,
                    trace: trace.clone(),
                },
            );
        }
        records.iter().map(|r| r.0).max().unwrap_or(0) + 1
    }

    fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot {
            stored: self.slots.len(),
            resident: self.resident,
            resident_bytes: self.resident_bytes,
            evicted: self.evicted,
            evicted_bytes: self.evicted_bytes,
            reloads: self.reloads,
        }
    }
}

/// The real store, its log and the oracle, driven in lockstep.
struct StoreCase {
    store: JobStore,
    log: Arc<JobLog>,
    oracle: StoreOracle,
    rng: Rng,
    /// Ids ever stored, for lookups and re-commits.
    known: Vec<u64>,
    /// Ids passed over by `next`, committed later and out of order.
    gaps: Vec<u64>,
    next: u64,
    version: u64,
    /// The caps and seed, for failure messages.
    label: String,
}

impl StoreCase {
    fn new(max_resident: usize, max_bytes: usize, seed: u64) -> StoreCase {
        let log = Arc::new(JobLog::in_memory(&IoFaultPlan::none()));
        let store = JobStore::with_caps(max_resident, max_bytes);
        store.attach_log(log.clone());
        StoreCase {
            store,
            log,
            oracle: StoreOracle::new(max_resident, max_bytes),
            rng: Rng(seed),
            known: Vec::new(),
            gaps: Vec::new(),
            next: 1,
            version: 0,
            label: format!("caps {max_resident}/{max_bytes} seed {seed}"),
        }
    }

    /// A job whose trace names its id and version and whose length (and
    /// so log frame) varies, so byte caps bite unevenly.
    fn record(&mut self, id: u64) -> WalRecord {
        self.version += 1;
        let pad = "x".repeat(self.rng.below(3000) as usize);
        let spec = JobSpec::new("cholesky", 4).expect("known workload");
        let outcome = JobOutcome {
            spec_hash: spec.content_hash(),
            workload: spec.workload,
            n: spec.n,
            scheduler: spec.scheduler.clone(),
            action: spec.action,
            outcome: RunOutcome::Completed,
            makespan: None,
            gflops: None,
            bounds: None,
            certified: None,
            lint: None,
        };
        WalRecord {
            id,
            spec,
            outcome,
            trace: Some(format!(
                "{{\"id\":{id},\"v\":{},\"pad\":\"{pad}\"}}",
                self.version
            )),
        }
    }

    fn fresh_id(&mut self) -> u64 {
        if !self.gaps.is_empty() && self.rng.below(4) == 0 {
            let at = self.rng.below(self.gaps.len() as u64) as usize;
            return self.gaps.swap_remove(at);
        }
        let id = self.next;
        let skip = self.rng.below(3);
        self.gaps.extend(id + 1..=id + skip);
        self.next = id + 1 + skip;
        id
    }

    /// Seed both sides from log records with sparse, out-of-order ids,
    /// one of them written twice, then move `next` past them.
    fn recover(&mut self, ids: &[u64]) {
        let mut scanned = Vec::new();
        let mut expected = Vec::new();
        for &id in ids {
            let record = self.record(id);
            let trace = record.trace.clone().expect("every record has a trace");
            let a = self.log.append(&record).expect("in-memory append");
            scanned.push(ScannedRecord {
                offset: a.offset,
                frame_bytes: a.frame_bytes,
                record,
            });
            expected.push((id, trace, a));
        }
        self.store.recover(&scanned);
        let next = self.oracle.recover(&expected);
        self.next = self.store.next_id();
        assert_eq!(self.next, next, "next id after recovery");
        for &id in ids {
            if !self.known.contains(&id) {
                self.known.push(id);
            }
        }
        self.check("recover");
    }

    fn commit(&mut self, id: u64, persist: bool) {
        let record = self.record(id);
        let trace = record.trace.clone().expect("every record has a trace");
        let job: Arc<StoredJob> = Arc::new(record.clone());
        if persist {
            let a = self.log.append(&record).expect("in-memory append");
            drop(self.store.insert_locked(job, Some(&a)));
            self.oracle.insert(id, trace, Some(a));
        } else {
            self.store.insert(job);
            self.oracle.insert(id, trace, None);
        }
        if !self.known.contains(&id) {
            self.known.push(id);
        }
    }

    fn lookup(&mut self, id: u64, what: &str) {
        let got = self.store.get(id).map(|job| {
            assert_eq!(job.id, id, "{what}: a lookup answered another job");
            job.chrome_trace().expect("every job has a trace")
        });
        assert_eq!(got, self.oracle.get(id), "{what}: lookup of {id}");
    }

    fn check(&self, what: &str) {
        assert_eq!(
            self.store.lock_jobs().snapshot(),
            self.oracle.snapshot(),
            "{what}: snapshots diverged"
        );
        assert_eq!(self.store.len(), self.oracle.slots.len(), "{what}: len");
    }

    fn step(&mut self, step: usize) {
        let op = self.rng.below(100);
        let what = format!("{} step {step} (op {op})", self.label);
        match op {
            0..=34 => {
                let id = self.fresh_id();
                self.commit(id, true);
            }
            35..=44 => {
                let id = self.fresh_id();
                self.commit(id, false);
            }
            45..=49 if !self.known.is_empty() => {
                let id = self.known[self.rng.below(self.known.len() as u64) as usize];
                let persist = self.rng.below(2) == 0;
                self.commit(id, persist);
            }
            50..=89 if !self.known.is_empty() => {
                let id = self.known[self.rng.below(self.known.len() as u64) as usize];
                self.lookup(id, &what);
            }
            _ => {
                let id = if self.rng.below(2) == 0 {
                    self.next + 1000
                } else {
                    self.rng.next() | (1 << 62)
                };
                self.lookup(id, &what);
            }
        }
        self.check(&what);
    }
}

const STORE_CAPS: [(usize, usize); 6] = [(1, 0), (2, 0), (8, 0), (0, 6_000), (8, 9_000), (3, 2)];

fn run_store(max_resident: usize, max_bytes: usize, seed: u64, recovered: &[u64]) {
    let mut case = StoreCase::new(max_resident, max_bytes, seed);
    if !recovered.is_empty() {
        case.recover(recovered);
        // Commit some ids below the recovered ones, landing mid-column.
        case.gaps.extend([4, 6, 1000, 1 << 30]);
    }
    for step in 0..300 {
        case.step(step);
    }
    assert!(case.oracle.evicted > 0, "{} never evicted", case.label);
}

#[test]
fn store_evicts_like_the_full_scan() {
    for (max_resident, max_bytes) in STORE_CAPS {
        for seed in 0..6 {
            run_store(max_resident, max_bytes, seed, &[]);
        }
    }
}

#[test]
fn store_recovers_sparse_out_of_order_ids_like_the_full_scan() {
    let huge = 1 << 40;
    for (max_resident, max_bytes) in STORE_CAPS {
        for seed in 10..14 {
            run_store(
                max_resident,
                max_bytes,
                seed,
                &[5, huge, 3, 17, 9, 17, 1 << 20, 2],
            );
        }
    }
    // A recovery on its own: everything enters evicted, and the highest
    // id moves `next` even when it comes first.
    let mut case = StoreCase::new(2, 0, 99);
    case.recover(&[huge, 1, 1 << 33, 7]);
    for id in [7, huge, 1, 1 << 33, huge, 8] {
        case.lookup(id, "recovered lookup");
        case.check("recovered lookup");
    }
}

// ---------------------------------------------------------------- cache

struct Entry {
    value: Vec<u8>,
    last_used: u64,
    weight: usize,
}

/// The cache's former full-scan LRU.
struct CacheOracle {
    map: HashMap<u64, Entry>,
    hits: u64,
    misses: u64,
    gets: u64,
    bytes: usize,
    clock: u64,
    evicted: u64,
    evicted_bytes: u64,
    max_entries: usize,
    max_bytes: usize,
}

impl CacheOracle {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn touch(&mut self, key: u64) -> Option<Vec<u8>> {
        let stamp = self.tick();
        let entry = self.map.get_mut(&key)?;
        entry.last_used = stamp;
        Some(entry.value.clone())
    }

    fn get(&mut self, key: u64) -> Option<Vec<u8>> {
        self.gets += 1;
        let found = self.touch(key);
        match &found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    fn insert(&mut self, key: u64, value: Vec<u8>) {
        let stamp = self.tick();
        let weight = value.len();
        if let Some(old) = self.map.insert(
            key,
            Entry {
                value,
                last_used: stamp,
                weight,
            },
        ) {
            self.bytes -= old.weight;
        }
        self.bytes += weight;
        while self.map.len() > 1
            && ((self.max_entries > 0 && self.map.len() > self.max_entries)
                || (self.max_bytes > 0 && self.bytes > self.max_bytes))
        {
            let Some(&lru) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            else {
                break;
            };
            if let Some(gone) = self.map.remove(&lru) {
                self.bytes -= gone.weight;
                self.evicted += 1;
                self.evicted_bytes += gone.weight as u64;
            }
        }
    }

    fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits,
            misses: self.misses,
            gets: self.gets,
            entries: self.map.len(),
            bytes: self.bytes,
            evicted: self.evicted,
            evicted_bytes: self.evicted_bytes,
        }
    }
}

fn run_cache(max_entries: usize, max_bytes: usize, seed: u64) {
    let cache =
        CountedCache::<Vec<u8>>::with_caps("test.eviction", max_entries, max_bytes, |v| v.len());
    let mut oracle = CacheOracle {
        map: HashMap::new(),
        hits: 0,
        misses: 0,
        gets: 0,
        bytes: 0,
        clock: 0,
        evicted: 0,
        evicted_bytes: 0,
        max_entries,
        max_bytes,
    };
    let mut rng = Rng(seed);
    for step in 0..600 {
        let key = rng.below(16);
        let op = rng.below(100);
        let what = format!("caps {max_entries}/{max_bytes} seed {seed} step {step} (op {op})");
        match op {
            0..=34 => {
                let got = cache.get(key).map(|v| (*v).clone());
                assert_eq!(got, oracle.get(key), "{what}: get {key}");
            }
            35..=49 => {
                let got = cache.peek(key).map(|v| (*v).clone());
                assert_eq!(got, oracle.touch(key), "{what}: peek {key}");
            }
            _ => {
                let value = vec![key as u8; rng.below(64) as usize];
                if op < 90 {
                    cache.insert(key, Arc::new(value.clone()));
                } else {
                    cache.begin_commit().insert(key, Arc::new(value.clone()));
                }
                oracle.insert(key, value);
            }
        }
        assert_eq!(
            cache.snapshot(),
            oracle.snapshot(),
            "{what}: snapshots diverged"
        );
    }
    assert!(
        oracle.evicted > 0,
        "caps {max_entries}/{max_bytes} never evicted"
    );
}

#[test]
fn results_cache_evicts_like_the_full_scan() {
    for (max_entries, max_bytes) in [(1, 0), (2, 0), (8, 0), (0, 100), (8, 150)] {
        for seed in 0..8 {
            run_cache(max_entries, max_bytes, seed);
        }
    }
}
