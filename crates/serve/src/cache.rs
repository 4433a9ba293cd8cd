//! Content-hash caches with observable hit/miss accounting and bounded
//! memory.
//!
//! Every cache in the serving layer is keyed by a 64-bit FNV content hash
//! ([`hetchol_core::hash::ContentHasher`]) and stores `Arc`'d values so a
//! hit never copies a trace or a bound set. The hit/miss counters feed
//! `GET /stats` — the acceptance test for the whole layer asserts cache
//! hits are *observable*, not inferred from latency.
//!
//! The map **and** the counters live under one instrumented mutex: a
//! counting lookup bumps `gets` and `hits`-or-`misses` in the same
//! critical section, so `hits + misses == gets` holds in every snapshot
//! ([`CountedCache::snapshot`]) — the `/stats` torn-read bug class is
//! structurally gone, and every access is visible to the happens-before
//! recorder and the model checker through the `parking_lot` compat shim.
//!
//! Caches built with [`CountedCache::with_caps`] are bounded: an entry
//! cap and an approximate byte cap (through a caller-supplied weigher)
//! evict least-recently-used entries on insert, with evictions counted
//! in the same snapshot. Values are pure functions of their keys, so an
//! eviction only ever costs recomputation, never correctness.
//!
//! Recency is kept by `Recency`, a stamp-ordered index the job store
//! evicts through as well: every lookup hit, peek and insert re-stamps
//! its key, and an eviction pops the oldest stamp — O(log entries), never
//! a scan of the map.

use parking_lot::{explore, Mutex, MutexGuard};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

fn zero_weight<V>(_: &V) -> usize {
    0
}

/// Least-recently-used order over the evictable keys of one map. Each
/// key holds a stamp from a clock that only increments, so stamps are
/// unique and the first entry of the stamp-ordered map is the least
/// recently used key. Every operation is O(log keys).
#[derive(Default)]
pub(crate) struct Recency {
    clock: u64,
    order: BTreeMap<u64, u64>,
}

impl Recency {
    /// Index `key` as the most recently used; returns its stamp.
    pub(crate) fn push(&mut self, key: u64) -> u64 {
        self.clock += 1;
        self.order.insert(self.clock, key);
        self.clock
    }

    /// Re-stamp the key indexed at `stamp` as the most recently used;
    /// returns its new stamp.
    pub(crate) fn refresh(&mut self, stamp: u64) -> u64 {
        let key = self
            .order
            .remove(&stamp)
            .expect("a refreshed stamp is indexed");
        self.push(key)
    }

    /// Drop the key indexed at `stamp`.
    pub(crate) fn remove(&mut self, stamp: u64) {
        self.order.remove(&stamp);
    }

    /// Remove and return the least recently used key.
    pub(crate) fn pop_oldest(&mut self) -> Option<u64> {
        self.order.pop_first().map(|(_, key)| key)
    }
}

struct Entry<V> {
    value: Arc<V>,
    stamp: u64,
    weight: usize,
}

struct Inner<V> {
    map: HashMap<u64, Entry<V>>,
    recency: Recency,
    hits: u64,
    misses: u64,
    gets: u64,
    bytes: usize,
    evicted: u64,
    evicted_bytes: u64,
}

impl<V> Inner<V> {
    fn touch_entry(&mut self, key: u64) -> Option<Arc<V>> {
        let entry = self.map.get_mut(&key)?;
        entry.stamp = self.recency.refresh(entry.stamp);
        Some(entry.value.clone())
    }

    fn insert_weighed(&mut self, key: u64, value: Arc<V>, weight: usize) {
        let stamp = self.recency.push(key);
        if let Some(old) = self.map.insert(
            key,
            Entry {
                value,
                stamp,
                weight,
            },
        ) {
            self.recency.remove(old.stamp);
            self.bytes -= old.weight;
        }
        self.bytes += weight;
    }

    /// Evict least-recently-used entries until under both caps
    /// (0 = unbounded). At least one entry always survives, so a single
    /// oversized value cannot wedge the cache into thrashing emptiness.
    fn evict_over(&mut self, max_entries: usize, max_bytes: usize) {
        while self.map.len() > 1
            && ((max_entries > 0 && self.map.len() > max_entries)
                || (max_bytes > 0 && self.bytes > max_bytes))
        {
            let Some(lru) = self.recency.pop_oldest() else {
                break;
            };
            let gone = self.map.remove(&lru).expect("every indexed key is cached");
            self.bytes -= gone.weight;
            self.evicted += 1;
            self.evicted_bytes += gone.weight as u64;
        }
    }
}

/// A hash-keyed map with hit/miss accounting under a single lock,
/// optionally bounded by entry count and approximate bytes (LRU).
pub struct CountedCache<V> {
    name: &'static str,
    max_entries: usize,
    max_bytes: usize,
    weigher: fn(&V) -> usize,
    inner: Mutex<Inner<V>>,
}

/// One coherent read of a cache's accounting, taken under one guard.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Counting lookups that found an entry.
    pub hits: u64,
    /// Counting lookups that found nothing.
    pub misses: u64,
    /// Counting lookups total; always `hits + misses`.
    pub gets: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Approximate bytes currently cached (0 on unweighed caches).
    pub bytes: usize,
    /// Entries evicted over the cache's lifetime.
    pub evicted: u64,
    /// Approximate bytes those evictions released.
    pub evicted_bytes: u64,
}

/// Holds a cache's lock across an insert, so a caller can pin the cache
/// while touching other state (the seeded lock-order-inversion mutation
/// uses this; stock code never holds it across another acquisition).
pub struct CommitGuard<'a, V> {
    name: &'static str,
    max_entries: usize,
    max_bytes: usize,
    weigher: fn(&V) -> usize,
    guard: MutexGuard<'a, Inner<V>>,
}

impl<V> CommitGuard<'_, V> {
    /// Insert under the already-held lock.
    pub fn insert(&mut self, key: u64, value: Arc<V>) {
        explore::touch(self.name, true);
        let weight = (self.weigher)(&value);
        self.guard.insert_weighed(key, value, weight);
        self.guard.evict_over(self.max_entries, self.max_bytes);
    }
}

impl<V> CountedCache<V> {
    /// An empty, anonymously named, unbounded cache.
    pub fn new() -> CountedCache<V> {
        CountedCache::named("cache")
    }

    /// An empty unbounded cache whose lock is labelled `name` in
    /// analysis reports.
    pub fn named(name: &'static str) -> CountedCache<V> {
        CountedCache::with_caps(name, 0, 0, zero_weight)
    }

    /// An empty cache bounded to `max_entries` entries and `max_bytes`
    /// approximate bytes (0 = unbounded for either), with `weigher`
    /// assessing each value's bytes at insert time.
    pub fn with_caps(
        name: &'static str,
        max_entries: usize,
        max_bytes: usize,
        weigher: fn(&V) -> usize,
    ) -> CountedCache<V> {
        let cache = CountedCache {
            name,
            max_entries,
            max_bytes,
            weigher,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                recency: Recency::default(),
                hits: 0,
                misses: 0,
                gets: 0,
                bytes: 0,
                evicted: 0,
                evicted_bytes: 0,
            }),
        };
        explore::label(&cache.inner, name);
        cache
    }

    /// Re-emit the lock label at the cache's current address. Labels are
    /// keyed by address in the analyzers, so a cache that was *moved*
    /// after construction (into a struct, into an `Arc`) must relabel
    /// once it has settled for reports to name it.
    pub fn relabel(&self) {
        explore::label(&self.inner, self.name);
    }

    /// Counting lookup: bumps `gets` plus the hit or miss counter, all in
    /// one critical section. Use on request paths, where the counter
    /// answers "did caching help this client?". Hits refresh recency.
    pub fn get(&self, key: u64) -> Option<Arc<V>> {
        let mut inner = self.inner.lock();
        explore::touch(self.name, true);
        inner.gets += 1;
        let found = inner.touch_entry(key);
        match &found {
            Some(_) => inner.hits += 1,
            None => inner.misses += 1,
        }
        found
    }

    /// Non-counting lookup. Use for internal dedup (a shard re-checking
    /// the result cache before recomputing), which should not skew the
    /// client-facing counters. Still refreshes recency — a peeked entry
    /// is a used entry.
    pub fn peek(&self, key: u64) -> Option<Arc<V>> {
        let mut inner = self.inner.lock();
        explore::touch(self.name, true);
        inner.touch_entry(key)
    }

    /// Insert (last writer wins; values are pure functions of the key, so
    /// racing writers insert identical results), evicting LRU entries
    /// past the caps.
    pub fn insert(&self, key: u64, value: Arc<V>) {
        let mut inner = self.inner.lock();
        explore::touch(self.name, true);
        let weight = (self.weigher)(&value);
        inner.insert_weighed(key, value, weight);
        inner.evict_over(self.max_entries, self.max_bytes);
    }

    /// Lock the cache and return a guard for inserting while held.
    pub fn begin_commit(&self) -> CommitGuard<'_, V> {
        CommitGuard {
            name: self.name,
            max_entries: self.max_entries,
            max_bytes: self.max_bytes,
            weigher: self.weigher,
            guard: self.inner.lock(),
        }
    }

    /// One coherent snapshot of the accounting, under a single guard.
    pub fn snapshot(&self) -> CacheSnapshot {
        let inner = self.inner.lock();
        explore::touch(self.name, false);
        CacheSnapshot {
            hits: inner.hits,
            misses: inner.misses,
            gets: inner.gets,
            entries: inner.map.len(),
            bytes: inner.bytes,
            evicted: inner.evicted,
            evicted_bytes: inner.evicted_bytes,
        }
    }

    /// Counting-lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.snapshot().hits
    }

    /// Counting-lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.snapshot().misses
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.snapshot().entries
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<V> Default for CountedCache<V> {
    fn default() -> CountedCache<V> {
        CountedCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_counts_and_peek_does_not() {
        let cache = CountedCache::<u32>::new();
        assert!(cache.get(7).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        cache.insert(7, Arc::new(42));
        assert_eq!(*cache.get(7).unwrap(), 42);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(*cache.peek(7).unwrap(), 42);
        assert!(cache.peek(8).is_none());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn snapshot_is_coherent() {
        let cache = CountedCache::<u32>::named("test.cache");
        cache.get(1);
        cache.insert(1, Arc::new(1));
        cache.get(1);
        let snap = cache.snapshot();
        assert_eq!(snap.hits + snap.misses, snap.gets);
        assert_eq!(
            snap,
            CacheSnapshot {
                hits: 1,
                misses: 1,
                gets: 2,
                entries: 1,
                bytes: 0,
                evicted: 0,
                evicted_bytes: 0,
            }
        );
    }

    #[test]
    fn entry_cap_evicts_least_recently_used() {
        let cache = CountedCache::<u32>::with_caps("test.lru", 2, 0, zero_weight);
        cache.insert(1, Arc::new(10));
        cache.insert(2, Arc::new(20));
        cache.get(1); // 2 is now the LRU entry.
        cache.insert(3, Arc::new(30));
        assert!(cache.peek(2).is_none(), "LRU entry evicted");
        assert!(cache.peek(1).is_some() && cache.peek(3).is_some());
        let snap = cache.snapshot();
        assert_eq!((snap.entries, snap.evicted), (2, 1));
    }

    #[test]
    fn byte_cap_evicts_by_weight_but_keeps_one_entry() {
        let cache = CountedCache::<Vec<u8>>::with_caps("test.bytes", 0, 10, |v| v.len());
        cache.insert(1, Arc::new(vec![0; 6]));
        cache.insert(2, Arc::new(vec![0; 6])); // 12 bytes > 10: evict key 1.
        let snap = cache.snapshot();
        assert_eq!((snap.entries, snap.bytes), (1, 6));
        assert_eq!((snap.evicted, snap.evicted_bytes), (1, 6));
        // One oversized value survives alone instead of thrashing.
        cache.insert(3, Arc::new(vec![0; 64]));
        assert_eq!(cache.snapshot().entries, 1);
        assert!(cache.peek(3).is_some());
    }
}
