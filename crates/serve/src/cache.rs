//! A sharded, capacity-bounded LRU cache of rendered propagation
//! responses, keyed on the canonical request.
//!
//! Every engine is deterministic by `seed`, so a response body is a
//! pure function of the canonical request bytes
//! (`sysunc::CanonicalRequest`): serving a cached body is bit-identical
//! to recomputing it. Entries are keyed on the **full canonical
//! bytes** — the FNV-1a/64 content hash only places a key in a shard,
//! so a hash collision costs a shard neighbour, never a wrong answer.
//!
//! Sharding bounds contention: each shard is an independent
//! `Mutex<HashMap>` with its own LRU clock, and a lookup touches
//! exactly one shard. Eviction is exact LRU per shard — on insert at
//! capacity, the entry with the oldest access tick is dropped.
//!
//! The cache is metrics-agnostic: `get`/`insert` report hit/miss and
//! eviction outcomes through their return values and the caller feeds
//! the server-wide counters, keeping this module unit-testable in
//! isolation.
//!
//! Entries never expire: the model registry is fixed for the life of a
//! server, so a cached body cannot go stale inside one process.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// One cached response body. `Arc` so a hit is a pointer clone, not a
/// body copy, even while another thread evicts the entry.
type Body = Arc<String>;

struct Entry {
    body: Body,
    /// Shard-clock value of the most recent access.
    last_used: u64,
}

struct Shard {
    entries: HashMap<String, Entry>,
    /// Monotonic per-shard access clock backing exact LRU order.
    clock: u64,
}

impl Shard {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

/// Runs `f` on a locked shard, recovering from a poisoned lock: cache
/// state is always internally consistent between mutations, so a
/// panicking sibling thread must not disable caching for everyone else.
fn with<R>(m: &Mutex<Shard>, f: impl FnOnce(&mut Shard) -> R) -> R {
    f(&mut m.lock().unwrap_or_else(PoisonError::into_inner))
}

/// A sharded LRU response cache keyed on canonical request bytes.
pub struct ResponseCache {
    shards: Vec<Mutex<Shard>>,
    /// Entries each shard holds before evicting; 0 disables the cache.
    shard_capacity: usize,
}

impl std::fmt::Debug for ResponseCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResponseCache")
            .field("shards", &self.shards.len())
            .field("shard_capacity", &self.shard_capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl ResponseCache {
    /// A cache holding at most `capacity` entries split over `shards`
    /// shards (rounded up to the next power of two, clamped to at
    /// least 1, and to `capacity` so no shard has zero slots). A
    /// `capacity` of 0 disables caching entirely: every lookup misses
    /// and inserts are dropped.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, capacity.max(1)).next_power_of_two();
        let shard_capacity = capacity.div_ceil(shards);
        let shards = (0..shards)
            .map(|_| Mutex::new(Shard { entries: HashMap::new(), clock: 0 }))
            .collect();
        Self { shards, shard_capacity }
    }

    /// Total entries the cache can hold.
    pub fn capacity(&self) -> usize {
        self.shard_capacity * self.shards.len()
    }

    /// Entries currently cached, across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| with(s, |shard| shard.entries.len())).sum()
    }

    /// Whether the cache currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard(&self, hash: u64) -> Option<&Mutex<Shard>> {
        // A fleet places requests by `hash % shards`, so within one
        // child the low hash bits are constant: masking them alone
        // would leave most lock shards empty. Folding the high half in
        // spreads such hashes again. The shard count is a power of two,
        // so the masked index is always in bounds (and `get` still
        // never panics if it isn't).
        let folded = hash ^ (hash >> 32);
        self.shards.get((folded as usize) & (self.shards.len().wrapping_sub(1)))
    }

    /// Looks up the response cached for `key` (its content hash picks
    /// the shard), refreshing its LRU position on a hit.
    pub fn get(&self, hash: u64, key: &str) -> Option<Body> {
        if self.shard_capacity == 0 {
            return None;
        }
        with(self.shard(hash)?, |shard| {
            let tick = shard.tick();
            let entry = shard.entries.get_mut(key)?;
            entry.last_used = tick;
            Some(Arc::clone(&entry.body))
        })
    }

    /// Caches `body` under `key`, evicting the least recently used
    /// entry of the target shard when it is at capacity. Returns the
    /// number of entries evicted (0 or 1; 0 also covers replacing an
    /// existing key and the disabled cache).
    pub fn insert(&self, hash: u64, key: String, body: Body) -> u64 {
        if self.shard_capacity == 0 {
            return 0;
        }
        let Some(shard) = self.shard(hash) else {
            return 0;
        };
        with(shard, |shard| {
            let tick = shard.tick();
            let mut evicted = 0;
            if !shard.entries.contains_key(&key) && shard.entries.len() >= self.shard_capacity {
                let oldest = shard
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone());
                if let Some(oldest) = oldest {
                    shard.entries.remove(&oldest);
                    evicted = 1;
                }
            }
            shard.entries.insert(key, Entry { body, last_used: tick });
            evicted
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(s: &str) -> Body {
        Arc::new(s.to_string())
    }

    #[test]
    fn get_returns_exactly_what_was_inserted() {
        let cache = ResponseCache::new(8, 2);
        assert!(cache.get(1, "k1").is_none());
        cache.insert(1, "k1".into(), body("report-1"));
        assert_eq!(cache.get(1, "k1").as_deref().map(String::as_str), Some("report-1"));
        // A different key under the same hash is still a miss: the
        // hash only places, the bytes decide.
        assert!(cache.get(1, "k2").is_none());
    }

    #[test]
    fn lru_eviction_drops_the_least_recently_used_entry() {
        // One shard, two slots, so eviction order is deterministic.
        let cache = ResponseCache::new(2, 1);
        assert_eq!(cache.capacity(), 2);
        assert_eq!(cache.insert(0, "a".into(), body("A")), 0);
        assert_eq!(cache.insert(0, "b".into(), body("B")), 0);
        // Touch `a` so `b` becomes the LRU entry.
        assert!(cache.get(0, "a").is_some());
        assert_eq!(cache.insert(0, "c".into(), body("C")), 1);
        assert!(cache.get(0, "b").is_none(), "LRU entry evicted");
        assert!(cache.get(0, "a").is_some(), "recently used entry kept");
        assert!(cache.get(0, "c").is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn replacing_an_existing_key_does_not_evict() {
        let cache = ResponseCache::new(2, 1);
        cache.insert(0, "a".into(), body("A"));
        cache.insert(0, "b".into(), body("B"));
        assert_eq!(cache.insert(0, "a".into(), body("A2")), 0, "replacement, not eviction");
        assert_eq!(cache.get(0, "a").as_deref().map(String::as_str), Some("A2"));
        assert!(cache.get(0, "b").is_some());
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let cache = ResponseCache::new(0, 4);
        assert_eq!(cache.insert(7, "k".into(), body("x")), 0);
        assert!(cache.get(7, "k").is_none());
        assert!(cache.is_empty());
        assert_eq!(cache.capacity(), 0);
    }

    #[test]
    fn shard_count_is_clamped_and_capacity_never_shrinks() {
        // More shards than capacity must not produce zero-slot shards.
        let cache = ResponseCache::new(3, 16);
        assert!(cache.capacity() >= 3);
        for i in 0..3u64 {
            cache.insert(i, format!("k{i}"), body("x"));
        }
        assert_eq!(cache.len(), 3);
    }

    /// A child of a 2-shard fleet only sees hashes of one parity. Its
    /// cache must still spread them over every lock shard.
    #[test]
    fn hashes_of_one_parity_fill_every_shard() {
        let cache = ResponseCache::new(1024, 8);
        let keys = (0u64..)
            .map(|i| format!("key-{i}"))
            .filter(|k| sysunc::fnv1a64(k.as_bytes()) % 2 == 0)
            .take(512);
        let evicted: u64 = keys
            .map(|k| cache.insert(sysunc::fnv1a64(k.as_bytes()), k, body("x")))
            .sum();
        assert_eq!(evicted, 0, "512 keys fit a 1,024-entry cache");
        let occupied =
            cache.shards.iter().filter(|s| with(s, |shard| !shard.entries.is_empty())).count();
        assert_eq!(occupied, 8);
        assert_eq!(cache.len(), 512);
    }

    #[test]
    fn concurrent_readers_and_writers_keep_bodies_intact() {
        let cache = Arc::new(ResponseCache::new(64, 8));
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let hash = t * 1000 + (i % 10);
                        let key = format!("key-{hash}");
                        let expected = format!("body-{hash}");
                        cache.insert(hash, key.clone(), Arc::new(expected.clone()));
                        if let Some(got) = cache.get(hash, &key) {
                            assert_eq!(*got, expected, "hit must be bit-identical");
                        }
                    }
                });
            }
        });
    }
}
