//! A sharded, content-addressed LRU result cache with generation tags.
//!
//! Keys are canonical strings derived from model content hashes plus the
//! full request spec (see [`crate::router`]), so two requests share an
//! entry only when every input that could influence the response is
//! identical. The one input a key does not encode is the corpus, so
//! every entry is tagged with the corpus generation (the state id) it was
//! computed under, and a lookup hits only an entry of the generation it
//! asks for. A delta apply advances the cache to the new generation; a
//! slow request that inserts a pre-apply value afterwards leaves an entry
//! no later lookup can hit. Shards bound lock contention under the worker
//! pool; eviction is least-recently-used per shard via monotonic access
//! stamps.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of independent shards (a power of two).
const SHARDS: usize = 8;

struct Entry<V> {
    value: V,
    generation: u64,
    last_used: u64,
}

struct Shard<V> {
    entries: HashMap<String, Entry<V>>,
    clock: u64,
}

impl<V> Shard<V> {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

/// The cache. `V` is cheap to clone (the service stores `Arc`s).
pub struct Cache<V> {
    shards: Vec<Mutex<Shard<V>>>,
    capacity_per_shard: usize,
    generation: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V: Clone> Cache<V> {
    /// A cache holding at most `capacity` entries across all shards, at
    /// generation 0.
    #[must_use]
    pub fn new(capacity: usize) -> Cache<V> {
        let capacity_per_shard = capacity.div_ceil(SHARDS).max(1);
        Cache {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: HashMap::new(),
                        clock: 0,
                    })
                })
                .collect(),
            capacity_per_shard,
            generation: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<Shard<V>> {
        // DefaultHasher::new() is deterministic (no per-process random
        // state), so shard placement — and thus eviction order — is
        // reproducible across runs.
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % SHARDS]
    }

    /// Looks up `key` at the cache's current generation.
    pub fn get(&self, key: &str) -> Option<V> {
        self.get_at(key, self.generation.load(Ordering::Acquire))
    }

    /// Looks up `key` as computed under `generation`, refreshing its
    /// recency on a hit. An entry of any other generation is a miss.
    pub fn get_at(&self, key: &str, generation: u64) -> Option<V> {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        let stamp = shard.tick();
        let value = match shard.entries.get_mut(key) {
            Some(entry) if entry.generation == generation => {
                entry.last_used = stamp;
                Some(entry.value.clone())
            }
            _ => None,
        };
        drop(shard);
        let counter = if value.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        value
    }

    /// Inserts `key → value`, computed under `generation`, evicting the
    /// shard's least recently used entry when over capacity.
    pub fn insert(&self, key: String, generation: u64, value: V) {
        let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
        let last_used = shard.tick();
        shard.entries.insert(
            key,
            Entry {
                value,
                generation,
                last_used,
            },
        );
        if shard.entries.len() > self.capacity_per_shard {
            if let Some(oldest) = shard
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(k, _)| k.clone())
            {
                shard.entries.remove(&oldest);
            }
        }
    }

    /// Moves the cache to `generation` and drops every entry; the hit/miss
    /// counters survive. Called when the corpus itself changes (a delta
    /// apply), so earlier bodies and priors free their memory at once.
    /// Entries inserted later under an older generation are never hit.
    pub fn advance(&self, generation: u64) {
        self.generation.store(generation, Ordering::Release);
        for shard in &self.shards {
            shard.lock().expect("cache shard poisoned").entries.clear();
        }
    }

    /// `(hits, misses)` counters since construction.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Total entries currently cached.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").entries.len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<V: Clone> std::fmt::Debug for Cache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (hits, misses) = self.stats();
        f.debug_struct("Cache")
            .field("len", &self.len())
            .field("generation", &self.generation.load(Ordering::Relaxed))
            .field("hits", &hits)
            .field("misses", &misses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn get_after_insert_hits() {
        let cache: Cache<Arc<String>> = Cache::new(16);
        assert!(cache.get("k").is_none());
        cache.insert("k".into(), 0, Arc::new("v".into()));
        assert_eq!(cache.get("k").unwrap().as_str(), "v");
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn eviction_drops_the_least_recently_used() {
        let cache: Cache<u32> = Cache::new(1); // one entry per shard
                                               // Find three keys landing in the same shard so eviction triggers.
        let mut same_shard = Vec::new();
        let probe = |cache: &Cache<u32>, key: &str| {
            std::ptr::eq(
                cache.shard(key) as *const _,
                cache.shard("seed-0") as *const _,
            )
        };
        for i in 0.. {
            let key = format!("seed-{i}");
            if probe(&cache, &key) {
                same_shard.push(key);
                if same_shard.len() == 3 {
                    break;
                }
            }
        }
        cache.insert(same_shard[0].clone(), 0, 0);
        cache.insert(same_shard[1].clone(), 0, 1);
        // [0] was evicted (LRU); touching [1] keeps it over a new insert.
        assert!(cache.get(&same_shard[0]).is_none());
        assert_eq!(cache.get(&same_shard[1]), Some(1));
        cache.insert(same_shard[2].clone(), 0, 2);
        assert_eq!(cache.get(&same_shard[2]), Some(2));
        assert!(cache.get(&same_shard[1]).is_none());
    }

    #[test]
    fn advance_empties_every_shard_but_keeps_counters() {
        let cache: Cache<u32> = Cache::new(64);
        for i in 0..20 {
            cache.insert(format!("k{i}"), 0, i);
        }
        assert_eq!(cache.get("k3"), Some(3));
        cache.advance(1);
        assert!(cache.is_empty());
        assert!(cache.get("k3").is_none());
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn a_generation_mismatch_is_a_miss() {
        let cache: Cache<u32> = Cache::new(64);
        cache.insert("k".into(), 0, 7);
        assert_eq!(cache.get_at("k", 0), Some(7));
        assert_eq!(cache.get_at("k", 1), None);
        // A value computed under generation 0 but inserted after the
        // cache advanced is never served at the current generation.
        cache.advance(1);
        cache.insert("k".into(), 0, 7);
        assert_eq!(cache.get("k"), None);
        assert_eq!(cache.get_at("k", 1), None);
        cache.insert("k".into(), 1, 8);
        assert_eq!(cache.get("k"), Some(8));
        assert_eq!(cache.stats(), (2, 3));
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache: Arc<Cache<usize>> = Arc::new(Cache::new(64));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..100 {
                        let key = format!("k{}", (t * 100 + i) % 32);
                        cache.insert(key.clone(), 0, i);
                        let _ = cache.get(&key);
                    }
                });
            }
        });
        let (hits, misses) = cache.stats();
        assert_eq!(hits + misses, 400);
    }
}
