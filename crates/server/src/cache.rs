//! A small `RwLock`-guarded LRU cache.
//!
//! The service caches two kinds of derived state: per-reference
//! fingerprint feature data (computed once, read on every `/similar` and
//! `/predict`) and whole response bodies for the pure `POST` endpoints
//! (keyed by corpus generation, a digest and the request bytes, so a
//! recurring request is served from memory until an ingest publishes a
//! newer corpus). The cache stores whatever it is given; which answers
//! are worth storing is the caller's policy: `service::ShardState`
//! stores a response only once its request recurs. A lookup takes any
//! borrowed form of the key, so a response lookup borrows the request's
//! bytes in place, and neither a lookup nor an eviction copies a key: a
//! stored response's key holds a copy of its whole request body.
//!
//! Everything cached is a deterministic function of its key, which is
//! what makes a hit *bit-identical* to a recompute — the cache can only
//! ever change latency, never bytes. [`LruCache::retain`] lets the owner
//! drop entries whose keys can no longer be asked for, such as answers
//! of a superseded generation.
//!
//! Reads take the shared lock: lookups update recency through a per-entry
//! atomic timestamp (a seqlock-style trick — the recency clock is advanced
//! without the exclusive lock), so concurrent workers never serialize on
//! hits. Only insertions (and the evictions they trigger) take the
//! exclusive lock.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

struct Entry<V> {
    value: Arc<V>,
    last_used: AtomicU64,
}

struct Inner<K, V> {
    capacity: usize,
    map: HashMap<K, Entry<V>>,
}

/// Shared LRU cache; cheap to clone handles via `Arc` at the call sites.
pub struct LruCache<K, V> {
    /// Poisoning is recovered with [`PoisonError::into_inner`]: a panic
    /// under the lock, such as in a [`LruCache::retain`] caller's closure,
    /// still leaves a valid map, and every value is a pure function of its
    /// key, so whatever entries survive are still correct.
    inner: RwLock<Inner<K, V>>,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Eq + Hash, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: RwLock::new(Inner {
                capacity: capacity.max(1),
                map: HashMap::new(),
            }),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Looks `key` up, refreshing its recency. Counts a hit or miss.
    /// `key` may be any borrowed form of `K`, so a lookup need not build
    /// the key it would store.
    pub fn get<Q>(&self, key: &Q) -> Option<Arc<V>>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        match inner.map.get(key) {
            Some(entry) => {
                entry.last_used.fetch_max(tick, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.value))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts `key → value`, evicting the least-recently-used entry when
    /// at capacity.
    pub fn insert(&self, key: K, value: Arc<V>) {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        if !inner.map.contains_key(&key) && inner.map.len() >= inner.capacity {
            // O(capacity) scans; capacities here are tens of entries. Every
            // clock tick goes to one operation on one entry, so the oldest
            // tick names exactly the victim, and removing it by tick copies
            // no key (a stored response's key holds a whole request body).
            let oldest = inner
                .map
                .values()
                .map(|e| e.last_used.load(Ordering::Relaxed))
                .min();
            if let Some(oldest) = oldest {
                inner
                    .map
                    .retain(|_, e| e.last_used.load(Ordering::Relaxed) != oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.map.insert(
            key,
            Entry {
                value,
                last_used: AtomicU64::new(tick),
            },
        );
    }

    /// Computes-and-caches: returns the cached value or runs `f`, stores
    /// its result, and returns it.
    pub fn get_or_insert_with(&self, key: &K, f: impl FnOnce() -> V) -> Arc<V>
    where
        K: Clone,
    {
        if let Some(v) = self.get(key) {
            return v;
        }
        let value = Arc::new(f());
        self.insert(key.clone(), Arc::clone(&value));
        value
    }

    /// Drops every entry for which `keep` returns false. Dropped entries
    /// count as neither hits, misses nor evictions, and survivors keep
    /// their recency.
    pub fn retain(&self, mut keep: impl FnMut(&K, &V) -> bool) {
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        inner.map.retain(|key, entry| keep(key, &entry.value));
    }

    /// `(hits, misses)` counters since construction.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Entries displaced by a capacity eviction since construction.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .map
            .len()
    }

    /// True when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_inserted_value() {
        let cache: LruCache<String, u32> = LruCache::new(4);
        assert!(cache.get(&"a".to_string()).is_none());
        cache.insert("a".to_string(), Arc::new(7));
        assert_eq!(*cache.get(&"a".to_string()).unwrap(), 7);
        assert_eq!(cache.counters(), (1, 1));
    }

    #[test]
    fn evicts_least_recently_used() {
        let cache: LruCache<u32, u32> = LruCache::new(2);
        cache.insert(1, Arc::new(10));
        cache.insert(2, Arc::new(20));
        // touch 1 so 2 becomes the LRU entry
        assert!(cache.get(&1).is_some());
        cache.insert(3, Arc::new(30));
        assert!(cache.get(&2).is_none(), "2 should have been evicted");
        assert!(cache.get(&1).is_some());
        assert!(cache.get(&3).is_some());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
    }

    /// A key whose `Clone` counts its calls; it compares and hashes by
    /// its number alone.
    struct CountedKey(u32, Arc<AtomicU64>);

    impl PartialEq for CountedKey {
        fn eq(&self, other: &Self) -> bool {
            self.0 == other.0
        }
    }

    impl Eq for CountedKey {}

    impl Hash for CountedKey {
        fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
            self.0.hash(state);
        }
    }

    impl Clone for CountedKey {
        fn clone(&self) -> Self {
            self.1.fetch_add(1, Ordering::Relaxed);
            Self(self.0, Arc::clone(&self.1))
        }
    }

    #[test]
    fn eviction_clones_no_key() {
        let clones = Arc::new(AtomicU64::new(0));
        let cache: LruCache<CountedKey, u32> = LruCache::new(2);
        for k in 0..5 {
            cache.insert(CountedKey(k, Arc::clone(&clones)), Arc::new(k));
        }
        assert_eq!(clones.load(Ordering::Relaxed), 0);
        assert_eq!(cache.len(), 2);
        for k in [3, 4] {
            let key = CountedKey(k, Arc::clone(&clones));
            assert_eq!(*cache.get(&key).unwrap(), k, "{k} is among the newest");
        }
    }

    #[test]
    fn reinserting_same_key_does_not_evict() {
        let cache: LruCache<u32, u32> = LruCache::new(2);
        cache.insert(1, Arc::new(10));
        cache.insert(2, Arc::new(20));
        cache.insert(2, Arc::new(21));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(*cache.get(&1).unwrap(), 10);
        assert_eq!(*cache.get(&2).unwrap(), 21);
    }

    #[test]
    fn get_or_insert_with_runs_once() {
        let cache: LruCache<u32, u32> = LruCache::new(2);
        let mut calls = 0;
        let v = cache.get_or_insert_with(&5, || {
            calls += 1;
            55
        });
        assert_eq!(*v, 55);
        let v = cache.get_or_insert_with(&5, || {
            calls += 1;
            99
        });
        assert_eq!(*v, 55, "second call must hit");
        assert_eq!(calls, 1);
    }

    /// Eight threads hammer one hot key through `get_or_insert_with`
    /// while a churn thread floods the cache past capacity. Invariants:
    /// every hit is byte-identical to the deterministic recompute (the
    /// cache may change latency, never bytes), and after an eviction the
    /// stale entry is genuinely gone — the next lookup recomputes
    /// instead of serving a ghost.
    #[test]
    fn hot_key_stays_correct_under_eviction_pressure() {
        let compute = |key: &String| -> String { format!("value-of::{key}") };
        let cache: Arc<LruCache<String, String>> = Arc::new(LruCache::new(4));
        let hot = "hot".to_string();

        std::thread::scope(|s| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let hot = hot.clone();
                s.spawn(move || {
                    for _ in 0..500 {
                        let v = cache.get_or_insert_with(&hot, || compute(&hot));
                        assert_eq!(
                            *v,
                            compute(&hot),
                            "a cache hit must be byte-identical to a recompute"
                        );
                    }
                });
            }
            // churn: 4x capacity of distinct keys, repeatedly, so the hot
            // key is evicted over and over while readers race it
            let cache = Arc::clone(&cache);
            s.spawn(move || {
                for round in 0..200 {
                    for i in 0..16 {
                        let k = format!("churn-{round}-{i}");
                        cache.insert(k.clone(), Arc::new(compute(&k)));
                    }
                }
            });
        });

        assert!(cache.len() <= 4, "len {} exceeds capacity", cache.len());
        let (hits, misses) = cache.counters();
        assert_eq!(
            hits + misses,
            8 * 500,
            "every get_or_insert_with resolves to exactly one hit or miss"
        );
        assert!(misses >= 1, "the cold start alone is a miss");
    }

    /// After an entry is evicted, a lookup must miss — the value cannot
    /// be served from beyond the grave even though `Arc` clones of it
    /// may still be alive in readers' hands.
    #[test]
    fn evicted_entry_is_not_served() {
        let cache: LruCache<u32, u32> = LruCache::new(2);
        cache.insert(1, Arc::new(10));
        let held = cache.get(&1).unwrap(); // reader still holds the Arc
        cache.insert(2, Arc::new(20));
        assert!(cache.get(&1).is_some()); // 1 now fresher than 2
        cache.insert(3, Arc::new(30)); // capacity 2: evicts LRU key 2
        assert!(cache.get(&2).is_none(), "2 was the least recently used");
        assert_eq!(*held, 10, "outstanding Arc stays valid across evictions");
        cache.insert(4, Arc::new(40)); // 1 untouched since → evicted next
        assert!(
            cache.get(&1).is_none(),
            "1 must not be served post-eviction"
        );
        assert_eq!(*cache.get(&3).unwrap(), 30);
        assert_eq!(*cache.get(&4).unwrap(), 40);
        assert_eq!(*held, 10);
    }

    #[test]
    fn retain_drops_exactly_the_rejected_entries() {
        let cache: LruCache<(u64, u32), u32> = LruCache::new(8);
        for key in [(0, 1), (0, 2), (1, 1), (1, 2), (2, 1)] {
            cache.insert(key, Arc::new(key.1 * 10));
        }
        assert!(cache.get(&(0, 1)).is_some());
        assert!(cache.get(&(9, 9)).is_none());
        let counters = cache.counters();

        let mut seen = Vec::new();
        cache.retain(|&(generation, _), &value| {
            seen.push(value);
            generation >= 1
        });
        seen.sort_unstable();
        assert_eq!(seen, [10, 10, 10, 20, 20], "every entry is offered once");
        assert_eq!(cache.counters(), counters, "a drop is no hit or miss");
        assert_eq!(cache.evictions(), 0, "nor an eviction");
        assert_eq!(cache.len(), 3);

        for key in [(1, 1), (1, 2), (2, 1)] {
            assert_eq!(*cache.get(&key).unwrap(), key.1 * 10, "{key:?} survives");
        }
        for key in [(0, 1), (0, 2)] {
            assert!(cache.get(&key).is_none(), "{key:?} was dropped");
        }
    }

    /// A panic inside a `retain` closure poisons the lock; every later
    /// call must still work and see the entries the panic left behind.
    #[test]
    fn panic_in_retain_does_not_break_the_cache() {
        let cache: LruCache<u32, u32> = LruCache::new(8);
        for key in 1..=3 {
            cache.insert(key, Arc::new(key * 10));
        }
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.retain(|_, _| panic!("keep predicate panics"));
        }));
        assert!(unwound.is_err());
        assert!(cache.inner.is_poisoned());

        assert_eq!(cache.len(), 3);
        for key in 1..=3 {
            assert_eq!(*cache.get(&key).unwrap(), key * 10, "{key} survives");
        }
        cache.insert(4, Arc::new(40));
        assert_eq!(*cache.get(&4).unwrap(), 40);
        assert!(cache.get(&9).is_none());
        assert_eq!(cache.counters(), (4, 1));
        cache.retain(|&key, _| key != 1);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn concurrent_reads_share_the_lock() {
        let cache: Arc<LruCache<u32, u32>> = Arc::new(LruCache::new(8));
        for i in 0..8 {
            cache.insert(i, Arc::new(i * i));
        }
        std::thread::scope(|s| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    for round in 0..100u32 {
                        let k = round % 8;
                        assert_eq!(*cache.get(&k).unwrap(), k * k);
                    }
                });
            }
        });
        assert_eq!(cache.counters().0, 400);
    }
}
