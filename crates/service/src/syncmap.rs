//! A concurrent `Arc`-cached map with read-then-write get-or-insert.
//!
//! The service keeps its session-shard table in one: almost every
//! lookup hits an existing entry, and the rare miss must construct the
//! entry **exactly once** even when many threads race for the same key.
//! [`SyncMap`] provides that with plain `std` primitives: a [`RwLock`]
//! around a [`BTreeMap`] of [`Arc`]s. Reads take the shared lock and
//! clone the `Arc` (cheap, concurrent); a miss upgrades to the
//! exclusive lock and re-checks under it, so two racers agree on one
//! winner and the loser's constructor never runs.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

/// A concurrent map from ordered keys to shared values.
///
/// Values live behind [`Arc`], so a returned handle stays valid after
/// the entry is removed — readers never block on a removal, and a
/// session being evicted cannot invalidate a worker's handle mid-use.
pub struct SyncMap<K, V> {
    map: RwLock<BTreeMap<K, Arc<V>>>,
}

impl<K: Ord, V> Default for SyncMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord, V> SyncMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self {
            map: RwLock::new(BTreeMap::new()),
        }
    }

    /// Returns the value under `key`, constructing it with `create` and
    /// inserting it behind an [`Arc`] on first touch.
    ///
    /// The fast path takes only the shared (read) lock. On a miss the
    /// exclusive lock is taken and the map re-checked, so concurrent
    /// callers racing on the same key observe **the same** `Arc` and
    /// `create` runs exactly once per key — the read-then-write cache
    /// idiom (SNIPPETS.md §3).
    pub fn get_or_init(&self, key: K, create: impl FnOnce() -> V) -> Arc<V> {
        // PANIC: a poisoned RwLock means a writer panicked mid-update;
        // the map may be half-mutated, so propagating is the only
        // sound option (same argument for every lock in this file).
        if let Some(v) = self.map.read().expect("syncmap poisoned").get(&key) {
            return Arc::clone(v);
        }
        let mut map = self.map.write().expect("syncmap poisoned");
        Arc::clone(map.entry(key).or_insert_with(|| Arc::new(create())))
    }

    /// Returns the value under `key`, if present, without constructing.
    pub fn get<Q>(&self, key: &Q) -> Option<Arc<V>>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        // PANIC: poisoning propagation; see get_or_init.
        self.map
            .read()
            .expect("syncmap poisoned")
            .get(key)
            .map(Arc::clone)
    }

    /// Removes and returns the value under `key`. Outstanding handles
    /// remain valid; only the map entry goes away.
    pub fn remove<Q>(&self, key: &Q) -> Option<Arc<V>>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        // PANIC: poisoning propagation; see get_or_init.
        self.map.write().expect("syncmap poisoned").remove(key)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        // PANIC: poisoning propagation; see get_or_init.
        self.map.read().expect("syncmap poisoned").len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Ord + Clone, V> SyncMap<K, V> {
    /// A point-in-time snapshot of all entries, in key order. The
    /// snapshot holds `Arc` handles, so it stays usable while other
    /// threads insert or remove concurrently.
    pub fn entries(&self) -> Vec<(K, Arc<V>)> {
        // PANIC: poisoning propagation; see get_or_init.
        self.map
            .read()
            .expect("syncmap poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect()
    }

    /// Keeps only the entries for which `keep` returns `true`, returning
    /// the removed entries (in key order). The whole sweep runs under
    /// the exclusive lock, so no insert interleaves with the decision.
    pub fn retain(&self, mut keep: impl FnMut(&K, &Arc<V>) -> bool) -> Vec<(K, Arc<V>)> {
        // PANIC: poisoning propagation; see get_or_init.
        let mut map = self.map.write().expect("syncmap poisoned");
        let doomed: Vec<K> = map
            .iter()
            .filter(|(k, v)| !keep(k, v))
            .map(|(k, _)| k.clone())
            .collect();
        doomed
            .into_iter()
            .map(|k| {
                // PANIC: doomed keys were read under this same
                // exclusive lock, so they are still present.
                let v = map.remove(&k).expect("doomed key present under lock");
                (k, v)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn get_or_init_constructs_once_and_caches() {
        let map: SyncMap<u32, String> = SyncMap::new();
        assert!(map.is_empty());
        let built = AtomicUsize::new(0);
        let a = map.get_or_init(7, || {
            built.fetch_add(1, Ordering::SeqCst);
            "seven".to_string()
        });
        let b = map.get_or_init(7, || {
            built.fetch_add(1, Ordering::SeqCst);
            "never".to_string()
        });
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(built.load(Ordering::SeqCst), 1);
        assert_eq!(map.len(), 1);
        assert_eq!(map.get(&7).as_deref(), Some(&"seven".to_string()));
        assert!(map.get(&8).is_none());
    }

    /// The satellite stress test: 8 threads racing get-or-insert on the
    /// **same** key observe exactly one constructed value (every handle
    /// `Arc::ptr_eq` to every other) and the constructor runs once.
    #[test]
    fn racing_get_or_init_on_one_key_constructs_exactly_once() {
        const THREADS: usize = 8;
        for round in 0..50u32 {
            let map: SyncMap<u32, u32> = SyncMap::new();
            let built = AtomicUsize::new(0);
            let barrier = Barrier::new(THREADS);
            let handles: Vec<Arc<u32>> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..THREADS)
                    .map(|_| {
                        scope.spawn(|| {
                            barrier.wait();
                            map.get_or_init(round, || {
                                built.fetch_add(1, Ordering::SeqCst);
                                round
                            })
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).collect()
            });
            assert_eq!(
                built.load(Ordering::SeqCst),
                1,
                "round {round}: one construction"
            );
            assert!(
                handles.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])),
                "round {round}: all threads share one Arc"
            );
            assert_eq!(map.len(), 1);
        }
    }

    /// The other half of the satellite: 8 threads inserting **distinct**
    /// keys concurrently lose none of them.
    #[test]
    fn racing_inserts_on_distinct_keys_lose_nothing() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 25;
        let map: SyncMap<usize, usize> = SyncMap::new();
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let map = &map;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    for i in 0..PER_THREAD {
                        let key = t * PER_THREAD + i;
                        map.get_or_init(key, || key * 10);
                    }
                });
            }
        });
        assert_eq!(map.len(), THREADS * PER_THREAD, "no insert lost");
        for key in 0..THREADS * PER_THREAD {
            assert_eq!(*map.get(&key).expect("present"), key * 10);
        }
    }

    #[test]
    fn remove_keeps_outstanding_handles_valid() {
        let map: SyncMap<u8, Vec<u8>> = SyncMap::new();
        let handle = map.get_or_init(1, || vec![1, 2, 3]);
        let removed = map.remove(&1).expect("entry present");
        assert!(Arc::ptr_eq(&handle, &removed));
        assert!(map.get(&1).is_none());
        assert_eq!(*handle, vec![1, 2, 3], "handle outlives the entry");
        assert!(map.remove(&1).is_none());
    }

    #[test]
    fn entries_snapshot_and_retain_sweep() {
        let map: SyncMap<u32, u32> = SyncMap::new();
        for k in 0..6 {
            map.get_or_init(k, || k * k);
        }
        let snapshot = map.entries();
        assert_eq!(snapshot.len(), 6);
        assert!(snapshot.windows(2).all(|w| w[0].0 < w[1].0), "key order");
        let evicted = map.retain(|&k, _| k % 2 == 0);
        assert_eq!(
            evicted.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            vec![1, 3, 5]
        );
        assert_eq!(map.len(), 3);
        // The pre-sweep snapshot still resolves.
        assert!(snapshot.iter().all(|(k, v)| **v == k * k));
    }
}
