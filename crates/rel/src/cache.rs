//! A bounded concurrent cache with second-chance (CLOCK) eviction.
//!
//! Entries sit in a fixed ring; a hit sets the entry's used bit under the
//! read lock. An insert into a full cache advances the clock hand, clearing
//! used bits as it passes, and replaces the first entry whose bit was
//! already clear — exactly one victim per insert, so the work under the
//! write lock is bounded by one turn of the ring and the victim (which may
//! own a large parsed statement) is dropped only after the lock is released.

use crate::hasher::FxHashMap;
use crate::unpoison;
use std::borrow::Borrow;
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::RwLock;

/// See the module documentation. `V` is returned by clone, so it should be
/// an `Arc` (or a few of them); `K` is stored twice (index and ring).
pub struct ClockCache<K, V> {
    capacity: usize,
    inner: RwLock<Inner<K, V>>,
}

struct Inner<K, V> {
    /// Key → position in `ring`.
    index: FxHashMap<K, usize>,
    ring: Vec<Slot<K, V>>,
    /// Next ring position the eviction sweep examines.
    hand: usize,
}

struct Slot<K, V> {
    key: K,
    value: V,
    /// Hit since the hand last passed: the entry's second chance.
    used: AtomicBool,
}

impl<K: Hash + Eq + Clone, V: Clone> ClockCache<K, V> {
    /// An empty cache that never holds more than `capacity` entries.
    pub fn new(capacity: usize) -> ClockCache<K, V> {
        assert!(capacity > 0, "a cache needs room for one entry");
        ClockCache {
            capacity,
            inner: RwLock::new(Inner {
                index: FxHashMap::default(),
                ring: Vec::new(),
                hand: 0,
            }),
        }
    }

    /// The value cached under `key`, marking the entry recently used.
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let inner = unpoison(self.inner.read());
        let slot = &inner.ring[*inner.index.get(key)?];
        slot.used.store(true, Ordering::Relaxed);
        Some(slot.value.clone())
    }

    /// Cache `value` under `key`, evicting one not-recently-used entry when
    /// the cache is full. An entry already present under `key` is kept
    /// (two threads that missed together computed the same value).
    pub fn insert(&self, key: K, value: V) {
        let mut inner = unpoison(self.inner.write());
        if inner.index.contains_key(&key) {
            return;
        }
        let slot = Slot {
            key: key.clone(),
            value,
            used: AtomicBool::new(false),
        };
        if inner.ring.len() < self.capacity {
            let at = inner.ring.len();
            inner.index.insert(key, at);
            inner.ring.push(slot);
            return;
        }
        // Every bit the hand passes is cleared, so the second turn at the
        // latest finds a victim.
        let victim = loop {
            let at = inner.hand;
            inner.hand = (at + 1) % self.capacity;
            if !inner.ring[at].used.swap(false, Ordering::Relaxed) {
                break at;
            }
        };
        let evicted = std::mem::replace(&mut inner.ring[victim], slot);
        inner.index.remove(&evicted.key);
        inner.index.insert(key, victim);
        drop(inner);
        drop(evicted);
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        unpoison(self.inner.read()).ring.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry (after releasing the lock).
    pub fn clear(&self) {
        let mut inner = unpoison(self.inner.write());
        let index = std::mem::take(&mut inner.index);
        let ring = std::mem::take(&mut inner.ring);
        inner.hand = 0;
        drop(inner);
        drop((index, ring));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_bounded_and_evicts_one_entry_per_insert() {
        let cache: ClockCache<u32, u32> = ClockCache::new(64);
        for i in 0..64 {
            cache.insert(i, i);
            assert_eq!(cache.len(), i as usize + 1);
        }
        for i in 64..1064 {
            cache.insert(i, i);
            assert_eq!(cache.len(), 64, "full insert must evict exactly one");
            assert_eq!(cache.get(&i), Some(i));
        }
    }

    #[test]
    fn a_recently_hit_entry_outlives_a_full_turn_of_unused_ones() {
        let cache: ClockCache<u32, u32> = ClockCache::new(8);
        for i in 0..8 {
            cache.insert(i, i);
        }
        // Key 3 is hit before every insert; 3 × capacity inserts turn the
        // ring three times, evicting everything that was not hit.
        for i in 100..124 {
            assert_eq!(cache.get(&3), Some(3));
            cache.insert(i, i);
        }
        assert_eq!(cache.get(&3), Some(3));
        assert_eq!((0..8).filter(|k| cache.get(k).is_some()).count(), 1);
    }

    #[test]
    fn an_all_used_ring_still_makes_room() {
        let cache: ClockCache<u32, u32> = ClockCache::new(4);
        for i in 0..4 {
            cache.insert(i, i);
            cache.get(&i);
        }
        cache.insert(9, 9);
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.get(&9), Some(9));
    }

    #[test]
    fn duplicate_insert_keeps_the_first_value_and_clear_empties() {
        let cache: ClockCache<String, u32> = ClockCache::new(4);
        cache.insert("a".into(), 1);
        cache.insert("a".into(), 2);
        assert_eq!(cache.get("a"), Some(1));
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.get("a"), None);
        cache.insert("a".into(), 3);
        assert_eq!(cache.get("a"), Some(3));
    }
}
