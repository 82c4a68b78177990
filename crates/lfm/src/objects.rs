//! The decoded-object cache beside the page cache.
//!
//! The page cache ([`crate::cache`]) models which device pages a buffer
//! pool would hold; it never holds bytes, because every read copies
//! from the in-memory device anyway.  What a read of a stored REGION
//! really repeats on this host is the decode after the copy.  This
//! cache keeps the decoded objects themselves — one per (field, type)
//! — so a field is decoded once while it stays resident.
//!
//! It never changes what the simulated disk sees:
//! [`crate::LongFieldManager::read_object`] walks and charges the
//! field's pages on a hit exactly as on a miss, and only the byte copy
//! and the decode are skipped.  It is host memory, not the modelled
//! buffer, so it is on whatever the pool setting, with a budget of the
//! device's data-area bytes, spent on the sizes the decoders report and
//! reclaimed least recently used first.  Only the page pool models the
//! 1994 buffer.
//!
//! Every access here is a checked one: the crate's indexing exception
//! does not reach this module.
#![warn(clippy::indexing_slicing)]

use std::any::{Any, TypeId};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// A decoded object as the cache holds it.
pub(crate) type Object = Arc<dyn Any + Send + Sync>;

/// A field id and the type its bytes were decoded into.
pub(crate) type Key = (u64, TypeId);

/// Cumulative object-cache behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ObjectStats {
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    pub(crate) evictions: u64,
}

#[derive(Debug)]
struct Entry {
    object: Object,
    bytes: usize,
    /// Recency: the key of this entry in [`ObjectCache::lru`].
    stamp: u64,
}

/// The cache itself; the manager wraps it in a `Mutex` held only around
/// one lookup or one insert.
#[derive(Debug, Default)]
pub(crate) struct ObjectCache {
    /// Bytes the entries may hold.
    budget: usize,
    /// Bytes the entries hold.
    used: usize,
    entries: HashMap<Key, Entry>,
    /// Stamp → key, oldest first.
    lru: BTreeMap<u64, Key>,
    next_stamp: u64,
    stats: ObjectStats,
}

impl ObjectCache {
    /// An empty cache whose entries may hold `budget` bytes.
    pub(crate) fn new(budget: usize) -> ObjectCache {
        ObjectCache { budget, ..ObjectCache::default() }
    }

    pub(crate) fn stats(&self) -> ObjectStats {
        self.stats
    }

    /// Bytes the resident objects hold.
    #[cfg(test)]
    pub(crate) fn used(&self) -> usize {
        self.used
    }

    /// The object stored under `key`, made most recent — a hit — or
    /// `None`, a miss.
    pub(crate) fn get(&mut self, key: Key) -> Option<Object> {
        let stamp = self.next_stamp;
        let Some(entry) = self.entries.get_mut(&key) else {
            self.stats.misses += 1;
            return None;
        };
        self.next_stamp += 1;
        self.lru.remove(&entry.stamp);
        self.lru.insert(stamp, key);
        entry.stamp = stamp;
        self.stats.hits += 1;
        Some(Arc::clone(&entry.object))
    }

    /// Stores `object`, `bytes` large, under `key`, evicting the least
    /// recently used entries until it fits.  An object larger than the
    /// whole budget is not stored.  When another reader stored the key
    /// first, that entry stays and is returned, so racing readers end
    /// up sharing one object.
    pub(crate) fn insert(&mut self, key: Key, object: Object, bytes: usize) -> Option<Object> {
        if let Some(resident) = self.entries.get(&key) {
            return Some(Arc::clone(&resident.object));
        }
        if bytes > self.budget {
            return None;
        }
        while self.used + bytes > self.budget {
            let Some((_, victim)) = self.lru.pop_first() else { break };
            if let Some(gone) = self.entries.remove(&victim) {
                self.used -= gone.bytes;
                self.stats.evictions += 1;
            }
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.lru.insert(stamp, key);
        self.entries.insert(key, Entry { object, bytes, stamp });
        self.used += bytes;
        None
    }

    /// Drops every object decoded from `field`.
    pub(crate) fn forget_field(&mut self, field: u64) {
        if self.entries.is_empty() {
            return;
        }
        let (entries, lru, used) = (&mut self.entries, &mut self.lru, &mut self.used);
        entries.retain(|&(id, _), entry| {
            let keep = id != field;
            if !keep {
                lru.remove(&entry.stamp);
                *used -= entry.bytes;
            }
            keep
        });
    }

    /// Drops every object.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.lru.clear();
        self.used = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(field: u64) -> Key {
        (field, TypeId::of::<u32>())
    }

    fn object(value: u32) -> Object {
        Arc::new(value)
    }

    fn value(object: Option<Object>) -> Option<u32> {
        object.and_then(|o| o.downcast_ref::<u32>().copied())
    }

    #[test]
    fn a_hit_returns_the_object_a_miss_counts() {
        let mut c = ObjectCache::new(100);
        assert!(c.get(key(1)).is_none());
        assert!(c.insert(key(1), object(7), 10).is_none());
        assert_eq!(value(c.get(key(1))), Some(7));
        // Another type decoded from the same field is another entry.
        assert!(c.get((1, TypeId::of::<u8>())).is_none());
        assert_eq!(c.stats(), ObjectStats { hits: 1, misses: 2, evictions: 0 });
    }

    #[test]
    fn least_recently_used_goes_first_and_the_budget_holds() {
        let mut c = ObjectCache::new(30);
        for field in 1..=3 {
            c.insert(key(field), object(field as u32), 10);
        }
        assert_eq!(value(c.get(key(1))), Some(1));
        c.insert(key(4), object(4), 10);
        assert!(c.used() <= 30);
        assert!(c.get(key(2)).is_none(), "2 was least recently used");
        for field in [1, 3, 4] {
            assert!(c.get(key(field)).is_some(), "{field} stays");
        }
        c.insert(key(5), object(5), 25);
        assert_eq!(c.used(), 25);
        assert_eq!(c.stats().evictions, 4);
        // Larger than the whole budget: not stored, nothing evicted.
        assert!(c.insert(key(6), object(6), 31).is_none());
        assert!(c.get(key(6)).is_none());
        assert!(c.get(key(5)).is_some());
    }

    #[test]
    fn the_first_insert_of_a_key_wins() {
        let mut c = ObjectCache::new(100);
        assert!(c.insert(key(1), object(1), 10).is_none());
        assert_eq!(value(c.insert(key(1), object(2), 10)), Some(1));
        assert_eq!(c.used(), 10);
        assert_eq!(value(c.get(key(1))), Some(1));
    }

    #[test]
    fn forgetting_a_field_frees_its_bytes() {
        let mut c = ObjectCache::new(100);
        c.insert(key(1), object(1), 10);
        c.insert((1, TypeId::of::<u8>()), Arc::new(1u8), 5);
        c.insert(key(2), object(2), 20);
        c.forget_field(1);
        assert_eq!(c.used(), 20);
        assert!(c.get(key(1)).is_none());
        assert!(c.get(key(2)).is_some());
        c.clear();
        assert_eq!(c.used(), 0);
        assert!(c.get(key(2)).is_none());
    }

    #[test]
    fn a_zero_budget_stores_nothing() {
        let mut c = ObjectCache::new(0);
        assert!(c.insert(key(1), object(1), 1).is_none());
        assert!(c.get(key(1)).is_none());
        assert_eq!(c.used(), 0);
    }
}
