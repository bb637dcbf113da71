//! A deterministic O(1) LRU with entry *and* byte budgets.
//!
//! The building block of the per-lane Offering-Table cache. Entries
//! live in a slab (`Vec` of slots) threaded by intrusive prev/next
//! links in recency order, with a `HashMap` index from key to slot —
//! every operation is O(1) and allocation-free once warm. Eviction is
//! strictly least-recently-used, so for a fixed operation sequence the
//! resident set is a pure function of that sequence — the property
//! test in `tests/props.rs` pins the whole structure against a naive
//! model.
//!
//! Byte weights are supplied by the caller at insert (the cache is
//! generic and cannot size its values); an entry larger than the whole
//! byte budget is refused rather than evicting everything else to make
//! room.

use crate::metrics::TierSnapshot;
use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    bytes: usize,
    prev: usize,
    next: usize,
}

/// Bounded least-recently-used map. Not internally synchronised — wrap
/// in a lock (as the session table cache does) to share across threads.
#[derive(Debug)]
pub struct Lru<K, V> {
    index: HashMap<K, usize>,
    slots: Vec<Option<Slot<K, V>>>,
    free: Vec<usize>,
    /// Most-recently-used slot.
    head: usize,
    /// Least-recently-used slot — the eviction end.
    tail: usize,
    max_entries: usize,
    max_bytes: usize,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    insertions: u64,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// An empty cache holding at most `max_entries` entries and
    /// `max_bytes` caller-weighted bytes. A zero budget is clamped to
    /// one entry / one byte so the structure stays well-defined.
    #[must_use]
    pub fn new(max_entries: usize, max_bytes: usize) -> Self {
        Self {
            index: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            max_entries: max_entries.max(1),
            max_bytes: max_bytes.max(1),
            bytes: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            insertions: 0,
        }
    }

    /// Resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether nothing is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Current caller-weighted resident bytes.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Look up `key`, promoting it to most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        match self.index.get(key).copied() {
            Some(slot) => {
                self.hits += 1;
                self.unlink(slot);
                self.push_front(slot);
                self.slots[slot].as_ref().map(|s| &s.value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Look up `key` without promoting or counting — for tests and
    /// introspection.
    #[must_use]
    pub fn peek(&self, key: &K) -> Option<&V> {
        let slot = *self.index.get(key)?;
        self.slots[slot].as_ref().map(|s| &s.value)
    }

    /// Insert (or overwrite) `key`, weighted at `bytes`, as
    /// most-recently-used, then evict from the LRU end until both
    /// budgets hold. An entry weighing more than the whole byte budget
    /// is refused (and an existing entry under that key removed): caching
    /// it would only thrash the rest of the tier.
    pub fn insert(&mut self, key: K, value: V, bytes: usize) {
        if bytes > self.max_bytes {
            self.remove(&key);
            return;
        }
        self.insertions += 1;
        if let Some(&slot) = self.index.get(&key) {
            let s = self.slots[slot].as_mut().expect("indexed slot occupied");
            self.bytes = self.bytes - s.bytes + bytes;
            s.value = value;
            s.bytes = bytes;
            self.unlink(slot);
            self.push_front(slot);
        } else {
            let slot = match self.free.pop() {
                Some(i) => i,
                None => {
                    self.slots.push(None);
                    self.slots.len() - 1
                }
            };
            self.slots[slot] = Some(Slot { key: key.clone(), value, bytes, prev: NIL, next: NIL });
            self.index.insert(key, slot);
            self.bytes += bytes;
            self.push_front(slot);
        }
        while self.index.len() > self.max_entries || self.bytes > self.max_bytes {
            let Some(victim) = self.evict_tail() else { break };
            drop(victim);
        }
    }

    /// Remove `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let slot = self.index.remove(key)?;
        self.unlink(slot);
        let s = self.slots[slot].take().expect("indexed slot occupied");
        self.bytes -= s.bytes;
        self.free.push(slot);
        Some(s.value)
    }

    /// Evict every entry whose key matches `stale` (deterministic:
    /// recency order, least-recent first). The forecast-window rollover
    /// invalidation path — cheaper than waiting for natural eviction
    /// when a whole window's tables just became unreachable.
    pub fn evict_where(&mut self, mut stale: impl FnMut(&K) -> bool) -> usize {
        let mut victims = Vec::new();
        let mut cursor = self.tail;
        while cursor != NIL {
            let s = self.slots[cursor].as_ref().expect("linked slot occupied");
            if stale(&s.key) {
                victims.push(s.key.clone());
            }
            cursor = s.prev;
        }
        for key in &victims {
            let _ = self.remove(key);
            self.evictions += 1;
        }
        victims.len()
    }

    /// Drop everything (budgets and counters survive).
    pub fn clear(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.bytes = 0;
    }

    /// Unified accounting snapshot.
    #[must_use]
    pub fn snapshot(&self) -> TierSnapshot {
        TierSnapshot {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            insertions: self.insertions,
            entries: self.index.len() as u64,
            bytes: self.bytes as u64,
        }
    }

    /// Keys from most- to least-recently-used — test introspection.
    #[must_use]
    pub fn keys_by_recency(&self) -> Vec<K> {
        let mut keys = Vec::with_capacity(self.index.len());
        let mut cursor = self.head;
        while cursor != NIL {
            let s = self.slots[cursor].as_ref().expect("linked slot occupied");
            keys.push(s.key.clone());
            cursor = s.next;
        }
        keys
    }

    fn evict_tail(&mut self) -> Option<V> {
        if self.tail == NIL {
            return None;
        }
        let key = self.slots[self.tail].as_ref().expect("tail occupied").key.clone();
        self.evictions += 1;
        self.remove(&key)
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = {
            let s = self.slots[slot].as_ref().expect("unlink of occupied slot");
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slots[prev].as_mut().expect("linked").next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].as_mut().expect("linked").prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        let s = self.slots[slot].as_mut().expect("unlink of occupied slot");
        s.prev = NIL;
        s.next = NIL;
    }

    fn push_front(&mut self, slot: usize) {
        let old_head = self.head;
        {
            let s = self.slots[slot].as_mut().expect("push of occupied slot");
            s.prev = NIL;
            s.next = old_head;
        }
        if old_head != NIL {
            self.slots[old_head].as_mut().expect("linked").prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used_first() {
        let mut c: Lru<u32, u32> = Lru::new(2, usize::MAX);
        c.insert(1, 10, 1);
        c.insert(2, 20, 1);
        assert_eq!(c.get(&1), Some(&10)); // 1 now MRU
        c.insert(3, 30, 1); // evicts 2
        assert_eq!(c.peek(&2), None);
        assert_eq!(c.peek(&1), Some(&10));
        assert_eq!(c.peek(&3), Some(&30));
        assert_eq!(c.keys_by_recency(), vec![3, 1]);
        let s = c.snapshot();
        assert_eq!((s.hits, s.misses, s.evictions, s.insertions), (1, 0, 1, 3));
    }

    #[test]
    fn byte_budget_evicts_and_oversized_is_refused() {
        let mut c: Lru<u32, u32> = Lru::new(usize::MAX, 10);
        c.insert(1, 1, 4);
        c.insert(2, 2, 4);
        c.insert(3, 3, 4); // 12 bytes > 10: evicts 1
        assert_eq!(c.peek(&1), None);
        assert_eq!(c.bytes(), 8);
        c.insert(4, 4, 11); // larger than the whole budget
        assert_eq!(c.peek(&4), None);
        assert_eq!(c.len(), 2);
        // Oversized overwrite removes the stale entry instead of keeping it.
        c.insert(2, 9, 11);
        assert_eq!(c.peek(&2), None);
        assert_eq!(c.bytes(), 4);
    }

    #[test]
    fn overwrite_updates_bytes_and_promotes() {
        let mut c: Lru<u32, u32> = Lru::new(8, 100);
        c.insert(1, 1, 10);
        c.insert(2, 2, 10);
        c.insert(1, 5, 30);
        assert_eq!(c.bytes(), 40);
        assert_eq!(c.keys_by_recency(), vec![1, 2]);
        assert_eq!(c.peek(&1), Some(&5));
    }

    #[test]
    fn evict_where_drops_matching_keys() {
        let mut c: Lru<(u32, u64), u32> = Lru::new(16, usize::MAX);
        for i in 0..4 {
            c.insert((i, u64::from(i % 2)), i, 1);
        }
        let dropped = c.evict_where(|&(_, window)| window == 0);
        assert_eq!(dropped, 2);
        assert_eq!(c.len(), 2);
        assert!(c.keys_by_recency().iter().all(|&(_, w)| w == 1));
    }

    #[test]
    fn remove_and_clear() {
        let mut c: Lru<u32, u32> = Lru::new(4, 100);
        c.insert(1, 1, 5);
        c.insert(2, 2, 5);
        assert_eq!(c.remove(&1), Some(1));
        assert_eq!(c.remove(&1), None);
        assert_eq!(c.bytes(), 5);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
        // Reusable after clear.
        c.insert(3, 3, 5);
        assert_eq!(c.get(&3), Some(&3));
    }

    #[test]
    fn slab_slots_are_recycled() {
        let mut c: Lru<u32, u32> = Lru::new(2, usize::MAX);
        for i in 0..100 {
            c.insert(i, i, 1);
        }
        assert!(c.slots.len() <= 3, "slab grew ({}) despite recycling", c.slots.len());
        assert_eq!(c.len(), 2);
    }
}
