//! [`SlotTable`]: records in dense, reused slots, found by key.
//!
//! GuestLib and ServiceLib look a socket's record up on every NQE that names
//! it. The table keeps the records in a dense vector with a free list and
//! maps each key to its slot through a [`DetMap`], so a lookup by key costs
//! one hash and no pointer chase, and a caller that keeps a slot beside a
//! key of another kind (ServiceLib's stack-socket index, GuestLib's list in
//! socket-id order) reaches the record without one.
//!
//! A freed slot keeps its record, and the next key to take the slot hands
//! that record to [`Recycle::recycle`], which moves its queues' storage into
//! the new one: a short-lived socket allocates no queue of its own.
//!
//! Slots are reused in free-list order, an accident of history, so the table
//! has no walk in slot order: its only walks are [`DetMap`]'s, by sorted key
//! ([`SlotTable::sorted_keys`]) or through an `Fn` predicate
//! ([`SlotTable::any`]).

use crate::detmap::DetMap;
use crate::error::{NkError, NkResult};
use std::hash::Hash;

/// A record whose slot outlives it: what a new record takes over from the
/// one that held its slot before.
pub trait Recycle {
    /// Take `old`'s queue storage, emptied, into `self`; whatever else
    /// `old` still held is dropped.
    fn recycle(&mut self, old: Self);
}

/// One slot: the key it holds (`None` while free) and the record, which
/// stays after its key leaves.
struct Slot<K, V> {
    key: Option<K>,
    record: V,
}

/// Records in dense, reused slots, each found by its key (one hash) or by
/// its slot (none). See the module documentation.
pub struct SlotTable<K, V> {
    index: DetMap<K, u32>,
    slots: Vec<Slot<K, V>>,
    /// Free slots; the next insert takes the last.
    free: Vec<u32>,
}

impl<K, V> Default for SlotTable<K, V> {
    fn default() -> Self {
        SlotTable {
            index: DetMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<K: Copy + Eq + Hash, V: Recycle> SlotTable<K, V> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no record is live.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// True when `key` has a live record.
    pub fn contains_key(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// The slot of `key`'s record: one hash.
    pub fn slot(&self, key: &K) -> Option<u32> {
        self.index.get(key).copied()
    }

    /// `key`'s record.
    pub fn get(&self, key: &K) -> Option<&V> {
        Some(&self.slots[self.slot(key)? as usize].record)
    }

    /// `key`'s record, mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let slot = self.slot(key)?;
        Some(&mut self.slots[slot as usize].record)
    }

    /// The live record in `slot`, as [`SlotTable::insert`] or
    /// [`SlotTable::slot`] returned it.
    pub fn at_mut(&mut self, slot: u32) -> &mut V {
        let s = &mut self.slots[slot as usize];
        debug_assert!(s.key.is_some(), "slot {slot} is free");
        &mut s.record
    }

    /// Store `record` under `key` and return its slot, a freed one first
    /// (whose old record `record` recycles). A live `key` is refused with
    /// [`NkError::AlreadyRegistered`] and keeps its record.
    pub fn insert(&mut self, key: K, record: V) -> NkResult<u32> {
        let slot = self.free.last().copied().unwrap_or(self.slots.len() as u32);
        if let Some(live) = self.index.insert(key, slot) {
            self.index.insert(key, live);
            return Err(NkError::AlreadyRegistered);
        }
        match self.free.pop() {
            Some(_) => {
                let s = &mut self.slots[slot as usize];
                s.key = Some(key);
                let old = std::mem::replace(&mut s.record, record);
                s.record.recycle(old);
            }
            None => self.slots.push(Slot {
                key: Some(key),
                record,
            }),
        }
        Ok(slot)
    }

    /// Free `key`'s slot and return its record, which stays in the slot
    /// until the next insert recycles it: take from it what outlives the
    /// key.
    pub fn remove(&mut self, key: &K) -> Option<&mut V> {
        let slot = self.index.remove(key)?;
        self.free.push(slot);
        let s = &mut self.slots[slot as usize];
        s.key = None;
        Some(&mut s.record)
    }

    /// Every live key, ascending: a control-path walk (collects, then
    /// sorts).
    pub fn sorted_keys(&self) -> Vec<K>
    where
        K: Ord,
    {
        self.index.sorted_keys()
    }

    /// True when `pred` holds for some live key (asked like
    /// [`DetMap::any`]).
    pub fn any(&self, pred: impl Fn(&K) -> bool) -> bool {
        self.index.any(|key, _| pred(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record with a queue, recycled the way the socket records are.
    struct Rec {
        id: u32,
        queue: Vec<u32>,
    }

    impl Rec {
        fn new(id: u32) -> Self {
            Rec {
                id,
                queue: Vec::new(),
            }
        }
    }

    impl Recycle for Rec {
        fn recycle(&mut self, old: Self) {
            self.queue = old.queue;
            self.queue.clear();
        }
    }

    #[test]
    fn a_freed_slot_is_the_next_keys() {
        let mut t = SlotTable::new();
        let a = t.insert(1u32, Rec::new(1)).unwrap();
        let b = t.insert(2u32, Rec::new(2)).unwrap();
        assert_ne!(a, b);
        assert_eq!(t.remove(&1).map(|r| r.id), Some(1));
        assert!(t.get(&1).is_none() && !t.contains_key(&1));
        let c = t.insert(3u32, Rec::new(3)).unwrap();
        assert_eq!(c, a, "the freed slot is reused");
        assert_eq!((t.slot(&3), t.slot(&1)), (Some(c), None));
        assert_eq!(t.at_mut(c).id, 3);
        assert_eq!(t.get(&2).map(|r| r.id), Some(2));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn a_reused_slot_keeps_its_queue_storage() {
        let mut t = SlotTable::new();
        t.insert(1u32, Rec::new(1)).unwrap();
        t.get_mut(&1).unwrap().queue.extend(0..64);
        let cap = t.get(&1).unwrap().queue.capacity();
        let removed = t.remove(&1).unwrap();
        assert_eq!(removed.queue.len(), 64, "the caller reads what it held");
        let slot = t.insert(2u32, Rec::new(2)).unwrap();
        let rec = t.at_mut(slot);
        assert!(rec.queue.is_empty());
        assert_eq!(rec.queue.capacity(), cap);
    }

    #[test]
    fn a_live_key_is_refused_and_keeps_its_record() {
        let mut t = SlotTable::new();
        t.insert(1u32, Rec::new(10)).unwrap();
        assert_eq!(
            t.insert(1u32, Rec::new(11)).err(),
            Some(NkError::AlreadyRegistered)
        );
        assert_eq!(t.get(&1).map(|r| r.id), Some(10));
        assert_eq!(t.sorted_keys(), vec![1]);
        assert!(t.any(|&k| k == 1) && !t.any(|&k| k == 2));
        assert!(t.remove(&1).is_some() && t.remove(&1).is_none());
        assert!(t.is_empty());
    }
}
