//! [`DetMap`]: the hash table for a table that is only ever *looked up*.
//!
//! The per-message path is a chain of keyed lookups (guest socket →
//! connection table → ServiceLib's tuple map → the stack's demultiplexer and
//! socket table), and a B-tree pays a pointer chase and a run of key
//! comparisons per level for an ordering none of those lookups uses. A hash
//! table does not — but a hash table's *iteration order* is an accident of
//! capacity, insertion history and hasher, and one walk of it that reaches an
//! NQE, a segment or a report breaks byte-identical replay (the `hash-order`
//! invariant, README "Static analysis"). `DetMap` keeps the lookup and makes
//! the hazard unrepresentable instead of forbidden: there is no way to visit
//! its entries in table order. The only walks are [`DetMap::sorted_keys`] and
//! [`DetMap::sorted`], which collect and then sort by key; the only other
//! whole-table operations are the predicates [`DetMap::any`],
//! [`DetMap::count`] and [`DetMap::retain`], whose closures are `Fn` — they
//! can answer a question about an entry but cannot record the order they
//! were asked in. So no result, digest, golden or `ObsDump` can depend on the
//! layout, by construction, and this file carries the workspace's one
//! sanctioned use of the hash map clippy otherwise bans.
//!
//! Choosing: *is the table ever walked in key order on a live path?* If so
//! it stays a `BTreeMap` (timers, epoll interest, every host/cluster/control
//! map). If it is only looked up, it is a `DetMap`: `TcpStack::{ids, demux,
//! listeners}`, ServiceLib's `by_stack` and `ConnTable::entries`
//! (`scripts/check-one-path.sh` holds these five to it, and this module's
//! test holds the mixer to spreading their keys). If it holds the records
//! of short-lived sockets, it is a [`crate::SlotTable`], whose key map is a
//! `DetMap` and whose freed slots keep their records' queue storage for the
//! next: GuestLib's `sockets` and ServiceLib's `socks` (the same script
//! holds both to it).
//! A table that is neither can be no table at all: the hugepage allocator's
//! chunks are two line bitmaps, not a map of live chunks beside a tree of
//! free extents.
//!
//! # What the fixed hasher does and does not promise
//!
//! The mixer below is public and fixed: no per-process seed, no
//! `RandomState`. That is not what makes results repeatable — the API is —
//! but it keeps *timing* repeatable, which the benchmark wants. The price is
//! the one property a B-tree had and this does not: a worst case independent
//! of the keys. Three of the tables built on `DetMap` are keyed by values the
//! other side of a trust boundary chooses — guest socket ids in ServiceLib's
//! slot table's key map and CoreEngine's `ConnTable`, remote 4-tuples in the
//! stack's `demux` — and a peer that knows the mixer can choose keys that
//! share a bucket chain, making each lookup linear in the keys it planted.
//! Lookup *cost* under chosen keys is therefore not bounded the way a
//! B-tree's was; lookup *results* can never depend on it. Keying the hasher
//! per process is the standard answer and is safe here precisely *because*
//! no order is observable: it would change nothing but timing. It is not
//! done yet; ROADMAP item 3 (the hostile guest) owns measuring chosen-key
//! collisions before doing it.

use std::hash::{BuildHasherDefault, Hash, Hasher};

/// The fixed hasher: each written word is folded into a 64-bit state with a
/// rotate, xor and odd multiply (a bijection of the state per word, so keys
/// that differ in one field keep distinct states), and `finish` runs the
/// SplitMix64 finalizer so every input bit reaches every output bit — the
/// table indexes with the low bits and tags with the high ones.
#[derive(Clone, Copy, Default)]
struct Mix64(u64);

impl Hasher for Mix64 {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    fn write_u16(&mut self, v: u16) {
        self.write_u64(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        let x = self.0;
        let x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
}

/// A keyed table with O(1) lookups and no observable order (see the module
/// documentation for when to use it and what the fixed hasher implies).
#[expect(
    clippy::disallowed_types,
    reason = "hash-order: the one sanctioned hash map. It is private to this \
              type, the hasher is fixed, and nothing here iterates it except \
              to sort the result by key or to fold an `Fn` predicate, so its \
              layout cannot reach a caller"
)]
pub struct DetMap<K, V> {
    map: std::collections::HashMap<K, V, BuildHasherDefault<Mix64>>,
}

impl<K, V> Default for DetMap<K, V> {
    fn default() -> Self {
        DetMap {
            map: Default::default(),
        }
    }
}

impl<K, V> DetMap<K, V> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the table holds nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl<K: Eq + Hash, V> DetMap<K, V> {
    /// The value stored under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }

    /// The value stored under `key`, mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.map.get_mut(key)
    }

    /// True when an entry exists under `key`.
    pub fn contains_key(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Store `value` under `key`, returning what it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.map.insert(key, value)
    }

    /// Remove and return the value under `key`.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.map.remove(key)
    }

    /// The value under `key`, first storing `make()` there if it is absent.
    pub fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        self.map.entry(key).or_insert_with(make)
    }

    /// True when `pred` holds for some entry. Entries are asked in no
    /// particular order; `pred` is `Fn`, so it cannot tell.
    pub fn any(&self, pred: impl Fn(&K, &V) -> bool) -> bool {
        self.map.iter().any(|(k, v)| pred(k, v))
    }

    /// Number of entries `pred` holds for (asked like [`DetMap::any`]).
    pub fn count(&self, pred: impl Fn(&K, &V) -> bool) -> usize {
        self.map.iter().filter(|(k, v)| pred(k, v)).count()
    }

    /// Drop every entry `keep` refuses (asked like [`DetMap::any`]; `keep`
    /// may edit the value it is shown).
    pub fn retain(&mut self, keep: impl Fn(&K, &mut V) -> bool) {
        self.map.retain(|k, v| keep(k, v));
    }

    /// Every entry, ascending by key: the only way to walk the table.
    /// Collects, then sorts — a control-path operation, not a datapath one.
    pub fn sorted(&self) -> Vec<(&K, &V)>
    where
        K: Ord,
    {
        let mut entries: Vec<(&K, &V)> = self.map.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        entries
    }

    /// Every key, ascending (owned, so the table can be edited while the
    /// list is walked).
    pub fn sorted_keys(&self) -> Vec<K>
    where
        K: Ord + Clone,
    {
        let mut keys: Vec<K> = self.map.keys().cloned().collect();
        keys.sort_unstable();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConnKey, QueueSetId, SockAddr, SocketId, VmId};
    use std::hash::BuildHasher;

    /// Keys per shape: the scale of a datapath table.
    const KEYS: u32 = 1_000;
    /// Buckets of a table holding [`KEYS`] entries (a power of two, loaded
    /// to at most 7/8): it indexes with the low 11 bits of the hash.
    const BUCKETS: u64 = 2_048;

    /// How many distinct low-bit buckets `keys` land in.
    fn buckets_filled<K: Hash>(keys: impl Iterator<Item = K>) -> usize {
        let hasher = BuildHasherDefault::<Mix64>::default();
        let mut filled = vec![false; BUCKETS as usize];
        for key in keys {
            filled[(hasher.hash_one(&key) & (BUCKETS - 1)) as usize] = true;
        }
        filled.iter().filter(|&&f| f).count()
    }

    /// The fixed mixer spreads each datapath key shape, taken sequentially
    /// as the system hands them out, like a random function: [`KEYS`] keys
    /// fill at least 95 % of the buckets a uniformly random hash fills on
    /// average, `BUCKETS · (1 − (1 − 1/BUCKETS)^KEYS)` ≈ 790. A mixer that
    /// kept only the last word written puts every 4-tuple whose source port
    /// is not its last field in one bucket.
    #[test]
    fn sequential_datapath_keys_fill_the_low_bit_buckets() {
        let random = BUCKETS as f64 * (1.0 - (1.0 - 1.0 / BUCKETS as f64).powi(KEYS as i32));
        let (nsm, remote) = (0x0A00_0010, 0x0A00_0200);
        let port = |i: u32| 49_152 + i as u16;
        let shapes = [
            // The NSM stack's `demux` key of its own connections: (local,
            // remote), the source port local.
            (
                "4-tuple, source port local",
                buckets_filled(
                    (0..KEYS).map(|i| (SockAddr::new(nsm, port(i)), SockAddr::new(remote, 7))),
                ),
            ),
            // A listening stack's: the source port remote.
            (
                "4-tuple, source port remote",
                buckets_filled(
                    (0..KEYS).map(|i| (SockAddr::new(remote, 7), SockAddr::new(nsm, port(i)))),
                ),
            ),
            // `TcpStack::ids`, ServiceLib's `by_stack` and GuestLib's `sockets`.
            ("socket id", buckets_filled((1..=KEYS).map(SocketId))),
            // ServiceLib's `socks`.
            (
                "guest tuple",
                buckets_filled((1..=KEYS).map(|i| (VmId(1), SocketId(i)))),
            ),
            // CoreEngine's `ConnTable`: a guest tuple with its queue set.
            (
                "connection key",
                buckets_filled((1..=KEYS).map(|i| ConnKey {
                    entity: 1,
                    queue_set: QueueSetId(0),
                    socket: SocketId(i),
                })),
            ),
        ];
        for (shape, filled) in shapes {
            assert!(
                filled as f64 >= 0.95 * random,
                "{shape}: {KEYS} keys filled {filled} of {BUCKETS} buckets; a random hash fills {random:.0}"
            );
        }
    }
}
