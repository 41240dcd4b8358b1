//! The top-K hot-flow table.
//!
//! Fed from the frames the ToR delivers at the round barrier — the one
//! place every cross-host frame passes in a deterministic order — the
//! table keeps the K heaviest 4-tuples under space-saving semantics
//! (Metwally et al.): when a new flow arrives at a full table, the
//! lightest entry is evicted and the newcomer *inherits* its counts, so
//! the table over-approximates but never loses a genuinely heavy flow.
//! Eviction ties break on the smaller key, keeping the table a pure
//! function of the observation sequence.

/// A directional transport 4-tuple.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct FlowKey {
    /// Source address.
    pub src_ip: u32,
    /// Source port.
    pub src_port: u16,
    /// Destination address.
    pub dst_ip: u32,
    /// Destination port.
    pub dst_port: u16,
}

serde::impl_serialize!(struct FlowKey { src_ip, src_port, dst_ip, dst_port });

/// Accumulated weight of one tracked flow.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowStat {
    /// Wire bytes observed (headers included), possibly inherited from an
    /// evicted lighter flow.
    pub bytes: u64,
    /// Frames observed.
    pub ops: u64,
}

serde::impl_serialize!(struct FlowStat { bytes, ops });

/// A fixed-capacity top-K flow table with space-saving eviction. Internal
/// state — a dump serializes [`FlowTable::top`] as a `Vec`.
///
/// At most K slots, in no order: a hit adds in place, and a miss at a full
/// table overwrites the lightest slot, so no observation allocates or
/// reorders anything.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FlowTable {
    k: usize,
    slots: Vec<(FlowKey, FlowStat)>,
}

impl FlowTable {
    /// A table tracking at most `k` flows.
    pub fn new(k: usize) -> Self {
        FlowTable {
            k,
            slots: Vec::new(),
        }
    }

    /// Observe `frames` wire frames of `bytes` wire bytes in all on `key`
    /// (a train delivered as one object counts each of its frames).
    pub fn observe(&mut self, key: FlowKey, frames: u64, bytes: u64) {
        if let Some((_, stat)) = self.slots.iter_mut().find(|(k, _)| *k == key) {
            stat.bytes += bytes;
            stat.ops += frames;
            return;
        }
        if self.slots.len() < self.k {
            self.slots.push((key, FlowStat { bytes, ops: frames }));
            return;
        }
        // Space-saving: the newcomer takes the lightest slot (ties on the
        // smaller key) and inherits its counts. Nothing to take at K = 0.
        let Some(victim) = self.slots.iter_mut().min_by_key(|(k, s)| (s.bytes, *k)) else {
            return;
        };
        *victim = (
            key,
            FlowStat {
                bytes: victim.1.bytes + bytes,
                ops: victim.1.ops + frames,
            },
        );
    }

    /// Tracked flows, heaviest first (ties on the smaller key).
    pub fn top(&self) -> Vec<(FlowKey, FlowStat)> {
        let mut out = self.slots.clone();
        out.sort_by_key(|(k, s)| (std::cmp::Reverse(s.bytes), *k));
        out
    }

    /// Number of tracked flows.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(src_port: u16) -> FlowKey {
        FlowKey {
            src_ip: 0x0A01_0001,
            src_port,
            dst_ip: 0xC0A8_0001,
            dst_port: 7,
        }
    }

    /// Heavy flows survive a stream of one-off light flows: the defining
    /// space-saving property.
    #[test]
    fn heavy_flows_survive_churn() {
        let mut table = FlowTable::new(4);
        for round in 0..50u64 {
            table.observe(key(1), 1, 10_000);
            table.observe(key(2), 1, 5_000);
            // A fresh light flow every round churns the tail slots.
            table.observe(key(100 + round as u16), 1, 10);
        }
        assert_eq!(table.len(), 4);
        let top = table.top();
        assert_eq!(top[0].0, key(1));
        assert_eq!(top[0].1.bytes, 500_000);
        assert_eq!(top[0].1.ops, 50);
        assert_eq!(top[1].0, key(2));
    }

    /// Eviction inherits the victim's counts (over-approximation, never
    /// undercount) and ties break on the smaller key.
    #[test]
    fn eviction_inherits_counts_deterministically() {
        let mut table = FlowTable::new(2);
        table.observe(key(1), 1, 100);
        table.observe(key(2), 1, 100); // same weight: key(1) < key(2)
        table.observe(key(3), 1, 1); // evicts key(1), inherits its 100 bytes
        let top = table.top();
        assert_eq!(top.len(), 2);
        assert_eq!(top[0], (key(3), FlowStat { bytes: 101, ops: 2 }));
        assert_eq!(top[1], (key(2), FlowStat { bytes: 100, ops: 1 }));
    }

    /// A train of frames counts as that many ops, one call or many.
    #[test]
    fn a_train_counts_each_of_its_frames() {
        let (mut whole, mut one_by_one) = (FlowTable::new(2), FlowTable::new(2));
        whole.observe(key(1), 3, 4_542);
        (0..3).for_each(|_| one_by_one.observe(key(1), 1, 1_514));
        assert_eq!(whole, one_by_one);
        assert_eq!(
            whole.top()[0].1,
            FlowStat {
                bytes: 4_542,
                ops: 3
            }
        );
    }

    #[test]
    fn zero_capacity_observes_nothing() {
        let mut table = FlowTable::new(0);
        table.observe(key(1), 1, 100);
        assert!(table.is_empty());
    }
}
