//! The CoreEngine connection table (paper §4.3, Figure 6).

use nk_types::{ConnKey, DetMap, NsmId, QueueSetId, SocketId, VmId};

/// One connection-table entry: the NSM side of a VM tuple.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConnEntry {
    /// NSM serving this connection.
    pub nsm: NsmId,
    /// NSM-side queue set the connection is pinned to.
    pub nsm_queue_set: QueueSetId,
    /// NSM-side socket id, filled in once the NSM's response reveals it
    /// (step 4 in Figure 6).
    pub nsm_socket: Option<SocketId>,
}

/// The connection table mapping ⟨VM id, queue set, socket⟩ to
/// ⟨NSM id, queue set, socket⟩.
///
/// The datapath only looks tuples up (one `get` per switched NQE), so the
/// table is a [`DetMap`]; every accessor below that returns more than one
/// entry takes them from `sorted()`, in `ConnKey` order — share-lane
/// grouping and guest notification order are part of the determinism
/// contract.
#[derive(Default)]
pub struct ConnTable {
    entries: DetMap<ConnKey, ConnEntry>,
}

impl ConnTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tracked connections.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no connection is tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up the entry for a VM tuple.
    pub fn get(&self, key: &ConnKey) -> Option<&ConnEntry> {
        self.entries.get(key)
    }

    /// Insert or fetch the entry for a VM tuple, choosing the NSM queue set
    /// with `pick` when the tuple is new.
    pub fn get_or_insert_with(
        &mut self,
        key: ConnKey,
        pick: impl FnOnce() -> (NsmId, QueueSetId),
    ) -> &mut ConnEntry {
        self.entries.get_or_insert_with(key, || {
            let (nsm, nsm_queue_set) = pick();
            ConnEntry {
                nsm,
                nsm_queue_set,
                nsm_socket: None,
            }
        })
    }

    /// Record the NSM-side socket id once it is known.
    pub fn complete(&mut self, key: &ConnKey, nsm_socket: SocketId) {
        if let Some(e) = self.entries.get_mut(key) {
            e.nsm_socket = Some(nsm_socket);
        }
    }

    /// Remove the entry for a VM tuple (connection closed).
    pub fn remove(&mut self, key: &ConnKey) -> Option<ConnEntry> {
        self.entries.remove(key)
    }

    /// Remove every entry belonging to a VM (VM shut down, §4.4).
    pub fn remove_vm(&mut self, vm: VmId) -> usize {
        let before = self.entries.len();
        self.entries.retain(|k, _| k.entity != vm.0);
        before - self.entries.len()
    }

    /// Every entry belonging to a VM, sorted by key (non-destructive view;
    /// warm migration pre-validates against this before extracting).
    pub fn entries_for_vm(&self, vm: VmId) -> Vec<(ConnKey, ConnEntry)> {
        self.entries
            .sorted()
            .into_iter()
            .filter(|(k, _)| k.entity == vm.0)
            .map(|(k, e)| (*k, *e))
            .collect()
    }

    /// Remove and return every entry belonging to a VM, sorted by key — the
    /// extraction half of a warm migration's connection transplant. Unlike
    /// [`ConnTable::remove_vm`] the entries come back to the caller, which
    /// re-installs them on the destination host.
    pub fn extract_vm(&mut self, vm: VmId) -> Vec<(ConnKey, ConnEntry)> {
        let out = self.entries_for_vm(vm);
        for (k, _) in &out {
            self.entries.remove(k);
        }
        out
    }

    /// Install a fully formed entry (the installation half of a warm
    /// migration): the tuple pins to `nsm` with a known NSM-side socket.
    /// Refused when the tuple is already pinned.
    pub fn install(&mut self, key: ConnKey, entry: ConnEntry) -> bool {
        if self.entries.contains_key(&key) {
            return false;
        }
        self.entries.insert(key, entry);
        true
    }

    /// Every ⟨VM, NSM⟩ relation currently pinned, one per entry (a VM with
    /// several tuples on one NSM appears repeatedly), in `ConnKey` order.
    /// Share-lane grouping unions over these edges; the order is pinned by
    /// a regression test anyway so no caller can come to depend on an
    /// unstable walk.
    pub fn vm_nsm_pairs(&self) -> Vec<(VmId, NsmId)> {
        self.entries
            .sorted()
            .into_iter()
            .map(|(k, e)| (VmId(k.entity), e.nsm))
            .collect()
    }

    /// Number of connections currently mapped to `nsm`.
    pub fn connections_for_nsm(&self, nsm: NsmId) -> usize {
        self.entries.count(|_, e| e.nsm == nsm)
    }

    /// Number of connections a VM currently has pinned, across all NSMs.
    /// This is the count connection draining watches: a migrated VM's source
    /// share retires when it reaches zero.
    pub fn connections_for_vm(&self, vm: VmId) -> usize {
        self.entries.count(|k, _| k.entity == vm.0)
    }

    /// Number of connections pinned to the `(vm, nsm)` pair — the per-share
    /// drain counter of the ROADMAP's migration drain mode.
    pub fn connections_for_vm_nsm(&self, vm: VmId, nsm: NsmId) -> usize {
        self.entries.count(|k, e| k.entity == vm.0 && e.nsm == nsm)
    }

    /// Remove every entry pinned to `nsm` (the NSM crashed) and return the
    /// affected VM tuples, sorted so callers notify guests in a
    /// deterministic order.
    pub fn remove_nsm(&mut self, nsm: NsmId) -> Vec<ConnKey> {
        let victims: Vec<ConnKey> = self
            .entries
            .sorted()
            .into_iter()
            .filter(|(_, e)| e.nsm == nsm)
            .map(|(k, _)| *k)
            .collect();
        for k in &victims {
            self.entries.remove(k);
        }
        victims
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(vm: u8, qs: u8, sock: u32) -> ConnKey {
        ConnKey::vm(VmId(vm), QueueSetId(qs), SocketId(sock))
    }

    #[test]
    fn insert_lookup_complete_remove() {
        let mut t = ConnTable::new();
        assert!(t.is_empty());
        let e = t.get_or_insert_with(key(1, 0, 7), || (NsmId(1), QueueSetId(2)));
        assert_eq!(e.nsm, NsmId(1));
        assert_eq!(e.nsm_queue_set, QueueSetId(2));
        assert_eq!(e.nsm_socket, None);

        // A second lookup does not re-pick.
        let e = t.get_or_insert_with(key(1, 0, 7), || panic!("must not re-pick"));
        assert_eq!(e.nsm, NsmId(1));

        t.complete(&key(1, 0, 7), SocketId(99));
        assert_eq!(t.get(&key(1, 0, 7)).unwrap().nsm_socket, Some(SocketId(99)));

        assert!(t.remove(&key(1, 0, 7)).is_some());
        assert!(t.get(&key(1, 0, 7)).is_none());
    }

    #[test]
    fn remove_vm_clears_only_that_vm() {
        let mut t = ConnTable::new();
        for sock in 0..5 {
            t.get_or_insert_with(key(1, 0, sock), || (NsmId(1), QueueSetId(0)));
            t.get_or_insert_with(key(2, 0, sock), || (NsmId(1), QueueSetId(0)));
        }
        assert_eq!(t.len(), 10);
        assert_eq!(t.remove_vm(VmId(1)), 5);
        assert_eq!(t.len(), 5);
        assert_eq!(t.connections_for_nsm(NsmId(1)), 5);
    }

    #[test]
    fn remove_nsm_returns_sorted_victims_and_clears_entries() {
        let mut t = ConnTable::new();
        t.get_or_insert_with(key(2, 0, 9), || (NsmId(1), QueueSetId(0)));
        t.get_or_insert_with(key(1, 0, 3), || (NsmId(1), QueueSetId(0)));
        t.get_or_insert_with(key(1, 0, 1), || (NsmId(2), QueueSetId(0)));
        let victims = t.remove_nsm(NsmId(1));
        assert_eq!(victims, vec![key(1, 0, 3), key(2, 0, 9)]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.connections_for_nsm(NsmId(1)), 0);
        assert!(t.remove_nsm(NsmId(1)).is_empty());
    }

    #[test]
    fn extract_and_install_round_trip_entries() {
        let mut t = ConnTable::new();
        t.get_or_insert_with(key(1, 0, 2), || (NsmId(1), QueueSetId(0)));
        t.get_or_insert_with(key(1, 0, 1), || (NsmId(1), QueueSetId(1)));
        t.get_or_insert_with(key(2, 0, 3), || (NsmId(1), QueueSetId(0)));
        t.complete(&key(1, 0, 1), SocketId(77));

        let view = t.entries_for_vm(VmId(1));
        assert_eq!(view.len(), 2);
        assert_eq!(t.len(), 3, "the view is non-destructive");

        let extracted = t.extract_vm(VmId(1));
        assert_eq!(extracted, view, "extraction returns the same sorted set");
        assert_eq!(extracted[0].0, key(1, 0, 1));
        assert_eq!(extracted[0].1.nsm_socket, Some(SocketId(77)));
        assert_eq!(t.connections_for_vm(VmId(1)), 0);
        assert_eq!(t.len(), 1, "other VMs' entries survive");

        // Re-install on "the destination": pinned again, double install
        // refused.
        for (k, e) in &extracted {
            assert!(t.install(*k, *e));
        }
        assert!(!t.install(extracted[0].0, extracted[0].1));
        assert_eq!(t.connections_for_vm(VmId(1)), 2);
    }

    /// Iteration-order pin: the table's walk order is part of the
    /// determinism contract. Entries inserted in scrambled order must come
    /// back in `ConnKey` order from every iterating accessor — a regression
    /// to a hash-ordered map would scramble `vm_nsm_pairs` (share-lane
    /// grouping input) and `remove_nsm` (guest notification order) between
    /// runs and break byte-identical replay.
    #[test]
    fn iteration_order_is_key_sorted_regardless_of_insertion_order() {
        let mut t = ConnTable::new();
        // Scrambled insertion order across VMs, queue sets and sockets.
        for (vm, qs, sock, nsm) in [
            (3u8, 1u8, 9u32, 2u8),
            (1, 0, 5, 1),
            (2, 1, 1, 2),
            (1, 1, 2, 1),
            (3, 0, 7, 1),
            (1, 0, 1, 2),
        ] {
            t.get_or_insert_with(key(vm, qs, sock), || (NsmId(nsm), QueueSetId(0)));
        }
        let pairs = t.vm_nsm_pairs();
        let keys: Vec<ConnKey> = t.entries_for_vm(VmId(1)).iter().map(|(k, _)| *k).collect();
        // Exact pinned orders (ConnKey orders by entity, then queue set,
        // then socket).
        assert_eq!(
            pairs,
            vec![
                (VmId(1), NsmId(2)),
                (VmId(1), NsmId(1)),
                (VmId(1), NsmId(1)),
                (VmId(2), NsmId(2)),
                (VmId(3), NsmId(1)),
                (VmId(3), NsmId(2)),
            ]
        );
        assert_eq!(keys, vec![key(1, 0, 1), key(1, 0, 5), key(1, 1, 2)]);
        let victims = t.remove_nsm(NsmId(2));
        assert_eq!(victims, vec![key(1, 0, 1), key(2, 1, 1), key(3, 1, 9)]);
    }

    #[test]
    fn connections_per_nsm_counts() {
        let mut t = ConnTable::new();
        t.get_or_insert_with(key(1, 0, 1), || (NsmId(1), QueueSetId(0)));
        t.get_or_insert_with(key(1, 0, 2), || (NsmId(2), QueueSetId(0)));
        t.get_or_insert_with(key(2, 0, 3), || (NsmId(2), QueueSetId(0)));
        assert_eq!(t.connections_for_nsm(NsmId(1)), 1);
        assert_eq!(t.connections_for_nsm(NsmId(2)), 2);
        assert_eq!(t.connections_for_nsm(NsmId(9)), 0);
    }

    #[test]
    fn pinned_counts_per_vm_and_per_share() {
        let mut t = ConnTable::new();
        t.get_or_insert_with(key(1, 0, 1), || (NsmId(1), QueueSetId(0)));
        t.get_or_insert_with(key(1, 0, 2), || (NsmId(2), QueueSetId(0)));
        t.get_or_insert_with(key(2, 0, 3), || (NsmId(1), QueueSetId(0)));
        assert_eq!(t.connections_for_vm(VmId(1)), 2);
        assert_eq!(t.connections_for_vm(VmId(2)), 1);
        assert_eq!(t.connections_for_vm(VmId(9)), 0);
        assert_eq!(t.connections_for_vm_nsm(VmId(1), NsmId(1)), 1);
        assert_eq!(t.connections_for_vm_nsm(VmId(1), NsmId(2)), 1);
        assert_eq!(t.connections_for_vm_nsm(VmId(2), NsmId(2)), 0);
        // The drain counter reaches zero as connections close.
        t.remove(&key(1, 0, 1));
        assert_eq!(t.connections_for_vm_nsm(VmId(1), NsmId(1)), 0);
    }
}
