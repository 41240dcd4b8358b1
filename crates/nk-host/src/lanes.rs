//! The NSM share groups a host's datapath falls into.
//!
//! A share group is a connected component of the VM↔NSM edge relation —
//! engine mapping, connection-table pins, NSM-held VM state, draining
//! shares — so no engine traffic or region access crosses a group
//! boundary. [`NetKernelHost::split_lanes`] carves each group out of the
//! host as a [`ShareLane`] (an engine shard plus the member NSMs), and
//! [`NetKernelHost::absorb_lanes`] merges them back.
//!
//! Nothing steps a lane: a cluster's parallel unit is the whole host, and
//! the host's poll round lives in [`crate::host`]. The split and the absorb
//! stay only because the benchmark times them on an idle host
//! (`host.split_absorb_us_*`), which exercises the real grouping and
//! [`CoreEngine::extract_shard`] / [`CoreEngine::absorb_shard`].

use crate::host::NetKernelHost;
use nk_engine::CoreEngine;
use nk_service::Nsm;
use nk_types::{NsmId, VmId};
use std::collections::BTreeMap;

/// One NSM share group carved out of a [`crate::NetKernelHost`] by
/// [`NetKernelHost::split_lanes`]: an engine shard (the group's VM/NSM
/// ports, mappings and table entries) plus the group's NSM instances.
pub struct ShareLane {
    /// Lane key: the smallest NSM id in the group.
    pub(crate) key: NsmId,
    /// The group's slice of the CoreEngine.
    pub(crate) engine: CoreEngine,
    /// The group's NSM instances.
    pub(crate) members: BTreeMap<NsmId, Nsm>,
}

impl NetKernelHost {
    /// Split the datapath into share lanes: the connected components of the
    /// VM↔NSM edge relation (engine mapping, connection-table pins, NSM-held
    /// VM state, draining shares), keyed by each group's smallest NSM id.
    /// VMs reachable from no live NSM (e.g. mapped to a crashed share) stay
    /// resident in the host's engine. Every lane must go back through
    /// [`NetKernelHost::absorb_lanes`] before the host steps again.
    pub fn split_lanes(&mut self) -> BTreeMap<NsmId, ShareLane> {
        // Union-find over NSM ids, linking larger roots under smaller ones
        // so every root is its group's minimum — the lane key.
        let mut parent: BTreeMap<NsmId, NsmId> = self.nsms.keys().map(|id| (*id, *id)).collect();
        fn find(parent: &mut BTreeMap<NsmId, NsmId>, id: NsmId) -> NsmId {
            let mut root = id;
            while parent[&root] != root {
                root = parent[&root];
            }
            let mut cur = id;
            while parent[&cur] != root {
                let next = parent[&cur];
                parent.insert(cur, root);
                cur = next;
            }
            root
        }

        // Every VM↔NSM edge that implies shared state; NSMs sharing a VM
        // fuse into one lane.
        let mut vm_nsms: BTreeMap<VmId, Vec<NsmId>> = BTreeMap::new();
        let note = |vm: VmId, nsm: NsmId, vm_nsms: &mut BTreeMap<VmId, Vec<NsmId>>| {
            if self.nsms.contains_key(&nsm) {
                vm_nsms.entry(vm).or_default().push(nsm);
            }
        };
        for (vm, nsm) in self.engine.vm_nsm_edges() {
            note(vm, nsm, &mut vm_nsms);
        }
        for (id, nsm) in self.nsms.iter() {
            for vm in nsm.wired_vms() {
                vm_nsms.entry(vm).or_default().push(*id);
            }
        }
        for (vm, slot) in self.vms.iter() {
            if let Some(nsm) = slot.draining.filter(|nsm| self.nsms.contains_key(nsm)) {
                vm_nsms.entry(*vm).or_default().push(nsm);
            }
        }
        for nsms in vm_nsms.values() {
            for pair in nsms.windows(2) {
                let (a, b) = (find(&mut parent, pair[0]), find(&mut parent, pair[1]));
                if a != b {
                    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                    parent.insert(hi, lo);
                }
            }
        }

        // Assemble groups: member NSMs and the VMs reaching them.
        let mut group_nsms: BTreeMap<NsmId, Vec<NsmId>> = BTreeMap::new();
        let nsm_ids: Vec<NsmId> = self.nsms.keys().copied().collect();
        for id in nsm_ids {
            let root = find(&mut parent, id);
            group_nsms.entry(root).or_default().push(id);
        }
        let mut group_vms: BTreeMap<NsmId, Vec<VmId>> = BTreeMap::new();
        for (vm, nsms) in &vm_nsms {
            let root = find(&mut parent, nsms[0]);
            group_vms.entry(root).or_default().push(*vm);
        }

        let mut lanes = BTreeMap::new();
        for (key, members) in group_nsms {
            let vms = group_vms.remove(&key).unwrap_or_default();
            let engine = self.engine.extract_shard(&vms, &members);
            let mut member_map = BTreeMap::new();
            for id in members {
                let nsm = self.nsms.remove(&id).expect("grouped NSMs are live");
                member_map.insert(id, nsm);
            }
            lanes.insert(
                key,
                ShareLane {
                    key,
                    engine,
                    members: member_map,
                },
            );
        }
        lanes
    }

    /// Merge lanes produced by [`NetKernelHost::split_lanes`] back into the
    /// host: engine shards re-absorbed, NSM instances re-inserted.
    pub fn absorb_lanes(&mut self, lanes: BTreeMap<NsmId, ShareLane>) {
        for (key, lane) in lanes {
            debug_assert_eq!(key, lane.key);
            self.engine.absorb_shard(lane.engine);
            let mut members = lane.members;
            self.nsms.append(&mut members);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::testutil::*;
    use nk_types::{HostConfig, NsmConfig, SocketApi, VmConfig, VmToNsmPolicy};

    /// A VM pinned to two NSM shares (its mapping moved after connections
    /// were established) fuses both shares into one lane — the split never
    /// severs a live edge.
    #[test]
    fn split_lanes_fuses_shares_linked_by_one_vm() {
        let cfg = HostConfig::new()
            .with_vm(VmConfig::new(VmId(1)))
            .with_vm(VmConfig::new(VmId(2)))
            .with_nsm(NsmConfig::kernel(NsmId(1)))
            .with_nsm(NsmConfig::kernel(NsmId(2)))
            .with_nsm(NsmConfig::kernel(NsmId(3)))
            .with_mapping(VmToNsmPolicy::Static(vec![
                (VmId(1), NsmId(1)),
                (VmId(2), NsmId(3)),
            ]));
        let mut host = NetKernelHost::new(cfg).unwrap();
        let ls = remote_listener(&mut host);
        let s = guest_connect(&mut host);
        host.run(20, 100_000);

        // VM 1 keeps its pinned connection on NSM 1 but new connections go
        // to NSM 2: both shares now share VM 1's state.
        host.migrate_vm(VmId(1), NsmId(2)).unwrap();
        let lanes = host.split_lanes();
        let keys: Vec<NsmId> = lanes.keys().copied().collect();
        assert_eq!(keys, vec![NsmId(1), NsmId(3)], "NSM 1+2 must fuse");
        assert_eq!(lanes[&NsmId(1)].key, NsmId(1));
        host.absorb_lanes(lanes);

        // The host is whole again: the pinned connection still drains.
        let guest = host.guest_mut(VmId(1)).unwrap();
        assert!(guest.poll(s).writable());
        guest.send(s, b"post-absorb").unwrap();
        host.run(20, 100_000);
        let remote = host.remote_mut(REMOTE_IP).unwrap();
        let (conn, _) = remote.accept(ls).unwrap();
        let mut buf = [0u8; 64];
        let n = remote.recv(conn, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"post-absorb");
    }
}
