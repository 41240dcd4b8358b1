//! The host poll round, and intra-host sharding: NSM share lanes.
//!
//! A poll round is written once. `poll_group` polls an engine and then its
//! NSMs in ascending id and hands every non-zero work count to a sink as a
//! [`LaneReport`]; the host's round (`poll_datapath`) runs it over whatever
//! of the datapath is resident, books the reports — its own and those of
//! any lanes that are out — into the cycle ledgers through one closure, and
//! ends in `hub_tail`: the engine's charge, remote stacks, the virtual
//! switch. A whole host is simply the case with no lane out.
//!
//! A [`crate::NetKernelHost`] multiplexes many tenant VMs onto few NSM
//! shares — the paper's consolidation argument — which makes one big host
//! the natural unit that *doesn't* parallelise when a cluster deals whole
//! hosts onto worker threads. This module splits the host's datapath below
//! the host boundary: each NSM share group (the NSMs reachable from a set of
//! VMs, with those VMs' engine ports, table entries and queues) becomes a
//! [`ShareLane`] that polls independently on an executor thread, while the
//! serial remainder — the vNIC/switch fabric, remote stacks, the
//! shared-memory core ledger and any ungrouped VM — stays behind as the
//! *host hub*: the host's own [`NetKernelHost::poll_round`], run by the
//! executor's caller between rounds.
//!
//! The only cross-thread channel is a report edge from each lane to its
//! hub: a `Mutex<Vec<LaneReport>>` the executor's round rendezvous orders.
//! A lane appends its round's [`LaneReport`]s once, at the end of its poll;
//! the hub drains every edge once per hub round, after every helper
//! reported the round done, so no lock is ever contended. The reports are
//! per-component work counts the hub folds
//! — in lane-key order — into the cycle ledgers (so pool accounting is
//! identical to an undecomposed host) and into per-lane load counters (each
//! lane of the next split carries its own as [`ShareLane::weight`], so the
//! executor can deal heavy lanes first).
//!
//! Determinism: lanes touch pairwise-disjoint state (the grouping closes
//! over every VM↔NSM edge — mapping, table pins, NSM-held VM state — so no
//! engine traffic or region access crosses a lane boundary), which makes
//! lane polls commute; the hub runs strictly after all lanes each round and
//! drains reports in lane-key order. Any thread count therefore produces
//! byte-identical state to the serial whole-host poll.

use crate::host::NetKernelHost;
use nk_engine::CoreEngine;
use nk_service::Nsm;
use nk_sim::{Pollable, PoolMember};
use nk_types::{NsmId, VmId};
use std::collections::BTreeMap;

/// One work report pushed from a share lane to its host hub during a poll
/// round. Reports are only sent for non-zero work, so a quiescent lane stays
/// silent and the hub's drain cost tracks actual activity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaneReport {
    /// NQEs switched by the lane's engine shard this round.
    Engine {
        /// Work items (NQEs forwarded + delivered).
        work: u64,
    },
    /// Work done by one NSM share this round.
    Nsm {
        /// Which share (for per-NSM pool charging).
        id: NsmId,
        /// Work items (NQEs translated + segments processed).
        work: u64,
    },
}

/// The report edge from one lane to its host hub. The lane holds one clone
/// and the hub the other.
#[derive(Clone, Default)]
#[expect(
    clippy::disallowed_types,
    reason = "cross-shard-locks: the lane report edge. A lane appends to it \
              once per round while the units poll; the hub drains it once per \
              hub round, after every helper reported the round done. The \
              executor crew's release/done rendezvous orders every lock, so \
              none is ever contended."
)]
pub(crate) struct ReportEdge(std::sync::Arc<std::sync::Mutex<Vec<LaneReport>>>);

impl ReportEdge {
    /// Lane side: hand over a round's reports, leaving `reports` empty.
    fn append(&self, reports: &mut Vec<LaneReport>) {
        self.0
            .lock()
            .expect("the hub never panics holding a report edge")
            .append(reports);
    }

    /// Hub side: hand every report to `f`, in the order the lane sent them.
    fn drain(&self, f: impl FnMut(LaneReport)) {
        self.0
            .lock()
            .expect("a lane never panics holding its report edge")
            .drain(..)
            .for_each(f);
    }
}

/// One NSM share group carved out of a [`crate::NetKernelHost`] for a poll
/// phase: an engine shard (the group's VM/NSM ports, mappings and table
/// entries) plus the group's NSM instances, with a report edge back to the
/// host hub. Created by `NetKernelHost::split_lanes`, polled on an
/// executor thread via [`ShareLane::poll_round`], merged back by
/// `NetKernelHost::absorb_lanes` or, one at a time, `absorb_lane`.
pub struct ShareLane {
    /// Lane key: the smallest NSM id in the group. Stable across rounds and
    /// steps (for a fixed topology), so weighted placement can carry load
    /// history from one step to the next.
    pub(crate) key: NsmId,
    /// Work the lane of this key reported while the host was last split.
    pub(crate) weight: u64,
    /// The group's slice of the CoreEngine.
    pub(crate) engine: CoreEngine,
    /// The group's NSM instances, polled in ascending id order.
    pub(crate) members: BTreeMap<NsmId, Nsm>,
    /// The reports of the round being polled, handed to `edge` at its end.
    pub(crate) reports: Vec<LaneReport>,
    /// Report edge to the host hub.
    pub(crate) edge: ReportEdge,
}

// Lanes move onto executor threads; a non-Send field would surface
// as an inscrutable error in `nk-cluster`, so pin the bound down here.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<ShareLane>();
};

impl ShareLane {
    /// The lane key (smallest NSM id in the group).
    pub fn key(&self) -> NsmId {
        self.key
    }

    /// The work this lane's key reported during the host's previous lane
    /// phase (0 for a new key) — the executor's dealing weight. Scheduling
    /// input only: results never depend on it.
    pub fn weight(&self) -> u64 {
        self.weight
    }

    /// One poll round over the lane's slice of the datapath: the engine
    /// shard first (exactly where the whole-host round polls the engine),
    /// then each member NSM in ascending id order. Work counts are reported
    /// to the hub over the report edge, once per round, for ledger charging
    /// and lane weighting; the return value feeds the executor's quiescence
    /// detection.
    pub fn poll_round(&mut self, now_ns: u64) -> usize {
        let reports = &mut self.reports;
        let work = poll_group(&mut self.engine, &mut self.members, now_ns, |report| {
            reports.push(report)
        });
        if !self.reports.is_empty() {
            self.edge.append(&mut self.reports);
        }
        work
    }
}

impl Pollable for ShareLane {
    fn poll(&mut self, now_ns: u64) -> usize {
        self.poll_round(now_ns)
    }
}

/// The part of a round every NSM share group runs, whether it is a lane or
/// the whole host: the engine first, then the NSMs in ascending id, every
/// non-zero work count handed to `sink`. Returns the work done.
fn poll_group(
    engine: &mut CoreEngine,
    nsms: &mut BTreeMap<NsmId, Nsm>,
    now_ns: u64,
    mut sink: impl FnMut(LaneReport),
) -> usize {
    let mut work = Pollable::poll(engine, now_ns);
    if work > 0 {
        sink(LaneReport::Engine { work: work as u64 });
    }
    for (id, nsm) in nsms.iter_mut() {
        let nsm_work = Pollable::poll(nsm, now_ns);
        if nsm_work > 0 {
            sink(LaneReport::Nsm {
                id: *id,
                work: nsm_work as u64,
            });
        }
        work += nsm_work;
    }
    work
}

impl NetKernelHost {
    /// One poll round over everything resident in the host, in a fixed
    /// order: CoreEngine, the NSMs, then the hub tail. With no lane out that
    /// is the whole datapath; while the host is split it is the hub's share
    /// — the resident engine (ungrouped VMs; also what keeps
    /// `EngineStats::poll_rounds` counting host rounds) — plus the reports
    /// of the lanes that polled before it, drained in lane-key order. Every
    /// report, local or from a lane, is booked the same way, so pool
    /// accounting cannot tell a split host from a whole one.
    pub(crate) fn poll_datapath(&mut self, now_ns: u64) -> usize {
        // Nobody reads the ledgers without a control plane (host- or
        // cluster-level); keep the charging off the hot path in that case.
        let mut pools = self.accounting.then_some(&mut self.pools);
        // Each NSM work item is roughly one NQE translated plus one
        // socket-level message processed by the stack; precise per-figure
        // costs live in the perf model, this is the load signal the
        // autoscaler watches.
        let per_item = self.cost.nqe_translate + self.cost.kernel_tx.per_msg;
        let mut engine_work = 0u64;
        let mut book = |report: LaneReport| match report {
            LaneReport::Engine { work } => {
                engine_work += work;
                work
            }
            LaneReport::Nsm { id, work } => {
                if let Some(pools) = pools.as_deref_mut() {
                    let cycles = (work as f64 * per_item) as u64;
                    pools.charge_up_to(PoolMember::Nsm(id), cycles);
                }
                work
            }
        };
        let work = poll_group(&mut self.engine, &mut self.nsms, now_ns, |report| {
            book(report);
        });
        for (key, edge) in self.lane_rx.iter() {
            let mut lane_load = 0u64;
            edge.drain(|report| lane_load += book(report));
            if lane_load > 0 {
                *self.lane_loads.entry(*key).or_insert(0) += lane_load;
            }
        }
        work + self.hub_tail(engine_work, now_ns)
    }

    /// The serial end of every round: one engine charge over the round's
    /// summed switching work (the cost curve is batched, so shard counts
    /// are summed before costing and a split host charges exactly what a
    /// whole one does), then remote stacks, then the virtual switch.
    fn hub_tail(&mut self, engine_work: u64, now_ns: u64) -> usize {
        if self.accounting && engine_work > 0 {
            let cycles = self.cost.switch_cost(engine_work, self.cfg.batch_size);
            self.pools.charge_up_to(PoolMember::Engine, cycles as u64);
        }
        let mut work = 0;
        for remote in self.remotes.values_mut() {
            work += Pollable::poll(remote, now_ns);
            // A remote's application drives its sockets by polling them
            // and nothing reads the stack's event queue, so the round's
            // events are dropped here rather than piling up for the life
            // of the host.
            remote.discard_events();
        }
        work + Pollable::poll(&mut self.switch, now_ns)
    }

    /// Split the datapath into share lanes: the connected components of the
    /// VM↔NSM edge relation (engine mapping, connection-table pins, NSM-held
    /// VM state, draining shares), keyed by each group's smallest NSM id.
    /// VMs reachable from no live NSM (e.g. mapped to a crashed share) stay
    /// resident in the host's engine and are served by the hub exactly as
    /// the serial poll would. The host keeps the hub end of each lane's
    /// report edge; callers must poll [`ShareLane::poll_round`] before each
    /// [`NetKernelHost::poll_round`] — which while split is the hub's share
    /// of the round and returns only the work done *here* — and eventually
    /// hand every lane back to [`NetKernelHost::absorb_lanes`].
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

        // Last lane phase's loads become this one's dealing weights.
        let mut loads = std::mem::take(&mut self.lane_loads);
        let mut lanes = BTreeMap::new();
        for (key, members) in group_nsms {
            let vms = group_vms.remove(&key).unwrap_or_default();
            let engine = self.engine.extract_shard(&vms, &members);
            let mut member_map = BTreeMap::new();
            for id in members {
                let nsm = self.nsms.remove(&id).expect("grouped NSMs are live");
                member_map.insert(id, nsm);
            }
            let edge = ReportEdge::default();
            self.lane_rx.insert(key, edge.clone());
            lanes.insert(
                key,
                ShareLane {
                    key,
                    weight: loads.remove(&key).unwrap_or(0),
                    engine,
                    members: member_map,
                    reports: Vec::new(),
                    edge,
                },
            );
        }
        lanes
    }

    /// Merge lanes produced by [`NetKernelHost::split_lanes`] back into the
    /// host (engine shards re-absorbed, NSM instances re-inserted, report
    /// edges dropped). Must be called with every outstanding lane before
    /// any control-plane operation touches the host.
    pub fn absorb_lanes(&mut self, lanes: BTreeMap<NsmId, ShareLane>) {
        for (key, lane) in lanes {
            debug_assert_eq!(key, lane.key);
            self.absorb_lane(lane);
        }
        debug_assert!(self.lane_rx.is_empty(), "a lane was never handed back");
    }

    /// Merge one lane produced by [`NetKernelHost::split_lanes`] back into
    /// the host. The host is whole again once every lane is back; debug
    /// builds check that at the step's close ("a lane is out").
    pub fn absorb_lane(&mut self, lane: ShareLane) {
        self.engine.absorb_shard(lane.engine);
        let mut members = lane.members;
        self.nsms.append(&mut members);
        self.lane_rx.remove(&lane.key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::testutil::*;
    use nk_types::{HostConfig, NsmConfig, SockAddr, SocketApi, VmConfig, VmToNsmPolicy};

    /// Driving a split host — lanes polled to quiescence, hub at each round
    /// barrier — is byte-identical to the serial cluster-facing protocol:
    /// same round count, same stats, same bytes on the wire. This is the
    /// host-level commutation property intra-host sharding rests on.
    #[test]
    fn lane_decomposition_matches_serial_poll_protocol() {
        let rig = || {
            let cfg = HostConfig::new()
                .with_vm(VmConfig::new(VmId(1)))
                .with_vm(VmConfig::new(VmId(2)))
                .with_nsm(NsmConfig::kernel(NsmId(1)))
                .with_nsm(NsmConfig::kernel(NsmId(2)))
                .with_mapping(VmToNsmPolicy::Static(vec![
                    (VmId(1), NsmId(1)),
                    (VmId(2), NsmId(2)),
                ]));
            let mut host = NetKernelHost::new(cfg).unwrap();
            host.enable_pool_accounting(Some(2_000_000_000));
            let ls = remote_listener(&mut host);
            let mut socks = Vec::new();
            for vm in [VmId(1), VmId(2)] {
                let guest = host.guest_mut(vm).unwrap();
                let s = guest.socket().unwrap();
                guest.connect(s, SockAddr::new(REMOTE_IP, 7)).unwrap();
                socks.push((vm, s));
            }
            (host, ls, socks)
        };
        let (mut serial, ls_a, socks_a) = rig();
        let (mut laned, ls_b, socks_b) = rig();

        let mut rounds_a = Vec::new();
        let mut rounds_b = Vec::new();
        // Per lane, the largest weight a split stamped it with: the load it
        // reported during the step before.
        let mut heaviest = [0u64; 2];
        for step in 0..24 {
            // Both hosts get the same guest-side pushes between steps.
            if step == 8 {
                for (host, socks) in [(&mut serial, &socks_a), (&mut laned, &socks_b)] {
                    for (vm, s) in socks {
                        let guest = host.guest_mut(*vm).unwrap();
                        assert!(guest.poll(*s).writable(), "connect incomplete");
                        guest.send(*s, b"lane equivalence payload").unwrap();
                    }
                }
            }
            serial.begin_step(100_000);
            let mut rounds = 0;
            loop {
                rounds += 1;
                if serial.poll_round() == 0 {
                    break;
                }
            }
            serial.end_step();
            rounds_a.push(rounds);

            laned.begin_step(100_000);
            let mut lanes = laned.split_lanes();
            assert_eq!(lanes.len(), 2, "disjoint shares must form two lanes");
            for (heaviest, lane) in heaviest.iter_mut().zip(lanes.values()) {
                *heaviest = lane.weight().max(*heaviest);
            }
            let mut rounds = 0;
            loop {
                rounds += 1;
                let mut work = 0;
                // Reverse key order on purpose: lane order must not matter.
                for lane in lanes.values_mut().rev() {
                    work += lane.poll_round(laned.now_ns());
                }
                work += laned.poll_round();
                if work == 0 {
                    break;
                }
            }
            laned.absorb_lanes(lanes);
            laned.end_step();
            rounds_b.push(rounds);
        }
        assert_eq!(rounds_a, rounds_b, "round counts diverged");
        assert_eq!(serial.engine_stats(), laned.engine_stats());
        for nsm in [NsmId(1), NsmId(2)] {
            assert_eq!(
                serial.nsm_service_stats(nsm),
                laned.nsm_service_stats(nsm),
                "nsm {nsm:?} stats diverged"
            );
        }
        for vm in [VmId(1), VmId(2)] {
            assert_eq!(serial.vm_switch_stats(vm), laned.vm_switch_stats(vm));
        }
        assert!(heaviest.iter().all(|w| *w > 0), "lanes reported no load");

        // The payloads crossed identically.
        for (host, ls) in [(&mut serial, ls_a), (&mut laned, ls_b)] {
            let remote = host.remote_mut(REMOTE_IP).unwrap();
            let mut total = 0;
            while let Ok((conn, _)) = remote.accept(ls) {
                let mut buf = [0u8; 256];
                while let Ok(n) = remote.recv(conn, &mut buf) {
                    if n == 0 {
                        break;
                    }
                    total += n;
                }
            }
            assert_eq!(total, 2 * b"lane equivalence payload".len());
        }
    }

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
        assert_eq!(lanes[&NsmId(1)].key(), NsmId(1));
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
