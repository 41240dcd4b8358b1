//! Intra-host sharding: NSM share lanes.
//!
//! A [`crate::NetKernelHost`] multiplexes many tenant VMs onto few NSM
//! shares — the paper's consolidation argument — which makes one big host
//! the natural unit that *doesn't* parallelise when a cluster deals whole
//! hosts onto worker threads. This module splits the host's datapath below
//! the host boundary: each NSM share group (the NSMs reachable from a set of
//! VMs, with those VMs' engine ports, table entries and queues) becomes a
//! [`ShareLane`] that polls independently on a worker thread, while the
//! serial remainder — the vNIC/switch fabric, remote stacks, the
//! shared-memory core ledger and any ungrouped VM — stays behind as the
//! *host hub*, polled by the coordinator at the round barrier
//! (`NetKernelHost::hub_round`).
//!
//! The only cross-thread channel is a wait-free unbounded SPSC queue
//! ([`nk_queue::unbounded()`]: one producer, one consumer, pushes that never
//! fail, so a report burst can never stall a lane or skew behaviour with
//! shard timing) from each lane to its hub, carrying [`LaneReport`]s:
//! per-component work counts the hub folds — in lane-key order — into the
//! cycle ledgers (so pool accounting is identical to an undecomposed host)
//! and into per-lane load counters (so the executor's weighted placement
//! can deal heavy lanes first).
//!
//! Determinism: lanes touch pairwise-disjoint state (the grouping closes
//! over every VM↔NSM edge — mapping, table pins, NSM-held VM state — so no
//! engine traffic or region access crosses a lane boundary), which makes
//! lane polls commute; the hub runs strictly after all lanes each round and
//! drains reports in lane-key order. Any thread count therefore produces
//! byte-identical state to the serial whole-host poll.

use crate::host::NsmInstance;
use nk_engine::CoreEngine;
use nk_queue::unbounded::UnboundedProducer;
use nk_sim::Pollable;
use nk_types::NsmId;
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

/// One NSM share group carved out of a [`crate::NetKernelHost`] for a poll
/// phase: an engine shard (the group's VM/NSM ports, mappings and table
/// entries) plus the group's NSM instances, with an SPSC report edge back to
/// the host hub. Created by `NetKernelHost::split_lanes`, polled on a worker
/// thread via [`ShareLane::poll_round`], merged back by
/// `NetKernelHost::absorb_lanes`.
pub struct ShareLane {
    /// Lane key: the smallest NSM id in the group. Stable across rounds and
    /// steps (for a fixed topology), so weighted placement can carry load
    /// history from one step to the next.
    pub(crate) key: NsmId,
    /// The group's slice of the CoreEngine.
    pub(crate) engine: CoreEngine,
    /// The group's NSM instances, polled in ascending id order.
    pub(crate) members: BTreeMap<NsmId, NsmInstance>,
    /// Report edge to the host hub.
    pub(crate) tx: UnboundedProducer<LaneReport>,
}

// Lanes move onto executor worker threads; a non-Send field would surface
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

    /// One poll round over the lane's slice of the datapath: the engine
    /// shard first (exactly where the whole-host round polls the engine),
    /// then each member NSM in ascending id order. Work counts are reported
    /// to the hub over the SPSC edge for ledger charging and lane weighting;
    /// the return value feeds the executor's quiescence detection.
    pub fn poll_round(&mut self, now_ns: u64) -> usize {
        let engine_work = Pollable::poll(&mut self.engine, now_ns);
        if engine_work > 0 {
            self.tx.push(LaneReport::Engine {
                work: engine_work as u64,
            });
        }
        let mut work = engine_work;
        for (id, nsm) in self.members.iter_mut() {
            let nsm_work = Pollable::poll(nsm, now_ns);
            if nsm_work > 0 {
                self.tx.push(LaneReport::Nsm {
                    id: *id,
                    work: nsm_work as u64,
                });
            }
            work += nsm_work;
        }
        work
    }
}
