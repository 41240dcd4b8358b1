//! The NQE front end every NSM shares (paper §4.2).
//!
//! Whatever stack an NSM runs, it meets CoreEngine the same way: request
//! NQEs arrive on its NK device, payload lives in the hugepage region each
//! served VM shares with it, and answers go back as completion or event
//! NQEs. This module is that ingress: the device, the per-VM regions, the
//! request drain, respond/reply, the counter of NSM-allocated guest socket
//! ids and the failed-`Send` rule. What a request *does* is decided once, by
//! [`crate::service::ServiceLib`], over whichever stack the NSM runs.

use crate::service::ServiceStats;
use nk_queue::{NkDevice, ResponderEnd};
use nk_shmem::HugepageRegion;
use nk_types::constants::NSM_SOCKET_ID_BASE;
use nk_types::{NkResult, Nqe, OpResult, OpType, SocketId, VmId};
use std::collections::BTreeMap;

pub(crate) struct Frontend {
    pub(crate) device: NkDevice<ResponderEnd>,
    pub(crate) regions: BTreeMap<VmId, HugepageRegion>,
    next_guest_sock: u32,
    batch: usize,
    /// The buffer ServiceLib drains batches into, kept between rounds.
    pub(crate) popped: Vec<Nqe>,
    /// Queue set the drain is on.
    queue_set: usize,
    pub(crate) stats: ServiceStats,
}

impl Frontend {
    pub(crate) fn new(device: NkDevice<ResponderEnd>, batch: usize) -> Self {
        Frontend {
            device,
            regions: BTreeMap::new(),
            next_guest_sock: NSM_SOCKET_ID_BASE,
            batch: batch.max(1),
            popped: Vec::new(),
            queue_set: 0,
            stats: ServiceStats::default(),
        }
    }

    /// A fresh guest socket id for a connection the NSM accepted, skipping
    /// any `taken` says is live (a raw-NQE guest or a warm move may hold one).
    pub(crate) fn alloc_guest_sock(&mut self, taken: impl Fn(SocketId) -> bool) -> SocketId {
        while taken(SocketId(self.next_guest_sock)) {
            self.next_guest_sock += 1;
        }
        let id = SocketId(self.next_guest_sock);
        self.next_guest_sock += 1;
        id
    }

    /// Pop the next batch of requests into `batch` and return the
    /// NSM-side queue set it came on: queue sets in index order, each
    /// drained in `batch`-sized pops until empty. `None` once every set is
    /// empty; the next call starts over.
    pub(crate) fn next_batch(&mut self, batch: &mut Vec<Nqe>) -> Option<usize> {
        batch.clear();
        while let Some(end) = self.device.queue_set(self.queue_set) {
            let n = end.pop_requests(batch, self.batch);
            if n > 0 {
                self.stats.requests += n as u64;
                return Some(self.queue_set);
            }
            self.queue_set += 1;
        }
        self.queue_set = 0;
        None
    }

    /// Push a completion or event NQE on NSM-side queue set `nsm_qs`; a
    /// full ring parks it (`nk_queue` never refuses one).
    pub(crate) fn respond(&mut self, nsm_qs: usize, nqe: Nqe) {
        if let Some(end) = self.device.queue_set(nsm_qs) {
            let _ = end.respond(nqe);
            self.stats.responses += 1;
        }
    }

    /// Answer `request` with `res`. A failed `Send` is never consumed, so
    /// its payload chunk is freed and its size echoed: the guest gets its
    /// send credit back (CoreEngine's rule for the Sends it drops).
    pub(crate) fn reply(&mut self, nsm_qs: usize, request: &Nqe, res: NkResult<()>, aux: u32) {
        let result = match res {
            Ok(()) => OpResult::Ok,
            Err(e) => OpResult::Err(e),
        };
        let Some(mut comp) = Nqe::completion_for(request, result, aux) else {
            return;
        };
        if request.op == OpType::Send && res.is_err() {
            if let Some(region) = self.regions.get(&request.vm) {
                let _ = region.free(request.data);
            }
            comp.size = request.size;
        }
        self.respond(nsm_qs, comp);
    }
}
