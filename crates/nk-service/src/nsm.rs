//! The one NSM type a host stores.
//!
//! Every NSM meets CoreEngine through the same NQE front end (the private
//! `frontend` module); what differs is what a request does. The TCP
//! flavour translates it onto a [`nk_netstack::TcpStack`] through
//! [`ServiceLib`](crate::ServiceLib); the shared-memory flavour matches
//! colocated connections itself and moves payload hugepage-to-hugepage.

use crate::service::{ServiceStats, TcpNsm};
use crate::sharedmem::{SharedMemNsm, SharedMemStats};
use nk_shmem::HugepageRegion;
use nk_types::VmId;
use std::collections::BTreeMap;

/// A Network Stack Module of either flavour. Both are boxed: a TCP NSM
/// carries a whole stack, and the host walks its NSM map every round.
pub enum Nsm {
    /// A ServiceLib over a TCP stack: the kernel-stack, mTCP and fair-share
    /// NSMs.
    Tcp(Box<TcpNsm>),
    /// The shared-memory NSM of use case 4 (§6.4).
    SharedMem(Box<SharedMemNsm>),
}

impl Nsm {
    fn regions(&self) -> &BTreeMap<VmId, HugepageRegion> {
        match self {
            Nsm::Tcp(n) => &n.service.front.regions,
            Nsm::SharedMem(n) => &n.front.regions,
        }
    }

    fn regions_mut(&mut self) -> &mut BTreeMap<VmId, HugepageRegion> {
        match self {
            Nsm::Tcp(n) => &mut n.service.front.regions,
            Nsm::SharedMem(n) => &mut n.front.regions,
        }
    }

    /// Map the hugepage region `vm` shares with this NSM.
    pub fn add_vm(&mut self, vm: VmId, region: HugepageRegion) {
        self.regions_mut().insert(vm, region);
    }

    /// The VMs whose regions are mapped here, in id order.
    pub fn wired_vms(&self) -> Vec<VmId> {
        self.regions().keys().copied().collect()
    }

    /// True while `vm`'s region is mapped here.
    pub fn wires(&self, vm: VmId) -> bool {
        self.regions().contains_key(&vm)
    }

    /// True while a socket of the VM lives here: a translated socket (TCP),
    /// or a socket or listener (shared memory).
    pub fn has_sockets_of(&self, vm: VmId) -> bool {
        match self {
            Nsm::Tcp(n) => n.service.has_sockets_of(vm),
            Nsm::SharedMem(n) => n.has_sockets_of(vm),
        }
    }

    /// True while this NSM holds state for the VM: its region is mapped,
    /// or a socket of it is still live.
    pub fn has_vm(&self, vm: VmId) -> bool {
        self.wires(vm) || self.has_sockets_of(vm)
    }

    /// Unmap `vm`'s region and nothing else: no socket is closed. For a VM
    /// that left this NSM and has nothing left here.
    pub fn unwire(&mut self, vm: VmId) {
        self.regions_mut().remove(&vm);
    }

    /// Detach a VM: its region mapping goes, and so do its sockets — closed
    /// in the stack (TCP), or dropped with its listeners (shared memory).
    /// Called when the VM migrates away or leaves the host: a stale mapping
    /// would pin the region alive and resurrect the VM on a later restart.
    pub fn remove_vm(&mut self, vm: VmId) {
        match self {
            Nsm::Tcp(n) => n.service.remove_vm(vm, &mut n.stack),
            Nsm::SharedMem(n) => n.remove_vm(vm),
        }
    }

    /// ServiceLib statistics, for a TCP-stack NSM.
    pub fn service_stats(&self) -> Option<ServiceStats> {
        match self {
            Nsm::Tcp(n) => Some(n.service.stats()),
            Nsm::SharedMem(_) => None,
        }
    }

    /// Shared-memory statistics, for the shared-memory NSM.
    pub fn shm_stats(&self) -> Option<SharedMemStats> {
        match self {
            Nsm::Tcp(_) => None,
            Nsm::SharedMem(n) => Some(n.stats()),
        }
    }
}

impl nk_sim::Pollable for Nsm {
    fn poll(&mut self, now_ns: u64) -> usize {
        match self {
            Nsm::Tcp(n) => n.tick(now_ns),
            Nsm::SharedMem(n) => n.tick(now_ns),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceLib;
    use nk_fabric::switch::VirtualSwitch;
    use nk_netstack::{Segment, StackConfig, TcpStack};
    use nk_queue::{queue_set_pair, NkDevice, RequesterEnd, WakeState};
    use nk_sim::Pollable;
    use nk_types::{
        DataHandle, NkError, Nqe, NsmId, OpResult, OpType, QueueSetId, SocketId, StackKind,
    };

    /// An NSM of `kind` serving VM 1, with the guest's requester end and the
    /// VM's region.
    fn nsm(kind: StackKind) -> (Nsm, RequesterEnd, HugepageRegion) {
        let (guest_end, nsm_end) = queue_set_pair(64);
        let device = NkDevice::new(vec![nsm_end], WakeState::new());
        let mut nsm = match kind {
            StackKind::SharedMem => Nsm::SharedMem(Box::new(SharedMemNsm::new(device, 8))),
            kind => {
                let port = VirtualSwitch::<Segment>::new().attach(0x0A00_0010);
                let stack = TcpStack::new(StackConfig::new(0x0A00_0010), port);
                let service = ServiceLib::new(NsmId(1), device, 8);
                Nsm::Tcp(Box::new(TcpNsm::new(kind, service, stack)))
            }
        };
        let region = HugepageRegion::with_capacity(1 << 20);
        nsm.add_vm(VmId(1), region.clone());
        (nsm, guest_end, region)
    }

    /// The front end answers the same request script the same way whatever
    /// the flavour: an unknown socket is `BadSocket`, an op no NSM serves is
    /// `Unsupported`, `RecvConsumed` is never answered, and a failed `Send`
    /// frees its chunk and returns its size as credit.
    #[test]
    fn both_flavours_give_the_same_front_end_answers() {
        for kind in [StackKind::Kernel, StackKind::SharedMem] {
            let (mut nsm, mut guest_end, region) = nsm(kind);
            let before = region.available();
            let chunk = region.alloc_and_write(&[1u8; 1000]).unwrap();
            let req = |op| Nqe::new(op, VmId(1), QueueSetId(0), SocketId(7));
            let script = [
                (
                    req(OpType::Close),
                    Some((OpType::CloseComplete, NkError::BadSocket)),
                ),
                (
                    req(OpType::GetSockOpt),
                    Some((OpType::GetSockOptComplete, NkError::Unsupported)),
                ),
                (
                    req(OpType::RecvConsumed).with_data(DataHandle::NULL, 10),
                    None,
                ),
                (
                    req(OpType::Send).with_data(chunk, 1000),
                    Some((OpType::SendComplete, NkError::BadSocket)),
                ),
            ];
            for (request, answer) in script {
                guest_end.submit(request).unwrap();
                nsm.poll(0);
                let mut got = Vec::new();
                guest_end.pop_responses(&mut got, 8);
                let got: Vec<_> = got.iter().map(|n| (n.op, n.result(), n.size)).collect();
                let want = answer.map(|(op, e)| (op, OpResult::Err(e), request.size));
                let want: Vec<_> = want.into_iter().collect();
                assert_eq!(got, want, "{kind:?} answering {:?}", request.op);
            }
            assert_eq!(
                region.available(),
                before,
                "{kind:?} kept the failed Send's chunk"
            );
        }
    }
}
