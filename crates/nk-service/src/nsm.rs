//! The one NSM type a host stores.
//!
//! Every NSM is a [`StackNsm`]: ServiceLib, the one request handler, over
//! the stack the NSM runs. The TCP flavour runs a
//! [`TcpStack`](nk_netstack::TcpStack); the shared-memory flavour runs a
//! [`LocalStack`], which pairs colocated sockets inside the NSM and moves
//! payload hugepage-to-hugepage by reference. Both arms of [`Nsm`] run the
//! same code, monomorphised over their stack; the enum only keeps the
//! stack's type. So both end a stream the same way: a stack reports the
//! peer's FIN when it arrives, and ServiceLib holds EOF behind the bytes.
//! Fair sharing is no flavour of its own: a TCP NSM whose congestion
//! control is `VmShared` keeps one window per VM it serves.

use crate::service::{ServiceLib, ServiceStats, StackNsm, TcpNsm};
use nk_netstack::LocalStack;
use nk_queue::ResponderEnd;
use nk_shmem::HugepageRegion;
use nk_types::VmId;

/// A Network Stack Module of either flavour. Both are boxed: a TCP NSM
/// carries a whole stack, and the host walks its NSM map every round.
pub enum Nsm {
    /// A ServiceLib over a TCP stack: the kernel-stack and mTCP NSMs.
    Tcp(Box<TcpNsm>),
    /// A ServiceLib over a [`LocalStack`]: the shared-memory NSM of use case
    /// 4 (§6.4).
    SharedMem(Box<StackNsm<LocalStack>>),
}

/// `$body` with `$n` bound to whichever flavour `$nsm` holds: the same code
/// in both arms.
macro_rules! either {
    ($nsm:expr, $n:ident => $body:expr) => {
        match $nsm {
            Nsm::Tcp($n) => $body,
            Nsm::SharedMem($n) => $body,
        }
    };
}

impl Nsm {
    fn service(&self) -> &ServiceLib {
        either!(self, n => &n.service)
    }

    /// Map the hugepage region `vm` shares with this NSM.
    pub fn add_vm(&mut self, vm: VmId, region: HugepageRegion) {
        either!(self, n => n.service.add_vm(vm, region));
    }

    /// The VMs whose regions are mapped here, in id order.
    pub fn wired_vms(&self) -> Vec<VmId> {
        self.service().front.regions.keys().copied().collect()
    }

    /// True while `vm`'s region is mapped here.
    pub fn wires(&self, vm: VmId) -> bool {
        self.service().front.regions.contains_key(&vm)
    }

    /// True while a socket of the VM lives here.
    pub fn has_sockets_of(&self, vm: VmId) -> bool {
        self.service().has_sockets_of(vm)
    }

    /// True while this NSM holds state for the VM: its region is mapped,
    /// or a socket of it is still live.
    pub fn has_vm(&self, vm: VmId) -> bool {
        self.wires(vm) || self.has_sockets_of(vm)
    }

    /// Unmap `vm`'s region and nothing else: no socket is closed. For a VM
    /// that left this NSM and has nothing left here.
    pub fn unwire(&mut self, vm: VmId) {
        either!(self, n => n.service.front.regions.remove(&vm));
    }

    /// Detach a VM: its region mapping goes, and its sockets close in the
    /// stack. Called when the VM migrates away or leaves the host: a stale
    /// mapping would pin the region alive and resurrect the VM on a later
    /// restart.
    pub fn remove_vm(&mut self, vm: VmId) {
        either!(self, n => n.service.remove_vm(vm, &mut n.stack));
    }

    /// ServiceLib's ends of the NSM's queue sets, in index order: the host
    /// pairs them with CoreEngine's ends to rewind the empty rings.
    pub fn queue_sets_mut(&mut self) -> &mut [ResponderEnd] {
        either!(self, n => n.service.front.device.queue_sets_mut())
    }

    /// ServiceLib statistics.
    pub fn service_stats(&self) -> ServiceStats {
        self.service().stats()
    }
}

impl nk_sim::Pollable for Nsm {
    fn poll(&mut self, now_ns: u64) -> usize {
        either!(self, n => n.tick(now_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nk_fabric::switch::VirtualSwitch;
    use nk_netstack::{Segment, StackConfig, TcpStack};
    use nk_queue::{queue_set_pair, NkDevice, RequesterEnd, WakeState};
    use nk_sim::Pollable;
    use nk_types::{
        CcKind, DataHandle, NkError, Nqe, NsmId, OpResult, OpType, QueueSetId, SocketId, StackKind,
    };

    /// An NSM of `kind` serving VM 1, with the guest's requester end and the
    /// VM's region.
    fn nsm(kind: StackKind) -> (Nsm, RequesterEnd, HugepageRegion) {
        let (guest_end, nsm_end) = queue_set_pair(64);
        let device = NkDevice::new(vec![nsm_end], WakeState::new());
        let service = ServiceLib::new(NsmId(1), device, 8);
        let cc = CcKind::Cubic;
        let mut nsm = match kind {
            StackKind::SharedMem => {
                Nsm::SharedMem(Box::new(StackNsm::new(cc, service, LocalStack::new())))
            }
            _ => {
                let port = VirtualSwitch::<Segment>::new().attach(0x0A00_0010);
                let stack = TcpStack::new(StackConfig::new(0x0A00_0010), port);
                Nsm::Tcp(Box::new(TcpNsm::new(cc, service, stack)))
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
