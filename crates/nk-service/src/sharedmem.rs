//! The shared-memory NSM (use case 4, §6.4).
//!
//! When two VMs of the same tenant are colocated on a host, their traffic
//! does not need TCP at all: the operator-controlled NSM "simply copies the
//! message chunks between their hugepages and bypasses the TCP stack
//! processing", reaching ~100 Gbps with a handful of cores (Figure 10). This
//! module implements that NSM: it speaks NQEs through the same front end as
//! any other NSM, but matches connections internally and moves payload
//! hugepage-to-hugepage.

use crate::frontend::Frontend;
use nk_queue::{NkDevice, ResponderEnd};
use nk_types::ops::op_data;
use nk_types::{
    DataHandle, NkError, NkResult, Nqe, OpResult, OpType, QueueSetId, SockAddr, SocketId, VmId,
};
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug)]
struct ShmSocket {
    vm: VmId,
    vm_qs: QueueSetId,
    nsm_qs: usize,
    bound: Option<SockAddr>,
    peer: Option<(VmId, SocketId)>,
}

/// Statistics of the shared-memory NSM.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SharedMemStats {
    /// Connections matched between colocated VMs.
    pub pairs: u64,
    /// Bytes copied hugepage-to-hugepage.
    pub bytes_copied: u64,
}

/// The shared-memory NSM.
pub struct SharedMemNsm {
    pub(crate) front: Frontend,
    /// Ordered maps throughout, per the workspace determinism rule.
    sockets: BTreeMap<(VmId, SocketId), ShmSocket>,
    /// port → listening socket key.
    listeners: BTreeMap<u16, (VmId, SocketId)>,
    stats: SharedMemStats,
}

impl SharedMemNsm {
    /// Build a shared-memory NSM around its NK device.
    pub fn new(device: NkDevice<ResponderEnd>, batch: usize) -> Self {
        SharedMemNsm {
            front: Frontend::new(device, batch),
            sockets: BTreeMap::new(),
            listeners: BTreeMap::new(),
            stats: SharedMemStats::default(),
        }
    }

    /// Statistics.
    pub fn stats(&self) -> SharedMemStats {
        self.stats
    }

    /// Detach a VM: its region mapping and any of its sockets (including
    /// listener registrations) are dropped. Called when the VM migrates to
    /// another NSM or leaves the host — a stale mapping here would pin the
    /// region alive and resurrect the VM on a later restart.
    pub(crate) fn has_sockets_of(&self, vm: VmId) -> bool {
        self.sockets.keys().any(|(owner, _)| *owner == vm)
            || self.listeners.values().any(|(owner, _)| *owner == vm)
    }

    pub(crate) fn remove_vm(&mut self, vm: VmId) {
        self.front.regions.remove(&vm);
        self.sockets.retain(|(owner, _), _| *owner != vm);
        self.listeners.retain(|_, (owner, _)| *owner != vm);
    }

    /// Drain and handle request NQEs. Returns the number handled.
    pub fn tick(&mut self, _now_ns: u64) -> usize {
        let mut handled = 0;
        let mut batch = std::mem::take(&mut self.front.popped);
        while let Some(nsm_qs) = self.front.next_batch(&mut batch) {
            handled += batch.len();
            for &nqe in &batch {
                self.handle(nsm_qs, nqe);
            }
        }
        self.front.popped = batch;
        handled
    }

    fn handle(&mut self, nsm_qs: usize, nqe: Nqe) {
        let key = (nqe.vm, nqe.socket);
        let res = match nqe.op {
            OpType::SocketCreate => {
                let sock = ShmSocket {
                    vm: nqe.vm,
                    vm_qs: nqe.queue_set,
                    nsm_qs,
                    bound: None,
                    peer: None,
                };
                self.sockets.insert(key, sock);
                Ok(())
            }
            OpType::Bind => match self.sockets.get_mut(&key) {
                Some(s) => {
                    s.bound = Some(nqe.addr());
                    Ok(())
                }
                None => Err(NkError::BadSocket),
            },
            OpType::Listen => match self.sockets.get(&key).and_then(|s| s.bound) {
                Some(addr) => {
                    self.listeners.insert(addr.port, key);
                    Ok(())
                }
                None => Err(NkError::InvalidState),
            },
            OpType::Connect => self.handle_connect(&nqe),
            OpType::Send => match self.handle_send(nsm_qs, &nqe) {
                // A delivered Send answers itself with its credit.
                Ok(()) => return,
                Err(e) => Err(e),
            },
            OpType::Close => self.handle_close(key),
            OpType::Shutdown | OpType::SetSockOpt => Ok(()),
            OpType::RecvConsumed => return,
            _ => Err(NkError::Unsupported),
        };
        self.front.reply(nsm_qs, &nqe, res, 0);
    }

    fn handle_close(&mut self, key: (VmId, SocketId)) -> NkResult<()> {
        let sock = self.sockets.remove(&key).ok_or(NkError::BadSocket)?;
        if let Some(peer_key) = sock.peer {
            if let Some(peer) = self.sockets.get(&peer_key).copied() {
                let ev = Nqe::new(OpType::PeerClosed, peer.vm, peer.vm_qs, peer_key.1);
                self.front.respond(peer.nsm_qs, ev);
            }
        }
        if let Some(addr) = sock.bound {
            if self.listeners.get(&addr.port) == Some(&key) {
                self.listeners.remove(&addr.port);
            }
        }
        Ok(())
    }

    fn handle_connect(&mut self, nqe: &Nqe) -> NkResult<()> {
        let key = (nqe.vm, nqe.socket);
        let target = nqe.addr();
        let listener_key = *self
            .listeners
            .get(&target.port)
            .ok_or(NkError::ConnRefused)?;
        let listener = *self
            .sockets
            .get(&listener_key)
            .ok_or(NkError::ConnRefused)?;
        // Allocate the accepted-side guest socket and wire the pair up.
        let accepted_id = self.front.alloc_guest_sock();
        let accepted_key = (listener.vm, accepted_id);
        self.sockets.insert(
            accepted_key,
            ShmSocket {
                bound: None,
                peer: Some(key),
                ..listener
            },
        );
        if let Some(connector) = self.sockets.get_mut(&key) {
            connector.peer = Some(accepted_key);
        }
        self.stats.pairs += 1;

        // Tell the listening VM about the new connection; the caller then
        // tells the connecting VM that it succeeded.
        let mut accepted = Nqe::new(
            OpType::Accepted,
            listener.vm,
            listener.vm_qs,
            listener_key.1,
        );
        accepted.op_data = op_data::pack(OpResult::Ok, accepted_id.raw());
        accepted.data = DataHandle(SockAddr::new(0, nqe.socket.raw() as u16).pack());
        self.front.respond(listener.nsm_qs, accepted);
        Ok(())
    }

    /// Copy a Send's payload into the peer's region and announce it there.
    /// An error is answered by the caller, which frees the chunk and
    /// returns the credit.
    fn handle_send(&mut self, nsm_qs: usize, nqe: &Nqe) -> NkResult<()> {
        let sock = *self
            .sockets
            .get(&(nqe.vm, nqe.socket))
            .ok_or(NkError::BadSocket)?;
        let peer_key = sock.peer.ok_or(NkError::NotConnected)?;
        let peer = *self.sockets.get(&peer_key).ok_or(NkError::ConnReset)?;
        let len = nqe.size as usize;
        let src_region = self.front.regions.get(&sock.vm);
        let dst_region = self.front.regions.get(&peer.vm);
        let (Some(src_region), Some(dst_region)) = (src_region, dst_region) else {
            return Err(NkError::NotFound);
        };
        // Move hugepage → hugepage, bypassing any TCP processing: one call
        // allocates in the peer's region, copies and frees the source.
        let dst = src_region.move_to(nqe.data, dst_region, len)?;
        self.stats.bytes_copied += len as u64;
        let data_ev = Nqe::new(OpType::DataReceived, peer.vm, peer.vm_qs, peer_key.1)
            .with_data(dst, len as u32);
        self.front.respond(peer.nsm_qs, data_ev);
        // Return the send-buffer credit to the sender.
        let mut comp = Nqe::completion_for(nqe, OpResult::Ok, 0).expect("send completes");
        comp.size = len as u32;
        self.front.respond(nsm_qs, comp);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nk_queue::{queue_set_pair, RequesterEnd, WakeState};
    use nk_shmem::HugepageRegion;

    /// Two colocated VMs of the same tenant attached to one shared-memory
    /// NSM. The test drives the requester ends directly (playing GuestLib and
    /// CoreEngine).
    struct World {
        nsm: SharedMemNsm,
        vm1_end: RequesterEnd,
        vm2_end: RequesterEnd,
        region1: HugepageRegion,
        region2: HugepageRegion,
    }

    impl World {
        fn new() -> Self {
            // One NSM queue set per VM (queue set 0 → VM1, 1 → VM2).
            let (vm1_end, nsm_end1) = queue_set_pair(256);
            let (vm2_end, nsm_end2) = queue_set_pair(256);
            let device = NkDevice::new(vec![nsm_end1, nsm_end2], WakeState::new());
            let mut nsm = SharedMemNsm::new(device, 8);
            let region1 = HugepageRegion::with_capacity(1 << 20);
            let region2 = HugepageRegion::with_capacity(1 << 20);
            nsm.front.regions.insert(VmId(1), region1.clone());
            nsm.front.regions.insert(VmId(2), region2.clone());
            World {
                nsm,
                vm1_end,
                vm2_end,
                region1,
                region2,
            }
        }

        fn responses(&mut self, vm: u8) -> Vec<Nqe> {
            let mut out = Vec::new();
            match vm {
                1 => self.vm1_end.pop_responses(&mut out, 64),
                _ => self.vm2_end.pop_responses(&mut out, 64),
            };
            out
        }
    }

    fn req(vm: u8, op: OpType, sock: u32) -> Nqe {
        Nqe::new(op, VmId(vm), QueueSetId(0), SocketId(sock))
    }

    fn setup_listener(w: &mut World) {
        w.vm1_end.submit(req(1, OpType::SocketCreate, 1)).unwrap();
        w.vm1_end
            .submit(req(1, OpType::Bind, 1).with_op_data(SockAddr::new(0, 8080).pack()))
            .unwrap();
        w.vm1_end
            .submit(req(1, OpType::Listen, 1).with_op_data(16))
            .unwrap();
        w.nsm.tick(0);
        let _ = w.responses(1);
    }

    #[test]
    fn colocated_vms_connect_through_shared_memory() {
        let mut w = World::new();
        setup_listener(&mut w);

        w.vm2_end.submit(req(2, OpType::SocketCreate, 1)).unwrap();
        w.vm2_end
            .submit(req(2, OpType::Connect, 1).with_op_data(SockAddr::new(0, 8080).pack()))
            .unwrap();
        w.nsm.tick(0);

        let vm2 = w.responses(2);
        assert!(vm2
            .iter()
            .any(|n| n.op == OpType::ConnectComplete && n.result().is_ok()));
        let vm1 = w.responses(1);
        let accepted: Vec<&Nqe> = vm1.iter().filter(|n| n.op == OpType::Accepted).collect();
        assert_eq!(accepted.len(), 1);
        assert_eq!(w.nsm.stats().pairs, 1);
    }

    #[test]
    fn send_copies_between_hugepage_regions() {
        let mut w = World::new();
        setup_listener(&mut w);
        w.vm2_end.submit(req(2, OpType::SocketCreate, 1)).unwrap();
        w.vm2_end
            .submit(req(2, OpType::Connect, 1).with_op_data(SockAddr::new(0, 8080).pack()))
            .unwrap();
        w.nsm.tick(0);
        let _ = w.responses(2);
        let _ = w.responses(1);

        // VM2 sends a message: it lands in VM1's region.
        let payload = b"zero copy-ish shared memory path".to_vec();
        let handle = w.region2.alloc_and_write(&payload).unwrap();
        w.vm2_end
            .submit(req(2, OpType::Send, 1).with_data(handle, payload.len() as u32))
            .unwrap();
        w.nsm.tick(0);

        let vm1 = w.responses(1);
        let data: Vec<&Nqe> = vm1
            .iter()
            .filter(|n| n.op == OpType::DataReceived)
            .collect();
        assert_eq!(data.len(), 1);
        let mut out = vec![0u8; data[0].size as usize];
        w.region1.read(data[0].data, &mut out).unwrap();
        assert_eq!(out, payload);

        let vm2 = w.responses(2);
        assert!(vm2
            .iter()
            .any(|n| n.op == OpType::SendComplete && n.size as usize == payload.len()));
        assert_eq!(w.nsm.stats().bytes_copied, payload.len() as u64);
    }

    #[test]
    fn connect_to_unknown_port_is_refused() {
        let mut w = World::new();
        w.vm2_end.submit(req(2, OpType::SocketCreate, 1)).unwrap();
        w.vm2_end
            .submit(req(2, OpType::Connect, 1).with_op_data(SockAddr::new(0, 9999).pack()))
            .unwrap();
        w.nsm.tick(0);
        let vm2 = w.responses(2);
        assert!(vm2.iter().any(|n| n.op == OpType::ConnectComplete
            && n.result() == OpResult::Err(NkError::ConnRefused)));
    }

    #[test]
    fn close_notifies_peer() {
        let mut w = World::new();
        setup_listener(&mut w);
        w.vm2_end.submit(req(2, OpType::SocketCreate, 1)).unwrap();
        w.vm2_end
            .submit(req(2, OpType::Connect, 1).with_op_data(SockAddr::new(0, 8080).pack()))
            .unwrap();
        w.nsm.tick(0);
        let _ = w.responses(2);
        let vm1 = w.responses(1);
        let accepted_sock = vm1
            .iter()
            .find(|n| n.op == OpType::Accepted)
            .map(|n| n.aux())
            .unwrap();

        w.vm2_end.submit(req(2, OpType::Close, 1)).unwrap();
        w.nsm.tick(0);
        let vm1 = w.responses(1);
        assert!(vm1
            .iter()
            .any(|n| n.op == OpType::PeerClosed && n.socket == SocketId(accepted_sock)));
    }

    /// A Send the NSM cannot deliver — here the peer closed first — frees
    /// its chunk and returns its credit, as CoreEngine does for the Sends it
    /// drops.
    #[test]
    fn a_failed_send_frees_its_chunk_and_returns_its_credit() {
        let mut w = World::new();
        setup_listener(&mut w);
        w.vm2_end.submit(req(2, OpType::SocketCreate, 1)).unwrap();
        w.vm2_end
            .submit(req(2, OpType::Connect, 1).with_op_data(SockAddr::new(0, 8080).pack()))
            .unwrap();
        w.nsm.tick(0);
        let _ = w.responses(2);
        let accepted = w
            .responses(1)
            .iter()
            .find(|n| n.op == OpType::Accepted)
            .unwrap()
            .aux();
        w.vm1_end.submit(req(1, OpType::Close, accepted)).unwrap();
        w.nsm.tick(0);

        let before = w.region2.available();
        let handle = w.region2.alloc_and_write(&[7u8; 1000]).unwrap();
        w.vm2_end
            .submit(req(2, OpType::Send, 1).with_data(handle, 1000))
            .unwrap();
        w.nsm.tick(0);
        let vm2 = w.responses(2);
        let comp = vm2.iter().find(|n| n.op == OpType::SendComplete).unwrap();
        assert_eq!(comp.result(), OpResult::Err(NkError::ConnReset));
        assert_eq!(comp.size, 1000);
        assert_eq!(w.region2.available(), before);
    }

    /// A Send whose peer region is full is refused before anything moves:
    /// the peer's region is untouched and sees no data, and the error reply
    /// frees the source chunk and returns its credit.
    #[test]
    fn a_send_into_a_full_peer_region_frees_only_the_source() {
        let mut w = World::new();
        setup_listener(&mut w);
        w.vm2_end.submit(req(2, OpType::SocketCreate, 1)).unwrap();
        w.vm2_end
            .submit(req(2, OpType::Connect, 1).with_op_data(SockAddr::new(0, 8080).pack()))
            .unwrap();
        w.nsm.tick(0);
        let _ = w.responses(2);
        let _ = w.responses(1);

        let filler = w
            .region1
            .alloc_and_write(&vec![0u8; w.region1.available()])
            .unwrap();
        let full = w.region1.stats();
        let before = w.region2.available();
        let handle = w.region2.alloc_and_write(&[7u8; 1000]).unwrap();
        w.vm2_end
            .submit(req(2, OpType::Send, 1).with_data(handle, 1000))
            .unwrap();
        w.nsm.tick(0);
        let vm2 = w.responses(2);
        let comp = vm2.iter().find(|n| n.op == OpType::SendComplete).unwrap();
        assert_eq!(comp.result(), OpResult::Err(NkError::OutOfHugepages));
        assert_eq!(comp.size, 1000);
        assert_eq!(w.region2.available(), before, "the source is freed");
        assert!(w.responses(1).is_empty(), "the peer sees no data");
        let stats = w.region1.stats();
        assert_eq!(stats.failed_allocs, full.failed_allocs + 1);
        assert_eq!((stats.chunks, stats.used), (full.chunks, full.used));
        assert_eq!(w.nsm.stats().bytes_copied, 0);
        w.region1.free(filler).unwrap();
    }
}
