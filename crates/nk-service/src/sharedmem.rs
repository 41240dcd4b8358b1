//! The shared-memory NSM (use case 4, §6.4).
//!
//! When two VMs of the same tenant are colocated on a host, their traffic
//! does not need TCP at all: the operator-controlled NSM "simply copies the
//! message chunks between their hugepages and bypasses the TCP stack
//! processing", reaching ~100 Gbps with a handful of cores (Figure 10). This
//! module implements that NSM: it speaks the same NQE protocol as any other
//! NSM, but matches connections internally and moves payload
//! hugepage-to-hugepage.

use nk_queue::{NkDevice, ResponderEnd};
use nk_shmem::HugepageRegion;
use nk_types::ops::op_data;
use nk_types::{
    DataHandle, NkError, Nqe, NsmId, OpResult, OpType, QueueSetId, SockAddr, SocketId, VmId,
};
use std::collections::BTreeMap;

/// Guest socket ids allocated by the NSM for accepted connections.
const NSM_SOCKET_ID_BASE: u32 = 0x8000_0000;

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
    id: NsmId,
    device: NkDevice<ResponderEnd>,
    /// Ordered maps throughout, per the workspace determinism rule.
    regions: BTreeMap<VmId, HugepageRegion>,
    sockets: BTreeMap<(VmId, SocketId), ShmSocket>,
    /// port → listening socket key.
    listeners: BTreeMap<u16, (VmId, SocketId)>,
    next_guest_sock: u32,
    batch: usize,
    stats: SharedMemStats,
    /// Reusable NQE drain buffer (swapped out during a tick because the
    /// request handlers need `&mut self`).
    scratch: Vec<Nqe>,
}

impl SharedMemNsm {
    /// Build a shared-memory NSM around its NK device.
    pub fn new(id: NsmId, device: NkDevice<ResponderEnd>, batch: usize) -> Self {
        SharedMemNsm {
            id,
            device,
            regions: BTreeMap::new(),
            sockets: BTreeMap::new(),
            listeners: BTreeMap::new(),
            next_guest_sock: NSM_SOCKET_ID_BASE,
            batch: batch.max(1),
            stats: SharedMemStats::default(),
            scratch: Vec::new(),
        }
    }

    /// The NSM's identifier.
    pub fn id(&self) -> NsmId {
        self.id
    }

    /// Statistics.
    pub fn stats(&self) -> SharedMemStats {
        self.stats
    }

    /// Register a VM and the hugepage region it shares with this NSM.
    pub fn add_vm(&mut self, vm: VmId, region: HugepageRegion) {
        self.regions.insert(vm, region);
    }

    /// Detach a VM: its region mapping and any of its sockets (including
    /// listener registrations) are dropped. Called when the VM migrates to
    /// another NSM or leaves the host — a stale mapping here would pin the
    /// region alive and resurrect the VM on a later restart.
    pub fn remove_vm(&mut self, vm: VmId) {
        self.regions.remove(&vm);
        self.sockets.retain(|(owner, _), _| *owner != vm);
        self.listeners.retain(|_, (owner, _)| *owner != vm);
    }

    /// True while this NSM holds state for the VM.
    pub fn has_vm(&self, vm: VmId) -> bool {
        self.regions.contains_key(&vm)
    }

    /// The VMs whose regions are wired into this NSM, in id order.
    pub fn wired_vms(&self) -> Vec<VmId> {
        self.regions.keys().copied().collect()
    }

    fn respond(&mut self, nsm_qs: usize, nqe: Nqe) {
        if let Some(end) = self.device.queue_set(nsm_qs) {
            let _ = end.respond(nqe);
        }
    }

    fn reply(&mut self, nsm_qs: usize, request: &Nqe, result: OpResult, aux: u32) {
        if let Some(comp) = Nqe::completion_for(request, result, aux) {
            self.respond(nsm_qs, comp);
        }
    }

    /// Drain and handle request NQEs. Returns the number handled.
    pub fn tick(&mut self, _now_ns: u64) -> usize {
        let mut handled = 0;
        let sets = self.device.queue_sets();
        let mut buf = std::mem::take(&mut self.scratch);
        for qs in 0..sets {
            loop {
                let n = match self.device.queue_set(qs) {
                    Some(end) => end.pop_requests(&mut buf, self.batch),
                    None => 0,
                };
                if n == 0 {
                    break;
                }
                for nqe in buf.drain(..) {
                    self.handle(qs, nqe);
                    handled += 1;
                }
            }
        }
        self.scratch = buf;
        handled
    }

    fn handle(&mut self, nsm_qs: usize, nqe: Nqe) {
        let key = (nqe.vm, nqe.socket);
        match nqe.op {
            OpType::SocketCreate => {
                self.sockets.insert(
                    key,
                    ShmSocket {
                        vm: nqe.vm,
                        vm_qs: nqe.queue_set,
                        nsm_qs,
                        bound: None,
                        peer: None,
                    },
                );
                self.reply(nsm_qs, &nqe, OpResult::Ok, 0);
            }
            OpType::Bind => {
                if let Some(s) = self.sockets.get_mut(&key) {
                    s.bound = Some(nqe.addr());
                    self.reply(nsm_qs, &nqe, OpResult::Ok, 0);
                } else {
                    self.reply(nsm_qs, &nqe, OpResult::Err(NkError::BadSocket), 0);
                }
            }
            OpType::Listen => {
                let port = self.sockets.get(&key).and_then(|s| s.bound).map(|a| a.port);
                match port {
                    Some(p) => {
                        self.listeners.insert(p, key);
                        self.reply(nsm_qs, &nqe, OpResult::Ok, 0);
                    }
                    None => self.reply(nsm_qs, &nqe, OpResult::Err(NkError::InvalidState), 0),
                }
            }
            OpType::Connect => {
                self.handle_connect(nsm_qs, &nqe);
            }
            OpType::Send => {
                self.handle_send(nsm_qs, &nqe);
            }
            OpType::Close => {
                if let Some(sock) = self.sockets.remove(&key) {
                    if let Some(peer_key) = sock.peer {
                        if let Some(peer) = self.sockets.get(&peer_key).copied() {
                            let ev = Nqe::new(OpType::PeerClosed, peer.vm, peer.vm_qs, peer_key.1);
                            self.respond(peer.nsm_qs, ev);
                        }
                    }
                    if let Some(addr) = sock.bound {
                        if self.listeners.get(&addr.port) == Some(&key) {
                            self.listeners.remove(&addr.port);
                        }
                    }
                    self.reply(nsm_qs, &nqe, OpResult::Ok, 0);
                } else {
                    self.reply(nsm_qs, &nqe, OpResult::Err(NkError::BadSocket), 0);
                }
            }
            OpType::Shutdown | OpType::SetSockOpt => {
                self.reply(nsm_qs, &nqe, OpResult::Ok, 0);
            }
            OpType::RecvConsumed => {}
            _ => {
                self.reply(nsm_qs, &nqe, OpResult::Err(NkError::Unsupported), 0);
            }
        }
    }

    fn handle_connect(&mut self, nsm_qs: usize, nqe: &Nqe) {
        let key = (nqe.vm, nqe.socket);
        let target = nqe.addr();
        let Some(&listener_key) = self.listeners.get(&target.port) else {
            self.reply(nsm_qs, nqe, OpResult::Err(NkError::ConnRefused), 0);
            return;
        };
        let Some(listener) = self.sockets.get(&listener_key).copied() else {
            self.reply(nsm_qs, nqe, OpResult::Err(NkError::ConnRefused), 0);
            return;
        };
        // Allocate the accepted-side guest socket and wire the pair up.
        let accepted_id = SocketId(self.next_guest_sock);
        self.next_guest_sock += 1;
        let accepted_key = (listener.vm, accepted_id);
        self.sockets.insert(
            accepted_key,
            ShmSocket {
                vm: listener.vm,
                vm_qs: listener.vm_qs,
                nsm_qs: listener.nsm_qs,
                bound: None,
                peer: Some(key),
            },
        );
        if let Some(connector) = self.sockets.get_mut(&key) {
            connector.peer = Some(accepted_key);
        }
        self.stats.pairs += 1;

        // Tell the listening VM about the new connection...
        let mut accepted = Nqe::new(
            OpType::Accepted,
            listener.vm,
            listener.vm_qs,
            listener_key.1,
        );
        accepted.op_data = op_data::pack(OpResult::Ok, accepted_id.raw());
        accepted.data = DataHandle(SockAddr::new(0, nqe.socket.raw() as u16).pack());
        self.respond(listener.nsm_qs, accepted);
        // ...and the connecting VM that it succeeded.
        self.reply(nsm_qs, nqe, OpResult::Ok, 0);
    }

    fn handle_send(&mut self, nsm_qs: usize, nqe: &Nqe) {
        let key = (nqe.vm, nqe.socket);
        let Some(sock) = self.sockets.get(&key).copied() else {
            self.reply(nsm_qs, nqe, OpResult::Err(NkError::BadSocket), 0);
            return;
        };
        let Some(peer_key) = sock.peer else {
            self.reply(nsm_qs, nqe, OpResult::Err(NkError::NotConnected), 0);
            return;
        };
        let Some(peer) = self.sockets.get(&peer_key).copied() else {
            self.reply(nsm_qs, nqe, OpResult::Err(NkError::ConnReset), 0);
            return;
        };
        let len = nqe.size as usize;
        let (Some(src_region), Some(dst_region)) =
            (self.regions.get(&sock.vm), self.regions.get(&peer.vm))
        else {
            self.reply(nsm_qs, nqe, OpResult::Err(NkError::NotFound), 0);
            return;
        };
        // Copy hugepage → hugepage, bypassing any TCP processing.
        let result = dst_region.alloc(len).and_then(|dst| {
            src_region.copy_to(nqe.data, dst_region, dst, len)?;
            src_region.free(nqe.data)?;
            Ok(dst)
        });
        match result {
            Ok(dst) => {
                self.stats.bytes_copied += len as u64;
                let mut data_ev = Nqe::new(OpType::DataReceived, peer.vm, peer.vm_qs, peer_key.1);
                data_ev.data = dst;
                data_ev.size = len as u32;
                self.respond(peer.nsm_qs, data_ev);
                // Return the send-buffer credit to the sender.
                let mut comp = Nqe::completion_for(nqe, OpResult::Ok, 0).expect("send completes");
                comp.size = len as u32;
                self.respond(nsm_qs, comp);
            }
            Err(e) => self.reply(nsm_qs, nqe, OpResult::Err(e), 0),
        }
    }
}

impl nk_sim::Pollable for SharedMemNsm {
    fn poll(&mut self, now_ns: u64) -> usize {
        self.tick(now_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nk_queue::{queue_set_pair, RequesterEnd, WakeState};

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
            let mut nsm = SharedMemNsm::new(NsmId(9), device, 8);
            let region1 = HugepageRegion::with_capacity(1 << 20);
            let region2 = HugepageRegion::with_capacity(1 << 20);
            nsm.add_vm(VmId(1), region1.clone());
            nsm.add_vm(VmId(2), region2.clone());
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
}
