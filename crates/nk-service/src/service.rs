//! ServiceLib: translating NQEs to network-stack calls and back.

use crate::fairshare::VmWindowRegistry;
use crate::frontend::Frontend;
use nk_netstack::{StackEvent, TcpStack};
use nk_queue::{NkDevice, ResponderEnd};
use nk_shmem::HugepageRegion;
use nk_types::api::ShutdownHow;
use nk_types::ops::op_data;
use nk_types::{
    DataHandle, DetMap, NkError, NkResult, Nqe, NsmId, OpResult, OpType, QueueSetId, SocketId,
    StackKind, VmId,
};
use std::collections::{BTreeMap, VecDeque};

/// Largest chunk of received payload announced to the guest in one NQE.
const RX_CHUNK: usize = 16 * 1024;
/// Per-connection cap on bytes parked in the hugepages awaiting `recv()`.
const RX_BUDGET: usize = 256 * 1024;

/// Statistics exposed by a ServiceLib instance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Request NQEs processed.
    pub requests: u64,
    /// Completion / event NQEs emitted.
    pub responses: u64,
    /// Payload bytes moved from hugepages into the stack.
    pub bytes_tx: u64,
    /// Payload bytes moved from the stack into hugepages.
    pub bytes_rx: u64,
    /// Connections accepted on behalf of guests.
    pub accepted: u64,
}

/// Payload a guest handed over that the stack's send buffer had no room for
/// yet, oldest first.
#[derive(Default)]
struct PendingSend {
    chunks: VecDeque<Vec<u8>>,
    /// Bytes of the front chunk the stack already accepted.
    head: usize,
}

impl PendingSend {
    fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }
}

/// Per-connection context linking a stack socket back to its guest tuple.
#[derive(Clone, Copy, Debug)]
struct ConnCtx {
    vm: VmId,
    guest_sock: SocketId,
    /// VM-side queue set the guest pinned this socket to (used by CoreEngine
    /// to route responses back to the right vCPU).
    vm_qs: QueueSetId,
    /// NSM-side queue set proactive events are pushed on.
    nsm_qs: usize,
    /// Bytes announced to the guest and not yet consumed (receive credit).
    rx_outstanding: usize,
}

/// The NSM-side library translating between NQEs and the network stack
/// (paper §4.2, §4.5): the TCP flavour of the NQE front end.
pub struct ServiceLib {
    pub(crate) front: Frontend,
    /// guest tuple → stack socket; looked up once per request NQE.
    fwd: DetMap<(VmId, SocketId), SocketId>,
    /// stack socket → guest context; looked up once per stack event.
    ctx: DetMap<SocketId, ConnCtx>,
    /// Payload accepted from guests but not yet taken by the stack; an entry
    /// lives only while something is queued.
    pending_send: BTreeMap<SocketId, PendingSend>,
    /// Sockets that may hold received bytes not yet shipped to their guest:
    /// all `pump_receive` visits, in `SocketId` order (the order of `ctx`).
    /// A `Readable` event, an accept and a warm install enter a socket; it
    /// stays while the stack holds bytes for it (no receive credit, no
    /// hugepage — the retry keeps a starved receiver from losing data).
    rx_ready: Vec<SocketId>,
    /// Per-VM Seawall windows (fair-share NSM only).
    fair_share: Option<VmWindowRegistry>,
}

impl ServiceLib {
    /// Build a ServiceLib for NSM `_nsm` around its NK device. The id only
    /// names the NSM at the call site; nothing here reads it.
    pub fn new(_nsm: NsmId, device: NkDevice<ResponderEnd>, batch: usize) -> Self {
        ServiceLib {
            front: Frontend::new(device, batch),
            fwd: DetMap::new(),
            ctx: DetMap::new(),
            pending_send: BTreeMap::new(),
            rx_ready: Vec::new(),
            fair_share: None,
        }
    }

    /// Register a VM served by this NSM together with the hugepage region it
    /// shares with us.
    pub fn add_vm(&mut self, vm: VmId, region: HugepageRegion) {
        self.front.regions.insert(vm, region);
    }

    /// Detach a VM: the region mapping and all translation state of its
    /// sockets go. Called when the VM migrates away or leaves the host — a
    /// stale mapping would pin the hugepage region alive in an NSM that no
    /// longer serves the VM.
    pub fn remove_vm(&mut self, vm: VmId, stack: &mut TcpStack) {
        self.front.regions.remove(&vm);
        let stale: Vec<((VmId, SocketId), SocketId)> = self
            .fwd
            .sorted()
            .into_iter()
            .filter(|((owner, _), _)| *owner == vm)
            .map(|(k, s)| (*k, *s))
            .collect();
        for (key, sock) in stale {
            let _ = stack.close(sock);
            self.fwd.remove(&key);
            self.ctx.remove(&sock);
            self.pending_send.remove(&sock);
        }
    }

    /// True while this ServiceLib holds state for the VM (region mapping or
    /// live sockets).
    pub fn has_vm(&self, vm: VmId) -> bool {
        self.front.regions.contains_key(&vm) || self.has_sockets_of(vm)
    }

    /// True while a socket of the VM is live here.
    pub(crate) fn has_sockets_of(&self, vm: VmId) -> bool {
        self.fwd.any(|(owner, _), _| *owner == vm)
    }

    // ---- Warm-migration export / install ------------------------------------

    /// Tear one guest socket's translation state out of this ServiceLib for
    /// a warm migration: returns the stack-side socket, the payload queued
    /// but not yet pushed into the stack, and the outstanding receive
    /// credit. The caller exports the stack connection under the returned
    /// socket id.
    pub fn extract_conn(
        &mut self,
        vm: VmId,
        guest_sock: SocketId,
    ) -> NkResult<(SocketId, Vec<Vec<u8>>, usize)> {
        let sock = self
            .fwd
            .remove(&(vm, guest_sock))
            .ok_or(NkError::BadSocket)?;
        let outstanding = self.ctx.remove(&sock).map_or(0, |ctx| ctx.rx_outstanding);
        let pending: Vec<Vec<u8>> = self
            .pending_send
            .remove(&sock)
            .map(|q| {
                let mut chunks: Vec<Vec<u8>> = q.chunks.into();
                if let Some(front) = chunks.first_mut() {
                    front.drain(..q.head);
                }
                chunks
            })
            .unwrap_or_default();
        Ok((sock, pending, outstanding))
    }

    /// The stack-side socket a guest tuple currently maps to, if any.
    pub fn stack_sock_of(&self, vm: VmId, guest_sock: SocketId) -> Option<SocketId> {
        self.fwd.get(&(vm, guest_sock)).copied()
    }

    /// Wire a warm-migrated connection into this ServiceLib: the guest
    /// tuple maps to `stack_sock` (freshly installed into the destination
    /// stack), queued payload resumes flushing, and the receive-credit
    /// accounting continues where the source left off. `nsm_qs` must be the
    /// NSM-side queue set CoreEngine pinned the tuple to.
    #[allow(
        clippy::too_many_arguments,
        reason = "the arguments are exactly the per-connection state a warm import carries; a struct would be built only to be taken apart here"
    )]
    pub fn install_conn(
        &mut self,
        vm: VmId,
        guest_sock: SocketId,
        vm_qs: QueueSetId,
        nsm_qs: usize,
        stack_sock: SocketId,
        pending_send: Vec<Vec<u8>>,
        rx_outstanding: usize,
    ) -> NkResult<()> {
        if self.fwd.contains_key(&(vm, guest_sock)) || self.ctx.contains_key(&stack_sock) {
            return Err(NkError::AlreadyRegistered);
        }
        self.fwd.insert((vm, guest_sock), stack_sock);
        self.ctx.insert(
            stack_sock,
            ConnCtx {
                vm,
                guest_sock,
                vm_qs,
                nsm_qs,
                rx_outstanding,
            },
        );
        if !pending_send.is_empty() {
            self.pending_send.insert(
                stack_sock,
                PendingSend {
                    chunks: pending_send.into(),
                    head: 0,
                },
            );
        }
        // The snapshot may carry received bytes no segment will announce.
        self.rx_ready.push(stack_sock);
        Ok(())
    }

    /// Statistics.
    pub fn stats(&self) -> ServiceStats {
        self.front.stats
    }

    /// Drain request NQEs from every queue set and apply them to `stack`.
    pub fn process_requests(&mut self, stack: &mut TcpStack, now_ns: u64) -> usize {
        let mut handled = 0;
        let mut batch = std::mem::take(&mut self.front.popped);
        while let Some(nsm_qs) = self.front.next_batch(&mut batch) {
            handled += batch.len();
            for &nqe in &batch {
                self.handle_request(stack, nsm_qs, nqe, now_ns);
            }
        }
        self.front.popped = batch;
        handled
    }

    fn handle_request(&mut self, stack: &mut TcpStack, nsm_qs: usize, nqe: Nqe, now_ns: u64) {
        let key = (nqe.vm, nqe.socket);
        match nqe.op {
            OpType::SocketCreate => {
                let sock = stack.socket();
                self.fwd.insert(key, sock);
                self.ctx.insert(
                    sock,
                    ConnCtx {
                        vm: nqe.vm,
                        guest_sock: nqe.socket,
                        vm_qs: nqe.queue_set,
                        nsm_qs,
                        rx_outstanding: 0,
                    },
                );
                self.front.reply(nsm_qs, &nqe, Ok(()), sock.raw());
            }
            OpType::Bind => {
                let res = self.stack_sock(key).and_then(|s| stack.bind(s, nqe.addr()));
                self.front.reply(nsm_qs, &nqe, res, 0);
            }
            OpType::Listen => {
                let res = self
                    .stack_sock(key)
                    .and_then(|s| stack.listen(s, nqe.op_data as u32));
                self.front.reply(nsm_qs, &nqe, res, 0);
            }
            OpType::Connect => {
                let res = match self.stack_sock(key) {
                    Ok(s) => {
                        let cc = self.fair_share.as_mut().map(|reg| reg.cc_for(nqe.vm));
                        stack.connect_with_cc(s, nqe.addr(), now_ns, cc)
                    }
                    Err(e) => Err(e),
                };
                // Success is reported only when the handshake completes (the
                // stack raises a Connected event); failures are immediate.
                if let Err(e) = res {
                    self.front.reply(nsm_qs, &nqe, Err(e), 0);
                }
            }
            OpType::Send => {
                if let Err(e) = self.handle_send(stack, &nqe) {
                    self.front.reply(nsm_qs, &nqe, Err(e), 0);
                }
            }
            OpType::RecvConsumed => {
                if let Some(ctx) = self.fwd.get(&key).and_then(|s| self.ctx.get_mut(s)) {
                    ctx.rx_outstanding = ctx.rx_outstanding.saturating_sub(nqe.size as usize);
                }
            }
            OpType::Shutdown => {
                let res = self
                    .stack_sock(key)
                    .and_then(|s| stack.shutdown(s, ShutdownHow::decode(nqe.op_data)));
                self.front.reply(nsm_qs, &nqe, res, 0);
            }
            OpType::Close => {
                let res = match self.stack_sock(key) {
                    Ok(s) => {
                        let r = stack.close(s);
                        self.fwd.remove(&key);
                        self.ctx.remove(&s);
                        self.pending_send.remove(&s);
                        r
                    }
                    Err(e) => Err(e),
                };
                self.front.reply(nsm_qs, &nqe, res, 0);
            }
            OpType::SetSockOpt => {
                let res = self.stack_sock(key).and_then(|s| {
                    stack.set_sockopt(
                        s,
                        op_data::sockopt_opt(nqe.op_data),
                        op_data::sockopt_value(nqe.op_data),
                    )
                });
                self.front.reply(nsm_qs, &nqe, res, 0);
            }
            _ => self.front.reply(nsm_qs, &nqe, Err(NkError::Unsupported), 0),
        }
    }

    /// Hand a Send's payload to the stack. An error is answered by the
    /// caller, which frees the chunk and returns the credit.
    fn handle_send(&mut self, stack: &mut TcpStack, nqe: &Nqe) -> NkResult<()> {
        let sock = self.stack_sock((nqe.vm, nqe.socket))?;
        let region = self.front.regions.get(&nqe.vm).ok_or(NkError::NotFound)?;
        // The one copy §7.8 attributes NetKernel's throughput overhead to:
        // hugepage → stack send buffer, with the chunk lent to the stack in
        // place and freed under the same lock hold. Only what the stack had
        // no room for (or everything, when older payload is still queued
        // ahead of it) is copied aside.
        let len = nqe.size as usize;
        let queued_ahead = self.pending_send.get(&sock).is_some_and(|q| !q.is_empty());
        let accepted = region.lend_and_free(nqe.data, len, |chunk| {
            let accepted = if queued_ahead {
                0
            } else {
                stack.send(sock, chunk).unwrap_or(0)
            };
            if accepted < chunk.len() {
                let queue = self.pending_send.entry(sock).or_default();
                queue.chunks.push_back(chunk[accepted..].to_vec());
            }
            accepted
        })?;
        self.front.stats.bytes_tx += len as u64;
        // Whatever the stack accepted is acknowledged back to the guest as
        // returned send-buffer credit.
        let flushed = if queued_ahead {
            let queue = self.pending_send.get_mut(&sock);
            queue.map_or(0, |queue| Self::flush_queue(stack, sock, queue))
        } else {
            accepted
        };
        if flushed > 0 {
            self.send_credit(sock, flushed);
        }
        Ok(())
    }

    fn stack_sock(&self, key: (VmId, SocketId)) -> NkResult<SocketId> {
        self.fwd.get(&key).copied().ok_or(NkError::BadSocket)
    }

    /// Push an event NQE about `ctx`'s guest socket.
    fn notify(&mut self, ctx: &ConnCtx, op: OpType, op_data: u64) {
        let ev = Nqe::new(op, ctx.vm, ctx.vm_qs, ctx.guest_sock).with_op_data(op_data);
        self.front.respond(ctx.nsm_qs, ev);
    }

    fn send_credit(&mut self, sock: SocketId, bytes: usize) {
        let Some(ctx) = self.ctx.get(&sock).copied() else {
            return;
        };
        let mut comp = Nqe::new(OpType::SendComplete, ctx.vm, ctx.vm_qs, ctx.guest_sock);
        comp.op_data = op_data::pack(OpResult::Ok, 0);
        comp.size = bytes as u32;
        self.front.respond(ctx.nsm_qs, comp);
    }

    /// Push `queue` into the stack until it refuses; returns bytes taken.
    fn flush_queue(stack: &mut TcpStack, sock: SocketId, queue: &mut PendingSend) -> usize {
        let mut flushed = 0;
        while let Some(front) = queue.chunks.front() {
            let Ok(n) = stack.send(sock, &front[queue.head..]) else {
                break;
            };
            flushed += n;
            queue.head += n;
            if queue.head < front.len() {
                break;
            }
            queue.chunks.pop_front();
            queue.head = 0;
        }
        flushed
    }

    /// Push pending payload into the stack and return credit to guests.
    pub fn flush_pending(&mut self, stack: &mut TcpStack) {
        let mut pending = std::mem::take(&mut self.pending_send);
        pending.retain(|&sock, queue| {
            let flushed = Self::flush_queue(stack, sock, queue);
            if flushed > 0 {
                self.send_credit(sock, flushed);
            }
            !queue.is_empty()
        });
        self.pending_send = pending;
    }

    /// Turn stack events into NQEs and ship received payload to the guests.
    pub fn process_stack(&mut self, stack: &mut TcpStack, _now_ns: u64) {
        while let Some(event) = stack.pop_event() {
            let (sock, op, op_data) = match event {
                StackEvent::Acceptable(listener) => {
                    self.drain_accepts(stack, listener);
                    continue;
                }
                StackEvent::Readable(sock) => {
                    self.rx_ready.push(sock);
                    continue;
                }
                StackEvent::Connected(sock) => (
                    sock,
                    OpType::ConnectComplete,
                    op_data::pack(OpResult::Ok, sock.raw()),
                ),
                StackEvent::ConnectFailed(sock) => (
                    sock,
                    OpType::ConnectComplete,
                    op_data::pack(OpResult::Err(NkError::ConnRefused), 0),
                ),
                StackEvent::PeerClosed(sock) => (sock, OpType::PeerClosed, 0),
            };
            if let Some(ctx) = self.ctx.get(&sock).copied() {
                self.notify(&ctx, op, op_data);
            }
        }
        self.pump_receive(stack);
        self.flush_pending(stack);
    }

    fn drain_accepts(&mut self, stack: &mut TcpStack, listener: SocketId) {
        // The listener context tells us which guest owns it.
        let Some(lctx) = self.ctx.get(&listener).copied() else {
            return;
        };
        while let Ok((conn, peer)) = stack.accept(listener) {
            let guest_id = self.front.alloc_guest_sock();
            self.fwd.insert((lctx.vm, guest_id), conn);
            self.ctx.insert(
                conn,
                ConnCtx {
                    guest_sock: guest_id,
                    rx_outstanding: 0,
                    ..lctx
                },
            );
            self.front.stats.accepted += 1;
            // Its first bytes may have arrived before it had a context.
            self.rx_ready.push(conn);
            let mut ev = Nqe::new(OpType::Accepted, lctx.vm, lctx.vm_qs, lctx.guest_sock);
            ev.op_data = op_data::pack(OpResult::Ok, guest_id.raw());
            ev.data = DataHandle(peer.pack());
            self.front.respond(lctx.nsm_qs, ev);
        }
    }

    fn pump_receive(&mut self, stack: &mut TcpStack) {
        let mut ready = std::mem::take(&mut self.rx_ready);
        ready.sort_unstable();
        ready.dedup();
        ready.retain(|&sock| self.pump_socket(stack, sock));
        self.rx_ready = ready;
    }

    /// Ship what `sock` has received to its guest, as far as receive credit
    /// and hugepages go. True while the stack still holds bytes for it: the
    /// socket stays on the ready list.
    fn pump_socket(&mut self, stack: &mut TcpStack, sock: SocketId) -> bool {
        let Some(ctx) = self.ctx.get_mut(&sock) else {
            return false;
        };
        loop {
            let credit = RX_BUDGET.saturating_sub(ctx.rx_outstanding);
            if credit == 0 {
                break;
            }
            // Size the chunk from what the stack holds, allocate it, and
            // only then let the stack fill it in place, under one lock
            // hold: nothing leaves `recv_buf` unless it has a hugepage
            // chunk to land in, and a failed `recv` frees the chunk again.
            let want = credit.min(RX_CHUNK).min(stack.recv_available(sock));
            if want == 0 {
                // EOF is announced via the PeerClosed event.
                break;
            }
            let Some(region) = self.front.regions.get(&ctx.vm) else {
                break;
            };
            let filled = region.alloc_and_fill(want, |chunk| stack.recv(sock, chunk));
            let Ok((handle, n)) = filled else {
                break;
            };
            self.front.stats.bytes_rx += n as u64;
            ctx.rx_outstanding += n;
            let mut ev = Nqe::new(OpType::DataReceived, ctx.vm, ctx.vm_qs, ctx.guest_sock);
            ev.data = handle;
            ev.size = n as u32;
            self.front.respond(ctx.nsm_qs, ev);
        }
        stack.recv_available(sock) > 0
    }
}

/// The TCP flavour of an [`crate::Nsm`]: a ServiceLib bound to a concrete
/// network stack.
///
/// The kernel-stack, mTCP and fair-share NSMs are all this type — they run
/// the same from-scratch TCP substrate but are provisioned and cost-
/// accounted differently (the mTCP NSM uses poll-mode batching and a cheaper
/// per-operation profile in the host's cost model, mirroring §6.3/§7.4).
pub struct TcpNsm {
    pub(crate) service: ServiceLib,
    pub(crate) stack: TcpStack,
}

impl TcpNsm {
    /// Assemble a TCP-stack NSM of flavour `kind` from its parts.
    pub fn new(kind: StackKind, mut service: ServiceLib, stack: TcpStack) -> Self {
        if kind == StackKind::FairShare {
            service.fair_share = Some(VmWindowRegistry::new());
        }
        TcpNsm { service, stack }
    }

    /// Borrow the underlying stack immutably (wire-quiet queries).
    pub fn stack(&self) -> &TcpStack {
        &self.stack
    }

    /// Borrow the underlying stack (used by tests and the host).
    pub fn stack_mut(&mut self) -> &mut TcpStack {
        &mut self.stack
    }

    /// Export one guest connection's NSM-side state for a warm migration:
    /// the TCP snapshot plus ServiceLib's queued payload and receive
    /// credit. The connection leaves this NSM entirely.
    pub fn export_conn(
        &mut self,
        vm: VmId,
        guest_sock: SocketId,
    ) -> NkResult<(nk_types::TcpConnSnapshot, Vec<Vec<u8>>, usize)> {
        // Snapshot the stack side first: if the connection is not in a
        // transplantable phase the export fails *before* any translation
        // state is torn out.
        let stack_sock = self
            .service
            .stack_sock_of(vm, guest_sock)
            .ok_or(NkError::BadSocket)?;
        let snap = self.stack.export_conn(stack_sock)?;
        let (_, pending, outstanding) = self
            .service
            .extract_conn(vm, guest_sock)
            .expect("mapping observed above");
        Ok((snap, pending, outstanding))
    }

    /// Install a warm-migrated connection into this NSM: the TCP state
    /// machine goes into the stack under a fresh socket id, and ServiceLib
    /// resumes translation for the guest tuple on `nsm_qs`. Returns the
    /// stack-side socket id for the CoreEngine connection table.
    pub fn install_conn(
        &mut self,
        vm: VmId,
        conn: &nk_types::ConnSnapshot,
        nsm_qs: usize,
    ) -> NkResult<SocketId> {
        let stack_sock = self.stack.install_conn(&conn.tcp)?;
        if let Err(e) = self.service.install_conn(
            vm,
            conn.guest_sock,
            conn.vm_queue_set,
            nsm_qs,
            stack_sock,
            conn.pending_send.clone(),
            conn.rx_outstanding,
        ) {
            // Unwind the stack install so a refused wiring leaves no
            // orphaned connection behind.
            let _ = self.stack.export_conn(stack_sock);
            return Err(e);
        }
        Ok(stack_sock)
    }

    /// One scheduling round: ingest requests, run the stack, emit events.
    /// Returns the number of NQEs and segments processed.
    pub fn tick(&mut self, now_ns: u64) -> usize {
        let mut work = self.service.process_requests(&mut self.stack, now_ns);
        work += self.stack.tick(now_ns);
        self.service.process_stack(&mut self.stack, now_ns);
        work
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nk_fabric::switch::VirtualSwitch;
    use nk_netstack::{Segment, StackConfig};
    use nk_queue::{queue_set_pair, RequesterEnd, WakeState};
    use nk_types::constants::NSM_SOCKET_ID_BASE;
    use nk_types::SockAddr;

    const NSM_IP: u32 = 0x0A00_0010;
    const REMOTE_IP: u32 = 0x0A00_0020;

    /// A little world: one NSM (serving VM 1) and one remote peer stack,
    /// connected by a switch. The test plays the roles of GuestLib and
    /// CoreEngine by talking to the requester end directly.
    struct World {
        switch: VirtualSwitch<Segment>,
        nsm: TcpNsm,
        remote: TcpStack,
        guest_end: RequesterEnd,
        region: HugepageRegion,
        now: u64,
    }

    impl World {
        fn new(kind: StackKind) -> Self {
            Self::with_region(kind, HugepageRegion::with_capacity(4 << 20))
        }

        fn with_region(kind: StackKind, region: HugepageRegion) -> Self {
            let mut switch = VirtualSwitch::new();
            let nsm_port = switch.attach(NSM_IP);
            let remote_port = switch.attach(REMOTE_IP);
            let (guest_end, nsm_end) = queue_set_pair(1024);
            let device = NkDevice::new(vec![nsm_end], WakeState::new());
            let service = ServiceLib::new(NsmId(1), device, 8);
            let stack = TcpStack::new(StackConfig::new(NSM_IP), nsm_port);
            let mut nsm = TcpNsm::new(kind, service, stack);
            nsm.service.add_vm(VmId(1), region.clone());
            World {
                switch,
                nsm,
                remote: TcpStack::new(StackConfig::new(REMOTE_IP), remote_port),
                guest_end,
                region,
                now: 0,
            }
        }

        fn run(&mut self, rounds: usize) {
            for _ in 0..rounds {
                self.now += 100_000;
                self.nsm.tick(self.now);
                self.remote.tick(self.now);
                self.switch.step(self.now);
            }
        }

        fn submit(&mut self, nqe: Nqe) {
            self.guest_end.submit(nqe).unwrap();
        }

        fn responses(&mut self) -> Vec<Nqe> {
            let mut out = Vec::new();
            self.guest_end.pop_responses(&mut out, 128);
            out
        }
    }

    fn req(op: OpType, sock: u32) -> Nqe {
        Nqe::new(op, VmId(1), QueueSetId(0), SocketId(sock))
    }

    #[test]
    fn socket_create_and_bind_listen_complete() {
        let mut w = World::new(StackKind::Kernel);
        w.submit(req(OpType::SocketCreate, 1));
        w.submit(req(OpType::Bind, 1).with_op_data(SockAddr::new(0, 80).pack()));
        w.submit(req(OpType::Listen, 1).with_op_data(16));
        w.run(2);
        let resp = w.responses();
        let ops: Vec<OpType> = resp.iter().map(|n| n.op).collect();
        assert!(ops.contains(&OpType::SocketCreated));
        assert!(ops.contains(&OpType::BindComplete));
        assert!(ops.contains(&OpType::ListenComplete));
        assert!(resp.iter().all(|n| n.result().is_ok()));
    }

    #[test]
    fn connect_from_remote_produces_accepted_event() {
        let mut w = World::new(StackKind::Kernel);
        w.submit(req(OpType::SocketCreate, 1));
        w.submit(req(OpType::Bind, 1).with_op_data(SockAddr::new(0, 80).pack()));
        w.submit(req(OpType::Listen, 1).with_op_data(16));
        w.run(2);
        let _ = w.responses();

        // Remote host connects to the NSM-hosted listener.
        let rs = w.remote.socket();
        w.remote
            .connect(rs, SockAddr::new(NSM_IP, 80), w.now)
            .unwrap();
        w.run(10);
        let resp = w.responses();
        let accepted: Vec<&Nqe> = resp.iter().filter(|n| n.op == OpType::Accepted).collect();
        assert_eq!(accepted.len(), 1);
        assert!(accepted[0].aux() >= NSM_SOCKET_ID_BASE);
        assert_eq!(
            accepted[0].socket,
            SocketId(1),
            "event targets the listener"
        );
        assert_eq!(w.nsm.service.stats().accepted, 1);
    }

    #[test]
    fn guest_connect_send_and_receive_via_nsm() {
        let mut w = World::new(StackKind::Kernel);
        // Remote echo listener.
        let ls = w.remote.socket();
        w.remote.bind(ls, SockAddr::new(0, 7)).unwrap();
        w.remote.listen(ls, 8).unwrap();

        // Guest: socket + connect.
        w.submit(req(OpType::SocketCreate, 5));
        w.submit(req(OpType::Connect, 5).with_op_data(SockAddr::new(REMOTE_IP, 7).pack()));
        w.run(10);
        let resp = w.responses();
        assert!(
            resp.iter()
                .any(|n| n.op == OpType::ConnectComplete && n.result().is_ok()),
            "{resp:?}"
        );

        // Guest sends payload through the hugepages.
        let payload = b"ping through netkernel".to_vec();
        let handle = w.region.alloc_and_write(&payload).unwrap();
        w.submit(req(OpType::Send, 5).with_data(handle, payload.len() as u32));
        w.run(10);
        let resp = w.responses();
        let credit: u32 = resp
            .iter()
            .filter(|n| n.op == OpType::SendComplete)
            .map(|n| n.size)
            .sum();
        assert_eq!(credit as usize, payload.len());

        // The remote server receives it and echoes it back.
        let (conn, _) = w.remote.accept(ls).unwrap();
        let mut buf = vec![0u8; 64];
        let n = w.remote.recv(conn, &mut buf).unwrap();
        assert_eq!(&buf[..n], payload.as_slice());
        w.remote.send(conn, &buf[..n]).unwrap();
        w.run(10);

        // The guest is notified of received data living in the hugepages.
        let resp = w.responses();
        let data: Vec<&Nqe> = resp
            .iter()
            .filter(|n| n.op == OpType::DataReceived)
            .collect();
        assert_eq!(data.len(), 1);
        let mut out = vec![0u8; data[0].size as usize];
        w.region.read(data[0].data, &mut out).unwrap();
        assert_eq!(out, payload);
    }

    #[test]
    fn close_cleans_up_mappings() {
        let mut w = World::new(StackKind::Kernel);
        w.submit(req(OpType::SocketCreate, 9));
        w.run(1);
        w.submit(req(OpType::Close, 9));
        w.run(1);
        let resp = w.responses();
        assert!(resp.iter().any(|n| n.op == OpType::CloseComplete));
        // A second close on the same guest socket now fails.
        w.submit(req(OpType::Close, 9));
        w.run(1);
        let resp = w.responses();
        assert!(resp
            .iter()
            .any(|n| n.op == OpType::CloseComplete && !n.result().is_ok()));
    }

    #[test]
    fn connect_refused_reports_failure() {
        let mut w = World::new(StackKind::Kernel);
        w.submit(req(OpType::SocketCreate, 3));
        w.submit(req(OpType::Connect, 3).with_op_data(SockAddr::new(REMOTE_IP, 9999).pack()));
        w.run(15);
        let resp = w.responses();
        assert!(
            resp.iter()
                .any(|n| n.op == OpType::ConnectComplete && !n.result().is_ok()),
            "{resp:?}"
        );
    }

    /// A VM detached from an NSM leaves nothing behind: no region mapping,
    /// no socket translation state, and its stack sockets are closed.
    #[test]
    fn remove_vm_detaches_region_and_sockets() {
        let mut w = World::new(StackKind::Kernel);
        let ls = w.remote.socket();
        w.remote.bind(ls, SockAddr::new(0, 7)).unwrap();
        w.remote.listen(ls, 8).unwrap();
        w.submit(req(OpType::SocketCreate, 5));
        w.submit(req(OpType::Connect, 5).with_op_data(SockAddr::new(REMOTE_IP, 7).pack()));
        w.run(10);
        assert!(w.nsm.service.has_vm(VmId(1)));

        w.nsm.service.remove_vm(VmId(1), &mut w.nsm.stack);
        assert!(!w.nsm.service.has_vm(VmId(1)));
        // Later requests from the detached VM fail cleanly (no region).
        w.submit(req(OpType::Send, 5).with_data(DataHandle(0), 4));
        w.run(2);
        let resp = w.responses();
        assert!(resp
            .iter()
            .any(|n| n.op == OpType::SendComplete && !n.result().is_ok()));
    }

    /// A connection exported from one NSM and installed into another keeps
    /// its guest tuple working end to end: pending payload flushes, receive
    /// credit survives, and the peer sees a contiguous byte stream.
    #[test]
    fn export_install_moves_a_connection_between_nsms() {
        let mut w = World::new(StackKind::Kernel);
        let ls = w.remote.socket();
        w.remote.bind(ls, SockAddr::new(0, 7)).unwrap();
        w.remote.listen(ls, 8).unwrap();
        w.submit(req(OpType::SocketCreate, 5));
        w.submit(req(OpType::Connect, 5).with_op_data(SockAddr::new(REMOTE_IP, 7).pack()));
        w.run(10);
        let payload = b"first half ".to_vec();
        let handle = w.region.alloc_and_write(&payload).unwrap();
        w.submit(req(OpType::Send, 5).with_data(handle, payload.len() as u32));
        w.run(10);
        let _ = w.responses();
        // Bytes ServiceLib has not shipped yet travel in the snapshot.
        let (conn_sock, _) = w.remote.accept(ls).unwrap();
        w.remote.send(conn_sock, b"held").unwrap();
        for _ in 0..5 {
            w.now += 100_000;
            w.remote.tick(w.now);
            w.switch.step(w.now);
            w.nsm.stack_mut().tick(w.now);
        }

        let (snap, pending, outstanding) = w.nsm.export_conn(VmId(1), SocketId(5)).unwrap();
        assert_eq!(snap.remote, SockAddr::new(REMOTE_IP, 7));
        assert!(!w.nsm.service.has_vm(VmId(1)) || w.nsm.export_conn(VmId(1), SocketId(5)).is_err());

        // Second NSM on the same switch adopts the port address (the
        // "fabric reroute" of a single-switch world) and the connection.
        let new_port = w.switch.attach(NSM_IP);
        let (guest_end2, nsm_end2) = queue_set_pair(1024);
        let device2 = NkDevice::new(vec![nsm_end2], WakeState::new());
        let service2 = ServiceLib::new(NsmId(2), device2, 8);
        let stack2 = TcpStack::new(StackConfig::new(0x0A00_0099), new_port);
        let mut nsm2 = TcpNsm::new(StackKind::Kernel, service2, stack2);
        nsm2.service.add_vm(VmId(1), w.region.clone());
        let conn = nk_types::ConnSnapshot {
            guest_sock: SocketId(5),
            vm_queue_set: QueueSetId(0),
            tcp: snap,
            pending_send: pending,
            rx_outstanding: outstanding,
            guest: nk_types::GuestSockSnapshot {
                id: SocketId(5),
                queue_set: QueueSetId(0),
                local: None,
                remote: Some(SockAddr::new(REMOTE_IP, 7)),
                peer_closed: false,
                send_buf_cap: 64 * 1024,
                send_reserved: 0,
                rx_bytes: Vec::new(),
                interest: 0,
            },
        };
        nsm2.install_conn(VmId(1), &conn, 0).unwrap();
        let mut guest_end2 = guest_end2;
        nsm2.tick(w.now + 1);
        let mut early = Vec::new();
        guest_end2.pop_responses(&mut early, 8);
        assert!(
            early
                .iter()
                .any(|n| n.op == OpType::DataReceived && n.size == 4),
            "held bytes are pumped on the first tick: {early:?}"
        );

        // The guest keeps sending through the new NSM's queue pair.
        let second = b"second half".to_vec();
        let handle = w.region.alloc_and_write(&second).unwrap();
        guest_end2
            .submit(req(OpType::Send, 5).with_data(handle, second.len() as u32))
            .unwrap();
        for _ in 0..10 {
            w.now += 100_000;
            nsm2.tick(w.now);
            w.remote.tick(w.now);
            w.switch.step(w.now);
        }
        let mut buf = [0u8; 64];
        let mut got = Vec::new();
        while let Ok(n) = w.remote.recv(conn_sock, &mut buf) {
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        assert_eq!(got, b"first half second half");
    }

    /// Receive credit lives in the connection's context, so every teardown
    /// that drops the context drops the credit with it, and an export still
    /// carries it away.
    #[test]
    fn teardown_leaves_no_receive_credit_behind() {
        let mut w = World::new(StackKind::Kernel);
        let ls = w.remote.socket();
        w.remote.bind(ls, SockAddr::new(0, 7)).unwrap();
        w.remote.listen(ls, 8).unwrap();
        for guest in [5, 6, 7] {
            w.submit(req(OpType::SocketCreate, guest));
            w.submit(req(OpType::Connect, guest).with_op_data(SockAddr::new(REMOTE_IP, 7).pack()));
        }
        w.run(10);
        while let Ok((conn, _)) = w.remote.accept(ls) {
            w.remote.send(conn, &[7u8; 100]).unwrap();
        }
        w.run(10);
        let announced = w.responses();
        let announced = announced.iter().filter(|n| n.op == OpType::DataReceived);
        assert_eq!(announced.map(|n| n.size).sum::<u32>(), 300);
        let stack_sock = |w: &World, guest| w.nsm.service.stack_sock_of(VmId(1), SocketId(guest));
        let socks = [5, 6, 7].map(|guest| stack_sock(&w, guest).unwrap());
        let holds = |w: &World, guest: u32, sock: SocketId| {
            let s = &w.nsm.service;
            s.fwd.contains_key(&(VmId(1), SocketId(guest)))
                || s.ctx.contains_key(&sock)
                || s.pending_send.contains_key(&sock)
                || s.rx_ready.contains(&sock)
        };
        assert!(holds(&w, 5, socks[0]) && holds(&w, 6, socks[1]) && holds(&w, 7, socks[2]));

        // An export takes the credit with it.
        let exported = w.nsm.service.extract_conn(VmId(1), SocketId(5));
        assert_eq!(exported, Ok((socks[0], vec![], 100)));
        // A guest close and a VM detach forget it with the context.
        w.submit(req(OpType::Close, 6));
        w.run(1);
        assert!(!holds(&w, 5, socks[0]) && !holds(&w, 6, socks[1]));
        w.nsm.service.remove_vm(VmId(1), &mut w.nsm.stack);
        w.run(1);
        assert!(!holds(&w, 7, socks[2]));
        assert!(w.nsm.service.ctx.is_empty() && w.nsm.service.fwd.is_empty());
    }

    /// A region too small for the receive budget must delay data, never lose
    /// it: the stack keeps what has no hugepage chunk to land in (and closes
    /// its window) until the guest frees chunks. Before the chunk was
    /// allocated *first*, one 16 KiB read went missing mid-stream here.
    #[test]
    fn exhausted_region_delays_received_data_without_losing_it() {
        let mut w = World::with_region(StackKind::Kernel, HugepageRegion::with_capacity(40 * 1024));
        let ls = w.remote.socket();
        w.remote.bind(ls, SockAddr::new(0, 7)).unwrap();
        w.remote.listen(ls, 8).unwrap();
        w.submit(req(OpType::SocketCreate, 5));
        w.submit(req(OpType::Connect, 5).with_op_data(SockAddr::new(REMOTE_IP, 7).pack()));
        w.run(10);
        let _ = w.responses();
        let (conn, _) = w.remote.accept(ls).unwrap();

        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let mut sent = 0;
        let mut got = Vec::new();
        for _ in 0..2_000 {
            if sent < payload.len() {
                sent += w.remote.send(conn, &payload[sent..]).unwrap_or(0);
            }
            w.run(1);
            // The guest reads, frees and credits every chunk each round.
            for nqe in w.responses() {
                if nqe.op != OpType::DataReceived {
                    continue;
                }
                let at = got.len();
                got.resize(at + nqe.size as usize, 0);
                w.region.read(nqe.data, &mut got[at..]).unwrap();
                w.region.free(nqe.data).unwrap();
                w.submit(req(OpType::RecvConsumed, 5).with_data(DataHandle::NULL, nqe.size));
            }
            if got.len() >= payload.len() {
                break;
            }
        }
        assert!(
            w.region.stats().failed_allocs > 0,
            "the region never ran out: the test exercises nothing"
        );
        assert_eq!(got.len(), payload.len(), "bytes lost or duplicated");
        assert!(got == payload, "bytes reordered or corrupted");
        assert_eq!(w.region.stats().chunks, 0);
    }

    #[test]
    fn fair_share_nsm_builds_with_vm_windows() {
        let w = World::new(StackKind::FairShare);
        assert!(w.nsm.service.fair_share.is_some());
    }

    /// A Send on a socket ServiceLib does not know frees its chunk and
    /// returns its credit, as CoreEngine does for the Sends it drops.
    #[test]
    fn a_failed_send_frees_its_chunk_and_returns_its_credit() {
        let mut w = World::new(StackKind::Kernel);
        let before = w.region.available();
        let handle = w.region.alloc_and_write(&[7u8; 1000]).unwrap();
        w.submit(req(OpType::Send, 42).with_data(handle, 1000));
        w.run(1);
        let resp = w.responses();
        let comp = resp.iter().find(|n| n.op == OpType::SendComplete).unwrap();
        assert_eq!(comp.result(), OpResult::Err(NkError::BadSocket));
        assert_eq!(comp.size, 1000);
        assert_eq!(w.region.available(), before);
    }

    #[test]
    fn unsupported_ops_are_rejected_gracefully() {
        let mut w = World::new(StackKind::Kernel);
        w.submit(req(OpType::SocketCreate, 1));
        w.submit(req(OpType::GetSockOpt, 1));
        w.run(1);
        let resp = w.responses();
        assert!(resp
            .iter()
            .any(|n| n.op == OpType::GetSockOptComplete && !n.result().is_ok()));
    }
}
