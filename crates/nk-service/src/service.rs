//! ServiceLib: translating NQEs to network-stack calls and back.
//!
//! It is also the one place a stream's ends are ordered, whatever the
//! stack: a `Send`'s runs join its socket's queue and one loop pushes the
//! queue into the stack, a guest `shutdown(Write)` waits behind the queued
//! runs, and the peer's FIN, which a stack reports when it arrives, reaches
//! the guest as `PeerClosed` only once the stack holds no byte for it.

use crate::frontend::Frontend;
use nk_netstack::cc::{Cc, SharedVmWindow, VmSharedCc};
use nk_netstack::{NsmStack, Payload, StackEvent, TcpStack};
use nk_queue::{NkDevice, ResponderEnd};
use nk_shmem::HugepageRegion;
use nk_types::api::ShutdownHow;
use nk_types::ops::op_data;
use nk_types::{
    CcKind, ConnSnapshot, DataHandle, DetMap, GuestSockSnapshot, NkError, NkResult, Nqe, NsmId,
    OpResult, OpType, QueueSetId, Recycle, SlotTable, SocketId, VmId,
};
use std::collections::VecDeque;

/// Per-connection cap on bytes parked in the hugepages awaiting `recv()`.
const RX_BUDGET: usize = 256 * 1024;

/// Statistics exposed by a ServiceLib instance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Request NQEs processed.
    pub requests: u64,
    /// Completion / event NQEs emitted.
    pub responses: u64,
    /// Payload bytes moved from hugepages into the stack, by reference:
    /// the stack's send buffer takes a `Send` chunk's runs.
    pub bytes_tx: u64,
    /// Payload bytes moved from the stack into hugepages, by reference: a
    /// fresh chunk takes the runs of the stack's receive buffer.
    pub bytes_rx: u64,
    /// Connections accepted on behalf of guests.
    pub accepted: u64,
    /// Sockets `pump_receive` visited: the ones that may hold received
    /// bytes, never every record.
    pub rx_visits: u64,
    /// Sockets `flush_pending` visited: the ones that may hold queued runs.
    pub tx_visits: u64,
}

/// One guest socket as the NSM keeps it, keyed by its guest tuple: which
/// stack socket serves it, where its NQEs go, and what it holds between
/// calls.
struct NsmSocket {
    vm: VmId,
    guest_sock: SocketId,
    /// The stack socket serving it.
    stack: SocketId,
    /// VM-side queue set the guest pinned this socket to (used by CoreEngine
    /// to route responses back to the right vCPU).
    vm_qs: QueueSetId,
    /// NSM-side queue set proactive events are pushed on.
    nsm_qs: usize,
    /// Bytes announced to the guest and not yet consumed (receive credit).
    rx_outstanding: usize,
    /// Payload accepted from the guest but not yet taken by the stack,
    /// oldest run first (a run the stack took part of is cut to its rest).
    queued: VecDeque<Payload>,
    /// The guest shut its write side while runs were queued: the stack
    /// shuts it once they are all in, so EOF follows every byte sent.
    shut_queued: bool,
    /// The guest closed the socket while runs were queued: the record
    /// stays, shipping nothing more to the guest, until they are all in;
    /// then the stack socket closes and the record goes.
    close_queued: bool,
    /// The peer's FIN arrived: `PeerClosed` goes to the guest once the
    /// stack holds no byte for it, so EOF follows every byte received.
    eof_owed: bool,
}

impl NsmSocket {
    fn new(key: (VmId, SocketId), stack: SocketId, vm_qs: QueueSetId, nsm_qs: usize) -> Self {
        NsmSocket {
            vm: key.0,
            guest_sock: key.1,
            stack,
            vm_qs,
            nsm_qs,
            rx_outstanding: 0,
            queued: VecDeque::new(),
            shut_queued: false,
            close_queued: false,
            eof_owed: false,
        }
    }

    /// An NQE of `op` addressed to this socket's guest end.
    fn nqe(&self, op: OpType) -> Nqe {
        Nqe::new(op, self.vm, self.vm_qs, self.guest_sock)
    }

    /// Push the queued runs into the stack until it refuses, return what it
    /// took to the guest as send credit (unless the guest closed the
    /// socket), and shut the write side once they are all in if the guest
    /// shut it behind them. A refusal other than `WouldBlock` is for good:
    /// the runs go, and their bytes ride the same credit, which carries the
    /// error. True while runs wait.
    fn flush(&mut self, stack: &mut impl NsmStack, front: &mut Frontend) -> bool {
        let (mut credit, mut result) = (0, OpResult::Ok);
        while let Some(run) = self.queued.front_mut() {
            match stack.send_payload(self.stack, run) {
                Ok(n) => credit += n,
                Err(NkError::WouldBlock) => break,
                Err(e) => {
                    credit += self.queued.drain(..).map(|run| run.len()).sum::<usize>();
                    (self.shut_queued, result) = (false, OpResult::Err(e));
                    break;
                }
            }
            if !run.is_empty() {
                break;
            }
            self.queued.pop_front();
        }
        if credit > 0 && !self.close_queued {
            let comp = self
                .nqe(OpType::SendComplete)
                .with_op_data(op_data::pack(result, 0));
            front.respond(self.nsm_qs, comp.with_data(DataHandle::NULL, credit as u32));
        }
        if self.queued.is_empty() && std::mem::take(&mut self.shut_queued) {
            let _ = stack.shutdown(self.stack, ShutdownHow::Write);
        }
        !self.queued.is_empty()
    }
}

impl Recycle for NsmSocket {
    /// A new socket in a freed slot takes the old one's run queue, emptied.
    fn recycle(&mut self, old: Self) {
        self.queued = old.queued;
        self.queued.clear();
    }
}

/// The NSM-side library translating between NQEs and the network stack
/// (paper §4.2, §4.5): every NSM's one request handler, over whichever
/// [`NsmStack`] the NSM runs.
pub struct ServiceLib {
    pub(crate) front: Frontend,
    /// Every guest socket, by guest tuple: one hash per request NQE. The
    /// tuple is the key because a guest pipelines bind, listen and connect
    /// behind its `SocketCreate`, so the stack socket is not known when they
    /// leave it.
    socks: SlotTable<(VmId, SocketId), NsmSocket>,
    /// Stack socket → slot in `socks`; looked up once per stack event.
    by_stack: DetMap<SocketId, u32>,
    /// Sockets that may hold received bytes not yet shipped to their guest:
    /// all `pump_receive` visits, in `SocketId` order. A `Readable` or
    /// `PeerClosed` event, an accept and a warm install enter a socket; it
    /// stays while the stack holds bytes for it (no receive credit, no
    /// hugepage — the retry keeps a starved receiver from losing data).
    rx_ready: Vec<SocketId>,
    /// Sockets that may hold queued runs: all `flush_pending` visits, in
    /// `SocketId` order. A `Send` the stack could not take whole and a warm
    /// install with queued payload enter a socket; it stays while runs do.
    tx_ready: Vec<SocketId>,
    /// One Seawall window per VM (paper §6.2), present only on an NSM whose
    /// congestion control is `VmShared`: every connection of a VM joins its
    /// VM's window, and no other, whichever way it enters the stack.
    vm_windows: Option<DetMap<VmId, SharedVmWindow>>,
}

impl ServiceLib {
    /// Build a ServiceLib for NSM `_nsm` around its NK device. The id only
    /// names the NSM at the call site; nothing here reads it.
    pub fn new(_nsm: NsmId, device: NkDevice<ResponderEnd>, batch: usize) -> Self {
        ServiceLib {
            front: Frontend::new(device, batch),
            socks: SlotTable::new(),
            by_stack: DetMap::new(),
            rx_ready: Vec::new(),
            tx_ready: Vec::new(),
            vm_windows: None,
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
    pub fn remove_vm(&mut self, vm: VmId, stack: &mut impl NsmStack) {
        self.front.regions.remove(&vm);
        if let Some(windows) = &mut self.vm_windows {
            windows.remove(&vm);
        }
        for key in self.socks.sorted_keys() {
            if key.0 == vm {
                let _ = self.close(stack, key);
            }
        }
    }

    /// True while a socket of the VM is live here.
    pub(crate) fn has_sockets_of(&self, vm: VmId) -> bool {
        self.socks.any(|(owner, _)| *owner == vm)
    }

    /// File `rec` under guest tuple `key` and its stack socket.
    fn file(&mut self, key: (VmId, SocketId), rec: NsmSocket) -> NkResult<()> {
        let sock = rec.stack;
        self.by_stack.insert(sock, self.socks.insert(key, rec)?);
        Ok(())
    }

    /// Forget guest socket `key`, its receive credit and its queued runs,
    /// and return its record (still in its slot) for what outlives it.
    fn forget(&mut self, key: (VmId, SocketId)) -> NkResult<&mut NsmSocket> {
        let rec = self.socks.remove(&key).ok_or(NkError::BadSocket)?;
        self.by_stack.remove(&rec.stack);
        Ok(rec)
    }

    /// On a `VmShared` NSM, move stack connection `sock` into `vm`'s window.
    fn join_vm_window(
        &mut self,
        stack: &mut impl NsmStack,
        sock: SocketId,
        vm: VmId,
    ) -> NkResult<()> {
        let Some(windows) = &mut self.vm_windows else {
            return Ok(());
        };
        let window = windows.get_or_insert_with(vm, SharedVmWindow::new).clone();
        stack.set_cc(sock, Cc::VmShared(VmSharedCc::new(window)))
    }

    /// Close a guest socket's stack socket and forget the socket.
    fn close(&mut self, stack: &mut impl NsmStack, key: (VmId, SocketId)) -> NkResult<()> {
        let rec = self.forget(key)?;
        rec.queued.clear();
        stack.close(rec.stack)
    }

    // ---- Warm-migration export / install ------------------------------------

    /// Wire a warm-migrated connection into this ServiceLib: the guest
    /// tuple maps to `stack_sock` (freshly installed into the destination
    /// stack), queued payload resumes flushing, and the receive-credit
    /// accounting continues where the source left off. `nsm_qs` must be the
    /// NSM-side queue set CoreEngine pinned the tuple to.
    fn install_conn(
        &mut self,
        stack: &mut impl NsmStack,
        vm: VmId,
        conn: &ConnSnapshot,
        nsm_qs: usize,
        stack_sock: SocketId,
    ) -> NkResult<()> {
        self.join_vm_window(stack, stack_sock, vm)?;
        let key = (vm, conn.guest_sock);
        let mut rec = NsmSocket::new(key, stack_sock, conn.vm_queue_set, nsm_qs);
        rec.rx_outstanding = conn.rx_outstanding;
        rec.queued = conn.queued.iter().map(|run| run[..].into()).collect();
        (rec.shut_queued, rec.eof_owed) = (conn.shut_queued, conn.eof_owed);
        let queued = !rec.queued.is_empty();
        self.file(key, rec)?;
        if queued {
            self.tx_ready.push(stack_sock);
        }
        // The snapshot may carry received bytes, or a FIN, no segment will
        // announce.
        self.rx_ready.push(stack_sock);
        Ok(())
    }

    /// Statistics.
    pub fn stats(&self) -> ServiceStats {
        self.front.stats
    }

    /// Drain request NQEs from every queue set and apply them to `stack`.
    pub fn process_requests(&mut self, stack: &mut impl NsmStack, now_ns: u64) -> usize {
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

    fn handle_request(&mut self, stack: &mut impl NsmStack, nsm_qs: usize, nqe: Nqe, now_ns: u64) {
        let key = (nqe.vm, nqe.socket);
        let slot = self.socks.slot(&key);
        let rec = slot.map(|slot| self.socks.at_mut(slot));
        let sock = rec.as_ref().map(|rec| rec.stack).ok_or(NkError::BadSocket);
        let res = match nqe.op {
            // A live tuple is refused before a stack socket opens: a second
            // record would orphan the first, and its stack socket, for good.
            OpType::SocketCreate if sock.is_ok() => Err(NkError::AlreadyRegistered),
            OpType::SocketCreate => {
                let sock = stack.socket();
                let rec = NsmSocket::new(key, sock, nqe.queue_set, nsm_qs);
                #[expect(clippy::expect_used, reason = "the arm above refused a live tuple")]
                self.file(key, rec).expect("the tuple is free");
                return self.front.reply(nsm_qs, &nqe, Ok(()), sock.raw());
            }
            OpType::Bind => sock.and_then(|s| stack.bind(s, nqe.addr())),
            OpType::Listen => sock.and_then(|s| stack.listen(s, nqe.op_data as u32)),
            OpType::Connect => sock.and_then(|s| {
                stack.connect(s, nqe.addr(), now_ns)?;
                self.join_vm_window(stack, s, nqe.vm)
            }),
            OpType::Send => self.handle_send(stack, &nqe, slot),
            OpType::RecvConsumed => {
                if let Some(rec) = rec {
                    rec.rx_outstanding = rec.rx_outstanding.saturating_sub(nqe.size as usize);
                }
                return;
            }
            OpType::Shutdown => match (rec, ShutdownHow::decode(nqe.op_data)) {
                (Some(rec), how) if how != ShutdownHow::Read && !rec.queued.is_empty() => {
                    rec.shut_queued = true;
                    Ok(())
                }
                (_, how) => sock.and_then(|s| stack.shutdown(s, how)),
            },
            // A Close behind runs the stack has not taken waits for them.
            OpType::Close => match rec {
                Some(rec) if !rec.queued.is_empty() => {
                    rec.close_queued = true;
                    Ok(())
                }
                _ => self.close(stack, key),
            },
            OpType::SetSockOpt => sock.and_then(|s| {
                let opt = op_data::sockopt_opt(nqe.op_data);
                stack.set_sockopt(s, opt, op_data::sockopt_value(nqe.op_data))
            }),
            _ => Err(NkError::Unsupported),
        };
        // A connect succeeds when the handshake completes (the stack raises
        // a Connected event) and a send answers with its credit: only their
        // failures are answered here.
        if res.is_err() || !matches!(nqe.op, OpType::Connect | OpType::Send) {
            self.front.reply(nsm_qs, &nqe, res, 0);
        }
    }

    /// Queue a Send's payload behind the runs of the record in `slot`, if
    /// any, and push the queue into its stack socket. An error is answered
    /// by the caller, which frees the chunk and returns the credit; once
    /// the chunk is lent, the record's credit answers for its bytes.
    fn handle_send(
        &mut self,
        stack: &mut impl NsmStack,
        nqe: &Nqe,
        slot: Option<u32>,
    ) -> NkResult<()> {
        let rec = self.socks.at_mut(slot.ok_or(NkError::BadSocket)?);
        if rec.shut_queued || rec.close_queued {
            return Err(NkError::NotConnected);
        }
        let region = self.front.regions.get(&nqe.vm).ok_or(NkError::NotFound)?;
        // The hop §7.8 attributes NetKernel's throughput overhead to, made
        // by reference: the chunk's runs leave the hugepage (which is freed
        // under the same lock hold) for the stack's send buffer. Only what
        // the stack has no room for waits aside, as runs too.
        region.lend_and_free(nqe.data, nqe.size as usize, &mut rec.queued)?;
        self.front.stats.bytes_tx += u64::from(nqe.size);
        if rec.flush(stack, &mut self.front) {
            self.tx_ready.push(rec.stack);
        }
        Ok(())
    }

    /// The record of stack socket `sock`: one hash.
    fn by_stack(&mut self, sock: SocketId) -> Option<&mut NsmSocket> {
        Some(self.socks.at_mut(*self.by_stack.get(&sock)?))
    }

    /// Push the queued runs of every socket that may hold some, and close
    /// each socket whose `Close` waited for the last of them.
    fn flush_pending(&mut self, stack: &mut impl NsmStack) {
        let mut ready = std::mem::take(&mut self.tx_ready);
        ready.sort_unstable();
        ready.dedup();
        self.front.stats.tx_visits += ready.len() as u64;
        let mut closed = Vec::new();
        ready.retain(|&sock| {
            let Some(&slot) = self.by_stack.get(&sock) else {
                return false;
            };
            let rec = self.socks.at_mut(slot);
            let waiting = rec.flush(stack, &mut self.front);
            if !waiting && rec.close_queued {
                closed.push((rec.vm, rec.guest_sock));
            }
            waiting
        });
        self.tx_ready = ready;
        for key in closed {
            let _ = self.close(stack, key);
        }
    }

    /// Turn stack events into NQEs and ship received payload to the guests.
    pub fn process_stack(&mut self, stack: &mut impl NsmStack, _now_ns: u64) {
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
                // EOF waits behind the bytes the stack still holds.
                StackEvent::PeerClosed(sock) => {
                    if let Some(&slot) = self.by_stack.get(&sock) {
                        self.socks.at_mut(slot).eof_owed = true;
                        self.rx_ready.push(sock);
                    }
                    continue;
                }
                StackEvent::Connected(sock) => (
                    sock,
                    OpType::ConnectComplete,
                    op_data::pack(OpResult::Ok, sock.raw()),
                ),
                StackEvent::ConnectFailed(sock, err) => (
                    sock,
                    OpType::ConnectComplete,
                    op_data::pack(OpResult::Err(err), 0),
                ),
            };
            if let Some(rec) = self.by_stack(sock) {
                let (nsm_qs, ev) = (rec.nsm_qs, rec.nqe(op).with_op_data(op_data));
                self.front.respond(nsm_qs, ev);
            }
        }
        self.pump_receive(stack);
        self.flush_pending(stack);
    }

    fn drain_accepts(&mut self, stack: &mut impl NsmStack, listener: SocketId) {
        // The listener's record tells us which guest owns it.
        let Some(l) = self.by_stack(listener) else {
            return;
        };
        let (vm, vm_qs, nsm_qs, event) = (l.vm, l.vm_qs, l.nsm_qs, l.nqe(OpType::Accepted));
        while let Ok((conn, peer)) = stack.accept(listener) {
            let taken = |id| self.socks.contains_key(&(vm, id));
            let key = (vm, self.front.alloc_guest_sock(taken));
            let rec = NsmSocket::new(key, conn, vm_qs, nsm_qs);
            #[expect(
                clippy::expect_used,
                reason = "alloc_guest_sock skips every id live for the VM"
            )]
            self.file(key, rec).expect("ids skip live tuples");
            self.front.stats.accepted += 1;
            let _ = self.join_vm_window(stack, conn, vm);
            // Its first bytes may have arrived before it had a record.
            self.rx_ready.push(conn);
            let ev = event.with_op_data(op_data::pack(OpResult::Ok, key.1.raw()));
            self.front
                .respond(nsm_qs, ev.with_data(DataHandle(peer.pack()), 0));
        }
    }

    fn pump_receive(&mut self, stack: &mut impl NsmStack) {
        let mut ready = std::mem::take(&mut self.rx_ready);
        ready.sort_unstable();
        ready.dedup();
        self.front.stats.rx_visits += ready.len() as u64;
        ready.retain(|&sock| self.pump_socket(stack, sock));
        self.rx_ready = ready;
    }

    /// Ship what `sock` has received to its guest: a chunk of every byte
    /// the stack holds, as far as the receive credit goes and as the VM's
    /// region can take now (the longest free run of its lines, shared with
    /// the VM's other sockets and its `Send`s). A chunk spends the credit
    /// or the bytes, or takes that run, so one `DataReceived` per pump is
    /// the rule; a region whose free lines are split takes a chunk per
    /// run, and a full one refuses the next (counted in `failed_allocs`).
    /// Then the peer's FIN, once the stack holds no byte for it. True
    /// while the stack still holds bytes: the socket stays on the ready
    /// list, and the next pump tries again.
    fn pump_socket(&mut self, stack: &mut impl NsmStack, sock: SocketId) -> bool {
        let Some(&slot) = self.by_stack.get(&sock) else {
            return false;
        };
        let rec = self.socks.at_mut(slot);
        if rec.close_queued {
            return false;
        }
        loop {
            let credit = RX_BUDGET.saturating_sub(rec.rx_outstanding);
            if credit == 0 {
                break;
            }
            // Size the chunk from what the stack holds, allocate it, and
            // only then move the stack's runs into it by reference, under
            // one lock hold: nothing leaves `recv_buf` unless it has a
            // hugepage chunk to land in, and a failed `recv_runs` frees the
            // chunk again.
            let want = credit.min(stack.recv_available(sock));
            if want == 0 {
                break;
            }
            let Some(region) = self.front.regions.get(&rec.vm) else {
                break;
            };
            let filled = region.alloc_and_fill(want, |runs, n| stack.recv_runs(sock, n, runs));
            let Ok((handle, n)) = filled else {
                break;
            };
            self.front.stats.bytes_rx += n as u64;
            rec.rx_outstanding += n;
            let ev = rec.nqe(OpType::DataReceived).with_data(handle, n as u32);
            self.front.respond(rec.nsm_qs, ev);
        }
        let held = stack.recv_available(sock);
        if held == 0 && std::mem::take(&mut rec.eof_owed) {
            self.front.respond(rec.nsm_qs, rec.nqe(OpType::PeerClosed));
        }
        held > 0
    }
}

/// An NSM: a ServiceLib paired with the stack it serves guests through.
///
/// The kernel-stack and mTCP NSMs are both a [`TcpNsm`] — they run the same
/// from-scratch TCP substrate but are provisioned and cost-accounted
/// differently (the mTCP NSM uses poll-mode batching and a cheaper
/// per-operation profile in the host's cost model, mirroring §6.3/§7.4). The
/// shared-memory NSM of use case 4 (§6.4) is a `StackNsm<LocalStack>`.
pub struct StackNsm<S> {
    pub(crate) service: ServiceLib,
    pub(crate) stack: S,
}

/// A ServiceLib over a TCP stack.
pub type TcpNsm = StackNsm<TcpStack>;

impl<S: NsmStack> StackNsm<S> {
    /// Assemble an NSM whose congestion control is `cc` from its parts.
    pub fn new(cc: CcKind, mut service: ServiceLib, stack: S) -> Self {
        if cc == CcKind::VmShared {
            service.vm_windows = Some(DetMap::new());
        }
        StackNsm { service, stack }
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

impl TcpNsm {
    /// Borrow the underlying stack immutably (wire-quiet queries).
    pub fn stack(&self) -> &TcpStack {
        &self.stack
    }

    /// Borrow the underlying stack (used by tests and the host).
    pub fn stack_mut(&mut self) -> &mut TcpStack {
        &mut self.stack
    }

    /// One guest connection's NSM-side state for a warm migration, around
    /// the guest socket's snapshot `guest`: the TCP snapshot plus
    /// ServiceLib's queued payload, receive credit and both pending ends (a
    /// shutdown behind the queued runs, EOF behind the held bytes). Nothing
    /// here changes; [`TcpNsm::cut_conn`] takes the connection out.
    pub fn snapshot_conn(
        &self,
        vm: VmId,
        guest_sock: SocketId,
        guest: GuestSockSnapshot,
    ) -> NkResult<ConnSnapshot> {
        let rec = self
            .service
            .socks
            .get(&(vm, guest_sock))
            .ok_or(NkError::BadSocket)?;
        Ok(ConnSnapshot {
            guest_sock,
            vm_queue_set: rec.vm_qs,
            tcp: self.stack.snapshot_conn(rec.stack)?,
            queued: rec.queued.iter().map(|run| run.to_vec()).collect(),
            rx_outstanding: rec.rx_outstanding,
            shut_queued: rec.shut_queued,
            eof_owed: rec.eof_owed,
            guest,
        })
    }

    /// Take guest connection `(vm, guest_sock)` out of this NSM without a
    /// word to its peer: the record, its queued runs and its stack
    /// connection go ([`TcpStack::cut_conn`]). An unknown tuple is left
    /// alone.
    pub fn cut_conn(&mut self, vm: VmId, guest_sock: SocketId) {
        if let Ok(rec) = self.service.forget((vm, guest_sock)) {
            rec.queued.clear();
            self.stack.cut_conn(rec.stack);
        }
    }

    /// Install a warm-migrated connection into this NSM: the TCP state
    /// machine goes into the stack under a fresh socket id, and ServiceLib
    /// resumes translation for the guest tuple on `nsm_qs`. Returns the
    /// stack-side socket id for the CoreEngine connection table.
    pub fn install_conn(
        &mut self,
        vm: VmId,
        conn: &ConnSnapshot,
        nsm_qs: usize,
    ) -> NkResult<SocketId> {
        let stack_sock = self.stack.install_conn(&conn.tcp)?;
        let installed = self
            .service
            .install_conn(&mut self.stack, vm, conn, nsm_qs, stack_sock);
        if let Err(e) = installed {
            // Unwind the stack install so a refused wiring leaves no
            // orphaned connection behind.
            self.stack.cut_conn(stack_sock);
            return Err(e);
        }
        Ok(stack_sock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nk_fabric::switch::VirtualSwitch;
    use nk_netstack::{CcAlgorithm, LocalStack, Segment, StackConfig};
    use nk_queue::{queue_set_pair, RequesterEnd, WakeState};
    use nk_types::constants::NSM_SOCKET_ID_BASE;
    use nk_types::SockAddr;

    impl ServiceLib {
        /// True while this ServiceLib holds state for the VM (region mapping
        /// or live sockets).
        fn has_vm(&self, vm: VmId) -> bool {
            self.front.regions.contains_key(&vm) || self.has_sockets_of(vm)
        }
    }

    impl TcpNsm {
        /// A warm export of one connection: its snapshot, then the cut.
        fn export_conn(
            &mut self,
            vm: VmId,
            guest_sock: SocketId,
            guest: GuestSockSnapshot,
        ) -> NkResult<ConnSnapshot> {
            let conn = self.snapshot_conn(vm, guest_sock, guest)?;
            self.cut_conn(vm, guest_sock);
            Ok(conn)
        }
    }

    const NSM_IP: u32 = 0x0A00_0010;
    const REMOTE_IP: u32 = 0x0A00_0020;

    /// A little world: one NSM (serving VM 1) and one remote peer stack,
    /// listening on port 7, connected by a switch. The test plays the roles
    /// of GuestLib and CoreEngine by talking to the requester end directly.
    struct World {
        switch: VirtualSwitch<Segment>,
        nsm: TcpNsm,
        /// The NSM's congestion control, as its stack was built with it.
        cc: CcKind,
        stack_cc: CcAlgorithm,
        remote: TcpStack,
        ls: SocketId,
        guest_end: RequesterEnd,
        region: HugepageRegion,
        now: u64,
    }

    impl World {
        fn new(cc: CcKind) -> Self {
            Self::with_region(cc, HugepageRegion::with_capacity(4 << 20))
        }

        fn with_region(cc: CcKind, region: HugepageRegion) -> Self {
            let mut switch = VirtualSwitch::new();
            let nsm_port = switch.attach(NSM_IP);
            let remote_port = switch.attach(REMOTE_IP);
            let (guest_end, nsm_end) = queue_set_pair(1024);
            let device = NkDevice::new(vec![nsm_end], WakeState::new());
            let service = ServiceLib::new(NsmId(1), device, 8);
            // As a host's `attach_nsm` assembles it.
            let stack_cc = CcAlgorithm::from_kind(cc);
            let stack_cfg = StackConfig::new(NSM_IP).with_cc(stack_cc.clone());
            let mut nsm = TcpNsm::new(cc, service, TcpStack::new(stack_cfg, nsm_port));
            nsm.service.add_vm(VmId(1), region.clone());
            let mut remote = TcpStack::new(StackConfig::new(REMOTE_IP), remote_port);
            let ls = remote.socket();
            remote.bind(ls, SockAddr::new(0, 7)).unwrap();
            remote.listen(ls, 8).unwrap();
            World {
                switch,
                nsm,
                cc,
                stack_cc,
                remote,
                ls,
                guest_end,
                region,
                now: 0,
            }
        }

        /// Guest socket `sock` connects to the remote's listener: the
        /// remote's end, and the NSM's end's address.
        fn connect(&mut self, sock: u32) -> (SocketId, SockAddr) {
            self.submit(req(OpType::SocketCreate, sock));
            let to = SockAddr::new(REMOTE_IP, 7).pack();
            self.submit(req(OpType::Connect, sock).with_op_data(to));
            self.run(10);
            self.remote.accept(self.ls).unwrap()
        }

        /// Move guest socket `sock` to a fresh NSM on the switch, which
        /// adopts this one's address (the "fabric reroute" of a
        /// one-switch world) and from then on is the world's NSM: the
        /// export and install a host's warm move makes. The snapshot.
        fn move_conn(&mut self, sock: u32) -> ConnSnapshot {
            let guest = guest_sock(sock);
            let conn = self
                .nsm
                .export_conn(VmId(1), SocketId(sock), guest)
                .unwrap();
            assert!(!self
                .nsm
                .service
                .socks
                .contains_key(&(VmId(1), SocketId(sock))));
            let port = self.switch.attach(NSM_IP);
            let (guest_end, nsm_end) = queue_set_pair(1024);
            let device = NkDevice::new(vec![nsm_end], WakeState::new());
            let service = ServiceLib::new(NsmId(2), device, 8);
            let stack_cfg = StackConfig::new(0x0A00_0099).with_cc(self.stack_cc.clone());
            self.nsm = TcpNsm::new(self.cc, service, TcpStack::new(stack_cfg, port));
            self.nsm.service.add_vm(VmId(1), self.region.clone());
            self.nsm.install_conn(VmId(1), &conn, 0).unwrap();
            self.guest_end = guest_end;
            conn
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

    /// What a guest socket connected to the remote's listener exports:
    /// these tests play GuestLib, so nothing reads it.
    fn guest_sock(sock: u32) -> GuestSockSnapshot {
        GuestSockSnapshot {
            id: SocketId(sock),
            queue_set: QueueSetId(0),
            local: None,
            remote: Some(SockAddr::new(REMOTE_IP, 7)),
            peer_closed: false,
            send_buf_cap: 64 * 1024,
            send_reserved: 0,
            rx_bytes: Vec::new(),
            interest: 0,
        }
    }

    #[test]
    fn socket_create_and_bind_listen_complete() {
        let mut w = World::new(CcKind::Cubic);
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
        let mut w = World::new(CcKind::Cubic);
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
        let mut w = World::new(CcKind::Cubic);
        // Remote echo listener.
        let ls = w.ls;

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
        let mut w = World::new(CcKind::Cubic);
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
        let mut w = World::new(CcKind::Cubic);
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
        let mut w = World::new(CcKind::Cubic);
        w.connect(5);
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

    /// A `SocketCreate` for a live guest tuple is refused and opens no stack
    /// socket: a second record would orphan the first, and its stack
    /// socket, for good.
    #[test]
    fn a_socket_create_for_a_live_tuple_is_refused() {
        let mut w = World::new(CcKind::Cubic);
        w.submit(req(OpType::SocketCreate, 1));
        w.submit(req(OpType::SocketCreate, 1));
        w.run(1);
        let results: Vec<OpResult> = w.responses().iter().map(|n| n.result()).collect();
        let refused = OpResult::Err(NkError::AlreadyRegistered);
        assert_eq!(results, [OpResult::Ok, refused]);
        assert_eq!(w.nsm.stack.socket_count(), 1);
        w.submit(req(OpType::Close, 1));
        w.run(1);
        assert_eq!(w.responses()[0].result(), OpResult::Ok);
        assert_eq!(w.nsm.stack.socket_count(), 0, "no stack socket left behind");
        assert!(w.nsm.service.socks.is_empty() && w.nsm.service.by_stack.is_empty());
    }

    /// A guest may create a socket with an id in the NSM's range; the next
    /// accept skips that id rather than collide with it, and both sockets
    /// keep their own stack socket.
    #[test]
    fn an_accept_skips_an_nsm_range_id_the_guest_holds() {
        let mut w = World::new(CcKind::Cubic);
        w.submit(req(OpType::SocketCreate, NSM_SOCKET_ID_BASE));
        w.submit(req(OpType::SocketCreate, 1));
        w.submit(req(OpType::Bind, 1).with_op_data(SockAddr::new(0, 80).pack()));
        w.submit(req(OpType::Listen, 1).with_op_data(16));
        w.run(2);
        assert!(w.responses().iter().all(|n| n.result().is_ok()));

        let rs = w.remote.socket();
        w.remote
            .connect(rs, SockAddr::new(NSM_IP, 80), w.now)
            .unwrap();
        w.run(10);
        let resp = w.responses();
        let accepted: Vec<u32> = resp
            .iter()
            .filter(|n| n.op == OpType::Accepted)
            .map(|n| n.aux())
            .collect();
        assert_eq!(accepted, [NSM_SOCKET_ID_BASE + 1]);
        assert_eq!(w.nsm.service.socks.len(), 3);
        assert_eq!(
            w.nsm.stack.socket_count(),
            3,
            "the guest's socket kept its own"
        );
        w.submit(req(OpType::Close, NSM_SOCKET_ID_BASE));
        w.run(1);
        assert_eq!(w.responses()[0].result(), OpResult::Ok);
    }

    /// A connection exported from one NSM and installed into another keeps
    /// its guest tuple working end to end: pending payload flushes, receive
    /// credit survives, and the peer sees a contiguous byte stream.
    #[test]
    fn export_install_moves_a_connection_between_nsms() {
        let mut w = World::new(CcKind::Cubic);
        let (conn_sock, _) = w.connect(5);
        let payload = b"first half ".to_vec();
        let handle = w.region.alloc_and_write(&payload).unwrap();
        w.submit(req(OpType::Send, 5).with_data(handle, payload.len() as u32));
        w.run(10);
        let _ = w.responses();
        // Bytes ServiceLib has not shipped yet travel in the snapshot.
        w.remote.send(conn_sock, b"held").unwrap();
        for _ in 0..5 {
            w.now += 100_000;
            w.remote.tick(w.now);
            w.switch.step(w.now);
            w.nsm.stack_mut().tick(w.now);
        }

        let conn = w.move_conn(5);
        assert_eq!(conn.tcp.remote, SockAddr::new(REMOTE_IP, 7));
        w.nsm.tick(w.now + 1);
        let early = w.responses();
        assert!(
            early
                .iter()
                .any(|n| n.op == OpType::DataReceived && n.size == 4),
            "held bytes are pumped on the first tick: {early:?}"
        );

        // The guest keeps sending through the new NSM's queue pair.
        let second = b"second half".to_vec();
        let handle = w.region.alloc_and_write(&second).unwrap();
        w.submit(req(OpType::Send, 5).with_data(handle, second.len() as u32));
        w.run(10);
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

    /// Receive credit lives in the socket's record, so every teardown that
    /// drops the record drops the credit with it, and an export still
    /// carries it away.
    #[test]
    fn teardown_leaves_no_receive_credit_behind() {
        let mut w = World::new(CcKind::Cubic);
        for guest in [5, 6, 7] {
            w.submit(req(OpType::SocketCreate, guest));
            w.submit(req(OpType::Connect, guest).with_op_data(SockAddr::new(REMOTE_IP, 7).pack()));
        }
        w.run(10);
        while let Ok((conn, _)) = w.remote.accept(w.ls) {
            w.remote.send(conn, &[7u8; 100]).unwrap();
        }
        w.run(10);
        let announced = w.responses();
        let announced = announced.iter().filter(|n| n.op == OpType::DataReceived);
        assert_eq!(announced.map(|n| n.size).sum::<u32>(), 300);
        let socks = [5, 6, 7].map(|guest| w.nsm.service.socks.get(&(VmId(1), SocketId(guest))));
        let socks = socks.map(|rec| rec.unwrap().stack);
        let holds = |w: &World, guest: u32, sock: SocketId| {
            let s = &w.nsm.service;
            s.socks.contains_key(&(VmId(1), SocketId(guest)))
                || s.by_stack.contains_key(&sock)
                || s.rx_ready.contains(&sock)
                || s.tx_ready.contains(&sock)
        };
        assert!(holds(&w, 5, socks[0]) && holds(&w, 6, socks[1]) && holds(&w, 7, socks[2]));

        // An export takes the credit with it.
        let conn = w
            .nsm
            .export_conn(VmId(1), SocketId(5), guest_sock(5))
            .unwrap();
        assert_eq!((conn.queued, conn.rx_outstanding), (vec![], 100));
        // A guest close and a VM detach forget it with the context.
        w.submit(req(OpType::Close, 6));
        w.run(1);
        assert!(!holds(&w, 5, socks[0]) && !holds(&w, 6, socks[1]));
        w.nsm.service.remove_vm(VmId(1), &mut w.nsm.stack);
        w.run(1);
        assert!(!holds(&w, 7, socks[2]));
        assert!(w.nsm.service.socks.is_empty() && w.nsm.service.by_stack.is_empty());
    }

    /// A region too small for the receive budget must delay data, never lose
    /// it: the stack keeps what has no hugepage chunk to land in (and closes
    /// its window) until the guest frees chunks. Before the chunk was
    /// allocated *first*, one 16 KiB read went missing mid-stream here.
    #[test]
    fn exhausted_region_delays_received_data_without_losing_it() {
        let mut w = World::with_region(CcKind::Cubic, HugepageRegion::with_capacity(40 * 1024));
        let (conn, _) = w.connect(5);
        let _ = w.responses();

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

    /// A stack holding several times what the region can hold ships it a
    /// region at a time: a chunk takes what the region's free lines hold,
    /// never a size the region could not land, where the bytes would stall
    /// in the stack for good.
    #[test]
    fn a_stack_holding_several_regions_worth_ships_it_a_region_at_a_time() {
        let capacity = 40 * 1024;
        let mut w = World::with_region(CcKind::Cubic, HugepageRegion::with_capacity(capacity));
        let (conn, _) = w.connect(5);
        let _ = w.responses();
        let stack_sock = w
            .nsm
            .service
            .socks
            .get(&(VmId(1), SocketId(5)))
            .unwrap()
            .stack;

        let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let (mut sent, mut announced) = (0, Vec::new());
        // The guest reads nothing until the stack holds three regions' worth.
        for _ in 0..200 {
            sent += w.remote.send(conn, &payload[sent..]).unwrap_or(0);
            w.run(1);
            announced.extend(w.responses());
            if w.nsm.stack.recv_available(stack_sock) >= 3 * capacity {
                break;
            }
        }
        let held = w.nsm.stack.recv_available(stack_sock);
        assert!(held >= 3 * capacity, "the stack holds only {held} bytes");

        let mut got = Vec::new();
        for _ in 0..2_000 {
            for nqe in announced.drain(..) {
                if nqe.op != OpType::DataReceived {
                    continue;
                }
                assert!(nqe.size as usize <= capacity, "a {}-byte chunk", nqe.size);
                let at = got.len();
                got.resize(at + nqe.size as usize, 0);
                w.region.read(nqe.data, &mut got[at..]).unwrap();
                w.region.free(nqe.data).unwrap();
                w.submit(req(OpType::RecvConsumed, 5).with_data(DataHandle::NULL, nqe.size));
            }
            if got.len() == payload.len() {
                break;
            }
            sent += w.remote.send(conn, &payload[sent..]).unwrap_or(0);
            w.run(1);
            announced.extend(w.responses());
        }
        assert!(
            got == payload,
            "{} of {} bytes, in order",
            got.len(),
            payload.len()
        );
        assert_eq!(w.region.stats().chunks, 0);
    }

    /// A socket whose held bytes outgrow the region's free lines still
    /// receives while another socket's unread chunk holds the rest: its
    /// chunk takes the free lines there are, and the remainder follows once
    /// the guest reads it.
    #[test]
    fn a_socket_receives_while_another_sockets_unread_chunk_holds_the_region() {
        let mut w = World::with_region(CcKind::Cubic, HugepageRegion::with_capacity(64 << 10));
        let (conn_a, _) = w.connect(5);
        let (conn_b, _) = w.connect(6);
        let _ = w.responses();
        let a: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
        let b: Vec<u8> = (0..30_000u32).map(|i| (i % 241) as u8).collect();

        // Socket 5's 40 000 bytes land and stay unread.
        let (mut sent, mut landed) = (0, 0);
        for _ in 0..200 {
            sent += w.remote.send(conn_a, &a[sent..]).unwrap_or(0);
            w.run(1);
            landed += w
                .responses()
                .iter()
                .map(|nqe| nqe.size as usize)
                .sum::<usize>();
            if landed == a.len() {
                break;
            }
        }
        assert_eq!(landed, a.len());
        // A `Send` chunk in flight takes every line left while socket 6's
        // 30 000 bytes arrive, so the stack holds them all.
        let send = w
            .region
            .alloc_and_write(&vec![0; w.region.available()])
            .unwrap();
        let mut sent = 0;
        for _ in 0..100 {
            sent += w.remote.send(conn_b, &b[sent..]).unwrap_or(0);
            w.run(1);
        }
        assert_eq!(sent, b.len());
        assert!(w.responses().is_empty(), "the region had no room");
        w.region.free(send).unwrap();
        assert!(w.region.available() < b.len());

        let mut got = Vec::new();
        for _ in 0..20 {
            w.run(1);
            for nqe in w.responses() {
                assert_eq!((nqe.op, nqe.socket), (OpType::DataReceived, SocketId(6)));
                let at = got.len();
                got.resize(at + nqe.size as usize, 0);
                w.region.read(nqe.data, &mut got[at..]).unwrap();
                w.region.free(nqe.data).unwrap();
                w.submit(req(OpType::RecvConsumed, 6).with_data(DataHandle::NULL, nqe.size));
            }
        }
        assert!(got == b, "{} of {} bytes, in order", got.len(), b.len());
    }

    /// A guest `shutdown(Write)` behind runs the stack has not taken yet
    /// waits for them: the peer reads every byte, then EOF. The wait
    /// travels with the runs: the connection moves to another NSM midway.
    #[test]
    fn a_shutdown_waits_behind_the_runs_queued_ahead_of_it() {
        let mut w = World::new(CcKind::Cubic);
        let (conn, _) = w.connect(5);
        let payload: Vec<u8> = (0..1 << 20).map(|i| (i % 251) as u8).collect();
        for part in payload.chunks(64 * 1024) {
            let handle = w.region.alloc_and_write(part).unwrap();
            w.submit(req(OpType::Send, 5).with_data(handle, part.len() as u32));
        }
        w.run(10);
        let shut = req(OpType::Shutdown, 5).with_op_data(ShutdownHow::Write.encode());
        w.submit(shut);
        w.run(1);
        let rec = w.nsm.service.socks.get(&(VmId(1), SocketId(5))).unwrap();
        assert!(
            !rec.queued.is_empty(),
            "nothing queued: the test exercises nothing"
        );
        let conn_snap = w.move_conn(5);
        assert!(conn_snap.shut_queued && !conn_snap.queued.is_empty());
        let (mut got, mut buf) = (Vec::new(), vec![0u8; 64 * 1024]);
        for _ in 0..2_000 {
            match w.remote.recv(conn, &mut buf) {
                Ok(0) => break,
                Ok(n) => got.extend_from_slice(&buf[..n]),
                Err(NkError::WouldBlock) => w.run(1),
                Err(e) => panic!("{e:?} after {} bytes", got.len()),
            }
        }
        assert!(
            got == payload,
            "{} of {} bytes before EOF",
            got.len(),
            payload.len()
        );
    }

    /// The peer's FIN waits behind the bytes the stack still holds: the
    /// guest, which does not read meanwhile, is told `PeerClosed` only after
    /// the last `DataReceived`. The wait travels with the bytes: the
    /// connection moves to another NSM while EOF is owed (the other pending
    /// end moves in `a_shutdown_waits_behind_the_runs_queued_ahead_of_it`).
    #[test]
    fn eof_waits_behind_the_bytes_the_stack_holds() {
        let mut w = World::new(CcKind::Cubic);
        let (conn, _) = w.connect(5);
        let payload: Vec<u8> = (0..2 * RX_BUDGET).map(|i| (i % 251) as u8).collect();
        let mut sent = 0;
        for _ in 0..100 {
            sent += w.remote.send(conn, &payload[sent..]).unwrap_or(0);
            w.run(1);
        }
        assert_eq!(sent, payload.len());
        w.remote.close(conn).unwrap();
        w.run(5);
        let rec = w.nsm.service.socks.get(&(VmId(1), SocketId(5))).unwrap();
        assert!(rec.eof_owed && w.nsm.stack.recv_available(rec.stack) > 0);
        let mut announced = w.responses();
        assert!(announced.iter().all(|n| n.op != OpType::PeerClosed));
        let conn_snap = w.move_conn(5);
        assert!(conn_snap.eof_owed && !conn_snap.tcp.recv_buf.is_empty());
        // The guest wakes and reads: every byte, then EOF.
        // The guest wakes and reads: every byte, then EOF. GuestLib reads
        // a batch's bytes before the EOF it carries (events overtake data
        // in a queue set), and so does this guest.
        let mut got = Vec::new();
        for _ in 0..100 {
            for nqe in announced.iter().filter(|n| n.op == OpType::DataReceived) {
                let at = got.len();
                got.resize(at + nqe.size as usize, 0);
                w.region.read(nqe.data, &mut got[at..]).unwrap();
                w.region.free(nqe.data).unwrap();
                w.submit(req(OpType::RecvConsumed, 5).with_data(DataHandle::NULL, nqe.size));
            }
            if announced.iter().any(|n| n.op == OpType::PeerClosed) {
                assert!(got == payload, "EOF after {} bytes", got.len());
                return;
            }
            w.run(1);
            announced = w.responses();
        }
        panic!("no EOF after {} bytes", got.len());
    }

    /// Queued runs the stack refuses for good are dropped, not held: their
    /// bytes go back to the guest as credit carrying the error, and the
    /// socket leaves the flush list. The remote never reads, then closes,
    /// which resets the connection: it holds unread bytes.
    #[test]
    fn runs_the_stack_refuses_for_good_go_back_with_the_error() {
        let mut w = World::new(CcKind::Cubic);
        let (remote_end, _) = w.connect(5);
        for _ in 0..16 {
            let handle = w.region.alloc_and_write(&[7u8; 64 * 1024]).unwrap();
            w.submit(req(OpType::Send, 5).with_data(handle, 64 * 1024));
        }
        w.run(10);
        let queued = |w: &World| {
            w.nsm
                .service
                .socks
                .get(&(VmId(1), SocketId(5)))
                .unwrap()
                .queued
                .len()
        };
        assert!(queued(&w) > 0, "nothing queued: the test exercises nothing");
        w.remote.close(remote_end).unwrap();
        for _ in 0..100 {
            w.run(1);
            if queued(&w) == 0 {
                break;
            }
        }
        assert_eq!(queued(&w), 0, "the runs are held");
        let visits = w.nsm.service.stats().tx_visits;
        w.run(100);
        assert_eq!(w.nsm.service.stats().tx_visits, visits);
        let credit: Vec<(OpResult, u32)> = (w.responses().iter())
            .filter(|n| n.op == OpType::SendComplete)
            .map(|n| (n.result(), n.size))
            .collect();
        assert_eq!(
            credit.iter().map(|c| c.1).sum::<u32>(),
            1 << 20,
            "{credit:?}"
        );
        assert!(
            matches!(credit.last(), Some((OpResult::Err(_), _))),
            "{credit:?}"
        );
    }

    /// On an NSM whose congestion control is `VmShared`, a connection
    /// counts in its own VM's window and in no other, whether it was
    /// accepted on the VM's listener or warm-installed for the VM. Both used
    /// to join the stack's one window, which every tenant shared.
    #[test]
    fn a_vm_shared_nsm_counts_each_connection_in_its_vms_window_only() {
        let mut w = World::new(CcKind::VmShared);
        let (a, b) = (VmId(1), VmId(2));
        w.nsm
            .service
            .add_vm(b, HugepageRegion::with_capacity(1 << 20));
        for (vm, port) in [(a, 80), (b, 81)] {
            let req = |op| Nqe::new(op, vm, QueueSetId(0), SocketId(1));
            w.submit(req(OpType::SocketCreate));
            w.submit(req(OpType::Bind).with_op_data(SockAddr::new(0, port).pack()));
            w.submit(req(OpType::Listen).with_op_data(16));
        }
        w.run(2);
        for port in [80, 81, 81, 81] {
            let rs = w.remote.socket();
            w.remote
                .connect(rs, SockAddr::new(NSM_IP, port), w.now)
                .unwrap();
        }
        w.run(10);
        assert_eq!(w.nsm.service.stats().accepted, 4);
        // A connection of A's, exported from another NSM, lands here.
        let mut src = World::new(CcKind::Cubic);
        src.connect(5);
        let conn = src.nsm.export_conn(a, SocketId(5), guest_sock(5)).unwrap();
        w.nsm.install_conn(a, &conn, 0).unwrap();

        let windows = w.nsm.service.vm_windows.as_ref().unwrap();
        let flows = |vm| windows.get(&vm).map(SharedVmWindow::active_flows);
        assert_eq!((flows(a), flows(b), windows.len()), (Some(2), Some(3), 2));
        let CcAlgorithm::VmShared(stack_window) = &w.stack_cc else {
            panic!("a VmShared NSM's stack builds VmShared connections");
        };
        assert_eq!(stack_window.active_flows(), 0, "the stack's own window");
        // A VM that leaves the NSM takes its window along.
        w.nsm.service.remove_vm(b, &mut w.nsm.stack);
        let windows = w.nsm.service.vm_windows.as_ref().unwrap();
        assert!(windows.get(&b).is_none() && windows.get(&a).is_some());
    }

    /// A Send on a socket ServiceLib does not know frees its chunk and
    /// returns its credit, as CoreEngine does for the Sends it drops.
    #[test]
    fn a_failed_send_frees_its_chunk_and_returns_its_credit() {
        let mut w = World::new(CcKind::Cubic);
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
        let mut w = World::new(CcKind::Cubic);
        w.submit(req(OpType::SocketCreate, 1));
        w.submit(req(OpType::GetSockOpt, 1));
        w.run(1);
        let resp = w.responses();
        assert!(resp
            .iter()
            .any(|n| n.op == OpType::GetSockOptComplete && !n.result().is_ok()));
    }

    /// Two colocated VMs on one shared-memory NSM: ServiceLib over a
    /// [`LocalStack`]. Queue set 0 carries VM 1, queue set 1 VM 2; the test
    /// plays GuestLib and CoreEngine on the requester ends.
    struct Colocated {
        nsm: StackNsm<LocalStack>,
        ends: [RequesterEnd; 2],
        regions: [HugepageRegion; 2],
    }

    impl Colocated {
        fn new() -> Self {
            let (vm1_end, nsm_end1) = queue_set_pair(256);
            let (vm2_end, nsm_end2) = queue_set_pair(256);
            let device = NkDevice::new(vec![nsm_end1, nsm_end2], WakeState::new());
            let service = ServiceLib::new(NsmId(1), device, 8);
            let mut nsm = StackNsm::new(CcKind::Cubic, service, LocalStack::new());
            let regions = [1, 2].map(|_| HugepageRegion::with_capacity(1 << 20));
            nsm.service.add_vm(VmId(1), regions[0].clone());
            nsm.service.add_vm(VmId(2), regions[1].clone());
            Colocated {
                nsm,
                ends: [vm1_end, vm2_end],
                regions,
            }
        }

        /// Submit `op` on VM `vm`'s socket `sock`, shaped by `with`.
        fn submit(&mut self, vm: u8, op: OpType, sock: u32, with: impl FnOnce(Nqe) -> Nqe) {
            let nqe = Nqe::new(op, VmId(vm), QueueSetId(0), SocketId(sock));
            self.ends[vm as usize - 1].submit(with(nqe)).unwrap();
        }

        fn responses(&mut self, vm: u8) -> Vec<Nqe> {
            let mut out = Vec::new();
            self.ends[vm as usize - 1].pop_responses(&mut out, 64);
            out
        }

        /// VM 1's socket 1 listens on port 8080 with `backlog`.
        fn listen(&mut self, backlog: u64) {
            self.submit(1, OpType::SocketCreate, 1, |n| n);
            let port = SockAddr::new(0, 8080).pack();
            self.submit(1, OpType::Bind, 1, |n| n.with_op_data(port));
            self.submit(1, OpType::Listen, 1, |n| n.with_op_data(backlog));
            self.nsm.tick(0);
            assert!(self.responses(1).iter().all(|n| n.result().is_ok()));
        }

        /// VM 2's socket `sock` connects to `port`.
        fn connect(&mut self, sock: u32, port: u16) {
            self.submit(2, OpType::SocketCreate, sock, |n| n);
            let to = SockAddr::new(0, port).pack();
            self.submit(2, OpType::Connect, sock, |n| n.with_op_data(to));
        }

        /// VM 2's socket 1 connects to VM 1's listener: the guest socket id
        /// VM 1 was handed for it.
        fn pair(&mut self) -> u32 {
            self.listen(16);
            self.connect(1, 8080);
            self.nsm.tick(0);
            let vm2 = self.responses(2);
            let ok = |n: &&Nqe| n.op == OpType::ConnectComplete && n.result().is_ok();
            assert_eq!(vm2.iter().filter(ok).count(), 1, "{vm2:?}");
            let vm1 = self.responses(1);
            let accepted: Vec<u32> = (vm1.iter().filter(|n| n.op == OpType::Accepted))
                .map(|n| n.aux())
                .collect();
            assert_eq!(accepted.len(), 1, "{vm1:?}");
            accepted[0]
        }

        /// VM 2 sends `bytes` on its socket 1.
        fn send(&mut self, bytes: &[u8]) {
            let handle = self.regions[1].alloc_and_write(bytes).unwrap();
            let len = bytes.len() as u32;
            self.submit(2, OpType::Send, 1, |n| n.with_data(handle, len));
            self.nsm.tick(0);
        }
    }

    #[test]
    fn colocated_vms_connect_through_a_local_stack() {
        let mut w = Colocated::new();
        w.pair();
        assert_eq!(w.nsm.service.stats().accepted, 1);
    }

    #[test]
    fn a_local_connect_to_an_unknown_port_is_refused() {
        let mut w = Colocated::new();
        w.connect(1, 9999);
        w.nsm.tick(0);
        let refused = OpResult::Err(NkError::ConnRefused);
        assert!(w
            .responses(2)
            .iter()
            .any(|n| n.op == OpType::ConnectComplete && n.result() == refused));
    }

    /// A listener refuses the connects its backlog has no room for.
    #[test]
    fn local_connects_beyond_the_backlog_are_refused() {
        let mut w = Colocated::new();
        w.listen(2);
        for sock in 1..=3 {
            w.connect(sock, 8080);
        }
        w.nsm.tick(0);
        let connects: Vec<OpResult> = (w.responses(2).iter())
            .filter(|n| n.op == OpType::ConnectComplete)
            .map(|n| n.result())
            .collect();
        let refused = OpResult::Err(NkError::ConnRefused);
        assert_eq!(connects, [refused, OpResult::Ok, OpResult::Ok]);
        let accepted = w
            .responses(1)
            .iter()
            .filter(|n| n.op == OpType::Accepted)
            .count();
        assert_eq!(accepted, 2);
    }

    /// A send moves the payload into the peer's region, and the sender gets
    /// its credit back.
    #[test]
    fn a_local_send_moves_between_hugepage_regions() {
        let mut w = Colocated::new();
        w.pair();
        let payload = b"zero copy-ish shared memory path";
        w.send(payload);
        let vm1 = w.responses(1);
        let data: Vec<&Nqe> = (vm1.iter().filter(|n| n.op == OpType::DataReceived)).collect();
        assert_eq!(data.len(), 1);
        let mut out = vec![0u8; data[0].size as usize];
        w.regions[0].read(data[0].data, &mut out).unwrap();
        assert_eq!(out, payload);
        let credit = |n: &Nqe| n.op == OpType::SendComplete && n.size as usize == payload.len();
        assert!(w.responses(2).iter().any(credit));
        assert_eq!(w.nsm.service.stats().bytes_tx, payload.len() as u64);
    }

    #[test]
    fn a_local_close_notifies_the_peer() {
        let mut w = Colocated::new();
        let accepted = w.pair();
        w.submit(2, OpType::Close, 1, |n| n);
        w.nsm.tick(0);
        let closed = |n: &Nqe| n.op == OpType::PeerClosed && n.socket == SocketId(accepted);
        assert!(w.responses(1).iter().any(closed));
    }

    /// An accepted id the listening VM already holds (a raw-NQE guest may
    /// create one in the NSM's range) is skipped, not overwritten.
    #[test]
    fn a_local_accept_skips_an_nsm_range_id_the_guest_holds() {
        let mut w = Colocated::new();
        w.submit(1, OpType::SocketCreate, NSM_SOCKET_ID_BASE, |n| n);
        assert_eq!(w.pair(), NSM_SOCKET_ID_BASE + 1);
        assert_eq!(w.nsm.service.socks.len(), 4);
    }

    /// A Send the NSM cannot deliver — here the socket it names was closed
    /// first — frees its chunk and returns its credit, as CoreEngine does
    /// for the Sends it drops.
    #[test]
    fn a_failed_local_send_frees_its_chunk_and_returns_its_credit() {
        let mut w = Colocated::new();
        w.pair();
        w.submit(2, OpType::Close, 1, |n| n);
        w.nsm.tick(0);
        let before = w.regions[1].available();
        w.send(&[7u8; 1000]);
        let vm2 = w.responses(2);
        let comp = vm2.iter().find(|n| n.op == OpType::SendComplete).unwrap();
        assert_eq!(comp.result(), OpResult::Err(NkError::BadSocket));
        assert_eq!(comp.size, 1000);
        assert_eq!(w.regions[1].available(), before);
    }

    /// A Send whose peer's region is full is taken by the stack and waits
    /// there, not refused: the sender gets its credit, the peer sees no data
    /// while its region has no room, and the bytes arrive once it has.
    #[test]
    fn a_local_send_into_a_full_peer_region_waits_in_the_stack() {
        let mut w = Colocated::new();
        w.pair();
        let region = w.regions[0].clone();
        let filler = region
            .alloc_and_write(&vec![0u8; region.available()])
            .unwrap();
        w.send(&[7u8; 1000]);
        let credit = |n: &Nqe| n.op == OpType::SendComplete && n.result().is_ok() && n.size == 1000;
        assert!(w.responses(2).iter().any(credit));
        assert!(w.responses(1).is_empty(), "the peer sees no data");
        assert!(region.stats().failed_allocs > 0);
        region.free(filler).unwrap();
        w.nsm.tick(0);
        let vm1 = w.responses(1);
        let data = vm1.iter().find(|n| n.op == OpType::DataReceived).unwrap();
        let mut out = vec![0u8; data.size as usize];
        region.read(data.data, &mut out).unwrap();
        assert_eq!(out, [7u8; 1000]);
    }
}
