//! The GuestLib socket implementation.

use crate::sockstate::{GuestSocket, GuestSocketState, RxChunk};
use nk_queue::{NkDevice, RequesterEnd};
use nk_shmem::HugepageRegion;
use nk_types::api::{EpollEvent, ShutdownHow};
use nk_types::constants::NSM_SOCKET_ID_BASE;
use nk_types::migrate::GuestSockSnapshot;
use nk_types::{
    DataHandle, NkError, NkResult, Nqe, OpResult, OpType, PollEvents, QueueSetId, SlotTable,
    SockAddr, SocketApi, SocketId, VmId,
};

/// Statistics exposed by GuestLib.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GuestStats {
    /// Request NQEs submitted.
    pub nqes_sent: u64,
    /// Completion / event NQEs processed.
    pub nqes_received: u64,
    /// Payload bytes copied into the hugepages by `send()`.
    pub bytes_sent: u64,
    /// Payload bytes copied out of the hugepages by `recv()`.
    pub bytes_received: u64,
    /// Asynchronous error events observed (e.g. the serving NSM crashed and
    /// the connection was reset underneath the application).
    pub errors: u64,
}

/// The guest side of NetKernel: a complete BSD-socket implementation that
/// translates every call into NQEs (paper §4.1–§4.2).
pub struct GuestLib {
    vm: VmId,
    device: NkDevice<RequesterEnd>,
    region: HugepageRegion,
    /// Every socket, by id: one hash per call or NQE, and a closed socket's
    /// slot (with its queues' storage) goes to the next socket.
    sockets: SlotTable<SocketId, GuestSocket>,
    /// Every socket and its slot, kept ascending by id: the order
    /// `epoll_wait` reports in, whatever the slots'.
    by_id: Vec<(SocketId, u32)>,
    next_socket: u32,
    send_buf: usize,
    batch: usize,
    stats: GuestStats,
    /// One batch of responses `drive` works through (empty between calls).
    scratch: Vec<Nqe>,
    /// Sockets that may owe receive credit a full job ring refused (the
    /// amount is `GuestSocket::owed`): all `drive` retries, in id order.
    owing: Vec<SocketId>,
}

impl GuestLib {
    /// Build the guest library for `vm` from its NK device queue sets and the
    /// hugepage region shared with its NSM.
    pub fn new(vm: VmId, device: NkDevice<RequesterEnd>, region: HugepageRegion) -> Self {
        GuestLib {
            vm,
            device,
            region,
            sockets: SlotTable::new(),
            by_id: Vec::new(),
            next_socket: 1,
            send_buf: nk_types::constants::DEFAULT_SEND_BUF,
            batch: nk_types::constants::DEFAULT_BATCH_SIZE,
            stats: GuestStats::default(),
            scratch: Vec::new(),
            owing: Vec::new(),
        }
    }

    /// The VM this GuestLib belongs to.
    pub fn vm(&self) -> VmId {
        self.vm
    }

    /// GuestLib statistics.
    pub fn stats(&self) -> GuestStats {
        self.stats
    }

    /// Number of live guest sockets.
    pub fn socket_count(&self) -> usize {
        self.sockets.len()
    }

    /// The hugepage region shared with the NSM (used by tests and the host).
    pub fn region(&self) -> &HugepageRegion {
        &self.region
    }

    /// The guest ends of the VM's queue sets, in index order: the host
    /// pairs them with CoreEngine's ends to rewind the empty rings.
    pub fn queue_sets_mut(&mut self) -> &mut [RequesterEnd] {
        self.device.queue_sets_mut()
    }

    /// True when a socket with this id currently exists. After a warm
    /// migration the application's socket id reappears under the VM's new
    /// host; workload drivers use this to follow the transplant.
    pub fn has_socket(&self, id: SocketId) -> bool {
        self.sockets.contains_key(&id)
    }

    // ---- Warm-migration snapshot / install ----------------------------------

    /// A connected socket's state for a warm migration; the socket is left
    /// as it was (a warm export retires the whole GuestLib once every
    /// layer has snapshotted, so nothing cuts a single socket). Unconsumed
    /// receive chunks are copied out of the source hugepages — the
    /// snapshot owns plain bytes, not region handles, because the
    /// destination has a different region. Only established (or
    /// half-closed) connections snapshot (`InvalidState` otherwise):
    /// listeners and embryonic sockets have no stack state to move, and a
    /// closing one is on its way out.
    pub fn snapshot_socket(&self, sock: SocketId) -> NkResult<GuestSockSnapshot> {
        let s = self.sockets.get(&sock).ok_or(NkError::BadSocket)?;
        let peer_closed = match s.state {
            GuestSocketState::Established => false,
            GuestSocketState::PeerClosed => true,
            _ => return Err(NkError::InvalidState),
        };
        let mut rx_bytes = Vec::new();
        for chunk in &s.rx_chunks {
            let at = rx_bytes.len();
            rx_bytes.resize(at + chunk.len - chunk.consumed, 0);
            #[expect(
                clippy::indexing_slicing,
                reason = "`at` is the length before the resize, so the tail exists"
            )]
            let dst = &mut rx_bytes[at..];
            self.region.read_at(chunk.handle, chunk.consumed, dst)?;
        }
        Ok(GuestSockSnapshot {
            id: s.id,
            queue_set: s.queue_set,
            local: s.local,
            remote: s.remote,
            peer_closed,
            send_buf_cap: s.send_budget.capacity(),
            send_reserved: s.send_budget.used(),
            rx_bytes,
            interest: s.interest.0,
        })
    }

    /// Recreate a warm-migrated socket under its original id. Unread
    /// payload is re-parked in *this* GuestLib's hugepages; the send budget
    /// resumes with the snapshot's reservation so in-flight send credit
    /// accounting stays balanced when the transplanted NSM state flushes.
    pub fn install_socket(&mut self, snap: &GuestSockSnapshot) -> NkResult<()> {
        if self.sockets.contains_key(&snap.id) {
            return Err(NkError::AlreadyRegistered);
        }
        let mut s = GuestSocket::new(snap.id, snap.queue_set, snap.send_buf_cap);
        s.state = if snap.peer_closed {
            GuestSocketState::PeerClosed
        } else {
            GuestSocketState::Established
        };
        s.local = snap.local;
        s.remote = snap.remote;
        s.interest = PollEvents(snap.interest);
        s.send_budget.reserve_up_to(snap.send_reserved);
        if !snap.rx_bytes.is_empty() {
            let handle = self.region.alloc_and_write(&snap.rx_bytes)?;
            s.rx_chunks.push_back(RxChunk {
                handle,
                len: snap.rx_bytes.len(),
                consumed: 0,
            });
        }
        // Keep fresh ids clear of the transplanted one (ids allocated by
        // the NSM side live in their own range and need no bump).
        if snap.id.raw() < NSM_SOCKET_ID_BASE {
            self.next_socket = self.next_socket.max(snap.id.raw() + 1);
        }
        self.insert(s)
    }

    /// File socket `s` under its id, in the table and in id order.
    fn insert(&mut self, s: GuestSocket) -> NkResult<()> {
        let id = s.id;
        let slot = self.sockets.insert(id, s)?;
        let at = self.by_id.partition_point(|&(other, _)| other < id);
        self.by_id.insert(at, (id, slot));
        Ok(())
    }

    /// Drop live socket `id` from the id order `epoll_wait` walks.
    fn unlist(&mut self, id: SocketId) {
        let at = self.by_id.binary_search_by_key(&id, |&(other, _)| other);
        #[expect(
            clippy::expect_used,
            reason = "`insert` lists every socket it files, and only here is one unlisted"
        )]
        let at = at.expect("every live socket is listed");
        self.by_id.remove(at);
    }

    fn queue_set_for(&self, id: SocketId) -> QueueSetId {
        let sets = self.device.queue_sets().max(1) as u32;
        QueueSetId((id.raw() % sets) as u8)
    }

    fn submit(&mut self, qs: QueueSetId, nqe: Nqe) -> NkResult<()> {
        let end = self
            .device
            .queue_set(qs.raw() as usize)
            .ok_or(NkError::BadConfig)?;
        end.submit(nqe)?;
        self.stats.nqes_sent += 1;
        Ok(())
    }

    /// Return `owed` bytes of receive credit for `sock` in one
    /// `RecvConsumed`; false when a full job ring refused it.
    fn send_credit(&mut self, sock: SocketId, qs: QueueSetId, owed: usize) -> bool {
        let credit = Nqe::new(OpType::RecvConsumed, self.vm, qs, sock)
            .with_data(DataHandle::NULL, owed as u32);
        self.submit(qs, credit).is_ok()
    }

    /// Keep credit a full job ring refused on its socket, for the socket's
    /// next credit or `drive`: none is dropped while the socket lives.
    fn owe_credit(&mut self, sock: SocketId, owed: usize) {
        if let Some(s) = self.sockets.get_mut(&sock) {
            s.owed = owed;
            self.owing.push(sock);
        }
    }

    /// Send the request `op` for `sock`. A closing socket sends nothing
    /// more: its `CloseComplete` unpins its tuple in CoreEngine, and a
    /// later request would pin the tuple again, for good.
    fn request(&mut self, sock: SocketId, op: OpType, op_data: u64) -> NkResult<()> {
        let s = self.sockets.get(&sock).ok_or(NkError::BadSocket)?;
        if s.state == GuestSocketState::Closing {
            return Err(NkError::Closed);
        }
        let qs = s.queue_set;
        self.submit(qs, Nqe::new(op, self.vm, qs, sock).with_op_data(op_data))
    }

    fn sock_mut(&mut self, id: SocketId) -> NkResult<&mut GuestSocket> {
        self.sockets.get_mut(&id).ok_or(NkError::BadSocket)
    }

    // ---- Completion processing ----------------------------------------------

    fn process_response(&mut self, nqe: Nqe) {
        self.stats.nqes_received += 1;
        if nqe.op == OpType::ErrorEvent {
            self.stats.errors += 1;
        }
        if nqe.op == OpType::Accepted && nqe.result().is_ok() {
            // aux carries the ServiceLib-allocated guest socket id for the
            // new connection; the data-handle field carries the packed peer
            // address.
            let (id, peer) = (SocketId(nqe.aux()), SockAddr::unpack(nqe.data.0));
            let mut conn = GuestSocket::new(id, nqe.queue_set, self.send_buf);
            conn.state = GuestSocketState::Established;
            conn.remote = Some(peer);
            if self.insert(conn).is_ok() {
                if let Some(listener) = self.sockets.get_mut(&nqe.socket) {
                    listener.accept_queue.push_back((id, peer));
                }
            }
            return;
        }
        let Some(s) = self.sockets.get_mut(&nqe.socket) else {
            return;
        };
        match nqe.op {
            OpType::SocketCreated
            | OpType::BindComplete
            | OpType::ListenComplete
            | OpType::SetSockOptComplete
            | OpType::GetSockOptComplete
            | OpType::ShutdownComplete => {
                if let OpResult::Err(e) = nqe.result() {
                    s.state = GuestSocketState::Error(e);
                }
            }
            // Only a socket still connecting transitions: a late completion
            // drained after the application already moved on (closed the
            // socket, observed an error) must not resurrect it into the
            // established state.
            OpType::ConnectComplete if s.state == GuestSocketState::Connecting => {
                s.state = match nqe.result() {
                    OpResult::Ok => GuestSocketState::Established,
                    OpResult::Err(e) => GuestSocketState::Error(e),
                };
            }
            OpType::SendComplete => {
                s.send_budget.release(nqe.size as usize);
                if let OpResult::Err(e) = nqe.result() {
                    s.state = GuestSocketState::Error(e);
                }
            }
            OpType::DataReceived => s.rx_chunks.push_back(RxChunk {
                handle: nqe.data,
                len: nqe.size as usize,
                consumed: 0,
            }),
            // Only an established connection transitions to the half-closed
            // state; errors and closed sockets keep their state so the
            // application still observes the failure.
            OpType::PeerClosed if s.state == GuestSocketState::Established => {
                s.state = GuestSocketState::PeerClosed;
            }
            OpType::CloseComplete => {
                // Release any unread payload still parked in the region.
                self.unlist(nqe.socket);
                #[expect(
                    clippy::expect_used,
                    reason = "the NQE's socket was looked up above, and nothing removed it since"
                )]
                let s = self.sockets.remove(&nqe.socket).expect("found above");
                for chunk in s.rx_chunks.drain(..) {
                    let _ = self.region.free(chunk.handle);
                }
            }
            OpType::ErrorEvent => {
                s.state = GuestSocketState::Error(match nqe.result() {
                    OpResult::Err(e) => e,
                    OpResult::Ok => NkError::InvalidState,
                });
            }
            _ => {}
        }
    }
}

impl SocketApi for GuestLib {
    fn socket(&mut self) -> NkResult<SocketId> {
        let id = SocketId(self.next_socket);
        self.next_socket += 1;
        let qs = self.queue_set_for(id);
        // The record is filed only once the request is out: a full job ring
        // leaves nothing behind.
        let nqe = Nqe::new(OpType::SocketCreate, self.vm, qs, id);
        self.submit(qs, nqe)?;
        self.insert(GuestSocket::new(id, qs, self.send_buf))?;
        Ok(id)
    }

    fn bind(&mut self, sock: SocketId, addr: SockAddr) -> NkResult<()> {
        self.request(sock, OpType::Bind, addr.pack())?;
        let s = self.sock_mut(sock)?;
        s.local = Some(addr);
        s.state = GuestSocketState::Bound;
        Ok(())
    }

    fn listen(&mut self, sock: SocketId, backlog: u32) -> NkResult<()> {
        self.request(sock, OpType::Listen, u64::from(backlog))?;
        self.sock_mut(sock)?.state = GuestSocketState::Listening;
        Ok(())
    }

    fn accept(&mut self, sock: SocketId) -> NkResult<(SocketId, SockAddr)> {
        self.drive();
        let s = self.sock_mut(sock)?;
        if !matches!(s.state, GuestSocketState::Listening) {
            return Err(NkError::InvalidState);
        }
        s.accept_queue.pop_front().ok_or(NkError::WouldBlock)
    }

    fn connect(&mut self, sock: SocketId, addr: SockAddr) -> NkResult<()> {
        self.request(sock, OpType::Connect, addr.pack())?;
        let s = self.sock_mut(sock)?;
        s.remote = Some(addr);
        s.state = GuestSocketState::Connecting;
        Ok(())
    }

    fn send(&mut self, sock: SocketId, data: &[u8]) -> NkResult<usize> {
        let (qs, granted) = {
            let mut s = self.sock_mut(sock)?;
            // Credit the NSM returned waits in the response rings: a write
            // the budget cannot cover drains them first.
            if s.send_budget.available() < data.len() {
                self.drive();
                s = self.sock_mut(sock)?;
            }
            match s.state {
                GuestSocketState::Established | GuestSocketState::Connecting => {}
                GuestSocketState::PeerClosed => {}
                GuestSocketState::Error(e) => return Err(e),
                GuestSocketState::Closing => return Err(NkError::Closed),
                _ => return Err(NkError::NotConnected),
            }
            let granted = s.send_budget.reserve_up_to(data.len());
            (s.queue_set, granted)
        };
        if granted == 0 {
            return Err(NkError::WouldBlock);
        }
        // Copy the payload into the shared hugepages and describe it in the
        // NQE (§4.5 "Sending Data").
        #[expect(
            clippy::indexing_slicing,
            reason = "the budget grants at most `data.len()`"
        )]
        let granted_data = &data[..granted];
        let handle = match self.region.alloc_and_write(granted_data) {
            Ok(h) => h,
            Err(e) => {
                self.sock_mut(sock)?.send_budget.release(granted);
                return Err(e);
            }
        };
        let nqe = Nqe::new(OpType::Send, self.vm, qs, sock).with_data(handle, granted as u32);
        match self.submit(qs, nqe) {
            Ok(()) => {
                self.stats.bytes_sent += granted as u64;
                Ok(granted)
            }
            Err(e) => {
                let _ = self.region.free(handle);
                self.sock_mut(sock)?.send_budget.release(granted);
                Err(e)
            }
        }
    }

    fn recv(&mut self, sock: SocketId, buf: &mut [u8]) -> NkResult<usize> {
        self.drive();
        // A chunk the region refuses to read stays at the head of the queue:
        // bytes copied before it are still delivered (and their chunks
        // credited) by this call, and the next call reports the error.
        let mut failure = None;
        let (qs, copied, state, owed) = {
            let region = &self.region;
            let s = self.sockets.get_mut(&sock).ok_or(NkError::BadSocket)?;
            let (mut copied, mut owed) = (0usize, std::mem::take(&mut s.owed));
            while copied < buf.len() {
                let Some(chunk) = s.rx_chunks.front_mut() else {
                    break;
                };
                let remaining = chunk.len - chunk.consumed;
                let take = remaining.min(buf.len() - copied);
                // The one copy of this hop: hugepage → the caller's buffer.
                // A read that finishes the chunk frees it under the same
                // lock hold.
                #[expect(
                    clippy::indexing_slicing,
                    reason = "`take` is at most what is left of `buf` past `copied`"
                )]
                let dst = &mut buf[copied..copied + take];
                let read = if take == remaining {
                    region.read_and_free(chunk.handle, chunk.consumed, dst)
                } else {
                    region.read_at(chunk.handle, chunk.consumed, dst)
                };
                if let Err(e) = read {
                    failure = Some(e);
                    break;
                }
                chunk.consumed += take;
                copied += take;
                if chunk.consumed == chunk.len {
                    owed += chunk.len;
                    s.rx_chunks.pop_front();
                }
            }
            (s.queue_set, copied, s.state, owed)
        };
        // Return the receive credit of every chunk this call finished, plus
        // what a full job ring refused before, in one `RecvConsumed`.
        // Credit refused again stays on the socket. A closing socket reads
        // on but returns none.
        if state != GuestSocketState::Closing && owed > 0 && !self.send_credit(sock, qs, owed) {
            self.owe_credit(sock, owed);
        }
        if copied > 0 {
            self.stats.bytes_received += copied as u64;
            return Ok(copied);
        }
        if let Some(e) = failure {
            return Err(e);
        }
        match state {
            GuestSocketState::PeerClosed => Ok(0),
            GuestSocketState::Error(e) => Err(e),
            _ => Err(NkError::WouldBlock),
        }
    }

    fn set_sockopt(&mut self, sock: SocketId, opt: u32, value: u32) -> NkResult<()> {
        let packed = nk_types::ops::op_data::pack_sockopt(opt, value);
        self.request(sock, OpType::SetSockOpt, packed)
    }

    fn shutdown(&mut self, sock: SocketId, how: ShutdownHow) -> NkResult<()> {
        self.request(sock, OpType::Shutdown, how.encode())
    }

    fn close(&mut self, sock: SocketId) -> NkResult<()> {
        self.request(sock, OpType::Close, 0)?;
        let s = self.sock_mut(sock)?;
        s.state = GuestSocketState::Closing;
        s.owed = 0;
        Ok(())
    }

    fn epoll_register(&mut self, sock: SocketId, interest: PollEvents) -> NkResult<()> {
        self.sock_mut(sock)?.interest = interest;
        Ok(())
    }

    fn epoll_unregister(&mut self, sock: SocketId) -> NkResult<()> {
        self.sock_mut(sock)?.interest = PollEvents::NONE;
        Ok(())
    }

    fn epoll_wait(&mut self, max_events: usize) -> Vec<EpollEvent> {
        self.drive();
        let mut out = Vec::new();
        for &(id, slot) in &self.by_id {
            if out.len() >= max_events {
                break;
            }
            let s = self.sockets.at_mut(slot);
            if s.interest.is_empty() {
                continue;
            }
            let ready = s.readiness();
            let masked =
                PollEvents(ready.0 & (s.interest.0 | PollEvents::HUP.0 | PollEvents::ERROR.0));
            if !masked.is_empty() {
                out.push(EpollEvent {
                    socket: id,
                    events: masked,
                });
            }
        }
        out
    }

    fn poll(&mut self, sock: SocketId) -> PollEvents {
        self.drive();
        match self.sockets.get(&sock) {
            Some(s) => s.readiness(),
            None => PollEvents::ERROR,
        }
    }

    fn drive(&mut self) -> usize {
        let mut processed = 0;
        let batch = self.batch.max(1);
        let sets = self.device.queue_sets();
        let mut responses = std::mem::take(&mut self.scratch);
        for idx in 0..sets {
            loop {
                let n = {
                    let Some(end) = self.device.queue_set(idx) else {
                        break;
                    };
                    end.pop_responses(&mut responses, batch)
                };
                if n == 0 {
                    break;
                }
                for nqe in responses.drain(..) {
                    self.process_response(nqe);
                    processed += 1;
                }
            }
        }
        self.scratch = responses;
        let mut owing = std::mem::take(&mut self.owing);
        owing.sort_unstable();
        owing.dedup();
        for sock in owing {
            let Some(s) = self.sockets.get_mut(&sock) else {
                continue;
            };
            let (qs, owed) = (s.queue_set, std::mem::take(&mut s.owed));
            if owed > 0 && !self.send_credit(sock, qs, owed) {
                self.owe_credit(sock, owed);
            }
        }
        processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nk_queue::{queue_set_pair, ResponderEnd, WakeState};
    use nk_types::ops::op_data;

    /// Build a GuestLib with `sets` queue sets plus the matching responder
    /// ends, playing the role of CoreEngine+ServiceLib in the tests.
    fn guest_with_responders(sets: usize) -> (GuestLib, Vec<ResponderEnd>, HugepageRegion) {
        guest_with_capacity(sets, 256)
    }

    /// [`guest_with_responders`] with rings of `capacity` NQEs.
    fn guest_with_capacity(
        sets: usize,
        capacity: usize,
    ) -> (GuestLib, Vec<ResponderEnd>, HugepageRegion) {
        let mut requesters = Vec::new();
        let mut responders = Vec::new();
        for _ in 0..sets {
            let (req, resp) = queue_set_pair(capacity);
            requesters.push(req);
            responders.push(resp);
        }
        let region = HugepageRegion::with_capacity(1 << 20);
        let device = NkDevice::new(requesters, WakeState::new());
        (
            GuestLib::new(VmId(1), device, region.clone()),
            responders,
            region,
        )
    }

    fn pop_request(responders: &mut [ResponderEnd]) -> Option<Nqe> {
        for r in responders.iter_mut() {
            let mut v = Vec::new();
            if r.pop_requests(&mut v, 1) > 0 {
                return Some(v[0]);
            }
        }
        None
    }

    fn respond(responders: &mut [ResponderEnd], nqe: Nqe) {
        let idx = nqe.queue_set.raw() as usize;
        responders[idx].respond(nqe).unwrap();
    }

    #[test]
    fn socket_creation_emits_socket_create_nqe() {
        let (mut guest, mut resp, _region) = guest_with_responders(2);
        let s = guest.socket().unwrap();
        let nqe = pop_request(&mut resp).unwrap();
        assert_eq!(nqe.op, OpType::SocketCreate);
        assert_eq!(nqe.socket, s);
        assert_eq!(nqe.vm, VmId(1));
        assert_eq!(guest.socket_count(), 1);
    }

    #[test]
    fn connect_completion_makes_socket_writable() {
        let (mut guest, mut resp, _region) = guest_with_responders(1);
        let s = guest.socket().unwrap();
        let _ = pop_request(&mut resp); // SocketCreate
        guest.connect(s, SockAddr::v4(10, 0, 0, 2, 80)).unwrap();
        let connect_req = pop_request(&mut resp).unwrap();
        assert_eq!(connect_req.op, OpType::Connect);
        assert_eq!(connect_req.addr(), SockAddr::v4(10, 0, 0, 2, 80));
        assert!(!guest.poll(s).writable());

        let comp = Nqe::completion_for(&connect_req, OpResult::Ok, 0).unwrap();
        respond(&mut resp, comp);
        assert!(guest.poll(s).writable());
    }

    #[test]
    fn failed_connect_reports_error() {
        let (mut guest, mut resp, _region) = guest_with_responders(1);
        let s = guest.socket().unwrap();
        let _ = pop_request(&mut resp);
        guest.connect(s, SockAddr::v4(10, 0, 0, 2, 81)).unwrap();
        let req = pop_request(&mut resp).unwrap();
        let comp = Nqe::completion_for(&req, OpResult::Err(NkError::ConnRefused), 0).unwrap();
        respond(&mut resp, comp);
        assert!(guest.poll(s).error());
        assert_eq!(guest.recv(s, &mut [0u8; 4]), Err(NkError::ConnRefused));
    }

    #[test]
    fn send_copies_payload_into_hugepages_and_tracks_budget() {
        let (mut guest, mut resp, region) = guest_with_responders(1);
        let s = guest.socket().unwrap();
        let _ = pop_request(&mut resp);
        guest.connect(s, SockAddr::v4(10, 0, 0, 2, 80)).unwrap();
        let req = pop_request(&mut resp).unwrap();
        respond(
            &mut resp,
            Nqe::completion_for(&req, OpResult::Ok, 0).unwrap(),
        );
        guest.drive();

        let n = guest.send(s, b"payload through hugepages").unwrap();
        assert_eq!(n, 25);
        let send_nqe = pop_request(&mut resp).unwrap();
        assert_eq!(send_nqe.op, OpType::Send);
        assert_eq!(send_nqe.size, 25);
        // The NSM side can read the payload straight out of the region.
        let mut out = vec![0u8; 25];
        region.read(send_nqe.data, &mut out).unwrap();
        assert_eq!(&out, b"payload through hugepages");

        // Send-buffer budget is held until the SendComplete returns it.
        let mut comp = Nqe::completion_for(&send_nqe, OpResult::Ok, 0).unwrap();
        comp.size = 25;
        assert_eq!(guest.stats().bytes_sent, 25);
        respond(&mut resp, comp);
        guest.drive();
        assert!(guest.poll(s).writable());
    }

    #[test]
    fn send_budget_exhaustion_returns_wouldblock() {
        let (mut guest, mut resp, _region) = guest_with_responders(1);
        guest.send_buf = 64;
        let s = guest.socket().unwrap();
        let _ = pop_request(&mut resp);
        guest.connect(s, SockAddr::v4(10, 0, 0, 2, 80)).unwrap();
        let req = pop_request(&mut resp).unwrap();
        respond(
            &mut resp,
            Nqe::completion_for(&req, OpResult::Ok, 0).unwrap(),
        );
        guest.drive();

        assert_eq!(guest.send(s, &[0u8; 64]).unwrap(), 64);
        assert_eq!(guest.send(s, &[0u8; 16]), Err(NkError::WouldBlock));
    }

    /// A writer that only sends sees the credit the NSM returned: a write
    /// the budget cannot cover drains the response rings first, so credit
    /// already back never leaves it at `WouldBlock`.
    #[test]
    fn a_send_sees_the_credit_the_nsm_returned() {
        let (mut guest, mut resp, _region) = guest_with_responders(1);
        guest.send_buf = 64;
        let s = guest.socket().unwrap();
        let _ = pop_request(&mut resp);
        guest.connect(s, SockAddr::v4(10, 0, 0, 2, 80)).unwrap();
        let req = pop_request(&mut resp).unwrap();
        respond(
            &mut resp,
            Nqe::completion_for(&req, OpResult::Ok, 0).unwrap(),
        );
        guest.drive();

        assert_eq!(guest.send(s, &[0u8; 64]), Ok(64));
        let send_nqe = pop_request(&mut resp).unwrap();
        let mut comp = Nqe::completion_for(&send_nqe, OpResult::Ok, 0).unwrap();
        comp.size = 64;
        respond(&mut resp, comp);
        assert_eq!(guest.send(s, &[0u8; 64]), Ok(64));
    }

    #[test]
    fn data_received_nqe_is_readable_and_returns_credit() {
        let (mut guest, mut resp, region) = guest_with_responders(1);
        let s = guest.socket().unwrap();
        let create = pop_request(&mut resp).unwrap();
        guest.connect(s, SockAddr::v4(10, 0, 0, 2, 80)).unwrap();
        let req = pop_request(&mut resp).unwrap();
        respond(
            &mut resp,
            Nqe::completion_for(&req, OpResult::Ok, 0).unwrap(),
        );
        guest.drive();

        // ServiceLib parks received payload in the region and announces it.
        let handle = region.alloc_and_write(b"hello guest").unwrap();
        let data_nqe =
            Nqe::new(OpType::DataReceived, VmId(1), create.queue_set, s).with_data(handle, 11);
        respond(&mut resp, data_nqe);

        assert!(guest.poll(s).readable());
        let mut buf = [0u8; 6];
        assert_eq!(guest.recv(s, &mut buf).unwrap(), 6);
        assert_eq!(&buf, b"hello ");
        let mut buf = [0u8; 16];
        assert_eq!(guest.recv(s, &mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"guest");
        // The chunk was fully consumed: credit goes back to the NSM.
        let credit = pop_request(&mut resp).unwrap();
        assert_eq!(credit.op, OpType::RecvConsumed);
        assert_eq!(credit.size, 11);
        assert_eq!(guest.recv(s, &mut buf), Err(NkError::WouldBlock));
    }

    /// A connected socket plus the queue set its NQEs travel on.
    fn connected(guest: &mut GuestLib, resp: &mut [ResponderEnd]) -> (SocketId, QueueSetId) {
        let s = guest.socket().unwrap();
        let create = pop_request(resp).unwrap();
        guest.connect(s, SockAddr::v4(10, 0, 0, 2, 80)).unwrap();
        let req = pop_request(resp).unwrap();
        respond(resp, Nqe::completion_for(&req, OpResult::Ok, 0).unwrap());
        guest.drive();
        (s, create.queue_set)
    }

    /// A chunk the region refuses to read must not take the bytes copied
    /// before it down with it: they are returned, their chunk is freed and
    /// credited, and the error surfaces on the next call.
    #[test]
    fn recv_keeps_what_it_copied_when_a_later_chunk_fails() {
        let (mut guest, mut resp, region) = guest_with_responders(1);
        let (s, qs) = connected(&mut guest, &mut resp);
        let baseline = region.stats().chunks;

        let first = region.alloc_and_write(b"chunk one").unwrap();
        let second = region.alloc_and_write(b"chunk two").unwrap();
        respond(
            &mut resp,
            Nqe::new(OpType::DataReceived, VmId(1), qs, s).with_data(first, 9),
        );
        respond(
            &mut resp,
            Nqe::new(OpType::DataReceived, VmId(1), qs, s).with_data(second, 9),
        );
        guest.drive();
        // The second chunk vanishes behind GuestLib's back.
        region.free(second).unwrap();

        let mut buf = [0u8; 32];
        assert_eq!(guest.recv(s, &mut buf), Ok(9));
        assert_eq!(&buf[..9], b"chunk one");
        assert_eq!(guest.stats().bytes_received, 9);
        assert_eq!(region.stats().chunks, baseline, "chunk one not freed");
        let credit = pop_request(&mut resp).unwrap();
        assert_eq!((credit.op, credit.size), (OpType::RecvConsumed, 9));
        assert!(pop_request(&mut resp).is_none(), "exactly one credit");

        assert_eq!(guest.recv(s, &mut buf), Err(NkError::NotFound));
        assert_eq!(guest.recv(s, &mut buf), Err(NkError::NotFound));
    }

    /// Receive credit is never dropped: credit a full job ring refuses stays
    /// on the socket, and once the ring has room one `RecvConsumed` returns
    /// all of it.
    #[test]
    fn credit_a_full_job_ring_refuses_is_returned_later() {
        let (mut guest, mut resp, region) = guest_with_capacity(1, 2);
        let (s, qs) = connected(&mut guest, &mut resp);
        while guest.set_sockopt(s, 1, 1).is_ok() {}
        for payload in [&b"held back"[..], b"twice"] {
            let handle = region.alloc_and_write(payload).unwrap();
            let data = Nqe::new(OpType::DataReceived, VmId(1), qs, s);
            respond(&mut resp, data.with_data(handle, payload.len() as u32));
        }
        assert_eq!(guest.recv(s, &mut [0u8; 9]), Ok(9));
        assert_eq!(guest.recv(s, &mut [0u8; 16]), Ok(5));
        while let Some(nqe) = pop_request(&mut resp) {
            assert_eq!(nqe.op, OpType::SetSockOpt, "no room for credit yet");
        }
        assert_eq!(region.stats().chunks, 0, "both chunks freed");

        guest.drive();
        let credit = pop_request(&mut resp).unwrap();
        assert_eq!((credit.op, credit.size), (OpType::RecvConsumed, 14));
        assert!(pop_request(&mut resp).is_none(), "one NQE carries the sum");
    }

    /// A socket the job ring refuses leaves no record behind: nothing could
    /// ever close it.
    #[test]
    fn a_socket_a_full_job_ring_refuses_leaves_no_record() {
        let (mut guest, mut resp, _region) = guest_with_capacity(1, 2);
        let (s, _) = connected(&mut guest, &mut resp);
        while guest.set_sockopt(s, 1, 1).is_ok() {}
        assert_eq!(guest.socket(), Err(NkError::QueueFull));
        assert_eq!(guest.socket_count(), 1);
    }

    /// Close `s` and drain its `CloseComplete`, freeing its slot.
    fn closed(guest: &mut GuestLib, resp: &mut [ResponderEnd], s: SocketId) {
        guest.close(s).unwrap();
        let close = pop_request(resp).unwrap();
        respond(resp, Nqe::completion_for(&close, OpResult::Ok, 0).unwrap());
        guest.drive();
    }

    /// `epoll_wait` reports in socket-id order, not slot order: a fourth
    /// socket takes the first one's freed slot and is still reported last.
    #[test]
    fn epoll_reports_in_id_order_whatever_the_slots() {
        let (mut guest, mut resp, _region) = guest_with_responders(1);
        let first = guest.socket().unwrap();
        let mut open = vec![guest.socket().unwrap(), guest.socket().unwrap()];
        while pop_request(&mut resp).is_some() {}
        let first_slot = guest.by_id[0].1;
        closed(&mut guest, &mut resp, first);
        open.push(guest.socket().unwrap());
        assert_eq!(guest.by_id.last(), Some(&(open[2], first_slot)));
        for &s in &open {
            guest.epoll_register(s, PollEvents::READABLE).unwrap();
            let err = Nqe::error_event(VmId(1), QueueSetId(0), s, NkError::ConnReset);
            respond(&mut resp, err);
        }
        let ids: Vec<SocketId> = guest.epoll_wait(16).iter().map(|e| e.socket).collect();
        assert_eq!(ids, open);
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
    }

    /// Owed credit dies with its socket: `close` drops what a full job ring
    /// refused, and nothing sends it once the `CloseComplete` is drained.
    /// Credit after the close would reach CoreEngine after it unpinned the
    /// tuple, and pin it again for good.
    #[test]
    fn a_closed_sockets_refused_credit_is_never_sent() {
        let (mut guest, mut resp, region) = guest_with_capacity(1, 2);
        let (s, qs) = connected(&mut guest, &mut resp);
        while guest.set_sockopt(s, 1, 1).is_ok() {}
        let handle = region.alloc_and_write(b"owed").unwrap();
        respond(
            &mut resp,
            Nqe::new(OpType::DataReceived, VmId(1), qs, s).with_data(handle, 4),
        );
        assert_eq!(guest.recv(s, &mut [0u8; 4]), Ok(4));
        while let Some(nqe) = pop_request(&mut resp) {
            assert_eq!(nqe.op, OpType::SetSockOpt, "no room for credit yet");
        }

        guest.close(s).unwrap();
        guest.drive();
        let close = pop_request(&mut resp).unwrap();
        assert_eq!(close.op, OpType::Close);
        assert!(pop_request(&mut resp).is_none(), "credit sent after close");
        respond(
            &mut resp,
            Nqe::completion_for(&close, OpResult::Ok, 0).unwrap(),
        );
        guest.drive();
        guest.drive();
        assert_eq!(guest.socket_count(), 0);
        assert!(
            pop_request(&mut resp).is_none(),
            "credit sent for a closed socket"
        );
    }

    /// One `recv` returns the credit of every chunk it finishes in one
    /// `RecvConsumed` of their sum; a chunk it only starts is credited by
    /// the call that finishes it.
    #[test]
    fn a_recv_that_finishes_three_chunks_returns_their_credit_in_one_nqe() {
        let (mut guest, mut resp, region) = guest_with_responders(1);
        let (s, qs) = connected(&mut guest, &mut resp);
        let payload: Vec<u8> = (0..80_000u32).map(|i| (i % 251) as u8).collect();
        for part in payload.chunks(20_000) {
            let handle = region.alloc_and_write(part).unwrap();
            let data = Nqe::new(OpType::DataReceived, VmId(1), qs, s);
            respond(&mut resp, data.with_data(handle, part.len() as u32));
        }
        let mut buf = vec![0u8; 70_000];
        assert_eq!(guest.recv(s, &mut buf), Ok(70_000));
        let credit = pop_request(&mut resp).unwrap();
        assert_eq!((credit.op, credit.size), (OpType::RecvConsumed, 60_000));
        assert!(pop_request(&mut resp).is_none(), "one NQE carries the sum");

        assert_eq!(guest.recv(s, &mut buf), Ok(10_000));
        let credit = pop_request(&mut resp).unwrap();
        assert_eq!((credit.op, credit.size), (OpType::RecvConsumed, 20_000));
        assert!(buf[..10_000] == payload[70_000..]);
    }

    /// Partial reads resume inside the chunk: a 16 KiB chunk read 100 bytes
    /// at a time comes out whole and is credited once, at the end.
    #[test]
    fn a_chunk_read_in_small_pieces_comes_out_whole() {
        let (mut guest, mut resp, region) = guest_with_responders(1);
        let (s, qs) = connected(&mut guest, &mut resp);
        let payload: Vec<u8> = (0..16 * 1024u32).map(|i| (i % 251) as u8).collect();
        let handle = region.alloc_and_write(&payload).unwrap();
        respond(
            &mut resp,
            Nqe::new(OpType::DataReceived, VmId(1), qs, s).with_data(handle, payload.len() as u32),
        );

        let mut got = Vec::new();
        let mut piece = [0u8; 100];
        while let Ok(n) = guest.recv(s, &mut piece) {
            assert!(n == 100 || got.len() + n == payload.len());
            got.extend_from_slice(&piece[..n]);
            let done = got.len() == payload.len();
            assert_eq!(pop_request(&mut resp).is_some(), done, "credit timing");
        }
        assert!(got == payload);
        assert_eq!(region.stats().chunks, 0);
    }

    /// A chunk read in three pieces stays live through the first two and is
    /// freed by the third, which returns its credit; nothing frees it or
    /// credits it again, even once its lines are handed out anew.
    #[test]
    fn a_chunk_read_in_three_pieces_is_freed_and_credited_once() {
        let (mut guest, mut resp, region) = guest_with_responders(1);
        let (s, qs) = connected(&mut guest, &mut resp);
        let handle = region.alloc_and_write(b"one-two-three").unwrap();
        respond(
            &mut resp,
            Nqe::new(OpType::DataReceived, VmId(1), qs, s).with_data(handle, 13),
        );
        let mut got = Vec::new();
        for (piece, live) in [(4, 1), (4, 1), (5, 0)] {
            let mut buf = [0u8; 5];
            assert_eq!(guest.recv(s, &mut buf[..piece]), Ok(piece));
            got.extend_from_slice(&buf[..piece]);
            assert_eq!(region.stats().chunks, live, "after {got:?}");
            assert_eq!(pop_request(&mut resp).is_some(), live == 0, "credit");
        }
        assert_eq!(got, b"one-two-three");
        let reused = region.alloc_and_write(b"next").unwrap();
        assert_eq!(reused, handle, "the freed lines are handed out again");
        assert_eq!(guest.recv(s, &mut [0u8; 8]), Err(NkError::WouldBlock));
        assert_eq!(region.stats().chunks, 1, "the reused chunk stays live");
        assert!(pop_request(&mut resp).is_none(), "credited once");
        assert_eq!(region.free(handle), Ok(()));
    }

    #[test]
    fn accepted_event_populates_listener_queue() {
        let (mut guest, mut resp, _region) = guest_with_responders(1);
        let ls = guest.socket().unwrap();
        let _ = pop_request(&mut resp);
        guest.bind(ls, SockAddr::new(0, 80)).unwrap();
        let _ = pop_request(&mut resp);
        guest.listen(ls, 64).unwrap();
        let listen_req = pop_request(&mut resp).unwrap();
        assert_eq!(listen_req.op, OpType::Listen);
        assert_eq!(listen_req.op_data, 64);

        assert_eq!(guest.accept(ls), Err(NkError::WouldBlock));

        // ServiceLib accepted a connection: new guest socket id allocated
        // from the NSM range, peer address in the data field.
        let new_id = NSM_SOCKET_ID_BASE | 1;
        let peer = SockAddr::v4(10, 0, 0, 9, 5555);
        let accepted = Nqe::new(OpType::Accepted, VmId(1), listen_req.queue_set, ls)
            .with_op_data(op_data::pack(OpResult::Ok, new_id))
            .with_data(DataHandle(peer.pack()), 0);
        respond(&mut resp, accepted);

        assert!(guest.poll(ls).readable());
        let (conn, got_peer) = guest.accept(ls).unwrap();
        assert_eq!(conn, SocketId(new_id));
        assert_eq!(got_peer, peer);
        assert!(guest.poll(conn).writable());
    }

    #[test]
    fn peer_close_gives_eof_then_epoll_hup() {
        let (mut guest, mut resp, _region) = guest_with_responders(1);
        let s = guest.socket().unwrap();
        let create = pop_request(&mut resp).unwrap();
        guest.connect(s, SockAddr::v4(10, 0, 0, 2, 80)).unwrap();
        let req = pop_request(&mut resp).unwrap();
        respond(
            &mut resp,
            Nqe::completion_for(&req, OpResult::Ok, 0).unwrap(),
        );
        guest.drive();

        guest
            .epoll_register(s, PollEvents::READABLE | PollEvents::WRITABLE)
            .unwrap();
        let hup = Nqe::new(OpType::PeerClosed, VmId(1), create.queue_set, s);
        respond(&mut resp, hup);
        let events = guest.epoll_wait(16);
        assert_eq!(events.len(), 1);
        assert!(events[0].events.hup());
        assert_eq!(guest.recv(s, &mut [0u8; 4]).unwrap(), 0, "EOF");
    }

    #[test]
    fn close_sends_nqe_and_completion_reaps_socket() {
        let (mut guest, mut resp, _region) = guest_with_responders(1);
        let s = guest.socket().unwrap();
        let _ = pop_request(&mut resp);
        guest.close(s).unwrap();
        let close_req = pop_request(&mut resp).unwrap();
        assert_eq!(close_req.op, OpType::Close);
        respond(
            &mut resp,
            Nqe::completion_for(&close_req, OpResult::Ok, 0).unwrap(),
        );
        guest.drive();
        assert_eq!(guest.socket_count(), 0);
        assert_eq!(guest.send(s, b"x"), Err(NkError::BadSocket));
    }

    #[test]
    fn sockets_spread_over_queue_sets() {
        let (mut guest, mut resp, _region) = guest_with_responders(4);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..16 {
            guest.socket().unwrap();
        }
        while let Some(nqe) = pop_request(&mut resp) {
            seen.insert(nqe.queue_set);
        }
        assert!(
            seen.len() >= 3,
            "sockets pinned to too few queue sets: {seen:?}"
        );
    }

    /// A snapshot copies unread payload out of the source region; install parks
    /// it in the destination region and the application reads on under the
    /// same socket id.
    #[test]
    fn export_install_moves_a_socket_between_guestlibs() {
        let (mut guest, mut resp, region) = guest_with_responders(1);
        let s = guest.socket().unwrap();
        let create = pop_request(&mut resp).unwrap();
        guest.connect(s, SockAddr::v4(10, 0, 0, 2, 80)).unwrap();
        let req = pop_request(&mut resp).unwrap();
        respond(
            &mut resp,
            Nqe::completion_for(&req, OpResult::Ok, 0).unwrap(),
        );
        guest.drive();

        // Unread data parked in the source region, partially consumed.
        let handle = region.alloc_and_write(b"warm migration payload").unwrap();
        let data =
            Nqe::new(OpType::DataReceived, VmId(1), create.queue_set, s).with_data(handle, 22);
        respond(&mut resp, data);
        let mut buf = [0u8; 5];
        assert_eq!(guest.recv(s, &mut buf).unwrap(), 5);
        let free_before = region.available();

        let snap = guest.snapshot_socket(s).unwrap();
        assert_eq!(snap.id, s);
        assert_eq!(snap.rx_bytes, b"migration payload");
        assert!(guest.has_socket(s), "a snapshot changes nothing");
        assert_eq!(region.available(), free_before);
        assert_eq!(guest.snapshot_socket(s), Ok(snap.clone()));
        assert_eq!(
            guest.snapshot_socket(SocketId(999)),
            Err(NkError::BadSocket)
        );

        // Install into a fresh GuestLib (the destination instance).
        let (mut dest, _dresp, _dregion) = guest_with_responders(1);
        dest.install_socket(&snap).unwrap();
        assert!(dest.has_socket(s));
        assert!(dest.poll(s).readable());
        let mut rest = [0u8; 32];
        assert_eq!(dest.recv(s, &mut rest).unwrap(), 17);
        assert_eq!(&rest[..17], b"migration payload");
        assert_eq!(dest.install_socket(&snap), Err(NkError::AlreadyRegistered));
        // A fresh socket id never collides with the transplanted one.
        let fresh = dest.socket().unwrap();
        assert_ne!(fresh, s);
    }

    #[test]
    fn operations_on_unknown_socket_fail() {
        let (mut guest, _resp, _region) = guest_with_responders(1);
        let bogus = SocketId(777);
        assert_eq!(guest.bind(bogus, SockAddr::ANY), Err(NkError::BadSocket));
        assert_eq!(guest.send(bogus, b"x"), Err(NkError::BadSocket));
        assert_eq!(guest.close(bogus), Err(NkError::BadSocket));
        assert!(guest.poll(bogus).error());
    }
}
