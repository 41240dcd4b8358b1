//! The GuestLib socket implementation.

use crate::sockstate::{GuestSocket, GuestSocketState, RxChunk};
use nk_queue::{NkDevice, RequesterEnd};
use nk_shmem::HugepageRegion;
use nk_types::api::{EpollEvent, ShutdownHow};
use nk_types::constants::NSM_SOCKET_ID_BASE;
use nk_types::migrate::GuestSockSnapshot;
use nk_types::{
    DataHandle, NkError, NkResult, Nqe, OpResult, OpType, PollEvents, QueueSetId, SockAddr,
    SocketApi, SocketId, VmId,
};
use std::collections::BTreeMap;

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
    /// Ordered so `epoll_wait` reports events deterministically across runs.
    sockets: BTreeMap<SocketId, GuestSocket>,
    next_socket: u32,
    send_buf: usize,
    batch: usize,
    stats: GuestStats,
    /// One batch of responses `drive` works through (empty between calls).
    scratch: Vec<Nqe>,
    /// The lengths of the receive chunks one `recv` used up (empty between
    /// calls).
    consumed: Vec<usize>,
    /// Receive credit a full job ring refused, per socket (with its queue
    /// set); the socket's next credit or `drive` sends it.
    owed_credit: BTreeMap<SocketId, (QueueSetId, usize)>,
}

impl GuestLib {
    /// Build the guest library for `vm` from its NK device queue sets and the
    /// hugepage region shared with its NSM.
    pub fn new(vm: VmId, device: NkDevice<RequesterEnd>, region: HugepageRegion) -> Self {
        GuestLib {
            vm,
            device,
            region,
            sockets: BTreeMap::new(),
            next_socket: 1,
            send_buf: nk_types::constants::DEFAULT_SEND_BUF,
            batch: nk_types::constants::DEFAULT_BATCH_SIZE,
            stats: GuestStats::default(),
            scratch: Vec::new(),
            consumed: Vec::new(),
            owed_credit: BTreeMap::new(),
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

    /// True when a socket with this id currently exists. After a warm
    /// migration the application's socket id reappears under the VM's new
    /// host; workload drivers use this to follow the transplant.
    pub fn has_socket(&self, id: SocketId) -> bool {
        self.sockets.contains_key(&id)
    }

    /// True when [`GuestLib::export_socket`] would accept the socket —
    /// established or half-closed, not mid-handshake or closing. A warm
    /// export pre-validates against this before tearing anything out.
    pub fn socket_transplantable(&self, id: SocketId) -> bool {
        matches!(
            self.sockets.get(&id).map(|s| s.state),
            Some(GuestSocketState::Established) | Some(GuestSocketState::PeerClosed)
        )
    }

    // ---- Warm-migration export / install ------------------------------------

    /// Tear a connected socket out of this GuestLib for a warm migration.
    ///
    /// Unconsumed receive chunks are copied out of (and freed from) the
    /// source hugepages — the snapshot owns plain bytes, not region
    /// handles, because the destination has a different region. Only
    /// established (or half-closed) connections export; listeners and
    /// embryonic sockets have no transplantable stack state.
    pub fn export_socket(&mut self, sock: SocketId) -> NkResult<GuestSockSnapshot> {
        let peer_closed = match self.sockets.get(&sock).map(|s| s.state) {
            Some(GuestSocketState::Established) => false,
            Some(GuestSocketState::PeerClosed) => true,
            Some(_) => return Err(NkError::InvalidState),
            None => return Err(NkError::BadSocket),
        };
        let s = self.sockets.remove(&sock).expect("state checked above");
        let mut rx_bytes = Vec::new();
        for chunk in &s.rx_chunks {
            self.region
                .lend_and_free(chunk.handle, chunk.len, |bytes| {
                    rx_bytes.extend_from_slice(&bytes[chunk.consumed..])
                })?;
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
        self.sockets.insert(snap.id, s);
        Ok(())
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

    /// Return `len` bytes of receive credit for `sock`, plus what a full job
    /// ring refused it before, in one `RecvConsumed`. Credit refused again
    /// stays on the socket for the next credit or `drive`: none is dropped.
    fn return_credit(&mut self, sock: SocketId, qs: QueueSetId, len: usize) {
        let owed = len + self.owed_credit.remove(&sock).map_or(0, |(_, n)| n);
        let credit = Nqe::new(OpType::RecvConsumed, self.vm, qs, sock)
            .with_data(DataHandle::NULL, owed as u32);
        if self.submit(qs, credit).is_err() {
            self.owed_credit.insert(sock, (qs, owed));
        }
    }

    fn request(&mut self, op: OpType, sock: SocketId) -> Nqe {
        let qs = self
            .sockets
            .get(&sock)
            .map(|s| s.queue_set)
            .unwrap_or_else(|| self.queue_set_for(sock));
        Nqe::new(op, self.vm, qs, sock)
    }

    fn sock(&self, id: SocketId) -> NkResult<&GuestSocket> {
        self.sockets.get(&id).ok_or(NkError::BadSocket)
    }

    fn sock_mut(&mut self, id: SocketId) -> NkResult<&mut GuestSocket> {
        self.sockets.get_mut(&id).ok_or(NkError::BadSocket)
    }

    // ---- Completion processing ----------------------------------------------

    fn process_response(&mut self, nqe: Nqe) {
        self.stats.nqes_received += 1;
        match nqe.op {
            OpType::SocketCreated
            | OpType::BindComplete
            | OpType::ListenComplete
            | OpType::SetSockOptComplete
            | OpType::GetSockOptComplete
            | OpType::ShutdownComplete => {
                if let OpResult::Err(e) = nqe.result() {
                    if let Some(s) = self.sockets.get_mut(&nqe.socket) {
                        s.state = GuestSocketState::Error(e);
                    }
                }
            }
            OpType::ConnectComplete => {
                // Only a socket still connecting transitions: a late
                // completion drained after the application already moved on
                // (closed the socket, observed an error) must not resurrect
                // it into the established state.
                if let Some(s) = self.sockets.get_mut(&nqe.socket) {
                    if matches!(s.state, GuestSocketState::Connecting) {
                        match nqe.result() {
                            OpResult::Ok => s.state = GuestSocketState::Established,
                            OpResult::Err(e) => s.state = GuestSocketState::Error(e),
                        }
                    }
                }
            }
            OpType::Accepted => {
                // aux carries the ServiceLib-allocated guest socket id for the
                // new connection; the data-handle field carries the packed
                // peer address.
                let new_id = SocketId(nqe.aux());
                let peer = SockAddr::unpack(nqe.data.0);
                let qs = nqe.queue_set;
                if nqe.result().is_ok() {
                    let mut conn = GuestSocket::new(new_id, qs, self.send_buf);
                    conn.state = GuestSocketState::Established;
                    conn.remote = Some(peer);
                    self.sockets.insert(new_id, conn);
                    if let Some(listener) = self.sockets.get_mut(&nqe.socket) {
                        listener.accept_queue.push_back((new_id, peer));
                    }
                }
            }
            OpType::SendComplete => {
                if let Some(s) = self.sockets.get_mut(&nqe.socket) {
                    s.send_budget.release(nqe.size as usize);
                    if let OpResult::Err(e) = nqe.result() {
                        s.state = GuestSocketState::Error(e);
                    }
                }
            }
            OpType::DataReceived => {
                if let Some(s) = self.sockets.get_mut(&nqe.socket) {
                    s.rx_chunks.push_back(RxChunk {
                        handle: nqe.data,
                        len: nqe.size as usize,
                        consumed: 0,
                    });
                }
            }
            OpType::PeerClosed => {
                if let Some(s) = self.sockets.get_mut(&nqe.socket) {
                    // Only an established connection transitions to the
                    // half-closed state; errors and closed sockets keep their
                    // state so the application still observes the failure.
                    if matches!(s.state, GuestSocketState::Established) {
                        s.state = GuestSocketState::PeerClosed;
                    }
                }
            }
            OpType::CloseComplete => {
                if let Some(s) = self.sockets.remove(&nqe.socket) {
                    // Release any unread payload still parked in the region.
                    for chunk in s.rx_chunks {
                        let _ = self.region.free(chunk.handle);
                    }
                }
            }
            OpType::ErrorEvent => {
                self.stats.errors += 1;
                if let Some(s) = self.sockets.get_mut(&nqe.socket) {
                    let err = match nqe.result() {
                        OpResult::Err(e) => e,
                        OpResult::Ok => NkError::InvalidState,
                    };
                    s.state = GuestSocketState::Error(err);
                }
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
        self.sockets
            .insert(id, GuestSocket::new(id, qs, self.send_buf));
        let nqe = Nqe::new(OpType::SocketCreate, self.vm, qs, id);
        self.submit(qs, nqe)?;
        Ok(id)
    }

    fn bind(&mut self, sock: SocketId, addr: SockAddr) -> NkResult<()> {
        let qs = self.sock(sock)?.queue_set;
        let nqe = self.request(OpType::Bind, sock).with_op_data(addr.pack());
        self.submit(qs, nqe)?;
        let s = self.sock_mut(sock)?;
        s.local = Some(addr);
        s.state = GuestSocketState::Bound;
        Ok(())
    }

    fn listen(&mut self, sock: SocketId, backlog: u32) -> NkResult<()> {
        let qs = self.sock(sock)?.queue_set;
        let nqe = self
            .request(OpType::Listen, sock)
            .with_op_data(u64::from(backlog));
        self.submit(qs, nqe)?;
        let s = self.sock_mut(sock)?;
        s.backlog = backlog;
        s.state = GuestSocketState::Listening;
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
        let qs = self.sock(sock)?.queue_set;
        let nqe = self
            .request(OpType::Connect, sock)
            .with_op_data(addr.pack());
        self.submit(qs, nqe)?;
        let s = self.sock_mut(sock)?;
        s.remote = Some(addr);
        s.state = GuestSocketState::Connecting;
        Ok(())
    }

    fn send(&mut self, sock: SocketId, data: &[u8]) -> NkResult<usize> {
        let (qs, granted) = {
            let s = self.sock_mut(sock)?;
            match s.state {
                GuestSocketState::Established | GuestSocketState::Connecting => {}
                GuestSocketState::PeerClosed => {}
                GuestSocketState::Error(e) => return Err(e),
                GuestSocketState::Closed | GuestSocketState::Closing => {
                    return Err(NkError::Closed)
                }
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
        let handle = match self.region.alloc_and_write(&data[..granted]) {
            Ok(h) => h,
            Err(e) => {
                self.sock_mut(sock)?.send_budget.release(granted);
                return Err(e);
            }
        };
        let nqe = self
            .request(OpType::Send, sock)
            .with_data(handle, granted as u32);
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
        let mut consumed_chunks = std::mem::take(&mut self.consumed);
        // A chunk the region refuses to read stays at the head of the queue:
        // bytes copied before it are still delivered (and their chunks
        // credited) by this call, and the next call reports the error.
        let mut failure = None;
        let (qs, copied, state) = {
            let region = &self.region;
            let s = self.sockets.get_mut(&sock).ok_or(NkError::BadSocket)?;
            let mut copied = 0usize;
            while copied < buf.len() {
                let Some(chunk) = s.rx_chunks.front_mut() else {
                    break;
                };
                let remaining = chunk.len - chunk.consumed;
                let take = remaining.min(buf.len() - copied);
                // The one copy of this hop: hugepage → the caller's buffer.
                // A read that finishes the chunk frees it under the same
                // lock hold.
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
                    consumed_chunks.push(chunk.len);
                    s.rx_chunks.pop_front();
                }
            }
            (s.queue_set, copied, s.state)
        };
        // Return receive credit to the NSM for every finished chunk.
        for len in consumed_chunks.drain(..) {
            self.return_credit(sock, qs, len);
        }
        self.consumed = consumed_chunks;
        if copied > 0 {
            self.stats.bytes_received += copied as u64;
            return Ok(copied);
        }
        if let Some(e) = failure {
            return Err(e);
        }
        match state {
            GuestSocketState::PeerClosed | GuestSocketState::Closed => Ok(0),
            GuestSocketState::Error(e) => Err(e),
            _ => Err(NkError::WouldBlock),
        }
    }

    fn set_sockopt(&mut self, sock: SocketId, opt: u32, value: u32) -> NkResult<()> {
        let qs = self.sock(sock)?.queue_set;
        let nqe = self
            .request(OpType::SetSockOpt, sock)
            .with_op_data(nk_types::ops::op_data::pack_sockopt(opt, value));
        self.submit(qs, nqe)
    }

    fn shutdown(&mut self, sock: SocketId, how: ShutdownHow) -> NkResult<()> {
        let qs = self.sock(sock)?.queue_set;
        let nqe = self
            .request(OpType::Shutdown, sock)
            .with_op_data(how.encode());
        self.submit(qs, nqe)
    }

    fn close(&mut self, sock: SocketId) -> NkResult<()> {
        let qs = self.sock(sock)?.queue_set;
        let nqe = self.request(OpType::Close, sock);
        self.submit(qs, nqe)?;
        if let Some(s) = self.sockets.get_mut(&sock) {
            s.state = GuestSocketState::Closing;
        }
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
        for (id, s) in self.sockets.iter() {
            if out.len() >= max_events {
                break;
            }
            if s.interest.is_empty() {
                continue;
            }
            let ready = s.readiness();
            let masked =
                PollEvents(ready.0 & (s.interest.0 | PollEvents::HUP.0 | PollEvents::ERROR.0));
            if !masked.is_empty() {
                out.push(EpollEvent {
                    socket: *id,
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
        for (sock, (qs, owed)) in std::mem::take(&mut self.owed_credit) {
            self.return_credit(sock, qs, owed);
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

    /// Export pulls unread payload out of the source region; install parks
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

        let snap = guest.export_socket(s).unwrap();
        assert_eq!(snap.id, s);
        assert_eq!(snap.rx_bytes, b"migration payload");
        assert!(!guest.has_socket(s));
        assert!(
            region.available() > free_before,
            "export must free the source chunks"
        );
        assert_eq!(guest.export_socket(s), Err(NkError::BadSocket));

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
