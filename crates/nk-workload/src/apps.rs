//! Application state machines written against [`SocketApi`].
//!
//! These are the "unmodified applications" of the evaluation: because they
//! only use the BSD-style socket trait, the *same code* runs inside a
//! NetKernel guest (GuestLib) and on a bare `TcpStack` (the baseline VM's
//! in-guest stack, a remote peer), and
//! switching the NSM under a NetKernel guest requires no change at all
//! (use case 3, §6.3).
//!
//! [`VerifiedStream`] and [`echo_all`] are the one traffic driver every
//! scenario streams through: a stop-and-wait client that checks each echoed
//! byte against its seeded payload, and the echo step of the server it
//! talks to. The runner only decides *which* socket API to hand them (the
//! guest on the tenant's current home, the server's stack) and when. [`EchoServer`] and [`ClosedLoopClient`] are the epoll-shaped pair.

use crate::scenario::seeded_payload;
use nk_types::{NkError, NkResult, PollEvents, SockAddr, SocketApi, SocketId, VmId};
use std::collections::BTreeSet;

/// One tenant's offered load: what its [`VerifiedStream`] transfers, from
/// when, and how often it reopens its connection.
#[derive(Clone, Debug)]
pub struct BurstyClient {
    /// The VM the client runs in.
    pub vm: VmId,
    /// Virtual time at which the tenant starts transferring.
    pub start_ns: u64,
    /// Bytes the tenant must deliver (and see echoed) end to end.
    pub total_bytes: usize,
    /// Stop-and-wait chunk size.
    pub chunk: usize,
    /// Chunks transferred per connection before the client opens a fresh
    /// one (short-connection behaviour; migrations take effect at these
    /// rotation points). `0` keeps one connection for the whole transfer.
    pub chunks_per_conn: usize,
}

impl BurstyClient {
    /// A 64 KiB transfer starting at `start_ns`, reconnecting every four
    /// chunks.
    pub fn new(vm: VmId, start_ns: u64) -> Self {
        BurstyClient {
            vm,
            start_ns,
            total_bytes: 64 * 1024,
            chunk: 2048,
            chunks_per_conn: 4,
        }
    }

    /// Set the transfer size (builder style).
    pub fn with_total_bytes(mut self, bytes: usize) -> Self {
        self.total_bytes = bytes;
        self
    }

    /// Keep one connection for the whole transfer (builder style). A
    /// long-lived connection never reaches a rotation point, so a *drained*
    /// migration would stall until the transfer ends — the scenario warm
    /// migration exists for.
    pub fn long_lived(mut self) -> Self {
        self.chunks_per_conn = 0;
        self
    }
}

/// A reliable stop-and-wait transfer client: streams a seeded payload chunk
/// by chunk, verifies every echoed byte against it, and transparently
/// reconnects — retransmitting the chunk from its start — whenever the
/// infrastructure fails underneath the socket.
pub struct VerifiedStream {
    spec: BurstyClient,
    server: SockAddr,
    payload: Vec<u8>,
    sock: Option<SocketId>,
    established: bool,
    /// Bytes fully delivered, echoed and verified.
    off: usize,
    /// Bytes of the current chunk handed to `send` on this connection.
    sent_in_chunk: usize,
    /// Bytes of the current chunk echoed back and verified.
    acked_in_chunk: usize,
    chunks_on_conn: usize,
    /// Socket errors observed (resets, refused NSMs).
    pub errors_observed: u64,
    /// Reconnects forced by errors (scheduled rotations are not counted).
    pub reconnects: u64,
}

impl VerifiedStream {
    /// A client for `spec` streaming `seeded_payload(payload_seed, ..)` to
    /// `server`.
    pub fn new(spec: BurstyClient, payload_seed: u64, server: SockAddr) -> Self {
        VerifiedStream {
            payload: seeded_payload(payload_seed, spec.total_bytes),
            spec,
            server,
            sock: None,
            established: false,
            off: 0,
            sent_in_chunk: 0,
            acked_in_chunk: 0,
            chunks_on_conn: 0,
            errors_observed: 0,
            reconnects: 0,
        }
    }

    /// One client per tenant of a run, each with its own
    /// payload derived from the run's seed and the tenant's VM id.
    pub(crate) fn for_tenants(specs: &[BurstyClient], seed: u64, server: SockAddr) -> Vec<Self> {
        let tenant_seed = |vm: VmId| seed ^ (vm.raw() as u64).wrapping_mul(0x9E37_79B9);
        specs
            .iter()
            .map(|spec| VerifiedStream::new(spec.clone(), tenant_seed(spec.vm), server))
            .collect()
    }

    /// The offered load this client was built from.
    pub fn spec(&self) -> &BurstyClient {
        &self.spec
    }

    /// Bytes echoed back and verified so far.
    pub fn bytes_verified(&self) -> u64 {
        self.off as u64
    }

    /// True once every byte was delivered, echoed and verified.
    pub fn done(&self) -> bool {
        self.off >= self.spec.total_bytes
    }

    /// The current connection, if one is open.
    pub fn socket(&self) -> Option<SocketId> {
        self.sock
    }

    /// Forget the current connection without closing it: the socket API it
    /// was opened on no longer exists. The next [`VerifiedStream::poll`]
    /// reopens and retransmits the chunk.
    pub fn abandon_socket(&mut self) {
        self.sock = None;
        self.established = false;
    }

    /// Close the current connection, if any (end-of-run settling).
    pub fn close(&mut self, api: &mut dyn SocketApi) {
        if let Some(sock) = self.sock.take() {
            let _ = api.close(sock);
        }
    }

    /// One client iteration on the socket API the connection lives on:
    /// (re)connect if needed, push the rest of the current chunk, verify
    /// echoed bytes, rotate the connection every `chunks_per_conn` chunks.
    ///
    /// Panics when the server echoes a byte that differs from the payload.
    pub fn poll(&mut self, api: &mut dyn SocketApi) {
        let vm = self.spec.vm;
        let chunk_len = self.spec.chunk.min(self.spec.total_bytes - self.off);
        let Some(sock) = self.sock else {
            // (Re)open: a fresh socket and an async connect. A chunk is
            // always retransmitted from its start on a new connection.
            if let Ok(s) = api.socket() {
                if api.connect(s, self.server).is_ok() {
                    self.sock = Some(s);
                    self.established = false;
                    self.sent_in_chunk = 0;
                    self.acked_in_chunk = 0;
                    self.chunks_on_conn = 0;
                } else {
                    let _ = api.close(s);
                }
            }
            return;
        };

        let ev = api.poll(sock);
        if ev.error() || ev.hup() {
            // The infrastructure failed underneath the socket (NSM crash →
            // ConnReset, dead mapping → NsmUnavailable). Drop the connection
            // and retry the whole chunk through whatever NSM now serves us.
            self.errors_observed += 1;
            self.reconnects += 1;
            let _ = api.close(sock);
            self.abandon_socket();
            return;
        }
        if !self.established {
            if !ev.writable() {
                return; // handshake still in flight
            }
            self.established = true;
        }
        // Push the rest of the current chunk (partial sends are fine: the
        // send budget throttles us under backpressure).
        if self.sent_in_chunk < chunk_len {
            let from = self.off + self.sent_in_chunk;
            let to = self.off + chunk_len;
            match api.send(sock, &self.payload[from..to]) {
                Ok(n) => self.sent_in_chunk += n,
                Err(NkError::WouldBlock) => {}
                Err(_) => return, // surfaced via poll() next iteration
            }
        }
        // Verify whatever the server has echoed so far.
        let mut buf = [0u8; 4096];
        while let Ok(n @ 1..) = api.recv(sock, &mut buf) {
            let at = self.off + self.acked_in_chunk;
            assert!(
                at + n <= self.off + chunk_len,
                "{vm:?}: server echoed {} bytes past the outstanding chunk",
                at + n - (self.off + chunk_len),
            );
            assert_eq!(
                &buf[..n],
                &self.payload[at..at + n],
                "{vm:?}: echoed bytes diverge from the payload at offset {at}",
            );
            self.acked_in_chunk += n;
        }
        if self.acked_in_chunk == chunk_len && chunk_len > 0 {
            // Chunk fully delivered and verified: advance on the same
            // connection.
            self.off += chunk_len;
            self.sent_in_chunk = 0;
            self.acked_in_chunk = 0;
            self.chunks_on_conn += 1;
            let per_conn = self.spec.chunks_per_conn;
            if per_conn > 0 && self.chunks_on_conn >= per_conn {
                // Rotation point: close here, reopen on the next iteration
                // through whatever serves the VM by then — this is how a
                // live or drained migration takes effect mid-transfer.
                let _ = api.close(sock);
                self.abandon_socket();
            }
        }
    }
}

/// One echo-server step: accept everything pending on `listener` into
/// `conns`, then per connection echo whatever can be read until the socket
/// would block; a connection the peer closed (or that failed) is closed and
/// dropped from `conns`.
pub fn echo_all(
    api: &mut dyn SocketApi,
    listener: SocketId,
    conns: &mut Vec<SocketId>,
    buf: &mut [u8],
) {
    while let Ok((conn, _)) = api.accept(listener) {
        conns.push(conn);
    }
    conns.retain(|&conn| loop {
        match api.recv(conn, buf) {
            Ok(n @ 1..) => {
                let _ = api.send(conn, &buf[..n]);
            }
            Err(NkError::WouldBlock) => break true,
            Ok(0) | Err(_) => {
                let _ = api.close(conn);
                break false;
            }
        }
    });
}

/// An epoll-driven echo server: accepts connections, reads requests and
/// echoes them back — the shape of the multi-threaded epoll servers used
/// throughout §7.
pub struct EchoServer {
    listener: SocketId,
    /// Requests served (one per message echoed).
    pub requests: u64,
    /// Bytes echoed back.
    pub bytes: u64,
    buf: Vec<u8>,
}

impl EchoServer {
    /// Create the server: socket + bind + listen on `addr`.
    pub fn start(api: &mut dyn SocketApi, addr: SockAddr, backlog: u32) -> NkResult<Self> {
        let listener = api.socket()?;
        api.bind(listener, addr)?;
        api.listen(listener, backlog)?;
        api.epoll_register(listener, PollEvents::READABLE)?;
        Ok(EchoServer {
            listener,
            requests: 0,
            bytes: 0,
            buf: vec![0u8; 64 * 1024],
        })
    }

    /// One event-loop iteration: accept new connections, echo available data.
    /// Returns the number of events handled.
    pub fn poll(&mut self, api: &mut dyn SocketApi) -> usize {
        let mut handled = 0;
        // Accept everything pending.
        while let Ok((conn, _peer)) = api.accept(self.listener) {
            let _ = api.epoll_register(conn, PollEvents::READABLE);
            handled += 1;
        }
        // Serve readable connections.
        let events = api.epoll_wait(64);
        for ev in events {
            if ev.socket == self.listener {
                continue;
            }
            if ev.events.readable() {
                loop {
                    match api.recv(ev.socket, &mut self.buf) {
                        Ok(0) => {
                            let _ = api.close(ev.socket);
                            break;
                        }
                        Ok(n) => {
                            let _ = api.send(ev.socket, &self.buf[..n]);
                            self.requests += 1;
                            self.bytes += n as u64;
                            handled += 1;
                        }
                        Err(_) => break,
                    }
                }
            }
            if ev.events.hup() || ev.events.error() {
                let _ = api.close(ev.socket);
            }
        }
        handled
    }
}

/// A closed-loop `ab`-style client: keeps `concurrency` requests outstanding
/// against a server, counting completed request/response pairs.
pub struct ClosedLoopClient {
    server: SockAddr,
    message: Vec<u8>,
    concurrency: usize,
    /// Connections with a request in flight (ordered, per the workspace
    /// determinism rule).
    in_flight: BTreeSet<SocketId>,
    /// Completed request/response exchanges.
    pub completed: u64,
    /// Responses bytes received.
    pub bytes_received: u64,
    buf: Vec<u8>,
}

impl ClosedLoopClient {
    /// A client issuing `message`-sized requests with the given concurrency.
    pub fn new(server: SockAddr, message_size: usize, concurrency: usize) -> Self {
        ClosedLoopClient {
            server,
            message: vec![0x42u8; message_size.max(1)],
            concurrency,
            in_flight: BTreeSet::new(),
            completed: 0,
            bytes_received: 0,
            buf: vec![0u8; 64 * 1024],
        }
    }

    /// One event-loop iteration: top up connections to the target
    /// concurrency, send requests on writable connections, and consume
    /// responses. Returns the number of responses completed this round.
    pub fn poll(&mut self, api: &mut dyn SocketApi) -> u64 {
        // Open new connections until the concurrency target is met.
        while self.in_flight.len() < self.concurrency {
            let Ok(sock) = api.socket() else { break };
            if api.connect(sock, self.server).is_err() {
                let _ = api.close(sock);
                break;
            }
            let _ = api.epoll_register(sock, PollEvents::READABLE | PollEvents::WRITABLE);
            self.in_flight.insert(sock);
        }
        // Drive I/O.
        let mut done = 0;
        let events = api.epoll_wait(256);
        for ev in events {
            if !self.in_flight.contains(&ev.socket) {
                continue;
            }
            if ev.events.error() || ev.events.hup() {
                let _ = api.close(ev.socket);
                self.in_flight.remove(&ev.socket);
                continue;
            }
            if ev.events.writable() {
                let _ = api.send(ev.socket, &self.message);
                // Only send the request once per connection: deregister the
                // writable interest afterwards.
                let _ = api.epoll_register(ev.socket, PollEvents::READABLE);
            }
            if ev.events.readable() {
                if let Ok(n) = api.recv(ev.socket, &mut self.buf) {
                    if n > 0 {
                        self.bytes_received += n as u64;
                        self.completed += 1;
                        done += 1;
                        // Non-keepalive: close and let the loop reopen.
                        let _ = api.close(ev.socket);
                        self.in_flight.remove(&ev.socket);
                    }
                }
            }
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nk_host::NetKernelHost;
    use nk_types::constants::DEFAULT_RECV_BUF;
    use nk_types::{HostConfig, NsmConfig, NsmId, ShutdownHow, VmConfig, VmToNsmPolicy};

    const SUBJECT_IP: u32 = 0x0A00_0600;
    const PEER_IP: u32 = 0x0A00_0500;

    /// One row of the seam table: a host carrying the socket API under test
    /// (picked by `subject`, reached at `subject_ip`) and the peer it talks
    /// to at `PEER_IP` (picked by `peer`): a bare stack, or a colocated
    /// guest.
    struct World {
        host: NetKernelHost,
        subject: fn(&mut NetKernelHost) -> &mut dyn SocketApi,
        subject_ip: u32,
        peer: fn(&mut NetKernelHost) -> &mut dyn SocketApi,
    }

    fn guest(host: &mut NetKernelHost) -> &mut dyn SocketApi {
        host.guest_mut(VmId(1)).unwrap()
    }

    fn colocated_guest(host: &mut NetKernelHost) -> &mut dyn SocketApi {
        host.guest_mut(VmId(2)).unwrap()
    }

    fn remote_peer(host: &mut NetKernelHost) -> &mut dyn SocketApi {
        host.remote_mut(PEER_IP).unwrap()
    }

    fn bare(host: &mut NetKernelHost) -> &mut dyn SocketApi {
        host.remote_mut(SUBJECT_IP).unwrap()
    }

    impl World {
        fn subject(&mut self) -> &mut dyn SocketApi {
            (self.subject)(&mut self.host)
        }

        fn peer(&mut self) -> &mut dyn SocketApi {
            (self.peer)(&mut self.host)
        }

        /// Let `steps` × 100 µs pass.
        fn run(&mut self, steps: usize) {
            self.host.run(steps, 100_000);
        }

        /// The subject listens on port 80 and the peer connects: the
        /// subject's accepted socket and the peer's.
        fn session(&mut self) -> (SocketId, SocketId) {
            let ls = self.subject().socket().unwrap();
            self.subject().bind(ls, SockAddr::new(0, 80)).unwrap();
            self.subject().listen(ls, 8).unwrap();
            self.run(5);
            let (pc, to) = (
                self.peer().socket().unwrap(),
                SockAddr::new(self.subject_ip, 80),
            );
            self.peer().connect(pc, to).unwrap();
            self.run(30);
            let (conn, _) = self.subject().accept(ls).unwrap();
            (conn, pc)
        }
    }

    /// The paper's two architectures as four socket APIs: GuestLib behind
    /// a kernel-stack NSM, GuestLib behind an mTCP NSM, a bare `TcpStack`,
    /// and GuestLib behind the shared-memory NSM with a colocated guest as
    /// its peer.
    fn worlds() -> Vec<(&'static str, World)> {
        let host = |nsm: NsmConfig| {
            let cfg = HostConfig::new()
                .with_vm(VmConfig::new(VmId(1)))
                .with_nsm(nsm)
                .with_mapping(VmToNsmPolicy::All(NsmId(1)));
            let mut host = NetKernelHost::new(cfg).unwrap();
            host.add_remote(PEER_IP);
            host.add_remote(SUBJECT_IP);
            host
        };
        let over_nsm = |nsm| {
            let host = host(nsm);
            World {
                subject_ip: host.nsm_addr(NsmId(1)),
                host,
                subject: guest,
                peer: remote_peer,
            }
        };
        let bare = World {
            host: host(NsmConfig::kernel(NsmId(1))),
            subject: bare,
            subject_ip: SUBJECT_IP,
            peer: remote_peer,
        };
        let cfg = HostConfig::new()
            .with_vm(VmConfig::new(VmId(1)))
            .with_vm(VmConfig::new(VmId(2)))
            .with_nsm(NsmConfig::shared_mem(NsmId(1)))
            .with_mapping(VmToNsmPolicy::All(NsmId(1)));
        let colocated = World {
            host: NetKernelHost::new(cfg).unwrap(),
            subject: guest,
            subject_ip: 0,
            peer: colocated_guest,
        };
        vec![
            ("kernel", over_nsm(NsmConfig::kernel(NsmId(1)))),
            ("mtcp", over_nsm(NsmConfig::mtcp(NsmId(1)))),
            ("bare", bare),
            ("shared-memory", colocated),
        ]
    }

    /// The paper's "no code change" (use case 3): the same client and the
    /// same echo step, unchanged, over a kernel-stack NSM, an mTCP NSM, a
    /// bare stack (the baseline) and the shared-memory NSM — a fresh 32 KiB
    /// stream, a new connection every four chunks.
    #[test]
    fn the_same_stream_and_echo_run_unchanged_over_every_stack() {
        for (stack, mut w) in worlds() {
            let listener = w.peer().socket().unwrap();
            w.peer().bind(listener, SockAddr::new(0, 7)).unwrap();
            w.peer().listen(listener, 64).unwrap();
            w.run(5); // a colocated guest's listen is a request in flight
            let spec = BurstyClient::new(VmId(1), 0).with_total_bytes(32 * 1024);
            let mut stream = VerifiedStream::new(spec, 42, SockAddr::new(PEER_IP, 7));
            let (mut conns, mut buf) = (Vec::new(), vec![0u8; 16 * 1024]);
            for _ in 0..2_000 {
                if stream.done() {
                    break;
                }
                stream.poll(w.subject());
                w.run(1);
                echo_all(w.peer(), listener, &mut conns, &mut buf);
            }
            assert!(stream.done(), "{stack}: transfer did not complete");
            assert_eq!(stream.bytes_verified(), 32 * 1024, "{stack}");
            assert_eq!(
                (stream.errors_observed, stream.reconnects),
                (0, 0),
                "{stack}"
            );
        }
    }

    /// One scripted session against the subject — both roles, the epoll
    /// calls, half-close, EOF, and the error cases — as the list of every
    /// call's result, socket ids replaced by the script's names for them.
    fn scripted_session(w: &mut World) -> Vec<String> {
        let mut log = Vec::new();
        let mut names: Vec<(SocketId, &str)> = Vec::new();
        macro_rules! note {
            ($what:expr, $result:expr) => {
                log.push(format!("{}: {:?}", $what, $result))
            };
        }
        // `epoll_wait`, by name; sorted, because the two implementations
        // number their sockets differently.
        let ready = |names: &[(SocketId, &str)], api: &mut dyn SocketApi| {
            let name = |s| names.iter().find(|(id, _)| *id == s).map(|(_, n)| *n);
            let mut events: Vec<String> = api
                .epoll_wait(8)
                .into_iter()
                .map(|ev| format!("{:?}={:#x}", name(ev.socket), ev.events.0))
                .collect();
            events.sort();
            events
        };
        let mut buf = [0u8; 64];
        let readable = PollEvents::READABLE;
        let both = readable | PollEvents::WRITABLE;

        // Passive side: listen, be connected to, accept, exchange.
        let ls = w.subject().socket().unwrap();
        names.push((ls, "ls"));
        note!("bind", w.subject().bind(ls, SockAddr::new(0, 80)));
        note!("listen", w.subject().listen(ls, 8));
        note!("register ls", w.subject().epoll_register(ls, readable));
        w.run(5);
        note!("accept early", w.subject().accept(ls));
        note!("wait idle", ready(&names, w.subject()));
        let pc = w.peer().socket().unwrap();
        let listener = SockAddr::new(w.subject_ip, 80);
        w.peer().connect(pc, listener).unwrap();
        w.run(30);
        note!("wait acceptable", ready(&names, w.subject()));
        let (conn, from) = w.subject().accept(ls).unwrap();
        names.push((conn, "conn"));
        note!("accepted from the peer", from.ip == PEER_IP);
        note!("register conn", w.subject().epoll_register(conn, readable));
        note!("recv early", w.subject().recv(conn, &mut buf));
        w.peer().send(pc, b"ping").unwrap();
        w.run(20);
        note!("wait readable", ready(&names, w.subject()));
        let got = w.subject().recv(conn, &mut buf);
        note!("recv", got.map(|n| buf[..n].to_vec()));
        note!("send", w.subject().send(conn, b"pong"));
        w.run(20);
        let got = w.peer().recv(pc, &mut buf);
        note!("peer got", got.map(|n| buf[..n].to_vec()));

        // Active side: connect out, send, half-close.
        let pl = w.peer().socket().unwrap();
        w.peer().bind(pl, SockAddr::new(0, 90)).unwrap();
        w.peer().listen(pl, 8).unwrap();
        w.run(5); // a colocated guest's listen is a request in flight
        let cs = w.subject().socket().unwrap();
        names.push((cs, "cs"));
        let to_peer = SockAddr::new(PEER_IP, 90);
        note!("connect", w.subject().connect(cs, to_peer));
        note!("register cs", w.subject().epoll_register(cs, both));
        w.run(30);
        note!("wait writable", ready(&names, w.subject()));
        note!("poll cs", w.subject().poll(cs));
        note!("send cs", w.subject().send(cs, b"hello"));
        w.run(20);
        let (pconn, _) = w.peer().accept(pl).unwrap();
        let got = w.peer().recv(pconn, &mut buf);
        note!("peer got", got.map(|n| buf[..n].to_vec()));
        note!("shutdown", w.subject().shutdown(cs, ShutdownHow::Write));
        w.run(20);
        note!("peer sees eof", w.peer().recv(pconn, &mut buf));
        note!("half-closed cs writable", w.subject().poll(cs).writable());
        note!("unregister cs", w.subject().epoll_unregister(cs));

        // The peer closes the first connection: EOF; then close, and every
        // call on a closed or never-issued id.
        w.peer().close(pc).unwrap();
        w.run(20);
        note!("wait hup", ready(&names, w.subject()));
        note!("recv after peer close", w.subject().recv(conn, &mut buf));
        note!("close conn", w.subject().close(conn));
        note!("close cs", w.subject().close(cs));
        w.peer().close(pconn).unwrap();
        w.run(400); // past TIME-WAIT
        note!("wait after close", ready(&names, w.subject()));
        note!("send on closed", w.subject().send(conn, b"x"));
        note!("double close", w.subject().close(conn));
        note!("poll closed", w.subject().poll(conn));
        let never = SocketId(9_999);
        note!("register unknown", w.subject().epoll_register(never, both));
        note!("unregister unknown", w.subject().epoll_unregister(never));
        log
    }

    /// EOF comes after the bytes over all four socket APIs: the peer
    /// writes three receive buffers' worth and shuts its write side while
    /// the reader stalls, and the reader then gets every byte, then
    /// `Ok(0)`. Over a stack the FIN arrives while the NSM still holds
    /// bytes; the NSM, not the stack, holds EOF behind them.
    #[test]
    fn eof_follows_every_byte_over_every_socket_api() {
        let stream: Vec<u8> = (0..3 * DEFAULT_RECV_BUF).map(|i| (i % 251) as u8).collect();
        for (name, mut w) in worlds() {
            let (conn, pc) = w.session();
            let (mut sent, mut shut, mut got) = (0, false, Vec::new());
            let (mut buf, mut last) = (vec![0u8; 16 * 1024], Err(NkError::WouldBlock));
            for step in 0..2_000 {
                while sent < stream.len() {
                    match w.peer().send(pc, &stream[sent..]) {
                        Ok(n) => sent += n,
                        Err(e) => {
                            assert_eq!(e, NkError::WouldBlock, "{name}");
                            break;
                        }
                    }
                }
                if sent == stream.len() && !shut {
                    w.peer().shutdown(pc, ShutdownHow::Write).unwrap();
                    shut = true;
                }
                // The reader stalls for the first 200 steps.
                if step >= 200 {
                    loop {
                        last = w.subject().recv(conn, &mut buf);
                        match last {
                            Ok(n @ 1..) => got.extend_from_slice(&buf[..n]),
                            _ => break,
                        }
                    }
                }
                if last != Err(NkError::WouldBlock) {
                    break;
                }
                w.run(1);
            }
            assert_eq!(last, Ok(0), "{name}: no EOF after {} bytes", got.len());
            assert!(
                got == stream,
                "{name}: {} of {} bytes before EOF",
                got.len(),
                stream.len()
            );
        }
    }

    /// A response sent and closed at once reaches the peer whole, then
    /// EOF, over all four socket APIs. The stack takes the response whole,
    /// so nothing waits in ServiceLib; what matters is that the `Close`
    /// queues behind the `Send` before it, and never reaches the NSM first
    /// to close the stack socket under the bytes.
    #[test]
    fn eof_follows_every_byte_sent_before_a_close_over_every_socket_api() {
        let response: Vec<u8> = (0..4_000).map(|i| (i % 251) as u8).collect();
        for (name, mut w) in worlds() {
            let (conn, pc) = w.session();
            let sent = w.subject().send(conn, &response);
            assert_eq!(sent, Ok(response.len()), "{name}");
            w.subject().close(conn).unwrap();
            let (mut got, mut buf) = (Vec::new(), vec![0u8; 16 * 1024]);
            let mut last = Err(NkError::WouldBlock);
            for _ in 0..200 {
                w.run(1);
                last = w.peer().recv(pc, &mut buf);
                match last {
                    Ok(n @ 1..) => got.extend_from_slice(&buf[..n]),
                    Err(NkError::WouldBlock) => {}
                    _ => break,
                }
            }
            assert_eq!(last, Ok(0), "{name}: no EOF after {} bytes", got.len());
            assert!(
                got == response,
                "{name}: {} of {} bytes before EOF",
                got.len(),
                response.len()
            );
        }
    }

    /// A close behind bytes the stack has not taken yet waits for them:
    /// the writer sends three receive buffers' worth to a stalled reader
    /// over 100 steps and closes, and the reader then gets every byte the
    /// writer's `send` took, then `Ok(0)`, over all four socket APIs. Over
    /// an NSM the last of them still wait in ServiceLib at the close.
    #[test]
    fn eof_follows_every_byte_queued_before_a_close_over_every_socket_api() {
        let stream: Vec<u8> = (0..3 * DEFAULT_RECV_BUF).map(|i| (i % 251) as u8).collect();
        for (name, mut w) in worlds() {
            let (conn, pc) = w.session();
            let mut sent = 0;
            for _ in 0..100 {
                while sent < stream.len() {
                    match w.subject().send(conn, &stream[sent..]) {
                        Ok(n) => sent += n,
                        Err(e) => {
                            assert_eq!(e, NkError::WouldBlock, "{name}");
                            break;
                        }
                    }
                }
                w.run(1);
            }
            w.subject().close(conn).unwrap();
            let (mut got, mut buf) = (Vec::new(), vec![0u8; 16 * 1024]);
            let mut last = Err(NkError::WouldBlock);
            for _ in 0..2_000 {
                w.run(1);
                loop {
                    last = w.peer().recv(pc, &mut buf);
                    match last {
                        Ok(n @ 1..) => got.extend_from_slice(&buf[..n]),
                        _ => break,
                    }
                }
                if last != Err(NkError::WouldBlock) {
                    break;
                }
            }
            assert_eq!(last, Ok(0), "{name}: no EOF after {} bytes", got.len());
            assert!(
                got == stream[..sent],
                "{name}: {} of {sent} bytes before EOF",
                got.len()
            );
        }
    }

    /// The seam, as a table: the one session reads the same over all four
    /// socket APIs, call for call.
    #[test]
    fn one_session_reads_the_same_over_every_socket_api() {
        // The legitimate differences. After `shutdown(Write)` a bare stack
        // knows the socket is half-closed and stops reporting it writable;
        // GuestLib keeps no half-close state — its writability is the send
        // budget — and leaves refusing the bytes to the NSM. And the
        // shared-memory NSM pairs sockets by port alone, so the address it
        // reports for a colocated peer carries no IP.
        let differs = |line: &String| {
            line.starts_with("half-closed cs writable")
                || line.starts_with("accepted from the peer")
        };
        let mut sessions = worlds().into_iter().map(|(name, mut w)| {
            let (diff, same): (Vec<_>, Vec<_>) =
                scripted_session(&mut w).into_iter().partition(differs);
            assert_eq!(
                diff,
                [
                    format!("accepted from the peer: {}", name != "shared-memory"),
                    format!("half-closed cs writable: {}", name != "bare"),
                ]
            );
            (name, same)
        });
        let (_, reference) = sessions.next().unwrap();
        assert!(reference.contains(&"recv after peer close: Ok(0)".to_string()));
        assert!(reference.contains(&"double close: Err(BadSocket)".to_string()));
        for (name, session) in sessions {
            assert_eq!(session, reference, "{name} differs from kernel");
        }
    }
}
