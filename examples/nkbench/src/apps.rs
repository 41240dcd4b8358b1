//! The load generator: closed-loop client apps written against
//! [`SocketApi`], and the echo server the remote `TcpStack`s run.
//!
//! Every byte a client sends comes from a seeded per-connection pattern and
//! is verified byte-for-byte when the echo returns. An *op* is one chunk
//! echoed (stream connections) or one connect → request → reply → close
//! lifecycle (churn slots); its virtual-time latency runs from the app tick
//! that issued it to the tick that completed it.

use crate::stats::TickHistogram;
use netkernel::netstack::TcpStack;
use netkernel::sim::SplitMix64;
use netkernel::types::{NkError, SockAddr, SocketApi, SocketId};
use netkernel::workload::seeded_payload;
use std::collections::VecDeque;

/// Virtual time per step, everywhere in the benchmark.
pub const DT_NS: u64 = 100_000;
/// [`DT_NS`] in microseconds: one latency tick.
pub const DT_US: f64 = DT_NS as f64 / 1e3;

/// Upper bound on `send` calls one connection makes per tick, so a stack
/// that accepted bytes forever could not hang the generator.
const MAX_SENDS_PER_TICK: usize = 64;

/// A client that could issue pauses for one tick with probability
/// 1/`THINK_ONE_IN` (seeded per connection): closed-loop callers with a
/// rare think time, so the seed shapes the load and not just the payload.
const THINK_ONE_IN: u64 = 64;

fn conn_seed(seed: u64, conn: u64) -> u64 {
    seed ^ conn.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// What the client apps have completed so far.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AppCounters {
    /// Ops completed and verified.
    pub ops: u64,
    /// Ops that failed: a non-`WouldBlock` error, a reset, an unexpected
    /// close, or a payload mismatch.
    pub failed: u64,
    /// Verified payload bytes returned to the client apps.
    pub bytes: u64,
    /// Virtual-time op latency, in ticks of [`DT_NS`].
    pub latency: TickHistogram,
}

impl AppCounters {
    fn complete(&mut self, issued_ns: u64, now_ns: u64) {
        self.ops += 1;
        self.latency
            .record(now_ns.saturating_sub(issued_ns) / DT_NS);
    }
}

/// The seeded byte pattern one connection cycles through.
fn pattern(seed: u64, conn: u64, len: usize) -> Vec<u8> {
    seeded_payload(conn_seed(seed, conn), len)
}

/// Compare `got` with the cyclic `pattern` starting at stream offset `off`.
fn matches_pattern(pattern: &[u8], off: u64, got: &[u8]) -> bool {
    let mut pos = (off % pattern.len() as u64) as usize;
    let mut rest = got;
    while !rest.is_empty() {
        let take = rest.len().min(pattern.len() - pos);
        if rest[..take] != pattern[pos..pos + take] {
            return false;
        }
        rest = &rest[take..];
        pos = (pos + take) % pattern.len();
    }
    true
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ConnState {
    Connecting,
    Open,
    Failed,
}

/// A persistent connection echoing fixed-size chunks: `window` chunks may
/// be outstanding at once (`usize::MAX` = as many as `send` accepts, the
/// bulk shape; 1 = request/reply, the RPC shape).
pub struct StreamConn {
    sock: SocketId,
    state: ConnState,
    pattern: Vec<u8>,
    chunk: usize,
    window: usize,
    /// First tick (virtual ns) at which the connection may send: the
    /// seeded start stagger.
    start_ns: u64,
    think: SplitMix64,
    tx_off: u64,
    rx_off: u64,
    /// Issue time of every chunk whose first byte was sent and whose last
    /// byte has not come back yet.
    issued: VecDeque<u64>,
}

impl StreamConn {
    /// Open a connection to `server` (completion is observed by
    /// [`StreamConn::tick`]).
    pub fn connect(
        api: &mut dyn SocketApi,
        server: SockAddr,
        seed: u64,
        conn: u64,
        chunk: usize,
        window: usize,
        start_ns: u64,
    ) -> Result<Self, NkError> {
        let sock = api.socket()?;
        api.connect(sock, server)?;
        Ok(StreamConn {
            sock,
            state: ConnState::Connecting,
            // A whole number of chunks, so a chunk never wraps mid-send.
            pattern: pattern(seed, conn, chunk * (4096 / chunk).max(4)),
            chunk,
            window,
            start_ns,
            think: SplitMix64::new(!conn_seed(seed, conn)),
            tx_off: 0,
            rx_off: 0,
            issued: VecDeque::new(),
        })
    }

    /// True once the handshake completed.
    pub fn established(&self) -> bool {
        self.state == ConnState::Open
    }

    /// True while sent bytes have not all come back.
    pub fn in_flight(&self) -> bool {
        self.state == ConnState::Open && self.rx_off < self.tx_off
    }

    fn fail(&mut self, out: &mut AppCounters) {
        self.state = ConnState::Failed;
        out.failed += (self.issued.len() as u64).max(1);
        self.issued.clear();
    }

    /// One app tick: take whatever echo came back (verifying it), then keep
    /// the window full — or, when `draining`, send nothing new.
    pub fn tick(
        &mut self,
        api: &mut dyn SocketApi,
        now_ns: u64,
        draining: bool,
        buf: &mut [u8],
        out: &mut AppCounters,
    ) {
        match self.state {
            ConnState::Failed => return,
            ConnState::Connecting => {
                let ev = api.poll(self.sock);
                if ev.error() || ev.hup() {
                    self.fail(out);
                } else if ev.writable() {
                    self.state = ConnState::Open;
                }
                return;
            }
            ConnState::Open => {}
        }
        loop {
            match api.recv(self.sock, buf) {
                Ok(0) => return self.fail(out),
                Ok(n) => {
                    if !matches_pattern(&self.pattern, self.rx_off, &buf[..n]) {
                        return self.fail(out);
                    }
                    let done_before = self.rx_off / self.chunk as u64;
                    self.rx_off += n as u64;
                    out.bytes += n as u64;
                    for _ in done_before..self.rx_off / self.chunk as u64 {
                        match self.issued.pop_front() {
                            Some(issued_ns) => out.complete(issued_ns, now_ns),
                            // More came back than was sent.
                            None => return self.fail(out),
                        }
                    }
                }
                Err(NkError::WouldBlock) => break,
                Err(_) => return self.fail(out),
            }
        }
        if draining || now_ns < self.start_ns || self.think.next_below(THINK_ONE_IN) == 0 {
            return;
        }
        for _ in 0..MAX_SENDS_PER_TICK {
            let in_chunk = (self.tx_off % self.chunk as u64) as usize;
            if in_chunk == 0 && self.issued.len() >= self.window {
                break;
            }
            let pos = (self.tx_off % self.pattern.len() as u64) as usize;
            let piece = &self.pattern[pos..pos + self.chunk - in_chunk];
            match api.send(self.sock, piece) {
                Ok(0) | Err(NkError::WouldBlock) => break,
                Ok(n) => {
                    if in_chunk == 0 {
                        self.issued.push_back(now_ns);
                    }
                    self.tx_off += n as u64;
                }
                Err(_) => return self.fail(out),
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SlotState {
    Idle,
    Connecting,
    Waiting,
    Failed,
}

/// One short-connection slot: connect → one request → reply → close, then
/// straight back to connect. The op is the whole lifecycle.
pub struct ChurnSlot {
    server: SockAddr,
    pattern: Vec<u8>,
    request: usize,
    start_ns: u64,
    think: SplitMix64,
    state: SlotState,
    sock: SocketId,
    issued_ns: u64,
    /// Lifecycles started, which also picks the request's pattern offset.
    cycle: u64,
    got: usize,
}

impl ChurnSlot {
    /// A slot that opens its first connection at `start_ns`.
    pub fn new(server: SockAddr, seed: u64, slot: u64, request: usize, start_ns: u64) -> Self {
        ChurnSlot {
            server,
            pattern: pattern(seed, slot, request * 64),
            request,
            start_ns,
            think: SplitMix64::new(!conn_seed(seed, slot)),
            state: SlotState::Idle,
            sock: SocketId(0),
            issued_ns: 0,
            cycle: 0,
            got: 0,
        }
    }

    fn fail(&mut self, out: &mut AppCounters) {
        self.state = SlotState::Failed;
        out.failed += 1;
    }

    /// True while a lifecycle is under way.
    pub fn in_flight(&self) -> bool {
        matches!(self.state, SlotState::Connecting | SlotState::Waiting)
    }

    fn request_off(&self) -> u64 {
        (self.cycle - 1) * self.request as u64
    }

    /// One app tick. A completed lifecycle reopens in the same tick (closed
    /// loop, no think time) unless `draining`.
    pub fn tick(
        &mut self,
        api: &mut dyn SocketApi,
        now_ns: u64,
        draining: bool,
        buf: &mut [u8],
        out: &mut AppCounters,
    ) {
        if self.state == SlotState::Connecting {
            let ev = api.poll(self.sock);
            if ev.error() || ev.hup() {
                return self.fail(out);
            }
            if !ev.writable() {
                return;
            }
            let pos = (self.request_off() % self.pattern.len() as u64) as usize;
            match api.send(self.sock, &self.pattern[pos..pos + self.request]) {
                // A fresh connection's send buffer always holds one request.
                Ok(n) if n == self.request => {
                    self.state = SlotState::Waiting;
                    self.got = 0;
                }
                _ => return self.fail(out),
            }
        }
        if self.state == SlotState::Waiting {
            match api.recv(self.sock, &mut buf[..self.request - self.got]) {
                Ok(0) => return self.fail(out),
                Ok(n) => {
                    let off = self.request_off() + self.got as u64;
                    if !matches_pattern(&self.pattern, off, &buf[..n]) {
                        return self.fail(out);
                    }
                    self.got += n;
                    out.bytes += n as u64;
                    if self.got < self.request {
                        return;
                    }
                    if api.close(self.sock).is_err() {
                        return self.fail(out);
                    }
                    out.complete(self.issued_ns, now_ns);
                    self.state = SlotState::Idle;
                }
                Err(NkError::WouldBlock) => return,
                Err(_) => return self.fail(out),
            }
        }
        if self.state == SlotState::Idle
            && !draining
            && now_ns >= self.start_ns
            && self.think.next_below(THINK_ONE_IN) != 0
        {
            let opened = api
                .socket()
                .and_then(|s| api.connect(s, self.server).map(|()| s));
            match opened {
                Ok(sock) => {
                    self.sock = sock;
                    self.issued_ns = now_ns;
                    self.cycle += 1;
                    self.state = SlotState::Connecting;
                }
                Err(_) => self.fail(out),
            }
        }
    }
}

/// One accepted connection of the echo server: bytes read but not yet
/// accepted by `send` wait in `pending`, so the echo never drops a byte
/// under backpressure.
struct EchoConn {
    sock: SocketId,
    pending: Vec<u8>,
}

/// The remote side: accepts on one listener and echoes every byte back.
pub struct EchoServer {
    listener: SocketId,
    conns: Vec<EchoConn>,
    /// Connections that ended with an error instead of a clean close.
    pub errors: u64,
}

impl EchoServer {
    /// Bind and listen on `port` of `stack`.
    pub fn start(stack: &mut TcpStack, port: u16, backlog: u32) -> Result<Self, NkError> {
        let listener = stack.socket();
        stack.bind(listener, SockAddr::new(0, port))?;
        stack.listen(listener, backlog)?;
        Ok(EchoServer {
            listener,
            conns: Vec::new(),
            errors: 0,
        })
    }

    /// One app tick: accept, then per connection flush the backlog and echo
    /// whatever arrived. A connection the peer closed is closed in turn.
    pub fn tick(&mut self, stack: &mut TcpStack, buf: &mut [u8]) {
        while let Ok((sock, _)) = stack.accept(self.listener) {
            self.conns.push(EchoConn {
                sock,
                pending: Vec::new(),
            });
        }
        let mut errors = 0;
        self.conns.retain_mut(|conn| loop {
            if !conn.pending.is_empty() {
                match stack.send(conn.sock, &conn.pending) {
                    Ok(n) => {
                        conn.pending.drain(..n);
                    }
                    Err(NkError::WouldBlock) => {}
                    Err(_) => {
                        errors += 1;
                        let _ = stack.close(conn.sock);
                        return false;
                    }
                }
                if !conn.pending.is_empty() {
                    return true;
                }
            }
            match stack.recv(conn.sock, buf) {
                Ok(0) => {
                    let _ = stack.close(conn.sock);
                    return false;
                }
                Ok(n) => conn.pending.extend_from_slice(&buf[..n]),
                Err(NkError::WouldBlock) => return true,
                Err(_) => {
                    errors += 1;
                    let _ = stack.close(conn.sock);
                    return false;
                }
            }
        });
        self.errors += errors;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_check_follows_the_cycle() {
        let p = pattern(7, 3, 16);
        let mut stream = p.clone();
        stream.extend_from_slice(&p);
        assert!(matches_pattern(&p, 0, &stream));
        assert!(matches_pattern(&p, 5, &stream[5..29]));
        assert!(matches_pattern(&p, 16 + 5, &stream[5..9]));
        let mut bad = stream.clone();
        bad[20] ^= 1;
        assert!(!matches_pattern(&p, 0, &bad));
        assert_ne!(pattern(7, 3, 16), pattern(7, 4, 16));
        assert_ne!(pattern(7, 3, 16), pattern(8, 3, 16));
    }
}
