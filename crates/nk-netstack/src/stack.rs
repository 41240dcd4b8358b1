//! The socket layer: listeners, demultiplexing, readiness and the stack API.
//!
//! A [`TcpStack`] is what a Network Stack Module actually runs: it owns a
//! port on the virtual fabric, a socket table, and the per-connection state
//! machines. ServiceLib (NetKernel) or the in-guest baseline translate socket
//! calls into the methods of this type. The stack is driven by
//! [`TcpStack::tick`], which ingests frames from the fabric, runs the
//! connection state machines, and emits outgoing frames.
//!
//! A segment costs one hash. A socket id is looked up once per socket-API
//! call (`ids`, id → slot); inside the stack a socket is a `(SocketId,
//! slot)` handle into a dense slot vector, and the demultiplexer, the wake
//! list, the timer heap and the accept queues all carry slots. Ids are never
//! reused, so the id doubles as the slot's generation: a handle that
//! outlived its socket is ignored.
//!
//! A short connection pays once. Connections live in an arena beside the
//! slots; one that leaves the socket table — reaped, parked in TIME-WAIT, or
//! exported — is retired in place and its index goes onto a free list: its
//! congestion control (held inline, no box) is dropped at once and its
//! queues keep their capacity while the free list is no longer than the
//! live connections, and the next connection opened takes it. TIME-WAIT is
//! state of the 4-tuple, not of a socket (RFC 9293 §3.3.2): once a parked
//! connection's application has let go of it, only its `demux` entry stays,
//! holding the deadline, and the tuple expires from a FIFO of `(deadline,
//! tuple)` kept in deadline order; only connections use the lazy timer heap.
//!
//! A burst pays once. `poll_transmit` carries the full-sized segments of
//! one write as one train (a [`Segment`] of k·MSS bytes), cut from the send
//! queue's run in one slice, which crosses the fabric as one frame and
//! costs the receiver one demultiplexer lookup and one delivery. Every
//! count — `segments_in`, `segments_out`, `no_socket_drops` and the work
//! [`TcpStack::tick`] returns — is per segment, a train's k included. The
//! copies the send path still makes — a byte-slice `send` of a run's worth,
//! a piece gathered across two runs, a send queue's open tail once sent —
//! land in buffers of the stack's `Recycler`, so a warm tick allocates
//! nothing (`tests/warm_allocs.rs`).
//!
//! An in-order segment's ACK waits `conn::ACK_DELAY_NS` for a segment to
//! ride on. Every such deadline is the arrival time plus that one
//! constant, so they arrive in order: they wait in a second FIFO, not in the
//! timer heap, and a connection's `next_deadline()` never reports them.

use crate::cc::{Cc, CcAlgorithm};
use crate::conn::{ConnState, TcpConnection};
use crate::payload::Payload;
use crate::segment::Segment;
use nk_fabric::nic::symmetric_flow_hash;
use nk_fabric::port::{Frame, Port, Train};
use nk_types::api::{sockopt, EpollEvent};
use nk_types::{
    DetMap, NkError, NkResult, PollEvents, Recycler, ShutdownHow, SockAddr, SocketApi, SocketId,
};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// Configuration of one stack instance.
#[derive(Clone)]
pub struct StackConfig {
    /// Local IP address of the endpoint this stack serves.
    pub local_ip: u32,
    /// Congestion control used for new connections.
    pub cc: CcAlgorithm,
    /// Per-socket send buffer capacity in bytes.
    pub send_buf: usize,
    /// Per-socket receive buffer capacity in bytes.
    pub recv_buf: usize,
    /// First ephemeral port handed out for active opens. Real stacks
    /// randomize this per boot; a restarted NSM stack must use a different
    /// start so its fresh connections cannot collide with a peer's stale
    /// pre-crash state for the same 4-tuple.
    pub ephemeral_start: u16,
}

/// Bottom of the ephemeral port range.
pub const EPHEMERAL_LOW: u16 = 40_000;
/// Top (exclusive) of the ephemeral port range.
pub const EPHEMERAL_HIGH: u16 = 65_000;

impl StackConfig {
    /// A stack bound to `local_ip` using CUBIC and default buffer sizes.
    pub fn new(local_ip: u32) -> Self {
        StackConfig {
            local_ip,
            cc: CcAlgorithm::Cubic,
            send_buf: nk_types::constants::DEFAULT_SEND_BUF,
            recv_buf: nk_types::constants::DEFAULT_RECV_BUF,
            ephemeral_start: EPHEMERAL_LOW,
        }
    }

    /// Select a congestion-control algorithm (builder style).
    pub fn with_cc(mut self, cc: CcAlgorithm) -> Self {
        self.cc = cc;
        self
    }

    /// Start the ephemeral port scan at the canonical offset for restart
    /// `generation` (builder style).
    ///
    /// The offset is computed as `generation * 4099 mod span` in 64-bit
    /// arithmetic. Doing the multiply in `u16` first silently wraps at
    /// 65536, which aliases different generations onto the same start long
    /// before the range is exhausted. 4099 is coprime with the range size,
    /// so this walks all `span` distinct starts before any repeat — a
    /// restarted stack's fresh connections cannot reuse the previous life's
    /// port sequence for `span` generations.
    pub fn with_ephemeral_generation(mut self, generation: u32) -> Self {
        let span = u64::from(EPHEMERAL_HIGH - EPHEMERAL_LOW);
        self.ephemeral_start = EPHEMERAL_LOW + (u64::from(generation) * 4099 % span) as u16;
        self
    }
}

/// Events produced while ticking the stack, consumed by ServiceLib to build
/// completion / data NQEs without scanning every socket.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StackEvent {
    /// An active open completed (connect succeeded).
    Connected(SocketId),
    /// An active open failed: `ConnRefused` when the peer reset it,
    /// `TimedOut` when its SYN went unanswered.
    ConnectFailed(SocketId, NkError),
    /// A listener has at least one connection ready to accept.
    Acceptable(SocketId),
    /// New in-order data is available on a connection.
    Readable(SocketId),
    /// The peer's FIN arrived: it closed its write side. Received bytes
    /// may still be held; EOF comes after them, which is the consumer's to
    /// order (ServiceLib holds it until the stack holds none).
    PeerClosed(SocketId),
}

/// Aggregate statistics of a stack instance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StackStats {
    /// Segments received from the fabric.
    pub segments_in: u64,
    /// Segments emitted to the fabric.
    pub segments_out: u64,
    /// Payload bytes received in order.
    pub bytes_in: u64,
    /// Payload bytes queued for transmission by applications.
    pub bytes_out: u64,
    /// Connections accepted by listeners.
    pub accepted: u64,
    /// Connections actively opened.
    pub connected: u64,
    /// Segments dropped because no socket matched.
    pub no_socket_drops: u64,
    /// Connections handed to `poll_transmit` by [`TcpStack::tick`] — the
    /// tick's cost in sockets, whatever the machine.
    pub conns_polled: u64,
}

/// A socket named by id and by slot: what the stack's queues, its timer heap
/// and its accept queues carry, so none of them hashes the id again. Socket
/// ids are never reused, so the id is the slot's generation: a reference
/// kept past its socket's removal finds another id in the slot (or
/// [`FREE`]) and is ignored.
type Handle = (SocketId, u32);

/// The id a free slot holds: the stack numbers its sockets from 1.
const FREE: SocketId = SocketId(0);

/// One entry of the socket table.
struct Slot {
    /// The socket this slot holds, or [`FREE`].
    id: SocketId,
    entry: SocketEntry,
}

/// What a socket-table slot holds, inline: a connection is an index into
/// the connection arena.
enum SocketEntry {
    /// Created but neither listening nor connected.
    Idle {
        bound: Option<SockAddr>,
        reuseport: bool,
    },
    /// Passive listener.
    Listener(Box<ListenerSlot>),
    /// An in-progress or established connection: its index in
    /// `TcpStack::conns`.
    Conn(u32),
}

/// What the demultiplexer holds for a 4-tuple.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Tuple {
    /// The slot of its connection.
    Slot(u32),
    /// TIME-WAIT until this deadline, with no socket: the connection parked
    /// owing nothing once its application let go of it (like Linux's
    /// `inet_timewait_sock`). A segment for the tuple is dropped unanswered,
    /// a reset frees it, and so does the expiry entry of this deadline.
    TimeWait(u64),
}

/// What slot `at` holds while it still holds socket `at.0`. A reference
/// that outlived its socket — the slot freed, or taken by a socket opened
/// since — finds nothing.
fn held(slots: &mut [Slot], (id, slot): Handle) -> Option<&mut SocketEntry> {
    let s = &mut slots[slot as usize];
    if s.id != id {
        return None;
    }
    Some(&mut s.entry)
}

struct ListenerSlot {
    local: SockAddr,
    backlog: usize,
    /// Established connections awaiting `accept()`, live ones only: a
    /// connection reaped before it is accepted takes itself out.
    ready: VecDeque<Handle>,
    /// Connections still in their handshake whose `ConnSlot::parent` is
    /// this listener; with `ready`, what the backlog bounds.
    embryonic: usize,
}

/// The listener `parent` names, while it still listens.
fn listener_mut(slots: &mut [Slot], parent: Option<Handle>) -> Option<&mut ListenerSlot> {
    match held(slots, parent?)? {
        SocketEntry::Listener(l) => Some(l),
        _ => None,
    }
}

/// A connection plus what `tick` remembers about it between polls.
struct ConnSlot {
    conn: TcpConnection,
    /// On the wake list: the next `transmit` polls it.
    queued: bool,
    /// Deadline of this connection's valid entry in `timers`: the one entry
    /// a pop acts on. Never later than the connection's `next_deadline()`
    /// once it has been polled.
    armed: Option<u64>,
    /// The listener whose SYN created this connection, until `accept` hands
    /// it out: counted in that listener's `embryonic` during the handshake,
    /// then queued in its `ready`.
    parent: Option<Handle>,
}

impl ConnSlot {
    /// Queue the connection for the next `transmit`: whatever can change
    /// what it emits calls this. The `queued` bit keeps it on the list once.
    fn wake(&mut self, at: Handle, wake: &mut Vec<Handle>) {
        if !self.queued {
            self.queued = true;
            wake.push(at);
        }
    }
}

/// A TCP stack instance attached to one fabric port.
pub struct TcpStack {
    cfg: StackConfig,
    port: Port<Segment>,
    /// Socket id → slot: consulted once per socket-API call, never per
    /// segment or timer.
    ids: DetMap<SocketId, u32>,
    /// The socket table. Only ever indexed: `transmit` does not walk it, it
    /// polls `wake`, sorted — the order a walk by id would visit them in.
    slots: Vec<Slot>,
    /// Indices of the free `slots`, the next `socket` takes the last.
    free_slots: Vec<u32>,
    /// The connection arena `SocketEntry::Conn` indexes. A connection that
    /// leaves the socket table — reaped, parked, or exported — is retired
    /// in place (no congestion control, emptied queues) and its index goes
    /// to `free_conns`.
    conns: Vec<ConnSlot>,
    /// Indices of the free `conns`, the next connection opened takes the
    /// last. One at position `live` or past it keeps no queue storage, so
    /// the free list holds storage for at most as many as are live.
    free_conns: Vec<u32>,
    /// Connections in the socket table.
    live: usize,
    /// (local, remote) → the slot of its connection, or the deadline of its
    /// TIME-WAIT; looked up once per segment.
    demux: DetMap<(SockAddr, SockAddr), Tuple>,
    /// The `Tuple::TimeWait` entries in `demux`.
    time_wait: usize,
    /// Listening sockets per local port (more than one with SO_REUSEPORT).
    listeners: DetMap<u16, Vec<Handle>>,
    /// Sockets the next `transmit` polls, each once (the `queued` bit),
    /// unsorted. Stale references are skipped.
    wake: Vec<Handle>,
    /// The wake list `transmit` works through, sorted by id; trades buffers
    /// with `wake` every tick (empty between ticks).
    due: Vec<Handle>,
    /// The connections the last `transmit` left closed and fully read,
    /// ascending: what `reap_closed` removes (empty between ticks).
    dead: Vec<Handle>,
    /// Min-heap of `(deadline_ns, socket, slot)`, with lazy deletion: an
    /// entry wakes its connection only if the slot still holds that socket
    /// as a connection armed at that deadline, so removing or parking a
    /// connection deletes nothing, and neither does a deadline moving
    /// earlier. A connection's armed deadline is no later than its earliest
    /// timer and moves only when that moves *earlier* (an RTO moves later on
    /// every send), so it may fire early; the woken connection finds nothing
    /// due and re-arms. TIME-WAIT tuples never enter it. Pruned to its valid
    /// entries once it holds more than `2·live + 64`.
    timers: BinaryHeap<Reverse<(u64, SocketId, u32)>>,
    /// `(deadline_ns, tuple)` of every TIME-WAIT tuple, ascending: tuples
    /// expire from the front. An entry frees its tuple only if `demux` still
    /// holds that deadline for it; one a reset freed early stays until it
    /// surfaces and is skipped.
    expiry: VecDeque<(u64, (SockAddr, SockAddr))>,
    /// `(deadline_ns, socket, slot)` of every delayed ACK, by deadline
    /// (each is its segment's arrival plus one constant,
    /// `conn::ACK_DELAY_NS`): appended when a segment arms a connection's
    /// deadline, popped when due. A pop wakes the connection only if it still holds that deadline;
    /// one whose ACK rode out on an earlier segment is skipped.
    acks: VecDeque<(u64, SocketId, u32)>,
    /// The [`SocketApi`] epoll interest set; an entry dies with its socket.
    /// Ordered so `epoll_wait` reports deterministically.
    interest: BTreeMap<SocketId, PollEvents>,
    /// Time of the last [`TcpStack::tick`]: the clock of [`SocketApi::connect`].
    now_ns: u64,
    next_socket: u32,
    next_ephemeral: u16,
    iss: u32,
    rr_listener: usize,
    events: VecDeque<StackEvent>,
    stats: StackStats,
    /// Reusable segment buffer `transmit` lends to every connection's
    /// `poll_transmit` (empty between ticks).
    tx_scratch: Vec<Segment>,
    /// The frames the port delivered since the last tick, taken under one
    /// lock; trades places with the port's queue every tick.
    rx_burst: VecDeque<Frame<Segment>>,
    /// The frames this tick emitted, handed to the port under one lock
    /// when the tick ends (empty between ticks).
    tx_burst: Vec<Frame<Segment>>,
    /// The buffers a byte-slice [`TcpStack::send`] of a run's worth, a
    /// piece gathered across a seam and a frozen open tail are copied into,
    /// lent again once no segment or queue points into them: a warm stream
    /// of writes allocates nothing.
    recycler: Recycler,
}

impl TcpStack {
    /// Create a stack attached to the given fabric port.
    pub fn new(cfg: StackConfig, port: Port<Segment>) -> Self {
        let ephemeral_start = cfg.ephemeral_start;
        TcpStack {
            cfg,
            port,
            ids: DetMap::new(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            conns: Vec::new(),
            free_conns: Vec::new(),
            live: 0,
            demux: DetMap::new(),
            time_wait: 0,
            listeners: DetMap::new(),
            wake: Vec::new(),
            due: Vec::new(),
            dead: Vec::new(),
            timers: BinaryHeap::new(),
            expiry: VecDeque::new(),
            acks: VecDeque::new(),
            interest: BTreeMap::new(),
            now_ns: 0,
            next_socket: 1,
            next_ephemeral: ephemeral_start,
            iss: 0x1000,
            rr_listener: 0,
            events: VecDeque::new(),
            stats: StackStats::default(),
            tx_scratch: Vec::new(),
            recycler: Recycler::default(),
            rx_burst: VecDeque::new(),
            tx_burst: Vec::new(),
        }
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> StackStats {
        self.stats
    }

    /// Number of live sockets (of any kind) plus TIME-WAIT tuples.
    pub fn socket_count(&self) -> usize {
        self.ids.len() + self.time_wait
    }

    /// The fabric port this stack sends and receives on.
    pub fn port(&self) -> &Port<Segment> {
        &self.port
    }

    /// A new socket id in a new, idle slot.
    fn alloc_socket(&mut self) -> Handle {
        let id = SocketId(self.next_socket);
        self.next_socket += 1;
        let fresh = Slot {
            id,
            entry: SocketEntry::Idle {
                bound: None,
                reuseport: false,
            },
        };
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.slots[slot as usize] = fresh;
                slot
            }
            None => {
                self.slots.push(fresh);
                (self.slots.len() - 1) as u32
            }
        };
        self.ids.insert(id, slot);
        (id, slot)
    }

    /// Take socket `at` out of the table; what its slot held is dropped, and
    /// so is its epoll interest.
    fn free_socket(&mut self, (id, slot): Handle) {
        self.ids.remove(&id);
        self.interest.remove(&id);
        let s = &mut self.slots[slot as usize];
        s.id = FREE;
        s.entry = SocketEntry::Idle {
            bound: None,
            reuseport: false,
        };
        self.free_slots.push(slot);
    }

    /// Socket `sock` and its slot.
    fn handle(&self, sock: SocketId) -> NkResult<Handle> {
        let slot = self.ids.get(&sock).ok_or(NkError::BadSocket)?;
        Ok((sock, *slot))
    }

    /// What socket `sock`'s slot holds.
    fn entry(&self, sock: SocketId) -> Option<&SocketEntry> {
        Some(&self.slots[*self.ids.get(&sock)? as usize].entry)
    }

    /// The connection socket `sock` is, if it is one.
    fn conn(&self, sock: SocketId) -> Option<&TcpConnection> {
        match self.entry(sock)? {
            SocketEntry::Conn(c) => Some(&self.conns[*c as usize].conn),
            _ => None,
        }
    }

    fn next_iss(&mut self) -> u32 {
        self.iss = self.iss.wrapping_add(64_000).wrapping_add(1);
        self.iss
    }

    /// The next free ephemeral port towards `remote`, or `None` when every
    /// one is taken by a listener or by a connection to that remote (live or
    /// parked in TIME-WAIT).
    fn alloc_ephemeral(&mut self, remote: SockAddr) -> Option<u16> {
        for _ in EPHEMERAL_LOW..EPHEMERAL_HIGH {
            let p = self.next_ephemeral;
            // EPHEMERAL_HIGH is exclusive: wrap before the scan reaches it,
            // so every generation covers exactly the same range.
            self.next_ephemeral = if p + 1 >= EPHEMERAL_HIGH {
                EPHEMERAL_LOW
            } else {
                p + 1
            };
            let tuple = (SockAddr::new(self.cfg.local_ip, p), remote);
            if !self.listeners.contains_key(&p) && !self.demux.contains_key(&tuple) {
                return Some(p);
            }
        }
        None
    }

    // ---- Socket API ---------------------------------------------------------

    /// Create a new socket.
    pub fn socket(&mut self) -> SocketId {
        self.alloc_socket().0
    }

    /// Bind a socket to a local address.
    pub fn bind(&mut self, sock: SocketId, addr: SockAddr) -> NkResult<()> {
        let (_, slot) = self.handle(sock)?;
        // Reject the bind when the port is taken by a listener without
        // SO_REUSEPORT on either side.
        let reuse_requested = matches!(
            self.slots[slot as usize].entry,
            SocketEntry::Idle {
                reuseport: true,
                ..
            }
        );
        if let Some(existing) = self.listeners.get(&addr.port) {
            if !existing.is_empty() && !reuse_requested {
                return Err(NkError::AddrInUse);
            }
        }
        match &mut self.slots[slot as usize].entry {
            SocketEntry::Idle { bound, .. } => {
                *bound = Some(SockAddr::new(self.cfg.local_ip, addr.port));
                Ok(())
            }
            _ => Err(NkError::InvalidState),
        }
    }

    /// Put a bound socket into the listening state.
    pub fn listen(&mut self, sock: SocketId, backlog: u32) -> NkResult<()> {
        let at = self.handle(sock)?;
        let entry = &mut self.slots[at.1 as usize].entry;
        let SocketEntry::Idle {
            bound: Some(local), ..
        } = *entry
        else {
            return Err(NkError::InvalidState);
        };
        *entry = SocketEntry::Listener(Box::new(ListenerSlot {
            local,
            backlog: backlog.max(1) as usize,
            ready: VecDeque::new(),
            embryonic: 0,
        }));
        self.listeners
            .get_or_insert_with(local.port, Vec::new)
            .push(at);
        Ok(())
    }

    /// Accept one pending connection from a listener.
    pub fn accept(&mut self, sock: SocketId) -> NkResult<(SocketId, SockAddr)> {
        let (_, slot) = self.handle(sock)?;
        let SocketEntry::Listener(l) = &mut self.slots[slot as usize].entry else {
            return Err(NkError::InvalidState);
        };
        let (conn_id, conn_slot) = l.ready.pop_front().ok_or(NkError::WouldBlock)?;
        let s = &self.slots[conn_slot as usize];
        let SocketEntry::Conn(c) = s.entry else {
            unreachable!("{conn_id:?} in the accept queue of {sock:?} is no connection");
        };
        debug_assert_eq!(
            s.id, conn_id,
            "the accept queue of {sock:?} holds a reaped id"
        );
        let cs = &mut self.conns[c as usize];
        cs.parent = None;
        self.stats.accepted += 1;
        Ok((conn_id, cs.conn.remote()))
    }

    /// Start an active open towards `remote` using the stack's congestion
    /// control.
    pub fn connect(&mut self, sock: SocketId, remote: SockAddr, now_ns: u64) -> NkResult<()> {
        let at = self.handle(sock)?;
        let local_port = match &self.slots[at.1 as usize].entry {
            SocketEntry::Idle { bound, .. } => bound.map(|a| a.port),
            SocketEntry::Conn(_) => return Err(NkError::AlreadyConnected),
            SocketEntry::Listener(_) => return Err(NkError::InvalidState),
        };
        let local_port = match local_port {
            Some(p) => p,
            None => self.alloc_ephemeral(remote).ok_or(NkError::AddrInUse)?,
        };
        let local = SockAddr::new(self.cfg.local_ip, local_port);
        // A tuple still in the table (its last connection sits in TIME-WAIT)
        // is taken: overwriting the entry would hijack that socket's segments.
        if self.demux.contains_key(&(local, remote)) {
            return Err(NkError::AddrInUse);
        }
        let iss = self.next_iss();
        let mut conn = TcpConnection::connect(local, remote, iss, self.cfg.cc.build(), now_ns);
        conn.set_send_buf_cap(self.cfg.send_buf);
        conn.set_recv_buf_cap(self.cfg.recv_buf);
        self.insert_conn(at, conn, None);
        self.stats.connected += 1;
        Ok(())
    }

    /// Replace connection `sock`'s congestion control with `cc`. An NSM
    /// whose algorithm is `VmShared` hands each connection its VM's window
    /// this way (paper §6.2): the stack does not know which VM a connection
    /// serves.
    pub fn set_cc(&mut self, sock: SocketId, cc: Cc) -> NkResult<()> {
        let at = self.handle(sock)?;
        let SocketEntry::Conn(c) = self.slots[at.1 as usize].entry else {
            return Err(NkError::NotConnected);
        };
        let cs = &mut self.conns[c as usize];
        cs.conn.set_cc(cc);
        // Its window changed: what it may send did too.
        cs.wake(at, &mut self.wake);
        Ok(())
    }

    /// Queue data for transmission.
    pub fn send(&mut self, sock: SocketId, data: &[u8]) -> NkResult<usize> {
        self.send_with(sock, |conn, recycler| conn.write(data, recycler))
    }

    /// [`TcpStack::send`] of a run, by reference: the bytes the send buffer
    /// admits are taken off the front of `run` into the send queue, not
    /// copied, and `run` keeps the rest.
    pub fn send_payload(&mut self, sock: SocketId, run: &mut Payload) -> NkResult<usize> {
        self.send_with(sock, |conn, recycler| conn.write_payload(run, recycler))
    }

    /// The body `send` and `send_payload` share, around the write `write`.
    fn send_with(
        &mut self,
        sock: SocketId,
        write: impl FnOnce(&mut TcpConnection, &mut Recycler) -> usize,
    ) -> NkResult<usize> {
        let at = self.handle(sock)?;
        let SocketEntry::Conn(c) = self.slots[at.1 as usize].entry else {
            return Err(NkError::NotConnected);
        };
        let cs = &mut self.conns[c as usize];
        if cs.conn.is_closed() {
            return Err(NkError::Closed);
        }
        let n = write(&mut cs.conn, &mut self.recycler);
        if n == 0 {
            if !cs.conn.is_established() && cs.conn.state() != ConnState::SynSent {
                Err(NkError::NotConnected)
            } else {
                Err(NkError::WouldBlock)
            }
        } else {
            cs.wake(at, &mut self.wake);
            self.stats.bytes_out += n as u64;
            Ok(n)
        }
    }

    /// In-order bytes `recv` would return right now (0 for anything that is
    /// not a connection), so a caller can size its destination first.
    pub fn recv_available(&self, sock: SocketId) -> usize {
        self.conn(sock).map_or(0, TcpConnection::recv_available)
    }

    /// Read received data.
    pub fn recv(&mut self, sock: SocketId, buf: &mut [u8]) -> NkResult<usize> {
        self.recv_with(sock, |conn| conn.read(buf))
    }

    /// [`TcpStack::recv`] of up to `max` bytes as runs pushed onto `out`,
    /// by reference; it answers, queues the connection and owes the peer
    /// exactly as that `recv` would.
    pub fn recv_runs(
        &mut self,
        sock: SocketId,
        max: usize,
        out: &mut Vec<Payload>,
    ) -> NkResult<usize> {
        self.recv_with(sock, |conn| conn.read_runs(max, out))
    }

    /// The body `recv` and `recv_runs` share, around the read `read`.
    fn recv_with(
        &mut self,
        sock: SocketId,
        read: impl FnOnce(&mut TcpConnection) -> usize,
    ) -> NkResult<usize> {
        let at = self.handle(sock)?;
        let SocketEntry::Conn(c) = self.slots[at.1 as usize].entry else {
            return Err(NkError::NotConnected);
        };
        let cs = &mut self.conns[c as usize];
        let c = &mut cs.conn;
        let n = read(c);
        if n > 0 {
            // Queued only for what the read left to do: a window update it
            // owes, or a closed connection it drained into a reapable one. A
            // TIME-WAIT one it let park stays held, so its poll would change
            // nothing: only `close` makes it a tuple.
            if c.needs_poll() || c.is_closed() && c.recv_available() == 0 {
                cs.wake(at, &mut self.wake);
            }
            self.stats.bytes_in += n as u64;
            Ok(n)
        } else if c.peer_closed() || c.is_closed() {
            Ok(0)
        } else {
            Err(NkError::WouldBlock)
        }
    }

    /// Set a socket option.
    pub fn set_sockopt(&mut self, sock: SocketId, opt: u32, value: u32) -> NkResult<()> {
        let at = self.handle(sock)?;
        match (&mut self.slots[at.1 as usize].entry, opt) {
            (SocketEntry::Idle { reuseport, .. }, sockopt::REUSEPORT) => {
                *reuseport = value != 0;
                Ok(())
            }
            (SocketEntry::Conn(c), sockopt::SNDBUF | sockopt::RCVBUF) => {
                let cs = &mut self.conns[*c as usize];
                if opt == sockopt::SNDBUF {
                    cs.conn.set_send_buf_cap(value as usize);
                } else {
                    cs.conn.set_recv_buf_cap(value as usize);
                }
                cs.wake(at, &mut self.wake);
                Ok(())
            }
            (_, sockopt::NODELAY) => Ok(()),
            (_, sockopt::CONGESTION) => Ok(()),
            (_, sockopt::SNDBUF) | (_, sockopt::RCVBUF) | (_, sockopt::REUSEPORT) => Ok(()),
            _ => Err(NkError::Unsupported),
        }
    }

    /// Shut down one or both directions of a connection.
    pub fn shutdown(&mut self, sock: SocketId, how: ShutdownHow) -> NkResult<()> {
        let at = self.handle(sock)?;
        let SocketEntry::Conn(c) = self.slots[at.1 as usize].entry else {
            return Err(NkError::NotConnected);
        };
        if how != ShutdownHow::Read {
            let cs = &mut self.conns[c as usize];
            cs.conn.close();
            cs.wake(at, &mut self.wake);
        }
        Ok(())
    }

    /// Close a socket. A connection closes gracefully, or resets when it
    /// holds unread bytes or receives more ([`TcpConnection::release`]),
    /// and leaves the socket table once it is closed and read, or parked in
    /// TIME-WAIT; listeners stop accepting.
    pub fn close(&mut self, sock: SocketId) -> NkResult<()> {
        let at = self.handle(sock)?;
        match &mut self.slots[at.1 as usize].entry {
            SocketEntry::Conn(c) => {
                let cs = &mut self.conns[*c as usize];
                cs.conn.release();
                cs.wake(at, &mut self.wake);
            }
            SocketEntry::Listener(l) => {
                let port = l.local.port;
                if let Some(v) = self.listeners.get_mut(&port) {
                    v.retain(|&(s, _)| s != sock);
                    if v.is_empty() {
                        self.listeners.remove(&port);
                    }
                }
                self.free_socket(at);
            }
            SocketEntry::Idle { .. } => self.free_socket(at),
        }
        Ok(())
    }

    /// Current readiness of a socket.
    pub fn poll(&self, sock: SocketId) -> PollEvents {
        let mut ev = PollEvents::NONE;
        match self.entry(sock) {
            Some(SocketEntry::Conn(c)) => {
                let c = &self.conns[*c as usize].conn;
                if c.readable() {
                    ev |= PollEvents::READABLE;
                }
                if c.writable() {
                    ev |= PollEvents::WRITABLE;
                }
                if c.peer_closed() || c.is_closed() {
                    ev |= PollEvents::HUP;
                }
            }
            Some(SocketEntry::Listener(l)) => {
                if !l.ready.is_empty() {
                    ev |= PollEvents::READABLE;
                }
            }
            Some(SocketEntry::Idle { .. }) => {}
            None => ev |= PollEvents::ERROR,
        }
        ev
    }

    /// Take the oldest stack event generated since the last drain.
    pub fn pop_event(&mut self) -> Option<StackEvent> {
        self.events.pop_front()
    }

    /// Drop the stack events generated since the last drain. For an owner
    /// that drives its sockets by polling and never reads events: left
    /// alone, the queue gains one entry per readiness edge for as long as
    /// the stack lives.
    pub fn discard_events(&mut self) {
        self.events.clear();
    }

    // ---- Warm-migration export / install ------------------------------------

    /// True when `sock` is a connection with nothing in flight (every byte
    /// it transmitted has been acknowledged). Non-connection sockets and
    /// unknown ids read as quiet — the freeze window only waits on live
    /// connections.
    pub fn conn_quiet(&self, sock: SocketId) -> bool {
        self.conn(sock).is_none_or(|c| c.in_flight() == 0)
    }

    /// True while any connection in this stack has `ip` as its local
    /// address. Hosts use this to decide when an adopted (warm-migrated)
    /// address alias is no longer serving anyone and can be dropped.
    pub fn serves_ip(&self, ip: u32) -> bool {
        self.demux.any(|(local, _), _| local.ip == ip)
    }

    /// Connection `sock`'s state as plain data, for a warm migration; the
    /// stack is left as it was. Only a post-handshake connection that is
    /// not dying snapshots ([`TcpConnection::snapshot`]): anything else is
    /// `InvalidState`, an unknown id `BadSocket`.
    pub fn snapshot_conn(&self, sock: SocketId) -> NkResult<nk_types::TcpConnSnapshot> {
        self.handle(sock)?;
        self.conn(sock).ok_or(NkError::InvalidState)?.snapshot()
    }

    /// Take connection `sock` out of this stack without a word to its peer,
    /// once its [`TcpStack::snapshot_conn`] lives on elsewhere. The socket
    /// and its demultiplexer entry go, and its timer entry is left to
    /// lapse; stray segments that still arrive for the tuple are dropped
    /// (counted as `no_socket_drops`), never answered with a reset. An
    /// unknown id is left alone.
    pub fn cut_conn(&mut self, sock: SocketId) {
        if let Ok(at) = self.handle(sock) {
            self.remove_conn(at);
        }
    }

    /// Install a warm-migrated connection into this stack under a fresh
    /// socket id. The connection keeps its original 4-tuple — the local
    /// address is the *source* NSM's, which the fabric reroutes here — so
    /// the demultiplexer matches the peer's frames even though the address
    /// differs from this stack's own. Congestion control starts fresh from
    /// this stack's configured algorithm (a `VmShared` NSM then hands the
    /// connection its VM's window through [`TcpStack::set_cc`]).
    pub fn install_conn(&mut self, snap: &nk_types::TcpConnSnapshot) -> NkResult<SocketId> {
        if self.demux.contains_key(&(snap.local, snap.remote)) {
            return Err(NkError::AlreadyRegistered);
        }
        let conn = TcpConnection::restore(snap, self.cfg.cc.build());
        let at = self.alloc_socket();
        self.insert_conn(at, conn, None);
        Ok(at.0)
    }

    // ---- Datapath -----------------------------------------------------------

    /// Process incoming frames, run timers, and transmit outgoing segments.
    /// Returns the number of segments processed (in + out).
    pub fn tick(&mut self, now_ns: u64) -> usize {
        self.now_ns = now_ns;
        let mut work = 0;
        work += self.process_incoming(now_ns);
        work += self.transmit(now_ns);
        if !self.tx_burst.is_empty() {
            self.port.send_burst(&mut self.tx_burst);
        }
        self.reap_closed();
        self.prune_timers();
        work
    }

    fn process_incoming(&mut self, now_ns: u64) -> usize {
        let mut burst = std::mem::take(&mut self.rx_burst);
        self.port.recv_burst(&mut burst);
        let mut count = 0;
        for frame in &burst {
            let seg = &frame.payload;
            let frames = seg.frames();
            count += frames;
            let local = seg.dst;
            let remote = seg.src;
            match self.demux.get(&(local, remote)) {
                // Established / embryonic connection?
                Some(&Tuple::Slot(slot)) => {
                    self.deliver(slot, seg, now_ns);
                    continue;
                }
                // TIME-WAIT answers nothing and raises nothing; a reset
                // ends it.
                Some(Tuple::TimeWait(_)) => {
                    if seg.flags.rst {
                        self.demux.remove(&(local, remote));
                        self.time_wait -= 1;
                    }
                    continue;
                }
                None => {}
            }
            // New connection request towards a listener?
            if seg.flags.syn && !seg.flags.ack {
                if let Some(listener) = self.pick_listener(local.port) {
                    self.handle_syn(listener, seg, now_ns);
                    continue;
                }
            }
            // No socket: drop (and count). A RST in response to a SYN gives
            // the remote a crisp "connection refused".
            self.stats.no_socket_drops += frames as u64;
            if seg.flags.syn && !seg.flags.ack {
                let mut rst = Segment::control(local, remote, crate::segment::SegmentFlags::rst());
                rst.seq = 0;
                rst.ack = seg.seq.wrapping_add(1);
                self.emit(rst);
            }
        }
        self.stats.segments_in += count as u64;
        burst.clear();
        self.rx_burst = burst;
        count
    }

    fn pick_listener(&mut self, port: u16) -> Option<Handle> {
        let v = self.listeners.get(&port)?;
        if v.is_empty() {
            return None;
        }
        // Round-robin across SO_REUSEPORT listeners, like the kernel's
        // reuseport group balancing.
        let idx = self.rr_listener % v.len();
        self.rr_listener = self.rr_listener.wrapping_add(1);
        Some(v[idx])
    }

    fn handle_syn(&mut self, listener: Handle, syn: &Segment, now_ns: u64) {
        // Enforce the backlog across embryonic + ready connections.
        let Some(l) = listener_mut(&mut self.slots, Some(listener)) else {
            return;
        };
        if l.ready.len() + l.embryonic >= l.backlog {
            return; // silently drop, the client will retransmit its SYN
        }
        l.embryonic += 1;
        let local_addr = SockAddr::new(self.cfg.local_ip, l.local.port);
        let remote = syn.src;
        let iss = self.next_iss();
        let mut conn =
            TcpConnection::accept(local_addr, remote, iss, syn, self.cfg.cc.build(), now_ns);
        conn.set_send_buf_cap(self.cfg.send_buf);
        conn.set_recv_buf_cap(self.cfg.recv_buf);
        let at = self.alloc_socket();
        self.insert_conn(at, conn, Some(listener));
    }

    /// Hand `seg` to the connection in `slot` and turn what it changed into
    /// stack events.
    fn deliver(&mut self, slot: u32, seg: &Segment, now_ns: u64) {
        let s = &self.slots[slot as usize];
        let at = (s.id, slot);
        let SocketEntry::Conn(c) = s.entry else {
            return;
        };
        let cs = &mut self.conns[c as usize];
        cs.wake(at, &mut self.wake);
        let c = &mut cs.conn;
        let edges =
            |c: &TcpConnection| (c.is_established(), c.recv_available() > 0, c.fin_received());
        let (was_established, was_readable, was_fin) = edges(c);
        let opening = matches!(c.state(), ConnState::SynSent | ConnState::SynReceived);
        let ack_owed = c.ack_deadline().is_some();
        c.on_segment(seg, now_ns);
        let (established, readable, fin) = edges(c);
        let sock = at.0;
        if let Some(deadline) = c.ack_deadline().filter(|_| !ack_owed) {
            debug_assert!(self.acks.back().is_none_or(|&(last, ..)| last <= deadline));
            self.acks.push_back((deadline, sock, slot));
        }
        // The handshake ended: completed, or the connection died in it
        // (refused by RST or aborted) — a failed open. A connection that was
        // open cannot fail to open: the final ACK of a passive close, or a
        // reset in CLOSING or TIME-WAIT, raises nothing here. Either way an
        // embryonic connection leaves its listener's count; one that
        // completed enters the accept queue, and keeps its parent until it
        // is accepted, unless the listener has closed.
        let opened = established && !was_established;
        if opened || (opening && c.is_closed()) {
            let parent = cs.parent.take();
            let mut listener = listener_mut(&mut self.slots, parent);
            if let Some(l) = listener.as_deref_mut() {
                l.embryonic -= 1;
            }
            match (opened, parent, listener) {
                (true, Some((id, _)), Some(l)) => {
                    l.ready.push_back(at);
                    cs.parent = parent;
                    self.events.push_back(StackEvent::Acceptable(id));
                }
                (true, Some(_), None) => {}
                (true, None, _) => self.events.push_back(StackEvent::Connected(sock)),
                (false, ..) => {
                    let refused = StackEvent::ConnectFailed(sock, NkError::ConnRefused);
                    self.events.push_back(refused);
                }
            }
        }
        if readable && !was_readable {
            self.events.push_back(StackEvent::Readable(sock));
        }
        if fin && !was_fin {
            self.events.push_back(StackEvent::PeerClosed(sock));
        }
    }

    /// Turn socket `at` into a new connection, entered into the
    /// demultiplexer and queued for the next `transmit`: it owes a SYN, a
    /// SYN-ACK or a window ACK. It takes a free arena slot when there is
    /// one, and adopts its emptied queues.
    fn insert_conn(&mut self, at: Handle, conn: TcpConnection, parent: Option<Handle>) {
        self.demux
            .insert((conn.local(), conn.remote()), Tuple::Slot(at.1));
        let mut fresh = ConnSlot {
            conn,
            queued: true,
            armed: None,
            parent,
        };
        let c = match self.free_conns.pop() {
            Some(c) => {
                let spare = &mut self.conns[c as usize];
                fresh.conn.adopt_queues(&mut spare.conn);
                *spare = fresh;
                c
            }
            None => {
                self.conns.push(fresh);
                (self.conns.len() - 1) as u32
            }
        };
        self.live += 1;
        self.slots[at.1 as usize].entry = SocketEntry::Conn(c);
        self.wake.push(at);
    }

    /// Take back arena slot `c`, whose connection left the socket table. Its
    /// connection is retired at once — the congestion control goes, so a
    /// VM-shared window counts live flows only — and its queue storage is
    /// kept for the next connection while the free list is no longer than
    /// the live connections, so queue memory stays within twice its peak.
    fn give_back(&mut self, c: u32) {
        self.live -= 1;
        self.conns[c as usize].conn.retire();
        // Positions `live` and past keep nothing: the one `live` just
        // reached, and the one pushed now if it lands there.
        if let Some(&over) = self.free_conns.get(self.live) {
            self.conns[over as usize].conn.drop_queues();
        }
        if self.free_conns.len() >= self.live {
            self.conns[c as usize].conn.drop_queues();
        }
        self.free_conns.push(c);
    }

    /// Drop connection `at` and what points at it. The demultiplexer entry
    /// goes only if it is this socket's.
    fn remove_conn(&mut self, at: Handle) {
        let Some(&mut SocketEntry::Conn(c)) = held(&mut self.slots, at) else {
            return;
        };
        let cs = &self.conns[c as usize];
        let (key, parent) = ((cs.conn.local(), cs.conn.remote()), cs.parent);
        self.give_back(c);
        if self.demux.get(&key) == Some(&Tuple::Slot(at.1)) {
            self.demux.remove(&key);
        }
        // Still the child of a listener: counted in its handshakes, or
        // waiting in its accept queue, which must not hand out a reaped id.
        if let Some(l) = listener_mut(&mut self.slots, parent) {
            match l.ready.iter().position(|&r| r == at) {
                Some(queued) => _ = l.ready.remove(queued),
                None => l.embryonic -= 1,
            }
        }
        self.free_socket(at);
    }

    /// Poll the connections an event queued since the last tick, those still
    /// holding unsent work and those with a timer due. Polling a superset of
    /// the sockets that need it, in ascending `SocketId` order, equals
    /// walking every socket, because `poll_transmit` on a socket with
    /// nothing to do emits nothing and changes nothing.
    fn transmit(&mut self, now_ns: u64) -> usize {
        while let Some(&Reverse((deadline, id, slot))) = self.timers.peek() {
            if deadline > now_ns {
                break;
            }
            self.timers.pop();
            if let Some(SocketEntry::Conn(c)) = held(&mut self.slots, (id, slot)) {
                let cs = &mut self.conns[*c as usize];
                if cs.armed == Some(deadline) {
                    cs.armed = None;
                    cs.wake((id, slot), &mut self.wake);
                }
            }
        }
        while let Some(&(deadline, tuple)) = self.expiry.front() {
            if deadline > now_ns {
                break;
            }
            self.expiry.pop_front();
            // Only if the tuple still waits on this entry: not reset since,
            // nor reset and parked again under a later deadline.
            if self.demux.get(&tuple) == Some(&Tuple::TimeWait(deadline)) {
                self.demux.remove(&tuple);
                self.time_wait -= 1;
            }
        }
        while let Some(&(deadline, id, slot)) = self.acks.front() {
            if deadline > now_ns {
                break;
            }
            self.acks.pop_front();
            if let Some(SocketEntry::Conn(c)) = held(&mut self.slots, (id, slot)) {
                let cs = &mut self.conns[*c as usize];
                if cs.conn.ack_deadline() == Some(deadline) {
                    cs.wake((id, slot), &mut self.wake);
                }
            }
        }
        let mut due = std::mem::replace(&mut self.wake, std::mem::take(&mut self.due));
        due.sort_unstable();
        #[cfg(debug_assertions)]
        self.audit_skipped(&due, now_ns);

        let mut count = 0;
        let mut segs = std::mem::take(&mut self.tx_scratch);
        for &at in &due {
            let Some(&mut SocketEntry::Conn(c)) = held(&mut self.slots, at) else {
                continue; // removed since it was queued
            };
            let cs = &mut self.conns[c as usize];
            let connecting = cs.conn.state() == ConnState::SynSent;
            cs.conn.poll_transmit(now_ns, &mut segs, &mut self.recycler);
            self.stats.conns_polled += 1;
            // Only a timer closes an active open while it is polled: its
            // SYN went unanswered past the handshake bound.
            if connecting && cs.conn.is_closed() {
                self.events
                    .push_back(StackEvent::ConnectFailed(at.0, NkError::TimedOut));
            }
            cs.queued = cs.conn.needs_poll();
            if cs.queued {
                self.wake.push(at);
            }
            // A closed connection stays while the application has unread
            // bytes; only connections nobody is waiting on are reaped.
            if cs.conn.is_closed() && cs.conn.recv_available() == 0 {
                self.dead.push(at);
            }
            let let_go = cs.parent.is_none() && cs.conn.released();
            match cs.conn.parked_until().filter(|_| let_go) {
                // Parked in TIME-WAIT owing nothing, and let go by its
                // application: the socket leaves the table, and only its
                // tuple stays, in `demux` and the expiry FIFO. The insert is
                // an append unless it was let go of after it parked.
                Some(deadline) => {
                    debug_assert!(!cs.queued);
                    let tuple = (cs.conn.local(), cs.conn.remote());
                    self.give_back(c);
                    self.free_socket(at);
                    self.demux.insert(tuple, Tuple::TimeWait(deadline));
                    self.time_wait += 1;
                    let key = (deadline, tuple);
                    if self.expiry.back().is_none_or(|&last| last < key) {
                        self.expiry.push_back(key);
                    } else {
                        let before = self.expiry.partition_point(|&e| e < key);
                        self.expiry.insert(before, key);
                    }
                }
                None => {
                    if let Some(deadline) = cs.conn.next_deadline() {
                        if cs.armed.is_none_or(|armed| deadline < armed) {
                            cs.armed = Some(deadline);
                            self.timers.push(Reverse((deadline, at.0, at.1)));
                        }
                    }
                }
            }
            for seg in segs.drain(..) {
                count += self.emit(seg);
            }
        }
        self.tx_scratch = segs;
        due.clear();
        self.due = due;
        count
    }

    /// Keep the timer heap's lapsed entries bounded: once it holds more
    /// than `2·live + 64`, keep only the entries a pop would act on, each
    /// once — a deadline armed again at a value it had before leaves a
    /// twin (a lossy wire makes them) — which is at most one per live
    /// connection. Each prune drops at least half of what it visits, so the
    /// heap costs amortised O(1) per entry pushed.
    fn prune_timers(&mut self) {
        if self.timers.len() <= 2 * self.live + 64 {
            return;
        }
        let (slots, conns) = (&mut self.slots, &self.conns);
        let mut entries = std::mem::take(&mut self.timers).into_vec();
        entries.retain(|&Reverse((deadline, id, slot))| {
            matches!(held(slots, (id, slot)),
                Some(SocketEntry::Conn(c)) if conns[*c as usize].armed == Some(deadline))
        });
        entries.sort_unstable();
        entries.dedup();
        self.timers = entries.into();
    }

    /// Debug builds check the superset argument on every tick: each
    /// connection `transmit` is about to skip is polled anyway and must
    /// produce nothing and change nothing the stack acts on. A skipped
    /// connection's delayed ACK must not be due, and must wait in the ACK
    /// FIFO (sorted by deadline only: a search finds the run of entries due
    /// at that time). It walks the slots in place, so a debug build's warm
    /// tick allocates no more than a release build's.
    #[cfg(debug_assertions)]
    fn audit_skipped(&mut self, due: &[Handle], now_ns: u64) {
        let mut live = 0;
        let mut out = Vec::new();
        for slot in 0..self.slots.len() as u32 {
            let id = self.slots[slot as usize].id;
            if id == FREE {
                continue;
            }
            live += 1;
            let at = (id, slot);
            if due.binary_search(&at).is_ok() {
                continue;
            }
            let SocketEntry::Conn(c) = self.slots[slot as usize].entry else {
                continue;
            };
            let c = &mut self.conns[c as usize].conn;
            if let Some(ack) = c.ack_deadline() {
                let from = self.acks.partition_point(|&(at, ..)| at < ack);
                let mut same_deadline = self.acks.range(from..).take_while(|&&(at, ..)| at == ack);
                assert!(
                    now_ns < ack && same_deadline.any(|&e| e == (ack, id, slot)),
                    "{id:?} was skipped at {now_ns} ns owing an ACK at {ack} ns"
                );
            }
            let (closed, deadline) = (c.is_closed(), c.next_deadline());
            c.poll_transmit(now_ns, &mut out, &mut self.recycler);
            assert!(
                out.is_empty()
                    && c.is_closed() == closed
                    && !(closed && c.recv_available() == 0)
                    && c.next_deadline() == deadline
                    && !c.needs_poll(),
                "{id:?} was skipped at {now_ns} ns with work to do: {} segment(s), {:?}",
                out.len(),
                c.state()
            );
        }
        assert_eq!(live, self.ids.len(), "a slot for every id");
    }

    /// Queue `seg` for the fabric; returns the segments it stands for.
    fn emit(&mut self, seg: Segment) -> usize {
        let frames = seg.frames();
        self.stats.segments_out += frames as u64;
        let frame = Frame {
            src: seg.src.ip,
            dst: seg.dst.ip,
            flow_hash: symmetric_flow_hash(seg.src.ip, seg.src.port, seg.dst.ip, seg.dst.port),
            wire_bytes: seg.wire_bytes(),
            payload: seg,
        };
        self.tx_burst.push(frame);
        frames
    }

    /// Remove the connections `transmit` found closed and fully read. Only
    /// a polled connection can have become one: what closes or drains a
    /// connection — a segment, a timer, `close`, a `recv` — also queues it.
    fn reap_closed(&mut self) {
        let mut dead = std::mem::take(&mut self.dead);
        for at in dead.drain(..) {
            self.remove_conn(at);
        }
        self.dead = dead;
    }
}

/// The calls an NSM's ServiceLib makes on the stack it serves guests
/// through: a [`TcpStack`], or the shared-memory NSM's
/// [`LocalStack`](crate::LocalStack). Each means what `TcpStack`'s inherent
/// method of the same name means. ServiceLib is generic over the trait, so
/// every NSM runs one request handler, monomorphised per stack.
pub trait NsmStack {
    fn socket(&mut self) -> SocketId;
    fn bind(&mut self, sock: SocketId, addr: SockAddr) -> NkResult<()>;
    fn listen(&mut self, sock: SocketId, backlog: u32) -> NkResult<()>;
    fn connect(&mut self, sock: SocketId, remote: SockAddr, now_ns: u64) -> NkResult<()>;
    fn set_cc(&mut self, sock: SocketId, cc: Cc) -> NkResult<()>;
    fn accept(&mut self, sock: SocketId) -> NkResult<(SocketId, SockAddr)>;
    fn send_payload(&mut self, sock: SocketId, run: &mut Payload) -> NkResult<usize>;
    fn recv_available(&self, sock: SocketId) -> usize;
    fn recv_runs(&mut self, sock: SocketId, max: usize, out: &mut Vec<Payload>) -> NkResult<usize>;
    fn shutdown(&mut self, sock: SocketId, how: ShutdownHow) -> NkResult<()>;
    fn close(&mut self, sock: SocketId) -> NkResult<()>;
    fn set_sockopt(&mut self, sock: SocketId, opt: u32, value: u32) -> NkResult<()>;
    fn pop_event(&mut self) -> Option<StackEvent>;
    fn tick(&mut self, now_ns: u64) -> usize;
}

/// `fn name(&mut self, args) -> ret` as a call of `TcpStack`'s inherent
/// method of that name, inlined into ServiceLib's monomorphised caller.
macro_rules! inherent {
    ($(fn $name:ident($($arg:ident: $ty:ty),*) -> $ret:ty;)*) => {
        $(#[inline]
        fn $name(&mut self, $($arg: $ty),*) -> $ret {
            TcpStack::$name(self, $($arg),*)
        })*
    };
}

impl NsmStack for TcpStack {
    inherent! {
        fn socket() -> SocketId;
        fn bind(sock: SocketId, addr: SockAddr) -> NkResult<()>;
        fn listen(sock: SocketId, backlog: u32) -> NkResult<()>;
        fn connect(sock: SocketId, remote: SockAddr, now_ns: u64) -> NkResult<()>;
        fn set_cc(sock: SocketId, cc: Cc) -> NkResult<()>;
        fn accept(sock: SocketId) -> NkResult<(SocketId, SockAddr)>;
        fn send_payload(sock: SocketId, run: &mut Payload) -> NkResult<usize>;
        fn recv_runs(sock: SocketId, max: usize, out: &mut Vec<Payload>) -> NkResult<usize>;
        fn shutdown(sock: SocketId, how: ShutdownHow) -> NkResult<()>;
        fn close(sock: SocketId) -> NkResult<()>;
        fn set_sockopt(sock: SocketId, opt: u32, value: u32) -> NkResult<()>;
        fn pop_event() -> Option<StackEvent>;
        fn tick(now_ns: u64) -> usize;
    }

    #[inline]
    fn recv_available(&self, sock: SocketId) -> usize {
        TcpStack::recv_available(self, sock)
    }
}

/// The baseline architecture's socket surface (paper §7.1): applications
/// written against [`SocketApi`] run on a bare stack exactly as they do on
/// GuestLib. Every call delegates to the inherent method of the same name;
/// `connect` and `drive` use the time of the last [`TcpStack::tick`].
impl SocketApi for TcpStack {
    fn socket(&mut self) -> NkResult<SocketId> {
        Ok(TcpStack::socket(self))
    }

    fn bind(&mut self, sock: SocketId, addr: SockAddr) -> NkResult<()> {
        TcpStack::bind(self, sock, addr)
    }

    fn listen(&mut self, sock: SocketId, backlog: u32) -> NkResult<()> {
        TcpStack::listen(self, sock, backlog)
    }

    fn accept(&mut self, sock: SocketId) -> NkResult<(SocketId, SockAddr)> {
        TcpStack::accept(self, sock)
    }

    fn connect(&mut self, sock: SocketId, addr: SockAddr) -> NkResult<()> {
        TcpStack::connect(self, sock, addr, self.now_ns)
    }

    fn send(&mut self, sock: SocketId, data: &[u8]) -> NkResult<usize> {
        TcpStack::send(self, sock, data)
    }

    fn recv(&mut self, sock: SocketId, buf: &mut [u8]) -> NkResult<usize> {
        TcpStack::recv(self, sock, buf)
    }

    fn set_sockopt(&mut self, sock: SocketId, opt: u32, value: u32) -> NkResult<()> {
        TcpStack::set_sockopt(self, sock, opt, value)
    }

    fn shutdown(&mut self, sock: SocketId, how: ShutdownHow) -> NkResult<()> {
        TcpStack::shutdown(self, sock, how)
    }

    fn close(&mut self, sock: SocketId) -> NkResult<()> {
        self.interest.remove(&sock);
        TcpStack::close(self, sock)
    }

    fn epoll_register(&mut self, sock: SocketId, interest: PollEvents) -> NkResult<()> {
        self.handle(sock)?;
        self.interest.insert(sock, interest);
        Ok(())
    }

    fn epoll_unregister(&mut self, sock: SocketId) -> NkResult<()> {
        self.handle(sock)?;
        self.interest.remove(&sock);
        Ok(())
    }

    fn epoll_wait(&mut self, max_events: usize) -> Vec<EpollEvent> {
        let mut out = Vec::new();
        for (&socket, interest) in &self.interest {
            if out.len() >= max_events {
                break;
            }
            let ready = TcpStack::poll(self, socket).0;
            let events = PollEvents(ready & (interest.0 | PollEvents::HUP.0 | PollEvents::ERROR.0));
            if !events.is_empty() {
                out.push(EpollEvent { socket, events });
            }
        }
        out
    }

    fn poll(&mut self, sock: SocketId) -> PollEvents {
        TcpStack::poll(self, sock)
    }

    fn drive(&mut self) -> usize {
        self.tick(self.now_ns)
    }
}

impl nk_sim::Pollable for TcpStack {
    /// Protocol work only. The inherent `TcpStack::poll(sock)` readiness
    /// query is unrelated; this is the scheduler-facing entry point.
    fn poll(&mut self, now_ns: u64) -> usize {
        self.tick(now_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::SharedVmWindow;
    use nk_fabric::switch::VirtualSwitch;

    const SERVER_IP: u32 = 0x0A00_0001;
    const CLIENT_IP: u32 = 0x0A00_0002;

    impl TcpStack {
        /// A warm export of one connection: its snapshot, then the cut.
        fn export_conn(&mut self, sock: SocketId) -> NkResult<nk_types::TcpConnSnapshot> {
            let snap = self.snapshot_conn(sock)?;
            self.cut_conn(sock);
            Ok(snap)
        }
    }

    /// The per-generation ephemeral start stays in range for arbitrarily
    /// large restart generations and never aliases two generations within a
    /// full sweep of the range — the u16 wraparound regression guard.
    #[test]
    fn ephemeral_generation_starts_are_in_range_and_collision_free() {
        let span = (EPHEMERAL_HIGH - EPHEMERAL_LOW) as usize;
        let mut seen = std::collections::BTreeSet::new();
        for generation in 0..span as u32 {
            let start = StackConfig::new(1)
                .with_ephemeral_generation(generation)
                .ephemeral_start;
            assert!((EPHEMERAL_LOW..EPHEMERAL_HIGH).contains(&start));
            assert!(
                seen.insert(start),
                "generation {generation} reuses start {start}"
            );
        }
        // Extreme generations stay in range (no panic, no out-of-range port).
        for generation in [span as u32, u32::MAX / 2, u32::MAX] {
            let start = StackConfig::new(1)
                .with_ephemeral_generation(generation)
                .ephemeral_start;
            assert!((EPHEMERAL_LOW..EPHEMERAL_HIGH).contains(&start));
        }
    }

    struct World {
        switch: VirtualSwitch<Segment>,
        server: TcpStack,
        client: TcpStack,
        now: u64,
    }

    impl World {
        fn new() -> Self {
            let mut switch = VirtualSwitch::new();
            let sp = switch.attach(SERVER_IP);
            let cp = switch.attach(CLIENT_IP);
            World {
                switch,
                server: TcpStack::new(StackConfig::new(SERVER_IP), sp),
                client: TcpStack::new(StackConfig::new(CLIENT_IP), cp),
                now: 0,
            }
        }

        fn run(&mut self, iterations: usize) {
            for _ in 0..iterations {
                self.now += 100_000; // 100 µs per round
                self.client.tick(self.now);
                self.server.tick(self.now);
                self.switch.step(self.now);
            }
        }
    }

    fn listening_server(w: &mut World, port: u16) -> SocketId {
        let ls = w.server.socket();
        w.server.bind(ls, SockAddr::new(0, port)).unwrap();
        w.server.listen(ls, 128).unwrap();
        ls
    }

    fn drain_events(stack: &mut TcpStack) -> Vec<StackEvent> {
        std::iter::from_fn(|| stack.pop_event()).collect()
    }

    /// A client connected to a listener on port 80, and the accepted end.
    fn established(w: &mut World) -> (SocketId, SocketId) {
        let ls = listening_server(w, 80);
        let cs = w.client.socket();
        let to = SockAddr::new(SERVER_IP, 80);
        w.client.connect(cs, to, w.now).unwrap();
        w.run(10);
        let (conn, _) = w.server.accept(ls).unwrap();
        (cs, conn)
    }

    /// A close resets the connection when the application leaves bytes
    /// unread, or when payload reaches it afterwards (RFC 1122
    /// §4.2.2.13); otherwise it sends a FIN. A `shutdown(Write)` keeps
    /// reading. The peer's end of a reset connection takes no more writes.
    #[test]
    fn a_close_with_unread_or_later_payload_resets_the_connection() {
        let mut w = World::new();
        let ls = listening_server(&mut w, 80);
        let to = SockAddr::new(SERVER_IP, 80);
        let socks: Vec<SocketId> = (0..3).map(|_| w.client.socket()).collect();
        for &cs in &socks {
            w.client.connect(cs, to, w.now).unwrap();
        }
        w.run(10);
        // Ephemeral ports rise with the client's socket ids.
        let mut accepted: Vec<_> = std::iter::from_fn(|| w.server.accept(ls).ok()).collect();
        accepted.sort_unstable_by_key(|&(_, peer)| peer);
        let conns: Vec<SocketId> = accepted.into_iter().map(|(c, _)| c).collect();
        let [unread, late, shut] = socks[..] else {
            unreachable!()
        };
        let mut buf = [0u8; 16];
        for &conn in &conns {
            w.server.send(conn, b"before").unwrap();
        }
        w.run(5);
        assert_eq!(w.client.recv(late, &mut buf), Ok(6));
        assert_eq!(w.client.recv(shut, &mut buf), Ok(6));
        w.client.close(unread).unwrap();
        w.client.close(late).unwrap();
        w.client.shutdown(shut, ShutdownHow::Write).unwrap();
        w.run(5);
        assert!(
            w.server.send(conns[0], b"x").is_err(),
            "unread bytes: no reset"
        );
        for &conn in &conns[1..] {
            w.server.send(conn, b"after").unwrap();
        }
        w.run(5);
        assert!(
            w.server.send(conns[1], b"x").is_err(),
            "late payload: no reset"
        );
        assert_eq!(w.client.recv(shut, &mut buf), Ok(5));
        assert_eq!(&buf[..5], b"after");
        assert_eq!(w.server.send(conns[2], b"x"), Ok(1));
    }

    /// A byte-slice send of a run's worth copies into a buffer of the
    /// stack's recycler (a power-of-two size class), and the next such send
    /// gets the same buffer back once the peer has read the first.
    #[test]
    fn large_sends_copy_into_recycled_buffers() {
        let mut w = World::new();
        let (cs, conn) = established(&mut w);
        let mut buffers = Vec::new();
        for round in 0..3u8 {
            assert_eq!(w.client.send(cs, &[round; 10_000]), Ok(10_000));
            w.run(10);
            let mut runs = Vec::new();
            assert_eq!(w.server.recv_runs(conn, usize::MAX, &mut runs), Ok(10_000));
            assert!(runs.iter().all(|run| run.iter().all(|&b| b == round)));
            let buffer = runs[0].buffer().expect("a data run").clone();
            assert!(runs.iter().all(|run| run.shares_buffer(&runs[0])));
            assert_eq!(buffer.len(), 16 * 1024, "the 16 KiB class");
            buffers.push(buffer.as_ptr());
        }
        assert!(buffers.windows(2).all(|w| w[0] == w[1]), "{buffers:?}");
    }

    #[test]
    fn connect_accept_and_exchange_data() {
        let mut w = World::new();
        let ls = listening_server(&mut w, 80);

        let cs = w.client.socket();
        w.client
            .connect(cs, SockAddr::new(SERVER_IP, 80), w.now)
            .unwrap();
        w.run(10);

        let (conn, peer) = w.server.accept(ls).unwrap();
        assert_eq!(peer.ip, CLIENT_IP);
        assert!(w.client.poll(cs).writable());

        assert_eq!(w.client.send(cs, b"hello netkernel").unwrap(), 15);
        w.run(10);
        let mut buf = [0u8; 64];
        assert_eq!(w.server.recv(conn, &mut buf).unwrap(), 15);
        assert_eq!(&buf[..15], b"hello netkernel");

        assert_eq!(w.server.send(conn, b"pong").unwrap(), 4);
        w.run(10);
        assert_eq!(w.client.recv(cs, &mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"pong");

        assert!(w.client.stats().segments_out > 0);
        assert!(w.server.stats().accepted == 1);
    }

    /// The backlog bounds embryonic plus ready connections, and a
    /// connection that leaves the handshake and then the accept queue gives
    /// its place back.
    #[test]
    fn the_backlog_counts_embryonic_and_ready_connections() {
        let mut w = World::new();
        let ls = w.server.socket();
        w.server.bind(ls, SockAddr::new(0, 80)).unwrap();
        w.server.listen(ls, 2).unwrap();
        let to = SockAddr::new(SERVER_IP, 80);
        for _ in 0..3 {
            let cs = w.client.socket();
            w.client.connect(cs, to, w.now).unwrap();
        }
        // The listener and two connections: the third SYN was dropped, and
        // two ready connections fill the backlog as two embryonic ones did.
        w.run(2);
        assert_eq!(w.server.socket_count(), 3);
        w.run(10);
        assert_eq!(w.server.socket_count(), 3);
        assert!(w.server.accept(ls).is_ok() && w.server.accept(ls).is_ok());
        assert_eq!(w.server.accept(ls), Err(NkError::WouldBlock));
        // Accepted connections hold no place: a fourth client gets in.
        let cs = w.client.socket();
        w.client.connect(cs, to, w.now).unwrap();
        w.run(10);
        assert!(w.server.accept(ls).is_ok());
    }

    /// A half-open connection gives up: a peer sends two SYNs to a
    /// backlog-2 listener and goes silent. Through five SYN-ACK backoffs
    /// (≈ 3.1 s) both embryonic connections hold the backlog; past them
    /// both are gone, and a fresh client gets in.
    #[test]
    fn half_open_connections_give_up_and_free_the_backlog() {
        const SILENT_IP: u32 = 0x0A00_0003;
        let mut w = World::new();
        let ls = w.server.socket();
        w.server.bind(ls, SockAddr::new(0, 80)).unwrap();
        w.server.listen(ls, 2).unwrap();
        let to = SockAddr::new(SERVER_IP, 80);
        let port = w.switch.attach(SILENT_IP);
        let mut silent = TcpStack::new(StackConfig::new(SILENT_IP), port);
        for _ in 0..2 {
            let s = silent.socket();
            silent.connect(s, to, w.now).unwrap();
        }
        silent.tick(w.now); // its SYNs leave, and it never runs again
        w.run(30_000); // 3 s: the fifth backoff has not run out
        assert_eq!(w.server.socket_count(), 3);
        w.run(2_000);
        assert_eq!(w.server.socket_count(), 1, "half-open connections linger");
        let cs = w.client.socket();
        w.client.connect(cs, to, w.now).unwrap();
        w.run(10);
        assert!(w.server.accept(ls).is_ok());
        assert!(w.client.poll(cs).writable());
    }

    /// An active open nobody answers gives up like a half-open one: through
    /// five SYN backoffs (≈ 3.15 s) its socket waits; past them the stack
    /// reports `TimedOut` and reaps the connection.
    #[test]
    fn a_connect_nobody_answers_times_out_and_is_reaped() {
        const NOBODY_IP: u32 = 0x0A00_0009;
        let mut w = World::new();
        let cs = w.client.socket();
        let to = SockAddr::new(NOBODY_IP, 80);
        w.client.connect(cs, to, w.now).unwrap();
        w.run(30_000); // 3 s: the fifth backoff has not run out
        assert_eq!(drain_events(&mut w.client), []);
        assert_eq!(w.client.socket_count(), 1);
        w.run(2_000);
        let failed = StackEvent::ConnectFailed(cs, NkError::TimedOut);
        assert_eq!(drain_events(&mut w.client), [failed]);
        assert_eq!(w.client.socket_count(), 0, "the failed open lingers");
    }

    #[test]
    fn accept_before_connection_would_block() {
        let mut w = World::new();
        let ls = listening_server(&mut w, 80);
        assert_eq!(w.server.accept(ls), Err(NkError::WouldBlock));
    }

    #[test]
    fn connect_to_closed_port_fails() {
        let mut w = World::new();
        let cs = w.client.socket();
        w.client
            .connect(cs, SockAddr::new(SERVER_IP, 9999), w.now)
            .unwrap();
        w.run(20);
        let ev = w.client.poll(cs);
        assert!(ev.hup() || ev.error(), "events {ev:?}");
        assert!(w.server.stats().no_socket_drops > 0);
    }

    #[test]
    fn bulk_transfer_larger_than_one_window() {
        let mut w = World::new();
        let (cs, conn) = established(&mut w);

        let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let mut sent = 0;
        let mut received = Vec::new();
        let mut buf = vec![0u8; 16 * 1024];
        for _ in 0..2_000 {
            if sent < payload.len() {
                if let Ok(n) = w.client.send(cs, &payload[sent..]) {
                    sent += n;
                }
            }
            w.run(1);
            while let Ok(n) = w.server.recv(conn, &mut buf) {
                if n == 0 {
                    break;
                }
                received.extend_from_slice(&buf[..n]);
            }
            if received.len() == payload.len() {
                break;
            }
        }
        assert_eq!(received.len(), payload.len());
        assert_eq!(received, payload);
    }

    #[test]
    fn events_report_readable_and_acceptable() {
        let mut w = World::new();
        let ls = listening_server(&mut w, 80);
        let cs = w.client.socket();
        w.client
            .connect(cs, SockAddr::new(SERVER_IP, 80), w.now)
            .unwrap();
        w.run(10);
        let events = drain_events(&mut w.server);
        assert!(events.contains(&StackEvent::Acceptable(ls)), "{events:?}");
        let (conn, _) = w.server.accept(ls).unwrap();

        w.client.send(cs, b"ping").unwrap();
        w.run(10);
        let events = drain_events(&mut w.server);
        assert!(events.contains(&StackEvent::Readable(conn)), "{events:?}");

        let client_events = drain_events(&mut w.client);
        assert!(
            client_events.contains(&StackEvent::Connected(cs)),
            "{client_events:?}"
        );

        // An owner that polls instead drops them; readiness is untouched.
        w.client.send(cs, b"pong").unwrap();
        w.run(10);
        w.server.discard_events();
        assert!(drain_events(&mut w.server).is_empty());
        assert!(w.server.poll(conn).readable());
    }

    #[test]
    fn reuseport_spreads_connections_over_listeners() {
        let mut w = World::new();
        let mut listeners = Vec::new();
        for _ in 0..4 {
            let ls = w.server.socket();
            w.server.set_sockopt(ls, sockopt::REUSEPORT, 1).unwrap();
            w.server.bind(ls, SockAddr::new(0, 80)).unwrap();
            w.server.listen(ls, 64).unwrap();
            listeners.push(ls);
        }
        for _ in 0..16 {
            let cs = w.client.socket();
            w.client
                .connect(cs, SockAddr::new(SERVER_IP, 80), w.now)
                .unwrap();
        }
        w.run(30);
        let mut accepted = 0;
        let mut busy_listeners = 0;
        for &ls in &listeners {
            let mut n = 0;
            while w.server.accept(ls).is_ok() {
                n += 1;
            }
            if n > 0 {
                busy_listeners += 1;
            }
            accepted += n;
        }
        assert_eq!(accepted, 16);
        assert!(
            busy_listeners >= 3,
            "connections concentrated on {busy_listeners} listeners"
        );
    }

    #[test]
    fn bind_conflict_without_reuseport() {
        let mut w = World::new();
        let a = w.server.socket();
        w.server.bind(a, SockAddr::new(0, 80)).unwrap();
        w.server.listen(a, 8).unwrap();
        let b = w.server.socket();
        assert_eq!(
            w.server.bind(b, SockAddr::new(0, 80)),
            Err(NkError::AddrInUse)
        );
    }

    #[test]
    fn graceful_close_propagates_eof() {
        let mut w = World::new();
        let (cs, conn) = established(&mut w);
        w.client.send(cs, b"last words").unwrap();
        w.client.close(cs).unwrap();
        w.run(20);
        let mut buf = [0u8; 32];
        assert_eq!(w.server.recv(conn, &mut buf).unwrap(), 10);
        assert_eq!(w.server.recv(conn, &mut buf).unwrap(), 0, "EOF expected");
        let events = drain_events(&mut w.server);
        assert!(events
            .iter()
            .any(|e| matches!(e, StackEvent::PeerClosed(_))));
    }

    /// A tuple whose previous connection still sits in TIME-WAIT is taken:
    /// `connect` used to overwrite its demultiplexer entry, and reaping the
    /// old socket then deleted the entry from under the new connection.
    #[test]
    fn a_tuple_in_time_wait_is_taken_and_reaping_it_spares_a_namesake() {
        let mut w = World::new();
        let ls = listening_server(&mut w, 80);
        let to = SockAddr::new(SERVER_IP, 80);
        let (old, new) = (w.client.socket(), w.client.socket());
        w.client.bind(old, SockAddr::new(0, 5000)).unwrap();
        w.client.connect(old, to, w.now).unwrap();
        w.run(10);
        let (conn, _) = w.server.accept(ls).unwrap();
        w.client.close(old).unwrap(); // the active closer keeps TIME-WAIT
        w.run(5);
        w.server.close(conn).unwrap();
        w.run(5);
        let key = |port| (SockAddr::new(CLIENT_IP, port), to);
        let deadline = time_wait(&w.client, key(5000)).expect("parked");
        assert!(!alive(&w.client, old), "only the tuple stays");

        w.client.bind(new, SockAddr::new(0, 5000)).unwrap();
        assert_eq!(w.client.connect(new, to, w.now), Err(NkError::AddrInUse));
        // The ephemeral scan steps over the port for this peer too.
        w.client.next_ephemeral = 5000;
        let other = w.client.socket();
        w.client.connect(other, to, w.now).unwrap();
        let other_slot = Tuple::Slot(slot(&w.client, other));
        assert_eq!(w.client.demux.get(&key(5001)), Some(&other_slot));

        // Had the entry been handed on regardless, expiring `old` spares it.
        let new_slot = Tuple::Slot(slot(&w.client, new));
        w.client.demux.insert(key(5000), new_slot);
        w.run(600);
        assert!(w.now >= deadline, "TIME-WAIT is over");
        assert_eq!(w.client.demux.get(&key(5000)), Some(&new_slot));
    }

    /// Every ephemeral port towards one remote taken — live or parked in
    /// TIME-WAIT, `churn`'s end state scaled up — is `AddrInUse`, typed: the
    /// scan used to give up with port 0 and `connect` opened *from* it.
    #[test]
    fn connect_fails_typed_when_every_ephemeral_port_to_the_remote_is_taken() {
        let mut w = World::new();
        let to = SockAddr::new(SERVER_IP, 80);
        for _ in EPHEMERAL_LOW..EPHEMERAL_HIGH {
            let s = w.client.socket();
            w.client.connect(s, to, w.now).unwrap();
        }
        let s = w.client.socket();
        assert_eq!(w.client.connect(s, to, w.now), Err(NkError::AddrInUse));
        assert_eq!(w.client.connect(s, to, w.now), Err(NkError::AddrInUse));
        // The ports are taken per remote: another one still has them all.
        w.client
            .connect(s, SockAddr::new(SERVER_IP, 81), w.now)
            .unwrap();
        assert_eq!(w.client.demux.len(), 25_001);
        assert!(!w.client.demux.any(|(local, _), _| local.port == 0));
    }

    /// The slot of live socket `id`.
    fn slot(stack: &TcpStack, id: SocketId) -> u32 {
        *stack.ids.get(&id).expect("a live socket")
    }

    /// Socket `id` is still in the table.
    fn alive(stack: &TcpStack, id: SocketId) -> bool {
        stack.ids.contains_key(&id)
    }

    /// The 4-tuple of connection `id`.
    fn tuple(stack: &TcpStack, id: SocketId) -> (SockAddr, SockAddr) {
        let c = stack.conn(id).expect("a connection");
        (c.local(), c.remote())
    }

    /// The deadline `tuple` waits in TIME-WAIT for, with no socket.
    fn time_wait(stack: &TcpStack, tuple: (SockAddr, SockAddr)) -> Option<u64> {
        match stack.demux.get(&tuple)? {
            Tuple::TimeWait(deadline) => Some(*deadline),
            Tuple::Slot(_) => None,
        }
    }

    /// The server sends a reset to the client end of `tuple`, which the
    /// client reads on its next tick.
    fn reset_client(w: &mut World, (local, remote): (SockAddr, SockAddr)) {
        let rst = crate::segment::SegmentFlags::rst();
        w.server.emit(Segment::control(remote, local, rst));
        w.server.port.send_burst(&mut w.server.tx_burst);
        w.run(2);
    }

    fn conn_slot(stack: &TcpStack, id: SocketId) -> Option<&ConnSlot> {
        match stack.entry(id)? {
            SocketEntry::Conn(c) => Some(&stack.conns[*c as usize]),
            _ => None,
        }
    }

    /// Timer-heap entries a pop would act on: the slot still holds their
    /// socket, as a connection armed at their deadline.
    fn armed_timers(stack: &TcpStack) -> usize {
        let armed = |&Reverse((deadline, id, slot)): &Reverse<(u64, SocketId, u32)>| {
            let s = &stack.slots[slot as usize];
            s.id == id
                && matches!(s.entry,
                    SocketEntry::Conn(c) if stack.conns[c as usize].armed == Some(deadline))
        };
        stack.timers.iter().filter(|e| armed(e)).count()
    }

    /// Free arena slots that kept their queue storage.
    fn stocked(stack: &TcpStack) -> usize {
        let conns = &stack.conns;
        (stack.free_conns.iter())
            .filter(|&&c| conns[c as usize].conn.queue_capacity() > 0)
            .count()
    }

    /// TIME-WAIT takes no slot: a parked tuple is its `demux` value, and a
    /// slot holds an id and an idle socket, a listener's box or a
    /// connection's arena index.
    #[test]
    fn time_wait_takes_a_demux_entry_and_no_slot() {
        assert_eq!(std::mem::size_of::<Tuple>(), 16);
        assert_eq!(std::mem::size_of::<SocketEntry>(), 16);
        assert_eq!(std::mem::size_of::<Slot>(), 24);
    }

    /// A connection parked in TIME-WAIT while its application still holds it
    /// stays a connection: it answers every call as it did before it
    /// parked, and the calls that queue a connection queue it. Its `close`
    /// queues the poll that takes the socket out of the table; only the
    /// tuple stays, taken until the first tick at or past its deadline, or
    /// freed on the tick a reset reaches it. Neither costs a poll.
    #[test]
    fn a_held_parked_connection_answers_as_before_and_its_close_leaves_the_tuple() {
        let mut w = World::new();
        let ls = listening_server(&mut w, 80);
        let to = SockAddr::new(SERVER_IP, 80);
        let (cs, other) = (w.client.socket(), w.client.socket());
        w.client.connect(cs, to, w.now).unwrap();
        w.client.connect(other, to, w.now).unwrap();
        let (held, let_go) = (tuple(&w.client, cs), tuple(&w.client, other));
        w.run(10);
        let (conn, _) = w.server.accept(ls).unwrap();
        let (conn2, _) = w.server.accept(ls).unwrap();
        // The clients close first. `cs` only shuts its write side, and its
        // peer sends a tail with its FIN, so `cs` reaches TIME-WAIT owed a
        // read (a closed socket would reset).
        w.client.shutdown(cs, ShutdownHow::Write).unwrap();
        w.client.close(other).unwrap();
        w.run(5);
        w.server.send(conn, b"tail").unwrap();
        w.server.close(conn).unwrap();
        w.server.close(conn2).unwrap();
        w.run(5);
        assert!(time_wait(&w.client, let_go).is_some() && !alive(&w.client, other));
        let Some(parked) = conn_slot(&w.client, cs) else {
            panic!("parked with a byte unread");
        };
        assert_eq!(parked.conn.state(), ConnState::TimeWait);
        assert_eq!(w.client.recv(cs, &mut [0u8; 8]), Ok(4));

        let answers = |s: &mut TcpStack| {
            (
                TcpStack::poll(s, cs),
                s.recv(cs, &mut [0u8; 8]),
                s.send(cs, b"x"),
                s.connect(cs, SockAddr::new(SERVER_IP, 81), 0),
                s.snapshot_conn(cs),
                s.conn_quiet(cs),
                (
                    s.serves_ip(CLIENT_IP),
                    s.recv_available(cs),
                    s.socket_count(),
                ),
            )
        };
        let owed_nothing = answers(&mut w.client);
        assert_eq!(owed_nothing.0, PollEvents::READABLE | PollEvents::HUP);
        w.run(1);
        assert!(conn_slot(&w.client, cs).is_some(), "held: a connection");
        assert_eq!(answers(&mut w.client), owed_nothing);

        // What queues a connection queues it: a poll, no segment. The close
        // goes last, and the socket leaves at the poll it queues.
        type Call = fn(&mut TcpStack, SocketId) -> NkResult<()>;
        let calls: [(Call, u64); 5] = [
            (|s, id| s.shutdown(id, ShutdownHow::Write), 1),
            (|s, id| s.shutdown(id, ShutdownHow::Read), 0),
            (|s, id| s.set_sockopt(id, sockopt::SNDBUF, 4096), 1),
            (|s, id| s.set_sockopt(id, sockopt::NODELAY, 1), 0),
            (|s, id| s.close(id), 1),
        ];
        for (call, polls) in calls {
            let before = w.client.stats();
            assert_eq!(call(&mut w.client, cs), Ok(()));
            w.run(1);
            let after = w.client.stats();
            assert_eq!(after.conns_polled - before.conns_polled, polls);
            assert_eq!(after.segments_out, before.segments_out);
        }
        assert!(!alive(&w.client, cs) && time_wait(&w.client, held).is_some());
        assert_eq!(w.client.socket_count(), owed_nothing.6 .2, "now a tuple");

        // A reset frees the tuple on the tick it arrives, quietly.
        w.client.discard_events();
        let before = w.client.stats();
        reset_client(&mut w, held);
        assert_eq!(time_wait(&w.client, held), None);
        assert!(w.client.pop_event().is_none());
        assert_eq!(w.client.stats().conns_polled, before.conns_polled);
        assert_eq!(w.client.stats().segments_out, before.segments_out);

        // The other one lives to its deadline, to the tick.
        let deadline = time_wait(&w.client, let_go).unwrap();
        while w.now + 100_000 < deadline {
            w.run(1);
            assert!(time_wait(&w.client, let_go).is_some(), "freed at {}", w.now);
        }
        let before = w.client.stats().conns_polled;
        w.run(1);
        assert!(w.now >= deadline && w.client.socket_count() == 0);
        assert_eq!(w.client.stats().conns_polled, before);
        assert!(w.client.demux.is_empty() && armed_timers(&w.client) == 0);
    }

    /// A read that drains a connection parked in TIME-WAIT, while its
    /// application still holds it, queues no poll: a held connection stays
    /// a connection, so that poll would change nothing. Only its `close`
    /// makes it a tuple.
    #[test]
    fn a_read_that_lets_a_held_connection_park_queues_no_poll() {
        let mut w = World::new();
        let (cs, conn) = established(&mut w);
        w.client.shutdown(cs, ShutdownHow::Write).unwrap();
        w.run(5);
        w.server.send(conn, b"tail").unwrap();
        w.server.close(conn).unwrap();
        w.run(5);
        let state = conn_slot(&w.client, cs).map(|slot| slot.conn.state());
        assert_eq!(state, Some(ConnState::TimeWait), "held, owed a read");
        assert_eq!(w.client.recv(cs, &mut [0u8; 8]), Ok(4));
        let before = w.client.stats().conns_polled;
        w.run(1);
        assert_eq!(w.client.stats().conns_polled, before, "a poll queued");
        assert!(conn_slot(&w.client, cs).is_some(), "held: a connection");
    }

    /// Only a connection still in its handshake can fail to open. The final
    /// ACK of a passive close used to raise `ConnectFailed`, and so did a
    /// reset in TIME-WAIT; ServiceLib turns that event into a stray
    /// `ConnectComplete(Err)` for any socket it still tracks. The client
    /// only shuts its write side, so it parks in TIME-WAIT still held, and
    /// the reset reaches a connection, not a tuple.
    #[test]
    fn a_passive_close_and_a_reset_in_time_wait_raise_no_connect_failed() {
        let mut w = World::new();
        let (cs, conn) = established(&mut w);
        w.client.shutdown(cs, ShutdownHow::Write).unwrap();
        w.run(5);
        w.server.close(conn).unwrap();
        w.run(5);
        let failed = |events: &[StackEvent]| {
            (events.iter()).any(|e| matches!(e, StackEvent::ConnectFailed(..)))
        };
        let events = drain_events(&mut w.server);
        assert!(events.contains(&StackEvent::PeerClosed(conn)), "{events:?}");
        assert!(!failed(&events), "a passive close: {events:?}");
        assert_eq!(w.server.socket_count(), 1, "the passive end is reaped");

        // The client sits in TIME-WAIT as a connection; a reset from its
        // peer ends it.
        drain_events(&mut w.client);
        let held = tuple(&w.client, cs);
        let state = conn_slot(&w.client, cs).map(|slot| slot.conn.state());
        assert_eq!(state, Some(ConnState::TimeWait), "held in TIME-WAIT");
        reset_client(&mut w, held);
        assert!(!alive(&w.client, cs), "reset ends TIME-WAIT");
        assert!(w.client.demux.is_empty() && w.client.time_wait == 0);
        let events = drain_events(&mut w.client);
        assert!(!failed(&events), "a reset in TIME-WAIT: {events:?}");
    }

    /// The stack's TIME-WAIT tuples and connections, in that order.
    fn entries(s: &TcpStack) -> (usize, usize) {
        let parked = s.demux.count(|_, t| matches!(t, Tuple::TimeWait(_)));
        assert_eq!(parked, s.time_wait, "the TIME-WAIT count");
        let conns = (s.slots.iter()).filter(|slot| matches!(slot.entry, SocketEntry::Conn(_)));
        (parked, conns.count())
    }

    /// A VM-shared window is split among the flows that still hold a
    /// connection: one that is exported, reaped after a passive close or
    /// parked in TIME-WAIT once its application let go of it leaves the
    /// share at once. A TIME-WAIT connection kept its congestion control,
    /// and with it a share of the window, until its reap.
    #[test]
    fn a_vm_shared_window_is_split_among_live_connections_only() {
        let mut w = World::new();
        let ls = listening_server(&mut w, 80);
        let shared = crate::cc::SharedVmWindow::new();
        let flows: Vec<SocketId> = (0..4).map(|_| w.client.socket()).collect();
        for &cs in &flows {
            let cc = Cc::VmShared(crate::cc::VmSharedCc::new(shared.clone()));
            w.client
                .connect(cs, SockAddr::new(SERVER_IP, 80), w.now)
                .unwrap();
            w.client.set_cc(cs, cc).unwrap();
        }
        w.run(10);
        // Ephemeral ports rise with the client's socket ids.
        let mut accepted: Vec<_> = std::iter::from_fn(|| w.server.accept(ls).ok()).collect();
        accepted.sort_unstable_by_key(|&(_, peer)| peer);
        let conns: Vec<SocketId> = accepted.into_iter().map(|(conn, _)| conn).collect();
        assert_eq!(shared.active_flows(), 4);

        w.client.export_conn(flows[3]).unwrap();
        assert_eq!(shared.active_flows(), 3, "exported");

        // flows[1] closes passively: its peer first, then the final ACK.
        w.server.close(conns[1]).unwrap();
        w.run(5);
        w.client.close(flows[1]).unwrap();
        w.run(5);
        assert!(!alive(&w.client, flows[1]));
        assert_eq!(shared.active_flows(), 2, "reaped");

        // flows[0] closes first and parks in TIME-WAIT.
        let parked = tuple(&w.client, flows[0]);
        w.client.close(flows[0]).unwrap();
        w.run(5);
        w.server.close(conns[0]).unwrap();
        w.run(5);
        assert!(time_wait(&w.client, parked).is_some() && !alive(&w.client, flows[0]));
        assert_eq!(shared.active_flows(), 1, "parked");
        assert_eq!(entries(&w.client), (1, 1));
        let Some(last) = conn_slot(&w.client, flows[2]) else {
            panic!("flows[2] is open");
        };
        assert_eq!(last.conn.cwnd(), shared.total_cwnd());
    }

    /// A thousand active closes leave a thousand TIME-WAIT tuples and no
    /// connection slot — no `TcpConnection`, congestion control or queue
    /// storage per parked connection.
    #[test]
    fn time_wait_and_closed_connections_keep_no_queue_storage() {
        const N: usize = 1_000;
        let mut w = World::new();
        let ls = w.server.socket();
        w.server.bind(ls, SockAddr::new(0, 80)).unwrap();
        w.server.listen(ls, N as u32).unwrap();
        let to = SockAddr::new(SERVER_IP, 80);
        let clients: Vec<SocketId> = (0..N).map(|_| w.client.socket()).collect();
        for &cs in &clients {
            w.client.connect(cs, to, w.now).unwrap();
        }
        w.run(10);
        let conns: Vec<SocketId> =
            std::iter::from_fn(|| w.server.accept(ls).ok().map(|(conn, _)| conn)).collect();
        assert_eq!(conns.len(), N);
        // Every connection's queues hold bytes once: a request and its echo.
        let mut buf = [0u8; 64];
        for &cs in &clients {
            assert_eq!(w.client.send(cs, b"request"), Ok(7));
        }
        w.run(10);
        for &conn in &conns {
            assert_eq!(w.server.recv(conn, &mut buf), Ok(7));
            assert_eq!(w.server.send(conn, b"echo"), Ok(4));
        }
        w.run(10);
        for &cs in &clients {
            assert_eq!(w.client.recv(cs, &mut buf), Ok(4));
            w.client.close(cs).unwrap();
        }
        w.run(10);
        for &conn in &conns {
            assert_eq!(w.server.recv(conn, &mut buf), Ok(0));
            w.server.close(conn).unwrap();
        }
        w.run(10);

        assert_eq!(entries(&w.client), (N, 0));
        assert_eq!(entries(&w.server), (0, 0));
        assert_eq!(w.client.socket_count(), N);
        assert_eq!(w.server.socket_count(), 1, "the listener");
    }

    /// A client stack and a server stack whose wire the test carries by
    /// hand, recording every segment that crosses it and the kinds of the
    /// events both stacks raise, in order.
    struct Wire {
        stacks: [TcpStack; 2],
        ports: [Port<Segment>; 2],
        now: u64,
        segments: Vec<Segment>,
        kinds: Vec<std::mem::Discriminant<StackEvent>>,
        /// The stack whose segments the wire loses.
        mute: Option<usize>,
    }

    impl Wire {
        fn new() -> Self {
            let ports = [Port::new(CLIENT_IP), Port::new(SERVER_IP)];
            Wire {
                stacks: [
                    TcpStack::new(StackConfig::new(CLIENT_IP), ports[0].clone()),
                    TcpStack::new(StackConfig::new(SERVER_IP), ports[1].clone()),
                ],
                ports,
                now: 0,
                segments: Vec::new(),
                kinds: Vec::new(),
                mute: None,
            }
        }

        fn run(&mut self, rounds: usize) {
            for _ in 0..rounds {
                self.now += 100_000;
                for (i, stack) in self.stacks.iter_mut().enumerate() {
                    stack.tick(self.now);
                    let mut sent = Vec::new();
                    self.ports[i].drain_tx_into(&mut sent);
                    if self.mute != Some(i) {
                        self.segments.extend(sent.iter().map(|f| f.payload.clone()));
                        self.ports[1 - i].deliver_burst(|rx| rx.extend(sent));
                    }
                    let events = drain_events(stack);
                    self.kinds.extend(events.iter().map(std::mem::discriminant));
                }
            }
        }

        /// `n` client connections to a new listener on `port`, each paired
        /// with the server end it was accepted as.
        fn open(&mut self, port: u16, n: usize) -> Vec<(SocketId, SocketId)> {
            let [client, server] = &mut self.stacks;
            let ls = server.socket();
            server.bind(ls, SockAddr::new(0, port)).unwrap();
            server.listen(ls, n as u32).unwrap();
            let to = SockAddr::new(SERVER_IP, port);
            let clients: Vec<SocketId> = (0..n).map(|_| client.socket()).collect();
            for &cs in &clients {
                client.connect(cs, to, self.now).unwrap();
            }
            self.run(4);
            let accepted = std::iter::from_fn(|| self.stacks[1].accept(ls).ok());
            let mut pairs: Vec<_> = accepted.map(|(conn, peer)| (peer, conn)).collect();
            pairs.sort_unstable();
            assert_eq!(pairs.len(), n);
            // Ephemeral ports rise with the client's socket ids.
            clients
                .into_iter()
                .zip(pairs)
                .map(|(cs, (_, conn))| (cs, conn))
                .collect()
        }

        /// Three writes on every client, echoed back by its server end;
        /// then the clients close first and the servers after them.
        fn echo(&mut self, pairs: &[(SocketId, SocketId)]) {
            let mut buf = [0u8; 64];
            for msg in [&b"one"[..], b"two, longer", b"three"] {
                for &(cs, _) in pairs {
                    assert_eq!(self.stacks[0].send(cs, msg), Ok(msg.len()));
                }
                self.run(3);
                let server = &mut self.stacks[1];
                for &(_, conn) in pairs {
                    assert_eq!(server.recv(conn, &mut buf), Ok(msg.len()));
                    assert_eq!(server.send(conn, &buf[..msg.len()]), Ok(msg.len()));
                }
                self.run(3);
                for &(cs, _) in pairs {
                    assert_eq!(self.stacks[0].recv(cs, &mut buf), Ok(msg.len()));
                    assert_eq!(&buf[..msg.len()], msg);
                }
            }
            for &(cs, _) in pairs {
                self.stacks[0].close(cs).unwrap();
            }
            self.run(3);
            let server = &mut self.stacks[1];
            for &(_, conn) in pairs {
                assert_eq!(server.recv(conn, &mut buf), Ok(0));
                server.close(conn).unwrap();
            }
            self.run(6);
        }
    }

    /// One scripted echo session (connect, three writes echoed back, close)
    /// after each stack first opened and closed `idle` sockets, and ran
    /// `cycles` whole connections through the same script beside `kept` more
    /// it left open and idle — so the client holds `cycles` TIME-WAIT
    /// tuples and each stack `kept.min(cycles)` spare slots whose queues
    /// held bytes. Returns every segment the session put on the wire, both
    /// stacks' counters over the session and the kinds of the events they
    /// raised, in order.
    fn echo_session(
        idle: usize,
        cycles: usize,
        kept: usize,
    ) -> (
        Vec<Segment>,
        [StackStats; 2],
        Vec<std::mem::Discriminant<StackEvent>>,
    ) {
        let mut w = Wire::new();
        for stack in &mut w.stacks {
            let opened: Vec<SocketId> = (0..idle).map(|_| stack.socket()).collect();
            for s in opened {
                stack.close(s).unwrap();
            }
        }
        if cycles > 0 {
            let cycled = w.open(81, cycles + kept);
            w.echo(&cycled[..cycles]);
            assert_eq!(entries(&w.stacks[0]), (cycles, kept));
            for stack in &mut w.stacks {
                assert_eq!(stocked(stack), kept.min(cycles));
                // The session's own numbers start where a fresh stack's do.
                (stack.stats, stack.iss) = (StackStats::default(), 0x1000);
                stack.next_ephemeral = EPHEMERAL_LOW;
            }
            (w.segments, w.kinds) = (Vec::new(), Vec::new());
        }
        let session = w.open(80, 1);
        w.echo(&session);
        let stats = [w.stacks[0].stats(), w.stacks[1].stats()];
        (w.segments, stats, w.kinds)
    }

    /// Table history cannot reach the wire: a stack whose tables carry a
    /// different capacity, tombstone pattern and id range, or TIME-WAIT
    /// tuples, emits the same segments (socket ids are not on the wire),
    /// counts the same and raises the same events in the same order.
    #[test]
    fn table_layout_never_leaks_into_segments() {
        let fresh = echo_session(0, 0, 0);
        assert!(fresh.0.len() > 12 && fresh.1[0].bytes_in == 19);
        assert!(fresh == echo_session(10_000, 0, 0));
        assert!(fresh == echo_session(0, 64, 0));
    }

    /// A connection opened in a recycled slot — queues another connection
    /// filled and emptied, congestion control and every protocol field
    /// fresh — behaves as one on a fresh stack: the same segments, counters
    /// and events, on both ends.
    #[test]
    fn a_connection_in_a_recycled_slot_starts_clean() {
        assert!(echo_session(0, 0, 0) == echo_session(0, 64, 2));
    }

    /// A thousand connections churn through two stacks whose congestion
    /// control is a VM-shared window, a few at a time, so most of them open
    /// in a recycled slot. After every tick each window counts exactly the
    /// connections its stack still holds: a slot that kept its connection's
    /// congestion control would still count a flow that left.
    #[test]
    fn recycled_slots_leave_the_vm_shared_window() {
        const N: usize = 1_000;
        const AT_ONCE: usize = 8;
        let mut w = World::new();
        let windows = [SharedVmWindow::new(), SharedVmWindow::new()];
        w.client.cfg.cc = CcAlgorithm::VmShared(windows[0].clone());
        w.server.cfg.cc = CcAlgorithm::VmShared(windows[1].clone());
        let ls = listening_server(&mut w, 80);
        let to = SockAddr::new(SERVER_IP, 80);
        let (mut opened, mut clients, mut served) = (0, Vec::new(), Vec::new());
        let mut spares = [0usize; 2];
        let mut buf = [0u8; 16];
        while opened < N || !clients.is_empty() || !served.is_empty() {
            while opened < N && clients.len() < AT_ONCE {
                let cs = w.client.socket();
                w.client.connect(cs, to, w.now).unwrap();
                clients.push(cs);
                opened += 1;
            }
            w.run(1);
            for (i, (stack, window)) in [(&w.client, &windows[0]), (&w.server, &windows[1])]
                .into_iter()
                .enumerate()
            {
                assert_eq!(window.active_flows(), entries(stack).1, "at {}", w.now);
                spares[i] = spares[i].max(stocked(stack));
            }
            clients.retain(|&cs| {
                let open = w.client.poll(cs).writable();
                if open {
                    w.client.send(cs, b"ping").unwrap();
                    w.client.close(cs).unwrap();
                }
                !open
            });
            served.extend(std::iter::from_fn(|| {
                w.server.accept(ls).ok().map(|(c, _)| c)
            }));
            served.retain(|&conn| loop {
                match w.server.recv(conn, &mut buf) {
                    Ok(0) => {
                        w.server.close(conn).unwrap();
                        break false;
                    }
                    Ok(_) => {}
                    Err(_) => break true,
                }
            });
        }
        assert!(
            spares.iter().all(|&n| n > 0),
            "slots were recycled: {spares:?}"
        );
    }

    /// TIME-WAIT tuples expire from a FIFO kept in deadline order. One whose
    /// application lets go of it late, after it read the tail its peer sent,
    /// keeps the deadline its TIME-WAIT began with and goes in ahead of
    /// tuples parked before it; one a reset freed leaves its entry behind,
    /// skipped when it surfaces. Each tuple goes on exactly the tick a
    /// TIME-WAIT connection would: the one its reset arrived on, or the
    /// first at or past its deadline.
    #[test]
    fn tuples_expire_in_deadline_order_whenever_they_parked() {
        let mut w = World::new();
        let ls = listening_server(&mut w, 80);
        let to = SockAddr::new(SERVER_IP, 80);
        let socks: Vec<SocketId> = (0..3).map(|_| w.client.socket()).collect();
        for &cs in &socks {
            w.client.connect(cs, to, w.now).unwrap();
        }
        let [late, reset, plain] = [0, 1, 2].map(|i| tuple(&w.client, socks[i]));
        w.run(10);
        // Ephemeral ports rise with the client's socket ids.
        let mut accepted: Vec<_> = std::iter::from_fn(|| w.server.accept(ls).ok()).collect();
        accepted.sort_unstable_by_key(|&(_, peer)| peer);
        let conns: Vec<SocketId> = accepted.into_iter().map(|(c, _)| c).collect();

        // `late` reaches TIME-WAIT first, owed a read: it stays a connection.
        w.client.shutdown(socks[0], ShutdownHow::Write).unwrap();
        w.run(5);
        w.server.send(conns[0], b"tail").unwrap();
        w.server.close(conns[0]).unwrap();
        w.run(5);
        assert_eq!(time_wait(&w.client, late), None);
        // The other two park as tuples, later in time.
        w.run(20);
        w.client.close(socks[1]).unwrap();
        w.client.close(socks[2]).unwrap();
        w.run(5);
        w.server.close(conns[1]).unwrap();
        w.server.close(conns[2]).unwrap();
        w.run(5);
        let later = time_wait(&w.client, plain).unwrap();
        assert_eq!(time_wait(&w.client, reset), Some(later));
        // `late` is read and closed, and parks with its earlier deadline, at
        // the front.
        assert_eq!(w.client.recv(socks[0], &mut [0u8; 8]), Ok(4));
        w.client.close(socks[0]).unwrap();
        w.run(1);
        let early = time_wait(&w.client, late).unwrap();
        assert!(early < later);
        assert_eq!(w.client.expiry.front(), Some(&(early, late)));

        // A reset ends `reset` on the tick it arrives.
        reset_client(&mut w, reset);
        assert_eq!(time_wait(&w.client, reset), None);
        // The others go on the first tick at or past their deadlines.
        while w.client.socket_count() > 0 {
            w.run(1);
            let parked = |t| time_wait(&w.client, t).is_some();
            assert_eq!(parked(late), w.now < early, "late at {}", w.now);
            assert_eq!(parked(plain), w.now < later, "plain at {}", w.now);
        }
        assert!(w.client.expiry.is_empty() && armed_timers(&w.client) == 0);
    }

    /// A reset frees a TIME-WAIT tuple at once, and a new connection may
    /// take it and park there again. The expiry entry of the first
    /// TIME-WAIT surfaces while the second holds the tuple, and leaves it
    /// alone: the tuple lives to its own deadline.
    #[test]
    fn a_tuple_reset_and_parked_again_lives_to_its_own_deadline() {
        let mut w = World::new();
        let ls = listening_server(&mut w, 80);
        let to = SockAddr::new(SERVER_IP, 80);
        let key = (SockAddr::new(CLIENT_IP, 5000), to);
        let park = |w: &mut World| {
            let cs = w.client.socket();
            w.client.bind(cs, SockAddr::new(0, 5000)).unwrap();
            w.client.connect(cs, to, w.now).unwrap();
            w.run(10);
            let (conn, _) = w.server.accept(ls).unwrap();
            w.client.close(cs).unwrap();
            w.run(5);
            w.server.close(conn).unwrap();
            w.run(5);
            time_wait(&w.client, key).expect("parked")
        };
        let first = park(&mut w);
        reset_client(&mut w, key);
        assert_eq!(w.client.demux.get(&key), None, "a reset frees the tuple");
        let second = park(&mut w);
        assert!(w.now < first && first < second);
        while w.now < second {
            w.run(1);
            let left = (w.now < second).then_some(second);
            assert_eq!(time_wait(&w.client, key), left, "at {}", w.now);
        }
        assert_eq!(w.client.socket_count(), 0);
    }

    /// RFC 9293 §3.8.6.1: the receiver lets its window close, then reads
    /// everything, and the ACK that reopens the window is lost. Nothing is
    /// in flight, so no retransmission timer runs: without a persist timer
    /// the sender waits forever. Its one-byte window probe draws the update
    /// and the transfer completes; while it waits, it costs no poll.
    #[test]
    fn a_lost_window_update_is_recovered_by_a_window_probe() {
        const WINDOW: usize = 4 * nk_types::constants::MSS;
        let mut w = Wire::new();
        w.stacks[1].cfg.recv_buf = WINDOW;
        let (cs, conn) = w.open(80, 1)[0];
        let data: Vec<u8> = (0..4 * WINDOW).map(|i| (i % 251) as u8).collect();
        assert_eq!(w.stacks[0].send(cs, &data), Ok(data.len()));
        w.run(5);
        let mut got = Vec::new();
        let mut buf = vec![0u8; WINDOW];
        let mut read = |w: &mut Wire, got: &mut Vec<u8>| {
            while let Ok(n) = w.stacks[1].recv(conn, &mut buf) {
                if n == 0 {
                    break;
                }
                got.extend_from_slice(&buf[..n]);
            }
        };
        read(&mut w, &mut got);
        assert_eq!(got.len(), WINDOW, "the window closed after one window");
        // The ACK that reopens the window is lost.
        w.mute = Some(1);
        w.run(1);
        w.mute = None;
        let polled = w.stacks[0].stats().conns_polled;
        w.run(50);
        let stalled_polls = w.stacks[0].stats().conns_polled - polled;
        for _ in 0..20_000 {
            w.run(1);
            read(&mut w, &mut got);
            if got.len() == data.len() {
                break;
            }
        }
        assert!(
            got == data,
            "stalled at {} of {} bytes",
            got.len(),
            data.len()
        );
        assert!(
            stalled_polls <= 1,
            "{stalled_polls} polls while the window was shut"
        );
    }

    /// A reset with data in flight used to leave the RTO armed: while unread
    /// bytes kept the dead socket around, every expiry counted a timeout and
    /// shrank the window its VM's live connections share.
    #[test]
    fn a_reset_connection_keeps_no_timer() {
        let mut w = World::new();
        let ls = listening_server(&mut w, 80);
        let shared = crate::cc::SharedVmWindow::new();
        let cc = Cc::VmShared(crate::cc::VmSharedCc::new(shared.clone()));
        let to = SockAddr::new(SERVER_IP, 80);
        let cs = w.client.socket();
        w.client.connect(cs, to, w.now).unwrap();
        w.client.set_cc(cs, cc).unwrap();
        w.run(10);
        let (conn, peer) = w.server.accept(ls).unwrap();
        w.server.send(conn, b"unread").unwrap();
        w.run(10);

        w.client.send(cs, b"in flight").unwrap();
        w.client.tick(w.now);
        let rst = crate::segment::SegmentFlags::rst();
        w.server.emit(Segment::control(to, peer, rst));
        w.server.port.send_burst(&mut w.server.tx_burst);
        w.switch.step(w.now);
        let cwnd = shared.total_cwnd();
        for _ in 0..40 {
            w.now += 10_000_000; // 400 ms: many times any RTO
            w.client.tick(w.now);
        }
        let Some(reset) = conn_slot(&w.client, cs) else {
            panic!("reaped with unread bytes");
        };
        assert!(reset.conn.is_closed());
        assert_eq!(reset.conn.stats().timeouts, 0);
        assert_eq!(shared.total_cwnd(), cwnd);
        assert_eq!(armed_timers(&w.client), 0);
        assert_eq!(w.client.recv(cs, &mut [0u8; 8]), Ok(6));
    }

    /// A connection reset while it waits in the accept queue is reaped and
    /// leaves the queue with it: `accept` hands out the live one behind it,
    /// and the listener reads as readable only while a live one waits. The
    /// reaped id used to stay queued: `accept` answered `InvalidState` for
    /// it, so ServiceLib's drain stopped there and stranded the connections
    /// behind it, and `poll` reported `READABLE` for the dead id.
    #[test]
    fn a_connection_reset_before_accept_leaves_the_accept_queue() {
        let mut w = World::new();
        let ls = listening_server(&mut w, 80);
        let to = SockAddr::new(SERVER_IP, 80);
        for _ in 0..3 {
            let cs = w.client.socket();
            w.client.connect(cs, to, w.now).unwrap();
        }
        w.run(10);
        // The client's i-th connection is from the i-th ephemeral port.
        let reset = |w: &mut World, i: u16| {
            let from = SockAddr::new(CLIENT_IP, EPHEMERAL_LOW + i);
            let rst = crate::segment::SegmentFlags::rst();
            w.client.emit(Segment::control(from, to, rst));
            w.client.port.send_burst(&mut w.client.tx_burst);
            w.run(5);
        };
        let sockets = w.server.socket_count();
        reset(&mut w, 0);
        assert_eq!(w.server.socket_count(), sockets - 1, "reaped unaccepted");
        assert!(w.server.poll(ls).readable());
        let (_, peer) = w.server.accept(ls).unwrap();
        assert_eq!(peer.port, EPHEMERAL_LOW + 1);
        reset(&mut w, 2);
        assert!(!w.server.poll(ls).readable());
        assert_eq!(w.server.accept(ls), Err(NkError::WouldBlock));
    }

    /// Stale references wake nothing. A connection on the wake list that
    /// also holds a timer entry is exported, or reset and reaped, and a
    /// connection opened next takes its slot before the next tick: that tick
    /// polls the newcomer exactly once, and the old timer entry polls nothing
    /// when it comes due.
    #[test]
    fn stale_references_to_a_reused_slot_wake_nothing() {
        for reaped in [false, true] {
            let mut w = World::new();
            let (cs, _) = established(&mut w);
            // Bytes in flight arm an RTO; more bytes queue the connection.
            assert_eq!(w.client.send(cs, b"in flight"), Ok(9));
            w.run(1);
            let armed = conn_slot(&w.client, cs).unwrap().armed.expect("an RTO");
            assert_eq!(w.client.send(cs, b"queued"), Ok(6));
            let old = slot(&w.client, cs);
            if reaped {
                let rst = crate::segment::SegmentFlags::rst();
                let rst = Segment::control(SockAddr::new(SERVER_IP, 80), SockAddr::new(0, 0), rst);
                w.client.deliver(old, &rst, w.now);
                w.run(1);
            } else {
                w.client.export_conn(cs).unwrap();
                assert!(w.client.wake.contains(&(cs, old)));
            }
            assert!(!alive(&w.client, cs));
            let fresh = w.client.socket();
            assert_eq!(slot(&w.client, fresh), old, "the slot is reused");
            let to = SockAddr::new(SERVER_IP, 80);
            w.client.connect(fresh, to, w.now).unwrap();
            let before = w.client.stats().conns_polled;
            w.run(1);
            assert_eq!(w.client.stats().conns_polled - before, 1, "polled once");
            // The newcomer settles into an idle connection; its own lazy
            // entry, if it comes due first, costs it one poll.
            w.run(9);
            assert!(w.client.poll(fresh).writable());
            let own = conn_slot(&w.client, fresh).unwrap().armed;
            assert_eq!(armed_timers(&w.client), usize::from(own.is_some()));
            assert!(w.client.timers.len() > armed_timers(&w.client) && w.now < armed);
            let before = w.client.stats().conns_polled;
            while w.now <= armed {
                w.run(1);
            }
            let own_polls = u64::from(own.is_some_and(|at| at <= armed));
            assert_eq!(w.client.stats().conns_polled - before, own_polls);
            assert_eq!(w.client.timers.len(), armed_timers(&w.client), "lapsed");
        }
    }

    /// The timer heap deletes lazily, so a connection that leaves leaves its
    /// entries behind, due an RTO or a TIME-WAIT later. A thousand short
    /// connections, a few at a time, keep each stack's heap within
    /// `2·live + 64` after every tick, with most of them parked as tuples.
    #[test]
    fn the_timer_heap_stays_within_twice_the_live_connections() {
        const N: usize = 1_000;
        const AT_ONCE: usize = 8;
        let mut w = World::new();
        let ls = listening_server(&mut w, 80);
        let to = SockAddr::new(SERVER_IP, 80);
        let (mut opened, mut clients, mut served) = (0, Vec::new(), Vec::new());
        let mut buf = [0u8; 16];
        while opened < N || !clients.is_empty() || !served.is_empty() {
            while opened < N && clients.len() < AT_ONCE {
                let cs = w.client.socket();
                w.client.connect(cs, to, w.now).unwrap();
                clients.push(cs);
                opened += 1;
            }
            w.run(1);
            for stack in [&w.client, &w.server] {
                assert!(
                    stack.timers.len() <= 2 * stack.live + 64,
                    "{} timer entries for {} connections at {}",
                    stack.timers.len(),
                    stack.live,
                    w.now
                );
            }
            clients.retain(|&cs| {
                let open = w.client.poll(cs).writable();
                if open {
                    w.client.send(cs, b"ping").unwrap();
                    w.client.close(cs).unwrap();
                }
                !open
            });
            served.extend(std::iter::from_fn(|| {
                w.server.accept(ls).ok().map(|(c, _)| c)
            }));
            served.retain(|&conn| loop {
                match w.server.recv(conn, &mut buf) {
                    Ok(0) => {
                        w.server.close(conn).unwrap();
                        break false;
                    }
                    Ok(_) => {}
                    Err(_) => break true,
                }
            });
        }
        assert!(entries(&w.client).0 > N / 2, "{:?}", entries(&w.client));
    }

    /// A `recv` queues its connection only for work it left. 100 bytes
    /// read out of a wide window owe the peer nothing, so the next tick
    /// polls nothing; the read that opens the window by an MSS owes an
    /// update, which the next tick polls and sends.
    #[test]
    fn a_recv_that_owes_nothing_costs_no_poll() {
        const MSS: usize = nk_types::constants::MSS;
        let mut w = World::new();
        let (cs, conn) = established(&mut w);
        assert_eq!(w.client.send(cs, &[7u8; 2 * MSS]), Ok(2 * MSS));
        w.run(10);
        let mut buf = [0u8; 2 * MSS];
        let before = w.server.stats();
        assert_eq!(w.server.recv(conn, &mut buf[..100]), Ok(100));
        w.run(1);
        let after = w.server.stats();
        assert_eq!(after.conns_polled, before.conns_polled, "nothing owed");
        assert_eq!(after.segments_out, before.segments_out);
        assert_eq!(w.server.recv(conn, &mut buf), Ok(2 * MSS - 100));
        w.run(1);
        let last = w.server.stats();
        assert_eq!(last.conns_polled - after.conns_polled, 1);
        assert_eq!(last.segments_out - after.segments_out, 1, "one update");
    }

    /// A 64-B request and its reply cost two segments: the reply carries
    /// the ACK of the request, and the next request the ACK of the reply.
    /// Only the last reply, which no request follows, is acknowledged on
    /// its own, `ACK_DELAY_NS` after it arrived.
    #[test]
    fn an_rpc_echo_costs_two_segments() {
        let mut w = World::new();
        let (cs, conn) = established(&mut w);
        w.run(10);
        let segments = |w: &World| w.client.stats().segments_out + w.server.stats().segments_out;
        /// Run rounds until `sock`, on the server or the client, holds 64
        /// bytes, and read them.
        fn await_64(w: &mut World, server: bool, sock: SocketId) -> [u8; 64] {
            let mut buf = [0u8; 64];
            for _ in 0..10 {
                w.run(1);
                let stack = if server { &mut w.server } else { &mut w.client };
                if stack.recv(sock, &mut buf) == Ok(64) {
                    return buf;
                }
            }
            panic!("no 64-B message within 10 rounds");
        }
        for i in 0..20u8 {
            let before = segments(&w);
            assert_eq!(w.client.send(cs, &[i; 64]), Ok(64));
            let request = await_64(&mut w, true, conn);
            assert_eq!(w.server.send(conn, &request), Ok(64));
            assert_eq!(await_64(&mut w, false, cs), [i; 64]);
            assert_eq!(segments(&w) - before, 2, "exchange {i}");
        }
        let last = segments(&w);
        w.run((crate::conn::ACK_DELAY_NS / 100_000) as usize + 1);
        assert_eq!(segments(&w) - last, 1, "the last reply's ACK");
        assert!(w.server.conn_quiet(conn));
    }

    /// A one-way write draws its ACK at the first tick `ACK_DELAY_NS` after
    /// it arrived: not before, and not never. The ACK-FIFO entry is what
    /// wakes the connection; no timer entry does.
    #[test]
    fn a_one_way_write_is_acknowledged_after_the_ack_delay() {
        const DELAY: u64 = crate::conn::ACK_DELAY_NS;
        let mut w = World::new();
        let (cs, _conn) = established(&mut w);
        w.run(10);
        assert_eq!(w.client.send(cs, b"one way"), Ok(7));
        let (received, quiet) = (w.server.stats().segments_in, w.server.stats().segments_out);
        let heap = w.server.timers.len();
        while w.server.stats().segments_in == received {
            assert!(w.now < 10_000_000, "the write never arrived");
            w.run(1);
        }
        let arrived = w.now;
        assert_eq!(w.server.timers.len(), heap, "no timer entry");
        assert_eq!(w.server.acks.len(), 1);
        while w.now < arrived + DELAY {
            assert_eq!(w.server.stats().segments_out, quiet, "at {} ns", w.now);
            assert!(!w.client.conn_quiet(cs));
            w.run(1);
        }
        assert_eq!(w.now, arrived + DELAY);
        assert_eq!(w.server.stats().segments_out, quiet + 1, "the ACK");
        assert!(w.server.acks.is_empty() && w.server.timers.len() == heap);
        w.run(1);
        assert!(w.client.conn_quiet(cs));
    }

    #[test]
    fn closed_connections_are_reaped() {
        let mut w = World::new();
        let (cs, conn) = established(&mut w);
        let before = w.server.socket_count();
        // Both sides close; after the exchange the server connection should
        // eventually disappear from the table.
        w.client.close(cs).unwrap();
        w.run(5);
        let mut buf = [0u8; 4];
        let _ = w.server.recv(conn, &mut buf);
        w.server.close(conn).unwrap();
        // Run long enough for FIN exchange plus TIME-WAIT to expire.
        for _ in 0..30 {
            w.run(10);
            w.now += 10_000_000;
        }
        assert!(w.server.socket_count() < before, "connection not reaped");
    }

    /// Epoll interest dies with its socket, as in GuestLib: closed without
    /// `epoll_unregister`, a listener goes at once and a connection when it
    /// is reaped (it used to read as `ERROR` on every `epoll_wait`, forever);
    /// an id the stack never issued cannot be registered.
    #[test]
    fn epoll_interest_dies_with_the_socket() {
        let mut w = World::new();
        let ls = listening_server(&mut w, 80);
        let cs = w.client.socket();
        SocketApi::connect(&mut w.client, cs, SockAddr::new(SERVER_IP, 80)).unwrap();
        w.run(10);
        let (conn, _) = w.server.accept(ls).unwrap();
        let api: &mut dyn SocketApi = &mut w.server;
        api.epoll_register(ls, PollEvents::READABLE).unwrap();
        api.epoll_register(conn, PollEvents::READABLE).unwrap();
        let never = SocketId(999);
        let refused = api.epoll_register(never, PollEvents::READABLE);
        assert_eq!(refused, Err(NkError::BadSocket));
        assert_eq!(api.epoll_unregister(never), Err(NkError::BadSocket));
        api.close(ls).unwrap();
        TcpStack::close(&mut w.server, conn).unwrap(); // underneath the trait
        w.client.close(cs).unwrap();
        // FIN exchange plus TIME-WAIT.
        for _ in 0..30 {
            w.run(10);
            w.now += 10_000_000;
        }
        assert_eq!(w.server.socket_count(), 0, "connection not reaped");
        assert_eq!(SocketApi::epoll_wait(&mut w.server, 8), vec![]);
    }

    /// A connection exported from one stack instance and installed into
    /// another (standing on a different host, with a different local IP)
    /// keeps streaming: the 4-tuple survives, the new stack demultiplexes
    /// the peer's frames, and every byte arrives.
    #[test]
    fn export_install_moves_a_live_connection_between_stacks() {
        let mut w = World::new();
        let (cs, conn) = established(&mut w);
        assert_eq!(w.client.send(cs, b"before the move").unwrap(), 15);
        w.run(10);
        let mut buf = [0u8; 64];
        assert_eq!(w.server.recv(conn, &mut buf).unwrap(), 15);

        // Transplant: the client IP's switch port is re-homed (the fabric
        // reroute) and a stack with a *different* local IP adopts the
        // connection.
        w.client.send(cs, b"queued, ").unwrap(); // leaves with the snapshot
        assert!(w.client.conn_quiet(cs));
        let snap = w.client.export_conn(cs).unwrap();
        assert_eq!(snap.local.ip, CLIENT_IP);
        let new_port = w.switch.attach(CLIENT_IP);
        let mut migrated = TcpStack::new(StackConfig::new(0x0A00_0009), new_port);
        let new_sock = migrated.install_conn(&snap).unwrap();

        // Stray frames for the tuple at the old stack are dropped, not
        // reset; its timer left with it.
        assert_eq!(w.client.export_conn(cs), Err(NkError::BadSocket));
        assert_eq!(armed_timers(&w.client), 0);

        // The installed connection is polled on its first tick, unprompted:
        // the bytes the snapshot carried go out, the window ACK on them.
        w.now += 100_000;
        assert_eq!(migrated.tick(w.now), 1);
        assert_eq!(migrated.stats().conns_polled, 1);
        migrated.send(new_sock, b"after the move").unwrap();
        for _ in 0..10 {
            w.now += 100_000;
            migrated.tick(w.now);
            w.server.tick(w.now);
            w.switch.step(w.now);
        }
        assert_eq!(w.server.recv(conn, &mut buf).unwrap(), 22);
        assert_eq!(&buf[..22], b"queued, after the move");

        // And the reverse direction reaches the migrated stack.
        w.server.send(conn, b"pong").unwrap();
        for _ in 0..10 {
            w.now += 100_000;
            migrated.tick(w.now);
            w.server.tick(w.now);
            w.switch.step(w.now);
        }
        assert_eq!(migrated.recv(new_sock, &mut buf).unwrap(), 4);

        // Installing the same tuple twice is refused.
        assert_eq!(
            migrated.install_conn(&snap),
            Err(NkError::AlreadyRegistered)
        );
    }

    #[test]
    fn invalid_socket_operations_report_errors() {
        let mut w = World::new();
        let bogus = SocketId(999);
        assert_eq!(w.client.send(bogus, b"x"), Err(NkError::BadSocket));
        assert_eq!(w.client.recv(bogus, &mut [0u8; 4]), Err(NkError::BadSocket));
        assert_eq!(w.client.close(bogus), Err(NkError::BadSocket));
        assert!(w.client.poll(bogus).error());

        let s = w.client.socket();
        assert_eq!(w.client.send(s, b"x"), Err(NkError::NotConnected));
        assert_eq!(w.client.listen(s, 4), Err(NkError::InvalidState));
    }

    /// What one step of [`echo_over`] left: both stacks' statistics, the
    /// bytes each side read, and the segments each side sent, trains
    /// expanded.
    type EchoStep = ([StackStats; 2], [usize; 2], [Vec<Segment>; 2]);

    /// The frames one step moved, by sending side (0 the client).
    type Sent = [Vec<Frame<Segment>>; 2];

    /// A client sends 96 KiB on each of two connections to a server that
    /// echoes what it reads: at most 3 000 B per socket every third step,
    /// through a receive buffer shorter than a train, which it shrinks
    /// every 50 steps for 25, so windows shut mid-train, trains overrun
    /// the shrunk window, and windows reopen by less than one. After both
    /// stacks tick,
    /// `carry` moves what they sent and appends every frame it moved to the
    /// sender's list, by side (0 the client).
    fn echo_over(
        client_port: Port<Segment>,
        server_port: Port<Segment>,
        carry: &mut dyn FnMut(u64, &mut Sent),
    ) -> Vec<EchoStep> {
        const BYTES: usize = 96 * 1024;
        use nk_types::constants::MSS;
        let mut client = TcpStack::new(StackConfig::new(CLIENT_IP), client_port);
        let mut server_cfg = StackConfig::new(SERVER_IP);
        server_cfg.recv_buf = 5 * MSS + 300;
        let mut server = TcpStack::new(server_cfg, server_port);
        let ls = server.socket();
        server.bind(ls, SockAddr::new(0, 80)).unwrap();
        server.listen(ls, 4).unwrap();
        let mut todo: Vec<(SocketId, Vec<u8>)> = (0..2u64)
            .map(|i| {
                let cs = client.socket();
                client.connect(cs, SockAddr::new(SERVER_IP, 80), 0).unwrap();
                (cs, seeded(i, BYTES))
            })
            .collect();
        let clients: Vec<SocketId> = todo.iter().map(|(cs, _)| *cs).collect();
        let mut served = Vec::new();
        let mut buf = vec![0u8; 64 * 1024];
        let mut echoed = [0usize; 2];
        let mut steps = Vec::new();
        for step in 1..=4_000u64 {
            let now = step * 100_000;
            todo.retain_mut(|(cs, data)| {
                let n = client.send(*cs, data).unwrap_or(0);
                data.drain(..n);
                !data.is_empty()
            });
            client.tick(now);
            server.tick(now);
            let mut sent = [Vec::new(), Vec::new()];
            carry(now, &mut sent);
            served.extend(std::iter::from_fn(|| server.accept(ls).ok()).map(|(s, _)| s));
            if step % 25 == 0 {
                let cap = [5 * MSS + 300, 2 * MSS + 100][(step / 25 % 2) as usize];
                for &s in &served {
                    server.set_sockopt(s, sockopt::RCVBUF, cap as u32).unwrap();
                }
            }
            let mut read = [0, 0];
            if step % 3 == 0 {
                for &s in &served {
                    let n = server.recv(s, &mut buf[..3_000]).unwrap_or(0);
                    if n > 0 {
                        assert_eq!(server.send(s, &buf[..n]), Ok(n), "the echo fits");
                    }
                    read[1] += n;
                }
            }
            for &cs in &clients {
                read[0] += client.recv(cs, &mut buf).unwrap_or(0);
            }
            echoed[0] += read[0];
            let sent = sent.map(|frames| {
                let pieces = frames.into_iter().flat_map(Train::into_frames);
                pieces.map(|f| f.payload).collect()
            });
            steps.push(([client.stats(), server.stats()], read, sent));
            if echoed[0] == 2 * BYTES {
                return steps;
            }
        }
        panic!("the echo did not complete: {echoed:?}");
    }

    /// Seeded bytes for connection `i`.
    fn seeded(i: u64, len: usize) -> Vec<u8> {
        let mut rng = nk_sim::SplitMix64::new(i + 1);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    /// Trains change no count and no answer: the echo run over a switch,
    /// which carries every train whole, and over a wire that splits every
    /// train into its segments before delivering them, agrees at every
    /// step on both stacks' statistics, the bytes read and the segments
    /// sent. Some trains cross, and some are taken apart by a receive
    /// window that shuts.
    #[test]
    fn a_wire_that_splits_every_train_changes_nothing() {
        let mut switch = VirtualSwitch::new();
        let (cp, sp) = (switch.attach(CLIENT_IP), switch.attach(SERVER_IP));
        let mut trains = 0;
        // Each stack drains its receive queue as it ticks, so after a
        // switch step the queues hold what that step delivered: the
        // server's what the client sent, and the other way round.
        let delivered_from = [sp.clone(), cp.clone()];
        let whole = echo_over(cp, sp, &mut |now, sent| {
            switch.step(now);
            for (from, port) in delivered_from.iter().enumerate() {
                port.deliver_burst(|rx| {
                    trains += rx.iter().filter(|f| f.payload.frames() > 1).count();
                    sent[from].extend(rx.iter().cloned());
                });
            }
        });
        let ports = [Port::new(CLIENT_IP), Port::new(SERVER_IP)];
        let (cp, sp) = (ports[0].clone(), ports[1].clone());
        let split = echo_over(cp, sp, &mut |_, sent| {
            for from in 0..2 {
                ports[from].drain_tx_into(&mut sent[from]);
                let pieces = sent[from].iter().cloned().flat_map(Train::into_frames);
                ports[1 - from].deliver_burst(|rx| rx.extend(pieces));
            }
        });
        assert!(trains > 100, "{trains} trains crossed the switch");
        assert_eq!(whole.len(), split.len());
        for (step, (a, b)) in whole.iter().zip(&split).enumerate() {
            assert_eq!(a, b, "step {}", step + 1);
        }
    }
}
