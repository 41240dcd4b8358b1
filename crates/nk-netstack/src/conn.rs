//! The per-connection TCP state machine.
//!
//! Implements the subset of TCP the evaluation exercises: three-way
//! handshake, cumulative-ACK sliding-window data transfer, receiver flow
//! control with silly-window avoidance, a persist timer, retransmission
//! (RTO with exponential backoff and fast retransmit on three duplicate
//! ACKs), delayed ACKs, out-of-order reassembly, and orderly FIN / abortive
//! RST teardown. Congestion control is delegated to a
//! [`CongestionControl`] implementation chosen per NSM.

use crate::cc::{Cc, CcAlgorithm, CongestionControl};
use crate::payload::{ByteQueue, Payload};
use crate::segment::{seq_ge, seq_gt, seq_le, seq_lt, Segment, SegmentFlags};
use nk_fabric::Train;
use nk_types::constants::{DEFAULT_RECV_BUF, DEFAULT_SEND_BUF, MSS};
use nk_types::migrate::{TcpConnSnapshot, TcpPhase};
use nk_types::{NkError, NkResult, Recycler, SockAddr};
use std::collections::BTreeMap;

/// TCP connection states (RFC 793 names).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConnState {
    /// SYN sent, waiting for SYN-ACK (active open).
    SynSent,
    /// SYN received, SYN-ACK sent, waiting for the final ACK (passive open).
    SynReceived,
    /// Data transfer.
    Established,
    /// We closed first; FIN sent, waiting for its ACK.
    FinWait1,
    /// Our FIN was acknowledged; waiting for the peer's FIN.
    FinWait2,
    /// Peer closed first; waiting for the application to close.
    CloseWait,
    /// Both sides closed simultaneously.
    Closing,
    /// Peer closed, we sent our FIN, waiting for its ACK.
    LastAck,
    /// Connection fully closed, lingering briefly.
    TimeWait,
    /// Connection is gone.
    Closed,
}

/// Default retransmission timeout before an RTT estimate exists.
const INITIAL_RTO_NS: u64 = 50_000_000;
/// Lower bound on the RTO.
const MIN_RTO_NS: u64 = 10_000_000;
/// How long the ACK of an in-order segment waits for a segment to ride on
/// (RFC 9293 §3.8.6.3 allows up to 0.5 s). Five 100 µs steps: long enough
/// for an rpc reply to come back through the NSM and carry it, and 1/20 of
/// [`MIN_RTO_NS`], so no retransmission timer fires on a delayed ACK. One
/// constant, so every deadline is `now + ACK_DELAY_NS` and the stack keeps
/// them in arrival order in a FIFO.
pub(crate) const ACK_DELAY_NS: u64 = 500_000;
/// Upper bound on the RTO.
const MAX_RTO_NS: u64 = 2_000_000_000;
/// RTO backoffs an unanswered SYN or SYN-ACK gets before its embryonic
/// connection gives up: Linux's `tcp_synack_retries` (its SYN bound,
/// `tcp_syn_retries`, is 6), ≈ 3.1 s from [`INITIAL_RTO_NS`].
const HANDSHAKE_RETRIES: u64 = 5;
/// How long a connection lingers in TIME-WAIT (shortened 2MSL).
const TIME_WAIT_NS: u64 = 50_000_000;
/// Duplicate-ACK threshold for fast retransmit.
const DUPACK_THRESHOLD: u32 = 3;

/// Per-connection statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Payload bytes handed to the peer (acknowledged).
    pub bytes_acked: u64,
    /// Payload bytes delivered to the application.
    pub bytes_received: u64,
    /// Segments retransmitted (timeouts plus fast retransmits).
    pub retransmits: u64,
    /// Retransmission timeouts fired.
    pub timeouts: u64,
    /// Fast retransmits triggered.
    pub fast_retransmits: u64,
}

/// A TCP connection.
pub struct TcpConnection {
    local: SockAddr,
    remote: SockAddr,
    state: ConnState,

    // ---- Send side ----
    /// First unacknowledged sequence number.
    snd_una: u32,
    /// Next sequence number to send.
    snd_nxt: u32,
    /// Send buffer: bytes from `snd_una` onwards (unacked + unsent).
    send_buf: ByteQueue,
    /// Maximum bytes the send buffer accepts.
    send_buf_cap: usize,
    /// Peer's advertised receive window.
    snd_wnd: u32,
    /// Application asked to close the write side.
    fin_queued: bool,
    /// Sequence number our FIN occupies once sent.
    fin_seq: Option<u32>,

    // ---- Receive side ----
    /// Next expected sequence number.
    rcv_nxt: u32,
    /// In-order data ready for the application.
    recv_buf: ByteQueue,
    /// Maximum bytes buffered for the application.
    recv_buf_cap: usize,
    /// Out-of-order segments awaiting the gap to fill.
    ooo: BTreeMap<u32, Payload>,
    /// Sequence number of the peer's FIN, once seen.
    peer_fin_seq: Option<u32>,
    /// The peer's FIN has been consumed (rcv_nxt advanced past it).
    peer_fin_received: bool,
    /// The right edge of the receive window last advertised: every segment
    /// `poll_transmit` emits carries `rcv_nxt + recv_window()`. The peer may
    /// send up to here, so `rcv_adv − rcv_nxt` is the window it sees.
    rcv_adv: u32,
    /// An ACK is owed at the next poll: a FIN, a SYN-ACK or a segment that
    /// does not take the delayed path ([`TcpConnection::process_payload`])
    /// arrived, the delayed ACK's deadline passed, or the window opened past
    /// what the peer sees ([`TcpConnection::window_update_owed`]).
    ack_pending: bool,
    /// The delayed ACK (RFC 9293 §3.8.6.3): in-order data arrived at
    /// `deadline − ACK_DELAY_NS` and has not been acknowledged. Whatever
    /// segment goes out first carries the ACK and clears it; at the deadline
    /// it becomes `ack_pending`.
    ack_deadline: Option<u64>,
    /// Full-sized segments received since the last segment sent: the second
    /// is acknowledged at once (RFC 5681 §4.2).
    full_unacked: u8,
    /// Immediate duplicate ACKs owed for out-of-order arrivals (one per
    /// out-of-order segment, so the sender's fast-retransmit logic sees them).
    dup_ack_burst: u32,

    // ---- Timers and RTT ----
    rto_ns: u64,
    srtt_ns: Option<u64>,
    rttvar_ns: u64,
    /// Retransmission timer deadline (armed while data or FIN is in flight).
    rto_deadline: Option<u64>,
    /// One in-flight RTT measurement: (sequence that completes it, send time).
    rtt_sample: Option<(u32, u64)>,
    /// Consecutive duplicate ACKs observed.
    dup_acks: u32,
    /// Time at which TIME-WAIT expires.
    time_wait_deadline: Option<u64>,
    /// Persist timer (RFC 9293 §3.8.6.1), `(deadline, interval)`: armed while
    /// the peer's zero window holds back unsent bytes with nothing in flight.
    persist: Option<(u64, u64)>,

    cc: Cc,
    stats: ConnStats,
    /// A reset must be emitted to the peer.
    rst_pending: bool,
    /// The application closed the socket ([`TcpConnection::release`]):
    /// nothing reads what arrives any more.
    released: bool,
}

impl TcpConnection {
    /// Start an active open (client side): the first `poll_transmit` emits a
    /// SYN.
    pub fn connect(local: SockAddr, remote: SockAddr, iss: u32, cc: Cc, now_ns: u64) -> Self {
        let mut c = Self::new_common(local, remote, iss, cc);
        c.state = ConnState::SynSent;
        c.snd_nxt = iss; // SYN not yet emitted; poll_transmit sends it.
        c.rto_deadline = Some(now_ns + c.rto_ns);
        c
    }

    /// Start a passive open (server side) in response to a received SYN: the
    /// first `poll_transmit` emits the SYN-ACK.
    pub fn accept(
        local: SockAddr,
        remote: SockAddr,
        iss: u32,
        syn: &Segment,
        cc: Cc,
        now_ns: u64,
    ) -> Self {
        debug_assert!(syn.flags.syn);
        let mut c = Self::new_common(local, remote, iss, cc);
        c.state = ConnState::SynReceived;
        c.rcv_nxt = syn.seq.wrapping_add(1);
        c.snd_wnd = syn.window.max(MSS as u32);
        c.ack_pending = true;
        c.rto_deadline = Some(now_ns + c.rto_ns);
        c
    }

    fn new_common(local: SockAddr, remote: SockAddr, iss: u32, cc: Cc) -> Self {
        TcpConnection {
            local,
            remote,
            state: ConnState::Closed,
            snd_una: iss,
            snd_nxt: iss,
            send_buf: ByteQueue::default(),
            send_buf_cap: DEFAULT_SEND_BUF,
            snd_wnd: 64 * 1024,
            fin_queued: false,
            fin_seq: None,
            rcv_nxt: 0,
            recv_buf: ByteQueue::default(),
            recv_buf_cap: DEFAULT_RECV_BUF,
            ooo: BTreeMap::new(),
            peer_fin_seq: None,
            peer_fin_received: false,
            rcv_adv: 0,
            ack_pending: false,
            ack_deadline: None,
            full_unacked: 0,
            dup_ack_burst: 0,
            rto_ns: INITIAL_RTO_NS,
            srtt_ns: None,
            rttvar_ns: 0,
            rto_deadline: None,
            rtt_sample: None,
            dup_acks: 0,
            time_wait_deadline: None,
            persist: None,
            cc,
            stats: ConnStats::default(),
            rst_pending: false,
            released: false,
        }
    }

    // ---- Accessors -------------------------------------------------------

    /// Local endpoint address.
    pub fn local(&self) -> SockAddr {
        self.local
    }

    /// Remote endpoint address.
    pub fn remote(&self) -> SockAddr {
        self.remote
    }

    /// Current state.
    pub fn state(&self) -> ConnState {
        self.state
    }

    /// True once the handshake completed.
    pub fn is_established(&self) -> bool {
        matches!(
            self.state,
            ConnState::Established
                | ConnState::FinWait1
                | ConnState::FinWait2
                | ConnState::CloseWait
        )
    }

    /// True when the connection is fully closed and can be reaped.
    pub fn is_closed(&self) -> bool {
        self.state == ConnState::Closed
    }

    /// True when the application can read data (or observe EOF).
    pub fn readable(&self) -> bool {
        !self.recv_buf.is_empty() || self.peer_fin_received || self.state == ConnState::Closed
    }

    /// True when the application can write more data.
    pub fn writable(&self) -> bool {
        self.is_established()
            && !self.fin_queued
            && self.send_buf.len() < self.send_buf_cap
            && !matches!(self.state, ConnState::CloseWait if self.fin_queued)
    }

    /// True once the peer has closed its write side and all data was read.
    pub fn peer_closed(&self) -> bool {
        self.peer_fin_received && self.recv_buf.is_empty()
    }

    /// True once the peer's FIN has been received, even if unread data is
    /// still buffered (the `EPOLLRDHUP`-style signal).
    pub fn fin_received(&self) -> bool {
        self.peer_fin_received
    }

    /// Connection statistics.
    pub fn stats(&self) -> ConnStats {
        self.stats
    }

    /// Bytes queued but not yet acknowledged.
    pub fn send_buffered(&self) -> usize {
        self.send_buf.len()
    }

    /// Bytes sent and not yet acknowledged (in flight on the wire). Zero
    /// means the peer has confirmed everything we transmitted — the
    /// wire-quiet condition a warm-migration freeze window waits for.
    pub fn in_flight(&self) -> usize {
        self.snd_nxt.wrapping_sub(self.snd_una) as usize
    }

    /// Bytes available to read right now.
    pub fn recv_available(&self) -> usize {
        self.recv_buf.len()
    }

    /// The congestion window currently granted by the CC algorithm.
    pub fn cwnd(&self) -> usize {
        self.cc.cwnd()
    }

    /// Resize the send buffer (SO_SNDBUF).
    pub fn set_send_buf_cap(&mut self, cap: usize) {
        self.send_buf_cap = cap.max(MSS);
    }

    /// Resize the receive buffer (SO_RCVBUF). A buffer grown far enough
    /// past what the peer sees owes it a window update, as a read does.
    pub fn set_recv_buf_cap(&mut self, cap: usize) {
        self.recv_buf_cap = cap.max(MSS);
        self.ack_pending |= self.window_update_owed();
    }

    // ---- Application interface -------------------------------------------

    /// Queue up to `data.len()` bytes for transmission, copied into a
    /// buffer `recycler` lends when they are a run's worth; returns the
    /// number of bytes accepted (possibly zero when the send buffer is full
    /// or the write side is closed).
    pub fn write(&mut self, data: &[u8], recycler: &mut Recycler) -> usize {
        self.queue_send(data.len(), |queue, n| queue.write(&data[..n], recycler))
    }

    /// [`TcpConnection::write`] of a run, by reference: the bytes the send
    /// buffer admits are taken off the front of `run`, which keeps the
    /// rest, and the send queue points into its buffer (a short run behind
    /// a short run is copied into the queue's open tail, as a short write
    /// is, and the tail is frozen into a buffer `recycler` lends).
    pub fn write_payload(&mut self, run: &mut Payload, recycler: &mut Recycler) -> usize {
        self.queue_send(run.len(), |queue, n| {
            queue.append(run.take_front(n), recycler)
        })
    }

    /// The body `write` and `write_payload` share: how much of `len` bytes
    /// the send buffer admits, queued by `queue`.
    fn queue_send(&mut self, len: usize, queue: impl FnOnce(&mut ByteQueue, usize)) -> usize {
        if self.fin_queued || !self.is_established() && self.state != ConnState::SynSent {
            return 0;
        }
        let room = self.send_buf_cap.saturating_sub(self.send_buf.len());
        let n = room.min(len);
        queue(&mut self.send_buf, n);
        n
    }

    /// Read up to `buf.len()` bytes of in-order data. Returns 0 when no data
    /// is available (check [`TcpConnection::peer_closed`] to distinguish EOF).
    /// A read owes the peer a pure window update only once it opens the
    /// window by min(half the buffer, one MSS) past the edge last
    /// advertised (RFC 9293 §3.8.6.2.2, receiver silly-window avoidance).
    pub fn read(&mut self, buf: &mut [u8]) -> usize {
        self.take_received(|queue| queue.read(buf))
    }

    /// [`TcpConnection::read`] of up to `max` bytes as runs pushed onto
    /// `out`, by reference, owing the peer exactly what that read would.
    pub fn read_runs(&mut self, max: usize, out: &mut Vec<Payload>) -> usize {
        self.take_received(|queue| queue.read_runs(max, out))
    }

    /// The body `read` and `read_runs` share: the bytes `take` moved out of
    /// the receive buffer are delivered, and may owe a window update.
    fn take_received(&mut self, take: impl FnOnce(&mut ByteQueue) -> usize) -> usize {
        let n = take(&mut self.recv_buf);
        if n > 0 {
            self.stats.bytes_received += n as u64;
            self.ack_pending |= self.window_update_owed();
        }
        n
    }

    /// Close the write side (graceful FIN after queued data drains).
    pub fn close(&mut self) {
        if !self.fin_queued {
            self.fin_queued = true;
            match self.state {
                ConnState::Established => self.state = ConnState::FinWait1,
                ConnState::CloseWait => self.state = ConnState::LastAck,
                ConnState::SynSent | ConnState::SynReceived => self.enter_closed(),
                _ => {}
            }
        }
    }

    /// The application closed the socket, both directions. With received
    /// bytes unread the connection aborts with a reset (RFC 1122
    /// §4.2.2.13), and so does payload that arrives afterwards; otherwise
    /// it closes like [`TcpConnection::close`].
    pub fn release(&mut self) {
        self.released = true;
        if self.recv_available() == 0 {
            self.close();
        } else {
            self.abort();
        }
    }

    /// The application closed the socket ([`TcpConnection::release`]).
    pub(crate) fn released(&self) -> bool {
        self.released
    }

    /// Abort the connection: an RST is sent and the state drops to `Closed`.
    pub fn abort(&mut self) {
        if !matches!(self.state, ConnState::Closed | ConnState::TimeWait) {
            self.rst_pending = true;
        }
        self.recv_buf.clear();
        self.enter_closed();
    }

    /// The one way into `Closed`: a dead connection keeps no timer (an RTO
    /// left armed would count phantom timeouts and shrink a shared window).
    fn enter_closed(&mut self) {
        self.state = ConnState::Closed;
        self.rto_deadline = None;
        self.time_wait_deadline = None;
        self.persist = None;
        self.ack_deadline = None;
        self.release_queues();
    }

    /// The one way into TIME-WAIT: a parked connection keeps no queue storage.
    fn enter_time_wait(&mut self, deadline: Option<u64>) {
        self.state = ConnState::TimeWait;
        self.time_wait_deadline = deadline;
        self.release_queues();
    }

    /// A connection that will neither send nor receive again holds no
    /// payload byte but those the application has yet to read. Its queues
    /// keep their capacity (storage, not held bytes), which the next
    /// connection in its slot adopts. Dead sockets wait here for their
    /// reader; a parked one, once it owes nothing and its application let go
    /// of it, leaves the stack but for its 4-tuple
    /// ([`TcpConnection::parked_until`]).
    fn release_queues(&mut self) {
        self.send_buf.clear();
        self.ooo.clear();
    }

    /// Replace the congestion control: the old instance leaves its window.
    pub(crate) fn set_cc(&mut self, cc: Cc) {
        self.cc = cc;
    }

    /// Strip a connection whose slot the stack keeps for the next one: its
    /// congestion control goes at once (a VM-shared window is split among
    /// live flows only; a Reno instance, which holds nothing shared, takes
    /// its place) and its queues forget their bytes but keep their capacity.
    pub(crate) fn retire(&mut self) {
        self.cc = CcAlgorithm::Reno.build();
        self.send_buf.clear();
        self.recv_buf.clear();
        self.ooo.clear();
    }

    /// Give back the queue storage a retired connection kept.
    pub(crate) fn drop_queues(&mut self) {
        self.send_buf = ByteQueue::default();
        self.recv_buf = ByteQueue::default();
    }

    /// Queue storage held: run-table slots and open-tail bytes.
    #[cfg(test)]
    pub(crate) fn queue_capacity(&self) -> usize {
        self.send_buf.capacity() + self.recv_buf.capacity()
    }

    /// Take over the emptied queues of a retired connection, so a connection
    /// opened in a recycled slot does not allocate its run tables and open
    /// tails again. Queues that already hold bytes (a restored snapshot's)
    /// are kept.
    pub(crate) fn adopt_queues(&mut self, retired: &mut TcpConnection) {
        if self.send_buf.is_empty() {
            std::mem::swap(&mut self.send_buf, &mut retired.send_buf);
        }
        if self.recv_buf.is_empty() {
            std::mem::swap(&mut self.recv_buf, &mut retired.recv_buf);
        }
    }

    /// The peer's zero window holds back every unsent byte and nothing is in
    /// flight, so no ACK or retransmission timer will come: only the persist
    /// timer (or the peer's own update) moves the connection on.
    fn window_shut(&self) -> bool {
        self.snd_wnd == 0 && self.snd_nxt == self.snd_una
    }

    /// The end of TIME-WAIT, once the connection is parked there owing
    /// nothing: no segment or RST to send, no retransmission timer, no
    /// unread byte. All it can still do is expire at that deadline or die of
    /// a reset.
    pub(crate) fn parked_until(&self) -> Option<u64> {
        if self.state != ConnState::TimeWait
            || self.needs_poll()
            || self.rto_deadline.is_some()
            || self.ack_deadline.is_some()
            || !self.recv_buf.is_empty()
        {
            return None;
        }
        self.time_wait_deadline
    }

    // ---- Segment processing -----------------------------------------------

    /// Process an incoming segment addressed to this connection. A train
    /// leaves it exactly as its segments would, one by one.
    pub fn on_segment(&mut self, seg: &Segment, now_ns: u64) {
        if seg.frames() > 1 {
            self.on_train(seg, now_ns);
            return;
        }
        if seg.flags.rst {
            // A reset kills the connection immediately.
            self.enter_closed();
            self.peer_fin_received = true;
            return;
        }
        match self.state {
            ConnState::SynSent => {
                if seg.flags.syn && seg.flags.ack && seg.ack == self.snd_nxt {
                    self.rcv_nxt = seg.seq.wrapping_add(1);
                    self.snd_una = seg.ack;
                    self.snd_wnd = seg.window.max(MSS as u32);
                    self.state = ConnState::Established;
                    self.ack_pending = true;
                    self.rto_deadline = None;
                    self.take_rtt_sample(seg.ack, now_ns);
                }
                return;
            }
            ConnState::SynReceived if seg.flags.ack && seg.ack == self.snd_nxt => {
                self.snd_una = seg.ack;
                self.snd_wnd = seg.window.max(MSS as u32);
                self.state = ConnState::Established;
                self.rto_deadline = None;
            }
            // Fall through: the ACK may carry data.
            ConnState::TimeWait | ConnState::Closed => {
                return;
            }
            // A SYN after the handshake is the peer's SYN-ACK again: our final
            // ACK was lost. Repeat it, or a peer we never write to stays in
            // `SynReceived` forever.
            _ if seg.flags.syn && self.state != ConnState::SynReceived => self.ack_pending = true,
            _ => {}
        }

        if seg.flags.ack {
            self.process_ack(seg, now_ns);
        }
        let end = seg.seq.wrapping_add(seg.payload.len() as u32);
        if self.released && !seg.payload.is_empty() && seq_gt(end, self.rcv_nxt) {
            // New data for a socket nobody reads any more.
            self.abort();
            return;
        }
        if !seg.payload.is_empty() || seg.flags.fin {
            self.process_payload(seg, now_ns);
        }
    }

    /// A train leaves the connection exactly as its segments would one by
    /// one: in one step when [`TcpConnection::takes_whole`] admits it, else
    /// segment by segment. In one step, every segment carries the ACK and
    /// window of the first, and data, so only the first one's ACK can act;
    /// every segment is full-sized, so the first may delay the ACK and the
    /// second owes it at once.
    fn on_train(&mut self, seg: &Segment, now_ns: u64) {
        if !self.takes_whole(seg) {
            for piece in seg.clone().into_frames() {
                self.on_segment(&piece, now_ns);
            }
            return;
        }
        self.process_ack(seg, now_ns);
        self.recv_buf.push(seg.payload.clone());
        self.rcv_nxt = self.rcv_nxt.wrapping_add(seg.payload.len() as u32);
        if self.full_unacked == 0 {
            self.ack_deadline.get_or_insert(now_ns + ACK_DELAY_NS);
        }
        self.full_unacked = 2;
        self.ack_pending = true;
    }

    /// Whether a train is taken in one step: it is new in-order data with a
    /// plain ACK, on an established connection, and nothing it meets ends a
    /// segment's processing early — it fits the receive window, fills no
    /// hole and reaches no FIN.
    fn takes_whole(&self, seg: &Segment) -> bool {
        self.state == ConnState::Established
            && seg.seq == self.rcv_nxt
            && seg.payload.len() <= self.recv_window()
            && self.ooo.is_empty()
            && self.peer_fin_seq.is_none()
            && seg.flags == SegmentFlags::ack()
    }

    fn process_ack(&mut self, seg: &Segment, now_ns: u64) {
        let ack = seg.ack;
        // RFC 5681 §2: an ACK that moves the window is a window update (the
        // peer's application read), never a duplicate.
        let window_moved = seg.window != self.snd_wnd;
        self.snd_wnd = seg.window;
        if seg.window > 0 {
            self.persist = None; // the window opened: no probe is owed
        }
        // The highest sequence number this side can ever have sent: all it
        // buffers, plus its FIN. `snd_nxt` is not that bound — an RTO, a
        // fast retransmit and a warm-migration restore all rewind it to
        // `snd_una` (go-back-N) while the peer may already hold everything
        // sent before the rewind, and refusing its ACKs as "from the
        // future" would re-send the same window forever.
        let data_end = self.snd_una.wrapping_add(self.send_buf.len() as u32);
        let snd_max = data_end.wrapping_add(u32::from(self.fin_queued));
        if seq_gt(ack, self.snd_una) && seq_le(ack, snd_max) {
            if seq_gt(ack, self.snd_nxt) {
                // Acknowledged before it was re-sent: resume from the ACK.
                self.snd_nxt = ack;
                if seq_gt(ack, data_end) {
                    self.fin_seq = Some(data_end); // the ACK covers our FIN
                }
            }
            let acked = ack.wrapping_sub(self.snd_una) as usize;
            // Remove acknowledged bytes (the FIN consumes one sequence number
            // but no buffer byte).
            let mut data_acked = acked;
            if let Some(fin_seq) = self.fin_seq {
                if seq_gt(ack, fin_seq) {
                    data_acked -= 1;
                }
            }
            self.send_buf.consume(data_acked.min(self.send_buf.len()));
            self.snd_una = ack;
            self.dup_acks = 0;
            self.stats.bytes_acked += data_acked as u64;
            self.take_rtt_sample(ack, now_ns);
            self.cc.on_ack(data_acked.max(1), now_ns);

            // Re-arm or clear the retransmission timer.
            if self.snd_una == self.snd_nxt {
                self.rto_deadline = None;
            } else {
                self.rto_deadline = Some(now_ns + self.rto_ns);
            }

            // FIN acknowledged?
            if let Some(fin_seq) = self.fin_seq {
                if seq_ge(self.snd_una, fin_seq.wrapping_add(1)) {
                    match self.state {
                        ConnState::FinWait1 => self.state = ConnState::FinWait2,
                        ConnState::Closing => self.enter_time_wait(Some(now_ns + TIME_WAIT_NS)),
                        ConnState::LastAck => self.enter_closed(),
                        _ => {}
                    }
                }
            }
        } else if ack == self.snd_una
            && self.snd_nxt != self.snd_una
            && seg.payload.is_empty()
            && !window_moved
        {
            // Duplicate ACK.
            self.dup_acks += 1;
            if self.dup_acks == DUPACK_THRESHOLD {
                self.fast_retransmit(now_ns);
            }
        }
    }

    /// Take a segment's data and FIN. Only new in-order data that fits the
    /// window and fills no hole delays its ACK, and only until the second
    /// full-sized segment; anything else — out of order, a duplicate, a hole
    /// filled, a window overrun (a persist probe), a FIN — is acknowledged
    /// at the next poll.
    fn process_payload(&mut self, seg: &Segment, now_ns: u64) {
        let seq = seg.seq;
        if seg.flags.fin {
            let fin_seq = seq.wrapping_add(seg.payload.len() as u32);
            self.peer_fin_seq = Some(fin_seq);
        }
        if !seg.payload.is_empty() {
            let mut delay = false;
            if seq_le(seq, self.rcv_nxt) {
                // Overlapping or exactly in-order: take the part we miss.
                let skip = self.rcv_nxt.wrapping_sub(seq) as usize;
                if skip < seg.payload.len() {
                    let filling = !self.ooo.is_empty();
                    delay = self.accept_in_order(&seg.payload, skip) && !filling;
                    self.drain_ooo();
                }
            } else if seq_lt(seq, self.rcv_nxt.wrapping_add(self.recv_window() as u32)) {
                // Out of order but within the window: stash it and owe the
                // sender an immediate duplicate ACK so it can fast-retransmit.
                self.ooo.entry(seq).or_insert_with(|| seg.payload.clone());
                self.dup_ack_burst += 1;
            }
            self.full_unacked = (self.full_unacked + u8::from(seg.payload.len() >= MSS)).min(2);
            if delay && self.full_unacked < 2 {
                self.ack_deadline.get_or_insert(now_ns + ACK_DELAY_NS);
            } else {
                self.ack_pending = true;
            }
        }
        // Consume the peer's FIN once all data before it has arrived.
        if let Some(fin_seq) = self.peer_fin_seq {
            if self.rcv_nxt == fin_seq && !self.peer_fin_received {
                self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
                self.peer_fin_received = true;
                self.ack_pending = true;
                match self.state {
                    ConnState::Established => self.state = ConnState::CloseWait,
                    ConnState::FinWait1 => self.state = ConnState::Closing,
                    ConnState::FinWait2 => self.enter_time_wait(None), // set on next tick
                    _ => {}
                }
            }
        }
    }

    /// Queue what the receive window admits of `payload[skip..]`, whose
    /// first byte is `rcv_nxt`, by reference. Returns whether all of it fit.
    fn accept_in_order(&mut self, payload: &Payload, skip: usize) -> bool {
        let take = (payload.len() - skip).min(self.recv_window());
        self.recv_buf.push(payload.slice(skip..skip + take));
        self.rcv_nxt = self.rcv_nxt.wrapping_add(take as u32);
        skip + take == payload.len()
    }

    /// Move every stashed segment the stream has reached into the receive
    /// buffer. The stash is keyed by raw sequence number but walked in
    /// sequence *space*: everything in it lies within a window of `rcv_nxt`,
    /// so the earliest entry is the first key at or after `rcv_nxt − 2³¹`,
    /// wrapping to the map's first.
    fn drain_ooo(&mut self) {
        loop {
            let origin = self.rcv_nxt.wrapping_sub(1 << 31);
            let earliest = (self.ooo.range(origin..).next()).or_else(|| self.ooo.iter().next());
            let Some((&seq, _)) = earliest.filter(|(&seq, _)| seq_le(seq, self.rcv_nxt)) else {
                break;
            };
            let payload = self.ooo.remove(&seq).expect("key just observed");
            let skip = self.rcv_nxt.wrapping_sub(seq) as usize;
            if skip < payload.len() && !self.accept_in_order(&payload, skip) {
                break;
            }
        }
    }

    fn take_rtt_sample(&mut self, ack: u32, now_ns: u64) {
        if let Some((seq_end, sent_at)) = self.rtt_sample {
            if seq_ge(ack, seq_end) {
                let rtt = now_ns.saturating_sub(sent_at).max(1);
                match self.srtt_ns {
                    None => {
                        self.srtt_ns = Some(rtt);
                        self.rttvar_ns = rtt / 2;
                    }
                    Some(srtt) => {
                        let diff = srtt.abs_diff(rtt);
                        self.rttvar_ns = (3 * self.rttvar_ns + diff) / 4;
                        self.srtt_ns = Some((7 * srtt + rtt) / 8);
                    }
                }
                let srtt = self.srtt_ns.unwrap();
                self.rto_ns = (srtt + 4 * self.rttvar_ns).clamp(MIN_RTO_NS, MAX_RTO_NS);
                self.rtt_sample = None;
            }
        }
    }

    fn fast_retransmit(&mut self, now_ns: u64) {
        self.stats.fast_retransmits += 1;
        self.stats.retransmits += 1;
        self.cc.on_fast_retransmit();
        // Go back to the first unacknowledged byte.
        self.snd_nxt = self.snd_una;
        if self.fin_seq.is_some() {
            self.fin_seq = None; // will be re-assigned when re-sent
        }
        self.rto_deadline = Some(now_ns + self.rto_ns);
    }

    /// Receive window to advertise.
    pub fn recv_window(&self) -> usize {
        self.recv_buf_cap.saturating_sub(self.recv_buf.len())
    }

    /// Receiver silly-window avoidance (RFC 9293 §3.8.6.2.2, a MUST): a pure
    /// window update is owed once the window this side can offer exceeds
    /// the one the peer sees (`rcv_adv − rcv_nxt`, 0 once `rcv_nxt` has
    /// passed the edge) by at least min(half the buffer, one MSS). A smaller
    /// opening rides on the next segment out; if the window was shut, the
    /// peer's persist probe draws it.
    fn window_update_owed(&self) -> bool {
        let seen = if seq_gt(self.rcv_adv, self.rcv_nxt) {
            self.rcv_adv.wrapping_sub(self.rcv_nxt) as usize
        } else {
            0
        };
        self.recv_window().saturating_sub(seen) >= (self.recv_buf_cap / 2).min(MSS)
    }

    // ---- Output ------------------------------------------------------------

    /// Run timers and append the segments that should be transmitted now to
    /// `out` (the caller's buffer, so a stack ticking many connections
    /// reuses one allocation). A payload that straddles two of the send
    /// queue's runs, and the queue's open tail once it is sent, are copied
    /// into buffers `recycler` lends.
    pub fn poll_transmit(&mut self, now_ns: u64, out: &mut Vec<Segment>, recycler: &mut Recycler) {
        if self.ack_deadline.is_some_and(|at| now_ns >= at) {
            self.ack_pending = true;
        }
        let before = out.len();
        self.emit(now_ns, out, recycler);
        if out.len() > before {
            // Each segment advertised the same window: neither `rcv_nxt` nor
            // the buffer moves while a poll emits. Each carried the ACK, so
            // none is owed any more.
            self.rcv_adv = self.rcv_nxt.wrapping_add(self.recv_window() as u32);
            self.ack_deadline = None;
            self.full_unacked = 0;
        }
    }

    /// When the delayed ACK goes out if no segment carries it first (the
    /// stack's ACK FIFO wakes the connection then). Not a
    /// [`TcpConnection::next_deadline`] timer.
    pub(crate) fn ack_deadline(&self) -> Option<u64> {
        self.ack_deadline
    }

    /// The body of [`TcpConnection::poll_transmit`].
    fn emit(&mut self, now_ns: u64, out: &mut Vec<Segment>, recycler: &mut Recycler) {
        if self.rst_pending {
            self.rst_pending = false;
            let mut rst = Segment::control(self.local, self.remote, SegmentFlags::rst());
            rst.seq = self.snd_nxt;
            out.push(rst);
            return;
        }

        // TIME-WAIT expiry.
        if self.state == ConnState::TimeWait {
            match self.time_wait_deadline {
                None => self.time_wait_deadline = Some(now_ns + TIME_WAIT_NS),
                Some(d) if now_ns >= d => self.enter_closed(),
                _ => {}
            }
        }

        // Retransmission timeout.
        if let Some(deadline) = self.rto_deadline {
            if now_ns >= deadline {
                self.on_rto(now_ns);
            }
        }

        match self.state {
            ConnState::SynSent => {
                // Send the SYN once; it is re-sent only after an RTO rewinds
                // `snd_nxt` back to `snd_una`.
                if self.snd_nxt == self.snd_una {
                    let mut syn = Segment::control(self.local, self.remote, SegmentFlags::syn());
                    syn.seq = self.snd_una;
                    syn.window = self.recv_window() as u32;
                    self.snd_nxt = self.snd_una.wrapping_add(1);
                    self.arm_rto(now_ns);
                    out.push(syn);
                }
                return;
            }
            ConnState::SynReceived => {
                if self.snd_nxt == self.snd_una {
                    let mut synack =
                        Segment::control(self.local, self.remote, SegmentFlags::syn_ack());
                    synack.seq = self.snd_una;
                    synack.ack = self.rcv_nxt;
                    synack.window = self.recv_window() as u32;
                    self.snd_nxt = self.snd_una.wrapping_add(1);
                    self.arm_rto(now_ns);
                    self.ack_pending = false;
                    out.push(synack);
                }
                return;
            }
            ConnState::Closed => return,
            _ => {}
        }

        // Data transmission, bounded by congestion and peer windows.
        let in_flight = self.snd_nxt.wrapping_sub(self.snd_una) as usize;
        let window = self.cc.cwnd().min(self.snd_wnd as usize);
        let mut budget = window.saturating_sub(in_flight);
        let mut offset = self.send_offset();

        let first_data = out.len();
        while budget > 0 && offset < self.send_buf.len() {
            let chunk = MSS.min(self.send_buf.len() - offset).min(budget);
            let mut seg = Segment::control(self.local, self.remote, SegmentFlags::ack());
            seg.seq = self.snd_nxt;
            seg.ack = self.rcv_nxt;
            seg.window = self.recv_window() as u32;
            // A full-sized piece takes the full-sized pieces behind it in
            // its run along, as one train cut once, up to the budget: the
            // train ends where its run does (the piece across the seam is
            // gathered into a buffer of its own, so it travels alone).
            seg.payload = if chunk == MSS {
                self.send_buf.range_units(offset, MSS, budget, recycler)
            } else {
                self.send_buf.range(offset, chunk, recycler)
            };
            if self.rtt_sample.is_none() {
                // The first piece's end, as when every piece was a segment.
                self.rtt_sample = Some((seg.seq.wrapping_add(chunk as u32), now_ns));
            }
            let sent = seg.payload.len();
            self.snd_nxt = self.snd_nxt.wrapping_add(sent as u32);
            offset += sent;
            budget -= sent;
            self.ack_pending = false;
            out.push(seg);
        }
        if out.len() > first_data {
            self.arm_rto(now_ns);
        }

        // Persist timer (RFC 9293 §3.8.6.1): a shut window may wait on an
        // update the peer sent and lost. Probe it with one byte, doubling the
        // interval each time; the ACK the probe draws carries the window.
        if self.window_shut() && offset < self.send_buf.len() {
            match self.persist {
                None => self.persist = Some((now_ns + self.rto_ns, self.rto_ns)),
                Some((at, interval)) if now_ns >= at => {
                    let mut probe = Segment::control(self.local, self.remote, SegmentFlags::ack());
                    probe.seq = self.snd_nxt;
                    probe.ack = self.rcv_nxt;
                    probe.window = self.recv_window() as u32;
                    probe.payload = self.send_buf.range(offset, 1, recycler);
                    let interval = (interval * 2).min(MAX_RTO_NS);
                    self.persist = Some((now_ns + interval, interval));
                    self.ack_pending = false;
                    out.push(probe);
                }
                Some(_) => {}
            }
        } else {
            self.persist = None;
        }

        // FIN once all buffered data has been transmitted.
        if self.fin_queued
            && self.fin_seq.is_none()
            && offset >= self.send_buf.len()
            && matches!(
                self.state,
                ConnState::FinWait1 | ConnState::LastAck | ConnState::Closing
            )
        {
            let mut fin = Segment::control(self.local, self.remote, SegmentFlags::fin_ack());
            fin.seq = self.snd_nxt;
            fin.ack = self.rcv_nxt;
            fin.window = self.recv_window() as u32;
            self.fin_seq = Some(self.snd_nxt);
            self.snd_nxt = self.snd_nxt.wrapping_add(1);
            self.ack_pending = false;
            self.arm_rto(now_ns);
            out.push(fin);
        }

        // Standalone ACKs: one per out-of-order arrival (duplicate ACKs for
        // fast retransmit) plus at most one regular ACK.
        let standalone = self.dup_ack_burst.max(u32::from(self.ack_pending));
        for _ in 0..standalone {
            let mut ack = Segment::control(self.local, self.remote, SegmentFlags::ack());
            ack.seq = self.snd_nxt;
            ack.ack = self.rcv_nxt;
            ack.window = self.recv_window() as u32;
            out.push(ack);
        }
        if standalone > 0 {
            self.ack_pending = false;
            self.dup_ack_burst = 0;
        }
    }

    /// Offset of `snd_nxt` into the send buffer (a FIN already sent takes a
    /// sequence number but no buffer byte).
    fn send_offset(&self) -> usize {
        let offset = self.snd_nxt.wrapping_sub(self.snd_una) as usize;
        match self.fin_seq {
            Some(fin_seq) if seq_ge(self.snd_nxt, fin_seq.wrapping_add(1)) => {
                offset.saturating_sub(1)
            }
            _ => offset,
        }
    }

    /// True when the next [`TcpConnection::poll_transmit`] may act without a
    /// segment, an application call or a timer coming first: unsent bytes
    /// (window-blocked — a shared congestion window can open through a
    /// sibling's ACK — but not behind the peer's shut window, which only a
    /// segment or the persist timer opens), an unsent FIN, SYN or SYN-ACK, a
    /// pending RST or ACK,
    /// a TIME-WAIT without its deadline. Any other connection can be left
    /// alone until an event or its [`TcpConnection::next_deadline`].
    pub fn needs_poll(&self) -> bool {
        match self.state {
            _ if self.rst_pending => true,
            ConnState::Closed => false,
            ConnState::SynSent | ConnState::SynReceived => self.snd_nxt == self.snd_una,
            state => {
                self.send_offset() < self.send_buf.len() && !self.window_shut()
                    || self.ack_pending
                    || self.dup_ack_burst > 0
                    || self.fin_queued
                        && self.fin_seq.is_none()
                        && matches!(
                            state,
                            ConnState::FinWait1 | ConnState::LastAck | ConnState::Closing
                        )
                    || state == ConnState::TimeWait && self.time_wait_deadline.is_none()
            }
        }
    }

    /// The earliest time a timer of this connection fires (`poll_transmit`
    /// acts on it at the first `now_ns >= deadline`): the retransmission
    /// timeout, the persist timer or the end of TIME-WAIT. `None` for a
    /// closed connection. The delayed ACK is not among them: the stack keeps
    /// its deadline in a FIFO (`TcpConnection::ack_deadline`).
    pub fn next_deadline(&self) -> Option<u64> {
        let persist = self.persist.map(|(at, _)| at);
        let timers = [self.rto_deadline, self.time_wait_deadline, persist];
        timers.into_iter().flatten().min()
    }

    fn arm_rto(&mut self, now_ns: u64) {
        if self.snd_nxt != self.snd_una {
            self.rto_deadline = Some(now_ns + self.rto_ns);
        }
    }

    fn on_rto(&mut self, now_ns: u64) {
        let embryonic = matches!(self.state, ConnState::SynSent | ConnState::SynReceived);
        if self.snd_una == self.snd_nxt && !embryonic {
            self.rto_deadline = None;
            return;
        }
        // An embryonic connection whose peer went silent gives up past the
        // bound: a half-open one holds a place in its listener's backlog, an
        // active open's socket waits for its answer. It closes, and the
        // stack reaps it like a failed open. A connection starts in its
        // handshake, so its timeouts there are its SYN's or SYN-ACK's
        // backoffs.
        if embryonic && self.stats.timeouts >= HANDSHAKE_RETRIES {
            self.enter_closed();
            return;
        }
        self.stats.timeouts += 1;
        self.stats.retransmits += 1;
        self.cc.on_timeout();
        // Go-back-N: rewind to the first unacknowledged byte.
        self.snd_nxt = self.snd_una;
        self.fin_seq = None;
        self.rtt_sample = None;
        // Exponential backoff.
        self.rto_ns = (self.rto_ns * 2).min(MAX_RTO_NS);
        self.rto_deadline = Some(now_ns + self.rto_ns);
        self.dup_acks = 0;
    }

    // ---- Warm-migration snapshot and restore -------------------------------

    /// Export this connection's transferable state for a warm migration.
    ///
    /// Only post-handshake connections snapshot: an embryonic connection has
    /// no state worth moving and a closed one has none left. The send side
    /// is rewound to `snd_una` (go-back-N), so whatever was in flight when
    /// the freeze window closed is retransmitted by the destination instead
    /// of being chased across the fabric.
    pub fn snapshot(&self) -> NkResult<TcpConnSnapshot> {
        let phase = match self.state {
            ConnState::Established => TcpPhase::Established,
            ConnState::FinWait1 => TcpPhase::FinWait1,
            ConnState::FinWait2 => TcpPhase::FinWait2,
            ConnState::CloseWait => TcpPhase::CloseWait,
            ConnState::Closing => TcpPhase::Closing,
            ConnState::LastAck => TcpPhase::LastAck,
            ConnState::SynSent
            | ConnState::SynReceived
            | ConnState::TimeWait
            | ConnState::Closed => return Err(NkError::InvalidState),
        };
        Ok(TcpConnSnapshot {
            local: self.local,
            remote: self.remote,
            phase,
            snd_una: self.snd_una,
            send_buf: self.send_buf.to_vec(),
            send_buf_cap: self.send_buf_cap,
            snd_wnd: self.snd_wnd,
            fin_queued: self.fin_queued,
            rcv_nxt: self.rcv_nxt,
            recv_buf: self.recv_buf.to_vec(),
            recv_buf_cap: self.recv_buf_cap,
            ooo: self.ooo.iter().map(|(s, p)| (*s, p.to_vec())).collect(),
            peer_fin_seq: self.peer_fin_seq,
            peer_fin_received: self.peer_fin_received,
            srtt_ns: self.srtt_ns,
            rttvar_ns: self.rttvar_ns,
            rto_ns: self.rto_ns,
        })
    }

    /// Rebuild a connection from a warm-migration snapshot.
    ///
    /// `cc` is a *fresh* congestion-control instance: the network path
    /// changed with the host, so the window is re-probed rather than
    /// carried over. The send side resumes at `snd_una` and retransmits
    /// everything unacknowledged; `ack_pending` is armed so the first tick
    /// announces the receive window to the peer — the handover's "I am
    /// alive here now" signal.
    pub fn restore(snap: &TcpConnSnapshot, cc: Cc) -> Self {
        let state = match snap.phase {
            TcpPhase::Established => ConnState::Established,
            TcpPhase::FinWait1 => ConnState::FinWait1,
            TcpPhase::FinWait2 => ConnState::FinWait2,
            TcpPhase::CloseWait => ConnState::CloseWait,
            TcpPhase::Closing => ConnState::Closing,
            TcpPhase::LastAck => ConnState::LastAck,
        };
        TcpConnection {
            local: snap.local,
            remote: snap.remote,
            state,
            snd_una: snap.snd_una,
            // Go-back-N: the destination re-sends everything unacked.
            snd_nxt: snap.snd_una,
            send_buf: ByteQueue::from(&snap.send_buf[..]),
            send_buf_cap: snap.send_buf_cap,
            snd_wnd: snap.snd_wnd,
            fin_queued: snap.fin_queued,
            // A FIN the source had in flight is re-sent after the data.
            fin_seq: None,
            rcv_nxt: snap.rcv_nxt,
            recv_buf: ByteQueue::from(&snap.recv_buf[..]),
            recv_buf_cap: snap.recv_buf_cap,
            ooo: (snap.ooo.iter())
                .map(|(s, p)| (*s, Payload::from(&p[..])))
                .collect(),
            peer_fin_seq: snap.peer_fin_seq,
            peer_fin_received: snap.peer_fin_received,
            // Unknown here; the ACK owed below announces the window.
            rcv_adv: snap.rcv_nxt,
            ack_pending: true,
            ack_deadline: None,
            full_unacked: 0,
            dup_ack_burst: 0,
            rto_ns: snap.rto_ns.clamp(MIN_RTO_NS, MAX_RTO_NS),
            srtt_ns: snap.srtt_ns,
            rttvar_ns: snap.rttvar_ns,
            rto_deadline: None,
            rtt_sample: None,
            dup_acks: 0,
            time_wait_deadline: None,
            persist: None,
            cc,
            stats: ConnStats::default(),
            rst_pending: false,
            released: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{CcAlgorithm, Reno};
    use std::collections::VecDeque;

    fn addr(port: u16) -> SockAddr {
        SockAddr::v4(10, 0, 0, 1, port)
    }

    fn peer(port: u16) -> SockAddr {
        SockAddr::v4(10, 0, 0, 2, port)
    }

    impl TcpConnection {
        /// [`TcpConnection::write`] with a recycler of its own.
        fn write_bytes(&mut self, data: &[u8]) -> usize {
            self.write(data, &mut Recycler::default())
        }
    }

    /// One `poll_transmit` into a fresh vector, with a recycler of its own.
    fn tx(c: &mut TcpConnection, now: u64) -> Vec<Segment> {
        let mut out = Vec::new();
        c.poll_transmit(now, &mut out, &mut Recycler::default());
        out
    }

    /// One `poll_transmit`, each train expanded into its segments: for a
    /// test that counts, drops or reorders segments one by one.
    fn pieces(c: &mut TcpConnection, now: u64) -> Vec<Segment> {
        tx(c, now)
            .into_iter()
            .flat_map(Train::into_frames)
            .collect()
    }

    /// A connection carries only the congestion signals the fabric raises:
    /// no CE mark or ECN flag widens a segment, and no algorithm that reads
    /// them widens every connection's inline congestion control.
    #[test]
    fn segments_and_connections_hold_no_unraised_signal() {
        use std::mem::size_of;
        assert!(size_of::<Segment>() <= 56, "{} B", size_of::<Segment>());
        assert!(size_of::<Cc>() <= 48, "{} B", size_of::<Cc>());
        let conn = size_of::<TcpConnection>();
        assert!(conn <= 488, "{conn} B");
    }

    fn pair(now: u64) -> (TcpConnection, TcpConnection) {
        let client_cc = CcAlgorithm::Reno.build();
        let mut client = TcpConnection::connect(addr(5000), peer(80), 1000, client_cc, now);
        let syns = tx(&mut client, now);
        assert_eq!(syns.len(), 1);
        assert!(syns[0].flags.syn && !syns[0].flags.ack);

        let server_cc = CcAlgorithm::Reno.build();
        let mut server =
            TcpConnection::accept(peer(80), addr(5000), 9000, &syns[0], server_cc, now);
        let synacks = tx(&mut server, now);
        assert_eq!(synacks.len(), 1);
        assert!(synacks[0].flags.syn && synacks[0].flags.ack);

        client.on_segment(&synacks[0], now);
        assert_eq!(client.state(), ConnState::Established);
        let acks = tx(&mut client, now);
        assert!(!acks.is_empty());
        server.on_segment(&acks[0], now);
        assert_eq!(server.state(), ConnState::Established);
        (client, server)
    }

    /// Shuttle segments between the two ends until both go quiet.
    fn pump(a: &mut TcpConnection, b: &mut TcpConnection, mut now: u64, step: u64) -> u64 {
        for _ in 0..200 {
            let mut quiet = true;
            for seg in tx(a, now) {
                quiet = false;
                b.on_segment(&seg, now);
            }
            for seg in tx(b, now) {
                quiet = false;
                a.on_segment(&seg, now);
            }
            now += step;
            if quiet {
                break;
            }
        }
        now
    }

    /// The server speaks first, and the client's final handshake ACK is
    /// lost: the server's SYN-ACK retransmission must draw a fresh ACK out
    /// of the established client, or the passive open never completes.
    #[test]
    fn a_lost_final_handshake_ack_is_recovered_by_the_syn_ack_retransmission() {
        let mut client =
            TcpConnection::connect(addr(5000), peer(80), 1000, CcAlgorithm::Reno.build(), 0);
        let syn = tx(&mut client, 0).remove(0);
        let reno = CcAlgorithm::Reno.build();
        let mut server = TcpConnection::accept(peer(80), addr(5000), 9000, &syn, reno, 0);
        client.on_segment(&tx(&mut server, 0)[0], 0);
        assert_eq!(client.state(), ConnState::Established);
        assert_eq!(
            tx(&mut client, 0).len(),
            1,
            "the final ACK — lost on the wire"
        );

        // Nobody writes. Two seconds of RTOs later the handshake is done.
        let mut retransmitted = 0;
        for now in (0..2_000_000_000).step_by(1_000_000) {
            for seg in tx(&mut server, now) {
                retransmitted += usize::from(seg.flags.syn);
                client.on_segment(&seg, now);
            }
            for seg in tx(&mut client, now) {
                server.on_segment(&seg, now);
            }
        }
        assert_eq!(server.state(), ConnState::Established);
        assert_eq!(retransmitted, 1, "one retransmission is enough");
        assert_eq!(
            server.write_bytes(b"hello"),
            5,
            "and the server can speak first"
        );
        pump(&mut server, &mut client, 2_000_000_000, 1_000);
        assert_eq!(client.recv_available(), 5);
    }

    #[test]
    fn three_way_handshake() {
        let (c, s) = pair(0);
        assert!(c.is_established());
        assert!(s.is_established());
    }

    #[test]
    fn data_transfer_in_both_directions() {
        let (mut c, mut s) = pair(0);
        let msg = vec![7u8; 10_000];
        assert_eq!(c.write_bytes(&msg), 10_000);
        let now = pump(&mut c, &mut s, 1_000, 1_000);
        assert_eq!(s.recv_available(), 10_000);
        let mut buf = vec![0u8; 10_000];
        assert_eq!(s.read(&mut buf), 10_000);
        assert_eq!(buf, msg);

        // Server replies.
        assert_eq!(s.write_bytes(b"response"), 8);
        pump(&mut c, &mut s, now, 1_000);
        let mut buf = [0u8; 32];
        assert_eq!(c.read(&mut buf), 8);
        assert_eq!(&buf[..8], b"response");
        assert_eq!(c.stats().bytes_acked, 10_000);
    }

    #[test]
    fn segmentation_respects_mss() {
        let (mut c, mut s) = pair(0);
        c.write_bytes(&vec![1u8; 5 * MSS]);
        let segs = pieces(&mut c, 1_000);
        assert!(segs.iter().all(|s| s.len() <= MSS));
        assert!(segs.len() >= 5);
        for seg in &segs {
            s.on_segment(seg, 1_000);
        }
        assert_eq!(s.recv_available(), 5 * MSS);
    }

    #[test]
    fn out_of_order_segments_are_reassembled() {
        let (mut c, mut s) = pair(0);
        c.write_bytes(&vec![9u8; 3 * MSS]);
        let segs = pieces(&mut c, 1_000);
        assert_eq!(segs.len(), 3);
        // Deliver in reverse order.
        for seg in segs.iter().rev() {
            s.on_segment(seg, 1_000);
        }
        assert_eq!(s.recv_available(), 3 * MSS);
        let mut buf = vec![0u8; 3 * MSS];
        s.read(&mut buf);
        assert!(buf.iter().all(|&b| b == 9));
    }

    #[test]
    fn lost_segment_is_retransmitted_on_timeout() {
        let (mut c, mut s) = pair(0);
        c.write_bytes(b"important");
        // First transmission is lost (never delivered).
        let lost = tx(&mut c, 1_000);
        assert_eq!(lost.len(), 1);
        // After the RTO fires the data is retransmitted.
        let retrans = tx(&mut c, 1_000 + INITIAL_RTO_NS + 1);
        assert_eq!(retrans.len(), 1);
        assert_eq!(&retrans[0].payload[..], b"important");
        assert_eq!(c.stats().timeouts, 1);
        s.on_segment(&retrans[0], 1_000 + INITIAL_RTO_NS + 2);
        assert_eq!(s.recv_available(), 9);
    }

    #[test]
    fn triple_duplicate_acks_trigger_fast_retransmit() {
        let (mut c, mut s) = pair(0);
        c.write_bytes(&vec![5u8; 4 * MSS]);
        let segs = pieces(&mut c, 1_000);
        assert!(segs.len() >= 4);
        // Drop the first segment, deliver the rest: the receiver owes one
        // duplicate ACK per out-of-order segment.
        for seg in &segs[1..] {
            s.on_segment(seg, 1_000);
        }
        let acks = tx(&mut s, 1_000);
        assert!(
            acks.len() >= 3,
            "expected >=3 duplicate ACKs, got {}",
            acks.len()
        );
        assert!(acks.iter().all(|a| a.ack == segs[0].seq));
        for ack in &acks {
            c.on_segment(ack, 2_000);
        }
        assert_eq!(c.stats().fast_retransmits, 1, "fast retransmit must fire");
        // The retransmission fills the hole without waiting for the RTO.
        let out = tx(&mut c, 2_500);
        assert!(out
            .iter()
            .any(|seg| seg.seq == segs[0].seq && !seg.payload.is_empty()));
        for seg in &out {
            s.on_segment(seg, 2_500);
        }
        // Shuttle any remaining segments until the stream is complete.
        let mut now = 3_000;
        for _ in 0..100 {
            now += 1_000_000;
            for seg in tx(&mut c, now) {
                s.on_segment(&seg, now);
            }
            for seg in tx(&mut s, now) {
                c.on_segment(&seg, now);
            }
            if s.recv_available() == 4 * MSS {
                break;
            }
        }
        assert_eq!(s.recv_available(), 4 * MSS);
    }

    /// Three reads on the receiver, each opening the window by one MSS,
    /// send three ACKs at the same `ack`, each with a wider window: updates,
    /// not duplicates (RFC 5681 §2), so nothing is retransmitted that was
    /// never lost.
    #[test]
    fn window_updates_are_not_duplicate_acks() {
        let (mut c, mut s) = pair(0);
        c.write_bytes(&vec![5u8; 4 * MSS]);
        let segs = pieces(&mut c, 1_000);
        assert!(segs.len() >= 4);
        for seg in &segs[..3] {
            s.on_segment(seg, 1_000);
        }
        for ack in tx(&mut s, 1_000) {
            c.on_segment(&ack, 1_000);
        }
        let mut buf = [0u8; MSS];
        for _ in 0..3 {
            assert_eq!(s.read(&mut buf), MSS);
            let update = tx(&mut s, 1_500);
            assert_eq!(update.len(), 1);
            assert_eq!(update[0].ack, segs[3].seq, "same ack, wider window");
            c.on_segment(&update[0], 1_500);
        }
        assert_eq!(c.stats().fast_retransmits, 0);
    }

    /// Receiver silly-window avoidance (RFC 9293 §3.8.6.2.2): reads that
    /// open the window by less than an MSS past the edge the peer saw owe it
    /// nothing. The read that brings the opening to one MSS owes one update,
    /// at the same ACK number, which the sender — data still in flight —
    /// does not count as a duplicate.
    #[test]
    fn small_reads_owe_no_window_update_until_it_opens_by_an_mss() {
        let (mut c, mut s) = pair(0);
        c.write_bytes(&vec![5u8; 3 * MSS]);
        let segs = pieces(&mut c, 1_000);
        assert_eq!(segs.len(), 3);
        for seg in &segs[..2] {
            s.on_segment(seg, 1_000);
        }
        for ack in tx(&mut s, 1_000) {
            c.on_segment(&ack, 1_000);
        }
        assert_eq!(c.in_flight(), MSS);
        let mut buf = [0u8; MSS];
        for _ in 0..3 {
            assert_eq!(s.read(&mut buf[..100]), 100);
            assert!(!s.needs_poll());
            assert!(tx(&mut s, 1_500).is_empty(), "a 100-B read owes nothing");
        }
        assert_eq!(s.read(&mut buf[..MSS - 300]), MSS - 300);
        let update = tx(&mut s, 2_000);
        assert_eq!(update.len(), 1);
        assert!(update[0].payload.is_empty() && update[0].flags == SegmentFlags::ack());
        assert_eq!(update[0].ack, segs[2].seq, "the ACK number is unchanged");
        assert_eq!(update[0].window as usize, s.recv_window());
        c.on_segment(&update[0], 2_000);
        assert_eq!((c.dup_acks, c.stats().fast_retransmits), (0, 0));
        assert!(tx(&mut s, 2_500).is_empty(), "the update is owed once");
    }

    /// `read_runs` owes the peer exactly what `read` owes it: two receivers
    /// fed the same segments, one reading bytes and one reading runs of the
    /// same sizes, answer alike after every read — silence for the 100-B
    /// reads, one window update once the window opens by an MSS. The runs
    /// point into the sender's buffer.
    #[test]
    fn small_run_reads_owe_no_window_update_until_it_opens_by_an_mss() {
        let (mut c, mut s) = pair(0);
        let (mut c2, mut s2) = pair(0);
        let data = pattern(0, 3 * MSS);
        c.write_bytes(&data);
        c2.write_payload(&mut Payload::from(&data[..]), &mut Recycler::default());
        let (segs, segs2) = (pieces(&mut c, 1_000), pieces(&mut c2, 1_000));
        assert_eq!(segs, segs2);
        for seg in &segs[..2] {
            s.on_segment(seg, 1_000);
            s2.on_segment(seg, 1_000);
        }
        for ack in tx(&mut s, 1_000) {
            c.on_segment(&ack, 1_000);
        }
        tx(&mut s2, 1_000);
        let mut buf = [0u8; MSS];
        let mut runs = Vec::new();
        for (n, at) in [(100, 1_500), (100, 1_600), (100, 1_700), (MSS - 300, 2_000)] {
            assert_eq!(s.read(&mut buf[..n]), n);
            runs.clear();
            assert_eq!(s2.read_runs(n, &mut runs), n);
            let got: Vec<u8> = runs.iter().flat_map(|run| run.iter().copied()).collect();
            assert_eq!(got, buf[..n]);
            assert!(runs.iter().all(|run| run.shares_buffer(&segs[0].payload)));
            assert_eq!(s2.needs_poll(), s.needs_poll());
            let (update, update2) = (tx(&mut s, at), tx(&mut s2, at));
            assert_eq!(update, update2);
            assert_eq!(update.len(), usize::from(n > 100), "after a {n}-B read");
        }
        assert_eq!(s2.stats().bytes_received, s.stats().bytes_received);
    }

    /// Delayed ACKs (RFC 9293 §3.8.6.3, RFC 1122 §4.2.3.2, RFC 5681 §4.2):
    /// a lone in-order segment is acknowledged [`ACK_DELAY_NS`] after it
    /// arrived, or by whatever the receiver sends first. Every other arrival
    /// is acknowledged by the poll at the same instant: the handshake's
    /// SYN-ACK, an out-of-order segment, one that fills the hole, a
    /// duplicate, a persist probe past a shut window, the second full-sized
    /// segment, a FIN, and a read that owes a window update.
    #[test]
    fn only_in_order_data_delays_its_ack() {
        const T: u64 = 1_000_000;
        /// The segments `c` sends after writing `len` bytes at `at`.
        fn send(c: &mut TcpConnection, len: usize, at: u64) -> Vec<Segment> {
            assert_eq!(c.write_bytes(&pattern(0, len)), len);
            pieces(c, at)
        }
        /// `s`'s answer to `seg`, polled at the instant it arrived: the
        /// ACK number of the one pure ACK, or `None` for silence.
        fn answer(s: &mut TcpConnection, seg: &Segment) -> Option<u32> {
            s.on_segment(seg, T);
            match &tx(s, T)[..] {
                [] => None,
                [ack] if ack.payload.is_empty() && ack.flags.ack => Some(ack.ack),
                other => panic!("{} segments", other.len()),
            }
        }

        // The handshake's final ACK leaves with the SYN-ACK's arrival.
        let mut c =
            TcpConnection::connect(addr(5000), peer(80), 1000, CcAlgorithm::Reno.build(), 0);
        let syn = tx(&mut c, 0).remove(0);
        let reno = CcAlgorithm::Reno.build();
        let mut s = TcpConnection::accept(peer(80), addr(5000), 9000, &syn, reno, 0);
        let syn_ack = tx(&mut s, 0).remove(0);
        assert_eq!(answer(&mut c, &syn_ack), Some(9001));

        // The lone in-order segment waits; nothing else does.
        let (mut c, mut s) = pair(0);
        let seg = send(&mut c, 100, T).remove(0);
        assert_eq!(answer(&mut s, &seg), None, "delayed");
        assert_eq!(s.ack_deadline(), Some(T + ACK_DELAY_NS));
        assert!(tx(&mut s, T + ACK_DELAY_NS - 1).is_empty(), "not before");
        let late = tx(&mut s, T + ACK_DELAY_NS);
        assert_eq!((late.len(), late[0].ack), (1, seg.seq_end()), "not never");
        assert_eq!(s.ack_deadline(), None);

        // Whatever `s` sends first carries the ACK and clears the deadline.
        let seg = send(&mut c, 100, T).remove(0);
        assert_eq!(answer(&mut s, &seg), None);
        let reply = send(&mut s, 64, T + 1);
        assert_eq!((reply.len(), reply[0].ack), (1, seg.seq_end()));
        assert_eq!(s.ack_deadline(), None);
        assert!(tx(&mut s, T + ACK_DELAY_NS).is_empty(), "owed once");

        // Out of order, then the segment that fills the hole: both at once.
        let (mut c, mut s) = pair(0);
        let first = send(&mut c, 100, T).remove(0);
        let second = send(&mut c, 100, T).remove(0);
        assert_eq!(answer(&mut s, &second), Some(first.seq), "a duplicate ACK");
        assert_eq!(
            answer(&mut s, &first),
            Some(second.seq_end()),
            "the hole filled"
        );
        // A segment the receiver already holds: its first ACK was lost.
        assert_eq!(
            answer(&mut s, &first),
            Some(second.seq_end()),
            "a duplicate"
        );

        // The second full-sized segment; then a FIN.
        let (mut c, mut s) = pair(0);
        let segs = send(&mut c, 2 * MSS, T);
        assert_eq!(answer(&mut s, &segs[0]), None);
        assert_eq!(answer(&mut s, &segs[1]), Some(segs[1].seq_end()));
        c.close();
        let fin = tx(&mut c, T).remove(0);
        assert!(fin.flags.fin);
        assert_eq!(answer(&mut s, &fin), Some(fin.seq.wrapping_add(1)));

        // A read that owes a window update sends it, and the delayed ACK
        // with it, at once.
        let (mut c, mut s) = pair(0);
        s.set_recv_buf_cap(2 * MSS);
        s.ack_pending = true;
        for seg in tx(&mut s, 0) {
            c.on_segment(&seg, 0);
        }
        let seg = send(&mut c, MSS, T).remove(0);
        assert_eq!(answer(&mut s, &seg), None);
        assert_eq!(s.read(&mut [0u8; MSS]), MSS);
        let update = tx(&mut s, T);
        assert_eq!(update.len(), 1);
        assert_eq!(
            (update[0].ack, update[0].window),
            (seg.seq_end(), 2 * MSS as u32)
        );

        // A persist probe past a shut window draws the window at once.
        let (mut c, mut s) = pair(0);
        s.set_recv_buf_cap(MSS);
        s.ack_pending = true;
        for seg in tx(&mut s, 0) {
            c.on_segment(&seg, 0);
        }
        let full = send(&mut c, MSS, T).remove(0);
        assert_eq!(answer(&mut s, &full), None, "the window shuts");
        let mut probe = full.clone();
        probe.seq = full.seq_end();
        probe.payload = vec![0].into();
        assert_eq!(answer(&mut s, &probe), Some(full.seq_end()), "the probe");
        assert_eq!(s.recv_window(), 0);
    }

    /// Growing `SO_RCVBUF` under a shut window reopens it, and the peer —
    /// which sees a zero window and sends nothing but a persist probe — is
    /// told at once, with one pure ACK.
    #[test]
    fn growing_the_receive_buffer_announces_the_window() {
        let (mut c, mut s) = pair(0);
        s.set_recv_buf_cap(2 * MSS);
        s.ack_pending = true;
        for seg in tx(&mut s, 1_000) {
            c.on_segment(&seg, 1_000);
        }
        c.write_bytes(&vec![3u8; 4 * MSS]);
        for seg in tx(&mut c, 2_000) {
            s.on_segment(&seg, 2_000);
        }
        for ack in tx(&mut s, 2_000) {
            c.on_segment(&ack, 2_000);
        }
        assert_eq!((s.recv_window(), c.snd_wnd), (0, 0), "the window is shut");
        assert!(tx(&mut c, 3_000).is_empty());

        s.set_recv_buf_cap(4 * MSS);
        let update = tx(&mut s, 3_000);
        assert_eq!(update.len(), 1, "one pure ACK");
        assert!(update[0].payload.is_empty() && update[0].flags == SegmentFlags::ack());
        assert_eq!(update[0].window as usize, 2 * MSS);
        c.on_segment(&update[0], 3_000);
        let sent: usize = tx(&mut c, 3_500).iter().map(|seg| seg.len()).sum();
        assert_eq!(sent, 2 * MSS, "the sender fills the new room");
    }

    #[test]
    fn graceful_close_both_sides() {
        let (mut c, mut s) = pair(0);
        c.write_bytes(b"bye");
        c.close();
        let now = pump(&mut c, &mut s, 1_000, 1_000);
        let mut buf = [0u8; 8];
        assert_eq!(s.read(&mut buf), 3);
        assert!(s.peer_closed());
        assert_eq!(s.state(), ConnState::CloseWait);
        // Server closes too.
        s.close();
        let now = pump(&mut c, &mut s, now, 1_000);
        assert_eq!(s.state(), ConnState::Closed);
        // Client reaches TIME-WAIT and then closes after the linger period.
        assert!(matches!(c.state(), ConnState::TimeWait | ConnState::Closed));
        let _ = tx(&mut c, now + TIME_WAIT_NS + 1_000_000);
        assert_eq!(c.state(), ConnState::Closed);
    }

    #[test]
    fn abort_sends_rst_and_peer_observes_it() {
        let (mut c, mut s) = pair(0);
        c.abort();
        let segs = tx(&mut c, 1_000);
        assert!(segs.iter().any(|s| s.flags.rst));
        for seg in &segs {
            s.on_segment(seg, 1_000);
        }
        assert_eq!(s.state(), ConnState::Closed);
        assert!(c.is_closed());
    }

    #[test]
    fn flow_control_respects_peer_window() {
        let (mut c, mut s) = pair(0);
        s.set_recv_buf_cap(2 * MSS);
        // Tell the client about the small window via an ACK.
        s.ack_pending = true;
        for seg in tx(&mut s, 1_000) {
            c.on_segment(&seg, 1_000);
        }
        c.write_bytes(&vec![3u8; 10 * MSS]);
        let segs = tx(&mut c, 2_000);
        let sent: usize = segs.iter().map(|s| s.len()).sum();
        assert!(sent <= 2 * MSS, "sent {sent} despite a 2-MSS window");
    }

    #[test]
    fn write_after_close_is_rejected() {
        let (mut c, _s) = pair(0);
        c.close();
        assert_eq!(c.write_bytes(b"nope"), 0);
        assert!(!c.writable());
    }

    #[test]
    fn send_buffer_capacity_limits_writes() {
        let (mut c, _s) = pair(0);
        // Capacities below one MSS are clamped up to an MSS.
        c.set_send_buf_cap(100);
        assert_eq!(c.write_bytes(&vec![0u8; 5000]), MSS);
        assert_eq!(c.write_bytes(&[0u8; 1]), 0);
        assert!(!c.writable());

        let (mut c2, _s2) = pair(0);
        c2.set_send_buf_cap(2000);
        assert_eq!(c2.write_bytes(&vec![0u8; 5000]), 2000);
        assert_eq!(c2.write_bytes(&[0u8; 1]), 0);
    }

    #[test]
    fn rtt_estimation_updates_rto() {
        let (mut c, mut s) = pair(0);
        c.write_bytes(&vec![1u8; MSS]);
        let segs = tx(&mut c, 1_000_000);
        for seg in &segs {
            s.on_segment(seg, 1_000_000);
        }
        // ACK arrives 5 ms later.
        for ack in tx(&mut s, 6_000_000) {
            c.on_segment(&ack, 6_000_000);
        }
        assert!(c.srtt_ns.is_some());
        let srtt = c.srtt_ns.unwrap();
        assert!((4_000_000..=6_000_000).contains(&srtt), "srtt {srtt}");
        assert!(c.rto_ns >= MIN_RTO_NS);
    }

    /// A mid-transfer connection snapshotted on one "host" and restored on
    /// another keeps streaming: unacked bytes are retransmitted by the
    /// restored side, buffered receive data survives, and the peer never
    /// notices beyond duplicate segments.
    #[test]
    fn snapshot_restore_resumes_a_mid_transfer_connection() {
        let (mut c, mut s) = pair(0);
        // Client sends a first batch, the server echoes acknowledgements.
        c.write_bytes(&vec![0xA5u8; 4 * MSS]);
        let now = pump(&mut c, &mut s, 1_000, 1_000);
        assert_eq!(s.recv_available(), 4 * MSS);

        // More data is written and *transmitted but not delivered* (lost on
        // the wire at migration time).
        c.write_bytes(&vec![0x5Au8; 2 * MSS]);
        let lost = tx(&mut c, now);
        assert!(!lost.is_empty(), "in-flight data expected");
        assert!(c.in_flight() > 0);

        // Snapshot and restore — the new instance rewinds to snd_una.
        let snap = c.snapshot().unwrap();
        let mut c2 = TcpConnection::restore(&snap, CcAlgorithm::Reno.build());
        assert_eq!(c2.in_flight(), 0);
        assert_eq!(c2.state(), ConnState::Established);
        assert_eq!(c2.local(), c.local());
        assert_eq!(c2.remote(), c.remote());

        // The restored side retransmits the lost bytes and the stream
        // completes end to end.
        let now = pump(&mut c2, &mut s, now + 1_000, 1_000);
        assert_eq!(s.recv_available(), 6 * MSS);
        let mut buf = vec![0u8; 6 * MSS];
        s.read(&mut buf);
        assert!(buf[..4 * MSS].iter().all(|&b| b == 0xA5));
        assert!(buf[4 * MSS..].iter().all(|&b| b == 0x5A));

        // And the reverse direction still works through the restored side.
        s.write_bytes(b"ack from peer");
        pump(&mut c2, &mut s, now, 1_000);
        let mut buf = [0u8; 32];
        assert_eq!(c2.read(&mut buf), 13);
        assert_eq!(&buf[..13], b"ack from peer");
    }

    /// `len` bytes of a position-dependent pattern starting at stream
    /// offset `from`, so a duplicated or skipped byte cannot go unnoticed.
    fn pattern(from: usize, len: usize) -> Vec<u8> {
        (from..from + len).map(|i| (i % 251) as u8).collect()
    }

    /// Deliver everything `c` has to send; whatever `s` answers (its ACKs)
    /// is lost on the way back.
    fn deliver_acks_lost(c: &mut TcpConnection, s: &mut TcpConnection, now: u64) {
        for seg in tx(c, now) {
            s.on_segment(&seg, now);
        }
        let _lost = tx(s, now);
    }

    /// Shuttle segments both ways for `ms` milliseconds of virtual time (no
    /// early exit: retransmission timers must get their chance to fire),
    /// appending what `s` receives to `got`.
    fn run_ms(
        c: &mut TcpConnection,
        s: &mut TcpConnection,
        from: u64,
        ms: u64,
        got: &mut Vec<u8>,
    ) -> u64 {
        let mut now = from;
        let mut buf = vec![0u8; 64 * MSS];
        for _ in 0..ms * 10 {
            now += 100_000;
            for seg in tx(c, now) {
                s.on_segment(&seg, now);
            }
            for seg in tx(s, now) {
                c.on_segment(&seg, now);
            }
            let n = s.read(&mut buf);
            got.extend_from_slice(&buf[..n]);
        }
        now
    }

    /// The RTO rewinds `snd_nxt` to `snd_una` and collapses `cwnd`; when the
    /// peer already holds the whole flight (only the ACKs were lost), its
    /// next ACK lies above the rewound `snd_nxt`. It must be honoured — or
    /// the sender re-sends the same first segments forever.
    #[test]
    fn rto_rewind_below_what_the_peer_holds_does_not_livelock() {
        let (mut c, mut s) = pair(0);
        assert_eq!(c.write_bytes(&pattern(0, 8 * MSS)), 8 * MSS);
        deliver_acks_lost(&mut c, &mut s, 1_000);
        assert_eq!(c.in_flight(), 8 * MSS);
        assert_eq!(s.recv_available(), 8 * MSS, "the receiver holds it all");

        // The timer fires before any ACK makes it back: go-back-N from
        // `snd_una`, two segments at a time.
        let now = 1_000 + 2 * INITIAL_RTO_NS;
        deliver_acks_lost(&mut c, &mut s, now);
        assert_eq!(c.stats().timeouts, 1, "the RTO must have fired");
        assert!(c.in_flight() < 8 * MSS && c.cwnd() < 8 * MSS);

        let mut got = Vec::new();
        let now = run_ms(&mut c, &mut s, now, 500, &mut got);
        assert_eq!(
            (c.send_buffered(), c.in_flight()),
            (0, 0),
            "the sender must learn the flight was delivered"
        );
        // The connection is alive: later data flows, nothing is duplicated.
        assert_eq!(c.write_bytes(&pattern(8 * MSS, 3 * MSS)), 3 * MSS);
        run_ms(&mut c, &mut s, now, 100, &mut got);
        assert_eq!(got, pattern(0, 11 * MSS));
    }

    /// The same trap through a warm migration: the restored side restarts
    /// at `snd_una` with a fresh initial window, smaller than the flight
    /// the source had out — all of it already held by the peer, whose ACKs
    /// were lost (the "cut at the freeze bound" case). The flight is 16×MSS
    /// because a fresh `cwnd` is 10×MSS; a FIN rides at its end.
    #[test]
    fn restore_below_what_the_peer_holds_does_not_livelock() {
        let (mut c, mut s) = pair(0);
        let mut got = Vec::new();
        // Open the congestion window past its initial size.
        assert_eq!(c.write_bytes(&pattern(0, 40 * MSS)), 40 * MSS);
        let now = run_ms(&mut c, &mut s, 1_000, 20, &mut got);
        assert_eq!(got.len(), 40 * MSS);
        assert!(c.cwnd() >= 16 * MSS, "cwnd {} must have grown", c.cwnd());

        // The last flight — 16×MSS and the FIN — all lands; no ACK returns.
        assert_eq!(c.write_bytes(&pattern(40 * MSS, 16 * MSS)), 16 * MSS);
        c.close();
        deliver_acks_lost(&mut c, &mut s, now);
        assert_eq!(c.in_flight(), 16 * MSS + 1);
        assert!(s.recv_available() == 16 * MSS && s.fin_received());

        let snap = c.snapshot().unwrap();
        let mut c2 = TcpConnection::restore(&snap, CcAlgorithm::Reno.build());
        assert!(c2.cwnd() < 16 * MSS, "the fresh window re-covers less");
        run_ms(&mut c2, &mut s, now, 500, &mut got);
        assert_eq!(got, pattern(0, 56 * MSS));
        // The one ACK covering data and FIN was taken as such: nothing is
        // left to send, and the FIN is not re-sent one sequence number late.
        assert_eq!((c2.send_buffered(), c2.in_flight()), (0, 0));
        assert_eq!(c2.state(), ConnState::FinWait2);
    }

    /// The widened ACK bound stops at what this side can have sent: an ACK
    /// for bytes beyond the send buffer (an optimistic or corrupt ACK) is
    /// still ignored, and frees nothing.
    #[test]
    fn ack_beyond_everything_buffered_is_ignored() {
        let (mut c, mut s) = pair(0);
        c.write_bytes(&pattern(0, 2 * MSS));
        let segs = pieces(&mut c, 1_000);
        assert_eq!(segs.len(), 2);
        let mut bogus = Segment::control(peer(80), addr(5000), SegmentFlags::ack());
        bogus.ack = segs[1].seq_end().wrapping_add(1);
        bogus.window = 64 * 1024;
        c.on_segment(&bogus, 1_500);
        assert_eq!((c.send_buffered(), c.in_flight()), (2 * MSS, 2 * MSS));
        assert_eq!(c.stats().bytes_acked, 0);
        // The honest ACK for exactly what was sent still lands.
        for seg in &segs {
            s.on_segment(seg, 2_000);
        }
        for ack in tx(&mut s, 2_000) {
            c.on_segment(&ack, 2_500);
        }
        assert_eq!((c.send_buffered(), c.in_flight()), (0, 0));
    }

    /// Fast retransmit rewinds to the hole while the peer holds everything
    /// behind it. Once the hole is filled the cumulative ACK jumps past the
    /// rewound `snd_nxt`; the sender resumes from the ACK instead of
    /// re-sending what the peer already has.
    #[test]
    fn cumulative_ack_after_fast_retransmit_skips_what_the_peer_holds() {
        let (mut c, mut s) = pair(0);
        c.write_bytes(&pattern(0, 8 * MSS));
        let segs = pieces(&mut c, 1_000);
        assert_eq!(segs.len(), 8);
        for seg in &segs[1..] {
            s.on_segment(seg, 1_000);
        }
        for ack in tx(&mut s, 1_000) {
            c.on_segment(&ack, 2_000);
        }
        assert_eq!(c.stats().fast_retransmits, 1);
        assert_eq!(c.in_flight(), 0, "rewound to the hole");
        // One poll re-sends from the hole; the first segment fills it and
        // the peer's ACK covers the whole original flight.
        let resent = tx(&mut c, 2_500);
        s.on_segment(&resent[0], 2_500);
        assert_eq!(s.recv_available(), 8 * MSS);
        for ack in tx(&mut s, 2_500) {
            c.on_segment(&ack, 3_000);
        }
        assert_eq!((c.send_buffered(), c.in_flight()), (0, 0));
        assert!(tx(&mut c, 3_500).iter().all(|seg| seg.payload.is_empty()));
    }

    /// Buffered receive-side data (read by the application after the move)
    /// and out-of-order stash survive the snapshot.
    #[test]
    fn snapshot_carries_receive_side_buffers() {
        let (mut c, mut s) = pair(0);
        c.write_bytes(&vec![3u8; 3 * MSS]);
        let segs = pieces(&mut c, 1_000);
        assert_eq!(segs.len(), 3);
        // Deliver segment 0 (in order) and segment 2 (out of order).
        s.on_segment(&segs[0], 1_000);
        s.on_segment(&segs[2], 1_000);
        assert_eq!(s.recv_available(), MSS);

        let snap = s.snapshot().unwrap();
        assert_eq!(snap.recv_buf.len(), MSS);
        assert_eq!(snap.ooo.len(), 1);
        let mut s2 = TcpConnection::restore(&snap, CcAlgorithm::Reno.build());
        // The missing middle segment arrives at the restored side: the
        // out-of-order stash drains and the stream is whole.
        s2.on_segment(&segs[1], 2_000);
        assert_eq!(s2.recv_available(), 3 * MSS);
    }

    /// Handshake-phase and closed connections refuse to snapshot.
    #[test]
    fn snapshot_refuses_embryonic_and_closed_connections() {
        let cc = CcAlgorithm::Reno.build();
        let c = TcpConnection::connect(addr(1), peer(2), 0, cc, 0);
        assert_eq!(c.snapshot(), Err(NkError::InvalidState));
        let (mut c, _s) = pair(0);
        c.abort();
        assert_eq!(c.snapshot(), Err(NkError::InvalidState));
    }

    /// Deterministic op source for the model test.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((self.0 >> 33) % n as u64) as usize
        }
    }

    /// The byte queues against a flat reference: every byte `a` accepts goes
    /// into one `Vec<u8>`, and `send_buf`/`recv_buf` must at every step hold
    /// exactly the model's `[acked..]` / `[read..delivered]`. Writes of
    /// every awkward size put run seams everywhere, so payloads are cut
    /// inside a run (sharing its buffer) and across a seam (a gathered
    /// copy); a burst's tail is lost now and then so go-back-N rewinds the
    /// queue's cursor and re-reads from offset 0.
    ///
    /// Data travels `a` → `b` through a queue (so new writes are segmented
    /// behind unacknowledged ones); ACKs travel back at once, and `b` only
    /// speaks after a delivery or when nothing is in flight, so no window
    /// update is ever mistaken for a duplicate ACK.
    #[test]
    fn byte_queues_match_a_flat_model_across_run_seams() {
        const CAP: usize = 4 * MSS;
        let sizes = [0, 1, MSS - 1, MSS, MSS + 1, CAP, CAP + 1];
        fn ack(b: &mut TcpConnection, a: &mut TcpConnection, now: u64) {
            for seg in tx(b, now) {
                a.on_segment(&seg, now);
            }
        }
        for seed in 1..=4u64 {
            let (mut a, mut b) = pair(0);
            a.set_send_buf_cap(CAP);
            b.set_recv_buf_cap(CAP);
            // `a` learns the 4-MSS window before it sends anything.
            b.ack_pending = true;
            ack(&mut b, &mut a, 1_000);
            let base = a.snd_una; // sequence number of stream byte 0
            let mut rng = Lcg(seed);
            let mut stream: Vec<u8> = Vec::new();
            let mut read = 0usize;
            let mut to_b: VecDeque<Segment> = VecDeque::new();
            let mut buf = vec![0u8; CAP + 1];
            let mut now = 1_000_000u64;
            // Payloads cut [inside a run, across a seam], segments sent a
            // second time, and steps on which `b` held `a`'s own buffers.
            let mut cut = [0usize; 2];
            let (mut sent, mut resent, mut recv_shared) = (0usize, 0usize, 0usize);

            // Poll `a`, check every payload against the model and queue the
            // burst towards `b` — minus its tail from a random segment on
            // when `lossy`. Returns whether anything was lost.
            let mut transmit = |a: &mut TcpConnection,
                                to_b: &mut VecDeque<Segment>,
                                rng: &mut Lcg,
                                stream: &[u8],
                                now: u64,
                                lossy: bool| {
                let una = a.snd_una;
                let mut lost = false;
                for seg in tx(a, now) {
                    if !seg.payload.is_empty() {
                        let off = seg.seq.wrapping_sub(base) as usize;
                        let end = off + seg.payload.len();
                        assert_eq!(seg.payload[..], stream[off..end]);
                        resent += usize::from(off < sent);
                        sent = sent.max(end);
                        // The run holding the payload's first byte either
                        // holds all of it, and lends its buffer, or the
                        // payload crosses a seam and shares with no run.
                        let mut at = seg.seq.wrapping_sub(una) as usize;
                        let mut runs = a.send_buf.runs();
                        let first = loop {
                            let run = runs.next().expect("sent bytes are buffered");
                            if at < run.len() {
                                break run;
                            }
                            at -= run.len();
                        };
                        let inside = at + seg.payload.len() <= first.len();
                        let shared = a.send_buf.runs().any(|run| run.shares_buffer(&seg.payload));
                        assert_eq!(inside, shared, "seed {seed}: bytes {off}..{end}");
                        assert!(!inside || first.shares_buffer(&seg.payload));
                        cut[usize::from(!inside)] += 1;
                        lost |= lossy && rng.below(48) == 0;
                    }
                    if !lost {
                        to_b.push_back(seg);
                    }
                }
                lost
            };

            for step in 0..=30_000 {
                now += 1_000;
                let size = sizes[rng.below(sizes.len())];
                // The last step only settles what is still in flight.
                let mut settle = step == 30_000;
                match rng.below(8) {
                    _ if settle => {}
                    0 | 1 => {
                        let data: Vec<u8> = (stream.len()..stream.len() + size)
                            .map(|i| ((i as u32).wrapping_mul(2_654_435_761) >> 24) as u8)
                            .collect();
                        let room = CAP - a.send_buffered();
                        let n = a.write_bytes(&data);
                        assert_eq!(n, size.min(room));
                        stream.extend_from_slice(&data[..n]);
                    }
                    2 => settle = transmit(&mut a, &mut to_b, &mut rng, &stream, now, true),
                    3 | 4 => {
                        for seg in to_b.drain(..to_b.len().min(1 + rng.below(4))) {
                            b.on_segment(&seg, now);
                        }
                        ack(&mut b, &mut a, now);
                    }
                    _ => {
                        let before = b.recv_available();
                        let n = b.read(&mut buf[..size]);
                        assert_eq!(n, size.min(before));
                        assert_eq!(buf[..n], stream[read..read + n]);
                        read += n;
                        if a.in_flight() == 0 {
                            ack(&mut b, &mut a, now);
                        }
                    }
                }
                if settle {
                    // After a loss the wire goes quiet — everything that
                    // survived is delivered and acknowledged — and only then
                    // does the RTO fire, so `a` rewinds to exactly what `b`
                    // is missing.
                    for seg in to_b.drain(..) {
                        b.on_segment(&seg, now);
                    }
                    ack(&mut b, &mut a, now);
                    now += 2 * MAX_RTO_NS;
                    transmit(&mut a, &mut to_b, &mut rng, &stream, now, false);
                }

                let acked = a.snd_una.wrapping_sub(base) as usize;
                let delivered = b.rcv_nxt.wrapping_sub(base) as usize;
                assert_eq!(a.send_buf.len(), stream.len() - acked);
                assert_eq!(a.send_buf.to_vec(), stream[acked..], "step {step}");
                assert_eq!(b.recv_buf.len(), delivered - read);
                assert_eq!(b.recv_buf.to_vec(), stream[read..delivered], "step {step}");
                assert_eq!(a.stats().bytes_acked, acked as u64);
                assert_eq!(b.stats().bytes_received, read as u64);
                let lent = |run: &Payload| a.send_buf.runs().any(|own| own.shares_buffer(run));
                recv_shared += usize::from(b.recv_buf.runs().any(lent));
            }

            // Lossless from here: the rest of the stream reaches `b` intact.
            while read < stream.len() {
                to_b.extend(tx(&mut a, now));
                for seg in to_b.drain(..) {
                    b.on_segment(&seg, now);
                }
                let n = b.read(&mut buf);
                assert!(n > 0, "seed {seed}: stalled at {read} of {}", stream.len());
                assert_eq!(buf[..n], stream[read..read + n]);
                read += n;
                ack(&mut b, &mut a, now);
            }
            ack(&mut b, &mut a, now);

            assert!(stream.len() > 50 * CAP, "seed {seed}: {}", stream.len());
            assert_eq!(a.stats().bytes_acked, stream.len() as u64);
            assert_eq!(b.stats().bytes_received, stream.len() as u64);
            assert!(a.stats().timeouts > 0, "seed {seed}: no loss exercised");
            assert!(resent > 0, "seed {seed}: nothing was sent twice");
            assert!(cut.iter().all(|&n| n > 0), "seed {seed}: cuts {cut:?}");
            assert!(
                recv_shared > 0,
                "seed {seed}: the receiver only ever held copies"
            );
        }
    }

    /// Stashed segments are ordered in sequence space, not by raw `u32`:
    /// with the stream straddling 2³² the segment past the wrap has the
    /// smallest key, and looking at it first used to end the drain with the
    /// two before it still stashed.
    #[test]
    fn out_of_order_segments_are_reassembled_across_the_sequence_wrap() {
        let iss = u32::MAX - MSS as u32 - 100;
        let mut c = TcpConnection::connect(addr(5000), peer(80), iss, CcAlgorithm::Reno.build(), 0);
        let syn = tx(&mut c, 0).remove(0);
        let mut s = TcpConnection::accept(
            peer(80),
            addr(5000),
            9000,
            &syn,
            CcAlgorithm::Reno.build(),
            0,
        );
        c.on_segment(&tx(&mut s, 0)[0], 0);
        s.on_segment(&tx(&mut c, 0)[0], 0);
        assert!(c.is_established() && s.is_established());

        let data = pattern(0, 3 * MSS);
        c.write_bytes(&data);
        let segs = pieces(&mut c, 1_000);
        assert_eq!(segs.len(), 3);
        assert!(
            segs[2].seq < segs[0].seq,
            "the third segment lies past the wrap"
        );
        for seg in segs.iter().rev() {
            s.on_segment(seg, 1_000);
        }
        assert_eq!(s.recv_available(), 3 * MSS);
        let mut buf = vec![0u8; 3 * MSS];
        s.read(&mut buf);
        assert_eq!(buf, data);
    }

    /// Queue memory follows the bytes held, not the number of writes: 64 Ki
    /// one-byte writes coalesce into a few runs instead of 64 Ki buffers
    /// (each with its header and its slot in the run table).
    #[test]
    fn many_tiny_writes_hold_about_their_bytes_in_buffers() {
        const N: usize = 64 * 1024;
        let (mut c, mut s) = pair(0);
        for i in 0..N {
            assert_eq!(c.write_bytes(&[(i % 251) as u8]), 1);
        }
        assert_eq!(c.send_buffered(), N);
        assert!(
            c.send_buf.storage_bytes() <= 2 * N,
            "{} bytes of storage for {N} bytes",
            c.send_buf.storage_bytes()
        );
        // Segments cut from coalesced runs carry the stream unchanged.
        let mut got = Vec::new();
        run_ms(&mut c, &mut s, 1_000, 20, &mut got);
        assert_eq!(got, pattern(0, N));
    }

    /// A parked or dead connection holds no payload byte except those the
    /// application has not read yet; its queues keep their capacity, which
    /// the stack hands to the next connection in the slot. The stack then
    /// keeps only a parked one's tuple
    /// (`stack::tests::time_wait_and_closed_connections_keep_no_queue_storage`).
    #[test]
    fn parked_and_dead_connections_hold_only_unread_bytes() {
        let storage = |c: &TcpConnection| {
            let ooo: usize = c.ooo.values().map(|p| p.len()).sum();
            c.send_buf.held_bytes() + c.recv_buf.held_bytes() + ooo
        };
        let (mut c, mut s) = pair(0);
        let mut got = Vec::new();
        c.write_bytes(&pattern(0, 8 * MSS));
        s.write_bytes(&pattern(0, 8 * MSS));
        let now = run_ms(&mut c, &mut s, 1_000, 5, &mut got);
        assert_eq!(c.read(&mut vec![0u8; 8 * MSS]), 8 * MSS);
        // `c` closes first and parks in TIME-WAIT; `s` goes straight to Closed.
        c.close();
        let now = run_ms(&mut c, &mut s, now, 1, &mut got);
        s.close();
        run_ms(&mut c, &mut s, now, 1, &mut got);
        assert_eq!(
            (c.state(), s.state()),
            (ConnState::TimeWait, ConnState::Closed)
        );
        assert_eq!((storage(&c), storage(&s)), (0, 0));
        assert!(c.send_buf.storage_bytes() > 0, "capacity is kept for reuse");
        assert!(c.parked_until().is_some() && s.parked_until().is_none());

        // A reset connection keeps its unread bytes, and only those.
        let (mut c, mut s) = pair(0);
        s.write_bytes(b"unread");
        c.write_bytes(&pattern(0, 4 * MSS));
        for seg in tx(&mut s, 1_000) {
            c.on_segment(&seg, 1_000);
        }
        let mut rst = Segment::control(peer(80), addr(5000), SegmentFlags::rst());
        rst.seq = s.snd_nxt;
        c.on_segment(&rst, 2_000);
        assert!(c.is_closed() && c.send_buf.held_bytes() == 0);
        assert_eq!(c.read(&mut [0u8; 8]), 6);
    }

    #[test]
    fn reno_is_default_like_and_exposed_via_cwnd() {
        let cc = Cc::Reno(Reno::new());
        let c = TcpConnection::connect(addr(1), peer(2), 0, cc, 0);
        assert!(c.cwnd() >= MSS);
        assert_eq!(c.state(), ConnState::SynSent);
        assert_eq!(c.local(), addr(1));
        assert_eq!(c.remote(), peer(2));
    }

    /// The trains one `poll_transmit` forms expand to the per-MSS
    /// segmentation of the byte stream — `seq`, `ack`, `window`, flags and
    /// bytes — and only full-sized pieces that continue each other in one
    /// run share a train, cut from it as one slice. Three writes leave two
    /// run seams: the piece straddling the first and the short tail are
    /// gathered, so they travel alone, and a send window that shuts inside
    /// a run ends the train there. The RTT sample times the first piece, as
    /// it did before trains.
    #[test]
    fn trains_expand_to_the_per_mss_segmentation_of_the_stream() {
        const T: u64 = 1_000;
        let data = pattern(0, 7 * MSS + 800);
        /// The send window, each train's frames and whether it is a slice
        /// of a run.
        type Case = (Option<usize>, &'static [usize], &'static [bool]);
        let cases: [Case; 2] = [
            (None, &[2, 1, 4, 1], &[true, false, true, false]),
            (
                Some(4 * MSS + MSS / 2),
                &[2, 1, 1, 1],
                &[true, false, true, true],
            ),
        ];
        for (window, expect, sliced) in cases {
            let (mut c, mut s) = pair(0);
            assert_eq!(s.write_bytes(b"window and ack"), 14);
            for seg in tx(&mut s, 0) {
                c.on_segment(&seg, 0);
            }
            let seams = [2 * MSS + 700, 7 * MSS + 700];
            c.write_bytes(&data[..seams[0]]);
            c.write_bytes(&data[seams[0]..seams[1]]);
            c.write_bytes(&data[seams[1]..]);
            if let Some(window) = window {
                c.snd_wnd = window as u32;
            }
            let sent = window.unwrap_or(data.len());
            let seq0 = c.snd_nxt;
            let trains = tx(&mut c, T);
            let frames: Vec<usize> = trains.iter().map(Train::frames).collect();
            assert_eq!(frames, expect, "window {window:?}");
            let lent = |train: &Segment| {
                c.send_buf
                    .runs()
                    .any(|run| run.shares_buffer(&train.payload))
            };
            let shared: Vec<bool> = trains.iter().map(lent).collect();
            assert_eq!(shared, sliced, "window {window:?}");
            let flat: Vec<Segment> = (0..sent.div_ceil(MSS))
                .map(|i| {
                    let bytes = &data[i * MSS..sent.min((i + 1) * MSS)];
                    let mut seg = Segment::control(addr(5000), peer(80), SegmentFlags::ack());
                    seg.seq = seq0.wrapping_add((i * MSS) as u32);
                    seg.ack = c.rcv_nxt;
                    seg.window = c.recv_window() as u32;
                    seg.payload = bytes.into();
                    seg
                })
                .collect();
            let wire: Vec<usize> = trains.iter().map(Segment::wire_bytes).collect();
            let pieces: Vec<Segment> = trains.into_iter().flat_map(Train::into_frames).collect();
            assert_eq!(pieces, flat, "window {window:?}");
            let per_piece = flat.iter().map(Segment::wire_bytes);
            assert_eq!(wire.iter().sum::<usize>(), per_piece.sum::<usize>());
            assert_eq!(
                c.rtt_sample,
                Some((flat[0].seq_end(), T)),
                "window {window:?}"
            );
            assert_eq!(c.snd_nxt, seq0.wrapping_add(sent as u32));
        }
    }

    /// Everything an arriving segment can change on a connection.
    fn receive_state(c: &TcpConnection) -> impl PartialEq + std::fmt::Debug {
        let ooo: Vec<(u32, Vec<u8>)> = c.ooo.iter().map(|(k, v)| (*k, v.to_vec())).collect();
        (
            (c.state, c.rcv_nxt, c.recv_buf.to_vec(), ooo),
            (c.peer_fin_seq, c.peer_fin_received),
            (c.ack_pending, c.ack_deadline, c.full_unacked),
            (c.dup_ack_burst, c.snd_una, c.snd_nxt, c.snd_wnd, c.dup_acks),
            (c.rto_deadline, c.rtt_sample, c.srtt_ns, c.persist),
            (c.stats, c.cwnd(), c.send_buf.len(), c.fin_seq),
        )
    }

    /// A train leaves its receiver exactly as its segments one by one
    /// would, and the receiver answers alike, whether it takes the train
    /// whole or splits it: fresh or after a delayed lone segment,
    /// acknowledging data, into a window that shuts mid-train, behind a
    /// hole, reaching a FIN that came early, out of order and duplicated.
    #[test]
    fn a_train_is_received_as_its_segments_one_by_one() {
        const T: u64 = 1_000_000;
        /// `c`'s segments after writing `len` bytes, trains kept whole.
        fn send(c: &mut TcpConnection, len: usize) -> Vec<Segment> {
            assert_eq!(c.write_bytes(&pattern(0, len)), len);
            tx(c, T)
        }
        /// Deliver `segs` to `s` and consume what it answers.
        fn feed(s: &mut TcpConnection, segs: &[Segment]) {
            for seg in segs {
                s.on_segment(seg, T);
            }
            tx(s, T);
        }
        type Setup = fn(&mut TcpConnection, &mut TcpConnection) -> Segment;
        let cases: [(&str, Setup); 8] = [
            ("fresh", |c, _| send(c, 5 * MSS).remove(0)),
            ("after a delayed lone segment", |c, s| {
                let lone = send(c, MSS);
                lone.iter().for_each(|seg| s.on_segment(seg, T));
                assert_eq!((s.full_unacked, s.ack_pending), (1, false));
                send(c, 4 * MSS).remove(0)
            }),
            ("acknowledging data", |c, s| {
                let reply = send(s, 2 * MSS);
                reply.iter().for_each(|seg| c.on_segment(seg, T));
                let train = send(c, 4 * MSS).remove(0);
                assert!(seq_gt(train.ack, s.snd_una));
                train
            }),
            ("into a window that shuts mid-train", |c, s| {
                s.set_recv_buf_cap(2 * MSS + 100);
                send(c, 4 * MSS).remove(0)
            }),
            ("behind a hole", |c, s| {
                let mut train = send(c, 6 * MSS).remove(0);
                let head = train.split_front(5);
                feed(s, &[train]);
                head
            }),
            ("reaching a FIN that came early", |c, s| {
                let train = send(c, 3 * MSS).remove(0);
                c.close();
                let fin = tx(c, T);
                assert!(fin[0].flags.fin);
                feed(s, &fin);
                train
            }),
            ("out of order", |c, _| {
                let mut train = send(c, 5 * MSS).remove(0);
                train.split_front(1);
                train
            }),
            ("duplicated", |c, s| {
                let train = send(c, 4 * MSS).remove(0);
                feed(s, std::slice::from_ref(&train));
                train
            }),
        ];
        for (case, setup) in cases {
            let (mut c, mut whole) = pair(0);
            let train = setup(&mut c, &mut whole);
            let (mut c2, mut one_by_one) = pair(0);
            assert_eq!(setup(&mut c2, &mut one_by_one), train);
            assert!(train.frames() > 1, "{case}");
            let before = receive_state(&whole);
            whole.on_segment(&train, T);
            for piece in train.clone().into_frames() {
                one_by_one.on_segment(&piece, T);
            }
            assert_ne!(
                receive_state(&one_by_one),
                before,
                "{case} changes something"
            );
            assert_eq!(receive_state(&whole), receive_state(&one_by_one), "{case}");
            assert_eq!(pieces(&mut whole, T), pieces(&mut one_by_one, T), "{case}");
        }
    }
}
