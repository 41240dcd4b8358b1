//! `TcpStack::tick` costs what is active, not what exists — and behaves as
//! if it still walked every socket. These tests drive bare stacks, and one
//! a whole host, through the public API only. In a debug build (tier-1)
//! every tick also runs the stack's own skip-audit, which polls each
//! connection the wake list left out and panics if it had anything to do.

use netkernel::fabric::link::LinkConfig;
use netkernel::fabric::switch::VirtualSwitch;
use netkernel::fabric::{Frame, Port, Train};
use netkernel::host::NetKernelHost;
use netkernel::netstack::cc::{Cc, CcAlgorithm, SharedVmWindow, VmSharedCc};
use netkernel::netstack::{Segment, StackConfig, TcpStack};
use netkernel::queue::{queue_set_pair, NkDevice, WakeState};
use netkernel::service::{ServiceLib, TcpNsm};
use netkernel::shmem::HugepageRegion;
use netkernel::sim::SplitMix64;
use netkernel::types::constants::MSS;
use netkernel::types::{
    CcKind, HostConfig, NkError, Nqe, NsmConfig, NsmId, OpType, QueueSetId, ShutdownHow, SockAddr,
    SocketApi, SocketId, VmConfig, VmId, VmToNsmPolicy,
};
use netkernel::workload::{echo_all, seeded_payload};
use std::collections::BTreeMap;

/// What a sender of the mixed run does once its bytes are queued.
#[derive(Clone, Copy)]
enum Then {
    StayOpen,
    HalfClose,
    Close,
}

const CLIENT_IP: u32 = 0x0A00_0002;
const SERVER_IP: u32 = 0x0A00_0001;
const DT_NS: u64 = 100_000;
/// `nk_netstack::conn`'s TIME-WAIT linger and its RTO before any RTT sample.
const TIME_WAIT_NS: u64 = 50_000_000;
const INITIAL_RTO_NS: u64 = 50_000_000;
/// `nk_netstack::conn`'s cap on the RTO and on the persist-probe interval.
const MAX_RTO_NS: u64 = 2_000_000_000;

struct World {
    switch: VirtualSwitch<Segment>,
    client: TcpStack,
    server: TcpStack,
    now: u64,
}

impl World {
    fn new(link: LinkConfig) -> Self {
        let mut switch = VirtualSwitch::new();
        let client = TcpStack::new(
            StackConfig::new(CLIENT_IP),
            switch.attach_with_link(CLIENT_IP, link),
        );
        let server = TcpStack::new(
            StackConfig::new(SERVER_IP),
            switch.attach_with_link(SERVER_IP, link),
        );
        World {
            switch,
            client,
            server,
            now: 0,
        }
    }

    fn step(&mut self) {
        self.now += DT_NS;
        self.client.tick(self.now);
        self.server.tick(self.now);
        self.switch.step(self.now);
    }

    fn run(&mut self, ticks: usize) {
        for _ in 0..ticks {
            self.step();
        }
    }

    fn listen(&mut self, port: u16, backlog: u32) -> SocketId {
        let ls = self.server.socket();
        self.server.bind(ls, SockAddr::new(0, port)).unwrap();
        self.server.listen(ls, backlog).unwrap();
        ls
    }

    fn connect(&mut self, port: u16) -> SocketId {
        let cs = self.client.socket();
        let to = SockAddr::new(SERVER_IP, port);
        self.client.connect(cs, to, self.now).unwrap();
        cs
    }

    fn accept_all(&mut self, ls: SocketId) -> Vec<SocketId> {
        std::iter::from_fn(|| self.server.accept(ls).ok().map(|(conn, _)| conn)).collect()
    }
}

/// Flat by count, not by clock: 4 000 sockets parked in TIME-WAIT cost the
/// tick nothing while one echo stream runs beside them, and every one of
/// them is reaped on exactly the first tick at or past its deadline.
#[test]
fn parked_time_wait_sockets_cost_nothing_and_are_reaped_on_time() {
    const PARKED: usize = 4_000;
    let mut w = World::new(LinkConfig::ideal());
    let ls = w.listen(80, 2 * PARKED as u32);
    let parked: Vec<SocketId> = (0..PARKED).map(|_| w.connect(80)).collect();
    let live = w.connect(80);
    w.run(10);
    let accepted = w.accept_all(ls);
    assert_eq!(accepted.len(), PARKED + 1);
    let echo = *accepted.last().unwrap();

    // The client closes first, so it is the side left holding TIME-WAIT.
    for &cs in &parked {
        w.client.close(cs).unwrap();
    }
    w.run(5);
    for &conn in &accepted[..PARKED] {
        assert_eq!(w.server.recv(conn, &mut [0u8; 8]), Ok(0), "EOF");
        w.server.close(conn).unwrap();
    }
    // TIME-WAIT starts on the tick the client answers the server's FINs.
    let mut entered_at = 0;
    for _ in 0..10 {
        let before = w.client.stats().segments_out;
        w.step();
        if w.client.stats().segments_out > before {
            entered_at = w.now;
        }
    }
    assert_eq!(w.server.socket_count(), 2, "listener + echo connection");
    assert_eq!(w.client.socket_count(), PARKED + 1);

    // One echo stream for 300 ticks: at most the live connection (and a
    // lazy timer entry of its own) is polled per tick, on either side.
    let mut buf = [0u8; 256];
    let mut echoed = 0;
    for tick in 0..300u64 {
        let before = (w.client.stats().conns_polled, w.server.stats().conns_polled);
        let reply = w.client.recv(live, &mut buf).is_ok();
        echoed += usize::from(reply);
        if tick == 0 || reply {
            w.client.send(live, &seeded_payload(tick, 100)).unwrap();
        }
        if let Ok(n) = w.server.recv(echo, &mut buf) {
            w.server.send(echo, &buf[..n]).unwrap();
        }
        w.step();
        assert!(w.client.stats().conns_polled - before.0 <= 2, "tick {tick}");
        assert!(w.server.stats().conns_polled - before.1 <= 2, "tick {tick}");
    }
    assert!(echoed > 50, "the stream ran: {echoed} echoes");

    // No traffic, no poll, until the deadline: the tuples wait in the
    // expiry FIFO, and only the live connection may still be polled, once,
    // by a lazy timer entry of its own.
    let _ = w.client.recv(live, &mut buf);
    w.run(3);
    let deadline = entered_at + TIME_WAIT_NS;
    let idle_from = w.client.stats().conns_polled;
    let mut ticks_with_polls = 0;
    while w.now + DT_NS < deadline {
        let before = w.client.stats().conns_polled;
        w.step();
        ticks_with_polls += usize::from(w.client.stats().conns_polled > before);
        assert_eq!(w.client.socket_count(), PARKED + 1, "early at {}", w.now);
    }
    let idle_to = w.client.stats().conns_polled;
    assert!(
        ticks_with_polls <= 1,
        "{ticks_with_polls} idle ticks polled"
    );
    assert!(
        idle_to - idle_from <= 1,
        "{} idle polls",
        idle_to - idle_from
    );
    w.step();
    assert!(w.now >= deadline && w.now - DT_NS < deadline);
    assert_eq!(
        w.client.socket_count(),
        1,
        "all reaped on the deadline tick"
    );
    assert_eq!(
        w.client.stats().conns_polled,
        idle_to,
        "expiry polls nothing"
    );
}

/// One short-connection slot of a guest: connect, send a request, read the
/// echo back, close, and open again.
enum ChurnSlot {
    Idle,
    Opening(SocketId),
    Waiting(SocketId, usize),
}

/// Flat by count on the whole datapath, nkbench's `churn` shape: a guest's
/// 32 slots open, exchange 64 B with a remote echo server and close, through
/// GuestLib, CoreEngine, ServiceLib and the NSM's stack. The guest closes
/// first, so the NSM's stack keeps a TIME-WAIT tuple per connection, and
/// none expires inside the run: they grow from 0 into the thousands while
/// the connections the stack polls per closed connection stay flat. So do the
/// sockets ServiceLib's receive pump and send flush visit, read through
/// `nsm_service_stats`. Seeded, so every count is exact.
#[test]
fn a_hosts_churn_polls_as_much_per_connection_as_time_wait_grows() {
    const SLOTS: usize = 32;
    const REQUEST: usize = 64;
    /// Counted steps, in four quarters; 480 steps stay inside one TIME-WAIT
    /// linger, so every tuple parked is still held at the end.
    const QUARTER: u64 = 120;
    const REMOTE_IP: u32 = 0x0A00_0200;
    let nsm = NsmId(1);
    let mut host = NetKernelHost::new(
        HostConfig::new()
            .with_nsm(NsmConfig::kernel(nsm))
            .with_vm(VmConfig::new(VmId(1)))
            .with_mapping(VmToNsmPolicy::Static(vec![(VmId(1), nsm)])),
    )
    .unwrap();
    let remote = host.add_remote(REMOTE_IP);
    let listener = remote.socket();
    remote.bind(listener, SockAddr::new(0, 7)).unwrap();
    remote.listen(listener, SLOTS as u32).unwrap();
    let server = SockAddr::new(REMOTE_IP, 7);
    assert_eq!(host.nsm_stack(nsm).unwrap().socket_count(), 0);
    let mut echoing = Vec::new();
    let mut slots: Vec<ChurnSlot> = (0..SLOTS).map(|_| ChurnSlot::Idle).collect();
    let mut rng = SplitMix64::new(7);
    let mut buf = vec![0u8; 4096];
    let request = seeded_payload(7, REQUEST);
    let mut closed = 0u64;
    let mut step = || {
        let guest = host.guest_mut(VmId(1)).unwrap();
        for slot in &mut slots {
            *slot = match *slot {
                // A slot waits a step now and then, as nkbench's think time.
                ChurnSlot::Idle if rng.next_below(64) == 0 => ChurnSlot::Idle,
                ChurnSlot::Idle => {
                    let sock = guest.socket().unwrap();
                    guest.connect(sock, server).unwrap();
                    ChurnSlot::Opening(sock)
                }
                ChurnSlot::Opening(sock) => {
                    let ev = SocketApi::poll(guest, sock);
                    assert!(!ev.error() && !ev.hup(), "{sock:?} failed to open");
                    if !ev.writable() {
                        continue;
                    }
                    assert_eq!(guest.send(sock, &request), Ok(REQUEST));
                    ChurnSlot::Waiting(sock, 0)
                }
                ChurnSlot::Waiting(sock, got) => {
                    match guest.recv(sock, &mut buf[..REQUEST - got]) {
                        Ok(n @ 1..) if got + n == REQUEST => {
                            guest.close(sock).unwrap();
                            closed += 1;
                            ChurnSlot::Idle
                        }
                        Ok(n @ 1..) => ChurnSlot::Waiting(sock, got + n),
                        Err(NkError::WouldBlock) => continue,
                        other => panic!("{sock:?} read {other:?}"),
                    }
                }
            };
        }
        host.step(DT_NS);
        echo_all(
            host.remote_mut(REMOTE_IP).unwrap(),
            listener,
            &mut echoing,
            &mut buf,
        );
        let stack = host.nsm_stack(nsm).unwrap();
        let service = host.nsm_service_stats(nsm).unwrap();
        let visits = [
            stack.stats().conns_polled,
            service.rx_visits,
            service.tx_visits,
        ];
        (visits, stack.socket_count(), closed)
    };
    let mut quarters = Vec::new();
    let mut from = step();
    for _ in 0..4 {
        let to = (0..QUARTER).map(|_| step()).last().unwrap();
        quarters.push((std::array::from_fn(|i| to.0[i] - from.0[i]), to.2 - from.2));
        from = to;
    }
    let held = from.1.saturating_sub(SLOTS);
    assert!(held >= 2_000, "only {held} TIME-WAIT tuples");
    // The stack's polls, and the sockets ServiceLib's receive pump and send
    // flush visit, per closed connection, quarter by quarter. A connection
    // carries one message each way, so ServiceLib visits its socket about
    // once: its reply's `Readable`. A pass over every socket would visit
    // each live one on every step.
    let bounds = [
        ("stack polls", f64::INFINITY),
        ("rx visits", 2.0),
        ("tx visits", 2.0),
    ];
    for (i, (what, bound)) in bounds.into_iter().enumerate() {
        let per_conn: Vec<f64> = (quarters.iter())
            .map(|&(visits, closed): &([u64; 3], u64)| visits[i] as f64 / closed as f64)
            .collect();
        assert!(
            per_conn[3] <= 1.1 * per_conn[0] && per_conn.iter().all(|&v| v <= bound),
            "{per_conn:?} {what} per closed connection, quarter by quarter ({quarters:?} visits \
             and closes), as {held} tuples piled up"
        );
    }
}

/// An RTO fires on a socket nothing has touched since it sent: the peer is
/// silent, no call and no segment reaches the connection, and the
/// retransmission still leaves on the first tick at or past the deadline.
#[test]
fn rto_fires_on_a_socket_nothing_else_wakes() {
    let mut w = World::new(LinkConfig::ideal());
    let ls = w.listen(80, 8);
    let cs = w.connect(80);
    w.run(10);
    assert_eq!(w.accept_all(ls).len(), 1);

    w.client.send(cs, b"into the void").unwrap();
    w.now += DT_NS;
    w.client.tick(w.now); // sent; the server never runs again
    let (sent_at, sent) = (w.now, w.client.stats());
    loop {
        w.now += DT_NS;
        w.client.tick(w.now);
        let stats = w.client.stats();
        if w.now < sent_at + INITIAL_RTO_NS {
            // At most the lazy timer entry (still at the SYN's RTO) fires.
            assert_eq!(stats.segments_out, sent.segments_out, "at {}", w.now);
            assert!(stats.conns_polled <= sent.conns_polled + 1);
        } else {
            assert_eq!(stats.segments_out, sent.segments_out + 1, "retransmitted");
            assert!(stats.conns_polled <= sent.conns_polled + 2);
            break;
        }
    }
}

/// Two connections of one VM share a Seawall window. One is window-blocked
/// with queued data towards a silent peer, so no event ever reaches it; the
/// other's ACKs open the shared window. The blocked connection must use the
/// new room on the very tick it appears. The other writes one full-sized
/// segment per tick, so its peer acknowledges every second one at once
/// instead of delaying the ACK.
#[test]
fn a_siblings_ack_unblocks_a_window_blocked_connection_the_same_tick() {
    const SILENT_IP: u32 = 0x0A00_0003;
    let mut w = World::new(LinkConfig::ideal());
    let mut silent = TcpStack::new(StackConfig::new(SILENT_IP), w.switch.attach(SILENT_IP));
    let sls = silent.socket();
    silent.bind(sls, SockAddr::new(0, 80)).unwrap();
    silent.listen(sls, 8).unwrap();
    let ls = w.listen(80, 8);

    let shared = SharedVmWindow::new();
    let open = |w: &mut World, ip: u32| {
        let cs = w.client.socket();
        let cc = Cc::VmShared(VmSharedCc::new(shared.clone()));
        w.client.connect(cs, SockAddr::new(ip, 80), w.now).unwrap();
        w.client.set_cc(cs, cc).unwrap();
        cs
    };
    let (blocked, chatty) = (open(&mut w, SILENT_IP), open(&mut w, SERVER_IP));
    for _ in 0..10 {
        w.step();
        silent.tick(w.now);
    }
    // Never read: a window update would count as a duplicate ACK.
    assert_eq!(w.accept_all(ls).len(), 1);

    // More than its half of the window: the rest waits. `silent` stops here.
    assert_eq!(
        w.client.send(blocked, &seeded_payload(1, 60_000)),
        Ok(60_000)
    );
    w.run(3);
    let mut opened = 0;
    for tick in 0..60u64 {
        let before = (shared.total_cwnd(), w.client.stats().segments_out);
        assert_eq!(w.client.send(chatty, &seeded_payload(tick, MSS)), Ok(MSS));
        w.step();
        let grew = shared.total_cwnd() > before.0;
        opened += u32::from(grew);
        assert_eq!(
            w.client.stats().segments_out - before.1,
            1 + u64::from(grew),
            "tick {tick}: chatty's segment, plus blocked's iff the window opened"
        );
    }
    assert!(opened > 20, "the shared window opened {opened} times");
}

/// Seeded many-socket run over a lossy, reordering link: 500 client sockets
/// — bulk senders, idle, half-closed, closed into TIME-WAIT, and SYNs to a
/// host that is not there — with every byte verified at the server. In a
/// debug build the skip-audit compares each tick with the full walk.
#[test]
fn five_hundred_mixed_sockets_over_a_lossy_link_deliver_every_byte() {
    const EACH: usize = 100;
    const BULK: usize = 8 * 1024;
    let link = LinkConfig::ideal()
        .with_latency_us(50)
        .with_loss(0.01)
        .with_reorder(0.05);
    let mut w = World::new(link);
    let ls = w.listen(80, 1024);
    let socks: Vec<SocketId> = (0..4 * EACH).map(|_| w.connect(80)).collect();
    let (bulk, rest) = socks.split_at(EACH);
    let (idle, rest) = rest.split_at(EACH);
    let (half_closed, time_wait) = rest.split_at(EACH);
    for _ in 0..EACH {
        let cs = w.client.socket();
        let nowhere = SockAddr::new(0x0A00_00EE, 80);
        w.client.connect(cs, nowhere, w.now).unwrap();
    }

    // What each client socket still has to say, and whether it then closes.
    let mut todo: Vec<(SocketId, Vec<u8>, Then)> = Vec::new();
    for i in 0..EACH {
        todo.push((bulk[i], seeded_payload(i as u64, BULK), Then::StayOpen));
        // One byte, then idle: a handshake whose last ACK is lost completes
        // only with the first data segment.
        todo.push((idle[i], seeded_payload(i as u64, 1), Then::StayOpen));
        todo.push((
            half_closed[i],
            seeded_payload(i as u64, 2048),
            Then::HalfClose,
        ));
        todo.push((time_wait[i], seeded_payload(i as u64, 1024), Then::Close));
    }
    let mut served: Vec<(SocketId, Vec<u8>, bool)> = Vec::new();
    let mut buf = vec![0u8; 16 * 1024];
    for _ in 0..40_000 {
        todo.retain_mut(|(cs, data, then)| {
            // Not before the handshake: closing a SYN-SENT socket kills it.
            if !w.client.poll(*cs).writable() {
                return true;
            }
            let n = w.client.send(*cs, data).unwrap();
            data.drain(..n);
            if !data.is_empty() {
                return true;
            }
            match then {
                Then::Close => w.client.close(*cs).unwrap(),
                Then::HalfClose => w.client.shutdown(*cs, ShutdownHow::Write).unwrap(),
                Then::StayOpen => {}
            }
            false
        });
        w.step();
        served.extend(w.accept_all(ls).into_iter().map(|s| (s, Vec::new(), false)));
        for (conn, got, eof) in served.iter_mut().filter(|(_, _, eof)| !eof) {
            match w.server.recv(*conn, &mut buf) {
                Ok(0) => *eof = true,
                Ok(n) => got.extend_from_slice(&buf[..n]),
                Err(_) => {}
            }
        }
        let bytes: usize = served.iter().map(|(_, got, _)| got.len()).sum();
        let eofs = served.iter().filter(|(_, _, eof)| *eof).count();
        if bytes == EACH * (BULK + 2048 + 1024 + 1) && eofs == 2 * EACH && served.len() == 4 * EACH
        {
            break;
        }
    }
    assert!(todo.is_empty(), "{} senders never finished", todo.len());
    assert_eq!(served.len(), 4 * EACH);

    // Every stream arrived whole; which client sent it shows in its length
    // and contents (accept order is arrival order, not connect order).
    let mut seen = std::collections::BTreeMap::new();
    for (_, got, eof) in &served {
        let expect = (0..EACH).find(|&i| *got == seeded_payload(i as u64, got.len()));
        assert!(expect.is_some(), "a corrupt stream of {} bytes", got.len());
        *seen.entry((got.len(), *eof)).or_insert(0) += 1;
    }
    let expected = [
        ((1, false), EACH),
        ((1024, true), EACH),
        ((2048, true), EACH),
        ((BULK, false), EACH),
    ];
    assert_eq!(seen.into_iter().collect::<Vec<_>>(), expected);

    // The server closes its side of the closed group: those client sockets
    // pass through TIME-WAIT and are reaped, every other one stays.
    for (conn, got, _) in &served {
        if got.len() == 1024 {
            w.server.close(*conn).unwrap();
        }
    }
    w.run(6 * (TIME_WAIT_NS / DT_NS) as usize);
    assert_eq!(w.client.socket_count(), 4 * EACH);
    let polled = w.client.stats().conns_polled;
    let walk = 5 * EACH as u64 * (w.now / DT_NS);
    assert!(polled * 4 < walk, "polled {polled} of a {walk}-poll walk");
}

/// ServiceLib ships received bytes for the sockets `Readable` events name,
/// but an accepted connection is entered on its own account: here its first
/// bytes — and their event — came and went before anything accepted it, and
/// they are still delivered, without a new segment to announce them.
#[test]
fn bytes_held_at_accept_time_are_pumped_without_a_new_segment() {
    let mut w = World::new(LinkConfig::ideal());
    let (mut guest_end, nsm_end) = queue_set_pair(1024);
    let mut service = ServiceLib::new(NsmId(1), NkDevice::new(vec![nsm_end], WakeState::new()), 8);
    // The world's "server" stack becomes the NSM's; the client is the remote.
    let stack = std::mem::replace(
        &mut w.server,
        TcpStack::new(StackConfig::new(0), w.switch.attach(0)),
    );
    let region = HugepageRegion::with_capacity(1 << 20);
    service.add_vm(VmId(1), region.clone());
    let mut nsm = TcpNsm::new(CcKind::Cubic, service, stack);
    let req = |op| Nqe::new(op, VmId(1), QueueSetId(0), SocketId(1));
    guest_end.submit(req(OpType::SocketCreate)).unwrap();
    let bind = req(OpType::Bind).with_op_data(SockAddr::new(0, 80).pack());
    guest_end.submit(bind).unwrap();
    guest_end
        .submit(req(OpType::Listen).with_op_data(16))
        .unwrap();
    nsm.tick(w.now);

    // Only the stack runs while the first connection and its bytes arrive,
    // and nobody reads the events.
    let first = w.connect(80);
    w.client.send(first, b"early bird").unwrap();
    for _ in 0..10 {
        w.step();
        nsm.stack_mut().tick(w.now);
    }
    nsm.stack_mut().discard_events();

    // A second connection raises `Acceptable`; both are accepted by it.
    w.connect(80);
    for _ in 0..10 {
        w.step();
        nsm.tick(w.now);
    }
    let mut resp = Vec::new();
    guest_end.pop_responses(&mut resp, 64);
    let count = |op| resp.iter().filter(|n| n.op == op).count();
    assert_eq!(count(OpType::Accepted), 2, "{resp:?}");
    assert_eq!(count(OpType::DataReceived), 1, "{resp:?}");
    let data = resp.iter().find(|n| n.op == OpType::DataReceived).unwrap();
    let mut out = [0u8; 10];
    region.read(data.data, &mut out).unwrap();
    assert_eq!(&out, b"early bird");
}

/// A wire the test carries by hand between two stacks' ports: until step
/// `clean_from` it loses, duplicates and delays (so reorders) frames as its
/// seed decides; from then on every frame it picks up arrives on the next
/// step.
struct HostileWire {
    ports: [Port<Segment>; 2],
    rng: SplitMix64,
    clean_from: u64,
    /// Frames on the wire by (delivery step, pickup order): the
    /// destination port's index and the frame.
    held: BTreeMap<(u64, u64), (usize, Frame<Segment>)>,
    picked: u64,
    /// Frames lost, duplicated and delayed by more than one step.
    harm: [u64; 3],
}

impl HostileWire {
    const LOSS: f64 = 0.1;
    const DUPLICATE: f64 = 0.05;
    /// A hostile step delays a frame by 1 to this many steps.
    const MAX_DELAY: u64 = 4;

    /// Pick up what both ports sent and deliver what is due at `step`.
    fn carry(&mut self, step: u64) {
        let mut sent = Vec::new();
        for from in 0..2 {
            self.ports[from].drain_tx_into(&mut sent);
            // Harm strikes wire frames: a train is carried as its segments.
            for frame in sent.drain(..).flat_map(Train::into_frames) {
                let hostile = step < self.clean_from;
                if hostile && self.rng.chance(Self::LOSS) {
                    self.harm[0] += 1;
                    continue;
                }
                let copies = if hostile && self.rng.chance(Self::DUPLICATE) {
                    self.harm[1] += 1;
                    2
                } else {
                    1
                };
                for _ in 0..copies {
                    let delay = if hostile {
                        1 + self.rng.next_below(Self::MAX_DELAY)
                    } else {
                        1
                    };
                    self.harm[2] += u64::from(delay > 1);
                    self.held
                        .insert((step + delay, self.picked), (1 - from, frame.clone()));
                    self.picked += 1;
                }
            }
        }
        while let Some(entry) = self.held.first_entry() {
            if entry.key().0 > step {
                break;
            }
            let (to, frame) = entry.remove();
            self.ports[to].deliver_burst(|rx| rx.push_back(frame));
        }
    }
}

/// Liveness as a property: a seeded wire loses, duplicates and reorders
/// frames until step `S`, then runs clean. A reader that reads everything
/// only every few steps keeps shutting a small receive window, so lost
/// window updates leave senders with nothing in flight behind a zero
/// window, which only the persist timer reopens. For every congestion
/// control and every seed, each transfer completes, intact, by `S` plus two
/// `MAX_RTO_NS` (the longest a backed-off retransmission or persist probe
/// waits) plus the reader's pace. Release builds run four times the seeds.
#[test]
fn every_transfer_completes_once_a_hostile_wire_runs_clean() {
    const CONNS: usize = 4;
    const BYTES: usize = 64 * 1024;
    const WINDOW: usize = 4 * MSS;
    const PACE: u64 = 8;
    const CLEAN_FROM: u64 = 1_000;
    const SEEDS: u64 = if cfg!(debug_assertions) { 8 } else { 32 };
    let budget = CLEAN_FROM + 2 * MAX_RTO_NS / DT_NS + PACE;
    let ccs: [fn() -> CcAlgorithm; 3] = [
        || CcAlgorithm::Reno,
        || CcAlgorithm::Cubic,
        || CcAlgorithm::VmShared(SharedVmWindow::new()),
    ];
    let mut harm = [0u64; 3];
    for (c, cc) in ccs.iter().enumerate() {
        for seed in 1..=SEEDS {
            let ports = [Port::new(CLIENT_IP), Port::new(SERVER_IP)];
            let mut client =
                TcpStack::new(StackConfig::new(CLIENT_IP).with_cc(cc()), ports[0].clone());
            let mut server_cfg = StackConfig::new(SERVER_IP).with_cc(cc());
            server_cfg.recv_buf = WINDOW;
            let mut server = TcpStack::new(server_cfg, ports[1].clone());
            let mut wire = HostileWire {
                ports,
                rng: SplitMix64::new(seed),
                clean_from: CLEAN_FROM,
                held: BTreeMap::new(),
                picked: 0,
                harm: [0; 3],
            };
            let ls = server.socket();
            server.bind(ls, SockAddr::new(0, 80)).unwrap();
            server.listen(ls, CONNS as u32).unwrap();
            let mut todo: Vec<(SocketId, Vec<u8>)> = (0..CONNS)
                .map(|i| {
                    let cs = client.socket();
                    client.connect(cs, SockAddr::new(SERVER_IP, 80), 0).unwrap();
                    (cs, seeded_payload(seed * 100 + i as u64, BYTES))
                })
                .collect();
            let mut served: Vec<(SocketId, Vec<u8>)> = Vec::new();
            let mut buf = vec![0u8; WINDOW];
            let mut done = false;
            for step in 1..=budget {
                let now = step * DT_NS;
                todo.retain_mut(|(cs, data)| {
                    if client.poll(*cs).writable() {
                        let n = client.send(*cs, data).unwrap_or(0);
                        data.drain(..n);
                    }
                    !data.is_empty()
                });
                client.tick(now);
                server.tick(now);
                wire.carry(step);
                served.extend(
                    std::iter::from_fn(|| server.accept(ls).ok())
                        .map(|(conn, _)| (conn, Vec::new())),
                );
                if step % PACE == 0 {
                    for (conn, got) in &mut served {
                        while let Ok(n @ 1..) = server.recv(*conn, &mut buf) {
                            got.extend_from_slice(&buf[..n]);
                        }
                    }
                }
                done = served.len() == CONNS && served.iter().all(|(_, got)| got.len() == BYTES);
                if done {
                    break;
                }
            }
            let delivered: Vec<usize> = served.iter().map(|(_, got)| got.len()).collect();
            assert!(
                done,
                "cc {c} seed {seed}: {delivered:?} of {BYTES} bytes by step {budget}"
            );
            let mut senders: Vec<usize> = (served.iter())
                .map(|(_, got)| {
                    (0..CONNS)
                        .find(|&i| *got == seeded_payload(seed * 100 + i as u64, BYTES))
                        .expect("a corrupt stream")
                })
                .collect();
            senders.sort_unstable();
            assert_eq!(senders, (0..CONNS).collect::<Vec<_>>());
            for (total, n) in harm.iter_mut().zip(wire.harm) {
                *total += n;
            }
        }
    }
    assert!(
        harm.iter().all(|&n| n > 0),
        "lost, duplicated, delayed: {harm:?}"
    );
}
