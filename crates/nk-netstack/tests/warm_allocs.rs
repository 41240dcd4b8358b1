//! A warm step allocates nothing: once two stacks have exchanged traffic of
//! one shape for a while, every buffer a step needs — the send queues' open
//! tails once frozen, pieces gathered across a seam, run tables, timer and
//! ACK queues, the switches' queues and the trunks between them — comes
//! back from an earlier step. The count is of allocations made on the
//! test's own thread: the test harness allocates on threads of its own.

use nk_fabric::switch::VirtualSwitch;
use nk_fabric::Port;
use nk_netstack::{Segment, StackConfig, TcpStack};
use nk_types::addr::{host_prefix, HOST_PREFIX_MASK};
use nk_types::{ClusterConfig, HostId, SockAddr, SocketId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made on this thread since counting began; `None` while
    /// not counting.
    static COUNTED: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count() {
    // A thread being torn down has no counter left; it is not counting.
    let _ = COUNTED.try_with(|n| n.set(n.get().map(|n| n + 1)));
}

/// The system allocator, counting the allocations of a thread that asked.
struct ThreadCounting;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract the caller already upholds; the counter is a
// thread-local `Cell` that never influences the pointers returned.
unsafe impl GlobalAlloc for ThreadCounting {
    // SAFETY: the caller upholds this method's `GlobalAlloc` contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; see the impl-level comment.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller upholds this method's `GlobalAlloc` contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; see the impl-level comment.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: the caller upholds this method's `GlobalAlloc` contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; see the impl-level comment.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller upholds this method's `GlobalAlloc` contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; see the impl-level comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: ThreadCounting = ThreadCounting;

/// Allocations this thread makes while `f` runs.
fn allocations(f: impl FnOnce()) -> u64 {
    COUNTED.set(Some(0));
    f();
    COUNTED.replace(None).expect("counting")
}

const SERVER_IP: u32 = 0x0A00_0001;
const CLIENT_IP: u32 = 0x0A00_0002;
/// Steps run before counting, and steps counted.
const STEPS: usize = 2000;

/// A client and a server stack with `conns` connections between them, and
/// the switches that carry their frames.
struct World {
    switches: Vec<VirtualSwitch<Segment>>,
    client: TcpStack,
    server: TcpStack,
    now: u64,
    pairs: Vec<(SocketId, SocketId)>,
}

impl World {
    /// Both stacks on one switch.
    fn new(conns: usize) -> Self {
        let mut switch = VirtualSwitch::new();
        let server = (SERVER_IP, switch.attach(SERVER_IP));
        let client = (CLIENT_IP, switch.attach(CLIENT_IP));
        Self::connected(vec![switch], server, client, conns)
    }

    /// Each stack on a host switch of its own, the two joined through a
    /// ToR by trunks shaped as a cluster's uplinks: every frame crosses
    /// both trunks.
    fn across_a_tor(conns: usize) -> Self {
        let mut tor = VirtualSwitch::new();
        let uplink = ClusterConfig::new().with_uplink_latency_us(2).uplink();
        let mut host = |id: u8| {
            let prefix = host_prefix(HostId(id));
            let ip = prefix | 0xFF;
            let mut switch = VirtualSwitch::new();
            let trunk = tor.attach_trunk(prefix, HOST_PREFIX_MASK, uplink);
            switch.set_uplink_filtered(trunk, prefix, HOST_PREFIX_MASK);
            let port = switch.attach(ip);
            (switch, (ip, port))
        };
        let (server_switch, server) = host(1);
        let (client_switch, client) = host(2);
        Self::connected(
            vec![server_switch, client_switch, tor],
            server,
            client,
            conns,
        )
    }

    fn connected(
        switches: Vec<VirtualSwitch<Segment>>,
        (server_ip, server_port): (u32, Port<Segment>),
        (client_ip, client_port): (u32, Port<Segment>),
        conns: usize,
    ) -> Self {
        let mut w = World {
            switches,
            client: TcpStack::new(StackConfig::new(client_ip), client_port),
            server: TcpStack::new(StackConfig::new(server_ip), server_port),
            now: 0,
            pairs: Vec::new(),
        };
        let ls = w.server.socket();
        w.server.bind(ls, SockAddr::new(0, 80)).unwrap();
        w.server.listen(ls, conns as u32).unwrap();
        let clients: Vec<SocketId> = (0..conns).map(|_| w.client.socket()).collect();
        for &cs in &clients {
            w.client
                .connect(cs, SockAddr::new(server_ip, 80), w.now)
                .unwrap();
        }
        for _ in 0..10 {
            w.step();
        }
        let mut accepted: Vec<_> = std::iter::from_fn(|| w.server.accept(ls).ok())
            .map(|(conn, peer)| (peer, conn))
            .collect();
        accepted.sort_unstable();
        assert_eq!(accepted.len(), conns);
        // Ephemeral ports rise with the client's socket ids.
        w.pairs = clients
            .into_iter()
            .zip(accepted)
            .map(|(cs, (_, conn))| (cs, conn))
            .collect();
        w
    }

    /// One 100-µs step: both stacks tick, the switches move their frames,
    /// the host switches before the ToR.
    fn step(&mut self) {
        self.now += 100_000;
        self.client.tick(self.now);
        self.server.tick(self.now);
        for switch in &mut self.switches {
            switch.step(self.now);
        }
        self.client.discard_events();
        self.server.discard_events();
    }
}

/// Bytes a server end read and has not yet sent back.
struct Echo {
    buf: Vec<u8>,
    at: usize,
    len: usize,
}

impl Echo {
    /// One echo per connection, each reading up to `cap` bytes at a time.
    fn each(conns: usize, cap: usize) -> Vec<Echo> {
        (0..conns)
            .map(|_| Echo {
                buf: vec![0; cap],
                at: 0,
                len: 0,
            })
            .collect()
    }

    /// Read what `conn` holds once the last read went back, and send back
    /// as much of it as the send buffer takes.
    fn pump(&mut self, server: &mut TcpStack, conn: SocketId) {
        if self.len == 0 {
            (self.at, self.len) = (0, server.recv(conn, &mut self.buf).unwrap_or(0));
        }
        if self.len > 0 {
            let n = server
                .send(conn, &self.buf[self.at..self.at + self.len])
                .unwrap_or(0);
            (self.at, self.len) = (self.at + n, self.len - n);
        }
    }
}

/// Run `shape` for [`STEPS`] steps to warm up, then for [`STEPS`] more
/// counted; returns the allocations and the bytes that came back to the
/// clients while counted.
fn warm_then_count(w: &mut World, mut shape: impl FnMut(&mut World) -> usize) -> (u64, usize) {
    for _ in 0..STEPS {
        shape(w);
    }
    let mut echoed = 0;
    let n = allocations(|| {
        for _ in 0..STEPS {
            echoed += shape(w);
        }
    });
    (n, echoed)
}

/// `rpc`-shaped: 64 connections, each with one 64-B request at a time
/// that the server echoes.
#[test]
fn a_warm_rpc_step_allocates_nothing() {
    rpc_allocates_nothing(World::new(64));
}

/// `bulk`-shaped: 4 connections, each writing 16 KiB whenever its send
/// buffer takes it, and the server echoing what it reads.
#[test]
fn a_warm_bulk_step_allocates_nothing() {
    bulk_allocates_nothing(World::new(4));
}

/// Both shapes with each stack on a host of its own: the trunks and the
/// ToR hand frames on in buffers they trade, never in a node per frame.
#[test]
fn a_warm_step_across_a_tor_allocates_nothing() {
    rpc_allocates_nothing(World::across_a_tor(64));
    bulk_allocates_nothing(World::across_a_tor(4));
}

fn rpc_allocates_nothing(mut w: World) {
    let mut echo = Echo::each(64, 64);
    let mut owed = [0usize; 64];
    let mut reply = [0u8; 64];
    let (allocs, echoed) = warm_then_count(&mut w, |w| {
        let mut back = 0;
        for (i, &(cs, conn)) in w.pairs.iter().enumerate() {
            let n = w.client.recv(cs, &mut reply).unwrap_or(0);
            (owed[i], back) = (owed[i] - n, back + n);
            if owed[i] == 0 {
                owed[i] = w.client.send(cs, &[i as u8; 64]).unwrap();
            }
            echo[i].pump(&mut w.server, conn);
        }
        w.step();
        back
    });
    assert!(
        echoed >= 64 * 64 * STEPS / 10,
        "only {echoed} bytes came back"
    );
    assert_eq!(
        allocs,
        0,
        "{allocs} allocations over {} echoes",
        echoed / 64
    );
}

fn bulk_allocates_nothing(mut w: World) {
    let mut echo = Echo::each(4, 64 << 10);
    let chunk: Vec<u8> = (0..16 << 10).map(|i| (i % 251) as u8).collect();
    let mut sink = vec![0u8; 64 << 10];
    let (allocs, echoed) = warm_then_count(&mut w, |w| {
        let mut back = 0;
        for (i, &(cs, conn)) in w.pairs.iter().enumerate() {
            back += w.client.recv(cs, &mut sink).unwrap_or(0);
            while w.client.send(cs, &chunk) == Ok(chunk.len()) {}
            echo[i].pump(&mut w.server, conn);
        }
        w.step();
        back
    });
    assert!(
        echoed >= STEPS * chunk.len(),
        "only {echoed} bytes came back"
    );
    assert_eq!(allocs, 0, "{allocs} allocations over {echoed} bytes echoed");
}
