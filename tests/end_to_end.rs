//! Workspace-level integration tests spanning every crate: GuestLib →
//! CoreEngine → NSM → virtual fabric → remote hosts, plus the baseline
//! configuration, exercised through the public facade crate.

use netkernel::host::{BaselineVm, NetKernelHost};
use netkernel::netstack::Segment;
use netkernel::types::{
    CcKind, HostConfig, NkError, NsmConfig, NsmId, PollEvents, SockAddr, SocketApi, StackKind,
    VmConfig, VmId, VmToNsmPolicy,
};
use netkernel::workload::{ClosedLoopClient, EchoServer};

const REMOTE_IP: u32 = 0x0A00_0500;

fn host_with(stack: StackKind, vms: u8) -> NetKernelHost {
    let nsm = match stack {
        StackKind::Mtcp => NsmConfig::mtcp(NsmId(1)),
        StackKind::SharedMem => NsmConfig::shared_mem(NsmId(1)),
        StackKind::Kernel => NsmConfig::kernel(NsmId(1)).with_vcpus(2),
    };
    let mut cfg = HostConfig::new()
        .with_nsm(nsm)
        .with_mapping(VmToNsmPolicy::All(NsmId(1)));
    for vm in 1..=vms {
        cfg = cfg.with_vm(VmConfig::new(VmId(vm)));
    }
    NetKernelHost::new(cfg).unwrap()
}

/// Bulk data integrity: a large buffer sent by the guest arrives intact at a
/// remote server after traversing the full NetKernel pipeline.
#[test]
fn bulk_transfer_is_delivered_intact() {
    let mut host = host_with(StackKind::Kernel, 1);
    let remote = host.add_remote(REMOTE_IP);
    let listener = remote.socket();
    remote.bind(listener, SockAddr::new(0, 9000)).unwrap();
    remote.listen(listener, 8).unwrap();

    let guest = host.guest_mut(VmId(1)).unwrap();
    let sock = guest.socket().unwrap();
    guest.connect(sock, SockAddr::new(REMOTE_IP, 9000)).unwrap();
    host.run(20, 100_000);

    let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
    let mut sent = 0usize;
    let mut received = Vec::new();
    let mut server_conn = None;
    let mut buf = vec![0u8; 32 * 1024];
    for _ in 0..3_000 {
        if sent < payload.len() {
            let guest = host.guest_mut(VmId(1)).unwrap();
            if let Ok(n) = guest.send(sock, &payload[sent..]) {
                sent += n;
            }
        }
        host.run(1, 100_000);
        let remote = host.remote_mut(REMOTE_IP).unwrap();
        if server_conn.is_none() {
            if let Ok((c, _)) = remote.accept(listener) {
                server_conn = Some(c);
            }
        }
        if let Some(c) = server_conn {
            while let Ok(n) = remote.recv(c, &mut buf) {
                if n == 0 {
                    break;
                }
                received.extend_from_slice(&buf[..n]);
            }
        }
        if received.len() >= payload.len() {
            break;
        }
    }
    assert_eq!(received.len(), payload.len(), "incomplete delivery");
    assert_eq!(received, payload, "corrupted delivery");
}

/// The same workload code (epoll echo server + closed-loop client) completes
/// requests both on NetKernel (two guest VMs over the shared-memory NSM) and
/// on the baseline in-guest stack.
#[test]
fn workloads_run_unmodified_on_netkernel_and_baseline() {
    // NetKernel: the server runs in guest VM 1, the client in guest VM 2,
    // both colocated and served by the shared-memory NSM. The exact same
    // EchoServer / ClosedLoopClient types are used below on the baseline.
    let mut host = host_with(StackKind::SharedMem, 2);
    let g1 = host.guest_mut(VmId(1)).unwrap();
    let mut nk_server = EchoServer::start(g1, SockAddr::new(0, 8080), 64).unwrap();
    let mut nk_client = ClosedLoopClient::new(SockAddr::new(0, 8080), 64, 4);
    for _ in 0..400 {
        {
            let g2 = host.guest_mut(VmId(2)).unwrap();
            nk_client.poll(g2);
        }
        host.run(1, 100_000);
        {
            let g1 = host.guest_mut(VmId(1)).unwrap();
            nk_server.poll(g1);
        }
        host.run(1, 100_000);
        if nk_client.completed >= 10 {
            break;
        }
    }
    assert!(
        nk_client.completed >= 10,
        "netkernel (shared-memory NSM): only {} requests completed",
        nk_client.completed
    );

    // Baseline: both ends are baseline VMs on a plain switch; the *same*
    // EchoServer / ClosedLoopClient types run on their in-guest stacks.
    let mut switch = netkernel::fabric::VirtualSwitch::<Segment>::new();
    let mut server_vm = BaselineVm::new(1, &mut switch);
    let mut client_vm = BaselineVm::new(2, &mut switch);
    let mut server = EchoServer::start(server_vm.stack_mut(), SockAddr::new(0, 80), 64).unwrap();
    let mut client = ClosedLoopClient::new(SockAddr::new(1, 80), 64, 8);
    for i in 1..2_000u64 {
        let now = i * 100_000;
        client.poll(client_vm.stack_mut());
        server.poll(server_vm.stack_mut());
        client_vm.step(now);
        server_vm.step(now);
        switch.step(now);
        if client.completed >= 50 {
            break;
        }
    }
    assert!(
        client.completed >= 50,
        "baseline: {} completed",
        client.completed
    );
    assert!(server.requests >= 50);
    assert_eq!(client.bytes_received, client.completed * 64);
}

/// A guest server behind the NSM accepts connections originated by remote
/// clients (passive open through the NetKernel path).
#[test]
fn remote_clients_reach_a_guest_server() {
    let mut host = host_with(StackKind::Kernel, 1);
    let nsm_ip = host.nsm_addr(NsmId(1));

    // Guest server listens on port 8080 (through its NSM's vNIC address).
    let guest = host.guest_mut(VmId(1)).unwrap();
    let listener = guest.socket().unwrap();
    guest.bind(listener, SockAddr::new(0, 8080)).unwrap();
    guest.listen(listener, 16).unwrap();
    guest
        .epoll_register(listener, PollEvents::READABLE)
        .unwrap();
    host.run(5, 100_000);

    // Three remote clients connect and send one request each.
    let remote = host.add_remote(REMOTE_IP);
    let mut clients = Vec::new();
    for _ in 0..3 {
        let c = remote.socket();
        remote.connect(c, SockAddr::new(nsm_ip, 8080), 0).unwrap();
        clients.push(c);
    }
    host.run(30, 100_000);
    {
        let remote = host.remote_mut(REMOTE_IP).unwrap();
        for &c in &clients {
            let _ = remote.send(c, b"request");
        }
    }
    host.run(30, 100_000);

    // The guest accepts all three and sees their data.
    let guest = host.guest_mut(VmId(1)).unwrap();
    let mut accepted = 0;
    let mut readable = 0;
    let mut buf = [0u8; 64];
    while let Ok((conn, _peer)) = guest.accept(listener) {
        accepted += 1;
        if let Ok(n) = guest.recv(conn, &mut buf) {
            if n > 0 {
                readable += 1;
                assert_eq!(&buf[..n], b"request");
            }
        }
    }
    assert_eq!(accepted, 3, "all remote connections must be accepted");
    assert!(readable >= 2, "most connections should have delivered data");
}

/// Fair sharing is one setting: a kernel NSM whose `cc` is `VmShared`
/// serves two VMs, one streaming out through a guest connect and one
/// accepting a remote client, and both streams arrive intact.
#[test]
fn a_vm_shared_nsm_carries_a_connect_and_an_accept() {
    let nsm = NsmConfig::kernel(NsmId(1)).with_cc(CcKind::VmShared);
    let cfg = HostConfig::new()
        .with_nsm(nsm)
        .with_mapping(VmToNsmPolicy::All(NsmId(1)))
        .with_vm(VmConfig::new(VmId(1)))
        .with_vm(VmConfig::new(VmId(2)));
    let mut host = NetKernelHost::new(cfg).unwrap();
    let nsm_ip = host.nsm_addr(NsmId(1));
    let remote = host.add_remote(REMOTE_IP);
    let rl = remote.socket();
    remote.bind(rl, SockAddr::new(0, 80)).unwrap();
    remote.listen(rl, 8).unwrap();
    let g2 = host.guest_mut(VmId(2)).unwrap();
    let l2 = g2.socket().unwrap();
    g2.bind(l2, SockAddr::new(0, 8080)).unwrap();
    g2.listen(l2, 8).unwrap();
    let g1 = host.guest_mut(VmId(1)).unwrap();
    let s1 = g1.socket().unwrap();
    g1.connect(s1, SockAddr::new(REMOTE_IP, 80)).unwrap();
    host.run(10, 100_000);
    let remote = host.remote_mut(REMOTE_IP).unwrap();
    let rc = remote.socket();
    remote.connect(rc, SockAddr::new(nsm_ip, 8080), 0).unwrap();
    host.run(20, 100_000);

    let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
    let (mut sent, mut received, mut conns) = (0, Vec::new(), None);
    let mut buf = vec![0u8; 32 * 1024];
    for _ in 0..2_000 {
        if sent < payload.len() {
            if let Ok(n) = host.guest_mut(VmId(1)).unwrap().send(s1, &payload[sent..]) {
                sent += n;
            }
        }
        host.run(1, 100_000);
        let remote = host.remote_mut(REMOTE_IP).unwrap();
        if conns.is_none() {
            if let Ok((c, _)) = remote.accept(rl) {
                remote.send(rc, b"request").unwrap();
                conns = Some(c);
            }
        }
        if let Some(c) = conns {
            while let Ok(n) = remote.recv(c, &mut buf) {
                if n == 0 {
                    break;
                }
                received.extend_from_slice(&buf[..n]);
            }
        }
        if received.len() == payload.len() {
            break;
        }
    }
    assert!(
        received == payload,
        "VM 1's stream: {} bytes",
        received.len()
    );
    host.run(20, 100_000);
    let g2 = host.guest_mut(VmId(2)).unwrap();
    let (conn, _) = g2.accept(l2).unwrap();
    assert_eq!(g2.recv(conn, &mut buf), Ok(7));
    assert_eq!(&buf[..7], b"request");
}

/// Multiple VMs share one NSM and an error case: connecting to a closed port
/// surfaces as an error/hang-up on the guest socket.
#[test]
fn shared_nsm_isolation_of_errors() {
    let mut host = host_with(StackKind::Kernel, 2);
    host.add_remote(REMOTE_IP);

    // VM1 connects to a port nobody listens on.
    let g1 = host.guest_mut(VmId(1)).unwrap();
    let bad = g1.socket().unwrap();
    g1.connect(bad, SockAddr::new(REMOTE_IP, 9999)).unwrap();

    // VM2 uses a perfectly fine connection at the same time.
    let remote = host.remote_mut(REMOTE_IP).unwrap();
    let listener = remote.socket();
    remote.bind(listener, SockAddr::new(0, 80)).unwrap();
    remote.listen(listener, 8).unwrap();
    let g2 = host.guest_mut(VmId(2)).unwrap();
    let good = g2.socket().unwrap();
    g2.connect(good, SockAddr::new(REMOTE_IP, 80)).unwrap();

    host.run(40, 100_000);

    let g1 = host.guest_mut(VmId(1)).unwrap();
    let ev1 = g1.poll(bad);
    assert!(
        ev1.error() || ev1.hup(),
        "failed connect must be reported: {ev1:?}"
    );
    assert_eq!(g1.recv(bad, &mut [0u8; 4]), Err(NkError::ConnRefused));

    let g2 = host.guest_mut(VmId(2)).unwrap();
    assert!(
        g2.poll(good).writable(),
        "VM2's connection must be unaffected"
    );
}

/// A connect nobody answers gives up: the NSM's stack stops resending the
/// SYN after five backoffs (≈ 3.15 s), and the guest's socket then reports
/// `TimedOut`, not the `ConnRefused` of a reset.
#[test]
fn a_connect_nobody_answers_times_out_at_the_guest() {
    let mut host = host_with(StackKind::Kernel, 1);
    let g = host.guest_mut(VmId(1)).unwrap();
    let s = g.socket().unwrap();
    g.connect(s, SockAddr::new(REMOTE_IP, 80)).unwrap(); // no remote there
    host.run(300, 10_000_000); // 3 s: the fifth backoff has not run out
    let ev = host.guest_mut(VmId(1)).unwrap().poll(s);
    assert!(!ev.error() && !ev.hup(), "gave up early: {ev:?}");
    host.run(20, 10_000_000);
    let g = host.guest_mut(VmId(1)).unwrap();
    let ev = g.poll(s);
    assert!(
        ev.error() || ev.hup(),
        "the failed connect is reported: {ev:?}"
    );
    assert_eq!(g.recv(s, &mut [0u8; 4]), Err(NkError::TimedOut));
}

/// A guest speaks only for itself. VM 1 and VM 2 share one NSM; VM 2's ring
/// submits a `SocketCreate`, and a `Send` naming a chunk that is live in VM
/// 1's hugepages, both claiming `vm = VmId(1)`. CoreEngine stamps each
/// request with the port it came from, so both are answered on VM 2's own
/// ring, VM 1's ring and region stay untouched, and nothing is pinned for
/// VM 1.
#[test]
fn a_forged_vm_id_is_answered_as_the_sender() {
    use netkernel::engine::CoreEngine;
    use netkernel::fabric::VirtualSwitch;
    use netkernel::netstack::{StackConfig, TcpStack};
    use netkernel::queue::{queue_set_pair, NkDevice, WakeState};
    use netkernel::service::{Nsm, ServiceLib, TcpNsm};
    use netkernel::shmem::HugepageRegion;
    use netkernel::sim::Pollable;
    use netkernel::types::{CcKind, IsolationPolicy, Nqe, OpType, QueueSetId, SocketId};

    const NSM_IP: u32 = 0x0A00_0010;
    let mut switch = VirtualSwitch::<Segment>::new();
    let (engine_end, nsm_end) = queue_set_pair(64);
    let device = NkDevice::new(vec![nsm_end], WakeState::new());
    let stack = TcpStack::new(StackConfig::new(NSM_IP), switch.attach(NSM_IP));
    let service = ServiceLib::new(NsmId(1), device, 8);
    let mut nsm = Nsm::Tcp(Box::new(TcpNsm::new(CcKind::Cubic, service, stack)));
    let mut engine = CoreEngine::new(IsolationPolicy::RoundRobin, 8);
    engine.register_nsm(NsmId(1), vec![engine_end]).unwrap();
    let mut rings = Vec::new();
    let mut regions = Vec::new();
    for vm in [VmId(1), VmId(2)] {
        let (guest_end, vm_end) = queue_set_pair(64);
        let region = HugepageRegion::with_capacity(1 << 20);
        let wake = WakeState::new();
        engine
            .register_vm(vm, vec![vm_end], wake, 0, None, Some(region.clone()), 0)
            .unwrap();
        engine.map_vm(vm, NsmId(1)).unwrap();
        nsm.add_vm(vm, region.clone());
        rings.push(guest_end);
        regions.push(region);
    }
    let victim = regions[0].alloc_and_write(b"tenant one's bytes").unwrap();
    let before = regions[0].stats();

    let forged = |op| Nqe::new(op, VmId(1), QueueSetId(0), SocketId(5));
    rings[1].submit(forged(OpType::SocketCreate)).unwrap();
    rings[1]
        .submit(forged(OpType::Send).with_data(victim, 18))
        .unwrap();
    for step in 1..=4 {
        let now = step * 100_000;
        engine.poll(now);
        nsm.poll(now);
        engine.poll(now);
    }

    let mut answers = Vec::new();
    rings[1].pop_responses(&mut answers, 16);
    let answers: Vec<_> = answers.iter().map(|n| (n.op, n.vm, n.socket)).collect();
    assert_eq!(
        answers,
        [
            (OpType::SocketCreated, VmId(2), SocketId(5)),
            (OpType::SendComplete, VmId(2), SocketId(5)),
        ],
        "both answers come back on the sender's own ring"
    );
    let mut leaked = Vec::new();
    assert_eq!(rings[0].pop_responses(&mut leaked, 16), 0, "{leaked:?}");
    assert_eq!(regions[0].stats(), before, "VM 1's hugepages were touched");
    let mut out = [0u8; 18];
    regions[0].read(victim, &mut out).unwrap();
    assert_eq!(&out, b"tenant one's bytes");
    assert_eq!(engine.pinned_connections(VmId(1), NsmId(1)), 0);
    assert_eq!(engine.pinned_connections(VmId(2), NsmId(1)), 1);
}

/// Bytes VM A's one connection and VM B's three delivered to a sink VM
/// in 2 000 steps of 100 µs, all three VMs on one `VmShared` kernel NSM
/// whose vNIC is capped at 1 Gbps. Every byte A and B send crosses that
/// cap on its way back into the NSM, so the two senders contend for it.
fn delivered_by_a_and_b() -> (usize, usize) {
    let nsm = NsmConfig {
        nic_rate_gbps: 1.0,
        ..NsmConfig::kernel(NsmId(1)).with_cc(CcKind::VmShared)
    };
    let mut cfg = HostConfig::new()
        .with_nsm(nsm)
        .with_mapping(VmToNsmPolicy::All(NsmId(1)));
    for vm in 1..=3 {
        cfg = cfg.with_vm(VmConfig::new(VmId(vm)));
    }
    let mut host = NetKernelHost::new(cfg).unwrap();
    let nsm_ip = host.nsm_addr(NsmId(1));
    let sink = host.guest_mut(VmId(3)).unwrap();
    let listeners = [8001, 8002].map(|port| {
        let l = sink.socket().unwrap();
        sink.bind(l, SockAddr::new(0, port)).unwrap();
        sink.listen(l, 8).unwrap();
        l
    });
    let senders: Vec<(usize, VmId, _)> = [(0, VmId(1), 1), (1, VmId(2), 3)]
        .into_iter()
        .flat_map(|(who, vm, flows)| {
            let guest = host.guest_mut(vm).unwrap();
            (0..flows)
                .map(|_| {
                    let s = guest.socket().unwrap();
                    guest
                        .connect(s, SockAddr::new(nsm_ip, 8001 + who as u16))
                        .unwrap();
                    (who, vm, s)
                })
                .collect::<Vec<_>>()
        })
        .collect();
    host.run(20, 100_000);
    let sink = host.guest_mut(VmId(3)).unwrap();
    let mut accepted = Vec::new();
    for (who, &l) in listeners.iter().enumerate() {
        while let Ok((conn, _)) = sink.accept(l) {
            accepted.push((who, conn));
        }
    }
    assert_eq!(accepted.len(), 4, "every connection is accepted");

    let chunk = vec![0x5Au8; 16 * 1024];
    let mut buf = vec![0u8; 64 * 1024];
    let mut delivered = [0usize; 2];
    for _ in 0..2_000 {
        for &(_, vm, s) in &senders {
            let guest = host.guest_mut(vm).unwrap();
            while guest.send(s, &chunk).is_ok_and(|n| n > 0) {}
        }
        host.run(1, 100_000);
        let sink = host.guest_mut(VmId(3)).unwrap();
        for &(who, conn) in &accepted {
            while let Ok(n) = sink.recv(conn, &mut buf) {
                if n == 0 {
                    break;
                }
                delivered[who] += n;
            }
        }
    }
    (delivered[0], delivered[1])
}

/// Figure 9's claim, measured: on a `VmShared` NSM a VM with three
/// connections gets no more of a capped vNIC than a VM with one, since
/// each VM's connections split that VM's one window. It does not hold yet:
/// VM A reads 81 % of the bytes (CHANGES.md, the `FOUND:` line on
/// `VmSharedCc`), so the test is ignored until that is mended.
#[test]
#[ignore = "the split reads 81/19, not 50/50: VmSharedCc's fairness is open"]
fn a_vm_shared_nsm_splits_a_capped_vnic_evenly_between_vms() {
    let (a, b) = delivered_by_a_and_b();
    let half = (a + b) as f64 / 2.0;
    for (vm, bytes) in [("A", a), ("B", b)] {
        assert!(
            (bytes as f64 - half).abs() <= 0.1 * half,
            "VM {vm} delivered {bytes} of {} bytes",
            a + b
        );
    }
}
