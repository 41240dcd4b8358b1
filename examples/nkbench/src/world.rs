//! The three things a workload can run on, behind one trait: the real
//! [`NetKernelHost`], a real [`Cluster`], and [`WiredHost`] — the same
//! public parts as `NetKernelHost::new` assembled here so each layer's
//! `poll` can be timed from outside.

use crate::clock::now_ns;
use crate::trace::{Layer, Tracer};
use netkernel::cluster::Cluster;
use netkernel::engine::{CoreEngine, EngineStats, VmSwitchStats};
use netkernel::fabric::link::LinkConfig;
use netkernel::fabric::VirtualSwitch;
use netkernel::guest::GuestLib;
use netkernel::host::NetKernelHost;
use netkernel::netstack::{CcAlgorithm, Segment, StackConfig, TcpStack};
use netkernel::queue::{queue_set_pair, NkDevice, WakeState};
use netkernel::service::{ServiceLib, ServiceStats};
use netkernel::shmem::HugepageRegion;
use netkernel::types::addr::nsm_ip_on;
use netkernel::types::api::{EpollEvent, ShutdownHow};
use netkernel::types::{
    HostConfig, HostId, NkResult, NsmId, PollEvents, SockAddr, SocketApi, SocketId, VmId,
};
use std::collections::BTreeMap;

use crate::apps::DT_NS;

/// Where a client app's guest lives. Single-host worlds ignore `host`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GuestLoc {
    /// The host (cluster worlds only).
    pub host: HostId,
    /// The VM.
    pub vm: VmId,
}

/// Where an echo server's stack is attached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RemoteLoc {
    /// On a host's own virtual switch (single-host worlds ignore the id).
    OnHost(HostId, u32),
    /// At the top-of-rack switch (cluster worlds only).
    AtTor(u32),
}

/// Deterministic counters read through public accessors. Every field is a
/// function of the inputs alone, so two runs of one seed must agree on all
/// of them, at any thread count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorldCounts {
    /// Σ `GuestStats::nqes_sent`.
    pub guest_nqes_sent: u64,
    /// Σ `GuestStats::nqes_received`.
    pub guest_nqes_received: u64,
    /// Σ `GuestStats::bytes_sent`.
    pub guest_bytes_sent: u64,
    /// Σ `GuestStats::bytes_received`.
    pub guest_bytes_received: u64,
    /// Σ `GuestStats::errors`.
    pub guest_errors: u64,
    /// Σ `VmSwitchStats::nqes_forwarded`.
    pub vm_forwarded: u64,
    /// Σ `VmSwitchStats::nqes_delivered`.
    pub vm_delivered: u64,
    /// Σ `VmSwitchStats::dropped`.
    pub vm_dropped: u64,
    /// Σ `EngineStats::nqes_switched`.
    pub engine_nqes_switched: u64,
    /// Σ `EngineStats::poll_rounds`.
    pub engine_poll_rounds: u64,
    /// Σ `EngineStats::wakeups`.
    pub engine_wakeups: u64,
    /// Request NQEs parked in engine stall queues right now.
    pub engine_stalled: u64,
    /// Connection-table entries right now.
    pub engine_conns: u64,
    /// Σ `ServiceStats::requests`.
    pub service_requests: u64,
    /// Σ `ServiceStats::responses`.
    pub service_responses: u64,
    /// Σ `ServiceStats::bytes_tx`.
    pub service_bytes_tx: u64,
    /// Σ `ServiceStats::bytes_rx`.
    pub service_bytes_rx: u64,
    /// Steps executed (`SchedStats` / `ClusterStats`).
    pub steps: u64,
    /// Poll rounds executed.
    pub rounds: u64,
    /// Segments in + out over every echo-server stack.
    pub peer_segments: u64,
    /// Sockets alive in the echo-server stacks right now.
    pub peer_sockets: u64,
    /// `ClusterStats::poll_work` (0 on a single host).
    pub poll_work: u64,
    /// `ClusterStats::barrier_frames` (0 on a single host).
    pub barrier_frames: u64,
    /// `Cluster::event_digest` (0 on a single host).
    pub event_digest: u64,
}

impl WorldCounts {
    /// Every counter by name, for the digest and the JSON report.
    pub fn fields(&self) -> [(&'static str, u64); 24] {
        [
            ("guest_nqes_sent", self.guest_nqes_sent),
            ("guest_nqes_received", self.guest_nqes_received),
            ("guest_bytes_sent", self.guest_bytes_sent),
            ("guest_bytes_received", self.guest_bytes_received),
            ("guest_errors", self.guest_errors),
            ("vm_forwarded", self.vm_forwarded),
            ("vm_delivered", self.vm_delivered),
            ("vm_dropped", self.vm_dropped),
            ("engine_nqes_switched", self.engine_nqes_switched),
            ("engine_poll_rounds", self.engine_poll_rounds),
            ("engine_wakeups", self.engine_wakeups),
            ("engine_stalled", self.engine_stalled),
            ("engine_conns", self.engine_conns),
            ("service_requests", self.service_requests),
            ("service_responses", self.service_responses),
            ("service_bytes_tx", self.service_bytes_tx),
            ("service_bytes_rx", self.service_bytes_rx),
            ("steps", self.steps),
            ("rounds", self.rounds),
            ("peer_segments", self.peer_segments),
            ("peer_sockets", self.peer_sockets),
            ("poll_work", self.poll_work),
            ("barrier_frames", self.barrier_frames),
            ("event_digest", self.event_digest),
        ]
    }

    /// Fold one guest's view, taken after draining its completions (the
    /// conservation checks compare guest and engine views).
    fn add_guest(&mut self, guest: &mut GuestLib) {
        guest.drive();
        let s = guest.stats();
        self.guest_nqes_sent += s.nqes_sent;
        self.guest_nqes_received += s.nqes_received;
        self.guest_bytes_sent += s.bytes_sent;
        self.guest_bytes_received += s.bytes_received;
        self.guest_errors += s.errors;
    }

    fn add_vm(&mut self, s: VmSwitchStats) {
        self.vm_forwarded += s.nqes_forwarded;
        self.vm_delivered += s.nqes_delivered;
        self.vm_dropped += s.dropped;
    }

    fn add_engine(&mut self, e: EngineStats, stalled: usize) {
        self.engine_nqes_switched += e.nqes_switched;
        self.engine_poll_rounds += e.poll_rounds;
        self.engine_wakeups += e.wakeups;
        self.engine_stalled += stalled as u64;
    }

    fn add_service(&mut self, s: ServiceStats) {
        self.service_requests += s.requests;
        self.service_responses += s.responses;
        self.service_bytes_tx += s.bytes_tx;
        self.service_bytes_rx += s.bytes_rx;
    }

    /// Payload bytes copied through the hugepage regions: every byte is
    /// copied in by its sender and out by its receiver.
    pub fn shmem_bytes_copied(&self) -> u64 {
        self.guest_bytes_sent
            + self.service_bytes_tx
            + self.service_bytes_rx
            + self.guest_bytes_received
    }

    /// Queue operations (one push + one pop per NQE per queue crossed):
    /// guest → engine → NSM on the way in, NSM → engine → guest on the way
    /// back.
    pub fn queue_ops(&self) -> u64 {
        2 * (self.guest_nqes_sent + self.vm_forwarded + self.service_responses + self.vm_delivered)
    }
}

/// Counters only [`WiredHost`] can read, because it holds the parts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WiredCounts {
    /// Segments in + out over the NSM stacks.
    pub nsm_segments: u64,
    /// Sockets alive in the NSM stacks.
    pub nsm_sockets: u64,
    /// Frames the virtual switch delivered.
    pub frames: u64,
}

/// Executor-side view of a cluster window.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ExecView {
    /// Worker threads the executor used.
    pub threads: usize,
    /// `ExecStats::serial_work`.
    pub serial_work: u64,
    /// `ExecStats::hub_work`.
    pub hub_work: u64,
    /// `ExecStats::modeled_speedup` — a model output, never a measurement.
    pub modeled_speedup: f64,
}

/// What a workload runs on.
pub trait World {
    /// The socket API of one guest.
    fn guest(&mut self, at: GuestLoc) -> &mut dyn SocketApi;
    /// Attach an echo-server stack.
    fn add_remote(&mut self, at: RemoteLoc) -> &mut TcpStack;
    /// A previously attached echo-server stack.
    fn remote(&mut self, at: RemoteLoc) -> &mut TcpStack;
    /// Advance one step of [`DT_NS`]; layer spans go to `tracer` where the
    /// world can see its layers. Returns the work reported.
    fn step(&mut self, tracer: &mut Tracer) -> usize;
    /// Virtual time.
    fn now_ns(&self) -> u64;
    /// Deterministic counters; `remotes` names the echo-server stacks.
    fn counts(&mut self, remotes: &[RemoteLoc]) -> WorldCounts;
    /// Request NQEs parked in engine stall queues right now.
    fn stalled(&self) -> u64;
    /// Wall time and call count of guest socket calls since the last take
    /// (worlds that cannot time them report nothing).
    fn take_guest_time(&mut self) -> (u64, u32) {
        (0, 0)
    }
    /// Layer-internal counters, where the world holds the layers itself.
    fn wired_counts(&self) -> Option<WiredCounts> {
        None
    }
    /// The executor's own counters, where the world has an executor.
    fn exec_view(&self) -> Option<ExecView> {
        None
    }
}

fn add_host_counts(c: &mut WorldCounts, host: &mut NetKernelHost) {
    let cfg = host.config().clone();
    for vm in &cfg.vms {
        if let Some(g) = host.guest_mut(vm.id) {
            c.add_guest(g);
        }
        if let Some(s) = host.vm_switch_stats(vm.id) {
            c.add_vm(s);
        }
        c.engine_conns += host.vm_pinned(vm.id) as u64;
    }
    c.add_engine(host.engine_stats(), host.stalled_nqes());
    for nsm in &cfg.nsms {
        if let Some(s) = host.nsm_service_stats(nsm.id) {
            c.add_service(s);
        }
    }
}

fn add_peer_counts(c: &mut WorldCounts, stack: &TcpStack) {
    let s = stack.stats();
    c.peer_segments += s.segments_in + s.segments_out;
    c.peer_sockets += stack.socket_count() as u64;
}

/// The real single host, driven by `NetKernelHost::step`.
pub struct HostWorld(pub NetKernelHost);

impl HostWorld {
    /// Build the host `cfg` describes.
    pub fn new(cfg: HostConfig) -> NkResult<Self> {
        Ok(HostWorld(NetKernelHost::new(cfg)?))
    }
}

fn host_ip(at: RemoteLoc) -> u32 {
    match at {
        RemoteLoc::OnHost(_, ip) => ip,
        RemoteLoc::AtTor(_) => panic!("a single host has no top-of-rack switch"),
    }
}

impl World for HostWorld {
    fn guest(&mut self, at: GuestLoc) -> &mut dyn SocketApi {
        self.0.guest_mut(at.vm).expect("workload names its own VMs")
    }

    fn add_remote(&mut self, at: RemoteLoc) -> &mut TcpStack {
        self.0.add_remote(host_ip(at))
    }

    fn remote(&mut self, at: RemoteLoc) -> &mut TcpStack {
        self.0
            .remote_mut(host_ip(at))
            .expect("workload names its own remotes")
    }

    fn step(&mut self, _tracer: &mut Tracer) -> usize {
        self.0.step(DT_NS)
    }

    fn now_ns(&self) -> u64 {
        self.0.now_ns()
    }

    fn stalled(&self) -> u64 {
        self.0.stalled_nqes() as u64
    }

    fn counts(&mut self, remotes: &[RemoteLoc]) -> WorldCounts {
        let mut c = WorldCounts::default();
        add_host_counts(&mut c, &mut self.0);
        let sched = self.0.sched_stats();
        c.steps = sched.steps;
        c.rounds = sched.rounds;
        for at in remotes {
            add_peer_counts(&mut c, self.remote(*at));
        }
        c
    }
}

/// A real cluster, driven by `Cluster::step`.
pub struct ClusterWorld(pub Cluster);

impl World for ClusterWorld {
    fn guest(&mut self, at: GuestLoc) -> &mut dyn SocketApi {
        self.0
            .guest_on(at.host, at.vm)
            .expect("workload names its own VMs")
    }

    fn add_remote(&mut self, at: RemoteLoc) -> &mut TcpStack {
        match at {
            RemoteLoc::OnHost(host, ip) => self
                .0
                .host_mut(host)
                .expect("workload names its own hosts")
                .add_remote(ip),
            RemoteLoc::AtTor(ip) => self.0.add_remote(ip),
        }
    }

    fn remote(&mut self, at: RemoteLoc) -> &mut TcpStack {
        match at {
            RemoteLoc::OnHost(host, ip) => self.0.host_mut(host).and_then(|h| h.remote_mut(ip)),
            RemoteLoc::AtTor(ip) => self.0.remote_mut(ip),
        }
        .expect("workload names its own remotes")
    }

    fn step(&mut self, _tracer: &mut Tracer) -> usize {
        self.0.step(DT_NS)
    }

    fn now_ns(&self) -> u64 {
        self.0.now_ns()
    }

    fn stalled(&self) -> u64 {
        self.0
            .host_ids()
            .into_iter()
            .filter_map(|id| self.0.host(id))
            .map(|h| h.stalled_nqes() as u64)
            .sum()
    }

    fn exec_view(&self) -> Option<ExecView> {
        let e = self.0.exec_stats();
        Some(ExecView {
            threads: e.threads,
            serial_work: e.serial_work,
            hub_work: e.hub_work,
            modeled_speedup: e.modeled_speedup(),
        })
    }

    fn counts(&mut self, remotes: &[RemoteLoc]) -> WorldCounts {
        let mut c = WorldCounts::default();
        for id in self.0.host_ids() {
            add_host_counts(&mut c, self.0.host_mut(id).expect("listed host"));
        }
        let stats = self.0.stats();
        c.steps = stats.steps;
        c.rounds = stats.rounds;
        c.poll_work = stats.poll_work;
        c.barrier_frames = stats.barrier_frames;
        c.event_digest = self.0.event_digest();
        for at in remotes {
            add_peer_counts(&mut c, self.remote(*at));
        }
        c
    }
}

/// A `GuestLib` whose every `SocketApi` call is timed. Calls are far too
/// many for a span each, so they accumulate and the runner folds them into
/// one aggregate span per tick.
pub struct TimedGuest {
    inner: GuestLib,
    timing: bool,
    busy_ns: u64,
    calls: u32,
}

impl TimedGuest {
    fn timed<T>(&mut self, f: impl FnOnce(&mut GuestLib) -> T) -> T {
        if !self.timing {
            return f(&mut self.inner);
        }
        let start = now_ns();
        let out = f(&mut self.inner);
        self.busy_ns += now_ns() - start;
        self.calls += 1;
        out
    }
}

impl SocketApi for TimedGuest {
    fn socket(&mut self) -> NkResult<SocketId> {
        self.timed(|g| g.socket())
    }
    fn bind(&mut self, sock: SocketId, addr: SockAddr) -> NkResult<()> {
        self.timed(|g| g.bind(sock, addr))
    }
    fn listen(&mut self, sock: SocketId, backlog: u32) -> NkResult<()> {
        self.timed(|g| g.listen(sock, backlog))
    }
    fn accept(&mut self, sock: SocketId) -> NkResult<(SocketId, SockAddr)> {
        self.timed(|g| g.accept(sock))
    }
    fn connect(&mut self, sock: SocketId, addr: SockAddr) -> NkResult<()> {
        self.timed(|g| g.connect(sock, addr))
    }
    fn send(&mut self, sock: SocketId, data: &[u8]) -> NkResult<usize> {
        self.timed(|g| g.send(sock, data))
    }
    fn recv(&mut self, sock: SocketId, buf: &mut [u8]) -> NkResult<usize> {
        self.timed(|g| g.recv(sock, buf))
    }
    fn set_sockopt(&mut self, sock: SocketId, opt: u32, value: u32) -> NkResult<()> {
        self.timed(|g| g.set_sockopt(sock, opt, value))
    }
    fn shutdown(&mut self, sock: SocketId, how: ShutdownHow) -> NkResult<()> {
        self.timed(|g| g.shutdown(sock, how))
    }
    fn close(&mut self, sock: SocketId) -> NkResult<()> {
        self.timed(|g| g.close(sock))
    }
    fn epoll_register(&mut self, sock: SocketId, interest: PollEvents) -> NkResult<()> {
        self.timed(|g| g.epoll_register(sock, interest))
    }
    fn epoll_unregister(&mut self, sock: SocketId) -> NkResult<()> {
        self.timed(|g| g.epoll_unregister(sock))
    }
    fn epoll_wait(&mut self, max_events: usize) -> Vec<EpollEvent> {
        self.timed(|g| g.epoll_wait(max_events))
    }
    fn poll(&mut self, sock: SocketId) -> PollEvents {
        self.timed(|g| g.poll(sock))
    }
    fn drive(&mut self) -> usize {
        self.timed(|g| g.drive())
    }
}

/// One kernel-stack NSM with `ServiceLib` and `TcpStack` held apart, so
/// `process_requests`, `tick` and `process_stack` get a span each.
struct WiredNsm {
    service: ServiceLib,
    stack: TcpStack,
    ip: u32,
}

/// The same public parts, wired in the same order and polled in the same
/// round order as `NetKernelHost::new` / `poll_datapath`: CoreEngine, then
/// each NSM (requests → stack → events) in id order, then the remote
/// stacks in address order, then the virtual switch, repeated until a
/// round reports no work or `max_poll_rounds` is hit. TCP-stack NSMs only;
/// no fault injection, control plane or recorder feed.
pub struct WiredHost {
    cfg: HostConfig,
    engine: CoreEngine,
    nsms: BTreeMap<NsmId, WiredNsm>,
    guests: BTreeMap<VmId, TimedGuest>,
    remotes: BTreeMap<u32, TcpStack>,
    switch: VirtualSwitch<Segment>,
    now_ns: u64,
    steps: u64,
    rounds: u64,
}

impl WiredHost {
    /// Assemble the host `cfg` describes; guest calls are timed when
    /// `timing` is set.
    pub fn new(cfg: HostConfig, timing: bool) -> NkResult<Self> {
        cfg.validate()?;
        let mut switch = VirtualSwitch::new();
        let mut engine = CoreEngine::new(cfg.isolation.clone(), cfg.batch_size);
        let mut nsms = BTreeMap::new();
        for nsm_cfg in &cfg.nsms {
            let mut service_ends = Vec::new();
            let mut engine_ends = Vec::new();
            for _ in 0..nsm_cfg.vcpus {
                let (req, resp) = queue_set_pair(cfg.queue_capacity);
                engine_ends.push(req);
                service_ends.push(resp);
            }
            engine.register_nsm(nsm_cfg.id, engine_ends)?;
            let device = NkDevice::new(service_ends, WakeState::new());
            let ip = nsm_ip_on(cfg.host_id, nsm_cfg.id);
            let port = switch.attach_with_link(
                ip,
                LinkConfig::ideal().with_rate_gbps(nsm_cfg.nic_rate_gbps),
            );
            let stack_cfg = StackConfig::new(ip)
                .with_cc(CcAlgorithm::from_kind(nsm_cfg.cc))
                .with_ephemeral_generation(0);
            nsms.insert(
                nsm_cfg.id,
                WiredNsm {
                    service: ServiceLib::new(nsm_cfg.id, device, cfg.batch_size),
                    stack: TcpStack::new(stack_cfg, port),
                    ip,
                },
            );
        }
        let mut guests = BTreeMap::new();
        for vm_cfg in &cfg.vms {
            let nsm_id = cfg.nsm_for_vm(vm_cfg.id)?;
            let mut guest_ends = Vec::new();
            let mut engine_ends = Vec::new();
            for _ in 0..vm_cfg.vcpus {
                let (req, resp) = queue_set_pair(cfg.queue_capacity);
                guest_ends.push(req);
                engine_ends.push(resp);
            }
            let wake = WakeState::new();
            let region = HugepageRegion::new(cfg.hugepages_per_pair);
            engine.register_vm(
                vm_cfg.id,
                engine_ends,
                wake.clone(),
                vm_cfg.tenant,
                vm_cfg.rate_limit_gbps,
                Some(region.clone()),
                0,
            )?;
            engine.map_vm(vm_cfg.id, nsm_id)?;
            nsms.get_mut(&nsm_id)
                .expect("nsm_for_vm names a configured NSM")
                .service
                .add_vm(vm_cfg.id, region.clone());
            let device = NkDevice::new(guest_ends, wake);
            guests.insert(
                vm_cfg.id,
                TimedGuest {
                    inner: GuestLib::new(vm_cfg.id, device, region),
                    timing,
                    busy_ns: 0,
                    calls: 0,
                },
            );
        }
        Ok(WiredHost {
            cfg,
            engine,
            nsms,
            guests,
            remotes: BTreeMap::new(),
            switch,
            now_ns: 0,
            steps: 0,
            rounds: 0,
        })
    }

    fn poll_round(&mut self, tracer: &mut Tracer) -> usize {
        let now = self.now_ns;
        let mut work = tracer.time(Layer::Engine, || self.engine.poll(now));
        for nsm in self.nsms.values_mut() {
            work += tracer.time(Layer::ServiceRequests, || {
                nsm.service.process_requests(&mut nsm.stack, now)
            });
            work += tracer.time(Layer::Netstack, || nsm.stack.tick(now));
            tracer.time(Layer::ServiceStack, || {
                nsm.service.process_stack(&mut nsm.stack, now)
            });
        }
        for remote in self.remotes.values_mut() {
            work += tracer.time(Layer::PeerStack, || remote.tick(now));
        }
        work + tracer.time(Layer::Fabric, || self.switch.step(now))
    }
}

impl World for WiredHost {
    fn guest(&mut self, at: GuestLoc) -> &mut dyn SocketApi {
        self.guests
            .get_mut(&at.vm)
            .expect("workload names its own VMs")
    }

    fn add_remote(&mut self, at: RemoteLoc) -> &mut TcpStack {
        let ip = host_ip(at);
        let port = self.switch.attach(ip);
        self.remotes
            .insert(ip, TcpStack::new(StackConfig::new(ip), port));
        self.remotes.get_mut(&ip).expect("just inserted")
    }

    fn remote(&mut self, at: RemoteLoc) -> &mut TcpStack {
        self.remotes
            .get_mut(&host_ip(at))
            .expect("workload names its own remotes")
    }

    fn step(&mut self, tracer: &mut Tracer) -> usize {
        self.now_ns += DT_NS;
        self.steps += 1;
        let mut total = 0;
        for _ in 0..self.cfg.max_poll_rounds.max(1) {
            let work = self.poll_round(tracer);
            self.rounds += 1;
            total += work;
            if work == 0 {
                break;
            }
        }
        total
    }

    fn now_ns(&self) -> u64 {
        self.now_ns
    }

    fn counts(&mut self, remotes: &[RemoteLoc]) -> WorldCounts {
        let mut c = WorldCounts::default();
        for (vm, g) in self.guests.iter_mut() {
            c.add_guest(&mut g.inner);
            if let Some(s) = self.engine.vm_stats(*vm) {
                c.add_vm(s);
            }
        }
        c.add_engine(self.engine.stats(), self.engine.stalled_nqes());
        c.engine_conns = self.engine.connections() as u64;
        for nsm in self.nsms.values() {
            c.add_service(nsm.service.stats());
        }
        c.steps = self.steps;
        c.rounds = self.rounds;
        for at in remotes {
            add_peer_counts(&mut c, self.remote(*at));
        }
        c
    }

    fn stalled(&self) -> u64 {
        self.engine.stalled_nqes() as u64
    }

    fn take_guest_time(&mut self) -> (u64, u32) {
        let mut busy = 0;
        let mut calls = 0;
        for g in self.guests.values_mut() {
            busy += std::mem::take(&mut g.busy_ns);
            calls += std::mem::take(&mut g.calls);
        }
        (busy, calls)
    }

    fn wired_counts(&self) -> Option<WiredCounts> {
        let mut w = WiredCounts::default();
        for nsm in self.nsms.values() {
            let s = nsm.stack.stats();
            w.nsm_segments += s.segments_in + s.segments_out;
            w.nsm_sockets += nsm.stack.socket_count() as u64;
            w.frames += self.switch.link_stats(nsm.ip).map_or(0, |l| l.delivered);
        }
        for ip in self.remotes.keys() {
            w.frames += self.switch.link_stats(*ip).map_or(0, |l| l.delivered);
        }
        Some(w)
    }
}
