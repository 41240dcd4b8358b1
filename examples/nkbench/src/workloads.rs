//! The five workloads and the window runner.
//!
//! A *window* is one complete measurement from freshly built state: build →
//! handshakes → fixed warm-up steps → fixed timed steps → drain → checks.
//! Step counts are fixed (never "run for N seconds"), so every count and
//! the whole simulated timeline are a function of `(workload, seed, steps)`
//! alone and repeat exactly; only the wall clock varies between windows.

use crate::apps::{AppCounters, ChurnSlot, EchoServer, StreamConn, DT_NS};
use crate::clock::{now_ns, secs_between};
use crate::probe::{to_ref_ns, Probe, SEGMENT_NS};
use crate::stats::{median, Fnv};
use crate::trace::{Layer, Tracer};
use crate::world::{
    ClusterWorld, ExecView, GuestLoc, HostWorld, RemoteLoc, WiredCounts, WiredHost, World,
    WorldCounts,
};
use netkernel::cluster::Cluster;
use netkernel::sim::SplitMix64;
use netkernel::types::addr::host_prefix;
use netkernel::types::{
    ClusterConfig, HostConfig, HostId, NsmConfig, NsmId, SockAddr, VmConfig, VmId, VmToNsmPolicy,
};

/// What a workload is made of.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// 1 VM → 1 NSM → remote echo; 4 connections kept writable-full with
    /// 16 KiB chunks.
    Bulk,
    /// 4 VMs → 2 NSMs, 256 connections, 64 B request → 64 B reply, one
    /// outstanding per connection.
    Rpc,
    /// 1 VM → 1 NSM, 32 short-connection slots: connect → 64 B → reply →
    /// close → reopen.
    Churn,
    /// 8 hosts × 2 NSM shares × 1 VM per share; every VM echoes 4 KiB
    /// chunks to a host-local remote and 1 KiB chunks to a ToR remote.
    Xhost {
        /// `ClusterConfig::threads`.
        threads: usize,
        /// `ClusterConfig::shard_within_hosts`.
        shard_within_hosts: bool,
    },
}

/// One workload: a name, a reason, a shape and a size.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Name on the command line and in every report.
    pub name: &'static str,
    /// Why the workload exists (one line, also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Topology and traffic.
    pub shape: Shape,
    /// Timed steps per second of the `--seconds` budget, sized so the timed
    /// windows of a run take about `--seconds` on the reference box.
    pub steps_per_second: f64,
    /// Typical payload size of one message through the hugepages, bytes
    /// (picks the layer-drive cost used for the shmem share estimate).
    pub msg_size: usize,
}

/// Windows per run: each from freshly built state; rates are the median.
pub const WINDOWS: u64 = 3;

impl Spec {
    /// Timed steps of one window when a run measures for `seconds`.
    pub fn window_steps(&self, seconds: f64) -> u64 {
        ((self.steps_per_second * seconds / WINDOWS as f64).round() as u64).max(8)
    }
}

/// Every workload, in report order.
pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "bulk",
        why: "per-byte layers do the work: hugepage copy, TCP segmentation, link/vSwitch; few NQEs",
        shape: Shape::Bulk,
        steps_per_second: 150.0,
        msg_size: 16384,
    },
    Spec {
        name: "rpc",
        why: "per-message layers do the work: GuestLib, queues, CoreEngine switch + ConnTable lookup, ServiceLib",
        shape: Shape::Rpc,
        steps_per_second: 1000.0,
        msg_size: 64,
    },
    Spec {
        name: "churn",
        why: "same layers as rpc used the other way: table insert/remove, handshake/teardown, socket reaping",
        shape: Shape::Churn,
        steps_per_second: 300.0,
        msg_size: 64,
    },
    Spec {
        name: "xhost_t1",
        why: "8-host cluster on the serial executor path, uplinks and ToR hub; the control for executor changes",
        shape: Shape::Xhost {
            threads: 1,
            shard_within_hosts: false,
        },
        steps_per_second: 1200.0,
        msg_size: 4096,
    },
    Spec {
        name: "xhost_t2",
        why: "same inputs at 2 threads with lane sharding: spawn/join, barriers, SPSC edges, split/absorb on the path",
        shape: Shape::Xhost {
            threads: 2,
            shard_within_hosts: true,
        },
        steps_per_second: 1200.0,
        msg_size: 4096,
    },
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What the timed steps run on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Substrate {
    /// The real `NetKernelHost` / `Cluster`.
    Real,
    /// [`WiredHost`] with timed guest calls (single-host shapes only; a
    /// cluster falls back to the real one).
    Wired,
}

const REMOTE_IP: u32 = 0x0A00_0200;
const ECHO_PORT: u16 = 7;
const TOR_IP: u32 = 0xC0A8_0001;
const TOR_PORT: u16 = 9;
const XHOST_HOSTS: u8 = 8;
/// Steps given to TCP handshakes before any connection may send.
const HANDSHAKE_STEPS: u64 = 20;
/// Connections start sending this many ticks apart at most (seeded).
const STAGGER_TICKS: u64 = 8;
/// Upper bound on drain steps after the timed window.
const MAX_SETTLE_STEPS: usize = 2_000;

enum ClientApp {
    Stream(StreamConn),
    Churn(ChurnSlot),
}

struct Client {
    at: GuestLoc,
    app: ClientApp,
}

struct Server {
    at: RemoteLoc,
    app: EchoServer,
}

/// Clients, servers and the buffers they share.
struct Plan {
    clients: Vec<Client>,
    servers: Vec<Server>,
    remotes: Vec<RemoteLoc>,
    buf: Vec<u8>,
}

impl Plan {
    fn tick(&mut self, world: &mut dyn World, draining: bool, out: &mut AppCounters) {
        let now = world.now_ns();
        for c in &mut self.clients {
            let api = world.guest(c.at);
            match &mut c.app {
                ClientApp::Stream(s) => s.tick(api, now, draining, &mut self.buf, out),
                ClientApp::Churn(s) => s.tick(api, now, draining, &mut self.buf, out),
            }
        }
        for s in &mut self.servers {
            s.app.tick(world.remote(s.at), &mut self.buf);
        }
    }

    fn in_flight(&self) -> bool {
        self.clients.iter().any(|c| match &c.app {
            ClientApp::Stream(s) => s.in_flight(),
            ClientApp::Churn(s) => s.in_flight(),
        })
    }

    fn server_errors(&self) -> u64 {
        self.servers.iter().map(|s| s.app.errors).sum()
    }
}

fn single_host_cfg(vms: u8, nsms: u8) -> HostConfig {
    let mut cfg = HostConfig::new();
    for n in 1..=nsms {
        cfg = cfg.with_nsm(NsmConfig::kernel(NsmId(n)));
    }
    let mut mapping = Vec::new();
    for v in 1..=vms {
        cfg = cfg.with_vm(VmConfig::new(VmId(v)));
        mapping.push((VmId(v), NsmId((v - 1) % nsms + 1)));
    }
    cfg.with_mapping(VmToNsmPolicy::Static(mapping))
}

pub fn xhost_cfg(threads: usize, shard_within_hosts: bool) -> ClusterConfig {
    let mut cfg = ClusterConfig::new()
        .with_uplink_latency_us(2)
        .with_threads(threads)
        .with_shard_within_hosts(shard_within_hosts);
    for h in 1..=XHOST_HOSTS {
        let (a, b) = (VmId(2 * h - 1), VmId(2 * h));
        cfg = cfg.with_host(
            HostConfig::new()
                .with_host_id(HostId(h))
                .with_nsm(NsmConfig::kernel(NsmId(1)))
                .with_nsm(NsmConfig::kernel(NsmId(2)))
                .with_vm(VmConfig::new(a))
                .with_vm(VmConfig::new(b))
                .with_mapping(VmToNsmPolicy::Static(vec![(a, NsmId(1)), (b, NsmId(2))])),
        );
    }
    cfg
}

/// Build the world a shape runs on. Panics on a configuration this file
/// itself wrote wrongly — the inputs are ours, not the user's.
fn build_world(shape: Shape, substrate: Substrate) -> Box<dyn World> {
    let host_cfg = match shape {
        Shape::Bulk | Shape::Churn => single_host_cfg(1, 1),
        Shape::Rpc => single_host_cfg(4, 2),
        Shape::Xhost {
            threads,
            shard_within_hosts,
        } => {
            let cluster = Cluster::new(xhost_cfg(threads, shard_within_hosts))
                .expect("xhost cluster configuration is valid");
            // The environment overrides were removed at start-up; if one
            // slipped through, `xhost_t1` would silently run as `xhost_t2`.
            assert_eq!(cluster.threads(), threads, "NK_CLUSTER_THREADS leaked in");
            assert_eq!(
                cluster.shard_within_hosts(),
                shard_within_hosts,
                "NK_CLUSTER_SHARD_WITHIN_HOSTS leaked in"
            );
            return Box::new(ClusterWorld(cluster));
        }
    };
    match substrate {
        Substrate::Real => Box::new(HostWorld::new(host_cfg).expect("host configuration is valid")),
        Substrate::Wired => {
            Box::new(WiredHost::new(host_cfg, true).expect("host configuration is valid"))
        }
    }
}

fn build_plan(shape: Shape, seed: u64, world: &mut dyn World) -> Plan {
    let mut rng = SplitMix64::new(seed);
    let mut start_ns = move || (HANDSHAKE_STEPS + rng.next_below(STAGGER_TICKS)) * DT_NS;
    let mut clients = Vec::new();
    let mut remotes = Vec::new();
    let mut conn_id = 0u64;
    let mut stream = |world: &mut dyn World,
                      at: GuestLoc,
                      server: SockAddr,
                      chunk: usize,
                      window: usize,
                      start: u64| {
        conn_id += 1;
        let app = StreamConn::connect(world.guest(at), server, seed, conn_id, chunk, window, start)
            .expect("a fresh guest accepts socket + connect");
        Client {
            at,
            app: ClientApp::Stream(app),
        }
    };
    let on0 = |vm: u8| GuestLoc {
        host: HostId(0),
        vm: VmId(vm),
    };
    let remote = SockAddr::new(REMOTE_IP, ECHO_PORT);
    match shape {
        Shape::Bulk => {
            remotes.push((RemoteLoc::OnHost(HostId(0), REMOTE_IP), ECHO_PORT));
            for _ in 0..4 {
                let start = start_ns();
                clients.push(stream(world, on0(1), remote, 16 * 1024, usize::MAX, start));
            }
        }
        Shape::Rpc => {
            remotes.push((RemoteLoc::OnHost(HostId(0), REMOTE_IP), ECHO_PORT));
            for i in 0..256u32 {
                let start = start_ns();
                clients.push(stream(world, on0((i % 4) as u8 + 1), remote, 64, 1, start));
            }
        }
        Shape::Churn => {
            remotes.push((RemoteLoc::OnHost(HostId(0), REMOTE_IP), ECHO_PORT));
            for slot in 0..32 {
                clients.push(Client {
                    at: on0(1),
                    app: ClientApp::Churn(ChurnSlot::new(remote, seed, slot, 64, start_ns())),
                });
            }
        }
        Shape::Xhost { .. } => {
            remotes.push((RemoteLoc::AtTor(TOR_IP), TOR_PORT));
            for h in 1..=XHOST_HOSTS {
                let local_ip = host_prefix(HostId(h)) | 0xFF;
                remotes.push((RemoteLoc::OnHost(HostId(h), local_ip), ECHO_PORT));
                for vm in [2 * h - 1, 2 * h] {
                    let at = GuestLoc {
                        host: HostId(h),
                        vm: VmId(vm),
                    };
                    let local = SockAddr::new(local_ip, ECHO_PORT);
                    let start = start_ns();
                    clients.push(stream(world, at, local, 4096, 2, start));
                    let tor = SockAddr::new(TOR_IP, TOR_PORT);
                    let start = start_ns();
                    clients.push(stream(world, at, tor, 1024, 2, start));
                }
            }
        }
    }
    let servers = remotes
        .iter()
        .map(|&(at, port)| Server {
            at,
            app: EchoServer::start(world.add_remote(at), port, 1024)
                .expect("a fresh stack accepts bind + listen"),
        })
        .collect();
    Plan {
        clients,
        servers,
        remotes: remotes.into_iter().map(|(at, _)| at).collect(),
        buf: vec![0u8; 64 * 1024],
    }
}

/// A stretch of timed steps between two runs of the speed probe.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Segment {
    /// Steps run.
    pub steps: u64,
    /// Ops the client apps completed.
    pub ops: u64,
    /// Wall time of the steps (ticks included, probe excluded), ns.
    pub wall_ns: u64,
    /// Wall time of the probe run just before, ns.
    pub probe_before_ns: u64,
    /// Wall time of the probe run just after, ns.
    pub probe_after_ns: u64,
}

impl Segment {
    /// Wall time of the probe around this segment, ns.
    pub fn probe_ns(&self) -> f64 {
        (self.probe_before_ns + self.probe_after_ns) as f64 / 2.0
    }

    /// Reference nanoseconds per step.
    pub fn ref_ns_per_step(&self) -> f64 {
        to_ref_ns(self.wall_ns as f64, self.probe_ns()) / self.steps as f64
    }
}

/// Everything one window produced.
#[derive(Clone, Debug, Default)]
pub struct Window {
    /// Reference seconds from the start of the build to the first timed
    /// step.
    pub setup_s: f64,
    /// Raw wall seconds of the timed steps, probe runs included.
    pub wall_s: f64,
    /// Timed steps run.
    pub steps: u64,
    /// What the client apps completed during the timed steps.
    pub timed: AppCounters,
    /// Ops that failed in any phase: set-up, timed steps or drain.
    pub failed_ops: u64,
    /// The timed steps cut into stretches of about [`SEGMENT_NS`] of wall
    /// time, each bracketed by two runs of the speed probe.
    pub segments: Vec<Segment>,
    /// Counters when the timed steps began.
    pub start: WorldCounts,
    /// Counters when the timed steps ended.
    pub end: WorldCounts,
    /// Counters after the drain, at quiescence.
    pub settled: WorldCounts,
    /// Layer-internal counters at the same two instants (wired runs only).
    pub wired: Option<(WiredCounts, WiredCounts)>,
    /// Executor view at the end of the timed steps (cluster runs only).
    pub exec: Option<ExecView>,
    /// Most request NQEs parked in engine stall queues after any timed step
    /// (traced runs only).
    pub stalled_max: u64,
    /// FNV over every deterministic output of the window.
    pub sim_digest: u64,
    /// Output checks that did not hold (empty = correct).
    pub violations: Vec<String>,
}

impl Window {
    /// Virtual seconds the timed steps covered.
    pub fn virt_s(&self) -> f64 {
        (self.steps * DT_NS) as f64 / 1e9
    }

    /// Reference seconds per timed step: the median segment. The median
    /// (not the mean) so that a segment a preemption or a neighbour's burst
    /// landed in does not move the result.
    pub fn ref_s_per_step(&self) -> f64 {
        let per_step: Vec<f64> = self.segments.iter().map(Segment::ref_ns_per_step).collect();
        median(&per_step) / 1e9
    }

    /// Ops per reference second.
    pub fn ops_per_s(&self) -> f64 {
        self.timed.ops as f64 / self.steps as f64 / self.ref_s_per_step()
    }

    /// Verified payload megabytes per reference second.
    pub fn goodput_mbps(&self) -> f64 {
        self.timed.bytes as f64 / 1e6 / self.steps as f64 / self.ref_s_per_step()
    }

    /// How fast the machine ran during the window, relative to the
    /// reference speed (1 = reference; median over segments).
    pub fn machine_speed(&self) -> f64 {
        let speeds: Vec<f64> = self
            .segments
            .iter()
            .map(|s| crate::probe::REF_NS / s.probe_ns())
            .collect();
        median(&speeds)
    }

    /// Ops per reference second over the last quarter of the timed steps
    /// divided by the same over the first quarter.
    pub fn rate_decay(&self) -> f64 {
        let quarter = |from: u64, to: u64| -> f64 {
            let mut first_step = 0;
            let (mut ops, mut ref_ns) = (0.0, 0.0);
            for s in &self.segments {
                if first_step >= from && first_step < to {
                    ops += s.ops as f64;
                    ref_ns += s.ref_ns_per_step() * s.steps as f64;
                }
                first_step += s.steps;
            }
            if ref_ns > 0.0 {
                ops / ref_ns
            } else {
                0.0
            }
        };
        let first = quarter(0, self.steps / 4);
        if first > 0.0 {
            quarter(self.steps - self.steps / 4, self.steps) / first
        } else {
            0.0
        }
    }
}

/// Run one window of `spec` from freshly built state.
///
/// `setup_from_ns` is the wall-clock instant set-up is counted from (the
/// process start for the first window, "now" afterwards).
pub fn run_window(
    spec: &Spec,
    seed: u64,
    steps: u64,
    substrate: Substrate,
    tracer: &mut Tracer,
    setup_from_ns: u64,
) -> Window {
    let mut probe = Probe::new();
    let probe_before_setup_ns = probe.median_of(5);
    let mut world = build_world(spec.shape, substrate);
    let world = world.as_mut();
    let mut plan = build_plan(spec.shape, seed, world);
    let mut idle = Tracer::disabled();

    // Handshakes, then warm-up under full load: a tenth of the timed steps.
    let mut warm = AppCounters::default();
    for _ in 0..HANDSHAKE_STEPS + (steps / 10).max(10) {
        plan.tick(world, false, &mut warm);
        world.step(&mut idle);
    }
    let mut win = Window {
        steps,
        ..Window::default()
    };
    let established = plan.clients.iter().all(|c| match &c.app {
        ClientApp::Stream(s) => s.established(),
        ClientApp::Churn(_) => true,
    });
    if !established {
        win.violations
            .push("a connection did not establish during set-up".into());
    }
    win.start = world.counts(&plan.remotes);
    let wired_start = world.wired_counts();
    world.take_guest_time();

    // Everything measured is expressed in reference seconds (`probe.rs`);
    // set-up is scaled by the probe's speed just before and just after it.
    let setup_probe_ns = (probe_before_setup_ns + probe.median_of(5)) / 2.0;
    let t0 = now_ns();
    win.setup_s = to_ref_ns(secs_between(setup_from_ns, t0), setup_probe_ns);
    tracer.enter(Layer::Window);
    let mut seg = Segment {
        probe_before_ns: tracer.time(Layer::Probe, || probe.run()),
        ..Segment::default()
    };
    let mut seg_start = now_ns();
    let mut ops_before = 0;
    for i in 1..=steps {
        tracer.next_step();
        tracer.enter(Layer::Tick);
        plan.tick(world, false, &mut win.timed);
        let (busy_ns, calls) = world.take_guest_time();
        tracer.aggregate(Layer::Guest, busy_ns, calls);
        tracer.exit();
        tracer.enter(Layer::Step);
        world.step(tracer);
        tracer.exit();
        if tracer.is_enabled() {
            win.stalled_max = win.stalled_max.max(world.stalled());
        }
        seg.steps += 1;
        let now = now_ns();
        if now - seg_start >= SEGMENT_NS || i == steps {
            seg.wall_ns = now - seg_start;
            seg.ops = win.timed.ops - ops_before;
            ops_before = win.timed.ops;
            seg.probe_after_ns = tracer.time(Layer::Probe, || probe.run());
            win.segments.push(seg);
            seg = Segment {
                probe_before_ns: seg.probe_after_ns,
                ..Segment::default()
            };
            seg_start = now_ns();
        }
    }
    tracer.exit();
    win.wall_s = secs_between(t0, now_ns());

    win.end = world.counts(&plan.remotes);
    win.wired = wired_start.zip(world.wired_counts());
    win.exec = world.exec_view();

    // Drain: clients only take what is still coming back; stop once nothing
    // is in flight and two steps in a row did no work.
    let mut drained = AppCounters::default();
    let mut quiet = 0;
    for _ in 0..MAX_SETTLE_STEPS {
        plan.tick(world, true, &mut drained);
        let work = world.step(&mut idle);
        quiet = if work == 0 && !plan.in_flight() {
            quiet + 1
        } else {
            0
        };
        if quiet >= 2 {
            break;
        }
    }
    win.settled = world.counts(&plan.remotes);
    win.failed_ops = warm.failed + win.timed.failed + drained.failed;
    let bytes = warm.bytes + win.timed.bytes + drained.bytes;
    check_outputs(&mut win, bytes, plan.server_errors(), quiet >= 2);
    win.sim_digest = digest(&win);
    win
}

fn check_outputs(win: &mut Window, bytes: u64, server_errors: u64, quiesced: bool) {
    let s = win.settled;
    let failed = win.failed_ops;
    let mut fail = |msg: String| win.violations.push(msg);
    if !quiesced {
        fail("the world did not quiesce during the drain".into());
    }
    if failed > 0 {
        fail(format!(
            "{failed} op(s) failed (error, reset or payload mismatch)"
        ));
    }
    if server_errors > 0 {
        fail(format!(
            "{server_errors} echo-server connection(s) ended in an error"
        ));
    }
    if s.guest_errors > 0 {
        fail(format!("guests saw {} error event(s)", s.guest_errors));
    }
    // NQE conservation at quiescence: nothing the guests submitted or the
    // NSMs answered vanished inside the switch.
    if s.guest_nqes_sent != s.vm_forwarded + s.vm_dropped + s.engine_stalled {
        fail(format!(
            "request NQEs lost: guests sent {}, engine forwarded {} + dropped {} + stalled {}",
            s.guest_nqes_sent, s.vm_forwarded, s.vm_dropped, s.engine_stalled
        ));
    }
    if s.guest_nqes_received != s.vm_delivered {
        fail(format!(
            "response NQEs lost: engine delivered {}, guests received {}",
            s.vm_delivered, s.guest_nqes_received
        ));
    }
    if s.engine_nqes_switched != s.vm_forwarded + s.vm_dropped + s.vm_delivered {
        fail(format!(
            "EngineStats::nqes_switched {} != forwarded {} + dropped {} + delivered {}",
            s.engine_nqes_switched, s.vm_forwarded, s.vm_dropped, s.vm_delivered
        ));
    }
    if s.service_requests != s.vm_forwarded {
        fail(format!(
            "NSMs processed {} requests, engine forwarded {}",
            s.service_requests, s.vm_forwarded
        ));
    }
    // Byte conservation: every byte the guests sent came back verified.
    if bytes != s.guest_bytes_received {
        fail(format!(
            "apps verified {bytes} bytes, guests received {}",
            s.guest_bytes_received
        ));
    }
}

fn digest(win: &Window) -> u64 {
    let mut f = Fnv::default();
    f.u64(win.steps);
    f.u64(win.timed.ops);
    f.u64(win.failed_ops);
    f.u64(win.timed.bytes);
    for c in win.timed.latency.counts() {
        f.u64(*c);
    }
    for counts in [&win.start, &win.end, &win.settled] {
        for (name, v) in counts.fields() {
            f.bytes(name.as_bytes());
            f.u64(v);
        }
    }
    f.0
}
