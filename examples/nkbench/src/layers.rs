//! Layer drives: tight loops over one layer's public API, independent of
//! any workload. Each reports the median cost over [`BATCHES`] batches, so
//! a change to one layer shows up here in isolation before it shows up (or
//! fails to) in an end-to-end number.

use crate::clock::now_ns;
use crate::probe::{to_ref_ns, Probe};
use crate::stats::median;
use crate::workloads::xhost_cfg;
use netkernel::cluster::Cluster;
use netkernel::engine::{ConnTable, CoreEngine};
use netkernel::fabric::{uplink_pair, Frame, LinkConfig, TorSwitch, VirtualSwitch};
use netkernel::host::NetKernelHost;
use netkernel::netstack::{Segment, StackConfig, TcpStack};
use netkernel::queue::{channel, queue_set_pair, unbounded, WakeState};
use netkernel::shmem::HugepageRegion;
use netkernel::sim::SplitMix64;
use netkernel::types::addr::{host_prefix, HOST_PREFIX_MASK};
use netkernel::types::{
    ConnKey, HostConfig, HostId, IsolationPolicy, Nqe, NsmConfig, NsmId, ObsConfig, OpType,
    QueueSetId, SockAddr, SocketId, VmConfig, VmId, VmToNsmPolicy,
};
use std::hint::black_box;

/// Batches per drive; the reported value is their median.
pub const BATCHES: usize = 7;

/// One layer-drive result.
#[derive(Clone, Copy, Debug)]
pub struct LayerMetric {
    /// `<crate minus nk->.<name>`.
    pub name: &'static str,
    /// Median over [`BATCHES`] batches.
    pub value: f64,
}

/// Times batches of work in reference nanoseconds: each batch is bracketed
/// by two runs of the speed probe (see `probe.rs`).
struct Timer {
    probe: Probe,
}

impl Timer {
    /// Run `batch` [`BATCHES`] times (after one untimed warm-up call) and
    /// return the median reference nanoseconds per unit of work, where each
    /// call returns the units it did.
    fn ns_per_unit(&mut self, mut batch: impl FnMut() -> u64) -> f64 {
        batch();
        let mut before = self.probe.run() as f64;
        let samples: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let start = now_ns();
                let units = batch();
                let wall = (now_ns() - start) as f64;
                let after = self.probe.run() as f64;
                let ref_ns = to_ref_ns(wall, (before + after) / 2.0);
                before = after;
                ref_ns / units as f64
            })
            .collect();
        median(&samples)
    }

    /// [`Timer::ns_per_unit`] for a batch that always does `ops` ops.
    fn ns_per_op(&mut self, ops: u64, mut batch: impl FnMut()) -> f64 {
        self.ns_per_unit(|| {
            batch();
            ops
        })
    }
}

fn frame(src: u32, dst: u32, seq: u64) -> Frame<u64> {
    Frame {
        src,
        dst,
        flow_hash: seq,
        wire_bytes: 1500,
        payload: seq,
    }
}

fn queue_drives(t: &mut Timer, out: &mut Vec<LayerMetric>) {
    const N: u64 = 1024;
    let (mut tx, mut rx) = channel::<u64>(2048);
    let spsc = t.ns_per_op(N * 64, || {
        for _ in 0..64 {
            for i in 0..N {
                tx.push(i).expect("capacity covers the batch");
            }
            for _ in 0..N {
                black_box(rx.pop());
            }
        }
    });
    out.push(LayerMetric {
        name: "queue.spsc_ns",
        value: spsc,
    });

    // Producer and consumer on two threads: what an SPSC edge between
    // shards costs per item, cache-line traffic included.
    const XN: u64 = 200_000;
    let xthread = t.ns_per_op(XN, || {
        let (mut tx, mut rx) = channel::<u64>(1024);
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..XN {
                    let mut v = i;
                    while let Err(back) = tx.push(v) {
                        v = back;
                        std::hint::spin_loop();
                    }
                }
            });
            let mut got = 0;
            while got < XN {
                match rx.pop() {
                    Some(v) => {
                        black_box(v);
                        got += 1;
                    }
                    None => std::hint::spin_loop(),
                }
            }
        });
    });
    out.push(LayerMetric {
        name: "queue.spsc_xthread_ns",
        value: xthread,
    });

    let (mut utx, mut urx) = unbounded::<u64>();
    let unb = t.ns_per_op(N * 64, || {
        for _ in 0..64 {
            for i in 0..N {
                utx.push(i);
            }
            for _ in 0..N {
                black_box(urx.pop());
            }
        }
    });
    out.push(LayerMetric {
        name: "queue.unbounded_ns",
        value: unb,
    });

    // One NQE there and one back through a queue set: submit → pop_requests
    // → respond → pop_responses.
    let (mut req, mut resp) = queue_set_pair(4096);
    let nqe = Nqe::new(OpType::Send, VmId(1), QueueSetId(0), SocketId(1));
    let done = Nqe::new(OpType::SendComplete, VmId(1), QueueSetId(0), SocketId(1));
    let mut scratch = Vec::with_capacity(256);
    let rtt = t.ns_per_op(256 * 64, || {
        for _ in 0..64 {
            for _ in 0..256 {
                req.submit(nqe).expect("capacity covers the batch");
            }
            scratch.clear();
            resp.pop_requests(&mut scratch, 256);
            for _ in 0..scratch.len() {
                resp.respond(done).expect("capacity covers the batch");
            }
            scratch.clear();
            req.pop_responses(&mut scratch, 256);
            black_box(scratch.len());
        }
    });
    out.push(LayerMetric {
        name: "queue.queueset_rtt_ns",
        value: rtt,
    });
}

fn shmem_drives(t: &mut Timer, out: &mut Vec<LayerMetric>) {
    for (name, size) in [
        ("shmem.msg_ns_64", 64usize),
        ("shmem.msg_ns_4096", 4096),
        ("shmem.msg_ns_16384", 16384),
    ] {
        let region = HugepageRegion::new(4);
        let payload = vec![0xA5u8; size];
        let mut back = vec![0u8; size];
        let ops = (8 << 20) / size as u64;
        let value = t.ns_per_op(ops, || {
            for _ in 0..ops {
                // Sender side: allocate + copy in; receiver side: copy out
                // + free — the per-message data path of §4.5.
                let h = region
                    .alloc_and_write(&payload)
                    .expect("region holds one message");
                region.read(h, &mut back).expect("handle is live");
                region.free(h).expect("handle is live");
            }
            black_box(&back);
        });
        out.push(LayerMetric { name, value });
    }
}

fn conn_key(i: u32) -> ConnKey {
    ConnKey::vm(
        VmId((i % 199) as u8),
        QueueSetId((i % 4) as u8),
        SocketId(i),
    )
}

fn engine_drives(t: &mut Timer, out: &mut Vec<LayerMetric>) {
    for (name, batch) in [
        ("engine.switch_ns_b1", 1usize),
        ("engine.switch_ns_b64", 64),
    ] {
        let (mut guest, vm_end) = queue_set_pair(4096);
        let (nsm_switch, mut nsm) = queue_set_pair(4096);
        let mut ce = CoreEngine::new(IsolationPolicy::RoundRobin, batch);
        ce.register_vm(VmId(1), vec![vm_end], WakeState::new(), 0, None, None, 0)
            .expect("fresh engine");
        ce.register_nsm(NsmId(1), vec![nsm_switch])
            .expect("fresh engine");
        ce.map_vm(VmId(1), NsmId(1)).expect("NSM registered");
        let nqe = Nqe::new(OpType::Connect, VmId(1), QueueSetId(0), SocketId(1));
        let mut sink = Vec::with_capacity(1024);
        let value = t.ns_per_op(1024 * 16, || {
            for _ in 0..16 {
                for _ in 0..1024 {
                    guest.submit(nqe).expect("capacity covers the batch");
                }
                while ce.poll(0) > 0 {}
                sink.clear();
                nsm.pop_requests(&mut sink, 1024);
                assert_eq!(sink.len(), 1024, "every NQE was switched");
            }
        });
        out.push(LayerMetric { name, value });
    }

    for (name, size) in [
        ("engine.conntable_get_ns_1e1", 10u32),
        ("engine.conntable_get_ns_1e3", 1_000),
        ("engine.conntable_get_ns_1e5", 100_000),
    ] {
        let mut table = ConnTable::new();
        for i in 0..size {
            table.get_or_insert_with(conn_key(i), || (NsmId(1), QueueSetId(0)));
        }
        let mut rng = SplitMix64::new(u64::from(size));
        let probes: Vec<ConnKey> = (0..4096)
            .map(|_| conn_key(rng.next_below(u64::from(size)) as u32))
            .collect();
        let value = t.ns_per_op(4096 * 16, || {
            for _ in 0..16 {
                for k in &probes {
                    black_box(table.get(k));
                }
            }
        });
        out.push(LayerMetric { name, value });
    }

    for (name, size) in [
        ("engine.conntable_churn_ns_1e3", 1_000u32),
        ("engine.conntable_churn_ns_1e5", 100_000),
    ] {
        let mut table = ConnTable::new();
        // Standing entries on even socket ids; the churned ones land on odd
        // ids spread through the same key range.
        for i in 0..size {
            table.get_or_insert_with(conn_key(2 * i), || (NsmId(1), QueueSetId(0)));
        }
        let mut rng = SplitMix64::new(u64::from(size) + 1);
        let fresh: Vec<ConnKey> = (0..4096)
            .map(|_| conn_key(2 * rng.next_below(u64::from(size)) as u32 + 1))
            .collect();
        let value = t.ns_per_op(4096 * 4, || {
            for _ in 0..4 {
                for k in &fresh {
                    table.get_or_insert_with(*k, || (NsmId(1), QueueSetId(0)));
                    table.complete(k, SocketId(7));
                    black_box(table.remove(k));
                }
            }
        });
        assert_eq!(table.len(), size as usize, "standing size is unchanged");
        out.push(LayerMetric { name, value });
    }
}

const STACK_A: u32 = 0x0A00_0001;
const STACK_B: u32 = 0x0A00_0002;
const DT: u64 = 100_000;

/// Two stacks over one switch, with `round` advancing all three.
struct StackPair {
    switch: VirtualSwitch<Segment>,
    a: TcpStack,
    b: TcpStack,
    now: u64,
}

impl StackPair {
    fn new() -> Self {
        let mut switch = VirtualSwitch::new();
        let a = TcpStack::new(StackConfig::new(STACK_A), switch.attach(STACK_A));
        let b = TcpStack::new(StackConfig::new(STACK_B), switch.attach(STACK_B));
        StackPair {
            switch,
            a,
            b,
            now: 0,
        }
    }

    /// Advance virtual time one step and poll until quiet.
    fn round(&mut self) {
        self.now += DT;
        for _ in 0..16 {
            let work = self.a.tick(self.now) + self.b.tick(self.now) + self.switch.step(self.now);
            if work == 0 {
                break;
            }
        }
    }

    fn segments(&self) -> u64 {
        let (a, b) = (self.a.stats(), self.b.stats());
        a.segments_in + a.segments_out + b.segments_in + b.segments_out
    }

    /// `n` established connections from `a` to a listener on `b`.
    fn connect(&mut self, n: usize) -> (Vec<SocketId>, Vec<SocketId>) {
        let ls = self.b.socket();
        self.b.bind(ls, SockAddr::new(0, 80)).expect("fresh stack");
        self.b.listen(ls, n as u32 + 1).expect("bound socket");
        let mut clients = Vec::new();
        let mut servers = Vec::new();
        for chunk in 0..n.div_ceil(64) {
            for _ in chunk * 64..(chunk * 64 + 64).min(n) {
                let s = self.a.socket();
                self.a
                    .connect(s, SockAddr::new(STACK_B, 80), self.now)
                    .expect("fresh socket");
                clients.push(s);
            }
            self.round();
            self.round();
            while let Ok((s, _)) = self.b.accept(ls) {
                servers.push(s);
            }
        }
        assert_eq!(servers.len(), n, "every connection was accepted");
        (clients, servers)
    }
}

fn netstack_drives(t: &mut Timer, out: &mut Vec<LayerMetric>) {
    // Bulk: one connection kept full; cost per segment through both stacks.
    let mut pair = StackPair::new();
    let (clients, servers) = pair.connect(1);
    let chunk = vec![0x5Au8; 64 * 1024];
    let mut sink = vec![0u8; 64 * 1024];
    let seg_ns = t.ns_per_unit(|| {
        let before = pair.segments();
        for _ in 0..60 {
            while pair.a.send(clients[0], &chunk).is_ok() {}
            pair.round();
            while pair.b.recv(servers[0], &mut sink).is_ok_and(|n| n > 0) {}
        }
        pair.segments() - before
    });
    out.push(LayerMetric {
        name: "netstack.seg_ns_bulk",
        value: seg_ns,
    });

    // Connection cycle: connect → established → both sides close → reaped.
    let mut pair = StackPair::new();
    let ls = pair.b.socket();
    pair.b.bind(ls, SockAddr::new(0, 80)).expect("fresh stack");
    pair.b.listen(ls, 64).expect("bound socket");
    const CYCLES: u64 = 32;
    let cycle = t.ns_per_op(CYCLES * 4, || {
        for _ in 0..4 {
            let socks: Vec<SocketId> = (0..CYCLES)
                .map(|_| {
                    let s = pair.a.socket();
                    pair.a
                        .connect(s, SockAddr::new(STACK_B, 80), pair.now)
                        .expect("fresh socket");
                    s
                })
                .collect();
            pair.round();
            pair.round();
            for s in socks {
                pair.a.close(s).expect("open socket");
            }
            pair.round();
            while let Ok((s, _)) = pair.b.accept(ls) {
                pair.b.close(s).expect("accepted socket");
            }
            pair.round();
            pair.round();
        }
    });
    out.push(LayerMetric {
        name: "netstack.conn_cycle_us",
        value: cycle / 1e3,
    });

    // Demux at 1000 sockets: one 64 B message per connection per round.
    let mut pair = StackPair::new();
    let (clients, servers) = pair.connect(1000);
    let msg = [0x42u8; 64];
    let demux = t.ns_per_unit(|| {
        let before = pair.segments();
        for _ in 0..4 {
            for c in &clients {
                pair.a.send(*c, &msg).expect("established connection");
            }
            pair.round();
            for s in &servers {
                black_box(pair.b.recv(*s, &mut sink).ok());
            }
        }
        pair.segments() - before
    });
    out.push(LayerMetric {
        name: "netstack.demux_ns_1e3",
        value: demux,
    });
}

fn fabric_drives(t: &mut Timer, out: &mut Vec<LayerMetric>) {
    let mut switch = VirtualSwitch::<u64>::new();
    let a = switch.attach(1);
    let b = switch.attach(2);
    let mut now = 0;
    let vswitch = t.ns_per_op(256 * 64, || {
        for _ in 0..64 {
            for i in 0..256 {
                a.send(frame(1, 2, i));
            }
            now += DT;
            switch.step(now);
            while let Some(f) = b.recv() {
                black_box(f.payload);
            }
        }
    });
    out.push(LayerMetric {
        name: "fabric.vswitch_ns_per_frame",
        value: vswitch,
    });

    // ToR with 8 trunks: every host sends to the next host's block.
    let mut tor = TorSwitch::<u64>::new();
    let mut ups: Vec<_> = (1..=8u8)
        .map(|h| {
            tor.attach_trunk(
                host_prefix(HostId(h)),
                HOST_PREFIX_MASK,
                LinkConfig::ideal(),
            )
        })
        .collect();
    let mut now = 0;
    let tor_ns = t.ns_per_op(8 * 32 * 64, || {
        for _ in 0..64 {
            for (h, up) in ups.iter_mut().enumerate() {
                let src = host_prefix(HostId(h as u8 + 1)) | 1;
                let dst = host_prefix(HostId((h as u8 + 1) % 8 + 1)) | 1;
                for i in 0..32 {
                    up.send(frame(src, dst, i));
                }
            }
            now += DT;
            tor.step(now);
            for up in ups.iter_mut() {
                while let Some(f) = up.recv() {
                    black_box(f.payload);
                }
            }
        }
    });
    out.push(LayerMetric {
        name: "fabric.tor_ns_per_frame",
        value: tor_ns,
    });

    // A host uplink crossed by two threads: the only cross-shard edge of a
    // sharded cluster.
    const XN: u64 = 100_000;
    let uplink = t.ns_per_op(XN, || {
        let (mut host, mut tor) = uplink_pair::<u64>(host_prefix(HostId(1)));
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..XN {
                    host.send(frame(1, 2, i));
                }
            });
            let mut got = 0;
            let mut scratch = Vec::new();
            while got < XN {
                scratch.clear();
                got += tor.drain_into(&mut scratch) as u64;
                black_box(scratch.len());
            }
        });
    });
    out.push(LayerMetric {
        name: "fabric.uplink_xthread_ns",
        value: uplink,
    });
}

fn host_drives(t: &mut Timer, out: &mut Vec<LayerMetric>) {
    for (name, shares) in [
        ("host.split_absorb_us_2", 2u8),
        ("host.split_absorb_us_8", 8),
    ] {
        let mut cfg = HostConfig::new();
        let mut mapping = Vec::new();
        for n in 1..=shares {
            cfg = cfg
                .with_nsm(NsmConfig::kernel(NsmId(n)))
                .with_vm(VmConfig::new(VmId(n)));
            mapping.push((VmId(n), NsmId(n)));
        }
        let mut host = NetKernelHost::new(cfg.with_mapping(VmToNsmPolicy::Static(mapping)))
            .expect("valid host configuration");
        let value = t.ns_per_op(2_000, || {
            for _ in 0..2_000 {
                let lanes = host.split_lanes();
                black_box(lanes.len());
                host.absorb_lanes(lanes);
            }
        });
        out.push(LayerMetric {
            name,
            value: value / 1e3,
        });
    }
}

fn idle_step_us(
    t: &mut Timer,
    threads: usize,
    shard_within_hosts: bool,
    obs: ObsConfig,
    steps: u64,
) -> f64 {
    let cfg = xhost_cfg(threads, shard_within_hosts).with_obs(obs);
    let mut cluster = Cluster::new(cfg).expect("xhost cluster configuration is valid");
    t.ns_per_op(steps, || {
        for _ in 0..steps {
            black_box(cluster.step(DT));
        }
    }) / 1e3
}

fn cluster_drives(t: &mut Timer, out: &mut Vec<LayerMetric>) {
    // `Cluster::step` on the idle xhost topology: pure executor overhead.
    let t1 = idle_step_us(t, 1, false, ObsConfig::default(), 5_000);
    let t1_no_obs = idle_step_us(t, 1, false, ObsConfig::disabled(), 5_000);
    let t2 = idle_step_us(t, 2, true, ObsConfig::default(), 400);
    let t2_hostgran = idle_step_us(t, 2, false, ObsConfig::default(), 400);
    for (name, value) in [
        ("cluster.idle_step_us_t1", t1),
        ("cluster.idle_step_us_t2", t2),
        ("cluster.idle_step_us_t2_hostgran", t2_hostgran),
        ("obs.idle_step_overhead_us", t1 - t1_no_obs),
    ] {
        out.push(LayerMetric { name, value });
    }
}

/// Run every layer drive.
pub fn run_all() -> Vec<LayerMetric> {
    let mut t = Timer {
        probe: Probe::new(),
    };
    let mut out = Vec::new();
    queue_drives(&mut t, &mut out);
    shmem_drives(&mut t, &mut out);
    engine_drives(&mut t, &mut out);
    netstack_drives(&mut t, &mut out);
    fabric_drives(&mut t, &mut out);
    host_drives(&mut t, &mut out);
    cluster_drives(&mut t, &mut out);
    out
}
