//! The cluster: hosts behind one top-of-rack switch, one clock.

use crate::exec::{ExecStats, ShardedExecutor, StepOutcome};
use nk_ctrl::{EvacMode, PlanEvent};
use nk_fabric::TorSwitch;
use nk_guest::GuestLib;
use nk_host::NetKernelHost;
use nk_netstack::{Segment, StackConfig, TcpStack};
use nk_obs::{FlightRecorder, ObsDump, ObsEventKind};
use nk_sim::Pollable;
use nk_types::addr::{host_prefix, HOST_PREFIX_MASK};
use nk_types::constants::DEFAULT_POLL_ROUNDS;
use nk_types::{
    ClusterAction, ClusterConfig, ClusterEvent, HostId, NkError, NkResult, NsmId, StackKind, VmId,
};
use std::collections::BTreeMap;

/// Cluster scheduler and migration counters, for observability and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Cluster steps executed.
    pub steps: u64,
    /// Interleaved poll rounds executed across all steps.
    pub rounds: u64,
    /// Steps that ended early because a full round reported no work.
    pub quiescent_exits: u64,
    /// Steps whose final allowed round still reported work.
    pub round_limit_hits: u64,
    /// Cross-host migrations started (drained mode).
    pub migrations: u64,
    /// Warm cross-host migrations completed (freeze → transfer → thaw).
    pub warm_migrations: u64,
    /// Mini-steps spent inside warm-migration freeze windows (not counted
    /// under [`ClusterStats::steps`] — they happen *inside* a handover).
    pub freeze_steps: u64,
    /// Connections transplanted by warm migrations, total.
    pub conns_transplanted: u64,
    /// Drains completed (source share fully retired).
    pub drains_completed: u64,
    /// NSM shares scaled to zero after a drain.
    pub shares_retired: u64,
    /// Work done in begin phases (fault events), all hosts, all steps.
    ///
    /// The per-phase counters below are *sums over hosts*, so — like every
    /// other field here — they are identical for any
    /// [`nk_types::ClusterConfig::threads`] value. The counters that do
    /// depend on the thread count live in [`crate::exec::ExecStats`] (see
    /// [`Cluster::exec_stats`]).
    pub begin_work: u64,
    /// Datapath work done in poll rounds, all hosts, all steps.
    pub poll_work: u64,
    /// Control actions applied in close phases, all hosts, all steps.
    pub control_work: u64,
    /// Frames the ToR forwarded at round barriers — the traffic crossing
    /// the cluster fabric (and, when sharded, the only cross-shard edge).
    pub barrier_frames: u64,
    /// Evacuation plans admitted (committed or not).
    pub evac_plans: u64,
    /// Evacuation plans that committed (every action done).
    pub evac_commits: u64,
    /// Evacuation plans rolled back after a mid-plan failure.
    pub evac_rollbacks: u64,
    /// Hosts killed outright (fault injection / operator action).
    pub hosts_killed: u64,
}

/// A set of [`NetKernelHost`]s joined by uplinks through a top-of-rack
/// switch, sharing one virtual clock, with cross-host VM moves (drained,
/// warm, whole-host evacuation — one executor, see [`crate::evac`]).
/// Placement has one record, the hosts' own VM slots: a VM's home is the
/// host it is resident on and not draining off
/// ([`NetKernelHost::homed_vms`]), and its drains are the hosts'
/// [`NetKernelHost::draining_vms`].
pub struct Cluster {
    pub(crate) cfg: ClusterConfig,
    /// Boxed, so a step moves each host into the executor and back as a
    /// pointer.
    pub(crate) hosts: BTreeMap<HostId, Box<NetKernelHost>>,
    pub(crate) tor: TorSwitch<Segment>,
    /// Datacenter-level endpoints attached at the ToR (gateways, servers
    /// every host talks to).
    pub(crate) remotes: BTreeMap<u32, TcpStack>,
    pub(crate) events: Vec<ClusterEvent>,
    /// Plan-event logs of every move and evacuation run so far, in
    /// execution order (see [`crate::evac`]).
    pub(crate) plan_events: Vec<PlanEvent>,
    pub(crate) stats: ClusterStats,
    /// Drives each step's poll rounds over the hosts on `threads` OS
    /// threads, the stepping thread included. Semantics are identical at
    /// any count; see [`crate::exec`].
    pub(crate) exec: ShardedExecutor<Box<NetKernelHost>>,
    /// The flight recorder: every capture happens on the stepping thread
    /// outside the sharded step, in `HostId` order, so its dump is
    /// byte-identical at any thread count.
    pub(crate) obs: FlightRecorder,
    pub(crate) now_ns: u64,
}

impl Cluster {
    /// Build a cluster from its configuration: every host comes up and gets
    /// an uplink trunk on the ToR.
    pub fn new(cfg: ClusterConfig) -> NkResult<Self> {
        cfg.validate()?;
        let uplink = cfg.uplink();
        let mut tor = TorSwitch::new();
        let mut hosts = BTreeMap::new();
        for host_cfg in &cfg.hosts {
            let id = host_cfg.host_id;
            let mut host = NetKernelHost::new(host_cfg.clone())?;
            host.connect_uplink(tor.attach_trunk(host_prefix(id), HOST_PREFIX_MASK, uplink));
            hosts.insert(id, Box::new(host));
        }
        let threads = Self::resolve_threads(cfg.threads);
        let obs = FlightRecorder::new(cfg.obs);
        Ok(Cluster {
            cfg,
            hosts,
            tor,
            remotes: BTreeMap::new(),
            events: Vec::new(),
            plan_events: Vec::new(),
            stats: ClusterStats::default(),
            exec: ShardedExecutor::new(threads),
            obs,
            now_ns: 0,
        })
    }

    /// The datapath thread count: `NK_CLUSTER_THREADS` (when set to a
    /// positive integer) wins over [`ClusterConfig::threads`], so a CI job
    /// or an operator can re-run any scenario at a different parallelism
    /// without touching the config — the results are identical either way.
    fn resolve_threads(configured: usize) -> usize {
        let var = std::env::var("NK_CLUSTER_THREADS").ok();
        Self::resolve_threads_from(var.as_deref(), configured)
    }

    /// The env-free core of [`Cluster::resolve_threads`]. A value that is
    /// not a positive integer — `0`, garbage, whitespace-only — must not
    /// silently pick some other parallelism (a zero-thread executor would
    /// deadlock; an unnoticed typo would invalidate a determinism replay),
    /// so the fallback to the configured count is logged on stderr.
    pub(crate) fn resolve_threads_from(raw: Option<&str>, configured: usize) -> usize {
        let Some(raw) = raw else {
            return configured;
        };
        match raw.trim().parse::<usize>() {
            Ok(t) if t > 0 => t,
            _ => {
                eprintln!(
                    "NK_CLUSTER_THREADS={raw:?} is not a positive integer; \
                     falling back to the configured {configured} thread(s)"
                );
                configured
            }
        }
    }

    /// The cluster's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Current virtual time in nanoseconds (shared by every host).
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Scheduler and migration counters. Every field is independent of the
    /// datapath thread count.
    pub fn stats(&self) -> ClusterStats {
        self.stats
    }

    /// Executor counters: per-phase work plus the serial-vs-critical-path
    /// model. Unlike [`Cluster::stats`], `threads` and `critical_work` here
    /// depend on the thread count.
    pub fn exec_stats(&self) -> &ExecStats {
        self.exec.stats()
    }

    /// OS threads busy in a poll phase, the caller of [`Cluster::step`]
    /// included (after the `NK_CLUSTER_THREADS` override).
    pub fn threads(&self) -> usize {
        self.exec.threads()
    }

    /// The configured [`ClusterConfig::shard_within_hosts`], echoed. It has
    /// no effect: a host is the one parallel unit. Kept because the
    /// benchmark asserts the echo.
    pub fn shard_within_hosts(&self) -> bool {
        self.cfg.shard_within_hosts
    }

    /// A host by id.
    pub fn host(&self, id: HostId) -> Option<&NetKernelHost> {
        self.hosts.get(&id).map(Box::as_ref)
    }

    /// Mutable access to a host by id.
    pub fn host_mut(&mut self, id: HostId) -> Option<&mut NetKernelHost> {
        self.hosts.get_mut(&id).map(Box::as_mut)
    }

    /// Host ids, in order.
    pub fn host_ids(&self) -> Vec<HostId> {
        self.hosts.keys().copied().collect()
    }

    /// The host a VM's *new* connections currently open on: the one host
    /// it is resident on and not draining off.
    pub fn home_of(&self, vm: VmId) -> Option<HostId> {
        let mut homes = self
            .hosts
            .iter()
            .filter(|(_, h)| h.homed_vms().any(|v| v == vm));
        let home = homes.next().map(|(id, _)| *id);
        debug_assert!(homes.next().is_none(), "{vm:?} is homed on two hosts");
        home
    }

    /// Mutable access to a VM's GuestLib on a specific host. During a drain
    /// the VM briefly exists on two hosts: the retiring instance on the
    /// source (serving pinned connections) and the imported one at
    /// [`Cluster::home_of`].
    pub fn guest_on(&mut self, host: HostId, vm: VmId) -> Option<&mut GuestLib> {
        self.hosts.get_mut(&host).and_then(|h| h.guest_mut(vm))
    }

    /// Attach a datacenter-level endpoint (e.g. the echo server every
    /// tenant talks to) at the top-of-rack switch. Cross-host by
    /// construction: every host reaches it through its uplink. Drive its
    /// sockets by polling them (`poll`, `accept`, `recv`): the cluster ticks
    /// the stack every round and discards its `StackEvent`s.
    pub fn add_remote(&mut self, ip: u32) -> &mut TcpStack {
        let port = self.tor.attach_with_link(ip, self.cfg.uplink());
        let stack = TcpStack::new(StackConfig::new(ip), port);
        self.remotes.insert(ip, stack);
        self.remotes.get_mut(&ip).expect("just inserted")
    }

    /// Mutable access to a previously added ToR endpoint's stack.
    pub fn remote_mut(&mut self, ip: u32) -> Option<&mut TcpStack> {
        self.remotes.get_mut(&ip)
    }

    /// The cluster event log, in application order.
    pub fn events(&self) -> &[ClusterEvent] {
        &self.events
    }

    /// FNV-1a digest of the serialized event log. Two runs of the same
    /// seeded configuration must produce the same digest — the check the
    /// CI determinism job replays.
    pub fn event_digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for event in &self.events {
            let json = serde_json::to_string(event).expect("events serialize");
            for byte in json.as_bytes() {
                hash ^= u64::from(*byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        hash
    }

    /// Advance the whole cluster by `dt_ns`: every host opens a step (fault
    /// injection included), then all hosts, the ToR and the ToR endpoints
    /// are polled in interleaved rounds until a full round reports no work
    /// (or the round bound is hit) — so a request → uplink → ToR → remote →
    /// response round trip completes within one step. Each host's control
    /// phase closes its step, then drain completions retire emptied source
    /// shares. Returns the total work done.
    pub fn step(&mut self, dt_ns: u64) -> usize {
        let outcome = self.drive_step(dt_ns, true);
        if outcome.quiescent {
            self.stats.quiescent_exits += 1;
        } else {
            self.stats.round_limit_hits += 1;
        }
        let total = outcome.work + self.advance_drains();
        self.stats.steps += 1;
        self.stats.rounds += outcome.rounds as u64;
        total
    }

    /// The shared core of [`Cluster::step`] and the freeze-window
    /// mini-step: advance virtual time, open the step on every host, drive
    /// the poll phase through the executor, and (for full steps) close it.
    ///
    /// Begin and close run here, serially on whole hosts in `HostId` order,
    /// so fault injection, the control plane and all migration paths never
    /// see a host mid-round. In between, the hosts leave the map for the
    /// poll phase and are the executor's units, dealt round-robin in
    /// `HostId` order; the hub — the ToR and its endpoints — runs between
    /// rounds while every helper idles and drains host uplinks in route
    /// order (ascending `HostId`), so the cross-shard frame merge is
    /// deterministic for any thread count.
    pub(crate) fn drive_step(&mut self, dt_ns: u64, close: bool) -> StepOutcome {
        self.now_ns += dt_ns;
        let now_ns = self.now_ns;
        let mut begin = 0usize;
        for host in self.hosts.values_mut() {
            begin += host.begin_step(dt_ns);
        }

        let before = {
            let s = self.exec.stats();
            (s.poll_work, s.barrier_frames)
        };
        let units = std::mem::take(&mut self.hosts).into_values().collect();
        let tor = &mut self.tor;
        let remotes = &mut self.remotes;
        let (outcome, units) = self.exec.drive(
            units,
            |now| {
                // The fabric hub: the one place every cross-host frame
                // passes, in route order, on the caller's thread.
                let frames = tor.step(now);
                let mut work = frames;
                for remote in remotes.values_mut() {
                    work += Pollable::poll(remote, now);
                    // Driven by polling its sockets; nothing reads its events.
                    remote.discard_events();
                }
                (work, frames)
            },
            now_ns,
            DEFAULT_POLL_ROUNDS,
        );
        self.hosts = units.into_iter().map(|h| (h.host_id(), h)).collect();

        let mut close_work = 0usize;
        if close {
            for host in self.hosts.values_mut() {
                close_work += host.end_step();
            }
        }
        self.exec.note_serial_work(begin + close_work);
        let s = self.exec.stats();
        self.stats.begin_work += begin as u64;
        self.stats.poll_work += s.poll_work - before.0;
        self.stats.control_work += close_work as u64;
        self.stats.barrier_frames += s.barrier_frames - before.1;
        self.drain_host_feeds();
        StepOutcome {
            work: begin + outcome.work + close_work,
            rounds: outcome.rounds,
            quiescent: outcome.quiescent,
        }
    }

    /// Mirror what each host noted this step — fault applications and fresh
    /// control-log entries — into the event ring.
    /// Runs on the stepping thread after the poll phase, iterating hosts in
    /// `HostId` order, so the ring's contents are thread-count-independent.
    fn drain_host_feeds(&mut self) {
        if !self.obs.active() {
            return;
        }
        for (id, host) in self.hosts.iter_mut() {
            for (at_ns, faults) in host.take_applied_faults() {
                self.obs
                    .record_event(at_ns, ObsEventKind::Fault { host: *id, faults });
            }
            for event in host.take_fresh_control_events() {
                self.obs.record_event(
                    event.at_ns,
                    ObsEventKind::Control {
                        host: *id,
                        action: event.action,
                    },
                );
            }
        }
    }

    /// Step repeatedly with a fixed increment.
    pub fn run(&mut self, steps: usize, dt_ns: u64) {
        for _ in 0..steps {
            self.step(dt_ns);
        }
    }

    // ---- Cross-host migration ------------------------------------------------

    /// Live-migrate a VM to another host, *drained*: its identity moves
    /// now (new connections open on the least-loaded TCP NSM of `to`), the
    /// connections pinned on `from` keep being served there, and the drain
    /// is tracked until the source share empties. Runs as a one-move plan through the move executor ([`crate::evac`]): a refusal
    /// at any step rolls the earlier ones back and returns that step's
    /// error.
    pub fn migrate_vm(&mut self, vm: VmId, from: HostId, to: HostId) -> NkResult<()> {
        self.move_vm(vm, from, to, EvacMode::Drained, &[])
    }

    /// Warm-migrate a VM to another host: the paper's "switch her NSM on
    /// the fly", with the *connections moving too*. The same executor runs
    /// the warm chain inside this call — freeze until the VM's connections
    /// are wire-quiet, export identity *plus* per-connection stack state
    /// ([`nk_types::VmWarmExport`]), reroute the transplanted addresses at
    /// the ToR, install, thaw, and scale the emptied source share to zero
    /// in the same instant. No drain, no reset.
    ///
    /// Warm mode requires the VM to be its source NSM's only tenant (the
    /// fabric reroutes the NSM's vNIC address, which would hijack other
    /// VMs' cross-host flows); otherwise it refuses with
    /// [`NkError::InvalidState`] and the caller falls back to
    /// [`Cluster::migrate_vm`]. A failed step rolls everything back and the
    /// VM keeps serving as if nothing happened.
    pub fn migrate_vm_warm(&mut self, vm: VmId, from: HostId, to: HostId) -> NkResult<()> {
        self.move_vm(vm, from, to, EvacMode::Warm, &[])
    }

    /// One freeze-window mini-step: virtual time advances and every
    /// datapath component polls to quiescence, but no control epochs close
    /// and no drains advance — the cluster is mid-handover. Returns the
    /// work done.
    pub(crate) fn freeze_ministep(&mut self, dt_ns: u64) -> usize {
        let outcome = self.drive_step(dt_ns, false);
        self.stats.freeze_steps += 1;
        outcome.work
    }

    /// The destination NSM for a migration: among the host's alive
    /// TCP-stack NSMs, the one serving the fewest VMs (ties by id) — the
    /// same least-loaded rule initial placement uses.
    pub(crate) fn pick_destination_nsm(&self, host: HostId) -> NkResult<NsmId> {
        let h = self.hosts.get(&host).ok_or(NkError::NotFound)?;
        let vms: Vec<VmId> = h.config().vms.iter().map(|v| v.id).collect();
        h.config()
            .nsms
            .iter()
            .filter(|n| n.stack != StackKind::SharedMem && h.has_nsm(n.id))
            .map(|n| {
                let mapped = vms.iter().filter(|vm| h.nsm_of(**vm) == Some(n.id)).count();
                (mapped, n.id)
            })
            .min()
            .map(|(_, id)| id)
            .ok_or(NkError::NoNsm)
    }

    /// Complete any drains whose pinned-connection count reached zero: the
    /// source VM instance is torn down and, when its NSM serves nothing
    /// else, the share scales to zero cores. Drains are walked in
    /// `(HostId, VmId)` order; a step without one allocates nothing.
    fn advance_drains(&mut self) -> usize {
        let mut done = Vec::new();
        for (id, host) in self.hosts.iter_mut() {
            for (vm, nsm) in host.draining_vms() {
                if host.vm_pinned(vm) == 0 {
                    host.retire_vm(vm).expect("unpinned VM retires");
                    done.push((*id, vm, nsm, host.retire_nsm_if_drained(nsm)));
                }
            }
        }
        let mut work = 0;
        for (host, vm, nsm, retired) in done {
            self.stats.drains_completed += 1;
            self.push_event(ClusterAction::DrainComplete { vm, host, nsm });
            work += 1;
            if retired {
                self.stats.shares_retired += 1;
                self.push_event(ClusterAction::ScaleToZero { host, nsm });
                work += 1;
            }
        }
        work
    }

    pub(crate) fn push_event(&mut self, action: ClusterAction) {
        self.obs
            .record_event(self.now_ns, ObsEventKind::Cluster(action));
        self.events.push(ClusterEvent {
            at_ns: self.now_ns,
            action,
        });
    }

    // ---- The flight recorder -------------------------------------------------

    /// Snapshot everything the flight recorder retains (event ring, phase
    /// timelines, freeze stamp). Its serialized form is byte-identical for
    /// any `NK_CLUSTER_THREADS` value.
    pub fn obs_dump(&self) -> ObsDump {
        self.obs.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nk_types::constants::DEFAULT_QUEUE_CAPACITY;
    use nk_types::{HostConfig, NsmConfig, SockAddr, SocketApi, SocketId, VmConfig, VmToNsmPolicy};

    const SERVER_IP: u32 = 0xC0A8_0001; // 192.168.0.1, outside every host block

    fn host(id: u8, vms: &[u8]) -> HostConfig {
        let mut cfg = HostConfig::new()
            .with_host_id(HostId(id))
            .with_nsm(NsmConfig::kernel(NsmId(1)))
            .with_mapping(VmToNsmPolicy::All(NsmId(1)));
        for vm in vms {
            cfg = cfg.with_vm(VmConfig::new(VmId(*vm)));
        }
        cfg
    }

    fn two_host_cluster() -> Cluster {
        Cluster::new(
            ClusterConfig::new()
                .with_host(host(1, &[1]))
                .with_host(host(2, &[2])),
        )
        .unwrap()
    }

    /// Guests on two different hosts both reach a ToR-attached server:
    /// traffic crosses host switch → uplink → ToR and back.
    #[test]
    fn guests_on_both_hosts_reach_a_tor_endpoint() {
        let mut cluster = two_host_cluster();
        let server = cluster.add_remote(SERVER_IP);
        let ls = server.socket();
        server.bind(ls, SockAddr::new(0, 7)).unwrap();
        server.listen(ls, 16).unwrap();

        for (h, vm) in [(HostId(1), VmId(1)), (HostId(2), VmId(2))] {
            let guest = cluster.guest_on(h, vm).unwrap();
            let s = guest.socket().unwrap();
            guest.connect(s, SockAddr::new(SERVER_IP, 7)).unwrap();
        }
        cluster.run(30, 100_000);

        let server = cluster.remote_mut(SERVER_IP).unwrap();
        let mut accepted = 0;
        while server.accept(ls).is_ok() {
            accepted += 1;
        }
        assert_eq!(accepted, 2, "both hosts' tenants reach the ToR endpoint");
        for h in [HostId(1), HostId(2)] {
            let up = cluster.host(h).unwrap().switch().link_stats(0).unwrap();
            let down = cluster.tor.link_stats(host_prefix(h)).unwrap();
            let (tx, rx) = (up.delivered_bytes, down.delivered_bytes);
            assert!(tx > 0 && rx > 0, "{h}: {tx} B out, {rx} B in");
        }
        let stats = cluster.stats();
        assert_eq!(stats.quiescent_exits + stats.round_limit_hits, stats.steps);
        assert!(stats.quiescent_exits > 0);
    }

    /// The hosts of a cluster rewind their empty rings on the thread that
    /// polls them: two hosts' guests echo through a ToR server for 300
    /// steps, many times a default ring's worth of NQEs, at threads 1 and
    /// 2, and after every step no ring on either host has written further
    /// than its first page (128 slots of 32-B NQEs) plus one NQE a socket.
    /// Both runs end with the same digest.
    #[test]
    fn clustered_hosts_rewind_their_empty_rings() {
        const SOCKETS: usize = 3;
        const PAGE_SLOTS: usize = 4096 / 32;
        let mut digests = Vec::new();
        for threads in [1, 2] {
            let mut cluster = Cluster::new(
                ClusterConfig::new()
                    .with_threads(threads)
                    .with_host(host(1, &[1]))
                    .with_host(host(2, &[2])),
            )
            .unwrap();
            let server = cluster.add_remote(SERVER_IP);
            let ls = server.socket();
            server.bind(ls, SockAddr::new(0, 7)).unwrap();
            server.listen(ls, 16).unwrap();
            let guests = [(HostId(1), VmId(1)), (HostId(2), VmId(2))];
            let mut socks = Vec::new();
            for (h, vm) in guests {
                let guest = cluster.guest_on(h, vm).unwrap();
                for _ in 0..SOCKETS {
                    let s = guest.socket().unwrap();
                    guest.connect(s, SockAddr::new(SERVER_IP, 7)).unwrap();
                    socks.push((h, vm, s));
                }
            }
            cluster.run(30, 100_000);
            let server = cluster.remote_mut(SERVER_IP).unwrap();
            let conns: Vec<SocketId> = std::iter::from_fn(|| server.accept(ls).ok())
                .map(|(c, _)| c)
                .collect();
            assert_eq!(conns.len(), 2 * SOCKETS);
            let mut buf = [0u8; 64];
            for step in 0..300u32 {
                for &(h, vm, s) in &socks {
                    let guest = cluster.guest_on(h, vm).unwrap();
                    while guest.recv(s, &mut buf).is_ok() {}
                    guest.send(s, &step.to_le_bytes()).unwrap();
                }
                cluster.step(100_000);
                let server = cluster.remote_mut(SERVER_IP).unwrap();
                for &c in &conns {
                    while let Ok(n) = server.recv(c, &mut buf) {
                        server.send(c, &buf[..n]).unwrap();
                    }
                }
                cluster.step(100_000);
                for h in [HostId(1), HostId(2)] {
                    let reach = cluster.host_mut(h).unwrap().ring_reach();
                    assert!(
                        reach <= PAGE_SLOTS + SOCKETS,
                        "threads {threads}, step {step}, {h}: {reach}"
                    );
                }
            }
            let switched = cluster
                .host(HostId(1))
                .unwrap()
                .engine_stats()
                .nqes_switched;
            assert!(
                switched > 4 * DEFAULT_QUEUE_CAPACITY as u64,
                "{switched} NQEs"
            );
            digests.push(cluster.event_digest());
        }
        assert_eq!(digests[0], digests[1]);
    }

    /// A scripted migration moves a VM's home; without pinned connections
    /// the drain completes immediately and the source share retires.
    #[test]
    fn idle_migration_drains_immediately_and_retires_the_share() {
        let mut cluster = two_host_cluster();
        assert_eq!(cluster.home_of(VmId(1)), Some(HostId(1)));
        cluster.migrate_vm(VmId(1), HostId(1), HostId(2)).unwrap();
        assert_eq!(cluster.home_of(VmId(1)), Some(HostId(2)));
        cluster.step(100_000); // drain check runs inside the step
        assert_eq!(cluster.stats().drains_completed, 1);
        assert_eq!(cluster.stats().shares_retired, 1);
        assert_eq!(
            cluster.host(HostId(1)).unwrap().nsm_cores(NsmId(1)),
            Some(0),
            "the drained source NSM share must scale to zero"
        );
        assert!(cluster.events().iter().any(|e| matches!(
            e.action,
            ClusterAction::ScaleToZero {
                host: HostId(1),
                ..
            }
        )));
        // The VM is gone from the source host entirely.
        assert!(cluster.guest_on(HostId(1), VmId(1)).is_none());
        assert!(cluster.guest_on(HostId(2), VmId(1)).is_some());
    }

    /// A share retired to zero cores revives when a tenant migrates back
    /// onto it: the import restores the configured allocation.
    #[test]
    fn importing_onto_a_retired_share_revives_it() {
        let mut cluster = two_host_cluster();
        cluster.migrate_vm(VmId(1), HostId(1), HostId(2)).unwrap();
        cluster.step(100_000);
        assert_eq!(
            cluster.host(HostId(1)).unwrap().nsm_cores(NsmId(1)),
            Some(0)
        );
        cluster.migrate_vm(VmId(1), HostId(2), HostId(1)).unwrap();
        assert_eq!(
            cluster.host(HostId(1)).unwrap().nsm_cores(NsmId(1)),
            Some(1),
            "the import must restore the retired share's allocation"
        );
    }

    /// The warm path end to end: a pinned connection streams to a ToR
    /// endpoint, the VM warm-migrates, and the *same* connection (same
    /// guest socket id, same 4-tuple) keeps streaming from the new host.
    /// The source share scales to zero in the same instant — no drain.
    #[test]
    fn warm_migration_transplants_a_live_connection() {
        let mut cluster = two_host_cluster();
        let server = cluster.add_remote(SERVER_IP);
        let ls = server.socket();
        server.bind(ls, SockAddr::new(0, 7)).unwrap();
        server.listen(ls, 4).unwrap();
        let guest = cluster.guest_on(HostId(1), VmId(1)).unwrap();
        let s = guest.socket().unwrap();
        guest.connect(s, SockAddr::new(SERVER_IP, 7)).unwrap();
        cluster.run(20, 100_000);
        let guest = cluster.guest_on(HostId(1), VmId(1)).unwrap();
        assert!(guest.poll(s).writable());
        assert_eq!(guest.send(s, b"sent from host 1").unwrap(), 16);
        cluster.run(10, 100_000);
        assert!(cluster.host(HostId(1)).unwrap().vm_pinned(VmId(1)) >= 1);

        cluster
            .migrate_vm_warm(VmId(1), HostId(1), HostId(2))
            .unwrap();
        assert_eq!(cluster.home_of(VmId(1)), Some(HostId(2)));
        assert_eq!(cluster.stats().warm_migrations, 1);
        assert_eq!(cluster.stats().conns_transplanted, 1);
        assert_eq!(cluster.stats().drains_completed, 0, "warm ≠ drained");
        // The source instance is gone outright and its share is at zero.
        assert!(cluster.guest_on(HostId(1), VmId(1)).is_none());
        assert_eq!(
            cluster.host(HostId(1)).unwrap().nsm_cores(NsmId(1)),
            Some(0)
        );
        // All three milestones landed at the same virtual instant — the
        // "same control epoch, no drain wait" acceptance condition.
        let warm_at = cluster
            .events()
            .iter()
            .find(|e| matches!(e.action, ClusterAction::WarmMigrateVm { .. }))
            .expect("warm event logged")
            .at_ns;
        for wanted in [
            cluster
                .events()
                .iter()
                .find(|e| matches!(e.action, ClusterAction::WarmHandoverComplete { .. })),
            cluster
                .events()
                .iter()
                .find(|e| matches!(e.action, ClusterAction::ScaleToZero { .. })),
        ] {
            assert_eq!(wanted.expect("milestone logged").at_ns, warm_at);
        }

        // The connection survived: same socket id, now on host 2.
        let guest = cluster.guest_on(HostId(2), VmId(1)).unwrap();
        assert!(guest.has_socket(s));
        assert_eq!(guest.send(s, b" and from host 2").unwrap(), 16);
        cluster.run(20, 100_000);

        let server = cluster.remote_mut(SERVER_IP).unwrap();
        let (conn, _) = server.accept(ls).unwrap();
        let mut got = Vec::new();
        let mut buf = [0u8; 64];
        while let Ok(n) = server.recv(conn, &mut buf) {
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        assert_eq!(
            got, b"sent from host 1 and from host 2",
            "byte-contiguous stream across the handover"
        );
        // And the server's replies reach the transplanted connection.
        let server = cluster.remote_mut(SERVER_IP).unwrap();
        server.send(conn, b"echo").unwrap();
        cluster.run(10, 100_000);
        let guest = cluster.guest_on(HostId(2), VmId(1)).unwrap();
        assert_eq!(guest.recv(s, &mut buf).unwrap(), 4);
    }

    /// Hosts 1–3 (VM 1 on host 1, VM 2 on host 2, host 3 empty), the ToR
    /// server listening, and each VM holding one connection pinned at home.
    fn pinned_pair() -> (Cluster, [SocketId; 2]) {
        let cfg = ClusterConfig::new()
            .with_host(host(1, &[1]))
            .with_host(host(2, &[2]))
            .with_host(host(3, &[]));
        let mut cluster = Cluster::new(cfg).unwrap();
        let server = cluster.add_remote(SERVER_IP);
        let ls = server.socket();
        server.bind(ls, SockAddr::new(0, 7)).unwrap();
        server.listen(ls, 16).unwrap();
        let socks = [1, 2].map(|id| {
            let guest = cluster.guest_on(HostId(id), VmId(id)).unwrap();
            let s = guest.socket().unwrap();
            guest.connect(s, SockAddr::new(SERVER_IP, 7)).unwrap();
            s
        });
        cluster.run(20, 100_000);
        for id in [1, 2] {
            assert!(cluster.host(HostId(id)).unwrap().vm_pinned(VmId(id)) >= 1);
        }
        (cluster, socks)
    }

    /// Drains that complete in the same step are logged in (source
    /// `HostId`, `VmId`) order — the hosts' own order — not in the order
    /// their moves committed.
    #[test]
    fn drains_completing_in_one_step_log_in_host_order() {
        let (mut cluster, socks) = pinned_pair();
        cluster.migrate_vm(VmId(2), HostId(2), HostId(3)).unwrap();
        cluster.migrate_vm(VmId(1), HostId(1), HostId(3)).unwrap();
        for (id, s) in [1, 2].into_iter().zip(socks) {
            let guest = cluster.guest_on(HostId(id), VmId(id)).unwrap();
            guest.close(s).unwrap();
        }
        cluster.run(20, 100_000);
        let tail: Vec<(u64, HostId)> = cluster
            .events()
            .iter()
            .filter_map(|e| match e.action {
                ClusterAction::DrainComplete { host, .. }
                | ClusterAction::ScaleToZero { host, .. } => Some((e.at_ns, host)),
                _ => None,
            })
            .collect();
        let at = tail[0].0;
        let (one, two) = ((at, HostId(1)), (at, HostId(2)));
        assert_eq!(tail, [one, one, two, two], "drain + scale-to-zero each");
    }

    /// Killing a drain's source host ends the drain silently: the VM stays
    /// homed on its destination, no drain ever completes, and the cluster
    /// keeps stepping.
    #[test]
    fn killing_a_drains_source_ends_it_silently() {
        let (mut cluster, _) = pinned_pair();
        cluster.migrate_vm(VmId(1), HostId(1), HostId(2)).unwrap();
        let draining = cluster.host(HostId(1)).unwrap().draining_vms();
        assert_eq!(draining, [(VmId(1), NsmId(1))]);
        cluster.kill_host(HostId(1)).unwrap();
        cluster.run(20, 100_000);
        assert_eq!(cluster.stats().steps, 40);
        assert_eq!(cluster.home_of(VmId(1)), Some(HostId(2)));
        let drained = |e: &ClusterEvent| matches!(e.action, ClusterAction::DrainComplete { .. });
        assert!(!cluster.events().iter().any(drained));
    }

    /// A VM homed on two hosts breaks the rule placement is derived from.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "is homed on two hosts")]
    fn a_vm_homed_on_two_hosts_trips_the_placement_check() {
        let mut cluster = two_host_cluster();
        let src = cluster.host_mut(HostId(1)).unwrap();
        let export = src.export_vm(VmId(1)).unwrap();
        src.cancel_export(VmId(1));
        let dst = cluster.host_mut(HostId(2)).unwrap();
        dst.import_vm(&export, NsmId(1)).unwrap();
        cluster.home_of(VmId(1));
    }

    /// Warm mode refuses a share serving other tenants (the reroute would
    /// hijack their flows); drained migration remains available.
    #[test]
    fn warm_migration_requires_an_exclusive_source_share() {
        let mut cluster = Cluster::new(
            ClusterConfig::new()
                .with_host(host(1, &[1, 3]))
                .with_host(host(2, &[2])),
        )
        .unwrap();
        assert_eq!(
            cluster.migrate_vm_warm(VmId(1), HostId(1), HostId(2)),
            Err(NkError::InvalidState)
        );
        // The refusal leaves the VM serving and un-frozen; the drained
        // path still works.
        assert!(!cluster.host(HostId(1)).unwrap().vm_frozen(VmId(1)));
        cluster.migrate_vm(VmId(1), HostId(1), HostId(2)).unwrap();
        assert_eq!(cluster.home_of(VmId(1)), Some(HostId(2)));
    }

    /// Warm migration validates like the drained one.
    #[test]
    fn invalid_warm_migrations_are_rejected() {
        let mut cluster = two_host_cluster();
        assert_eq!(
            cluster.migrate_vm_warm(VmId(1), HostId(1), HostId(1)),
            Err(NkError::BadConfig)
        );
        assert_eq!(
            cluster.migrate_vm_warm(VmId(1), HostId(2), HostId(1)),
            Err(NkError::NotFound)
        );
        assert_eq!(
            cluster.migrate_vm_warm(VmId(9), HostId(1), HostId(2)),
            Err(NkError::NotFound)
        );
    }

    #[test]
    fn invalid_migrations_are_rejected() {
        let mut cluster = two_host_cluster();
        assert_eq!(
            cluster.migrate_vm(VmId(1), HostId(1), HostId(1)),
            Err(NkError::BadConfig)
        );
        assert_eq!(
            cluster.migrate_vm(VmId(1), HostId(2), HostId(1)),
            Err(NkError::NotFound),
            "vm1 is not homed on host 2"
        );
        assert_eq!(
            cluster.migrate_vm(VmId(9), HostId(1), HostId(2)),
            Err(NkError::NotFound)
        );
    }

    #[test]
    fn event_digest_is_order_sensitive_and_stable() {
        let mut a = two_host_cluster();
        let mut b = two_host_cluster();
        assert_eq!(a.event_digest(), b.event_digest(), "empty logs agree");
        a.migrate_vm(VmId(1), HostId(1), HostId(2)).unwrap();
        assert_ne!(a.event_digest(), b.event_digest());
        b.migrate_vm(VmId(1), HostId(1), HostId(2)).unwrap();
        assert_eq!(a.event_digest(), b.event_digest());
    }

    #[test]
    fn invalid_cluster_configs_are_rejected() {
        assert!(Cluster::new(ClusterConfig::new()).is_err());
        let dup = ClusterConfig::new()
            .with_host(host(1, &[1]))
            .with_host(host(1, &[2]));
        assert!(Cluster::new(dup).is_err());
    }

    /// Begin and close run on every host, once per step, at any thread
    /// count — and the freeze-window mini-step runs begin and the rounds but
    /// skips close. Observed from outside: a fault due at the first step
    /// (begin applies it and advances the host clock) and a control epoch
    /// due every step (close samples it).
    #[test]
    fn freeze_ministep_runs_begin_and_rounds_but_no_close() {
        use nk_types::{ControlPolicy, FaultAction, FaultPlan, LinkConfig};
        const DT: u64 = 100_000;
        for threads in [1, 3] {
            let policy = ControlPolicy {
                epoch_ns: DT,
                ..ControlPolicy::default()
            };
            let mut cfg = ClusterConfig::new().with_threads(threads);
            for id in 1..=3 {
                cfg = cfg.with_host(host(id, &[id]).with_control(policy.clone()));
            }
            let mut cluster = Cluster::new(cfg).unwrap();
            let plan = FaultPlan::new().at(
                DT,
                FaultAction::DegradeLink {
                    nsm: NsmId(1),
                    link: LinkConfig::ideal(),
                },
            );
            for host in cluster.hosts.values_mut() {
                host.install_fault_plan(&plan).unwrap();
            }
            let closes = |cluster: &Cluster| -> Vec<usize> {
                let hosts = cluster.hosts.values();
                hosts
                    .map(|h| h.control_telemetry().actions_per_epoch.len())
                    .collect()
            };

            cluster.freeze_ministep(DT);
            let stats = cluster.stats();
            assert_eq!(stats.begin_work, 3, "every host applied its fault");
            assert_eq!((stats.freeze_steps, stats.steps), (1, 0));
            assert!(cluster.exec_stats().rounds >= 1);
            assert_eq!(closes(&cluster), vec![0, 0, 0], "no host closed");
            assert!(cluster.hosts.values().all(|h| h.now_ns() == DT));

            cluster.step(DT);
            cluster.step(DT);
            assert_eq!(closes(&cluster), vec![2, 2, 2], "one close per step");
            assert_eq!(cluster.stats().begin_work, 3);
            assert_eq!(cluster.exec_stats().steps, 3);
        }
    }

    /// The `NK_CLUSTER_THREADS` override accepts only positive integers;
    /// `0`, garbage and whitespace-only values fall back to the configured
    /// count instead of silently picking something else.
    #[test]
    fn thread_override_rejects_zero_and_garbage() {
        assert_eq!(Cluster::resolve_threads_from(None, 3), 3);
        assert_eq!(Cluster::resolve_threads_from(Some("4"), 3), 4);
        assert_eq!(Cluster::resolve_threads_from(Some(" 2 "), 3), 2);
        assert_eq!(Cluster::resolve_threads_from(Some("0"), 3), 3);
        assert_eq!(Cluster::resolve_threads_from(Some("abc"), 3), 3);
        assert_eq!(Cluster::resolve_threads_from(Some(""), 3), 3);
        assert_eq!(Cluster::resolve_threads_from(Some("-1"), 3), 3);
    }
}
