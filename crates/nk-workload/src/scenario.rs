//! The scenario runner: one spec, one loop, one set of invariants.
//!
//! A [`Scenario`] runs tenants on a [`Cluster`] — a lone host is the
//! one-host cluster ([`ScenarioConfig::single_host`]) — against one echo
//! server: each tenant's [`VerifiedStream`] streams a seeded payload chunk
//! by chunk, verifying every echoed byte, while per-host [`FaultPlan`]s, the
//! hosts' control planes and a [`Planned`] script of cross-host moves and
//! host evacuations change the infrastructure
//! underneath it. Tenants start at their own virtual times (offered load
//! ramps up and down) and reopen their connection every few chunks unless
//! [`BurstyClient::long_lived`] — which is what lets an NSM migration or a
//! *drained* cross-host move take effect mid-transfer, while a *warm* move
//! transplants the pinned connection and the runner follows the socket to
//! its new host. Because the payloads, the fault schedules, the script and
//! the whole datapath derive from explicit seeds, a scenario replays
//! bit-for-bit at any thread count, and two runs compare
//! with one `assert_eq!` on the [`ScenarioReport`].
//!
//! Where the echo server attaches is derived from its address: inside a
//! host's `10.<host>.0.0/16` block it can only ever be reached as
//! host-local, so it sits on that host's switch; anywhere else it sits at
//! the top-of-rack switch and every byte crosses the inter-host fabric.
//!
//! Invariants checked by every run:
//!
//! * **Byte integrity** — every byte the server echoes must match the
//!   seeded payload at the connection's position ([`VerifiedStream`]).
//! * **Scheduler accounting** — every cluster step ends in quiescence or at
//!   the round bound, never in between.
//! * **No NQE lost** — at quiescence, for every VM resident on every host,
//!   each request NQE the guest submitted was forwarded to an NSM, answered
//!   with an error, or is still parked for retry: exact conservation over
//!   the CoreEngine switch, per (host, VM).
//! * **Nothing left behind** — after the settle, every resident VM's
//!   hugepage region is fully free again and no response is parked behind
//!   its full rings: the response direction loses nothing either.

use crate::apps::{echo_all, BurstyClient, VerifiedStream};
use nk_cluster::{Cluster, ClusterStats, EvacFault};
use nk_ctrl::PlanEvent;
use nk_engine::{EngineStats, VmSwitchStats};
use nk_guest::GuestStats;
use nk_host::faults::FaultStats;
use nk_host::{ControlTelemetry, NetKernelHost};
use nk_netstack::stack::StackStats;
use nk_netstack::TcpStack;
use nk_obs::ObsDump;
use nk_sim::SplitMix64;
use nk_types::addr::{host_prefix, HOST_PREFIX_MASK};
use nk_types::faults::{FaultAction, FaultPlan};
use nk_types::{
    ClusterConfig, ClusterEvent, ControlEvent, HostConfig, HostId, LinkConfig, NkError, NkResult,
    NsmId, SockAddr, SocketId, VmId,
};
use std::collections::BTreeMap;

/// One scripted operator action, fired once virtual time reaches `at_ns`
/// (the placement analogue of a fault-plan entry).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Planned {
    /// Fire once virtual time reaches this. Entries due at the same instant
    /// fire in script order.
    pub at_ns: u64,
    /// What to do.
    pub op: PlannedOp,
}

/// What a [`Planned`] entry does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlannedOp {
    /// Move a VM across hosts, from wherever its home is at that moment (an
    /// entry whose VM already lives on `to` is simply spent). Drained by
    /// default: new connections open on `to` while pinned ones finish on the
    /// source. `warm` transplants the pinned connections instead.
    Move {
        /// The VM to move.
        vm: VmId,
        /// The destination host.
        to: HostId,
        /// Transplant pinned connections instead of draining them.
        warm: bool,
    },
    /// Clear a whole host through the planned, revertible path
    /// ([`Cluster::evacuate_host_with_faults`]) — warm per VM where the
    /// exclusivity guard allows, drained otherwise, the emptied shares
    /// scaled to zero at the plan tail.
    Evacuate {
        /// The host to clear.
        host: HostId,
        /// VM chains started per plan wave (bounded concurrency).
        pace: usize,
        /// A fault fired before one plan step; the plan rolls back when it
        /// makes the step fail.
        fault: Option<EvacFault>,
    },
}

/// Configuration of one scenario run.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// The cluster under test (possibly of one host).
    pub cluster: ClusterConfig,
    /// Seed for the transferred payloads (each tenant derives its own).
    pub seed: u64,
    /// Address of the echo server; where it attaches follows from the
    /// address (see the module docs).
    pub server: SockAddr,
    /// The tenants and their activity windows.
    pub tenants: Vec<BurstyClient>,
    /// Scripted cross-host moves and host evacuations.
    pub script: Vec<Planned>,
    /// Fault plans installed per host before the run starts. Fault events
    /// fire against virtual time as the cluster steps.
    pub fault_plans: Vec<(HostId, FaultPlan)>,
    /// Step budget: the run stops, incomplete, if the tenants have not
    /// finished by then (livelock guard; each step is itself bounded by
    /// [`nk_types::constants::DEFAULT_POLL_ROUNDS`] poll rounds).
    pub max_steps: usize,
    /// Steps to keep running after every tenant finished, so drains
    /// complete and the control planes observe the ramp-down.
    pub drain_steps: usize,
    /// Virtual time per step in nanoseconds.
    pub dt_ns: u64,
}

impl ScenarioConfig {
    /// A scenario over `cluster`. The default server address is outside
    /// every host's block, so all tenant traffic is cross-host by
    /// construction.
    pub fn new(cluster: ClusterConfig) -> Self {
        ScenarioConfig {
            cluster,
            seed: 1,
            server: SockAddr::new(0xC0A8_0001, 7), // 192.168.0.1
            tenants: Vec::new(),
            script: Vec::new(),
            fault_plans: Vec::new(),
            max_steps: 40_000,
            drain_steps: 200,
            dt_ns: 100_000,
        }
    }

    /// A scenario over the one-host cluster of `host` (host id 0 unless the
    /// configuration says otherwise), its echo server at `10.0.5.0` — on
    /// host 0's own switch.
    pub fn single_host(host: HostConfig) -> Self {
        ScenarioConfig {
            server: SockAddr::new(0x0A00_0500, 7),
            ..Self::new(ClusterConfig::new().with_host(host))
        }
    }

    /// Add a tenant (builder style).
    pub fn with_tenant(mut self, tenant: BurstyClient) -> Self {
        self.tenants.push(tenant);
        self
    }

    /// Script a drained cross-host move (builder style).
    pub fn with_migration(self, at_ns: u64, vm: VmId, to: HostId) -> Self {
        let warm = false;
        self.planned(at_ns, PlannedOp::Move { vm, to, warm })
    }

    /// Script a *warm* cross-host move (builder style): pinned connections
    /// move with the VM instead of draining on the source.
    pub fn with_warm_migration(self, at_ns: u64, vm: VmId, to: HostId) -> Self {
        let warm = true;
        self.planned(at_ns, PlannedOp::Move { vm, to, warm })
    }

    /// Script a planned host evacuation (builder style).
    pub fn with_evacuation(self, at_ns: u64, host: HostId, pace: usize) -> Self {
        let fault = None;
        self.planned(at_ns, PlannedOp::Evacuate { host, pace, fault })
    }

    fn planned(mut self, at_ns: u64, op: PlannedOp) -> Self {
        self.script.push(Planned { at_ns, op });
        self
    }

    /// Install a fault plan on one of the hosts before the run starts
    /// (builder style).
    pub fn with_fault_plan(mut self, host: HostId, plan: FaultPlan) -> Self {
        self.fault_plans.push((host, plan));
        self
    }

    /// Set the payload seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// What one host looks like at the end of a run.
#[derive(Clone, Debug, PartialEq)]
pub struct HostReport {
    /// CoreEngine statistics.
    pub engine: EngineStats,
    /// Fault-injection statistics.
    pub faults: FaultStats,
    /// The host's complete control-plane decision log.
    pub control: Vec<ControlEvent>,
    /// Per-epoch control observability: utilisation samples and action
    /// counts as time series (empty without a control plane).
    pub telemetry: ControlTelemetry,
    /// Core allocation of every alive NSM.
    pub nsm_cores: BTreeMap<NsmId, usize>,
    /// Cores allocated to CoreEngine.
    pub engine_cores: usize,
    /// NSM serving the new connections of each VM resident on the host.
    pub mapping: BTreeMap<VmId, NsmId>,
}

impl HostReport {
    /// `host` as it stands; `vms` is every VM that may be resident on it.
    fn of(host: &NetKernelHost, vms: &[VmId]) -> Self {
        let nsms = host.config().nsms.iter();
        HostReport {
            engine: host.engine_stats(),
            faults: host.fault_stats(),
            control: host.control_events().to_vec(),
            telemetry: host.control_telemetry().clone(),
            nsm_cores: nsms
                .filter_map(|n| host.nsm_cores(n.id).map(|c| (n.id, c)))
                .collect(),
            engine_cores: host.engine_cores(),
            mapping: (vms.iter())
                .filter_map(|&vm| host.nsm_of(vm).map(|n| (vm, n)))
                .collect(),
        }
    }
}

/// One tenant's NQE counters at the end of a run, on its final home.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TenantReport {
    /// Guest-side NQE statistics.
    pub guest: GuestStats,
    /// CoreEngine's per-VM switching statistics.
    pub switch: VmSwitchStats,
}

/// Everything a finished scenario reports. Two runs of the same
/// configuration must produce equal reports (the determinism guarantee) —
/// at any thread count.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioReport {
    /// True when every tenant delivered and verified all its bytes.
    pub completed: bool,
    /// Cluster steps executed (the settle is not counted).
    pub steps: u64,
    /// Bytes echoed back and verified, summed over tenants.
    pub bytes_verified: u64,
    /// Socket errors observed across tenants (resets, refused NSMs).
    pub errors_observed: u64,
    /// Reconnects forced by errors (scheduled rotations are not counted).
    pub reconnects: u64,
    /// The complete cluster event log (migrations, drains, retirements).
    pub events: Vec<ClusterEvent>,
    /// Every evacuation plan's event log, in execution order.
    pub plan_events: Vec<PlanEvent>,
    /// FNV-1a digest of the serialized event log.
    pub event_digest: u64,
    /// Host serving each tenant's new connections at the end of the run.
    pub final_homes: BTreeMap<VmId, HostId>,
    /// Cluster scheduler and placement counters.
    pub stats: ClusterStats,
    /// The flight recorder's snapshot at the end of the run: merged event
    /// ring and migration phase timelines ([`nk_obs::FlightRecorder`]).
    pub obs: ObsDump,
    /// Every host at the end of the run.
    pub hosts: BTreeMap<HostId, HostReport>,
    /// Every tenant's NQE counters on its final home.
    pub tenants: BTreeMap<VmId, TenantReport>,
    /// The echo server's stack statistics.
    pub server_stack: StackStats,
}

/// Generate the seeded payload a scenario transfers.
pub fn seeded_payload(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Generate a recoverable random fault schedule from a seed.
///
/// Incidents are drawn from: crash-the-serving-NSM (with an immediate live
/// migration to a standby and a later restart of the crashed one), plain
/// live migration, and link degradation followed by restoration. The
/// generator tracks which NSM serves the VM and spaces incidents so every
/// crashed NSM is restarted before the next incident, keeping the plan valid
/// and the scenario completable. `horizon_ns` bounds when incidents start.
pub fn random_fault_plan(
    seed: u64,
    cfg: &HostConfig,
    vm: VmId,
    horizon_ns: u64,
) -> NkResult<FaultPlan> {
    let nsm_ids: Vec<_> = cfg.nsms.iter().map(|n| n.id).collect();
    if nsm_ids.len() < 2 {
        return Err(NkError::BadConfig);
    }
    let mut rng = SplitMix64::new(seed ^ 0xFA17_FA17);
    let mut current = cfg.nsm_for_vm(vm)?;
    let mut plan = FaultPlan::new();
    let slot = (horizon_ns / 8).max(1);
    let mut t = slot + rng.next_below(slot);
    while t < horizon_ns {
        match rng.next_below(3) {
            0 => {
                // Degrade the serving NSM's link, restore it half a slot on.
                let link = LinkConfig::ideal()
                    .with_loss(rng.next_f64() * 0.02)
                    .with_latency_us(rng.next_below(150))
                    .with_reorder(rng.next_f64() * 0.05);
                plan = plan
                    .at(t, FaultAction::DegradeLink { nsm: current, link })
                    .at(
                        t + slot / 2,
                        FaultAction::DegradeLink {
                            nsm: current,
                            link: LinkConfig::ideal(),
                        },
                    );
            }
            1 => {
                // Crash the serving NSM, migrate the VM to a standby in the
                // same instant, restart the crashed NSM half a slot later —
                // well before the next incident can touch it again.
                let standby = nsm_ids[(nsm_ids.iter().position(|n| *n == current).unwrap()
                    + 1
                    + rng.next_below(nsm_ids.len() as u64 - 1) as usize)
                    % nsm_ids.len()];
                plan = plan
                    .at(t, FaultAction::CrashNsm(current))
                    .at(t, FaultAction::MigrateVm { vm, to: standby })
                    .at(t + slot / 2, FaultAction::RestartNsm(current));
                current = standby;
            }
            _ => {
                // Plain live migration, no failure involved.
                let target = nsm_ids[rng.next_below(nsm_ids.len() as u64) as usize];
                if target != current {
                    plan = plan.at(t, FaultAction::MigrateVm { vm, to: target });
                    current = target;
                }
            }
        }
        t += slot + rng.next_below(slot);
    }
    plan.validate(cfg)?;
    Ok(plan)
}

/// A tenant's transfer plus the host its current socket lives on. During a
/// drain this may lag behind the VM's home: pinned connections finish on the
/// source host.
struct Tenant {
    stream: VerifiedStream,
    host: HostId,
}

/// A runnable scenario (see the module docs).
pub struct Scenario {
    cfg: ScenarioConfig,
}

impl Scenario {
    /// Build a scenario from its configuration.
    pub fn new(cfg: ScenarioConfig) -> Self {
        Scenario { cfg }
    }

    /// Run to completion (or the step budget) and report.
    ///
    /// Panics with a descriptive message when an invariant is violated —
    /// byte corruption, NQE loss, scheduler accounting drift.
    pub fn run(&self) -> NkResult<ScenarioReport> {
        self.run_on().map(|(report, _)| report)
    }

    /// [`Scenario::run`], also handing back the cluster it ran on.
    fn run_on(&self) -> NkResult<(ScenarioReport, Cluster)> {
        let cfg = &self.cfg;
        let mut cluster = Cluster::new(cfg.cluster.clone())?;
        for (host, plan) in &cfg.fault_plans {
            cluster
                .host_mut(*host)
                .ok_or(NkError::NotFound)?
                .install_fault_plan(plan)?;
        }

        // An address inside a host's block is only reachable host-locally.
        let server_ip = cfg.server.ip;
        let server_host = cluster
            .host_ids()
            .into_iter()
            .find(|&id| server_ip & HOST_PREFIX_MASK == host_prefix(id));
        let server = match server_host {
            Some(id) => cluster
                .host_mut(id)
                .expect("listed host exists")
                .add_remote(server_ip),
            None => cluster.add_remote(server_ip),
        };
        let listener = server.socket();
        server.bind(listener, SockAddr::new(0, cfg.server.port))?;
        server.listen(listener, 64)?;
        let mut server_conns: Vec<SocketId> = Vec::new();
        let mut echo_buf = vec![0u8; 16 * 1024];

        let mut tenants: Vec<Tenant> =
            VerifiedStream::for_tenants(&cfg.tenants, cfg.seed, cfg.server)
                .into_iter()
                .map(|stream| Tenant {
                    stream,
                    host: HostId(0), // set whenever a connection opens
                })
                .collect();
        let mut script = cfg.script.clone();
        script.sort_by_key(|p| p.at_ns);
        let mut script = script.into_iter().peekable();

        let mut steps = 0u64;
        let mut drained = 0usize;
        while (steps as usize) < cfg.max_steps {
            if tenants.iter().all(|t| t.stream.done()) {
                if drained >= cfg.drain_steps {
                    break;
                }
                drained += 1;
            }
            let now = cluster.now_ns();
            while let Some(due) = script.next_if(|p| p.at_ns <= now) {
                Self::fire(&mut cluster, due.op)?;
            }
            for t in tenants.iter_mut() {
                if now >= t.stream.spec().start_ns && !t.stream.done() {
                    Self::drive_tenant(&mut cluster, t);
                }
            }
            cluster.step(cfg.dt_ns);
            if let Some(server) = server_stack(&mut cluster, server_host, server_ip) {
                echo_all(server, listener, &mut server_conns, &mut echo_buf);
            }
            steps += 1;
            if steps.is_multiple_of(64) {
                check_sched(&cluster);
            }
        }

        // Settle: close every tenant socket so outstanding drains complete
        // and the switch can be audited at quiescence.
        for t in tenants.iter_mut() {
            if let Some(g) = cluster.guest_on(t.host, t.stream.spec().vm) {
                t.stream.close(g);
            }
        }
        for _ in 0..50 {
            cluster.step(cfg.dt_ns);
        }
        check_sched(&cluster);

        let vms: Vec<VmId> = (cfg.cluster.hosts.iter())
            .flat_map(|h| h.vms.iter().map(|v| v.id))
            .collect();
        let mut hosts = BTreeMap::new();
        let mut tenant_reports = BTreeMap::new();
        for id in cluster.host_ids() {
            for &vm in &vms {
                let Some(guest) = cluster.guest_on(id, vm) else {
                    continue;
                };
                let held = guest.region().capacity() - guest.region().available();
                let guest = guest.stats();
                let host = cluster.host(id).expect("listed host exists");
                let switch = host.vm_switch_stats(vm).expect("resident VM is registered");
                let stalled = host.stalled_nqes_of(vm) as u64;
                check_conservation(id, vm, guest.nqes_sent, switch, stalled);
                let parked = host.parked_responses_of(vm);
                let left = "hugepage bytes held and responses parked after the settle";
                assert_eq!((held, parked), (0, 0), "{id}/{vm}: {left}");
                let is_tenant = tenants.iter().any(|t| t.stream.spec().vm == vm);
                if is_tenant && cluster.home_of(vm) == Some(id) {
                    tenant_reports.insert(vm, TenantReport { guest, switch });
                }
            }
            let host = cluster.host(id).expect("listed host exists");
            hosts.insert(id, HostReport::of(host, &vms));
        }
        let streams = || tenants.iter().map(|t| &t.stream);
        let report = ScenarioReport {
            completed: streams().all(VerifiedStream::done),
            steps,
            bytes_verified: streams().map(VerifiedStream::bytes_verified).sum(),
            errors_observed: streams().map(|s| s.errors_observed).sum(),
            reconnects: streams().map(|s| s.reconnects).sum(),
            events: cluster.events().to_vec(),
            plan_events: cluster.plan_events().to_vec(),
            event_digest: cluster.event_digest(),
            final_homes: streams()
                .map(|s| s.spec().vm)
                .filter_map(|vm| cluster.home_of(vm).map(|h| (vm, h)))
                .collect(),
            stats: cluster.stats(),
            obs: cluster.obs_dump(),
            hosts,
            tenants: tenant_reports,
            server_stack: server_stack(&mut cluster, server_host, server_ip)
                .ok_or(NkError::NotFound)?
                .stats(),
        };
        Ok((report, cluster))
    }

    /// Apply one due script entry.
    fn fire(cluster: &mut Cluster, op: PlannedOp) -> NkResult<()> {
        match op {
            PlannedOp::Move { vm, to, warm } => match cluster.home_of(vm) {
                Some(from) if from != to && warm => cluster.migrate_vm_warm(vm, from, to),
                Some(from) if from != to => cluster.migrate_vm(vm, from, to),
                _ => Ok(()),
            },
            // An evacuation of an already-empty host compiles to a
            // trivially committing plan; a rolled-back one is no error.
            PlannedOp::Evacuate { host, pace, fault } => cluster
                .evacuate_host_with_faults(host, pace, fault.as_slice())
                .map(|_| ()),
        }
    }

    /// One tenant iteration: pick the guest instance the tenant's socket
    /// lives on — its *current home* for a new connection, wherever a warm
    /// migration took the socket for an open one — and hand it to the
    /// shared driver.
    fn drive_tenant(cluster: &mut Cluster, t: &mut Tenant) {
        let vm = t.stream.spec().vm;
        let home = cluster.home_of(vm);
        let Some(sock) = t.stream.socket() else {
            // New connections always open on the home host — this is how a
            // migration takes effect at the next rotation.
            let Some(home) = home else { return };
            t.host = home;
            if let Some(g) = cluster.guest_on(home, vm) {
                t.stream.poll(g);
            }
            return;
        };
        if let Some(g) = cluster.guest_on(t.host, vm) {
            t.stream.poll(g);
            return;
        }
        // The source-side instance is gone. After a *warm* migration the
        // socket reappears — same id, same connection — under the VM's new
        // home: follow it there and keep streaming. Otherwise (defensive; a
        // drained instance only retires unpinned) reopen at the current
        // home.
        match home.filter(|&h| h != t.host) {
            Some(h) if cluster.guest_on(h, vm).is_some_and(|g| g.has_socket(sock)) => t.host = h,
            _ => t.stream.abandon_socket(),
        }
    }
}

/// The echo server's stack, wherever its address put it: on `host`'s switch
/// or at the top-of-rack switch.
fn server_stack(cluster: &mut Cluster, host: Option<HostId>, ip: u32) -> Option<&mut TcpStack> {
    match host {
        Some(id) => cluster.host_mut(id)?.remote_mut(ip),
        None => cluster.remote_mut(ip),
    }
}

/// Scheduler accounting: every cluster step ends in quiescence or at the
/// round bound.
fn check_sched(cluster: &Cluster) {
    let s = cluster.stats();
    assert_eq!(
        s.quiescent_exits + s.round_limit_hits,
        s.steps,
        "cluster steps unaccounted for: {s:?}",
    );
}

/// NQE conservation over one host's CoreEngine at quiescence: everything
/// the resident guest submitted was forwarded, answered with an error, or
/// is still parked for retry. Nothing vanishes, nothing is counted twice.
fn check_conservation(host: HostId, vm: VmId, sent: u64, switch: VmSwitchStats, stalled: u64) {
    assert_eq!(
        sent,
        switch.nqes_forwarded + switch.dropped + stalled,
        "{host}/{vm}: NQEs lost in the switch: sent {sent}, {switch:?}, stalled {stalled}",
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::{self, kernel_host, single_stream, two_nsm_host};
    use nk_obs::MigrationPhase;

    fn run(cfg: ScenarioConfig) -> ScenarioReport {
        let report = Scenario::new(cfg).run().unwrap();
        assert!(report.completed, "{report:?}");
        report
    }

    fn two_hosts(vms_on_2: &[u8]) -> ClusterConfig {
        ClusterConfig::new()
            .with_host(kernel_host(1, &[1]))
            .with_host(kernel_host(2, vms_on_2))
    }

    #[test]
    fn seeded_payload_is_deterministic_and_sized() {
        assert_eq!(seeded_payload(9, 1000), seeded_payload(9, 1000));
        assert_ne!(seeded_payload(9, 1000), seeded_payload(10, 1000));
        assert_eq!(seeded_payload(9, 1000).len(), 1000);
    }

    #[test]
    fn fault_free_single_stream_completes() {
        let report = run(single_stream(two_nsm_host(), 16 * 1024, FaultPlan::new()));
        assert_eq!(report.bytes_verified, 16 * 1024);
        assert_eq!(report.errors_observed, 0);
        assert_eq!(report.reconnects, 0);
        assert!(report.server_stack.bytes_in >= 16 * 1024);
    }

    #[test]
    fn random_plans_are_valid_and_seed_dependent() {
        let cfg = two_nsm_host();
        let a = random_fault_plan(3, &cfg, VmId(1), 10_000_000).unwrap();
        let b = random_fault_plan(3, &cfg, VmId(1), 10_000_000).unwrap();
        let c = random_fault_plan(4, &cfg, VmId(1), 10_000_000).unwrap();
        assert_eq!(a, b, "same seed must give the same plan");
        assert_ne!(a, c, "different seeds should differ");
        assert!(!a.is_empty());
        assert!(a.validate(&cfg).is_ok());
    }

    #[test]
    fn single_nsm_host_cannot_generate_failover_plans() {
        assert_eq!(
            random_fault_plan(1, &kernel_host(0, &[1]), VmId(1), 1_000_000),
            Err(NkError::BadConfig)
        );
    }

    /// `ClusterConfig::shard_within_hosts` has no effect: a host is the one
    /// parallel unit, so a run with the flag set reports the same and
    /// drives the executor the same, down to every `ExecStats` counter.
    #[test]
    fn the_shard_within_hosts_flag_changes_nothing() {
        let run = |flag| {
            let mut cfg = rows::evacuation();
            cfg.cluster = cfg.cluster.with_threads(2).with_shard_within_hosts(flag);
            let (report, cluster) = Scenario::new(cfg).run_on().unwrap();
            (report, cluster.exec_stats().clone())
        };
        let (report, exec) = run(false);
        assert!(report.completed, "{report:?}");
        assert!(exec.threads > 1, "{exec:?}");
        assert_eq!(run(true), (report, exec));
    }

    /// Without a control policy a one-host row is just a multi-tenant
    /// transfer: everything completes, byte-verified, no control events.
    #[test]
    fn multi_tenant_transfer_completes_without_control() {
        let host = kernel_host(0, &[1, 2]);
        let report = run(ScenarioConfig::single_host(host)
            .with_tenant(BurstyClient::new(VmId(1), 0).with_total_bytes(16 * 1024))
            .with_tenant(BurstyClient::new(VmId(2), 1_000_000).with_total_bytes(16 * 1024)));
        assert_eq!(report.bytes_verified, 32 * 1024);
        assert!(report.hosts[&HostId(0)].control.is_empty());
        assert_eq!(report.errors_observed, 0);
    }

    #[test]
    fn clients_idle_before_their_start_time() {
        let late_start = 3_000_000;
        let report = run(ScenarioConfig::single_host(kernel_host(0, &[1]))
            .with_tenant(BurstyClient::new(VmId(1), late_start).with_total_bytes(8 * 1024)));
        // The transfer could not have finished before it started.
        assert!(report.steps > late_start / 100_000);
    }

    /// Where the server attaches follows from its address: inside host 0's
    /// block it sits on that host's switch and nothing crosses the ToR;
    /// outside every block it sits at the ToR and everything does.
    #[test]
    fn the_server_attaches_where_its_address_says() {
        let tenant = BurstyClient::new(VmId(1), 0).with_total_bytes(8 * 1024);
        let local = ScenarioConfig::single_host(kernel_host(0, &[1])).with_tenant(tenant);
        let at_tor = ScenarioConfig {
            server: ScenarioConfig::new(ClusterConfig::new()).server,
            ..local.clone()
        };
        assert_eq!(run(local).stats.barrier_frames, 0);
        assert!(run(at_tor).stats.barrier_frames > 0);
    }

    #[test]
    fn cross_host_transfer_completes_without_migrations() {
        let report = run(ScenarioConfig::new(two_hosts(&[2]))
            .with_tenant(BurstyClient::new(VmId(1), 0).with_total_bytes(16 * 1024))
            .with_tenant(BurstyClient::new(VmId(2), 0).with_total_bytes(16 * 1024)));
        assert_eq!(report.bytes_verified, 32 * 1024);
        assert_eq!(report.errors_observed, 0);
        assert!(report.events.is_empty());
        assert_eq!(report.final_homes[&VmId(1)], HostId(1));
        assert_eq!(report.final_homes[&VmId(2)], HostId(2));
    }

    /// A long-lived connection (no rotation points) crosses a warm
    /// migration mid-stream: no reconnect, no errors, every byte verified.
    #[test]
    fn warm_migration_carries_a_long_lived_connection() {
        let tenant = BurstyClient::new(VmId(1), 0)
            .with_total_bytes(32 * 1024)
            .long_lived();
        let report = run(ScenarioConfig::new(two_hosts(&[]))
            .with_tenant(tenant)
            .with_warm_migration(1_000_000, VmId(1), HostId(2)));
        assert_eq!(report.bytes_verified, 32 * 1024);
        assert_eq!(report.errors_observed, 0);
        assert_eq!(report.reconnects, 0, "warm handover must be seamless");
        assert_eq!(report.stats.warm_migrations, 1);
        assert_eq!(report.stats.drains_completed, 0);
        assert_eq!(report.final_homes[&VmId(1)], HostId(2));
        assert_eq!(report.hosts[&HostId(1)].nsm_cores[&NsmId(1)], 0);
        // The flight recorder saw the whole warm chain for the VM, in
        // phase order, every window closed successfully.
        let phases: Vec<_> = (report.obs.phases.iter())
            .filter(|w| w.vm == Some(VmId(1)))
            .collect();
        assert_eq!(
            phases.iter().map(|w| w.phase).collect::<Vec<_>>(),
            vec![
                MigrationPhase::Freeze,
                MigrationPhase::Export,
                MigrationPhase::Reroute,
                MigrationPhase::Install,
                MigrationPhase::Thaw,
            ],
            "{:?}",
            report.obs.phases
        );
        assert!(phases.iter().all(|w| w.ok));
    }

    /// A scripted host evacuation clears the host mid-stream through the
    /// plan/apply machinery: both long-lived connections ride their warm
    /// moves without reconnecting, the emptied shares are scaled to zero,
    /// and the plan event log lands in the report.
    #[test]
    fn scripted_evacuation_clears_the_host_without_reconnects() {
        use nk_ctrl::PlanEventKind;
        let report = run(rows::evacuation());
        assert_eq!(report.bytes_verified, 2 * 96 * 1024);
        assert_eq!(report.errors_observed, 0);
        assert_eq!(report.reconnects, 0, "warm evacuation must be seamless");
        assert_eq!(report.stats.evac_plans, 1);
        assert_eq!(report.stats.evac_commits, 1);
        assert_eq!(report.stats.warm_migrations, 2);
        assert!(report.final_homes.values().all(|&h| h != HostId(1)));
        assert!(report.hosts[&HostId(1)].nsm_cores.values().all(|&c| c == 0));
        assert!(
            matches!(
                report.plan_events.last().map(|e| e.kind),
                Some(PlanEventKind::PlanCommitted { .. })
            ),
            "{:?}",
            report.plan_events
        );
    }

    #[test]
    fn scripted_migration_is_spent_even_when_vm_is_already_there() {
        let report = run(ScenarioConfig::new(two_hosts(&[]))
            .with_tenant(BurstyClient::new(VmId(1), 0).with_total_bytes(8 * 1024))
            .with_migration(0, VmId(1), HostId(1))); // no-op: already home
        assert!(report.events.is_empty(), "{:?}", report.events);
    }

    /// Conformance: the socket-call sequence of the traffic driver and the
    /// runner's host-follow, pinned per row as the tuple a drift would
    /// change — (steps, bytes verified, reconnects, control events,
    /// cluster event digest). Values recorded at the commit before the
    /// traffic drivers were unified, through the runner each row then had;
    /// the mixed row's digest re-recorded when ACKs became delayed (its warm
    /// freeze waits on the peer's delayed ACK of the last segment), and
    /// again when the always-zero `epoch` key left the event JSON (the log
    /// with `"epoch":0` put back after `at_ns` hashes to the old value).
    #[test]
    fn rows_match_their_recorded_runs() {
        const NO_EVENTS: u64 = 0xcbf2_9ce4_8422_2325; // digest of an empty log
        let faulted = {
            let host = two_nsm_host();
            let plan = random_fault_plan(7, &host, VmId(1), 6_000_000).unwrap();
            single_stream(host, 64 * 1024, plan).with_seed(7)
        };
        // A rotating tenant drained across hosts and a long-lived one moved
        // warm: a missed host-follow would change the digest.
        let mixed = {
            let cluster = two_hosts(&[2])
                .with_host(kernel_host(3, &[]))
                .with_uplink_latency_us(2);
            let long_lived = BurstyClient::new(VmId(2), 500_000)
                .with_total_bytes(64 * 1024)
                .long_lived();
            ScenarioConfig::new(cluster)
                .with_seed(11)
                .with_tenant(BurstyClient::new(VmId(1), 0).with_total_bytes(96 * 1024))
                .with_tenant(long_lived)
                .with_migration(2_000_000, VmId(1), HostId(3))
                .with_warm_migration(3_000_000, VmId(2), HostId(3))
        };
        let table = [
            ("faulted", faulted, (106, 65536, 4, 0, NO_EVENTS)),
            (
                "controlled ramp",
                rows::control_ramp(),
                (376, 294912, 0, 9, NO_EVENTS),
            ),
            (
                "mixed migrations",
                mixed,
                (476, 163840, 0, 0, 14584629691514793543),
            ),
        ];
        for (name, cfg, recorded) in table {
            let report = run(cfg);
            let control: usize = report.hosts.values().map(|h| h.control.len()).sum();
            assert_eq!(
                (
                    report.steps,
                    report.bytes_verified,
                    report.reconnects,
                    control,
                    report.event_digest
                ),
                recorded,
                "{name}"
            );
        }
    }

    /// "A host in a cluster" and "a host on its own" are the same machine:
    /// the failover row's host and fault plan driven directly through
    /// `NetKernelHost::step` — the loop nkbench's single-host workloads and
    /// every pre-cluster runner used, kept here as the reference — count
    /// exactly what the one-host `Scenario` counts.
    #[test]
    fn a_one_host_row_equals_the_bare_host_step() {
        let cfg = rows::failover();
        let report = run(cfg.clone());

        let mut host = NetKernelHost::new(cfg.cluster.hosts[0].clone()).unwrap();
        host.install_fault_plan(&cfg.fault_plans[0].1).unwrap();
        let remote = host.add_remote(cfg.server.ip);
        let listener = remote.socket();
        remote
            .bind(listener, SockAddr::new(0, cfg.server.port))
            .unwrap();
        remote.listen(listener, 64).unwrap();
        let (mut conns, mut buf) = (Vec::new(), vec![0u8; 16 * 1024]);
        let mut stream = VerifiedStream::for_tenants(&cfg.tenants, cfg.seed, cfg.server)
            .pop()
            .unwrap();
        let mut steps = 0;
        while !stream.done() {
            stream.poll(host.guest_mut(VmId(1)).unwrap());
            host.step(cfg.dt_ns);
            echo_all(
                host.remote_mut(cfg.server.ip).unwrap(),
                listener,
                &mut conns,
                &mut buf,
            );
            steps += 1;
        }
        stream.close(host.guest_mut(VmId(1)).unwrap());
        host.run(50, cfg.dt_ns);

        let in_cluster = &report.hosts[&HostId(0)];
        assert_eq!(steps, report.steps);
        assert_eq!(stream.bytes_verified(), report.bytes_verified);
        assert_eq!(
            (stream.errors_observed, stream.reconnects),
            (report.errors_observed, report.reconnects)
        );
        assert_eq!(host.engine_stats(), in_cluster.engine);
        assert_eq!(host.fault_stats(), in_cluster.faults);
        assert_eq!(host.control_events(), in_cluster.control);
        let tenant = report.tenants[&VmId(1)];
        assert_eq!(host.vm_switch_stats(VmId(1)), Some(tenant.switch));
        assert_eq!(host.guest_mut(VmId(1)).unwrap().stats(), tenant.guest);
        let server = host.remote_mut(cfg.server.ip).unwrap().stats();
        assert_eq!(server, report.server_stack);
        // The bare step is what tallies `SchedStats`; the cluster carries
        // the same counters itself.
        let sched = host.sched_stats();
        assert_eq!(
            (sched.steps, sched.rounds, sched.quiescent_exits),
            (
                report.stats.steps,
                report.stats.rounds,
                report.stats.quiescent_exits
            )
        );
    }

    /// The conservation check bites: a VM whose forwarded + dropped +
    /// stalled is one short of what its guest submitted fails the run.
    #[test]
    #[should_panic(expected = "NQEs lost")]
    fn one_lost_nqe_fails_the_conservation_check() {
        let switch = VmSwitchStats {
            nqes_forwarded: 40,
            dropped: 1,
            ..VmSwitchStats::default()
        };
        check_conservation(HostId(1), VmId(1), 40 + 1 + 2 + 1, switch, 2);
    }
}
