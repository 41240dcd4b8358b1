//! Cross-host cluster scenario: tenants spanning hosts, drained migrations.
//!
//! Where [`crate::bursty`] drives one host's control plane, this runner
//! drives a whole [`Cluster`]: tenant VMs on *different hosts* stream
//! seeded, byte-verified payloads to an echo server attached at the
//! top-of-rack switch, so every byte crosses host switch → uplink → ToR and
//! back. Tenants reopen their connection every few chunks (short-connection
//! behaviour), which is what makes a *drained* cross-host migration
//! observable end to end: after [`Cluster::migrate_vm`] the next connection
//! opens through the destination host's NSM while the current one keeps
//! streaming on the source host until its rotation point — at which moment
//! the source share empties, the drain completes, and the source NSM scales
//! to zero, all without a single byte lost or corrupted.
//!
//! Migrations come from two places, freely mixed: a scripted plan (fire at
//! a virtual time, like a fault plan) and the cluster's own placement loop
//! when a [`nk_types::ClusterPolicy`] is installed. Scripted entries may be
//! *warm* ([`ClusterScenarioConfig::with_warm_migration`]): the pinned
//! connection is transplanted mid-stream — the tenant's socket reappears on
//! the destination host under the same id and the byte stream continues
//! without a reconnect, which is what lets a
//! [`ClusterTenant::long_lived`] transfer (no rotation points, so a drained
//! migration would stall until the very end) migrate mid-flight. The report
//! carries the full [`ClusterEvent`] log plus its digest, so tests and the
//! CI determinism job can assert byte-identical replays.

use nk_cluster::{Cluster, ClusterStats};
use nk_ctrl::PlanEvent;
use nk_obs::ObsDump;
use nk_types::{
    ClusterConfig, ClusterEvent, FaultPlan, HostId, NkError, NkResult, NsmId, SockAddr, SocketId,
    VmId,
};
use std::collections::BTreeMap;

use crate::apps::{echo_all, BurstyClient, VerifiedStream};

/// One tenant's offered load: the same spec the bursty runner takes (the
/// tenant's home host comes from the cluster configuration).
pub type ClusterTenant = BurstyClient;

/// A migration scripted against virtual time (the placement analogue of a
/// fault-plan entry).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannedMigration {
    /// Fire once virtual time reaches this.
    pub at_ns: u64,
    /// The VM to move (from wherever its home is at that moment).
    pub vm: VmId,
    /// The destination host.
    pub to: HostId,
    /// Warm mode: transplant pinned connections instead of draining them.
    pub warm: bool,
}

/// A host evacuation scripted against virtual time: once reached, the
/// whole host is cleared through the plan/apply machinery
/// ([`Cluster::evacuate_host`]) — warm per VM where the exclusivity guard
/// allows, drained otherwise, with the emptied shares scaled to zero at the
/// plan tail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannedEvacuation {
    /// Fire once virtual time reaches this.
    pub at_ns: u64,
    /// The host to clear.
    pub host: HostId,
    /// VM chains started per plan wave (bounded concurrency).
    pub pace: usize,
}

/// Configuration of one cluster scenario run.
#[derive(Clone, Debug)]
pub struct ClusterScenarioConfig {
    /// The cluster under test.
    pub cluster: ClusterConfig,
    /// Seed for the transferred payloads (each tenant derives its own).
    pub seed: u64,
    /// Address of the echo server attached at the top-of-rack switch.
    pub server_ip: u32,
    /// Port of the echo server.
    pub server_port: u16,
    /// The tenants and their activity windows.
    pub tenants: Vec<ClusterTenant>,
    /// Scripted cross-host migrations.
    pub migrations: Vec<PlannedMigration>,
    /// Scripted host evacuations.
    pub evacuations: Vec<PlannedEvacuation>,
    /// Fault plans installed per host before the run starts (the cluster
    /// analogue of [`crate::scenario::ScenarioConfig::with_faults`]).
    pub fault_plans: Vec<(HostId, FaultPlan)>,
    /// Step budget (livelock guard).
    pub max_steps: usize,
    /// Steps to keep running after every tenant finished, so drains
    /// complete and the placement loop observes the ramp-down.
    pub drain_steps: usize,
    /// Virtual time per step in nanoseconds.
    pub dt_ns: u64,
}

impl ClusterScenarioConfig {
    /// A scenario over `cluster` with pacing matching the other runners.
    /// The default server address is outside every host's block, so all
    /// tenant traffic is cross-host by construction.
    pub fn new(cluster: ClusterConfig) -> Self {
        ClusterScenarioConfig {
            cluster,
            seed: 1,
            server_ip: 0xC0A8_0001, // 192.168.0.1
            server_port: 7,
            tenants: Vec::new(),
            migrations: Vec::new(),
            evacuations: Vec::new(),
            fault_plans: Vec::new(),
            max_steps: 40_000,
            drain_steps: 200,
            dt_ns: 100_000,
        }
    }

    /// Add a tenant (builder style).
    pub fn with_tenant(mut self, tenant: ClusterTenant) -> Self {
        self.tenants.push(tenant);
        self
    }

    /// Script a drained migration (builder style).
    pub fn with_migration(mut self, at_ns: u64, vm: VmId, to: HostId) -> Self {
        self.migrations.push(PlannedMigration {
            at_ns,
            vm,
            to,
            warm: false,
        });
        self
    }

    /// Script a *warm* migration (builder style): pinned connections move
    /// with the VM instead of draining on the source.
    pub fn with_warm_migration(mut self, at_ns: u64, vm: VmId, to: HostId) -> Self {
        self.migrations.push(PlannedMigration {
            at_ns,
            vm,
            to,
            warm: true,
        });
        self
    }

    /// Script a planned host evacuation (builder style).
    pub fn with_evacuation(mut self, at_ns: u64, host: HostId, pace: usize) -> Self {
        self.evacuations
            .push(PlannedEvacuation { at_ns, host, pace });
        self
    }

    /// Install a fault plan on one of the cluster's hosts before the run
    /// starts (builder style). Fault events fire against virtual time as
    /// the cluster steps, exactly as on a standalone host.
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

/// Everything a finished cluster run reports. Two runs of the same
/// configuration must produce equal reports (the determinism guarantee the
/// CI digest job replays).
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterScenarioReport {
    /// True when every tenant delivered and verified all its bytes.
    pub completed: bool,
    /// Cluster steps executed.
    pub steps: u64,
    /// Bytes echoed back and verified, summed over tenants.
    pub bytes_verified: u64,
    /// Socket errors observed across tenants.
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
    /// Core allocation of every alive NSM at the end of the run.
    pub final_nsm_cores: BTreeMap<(HostId, NsmId), usize>,
    /// Cluster scheduler and placement counters.
    pub stats: ClusterStats,
    /// The flight recorder's snapshot at the end of the run: merged event
    /// ring, per-epoch latency quantiles, migration phase timelines, and
    /// the hot-flow table ([`nk_obs::FlightRecorder`]).
    pub obs: ObsDump,
}

/// A tenant's transfer plus the host its current socket lives on. During a
/// drain this may lag behind the VM's home: pinned connections finish on the
/// source host.
struct Tenant {
    stream: VerifiedStream,
    host: HostId,
}

/// A runnable cluster scenario (see the module docs).
pub struct ClusterScenario {
    cfg: ClusterScenarioConfig,
}

impl ClusterScenario {
    /// Build a scenario from its configuration.
    pub fn new(cfg: ClusterScenarioConfig) -> Self {
        ClusterScenario { cfg }
    }

    /// Run to completion (or the step budget) and report.
    ///
    /// Panics with a descriptive message when an invariant is violated —
    /// byte corruption or cluster scheduler accounting drift.
    pub fn run(&self) -> NkResult<ClusterScenarioReport> {
        let cfg = &self.cfg;
        let mut cluster = Cluster::new(cfg.cluster.clone())?;
        for (host, plan) in &cfg.fault_plans {
            cluster
                .host_mut(*host)
                .ok_or(NkError::NotFound)?
                .install_fault_plan(plan)?;
        }

        let server = cluster.add_remote(cfg.server_ip);
        let listener = server.socket();
        server.bind(listener, SockAddr::new(0, cfg.server_port))?;
        server.listen(listener, 64)?;
        let mut server_conns: Vec<SocketId> = Vec::new();
        let mut echo_buf = vec![0u8; 16 * 1024];

        let target = SockAddr::new(cfg.server_ip, cfg.server_port);
        let mut tenants: Vec<Tenant> = VerifiedStream::for_tenants(&cfg.tenants, cfg.seed, target)
            .into_iter()
            .map(|stream| Tenant {
                stream,
                host: HostId(0), // set whenever a connection opens
            })
            .collect();
        let mut pending_migrations = cfg.migrations.clone();
        pending_migrations.sort_by_key(|m| (m.at_ns, m.vm));
        let mut pending_evacuations = cfg.evacuations.clone();
        pending_evacuations.sort_by_key(|e| (e.at_ns, e.host));

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
            // Scripted migrations fire once their time has come; a plan
            // entry whose VM already lives on the target is simply spent.
            while pending_migrations.first().is_some_and(|m| m.at_ns <= now) {
                let m = pending_migrations.remove(0);
                if let Some(from) = cluster.home_of(m.vm) {
                    if from != m.to {
                        if m.warm {
                            cluster.migrate_vm_warm(m.vm, from, m.to)?;
                        } else {
                            cluster.migrate_vm(m.vm, from, m.to)?;
                        }
                    }
                }
            }
            // Scripted evacuations clear whole hosts through the planned,
            // revertible path; an evacuation of an already-empty host
            // compiles to a trivially committing plan.
            while pending_evacuations.first().is_some_and(|e| e.at_ns <= now) {
                let e = pending_evacuations.remove(0);
                cluster.evacuate_host(e.host, e.pace)?;
            }
            for t in tenants.iter_mut() {
                if now >= t.stream.spec().start_ns && !t.stream.done() {
                    Self::drive_tenant(&mut cluster, t);
                }
            }
            cluster.step(cfg.dt_ns);
            if let Some(server) = cluster.remote_mut(cfg.server_ip) {
                echo_all(server, listener, &mut server_conns, &mut echo_buf);
            }
            steps += 1;
            if steps.is_multiple_of(64) {
                Self::check_sched(&cluster);
            }
        }
        let completed = tenants.iter().all(|t| t.stream.done());

        // Settle: close every tenant socket so outstanding drains complete.
        for t in tenants.iter_mut() {
            if let Some(g) = cluster.guest_on(t.host, t.stream.spec().vm) {
                t.stream.close(g);
            }
        }
        for _ in 0..50 {
            cluster.step(cfg.dt_ns);
        }
        Self::check_sched(&cluster);

        let final_homes = tenants
            .iter()
            .map(|t| t.stream.spec().vm)
            .filter_map(|vm| cluster.home_of(vm).map(|h| (vm, h)))
            .collect();
        let mut final_nsm_cores = BTreeMap::new();
        for host_id in cluster.host_ids() {
            let host = cluster.host(host_id).expect("listed host exists");
            for nsm in host.config().nsms.clone() {
                if let Some(cores) = host.nsm_cores(nsm.id) {
                    final_nsm_cores.insert((host_id, nsm.id), cores);
                }
            }
        }
        Ok(ClusterScenarioReport {
            completed,
            steps,
            bytes_verified: tenants.iter().map(|t| t.stream.bytes_verified()).sum(),
            errors_observed: tenants.iter().map(|t| t.stream.errors_observed).sum(),
            reconnects: tenants.iter().map(|t| t.stream.reconnects).sum(),
            events: cluster.events().to_vec(),
            plan_events: cluster.plan_events().to_vec(),
            event_digest: cluster.event_digest(),
            final_homes,
            final_nsm_cores,
            stats: cluster.stats(),
            obs: cluster.obs_dump(),
        })
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

    /// Cluster scheduler accounting: every step ends in quiescence or at
    /// the round bound.
    fn check_sched(cluster: &Cluster) {
        let s = cluster.stats();
        assert_eq!(
            s.quiescent_exits + s.round_limit_hits,
            s.steps,
            "cluster steps unaccounted for: {s:?}",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nk_obs::MigrationPhase;
    use nk_types::{HostConfig, NsmConfig, VmConfig, VmToNsmPolicy};

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

    #[test]
    fn cross_host_transfer_completes_without_migrations() {
        let cluster = ClusterConfig::new()
            .with_host(host(1, &[1]))
            .with_host(host(2, &[2]));
        let report = ClusterScenario::new(
            ClusterScenarioConfig::new(cluster)
                .with_tenant(ClusterTenant::new(VmId(1), 0).with_total_bytes(16 * 1024))
                .with_tenant(ClusterTenant::new(VmId(2), 0).with_total_bytes(16 * 1024)),
        )
        .run()
        .unwrap();
        assert!(report.completed, "{report:?}");
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
        let cluster = ClusterConfig::new()
            .with_host(host(1, &[1]))
            .with_host(host(2, &[]));
        let report = ClusterScenario::new(
            ClusterScenarioConfig::new(cluster)
                .with_tenant(
                    ClusterTenant::new(VmId(1), 0)
                        .with_total_bytes(32 * 1024)
                        .long_lived(),
                )
                .with_warm_migration(1_000_000, VmId(1), HostId(2)),
        )
        .run()
        .unwrap();
        assert!(report.completed, "{report:?}");
        assert_eq!(report.bytes_verified, 32 * 1024);
        assert_eq!(report.errors_observed, 0);
        assert_eq!(report.reconnects, 0, "warm handover must be seamless");
        assert_eq!(report.stats.warm_migrations, 1);
        assert_eq!(report.stats.drains_completed, 0);
        assert_eq!(report.final_homes[&VmId(1)], HostId(2));
        assert_eq!(report.final_nsm_cores[&(HostId(1), NsmId(1))], 0);
        // The flight recorder saw the whole warm chain for the VM, in
        // phase order, every window closed successfully.
        let phases: Vec<_> = report
            .obs
            .phases
            .iter()
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
        assert!(
            !report.obs.epochs.is_empty(),
            "a multi-ms run must seal latency epochs"
        );
        assert!(
            !report.obs.flows.is_empty(),
            "cross-host echo traffic must populate the hot-flow table"
        );
    }

    /// A scripted host evacuation clears the host mid-stream through the
    /// plan/apply machinery: the long-lived tenant's connection rides the
    /// warm move without reconnecting, the emptied share is scaled to
    /// zero, and the plan event log lands in the report.
    #[test]
    fn scripted_evacuation_clears_the_host_without_reconnects() {
        use nk_ctrl::PlanEventKind;
        let cluster = ClusterConfig::new()
            .with_host(host(1, &[1]))
            .with_host(host(2, &[]));
        let report = ClusterScenario::new(
            ClusterScenarioConfig::new(cluster)
                .with_tenant(
                    ClusterTenant::new(VmId(1), 0)
                        .with_total_bytes(32 * 1024)
                        .long_lived(),
                )
                .with_evacuation(1_000_000, HostId(1), 2),
        )
        .run()
        .unwrap();
        assert!(report.completed, "{report:?}");
        assert_eq!(report.bytes_verified, 32 * 1024);
        assert_eq!(report.errors_observed, 0);
        assert_eq!(report.reconnects, 0, "warm evacuation must be seamless");
        assert_eq!(report.stats.evac_plans, 1);
        assert_eq!(report.stats.evac_commits, 1);
        assert_eq!(report.stats.warm_migrations, 1);
        assert_eq!(report.final_homes[&VmId(1)], HostId(2));
        assert_eq!(report.final_nsm_cores[&(HostId(1), NsmId(1))], 0);
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
        let cluster = ClusterConfig::new()
            .with_host(host(1, &[1]))
            .with_host(host(2, &[]));
        let report = ClusterScenario::new(
            ClusterScenarioConfig::new(cluster)
                .with_tenant(ClusterTenant::new(VmId(1), 0).with_total_bytes(8 * 1024))
                .with_migration(0, VmId(1), HostId(1)), // no-op: already home
        )
        .run()
        .unwrap();
        assert!(report.completed);
        assert!(report.events.is_empty(), "{:?}", report.events);
    }

    /// Conformance: a rotating tenant drained across hosts and a long-lived
    /// one moved warm, pinned as the tuple a drifted socket-call sequence
    /// (or a missed host-follow) would change. Values recorded at the
    /// commit before the traffic drivers were unified.
    #[test]
    fn mixed_migrations_match_their_recorded_run() {
        let cluster = ClusterConfig::new()
            .with_host(host(1, &[1]))
            .with_host(host(2, &[2]))
            .with_host(host(3, &[]))
            .with_uplink_latency_us(2);
        let report = ClusterScenario::new(
            ClusterScenarioConfig::new(cluster)
                .with_seed(11)
                .with_tenant(ClusterTenant::new(VmId(1), 0).with_total_bytes(96 * 1024))
                .with_tenant(
                    ClusterTenant::new(VmId(2), 500_000)
                        .with_total_bytes(64 * 1024)
                        .long_lived(),
                )
                .with_migration(2_000_000, VmId(1), HostId(3))
                .with_warm_migration(3_000_000, VmId(2), HostId(3)),
        )
        .run()
        .unwrap();
        assert!(report.completed, "{report:?}");
        assert_eq!(
            report.stats.warm_migrations, 1,
            "the socket must be followed"
        );
        assert_eq!(
            (
                report.steps,
                report.bytes_verified,
                report.reconnects,
                report.event_digest
            ),
            (476, 163840, 0, 17655531815372185629)
        );
    }
}
