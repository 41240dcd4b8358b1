//! The determinism matrix: every scenario must be byte-identical in every
//! executor mode.
//!
//! The sharded executor's whole contract is that parallelism is invisible:
//! the event-log digest, the cluster stats (including the per-phase work
//! counters), every host's control log, the flight recorder's dump and every
//! tenant's byte stream must not change when the datapath runs on 1, 2 or 4
//! threads. The scripted rows go through `rows::assert_mode_invariant`,
//! which replays a `ScenarioConfig` across that matrix and diffs the
//! complete reports; the two runs that drive `evacuate_host_with_faults` by
//! hand (a mid-plan host kill, a refused action) keep their own reports.
//!
//! (`NK_CLUSTER_THREADS` deliberately overrides the configured value, so a
//! CI job can run this whole suite under a forced thread count; equality
//! still holds because every run then uses the same override.)

use nk_cluster::{Cluster, ClusterStats, EvacFault, EvacFaultKind};
use nk_ctrl::{EvacAction, PlanEvent};
use nk_types::{
    ClusterConfig, ControlEvent, ControlPolicy, FaultAction, FaultPlan, HostConfig, HostId,
    LinkFault, NsmConfig, NsmId, SockAddr, SocketApi, VmConfig, VmId, VmToNsmPolicy,
};
use nk_workload::rows::{self, assert_mode_invariant, kernel_host as host};
use nk_workload::{BurstyClient, Scenario, ScenarioConfig};

const SERVER_IP: u32 = 0xC0A8_0001; // 192.168.0.1, outside every host block
const THREAD_MATRIX: [usize; 3] = [1, 2, 4];

/// Every host's own control log, in `HostId` order.
fn control_logs(cluster: &Cluster) -> Vec<(HostId, Vec<ControlEvent>)> {
    let log = |id| (id, cluster.host(id).unwrap().control_events().to_vec());
    cluster.host_ids().into_iter().map(log).collect()
}

/// A fault-injected multi-tenant row: three controlled hosts stream to the
/// ToR server while host 1 crashes an NSM mid-flight (remapping its VM to a
/// spare), restarts it, then degrades the spare's vNIC link — plus a
/// drained move so the cluster event log is non-trivial. Tenant reconnects
/// on reset are part of the observed behavior.
fn faulted_cluster() -> ScenarioConfig {
    let policy = ControlPolicy::new()
        .with_epoch_ns(500_000)
        .with_window(2)
        .with_watermarks(0.10, 0.60)
        .with_core_bounds(1, 2)
        .with_cooldown(1)
        .with_pool_clock_hz(1_000_000);
    let mut cluster = ClusterConfig::new().with_uplink_latency_us(2);
    for id in 1u8..=3 {
        cluster = cluster.with_host(
            host(id, &[id])
                .with_nsm(NsmConfig::kernel(NsmId(2)))
                .with_control(policy.clone()),
        );
    }
    let plan = FaultPlan::new()
        .at(800_000, FaultAction::CrashNsm(NsmId(1)))
        .at(
            800_000,
            FaultAction::MigrateVm {
                vm: VmId(1),
                to: NsmId(2),
            },
        )
        .at(1_600_000, FaultAction::RestartNsm(NsmId(1)))
        .at(
            2_400_000,
            FaultAction::DegradeLink {
                nsm: NsmId(2),
                link: LinkFault::healthy().with_latency_us(50),
            },
        );
    let mut cfg = ScenarioConfig::new(cluster)
        .with_fault_plan(HostId(1), plan)
        .with_migration(2_000_000, VmId(2), HostId(3));
    for vm in 1u8..=3 {
        cfg = cfg.with_tenant(BurstyClient::new(VmId(vm), 0).with_total_bytes(32 * 1024));
    }
    cfg
}

/// A wide fabric: hosts `1..=hosts`, each with one kernel NSM and VM `h`,
/// every VM streaming to the default ToR server, so every byte crosses a
/// trunk and the hub.
fn wide_fabric(hosts: u8) -> ScenarioConfig {
    let mut cluster = ClusterConfig::new().with_uplink_latency_us(2);
    for h in 1..=hosts {
        cluster = cluster.with_host(host(h, &[h]));
    }
    let mut cfg = ScenarioConfig::new(cluster);
    for vm in 1..=hosts {
        cfg = cfg.with_tenant(BurstyClient::new(VmId(vm), 0));
    }
    cfg
}

/// Everything observable from the evacuation run, for whole-value
/// comparison: the event digest, the stats, the full plan event log, every
/// host's control log, the final placement and every echoed byte stream.
#[derive(Debug, PartialEq)]
struct EvacRunReport {
    digest: u64,
    stats: ClusterStats,
    plan_events: Vec<PlanEvent>,
    control: Vec<(HostId, Vec<ControlEvent>)>,
    homes: Vec<(VmId, HostId)>,
    streams: Vec<Vec<u8>>,
}

/// A fault-injected evacuation: host 1 holds two warm-eligible VMs with
/// pinned connections; the first evacuation attempt loses destination
/// host 3 right before its install (killed mid-plan) and must roll back
/// completely, then a retry packs both VMs onto the surviving host 2 and
/// commits. Both the rollback and the commit are part of the replayed,
/// thread-invariant history.
fn evacuation_run(threads: usize) -> EvacRunReport {
    let cfg = ClusterConfig::new()
        .with_uplink_latency_us(2)
        .with_threads(threads)
        .with_host(
            HostConfig::new()
                .with_host_id(HostId(1))
                .with_nsm(NsmConfig::kernel(NsmId(1)))
                .with_nsm(NsmConfig::kernel(NsmId(2)))
                .with_mapping(VmToNsmPolicy::Static(vec![
                    (VmId(1), NsmId(1)),
                    (VmId(2), NsmId(2)),
                ]))
                .with_vm(VmConfig::new(VmId(1)))
                .with_vm(VmConfig::new(VmId(2))),
        )
        .with_host(host(2, &[]))
        .with_host(host(3, &[]));
    let mut cluster = Cluster::new(cfg).expect("valid evacuation cluster");
    let server = cluster.add_remote(SERVER_IP);
    let ls = server.socket();
    server.bind(ls, SockAddr::new(0, 7)).unwrap();
    server.listen(ls, 16).unwrap();
    let mut socks = Vec::new();
    for vm in [VmId(1), VmId(2)] {
        let guest = cluster.guest_on(HostId(1), vm).unwrap();
        let s = guest.socket().unwrap();
        guest.connect(s, SockAddr::new(SERVER_IP, 7)).unwrap();
        socks.push((vm, s));
    }
    cluster.run(20, 100_000);
    for &(vm, s) in &socks {
        let guest = cluster.guest_on(HostId(1), vm).unwrap();
        guest.send(s, b"pinned").unwrap();
    }
    cluster.run(10, 100_000);

    // Kill the second destination right before its install step: the
    // whole plan reverts and both VMs stay home on host 1.
    let probe = cluster
        .plan_evacuation(HostId(1), 2)
        .expect("plan compiles");
    let install = probe
        .steps
        .iter()
        .find(|s| matches!(s.action, EvacAction::Install { to: HostId(3), .. }))
        .expect("the plan installs a VM on host 3")
        .id;
    let rolled_back = cluster
        .evacuate_host_with_faults(
            HostId(1),
            2,
            &[EvacFault {
                before_step: install,
                kind: EvacFaultKind::KillHost(HostId(3)),
            }],
        )
        .expect("faulted evacuation reports instead of erroring");
    assert!(!rolled_back.committed, "{rolled_back:?}");

    // With host 3 gone the retry packs everything onto host 2 and commits;
    // the pinned connections ride along.
    let retried = cluster.evacuate_host(HostId(1), 2).expect("retry runs");
    assert!(retried.committed, "{retried:?}");
    for &(vm, s) in &socks {
        let guest = cluster.guest_on(HostId(2), vm).unwrap();
        guest.send(s, b"after").unwrap();
    }
    cluster.run(20, 100_000);

    let server = cluster.remote_mut(SERVER_IP).unwrap();
    let mut streams = Vec::new();
    while let Ok((conn, _)) = server.accept(ls) {
        let mut got = Vec::new();
        let mut buf = [0u8; 64];
        while let Ok(n) = server.recv(conn, &mut buf) {
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        streams.push(got);
    }
    let homes = [VmId(1), VmId(2)]
        .iter()
        .map(|&vm| (vm, cluster.home_of(vm).expect("evacuated VM has a home")))
        .collect();
    EvacRunReport {
        digest: cluster.event_digest(),
        stats: cluster.stats(),
        plan_events: cluster.plan_events().to_vec(),
        control: control_logs(&cluster),
        homes,
        streams,
    }
}

#[test]
fn drained_move_is_identical_in_every_mode() {
    let reference = assert_mode_invariant(&rows::drained_move());
    assert!(reference.completed, "{reference:?}");
    assert!(!reference.events.is_empty(), "migration must be logged");
}

#[test]
fn warm_move_is_identical_in_every_mode() {
    let reference = assert_mode_invariant(&rows::warm_move());
    assert!(reference.completed, "{reference:?}");
    assert_eq!(reference.stats.warm_migrations, 1);
    assert!(
        reference.stats.freeze_steps > 0,
        "the freeze window must run mini-steps through the executor"
    );
}

#[test]
fn planned_evacuation_is_identical_in_every_mode() {
    let reference = assert_mode_invariant(&rows::evacuation());
    assert!(reference.completed, "{reference:?}");
    assert_eq!(reference.stats.evac_commits, 1);
}

/// The single-host rows run through the same sharded executor: a one-host
/// cluster has one host unit.
#[test]
fn single_host_rows_are_identical_in_every_mode() {
    let failover = assert_mode_invariant(&rows::failover());
    assert!(failover.completed && failover.reconnects >= 1);
    let ramp = assert_mode_invariant(&rows::control_ramp());
    assert!(ramp.completed && !ramp.hosts[&HostId(0)].control.is_empty());
}

/// Up to 16 hosts and 8 threads — wider than any other row — with every
/// byte crossing the hub: the whole report is identical at every thread
/// count.
#[test]
fn wide_fabric_is_identical_in_every_mode() {
    for hosts in [2, 8, 16] {
        let reference = assert_mode_invariant(&wide_fabric(hosts));
        assert!(reference.completed, "h{hosts}: {reference:?}");
        assert!(
            reference.bytes_verified > 0,
            "h{hosts}: the workload must flow"
        );
        if hosts == 16 {
            let mut cfg = wide_fabric(hosts);
            cfg.cluster = cfg.cluster.with_threads(8);
            let report = Scenario::new(cfg).run().expect("wide row runs");
            assert_eq!(report, reference, "h16 threads=8 diverged");
        }
    }
}

#[test]
fn faulted_cluster_is_identical_in_every_mode() {
    let reference = assert_mode_invariant(&faulted_cluster());
    assert!(reference.completed, "{reference:?}");
    assert!(
        reference.reconnects > 0,
        "the NSM crash must reset the pinned connection"
    );
    assert_eq!(reference.hosts[&HostId(1)].faults.applied, 4);
    assert_eq!(reference.stats.migrations, 1, "{:?}", reference.events);
    assert!(
        reference.hosts.values().any(|h| !h.control.is_empty()),
        "the control planes must have acted"
    );
}

/// The evacuation path joins the determinism matrix: a run containing a
/// mid-plan host kill, the resulting full rollback and a committing retry
/// replays byte-identically — digest, stats, plan event log, every host's
/// control log and every tenant byte — at 1, 2 and 4 worker threads.
#[test]
fn faulted_evacuation_is_identical_at_any_thread_count() {
    let reference = evacuation_run(THREAD_MATRIX[0]);
    assert_eq!(reference.stats.evac_plans, 2, "{reference:?}");
    assert_eq!(reference.stats.evac_rollbacks, 1);
    assert_eq!(reference.stats.evac_commits, 1);
    assert_eq!(reference.stats.hosts_killed, 1);
    assert_eq!(reference.stats.warm_migrations, 2);
    assert_eq!(
        reference.homes,
        [(VmId(1), HostId(2)), (VmId(2), HostId(2))]
    );
    assert_eq!(
        reference.streams,
        vec![b"pinnedafter".to_vec(), b"pinnedafter".to_vec()],
        "both connections stay byte-contiguous across rollback and retry"
    );
    assert!(!reference.plan_events.is_empty());
    for &threads in &THREAD_MATRIX[1..] {
        let report = evacuation_run(threads);
        assert_eq!(report, reference, "threads={threads} diverged");
    }
}

/// Everything observable from the uneven-share-count run, for whole-value
/// comparison across thread counts.
#[derive(Debug, PartialEq)]
struct UnevenRunReport {
    digest: u64,
    stats: ClusterStats,
    control: Vec<(HostId, Vec<ControlEvent>)>,
    homes: Vec<(VmId, HostId)>,
    streams: Vec<Vec<u8>>,
    obs: String,
    plan_events: Vec<PlanEvent>,
}

/// A cluster with hosts of 1, 3 and 8 NSM shares — units of very uneven
/// weight — running a warm migration out of the 8-share host and a
/// mid-plan evacuation rollback of the 3-share host. Every observable,
/// including the serialized `ObsDump`, must be identical for any thread
/// count.
fn uneven_run(threads: usize) -> UnevenRunReport {
    let mut host3 = HostConfig::new().with_host_id(HostId(2));
    let mut host8 = HostConfig::new().with_host_id(HostId(3));
    let mut map3 = Vec::new();
    let mut map8 = Vec::new();
    for n in 1u8..=3 {
        host3 = host3
            .with_nsm(NsmConfig::kernel(NsmId(n)))
            .with_vm(VmConfig::new(VmId(1 + n)));
        map3.push((VmId(1 + n), NsmId(n)));
    }
    for n in 1u8..=8 {
        host8 = host8
            .with_nsm(NsmConfig::kernel(NsmId(n)))
            .with_vm(VmConfig::new(VmId(4 + n)));
        map8.push((VmId(4 + n), NsmId(n)));
    }
    let cfg = ClusterConfig::new()
        .with_uplink_latency_us(2)
        .with_threads(threads)
        .with_host(host(1, &[1]))
        .with_host(host3.with_mapping(VmToNsmPolicy::Static(map3)))
        .with_host(host8.with_mapping(VmToNsmPolicy::Static(map8)));
    let mut cluster = Cluster::new(cfg).expect("valid uneven cluster");
    let server = cluster.add_remote(SERVER_IP);
    let ls = server.socket();
    server.bind(ls, SockAddr::new(0, 7)).unwrap();
    server.listen(ls, 32).unwrap();

    let vms: Vec<VmId> = (1u8..=12).map(VmId).collect();
    let mut socks = Vec::new();
    for &vm in &vms {
        let home = cluster.home_of(vm).unwrap();
        let guest = cluster.guest_on(home, vm).unwrap();
        let s = guest.socket().unwrap();
        guest.connect(s, SockAddr::new(SERVER_IP, 7)).unwrap();
        socks.push((vm, s));
    }
    cluster.run(15, 100_000);
    for &(vm, s) in &socks {
        let home = cluster.home_of(vm).unwrap();
        let guest = cluster.guest_on(home, vm).unwrap();
        guest.send(s, b"seed").unwrap();
    }
    cluster.run(10, 100_000);

    // A warm migration out of the 8-share host: the pinned connection
    // leaves host 3 and lands on host 1's single share.
    cluster
        .migrate_vm_warm(VmId(5), HostId(3), HostId(1))
        .expect("warm migration runs");
    cluster.run(10, 100_000);

    // A mid-plan evacuation rollback of the 3-share host: the last planned
    // step refuses, every completed action reverts across hosts.
    let probe = cluster
        .plan_evacuation(HostId(2), 2)
        .expect("plan compiles");
    let last = probe.steps.last().expect("plan has steps").id;
    let rolled_back = cluster
        .evacuate_host_with_faults(
            HostId(2),
            2,
            &[EvacFault {
                before_step: last,
                kind: EvacFaultKind::FailAction,
            }],
        )
        .expect("faulted evacuation reports instead of erroring");
    assert!(!rolled_back.committed, "{rolled_back:?}");

    for &(vm, s) in &socks {
        let home = cluster.home_of(vm).unwrap();
        let guest = cluster.guest_on(home, vm).unwrap();
        guest.send(s, b"tail").unwrap();
    }
    cluster.run(15, 100_000);

    let server = cluster.remote_mut(SERVER_IP).unwrap();
    let mut streams = Vec::new();
    while let Ok((conn, _)) = server.accept(ls) {
        let mut got = Vec::new();
        let mut buf = [0u8; 64];
        while let Ok(n) = server.recv(conn, &mut buf) {
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        streams.push(got);
    }
    let homes = vms
        .iter()
        .map(|&vm| (vm, cluster.home_of(vm).expect("VM has a home")))
        .collect();
    UnevenRunReport {
        digest: cluster.event_digest(),
        stats: cluster.stats(),
        control: control_logs(&cluster),
        homes,
        streams,
        obs: serde_json::to_string(&cluster.obs_dump()).expect("dump serializes"),
        plan_events: cluster.plan_events().to_vec(),
    }
}

/// Hosts with 1, 3 and 8 shares in one cluster: digests, stats, the
/// serialized `ObsDump`, every host's control log and every tenant byte
/// stream are identical at threads 1/2/4.
#[test]
fn uneven_share_counts_are_identical_across_threads() {
    let reference = uneven_run(THREAD_MATRIX[0]);
    assert_eq!(reference.stats.warm_migrations, 1, "{:?}", reference.stats);
    assert_eq!(reference.stats.evac_plans, 1);
    assert_eq!(reference.stats.evac_rollbacks, 1);
    assert_eq!(reference.stats.evac_commits, 0);
    // The rollback left every VM home except the explicit warm migration.
    for &(vm, home) in &reference.homes {
        let expected = match vm {
            VmId(1) | VmId(5) => HostId(1),
            VmId(v) if v <= 4 => HostId(2),
            _ => HostId(3),
        };
        assert_eq!(home, expected, "vm {vm:?}");
    }
    assert_eq!(reference.streams.len(), 12);
    for stream in &reference.streams {
        assert_eq!(stream, b"seedtail", "streams stay byte-contiguous");
    }
    for &threads in &THREAD_MATRIX[1..] {
        let report = uneven_run(threads);
        assert_eq!(report, reference, "threads={threads} diverged");
    }
}

/// The flight recorder's serialized dump is the CI determinism
/// fingerprint: byte-identical across repeated runs of the same
/// configuration and across every thread count. (The structural
/// comparisons above already cover `ObsDump` equality via the report's
/// `PartialEq`; this pins the *bytes*, which is what the CI job diffs.)
#[test]
fn serialized_obs_dump_is_byte_identical_across_runs_and_threads() {
    let dump = |threads: usize| {
        let mut cfg = rows::warm_move();
        cfg.cluster = cfg.cluster.with_threads(threads);
        let report = Scenario::new(cfg).run().expect("warm row runs");
        serde_json::to_string(&report.obs).expect("dump serializes")
    };
    let reference = dump(THREAD_MATRIX[0]);
    assert!(
        reference.contains("WarmMigrateVm"),
        "the warm migration must land in the ring: {reference}"
    );
    assert_eq!(reference, dump(THREAD_MATRIX[0]), "same row, same bytes");
    for &threads in &THREAD_MATRIX[1..] {
        assert_eq!(dump(threads), reference, "threads={threads} diverged");
    }
}

/// The per-phase work counters in [`ClusterStats`] are part of the
/// equality contract above; this pins that they actually count.
#[test]
fn per_phase_counters_accumulate() {
    let stats = Scenario::new(faulted_cluster()).run().unwrap().stats;
    assert!(stats.poll_work > 0, "rounds must do datapath work");
    assert!(stats.begin_work > 0, "fault events count as begin work");
    assert!(
        stats.control_work > 0,
        "control actions count as close work"
    );
    assert!(
        stats.barrier_frames > 0,
        "cross-host traffic must cross the ToR at the barrier"
    );
}
