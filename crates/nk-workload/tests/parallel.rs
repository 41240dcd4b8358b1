//! The determinism matrix: every scenario must be byte-identical in every
//! executor mode.
//!
//! The sharded executor's whole contract is that parallelism is invisible:
//! the event-log digest, the cluster stats (including the per-phase work
//! counters), every host's control log, the flight recorder's dump and every
//! tenant's byte stream must not change when the datapath runs on 1, 2 or 4
//! threads. Every row goes through `rows::assert_mode_invariant`, which
//! replays a `ScenarioConfig` across that matrix and diffs the complete
//! reports — the faulted evacuations (a mid-plan host kill, a refused
//! action) included, each a scripted `PlannedOp::Evacuate` with its fault.
//!
//! (`NK_CLUSTER_THREADS` deliberately overrides the configured value, so a
//! CI job can run this whole suite under a forced thread count; equality
//! still holds because every run then uses the same override.)

use nk_ctrl::{PlanEvent, PlanEventKind};
use nk_types::{
    ClusterConfig, ControlPolicy, FaultAction, FaultPlan, HostId, LinkConfig, NkError, NsmConfig,
    NsmId, VmId,
};
use nk_workload::rows::{self, assert_mode_invariant, kernel_host as host};
use nk_workload::{BurstyClient, PlannedOp, Scenario, ScenarioConfig, ScenarioReport};
use std::collections::BTreeMap;

const THREAD_MATRIX: [usize; 3] = [1, 2, 4];

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
                link: LinkConfig::ideal().with_latency_us(50),
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
    let reference = assert_mode_invariant(&rows::faulted_evacuation());
    let stats = &reference.stats;
    assert_eq!(stats.evac_plans, 2, "{reference:?}");
    assert_eq!(stats.evac_rollbacks, 1);
    assert_eq!(stats.evac_commits, 1);
    assert_eq!(stats.hosts_killed, 1);
    assert_eq!(stats.warm_migrations, 2);
    let homes = BTreeMap::from([(VmId(1), HostId(2)), (VmId(2), HostId(2))]);
    assert_eq!(reference.final_homes, homes);
    // Host 3 died before step 7, the install of VM 2 onto it.
    assert_eq!(failures(&reference), [(7, NkError::NotFound.code())]);
    // Both connections stay byte-contiguous across rollback and retry.
    assert!(reference.completed, "{reference:?}");
    assert_eq!(reference.bytes_verified, 2 * 96 * 1024);
    assert_eq!(reference.reconnects, 0);
    assert!(!reference.plan_events.is_empty());
}

/// A scripted fault past its plan's end fails the run loudly, before the
/// plan's first step, instead of never firing while the plan commits.
#[test]
fn a_fault_past_the_plans_end_fails_the_run() {
    let mut cfg = rows::faulted_evacuation();
    let PlannedOp::Evacuate {
        fault: Some(kill), ..
    } = &mut cfg.script[0].op
    else {
        panic!("the row's first script entry is its faulted evacuation");
    };
    kill.before_step = 1_000;
    assert_eq!(Scenario::new(cfg).run().err(), Some(NkError::BadConfig));
}

/// Hosts with 1, 3 and 8 shares in one cluster: digests, stats, the
/// `ObsDump`, every host's control log and every tenant byte stream are
/// identical at threads 1/2/4.
#[test]
fn uneven_share_counts_are_identical_across_threads() {
    let reference = assert_mode_invariant(&rows::uneven_shares());
    assert_eq!(reference.stats.warm_migrations, 1, "{:?}", reference.stats);
    assert_eq!(reference.stats.evac_plans, 1);
    assert_eq!(reference.stats.evac_rollbacks, 1);
    assert_eq!(reference.stats.evac_commits, 0);
    // The rollback left every VM home except the explicit warm migration.
    assert_eq!(reference.final_homes.len(), 12);
    for (&vm, &home) in &reference.final_homes {
        let expected = match vm {
            VmId(1) | VmId(5) => HostId(1),
            VmId(v) if v <= 4 => HostId(2),
            _ => HostId(3),
        };
        assert_eq!(home, expected, "vm {vm:?}");
    }
    // The evacuation of host 2 was refused at its last step.
    let steps = reference.plan_events.iter().find_map(|e| match e.kind {
        PlanEventKind::PlanStarted {
            host: HostId(2),
            steps,
            ..
        } => Some(steps),
        _ => None,
    });
    let last = steps.expect("the plan started") - 1;
    assert_eq!(failures(&reference), [(last, NkError::InvalidState.code())]);
    // Every stream stays byte-contiguous.
    assert!(reference.completed, "{reference:?}");
    assert_eq!(reference.bytes_verified, 12 * 32 * 1024);
    assert_eq!(reference.reconnects, 0);
}

/// Every failed plan step, with its error code.
fn failures(report: &ScenarioReport) -> Vec<(u32, u32)> {
    let failed = |e: &PlanEvent| match e.kind {
        PlanEventKind::ActionFailed { step, code } => Some((step, code)),
        _ => None,
    };
    report.plan_events.iter().filter_map(failed).collect()
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
