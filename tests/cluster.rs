//! Cluster integration tests: multi-host placement with cross-host VM
//! migration and connection draining.
//!
//! These prove the cluster's acceptance scenario end to end: two (or more)
//! hosts sit behind the inter-host fabric (uplinks through the top-of-rack
//! switch), tenants stream byte-verified payloads to a ToR-attached echo
//! server, a cross-host migration drains — new connections land on the
//! destination host's NSM while pinned ones finish on the source, whose NSM
//! share then scales to zero — and the whole run replays byte-identically
//! for a fixed seed at any thread count (`rows::assert_mode_invariant`
//! diffs the full reports, event-log digest included).

use netkernel::types::{ClusterAction, ClusterConfig, HostId, NsmId, VmId};
use netkernel::workload::rows::{assert_mode_invariant, kernel_host as host};
use netkernel::{BurstyClient, Scenario, ScenarioConfig};

/// Two hosts, one tenant each, both streaming to the ToR-attached server:
/// every byte crosses the inter-host fabric and is verified.
#[test]
fn tenants_on_two_hosts_stream_across_the_fabric() {
    let cluster = ClusterConfig::new()
        .with_host(host(1, &[1]))
        .with_host(host(2, &[2]));
    let report = Scenario::new(
        ScenarioConfig::new(cluster)
            .with_seed(7)
            .with_tenant(BurstyClient::new(VmId(1), 0).with_total_bytes(32 * 1024))
            .with_tenant(BurstyClient::new(VmId(2), 500_000).with_total_bytes(32 * 1024)),
    )
    .run()
    .unwrap();
    assert!(report.completed, "{report:?}");
    assert_eq!(report.bytes_verified, 64 * 1024);
    assert_eq!(report.errors_observed, 0);
    assert_eq!(
        report.stats.quiescent_exits + report.stats.round_limit_hits,
        report.stats.steps
    );
}

/// The acceptance scenario: a scripted cross-host migration mid-transfer.
/// The tenant keeps streaming byte-verified throughout, the source share
/// drains (DrainComplete) and scales to zero (ScaleToZero), and the tenant
/// finishes homed on the destination host.
#[test]
fn drained_cross_host_migration_completes_and_retires_the_source_share() {
    let cluster = ClusterConfig::new()
        .with_host(host(1, &[1]))
        .with_host(host(2, &[2]));
    let report = Scenario::new(
        ScenarioConfig::new(cluster)
            .with_seed(11)
            .with_tenant(BurstyClient::new(VmId(1), 0).with_total_bytes(96 * 1024))
            .with_tenant(BurstyClient::new(VmId(2), 0).with_total_bytes(32 * 1024))
            // Fire mid-transfer: vm1 has pinned connections at this point.
            .with_migration(2_000_000, VmId(1), HostId(2)),
    )
    .run()
    .unwrap();

    assert!(report.completed, "{report:?}");
    assert_eq!(report.bytes_verified, 128 * 1024);
    assert_eq!(
        report.errors_observed, 0,
        "a drained migration is not an error path: {report:?}"
    );

    // The event log tells the whole story, in order: migrate → drain
    // complete → scale to zero.
    let migrate = report
        .events
        .iter()
        .position(|e| {
            e.action
                == ClusterAction::MigrateVm {
                    vm: VmId(1),
                    from: HostId(1),
                    to: HostId(2),
                    to_nsm: NsmId(1),
                }
        })
        .unwrap_or_else(|| panic!("no migration event: {:?}", report.events));
    let drained = report
        .events
        .iter()
        .position(|e| {
            e.action
                == ClusterAction::DrainComplete {
                    vm: VmId(1),
                    host: HostId(1),
                    nsm: NsmId(1),
                }
        })
        .unwrap_or_else(|| panic!("drain never completed: {:?}", report.events));
    let retired = report
        .events
        .iter()
        .position(|e| {
            e.action
                == ClusterAction::ScaleToZero {
                    host: HostId(1),
                    nsm: NsmId(1),
                }
        })
        .unwrap_or_else(|| panic!("source share never retired: {:?}", report.events));
    assert!(
        migrate < drained && drained <= retired,
        "{:?}",
        report.events
    );

    // The source NSM share is at zero cores; the destination serves both
    // tenants.
    assert_eq!(report.hosts[&HostId(1)].nsm_cores[&NsmId(1)], 0);
    assert!(report.hosts[&HostId(2)].nsm_cores[&NsmId(1)] >= 1);
    assert_eq!(report.final_homes[&VmId(1)], HostId(2));
    assert_eq!(report.stats.migrations, 1);
    assert_eq!(report.stats.drains_completed, 1);
    assert_eq!(report.stats.shares_retired, 1);
}

/// The warm acceptance scenario: a *long-lived* pinned connection (no
/// rotation points — a drained migration would stall until the transfer
/// ends) survives a cross-host warm migration with byte-identical payload
/// delivery, and the source NSM share scales to zero in the same control
/// epoch — no drain wait.
#[test]
fn warm_migration_moves_a_long_lived_connection_without_draining() {
    let cluster = ClusterConfig::new()
        .with_host(host(1, &[1]))
        .with_host(host(2, &[2]))
        .with_uplink_latency_us(2);
    let report = Scenario::new(
        ScenarioConfig::new(cluster)
            .with_seed(11)
            .with_tenant(
                BurstyClient::new(VmId(1), 0)
                    .with_total_bytes(96 * 1024)
                    .long_lived(),
            )
            .with_tenant(BurstyClient::new(VmId(2), 0).with_total_bytes(32 * 1024))
            // Fire mid-transfer: vm1's single connection is pinned and busy.
            .with_warm_migration(2_000_000, VmId(1), HostId(2)),
    )
    .run()
    .unwrap();

    assert!(report.completed, "{report:?}");
    assert_eq!(report.bytes_verified, 128 * 1024);
    assert_eq!(report.errors_observed, 0, "a warm handover is not an error");
    assert_eq!(report.reconnects, 0, "the connection must survive the move");
    assert_eq!(report.stats.warm_migrations, 1);
    assert_eq!(report.stats.conns_transplanted, 1);
    assert_eq!(
        report.stats.drains_completed, 0,
        "warm migration must not drain: {report:?}"
    );

    // Milestones in order and in the same instant: warm migrate → handover
    // complete → source share at zero. Zero drain wait.
    let warm = report
        .events
        .iter()
        .position(|e| {
            matches!(
                e.action,
                ClusterAction::WarmMigrateVm {
                    vm: VmId(1),
                    from: HostId(1),
                    to: HostId(2),
                    connections: 1,
                    ..
                }
            )
        })
        .unwrap_or_else(|| panic!("no warm-migrate event: {:?}", report.events));
    let handover = report
        .events
        .iter()
        .position(|e| {
            matches!(
                e.action,
                ClusterAction::WarmHandoverComplete {
                    vm: VmId(1),
                    to: HostId(2),
                    connections: 1,
                }
            )
        })
        .unwrap_or_else(|| panic!("no handover event: {:?}", report.events));
    let retired = report
        .events
        .iter()
        .position(|e| {
            e.action
                == ClusterAction::ScaleToZero {
                    host: HostId(1),
                    nsm: NsmId(1),
                }
        })
        .unwrap_or_else(|| panic!("source share never retired: {:?}", report.events));
    assert!(warm < handover && handover < retired, "{:?}", report.events);
    assert_eq!(
        report.events[warm].at_ns, report.events[retired].at_ns,
        "scale-to-zero must land in the same control epoch as the handover"
    );

    assert_eq!(report.final_homes[&VmId(1)], HostId(2));
    assert_eq!(report.hosts[&HostId(1)].nsm_cores[&NsmId(1)], 0);
    assert!(report.hosts[&HostId(2)].nsm_cores[&NsmId(1)] >= 1);
}

/// Warm-migration determinism: the same seeded warm scenario replays
/// byte-identically at threads 1, 2 and 4 — equal reports, event-log
/// digests included.
#[test]
fn warm_migration_replays_byte_identically() {
    let config = |move_at_ns| {
        ScenarioConfig::new(
            ClusterConfig::new()
                .with_host(host(1, &[1]))
                .with_host(host(2, &[2]))
                .with_uplink_latency_us(2),
        )
        .with_seed(23)
        .with_tenant(
            BurstyClient::new(VmId(1), 0)
                .with_total_bytes(64 * 1024)
                .long_lived(),
        )
        .with_tenant(BurstyClient::new(VmId(2), 700_000).with_total_bytes(48 * 1024))
        .with_warm_migration(move_at_ns, VmId(1), HostId(2))
    };
    let a = assert_mode_invariant(&config(1_500_000));
    assert!(a.completed);
    assert_eq!(a.stats.warm_migrations, 1);

    // A structurally different warm plan changes the execution — the
    // equality above is not vacuous.
    let c = Scenario::new(config(2_500_000)).run().unwrap();
    assert!(c.completed);
    assert_ne!(a.event_digest, c.event_digest);
}

/// Byte-identical determinism: executions of the same seeded configuration
/// at threads 1, 2 and 4 produce the same report — including the same
/// event-log digest — and a different plan produces a different execution.
#[test]
fn cluster_runs_replay_byte_identically() {
    let config = |second_kib: usize, move_at_ns| {
        ScenarioConfig::new(
            ClusterConfig::new()
                .with_host(host(1, &[1]))
                .with_host(host(2, &[2])),
        )
        .with_seed(11)
        .with_tenant(BurstyClient::new(VmId(1), 0).with_total_bytes(64 * 1024))
        .with_tenant(BurstyClient::new(VmId(2), 1_000_000).with_total_bytes(second_kib * 1024))
        .with_migration(move_at_ns, VmId(1), HostId(2))
    };
    let a = assert_mode_invariant(&config(64, 2_000_000));
    assert!(a.completed);
    assert!(!a.events.is_empty());

    // A structurally different run (the migration fires later, the second
    // tenant carries more bytes) must actually change the execution — the
    // equality above is not vacuous.
    let c = Scenario::new(config(96, 3_000_000)).run().unwrap();
    assert!(c.completed);
    assert_ne!(a, c, "a different plan should change the execution");
    assert_ne!(a.event_digest, c.event_digest);
}
