//! Warm cross-host migration: the pinned connection moves, nothing drains.
//!
//! A tenant holds one *long-lived* connection to a ToR-attached echo server
//! — it never reconnects, so a drained migration would sit blocked until
//! the transfer ends. Mid-stream the VM is warm-migrated: a short freeze
//! window quiesces in-flight frames, the connection's full stack state
//! (sequence numbers, windows, buffered bytes, the ephemeral-port binding)
//! is exported, the top-of-rack switch reroutes the connection's address to
//! the destination host, and the destination installs and resumes it. The
//! byte stream continues without a reconnect and the source NSM share
//! scales to zero in the same instant.
//!
//! The run is fully deterministic: the printed event-log digest is the
//! fingerprint CI compares across two executions.
//!
//! ```text
//! cargo run --release --example warm_migration
//! ```

use netkernel::types::{
    ClusterAction, ClusterConfig, HostConfig, HostId, NsmConfig, NsmId, VmConfig, VmId,
    VmToNsmPolicy,
};
use netkernel::{BurstyClient, Scenario, ScenarioConfig};

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

fn main() {
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
            .with_tenant(BurstyClient::new(VmId(2), 500_000).with_total_bytes(64 * 1024))
            .with_warm_migration(2_000_000, VmId(1), HostId(2)),
    )
    .run()
    .expect("warm scenario runs");

    assert!(report.completed, "transfer must complete: {report:?}");
    assert_eq!(
        report.reconnects, 0,
        "the long-lived connection must survive the move"
    );
    println!(
        "warm handover: {} bytes verified over {} steps, 0 reconnects",
        report.bytes_verified, report.steps
    );
    println!(
        "warm migrations {} · connections transplanted {} · drains completed {} (none needed)",
        report.stats.warm_migrations,
        report.stats.conns_transplanted,
        report.stats.drains_completed
    );
    println!("\ncluster event log:");
    for ev in &report.events {
        println!("  t={:>9}ns  {:?}", ev.at_ns, ev.action);
    }
    let warm_at = report
        .events
        .iter()
        .find(|e| matches!(e.action, ClusterAction::WarmMigrateVm { .. }))
        .expect("warm event logged")
        .at_ns;
    let retired_at = report
        .events
        .iter()
        .find(|e| matches!(e.action, ClusterAction::ScaleToZero { .. }))
        .expect("scale-to-zero logged")
        .at_ns;
    assert_eq!(
        warm_at, retired_at,
        "the source share must retire in the same control epoch"
    );
    for (host, at_end) in &report.hosts {
        for (nsm, cores) in &at_end.nsm_cores {
            println!("final share: {host}/{nsm} = {cores} cores");
        }
    }
    assert_eq!(report.hosts[&HostId(1)].nsm_cores[&NsmId(1)], 0);
    println!("\nevent-log digest: {:#018x}", report.event_digest);
}
