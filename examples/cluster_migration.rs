//! Cluster-scale operation: cross-host VM migration with connection
//! draining.
//!
//! Two NetKernel hosts sit behind a top-of-rack switch; tenants on both
//! stream byte-verified payloads to a ToR-attached echo server, so every
//! byte crosses the inter-host fabric. Mid-transfer, one VM is live-migrated
//! to the other host: new connections immediately open on the destination
//! host's NSM while the pinned connection finishes on the source, whose NSM
//! share then drains to zero connections and scales to zero cores.
//!
//! The run is fully deterministic: the printed event-log digest is the
//! fingerprint CI compares across two executions (the seeded-determinism
//! job fails on any divergence).
//!
//! ```text
//! cargo run --release --example cluster_migration
//! ```

use netkernel::types::{
    ClusterConfig, HostConfig, HostId, NsmConfig, NsmId, VmConfig, VmId, VmToNsmPolicy,
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
            .with_tenant(BurstyClient::new(VmId(1), 0).with_total_bytes(96 * 1024))
            .with_tenant(BurstyClient::new(VmId(2), 500_000).with_total_bytes(64 * 1024))
            .with_migration(2_000_000, VmId(1), HostId(2)),
    )
    .run()
    .expect("cluster scenario runs");

    assert!(report.completed, "transfer must complete: {report:?}");
    println!(
        "cross-host transfer: {} bytes verified over {} steps",
        report.bytes_verified, report.steps
    );
    println!(
        "migrations {} · drains completed {} · shares retired {}",
        report.stats.migrations, report.stats.drains_completed, report.stats.shares_retired
    );
    println!("\ncluster event log:");
    for ev in &report.events {
        println!("  t={:>9}ns  {:?}", ev.at_ns, ev.action);
    }
    for (host, at_end) in &report.hosts {
        for (nsm, cores) in &at_end.nsm_cores {
            println!("final share: {host}/{nsm} = {cores} cores");
        }
    }
    assert_eq!(
        report.hosts[&HostId(1)].nsm_cores[&NsmId(1)],
        0,
        "the drained source share must be at zero cores"
    );
    println!("\nevent-log digest: {:#018x}", report.event_digest);
}
