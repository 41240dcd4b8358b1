//! Planned, revertible host evacuation: a whole host clears out mid-stream.
//!
//! Host 1 runs two tenants, each exclusively on its own NSM and each
//! holding one *long-lived* connection to a ToR-attached echo server. At
//! the scripted instant the host is evacuated: the control plane compiles
//! a typed plan — freeze, export, reroute, install, thaw per VM, emptied
//! shares scaled to zero at the tail — and executes it in paced waves.
//! Both VMs qualify for the warm path (the exclusivity guard holds), so
//! their pinned connections are transplanted byte-contiguously; neither
//! tenant reconnects. Had any action failed, every completed action would
//! have been reverted in reverse order and the cluster restored
//! byte-identically — that guarantee is pinned by the test suite; this
//! example shows the committing path end to end.
//!
//! The run is fully deterministic: the printed event-log digest is the
//! fingerprint CI compares across two executions (and across a forced
//! `NK_CLUSTER_THREADS=4` run).
//!
//! ```text
//! cargo run --release --example evacuation
//! ```

use netkernel::ctrl::PlanEventKind;
use netkernel::types::{
    ClusterAction, ClusterConfig, HostConfig, HostId, NsmConfig, NsmId, VmConfig, VmId,
    VmToNsmPolicy,
};
use netkernel::{BurstyClient, Scenario, ScenarioConfig};

fn empty_host(id: u8) -> HostConfig {
    HostConfig::new()
        .with_host_id(HostId(id))
        .with_nsm(NsmConfig::kernel(NsmId(1)))
        .with_mapping(VmToNsmPolicy::All(NsmId(1)))
}

fn main() {
    // Host 1 maps each VM to its own NSM — the exclusive mapping is what
    // makes both evacuation moves warm instead of drained.
    let evac_host = HostConfig::new()
        .with_host_id(HostId(1))
        .with_nsm(NsmConfig::kernel(NsmId(1)))
        .with_nsm(NsmConfig::kernel(NsmId(2)))
        .with_mapping(VmToNsmPolicy::Static(vec![
            (VmId(1), NsmId(1)),
            (VmId(2), NsmId(2)),
        ]))
        .with_vm(VmConfig::new(VmId(1)))
        .with_vm(VmConfig::new(VmId(2)));
    let cluster = ClusterConfig::new()
        .with_host(evac_host)
        .with_host(empty_host(2))
        .with_host(empty_host(3))
        .with_uplink_latency_us(2);
    let report = Scenario::new(
        ScenarioConfig::new(cluster)
            .with_seed(11)
            .with_tenant(
                BurstyClient::new(VmId(1), 0)
                    .with_total_bytes(96 * 1024)
                    .long_lived(),
            )
            .with_tenant(
                BurstyClient::new(VmId(2), 0)
                    .with_total_bytes(64 * 1024)
                    .long_lived(),
            )
            .with_evacuation(2_000_000, HostId(1), 2),
    )
    .run()
    .expect("evacuation scenario runs");

    assert!(report.completed, "transfers must complete: {report:?}");
    assert_eq!(
        report.reconnects, 0,
        "warm evacuation must not break a single connection"
    );
    assert_eq!(report.stats.evac_plans, 1);
    assert_eq!(report.stats.evac_commits, 1);
    assert_eq!(report.stats.evac_rollbacks, 0);
    println!(
        "evacuation: {} bytes verified over {} steps, 0 reconnects",
        report.bytes_verified, report.steps
    );
    println!(
        "plans {} · commits {} · warm moves {} · connections transplanted {} · shares retired {}",
        report.stats.evac_plans,
        report.stats.evac_commits,
        report.stats.warm_migrations,
        report.stats.conns_transplanted,
        report.stats.shares_retired
    );

    println!("\nplan event log:");
    for ev in &report.plan_events {
        println!("  t={:>9}ns seq {:>2}  {:?}", ev.at_ns, ev.seq, ev.kind);
    }
    assert!(matches!(
        report.plan_events.last().map(|e| e.kind),
        Some(PlanEventKind::PlanCommitted { host: HostId(1) })
    ));

    println!("\ncluster event log:");
    for ev in &report.events {
        println!("  t={:>9}ns  {:?}", ev.at_ns, ev.action);
    }
    let evacuated = report
        .events
        .iter()
        .find(|e| matches!(e.action, ClusterAction::HostEvacuated { .. }))
        .expect("commit logged as one cluster event");
    let retirements = report
        .events
        .iter()
        .filter(|e| matches!(e.action, ClusterAction::ScaleToZero { .. }))
        .count();
    println!(
        "\nhost 1 evacuated at t={}ns; {} source shares scaled to zero",
        evacuated.at_ns, retirements
    );
    assert_eq!(retirements, 2, "both emptied shares must retire");

    for (vm, home) in &report.final_homes {
        println!("final home: {vm} on {home}");
    }
    assert_ne!(report.final_homes[&VmId(1)], HostId(1));
    assert_ne!(report.final_homes[&VmId(2)], HostId(1));
    assert_eq!(report.hosts[&HostId(1)].nsm_cores[&NsmId(1)], 0);
    assert_eq!(report.hosts[&HostId(1)].nsm_cores[&NsmId(2)], 0);
    println!("\nevent-log digest: {:#018x}", report.event_digest);
}
