//! The cluster flight recorder: one deterministic dump of everything.
//!
//! Two hosts behind a top-of-rack switch run tenants against a ToR-attached
//! echo server while an incident unfolds: a standby NSM on host 1 crashes
//! and is re-provisioned (scripted fault plan), and mid-stream the
//! long-lived tenant is *warm*-migrated to host 2. The cluster's flight
//! recorder captures all of it — the merged event ring (cluster, control,
//! fault and decision events) and the warm migration's
//! freeze/export/reroute/install/thaw phase timeline — without the
//! workload doing anything special.
//!
//! The run is fully deterministic: the serialized [`ObsDump`] printed at
//! the end is byte-identical across repeated runs *and* across datapath
//! thread counts (`NK_CLUSTER_THREADS=1` vs `=4`), which is exactly what
//! the CI `flight-recorder-determinism` job diffs.
//!
//! ```text
//! cargo run --release --example flight_recorder
//! ```

use netkernel::obs::{EventClass, ObsFilter};
use netkernel::types::{
    ClusterConfig, FaultAction, FaultPlan, HostConfig, HostId, NsmConfig, NsmId, VmConfig, VmId,
    VmToNsmPolicy,
};
use netkernel::{BurstyClient, Scenario, ScenarioConfig};

fn main() {
    // Host 1 carries the tenant VM on a primary NSM plus an idle standby;
    // host 2 starts with its own tenant and later receives the migrant.
    let host1 = HostConfig::new()
        .with_host_id(HostId(1))
        .with_nsm(NsmConfig::kernel(NsmId(1)))
        .with_nsm(NsmConfig::kernel(NsmId(2)))
        .with_mapping(VmToNsmPolicy::All(NsmId(1)))
        .with_vm(VmConfig::new(VmId(1)));
    let host2 = HostConfig::new()
        .with_host_id(HostId(2))
        .with_nsm(NsmConfig::kernel(NsmId(1)))
        .with_mapping(VmToNsmPolicy::All(NsmId(1)))
        .with_vm(VmConfig::new(VmId(2)));

    // The incident script: the standby NSM dies at t = 1.5 ms and is
    // re-provisioned at t = 3 ms. No tenant traffic rides it, so the
    // transfers are untouched — but the recorder logs both fault events.
    let faults = FaultPlan::new()
        .at(1_500_000, FaultAction::CrashNsm(NsmId(2)))
        .at(3_000_000, FaultAction::RestartNsm(NsmId(2)));

    let cluster = ClusterConfig::new()
        .with_host(host1)
        .with_host(host2)
        .with_uplink_latency_us(2);
    let report = Scenario::new(
        ScenarioConfig::new(cluster)
            .with_seed(23)
            .with_tenant(
                BurstyClient::new(VmId(1), 0)
                    .with_total_bytes(96 * 1024)
                    .long_lived(),
            )
            .with_tenant(BurstyClient::new(VmId(2), 500_000).with_total_bytes(64 * 1024))
            .with_fault_plan(HostId(1), faults)
            .with_warm_migration(2_000_000, VmId(1), HostId(2)),
    )
    .run()
    .expect("flight recorder scenario runs");

    assert!(report.completed, "transfers must complete: {report:?}");
    assert_eq!(report.reconnects, 0, "the warm handover must be seamless");
    println!(
        "run: {} bytes verified over {} steps · {} warm migration(s)",
        report.bytes_verified, report.steps, report.stats.warm_migrations
    );

    let dump = &report.obs;
    println!(
        "recorder: {} events captured ({} retained) · {} phase windows",
        dump.events_captured,
        dump.events.len(),
        dump.phases.len()
    );

    // The warm migration's phase timeline, attributed to the VM.
    println!("\nwarm migration timeline for {:?}:", VmId(1));
    for w in dump.phases.iter().filter(|w| w.vm == Some(VmId(1))) {
        println!(
            "  {:>8?} [{:>9} .. {:>9}]ns width {:>6}ns ok={}",
            w.phase,
            w.start_ns,
            w.end_ns,
            w.width_ns(),
            w.ok
        );
    }

    // Filter queries slice the same ring without re-running anything.
    let fault_events = ObsFilter::new().with_class(EventClass::Fault);
    println!("\nfault events on {:?}:", HostId(1));
    for ev in dump.events.iter().filter(|e| fault_events.matches(e)) {
        println!("  t={:>9}ns  {:?}", ev.at_ns, ev.kind);
    }
    assert!(
        dump.events.iter().any(|e| fault_events.matches(e)),
        "the scripted NSM crash/restart must land in the ring"
    );

    // The serialized dump is the CI determinism fingerprint: byte-identical
    // across runs and across NK_CLUSTER_THREADS settings.
    let json = serde_json::to_string(dump).expect("dump serializes");
    println!("\nOBS_DUMP {json}");
    println!("flight recorder dump: {} bytes serialized, OK", json.len());
}
