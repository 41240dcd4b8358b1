//! NSM failover: a VM survives its network stack crashing underneath it.
//!
//! NetKernel's core promise is that the stack is *infrastructure*: the
//! operator can crash, replace or restart an NSM while tenant VMs keep
//! running. This example installs a fault plan that hard-crashes the serving
//! NSM in the middle of a 128 KiB transfer, live-migrates the VM to a
//! standby NSM in the same instant, and restarts the crashed NSM later. The
//! application code is the scenario runner's ordinary reliable-transfer
//! client — plain BSD-style socket calls with reconnect-on-error, no
//! NetKernel-specific handling at all — and the transfer completes with
//! every byte verified.
//!
//! Run with: `cargo run --example nsm_failover`

use netkernel::types::{HostConfig, HostId, NsmConfig, NsmId, VmConfig, VmId, VmToNsmPolicy};
use netkernel::{BurstyClient, FaultAction, FaultPlan, Scenario, ScenarioConfig};

fn main() {
    // One VM, a primary NSM and a standby NSM.
    let host = HostConfig::new()
        .with_vm(VmConfig::new(VmId(1)))
        .with_nsm(NsmConfig::kernel(NsmId(1)))
        .with_nsm(NsmConfig::kernel(NsmId(2)))
        .with_mapping(VmToNsmPolicy::All(NsmId(1)));

    // The operator's incident script: crash the primary at t = 2 ms (the
    // transfer is mid-flight), point the VM at the standby in the same
    // instant, bring the primary back at t = 6 ms.
    let plan = FaultPlan::new()
        .at(2_000_000, FaultAction::CrashNsm(NsmId(1)))
        .at(
            2_000_000,
            FaultAction::MigrateVm {
                vm: VmId(1),
                to: NsmId(2),
            },
        )
        .at(6_000_000, FaultAction::RestartNsm(NsmId(1)));

    // A lone host is the one-host cluster (host id 0); its tenant keeps one
    // connection for the whole transfer and the run stops when it is done.
    let tenant = BurstyClient::new(VmId(1), 0)
        .with_total_bytes(128 * 1024)
        .long_lived();
    let report = Scenario::new(ScenarioConfig {
        drain_steps: 0,
        ..ScenarioConfig::single_host(host)
            .with_tenant(tenant)
            .with_fault_plan(HostId(0), plan)
    })
    .run()
    .expect("scenario runs");
    let host = &report.hosts[&HostId(0)];

    println!("transfer completed:      {}", report.completed);
    println!("bytes verified:          {}", report.bytes_verified);
    println!("socket errors observed:  {}", report.errors_observed);
    println!("reconnects:              {}", report.reconnects);
    println!(
        "faults applied:          {} ({} crash, {} migration, {} restart)",
        host.faults.applied, host.faults.crashes, host.faults.migrations, host.faults.restarts
    );
    println!("connections reset:       {}", host.engine.conn_resets);
    println!("host steps:              {}", report.steps);

    assert!(report.completed, "the VM must survive the NSM crash");
    assert!(report.errors_observed >= 1 && report.reconnects >= 1);
    println!("\nVM survived an NSM crash + live migration with zero app changes.");
}
