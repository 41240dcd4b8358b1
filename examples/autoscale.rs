//! The operator control plane in action: NSM autoscaling + VM rebalancing.
//!
//! Three tenant VMs share one kernel-stack NSM while a second NSM stands
//! by. Tenants join one after another, so offered load ramps up; the
//! control plane watches per-NSM utilisation each epoch, grows the hot NSM,
//! live-migrates a tenant onto the standby when the skew persists, and
//! shrinks the allocation back once the burst is over. Every decision is
//! printed from the host's control-event log — the same log the control
//! tests assert on.
//!
//! Run with: cargo run --example autoscale

use netkernel::types::{
    ControlAction, ControlPolicy, ControlTarget, HostConfig, HostId, NsmConfig, NsmId, VmConfig,
    VmId, VmToNsmPolicy,
};
use netkernel::{BurstyClient, Scenario, ScenarioConfig};

fn main() {
    let policy = ControlPolicy::new()
        .with_epoch_ns(1_000_000)
        .with_window(2)
        .with_watermarks(0.10, 0.60)
        .with_core_bounds(1, 2)
        .with_cooldown(1)
        .with_rebalance(0.50, 1)
        .with_pool_clock_hz(1_000_000);
    let host = HostConfig::new()
        .with_vm(VmConfig::new(VmId(1)))
        .with_vm(VmConfig::new(VmId(2)))
        .with_vm(VmConfig::new(VmId(3)))
        .with_nsm(NsmConfig::kernel(NsmId(1)))
        .with_nsm(NsmConfig::kernel(NsmId(2)))
        .with_mapping(VmToNsmPolicy::Static(vec![
            (VmId(1), NsmId(1)),
            (VmId(2), NsmId(1)),
            (VmId(3), NsmId(1)),
        ]))
        .with_control(policy);

    let report = Scenario::new(
        ScenarioConfig::single_host(host)
            .with_seed(11)
            .with_tenant(BurstyClient::new(VmId(1), 0).with_total_bytes(96 * 1024))
            .with_tenant(BurstyClient::new(VmId(2), 1_000_000).with_total_bytes(96 * 1024))
            .with_tenant(BurstyClient::new(VmId(3), 2_000_000).with_total_bytes(96 * 1024)),
    )
    .run()
    .expect("scenario runs");
    let host = &report.hosts[&HostId(0)];

    println!("== control decision log ==");
    for ev in &host.control {
        let t_ms = ev.at_ns as f64 / 1e6;
        match ev.action {
            ControlAction::ScaleUp {
                target,
                from_cores,
                to_cores,
                utilisation,
            } => println!(
                "t={t_ms:7.2} ms  epoch {:3}  scale-up   {}: {from_cores} -> {to_cores} cores (util {:.0}%)",
                ev.epoch,
                target_name(target),
                utilisation * 100.0,
            ),
            ControlAction::ScaleDown {
                target,
                from_cores,
                to_cores,
                utilisation,
            } => println!(
                "t={t_ms:7.2} ms  epoch {:3}  scale-down {}: {from_cores} -> {to_cores} cores (util {:.0}%)",
                ev.epoch,
                target_name(target),
                utilisation * 100.0,
            ),
            ControlAction::Rebalance { vm, from, to } => println!(
                "t={t_ms:7.2} ms  epoch {:3}  rebalance  {vm} migrates {from} -> {to}",
                ev.epoch,
            ),
        }
    }

    println!("\n== outcome ==");
    println!(
        "tenants completed: {} ({} bytes verified, {} control actions)",
        report.completed,
        report.bytes_verified,
        host.control.len(),
    );
    for (vm, nsm) in &host.mapping {
        println!("{vm} now served by {nsm}");
    }
    for (nsm, cores) in &host.nsm_cores {
        println!("{nsm} back to {cores} core(s)");
    }

    assert!(report.completed, "transfers must complete");
    assert!(
        host.control.iter().any(|e| matches!(
            e.action,
            ControlAction::ScaleUp {
                target: ControlTarget::Nsm(NsmId(1)),
                ..
            }
        )),
        "the loaded NSM must have been scaled up"
    );
    assert!(
        (host.control.iter()).any(|e| matches!(e.action, ControlAction::Rebalance { .. })),
        "a tenant must have been rebalanced"
    );
}

fn target_name(target: ControlTarget) -> String {
    match target {
        ControlTarget::Engine => "CoreEngine".to_string(),
        ControlTarget::Nsm(id) => format!("{id}"),
    }
}
