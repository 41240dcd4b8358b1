//! The scripted runs more than one suite needs, each defined once, and the
//! executor-mode oracle every row can be put through.
//!
//! A *row* is a function returning a [`ScenarioConfig`]: the experiments
//! binary prints it, the integration tests assert on it, the determinism
//! matrix replays it across executor modes. A caller that needs a variation
//! edits the returned value — the fields are public.

use crate::apps::BurstyClient;
use crate::scenario::{Scenario, ScenarioConfig, ScenarioReport};
use nk_types::faults::{FaultAction, FaultPlan};
use nk_types::{
    ClusterConfig, ControlPolicy, HostConfig, HostId, NsmConfig, NsmId, VmConfig, VmId,
    VmToNsmPolicy,
};

/// Host `id` with one kernel-stack NSM serving all of `vms`.
pub fn kernel_host(id: u8, vms: &[u8]) -> HostConfig {
    let mut cfg = HostConfig::new()
        .with_host_id(HostId(id))
        .with_nsm(NsmConfig::kernel(NsmId(1)))
        .with_mapping(VmToNsmPolicy::All(NsmId(1)));
    for vm in vms {
        cfg = cfg.with_vm(VmConfig::new(VmId(*vm)));
    }
    cfg
}

/// Host 0 with VM 1 on a primary kernel-stack NSM and an idle standby.
pub fn two_nsm_host() -> HostConfig {
    kernel_host(0, &[1]).with_nsm(NsmConfig::kernel(NsmId(2)))
}

/// The shape of the fault rows: VM 1 of `host` streams `total_bytes` over
/// one long-lived connection to the host-local echo server while `plan`
/// plays out, and the run stops the moment the transfer completes.
pub fn single_stream(host: HostConfig, total_bytes: usize, plan: FaultPlan) -> ScenarioConfig {
    let host_id = host.host_id;
    let tenant = BurstyClient::new(VmId(1), 0)
        .with_total_bytes(total_bytes)
        .long_lived();
    ScenarioConfig {
        max_steps: 20_000,
        drain_steps: 0,
        ..ScenarioConfig::single_host(host)
            .with_tenant(tenant)
            .with_fault_plan(host_id, plan)
    }
}

/// NSM failover: the serving NSM crashes at t = 2 ms, mid-transfer (128 KiB
/// at ~2 steps per 2 KiB chunk spans well past step 20), the VM is pointed
/// at the standby in the same instant, the crashed NSM restarts at t = 6 ms.
pub fn failover() -> ScenarioConfig {
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
    single_stream(two_nsm_host(), 128 * 1024, plan)
}

/// The control ramp: three tenants packed onto NSM 1 with NSM 2 standing
/// by, joining one millisecond apart, under a control policy whose
/// accounting clock is small enough that the load actually saturates it
/// (the thresholds are what is under test, not absolute cycle counts).
pub fn control_ramp() -> ScenarioConfig {
    let policy = ControlPolicy::new()
        .with_epoch_ns(1_000_000) // 10 steps per epoch
        .with_window(2)
        .with_watermarks(0.10, 0.60)
        .with_core_bounds(1, 2)
        .with_cooldown(1)
        .with_rebalance(0.50, 1)
        .with_pool_clock_hz(1_000_000);
    let host = kernel_host(0, &[1, 2, 3])
        .with_nsm(NsmConfig::kernel(NsmId(2)))
        .with_control(policy);
    let mut cfg = ScenarioConfig::single_host(host).with_seed(11);
    for vm in 1..=3u8 {
        let start_ns = u64::from(vm - 1) * 1_000_000;
        cfg = cfg.with_tenant(BurstyClient::new(VmId(vm), start_ns).with_total_bytes(96 * 1024));
    }
    cfg
}

/// Two hosts, one tenant each, streaming through the ToR; the first
/// tenant's transfer is still in flight when a script entry fires at 2 ms.
fn two_host_move(first: BurstyClient) -> ScenarioConfig {
    let cluster = ClusterConfig::new()
        .with_host(kernel_host(1, &[1]))
        .with_host(kernel_host(2, &[2]))
        .with_uplink_latency_us(2);
    ScenarioConfig::new(cluster)
        .with_seed(11)
        .with_tenant(first.with_total_bytes(96 * 1024))
        .with_tenant(BurstyClient::new(VmId(2), 500_000).with_total_bytes(64 * 1024))
}

/// A drained cross-host move mid-transfer: VM 1 rotates its connection, so
/// the source share drains at the next rotation point and scales to zero.
pub fn drained_move() -> ScenarioConfig {
    two_host_move(BurstyClient::new(VmId(1), 0)).with_migration(2_000_000, VmId(1), HostId(2))
}

/// A warm cross-host move mid-transfer: VM 1 holds one long-lived
/// connection (a drained move would stall until the transfer ends), which
/// is transplanted through a freeze window.
pub fn warm_move() -> ScenarioConfig {
    two_host_move(BurstyClient::new(VmId(1), 0).long_lived()).with_warm_migration(
        2_000_000,
        VmId(1),
        HostId(2),
    )
}

/// A planned host evacuation: host 1 maps each of its two VMs to its own
/// NSM (the exclusive mapping is what makes both moves warm), both hold
/// long-lived connections — the worst case for draining — and the whole
/// host clears in one plan at 2 ms onto the empty hosts 2 and 3.
pub fn evacuation() -> ScenarioConfig {
    let mapping = vec![(VmId(1), NsmId(1)), (VmId(2), NsmId(2))];
    let evacuated = kernel_host(1, &[1, 2])
        .with_nsm(NsmConfig::kernel(NsmId(2)))
        .with_mapping(VmToNsmPolicy::Static(mapping));
    let cluster = ClusterConfig::new()
        .with_host(evacuated)
        .with_host(kernel_host(2, &[]))
        .with_host(kernel_host(3, &[]))
        .with_uplink_latency_us(2);
    let tenant = |vm| {
        BurstyClient::new(VmId(vm), 0)
            .with_total_bytes(96 * 1024)
            .long_lived()
    };
    ScenarioConfig::new(cluster)
        .with_seed(11)
        .with_tenant(tenant(1))
        .with_tenant(tenant(2))
        .with_evacuation(2_000_000, HostId(1), 2)
}

/// The executor-mode oracle: run `cfg` at threads {1, 2, 4}, assert that
/// the whole reports are equal, and return the serial reference for further
/// assertions.
///
/// (`NK_CLUSTER_THREADS` deliberately overrides the configured value, so a
/// CI job can run a whole suite under one forced thread count; equality
/// still holds because every run then uses the same override.)
pub fn assert_mode_invariant(cfg: &ScenarioConfig) -> ScenarioReport {
    assert_same_report([1, 2, 4].map(|threads| {
        let mut cfg = cfg.clone();
        cfg.cluster = cfg.cluster.with_threads(threads);
        (format!("threads={threads}"), cfg)
    }))
}

/// Run every labelled configuration; each whole report must equal the
/// first, which is returned.
fn assert_same_report(runs: impl IntoIterator<Item = (String, ScenarioConfig)>) -> ScenarioReport {
    let mut reports = runs.into_iter().map(|(label, cfg)| {
        let report = Scenario::new(cfg).run();
        (label, report.expect("valid row"))
    });
    let (_, reference) = reports.next().expect("at least one run");
    for (label, report) in reports {
        assert_eq!(report, reference, "{label} diverged from the reference");
    }
    reference
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A full NQE ring parks a response and never drops one, so rings of
    /// two or eight NQEs change a row's timing, never its outcome: every
    /// row completes with all its bytes verified (the scenario runner also
    /// checks that nothing is left parked or allocated after the settle).
    #[test]
    fn rows_complete_on_rings_of_two_and_eight() {
        let single = single_stream(two_nsm_host(), 128 * 1024, FaultPlan::new());
        let rows = [
            ("control_ramp", control_ramp(), 3 * 96 * 1024),
            ("single_stream", single, 128 * 1024),
            ("drained_move", drained_move(), 160 * 1024),
            ("warm_move", warm_move(), 160 * 1024),
            ("evacuation", evacuation(), 2 * 96 * 1024),
        ];
        for capacity in [2, 8] {
            for (name, row, bytes) in &rows {
                let mut cfg = row.clone();
                for host in &mut cfg.cluster.hosts {
                    host.queue_capacity = capacity;
                }
                let report = Scenario::new(cfg).run().expect("valid row");
                let outcome = (report.completed, report.bytes_verified);
                assert_eq!(outcome, (true, *bytes), "{name} at capacity {capacity}");
            }
        }
    }

    /// The oracle's `assert_eq!` is not vacuous: two runs that differ — the
    /// same row with its move scripted a millisecond later — are told apart.
    #[test]
    #[should_panic(expected = "later diverged from the reference")]
    fn the_mode_oracle_rejects_runs_that_differ() {
        let mut later = drained_move();
        later.script[0].at_ns += 1_000_000;
        assert_same_report([
            ("on time".to_string(), drained_move()),
            ("later".to_string(), later),
        ]);
    }
}
