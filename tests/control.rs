//! Control-plane integration tests: the full observe → decide → act loop.
//!
//! These prove the ISSUE's acceptance scenario end to end: under a ramping
//! multi-tenant workload the autoscaler grows the overloaded NSM, the
//! rebalancer live-migrates at least one VM off it with zero byte-stream
//! corruption (the scenario runner verifies every echoed byte and panics on
//! divergence), the allocation shrinks back once load falls below the low
//! watermark and the cooldown passes, and the whole run replays
//! byte-identically from its seed.

use netkernel::types::{HostId, NsmId, VmId};
use netkernel::workload::rows::{assert_mode_invariant, control_ramp};
use netkernel::{BurstyClient, ControlAction, ControlTarget, Scenario, ScenarioReport};

/// The row's one host.
const HOST: HostId = HostId(0);

/// The ramping row: tenants join one by one (ramp-up) and finish (ramp-down).
fn run_ramp() -> ScenarioReport {
    Scenario::new(control_ramp()).run().unwrap()
}

/// The acceptance scenario: scale-up → rebalance → scale-down, with full
/// data integrity.
#[test]
fn ramping_load_scales_up_rebalances_and_scales_down() {
    let report = run_ramp();
    let host = &report.hosts[&HOST];

    assert!(report.completed, "{report:?}");
    assert_eq!(
        report.bytes_verified,
        3 * 96 * 1024,
        "every tenant's bytes must be delivered and verified"
    );

    let events = &host.control;
    let first_scale_up = events
        .iter()
        .position(|e| {
            matches!(
                e.action,
                ControlAction::ScaleUp {
                    target: ControlTarget::Nsm(NsmId(1)),
                    ..
                }
            )
        })
        .unwrap_or_else(|| panic!("the overloaded NSM was never scaled up: {events:?}"));
    let first_rebalance = events
        .iter()
        .position(|e| matches!(e.action, ControlAction::Rebalance { from: NsmId(1), .. }))
        .unwrap_or_else(|| panic!("no VM was migrated off the overloaded NSM: {events:?}"));
    let first_scale_down = events
        .iter()
        .position(|e| matches!(e.action, ControlAction::ScaleDown { .. }))
        .unwrap_or_else(|| panic!("the allocation never shrank after the ramp-down: {events:?}"));
    assert!(
        first_scale_up <= first_rebalance,
        "scaling responds before migration: {events:?}"
    );
    assert!(
        first_rebalance < first_scale_down,
        "scale-down belongs to the ramp-down: {events:?}"
    );

    // The rebalancer actually moved someone: at least one tenant's new
    // connections are served by the standby NSM.
    assert!(
        host.mapping.values().any(|n| *n == NsmId(2)),
        "no tenant ended up on the standby NSM: {:?}",
        host.mapping
    );

    // After the drain the allocation is back at the policy floor.
    assert_eq!(host.nsm_cores.get(&NsmId(1)), Some(&1));
    assert!(report.stats.control_work >= 3);
}

/// Byte-identical determinism: executions of the same seeded configuration
/// at threads 1, 2 and 4 produce the same report, including the same
/// control decision log; a different ramp produces a different execution.
#[test]
fn controlled_runs_replay_byte_identically() {
    let a = assert_mode_invariant(&control_ramp());
    assert!(a.completed);
    assert!(!a.hosts[&HOST].control.is_empty());

    // A structurally different ramp (a fourth of the load arrives later)
    // must actually change the execution — the equality above is not
    // vacuous.
    let mut later = control_ramp();
    later.tenants[2] = BurstyClient::new(VmId(3), 4_000_000).with_total_bytes(128 * 1024);
    let c = Scenario::new(later).run().unwrap();
    assert!(c.completed);
    assert_ne!(
        a.hosts[&HOST].engine, c.hosts[&HOST].engine,
        "a different ramp should change the execution"
    );
}

/// The scaling decisions respect the policy bounds at every point in the
/// log, and utilisations attached to events are sane.
#[test]
fn control_decisions_respect_policy_bounds() {
    let report = run_ramp();
    let host = &report.hosts[&HOST];
    for ev in &host.control {
        match ev.action {
            ControlAction::ScaleUp {
                from_cores,
                to_cores,
                utilisation,
                ..
            } => {
                assert!(to_cores > from_cores && to_cores <= 2, "{ev:?}");
                assert!(utilisation > 0.60, "{ev:?}");
            }
            ControlAction::ScaleDown {
                from_cores,
                to_cores,
                utilisation,
                ..
            } => {
                assert!(to_cores < from_cores && to_cores >= 1, "{ev:?}");
                assert!(utilisation < 0.10, "{ev:?}");
                assert!((0.0..=1.0).contains(&utilisation), "{ev:?}");
            }
            ControlAction::Rebalance { vm, from, to } => {
                assert_ne!(from, to, "{ev:?}");
                assert!(
                    [VmId(1), VmId(2), VmId(3)].contains(&vm),
                    "unknown VM migrated: {ev:?}"
                );
            }
        }
    }
}
