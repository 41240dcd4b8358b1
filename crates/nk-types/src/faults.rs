//! Fault-injection plans: timed infrastructure events applied to a host.
//!
//! NetKernel's core promise is that the network stack is *infrastructure*:
//! the operator can crash, restart or replace an NSM underneath a running VM
//! (§3 "a user can switch her NSM on the fly"). A [`FaultPlan`] describes a
//! deterministic schedule of such events — NSM crash, NSM restart, live VM
//! re-mapping, mid-flight link degradation — that the host applies at fixed
//! points in virtual time. Because the schedule, the fabric RNG and the
//! datapath are all deterministic, the same plan plus the same seed replays
//! the exact same execution, which is what the seeded scenario and property
//! tests rely on.

use crate::config::{HostConfig, LinkConfig};
use crate::error::{NkError, NkResult};
use crate::ids::{NsmId, VmId};

/// One infrastructure fault (or recovery action) a host can apply.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultAction {
    /// Hard-crash an NSM: its queues, stack state and vNIC vanish. Every
    /// connection pinned to it observes [`NkError::ConnReset`].
    CrashNsm(NsmId),
    /// Re-provision a previously crashed NSM from its original
    /// configuration, with fresh queues and an empty stack.
    RestartNsm(NsmId),
    /// Live re-mapping of a VM onto a different NSM: new connections use the
    /// target, existing ones stay pinned to wherever they were opened.
    MigrateVm {
        /// The VM being migrated.
        vm: VmId,
        /// The NSM that takes over new connections.
        to: NsmId,
    },
    /// Reconfigure the egress link towards an NSM's vNIC mid-flight.
    /// In-flight frames keep their original delivery schedule. A link with
    /// no rate cap gets the vNIC's provisioned `nic_rate_gbps`, so restoring
    /// with [`LinkConfig::ideal`] never leaves the vNIC faster than it was
    /// provisioned.
    DegradeLink {
        /// The NSM whose vNIC link changes.
        nsm: NsmId,
        /// The new link shape.
        link: LinkConfig,
    },
}

/// A fault action scheduled at a point in virtual time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// Virtual time (nanoseconds) at or after which the action applies.
    pub at_ns: u64,
    /// What happens.
    pub action: FaultAction,
}

/// A deterministic schedule of fault events for one host.
///
/// Events are applied in `(at_ns, insertion order)` order at the start of the
/// first host step whose virtual time reaches `at_ns`, before any datapath
/// component is polled — so a plan plus a seed fully determines the
/// execution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// The scheduled events.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `action` at `at_ns` (builder style).
    pub fn at(mut self, at_ns: u64, action: FaultAction) -> Self {
        self.events.push(FaultEvent { at_ns, action });
        self
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no event is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events sorted by `(at_ns, insertion order)` — the order the host
    /// applies them in.
    pub fn sorted_events(&self) -> Vec<FaultEvent> {
        let mut out = self.events.clone();
        out.sort_by_key(|e| e.at_ns);
        out
    }

    /// Check the plan against a host configuration: every referenced NSM and
    /// VM must exist, a restart must be preceded by a crash of the same NSM,
    /// migrations / link changes must target an NSM that is alive at
    /// that point in the schedule (not crashed-and-not-yet-restarted — a
    /// "validated" plan must never strand a VM on a dead NSM), and every
    /// degraded link must pass [`LinkConfig::validate`].
    pub fn validate(&self, cfg: &HostConfig) -> NkResult<()> {
        let mut crashed: Vec<NsmId> = Vec::new();
        for ev in self.sorted_events() {
            match ev.action {
                FaultAction::CrashNsm(nsm) => {
                    if cfg.nsm(nsm).is_none() || crashed.contains(&nsm) {
                        return Err(NkError::BadConfig);
                    }
                    crashed.push(nsm);
                }
                FaultAction::RestartNsm(nsm) => {
                    if !crashed.contains(&nsm) {
                        return Err(NkError::BadConfig);
                    }
                    crashed.retain(|n| *n != nsm);
                }
                FaultAction::MigrateVm { vm, to } => {
                    if cfg.vm(vm).is_none() || cfg.nsm(to).is_none() || crashed.contains(&to) {
                        return Err(NkError::BadConfig);
                    }
                }
                FaultAction::DegradeLink { nsm, link } => {
                    if cfg.nsm(nsm).is_none() || crashed.contains(&nsm) {
                        return Err(NkError::BadConfig);
                    }
                    link.validate()?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NsmConfig, VmConfig, VmToNsmPolicy};

    fn cfg() -> HostConfig {
        HostConfig::new()
            .with_vm(VmConfig::new(VmId(1)))
            .with_nsm(NsmConfig::kernel(NsmId(1)))
            .with_nsm(NsmConfig::kernel(NsmId(2)))
            .with_mapping(VmToNsmPolicy::All(NsmId(1)))
    }

    #[test]
    fn builder_orders_events_by_time() {
        let plan = FaultPlan::new()
            .at(500, FaultAction::RestartNsm(NsmId(1)))
            .at(100, FaultAction::CrashNsm(NsmId(1)));
        let sorted = plan.sorted_events();
        assert_eq!(sorted[0].at_ns, 100);
        assert_eq!(sorted[1].at_ns, 500);
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
    }

    #[test]
    fn crash_then_restart_validates() {
        let plan = FaultPlan::new()
            .at(100, FaultAction::CrashNsm(NsmId(1)))
            .at(
                150,
                FaultAction::MigrateVm {
                    vm: VmId(1),
                    to: NsmId(2),
                },
            )
            .at(500, FaultAction::RestartNsm(NsmId(1)));
        assert!(plan.validate(&cfg()).is_ok());
    }

    #[test]
    fn restart_without_crash_is_rejected() {
        let plan = FaultPlan::new().at(100, FaultAction::RestartNsm(NsmId(1)));
        assert_eq!(plan.validate(&cfg()), Err(NkError::BadConfig));
    }

    #[test]
    fn double_crash_is_rejected() {
        let plan = FaultPlan::new()
            .at(100, FaultAction::CrashNsm(NsmId(1)))
            .at(200, FaultAction::CrashNsm(NsmId(1)));
        assert_eq!(plan.validate(&cfg()), Err(NkError::BadConfig));
    }

    #[test]
    fn unknown_entities_are_rejected() {
        let plan = FaultPlan::new().at(100, FaultAction::CrashNsm(NsmId(9)));
        assert_eq!(plan.validate(&cfg()), Err(NkError::BadConfig));
        let plan = FaultPlan::new().at(
            100,
            FaultAction::MigrateVm {
                vm: VmId(9),
                to: NsmId(1),
            },
        );
        assert_eq!(plan.validate(&cfg()), Err(NkError::BadConfig));
    }

    #[test]
    fn migrating_onto_a_crashed_nsm_is_rejected() {
        // NSM 2 is down between t=100 and t=300: pointing the VM at it in
        // that window would strand the VM on a dead NSM.
        let plan = FaultPlan::new()
            .at(100, FaultAction::CrashNsm(NsmId(2)))
            .at(
                200,
                FaultAction::MigrateVm {
                    vm: VmId(1),
                    to: NsmId(2),
                },
            )
            .at(300, FaultAction::RestartNsm(NsmId(2)));
        assert_eq!(plan.validate(&cfg()), Err(NkError::BadConfig));
        // After the restart the same migration is fine.
        let plan = FaultPlan::new()
            .at(100, FaultAction::CrashNsm(NsmId(2)))
            .at(300, FaultAction::RestartNsm(NsmId(2)))
            .at(
                400,
                FaultAction::MigrateVm {
                    vm: VmId(1),
                    to: NsmId(2),
                },
            );
        assert!(plan.validate(&cfg()).is_ok());
        // Degrading a dead NSM's link is equally meaningless.
        let plan = FaultPlan::new()
            .at(100, FaultAction::CrashNsm(NsmId(1)))
            .at(
                200,
                FaultAction::DegradeLink {
                    nsm: NsmId(1),
                    link: LinkConfig::ideal().with_loss(0.1),
                },
            );
        assert_eq!(plan.validate(&cfg()), Err(NkError::BadConfig));
    }

    #[test]
    fn link_fault_parameters_are_range_checked() {
        let plan = FaultPlan::new().at(
            100,
            FaultAction::DegradeLink {
                nsm: NsmId(1),
                link: LinkConfig::ideal().with_loss(1.5),
            },
        );
        assert_eq!(plan.validate(&cfg()), Err(NkError::BadConfig));
        for (gbps, ok) in [
            (1.0, true),
            (0.0, false),
            (f64::NAN, false),
            (f64::INFINITY, false),
        ] {
            let plan = FaultPlan::new().at(
                100,
                FaultAction::DegradeLink {
                    nsm: NsmId(1),
                    link: LinkConfig::ideal().with_rate_gbps(gbps).with_latency_us(50),
                },
            );
            assert_eq!(plan.validate(&cfg()).is_ok(), ok, "rate {gbps}");
        }
    }
}
