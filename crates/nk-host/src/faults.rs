//! The host-side fault injector: applying a [`FaultPlan`] deterministically.
//!
//! A [`FaultInjector`] holds the plan's events sorted by time and hands out
//! the ones that have become due. The host pulls due events at the start of
//! every step — in the step's *inject* phase, before any datapath
//! component is polled — so a fault always lands at the same point in the
//! poll order for a given virtual time, and the whole execution replays
//! bit-for-bit from the plan plus the fabric seed.

use nk_types::faults::{FaultAction, FaultEvent, FaultPlan};

/// Counters describing what a fault injector has applied so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Total fault events handed to the host.
    pub applied: u64,
    /// NSM crashes.
    pub crashes: u64,
    /// NSM restarts.
    pub restarts: u64,
    /// Live VM migrations.
    pub migrations: u64,
    /// Mid-flight link reconfigurations.
    pub link_changes: u64,
}

/// Replays a [`FaultPlan`] against virtual time.
#[derive(Clone, Debug, Default)]
pub struct FaultInjector {
    /// Events sorted by `(at_ns, insertion order)`.
    events: Vec<FaultEvent>,
    /// Index of the next event not yet applied.
    next: usize,
    stats: FaultStats,
}

impl FaultInjector {
    /// An injector with nothing scheduled.
    pub fn idle() -> Self {
        Self::default()
    }

    /// An injector replaying `plan`.
    pub fn new(plan: &FaultPlan) -> Self {
        FaultInjector {
            events: plan.sorted_events(),
            next: 0,
            stats: FaultStats::default(),
        }
    }

    /// Events not yet applied.
    pub fn pending(&self) -> usize {
        self.events.len() - self.next
    }

    /// Counters of what has been applied.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Hand out the next event due at or before `now_ns`, if any, recording
    /// it as applied. Call in a loop to drain everything due this step.
    pub fn take_due(&mut self, now_ns: u64) -> Option<FaultAction> {
        let ev = self.events.get(self.next)?;
        if ev.at_ns > now_ns {
            return None;
        }
        let action = ev.action;
        self.next += 1;
        self.stats.applied += 1;
        match action {
            FaultAction::CrashNsm(_) => self.stats.crashes += 1,
            FaultAction::RestartNsm(_) => self.stats.restarts += 1,
            FaultAction::MigrateVm { .. } => self.stats.migrations += 1,
            FaultAction::DegradeLink { .. } => self.stats.link_changes += 1,
        }
        Some(action)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nk_types::NsmId;

    #[test]
    fn takes_events_in_time_order_once() {
        let plan = FaultPlan::new()
            .at(300, FaultAction::RestartNsm(NsmId(1)))
            .at(100, FaultAction::CrashNsm(NsmId(1)));
        let mut inj = FaultInjector::new(&plan);
        assert_eq!(inj.pending(), 2);
        assert_eq!(inj.take_due(50), None);
        assert_eq!(inj.take_due(100), Some(FaultAction::CrashNsm(NsmId(1))));
        // Not due yet, even though it is next in line.
        assert_eq!(inj.take_due(100), None);
        assert_eq!(inj.take_due(1_000), Some(FaultAction::RestartNsm(NsmId(1))));
        assert_eq!(inj.take_due(u64::MAX), None);
        assert_eq!(inj.pending(), 0);
        let stats = inj.stats();
        assert_eq!(stats.applied, 2);
        assert_eq!(stats.crashes, 1);
        assert_eq!(stats.restarts, 1);
    }

    #[test]
    fn multiple_events_at_one_instant_drain_in_insertion_order() {
        let plan = FaultPlan::new()
            .at(100, FaultAction::CrashNsm(NsmId(1)))
            .at(
                100,
                FaultAction::MigrateVm {
                    vm: nk_types::VmId(1),
                    to: NsmId(2),
                },
            );
        let mut inj = FaultInjector::new(&plan);
        assert_eq!(inj.take_due(100), Some(FaultAction::CrashNsm(NsmId(1))));
        assert!(matches!(
            inj.take_due(100),
            Some(FaultAction::MigrateVm { .. })
        ));
        assert_eq!(inj.stats().migrations, 1);
    }
}
