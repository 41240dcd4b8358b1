//! The operator control plane.
//!
//! NetKernel's architectural bet is that once the network stack is
//! provider-owned, the *operator* can manage it like any other piece of
//! infrastructure: watch its load, grow and shrink its cores, and move
//! tenants between stack instances without the guest noticing (paper §3).
//! The datapath and the migration mechanism exist elsewhere in the
//! workspace; this crate is the part that *decides*. It is deliberately
//! mechanism-free — it consumes plain load samples and returns plain
//! [`ControlAction`]s — so the host stays the single place that touches
//! queues, stacks and switches.
//!
//! Three cooperating parts, run once per control epoch:
//!
//! * [`monitor::LoadMonitor`] — folds per-epoch samples (per-NSM core
//!   utilisation, request-queue depth, per-VM throughput) into rolling
//!   windows, so decisions see smoothed load, not one bursty epoch;
//! * [`autoscale::Autoscaler`] — compares smoothed utilisation against the
//!   policy's watermarks and resizes CoreEngine / NSM core allocations,
//!   with per-target cooldowns for hysteresis;
//! * [`rebalance::Rebalancer`] — computes load skew across NSMs and
//!   live-migrates VMs off the hottest instance onto the coolest, under an
//!   anti-affinity constraint and a per-epoch migration budget.
//!
//! [`evacuate`] adds the multi-step operation the one-shot decisions above
//! cannot express: clearing a whole host compiles into an [`EvacPlan`] —
//! an ordered list of typed actions, each with a revert, paced into bounded
//! waves — run in list order, so a mid-plan failure unwinds every completed
//! action in reverse order. The cluster layer supplies the mechanism; this
//! crate owns the plan's shape and its [`PlanEvent`] log,
//! which a [`PlanRun`] records.
//!
//! Everything is deterministic: state lives in `BTreeMap`s, decisions
//! derive only from the sampled history and the policy, and the same sample
//! stream always yields the same action stream — the property the
//! byte-identical scenario replays build on.

#![forbid(unsafe_code)]

pub mod autoscale;
pub mod evacuate;
pub mod monitor;
pub mod rebalance;

use nk_types::{ControlAction, ControlPolicy, NkResult, NsmId, VmId};
use std::collections::BTreeMap;

pub use autoscale::Autoscaler;
pub use evacuate::{
    EvacAction, EvacMode, EvacMove, EvacPlan, EvacStep, PlanEvent, PlanEventKind, PlanRun,
};
pub use monitor::LoadMonitor;
pub use rebalance::Rebalancer;

/// Load signals of one NSM over one control epoch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NsmLoad {
    /// Cores currently allocated to the NSM.
    pub cores: usize,
    /// Fraction of the NSM's offered cycles spent on work this epoch.
    pub utilisation: f64,
    /// Request NQEs parked in stall queues towards this NSM at sampling
    /// time. Backpressure is the autoscaler's second overload signal: it
    /// forces a scale-up and vetoes a scale-down regardless of utilisation.
    pub queue_depth: u64,
    /// Bytes forwarded this epoch per VM currently mapped to the NSM.
    /// Every mapped VM appears, idle ones with 0, so the map doubles as the
    /// placement snapshot the rebalancer plans against.
    pub vm_bytes: BTreeMap<VmId, u64>,
}

/// Everything the control plane sees about one epoch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EpochSample {
    /// Virtual time at the end of the epoch.
    pub now_ns: u64,
    /// Cores currently allocated to CoreEngine.
    pub engine_cores: usize,
    /// CoreEngine utilisation this epoch.
    pub engine_utilisation: f64,
    /// Per-NSM load, for every NSM alive at sampling time.
    pub nsms: BTreeMap<NsmId, NsmLoad>,
}

/// The assembled control plane (monitor + autoscaler + rebalancer).
pub struct ControlPlane {
    policy: ControlPolicy,
    monitor: LoadMonitor,
    autoscaler: Autoscaler,
    rebalancer: Rebalancer,
    epoch: u64,
}

impl ControlPlane {
    /// Build a control plane from a validated policy.
    pub fn new(policy: ControlPolicy) -> NkResult<Self> {
        policy.validate()?;
        let monitor = LoadMonitor::new(policy.window);
        Ok(ControlPlane {
            policy,
            monitor,
            autoscaler: Autoscaler::new(),
            rebalancer: Rebalancer::new(),
            epoch: 0,
        })
    }

    /// The policy the plane runs under.
    pub fn policy(&self) -> &ControlPolicy {
        &self.policy
    }

    /// Epochs completed so far.
    pub fn epochs(&self) -> u64 {
        self.epoch
    }

    /// The load monitor (smoothed views for observability).
    pub fn monitor(&self) -> &LoadMonitor {
        &self.monitor
    }

    /// Run one control epoch: fold `sample` into the rolling windows, then
    /// let the autoscaler and the rebalancer decide. Returns the actions in
    /// the order they should be applied (scaling first, then migrations —
    /// a freshly grown NSM is a better migration target).
    pub fn on_epoch(&mut self, sample: &EpochSample) -> Vec<ControlAction> {
        self.monitor.observe(sample);
        let epoch = self.epoch;
        let mut actions = self
            .autoscaler
            .decide(&self.policy, epoch, &self.monitor, sample);
        actions.extend(
            self.rebalancer
                .decide(&self.policy, epoch, &self.monitor, sample),
        );
        self.epoch += 1;
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nk_types::ControlTarget;

    fn sample(nsm1_util: f64, nsm2_util: f64) -> EpochSample {
        let mut nsms = BTreeMap::new();
        nsms.insert(
            NsmId(1),
            NsmLoad {
                cores: 2,
                utilisation: nsm1_util,
                queue_depth: 0,
                vm_bytes: [(VmId(1), 1000u64), (VmId(2), 900u64)]
                    .into_iter()
                    .collect(),
            },
        );
        nsms.insert(
            NsmId(2),
            NsmLoad {
                cores: 2,
                utilisation: nsm2_util,
                queue_depth: 0,
                vm_bytes: BTreeMap::new(),
            },
        );
        EpochSample {
            now_ns: 0,
            engine_cores: 1,
            engine_utilisation: 0.3,
            nsms,
        }
    }

    /// A sustained overload produces a scale-up and a migration in the same
    /// epoch, in that order; an idle stretch later produces a scale-down.
    #[test]
    fn plane_scales_up_rebalances_then_scales_down() {
        let policy = ControlPolicy::new()
            .with_window(2)
            .with_watermarks(0.2, 0.7)
            .with_core_bounds(1, 4)
            .with_cooldown(1)
            .with_rebalance(0.4, 1);
        let mut plane = ControlPlane::new(policy).unwrap();

        // Epoch 0: window not full yet — no decisions.
        assert!(plane.on_epoch(&sample(1.0, 0.0)).is_empty());
        // Epoch 1: overload is now sustained.
        let actions = plane.on_epoch(&sample(1.0, 0.0));
        assert!(
            matches!(
                actions[0],
                ControlAction::ScaleUp {
                    target: ControlTarget::Nsm(NsmId(1)),
                    from_cores: 2,
                    to_cores: 3,
                    ..
                }
            ),
            "{actions:?}"
        );
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, ControlAction::Rebalance { from: NsmId(1), .. })),
            "{actions:?}"
        );

        // Load collapses; after the window refills with idle samples the
        // autoscaler shrinks the allocation again.
        let mut saw_scale_down = false;
        for _ in 0..4 {
            let actions = plane.on_epoch(&sample(0.05, 0.05));
            saw_scale_down |= actions
                .iter()
                .any(|a| matches!(a, ControlAction::ScaleDown { .. }));
        }
        assert!(saw_scale_down);
        assert_eq!(plane.epochs(), 6);
    }

    #[test]
    fn invalid_policy_is_rejected() {
        let bad = ControlPolicy::new().with_watermarks(0.9, 0.1);
        assert!(ControlPlane::new(bad).is_err());
    }
}
