//! Operator control-plane vocabulary: policies and decision events.
//!
//! The paper's central claim is that making the network stack part of the
//! infrastructure lets the *operator* manage it: observe load, elastically
//! add or remove NSM cores ("cores can be readily added to or removed from a
//! NSM", §3), and move tenants between stack instances without guest
//! cooperation. A [`ControlPolicy`] is the knob set the
//! operator hands the control plane; every decision the control plane takes
//! is emitted as a [`ControlEvent`] so tests, logs and dashboards can replay
//! exactly what happened and why.

use crate::error::{NkError, NkResult};
use crate::ids::{NsmId, VmId};

/// A component the control plane can resize.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum ControlTarget {
    /// The CoreEngine NQE switch.
    Engine,
    /// One Network Stack Module.
    Nsm(NsmId),
}

serde::impl_serialize!(
    enum ControlTarget {
        Engine,
        Nsm(nsm),
    }
);

/// One decision taken by the control plane.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ControlAction {
    /// Grow a component's core allocation because smoothed utilisation
    /// crossed the high watermark.
    ScaleUp {
        /// The component being resized.
        target: ControlTarget,
        /// Cores before the decision.
        from_cores: usize,
        /// Cores after the decision.
        to_cores: usize,
        /// The smoothed utilisation that triggered the decision.
        utilisation: f64,
    },
    /// Shrink a component's core allocation because smoothed utilisation
    /// stayed below the low watermark past the cooldown.
    ScaleDown {
        /// The component being resized.
        target: ControlTarget,
        /// Cores before the decision.
        from_cores: usize,
        /// Cores after the decision.
        to_cores: usize,
        /// The smoothed utilisation that triggered the decision.
        utilisation: f64,
    },
    /// Live-migrate a VM off an overloaded NSM onto a less loaded one
    /// (reuses the fault-injection migration path: new connections move,
    /// established ones stay pinned).
    Rebalance {
        /// The VM being migrated.
        vm: VmId,
        /// The NSM it is moving off.
        from: NsmId,
        /// The NSM that takes over its new connections.
        to: NsmId,
    },
}

serde::impl_serialize!(enum ControlAction {
    ScaleUp { target, from_cores, to_cores, utilisation },
    ScaleDown { target, from_cores, to_cores, utilisation },
    Rebalance { vm, from, to },
});

/// A [`ControlAction`] stamped with when it was taken.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ControlEvent {
    /// Virtual time at which the decision applied.
    pub at_ns: u64,
    /// Control epoch (0-based) the decision was taken in.
    pub epoch: u64,
    /// The decision.
    pub action: ControlAction,
}

/// Operator policy driving the autoscaler and the rebalancer.
///
/// All thresholds act on *smoothed* utilisation (a rolling mean over
/// [`ControlPolicy::window`] epochs), and scaling actions per target are
/// spaced at least [`ControlPolicy::cooldown_epochs`] apart — together these
/// give the loop hysteresis so bursty load does not thrash the allocation.
#[derive(Clone, Debug, PartialEq)]
pub struct ControlPolicy {
    /// Length of one control epoch in virtual nanoseconds; the load monitor
    /// samples and the policy runs once per epoch.
    pub epoch_ns: u64,
    /// Rolling-window length (in epochs) for load smoothing.
    pub window: usize,
    /// Scale a component up when its smoothed utilisation exceeds this.
    pub high_watermark: f64,
    /// Scale a component down when its smoothed utilisation falls below
    /// this.
    pub low_watermark: f64,
    /// Cores added or removed per scaling decision.
    pub scale_step: usize,
    /// Floor on any component's core allocation.
    pub min_cores: usize,
    /// Ceiling on any component's core allocation.
    pub max_cores: usize,
    /// Minimum epochs between two scaling decisions for the same target.
    pub cooldown_epochs: u64,
    /// Minimum utilisation gap between the most and least loaded NSM before
    /// the rebalancer migrates a VM.
    pub rebalance_skew: f64,
    /// Budget of VM migrations the rebalancer may issue per epoch.
    pub max_migrations_per_epoch: usize,
    /// VM pairs that must never share an NSM (the rebalancer will not create
    /// such a placement; initial placement is the operator's business).
    pub anti_affinity: Vec<(VmId, VmId)>,
    /// Clock rate (cycles per second per core) of the accounting pool the
    /// utilisation signals are computed against. `None` uses the testbed
    /// clock; tests and examples use small clocks so modest workloads
    /// exercise the watermarks.
    pub pool_clock_hz: Option<u64>,
}

impl Default for ControlPolicy {
    fn default() -> Self {
        ControlPolicy {
            epoch_ns: 1_000_000, // 1 ms
            window: 4,
            high_watermark: 0.75,
            low_watermark: 0.20,
            scale_step: 1,
            min_cores: 1,
            max_cores: 8,
            cooldown_epochs: 4,
            rebalance_skew: 0.50,
            max_migrations_per_epoch: 1,
            anti_affinity: Vec::new(),
            pool_clock_hz: None,
        }
    }
}

impl ControlPolicy {
    /// The default policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the epoch length (builder style).
    pub fn with_epoch_ns(mut self, epoch_ns: u64) -> Self {
        self.epoch_ns = epoch_ns;
        self
    }

    /// Set the smoothing window in epochs (builder style).
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }

    /// Set the scale-up / scale-down watermarks (builder style).
    pub fn with_watermarks(mut self, low: f64, high: f64) -> Self {
        self.low_watermark = low;
        self.high_watermark = high;
        self
    }

    /// Bound the per-component core allocation (builder style).
    pub fn with_core_bounds(mut self, min: usize, max: usize) -> Self {
        self.min_cores = min;
        self.max_cores = max;
        self
    }

    /// Set the scaling cooldown in epochs (builder style).
    pub fn with_cooldown(mut self, epochs: u64) -> Self {
        self.cooldown_epochs = epochs;
        self
    }

    /// Set the rebalancer's skew trigger and per-epoch budget (builder
    /// style).
    pub fn with_rebalance(mut self, skew: f64, max_migrations_per_epoch: usize) -> Self {
        self.rebalance_skew = skew;
        self.max_migrations_per_epoch = max_migrations_per_epoch;
        self
    }

    /// Forbid two VMs from sharing an NSM (builder style).
    pub fn with_anti_affinity(mut self, a: VmId, b: VmId) -> Self {
        self.anti_affinity.push((a, b));
        self
    }

    /// Set the accounting-pool clock rate (builder style).
    pub fn with_pool_clock_hz(mut self, hz: u64) -> Self {
        self.pool_clock_hz = Some(hz);
        self
    }

    /// True when `a` and `b` may not share an NSM.
    pub fn conflicts(&self, a: VmId, b: VmId) -> bool {
        self.anti_affinity
            .iter()
            .any(|&(x, y)| (x == a && y == b) || (x == b && y == a))
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> NkResult<()> {
        if self.epoch_ns == 0 || self.window == 0 || self.scale_step == 0 {
            return Err(NkError::BadConfig);
        }
        if self.min_cores == 0 || self.min_cores > self.max_cores {
            return Err(NkError::BadConfig);
        }
        if !(0.0..=1.0).contains(&self.low_watermark)
            || !(0.0..=1.0).contains(&self.high_watermark)
            || self.low_watermark >= self.high_watermark
        {
            return Err(NkError::BadConfig);
        }
        if !(0.0..=1.0).contains(&self.rebalance_skew) {
            return Err(NkError::BadConfig);
        }
        if self.pool_clock_hz == Some(0) {
            return Err(NkError::BadConfig);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_valid() {
        assert!(ControlPolicy::default().validate().is_ok());
    }

    #[test]
    fn builders_compose_and_validate() {
        let p = ControlPolicy::new()
            .with_epoch_ns(500_000)
            .with_window(2)
            .with_watermarks(0.1, 0.6)
            .with_core_bounds(1, 4)
            .with_cooldown(2)
            .with_rebalance(0.3, 2)
            .with_anti_affinity(VmId(1), VmId(2))
            .with_pool_clock_hz(1_000_000);
        assert!(p.validate().is_ok());
        assert!(p.conflicts(VmId(1), VmId(2)));
        assert!(p.conflicts(VmId(2), VmId(1)), "anti-affinity is symmetric");
        assert!(!p.conflicts(VmId(1), VmId(3)));
    }

    #[test]
    fn invalid_policies_are_rejected() {
        assert!(ControlPolicy::new().with_epoch_ns(0).validate().is_err());
        assert!(ControlPolicy::new().with_window(0).validate().is_err());
        assert!(ControlPolicy::new()
            .with_watermarks(0.8, 0.2)
            .validate()
            .is_err());
        assert!(ControlPolicy::new()
            .with_watermarks(0.2, 1.5)
            .validate()
            .is_err());
        assert!(ControlPolicy::new()
            .with_core_bounds(0, 4)
            .validate()
            .is_err());
        assert!(ControlPolicy::new()
            .with_core_bounds(5, 4)
            .validate()
            .is_err());
        assert!(ControlPolicy::new()
            .with_pool_clock_hz(0)
            .validate()
            .is_err());
        let mut p = ControlPolicy::new();
        p.rebalance_skew = 2.0;
        assert!(p.validate().is_err());
        p = ControlPolicy::new();
        p.scale_step = 0;
        assert!(p.validate().is_err());
    }

    /// The serialized form of each action variant, as a flight-recorder
    /// dump writes it.
    #[test]
    fn actions_serialize_to_pinned_json() {
        for (action, json) in [
            (
                ControlAction::ScaleUp {
                    target: ControlTarget::Nsm(NsmId(1)),
                    from_cores: 1,
                    to_cores: 2,
                    utilisation: 0.9,
                },
                r#"{"ScaleUp":{"target":{"Nsm":1},"from_cores":1,"to_cores":2,"utilisation":0.9}}"#,
            ),
            (
                ControlAction::ScaleDown {
                    target: ControlTarget::Engine,
                    from_cores: 2,
                    to_cores: 1,
                    utilisation: 0.0,
                },
                r#"{"ScaleDown":{"target":"Engine","from_cores":2,"to_cores":1,"utilisation":0.0}}"#,
            ),
            (
                ControlAction::Rebalance {
                    vm: VmId(3),
                    from: NsmId(1),
                    to: NsmId(2),
                },
                r#"{"Rebalance":{"vm":3,"from":1,"to":2}}"#,
            ),
        ] {
            assert_eq!(serde_json::to_string(&action).unwrap(), json);
        }
    }

    #[test]
    fn control_targets_order_engine_first() {
        assert!(ControlTarget::Engine < ControlTarget::Nsm(NsmId(0)));
        assert!(ControlTarget::Nsm(NsmId(1)) < ControlTarget::Nsm(NsmId(2)));
    }
}
