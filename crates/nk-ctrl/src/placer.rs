//! Cluster-scope placement: the per-host control loop, run over hosts.
//!
//! The placer is deliberately a *projection*, not a reimplementation: each
//! host is folded into one pseudo-NSM whose "utilisation" is its placement
//! score, and the existing [`LoadMonitor`] smoothing plus [`Rebalancer`]
//! source/destination/candidate logic (skew trigger, hot-watermark guard,
//! busiest-first candidates, per-VM cooldown, per-epoch budget) then apply
//! unchanged at cluster scope. What changes is only the load signal: a
//! host's score is the mean utilisation of its NSM cores *plus* the weighted
//! utilisation of its uplink, so a host saturating its cross-host trunk is a
//! worse placement target than its spare NSM capacity alone would suggest.

use crate::{EpochSample, LoadMonitor, NsmLoad, Rebalancer};
use nk_types::{
    ClusterPolicy, ControlAction, ControlPolicy, ControlTarget, HostId, NkResult, NsmId, VmId,
};
use std::collections::BTreeMap;

/// Load signals of one host over one placement epoch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HostLoad {
    /// Total cores currently allocated to the host's NSMs.
    pub nsm_cores: usize,
    /// Mean utilisation across the host's alive NSMs this epoch.
    pub nsm_utilisation: f64,
    /// Uplink (cross-host) utilisation this epoch: wire bytes carried over
    /// the uplink divided by its capacity for the epoch.
    pub uplink_utilisation: f64,
    /// Request NQEs parked in stall queues host-wide at sampling time.
    pub queue_depth: u64,
    /// Bytes forwarded this epoch per VM homed on the host. Every resident
    /// VM appears (idle ones with 0), so the map doubles as the placement
    /// snapshot migrations are planned against.
    pub vm_bytes: BTreeMap<VmId, u64>,
}

/// Everything the placer sees about one placement epoch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClusterSample {
    /// Virtual time at the end of the epoch.
    pub now_ns: u64,
    /// Per-host load, for every host alive at sampling time.
    pub hosts: BTreeMap<HostId, HostLoad>,
}

/// A cross-host migration the placer decided on. The cluster layer resolves
/// the destination NSM when executing (the placer reasons about hosts, not
/// about the NSMs inside them).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Migration {
    /// The VM to move.
    pub vm: VmId,
    /// The host it leaves.
    pub from: HostId,
    /// The host that takes over its new connections.
    pub to: HostId,
}

/// One placement decision after the mechanism layer tried to apply it. The
/// placer's [`Migration`]s are requests, not facts: a decision can race
/// reality (the VM already draining, the destination host dead), in which
/// case the cluster skips it and the placer re-observes next epoch. The
/// flight recorder keeps both halves — what was decided and whether it
/// happened — which is exactly the signal a skipped-decision loop hides.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecisionOutcome {
    /// Placement epoch the decision was taken in.
    pub epoch: u64,
    /// The VM the placer wanted to move.
    pub vm: VmId,
    /// The host it was to leave.
    pub from: HostId,
    /// The host that was to take over.
    pub to: HostId,
    /// Whether the mechanism applied the migration.
    pub applied: bool,
}

serde::impl_serialize!(struct DecisionOutcome { epoch, vm, from, to, applied });

/// The cluster placement loop (monitor + rebalancer over hosts).
pub struct Placer {
    policy: ClusterPolicy,
    /// The cluster policy translated into the per-host control vocabulary
    /// the reused machinery consumes.
    inner: ControlPolicy,
    monitor: LoadMonitor,
    rebalancer: Rebalancer,
    /// Epoch each (VM, from, to) migration was last executed in. The
    /// *reverse* pair is checked before a move: a tenant that just
    /// travelled A → B may not bounce B → A until
    /// [`ClusterPolicy::pair_cooldown_epochs`] have passed — the
    /// cluster-scope hysteresis that stops an evacuation from load-following
    /// the tenant straight back.
    last_pair: BTreeMap<(VmId, HostId, HostId), u64>,
    epoch: u64,
}

impl Placer {
    /// Build a placer from a validated policy.
    pub fn new(policy: ClusterPolicy) -> NkResult<Self> {
        policy.validate()?;
        let inner = ControlPolicy::new()
            .with_epoch_ns(policy.epoch_ns)
            .with_window(policy.window)
            .with_watermarks(0.0, policy.hot_watermark)
            .with_cooldown(policy.cooldown_epochs)
            .with_rebalance(policy.spread, policy.max_migrations_per_epoch);
        inner.validate()?;
        let monitor = LoadMonitor::new(policy.window);
        Ok(Placer {
            policy,
            inner,
            monitor,
            rebalancer: Rebalancer::new(),
            last_pair: BTreeMap::new(),
            epoch: 0,
        })
    }

    /// The policy the placer runs under.
    pub fn policy(&self) -> &ClusterPolicy {
        &self.policy
    }

    /// Placement epochs completed so far.
    pub fn epochs(&self) -> u64 {
        self.epoch
    }

    /// Smoothed placement score of a host (0 when unknown).
    pub fn score(&self, host: HostId) -> f64 {
        self.monitor.smoothed(ControlTarget::Nsm(NsmId(host.raw())))
    }

    /// A host's raw placement score for one epoch: NSM load plus weighted
    /// cross-host traffic.
    fn score_of(&self, load: &HostLoad) -> f64 {
        load.nsm_utilisation + self.policy.cross_traffic_weight * load.uplink_utilisation
    }

    /// Run one placement epoch: fold the sample into the rolling windows
    /// and decide migrations, busiest VM first, hottest host → coolest
    /// host, under the cooldown and the per-epoch budget.
    pub fn on_epoch(&mut self, sample: &ClusterSample) -> Vec<Migration> {
        let mut nsms = BTreeMap::new();
        for (host, load) in &sample.hosts {
            nsms.insert(
                NsmId(host.raw()),
                NsmLoad {
                    cores: load.nsm_cores,
                    utilisation: self.score_of(load),
                    queue_depth: load.queue_depth,
                    vm_bytes: load.vm_bytes.clone(),
                },
            );
        }
        let pseudo = EpochSample {
            now_ns: sample.now_ns,
            engine_cores: 0,
            engine_utilisation: 0.0,
            nsms,
        };
        self.monitor.observe(&pseudo);
        let epoch = self.epoch;
        let actions = self
            .rebalancer
            .decide(&self.inner, epoch, &self.monitor, &pseudo);
        self.epoch += 1;
        let candidates = actions.into_iter().filter_map(|action| match action {
            ControlAction::Rebalance { vm, from, to } => Some(Migration {
                vm,
                from: HostId(from.raw()),
                to: HostId(to.raw()),
            }),
            _ => None,
        });
        let mut out = Vec::new();
        for m in candidates {
            // Per-(VM, host-pair) hysteresis: veto the reverse of a recent
            // move. The vetoed VM's per-VM cooldown was already stamped by
            // the rebalancer — extra damping, by design.
            let bounced = self.policy.pair_cooldown_epochs > 0
                && self
                    .last_pair
                    .get(&(m.vm, m.to, m.from))
                    .is_some_and(|&last| {
                        epoch.saturating_sub(last) <= self.policy.pair_cooldown_epochs
                    });
            if bounced {
                continue;
            }
            self.last_pair.insert((m.vm, m.from, m.to), epoch);
            out.push(m);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> ClusterPolicy {
        ClusterPolicy::new()
            .with_window(1)
            .with_thresholds(0.6, 0.4)
            .with_migration_budget(1)
            .with_cooldown(2)
            .with_cross_traffic_weight(0.5)
    }

    fn host_load(util: f64, uplink: f64, vms: &[(u8, u64)]) -> HostLoad {
        HostLoad {
            nsm_cores: 1,
            nsm_utilisation: util,
            uplink_utilisation: uplink,
            queue_depth: 0,
            vm_bytes: vms.iter().map(|&(v, b)| (VmId(v), b)).collect(),
        }
    }

    fn sample(h1: HostLoad, h2: HostLoad) -> ClusterSample {
        ClusterSample {
            now_ns: 0,
            hosts: [(HostId(1), h1), (HostId(2), h2)].into_iter().collect(),
        }
    }

    #[test]
    fn skewed_hosts_migrate_the_busiest_vm() {
        let mut p = Placer::new(policy()).unwrap();
        let s = sample(
            host_load(0.9, 0.0, &[(1, 100), (2, 900)]),
            host_load(0.1, 0.0, &[(3, 50)]),
        );
        let migrations = p.on_epoch(&s);
        assert_eq!(
            migrations,
            vec![Migration {
                vm: VmId(2),
                from: HostId(1),
                to: HostId(2),
            }]
        );
        assert!(p.score(HostId(1)) > p.score(HostId(2)));
        assert_eq!(p.epochs(), 1);
    }

    /// Cross-host traffic is part of the score: a host whose NSM cores look
    /// comfortable but whose uplink is saturated reads as hot.
    #[test]
    fn uplink_saturation_makes_a_host_hot() {
        let mut p = Placer::new(policy()).unwrap();
        // NSM utilisation alone (0.5) is under the 0.6 hot watermark; the
        // weighted uplink term (0.5 * 0.8) pushes the score to 0.9.
        let s = sample(host_load(0.5, 0.8, &[(1, 500)]), host_load(0.1, 0.0, &[]));
        assert_eq!(p.on_epoch(&s).len(), 1);

        // Without the uplink term the same host stays put.
        let mut p = Placer::new(policy()).unwrap();
        let s = sample(host_load(0.5, 0.0, &[(1, 500)]), host_load(0.1, 0.0, &[]));
        assert!(p.on_epoch(&s).is_empty());
    }

    #[test]
    fn balanced_hosts_stay_put() {
        let mut p = Placer::new(policy()).unwrap();
        let s = sample(
            host_load(0.8, 0.0, &[(1, 100)]),
            host_load(0.7, 0.0, &[(2, 100)]),
        );
        assert!(p.on_epoch(&s).is_empty(), "spread under threshold");
    }

    /// The reused per-VM cooldown spaces repeat migrations of one VM.
    #[test]
    fn migration_cooldown_applies_per_vm() {
        let mut p = Placer::new(policy()).unwrap();
        let hot_one = || sample(host_load(0.9, 0.0, &[(1, 900)]), host_load(0.05, 0.0, &[]));
        assert_eq!(p.on_epoch(&hot_one()).len(), 1);
        // The VM keeps showing up hot (its load followed it back in the
        // sample); within the cooldown it must not bounce.
        assert!(p.on_epoch(&hot_one()).is_empty());
        assert!(p.on_epoch(&hot_one()).is_empty());
        assert_eq!(p.on_epoch(&hot_one()).len(), 1);
    }

    /// The ping-pong regression: after an evacuation the load follows the
    /// tenant, so the reverse host looks hot next. The per-VM cooldown
    /// alone expires quickly; the per-(VM, host-pair) cooldown must keep
    /// vetoing the bounce-back until it expires too — while leaving other
    /// VMs and same-direction moves unaffected.
    #[test]
    fn pair_cooldown_blocks_the_bounce_back() {
        let pol = policy().with_cooldown(1).with_pair_cooldown(5);
        let mut p = Placer::new(pol).unwrap();

        // Epoch 0: host 1 is hot, vm1 evacuates 1 → 2.
        let s = sample(host_load(0.9, 0.0, &[(1, 900)]), host_load(0.05, 0.0, &[]));
        assert_eq!(
            p.on_epoch(&s),
            vec![Migration {
                vm: VmId(1),
                from: HostId(1),
                to: HostId(2),
            }]
        );

        // The load followed vm1: host 2 is now the hot one, every epoch.
        let back = || sample(host_load(0.05, 0.0, &[]), host_load(0.9, 0.0, &[(1, 900)]));
        // Epoch 1: per-VM cooldown (1) blocks; epochs 2..=5: the per-VM
        // cooldown has expired but the pair cooldown still vetoes the
        // reverse move (and each veto leaves the budget unspent).
        for epoch in 1..=5 {
            assert!(
                p.on_epoch(&back()).is_empty(),
                "epoch {epoch}: the bounce-back must be vetoed"
            );
        }
        // A *different* VM on the hot host is not pair-blocked.
        let other = sample(host_load(0.05, 0.0, &[]), host_load(0.9, 0.0, &[(2, 900)]));
        assert_eq!(
            p.on_epoch(&other),
            vec![Migration {
                vm: VmId(2),
                from: HostId(2),
                to: HostId(1),
            }]
        );
        // Once the pair cooldown expires the reverse move is legal again.
        let mut moved = false;
        for _ in 0..8 {
            if p.on_epoch(&back()).iter().any(|m| m.vm == VmId(1)) {
                moved = true;
                break;
            }
        }
        assert!(moved, "the pair cooldown must expire eventually");
    }

    /// `pair_cooldown_epochs == 0` disables the pair guard entirely: only
    /// the per-VM cooldown spaces the bounce.
    #[test]
    fn zero_pair_cooldown_disables_the_guard() {
        let pol = policy().with_cooldown(1).with_pair_cooldown(0);
        let mut p = Placer::new(pol).unwrap();
        let s = sample(host_load(0.9, 0.0, &[(1, 900)]), host_load(0.05, 0.0, &[]));
        assert_eq!(p.on_epoch(&s).len(), 1);
        let back = || sample(host_load(0.05, 0.0, &[]), host_load(0.9, 0.0, &[(1, 900)]));
        assert!(p.on_epoch(&back()).is_empty(), "per-VM cooldown epoch 1");
        assert_eq!(p.on_epoch(&back()).len(), 1, "bounce legal at epoch 2");
    }

    #[test]
    fn smoothing_window_defers_first_decision() {
        let pol = policy().with_window(2);
        let mut p = Placer::new(pol).unwrap();
        let s = sample(host_load(1.0, 0.0, &[(1, 900)]), host_load(0.0, 0.0, &[]));
        assert!(p.on_epoch(&s).is_empty(), "window not full yet");
        assert_eq!(p.on_epoch(&s).len(), 1);
    }

    #[test]
    fn invalid_policy_is_rejected() {
        assert!(Placer::new(ClusterPolicy::new().with_window(0)).is_err());
        assert!(Placer::new(ClusterPolicy::new().with_thresholds(0.0, 0.5)).is_err());
    }
}
