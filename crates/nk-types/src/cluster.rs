//! Cluster-scope vocabulary: multi-host configurations, placement policy
//! and the cluster event log.
//!
//! The paper's framing is that NSMs turn the network stack into
//! *infrastructure* — and infrastructure is operated at cluster scale, not
//! per host. A [`ClusterConfig`] describes a set of [`HostConfig`]s joined
//! by an inter-host fabric (each host's virtual switch gets an uplink into a
//! top-of-rack switch), a [`ClusterPolicy`] drives the placement loop that
//! extends the per-host control plane to cluster scope, and every placement
//! decision — cross-host VM migration, drain completion, scale-to-zero of a
//! drained NSM share — is recorded as a [`ClusterEvent`] so a whole cluster
//! run can be replayed and digested deterministically.

use crate::config::{valid_rate_gbps, HostConfig, MAX_LINK_LATENCY_US};
use crate::error::{NkError, NkResult};
use crate::ids::{HostId, NsmId, VmId};
use serde::{Deserialize, Serialize};

/// Placement policy driving the cluster-scope control loop.
///
/// The placer scores each host by the load of its NSMs *plus* the weighted
/// utilisation of its uplink: a host already pushing heavy cross-host
/// traffic is a worse home for more tenants even when its NSM cores have
/// headroom. Migrations fire only when the smoothed score gap between the
/// hottest and coolest host exceeds [`ClusterPolicy::spread`] and the source
/// is above [`ClusterPolicy::hot_watermark`] — the same hysteresis shape as
/// the per-host rebalancer, because it *is* the per-host rebalancer run over
/// hosts instead of NSMs.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClusterPolicy {
    /// Length of one placement epoch in virtual nanoseconds.
    pub epoch_ns: u64,
    /// Rolling-window length (in epochs) for host-load smoothing.
    pub window: usize,
    /// A migration source must exceed this smoothed score.
    pub hot_watermark: f64,
    /// Minimum smoothed score gap between the most and least loaded host
    /// before a VM migrates.
    pub spread: f64,
    /// Budget of cross-host migrations per placement epoch.
    pub max_migrations_per_epoch: usize,
    /// Minimum epochs between two migrations of the same VM.
    pub cooldown_epochs: u64,
    /// Minimum epochs before a VM may migrate *back* along the reverse of a
    /// pair it just travelled (host A → B blocks B → A for this long). This
    /// is the cluster-scope hysteresis of the ROADMAP's placement-stability
    /// item: load follows a migrated tenant, so without a per-(VM,
    /// host-pair) cooldown the placer evacuates a hot host and then
    /// ping-pongs the tenant straight back. `0` disables the guard.
    pub pair_cooldown_epochs: u64,
    /// Weight of uplink (cross-host traffic) utilisation in the host score.
    pub cross_traffic_weight: f64,
    /// Clock rate of the accounting pools the host scores derive from.
    /// `None` uses the testbed clock; tests use small clocks so modest
    /// workloads exercise the thresholds.
    pub pool_clock_hz: Option<u64>,
}

impl Default for ClusterPolicy {
    fn default() -> Self {
        ClusterPolicy {
            epoch_ns: 1_000_000, // 1 ms
            window: 4,
            hot_watermark: 0.60,
            spread: 0.40,
            max_migrations_per_epoch: 1,
            cooldown_epochs: 4,
            pair_cooldown_epochs: 8,
            cross_traffic_weight: 0.50,
            pool_clock_hz: None,
        }
    }
}

impl ClusterPolicy {
    /// The default policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the placement epoch length (builder style).
    pub fn with_epoch_ns(mut self, epoch_ns: u64) -> Self {
        self.epoch_ns = epoch_ns;
        self
    }

    /// Set the smoothing window in epochs (builder style).
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }

    /// Set the hot watermark and spread trigger (builder style).
    pub fn with_thresholds(mut self, hot_watermark: f64, spread: f64) -> Self {
        self.hot_watermark = hot_watermark;
        self.spread = spread;
        self
    }

    /// Set the per-epoch migration budget (builder style).
    pub fn with_migration_budget(mut self, max_migrations_per_epoch: usize) -> Self {
        self.max_migrations_per_epoch = max_migrations_per_epoch;
        self
    }

    /// Set the per-VM migration cooldown in epochs (builder style).
    pub fn with_cooldown(mut self, epochs: u64) -> Self {
        self.cooldown_epochs = epochs;
        self
    }

    /// Set the per-(VM, host-pair) reverse-migration cooldown in epochs
    /// (builder style). `0` disables it.
    pub fn with_pair_cooldown(mut self, epochs: u64) -> Self {
        self.pair_cooldown_epochs = epochs;
        self
    }

    /// Set the cross-host traffic weight in the host score (builder style).
    pub fn with_cross_traffic_weight(mut self, weight: f64) -> Self {
        self.cross_traffic_weight = weight;
        self
    }

    /// Set the accounting-pool clock rate (builder style).
    pub fn with_pool_clock_hz(mut self, hz: u64) -> Self {
        self.pool_clock_hz = Some(hz);
        self
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> NkResult<()> {
        if self.epoch_ns == 0 || self.window == 0 {
            return Err(NkError::BadConfig);
        }
        if !(0.0..=1.0).contains(&self.hot_watermark) || self.hot_watermark == 0.0 {
            return Err(NkError::BadConfig);
        }
        if !(0.0..=1.0).contains(&self.spread) {
            return Err(NkError::BadConfig);
        }
        if !(0.0..=1.0).contains(&self.cross_traffic_weight) {
            return Err(NkError::BadConfig);
        }
        if self.pool_clock_hz == Some(0) {
            return Err(NkError::BadConfig);
        }
        Ok(())
    }
}

/// Flight-recorder shape: how much history the always-on observability
/// layer retains. All buffers are fixed-capacity rings, so an enabled
/// recorder bounds its memory regardless of run length.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ObsConfig {
    /// Capture anything at all. `false` turns every hook into a no-op (the
    /// overhead-comparison baseline of nkbench's `obs.idle_step_overhead_us`).
    pub enabled: bool,
    /// Event-ring capacity: the newest `event_capacity` cluster / control /
    /// plan / fault events are retained.
    pub event_capacity: usize,
    /// How many sealed latency epochs the recorder keeps.
    pub latency_epochs: usize,
    /// Virtual-time length of one recorder latency epoch. Independent of
    /// the placement epoch so latency aggregation works without a policy.
    pub epoch_ns: u64,
    /// Top-K capacity of the hot-flow table.
    pub flow_k: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: true,
            event_capacity: 4096,
            latency_epochs: 64,
            epoch_ns: 1_000_000,
            flow_k: 16,
        }
    }
}

impl ObsConfig {
    /// The default always-on shape.
    pub fn new() -> Self {
        Self::default()
    }

    /// A disabled recorder: every capture hook becomes a no-op.
    pub fn disabled() -> Self {
        ObsConfig {
            enabled: false,
            ..Self::default()
        }
    }

    /// Set the recorder latency-epoch length (builder style).
    pub fn with_epoch_ns(mut self, ns: u64) -> Self {
        self.epoch_ns = ns;
        self
    }

    /// Validate internal consistency. An enabled recorder with any
    /// zero-capacity ring is a configuration error: a capacity-0 ring would
    /// silently record nothing while claiming to be on.
    pub fn validate(&self) -> NkResult<()> {
        if !self.enabled {
            return Ok(());
        }
        if self.event_capacity == 0
            || self.latency_epochs == 0
            || self.epoch_ns == 0
            || self.flow_k == 0
        {
            return Err(NkError::BadConfig);
        }
        Ok(())
    }
}

/// Full description of one NetKernel cluster: hosts behind a top-of-rack
/// switch, the uplink characteristics, and an optional placement policy.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// The hosts, each carrying its own [`HostConfig::host_id`].
    pub hosts: Vec<HostConfig>,
    /// Rate of each host's uplink into the top-of-rack switch, in Gbps.
    pub uplink_rate_gbps: f64,
    /// One-way latency of each uplink, in microseconds.
    pub uplink_latency_us: u64,
    /// Upper bound on interleaved poll rounds per cluster step (the
    /// cluster-level analogue of [`HostConfig::max_poll_rounds`]).
    pub max_rounds: usize,
    /// OS threads busy in a poll phase of the cluster datapath, the caller
    /// of the step included (hosts are the unit of parallelism; rounds are
    /// separated by barriers, so results are byte-identical for any value).
    /// `1` — the default — is the serial reference: the caller alone.
    pub threads: usize,
    /// Has no effect: a whole host is the one parallel unit. The field
    /// stays, defaulting to `false`, because the benchmark still sets it
    /// and `Cluster::shard_within_hosts` echoes it back.
    #[serde(default)]
    pub shard_within_hosts: bool,
    /// Cluster placement policy. `None` leaves placement static (hosts may
    /// still run their own per-host control planes).
    pub policy: Option<ClusterPolicy>,
    /// Flight-recorder shape. On by default; see [`ObsConfig`].
    pub obs: ObsConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            hosts: Vec::new(),
            uplink_rate_gbps: crate::constants::LINE_RATE_GBPS,
            uplink_latency_us: 0,
            max_rounds: crate::constants::DEFAULT_POLL_ROUNDS,
            threads: 1,
            shard_within_hosts: false,
            policy: None,
            obs: ObsConfig::default(),
        }
    }
}

impl ClusterConfig {
    /// An empty cluster with ideal full-rate uplinks.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a host; its [`HostConfig::host_id`] is its cluster identity
    /// (builder style).
    pub fn with_host(mut self, host: HostConfig) -> Self {
        self.hosts.push(host);
        self
    }

    /// Set the uplink one-way latency (builder style).
    pub fn with_uplink_latency_us(mut self, us: u64) -> Self {
        self.uplink_latency_us = us;
        self
    }

    /// Keep `threads` OS threads busy in a poll phase, the caller included
    /// (builder style). Determinism is preserved for any value; `1` is the
    /// serial reference.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Set [`ClusterConfig::shard_within_hosts`], which has no effect
    /// (builder style).
    pub fn with_shard_within_hosts(mut self, on: bool) -> Self {
        self.shard_within_hosts = on;
        self
    }

    /// Enable the cluster placement loop with `policy` (builder style).
    pub fn with_policy(mut self, policy: ClusterPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Set the flight-recorder shape (builder style). The recorder is on
    /// by default; pass [`ObsConfig::disabled`] to turn every capture hook
    /// into a no-op.
    pub fn with_obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Look up a host's configuration.
    pub fn host(&self, id: HostId) -> Option<&HostConfig> {
        self.hosts.iter().find(|h| h.host_id == id)
    }

    /// The host a VM is initially provisioned on.
    pub fn home_of(&self, vm: VmId) -> Option<HostId> {
        self.hosts
            .iter()
            .find(|h| h.vm(vm).is_some())
            .map(|h| h.host_id)
    }

    /// Validate internal consistency: at least one host, unique host ids,
    /// cluster-wide unique VM ids (a migrating VM keeps its identity), every
    /// host valid on its own, sane uplink parameters.
    pub fn validate(&self) -> NkResult<()> {
        if self.hosts.is_empty() {
            return Err(NkError::BadConfig);
        }
        let mut host_ids = std::collections::BTreeSet::new();
        let mut vm_ids = std::collections::BTreeSet::new();
        for host in &self.hosts {
            if !host_ids.insert(host.host_id) {
                return Err(NkError::BadConfig);
            }
            host.validate()?;
            for vm in &host.vms {
                if !vm_ids.insert(vm.id) {
                    return Err(NkError::BadConfig);
                }
            }
        }
        if !valid_rate_gbps(self.uplink_rate_gbps)
            || self.uplink_latency_us > MAX_LINK_LATENCY_US
            || self.max_rounds == 0
            || self.threads == 0
        {
            return Err(NkError::BadConfig);
        }
        if let Some(policy) = &self.policy {
            policy.validate()?;
        }
        self.obs.validate()?;
        Ok(())
    }
}

/// One decision taken (or milestone reached) by the cluster control loop.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum ClusterAction {
    /// Live-migrate a VM to another host: its state is exported and
    /// re-imported, new connections land on `to_nsm` on the destination
    /// host, and the source enters connection draining.
    MigrateVm {
        /// The VM being migrated.
        vm: VmId,
        /// The host it is leaving.
        from: HostId,
        /// The host that takes over its new connections.
        to: HostId,
        /// The destination host's NSM serving the VM after the move.
        to_nsm: NsmId,
    },
    /// A migrated VM's pinned-connection count on the source host reached
    /// zero: its source-side share is retired.
    DrainComplete {
        /// The drained VM.
        vm: VmId,
        /// The host it fully left.
        host: HostId,
        /// The NSM that was serving its pinned connections.
        nsm: NsmId,
    },
    /// A fully drained NSM (no mapped VMs, no pinned connections) had its
    /// core share scaled to zero.
    ScaleToZero {
        /// The host owning the NSM.
        host: HostId,
        /// The NSM whose share retired.
        nsm: NsmId,
    },
    /// Warm-migrate a VM to another host: after a freeze window quiesced
    /// the in-flight frames, the live state of every pinned connection was
    /// exported from the source and the fabric rerouted the connections'
    /// addresses towards the destination. Pinned connections *move* instead
    /// of draining, so the source share empties immediately.
    WarmMigrateVm {
        /// The VM being migrated.
        vm: VmId,
        /// The host it is leaving.
        from: HostId,
        /// The host taking over all of its connections, old and new.
        to: HostId,
        /// The destination host's NSM serving the VM after the move.
        to_nsm: NsmId,
        /// Pinned connections transplanted with the VM.
        connections: u32,
    },
    /// The warm handover completed: every transplanted connection is
    /// installed and serving on the destination host. Emitted in the same
    /// control epoch as the matching [`ClusterAction::WarmMigrateVm`] — a
    /// warm migration has no drain wait.
    WarmHandoverComplete {
        /// The migrated VM.
        vm: VmId,
        /// Its new home.
        to: HostId,
        /// Connections serving there.
        connections: u32,
    },
    /// A planned evacuation committed: every VM homed on the host moved off
    /// it (warm where the source share was exclusive, drained otherwise).
    /// The per-step record lives in the plan event log; this is the
    /// cluster-visible milestone.
    HostEvacuated {
        /// The cleared host.
        host: HostId,
        /// VMs moved off it.
        vms: u32,
        /// How many travelled warm (connections transplanted).
        warm: u32,
        /// How many travelled drained.
        drained: u32,
    },
    /// A host died (fault injection or operator action): its instance, its
    /// ToR trunk and every VM home pointing at it are gone. Connections it
    /// served are lost; in-flight evacuations involving it roll back.
    HostKilled {
        /// The host that died.
        host: HostId,
    },
}

/// A [`ClusterAction`] stamped with when it was taken.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClusterEvent {
    /// Virtual time at which the action applied.
    pub at_ns: u64,
    /// Placement epoch (0-based) the action belongs to.
    pub epoch: u64,
    /// The action.
    pub action: ClusterAction,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NsmConfig, VmConfig, VmToNsmPolicy};

    fn host(id: u8, vm: u8) -> HostConfig {
        HostConfig::new()
            .with_host_id(HostId(id))
            .with_vm(VmConfig::new(VmId(vm)))
            .with_nsm(NsmConfig::kernel(NsmId(1)))
            .with_mapping(VmToNsmPolicy::All(NsmId(1)))
    }

    #[test]
    fn default_policy_is_valid() {
        assert!(ClusterPolicy::default().validate().is_ok());
    }

    #[test]
    fn policy_builders_compose_and_validate() {
        let p = ClusterPolicy::new()
            .with_epoch_ns(500_000)
            .with_window(2)
            .with_thresholds(0.5, 0.3)
            .with_migration_budget(2)
            .with_cooldown(1)
            .with_pair_cooldown(6)
            .with_cross_traffic_weight(0.25)
            .with_pool_clock_hz(1_000_000);
        assert!(p.validate().is_ok());
        assert_eq!(p.max_migrations_per_epoch, 2);
        assert_eq!(p.pair_cooldown_epochs, 6);
    }

    #[test]
    fn invalid_policies_are_rejected() {
        assert!(ClusterPolicy::new().with_epoch_ns(0).validate().is_err());
        assert!(ClusterPolicy::new().with_window(0).validate().is_err());
        assert!(ClusterPolicy::new()
            .with_thresholds(0.0, 0.3)
            .validate()
            .is_err());
        assert!(ClusterPolicy::new()
            .with_thresholds(1.5, 0.3)
            .validate()
            .is_err());
        assert!(ClusterPolicy::new()
            .with_thresholds(0.6, 1.5)
            .validate()
            .is_err());
        assert!(ClusterPolicy::new()
            .with_cross_traffic_weight(2.0)
            .validate()
            .is_err());
        assert!(ClusterPolicy::new()
            .with_pool_clock_hz(0)
            .validate()
            .is_err());
    }

    #[test]
    fn cluster_config_validates_and_resolves_homes() {
        let cfg = ClusterConfig::new()
            .with_host(host(1, 1))
            .with_host(host(2, 2));
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.home_of(VmId(2)), Some(HostId(2)));
        assert_eq!(cfg.home_of(VmId(9)), None);
        assert!(cfg.host(HostId(1)).is_some());
        assert!(cfg.host(HostId(9)).is_none());
    }

    #[test]
    fn duplicate_hosts_or_vms_are_rejected() {
        let empty = ClusterConfig::new();
        assert_eq!(empty.validate(), Err(NkError::BadConfig));

        let dup_host = ClusterConfig::new()
            .with_host(host(1, 1))
            .with_host(host(1, 2));
        assert_eq!(dup_host.validate(), Err(NkError::BadConfig));

        // VM ids are cluster-wide identities: two hosts may not both own
        // vm1, otherwise a migration could collide with a resident.
        let dup_vm = ClusterConfig::new()
            .with_host(host(1, 1))
            .with_host(host(2, 1));
        assert_eq!(dup_vm.validate(), Err(NkError::BadConfig));

        for gbps in [0.0, f64::NAN, f64::INFINITY] {
            let mut dead_uplink = ClusterConfig::new().with_host(host(1, 1));
            dead_uplink.uplink_rate_gbps = gbps;
            assert_eq!(dead_uplink.validate(), Err(NkError::BadConfig));
        }

        let mut no_rounds = ClusterConfig::new().with_host(host(1, 1));
        no_rounds.max_rounds = 0;
        assert_eq!(no_rounds.validate(), Err(NkError::BadConfig));

        let no_threads = ClusterConfig::new().with_host(host(1, 1)).with_threads(0);
        assert_eq!(no_threads.validate(), Err(NkError::BadConfig));
    }

    /// An uplink latency the fabric cannot schedule is a configuration
    /// error, not a multiply overflow on the first cross-host frame.
    #[test]
    fn uplink_latency_past_one_second_is_rejected() {
        let cfg = |us| {
            ClusterConfig::new()
                .with_host(host(1, 1))
                .with_uplink_latency_us(us)
        };
        assert!(cfg(1_000_000).validate().is_ok());
        for us in [1_000_001, u64::MAX] {
            assert_eq!(cfg(us).validate(), Err(NkError::BadConfig), "{us} us");
        }
    }

    #[test]
    fn events_serialize_to_json() {
        for action in [
            ClusterAction::MigrateVm {
                vm: VmId(1),
                from: HostId(1),
                to: HostId(2),
                to_nsm: NsmId(1),
            },
            ClusterAction::DrainComplete {
                vm: VmId(1),
                host: HostId(1),
                nsm: NsmId(1),
            },
            ClusterAction::ScaleToZero {
                host: HostId(1),
                nsm: NsmId(1),
            },
            ClusterAction::WarmMigrateVm {
                vm: VmId(1),
                from: HostId(1),
                to: HostId(2),
                to_nsm: NsmId(1),
                connections: 3,
            },
            ClusterAction::WarmHandoverComplete {
                vm: VmId(1),
                to: HostId(2),
                connections: 3,
            },
            ClusterAction::HostEvacuated {
                host: HostId(1),
                vms: 3,
                warm: 2,
                drained: 1,
            },
            ClusterAction::HostKilled { host: HostId(3) },
        ] {
            let ev = ClusterEvent {
                at_ns: 42,
                epoch: 7,
                action,
            };
            let json = serde_json::to_string(&ev).unwrap();
            let back: ClusterEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(back, ev);
        }
    }

    #[test]
    fn cluster_config_round_trips_through_json() {
        let mut cfg = ClusterConfig::new()
            .with_host(host(1, 1))
            .with_uplink_latency_us(5)
            .with_threads(4)
            .with_shard_within_hosts(true)
            .with_policy(ClusterPolicy::new().with_pool_clock_hz(1_000_000));
        cfg.uplink_rate_gbps = 40.0;
        cfg.obs.event_capacity = 128;
        cfg.obs.flow_k = 8;
        assert!(cfg.validate().is_ok());
        let json = serde_json::to_string(&cfg).unwrap();
        let back: ClusterConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);

        // Configs serialized before the knob existed still deserialize (the
        // field defaults off).
        let legacy = json.replace("\"shard_within_hosts\":true,", "");
        let back: ClusterConfig = serde_json::from_str(&legacy).unwrap();
        assert!(!back.shard_within_hosts);
    }

    /// An enabled recorder with any zero-capacity ring is rejected at
    /// cluster-config validation; a disabled one passes regardless.
    #[test]
    fn zero_capacity_recorder_is_rejected() {
        let base = ClusterConfig::new().with_host(host(1, 1));
        assert!(base.clone().validate().is_ok());
        let zeroed: [fn(&mut ObsConfig); 4] = [
            |o| o.event_capacity = 0,
            |o| o.latency_epochs = 0,
            |o| o.epoch_ns = 0,
            |o| o.flow_k = 0,
        ];
        for zero in zeroed {
            let mut bad = ObsConfig::new();
            zero(&mut bad);
            assert_eq!(
                base.clone().with_obs(bad).validate(),
                Err(NkError::BadConfig),
                "{bad:?}"
            );
            let mut off = bad;
            off.enabled = false;
            assert!(base.clone().with_obs(off).validate().is_ok());
        }
    }
}
