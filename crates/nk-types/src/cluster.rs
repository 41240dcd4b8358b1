//! Cluster-scope vocabulary: multi-host configurations and the cluster
//! event log.
//!
//! A [`ClusterConfig`] describes a set of [`HostConfig`]s joined by an
//! inter-host fabric (each host's virtual switch gets an uplink into a
//! top-of-rack switch). Every cross-host move and its milestones —
//! migration, drain completion, scale-to-zero of a drained NSM share — is
//! recorded as a [`ClusterEvent`] so a whole cluster run can be replayed and
//! digested deterministically. Decisions stay host-scope: each host may run
//! its own control plane ([`crate::ControlPolicy`]); cross-host moves are
//! operator calls.

use crate::config::{HostConfig, LinkConfig};
use crate::constants::LINE_RATE_GBPS;
use crate::error::{NkError, NkResult};
use crate::ids::{HostId, NsmId, VmId};

/// Whether the always-on flight recorder captures. Its rings have a fixed
/// capacity (`nk_obs::EVENT_CAPACITY` events and as many phase windows), so
/// an enabled recorder bounds its memory regardless of run length.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ObsConfig {
    /// Capture anything at all. `false` turns every hook into a no-op (the
    /// overhead-comparison baseline of nkbench's `obs.idle_step_overhead_us`).
    pub enabled: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig { enabled: true }
    }
}

impl ObsConfig {
    /// The default always-on recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// A disabled recorder: every capture hook becomes a no-op.
    pub fn disabled() -> Self {
        ObsConfig { enabled: false }
    }
}

/// Full description of one NetKernel cluster: hosts behind a top-of-rack
/// switch and the uplink characteristics.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterConfig {
    /// The hosts, each carrying its own [`HostConfig::host_id`].
    pub hosts: Vec<HostConfig>,
    /// One-way latency of each uplink, in microseconds. The uplink runs at
    /// [`LINE_RATE_GBPS`] ([`ClusterConfig::uplink`]).
    pub uplink_latency_us: u64,
    /// OS threads busy in a poll phase of the cluster datapath, the caller
    /// of the step included (hosts are the unit of parallelism; rounds are
    /// separated by barriers, so results are byte-identical for any value).
    /// `1` — the default — is the serial reference: the caller alone.
    pub threads: usize,
    /// Has no effect: a whole host is the one parallel unit. The field
    /// stays only because the benchmark sets it and
    /// `Cluster::shard_within_hosts` echoes it back; nothing serializes it.
    pub shard_within_hosts: bool,
    /// Flight-recorder shape. On by default; see [`ObsConfig`].
    pub obs: ObsConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            hosts: Vec::new(),
            uplink_latency_us: 0,
            threads: 1,
            shard_within_hosts: false,
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

    /// Set the flight-recorder shape (builder style). The recorder is on
    /// by default; pass [`ObsConfig::disabled`] to turn every capture hook
    /// into a no-op.
    pub fn with_obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// The link each host's uplink and each ToR endpoint get: line rate,
    /// [`ClusterConfig::uplink_latency_us`] one way.
    pub fn uplink(&self) -> LinkConfig {
        LinkConfig::ideal()
            .with_rate_gbps(LINE_RATE_GBPS)
            .with_latency_us(self.uplink_latency_us)
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
        self.uplink().validate()?;
        if self.threads == 0 {
            return Err(NkError::BadConfig);
        }
        Ok(())
    }
}

/// One cross-host move taken, or a milestone it reached.
#[derive(Clone, Copy, Debug, PartialEq)]
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

serde::impl_serialize!(enum ClusterAction {
    MigrateVm { vm, from, to, to_nsm },
    DrainComplete { vm, host, nsm },
    ScaleToZero { host, nsm },
    WarmMigrateVm { vm, from, to, to_nsm, connections },
    WarmHandoverComplete { vm, to, connections },
    HostEvacuated { host, vms, warm, drained },
    HostKilled { host },
});

/// A [`ClusterAction`] stamped with when it was taken.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClusterEvent {
    /// Virtual time at which the action applied.
    pub at_ns: u64,
    /// The action.
    pub action: ClusterAction,
}

serde::impl_serialize!(struct ClusterEvent { at_ns, action });

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

    /// The event log's serialized form, one event per action variant: the
    /// bytes `Cluster::event_digest` folds, so a change here moves every
    /// cluster digest.
    #[test]
    fn events_serialize_to_pinned_json() {
        for (action, json) in [
            (
                ClusterAction::MigrateVm {
                    vm: VmId(1),
                    from: HostId(1),
                    to: HostId(2),
                    to_nsm: NsmId(1),
                },
                r#"{"MigrateVm":{"vm":1,"from":1,"to":2,"to_nsm":1}}"#,
            ),
            (
                ClusterAction::DrainComplete {
                    vm: VmId(1),
                    host: HostId(1),
                    nsm: NsmId(1),
                },
                r#"{"DrainComplete":{"vm":1,"host":1,"nsm":1}}"#,
            ),
            (
                ClusterAction::ScaleToZero {
                    host: HostId(1),
                    nsm: NsmId(1),
                },
                r#"{"ScaleToZero":{"host":1,"nsm":1}}"#,
            ),
            (
                ClusterAction::WarmMigrateVm {
                    vm: VmId(1),
                    from: HostId(1),
                    to: HostId(2),
                    to_nsm: NsmId(1),
                    connections: 3,
                },
                r#"{"WarmMigrateVm":{"vm":1,"from":1,"to":2,"to_nsm":1,"connections":3}}"#,
            ),
            (
                ClusterAction::WarmHandoverComplete {
                    vm: VmId(1),
                    to: HostId(2),
                    connections: 3,
                },
                r#"{"WarmHandoverComplete":{"vm":1,"to":2,"connections":3}}"#,
            ),
            (
                ClusterAction::HostEvacuated {
                    host: HostId(1),
                    vms: 3,
                    warm: 2,
                    drained: 1,
                },
                r#"{"HostEvacuated":{"host":1,"vms":3,"warm":2,"drained":1}}"#,
            ),
            (
                ClusterAction::HostKilled { host: HostId(3) },
                r#"{"HostKilled":{"host":3}}"#,
            ),
        ] {
            let ev = ClusterEvent { at_ns: 42, action };
            assert_eq!(
                serde_json::to_string(&ev).unwrap(),
                format!(r#"{{"at_ns":42,"action":{json}}}"#)
            );
        }
    }
}
