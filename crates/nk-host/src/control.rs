//! The operator control plane on a host: pool accounting, the control
//! epoch (sample → decide → apply) and its telemetry.

use crate::host::NetKernelHost;
use nk_ctrl::{EpochSample, NsmLoad};
use nk_sim::record::TimeSeries;
use nk_sim::{CorePool, PoolMember};
use nk_types::constants::CORE_ENGINE_CORES;
use nk_types::{ControlAction, ControlEvent, ControlTarget, NsmId};
use std::collections::BTreeMap;

/// Per-epoch control-plane observability, recorded through
/// [`nk_sim::record::TimeSeries`]: the epoch samples and decision counts
/// the operator would chart, kept alongside the [`ControlEvent`] log so
/// control behaviour is part of the measurable perf trajectory.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ControlTelemetry {
    /// CoreEngine utilisation per epoch.
    pub engine_utilisation: TimeSeries,
    /// Utilisation per epoch of every NSM alive at sampling time.
    pub nsm_utilisation: BTreeMap<NsmId, TimeSeries>,
    /// Control actions applied per epoch.
    pub actions_per_epoch: TimeSeries,
}

/// Utilisation of one pool member over the control epoch ending now (0 for
/// a member that is not registered).
fn epoch_utilisation(pools: &mut CorePool, member: PoolMember) -> f64 {
    let delta = pools.take_delta(member);
    delta.unwrap_or_default().utilisation()
}

impl NetKernelHost {
    /// Close a control epoch if one is due: sample the pools and the engine,
    /// let the control plane decide, and apply its actions. Returns the
    /// number of actions applied (0 off epoch boundaries or without a
    /// control plane).
    pub(crate) fn run_control(&mut self, now_ns: u64) -> usize {
        if self.ctrl.is_none() || now_ns < self.next_epoch_ns {
            return 0;
        }
        let sample = self.sample_epoch(now_ns);
        let t_secs = now_ns as f64 / 1e9;
        self.telemetry
            .engine_utilisation
            .push(t_secs, sample.engine_utilisation);
        for (id, load) in &sample.nsms {
            self.telemetry
                .nsm_utilisation
                .entry(*id)
                .or_default()
                .push(t_secs, load.utilisation);
        }
        let ctrl = self.ctrl.as_mut().expect("checked above");
        self.next_epoch_ns = now_ns + ctrl.policy().epoch_ns;
        let epoch = ctrl.epochs();
        let actions = ctrl.on_epoch(&sample);
        let mut applied = 0;
        for action in actions {
            let ok = match action {
                ControlAction::ScaleUp {
                    target, to_cores, ..
                }
                | ControlAction::ScaleDown {
                    target, to_cores, ..
                } => {
                    let member = match target {
                        ControlTarget::Engine => PoolMember::Engine,
                        ControlTarget::Nsm(id) => PoolMember::Nsm(id),
                    };
                    self.pools.set_cores(member, to_cores)
                }
                ControlAction::Rebalance { vm, to, .. } => self.migrate_vm(vm, to).is_ok(),
            };
            if ok {
                self.control_log.push(ControlEvent {
                    at_ns: now_ns,
                    epoch,
                    action,
                });
                applied += 1;
            }
        }
        self.telemetry
            .actions_per_epoch
            .push(t_secs, applied as f64);
        applied
    }

    /// Assemble the load sample of the epoch ending now: per-member
    /// utilisation from the pool-ledger deltas, per-NSM backpressure from
    /// the engine's stall queues, per-VM throughput from the switch stats.
    fn sample_epoch(&mut self, now_ns: u64) -> EpochSample {
        let engine_utilisation = epoch_utilisation(&mut self.pools, PoolMember::Engine);
        let mut nsms = BTreeMap::new();
        for id in self.nsms.keys() {
            let member = PoolMember::Nsm(*id);
            let load = NsmLoad {
                utilisation: epoch_utilisation(&mut self.pools, member),
                cores: self.pools.cores(member).unwrap_or(0),
                queue_depth: 0,
                vm_bytes: BTreeMap::new(),
            };
            nsms.insert(*id, load);
        }
        // Every VM's byte mark advances every epoch, also while its NSM is
        // down — otherwise the first epoch after recovery attributes several
        // epochs' bytes to one and skews the rebalancer's busiest-first
        // ordering.
        for vm in self.vms.keys() {
            let bytes = self.engine.take_bytes_forwarded(*vm);
            if let Some(load) = self.engine.nsm_of(*vm).and_then(|id| nsms.get_mut(&id)) {
                load.queue_depth += self.engine.stalled_nqes_of(*vm) as u64;
                load.vm_bytes.insert(*vm, bytes);
            }
        }
        EpochSample {
            now_ns,
            engine_cores: self.engine_cores(),
            engine_utilisation,
            nsms,
        }
    }

    /// Control decisions applied so far, in application order.
    pub fn control_events(&self) -> &[ControlEvent] {
        &self.control_log
    }

    /// Control decisions applied since the last call: what a cluster's
    /// flight recorder mirrors after each step, the cursor kept beside the
    /// log it reads.
    pub fn take_fresh_control_events(&mut self) -> &[ControlEvent] {
        let from = std::mem::replace(&mut self.control_taken, self.control_log.len());
        &self.control_log[from..]
    }

    /// Per-epoch control observability: utilisation samples and action
    /// counts as [`TimeSeries`].
    pub fn control_telemetry(&self) -> &ControlTelemetry {
        &self.telemetry
    }

    /// The cycle-accounting pool (current core allocations and ledgers).
    pub fn core_pool(&self) -> &CorePool {
        &self.pools
    }

    /// Cores currently allocated to an NSM (`None` when it is not alive).
    pub fn nsm_cores(&self, nsm: NsmId) -> Option<usize> {
        self.pools.cores(PoolMember::Nsm(nsm))
    }

    /// Cores currently allocated to CoreEngine.
    pub fn engine_cores(&self) -> usize {
        self.pools
            .cores(PoolMember::Engine)
            .unwrap_or(CORE_ENGINE_CORES)
    }
}

#[cfg(test)]
mod tests {
    use crate::host::testutil::*;
    use crate::NetKernelHost;
    use nk_sim::CycleLedger;
    use nk_types::{ControlAction, ControlPolicy, NsmId, SocketApi, StackKind, VmId};

    /// Without a control policy the host never emits control events and the
    /// allocation stays exactly as configured.
    #[test]
    fn control_disabled_hosts_keep_a_static_allocation() {
        let mut host = one_vm_host(StackKind::Kernel);
        host.run(50, 100_000);
        assert!(host.control_events().is_empty());
        assert_eq!(host.engine_cores(), 1);
        assert_eq!(host.nsm_cores(NsmId(1)), Some(1));
        assert_eq!(host.sched_stats().control_actions, 0);
    }

    /// Charging stays off the hot path of a host with no control plane: the
    /// same traffic that a controlled host charges to its pools leaves every
    /// pool ledger of an uncontrolled host at zero cycles, offered and busy.
    #[test]
    fn only_a_controlled_host_charges_its_pools() {
        let pool_total = |control: Option<ControlPolicy>| {
            let mut cfg = kernel_cfg(0, 1, 1);
            cfg.control = control;
            let mut host = NetKernelHost::new(cfg).unwrap();
            let ls = remote_listener(&mut host);
            let s = guest_connect(&mut host);
            host.run(10, 100_000);
            let (conn, _) = host.remote_mut(REMOTE_IP).unwrap().accept(ls).unwrap();
            for _ in 0..20 {
                let guest = host.guest_mut(VmId(1)).unwrap();
                assert_eq!(guest.send(s, &[0x22u8; 512]), Ok(512));
                host.step(100_000);
                let remote = host.remote_mut(REMOTE_IP).unwrap();
                while remote.recv(conn, &mut [0u8; 2048]).is_ok_and(|n| n > 0) {}
            }
            assert!(host.engine_stats().nqes_switched > 0);
            let pools = host.core_pool();
            assert_eq!(pools.members().count(), 2, "the engine and one NSM");
            let ledgers = pools.members().filter_map(|m| pools.ledger(m));
            ledgers.fold(CycleLedger::default(), |sum, l| CycleLedger {
                busy: sum.busy + l.busy,
                offered: sum.offered + l.offered,
            })
        };
        assert_eq!(pool_total(None), CycleLedger::default());
        assert!(pool_total(Some(ControlPolicy::new())).busy > 0);
    }

    /// A sustained workload against a small accounting clock drives the NSM
    /// over the high watermark: the autoscaler grows it, and once the load
    /// stops and the cooldown passes it shrinks back to the floor.
    #[test]
    fn control_plane_scales_nsm_up_under_load_and_down_when_idle() {
        let policy = ControlPolicy::new()
            .with_epoch_ns(1_000_000)
            .with_window(2)
            .with_watermarks(0.1, 0.6)
            .with_core_bounds(1, 4)
            .with_cooldown(1)
            .with_rebalance(0.9, 0) // no migrations in this test
            .with_pool_clock_hz(1_000_000);
        let mut host = NetKernelHost::new(kernel_cfg(0, 1, 1).with_control(policy)).unwrap();
        let ls = remote_listener(&mut host);

        let s = guest_connect(&mut host);
        host.run(10, 100_000);

        // Keep the NSM busy every step for several epochs.
        for _ in 0..60 {
            let guest = host.guest_mut(VmId(1)).unwrap();
            let _ = guest.send(s, &[0x11u8; 512]);
            host.step(100_000);
            let remote = host.remote_mut(REMOTE_IP).unwrap();
            if let Ok((conn, _)) = remote.accept(ls) {
                let _ = conn; // server just accumulates the bytes
            }
        }
        assert!(
            host.control_events()
                .iter()
                .any(|e| matches!(e.action, ControlAction::ScaleUp { .. })),
            "no scale-up under sustained load: {:?}",
            host.control_events()
        );
        assert!(host.nsm_cores(NsmId(1)).unwrap() > 1);
        // Control actions are tallied one for one and count as step work.
        let stats = host.sched_stats();
        assert_eq!(stats.control_actions, host.control_events().len() as u64);
        assert!(stats.work_items >= stats.control_actions);

        // Let the workload go idle: the allocation returns to the floor.
        host.run(120, 100_000);
        assert!(
            host.control_events()
                .iter()
                .any(|e| matches!(e.action, ControlAction::ScaleDown { .. })),
            "no scale-down after the load stopped: {:?}",
            host.control_events()
        );
        assert_eq!(host.nsm_cores(NsmId(1)), Some(1));
    }

    #[test]
    fn invalid_control_policy_is_rejected_at_build() {
        let cfg = kernel_cfg(0, 1, 1).with_control(ControlPolicy::new().with_watermarks(0.9, 0.1));
        assert!(NetKernelHost::new(cfg).is_err());
    }
}
