//! The operator control plane on a host: pool accounting, the control
//! epoch (sample → decide → apply) and its telemetry.

use crate::host::NetKernelHost;
use nk_ctrl::{EpochSample, NsmLoad};
use nk_sim::record::TimeSeries;
use nk_sim::{CorePool, PoolMember};
use nk_types::{ControlAction, ControlEvent, ControlTarget, NsmId, VmId};
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

impl NetKernelHost {
    /// Charge datapath work against the accounting pools even without a
    /// host-level control plane, optionally on a fresh pool at `clock_hz`.
    /// The cluster layer calls this at bring-up so its placer sees per-NSM
    /// utilisation; hosts with their own [`nk_types::ControlPolicy`] already
    /// account and keep their configured clock.
    pub fn enable_pool_accounting(&mut self, clock_hz: Option<u64>) {
        if self.accounting {
            return;
        }
        if let Some(hz) = clock_hz {
            self.pools = CorePool::with_clock(hz);
            self.pools
                .register(PoolMember::Engine, self.cfg.core_engine_cores);
            for nsm_cfg in &self.cfg.nsms {
                if self.nsms.contains_key(&nsm_cfg.id) {
                    self.pools
                        .register(PoolMember::Nsm(nsm_cfg.id), nsm_cfg.vcpus);
                }
            }
            self.epoch_ledgers.clear();
        }
        self.accounting = true;
    }

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
        let engine_utilisation = self.epoch_utilisation(PoolMember::Engine);
        let engine_cores = self
            .pools
            .cores(PoolMember::Engine)
            .unwrap_or(self.cfg.core_engine_cores);
        let nsm_ids: Vec<NsmId> = self.nsms.keys().copied().collect();
        let mut nsms = BTreeMap::new();
        for id in nsm_ids {
            let utilisation = self.epoch_utilisation(PoolMember::Nsm(id));
            let cores = self.pools.cores(PoolMember::Nsm(id)).unwrap_or(0);
            let mut queue_depth = 0u64;
            let mut vm_bytes = BTreeMap::new();
            for vm in self.engine.mapped_vms(id) {
                queue_depth += self.engine.stalled_nqes_of(vm) as u64;
                let total = self
                    .engine
                    .vm_stats(vm)
                    .map(|s| s.bytes_forwarded)
                    .unwrap_or(0);
                let prev = self.epoch_vm_bytes.insert(vm, total).unwrap_or(0);
                vm_bytes.insert(vm, total.saturating_sub(prev));
            }
            nsms.insert(
                id,
                NsmLoad {
                    cores,
                    utilisation,
                    queue_depth,
                    vm_bytes,
                },
            );
        }
        // VMs not mapped to any alive NSM this epoch (their NSM crashed and
        // was not restarted yet) still get their byte snapshot advanced —
        // otherwise the first epoch after recovery attributes several
        // epochs' bytes to one and skews the rebalancer's busiest-first
        // ordering.
        let unsampled: Vec<VmId> = self
            .guests
            .keys()
            .filter(|vm| !nsms.values().any(|l| l.vm_bytes.contains_key(vm)))
            .copied()
            .collect();
        for vm in unsampled {
            let total = self
                .engine
                .vm_stats(vm)
                .map(|s| s.bytes_forwarded)
                .unwrap_or(0);
            self.epoch_vm_bytes.insert(vm, total);
        }
        EpochSample {
            now_ns,
            engine_cores,
            engine_utilisation,
            nsms,
        }
    }

    /// Utilisation of one pool member over the epoch ending now (ledger
    /// delta against the previous boundary).
    fn epoch_utilisation(&mut self, member: PoolMember) -> f64 {
        let Some(ledger) = self.pools.ledger(member) else {
            self.epoch_ledgers.remove(&member);
            return 0.0;
        };
        let prev = self
            .epoch_ledgers
            .insert(member, ledger)
            .unwrap_or_default();
        let offered = ledger.offered.saturating_sub(prev.offered);
        let busy = ledger.busy.saturating_sub(prev.busy);
        if offered == 0 {
            0.0
        } else {
            busy as f64 / offered as f64
        }
    }

    /// Control decisions applied so far, in application order.
    pub fn control_events(&self) -> &[ControlEvent] {
        &self.control_log
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
            .unwrap_or(self.cfg.core_engine_cores)
    }
}

#[cfg(test)]
mod tests {
    use crate::host::testutil::*;
    use crate::NetKernelHost;
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
