//! The move executor: the mechanism half of [`nk_ctrl::evacuate`], and the
//! only code in this crate that freezes, exports, reroutes, installs, thaws,
//! retires or reverts a VM.
//!
//! Every cross-host move is an [`EvacPlan`] run by one step loop:
//! [`Cluster::migrate_vm`] and [`Cluster::migrate_vm_warm`] compile a
//! one-move chain, [`Cluster::plan_evacuation`] one chain per VM homed on
//! the host. The loop runs the plan's steps in list order, `pace` chains per
//! wave with one shared freeze window per wave of warm chains, and logs
//! every milestone as a [`PlanEvent`]. Placement is never
//! written here: a VM's home is the host holding it and not draining it
//! ([`Cluster::home_of`]), so it moves with the instance.
//!
//! | step | does | revert |
//! |---|---|---|
//! | `Freeze` (warm) | pause the VM's engine ingress; the wave's freeze window then drains the wire | thaw |
//! | `Export` | warm: snapshot identity + connections and retire the instance · drained: put the instance in drain, which opens the source-side drain | warm: re-import the journaled export at the source · drained: cancel the export, closing the drain |
//! | `Reroute` (warm) | `/32` detours steer the transplanted addresses to the destination trunk | restore the previous route |
//! | `Install` | import on the destination's least-loaded NSM, which becomes the VM's home (warm: frozen until `Thaw`) | warm: re-export back into the journal · drained: retire the import |
//! | `Thaw` | warm: resume on the destination · drained: check the destination is still alive | warm: re-freeze · drained: nothing |
//! | `RetireShare` | scale an emptied source share to zero (declines while it still serves) | revive the share |
//!
//! The contract that makes a move safe to attempt is *atomicity by
//! rollback*: no cluster event is emitted and no summary counter moves
//! until the whole plan has committed, and any mid-plan failure unwinds
//! every completed action in reverse completion order. After a rollback the
//! cluster's placement, routing table and event digest are byte-identical
//! to the pre-plan state — the property the fault-injection matrix pins for
//! every entry point, at every step, at any `NK_CLUSTER_THREADS` value.
//! What a *committed* plan emits — which [`ClusterAction`]s, which counters —
//! is the one thing that depends on the entry point.

use crate::cluster::Cluster;
use nk_ctrl::{EvacAction, EvacMode, EvacMove, EvacPlan, PlanEvent, PlanRun};
use nk_host::NetKernelHost;
use nk_obs::{FreezeReason, MigrationPhase, ObsEventKind, PhaseWindow};
use nk_types::addr::{host_prefix, HOST_PREFIX_MASK};
use nk_types::{ClusterAction, HostId, NkError, NkResult, NsmId, VmExport, VmId, VmWarmExport};
use std::collections::BTreeMap;

/// Upper bound on mini-steps per freeze window. The window normally closes
/// in two or three steps (one wire round trip plus a quiescence check); a
/// connection that never goes quiet — a peer streaming into the VM nonstop —
/// is cut at the bound and recovers through TCP retransmission.
pub(crate) const MAX_FREEZE_STEPS: usize = 16;

/// Virtual time one freeze-window mini-step advances: one uplink round
/// trip, so a frame in flight and its ACK both land within a step. Floored
/// at 200 µs (two conventional 100 µs cluster steps) because the default
/// fabric has zero uplink latency, and a mini-step that does not move the
/// clock matures nothing — not a frame on a degraded vNIC link, not a
/// retransmission timer.
fn freeze_dt_ns(uplink_latency_us: u64) -> u64 {
    (2 * uplink_latency_us * 1_000).max(200_000)
}

/// Warm exclusivity: rerouting a share's vNIC address must not hijack
/// another tenant's connections, so a VM moves warm only when it is its
/// source NSM's sole tenant and owns every connection pinned there.
fn warm_eligible(src: &NetKernelHost, vm: VmId, from_nsm: NsmId) -> bool {
    let cfg = src.config();
    let shared = cfg
        .vms
        .iter()
        .any(|v| v.id != vm && src.nsm_of(v.id) == Some(from_nsm));
    !shared && src.nsm_pinned(from_nsm) == src.vm_pinned(vm)
}

/// What the fault injector does to an in-flight plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvacFaultKind {
    /// The step itself fails (as if the mechanism refused) without touching
    /// any state — the pure rollback trigger.
    FailAction,
    /// An NSM crashes on some host just before the step runs.
    CrashNsm {
        /// The host whose NSM dies.
        host: HostId,
        /// The NSM to crash.
        nsm: NsmId,
    },
    /// A whole host dies just before the step runs.
    KillHost(HostId),
}

/// A scripted fault: fires immediately before the step with id
/// [`EvacFault::before_step`] executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvacFault {
    /// The step the fault precedes.
    pub before_step: usize,
    /// What happens.
    pub kind: EvacFaultKind,
}

/// Refuse a fault that names no step of `plan`: the step loop fires a fault
/// only before the step with its id, so one past the end would be dropped
/// and the plan would commit as if nothing had been scripted.
fn check_faults(plan: &EvacPlan, faults: &[EvacFault]) -> NkResult<()> {
    if faults.iter().any(|f| f.before_step >= plan.steps.len()) {
        return Err(NkError::BadConfig);
    }
    Ok(())
}

/// The outcome of one evacuation attempt.
#[derive(Clone, Debug)]
pub struct EvacReport {
    /// The plan that was executed (or rolled back).
    pub plan: EvacPlan,
    /// The plan's event log, in order.
    pub events: Vec<PlanEvent>,
    /// True when every step completed and the evacuation is final.
    pub committed: bool,
    /// VMs moved off the host warm (0 on rollback).
    pub warm: u32,
    /// VMs moved off the host drained (0 on rollback).
    pub drained: u32,
    /// The step that failed, when one did.
    pub failed_step: Option<usize>,
    /// The failure, when one occurred.
    pub error: Option<NkError>,
}

/// Which entry point a plan runs for. The step loop treats every plan
/// alike; only the commit/rollback epilogue ([`Cluster::commit_plan`] and
/// the tail of the step loop) reads this, to pick the [`ClusterAction`]s
/// and counters that entry point promises.
#[derive(Clone, Copy, PartialEq, Eq)]
enum PlanKind {
    /// One VM, moved by name.
    Direct,
    /// Every VM homed on a host.
    Evacuation,
}

/// Execution scratch state: what each completed step produced, kept so its
/// revert can undo exactly that — one entry per moving VM, opened by its
/// Export step, and the shares the tail retired.
#[derive(Default)]
struct EvacExec {
    moving: BTreeMap<VmId, Moving>,
    retired: Vec<NsmId>,
}

/// One moving VM's journal.
struct Moving {
    /// What the Export step took. The warm export doubles as a recovery
    /// record — when a destination dies after the install, it is what the
    /// rollback re-installs at the source.
    export: Exported,
    /// The `/32` detours the Reroute step installed, each with the route it
    /// replaced (warm only).
    detours: Vec<(u32, Option<u32>)>,
    /// The destination NSM the Install step picked.
    to_nsm: Option<NsmId>,
}

enum Exported {
    Warm(VmWarmExport),
    Drained(VmExport),
}

impl EvacExec {
    /// The warm export journaled for `vm`, if it moves warm.
    fn warm(&self, vm: VmId) -> Option<&VmWarmExport> {
        match &self.moving.get(&vm)?.export {
            Exported::Warm(export) => Some(export),
            Exported::Drained(_) => None,
        }
    }
}

impl Cluster {
    /// Survey `host` and compile its evacuation into an [`EvacPlan`]:
    /// every VM homed there gets a move — warm when the share-exclusivity
    /// guard allows (the VM is its source NSM's only tenant and owns all of
    /// its pinned connections), drained otherwise — onto the alive host
    /// currently carrying the fewest VMs (planned moves included, ties by
    /// id). The moves' source shares are queued for scale-to-zero at the
    /// plan tail. Fails with [`NkError::NotFound`] for an unknown host and
    /// [`NkError::NoNsm`] when some VM has no viable destination.
    pub fn plan_evacuation(&self, host: HostId, pace: usize) -> NkResult<EvacPlan> {
        let src = self.hosts.get(&host).ok_or(NkError::NotFound)?;
        let mut planned: BTreeMap<HostId, usize> = BTreeMap::new();
        let mut moves = Vec::new();
        let mut retire = Vec::new();
        for vm in src.homed_vms() {
            let to = self
                .hosts
                .iter()
                .filter(|(id, h)| **id != host && !h.has_vm(vm))
                .filter(|(id, _)| self.pick_destination_nsm(**id).is_ok())
                .map(|(id, h)| {
                    let homed = h.homed_vms().count();
                    (homed + planned.get(id).copied().unwrap_or(0), *id)
                })
                .min()
                .map(|(_, id)| id)
                .ok_or(NkError::NoNsm)?;
            *planned.entry(to).or_insert(0) += 1;
            let from_nsm = src.nsm_of(vm).ok_or(NkError::NotFound)?;
            moves.push(EvacMove {
                vm,
                to,
                mode: if warm_eligible(src, vm, from_nsm) {
                    EvacMode::Warm
                } else {
                    EvacMode::Drained
                },
            });
            retire.push(from_nsm);
        }
        EvacPlan::compile(host, &moves, &retire, pace)
    }

    /// Plan and execute the evacuation of `host` with `pace` VM chains per
    /// wave. Returns the report; a mid-plan failure is *not* an `Err` —
    /// the plan rolls back cleanly and the report records which step failed
    /// (`Err` is reserved for refusing to plan at all).
    pub fn evacuate_host(&mut self, host: HostId, pace: usize) -> NkResult<EvacReport> {
        self.evacuate_host_with_faults(host, pace, &[])
    }

    /// [`Cluster::evacuate_host`] with a scripted fault surface: each
    /// [`EvacFault`] fires immediately before its step executes. The
    /// rollback contract holds under every fault kind — completed actions
    /// unwind in reverse completion order, best-effort where a dead host
    /// makes the exact inverse impossible (its journaled exports re-install
    /// at the source either way). A fault naming a step past the plan's end
    /// is refused (`BadConfig`) before anything runs.
    pub fn evacuate_host_with_faults(
        &mut self,
        host: HostId,
        pace: usize,
        faults: &[EvacFault],
    ) -> NkResult<EvacReport> {
        let plan = self.plan_evacuation(host, pace)?;
        check_faults(&plan, faults)?;
        self.stats.evac_plans += 1;
        Ok(self.run_plan(plan, faults, PlanKind::Evacuation))
    }

    /// The body of [`Cluster::migrate_vm`] and [`Cluster::migrate_vm_warm`]:
    /// validate, compile the one-move chain (a warm move also retires the
    /// source share it empties), refuse a fault past its end and run it
    /// like any other plan. A rolled-back plan returns the failed step's
    /// own error.
    pub(crate) fn move_vm(
        &mut self,
        vm: VmId,
        from: HostId,
        to: HostId,
        mode: EvacMode,
        faults: &[EvacFault],
    ) -> NkResult<()> {
        if from == to {
            return Err(NkError::BadConfig);
        }
        if self.home_of(vm) != Some(from) {
            return Err(NkError::NotFound);
        }
        // A VM still draining off the destination (it bounced back before
        // its old share emptied) cannot move there again yet: the import
        // would collide with the draining instance.
        if self.hosts.get(&to).is_some_and(|h| h.has_vm(vm)) {
            return Err(NkError::AlreadyRegistered);
        }
        self.pick_destination_nsm(to)?;
        let src = self.hosts.get(&from).ok_or(NkError::NotFound)?;
        let mut retire = Vec::new();
        if mode == EvacMode::Warm {
            let from_nsm = src.nsm_of(vm).ok_or(NkError::NotFound)?;
            if !warm_eligible(src, vm, from_nsm) {
                return Err(NkError::InvalidState);
            }
            retire.push(from_nsm);
        }
        let plan = EvacPlan::compile(from, &[EvacMove { vm, to, mode }], &retire, 1)?;
        check_faults(&plan, faults)?;
        let report = self.run_plan(plan, faults, PlanKind::Direct);
        report.error.map_or(Ok(()), Err)
    }

    /// The step loop every move goes through: execute `plan` in list order,
    /// firing each scripted fault before its step and running one freeze
    /// window per wave; when step `k` fails, revert steps `k − 1` down to
    /// `0`. `kind` is not read until the plan has ended.
    fn run_plan(&mut self, plan: EvacPlan, faults: &[EvacFault], kind: PlanKind) -> EvacReport {
        let mut run = PlanRun::new(&plan, self.now_ns);
        let mut exec = EvacExec::default();
        // The wave whose shared freeze window has run.
        let mut window_wave: Option<usize> = None;
        let mut failure: Option<(usize, NkError)> = None;
        for s in &plan.steps {
            let (step, wave, action) = (s.id, s.wave, s.action);
            let mut forced_failure = false;
            for fault in faults.iter().filter(|f| f.before_step == step) {
                match fault.kind {
                    EvacFaultKind::FailAction => forced_failure = true,
                    EvacFaultKind::CrashNsm { host, nsm } => {
                        if let Some(h) = self.hosts.get_mut(&host) {
                            let _ = h.crash_nsm(nsm);
                        }
                    }
                    EvacFaultKind::KillHost(h) => {
                        let _ = self.kill_host(h);
                    }
                }
            }
            // One freeze window per wave, run at the wave's first warm
            // export: mini-steps drain the wire for every warm VM of the
            // wave at once, so the handovers share the pause.
            let warm_export = matches!(
                action,
                EvacAction::Export {
                    mode: EvacMode::Warm,
                    ..
                }
            );
            if warm_export && !forced_failure && window_wave != Some(wave) {
                self.run_freeze_window(&plan, wave, step);
                window_wave = Some(wave);
            }
            run.started(step, self.now_ns);
            let step_start = self.now_ns;
            let result = if forced_failure {
                Err(NkError::InvalidState)
            } else {
                self.execute_step(&plan, step, &mut exec)
            };
            // A completed Freeze step's phase stays open: it closes with
            // the wave's freeze window, which gives it its real width.
            if !(result.is_ok() && matches!(action, EvacAction::Freeze { .. })) {
                self.record_step_phase(&plan, step, step_start, result.is_ok());
            }
            match result {
                Ok(()) => run.done(step, self.now_ns),
                Err(e) => {
                    if window_wave != Some(wave) {
                        // The wave failed before its window ran.
                        self.close_freeze_phases(&plan, wave, step, self.now_ns);
                    }
                    run.failed(step, e, self.now_ns);
                    for id in (0..step).rev() {
                        self.revert_step(&plan, id, &mut exec);
                        run.reverted(id, self.now_ns);
                    }
                    failure = Some((step, e));
                    break;
                }
            }
        }
        let committed = failure.is_none();
        let (warm, drained) = if committed {
            run.committed(plan.host, self.now_ns);
            self.commit_plan(&plan, &exec, kind)
        } else {
            run.rolled_back(plan.host, self.now_ns);
            (0, 0)
        };
        let events = run.into_events();
        self.plan_events.extend(events.iter().copied());
        for event in &events {
            self.obs
                .record_event(event.at_ns, ObsEventKind::Plan(event.kind));
        }
        // The rollback epilogue, evacuation only: count it and trip the
        // dump-on-fault trigger *after* the rollback events landed, so the
        // frozen ring ends exactly at the trigger.
        if !committed && kind == PlanKind::Evacuation {
            self.stats.evac_rollbacks += 1;
            let reason = FreezeReason::PlanRolledBack { host: plan.host };
            self.obs.freeze(self.now_ns, reason);
        }
        EvacReport {
            plan,
            events,
            committed,
            warm,
            drained,
            failed_step: failure.map(|(id, _)| id),
            error: failure.map(|(_, e)| e),
        }
    }

    /// The commit epilogue: the move counters every committed plan bumps,
    /// then the cluster events its entry point promises — `MigrateVm` for a
    /// direct drained move, `WarmMigrateVm` + `WarmHandoverComplete` for a
    /// direct warm one, `HostEvacuated` for an evacuation — and a
    /// `ScaleToZero` per share the plan retired. Returns the (warm, drained)
    /// move counts.
    fn commit_plan(&mut self, plan: &EvacPlan, exec: &EvacExec, kind: PlanKind) -> (u32, u32) {
        let from = plan.host;
        let conns = |vm| exec.warm(vm).map(|e| e.conns.len() as u32);
        let warm_conns: Vec<u32> = plan.moves.iter().filter_map(|m| conns(m.vm)).collect();
        let warm = warm_conns.len() as u32;
        let drained = plan.moves.len() as u32 - warm;
        self.stats.warm_migrations += u64::from(warm);
        self.stats.conns_transplanted += warm_conns.iter().sum::<u32>() as u64;
        self.stats.migrations += u64::from(drained);
        self.stats.shares_retired += exec.retired.len() as u64;
        if kind == PlanKind::Evacuation {
            self.stats.evac_commits += 1;
            let vms = warm + drained;
            self.push_event(ClusterAction::HostEvacuated {
                host: from,
                vms,
                warm,
                drained,
            });
        } else {
            for &EvacMove { vm, to, .. } in &plan.moves {
                let to_nsm = exec.moving[&vm].to_nsm.expect("every move installed");
                if let Some(connections) = conns(vm) {
                    self.push_event(ClusterAction::WarmMigrateVm {
                        vm,
                        from,
                        to,
                        to_nsm,
                        connections,
                    });
                    self.push_event(ClusterAction::WarmHandoverComplete {
                        vm,
                        to,
                        connections,
                    });
                } else {
                    self.push_event(ClusterAction::MigrateVm {
                        vm,
                        from,
                        to,
                        to_nsm,
                    });
                }
            }
        }
        // A share emptied by a warm chain scales to zero in the same
        // instant: no drain wait.
        for nsm in &exec.retired {
            self.push_event(ClusterAction::ScaleToZero {
                host: from,
                nsm: *nsm,
            });
        }
        (warm, drained)
    }

    /// Kill a host outright: its instance drops — and with it every VM
    /// homed there and every drain off it — and its trunk leaves the ToR
    /// together with every warm-move detour riding it. The fault injector's
    /// coarsest lever.
    pub fn kill_host(&mut self, host: HostId) -> NkResult<()> {
        self.hosts.remove(&host).ok_or(NkError::NotFound)?;
        self.tor.detach_port(host_prefix(host), HOST_PREFIX_MASK);
        self.stats.hosts_killed += 1;
        self.push_event(ClusterAction::HostKilled { host });
        // Dump-on-fault: freeze the recorder with the kill as the last
        // captured event, preserving the ring exactly as it was when the
        // host died.
        self.obs
            .freeze(self.now_ns, FreezeReason::HostKilled { host });
        Ok(())
    }

    /// Every plan event recorded by moves and evacuations so far, in
    /// execution order.
    pub fn plan_events(&self) -> &[PlanEvent] {
        &self.plan_events
    }

    /// Routes currently installed at the ToR (trunks' block routes plus
    /// warm-migration `/32` detours) — the invariant the rollback tests
    /// compare.
    #[cfg(test)]
    pub(crate) fn tor_routes(&self) -> usize {
        self.tor.routes()
    }

    /// Drive the shared freeze window of one wave: mini-steps (no control
    /// epochs, no drains, no events) until every warm VM of the wave is
    /// wire-quiet on two consecutive checks one mini-step apart — so
    /// anything a peer had in flight towards a VM has landed — bounded by
    /// [`MAX_FREEZE_STEPS`]. Other tenants' traffic is deliberately
    /// ignored: a busy neighbour must not stretch the handover. Runs before
    /// step `at`, the wave's first warm export.
    fn run_freeze_window(&mut self, plan: &EvacPlan, wave: usize, at: usize) {
        let vms = plan.warm_vms_of_wave(wave);
        let window_start = self.now_ns;
        let dt = freeze_dt_ns(self.cfg.uplink_latency_us);
        let mut quiet_streak = 0;
        for _ in 0..MAX_FREEZE_STEPS {
            let all_quiet = self
                .hosts
                .get(&plan.host)
                .is_some_and(|h| vms.iter().all(|vm| h.vm_wire_quiet(*vm)));
            if all_quiet {
                quiet_streak += 1;
                if quiet_streak >= 2 {
                    break;
                }
            } else {
                quiet_streak = 0;
            }
            self.freeze_ministep(dt);
        }
        self.close_freeze_phases(plan, wave, at, window_start);
    }

    /// Close the `Freeze` phase of every VM the wave froze before step
    /// `before` (steps run in order, so those are done): one window per VM,
    /// from `start_ns` to now — the wire-draining pause they shared.
    fn close_freeze_phases(&mut self, plan: &EvacPlan, wave: usize, before: usize, start_ns: u64) {
        for s in plan.steps[..before].iter().filter(|s| s.wave == wave) {
            if matches!(s.action, EvacAction::Freeze { .. }) {
                self.record_step_phase(plan, s.id, start_ns, true);
            }
        }
    }

    /// Record the phase window of one plan step, stamped with its step id:
    /// it opened at `start_ns` and closes now. Only the freeze window
    /// advances virtual time, so every other phase is zero-width.
    fn record_step_phase(&mut self, plan: &EvacPlan, step: usize, start_ns: u64, ok: bool) {
        let (vm, phase) = match plan.steps[step].action {
            EvacAction::Freeze { vm } => (Some(vm), MigrationPhase::Freeze),
            EvacAction::Export { vm, .. } => (Some(vm), MigrationPhase::Export),
            EvacAction::Reroute { vm, .. } => (Some(vm), MigrationPhase::Reroute),
            EvacAction::Install { vm, .. } => (Some(vm), MigrationPhase::Install),
            EvacAction::Thaw { vm, .. } => (Some(vm), MigrationPhase::Thaw),
            EvacAction::RetireShare { .. } => (None, MigrationPhase::Retire),
        };
        self.obs.record_phase(PhaseWindow {
            vm,
            phase,
            start_ns,
            end_ns: self.now_ns,
            step: Some(plan.steps[step].id as u32),
            ok,
        });
    }

    /// Install a `/32` detour for every transplanted address, steering it
    /// behind the destination host's trunk, and record what to do on
    /// revert. An address already *outside* the source host's block was
    /// detoured by an earlier warm hop — its previous `/32` (via the source
    /// trunk) was just replaced and must be *restored*, not deleted: a bare
    /// delete would fall the address back to its origin host's block route,
    /// stranding the connection. Any install failure reverts the detours
    /// already placed and returns [`NkError::NotFound`].
    fn install_detours(
        &mut self,
        ips: &[u32],
        from: HostId,
        to: HostId,
    ) -> NkResult<Vec<(u32, Option<u32>)>> {
        let mut installed: Vec<(u32, Option<u32>)> = Vec::new();
        for ip in ips {
            let prior = (*ip & HOST_PREFIX_MASK != host_prefix(from)).then(|| host_prefix(from));
            if !self.tor.add_route_via(*ip, u32::MAX, host_prefix(to)) {
                self.revert_detours(&installed);
                return Err(NkError::NotFound);
            }
            installed.push((*ip, prior));
        }
        Ok(installed)
    }

    /// Undo [`Cluster::install_detours`], newest first: a detour that
    /// replaced an earlier hop's `/32` is re-pointed at the source trunk; a
    /// fresh one is removed outright.
    fn revert_detours(&mut self, routes: &[(u32, Option<u32>)]) {
        for (ip, prior) in routes.iter().rev() {
            match prior {
                Some(via) => {
                    self.tor.add_route_via(*ip, u32::MAX, *via);
                }
                None => {
                    self.tor.remove_route(*ip, u32::MAX);
                }
            }
        }
    }

    /// Execute one plan step. Each arm either completes fully or leaves no
    /// trace (the host-level operations it calls unwind internally), so a
    /// failed step never needs its own revert — only the *completed* steps
    /// before it do.
    fn execute_step(&mut self, plan: &EvacPlan, step: usize, exec: &mut EvacExec) -> NkResult<()> {
        let from = plan.host;
        match plan.steps[step].action {
            EvacAction::Freeze { vm } => self
                .hosts
                .get_mut(&from)
                .ok_or(NkError::NotFound)?
                .freeze_vm(vm),
            EvacAction::Export { vm, mode } => {
                let src = self.hosts.get_mut(&from).ok_or(NkError::NotFound)?;
                let export = if mode == EvacMode::Warm {
                    Exported::Warm(src.export_vm_warm(vm)?)
                } else {
                    // The source-side drain opens here; `advance_drains`
                    // retires the instance once it empties.
                    Exported::Drained(src.export_vm(vm)?)
                };
                let moving = Moving {
                    export,
                    detours: Vec::new(),
                    to_nsm: None,
                };
                exec.moving.insert(vm, moving);
                Ok(())
            }
            EvacAction::Reroute { vm, to } => {
                let ips = exec.warm(vm).ok_or(NkError::InvalidState)?.rerouted_ips();
                let detours = self.install_detours(&ips, from, to)?;
                exec.moving.get_mut(&vm).expect("exported").detours = detours;
                Ok(())
            }
            EvacAction::Install { vm, to } => {
                let to_nsm = self.pick_destination_nsm(to)?;
                let dst = self.hosts.get_mut(&to).ok_or(NkError::NotFound)?;
                let moving = exec.moving.get_mut(&vm).ok_or(NkError::InvalidState)?;
                match &moving.export {
                    Exported::Warm(export) => {
                        dst.import_vm_warm(export, to_nsm)?;
                        // The VM stays frozen on the destination until its
                        // Thaw step: later waves' freeze mini-steps run the
                        // whole datapath and must not tick it early.
                        dst.freeze_vm(vm).expect("just imported");
                    }
                    Exported::Drained(export) => dst.import_vm(export, to_nsm)?,
                }
                moving.to_nsm = Some(to_nsm);
                Ok(())
            }
            EvacAction::Thaw { vm, to } => {
                // Either way the VM resumes *on the destination*: a host
                // that died since the install fails the step. (A drained
                // VM's drain opened at its Export.)
                let dst = self.hosts.get_mut(&to).ok_or(NkError::NotFound)?;
                if exec.warm(vm).is_some() {
                    dst.thaw_vm(vm);
                }
                Ok(())
            }
            EvacAction::RetireShare { nsm } => {
                // A share still serving (a drained chain's connections have
                // not emptied yet) simply declines: the regular drain
                // machinery retires it later. Not a failure.
                let src = self.hosts.get_mut(&from).ok_or(NkError::NotFound)?;
                if src.retire_nsm_if_drained(nsm) {
                    exec.retired.push(nsm);
                }
                Ok(())
            }
        }
    }

    /// Undo one *completed* plan step. Best-effort where a killed host
    /// makes the exact inverse impossible — the journaled exports still
    /// re-install at the source, so the surviving side of the cluster
    /// always converges back to the pre-plan placement.
    fn revert_step(&mut self, plan: &EvacPlan, step: usize, exec: &mut EvacExec) {
        let from = plan.host;
        match plan.steps[step].action {
            EvacAction::Freeze { vm } => {
                if let Some(src) = self.hosts.get_mut(&from) {
                    if src.has_vm(vm) {
                        src.thaw_vm(vm);
                    }
                }
            }
            EvacAction::Export { vm, .. } => {
                let Some(src) = self.hosts.get_mut(&from) else {
                    return;
                };
                if let Some(export) = exec.warm(vm) {
                    // Re-importing at the source clears the frozen flag with
                    // the old instance, so the VM resumes serving; the Freeze
                    // revert after this is then a no-op.
                    let _ = src.import_vm_warm(export, export.base.from_nsm);
                } else {
                    src.cancel_export(vm);
                }
            }
            EvacAction::Reroute { vm, .. } => self.revert_detours(&exec.moving[&vm].detours),
            EvacAction::Install { vm, to } => {
                // Tear the installed state back out of the destination. If
                // the destination died (or refuses), the journaled export
                // from the original Export step is still what the Export
                // revert re-installs at the source — nothing is lost with
                // the host.
                let Some(dst) = self.hosts.get_mut(&to) else {
                    return;
                };
                match &mut exec.moving.get_mut(&vm).expect("exported").export {
                    Exported::Warm(journal) => {
                        if let Ok(mut export) = dst.export_vm_warm(vm) {
                            // The re-export names the *destination's* NSM as
                            // its source, but the Export revert re-imports at
                            // the original source share (whose id can differ —
                            // e.g. VM2 lived on source NSM2 and was installed
                            // on destination NSM1). Restore the journaled id
                            // so the VM lands back on its own share.
                            export.base.from_nsm = journal.base.from_nsm;
                            *journal = export;
                        }
                    }
                    Exported::Drained(_) => {
                        let _ = dst.retire_vm(vm);
                    }
                }
            }
            EvacAction::Thaw { vm, to } => {
                // A drained VM's drain closes with its Export's revert.
                if exec.warm(vm).is_some() {
                    if let Some(dst) = self.hosts.get_mut(&to).filter(|d| d.has_vm(vm)) {
                        let _ = dst.freeze_vm(vm);
                    }
                }
            }
            EvacAction::RetireShare { nsm } => {
                if let Some(pos) = exec.retired.iter().position(|n| *n == nsm) {
                    exec.retired.remove(pos);
                    if let Some(src) = self.hosts.get_mut(&from) {
                        src.revive_nsm_share(nsm);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ClusterStats;
    use nk_ctrl::{EvacStep, PlanEventKind};
    use nk_types::{
        ClusterConfig, HostConfig, NsmConfig, SockAddr, SocketApi, SocketId, VmConfig,
        VmToNsmPolicy,
    };

    const SERVER_IP: u32 = 0xC0A8_0001; // outside every host block

    pub(crate) fn empty_host(id: u8) -> HostConfig {
        HostConfig::new()
            .with_host_id(HostId(id))
            .with_nsm(NsmConfig::kernel(NsmId(1)))
            .with_mapping(VmToNsmPolicy::All(NsmId(1)))
    }

    /// Host 1 carries the VMs: each of `exclusive` on its own NSM (warm
    /// eligible), all of `shared` together on one extra NSM (drained only).
    pub(crate) fn evac_host(exclusive: &[u8], shared: &[u8]) -> HostConfig {
        let mut cfg = HostConfig::new().with_host_id(HostId(1));
        let mut map = Vec::new();
        for (i, vm) in exclusive.iter().enumerate() {
            let nsm = NsmId(i as u8 + 1);
            cfg = cfg
                .with_nsm(NsmConfig::kernel(nsm))
                .with_vm(VmConfig::new(VmId(*vm)));
            map.push((VmId(*vm), nsm));
        }
        if !shared.is_empty() {
            let nsm = NsmId(exclusive.len() as u8 + 1);
            cfg = cfg.with_nsm(NsmConfig::kernel(nsm));
            for vm in shared {
                cfg = cfg.with_vm(VmConfig::new(VmId(*vm)));
                map.push((VmId(*vm), nsm));
            }
        }
        cfg.with_mapping(VmToNsmPolicy::Static(map))
    }

    /// Build the cluster, wire the echo server and get every VM on host 1
    /// streaming to it (pinned connections all around). Returns the
    /// server's listener and the guest sockets by VM.
    pub(crate) fn cluster_with_traffic(
        cfg: ClusterConfig,
        vms: &[u8],
    ) -> (Cluster, SocketId, Vec<(VmId, SocketId)>) {
        let mut cluster = Cluster::new(cfg).unwrap();
        let server = cluster.add_remote(SERVER_IP);
        let ls = server.socket();
        server.bind(ls, SockAddr::new(0, 7)).unwrap();
        server.listen(ls, 16).unwrap();
        let mut socks = Vec::new();
        for vm in vms {
            let guest = cluster.guest_on(HostId(1), VmId(*vm)).unwrap();
            let s = guest.socket().unwrap();
            guest.connect(s, SockAddr::new(SERVER_IP, 7)).unwrap();
            socks.push((VmId(*vm), s));
        }
        cluster.run(20, 100_000);
        for (vm, s) in &socks {
            let guest = cluster.guest_on(HostId(1), *vm).unwrap();
            guest.send(*s, b"pinned").unwrap();
        }
        cluster.run(10, 100_000);
        for (vm, _) in &socks {
            assert!(
                cluster.host(HostId(1)).unwrap().vm_pinned(*vm) >= 1,
                "{vm:?} must be pinned before the evacuation"
            );
        }
        (cluster, ls, socks)
    }

    /// Everything a rollback must restore, byte for byte. Collections are
    /// sorted so the comparison is insensitive to config-reinsertion order.
    #[derive(Debug, PartialEq)]
    pub(crate) struct Snapshot {
        homes: Vec<(VmId, HostId)>,
        present: Vec<(HostId, Vec<VmId>)>,
        cores: Vec<(HostId, NsmId, Option<usize>)>,
        frozen: Vec<(HostId, VmId, bool)>,
        draining: Vec<(HostId, Vec<(VmId, NsmId)>)>,
        aliases: Vec<(HostId, Vec<(u32, u32)>)>,
        digest: u64,
        routes: usize,
        stats: ClusterStats,
    }

    pub(crate) fn snapshot(cluster: &Cluster) -> Snapshot {
        let mut present = Vec::new();
        let mut cores = Vec::new();
        let mut frozen = Vec::new();
        let mut draining = Vec::new();
        let mut aliases = Vec::new();
        for id in cluster.host_ids() {
            let host = cluster.host(id).unwrap();
            let mut vms: Vec<VmId> = host.config().vms.iter().map(|v| v.id).collect();
            vms.sort();
            for vm in &vms {
                frozen.push((id, *vm, host.vm_frozen(*vm)));
            }
            present.push((id, vms));
            for nsm in host.config().nsms.iter().map(|n| n.id) {
                cores.push((id, nsm, host.nsm_cores(nsm)));
            }
            draining.push((id, host.draining_vms()));
            aliases.push((id, host.switch().aliases()));
        }
        let homes: std::collections::BTreeSet<(VmId, HostId)> = present
            .iter()
            .flat_map(|(_, vms)| vms.iter())
            .filter_map(|vm| cluster.home_of(*vm).map(|h| (*vm, h)))
            .collect();
        Snapshot {
            homes: homes.into_iter().collect(),
            present,
            cores,
            frozen,
            draining,
            aliases,
            digest: cluster.event_digest(),
            routes: cluster.tor_routes(),
            // Every counter a *committed* move bumps must be untouched. The
            // attempt itself may show: freeze-window mini-steps ran the
            // datapath, and an evacuation counts its plan and its rollback.
            stats: ClusterStats {
                freeze_steps: 0,
                begin_work: 0,
                poll_work: 0,
                control_work: 0,
                barrier_frames: 0,
                evac_plans: 0,
                evac_rollbacks: 0,
                ..cluster.stats()
            },
        }
    }

    /// A clean multi-VM evacuation: every VM warm-migrates off host 1 in
    /// one paced plan, the source shares scale to zero in the plan tail,
    /// one summary event lands in the cluster log, and the transplanted
    /// connections keep serving from their new homes.
    #[test]
    fn clean_warm_evacuation_moves_every_vm() {
        let cfg = ClusterConfig::new()
            .with_host(evac_host(&[1, 2], &[]))
            .with_host(empty_host(2))
            .with_host(empty_host(3));
        let (mut cluster, ls, socks) = cluster_with_traffic(cfg, &[1, 2]);

        let report = cluster.evacuate_host(HostId(1), 2).unwrap();
        assert!(report.committed, "{report:?}");
        assert_eq!((report.warm, report.drained), (2, 0));
        assert_eq!(report.failed_step, None);
        // Least-loaded spread: one VM per empty host.
        assert_eq!(cluster.home_of(VmId(1)), Some(HostId(2)));
        assert_eq!(cluster.home_of(VmId(2)), Some(HostId(3)));
        assert!(!cluster.host(HostId(1)).unwrap().has_vm(VmId(1)));
        // Both emptied source shares retired inside the plan.
        assert_eq!(
            cluster.host(HostId(1)).unwrap().nsm_cores(NsmId(1)),
            Some(0)
        );
        assert_eq!(
            cluster.host(HostId(1)).unwrap().nsm_cores(NsmId(2)),
            Some(0)
        );
        let stats = cluster.stats();
        assert_eq!(stats.evac_plans, 1);
        assert_eq!(stats.evac_commits, 1);
        assert_eq!(stats.warm_migrations, 2);
        assert_eq!(stats.shares_retired, 2);
        assert!(cluster.events().iter().any(|e| matches!(
            e.action,
            ClusterAction::HostEvacuated {
                host: HostId(1),
                vms: 2,
                warm: 2,
                drained: 0,
            }
        )));
        assert!(matches!(
            cluster.plan_events().last().unwrap().kind,
            PlanEventKind::PlanCommitted { host: HostId(1) }
        ));

        // The pinned connections came along: same sockets, new hosts, still
        // round-tripping through the restored routes.
        probe_streams(&mut cluster, ls, &socks);
    }

    /// One entry point of the move executor, with the scenario it is
    /// driven in by the rollback matrix.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Entry {
        /// `migrate_vm(VM1, 2 → 3)` while VM1's first drained hop (1 → 2)
        /// is still draining off host 1 and a second connection is pinned
        /// on host 2.
        Drained,
        /// `migrate_vm_warm(VM1, 2 → 3)` after a first warm hop (1 → 2):
        /// the connection's address already detours through a `/32`, which
        /// a rollback must restore, not delete.
        Warm,
        /// `evacuate_host(1, pace 2)`: VM1 warm, VM2 + VM3 drained — two
        /// waves plus the retirement tail.
        EvacMixed,
        /// `evacuate_host(1, pace 2)`: two warm VMs whose source NSM ids
        /// differ from the NSM they land on.
        EvacWarm,
    }

    /// What makes the plan fail.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Trigger {
        /// `EvacFaultKind::FailAction` before the step.
        Fail,
        /// `EvacFaultKind::CrashNsm` on the first move's destination.
        CrashNsm,
        /// `EvacFaultKind::KillHost` of the first move's destination.
        KillHost,
        /// No scripted fault: the destination really refuses the warm
        /// import (`inject_import_failures`), so the Install step fails
        /// with the host's own error.
        RefuseInstall,
    }

    struct Scenario {
        cluster: Cluster,
        ls: SocketId,
        /// Every pinned guest socket, by VM.
        socks: Vec<(VmId, SocketId)>,
        /// The plan the entry point will run.
        plan: EvacPlan,
    }

    impl Entry {
        fn setup(self, threads: usize) -> Scenario {
            let (host, vms): (_, &[u8]) = match self {
                Entry::Drained | Entry::Warm => (evac_host(&[1], &[]), &[1]),
                Entry::EvacMixed => (evac_host(&[1], &[2, 3]), &[1, 2, 3]),
                Entry::EvacWarm => (evac_host(&[1, 2], &[]), &[1, 2]),
            };
            let mut cfg = ClusterConfig::new().with_host(host).with_threads(threads);
            for spare in 2..=4 {
                cfg = cfg.with_host(empty_host(spare));
            }
            let (mut cluster, ls, mut socks) = cluster_with_traffic(cfg, vms);
            let one_move = |mode, retire: &[NsmId]| {
                let (vm, to) = (VmId(1), HostId(3));
                EvacPlan::compile(HostId(2), &[EvacMove { vm, to, mode }], retire, 1).unwrap()
            };
            let plan = match self {
                Entry::Drained => {
                    cluster.migrate_vm(VmId(1), HostId(1), HostId(2)).unwrap();
                    // The pinned connection keeps the drain open on host 1,
                    // so bouncing back is refused — without leaking state.
                    let before = snapshot(&cluster);
                    assert_eq!(
                        cluster.migrate_vm(VmId(1), HostId(2), HostId(1)),
                        Err(NkError::AlreadyRegistered)
                    );
                    assert_eq!(snapshot(&cluster), before);
                    assert!(cluster.host(HostId(2)).unwrap().draining_vms().is_empty());
                    assert_eq!(cluster.home_of(VmId(1)), Some(HostId(2)));
                    // A second connection, pinned on the new home.
                    let guest = cluster.guest_on(HostId(2), VmId(1)).unwrap();
                    let s2 = guest.socket().unwrap();
                    guest.connect(s2, SockAddr::new(SERVER_IP, 7)).unwrap();
                    cluster.run(20, 100_000);
                    let guest = cluster.guest_on(HostId(2), VmId(1)).unwrap();
                    guest.send(s2, b"pinned").unwrap();
                    cluster.run(10, 100_000);
                    socks.push((VmId(1), s2));
                    one_move(EvacMode::Drained, &[])
                }
                Entry::Warm => {
                    cluster
                        .migrate_vm_warm(VmId(1), HostId(1), HostId(2))
                        .unwrap();
                    one_move(EvacMode::Warm, &[NsmId(1)])
                }
                Entry::EvacMixed | Entry::EvacWarm => {
                    let plan = cluster.plan_evacuation(HostId(1), 2).unwrap();
                    assert_eq!(plan.moves[0].mode, EvacMode::Warm, "{plan:?}");
                    if self == Entry::EvacMixed {
                        assert!(
                            plan.moves.iter().any(|m| m.mode == EvacMode::Drained),
                            "the plan must exercise both chain kinds: {plan:?}"
                        );
                        assert!(plan.steps.len() >= 11 && plan.waves() == 3, "{plan:?}");
                    }
                    plan
                }
            };
            Scenario {
                cluster,
                ls,
                socks,
                plan,
            }
        }

        /// Call the entry point (towards `to`, for the direct ones) and
        /// fold its outcome into `Err((failed step's error))` / `Ok`.
        fn call(self, cluster: &mut Cluster, to: HostId, faults: &[EvacFault]) -> NkResult<()> {
            let mode = match self {
                Entry::Drained => EvacMode::Drained,
                Entry::Warm => EvacMode::Warm,
                Entry::EvacMixed | Entry::EvacWarm => {
                    let rollbacks = cluster.stats().evac_rollbacks;
                    let report = cluster
                        .evacuate_host_with_faults(HostId(1), 2, faults)
                        .unwrap();
                    assert_eq!(report.committed, report.error.is_none());
                    if !report.committed {
                        assert_eq!((report.warm, report.drained), (0, 0));
                        assert_eq!(cluster.stats().evac_rollbacks, rollbacks + 1);
                        // The rollback froze the recorder (unless a host
                        // kill had already) after every plan event of the
                        // failed run, rollback tail included, had landed.
                        let dump = cluster.obs_dump();
                        let frozen = dump.frozen.unwrap().reason;
                        let plan_event =
                            |e: &&nk_obs::ObsEvent| matches!(e.kind, ObsEventKind::Plan(_));
                        if frozen == (FreezeReason::PlanRolledBack { host: HostId(1) }) {
                            assert_eq!(
                                dump.events.iter().filter(plan_event).count(),
                                report.events.len()
                            );
                        } else {
                            assert!(matches!(frozen, FreezeReason::HostKilled { .. }));
                        }
                    }
                    return report.error.map_or(Ok(()), Err);
                }
            };
            let home = cluster.home_of(VmId(1)).unwrap();
            let (stats, frozen) = (cluster.stats(), cluster.obs_dump().frozen);
            let outcome = cluster.move_vm(VmId(1), home, to, mode, faults);
            // Dump-on-fault and the `evac_*` counters belong to evacuations.
            let evac = |s: ClusterStats| (s.evac_plans, s.evac_commits, s.evac_rollbacks);
            assert_eq!(evac(cluster.stats()), evac(stats));
            if !faults
                .iter()
                .any(|f| matches!(f.kind, EvacFaultKind::KillHost(_)))
            {
                assert_eq!(cluster.obs_dump().frozen, frozen);
            }
            outcome
        }
    }

    /// Send `after` on every pinned socket — on whichever host its VM
    /// instance lives now — and check each stream arrives byte-contiguous
    /// at the server. (Instances of one VM on two hosts may reuse a socket
    /// id, so sockets are looked up per host.)
    fn probe_streams(cluster: &mut Cluster, ls: SocketId, socks: &[(VmId, SocketId)]) {
        let mut pairs = socks.to_vec();
        pairs.sort();
        pairs.dedup();
        let mut sent = 0;
        for host in cluster.host_ids() {
            for (vm, s) in &pairs {
                if let Some(guest) = cluster.guest_on(host, *vm).filter(|g| g.has_socket(*s)) {
                    guest.send(*s, b"after").unwrap();
                    sent += 1;
                }
            }
        }
        assert_eq!(sent, socks.len(), "every pinned socket lives on one host");
        cluster.run(20, 100_000);
        let server = cluster.remote_mut(SERVER_IP).unwrap();
        let mut streams = 0;
        while let Ok((conn, _)) = server.accept(ls) {
            let mut got = Vec::new();
            let mut buf = [0u8; 64];
            while let Ok(n) = server.recv(conn, &mut buf) {
                if n == 0 {
                    break;
                }
                got.extend_from_slice(&buf[..n]);
            }
            assert_eq!(got, b"pinnedafter", "stream must stay byte-contiguous");
            streams += 1;
        }
        assert_eq!(streams, socks.len());
    }

    /// One cell of the matrix: make `entry`'s plan fail through `trigger`
    /// before `step`, check the rollback restored the pre-call snapshot and
    /// the entry point reported the failed step's own error, then either
    /// retry at once (`retry`) — which must commit — or leave the rolled-back
    /// placement as it is; either way every pinned stream must still verify.
    fn rollback_case(entry: Entry, step: usize, trigger: Trigger, threads: usize, retry: bool) {
        let ctx = format!("{entry:?} step {step} {trigger:?} threads {threads}");
        let Scenario {
            mut cluster,
            ls,
            socks,
            plan,
        } = entry.setup(threads);
        let victim = plan.moves[0];
        // The victim chain's steps that need the destination, in plan order.
        let on_destination = |s: &&EvacStep| match s.action {
            EvacAction::Reroute { vm, .. }
            | EvacAction::Install { vm, .. }
            | EvacAction::Thaw { vm, .. } => vm == victim.vm,
            _ => false,
        };
        let needs_destination: Vec<usize> = plan
            .steps
            .iter()
            .filter(on_destination)
            .map(|s| s.id)
            .collect();
        let install = needs_destination[needs_destination.len() - 2];
        // The fault's own footprint goes onto a twin: what the cluster must
        // look like once the plan has been rolled back around it. Each
        // trigger also names its error and the step that must fail — `None`
        // when the destination is hit after the victim's chain is done with
        // it (an ordinary fault on the VM's new home, not a plan failure).
        let mut twin = entry.setup(threads).cluster;
        let (fault, error, fails_at) = match trigger {
            Trigger::Fail => (
                Some(EvacFaultKind::FailAction),
                NkError::InvalidState,
                Some(step),
            ),
            Trigger::CrashNsm => {
                let (host, nsm) = (victim.to, NsmId(1));
                twin.host_mut(host).unwrap().crash_nsm(nsm).unwrap();
                let kind = EvacFaultKind::CrashNsm { host, nsm };
                (
                    Some(kind),
                    NkError::NoNsm,
                    Some(install).filter(|i| step <= *i),
                )
            }
            Trigger::KillHost => {
                twin.kill_host(victim.to).unwrap();
                let next = needs_destination.iter().find(|id| **id >= step);
                let kind = EvacFaultKind::KillHost(victim.to);
                (Some(kind), NkError::NotFound, next.copied())
            }
            Trigger::RefuseInstall => {
                let dst = cluster.host_mut(victim.to).unwrap();
                dst.inject_import_failures(1);
                (None, NkError::NsmUnavailable, Some(install))
            }
        };
        let faults: Vec<EvacFault> = fault
            .map(|kind| EvacFault {
                before_step: step,
                kind,
            })
            .into_iter()
            .collect();
        let mut expected = snapshot(&twin);
        let logged = cluster.events().len();

        let outcome = entry.call(&mut cluster, victim.to, &faults);
        let Some(fails_at) = fails_at else {
            assert_eq!(outcome, Ok(()), "{ctx}");
            return;
        };
        assert_eq!(outcome, Err(error), "{ctx}: the failed step's own error");
        if trigger == Trigger::KillHost {
            // The kill is stamped with the virtual time it fired at (inside
            // the freeze window, for a warm chain): it must be the only
            // event the failed attempt logged.
            let tail: Vec<_> = cluster.events()[logged..]
                .iter()
                .map(|e| e.action)
                .collect();
            assert_eq!(
                tail,
                [ClusterAction::HostKilled { host: victim.to }],
                "{ctx}"
            );
            expected.digest = cluster.event_digest();
        }
        assert_eq!(
            snapshot(&cluster),
            expected,
            "{ctx}: rollback must restore the pre-call state"
        );
        let journal = cluster.plan_events();
        let failed = journal.iter().rev().find_map(|e| match e.kind {
            PlanEventKind::ActionFailed { step, code } => Some((step as usize, code)),
            _ => None,
        });
        assert_eq!(failed, Some((fails_at, error.code())), "{ctx}");
        assert!(matches!(
            journal.last().unwrap().kind,
            PlanEventKind::PlanRolledBack { .. }
        ));

        if retry {
            // A scripted fault was transient (or took the destination with
            // it: then the move goes to the spare host instead).
            let to = match trigger {
                Trigger::Fail | Trigger::RefuseInstall => victim.to,
                Trigger::CrashNsm | Trigger::KillHost => HostId(4),
            };
            assert_eq!(entry.call(&mut cluster, to, &[]), Ok(()), "{ctx}: retry");
            for m in &plan.moves {
                assert_ne!(cluster.home_of(m.vm), Some(plan.host), "{ctx}: {m:?}");
            }
            if matches!(entry, Entry::Drained | Entry::Warm) {
                assert_eq!(cluster.home_of(VmId(1)), Some(to), "{ctx}");
            }
        }
        probe_streams(&mut cluster, ls, &socks);
        if retry && entry == Entry::Drained {
            // Once the first hop's pinned connection closes, its drain
            // completes and the bounce back to host 1 becomes legal.
            let home = cluster.home_of(VmId(1)).unwrap();
            let guest = cluster.guest_on(HostId(1), VmId(1)).unwrap();
            guest.close(socks[0].1).unwrap();
            cluster.run(10, 100_000);
            cluster.migrate_vm(VmId(1), home, HostId(1)).unwrap();
            assert_eq!(cluster.home_of(VmId(1)), Some(HostId(1)));
        }
    }

    /// The rollback property, for one entry point: a failure at ANY step
    /// of its plan — forced, or caused by the destination's NSM or the
    /// whole destination host dying just before the step, or by the
    /// destination refusing the install — unwinds every completed step in
    /// reverse, after which homes, routes, cores, frozen/draining/alias
    /// state, the event digest and the commit counters equal the
    /// pre-call snapshot, at one worker thread and at four. The entry point
    /// reports the failed step's own error, an immediate retry commits, and
    /// the rolled-back placement keeps serving.
    fn rollback_matrix(entry: Entry) {
        let steps = entry.setup(1).plan.steps.len();
        for threads in [1usize, 4] {
            for step in 0..steps {
                for trigger in [Trigger::Fail, Trigger::CrashNsm, Trigger::KillHost] {
                    rollback_case(entry, step, trigger, threads, true);
                }
                rollback_case(entry, step, Trigger::Fail, threads, false);
            }
            if entry != Entry::Drained {
                // (The step index is unused: the refusal is the install's.)
                rollback_case(entry, 0, Trigger::RefuseInstall, threads, true);
                rollback_case(entry, 0, Trigger::RefuseInstall, threads, false);
            }
        }
    }

    #[test]
    fn rollback_matrix_direct_drained_move() {
        rollback_matrix(Entry::Drained);
    }

    #[test]
    fn rollback_matrix_direct_warm_move() {
        rollback_matrix(Entry::Warm);
    }

    #[test]
    fn rollback_matrix_mixed_evacuation() {
        rollback_matrix(Entry::EvacMixed);
    }

    #[test]
    fn rollback_matrix_warm_evacuation_across_nsm_ids() {
        rollback_matrix(Entry::EvacWarm);
    }

    /// The freeze window is bounded: a connection that cannot go wire-quiet
    /// — here the ACKs towards the source NSM are lost, so its flight stays
    /// out while the peer already holds all of it — is cut at
    /// [`MAX_FREEZE_STEPS`] and moved anyway. The destination restarts at
    /// `snd_una` with a fresh, smaller window; the peer's ACKs for what it
    /// already holds must be honoured there, or the stream never resumes.
    #[test]
    fn warm_move_cut_at_the_freeze_bound_recovers_by_retransmission() {
        use nk_types::LinkConfig;
        // A quarter moves over the healthy link, a socket buffer's worth is
        // in flight at the cut, and the rest can only follow once that
        // flight is acknowledged at the destination.
        const TOTAL: usize = 1024 * 1024;
        let cfg = ClusterConfig::new()
            .with_host(evac_host(&[1], &[]))
            .with_host(empty_host(2));
        let (mut cluster, ls, socks) = cluster_with_traffic(cfg, &[1]);
        let s = socks[0].1;
        let (conn, _) = cluster.remote_mut(SERVER_IP).unwrap().accept(ls).unwrap();

        // (`cluster_with_traffic` already sent the first six bytes.)
        let mut stream = b"pinned".to_vec();
        stream.extend((6..TOTAL).map(|i| (i % 251) as u8));
        let (mut sent, mut got) = (6usize, Vec::new());
        // One cluster step of the tenant: write what the socket takes, step,
        // and read what arrived at the server.
        let mut pump = |cluster: &mut Cluster, sent: &mut usize, limit: usize| {
            let home = cluster.home_of(VmId(1)).unwrap();
            let guest = cluster.guest_on(home, VmId(1)).unwrap();
            if guest.poll(s).writable() {
                *sent += guest.send(s, &stream[*sent..limit]).unwrap_or(0);
            }
            cluster.step(100_000);
            let server = cluster.remote_mut(SERVER_IP).unwrap();
            let mut buf = [0u8; 16 * 1024];
            while let Ok(n) = server.recv(conn, &mut buf) {
                if n == 0 {
                    break;
                }
                got.extend_from_slice(&buf[..n]);
            }
            got.len()
        };
        // Healthy link first: the congestion window opens well past its
        // initial size.
        while pump(&mut cluster, &mut sent, TOTAL / 4) < TOTAL / 4 {}
        // (A few more steps, so the server's last window update lands.)
        for _ in 0..4 {
            pump(&mut cluster, &mut sent, TOTAL / 4);
        }

        // Everything towards the source NSM is now lost — the peer's ACKs
        // included — while the NSM keeps transmitting.
        let src = cluster.host_mut(HostId(1)).unwrap();
        let lossy = LinkConfig::ideal().with_loss(1.0);
        src.degrade_nsm_link(NsmId(1), lossy).unwrap();
        for _ in 0..4 {
            pump(&mut cluster, &mut sent, TOTAL);
        }
        assert!(!cluster.host(HostId(1)).unwrap().vm_wire_quiet(VmId(1)));
        assert!(
            sent < TOTAL,
            "part of the stream must still be with the tenant"
        );

        let freeze_steps = cluster.stats().freeze_steps;
        cluster
            .migrate_vm_warm(VmId(1), HostId(1), HostId(2))
            .unwrap();
        assert_eq!(
            cluster.stats().freeze_steps - freeze_steps,
            MAX_FREEZE_STEPS as u64,
            "the window must have been cut at its bound"
        );

        // The stream resumes from host 2 and completes, byte for byte.
        for _ in 0..3_000 {
            if pump(&mut cluster, &mut sent, TOTAL) == TOTAL {
                break;
            }
        }
        assert_eq!(got.len(), TOTAL, "the stream must complete after the cut");
        assert!(got == stream, "and verify byte for byte");
    }

    /// The freeze pacing: one uplink round trip per mini-step, never less
    /// than 200 µs.
    #[test]
    fn freeze_pacing_is_one_round_trip_floored_at_200us() {
        assert_eq!(freeze_dt_ns(0), 200_000, "zero-latency fabric: the floor");
        assert_eq!(freeze_dt_ns(100), 200_000, "a 200 µs round trip");
        assert_eq!(
            freeze_dt_ns(500),
            1_000_000,
            "beyond the floor: 2 × latency"
        );
    }

    /// One predicate decides warm eligibility for both callers:
    /// `migrate_vm_warm` refuses with `InvalidState` exactly the VMs the
    /// evacuation planner moves drained.
    #[test]
    fn warm_refusal_and_evacuation_planner_share_one_predicate() {
        let cfg = ClusterConfig::new()
            .with_host(evac_host(&[1], &[2, 3]))
            .with_host(empty_host(2));
        let (mut cluster, _, _) = cluster_with_traffic(cfg, &[1, 2, 3]);
        let plan = cluster.plan_evacuation(HostId(1), 1).unwrap();
        for m in plan.moves.iter().rev() {
            let direct = cluster.migrate_vm_warm(m.vm, HostId(1), HostId(2));
            match m.mode {
                EvacMode::Drained => assert_eq!(direct, Err(NkError::InvalidState), "{m:?}"),
                EvacMode::Warm => assert_eq!(direct, Ok(()), "{m:?}"),
            }
        }
    }

    /// Direct moves go through the plan journal like evacuations do: their
    /// plan events land in `plan_events()`, and every phase window carries
    /// its plan step id — with exactly one `Freeze` window, of real width,
    /// per warm chain.
    #[test]
    fn direct_moves_journal_their_plan_and_phases() {
        let cfg = ClusterConfig::new()
            .with_host(evac_host(&[1], &[]))
            .with_host(empty_host(2))
            .with_host(empty_host(3));
        let (mut cluster, _, _) = cluster_with_traffic(cfg, &[1]);
        cluster
            .migrate_vm_warm(VmId(1), HostId(1), HostId(2))
            .unwrap();
        let phases = cluster.obs_dump().phases;
        let chain: Vec<_> = phases.iter().map(|w| (w.phase, w.step)).collect();
        assert_eq!(
            chain,
            [
                (MigrationPhase::Freeze, Some(0)),
                (MigrationPhase::Export, Some(1)),
                (MigrationPhase::Reroute, Some(2)),
                (MigrationPhase::Install, Some(3)),
                (MigrationPhase::Thaw, Some(4)),
                (MigrationPhase::Retire, Some(5)),
            ]
        );
        assert!(phases[0].width_ns() > 0, "the freeze window has real width");
        assert!(phases[1..].iter().all(|w| w.width_ns() == 0 && w.ok));

        cluster.migrate_vm(VmId(1), HostId(2), HostId(3)).unwrap();
        let plans = cluster.plan_events().iter().filter_map(|e| match e.kind {
            PlanEventKind::PlanStarted { host, steps, waves } => Some((host, steps, waves)),
            PlanEventKind::PlanCommitted { host } => Some((host, 0, 0)),
            _ => None,
        });
        assert_eq!(
            plans.collect::<Vec<_>>(),
            [
                (HostId(1), 6, 2),
                (HostId(1), 0, 0),
                (HostId(2), 3, 1),
                (HostId(2), 0, 0)
            ]
        );
    }

    /// Both warm VMs of a wave share its freeze window: each gets exactly
    /// one `Freeze` phase, of the window's width, stamped with its own
    /// Freeze step — and a wave that fails before its window ran still
    /// closes the phases of the VMs it had frozen.
    #[test]
    fn a_wave_of_warm_chains_shares_one_freeze_window() {
        let config = || {
            ClusterConfig::new()
                .with_host(evac_host(&[1, 2], &[]))
                .with_host(empty_host(2))
                .with_host(empty_host(3))
        };
        let freezes = |cluster: &Cluster| -> Vec<_> {
            let phases = cluster.obs_dump().phases.into_iter();
            phases
                .filter(|w| w.phase == MigrationPhase::Freeze)
                .map(|w| (w.vm, w.step, w.width_ns(), w.ok))
                .collect()
        };
        let (mut cluster, _, _) = cluster_with_traffic(config(), &[1, 2]);
        let steps_before = cluster.stats().freeze_steps;
        assert!(cluster.evacuate_host(HostId(1), 2).unwrap().committed);
        let width = (cluster.stats().freeze_steps - steps_before) * freeze_dt_ns(0);
        assert_eq!(
            freezes(&cluster),
            [
                (Some(VmId(1)), Some(0), width, true),
                (Some(VmId(2)), Some(1), width, true)
            ]
        );

        // Fail VM2's Freeze: VM1 was frozen, the window never ran.
        let (mut cluster, _, _) = cluster_with_traffic(config(), &[1, 2]);
        let fault = EvacFault {
            before_step: 1,
            kind: EvacFaultKind::FailAction,
        };
        let report = cluster.evacuate_host_with_faults(HostId(1), 2, &[fault]);
        assert_eq!(report.unwrap().failed_step, Some(1));
        assert_eq!(cluster.stats().freeze_steps, 0);
        assert_eq!(
            freezes(&cluster),
            [
                (Some(VmId(2)), Some(1), 0, false),
                (Some(VmId(1)), Some(0), 0, true)
            ]
        );
    }

    /// Evacuation planning refuses the degenerate cases; executing against
    /// them never starts a plan.
    #[test]
    fn planning_is_refused_without_a_host_or_destination() {
        let cfg = ClusterConfig::new().with_host(evac_host(&[1], &[]));
        let cluster = Cluster::new(cfg).unwrap();
        assert_eq!(
            cluster.plan_evacuation(HostId(9), 1),
            Err(NkError::NotFound)
        );
        // Only one host: nowhere to go (found before pace validation).
        assert_eq!(cluster.plan_evacuation(HostId(1), 1), Err(NkError::NoNsm));
        assert_eq!(cluster.plan_evacuation(HostId(1), 0), Err(NkError::NoNsm));
    }

    /// A scripted fault must name a step of its plan: one past the end would
    /// never fire, and the plan would commit as if nothing had been
    /// scripted. Both entry points refuse it before the first step, and
    /// the cluster, the plan counter and the plan log stay as they were.
    #[test]
    fn a_fault_past_the_plans_end_is_refused_before_any_step() {
        let cfg = ClusterConfig::new()
            .with_host(evac_host(&[1], &[]))
            .with_host(empty_host(2))
            .with_host(empty_host(3));
        let (mut cluster, _, _) = cluster_with_traffic(cfg, &[1]);
        let past_end = |plan: &EvacPlan| EvacFault {
            before_step: plan.steps.len(),
            kind: EvacFaultKind::FailAction,
        };
        let before = snapshot(&cluster);
        let (plans, logged) = (cluster.stats().evac_plans, cluster.plan_events().len());

        let fault = past_end(&cluster.plan_evacuation(HostId(1), 1).unwrap());
        let evacuation = cluster.evacuate_host_with_faults(HostId(1), 1, &[fault]);
        assert_eq!(evacuation.err(), Some(NkError::BadConfig));

        let (vm, to, mode) = (VmId(1), HostId(2), EvacMode::Drained);
        let one_move = EvacPlan::compile(HostId(1), &[EvacMove { vm, to, mode }], &[], 1);
        let fault = past_end(&one_move.unwrap());
        assert_eq!(
            cluster.move_vm(vm, HostId(1), to, mode, &[fault]),
            Err(NkError::BadConfig)
        );

        assert_eq!(snapshot(&cluster), before);
        assert_eq!(cluster.stats().evac_plans, plans);
        assert_eq!(cluster.plan_events().len(), logged);
    }

    /// A killed host takes the `/32` detours towards it along with its
    /// block route: a detour left behind would keep delivering the peer's
    /// frames into a port nobody drains.
    #[test]
    fn killing_a_host_drops_the_detours_towards_it() {
        let cfg = ClusterConfig::new()
            .with_host(evac_host(&[1], &[]))
            .with_host(empty_host(2))
            .with_host(empty_host(3));
        let (mut cluster, _, _) = cluster_with_traffic(cfg, &[1]);
        assert_eq!(cluster.tor_routes(), 4, "three trunks and the server");
        cluster
            .migrate_vm_warm(VmId(1), HostId(1), HostId(2))
            .unwrap();
        assert_eq!(cluster.tor_routes(), 5, "plus the connection's detour");
        cluster.kill_host(HostId(2)).unwrap();
        assert_eq!(cluster.tor_routes(), 3);
        assert_eq!(cluster.home_of(VmId(1)), None);
        cluster.run(10, 100_000);
    }

    /// `kill_host` is a dump-on-fault trigger: the recorder freezes with
    /// the kill as the last captured event, and nothing that happens
    /// afterwards — steps, migrations, their events — leaves a trace.
    #[test]
    fn kill_host_freezes_the_flight_recorder_at_the_trigger() {
        let cfg = ClusterConfig::new()
            .with_host(evac_host(&[1], &[]))
            .with_host(empty_host(2))
            .with_host(empty_host(3));
        let (mut cluster, _, _) = cluster_with_traffic(cfg, &[1]);
        assert!(cluster.obs_dump().frozen.is_none());

        let kill_at = cluster.now_ns();
        cluster.kill_host(HostId(3)).unwrap();
        let info = cluster
            .obs_dump()
            .frozen
            .expect("the kill must freeze the ring");
        assert_eq!(info.at_ns, kill_at);
        assert_eq!(info.reason, FreezeReason::HostKilled { host: HostId(3) });
        let frozen_dump = cluster.obs_dump();
        assert!(
            matches!(
                frozen_dump.events.last().map(|e| &e.kind),
                Some(ObsEventKind::Cluster(ClusterAction::HostKilled { host }))
                    if *host == HostId(3)
            ),
            "the kill itself is the last captured event: {:?}",
            frozen_dump.events
        );

        cluster.run(20, 100_000);
        cluster.migrate_vm(VmId(1), HostId(1), HostId(2)).unwrap();
        cluster.run(20, 100_000);
        assert_eq!(
            cluster.obs_dump(),
            frozen_dump,
            "post-trigger activity must not change the frozen dump"
        );
    }
}
