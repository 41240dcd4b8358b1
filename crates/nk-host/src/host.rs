//! The NetKernel host: what it owns, how it is built and how it steps.
//!
//! The struct, its accessors, the step protocol (`step`, and the
//! `begin_step` / `poll_round` / `end_step` pieces a cluster interleaves
//! across hosts, the poll round included) and fault application live
//! here. Everything that attaches or detaches a VM or an NSM is
//! [`crate::lifecycle`], and the control epoch is [`crate::control`].

use crate::control::ControlTelemetry;
use crate::faults::{FaultInjector, FaultStats};
use crate::sched::SchedStats;
use nk_ctrl::ControlPlane;
use nk_engine::CoreEngine;
use nk_fabric::{HostUplink, VirtualSwitch};
use nk_guest::GuestLib;
use nk_netstack::{Segment, StackConfig, TcpStack};
use nk_queue::{rewind_set, RequesterEnd, ResponderEnd};
use nk_service::Nsm;
use nk_sim::{CorePool, CostModel, Pollable, PoolMember};
use nk_types::addr::nsm_ip_on;
use nk_types::constants::CORE_ENGINE_CORES;
use nk_types::faults::{FaultAction, FaultPlan};
use nk_types::{ControlEvent, HostConfig, HostId, NkResult, NsmId, VmId};
use std::collections::BTreeMap;

/// Everything the host keeps about one VM, so retiring it is one `remove`
/// (the engine's half is the VM's port in [`CoreEngine`], dropped the same
/// way by `deregister_vm`).
pub(crate) struct VmSlot {
    /// The application's socket API; [`GuestLib::region`] is the hugepage
    /// region every NSM serving the VM is wired to.
    pub(crate) guest: GuestLib,
    /// The NSM share being drained while the VM is mid-migration: exported
    /// to another host, still serving the connections pinned here.
    pub(crate) draining: Option<NsmId>,
}

/// A complete NetKernel host: VMs with GuestLibs, NSMs with ServiceLibs and
/// stacks, a CoreEngine switching NQEs, and a virtual switch carrying the
/// NSMs' traffic to remote hosts (paper Figure 2).
pub struct NetKernelHost {
    pub(crate) cfg: HostConfig,
    pub(crate) switch: VirtualSwitch<Segment>,
    pub(crate) engine: CoreEngine,
    pub(crate) vms: BTreeMap<VmId, VmSlot>,
    pub(crate) nsms: BTreeMap<NsmId, Nsm>,
    pub(crate) remotes: BTreeMap<u32, TcpStack>,
    /// Restart generation per NSM: a restarted NSM's stack starts its
    /// ephemeral-port scan elsewhere, like a rebooted kernel would, so new
    /// connections cannot collide with peers' stale pre-crash state.
    pub(crate) generations: BTreeMap<NsmId, u32>,
    pub(crate) sched: SchedStats,
    pub(crate) injector: FaultInjector,
    /// Cycle-accounting pool the control plane observes and resizes: one
    /// member for CoreEngine, one per alive NSM. Datapath work is charged
    /// against it only on a host with a control plane (`ctrl`), the one
    /// reader of the ledgers.
    pub(crate) pools: CorePool,
    /// Cost model used to charge datapath work against the pool.
    pub(crate) cost: CostModel,
    /// The operator control plane, when the configuration enables one.
    pub(crate) ctrl: Option<ControlPlane>,
    /// Every control decision applied so far, in order (the record log).
    pub(crate) control_log: Vec<ControlEvent>,
    /// How much of it [`NetKernelHost::take_fresh_control_events`] handed out.
    pub(crate) control_taken: usize,
    /// Per-epoch control observability (time series of samples and action
    /// counts).
    pub(crate) telemetry: ControlTelemetry,
    /// Virtual time at which the next control epoch closes.
    pub(crate) next_epoch_ns: u64,
    /// Remaining warm imports to refuse, armed by
    /// [`NetKernelHost::inject_import_failures`] — the fault surface
    /// evacuation-rollback tests drive.
    pub(crate) import_fail_budget: u32,
    /// `(virtual time, fault events applied)` of each step open that applied
    /// any, until [`NetKernelHost::take_applied_faults`] drains them: a
    /// cluster's flight recorder mirrors them after each step. At most one
    /// entry per event of the installed fault plans.
    pub(crate) applied_faults: Vec<(u64, u32)>,
    /// Set by `begin_step`: the step's first round has yet to rewind the
    /// rings the applications drained since the last step.
    pub(crate) step_opened: bool,
    pub(crate) now_ns: u64,
}

// The cluster's sharded executor moves whole hosts onto worker threads, so
// everything a host owns — guests, NSMs, stacks, hugepage regions, wake
// state, the switch with its uplink port end — must be `Send`. Checked
// here at compile time so a non-Send field (an `Rc`, a thread-bound cache)
// is caught in this crate, not as an inscrutable error in `nk-cluster`.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<NetKernelHost>();
};

impl NetKernelHost {
    /// Build a host from its configuration.
    pub fn new(cfg: HostConfig) -> NkResult<Self> {
        cfg.validate()?;
        let mut pools = match cfg.control.as_ref().and_then(|c| c.pool_clock_hz) {
            Some(hz) => CorePool::with_clock(hz),
            None => CorePool::new(),
        };
        pools.register(PoolMember::Engine, CORE_ENGINE_CORES);
        let ctrl = match cfg.control.clone() {
            Some(policy) => Some(ControlPlane::new(policy)?),
            None => None,
        };
        let next_epoch_ns = cfg.control.as_ref().map(|c| c.epoch_ns).unwrap_or(u64::MAX);
        let mut host = NetKernelHost {
            switch: VirtualSwitch::new(),
            engine: CoreEngine::new(cfg.isolation.clone(), cfg.batch_size),
            cfg,
            vms: BTreeMap::new(),
            nsms: BTreeMap::new(),
            remotes: BTreeMap::new(),
            generations: BTreeMap::new(),
            sched: SchedStats::default(),
            injector: FaultInjector::idle(),
            pools,
            cost: CostModel::default(),
            ctrl,
            control_log: Vec::new(),
            control_taken: 0,
            telemetry: ControlTelemetry::default(),
            next_epoch_ns,
            import_fail_budget: 0,
            applied_faults: Vec::new(),
            step_opened: false,
            now_ns: 0,
        };
        // Bring up the NSMs first so VMs can be mapped onto them.
        for nsm_cfg in host.cfg.nsms.clone() {
            host.attach_nsm(&nsm_cfg, 0)?;
        }
        for vm_cfg in host.cfg.vms.clone() {
            let nsm = host.cfg.nsm_for_vm(vm_cfg.id)?;
            host.attach_vm(&vm_cfg, nsm, 0)?;
        }
        Ok(host)
    }

    /// The host's configuration.
    pub fn config(&self) -> &HostConfig {
        &self.cfg
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Mutable access to a VM's GuestLib (the application's socket API).
    pub fn guest_mut(&mut self, vm: VmId) -> Option<&mut GuestLib> {
        self.vms.get_mut(&vm).map(|slot| &mut slot.guest)
    }

    /// Attach a remote host (a peer machine) to the fabric at `ip`. Drive
    /// its sockets by polling them (`poll`, `accept`, `recv`): the host
    /// ticks the stack every round and discards its `StackEvent`s.
    pub fn add_remote(&mut self, ip: u32) -> &mut TcpStack {
        let port = self.switch.attach(ip);
        let stack = TcpStack::new(StackConfig::new(ip), port);
        self.remotes.insert(ip, stack);
        self.remotes.get_mut(&ip).expect("just inserted")
    }

    /// Mutable access to a previously added remote host's stack.
    pub fn remote_mut(&mut self, ip: u32) -> Option<&mut TcpStack> {
        self.remotes.get_mut(&ip)
    }

    /// The vNIC address of `nsm` on *this* host (`10.<host>.0.<nsm>`).
    pub fn nsm_addr(&self, nsm: NsmId) -> u32 {
        nsm_ip_on(self.cfg.host_id, nsm)
    }

    /// This host's identity in the cluster address scheme.
    pub fn host_id(&self) -> HostId {
        self.cfg.host_id
    }

    /// Adopt `uplink` (the host end of a top-of-rack trunk's port) as this
    /// host's uplink: frames with no local destination leave
    /// through it and ToR deliveries enter through it on every poll round.
    /// Destinations inside this host's own address block stay local even
    /// when dead (a crashed vNIC must not read as cross-host traffic).
    pub fn connect_uplink(&mut self, uplink: HostUplink<Segment>) {
        self.switch.set_uplink_filtered(
            uplink,
            nk_types::addr::host_prefix(self.cfg.host_id),
            nk_types::addr::HOST_PREFIX_MASK,
        );
    }

    /// The host's virtual switch, read-only: its routes are the one record
    /// of every vNIC and of every address a warm move adopted
    /// ([`VirtualSwitch::aliases`]).
    pub fn switch(&self) -> &VirtualSwitch<Segment> {
        &self.switch
    }

    /// CoreEngine statistics.
    pub fn engine_stats(&self) -> nk_engine::EngineStats {
        self.engine.stats()
    }

    /// ServiceLib statistics of an NSM.
    pub fn nsm_service_stats(&self, nsm: NsmId) -> Option<nk_service::ServiceStats> {
        self.nsms.get(&nsm).map(Nsm::service_stats)
    }

    /// The TCP stack of a TCP-stack NSM, read-only.
    pub fn nsm_stack(&self, nsm: NsmId) -> Option<&TcpStack> {
        match self.nsms.get(&nsm)? {
            Nsm::Tcp(n) => Some(n.stack()),
            Nsm::SharedMem(_) => None,
        }
    }

    /// Per-VM CoreEngine switching statistics.
    pub fn vm_switch_stats(&self, vm: VmId) -> Option<nk_engine::VmSwitchStats> {
        self.engine.vm_stats(vm)
    }

    /// Request NQEs parked in the engine's stall queues awaiting retry.
    pub fn stalled_nqes(&self) -> usize {
        self.engine.stalled_nqes()
    }

    /// Request NQEs of one VM parked in the engine's stall queues.
    pub fn stalled_nqes_of(&self, vm: VmId) -> usize {
        self.engine.stalled_nqes_of(vm)
    }

    /// Responses parked behind one VM's full rings, waiting for its guest.
    pub fn parked_responses_of(&self, vm: VmId) -> usize {
        self.engine.parked_responses_of(vm)
    }

    /// Step behaviour counters of [`NetKernelHost::step`] (rounds per step,
    /// quiescent exits, round-limit hits). Only `step` tallies them: a host
    /// driven by a cluster (`begin_step` / `poll_round` / `end_step`) leaves
    /// them at zero, and the cluster's own `ClusterStats` carries the same
    /// counters (`control_work` for `control_actions`).
    pub fn sched_stats(&self) -> SchedStats {
        self.sched
    }

    /// True when an NSM with this id is currently alive.
    pub fn has_nsm(&self, nsm: NsmId) -> bool {
        self.nsms.contains_key(&nsm)
    }

    /// The NSM currently serving a VM's new connections.
    pub fn nsm_of(&self, vm: VmId) -> Option<NsmId> {
        self.engine.nsm_of(vm)
    }

    /// True when the VM currently has an instance on this host — resident
    /// or still draining off it.
    pub fn has_vm(&self, vm: VmId) -> bool {
        self.vms.contains_key(&vm)
    }

    /// Connections a VM still has pinned on this host — the drain counter a
    /// cross-host migration watches.
    pub fn vm_pinned(&self, vm: VmId) -> usize {
        self.engine.pinned_connections_of(vm)
    }

    /// Connections pinned to `nsm` from any VM on this host.
    pub fn nsm_pinned(&self, nsm: NsmId) -> usize {
        self.engine.pinned_connections_for_nsm(nsm)
    }

    /// Advance the host by `dt_ns`: fault events due at the new virtual time
    /// are applied first, then every datapath component — CoreEngine, the
    /// NSMs, remote stacks and the virtual switch — is polled in rounds
    /// until a full round reports no work (or `max_poll_rounds` is hit), so
    /// request → NSM → response round trips complete within one step
    /// regardless of queue depth. The control phase closes the step: at each
    /// control-epoch boundary the operator control plane samples the pool
    /// ledgers and may resize components or migrate VMs. Returns the amount
    /// of work (fault events + NQEs + segments + frames + control actions)
    /// processed.
    pub fn step(&mut self, dt_ns: u64) -> usize {
        let injected = self.begin_step(dt_ns);
        let mut total = injected;
        let mut quiescent = false;
        for _ in 0..self.cfg.max_poll_rounds {
            let work = self.poll_round();
            self.sched.rounds += 1;
            total += work;
            if work == 0 {
                quiescent = true;
                break;
            }
        }
        let controlled = self.end_step();
        total += controlled;
        self.sched.steps += 1;
        self.sched.fault_events += injected as u64;
        self.sched.quiescent_exits += quiescent as u64;
        self.sched.round_limit_hits += !quiescent as u64;
        self.sched.control_actions += controlled as u64;
        self.sched.work_items += total as u64;
        total
    }

    /// Advance virtual time and refill the accounting budgets for a step of
    /// `dt_ns`.
    fn advance(&mut self, dt_ns: u64) {
        self.now_ns += dt_ns;
        if self.ctrl.is_some() {
            self.pools.begin_step(dt_ns);
        }
    }

    // ---- The cluster-facing step protocol ------------------------------------
    //
    // A cluster interleaves poll rounds ACROSS hosts (host A's uplink frames
    // must traverse the top-of-rack switch before host B can answer within
    // the same step), so it cannot use the self-contained `step()`. These
    // three methods expose the same step structure — inject, poll rounds,
    // control — with the round loop handed to the caller. `step()` is the
    // single-host composition of exactly these pieces.
    //
    // Because the round loop lives with the caller, a cluster-driven host
    // tallies nothing: `sched_stats()` stays at zero and
    // `HostConfig::max_poll_rounds` does not bound the rounds — the
    // cluster's own stats and its `DEFAULT_POLL_ROUNDS` bound play those
    // roles at cluster scope.

    /// Open a step of `dt_ns`: advance virtual time, refill accounting
    /// budgets and apply due fault events. Returns the fault events applied.
    pub fn begin_step(&mut self, dt_ns: u64) -> usize {
        self.advance(dt_ns);
        self.step_opened = true;
        self.apply_due_faults(self.now_ns)
    }

    /// One poll round over the whole datapath at the current virtual time,
    /// in a fixed order: CoreEngine, the NSMs in ascending id, remote
    /// stacks, the virtual switch. Returns the work done; the caller loops
    /// until quiescence.
    ///
    /// The first round of a step and every round that does no work start
    /// each empty ring of the host's queue sets that has left its first
    /// page over at slot 0 ([`nk_queue::rewind_set`]), so a ring's resident
    /// memory follows its traffic, not its capacity: the first catches the
    /// rings the applications drained between steps (completions and
    /// events), a quiet one the rings the round drained (requests, the
    /// NSMs' rings). Both run on the thread that polls the host, which
    /// holds both ends of each set for the round.
    ///
    /// On a host with a control plane, each NSM's work is charged to its pool
    /// ledger as it polls, and the engine's after the NSMs, in one batched
    /// charge.
    pub fn poll_round(&mut self) -> usize {
        if std::mem::take(&mut self.step_opened) {
            self.rewind_empty_rings();
        }
        let now_ns = self.now_ns;
        let engine_work = Pollable::poll(&mut self.engine, now_ns);
        // Each NSM work item is roughly one NQE translated plus one
        // socket-level message processed by the stack; precise per-figure
        // costs live in the perf model, this is the load signal the
        // autoscaler watches.
        let per_item = self.cost.nqe_translate + self.cost.kernel_tx.per_msg;
        // Nobody reads the ledgers without a control plane; keep the
        // charging off the hot path then.
        let charge = self.ctrl.is_some();
        let mut work = engine_work;
        for (id, nsm) in self.nsms.iter_mut() {
            let nsm_work = Pollable::poll(nsm, now_ns);
            if charge && nsm_work > 0 {
                let cycles = (nsm_work as f64 * per_item) as u64;
                self.pools.charge_up_to(PoolMember::Nsm(*id), cycles);
            }
            work += nsm_work;
        }
        if charge && engine_work > 0 {
            let cycles = self
                .cost
                .switch_cost(engine_work as u64, self.cfg.batch_size);
            self.pools.charge_up_to(PoolMember::Engine, cycles as u64);
        }
        for remote in self.remotes.values_mut() {
            work += Pollable::poll(remote, now_ns);
            // A remote's application drives its sockets by polling them
            // and nothing reads the stack's event queue, so the round's
            // events are dropped here rather than piling up for the life
            // of the host.
            remote.discard_events();
        }
        work += Pollable::poll(&mut self.switch, now_ns);
        if work == 0 {
            self.rewind_empty_rings();
        }
        work
    }

    /// Start every empty ring of the host's queue sets that has left its
    /// first page over at slot 0.
    fn rewind_empty_rings(&mut self) {
        self.for_each_queue_set(|requester, responder| {
            let _ = rewind_set(requester, responder);
        });
    }

    /// Call `f` on both ends of every queue set of the host's VMs and NSMs:
    /// the guest's and CoreEngine's ends of each VM's, CoreEngine's and
    /// ServiceLib's of each NSM's.
    fn for_each_queue_set(&mut self, mut f: impl FnMut(&mut RequesterEnd, &mut ResponderEnd)) {
        let (vm_ports, nsm_ports) = self.engine.queue_ends_mut();
        for (vm, engine_ends) in vm_ports {
            if let Some(slot) = self.vms.get_mut(&vm) {
                let guest_ends = slot.guest.queue_sets_mut();
                guest_ends
                    .iter_mut()
                    .zip(engine_ends)
                    .for_each(|(g, e)| f(g, e));
            }
        }
        for (nsm, engine_ends) in nsm_ports {
            if let Some(instance) = self.nsms.get_mut(&nsm) {
                let service_ends = instance.queue_sets_mut();
                engine_ends
                    .iter_mut()
                    .zip(service_ends)
                    .for_each(|(e, s)| f(e, s));
            }
        }
    }

    /// The furthest write index of any ring of the host's queue sets since
    /// it last started at slot 0: how many of its slots the busiest ring
    /// has touched. A test view of the rewind.
    #[doc(hidden)]
    pub fn ring_reach(&mut self) -> usize {
        let mut reach = 0;
        self.for_each_queue_set(|requester, responder| {
            reach = reach.max(requester.written()).max(responder.written());
        });
        reach
    }

    /// Close a step: run the control phase (a no-op off epoch boundaries or
    /// without a control plane). Returns the control actions applied.
    pub fn end_step(&mut self) -> usize {
        let applied = self.run_control(self.now_ns);
        self.settle_census();
        applied
    }

    /// Apply every fault event due at `now_ns` and note how many applied
    /// (a cluster's flight recorder builds its fault timeline from the
    /// notes); returns how many applied.
    fn apply_due_faults(&mut self, now_ns: u64) -> usize {
        let mut applied = 0;
        while let Some(action) = self.injector.take_due(now_ns) {
            // Plans are validated at install time; an application that still
            // fails (e.g. a link change for an NSM crashed by an earlier
            // event) is deliberately a no-op rather than a panic.
            let _ = self.apply_fault(action);
            applied += 1;
        }
        if applied > 0 {
            self.applied_faults.push((now_ns, applied as u32));
        }
        applied
    }

    /// The `(virtual time, fault events applied)` of every step open that
    /// applied any since the last call, oldest first.
    pub fn take_applied_faults(&mut self) -> Vec<(u64, u32)> {
        std::mem::take(&mut self.applied_faults)
    }

    /// Step repeatedly with a fixed increment.
    pub fn run(&mut self, steps: usize, dt_ns: u64) {
        for _ in 0..steps {
            self.step(dt_ns);
        }
    }

    // ---- Fault injection --------------------------------------------------------

    /// Install a fault plan to be replayed against virtual time. Events
    /// already in the past apply on the next step. Replaces any previous
    /// plan.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) -> NkResult<()> {
        plan.validate(&self.cfg)?;
        self.injector = FaultInjector::new(plan);
        Ok(())
    }

    /// Counters of the fault events applied so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.injector.stats()
    }

    /// Apply one fault action immediately (the injector calls this; tests
    /// and operators may too).
    pub fn apply_fault(&mut self, action: FaultAction) -> NkResult<usize> {
        match action {
            FaultAction::CrashNsm(nsm) => self.crash_nsm(nsm),
            FaultAction::RestartNsm(nsm) => self.restart_nsm(nsm).map(|()| 0),
            FaultAction::MigrateVm { vm, to } => self.migrate_vm(vm, to).map(|()| 0),
            FaultAction::DegradeLink { nsm, link } => self.degrade_nsm_link(nsm, link).map(|()| 0),
        }
    }
}

impl Pollable for NetKernelHost {
    /// One poll round at the host's own clock, which `begin_step` advanced
    /// in lockstep with whoever drives the rounds.
    fn poll(&mut self, _now_ns: u64) -> usize {
        self.poll_round()
    }
}

/// What the unit tests of every module of this crate start from.
#[cfg(test)]
pub(crate) mod testutil {
    use super::NetKernelHost;
    use nk_types::{
        HostConfig, HostId, NsmConfig, NsmId, SockAddr, SocketApi, SocketId, StackKind, VmConfig,
        VmId, VmToNsmPolicy,
    };

    pub(crate) const REMOTE_IP: u32 = 0x0A00_0100;

    /// Attach a remote at `REMOTE_IP` listening on port 7.
    pub(crate) fn remote_listener(host: &mut NetKernelHost) -> SocketId {
        remote_listener_at(host, REMOTE_IP)
    }

    /// Attach a remote at `ip` listening on port 7.
    pub(crate) fn remote_listener_at(host: &mut NetKernelHost, ip: u32) -> SocketId {
        let remote = host.add_remote(ip);
        let ls = remote.socket();
        remote.bind(ls, SockAddr::new(0, 7)).unwrap();
        remote.listen(ls, 16).unwrap();
        ls
    }

    /// Open a socket on VM 1 and start connecting it to the listener at
    /// `REMOTE_IP`.
    pub(crate) fn guest_connect(host: &mut NetKernelHost) -> SocketId {
        guest_connect_to(host, REMOTE_IP)
    }

    /// Open a socket on VM 1 and start connecting it to port 7 of `ip`.
    pub(crate) fn guest_connect_to(host: &mut NetKernelHost, ip: u32) -> SocketId {
        let guest = host.guest_mut(VmId(1)).unwrap();
        let s = guest.socket().unwrap();
        guest.connect(s, SockAddr::new(ip, 7)).unwrap();
        s
    }

    /// A host config with VMs `1..=vms` and kernel-stack NSMs `1..=nsms`,
    /// every VM mapped to NSM 1.
    pub(crate) fn kernel_cfg(host_id: u8, vms: u8, nsms: u8) -> HostConfig {
        let mut cfg = HostConfig::new()
            .with_host_id(HostId(host_id))
            .with_mapping(VmToNsmPolicy::All(NsmId(1)));
        for vm in 1..=vms {
            cfg = cfg.with_vm(VmConfig::new(VmId(vm)));
        }
        for nsm in 1..=nsms {
            cfg = cfg.with_nsm(NsmConfig::kernel(NsmId(nsm)));
        }
        cfg
    }

    /// The host [`kernel_cfg`] describes.
    pub(crate) fn kernel_host(host_id: u8, vms: u8, nsms: u8) -> NetKernelHost {
        NetKernelHost::new(kernel_cfg(host_id, vms, nsms)).unwrap()
    }

    /// One VM on one NSM of the given stack kind.
    pub(crate) fn one_vm_host(stack: StackKind) -> NetKernelHost {
        let nsm = match stack {
            StackKind::Mtcp => NsmConfig::mtcp(NsmId(1)),
            StackKind::SharedMem => NsmConfig::shared_mem(NsmId(1)),
            StackKind::Kernel => NsmConfig::kernel(NsmId(1)),
        };
        NetKernelHost::new(kernel_cfg(0, 1, 0).with_nsm(nsm)).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;
    use nk_queue::queueset::PAGE_SLOTS;
    use nk_types::constants::{
        DEFAULT_HUGEPAGE_COUNT, DEFAULT_QUEUE_CAPACITY, DEFAULT_RECV_BUF, HUGEPAGE_SIZE,
    };
    use nk_types::{
        HostConfig, LinkConfig, NkError, NsmConfig, ShutdownHow, SockAddr, SocketApi, SocketId,
        StackKind, VmConfig, VmToNsmPolicy,
    };

    /// End-to-end: a guest application talks through GuestLib → CoreEngine →
    /// kernel-stack NSM → virtual switch → a remote echo server, and back.
    #[test]
    fn guest_reaches_remote_server_through_nsm() {
        let mut host = one_vm_host(StackKind::Kernel);
        // Remote server listening on port 7.
        let ls = remote_listener(&mut host);

        // Guest connects and sends a request.
        let s = guest_connect(&mut host);
        host.run(20, 100_000);

        let guest = host.guest_mut(VmId(1)).unwrap();
        assert!(guest.poll(s).writable(), "connect did not complete");
        assert_eq!(guest.send(s, b"hello from the vm").unwrap(), 17);
        host.run(20, 100_000);

        // The remote sees the data and answers.
        let remote = host.remote_mut(REMOTE_IP).unwrap();
        let (conn, _) = remote.accept(ls).unwrap();
        let mut buf = [0u8; 64];
        let n = remote.recv(conn, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello from the vm");
        remote.send(conn, b"hello from outside").unwrap();
        host.run(20, 100_000);

        let guest = host.guest_mut(VmId(1)).unwrap();
        let mut buf = [0u8; 64];
        let n = guest.recv(s, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello from outside");
        assert!(host.engine_stats().nqes_switched > 0);
        assert!(host.nsm_service_stats(NsmId(1)).unwrap().bytes_tx >= 17);
    }

    /// A step's first round and its quiet one start every empty ring that
    /// left its first page over at slot 0: four guest sockets echo through
    /// a remote for 600 steps, many times a default ring's worth of NQEs,
    /// yet after every step no ring of the host has written further than
    /// its first page plus one NQE a socket, one step's traffic, and every
    /// echo arrives whole.
    #[test]
    fn every_empty_ring_restarts_at_slot_0_past_its_first_page() {
        const SOCKETS: usize = 4;
        let mut host = one_vm_host(StackKind::Kernel);
        let ls = remote_listener(&mut host);
        let socks: Vec<SocketId> = (0..SOCKETS).map(|_| guest_connect(&mut host)).collect();
        host.run(20, 100_000);
        let remote = host.remote_mut(REMOTE_IP).unwrap();
        let conns: Vec<SocketId> = (0..SOCKETS).map(|_| remote.accept(ls).unwrap().0).collect();
        let mut buf = [0u8; 64];
        let mut echoed = 0;
        for step in 0..600u32 {
            let guest = host.guest_mut(VmId(1)).unwrap();
            for &s in &socks {
                if let Ok(n) = guest.recv(s, &mut buf) {
                    assert_eq!(&buf[..n], &step.to_le_bytes()[..n]);
                    echoed += n;
                }
                guest.send(s, &(step + 1).to_le_bytes()).unwrap();
            }
            host.step(100_000);
            let remote = host.remote_mut(REMOTE_IP).unwrap();
            for &c in &conns {
                while let Ok(n) = remote.recv(c, &mut buf) {
                    remote.send(c, &buf[..n]).unwrap();
                }
            }
            host.step(100_000);
            assert!(host.ring_reach() <= PAGE_SLOTS + SOCKETS, "step {step}");
        }
        assert_eq!(echoed, 599 * 4 * SOCKETS, "an echo went missing");
        let switched = host.engine_stats().nqes_switched as usize;
        assert!(switched > 8 * DEFAULT_QUEUE_CAPACITY, "{switched} NQEs");
    }

    /// One hugepage (2 MB) shared by ten receiving sockets whose receive
    /// budgets add up to 2.5 MB: while the application is not reading, the
    /// region runs out, and every byte must still arrive, in order, once it
    /// does read. ServiceLib only takes from the stack what it has a chunk
    /// for.
    #[test]
    fn one_hugepage_under_ten_receivers_loses_nothing() {
        const CONNS: usize = 10;
        const PER_CONN: usize = 400_000;
        let mut cfg = kernel_cfg(0, 1, 1);
        cfg.hugepages_per_pair = 1;
        let mut host = NetKernelHost::new(cfg).unwrap();
        let ls = remote_listener(&mut host);

        // Connect one at a time so guest socket i is remote connection i.
        let mut socks = Vec::new();
        let mut conns = Vec::new();
        for _ in 0..CONNS {
            let s = guest_connect(&mut host);
            host.run(20, 100_000);
            socks.push(s);
            conns.push(host.remote_mut(REMOTE_IP).unwrap().accept(ls).unwrap().0);
        }
        let byte = |conn: usize, i: usize| ((i * 31 + conn * 7) % 251) as u8;

        let mut sent = [0usize; CONNS];
        let mut got: Vec<Vec<u8>> = vec![Vec::new(); CONNS];
        let mut buf = vec![0u8; 64 * 1024];
        for round in 0..6_000 {
            let remote = host.remote_mut(REMOTE_IP).unwrap();
            for (c, &conn) in conns.iter().enumerate() {
                let end = PER_CONN.min(sent[c] + 32 * 1024);
                let chunk: Vec<u8> = (sent[c]..end).map(|i| byte(c, i)).collect();
                sent[c] += remote.send(conn, &chunk).unwrap_or(0);
            }
            host.run(1, 100_000);
            // The application sleeps through the first 300 rounds.
            if round < 300 {
                continue;
            }
            let guest = host.guest_mut(VmId(1)).unwrap();
            for (c, &s) in socks.iter().enumerate() {
                while let Ok(n) = guest.recv(s, &mut buf) {
                    got[c].extend_from_slice(&buf[..n]);
                }
            }
            if got.iter().all(|g| g.len() >= PER_CONN) {
                break;
            }
        }
        let region = host.guest_mut(VmId(1)).unwrap().region().stats();
        assert!(region.failed_allocs > 0, "the hugepage never ran out");
        for (c, g) in got.iter().enumerate() {
            assert_eq!(g.len(), PER_CONN, "connection {c}: bytes lost");
            assert!(
                g.iter().enumerate().all(|(i, &b)| b == byte(c, i)),
                "connection {c}: bytes reordered or corrupted"
            );
        }
        assert_eq!(region.chunks, 0, "chunks leaked");
    }

    /// A full NQE ring parks, never drops: a remote streams 400 000 bytes,
    /// as fast as its send buffer takes them, to a guest that reads every
    /// step, through rings of 8 and of 2 NQEs. Every byte arrives, in
    /// order, and the region ends with nothing held.
    #[test]
    fn small_rings_deliver_every_byte_and_free_every_chunk() {
        const TOTAL: usize = 400_000;
        let byte = |i: usize| (i % 251) as u8;
        for capacity in [8, 2] {
            let mut cfg = kernel_cfg(0, 1, 1);
            cfg.queue_capacity = capacity;
            let mut host = NetKernelHost::new(cfg).unwrap();
            let ls = remote_listener(&mut host);
            let s = guest_connect(&mut host);
            host.run(20, 100_000);
            let conn = host.remote_mut(REMOTE_IP).unwrap().accept(ls).unwrap().0;

            let (mut sent, mut got) = (0, Vec::new());
            let mut buf = vec![0u8; 64 * 1024];
            for _ in 0..5_000 {
                let rest: Vec<u8> = (sent..TOTAL).map(byte).collect();
                let remote = host.remote_mut(REMOTE_IP).unwrap();
                sent += remote.send(conn, &rest).unwrap_or(0);
                host.run(1, 100_000);
                let guest = host.guest_mut(VmId(1)).unwrap();
                while let Ok(n @ 1..) = guest.recv(s, &mut buf) {
                    got.extend_from_slice(&buf[..n]);
                }
                if got.len() >= TOTAL {
                    break;
                }
            }
            assert_eq!(got.len(), TOTAL, "capacity {capacity}: bytes lost");
            assert!(
                got.iter().enumerate().all(|(i, &b)| b == byte(i)),
                "capacity {capacity}: bytes reordered or corrupted"
            );
            let region = host.guest_mut(VmId(1)).unwrap().region();
            let held = region.capacity() - region.available();
            assert_eq!(held, 0, "capacity {capacity}: hugepage bytes held");
            assert_eq!(host.parked_responses_of(VmId(1)), 0);
        }
    }

    /// The fullest ring of any nkbench workload is `rpc`'s set-up: 4 VMs,
    /// two per kernel NSM, each open 64 sockets and connect them in one
    /// tick, so each NSM's job ring takes 2 × 64 × 2 = 256 NQEs at once.
    /// Rings of half the default capacity hold that burst with no room to
    /// spare (at 255 slots a step takes one more poll round): every step
    /// switches and schedules exactly as on 4096-slot rings, and nothing
    /// stalls or parks, until all 256 connections are established.
    #[test]
    fn the_heaviest_open_burst_fits_half_a_default_ring() {
        const VMS: u8 = 4;
        const SOCKETS: usize = 64;
        let open = |capacity: usize| {
            let mut cfg = HostConfig::new()
                .with_nsm(NsmConfig::kernel(NsmId(1)))
                .with_nsm(NsmConfig::kernel(NsmId(2)));
            let mut mapping = Vec::new();
            for vm in 1..=VMS {
                cfg = cfg.with_vm(VmConfig::new(VmId(vm)));
                mapping.push((VmId(vm), NsmId((vm - 1) % 2 + 1)));
            }
            let mut cfg = cfg.with_mapping(VmToNsmPolicy::Static(mapping));
            cfg.queue_capacity = capacity;
            let mut host = NetKernelHost::new(cfg).unwrap();
            let remote = host.add_remote(REMOTE_IP);
            let ls = remote.socket();
            remote.bind(ls, SockAddr::new(0, 7)).unwrap();
            remote.listen(ls, 1024).unwrap();
            let mut socks = Vec::new();
            for vm in (1..=VMS).map(VmId) {
                let guest = host.guest_mut(vm).unwrap();
                for _ in 0..SOCKETS {
                    let s = guest.socket().unwrap();
                    guest.connect(s, SockAddr::new(REMOTE_IP, 7)).unwrap();
                    socks.push((vm, s));
                }
            }
            (host, socks)
        };
        let (mut half, socks) = open(DEFAULT_QUEUE_CAPACITY / 2);
        let (mut full, full_socks) = open(4096);
        assert_eq!(socks, full_socks);
        let established = |host: &mut NetKernelHost| {
            socks
                .iter()
                .filter(|&&(vm, s)| host.guest_mut(vm).unwrap().poll(s).writable())
                .count()
        };
        for step in 0..100 {
            half.step(100_000);
            full.step(100_000);
            assert_eq!(half.engine_stats(), full.engine_stats(), "step {step}");
            assert_eq!(half.sched_stats(), full.sched_stats(), "step {step}");
            for vm in (1..=VMS).map(VmId) {
                assert_eq!(
                    half.vm_switch_stats(vm),
                    full.vm_switch_stats(vm),
                    "step {step}: {vm:?}"
                );
                assert_eq!(half.parked_responses_of(vm), 0, "step {step}: {vm:?}");
            }
            assert_eq!(half.stalled_nqes(), 0, "step {step}: a request stalled");
            if established(&mut half) == socks.len() {
                break;
            }
        }
        assert_eq!(established(&mut half), VMS as usize * SOCKETS);
        assert_eq!(established(&mut full), VMS as usize * SOCKETS);
    }

    /// A remote's application polls its sockets and never reads the stack's
    /// events (before: one queued entry per readiness edge for the life of
    /// the host — 8 MB per `rpc` window of `nkbench`). The host drops them
    /// after every tick, and polling readiness is unaffected.
    #[test]
    fn a_remotes_unread_events_do_not_pile_up() {
        let mut host = kernel_host(0, 1, 1);
        let ls = remote_listener(&mut host);
        let s = guest_connect(&mut host);
        host.run(20, 100_000);
        let remote = host.remote_mut(REMOTE_IP).unwrap();
        assert!(remote.pop_event().is_none(), "the accept edge was kept");
        let (conn, _) = remote.accept(ls).unwrap();

        let mut buf = [0u8; 64];
        for i in 0..50u8 {
            host.guest_mut(VmId(1)).unwrap().send(s, &[i; 64]).unwrap();
            host.run(5, 100_000);
            let remote = host.remote_mut(REMOTE_IP).unwrap();
            assert!(TcpStack::poll(remote, conn).readable());
            assert_eq!(remote.recv(conn, &mut buf).unwrap(), 64);
            assert_eq!(buf, [i; 64]);
            assert!(remote.pop_event().is_none(), "message {i}");
        }
    }

    /// Two VMs multiplexed onto the same NSM (use case 1): both make
    /// independent connections through one stack.
    #[test]
    fn two_vms_share_one_nsm() {
        let cfg = HostConfig::new()
            .with_vm(VmConfig::new(VmId(1)))
            .with_vm(VmConfig::new(VmId(2)))
            .with_nsm(NsmConfig::kernel(NsmId(1)).with_vcpus(2))
            .with_mapping(VmToNsmPolicy::All(NsmId(1)));
        let mut host = NetKernelHost::new(cfg).unwrap();
        let remote = host.add_remote(REMOTE_IP);
        let ls = remote.socket();
        remote.bind(ls, SockAddr::new(0, 80)).unwrap();
        remote.listen(ls, 64).unwrap();

        for vm in [VmId(1), VmId(2)] {
            let guest = host.guest_mut(vm).unwrap();
            let s = guest.socket().unwrap();
            guest.connect(s, SockAddr::new(REMOTE_IP, 80)).unwrap();
        }
        host.run(30, 100_000);
        let remote = host.remote_mut(REMOTE_IP).unwrap();
        let mut accepted = 0;
        while remote.accept(ls).is_ok() {
            accepted += 1;
        }
        assert_eq!(accepted, 2, "both VMs' connections reach the shared NSM");
    }

    /// Two colocated VMs of one tenant on a shared-memory NSM, with
    /// `hugepages` pages per VM–NSM pair; VM1 listens on port 9000.
    fn colocated(hugepages: usize) -> (NetKernelHost, SocketId) {
        let mut cfg = HostConfig::new()
            .with_vm(VmConfig::new(VmId(1)).with_tenant(7))
            .with_vm(VmConfig::new(VmId(2)).with_tenant(7))
            .with_nsm(NsmConfig::shared_mem(NsmId(1)))
            .with_mapping(VmToNsmPolicy::All(NsmId(1)));
        cfg.hugepages_per_pair = hugepages;
        let mut host = NetKernelHost::new(cfg).unwrap();
        let g1 = host.guest_mut(VmId(1)).unwrap();
        let ls = g1.socket().unwrap();
        g1.bind(ls, SockAddr::new(0, 9000)).unwrap();
        g1.listen(ls, 8).unwrap();
        host.run(5, 100_000);
        (host, ls)
    }

    /// VM2 connects to VM1's listener `ls`: the writer's and the reader's
    /// sockets.
    fn colocated_pair(host: &mut NetKernelHost, ls: SocketId) -> (SocketId, SocketId) {
        let g2 = host.guest_mut(VmId(2)).unwrap();
        let cs = g2.socket().unwrap();
        g2.connect(cs, SockAddr::new(0, 9000)).unwrap();
        host.run(5, 100_000);
        let (conn, _) = host.guest_mut(VmId(1)).unwrap().accept(ls).unwrap();
        (cs, conn)
    }

    /// VM2 writes `stream` from `sent` on for one step, as far as its send
    /// credit goes; a writer is refused with `WouldBlock`, never an error.
    fn write_step(host: &mut NetKernelHost, cs: SocketId, stream: &[u8], sent: &mut usize) {
        let g2 = host.guest_mut(VmId(2)).unwrap();
        while *sent < stream.len() {
            match g2.send(cs, &stream[*sent..]) {
                Ok(n) => *sent += n,
                Err(NkError::WouldBlock) => break,
                Err(e) => panic!("the writer failed with {e:?} after {sent} bytes"),
            }
        }
        host.run(1, 100_000);
    }

    /// VM1 reads all it has on `conn` onto `got`; the last result.
    fn read_all(host: &mut NetKernelHost, conn: SocketId, got: &mut Vec<u8>) -> NkResult<usize> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            match host.guest_mut(VmId(1)).unwrap().recv(conn, &mut buf) {
                Ok(n) if n > 0 => got.extend_from_slice(&buf[..n]),
                other => return other,
            }
        }
    }

    fn stream(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    /// Colocated VMs of the same tenant exchange data through the
    /// shared-memory NSM without any TCP processing (use case 4).
    #[test]
    fn shared_memory_nsm_connects_colocated_vms() {
        let (mut host, ls) = colocated(DEFAULT_HUGEPAGE_COUNT);
        let (cs, conn) = colocated_pair(&mut host, ls);
        let g2 = host.guest_mut(VmId(2)).unwrap();
        assert!(g2.poll(cs).writable());
        g2.send(cs, b"colocated traffic").unwrap();
        host.run(5, 100_000);

        let mut got = Vec::new();
        let _ = read_all(&mut host, conn, &mut got);
        assert_eq!(got, b"colocated traffic");
        assert_eq!(host.nsm_service_stats(NsmId(1)).unwrap().accepted, 1);
    }

    /// A colocated reader that stalls holds its writer back as a TCP window
    /// would: the writer is refused with `WouldBlock`, never an error, and
    /// every byte arrives in order once the reader resumes. The reader's
    /// 2-MiB region never fills: ServiceLib announces at most its receive
    /// budget, and the rest waits in the stack.
    #[test]
    fn a_stalled_colocated_reader_holds_its_writer_back_and_loses_nothing() {
        let (mut host, ls) = colocated(1);
        let (cs, conn) = colocated_pair(&mut host, ls);
        let stream = stream(4 * HUGEPAGE_SIZE);
        let (mut sent, mut got) = (0, Vec::new());
        for _ in 0..50 {
            write_step(&mut host, cs, &stream, &mut sent);
        }
        // The reader's receive budget in its region, the stack's receive
        // queue and the writer's send credit: nothing more leaves the writer.
        assert!(sent <= 3 * DEFAULT_RECV_BUF, "{sent} bytes left the writer");
        for _ in 0..2_000 {
            if got.len() == stream.len() {
                break;
            }
            assert_eq!(
                read_all(&mut host, conn, &mut got),
                Err(NkError::WouldBlock)
            );
            write_step(&mut host, cs, &stream, &mut sent);
        }
        assert!(
            got == stream,
            "{} of {} bytes, in order",
            got.len(),
            stream.len()
        );
    }

    /// A colocated stream of 64-KiB messages costs CoreEngine at most 64
    /// NQEs per MiB: a `Send` and its `SendComplete` per message, and on
    /// the reader's side one `DataReceived` per pump and one
    /// `RecvConsumed` per `recv`. Receive announced and credited in 16-KiB
    /// pieces costs 156.
    #[test]
    fn a_colocated_stream_costs_at_most_64_engine_nqes_per_mib() {
        let (mut host, ls) = colocated(DEFAULT_HUGEPAGE_COUNT);
        let (cs, conn) = colocated_pair(&mut host, ls);
        let stream = stream(4 << 20);
        let (mut sent, mut got) = (0, Vec::new());
        let before = host.engine_stats().nqes_switched;
        for _ in 0..1_000 {
            if got.len() == stream.len() {
                break;
            }
            let g2 = host.guest_mut(VmId(2)).unwrap();
            while sent < stream.len() {
                match g2.send(cs, &stream[sent..(sent + 64 * 1024).min(stream.len())]) {
                    Ok(n) => sent += n,
                    Err(e) => {
                        assert_eq!(e, NkError::WouldBlock);
                        break;
                    }
                }
            }
            host.run(1, 100_000);
            let _ = read_all(&mut host, conn, &mut got);
        }
        assert!(got == stream, "{} of {} bytes", got.len(), stream.len());
        let per_mib = (host.engine_stats().nqes_switched - before) / 4;
        assert!(per_mib <= 64, "{per_mib} CoreEngine NQEs per MiB");
    }

    /// `shutdown(Write)` reaches a colocated reader as EOF after every byte
    /// written before it, even bytes still waiting for receive credit when
    /// the shutdown arrives: a stalled reader's budget and the stack's
    /// receive queue are full, and a third share waits in ServiceLib.
    #[test]
    fn a_colocated_shutdown_reaches_the_reader_as_eof_after_its_bytes() {
        let (mut host, ls) = colocated(DEFAULT_HUGEPAGE_COUNT);
        let (cs, conn) = colocated_pair(&mut host, ls);
        let stream = stream(3 * DEFAULT_RECV_BUF);
        let mut sent = 0;
        for _ in 0..100 {
            write_step(&mut host, cs, &stream, &mut sent);
        }
        assert_eq!(sent, stream.len(), "the writer's credit ran out early");
        let g2 = host.guest_mut(VmId(2)).unwrap();
        g2.shutdown(cs, ShutdownHow::Write).unwrap();
        host.run(5, 100_000);
        let mut got = Vec::new();
        let mut last = Err(NkError::WouldBlock);
        for _ in 0..100 {
            last = read_all(&mut host, conn, &mut got);
            if last != Err(NkError::WouldBlock) {
                break;
            }
            host.run(1, 100_000);
        }
        assert_eq!(last, Ok(0), "EOF after {} bytes", got.len());
        assert!(
            got == stream,
            "{} of {} bytes before EOF",
            got.len(),
            stream.len()
        );
    }

    /// A remote's close reaches a guest over TCP as EOF after every byte
    /// it wrote, even bytes the NSM's stack still holds when the FIN
    /// arrives: the guest does not read until the remote has closed, and its
    /// receive budget takes half the stream.
    #[test]
    fn a_tcp_peer_close_reaches_the_guest_as_eof_after_its_bytes() {
        let mut host = one_vm_host(StackKind::Kernel);
        let ls = remote_listener(&mut host);
        let s = guest_connect(&mut host);
        host.run(20, 100_000);
        let conn = host.remote_mut(REMOTE_IP).unwrap().accept(ls).unwrap().0;
        let stream = stream(2 * DEFAULT_RECV_BUF);
        let mut sent = 0;
        for _ in 0..100 {
            let remote = host.remote_mut(REMOTE_IP).unwrap();
            sent += remote.send(conn, &stream[sent..]).unwrap_or(0);
            host.run(1, 100_000);
        }
        assert_eq!(sent, stream.len(), "the remote's window closed early");
        host.remote_mut(REMOTE_IP).unwrap().close(conn).unwrap();
        host.run(20, 100_000);
        let (mut got, mut buf) = (Vec::new(), vec![0u8; 16 * 1024]);
        let mut last = Err(NkError::WouldBlock);
        for _ in 0..100 {
            last = host.guest_mut(VmId(1)).unwrap().recv(s, &mut buf);
            match last {
                Ok(n @ 1..) => got.extend_from_slice(&buf[..n]),
                Err(NkError::WouldBlock) => host.run(1, 100_000),
                _ => break,
            }
        }
        assert_eq!(last, Ok(0), "no EOF after {} bytes", got.len());
        assert!(
            got == stream,
            "{} of {} bytes before EOF",
            got.len(),
            stream.len()
        );
    }

    /// Two VMs on one kernel NSM reach each other through its vNIC, with
    /// the host's block and uplink routes installed as in a cluster: the
    /// NSM's frames to its own address come back in on its /32 route and
    /// are delivered, never dropped as a hairpin, and nothing leaves the
    /// host.
    #[test]
    fn two_vms_on_one_nsm_echo_through_its_own_vnic() {
        let mut host = kernel_host(1, 2, 1);
        host.connect_uplink(nk_fabric::uplink_pair(0).0);
        let ip = host.nsm_addr(NsmId(1));
        let g1 = host.guest_mut(VmId(1)).unwrap();
        let ls = g1.socket().unwrap();
        g1.bind(ls, SockAddr::new(ip, 80)).unwrap();
        g1.listen(ls, 8).unwrap();
        let g2 = host.guest_mut(VmId(2)).unwrap();
        let cs = g2.socket().unwrap();
        g2.connect(cs, SockAddr::new(ip, 80)).unwrap();
        host.run(20, 100_000);
        let g2 = host.guest_mut(VmId(2)).unwrap();
        assert!(g2.poll(cs).writable(), "connect did not complete");
        g2.send(cs, b"one vNIC, two VMs").unwrap();
        host.run(20, 100_000);

        let g1 = host.guest_mut(VmId(1)).unwrap();
        let (conn, _) = g1.accept(ls).unwrap();
        let mut buf = [0u8; 64];
        let n = g1.recv(conn, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"one vNIC, two VMs");
        g1.send(conn, &buf[..n]).unwrap();
        host.run(20, 100_000);
        let n = host.guest_mut(VmId(2)).unwrap().recv(cs, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"one vNIC, two VMs");
        let uplink = host.switch().link_stats(0).unwrap();
        assert_eq!(uplink.delivered_bytes, 0, "nothing left the host");
    }

    #[test]
    fn invalid_config_is_rejected() {
        let cfg = HostConfig::new().with_vm(VmConfig::new(VmId(1)).with_vcpus(0));
        assert!(NetKernelHost::new(cfg).is_err());
    }

    /// A deep backlog of requests drains within a single host step: the
    /// step keeps polling until the datapath is quiescent instead of
    /// sweeping a fixed number of passes.
    #[test]
    fn deep_queue_round_trips_complete_in_one_step() {
        let mut host = one_vm_host(StackKind::Kernel);
        let ls = remote_listener(&mut host);

        let s = guest_connect(&mut host);
        host.run(20, 100_000);
        let guest = host.guest_mut(VmId(1)).unwrap();
        assert!(guest.poll(s).writable(), "connect did not complete");

        // Pile up a deep backlog before letting the host move at all.
        let payload = [0x5Au8; 16];
        for _ in 0..32 {
            assert_eq!(guest.send(s, &payload).unwrap(), payload.len());
        }
        let before = host.sched_stats();
        let work = host.step(100_000);
        let after = host.sched_stats();
        // Working rounds plus the quiescent round that ended the step.
        assert!(after.rounds - before.rounds >= 2, "{before:?} → {after:?}");
        assert_eq!(after.quiescent_exits, before.quiescent_exits + 1);
        assert_eq!(after.round_limit_hits, before.round_limit_hits);
        assert_eq!(after.work_items - before.work_items, work as u64);
        assert!(work >= 32, "every queued request is a work item: {work}");

        // Everything crossed guest → engine → NSM → switch → remote in that
        // one step.
        let remote = host.remote_mut(REMOTE_IP).unwrap();
        let (conn, _) = remote.accept(ls).unwrap();
        let mut buf = [0u8; 1024];
        let mut received = 0;
        while let Ok(n) = remote.recv(conn, &mut buf) {
            if n == 0 {
                break;
            }
            received += n;
        }
        assert_eq!(received, 32 * payload.len());
    }

    /// Every step either reaches quiescence or hits the round bound, and an
    /// idle step is exactly one quiescent round of no work.
    #[test]
    fn scheduler_accounts_for_every_step() {
        let mut host = one_vm_host(StackKind::Kernel);
        host.run(10, 100_000);
        let stats = host.sched_stats();
        assert_eq!(stats.steps, 10);
        assert_eq!(stats.quiescent_exits + stats.round_limit_hits, stats.steps);
        assert_eq!(
            (stats.rounds, stats.quiescent_exits, stats.work_items),
            (10, 10, 0),
            "idle steps must exit on quiescence after one round, not at the bound"
        );
    }

    /// A round bound of 1 degrades gracefully: progress is slower (one poll
    /// round per step) but the datapath still works end to end.
    #[test]
    fn single_round_bound_still_serves_traffic() {
        let mut cfg = kernel_cfg(0, 1, 1);
        cfg.max_poll_rounds = 1;
        let mut host = NetKernelHost::new(cfg).unwrap();
        remote_listener(&mut host);

        let s = guest_connect(&mut host);
        host.run(60, 100_000);
        let guest = host.guest_mut(VmId(1)).unwrap();
        assert!(guest.poll(s).writable(), "connect did not complete");
        let stats = host.sched_stats();
        assert_eq!(stats.rounds, stats.steps);
        // A round that reported work at the bound is a limit hit, never a
        // quiescent exit.
        assert!(stats.round_limit_hits > 0, "{stats:?}");
        assert_eq!(stats.quiescent_exits + stats.round_limit_hits, stats.steps);
    }

    #[test]
    fn zero_poll_rounds_is_rejected() {
        let mut cfg = kernel_cfg(0, 1, 1);
        cfg.max_poll_rounds = 0;
        assert!(NetKernelHost::new(cfg).is_err());
    }

    /// An installed fault plan fires in the step's inject phase at the
    /// configured virtual times, and fault events count as step work.
    #[test]
    fn fault_plan_applies_at_scheduled_times() {
        let mut host = kernel_host(0, 1, 2);
        let plan = FaultPlan::new()
            .at(250_000, FaultAction::CrashNsm(NsmId(1)))
            .at(
                250_000,
                FaultAction::MigrateVm {
                    vm: VmId(1),
                    to: NsmId(2),
                },
            )
            .at(
                450_000,
                FaultAction::DegradeLink {
                    nsm: NsmId(2),
                    link: LinkConfig::ideal().with_latency_us(100),
                },
            )
            .at(650_000, FaultAction::RestartNsm(NsmId(1)));
        host.install_fault_plan(&plan).unwrap();
        assert_eq!(host.injector.pending(), 4);

        host.step(100_000); // t=100µs: nothing due
        assert_eq!(host.fault_stats().applied, 0);
        assert!(host.has_nsm(NsmId(1)));
        assert!(host.step(200_000) >= 2); // t=300µs: crash + migrate fire together
        assert_eq!(host.fault_stats().applied, 2);
        assert!(!host.has_nsm(NsmId(1)));
        assert_eq!(host.nsm_of(VmId(1)), Some(NsmId(2)));
        // t=500µs: link degradation. A step whose only activity is a fault
        // is not idle: one (quiescent) round, one work item.
        let rounds = host.sched_stats().rounds;
        assert_eq!(host.step(200_000), 1);
        assert_eq!(host.sched_stats().rounds, rounds + 1);
        assert_eq!(host.fault_stats().link_changes, 1);
        host.step(200_000); // t=700µs: restart
        assert_eq!(host.fault_stats().applied, 4);
        assert!(host.has_nsm(NsmId(1)));
        assert_eq!(host.injector.pending(), 0);
        let stats = host.sched_stats();
        assert_eq!(stats.fault_events, 4);
        assert!(stats.work_items >= 4, "{stats:?}");
    }

    #[test]
    fn invalid_fault_plans_are_rejected_at_install() {
        let mut host = one_vm_host(StackKind::Kernel);
        let plan = FaultPlan::new().at(0, FaultAction::CrashNsm(NsmId(9)));
        assert_eq!(host.install_fault_plan(&plan), Err(NkError::BadConfig));
        let plan = FaultPlan::new().at(0, FaultAction::RestartNsm(NsmId(1)));
        assert_eq!(host.install_fault_plan(&plan), Err(NkError::BadConfig));
    }

    /// A link fault's latency is bounded like the uplink's, whether it
    /// arrives in a plan or directly: past one second it is refused with
    /// `BadConfig` instead of overflowing when the next frame is scheduled.
    #[test]
    fn link_fault_latency_past_one_second_is_rejected() {
        let mut host = one_vm_host(StackKind::Kernel);
        let fault = |us| LinkConfig::ideal().with_latency_us(us);
        for us in [1_000_001, u64::MAX] {
            let link = fault(us);
            let plan = FaultPlan::new().at(
                0,
                FaultAction::DegradeLink {
                    nsm: NsmId(1),
                    link,
                },
            );
            assert_eq!(host.install_fault_plan(&plan), Err(NkError::BadConfig));
            assert_eq!(
                host.degrade_nsm_link(NsmId(1), link),
                Err(NkError::BadConfig)
            );
        }
        assert_eq!(host.degrade_nsm_link(NsmId(1), fault(1_000_000)), Ok(()));
        remote_listener(&mut host);
        guest_connect(&mut host);
        host.run(5, 100_000);
    }

    /// A `DegradeLink` with no rate cap gives the vNIC back its provisioned
    /// `nic_rate_gbps`, not an uncapped link: restoring a degraded link
    /// never leaves it faster than it was provisioned. The rate is read
    /// off the link's policing: of a 200-kB and a 4-MB frame offered at
    /// once, a 25 Gbps link's 1-ms burst passes the first only, a 1 Gbps
    /// link neither, an uncapped one both.
    #[test]
    fn restoring_a_degraded_link_gives_back_the_provisioned_rate() {
        const PROBE: u32 = 0x0A00_0200;
        let mut cfg = kernel_cfg(0, 1, 1);
        cfg.nsms[0].nic_rate_gbps = 25.0;
        let mut host = NetKernelHost::new(cfg).unwrap();
        let degrade = |link| FaultAction::DegradeLink {
            nsm: NsmId(1),
            link,
        };
        let plan = FaultPlan::new()
            .at(100_000, degrade(LinkConfig::ideal().with_rate_gbps(1.0)))
            .at(200_000, degrade(LinkConfig::ideal()));
        host.install_fault_plan(&plan).unwrap();
        let vnic = host.nsm_addr(NsmId(1));
        let probe = host.switch.attach(PROBE);
        let mut policed = Vec::new();
        for _ in 0..3 {
            let before = host.switch.link_stats(vnic).unwrap().dropped;
            for wire_bytes in [200_000, 4_000_000] {
                let (src, dst) = (SockAddr::new(PROBE, 9), SockAddr::new(vnic, 9));
                let payload = Segment::control(src, dst, nk_netstack::SegmentFlags::ack());
                probe.send(nk_fabric::Frame {
                    src: PROBE,
                    dst: vnic,
                    flow_hash: 0,
                    wire_bytes,
                    payload,
                });
            }
            host.switch.step(host.now_ns);
            policed.push(host.switch.link_stats(vnic).unwrap().dropped - before);
            host.step(100_000);
        }
        assert_eq!(policed, [1, 2, 1], "frames policed at 25, 1, 25 Gbps");
    }

    /// A non-zero host id shifts every NSM vNIC into the host's own /16
    /// block; the datapath works unchanged inside it.
    #[test]
    fn host_id_shifts_nsm_addresses() {
        let mut host = kernel_host(3, 1, 1);
        assert_eq!(host.nsm_addr(NsmId(1)), 0x0A03_0001);
        assert_eq!(host.host_id(), nk_types::HostId(3));
        // A remote inside the host's block is reachable as before.
        let remote_ip = 0x0A03_0100;
        remote_listener_at(&mut host, remote_ip);
        let s = guest_connect_to(&mut host, remote_ip);
        host.run(20, 100_000);
        let guest = host.guest_mut(VmId(1)).unwrap();
        assert!(guest.poll(s).writable());
    }
}
